"""Command-line entry point.

Subcommands: ``build``, ``run``, ``sweep``, ``oracle``, ``lemma-check``,
``stabilize-probe``, ``rerun``. Every run writes its outputs plus a manifest
recording the full parameter set and seed; ``rerun <manifest>`` reproduces
the outputs byte for byte. Exit codes: 0 success (all requested checks
passed), 1 a requested check failed, 2 usage, 3 validation, 4 resource.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .builders import (
    EXPECTED_TIME,
    HIGH_PROBABILITY,
    WtaInstance,
    WtaVariant,
    build,
    gamma_for,
    tc_bound,
)
from .errors import StateSpaceTooLarge, WtaLabError
from .experiments import (
    CSV_FIELDS,
    TRIAL_LOG_FIELDS,
    TrialPlan,
    run_trials,
    self_stabilization_probe,
    sweep,
)
from .lemmas import GROUP_IDS, LemmaParams, lemma_check
from .oracle import convergence_cdf
from .simulate import ALL_FIRE, ALL_ZERO, EXPLICIT, UNIFORM_RANDOM, ExecutionWindow

_VARIANT_FLAGS = {
    "two-inhibitor": "two_inhibitor",
    "single-inhibitor": "single_inhibitor",
    "log-inhibitor": "log_inhibitor",
}
_INIT_FLAGS = {
    "zero": ALL_ZERO,
    "fire": ALL_FIRE,
    "random": UNIFORM_RANDOM,
    "file": EXPLICIT,
}


def _load_window(args) -> ExecutionWindow | None:
    if args.init != "file":
        return None
    if not args.init_file:
        raise WtaLabError("--init file needs --init-file PATH")
    frames = json.loads(Path(args.init_file).read_text())
    return ExecutionWindow(np.asarray(frames, dtype=np.uint8))


def _positive_gamma(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"InvalidGamma: gamma must be finite and > 0, got {value}"
        )
    return value


def _parse_input_bits(text: str | None, n: int) -> tuple[int, ...]:
    if text is None:
        return tuple([1] * n)
    bits = tuple(int(c) for c in text)
    if len(bits) != n or any(b not in (0, 1) for b in bits):
        raise WtaLabError(f"--input must be {n} bits of 0/1")
    return bits


def _params(args) -> dict:
    params = vars(args).copy()
    params.pop("func", None)
    params.pop("command", None)
    return params


def _write_manifest(out: Path, command: str, params: dict, outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "parameters": params,
        "version": __version__,
        "outputs": outputs,
    }
    path = out.with_suffix(out.suffix + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write_rows(out: Path, rows: list[dict], fields: list[str]) -> list[str]:
    csv_path = out.with_suffix(".csv")
    json_path = out.with_suffix(".json")
    with csv_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if row[k] is None else row[k]) for k in fields})
    json_path.write_text(json.dumps(rows, indent=2) + "\n")
    return [str(csv_path), str(json_path)]


def _variant(args, mode: str | None) -> WtaVariant:
    return WtaVariant(_VARIANT_FLAGS[args.variant], mode)


def _resolve_instance(args) -> WtaInstance:
    mode = HIGH_PROBABILITY if args.delta is not None else EXPECTED_TIME
    variant = _variant(args, mode if (args.gamma_auto or args.tc_auto) else None)
    gamma = args.gamma
    if args.gamma_auto:
        gamma = gamma_for(variant, args.n, args.ts, args.delta)
    if gamma is None:
        raise WtaLabError("need --gamma or --gamma-auto")
    t_c = args.tc
    if args.tc_auto:
        t_c = tc_bound(variant, args.n, args.delta)
    if t_c is None:
        raise WtaLabError("need --tc or --tc-auto")
    return WtaInstance(
        n=args.n,
        gamma=gamma,
        t_s=args.ts,
        delta=args.delta,
        t_c=t_c,
        input_bits=_parse_input_bits(args.input, args.n),
        variant=variant,
    )


def _cmd_build(args) -> int:
    spec = build(_VARIANT_FLAGS[args.variant], args.n, args.gamma)
    out = Path(args.out)
    out.write_text(spec.to_json() + "\n")
    _write_manifest(
        out, "build",
        {"variant": args.variant, "n": args.n, "gamma": args.gamma, "out": args.out},
        [str(out)],
    )
    return 0


def _summaries_to_files(args, summaries, command: str, params: dict) -> int:
    rows = [s.row() for s in summaries]
    out = Path(args.out)
    outputs = _write_rows(out, rows, CSV_FIELDS)
    _write_manifest(out, command, params, outputs)
    return 0


def _cmd_run(args) -> int:
    if any(isinstance(v, list) for v in (args.n, args.ts, args.delta)):
        raise WtaLabError("run takes single values; use sweep for a grid")
    instance = _resolve_instance(args)
    plan = TrialPlan(
        instance=instance,
        initial_policy=_INIT_FLAGS[args.init],
        horizon=args.horizon,
        trials=args.trials,
        seed=args.seed,
        explicit_window=_load_window(args),
    )
    summary = run_trials(plan, capture_final=args.log_trials)
    code = _summaries_to_files(args, [summary], "run", _params(args))
    if args.log_trials:
        log_path = Path(args.out).with_suffix(".trials.csv")
        with log_path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=TRIAL_LOG_FIELDS)
            writer.writeheader()
            for row in summary.trial_rows():
                writer.writerow(
                    {k: ("" if row[k] is None else row[k]) for k in TRIAL_LOG_FIELDS}
                )
    return code


def _cmd_sweep(args) -> int:
    plans = []
    ns = args.n if isinstance(args.n, list) else [args.n]
    tss = args.ts if isinstance(args.ts, list) else [args.ts]
    deltas = args.delta if isinstance(args.delta, list) else [args.delta]
    window = _load_window(args)
    for n in ns:
        for t_s in tss:
            for delta in deltas:
                local = argparse.Namespace(**vars(args))
                local.n, local.ts, local.delta = n, t_s, delta
                instance = _resolve_instance(local)
                plans.append(
                    TrialPlan(
                        instance=instance,
                        initial_policy=_INIT_FLAGS[args.init],
                        horizon=args.horizon,
                        trials=args.trials,
                        seed=args.seed,
                        explicit_window=window,
                    )
                )
    return _summaries_to_files(args, sweep(plans), "sweep", _params(args))


def _cmd_oracle(args) -> int:
    tag = _VARIANT_FLAGS[args.variant]
    spec = build(tag, args.n, args.gamma)
    x = np.asarray(_parse_input_bits(args.input, args.n), dtype=np.uint8)
    frames = np.zeros((spec.history, spec.n_neurons), dtype=np.uint8)
    frames[:, spec.input_indices] = x
    if args.init == "fire":
        frames[:, spec.non_input_indices] = 1
    cdf = convergence_cdf(spec, x, frames, args.ts, args.tmax)
    out = Path(args.out)
    csv_path = out.with_suffix(".csv")
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "p_exact"])
        for t, p in enumerate(cdf.tolist()):
            writer.writerow([t, repr(p)])
    _write_manifest(out, "oracle", _params(args), [str(csv_path)])
    return 0


def _cmd_lemma_check(args) -> int:
    params = LemmaParams(
        n=args.n, gamma=args.gamma, samples=args.samples, seed=args.seed,
        t_s=args.ts, level=args.level,
    )
    ids = args.lemma or list(GROUP_IDS)
    reports = []
    for lemma_id in ids:
        reports.extend(lemma_check(lemma_id, params=params))
    rows = [r.as_dict() for r in reports]
    out = Path(args.out)
    fields = ["lemma", "description", "frequency", "bound", "kind", "samples", "passed"]
    outputs = _write_rows(out, [{k: r.get(k) for k in fields} for r in rows], fields)
    _write_manifest(out, "lemma-check", _params(args), outputs)
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"{status} {r.lemma_id}: freq={r.frequency:.6f} bound={r.bound:.6f}")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_stabilize_probe(args) -> int:
    if any(isinstance(v, list) for v in (args.n, args.ts, args.delta)):
        raise WtaLabError("stabilize-probe takes single values")
    instance = _resolve_instance(args)
    plan = TrialPlan(
        instance=instance,
        initial_policy=_INIT_FLAGS[args.init],
        horizon=args.horizon,
        trials=args.trials,
        seed=args.seed,
        explicit_window=_load_window(args),
    )
    probe = self_stabilization_probe(plan, perturbations=args.perturbations)
    fractions = probe.reconvergence_fractions()
    rows = [probe.initial.row()]
    out = Path(args.out)
    outputs = _write_rows(out, rows, CSV_FIELDS)
    report = {
        "initial_success_frac": probe.initial.success_frac,
        "reconvergence_fractions": fractions,
        "perturbation_times": list(probe.perturbation_times),
    }
    probe_path = out.with_suffix(".probe.json")
    probe_path.write_text(json.dumps(report, indent=2) + "\n")
    _write_manifest(out, "stabilize-probe", _params(args), outputs + [str(probe_path)])
    threshold = 1.0 - (instance.delta if instance.delta is not None else 0.0)
    return 0 if all(f >= threshold - 1e-12 or instance.delta is None for f in fractions) else 1


def _cmd_rerun(args) -> int:
    manifest = json.loads(Path(args.manifest).read_text())
    params = manifest["parameters"]
    argv = [manifest["command"]]
    for key, value in params.items():
        if value is None or key == "func":
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        elif isinstance(value, list):
            if key == "lemma":
                for v in value:
                    argv.extend([flag, str(v)])
            else:
                argv.extend([flag, ",".join(str(v) for v in value)])
        else:
            argv.extend([flag, str(value)])
    return main(argv)


def _add_common(p: argparse.ArgumentParser, seed_required: bool) -> None:
    p.add_argument("--variant", choices=sorted(_VARIANT_FLAGS), default="two-inhibitor",
                   help="network family (default: two-inhibitor)")
    p.add_argument("--n", type=_int_list, required=True,
                   help="competition size; comma-separated list for sweep")
    p.add_argument("--gamma", type=_positive_gamma, default=None,
                   help="weight scale (or use --gamma-auto)")
    p.add_argument("--gamma-auto", action="store_true",
                   help="derive gamma from the regime bound for (n, ts, delta)")
    p.add_argument("--ts", type=_int_list, default=10,
                   help="stability time (default 10); comma list for sweep")
    p.add_argument("--delta", type=_float_list, default=None,
                   help="failure probability; omit for the expected-time "
                        "regime; comma list for sweep")
    p.add_argument("--tc", type=int, default=None,
                   help="convergence budget (or use --tc-auto)")
    p.add_argument("--tc-auto", action="store_true",
                   help="derive t_c from the regime bound")
    p.add_argument("--trials", type=int, default=1000, help="trial count (default 1000)")
    p.add_argument("--horizon", type=int, default=None,
                   help="frames to simulate (default 4*t_c + t_s)")
    p.add_argument("--seed", type=int, required=seed_required,
                   default=None if seed_required else 0,
                   help="root seed" + ("" if not seed_required else " (required)"))
    p.add_argument("--init", choices=sorted(_INIT_FLAGS), default="random",
                   help="initial window policy (default random)")
    p.add_argument("--init-file", default=None,
                   help="JSON window (h x N bit rows) for --init file")
    p.add_argument("--input", default=None,
                   help="input bits as a 0/1 string (default all ones)")
    p.add_argument("--out", required=True, help="output path stem")


def _int_list(text: str):
    values = [int(part) for part in text.split(",") if part]
    return values if len(values) > 1 else values[0]


def _float_list(text: str):
    values = [float(part) for part in text.split(",") if part]
    return values if len(values) > 1 else values[0]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="wtalab",
        description="winner-take-all spiking network laboratory",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="emit a network as JSON")
    p_build.add_argument("--variant", choices=sorted(_VARIANT_FLAGS), required=True)
    p_build.add_argument("--n", type=int, required=True)
    p_build.add_argument("--gamma", type=_positive_gamma, required=True)
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(func=_cmd_build)

    p_run = sub.add_parser("run", help="Monte Carlo convergence trials")
    _add_common(p_run, seed_required=True)
    p_run.add_argument("--log-trials", action="store_true",
                       help="also write a per-trial CSV log with labels")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid of trial batches over n")
    _add_common(p_sweep, seed_required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="exact convergence CDF")
    p_oracle.add_argument("--variant", choices=sorted(_VARIANT_FLAGS),
                          default="two-inhibitor")
    p_oracle.add_argument("--n", type=int, required=True)
    p_oracle.add_argument("--gamma", type=_positive_gamma, required=True)
    p_oracle.add_argument("--ts", type=int, required=True)
    p_oracle.add_argument("--tmax", type=int, required=True)
    p_oracle.add_argument("--init", choices=["zero", "fire"], default="zero")
    p_oracle.add_argument("--input", default=None)
    p_oracle.add_argument("--out", required=True)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_lemma = sub.add_parser("lemma-check", help="sampled transition checks")
    p_lemma.add_argument("--lemma", action="append", default=None,
                         help="check id, e.g. 3.9.2; repeatable; default all")
    p_lemma.add_argument("--n", type=int, default=8)
    p_lemma.add_argument("--gamma", type=_positive_gamma, default=14.0)
    p_lemma.add_argument("--samples", type=int, default=100_000)
    p_lemma.add_argument("--seed", type=int, default=0)
    p_lemma.add_argument("--ts", type=int, default=10)
    p_lemma.add_argument("--level", type=int, default=3)
    p_lemma.add_argument("--out", required=True)
    p_lemma.set_defaults(func=_cmd_lemma_check)

    p_probe = sub.add_parser("stabilize-probe", help="perturb and re-converge")
    _add_common(p_probe, seed_required=True)
    p_probe.add_argument("--perturbations", type=int, default=5)
    p_probe.set_defaults(func=_cmd_stabilize_probe)

    p_rerun = sub.add_parser("rerun", help="re-execute a manifest")
    p_rerun.add_argument("manifest")
    p_rerun.set_defaults(func=_cmd_rerun)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StateSpaceTooLarge as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except WtaLabError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
