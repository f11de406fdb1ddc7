"""Print one sha256 per result cell as JSON, to compare two trees bit for bit.

Run it on each tree and diff the outputs:

    PYTHONPATH=src python tools/digests.py > digests.json

The cells cover the Monte Carlo path (``run_trials`` convergence times and
final windows, three families at n = 16, 64, 1024, and
``self_stabilization_probe`` with two perturbations on two-inhibitor
n = 16, 64 and log-inhibitor n = 16), every lemma report
(all 28 checks, in ``GROUP_IDS`` order, and 5.12 again at t_s = 40, whose
hold reads 41 frames), the exact oracle
(``convergence_cdf`` for two-inhibitor n <= 8 and log-inhibitor n <= 3,
two-inhibitor n = 512, whose lumped chains take several row blocks, and the
window chain's own ``cdf`` for two- and single-inhibitor n <= 3),
``BatchRunner`` potentials, probabilities and steps on seeded random
networks whose columns read many distinct weights (those columns' count
codes fall into digit groups, a path the builder families never reach) and
on one network whose dense columns read runs of sources beside single
sources, and one ``lumps`` cell: a 0/1 digit per history-1 spec and input for
whether ``LumpedChain`` takes it.
It uses numpy and the public ``wtalab`` API only, and runs in well under a
minute on one core.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial

import numpy as np

import wtalab
from wtalab import (
    GROUP_IDS,
    LOG_INHIBITOR,
    SINGLE_INHIBITOR,
    TWO_INHIBITOR,
    BatchRunner,
    LumpedChain,
    NetworkSpec,
    RandomnessContract,
    TopologyMismatch,
    TrialPlan,
    WindowStateSpace,
    WtaInstance,
    WtaVariant,
    build,
    convergence_cdf,
    initial_window,
    lemma_check,
    run_trials,
    self_stabilization_probe,
)
from wtalab.network import AUXILIARY, EXCITATORY, INHIBITORY, INPUT, OUTPUT

# (gamma, t_s) per family: most trials converge within the horizon and a few
# time out (none for log-inhibitor at n = 16 and 1024), so the digests cover
# both outcomes
PARAMS = {TWO_INHIBITOR: (10.0, 3), SINGLE_INHIBITOR: (10.0, 1), LOG_INHIBITOR: (20.0, 3)}


def _sha(*parts) -> str:
    """sha256 over each part's dtype, shape and bytes (arrays) or its JSON."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            a = np.ascontiguousarray(part)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def _input_bits(n: int) -> tuple[int, ...]:
    """Every input on but each fifth, so silent inputs are covered too."""
    return tuple(int(i % 5 != 4) for i in range(n))


def trial_cells() -> dict:
    cells = {}
    for tag in (TWO_INHIBITOR, SINGLE_INHIBITOR, LOG_INHIBITOR):
        gamma, t_s = PARAMS[tag]
        for n, trials in ((16, 400), (64, 200), (1024, 48)):
            inst = WtaInstance(n=n, gamma=gamma, t_s=t_s, delta=None, t_c=20,
                               input_bits=_input_bits(n), variant=WtaVariant(tag))
            plan = TrialPlan(inst, trials=trials, seed=n + 7)
            got = run_trials(plan, capture_final=True)
            cells[f"run_trials/{tag}/n={n}/converged_at"] = _sha(got.converged_at)
            cells[f"run_trials/{tag}/n={n}/final_windows"] = _sha(got.final_windows)
    return cells


def probe_cells() -> dict:
    cells = {}
    for tag, n in ((TWO_INHIBITOR, 16), (TWO_INHIBITOR, 64), (LOG_INHIBITOR, 16)):
        gamma, t_s = PARAMS[tag]
        inst = WtaInstance(n=n, gamma=gamma, t_s=t_s, delta=None, t_c=20,
                           input_bits=_input_bits(n), variant=WtaVariant(tag))
        got = self_stabilization_probe(TrialPlan(inst, trials=200, seed=n + 11), 2)
        cells[f"probe/{tag}/n={n}"] = _sha(got.initial.converged_at, list(got.perturbation_times),
                                           *got.reconvergence_converged)
    return cells


def lemma_cells() -> dict:
    cells = {}
    for gid in GROUP_IDS:
        for report in lemma_check(gid, n=8, gamma=14.0, samples=20_000, seed=3):
            cells[f"lemma/{report.lemma_id}"] = _sha(report.as_dict())
    # 5.12 folds 41 frames here: one dropped or out of order changes the digest
    (report,) = lemma_check("5.12", n=8, gamma=14.0, samples=20_000, seed=3, t_s=40)
    cells["lemma/5.12@t_s=40"] = _sha(report.as_dict())
    return cells


def oracle_cells() -> dict:
    """``convergence_cdf``, and the window chain's own ``cdf`` on the
    history-1 families, which ``convergence_cdf`` sends to the lumped chain."""
    walks = {
        "oracle": lambda spec, x: partial(convergence_cdf, spec, x),
        "window_chain": lambda spec, x: WindowStateSpace(spec, x).cdf,
    }
    sizes = [("oracle", TWO_INHIBITOR, n) for n in range(1, 9)]
    sizes += [("oracle", LOG_INHIBITOR, n) for n in (2, 3)]
    sizes += [("window_chain", tag, n) for tag in (TWO_INHIBITOR, SINGLE_INHIBITOR)
              for n in (1, 2, 3)]
    cells = {}
    for walk, tag, n in sizes:
        spec = build(tag, n, PARAMS[tag][0])
        for x in (np.ones(n, dtype=np.uint8), np.array(_input_bits(n)) * (np.arange(n) != 0)):
            cdf = walks[walk](spec, x)
            for start in ("all_zero", "all_fire"):
                got = cdf(initial_window(spec, start, x), 2, 12)
                cells[f"{walk}/{tag}/n={n}/x={''.join(map(str, x))}/{start}"] = _sha(got)
    # 2,052 (X all ones) and 4,096 (one-hot X) lumped states: 3 and 5 row blocks
    gamma, t_s = PARAMS[TWO_INHIBITOR]
    spec = build(TWO_INHIBITOR, 512, gamma)
    for name, x in (("ones", np.ones(512)), ("one_hot", np.arange(512) == 0)):
        x = x.astype(np.uint8)
        got = convergence_cdf(spec, x, initial_window(spec, "all_zero", x), t_s, 30)
        cells[f"oracle/{TWO_INHIBITOR}/n=512/x={name}/all_zero"] = _sha(got)
    return cells


def _group_spec(seed: int) -> NetworkSpec:
    """A seeded random network: 3 inputs, then outputs and auxiliaries (each
    auxiliary inhibitory with probability 1/2), history 1 or 2. Seeds below
    8 make 3 to 18 of each with each allowed synapse present with
    probability 0.8, so their synapses fall in the dense columns; later
    seeds make 40 to 90 of each at 0.15, whose synapses fall in the dense
    rows and the gather slots. A column reads about 7 to 70 synapses. Every
    third spec rounds its weights to quarters, so classes of several
    synapses meet single ones."""
    g = np.random.default_rng(seed)
    low, high, density = (3, 19, 0.8) if seed < 8 else (40, 91, 0.15)
    h, n_out, n_aux = int(g.integers(1, 3)), *map(int, g.integers(low, high, 2))
    kind = np.repeat(np.uint8([INPUT, OUTPUT, AUXILIARY]), [3, n_out, n_aux])
    n = kind.size
    polarity = np.where((kind == AUXILIARY) & (g.random(n) < 0.5), INHIBITORY, EXCITATORY)
    w = g.uniform(0.0, 3.0, (h, n, n)) * (g.random((h, n, n)) < density)
    if seed % 3 == 0:
        w = np.round(w * 4.0) / 4.0
    w[:, polarity == INHIBITORY, :] *= -1.0
    w[:, :, kind == INPUT] = 0.0
    b = g.uniform(-3.0, 3.0, n) * (kind != INPUT)
    lam = float(g.choice([1.0, 0.37]))
    return NetworkSpec.from_dense(kind, polarity.astype(np.uint8), w, b, lam=lam, history=h)


def group_cells() -> dict:
    cells = {}
    for seed in range(14):
        spec = _group_spec(seed)
        g = np.random.default_rng(1000 + seed)
        frames = (g.random((64, spec.history, spec.n_neurons)) < 0.5).astype(np.uint8)
        x = (g.random(spec.input_indices.size) < 0.5).astype(np.uint8)
        frames[:, :, spec.input_indices] = x
        runner = BatchRunner(spec, RandomnessContract(seed))
        cells[f"groups/{seed}/potentials"] = _sha(runner.potentials(frames))
        cells[f"groups/{seed}/probabilities"] = _sha(runner.probabilities(frames))
        trials = np.arange(frames.shape[0])
        windows = []
        for t in range(spec.history, spec.history + 8):
            frames = runner.advance(frames, t, trials, x)
            windows.append(frames)
        cells[f"groups/{seed}/advance"] = _sha(*windows)
    return cells


def _runs_spec() -> NetworkSpec:
    """A seeded history-2 network of 3 inputs, 48 outputs and 4 auxiliaries
    (the last two inhibitory) with scattered synapses of distinct weights at
    density 0.05. At lag 1 the outputs reach only the first two auxiliaries:
    outputs 0..29 both, with one weight each, and outputs 30..47 the first
    alone. So ``BatchRunner`` reads those outputs as two runs of sources,
    beside single sources, in one dense column."""
    g = np.random.default_rng(77)
    kind = np.repeat(np.uint8([INPUT, OUTPUT, AUXILIARY]), [3, 48, 4])
    polarity = np.where(np.arange(kind.size) >= kind.size - 2, INHIBITORY, EXCITATORY)
    n = kind.size
    w = g.uniform(0.0, 3.0, (2, n, n)) * (g.random((2, n, n)) < 0.05)
    outs, aux = np.flatnonzero(kind == OUTPUT), np.flatnonzero(kind == AUXILIARY)
    w[0, outs] = 0.0
    w[0, outs[:30], aux[0]] = 1.25
    w[0, outs[:30], aux[1]] = 0.5
    w[0, outs[30:], aux[0]] = 2.0
    w[:, polarity == INHIBITORY, :] *= -1.0
    w[:, :, kind == INPUT] = 0.0
    b = g.uniform(-3.0, 3.0, n) * (kind != INPUT)
    return NetworkSpec.from_dense(kind, polarity.astype(np.uint8), w, b, history=2)


def runs_cells() -> dict:
    """``BatchRunner`` potentials, probabilities and one ``step_bits`` on
    ``_runs_spec``."""
    spec = _runs_spec()
    g = np.random.default_rng(1077)
    frames = (g.random((64, spec.history, spec.n_neurons)) < 0.5).astype(np.uint8)
    x = np.uint8([1, 0, 1])
    frames[:, :, spec.input_indices] = x
    runner = BatchRunner(spec, RandomnessContract(77))
    return {
        "runs/potentials": _sha(runner.potentials(frames)),
        "runs/probabilities": _sha(runner.probabilities(frames)),
        "runs/step_bits": _sha(runner.step_bits(frames, 2, np.arange(64), x)),
    }


def _changed(spec: NetworkSpec) -> list[NetworkSpec]:
    """Copies of a history-1 spec with one change each: the first output's
    self-loop, one lateral synapse, every lateral synapse at 0.8, the first
    output's bias."""
    outs, w = spec.output_indices, spec.weights
    loop, one, every, b = w.copy(), w.copy(), w.copy(), spec.biases.copy()
    loop[0, outs[0], outs[0]] += 1.0
    b[outs[0]] += 1.0
    weights = [loop]
    if outs.size > 1:
        one[0, outs[0], outs[1]] = 0.8
        lateral = ~np.eye(outs.size, dtype=bool)
        every[0, outs[:, None], outs] = np.where(lateral, 0.8, every[0, outs[:, None], outs])
        weights += [one, every]
    changed = [NetworkSpec.from_dense(spec.kind, spec.polarity, v, spec.biases, spec.lam)
               for v in weights]
    return changed + [NetworkSpec.from_dense(spec.kind, spec.polarity, w, b, spec.lam)]


def lump_cells() -> dict:
    """Whether ``LumpedChain`` builds (1) or raises ``TopologyMismatch`` (0):
    the two- and single-inhibitor families at n = 1..5 and their
    ``_changed`` copies under three X each, then the history-1 specs of
    ``_group_spec`` cut to their three inputs, first three outputs and first
    three auxiliaries, under a seeded X."""
    cases = []
    for tag in (TWO_INHIBITOR, SINGLE_INHIBITOR):
        for n in range(1, 6):
            spec = build(tag, n, PARAMS[tag][0])
            xs = [np.ones(n), np.arange(n) % 2, np.zeros(n)]
            cases += [(s, x) for s in [spec, *_changed(spec)] for x in xs]
    for seed in range(14):
        spec = _group_spec(seed)
        if spec.history == 1:
            keep = np.hstack([np.flatnonzero(spec.kind == k)[:3] for k in (INPUT, OUTPUT, AUXILIARY)])
            cut = NetworkSpec.from_dense(spec.kind[keep], spec.polarity[keep],
                                         spec.weights[:, keep][:, :, keep], spec.biases[keep],
                                         spec.lam)
            cases.append((cut, np.random.default_rng(2000 + seed).random(3) < 0.5))
    digits = []
    for spec, x in cases:
        try:
            LumpedChain(spec, x.astype(np.uint8))
            digits.append("1")
        except TopologyMismatch:
            digits.append("0")
    return {"lumps": "".join(digits)}


def main() -> None:
    cells = {"wtalab": wtalab.__version__}
    parts = (trial_cells, probe_cells, lemma_cells, oracle_cells, group_cells, runs_cells,
             lump_cells)
    for part in parts:
        cells.update(part())
    print(json.dumps(cells, indent=1))


if __name__ == "__main__":
    main()
