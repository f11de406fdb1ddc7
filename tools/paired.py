"""Compare one benchmark workload on two trees, in alternating pairs.

    python tools/paired.py --base ../parent --workload mc_log_n1024 --pairs 6

runs ``perfbench/run.py`` (untraced, one fixed seed, for the ``run_seconds``
of ``BENCHMARK.json``) in the ``--base`` tree and in this tree, ``--pairs``
times each. Pair ``i`` runs the base first when ``i`` is even and the head
first when it is odd, so a drift of the host over the session falls on both
sides alike. A run whose ``correct`` verdict is false stops the comparison.
It prints one markdown row per end-to-end metric: each side's median and
quartiles, the base runs' spread (interquartile range over median), the
ratio of the medians head/base, how many pairs the head is better in (lower
or higher, as the metric's ``better`` says), the metric's bound, and the
``verdict`` of the benchmark rules on them (see ``verdict``). Then it
lists every run's metrics, the host's one-minute load average before and
after it (``os.getloadavg``), so a pair run under outside load shows, and its
operations failed and attempted. It writes nothing but what
``perfbench/run.py`` itself writes in each tree.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last line of one untraced ``perfbench/run.py`` run in ``tree``,
    plus ``load``, the host's load average before and after the run; exits
    if the run fails or its ``correct`` verdict is false."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    before = os.getloadavg()[0]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    after = os.getloadavg()[0]
    if done.returncode:
        raise SystemExit(f"paired: {' '.join(argv)} in {tree} exited {done.returncode}:\n"
                         f"{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"paired: {' '.join(argv)} in {tree} failed its correctness gate "
                         f"({result['failed']}/{result['attempted']} operations failed)")
    result["load"] = (before, after)
    return result


def quartiles(values) -> str:
    """``median (q1–q3)`` of ``values``."""
    q1, mid, q3 = np.percentile(values, [25, 50, 75])
    return f"{mid:.4g} ({q1:.4g}–{q3:.4g})"


def spread(values) -> float:
    """Interquartile range over median."""
    q1, mid, q3 = np.percentile(values, [25, 50, 75])
    return float((q3 - q1) / mid) if mid else float("nan")


def verdict(base, head, better: str, bound: float) -> str:
    """The benchmark rules' reading of one metric over paired runs, pair
    ``i`` being ``base[i]`` and ``head[i]``; ``better`` is ``"lower"`` or
    ``"higher"`` and ``bound`` the metric's relative bound. In this order:

    * ``gain``: the head is better in at least 9/10 of the pairs (a tie
      counts for neither side) and its median is better than the base's by
      more than the base runs' interquartile range;
    * ``regression``: the head's median is worse than the base's by more
      than ``bound`` times the base's median;
    * ``unresolved``: the base runs' interquartile range over their median
      exceeds ``bound``, and not every head run is better than every base run;
    * ``no regression`` otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0
    b, h = sign * np.asarray(base, dtype=float), sign * np.asarray(head, dtype=float)
    q1, mid, q3 = np.percentile(b, [25, 50, 75])  # lower is better on this scale
    gap = mid - float(np.median(h))
    if np.count_nonzero(h < b) >= 0.9 * b.size and gap > q3 - q1:
        return "gain"
    if -gap > bound * abs(mid):
        return "regression"
    if (q3 - q1) > bound * abs(mid) and not h.max() < b.min():
        return "unresolved"
    return "no regression"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="the tree to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    trees = {"base": args.base.resolve(), "head": ROOT}

    runs: dict[str, list[dict]] = {"base": [], "head": []}
    for i in range(args.pairs):
        for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
            runs[side].append(run_once(trees[side], args.workload, args.seed, seconds))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    print(f"workload {args.workload}, {args.pairs} pairs, seed {args.seed}, {seconds:g} s a run")
    print(f"base {trees['base']}\nhead {trees['head']}\n")
    print("| metric | base median (q1–q3) | head median (q1–q3) | base IQR/median | head/base "
          "| head better | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        head = [r["metrics"][name]["value"] for r in runs["head"]]
        b, h = float(np.median(base)), float(np.median(head))
        sign = 1 if metric["better"] == "lower" else -1
        better = sum(sign * (y - x) < 0 for x, y in zip(base, head))
        print(f"| {name} ({metric['unit']}) | {quartiles(base)} | {quartiles(head)} "
              f"| {spread(base):.3f} | {h / b:.3f} | {better}/{args.pairs} "
              f"| {metric['bound']} ({metric['better']}) "
              f"| {verdict(base, head, metric['better'], metric['bound'])} |")
    print("\nEvery run, in run order:")
    for side in ("base", "head"):
        for metric in bench["end_to_end"]:
            name = metric["name"]
            print(f"- {side} {name}: " + ", ".join(f"{r['metrics'][name]['value']:.4g}"
                                                  for r in runs[side]))
        load = ", ".join(f"{r['load'][0]:.2f}→{r['load'][1]:.2f}" for r in runs[side])
        print(f"- {side} load average before→after: {load}")
        ops = ", ".join(f"{r['failed']}/{r['attempted']}" for r in runs[side])
        print(f"- {side} failed/attempted: {ops}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
