"""Print one sha256 per result cell as JSON, to compare two trees bit for bit.

Run it on each tree and diff the outputs:

    PYTHONPATH=src python tools/digests.py > digests.json

The cells cover the Monte Carlo path (``run_trials`` convergence times and
final windows, three families at n = 16, 64, 1024), every lemma report
(all 28 checks, in ``GROUP_IDS`` order) and the exact oracle
(``convergence_cdf`` for two-inhibitor n <= 8 and log-inhibitor n <= 3).
It uses numpy and the public ``wtalab`` API only, and runs in well under a
minute on one core.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

import wtalab
from wtalab import (
    GROUP_IDS,
    LOG_INHIBITOR,
    SINGLE_INHIBITOR,
    TWO_INHIBITOR,
    TrialPlan,
    WtaInstance,
    WtaVariant,
    build,
    convergence_cdf,
    initial_window,
    lemma_check,
    run_trials,
)

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
            plan = TrialPlan(inst, trials=trials, seed=n + 7, chunk_size=trials // 2 + 1)
            got = run_trials(plan, capture_final=True)
            cells[f"run_trials/{tag}/n={n}/converged_at"] = _sha(got.converged_at)
            cells[f"run_trials/{tag}/n={n}/final_windows"] = _sha(got.final_windows)
    return cells


def lemma_cells() -> dict:
    cells = {}
    for gid in GROUP_IDS:
        for report in lemma_check(gid, n=8, gamma=14.0, samples=20_000, seed=3):
            cells[f"lemma/{report.lemma_id}"] = _sha(report.as_dict())
    return cells


def oracle_cells() -> dict:
    cells = {}
    sizes = [(TWO_INHIBITOR, n) for n in range(1, 9)] + [(LOG_INHIBITOR, n) for n in (2, 3)]
    for tag, n in sizes:
        spec = build(tag, n, PARAMS[tag][0])
        for x in (np.ones(n, dtype=np.uint8), np.array(_input_bits(n)) * (np.arange(n) != 0)):
            for start in ("all_zero", "all_fire"):
                window = initial_window(spec, start, x)
                cdf = convergence_cdf(spec, x, window, 2, 12)
                cells[f"oracle/{tag}/n={n}/x={''.join(map(str, x))}/{start}"] = _sha(cdf)
    return cells


def main() -> None:
    cells = {"wtalab": wtalab.__version__}
    for part in (trial_cells, lemma_cells, oracle_cells):
        cells.update(part())
    print(json.dumps(cells, indent=1))


if __name__ == "__main__":
    main()
