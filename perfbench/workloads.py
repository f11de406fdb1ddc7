"""The four benchmark workloads.

Each workload builds its program inputs from the benchmark seed, sets up the
objects a user would build once (``setup``), exposes the timed calls into
wtalab as a list of parts, counts the work one pass over the parts does, and
checks the outputs (``check``) outside the timed phase. Every call into
wtalab goes through a module attribute looked up at call time, so the span
wrappers of ``spans.install`` see it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from wtalab import builders, classify, experiments, lemmas, oracle, simulate
from wtalab.randomness import RandomnessContract

import spans

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Verdict:
    """Outcome of a workload's correctness gates.

    ``attempted`` and ``failed`` count operations; ``base`` says what one
    operation is. ``gates`` holds the aggregate acceptance gates by name.
    """

    attempted: int
    failed: int
    base: str
    gates: dict[str, bool] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.gates.values())

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted


class Workload:
    name = ""
    why = ""
    # what ``work_units`` counts, and the traced count that must equal it
    work_unit = "neuron_updates"
    work_count = "neuron_updates"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        """Build the network specs and engine objects; stores them on self."""
        raise NotImplementedError

    def specs(self) -> list:
        """The specs built by ``setup`` (for the weight-size layer facts)."""
        raise NotImplementedError

    def parts(self) -> list[tuple[str, Callable[[], object]]]:
        raise NotImplementedError

    def same(self, a, b) -> bool:
        """Whether two results of one part are identical."""
        raise NotImplementedError

    def work_units(self, results: dict[str, object]) -> int:
        """Work one pass over the parts does, in the workload's unit."""
        raise NotImplementedError

    def check(self, results: dict[str, object], gate: Callable) -> Verdict:
        """Gate the outputs. Work beyond comparing results runs as ``gate(fn)``,
        which traces it when the run is traced."""
        raise NotImplementedError


# -- Monte Carlo cells --------------------------------------------------------


def trial_steps(converged_at: np.ndarray, t_s: int, history: int, horizon: int) -> np.ndarray:
    """Steps ``batch_convergence_times`` advances each trial before dropping it.

    A trial converged at frame ``c`` is confirmed at frame ``c + t_s`` and
    was stepped at frames ``h..c + t_s``; a timed-out trial was stepped at
    frames ``h..horizon - 1``.
    """
    ca = np.asarray(converged_at, dtype=np.int64)
    done = np.maximum(0, ca + t_s - history + 1)
    return np.where(ca >= 0, done, horizon - history)


class MonteCarloCell(Workload):
    """One acceptance cell of 1000 trials, run through ``experiments.run_trials``
    as four plans of 250 trials with seeds ``4 * seed + k``.

    Four calls instead of one give four medians per pass, so one slow call
    moves ``wall_s`` less, while a pass still covers 1000 trials.
    """

    chunks = 4
    chunk_trials = 250
    cross_checks = 3
    n = 1024
    t_s = 10
    tag = ""
    mode = ""
    delta: float | None = None

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.instance = builders.WtaInstance.for_theorem(
            self.tag, self.mode, self.n, t_s=self.t_s, delta=self.delta
        )
        self.x = np.asarray(self.instance.input_bits, dtype=np.uint8)

    @property
    def trials(self) -> int:
        return self.chunks * self.chunk_trials

    def horizon(self) -> int | None:
        return None

    def setup(self) -> None:
        self.spec = self.instance.build()
        # the engine a caller stepping by hand would build; run_trials builds its own
        self.runner = simulate.BatchRunner(self.spec, RandomnessContract(self.seed))
        self.plans = [
            experiments.TrialPlan(
                instance=self.instance, trials=self.chunk_trials,
                seed=self.chunks * self.seed + k, horizon=self.horizon(),
            )
            for k in range(self.chunks)
        ]

    def specs(self) -> list:
        return [self.spec]

    def parts(self):
        return [
            (f"plan{k}", lambda plan=plan: experiments.run_trials(plan, spec=self.spec))
            for k, plan in enumerate(self.plans)
        ]

    def same(self, a, b) -> bool:
        return np.array_equal(a.converged_at, b.converged_at)

    def converged_at(self, results) -> np.ndarray:
        """(chunks, chunk_trials) convergence frames, -1 on timeout."""
        return np.stack([results[f"plan{k}"].converged_at for k in range(self.chunks)])

    def work_units(self, results) -> int:
        steps = trial_steps(
            self.converged_at(results), self.t_s, self.spec.history,
            self.plans[0].resolved_horizon(),
        )
        return int(steps.sum()) * int(self.spec.non_input_indices.size)

    def trial_ok(self, ca: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def cell_gates(self, ca: np.ndarray) -> dict[str, bool]:
        raise NotImplementedError

    def cross_check(self, ca: np.ndarray) -> int:
        """Re-run a few trials through the scalar path; returns disagreements.

        ``initial_window`` + ``run`` + ``classify.convergence_time`` must
        find the same ``converged_at`` as the batch, up to the frame where
        the batch resolved the trial.
        """
        picks = np.random.default_rng(self.seed).choice(
            self.trials, size=self.cross_checks, replace=False
        )
        bad = 0
        for k, i in sorted(divmod(int(p), self.chunk_trials) for p in picks):
            plan = self.plans[k]
            rng = RandomnessContract(plan.seed)
            c = int(ca[k, i])
            horizon = c + self.t_s + 1 if c >= 0 else plan.resolved_horizon()
            init = simulate.initial_window(
                self.spec, plan.initial_policy, self.x, rng=rng, trial=i
            )
            ex = simulate.run(self.spec, init, self.x, horizon, rng, trial=i)
            got = classify.convergence_time(ex, self.x, self.t_s)
            agree = got.converged_at == c if c >= 0 else got.timed_out
            bad += 0 if agree else 1
        return bad

    def check(self, results, gate) -> Verdict:
        ca = self.converged_at(results)
        failed = int((~self.trial_ok(ca)).sum())
        failed += gate(lambda: self.cross_check(ca))
        return Verdict(
            attempted=self.trials + self.cross_checks,
            failed=failed,
            base=f"{self.trials} trials outside the success condition "
            f"+ {self.cross_checks} scalar cross-checks that disagree",
            gates=self.cell_gates(ca.ravel()),
        )


def mean_converged(ca: np.ndarray) -> float | None:
    ok = ca[ca >= 0]
    return float(ok.mean()) if ok.size else None


class TwoInhibitorExpectedTime(MonteCarloCell):
    name = "mc_two_n1024"
    why = (
        "criterion-4 cell, two_inhibitor n=1024 h=1: dense potentials matmul "
        "dominates with 0.3% nonzero weights, so a sparse step engine shows here"
    )
    tag = builders.TWO_INHIBITOR
    mode = builders.EXPECTED_TIME

    def trial_ok(self, ca: np.ndarray) -> np.ndarray:
        return ca >= 0

    def cell_gates(self, ca: np.ndarray) -> dict[str, bool]:
        mean = mean_converged(ca)
        return {
            "no_timeouts": bool(np.all(ca >= 0)),
            "mean_le_108(log2n+3)": mean is not None
            and mean <= 108.0 * (math.log2(self.n) + 3),
        }


class LogInhibitorHighProbability(MonteCarloCell):
    name = "mc_log_n1024"
    why = (
        "criterion-5 cell, log_inhibitor n=1024 h=2 delta=0.1: two lags, denser "
        "aux rows and the h=2 frame shift, so a change that helps h=1 but costs h=2 shows"
    )
    tag = builders.LOG_INHIBITOR
    mode = builders.HIGH_PROBABILITY
    delta = 0.1

    def horizon(self) -> int:
        return self.instance.t_c + self.instance.t_s + 1

    def trial_ok(self, ca: np.ndarray) -> np.ndarray:
        return (ca >= 0) & (ca <= self.instance.t_c)

    def cell_gates(self, ca: np.ndarray) -> dict[str, bool]:
        mean = mean_converged(ca)
        return {
            "mean_le_4001": mean is not None and mean <= 4001.0,
            "success_ge_1-delta": float(self.trial_ok(ca).mean()) >= 1.0 - self.delta,
        }


# -- transition-check catalog ---------------------------------------------------


class LemmaCatalog(Workload):
    name = "lemma_catalog_n8"
    why = (
        "criterion 9, all 28 checks at n=8 with 100k-row batches over ~20 neurons: "
        "draws, sigmoid and frames dominate, so it bypasses potential-kernel changes"
    )
    n = 8
    gamma = 14.0
    samples = 100_000
    count_samples = 1_000

    def setup(self) -> None:
        rng = RandomnessContract(self.seed)
        self.two = builders.build_two_inhibitor(self.n, self.gamma)
        self.log = builders.build_log_inhibitor(self.n, self.gamma)
        self.runners = [simulate.BatchRunner(self.two, rng), simulate.BatchRunner(self.log, rng)]

    def specs(self) -> list:
        return [self.two, self.log]

    def _run(self, gid: str, samples: int):
        return lemmas.lemma_check(
            gid, n=self.n, gamma=self.gamma, samples=samples, seed=self.seed
        )

    def parts(self):
        return [(gid, lambda gid=gid: self._run(gid, self.samples)) for gid in lemmas.GROUP_IDS]

    def same(self, a, b) -> bool:
        return [r.as_dict() for r in a] == [r.as_dict() for r in b]

    def work_units(self, results) -> int:
        """Neuron updates of one catalog pass.

        Every check steps ``samples`` rows, so the count of a pass at
        ``count_samples`` rows scales exactly; the traced run compares the
        scaled figure with the count it observes at full size.
        """
        tracer = spans.Tracer()
        undo = spans.install(tracer)
        try:
            for gid in lemmas.GROUP_IDS:
                tracer.root("count", "count", lambda gid=gid: self._run(gid, self.count_samples))
        finally:
            spans.uninstall(undo)
        small = sum(
            s.counts.get("neuron_updates", 0)
            for s in tracer.spans if s.name == "simulate.advance"
        )
        return small * (self.samples // self.count_samples)

    def check(self, results, gate) -> Verdict:
        reports = [r for gid in lemmas.GROUP_IDS for r in results[gid]]
        failed = sum(0 if r.passed else 1 for r in reports)
        return Verdict(
            attempted=len(reports),
            failed=failed,
            base=f"{len(reports)} transition checks, failed = checks that do not pass",
            gates={"28_checks": len(reports) == 28},
        )


# -- exact oracle ----------------------------------------------------------------


class OracleTwoInhibitor(Workload):
    name = "oracle_two_n8"
    why = (
        "exact convergence_cdf, two_inhibitor n=8 gamma=10 t_s=3: 1024 window states "
        "x 1024 outcomes, no draws and no BatchRunner, so simulate changes must leave it flat"
    )
    n = 8
    gamma = 10.0
    t_s = 3
    t_max = 30
    tolerance = 1e-12
    reference_file = REFERENCE_DIR / "oracle_two_n8.json"
    work_unit = "kernel_entries"
    work_count = "oracle.kernel_entries"

    def __init__(self, seed: int) -> None:
        # The CDF is exact: the workload has no random input, so the seed
        # is accepted and leaves the inputs unchanged.
        super().__init__(seed)
        self.x = np.ones(self.n, dtype=np.uint8)

    def setup(self) -> None:
        self.spec = builders.build_two_inhibitor(self.n, self.gamma)
        self.space = oracle.WindowStateSpace(self.spec, self.x)
        self.init = np.zeros((1, self.spec.n_neurons), dtype=np.uint8)
        self.init[0, : self.n] = self.x

    def specs(self) -> list:
        return [self.spec]

    def cdf(self) -> np.ndarray:
        return oracle.convergence_cdf(self.spec, self.x, self.init, self.t_s, self.t_max)

    def parts(self):
        return [("cdf", self.cdf)]

    def same(self, a, b) -> bool:
        return np.array_equal(a, b)

    def work_units(self, results) -> int:
        frames = self.t_max + 1 - self.spec.history
        return frames * self.space.n_states * (1 << self.space.m)

    def check(self, results, gate) -> Verdict:
        cdf = results["cdf"]
        ref = np.asarray(json.loads(self.reference_file.read_text())["cdf"], dtype=np.float64)
        if cdf.shape != ref.shape:
            return Verdict(ref.size, ref.size, "CDF entries", {"shape": False})
        off = np.abs(cdf - ref) > self.tolerance
        return Verdict(
            attempted=int(cdf.size),
            failed=int(off.sum()),
            base=f"{cdf.size} CDF entries, failed = entries more than "
            f"{self.tolerance:g} from the stored reference",
            gates={
                "nondecreasing": bool(np.all(np.diff(cdf) >= 0.0)),
                "in_unit_interval": bool(np.all((cdf >= 0.0) & (cdf <= 1.0))),
            },
        )


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w
    for w in (TwoInhibitorExpectedTime, LogInhibitorHighProbability, LemmaCatalog, OracleTwoInhibitor)
}
