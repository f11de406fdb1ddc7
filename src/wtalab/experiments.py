"""Monte Carlo harness: trial batches, sweeps, and perturbation probes.

Each plan's trials are advanced as one vectorized batch and scanned by one
``ConvergenceScan``. Because every uniform draw is a pure function of (seed,
trial, time, neuron), a trial's result does not depend on which trials share
its batch, nor on resolving some trials early and dropping them from it;
summaries are reproducible bit for bit given the plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional, Sequence

import numpy as np

from .builders import WtaInstance, row_bytes
from .classify import ConvergenceScan, window_labels
from .errors import HorizonTooShort, WtaLabError, check_count, check_int, check_real
from .network import NetworkSpec
from .randomness import RandomnessContract, check_trials, check_word
from .simulate import (
    ALL_FIRE,
    INITIAL_POLICIES,
    UNIFORM_RANDOM,
    BatchRunner,
    _selector,
    initial_windows_batch,
    window_frames,
)


def wilson_interval(successes: int, trials: int, confidence: float = 0.99) -> tuple[float, float]:
    """Wilson score interval for ``successes`` of ``trials`` at ``confidence``."""
    check_int("successes", successes, 0)
    check_int("trials", trials, successes)
    check_real("confidence", confidence, 0.0, 1.0, WtaLabError)
    if trials == 0:
        return 0.0, 1.0
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def batch_convergence_times(
    spec: NetworkSpec,
    x,
    windows0: np.ndarray,
    trial_ids,
    t_s: int,
    horizon: int,
    rng: RandomnessContract,
    t0: int | None = None,
    capture_final: bool = False,
):
    """Convergence time of each trial, or -1 on timeout.

    Every trial holds the one input vector ``x``. ``windows0`` is (B, h, N);
    its frames sit at times ``t0-h..t0-1`` and the first stochastic step
    happens at time ``t0`` (default ``h``). Times are reported relative to
    the window's first frame (index 0). Trials whose convergence is confirmed
    are dropped from the batch immediately; the counter-based draws make this
    invisible to the remaining trials.

    With ``capture_final`` the window at each trial's resolution (or at the
    horizon, for timeouts) is returned alongside the times.
    """
    trial_ids = check_trials(trial_ids)
    h = spec.history
    if t0 is None:
        t0 = h
    outputs = _selector(spec.output_indices)  # a slice reads outputs as a view
    scan = ConvergenceScan(x, t_s)
    frames = np.asarray(windows0, dtype=np.uint8)
    converged = np.full(trial_ids.size, -1, dtype=np.int64)
    finals = np.zeros_like(frames) if capture_final else None
    alive = np.arange(trial_ids.size)
    runner = BatchRunner(spec, rng)
    # frames 0..h-1 are the start window, each later one a step of the batch
    for t in range(max(h, horizon)):
        if alive.size == 0:
            break
        if t >= h:
            frames = runner.advance(frames, t0 + t - h, trial_ids[alive], x)
        done = scan.update(t, frames[:, min(t, h - 1), outputs])
        if np.count_nonzero(done):
            converged[alive[done]] = scan.converged_at[done]
            if finals is not None:
                finals[alive[done]] = frames[done]
            keep = ~done
            alive, frames = alive[keep], frames[keep]
            scan.drop(keep)
    if finals is None:
        return converged
    finals[alive] = frames
    return converged, finals


@dataclass(frozen=True)
class TrialPlan:
    """A reproducible batch of trials for one problem instance.

    ``initial_policy`` is the start of every trial: a policy name, or one
    ``(h, N)`` window, which the plan keeps as a copy no caller can write.
    """

    instance: WtaInstance
    initial_policy: str | np.ndarray = UNIFORM_RANDOM
    horizon: Optional[int] = None
    trials: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        check_count("trials", self.trials, 1, row_bytes(self.instance.n))
        check_word("seed", self.seed)
        if self.horizon is not None:
            check_int("horizon", self.horizon, 1)
        inst = self.instance
        start = self.initial_policy
        if not isinstance(start, str):
            window = np.array(window_frames(inst.build(), start))
            window.setflags(write=False)
            object.__setattr__(self, "initial_policy", window)
        elif start not in INITIAL_POLICIES:
            raise WtaLabError(f"unknown initial policy {start!r}")
        if self.resolved_horizon() < inst.t_c + inst.t_s + 1:
            raise HorizonTooShort(
                f"horizon {self.resolved_horizon()} cannot decide convergence "
                f"within t_c={inst.t_c} plus a hold of t_s={inst.t_s}"
            )

    def resolved_horizon(self) -> int:
        if self.horizon is not None:
            return self.horizon
        return 4 * self.instance.t_c + self.instance.t_s


@dataclass(frozen=True)
class TrialSummary:
    """Aggregate outcome of a trial batch, with per-trial detail retained."""

    plan: TrialPlan
    converged_at: np.ndarray
    final_windows: Optional[np.ndarray] = None

    @property
    def trials(self) -> int:
        return int(self.converged_at.size)

    @property
    def successes(self) -> int:
        inst = self.plan.instance
        ca = self.converged_at
        return int(((ca >= 0) & (ca <= inst.t_c)).sum())

    @property
    def success_frac(self) -> float:
        return self.successes / self.trials

    @property
    def wilson(self) -> tuple[float, float]:
        return wilson_interval(self.successes, self.trials)

    @property
    def timeouts(self) -> int:
        return int((self.converged_at < 0).sum())

    @property
    def mean_tconv(self) -> Optional[float]:
        ok = self.converged_at[self.converged_at >= 0]
        return float(ok.mean()) if ok.size else None

    @property
    def median_tconv(self) -> Optional[float]:
        ok = self.converged_at[self.converged_at >= 0]
        return float(np.median(ok)) if ok.size else None

    def row(self) -> dict:
        inst = self.plan.instance
        lo, hi = self.wilson
        return {
            "variant": inst.variant.tag,
            "n": inst.n,
            "gamma": inst.gamma,
            "t_s": inst.t_s,
            "delta": inst.delta,
            "t_c": inst.t_c,
            "trials": self.trials,
            "success_frac": self.success_frac,
            "wilson_lo": lo,
            "wilson_hi": hi,
            "mean_tconv": self.mean_tconv,
            "median_tconv": self.median_tconv,
            "timeouts": self.timeouts,
        }

    def trial_rows(self) -> list[dict]:
        """Per-trial log rows; the ``window_labels`` of each final window as
        one sorted, ``;``-joined string (empty without final windows)."""
        labels = [""] * self.trials
        if self.final_windows is not None:
            inst = self.plan.instance
            got = window_labels(inst.variant.tag, inst.input_bits, self.final_windows)
            labels = [";".join(sorted(s)) for s in got]
        return [
            {"trial": trial, "converged_at": ca if ca >= 0 else None,
             "timed_out": ca < 0, "labels": label}
            for trial, (ca, label) in enumerate(zip(self.converged_at.tolist(), labels))
        ]


CSV_FIELDS = [
    "variant", "n", "gamma", "t_s", "delta", "t_c", "trials",
    "success_frac", "wilson_lo", "wilson_hi", "mean_tconv", "median_tconv",
    "timeouts",
]

TRIAL_LOG_FIELDS = ["trial", "converged_at", "timed_out", "labels"]


def run_trials(
    plan: TrialPlan,
    spec: NetworkSpec | None = None,
    capture_final: bool = False,
) -> TrialSummary:
    """Run the planned batch and summarize convergence outcomes.

    Deterministic given the plan (seed included): a trial's result does not
    depend on which trials share its batch.
    """
    inst = plan.instance
    spec = spec if spec is not None else inst.build()
    rng = RandomnessContract(plan.seed)
    x = np.asarray(inst.input_bits, dtype=np.uint8)
    ids = np.arange(plan.trials, dtype=np.int64)
    windows0 = initial_windows_batch(spec, plan.initial_policy, x, ids, rng)
    got = batch_convergence_times(
        spec, x, windows0, ids, inst.t_s, plan.resolved_horizon(), rng,
        capture_final=capture_final,
    )
    converged, finals = got if capture_final else (got, None)
    return TrialSummary(plan=plan, converged_at=converged, final_windows=finals)


def sweep(plans: Sequence[TrialPlan]) -> list[TrialSummary]:
    """Run a grid of plans; one summary row per cell. Empty grid, empty table."""
    return [run_trials(p) for p in plans]


@dataclass(frozen=True)
class ProbeSummary:
    """Self-stabilization probe outcome.

    ``initial`` is the unperturbed batch; ``reconvergence`` holds, per
    perturbation, the fraction of trials whose outputs became valid and held
    for ``t_s`` steps within ``t_c`` frames of the overwrite.
    """

    initial: TrialSummary
    perturbation_times: tuple[int, ...]
    reconvergence_converged: tuple[np.ndarray, ...]

    def reconvergence_fractions(self) -> list[float]:
        inst = self.initial.plan.instance
        out = []
        for ca in self.reconvergence_converged:
            ok = (ca >= 0) & (ca <= inst.t_c)
            out.append(float(ok.mean()))
        return out


def self_stabilization_probe(plan: TrialPlan, perturbations: int) -> ProbeSummary:
    """Measure re-convergence after full-state overwrites with all-fire.

    Perturbations come ``t_c + t_s + 1`` frames apart, the first at the end
    of the plan's horizon. At each one the whole h-frame window of every
    trial is overwritten with the all-fire state (inputs stay pinned), and the
    batch is re-scanned for convergence within ``t_c`` more frames. With
    zero perturbations this reduces exactly to ``run_trials``.
    """
    check_int("perturbations", perturbations, 0)
    inst = plan.instance
    spec = inst.build()
    rng = RandomnessContract(plan.seed)
    initial = run_trials(plan, spec=spec)
    x = np.asarray(inst.input_bits, dtype=np.uint8)
    h = spec.history
    spacing = inst.t_c + inst.t_s + 1
    ids = np.arange(plan.trials, dtype=np.int64)
    times = tuple(plan.resolved_horizon() + j * spacing for j in range(perturbations))
    # the overwrite is the same all-fire window at every perturbation
    windows0 = initial_windows_batch(spec, ALL_FIRE, x, ids, rng)
    segments = []
    for tau in times:
        raw = batch_convergence_times(
            spec, x, windows0, ids, inst.t_s, h + spacing, rng, t0=tau + 1
        )
        # report times relative to the overwrite frame (window index h-1)
        rel = np.where(raw >= 0, raw - (h - 1), raw)
        segments.append(rel)
    return ProbeSummary(
        initial=initial,
        perturbation_times=times,
        reconvergence_converged=tuple(segments),
    )
