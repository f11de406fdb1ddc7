"""Monte Carlo harness: trial batches, sweeps, and perturbation probes.

Trials are advanced in vectorized batches with one convergence scanner per
trial. Because every uniform draw is a pure function of (seed, trial, time,
neuron), chunking trials into batches of any size, or resolving some trials
early and dropping them from the batch, cannot change any other trial's
execution; summaries are reproducible bit for bit given the plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional, Sequence

import numpy as np

from .builders import WtaInstance
from .errors import HorizonTooShort, InvalidNetwork, WtaLabError
from .network import NetworkSpec
from .randomness import RandomnessContract
from .simulate import (
    ALL_FIRE,
    EXPLICIT,
    INITIAL_POLICIES,
    UNIFORM_RANDOM,
    BatchRunner,
    ExecutionWindow,
)


def z_value(confidence: float) -> float:
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def wilson_interval(successes: int, trials: int, confidence: float = 0.99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return 0.0, 1.0
    z = z_value(confidence)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def _x_rows(x, batch: int) -> np.ndarray:
    a = np.asarray(x, dtype=np.uint8)
    if a.ndim == 1:
        return np.broadcast_to(a, (batch, a.size))
    if a.shape[0] != batch:
        raise InvalidNetwork("per-trial input rows do not match the batch")
    return a


def initial_windows_batch(
    spec: NetworkSpec,
    policy: str,
    x,
    trial_ids: np.ndarray,
    rng: RandomnessContract,
    explicit: ExecutionWindow | None = None,
    t0: int = 0,
) -> np.ndarray:
    """(B, h, N) starting windows for a batch of trials.

    Input bits are pinned from ``x`` (shared vector or one row per trial);
    ``uniform_random`` materializes non-input bits from the contract at times
    ``t0..t0+h-1`` so each trial's start is independent and reproducible.
    """
    if policy not in INITIAL_POLICIES:
        raise InvalidNetwork(f"unknown initial policy {policy!r}")
    batch = trial_ids.size
    h, n_all = spec.history, spec.n_neurons
    frames = np.zeros((batch, h, n_all), dtype=np.uint8)
    xr = _x_rows(x, batch)
    non_input = spec.non_input_indices
    if policy == EXPLICIT:
        if explicit is None:
            raise InvalidNetwork("explicit policy needs an explicit window")
        frames[:] = np.asarray(explicit.frames, dtype=np.uint8)[None, :, :]
        frames[:, :, spec.input_indices] = xr[:, None, :]
        return frames
    frames[:, :, spec.input_indices] = xr[:, None, :]
    for t in range(h):
        if policy == ALL_FIRE:
            frames[:, t, non_input] = 1
        elif policy == UNIFORM_RANDOM:
            draws = rng.uniform_block(trial_ids, t0 + t, non_input)
            frames[:, t, non_input] = draws < 0.5
    return frames


class _ConvergenceScan:
    """Online detector of the first valid output run of length t_s + 1."""

    def __init__(self, x_rows: np.ndarray, t_s: int):
        self.x = np.asarray(x_rows, dtype=np.uint8)
        self.want = np.minimum(1, self.x.sum(axis=1).astype(np.int64))
        self.t_s = t_s
        self.prev: np.ndarray | None = None
        self.start: np.ndarray | None = None
        self.converged_at: np.ndarray | None = None

    def update(self, t: int, out: np.ndarray) -> np.ndarray:
        """Feed frame ``t``'s output projection; returns newly-converged mask."""
        if self.prev is None:
            batch = out.shape[0]
            self.start = np.zeros(batch, dtype=np.int64)
            self.converged_at = np.full(batch, -1, dtype=np.int64)
        else:
            changed = np.any(out != self.prev, axis=1)
            self.start[changed] = t
        self.prev = out.copy()
        valid = (~np.any(out > self.x, axis=1)) & (out.sum(axis=1) == self.want)
        hit = valid & (t - self.start >= self.t_s) & (self.converged_at < 0)
        self.converged_at[hit] = self.start[hit]
        return hit

    def drop(self, keep: np.ndarray) -> None:
        self.x = self.x[keep]
        self.want = self.want[keep]
        self.prev = self.prev[keep]
        self.start = self.start[keep]
        self.converged_at = self.converged_at[keep]


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

    ``windows0`` is (B, h, N); its frames sit at times ``t0-h..t0-1`` and the
    first stochastic step happens at time ``t0`` (default ``h``). Times are
    reported relative to the window's first frame (index 0). Trials whose
    convergence is confirmed are dropped from the batch immediately; the
    counter-based draws make this invisible to the remaining trials.

    With ``capture_final`` the window at each trial's resolution (or at the
    horizon, for timeouts) is returned alongside the times.
    """
    trial_ids = np.asarray(trial_ids, dtype=np.int64)
    batch = trial_ids.size
    h = spec.history
    if t0 is None:
        t0 = h
    outputs = spec.output_indices
    xr = _x_rows(x, batch)
    scan = _ConvergenceScan(xr, t_s)
    frames = np.asarray(windows0, dtype=np.uint8)
    for j in range(h):
        scan.update(j, frames[:, j, outputs])

    converged = np.full(batch, -1, dtype=np.int64)
    finals = np.zeros((batch, h, spec.n_neurons), dtype=np.uint8) if capture_final else None
    alive = np.arange(batch)
    runner = BatchRunner(spec, rng)
    xr_alive = np.ascontiguousarray(xr)

    def harvest():
        nonlocal alive, frames, xr_alive
        done = scan.converged_at >= 0
        if done.any():
            converged[alive[done]] = scan.converged_at[done]
            if finals is not None:
                finals[alive[done]] = frames[done]
            keep = ~done
            alive = alive[keep]
            frames = frames[keep]
            xr_alive = np.ascontiguousarray(xr_alive[keep])
            scan.drop(keep)

    harvest()  # the initial window alone may already certify a hold
    for step_idx in range(h, horizon):
        if alive.size == 0:
            break
        t_abs = t0 + (step_idx - h)
        frames = runner.advance(frames, t_abs, trial_ids[alive], xr_alive)
        scan.update(step_idx, frames[:, -1, outputs])
        harvest()
    if finals is not None and alive.size:
        finals[alive] = frames
    if capture_final:
        return converged, finals
    return converged


@dataclass(frozen=True)
class TrialPlan:
    """A reproducible batch of trials for one problem instance."""

    instance: WtaInstance
    initial_policy: str = UNIFORM_RANDOM
    horizon: Optional[int] = None
    trials: int = 1000
    seed: int = 0
    explicit_window: Optional[ExecutionWindow] = None
    chunk_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise WtaLabError("trials must be >= 1")
        if self.initial_policy not in INITIAL_POLICIES:
            raise WtaLabError(f"unknown initial policy {self.initial_policy!r}")
        inst = self.instance
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
    confidence: float = 0.99
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
        return wilson_interval(self.successes, self.trials, self.confidence)

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
        """Per-trial log rows; final-window classifications as label strings."""
        from .classify import (
            classify_log_inhibitor,
            classify_two_inhibitor,
            is_valid_configuration,
        )

        inst = self.plan.instance
        x = np.asarray(inst.input_bits, dtype=np.uint8)
        rows = []
        for trial, ca in enumerate(self.converged_at.tolist()):
            labels = ""
            if self.final_windows is not None:
                window = self.final_windows[trial]
                tag = inst.variant.tag
                if tag == "two_inhibitor":
                    got = classify_two_inhibitor(x, window[-1])
                elif tag == "log_inhibitor":
                    got = classify_log_inhibitor(x, window)
                else:
                    got = {"valid"} if is_valid_configuration(tag, x, window[-1]) else set()
                labels = ";".join(sorted(got))
            rows.append(
                {
                    "trial": trial,
                    "converged_at": ca if ca >= 0 else None,
                    "timed_out": ca < 0,
                    "labels": labels,
                }
            )
        return rows


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

    Deterministic given the plan (seed included), independent of chunking.
    """
    inst = plan.instance
    spec = spec if spec is not None else inst.build()
    rng = RandomnessContract(plan.seed)
    horizon = plan.resolved_horizon()
    x = np.asarray(inst.input_bits, dtype=np.uint8)
    chunk = plan.chunk_size or plan.trials
    pieces = []
    finals = []
    for lo in range(0, plan.trials, chunk):
        ids = np.arange(lo, min(lo + chunk, plan.trials), dtype=np.int64)
        windows0 = initial_windows_batch(
            spec, plan.initial_policy, x, ids, rng, explicit=plan.explicit_window
        )
        got = batch_convergence_times(
            spec, x, windows0, ids, inst.t_s, horizon, rng,
            capture_final=capture_final,
        )
        if capture_final:
            pieces.append(got[0])
            finals.append(got[1])
        else:
            pieces.append(got)
    return TrialSummary(
        plan=plan,
        converged_at=np.concatenate(pieces),
        final_windows=np.concatenate(finals) if finals else None,
    )


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


def self_stabilization_probe(
    plan: TrialPlan,
    perturbations: int,
    perturb_policy: str = ALL_FIRE,
    spacing: int | None = None,
) -> ProbeSummary:
    """Measure re-convergence after adversarial full-state overwrites.

    At each perturbation time the whole h-frame window of every trial is
    overwritten with the adversarial state (inputs stay pinned), and the
    batch is re-scanned for convergence within ``t_c`` more frames. With
    zero perturbations this reduces exactly to ``run_trials``.
    """
    inst = plan.instance
    spec = inst.build()
    rng = RandomnessContract(plan.seed)
    initial = run_trials(plan, spec=spec)
    x = np.asarray(inst.input_bits, dtype=np.uint8)
    h = spec.history
    spacing = spacing or (inst.t_c + inst.t_s + 1)
    ids = np.arange(plan.trials, dtype=np.int64)
    times = tuple(plan.resolved_horizon() + j * spacing for j in range(perturbations))
    segments = []
    for tau in times:
        windows0 = initial_windows_batch(
            spec, perturb_policy, x, ids, rng,
            explicit=plan.explicit_window, t0=tau - h + 1,
        )
        seg_frames = h + inst.t_c + inst.t_s + 1
        raw = batch_convergence_times(
            spec, x, windows0, ids, inst.t_s, seg_frames, rng, t0=tau + 1
        )
        # report times relative to the overwrite frame (window index h-1)
        rel = np.where(raw >= 0, raw - (h - 1), raw)
        segments.append(rel)
    return ProbeSummary(
        initial=initial,
        perturbation_times=times,
        reconvergence_converged=tuple(segments),
    )
