"""Configuration taxonomy and convergence detection.

This module is the ground truth for "the competition is solved": a valid
output configuration has exactly one firing output when any input fires (none
otherwise), and every firing output is backed by a firing input. Convergence
time is the first frame at which the output projection is valid and then
repeats unchanged for ``t_s`` further frames; only outputs are compared, the
auxiliary neurons may do what they like.

Everything here is batch-first. ``_split`` is the one place that knows the
canonical builder layout (inputs, then outputs, then the family's
auxiliaries, the stability inhibitor first): it checks a configuration's
length and input bits once and returns ``(x, outputs, auxiliaries)``.
X itself is checked for 0/1 bits (``errors.check_bits``) where it enters:
``_output_terms``, ``_split`` and ``ConvergenceScan``, never per update.
``steady_state`` is the one steady-state mask of every family: valid
outputs, the first auxiliary firing iff some input fires, every other
auxiliary silent. The class masks work over the last axis
(``two_inhibitor_classes``, ``typical``) or over ``(..., 2, N)`` graded
windows (``near_stable``), and ``window_labels`` turns them into the label
sets of a ``(B, h, N)`` batch of windows; one configuration or window is
a batch of one. ``ConvergenceScan`` is the one convergence scanner; it keeps
the previous output frame bit-packed, so each update packs the new outputs in
one pass and tests change, count and backing on n/8 bytes per execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .builders import (
    LOG_INHIBITOR,
    SINGLE_INHIBITOR,
    TWO_INHIBITOR,
    ceil_log2,
)
from .errors import LengthMismatch, TopologyMismatch, WtaLabError, check_bits, check_int
from .simulate import Execution

VALID = "valid"
VALID_WTA = "valid_wta"
NEAR_VALID = "near_valid"
RESET = "reset"
GOOD = "good"
ACTIVE = "active"
TERMINAL = "terminal"
TYPICAL = "typical"
NEAR_STABLE_PAIR = "near_stable_pair"

# auxiliary neurons of each family's canonical layout, by competition size n
_AUX_COUNT = {
    TWO_INHIBITOR: lambda n: 2,
    SINGLE_INHIBITOR: lambda n: 1,
    LOG_INHIBITOR: lambda n: 1 + ceil_log2(n),
}


def k_wta(k: int) -> str:
    return f"k_wta({k})"


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.uint8)


def _output_terms(x_bits, y_bits):
    """(backed, firing-output count, wanted count) over the last axis."""
    x, y = check_bits("input vector", x_bits), _bits(y_bits)
    if x.shape[-1:] != y.shape[-1:]:
        raise LengthMismatch(f"|X|={x.shape} vs |Y|={y.shape}")
    return ~np.any(y > x, axis=-1), y.sum(axis=-1), np.minimum(1, x.sum(axis=-1))


def valid_outputs(x, y) -> np.ndarray:
    """Output test over the last axis: every winner is backed by its input
    and ``popcount(Y) == min(1, popcount(X))``. ``x`` may be one input vector
    shared by every row of ``y``."""
    backed, k, want = _output_terms(x, y)
    return backed & (k == want)


def _split(x_bits, configs, tag: str):
    """``(x, outputs, auxiliaries)`` of ``tag`` configurations over the last
    axis, after checking their canonical length and their input bits."""
    if tag not in _AUX_COUNT:
        raise WtaLabError(f"unknown variant {tag!r}")
    x, c = check_bits("input vector", x_bits), _bits(configs)
    n = x.shape[-1]
    width = 2 * n + _AUX_COUNT[tag](n)
    if c.shape[-1] != width:
        raise TopologyMismatch(f"config length {c.shape[-1]} != {width} for {tag} n={n}")
    if np.any(c[..., :n] != x):
        raise TopologyMismatch("config input bits disagree with X")
    return x, c[..., n : 2 * n], c[..., 2 * n :]


def steady_state(x, outputs, auxiliaries) -> np.ndarray:
    """The steady-state mask of every family over the last axis: valid
    outputs, the first auxiliary firing iff some input fires, and every other
    auxiliary silent. The first auxiliary is the stability inhibitor, or the
    single-inhibitor family's one inhibitor standing in for it."""
    aux = _bits(auxiliaries)
    if aux.shape[-1] < 1:
        raise TopologyMismatch("a steady state needs at least one auxiliary neuron")
    backed, k, want = _output_terms(x, outputs)
    return _steady(backed & (k == want), want, aux)


def _steady(out_valid, want, aux) -> np.ndarray:
    return out_valid & (aux[..., 0] == want) & ~np.any(aux[..., 1:], axis=-1)


class TwoInhibitorClasses(NamedTuple):
    """Class masks of two-inhibitor configurations, plus the firing-output
    count ``k`` that names a ``k_wta`` class."""

    valid: np.ndarray
    near_valid: np.ndarray
    k_wta: np.ndarray
    reset: np.ndarray
    k: np.ndarray


def two_inhibitor_classes(x, configs) -> TwoInhibitorClasses:
    """Masks over the last axis of ``configs`` for the valid, near-valid,
    k-winner (``k >= 2`` backed outputs) and reset classes."""
    x, y, aux = _split(x, configs, TWO_INHIBITOR)
    backed, k, want = _output_terms(x, y)
    out_valid = backed & (k == want)
    a_s, a_c = aux[..., 0], aux[..., 1]
    both = (a_s == 1) & (a_c == 1)
    return TwoInhibitorClasses(
        valid=_steady(out_valid, want, aux),
        near_valid=out_valid & both,
        k_wta=backed & (k >= 2) & both,
        reset=(a_s == 0) & (a_c == 0),
        k=k,
    )


def typical(x, configs) -> np.ndarray:
    """Mask over the last axis of graded-network ``configs``: outputs backed
    by inputs and the inhibitor chain downward closed,
    ``a_s >= a_1 >= ... >= a_L``."""
    x, y, aux = _split(x, configs, LOG_INHIBITOR)
    closed = np.all(np.diff(aux.astype(np.int8), axis=-1) <= 0, axis=-1)
    return _output_terms(x, y)[0] & closed


def near_stable(x, windows) -> np.ndarray:
    """Mask over ``(..., 2, N)`` graded windows, older frame first: some
    input fires; exactly one output fires across the two frames (in one or
    both); the stability inhibitor fires in both; no graded inhibitor fires
    in the latest frame; outputs are input-backed in both frames."""
    w = _bits(windows)
    if w.shape[-2:-1] != (2,):
        raise TopologyMismatch(f"expected 2-frame windows, got shape {w.shape}")
    x, y_old, aux_old = _split(x, w[..., 0, :], LOG_INHIBITOR)
    _, y_new, aux_new = _split(x, w[..., 1, :], LOG_INHIBITOR)
    backed, k, want = _output_terms(x, y_old | y_new)
    stable = (aux_old[..., 0] == 1) & (aux_new[..., 0] == 1) & ~np.any(aux_new[..., 1:], axis=-1)
    return (want == 1) & (k == 1) & backed & stable


def window_labels(tag: str, x, windows) -> list[frozenset[str]]:
    """Label set of each window of a ``(B, h, N)`` batch of ``tag`` windows.

    Two-inhibitor: the classes of the latest frame. Labels can overlap: with
    no firing inputs the all-silent configuration is both valid and a reset.
    ``active`` covers the valid, near-valid and k-winner classes; ``good``
    additionally covers resets; ``terminal`` marks near-valid configurations
    and any with no firing outputs. Graded: ``typical`` for the latest frame
    and ``NEAR_STABLE_PAIR`` for a ``near_stable`` 2-frame window.
    Single-inhibitor: ``valid`` for a latest frame in the steady state.
    """
    w = _bits(windows)
    if w.ndim != 3:
        raise TopologyMismatch(f"expected a (B, h, N) batch of windows, got shape {w.shape}")
    latest = w[:, -1]
    if tag == TWO_INHIBITOR:
        cls = two_inhibitor_classes(x, latest)
        active = cls.valid | cls.near_valid | cls.k_wta
        masks = {
            VALID_WTA: cls.valid, NEAR_VALID: cls.near_valid, RESET: cls.reset,
            ACTIVE: active, GOOD: active | cls.reset,
            TERMINAL: cls.near_valid | (cls.k == 0),
        }
    elif tag == LOG_INHIBITOR:
        masks = {TYPICAL: typical(x, latest), NEAR_STABLE_PAIR: near_stable(x, w)}
    else:
        masks = {VALID: steady_state(*_split(x, latest, tag))}
    hits = np.stack(list(masks.values()), axis=-1).tolist()
    labels = [{name for name, hit in zip(masks, row) if hit} for row in hits]
    if tag == TWO_INHIBITOR:
        for i in np.flatnonzero(cls.k_wta):
            labels[i].add(k_wta(int(cls.k[i])))
    return [frozenset(row) for row in labels]


@dataclass(frozen=True)
class ConvergenceOutcome:
    """Result of scanning one execution's output projections.

    ``converged_at`` is the first frame from which a valid output held for
    ``t_s`` further frames within the horizon, or ``None``.
    """

    converged_at: Optional[int]
    timed_out: bool


# set bits of every byte value, for counting firing outputs in packed rows
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


class ConvergenceScan:
    """Online detector of the first valid output run of ``t_s + 1`` frames,
    over a batch of executions that share one input vector ``x``.

    The previous frame is kept bit-packed along the output axis
    (``np.packbits``, zero padding bits), so an update packs the new (B, n)
    outputs once and decides the rest on n/8 bytes per row: a change test, a
    popcount for the firing-output count, and the backed test on the bytes
    that hold some output whose input is silent.
    """

    def __init__(self, x, t_s: int):
        check_int("t_s", t_s, 0)
        self.x = check_bits("input vector", x)
        self.t_s = t_s
        silent = np.packbits(self.x == 0)
        self._silent_bytes = np.flatnonzero(silent)
        self._silent_bits = silent[self._silent_bytes]
        self._want = min(1, int(self.x.sum()))
        self.prev: np.ndarray | None = None
        self.start: np.ndarray | None = None
        self.converged_at: np.ndarray | None = None

    def update(self, t: int, out: np.ndarray) -> np.ndarray:
        """Feed frame ``t``'s (B, n) 0/1 output projection; returns the mask
        of newly converged executions."""
        if out.shape[-1] != self.x.size:
            raise LengthMismatch(f"|X|={self.x.shape} vs |Y|={out.shape}")
        packed = np.packbits(out, axis=-1)
        if self.prev is None:
            batch = out.shape[0]
            self.start = np.zeros(batch, dtype=np.int64)
            self.converged_at = np.full(batch, -1, dtype=np.int64)
        else:
            changed = np.any(packed != self.prev, axis=1)
            self.start[changed] = t
        self.prev = packed
        k = _POPCOUNT[packed].sum(axis=1)
        unbacked = np.any(packed[:, self._silent_bytes] & self._silent_bits, axis=1)
        hit = (k == self._want) & ~unbacked
        hit &= (t - self.start >= self.t_s) & (self.converged_at < 0)
        self.converged_at[hit] = self.start[hit]
        return hit

    def drop(self, keep: np.ndarray) -> None:
        self.prev = self.prev[keep]
        self.start = self.start[keep]
        self.converged_at = self.converged_at[keep]


def convergence_time(execution: Execution, input_bits, t_s: int) -> ConvergenceOutcome:
    """Earliest frame ``t`` with a valid output fixed through ``t + t_s``.

    Scans the outputs the ``Execution`` records, as a batch of one through
    ``ConvergenceScan``. A window that is valid for a while but changes
    before ``t_s`` repeats does not count; scanning continues. When no frame
    qualifies within the recorded horizon the outcome is a timeout.
    """
    scan = ConvergenceScan(input_bits, t_s)
    if not isinstance(execution, Execution):
        raise WtaLabError(f"convergence_time takes an Execution, got {type(execution).__name__}")
    outs = execution.frames[:, execution.output_indices]
    for t in range(outs.shape[0]):
        if scan.update(t, outs[t : t + 1])[0]:
            return ConvergenceOutcome(converged_at=int(scan.converged_at[0]), timed_out=False)
    return ConvergenceOutcome(converged_at=None, timed_out=True)
