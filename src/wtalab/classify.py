"""Configuration taxonomy and convergence detection.

This module is the ground truth for "the competition is solved": a valid
output configuration has exactly one firing output when any input fires (none
otherwise), and every firing output is backed by a firing input. Convergence
time is the first frame at which the output projection is valid and then
repeats unchanged for ``t_s`` further frames; only outputs are compared, the
auxiliary neurons may do what they like.

Predicates work on the last axis, over a whole batch at once; the scalar
functions are batch-of-one views of them. ``ConvergenceScan`` is the one
convergence scanner; it keeps the previous output frame bit-packed, so each
update packs the new outputs in one pass and tests change, count and
backing on n/8 bytes per execution. Classifiers assume the canonical
builder layout (inputs, then outputs, then auxiliaries with the stability
inhibitor first).
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
from .errors import LengthMismatch, TopologyMismatch, WtaLabError

VALID_WTA = "valid_wta"
NEAR_VALID = "near_valid"
RESET = "reset"
GOOD = "good"
ACTIVE = "active"
TERMINAL = "terminal"
TYPICAL = "typical"
NEAR_STABLE_PAIR = "near_stable_pair"


def k_wta(k: int) -> str:
    return f"k_wta({k})"


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.uint8)


def _output_terms(x_bits, y_bits):
    """(backed, firing-output count, wanted count) over the last axis."""
    x, y = _bits(x_bits), _bits(y_bits)
    if x.shape[-1:] != y.shape[-1:]:
        raise LengthMismatch(f"|X|={x.shape} vs |Y|={y.shape}")
    return ~np.any(y > x, axis=-1), y.sum(axis=-1), np.minimum(1, x.sum(axis=-1))


def valid_outputs(x, y) -> np.ndarray:
    """Output test over the last axis: every winner is backed by its input
    and ``popcount(Y) == min(1, popcount(X))``. ``x`` may be one input vector
    shared by every row of ``y``."""
    backed, k, want = _output_terms(x, y)
    return backed & (k == want)


def is_valid_wta_output(x_bits, y_bits) -> bool:
    """``valid_outputs`` for one input and one output vector."""
    return bool(valid_outputs(x_bits, y_bits))


def _split_two(x_bits, configs):
    x = _bits(x_bits)
    c = _bits(configs)
    n = x.shape[-1]
    if c.shape[-1] != 2 * n + 2:
        raise TopologyMismatch(f"config length {c.shape[-1]} != 2n+2 for n={n}")
    if np.any(c[..., :n] != x):
        raise TopologyMismatch("config input bits disagree with X")
    return x, c[..., n : 2 * n], c[..., 2 * n], c[..., 2 * n + 1]


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
    x, y, a_s, a_c = _split_two(x, configs)
    backed, k, want = _output_terms(x, y)
    out_valid = backed & (k == want)
    both = (a_s == 1) & (a_c == 1)
    return TwoInhibitorClasses(
        valid=out_valid & (a_c == 0) & (a_s == want),
        near_valid=out_valid & both,
        k_wta=backed & (k >= 2) & both,
        reset=(a_s == 0) & (a_c == 0),
        k=k,
    )


def classify_two_inhibitor(x_bits, config) -> frozenset[str]:
    """Complete label set of one two-inhibitor configuration.

    Labels can overlap: with no firing inputs the all-silent configuration is
    simultaneously valid and a reset. ``active`` covers the valid, near-valid
    and k-winner classes; ``good`` additionally covers resets; ``terminal``
    marks near-valid configurations and any with no firing outputs.
    """
    cls = two_inhibitor_classes(x_bits, config)
    ky = int(cls.k)
    labels: set[str] = set()
    if cls.valid:
        labels.add(VALID_WTA)
    if cls.near_valid:
        labels.add(NEAR_VALID)
    if cls.k_wta:
        labels.add(k_wta(ky))
    if cls.reset:
        labels.add(RESET)
    if cls.valid or cls.near_valid or cls.k_wta:
        labels.add(ACTIVE)
    if labels:
        labels.add(GOOD)
    if cls.near_valid or ky == 0:
        labels.add(TERMINAL)
    return frozenset(labels)


def _split_log(x_bits, configs):
    x = _bits(x_bits)
    c = _bits(configs)
    n = x.shape[-1]
    levels = ceil_log2(n) if n >= 2 else 0
    if c.shape[-1] != 2 * n + 1 + levels:
        raise TopologyMismatch(
            f"config length {c.shape[-1]} != 2n+1+ceil_log2(n) for n={n}"
        )
    if np.any(c[..., :n] != x):
        raise TopologyMismatch("config input bits disagree with X")
    return x, c[..., n : 2 * n], c[..., 2 * n], c[..., 2 * n + 1 :]


def typical(x, configs) -> np.ndarray:
    """Mask over the last axis of graded-network ``configs``: outputs backed
    by inputs and the inhibitor chain downward closed,
    ``a_s >= a_1 >= ... >= a_L``."""
    x, y, a_s, chain = _split_log(x, configs)
    levels = np.concatenate([a_s[..., None], chain], axis=-1).astype(np.int8)
    return _output_terms(x, y)[0] & np.all(np.diff(levels, axis=-1) <= 0, axis=-1)


def is_typical(x_bits, config) -> bool:
    """``typical`` for one configuration."""
    return bool(typical(x_bits, config))


def near_stable_pair(x_bits, older, latest) -> Optional[bool]:
    """Whether ``(older, latest)`` is a near-stable window of the graded net.

    Requires: exactly one output fires across the two frames (in one or
    both); the stability inhibitor fires in both; no graded inhibitor fires
    in the latest frame; outputs are input-backed in both frames. Defined
    only when at least one input fires; returns ``None`` otherwise.
    """
    x, y_new, a_s_new, chain_new = _split_log(x_bits, latest)
    _, y_old, a_s_old, _ = _split_log(x_bits, older)
    if int(x.sum()) < 1:
        return None
    if int(np.maximum(y_old, y_new).sum()) != 1:
        return False
    if not (a_s_old == 1 and a_s_new == 1):
        return False
    if np.any(chain_new != 0):
        return False
    if np.any(y_new > x) or np.any(y_old > x):
        return False
    return True


def classify_log_inhibitor(x_bits, window) -> frozenset[str]:
    """Labels for an h=2 window of the graded-inhibition network."""
    frames = np.asarray(getattr(window, "frames", window), dtype=np.uint8)
    if frames.ndim != 2 or frames.shape[0] != 2:
        raise TopologyMismatch("expected a 2-frame window")
    older, latest = frames[0], frames[1]
    labels: set[str] = set()
    if is_typical(x_bits, latest):
        labels.add(TYPICAL)
    if near_stable_pair(x_bits, older, latest):
        labels.add(NEAR_STABLE_PAIR)
    return frozenset(labels)


def is_valid_configuration(tag: str, x_bits, config) -> bool:
    """Per-family steady-state test used by exact hold computations.

    Two-inhibitor: the valid class above. Single-inhibitor: valid output
    with ``a_c = min(1, popcount(X))`` standing in for the missing stability
    inhibitor. Graded: valid output, stability inhibitor tracking the
    outputs, graded chain silent.
    """
    x = _bits(x_bits)
    if tag == TWO_INHIBITOR:
        return bool(two_inhibitor_classes(x, config).valid)
    want = min(1, int(x.sum()))
    if tag == SINGLE_INHIBITOR:
        c = _bits(config)
        n = x.size
        if c.size != 2 * n + 1:
            raise TopologyMismatch(f"config length {c.size} != 2n+1 for n={n}")
        return bool(valid_outputs(x, c[n : 2 * n]) and c[2 * n] == want)
    if tag == LOG_INHIBITOR:
        _, y, a_s, chain = _split_log(x, config)
        return bool(valid_outputs(x, y) and a_s == want and not np.any(chain))
    raise WtaLabError(f"unknown variant {tag!r}")


@dataclass(frozen=True)
class ConvergenceOutcome:
    """Result of scanning one execution's output projections.

    ``converged_at`` is the first frame from which a valid output held for
    ``t_s`` further frames within the horizon, or ``None``. ``stable_for``
    counts how many consecutive repeats were actually observed from that
    frame (at least ``t_s`` when converged).
    """

    converged_at: Optional[int]
    stable_for: int
    timed_out: bool


def output_projection(frames, n: int) -> np.ndarray:
    """Output bits of each frame: the outputs an ``Execution`` records, or
    the canonical slice ``n..2n-1`` of a bare frame array."""
    f = np.asarray(getattr(frames, "frames", frames), dtype=np.uint8)
    outputs = getattr(frames, "output_indices", None)
    return f[:, n : 2 * n] if outputs is None else f[:, outputs]


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
        self.x = _bits(x)
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


def convergence_time(execution, input_bits, t_s: int) -> ConvergenceOutcome:
    """Earliest frame ``t`` with a valid output fixed through ``t + t_s``.

    Scans output projections only, as a batch of one through
    ``ConvergenceScan``. A window that is valid for a while but changes
    before ``t_s`` repeats does not count; scanning continues. When no frame
    qualifies within the recorded horizon the outcome is a timeout.
    """
    x = _bits(input_bits)
    outs = output_projection(execution, x.size)
    total = outs.shape[0]
    scan = ConvergenceScan(x, t_s)
    for t in range(total):
        if scan.update(t, outs[t : t + 1])[0]:
            start = int(scan.converged_at[0])
            stable = t - start
            while start + stable + 1 < total and np.array_equal(
                outs[start + stable + 1], outs[start]
            ):
                stable += 1
            return ConvergenceOutcome(
                converged_at=start, stable_for=stable, timed_out=False
            )
    return ConvergenceOutcome(converged_at=None, stable_for=0, timed_out=True)
