"""Counter-based randomness for reproducible, order-independent simulation.

Every uniform draw is a pure function of ``(root_seed, trial, time, neuron)``,
so executions are byte-identical no matter how trials are batched, chunked or
parallelised. There is no generator state to advance: skipping a trial or
evaluating draws out of order cannot perturb any other draw.

The derivation hashes the four integers through three rounds of the
splitmix64 finalizer, then maps the top 53 bits to ``[0, 1)``.

The hash runs in place: ``_mix`` rewrites its array with one scratch array
of the same shape, and ``uniform_block`` hashes the (trials x neurons) block
inside the float64 array it returns, viewed as uint64. So a block costs that
array and one scratch array of its size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from .errors import WtaLabError

_MASK64 = (1 << 64) - 1

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_K_SEED = np.uint64(0x9E3779B97F4A7C15)
_K_TRIAL = np.uint64(0xD1B54A32D192ED03)
_K_TIME = np.uint64(0xC2B2AE3D27D4EB4F)
_K_NEURON = np.uint64(0x165667B19E3779F9)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_INV_2_53 = 2.0 ** -53


def _mix(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, elementwise and in place on a uint64 array;
    ``scratch`` is a uint64 array of the same shape that it overwrites."""
    for shift, mult in ((_S30, _M1), (_S27, _M2)):
        np.right_shift(z, shift, out=scratch)
        z ^= scratch
        z *= mult
    np.right_shift(z, _S31, out=scratch)
    z ^= scratch
    return z


def _mixed(z: np.ndarray) -> np.ndarray:
    """``_mix`` of a fresh array, for the small per-trial words."""
    return _mix(z, np.empty_like(z))


def check_word(name: str, value) -> None:
    """Raise ``WtaLabError`` unless ``value``, a seed or a trial id, is an int
    in ``0..2^64-1``, not a bool: a 64-bit word of the draws' hash."""
    if isinstance(value, bool) or not (isinstance(value, Integral) and 0 <= value <= _MASK64):
        raise WtaLabError(f"{name} must be an int in 0..2^64-1, got {value!r}")


def check_trials(trials) -> np.ndarray:
    """``trials``, one id or many, as uint64 ids, each checked by ``check_word``."""
    a = np.asarray(trials)
    if a.dtype.kind == "i" and a.size:
        check_word("trial id", int(a.min()))
    elif a.dtype.kind != "u":  # id by id as Python objects: floats, bools, ints past 64 bits
        a = np.asarray(trials, dtype=object)
        for value in a.flat:
            check_word("trial id", value)
    return a.astype(np.uint64, copy=False)


@dataclass(frozen=True)
class RandomnessContract:
    """Root seed plus the pure (trial, time, neuron) -> uniform derivation."""

    root_seed: int

    def __post_init__(self) -> None:
        check_word("seed", self.root_seed)

    @cached_property
    def _seed_word(self) -> np.ndarray:
        """The root seed's hash word, computed once per contract."""
        s = np.asarray([self.root_seed], dtype=np.uint64)
        return _mixed(s * _K_SEED + _M2)

    def uniform_block(self, trials, time: int, neurons) -> np.ndarray:
        """Uniform draws in ``[0, 1)`` for a trial x neuron block at one time.

        ``trials`` and ``neurons`` are nonnegative integer arrays; the result
        has shape ``(len(trials), len(neurons))`` and entry ``[i, j]`` depends
        only on ``(root_seed, trials[i], time, neurons[j])``.
        """
        t = np.asarray(trials, dtype=np.uint64)
        u = np.asarray(neurons, dtype=np.uint64)
        tw = np.asarray([int(time) & _MASK64], dtype=np.uint64)
        a = _mixed(self._seed_word ^ (t * _K_TRIAL))
        b = _mixed(a ^ (tw * _K_TIME))
        out = np.empty((t.size, u.size))
        c = out.view(np.uint64)
        np.bitwise_xor(b[:, None], u * _K_NEURON, out=c)
        scratch = np.empty_like(c)
        _mix(c, scratch)
        np.right_shift(c, _S11, out=scratch)
        # exact: the top 53 bits fit a double, and the scale is a power of 2;
        # converting from the scratch array, not in place, spares a copy
        return np.multiply(scratch, _INV_2_53, out=out)
