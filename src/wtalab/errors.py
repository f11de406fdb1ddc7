"""Exception types shared across the package and its one check of each kind
of argument: integer, count, real number, neuron index and 0/1 bits."""

from numbers import Integral as _Integral, Real as _Real

import numpy as _np


class WtaLabError(Exception):
    """Base class for every error raised by this package."""


def check_int(name: str, value, minimum: int) -> None:
    """Raise ``WtaLabError`` unless ``value`` is an integer ``>= minimum``, not a bool."""
    if isinstance(value, bool) or not (isinstance(value, _Integral) and value >= minimum):
        raise WtaLabError(f"{name} must be an int >= {minimum}, got {value!r}")


def check_count(name: str, value, minimum: int, row_bytes: int) -> None:
    """``check_int``; then ``MemoryError`` when ``value`` rows of ``row_bytes`` bytes
    pass numpy's largest array, which numpy refuses with a ``ValueError``."""
    check_int(name, value, minimum)
    if int(value) * row_bytes > _np.iinfo(_np.intp).max:
        raise MemoryError(f"{name}: {value} x {row_bytes} bytes pass numpy's largest array")


def check_real(name: str, value, low: float, high: float, error: type) -> None:
    """Raise ``error`` unless ``value`` is a real number in ``(low, high)``, not a bool."""
    if isinstance(value, bool) or not (isinstance(value, _Real) and low < value < high):
        raise error(f"{name} must be a real number in ({low}, {high}), got {value!r}")


def check_neuron(name: str, value, n: int) -> None:
    """Raise ``WtaLabError`` unless ``value`` is an integer in ``0..n-1``,
    not a bool, a neuron of an ``n``-neuron network."""
    if isinstance(value, bool) or not (isinstance(value, _Integral) and 0 <= value < n):
        raise WtaLabError(f"{name} must be a neuron of 0..{n - 1}, got {value!r}")


def check_bits(name: str, value) -> _np.ndarray:
    """``value`` as a uint8 array; raises ``WtaLabError`` unless every entry
    is 0 or 1."""
    a = _np.asarray(value)
    if a.dtype.kind not in "biuf" or not ((a == 0) | (a == 1)).all():
        got = _np.array2string(a, threshold=16, separator=", ")  # elided when long
        raise WtaLabError(f"{name} must hold 0/1 bits, got {got}")
    return a.astype(_np.uint8, copy=False)


class InvalidNetwork(WtaLabError):
    """A network description violates a structural invariant."""


class DalesPrincipleViolation(InvalidNetwork):
    """A neuron has outgoing weights whose signs disagree with its polarity."""


class InputTargeted(InvalidNetwork):
    """A synapse targets an input neuron."""


class LagOutOfRange(InvalidNetwork):
    """A synapse lag lies outside 1..history."""


class InputNeuronPotential(WtaLabError):
    """Membrane potential requested for an input neuron."""


class NonpositiveTemperature(WtaLabError):
    """Sigmoid temperature must be strictly positive."""


class InvalidSize(WtaLabError):
    """Network size argument out of range for the requested family."""


class InvalidGamma(WtaLabError):
    """Weight scale gamma out of range."""


class MissingDelta(WtaLabError):
    """A failure probability is required for the requested bound but absent."""


class LengthMismatch(WtaLabError):
    """Bit vectors of incompatible lengths."""


class TopologyMismatch(WtaLabError):
    """A configuration does not fit the expected network layout."""


class StateSpaceTooLarge(WtaLabError):
    """Exact analysis refused: window state space exceeds the cap."""


class NotValidConfiguration(WtaLabError):
    """The supplied window is not a valid steady-state configuration."""


class UnknownLemma(WtaLabError):
    """Unknown transition-check identifier."""


class HorizonTooShort(WtaLabError):
    """Simulation horizon too short to decide the requested event."""
