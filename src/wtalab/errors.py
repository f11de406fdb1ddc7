"""Exception types shared across the package, and the one integer check."""

from numbers import Integral as _Integral


class WtaLabError(Exception):
    """Base class for every error raised by this package."""


def check_int(name: str, value, minimum: int) -> None:
    """Raise ``WtaLabError`` unless ``value`` is an integer ``>= minimum``."""
    if not (isinstance(value, _Integral) and value >= minimum):
        raise WtaLabError(f"{name} must be an int >= {minimum}, got {value!r}")


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


class MissingDraw(WtaLabError):
    """A step was attempted without a uniform draw for some non-input neuron."""


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


class VariantMismatch(WtaLabError):
    """The supplied network does not match the check's network family."""


class HorizonTooShort(WtaLabError):
    """Simulation horizon too short to decide the requested event."""
