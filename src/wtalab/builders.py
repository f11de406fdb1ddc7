"""Builders for the winner-take-all network families.

Three families over ``n`` competing input/output pairs, all with sigmoid
temperature 1 and a weight scale ``gamma``:

* ``two_inhibitor``: history 1, a stability inhibitor ``a_s`` that locks in a
  single winner and a convergence inhibitor ``a_c`` that thins the field when
  two or more outputs fire.
* ``single_inhibitor``: ``a_s`` removed and the remaining inhibitor's output
  weights doubled, so one inhibitor mimics the combined inhibition; stability
  degrades to a single step.
* ``log_inhibitor``: history 2, a stability inhibitor plus ``ceil(log2 n)``
  graded convergence inhibitors whose thresholds track the number of firing
  outputs, giving expected constant-time convergence.

Canonical layout: inputs ``0..n-1``, outputs ``n..2n-1``, then auxiliaries
(``a_s`` first where present, then graded inhibitors in order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidGamma, InvalidSize, MissingDelta, WtaLabError
from .network import (
    AUXILIARY,
    EXCITATORY,
    INHIBITORY,
    INPUT,
    OUTPUT,
    NetworkSpec,
    Neuron,
    validate_network,
)

TWO_INHIBITOR = "two_inhibitor"
SINGLE_INHIBITOR = "single_inhibitor"
LOG_INHIBITOR = "log_inhibitor"
VARIANT_TAGS = (TWO_INHIBITOR, SINGLE_INHIBITOR, LOG_INHIBITOR)

HIGH_PROBABILITY = "high_probability"
EXPECTED_TIME = "expected_time"

LN2 = math.log(2.0)


def ceil_log2(n: int) -> int:
    """Ceiling of log2 over the integers, via bit length."""
    if n < 1:
        raise InvalidSize(f"n must be >= 1, got {n}")
    return (n - 1).bit_length()


def _check_args(n: int, gamma: float, min_n: int) -> None:
    if n < min_n:
        raise InvalidSize(f"n must be >= {min_n}, got {n}")
    if not 0 < gamma < math.inf:
        raise InvalidGamma(f"gamma must be finite and > 0, got {gamma}")


def _competition_neurons(n: int, n_aux: int) -> tuple[Neuron, ...]:
    neurons = [Neuron(i, INPUT, EXCITATORY) for i in range(n)]
    neurons += [Neuron(n + i, OUTPUT, EXCITATORY) for i in range(n)]
    neurons += [Neuron(2 * n + j, AUXILIARY, INHIBITORY) for j in range(n_aux)]
    return tuple(neurons)


def build_two_inhibitor(n: int, gamma: float) -> NetworkSpec:
    """Two-inhibitor network: 2n+2 neurons, history 1.

    Per output: drive 3g from its input, self-loop 2g, inhibition -g from each
    of ``a_s`` and ``a_c``, bias 3g. Each output excites both inhibitors with
    g; ``b(a_s) = g/2`` so one firing output suffices, ``b(a_c) = 3g/2`` so
    two are needed.
    """
    _check_args(n, gamma, 1)
    xs = np.arange(n)
    ys = np.arange(n, 2 * n)
    a_s, a_c = 2 * n, 2 * n + 1
    big_n = 2 * n + 2
    w = np.zeros((1, big_n, big_n))
    w[0, xs, ys] = 3 * gamma
    w[0, ys, ys] = 2 * gamma
    w[0, a_s, ys] = -gamma
    w[0, a_c, ys] = -gamma
    w[0, ys, a_s] = gamma
    w[0, ys, a_c] = gamma
    b = np.zeros(big_n)
    b[ys] = 3 * gamma
    b[a_s] = gamma / 2
    b[a_c] = 3 * gamma / 2
    return validate_network(
        NetworkSpec(_competition_neurons(n, 2), w, b, lam=1.0, history=1)
    )


def build_single_inhibitor(n: int, gamma: float) -> NetworkSpec:
    """One-inhibitor variant: ``a_s`` removed, ``w(a_c, y_i) = -2g``.

    When ``a_c`` fires this reproduces the firing probabilities the
    two-inhibitor network would have with both inhibitors active.
    """
    _check_args(n, gamma, 1)
    xs = np.arange(n)
    ys = np.arange(n, 2 * n)
    a_c = 2 * n
    big_n = 2 * n + 1
    w = np.zeros((1, big_n, big_n))
    w[0, xs, ys] = 3 * gamma
    w[0, ys, ys] = 2 * gamma
    w[0, a_c, ys] = -2 * gamma
    w[0, ys, a_c] = gamma
    b = np.zeros(big_n)
    b[ys] = 3 * gamma
    b[a_c] = 3 * gamma / 2
    return validate_network(
        NetworkSpec(_competition_neurons(n, 1), w, b, lam=1.0, history=1)
    )


def build_log_inhibitor(n: int, gamma: float) -> NetworkSpec:
    """Graded-inhibition network: 2n + ceil(log2 n) + 1 neurons, history 2.

    Output self-loops and the output-to-``a_s`` synapses act over both lags;
    all graded inhibitors read only the latest frame. Inhibitor ``a_j`` has
    bias ``2^j g - g/2`` so it fires exactly when at least ``2^j`` outputs
    fired; with ``a_1..a_l`` active a twice-firing output survives with
    probability ``1 / (1 + 2^l)``.
    """
    _check_args(n, gamma, 2)
    levels = ceil_log2(n)
    xs = np.arange(n)
    ys = np.arange(n, 2 * n)
    a_s = 2 * n
    a_levels = np.arange(2 * n + 1, 2 * n + 1 + levels)
    big_n = 2 * n + 1 + levels
    w = np.zeros((2, big_n, big_n))
    w[0, xs, ys] = 6 * gamma
    w[0, ys, ys] = 2 * gamma
    w[1, ys, ys] = 2 * gamma
    w[0, a_s, ys] = -gamma
    w[0, a_levels[0], ys] = -7 * gamma / 2 - LN2
    for a in a_levels[1:]:
        w[0, a, ys] = -LN2
    w[0, ys, a_s] = gamma
    w[1, ys, a_s] = gamma
    for a in a_levels:
        w[0, ys, a] = gamma
    b = np.zeros(big_n)
    b[ys] = 11 * gamma / 2
    b[a_s] = gamma / 2
    for j, a in enumerate(a_levels, start=1):
        b[a] = (2 ** j) * gamma - gamma / 2
    return validate_network(
        NetworkSpec(_competition_neurons(n, 1 + levels), w, b, lam=1.0, history=2)
    )


_BUILDERS = {
    TWO_INHIBITOR: build_two_inhibitor,
    SINGLE_INHIBITOR: build_single_inhibitor,
    LOG_INHIBITOR: build_log_inhibitor,
}


def build(tag: str, n: int, gamma: float) -> NetworkSpec:
    if tag not in _BUILDERS:
        raise WtaLabError(f"unknown variant {tag!r}")
    return _BUILDERS[tag](n, gamma)


def aux_layout(tag: str, n: int) -> dict[str, int | list[int]]:
    """Indices of the named auxiliary neurons in the canonical layout."""
    if tag == TWO_INHIBITOR:
        return {"a_s": 2 * n, "a_c": 2 * n + 1}
    if tag == SINGLE_INHIBITOR:
        return {"a_c": 2 * n}
    if tag == LOG_INHIBITOR:
        return {
            "a_s": 2 * n,
            "a_levels": list(range(2 * n + 1, 2 * n + 1 + ceil_log2(n))),
        }
    raise WtaLabError(f"unknown variant {tag!r}")


@dataclass(frozen=True)
class WtaVariant:
    """Network family tag plus, optionally, which guarantee regime to enforce."""

    tag: str
    theorem_mode: Optional[str] = None

    def __post_init__(self) -> None:
        if self.tag not in VARIANT_TAGS:
            raise WtaLabError(f"unknown variant {self.tag!r}")
        if self.theorem_mode not in (None, HIGH_PROBABILITY, EXPECTED_TIME):
            raise WtaLabError(f"unknown theorem mode {self.theorem_mode!r}")


def _check_sizes(n: int, t_s: int = 1) -> None:
    if n < 1:
        raise InvalidSize(f"n must be >= 1, got {n}")
    if t_s < 1:
        raise WtaLabError(f"t_s must be >= 1, got {t_s}")


def _check_delta(delta: float | None) -> None:
    if delta is not None and not 0 < delta < 1:
        raise WtaLabError(f"delta must lie in (0, 1), got {delta}")


def _regime(variant: WtaVariant, delta: float | None) -> str:
    """The variant's guarantee regime, high-probability unless it says
    otherwise; that regime needs a failure probability ``delta``."""
    _check_delta(delta)
    mode = variant.theorem_mode or HIGH_PROBABILITY
    if mode == HIGH_PROBABILITY and delta is None:
        raise MissingDelta("high-probability regime needs a failure probability")
    return mode


def gamma_for(variant: WtaVariant, n: int, t_s: int, delta: float | None = None) -> float:
    """Smallest weight scale for which the family's guarantee applies.

    High-probability regime needs ``delta``; the expected-time regime does
    not. The single-inhibitor family uses the two-inhibitor thresholds.
    """
    _check_sizes(n, t_s)
    mode = _regime(variant, delta)
    if variant.tag in (TWO_INHIBITOR, SINGLE_INHIBITOR):
        if mode == HIGH_PROBABILITY:
            return 4.0 * math.log((n + 2) * t_s / delta) + 10.0
        return 4.0 * math.log((n + 2) * t_s) + 10.0
    if mode == HIGH_PROBABILITY:
        return 12.0 * math.log(39.0 * t_s * n / delta)
    return 12.0 * math.log(39.0 * t_s * n)


def tc_bound(variant: WtaVariant, n: int, delta: float | None = None) -> int:
    """Convergence-time budget that comes with the family's guarantee."""
    _check_sizes(n)
    mode = _regime(variant, delta)
    if variant.tag in (TWO_INHIBITOR, SINGLE_INHIBITOR):
        if mode == HIGH_PROBABILITY:
            return math.ceil(72.0 * (math.log2(n) + 1) * (math.log2(1 / delta) + 1))
        return math.ceil(108.0 * (math.log2(n) + 3))
    if mode == HIGH_PROBABILITY:
        return math.ceil(2086.0 * (math.log2(1 / delta) + 1))
    return 4001


@dataclass(frozen=True)
class WtaInstance:
    """One fully parameterized competition problem.

    ``input_bits`` is the fixed input configuration. When the variant carries
    a theorem mode, gamma and t_c are checked against that regime's bounds.
    """

    n: int
    gamma: float
    t_s: int
    delta: Optional[float]
    t_c: int
    input_bits: tuple[int, ...] = field(default=())
    variant: WtaVariant = WtaVariant(TWO_INHIBITOR)

    def __post_init__(self) -> None:
        _check_sizes(self.n, self.t_s)
        if self.t_c < 1:
            raise WtaLabError(f"t_c must be >= 1, got {self.t_c}")
        if not 0 < self.gamma < math.inf:
            raise InvalidGamma(f"gamma must be finite and > 0, got {self.gamma}")
        _check_delta(self.delta)
        bits = self.input_bits or tuple([1] * self.n)
        if len(bits) != self.n or any(b not in (0, 1) for b in bits):
            raise WtaLabError("input_bits must be n bits")
        object.__setattr__(self, "input_bits", tuple(int(b) for b in bits))
        if self.variant.theorem_mode is not None:
            need = gamma_for(self.variant, self.n, self.t_s, self.delta)
            if self.gamma < need - 1e-9:
                raise InvalidGamma(
                    f"gamma {self.gamma} below the regime threshold {need}"
                )
            floor = tc_bound(self.variant, self.n, self.delta)
            if self.t_c < floor:
                raise WtaLabError(f"t_c {self.t_c} below the regime bound {floor}")

    @classmethod
    def for_theorem(
        cls,
        tag: str,
        mode: str,
        n: int,
        t_s: int,
        delta: float | None = None,
        input_bits: tuple[int, ...] = (),
    ) -> "WtaInstance":
        """Instance at exactly the regime's gamma threshold and t_c bound."""
        variant = WtaVariant(tag, mode)
        return cls(
            n=n,
            gamma=gamma_for(variant, n, t_s, delta),
            t_s=t_s,
            delta=delta,
            t_c=tc_bound(variant, n, delta),
            input_bits=input_bits,
            variant=variant,
        )

    def build(self) -> NetworkSpec:
        return build(self.variant.tag, self.n, self.gamma)
