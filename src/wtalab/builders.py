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

from .errors import InvalidGamma, InvalidSize, MissingDelta, WtaLabError, check_int, check_real
from .network import AUXILIARY, EXCITATORY, INHIBITORY, INPUT, OUTPUT, NetworkSpec, Synapses

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


def check_gamma(gamma) -> None:
    """Raise ``InvalidGamma`` unless ``gamma`` is a finite real number > 0, not a bool."""
    check_real("gamma", gamma, 0.0, math.inf, InvalidGamma)


def row_bytes(n: int) -> int:
    """Bytes of a float64 per neuron of any family at ``n`` (3n + 1 at most)."""
    return 8 * (3 * n + 1)


def _check_args(n: int, gamma: float, min_n: int) -> None:
    _check_n(n, min_n)
    check_gamma(gamma)


def _network(
    n: int, *, out_bias: float, aux_biases: list, drive: float, inhibit: dict, fans: list
) -> NetworkSpec:
    """The competition network: inputs, outputs (bias ``out_bias``)
    and one inhibitory auxiliary per entry of ``aux_biases``, with history ``len(fans)``.

    Its synapses, emitted in scan order: at lag 1, ``x_i -> y_i`` with
    weight ``drive``; then the first fan ``(loop, excite)``, each ``y_i`` onto
    itself with ``loop`` and onto every auxiliary ``a`` of ``excite`` with
    ``excite[a]``; then every auxiliary ``a`` of ``inhibit`` onto each output
    with ``inhibit[a]``. At lag ``l > 1``, the ``l``-th fan. The dicts list
    auxiliaries in index order. Array methods stand in for ``np.tile``: at
    small n, numpy call overhead is what a build costs."""
    counts = [n, n, len(aux_biases)]
    kind = np.repeat(np.uint8([INPUT, OUTPUT, AUXILIARY]), counts)
    polarity = np.repeat(np.uint8([EXCITATORY, EXCITATORY, INHIBITORY]), counts)
    b = np.zeros(kind.size)
    b[n : 2 * n] = out_bias
    b[2 * n :] = aux_biases
    xs, ys = np.arange(2 * n).reshape(2, n)
    inhibitors = np.array(list(inhibit))
    pre, post, weight, sizes = [], [], [], []
    for lag0, (loop, excite) in enumerate(fans):
        fan = ys.repeat(1 + len(excite))
        fan_post = fan.copy()
        fan_post.reshape(n, -1)[:, 1:] = list(excite)
        fan_weight = np.array([[loop, *excite.values()]]).repeat(n, 0).ravel()
        if lag0:
            pre.append(fan)
            post.append(fan_post)
            weight.append(fan_weight)
        else:  # lag 1 puts the drive before the fan and the inhibition after it
            pre += (xs, fan, inhibitors.repeat(n))
            post += (ys, fan_post, ys[None].repeat(inhibitors.size, 0).ravel())
            weight += (np.full(n, drive), fan_weight, np.array(list(inhibit.values())).repeat(n))
        sizes.append(fan.size + (0 if lag0 else n + inhibitors.size * n))
    syn = Synapses(np.arange(len(fans)).repeat(sizes), *map(np.concatenate, (pre, post, weight)))
    return NetworkSpec(kind, polarity, syn, b, history=len(fans))


def build_two_inhibitor(n: int, gamma: float) -> NetworkSpec:
    """Two-inhibitor network: 2n+2 neurons, history 1.

    Per output: drive 3g from its input, self-loop 2g, inhibition -g from each
    of ``a_s`` and ``a_c``, bias 3g. Each output excites both inhibitors with
    g; ``b(a_s) = g/2`` so one firing output suffices, ``b(a_c) = 3g/2`` so
    two are needed.
    """
    _check_args(n, gamma, 1)
    a_s, a_c, g = 2 * n, 2 * n + 1, gamma
    return _network(
        n, out_bias=3 * g, aux_biases=[g / 2, 3 * g / 2], drive=3 * g,
        inhibit={a_s: -g, a_c: -g}, fans=[(2 * g, {a_s: g, a_c: g})],
    )


def build_single_inhibitor(n: int, gamma: float) -> NetworkSpec:
    """One-inhibitor variant: ``a_s`` removed, ``w(a_c, y_i) = -2g``.

    When ``a_c`` fires this reproduces the firing probabilities the
    two-inhibitor network would have with both inhibitors active.
    """
    _check_args(n, gamma, 1)
    a_c, g = 2 * n, gamma
    return _network(
        n, out_bias=3 * g, aux_biases=[3 * g / 2], drive=3 * g,
        inhibit={a_c: -2 * g}, fans=[(2 * g, {a_c: g})],
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
    a_s, g = 2 * n, gamma
    a_levels = range(2 * n + 1, 2 * n + 1 + levels)
    aux_biases = [g / 2] + [(2 ** j) * g - g / 2 for j in range(1, levels + 1)]
    inhibit = {a_s: -g, a_levels[0]: -7 * g / 2 - LN2, **dict.fromkeys(a_levels[1:], -LN2)}
    return _network(
        n, out_bias=11 * g / 2, aux_biases=aux_biases, drive=6 * g, inhibit=inhibit,
        fans=[(2 * g, dict.fromkeys([a_s, *a_levels], g)), (2 * g, {a_s: g})],
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


def _check_n(n, minimum: int) -> None:
    """``check_int`` for a competition size, raising ``InvalidSize``."""
    try:
        check_int("n", n, minimum)
    except WtaLabError as e:
        raise InvalidSize(str(e)) from None


def _check_sizes(n: int, t_s: int = 1) -> None:
    _check_n(n, 1)
    check_int("t_s", t_s, 1)


def _check_delta(delta: float | None) -> None:
    if delta is not None:
        check_real("delta", delta, 0.0, 1.0, WtaLabError)


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
        check_int("t_c", self.t_c, 1)
        check_gamma(self.gamma)
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
