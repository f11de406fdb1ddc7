"""Stochastic spiking network model: structure and firing probability.

A network is a set of neurons partitioned into inputs, outputs and auxiliaries,
with signed synaptic weights over lags ``1..h``, per-neuron biases, and a
sigmoid spike-probability function with temperature ``lam``. At each
synchronous step a non-input neuron fires with probability
``sigmoid(potential / lam)``, where the potential is the lag-weighted sum of
the last ``h`` firing vectors minus the bias.

Each neuron's role and polarity are codes in two read-only uint8 arrays of
shape ``(N,)``, indexed by neuron: ``kind`` (``INPUT``, ``OUTPUT``,
``AUXILIARY`` are 0, 1, 2) and ``polarity`` (``EXCITATORY``, ``INHIBITORY``
are 0, 1). Only the JSON rows name them (``"input"`` ... ``"inhibitory"``).

Structural rules, which the ``NetworkSpec`` constructor enforces:

* inputs and outputs are excitatory;
* no synapse targets an input neuron;
* Dale's principle: an excitatory neuron has only nonnegative outgoing
  weights, an inhibitory one only nonpositive, at every lag;
* weights, biases and the temperature are finite.

``NetworkSpec.synapses``, parallel arrays of every nonzero weight, is the one
stored form of the weights: validation, ``edges`` and the batch kernel
(``simulate.BatchRunner``, which computes every potential, the scalar
``simulate.potential`` and the exact oracle's included) all read it. The dense
``(h, N, N)`` tensor ``NetworkSpec.weights`` is a view built on first access.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import (
    DalesPrincipleViolation,
    InputTargeted,
    InvalidNetwork,
    LagOutOfRange,
    NonpositiveTemperature,
    check_neuron,
    check_real,
)

# a code is a position in its names tuple
_KINDS = ("input", "output", "auxiliary")
_POLARITIES = ("excitatory", "inhibitory")
INPUT, OUTPUT, AUXILIARY = range(len(_KINDS))
EXCITATORY, INHIBITORY = range(len(_POLARITIES))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _readonly(a, dtype=np.float64) -> np.ndarray:
    """A read-only C-contiguous copy of ``a`` as ``dtype``. The copy is the
    spec's own: the caller's array stays writeable, and its later writes do
    not reach the spec."""
    return _frozen(np.array(a, dtype=dtype, order="C"))


class Synapses(NamedTuple):
    """Every nonzero weight as parallel read-only arrays, in scan order (lag,
    then pre, then post): the stored form of a spec's weights, with
    ``weights[lag0, pre, post] == weight``."""

    lag0: np.ndarray
    pre: np.ndarray
    post: np.ndarray
    weight: np.ndarray


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    """Immutable network description.

    ``kind`` and ``polarity`` hold one code per neuron (see the module
    docstring); the constructor keeps them as read-only uint8 arrays.
    ``synapses`` holds every nonzero weight, the lag-``lag0 + 1`` synapse
    from ``pre`` to ``post``, once each and in scan order. ``weights`` is the
    dense ``(history, N, N)`` view of them, built on first access.
    ``biases`` has shape ``(N,)``. ``lam`` is the sigmoid temperature.
    """

    kind: np.ndarray
    polarity: np.ndarray
    synapses: Synapses
    biases: np.ndarray
    lam: float = 1.0
    history: int = 1

    def __post_init__(self) -> None:
        kind = _codes("kind", self.kind, _KINDS)
        polarity = _codes("polarity", self.polarity, _POLARITIES)
        n = kind.size
        if polarity.shape != kind.shape:
            raise InvalidNetwork(f"polarity shape {polarity.shape} != kind shape {kind.shape}")
        b = _numbers("biases", self.biases)
        if b.shape != (n,):
            raise InvalidNetwork(f"biases shape {b.shape} != ({n},)")
        _check_history(self.history)
        check_real("lam", self.lam, -math.inf, math.inf, InvalidNetwork)  # a finite real
        if not self.lam > 0:
            raise NonpositiveTemperature(f"lam must be > 0, got {self.lam}")
        if np.count_nonzero(np.isfinite(b)) < n:
            bad = np.flatnonzero(~np.isfinite(b))
            raise InvalidNetwork(f"non-finite bias {b[bad[0]]} at neuron {bad[0]}")
        names = (f"synapse {name}" for name in Synapses._fields)
        dtypes = (np.intp, np.intp, np.intp, np.float64)
        syn = Synapses(*map(_numbers, names, self.synapses, dtypes))
        object.__setattr__(self, "synapses", syn)
        object.__setattr__(self, "biases", b)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "polarity", polarity)
        _check_synapses(syn, self.history, n)
        validate_network(self)

    @cached_property
    def weights(self) -> np.ndarray:
        """The dense ``(history, N, N)`` view of ``synapses``, with
        ``weights[l-1, pre, post]`` the lag-``l`` weight from ``pre`` to
        ``post``. Built on first access; in this package only
        ``BatchRunner.w_cols`` reads it."""
        n = self.n_neurons
        w = np.zeros((self.history, n, n))
        syn = self.synapses
        w[syn.lag0, syn.pre, syn.post] = syn.weight
        return _frozen(w)

    # -- layout ---------------------------------------------------------

    @property
    def n_neurons(self) -> int:
        return self.kind.size

    def _where(self, mask: np.ndarray) -> np.ndarray:
        return _frozen(np.flatnonzero(mask))

    # read-only index arrays of each role, found on first access
    input_indices = cached_property(lambda self: self._where(self.kind == INPUT))
    output_indices = cached_property(lambda self: self._where(self.kind == OUTPUT))
    auxiliary_indices = cached_property(lambda self: self._where(self.kind == AUXILIARY))
    non_input_indices = cached_property(lambda self: self._where(self.kind != INPUT))

    def weight(self, pre: int, post: int, lag: int = 1) -> float:
        check_neuron("pre", pre, self.n_neurons)
        check_neuron("post", post, self.n_neurons)
        if isinstance(lag, bool) or not (isinstance(lag, Integral) and 1 <= lag <= self.history):
            raise LagOutOfRange(f"lag must be an integer in 1..{self.history}, got {lag!r}")
        syn = self.synapses
        at = np.flatnonzero((syn.lag0 == lag - 1) & (syn.pre == pre) & (syn.post == post))
        return float(syn.weight[at[0]]) if at.size else 0.0

    def bias(self, index: int) -> float:
        check_neuron("index", index, self.n_neurons)
        return float(self.biases[index])

    def edges(self) -> Iterable[tuple[int, int, int, float]]:
        """Yield ``(pre, post, lag, weight)`` for every nonzero synapse."""
        syn = self.synapses
        for lag0, p, q, v in zip(
            syn.lag0.tolist(), syn.pre.tolist(), syn.post.tolist(), syn.weight.tolist()
        ):
            yield p, q, lag0 + 1, v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NetworkSpec):
            return NotImplemented
        return (
            np.array_equal(self.kind, other.kind)
            and np.array_equal(self.polarity, other.polarity)
            and self.history == other.history
            and self.lam == other.lam
            and all(map(np.array_equal, self.synapses, other.synapses))
            and np.array_equal(self.biases, other.biases)
        )

    # -- construction ---------------------------------------------------

    @classmethod
    def from_edges(
        cls, kind, polarity, edges: Iterable[tuple[int, int, int, float]],
        biases: Mapping[int, float], lam: float = 1.0, history: int = 1,
    ) -> "NetworkSpec":
        """Build a spec from sparse ``(pre, post, lag, weight)`` edges and a
        ``neuron -> bias`` mapping (absent neurons have bias 0).

        Edges may come in any order; the last of repeated keys wins and
        zero weights (``-0.0`` too) are dropped.
        """
        _check_history(history)
        latest = {}
        for pre, post, lag, value in edges:
            try:
                lag, pre, post = (_number(i, "index", True) for i in (lag, pre, post))
            except InvalidNetwork:
                raise InvalidNetwork(f"edge {pre, post, lag} has a non-integer index") from None
            if not 1 <= lag <= history:
                raise LagOutOfRange(f"lag {lag} outside 1..{history}")
            latest[lag - 1, pre, post] = float(_number(value, "weight"))
        # tuples sort as (lag0, pre, post): scan order
        keys = sorted(k for k, v in latest.items() if v != 0.0)
        lag0, pre, post = np.reshape(np.asarray(keys, dtype=np.intp), (len(keys), 3)).T
        weight = [latest[k] for k in keys]
        b = np.zeros(np.size(kind))
        for idx, value in biases.items():
            i = _number(idx, "bias id", True)
            if not 0 <= i < b.size:
                raise InvalidNetwork(f"bias of neuron {i} is outside the network")
            b[i] = _number(value, "bias")
        return cls(kind, polarity, Synapses(lag0, pre, post, weight), b, lam, history)

    @classmethod
    def from_dense(
        cls, kind, polarity, weights, biases, lam: float = 1.0, history: int = 1
    ) -> "NetworkSpec":
        """Build a spec from a dense ``(history, N, N)`` weight tensor, keeping
        its nonzero entries."""
        n = np.size(kind)
        w = np.asarray(weights)  # the constructor checks the entries are numbers
        if w.shape != (history, n, n):
            raise InvalidNetwork(f"weights shape {w.shape} != ({history}, {n}, {n})")
        # NaN and inf compare unequal to 0.0, so the constructor sees them all
        flat = np.flatnonzero(w.ravel() != 0.0)
        lag0, pre, post = np.unravel_index(flat, w.shape)
        return cls(kind, polarity, Synapses(lag0, pre, post, w.ravel()[flat]), biases, lam, history)

    # -- serialization --------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "history": self.history,
            "neurons": [
                {"id": i, "kind": _KINDS[k], "polarity": _POLARITIES[p]}
                for i, (k, p) in enumerate(zip(self.kind.tolist(), self.polarity.tolist()))
            ],
            "edges": [
                {"pre": p, "post": q, "lag": lag, "weight": v}
                for p, q, lag, v in sorted(self.edges())
            ],
            "biases": [
                {"id": i, "bias": float(b)}
                for i, b in enumerate(self.biases.tolist())
                if b != 0.0
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, data: dict) -> "NetworkSpec":
        """The spec of a ``to_json_dict`` mapping. A missing key, a wrong
        container, or a value that is not a JSON number (an integer for ids,
        ``pre``, ``post``, ``lag`` and ``history``; never a bool or a string)
        raises ``InvalidNetwork``."""
        try:
            rows = sorted(data["neurons"], key=lambda d: _number(d["id"], "neuron id", True))
            if [d["id"] for d in rows] != list(range(len(rows))):
                raise InvalidNetwork("neuron ids must be 0..N-1, each once")
            kind = [_code(_KINDS, d["kind"], "neuron kind") for d in rows]
            polarity = [_code(_POLARITIES, d["polarity"], "polarity") for d in rows]
            # from_edges checks the values; a bias id is checked here, since
            # a dict would merge a true or 1.0 id with id 1
            edges = [(d["pre"], d["post"], d["lag"], d["weight"]) for d in data["edges"]]
            biases = {_number(d["id"], "bias id", True): d["bias"] for d in data["biases"]}
            # the constructor rejects a lambda or history that is not a number
            lam, history = data.get("lambda", 1.0), data.get("history", 1)
            return cls.from_edges(kind, polarity, edges, biases, lam, history)
        except (KeyError, TypeError, ValueError) as e:
            raise InvalidNetwork(f"malformed network JSON: {type(e).__name__}: {e}") from None

    @classmethod
    def from_json(cls, text: str) -> "NetworkSpec":
        return cls.from_json_dict(json.loads(text))


def _number(value, what: str, integer: bool = False):
    """``value`` if it is a JSON number, an integer when ``integer``; a bool,
    a string or null raises ``InvalidNetwork``."""
    if isinstance(value, bool) or not isinstance(value, Integral if integer else Real):
        kind = "an integer index" if integer else "a number"
        raise InvalidNetwork(f"{what} {value!r} is not {kind}")
    return value


def _numbers(what: str, values, dtype=np.float64) -> np.ndarray:
    """``_readonly(values, dtype)``; raises ``InvalidNetwork`` unless ``values`` is
    empty or holds integers (floats too for a float ``dtype``), never bools or strings."""
    a = np.asarray(values)
    kinds, noun = ("iu", "integers") if np.issubdtype(dtype, np.integer) else ("iuf", "numbers")
    if a.size and a.dtype.kind not in kinds:
        raise InvalidNetwork(f"{what} must be {noun}, got {a.dtype}")
    return _readonly(a, dtype)


def _check_history(history) -> None:
    """Raise ``InvalidNetwork`` unless ``history`` is an integer >= 1 and not a bool."""
    if isinstance(history, bool) or not (isinstance(history, Integral) and history >= 1):
        raise InvalidNetwork(f"history must be an integer >= 1, got {history!r}")


def _code(names: tuple[str, ...], name, what: str) -> int:
    """The position of ``name`` in ``names``: a JSON name as its code."""
    try:
        return names.index(name)
    except ValueError:
        raise InvalidNetwork(f"unknown {what} {name!r}") from None


def _codes(what: str, codes, names: tuple[str, ...]) -> np.ndarray:
    """``codes`` as a read-only uint8 array; raises ``InvalidNetwork`` unless
    it is 1-D and every entry is an integer position in ``names``, never a
    bool."""
    a = np.asarray(codes)
    if a.ndim != 1 or (a.size and a.dtype.kind not in "iu"):
        raise InvalidNetwork(f"{what} must be a 1-D integer array, got {a.dtype} {a.shape}")
    bad = (a < 0) | (a >= len(names))
    if np.count_nonzero(bad):
        u = np.flatnonzero(bad)[0]
        raise InvalidNetwork(f"{what} code {a[u]} of neuron {u} is not one of 0..{len(names) - 1}")
    return _readonly(a, np.uint8)


def _check_synapses(syn: Synapses, history: int, n: int) -> None:
    """Raise ``InvalidNetwork`` unless the synapse arrays are 1-D and of one
    length, every lag0, pre and post is in range, the keys run strictly up in
    scan order (so each appears once), and every weight is nonzero and finite."""
    size = syn.weight.size
    if not syn.lag0.shape == syn.pre.shape == syn.post.shape == syn.weight.shape == (size,):
        raise InvalidNetwork(f"synapse arrays must be 1-D of one length: {[a.shape for a in syn]}")

    def where(k: int) -> str:
        return f"at lag {syn.lag0[k] + 1} from neuron {syn.pre[k]} to neuron {syn.post[k]}"

    try:
        key = np.ravel_multi_index(syn[:3], (history, n, n))
    except ValueError:
        idx = np.stack(syn[:3], axis=1)
        k = np.flatnonzero(((idx < 0) | (idx >= (history, n, n))).any(axis=1))[0]
        raise InvalidNetwork(f"synapse {k} {where(k)} is outside the network") from None
    # count_nonzero, not any/all: at small n each check's call overhead is its cost
    if np.count_nonzero(key[1:] <= key[:-1]):
        k = np.flatnonzero(key[1:] <= key[:-1])[0] + 1
        what = "repeats" if key[k] == key[k - 1] else "breaks the scan order"
        raise InvalidNetwork(f"synapse {k} {where(k)} {what}")
    w = syn.weight
    if np.count_nonzero(w) < size or np.count_nonzero(np.isfinite(w)) < size:
        k = np.flatnonzero(~np.isfinite(w) | (w == 0.0))[0]
        kind = "zero" if w[k] == 0.0 else "non-finite"
        raise InvalidNetwork(f"{kind} weight {w[k]} {where(k)}")


def validate_network(spec: NetworkSpec) -> NetworkSpec:
    """Check every structural invariant and return the spec unchanged. The
    ``NetworkSpec`` constructor ends with this check.

    Raises ``InputTargeted`` if any synapse enters an input neuron,
    ``DalesPrincipleViolation`` if a neuron's outgoing weights disagree in
    sign with its polarity, and ``InvalidNetwork`` for layout violations.
    """
    kind, excitatory = spec.kind, spec.polarity == EXCITATORY
    inhibitory_io = ~excitatory & (kind != AUXILIARY)
    if np.count_nonzero(inhibitory_io):
        u = np.flatnonzero(inhibitory_io)[0]
        raise InvalidNetwork(f"{_KINDS[kind[u]]} neuron {u} must be excitatory")
    syn = spec.synapses
    is_input = kind == INPUT
    if np.count_nonzero(is_input[syn.post]):
        k = np.flatnonzero(is_input[syn.post])[0]
        raise InputTargeted(f"synapse from neuron {syn.pre[k]} targets input neuron {syn.post[k]}")
    # every weight is nonzero, so its sign is wrong where it is positive and
    # its source inhibitory, or the other way round
    wrong_sign = (syn.weight > 0.0) != excitatory[syn.pre]
    if np.count_nonzero(wrong_sign):
        u = int(syn.pre[wrong_sign].min())
        sign = "negative" if excitatory[u] else "positive"
        raise DalesPrincipleViolation(
            f"{_POLARITIES[spec.polarity[u]]} neuron {u} has a {sign} outgoing weight"
        )
    return spec


def sigmoid(z) -> np.ndarray | float:
    """Numerically stable logistic function.

    Only ever exponentiates a nonpositive argument, so it saturates cleanly
    to 0.0 / 1.0 instead of overflowing for ``|z|`` beyond ~745. A scalar
    gives a float and an array a new array.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    # numerator 1 where z >= 0, else e: e <= 1, so a max picks it without a branch
    p = np.maximum(e, z >= 0.0) / (e + 1.0)
    return float(p) if p.ndim == 0 else p


def spike_probability(spec: NetworkSpec, pot: float) -> float:
    """Firing probability ``1 / (1 + exp(-pot / lam))`` for this network."""
    return float(sigmoid(pot / spec.lam))


def rescale_temperature(spec: NetworkSpec, new_lambda: float) -> NetworkSpec:
    """Return an equivalent network with sigmoid temperature ``new_lambda``.

    Weights and biases are scaled by ``new_lambda / lam`` so every firing
    probability, hence the entire execution distribution, is preserved:
    the scaled potential divided by the new temperature equals the original
    potential divided by the original temperature.
    """
    check_real("new_lambda", new_lambda, 0.0, math.inf, NonpositiveTemperature)
    factor = new_lambda / spec.lam
    syn = spec.synapses
    with np.errstate(over="ignore"):  # the constructor rejects what overflows to inf
        w, b = syn.weight * factor, spec.biases * factor
    keep = w != 0.0  # a weight that underflows to zero is no synapse
    scaled = Synapses(syn.lag0[keep], syn.pre[keep], syn.post[keep], w[keep])
    return NetworkSpec(spec.kind, spec.polarity, scaled, b, new_lambda, spec.history)
