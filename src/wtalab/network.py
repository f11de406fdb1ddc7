"""Stochastic spiking network model: structure, potentials, firing probability.

A network is a set of neurons partitioned into inputs, outputs and auxiliaries,
with signed synaptic weights over lags ``1..h``, per-neuron biases, and a
sigmoid spike-probability function with temperature ``lam``. At each
synchronous step a non-input neuron fires with probability
``sigmoid(potential / lam)``, where the potential is the lag-weighted sum of
the last ``h`` firing vectors minus the bias.

Structural rules enforced here:

* inputs and outputs are excitatory;
* no synapse targets an input neuron;
* Dale's principle: an excitatory neuron has only nonnegative outgoing
  weights, an inhibitory one only nonpositive, at every lag;
* weights, biases and the temperature are finite.

``NetworkSpec.synapses``, parallel arrays of every nonzero weight, is the one
stored form of the weights: validation, potentials, ``edges`` and the batch
stepper all read it. The dense ``(h, N, N)`` tensor ``NetworkSpec.weights`` is
a view built on first access, for the exact oracle over small networks.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import (
    DalesPrincipleViolation,
    InputNeuronPotential,
    InputTargeted,
    InvalidNetwork,
    LagOutOfRange,
    NonpositiveTemperature,
)

INPUT = "input"
OUTPUT = "output"
AUXILIARY = "auxiliary"
EXCITATORY = "excitatory"
INHIBITORY = "inhibitory"

_KINDS = (INPUT, OUTPUT, AUXILIARY)
_POLARITIES = (EXCITATORY, INHIBITORY)


@dataclass(frozen=True)
class Neuron:
    """One neuron: dense index, role, and synaptic polarity."""

    index: int
    kind: str
    polarity: str

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InvalidNetwork(f"unknown neuron kind {self.kind!r}")
        if self.polarity not in _POLARITIES:
            raise InvalidNetwork(f"unknown polarity {self.polarity!r}")


def _readonly(a, dtype=np.float64) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


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

    ``synapses`` holds every nonzero weight, the lag-``lag0 + 1`` synapse
    from ``pre`` to ``post``, once each and in scan order. ``weights`` is the
    dense ``(history, N, N)`` view of them, built on first access.
    ``biases`` has shape ``(N,)``. ``lam`` is the sigmoid temperature.
    """

    neurons: tuple[Neuron, ...]
    synapses: Synapses
    biases: np.ndarray
    lam: float = 1.0
    history: int = 1

    def __post_init__(self) -> None:
        n = len(self.neurons)
        b = np.asarray(self.biases, dtype=np.float64)
        if b.shape != (n,):
            raise InvalidNetwork(f"biases shape {b.shape} != ({n},)")
        if self.history < 1:
            raise InvalidNetwork("history must be >= 1")
        if not math.isfinite(self.lam):
            raise InvalidNetwork(f"lam must be finite, got {self.lam}")
        if not self.lam > 0:
            raise NonpositiveTemperature(f"lam must be > 0, got {self.lam}")
        if np.count_nonzero(np.isfinite(b)) < n:
            bad = np.flatnonzero(~np.isfinite(b))
            raise InvalidNetwork(f"non-finite bias {b[bad[0]]} at neuron {bad[0]}")
        syn = Synapses(*map(_readonly, self.synapses, (np.intp, np.intp, np.intp, np.float64)))
        object.__setattr__(self, "synapses", syn)
        object.__setattr__(self, "biases", _readonly(b))
        object.__setattr__(self, "neurons", tuple(self.neurons))
        _check_synapses(syn, self.history, n)

    @cached_property
    def weights(self) -> np.ndarray:
        """The dense ``(history, N, N)`` view of ``synapses``, with
        ``weights[l-1, pre, post]`` the lag-``l`` weight from ``pre`` to
        ``post``. Built on first access; only the exact oracle and
        ``BatchRunner.w_cols`` read it."""
        n = self.n_neurons
        w = np.zeros((self.history, n, n))
        syn = self.synapses
        w[syn.lag0, syn.pre, syn.post] = syn.weight
        return _readonly(w)

    # -- layout ---------------------------------------------------------

    @property
    def n_neurons(self) -> int:
        return len(self.neurons)

    def _indices_of(self, *kinds: str) -> np.ndarray:
        return _readonly([u.index for u in self.neurons if u.kind in kinds], np.intp)

    # read-only index arrays of each role, found on first access
    input_indices = cached_property(lambda self: self._indices_of(INPUT))
    output_indices = cached_property(lambda self: self._indices_of(OUTPUT))
    auxiliary_indices = cached_property(lambda self: self._indices_of(AUXILIARY))
    non_input_indices = cached_property(lambda self: self._indices_of(OUTPUT, AUXILIARY))

    def is_input(self, index: int) -> bool:
        return self.neurons[index].kind == INPUT

    def weight(self, pre: int, post: int, lag: int = 1) -> float:
        if not 1 <= lag <= self.history:
            raise LagOutOfRange(f"lag {lag} outside 1..{self.history}")
        syn = self.synapses
        at = np.flatnonzero((syn.lag0 == lag - 1) & (syn.pre == pre) & (syn.post == post))
        return float(syn.weight[at[0]]) if at.size else 0.0

    def bias(self, index: int) -> float:
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
            self.neurons == other.neurons
            and self.history == other.history
            and self.lam == other.lam
            and all(map(np.array_equal, self.synapses, other.synapses))
            and np.array_equal(self.biases, other.biases)
        )

    # -- construction ---------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        neurons: Iterable[Neuron],
        edges: Mapping[tuple[int, int, int], float] | Iterable[tuple[int, int, int, float]],
        biases: Mapping[int, float],
        lam: float = 1.0,
        history: int = 1,
    ) -> "NetworkSpec":
        """Build a spec from sparse ``(pre, post, lag) -> weight`` entries.

        Entries may come in any order; the last of repeated keys wins and
        zero weights (``-0.0`` too) are dropped.
        """
        neurons = tuple(neurons)
        if isinstance(edges, Mapping):
            edges = [(p, q, lag, v) for (p, q, lag), v in edges.items()]
        latest = {}
        for pre, post, lag, value in edges:
            if not 1 <= lag <= history:
                raise LagOutOfRange(f"lag {lag} outside 1..{history}")
            try:
                latest[operator.index(lag) - 1, operator.index(pre), operator.index(post)] = value
            except TypeError:
                raise InvalidNetwork(f"edge {pre, post, lag} has a non-integer index") from None
        # tuples sort as (lag0, pre, post): scan order
        keys = sorted(k for k, v in latest.items() if v != 0.0)
        lag0, pre, post = np.reshape(np.asarray(keys, dtype=np.intp), (len(keys), 3)).T
        weight = [latest[k] for k in keys]
        b = np.zeros(len(neurons))
        for idx, value in biases.items():
            b[idx] = value
        return cls(neurons, Synapses(lag0, pre, post, weight), b, lam=lam, history=history)

    @classmethod
    def from_dense(
        cls, neurons: Iterable[Neuron], weights, biases, lam: float = 1.0, history: int = 1
    ) -> "NetworkSpec":
        """Build a spec from a dense ``(history, N, N)`` weight tensor, keeping
        its nonzero entries."""
        neurons = tuple(neurons)
        n = len(neurons)
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (history, n, n):
            raise InvalidNetwork(f"weights shape {w.shape} != ({history}, {n}, {n})")
        # NaN and inf compare unequal to 0.0, so the constructor sees them all
        flat = np.flatnonzero(w.ravel() != 0.0)
        lag0, pre, post = np.unravel_index(flat, w.shape)
        return cls(neurons, Synapses(lag0, pre, post, w.ravel()[flat]), biases, lam, history)

    # -- serialization --------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "history": self.history,
            "neurons": [
                {"id": u.index, "kind": u.kind, "polarity": u.polarity}
                for u in self.neurons
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
        neurons = tuple(
            Neuron(d["id"], d["kind"], d["polarity"])
            for d in sorted(data["neurons"], key=lambda d: d["id"])
        )
        edges = [
            (d["pre"], d["post"], d["lag"], d["weight"]) for d in data["edges"]
        ]
        biases = {d["id"]: d["bias"] for d in data["biases"]}
        return cls.from_edges(
            neurons,
            edges,
            biases,
            lam=data.get("lambda", 1.0),
            history=data.get("history", 1),
        )

    @classmethod
    def from_json(cls, text: str) -> "NetworkSpec":
        return cls.from_json_dict(json.loads(text))


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
    """Check every structural invariant and return the spec unchanged.

    Raises ``InputTargeted`` if any synapse enters an input neuron,
    ``DalesPrincipleViolation`` if a neuron's outgoing weights disagree in
    sign with its polarity, and ``InvalidNetwork`` for layout violations.
    """
    n = spec.n_neurons
    indices = [u.index for u in spec.neurons]
    if indices != list(range(n)):
        raise InvalidNetwork("neuron indices must be dense 0..N-1 in order")
    for u in spec.neurons:
        if u.kind in (INPUT, OUTPUT) and u.polarity != EXCITATORY:
            raise InvalidNetwork(
                f"{u.kind} neuron {u.index} must be excitatory"
            )
    syn = spec.synapses
    is_input = np.zeros(n, dtype=bool)
    is_input[spec.input_indices] = True
    if np.count_nonzero(is_input[syn.post]):
        k = np.flatnonzero(is_input[syn.post])[0]
        raise InputTargeted(f"synapse from neuron {syn.pre[k]} targets input neuron {syn.post[k]}")
    excitatory = np.asarray([u.polarity == EXCITATORY for u in spec.neurons], dtype=bool)
    # every weight is nonzero, so its sign is wrong where it is positive and
    # its source inhibitory, or the other way round
    wrong_sign = (syn.weight > 0.0) != excitatory[syn.pre]
    if np.count_nonzero(wrong_sign):
        u = int(syn.pre[wrong_sign].min())
        sign = "negative" if excitatory[u] else "positive"
        raise DalesPrincipleViolation(
            f"{spec.neurons[u].polarity} neuron {u} has a {sign} outgoing weight"
        )
    return spec


def potential(spec: NetworkSpec, window, u: int) -> float:
    """Membrane potential of neuron ``u`` given the last ``h`` firing vectors.

    ``window`` is an ``ExecutionWindow`` or an ``(h, N)`` bit array with the
    most recent configuration last. Returns
    ``sum_l sum_v w(v, u, l) * frame[t-l](v) - b(u)``.
    """
    if spec.is_input(u):
        raise InputNeuronPotential(f"neuron {u} is an input")
    frames = np.asarray(getattr(window, "frames", window), dtype=np.float64)
    if frames.ndim == 1:
        frames = frames[None, :]
    h = spec.history
    if frames.shape != (h, spec.n_neurons):
        raise InvalidNetwork(
            f"window shape {frames.shape} != ({h}, {spec.n_neurons})"
        )
    syn = spec.synapses
    into = np.flatnonzero(syn.post == u)
    # frame h-1-lag0 of the window holds the bits a lag0+1 synapse reads
    fired = frames[h - 1 - syn.lag0[into], syn.pre[into]]
    return float(fired @ syn.weight[into] - spec.biases[u])


def sigmoid(z, out=None) -> np.ndarray | float:
    """Numerically stable logistic function.

    Only ever exponentiates a nonpositive argument, so it saturates cleanly
    to 0.0 / 1.0 instead of overflowing for ``|z|`` beyond ~745. ``out``, a
    float64 array of ``z``'s shape (``z`` itself included), receives the
    result; without it a scalar gives a float and an array a new array.
    """
    z = np.asarray(z, dtype=np.float64)
    nonneg = z >= 0.0
    e = np.abs(z, out=np.empty_like(z) if out is None else out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    den = e + 1.0
    # numerator 1 where z >= 0, else e: e <= 1, so a max picks it without a branch
    np.maximum(e, nonneg, out=e)
    np.divide(e, den, out=e)
    return float(e) if out is None and e.ndim == 0 else e


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
    if not new_lambda > 0:
        raise NonpositiveTemperature(f"new_lambda must be > 0, got {new_lambda}")
    factor = new_lambda / spec.lam
    syn = spec.synapses
    w = syn.weight * factor
    keep = w != 0.0  # a weight that underflows to zero is no synapse
    scaled = Synapses(syn.lag0[keep], syn.pre[keep], syn.post[keep], w[keep])
    return NetworkSpec(spec.neurons, scaled, spec.biases * factor, new_lambda, spec.history)
