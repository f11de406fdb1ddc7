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

``NetworkSpec.synapses`` is the one sparse view of the weights: validation,
``edges`` and the batch stepper all read it.
"""

from __future__ import annotations

import json
import math
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


def _readonly(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


class Synapses(NamedTuple):
    """Every nonzero weight as parallel read-only arrays, in ``weights`` scan
    order (lag, then pre, then post): ``weights[lag0, pre, post] == weight``."""

    lag0: np.ndarray
    pre: np.ndarray
    post: np.ndarray
    weight: np.ndarray


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    """Immutable network description.

    ``weights`` has shape ``(history, N, N)`` with ``weights[l-1, pre, post]``
    the strength of the lag-``l`` synapse from ``pre`` to ``post``. ``biases``
    has shape ``(N,)``. ``lam`` is the sigmoid temperature.
    """

    neurons: tuple[Neuron, ...]
    weights: np.ndarray
    biases: np.ndarray
    lam: float = 1.0
    history: int = 1

    def __post_init__(self) -> None:
        n = len(self.neurons)
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim == 2:
            w = w[None, :, :]
        if w.shape != (self.history, n, n):
            raise InvalidNetwork(
                f"weights shape {w.shape} != ({self.history}, {n}, {n})"
            )
        b = np.asarray(self.biases, dtype=np.float64)
        if b.shape != (n,):
            raise InvalidNetwork(f"biases shape {b.shape} != ({n},)")
        if self.history < 1:
            raise InvalidNetwork("history must be >= 1")
        if not math.isfinite(self.lam):
            raise InvalidNetwork(f"lam must be finite, got {self.lam}")
        if not self.lam > 0:
            raise NonpositiveTemperature(f"lam must be > 0, got {self.lam}")
        bad = np.flatnonzero(~np.isfinite(b))
        if bad.size:
            raise InvalidNetwork(f"non-finite bias {b[bad[0]]} at neuron {bad[0]}")
        object.__setattr__(self, "weights", _readonly(w))
        object.__setattr__(self, "biases", _readonly(b))
        object.__setattr__(self, "neurons", tuple(self.neurons))
        # NaN and inf compare unequal to 0.0, so the synapse scan sees them all
        syn = self.synapses
        bad = np.flatnonzero(~np.isfinite(syn.weight))
        if bad.size:
            k = bad[0]
            raise InvalidNetwork(
                f"non-finite weight {syn.weight[k]} at lag {syn.lag0[k] + 1} "
                f"from neuron {syn.pre[k]} to neuron {syn.post[k]}"
            )

    @cached_property
    def synapses(self) -> Synapses:
        """The nonzero synapses, found by one scan of ``weights``."""
        flat = np.flatnonzero(self.weights.ravel() != 0.0)
        lag0, pre, post = np.unravel_index(flat, self.weights.shape)
        return Synapses(
            _readonly(lag0, np.intp),
            _readonly(pre, np.intp),
            _readonly(post, np.intp),
            _readonly(self.weights.ravel()[flat]),
        )

    # -- layout ---------------------------------------------------------

    @property
    def n_neurons(self) -> int:
        return len(self.neurons)

    def _indices_of(self, kind: str) -> np.ndarray:
        return np.asarray([u.index for u in self.neurons if u.kind == kind], dtype=np.intp)

    @property
    def input_indices(self) -> np.ndarray:
        return self._indices_of(INPUT)

    @property
    def output_indices(self) -> np.ndarray:
        return self._indices_of(OUTPUT)

    @property
    def auxiliary_indices(self) -> np.ndarray:
        return self._indices_of(AUXILIARY)

    @property
    def non_input_indices(self) -> np.ndarray:
        return np.asarray(
            [u.index for u in self.neurons if u.kind != INPUT], dtype=np.intp
        )

    def is_input(self, index: int) -> bool:
        return self.neurons[index].kind == INPUT

    def weight(self, pre: int, post: int, lag: int = 1) -> float:
        if not 1 <= lag <= self.history:
            raise LagOutOfRange(f"lag {lag} outside 1..{self.history}")
        return float(self.weights[lag - 1, pre, post])

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
            and np.array_equal(self.weights, other.weights)
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
        """Build a spec from sparse ``(pre, post, lag) -> weight`` entries."""
        neurons = tuple(neurons)
        n = len(neurons)
        w = np.zeros((history, n, n))
        if isinstance(edges, Mapping):
            items = [(p, q, lag, v) for (p, q, lag), v in edges.items()]
        else:
            items = list(edges)
        for pre, post, lag, value in items:
            if not 1 <= lag <= history:
                raise LagOutOfRange(f"lag {lag} outside 1..{history}")
            w[lag - 1, pre, post] = value
        b = np.zeros(n)
        for idx, value in biases.items():
            b[idx] = value
        return cls(neurons=neurons, weights=w, biases=b, lam=lam, history=history)

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
    into_input = np.flatnonzero(is_input[syn.post])
    if into_input.size:
        k = into_input[0]
        raise InputTargeted(
            f"synapse from neuron {syn.pre[k]} targets input neuron {syn.post[k]}"
        )
    excitatory = np.asarray([u.polarity == EXCITATORY for u in spec.neurons], dtype=bool)
    wrong_sign = np.where(excitatory[syn.pre], syn.weight < 0.0, syn.weight > 0.0)
    if wrong_sign.any():
        u = int(syn.pre[wrong_sign].min())
        if excitatory[u]:
            raise DalesPrincipleViolation(
                f"excitatory neuron {u} has a negative outgoing weight"
            )
        raise DalesPrincipleViolation(
            f"inhibitory neuron {u} has a positive outgoing weight"
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
    pot = -spec.biases[u]
    for lag in range(1, h + 1):
        pot += float(frames[h - lag] @ spec.weights[lag - 1, :, u])
    return float(pot)


def sigmoid(z) -> np.ndarray | float:
    """Numerically stable logistic function.

    Only ever exponentiates a nonpositive argument, so it saturates cleanly
    to 0.0 / 1.0 instead of overflowing for ``|z|`` beyond ~745.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    # numerator 1 where z >= 0, else e: e <= 1, so a max picks it without a branch
    out = np.maximum(e, z >= 0.0) / (1.0 + e)
    return float(out) if out.ndim == 0 else out


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
    return NetworkSpec(
        neurons=spec.neurons,
        weights=spec.weights * factor,
        biases=spec.biases * factor,
        lam=new_lambda,
        history=spec.history,
    )
