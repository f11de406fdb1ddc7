"""Shared helpers: random network generation and slow reference scanners."""

from __future__ import annotations

import numpy as np
import pytest

from wtalab import NetworkSpec, Neuron, validate_network
from wtalab.network import AUXILIARY, EXCITATORY, INHIBITORY, INPUT, OUTPUT


def random_network(
    rng: np.random.Generator,
    n_inputs: int = 2,
    n_outputs: int = 2,
    n_aux: int = 2,
    history: int | None = None,
    lam: float = 1.0,
    scale: float = 3.0,
    density: float = 0.6,
) -> NetworkSpec:
    """Random structurally valid network: signed weights by polarity,
    no synapse into inputs, random lags; each synapse exists with
    probability ``density``."""
    h = history if history is not None else int(rng.integers(1, 3))
    neurons = (
        [Neuron(i, INPUT, EXCITATORY) for i in range(n_inputs)]
        + [Neuron(n_inputs + i, OUTPUT, EXCITATORY) for i in range(n_outputs)]
        + [
            Neuron(
                n_inputs + n_outputs + i,
                AUXILIARY,
                EXCITATORY if rng.random() < 0.5 else INHIBITORY,
            )
            for i in range(n_aux)
        ]
    )
    big_n = len(neurons)
    w = rng.uniform(0.0, scale, size=(h, big_n, big_n))
    w *= rng.random((h, big_n, big_n)) < density  # sparsify
    for u in neurons:
        if u.polarity == INHIBITORY:
            w[:, u.index, :] *= -1.0
    w[:, :, :n_inputs] = 0.0
    b = rng.uniform(-scale, scale, size=big_n)
    b[:n_inputs] = 0.0
    return validate_network(
        NetworkSpec(tuple(neurons), w, b, lam=lam, history=h)
    )


def brute_convergence_time(outputs: np.ndarray, x: np.ndarray, t_s: int):
    """Independent re-implementation of the convergence-time definition:
    literal scan of every candidate start frame."""
    total = outputs.shape[0]
    want = min(1, int(x.sum()))
    for t in range(total):
        if t + t_s >= total:
            break
        y = outputs[t]
        if int(y.sum()) != want or np.any(y > x):
            continue
        if all(np.array_equal(outputs[t + j], y) for j in range(1, t_s + 1)):
            return t
    return None


@pytest.fixture
def nprng():
    return np.random.default_rng(20240817)
