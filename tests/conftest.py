"""Shared helpers: random network generation, slow reference scanners and a
plan's trials run in batches of a given size."""

from __future__ import annotations

import numpy as np
import pytest

from wtalab import NetworkSpec, RandomnessContract, validate_network
from wtalab.experiments import batch_convergence_times, initial_windows_batch
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
    kind = np.repeat(np.uint8([INPUT, OUTPUT, AUXILIARY]), [n_inputs, n_outputs, n_aux])
    polarity = np.full(kind.size, EXCITATORY, dtype=np.uint8)
    # one coin per auxiliary, drawn before the weights
    polarity[kind == AUXILIARY] = np.where(rng.random(n_aux) < 0.5, EXCITATORY, INHIBITORY)
    big_n = kind.size
    w = rng.uniform(0.0, scale, size=(h, big_n, big_n))
    w *= rng.random((h, big_n, big_n)) < density  # sparsify
    w[:, polarity == INHIBITORY, :] *= -1.0
    w[:, :, :n_inputs] = 0.0
    b = rng.uniform(-scale, scale, size=big_n)
    b[:n_inputs] = 0.0
    return validate_network(NetworkSpec.from_dense(kind, polarity, w, b, lam=lam, history=h))


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


def plan_in_batches(plan, spec: NetworkSpec, size: int) -> np.ndarray:
    """The convergence times of ``plan``'s trials, run through
    ``batch_convergence_times`` in batches of ``size`` consecutive ids."""
    inst = plan.instance
    rng = RandomnessContract(plan.seed)
    x = np.asarray(inst.input_bits, dtype=np.uint8)
    pieces = []
    for lo in range(0, plan.trials, size):
        ids = np.arange(lo, min(lo + size, plan.trials), dtype=np.int64)
        windows0 = initial_windows_batch(spec, plan.initial_policy, x, ids, rng)
        pieces.append(batch_convergence_times(spec, x, windows0, ids, inst.t_s,
                                              plan.resolved_horizon(), rng))
    return np.concatenate(pieces)


@pytest.fixture
def nprng():
    return np.random.default_rng(20240817)
