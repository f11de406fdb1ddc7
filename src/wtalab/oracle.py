"""Exact probabilistic analysis of small networks.

For a fixed input vector, the non-input window states of a network form a
finite Markov chain whose one-step kernel has closed product form: given the
window, each non-input neuron fires independently, so the probability of a
next configuration ``c`` is ``prod_u [c_u p_u + (1 - c_u)(1 - p_u)]``.

This module enumerates that chain, takes its firing probabilities from the
one batch kernel (``simulate.BatchRunner``) over every window state at once,
exposes the exact one-step distribution, and propagates a dense probability
vector over (window, stability-counter) states to compute the exact
distribution of the convergence event: a valid output configuration held
fixed for ``t_s`` further steps. It is the brute-force reference the Monte
Carlo harness is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .classify import ConvergenceScan, steady_state, valid_outputs
from .errors import NotValidConfiguration, StateSpaceTooLarge, check_int
from .network import NetworkSpec
from .randomness import RandomnessContract
from .simulate import BatchRunner, input_vector, window_frames

DEFAULT_STATE_CAP = 1 << 22


def _outcome_probs(p: np.ndarray) -> np.ndarray:
    """Product-form distribution over all firing patterns.

    ``p`` is ``(..., m)`` per-neuron firing probabilities; the result is
    ``(..., 2**m)`` with bit ``j`` of the outcome code addressing neuron ``j``.
    """
    out = np.ones(p.shape[:-1] + (1,))
    m = p.shape[-1]
    # ascending order keeps bit j of the outcome code aligned with neuron j
    for j in range(m):
        pj = p[..., j : j + 1]
        out = np.concatenate([out * (1.0 - pj), out * pj], axis=-1)
    return out


class WindowStateSpace:
    """Enumeration of all non-input window states for one fixed input.

    A window of ``h`` frames over ``m`` non-input neurons is indexed by
    ``sum_a code_a * 2**(m*a)`` where ``code_0`` is the most recent frame and
    bit ``j`` of a frame code is the ``j``-th non-input neuron.
    ``DEFAULT_STATE_CAP`` bounds the entries of the one-step kernel,
    ``2**(m*h)`` states by ``2**m`` next frames.
    """

    def __init__(self, spec: NetworkSpec, input_bits):
        self.spec = spec
        self.x = input_vector(spec, input_bits)
        self.non_input = spec.non_input_indices
        self.m = int(self.non_input.size)
        self.h = spec.history
        if 1 << (self.m * (self.h + 1)) > DEFAULT_STATE_CAP:
            raise StateSpaceTooLarge(
                f"2^({self.m}*{self.h}) window states x 2^{self.m} next frames "
                f"exceed the cap {DEFAULT_STATE_CAP}"
            )
        self.n_states = 1 << (self.m * self.h)

    @cached_property
    def frame_bits(self) -> np.ndarray:
        """(2^m, m) bits of every frame code."""
        codes = np.arange(1 << self.m, dtype=np.int64)
        return ((codes[:, None] >> np.arange(self.m)[None, :]) & 1).astype(np.uint8)

    @cached_property
    def full_frames(self) -> np.ndarray:
        """(2^m, N) uint8 full configurations with the fixed input bits filled in."""
        full = np.zeros((1 << self.m, self.spec.n_neurons), dtype=np.uint8)
        full[:, self.spec.input_indices] = self.x
        full[:, self.non_input] = self.frame_bits
        return full

    @cached_property
    def out_positions(self) -> np.ndarray:
        """Positions of the output neurons within the non-input order."""
        return np.searchsorted(self.non_input, self.spec.output_indices)

    @cached_property
    def out_key(self) -> np.ndarray:
        """(2^m,) integer key of each frame code's output projection."""
        bits = self.frame_bits[:, self.out_positions].astype(np.int64)
        return bits @ (1 << np.arange(self.out_positions.size, dtype=np.int64))

    @cached_property
    def valid_out(self) -> np.ndarray:
        """(2^m,) whether the frame code's output projection is valid."""
        return valid_outputs(self.x, self.frame_bits[:, self.out_positions])

    def window_index(self, window) -> int:
        frames = window_frames(self.spec, window)
        # latest frame first, so code_a (the frame `a` lags back) lands in
        # bits m*a and up
        bits = frames[::-1, self.non_input].ravel().astype(np.int64)
        return int(bits @ (1 << np.arange(self.m * self.h, dtype=np.int64)))

    def state_frame_codes(self) -> np.ndarray:
        """(S, h) frame codes per state, column ``a`` = ``a`` lags back."""
        s = np.arange(self.n_states, dtype=np.int64)
        mask = (1 << self.m) - 1
        return np.stack(
            [(s >> (self.m * a)) & mask for a in range(self.h)], axis=1
        )

    @cached_property
    def step_probabilities(self) -> np.ndarray:
        """(S, m) per-neuron firing probabilities out of each window state:
        ``BatchRunner.probabilities`` over the windows of every state. They
        go in row blocks whose float64 copy is no larger than the kernel (one
        block for every builder family)."""
        runner = BatchRunner(self.spec, RandomnessContract(0))
        codes = self.state_frame_codes()[:, ::-1]  # oldest frame first
        p = np.empty((self.n_states, self.m))
        rows = max(1, (self.n_states << self.m) // (self.h * self.spec.n_neurons))
        for lo in range(0, self.n_states, rows):
            runner.probabilities(self.full_frames[codes[lo : lo + rows]], out=p[lo : lo + rows])
        return p

    @cached_property
    def kernel(self) -> np.ndarray:
        """(S, 2^m) probability of each next frame code from each state."""
        return _outcome_probs(self.step_probabilities)

    def next_state_indices(self) -> np.ndarray:
        """(S,) partial next-state index before adding the new frame code.

        The full transition is ``next = d + shifted[s]`` for new frame ``d``.
        """
        s = np.arange(self.n_states, dtype=np.int64)
        if self.h == 1:
            return np.zeros_like(s)
        keep = s & ((1 << (self.m * (self.h - 1))) - 1)
        return keep << self.m


@dataclass(frozen=True)
class StepDistribution:
    """Exact one-step distribution over full next configurations."""

    configs: np.ndarray  # (2^m, N) uint8
    probs: np.ndarray  # (2^m,)

    def items(self):
        for c, p in zip(self.configs, self.probs):
            yield c, float(p)


def exact_step_distribution(spec: NetworkSpec, window, input_bits) -> StepDistribution:
    """Full product-form distribution of the next configuration.

    Probabilities sum to one up to rounding; bit ``j`` of the outcome indexes
    the ``j``-th non-input neuron and input bits are pinned to ``input_bits``.
    """
    space = WindowStateSpace(spec, input_bits)
    s = space.window_index(window)
    return StepDistribution(configs=space.full_frames, probs=space.kernel[s])


def _initial_counter(space: WindowStateSpace, window, t_s: int) -> tuple[int, int]:
    """Stability counter implied by the initial window's own frames: how many
    trailing frames repeat a valid output.

    Returns ``(counter, absorbed_at)`` with ``absorbed_at = h - 1`` when the
    window alone already certifies the hold (only possible for t_s < h).
    """
    outs = window_frames(space.spec, window)[:, space.spec.output_indices]
    scan = ConvergenceScan(space.x, t_s)
    for t in range(outs.shape[0]):
        if scan.update(t, outs[t : t + 1])[0]:
            return t_s + 1, space.h - 1
    run = outs.shape[0] - int(scan.start[0])
    return (run if valid_outputs(space.x, outs[-1]) else 0), -1


def convergence_cdf(
    spec: NetworkSpec, input_bits, initial_window, t_s: int, t_max: int
) -> np.ndarray:
    """Exact ``P(hold completed by frame t)`` for ``t = 0..t_max``.

    Entry ``t`` is the probability that some frame ``t' <= t - t_s`` began a
    valid output configuration that then stayed fixed through ``t' + t_s``.
    The sequence is nondecreasing and zero for all ``t < t_s``. The truncated
    expectation of the convergence time itself is recoverable as
    ``sum_t' t' * (cdf[t' + t_s] - cdf[t' + t_s - 1])`` plus residual mass.
    """
    check_int("t_s", t_s, 1)
    check_int("t_max", t_max, 0)
    space = WindowStateSpace(spec, input_bits)
    S = space.n_states
    latest = np.arange(S, dtype=np.int64) & ((1 << space.m) - 1)
    same = space.out_key[latest][:, None] == space.out_key[None, :]
    # Where each (window, next frame) pair lands, as row * S + next window:
    # row 0 resets the counter (the new output is invalid), row 1 restarts
    # it and row 2 extends it (valid and equal to the latest output). One
    # index serves every counter: at counter 0 the latest output is invalid,
    # so no pair extends (and counter 1 is where a restart lands anyway).
    into = space.next_state_indices()[:, None] + np.arange(1 << space.m, dtype=np.int64)
    into += S * space.valid_out
    np.add(into, S, out=into, where=same & space.valid_out)
    into = into.ravel()

    layers = t_s + 1  # counters 0..t_s; reaching t_s + 1 absorbs
    mass = np.zeros((layers, S))
    c0, absorbed_at = _initial_counter(space, initial_window, t_s)
    s0 = space.window_index(initial_window)
    absorbed = 0.0
    cdf = np.zeros(t_max + 1)
    if absorbed_at >= 0:
        if absorbed_at <= t_max:
            cdf[absorbed_at:] = 1.0
        return cdf
    mass[c0, s0] = 1.0

    flow = np.empty(space.kernel.shape)  # one buffer for every layer's flow
    for frame in range(space.h, t_max + 1):
        new_mass = np.zeros_like(mass)
        for c in range(layers):
            layer = mass[c]
            if not layer.any():
                continue
            np.multiply(layer[:, None], space.kernel, out=flow)
            reset, restart, extend = np.bincount(into, flow.ravel(), 3 * S).reshape(3, S)
            new_mass[0] += reset
            new_mass[1] += restart
            if c == t_s:
                absorbed += float(extend.sum())
            else:
                new_mass[c + 1] += extend
        mass = new_mass
        cdf[frame] = absorbed
    return cdf


def truncated_expectation(cdf: np.ndarray, t_s: int) -> tuple[float, float]:
    """Expected convergence time restricted to the mass seen by the horizon.

    Returns ``(expectation_of_converged_mass, residual_mass)``; the residual
    is the probability the hold did not complete by the last entry, and the
    true expectation exceeds the first component by at least
    ``residual * (len(cdf) - t_s)``.
    """
    inc = np.diff(np.concatenate([[0.0], cdf]))
    times = np.arange(cdf.size) - t_s
    exp = float((inc * np.maximum(times, 0)).sum())
    return exp, float(1.0 - cdf[-1])


def hold_probability(spec: NetworkSpec, input_bits, window, t_s: int) -> float:
    """Exact probability the full configuration repeats ``t_s`` times.

    The window's latest frame must be a steady state (``steady_state`` over
    the spec's outputs and auxiliaries, which covers every family) with the
    input bits ``input_bits``. The chain is time homogeneous under a fixed
    input, so the answer is the self-transition probability along the
    fixed-point path: one product-form factor out of the given window, then
    one per further step out of the steady window (the latest frame
    repeated), each over ``BatchRunner.probabilities`` and multiplied in the
    kernel's order. No state space is built. ``t_s = 0`` gives 1.
    """
    x = input_vector(spec, input_bits)
    check_int("t_s", t_s, 0)
    frames = window_frames(spec, window)
    latest = frames[-1]
    if not (
        steady_state(x, latest[spec.output_indices], latest[spec.auxiliary_indices])
        and np.array_equal(latest[spec.input_indices], x)
    ):
        raise NotValidConfiguration("window's latest frame is not a steady state under X")
    if t_s == 0:
        return 1.0
    steady = np.repeat(latest[None, :], spec.history, axis=0)
    p = BatchRunner(spec, RandomnessContract(0)).probabilities(np.stack([frames, steady]))
    fires = latest[spec.non_input_indices] == 1
    q_first, q_steady = (math.prod(np.where(fires, row, 1.0 - row).tolist()) for row in p)
    return q_first * q_steady ** (t_s - 1)
