"""Exact probabilistic analysis of small networks.

For a fixed input vector, the non-input window states of a network form a
finite Markov chain whose one-step kernel has closed product form: given the
window, each non-input neuron fires independently, so the probability of a
next configuration ``c`` is ``prod_u [c_u p_u + (1 - c_u)(1 - p_u)]``.

``convergence_cdf`` computes the exact distribution of the convergence
event, a valid output configuration held fixed for ``t_s`` further steps, as
the absorption time of the (state, hold counter) chain (Kemeny & Snell,
absorbing chains). It is the reference the Monte Carlo harness is checked
against. Two chains supply the states, and one walk (``_CounterWalk.cdf``)
propagates the mass over both:

* ``LumpedChain``, for every history-1 spec invariant under each permutation
  of its outputs within their input class, at every lag (checked on the
  synapse arrays, never on a family tag): the chain lumped onto (firing
  driven outputs, firing undriven outputs, auxiliary bits). The two- and
  single-inhibitor families lump at any n under the chain's own entry
  bound, so n=1024 answers in seconds.
* ``WindowStateSpace`` for every other spec (the history-2 log-inhibitor
  family, or a spec that fails the check): all ``2^(m*h)`` windows over the
  ``m`` non-input neurons, with a dense ``2^(m*h) x 2^m`` one-step kernel.
  It is also the independent reference the lumped chain is tested against.

Each chain gives the walk its states, a window per state, the columns of
its firing probabilities it keeps, a ``push`` of mass one step forward and a
``hold`` of the mass whose outputs repeat. One pass in the shared base
(``_CounterWalk.step_probabilities``) reads the batch kernel
(``simulate.BatchRunner.probabilities``) once over those windows, and the
valid states come from the same windows' latest outputs.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .classify import ConvergenceScan, steady_state, valid_outputs
from .errors import (
    NotValidConfiguration, StateSpaceTooLarge, TopologyMismatch, check_count, check_int,
)
from .network import INPUT, NetworkSpec
from .randomness import RandomnessContract
from .simulate import BatchRunner, input_vector, window_frames

DEFAULT_STATE_CAP = 1 << 22
LUMPED_CAP = 1 << 25


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


class _CounterWalk:
    """The probability pass and the forward walk over (state, hold counter)
    pairs that both chains share. A chain supplies ``spec``, ``x``,
    ``n_states``, ``state_index``, ``windows`` (a (B, h, N) uint8 window per
    state), ``columns`` (the non-input positions whose probabilities it
    keeps), ``push`` and ``hold``."""

    @cached_property
    def _pass(self) -> tuple[np.ndarray, np.ndarray]:
        """``(probabilities, latest outputs)`` of every state's window, from
        ``BatchRunner.probabilities`` in row blocks of about 2^20 neuron slots."""
        spec = self.spec
        runner = BatchRunner(spec, RandomnessContract(0))
        rows = max(1, (1 << 20) // (spec.history * spec.n_neurons))
        probs, outs = [], []
        for lo in range(0, self.n_states, rows):
            frames = self.windows(np.arange(lo, min(lo + rows, self.n_states)))
            probs.append(runner.probabilities(frames)[:, self.columns])
            outs.append(frames[:, -1, spec.output_indices])
        return np.vstack(probs), np.vstack(outs)

    @property
    def step_probabilities(self) -> np.ndarray:
        """(S, K) firing probability of each ``columns`` neuron out of each state."""
        return self._pass[0]

    @cached_property
    def valid_states(self) -> np.ndarray:
        """The sorted states whose latest outputs are valid."""
        return np.flatnonzero(valid_outputs(self.x, self._pass[1]))

    def cdf(self, window, t_s: int, t_max: int) -> np.ndarray:
        """``convergence_cdf`` on this chain. Counter 0 holds mass on every
        state; counters ``1..t_s`` only on the valid states, so only those
        rows propagate for them."""
        c0, absorbed_at = _initial_counter(self.spec, self.x, window, t_s)
        cdf = np.zeros(t_max + 1)
        if absorbed_at >= 0:  # only a window of h >= 2 frames certifies the hold
            cdf[absorbed_at:] = 1.0
            return cdf
        # the counter gains at most one per frame from c0 at frame h - 1 and
        # completes the hold one frame after reaching t_s, so no frame before
        # h + t_s - c0 can; past t_max the CDF stays zero, and no counter
        # row is built for it
        if self.spec.history + t_s - c0 > t_max:
            return cdf
        s0 = self.state_index(window)
        valid = self.valid_states
        rest = np.zeros(self.n_states)
        held = np.zeros((t_s, valid.size))
        if c0:
            held[c0 - 1, np.searchsorted(valid, s0)] = 1.0
        else:
            rest[s0] = 1.0
        absorbed = 0.0
        for frame in range(self.spec.history, t_max + 1):
            nxt = self.push(rest, slice(None)) + self.push(held.sum(axis=0), valid)
            # extend[c] leaves counter c + 1 for c + 2; what else lands on a
            # valid state restarts at counter 1, the rest resets to 0
            extend = self.hold(held)
            restart = np.maximum(nxt[valid] - extend.sum(axis=0), 0.0)
            nxt[valid] = 0.0
            rest = nxt
            absorbed += float(extend[-1].sum())
            held = np.vstack([restart[None], extend[:-1]])
            cdf[frame] = absorbed
        return cdf


class WindowStateSpace(_CounterWalk):
    """Enumeration of all non-input window states for one fixed input.

    A window of ``h`` frames over ``m`` non-input neurons is indexed by
    ``sum_a code_a * 2**(m*a)`` where ``code_0`` is the most recent frame and
    bit ``j`` of a frame code is the ``j``-th non-input neuron.
    ``DEFAULT_STATE_CAP`` bounds the entries of the one-step kernel,
    ``2**(m*h)`` states by ``2**m`` next frames.
    """

    columns = slice(None)  # every non-input neuron's probability

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

    def state_index(self, window) -> int:
        frames = window_frames(self.spec, window)
        # latest frame first, so code_a (the frame `a` lags back) lands in
        # bits m*a and up
        bits = frames[::-1, self.non_input].ravel().astype(np.int64)
        return int(bits @ (1 << np.arange(self.m * self.h, dtype=np.int64)))

    def windows(self, states: np.ndarray) -> np.ndarray:
        """(B, h, N) uint8 window of each state, oldest frame first."""
        lags = self.m * np.arange(self.h - 1, -1, -1)
        return self.full_frames[(states[:, None] >> lags) & ((1 << self.m) - 1)]

    @cached_property
    def kernel(self) -> np.ndarray:
        """(S, 2^m) probability of each next frame code from each state."""
        return _outcome_probs(self.step_probabilities)

    @cached_property
    def next_states(self) -> np.ndarray:
        """(S, 2^m) next state of each (state, next frame code) pair: the new
        code in the low bits, the state's latest ``h - 1`` codes above it."""
        s = np.arange(self.n_states, dtype=np.int64)
        keep = (s & ((1 << (self.m * (self.h - 1))) - 1)) << self.m
        return keep[:, None] + np.arange(1 << self.m, dtype=np.int64)

    @cached_property
    def _hold_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(valid row, landing valid position, probability) of every pair of
        a valid state and a next frame with the same outputs, valid too."""
        valid = self.valid_states
        latest = self.out_key[valid & ((1 << self.m) - 1)]
        row, code = np.nonzero(latest[:, None] == self.out_key[None, :])
        land = np.searchsorted(valid, self.next_states[valid[row], code])
        return row, land, self.kernel[valid[row], code]

    def push(self, mass: np.ndarray, states) -> np.ndarray:
        """(S,) next-state distribution of ``mass`` on ``states``."""
        flow = mass[:, None] * self.kernel[states]
        return np.bincount(self.next_states[states].ravel(), flow.ravel(), self.n_states)

    def hold(self, held: np.ndarray) -> np.ndarray:
        """(t_s, V) mass of each counter row of ``held`` that repeats its
        valid outputs, at the valid state it lands on."""
        row, land, prob = self._hold_pairs
        layers, v = held.shape
        at = (np.arange(layers)[:, None] * v + land).ravel()
        return np.bincount(at, (held[:, row] * prob).ravel(), layers * v).reshape(layers, v)


def _initial_counter(spec: NetworkSpec, x: np.ndarray, window, t_s: int) -> tuple[int, int]:
    """Stability counter implied by the initial window's own frames: how many
    trailing frames repeat a valid output.

    Returns ``(counter, absorbed_at)`` with ``absorbed_at = h - 1`` when the
    window alone already certifies the hold (only possible for t_s < h).
    """
    outs = window_frames(spec, window)[:, spec.output_indices]
    scan = ConvergenceScan(x, t_s)
    for t in range(outs.shape[0]):
        if scan.update(t, outs[t : t + 1])[0]:
            return t_s + 1, spec.history - 1
    run = outs.shape[0] - int(scan.start[0])
    return (run if valid_outputs(x, outs[-1]) else 0), -1


def binomial_pmf(n: int, p: float) -> np.ndarray:
    """``P(k)`` of a Binomial(``n``, ``p``) count, ``k = 0..n``, with ``1 - p``
    as the failure probability.

    Built outward from a mode by the ratio recurrence
    ``P(k) / P(k-1) = (n-k+1) p / (k (1-p))``, whose factors are at most 1
    away from the mode, then normalized. So no term overflows or becomes
    ``inf * 0`` at any n (``comb(n, k) p^k (1-p)^(n-k)`` does past n of
    about 1030), and tails below the float range round to zero.
    """
    q = 1.0 - p
    pmf = np.zeros(n + 1)
    # floor((n + 1) p) is a mode; a degenerate p puts all mass at one end
    mode = n if q == 0.0 else min(n, int((n + 1) * p))
    pmf[mode] = 1.0
    k = np.arange(1, n + 1, dtype=np.float64)
    if mode < n:  # here q > 1/(n+1), so p / q is finite
        pmf[mode + 1 :] = np.cumprod((n - k[mode:] + 1) / k[mode:] * (p / q))
    if mode > 0:  # here p >= 1/(n+1), so q / p is finite
        pmf[:mode] = np.cumprod((k[:mode] / (n - k[:mode] + 1) * (q / p))[::-1])[::-1]
    return pmf / pmf.sum()


def _exchangeable(spec: NetworkSpec, x: np.ndarray) -> bool:
    """Whether the spec maps onto itself under every permutation of its
    outputs within their input class (output ``j`` is in class ``x[j]``), at
    every lag, once the inputs, fixed at X, are folded into effective biases.
    A swap and a cycle (the cycles of a class's first two members and of all
    of them) generate those permutations, so only they are applied, to each
    class of two or more outputs: the sorted image keys of the non-input
    synapses, their weights in that order and the permuted effective biases
    must equal the originals."""
    n, syn = spec.n_neurons, spec.synapses
    x_of = np.zeros(n)
    x_of[spec.input_indices] = x
    bias = spec.biases - np.bincount(syn.post, syn.weight * x_of[syn.pre], n)
    lag0, pre, post, weight = (a[spec.kind[syn.pre] != INPUT] for a in syn)
    key = (lag0 * n + pre) * n + post  # ascending: the synapses are in scan order
    for members in (spec.output_indices[x == c] for c in (0, 1)):
        for cut in {2, members.size} if members.size > 1 else ():
            perm = np.arange(n)
            perm[members[:cut]] = np.roll(members[:cut], 1)
            moved = (lag0 * n + perm[pre]) * n + perm[post]
            order = np.argsort(moved)
            if not (np.array_equal(moved[order], key) and np.array_equal(weight[order], weight)
                    and np.array_equal(bias[perm], bias)):
                return False
    return True


class LumpedChain(_CounterWalk):
    """The window chain of a history-1 spec, lumped onto output counts.

    Under the fixed input X, output ``j`` is driven when ``x[j] = 1``: ``D``
    outputs are driven, ``U`` undriven, and ``A`` neurons are auxiliaries.
    When the spec is invariant under each permutation of the outputs within
    those two classes, at every lag (``_exchangeable``), the next (firing
    driven count ``d``, firing undriven count ``u``, auxiliary bits ``a``)
    depends on a window only through its own ``(d, u, a)`` (Kemeny & Snell,
    strong lumpability). State
    ``((d * (U+1) + u) << A) + a`` is one of ``L = (D+1)(U+1) 2^A``.

    The firing probabilities come from the shared pass over one window per
    state (``windows``: its first ``d`` driven and first ``u`` undriven
    outputs fire), read at each class's first and last member and then at
    the auxiliaries (``columns``). Per class, a firing output fires again
    with one probability and a silent one fires with another, so the next
    count is the convolution of two binomials; the auxiliaries fire
    independently. The kernel is kept in that factored form, a count part per
    class (``count_parts``, ``L x (D+1)`` and ``L x (U+1)``) and an auxiliary
    part (``aux_part``, ``L x 2^A``), and is never formed as ``L x L``.

    Entry bound: the factored kernel spans ``L^2`` transitions, each frame's
    propagation costs about as many multiply-adds, and ``L^2`` may not exceed
    ``LUMPED_CAP`` (2^25). A larger chain raises ``StateSpaceTooLarge`` from
    the class sizes alone, before anything is allocated. Any spec that is not
    history 1, has a different number of inputs and outputs, or is not
    invariant under those permutations raises ``TopologyMismatch``.
    """

    def __init__(self, spec: NetworkSpec, input_bits):
        self.spec = spec
        self.x = input_vector(spec, input_bits)
        outs = spec.output_indices
        if spec.history != 1 or self.x.size != outs.size:
            raise TopologyMismatch("only a history-1 spec with one input per output lumps")
        driven = int(np.count_nonzero(self.x))
        self.sizes = (driven, outs.size - driven)
        self.n_aux = int(spec.auxiliary_indices.size)
        self.n_states = (driven + 1) * (outs.size - driven + 1) << self.n_aux
        if self.n_states**2 > LUMPED_CAP:
            raise StateSpaceTooLarge(
                f"{self.n_states} lumped states, {self.n_states}^2 transitions "
                f"exceed the cap {LUMPED_CAP}"
            )
        if not _exchangeable(spec, self.x):
            raise TopologyMismatch("outputs are not exchangeable within their input class")
        # output neurons of each class, driven first
        self.members = (outs[self.x == 1], outs[self.x == 0])
        # an empty class reads position 0: its binomials and hold factor ignore it
        ni = spec.non_input_indices
        ends = [c[[0, -1]] if c.size else ni[[0, 0]] for c in self.members]
        self.columns = np.searchsorted(ni, np.hstack([*ends, spec.auxiliary_indices]))

    def decode(self, states: np.ndarray):
        """``(d, u, a)`` arrays of the given state indices."""
        counts = states >> self.n_aux
        d, u = np.divmod(counts, self.sizes[1] + 1)
        return d, u, states & ((1 << self.n_aux) - 1)

    def state_index(self, window) -> int:
        """The lumped state of a window: its latest frame's counts and bits."""
        frame = window_frames(self.spec, window)[-1]
        d, u = (int(frame[m].sum()) for m in self.members)
        a = frame[self.spec.auxiliary_indices].astype(np.int64) @ (1 << np.arange(self.n_aux))
        return ((d * (self.sizes[1] + 1) + u) << self.n_aux) + int(a)

    def windows(self, states: np.ndarray) -> np.ndarray:
        """(B, 1, N) uint8 window of each state."""
        d, u, a = self.decode(states)
        frames = np.zeros((states.size, self.spec.n_neurons), dtype=np.uint8)
        frames[:, self.spec.input_indices] = self.x
        for members, k in zip(self.members, (d, u)):
            frames[:, members] = np.arange(members.size) < k[:, None]
        frames[:, self.spec.auxiliary_indices] = (a[:, None] >> np.arange(self.n_aux)) & 1
        return frames[:, None, :]

    @cached_property
    def count_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """Per class, the (L, C+1) distribution of the class's next firing
        count out of each state: ``Binomial(k, p_fire) * Binomial(C - k,
        p_silent)`` for ``k`` firing of ``C``."""
        probs = self.step_probabilities
        parts = []
        for c, (size, k) in enumerate(zip(self.sizes, self.decode(np.arange(self.n_states)))):
            part = np.empty((self.n_states, size + 1))
            rows = zip(k.tolist(), *probs[:, 2 * c : 2 * c + 2].T.tolist())
            for s, (kk, fire, silent) in enumerate(rows):
                part[s] = np.convolve(binomial_pmf(kk, fire), binomial_pmf(size - kk, silent))
            parts.append(part)
        return parts[0], parts[1]

    @cached_property
    def aux_part(self) -> np.ndarray:
        """(L, 2^A) distribution of the next auxiliary bits out of each state."""
        return _outcome_probs(self.step_probabilities[:, 4:])

    @cached_property
    def hold_flow(self) -> np.ndarray:
        """(V, 2^A) probability, out of each valid state, that every output
        repeats its bit (the same winner fires again and every other output
        stays silent), times the next auxiliary bits."""
        probs = self.step_probabilities[self.valid_states]
        d, u, _ = self.decode(self.valid_states)
        keep = np.ones(d.size)
        for c, (k, size) in enumerate(zip((d, u), self.sizes)):
            fire, silent = probs[:, 2 * c], probs[:, 2 * c + 1]
            keep *= fire**k * (1.0 - silent) ** (size - k)
        return keep[:, None] * self.aux_part[self.valid_states]

    def push(self, mass: np.ndarray, states) -> np.ndarray:
        """(L,) next-state distribution of ``mass`` on ``states``: the sum of
        ``mass[s]`` times the outer product of its count and auxiliary parts.
        The larger class's count part enters one matrix product, (D+1, S) @
        (S, (U+1) 2^A) or the other way round, and the smaller one the
        elementwise product, which so stays small."""
        driven, undriven = (part[states] for part in self.count_parts)
        swap = driven.shape[1] < undriven.shape[1]
        big, small = (undriven, driven) if swap else (driven, undriven)
        w = mass[:, None, None] * small[:, :, None] * self.aux_part[states][:, None, :]
        out = (big.T @ w.reshape(mass.size, -1)).reshape(big.shape[1], small.shape[1], -1)
        return (out.swapaxes(0, 1) if swap else out).ravel()

    def hold(self, held: np.ndarray) -> np.ndarray:
        """(t_s, V) mass of each counter row of ``held`` that repeats its
        outputs, at the valid state it lands on."""
        return held @ self.hold_flow


def convergence_cdf(
    spec: NetworkSpec, input_bits, initial_window, t_s: int, t_max: int
) -> np.ndarray:
    """Exact ``P(hold completed by frame t)`` for ``t = 0..t_max``.

    Entry ``t`` is the probability that some frame ``t' <= t - t_s`` began a
    valid output configuration that then stayed fixed through ``t' + t_s``.
    The sequence is nondecreasing and zero for all ``t < t_s``. The truncated
    expectation of the convergence time itself is recoverable as
    ``sum_t' t' * (cdf[t' + t_s] - cdf[t' + t_s - 1])`` plus residual mass.

    It runs on the ``LumpedChain`` wherever the spec lumps, and on the
    ``WindowStateSpace`` chain otherwise; either raises
    ``StateSpaceTooLarge`` past its own bound.
    """
    check_int("t_s", t_s, 1)
    check_count("t_max", t_max, 0, 16)  # 16 bytes per t_max hold the CDF's t_max + 1 floats
    x = input_vector(spec, input_bits)
    try:
        chain = LumpedChain(spec, x)
    except TopologyMismatch:
        chain = WindowStateSpace(spec, x)
    return chain.cdf(initial_window, t_s, t_max)


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
