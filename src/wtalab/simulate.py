"""Synchronous stochastic stepping of spiking networks.

The single Markov state of a network with history ``h`` is the window of its
last ``h`` configurations. ``step`` advances one window by one configuration;
``run`` unrolls a whole execution from an initial window, drawing uniforms
from a ``RandomnessContract`` keyed by ``(trial, time, neuron)``.

``BatchRunner`` advances many trials at once on uint8 frames, with a sparse
potential kernel built from the spec's synapse view. It is the one code path
from a window to potentials: ``potential``, ``step`` and ``run`` are
batch-of-one views of it, and the exact oracle's kernel reads it too.
``window_frames`` is the one check of a window's shape.

A step works through the batch in row tiles of about ``_TILE_ELEMS``
neuron slots. For each tile the runner computes the potentials, divides by
the temperature and applies the sigmoid in one float64 buffer, draws into a
second and compares into a bool buffer, then copies the fired bits into the
new frame. The three buffers are the runner's workspace: allocated by its
first step (never by ``__init__``), grown when a larger tile arrives, reused
by every later step. The layers take them through ``out=`` keywords
(``potentials``, ``probabilities``, ``network.sigmoid``,
``RandomnessContract.uniform_block``); without ``out`` each returns a new
array with the same bits. A row's potentials can differ in the last bit
with the number of rows in its tile (BLAS picks its kernel for the dense
blocks by shape), so a fired bit changes only where a draw falls within that
rounding of its probability; the tests find every step bit-identical under
any tiling on all three builders.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import HorizonTooShort, InputNeuronPotential, InvalidNetwork, MissingDraw
from .network import NetworkSpec, sigmoid
from .randomness import RandomnessContract

ALL_ZERO = "all_zero"
ALL_FIRE = "all_fire"
UNIFORM_RANDOM = "uniform_random"
EXPLICIT = "explicit"

INITIAL_POLICIES = (ALL_ZERO, ALL_FIRE, UNIFORM_RANDOM, EXPLICIT)


def _as_bits(x, length: int | None = None) -> np.ndarray:
    a = np.asarray(x, dtype=np.uint8)
    if length is not None and a.shape != (length,):
        raise InvalidNetwork(f"bit vector shape {a.shape} != ({length},)")
    return a


@dataclass(frozen=True)
class ExecutionWindow:
    """The last ``h`` configurations, most recent last: the full Markov state."""

    frames: np.ndarray  # (h, N) uint8

    def __post_init__(self) -> None:
        f = np.asarray(self.frames, dtype=np.uint8)
        if f.ndim == 1:
            f = f[None, :]
        if f.ndim != 2:
            raise InvalidNetwork("window frames must be a (h, N) bit array")
        f = np.ascontiguousarray(f)
        f.setflags(write=False)
        object.__setattr__(self, "frames", f)

    @property
    def h(self) -> int:
        return self.frames.shape[0]

    @property
    def latest(self) -> np.ndarray:
        return self.frames[-1]


def window_frames(spec: NetworkSpec, window) -> np.ndarray:
    """The ``(h, N)`` uint8 frames of ``window``, an ``ExecutionWindow`` or a
    bit array with the most recent frame last (a single frame may be a vector).
    Raises ``InvalidNetwork`` unless that is this network's shape."""
    frames = np.asarray(getattr(window, "frames", window), dtype=np.uint8)
    if frames.ndim == 1:
        frames = frames[None, :]
    if frames.shape != (spec.history, spec.n_neurons):
        raise InvalidNetwork(
            f"window shape {frames.shape} != ({spec.history}, {spec.n_neurons})"
        )
    return frames


@dataclass(frozen=True)
class Execution:
    """A recorded execution: frames 0..T-1, the trial that produced it, a
    reference to the input trace its input bits follow, and where its
    network keeps the outputs (filled in by ``run``)."""

    frames: np.ndarray  # (T, N) uint8
    trial: int = 0
    trace: object = None
    output_indices: np.ndarray | None = None

    def __post_init__(self) -> None:
        f = np.ascontiguousarray(np.asarray(self.frames, dtype=np.uint8))
        f.setflags(write=False)
        object.__setattr__(self, "frames", f)

    def __len__(self) -> int:
        return self.frames.shape[0]

    def window(self, spec: NetworkSpec, t: int) -> ExecutionWindow:
        """Window of the last ``h`` frames ending at frame ``t`` inclusive."""
        h = spec.history
        if t + 1 < h:
            raise InvalidNetwork(f"frame {t} has no complete window for h={h}")
        return ExecutionWindow(self.frames[t + 1 - h : t + 1])


class FixedInputTrace:
    """Input trace holding the same input configuration at every time."""

    def __init__(self, bits):
        self.bits = _as_bits(bits)

    def bits_at(self, t: int, trials, rng: RandomnessContract, input_ids) -> np.ndarray:
        return np.broadcast_to(self.bits, (len(trials), self.bits.size))


class BernoulliInputTrace:
    """Each input fires independently at each time with its own rate.

    Bits are materialized from the same counter-based contract as the
    dynamics draws (inputs and non-inputs have disjoint neuron indices, so
    the streams never collide).
    """

    def __init__(self, rates):
        self.rates = np.asarray(rates, dtype=np.float64)

    def bits_at(self, t: int, trials, rng: RandomnessContract, input_ids) -> np.ndarray:
        draws = rng.uniform_block(trials, t, input_ids)
        return (draws < self.rates[None, :]).astype(np.uint8)


class CallableInputTrace:
    """Wrap a plain ``t -> input bits`` function."""

    def __init__(self, fn: Callable[[int], Sequence[int]]):
        self.fn = fn

    def bits_at(self, t: int, trials, rng: RandomnessContract, input_ids) -> np.ndarray:
        bits = _as_bits(self.fn(t))
        return np.broadcast_to(bits, (len(trials), bits.size))


def as_input_trace(trace) -> FixedInputTrace | BernoulliInputTrace | CallableInputTrace:
    if hasattr(trace, "bits_at"):
        return trace
    if callable(trace):
        return CallableInputTrace(trace)
    return FixedInputTrace(trace)


def _selector(indices: np.ndarray) -> np.ndarray | slice:
    """``indices`` as a slice when they count up by one, so that indexing a
    frame with them is a view instead of a gather."""
    n = indices.size
    if n and indices[-1] - indices[0] == n - 1 and (indices[1:] - indices[:-1] == 1).all():
        return slice(int(indices[0]), int(indices[-1]) + 1)
    return indices


# Elements of one (rows x m) tile of a step. Each float64 tile buffer is then
# 256 KiB, so a tile's buffers and temporaries stay in a core's L2 cache
# while every operation of the step passes over them.
_TILE_ELEMS = 32768


def _add_into(pot: np.ndarray, cols, x: np.ndarray) -> None:
    """``pot[:, cols] += x``, in place when ``cols`` is a slice (``+=`` on a
    subscript would copy the view back onto itself)."""
    if isinstance(cols, slice):
        view = pot[:, cols]
        view += x
    else:
        pot[:, cols] += x


def _dense_block(keys, others, weight, n_keys: int, n_others: int, threshold: float):
    """Move the synapses whose ``keys`` value (a target column or a source)
    occurs more than ``threshold`` times into a dense block with one row per
    such hub, indexed by ``others``. Returns the hubs, the block, and a mask
    (or a full slice) selecting the synapses left out."""
    hub = np.bincount(keys, minlength=n_keys) > threshold
    hubs = np.flatnonzero(hub)
    block = np.zeros((hubs.size, n_others))
    if not hubs.size:
        return hubs, block, slice(None)
    into = hub[keys]
    block[(np.cumsum(hub) - 1)[keys[into]], others[into]] = weight[into]
    return hubs, block, ~into


def _gather_slots(src, col, weight, m: int) -> list[tuple]:
    """``(cols, src, val)`` slots: slot ``k`` holds the ``k``-th synapse of
    every column that has more than ``k``."""
    if not col.size:
        return []
    # a stable sort by column ranks each column's synapses
    order = np.argsort(col, kind="stable")
    src, col, weight = src[order], col[order], weight[order]
    count = np.bincount(col, minlength=m)
    rank = np.arange(col.size) - (np.cumsum(count) - count)[col]
    slots = []
    for k in range(int(count.max())):
        here = rank == k
        slots.append((_selector(col[here]), _selector(src[here]), weight[here]))
    return slots


class BatchRunner:
    """Vectorized stepper: advances a batch of windows one step at a time.

    Windows are (B, h, N) arrays with the batch axis first; the runner makes
    uint8 0/1 frames and reads float or uint8 ones. A window, flattened to
    (B, h*N) with its oldest frame first, times one sparse (h*N, m) matrix
    built from ``spec.synapses`` gives the potentials, in float64. The matrix
    is split three ways, so a step costs about the number of nonzero weights
    instead of ``h * N * m``:

    * target columns with in-degree above a threshold are dense columns,
      ``f[:, col_src] @ col_block`` over the sources that reach them;
    * of the other synapses, sources with out-degree above it are dense
      rows, ``f[:, rows] @ row_block``;
    * every remaining synapse is a gather: slot ``k`` covers the columns with
      more than ``k`` remaining synapses and adds ``f[:, src] * val`` to
      ``pot[:, cols]``.

    Index arrays that count up by one are kept as slices (``_selector``).
    """

    def __init__(self, spec: NetworkSpec, rng: RandomnessContract):
        self.spec = spec
        self.rng = rng
        self.non_input = spec.non_input_indices
        self.input_ids = spec.input_indices
        self.b = spec.biases[self.non_input].copy()
        self._non_input_sel = _selector(self.non_input)
        self._input_sel = _selector(self.input_ids)

        h, n_all, m = spec.history, spec.n_neurons, self.non_input.size
        syn = spec.synapses
        # no synapse targets an input, so every post is a non-input column
        col, weight = np.searchsorted(self.non_input, syn.post), syn.weight
        # frame h-1-lag0 of the window holds the bits a lag0+1 synapse reads
        src = (h - 1 - syn.lag0) * n_all + syn.pre
        # A dense column costs about h*N multiply-adds per row and a gather
        # slot about as much as 16 of them, so a target is a hub from h*N/16
        # in-edges on (a source likewise by its out-edges). At n=1024 only
        # the auxiliaries are hubs and each output keeps its 2-3 other
        # synapses in the gather; at n=8 every output is a hub. A fixed
        # threshold would make the log-inhibitor outputs (14 in-edges) hubs
        # at every n, and their dense block nearly h*N x m.
        threshold = h * n_all / 16

        cols, block, rest = _dense_block(col, src, weight, m, h * n_all, threshold)
        col_src = np.flatnonzero(block.any(axis=0))
        self.cols, self.col_src = _selector(cols), _selector(col_src)
        self.col_block = np.ascontiguousarray(block[:, col_src].T)
        src, col, weight = src[rest], col[rest], weight[rest]

        rows, self.row_block, rest = _dense_block(src, col, weight, h * n_all, m, threshold)
        self.rows = _selector(rows)
        self.slots = _gather_slots(src[rest], col[rest], weight[rest], m)
        # (probability, draw, fired) tile buffers: the first step allocates
        # them and a larger tile grows them
        self._tile_bufs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @cached_property
    def w_cols(self) -> list[np.ndarray]:
        """Dense (N, m) weight columns of the non-input neurons, one per lag.
        Built on first access only; stepping never reads it."""
        return [
            np.ascontiguousarray(self.spec.weights[lag0][:, self.non_input])
            for lag0 in range(self.spec.history)
        ]

    def potentials(self, frames: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Potentials of all non-input neurons. ``frames``: (B, h, N) 0/1.
        ``out``, a float64 (B, m) array, receives them and is returned."""
        rows = frames.shape[0]
        f = frames.reshape(rows, self.spec.history * self.spec.n_neurons)
        pot = np.empty((rows, self.b.size)) if out is None else out
        np.negative(self.b, out=pot)  # broadcasts -b over the batch
        for cols, src, val in self.slots:
            _add_into(pot, cols, f[:, src] * val)
        if self.row_block.size:
            pot += f[:, self.rows] @ self.row_block
        if self.col_block.size:
            _add_into(pot, self.cols, f[:, self.col_src] @ self.col_block)
        return pot

    def probabilities(self, frames: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Firing probabilities of all non-input neurons, computed in the
        potentials' array (``out`` when given)."""
        pot = self.potentials(frames, out=out)
        if self.spec.lam != 1.0:  # dividing by 1.0 changes no bit
            pot /= self.spec.lam
        return sigmoid(pot, out=pot)

    def step_bits(self, frames: np.ndarray, t: int, trials, input_bits) -> np.ndarray:
        """One synchronous step. Returns the new (B, N) uint8 frame.

        ``input_bits`` is the input configuration at time ``t``, either one
        vector shared by the batch or one row per trial. The non-input bits
        are made one row tile at a time, in the workspace's buffers.
        """
        batch = frames.shape[0]
        new = np.empty((batch, self.spec.n_neurons), dtype=np.uint8)
        if self.input_ids.size:
            new[:, self._input_sel] = input_bits
        trials = np.asarray(trials)
        tile = max(1, min(batch, _TILE_ELEMS // max(1, self.b.size)))
        if self._tile_bufs is None or self._tile_bufs[0].shape[0] < tile:
            shape = (tile, self.b.size)
            self._tile_bufs = (np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool))
        p_buf, d_buf, fired = self._tile_bufs
        for lo in range(0, batch, tile):
            rows = min(tile, batch - lo)
            p = self.probabilities(frames[lo : lo + rows], out=p_buf[:rows])
            draws = self.rng.uniform_block(
                trials[lo : lo + rows], t, self.non_input, out=d_buf[:rows]
            )
            np.less(draws, p, out=fired[:rows])
            new[lo : lo + rows, self._non_input_sel] = fired[:rows]
        return new

    def advance(self, frames: np.ndarray, t: int, trials, input_bits) -> np.ndarray:
        """Step and shift: returns the new (B, h, N) uint8 window array."""
        new = self.step_bits(frames, t, trials, input_bits)
        if self.spec.history == 1:
            return new[:, None, :]
        return np.concatenate(
            [np.asarray(frames[:, 1:, :], dtype=np.uint8), new[:, None, :]], axis=1
        )


def _draws_array(spec: NetworkSpec, draws) -> np.ndarray:
    non_input = spec.non_input_indices
    if isinstance(draws, Mapping):
        try:
            return np.asarray([draws[int(u)] for u in non_input], dtype=np.float64)
        except KeyError as e:
            raise MissingDraw(f"no draw for neuron {e.args[0]}") from None
    a = np.asarray(draws, dtype=np.float64)
    if a.shape != (non_input.size,):
        raise MissingDraw(
            f"need one draw per non-input neuron ({non_input.size}), got shape {a.shape}"
        )
    return a


def potential(spec: NetworkSpec, window, u: int) -> float:
    """Membrane potential of neuron ``u`` given the last ``h`` firing vectors,
    ``sum_l sum_v w(v, u, l) * frame[t-l](v) - b(u)``: its entry of
    ``BatchRunner.potentials`` over a batch of one. ``window`` is an
    ``ExecutionWindow`` or an ``(h, N)`` bit array, most recent frame last.
    """
    if spec.is_input(u):
        raise InputNeuronPotential(f"neuron {u} is an input")
    frames = window_frames(spec, window)
    runner = BatchRunner(spec, RandomnessContract(0))
    return float(runner.potentials(frames[None])[0, np.searchsorted(runner.non_input, u)])


def step(spec: NetworkSpec, window: ExecutionWindow, next_input, draws) -> np.ndarray:
    """Advance one configuration: ``u`` fires iff ``draw(u) < p(u)``.

    ``draws`` maps each non-input neuron index to a uniform in ``[0, 1)``
    (mapping or array ordered by ``spec.non_input_indices``). Input bits are
    copied from ``next_input``. Pure function of its arguments.
    """
    frames = window_frames(spec, window)[None]
    d = _draws_array(spec, draws)

    runner = BatchRunner(spec, RandomnessContract(0))
    p = runner.probabilities(frames)[0]
    new = np.zeros(spec.n_neurons, dtype=np.uint8)
    inp = spec.input_indices
    if inp.size:
        new[inp] = _as_bits(next_input, inp.size)
    new[runner.non_input] = d < p
    return new


def initial_windows_batch(
    spec: NetworkSpec,
    policy: str,
    input_trace,
    trial_ids,
    rng: RandomnessContract,
    explicit: ExecutionWindow | None = None,
    t0: int = 0,
) -> np.ndarray:
    """(B, h, N) uint8 starting windows for a batch of trials.

    Input bits come from the input trace at times ``t0..t0+h-1``; the policy
    decides the non-input bits. ``uniform_random`` materializes them from the
    randomness contract at those same times, so each trial's start is
    independent and reproducible; ``explicit`` copies them from ``explicit``.
    """
    if policy not in INITIAL_POLICIES:
        raise InvalidNetwork(f"unknown initial policy {policy!r}")
    h, n_all = spec.history, spec.n_neurons
    frames = np.zeros((len(trial_ids), h, n_all), dtype=np.uint8)
    if policy == EXPLICIT:
        if explicit is None:
            raise InvalidNetwork("explicit policy needs an explicit window")
        frames[:] = window_frames(spec, explicit)
    trace = as_input_trace(input_trace)
    inputs, non_input = spec.input_indices, spec.non_input_indices
    for t in range(h):
        frames[:, t, inputs] = trace.bits_at(t0 + t, trial_ids, rng, inputs)
        if policy == ALL_FIRE:
            frames[:, t, non_input] = 1
        elif policy == UNIFORM_RANDOM:
            draws = rng.uniform_block(trial_ids, t0 + t, non_input)
            frames[:, t, non_input] = draws < 0.5
    return frames


def initial_window(
    spec: NetworkSpec,
    policy: str,
    input_trace,
    rng: RandomnessContract | None = None,
    trial: int = 0,
    explicit: ExecutionWindow | None = None,
) -> ExecutionWindow:
    """The h-frame starting window of one trial: ``initial_windows_batch``
    over a batch of one, at times ``0..h-1``. An explicit window is returned
    as given."""
    if policy == EXPLICIT and explicit is not None:
        return explicit
    if policy == UNIFORM_RANDOM and rng is None:
        raise InvalidNetwork("uniform_random policy needs a randomness contract")
    rng = rng if rng is not None else RandomnessContract(0)
    frames = initial_windows_batch(spec, policy, input_trace, np.asarray([trial]), rng)
    return ExecutionWindow(frames[0])


def run(
    spec: NetworkSpec,
    initial: ExecutionWindow,
    input_trace,
    horizon: int,
    randomness: RandomnessContract,
    trial: int = 0,
) -> Execution:
    """Unroll ``horizon`` frames: frames ``0..h-1`` are the initial window,
    frame ``t >= h`` is produced by one step with draws at ``(trial, t, .)``.

    ``horizon`` counts frames, so ``horizon == h`` returns the initial window
    unchanged. The result is a pure function of the arguments: same seed,
    same execution, regardless of how other trials are scheduled.
    """
    h = spec.history
    if horizon < h:
        raise HorizonTooShort(f"horizon {horizon} < history {h}")
    frames0 = window_frames(spec, initial)
    trace = as_input_trace(input_trace)
    runner = BatchRunner(spec, randomness)
    trials = np.asarray([trial])

    frames_out = np.zeros((horizon, spec.n_neurons), dtype=np.uint8)
    frames_out[:h] = frames0
    window = frames0[None, :, :]
    for t in range(h, horizon):
        bits = trace.bits_at(t, trials, randomness, spec.input_indices)
        window = runner.advance(window, t, trials, bits)
        frames_out[t] = window[0, -1]
    return Execution(frames_out, trial, trace, spec.output_indices)
