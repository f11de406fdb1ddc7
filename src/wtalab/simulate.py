"""Synchronous stochastic stepping of spiking networks.

The single Markov state of a network with history ``h`` is the window of its
last ``h`` configurations. ``BatchRunner.step_bits`` advances a batch of
windows by one configuration, a non-input neuron firing iff its uniform draw
is below its probability; ``run`` unrolls a whole execution from an initial
window, drawing uniforms from a ``RandomnessContract`` keyed by ``(trial,
time, neuron)``. A window is an ``(h, N)`` uint8 bit array, most recent frame
last, and ``window_frames`` is the one check of its shape. A start, for
``initial_window`` and ``initial_windows_batch``, is a policy name or one
such window.

The inputs hold one fixed 0/1 vector X for a whole execution: every frame of
a start window and every step carries it. ``input_vector`` is the one check
of X (one bit per input neuron, each 0 or 1 by ``errors.check_bits``), and
every call that takes X goes through it. ``BatchRunner.step_bits`` alone
also takes one input row per trial.

``BatchRunner`` advances many trials at once on uint8 frames. It is the one
code path from a window to potentials and firing probabilities:
``potential`` and ``run`` are batch-of-one views of it, and the exact
oracle's kernel reads it too. A potential depends on the window only
through how many presynaptic bits of each synapse weight fired, so the
runner sums integer count codes over a sparse split of the synapses and
reads potentials and ``sigmoid(potential / lam)`` from tables it builds on
first use (see ``BatchRunner``). Two guarantees follow, bit for bit
and on any machine: a row's potentials and probabilities do not depend on
how many rows share its call (chunk invariance), and the scalar calls equal
the batch ones (scalar-versus-batch identity).

A step works through the batch in row tiles of about ``_TILE_ELEMS``
neuron slots, which bounds its peak memory. Each tile is one expression:
its draws compared with its ``probabilities``. The runner keeps no
workspace, and where the tiles fall changes no bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    HorizonTooShort,
    InputNeuronPotential,
    InvalidNetwork,
    LengthMismatch,
    check_bits,
    check_int,
    check_neuron,
)
from .network import INPUT, NetworkSpec, sigmoid
from .randomness import RandomnessContract, check_trials

ALL_ZERO = "all_zero"
ALL_FIRE = "all_fire"
UNIFORM_RANDOM = "uniform_random"

INITIAL_POLICIES = (ALL_ZERO, ALL_FIRE, UNIFORM_RANDOM)


def input_vector(spec: NetworkSpec, x) -> np.ndarray:
    """The fixed input vector ``x`` as uint8 bits. Raises ``LengthMismatch``
    unless it has one entry per input neuron of ``spec``, and ``WtaLabError``
    unless each entry is 0 or 1."""
    a = np.asarray(x)
    if a.shape != spec.input_indices.shape:
        raise LengthMismatch(
            f"input vector shape {a.shape} != ({spec.input_indices.size},) inputs"
        )
    return check_bits("input vector", a)


def window_frames(spec: NetworkSpec, window) -> np.ndarray:
    """The ``(h, N)`` uint8 frames of ``window``, a bit array with the most
    recent frame last (a single frame may be a vector). Raises
    ``InvalidNetwork`` unless that is this network's shape."""
    frames = np.asarray(window, dtype=np.uint8)
    if frames.ndim == 1:
        frames = frames[None, :]
    if frames.shape != (spec.history, spec.n_neurons):
        raise InvalidNetwork(
            f"window shape {frames.shape} != ({spec.history}, {spec.n_neurons})"
        )
    return frames


@dataclass(frozen=True)
class Execution:
    """A recorded execution, made by ``run``: frames 0..T-1 and where its
    network keeps the outputs."""

    frames: np.ndarray  # (T, N) uint8, read-only
    output_indices: np.ndarray


def _selector(indices: np.ndarray) -> np.ndarray | slice:
    """``indices`` as a slice when they count up by one, so that indexing a
    frame with them is a view instead of a gather."""
    n = indices.size
    if n and indices[-1] - indices[0] == n - 1 and (indices[1:] - indices[:-1] == 1).all():
        return slice(int(indices[0]), int(indices[-1]) + 1)
    return indices


# A column's classes fall into digit groups, each a code column with one
# table. A group takes the next class while its table stays within this many
# entries and within _ENTRIES_PER_SYNAPSE per synapse it holds; a group's
# first class always fits. So a spec's tables hold at most 32 entries per
# synapse (a column without synapses has a 1-entry table), while the columns
# of the builder networks, a few classes of high degree, keep one table each.
_TABLE_LIMIT = 1 << 16
_ENTRIES_PER_SYNAPSE = 32

# A run of sources that reach the dense columns alike is read as one slice
# sum, which costs about as much as a gather slot (16 multiply-adds, see
# _count_kernel) plus one add per source and one row of a small product; its
# sources in the dense product cost a multiply-add per dense column each. So
# a run pays from this many sources on.
_RUN_MIN = 16

# Elements of one (rows x m) tile of a step. A tile's float64 arrays are
# then 256 KiB each, so they stay in a core's L2 cache while every operation
# of the step passes over them.
_TILE_ELEMS = 32768


def _add_into(code: np.ndarray, cols, x: np.ndarray) -> None:
    """``code[:, cols] += x``, in place when ``cols`` is a slice (``+=`` on a
    subscript would copy the view back onto itself)."""
    if isinstance(cols, slice):
        view = code[:, cols]
        view += x
    else:
        code[:, cols] += x


def _dense_block(keys, others, values, n_keys: int, n_others: int, threshold: float):
    """Move the synapses whose ``keys`` value (a target column or a source)
    occurs more than ``threshold`` times into a dense block of their
    ``values`` with one row per such hub, indexed by ``others``. Returns the
    hubs, the block, and a mask (or a full slice) selecting the synapses
    left out."""
    hub = np.bincount(keys, minlength=n_keys) > threshold
    hubs = np.flatnonzero(hub)
    block = np.zeros((hubs.size, n_others), dtype=values.dtype)
    if not hubs.size:
        return hubs, block, slice(None)
    into = hub[keys]
    block[(np.cumsum(hub) - 1)[keys[into]], others[into]] = values[into]
    return hubs, block, ~into


def _runs(block: np.ndarray):
    """Split the sources of a dense column ``block`` (one row per hub column,
    one column per source) that reach a hub column. A maximal run of at least
    ``_RUN_MIN`` consecutive sources with one pattern (their column of
    ``block``) is a run; every other such source is a single. Returns the
    runs as slices, their patterns (one row per run) and the singles."""
    used = np.flatnonzero(block.any(axis=0))
    pattern = block[:, used]
    # a source extends the run of the one before it when it is the next
    # source and reads the hub columns alike
    same = (used[1:] - used[:-1] == 1) & (pattern[:, 1:] == pattern[:, :-1]).all(axis=0)
    start = np.flatnonzero(np.concatenate([[True], ~same]))
    length = np.diff(np.append(start, used.size))
    long = length >= _RUN_MIN
    runs = [slice(int(used[s]), int(used[s] + n)) for s, n in zip(start[long], length[long])]
    return runs, pattern[:, start[long]].T, used[~np.repeat(long, length)]


def _gather_slots(src, col, values, m: int) -> list[tuple]:
    """``(cols, src, val)`` slots: slot ``k`` holds the ``k``-th synapse of
    every column that has more than ``k``."""
    if not col.size:
        return []
    # a stable sort by column ranks each column's synapses
    order = np.argsort(col, kind="stable")
    src, col, values = src[order], col[order], values[order]
    count = np.bincount(col, minlength=m)
    rank = np.arange(col.size) - (np.cumsum(count) - count)[col]
    slots = []
    for k in range(int(count.max())):
        here = rank == k
        slots.append((_selector(col[here]), _selector(src[here]), values[here]))
    return slots


def _columns_and_sources(spec: NetworkSpec) -> tuple[np.ndarray, np.ndarray]:
    """Each synapse's target column among the non-input neurons, and the
    slot it reads in a window flattened with its oldest frame first."""
    h, n_all, syn = spec.history, spec.n_neurons, spec.synapses
    # no synapse targets an input, so every post is a non-input column
    at = np.zeros(n_all, dtype=np.intp)
    at[spec.non_input_indices] = np.arange(spec.non_input_indices.size)
    # frame h-1-lag0 of the window holds the bits a lag0+1 synapse reads
    return at[syn.post], (h - 1 - syn.lag0) * n_all + syn.pre


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of ``a``, sorted: ``np.unique`` without the
    ``numpy.ma`` import (2 MB resident) that it makes on first call."""
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _classes(col: np.ndarray, weight: np.ndarray, m: int):
    """The classes of the synapses into ``m`` columns: each column's
    distinct weights, in the order of their first synapse in scan order.
    Returns, per synapse, its class; per class, sorted by column, its
    column, weight and degree (number of synapses)."""
    n = col.size
    values = _distinct(weight)
    key = np.searchsorted(values, weight)
    key += col * values.size
    if m * values.size > max(1 << 20, 4 * n):  # many distinct weights: number the keys used
        key = np.searchsorted(_distinct(key), key)
    degree = np.bincount(key)
    first = np.full(degree.size, n)
    np.minimum.at(first, key, np.arange(n))
    used = np.flatnonzero(degree)
    cls = used[np.lexsort((first[used], col[first[used]]))]  # by column, then first synapse
    label = np.empty(degree.size, dtype=np.intp)
    label[cls] = np.arange(cls.size)
    first = first[cls]
    return label[key], col[first], weight[first], degree[cls]


def _table(start: float, digits) -> np.ndarray:
    """Potentials of one code column, indexed by its code: ``start``, then
    ``w * count`` of each ``(w, degree)`` digit in order, the first digit
    varying fastest."""
    table = np.full(1, start)
    for w, deg in digits:
        table = np.add.outer(np.arange(deg + 1) * w, table).ravel()
    return table


class _Kernel(NamedTuple):
    """A spec's count codes, tables and the split that sums the codes (see
    ``BatchRunner``).

    ``slots`` are the gather slots ``(cols, src, radices)``; ``rows`` and
    ``row_block`` the dense rows; ``cols`` the dense columns, ``runs`` and
    ``run_block`` (one row per run) the runs of sources they read as slice
    sums, ``col_src`` and ``col_block`` (one row per source) their single
    sources. The blocks hold radices in float64 for BLAS. All of them range
    over every code column. ``offsets`` is each code column's offset into
    the flat tables, in the codes' dtype; ``pot`` and ``prob`` are the
    tables. ``levels`` holds, per digit group after the first, its real
    columns and their code columns."""

    slots: list
    rows: np.ndarray | slice
    row_block: np.ndarray
    cols: np.ndarray | slice
    col_src: np.ndarray | slice
    col_block: np.ndarray
    runs: list
    run_block: np.ndarray
    offsets: np.ndarray
    pot: np.ndarray
    prob: np.ndarray
    levels: list


def _count_kernel(spec: NetworkSpec) -> _Kernel:
    """The count codes, tables and split of ``spec`` (see ``BatchRunner``)."""
    h, n_all = spec.history, spec.n_neurons
    non_input, m = spec.non_input_indices, spec.non_input_indices.size
    col, src = _columns_and_sources(spec)
    cls, k_col, k_w, k_deg = _classes(col, spec.synapses.weight, m)
    # One pass over the classes (the digits of the codes), column by column:
    # each one's code column and radix, and each code column's signature (its
    # start, then the weight and degree of each digit). A class that does not
    # fit its column's current group (see _TABLE_LIMIT) opens the column's
    # next group, a code column after the m real ones that starts from 0.
    keys = [[s] for s in (-spec.biases[non_input]).tolist()]
    code_col, radix, later = [], [], []  # later: (column, group) of code column m + i
    last = -1
    for c, w, d in zip(k_col.tolist(), k_w.tolist(), k_deg.tolist()):
        if c != last:
            last, group, size, held, code = c, 0, 1, 0, c
        held += d
        if size > 1 and size * (d + 1) > min(_TABLE_LIMIT, _ENTRIES_PER_SYNAPSE * held):
            group, size, held, code = group + 1, 1, d, len(keys)
            later.append((c, group))
            keys.append([0.0])
        code_col.append(code)
        radix.append(size)
        keys[code] += (w, d)
        size *= d + 1
    # equal signatures share one table
    index: dict[tuple, int] = {}
    which = [index.setdefault(tuple(k), len(index)) for k in keys]
    parts = [_table(k[0], zip(k[1::2], k[2::2])) for k in index]
    sizes = np.array([t.size for t in parts], dtype=np.intp)
    pot = np.concatenate(parts) if parts else np.zeros(0)
    # codes index the flat tables, so a uint16 holds them up to 2^16 entries
    dtype = np.uint16 if pot.size <= 1 << 16 else np.int32

    # each synapse's code column and radix
    n_codes = len(keys)
    code, rad = np.array(code_col, dtype=np.intp)[cls], np.array(radix, dtype=float)[cls]
    # A dense column costs about h*N multiply-adds per row and a gather slot
    # about as much as 16 of them, so a target is a hub from h*N/16 in-edges
    # on (a source likewise by its out-edges). At n=1024 only the
    # auxiliaries are hubs and each output keeps its 2-3 other synapses in
    # the gather; at n=8 every output is a hub. A fixed threshold would make
    # the log-inhibitor outputs (14 in-edges) hubs at every n, and their
    # dense block nearly h*N x m.
    threshold = h * n_all / 16
    cols, col_block, rest = _dense_block(code, src, rad, n_codes, h * n_all, threshold)
    runs, run_block, col_src = _runs(col_block)
    src, code, rad = src[rest], code[rest], rad[rest]
    rows, row_block, rest = _dense_block(src, code, rad, h * n_all, n_codes, threshold)
    slots = _gather_slots(src[rest], code[rest], rad[rest], n_codes)

    later = np.array(later, dtype=np.intp).reshape(-1, 2)
    groups = [np.flatnonzero(later[:, 1] == g) for g in range(1, later[:, 1].max(initial=0) + 1)]
    return _Kernel(
        slots=[(c, s, v.astype(dtype)) for c, s, v in slots],
        rows=_selector(rows),
        row_block=row_block,
        cols=_selector(cols),
        col_src=_selector(col_src),
        col_block=np.ascontiguousarray(col_block[:, col_src].T),
        runs=runs,
        run_block=np.ascontiguousarray(run_block),
        offsets=(np.cumsum(sizes) - sizes)[which].astype(dtype),
        pot=pot,
        prob=sigmoid(pot / spec.lam),
        levels=[(later[at, 0], m + at) for at in groups],
    )


class BatchRunner:
    """Vectorized stepper: advances a batch of windows one step at a time.

    Windows are (B, h, N) arrays with the batch axis first; the runner makes
    uint8 0/1 frames and reads float or uint8 ones.

    **Count codes.** A column's potential is minus its bias plus, for each
    distinct weight ``w`` of its synapses (a class), ``w`` times how many of
    the class's presynaptic slots fired. So it depends on the class counts
    alone, and the runner numbers them: a column's code is the mixed-radix
    number of its counts, a class's radix being the product of
    ``degree + 1`` over the classes before it (``_classes``). A window,
    flattened to (B, h*N) with its oldest frame first, times one sparse
    (h*N, m) matrix of those integer radices gives every code. Its sums are
    of integers far below 2^53, so they are exact in any order, under any
    BLAS kernel and for any number of rows. The matrix is split three ways,
    so a step costs about the number of synapses instead of ``h * N * m``:

    * target columns with in-degree above a threshold are dense columns. A
      maximal run of at least ``_RUN_MIN`` consecutive sources that reach
      them alike (one pattern of radices) is read as a slice sum times that
      pattern, ``f[:, run].sum(axis=1)`` stacked ``@ run_block``, and every
      other source that reaches them as ``f[:, col_src] @ col_block``;
    * of the other synapses, sources with out-degree above it are dense
      rows, ``f[:, rows] @ row_block``;
    * every remaining synapse is a gather: slot ``k`` covers the columns with
      more than ``k`` remaining synapses and adds ``f[:, src] * val`` to
      ``code[:, cols]``.

    **Tables.** Code columns with the same signature (start, then each
    digit's weight and degree) share one table of potentials, computed once
    in a fixed order: minus the bias, then ``w * count`` per class in
    first-synapse order (``_table``); and one of ``sigmoid(potential /
    lam)``. A code indexes the flat tables through its column's offset,
    which its sum starts from. ``potentials`` and ``probabilities`` are
    lookups, and a step is draws, codes, one ``np.take`` and the compare.

    **Digit groups.** A column's classes fall into groups, a group taking
    the next class while its table stays within ``_TABLE_LIMIT`` entries and
    within ``_ENTRIES_PER_SYNAPSE`` per synapse it holds; so the tables grow
    with the synapses. Group 0 is the column's own code, with the bias, and
    each later group a code column after the ``m`` real ones that starts
    from 0. The split sums all ``M`` code columns alike. The column's
    potential is the sum of its groups' table potentials in group order,
    and when a spec has groups every probability is the sigmoid of its
    potential, made per call (``_lookup``); for a column of one group that
    is the bits of its ``prob`` entry. Random networks whose columns read
    many distinct weights have groups; the builder networks' columns, a few
    classes of high degree each, do not.

    The split, codes and tables are the spec's count kernel
    (``_count_kernel``), which the runner builds on its first use, never in
    ``__init__``. Index arrays that count up by one are kept as slices
    (``_selector``).
    """

    def __init__(self, spec: NetworkSpec, rng: RandomnessContract):
        self.spec = spec
        self.rng = rng
        self.non_input = spec.non_input_indices
        self.input_ids = spec.input_indices
        self.m = self.non_input.size
        self._non_input_sel = _selector(self.non_input)
        self._input_sel = _selector(self.input_ids)

    @cached_property
    def w_cols(self) -> list[np.ndarray]:
        """Dense (N, m) weight columns of the non-input neurons, one per lag.
        Built on first access only; stepping never reads it."""
        return [
            np.ascontiguousarray(self.spec.weights[lag0][:, self.non_input])
            for lag0 in range(self.spec.history)
        ]

    @cached_property
    def _kernel(self) -> _Kernel:
        """The spec's count kernel, built on first use."""
        return _count_kernel(self.spec)

    def _codes(self, frames: np.ndarray) -> np.ndarray:
        """(B, M) codes of every code column, each its table offset plus its
        count code, in the kernel's code dtype. ``frames``: (B, h, N) 0/1."""
        k = self._kernel
        rows, h, n_all = frames.shape
        f = np.asarray(frames, dtype=np.uint8).reshape(rows, h * n_all)
        code = np.tile(k.offsets, (rows, 1))
        for cols, src, val in k.slots:
            _add_into(code, cols, f[:, src] * val)
        # the dense blocks' float products are whole numbers: the casts are exact
        if k.row_block.size:
            code += (f[:, k.rows] @ k.row_block).astype(code.dtype)
        if k.col_block.size:
            _add_into(code, k.cols, (f[:, k.col_src] @ k.col_block).astype(code.dtype))
        if k.runs:
            # a radix names one class of its code column, so a run's count
            # is at most that class's degree, below the table size: the
            # codes' dtype holds it
            sums = np.stack([f[:, r].sum(axis=1, dtype=code.dtype) for r in k.runs], axis=1)
            _add_into(code, k.cols, (sums @ k.run_block).astype(code.dtype))
        return code

    def _lookup(self, code: np.ndarray, probs: bool) -> np.ndarray:
        """Potentials or probabilities of the ``m`` non-input columns from
        their codes. A column with digit groups sums its groups' table
        potentials in group order."""
        k = self._kernel
        if not k.levels:  # one code column per column
            return np.take(k.prob if probs else k.pot, code, mode="clip")
        pot = np.take(k.pot, code[:, : self.m], mode="clip")
        for cols, code_cols in k.levels:
            pot[:, cols] += np.take(k.pot, code[:, code_cols], mode="clip")
        return sigmoid(pot / self.spec.lam) if probs else pot

    def potentials(self, frames: np.ndarray) -> np.ndarray:
        """Potentials of all non-input neurons. ``frames``: (B, h, N) 0/1."""
        return self._lookup(self._codes(frames), False)

    def probabilities(self, frames: np.ndarray) -> np.ndarray:
        """Firing probabilities of all non-input neurons, ``sigmoid(potential
        / lam)``."""
        return self._lookup(self._codes(frames), True)

    def step_bits(self, frames: np.ndarray, t: int, trials, input_bits) -> np.ndarray:
        """One synchronous step. Returns the new (B, N) uint8 frame.

        ``input_bits`` is either one vector shared by the batch (the fixed
        input X) or one row per trial. The non-input bits are made one row
        tile at a time.
        """
        batch = frames.shape[0]
        new = np.empty((batch, self.spec.n_neurons), dtype=np.uint8)
        if self.input_ids.size:
            new[:, self._input_sel] = input_bits
        trials = np.asarray(trials)
        tile = max(1, _TILE_ELEMS // max(1, self.m))
        for lo in range(0, batch, tile):
            hi = lo + tile
            new[lo:hi, self._non_input_sel] = self.rng.uniform_block(
                trials[lo:hi], t, self.non_input
            ) < self.probabilities(frames[lo:hi])
        return new

    def advance(self, frames: np.ndarray, t: int, trials, input_bits) -> np.ndarray:
        """Step and shift: returns the new (B, h, N) uint8 window array."""
        new = self.step_bits(frames, t, trials, input_bits)
        if self.spec.history == 1:
            return new[:, None, :]
        return np.concatenate(
            [np.asarray(frames[:, 1:, :], dtype=np.uint8), new[:, None, :]], axis=1
        )


def potential(spec: NetworkSpec, window, u: int) -> float:
    """Membrane potential of neuron ``u`` given the last ``h`` firing vectors,
    ``sum_l sum_v w(v, u, l) * frame[t-l](v) - b(u)``: its entry of
    ``BatchRunner.potentials`` over a batch of one. ``window`` is an
    ``(h, N)`` bit array, most recent frame last. ``u`` must be an int in
    ``0..N-1`` (``WtaLabError``) and not an input (``InputNeuronPotential``).
    """
    check_neuron("u", u, spec.n_neurons)
    if spec.kind[u] == INPUT:
        raise InputNeuronPotential(f"neuron {u} is an input")
    frames = window_frames(spec, window)
    runner = BatchRunner(spec, RandomnessContract(0))
    return float(runner.potentials(frames[None])[0, np.searchsorted(runner.non_input, u)])


def initial_windows_batch(
    spec: NetworkSpec, start, x, trial_ids, rng: RandomnessContract
) -> np.ndarray:
    """(B, h, N) uint8 starting windows for a batch of trials, frames at
    times ``0..h-1``.

    Every frame holds the input vector ``x``. ``start`` decides the
    non-input bits: a policy name, or one ``(h, N)`` window that every trial
    copies. ``uniform_random`` materializes them from the randomness
    contract at those same times, so each trial's start is independent and
    reproducible. ``trial_ids`` must be ints in ``0..2^64-1`` (``check_trials``).
    """
    trial_ids = check_trials(trial_ids)
    policy = start if isinstance(start, str) else None
    if policy is not None and policy not in INITIAL_POLICIES:
        raise InvalidNetwork(f"unknown initial policy {policy!r}")
    x = input_vector(spec, x)
    frames = np.zeros((len(trial_ids), spec.history, spec.n_neurons), dtype=np.uint8)
    if policy is None:
        frames[:] = window_frames(spec, start)
    non_input = spec.non_input_indices
    frames[:, :, spec.input_indices] = x
    if policy == ALL_FIRE:
        frames[:, :, non_input] = 1
    elif policy == UNIFORM_RANDOM:
        for t in range(spec.history):
            frames[:, t, non_input] = rng.uniform_block(trial_ids, t, non_input) < 0.5
    return frames


def initial_window(
    spec: NetworkSpec, start, x, rng: RandomnessContract | None = None, trial: int = 0
) -> np.ndarray:
    """The (h, N) starting window of one trial: ``initial_windows_batch``
    over a batch of one."""
    if rng is None and isinstance(start, str) and start == UNIFORM_RANDOM:
        raise InvalidNetwork("uniform_random policy needs a randomness contract")
    rng = rng if rng is not None else RandomnessContract(0)
    return initial_windows_batch(spec, start, x, check_trials([trial]), rng)[0]


def run(
    spec: NetworkSpec,
    initial,
    x,
    horizon: int,
    randomness: RandomnessContract,
    trial: int = 0,
) -> Execution:
    """Unroll ``horizon`` frames under the input vector ``x``: frames
    ``0..h-1`` are ``initial_window(spec, initial, x, randomness, trial)``,
    X in each, and frame ``t >= h`` is one step with draws at ``(trial, t, .)``.

    ``horizon``, an int, counts frames, so ``horizon == h`` returns the start window.
    The result is a pure function of the arguments: same seed, same
    execution, regardless of how other trials are scheduled.
    """
    x = input_vector(spec, x)
    trials = check_trials([trial])
    h = spec.history
    check_int("horizon", horizon, 0)
    if horizon < h:
        raise HorizonTooShort(f"horizon {horizon} < history {h}")
    window = initial_window(spec, initial, x, randomness, trial)[None]
    runner = BatchRunner(spec, randomness)

    frames_out = np.zeros((horizon, spec.n_neurons), dtype=np.uint8)
    frames_out[:h] = window[0]
    for t in range(h, horizon):
        window = runner.advance(window, t, trials, x)
        frames_out[t] = window[0, -1]
    frames_out.setflags(write=False)
    return Execution(frames_out, spec.output_indices)
