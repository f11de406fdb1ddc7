"""Catalog of one-step and two-step transition checks.

Each entry conditions a batch of configurations (or two-frame windows) on a
class of states, advances the network one or more synchronous steps, and
compares the empirical frequency of a target event against the closed-form
bound that the network design promises for that class. Identifiers follow
the ``3.x`` (two-inhibitor, history 1) and ``5.x`` (graded-inhibition,
history 2) check families; a trailing component addresses one conclusion,
e.g. ``3.9.2`` is the exact coin-flip survival of a firing winner under both
inhibitors.

Bound kinds: ``lower`` (event probability promised at least the bound),
``upper`` (at most), ``exact`` (equality, tested at three standard errors),
``upper_diff`` (difference of two event frequencies bounded above).

Every check is one row of ``_CHECKS``, keyed by its id: the family; a
description (``LemmaParams`` fields in braces, like ``{level}``, are filled
in); the sampler ``(g, p) -> (start, ctx)``, which draws the conditioned
batch from ``g`` (configurations for history 1, two-frame windows for
history 2) and what the event needs; the steps (an int or a function of
``p``); the event ``(p, ctx, frames) -> mask``; the bound kind; the bound
``p -> float``; the ``LemmaParams`` fields echoed into the details.
``_run_check`` draws, steps, counts and calls the verdict, so a new check
is one more row and ``GROUP_IDS`` picks up its group. An ``upper_diff``
event returns two masks; the report carries the difference of their
frequencies.

``frames`` is an iterator: each step's new (B, N) frame is yielded as the
step makes it, and the event reads the frames as they arrive (a one-step
event takes the first; 5.12 keeps the first frame's outputs and compares
each later frame with them). No list of frames is built, so a check holds
its sampled batch plus one window whatever its step count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, Iterator

import numpy as np

from .builders import LOG_INHIBITOR, TWO_INHIBITOR, _check_args, build, ceil_log2, row_bytes
from .classify import two_inhibitor_classes, typical, valid_outputs
from .errors import UnknownLemma, WtaLabError, check_count, check_int
from .experiments import wilson_interval
from .network import NetworkSpec
from .randomness import RandomnessContract, check_word
from .simulate import BatchRunner


@dataclass(frozen=True)
class LemmaParams:
    """Knobs shared by every check; ``level`` picks l for graded-class cases."""

    n: int = 8
    gamma: float = 14.0
    samples: int = 100_000
    seed: int = 0
    t_s: int = 10
    level: int = 3

    def __post_init__(self) -> None:
        # the k >= 2 samplers need two outputs, a verdict needs a sample,
        # 5.12 steps t_s + 1 times, a seed fits the draws' 64-bit word,
        # and the graded levels count from 1
        _check_args(self.n, self.gamma, 2)
        check_count("samples", self.samples, 1, row_bytes(self.n))
        check_word("seed", self.seed)
        check_int("t_s", self.t_s, 0)
        check_int("level", self.level, 1)


@dataclass(frozen=True)
class LemmaCheckReport:
    lemma_id: str
    description: str
    frequency: float
    bound: float
    kind: str
    samples: int
    passed: bool
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "lemma": self.lemma_id,
            "description": self.description,
            "frequency": self.frequency,
            "bound": self.bound,
            "kind": self.kind,
            "samples": self.samples,
            "passed": self.passed,
            **self.details,
        }


def _verdict(kind: str, count: int, samples: int, bound: float, se: float | None = None):
    freq = count / samples
    if kind == "lower":
        _, hi = wilson_interval(count, samples, 0.999)
        return freq, hi >= bound
    if kind == "upper":
        lo, _ = wilson_interval(count, samples, 0.999)
        return freq, lo <= bound
    if kind == "exact":
        sigma = math.sqrt(bound * (1.0 - bound) / samples)
        return freq, abs(freq - bound) <= 3.0 * sigma
    if kind == "upper_diff":
        return freq, freq <= bound + 3.0 * (se or 0.0)
    raise ValueError(f"unknown bound kind {kind!r}")


# -- conditioning helpers ---------------------------------------------------


def _gen(p: LemmaParams) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([p.seed, p.n, p.samples]))


def _rand_bits(g, rows: int, cols: int) -> np.ndarray:
    return g.integers(0, 2, size=(rows, cols), dtype=np.uint8)


def _exactly_k(g, rows: int, cols: int, k) -> np.ndarray:
    """Rows with exactly k ones (k scalar or per-row array)."""
    order = np.argsort(g.random((rows, cols)), axis=1)
    kk = np.broadcast_to(np.asarray(k), (rows,))
    mask = (np.arange(cols)[None, :] < kk[:, None]).astype(np.uint8)
    out = np.zeros((rows, cols), dtype=np.uint8)
    np.put_along_axis(out, order, mask, axis=1)
    return out


def _pick_firing(g, x: np.ndarray) -> np.ndarray:
    """One random firing index per row (rows with no firing bit get 0)."""
    noise = g.random(x.shape) * x
    return noise.argmax(axis=1)


def _x_mixed(g, rows: int, n: int, zero_frac: float = 0.125) -> np.ndarray:
    """Random inputs, a fraction of rows forced all-silent, rest nonempty."""
    x = _rand_bits(g, rows, n)
    force_zero = g.random(rows) < zero_frac
    x[force_zero] = 0
    empty = (~force_zero) & (x.sum(axis=1) == 0)
    x[empty, g.integers(0, n, size=int(empty.sum()))] = 1
    return x


def _step(p: LemmaParams, spec: NetworkSpec, windows: np.ndarray,
          steps: int = 1) -> Iterator[np.ndarray]:
    """Advance a batch of windows (or of configurations, for history 1)
    ``steps`` times with the inputs of its oldest frame held, yielding the
    new (B, N) frame of each step as it is made. Only the current window is
    kept, so an event that reads the frames as they come holds one window
    whatever the step count."""
    frames = np.asarray(windows, dtype=np.uint8)
    if frames.ndim == 2:
        frames = frames[:, None, :]
    x_rows = frames[:, 0, spec.input_indices]
    runner = BatchRunner(spec, RandomnessContract(p.seed))
    trials = np.arange(frames.shape[0], dtype=np.int64)
    h = spec.history
    for k in range(steps):
        frames = runner.advance(frames, h + k, trials, x_rows)
        yield frames[:, -1, :]


def _last(frames: Iterator[np.ndarray]) -> np.ndarray:
    """The last frame of a step iterator, reading past the earlier ones."""
    for frame in frames:
        pass
    return frame


def _column(bits, rows: int) -> np.ndarray:
    """One inhibitor bit per row, or one for every row."""
    return np.broadcast_to(np.asarray(bits, dtype=np.uint8), (rows,))[:, None]


def _t_config(x, y, a_s, a_c) -> np.ndarray:
    return np.concatenate(
        [x, y, _column(a_s, len(x)), _column(a_c, len(x))], axis=1
    ).astype(np.uint8)


def _l_window(frames_old, frames_new) -> np.ndarray:
    return np.stack([frames_old, frames_new], axis=1).astype(np.uint8)


def _l_frame(x, y, a_s, chain) -> np.ndarray:
    """Graded-family frame; a scalar ``chain`` sets every level of every row."""
    chain = np.broadcast_to(np.asarray(chain, dtype=np.uint8), (len(x), ceil_log2(x.shape[1])))
    return np.concatenate(
        [x, y, _column(a_s, len(x)), chain], axis=1
    ).astype(np.uint8)


def _eps(p: LemmaParams) -> float:
    """The per-neuron error rate exp(-gamma/2) the bounds are built from."""
    return math.exp(-p.gamma / 2)


def _outputs(p: LemmaParams, frame: np.ndarray) -> np.ndarray:
    return frame[:, p.n : 2 * p.n]


# -- two-inhibitor samplers -------------------------------------------------


def _no_bits(g, rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.uint8)


def _silent_first_bits(g, rows: int, cols: int) -> np.ndarray:
    x = _rand_bits(g, rows, cols)
    x[:, 0] = 0
    return x


def _random_config(g, p: LemmaParams, inputs: Callable = _rand_bits,
                   outputs: Callable = _rand_bits):
    """Inputs and outputs from the drawers ``(g, B, n) -> bits``, random inhibitors."""
    B = p.samples
    x = inputs(g, B, p.n)
    y = outputs(g, B, p.n)
    return _t_config(x, y, g.integers(0, 2, B), g.integers(0, 2, B)), None


def _valid_output_config(g, p: LemmaParams, near: bool):
    """A valid configuration (with ``near``, under both inhibitors); context (x, it)."""
    B = p.samples
    x = _x_mixed(g, B, p.n)
    nonzero = x.sum(axis=1) >= 1
    w = _pick_firing(g, x)
    y = np.zeros((B, p.n), dtype=np.uint8)
    y[nonzero, w[nonzero]] = 1
    want = np.minimum(1, x.sum(axis=1)).astype(np.uint8)
    cfg = _t_config(x, y, 1, 1) if near else _t_config(x, y, want, 0)
    return cfg, (x, cfg)


def _backed_outputs_config(g, p: LemmaParams, both: bool, ensure_winner: bool = False):
    """Backed outputs y under one inhibitor or, if ``both``, both; context y."""
    B = p.samples
    x = _rand_bits(g, B, p.n)
    y = (x & _rand_bits(g, B, p.n)).astype(np.uint8)
    if not both:
        s = g.integers(0, 2, B).astype(np.uint8)
        return _t_config(x, y, s, 1 - s), y
    if ensure_winner:
        x[:, 0] = 1
        y[:, 0] = 1
    return _t_config(x, y, 1, 1), y


def _kwta_config(g, p: LemmaParams):
    """k >= 2 backed outputs under both inhibitors; context (x, k)."""
    B = p.samples
    k = g.integers(2, p.n + 1, size=B)
    y = _exactly_k(g, B, p.n, k)
    x = (y | _rand_bits(g, B, p.n)).astype(np.uint8)
    return _t_config(x, y, 1, 1), (x, k)


def _reset_config(g, p: LemmaParams):
    B = p.samples
    x = _x_mixed(g, B, p.n)
    return _t_config(x, _rand_bits(g, B, p.n), 0, 0), x


def _inhibitors_are(p: LemmaParams, ctx, frames, a_s: int, a_c: int):
    frame = next(frames)
    return (frame[:, 2 * p.n] == a_s) & (frame[:, 2 * p.n + 1] == a_c)


def _shrinks(p: LemmaParams, ctx, frames):
    x, k = ctx
    cls = two_inhibitor_classes(x, next(frames))
    return cls.near_valid | (cls.k_wta & (cls.k <= k)) | (cls.k == 0)


def _zero_and_near_valid(p: LemmaParams, ctx, frames):
    cls = two_inhibitor_classes(ctx[0], next(frames))
    return cls.k == 0, cls.near_valid


def _active_within(p: LemmaParams, x, frames):
    hit = np.zeros(p.samples, dtype=bool)
    for nxt in frames:
        cls = two_inhibitor_classes(x, nxt)
        hit |= cls.valid | cls.near_valid | cls.k_wta
    return hit


# -- graded-inhibition samplers ----------------------------------------------


def _levels(p: LemmaParams) -> int:
    return ceil_log2(p.n)


def _rand_l_frame(g, p: LemmaParams, B: int, x: np.ndarray) -> np.ndarray:
    return _l_frame(
        x, _rand_bits(g, B, p.n), g.integers(0, 2, B), _rand_bits(g, B, _levels(p))
    )


def _random_window(g, p: LemmaParams, inputs: Callable = _rand_bits, uninhibited: bool = False):
    """Random window, its latest frame uninhibited if ``uninhibited``; context x."""
    B = p.samples
    x = inputs(g, B, p.n)
    old = _rand_l_frame(g, p, B, x)
    if uninhibited:
        new = _l_frame(x, _rand_bits(g, B, p.n), 0, 0)
    else:
        new = _rand_l_frame(g, p, B, x)
    return _l_window(old, new), x


def _recent_outputs_window(g, p: LemmaParams, fired: bool):
    """Outputs silent in both frames or, if ``fired``, firing in at least one."""
    B = p.samples
    L = _levels(p)
    x = _rand_bits(g, B, p.n)
    if fired:
        y_old = _rand_bits(g, B, p.n)
        y_new = _rand_bits(g, B, p.n)
        none = (y_old.sum(axis=1) + y_new.sum(axis=1)) == 0
        y_new[none, g.integers(0, p.n, size=int(none.sum()))] = 1
    else:
        y_old, y_new = _no_bits(g, B, p.n), _no_bits(g, B, p.n)
    old = _l_frame(x, y_old, g.integers(0, 2, B), _rand_bits(g, B, L))
    new = _l_frame(x, y_new, g.integers(0, 2, B), _rand_bits(g, B, L))
    return _l_window(old, new), None


def _graded_level_and_count(g, p: LemmaParams, B: int, low_zero: bool):
    i_max = int(math.floor(math.log2(p.n)))
    lv = g.integers(1, i_max + 1, size=B)
    lo = np.zeros(B, dtype=np.int64) if low_zero else (2 ** lv)
    hi = np.minimum(2 ** (lv + 1) - 1, p.n)
    k = lo + (g.random(B) * (hi - lo + 1)).astype(np.int64)
    return lv, k


def _count_window(g, p: LemmaParams, matched: bool):
    """k <= 1 (if ``matched``, 2^i <= k < 2^(i+1); context i) latest outputs."""
    B = p.samples
    x = _rand_bits(g, B, p.n)
    if matched:
        i, k = _graded_level_and_count(g, p, B, low_zero=False)
    else:
        i, k = None, g.integers(0, 2, size=B)
    y_new = _exactly_k(g, B, p.n, k)
    old = _rand_l_frame(g, p, B, x)
    new = _l_frame(x, y_new, g.integers(0, 2, B), _rand_bits(g, B, _levels(p)))
    return _l_window(old, new), i


def _chain_matches(p: LemmaParams, i, frames):
    levels = np.arange(1, _levels(p) + 1)[None, :]
    expect = (levels <= i[:, None]).astype(np.uint8)
    return np.all(next(frames)[:, 2 * p.n + 1 :] == expect, axis=1)


def _stability_only_window(g, p: LemmaParams):
    """Backed outputs, latest frame under a_s alone; context: the union of outputs."""
    B = p.samples
    x = _rand_bits(g, B, p.n)
    y_old = (x & _rand_bits(g, B, p.n)).astype(np.uint8)
    y_new = (x & _rand_bits(g, B, p.n)).astype(np.uint8)
    old = _l_frame(x, y_old, g.integers(0, 2, B), _rand_bits(g, B, _levels(p)))
    new = _l_frame(x, y_new, 1, 0)
    return _l_window(old, new), np.maximum(y_old, y_new)


def _graded_window(g, p: LemmaParams, B: int, level, k):
    """Window with winners firing in both frames and the chain at ``level``."""
    L = _levels(p)
    winners = _exactly_k(g, B, p.n, k)
    x = (winners | _rand_bits(g, B, p.n)).astype(np.uint8)
    chain_new = (np.arange(1, L + 1)[None, :] <= np.asarray(level).reshape(-1, 1))
    old = _l_frame(x, winners, g.integers(0, 2, B), _rand_bits(g, B, L))
    new = _l_frame(x, winners, 1, chain_new)
    return x, winners, _l_window(old, new)


def _level_window(g, p: LemmaParams, pin_first: bool):
    """1..n twice-firing winners (output 0 too if ``pin_first``) at p.level; context winners."""
    B = p.samples
    l = p.level
    if not 1 <= l <= _levels(p):
        raise UnknownLemma(f"level {l} outside 1..{_levels(p)}")
    k = g.integers(1, p.n + 1, size=B)
    _, winners, win = _graded_window(g, p, B, np.full(B, l), k)
    if pin_first:
        win[:, :, 0] = 1  # pin x_0
        win[:, :, p.n] = 1  # pin y_0 firing in both frames
    return win, winners


def _graded_count_window(g, p: LemmaParams, low_zero: bool):
    """2^i (0 if ``low_zero``) <= k < 2^(i+1) twice-firing winners at level i; context x."""
    lv, k = _graded_level_and_count(g, p, p.samples, low_zero)
    x, _, win = _graded_window(g, p, p.samples, lv, k)
    return win, x


def _near_stable_window(g, p: LemmaParams):
    """Context (x, the winner w)."""
    B = p.samples
    x = _x_mixed(g, B, p.n, zero_frac=0.0)
    w = _pick_firing(g, x)
    pattern = g.integers(0, 3, size=B)  # 0: old only, 1: new only, 2: both
    y_old = np.zeros((B, p.n), dtype=np.uint8)
    y_new = np.zeros((B, p.n), dtype=np.uint8)
    rows = np.arange(B)
    y_old[rows[pattern != 1], w[pattern != 1]] = 1
    y_new[rows[pattern != 0], w[pattern != 0]] = 1
    old = _l_frame(x, y_old, 1, _rand_bits(g, B, _levels(p)))
    new = _l_frame(x, y_new, 1, 0)
    return _l_window(old, new), (x, w)


def _next_near_stable(p: LemmaParams, ctx, frames):
    _, w = ctx
    nxt = next(frames)
    y2 = _outputs(p, nxt)
    return (
        (y2[np.arange(p.samples), w] == 1)
        & (y2.sum(axis=1) == 1)
        & (nxt[:, 2 * p.n] == 1)
        & (nxt[:, 2 * p.n + 1 :].sum(axis=1) == 0)
    )


def _holds(p: LemmaParams, ctx, frames):
    # a copy: a view would hold the whole first window through every step
    first = _outputs(p, next(frames)).copy()
    hit = valid_outputs(ctx[0], first)
    for nxt in frames:
        hit &= np.all(_outputs(p, nxt) == first, axis=1)
    return hit


def _first_output_fires(p: LemmaParams, ctx, frames):
    return next(frames)[:, p.n] == 1


# -- catalog ------------------------------------------------------------------


@dataclass(frozen=True)
class _Check:
    family: str
    description: str
    sample: Callable[[np.random.Generator, LemmaParams], tuple]
    steps: int | Callable[[LemmaParams], int]
    event: Callable[[LemmaParams, object, Iterator[np.ndarray]], object]
    kind: str
    bound: Callable[[LemmaParams], float]
    echo: tuple[str, ...] = ()


_CHECKS: dict[str, _Check] = {
    "3.4": _Check(
        TWO_INHIBITOR, "output with silent input fires anyway",
        partial(_random_config, inputs=_silent_first_bits), 1, _first_output_fires,
        "upper", _eps),
    "3.5.1": _Check(
        TWO_INHIBITOR, "no firing outputs: both inhibitors go silent",
        partial(_random_config, outputs=_no_bits), 1,
        partial(_inhibitors_are, a_s=0, a_c=0), "lower", lambda p: 1.0 - 2.0 * _eps(p)),
    "3.5.2": _Check(
        TWO_INHIBITOR, "one firing output: stability fires, convergence stays silent",
        partial(_random_config, outputs=lambda g, B, n: _exactly_k(g, B, n, 1)), 1,
        partial(_inhibitors_are, a_s=1, a_c=0), "lower", lambda p: 1.0 - 2.0 * _eps(p)),
    "3.5.3": _Check(
        TWO_INHIBITOR, "two or more firing outputs: both inhibitors fire",
        partial(_random_config, outputs=lambda g, B, n: _exactly_k(
            g, B, n, g.integers(2, n + 1, size=B))), 1,
        partial(_inhibitors_are, a_s=1, a_c=1), "lower", lambda p: 1.0 - 2.0 * _eps(p)),
    "3.6": _Check(
        TWO_INHIBITOR, "a valid configuration repeats unchanged",
        partial(_valid_output_config, near=False),
        1, lambda p, ctx, f: np.all(next(f) == ctx[1], axis=1),
        "lower", lambda p: 1.0 - (p.n + 2) * _eps(p)),
    "3.7": _Check(
        TWO_INHIBITOR, "silent input: the whole network is quiet within two steps",
        partial(_random_config, inputs=_no_bits),
        2, lambda p, _, f: _last(f)[:, p.n :].sum(axis=1) == 0,
        "lower", lambda p: 1.0 - 2.0 * (p.n + 1) * _eps(p)),
    "3.8": _Check(
        TWO_INHIBITOR, "exactly one inhibitor active: outputs repeat verbatim",
        partial(_backed_outputs_config, both=False),
        1, lambda p, y, f: np.all(_outputs(p, next(f)) == y, axis=1),
        "lower", lambda p: 1.0 - p.n * _eps(p)),
    "3.9.1": _Check(
        TWO_INHIBITOR, "both inhibitors active: no silent output starts firing",
        partial(_backed_outputs_config, both=True),
        1, lambda p, y, f: ~np.any(_outputs(p, next(f)) > y, axis=1),
        "lower", lambda p: 1.0 - p.n * _eps(p)),
    "3.9.2": _Check(
        TWO_INHIBITOR, "both inhibitors active: a firing winner survives a fair coin",
        partial(_backed_outputs_config, both=True, ensure_winner=True), 1, _first_output_fires,
        "exact", lambda p: 0.5),
    "3.10": _Check(
        TWO_INHIBITOR, "near-valid configuration settles into the valid one",
        partial(_valid_output_config, near=True),
        1, lambda p, ctx, f: two_inhibitor_classes(ctx[0], next(f)).valid,
        "lower", lambda p: 0.5 - (p.n + 2) * _eps(p)),
    "3.11.1": _Check(
        TWO_INHIBITOR, "competition only shrinks: fewer winners or a terminal state",
        _kwta_config, 1, _shrinks,
        "lower", lambda p: 1.0 - (p.n + 2) * _eps(p)),
    "3.11.2": _Check(
        TWO_INHIBITOR, "the firing-output count halves with a fair coin's odds",
        _kwta_config,
        1, lambda p, ctx, f: two_inhibitor_classes(ctx[0], next(f)).k <= np.ceil(ctx[1] / 2),
        "lower", lambda p: 0.5 - (p.n + 2) * _eps(p)),
    "3.11.3": _Check(
        TWO_INHIBITOR, "overshooting to zero outputs is no likelier than landing near-valid",
        _kwta_config, 1, _zero_and_near_valid,
        "upper_diff", lambda p: (p.n + 2) * _eps(p)),
    "3.12": _Check(
        TWO_INHIBITOR, "a reset restarts the competition into an active state",
        _reset_config, 3, _active_within,
        "lower", lambda p: 0.5 - 3.0 * (p.n + 2) * _eps(p)),
    "5.2": _Check(
        LOG_INHIBITOR, "output with silent input fires anyway",
        partial(_random_window, inputs=_silent_first_bits), 1, _first_output_fires,
        "upper", lambda p: math.exp(-3.0 * p.gamma / 2)),
    "5.3.1": _Check(
        LOG_INHIBITOR, "no output fired in either frame: stability inhibitor silent",
        partial(_recent_outputs_window, fired=False), 1,
        lambda p, _, f: next(f)[:, 2 * p.n] == 0, "lower", lambda p: 1.0 - _eps(p)),
    "5.3.2": _Check(
        LOG_INHIBITOR, "an output fired recently: stability inhibitor fires",
        partial(_recent_outputs_window, fired=True), 1,
        lambda p, _, f: next(f)[:, 2 * p.n] == 1, "lower", lambda p: 1.0 - _eps(p)),
    "5.4.1": _Check(
        LOG_INHIBITOR, "at most one firing output: the graded chain stays silent",
        partial(_count_window, matched=False),
        1, lambda p, _, f: next(f)[:, 2 * p.n + 1 :].sum(axis=1) == 0,
        "lower", lambda p: 1.0 - _levels(p) * _eps(p)),
    "5.4.2": _Check(
        LOG_INHIBITOR, "the graded chain fires exactly up to its matching level",
        partial(_count_window, matched=True), 1, _chain_matches,
        "lower", lambda p: 1.0 - _levels(p) * _eps(p)),
    "5.5": _Check(
        LOG_INHIBITOR, "one step from anywhere lands in a typical configuration",
        _random_window, 1, lambda p, x, f: typical(x, next(f)),
        "lower", lambda p: 1.0 - (p.n + _levels(p) + 1) * _eps(p)),
    "5.6": _Check(
        LOG_INHIBITOR, "stability inhibitor alone: outputs replay their recent union",
        _stability_only_window,
        1, lambda p, union, f: np.all(_outputs(p, next(f)) == union, axis=1),
        "lower", lambda p: 1.0 - p.n * _eps(p)),
    "5.7": _Check(
        LOG_INHIBITOR, "no inhibition: every driven output fires, nothing else does",
        partial(_random_window, uninhibited=True),
        1, lambda p, x, f: np.all(_outputs(p, next(f)) == x, axis=1),
        "lower", lambda p: 1.0 - p.n * _eps(p)),
    "5.8.1": _Check(
        LOG_INHIBITOR, "graded inhibition: only twice-firing outputs can survive",
        partial(_level_window, pin_first=False),
        1, lambda p, winners, f: ~np.any(_outputs(p, next(f)) > winners, axis=1),
        "lower", lambda p: 1.0 - p.n * math.exp(-2.0 * p.gamma)),
    "5.8.2": _Check(
        LOG_INHIBITOR, "a twice-firing winner survives with probability 1/(1+2^{level})",
        partial(_level_window, pin_first=True), 1, _first_output_fires,
        "exact", lambda p: 1.0 / (1.0 + 2.0 ** p.level), echo=("level",)),
    "5.9": _Check(
        LOG_INHIBITOR, "matched inhibition level: one step to a valid output",
        partial(_graded_count_window, low_zero=False),
        1, lambda p, x, f: valid_outputs(x, _outputs(p, next(f))),
        "lower", lambda p: 1.0 / 16.0 - p.n * math.exp(-2.0 * p.gamma)),
    "5.10": _Check(
        LOG_INHIBITOR, "excess inhibition level: one step to zero firing outputs",
        partial(_graded_count_window, low_zero=True),
        1, lambda p, _, f: _outputs(p, next(f)).sum(axis=1) == 0,
        "lower", lambda p: 1.0 / 8.0 - p.n * math.exp(-2.0 * p.gamma)),
    "5.11": _Check(
        LOG_INHIBITOR, "a near-stable window advances to the next near-stable window",
        _near_stable_window, 1, _next_near_stable,
        "lower", lambda p: 1.0 - (p.n + _levels(p) + 1) * _eps(p)),
    "5.12": _Check(
        LOG_INHIBITOR, "from a near-stable window the winner holds for t_s={t_s} steps",
        _near_stable_window, lambda p: p.t_s + 1, _holds,
        "lower", lambda p: 1.0 - 3.0 * p.t_s * p.n * _eps(p)),
}

GROUP_IDS = tuple(
    sorted(
        {key.rsplit(".", 1)[0] if key.count(".") == 2 else key for key in _CHECKS},
        key=lambda s: tuple(int(part) for part in s.split(".")),
    )
)


def _run_check(lemma_id: str, p: LemmaParams, spec: NetworkSpec) -> LemmaCheckReport:
    """Sample the row's class, step it, count the event and call the verdict."""
    row = _CHECKS[lemma_id]
    start, ctx = row.sample(_gen(p), p)
    steps = row.steps(p) if callable(row.steps) else row.steps
    hit = row.event(p, ctx, _step(p, spec, start, steps))
    bound = row.bound(p)
    details = {name: getattr(p, name) for name in row.echo}
    if row.kind == "upper_diff":
        zero, near = hit
        f0, f1 = float(zero.mean()), float(near.mean())
        se = math.sqrt((f0 * (1 - f0) + f1 * (1 - f1)) / p.samples)
        count = int(zero.sum() - near.sum())
        details.update(freq_zero=f0, freq_near_valid=f1)
    else:
        count, se = int(hit.sum()), None
    freq, ok = _verdict(row.kind, count, p.samples, bound, se)
    return LemmaCheckReport(
        lemma_id=lemma_id,
        description=row.description.format_map(vars(p)),
        frequency=freq,
        bound=bound,
        kind=row.kind,
        samples=p.samples,
        passed=ok,
        details=details,
    )


def case_ids(lemma_id: str) -> list[str]:
    if lemma_id in _CHECKS:
        return [lemma_id]
    sub = [key for key in _CHECKS if key.startswith(lemma_id + ".")]
    if not sub:
        raise UnknownLemma(f"no transition check named {lemma_id!r}")
    return sorted(sub)


def lemma_check(lemma_id: str, **params) -> list[LemmaCheckReport]:
    """Run one check id (or a whole group like ``3.5``) on the catalog's
    network family, with the ``LemmaParams`` fields given as keywords; any
    other keyword raises ``WtaLabError``."""
    unknown = sorted(set(params) - {f.name for f in fields(LemmaParams)})
    if unknown:
        raise WtaLabError(f"lemma_check takes no parameter {', '.join(unknown)}")
    p = LemmaParams(**params)
    ids = case_ids(lemma_id)
    variant = _CHECKS[ids[0]].family  # a check id prefix never spans both families
    family = build(variant, p.n, p.gamma)
    return [_run_check(cid, p, family) for cid in ids]
