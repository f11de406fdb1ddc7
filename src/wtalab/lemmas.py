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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .builders import (
    LOG_INHIBITOR,
    TWO_INHIBITOR,
    build,
    build_log_inhibitor,
    build_two_inhibitor,
    ceil_log2,
)
from .errors import UnknownLemma, VariantMismatch
from .experiments import wilson_interval
from .network import NetworkSpec
from .randomness import RandomnessContract
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


def _report(lemma_id, description, kind, count, samples, bound, se=None, **details):
    freq, ok = _verdict(kind, count, samples, bound, se)
    return LemmaCheckReport(
        lemma_id=lemma_id,
        description=description,
        frequency=freq,
        bound=bound,
        kind=kind,
        samples=samples,
        passed=ok,
        details=details,
    )


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


def _simulate(spec: NetworkSpec, windows0: np.ndarray, x_rows: np.ndarray,
              steps: int, seed: int) -> list[np.ndarray]:
    """Advance a batch ``steps`` times; returns the new frame after each step."""
    rng = RandomnessContract(seed)
    runner = BatchRunner(spec, rng)
    trials = np.arange(windows0.shape[0], dtype=np.int64)
    frames = np.asarray(windows0, dtype=np.uint8)
    h = spec.history
    out = []
    for k in range(steps):
        frames = runner.advance(frames, h + k, trials, x_rows)
        out.append(frames[:, -1, :])
    return out


def _t_config(x, y, a_s, a_c) -> np.ndarray:
    return np.concatenate(
        [x, y, np.asarray(a_s)[:, None], np.asarray(a_c)[:, None]], axis=1
    ).astype(np.uint8)


def _t_step(p: LemmaParams, config: np.ndarray, steps: int = 1):
    spec = build_two_inhibitor(p.n, p.gamma)
    return _simulate(spec, config[:, None, :], config[:, : p.n], steps, p.seed)


def _l_window(x, frames_old, frames_new) -> np.ndarray:
    return np.stack([frames_old, frames_new], axis=1).astype(np.uint8)


def _l_frame(x, y, a_s, chain) -> np.ndarray:
    return np.concatenate(
        [x, y, np.asarray(a_s)[:, None], chain], axis=1
    ).astype(np.uint8)


def _l_step(p: LemmaParams, window: np.ndarray, steps: int = 1):
    spec = build_log_inhibitor(p.n, p.gamma)
    return _simulate(spec, window, window[:, 0, : p.n], steps, p.seed)


def _split_t(p: LemmaParams, cfg: np.ndarray):
    n = p.n
    return cfg[:, :n], cfg[:, n : 2 * n], cfg[:, 2 * n], cfg[:, 2 * n + 1]


def _split_l(p: LemmaParams, cfg: np.ndarray):
    n = p.n
    return cfg[:, :n], cfg[:, n : 2 * n], cfg[:, 2 * n], cfg[:, 2 * n + 1 :]


def _valid_out_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    want = np.minimum(1, x.sum(axis=1))
    return (~np.any(y > x, axis=1)) & (y.sum(axis=1) == want)


# -- two-inhibitor checks ---------------------------------------------------


def _chk_3_4(p: LemmaParams):
    g = _gen(p)
    B = p.samples
    x = _rand_bits(g, B, p.n)
    x[:, 0] = 0
    cfg = _t_config(x, _rand_bits(g, B, p.n), g.integers(0, 2, B), g.integers(0, 2, B))
    (nxt,) = _t_step(p, cfg)
    count = int((nxt[:, p.n] == 1).sum())
    return _report(
        "3.4", "output with silent input fires anyway", "upper",
        count, B, math.exp(-p.gamma / 2),
    )


def _chk_3_5(p: LemmaParams, case: int):
    g = _gen(p)
    B = p.samples
    x = _rand_bits(g, B, p.n)
    if case == 1:
        y = np.zeros((B, p.n), dtype=np.uint8)
        desc = "no firing outputs: both inhibitors go silent"
    elif case == 2:
        y = _exactly_k(g, B, p.n, 1)
        desc = "one firing output: stability fires, convergence stays silent"
    else:
        y = _exactly_k(g, B, p.n, g.integers(2, p.n + 1, size=B))
        desc = "two or more firing outputs: both inhibitors fire"
    cfg = _t_config(x, y, g.integers(0, 2, B), g.integers(0, 2, B))
    (nxt,) = _t_step(p, cfg)
    a_s, a_c = nxt[:, 2 * p.n], nxt[:, 2 * p.n + 1]
    if case == 1:
        hit = (a_s == 0) & (a_c == 0)
    elif case == 2:
        hit = (a_s == 1) & (a_c == 0)
    else:
        hit = (a_s == 1) & (a_c == 1)
    return _report(
        f"3.5.{case}", desc, "lower", int(hit.sum()), B,
        1.0 - 2.0 * math.exp(-p.gamma / 2),
    )


def _valid_t_config(g, p: LemmaParams, B: int):
    x = _x_mixed(g, B, p.n)
    nonzero = x.sum(axis=1) >= 1
    w = _pick_firing(g, x)
    y = np.zeros((B, p.n), dtype=np.uint8)
    y[nonzero, w[nonzero]] = 1
    want = np.minimum(1, x.sum(axis=1)).astype(np.uint8)
    return x, y, want


def _chk_3_6(p: LemmaParams):
    g = _gen(p)
    B = p.samples
    x, y, want = _valid_t_config(g, p, B)
    cfg = _t_config(x, y, want, np.zeros(B, dtype=np.uint8))
    (nxt,) = _t_step(p, cfg)
    hit = np.all(nxt == cfg, axis=1)
    return _report(
        "3.6", "a valid configuration repeats unchanged", "lower",
        int(hit.sum()), B, 1.0 - (p.n + 2) * math.exp(-p.gamma / 2),
    )


def _chk_3_7(p: LemmaParams):
    g = _gen(p)
    B = p.samples
    x = np.zeros((B, p.n), dtype=np.uint8)
    cfg = _t_config(x, _rand_bits(g, B, p.n), g.integers(0, 2, B), g.integers(0, 2, B))
    _, second = _t_step(p, cfg, steps=2)
    hit = second[:, p.n :].sum(axis=1) == 0
    return _report(
        "3.7", "silent input: the whole network is quiet within two steps",
        "lower", int(hit.sum()), B, 1.0 - 2.0 * (p.n + 1) * math.exp(-p.gamma / 2),
    )


def _chk_3_8(p: LemmaParams):
    g = _gen(p)
    B = p.samples
    x = _rand_bits(g, B, p.n)
    y = (x & _rand_bits(g, B, p.n)).astype(np.uint8)
    s = g.integers(0, 2, B).astype(np.uint8)
    cfg = _t_config(x, y, s, 1 - s)
    (nxt,) = _t_step(p, cfg)
    hit = np.all(nxt[:, p.n : 2 * p.n] == y, axis=1)
    return _report(
        "3.8", "exactly one inhibitor active: outputs repeat verbatim",
        "lower", int(hit.sum()), B, 1.0 - p.n * math.exp(-p.gamma / 2),
    )


def _both_inhibitor_config(g, p: LemmaParams, B: int, ensure_winner: bool):
    x = _rand_bits(g, B, p.n)
    y = (x & _rand_bits(g, B, p.n)).astype(np.uint8)
    if ensure_winner:
        x[:, 0] = 1
        y[:, 0] = 1
    ones = np.ones(B, dtype=np.uint8)
    return x, y, _t_config(x, y, ones, ones)


def _chk_3_9(p: LemmaParams, case: int):
    g = _gen(p)
    B = p.samples
    x, y, cfg = _both_inhibitor_config(g, p, B, ensure_winner=(case == 2))
    (nxt,) = _t_step(p, cfg)
    y2 = nxt[:, p.n : 2 * p.n]
    if case == 1:
        hit = ~np.any(y2 > y, axis=1)
        return _report(
            "3.9.1", "both inhibitors active: no silent output starts firing",
            "lower", int(hit.sum()), B, 1.0 - p.n * math.exp(-p.gamma / 2),
        )
    hit = y2[:, 0] == 1
    return _report(
        "3.9.2", "both inhibitors active: a firing winner survives a fair coin",
        "exact", int(hit.sum()), B, 0.5,
    )


def _chk_3_10(p: LemmaParams):
    g = _gen(p)
    B = p.samples
    x, y, want = _valid_t_config(g, p, B)
    ones = np.ones(B, dtype=np.uint8)
    cfg = _t_config(x, y, ones, ones)
    (nxt,) = _t_step(p, cfg)
    _, y2, a_s2, a_c2 = _split_t(p, nxt)
    hit = _valid_out_rows(x, y2) & (a_s2 == want) & (a_c2 == 0)
    return _report(
        "3.10", "near-valid configuration settles into the valid one",
        "lower", int(hit.sum()), B, 0.5 - (p.n + 2) * math.exp(-p.gamma / 2),
    )


def _kwta_config(g, p: LemmaParams, B: int):
    k = g.integers(2, p.n + 1, size=B)
    y = _exactly_k(g, B, p.n, k)
    x = (y | _rand_bits(g, B, p.n)).astype(np.uint8)
    ones = np.ones(B, dtype=np.uint8)
    return x, y, k, _t_config(x, y, ones, ones)


def _chk_3_11(p: LemmaParams, case: int):
    g = _gen(p)
    B = p.samples
    x, y, k, cfg = _kwta_config(g, p, B)
    (nxt,) = _t_step(p, cfg)
    _, y2, a_s2, a_c2 = _split_t(p, nxt)
    k2 = y2.sum(axis=1)
    near = _valid_out_rows(x, y2) & (a_s2 == 1) & (a_c2 == 1)
    kwta2 = (~np.any(y2 > x, axis=1)) & (k2 >= 2) & (a_s2 == 1) & (a_c2 == 1)
    slack = (p.n + 2) * math.exp(-p.gamma / 2)
    if case == 1:
        hit = near | (kwta2 & (k2 <= k)) | (k2 == 0)
        return _report(
            "3.11.1", "competition only shrinks: fewer winners or a terminal state",
            "lower", int(hit.sum()), B, 1.0 - slack,
        )
    if case == 2:
        hit = k2 <= np.ceil(k / 2)
        return _report(
            "3.11.2", "the firing-output count halves with a fair coin's odds",
            "lower", int(hit.sum()), B, 0.5 - slack,
        )
    f0 = float((k2 == 0).mean())
    f1 = float(near.mean())
    se = math.sqrt((f0 * (1 - f0) + f1 * (1 - f1)) / B)
    return _report(
        "3.11.3",
        "overshooting to zero outputs is no likelier than landing near-valid",
        "upper_diff", int((k2 == 0).sum() - near.sum()), B, slack, se=se,
        freq_zero=f0, freq_near_valid=f1,
    )


def _chk_3_12(p: LemmaParams):
    g = _gen(p)
    B = p.samples
    x = _x_mixed(g, B, p.n)
    zeros = np.zeros(B, dtype=np.uint8)
    cfg = _t_config(x, _rand_bits(g, B, p.n), zeros, zeros)
    steps = _t_step(p, cfg, steps=3)
    want = np.minimum(1, x.sum(axis=1))
    hit = np.zeros(B, dtype=bool)
    for nxt in steps:
        _, y2, a_s2, a_c2 = _split_t(p, nxt)
        backed = ~np.any(y2 > x, axis=1)
        valid = backed & (y2.sum(axis=1) == want) & (a_c2 == 0) & (a_s2 == want)
        near = _valid_out_rows(x, y2) & (a_s2 == 1) & (a_c2 == 1)
        kwta2 = backed & (y2.sum(axis=1) >= 2) & (a_s2 == 1) & (a_c2 == 1)
        hit |= valid | near | kwta2
    return _report(
        "3.12", "a reset restarts the competition into an active state",
        "lower", int(hit.sum()), B, 0.5 - 3.0 * (p.n + 2) * math.exp(-p.gamma / 2),
    )


# -- graded-inhibition checks ------------------------------------------------


def _levels(p: LemmaParams) -> int:
    return ceil_log2(p.n)


def _rand_l_frame(g, p: LemmaParams, B: int, x: np.ndarray) -> np.ndarray:
    return _l_frame(
        x, _rand_bits(g, B, p.n), g.integers(0, 2, B), _rand_bits(g, B, _levels(p))
    )


def _chk_5_2(p: LemmaParams):
    g = _gen(p)
    B = p.samples
    x = _rand_bits(g, B, p.n)
    x[:, 0] = 0
    win = _l_window(x, _rand_l_frame(g, p, B, x), _rand_l_frame(g, p, B, x))
    (nxt,) = _l_step(p, win)
    count = int((nxt[:, p.n] == 1).sum())
    return _report(
        "5.2", "output with silent input fires anyway", "upper",
        count, B, math.exp(-3.0 * p.gamma / 2),
    )


def _chk_5_3(p: LemmaParams, case: int):
    g = _gen(p)
    B = p.samples
    L = _levels(p)
    x = _rand_bits(g, B, p.n)
    if case == 1:
        y_old = np.zeros((B, p.n), dtype=np.uint8)
        y_new = np.zeros((B, p.n), dtype=np.uint8)
        desc = "no output fired in either frame: stability inhibitor silent"
    else:
        y_old = _rand_bits(g, B, p.n)
        y_new = _rand_bits(g, B, p.n)
        none = (y_old.sum(axis=1) + y_new.sum(axis=1)) == 0
        y_new[none, g.integers(0, p.n, size=int(none.sum()))] = 1
        desc = "an output fired recently: stability inhibitor fires"
    old = _l_frame(x, y_old, g.integers(0, 2, B), _rand_bits(g, B, L))
    new = _l_frame(x, y_new, g.integers(0, 2, B), _rand_bits(g, B, L))
    (nxt,) = _l_step(p, _l_window(x, old, new))
    a_s2 = nxt[:, 2 * p.n]
    hit = (a_s2 == 0) if case == 1 else (a_s2 == 1)
    return _report(
        f"5.3.{case}", desc, "lower", int(hit.sum()), B,
        1.0 - math.exp(-p.gamma / 2),
    )


def _chk_5_4(p: LemmaParams, case: int):
    g = _gen(p)
    B = p.samples
    L = _levels(p)
    x = _rand_bits(g, B, p.n)
    if case == 1:
        k = g.integers(0, 2, size=B)
        desc = "at most one firing output: the graded chain stays silent"
    else:
        i_max = int(math.floor(math.log2(p.n)))
        i = g.integers(1, i_max + 1, size=B)
        hi = np.minimum(2 ** (i + 1) - 1, p.n)
        k = (2 ** i + (g.random(B) * (hi - 2 ** i + 1)).astype(np.int64)).astype(np.int64)
        desc = "the graded chain fires exactly up to its matching level"
    y_new = _exactly_k(g, B, p.n, k)
    old = _rand_l_frame(g, p, B, x)
    new = _l_frame(x, y_new, g.integers(0, 2, B), _rand_bits(g, B, L))
    (nxt,) = _l_step(p, _l_window(x, old, new))
    chain2 = nxt[:, 2 * p.n + 1 :]
    if case == 1:
        hit = chain2.sum(axis=1) == 0
    else:
        levels = np.arange(1, L + 1)[None, :]
        expect = (levels <= i[:, None]).astype(np.uint8)
        hit = np.all(chain2 == expect, axis=1)
    return _report(
        f"5.4.{case}", desc, "lower", int(hit.sum()), B,
        1.0 - L * math.exp(-p.gamma / 2),
    )


def _chk_5_5(p: LemmaParams):
    g = _gen(p)
    B = p.samples
    x = _rand_bits(g, B, p.n)
    win = _l_window(x, _rand_l_frame(g, p, B, x), _rand_l_frame(g, p, B, x))
    (nxt,) = _l_step(p, win)
    _, y2, a_s2, chain2 = _split_l(p, nxt)
    levels = np.concatenate([a_s2[:, None], chain2], axis=1).astype(np.int8)
    hit = (~np.any(y2 > x, axis=1)) & np.all(np.diff(levels, axis=1) <= 0, axis=1)
    return _report(
        "5.5", "one step from anywhere lands in a typical configuration",
        "lower", int(hit.sum()), B,
        1.0 - (p.n + _levels(p) + 1) * math.exp(-p.gamma / 2),
    )


def _chk_5_6(p: LemmaParams):
    g = _gen(p)
    B = p.samples
    L = _levels(p)
    x = _rand_bits(g, B, p.n)
    y_old = (x & _rand_bits(g, B, p.n)).astype(np.uint8)
    y_new = (x & _rand_bits(g, B, p.n)).astype(np.uint8)
    old = _l_frame(x, y_old, g.integers(0, 2, B), _rand_bits(g, B, L))
    new = _l_frame(x, y_new, np.ones(B, dtype=np.uint8), np.zeros((B, L), dtype=np.uint8))
    (nxt,) = _l_step(p, _l_window(x, old, new))
    y2 = nxt[:, p.n : 2 * p.n]
    hit = np.all(y2 == np.maximum(y_old, y_new), axis=1)
    return _report(
        "5.6", "stability inhibitor alone: outputs replay their recent union",
        "lower", int(hit.sum()), B, 1.0 - p.n * math.exp(-p.gamma / 2),
    )


def _chk_5_7(p: LemmaParams):
    g = _gen(p)
    B = p.samples
    L = _levels(p)
    x = _rand_bits(g, B, p.n)
    old = _rand_l_frame(g, p, B, x)
    new = _l_frame(x, _rand_bits(g, B, p.n), np.zeros(B, dtype=np.uint8),
                   np.zeros((B, L), dtype=np.uint8))
    (nxt,) = _l_step(p, _l_window(x, old, new))
    hit = np.all(nxt[:, p.n : 2 * p.n] == x, axis=1)
    return _report(
        "5.7", "no inhibition: every driven output fires, nothing else does",
        "lower", int(hit.sum()), B, 1.0 - p.n * math.exp(-p.gamma / 2),
    )


def _graded_window(g, p: LemmaParams, B: int, level, k):
    """Window with winners firing in both frames and the chain at ``level``."""
    L = _levels(p)
    winners = _exactly_k(g, B, p.n, k)
    x = (winners | _rand_bits(g, B, p.n)).astype(np.uint8)
    chain_new = (np.arange(1, L + 1)[None, :] <= np.asarray(level).reshape(-1, 1))
    old = _l_frame(x, winners, g.integers(0, 2, B), _rand_bits(g, B, L))
    new = _l_frame(x, winners, np.ones(B, dtype=np.uint8),
                   chain_new.astype(np.uint8))
    return x, winners, _l_window(x, old, new)


def _chk_5_8(p: LemmaParams, case: int):
    g = _gen(p)
    B = p.samples
    l = p.level
    if not 1 <= l <= _levels(p):
        raise UnknownLemma(f"level {l} outside 1..{_levels(p)}")
    k = g.integers(1, p.n + 1, size=B)
    x, winners, win = _graded_window(g, p, B, np.full(B, l), k)
    if case == 2:
        win[:, :, 0] = 1  # pin x_0
        win[:, :, p.n] = 1  # pin y_0 firing in both frames
        winners = winners.copy()
        winners[:, 0] = 1
        x = win[:, 0, : p.n]
    (nxt,) = _l_step(p, win)
    y2 = nxt[:, p.n : 2 * p.n]
    if case == 1:
        hit = ~np.any(y2 > winners, axis=1)
        return _report(
            "5.8.1", "graded inhibition: only twice-firing outputs can survive",
            "lower", int(hit.sum()), B, 1.0 - p.n * math.exp(-2.0 * p.gamma),
        )
    hit = y2[:, 0] == 1
    return _report(
        "5.8.2",
        f"a twice-firing winner survives with probability 1/(1+2^{l})",
        "exact", int(hit.sum()), B, 1.0 / (1.0 + 2.0 ** l), level=l,
    )


def _graded_level_and_count(g, p: LemmaParams, B: int, low_zero: bool):
    i_max = int(math.floor(math.log2(p.n)))
    lv = g.integers(1, i_max + 1, size=B)
    lo = np.zeros(B, dtype=np.int64) if low_zero else (2 ** lv)
    hi = np.minimum(2 ** (lv + 1) - 1, p.n)
    k = lo + (g.random(B) * (hi - lo + 1)).astype(np.int64)
    return lv, k


def _chk_5_9(p: LemmaParams):
    g = _gen(p)
    B = p.samples
    lv, k = _graded_level_and_count(g, p, B, low_zero=False)
    x, winners, win = _graded_window(g, p, B, lv, k)
    (nxt,) = _l_step(p, win)
    y2 = nxt[:, p.n : 2 * p.n]
    hit = _valid_out_rows(x, y2)
    return _report(
        "5.9", "matched inhibition level: one step to a valid output",
        "lower", int(hit.sum()), B,
        1.0 / 16.0 - p.n * math.exp(-2.0 * p.gamma),
    )


def _chk_5_10(p: LemmaParams):
    g = _gen(p)
    B = p.samples
    lv, k = _graded_level_and_count(g, p, B, low_zero=True)
    x, winners, win = _graded_window(g, p, B, lv, k)
    (nxt,) = _l_step(p, win)
    hit = nxt[:, p.n : 2 * p.n].sum(axis=1) == 0
    return _report(
        "5.10", "excess inhibition level: one step to zero firing outputs",
        "lower", int(hit.sum()), B, 1.0 / 8.0 - p.n * math.exp(-2.0 * p.gamma),
    )


def _near_stable_window(g, p: LemmaParams, B: int):
    L = _levels(p)
    x = _x_mixed(g, B, p.n, zero_frac=0.0)
    w = _pick_firing(g, x)
    pattern = g.integers(0, 3, size=B)  # 0: old only, 1: new only, 2: both
    y_old = np.zeros((B, p.n), dtype=np.uint8)
    y_new = np.zeros((B, p.n), dtype=np.uint8)
    rows = np.arange(B)
    y_old[rows[pattern != 1], w[pattern != 1]] = 1
    y_new[rows[pattern != 0], w[pattern != 0]] = 1
    ones = np.ones(B, dtype=np.uint8)
    old = _l_frame(x, y_old, ones, _rand_bits(g, B, L))
    new = _l_frame(x, y_new, ones, np.zeros((B, L), dtype=np.uint8))
    return x, w, _l_window(x, old, new)


def _chk_5_11(p: LemmaParams):
    g = _gen(p)
    B = p.samples
    x, w, win = _near_stable_window(g, p, B)
    (nxt,) = _l_step(p, win)
    _, y2, a_s2, chain2 = _split_l(p, nxt)
    rows = np.arange(B)
    hit = (
        (y2[rows, w] == 1)
        & (y2.sum(axis=1) == 1)
        & (a_s2 == 1)
        & (chain2.sum(axis=1) == 0)
    )
    return _report(
        "5.11", "a near-stable window advances to the next near-stable window",
        "lower", int(hit.sum()), B,
        1.0 - (p.n + _levels(p) + 1) * math.exp(-p.gamma / 2),
    )


def _chk_5_12(p: LemmaParams):
    g = _gen(p)
    B = p.samples
    x, w, win = _near_stable_window(g, p, B)
    steps = _l_step(p, win, steps=p.t_s + 1)
    first = steps[0][:, p.n : 2 * p.n]
    hit = _valid_out_rows(x, first)
    for nxt in steps[1:]:
        hit &= np.all(nxt[:, p.n : 2 * p.n] == first, axis=1)
    return _report(
        "5.12",
        f"from a near-stable window the winner holds for t_s={p.t_s} steps",
        "lower", int(hit.sum()), B,
        1.0 - 3.0 * p.t_s * p.n * math.exp(-p.gamma / 2),
    )


# -- catalog ------------------------------------------------------------------

_CASES: dict[str, tuple[str, Callable[[LemmaParams], LemmaCheckReport]]] = {
    "3.4": (TWO_INHIBITOR, _chk_3_4),
    "3.5.1": (TWO_INHIBITOR, lambda p: _chk_3_5(p, 1)),
    "3.5.2": (TWO_INHIBITOR, lambda p: _chk_3_5(p, 2)),
    "3.5.3": (TWO_INHIBITOR, lambda p: _chk_3_5(p, 3)),
    "3.6": (TWO_INHIBITOR, _chk_3_6),
    "3.7": (TWO_INHIBITOR, _chk_3_7),
    "3.8": (TWO_INHIBITOR, _chk_3_8),
    "3.9.1": (TWO_INHIBITOR, lambda p: _chk_3_9(p, 1)),
    "3.9.2": (TWO_INHIBITOR, lambda p: _chk_3_9(p, 2)),
    "3.10": (TWO_INHIBITOR, _chk_3_10),
    "3.11.1": (TWO_INHIBITOR, lambda p: _chk_3_11(p, 1)),
    "3.11.2": (TWO_INHIBITOR, lambda p: _chk_3_11(p, 2)),
    "3.11.3": (TWO_INHIBITOR, lambda p: _chk_3_11(p, 3)),
    "3.12": (TWO_INHIBITOR, _chk_3_12),
    "5.2": (LOG_INHIBITOR, _chk_5_2),
    "5.3.1": (LOG_INHIBITOR, lambda p: _chk_5_3(p, 1)),
    "5.3.2": (LOG_INHIBITOR, lambda p: _chk_5_3(p, 2)),
    "5.4.1": (LOG_INHIBITOR, lambda p: _chk_5_4(p, 1)),
    "5.4.2": (LOG_INHIBITOR, lambda p: _chk_5_4(p, 2)),
    "5.5": (LOG_INHIBITOR, _chk_5_5),
    "5.6": (LOG_INHIBITOR, _chk_5_6),
    "5.7": (LOG_INHIBITOR, _chk_5_7),
    "5.8.1": (LOG_INHIBITOR, lambda p: _chk_5_8(p, 1)),
    "5.8.2": (LOG_INHIBITOR, lambda p: _chk_5_8(p, 2)),
    "5.9": (LOG_INHIBITOR, _chk_5_9),
    "5.10": (LOG_INHIBITOR, _chk_5_10),
    "5.11": (LOG_INHIBITOR, _chk_5_11),
    "5.12": (LOG_INHIBITOR, _chk_5_12),
}

GROUP_IDS = tuple(
    sorted(
        {key.rsplit(".", 1)[0] if key.count(".") == 2 else key for key in _CASES},
        key=lambda s: tuple(int(part) for part in s.split(".")),
    )
)


def case_ids(lemma_id: str) -> list[str]:
    if lemma_id in _CASES:
        return [lemma_id]
    sub = [key for key in _CASES if key.startswith(lemma_id + ".")]
    if not sub:
        raise UnknownLemma(f"no transition check named {lemma_id!r}")
    return sorted(sub)


def lemma_variant(lemma_id: str) -> str:
    return _CASES[case_ids(lemma_id)[0]][0]


def lemma_check(
    lemma_id: str,
    params: LemmaParams | None = None,
    spec: NetworkSpec | None = None,
    **overrides,
) -> list[LemmaCheckReport]:
    """Run one check id (or a whole group like ``3.5``) and report.

    ``spec``, when given, must be exactly the catalog's network family at the
    requested size and scale; anything else raises ``VariantMismatch``.
    """
    if params is not None and overrides:
        raise ValueError("pass either params or keyword overrides, not both")
    p = params if params is not None else LemmaParams(**overrides)
    ids = case_ids(lemma_id)
    reports = []
    for cid in ids:
        variant, fn = _CASES[cid]
        if spec is not None and spec != build(variant, p.n, p.gamma):
            raise VariantMismatch(
                f"supplied network is not the {variant} family at "
                f"n={p.n}, gamma={p.gamma}"
            )
        reports.append(fn(p))
    return reports
