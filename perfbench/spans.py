"""In-memory span recorder and the wrappers that attach it to wtalab.

The benchmark traces wtalab from the outside: ``install`` swaps each named
public callable for a wrapper that opens a span around the call, and
``uninstall`` puts the originals back. Nothing in ``src/`` changes. A span
holds its name, start and end (``perf_counter_ns``), the index of the span
that was open when it started, the id of the benchmark run it belongs to,
and the work counts its wrapper derived from the call.

A layer's self time is its span's duration minus the durations of its
direct children. Calls are single-threaded, so children never overlap and
the self times of a span tree add up to the duration of its root.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable

import numpy as np


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int
    run: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start_ns": self.start,
            "end_ns": self.end,
            "parent": self.parent,
            "run": self.run,
            "counts": self.counts,
        }


class Tracer:
    """Span stack plus the list of every finished and open span.

    Wrappers record only while ``enabled`` is true, so untraced calls pay one
    attribute test.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self.run = ""
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.run))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter_ns()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    def root(self, name: str, run: str, fn: Callable[[], object]):
        """Run ``fn`` traced under a new root span; returns (result, span index)."""
        self.run = run
        self.enabled = True
        idx = self.begin(name)
        try:
            return fn(), idx
        finally:
            self.end(idx)
            self.enabled = False

    def wrap(self, fn: Callable, name: str, count: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if count is not None:
                tracer.spans[idx].counts = count(args, kwargs, result)
            return result

        return traced


# -- span-tree arithmetic -----------------------------------------------------


def descendants(spans: list[Span], root: int) -> list[int]:
    """Indices of ``root`` and every span below it, in start order."""
    keep = {root}
    out = [root]
    for i in range(root + 1, len(spans)):
        if spans[i].parent in keep:
            keep.add(i)
            out.append(i)
    return out


def self_times(spans: list[Span], indices: Iterable[int]) -> dict[int, int]:
    """Self time of each listed span: duration minus its direct children's."""
    indices = list(indices)
    own = {i: spans[i].duration for i in indices}
    for i in indices:
        p = spans[i].parent
        if p in own:
            own[p] -= spans[i].duration
    return own


def layer_self_ns(spans: list[Span], root: int, root_layer: str = "other") -> dict[str, int]:
    """Self time per layer name below ``root``; the root's own self time is
    reported as ``root_layer``. The values sum to the root's duration."""
    idx = descendants(spans, root)
    own = self_times(spans, idx)
    out: dict[str, int] = {}
    for i, ns in own.items():
        name = root_layer if i == root else spans[i].name
        out[name] = out.get(name, 0) + ns
    return out


def has_ancestor(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


# -- the traced callables -----------------------------------------------------


def _draws(args, kwargs, result):
    return {"calls": 1, "draws": int(result.size)}


def _elems(args, kwargs, result):
    return {"elems": int(np.size(result))}


class _PotentialCounts:
    """Dense multiply-adds per ``BatchRunner.potentials`` call and how many
    of them meet a nonzero weight; nonzero counts are cached per spec
    (``NetworkSpec`` is unhashable, so the cache is keyed by identity)."""

    def __init__(self) -> None:
        self._nnz: dict[int, tuple[weakref.ref, int]] = {}

    def __call__(self, args, kwargs, result):
        runner, frames = args[0], args[1]
        spec = runner.spec
        ref, nnz = self._nnz.get(id(spec), (None, 0))
        if ref is None or ref() is not spec:
            nnz = sum(int(np.count_nonzero(w)) for w in runner.w_cols)
            self._nnz[id(spec)] = (weakref.ref(spec), nnz)
        rows = int(frames.shape[0])
        dense = rows * sum(int(w.size) for w in runner.w_cols)
        return {"calls": 1, "macs": dense, "useful_macs": rows * nnz}


def _frame_bytes(args, kwargs, result):
    return {"frame_bytes": int(result.nbytes)}


def _advance(args, kwargs, result):
    runner = args[0]
    rows = int(result.shape[0])
    counts = {"rows": rows, "neuron_updates": rows * int(runner.non_input.size)}
    if runner.spec.history > 1:
        counts["frame_bytes"] = int(result.nbytes)
    return counts


def _oracle_counts(args, kwargs, result):
    spec = args[0]
    t_max = args[4] if len(args) > 4 else kwargs["t_max"]
    m = int(spec.non_input_indices.size)
    states = 1 << (m * spec.history)
    frames = max(0, t_max + 1 - spec.history)
    return {"states": states, "kernel_entries": frames * states * (1 << m)}


def _kernel_bytes(args, kwargs, result):
    return {"kernel_bytes": int(result.nbytes)}


def _lemma_checks(args, kwargs, result):
    return {"checks": len(result)}


def _targets():
    """(owner, attribute, span name, count hook) for every traced callable.

    Module-level functions are patched in every ``wtalab`` module that holds
    them, so ``from .network import sigmoid`` call sites are traced too.
    """
    from wtalab import builders, classify, experiments, lemmas, network, oracle
    from wtalab.randomness import RandomnessContract
    from wtalab.simulate import BatchRunner

    return [
        (RandomnessContract, "uniform_block", "randomness.uniform_block", _draws),
        (network, "sigmoid", "network.sigmoid", _elems),
        (network, "validate_network", "network.validate", None),
        (builders, "build", "builders.build", None),
        (builders, "build_two_inhibitor", "builders.build", None),
        (builders, "build_log_inhibitor", "builders.build", None),
        (BatchRunner, "__init__", "simulate.runner_init", None),
        (BatchRunner, "potentials", "simulate.potentials", _PotentialCounts()),
        (BatchRunner, "probabilities", "simulate.probabilities", None),
        (BatchRunner, "step_bits", "simulate.step_bits", _frame_bytes),
        (BatchRunner, "advance", "simulate.advance", _advance),
        (experiments, "run_trials", "experiments.run_trials", None),
        (experiments, "initial_windows_batch", "experiments.initial_windows_batch", None),
        (experiments, "batch_convergence_times", "experiments.batch_convergence_times", None),
        (classify, "convergence_time", "classify.convergence_time", None),
        (oracle.WindowStateSpace, "kernel", "oracle.kernel", _kernel_bytes),
        (oracle, "convergence_cdf", "oracle.convergence_cdf", _oracle_counts),
        (lemmas, "lemma_check", "lemmas.lemma_check", _lemma_checks),
    ]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every target; returns what ``uninstall`` needs to undo it."""
    undo: list[tuple[object, str, object]] = []
    modules = [m for k, m in sys.modules.items() if k == "wtalab" or k.startswith("wtalab.")]
    for owner, attr, name, count in _targets():
        original = owner.__dict__[attr]
        if isinstance(original, cached_property):
            prop = cached_property(tracer.wrap(original.func, name, count))
            prop.__set_name__(owner, attr)
            undo.append((owner, attr, original))
            setattr(owner, attr, prop)
        elif isinstance(owner, type):
            undo.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, count))
        else:
            wrapped = tracer.wrap(original, name, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapped)
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
