"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


def _tree() -> list[Span]:
    """op [0, 100) > a [10, 60) > b [20, 30), b [35, 45); a [70, 90)."""
    return [
        Span("op", 0, 100, -1, "r"),
        Span("a", 10, 60, 0, "r"),
        Span("b", 20, 30, 1, "r"),
        Span("b", 35, 45, 1, "r"),
        Span("a", 70, 90, 0, "r"),
        Span("op", 200, 230, -1, "s"),
        Span("b", 205, 215, 5, "s"),
    ]


class TestSelfTime:
    def test_self_time_is_duration_minus_children(self):
        s = _tree()
        own = spans.self_times(s, spans.descendants(s, 0))
        assert own == {0: 30, 1: 30, 2: 10, 3: 10, 4: 20}

    def test_layers_sum_to_root(self):
        s = _tree()
        split = spans.layer_self_ns(s, 0)
        assert split == {"other": 30, "a": 50, "b": 20}
        assert sum(split.values()) == s[0].duration

    def test_descendants_stay_in_their_tree(self):
        s = _tree()
        assert spans.descendants(s, 0) == [0, 1, 2, 3, 4]
        assert spans.descendants(s, 5) == [5, 6]

    def test_timed_split_over_several_roots(self):
        split, wall = metrics.timed_split(_tree(), [0, 5])
        assert wall == 130
        assert split == {"other": 50, "a": 50, "b": 30}

    def test_has_ancestor(self):
        s = _tree()
        assert spans.has_ancestor(s, 2, "a")
        assert spans.has_ancestor(s, 2, "op")
        assert not spans.has_ancestor(s, 1, "b")

    def test_representative_is_lower_middle(self):
        assert metrics.representative([5, 1, 3]) == 2
        assert metrics.representative([4, 1, 3, 2]) == 3

    def test_tracer_records_nesting(self):
        tracer = spans.Tracer()
        inner = tracer.wrap(lambda x: x + 1, "inner")
        outer = tracer.wrap(lambda x: inner(x) * 2, "outer")
        assert outer(1) == 4  # disabled: no spans
        assert tracer.spans == []
        out, root = tracer.root("op", "r0", lambda: outer(1))
        assert out == 4
        names = [(sp.name, sp.parent) for sp in tracer.spans]
        assert names == [("op", -1), ("outer", 0), ("inner", 1)]
        assert sum(spans.layer_self_ns(tracer.spans, root).values()) == tracer.spans[0].duration


class TestFailedFrac:
    def test_counts(self):
        assert metrics.failed_frac(503, 0) == 0.0
        assert metrics.failed_frac(28, 7) == 0.25

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            metrics.failed_frac(0, 0)
        with pytest.raises(ValueError):
            metrics.failed_frac(3, 4)

    def test_verdict(self):
        v = workloads.Verdict(attempted=31, failed=0, base="entries", gates={"g": True})
        assert v.correct and v.failed_frac == 0.0
        v.gates["h"] = False
        assert not v.correct
        w = workloads.Verdict(attempted=4, failed=1, base="checks")
        assert not w.correct and w.failed_frac == 0.25

    def test_trial_steps(self):
        # h=1, t_s=2, horizon 10: converged at 0 -> frames 1..2; at 3 -> 1..5;
        # timed out -> 1..9; certified by the initial window -> none
        steps = workloads.trial_steps(np.array([0, 3, -1]), 2, 1, 10)
        assert steps.tolist() == [2, 5, 9]
        assert workloads.trial_steps(np.array([0]), 0, 1, 10).tolist() == [0]


class TestNames:
    def test_metric_names(self):
        names = [n for n, *_ in metrics.END_TO_END] + [n for n, *_ in metrics.PER_LAYER]
        assert len(names) == len(set(names))
        for name in names + list(workloads.WORKLOADS):
            assert metrics.NAME_RE.fullmatch(name), name

    def test_benchmark_json_matches_declarations(self):
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        assert declared == metrics.benchmark_json(workloads.WORKLOADS.values())

    def test_setup_s_has_the_largest_bound(self):
        bounds = {n: b for n, _, _, b in metrics.END_TO_END}
        assert bounds["setup_s"] == max(bounds.values()) <= 0.25


class TestTracedCounts:
    def test_trial_steps_match_traced_advances(self):
        """The step formula used for untraced work counts equals what the
        spans see on a small two-inhibitor cell."""
        from wtalab import TrialPlan, WtaInstance, experiments

        inst = WtaInstance.for_theorem("two_inhibitor", "expected_time", 4, t_s=3)
        plan = TrialPlan(instance=inst, trials=40, seed=5)
        spec = inst.build()
        tracer = spans.Tracer()
        undo = spans.install(tracer)
        try:
            summary, root = tracer.root(
                "op", "r", lambda: experiments.run_trials(plan, spec=spec)
            )
        finally:
            spans.uninstall(undo)
        counts = metrics.span_counts(tracer.spans, [root])
        steps = workloads.trial_steps(
            summary.converged_at, inst.t_s, spec.history, plan.resolved_horizon()
        )
        assert counts["experiments.trial_steps"] == int(steps.sum())
        assert counts["neuron_updates"] == int(steps.sum()) * spec.non_input_indices.size

    def test_uninstall_restores_originals(self):
        from wtalab import network, simulate
        from wtalab.oracle import WindowStateSpace

        before = (simulate.sigmoid, simulate.BatchRunner.potentials,
                  WindowStateSpace.__dict__["kernel"])
        undo = spans.install(spans.Tracer())
        assert simulate.sigmoid is not before[0]
        spans.uninstall(undo)
        after = (simulate.sigmoid, simulate.BatchRunner.potentials,
                 WindowStateSpace.__dict__["kernel"])
        assert after == before
        assert network.sigmoid is before[0]
