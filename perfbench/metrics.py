"""Metric declarations and the arithmetic that turns runs into metrics.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json`` declares;
``benchmark_json`` renders that file from them.
"""

from __future__ import annotations

import re
import statistics

from spans import Span, descendants, has_ancestor, layer_self_ns

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("work_units_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

# Layers whose spans make up the timed phase, in report order.
TIMED_LAYERS = [
    "randomness.uniform_block",
    "network.sigmoid",
    "network.validate",
    "builders.build",
    "simulate.runner_init",
    "simulate.potentials",
    "simulate.probabilities",
    "simulate.step_bits",
    "simulate.advance",
    "experiments.run_trials",
    "experiments.initial_windows_batch",
    "experiments.batch_convergence_times",
    "oracle.kernel",
    "oracle.convergence_cdf",
    "lemmas.lemma_check",
]
SETUP_LAYERS = ["builders.build", "network.validate", "simulate.runner_init"]
GATE_LAYERS = ["classify.convergence_time"]

# name, unit, better; "_computed" units are derived from shapes, not measured.
COUNTS = [
    ("randomness.uniform_block.calls", "count", "lower"),
    ("randomness.draws", "count", "lower"),
    ("network.sigmoid.elems", "count", "lower"),
    ("builders.weight_bytes", "B", "lower"),
    ("builders.nnz_frac", "ratio", "higher"),
    ("simulate.potentials.calls", "count", "lower"),
    ("simulate.potentials.flops", "flop_computed", "lower"),
    ("simulate.potentials.useful_frac", "ratio", "higher"),
    ("simulate.frame_bytes", "B_computed", "lower"),
    ("experiments.trial_steps", "count", "lower"),
    ("experiments.steps", "count", "lower"),
    ("oracle.states", "count", "lower"),
    ("oracle.kernel_entries", "count", "lower"),
    ("oracle.kernel_bytes", "B_computed", "lower"),
    ("lemmas.checks", "count", "higher"),
    ("lemmas.rows_stepped", "count", "lower"),
]

PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in TIMED_LAYERS]
    + [
        ("other.self_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    + [(f"{layer}.self_s", "s", "lower") for layer in GATE_LAYERS]
    + [(f"setup.{layer}.self_s", "s", "lower") for layer in SETUP_LAYERS]
    + [("setup.other.self_s", "s", "lower"), ("setup.traced_s", "s", "lower")]
    + COUNTS
)

RUN_SECONDS = 30


def benchmark_json(workloads) -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def median(values) -> float:
    return float(statistics.median(values))


def representative(durations: list[int]) -> int:
    """Index of the median call; the lower middle one for an even count."""
    order = sorted(range(len(durations)), key=lambda i: durations[i])
    return order[(len(order) - 1) // 2]


def failed_frac(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("failed_frac needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return failed / attempted


def timed_split(spans: list[Span], roots: list[int]) -> tuple[dict[str, int], int]:
    """Self time per layer summed over the representative part calls.

    Returns the split (``other`` is the benchmark's own time inside the
    roots) and the traced wall time; the split sums to the wall time exactly.
    """
    split: dict[str, int] = {}
    for r in roots:
        for name, ns in layer_self_ns(spans, r).items():
            split[name] = split.get(name, 0) + ns
    wall = sum(spans[r].duration for r in roots)
    if sum(split.values()) != wall:
        raise AssertionError("layer self times do not add up to the traced wall time")
    return split, wall


def span_counts(spans: list[Span], roots: list[int]) -> dict[str, float]:
    """Work counts observed in the traced spans below ``roots``."""
    c = {name: 0 for name, _, _ in COUNTS if not name.startswith("builders.")}
    macs = useful = 0
    neuron_updates = 0
    for r in roots:
        for i in descendants(spans, r)[1:]:
            s = spans[i]
            k = s.counts
            if s.name == "randomness.uniform_block":
                c["randomness.uniform_block.calls"] += k["calls"]
                c["randomness.draws"] += k["draws"]
            elif s.name == "network.sigmoid":
                c["network.sigmoid.elems"] += k["elems"]
            elif s.name == "simulate.potentials":
                c["simulate.potentials.calls"] += k["calls"]
                macs += k["macs"]
                useful += k["useful_macs"]
            elif s.name == "simulate.step_bits":
                c["simulate.frame_bytes"] += k["frame_bytes"]
            elif s.name == "simulate.advance":
                c["simulate.frame_bytes"] += k.get("frame_bytes", 0)
                neuron_updates += k["neuron_updates"]
                if has_ancestor(spans, i, "experiments.batch_convergence_times"):
                    c["experiments.trial_steps"] += k["rows"]
                    c["experiments.steps"] += 1
                if has_ancestor(spans, i, "lemmas.lemma_check"):
                    c["lemmas.rows_stepped"] += k["rows"]
            elif s.name == "oracle.kernel":
                c["oracle.kernel_bytes"] += k["kernel_bytes"]
            elif s.name == "oracle.convergence_cdf":
                c["oracle.states"] += k["states"]
                c["oracle.kernel_entries"] += k["kernel_entries"]
            elif s.name == "lemmas.lemma_check":
                c["lemmas.checks"] += k["checks"]
    c["simulate.potentials.flops"] = 2 * macs
    c["simulate.potentials.useful_frac"] = useful / macs if macs else 0.0
    c["neuron_updates"] = neuron_updates
    return c


def layer_metrics(
    spans: list[Span],
    timed_roots: list[int],
    untraced_wall_s: float,
    setup_root: int,
    gate_roots: list[int],
    specs: list,
) -> dict[str, float]:
    """Every per-layer metric of a traced run, keyed by declared name."""
    out: dict[str, float] = {}
    split, wall = timed_split(spans, timed_roots)
    for layer in TIMED_LAYERS:
        out[f"{layer}.self_s"] = split.get(layer, 0) / 1e9
    out["other.self_s"] = split.get("other", 0) / 1e9
    out["trace.wall_s"] = wall / 1e9
    out["trace.untraced_wall_s"] = untraced_wall_s
    out["trace.overhead_frac"] = wall / 1e9 / untraced_wall_s - 1.0
    gate: dict[str, int] = {}
    for r in gate_roots:
        for name, ns in layer_self_ns(spans, r).items():
            gate[name] = gate.get(name, 0) + ns
    for layer in GATE_LAYERS:
        out[f"{layer}.self_s"] = gate.get(layer, 0) / 1e9
    setup = layer_self_ns(spans, setup_root)
    for layer in SETUP_LAYERS:
        out[f"setup.{layer}.self_s"] = setup.get(layer, 0) / 1e9
    out["setup.other.self_s"] = sum(
        ns for name, ns in setup.items() if name not in SETUP_LAYERS
    ) / 1e9
    out["setup.traced_s"] = spans[setup_root].duration / 1e9
    counts = span_counts(spans, timed_roots)
    out.update({k: v for k, v in counts.items() if k != "neuron_updates"})
    out["builders.weight_bytes"] = sum(int(s.weights.nbytes) for s in specs)
    nnz = sum(int((s.weights != 0.0).sum()) for s in specs)
    out["builders.nnz_frac"] = nnz / sum(int(s.weights.size) for s in specs)
    return out
