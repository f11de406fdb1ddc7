"""Run one wtalab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mc_two_n1024 --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is imported from ``src/``. For
``--seconds`` seconds the run sets up the workload a few times and then
makes one pass over its timed calls, again and again (``setup_s`` is the
median set-up, ``wall_s`` the sum over calls of each call's median), then
checks the outputs. Every metric is printed by name with its unit; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A traced run alternates untraced and traced passes, so it
also reports the tracing overhead. Results, the machine description and,
for traced runs, every span go to ``.perfbench_out/`` in the repository.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads. With one BLAS thread per core, a
# matmul waits for whichever core another process interrupts: on two shared
# cores, a background load of a fifth of one core made mc_two_n1024 27 %
# slower with two threads and left it unchanged with one.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import ctypes
import glob
import json
import platform
import resource
import sys
import time
from importlib import metadata
from pathlib import Path

import spans
from metrics import END_TO_END, PER_LAYER, failed_frac, layer_metrics, median, representative, span_counts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_BURST_MIN_REPS = 2
SETUP_BURST_MAX_REPS = 100
SETUP_BURST_SECONDS = 0.25
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def import_program():
    """Import wtalab from this checkout's ``src/``; exit 1 when it is absent."""
    sys.path.insert(0, str(SRC))
    try:
        import wtalab
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import wtalab from {SRC}: {e}")
    if Path(wtalab.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: wtalab came from {wtalab.__file__}, not {SRC}")
    return wtalab


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return ""


def _blas_threads() -> int | None:
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy as np

    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{d}/level"), _read(f"{d}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{d}/size")
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


class Runner:
    """One benchmark run of one workload."""

    def __init__(self, workload_cls, seed: int, seconds: float, trace: bool):
        self.cls = workload_cls
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = spans.Tracer()
        self.gate_roots: list[int] = []

    def _traced(self, name: str, run: str, fn):
        undo = spans.install(self.tracer)
        try:
            return self.tracer.root(name, run, fn)
        finally:
            spans.uninstall(undo)

    def setup(self):
        """Set up from nothing at least ``SETUP_BURST_MIN_REPS`` times, then
        until ``SETUP_BURST_SECONDS`` are used or ``SETUP_BURST_MAX_REPS``
        are done; keep the last. One such burst precedes every pass, so the
        set-up samples spread over the run as the pass times do."""
        wl, spent, rep = None, 0, 0
        while rep < SETUP_BURST_MIN_REPS or (
            rep < SETUP_BURST_MAX_REPS and spent < SETUP_BURST_SECONDS * 1e9
        ):
            wl = None  # drop the previous objects before building again
            wl = self.cls(self.seed)
            if self.trace:
                _, idx = self._traced("setup", f"setup{len(self.setup_ns)}", wl.setup)
                self.setup_roots.append(idx)
                ns = self.tracer.spans[idx].duration
            else:
                t0 = time.perf_counter_ns()
                wl.setup()
                ns = time.perf_counter_ns() - t0
            self.setup_ns.append(ns)
            spent += ns
            rep += 1
        return wl

    def measure(self):
        """Set up afresh and make one pass over the parts, until the time is
        used; untraced and traced passes alternate in a traced run. Returns
        the last workload object and the first pass's outputs."""
        untraced: dict[str, list[int]] = {}
        traced: dict[str, list[int]] = {}
        results: dict[str, object] = {}
        self.setup_ns: list[int] = []
        self.setup_roots: list[int] = []
        self.mismatched: list[str] = []
        passes = 0
        start = time.perf_counter()
        while True:
            wl = parts = fn = out = None  # one copy of the objects at a time
            wl = self.setup()
            parts = wl.parts()
            trace_this = self.trace and passes % 2 == 1
            undo = spans.install(self.tracer) if trace_this else None
            try:
                for label, fn in parts:
                    if trace_this:
                        out, idx = self.tracer.root("op", f"pass{passes}:{label}", fn)
                        traced.setdefault(label, []).append(idx)
                    else:
                        t0 = time.perf_counter_ns()
                        out = fn()
                        untraced.setdefault(label, []).append(time.perf_counter_ns() - t0)
                    if label not in results:
                        results[label] = out
                    elif not wl.same(results[label], out):
                        self.mismatched.append(label)
            finally:
                if undo is not None:
                    spans.uninstall(undo)
            passes += 1
            elapsed = time.perf_counter() - start
            need = 2 * MIN_TRACED_PASSES if self.trace else MIN_PASSES
            if passes >= need and elapsed * (passes + 1) / passes > self.seconds:
                break
        self.passes = passes
        self.untraced = untraced
        self.traced = traced
        roots = self.setup_roots
        self.setup_root = roots[representative(self.setup_ns)] if roots else -1
        return wl, results

    def gate(self, fn):
        """Run gate work ``fn``, traced in a traced run."""
        if not self.trace:
            return fn()
        out, idx = self._traced("gate", "gate", fn)
        self.gate_roots.append(idx)
        return out

    def run(self):
        """Returns the declared metrics, the verdict and the full record."""
        wl, results = self.measure()
        verdict = wl.check(results, self.gate)
        if self.mismatched:
            verdict.gates["repeat_identical"] = False
        work = wl.work_units(results)
        wall_s = sum(median(v) for v in self.untraced.values()) / 1e9
        report = {
            "workload": wl.name,
            "seed": self.seed,
            "trace": int(self.trace),
            "passes": self.passes,
            "work_unit": wl.work_unit,
            "work_units": work,
            "part_ns": self.untraced,
            "setup_ns": self.setup_ns,
            "failed_frac_base": verdict.base,
            "gates": verdict.gates,
        }
        if self.trace:
            roots = [ids[representative([self.tracer.spans[i].duration for i in ids])]
                     for ids in self.traced.values()]
            # the same estimator on both sides: the lower-middle call per part
            untraced_s = sum(v[representative(v)] for v in self.untraced.values()) / 1e9
            metrics = layer_metrics(
                self.tracer.spans, roots, untraced_s, self.setup_root, self.gate_roots, wl.specs()
            )
            seen = span_counts(self.tracer.spans, roots)[wl.work_count]
            verdict.attempted += 1
            if seen != work:
                verdict.failed += 1
            report["traced_work_units"] = seen
            report["spans"] = [s.as_dict() for s in self.tracer.spans]
            declared = PER_LAYER
        else:
            metrics = {
                "wall_s": wall_s,
                "setup_s": median(self.setup_ns) / 1e9,
                "work_units_per_s": work / wall_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            declared = [(n, u, b) for n, u, b, _ in END_TO_END]
        out = {name: {"value": metrics[name], "unit": unit} for name, unit, _ in declared}
        return out, verdict, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    runner = Runner(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    metrics, verdict, report = runner.run()
    report["machine"] = machine()
    report["metrics"] = metrics

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"passes {runner.passes} setup_reps {len(report['setup_ns'])}")
    print("machine " + json.dumps(report["machine"]))
    print(f"work_units {report['work_units']} ({report['work_unit']} per pass)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        rate = metrics["work_units_per_s"]["value"]
        print(f"{report['work_unit']}_per_s = {rate:.6g} 1/s (= work_units_per_s)")
    frac = failed_frac(verdict.attempted, verdict.failed)
    print(f"failed_frac = {verdict.failed}/{verdict.attempted} = {frac:.6g} "
          f"(base: {verdict.base})")
    for gate, ok in verdict.gates.items():
        print(f"gate {gate}: {'pass' if ok else 'FAIL'}")
    print(f"details {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
