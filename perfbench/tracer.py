"""In-memory span tracer and the per-layer metrics derived from its spans.

A traced run replaces the public functions of each motbounds module by
wrappers, from the outside: every module attribute that holds one of the
target functions is swapped, so calls made inside the package through module
globals (``ascent.solve_primal``, ``cascade.cascade_down``, ...) open a span.
A target that no longer exists is skipped, so renaming or deleting a function
never breaks the benchmark; its time then shows in its caller's self time.

Spans keep name, start, end and parent. The self time of a span is its
duration minus the time its child spans cover. In memory mode each span also
records the tracemalloc peak reached inside it, above the traced size at entry.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import tracemalloc
from statistics import median

import numpy as np

# Functions wrapped in a traced run, as (module, name). The dense simplex
# (primal.simplex_solve) is not wrapped: its time is the self time of the
# solve_primal spans, which stay meaningful when the LP backend changes.
TARGETS = (
    ("measures", "validate_sequence"),
    ("primal", "assemble_lp"),
    ("primal", "solve_primal"),
    ("primal", "solve_primal_max"),
    ("cascade", "terminal_tensor"),
    ("cascade", "cascade_down"),
    ("cascade", "cascade_down_stepwise"),
    ("cascade", "dual_value_and_subgradient"),
    ("cascade", "verify_subhedge"),
    ("ascent", "certify"),
    ("ascent", "ascend"),
    ("ascent", "descend_upper"),
    ("cli", "parse_instance"),
    ("cli", "main"),
)

ROOT = "bench.unit"
VARIANTS = ("proposition", "remark_b", "remark_a")
STOP_STATUSES = ("converged_gap", "converged_stationary", "iteration_limit")


def _iterations(stats: dict):
    for key in ("iterations", "pivots", "nit"):
        if key in stats:
            return int(stats[key])
    return 0


def _matrix_bytes(lp) -> int:
    total = 0
    for name in ("A", "c", "b"):
        arr = getattr(lp, name, None)
        if arr is None:
            continue
        if hasattr(arr, "indptr"):  # scipy.sparse compressed matrix
            total += arr.data.nbytes + arr.indices.nbytes + arr.indptr.nbytes
        else:
            total += np.asarray(arr).nbytes
    return total


def _summarize(name: str, out) -> dict:
    """The few numbers a span keeps from its function's return value."""
    if name in ("primal.solve_primal", "primal.solve_primal_max"):
        return {"iterations": _iterations(getattr(out, "stats", {}) or {})}
    if name == "primal.assemble_lp":
        return {"matrix_bytes": _matrix_bytes(out)}
    if name in ("ascent.ascend", "ascent.descend_upper"):
        cert, trace = out
        best = np.asarray(trace.best_values)
        return {
            "variant": cert.variant,
            "iters": len(trace),
            "status": trace.status,
            "improved": int(np.count_nonzero(np.diff(best))),
        }
    if name == "ascent.certify":
        return {"passed": bool(out.passed)}
    return {}


class Tracer:
    """Records nested spans in memory; optionally tracks tracemalloc peaks."""

    def __init__(self, memory: bool = False):
        self.spans = []
        self.memory = memory
        self._stack = []
        self._patched = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = {"name": name, "parent": parent, "start": time.perf_counter(), "end": None}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        if self.memory:
            self._memory_enter(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if self.memory:
                self._memory_exit(rec)
            self._stack.pop()

    def _memory_enter(self, rec):
        current, peak = tracemalloc.get_traced_memory()
        if rec["parent"] is not None:
            parent = self.spans[rec["parent"]]
            parent["_peak"] = max(parent["_peak"], peak)
        tracemalloc.reset_peak()
        rec["_base"] = current
        rec["_peak"] = current

    def _memory_exit(self, rec):
        rec["_peak"] = max(rec["_peak"], tracemalloc.get_traced_memory()[1])
        rec["peak_bytes"] = rec["_peak"] - rec["_base"]
        if rec["parent"] is not None:
            parent = self.spans[rec["parent"]]
            parent["_peak"] = max(parent["_peak"], rec["_peak"])

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            rec.update(_summarize(name, out))
            return out

        return traced

    def install(self, package: str = "motbounds") -> None:
        """Swap every loaded module attribute that holds a target function."""
        wrappers = {}
        for module_name, fn_name in TARGETS:
            module = sys.modules.get(f"{package}.{module_name}")
            fn = getattr(module, fn_name, None)
            if callable(fn):
                wrappers[id(fn)] = (fn, self._wrap(f"{module_name}.{fn_name}", fn))
        for name, module in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def self_times(self) -> list:
        """Duration minus the time covered by direct children, per span.

        Spans come from one thread, so a span's children never overlap and
        the time they cover is the sum of their durations.
        """
        selfs = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                selfs[s["parent"]] -= s["end"] - s["start"]
        return selfs

    def export(self) -> list:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        out = []
        for s, own in zip(self.spans, self.self_times()):
            rec = {k: v for k, v in s.items() if not k.startswith("_")}
            rec["start"] = s["start"] - t0
            rec["end"] = s["end"] - t0
            rec["self"] = own
            out.append(rec)
        return out


def layer_metrics(timing: Tracer, memory: Tracer) -> dict:
    """Per-layer metrics from a timing trace and a memory trace of one unit."""
    spans = timing.spans
    selfs = timing.self_times()

    def of(name):
        return [i for i, s in enumerate(spans) if s["name"] == name]

    def self_sum(*names):
        return float(sum(selfs[i] for n in names for i in of(n)))

    def info_sum(name, key):
        return sum(spans[i].get(key, 0) for i in of(name))

    def peak_mb(prefix):
        peaks = [s.get("peak_bytes", 0) for s in memory.spans if s["name"].startswith(prefix)]
        return max(peaks, default=0) / 1e6

    evals = [spans[i]["end"] - spans[i]["start"] for i in of("cascade.dual_value_and_subgradient")]
    # a run that raised has no summary; its failure is counted by the caller
    runs = [spans[i] for i in of("ascent.ascend") + of("ascent.descend_upper") if "iters" in spans[i]]
    iters = sum(r["iters"] for r in runs)
    metrics = {
        "primal.assemble_s": self_sum("primal.assemble_lp"),
        "primal.solve_lower_s": self_sum("primal.solve_primal"),
        "primal.solve_upper_s": self_sum("primal.solve_primal_max"),
        "primal.iterations_lower": info_sum("primal.solve_primal", "iterations"),
        "primal.iterations_upper": info_sum("primal.solve_primal_max", "iterations"),
        "primal.matrix_bytes": max((spans[i].get("matrix_bytes", 0) for i in of("primal.assemble_lp")),
                                   default=0),
        "primal.peak_mb": peak_mb("primal."),
        "cascade.envelope_s": self_sum("cascade.cascade_down", "cascade.cascade_down_stepwise"),
        "cascade.terminal_s": self_sum("cascade.terminal_tensor"),
        "cascade.pushdown_s": self_sum("cascade.dual_value_and_subgradient"),
        "cascade.evals": len(evals),
        "cascade.eval_s": float(median(evals)) if evals else 0.0,
        "cascade.subhedge_s": float(sum(spans[i]["end"] - spans[i]["start"] for i in of("cascade.verify_subhedge"))),
        "cascade.peak_mb": peak_mb("cascade."),
    }
    for variant in VARIANTS:
        metrics[f"ascent.iters.{variant}"] = sum(r["iters"] for r in runs if r["variant"] == variant)
    metrics["ascent.improve_ratio"] = sum(r["improved"] for r in runs) / iters if iters else 0.0
    for status in STOP_STATUSES:
        metrics[f"ascent.stop.{status}"] = sum(1 for r in runs if r["status"] == status)
    metrics["ascent.self_s"] = self_sum("ascent.ascend", "ascent.descend_upper")
    metrics["ascent.certify_self_s"] = self_sum("ascent.certify")
    metrics["ascent.certify_unpassed"] = sum(
        1 for i in of("ascent.certify") if not spans[i].get("passed", True))
    metrics["measures.validate_s"] = self_sum("measures.validate_sequence")
    metrics["cli.parse_s"] = float(sum(spans[i]["end"] - spans[i]["start"] for i in of("cli.parse_instance")))
    metrics["cli.self_s"] = self_sum("cli.main")
    root = of(ROOT)
    metrics["trace.root_s"] = float(sum(spans[i]["end"] - spans[i]["start"] for i in root))
    metrics["trace.bench_self_s"] = self_sum(ROOT)
    metrics["trace.spans"] = len(spans)
    return metrics
