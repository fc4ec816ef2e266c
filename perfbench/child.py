"""One workload process of the benchmark; started by run.py, never by hand.

Modes:
  setup      build the workload's inputs, report the set-up time and exit;
  footprint  set up, run unit 0 once untimed and report the peak resident
             memory of the process, which runs no calibration kernel beyond
             the small set-up one;
  timed      set up, run units until the time budget is spent, check the
             results;
  traced     set up, run unit 0 once to warm up, then in pairs traced and
             untraced (the order alternating) until the time budget is spent
             and at least MIN_PAIRS pairs are done, then once under
             tracemalloc; check the results and derive the per-layer metrics
             from the traced pass with the median root time.

Set-up time runs from the parent's spawn timestamp (``--t0``, on the
system-wide monotonic clock) to the first timed call, so it covers interpreter
start, the package import and instance construction, less the calibration
kernel that runs before the imports. Set-up and operation times are reported
raw and scaled to the reference machine speed (see calibration.py).
The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "footprint", "timed", "traced"), required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", help="file for the spans of a traced run")
    return p.parse_args(argv)


def run_unit(wl, k, record, items, raised):
    """Run the operations of unit k one at a time; returns the unit's wall time.

    record receives the wall time of every operation that did not raise.
    """
    start = time.perf_counter()
    for inst, op in wl.unit(k):
        t = time.perf_counter()
        try:
            out = op()
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            raised.append(f"{wl.name} unit {k}: {exc!r}")
            continue
        record(time.perf_counter() - t)
        items.append((inst, out))
    return time.perf_counter() - start


def main(argv=None) -> int:
    args = parse_args(argv)
    from calibration import Calibration, ScaledTimes

    # calibrate before the imports, which are the bulk of the set-up time
    kernel_start = time.monotonic()
    setup_slowdown = Calibration("python").slowdown()
    kernel_s = time.monotonic() - kernel_start
    root = os.path.dirname(HERE)
    import numpy
    import scipy

    import motbounds
    if not os.path.abspath(motbounds.__file__).startswith(os.path.join(root, "src") + os.sep):
        print(f"motbounds imported from {motbounds.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    with open(os.path.join(HERE, "references.json")) as fh:
        references = json.load(fh)
    wl = WORKLOADS[args.workload](args.seed, references, args.workdir)
    wl.setup()
    setup_raw_s = time.monotonic() - args.t0 - kernel_s
    result = {
        "setup_raw_s": setup_raw_s,
        "setup_s": setup_raw_s / setup_slowdown,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    items, raised = [], []
    if args.mode == "footprint":
        run_unit(wl, 0, lambda seconds: None, items, raised)
        if raised:
            print("\n".join(raised), file=sys.stderr)
            return 1
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        print(json.dumps(result))
        return 0
    if args.mode == "timed":
        times = ScaledTimes(wl.calibration)
        start = time.perf_counter()
        ends = []  # number of timed operations at the end of each unit
        while True:
            run_unit(wl, len(ends), times.add, items, raised)
            ends.append(len(times.raw))
            if time.perf_counter() - start >= args.seconds:
                break
        times.flush()
        result["window_s"] = time.perf_counter() - start
        result["units"] = len(ends)
        result["times"] = times.raw
        # a unit's time is the sum of its operations' times, each scaled on its own
        spans = [(a, b) for a, b in zip([0] + ends, ends) if b > a]
        result["unit_times"], result["scaled_unit_times"] = (
            [sum(ts[a:b]) for a, b in spans] for ts in (times.raw, times.scaled))
    else:
        import tracemalloc

        from tracer import ROOT, Tracer, layer_metrics

        times = []

        def untraced_pass():
            return run_unit(wl, 0, times.append, items, raised)

        def traced_pass():
            timing = Tracer()
            timing.install()
            try:
                with timing.span(ROOT):
                    untraced_pass()
            finally:
                timing.uninstall()
            timings.append(timing)
            return timing.spans[0]["end"] - timing.spans[0]["start"]

        untraced_pass()  # warm-up, so every pass is warm
        timings, ratios = [], []
        start = time.perf_counter()
        while len(ratios) < MIN_PAIRS or time.perf_counter() - start < args.seconds:
            if len(ratios) % 2:
                untraced = untraced_pass()
                traced = traced_pass()
            else:
                traced = traced_pass()
                untraced = untraced_pass()
            ratios.append(traced / untraced)
        memory = Tracer(memory=True)
        tracemalloc.start()
        memory.install()
        try:
            with memory.span(ROOT):
                untraced_pass()
        finally:
            memory.uninstall()
            tracemalloc.stop()
        roots = [t.spans[0]["end"] - t.spans[0]["start"] for t in timings]
        timing = timings[sorted(range(len(roots)), key=roots.__getitem__)[(len(roots) - 1) // 2]]
        metrics = layer_metrics(timing, memory)
        # adjacent passes in alternating order, so drift in machine speed cancels
        metrics["trace.overhead_frac"] = median(ratios) - 1.0
        result["per_layer"] = metrics
        result["times"] = times
        result["trace_pairs"] = len(ratios)
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"workload": wl.name, "seed": args.seed, "metrics": metrics,
                           "overhead_ratios": ratios, "spans": timing.export(),
                           "memory_spans": memory.export()}, fh)

    failures, gaps, counts = wl.check(items)
    result.update(
        unit_work=wl.unit_work,
        calibration=wl.calibration,
        attempted=len(items) + len(raised),
        failed=len(raised) + sum(1 for f in failures if f),
        messages=raised + [m for f in failures for m in f][:20],
        gaps=gaps,
        counts=counts,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
