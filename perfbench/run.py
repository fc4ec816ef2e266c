"""Benchmark of motbounds: certify and bound, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
Each run starts fresh single-threaded workload processes (BLAS and OpenMP
pinned to one thread), one at a time, and checks every result against an
independent oracle (perfbench/oracle.py and the stored references).

With ``--trace 0`` one process runs units of the workload until ``--seconds``
have passed; one more sets up and runs one unit untimed, for the peak memory;
one more only sets up, so that set-up time is a median of three. Times are
scaled to a reference machine speed measured by a calibration kernel next to
the work (calibration.py); the raw wall times are printed too. The end-to-end
metrics are printed with their units, then one JSON line. With ``--trace 1``
one process alternates traced and untraced passes of one unit, then runs one
under tracemalloc, and the per-layer metrics are printed instead; its spans
are written to perfbench/out/. Any failed operation or oracle check makes the
command exit with 1; a checkout without the program makes it exit with 2.

BENCHMARK.json names showcase, desk_batch and dual_wide; dual_deep runs the
same way but only by hand, so that the benchmark's runs fit their time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # the whole command ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "latency_s": ("s", "median time of one unit of work, at reference speed"),
    "setup_s": ("s", f"median over {SETUP_SAMPLES} fresh processes, spawn to first timed call, "
                     "at reference speed"),
    "peak_rss_mb": ("MB", "ru_maxrss of a process that sets up and runs one unit, untimed"),
    "dual_gap": ("ratio", "median of max(lower, upper) relative gap to the LP"),
}


class ChildError(RuntimeError):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("showcase", "desk_batch", "dual_wide", "dual_deep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                                capture_output=True, text=True, timeout=10,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
                                ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit or "unknown (not a git checkout)",
        "loadavg": "/".join(f"{x:.2f}" for x in os.getloadavg()),
    }


def spawn(mode: str, args, workdir: str, deadline: float, spans=None) -> dict:
    """Run one workload process to completion and return its JSON result."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", workdir]
    if spans:
        cmd += ["--spans", spans]
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} process exceeded the time limit") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{mode} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def tail(times: list) -> str:
    """Highest listed percentile that leaves at least ten samples beyond it."""
    ordered = sorted(times)
    for pct in (99.9, 99, 95, 90, 75, 50):
        beyond = int(len(ordered) * (1 - pct / 100))
        if beyond >= 10:
            value = ordered[len(ordered) - beyond - 1]
            return f"p{pct:g} {value:.4f} s with {beyond} of {len(ordered)} samples beyond"
    return f"n/a: {len(ordered)} samples leave fewer than 10 beyond the median"


def unit_of(name: str) -> str:
    """Unit of a metric; per-layer units are read from the name's suffix."""
    if name in END_TO_END:
        return END_TO_END[name][0]
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_bytes", "bytes"),
                         ("_frac", "ratio"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def report(args, env, result, metrics) -> None:
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    v = result["versions"]
    print(f"environment: nproc={env['nproc']} cpu={env['cpu']!r} python={v['python']} "
          f"numpy={v['numpy']} scipy={v['scipy']} commit={env['commit']} "
          f"loadavg={env['loadavg']}")
    print(f"unit of work: {result['unit_work']}; {len(result['times'])} operations timed")
    if args.trace:
        print(f"tracing: {result['trace_pairs']} traced/untraced pairs; the per-layer "
              "times come from the traced pass with the median root time")
    print(f"timing: scaled to reference speed by the {result['calibration']!r} kernel "
          "(set-up by the 'python' kernel)")
    for name, value in metrics.items():
        what = END_TO_END.get(name, ("", ""))[1]
        print(f"  {name:28s} {value!r:>24} {unit_of(name):6s} {what}")
    if args.trace == 0:
        print(f"  {'raw latency_s (not gated)':28s} {median(result['unit_times'])!r:>24} s      "
              "median wall time of one unit")
        print(f"  {'raw operation_s (not gated)':28s} {median(result['times'])!r:>24} s      "
              "median wall time of one operation")
        print(f"  {'raw setup_s (not gated)':28s} {result['setup_raw_s']!r:>24} s")
        print(f"  {'ops_per_s (not gated)':28s} "
              f"{len(result['times']) / result['window_s']:>24.4f} 1/s    "
              f"{result['units']} units in {result['window_s']:.2f} s")
        print(f"  {'operation tail (not gated)':28s} {tail(result['times'])}")
    for key, count in result["counts"].items():
        print(f"  {key + ' (not gated)':28s} {count!r:>24}")
    print(f"  {'fail_frac':28s} {result['failed']}/{result['attempted']}")
    for msg in result["messages"]:
        print(f"  FAILED: {msg}")


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "motbounds", "__init__.py")):
        print(f"perfbench: no motbounds package under {ROOT}/src", file=sys.stderr)
        return 2
    env = environment()
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        if args.trace:
            spans = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
            result = spawn("traced", args, workdir, deadline, spans)
            metrics = result["per_layer"]
        else:
            result = spawn("timed", args, workdir, deadline)
            footprint = spawn("footprint", args, workdir, deadline)
            setups = [result, footprint] + [spawn("setup", args, workdir, deadline)
                                            for _ in range(SETUP_SAMPLES - 2)]
            result["setup_raw_s"] = median(s["setup_raw_s"] for s in setups)
            if not result["scaled_unit_times"] or not result["gaps"]:
                raise ChildError("no operation completed")
            metrics = {
                "latency_s": median(result["scaled_unit_times"]),
                "setup_s": median(s["setup_s"] for s in setups),
                "peak_rss_mb": footprint["peak_rss_mb"],
                "dual_gap": median(result["gaps"]),
            }
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args, env, result, metrics)
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
