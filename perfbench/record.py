"""Run the benchmark over several seeds and record medians and spreads.

    python3 perfbench/record.py --out perfbench/BENCH_baseline.json [--seeds 1-10]

For every workload this runs ``run.py --trace 0`` once per seed and
``--trace 1`` once, one process at a time, and writes, per end-to-end metric,
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (interquartile distance over the median), plus the per-layer metrics of
the traced run. It also probes the reference-free ascent on dual_deep at long
budgets, which the fixed-budget workload cannot show. With ``--compare``
it also records, per workload and end-to-end metric, how much worse the new
median is than the median of an earlier record, against the metric's bound.

The committed baseline is two sets of the same code, the second compared
with the first:

    python3 perfbench/record.py --out perfbench/BENCH_baseline.json
    python3 perfbench/record.py --out perfbench/BENCH_baseline_second.json \\
        --no-trace --no-probe --compare perfbench/BENCH_baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    print(f"{workload} seed={seed} trace={trace} exit={proc.returncode} wall={wall:.1f}s "
          + (json.dumps({k: v["value"] for k, v in result["metrics"].items()})
             if result and not trace else ""), flush=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
    return {"exit": proc.returncode, "wall_s": wall, "result": result,
            "summary": lines[:-1]}


def summarize(values: list) -> dict:
    q1, q2, q3 = quantiles(values, n=4)
    return {"median": median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median(values), "values": values}


def long_budget_probe() -> dict:
    """Gaps of the reference-free runs on dual_deep at long iteration budgets."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import motbounds
    from workloads import DualDeep, lognormal_instance

    with open(os.path.join(HERE, "references.json")) as fh:
        ref = json.load(fh)["dual_deep"]
    cost, ms = lognormal_instance(DualDeep.n, DualDeep.m)
    cfg = motbounds.AscentConfig
    cert, trace = motbounds.ascend(cost, ms, cfg(variant="proposition", max_iters=1000))
    zero = trace.values[0]
    out = {"proposition_1000": {
        "gap": motbounds.relative_gap(cert.dual_value, ref["min"]),
        "gap_at_u0": motbounds.relative_gap(zero, ref["min"]),
        "improved_on_u0": bool(cert.dual_value > zero), "status": trace.status}}
    cert, trace = motbounds.descend_upper(cost, ms, cfg(variant="remark_a", max_iters=300))
    out["remark_a_300"] = {
        "gap": motbounds.relative_gap(cert.dual_value, ref["max"]),
        "gap_at_u0": motbounds.relative_gap(trace.values[0], ref["max"]), "status": trace.status}
    return out


def compare(record: dict, path: str, bench: dict) -> dict:
    """Per metric: how much worse this record's median is than the earlier one's."""
    with open(path) as fh:
        earlier = json.load(fh)
    out = {"file": os.path.basename(path), "workloads": {}}
    for name, entry in record["workloads"].items():
        before = earlier["workloads"].get(name, {}).get("end_to_end", {})
        for metric in bench["end_to_end"]:
            key = metric["name"]
            if key not in before:
                continue
            old, new = before[key]["median"], entry["end_to_end"][key]["median"]
            worse = (new - old) / old if metric["better"] == "lower" else (old - new) / old
            out["workloads"].setdefault(name, {})[key] = {
                "earlier_median": old, "median": new, "worse_by": worse,
                "within_bound": worse <= metric["bound"]}
            print(f"  {name} {key}: worse by {worse:+.4f} (bound {metric['bound']})", flush=True)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", type=seeds_arg, default=list(range(1, 11)))
    p.add_argument("--workloads", default="")
    p.add_argument("--no-trace", action="store_true")
    p.add_argument("--no-probe", action="store_true")
    p.add_argument("--compare", help="an earlier record to compare the medians with")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    record = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    failed = False
    for name in names:
        runs = [run(name, s, bench["run_seconds"], 0) for s in args.seeds]
        failed |= any(r["exit"] != 0 for r in runs)
        entry = {"end_to_end": {}, "environment": runs[0]["summary"][1] if runs[0]["summary"] else ""}
        for metric in bench["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs if r["result"]]
            entry["end_to_end"][metric["name"]] = dict(summarize(values), unit=metric["unit"],
                                                       bound=metric["bound"])
        for label in ("raw latency_s", "raw setup_s"):
            values = [float(line.split()[4]) for r in runs for line in r["summary"]
                      if line.strip().startswith(label)]
            entry["end_to_end"][label.replace(" ", "_")] = summarize(values)
        entry["run_wall_s"] = summarize([r["wall_s"] for r in runs])
        entry["attempted"] = sum(r["result"]["attempted"] for r in runs if r["result"])
        entry["failed"] = sum(r["result"]["failed"] for r in runs if r["result"])
        entry["summaries"] = {str(s): r["summary"] for s, r in zip(args.seeds, runs)}
        if not args.no_trace:
            traced = run(name, args.seeds[0], bench["run_seconds"], 1)
            failed |= traced["exit"] != 0
            if traced["result"]:
                entry["per_layer"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        record["workloads"][name] = entry
        for metric, stats in entry["end_to_end"].items():
            print(f"  {name} {metric}: median {stats['median']:.6g} spread {stats['spread']:.4f} "
                  f"(bound {stats.get('bound', 'none')})", flush=True)
    layers = {n: e.get("per_layer", {}) for n, e in record["workloads"].items()}
    if layers.get("showcase"):
        show = layers["showcase"]
        primal = sum(show[k] for k in ("primal.assemble_s", "primal.solve_lower_s",
                                       "primal.solve_upper_s"))
        record["showcase_primal_share"] = primal / show["trace.root_s"]
    for name, per_layer in layers.items():
        if per_layer.get("cascade.evals"):
            record.setdefault("envelope_share", {})[name] = (
                per_layer["cascade.envelope_s"] / per_layer["trace.root_s"])
    if args.compare:
        record["compared_with"] = compare(record, args.compare, bench)
    if not args.no_probe:
        record["dual_deep_long_budget"] = long_budget_probe()
        print(json.dumps(record["dual_deep_long_budget"]), flush=True)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
