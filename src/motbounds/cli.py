"""Command-line front end: instance ingestion, validation, solving, certification.

Exit codes are a stable contract: 0 success, 1 input error, 2 infeasible
instance or failed check, 3 resource cap exceeded. Structured output is JSON
behind --json; tabular artifacts (hulls, couplings, traces) are CSV.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .ascent import AscentConfig, ascend, certify, descend_upper, relative_gap
from .cascade import COST_FORMS, CostSpec
from .envelope import GridFunction, convex_envelope, eval_envelope
from .measures import (
    DiscreteMeasure,
    MarginalSequence,
    quantize_lognormal,
    validate_sequence,
)
from .primal import SizeCapError, solve_primal, solve_primal_max

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_CAP = 3


class InstanceError(ValueError):
    """Malformed instance file; message carries the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


@dataclass
class Instance:
    cost: CostSpec
    marginals: MarginalSequence
    config: AscentConfig
    var_cap: int | None = None


def _parse_measure(spec, where: str) -> DiscreteMeasure:
    if not isinstance(spec, dict):
        raise InstanceError(where, "expected an object")
    if "lognormal" in spec:
        params = spec["lognormal"]
        try:
            return quantize_lognormal(
                float(params["location"]), float(params["scale"]), int(params["m"])
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InstanceError(f"{where}.lognormal", str(exc)) from exc
    if "atoms" in spec and "weights" in spec:
        try:
            return DiscreteMeasure(np.asarray(spec["atoms"], dtype=float),
                                   np.asarray(spec["weights"], dtype=float))
        except (TypeError, ValueError) as exc:
            raise InstanceError(where, str(exc)) from exc
    raise InstanceError(where, "expected atoms/weights or a lognormal block")


def _load_cost_table(path: str, ms: MarginalSequence) -> np.ndarray:
    """Tensor CSV: one row per product-grid point, columns x_1..x_n,value."""
    try:
        raw = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise InstanceError("cost.path", str(exc)) from exc
    if raw.shape[1] != ms.n + 1:
        raise InstanceError("cost.path", f"expected {ms.n + 1} columns, got {raw.shape[1]}")
    index = []
    for i, grid in enumerate(ms.grids):  # nearest atom of each coordinate
        coords = raw[:, i]
        hi = np.minimum(np.searchsorted(grid, coords), grid.size - 1)
        lo = np.maximum(hi - 1, 0)
        pos = np.where(np.abs(grid[lo] - coords) <= np.abs(grid[hi] - coords), lo, hi)
        off = ~(np.abs(grid[pos] - coords) <= 1e-9)  # NaN is off too
        if off.any():
            raise InstanceError(
                "cost.path", f"coordinate {coords[off][0]!r} is not an atom of marginal {i + 1}")
        index.append(pos)
    table = np.full(ms.sizes, np.nan)
    table[tuple(index)] = raw[:, -1]
    if np.any(np.isnan(table)):
        raise InstanceError("cost.path", "tensor does not cover the full product grid")
    if len(raw) > table.size:  # every point is covered, so some point repeats
        _, first, counts = np.unique(np.ravel_multi_index(index, ms.sizes),
                                     return_index=True, return_counts=True)
        point = tuple(raw[first[counts > 1][0], :-1].tolist())
        raise InstanceError("cost.path", f"grid point {point!r} is listed more than once")
    return table


def parse_instance(path: str) -> Instance:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InstanceError(path, str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise InstanceError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc
    if not isinstance(payload, dict):
        raise InstanceError(path, "top level must be an object")

    raw_marginals = payload.get("marginals")
    if not isinstance(raw_marginals, list) or len(raw_marginals) < 2:
        raise InstanceError("marginals", "need a list of at least two measure specs")
    ms = MarginalSequence(
        [_parse_measure(spec, f"marginals[{i}]") for i, spec in enumerate(raw_marginals)]
    )

    raw_cost = payload.get("cost")
    if not isinstance(raw_cost, dict) or "form" not in raw_cost:
        raise InstanceError("cost", "need an object with a form")
    form = raw_cost["form"]
    if form not in COST_FORMS:
        raise InstanceError("cost.form", f"unknown form {form!r}; expected one of {COST_FORMS}")
    cost_keys = ["form", "path", "strike"]
    unknown = sorted(set(raw_cost) - set(cost_keys))
    if unknown:
        raise InstanceError(f"cost.{unknown[0]}", f"unknown key; expected one of {cost_keys}")
    try:
        if form == "custom_table":
            if "path" not in raw_cost:
                raise InstanceError("cost.path", "custom_table needs a tensor CSV path")
            table = _load_cost_table(raw_cost["path"], ms)
            cost = CostSpec(ms.n, form, table=table)
        else:
            strike = raw_cost.get("strike")
            cost = CostSpec(ms.n, form, strike=None if strike is None else float(strike))
    except InstanceError:
        raise
    except (TypeError, ValueError) as exc:
        raise InstanceError("cost", str(exc)) from exc

    options = payload.get("options", {})
    if not isinstance(options, dict):
        raise InstanceError("options", "expected an object")
    known = {
        "variant": str, "max_iters": int, "initial_step": float, "target_gap": float,
    }
    unknown = sorted(set(options) - set(known) - {"var_cap"})
    if unknown:
        raise InstanceError(f"options.{unknown[0]}",
                            f"unknown option; expected one of {sorted([*known, 'var_cap'])}")
    kwargs = {}
    for key, cast in known.items():
        if key in options:
            try:
                kwargs[key] = cast(options[key])
            except (TypeError, ValueError) as exc:
                raise InstanceError(f"options.{key}", str(exc)) from exc
    var_cap = None
    if "var_cap" in options:
        try:
            var_cap = int(options["var_cap"])
        except (TypeError, ValueError) as exc:
            raise InstanceError("options.var_cap", str(exc)) from exc
    try:
        config = AscentConfig(**kwargs)
    except ValueError as exc:
        raise InstanceError("options", str(exc)) from exc
    return Instance(cost, ms, config, var_cap)


def _apply_flags(config: AscentConfig, args) -> AscentConfig:
    updates = {}
    if args.variant is not None:
        updates["variant"] = args.variant
    if args.tol is not None:
        updates["target_gap"] = args.tol
    if args.max_iters is not None:
        updates["max_iters"] = args.max_iters
    return replace(config, **updates) if updates else config


def _emit(payload: dict, args) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for key, value in payload.items():
        if isinstance(value, dict):
            print(f"{key}:")
            for k, v in value.items():
                print(f"  {k}: {v}")
        else:
            print(f"{key}: {value}")


def _write_coupling_csv(path, coupling, ms) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(f"x_{i + 1}" for i in range(ms.n)) + ",mass\n")
        for row in coupling.positive_paths(ms):
            fh.write(",".join(repr(v) for v in row) + "\n")


def cmd_check(args) -> int:
    inst = parse_instance(args.instance)
    report = validate_sequence(inst.marginals)
    _emit(report.as_dict(), args)
    return EXIT_OK if report.ok else EXIT_INFEASIBLE


def cmd_solve(args) -> int:
    inst = parse_instance(args.instance)
    config = _apply_flags(inst.config, args)
    validation = validate_sequence(inst.marginals)
    if not validation.ok:
        _emit({"error": "marginals fail the convex-order check",
               "validation": validation.as_dict()}, args)
        return EXIT_INFEASIBLE
    ms = inst.marginals
    primal = None
    payload = {"side": args.side, "method": args.method}
    out_dir = args.out
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    cap_kw = {} if inst.var_cap is None else {"var_cap": inst.var_cap}
    if args.method in ("primal", "both"):
        primal = (solve_primal(inst.cost, ms, **cap_kw) if args.side == "lower"
                  else solve_primal_max(inst.cost, ms, **cap_kw))
        if primal.status != "optimal":
            _emit({"error": f"primal solve ended with status {primal.status}"}, args)
            return EXIT_INFEASIBLE
        payload["primal_value"] = primal.value
        payload["lp_stats"] = primal.stats
        if out_dir:
            _write_coupling_csv(os.path.join(out_dir, "coupling.csv"), primal.coupling, ms)
    if args.method in ("dual", "both"):
        ref = primal.value if primal is not None else None
        if args.side == "lower":
            cert, trace = ascend(inst.cost, ms, config, primal_value=ref)
        else:
            cert, trace = descend_upper(inst.cost, ms, config, primal_value=ref)
        payload["dual_value"] = cert.dual_value
        payload["dual_status"] = trace.status
        payload["iterations"] = len(trace)
        if primal is not None:
            payload["gap"] = relative_gap(cert.dual_value, primal.value)
        if out_dir:
            cert_path = os.path.join(out_dir, "certificate.json")
            with open(cert_path, "w") as fh:
                json.dump(cert.as_dict(), fh, indent=2)
            trace.write_csv(os.path.join(out_dir, "trace.csv"))
    _emit(payload, args)
    return EXIT_OK


def cmd_certify(args) -> int:
    inst = parse_instance(args.instance)
    config = _apply_flags(inst.config, args)
    report = certify(inst.cost, inst.marginals, config, var_cap=inst.var_cap)
    payload = report.as_dict()
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        for variant, trace in report.traces.items():
            trace.write_csv(os.path.join(args.out, f"trace_{variant}.csv"))
    _emit(payload, args)
    if not report.feasible:
        return EXIT_INFEASIBLE
    return EXIT_OK if report.passed else EXIT_INFEASIBLE


def cmd_envelope(args) -> int:
    try:
        raw = np.loadtxt(args.csv, delimiter=",", ndmin=2)
        if raw.shape[1] != 2:
            raise ValueError(f"expected two columns x,f(x), got {raw.shape[1]}")
        f = GridFunction(raw[:, 0], raw[:, 1])
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    env = convex_envelope(f)
    if args.at is not None:
        try:
            value = eval_envelope(env, args.at)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        print(repr(value))
        return EXIT_OK
    lines = ["x,envelope"] + [
        f"{x!r},{v!r}" for x, v in zip(env.hull_grid, env.hull_values)
    ]
    text = "\n".join(lines)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "hull.csv"), "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_quantize(args) -> int:
    try:
        mu = quantize_lognormal(args.location, args.scale, args.m)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(json.dumps(mu.as_dict()))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motbounds",
        description="Price bounds for multi-period martingale transport on discrete marginals.",
    )
    parser.add_argument("--json", action="store_true", help="structured JSON output")
    parser.add_argument("--out", metavar="DIR", help="directory for artifact files")
    parser.add_argument("--tol", type=float, help="relative gap target")
    parser.add_argument("--max-iters", type=int, dest="max_iters", help="ascent iteration cap")
    parser.add_argument("--variant", choices=("proposition", "remark_b"),
                        help="lower-bound cascade variant")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate the convex order of an instance")
    p.add_argument("instance")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="solve one side by LP, ascent, or both")
    p.add_argument("instance")
    p.add_argument("--side", choices=("lower", "upper"), default="lower")
    p.add_argument("--method", choices=("primal", "dual", "both"), default="both")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("certify", help="five-value certification with gap checks")
    p.add_argument("instance")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("envelope", help="convex envelope of a two-column CSV")
    p.add_argument("csv")
    p.add_argument("--at", type=float, help="evaluate the envelope at a point")
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("quantize", help="quantize a lognormal law to equal-mass atoms")
    p.add_argument("--location", type=float, required=True)
    p.add_argument("--scale", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_quantize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its usage error to stderr
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except InstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
