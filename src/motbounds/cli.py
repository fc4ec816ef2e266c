"""Command-line front end: instance ingestion, validation, solving, certification.

An instance file holds the marginals and the cost, nothing else. Each run
setting has one spelling, a global flag; GLOBAL_FLAGS names the commands, or
the `solve --method` values, that read it, and main refuses it anywhere else.
Exit codes are a stable contract: 0 success, 1 input error, 2 infeasible
instance or failed check, 3 resource cap exceeded. Structured output is JSON
behind --json; tabular artifacts (hulls, couplings, traces) are CSV of plain
numbers, all written by _write_csv.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .ascent import AscentConfig, ascend, certify, descend_upper
from .envelope import GridFunction, convex_envelope, eval_envelope
from .measures import (
    COST_FORMS,
    DEFAULT_VAR_CAP,
    STRIKE_FORMS,
    CostSpec,
    DiscreteMeasure,
    MarginalSequence,
    NonFiniteCostError,
    SizeCapError,
    is_json_number,
    quantize_lognormal,
    validate_sequence,
)
from .primal import HighsMissingError, multipliers_to_semistatic, solve_primal, solve_primal_max

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_CAP = 3

# global flag -> (argparse dest, readers: commands or `solve --method`s); main refuses it on
# any other. The dest of --tol and --max-iters is the AscentConfig field that the flag sets.
GLOBAL_FLAGS = {"--json": ("json", ("check", "solve", "certify")),
                "--out": ("out", ("solve", "certify", "envelope")),
                "--tol": ("target_gap", ("solve --method both", "certify")),
                "--max-iters": ("max_iters", ("solve --method dual", "solve --method both")),
                "--var-cap": ("var_cap", ("solve", "certify"))}


class InstanceError(ValueError):
    """Malformed instance file or flag; message carries the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


@dataclass
class Instance:
    cost: CostSpec
    marginals: MarginalSequence


def _number(value, field: str):
    """value if it is a JSON number, else an InstanceError naming field."""
    if not is_json_number(value):
        raise InstanceError(field, f"expected a number, got {json.dumps(value)}")
    return value


def _numbers(values, field: str) -> list:
    """A JSON list of numbers, checked element by element."""
    if not isinstance(values, list):
        raise InstanceError(field, f"expected a list of numbers, got {json.dumps(values)}")
    return [_number(v, f"{field}[{k}]") for k, v in enumerate(values)]


def _parse_lognormal(params, where: str, var_cap) -> DiscreteMeasure:
    if not isinstance(params, dict):
        raise InstanceError(where, "expected an object")
    keys = ["location", "m", "scale"]
    unknown = sorted(set(params) - set(keys))
    if unknown:
        raise InstanceError(f"{where}.{unknown[0]}", f"unknown key; expected one of {keys}")
    for key in keys:
        if key not in params:
            raise InstanceError(where, f"missing key {key!r}")
        _number(params[key], f"{where}.{key}")
    m = params["m"]
    if not 0 < m < np.inf or m != int(m):
        raise InstanceError(f"{where}.m", f"expected a positive integer, got {json.dumps(m)}")
    try:
        return quantize_lognormal(float(params["location"]), float(params["scale"]), int(m),
                                  var_cap)
    except (ValueError, OverflowError) as exc:
        raise InstanceError(where, str(exc)) from exc


def _parse_measure(spec, where: str, var_cap=None) -> DiscreteMeasure:
    if not isinstance(spec, dict):
        raise InstanceError(where, "expected an object")
    keys = ["atoms", "lognormal", "weights"]
    unknown = sorted(set(spec) - set(keys))
    if unknown:
        raise InstanceError(f"{where}.{unknown[0]}", f"unknown key; expected one of {keys}")
    if "lognormal" in spec:
        if len(spec) > 1:
            raise InstanceError(where, "expected atoms/weights or a lognormal block, not both")
        return _parse_lognormal(spec["lognormal"], f"{where}.lognormal", var_cap)
    if "atoms" in spec and "weights" in spec:
        atoms = _numbers(spec["atoms"], f"{where}.atoms")
        weights = _numbers(spec["weights"], f"{where}.weights")
        try:
            return DiscreteMeasure(np.asarray(atoms, float), np.asarray(weights, float))
        except (ValueError, OverflowError) as exc:
            raise InstanceError(where, str(exc)) from exc
    raise InstanceError(where, "expected atoms/weights or a lognormal block")


def _read_csv(path: str) -> np.ndarray:
    """Rows of a numeric CSV file without a header; ValueError if it holds none."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # numpy warns on an empty file, refused below
        raw = np.loadtxt(path, delimiter=",", ndmin=2)
    if raw.size == 0:
        raise ValueError(f"{path}: no data rows")
    return raw


def _load_cost_table(path, ms: MarginalSequence) -> np.ndarray:
    """Tensor CSV: one row per product-grid point, columns x_1..x_n,value."""
    if not isinstance(path, str):
        raise InstanceError("cost.path", f"expected a file name, got {json.dumps(path)}")
    try:
        raw = _read_csv(path)
    except (OSError, ValueError) as exc:
        raise InstanceError("cost.path", str(exc)) from exc
    if raw.shape[1] != ms.n + 1:
        raise InstanceError("cost.path", f"expected {ms.n + 1} columns, got {raw.shape[1]}")
    index = []
    for i, grid in enumerate(ms.grids):  # nearest atom, within 1e-9 of the largest |atom|
        coords = raw[:, i]
        hi = np.minimum(np.searchsorted(grid, coords), grid.size - 1)
        lo = np.maximum(hi - 1, 0)
        pos = np.where(np.abs(grid[lo] - coords) <= np.abs(grid[hi] - coords), lo, hi)
        off = ~(np.abs(grid[pos] - coords) <= 1e-9 * np.max(np.abs(grid)))  # NaN is off too
        if off.any():
            x = float(coords[off][0])
            raise InstanceError("cost.path", f"coordinate {x!r} is not an atom of marginal {i + 1}")
        index.append(pos)
    flat = np.ravel_multi_index(index, ms.sizes)
    counts = np.bincount(flat, minlength=ms.path_count)
    if np.any(counts == 0):
        raise InstanceError("cost.path", "tensor does not cover the full product grid")
    if np.any(counts > 1):
        row = np.argmax(flat == np.argmax(counts > 1))  # first row of the first repeated point
        point = tuple(raw[row, :-1].tolist())
        raise InstanceError("cost.path", f"grid point {point!r} is listed more than once")
    table = np.empty(ms.sizes)
    table[tuple(index)] = raw[:, -1]
    return table


def parse_instance(path: str, var_cap=None) -> Instance:
    """The instance in the JSON file at path; a lognormal block makes at most
    var_cap atoms (quantize_lognormal's default cap when None)."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InstanceError(path, str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise InstanceError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc
    except ValueError as exc:  # undecodable bytes, or an integer too long to convert
        raise InstanceError(path, str(exc)) from exc
    except RecursionError as exc:
        raise InstanceError(path, "JSON nested too deeply") from exc
    if not isinstance(payload, dict):
        raise InstanceError(path, "top level must be an object")
    top_keys = ["cost", "marginals"]
    unknown = sorted(set(payload) - set(top_keys))
    if unknown:
        raise InstanceError(unknown[0], f"unknown key; expected one of {top_keys}")

    raw_marginals = payload.get("marginals")
    if not isinstance(raw_marginals, list) or len(raw_marginals) < 2:
        raise InstanceError("marginals", "need a list of at least two measure specs")
    ms = MarginalSequence(
        [_parse_measure(spec, f"marginals[{i}]", var_cap) for i, spec in enumerate(raw_marginals)]
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
    for key, forms in (("path", ("custom_table",)), ("strike", STRIKE_FORMS)):
        if key in raw_cost and form not in forms:
            raise InstanceError(f"cost.{key}", f"the {form} form takes no {key}")
    try:
        if form == "custom_table":
            if "path" not in raw_cost:
                raise InstanceError("cost.path", "custom_table needs a tensor CSV path")
            table = _load_cost_table(raw_cost["path"], ms)
            cost = CostSpec(ms.n, form, table=table)
        else:
            strike = raw_cost.get("strike")
            if strike is not None:
                strike = float(_number(strike, "cost.strike"))
            cost = CostSpec(ms.n, form, strike=strike)
    except InstanceError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise InstanceError("cost", str(exc)) from exc

    return Instance(cost, ms)


def _apply_flags(args) -> AscentConfig:
    """AscentConfig() with the --tol and --max-iters that were given."""
    config = AscentConfig()
    for flag in ("--tol", "--max-iters"):
        key = GLOBAL_FLAGS[flag][0]
        value = getattr(args, key)
        if value is not None:
            try:
                config = replace(config, **{key: value})
            except ValueError as exc:
                raise InstanceError(flag, str(exc)) from exc
    return config


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


def _out_dir(args):
    """args.out, created first if given; an OSError becomes an InstanceError naming --out.

    Commands call it before any work, so an unusable --out costs no solve.
    """
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise InstanceError("--out", str(exc)) from exc
    return args.out


def _write_artifact(path, text: str) -> None:
    """Write text to path; an OSError becomes an InstanceError naming --out."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InstanceError("--out", str(exc)) from exc


def _write_csv(out, header, columns) -> None:
    """Write equal-length columns as CSV under a header row of names.

    out is a path or a text stream. Every cell is the repr of a Python int or
    float, so np.loadtxt(out, delimiter=",", skiprows=1) reads the same values.
    """
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    text = "\n".join([",".join(header)] + [",".join(map(repr, row)) for row in rows]) + "\n"
    if hasattr(out, "write"):
        out.write(text)
    else:
        _write_artifact(out, text)


def cmd_check(args) -> int:
    inst = parse_instance(args.instance)
    report = validate_sequence(inst.marginals)
    _emit(report.as_dict(), args)
    return EXIT_OK if report.ok else EXIT_INFEASIBLE


def cmd_solve(args) -> int:
    config = _apply_flags(args)
    inst = parse_instance(args.instance, args.var_cap)
    ms = inst.marginals
    # the cap holds for every method: the dual's cascade builds the product-grid tensor too
    if ms.path_count > args.var_cap:
        raise SizeCapError(f"{ms.path_count} path variables exceed the cap {args.var_cap}")
    out_dir = _out_dir(args)
    validation = validate_sequence(ms)
    if not validation.ok:
        _emit({"error": "marginals fail the convex-order check",
               "validation": validation.as_dict()}, args)
        return EXIT_INFEASIBLE
    primal = None
    payload = {"side": args.side, "method": args.method}
    if args.method in ("primal", "both"):
        solve = solve_primal if args.side == "lower" else solve_primal_max
        primal = solve(inst.cost, ms, args.var_cap)
        if primal.status != "optimal":
            _emit({"error": f"primal solve ended with status {primal.status}"}, args)
            return EXIT_INFEASIBLE
        payload["primal_value"] = primal.value
        payload["lp_stats"] = primal.stats
        if out_dir:
            coupling = primal.coupling
            _write_csv(os.path.join(out_dir, "coupling.csv"),
                       [f"x_{i + 1}" for i in range(ms.n)] + ["mass"],
                       [grid[a] for grid, a in zip(ms.grids, coupling.atoms())] + [coupling.mass])
    if args.method in ("dual", "both"):
        # with the LP solved, start at its marginal multipliers, as certify does
        ref = start = None
        if primal is not None:
            ref = primal.value
            start = multipliers_to_semistatic(primal, ms)[0][1:]
        run = ascend if args.side == "lower" else descend_upper
        cert, trace = run(inst.cost, ms, config, primal_value=ref, start=start)
        payload["dual_value"] = cert.dual_value
        payload["dual_status"] = trace.status
        payload["iterations"] = len(trace)
        if primal is not None:
            payload["gap"] = cert.gap_vs_primal
        if out_dir:
            _write_artifact(os.path.join(out_dir, "certificate.json"),
                            json.dumps(cert.as_dict(), indent=2))
            _write_csv(os.path.join(out_dir, "trace.csv"),
                       ["iter", "dual_value", "grad_norm", "elapsed_ms"],
                       [np.arange(len(trace)), trace.values, trace.grad_norms, trace.elapsed_ms])
    _emit(payload, args)
    return EXIT_OK


def cmd_certify(args) -> int:
    config = _apply_flags(args)
    inst = parse_instance(args.instance, args.var_cap)
    out_dir = _out_dir(args)
    report = certify(inst.cost, inst.marginals, target_gap=config.target_gap,
                     var_cap=args.var_cap)
    payload = report.as_dict()
    # the text --json prints, encoded once for both
    text = json.dumps(payload, indent=2, sort_keys=True) if out_dir or args.json else None
    if out_dir:
        _write_artifact(os.path.join(out_dir, "report.json"), text)
    if args.json:
        print(text)
    else:
        _emit(payload, args)
    return EXIT_OK if report.passed else EXIT_INFEASIBLE


def cmd_envelope(args) -> int:
    if args.at is not None and args.out:
        raise InstanceError("--out", "envelope --at prints one value and writes no file")
    out_dir = _out_dir(args)
    try:
        raw = _read_csv(args.csv)
        if raw.shape[1] != 2:
            raise ValueError(f"expected two columns x,f(x), got {raw.shape[1]}")
        env = convex_envelope(GridFunction(raw[:, 0], raw[:, 1]))
        value = None if args.at is None else eval_envelope(env, args.at)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if value is not None:
        print(repr(value))
        return EXIT_OK
    out = os.path.join(out_dir, "hull.csv") if out_dir else sys.stdout
    _write_csv(out, ["x", "envelope"], [env.hull_grid, env.hull_values])
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
    parser.add_argument("--tol", type=float, dest="target_gap", metavar="TOL",
                        help="relative gap target")
    parser.add_argument("--max-iters", type=int, dest="max_iters", help="ascent iteration cap")
    parser.add_argument("--var-cap", type=int, dest="var_cap", metavar="N",
                        help=f"cap on LP path variables (default {DEFAULT_VAR_CAP})")
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
        run = f"solve --method {args.method}" if args.command == "solve" else args.command
        for flag, (key, readers) in GLOBAL_FLAGS.items():
            given = getattr(args, key) != parser.get_default(key)
            if given and args.command not in readers and run not in readers:
                raise InstanceError(flag, f"{run} does not read this flag")
        if args.var_cap is None:
            args.var_cap = DEFAULT_VAR_CAP
        elif args.var_cap < 1:
            raise InstanceError("--var-cap", f"expected a positive integer, got {args.var_cap}")
        return args.func(args)
    except (InstanceError, NonFiniteCostError, HighsMissingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
