"""Supergradient ascent on the dual tables and primal/dual gap certification.

The dual objective is piecewise affine and concave (lower variants) or convex
(upper variant) in the finitely many table entries, so plain subgradient steps
zigzag between facets and crawl along ridges. The optimizer therefore
accumulates an adaptive metric from the gradient history (space dilation
along successive gradient differences, after Shor's r-algorithm), which
contracts the across-ridge component and lets the iterate travel the ridge.
The reference only sets the step length: when the transport LP value is
available and not yet reached, the step targets the remaining gap directly;
otherwise it is INITIAL_STEP / sqrt(k). Every iterate is a valid bound, so
the best-so-far certificate is sound regardless of oscillation. One
routine, ascend, runs every variant, and the variant alone sets the
direction: it maximizes the lower variants and minimizes remark_a. A run
starts at u = 0 unless it is given a start.

Certification assembles the LP once and solves its two sides at the same
time: the maximisation on the single thread of a stdlib executor, the
minimisation on the caller, which HiGHS allows because it releases the
interpreter lock while it solves. Each variant's run then starts at its LP
side's own marginal multipliers. By the multi-period duality, the cascade
at those tables already finds the best u_1 and trading positions, so its
value meets the LP value and the run stops on its first iterate; a start
that falls short of the target gap is ascended from like any other.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .cascade import (
    LOWER_VARIANTS,
    VARIANTS,
    DualCertificate,
    DualVariables,
    SubhedgeReport,
    dual_value_and_subgradient,
    verify_subhedge,
)
from .measures import DEFAULT_VAR_CAP, CostSpec, MarginalSequence, SequenceReport, validate_sequence
from .primal import PrimalSolution, _solve, assemble_lp, multipliers_to_semistatic

GRAD_TOL = 1e-7
DILATION = 2.0  # metric contraction along gradient differences
EPSILON = 1e-8


def relative_gap(value: float, reference: float) -> float:
    """|value - reference| / (1 + |reference|)."""
    return abs(value - reference) / (1.0 + abs(reference))


@dataclass(frozen=True)
class AscentConfig:
    variant: str = "proposition"
    max_iters: int = 5000
    target_gap: float = 1e-4  # relative

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError("max_iters must be a positive integer")
        if not 0 < self.target_gap < np.inf:
            raise ValueError("target_gap must be finite and positive")


@dataclass(eq=False)
class AscentTrace:
    """Per-iteration record of the optimizer run."""

    values: np.ndarray
    grad_norms: np.ndarray
    best_values: np.ndarray
    elapsed_ms: np.ndarray
    status: str

    def __len__(self):
        return self.values.size


def _project_zero_mean(tables, ms: MarginalSequence) -> None:
    """Gauge fixing: remove the weighted mean of each table in place.

    The objective is invariant under constant shifts of any u_i, so the
    projection changes nothing but pins the iterates.
    """
    for i, t in enumerate(tables, start=1):
        t -= np.dot(ms[i].weights, t)


MAX_GAP_STEP = 1e3  # cap on the gap-targeted step length
INITIAL_STEP = 1.0  # the step without a gap to target is INITIAL_STEP / sqrt(k)


def _run(cost: CostSpec, ms: MarginalSequence, config: AscentConfig,
         reference: Optional[float], start=None):
    variant = config.variant
    maximize = variant in LOWER_VARIANTS
    sign = 1.0 if maximize else -1.0
    u = DualVariables.zeros(ms) if start is None else DualVariables.from_tables(ms, start)
    tables = u.tables()
    _project_zero_mean(tables, ms)
    sizes = [t.size for t in tables]
    cuts = np.cumsum(sizes)[:-1]
    metric = np.eye(sum(sizes))  # dilated-space basis, accumulated over the run
    grad_prev = None
    values, norms, bests, stamps = [], [], [], []
    best_value = -np.inf if maximize else np.inf
    best_tables = [t.copy() for t in tables]
    status = "iteration_limit"
    t0 = time.perf_counter()
    for k in range(1, config.max_iters + 1):
        u = DualVariables.from_tables(ms, tables)
        value, grads = dual_value_and_subgradient(variant, cost, ms, u)
        gnorm = float(np.sqrt(sum(float(g @ g) for g in grads)))
        if (value > best_value) if maximize else (value < best_value):
            best_value = value
            best_tables = [t.copy() for t in tables]
        values.append(value)
        norms.append(gnorm)
        bests.append(best_value)
        stamps.append((time.perf_counter() - t0) * 1e3)
        if reference is not None and relative_gap(best_value, reference) < config.target_gap:
            status = "converged_gap"
            break
        if gnorm < GRAD_TOL:
            status = "converged_stationary"
            break
        if k == config.max_iters:
            break
        # Contract the metric along the latest gradient difference (the
        # across-kink direction) and step along the gradient in the dilated
        # space. With a reference the step targets the remaining gap, which
        # is exact when the attained affine piece is active at the optimum.
        flat_g = np.concatenate(grads)
        if grad_prev is not None:
            xi = metric.T @ (flat_g - grad_prev)
            norm_xi = float(np.linalg.norm(xi))
            if norm_xi > EPSILON:
                xi /= norm_xi
                metric += np.outer(metric @ xi, xi) * (1.0 / DILATION - 1.0)
        grad_prev = flat_g
        dilated = metric.T @ flat_g
        direction = metric @ dilated
        gap = (reference - value) * sign if reference is not None else 0.0
        denom = float(dilated @ dilated)
        if gap > 0 and denom > EPSILON**2:
            alpha = min(gap / denom, MAX_GAP_STEP)
        else:
            alpha = INITIAL_STEP / np.sqrt(k)
        for i, part in enumerate(np.split(sign * alpha * direction, cuts)):
            tables[i] += part
        _project_zero_mean(tables, ms)
    trace = AscentTrace(
        np.asarray(values), np.asarray(norms), np.asarray(bests), np.asarray(stamps), status
    )
    gap = relative_gap(best_value, reference) if reference is not None else None
    cert = DualCertificate(
        variant, DualVariables.from_tables(ms, best_tables), best_value, gap
    )
    return cert, trace


def ascend(cost: CostSpec, ms: MarginalSequence, config: Optional[AscentConfig] = None,
           primal_value: Optional[float] = None, start=None):
    """Optimize the dual objective of config.variant from start (u = 0 by default).

    The run maximizes the lower variants and minimizes remark_a. start holds
    the tables u_2, ..., u_n, checked by DualVariables.from_tables. Every
    iterate is a valid bound by weak duality; the certificate carries the best
    value seen and its gap_vs_primal. With a primal value the run stops at the
    configured relative gap, otherwise at a flat supergradient or the cap.
    """
    return _run(cost, ms, config or AscentConfig(), reference=primal_value, start=start)


def descend_upper(cost: CostSpec, ms: MarginalSequence, config: Optional[AscentConfig] = None,
                  primal_value: Optional[float] = None, start=None):
    """ascend with variant remark_a, whatever config.variant says."""
    config = replace(config or AscentConfig(), variant="remark_a")
    return _run(cost, ms, config, reference=primal_value, start=start)


@dataclass(eq=False)
class CertifyReport:
    """Five-value certification: both LP sides and all three dual certificates.

    Each certificate is the best cascade value of a run started at its LP
    side's marginal multipliers. timings holds consecutive wall-clock laps,
    one per phase that ran: validation, lp_lower, lp_upper, duals and
    subhedge, so they sum to at most elapsed_s. The two LP sides are solved
    at the same time, so lp_lower runs from the start of the LP phase
    (assembly and the worker's start included) to the lower solution, and
    lp_upper is only the further wait for the upper one and the worker's
    join. The first certify in a process also charges the one-time import
    of scipy.sparse, scipy.optimize and concurrent.futures to lp_lower.
    Each side's own solver time, overlap included, is stats["solve_s"] of
    primal_lower and primal_upper; as_dict gives each side its value,
    status and stats.
    """

    feasible: bool
    validation: SequenceReport
    target_gap: float
    primal_lower: Optional[PrimalSolution] = None
    primal_upper: Optional[PrimalSolution] = None
    certificates: dict = field(default_factory=dict)
    traces: dict = field(default_factory=dict)
    gaps: dict = field(default_factory=dict)
    subhedge_zero: Optional[SubhedgeReport] = None
    subhedge_best: Optional[SubhedgeReport] = None
    passed: bool = False
    elapsed_s: float = 0.0
    timings: dict = field(default_factory=dict)  # wall seconds per phase that ran

    def as_dict(self) -> dict:
        out = {
            "feasible": self.feasible,
            "validation": self.validation.as_dict(),
            "target_gap": self.target_gap,
            "passed": self.passed,
            "elapsed_s": self.elapsed_s,
            "timings": dict(self.timings),
            "gaps": dict(self.gaps),
        }
        for key, side in (("primal_lower", self.primal_lower), ("primal_upper", self.primal_upper)):
            if side is not None:
                out[key] = {"value": side.value, "status": side.status, "stats": side.stats}
        out["certificates"] = {k: v.as_dict() for k, v in self.certificates.items()}
        out["statuses"] = {k: t.status for k, t in self.traces.items()}
        if self.subhedge_zero is not None:
            out["subhedge_zero"] = self.subhedge_zero.as_dict()
        if self.subhedge_best is not None:
            out["subhedge_best"] = self.subhedge_best.as_dict()
        return out


def certify(cost: CostSpec, ms: MarginalSequence, config: Optional[AscentConfig] = None,
            var_cap: int = DEFAULT_VAR_CAP) -> CertifyReport:
    """Solve both LP sides, run all three dual routines from the LP multipliers.

    All three variants run whatever config.variant says; only
    config.max_iters and config.target_gap are read.

    The LP is assembled once, on the calling thread, so a var_cap refusal
    (SizeCapError) comes before any thread starts. The maximisation then
    runs in a one-thread concurrent.futures executor while the caller solves
    the minimisation. Leaving the executor's with block joins the worker on
    every path, and the future's result() re-raises an exception raised on it.

    Each variant is one ascend run, paired with its LP side: the lower LP for
    proposition and remark_b, the upper LP for remark_a. The run starts at
    that side's marginal multipliers u_2, ..., u_n, and gaps[variant] is its
    certificate's gap_vs_primal to that side's value. For fixed u_2..u_n the
    cascade finds the best u_1 and trading positions, so its value there
    matches the LP value up to the solver's dual tolerance, and the run
    usually stops on its first iterate. A start that misses target_gap costs
    further ascent steps, never soundness: every reported value is a cascade
    value. Also verifies the conditional sub-hedge property of the cascade
    strategy under the LP-optimal coupling, for u = 0 and for the proposition
    certificate's u.
    """
    config = config or AscentConfig()
    clock = start = time.perf_counter()
    timings = {}

    def lap(phase: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        timings[phase] = now - clock
        clock = now

    validation = validate_sequence(ms)
    lap("validation")
    report = CertifyReport(validation.ok, validation, config.target_gap, timings=timings)
    if not validation.ok:
        report.elapsed_s = time.perf_counter() - start
        return report
    lp = assemble_lp(cost, ms, var_cap)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="motbounds-lp-upper") as pool:
        pending = pool.submit(_solve, lp, -1)
        lower = _solve(lp, +1)
        lap("lp_lower")
        upper = pending.result()
    lap("lp_upper")
    report.primal_lower = lower
    report.primal_upper = upper
    if lower.status != "optimal" or upper.status != "optimal":
        report.feasible = lower.status != "infeasible" and upper.status != "infeasible"
        report.elapsed_s = time.perf_counter() - start
        return report

    # ascend is looked up in the module globals, where perfbench's tracer wraps it
    for variant, side in (("proposition", lower), ("remark_b", lower), ("remark_a", upper)):
        cert, trace = ascend(cost, ms, replace(config, variant=variant), primal_value=side.value,
                             start=multipliers_to_semistatic(side, ms)[0][1:])
        report.certificates[variant] = cert
        report.traces[variant] = trace
        report.gaps[variant] = cert.gap_vs_primal
    lap("duals")

    coupling = lower.coupling
    report.subhedge_zero = verify_subhedge(cost, ms, DualVariables.zeros(ms), coupling)
    report.subhedge_best = verify_subhedge(
        cost, ms, report.certificates["proposition"].dual_variables, coupling
    )
    lap("subhedge")
    report.passed = all(g < config.target_gap for g in report.gaps.values())
    report.elapsed_s = time.perf_counter() - start
    return report
