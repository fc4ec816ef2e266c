"""Supergradient ascent on the dual tables and primal/dual gap certification.

The dual objective is piecewise affine and concave (lower variants) or convex
(upper variant) in the finitely many table entries, so plain subgradient steps
zigzag between facets and crawl along ridges. The optimizer therefore
accumulates an adaptive metric from the gradient history (space dilation
along successive gradient differences, after Shor's r-algorithm), which
contracts the across-ridge component and lets the iterate travel the ridge.
The reference only sets the step length: when the transport LP value is
available and not yet reached, the step targets the remaining gap directly;
otherwise it is initial_step / sqrt(k). Every iterate is a valid bound, so
the best-so-far certificate is sound regardless of oscillation.
Certification solves the LP on both sides and closes the relative gap
against the best certificate of each variant.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .cascade import (
    LOWER_VARIANTS,
    VARIANTS,
    CostSpec,
    DualCertificate,
    DualVariables,
    SubhedgeReport,
    dual_value_and_subgradient,
    verify_subhedge,
)
from .measures import MarginalSequence, SequenceReport, validate_sequence
from .primal import PrimalSolution, solve_primal, solve_primal_max

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
    initial_step: float = 1.0
    target_gap: float = 1e-4  # relative

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.initial_step <= 0:
            raise ValueError("initial_step must be positive")


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

    def rows(self):
        for k in range(len(self)):
            yield k, self.values[k], self.grad_norms[k], self.elapsed_ms[k]

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("iter,dual_value,grad_norm,elapsed_ms\n")
            for k, v, g, t in self.rows():
                fh.write(f"{k},{v!r},{g!r},{t!r}\n")


def _project_zero_mean(tables, ms: MarginalSequence) -> None:
    """Gauge fixing: remove the weighted mean of each table in place.

    The objective is invariant under constant shifts of any u_i, so the
    projection changes nothing but pins the iterates.
    """
    for i, t in enumerate(tables, start=1):
        t -= np.dot(ms[i].weights, t)


MAX_GAP_STEP = 1e3  # cap on the gap-targeted step length


def _run(cost: CostSpec, ms: MarginalSequence, config: AscentConfig,
         reference: Optional[float]):
    variant = config.variant
    maximize = variant != "remark_a"
    sign = 1.0 if maximize else -1.0
    sizes = [len(m) for m in ms.marginals[1:]]
    cuts = np.cumsum(sizes)[:-1]
    tables = [np.zeros(s) for s in sizes]
    metric = np.eye(sum(sizes))  # dilated-space basis, accumulated over the run
    grad_prev = None
    values, norms, bests, stamps = [], [], [], []
    best_value = -np.inf if maximize else np.inf
    best_tables = [t.copy() for t in tables]
    status = "iteration_limit"
    start = time.perf_counter()
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
        stamps.append((time.perf_counter() - start) * 1e3)
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
            alpha = config.initial_step / np.sqrt(k)
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
           primal_value: Optional[float] = None):
    """Maximize the lower-bound dual objective from u = 0.

    Every iterate is a valid lower bound by weak duality; the certificate
    carries the best value seen. When a primal value is supplied the run stops
    at the configured relative gap, otherwise at a flat supergradient or the
    iteration cap.
    """
    config = config or AscentConfig()
    if config.variant not in LOWER_VARIANTS:
        raise ValueError(f"ascend handles the lower variants, not {config.variant!r}")
    return _run(cost, ms, config, reference=primal_value)


def descend_upper(cost: CostSpec, ms: MarginalSequence, config: Optional[AscentConfig] = None,
                  primal_value: Optional[float] = None):
    """Minimize the upper-bound dual objective; mirror image of ascend.

    The run uses the remark_a variant whatever config.variant says.
    """
    config = replace(config or AscentConfig(), variant="remark_a")
    return _run(cost, ms, config, reference=primal_value)


@dataclass(eq=False)
class CertifyReport:
    """Five-value certification: both LP sides and all three dual optima."""

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

    def as_dict(self) -> dict:
        out = {
            "feasible": self.feasible,
            "validation": self.validation.as_dict(),
            "target_gap": self.target_gap,
            "passed": self.passed,
            "elapsed_s": self.elapsed_s,
            "gaps": dict(self.gaps),
        }
        if self.primal_lower is not None:
            out["primal_lower"] = {
                "value": self.primal_lower.value,
                "status": self.primal_lower.status,
                "stats": self.primal_lower.stats,
            }
        if self.primal_upper is not None:
            out["primal_upper"] = {
                "value": self.primal_upper.value,
                "status": self.primal_upper.status,
                "stats": self.primal_upper.stats,
            }
        out["certificates"] = {k: v.as_dict() for k, v in self.certificates.items()}
        out["statuses"] = {k: t.status for k, t in self.traces.items()}
        if self.subhedge_zero is not None:
            out["subhedge_zero"] = self.subhedge_zero.as_dict()
        if self.subhedge_best is not None:
            out["subhedge_best"] = self.subhedge_best.as_dict()
        return out


def certify(cost: CostSpec, ms: MarginalSequence, config: Optional[AscentConfig] = None,
            var_cap: Optional[int] = None) -> CertifyReport:
    """Solve both LP sides, run all three dual routines, and check the gaps.

    Also verifies the conditional sub-hedge property of the cascade strategy
    under the LP-optimal coupling, for u = 0 and for the optimized u.
    """
    from .primal import DEFAULT_VAR_CAP

    config = config or AscentConfig()
    cap = DEFAULT_VAR_CAP if var_cap is None else var_cap
    start = time.perf_counter()
    validation = validate_sequence(ms)
    report = CertifyReport(validation.ok, validation, config.target_gap)
    if not validation.ok:
        report.elapsed_s = time.perf_counter() - start
        return report
    lower = solve_primal(cost, ms, var_cap=cap)
    upper = solve_primal_max(cost, ms, var_cap=cap)
    report.primal_lower = lower
    report.primal_upper = upper
    if lower.status != "optimal" or upper.status != "optimal":
        report.feasible = lower.status != "infeasible" and upper.status != "infeasible"
        report.elapsed_s = time.perf_counter() - start
        return report

    for variant in LOWER_VARIANTS:
        cert, trace = ascend(cost, ms, replace(config, variant=variant), primal_value=lower.value)
        report.certificates[variant] = cert
        report.traces[variant] = trace
        report.gaps[variant] = relative_gap(cert.dual_value, lower.value)
    cert, trace = descend_upper(cost, ms, config, primal_value=upper.value)
    report.certificates["remark_a"] = cert
    report.traces["remark_a"] = trace
    report.gaps["remark_a"] = relative_gap(cert.dual_value, upper.value)

    coupling = lower.coupling
    report.subhedge_zero = verify_subhedge(cost, ms, DualVariables.zeros(ms), coupling)
    report.subhedge_best = verify_subhedge(
        cost, ms, report.certificates["proposition"].dual_variables, coupling
    )
    report.passed = all(g < config.target_gap for g in report.gaps.values())
    report.elapsed_s = time.perf_counter() - start
    return report
