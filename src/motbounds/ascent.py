"""Supergradient ascent on the dual tables and primal/dual gap certification.

The dual objective is piecewise affine and concave (lower variants) or convex
(upper variant) in the finitely many table entries, so plain subgradient steps
zigzag between facets and crawl along ridges. The optimizer therefore
accumulates an adaptive metric from the gradient history (space dilation
along successive gradient differences, after Shor's r-algorithm), which
contracts the across-ridge component and lets the iterate travel the ridge.
The metric B is held as base + P^T W (see _Metric): each dilation appends
one row to the thin factors P and W, and base is the identity, never
allocated, until the factors fill up and are folded into it by one matrix
product. A metric of at most BLOCK_VALUES entries folds at every dilation,
so it is the dense metric; on a larger one, a run with fewer dilations than
the factors hold, such as a short run on a wide instance, holds no
(sum m_i)^2 array.
The reference only sets the step length: when the transport LP value is
available and not yet reached, the step targets the remaining gap directly;
otherwise it is INITIAL_STEP / sqrt(k). Every iterate is a valid bound, so
the best-so-far certificate is sound regardless of oscillation. One
routine, ascend, runs every variant, and the variant alone sets the
direction: it maximizes the lower variants and minimizes remark_a. A run
starts at u = 0 unless it is given a start.

Certification runs no optimizer. By the multi-period duality, for fixed
u_2..u_n the cascade finds the best u_1 and trading positions, so one
cascade at an LP side's own marginal multipliers is a certificate whose
value meets that side's LP value.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from .cascade import (
    BLOCK_VALUES,
    LOWER_VARIANTS,
    VARIANTS,
    CascadeTensors,
    DualCertificate,
    DualVariables,
    SubhedgeReport,
    _built,
    _cascades,
    _objective,
    _subhedge,
    cascade_down,
    dual_value_and_subgradient,
)
from .measures import DEFAULT_VAR_CAP, CostSpec, MarginalSequence, SequenceReport, validate_sequence
from .primal import (
    CouplingReport,
    LpProblem,
    PrimalSolution,
    _lp_worker,
    _solve,
    assemble_lp,
    validate_coupling,
)

GRAD_TOL = 1e-7
DILATION = 2.0  # metric contraction along gradient differences
EPSILON = 1e-8
DEFAULT_TARGET_GAP = 1e-4  # relative; the default of ascend and certify alike


def relative_gap(value: float, reference: float) -> float:
    """|value - reference| / (1 + |reference|)."""
    return abs(value - reference) / (1.0 + abs(reference))


@dataclass(frozen=True)
class AscentConfig:
    variant: str = "proposition"
    max_iters: int = 5000
    target_gap: float = DEFAULT_TARGET_GAP

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        # a bool is refused, as in measures.is_json_number and quantize_lognormal's m
        iters = self.max_iters
        if isinstance(iters, bool) or not isinstance(iters, numbers.Integral) or iters < 1:
            raise ValueError("max_iters must be a positive integer")
        _check_target_gap(self.target_gap)


def _check_target_gap(target_gap) -> None:
    """ValueError unless target_gap is a finite positive number (a bool is refused)."""
    if isinstance(target_gap, bool) or not 0 < target_gap < np.inf:
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
    projection changes nothing but pins the iterates and certify's tables.
    """
    for i, t in enumerate(tables, start=1):
        t -= np.dot(ms[i].weights, t)


MAX_GAP_STEP = 1e3  # cap on the gap-targeted step length
INITIAL_STEP = 1.0  # the step without a gap to target is INITIAL_STEP / sqrt(k)


class _Metric:
    """Shor's dilated-space basis B = base + P^T W, with base the identity until the first fold.

    dilate(xi) appends p = B xi to P and (1/DILATION - 1) xi to W, the
    rank-1 update B += (1/DILATION - 1) B xi xi^T. P and W hold cap rows; a
    dilation that fills them folds them into base (base = I or base, plus
    P^T W), the one size x size array. With cap 1 every dilation folds at
    once, which is the dense rank-1 update.
    """

    def __init__(self, size: int, cap: int):
        self.base = None  # the identity, until the first fold
        self.p = np.empty((cap, size))
        self.w = np.empty((cap, size))
        self.rank = 0  # rows of P and W in use

    def dot(self, v: np.ndarray) -> np.ndarray:
        """B v, a new array."""
        out = v.copy() if self.base is None else self.base @ v
        if self.rank:
            out += self.p[:self.rank].T @ (self.w[:self.rank] @ v)
        return out

    def t_dot(self, v: np.ndarray) -> np.ndarray:
        """B^T v, a new array."""
        out = v.copy() if self.base is None else self.base.T @ v
        if self.rank:
            out += self.w[:self.rank].T @ (self.p[:self.rank] @ v)
        return out

    def dilate(self, xi: np.ndarray) -> None:
        """Contract B along the unit vector xi: B += (1/DILATION - 1) (B xi) xi^T."""
        self.p[self.rank] = self.dot(xi)
        np.multiply(xi, 1.0 / DILATION - 1.0, out=self.w[self.rank])
        self.rank += 1
        if self.rank == len(self.p):
            fold = self.p.T @ self.w
            if self.base is None:
                fold.flat[::fold.shape[0] + 1] += 1.0
            else:
                fold += self.base
            self.base, self.rank = fold, 0


def _run(cost: CostSpec, ms: MarginalSequence, config: AscentConfig,
         reference: Optional[float], start=None):
    variant = config.variant
    maximize = variant in LOWER_VARIANTS
    sign = 1.0 if maximize else -1.0
    u = DualVariables.zeros(ms) if start is None else DualVariables.from_tables(ms, start)
    x = np.concatenate(u.values)  # the position: u_2, ..., u_n end to end
    cuts = np.cumsum(ms.sizes[1:])[:-1]
    tables = np.split(x, cuts)  # views into x
    _project_zero_mean(tables, ms)
    # A metric of at most BLOCK_VALUES entries is held dense, each dilation folded at once: a
    # dense product costs less than the thin ones' calls. A larger one holds factors of at most
    # size // 2 rows, so B v costs no more than a dense product, and at most BLOCK_VALUES // size,
    # so each thin product reads at most one block; a run dilates fewer than max_iters times.
    dense = x.size**2 <= BLOCK_VALUES
    cap = 1 if dense else min(BLOCK_VALUES // x.size, x.size // 2, config.max_iters)
    metric = _Metric(x.size, max(1, cap))
    grad_prev = None
    values, norms, bests, stamps = [], [], [], []
    best_value = -np.inf if maximize else np.inf
    best_x = x.copy()
    status = "iteration_limit"
    t0 = time.perf_counter()
    for k in range(1, config.max_iters + 1):
        u = DualVariables.from_tables(ms, tables)
        value, grads = dual_value_and_subgradient(variant, cost, ms, u)
        gnorm = float(np.sqrt(sum(float(g @ g) for g in grads)))
        if (value > best_value) if maximize else (value < best_value):
            best_value = value
            best_x = x.copy()
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
            xi = metric.t_dot(flat_g - grad_prev)
            norm_xi = float(np.linalg.norm(xi))
            if norm_xi > EPSILON:
                xi /= norm_xi
                metric.dilate(xi)
        grad_prev = flat_g
        dilated = metric.t_dot(flat_g)
        direction = metric.dot(dilated)
        gap = (reference - value) * sign if reference is not None else 0.0
        denom = float(dilated @ dilated)
        if gap > 0 and denom > EPSILON**2:
            alpha = min(gap / denom, MAX_GAP_STEP)
        else:
            alpha = INITIAL_STEP / np.sqrt(k)
        x += sign * alpha * direction
        _project_zero_mean(tables, ms)
    trace = AscentTrace(
        np.asarray(values), np.asarray(norms), np.asarray(bests), np.asarray(stamps), status
    )
    gap = relative_gap(best_value, reference) if reference is not None else None
    cert = DualCertificate(
        variant, DualVariables.from_tables(ms, np.split(best_x, cuts)), best_value, gap
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

    Each certificate is one cascade at its LP side's multipliers; missed
    lists the variants whose gap is not below target_gap. timings holds the
    consecutive wall-clock laps of the phases that ran, in this order:
    validation; lp_lower, to the lower solution; duals_lower, the proposition
    and remark_b certificates, in the one cascade pass that also runs u = 0;
    subhedge, the coupling check and both sub-hedges; lp_upper, the rest of the wait for the upper side; dual_upper,
    the remark_a certificate. The upper LP solves during the three laps from
    lp_lower on, so each side's own solver time is its stats["solve_s"].
    as_dict gives a side's value only when it is optimal. The certificates,
    coupling_check and sub-hedges are set only when both sides are optimal,
    and the sub-hedges only when coupling_check, validate_coupling's report
    on the lower side's coupling, is ok.
    """

    validation: SequenceReport
    target_gap: float
    primal_lower: Optional[PrimalSolution] = None
    primal_upper: Optional[PrimalSolution] = None
    certificates: dict = field(default_factory=dict)
    coupling_check: Optional[CouplingReport] = None
    subhedge_zero: Optional[SubhedgeReport] = None
    subhedge_best: Optional[SubhedgeReport] = None
    elapsed_s: float = 0.0
    timings: dict = field(default_factory=dict)  # wall seconds per phase that ran

    @property
    def feasible(self) -> bool:
        """The marginals pass the convex-order check, so a martingale coupling exists."""
        return self.validation.ok

    @property
    def gaps(self) -> dict:
        """Each certificate's relative gap to its LP side's value."""
        return {variant: cert.gap_vs_primal for variant, cert in self.certificates.items()}

    @property
    def missed(self) -> list:
        """The variants whose gap is not below target_gap; empty before any certificate."""
        return [variant for variant, gap in self.gaps.items() if not gap < self.target_gap]

    @property
    def passed(self) -> bool:
        """No variant missed and both sub-hedges, run after all three certificates, verified."""
        return (self.subhedge_best is not None and self.subhedge_zero.ok and self.subhedge_best.ok
                and not self.missed)

    def as_dict(self) -> dict:
        out = {
            "feasible": self.feasible,
            "validation": self.validation.as_dict(),
            "target_gap": self.target_gap,
            "passed": self.passed,
            "elapsed_s": self.elapsed_s,
            "timings": dict(self.timings),
            "gaps": self.gaps,
            "missed": self.missed,
        }
        for key, side in (("primal_lower", self.primal_lower), ("primal_upper", self.primal_upper)):
            if side is not None:
                value = side.value if side.status == "optimal" else None
                out[key] = {"value": value, "status": side.status, "stats": side.stats}
        out["certificates"] = {k: v.as_dict() for k, v in self.certificates.items()}
        if self.coupling_check is not None:
            out["coupling_check"] = asdict(self.coupling_check)
        if self.subhedge_zero is not None:
            out["subhedge_zero"] = self.subhedge_zero.as_dict()
        if self.subhedge_best is not None:
            out["subhedge_best"] = self.subhedge_best.as_dict()
        return out


def _certificate(variant: str, ms: MarginalSequence, side: PrimalSolution, u: DualVariables,
                 casc: CascadeTensors) -> DualCertificate:
    """variant's certificate at u, the tables of side's multipliers, from casc, its cascade at u."""
    value = _objective(ms, u, casc)
    return DualCertificate(variant, u, value, relative_gap(value, side.value))


def _gauged_position(side: PrimalSolution, ms: MarginalSequence) -> DualVariables:
    """side's marginal multipliers u_2, ..., u_n, gauge-fixed as ascend fixes its start.

    Only the u_2..u_n blocks of side.duals are copied; the first cascade
    that reads the tables checks them.
    """
    ends = np.cumsum(ms.sizes)
    # views of a copy, so the in-place gauge leaves side.duals as HiGHS gave them
    tables = np.split(side.duals[ends[0]:ends[-1]].copy(), ends[1:-1] - ends[0])
    _project_zero_mean(tables, ms)
    return DualVariables(ms.grids[1:], tuple(tables))


def _upper_side(cost: CostSpec, ms: MarginalSequence, lp: LpProblem) -> PrimalSolution:
    """The LP worker's task: build what every cascade of (cost, ms) shares, then maximise.

    The build runs while the caller is inside HiGHS, which releases the
    interpreter lock, so the caller's first cascade finds it in _built's cache.
    """
    _built(cost, ms)
    return _solve(lp, -1)


def certify(cost: CostSpec, ms: MarginalSequence, *, target_gap: float = DEFAULT_TARGET_GAP,
            var_cap: int = DEFAULT_VAR_CAP) -> CertifyReport:
    """Solve both LP sides and evaluate all three dual certificates at their multipliers.

    target_gap must be finite and positive (else ValueError). The LP is
    assembled once on the calling thread, so a var_cap refusal
    (SizeCapError) starts no thread. The one long-lived LP worker
    (primal._lp_worker), which concurrent certify calls share, builds what
    every cascade of the instance shares (cascade._built) and then solves
    the maximisation, while the caller solves the minimisation; result()
    re-raises the worker's exception. While the upper side solves, the
    caller checks the lower one, in one cascade pass over three positions:
    proposition and remark_b at its multipliers, and proposition at u = 0.
    The sub-hedges, for u = 0 and for the proposition certificate's u, read
    their T_1 and max |T_n| from that pass, and run on its coupling only if
    that passes validation, which HiGHS's absolute tolerances can break on
    a tiny price scale. remark_a then reads the upper side's multipliers.
    Each certificate is one cascade at its side's multipliers u_2, ..., u_n,
    gauge-fixed as ascend fixes its start, with the value of
    dual_objective. It is a valid bound whatever its gap; a gap not below
    target_gap puts the variant in missed, and no ascent runs. Every cascade
    runs on the calling thread.
    """
    _check_target_gap(target_gap)
    clock = start = time.perf_counter()
    timings = {}

    def lap(phase: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        timings[phase] = now - clock
        clock = now

    validation = validate_sequence(ms)
    lap("validation")
    report = CertifyReport(validation, target_gap, timings=timings)
    if not validation.ok:
        report.elapsed_s = time.perf_counter() - start
        return report
    lp = assemble_lp(cost, ms, var_cap)
    pending = _lp_worker().submit(_upper_side, cost, ms, lp)
    lower = _solve(lp, +1)
    lap("lp_lower")
    found = {}  # the lower side's report fields, set once both sides are optimal
    if lower.status == "optimal":
        u, zero = _gauged_position(lower, ms), DualVariables.zeros(ms)
        (best, stepwise, at_zero), t_n_max = _cascades(
            cost, ms, [("proposition", u), ("remark_b", u), ("proposition", zero)], top_abs=True)
        found["certificates"] = {"proposition": _certificate("proposition", ms, lower, u, best),
                                 "remark_b": _certificate("remark_b", ms, lower, u, stepwise)}
        lap("duals_lower")
        coupling = lower.coupling
        check = found["coupling_check"] = validate_coupling(coupling, ms)
        if check.ok:
            found["subhedge_zero"] = _subhedge(cost, ms, zero, coupling, at_zero.levels[0],
                                               t_n_max[2])
            found["subhedge_best"] = _subhedge(cost, ms, u, coupling, best.levels[0], t_n_max[0])
        lap("subhedge")
    upper = pending.result()
    lap("lp_upper")
    report.primal_lower = lower
    report.primal_upper = upper
    if found and upper.status == "optimal":
        u = _gauged_position(upper, ms)
        found["certificates"]["remark_a"] = _certificate(
            "remark_a", ms, upper, u, cascade_down("remark_a", cost, ms, u))
        lap("dual_upper")
        for name, value in found.items():
            setattr(report, name, value)
    report.elapsed_s = time.perf_counter() - start
    return report
