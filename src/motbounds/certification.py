"""Primal/dual gap certification and the conditional sub-hedge check.

This is the one module that imports both the LP (primal) and the cascade.
Certification runs no optimizer: by the multi-period duality, for fixed
u_2..u_n the cascade finds the best u_1 and trading positions, so one
cascade at an LP side's own marginal multipliers is a certificate whose
value meets that side's LP value.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .cascade import (
    DEFAULT_TARGET_GAP,
    CascadeTensors,
    DualCertificate,
    DualVariables,
    _built,
    _cascades,
    _check_target_gap,
    _minus_u,
    _objective,
    _project_zero_mean,
    cascade_down,
    relative_gap,
)
from .measures import DEFAULT_VAR_CAP, CostSpec, MarginalSequence, SequenceReport, validate_sequence
from .primal import (
    Coupling,
    CouplingReport,
    PrimalSolution,
    _lp_worker,
    _solve,
    assemble_lp,
    multipliers_to_semistatic,
    validate_coupling,
)

SUBHEDGE_TOL = 1e-9  # times max(1, max |c|), so a rescaled instance keeps its verdict


@dataclass(frozen=True)
class SubhedgeReport:
    """Per-atom conditional slack of the candidate sub-hedge under a coupling."""

    atoms: np.ndarray
    slacks: np.ndarray
    ok: bool

    @property
    def min_slack(self) -> float:
        return float(self.slacks.min()) if self.slacks.size else 0.0

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "atoms": self.atoms.tolist(),
            "slacks": self.slacks.tolist(),
            "min_slack": self.min_slack,
        }


def verify_subhedge(cost: CostSpec, ms: MarginalSequence, u: DualVariables,
                    coupling: Coupling) -> SubhedgeReport:
    """Check that the cascade strategy sub-hedges c conditionally on the start.

    For every first-period atom with positive mass the conditional expectation
    under the coupling of T_1(S_1) + sum u_i(S_i) must not exceed the
    conditional expectation of the cost, up to SUBHEDGE_TOL times
    max(1, max |c|); equivalently T_1 must not exceed the conditional
    expectation of the terminal tensor T_n. The coupling must pass marginal
    and martingale validation first, else ValueError. The expectations sum
    over its rows, so T_n is read on those rows alone; T_1 is read from the
    proposition cascade at u.
    """
    check = validate_coupling(coupling, ms)
    if not check.ok:
        raise ValueError(f"coupling failed validation: {check.summary()}")
    return _subhedge(cost, ms, u, coupling, cascade_down("proposition", cost, ms, u).levels[0])


def _subhedge(cost: CostSpec, ms: MarginalSequence, u: DualVariables, coupling: Coupling,
              t1: np.ndarray) -> SubhedgeReport:
    """verify_subhedge on a coupling that passed validation, at t1, the proposition T_1 at u.

    The tolerance scale is _built's scale, the instance's max |c| (max |T_n|
    at u = 0), which no u changes, so T_n is read on the coupling's rows alone.
    """
    built = _built(cost, ms)
    top, scale = built.top, built.scale
    atom, m_1 = coupling.atoms(), ms.sizes[0]
    start_mass = np.bincount(atom[0], coupling.mass, m_1)
    mass = np.where(start_mass > 0, start_mass, 1.0)
    keep = ms[0].weights > 0
    t_n = _minus_u(top[atom], u, atom[1:])  # T_n on the coupling's rows
    slacks = (np.bincount(atom[0], coupling.mass * t_n, m_1) / mass - t1)[keep]
    ok = bool(np.all(slacks >= -SUBHEDGE_TOL * max(1.0, scale)))
    return SubhedgeReport(ms[0].atoms[keep], slacks, ok)


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

    The tables are views of multipliers_to_semistatic's copy of side.duals,
    so the in-place gauge leaves side.duals as HiGHS gave them; the first
    cascade that reads them checks them.
    """
    tables = multipliers_to_semistatic(side, ms)[0][1:]
    _project_zero_mean(tables, ms)
    return DualVariables(ms.grids[1:], tuple(tables))


def certify(cost: CostSpec, ms: MarginalSequence, *, target_gap: float = DEFAULT_TARGET_GAP,
            var_cap: int = DEFAULT_VAR_CAP) -> CertifyReport:
    """Solve both LP sides and evaluate all three dual certificates at their multipliers.

    target_gap must be finite and positive (else ValueError). The LP is
    assembled once on the calling thread, so a var_cap refusal
    (SizeCapError) starts no thread. The one long-lived LP worker
    (primal._lp_worker), which concurrent certify calls share, only solves
    the maximisation, while the caller solves the minimisation; result()
    re-raises the worker's exception. While the upper side solves, the
    caller checks the lower one, in one cascade pass over three positions:
    proposition and remark_b at its multipliers, and proposition at u = 0;
    its first cascade builds cascade._built, what every cascade of the
    instance shares. The sub-hedges, for u = 0 and for the proposition
    certificate's u, read their T_1 from that pass and their tolerance
    scale, max |c|, from that build; they run on the lower side's coupling
    only if it passes validation, which HiGHS's absolute tolerances can
    break on a tiny price scale. remark_a then reads the upper side's
    multipliers. A side whose solve reaches HiGHS's iteration bound is
    "iteration_limit" (primal._solve), and the report does not pass.
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
    pending = _lp_worker().submit(_solve, lp, -1)
    lower = _solve(lp, +1)
    lap("lp_lower")
    found = {}  # the lower side's report fields, set once both sides are optimal
    if lower.status == "optimal":
        u, zero = _gauged_position(lower, ms), DualVariables.zeros(ms)
        best, stepwise, at_zero = _cascades(
            cost, ms, [("proposition", u), ("remark_b", u), ("proposition", zero)])
        found["certificates"] = {"proposition": _certificate("proposition", ms, lower, u, best),
                                 "remark_b": _certificate("remark_b", ms, lower, u, stepwise)}
        lap("duals_lower")
        coupling = lower.coupling
        check = found["coupling_check"] = validate_coupling(coupling, ms)
        if check.ok:
            found["subhedge_zero"] = _subhedge(cost, ms, zero, coupling, at_zero.levels[0])
            found["subhedge_best"] = _subhedge(cost, ms, u, coupling, best.levels[0])
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
