"""Discretized primal transport problem as a linear program.

Variables are path masses q(x_1, ..., x_n) >= 0 on the product grid; equality
rows fix every marginal atom mass and force zero conditional drift for every
prefix. The constraint matrix is assembled sparse and solved by the HiGHS
solver that scipy ships, whose equality multipliers become the semi-static
position. scipy.sparse and scipy.optimize are imported by the first
assemble_lp and solve call, not with the module, so reference-free dual
bounds never load the LP stack.

Assembly and solving are separate steps: solve_primal and solve_primal_max
each assemble their own LP, while certify assembles one and solves both
senses of it at once. A solve only reads its LpProblem, and HiGHS releases
the interpreter lock while it runs, so two solves of one LP can share it
from two threads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cascade import CostSpec
from .measures import MarginalSequence

MASS_TOL = 1e-9
MARGINAL_TOL = 1e-8
MARTINGALE_TOL = 1e-8
PREFIX_MASS_FLOOR = 1e-12

DEFAULT_VAR_CAP = 200_000
SEMISTATIC_TOL = 1e-9


class SizeCapError(RuntimeError):
    """Instance exceeds a configured resource cap."""


@dataclass(frozen=True, eq=False)
class Coupling:
    """Candidate transport plan: nonnegative mass per path on the product grid."""

    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))

    def positive_paths(self, ms: MarginalSequence, floor: float = 1e-15):
        """Rows (x_1, ..., x_n, mass) for paths carrying mass above floor."""
        rows = []
        for idx in np.argwhere(self.q > floor):
            coords = [ms[i].atoms[idx[i]] for i in range(ms.n)]
            rows.append(coords + [float(self.q[tuple(idx)])])
        return rows


@dataclass(frozen=True)
class CouplingReport:
    ok: bool
    mass_error: float
    marginal_errors: tuple
    martingale_error: float

    def summary(self) -> str:
        return (
            f"mass_error={self.mass_error:.3e}, "
            f"marginal_errors={tuple(f'{e:.3e}' for e in self.marginal_errors)}, "
            f"martingale_error={self.martingale_error:.3e}"
        )


def validate_coupling(q, ms: MarginalSequence) -> CouplingReport:
    """Check total mass, per-atom marginals, and zero conditional drift.

    The drift tolerance scales with the prefix mass and the overall grid span;
    prefixes below the mass floor are vacuous.
    """
    q = np.asarray(getattr(q, "q", q), dtype=float)
    if q.shape != ms.sizes:
        raise ValueError(f"coupling shape {q.shape} does not match grids {ms.sizes}")
    mass_error = abs(float(q.sum()) - 1.0)
    marginal_errors = []
    for i in range(ms.n):
        axes = tuple(a for a in range(ms.n) if a != i)
        marginal_errors.append(float(np.max(np.abs(q.sum(axis=axes) - ms[i].weights))))
    span = ms.span
    worst_drift = 0.0
    for i in range(ms.n - 1):
        head = q.sum(axis=tuple(range(i + 2, ms.n))) if i + 2 < ms.n else q
        prefix_mass = head.sum(axis=-1)
        x_i = ms.grids[i].reshape((1,) * i + (-1,))
        drift = head @ ms.grids[i + 1] - prefix_mass * x_i
        live = prefix_mass > PREFIX_MASS_FLOOR
        if np.any(live):
            scaled = np.abs(drift[live]) / (prefix_mass[live] * max(span, 1e-300))
            worst_drift = max(worst_drift, float(scaled.max()))
    ok = (
        mass_error <= MASS_TOL
        and all(e <= MARGINAL_TOL for e in marginal_errors)
        and worst_drift <= MARTINGALE_TOL
    )
    return CouplingReport(ok, mass_error, tuple(marginal_errors), worst_drift)


@dataclass(frozen=True, eq=False)
class LpProblem:
    """Equality-form LP: min c.x, A x = b, x >= 0, plus row bookkeeping."""

    c: np.ndarray
    A: "scipy.sparse.csr_array"
    b: np.ndarray
    row_labels: tuple  # ("marginal", i, atom_index) | ("martingale", i, prefix_flat)
    grid_shape: tuple

    @property
    def n_paths(self) -> int:
        return self.c.size

    @property
    def n_rows(self) -> int:
        return self.b.size


def assemble_lp(cost: CostSpec, ms: MarginalSequence, var_cap: int = DEFAULT_VAR_CAP) -> LpProblem:
    """Build the coupling polytope LP on the product grid.

    Marginal rows: one per (period, atom), coefficients one on matching paths.
    Martingale rows: one per (period < n, prefix), coefficients x_{i+1} - x_i
    on the paths extending the prefix. Every path enters one row of each of
    the 2n - 1 blocks, so A is stored sparse. Redundant rows (each block
    re-encodes total mass) are left in; the solver tolerates degenerate rank.
    """
    n_paths = ms.path_count
    if n_paths > var_cap:
        raise SizeCapError(f"{n_paths} path variables exceed the cap {var_cap}")
    from scipy import sparse

    sizes = ms.sizes
    n = ms.n
    c = cost.tensor_on(ms).ravel()
    paths = np.arange(n_paths)
    atom = np.indices(sizes).reshape(n, n_paths)  # atom index of each path per period
    row_blocks = []
    coef_blocks = []
    labels = []
    b = []
    offset = 0

    for i in range(n):
        row_blocks.append(offset + atom[i])
        coef_blocks.append(np.ones(n_paths))
        labels.extend(("marginal", i, a) for a in range(sizes[i]))
        b.extend(ms[i].weights)
        offset += sizes[i]

    for i in range(n - 1):
        prefix_count = int(np.prod(sizes[: i + 1]))
        row_blocks.append(offset + paths // (n_paths // prefix_count))
        coef_blocks.append(ms.grids[i + 1][atom[i + 1]] - ms.grids[i][atom[i]])
        labels.extend(("martingale", i, p) for p in range(prefix_count))
        offset += prefix_count
        b.extend([0.0] * prefix_count)

    A = sparse.coo_array(
        (np.concatenate(coef_blocks), (np.concatenate(row_blocks), np.tile(paths, 2 * n - 1))),
        shape=(offset, n_paths),
    ).tocsr()
    return LpProblem(c, A, np.asarray(b), tuple(labels), sizes)


@dataclass(frozen=True, eq=False)
class PrimalSolution:
    """Transport LP outcome with solver statistics and equality multipliers.

    stats holds rows, columns, the solver's iterations and solve_s, the wall
    seconds of the solver call alone.
    """

    value: float
    coupling: Optional[Coupling]
    status: str
    stats: dict = field(default_factory=dict)
    duals: Optional[np.ndarray] = None
    row_labels: tuple = ()


# scipy.optimize.linprog status codes; anything else (numerical trouble) is "failed"
_STATUS = {0: "optimal", 1: "iteration_limit", 2: "infeasible", 3: "unbounded"}


def _solve(lp: LpProblem, sense: int) -> PrimalSolution:
    """Minimize (sense +1) or maximize (sense -1) c.x over an assembled LP.

    Reads lp without changing it. stats["solve_s"] is the wall time of the
    linprog call alone.
    """
    from scipy.optimize import linprog

    start = time.perf_counter()
    res = linprog(sense * lp.c, A_eq=lp.A, b_eq=lp.b, bounds=(0, None), method="highs")
    solve_s = time.perf_counter() - start
    status = _STATUS.get(res.status, "failed")
    stats = {"rows": lp.n_rows, "columns": lp.n_paths, "iterations": int(res.nit),
             "solve_s": solve_s}
    if status != "optimal":
        return PrimalSolution(float("nan"), None, status, stats, None, lp.row_labels)
    q = np.clip(res.x, 0.0, None).reshape(lp.grid_shape)
    value = float(np.dot(lp.c, res.x))
    duals = sense * res.eqlin.marginals
    return PrimalSolution(value, Coupling(q), "optimal", stats, duals, lp.row_labels)


def solve_primal(cost: CostSpec, ms: MarginalSequence, var_cap: int = DEFAULT_VAR_CAP) -> PrimalSolution:
    """Minimize over martingale couplings with the given marginals."""
    return _solve(assemble_lp(cost, ms, var_cap), +1)


def solve_primal_max(cost: CostSpec, ms: MarginalSequence, var_cap: int = DEFAULT_VAR_CAP) -> PrimalSolution:
    """Maximize over martingale couplings (negated objective)."""
    return _solve(assemble_lp(cost, ms, var_cap), -1)


def multipliers_to_semistatic(solution: PrimalSolution, ms: MarginalSequence):
    """Split LP equality multipliers into static tables and trading positions.

    Marginal-row multipliers become u_1, ..., u_n; martingale-row multipliers
    become the prefix-indexed trading positions. Dual feasibility of the LP is
    exactly the pointwise domination required by semistatic_value_check.
    """
    if solution.duals is None:
        raise ValueError("solution carries no multipliers")
    u_tables = [np.zeros(len(ms[i])) for i in range(ms.n)]
    deltas = [np.zeros(ms.sizes[: i + 1]) for i in range(ms.n - 1)]
    for y, label in zip(solution.duals, solution.row_labels):
        kind, i, j = label
        if kind == "marginal":
            u_tables[i][j] = y
        else:
            deltas[i].ravel()[j] = y
    return u_tables, deltas


def semistatic_value_check(cost: CostSpec, ms: MarginalSequence, u_tables, deltas) -> float:
    """Value of a semi-static position dominated by the cost.

    u_tables holds one table per marginal (n of them, including the first);
    deltas[j] is tabulated on the prefix grid of the first j+1 marginals. The
    pointwise inequality static + trading <= cost is enforced on the full
    product grid within 1e-9; the returned value sum_i E_{mu_i}[u_i] never
    exceeds the primal optimum by LP weak duality.
    """
    if len(u_tables) != ms.n:
        raise ValueError(f"expected {ms.n} static tables, got {len(u_tables)}")
    if len(deltas) != ms.n - 1:
        raise ValueError(f"expected {ms.n - 1} trading tables, got {len(deltas)}")
    n = ms.n
    psi = np.zeros(ms.sizes)
    grids = np.meshgrid(*ms.grids, indexing="ij", sparse=True)
    for i in range(n):
        table = np.asarray(getattr(u_tables[i], "values", u_tables[i]), dtype=float)
        if table.shape != (ms.sizes[i],):
            raise ValueError(f"static table {i + 1} has shape {table.shape}")
        shape = [1] * n
        shape[i] = ms.sizes[i]
        psi = psi + table.reshape(shape)
    for j in range(n - 1):
        d = np.asarray(deltas[j], dtype=float)
        if d.shape != ms.sizes[: j + 1]:
            raise ValueError(f"trading table {j + 1} has shape {d.shape}")
        psi = psi + d.reshape(d.shape + (1,) * (n - j - 1)) * (grids[j + 1] - grids[j])
    worst = float((psi - cost.tensor_on(ms)).max())
    if worst > SEMISTATIC_TOL:
        raise ValueError(f"position exceeds the cost by {worst:.3e} on the grid")
    value = 0.0
    for i in range(n):
        table = np.asarray(getattr(u_tables[i], "values", u_tables[i]), dtype=float)
        value += float(np.dot(ms[i].weights, table))
    return value
