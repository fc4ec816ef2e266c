"""Discretized primal transport problem as a linear program.

Variables are path masses q(x_1, ..., x_n) >= 0 on the product grid; equality
rows fix every marginal atom mass and force zero conditional drift for every
prefix. The constraint matrix is assembled sparse, as the three numpy arrays
of the compressed-column (CSC) layout HiGHS reads. The HiGHS solver that
scipy ships solves it with its default options, called through scipy's
bundled extension module scipy.optimize._highspy._core (private, present
from scipy 1.15.0). _highs loads that extension file on its own, on the
first solve: importing it by name would first run scipy.optimize's package
init, about 550 more modules and 45 MB of resident memory that the LP never
uses. No solve imports scipy.sparse; only reading LpProblem.A does. So
reference-free dual bounds load no part of scipy, and the LP loads scipy's
top-level package and the HiGHS extension alone. The equality multipliers
become the semi-static position.

Assembly and solving are separate steps: solve_primal and solve_primal_max
each assemble their own LP, while certify assembles one and solves both
senses of it at once, the maximisation on the one long-lived LP worker of
_lp_worker. A solve only reads its LpProblem, and HiGHS releases the
interpreter lock while it runs, so two solves of one LP can share it from
two threads. Each solve builds a fresh HiGHS object, from options that
each thread builds once: a HiGHS object kept for reuse holds about 0.5 MB
of workspace after its model is cleared, which a batch of small LPs shows
in its peak memory. A forked child drops the worker it inherits and builds
its own on first use.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .measures import DEFAULT_VAR_CAP, CostSpec, MarginalSequence, SizeCapError

MASS_TOL = 1e-9
MARGINAL_TOL = 1e-8
MARTINGALE_TOL = 1e-8
PREFIX_MASS_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class Coupling:
    """Transport plan as (path, mass) rows: paths are flat row-major indices into
    the product grid of shape, and a path listed twice carries both masses."""

    shape: tuple
    paths: np.ndarray
    mass: np.ndarray

    def atoms(self) -> tuple:
        """The atom index of every row, one array per period."""
        return np.unravel_index(self.paths, self.shape)

    @property
    def q(self) -> np.ndarray:
        """The plan as a dense array on the product grid, built on each read."""
        return np.bincount(self.paths, self.mass, math.prod(self.shape)).reshape(self.shape)


@dataclass(frozen=True)
class CouplingReport:
    ok: bool
    mass_error: float
    marginal_errors: tuple
    martingale_error: float
    negative_mass: float

    def summary(self) -> str:
        return (
            f"mass_error={self.mass_error:.3e}, "
            f"marginal_errors={tuple(f'{e:.3e}' for e in self.marginal_errors)}, "
            f"martingale_error={self.martingale_error:.3e}, "
            f"negative_mass={self.negative_mass:.3e}"
        )


def validate_coupling(coupling: Coupling, ms: MarginalSequence) -> CouplingReport:
    """Check nonnegative mass, total mass, marginals and zero drift, summing over the rows.

    The drift tolerance scales with the prefix mass and the overall grid span;
    prefixes below the mass floor are vacuous. A path off the grid raises ValueError.
    """
    if not isinstance(coupling, Coupling):
        raise TypeError(f"expected a Coupling, got {type(coupling).__name__}")
    if tuple(coupling.shape) != ms.sizes:
        raise ValueError(f"coupling shape {coupling.shape} does not match grids {ms.sizes}")
    atom, mass = coupling.atoms(), np.asarray(coupling.mass, dtype=float)
    negative_mass = max(0.0, -float(mass.min(initial=0.0)))
    mass_error = abs(float(mass.sum()) - 1.0)
    marginal_errors = [float(np.max(np.abs(np.bincount(atom[i], mass, m) - ms[i].weights)))
                       for i, m in enumerate(ms.sizes)]
    span = ms.span
    worst_drift = 0.0
    for i in range(ms.n - 1):
        prefix = np.ravel_multi_index(atom[: i + 1], ms.sizes[: i + 1])
        prefix_mass = np.bincount(prefix, mass)
        drift = np.bincount(prefix, mass * (ms.grids[i + 1][atom[i + 1]] - ms.grids[i][atom[i]]))
        live = prefix_mass > PREFIX_MASS_FLOOR
        if np.any(live):
            scaled = np.abs(drift[live]) / (prefix_mass[live] * max(span, 1e-300))
            worst_drift = max(worst_drift, float(scaled.max()))
    ok = (
        negative_mass <= MASS_TOL
        and mass_error <= MASS_TOL
        and all(e <= MARGINAL_TOL for e in marginal_errors)
        and worst_drift <= MARTINGALE_TOL
    )
    return CouplingReport(ok, mass_error, tuple(marginal_errors), worst_drift, negative_mass)


@dataclass(frozen=True, eq=False)
class LpProblem:
    """Equality-form LP: min c.x, A x = b, x >= 0, rows laid out as assemble_lp says.

    A is held as its compressed-column (CSC) arrays, the layout HiGHS reads:
    column p's entries are data[indptr[p]:indptr[p + 1]], in the rows
    indices[indptr[p]:indptr[p + 1]]. The index arrays are int32, HiGHS's
    integer, so no solve converts them.
    """

    c: np.ndarray
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    b: np.ndarray
    grid_shape: tuple

    @property
    def n_paths(self) -> int:
        return self.c.size

    @property
    def A(self):
        """A as a scipy.sparse.csc_array over the same arrays, built on each read.

        For inspection and linprog; reading it imports scipy.sparse, which no
        solve does.
        """
        from scipy import sparse

        return sparse.csc_array((self.data, self.indices, self.indptr),
                                shape=(self.n_rows, self.n_paths))

    @property
    def n_rows(self) -> int:
        return self.b.size


def assemble_lp(cost: CostSpec, ms: MarginalSequence, var_cap: int = DEFAULT_VAR_CAP) -> LpProblem:
    """Build the coupling polytope LP on the product grid.

    The rows come in 2n - 1 consecutive blocks, which multipliers_to_semistatic
    relies on:
      - n marginal blocks, block i holding one row per atom of mu_i (m_i rows,
        in atom order), coefficients one on the paths through that atom;
      - then n - 1 martingale blocks, block i holding one row per prefix
        (x_1, ..., x_{i+1}) in row-major order, coefficients x_{i+2} - x_{i+1}
        on the paths extending the prefix.
    Every path enters one row of each block, and the blocks' rows increase, so
    column p of the CSC matrix A is entry p of every block, in block order.
    Redundant rows (each block re-encodes total mass) are left in; the solver
    tolerates degenerate rank.
    """
    n_paths = ms.path_count
    if n_paths > var_cap:
        raise SizeCapError(f"{n_paths} path variables exceed the cap {var_cap}")
    sizes = ms.sizes
    n = ms.n
    c = cost.tensor_on(ms).ravel()
    paths = np.arange(n_paths, dtype=np.int32)
    atom = np.indices(sizes, dtype=np.int32).reshape(n, n_paths)  # atom index of each path per period
    row_blocks = []
    coef_blocks = []
    b = []
    offset = 0

    for i in range(n):
        row_blocks.append(offset + atom[i])
        coef_blocks.append(np.ones(n_paths))
        b.extend(ms[i].weights)
        offset += sizes[i]

    for i in range(n - 1):
        prefix_count = int(np.prod(sizes[: i + 1]))
        row_blocks.append(offset + paths // (n_paths // prefix_count))
        coef_blocks.append(ms.grids[i + 1][atom[i + 1]] - ms.grids[i][atom[i]])
        offset += prefix_count
        b.extend([0.0] * prefix_count)

    per_path = 2 * n - 1
    return LpProblem(c, np.stack(coef_blocks, 1).ravel(), np.stack(row_blocks, 1).ravel(),
                     np.arange(0, per_path * n_paths + 1, per_path, dtype=np.int32),
                     np.asarray(b), sizes)


@dataclass(frozen=True, eq=False)
class PrimalSolution:
    """Transport LP outcome with solver statistics and equality multipliers.

    stats holds rows, columns, the solver's iterations, HiGHS's
    max_primal_infeasibility and max_dual_infeasibility, and solve_s, the
    wall seconds of the solver call alone. duals holds one multiplier per
    equality row in assemble_lp's block layout, a sub-hedge of the cost for
    a minimisation and a super-hedge for a maximisation.
    """

    value: float
    coupling: Optional[Coupling]
    status: str
    stats: dict = field(default_factory=dict)
    duals: Optional[np.ndarray] = None


# HiGHS model statuses by name; a model HiGHS refuses to load is "model_error",
# and any other status (numerical trouble, an error in the solver) is "failed"
_STATUS = {"kOptimal": "optimal", "kInfeasible": "infeasible", "kUnbounded": "unbounded",
           "kTimeLimit": "iteration_limit", "kIterationLimit": "iteration_limit"}
# this module's check of an optimum: 10 * sqrt(1e-9), about 3.2e-4
_CHECK_TOL = 10 * math.sqrt(1e-9)
_HIGHS = "scipy.optimize._highspy._core"
_LOCK = threading.Lock()  # guards the first load of the extension and the worker's creation
_WORKER = None  # the LP worker of _lp_worker, created on first use
_THREAD = threading.local()  # .options: this thread's HiGHS options, built on its first solve


def _forget_in_child() -> None:
    """Drop the state a forked child inherits but cannot use.

    The worker's thread does not exist in the child, and the lock may have
    been held by a thread that does not either. The child creates both again
    on first use.
    """
    global _LOCK, _WORKER
    _LOCK, _WORKER = threading.Lock(), None


if hasattr(os, "register_at_fork"):  # absent on Windows, which has no fork
    os.register_at_fork(after_in_child=_forget_in_child)


def _lp_worker():
    """The one-thread executor that solves certify's upper side, created on first use.

    It lives as long as the process, so a certify after the first starts no
    thread; concurrent certify calls queue their upper solves on it.
    concurrent.futures is imported here, so importing motbounds does not load it.
    """
    global _WORKER
    with _LOCK:
        if _WORKER is None:
            from concurrent.futures import ThreadPoolExecutor

            _WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="motbounds-lp-upper")
        return _WORKER


class HighsMissingError(ImportError):
    """No scipy is installed, or it has no HiGHS extension file (it is older than 1.15.0)."""


def _highs():
    """scipy's HiGHS extension module, loaded from its file without scipy.optimize.

    The extension is found in the installed scipy tree, registered in
    sys.modules under its own name and executed, once per process. A core
    already in sys.modules, such as one that importing linprog loaded, is
    reused. No scipy, or one without the file, raises HighsMissingError.
    """
    with _LOCK:
        core = sys.modules.get(_HIGHS)
        if core is None:
            try:
                import scipy
            except ImportError as exc:
                raise HighsMissingError("motbounds needs scipy >= 1.15.0 for the LP, "
                                        "and scipy cannot be imported") from exc
            spec = importlib.machinery.PathFinder.find_spec(
                _HIGHS, [os.path.join(scipy.__path__[0], "optimize", "_highspy")])
            if spec is None:
                raise HighsMissingError(f"scipy {scipy.__version__} has no {_HIGHS}; "
                                        "motbounds needs scipy >= 1.15.0")
            core = importlib.util.module_from_spec(spec)
            sys.modules[_HIGHS] = core
            spec.loader.exec_module(core)
        return core


def _solve(lp: LpProblem, sense: int) -> PrimalSolution:
    """Minimize (sense +1) or maximize (sense -1) c.x over an assembled LP.

    Reads lp without changing it. Each call passes lp's arrays to a fresh
    HiGHS object with HiGHS's default options and its output off; the
    options object is built once per thread. HiGHS's model status maps as in
    _STATUS; HiGHS refuses to load a model with a matrix entry of 1e15 or
    more in magnitude, which is "model_error". As a safety check, an
    "optimal" x with a mass below -_CHECK_TOL, or an equality row missed by
    more than _CHECK_TOL, is "failed".
    stats["solve_s"] is the wall time of the solver call alone, loading the
    model included; max_primal_infeasibility and max_dual_infeasibility are
    HiGHS's own figures for the solution it returned, None where it has none
    to measure.
    """
    highs = _highs()
    options = getattr(_THREAD, "options", None)
    if options is None:
        options = _THREAD.options = highs.HighsOptions()
        options.output_flag = options.log_to_console = False
    start = time.perf_counter()
    solver = highs._Highs()
    solver.passOptions(options)
    # the array overload; all-continuous integrality, since an empty array is refused
    loaded = solver.passModel(
        lp.n_paths, lp.n_rows, lp.data.size, highs.MatrixFormat.kColwise, highs.ObjSense.kMinimize,
        0.0, sense * lp.c, np.zeros(lp.n_paths), np.full(lp.n_paths, highs.kHighsInf), lp.b, lp.b,
        lp.indptr, lp.indices, lp.data, np.zeros(lp.n_paths, np.int32)) != highs.HighsStatus.kError
    if loaded:
        solver.run()
    solve_s = time.perf_counter() - start
    info = solver.getInfo()
    iterations = info.simplex_iteration_count or info.ipm_iteration_count
    figures = [x if math.isfinite(x) else None  # HiGHS says infinity without a solution
               for x in (info.max_primal_infeasibility, info.max_dual_infeasibility)]
    stats = {"rows": lp.n_rows, "columns": lp.n_paths, "iterations": iterations if loaded else 0,
             "max_primal_infeasibility": figures[0], "max_dual_infeasibility": figures[1],
             "solve_s": solve_s}
    status = _STATUS.get(solver.getModelStatus().name, "failed") if loaded else "model_error"
    if status != "optimal":
        return PrimalSolution(float("nan"), None, status, stats)
    solution = solver.getSolution()
    x = np.array(solution.col_value)
    if not (np.all(x >= -_CHECK_TOL) and np.all(np.abs(lp.b - solution.row_value) <= _CHECK_TOL)):
        return PrimalSolution(float("nan"), None, "failed", stats)
    paths = np.flatnonzero(x > 0)
    value = float(np.dot(lp.c, x))
    duals = sense * np.array(solution.row_dual)
    return PrimalSolution(value, Coupling(lp.grid_shape, paths, x[paths]), "optimal", stats, duals)


def solve_primal(cost: CostSpec, ms: MarginalSequence, var_cap: int = DEFAULT_VAR_CAP) -> PrimalSolution:
    """Minimize over martingale couplings with the given marginals."""
    return _solve(assemble_lp(cost, ms, var_cap), +1)


def solve_primal_max(cost: CostSpec, ms: MarginalSequence, var_cap: int = DEFAULT_VAR_CAP) -> PrimalSolution:
    """Maximize over martingale couplings (negated objective)."""
    return _solve(assemble_lp(cost, ms, var_cap), -1)


def multipliers_to_semistatic(solution: PrimalSolution, ms: MarginalSequence):
    """Split LP equality multipliers into static tables and trading positions.

    The multipliers are cut at the block boundaries of assemble_lp: the n
    marginal blocks become u_1, ..., u_n, and the n - 1 martingale blocks
    become the trading positions, block i reshaped onto the prefix grid of
    the first i + 1 marginals. The tables share one copy of solution.duals.
    Dual feasibility of the LP is exactly the pointwise domination of the
    cost by the static tables plus the trading positions, on every path;
    the tests check it with their semistatic_value_check oracle.
    """
    if solution.duals is None:
        raise ValueError("solution carries no multipliers")
    prefixes = [ms.sizes[: i + 1] for i in range(ms.n - 1)]
    counts = list(ms.sizes) + [int(np.prod(p)) for p in prefixes]
    duals = np.array(solution.duals, dtype=float)
    if duals.shape != (sum(counts),):
        raise ValueError(f"{duals.size} multipliers for an LP of {sum(counts)} rows")
    blocks = np.split(duals, np.cumsum(counts)[:-1])
    return blocks[: ms.n], [d.reshape(p) for d, p in zip(blocks[ms.n:], prefixes)]

