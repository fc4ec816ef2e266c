"""Discretized primal transport problem as a linear program.

Variables are path masses q(x_1, ..., x_n) >= 0 on the product grid; equality
rows fix every marginal atom mass and force zero conditional drift for every
prefix. The constraint matrix is assembled sparse, as the three numpy arrays
of the compressed-column (CSC) layout HiGHS reads. The HiGHS solver that
scipy ships solves it. An LP of fewer than PRIMAL_FROM_PATHS paths is
solved as it is, with HiGHS's default options (dual simplex). A larger one
is equilibrated, its martingale rows and its cost each divided by their
largest magnitude, and solved by primal simplex: on the ladder of
BENCH_lp_method.json that is the faster method from there up, and a
rescaling of the prices changes neither its verdict nor, beyond rounding,
its value. HiGHS loads that LP whole and then deletes the 2(n - 1) rows
that the others imply (_implied_rows), so its presolve has no dependent
rows to search for, and the multipliers come back with 0 on those rows
(BENCH_full_rank_lp.json). HiGHS's presolve removes about (n - 2) m^(n-2)
rows of that LP: none at n = 2 and about one in twenty at n = 3, where it
costs a quarter to a third of a solve's resident growth and more time than
it saves, so it is off below PRESOLVE_FROM_PERIODS periods; from four
periods up the rows it removes save simplex iterations, and it stays on
(BENCH_presolve.json). HiGHS is called through scipy's
bundled extension module scipy.optimize._highspy._core (private, present
from scipy 1.15.0). _highs loads that extension file on its own, on the
first solve: importing it by name would first run scipy.optimize's package
init, about 550 more modules and 45 MB of resident memory that the LP never
uses. No solve imports scipy.sparse; only reading LpProblem.A does. So
reference-free dual bounds load no part of scipy, and the LP loads scipy's
top-level package and the HiGHS extension alone. The equality multipliers
become the semi-static position.

Assembly and solving are separate steps: solve_primal and solve_primal_max
each assemble their own LP, while certification.certify assembles one and
solves both senses of it at once, the maximisation on the one long-lived LP
worker of _lp_worker. A solve only reads its LpProblem, and HiGHS releases
the interpreter lock while it runs, so two solves of one LP can share it
from two threads. Each thread keeps one HiGHS object, its output turned off
once; every solve on it sets its method, presolve and iteration-limit
options and reloads it with its model, so a solve on the kept object is the
same to the bit as one on a fresh object. The iteration limit bounds every
solve, so none hangs: a solve that cycles ends as "iteration_limit". A
forked child drops the worker and the forking thread's HiGHS object that it
inherits, and builds its own on first use.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import math
import operator
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .measures import DEFAULT_VAR_CAP, CostSpec, MarginalSequence

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
    """Equality-form LP: min c.x, A x = b, x >= 0, rows laid out as _block_starts says.

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


def _block_starts(sizes: tuple) -> list:
    """The first row of each of assemble_lp's 2n - 1 row blocks, then the row count.

    The rows come in 2n - 1 consecutive blocks, named from the sizes alone:
      - n marginal blocks, block i holding one row per atom of mu_i (m_i rows,
        in atom order), coefficients one on the paths through that atom;
      - then n - 1 martingale blocks, block i holding one row per prefix
        (x_1, ..., x_{i+1}) in row-major order (m_1 ... m_{i+1} rows),
        coefficients x_{i+2} - x_{i+1} on the paths extending the prefix.
    Marginal block i pairs with the static table u_i and martingale block i
    with the trading position Delta_i, so multipliers_to_semistatic cuts the
    multipliers at these starts. The entries are Python ints.
    """
    counts = [*sizes, *itertools.accumulate(sizes[:-1], operator.mul)]
    return [0, *itertools.accumulate(counts)]


def assemble_lp(cost: CostSpec, ms: MarginalSequence, var_cap: int = DEFAULT_VAR_CAP) -> LpProblem:
    """Build the coupling polytope LP on the product grid, rows as _block_starts lays them out.

    Every path enters one row of each block, and the blocks' rows increase, so
    column p of the CSC matrix A is entry p of every block, in block order.
    The rows have 2(n - 1) linear dependencies, two identities per later
    period j: the mass identity (marginal block j sums to the total mass,
    as block 1 does) and the mean identity (martingale block j - 1 sums to
    the mean of mu_j minus that of mu_{j-1}). They are kept here, so the
    multipliers have one entry per row of this layout; an equilibrated
    _solve deletes the rows that _implied_rows names from HiGHS's model.
    """
    ms.check_path_cap(var_cap)
    n_paths = ms.path_count
    sizes = ms.sizes
    n = ms.n
    starts = _block_starts(sizes)
    c = cost.tensor_on(ms).ravel()
    paths = np.arange(n_paths, dtype=np.int32)
    atom = np.indices(sizes, dtype=np.int32).reshape(n, n_paths)  # atom index of each path per period
    rows = [starts[i] + atom[i] for i in range(n)]
    rows += [starts[n + i] + paths // (n_paths // (starts[n + i + 1] - starts[n + i]))
             for i in range(n - 1)]
    coefs = [np.ones(n_paths)] * n
    coefs += [ms.grids[i + 1][atom[i + 1]] - ms.grids[i][atom[i]] for i in range(n - 1)]
    b = np.concatenate([mu.weights for mu in ms.marginals] + [np.zeros(starts[-1] - starts[n])])
    per_path = len(starts) - 1  # one entry in each block
    return LpProblem(c, np.stack(coefs, 1).ravel(), np.stack(rows, 1).ravel(),
                     np.arange(0, per_path * n_paths + 1, per_path, dtype=np.int32), b, sizes)


def _implied_rows(sizes: tuple) -> np.ndarray:
    """Rows of assemble_lp's layout that the other rows imply, named from the sizes alone.

    For each later period j, the mass identity implies the first row of
    marginal block j, and the mean identity then its last row (the two
    atoms differ). A one-atom block j after one-atom blocks alone has the
    mean identity on the one row of martingale block j - 1, which is named
    instead; after a larger block it is out of convex order, and only its
    first row is named. Without these 2(n - 1) rows a valid sequence's A
    has full row rank. The rows come sorted, as int32: HiGHS's deleteRows
    takes an increasing set of that index type and refuses any other.
    """
    starts, n = _block_starts(sizes), len(sizes)
    rows = []
    for j in range(1, n):
        rows.append(starts[j])
        if sizes[j] > 1:
            rows.append(starts[j + 1] - 1)
        elif starts[n + j] - starts[n + j - 1] == 1:  # martingale block j - 1 has one row
            rows.append(starts[n + j - 1])
    return np.sort(np.array(rows, dtype=np.int32))


@dataclass(frozen=True, eq=False)
class PrimalSolution:
    """Transport LP outcome with solver statistics and equality multipliers.

    stats holds rows, columns, the solver's simplex iterations (0 where
    HiGHS counts none, as after a run that ends in an error), HiGHS's
    max_primal_infeasibility and max_dual_infeasibility, solve_s, the
    wall seconds of the solver call alone, and method, the path _solve took
    ("dual simplex", "primal simplex, equilibrated, no presolve" or "primal
    simplex, equilibrated"). duals holds one multiplier per equality row in
    _block_starts' layout, a sub-hedge of the cost for a minimisation
    and a super-hedge for a maximisation.
    """

    value: float
    coupling: Optional[Coupling]
    status: str
    stats: dict = field(default_factory=dict)
    duals: Optional[np.ndarray] = None


# the path _solve takes, by (equilibrated, presolve)
_METHODS = {(False, True): "dual simplex", (True, True): "primal simplex, equilibrated",
            (True, False): "primal simplex, equilibrated, no presolve"}
# HiGHS model statuses by name; a model HiGHS refuses to load, or whose implied
# rows it refuses to delete, is "model_error", and any other status (numerical
# trouble, an error in the solver) is "failed"
_STATUS = {"kOptimal": "optimal", "kInfeasible": "infeasible", "kUnbounded": "unbounded",
           "kTimeLimit": "iteration_limit", "kIterationLimit": "iteration_limit"}
# this module's check of an optimum: 10 * sqrt(1e-9), about 3.2e-4
_CHECK_TOL = 10 * math.sqrt(1e-9)
_HIGHS = "scipy.optimize._highspy._core"
_LOCK = threading.Lock()  # guards the first load of the extension and the worker's creation
_WORKER = None  # the LP worker of _lp_worker, created on first use
# .highs, this thread's HiGHS object, built on its first solve; each solve
# sets its method, presolve and iteration-limit options
_THREAD = threading.local()
# an LP with this many columns or more is equilibrated and solved by primal
# simplex; fitted on the ladder of BENCH_lp_method.json
PRIMAL_FROM_PATHS = 1000
# an equilibrated LP of this many periods or more keeps HiGHS's presolve, which
# removes rows there; below, it removes none or a few (BENCH_presolve.json)
PRESOLVE_FROM_PERIODS = 4
# every solve stops after this many simplex iterations per row and column of its LP,
# so a cycling solve ends as "iteration_limit"; the optimal solves of criterion 1's
# suite rescaled by 1e-8..1e12 took at most 901 per row and column (232 below 1e10)
ITERATIONS_PER_SIZE = 1000


def _forget_in_child() -> None:
    """Drop the state a forked child inherits but cannot use.

    The worker's thread does not exist in the child, and the lock may have
    been held by a thread that does not either; the forking thread's HiGHS
    object was built in the parent. The child creates them again on first use.
    """
    global _LOCK, _WORKER
    _LOCK, _WORKER = threading.Lock(), None
    vars(_THREAD).pop("highs", None)


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


def _thread_highs(highs):
    """This thread's HiGHS object, output off, built on its first solve and
    reloaded and reconfigured by every later one."""
    solver = getattr(_THREAD, "highs", None)
    if solver is None:
        solver = _THREAD.highs = highs._Highs()
        solver.setOptionValue("output_flag", False)
        solver.setOptionValue("log_to_console", False)
    return solver


def _solve(lp: LpProblem, sense: int) -> PrimalSolution:
    """Minimize (sense +1) or maximize (sense -1) c.x over an assembled LP.

    Reads lp without changing it. Each call sets the simplex_strategy,
    presolve and simplex_iteration_limit options of the thread's HiGHS object
    and loads the LP into it. The limit is ITERATIONS_PER_SIZE times lp's
    rows plus columns, at most HiGHS's largest integer, and a solve that
    reaches it is "iteration_limit".
    An LP of fewer than PRIMAL_FROM_PATHS columns is passed as it is and
    solved with HiGHS's default options, dual simplex. A larger one is
    equilibrated first: the martingale rows' entries are divided by their
    largest magnitude scale_m, and c by max|c|, each factor 1 where that is
    0. It is loaded whole, and the object then deletes the rows
    _implied_rows names, so it holds a full-row-rank LP of a valid sequence
    and its presolve has no dependent rows to search for; it solves that LP
    by primal simplex, with HiGHS's presolve off below PRESOLVE_FROM_PERIODS
    periods and on from there up. The multipliers are scattered back into
    lp's rows, 0 on the rows left out, and scaled back, marginal rows times
    max|c| and martingale rows times max|c| / scale_m, so they are those of
    lp itself; the value is lp.c.x.
    stats["method"] names the path, as _METHODS spells it.
    HiGHS's model status maps as in _STATUS; HiGHS refuses to load a model
    with a matrix entry of 1e15 or more in magnitude, which is
    "model_error", as is a refused deletion of the implied rows. As a
    safety check, an "optimal" x with a mass below -_CHECK_TOL, or an
    equality row missed by more than _CHECK_TOL, is "failed". The check
    computes every row of lp from x, rows left out included, rather than
    reading HiGHS's row values, which equal the bound on every nonbasic
    row. For an equilibrated LP the rows are those
    of the scaled matrix, lp's martingale rows divided by scale_m, so their
    rounding does not grow with the atoms, and a mean mismatch that
    validation accepts lands on the marginal rows left out. The kept rows
    imply those, so a row left out that is missed by more than MARGINAL_TOL
    means lp's b is inconsistent: the solve is "infeasible".
    stats["solve_s"] is the wall time of the solver call alone, setting the
    options, the equilibration and loading the model included;
    max_primal_infeasibility and max_dual_infeasibility are HiGHS's own
    figures for the solution of the LP it solved, None where it has none to
    measure.
    """
    highs = _highs()
    equilibrate = lp.n_paths >= PRIMAL_FROM_PATHS
    presolve = not equilibrate or len(lp.grid_shape) >= PRESOLVE_FROM_PERIODS
    start = time.perf_counter()
    solver = _thread_highs(highs)
    solver.setOptionValue("simplex_strategy", 4 if equilibrate else 1)  # primal, or the default
    solver.setOptionValue("presolve", "choose" if presolve else "off")
    solver.setOptionValue("simplex_iteration_limit",
                          min(ITERATIONS_PER_SIZE * (lp.n_rows + lp.n_paths), 2**31 - 1))
    c, data = lp.c, lp.data
    kept = np.ones(lp.n_rows, bool)  # the rows of lp left in HiGHS's model
    if equilibrate:
        first_martingale = _block_starts(lp.grid_shape)[len(lp.grid_shape)]
        martingale = lp.indices >= first_martingale
        scale_m = float(np.abs(data[martingale]).max(initial=0.0)) or 1.0
        scale_c = float(np.abs(c).max(initial=0.0)) or 1.0
        c, data = c / scale_c, np.where(martingale, data / scale_m, data)
        implied = _implied_rows(lp.grid_shape)
        kept[implied] = False
    # the array overload; all-continuous integrality, since an empty array is refused
    loaded = solver.passModel(
        lp.n_paths, lp.n_rows, data.size, highs.MatrixFormat.kColwise, highs.ObjSense.kMinimize,
        0.0, sense * c, np.zeros(lp.n_paths), np.full(lp.n_paths, highs.kHighsInf), lp.b, lp.b,
        lp.indptr, lp.indices, data, np.zeros(lp.n_paths, np.int32)) != highs.HighsStatus.kError
    if loaded and equilibrate:
        loaded = solver.deleteRows(implied.size, implied) != highs.HighsStatus.kError
    if loaded:
        solver.run()
    solve_s = time.perf_counter() - start
    info = solver.getInfo()
    figures = [x if math.isfinite(x) else None  # HiGHS says infinity without a solution
               for x in (info.max_primal_infeasibility, info.max_dual_infeasibility)]
    stats = {"rows": lp.n_rows, "columns": lp.n_paths,
             "iterations": max(info.simplex_iteration_count, 0) if loaded else 0,
             "max_primal_infeasibility": figures[0], "max_dual_infeasibility": figures[1],
             "solve_s": solve_s, "method": _METHODS[equilibrate, presolve]}
    status = _STATUS.get(solver.getModelStatus().name, "failed") if loaded else "model_error"
    if status != "optimal":
        return PrimalSolution(float("nan"), None, status, stats)
    solution = solver.getSolution()
    x = np.array(solution.col_value)
    rows = np.bincount(lp.indices, data * np.repeat(x, np.diff(lp.indptr)), lp.n_rows)
    duals = np.zeros(lp.n_rows)
    duals[kept] = sense * np.array(solution.row_dual)
    if equilibrate:
        duals[:first_martingale] *= scale_c
        duals[first_martingale:] *= scale_c / scale_m
    missed = np.abs(lp.b - rows)
    if np.any(missed[~kept] > MARGINAL_TOL):
        # the kept rows imply the rows left out, so b itself is inconsistent
        return PrimalSolution(float("nan"), None, "infeasible", stats)
    if not (np.all(x >= -_CHECK_TOL) and np.all(missed <= _CHECK_TOL)):
        return PrimalSolution(float("nan"), None, "failed", stats)
    paths = np.flatnonzero(x > 0)
    value = float(np.dot(lp.c, x))
    return PrimalSolution(value, Coupling(lp.grid_shape, paths, x[paths]), "optimal", stats, duals)


def solve_primal(cost: CostSpec, ms: MarginalSequence, var_cap: int = DEFAULT_VAR_CAP) -> PrimalSolution:
    """Minimize over martingale couplings with the given marginals."""
    return _solve(assemble_lp(cost, ms, var_cap), +1)


def solve_primal_max(cost: CostSpec, ms: MarginalSequence, var_cap: int = DEFAULT_VAR_CAP) -> PrimalSolution:
    """Maximize over martingale couplings (negated objective)."""
    return _solve(assemble_lp(cost, ms, var_cap), -1)


def multipliers_to_semistatic(solution: PrimalSolution, ms: MarginalSequence):
    """Split LP equality multipliers into static tables and trading positions.

    The multipliers are cut at _block_starts: the n marginal blocks become
    u_1, ..., u_n, and the n - 1 martingale blocks become the trading
    positions, block i reshaped onto the prefix grid of the first i + 1
    marginals. The tables share one copy of solution.duals. A solution
    solved on other grids is refused, even one with as many rows.
    Dual feasibility of the LP is exactly the pointwise domination of the
    cost by the static tables plus the trading positions, on every path;
    the tests check it with their semistatic_value_check oracle.
    """
    if solution.duals is None:
        raise ValueError("solution carries no multipliers")
    starts = _block_starts(ms.sizes)
    duals = np.array(solution.duals, dtype=float)
    if duals.shape != (starts[-1],):
        raise ValueError(f"{duals.size} multipliers for an LP of {starts[-1]} rows")
    if tuple(solution.coupling.shape) != ms.sizes:
        raise ValueError(f"solution solved on grids {tuple(solution.coupling.shape)}, "
                         f"not on {ms.sizes}")
    blocks = np.split(duals, starts[1:-1])
    return blocks[: ms.n], [d.reshape(ms.sizes[: i + 1]) for i, d in enumerate(blocks[ms.n:])]
