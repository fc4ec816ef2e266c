"""Oracles for the transport LP, independent of the solver.

Tests compare HiGHS optima against the minimum over every basic feasible
solution of the row-reduced equality system. Enumeration is exponential in
the path count, so it is capped at BRUTE_FORCE_PATH_CAP paths. The LP's
multipliers are checked by semistatic_value_check, which prices a
semi-static position and refuses one that is not dominated by the cost.
The lognormal quantization is compared with the same formula evaluated by
scipy's ndtri and ndtr, an implementation independent of the standard
library's NormalDist and erfc. Convex envelopes are cross-checked through the
double conjugate by biconjugate_eval. support_rows turns a hand-written dense
plan into the (path, mass) rows of a Coupling, and lp_matrix reads an
LpProblem's CSC arrays into a dense matrix with numpy alone. terminal_tensor
builds the top level T_n whole, which no cascade does, from the rows that
every cascade reads, so it compares with a cascade's T_n to the bit.
"""

import itertools
import math

import numpy as np
from scipy.special import ndtr, ndtri

from motbounds import (
    CostSpec,
    Coupling,
    GridFunction,
    MarginalSequence,
    SizeCapError,
    assemble_lp,
    convex_envelope,
)
from motbounds.cascade import _built, _terminal_rows

BRUTE_FORCE_PATH_CAP = 64
SEMISTATIC_TOL = 1e-9


def lp_matrix(lp) -> np.ndarray:
    """The constraint matrix of lp, dense, read from its CSC arrays without scipy.

    Column p holds data[indptr[p]:indptr[p + 1]] in the rows
    indices[indptr[p]:indptr[p + 1]]; an entry listed twice counts twice.
    """
    A = np.zeros((lp.n_rows, lp.n_paths))
    np.add.at(A, (lp.indices, np.repeat(np.arange(lp.n_paths), np.diff(lp.indptr))), lp.data)
    return A


def _independent_rows(A, b, tol=1e-10):
    """Gaussian elimination to an independent row system; flags inconsistency."""
    M = np.hstack([A, b[:, None]]).astype(float)
    m, n1 = M.shape
    scale = max(1.0, float(np.abs(M).max()))
    rows = []
    r = 0
    for col in range(n1 - 1):
        if r >= m:
            break
        piv = r + int(np.argmax(np.abs(M[r:, col])))
        if abs(M[piv, col]) <= tol * scale:
            continue
        M[[r, piv]] = M[[piv, r]]
        M[r] /= M[r, col]
        others = np.flatnonzero(np.abs(M[:, col]) > 0)
        for k in others:
            if k != r:
                M[k] -= M[k, col] * M[r]
        rows.append(r)
        r += 1
    consistent = True
    for k in range(r, m):
        if abs(M[k, -1]) > 1e-8 * scale:
            consistent = False
    return M[:r, :-1], M[:r, -1], consistent


def brute_force_value(cost: CostSpec, ms: MarginalSequence,
                      path_cap: int = BRUTE_FORCE_PATH_CAP) -> float:
    """Minimum objective over the vertices of the coupling polytope.

    Enumerates basic solutions over all column subsets of the row-reduced
    equality system and keeps the feasible ones. Independent of the LP
    solver; practical only for tiny instances.
    """
    lp = assemble_lp(cost, ms)
    if lp.n_paths > path_cap:
        raise SizeCapError(f"{lp.n_paths} paths exceed the brute-force cap {path_cap}")
    A = lp_matrix(lp)
    A_red, b_red, consistent = _independent_rows(A, lp.b)
    if not consistent:
        raise ValueError("equality system inconsistent: instance infeasible")
    r, ncols = A_red.shape
    best = None
    for cols in itertools.combinations(range(ncols), r):
        B = A_red[:, cols]
        try:
            xb = np.linalg.solve(B, b_red)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(xb)) or np.max(np.abs(B @ xb - b_red)) > 1e-8:
            continue
        if np.min(xb) < -1e-9:
            continue
        x = np.zeros(ncols)
        x[list(cols)] = np.clip(xb, 0.0, None)
        if np.max(np.abs(A @ x - lp.b)) > 1e-7:
            continue
        val = float(np.dot(lp.c[list(cols)], xb))
        if best is None or val < best:
            best = val
    if best is None:
        raise ValueError("no feasible vertex: instance infeasible")
    return best


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
    tables = [np.asarray(t, dtype=float) for t in u_tables]
    psi = np.zeros(ms.sizes)
    grids = np.meshgrid(*ms.grids, indexing="ij", sparse=True)
    for i, table in enumerate(tables):
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
    return sum(float(np.dot(mu.weights, table)) for mu, table in zip(ms.marginals, tables))


def normal_slice_edges(m: int) -> np.ndarray:
    """z_j = Phi^-1(j / m) for j = 0..m, by scipy; z_0 = -inf and z_m = +inf."""
    return ndtri(np.arange(m + 1) / m)


def lognormal_mean_shares(z, scale: float) -> np.ndarray:
    """Phi(z - scale), by scipy: the share of a lognormal mean below each edge z."""
    return ndtr(np.asarray(z) - scale)


def lognormal_atoms(location: float, scale: float, m: int) -> np.ndarray:
    """Conditional means of the m equal-probability slices of Lognormal(location, scale)."""
    shares = lognormal_mean_shares(normal_slice_edges(m), scale)
    return m * math.exp(location + scale**2 / 2.0) * np.diff(shares)


def biconjugate_eval(f: GridFunction, t: float) -> float:
    """Convex-envelope value at t via the double conjugate.

    f**(t) = sup_m { m*t - sup_y { y*m - f(y) } }. The inner conjugate runs
    over the raw grid points; the outer sup runs over the finite set of hull
    segment slopes, where it is attained for piecewise-linear conjugates. An
    evaluation route independent of hull interpolation: it agrees with
    eval_envelope(convex_envelope(f), t) within 1e-9. t is clipped into the
    grid's interval.
    """
    env = convex_envelope(f)
    g, v = env.hull_grid, env.hull_values
    t = float(np.clip(t, g[0], g[-1]))
    slopes = np.diff(v) / np.diff(g) if g.size > 1 else np.zeros(1)
    conj = np.max(f.grid[None, :] * slopes[:, None] - f.values[None, :], axis=1)
    return float(np.max(slopes * t - conj))


def support_rows(q) -> Coupling:
    """The nonzero entries of a dense plan, negative ones included, as Coupling rows."""
    q = np.asarray(q, dtype=float)
    paths = np.flatnonzero(q)
    return Coupling(q.shape, paths, q.ravel()[paths])


def terminal_tensor(cost: CostSpec, ms: MarginalSequence, u) -> np.ndarray:
    """Top-level tensor T_n: cost minus the static positions u, on the product grid.

    A new array, built whole from the read-only cost tensor of cascade._built,
    through the row builder every cascade reads T_n with.
    """
    u.check(ms)
    rows = math.prod(ms.sizes[:-1])
    return _terminal_rows(_built(cost, ms).top, ms, u, 0, rows).reshape(ms.sizes)
