"""Independent oracle: the transport LP, built sparse and solved by HiGHS.

The program under test assembles its own LP and solves it with its own
simplex. This module shares none of that code: it evaluates the named payoffs
itself, builds the equality system as a scipy.sparse matrix and solves it with
the HiGHS solver that scipy ships (``linprog(method="highs")``). Its values
are the references that the benchmark checks the program's LP optima and dual
bounds against.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

# Relative tolerance of LP agreement and of weak duality, scaled by 1 + |ref|.
# HiGHS stops at primal and dual feasibility 1e-7, so its optimum is only
# trusted to that order.
LP_TOL = 1e-7


def payoff_tensor(form: str, strike, grids) -> np.ndarray:
    """The named payoffs on the product grid of the atom arrays in grids."""
    n = len(grids)
    x = np.meshgrid(*grids, indexing="ij", sparse=True)
    if form == "squared_increment":
        out = sum((x[i + 1] - x[i]) ** 2 for i in range(n - 1))
    elif form == "abs_increment":
        out = sum(np.abs(x[i + 1] - x[i]) for i in range(n - 1))
    elif form == "terminal_call":
        out = np.maximum(x[-1] - strike, 0.0)
    elif form == "basket":
        out = np.maximum(sum(x) / n - strike, 0.0)
    else:
        raise ValueError(f"the oracle does not know the payoff {form!r}")
    return np.broadcast_to(out, tuple(g.size for g in grids))


def sparse_lp(grids, weights):
    """Equality rows of the martingale coupling polytope as a sparse matrix.

    One row per (period, atom) fixes the marginal mass; one row per
    (period < n, prefix) forces zero conditional drift. Paths are numbered in
    C order over the product grid.
    """
    sizes = tuple(g.size for g in grids)
    n = len(sizes)
    paths = int(np.prod(sizes))
    coords = np.unravel_index(np.arange(paths), sizes)
    rows, cols, vals = [], [], []
    offset = 0
    for i in range(n):
        rows.append(offset + coords[i])
        cols.append(np.arange(paths))
        vals.append(np.ones(paths))
        offset += sizes[i]
    for i in range(n - 1):
        tail = int(np.prod(sizes[i + 1:]))
        rows.append(offset + np.arange(paths) // tail)
        cols.append(np.arange(paths))
        vals.append(grids[i + 1][coords[i + 1]] - grids[i][coords[i]])
        offset += paths // tail
    A = coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(offset, paths),
    ).tocsr()
    b = np.concatenate(list(weights) + [np.zeros(offset - sum(sizes))])
    return A, b


def lp_bounds(form: str, strike, grids, weights) -> dict:
    """Minimum and maximum of E[payoff] over martingale couplings, by HiGHS."""
    grids = [np.asarray(g, dtype=float) for g in grids]
    weights = [np.asarray(w, dtype=float) for w in weights]
    c = np.ascontiguousarray(payoff_tensor(form, strike, grids)).ravel()
    A, b = sparse_lp(grids, weights)
    out = {}
    for side, sign in (("min", 1.0), ("max", -1.0)):
        start = time.perf_counter()
        res = linprog(sign * c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        out[f"{side}_s"] = time.perf_counter() - start
        if res.status != 0:
            raise RuntimeError(f"HiGHS {side} solve ended with status {res.status}: {res.message}")
        out[side] = sign * float(res.fun)
    return out


def agrees(value: float, reference: float, tol: float = LP_TOL) -> bool:
    return abs(value - reference) <= tol * (1.0 + abs(reference))


def below(value: float, reference: float, tol: float = LP_TOL) -> bool:
    """Weak duality of a lower bound: value <= reference up to tol."""
    return value <= reference + tol * (1.0 + abs(reference))


def above(value: float, reference: float, tol: float = LP_TOL) -> bool:
    """Weak duality of an upper bound: value >= reference up to tol."""
    return value >= reference - tol * (1.0 + abs(reference))
