"""Convex and concave envelopes of functions tabulated on a finite grid.

The convex envelope of a grid-tabulated function is the lower convex hull of
its graph points; evaluation between hull knots is piecewise linear. A second,
independent evaluation route goes through the double conjugate
f**(x) = sup_m { m*x - sup_y { y*m - f(y) } } and is used for cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SLOPE_TOL = 1e-12
CLAMP_REL = 1e-9


class OutOfDomainError(ValueError):
    """Evaluation point lies outside the tabulation interval.

    In the cascade this signals a violation of support nesting, i.e. an
    infeasible or unvalidated instance rather than a numerical issue.
    """


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real function tabulated on a strictly increasing finite grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.atleast_1d(np.asarray(self.grid, dtype=float)).ravel()
        values = np.atleast_1d(np.asarray(self.values, dtype=float)).ravel()
        if grid.size == 0:
            raise ValueError("grid must have at least one point")
        if grid.size != values.size:
            raise ValueError("grid and values must have the same length")
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __len__(self):
        return self.grid.size


@dataclass(frozen=True, eq=False)
class EnvelopeResult:
    """Hull knots of a lower (convex) or upper (concave) envelope.

    hull_indices are the positions of the knots in the input grid; the first
    and last grid point are always knots.
    """

    hull_grid: np.ndarray
    hull_values: np.ndarray
    hull_indices: np.ndarray
    orientation: str  # "lower" | "upper"


def _hull_scan(x, y, lower: bool):
    """Monotone scan over presorted points; drops collinear knots."""
    keep = [0]
    for j in range(1, x.size):
        while len(keep) >= 2:
            a, b = keep[-2], keep[-1]
            s_ab = (y[b] - y[a]) / (x[b] - x[a])
            s_bj = (y[j] - y[b]) / (x[j] - x[b])
            if lower:
                drop = s_bj <= s_ab + SLOPE_TOL
            else:
                drop = s_bj >= s_ab - SLOPE_TOL
            if drop:
                keep.pop()
            else:
                break
        keep.append(j)
    return np.asarray(keep, dtype=int)


def convex_envelope(f: GridFunction) -> EnvelopeResult:
    """Lower convex hull of the graph points of f.

    The piecewise-linear interpolant of the hull is the convex envelope of the
    piecewise-linear interpolant of f on the tabulation interval. Linear time
    in the grid length.
    """
    idx = _hull_scan(f.grid, f.values, lower=True)
    return EnvelopeResult(f.grid[idx], f.values[idx], idx, "lower")


def concave_envelope(f: GridFunction) -> EnvelopeResult:
    """Upper hull; mirror image of convex_envelope."""
    idx = _hull_scan(f.grid, f.values, lower=False)
    return EnvelopeResult(f.grid[idx], f.values[idx], idx, "upper")


def _clamp(e: EnvelopeResult, t: float) -> float:
    g = e.hull_grid
    eps = CLAMP_REL * (g[-1] - g[0])
    if t < g[0] - eps or t > g[-1] + eps:
        raise OutOfDomainError(
            f"t = {t!r} outside [{g[0]!r}, {g[-1]!r}] by more than {eps:.3e}; "
            "support nesting violated"
        )
    return min(max(t, float(g[0])), float(g[-1]))


def eval_envelope(e: EnvelopeResult, t: float) -> float:
    """Piecewise-linear interpolation on the hull; exact at hull knots."""
    t = _clamp(e, t)
    g, v = e.hull_grid, e.hull_values
    k = int(np.searchsorted(g, t))
    if k < g.size and g[k] == t:
        return float(v[k])
    lam = (g[k] - t) / (g[k] - g[k - 1])
    return float(lam * v[k - 1] + (1.0 - lam) * v[k])


def envelope_weights(e: EnvelopeResult, t: float):
    """Two-point representation of the envelope value at t.

    Returns hull-knot indices (left, right) and lam in [0, 1] with
    t = lam * hull_grid[left] + (1 - lam) * hull_grid[right]; a knot hit
    collapses to left == right with lam == 1.
    """
    t = _clamp(e, t)
    g = e.hull_grid
    k = int(np.searchsorted(g, t))
    if k < g.size and g[k] == t:
        return k, k, 1.0
    lam = float((g[k] - t) / (g[k] - g[k - 1]))
    return k - 1, k, lam


def biconjugate_eval(f: GridFunction, t: float) -> float:
    """Convex-envelope value at t via the double conjugate.

    The inner conjugate sup_y { y*m - f(y) } runs over the raw grid points;
    the outer sup runs over the finite set of hull segment slopes, where it is
    attained for piecewise-linear conjugates. Independent evaluation route,
    agrees with eval_envelope(convex_envelope(f), t) within 1e-9.
    """
    env = convex_envelope(f)
    t = _clamp(env, t)
    g, v = env.hull_grid, env.hull_values
    if g.size == 1:
        slopes = np.array([0.0])
    else:
        slopes = np.diff(v) / np.diff(g)
    conj = np.max(f.grid[None, :] * slopes[:, None] - f.values[None, :], axis=1)
    return float(np.max(slopes * t - conj))
