"""Convex and concave envelopes of functions tabulated on a finite grid.

The convex envelope of a grid-tabulated function is the lower convex hull of
its graph points, found by one monotone scan; evaluation between hull knots
is piecewise linear. The concave envelope of f is minus the convex envelope
of -f, so it runs the same scan on the negated values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CLAMP_REL = 1e-9


class OutOfDomainError(ValueError):
    """Evaluation point lies outside the tabulation interval.

    In the cascade this signals a violation of support nesting, i.e. an
    infeasible or unvalidated instance rather than a numerical issue.
    """


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real function tabulated on a strictly increasing grid; grid and values finite."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.atleast_1d(np.asarray(self.grid, dtype=float)).ravel()
        values = np.atleast_1d(np.asarray(self.values, dtype=float)).ravel()
        if grid.size == 0:
            raise ValueError("grid must have at least one point")
        if grid.size != values.size:
            raise ValueError("grid and values must have the same length")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
            raise ValueError("grid and values must be finite")
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


def convex_envelope(f: GridFunction) -> EnvelopeResult:
    """Lower convex hull of the graph points of f, by one monotone scan free of scale.

    The piecewise-linear interpolant of the hull is the convex envelope of the
    piecewise-linear interpolant of f on the tabulation interval. Linear time
    in the grid length. A knot b between a and j stays only when the slope
    from b to j strictly exceeds the slope from a to b, with no tolerance.
    Exactly collinear knots go; knots collinear only up to rounding may stay
    (3x+1 on linspace(0, 1, 11) keeps knot 7), which moves no value beyond
    rounding.
    """
    x, y = f.grid, f.values
    keep = [0]
    for j in range(1, x.size):
        while len(keep) >= 2:
            a, b = keep[-2], keep[-1]
            if (y[j] - y[b]) / (x[j] - x[b]) > (y[b] - y[a]) / (x[b] - x[a]):
                break
            keep.pop()
        keep.append(j)
    idx = np.asarray(keep, dtype=int)
    return EnvelopeResult(x[idx], y[idx], idx)


def concave_envelope(f: GridFunction) -> EnvelopeResult:
    """Upper hull: minus the convex envelope of -f, which negation keeps exact."""
    e = convex_envelope(GridFunction(f.grid, -f.values))
    return EnvelopeResult(e.hull_grid, -e.hull_values, e.hull_indices)


def _clamp(grid: np.ndarray, t):
    """Clip a point or an array of points into [grid[0], grid[-1]].

    A point further outside than CLAMP_REL times the grid's span, or NaN,
    raises OutOfDomainError; within that it is evaluated at the nearer end.
    """
    lo, hi = float(grid[0]), float(grid[-1])
    eps = CLAMP_REL * (hi - lo)
    t = np.asarray(t, dtype=float)
    outside = ~((t >= lo - eps) & (t <= hi + eps))
    if outside.any():
        raise OutOfDomainError(
            f"t = {float(t[outside][0])!r} outside [{lo!r}, {hi!r}] by more than "
            f"{eps:.3e}; support nesting violated"
        )
    return np.clip(t, lo, hi)


def eval_envelope(e: EnvelopeResult, t: float) -> float:
    """Piecewise-linear interpolation on the hull; exact at hull knots."""
    left, right, lam = envelope_weights(e, t)
    v = e.hull_values
    if left == right:
        return float(v[left])
    return float(lam * v[left] + (1.0 - lam) * v[right])


def envelope_weights(e: EnvelopeResult, t: float):
    """Two-point representation of the envelope value at t.

    Returns hull-knot indices (left, right) and lam in [0, 1] with
    t = lam * hull_grid[left] + (1 - lam) * hull_grid[right]; a knot hit
    collapses to left == right with lam == 1.
    """
    g = e.hull_grid
    t = _clamp(g, t)
    k = int(np.searchsorted(g, t))
    if g[k] == t:
        return k, k, 1.0
    lam = float((g[k] - t) / (g[k] - g[k - 1]))
    return k - 1, k, lam
