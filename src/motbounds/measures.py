"""The instance: finitely supported marginals and the payoff.

A marginal is a probability measure with finitely many atoms on the real line.
A sequence of marginals is feasible for martingale transport iff consecutive
marginals increase in convex order, which for equal means is equivalent to
pointwise dominance of the potential functions U(k) = E|X - k|. This module
builds, quantizes and checks marginals, and defines the payoff CostSpec,
which both the LP (primal) and the envelope cascade (cascade) price.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

WEIGHT_SUM_TOL = 1e-12
# convex-order tolerances, relative to the largest atom magnitude of the pair:
# float rounding in means and potentials grows with the atoms, so a rescaled
# instance gets the same verdict
MEAN_REL = 1e-9
POTENTIAL_REL = 1e-12
POTENTIAL_BLOCK = 1 << 16  # |k - x| values per block of evaluation points

COST_FORMS = ("squared_increment", "abs_increment", "terminal_call", "basket", "custom_table")
STRIKE_FORMS = ("terminal_call", "basket")  # the forms that read a strike

DEFAULT_VAR_CAP = 200_000  # LP path variables; also quantize_lognormal's default atom cap


def is_json_number(value) -> bool:
    """A JSON number: an int or a float, not a bool (nor a string that spells one)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class SizeCapError(RuntimeError):
    """Instance exceeds a configured resource cap."""


class NonFiniteCostError(ValueError):
    """A named cost form overflows to inf or nan on the marginals' product grid."""


def _canonical_support(atoms, weights):
    """Sort atoms, merge duplicates (weights summed), validate."""
    atoms = np.atleast_1d(np.asarray(atoms, dtype=float)).ravel()
    weights = np.atleast_1d(np.asarray(weights, dtype=float)).ravel()
    if atoms.size == 0:
        raise ValueError("a measure needs at least one atom")
    if atoms.size != weights.size:
        raise ValueError(
            f"atoms and weights length mismatch: {atoms.size} vs {weights.size}"
        )
    if not np.all(np.isfinite(atoms)):
        raise ValueError("atoms must be finite")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    if np.any(weights < 0):
        raise ValueError(f"negative weight: min = {weights.min():.3e}")
    uniq, inverse = np.unique(atoms, return_inverse=True)
    merged = np.zeros(uniq.size)
    np.add.at(merged, inverse, weights)
    total = merged.sum()
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"weights sum to {total!r}, expected 1 within {WEIGHT_SUM_TOL}")
    return uniq, merged


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Probability measure with finitely many atoms on the real line.

    Atoms are stored sorted and deduplicated (duplicate atoms merge their
    weights), in read-only arrays. Atoms and weights are finite; weights are
    nonnegative and sum to one within 1e-12.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms, weights = _canonical_support(self.atoms, self.weights)
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    def __len__(self):
        return self.atoms.size

    @property
    def mean(self) -> float:
        return float(np.dot(self.atoms, self.weights))

    @classmethod
    def point(cls, x: float) -> "DiscreteMeasure":
        return cls(np.array([x]), np.array([1.0]))

    def as_dict(self) -> dict:
        return {"atoms": self.atoms.tolist(), "weights": self.weights.tolist()}


def potential(mu: DiscreteMeasure, k) -> float:
    """U_mu(k) = E|X - k|, convex and piecewise linear in k.

    Accepts a scalar or an array of evaluation points, taken in blocks of
    about POTENTIAL_BLOCK values so that memory stays flat in the sizes.
    """
    k_arr = np.asarray(k, dtype=float)
    flat = k_arr.reshape(-1, 1)
    vals = np.empty(flat.shape[0])
    step = max(1, POTENTIAL_BLOCK // mu.atoms.size)
    for lo in range(0, vals.size, step):
        vals[lo:lo + step] = np.abs(mu.atoms[None, :] - flat[lo:lo + step]) @ mu.weights
    if k_arr.ndim == 0:
        return float(vals[0])
    return vals.reshape(k_arr.shape)


def split_atom(mu: DiscreteMeasure, index: int, h: float) -> DiscreteMeasure:
    """Mean-preserving spread: move atom x to x-h and x+h with half its weight each.

    The result dominates mu in convex order.
    """
    if h < 0:
        raise ValueError("spread width must be nonnegative")
    x = mu.atoms[index]
    w = mu.weights[index]
    atoms = np.concatenate([np.delete(mu.atoms, index), [x - h, x + h]])
    weights = np.concatenate([np.delete(mu.weights, index), [w / 2, w / 2]])
    return DiscreteMeasure(atoms, weights)


@dataclass(frozen=True)
class ConvexOrderResult:
    """Outcome of a pairwise convex-order test, with a witness on failure."""

    ordered: bool
    reason: str  # "ok" | "mean_mismatch" | "potential_violation"
    mean_gap: float
    witness_k: Optional[float] = None
    witness_gap: Optional[float] = None


def convex_order_check(mu: DiscreteMeasure, nu: DiscreteMeasure) -> ConvexOrderResult:
    """Decide whether mu is dominated by nu in convex order.

    Equivalent criterion for equal-mean discrete measures: the potential of mu
    never exceeds the potential of nu. Both potentials are piecewise linear
    with kinks only at atoms, so checking the union of the two atom sets is
    sufficient. Both tolerances scale with the largest |atom| of the pair.
    """
    scale = max(abs(mu.atoms[0]), abs(mu.atoms[-1]), abs(nu.atoms[0]), abs(nu.atoms[-1]))
    mean_gap = mu.mean - nu.mean
    if abs(mean_gap) > MEAN_REL * scale:
        return ConvexOrderResult(False, "mean_mismatch", mean_gap)
    ks = np.union1d(mu.atoms, nu.atoms)
    gap = potential(mu, ks) - potential(nu, ks)
    worst = int(np.argmax(gap))
    if gap[worst] > POTENTIAL_REL * scale:
        return ConvexOrderResult(
            False,
            "potential_violation",
            mean_gap,
            witness_k=float(ks[worst]),
            witness_gap=float(gap[worst]),
        )
    return ConvexOrderResult(True, "ok", mean_gap)


@dataclass(frozen=True, eq=False)
class MarginalSequence:
    """Ordered marginals mu_1, ..., mu_n of an n-period instance, n >= 2.

    Construction is lenient: feasibility (convex order, nested supports) is
    checked explicitly by validate_sequence, and solvers refuse invalid input
    rather than repairing it.
    """

    marginals: tuple
    sizes: tuple  # atoms per marginal
    grids: tuple  # each marginal's own (read-only) atom array

    def __init__(self, marginals: Sequence[DiscreteMeasure]):
        marginals = tuple(marginals)
        if len(marginals) < 2:
            raise ValueError("a marginal sequence needs at least two marginals")
        if not all(isinstance(m, DiscreteMeasure) for m in marginals):
            raise TypeError("marginals must be DiscreteMeasure instances")
        object.__setattr__(self, "marginals", marginals)
        object.__setattr__(self, "sizes", tuple(len(m) for m in marginals))
        object.__setattr__(self, "grids", tuple(m.atoms for m in marginals))

    @property
    def n(self) -> int:
        return len(self.marginals)

    def __len__(self):
        return len(self.marginals)

    def __iter__(self):
        return iter(self.marginals)

    def __getitem__(self, i):
        return self.marginals[i]

    @property
    def path_count(self) -> int:
        return int(np.prod(self.sizes))

    @property
    def span(self) -> float:
        lo = min(m.atoms[0] for m in self.marginals)
        hi = max(m.atoms[-1] for m in self.marginals)
        return float(hi - lo)


@dataclass(frozen=True, eq=False)
class CostSpec:
    """An n-variate cost: a named closed form or an explicit tensor.

    Named forms: squared_increment sum (x_{i+1}-x_i)^2, abs_increment
    sum |x_{i+1}-x_i|, terminal_call (x_n-K)_+, basket (mean(x)-K)_+.
    custom_table takes a tensor on the product grid, kept as a read-only
    copy. A strike and the table entries must be finite; a strike on a form
    outside STRIKE_FORMS, or a table on a named form, is refused.
    """

    n: int
    form: str
    strike: Optional[float] = None
    table: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("cost arity must be at least 2")
        if self.form not in COST_FORMS:
            raise ValueError(f"unknown cost form {self.form!r}; expected one of {COST_FORMS}")
        if self.form in STRIKE_FORMS and self.strike is None:
            raise ValueError(f"cost form {self.form!r} needs a strike")
        if self.strike is not None and not np.isfinite(self.strike):
            raise ValueError(f"strike must be finite, got {self.strike!r}")
        if self.strike is not None and self.form not in STRIKE_FORMS:
            raise ValueError(f"cost form {self.form!r} takes no strike")
        if self.table is not None and self.form != "custom_table":
            raise ValueError(f"cost form {self.form!r} takes no table")
        if self.form == "custom_table":
            if self.table is None:
                raise ValueError("custom_table needs a value tensor")
            table = np.array(self.table, dtype=float)
            table.setflags(write=False)
            if table.ndim != self.n:
                raise ValueError(f"table has {table.ndim} axes, expected {self.n}")
            if not np.all(np.isfinite(table)):
                raise ValueError("table entries must be finite")
            object.__setattr__(self, "table", table)

    def tensor_on(self, ms: MarginalSequence) -> np.ndarray:
        """Cost values on the full product grid, shape = marginal sizes.

        Every reader of the cost, the LP and the cascade, gets it from here,
        so this is where a named form that overflows on the grid (atoms of
        1e200 squared, say) raises NonFiniteCostError, with no RuntimeWarning
        on the way.
        """
        if ms.n != self.n:
            raise ValueError(f"cost arity {self.n} vs {ms.n} marginals")
        if self.form == "custom_table":
            if self.table.shape != ms.sizes:
                raise ValueError(
                    f"table shape {self.table.shape} does not match grids {ms.sizes}"
                )
            return self.table.copy()
        grids = np.meshgrid(*ms.grids, indexing="ij", sparse=True)
        # the one full-size array: each form is built in it in place, with the
        # elementwise operations of its formula in the formula's order
        out = np.zeros(ms.sizes)
        with np.errstate(over="ignore", invalid="ignore"):
            if self.form in ("squared_increment", "abs_increment"):
                op = np.square if self.form == "squared_increment" else np.abs
                np.subtract(grids[1], grids[0], out=out)
                op(out, out=out)
                for i in range(1, self.n - 1):  # a two-axis term per later increment
                    out += op(grids[i + 1] - grids[i])
            elif self.form == "terminal_call":
                out[...] = grids[-1]
            else:  # basket: the mean, summed from 0 as Python's sum() does
                for grid in grids:
                    out += grid
                out /= self.n
            if self.form in STRIKE_FORMS:
                out -= self.strike
                np.maximum(out, 0.0, out=out)
        # every named form is >= 0 and a NaN propagates to the max, so the max
        # is finite exactly when every entry is; it needs no temporary array
        if not np.isfinite(out.max()):
            raise NonFiniteCostError(f"cost {self.form} is not finite on the product grid "
                                     f"of the marginals")
        return out


@dataclass(frozen=True)
class PairReport:
    index: int  # pair (index, index + 1), 1-based
    order: ConvexOrderResult
    hull_nested: bool


@dataclass(frozen=True)
class SequenceReport:
    ok: bool
    pairs: tuple

    def failures(self):
        return [p for p in self.pairs if not (p.order.ordered and p.hull_nested)]

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "pairs": [
                {
                    "pair": [p.index, p.index + 1],
                    "ordered": p.order.ordered,
                    "reason": p.order.reason,
                    "mean_gap": p.order.mean_gap,
                    "witness_k": p.order.witness_k,
                    "witness_gap": p.order.witness_gap,
                    "hull_nested": p.hull_nested,
                }
                for p in self.pairs
            ],
        }


def validate_sequence(ms: MarginalSequence) -> SequenceReport:
    """Check consecutive convex order and support-interval nesting.

    Nesting of [min atom, max atom] is implied by convex order but asserted
    independently because envelope evaluation relies on it.
    """
    pairs = []
    ok = True
    for i in range(ms.n - 1):
        mu, nu = ms[i], ms[i + 1]
        order = convex_order_check(mu, nu)
        nested = bool(nu.atoms[0] <= mu.atoms[0] and mu.atoms[-1] <= nu.atoms[-1])
        pairs.append(PairReport(i + 1, order, nested))
        ok = ok and order.ordered and nested
    return SequenceReport(ok, tuple(pairs))


def _normal_slices(scale: float, m: int):
    """Edges and lognormal mean shares of m equal-probability slices of N(0, 1).

    Returns z_0..z_m, with z_0 = -inf, z_m = +inf and z_j = Phi^-1(j / m)
    between, and Phi(z_j - scale), the share of the mean of
    Lognormal(0, scale) carried below its j-th quantile.
    """
    # statistics loads fractions and decimal (about 6 ms), so only quantizing pays for it
    from statistics import NormalDist

    inv_cdf = NormalDist().inv_cdf
    z = [-math.inf] + [inv_cdf(j / m) for j in range(1, m)] + [math.inf]
    root2 = math.sqrt(2.0)
    tail_mass = [0.5 * math.erfc((scale - zj) / root2) for zj in z]
    return np.array(z), np.array(tail_mass)


def quantize_lognormal(location: float, scale: float, m: int,
                       var_cap: Optional[int] = None) -> DiscreteMeasure:
    """Quantize Lognormal(location, scale) to m equal-probability atoms.

    Each atom sits at the conditional mean of one of the m equal-probability
    quantile slices, so the quantized mean equals exp(location + scale^2 / 2)
    exactly. The slice edges come from statistics.NormalDist and the mean
    shares from math.erfc, so quantizing loads no part of scipy. m must be an
    integer (a bool is refused). A zero scale degenerates to a single atom.
    More than var_cap atoms (DEFAULT_VAR_CAP when None) raise SizeCapError,
    naming that cap, before anything is allocated.
    """
    if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1:
        raise ValueError("m must be a positive integer")
    cap = DEFAULT_VAR_CAP if var_cap is None else var_cap
    if m > cap:
        raise SizeCapError(f"{m} atoms exceed the cap {cap}")
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    try:
        full_mean = math.exp(location + scale**2 / 2.0)
    except OverflowError:
        full_mean = math.inf
    if not math.isfinite(full_mean):
        raise ValueError(f"mean exp(location + scale^2 / 2) is not finite for "
                         f"location {location!r}, scale {scale!r}")
    if scale == 0:
        return DiscreteMeasure.point(math.exp(location))
    _, tail_mass = _normal_slices(scale, int(m))
    atoms = m * full_mean * np.diff(tail_mass)
    return DiscreteMeasure(atoms, np.full(m, 1.0 / m))
