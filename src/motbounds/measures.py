"""Finitely supported marginals: construction, quantization, convex-order checks.

A marginal is a probability measure with finitely many atoms on the real line.
A sequence of marginals is feasible for martingale transport iff consecutive
marginals increase in convex order, which for equal means is equivalent to
pointwise dominance of the potential functions U(k) = E|X - k|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

WEIGHT_SUM_TOL = 1e-12
MEAN_TOL = 1e-9
POTENTIAL_TOL = 1e-12


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
    weights). Weights are nonnegative and sum to one within 1e-12.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms, weights = _canonical_support(self.atoms, self.weights)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    def __len__(self):
        return self.atoms.size

    @property
    def mean(self) -> float:
        return float(np.dot(self.atoms, self.weights))

    @property
    def support_interval(self):
        return float(self.atoms[0]), float(self.atoms[-1])

    @classmethod
    def point(cls, x: float) -> "DiscreteMeasure":
        return cls(np.array([x]), np.array([1.0]))

    def as_dict(self) -> dict:
        return {"atoms": self.atoms.tolist(), "weights": self.weights.tolist()}

    @classmethod
    def from_dict(cls, payload: dict) -> "DiscreteMeasure":
        return cls(np.asarray(payload["atoms"]), np.asarray(payload["weights"]))


def potential(mu: DiscreteMeasure, k) -> float:
    """U_mu(k) = E|X - k|, convex and piecewise linear in k.

    Accepts a scalar or an array of evaluation points.
    """
    k_arr = np.asarray(k, dtype=float)
    vals = np.abs(mu.atoms[None, :] - k_arr.reshape(-1, 1)) @ mu.weights
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
    sufficient.
    """
    mean_gap = mu.mean - nu.mean
    if abs(mean_gap) > MEAN_TOL:
        return ConvexOrderResult(False, "mean_mismatch", mean_gap)
    ks = np.union1d(mu.atoms, nu.atoms)
    gap = potential(mu, ks) - potential(nu, ks)
    worst = int(np.argmax(gap))
    if gap[worst] > POTENTIAL_TOL:
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

    def __init__(self, marginals: Sequence[DiscreteMeasure]):
        marginals = tuple(marginals)
        if len(marginals) < 2:
            raise ValueError("a marginal sequence needs at least two marginals")
        if not all(isinstance(m, DiscreteMeasure) for m in marginals):
            raise TypeError("marginals must be DiscreteMeasure instances")
        object.__setattr__(self, "marginals", marginals)

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
    def sizes(self) -> tuple:
        return tuple(len(m) for m in self.marginals)

    @property
    def grids(self) -> list:
        return [m.atoms for m in self.marginals]

    @property
    def path_count(self) -> int:
        return int(np.prod(self.sizes))

    @property
    def span(self) -> float:
        lo = min(m.atoms[0] for m in self.marginals)
        hi = max(m.atoms[-1] for m in self.marginals)
        return float(hi - lo)


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


def quantize_lognormal(location: float, scale: float, m: int) -> DiscreteMeasure:
    """Quantize Lognormal(location, scale) to m equal-probability atoms.

    Each atom sits at the conditional mean of one of the m equal-probability
    quantile slices, so the quantized mean equals exp(location + scale^2 / 2)
    exactly. A zero scale degenerates to a single atom.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    full_mean = math.exp(location + scale**2 / 2.0)
    if scale == 0:
        return DiscreteMeasure.point(math.exp(location))
    z = ndtri(np.arange(m + 1) / m)  # includes -inf and +inf
    tail_mass = ndtr(z - scale)  # partial expectations / full mean
    atoms = m * full_mean * np.diff(tail_mass)
    return DiscreteMeasure(atoms, np.full(m, 1.0 / m))
