"""Supergradient ascent on the dual tables, after Shor's r-algorithm.

The dual objective is piecewise affine and concave (lower variants) or convex
(upper variant) in the finitely many table entries, so plain subgradient steps
zigzag between facets and crawl along ridges. The optimizer therefore
accumulates an adaptive metric from the gradient history (space dilation
along successive gradient differences, after Shor's r-algorithm), which
contracts the across-ridge component and lets the iterate travel the ridge.
The metric B is held as base + P^T W (see _Metric): each dilation appends
one row to the thin factors P and W, and base is the identity, never
allocated, until the factors fill up and are folded into it by one matrix
product. A metric of at most BLOCK_VALUES entries folds at every dilation,
so it is the dense metric; on a larger one, a run with fewer dilations than
the factors hold, such as a short run on a wide instance, holds no
(sum m_i)^2 array.
The reference only sets the step length: when the transport LP value is
available and not yet reached, the step targets the remaining gap directly;
otherwise it is Shor's normalised step (see _run). That step, and the cap
on the targeted one, scale with the cost's spread, max c - min c over the
product grid: u is in price units, while the supergradient and the metric
are dimensionless masses, so atoms and prices scaled by a power of two
scale the whole run exactly, and a constant cost takes no step. Every
iterate is a valid bound, so the best-so-far certificate is sound
regardless of oscillation. Each evaluation of a run starts the cascade's
supporting-pair search from the pairs of the one before, which one step
mostly leaves in place; the first starts cold, and nothing outlives the run.
One routine, ascend, runs every variant, and the variant alone sets the
direction: it maximizes the lower variants and minimizes remark_a. A run
starts at u = 0 unless it is given a start.

This module reads no LP code: a reference is a number from the caller.
Certification runs no optimizer, and lives in certification.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .cascade import (
    BLOCK_VALUES,
    DEFAULT_TARGET_GAP,
    LOWER_VARIANTS,
    VARIANTS,
    DualCertificate,
    DualVariables,
    _built,
    _check_target_gap,
    _evaluate,
    _project_zero_mean,
    relative_gap,
)
from .measures import CostSpec, MarginalSequence, check_positive_int

GRAD_TOL = 1e-7
DILATION = 2.0  # metric contraction along gradient differences
EPSILON = 1e-8


@dataclass(frozen=True)
class AscentConfig:
    variant: str = "proposition"
    max_iters: int = 5000
    target_gap: float = DEFAULT_TARGET_GAP

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        check_positive_int(self.max_iters, "max_iters")
        _check_target_gap(self.target_gap)


@dataclass(eq=False)
class AscentTrace:
    """Per-iteration record of the optimizer run."""

    values: np.ndarray
    grad_norms: np.ndarray
    best_values: np.ndarray
    elapsed_ms: np.ndarray
    status: str

    def __len__(self):
        return self.values.size


MAX_GAP_STEP = 1e3  # cap on the gap-targeted step length, times the cost's spread
INITIAL_STEP = 0.2  # the step without a gap to target is INITIAL_STEP * spread / sqrt(k) long


class _Metric:
    """Shor's dilated-space basis B = base + P^T W, with base the identity until the first fold.

    dilate(xi) appends p = B xi to P and (1/DILATION - 1) xi to W, the
    rank-1 update B += (1/DILATION - 1) B xi xi^T. P and W hold cap rows; a
    dilation that fills them folds them into base (base = I or base, plus
    P^T W), the one size x size array. With cap 1 every dilation folds at
    once, which is the dense rank-1 update.
    """

    def __init__(self, size: int, cap: int):
        self.base = None  # the identity, until the first fold
        self.p = np.empty((cap, size))
        self.w = np.empty((cap, size))
        self.rank = 0  # rows of P and W in use

    def dot(self, v: np.ndarray) -> np.ndarray:
        """B v, a new array."""
        out = v.copy() if self.base is None else self.base @ v
        if self.rank:
            out += self.p[:self.rank].T @ (self.w[:self.rank] @ v)
        return out

    def t_dot(self, v: np.ndarray) -> np.ndarray:
        """B^T v, a new array."""
        out = v.copy() if self.base is None else self.base.T @ v
        if self.rank:
            out += self.w[:self.rank].T @ (self.p[:self.rank] @ v)
        return out

    def dilate(self, xi: np.ndarray) -> None:
        """Contract B along the unit vector xi: B += (1/DILATION - 1) (B xi) xi^T."""
        self.p[self.rank] = self.dot(xi)
        np.multiply(xi, 1.0 / DILATION - 1.0, out=self.w[self.rank])
        self.rank += 1
        if self.rank == len(self.p):
            fold = self.p.T @ self.w
            if self.base is None:
                fold.flat[::fold.shape[0] + 1] += 1.0
            else:
                fold += self.base
            self.base, self.rank = fold, 0


def _run(cost: CostSpec, ms: MarginalSequence, config: AscentConfig,
         reference: Optional[float], start=None):
    """ascend's run: step k is alpha B B^T g, with B the metric and g the supergradient.

    With a gap to target, alpha = min(gap / |B^T g|^2, MAX_GAP_STEP * spread);
    without one, alpha = INITIAL_STEP * spread / (sqrt(k) |B^T g|), a step of
    that length in the dilated space. spread = hi - lo of cascade._built, and
    there is no step when |B^T g| <= EPSILON. Each evaluation after the first
    searches from the last one's supporting pairs (cascade._evaluate), which
    live in this call alone, so every run starts cold.
    """
    if reference is not None and (isinstance(reference, bool) or not -np.inf < reference < np.inf):
        raise ValueError("primal_value must be a finite number")
    variant = config.variant
    maximize = variant in LOWER_VARIANTS
    sign = 1.0 if maximize else -1.0
    u = DualVariables.zeros(ms) if start is None else DualVariables.from_tables(ms, start)
    x = np.concatenate(u.values)  # the position: u_2, ..., u_n end to end
    cuts = np.cumsum(ms.sizes[1:])[:-1]
    tables = np.split(x, cuts)  # views into x
    _project_zero_mean(tables, ms)
    built = _built(cost, ms)
    spread = built.hi - built.lo
    # A metric of at most BLOCK_VALUES entries is held dense, each dilation folded at once: a
    # dense product costs less than the thin ones' calls. A larger one holds factors of at most
    # size // 2 rows, so B v costs no more than a dense product, and at most BLOCK_VALUES // size,
    # so each thin product reads at most one block; a run dilates fewer than max_iters times.
    dense = x.size**2 <= BLOCK_VALUES
    cap = 1 if dense else min(BLOCK_VALUES // x.size, x.size // 2, config.max_iters)
    metric = _Metric(x.size, max(1, cap))
    grad_prev = supports = None  # supports: the last evaluation's pairs, where the next starts
    values, norms, bests, stamps = [], [], [], []
    best_value = -np.inf if maximize else np.inf
    best_x = x.copy()
    status = "iteration_limit"
    t0 = time.perf_counter()
    for k in range(1, config.max_iters + 1):
        u = DualVariables(ms.grids[1:], tuple(tables))  # views of x, checked by the cascade
        value, grads, supports = _evaluate(variant, cost, ms, u, supports)
        gnorm = float(np.sqrt(sum(float(g @ g) for g in grads)))
        if (value > best_value) if maximize else (value < best_value):
            best_value = value
            best_x = x.copy()
        values.append(value)
        norms.append(gnorm)
        bests.append(best_value)
        stamps.append((time.perf_counter() - t0) * 1e3)
        if reference is not None and relative_gap(best_value, reference) < config.target_gap:
            status = "converged_gap"
            break
        if gnorm < GRAD_TOL:
            status = "converged_stationary"
            break
        if k == config.max_iters:
            break
        # Contract the metric along the latest gradient difference (the
        # across-kink direction) and step along the gradient in the dilated
        # space. With a reference the step targets the remaining gap, which
        # is exact when the attained affine piece is active at the optimum.
        flat_g = np.concatenate(grads)
        if grad_prev is not None:
            xi = metric.t_dot(flat_g - grad_prev)
            norm_xi = float(np.linalg.norm(xi))
            if norm_xi > EPSILON:
                xi /= norm_xi
                metric.dilate(xi)
        grad_prev = flat_g
        dilated = metric.t_dot(flat_g)
        direction = metric.dot(dilated)
        gap = (reference - value) * sign if reference is not None else 0.0
        denom = float(dilated @ dilated)
        if denom <= EPSILON**2:  # |B^T g| <= EPSILON: no step
            alpha = 0.0
        elif gap > 0:
            alpha = min(gap / denom, MAX_GAP_STEP * spread)
        else:
            alpha = INITIAL_STEP * spread / (np.sqrt(k) * np.sqrt(denom))
        x += sign * alpha * direction
        _project_zero_mean(tables, ms)
    trace = AscentTrace(
        np.asarray(values), np.asarray(norms), np.asarray(bests), np.asarray(stamps), status
    )
    gap = relative_gap(best_value, reference) if reference is not None else None
    cert = DualCertificate(
        variant, DualVariables.from_tables(ms, np.split(best_x, cuts)), best_value, gap
    )
    return cert, trace


def ascend(cost: CostSpec, ms: MarginalSequence, config: Optional[AscentConfig] = None,
           primal_value: Optional[float] = None, start=None):
    """Optimize the dual objective of config.variant from start (u = 0 by default).

    The run maximizes the lower variants and minimizes remark_a. start holds
    the tables u_2, ..., u_n, checked by DualVariables.from_tables. Every
    iterate is a valid bound by weak duality; the certificate carries the best
    value seen and its gap_vs_primal. With a primal value, a finite number
    (ValueError otherwise), the run stops at the configured relative gap,
    otherwise at a flat supergradient or the cap.
    """
    return _run(cost, ms, config or AscentConfig(), reference=primal_value, start=start)


def descend_upper(cost: CostSpec, ms: MarginalSequence, config: Optional[AscentConfig] = None,
                  primal_value: Optional[float] = None, start=None):
    """ascend with variant remark_a, whatever config.variant says."""
    config = replace(config or AscentConfig(), variant="remark_a")
    return _run(cost, ms, config, reference=primal_value, start=start)
