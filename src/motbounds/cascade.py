"""Inductive envelope cascades, the dual objective, and its supergradient.

Starting from the terminal tensor c(x_1..x_n) - sum_i u_i(x_i), each level
replaces the dependence on the last coordinate by the value of its convex
(lower-bound problem) or concave (upper-bound problem) envelope at the
previous coordinate. One loop, cascade_down, serves three variants, which
differ only in where u is subtracted and which way the hull faces:

* "proposition": subtract all u_i upfront, then envelope level by level;
* "remark_a":    same recursion with concave envelopes (upper bound);
* "remark_b":    keep the raw cost at the top and subtract each u_{i+1}
                 from the section right before the envelope at level i;
                 it gives the same values as "proposition" (see cascade_down).

Each level evaluates its sections one block of rows at a time: an exact
alternating search finds the pair of atoms whose chord supports the hull at
the evaluation point, at O(m) per section and round and a few rounds per
section. The top level's blocks are built from the cost tensor as they are
searched, so no cascade holds T_n whole.

Only u changes between the evaluations of one instance. What does not
depend on it is built once per (cost, ms) pair, in one eager call to _built:
the cost tensor, read-only, and every level's clamped and tiled evaluation
points, their splits, and the slope kernel and bar rows of the search, one
kernel for both hulls. Every cascade reads the levels, so none is deferred.
A one-entry cache keeps them for the last pair seen: the read-only cost
tensor, the only array of prod m_i values on the dual path, plus, per level
i, one m_{i+1} x m_{i+1} kernel and two entries per prefix. The arrays of
the marginals and of a custom table are read-only, so an entry cannot go
stale.

The dual objective is the mu_1-expectation of the bottom level plus the
marginal expectations of the u_i. It is concave (proposition / remark_b) or
convex (remark_a) and piecewise affine in the u tables; the supergradient is
assembled by pushing the mu_1 weights down through the two-point envelope
representations and depositing the arriving mass on the touched u slots.
dual_value_and_subgradient computes both; dual_objective is its value.

DualVariables.check is the one check of a position: the count of its tables,
their shapes, grids equal to the atoms, and finite entries. from_tables and
zeros run it, and so does every cascade before it reads a table
(terminal_tensor and cascade_down), so a non-finite table is refused
however the position was built. CostSpec comes from measures, so
primal, whose validate_coupling the sub-hedge check uses, does not import
this module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .envelope import _clamp
from .measures import CostSpec, MarginalSequence, is_json_number
from .primal import Coupling, CouplingReport, validate_coupling

VARIANTS = ("proposition", "remark_a", "remark_b")
LOWER_VARIANTS = ("proposition", "remark_b")

SUBHEDGE_TOL = 1e-9  # times max(1, max |T_n|), so a rescaled instance keeps its verdict


@dataclass(frozen=True, eq=False)
class DualVariables:
    """Static dual positions u_2, ..., u_n, tabulated on the marginal atoms.

    values[i-2] is the float table of u_i on grids[i-2], the atoms of mu_i.
    from_tables and zeros run check; a position built by from_json or the
    constructor is checked by the first cascade that reads it.
    """

    grids: tuple  # the atom arrays of mu_2, ..., mu_n
    values: tuple  # the tables u_2, ..., u_n

    @classmethod
    def zeros(cls, ms: MarginalSequence) -> "DualVariables":
        return cls.from_tables(ms, [np.zeros(size) for size in ms.sizes[1:]])

    @classmethod
    def from_tables(cls, ms: MarginalSequence, tables: Sequence[np.ndarray]) -> "DualVariables":
        """u_2..u_n from float copies of n - 1 finite tables of shapes (m_2,)..(m_n,)."""
        u = cls(ms.grids[1:], tuple(np.array(t, dtype=float) for t in tables))
        u.check(ms)
        return u

    def check(self, ms: MarginalSequence) -> None:
        """Raise ValueError unless there is one finite table u_i on the atoms of mu_i per i >= 2."""
        if not len(self.grids) == len(self.values) == ms.n - 1:
            raise ValueError(f"expected {ms.n - 1} tables (u_2..u_n), got {len(self.values)} "
                             f"on {len(self.grids)} grids")
        for i, (grid, t) in enumerate(zip(self.grids, self.values), start=2):
            atoms = ms[i - 1].atoms
            if not np.array_equal(grid, atoms):
                raise ValueError(f"grid of u_{i} does not match the atoms of marginal {i}")
            if np.shape(t) != atoms.shape:
                raise ValueError(f"table u_{i} has shape {np.shape(t)}, expected ({atoms.size},)")
            if not np.all(np.isfinite(t)):
                raise ValueError(f"table u_{i} has a non-finite entry")

    def tables(self) -> list:
        return [t.copy() for t in self.values]

    def as_json(self) -> list:
        return [{"grid": g.tolist(), "values": t.tolist()} for g, t in zip(self.grids, self.values)]

    @classmethod
    def from_json(cls, payload: list) -> "DualVariables":
        """The inverse of as_json; ValueError unless every grid and table is a list of numbers."""
        if not isinstance(payload, list) or not all(isinstance(d, dict) for d in payload):
            raise ValueError("u: expected a list of {grid, values} objects")
        return cls(tuple(_json_floats(d.get("grid"), f"u[{k}].grid") for k, d in enumerate(payload)),
                   tuple(_json_floats(d.get("values"), f"u[{k}].values")
                         for k, d in enumerate(payload)))


def _json_floats(values, field: str) -> np.ndarray:
    """A float array from a JSON list of numbers; ValueError naming field for anything else."""
    if not isinstance(values, list) or not all(is_json_number(v) for v in values):
        raise ValueError(f"{field}: expected a list of numbers, got {values!r}")
    return np.array(values, dtype=float)


@dataclass(frozen=True, eq=False)
class CascadeTensors:
    """The cascade levels T_1, ..., T_{n-1} plus the two-point envelope supports.

    levels[i-1] holds T_i on the prefix product grid of mu_1 x ... x mu_i.
    The top level T_n is not held: terminal_tensor builds it on demand, and
    remark_b's top is the instance's cost tensor, CostSpec.tensor_on.
    supports[i-1] = (left, right, lam) arrays over level-i prefixes: the
    atom indices of mu_{i+1} supporting the envelope value and its convex
    combination weight (artifact data used by the supergradient and the
    hedge check).
    """

    levels: tuple
    supports: tuple = field(repr=False, default=())


@dataclass(frozen=True, eq=False)
class DualCertificate:
    """Dual variables with their attained objective value."""

    variant: str
    dual_variables: DualVariables
    dual_value: float
    gap_vs_primal: Optional[float] = None

    def as_dict(self) -> dict:
        out = {
            "variant": self.variant,
            "u": self.dual_variables.as_json(),
            "dual_value": self.dual_value,
        }
        if self.gap_vs_primal is not None:
            out["gap_vs_primal"] = self.gap_vs_primal
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "DualCertificate":
        """The inverse of as_dict; ValueError for an unknown variant or a non-number value."""
        variant, value, gap = (payload.get(k) for k in ("variant", "dual_value", "gap_vs_primal"))
        if variant not in VARIANTS:
            raise ValueError(f"variant: expected one of {VARIANTS}, got {variant!r}")
        if not is_json_number(value):
            raise ValueError(f"dual_value: expected a number, got {value!r}")
        if gap is not None and not is_json_number(gap):
            raise ValueError(f"gap_vs_primal: expected a number or null, got {gap!r}")
        return cls(variant, DualVariables.from_json(payload.get("u")), float(value), gap)


def terminal_tensor(cost: CostSpec, ms: MarginalSequence, u: DualVariables) -> np.ndarray:
    """Top-level tensor T_n: cost minus the static positions, on the product grid.

    A new array, built on demand: no cascade calls it, since each reads T_n
    one block of rows at a time from the read-only cost tensor of _built.
    """
    u.check(ms)
    rows = math.prod(ms.sizes[:-1])
    return _terminal_rows(_built(cost, ms).top, ms, u, 0, rows).reshape(ms.sizes)


def _minus_u(top_values, u: DualVariables, index) -> np.ndarray:
    """top_values - u_2(x_2) - ... - u_n(x_n) as a new array, subtracted in that order.

    index[k] picks the atoms of x_{k+2} (an index array or a slice) and
    broadcasts against top_values; every reader of T_n subtracts through
    here, so T_n is the same to the bit wherever it is read.
    """
    out = top_values - u.values[0][index[0]]
    for t, idx in zip(u.values[1:], index[1:]):
        out -= t[idx]
    return out


def _terminal_rows(top, ms: MarginalSequence, u: DualVariables, lo: int, hi: int) -> np.ndarray:
    """Rows lo:hi of T_n's sections in x_n: one row per prefix (x_1..x_{n-1}) in row-major order."""
    *prefix_sizes, m_n = ms.sizes
    prefix = np.unravel_index(np.arange(lo, hi), prefix_sizes)[1:]  # the atoms of x_2..x_{n-1}
    index = [idx[:, None] for idx in prefix] + [slice(None)]
    return _minus_u(top.reshape(-1, m_n)[lo:hi], u, index)


BLOCK_VALUES = 32768  # section values per block of rows: 256 KB keeps the search in cache


class _Level:
    """The part of one envelope level that no u changes.

    Row r of the level's sections, tabulated on grid, is evaluated at t[r],
    the evaluation atom eval_atoms[r % len(eval_atoms)] clamped into the grid
    by envelope._clamp; split[r] is the first atom right of t[r], and at most
    the last one. kernel[c, j] = 1 / (y_j - y_c), and 0 at j == c; the rows
    of bars add +inf left of a split s (bars[m - s]) or -inf right of it
    (bars[2m - s]). All of them serve both hulls, because the upper hull of
    f is searched as the lower hull of -f.
    """

    def __init__(self, grid, eval_atoms, rows):
        m = grid.size
        t = _clamp(grid, eval_atoms)
        reps = rows // t.size
        self.grid = grid
        self.t = np.tile(t, reps)
        self.split = np.tile(np.minimum(np.searchsorted(grid, t, side="right"), m - 1), reps)
        kernel = grid[None, :] - grid[:, None]
        np.fill_diagonal(kernel, np.inf)
        self.kernel = np.divide(1.0, kernel, out=kernel)
        self.bars = np.lib.stride_tricks.sliding_window_view(
            np.concatenate([np.full(m, np.inf), np.zeros(m), np.full(m, -np.inf)]), m)


class _Built(NamedTuple):
    """The part of every cascade on one (cost, ms) that no u changes.

    top is the cost tensor, read-only; levels[i-1] is the _Level of the
    envelopes that build T_i.
    """

    top: np.ndarray
    levels: tuple


@functools.lru_cache(maxsize=1)
def _built(cost: CostSpec, ms: MarginalSequence) -> _Built:
    """The top tensor and every level of (cost, ms), built while the pair is the last one seen.

    The levels are built from the top one down, so an evaluation point
    outside its grid raises where the level loop would. CostSpec and
    MarginalSequence compare and hash by identity, and the cache's references
    keep the pair alive, so an entry is never served to another instance;
    their arrays are read-only, so it cannot go stale.
    """
    top = cost.tensor_on(ms)
    top.setflags(write=False)
    levels = [_Level(ms.grids[i], ms.grids[i - 1], math.prod(ms.sizes[:i]))
              for i in range(ms.n - 1, 0, -1)]
    return _Built(top, tuple(reversed(levels)))


def _envelope(section_rows, level: _Level, lower):
    """Envelope values of a level's section rows at the points of level.

    section_rows(lo, hi) gives rows lo:hi of the sections, tabulated on
    level.grid, and is read one block of rows at a time, so a level's
    sections exist one block at a time unless the caller holds them. The
    value at t of the lower (upper) hull is lam*f(y_a) + (1-lam)*f(y_b) for a
    supporting pair y_a <= t <= y_b of the hull, with lam*y_a + (1-lam)*y_b =
    t; the pair is returned for the supergradient. The pairs come from
    _supporting_pairs; the upper hull's from the lower hull of -f, whose
    slopes and chord values are the exact negations of f's.
    """
    rows, m = level.t.size, level.grid.size
    if m == 1:
        vals = section_rows(0, rows)[:, 0].copy()
        return vals, np.zeros(rows, np.intp), np.zeros(rows, np.intp), np.ones(rows)
    vals = np.empty(rows)
    left = np.empty(rows, dtype=np.intp)
    right = np.empty(rows, dtype=np.intp)
    lam = np.empty(rows)
    block = max(1, BLOCK_VALUES // m)
    for lo in range(0, rows, block):
        hi = min(lo + block, rows)
        rs = slice(lo, hi)
        f = section_rows(lo, hi)
        left[rs], right[rs], lam[rs] = _supporting_pairs(
            f if lower else -f, level.grid, level.t[rs], level.split[rs], level.kernel, level.bars)
        every = np.arange(hi - lo)
        vals[rs] = lam[rs] * f[every, left[rs]] + (1.0 - lam[rs]) * f[every, right[rs]]
    return vals, left, right, lam


def _supporting_pairs(f, y, t, split, kernel, bars):
    """Exact supporting pair (a, b) and weight lam of each row's lower hull at its t.

    Atoms before split[r] are the left points of row r (y <= t, except that
    the last atom is always a right point), the rest its right points. From
    a = the left point nearest t, b becomes the right point of least slope
    seen from a, then a the left point of greatest slope seen from b, and so
    on. No half-step raises the chord value at t. A row stops when a
    half-step returns the index it replaces: every point then lies on or
    above the line through (a, b), so the pair supports the hull at t. It
    also stops when its chord value did not drop over the last two
    half-steps; in exact arithmetic that only happens at such a pair, and it
    ends the search whatever the rounding. Each half-step costs O(m) per row
    still searching, and a handful of half-steps is typical. All rows are
    searched at once, with no loop over atoms. A right half-step scans only
    the columns from the least split of the live rows on, a left one only
    those before the greatest: every column left out is barred for every
    live row, so the first minimum or maximum, and the pair, are those of
    the whole row. The rows of a block of consecutive atoms share most of a
    window; rows that cycle through every split (a tiled level) scan all m.
    """
    rows, m = f.shape
    left = np.empty(rows, dtype=np.intp)
    right = np.empty(rows, dtype=np.intp)
    lam_out = np.empty(rows)
    live = np.arange(rows)  # the rows still searching
    a = split - 1
    b = np.full(rows, -1)
    w_back1 = np.full(rows, np.inf)  # chord value one half-step back
    w_back2 = np.full(rows, np.inf)  # and two half-steps back
    move_right = True
    while live.size:
        c = a if move_right else b  # slopes are seen from c
        cols = slice(split.min(), m) if move_right else slice(0, split.max())
        f_c = f[live, c]
        slopes = f[live, cols]
        slopes -= f_c[:, None]
        slopes *= kernel[c, cols]
        if move_right:
            slopes += bars[m - split, cols]
            new = slopes.argmin(axis=1) + cols.start
            moved = new != b
            b, f_a, f_b = new, f_c, f[live, new]
        else:
            slopes += bars[2 * m - split, cols]
            new = slopes.argmax(axis=1)
            moved = new != a
            a, f_a, f_b = new, f[live, new], f_c
        lam = (y[b] - t) / (y[b] - y[a])
        w = lam * f_a + (1.0 - lam) * f_b
        done = ~moved | (w >= w_back2)
        w_back2, w_back1 = w_back1, w
        move_right = not move_right
        if done.any():
            left[live[done]], right[live[done]], lam_out[live[done]] = a[done], b[done], lam[done]
            keep = ~done
            live, a, b, split, t = live[keep], a[keep], b[keep], split[keep], t[keep]
            w_back1, w_back2 = w_back1[keep], w_back2[keep]
    return left, right, lam_out


def cascade_down(variant: str, cost: CostSpec, ms: MarginalSequence, u: DualVariables) -> CascadeTensors:
    """Run the envelope recursion from the top level down to level 1.

    proposition and remark_a start from the terminal tensor; remark_b starts
    from the raw cost and subtracts u_{i+1} from each section right before
    the envelope at level i. For i = n-1, ..., 1 every one-dimensional section
    of T_{i+1} in its last coordinate (on the atoms of mu_{i+1}) is replaced
    by the value of its convex envelope (lower variants) or concave envelope
    (remark_a) at the matching atom of mu_i. The top level's sections are
    built one block of rows at a time from the read-only cost tensor, so T_n
    is never held whole. remark_b coincides with proposition at every u up
    to rounding: each remark_b level is T_i + sum_{j=2..i} u_j(x_j), because
    that sum is constant along every section of level i+1 and adding a
    constant commutes with the envelope. The two T_1, and so the two dual
    objectives, are the same.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    u.check(ms)
    stepwise = variant == "remark_b"
    top, geometry = _built(cost, ms)
    levels = [None] * (ms.n - 1)
    supports = [None] * (ms.n - 1)
    cur = top
    for i in range(ms.n - 1, 0, -1):  # build T_i from T_{i+1}
        sections = cur.reshape(-1, ms.sizes[i])
        if stepwise:
            def section_rows(lo, hi, sections=sections, t=u.values[i - 1]):
                return sections[lo:hi] - t
        elif cur is top:
            section_rows = functools.partial(_terminal_rows, top, ms, u)
        else:
            def section_rows(lo, hi, sections=sections):
                return sections[lo:hi]
        vals, lft, rgt, lam = _envelope(section_rows, geometry[i - 1], variant in LOWER_VARIANTS)
        cur = vals.reshape(ms.sizes[:i])
        levels[i - 1] = cur
        supports[i - 1] = (lft, rgt, lam)
    return CascadeTensors(tuple(levels), tuple(supports))


def dual_objective(variant: str, cost: CostSpec, ms: MarginalSequence, u: DualVariables) -> float:
    """The value of dual_value_and_subgradient.

    Lower bound of the transport value for the lower variants, upper bound of
    the sup problem for remark_a.
    """
    return dual_value_and_subgradient(variant, cost, ms, u)[0]


def _evaluate(variant: str, cost: CostSpec, ms: MarginalSequence, u: DualVariables):
    """dual_objective's value and the cascade it reads, with no supergradient."""
    casc = cascade_down(variant, cost, ms, u)
    value = float(np.dot(ms[0].weights, casc.levels[0]))
    for i, t in enumerate(u.values, start=1):
        value += float(np.dot(ms[i].weights, t))
    return value, casc


def dual_value_and_subgradient(variant: str, cost: CostSpec, ms: MarginalSequence, u: DualVariables):
    """E_{mu_1}[T_1] + sum_i E_{mu_i}[u_i] and one supergradient table per u_i, in one pass.

    The mu_1 weights are pushed down level by level through the supporting
    two-point combinations; each u_{i+1} slot receives its marginal weight
    minus the mass that arrives on it at level i+1. Every transition splits a
    prefix's mass into weights summing to one, so later levels leave that
    marginal unchanged and the same push-down serves all three variants. Sums
    to zero per u_i by conservation.
    """
    value, casc = _evaluate(variant, cost, ms, u)
    grads = []
    mass = ms[0].weights
    for i in range(1, ms.n):  # transition: level i prefixes -> level i+1
        lft, rgt, lam = casc.supports[i - 1]
        m_next = ms.sizes[i]
        to_left, to_right = mass * lam, mass * (1.0 - lam)
        arriving = np.bincount(lft, to_left, m_next) + np.bincount(rgt, to_right, m_next)
        grads.append(ms[i].weights - arriving)
        if i < ms.n - 1:
            base = np.arange(mass.size) * m_next
            mass = (np.bincount(base + lft, to_left, mass.size * m_next)
                    + np.bincount(base + rgt, to_right, mass.size * m_next))
    return value, grads


@dataclass(frozen=True)
class SubhedgeReport:
    """Per-atom conditional slack of the candidate sub-hedge under a coupling."""

    atoms: np.ndarray
    slacks: np.ndarray
    ok: bool

    @property
    def min_slack(self) -> float:
        return float(self.slacks.min()) if self.slacks.size else 0.0

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "atoms": self.atoms.tolist(),
            "slacks": self.slacks.tolist(),
            "min_slack": self.min_slack,
        }


def verify_subhedge(cost: CostSpec, ms: MarginalSequence, u: DualVariables,
                    coupling: Coupling, check: Optional[CouplingReport] = None) -> SubhedgeReport:
    """Check that the cascade strategy sub-hedges c conditionally on the start.

    For every first-period atom with positive mass the conditional expectation
    under the coupling of T_1(S_1) + sum u_i(S_i) must not exceed the
    conditional expectation of the cost, up to SUBHEDGE_TOL times
    max(1, max |T_n|); equivalently T_1 must not exceed the conditional
    expectation of the terminal tensor T_n. The coupling must pass marginal
    and martingale validation first, else ValueError; check is its
    validate_coupling report when the caller has one, so a coupling checked
    once serves several positions. The expectations sum over its rows, so
    T_n is read on those rows alone, and for max |T_n| one block of rows at
    a time, each value the same to the bit as terminal_tensor's.
    """
    if check is None:
        check = validate_coupling(coupling, ms)
    if not check.ok:
        raise ValueError(f"coupling failed validation: {check.summary()}")
    return _subhedge(cost, ms, u, coupling)


def _subhedge(cost: CostSpec, ms: MarginalSequence, u: DualVariables, coupling: Coupling,
              t1: Optional[np.ndarray] = None) -> SubhedgeReport:
    """verify_subhedge on a coupling that passed validation.

    t1 is the proposition cascade's T_1 at u when the caller has run it
    (certify has, for its proposition certificate); None runs it here.
    """
    if t1 is None:
        t1 = cascade_down("proposition", cost, ms, u).levels[0]
    top = _built(cost, ms).top
    atom, m_1 = coupling.atoms(), ms.sizes[0]
    start_mass = np.bincount(atom[0], coupling.mass, m_1)
    mass = np.where(start_mass > 0, start_mass, 1.0)
    keep = ms[0].weights > 0
    t_n = _minus_u(top[atom], u, atom[1:])  # T_n on the coupling's rows
    slacks = (np.bincount(atom[0], coupling.mass * t_n, m_1) / mass - t1)[keep]
    rows, block = math.prod(ms.sizes[:-1]), max(1, BLOCK_VALUES // ms.sizes[-1])
    scale = max(float(np.abs(_terminal_rows(top, ms, u, lo, min(lo + block, rows))).max())
                for lo in range(0, rows, block))
    tol = SUBHEDGE_TOL * max(1.0, scale)
    return SubhedgeReport(ms[0].atoms[keep], slacks, bool(np.all(slacks >= -tol)))
