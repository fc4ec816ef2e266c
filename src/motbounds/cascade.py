"""Inductive envelope cascades, the dual objective, and its supergradient.

Starting from the terminal tensor c(x_1..x_n) - sum_i u_i(x_i), each level
replaces the dependence on the last coordinate by the value of its convex
(lower-bound problem) or concave (upper-bound problem) envelope at the
previous coordinate. One loop, _cascades, serves three variants, which
differ only in where u is subtracted and which way the hull faces:

* "proposition": subtract all u_i upfront, then envelope level by level;
* "remark_a":    same recursion with concave envelopes (upper bound);
* "remark_b":    keep the raw cost at the top and subtract each u_{i+1}
                 from the section right before the envelope at level i;
                 it gives the same values as "proposition" (see cascade_down).

Each level evaluates its sections one block of rows at a time: an exact
alternating search finds the pair of atoms whose chord supports the lower
hull at the evaluation point, at O(m) per section and round and a few rounds
per section. The search sees lower hulls only: remark_a's top rows are
negated where they are built, since the concave envelope of f is minus the
convex envelope of -f, and its levels stay negated until its CascadeTensors.
The top level's blocks are built from the cost tensor as they are searched,
so no cascade holds T_n whole. The block loop returns envelopes only: each
level's values and supporting pairs, and nothing else read off its rows. A
stack of positions (variant, u) is evaluated together, one search per block
for all (see _cascades); cascade_down is the stack of one. Each stack writes
a block's rows, and the search its slopes, into one float buffer per thread
(_section_buffer), grown on demand and reused by every block, level and
evaluation on that thread; nothing in it outlives its block, and a search
holds at most one block-sized temporary at a time.

Only u changes between the evaluations of one instance. What does not
depend on it is built once per (cost, ms) pair, in one eager call to _built:
the cost tensor, read-only, and its least and greatest entry; every level's
clamped and tiled evaluation points, their splits, and the search's slope
kernel and bar rows, one kernel for both hulls. Every cascade reads the
levels, so none is deferred. A one-entry cache keeps them for the last pair seen: the read-only cost
tensor, the only array of prod m_i values on the dual path, plus, per level
i, one m_{i+1} x m_{i+1} kernel and two entries per prefix. The arrays of
the marginals and of a custom table are read-only, so an entry cannot go
stale.

The dual objective is the mu_1-expectation of the bottom level plus the
marginal expectations of the u_i. It is concave (proposition / remark_b) or
convex (remark_a) and piecewise affine in the u tables; the supergradient is
assembled by pushing the mu_1 weights down through the two-point envelope
representations and depositing the arriving mass on the touched u slots.
dual_value_and_subgradient computes both, dual_objective the value alone.

DualVariables.check is the one check of a position: the count of its tables,
their shapes, grids equal to the atoms, and finite entries. from_tables and
zeros run it, and so does every cascade before it reads a table
(_cascades), so a non-finite table is refused however the position was
built. DualCertificate.from_dict reads a certificate by the input rules in
measures, as cli.parse_instance reads an instance. This module reads no LP
code: CostSpec comes from measures, and the sub-hedge check, which validates
an LP coupling, lives in certification, the one module that imports both
this one and primal.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .envelope import _clamp
from .measures import (CostSpec, InputError, MarginalSequence, json_text, read_number,
                       read_numbers, read_object)

VARIANTS = ("proposition", "remark_a", "remark_b")
LOWER_VARIANTS = ("proposition", "remark_b")
DEFAULT_TARGET_GAP = 1e-4  # relative; the default of ascend and certify alike


@dataclass(frozen=True, eq=False)
class DualVariables:
    """Static dual positions u_2, ..., u_n, tabulated on the marginal atoms.

    values[i-2] is the float table of u_i on grids[i-2], the atoms of mu_i.
    from_tables and zeros run check; a position from DualCertificate.from_dict
    or the constructor is checked by the first cascade that reads it.
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


@dataclass(frozen=True, eq=False)
class CascadeTensors:
    """The cascade levels T_1, ..., T_{n-1} plus the two-point envelope supports.

    levels[i-1] holds T_i on the prefix product grid of mu_1 x ... x mu_i.
    The top level T_n is not held: cascades read it a block of rows at a
    time, and remark_b's top is the instance's cost tensor, CostSpec.tensor_on.
    supports[i-1] = (left, right, lam) arrays over level-i prefixes: the
    atom indices of mu_{i+1} supporting the envelope value and its convex
    combination weight (artifact data used by the supergradient and the
    hedge check).
    """

    levels: tuple
    supports: tuple = field(repr=False, default=())


@dataclass(frozen=True, eq=False)
class DualCertificate:
    """Dual variables with their attained objective value, and its relative_gap to an LP side."""

    variant: str
    dual_variables: DualVariables
    dual_value: float
    gap_vs_primal: Optional[float] = None

    def as_dict(self) -> dict:
        u = self.dual_variables
        out = {
            "variant": self.variant,
            "u": [{"grid": g.tolist(), "values": t.tolist()} for g, t in zip(u.grids, u.values)],
            "dual_value": self.dual_value,
        }
        if self.gap_vs_primal is not None:
            out["gap_vs_primal"] = self.gap_vs_primal
        return out

    @classmethod
    def from_dict(cls, payload) -> "DualCertificate":
        """The inverse of as_dict, by the input rules in measures: a ValueError
        (InputError) names the field of a non-object, an unknown or missing key,
        an unknown variant, a non-number, or a non-finite dual_value or
        gap_vs_primal; gap_vs_primal may be null."""
        read_object(payload, "", ["dual_value", "gap_vs_primal", "u", "variant"],
                    required=["dual_value", "u", "variant"])
        variant, u, gap = payload["variant"], payload["u"], payload.get("gap_vs_primal")
        if variant not in VARIANTS:
            raise InputError("variant", f"expected one of {VARIANTS}, got {json_text(variant)}")
        value = read_number(payload["dual_value"], "dual_value", finite=True)
        gap = None if gap is None else read_number(gap, "gap_vs_primal", finite=True)
        if not isinstance(u, list) or not all(isinstance(d, dict) for d in u):
            raise InputError("u", "expected a list of {grid, values} objects")
        for k, d in enumerate(u):
            read_object(d, f"u[{k}]", ["grid", "values"], required=["grid", "values"])
        grids = tuple(read_numbers(d["grid"], f"u[{k}].grid") for k, d in enumerate(u))
        tables = tuple(read_numbers(d["values"], f"u[{k}].values") for k, d in enumerate(u))
        return cls(variant, DualVariables(grids, tables), value, gap)


def relative_gap(value: float, reference: float) -> float:
    """|value - reference| / (1 + |reference|)."""
    return abs(value - reference) / (1.0 + abs(reference))


def _check_target_gap(target_gap) -> None:
    """ValueError unless target_gap is a finite positive number (a bool is refused)."""
    if isinstance(target_gap, bool) or not 0 < target_gap < np.inf:
        raise ValueError("target_gap must be finite and positive")


def _project_zero_mean(tables, ms: MarginalSequence) -> None:
    """Gauge fixing: remove the weighted mean of each table in place.

    The objective is invariant under constant shifts of any u_i, so the
    projection changes nothing but pins the iterates and certify's tables.
    """
    for i, t in enumerate(tables, start=1):
        t -= np.dot(ms[i].weights, t)


def _minus_u(top_values, u: DualVariables, index, out=None) -> np.ndarray:
    """top_values - u_2(x_2) - ... - u_n(x_n), subtracted in that order, into out or a new array.

    index[k] picks the atoms of x_{k+2} (an index array or a slice) and
    broadcasts against top_values; every reader of T_n subtracts through
    here, so T_n is the same to the bit wherever it is read.
    """
    out = np.subtract(top_values, u.values[0][index[0]], out=out)
    for t, idx in zip(u.values[1:], index[1:]):
        out -= t[idx]
    return out


def _terminal_rows(top, ms: MarginalSequence, u: DualVariables, lo: int, hi: int,
                   out=None) -> np.ndarray:
    """Rows lo:hi of T_n's sections in x_n: one row per prefix (x_1..x_{n-1}) in row-major order.

    They are written into out, a (hi - lo) x m_n float array, when it is given.
    """
    *prefix_sizes, m_n = ms.sizes
    prefix = np.unravel_index(np.arange(lo, hi), prefix_sizes)[1:]  # the atoms of x_2..x_{n-1}
    index = [idx[:, None] for idx in prefix] + [slice(None)]
    return _minus_u(top.reshape(-1, m_n)[lo:hi], u, index, out)


# section values per block of rows: 256 KB keeps the search in cache. It also sizes the
# ascent's metric (ascent._run): dense up to BLOCK_VALUES entries, else thin factors of at
# most BLOCK_VALUES // (sum m_i) rows
BLOCK_VALUES = 32768

_THREAD = threading.local()  # rows: this thread's section buffer, see _section_buffer


def _section_buffer(size: int) -> np.ndarray:
    """size float values of this thread's section buffer, grown when too small.

    The buffer is kept between calls, so the block loop of _envelope
    reuses one array instead of mapping fresh memory for every block.
    """
    buf = getattr(_THREAD, "rows", None)
    if buf is None or buf.size < size:
        buf = _THREAD.rows = np.empty(size)
    return buf[:size]


class _Level:
    """The part of one envelope level that no u changes.

    Row r of the level's sections, tabulated on grid, is evaluated at t[r],
    the evaluation atom eval_atoms[r % len(eval_atoms)] clamped into the grid
    by envelope._clamp; split[r] is the first atom right of t[r], and at most
    the last one. kernel[c, j] = 1 / (y_j - y_c), and 0 at j == c; the rows
    of bars add +inf left of a split s (bars[m - s]) or -inf right of it
    (bars[2m - s]).
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
    envelopes that build T_i; lo and hi are min c and max c over the product
    grid, T_n's extremes at u = 0. hi - lo, the cost's spread, is the length
    scale of the reference-free ascent's step; scale, max |c| (max |T_n| at
    u = 0), is the sub-hedge check's tolerance scale.
    """

    top: np.ndarray
    levels: tuple
    lo: float
    hi: float

    @property
    def scale(self) -> float:
        return max(self.hi, -self.lo)


@functools.lru_cache(maxsize=1)
def _built(cost: CostSpec, ms: MarginalSequence) -> _Built:
    """The _Built of (cost, ms), built while the pair is the last one seen.

    lo and hi are reduced here once per instance, for every ascent and sub-hedge.

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
    # min c and max c with no temporary of top's size
    return _Built(top, tuple(reversed(levels)), float(top.min()), float(top.max()))


def _envelope(section_rows, level: _Level):
    """Lower-hull values of k stacks of section rows at the points of level.

    section_rows[p](lo, hi, out) writes rows lo:hi of stack p's sections,
    tabulated on level.grid, into out, a (hi - lo) x m part of this thread's
    section buffer, so a level's sections exist one block at a time unless
    the caller holds them. The value at t is lam*f(y_a) + (1-lam)*f(y_b) for
    a supporting pair y_a <= t <= y_b of the hull, with lam*y_a +
    (1-lam)*y_b = t; the pair is returned for the supergradient. A block's
    rows of every stack go to one _supporting_pairs call, which searches
    each row on its own, as in a stack of one. Returns vals, left, right and
    lam, of shape (k, rows).
    """
    k, rows, m = len(section_rows), level.t.size, level.grid.size
    vals = np.empty((k, rows))
    left = np.empty((k, rows), dtype=np.intp)
    right = np.empty((k, rows), dtype=np.intp)
    lam = np.empty((k, rows))
    block = max(1, BLOCK_VALUES // m)
    size = k * min(block, rows) * m
    buf = _section_buffer(2 * size)
    sections, spare = buf[:size], buf[size:]  # a block's rows, and its search's slopes
    for lo in range(0, rows, block):
        hi = min(lo + block, rows)
        rs = slice(lo, hi)
        f = sections[:k * (hi - lo) * m].reshape(k, hi - lo, m)
        for rows_of, out in zip(section_rows, f):
            rows_of(lo, hi, out)
        f = f.reshape(-1, m)
        t, split = (np.concatenate([x[rs]] * k) for x in (level.t, level.split))  # np.tile is slower
        found = _supporting_pairs(f, level.grid, t, split, level.kernel, level.bars, spare)
        for out, x in zip((left, right, lam, vals), found):
            out[:, rs] = x.reshape(k, -1)
    return vals, left, right, lam


def _supporting_pairs(f, y, t, split, kernel, bars, spare):
    """Exact supporting pair (a, b), weight lam and value of each row's lower hull at its t.

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

    A half-step writes its slopes into spare, at least f.size floats, so it
    holds at most one block-sized temporary at a time (the gathered rows of
    f, of the kernel or of the bars): with two, the heap top they share can
    be handed back to the system after each half-step and faulted in again
    by the next. A row's value is its last chord value,
    lam*f(y_a) + (1-lam)*f(y_b).
    """
    rows, m = f.shape
    if m == 1:  # the one atom is the hull: the pair (0, 0) with lam 1
        return [np.zeros(rows, np.intp), np.zeros(rows, np.intp), np.ones(rows), f[:, 0].copy()]
    left = np.empty(rows, dtype=np.intp)
    right = np.empty(rows, dtype=np.intp)
    lam_out = np.empty(rows)
    value = np.empty(rows)
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
        slopes = spare[:live.size * (cols.stop - cols.start)].reshape(live.size, -1)
        # while every row searches, its rows are read without a gather
        slopes[...] = f[live, cols] if live.size < rows else f[:, cols]
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
            out = live[done]
            left[out], right[out], lam_out[out], value[out] = a[done], b[done], lam[done], w[done]
            keep = ~done
            live, a, b, split, t = live[keep], a[keep], b[keep], split[keep], t[keep]
            w_back1, w_back2 = w_back1[keep], w_back2[keep]
    return [left, right, lam_out, value]


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
    objectives, are the same. This is _cascades on one position.
    """
    return _cascades(cost, ms, [(variant, u)])[0]


def _cascades(cost: CostSpec, ms: MarginalSequence, positions) -> list:
    """cascade_down at every (variant, u) of positions, in one pass over the levels.

    Each block of each level's rows is searched for every position at once
    (see _envelope), and every position gets the levels and supports that
    cascade_down gives it alone, to the bit. Each position writes its rows
    into the section buffer, a held level by a copy; remark_a's are negated,
    and its CascadeTensors negates its levels back. Returns the positions'
    CascadeTensors, in order.
    """
    for variant, _ in positions:
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    for u in dict.fromkeys(u for _, u in positions):  # each u once, by identity
        u.check(ms)
    built = _built(cost, ms)
    top, geometry = built.top, built.levels
    levels = [[None] * (ms.n - 1) for _ in positions]
    supports = [[None] * (ms.n - 1) for _ in positions]
    current = [top] * len(positions)
    for i in range(ms.n - 1, 0, -1):  # build T_i from T_{i+1}
        section_rows = []
        for (variant, u), cur in zip(positions, current):
            sections = cur.reshape(-1, ms.sizes[i])
            if variant == "remark_b":
                def rows_of(lo, hi, out, sections=sections, t=u.values[i - 1]):
                    np.subtract(sections[lo:hi], t, out=out)
            elif cur is not top:
                def rows_of(lo, hi, out, sections=sections):
                    np.copyto(out, sections[lo:hi])
            elif variant == "remark_a":
                def rows_of(lo, hi, out, u=u):
                    np.negative(_terminal_rows(top, ms, u, lo, hi, out), out=out)
            else:
                rows_of = functools.partial(_terminal_rows, top, ms, u)
            section_rows.append(rows_of)
        vals, lft, rgt, lam = _envelope(section_rows, geometry[i - 1])
        for p in range(len(positions)):
            current[p] = levels[p][i - 1] = vals[p].reshape(ms.sizes[:i])
            supports[p][i - 1] = (lft[p], rgt[p], lam[p])
    return [CascadeTensors(tuple(-x for x in lv) if v == "remark_a" else tuple(lv), tuple(sp))
            for (v, _), lv, sp in zip(positions, levels, supports)]


def dual_objective(variant: str, cost: CostSpec, ms: MarginalSequence, u: DualVariables) -> float:
    """The value of dual_value_and_subgradient.

    Lower bound of the transport value for the lower variants, upper bound of
    the sup problem for remark_a.
    """
    return _objective(ms, u, cascade_down(variant, cost, ms, u))


def _objective(ms: MarginalSequence, u: DualVariables, casc: CascadeTensors) -> float:
    """E_{mu_1}[T_1] + sum_i E_{mu_i}[u_i], from casc, the cascade at u."""
    value = float(np.dot(ms[0].weights, casc.levels[0]))
    for i, t in enumerate(u.values, start=1):
        value += float(np.dot(ms[i].weights, t))
    return value


def dual_value_and_subgradient(variant: str, cost: CostSpec, ms: MarginalSequence, u: DualVariables):
    """E_{mu_1}[T_1] + sum_i E_{mu_i}[u_i] and one supergradient table per u_i, in one pass.

    The mu_1 weights are pushed down level by level through the supporting
    two-point combinations; each u_{i+1} slot receives its marginal weight
    minus the mass that arrives on it at level i+1. Every transition splits a
    prefix's mass into weights summing to one, so later levels leave that
    marginal unchanged and the same push-down serves all three variants. Sums
    to zero per u_i by conservation.
    """
    casc = cascade_down(variant, cost, ms, u)
    value = _objective(ms, u, casc)
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
