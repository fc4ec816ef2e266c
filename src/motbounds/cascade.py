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

Each level evaluates every section's envelope at once: an exact alternating
search finds the pair of atoms whose chord supports the hull at the
evaluation point, at O(m) per section and round and a few rounds per section.

The dual objective is the mu_1-expectation of the bottom level plus the
marginal expectations of the u_i. It is concave (proposition / remark_b) or
convex (remark_a) and piecewise affine in the u tables; the supergradient is
assembled by pushing the mu_1 weights down through the two-point envelope
representations and depositing the arriving mass on the touched u slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .envelope import CLAMP_REL, GridFunction, OutOfDomainError
from .measures import MarginalSequence

VARIANTS = ("proposition", "remark_a", "remark_b")
LOWER_VARIANTS = ("proposition", "remark_b")

COST_FORMS = ("squared_increment", "abs_increment", "terminal_call", "basket", "custom_table")

SUBHEDGE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CostSpec:
    """An n-variate cost: a named closed form or an explicit tensor.

    Named forms: squared_increment sum (x_{i+1}-x_i)^2, abs_increment
    sum |x_{i+1}-x_i|, terminal_call (x_n-K)_+, basket (mean(x)-K)_+.
    custom_table takes a tensor on the product grid.
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
        if self.form in ("terminal_call", "basket") and self.strike is None:
            raise ValueError(f"cost form {self.form!r} needs a strike")
        if self.form == "custom_table":
            if self.table is None:
                raise ValueError("custom_table needs a value tensor")
            table = np.asarray(self.table, dtype=float)
            if table.ndim != self.n:
                raise ValueError(f"table has {table.ndim} axes, expected {self.n}")
            object.__setattr__(self, "table", table)

    def tensor_on(self, ms: MarginalSequence) -> np.ndarray:
        """Cost values on the full product grid, shape = marginal sizes."""
        if ms.n != self.n:
            raise ValueError(f"cost arity {self.n} vs {ms.n} marginals")
        grids = np.meshgrid(*ms.grids, indexing="ij", sparse=True)
        if self.form == "squared_increment":
            out = sum((grids[i + 1] - grids[i]) ** 2 for i in range(self.n - 1))
        elif self.form == "abs_increment":
            out = sum(np.abs(grids[i + 1] - grids[i]) for i in range(self.n - 1))
        elif self.form == "terminal_call":
            out = np.maximum(grids[-1] - self.strike, 0.0)
        elif self.form == "basket":
            out = np.maximum(sum(grids) / self.n - self.strike, 0.0)
        else:  # custom_table
            if self.table.shape != ms.sizes:
                raise ValueError(
                    f"table shape {self.table.shape} does not match grids {ms.sizes}"
                )
            return self.table.copy()
        return np.broadcast_to(out, ms.sizes).copy()


@dataclass(frozen=True, eq=False)
class DualVariables:
    """Static dual positions u_2, ..., u_n, tabulated on the marginal atoms."""

    funcs: tuple  # GridFunction for mu_2, ..., mu_n

    def __init__(self, funcs: Sequence[GridFunction]):
        object.__setattr__(self, "funcs", tuple(funcs))

    @classmethod
    def zeros(cls, ms: MarginalSequence) -> "DualVariables":
        return cls(
            [GridFunction(m.atoms, np.zeros(len(m))) for m in ms.marginals[1:]]
        )

    @classmethod
    def from_tables(cls, ms: MarginalSequence, tables: Sequence[np.ndarray]) -> "DualVariables":
        if len(tables) != ms.n - 1:
            raise ValueError(f"expected {ms.n - 1} tables, got {len(tables)}")
        return cls(
            [GridFunction(m.atoms, t) for m, t in zip(ms.marginals[1:], tables)]
        )

    def tables(self) -> list:
        return [f.values.copy() for f in self.funcs]

    def validate_against(self, ms: MarginalSequence) -> None:
        if len(self.funcs) != ms.n - 1:
            raise ValueError(
                f"expected {ms.n - 1} dual functions, got {len(self.funcs)}"
            )
        for i, f in enumerate(self.funcs, start=2):
            if not np.array_equal(f.grid, ms[i - 1].atoms):
                raise ValueError(f"grid of u_{i} does not match the atoms of marginal {i}")

    def as_json(self) -> list:
        return [{"grid": f.grid.tolist(), "values": f.values.tolist()} for f in self.funcs]

    @classmethod
    def from_json(cls, payload: list) -> "DualVariables":
        return cls([GridFunction(np.asarray(d["grid"]), np.asarray(d["values"])) for d in payload])


@dataclass(frozen=True, eq=False)
class CascadeTensors:
    """All cascade levels T_1, ..., T_n plus the two-point envelope supports.

    levels[i-1] holds T_i on the prefix product grid of mu_1 x ... x mu_i.
    supports[i-1] = (left, right, lam) arrays over level-i prefixes: the
    atom indices of mu_{i+1} supporting the envelope value and its convex
    combination weight (artifact data used by the supergradient and the
    hedge check).
    """

    variant: str
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
        return cls(
            payload["variant"],
            DualVariables.from_json(payload["u"]),
            float(payload["dual_value"]),
            payload.get("gap_vs_primal"),
        )


def terminal_tensor(cost: CostSpec, ms: MarginalSequence, u: DualVariables) -> np.ndarray:
    """Top-level tensor: cost minus the static positions, on the product grid."""
    u.validate_against(ms)
    out = cost.tensor_on(ms)
    for i, f in enumerate(u.funcs, start=1):  # u over mu_{i+1}, axis i
        shape = [1] * ms.n
        shape[i] = len(f)
        out -= f.values.reshape(shape)
    return out


BLOCK_VALUES = 32768  # section values per block of rows: 256 KB keeps the search in cache


def _batched_envelope(sections, sec_grid, eval_atoms, lower):
    """Envelope value of every section row at one point per row.

    sections has shape (rows, m) with row r tabulating a function on sec_grid;
    row r is evaluated at t = eval_atoms[r % len(eval_atoms)] (rows enumerate
    prefixes in row-major order, so the last prefix coordinate cycles
    fastest). The value at t of the lower (upper) hull is lam*f(y_a) +
    (1-lam)*f(y_b) for a supporting pair y_a <= t <= y_b of the hull, with
    lam*y_a + (1-lam)*y_b = t; the pair is returned for the supergradient.
    The pairs come from _supporting_pairs, one block of rows at a time.
    """
    rows, m = sections.shape
    y = sec_grid
    t = np.asarray(eval_atoms, dtype=float)
    eps = CLAMP_REL * (y[-1] - y[0])
    outside = (t < y[0] - eps) | (t > y[-1] + eps)
    if outside.any():
        raise OutOfDomainError(
            f"evaluation point {float(t[outside][0])!r} outside the next support "
            f"[{y[0]!r}, {y[-1]!r}]; support nesting violated"
        )
    t = np.clip(t, y[0], y[-1])
    if m == 1:
        return sections[:, 0].copy(), np.zeros(rows, np.intp), np.zeros(rows, np.intp), np.ones(rows)
    reps = rows // t.size
    split = np.tile(np.minimum(np.searchsorted(y, t, side="right"), m - 1), reps)
    t = np.tile(t, reps)
    sign = 1.0 if lower else -1.0
    # inv_run[c, j] = sign / (y_j - y_c), and 0 at j == c; the rows of bars
    # add +inf left of a split s (bars[m - s]) or -inf right of it (bars[2m - s])
    inv_run = y[None, :] - y[:, None]
    np.fill_diagonal(inv_run, np.inf)
    np.divide(sign, inv_run, out=inv_run)
    bars = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([np.full(m, np.inf), np.zeros(m), np.full(m, -np.inf)]), m)
    left = np.empty(rows, dtype=np.intp)
    right = np.empty(rows, dtype=np.intp)
    lam = np.empty(rows)
    block = max(1, BLOCK_VALUES // m)
    for lo in range(0, rows, block):
        rs = slice(lo, lo + block)
        left[rs], right[rs], lam[rs] = _supporting_pairs(
            sections[rs], y, t[rs], split[rs], inv_run, bars, sign)
    every = np.arange(rows)
    vals = lam * sections[every, left] + (1.0 - lam) * sections[every, right]
    return vals, left, right, lam


def _supporting_pairs(f, y, t, split, inv_run, bars, sign):
    """Exact supporting pair (a, b) and weight lam of each row's hull at its t.

    Atoms before split[r] are the left points of row r (y <= t, except that
    the last atom is always a right point), the rest its right points. From
    a = the left point nearest t, b becomes the right point of least slope
    seen from a, then a the left point of greatest slope seen from b, and so
    on; sign = -1 flips the slopes for the upper hull. No half-step raises
    the chord value at t. A row stops when a half-step returns the index it
    replaces: every point then lies on or above the line through (a, b), so
    the pair supports the hull at t. It also stops when its chord value did
    not drop over the last two half-steps; in exact arithmetic that only
    happens at such a pair, and it ends the search whatever the rounding.
    Each half-step costs O(m) per row still searching, and a handful of
    half-steps is typical. All rows are searched at once, with no loop over
    atoms.
    """
    rows, m = f.shape
    left = np.empty(rows, dtype=np.intp)
    right = np.empty(rows, dtype=np.intp)
    lam_out = np.empty(rows)
    live = np.arange(rows)  # the rows still searching
    a = split - 1
    b = np.full(rows, -1)
    w_back1 = np.full(rows, np.inf)  # signed chord value one half-step back
    w_back2 = np.full(rows, np.inf)  # and two half-steps back
    move_right = True
    while live.size:
        c = a if move_right else b  # slopes are seen from c
        f_c = f[live, c]
        slopes = f[live]
        slopes -= f_c[:, None]
        slopes *= inv_run.take(c, axis=0)
        if move_right:
            slopes += bars[m - split]
            new = slopes.argmin(axis=1)
            moved = new != b
            b, f_a, f_b = new, f_c, f[live, new]
        else:
            slopes += bars[2 * m - split]
            new = slopes.argmax(axis=1)
            moved = new != a
            a, f_a, f_b = new, f[live, new], f_c
        lam = (y[b] - t) / (y[b] - y[a])
        w = sign * (lam * f_a + (1.0 - lam) * f_b)
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
    (remark_a) at the matching atom of mu_i. remark_b coincides with
    proposition at every u up to rounding: each remark_b level is
    T_i + sum_{j=2..i} u_j(x_j), because that sum is constant along every
    section of level i+1 and adding a constant commutes with the envelope.
    The two T_1, and so the two dual objectives, are the same.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    stepwise = variant == "remark_b"
    if stepwise:
        u.validate_against(ms)
        cur = cost.tensor_on(ms)
    else:
        cur = terminal_tensor(cost, ms, u)
    levels = [None] * ms.n
    supports = [None] * (ms.n - 1)
    levels[ms.n - 1] = cur
    for i in range(ms.n - 1, 0, -1):  # build T_i from T_{i+1}
        sections = cur.reshape(-1, ms.sizes[i])
        if stepwise:
            sections = sections - u.funcs[i - 1].values[None, :]
        vals, lft, rgt, lam = _batched_envelope(
            sections, ms.grids[i], ms.grids[i - 1], lower=variant != "remark_a"
        )
        cur = vals.reshape(ms.sizes[:i])
        levels[i - 1] = cur
        supports[i - 1] = (lft, rgt, lam)
    return CascadeTensors(variant, tuple(levels), tuple(supports))


def dual_objective(variant: str, cost: CostSpec, ms: MarginalSequence, u: DualVariables) -> float:
    """E_{mu_1}[T_1] plus the marginal expectations of the u_i.

    Lower bound of the transport value for the lower variants, upper bound of
    the sup problem for remark_a.
    """
    casc = cascade_down(variant, cost, ms, u)
    return _objective_from_cascade(casc, ms, u)


def _objective_from_cascade(casc: CascadeTensors, ms: MarginalSequence, u: DualVariables) -> float:
    value = float(np.dot(ms[0].weights, casc.levels[0]))
    for i, f in enumerate(u.funcs, start=1):
        value += float(np.dot(ms[i].weights, f.values))
    return value


def dual_value_and_subgradient(variant: str, cost: CostSpec, ms: MarginalSequence, u: DualVariables):
    """Objective value and one supergradient table per u_i, in one pass.

    The mu_1 weights are pushed down level by level through the supporting
    two-point combinations; each u_{i+1} slot receives its marginal weight
    minus the mass that arrives on it at level i+1. Every transition splits a
    prefix's mass into weights summing to one, so later levels leave that
    marginal unchanged and the same push-down serves all three variants. Sums
    to zero per u_i by conservation.
    """
    casc = cascade_down(variant, cost, ms, u)
    value = _objective_from_cascade(casc, ms, u)
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


def dual_subgradient(variant: str, cost: CostSpec, ms: MarginalSequence, u: DualVariables) -> list:
    """Per-atom supergradient tables of the dual objective, one per u_i."""
    return dual_value_and_subgradient(variant, cost, ms, u)[1]


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


def verify_subhedge(cost: CostSpec, ms: MarginalSequence, u: DualVariables, coupling) -> SubhedgeReport:
    """Check that the cascade strategy sub-hedges c conditionally on the start.

    For every first-period atom with positive mass the conditional expectation
    under the coupling of T_1(S_1) + sum u_i(S_i) must not exceed the
    conditional expectation of the cost, up to 1e-9; equivalently T_1 must not
    exceed the conditional expectation of the terminal tensor T_n. The coupling
    must pass marginal and martingale validation first.
    """
    from .primal import validate_coupling  # deferred to avoid a module cycle

    q = np.asarray(getattr(coupling, "q", coupling), dtype=float)
    report = validate_coupling(q, ms)
    if not report.ok:
        raise ValueError(f"coupling failed validation: {report.summary()}")
    casc = cascade_down("proposition", cost, ms, u)
    t1, t_n = casc.levels[0], casc.levels[-1]
    tail_axes = tuple(range(1, ms.n))
    start_mass = q.sum(axis=tail_axes)
    mass = np.where(start_mass > 0, start_mass, 1.0)
    keep = ms[0].weights > 0
    slacks = ((q * t_n).sum(axis=tail_axes) / mass - t1)[keep]
    return SubhedgeReport(ms[0].atoms[keep], slacks, bool(np.all(slacks >= -SUBHEDGE_TOL)))
