"""Dual positions, cascade recursion, batched envelope, dual value, supergradient, sub-hedge."""

import json
import re
import threading
import tracemalloc

import numpy as np
import pytest

import motbounds.ascent as ascent_module
import motbounds.cascade as cascade_module
from motbounds import (
    AscentConfig,
    CascadeTensors,
    CostSpec,
    Coupling,
    DiscreteMeasure,
    DualCertificate,
    DualVariables,
    GridFunction,
    MarginalSequence,
    NonFiniteCostError,
    OutOfDomainError,
    ascend,
    cascade_down,
    certify,
    concave_envelope,
    convex_envelope,
    dual_objective,
    dual_value_and_subgradient,
    eval_envelope,
    quantize_lognormal,
    solve_primal,
    verify_subhedge,
)

from motbounds.cascade import VARIANTS, _Level, _built, _cascades, _envelope, _objective
from motbounds.certification import _subhedge
from motbounds.envelope import CLAMP_REL
from motbounds.measures import COST_FORMS, STRIKE_FORMS

from conftest import lognormal_showcase, random_cost, random_duals, random_instance
from oracles import support_rows, terminal_tensor
from test_cli_fuzz import VALUES, nodes, replace_at

D0 = DiscreteMeasure.point(0.0)
PM1 = DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
PM2 = DiscreteMeasure(np.array([-2.0, 2.0]), np.array([0.5, 0.5]))

MS_SINGLE = MarginalSequence([D0, PM1])  # unique coupling: product measure
MS_PAIR = MarginalSequence([PM1, PM2])
MS_THREE = MarginalSequence([D0, PM1, PM2])

SQ2 = CostSpec(2, "squared_increment")
SQ3_LAST = CostSpec(
    3, "custom_table",
    table=(np.zeros((1, 2, 2)) + (np.array([-2.0, 2.0])[None, None, :]
                                  - np.array([-1.0, 1.0])[None, :, None]) ** 2),
)


def reference_cascade(cost, ms, u, variant):
    """Per-section route through the envelope module, level by level."""
    if variant == "remark_b":
        cur = cost.tensor_on(ms)
    else:
        cur = terminal_tensor(cost, ms, u)
    levels = [cur]
    for i in range(ms.n - 1, 0, -1):
        sections = cur.reshape(-1, ms.sizes[i])
        if variant == "remark_b":
            sections = sections - u.values[i - 1][None, :]
        out = np.empty(sections.shape[0])
        for r in range(sections.shape[0]):
            f = GridFunction(ms.grids[i], sections[r])
            env = concave_envelope(f) if variant == "remark_a" else convex_envelope(f)
            t = ms.grids[i - 1][r % ms.sizes[i - 1]]
            out[r] = eval_envelope(env, float(t))
        cur = out.reshape(ms.sizes[:i])
        levels.append(cur)
    return levels[::-1]  # T_1 first


def batched_envelope(sections, grid, eval_atoms, lower):
    """The production search, a stack of one, over every row at eval_atoms[r % len(eval_atoms)];
    an upper hull is searched as the lower hull of the negated rows, and its values negated."""
    sign = 1.0 if lower else -1.0

    def rows_of(lo, hi, out):
        np.multiply(sections[lo:hi], sign, out=out)

    vals, left, right, lam = _envelope([rows_of], _Level(grid, eval_atoms, sections.shape[0]))
    return sign * vals[0], left[0], right[0], lam[0]


def pair_enumeration(sections, grid, eval_atoms, lower):
    """Envelope by enumerating every chord (a, b) with y_a <= t <= y_b; O(m^2) per row.

    Row r is evaluated at eval_atoms[r % len(eval_atoms)], clamped to the grid.
    Returns (values, left, right, lam) like the batched envelope; among tied
    chords the first in (a, b) row-major order wins.
    """
    rows, m = sections.shape
    me = eval_atoms.size
    vals = np.empty(rows)
    left = np.empty(rows, dtype=int)
    right = np.empty(rows, dtype=int)
    lam = np.empty(rows)
    for r in range(rows):
        t = min(max(float(eval_atoms[r % me]), grid[0]), grid[-1])
        best = None
        for a in range(m):
            for b in range(a, m):
                if not grid[a] <= t <= grid[b]:
                    continue
                w = (grid[b] - t) / (grid[b] - grid[a]) if b > a else 1.0
                v = w * sections[r, a] + (1.0 - w) * sections[r, b]
                if best is None or (v < best[0] if lower else v > best[0]):
                    best = (v, a, b, w)
        vals[r], left[r], right[r], lam[r] = best
    return vals, left, right, lam


def mass_split(left, right, lam, m):
    """Weight that each row puts on each atom: lam on left, 1 - lam on right."""
    out = np.zeros((left.size, m))
    np.add.at(out, (np.arange(left.size), left), lam)
    np.add.at(out, (np.arange(left.size), right), 1.0 - lam)
    return out


def pushed_down_coupling(casc, ms):
    """Path masses on the full product grid: mu_1 pushed through every support."""
    mass = ms[0].weights.copy()
    for lft, rgt, lam in casc.supports:
        nxt = mass_split(lft, rgt, lam, ms.sizes[mass.ndim])
        mass = mass[..., None] * nxt.reshape(mass.shape + nxt.shape[-1:])
    return mass


def reference_objective(cost, ms, u, variant):
    levels = reference_cascade(cost, ms, u, variant)
    value = float(np.dot(ms[0].weights, levels[0]))
    for i, t in enumerate(u.values, start=1):
        value += float(np.dot(ms[i].weights, t))
    return value


class TestFromTables:
    """from_tables runs DualVariables.check, the one check of u_2..u_n tables, on float copies."""

    MS = MarginalSequence([PM1, DiscreteMeasure(np.array([-2.0, 0.0, 2.0]), np.full(3, 1 / 3))])

    def test_wrong_table_count_rejected(self):
        for tables in ([], [np.zeros(3), np.zeros(3)]):
            with pytest.raises(ValueError, match=r"expected 1 tables \(u_2\.\.u_n\), got"):
                DualVariables.from_tables(self.MS, tables)

    def test_wrong_table_shape_rejected(self):
        # a (3, 1) column is refused, not flattened
        for table in (np.zeros(2), np.zeros(4), np.zeros((3, 1))):
            with pytest.raises(ValueError, match=r"table u_2 has shape .*, expected \(3,\)"):
                DualVariables.from_tables(self.MS, [table])

    def test_non_finite_entry_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="table u_2 has a non-finite entry"):
                DualVariables.from_tables(self.MS, [np.array([0.0, bad, 0.0])])

    def test_tables_are_copied(self):
        # a caller that keeps stepping its tables in place must not move u
        for table in (np.array([1.0, 2.0, 3.0]), [1, 2, 3]):
            u = DualVariables.from_tables(self.MS, [table])
            table[0] = 7
            assert u.values[0].dtype == float
            assert u.values[0].tolist() == [1.0, 2.0, 3.0]


class TestPositionsBuiltElsewhere:
    """A position not built by from_tables is checked by every cascade that reads it."""

    COST = CostSpec(3, "squared_increment")
    # the martingale coupling of MS_THREE: 3/4 of each PM1 atom moves to the nearer PM2 atom
    COUPLING = Coupling((1, 2, 2), np.arange(4), np.array([0.375, 0.125, 0.125, 0.375]))

    def entry_points(self, u):
        """Every public route from a position u on MS_THREE into a cascade."""
        calls = [lambda: terminal_tensor(self.COST, MS_THREE, u),
                 lambda: verify_subhedge(self.COST, MS_THREE, u, self.COUPLING)]
        for variant in ("proposition", "remark_a", "remark_b"):
            calls += [lambda v=variant: dual_objective(v, self.COST, MS_THREE, u),
                      lambda v=variant: dual_value_and_subgradient(v, self.COST, MS_THREE, u),
                      lambda v=variant: cascade_down(v, self.COST, MS_THREE, u)]
        return calls

    def assert_refused(self, u, message):
        for call in self.entry_points(u):
            with pytest.raises(ValueError, match=message):
                call()

    def test_a_finite_certificate_is_read_back(self):
        cert = DualCertificate("proposition", DualVariables.zeros(MS_THREE), 0.0)
        u = DualCertificate.from_dict(json.loads(json.dumps(cert.as_dict()))).dual_variables
        for call in self.entry_points(u):
            call()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("table", [0, 1])
    def test_non_finite_certificate_entry_refused(self, bad, table):
        payload = DualCertificate("proposition", DualVariables.zeros(MS_THREE), 0.0).as_dict()
        payload["u"][table]["values"][1] = bad
        u = DualCertificate.from_dict(json.loads(json.dumps(payload))).dual_variables
        self.assert_refused(u, f"table u_{table + 2} has a non-finite entry")

    def test_untyped_certificate_refused(self):
        # strings and bools that float() would read, under an unknown variant
        payload = {"variant": "bogus", "u": [{"grid": ["-1", True], "values": ["1.0", False]}],
                   "dual_value": "3"}
        with pytest.raises(ValueError, match="variant: expected one of"):
            DualCertificate.from_dict(payload)
        payload["variant"] = "proposition"
        with pytest.raises(ValueError, match='dual_value: expected a number, got "3"'):
            DualCertificate.from_dict(payload)
        payload["dual_value"] = 3
        with pytest.raises(ValueError, match=r'u\[0\]\.grid\[0\]: expected a number, got "-1"'):
            DualCertificate.from_dict(payload)
        payload["u"][0]["grid"] = [-1, 1]
        with pytest.raises(ValueError, match=r'u\[0\]\.values\[0\]: expected a number, got "1.0"'):
            DualCertificate.from_dict(payload)

    @pytest.mark.parametrize("field,bad", [("dual_value", True), ("dual_value", None),
                                           ("gap_vs_primal", "0"), ("gap_vs_primal", False),
                                           ("u", {"grid": [-1, 1]}), ("u", [[-1, 1]])])
    def test_non_number_field_refused(self, field, bad):
        payload = DualCertificate("proposition", DualVariables.zeros(MS_THREE), 0.0, 0.0).as_dict()
        payload[field] = bad
        with pytest.raises(ValueError, match=f"{field}: expected"):
            DualCertificate.from_dict(payload)

    @pytest.mark.parametrize("bad,spelled", [(np.nan, "NaN"), (np.inf, "Infinity"),
                                             (-np.inf, "-Infinity")], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["dual_value", "gap_vs_primal"])
    def test_non_finite_bound_refused(self, field, bad, spelled):
        payload = DualCertificate("proposition", DualVariables.zeros(MS_THREE), 0.0, 0.0).as_dict()
        payload[field] = bad
        message = f"{field}: expected a finite number, got {spelled}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DualCertificate.from_dict(json.loads(json.dumps(payload)))

    @pytest.mark.parametrize("payload", [[1], "x", None])
    def test_non_object_certificate_refused(self, payload):
        with pytest.raises(ValueError, match="^top level: expected an object$"):
            DualCertificate.from_dict(payload)

    @pytest.mark.parametrize("mutate,message", [
        (lambda p: p.update(junk=1),
         "junk: unknown key; expected one of ['dual_value', 'gap_vs_primal', 'u', 'variant']"),
        (lambda p: p["u"][0].update(junk=1),
         "u[0].junk: unknown key; expected one of ['grid', 'values']"),
        (lambda p: p.pop("dual_value"), "top level: missing key 'dual_value'"),
        (lambda p: p["u"][1].pop("values"), "u[1]: missing key 'values'"),
    ], ids=["unknown_top_level", "unknown_u_entry", "missing_top_level", "missing_u_entry"])
    def test_unknown_or_missing_certificate_key_refused(self, mutate, message):
        payload = DualCertificate("proposition", DualVariables.zeros(MS_THREE), 0.0).as_dict()
        mutate(payload)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DualCertificate.from_dict(payload)

    def test_integer_gap_reads_as_float(self):
        payload = DualCertificate("proposition", DualVariables.zeros(MS_THREE), 0.0, 0.0).as_dict()
        payload["gap_vs_primal"] = 0
        gap = DualCertificate.from_dict(payload).gap_vs_primal
        assert type(gap) is float and gap == 0.0

    def test_grid_other_than_the_atoms_refused(self):
        u = DualVariables((PM1.atoms, PM2.atoms + 1.0), (np.zeros(2), np.zeros(2)))
        self.assert_refused(u, "grid of u_3 does not match the atoms of marginal 3")

    def test_wrong_table_count_refused(self):
        self.assert_refused(DualVariables((PM1.atoms,), (np.zeros(2),)),
                            r"expected 2 tables \(u_2\.\.u_n\), got 1")
        self.assert_refused(DualVariables((PM1.atoms,), (np.zeros(2), np.zeros(2))),
                            r"expected 2 tables \(u_2\.\.u_n\), got 2 on 1 grids")

    def test_wrong_table_shape_refused(self):
        u = DualVariables((PM1.atoms, PM2.atoms), (np.zeros(2), np.zeros(3)))
        self.assert_refused(u, r"table u_3 has shape \(3,\), expected \(2,\)")


class TestCertificateReader:
    """DualCertificate.from_dict reads back what as_dict writes, and refuses the rest."""

    def test_certify_certificates_round_trip(self):
        rng = np.random.default_rng(9)
        instances = [lognormal_showcase()] + [random_instance(rng, n, max_size=6)
                                              for n in (2, 2, 3, 3)]
        for cost, ms in instances:
            report = certify(cost, ms)
            assert sorted(report.certificates) == sorted(VARIANTS)
            for cert in report.certificates.values():
                payload = cert.as_dict()
                back = DualCertificate.from_dict(json.loads(json.dumps(payload)))
                assert back.as_dict() == payload

    def test_mutated_certificate_reads_or_raises_value_error(self):
        # every node of a certify certificate given every wrong value, every key
        # dropped, and an extra key on every object; a non-finite bound must raise
        rng = np.random.default_rng(4)
        cost, ms = random_instance(rng, 3, max_size=3)
        payload = certify(cost, ms).certificates["proposition"].as_dict()
        assert "gap_vs_primal" in payload
        bounds = [("dual_value",), ("gap_vs_primal",)]
        mutants = [(replace_at(payload, path, value),
                    path in bounds and isinstance(value, float) and not np.isfinite(value))
                   for path, _ in nodes(payload) for value in VALUES]
        for path, value in nodes(payload):
            if isinstance(value, dict):
                mutants.append((replace_at(payload, path, dict(value, extra=1.0)), False))
                mutants += [(replace_at(payload, path, {k: v for k, v in value.items() if k != key}),
                             False) for key in value]
        assert sum(must_raise for _, must_raise in mutants) == 6
        for mutant, must_raise in mutants:
            text = json.dumps(mutant)
            try:
                DualCertificate.from_dict(json.loads(text))
            except ValueError:
                continue
            except Exception as exc:
                raise AssertionError(f"{text[:200]}: {exc!r}") from exc
            assert not must_raise, f"{text[:200]}: a non-finite bound was read"


class TestTerminalTensor:
    def test_zero_duals_give_cost(self):
        u = DualVariables.zeros(MS_SINGLE)
        assert np.array_equal(terminal_tensor(SQ2, MS_SINGLE, u), SQ2.tensor_on(MS_SINGLE))

    def test_identity_dual_subtraction(self):
        u = DualVariables.from_tables(MS_SINGLE, [np.array([-1.0, 1.0])])
        top = terminal_tensor(SQ2, MS_SINGLE, u)
        assert top[0, 0] == pytest.approx(2.0)  # 1 - (-1)
        assert top[0, 1] == pytest.approx(0.0)  # 1 - 1

    def test_constant_shift_lowers_everything(self):
        u0 = DualVariables.zeros(MS_SINGLE)
        u1 = DualVariables.from_tables(MS_SINGLE, [np.array([0.7, 0.7])])
        diff = terminal_tensor(SQ2, MS_SINGLE, u0) - terminal_tensor(SQ2, MS_SINGLE, u1)
        assert np.allclose(diff, np.full((1, 2), 0.7))

    def test_shape_mismatch_raises(self):
        u = DualVariables.from_tables(MS_SINGLE, [np.array([0.0, 0.0])])
        with pytest.raises(ValueError):
            terminal_tensor(SQ2, MS_PAIR, u)


class TestCascadeDown:
    def test_single_start_chord(self):
        u = DualVariables.zeros(MS_SINGLE)
        casc = cascade_down("proposition", SQ2, MS_SINGLE, u)
        # section values (1, 1), chord at 0 -> 1
        assert casc.levels[0][0] == pytest.approx(1.0)

    def test_symmetric_pair_chord(self):
        u = DualVariables.zeros(MS_PAIR)
        casc = cascade_down("proposition", SQ2, MS_PAIR, u)
        # chord through (-2, 1), (2, 9) at -1 is 3; symmetric at +1
        assert casc.levels[0][0] == pytest.approx(3.0)
        assert casc.levels[0][1] == pytest.approx(3.0)

    def test_convex_section_knot_hit(self):
        # x_i equal to an atom of the next marginal and a convex section:
        # envelope equals the section there
        ms = MarginalSequence([PM1, DiscreteMeasure(np.array([-2.0, -1.0, 1.0, 2.0]),
                                                    np.full(4, 0.25))])
        cost = CostSpec(2, "squared_increment")
        u = DualVariables.zeros(ms)
        casc = cascade_down("proposition", cost, ms, u)
        assert casc.levels[0][0] == pytest.approx(0.0)  # (x - x)^2 at knot
        assert casc.levels[0][1] == pytest.approx(0.0)

    def test_minorant_at_matching_atoms(self, rng):
        for _ in range(20):
            cost, ms = random_instance(rng, n=3, max_size=6)
            u = random_duals(rng, ms)
            casc = cascade_down("proposition", cost, ms, u)
            levels = casc.levels + (terminal_tensor(cost, ms, u),)
            for i in range(ms.n - 1, 0, -1):
                upper = levels[i]
                lower = levels[i - 1]
                # wherever an atom of mu_i also belongs to mu_{i+1}'s grid
                for j, t in enumerate(ms.grids[i - 1]):
                    pos = np.searchsorted(ms.grids[i], t)
                    if pos < ms.sizes[i] and ms.grids[i][pos] == t:
                        sel_low = np.moveaxis(lower, -1, 0)[j]
                        sel_up = np.moveaxis(np.moveaxis(upper, -2, 0)[j], -1, 0)[pos]
                        assert np.all(sel_low <= sel_up + 1e-10)

    def test_matches_per_section_route(self, rng):
        for variant in ("proposition", "remark_a", "remark_b"):
            for n in (2, 3):
                cost, ms = random_instance(rng, n=n, max_size=6)
                u = random_duals(rng, ms)
                top = cost.tensor_on(ms) if variant == "remark_b" else terminal_tensor(cost, ms, u)
                levels = cascade_down(variant, cost, ms, u).levels + (top,)
                ref = reference_cascade(cost, ms, u, variant)
                assert len(levels) == len(ref)
                for lvl, expected in zip(levels, ref):
                    assert np.allclose(lvl, expected, atol=1e-12)

    def test_out_of_domain_propagates(self):
        # supports not nested: mu_2 strictly inside mu_1
        ms = MarginalSequence([PM2, PM1])
        u = DualVariables.zeros(ms)
        with pytest.raises(OutOfDomainError):
            cascade_down("proposition", SQ2, ms, u)

    def test_unknown_variant_raises(self):
        u = DualVariables.zeros(MS_SINGLE)
        with pytest.raises(ValueError, match="unknown variant"):
            cascade_down("bogus", SQ2, MS_SINGLE, u)


class TestInstanceCache:
    """What no u changes is built once per (cost, ms) and reused bit for bit."""

    @staticmethod
    def trace_of(cost, ms, variant, fresh, monkeypatch):
        """A 10-iteration reference-free run; fresh clears the cache before every evaluation."""
        evaluate = ascent_module.dual_value_and_subgradient

        def evaluate_fresh(*args):
            _built.cache_clear()
            return evaluate(*args)

        with monkeypatch.context() as patch:
            if fresh:
                patch.setattr(ascent_module, "dual_value_and_subgradient", evaluate_fresh)
            _built.cache_clear()
            cert, trace = ascend(cost, ms, AscentConfig(variant=variant, max_iters=10))
        return cert, trace, _built.cache_info().misses

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("variant", ["proposition", "remark_a", "remark_b"])
    def test_ascent_matches_fresh_builds(self, rng, monkeypatch, n, variant):
        cost, ms = random_instance(rng, n, max_size=6 if n == 4 else 15)
        cert, trace, builds = self.trace_of(cost, ms, variant, False, monkeypatch)
        fresh_cert, fresh_trace, _ = self.trace_of(cost, ms, variant, True, monkeypatch)
        assert builds == 1 and len(trace) > 1
        for field in ("values", "grad_norms", "best_values"):
            np.testing.assert_array_equal(getattr(trace, field), getattr(fresh_trace, field))
        assert cert.dual_value == fresh_cert.dual_value
        for a, b in zip(cert.dual_variables.tables(), fresh_cert.dual_variables.tables()):
            np.testing.assert_array_equal(a, b)

    def test_interleaved_instances_and_directions(self, rng):
        a, b = random_instance(rng, 3), random_instance(rng, 3)
        duals = {id(a): random_duals(rng, a[1]), id(b): random_duals(rng, b[1])}

        def evaluate(inst, variant):
            value, grads = dual_value_and_subgradient(variant, *inst, duals[id(inst)])
            return value, np.concatenate(grads)

        order = [(a, "proposition"), (b, "remark_a"), (a, "remark_a"), (a, "proposition"),
                 (b, "remark_a"), (b, "remark_b"), (a, "proposition")]
        fresh = {}
        for inst, variant in order:
            _built.cache_clear()
            fresh[id(inst), variant] = evaluate(inst, variant)
        _built.cache_clear()
        for inst, variant in order:
            value, grad = evaluate(inst, variant)
            assert value == fresh[id(inst), variant][0]
            np.testing.assert_array_equal(grad, fresh[id(inst), variant][1])

    @pytest.mark.parametrize("form", COST_FORMS)
    def test_scale_is_max_abs_cost(self, rng, form):
        for k in range(6):
            ms = random_instance(rng, n=2 + k % 3, max_size=6)[1]
            strike = float(rng.normal(ms[0].mean, ms.span)) if form in STRIKE_FORMS else None
            table = rng.normal(0.0, 10.0, ms.sizes) if form == "custom_table" else None
            cost = CostSpec(ms.n, form, strike=strike, table=table)
            assert _built(cost, ms).scale == np.abs(cost.tensor_on(ms)).max()

    def test_scale_of_one_atom_levels(self, rng):
        for ms in map(MarginalSequence, TestStackedCascades.ONE_ATOM_LEVELS):
            cost = random_cost(rng, ms)
            assert _built(cost, ms).scale == np.abs(cost.tensor_on(ms)).max()

    def test_remark_b_and_terminal_tensor_leave_the_cache_unchanged(self, rng):
        cost, ms = random_instance(rng, 3)
        u = random_duals(rng, ms)
        built = _built(cost, ms)
        before = built.top.copy()
        assert not built.top.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            built.top[(0,) * ms.n] = 1.0
        cascade_down("remark_b", cost, ms, u)
        dual_value_and_subgradient("remark_b", cost, ms, u)
        top = terminal_tensor(cost, ms, u)
        assert _built(cost, ms) is built
        np.testing.assert_array_equal(built.top, before)
        np.testing.assert_array_equal(cost.tensor_on(ms), before)
        assert top.flags.writeable and not np.shares_memory(top, built.top)


class TestBatchedEnvelope:
    """The supporting-pair search against pair enumeration."""

    @staticmethod
    def random_grid(rng, m):
        return np.sort(rng.choice(np.arange(-60, 60), size=m, replace=False)) / 7.0

    def assert_matches_enumeration(self, sections, grid, eval_atoms, lower, same_split=True):
        vals, left, right, lam = batched_envelope(sections, grid, eval_atoms, lower)
        ref_vals, ref_left, ref_right, ref_lam = pair_enumeration(sections, grid, eval_atoms, lower)
        np.testing.assert_allclose(vals, ref_vals, rtol=0, atol=1e-12)
        t = np.clip(np.tile(eval_atoms, sections.shape[0] // eval_atoms.size), grid[0], grid[-1])
        assert np.all(grid[left] <= t) and np.all(t <= grid[right])
        assert np.all((lam >= 0) & (lam <= 1))
        if same_split:
            m = grid.size
            np.testing.assert_array_equal(mass_split(left, right, lam, m),
                                          mass_split(ref_left, ref_right, ref_lam, m))

    @pytest.mark.parametrize("lower", [True, False])
    def test_random_sections_between_atoms(self, rng, lower):
        for _ in range(60):
            m, me, reps = int(rng.integers(2, 25)), int(rng.integers(1, 6)), int(rng.integers(1, 4))
            grid = self.random_grid(rng, m)
            eval_atoms = rng.uniform(grid[0], grid[-1], size=me)
            sections = rng.standard_normal((me * reps, m))
            self.assert_matches_enumeration(sections, grid, eval_atoms, lower)

    @pytest.mark.parametrize("lower", [True, False])
    def test_on_grid_atoms_and_at_both_ends(self, rng, lower):
        for _ in range(60):
            m = int(rng.integers(2, 25))
            grid = self.random_grid(rng, m)
            eval_atoms = np.concatenate([[grid[0], grid[-1]], rng.choice(grid, size=3)])
            sections = rng.standard_normal((2 * eval_atoms.size, m))
            self.assert_matches_enumeration(sections, grid, eval_atoms, lower)

    @pytest.mark.parametrize("lower", [True, False])
    def test_within_the_clamp_evaluates_at_the_end(self, rng, lower):
        grid = self.random_grid(rng, 9)
        eps = CLAMP_REL * (grid[-1] - grid[0])
        sections = rng.standard_normal((2, 9))
        inside = np.array([grid[0] - 0.5 * eps, grid[-1] + 0.5 * eps])
        at_ends = batched_envelope(sections, grid, np.array([grid[0], grid[-1]]), lower)[0]
        np.testing.assert_array_equal(batched_envelope(sections, grid, inside, lower)[0], at_ends)
        np.testing.assert_array_equal(at_ends, [sections[0, 0], sections[1, -1]])

    @pytest.mark.parametrize("lower", [True, False])
    def test_past_the_clamp_raises(self, rng, lower):
        grid = self.random_grid(rng, 9)
        eps = CLAMP_REL * (grid[-1] - grid[0])
        sections = rng.standard_normal((1, 9))
        for t in (grid[0] - 2 * eps, grid[-1] + 2 * eps):
            with pytest.raises(OutOfDomainError, match="support nesting violated"):
                batched_envelope(sections, grid, np.array([t]), lower)

    def test_blocks_of_rows_give_the_same_pairs(self, rng, monkeypatch):
        grid = self.random_grid(rng, 9)
        eval_atoms = np.concatenate([rng.uniform(grid[0], grid[-1], 4), grid[[0, 3, 8]]])
        sections = rng.standard_normal((eval_atoms.size * 5, 9))
        for lower in (True, False):
            whole = batched_envelope(sections, grid, eval_atoms, lower)
            with monkeypatch.context() as patch:
                patch.setattr("motbounds.cascade.BLOCK_VALUES", 20)  # two rows per block
                blocked = batched_envelope(sections, grid, eval_atoms, lower)
            for x, y in zip(whole, blocked):
                np.testing.assert_array_equal(x, y)
            self.assert_matches_enumeration(sections, grid, eval_atoms, lower)

    def test_a_one_atom_level_of_several_blocks(self, rng, monkeypatch):
        # one-atom sections take the block loop like any other: two rows a block,
        # so two stacks of seven rows span four blocks; each row's value is its
        # section's one value, supported by the pair (0, 0) with lam 1
        grid = np.array([1.5])
        sections = rng.standard_normal((2, 7, 1))
        rows_of = [lambda lo, hi, out, s=s: np.copyto(out, s[lo:hi]) for s in sections]
        search, blocks = cascade_module._supporting_pairs, []

        def counted(f, *args):
            blocks.append(f.shape)
            return search(f, *args)

        monkeypatch.setattr(cascade_module, "_supporting_pairs", counted)
        monkeypatch.setattr(cascade_module, "BLOCK_VALUES", 2)
        vals, left, right, lam = _envelope(rows_of, _Level(grid, grid, 7))
        assert blocks == [(4, 1)] * 3 + [(2, 1)]
        assert vals.tobytes() == sections[..., 0].tobytes()
        assert left.dtype == right.dtype == np.intp
        assert (left == 0).all() and (right == 0).all() and (lam == 1.0).all()

    @pytest.mark.parametrize("lower", [True, False])
    def test_windows_of_one_or_two_columns(self, rng, lower):
        """Blocks whose rows sit at the first, second or last atom.

        A right half-step scans the columns from the block's least split on,
        a left one those before its greatest split: here one or two columns.
        """
        for _ in range(30):
            m = int(rng.integers(3, 25))
            grid = self.random_grid(rng, m)
            for picks in ([0], [0, 1], [1], [m - 1], [m - 2, m - 1], [0, 1, m - 1]):
                eval_atoms = grid[picks]
                sections = rng.standard_normal((3 * eval_atoms.size, m))
                self.assert_matches_enumeration(sections, grid, eval_atoms, lower)

    def test_single_atom_section(self):
        vals, left, right, lam = batched_envelope(
            np.array([[2.5], [-1.0]]), np.array([0.0]), np.array([0.0]), True)
        np.testing.assert_array_equal(vals, [2.5, -1.0])
        assert left.tolist() == right.tolist() == [0, 0] and lam.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("m", [12, 60, 300])
    def test_many_round_sections(self, m):
        """Two convex arms that rise towards t, with their minima at the far ends.

        The search starts next to t and only reaches the bridge between the
        two ends after several rounds; a convex run that ends in one very low
        point sends the first right step straight to that point.
        """
        grid = np.arange(m, dtype=float)
        t = np.array([m // 2 - 0.5])
        arms = np.where(grid < m // 2, grid ** 2, (grid - (m - 1)) ** 2) * 1e-3
        low_end = (grid - m / 2) ** 2 * 1e-3
        low_end[-1] = -1.0
        for section in (arms, low_end, -arms):
            for lower in (True, False):
                self.assert_matches_enumeration(section[None, :], grid, t, lower)

    def test_collinear_runs_match_in_value(self, rng):
        """Rounded sections have collinear atoms; the pair may differ, the value not."""
        for _ in range(40):
            m = int(rng.integers(2, 15))
            grid = np.arange(m, dtype=float)
            eval_atoms = np.concatenate([rng.uniform(0, m - 1, 2), rng.choice(grid, 2)])
            sections = np.round(rng.standard_normal((8, m)), 0)
            for lower in (True, False):
                self.assert_matches_enumeration(sections, grid, eval_atoms, lower,
                                                same_split=False)


class TestBlocksOfRows:
    """The search reads each level one block of rows at a time; the blocks change no bit."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_two_row_blocks_give_the_default_cascade(self, rng, monkeypatch, n):
        # equal sizes, so every block of every level holds two rows, then random sizes
        basket = MarginalSequence([quantize_lognormal(-s * s / 2, s, 7)
                                   for s in (0.1, 0.2, 0.3, 0.4)[:n]])
        instances = [(CostSpec(n, "basket", strike=1.0), basket)]
        instances += [random_instance(rng, n, max_size=9) for _ in range(4)]
        for cost, ms in instances:
            u = random_duals(rng, ms)
            for variant in ("proposition", "remark_a", "remark_b"):
                whole = cascade_down(variant, cost, ms, u)
                with monkeypatch.context() as patch:
                    patch.setattr("motbounds.cascade.BLOCK_VALUES", 2 * max(ms.sizes[1:]))
                    blocked = cascade_down(variant, cost, ms, u)
                for x, y in zip(whole.levels, blocked.levels, strict=True):
                    np.testing.assert_array_equal(x, y)
                for x, y in zip(whole.supports, blocked.supports, strict=True):
                    for a, b in zip(x, y, strict=True):
                        np.testing.assert_array_equal(a, b)

    def test_the_top_level_is_never_held_whole(self, rng):
        """One evaluation allocates less than half of the cached cost tensor's bytes.

        The cost tensor is the only array of prod m_i values: the top level's
        sections are built from it one block of rows at a time.
        """
        ms = MarginalSequence([quantize_lognormal(-s * s / 2, s, 40) for s in (0.1, 0.2, 0.3, 0.4)])
        cost = CostSpec(4, "basket", strike=1.0)
        u = random_duals(rng, ms)
        top = _built(cost, ms).top
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            dual_value_and_subgradient("proposition", cost, ms, u)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < top.nbytes / 2


    @pytest.mark.parametrize("variant", ["proposition", "remark_a"])
    def test_a_warm_search_holds_one_block_of_values_at_a_time(self, rng, variant):
        """Beyond the thread's section buffer, a warm evaluation at n=2, m=400 peaks below
        1.5 blocks: the rows and slopes live in the buffer, and each half-step's gathered
        rows die before the next gather. Two block-sized arrays alive at once can make the
        heap give its top back to the system after every half-step, and fault it in again."""
        ms = MarginalSequence([quantize_lognormal(-s * s / 2, s, 400) for s in (0.1, 0.2)])
        cost, u = CostSpec(2, "basket", strike=1.0), random_duals(rng, ms)
        dual_value_and_subgradient(variant, cost, ms, u)  # the instance's build and the buffer
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            dual_value_and_subgradient(variant, cost, ms, u)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * cascade_module.BLOCK_VALUES


class TestStackedCascades:
    """_cascades runs a stack of (variant, u) positions in one pass over the levels;
    each position gets what cascade_down gives it alone, to the bit."""

    # marginals of one atom below the top: levels whose sections have one atom
    ONE_ATOM_LEVELS = ([D0, D0], [D0, D0, PM1], [D0, D0, PM1, PM2], [D0, D0, D0, PM1])

    @classmethod
    def instances(cls, rng, count=200):
        for k in range(count):
            yield random_instance(rng, n=2 + k % 3, max_size=6 if k % 3 == 2 else 9)
        for marginals in cls.ONE_ATOM_LEVELS:
            ms = MarginalSequence(marginals)
            yield random_cost(rng, ms), ms

    def test_a_stack_equals_its_positions_run_alone(self, rng, monkeypatch):
        for cost, ms in self.instances(rng):
            shared = random_duals(rng, ms)
            positions = []
            for _ in range(int(rng.integers(1, 6))):
                pick = rng.integers(3)
                u = (DualVariables.zeros(ms), shared, random_duals(rng, ms))[pick]
                positions.append((VARIANTS[rng.integers(3)], u))
            with monkeypatch.context() as patch:  # levels of several blocks
                patch.setattr(cascade_module, "BLOCK_VALUES",
                              int(rng.integers(1, 4)) * max(ms.sizes[1:]))
                stacked = _cascades(cost, ms, positions)
            assert len(stacked) == len(positions)
            for (variant, u), got in zip(positions, stacked):
                assert isinstance(got, CascadeTensors)
                want = cascade_down(variant, cost, ms, u)
                for x, y in zip(got.levels, want.levels, strict=True):
                    assert x.shape == y.shape and x.tobytes() == y.tobytes()
                for x, y in zip(got.supports, want.supports, strict=True):
                    for a, b in zip(x, y, strict=True):
                        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                assert _objective(ms, u, got) == dual_objective(variant, cost, ms, u)

    def test_remark_a_is_the_negated_proposition_of_the_negated_instance(self, rng, monkeypatch):
        # the concave envelope of f is minus the convex envelope of -f, and negation is
        # exact: remark_a at (c, u) is proposition at (-c, -u), negated, to the bit
        for cost, ms in self.instances(rng, count=60):
            u = random_duals(rng, ms)
            minus_c = CostSpec(ms.n, "custom_table", table=-cost.tensor_on(ms))
            minus_u = DualVariables.from_tables(ms, [-t for t in u.values])
            with monkeypatch.context() as patch:  # levels of several blocks
                patch.setattr(cascade_module, "BLOCK_VALUES",
                              int(rng.integers(1, 4)) * max(ms.sizes[1:]))
                upper = cascade_down("remark_a", cost, ms, u)
                lower = cascade_down("proposition", minus_c, ms, minus_u)
            for x, y in zip(upper.levels, lower.levels, strict=True):
                assert x.shape == y.shape and x.tobytes() == (-y).tobytes()
            for x, y in zip(upper.supports, lower.supports, strict=True):
                for a, b in zip(x, y, strict=True):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_unknown_variant_in_a_stack_refused(self):
        u = DualVariables.zeros(MS_PAIR)
        with pytest.raises(ValueError, match="unknown variant"):
            _cascades(SQ2, MS_PAIR, [("proposition", u), ("bogus", u)])

    def test_certify_searches_each_lower_block_once(self, monkeypatch):
        # with 20-row blocks the showcase's level 2 (225 sections of 15
        # atoms) takes 12 blocks and level 1 (15 sections) one; the lower
        # side searches its three positions in one call per block, and
        # remark_a, after the upper side, its one
        search = cascade_module._supporting_pairs
        rows = []

        def counted(f, *args):
            rows.append(f.shape[0])
            return search(f, *args)

        monkeypatch.setattr(cascade_module, "_supporting_pairs", counted)
        monkeypatch.setattr(cascade_module, "BLOCK_VALUES", 20 * 15)
        assert certify(*lognormal_showcase()).passed
        one_pass = [20] * 11 + [5, 15]
        assert rows == [3 * r for r in one_pass] + one_pass


class TestSectionBuffer:
    """Each thread writes its blocks of rows, and their slopes, into one buffer of its own,
    reused across evaluations; what a warm buffer holds changes no bit of a cascade."""

    @staticmethod
    def on_fresh_thread(fn):
        """fn() on a new thread, and that thread's section buffer afterwards."""
        out = {}

        def target():
            out["result"] = fn()
            out["rows"] = cascade_module._THREAD.rows

        worker = threading.Thread(target=target)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        return out["result"], out["rows"]

    @staticmethod
    def cases(rng):
        """(cost, ms, positions): one position of each variant, and stacks with upper rows."""
        instances = [random_instance(rng, n, max_size=9) for n in (2, 3, 4)]
        instances += [(random_cost(rng, ms), ms)  # levels whose sections have one atom
                      for ms in (MarginalSequence([D0, D0, PM1]), MarginalSequence([D0, D0, D0, PM1]))]
        for cost, ms in instances:
            u, zero = random_duals(rng, ms), DualVariables.zeros(ms)
            for variant in VARIANTS:
                yield cost, ms, [(variant, u)]
            yield cost, ms, [("proposition", u), ("remark_b", u), ("proposition", zero)]
            yield cost, ms, [("remark_a", u), ("proposition", u), ("remark_a", zero), ("remark_b", u)]

    def test_warm_evaluations_reuse_one_buffer_and_a_thread_gets_its_own(self, rng):
        cost, ms = random_instance(rng, 3, max_size=9)
        cascade_down("proposition", cost, ms, random_duals(rng, ms))
        first = cascade_module._THREAD.rows
        cascade_down("remark_a", cost, ms, random_duals(rng, ms))
        assert np.shares_memory(first, cascade_module._THREAD.rows)
        _, other = self.on_fresh_thread(
            lambda: cascade_down("remark_b", cost, ms, random_duals(rng, ms)))
        assert not np.shares_memory(other, cascade_module._THREAD.rows)

    @pytest.mark.parametrize("block_rows", [None, 2])
    def test_a_warm_buffer_gives_a_fresh_threads_cascade(self, rng, monkeypatch, block_rows):
        """Every case on a buffer filled with NaN equals, byte for byte, its positions
        run one at a time on a fresh thread."""
        for cost, ms, positions in self.cases(rng):
            if block_rows:  # blocks smaller than a level, on both threads
                monkeypatch.setattr(cascade_module, "BLOCK_VALUES", block_rows * max(ms.sizes[1:]))
            fresh, _ = self.on_fresh_thread(
                lambda: [_cascades(cost, ms, [position])[0] for position in positions])
            _cascades(cost, ms, positions)
            cascade_module._THREAD.rows.fill(np.nan)  # a value read before it is written shows
            warm = _cascades(cost, ms, positions)
            for got, want in zip(warm, fresh, strict=True):
                for x, y in zip(got.levels, want.levels, strict=True):
                    assert x.shape == y.shape and x.tobytes() == y.tobytes()
                for x, y in zip(got.supports, want.supports, strict=True):
                    for a, b in zip(x, y, strict=True):
                        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            for (_, u), got, want in zip(positions, warm, fresh):
                assert _objective(ms, u, got) == _objective(ms, u, want)


class TestStepwiseVariant:
    def test_two_period_recursions_coincide(self, rng):
        for _ in range(10):
            cost, ms = random_instance(rng, n=2, max_size=8)
            u = random_duals(rng, ms)
            a = cascade_down("proposition", cost, ms, u).levels[0]
            b = cascade_down("remark_b", cost, ms, u).levels[0]
            assert np.allclose(a, b, atol=1e-12)

    def test_zero_duals_match_at_every_level(self, rng):
        cost, ms = random_instance(rng, n=3, max_size=6)
        u = DualVariables.zeros(ms)
        a = cascade_down("proposition", cost, ms, u).levels + (terminal_tensor(cost, ms, u),)
        b = cascade_down("remark_b", cost, ms, u).levels + (cost.tensor_on(ms),)
        assert len(a) == len(b) == ms.n
        for x, y in zip(a, b):
            assert np.allclose(x, y, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 4])
    def test_value_and_supergradient_agree_at_every_u(self, rng, n):
        """remark_b level i is T_i + sum_{j=2..i} u_j(x_j), so T_1 and the rest agree."""
        for _ in range(10):
            cost, ms = random_instance(rng, n=n, max_size=6)
            u = random_duals(rng, ms)
            a = cascade_down("proposition", cost, ms, u).levels + (terminal_tensor(cost, ms, u),)
            b = cascade_down("remark_b", cost, ms, u).levels + (cost.tensor_on(ms),)
            for i in range(1, n + 1):
                grids = np.meshgrid(*u.values[:i - 1], indexing="ij")
                shift = sum(grids) if grids else 0.0
                assert np.allclose(b[i - 1], a[i - 1] + shift, rtol=0, atol=1e-12)
            val_a, grads_a = dual_value_and_subgradient("proposition", cost, ms, u)
            val_b, grads_b = dual_value_and_subgradient("remark_b", cost, ms, u)
            assert val_b == pytest.approx(val_a, abs=1e-12)
            for ga, gb in zip(grads_a, grads_b):
                assert np.allclose(ga, gb, rtol=0, atol=1e-12)


class TestDualObjective:
    def test_unique_coupling_value(self):
        u = DualVariables.zeros(MS_SINGLE)
        assert dual_objective("proposition", SQ2, MS_SINGLE, u) == pytest.approx(1.0)

    def test_symmetric_pair_value(self):
        u = DualVariables.zeros(MS_PAIR)
        assert dual_objective("proposition", SQ2, MS_PAIR, u) == pytest.approx(3.0)

    def test_constant_shift_invariance(self, rng):
        for variant in ("proposition", "remark_a", "remark_b"):
            cost, ms = random_instance(rng, n=3, max_size=6)
            u = random_duals(rng, ms)
            base = dual_objective(variant, cost, ms, u)
            for i in range(ms.n - 1):
                tables = u.tables()
                tables[i] = tables[i] + rng.uniform(-5, 5)
                shifted = DualVariables.from_tables(ms, tables)
                assert dual_objective(variant, cost, ms, shifted) == pytest.approx(
                    base, abs=1e-10
                )

    def test_affine_shift_invariance(self, rng):
        for _ in range(10):
            cost, ms = random_instance(rng, n=2, max_size=8)
            u = random_duals(rng, ms)
            base = dual_objective("proposition", cost, ms, u)
            a, b = rng.uniform(-2, 2, size=2)
            tables = u.tables()
            tables[0] = tables[0] + a + b * ms.grids[1]
            shifted = DualVariables.from_tables(ms, tables)
            assert dual_objective("proposition", cost, ms, shifted) == pytest.approx(
                base, abs=1e-9
            )

    def test_monotone_in_cost(self, rng):
        for _ in range(10):
            _, ms = random_instance(rng, n=2, max_size=6)
            u = random_duals(rng, ms)
            base_table = rng.standard_normal(ms.sizes)
            bump = rng.random(ms.sizes)
            lo = CostSpec(ms.n, "custom_table", table=base_table)
            hi = CostSpec(ms.n, "custom_table", table=base_table + bump)
            assert dual_objective("proposition", lo, ms, u) <= dual_objective(
                "proposition", hi, ms, u
            ) + 1e-12

    def test_concavity_in_u(self, rng):
        for _ in range(20):
            cost, ms = random_instance(rng, n=3, max_size=5)
            u1 = random_duals(rng, ms)
            u2 = random_duals(rng, ms)
            lam = rng.random()
            mix = DualVariables.from_tables(
                ms, [lam * a + (1 - lam) * b for a, b in zip(u1.tables(), u2.tables())]
            )
            lhs = dual_objective("proposition", cost, ms, mix)
            rhs = lam * dual_objective("proposition", cost, ms, u1) + (
                1 - lam
            ) * dual_objective("proposition", cost, ms, u2)
            assert lhs >= rhs - 1e-9


class TestSubgradient:
    def test_matches_finite_differences(self, rng):
        step = 1e-6
        for _ in range(8):
            cost, ms = random_instance(rng, n=2, max_size=6)
            u = random_duals(rng, ms, scale=0.5)
            for variant in ("proposition", "remark_b", "remark_a"):
                grads = dual_value_and_subgradient(variant, cost, ms, u)[1]
                for i in range(ms.n - 1):
                    for j in range(ms.sizes[i + 1]):
                        tables = u.tables()
                        tables[i][j] += step
                        up = dual_objective(variant, cost, ms, DualVariables.from_tables(ms, tables))
                        tables[i][j] -= 2 * step
                        dn = dual_objective(variant, cost, ms, DualVariables.from_tables(ms, tables))
                        fd = (up - dn) / (2 * step)
                        assert grads[i][j] == pytest.approx(fd, abs=1e-4)

    def test_weights_minus_marginals_of_the_pushed_down_coupling(self, rng):
        for _ in range(10):
            cost, ms = random_instance(rng, n=4, max_size=7)
            u = random_duals(rng, ms)
            q = pushed_down_coupling(cascade_down("proposition", cost, ms, u), ms)
            _, grads = dual_value_and_subgradient("proposition", cost, ms, u)
            for i in range(1, ms.n):
                arriving = q.sum(axis=tuple(a for a in range(ms.n) if a != i))
                assert np.allclose(grads[i - 1], ms[i].weights - arriving, rtol=0, atol=1e-14)

    def test_components_sum_to_zero(self, rng):
        for variant in ("proposition", "remark_a", "remark_b"):
            cost, ms = random_instance(rng, n=3, max_size=6)
            u = random_duals(rng, ms)
            for g in dual_value_and_subgradient(variant, cost, ms, u)[1]:
                assert abs(g.sum()) < 1e-12

    def test_supergradient_inequality(self, rng):
        for _ in range(20):
            cost, ms = random_instance(rng, n=3, max_size=5)
            u = random_duals(rng, ms)
            v = random_duals(rng, ms)
            val_u, grads = dual_value_and_subgradient("proposition", cost, ms, u)
            val_v = dual_objective("proposition", cost, ms, v)
            inner = sum(
                float(g @ (tv - tu))
                for g, tv, tu in zip(grads, v.tables(), u.tables())
            )
            assert val_v <= val_u + inner + 1e-8

    def test_value_matches_objective(self, rng):
        cost, ms = random_instance(rng, n=3, max_size=6)
        u = random_duals(rng, ms)
        value, _ = dual_value_and_subgradient("remark_b", cost, ms, u)
        assert value == pytest.approx(dual_objective("remark_b", cost, ms, u), abs=1e-12)


class TestVerifySubhedge:
    def test_unique_coupling_zero_slack(self):
        q = support_rows([[0.5, 0.5]])  # product coupling delta_0 x mu_2
        report = verify_subhedge(SQ2, MS_SINGLE, DualVariables.zeros(MS_SINGLE), q)
        assert report.ok
        assert report.slacks[0] == pytest.approx(0.0, abs=1e-12)

    def test_jensen_slack_nonnegative(self):
        # three-eighths / one-eighth martingale coupling of the symmetric pair
        q = support_rows([[0.375, 0.125], [0.125, 0.375]])
        report = verify_subhedge(SQ2, MS_PAIR, DualVariables.zeros(MS_PAIR), q)
        assert report.ok
        assert np.all(report.slacks >= -1e-9)

    def test_invalid_coupling_rejected(self):
        q = support_rows([[1.0, 0.0]])  # wrong second marginal
        with pytest.raises(ValueError, match="validation"):
            verify_subhedge(SQ2, MS_SINGLE, DualVariables.zeros(MS_SINGLE), q)

    def test_signed_plan_rejected(self):
        # right marginals and zero drift, but two paths carry negative mass
        ms = MarginalSequence([D0, PM1, DiscreteMeasure(np.array([-2.0, 0.0, 2.0]),
                                                        np.array([0.25, 0.5, 0.25]))])
        q = support_rows([[[0.5, -0.25, 0.25], [-0.25, 0.75, 0.0]]])
        with pytest.raises(ValueError, match="negative_mass=2.500e-01"):
            verify_subhedge(CostSpec(3, "squared_increment"), ms, DualVariables.zeros(ms), q)

    def test_raw_array_refused(self):
        with pytest.raises(TypeError, match="expected a Coupling"):
            verify_subhedge(SQ2, MS_SINGLE, DualVariables.zeros(MS_SINGLE), np.array([[0.5, 0.5]]))

    def test_slacks_read_only_the_support(self, rng):
        cost, ms = random_instance(rng, n=3, max_size=5)
        coupling = solve_primal(cost, ms).coupling
        u = random_duals(rng, ms)
        report = verify_subhedge(cost, ms, u, coupling)
        t1 = cascade_down("proposition", cost, ms, u).levels[0]
        q = coupling.q
        dense = (q * terminal_tensor(cost, ms, u)).sum(axis=(1, 2)) / q.sum(axis=(1, 2)) - t1
        np.testing.assert_allclose(report.slacks, dense, rtol=0, atol=1e-12)

    def test_tolerance_scale_is_max_abs_terminal_tensor(self, rng, monkeypatch):
        # the scale is max(1, max |T_n| at u = 0) = max(1, max |c|), the same at
        # u = 0 and at a random u: with t1 raised by a known amount the worst
        # slack is negative, and the verdict flips where SUBHEDGE_TOL * scale crosses it
        instances = [random_instance(rng, n=2 + k % 3, max_size=(9, 6, 4)[k % 3])
                     for k in range(12)]
        instances += [(random_cost(rng, ms), ms) for ms in map(
            MarginalSequence, TestStackedCascades.ONE_ATOM_LEVELS)]
        above_one = off_u = 0
        for cost, ms in instances:
            coupling = solve_primal(cost, ms).coupling
            scale = max(1.0, float(np.abs(cost.tensor_on(ms)).max()))
            above_one += scale > 1.0
            for u in (DualVariables.zeros(ms),
                      random_duals(rng, ms, scale=float(rng.choice([0.1, 10.0])))):
                off_u += scale != max(1.0, float(np.abs(terminal_tensor(cost, ms, u)).max()))
                t1 = cascade_down("proposition", cost, ms, u).levels[0]
                raised = t1 + 1.0 + np.abs(_subhedge(cost, ms, u, coupling, t1).slacks).max()
                worst = _subhedge(cost, ms, u, coupling, raised).min_slack
                assert worst < 0
                for factor, ok in ((1 + 1e-12, True), (1 - 1e-12, False)):
                    with monkeypatch.context() as patch:
                        patch.setattr("motbounds.certification.SUBHEDGE_TOL",
                                      factor * abs(worst) / scale)
                        assert _subhedge(cost, ms, u, coupling, raised).ok is ok
        assert above_one >= 3  # the scale is max |c|, not the floor of 1, often enough
        assert off_u >= 3  # and max |T_n| at the random u is another scale, often enough


class TestCostSpec:
    def test_named_forms_evaluate(self):
        ms = MS_THREE
        basket = CostSpec(3, "basket", strike=0.0).tensor_on(ms)
        assert basket.shape == (1, 2, 2)
        assert basket[0, 1, 1] == pytest.approx((0.0 + 1.0 + 2.0) / 3)
        call = CostSpec(3, "terminal_call", strike=1.0).tensor_on(ms)
        assert call[0, 0, 1] == pytest.approx(1.0)
        absn = CostSpec(3, "abs_increment").tensor_on(ms)
        assert absn[0, 1, 0] == pytest.approx(1.0 + 3.0)

    def test_strike_required(self):
        with pytest.raises(ValueError, match="strike"):
            CostSpec(2, "terminal_call")

    @pytest.mark.parametrize("strike", [np.nan, np.inf, -np.inf])
    def test_strike_must_be_finite(self, strike):
        for form in ("terminal_call", "basket", "squared_increment"):
            with pytest.raises(ValueError, match="strike must be finite"):
                CostSpec(2, form, strike=strike)

    @pytest.mark.parametrize("form", [f for f in COST_FORMS if f not in STRIKE_FORMS])
    def test_strike_refused_where_the_form_reads_none(self, form):
        table = np.zeros((2, 2)) if form == "custom_table" else None
        with pytest.raises(ValueError, match=f"cost form '{form}' takes no strike"):
            CostSpec(2, form, strike=1.0, table=table)

    @pytest.mark.parametrize("form", [f for f in COST_FORMS if f != "custom_table"])
    def test_table_refused_on_a_named_form(self, form):
        strike = 1.0 if form in STRIKE_FORMS else None
        with pytest.raises(ValueError, match=f"cost form '{form}' takes no table"):
            CostSpec(2, form, strike=strike, table=np.zeros((2, 2)))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_table_entries_must_be_finite(self, entry):
        table = np.zeros((2, 2))
        table[1, 0] = entry
        with pytest.raises(ValueError, match="table entries must be finite"):
            CostSpec(2, "custom_table", table=table)

    def test_table_is_a_read_only_copy(self, rng):
        cost, ms = random_instance(rng, 3, max_size=6)
        table = cost.tensor_on(ms)
        saved = table.copy()
        custom = CostSpec(3, "custom_table", table=table)
        with pytest.raises(ValueError, match="read-only"):
            custom.table[0, 0, 0] = 1.0
        ascend(custom, ms, AscentConfig(max_iters=5))
        assert certify(custom, ms).feasible
        assert table.flags.writeable
        np.testing.assert_array_equal(table, saved)

    @pytest.mark.parametrize("form,strike", [("squared_increment", None), ("abs_increment", None),
                                             ("terminal_call", -1e308), ("basket", -1e308)])
    def test_overflow_on_the_grid_raises(self, form, strike):
        # finite atoms whose increments, or distance to the strike, pass the
        # largest float; pytest turns a RuntimeWarning on the way into an error
        wide = DiscreteMeasure(np.array([-1e308, 1e308]), np.array([0.5, 0.5]))
        with pytest.raises(NonFiniteCostError, match=f"cost {form} is not finite"):
            CostSpec(2, form, strike=strike).tensor_on(MarginalSequence([wide, wide]))

    def test_table_shape_checked(self):
        cost = CostSpec(2, "custom_table", table=np.zeros((3, 3)))
        with pytest.raises(ValueError, match="shape"):
            cost.tensor_on(MS_PAIR)

    @pytest.mark.parametrize("form", [f for f in COST_FORMS if f != "custom_table"])
    def test_named_forms_equal_their_formulas_bit_for_bit(self, rng, form):
        for _ in range(20):
            _, ms = random_instance(rng, int(rng.integers(2, 5)), max_size=8)
            strike = ms[0].mean + 0.1 * ms.span if form in STRIKE_FORMS else None
            x = np.meshgrid(*ms.grids, indexing="ij", sparse=True)
            formula = {
                "squared_increment": lambda: sum((x[i + 1] - x[i]) ** 2 for i in range(ms.n - 1)),
                "abs_increment": lambda: sum(np.abs(x[i + 1] - x[i]) for i in range(ms.n - 1)),
                "terminal_call": lambda: np.maximum(x[-1] - strike, 0.0),
                "basket": lambda: np.maximum(sum(x) / ms.n - strike, 0.0),
            }[form]()
            tensor = CostSpec(ms.n, form, strike=strike).tensor_on(ms)
            assert tensor.flags.writeable and tensor.flags.c_contiguous
            expected = np.broadcast_to(formula, ms.sizes)
            assert tensor.shape == ms.sizes and tensor.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("form", ["basket", "squared_increment", "abs_increment"])
    def test_named_form_is_built_in_one_tensor(self, form):
        # n=4, m=20: a 1.28 MB tensor, built in place with no second full-size array
        ms = MarginalSequence([quantize_lognormal(-s * s / 2, s, 20) for s in (0.1, 0.2, 0.3, 0.4)])
        cost = CostSpec(4, form, strike=1.0 if form in STRIKE_FORMS else None)
        tracemalloc.start()
        try:
            tensor = cost.tensor_on(ms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * tensor.nbytes, peak / tensor.nbytes
