"""Optimizer runs and traces, certificates, and full certification reports."""

import dataclasses
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import motbounds.ascent as ascent_module
import motbounds.cascade as cascade_module
import motbounds.certification as certification_module
from motbounds import (
    AscentConfig,
    CostSpec,
    DiscreteMeasure,
    DualCertificate,
    DualVariables,
    MarginalSequence,
    SizeCapError,
    ascend,
    certify,
    descend_upper,
    dual_objective,
    multipliers_to_semistatic,
    quantize_lognormal,
    relative_gap,
    solve_primal,
    solve_primal_max,
    validate_coupling,
    verify_subhedge,
)

from conftest import (checkout_env, lognormal_basket, lognormal_showcase, random_cost, random_instance,
                      random_marginals)

D0 = DiscreteMeasure.point(0.0)
PM1 = DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
PM2 = DiscreteMeasure(np.array([-2.0, 2.0]), np.array([0.5, 0.5]))
TRI = DiscreteMeasure(np.array([-2.0, 0.0, 2.0]), np.full(3, 1 / 3))

MS_SINGLE = MarginalSequence([D0, PM1])
SQ2 = CostSpec(2, "squared_increment")

# criterion-10 anchors: LP optima of the lognormal basket showcase
ANCHOR_LOWER = 0.05557820586252965
ANCHOR_UPPER = 0.07759932619178003


def lp_start(solution, ms):
    """The marginal multipliers u_2, ..., u_n of an LP solution."""
    return multipliers_to_semistatic(solution, ms)[0][1:]


def criterion1_n3_instances():
    """The 20 n = 3 instances of criterion 1's suite, drawn the same way."""
    rng = np.random.default_rng(20260808)
    drawn, instances = 0, []
    while len(instances) < 20:
        n = 2 if drawn % 2 == 0 else 3
        ms = random_marginals(rng, n, max_size=15, start_atoms=3)
        if not (3 <= min(ms.sizes) and max(ms.sizes) <= 15):
            continue
        cost = random_cost(rng, ms)
        drawn += 1
        if n == 3:
            instances.append((cost, ms))
    return instances


class TestAscend:
    def test_unique_coupling_tight_at_start(self):
        # u = 0 is already optimal; the run stops on the first iterate
        lo = solve_primal(SQ2, MS_SINGLE)
        cert, trace = ascend(SQ2, MS_SINGLE, primal_value=lo.value)
        assert len(trace) == 1
        assert trace.status == "converged_gap"
        assert cert.dual_value == pytest.approx(1.0, abs=1e-12)

    def test_abs_cost_closes_known_gap(self):
        # dual value 1 at u = 0; the optimum 7/6 needs a genuine ascent
        ms = MarginalSequence([PM1, TRI])
        cost = CostSpec(2, "abs_increment")
        lo = solve_primal(cost, ms)
        assert lo.value == pytest.approx(7 / 6, abs=1e-10)
        assert dual_objective("proposition", cost, ms, DualVariables.zeros(ms)) == pytest.approx(1.0)
        cert, trace = ascend(cost, ms, AscentConfig(target_gap=1e-6), primal_value=lo.value)
        assert relative_gap(cert.dual_value, lo.value) < 1e-6
        assert cert.dual_value <= lo.value + 1e-8

    def test_both_lower_variants_reach_primal(self, rng):
        for _ in range(3):
            cost, ms = random_instance(rng, n=3, max_size=8)
            lo = solve_primal(cost, ms)
            for variant in ("proposition", "remark_b"):
                cert, _ = ascend(cost, ms, AscentConfig(variant=variant), primal_value=lo.value)
                assert relative_gap(cert.dual_value, lo.value) < 1e-3

    def test_upper_variant_is_descend_upper(self):
        # the variant alone sets the direction: ascend minimizes remark_a,
        # bit for bit as descend_upper does, with and without a reference
        ms = MarginalSequence([PM1, TRI])
        cost = CostSpec(2, "abs_increment")
        hi = solve_primal_max(cost, ms)
        for ref in (None, hi.value):
            c1, t1 = ascend(cost, ms, AscentConfig(variant="remark_a", max_iters=40),
                            primal_value=ref)
            c2, t2 = descend_upper(cost, ms, AscentConfig(max_iters=40), primal_value=ref)
            assert c1.variant == c2.variant == "remark_a"
            assert c1.dual_value == c2.dual_value
            assert c1.gap_vs_primal == c2.gap_vs_primal
            assert (c1.gap_vs_primal is None) == (ref is None)
            for a, b in zip(c1.dual_variables.tables(), c2.dual_variables.tables()):
                assert np.array_equal(a, b)
            assert t1.status == t2.status and len(t1) == len(t2) > 1
            for name in ("values", "grad_norms", "best_values"):
                assert np.array_equal(getattr(t1, name), getattr(t2, name))
            assert np.all(t1.values >= hi.value - 1e-9)

    def test_runs_without_reference(self):
        ms = MarginalSequence([PM1, TRI])
        cost = CostSpec(2, "abs_increment")
        cert, trace = ascend(cost, ms, AscentConfig(max_iters=300))
        assert trace.status in ("iteration_limit", "converged_stationary")
        assert cert.dual_value <= solve_primal(cost, ms).value + 1e-8


    def test_reference_free_closes_the_showcase_gap(self):
        # criterion-10 basket; the dilated steps need no LP value to get close
        cost, ms = lognormal_showcase()
        cert, _ = ascend(cost, ms, AscentConfig(max_iters=300))
        assert relative_gap(cert.dual_value, solve_primal(cost, ms).value) < 1e-4


class TestDescendUpper:
    def test_runs_without_reference(self):
        # u = 0 gives 1.5; the supergradient steps must improve on it while
        # every iterate stays a valid upper bound of the LP maximum 7/6
        ms = MarginalSequence([PM1, TRI])
        cost = CostSpec(2, "abs_increment")
        hi = solve_primal_max(cost, ms)
        cert, trace = descend_upper(cost, ms, AscentConfig(variant="remark_a", max_iters=10))
        zero = dual_objective("remark_a", cost, ms, DualVariables.zeros(ms))
        assert trace.values[0] == zero == pytest.approx(1.5)
        assert cert.dual_value < zero
        assert np.all(trace.values >= hi.value - 1e-9)

    def test_unique_coupling_tight_at_start(self):
        hi = solve_primal_max(SQ2, MS_SINGLE)
        cert, trace = descend_upper(SQ2, MS_SINGLE, primal_value=hi.value)
        assert len(trace) == 1
        assert cert.dual_value == pytest.approx(hi.value, abs=1e-12)

    def test_concave_section_tight_at_start(self):
        # cost concave in the last coordinate: upper envelope equals the section
        ms = MarginalSequence([PM1, PM2])
        grids = np.meshgrid(*ms.grids, indexing="ij", sparse=True)
        table = -np.broadcast_to((grids[1] - grids[0]) ** 2, ms.sizes).copy()
        cost = CostSpec(2, "custom_table", table=table)
        hi = solve_primal_max(cost, ms)
        cert, trace = descend_upper(cost, ms, primal_value=hi.value)
        assert len(trace) == 1
        assert cert.dual_value == pytest.approx(hi.value, abs=1e-10)

    def test_upper_dominates_lower(self, rng):
        for _ in range(5):
            cost, ms = random_instance(rng, n=2, max_size=8)
            lo = solve_primal(cost, ms)
            hi = solve_primal_max(cost, ms)
            up_cert, _ = descend_upper(cost, ms, primal_value=hi.value)
            lo_cert, _ = ascend(cost, ms, primal_value=lo.value)
            assert up_cert.dual_value >= lo_cert.dual_value - 1e-9


class TestStart:
    COST = CostSpec(2, "abs_increment")
    MS = MarginalSequence([PM1, TRI])

    def test_wrong_table_count_rejected(self):
        for run in (ascend, descend_upper):
            for start in ([], [np.zeros(3), np.zeros(3)]):
                with pytest.raises(ValueError, match=r"expected 1 tables \(u_2\.\.u_n\), got"):
                    run(self.COST, self.MS, start=start)

    def test_wrong_table_length_rejected(self):
        for run in (ascend, descend_upper):
            for table in (np.zeros(2), np.zeros(4), np.zeros((3, 1))):
                with pytest.raises(ValueError, match="table u_2 has shape"):
                    run(self.COST, self.MS, start=[table])

    def test_non_finite_entry_rejected(self):
        for run in (ascend, descend_upper):
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match="table u_2 has a non-finite entry"):
                    run(self.COST, self.MS, start=[np.array([0.0, bad, 0.0])])

    def test_zero_start_is_the_default(self, rng):
        cost, ms = random_instance(rng, n=3, max_size=8)
        zeros = [np.zeros(len(m)) for m in ms.marginals[1:]]
        config = AscentConfig(max_iters=30)
        for solve, run in ((solve_primal, ascend), (solve_primal_max, descend_upper)):
            ref = solve(cost, ms).value
            c1, t1 = run(cost, ms, config, primal_value=ref)
            c2, t2 = run(cost, ms, config, primal_value=ref, start=zeros)
            assert np.array_equal(t1.values, t2.values)
            assert c1.dual_value == c2.dual_value

    def test_lp_multipliers_meet_the_lp_at_once(self, rng):
        # for fixed u_2..u_n the cascade finds the best u_1 and trading positions
        for n in (2, 3, 4):
            cost, ms = random_instance(rng, n=n, max_size=8)
            lo = solve_primal(cost, ms)
            hi = solve_primal_max(cost, ms)
            for variant in ("proposition", "remark_b"):
                cert, trace = ascend(cost, ms, AscentConfig(variant=variant),
                                     primal_value=lo.value, start=lp_start(lo, ms))
                assert (len(trace), trace.status) == (1, "converged_gap")
                assert relative_gap(cert.dual_value, lo.value) < 1e-9
            cert, trace = descend_upper(cost, ms, primal_value=hi.value, start=lp_start(hi, ms))
            assert (len(trace), trace.status) == (1, "converged_gap")
            assert relative_gap(cert.dual_value, hi.value) < 1e-9

    def test_noisy_start_still_reaches_the_target(self, rng):
        # a start that misses the target gap is ascended from, not trusted
        for _ in range(3):
            cost, ms = random_instance(rng, n=3, max_size=8)
            for solve, run in ((solve_primal, ascend), (solve_primal_max, descend_upper)):
                sol = solve(cost, ms)
                start = [t + 0.1 * rng.standard_normal(t.size) for t in lp_start(sol, ms)]
                cert, trace = run(cost, ms, primal_value=sol.value, start=start)
                assert relative_gap(trace.values[0], sol.value) >= 1e-4
                assert trace.status == "converged_gap" and len(trace) > 1
                assert relative_gap(cert.dual_value, sol.value) < 1e-4


class TestAscentFromZero:
    def test_criterion1_n3_suite_closes_from_zero(self):
        # certify starts at the LP multipliers; this keeps the u = 0 ascent covered
        instances = criterion1_n3_instances()
        assert len(instances) == 20
        worst = 0.0
        for cost, ms in instances:
            lo = solve_primal(cost, ms)
            hi = solve_primal_max(cost, ms)
            for variant in ("proposition", "remark_b"):
                cert, _ = ascend(cost, ms, AscentConfig(variant=variant), primal_value=lo.value)
                worst = max(worst, relative_gap(cert.dual_value, lo.value))
            cert, _ = descend_upper(cost, ms, primal_value=hi.value)
            worst = max(worst, relative_gap(cert.dual_value, hi.value))
        assert worst < 1e-3


class TestTraceInvariants:
    def test_best_monotone_and_weak_duality(self, rng):
        cost, ms = random_instance(rng, n=3, max_size=8)
        lo = solve_primal(cost, ms)
        cert, trace = ascend(cost, ms, AscentConfig(max_iters=400), primal_value=lo.value)
        assert np.all(np.diff(trace.best_values) >= 0)
        assert np.all(trace.values <= lo.value + 1e-8)
        hi = solve_primal_max(cost, ms)
        up_cert, up_trace = descend_upper(cost, ms, AscentConfig(max_iters=400),
                                          primal_value=hi.value)
        assert np.all(np.diff(up_trace.best_values) <= 0)
        assert np.all(up_trace.values >= hi.value - 1e-8)

    def test_certificate_revalues_exactly(self, rng):
        cost, ms = random_instance(rng, n=2, max_size=8)
        lo = solve_primal(cost, ms)
        cert, _ = ascend(cost, ms, primal_value=lo.value)
        again = dual_objective(cert.variant, cost, ms, cert.dual_variables)
        assert again == pytest.approx(cert.dual_value, abs=1e-10)

    def test_gauge_projection_value_invariant(self, rng):
        cost, ms = random_instance(rng, n=3, max_size=6)
        tables = [rng.standard_normal(len(m)) for m in ms.marginals[1:]]
        u = DualVariables.from_tables(ms, tables)
        centered = DualVariables.from_tables(
            ms,
            [t - np.dot(ms[i].weights, t) for i, t in enumerate(tables, start=1)],
        )
        a = dual_objective("proposition", cost, ms, u)
        b = dual_objective("proposition", cost, ms, centered)
        assert abs(a - b) < 1e-10

    def test_deterministic_reruns(self):
        ms = MarginalSequence([PM1, TRI])
        cost = CostSpec(2, "abs_increment")
        lo = solve_primal(cost, ms)
        c1, t1 = ascend(cost, ms, primal_value=lo.value)
        c2, t2 = ascend(cost, ms, primal_value=lo.value)
        assert np.array_equal(t1.values, t2.values)
        assert c1.dual_value == c2.dual_value


class TestReferenceFreeStep:
    """Without a reference the step is INITIAL_STEP * spread / sqrt(k) along the unit direction."""

    @staticmethod
    def runs(cost, ms):
        config = AscentConfig(max_iters=60)
        return [ascend(cost, ms, config), descend_upper(cost, ms, config)]

    @pytest.mark.parametrize("form,power", [("basket", 1), ("squared_increment", 2)])
    def test_scaled_prices_scale_the_run_exactly(self, form, power):
        # u is in price units and the step carries the cost's spread, so atoms
        # (and the strike) times 2^e scale every iterate by 2^(power * e), to the bit
        def instance(scale):
            cost, ms = lognormal_basket(3, 8, scale)
            return (cost if form == "basket" else CostSpec(3, form)), ms

        base = self.runs(*instance(1.0))
        assert all(len(trace) == 60 for _, trace in base)
        for e in (10, -10):
            factor = 2.0 ** (power * e)
            for (cert, trace), (c0, t0) in zip(self.runs(*instance(2.0**e)), base):
                assert trace.values.tobytes() == (factor * t0.values).tobytes()
                assert trace.best_values.tobytes() == (factor * t0.best_values).tobytes()
                assert trace.grad_norms.tobytes() == t0.grad_norms.tobytes()
                assert cert.dual_value == factor * c0.dual_value
                for a, b in zip(cert.dual_variables.values, c0.dual_variables.values):
                    assert a.tobytes() == (factor * b).tobytes()

    def test_upper_side_closes_the_showcase_gap(self):
        cost, ms = lognormal_showcase()
        cert, trace = descend_upper(cost, ms, AscentConfig(max_iters=100))
        assert len(trace) == 100
        assert relative_gap(cert.dual_value, solve_primal_max(cost, ms).value) < 1e-3

    def test_constant_cost_takes_no_step(self):
        # a spread of 0: u stays at 0, where both bounds are the constant
        ms = MarginalSequence([PM1, TRI])
        cost = CostSpec(2, "custom_table", table=np.full(ms.sizes, 0.75))
        for cert, trace in self.runs(cost, ms):
            assert len(trace) == 60 and trace.status == "iteration_limit"
            assert np.all(trace.values == 0.75)
            assert cert.dual_value == 0.75
            assert all(np.all(t == 0.0) for t in cert.dual_variables.values)


class DenseMetric:
    """The r-algorithm's metric as one dense matrix from the identity, dilated by rank-1 updates."""

    def __init__(self, size):
        self.b = np.eye(size)

    def dot(self, v):
        return self.b @ v

    def t_dot(self, v):
        return self.b.T @ v

    def dilate(self, xi):
        self.b += np.outer(self.b @ xi, xi) * (1.0 / ascent_module.DILATION - 1.0)


def assert_relative(got, want, rtol=1e-12):
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


class RecordedMetric(ascent_module._Metric):
    """The low-rank metric; runs lists every one built."""

    runs = []

    def __init__(self, size, cap):
        super().__init__(size, cap)
        RecordedMetric.runs.append(self)


class CheckedMetric(RecordedMetric):
    """The low-rank metric, each product checked against DenseMetric's."""

    def __init__(self, size, cap):
        super().__init__(size, cap)
        self.dense = DenseMetric(size)
        self.folds = 0

    def dot(self, v):
        got = super().dot(v)
        assert_relative(got, self.dense.dot(v))
        return got

    def t_dot(self, v):
        got = super().t_dot(v)
        assert_relative(got, self.dense.t_dot(v))
        return got

    def dilate(self, xi):
        self.folds += self.rank + 1 == len(self.p)
        super().dilate(xi)
        self.dense.dilate(xi)


class TestLowRankMetric:
    """ascent._Metric, base + P^T W, against the dense metric it stands for."""

    @pytest.mark.parametrize("cap", [1, 4, 40])
    def test_random_dilations_match_the_dense_metric(self, rng, cap):
        size = 30
        metric = CheckedMetric(size, cap)
        for _ in range(35):  # the factors fold each time they fill: 35 // cap times
            xi = metric.t_dot(rng.standard_normal(size))
            metric.dilate(xi / np.linalg.norm(xi))
            for v in rng.standard_normal((3, size)):
                metric.dot(v)
                metric.t_dot(v)
        assert metric.folds == 35 // cap and (metric.base is None) == (cap > 35)

    @pytest.mark.parametrize("variant", ["proposition", "remark_a"])
    def test_runs_that_fold_match_the_dense_metric(self, monkeypatch, variant):
        ms = MarginalSequence([quantize_lognormal(-s * s / 2, s, 12) for s in (0.1, 0.2, 0.3)])
        monkeypatch.setattr(ascent_module, "_Metric", CheckedMetric)
        monkeypatch.setattr(ascent_module, "BLOCK_VALUES", 3 * 24)  # factors of 3 rows
        RecordedMetric.runs.clear()
        _, trace = ascend(CostSpec(3, "basket", strike=1.0), ms,
                          AscentConfig(variant=variant, max_iters=40))
        (metric,) = RecordedMetric.runs
        assert len(trace) == 40 and metric.p.shape == (3, 24) and metric.folds >= 5

    @pytest.mark.parametrize("variant", ["proposition", "remark_a"])
    def test_a_metric_within_one_block_is_the_dense_metric_to_the_bit(self, variant):
        """Sum m_i = 16: 256 entries, so every dilation folds at once, a dense rank-1 update."""
        ms = MarginalSequence([quantize_lognormal(-s * s / 2, s, 8) for s in (0.1, 0.2, 0.3)])
        cost, config = CostSpec(3, "basket", strike=1.0), AscentConfig(variant=variant, max_iters=60)
        runs = [ascend(cost, ms, config)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ascent_module, "_Metric", lambda size, cap: DenseMetric(size))
            runs.append(ascend(cost, ms, config))
        (low, low_trace), (dense, dense_trace) = runs
        assert len(low_trace) == 60 and low_trace.values.tobytes() == dense_trace.values.tobytes()
        for a, b in zip(low.dual_variables.values, dense.dual_variables.values, strict=True):
            assert a.tobytes() == b.tobytes()

    def test_a_run_below_the_cap_allocates_no_square_metric(self, monkeypatch):
        def no_eye(*args, **kwargs):
            raise AssertionError("np.eye called")

        ms = MarginalSequence([quantize_lognormal(-s * s / 2, s, 200) for s in (0.1, 0.2)])
        monkeypatch.setattr(np, "eye", no_eye)
        monkeypatch.setattr(ascent_module, "_Metric", RecordedMetric)
        RecordedMetric.runs.clear()
        _, trace = descend_upper(CostSpec(2, "basket", strike=1.0), ms, AscentConfig(max_iters=30))
        (metric,) = RecordedMetric.runs
        # 200^2 entries are over one block: 28 dilations, and a cap of min(163, 100, 30) = 30 rows
        assert len(trace) == 30 and metric.p.shape == (30, 200)
        assert metric.base is None and 0 < metric.rank < 30


class TestCertify:
    def test_hand_instances_tight(self):
        for cost, ms in ((SQ2, MS_SINGLE), (SQ2, MarginalSequence([PM1, PM2]))):
            rep = certify(cost, ms, target_gap=1e-6)
            assert rep.feasible and rep.passed
            assert all(g < 1e-6 for g in rep.gaps.values())
            assert rep.subhedge_zero.ok and rep.subhedge_best.ok

    def test_infeasible_instance_reported(self):
        ms = MarginalSequence([PM1, D0])
        rep = certify(SQ2, ms)
        assert not rep.feasible
        assert not rep.passed
        assert rep.primal_lower is None
        assert set(rep.timings) == {"validation"}

    def test_report_times_each_phase(self, rng):
        cost, ms = random_instance(rng, n=3, max_size=6)
        rep = certify(cost, ms)
        assert list(rep.timings) == ["validation", "lp_lower", "duals_lower", "subhedge", "lp_upper",
                                     "dual_upper"]
        assert all(t >= 0.0 for t in rep.timings.values())
        assert sum(rep.timings.values()) <= rep.elapsed_s + 1e-9
        assert json.loads(json.dumps(rep.as_dict()))["timings"] == rep.timings

    def test_each_certificate_is_one_evaluation_at_the_lp_multipliers(self):
        rng = np.random.default_rng(5)
        instances = [lognormal_showcase()]
        instances += [random_instance(rng, n=2 + k % 3, max_size=9) for k in range(200)]
        for cost, ms in instances:
            rep = certify(cost, ms)
            assert rep.passed and rep.missed == []
            for variant, side in (("proposition", rep.primal_lower),
                                  ("remark_b", rep.primal_lower),
                                  ("remark_a", rep.primal_upper)):
                # the gauge: each table minus its mean under its own marginal
                tables = [t - np.dot(mu.weights, t)
                          for t, mu in zip(multipliers_to_semistatic(side, ms)[0][1:], ms[1:])]
                cert = rep.certificates[variant]
                for got, want in zip(cert.dual_variables.values, tables):
                    assert got.tobytes() == want.tobytes(), variant
                value = dual_objective(variant, cost, ms, DualVariables.from_tables(ms, tables))
                assert cert.dual_value == value, variant
                assert cert.dual_value == dual_objective(variant, cost, ms, cert.dual_variables)
                assert cert.gap_vs_primal == relative_gap(value, side.value), variant
        showcase = certify(*instances[0])
        assert abs(showcase.primal_lower.value - ANCHOR_LOWER) < 1e-9
        assert abs(showcase.primal_upper.value - ANCHOR_UPPER) < 1e-9

    def test_subhedges_equal_verify_subhedge(self):
        # subhedge_best reuses the proposition certificate's T_1 instead of a second cascade
        for cost, ms in criterion1_n3_instances() + [lognormal_showcase()]:
            rep = certify(cost, ms)
            coupling = rep.primal_lower.coupling
            for got, u in ((rep.subhedge_zero, DualVariables.zeros(ms)),
                           (rep.subhedge_best, rep.certificates["proposition"].dual_variables)):
                want = verify_subhedge(cost, ms, u, coupling)
                assert np.array_equal(got.slacks, want.slacks) and got.ok is want.ok
                assert np.array_equal(got.atoms, want.atoms)

    def test_lower_side_fields_wait_for_an_optimal_upper_side(self, monkeypatch):
        # the lower side is checked while the upper one solves; a failed upper
        # side leaves the report as if nothing past the LPs had run
        solve = certification_module._solve

        def failed_upper(lp, sense):
            if sense == -1:
                return dataclasses.replace(solve(lp, sense), status="failed")
            return solve(lp, sense)

        monkeypatch.setattr(certification_module, "_solve", failed_upper)
        rep = certify(*lognormal_showcase())
        assert rep.primal_lower.status == "optimal" and rep.primal_upper.status == "failed"
        assert rep.certificates == {} and rep.coupling_check is None
        assert rep.subhedge_zero is None and rep.subhedge_best is None and not rep.passed
        assert list(rep.timings) == ["validation", "lp_lower", "duals_lower", "subhedge",
                                     "lp_upper"]

    def test_unreachable_target_misses_every_variant(self):
        # the showcase's gaps are rounding, 2e-17 to 3e-17; a gap of exactly 0
        # would be below any target
        rep = certify(*lognormal_showcase(), target_gap=1e-30)
        assert rep.missed == ["proposition", "remark_b", "remark_a"]
        assert rep.subhedge_zero.ok and rep.subhedge_best.ok and not rep.passed
        payload = json.loads(json.dumps(rep.as_dict()))
        assert payload["missed"] == rep.missed and payload["passed"] is False
        assert "statuses" not in payload

    def test_rescaled_showcase_certifies(self):
        # every atom and the strike times 1e6: the LP values scale with them
        scale = 1e6
        cost, ms = lognormal_showcase(scale)
        rep = certify(cost, ms)
        assert rep.validation.ok and rep.feasible and rep.passed
        for value, anchor in ((rep.primal_lower.value, ANCHOR_LOWER),
                              (rep.primal_upper.value, ANCHOR_UPPER)):
            assert abs(value - scale * anchor) <= 1e-9 * scale * anchor
        assert max(rep.gaps.values()) < 1e-12

    @pytest.mark.parametrize("scale", [1e-6, 1e-5, 1e-4, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e10, 1e12,
                                       1e14, 1e16])
    def test_subhedge_verdict_does_not_depend_on_scale(self, scale):
        # the showcase's LP is equilibrated before it is solved, and its row
        # check reads the equilibrated rows, so every atom and the strike
        # times scale gives the same verdict and the LP values times scale;
        # at 1e9 the best slack is about -7e-9, rounding of terms near 1e8
        rep = certify(*lognormal_showcase(scale))
        assert rep.passed
        assert rep.subhedge_zero.ok and rep.subhedge_best.ok
        for value, anchor in ((rep.primal_lower.value, ANCHOR_LOWER),
                              (rep.primal_upper.value, ANCHOR_UPPER)):
            assert abs(value - scale * anchor) <= 1e-9 * scale * anchor

    def test_coupling_that_fails_validation_fails_the_report(self, monkeypatch):
        # a lower coupling that fails its check leaves both sub-hedges unrun
        real = certification_module.validate_coupling
        monkeypatch.setattr(certification_module, "validate_coupling",
                            lambda *args: dataclasses.replace(real(*args), ok=False))
        rep = certify(*lognormal_showcase())
        assert not rep.coupling_check.ok
        assert rep.subhedge_zero is None and rep.subhedge_best is None
        assert not rep.passed
        payload = json.loads(json.dumps(rep.as_dict(), allow_nan=False))
        assert payload["coupling_check"]["ok"] is False and "subhedge_zero" not in payload

    def test_coupling_validated_once(self, rng, monkeypatch):
        reports = []

        def counted(coupling, ms):
            reports.append(validate_coupling(coupling, ms))
            return reports[-1]

        monkeypatch.setattr(certification_module, "validate_coupling", counted)
        rep = certify(*random_instance(rng, n=3, max_size=6))
        assert rep.passed and reports == [rep.coupling_check] and rep.coupling_check.ok

    def test_report_round_trips_to_json(self, rng):
        cost, ms = random_instance(rng, n=2, max_size=6)
        rep = certify(cost, ms)
        payload = json.loads(json.dumps(rep.as_dict()))
        cert = DualCertificate.from_dict(payload["certificates"]["proposition"])
        value = dual_objective("proposition", cost, ms, cert.dual_variables)
        assert value == pytest.approx(cert.dual_value, abs=1e-10)

    def test_gaps_cover_all_variants(self, rng):
        cost, ms = random_instance(rng, n=3, max_size=6)
        rep = certify(cost, ms)
        assert set(rep.gaps) == {"proposition", "remark_b", "remark_a"}
        for v, gap in rep.gaps.items():
            assert gap == rep.certificates[v].gap_vs_primal
        assert rep.passed

    def test_model_highs_refuses_is_feasible_and_fails(self):
        # the marginals are in convex order, but the martingale coefficient
        # 1e16 is past HiGHS's largest matrix entry, so neither side loads
        wide = DiscreteMeasure(np.array([-1e16, 1e16]), np.array([0.5, 0.5]))
        rep = certify(CostSpec(2, "abs_increment"), MarginalSequence([D0, wide]))
        assert rep.feasible and not rep.passed
        assert rep.primal_lower.status == rep.primal_upper.status == "model_error"
        assert rep.certificates == {} and rep.gaps == {}


def report_values(rep) -> dict:
    """rep.as_dict() without the wall times, which differ between runs."""
    out = rep.as_dict()
    del out["timings"], out["elapsed_s"]
    for side in ("primal_lower", "primal_upper"):
        out[side]["stats"].pop("solve_s")
    return out


def lp_upper_threads() -> list:
    return [t for t in threading.enumerate() if t.name.startswith("motbounds-lp-upper")]


# certify in a parent, fork, certify in the child: the child drops the
# forking thread's HiGHS object and builds its own LP worker. The parent
# kills a child that does not finish.
FORKED_CERTIFY = """
import json, os, signal, sys, time
import motbounds
ms = motbounds.MarginalSequence([
    motbounds.quantize_lognormal(-s * s / 2, s, 15) for s in (0.1, 0.2, 0.3)
])
cost = motbounds.CostSpec(3, "basket", strike=1.0)

def values():
    rep = motbounds.certify(cost, ms)
    return [rep.passed, rep.primal_lower.value, rep.primal_upper.value,
            [c.dual_value for c in rep.certificates.values()]]

parent = values()
kept = hasattr(motbounds.primal._THREAD, "highs")  # this thread's HiGHS object
read, write = os.pipe()
pid = os.fork()
if pid == 0:
    dropped = not hasattr(motbounds.primal._THREAD, "highs")
    os.write(write, json.dumps([dropped, values()]).encode())
    os._exit(0)
os.close(write)
deadline = time.monotonic() + 60
while not os.waitpid(pid, os.WNOHANG)[0]:
    if time.monotonic() > deadline:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        sys.exit("the forked child's certify did not finish in 60 s")
    time.sleep(0.01)
dropped, child = json.loads(os.read(read, 1 << 16))
print(json.dumps({"parent": parent, "child": child, "kept": kept, "dropped": dropped}))
"""


class TestCertifyOverlap:
    """certify solves its two LP sides at the same time, the upper one on the
    long-lived LP worker, and checks the lower side while the upper one solves."""

    def test_sides_equal_the_sequential_solves(self):
        rng = np.random.default_rng(20261018)
        instances = [lognormal_showcase()]
        instances += [random_instance(rng, n=2 + k % 3, max_size=8) for k in range(20)]
        for cost, ms in instances:
            rep = certify(cost, ms)
            for got, want in ((rep.primal_lower, solve_primal(cost, ms)),
                              (rep.primal_upper, solve_primal_max(cost, ms))):
                assert got.status == want.status == "optimal"
                assert got.value == want.value
                assert got.duals.tobytes() == want.duals.tobytes()
                assert got.coupling.q.tobytes() == want.coupling.q.tobytes()

    @pytest.mark.parametrize("failing_sense", [-1, +1], ids=["upper", "lower"])
    def test_failed_side_reaches_the_caller(self, monkeypatch, failing_sense):
        ms = MarginalSequence([PM1, PM2])
        want = report_values(certify(SQ2, ms))  # the LP worker exists from here on
        solve = certification_module._solve

        def flaky(lp, sense):
            if sense == failing_sense:
                raise RuntimeError(f"solver failed for sense {sense}")
            return solve(lp, sense)

        # certify looks _solve up in its own module, on either thread
        monkeypatch.setattr(certification_module, "_solve", flaky)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"sense {failing_sense}"):
            certify(SQ2, ms)
        monkeypatch.undo()
        assert report_values(certify(SQ2, ms)) == want  # the worker outlives the error
        assert threading.active_count() == before

    def test_one_worker_serves_every_call(self, monkeypatch):
        cost, ms = lognormal_showcase()
        certify(cost, ms)

        def no_thread(*args, **kwargs):
            raise AssertionError("certify started a thread")

        monkeypatch.setattr(threading, "Thread", no_thread)
        rng = np.random.default_rng(25)
        for k in range(50):
            assert certify(*random_instance(rng, n=2 + k % 2, max_size=6)).feasible
            assert len(lp_upper_threads()) == 1

    def test_concurrent_calls_equal_sequential_ones(self):
        # more callers than cores share the one worker, with frequent thread switches
        rng = np.random.default_rng(2025)
        batches = [[lognormal_showcase()] + [random_instance(rng, n=2 + k % 2, max_size=8)
                                             for k in range(4)] for _ in range(4)]
        want = [[report_values(certify(cost, ms)) for cost, ms in batch] for batch in batches]
        got = [None] * len(batches)
        barrier = threading.Barrier(len(batches))

        def run(k):
            barrier.wait()
            got[k] = [report_values(certify(cost, ms)) for cost, ms in batches[k]]

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(batches))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want
        assert len(lp_upper_threads()) == 1

    def test_the_worker_only_solves(self, monkeypatch):
        # cascade._built, what every cascade of an instance shares, is built
        # and read on the thread that calls certify, never on the LP worker
        seen = []
        built = cascade_module._built

        def record(cost, ms):
            seen.append(threading.current_thread().name)
            return built(cost, ms)

        for module in (cascade_module, certification_module):
            monkeypatch.setattr(module, "_built", record)
        rng = np.random.default_rng(38)
        for cost, ms in (random_instance(rng, n=3, max_size=8), lognormal_showcase()):
            rep = certify(cost, ms)
            assert list(rep.certificates) == ["proposition", "remark_b", "remark_a"]
        assert seen and set(seen) == {threading.current_thread().name}
        assert len(lp_upper_threads()) == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_builds_its_own_worker(self):
        done = subprocess.run([sys.executable, "-c", FORKED_CERTIFY], env=checkout_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        seen = json.loads(done.stdout.splitlines()[-1])
        assert seen["parent"][0] is True and seen["child"] == seen["parent"]
        assert seen["kept"] is True and seen["dropped"] is True

    def test_capped_instance_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("certify started a thread")

        monkeypatch.setattr(threading, "Thread", no_thread)
        with pytest.raises(SizeCapError):
            certify(SQ2, MarginalSequence([PM1, PM2]), var_cap=3)

    def test_each_side_times_its_solve(self, rng):
        cost, ms = random_instance(rng, n=3, max_size=6)
        rep = certify(cost, ms)
        for side in (rep.primal_lower, rep.primal_upper):
            assert side.stats["solve_s"] > 0
        payload = json.loads(json.dumps(rep.as_dict()))
        assert payload["primal_lower"]["stats"] == rep.primal_lower.stats
        assert payload["primal_upper"]["stats"] == rep.primal_upper.stats


class TestConfigValidation:
    def test_bad_settings_rejected(self):
        with pytest.raises(ValueError):
            AscentConfig(max_iters=0)
        for iters in (2.5, 3.0, "3"):  # range() could not run them
            with pytest.raises(ValueError, match="max_iters must be a positive integer"):
                AscentConfig(max_iters=iters)
        for gap in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="target_gap"):
                AscentConfig(target_gap=gap)
        with pytest.raises(ValueError, match="unknown variant"):
            AscentConfig(variant="bogus")

    def test_certify_refuses_a_bad_target_gap(self):
        for gap in (0.0, -1.0, float("nan"), float("inf"), True):
            with pytest.raises(ValueError, match="target_gap must be finite and positive"):
                certify(SQ2, MS_SINGLE, target_gap=gap)

    def test_bools_rejected(self):
        # True is an int and compares as 1, but is no iteration count or gap
        for flag in (True, False):
            with pytest.raises(ValueError, match="max_iters must be a positive integer"):
                AscentConfig(max_iters=flag)
            with pytest.raises(ValueError, match="target_gap"):
                AscentConfig(target_gap=flag)

    def test_numpy_integer_max_iters_runs(self, rng):
        cost, ms = random_instance(rng, n=2, max_size=6)
        _, trace = ascend(cost, ms, AscentConfig(max_iters=np.int64(3)))
        assert len(trace) <= 3

    def test_non_finite_or_bool_primal_value_rejected(self):
        # a NaN reference would run reference-free and certify a NaN gap,
        # which DualCertificate.from_dict then refuses
        for run in (ascend, descend_upper):
            for ref in (float("nan"), float("inf"), -float("inf"), np.nan, True):
                with pytest.raises(ValueError, match="primal_value must be a finite number"):
                    run(SQ2, MS_SINGLE, AscentConfig(max_iters=3), primal_value=ref)
