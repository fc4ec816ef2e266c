"""Optimizer runs, certificates, traces, and full certification reports."""

import json

import numpy as np
import pytest

from motbounds import (
    AscentConfig,
    CostSpec,
    DiscreteMeasure,
    DualCertificate,
    DualVariables,
    MarginalSequence,
    ascend,
    certify,
    descend_upper,
    dual_objective,
    quantize_lognormal,
    relative_gap,
    solve_primal,
    solve_primal_max,
)

from conftest import random_instance

D0 = DiscreteMeasure.point(0.0)
PM1 = DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
PM2 = DiscreteMeasure(np.array([-2.0, 2.0]), np.array([0.5, 0.5]))
TRI = DiscreteMeasure(np.array([-2.0, 0.0, 2.0]), np.full(3, 1 / 3))

MS_SINGLE = MarginalSequence([D0, PM1])
SQ2 = CostSpec(2, "squared_increment")


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

    def test_rejects_upper_variant(self):
        with pytest.raises(ValueError, match="lower"):
            ascend(SQ2, MS_SINGLE, AscentConfig(variant="remark_a"))

    def test_runs_without_reference(self):
        ms = MarginalSequence([PM1, TRI])
        cost = CostSpec(2, "abs_increment")
        cert, trace = ascend(cost, ms, AscentConfig(max_iters=300))
        assert trace.status in ("iteration_limit", "converged_stationary")
        assert cert.dual_value <= solve_primal(cost, ms).value + 1e-8


    def test_reference_free_closes_the_showcase_gap(self):
        # criterion-10 basket; the dilated steps need no LP value to get close
        ms = MarginalSequence([quantize_lognormal(-s**2 / 2, s, 15) for s in (0.1, 0.2, 0.3)])
        cost = CostSpec(3, "basket", strike=1.0)
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

    def test_trace_csv(self, tmp_path):
        ms = MarginalSequence([PM1, TRI])
        cost = CostSpec(2, "abs_increment")
        cert, trace = ascend(cost, ms, AscentConfig(max_iters=50))
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,dual_value,grad_norm,elapsed_ms"
        assert len(lines) == len(trace) + 1


class TestCertify:
    def test_hand_instances_tight(self):
        for cost, ms in ((SQ2, MS_SINGLE), (SQ2, MarginalSequence([PM1, PM2]))):
            rep = certify(cost, ms, AscentConfig(target_gap=1e-6))
            assert rep.feasible and rep.passed
            assert all(g < 1e-6 for g in rep.gaps.values())
            assert rep.subhedge_zero.ok and rep.subhedge_best.ok

    def test_infeasible_instance_reported(self):
        ms = MarginalSequence([PM1, D0])
        rep = certify(SQ2, ms)
        assert not rep.feasible
        assert not rep.passed
        assert rep.primal_lower is None

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
        assert rep.passed


class TestConfigValidation:
    def test_bad_settings_rejected(self):
        with pytest.raises(ValueError):
            AscentConfig(max_iters=0)
        with pytest.raises(ValueError):
            AscentConfig(initial_step=0.0)
        with pytest.raises(ValueError, match="unknown variant"):
            AscentConfig(variant="bogus")
