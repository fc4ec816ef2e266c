"""Acceptance gate: each test exercises one stated criterion at its tolerance.

A one-line PASS/FAIL summary per criterion is printed at the end of the run
(see the terminal-summary hook in conftest).
"""

import time

import numpy as np
import pytest

from motbounds import (
    AscentConfig,
    CostSpec,
    DiscreteMeasure,
    DualVariables,
    GridFunction,
    MarginalSequence,
    ascend,
    certify,
    convex_envelope,
    descend_upper,
    dual_objective,
    dual_value_and_subgradient,
    eval_envelope,
    quantize_lognormal,
    relative_gap,
    solve_primal,
    solve_primal_max,
    validate_sequence,
    verify_subhedge,
)

import conftest
from conftest import random_cost, random_duals, random_grid_function, random_marginals
from oracles import biconjugate_eval, brute_force_value

GAP_TOL = 1e-3
WEAK_TOL = 1e-8
EXACT_TOL = 1e-8
SLACK_TOL = 1e-9


def record(criterion: str, ok: bool, detail: str) -> None:
    conftest.ACCEPTANCE_LINES.append(
        f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}"
    )
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def suite50():
    """50 feasible spread-built instances, n in {2, 3}, grid sizes 3..15."""
    rng = np.random.default_rng(20260808)
    entries = []
    while len(entries) < 50:
        n = 2 if len(entries) % 2 == 0 else 3
        ms = random_marginals(rng, n, max_size=15, start_atoms=3)
        if not (3 <= min(ms.sizes) and max(ms.sizes) <= 15):
            continue
        cost = random_cost(rng, ms)
        start = time.perf_counter()
        report = certify(cost, ms)
        entries.append(
            {
                "cost": cost,
                "ms": ms,
                "report": report,
                "elapsed": time.perf_counter() - start,
            }
        )
    return entries


@pytest.fixture(scope="module")
def suite20(suite50):
    """The n = 3 subset reused for the variant-equivalence criteria."""
    return [e for e in suite50 if e["ms"].n == 3][:20]


class TestCriterion01StrongDuality:
    def test_strong_duality_at_desk_scale(self, suite50):
        hits = 0
        for e in suite50:
            rep = e["report"]
            assert rep.feasible, "generated instance must be feasible"
            assert e["elapsed"] < 60.0, f"instance took {e['elapsed']:.1f}s"
            primal = rep.primal_lower.value
            primal_max = rep.primal_upper.value
            for variant in ("proposition", "remark_b"):
                assert rep.certificates[variant].dual_value <= primal + WEAK_TOL
            assert rep.certificates["remark_a"].dual_value >= primal_max - WEAK_TOL
            if rep.gaps["proposition"] < GAP_TOL:
                hits += 1
            else:
                assert "proposition" in rep.missed
        record(
            "criterion 1 (strong duality, 50 instances)",
            hits >= 48,
            f"{hits}/50 closed the relative gap below {GAP_TOL}",
        )


class TestCriterion02HandSolved:
    def test_hand_solved_values(self):
        d0 = DiscreteMeasure.point(0.0)
        pm1 = DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        pm2 = DiscreteMeasure(np.array([-2.0, 2.0]), np.array([0.5, 0.5]))
        sq = CostSpec(2, "squared_increment")
        ok = True

        ms = MarginalSequence([d0, pm1])
        lo = solve_primal(sq, ms)
        cert, _ = ascend(sq, ms, primal_value=lo.value)
        ok &= abs(lo.value - 1.0) < EXACT_TOL and abs(cert.dual_value - 1.0) < EXACT_TOL

        ms = MarginalSequence([pm1, pm2])
        lo = solve_primal(sq, ms)
        cert, _ = ascend(sq, ms, primal_value=lo.value)
        expected_q = np.array([[0.375, 0.125], [0.125, 0.375]])
        ok &= abs(lo.value - 3.0) < EXACT_TOL
        ok &= abs(cert.dual_value - 3.0) < EXACT_TOL
        ok &= bool(np.max(np.abs(lo.coupling.q - expected_q)) < EXACT_TOL)

        ms3 = MarginalSequence([d0, pm1, pm2])
        grids = np.meshgrid(*ms3.grids, indexing="ij", sparse=True)
        cost3 = CostSpec(
            3, "custom_table",
            table=np.broadcast_to((grids[2] - grids[1]) ** 2, ms3.sizes).copy(),
        )
        lo3 = solve_primal(cost3, ms3)
        ok &= abs(lo3.value - 3.0) < EXACT_TOL
        record(
            "criterion 2 (hand-solved exact values)",
            ok,
            "product coupling, 3/8-1/8 coupling, variance identity at 1e-8",
        )


class TestCriterion03WeakDualityFuzz:
    def test_thousand_random_pairs(self):
        rng = np.random.default_rng(31415)
        violations = 0
        checked = 0
        for _ in range(40):
            n = int(rng.integers(2, 4))
            ms = random_marginals(rng, n, max_size=5)
            cost = random_cost(rng, ms)
            lo = solve_primal(cost, ms)
            hi = solve_primal_max(cost, ms)
            for _ in range(25):
                u = random_duals(rng, ms, scale=float(rng.uniform(0.2, 3.0)))
                if dual_objective("proposition", cost, ms, u) > lo.value + WEAK_TOL:
                    violations += 1
                if dual_objective("remark_b", cost, ms, u) > lo.value + WEAK_TOL:
                    violations += 1
                if dual_objective("remark_a", cost, ms, u) < hi.value - WEAK_TOL:
                    violations += 1
                checked += 1
        record(
            "criterion 3 (weak-duality fuzz)",
            checked == 1000 and violations == 0,
            f"{checked} (instance, u) pairs, {violations} violations",
        )


class TestCriterion04VariantEquivalence:
    def test_stepwise_variant_matches(self, suite20):
        assert len(suite20) == 20
        worst = 0.0
        for e in suite20:
            rep = e["report"]
            a = rep.certificates["proposition"].dual_value
            b = rep.certificates["remark_b"].dual_value
            primal = rep.primal_lower.value
            worst = max(
                worst,
                relative_gap(a, b),
                rep.gaps["proposition"],
                rep.gaps["remark_b"],
            )
        record(
            "criterion 4 (deferred-subtraction variant equivalence)",
            worst < GAP_TOL,
            f"20 instances, worst relative deviation {worst:.2e}",
        )


class TestCriterion05UpperBound:
    def test_upper_descent_matches_lp_max(self, suite20):
        worst = max(e["report"].gaps["remark_a"] for e in suite20)
        record(
            "criterion 5 (upper-bound descent)",
            worst < GAP_TOL,
            f"20 instances, worst relative gap {worst:.2e}",
        )


class TestCriterion06Subhedge:
    def test_conditional_subhedge_slacks(self, suite50):
        worst = 0.0
        for e in suite50:
            rep = e["report"]
            worst = min(
                worst if worst else 0.0,
                rep.subhedge_zero.min_slack,
                rep.subhedge_best.min_slack,
            )
            assert rep.subhedge_zero.ok and rep.subhedge_best.ok
        record(
            "criterion 6 (conditional sub-hedging)",
            worst >= -SLACK_TOL,
            f"worst conditional slack {worst:.2e} across 50 certified instances",
        )


class TestCriterion07EnvelopeProperties:
    def test_thousand_random_grid_functions(self):
        rng = np.random.default_rng(27182)
        worst_minorant = 0.0
        worst_affine = 0.0
        worst_path = 0.0
        for _ in range(1000):
            f = random_grid_function(rng, max_len=200, min_len=1)
            env = convex_envelope(f)
            # minorant at the grid points
            hull_at_grid = np.interp(f.grid, env.hull_grid, env.hull_values)
            worst_minorant = max(worst_minorant, float(np.max(hull_at_grid - f.values)))
            # idempotence
            again = convex_envelope(GridFunction(env.hull_grid, env.hull_values))
            assert np.array_equal(again.hull_grid, env.hull_grid)
            assert np.array_equal(again.hull_values, env.hull_values)
            # largest minorant against 100 random affine minorants
            slopes = rng.uniform(-4, 4, size=100)
            intercepts = np.min(
                f.values[None, :] - slopes[:, None] * f.grid[None, :], axis=1
            ) - rng.uniform(0, 0.5, size=100)
            ts = rng.uniform(f.grid[0], f.grid[-1], size=100)
            hull_at_ts = np.interp(ts, env.hull_grid, env.hull_values)
            affine_at_ts = slopes[:, None] * ts[None, :] + intercepts[:, None]
            worst_affine = max(
                worst_affine, float(np.max(affine_at_ts - hull_at_ts[None, :]))
            )
            # conjugate path agreement at a random point
            t = float(rng.uniform(f.grid[0], f.grid[-1]))
            worst_path = max(
                worst_path, abs(biconjugate_eval(f, t) - eval_envelope(env, t))
            )
        ok = worst_minorant <= 1e-12 and worst_affine <= 1e-12 and worst_path < 1e-9
        record(
            "criterion 7 (envelope property suite)",
            ok,
            f"1000 grids: minorant {worst_minorant:.1e}, affine {worst_affine:.1e}, "
            f"path split {worst_path:.1e}",
        )


class TestCriterion08OracleEquivalence:
    @staticmethod
    def sized_chain(rng, shape):
        """Spread chain with exactly the requested atom counts per marginal."""
        from motbounds import split_atom

        mu = DiscreteMeasure.point(float(rng.uniform(-2, 2)))
        for _ in range(shape[0] - 1):
            mu = split_atom(mu, int(rng.integers(len(mu))), float(rng.uniform(0.3, 1.2)))
        marginals = [mu]
        for target in shape[1:]:
            nxt = marginals[-1]
            for _ in range(target - len(nxt)):
                nxt = split_atom(nxt, int(rng.integers(len(nxt))), float(rng.uniform(0.3, 1.2)))
            marginals.append(nxt)
        ms = MarginalSequence(marginals)
        assert ms.sizes == shape and validate_sequence(ms).ok
        return ms

    def test_vertex_enumeration_matches_simplex(self):
        rng = np.random.default_rng(16180)
        shapes2 = [(2, 3), (3, 3), (2, 4), (3, 4), (4, 4), (3, 5)]
        shapes3 = [(1, 2, 3), (1, 3, 3), (2, 2, 3), (1, 2, 4), (1, 4, 4), (2, 3, 3)]
        worst = 0.0
        count = 0
        for shape in shapes2 + shapes3:
            ms = self.sized_chain(rng, shape)
            cost = random_cost(rng, ms)
            assert ms.path_count <= 64
            lp_value = solve_primal(cost, ms).value
            bf_value = brute_force_value(cost, ms)
            worst = max(worst, abs(lp_value - bf_value))
            count += 1
        record(
            "criterion 8 (vertex-enumeration oracle)",
            count >= 10 and worst < EXACT_TOL,
            f"{count} instances up to 64 paths, worst |lp - enumeration| {worst:.2e}",
        )


class TestCriterion09GradientCheck:
    def test_central_differences(self):
        rng = np.random.default_rng(14142)
        step = 1e-6
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(2, 4))
            ms = random_marginals(rng, n, max_size=5)
            cost = random_cost(rng, ms)
            u = random_duals(rng, ms, scale=0.7)
            grads = dual_value_and_subgradient("proposition", cost, ms, u)[1]
            for i in range(ms.n - 1):
                for j in range(len(ms[i + 1])):
                    tables = u.tables()
                    tables[i][j] += step
                    up = dual_objective("proposition", cost, ms,
                                        DualVariables.from_tables(ms, tables))
                    tables[i][j] -= 2 * step
                    down = dual_objective("proposition", cost, ms,
                                          DualVariables.from_tables(ms, tables))
                    worst = max(worst, abs(grads[i][j] - (up - down) / (2 * step)))
        record(
            "criterion 9 (finite-difference gradient check)",
            worst < 1e-4,
            f"20 instances, worst componentwise deviation {worst:.2e}",
        )


class TestCriterion10LognormalShowcase:
    # regression anchors: deterministic LP optima of the quantized instance
    ANCHOR_LOWER = 0.05557820586252965
    ANCHOR_UPPER = 0.07759932619178003

    def test_quantized_basket_certifies(self):
        scales = (0.1, 0.2, 0.3)
        ms = MarginalSequence(
            [quantize_lognormal(-s**2 / 2, s, 15) for s in scales]
        )
        assert validate_sequence(ms).ok
        cost = CostSpec(3, "basket", strike=1.0)
        start = time.perf_counter()
        report = certify(cost, ms)
        elapsed = time.perf_counter() - start
        ok = (
            report.feasible
            and elapsed < 300.0
            and all(g < GAP_TOL for g in report.gaps.values())
            and abs(report.primal_lower.value - self.ANCHOR_LOWER) < 1e-9
            and abs(report.primal_upper.value - self.ANCHOR_UPPER) < 1e-9
        )
        record(
            "criterion 10 (lognormal basket showcase)",
            ok,
            f"gaps {max(report.gaps.values()):.2e}, value {report.primal_lower.value:.8f}, "
            f"{elapsed:.0f}s",
        )
