"""LP assembly, HiGHS solve, vertex-enumeration oracle, semi-static check."""

import numpy as np
import pytest
from scipy import sparse

from motbounds import (
    CostSpec,
    DiscreteMeasure,
    MarginalSequence,
    SizeCapError,
    assemble_lp,
    brute_force_value,
    multipliers_to_semistatic,
    semistatic_value_check,
    solve_primal,
    solve_primal_max,
    validate_coupling,
)

from conftest import random_instance

D0 = DiscreteMeasure.point(0.0)
PM1 = DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
PM2 = DiscreteMeasure(np.array([-2.0, 2.0]), np.array([0.5, 0.5]))

MS_SINGLE = MarginalSequence([D0, PM1])
MS_PAIR = MarginalSequence([PM1, PM2])
SQ2 = CostSpec(2, "squared_increment")


def last_step_squared(n):
    """Cost (x_n - x_{n-1})^2 as a table builder for arbitrary marginals."""

    def build(ms):
        grids = np.meshgrid(*ms.grids, indexing="ij", sparse=True)
        return CostSpec(
            ms.n, "custom_table",
            table=np.broadcast_to((grids[-1] - grids[-2]) ** 2, ms.sizes).copy(),
        )

    return build


def negated(cost, ms):
    """The payoff -c as a table on the grid of ms."""
    return CostSpec(ms.n, "custom_table", table=-cost.tensor_on(ms))


class TestAssembleLp:
    def test_sparse_storage(self):
        lp = assemble_lp(CostSpec(3, "basket", strike=0.0), MarginalSequence([D0, PM1, PM2]))
        assert sparse.issparse(lp.A)
        assert lp.A.nnz == lp.n_paths * (2 * 3 - 1)  # one entry per path in every block
        q = np.array([[[0.375, 0.125], [0.125, 0.375]]])  # 0 -> +-1 -> +-2, a martingale
        np.testing.assert_allclose(lp.A @ q.ravel(), lp.b, atol=1e-15)

    def test_two_period_row_counts(self):
        lp = assemble_lp(SQ2, MS_SINGLE)
        assert lp.n_paths == 2
        marginal_rows = [l for l in lp.row_labels if l[0] == "marginal"]
        martingale_rows = [l for l in lp.row_labels if l[0] == "martingale"]
        assert len(marginal_rows) == 3
        assert len(martingale_rows) == 1

    def test_three_period_row_counts(self):
        ms = MarginalSequence([D0, PM1, PM1])
        lp = assemble_lp(CostSpec(3, "basket", strike=0.0), ms)
        assert lp.n_paths == 4
        assert sum(1 for l in lp.row_labels if l[0] == "marginal") == 5
        assert sum(1 for l in lp.row_labels if l[0] == "martingale") == 3  # 1 + 2

    def test_var_cap(self):
        with pytest.raises(SizeCapError):
            assemble_lp(SQ2, MS_SINGLE, var_cap=1)

    def test_infeasible_order_reported_by_lp(self):
        ms = MarginalSequence([PM1, D0])  # support shrinks: no martingale exists
        assert solve_primal(SQ2, ms).status == "infeasible"


class TestSolvePrimal:
    def test_unique_product_coupling(self):
        sol = solve_primal(SQ2, MS_SINGLE)
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(sol.coupling.q, [[0.5, 0.5]], atol=1e-10)

    def test_symmetric_pair_value_and_coupling(self):
        sol = solve_primal(SQ2, MS_PAIR)
        assert sol.value == pytest.approx(3.0, abs=1e-10)
        expected = np.array([[0.375, 0.125], [0.125, 0.375]])
        assert np.allclose(sol.coupling.q, expected, atol=1e-8)

    def test_three_period_variance_identity(self):
        ms = MarginalSequence([D0, PM1, PM2])
        sol = solve_primal(last_step_squared(3)(ms), ms)
        # E (x_3 - x_2)^2 = E x_3^2 - E x_2^2 = 4 - 1 for every coupling
        assert sol.value == pytest.approx(3.0, abs=1e-10)

    def test_coupling_feasibility(self, rng):
        for n in (2, 3):
            for _ in range(5):
                cost, ms = random_instance(rng, n=n, max_size=6)
                sol = solve_primal(cost, ms)
                assert sol.status == "optimal"
                assert validate_coupling(sol.coupling, ms).ok

    def test_value_recomputes_from_coupling(self, rng):
        cost, ms = random_instance(rng, n=2, max_size=8)
        sol = solve_primal(cost, ms)
        assert sol.value == pytest.approx(
            float((sol.coupling.q * cost.tensor_on(ms)).sum()), abs=1e-10
        )

    def test_atom_order_invariance(self):
        shuffled = MarginalSequence(
            [
                DiscreteMeasure(np.array([1.0, -1.0]), np.array([0.5, 0.5])),
                DiscreteMeasure(np.array([2.0, -2.0]), np.array([0.5, 0.5])),
            ]
        )
        assert solve_primal(SQ2, shuffled).value == pytest.approx(3.0, abs=1e-10)

    def test_seed_13_basket_lower_lp(self):
        # degenerate basket LP: a dense tableau simplex once reported an
        # infeasible vertex of it as optimal, with value 0.056463
        ms = MarginalSequence([
            DiscreteMeasure(
                np.array([0.26457738333352687, 1.729317829280829, 1.7547253377682224]),
                np.array([0.25, 0.5, 0.25]),
            ),
            DiscreteMeasure(
                np.array([-0.6494002869708894, -0.40689661580125713, 0.10763336283068703,
                          0.42597444092400527, 0.7965389221561162, 1.2373384526759525,
                          1.5389740071456335, 1.7805324663525783, 1.9704766683908113,
                          1.981211617111276, 2.3553822049233664]),
                np.array([0.015625, 0.125, 0.015625, 0.125, 0.03125, 0.03125, 0.125,
                          0.125, 0.125, 0.03125, 0.25]),
            ),
            DiscreteMeasure(
                np.array([-1.482697065784457, -0.7127677913677848, -0.40689661580125713,
                          -0.22567644366515915, -0.17645984706615642, 0.10763336283068703,
                          0.42597444092400527, 0.7965389221561162, 1.2373384526759525,
                          1.5389740071456335, 1.7805324663525783, 1.9704766683908113,
                          1.981211617111276, 2.0209384713607874, 2.6898259384859453]),
                np.array([0.00390625, 0.00390625, 0.125, 0.00390625, 0.00390625, 0.015625,
                          0.125, 0.03125, 0.03125, 0.125, 0.125, 0.125, 0.03125, 0.125,
                          0.125]),
            ),
        ])
        cost = CostSpec(3, "basket", strike=1.8821647702172535)
        sol = solve_primal(cost, ms)
        assert sol.status == "optimal"
        assert validate_coupling(sol.coupling, ms).ok
        u, deltas = multipliers_to_semistatic(sol, ms)
        assert semistatic_value_check(cost, ms, u, deltas) == pytest.approx(sol.value, abs=1e-9)
        assert sol.value == pytest.approx(0.056113276037061253, abs=1e-9)


class TestSolvePrimalMax:
    def test_singleton_polytope(self):
        lo = solve_primal(SQ2, MS_SINGLE)
        hi = solve_primal_max(SQ2, MS_SINGLE)
        assert hi.value == pytest.approx(lo.value, abs=1e-10)

    def test_constant_cost(self, rng):
        _, ms = random_instance(rng, n=2, max_size=6)
        kappa = 2.5
        cost = CostSpec(2, "custom_table", table=np.full(ms.sizes, kappa))
        assert solve_primal(cost, ms).value == pytest.approx(kappa, abs=1e-10)
        assert solve_primal_max(cost, ms).value == pytest.approx(kappa, abs=1e-10)

    def test_max_at_least_min(self, rng):
        for _ in range(5):
            cost, ms = random_instance(rng, n=2, max_size=8)
            assert solve_primal_max(cost, ms).value >= solve_primal(cost, ms).value - 1e-10


class TestAffineCostShift:
    def test_affine_in_one_coordinate_shifts_value(self, rng):
        for _ in range(5):
            cost, ms = random_instance(rng, n=2, max_size=6)
            a, b = rng.uniform(-2, 2, size=2)
            i = int(rng.integers(ms.n))
            grids = np.meshgrid(*ms.grids, indexing="ij", sparse=True)
            table = cost.tensor_on(ms) + a + b * grids[i]
            shifted = CostSpec(ms.n, "custom_table", table=np.broadcast_to(table, ms.sizes).copy())
            base = solve_primal(cost, ms)
            moved = solve_primal(shifted, ms)
            assert moved.value == pytest.approx(base.value + a + b * ms[0].mean, abs=1e-8)
            assert validate_coupling(moved.coupling, ms).ok


class TestBruteForce:
    def test_two_variable_instance(self):
        assert brute_force_value(SQ2, MS_SINGLE) == pytest.approx(1.0, abs=1e-10)

    def test_four_variable_instance(self):
        assert brute_force_value(SQ2, MS_PAIR) == pytest.approx(3.0, abs=1e-10)

    def test_zero_cost(self):
        cost = CostSpec(2, "custom_table", table=np.zeros((2, 2)))
        assert brute_force_value(cost, MS_PAIR) == pytest.approx(0.0, abs=1e-12)

    def test_matches_simplex_on_small_instances(self, rng):
        for _ in range(8):
            cost, ms = random_instance(rng, n=2, max_size=4)
            if ms.path_count > 16:
                continue
            assert brute_force_value(cost, ms) == pytest.approx(
                solve_primal(cost, ms).value, abs=1e-8
            )

    def test_path_cap(self):
        ms = MarginalSequence([PM1, PM2])
        with pytest.raises(SizeCapError):
            brute_force_value(SQ2, ms, path_cap=2)


class TestSimplexAgainstScipy:
    """HiGHS answers checked by certificates that do not come from the solver."""

    def test_transport_lps_match_highs(self, rng):
        # larger spread chains produce nearly coincident atoms, hence
        # martingale rows with tiny coefficients; each side must return a
        # feasible plan and multipliers dominated by the cost whose value
        # equals the LP value (primal and dual feasibility, zero gap)
        for k in range(10):
            cost, ms = random_instance(rng, n=2 + k % 2, max_size=14, start_atoms=3)
            for solve in (solve_primal, solve_primal_max):
                sol = solve(cost, ms)
                assert sol.status == "optimal"
                assert validate_coupling(sol.coupling, ms).ok
                u, deltas = multipliers_to_semistatic(sol, ms)
                if solve is solve_primal_max:  # a super-hedge of c is a sub-hedge of -c
                    value = -semistatic_value_check(
                        negated(cost, ms), ms, [-t for t in u], [-d for d in deltas])
                else:
                    value = semistatic_value_check(cost, ms, u, deltas)
                assert value == pytest.approx(sol.value, abs=1e-9)

    def test_infeasible_system(self):
        # mu_1 wider than mu_2: not in convex order, so no martingale coupling
        assert solve_primal(SQ2, MarginalSequence([PM2, PM1])).status == "infeasible"


class TestSemistatic:
    def test_zero_position_under_nonnegative_cost(self):
        u = [np.zeros(1), np.zeros(2)]
        deltas = [np.zeros((1,))]
        value = semistatic_value_check(SQ2, MS_SINGLE, u, deltas)
        assert value == 0.0
        assert value <= solve_primal(SQ2, MS_SINGLE).value + 1e-8

    def test_constant_minorant(self):
        u = [np.full(2, -1.0), np.zeros(2)]
        deltas = [np.zeros((2,))]
        value = semistatic_value_check(SQ2, MS_PAIR, u, deltas)
        assert value == pytest.approx(-1.0)
        assert value <= solve_primal(SQ2, MS_PAIR).value

    def test_violation_detected(self):
        u = [np.full(1, 10.0), np.zeros(2)]
        deltas = [np.zeros((1,))]
        with pytest.raises(ValueError, match="exceeds"):
            semistatic_value_check(SQ2, MS_SINGLE, u, deltas)

    def test_lp_multipliers_reconstruct_optimum(self, rng):
        for n in (2, 3):
            for _ in range(5):
                cost, ms = random_instance(rng, n=n, max_size=5)
                sol = solve_primal(cost, ms)
                u, deltas = multipliers_to_semistatic(sol, ms)
                value = semistatic_value_check(cost, ms, u, deltas)
                assert value == pytest.approx(sol.value, abs=1e-8)


class TestCouplingValidation:
    def test_accepts_exact_coupling(self):
        q = np.array([[0.375, 0.125], [0.125, 0.375]])
        assert validate_coupling(q, MS_PAIR).ok

    def test_rejects_wrong_marginal(self):
        q = np.array([[0.5, 0.25], [0.0, 0.25]])
        report = validate_coupling(q, MS_PAIR)
        assert not report.ok
        assert max(report.marginal_errors) > 1e-3

    def test_rejects_comonotone_plan(self):
        q = np.array([[0.5, 0.0], [0.0, 0.5]])  # right marginals, drifting paths
        report = validate_coupling(q, MS_PAIR)
        assert not report.ok
        assert report.martingale_error > 1e-3

    def test_rejects_drift(self):
        q = np.array([[0.25, 0.25], [0.25, 0.25]])  # right marginals, no martingale
        report = validate_coupling(q, MS_PAIR)
        assert not report.ok
        assert report.martingale_error > 1e-3
