"""LP assembly, HiGHS solve, vertex-enumeration oracle, semi-static check."""

import threading

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from motbounds import (
    CostSpec,
    Coupling,
    DiscreteMeasure,
    MarginalSequence,
    SizeCapError,
    assemble_lp,
    multipliers_to_semistatic,
    solve_primal,
    solve_primal_max,
    validate_coupling,
)
import motbounds.primal as primal_module
from motbounds.primal import _solve

from conftest import lognormal_showcase, random_instance
from oracles import brute_force_value, lp_matrix, semistatic_value_check, support_rows

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
        assert lp.indices.dtype == lp.indptr.dtype == np.int32  # HiGHS's integer, no conversion
        assert lp.data.size == lp.n_paths * (2 * 3 - 1)  # one entry per path in every block
        q = np.array([[[0.375, 0.125], [0.125, 0.375]]])  # 0 -> +-1 -> +-2, a martingale
        np.testing.assert_allclose(lp_matrix(lp) @ q.ravel(), lp.b, atol=1e-15)

    def test_scipy_reads_the_arrays_as_numpy_does(self):
        rng = np.random.default_rng(7)
        for cost, ms in [random_instance(rng, n=2 + k % 3, max_size=6) for k in range(12)]:
            lp = assemble_lp(cost, ms)
            assert lp.A.format == "csc" and lp.A.shape == (lp.n_rows, lp.n_paths)
            np.testing.assert_array_equal(lp.A.toarray(), lp_matrix(lp))

    @staticmethod
    def coo_matrix(ms):
        """The constraint matrix from (row, path, coefficient) triplets, block by block."""
        paths = np.arange(ms.path_count)
        atom = np.unravel_index(paths, ms.sizes)
        rows, cols, coefs = [], [], []
        offset = 0
        for i in range(ms.n):  # marginal blocks: one row per atom of mu_i
            rows.append(offset + atom[i])
            coefs.append(np.ones(paths.size))
            offset += ms.sizes[i]
        for i in range(ms.n - 1):  # martingale blocks: one row per prefix x_1..x_{i+1}
            rows.append(offset + np.ravel_multi_index(atom[: i + 1], ms.sizes[: i + 1]))
            coefs.append(ms.grids[i + 1][atom[i + 1]] - ms.grids[i][atom[i]])
            offset += int(np.prod(ms.sizes[: i + 1]))
        cols = np.tile(paths, len(rows))
        return sparse.coo_array((np.concatenate(coefs), (np.concatenate(rows), cols)),
                                shape=(offset, paths.size)).tocsc()

    def test_csc_layout_matches_the_coo_build(self):
        rng = np.random.default_rng(2020)
        instances = [lognormal_showcase()] + [random_instance(rng, n=2 + k % 3, max_size=9)
                                              for k in range(50)]
        for cost, ms in instances:
            lp, expected = assemble_lp(cost, ms), self.coo_matrix(ms)
            assert (lp.n_rows, lp.n_paths) == expected.shape
            for name in ("indptr", "indices", "data"):
                got, want = getattr(lp, name), getattr(expected, name)
                np.testing.assert_array_equal(got, want, err_msg=name)

    def test_two_period_row_counts(self):
        lp = assemble_lp(SQ2, MS_SINGLE)
        assert lp.n_paths == 2
        assert lp.n_rows == 3 + 1  # marginal blocks of 1 and 2 atoms, then one prefix
        weights = [mu.weights for mu in MS_SINGLE]
        np.testing.assert_array_equal(lp.b, np.concatenate(weights + [[0.0]]))

    def test_three_period_row_counts(self):
        ms = MarginalSequence([D0, PM1, PM1])
        lp = assemble_lp(CostSpec(3, "basket", strike=0.0), ms)
        assert lp.n_paths == 4
        assert lp.n_rows == 5 + 3  # marginal blocks of 1 + 2 + 2 atoms, then prefixes 1 + 2
        np.testing.assert_array_equal(lp.b[5:], np.zeros(3))

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


class TestHighsBindingsAgainstLinprog:
    """_solve calls scipy's private HiGHS bindings with HiGHS's default
    options, which solve as linprog(method="highs") does, so linprog is an
    exact oracle for every field of a model that HiGHS loads."""

    LINPROG_STATUS = {0: "optimal", 1: "iteration_limit", 2: "infeasible", 3: "unbounded"}

    def assert_matches_linprog(self, lp):
        for sense in (+1, -1):
            sol = _solve(lp, sense)
            res = linprog(sense * lp.c, A_eq=lp.A, b_eq=lp.b, bounds=(0, None), method="highs")
            assert sol.status == self.LINPROG_STATUS.get(res.status, "failed")
            assert sol.stats["iterations"] == res.nit
            if res.status != 0:
                assert sol.coupling is None and sol.duals is None and np.isnan(sol.value)
                continue
            assert sol.value == float(np.dot(lp.c, res.x))
            paths = np.flatnonzero(res.x > 0)
            np.testing.assert_array_equal(sol.coupling.paths, paths)
            np.testing.assert_array_equal(sol.coupling.mass, res.x[paths])
            np.testing.assert_array_equal(sol.duals, sense * res.eqlin.marginals)

    def test_random_lps(self):
        rng = np.random.default_rng(5)
        for k in range(40):
            cost, ms = random_instance(rng, n=2 + k % 3)
            self.assert_matches_linprog(assemble_lp(cost, ms))

    def test_infeasible_pair(self):
        lp = assemble_lp(SQ2, MarginalSequence([PM2, PM1]))
        assert _solve(lp, +1).status == _solve(lp, -1).status == "infeasible"
        self.assert_matches_linprog(lp)

    def test_model_highs_refuses_to_load(self):
        # a martingale coefficient of 1e16 is past HiGHS's largest matrix
        # entry, so the model never loads; linprog calls that infeasible,
        # though the marginals are in convex order
        wide = DiscreteMeasure(np.array([-1e16, 1e16]), np.array([0.5, 0.5]))
        lp = assemble_lp(CostSpec(2, "abs_increment"), MarginalSequence([D0, wide]))
        for sense in (+1, -1):
            sol = _solve(lp, sense)
            assert sol.status == "model_error"
            assert sol.coupling is None and sol.duals is None and np.isnan(sol.value)
            assert sol.stats["iterations"] == 0
            assert sol.stats["max_primal_infeasibility"] is None
            assert sol.stats["max_dual_infeasibility"] is None


    def test_thread_options_solve_as_fresh_ones(self, monkeypatch):
        # each thread builds its HiGHS options once; a refused model, an
        # infeasible one and both senses of the showcase come between, and
        # every solve is the same to the bit as one from freshly built options
        rng = np.random.default_rng(11)
        wide = DiscreteMeasure(np.array([-1e16, 1e16]), np.array([0.5, 0.5]))
        lps = [assemble_lp(*lognormal_showcase()),
               assemble_lp(CostSpec(2, "abs_increment"), MarginalSequence([D0, wide])),
               assemble_lp(SQ2, MarginalSequence([PM2, PM1]))]
        lps += [assemble_lp(*random_instance(rng, n=2 + k % 3)) for k in range(20)]
        _solve(lps[-1], +1)
        options = primal_module._THREAD.options
        for lp in lps:
            for sense in (+1, -1):
                kept = _solve(lp, sense)
                assert primal_module._THREAD.options is options
                with monkeypatch.context() as m:
                    m.setattr(primal_module, "_THREAD", threading.local())
                    fresh = _solve(lp, sense)
                assert kept.status == fresh.status
                assert kept.value == fresh.value or np.isnan(kept.value) and np.isnan(fresh.value)
                stats = [{k: v for k, v in sol.stats.items() if k != "solve_s"}
                         for sol in (kept, fresh)]
                assert stats[0] == stats[1]
                if kept.status == "optimal":
                    assert kept.duals.tobytes() == fresh.duals.tobytes()
                    assert kept.coupling.paths.tobytes() == fresh.coupling.paths.tobytes()
                    assert kept.coupling.mass.tobytes() == fresh.coupling.mass.tobytes()


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

    def test_decoded_tables_pay_what_the_rows_pay(self, rng):
        # A^T y is the semi-static payoff of the multipliers on each path;
        # the decoded tables must pay the same, path by path
        for n in (2, 3, 4):
            cost, ms = random_instance(rng, n=n, max_size=5)
            sol = solve_primal(cost, ms)
            u, deltas = multipliers_to_semistatic(sol, ms)
            grids = np.meshgrid(*ms.grids, indexing="ij", sparse=True)
            pay = sum(t.reshape((1,) * i + (-1,) + (1,) * (n - i - 1)) for i, t in enumerate(u))
            for j, d in enumerate(deltas):
                pay = pay + d.reshape(d.shape + (1,) * (n - j - 1)) * (grids[j + 1] - grids[j])
            np.testing.assert_allclose(lp_matrix(assemble_lp(cost, ms)).T @ sol.duals, pay.ravel(),
                                       rtol=0, atol=1e-12)

    def test_multiplier_count_must_match_the_rows(self, rng):
        cost, ms = random_instance(rng, n=3, max_size=5)
        sol = solve_primal(cost, ms)
        with pytest.raises(ValueError, match="multipliers for an LP"):
            multipliers_to_semistatic(sol, MarginalSequence(ms.marginals[:2]))


class TestCouplingValidation:
    def test_accepts_exact_coupling(self):
        q = Coupling((2, 2), np.arange(4), np.array([0.375, 0.125, 0.125, 0.375]))
        assert validate_coupling(q, MS_PAIR).ok

    def test_rejects_wrong_marginal(self):
        q = support_rows([[0.5, 0.25], [0.0, 0.25]])
        report = validate_coupling(q, MS_PAIR)
        assert not report.ok
        assert max(report.marginal_errors) > 1e-3

    def test_rejects_comonotone_plan(self):
        q = support_rows([[0.5, 0.0], [0.0, 0.5]])  # right marginals, drifting paths
        report = validate_coupling(q, MS_PAIR)
        assert not report.ok
        assert report.martingale_error > 1e-3

    def test_rejects_drift(self):
        q = support_rows([[0.25, 0.25], [0.25, 0.25]])  # right marginals, no martingale
        report = validate_coupling(q, MS_PAIR)
        assert not report.ok
        assert report.martingale_error > 1e-3

    def test_rejects_signed_plan(self):
        # right marginals and zero drift on every prefix, but two paths carry mass -1/4
        ms = MarginalSequence([D0, PM1, DiscreteMeasure(np.array([-2.0, 0.0, 2.0]),
                                                        np.array([0.25, 0.5, 0.25]))])
        report = validate_coupling(support_rows([[[0.5, -0.25, 0.25], [-0.25, 0.75, 0.0]]]), ms)
        assert not report.ok
        assert report.negative_mass == 0.25
        assert report.mass_error == max(report.marginal_errors) == report.martingale_error == 0.0
        assert "negative_mass=2.500e-01" in report.summary()

    def test_rejects_perturbed_lp_coupling(self, rng):
        # a null-space step of the LP rows keeps every marginal and drift, not the sign
        cost, ms = random_instance(rng, n=3, max_size=5)
        lp = assemble_lp(cost, ms)
        x = solve_primal(cost, ms).coupling.q.ravel()
        A = lp_matrix(lp)
        _, _, vt = np.linalg.svd(A)
        assert np.abs(A @ vt[-1]).max() < 1e-12  # more paths than independent rows
        k = np.argmax(np.abs(vt[-1]))
        moved = x - 2.0 * vt[-1] / vt[-1][k]  # path k loses 2, so its mass is below -1
        paths = np.flatnonzero(moved)
        report = validate_coupling(Coupling(ms.sizes, paths, moved[paths]), ms)
        assert not report.ok
        assert report.negative_mass >= 1.0
        assert report.martingale_error < 1e-8

    def test_path_listed_twice_counts_both_masses(self):
        q = Coupling((2, 2), np.array([3, 0, 1, 2, 0, 3]),
                     np.array([0.125, 0.125, 0.125, 0.125, 0.25, 0.25]))
        np.testing.assert_array_equal(q.q, [[0.375, 0.125], [0.125, 0.375]])
        assert validate_coupling(q, MS_PAIR) == validate_coupling(support_rows(q.q), MS_PAIR)
        assert validate_coupling(q, MS_PAIR).ok

    @pytest.mark.parametrize("path", [4, -1])
    def test_path_off_the_grid_raises(self, path):
        q = Coupling((2, 2), np.array([0, 1, 2, path]), np.full(4, 0.25))
        with pytest.raises(ValueError):
            validate_coupling(q, MS_PAIR)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="does not match grids"):
            validate_coupling(Coupling((2, 3), np.arange(4), np.full(4, 0.25)), MS_PAIR)

    def test_raw_array_refused(self):
        with pytest.raises(TypeError, match="expected a Coupling"):
            validate_coupling(np.array([[0.375, 0.125], [0.125, 0.375]]), MS_PAIR)

    def test_lp_coupling_is_its_positive_rows(self, rng):
        cost, ms = random_instance(rng, n=3, max_size=5)
        coupling = solve_primal(cost, ms).coupling
        assert coupling.shape == ms.sizes
        assert np.all(coupling.mass > 0)
        assert np.all(np.diff(coupling.paths) > 0)
        atoms = coupling.atoms()
        np.testing.assert_array_equal(coupling.q[atoms], coupling.mass)
        assert np.count_nonzero(coupling.q) == coupling.paths.size
