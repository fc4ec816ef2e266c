"""LP assembly, HiGHS solve, vertex-enumeration oracle, semi-static check."""

import json
import threading
import time
from types import SimpleNamespace

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
    certify,
    multipliers_to_semistatic,
    solve_primal,
    solve_primal_max,
    validate_coupling,
    validate_sequence,
)
import motbounds.primal as primal_module
from motbounds import cli
from motbounds.primal import (ITERATIONS_PER_SIZE, PRESOLVE_FROM_PERIODS, PRIMAL_FROM_PATHS,
                              _implied_rows, _solve)

from conftest import (criterion1_instance, instance_payload, lognormal_basket, lognormal_showcase,
                      random_instance, spread_measure)
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


def equilibrated(lp):
    """The method an LP of PRIMAL_FROM_PATHS columns or more is solved by:
    HiGHS's presolve runs from PRESOLVE_FROM_PERIODS periods up."""
    if len(lp.grid_shape) >= PRESOLVE_FROM_PERIODS:
        return "primal simplex, equilibrated"
    return "primal simplex, equilibrated, no presolve"


def assert_solution_checks_out(sol, sense, cost, ms):
    """An optimal solve's coupling validates, and its multipliers price the LP value to 1e-9."""
    assert validate_coupling(sol.coupling, ms).ok
    u, deltas = multipliers_to_semistatic(sol, ms)
    if sense == -1:  # a super-hedge of c is a sub-hedge of -c
        value = -semistatic_value_check(negated(cost, ms), ms, [-t for t in u], [-d for d in deltas])
    else:
        value = semistatic_value_check(cost, ms, u, deltas)
    assert abs(value - sol.value) <= 1e-9


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
    """_solve calls scipy's private HiGHS bindings. Below PRIMAL_FROM_PATHS
    columns it uses HiGHS's default options, which solve as
    linprog(method="highs") does, so linprog is an exact oracle for every
    field of a model that HiGHS loads. From PRIMAL_FROM_PATHS columns up it
    solves the equilibrated LP by primal simplex, which may end at another
    optimal vertex: linprog then checks the status and the value, and the
    coupling and the multipliers are checked on their own."""

    LINPROG_STATUS = {0: "optimal", 1: "iteration_limit", 2: "infeasible", 3: "unbounded"}

    def assert_matches_linprog(self, lp, cost=None, ms=None):
        for sense in (+1, -1):
            sol = _solve(lp, sense)
            res = linprog(sense * lp.c, A_eq=lp.A, b_eq=lp.b, bounds=(0, None), method="highs")
            assert sol.status == self.LINPROG_STATUS.get(res.status, "failed")
            if res.status != 0:
                assert sol.coupling is None and sol.duals is None and np.isnan(sol.value)
            if lp.n_paths >= PRIMAL_FROM_PATHS:
                assert sol.stats["method"] == equilibrated(lp)
                if res.status == 0:
                    assert abs(sol.value - float(np.dot(lp.c, res.x))) <= 1e-9
                    assert_solution_checks_out(sol, sense, cost, ms)
                continue
            assert sol.stats["method"] == "dual simplex"
            assert sol.stats["iterations"] == res.nit
            if res.status != 0:
                continue
            assert sol.value == float(np.dot(lp.c, res.x))
            paths = np.flatnonzero(res.x > 0)
            np.testing.assert_array_equal(sol.coupling.paths, paths)
            np.testing.assert_array_equal(sol.coupling.mass, res.x[paths])
            np.testing.assert_array_equal(sol.duals, sense * res.eqlin.marginals)

    def test_random_lps(self):
        rng = np.random.default_rng(5)
        sizes = []
        for k in range(40):
            cost, ms = random_instance(rng, n=2 + k % 3)
            self.assert_matches_linprog(assemble_lp(cost, ms), cost, ms)
            sizes.append(ms.path_count)
        assert min(sizes) < PRIMAL_FROM_PATHS <= max(sizes)  # both paths are checked

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
        # each thread builds its HiGHS object once, and each solve sets its
        # options on it; a refused model, an infeasible one, both senses of
        # the showcase (no presolve), an n = 4 LP (presolve), a small LP
        # between two showcases (dual simplex right after primal, and primal
        # right after dual) and LPs on either side of PRIMAL_FROM_PATHS come
        # between, and every solve is the same to the bit as one on a fresh
        # object
        rng = np.random.default_rng(11)
        wide = DiscreteMeasure(np.array([-1e16, 1e16]), np.array([0.5, 0.5]))
        showcase = assemble_lp(*lognormal_showcase())
        lps = [showcase, assemble_lp(SQ2, MS_PAIR), showcase,
               assemble_lp(*lognormal_basket(4, 6)),
               assemble_lp(CostSpec(2, "abs_increment"), MarginalSequence([D0, wide])),
               assemble_lp(SQ2, MarginalSequence([PM2, PM1]))]
        lps += [assemble_lp(*random_instance(rng, n=2 + k % 3)) for k in range(20)]
        assert {lp.n_paths >= PRIMAL_FROM_PATHS for lp in lps[6:]} == {False, True}
        # the thread's one HiGHS object, reloaded per solve
        highs = primal_module._thread_highs(primal_module._highs())
        methods = []
        for lp in lps:
            for sense in (+1, -1):
                kept = _solve(lp, sense)
                methods.append(kept.stats["method"] if kept.status == "optimal" else None)
                assert primal_module._THREAD.highs is highs
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
        orders = set(zip(methods, methods[1:]))
        primal = "primal simplex, equilibrated, no presolve"
        assert {(primal, "dual simplex"), ("dual simplex", primal)} <= orders


    def test_the_showcase_solves_without_presolve(self):
        cost, ms = lognormal_showcase()
        lp = assemble_lp(cost, ms)
        assert lp.n_paths >= PRIMAL_FROM_PATHS and len(lp.grid_shape) < PRESOLVE_FROM_PERIODS
        self.assert_matches_linprog(lp, cost, ms)  # and its method names no presolve
        highs = primal_module._THREAD.highs
        assert highs.getOptionValue("presolve")[1] == "off"
        assert highs.getOptionValue("simplex_strategy")[1] == 4

    def test_the_lp_worker_keeps_its_own_object(self):
        lp = assemble_lp(*lognormal_showcase())
        _solve(lp, +1)

        def on_the_worker():
            return _solve(lp, -1), primal_module._THREAD.highs

        worker = primal_module._lp_worker()
        (first, highs), (second, again) = (worker.submit(on_the_worker).result() for _ in range(2))
        assert highs is again and highs is not primal_module._THREAD.highs
        assert first.status == second.status == "optimal"
        assert first.duals.tobytes() == second.duals.tobytes()


class TestLpMethod:
    """Below PRIMAL_FROM_PATHS paths an LP is solved as it is by dual simplex;
    from there up it is equilibrated and solved by primal simplex, with
    HiGHS's presolve from PRESOLVE_FROM_PERIODS periods up only."""

    def test_desk_sized_lps_keep_dual_simplex_and_the_showcase_is_equilibrated(self):
        # the benchmark's desk_batch spreads a 3-atom point 11 times (n=2),
        # or 8 and then 4 more times (n=3, 3 x 11 x 15 = 495 paths, its
        # largest LP); the showcase has 3,375 paths
        rng = np.random.default_rng(3)
        for splits in ((11,), (8, 4)):
            marginals = [spread_measure(rng, DiscreteMeasure.point(0.0), 2)]
            for k in splits:
                marginals.append(spread_measure(rng, marginals[-1], k))
            ms = MarginalSequence(marginals)
            assert ms.path_count < PRIMAL_FROM_PATHS
            for solve in (solve_primal, solve_primal_max):
                sol = solve(CostSpec(ms.n, "basket", strike=0.0), ms)
                assert sol.status == "optimal" and sol.stats["method"] == "dual simplex"
        cost, ms = lognormal_showcase()
        assert ms.path_count >= PRIMAL_FROM_PATHS
        for solve in (solve_primal, solve_primal_max):
            sol = solve(cost, ms)
            assert sol.status == "optimal"
            assert sol.stats["method"] == "primal simplex, equilibrated, no presolve"

    @pytest.mark.parametrize("n, m, scale", [(2, 32, 1.0), (3, 15, 1.0), (3, 15, 1e6), (4, 6, 1.0)])
    def test_multipliers_are_those_of_the_unscaled_lp(self, n, m, scale):
        # scaled back, the multipliers price lp's own rows, those left out of
        # HiGHS's model included with multiplier 0: b.y is the value, A^T y
        # stays below c for a minimisation, above it for a maximisation, and
        # the semi-static position reproduces the value
        cost, ms = lognormal_basket(n, m, scale)
        lp = assemble_lp(cost, ms)
        assert lp.n_paths >= PRIMAL_FROM_PATHS
        A, tol = lp_matrix(lp), 1e-9 * np.abs(lp.c).max()
        for sense in (+1, -1):
            sol = _solve(lp, sense)
            assert sol.status == "optimal" and sol.stats["method"] == equilibrated(lp)
            assert np.all(sol.duals[_implied_rows(ms.sizes)] == 0.0)
            assert abs(np.dot(lp.b, sol.duals) - sol.value) <= 1e-9 * abs(sol.value)
            assert np.all(sense * (A.T @ sol.duals - lp.c) <= tol)
            # a sub-hedge of sense * c at unit scale, so the oracle's absolute tolerance fits
            u, deltas = multipliers_to_semistatic(sol, ms)
            unit = CostSpec(n, "custom_table", table=sense * cost.tensor_on(ms) / scale)
            value = semistatic_value_check(unit, ms, [sense * t / scale for t in u],
                                           [sense * d / scale for d in deltas])
            assert abs(sense * value - sol.value / scale) <= 1e-9

    @staticmethod
    def solve_with_presolve(lp, sense, monkeypatch):
        """_solve on a fresh HiGHS object as an equilibrated solve that keeps
        HiGHS's presolve, at any number of periods."""
        with monkeypatch.context() as m:
            m.setattr(primal_module, "_THREAD", threading.local())
            m.setattr(primal_module, "PRESOLVE_FROM_PERIODS", 0)
            solution = _solve(lp, sense)
            assert primal_module._THREAD.highs.getOptionValue("presolve")[1] == "choose"
            return solution

    @pytest.mark.parametrize("n, m", [(2, 32), (2, 50), (4, 6)])
    def test_presolve_only_leaves_out_a_no_op(self, n, m, monkeypatch):
        # at n = 2 HiGHS's presolve reduces nothing, so the solve without it
        # is the same to the bit as one with it; from PRESOLVE_FROM_PERIODS
        # periods up presolve stays on, as it was
        lp = assemble_lp(*lognormal_basket(n, m))
        assert lp.n_paths >= PRIMAL_FROM_PATHS
        for sense in (+1, -1):
            sol, presolved = _solve(lp, sense), self.solve_with_presolve(lp, sense, monkeypatch)
            assert sol.status == presolved.status == "optimal"
            assert sol.stats["method"] == equilibrated(lp)
            assert (sol.stats["method"] == "primal simplex, equilibrated") == (n >= 4)
            assert sol.value == presolved.value
            assert sol.stats["iterations"] == presolved.stats["iterations"]
            assert sol.coupling.paths.tobytes() == presolved.coupling.paths.tobytes()
            assert sol.coupling.mass.tobytes() == presolved.coupling.mass.tobytes()
            assert sol.duals.tobytes() == presolved.duals.tobytes()

    def test_the_scaled_showcase_solves_without_presolve(self):
        # at k = 1e10 the unscaled upper LP ran for minutes; equilibrated and
        # without presolve both sides keep their k = 1 values, times k
        for sense in (+1, -1):
            unit, scaled = (_solve(assemble_lp(*lognormal_showcase(k)), sense) for k in (1.0, 1e10))
            assert scaled.status == "optimal"
            assert scaled.stats["method"] == "primal simplex, equilibrated, no presolve"
            assert abs(scaled.value / 1e10 - unit.value) <= 1e-9 * abs(unit.value)

    def test_row_check_reads_scaled_rows(self, monkeypatch):
        # at 1e9 times the showcase's atoms the martingale rows are missed by
        # about 5e-9 in lp's own units, and by about 1e-17 once divided by
        # their largest entry; the check reads the rows HiGHS solved, so a
        # tolerance between the two passes and one below the scaled misses
        # still fails
        lp = assemble_lp(*lognormal_showcase(1e9))
        monkeypatch.setattr(primal_module, "_CHECK_TOL", 1e-12)
        sol = _solve(lp, +1)
        assert sol.stats["method"] == "primal simplex, equilibrated, no presolve"
        assert sol.status == "optimal"
        monkeypatch.setattr(primal_module, "_CHECK_TOL", 1e-30)
        sol = _solve(lp, +1)
        assert sol.status == "failed" and sol.coupling is None and sol.duals is None

    def test_row_check_computes_nonbasic_rows(self, monkeypatch):
        # HiGHS reports every nonbasic equality row at its bound. A proxy of
        # the thread's HiGHS object adds mass to one path whose rows are all
        # nonbasic, so only nonbasic rows are missed, in x alone, and the
        # reported row values cannot show it; the check computes the rows
        # from x and fails the solve
        rng = np.random.default_rng(3)
        marginals = [spread_measure(rng, DiscreteMeasure.point(0.0), 2)]
        for k in (5, 4):
            marginals.append(spread_measure(rng, marginals[-1], k))
        lp = assemble_lp(CostSpec(3, "basket", strike=0.0), MarginalSequence(marginals))
        assert lp.n_paths < PRIMAL_FROM_PATHS
        assert _solve(lp, +1).status == "optimal"
        highs = primal_module._THREAD.highs
        nonbasic = np.array([s.name != "kBasic" for s in highs.getBasis().row_status])
        path = np.flatnonzero(nonbasic[lp.indices.reshape(lp.n_paths, -1)].all(1))[0]

        class Shifted:
            def __getattr__(self, name):
                return getattr(highs, name)

            def getSolution(self):
                solution = highs.getSolution()
                x = np.array(solution.col_value)
                x[path] += 1e-3
                return SimpleNamespace(col_value=x, row_value=solution.row_value,
                                       row_dual=solution.row_dual)

        monkeypatch.setattr(primal_module._THREAD, "highs", Shifted())
        sol = _solve(lp, +1)
        assert sol.status == "failed" and sol.coupling is None and sol.duals is None


def sequence_of_sizes(rng, sizes):
    """A sequence in convex order with exactly these atom counts, by spreads."""
    marginals = [spread_measure(rng, DiscreteMeasure.point(0.0), sizes[0] - 1)]
    for m in sizes[1:]:
        marginals.append(spread_measure(rng, marginals[-1], m - len(marginals[-1])))
    ms = MarginalSequence(marginals)
    assert ms.sizes == tuple(sizes) and validate_sequence(ms).ok
    return ms


def shifted_showcase(shift):
    """The showcase with the last marginal's atoms moved by shift, so its mean is off by shift."""
    cost, ms = lognormal_showcase()
    last = ms[-1]
    return cost, MarginalSequence(ms.marginals[:-1] + (DiscreteMeasure(last.atoms + shift,
                                                                       last.weights),))


class TestIterationBound:
    """Every solve stops after ITERATIONS_PER_SIZE simplex iterations per row and column.

    Criterion 1's suite with every atom and the strike times k: instance 1's
    lower side at k = 1e6 and both sides of instance 5 at k = 1e12 cycle, and
    without the bound ran for minutes inside HiGHS, where SIGTERM cannot stop
    them.
    """

    def test_a_cycling_solve_stops_within_seconds(self):
        lp = assemble_lp(*criterion1_instance(1, 1e6))
        start = time.perf_counter()
        sol = _solve(lp, +1)
        assert time.perf_counter() - start < 60
        assert sol.status == "iteration_limit"
        assert sol.coupling is None and sol.duals is None and np.isnan(sol.value)
        limit = ITERATIONS_PER_SIZE * (lp.n_rows + lp.n_paths)
        assert sol.stats["iterations"] == limit
        assert primal_module._THREAD.highs.getOptionValue("simplex_iteration_limit")[1] == limit

    def test_a_side_that_ends_before_any_iteration_reports_0(self):
        # instance 1 at k = 1e6: HiGHS's dual simplex stops in its first ratio
        # test on the large costs, model status kNotset, and counts -1
        lp = assemble_lp(*criterion1_instance(1, 1e6))
        sol = _solve(lp, -1)
        assert (lp.n_rows, lp.n_paths) == (64, 462)
        assert sol.status == "failed" and sol.stats["iterations"] == 0

    def test_a_solve_after_a_capped_one_is_optimal(self, monkeypatch):
        # the limit is set per solve, so a capped solve leaves nothing behind
        small = assemble_lp(SQ2, MS_PAIR)
        fresh = _solve(small, +1)
        with monkeypatch.context() as patch:
            patch.setattr(primal_module, "ITERATIONS_PER_SIZE", 0)
            capped = _solve(assemble_lp(*lognormal_showcase()), +1)
        assert capped.status == "iteration_limit" and capped.stats["iterations"] == 0
        after = _solve(small, +1)
        assert after.status == "optimal" and after.value == fresh.value
        assert after.duals.tobytes() == fresh.duals.tobytes()
        assert after.stats["iterations"] == fresh.stats["iterations"]

    def test_a_limit_past_highs_integers_is_capped(self, monkeypatch):
        # HiGHS refuses a value past its 32-bit integer and keeps the last one
        lp = assemble_lp(SQ2, MS_PAIR)
        _solve(lp, +1)
        monkeypatch.setattr(primal_module, "ITERATIONS_PER_SIZE", 10**9)
        assert _solve(lp, +1).status == "optimal"
        limit = primal_module._THREAD.highs.getOptionValue("simplex_iteration_limit")[1]
        assert limit == 2**31 - 1

    def test_certify_of_a_cycling_instance_exits_2_with_strict_json(self, tmp_path, capsys):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance_payload(*criterion1_instance(5, 1e12))))
        start = time.perf_counter()
        code = cli.main(["--json", "certify", str(path)])
        assert time.perf_counter() - start < 60

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        report = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert code == 2 and report["feasible"] is True and report["passed"] is False
        for side in ("primal_lower", "primal_upper"):
            assert report[side]["status"] == "iteration_limit" and report[side]["value"] is None


class TestImpliedRows:
    """An equilibrated solve leaves out the 2(n - 1) rows that _implied_rows
    names: the kept rows imply them, so the feasible set stays the same."""

    @pytest.mark.parametrize("sizes", [(1, 5), (3, 3), (4, 7), (1, 1, 5), (1, 3, 5), (2, 3, 4),
                                       (3, 5, 5), (1, 1, 1, 4), (1, 2, 2, 3), (2, 3, 4, 5)])
    def test_the_other_rows_have_full_row_rank(self, sizes):
        ms = sequence_of_sizes(np.random.default_rng(sum(sizes)), sizes)
        A = lp_matrix(assemble_lp(CostSpec(ms.n, "basket", strike=0.0), ms))
        dropped = _implied_rows(ms.sizes)
        assert dropped.size == np.unique(dropped).size == 2 * (ms.n - 1)
        assert np.all(np.diff(dropped) > 0)  # the increasing set deleteRows takes
        kept = np.delete(A, dropped, axis=0)
        assert np.linalg.matrix_rank(A) == A.shape[0] - dropped.size
        assert np.linalg.matrix_rank(kept) == kept.shape[0]

    @pytest.mark.parametrize("n, m, deleted", [(2, 15, 0), (3, 15, 4), (4, 6, 6)])
    def test_the_kept_object_deletes_the_implied_rows(self, n, m, deleted):
        # an equilibrated LP is loaded whole and the object deletes its
        # 2(n - 1) implied rows; one below PRIMAL_FROM_PATHS keeps every row
        lp = assemble_lp(*lognormal_basket(n, m))
        assert (lp.n_paths >= PRIMAL_FROM_PATHS) == (deleted > 0)
        assert _solve(lp, +1).status == "optimal"
        assert primal_module._THREAD.highs.getNumRow() == lp.n_rows - deleted

    @pytest.mark.parametrize("sizes", [(1, 1, 5), (1, 1, 1, 4), (1, 2, 2, 3)])
    def test_one_atom_levels_delete_their_rows_too(self, sizes, monkeypatch):
        # leading one-atom blocks name a martingale row before a later
        # marginal row, and HiGHS deletes rows only given in increasing order
        monkeypatch.setattr(primal_module, "PRIMAL_FROM_PATHS", 0)
        ms = sequence_of_sizes(np.random.default_rng(sum(sizes)), sizes)
        lp = assemble_lp(CostSpec(ms.n, "basket", strike=0.0), ms)
        for sense in (+1, -1):
            sol = _solve(lp, sense)
            assert sol.status == "optimal"
            assert sol.stats["method"].startswith("primal simplex, equilibrated")
            assert primal_module._THREAD.highs.getNumRow() == lp.n_rows - 2 * (ms.n - 1)

    def test_a_refused_deletion_is_a_model_error(self, monkeypatch):
        # rows out of increasing order: HiGHS deletes none, and the full
        # model is not solved in place of the reduced one
        rows = _implied_rows((3, 15, 15))[::-1].copy()
        monkeypatch.setattr(primal_module, "_implied_rows", lambda sizes: rows)
        lp = assemble_lp(*lognormal_basket(3, 15))
        sol = _solve(lp, +1)
        assert sol.status == "model_error" and sol.coupling is None and sol.duals is None

    def test_one_atom_after_more_names_only_the_mass_row(self):
        # out of convex order, so no mean identity to drop a row for
        np.testing.assert_array_equal(_implied_rows((3, 1)), [3])

    def test_a_mean_mismatch_lands_on_a_marginal_row(self):
        # the last marginal's mean 1e-12 off its predecessor's: validation
        # accepts it, the kept rows hold the martingale exactly, and the
        # mismatch shows on the marginal rows left out, whose check is absolute
        cost, shifted = shifted_showcase(1e-12)
        assert validate_sequence(shifted).ok
        report = certify(cost, shifted)
        assert report.primal_lower.stats["method"] == "primal simplex, equilibrated, no presolve"
        assert report.coupling_check.ok
        assert report.coupling_check.martingale_error <= 1e-14

    def test_solve_primal_solves_what_validation_refuses_and_certify_does_not(self):
        # a 1e-9 mean mismatch: validate_sequence refuses it, certify reports
        # it infeasible without solving an LP side, while solve_primal and
        # solve_primal_max solve the LP as given
        cost, shifted = shifted_showcase(1e-9)
        assert not validate_sequence(shifted).ok
        report = certify(cost, shifted)
        assert report.feasible is False and not report.passed
        assert report.primal_lower is None and report.primal_upper is None
        for solve in (solve_primal, solve_primal_max):
            assert solve(cost, shifted).status == "optimal"

    def test_a_mean_mismatch_past_the_marginal_tolerance_is_infeasible(self):
        # validation refuses these; the LP without the rows left out has a
        # solution, but it misses them by more than MARGINAL_TOL, so the LP
        # as assembled has none
        for shift in (1e-6, 1e-3):
            lp = assemble_lp(*shifted_showcase(shift))
            for sense in (+1, -1):
                sol = _solve(lp, sense)
                assert sol.status == "infeasible" and sol.coupling is None and sol.duals is None


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

    def test_a_solution_on_other_grids_refused(self):
        # sizes (2, 2) and (1, 4) both give 6 rows, so the count alone passes
        sol = solve_primal(SQ2, MS_PAIR)
        other = sequence_of_sizes(np.random.default_rng(0), (1, 4))
        with pytest.raises(ValueError) as refused:
            multipliers_to_semistatic(sol, other)
        assert str(refused.value) == "solution solved on grids (2, 2), not on (1, 4)"

    @pytest.mark.parametrize("solution", [
        lambda: primal_module.PrimalSolution(float("nan"), None, "failed"),
        lambda: solve_primal(SQ2, MarginalSequence([PM2, PM1])),
    ], ids=["hand_built", "infeasible"])
    def test_a_solution_without_multipliers_refused(self, solution):
        with pytest.raises(ValueError) as refused:
            multipliers_to_semistatic(solution(), MS_PAIR)
        assert type(refused.value) is ValueError
        assert str(refused.value) == "solution carries no multipliers"


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
