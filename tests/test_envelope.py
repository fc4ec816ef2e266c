"""Hull construction, envelope evaluation, and the conjugate cross-check."""

import numpy as np
import pytest

from motbounds import (
    GridFunction,
    OutOfDomainError,
    concave_envelope,
    convex_envelope,
    envelope_weights,
    eval_envelope,
)

from conftest import random_grid_function
from oracles import biconjugate_eval

TENT = GridFunction([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
PARAB = GridFunction([-2.0, -1.0, 0.0, 1.0, 2.0], [4.0, 1.0, 0.0, 1.0, 4.0])
ZIGZAG = GridFunction([0.0, 1.0, 2.0, 3.0], [0.0, -1.0, 3.0, 0.0])


def affine_minorant_value(f: GridFunction, t: float) -> float:
    """Brute-force envelope oracle: best affine function below all points.

    Every supporting line at an interior point passes through two grid points
    (or one, at a knot, where the two-point line through the knot and any hull
    neighbour attains the same value), so scanning all pairs suffices.
    """
    x, y = f.grid, f.values
    if x.size == 1:
        return float(y[0])
    best = -np.inf
    for i in range(x.size):
        for j in range(i + 1, x.size):
            slope = (y[j] - y[i]) / (x[j] - x[i])
            intercept = y[i] - slope * x[i]
            if np.all(slope * x + intercept <= y + 1e-12):
                best = max(best, slope * t + intercept)
    return float(best)


class TestConvexEnvelope:
    def test_tent_collapses_to_chord(self):
        env = convex_envelope(TENT)
        assert np.array_equal(env.hull_grid, [-1.0, 1.0])
        assert np.array_equal(env.hull_values, [0.0, 0.0])
        assert eval_envelope(env, 0.5) == pytest.approx(0.0)

    def test_convex_function_is_its_own_hull(self):
        env = convex_envelope(PARAB)
        assert np.array_equal(env.hull_grid, PARAB.grid)
        assert np.array_equal(env.hull_values, PARAB.values)

    def test_zigzag_hull_and_value(self):
        env = convex_envelope(ZIGZAG)
        assert np.array_equal(env.hull_grid, [0.0, 1.0, 3.0])
        assert np.array_equal(env.hull_values, [0.0, -1.0, 0.0])
        expected = affine_minorant_value(ZIGZAG, 2.0)
        assert expected == pytest.approx(-0.5)
        assert eval_envelope(env, 2.0) == pytest.approx(expected)

    def test_single_point(self):
        env = convex_envelope(GridFunction([2.0], [5.0]))
        assert eval_envelope(env, 2.0) == pytest.approx(5.0)

    def test_collinear_points_dropped(self):
        env = convex_envelope(GridFunction([0.0, 1.0, 2.0], [0.0, 1.0, 2.0]))
        assert np.array_equal(env.hull_grid, [0.0, 2.0])


class TestConcaveEnvelope:
    def test_tent_already_concave(self):
        env = concave_envelope(TENT)
        assert np.array_equal(env.hull_grid, TENT.grid)

    def test_chord_over_parabola(self):
        env = concave_envelope(PARAB)
        assert np.array_equal(env.hull_grid, [-2.0, 2.0])
        assert eval_envelope(env, 0.0) == pytest.approx(4.0)

    def test_zigzag_upper_hull(self):
        env = concave_envelope(ZIGZAG)
        assert np.array_equal(env.hull_grid, [0.0, 2.0, 3.0])
        # negate-and-reuse oracle
        neg = GridFunction(ZIGZAG.grid, -ZIGZAG.values)
        assert eval_envelope(env, 1.0) == pytest.approx(
            -eval_envelope(convex_envelope(neg), 1.0)
        )
        assert eval_envelope(env, 1.0) == pytest.approx(1.5)

    def test_duality_with_convex_envelope(self, rng):
        for _ in range(100):
            f = random_grid_function(rng, max_len=40)
            neg = GridFunction(f.grid, -f.values)
            up = concave_envelope(f)
            lo = convex_envelope(neg)
            for t in rng.uniform(f.grid[0], f.grid[-1], size=5):
                assert eval_envelope(up, t) == pytest.approx(
                    -eval_envelope(lo, t), abs=1e-10
                )

    @pytest.mark.parametrize("case", ["criterion_7", "integer_valued", "docstring_line"])
    def test_is_the_negated_convex_envelope_of_minus_f(self, case):
        # negation is exact, so grid, values and indices match to the byte
        rng = np.random.default_rng(27182)
        if case == "criterion_7":  # the random grids of acceptance criterion 7
            functions = [random_grid_function(rng, max_len=200, min_len=1) for _ in range(1000)]
        elif case == "integer_valued":  # small integers: many exactly collinear knots
            functions = []
            for _ in range(300):
                m = int(rng.integers(1, 60))
                grid = np.sort(rng.choice(np.arange(-100, 100), size=m, replace=False))
                functions.append(GridFunction(grid, rng.integers(-5, 6, size=m)))
        else:  # 3x+1 on linspace(0, 1, 11), collinear up to rounding
            x = np.linspace(0, 1, 11)
            functions = [GridFunction(x, 3 * x + 1), GridFunction(x, -(3 * x + 1))]
        for f in functions:
            up = concave_envelope(f)
            lo = convex_envelope(GridFunction(f.grid, -f.values))
            for got, want in ((up.hull_grid, lo.hull_grid), (up.hull_values, -lo.hull_values),
                              (up.hull_indices, lo.hull_indices)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestEvalAndWeights:
    def test_knot_hit(self):
        env = convex_envelope(PARAB)
        assert eval_envelope(env, -1.0) == pytest.approx(1.0)

    def test_interpolation_on_segment(self):
        env = convex_envelope(ZIGZAG)
        assert eval_envelope(env, 2.0) == pytest.approx(-0.5)

    def test_out_of_domain_raises(self):
        env = convex_envelope(TENT)
        with pytest.raises(OutOfDomainError):
            eval_envelope(env, 1.5)

    def test_clamp_within_tolerance(self):
        env = convex_envelope(TENT)
        assert eval_envelope(env, 1.0 + 1e-10) == pytest.approx(0.0)

    def test_weights_midpoint(self):
        env = convex_envelope(TENT)
        left, right, lam = envelope_weights(env, 0.0)
        assert (env.hull_grid[left], env.hull_grid[right]) == (-1.0, 1.0)
        assert lam == pytest.approx(0.5)

    def test_weights_knot_collapse(self):
        env = convex_envelope(TENT)
        left, right, lam = envelope_weights(env, -1.0)
        assert left == right and lam == 1.0

    def test_weights_reconstruct_value(self):
        env = convex_envelope(ZIGZAG)
        left, right, lam = envelope_weights(env, 2.0)
        assert (env.hull_grid[left], env.hull_grid[right]) == (1.0, 3.0)
        assert lam == pytest.approx(0.5)
        value = lam * env.hull_values[left] + (1 - lam) * env.hull_values[right]
        assert value == pytest.approx(eval_envelope(env, 2.0))

    def test_weights_reproduce_point(self, rng):
        for _ in range(50):
            f = random_grid_function(rng, max_len=30, min_len=2)
            env = convex_envelope(f)
            t = float(rng.uniform(f.grid[0], f.grid[-1]))
            left, right, lam = envelope_weights(env, t)
            recon = lam * env.hull_grid[left] + (1 - lam) * env.hull_grid[right]
            assert recon == pytest.approx(t, abs=1e-12)


class TestBiconjugate:
    def test_tent(self):
        assert biconjugate_eval(TENT, 0.0) == pytest.approx(0.0)

    def test_parabola_chord_value(self):
        # on the unit-spaced grid the hull chord between 0 and 1 gives 0.5
        assert biconjugate_eval(PARAB, 0.5) == pytest.approx(0.5)

    def test_zigzag(self):
        assert biconjugate_eval(ZIGZAG, 2.0) == pytest.approx(-0.5)

    def test_matches_hull_path(self, rng):
        for _ in range(200):
            f = random_grid_function(rng, max_len=60)
            env = convex_envelope(f)
            t = float(rng.uniform(f.grid[0], f.grid[-1]))
            assert abs(biconjugate_eval(f, t) - eval_envelope(env, t)) < 1e-9


class TestEnvelopeProperties:
    def test_minorant_idempotent_convex(self, rng):
        for _ in range(150):
            f = random_grid_function(rng, max_len=80)
            env = convex_envelope(f)
            # minorant at every grid point
            for j in range(len(f)):
                assert eval_envelope(env, float(f.grid[j])) <= f.values[j] + 1e-12
            # hull slopes nondecreasing
            if env.hull_grid.size > 2:
                slopes = np.diff(env.hull_values) / np.diff(env.hull_grid)
                assert np.all(np.diff(slopes) > -1e-12)
            # idempotence
            again = convex_envelope(GridFunction(env.hull_grid, env.hull_values))
            assert np.array_equal(again.hull_grid, env.hull_grid)
            assert np.array_equal(again.hull_values, env.hull_values)

    def test_largest_minorant(self, rng):
        for _ in range(30):
            f = random_grid_function(rng, max_len=50, min_len=2)
            env = convex_envelope(f)
            for _ in range(20):
                slope = rng.uniform(-3, 3)
                intercept = float(np.min(f.values - slope * f.grid)) - rng.uniform(0, 1)
                t = float(rng.uniform(f.grid[0], f.grid[-1]))
                assert slope * t + intercept <= eval_envelope(env, t) + 1e-12

    def test_affine_equivariance(self, rng):
        for _ in range(50):
            f = random_grid_function(rng, max_len=40)
            a, b = rng.uniform(-2, 2, size=2)
            shifted = GridFunction(f.grid, f.values + a + b * f.grid)
            e1 = convex_envelope(f)
            e2 = convex_envelope(shifted)
            for t in rng.uniform(f.grid[0], f.grid[-1], size=5):
                lhs = eval_envelope(e2, float(t))
                rhs = eval_envelope(e1, float(t)) + a + b * t
                assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_hull_keeps_endpoints(self, rng):
        for _ in range(50):
            f = random_grid_function(rng, max_len=30)
            env = convex_envelope(f)
            assert env.hull_grid[0] == f.grid[0]
            assert env.hull_grid[-1] == f.grid[-1]
            assert env.hull_indices[0] == 0
            assert env.hull_indices[-1] == len(f) - 1


class TestScaleFree:
    SCALES = [1e-13, 1e-6, 1.0, 1e6, 1e13]

    @pytest.mark.parametrize("lower", [True, False], ids=["convex", "concave"])
    @pytest.mark.parametrize("x_scale", SCALES)
    def test_rescaled_hull_is_the_rescaled_envelope(self, rng, lower, x_scale):
        envelope = convex_envelope if lower else concave_envelope
        sign = 1.0 if lower else -1.0
        for _ in range(40):
            f = random_grid_function(rng, max_len=80, min_len=2)
            base = envelope(f)
            base_at_grid = np.interp(f.grid, base.hull_grid, base.hull_values)
            for y_scale in self.SCALES:
                g = GridFunction(f.grid * x_scale, f.values * y_scale)
                env = envelope(g)
                at_grid = np.interp(g.grid, env.hull_grid, env.hull_values)
                tol = 1e-12 * float(np.max(np.abs(g.values)))
                # a minorant (majorant for the upper hull) at every grid point
                assert np.all(sign * (at_grid - g.values) <= tol)
                # and the envelope of f, rescaled
                assert np.all(np.abs(at_grid - base_at_grid * y_scale) <= tol)

    def test_small_values_keep_the_notch(self):
        # slopes -1e-13 and 1e-13: an absolute slope tolerance would drop the knot
        env = convex_envelope(GridFunction([0.0, 1.0, 2.0], [0.0, -1e-13, 0.0]))
        assert np.array_equal(env.hull_indices, [0, 1, 2])
        assert eval_envelope(env, 1.0) == -1e-13


class TestGridFunctionValidation:
    @pytest.mark.parametrize("grid,values", [([], []), ([], [1.0])], ids=["empty", "empty_grid"])
    def test_refuses_an_empty_grid(self, grid, values):
        with pytest.raises(ValueError) as refused:
            GridFunction(grid, values)
        assert type(refused.value) is ValueError
        assert str(refused.value) == "grid must have at least one point"

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="increasing"):
            GridFunction([0.0, 0.0], [1.0, 2.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            GridFunction([0.0, 1.0], [1.0])

    @pytest.mark.parametrize("grid,values", [
        ([0.0, 1.0, 2.0], [0.0, np.nan, 0.0]),
        ([0.0, 1.0, 2.0], [0.0, np.inf, -np.inf]),
        ([0.0, np.inf], [0.0, 1.0]),
        ([np.nan], [0.0]),
    ], ids=["nan_value", "inf_values", "inf_grid", "nan_grid"])
    def test_rejects_non_finite(self, grid, values):
        with pytest.raises(ValueError, match="finite"):
            GridFunction(grid, values)
