"""Marginal construction, potentials, convex order, lognormal quantization."""

import json
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import lognorm

from motbounds import (
    DiscreteMeasure,
    MarginalSequence,
    SizeCapError,
    convex_order_check,
    potential,
    quantize_lognormal,
    split_atom,
    validate_sequence,
)
from motbounds.cli import _parse_measure
from motbounds.measures import DEFAULT_VAR_CAP, _normal_slices

from conftest import lognormal_showcase, spread_measure
from oracles import lognormal_atoms, lognormal_mean_shares, normal_slice_edges


def m(atoms, weights):
    return DiscreteMeasure(np.asarray(atoms, float), np.asarray(weights, float))


DELTA0 = DiscreteMeasure.point(0.0)
PM1 = m([-1, 1], [0.5, 0.5])
PM2 = m([-2, 2], [0.5, 0.5])


class TestConstruction:
    def test_sorts_and_merges_duplicates(self):
        mu = m([1.0, -1.0, 1.0], [0.25, 0.5, 0.25])
        assert np.array_equal(mu.atoms, [-1.0, 1.0])
        assert np.allclose(mu.weights, [0.5, 0.5])

    def test_rejects_bad_weight_sum(self):
        with pytest.raises(ValueError, match="sum"):
            m([0.0, 1.0], [0.5, 0.6])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="negative"):
            m([0.0, 1.0], [-0.1, 1.1])

    @pytest.mark.parametrize("weights", [[np.nan, np.nan], [0.5, np.nan], [np.inf, -np.inf]])
    def test_rejects_non_finite_weight(self, weights):
        # NaN slips past both the sign and the sum test, so finiteness is checked first
        with pytest.raises(ValueError, match="weights must be finite"):
            m([0.0, 1.0], weights)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            m([], [])

    def test_arrays_are_read_only(self):
        mu = m([1.0, -1.0], [0.25, 0.75])
        for arr in (mu.atoms, mu.weights):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_mean(self):
        assert m([1, 3], [0.25, 0.75]).mean == pytest.approx(2.5)

    def test_sequence_needs_two(self):
        with pytest.raises(ValueError):
            MarginalSequence([DELTA0])

    def test_json_round_trip(self):
        # as_dict writes plain JSON numbers, read back by the instance parser
        mu = m([1.5, 0.0], [0.6, 0.4])
        payload = json.loads(json.dumps(mu.as_dict()))
        assert payload == {"atoms": [0.0, 1.5], "weights": [0.4, 0.6]}
        assert all(type(x) is float for x in payload["atoms"] + payload["weights"])
        again = _parse_measure(payload, "marginals[0]")
        assert np.array_equal(mu.atoms, again.atoms)
        assert np.array_equal(mu.weights, again.weights)


class TestPotential:
    def test_single_atom(self):
        assert potential(DELTA0, 2.0) == pytest.approx(2.0)

    def test_symmetric_pair(self):
        assert potential(PM1, 0.0) == pytest.approx(1.0)

    def test_two_atom_direct_sum(self):
        # 0.5*|-2-1| + 0.5*|2-1| = 2
        assert potential(PM2, 1.0) == pytest.approx(2.0)

    def test_vectorized_matches_scalar(self, rng):
        mu = spread_measure(rng, DELTA0, 5)
        ks = rng.uniform(-5, 5, size=20)
        vec = potential(mu, ks)
        assert np.allclose(vec, [potential(mu, k) for k in ks])

    def test_blocks_match_one_product_and_keep_memory_flat(self):
        mu, nu = quantize_lognormal(-0.02, 0.2, 1000), quantize_lognormal(-0.045, 0.3, 1000)
        ks = np.union1d(mu.atoms, nu.atoms)  # 2,000 points x 1,000 atoms: 31 blocks
        whole = np.abs(mu.atoms[None, :] - ks[:, None]) @ mu.weights
        np.testing.assert_allclose(potential(mu, ks), whole, rtol=1e-15, atol=0)
        mu, nu = quantize_lognormal(-0.02, 0.2, 4000), quantize_lognormal(-0.045, 0.3, 4000)
        tracemalloc.start()
        try:
            assert validate_sequence(MarginalSequence([mu, nu])).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6  # one |ks| x m product would be 512 MB

    def test_convexity_chord_inequality(self, rng):
        for _ in range(50):
            mu = spread_measure(rng, DiscreteMeasure.point(rng.uniform(-2, 2)), 4)
            k1, k2, k3 = np.sort(rng.uniform(-6, 6, size=3))
            if k3 - k1 < 1e-9:
                continue
            lam = (k3 - k2) / (k3 - k1)
            chord = lam * potential(mu, k1) + (1 - lam) * potential(mu, k3)
            assert potential(mu, k2) <= chord + 1e-12


class TestConvexOrder:
    def test_jensen_pair(self):
        assert convex_order_check(DELTA0, PM1).ordered

    def test_reversed_pair_witness(self):
        res = convex_order_check(PM1, DELTA0)
        assert not res.ordered
        assert res.reason == "potential_violation"
        assert res.witness_k == pytest.approx(0.0)

    def test_mean_mismatch(self):
        res = convex_order_check(DELTA0, DiscreteMeasure.point(1.0))
        assert not res.ordered
        assert res.reason == "mean_mismatch"

    def test_nested_symmetric_pairs(self):
        # potentials compared at k in {-2, -1, 1, 2}
        assert convex_order_check(PM1, PM2).ordered

    def test_reflexive(self, rng):
        for _ in range(20):
            mu = spread_measure(rng, DiscreteMeasure.point(rng.uniform(-2, 2)), 3)
            assert convex_order_check(mu, mu).ordered

    def test_spread_dominates(self, rng):
        for _ in range(50):
            mu = spread_measure(rng, DiscreteMeasure.point(rng.uniform(-2, 2)), 3)
            nu = split_atom(mu, int(rng.integers(len(mu))), rng.uniform(0, 2))
            assert convex_order_check(mu, nu).ordered

    def test_transitive_on_spread_triples(self, rng):
        for _ in range(50):
            mu = spread_measure(rng, DiscreteMeasure.point(rng.uniform(-2, 2)), 2)
            nu = spread_measure(rng, mu, 2)
            rho = spread_measure(rng, nu, 2)
            assert convex_order_check(mu, nu).ordered
            assert convex_order_check(nu, rho).ordered
            assert convex_order_check(mu, rho).ordered


class TestMarginalSequence:
    def test_sizes_and_grids_are_built_once(self):
        ms = MarginalSequence([DELTA0, PM1, PM2])
        assert ms.sizes is ms.sizes and ms.grids is ms.grids
        assert ms.sizes == (1, 2, 2) and ms.path_count == 4
        assert all(g is mu.atoms for g, mu in zip(ms.grids, ms))


class TestValidateSequence:
    def test_nested_chain_passes(self):
        report = validate_sequence(MarginalSequence([DELTA0, PM1, PM2]))
        assert report.ok and not report.failures()

    def test_equal_measures_pass(self):
        assert validate_sequence(MarginalSequence([DELTA0, DELTA0])).ok

    def test_reversed_pair_fails(self):
        report = validate_sequence(MarginalSequence([PM1, DELTA0]))
        assert not report.ok
        assert report.pairs[0].index == 1
        assert not report.pairs[0].order.ordered

    def test_report_serializes(self):
        payload = validate_sequence(MarginalSequence([PM1, DELTA0])).as_dict()
        assert payload["ok"] is False
        assert payload["pairs"][0]["reason"] == "potential_violation"

    def test_rescaled_showcase_validates(self):
        # at 1e6 the rounding in the potentials of pair (2, 3) reaches ~1e-10
        for scale in (1.0, 1e6):
            report = validate_sequence(lognormal_showcase(scale)[1])
            assert report.ok, report.as_dict()

    def test_violations_at_large_scale_rejected(self):
        # the tolerances scale with the atoms, but a real violation still shows
        wide = m([1e6 - 1.0, 1e6 + 1.0], [0.5, 0.5])
        narrow = m([1e6 - 0.99, 1e6 + 0.99], [0.5, 0.5])
        res = convex_order_check(wide, narrow)
        assert not res.ordered and res.reason == "potential_violation"
        assert res.witness_k == pytest.approx(1e6)
        assert not validate_sequence(MarginalSequence([wide, narrow])).ok
        shifted = m([1e6 - 0.99, 1e6 + 1.01], [0.5, 0.5])
        assert convex_order_check(wide, shifted).reason == "mean_mismatch"


class TestQuantizeLognormal:
    def test_degenerate(self):
        mu = quantize_lognormal(0.0, 0.0, 1)
        assert len(mu) == 1
        assert mu.atoms[0] == pytest.approx(1.0)

    def test_single_slice_mean(self):
        mu = quantize_lognormal(0.0, 0.7, 1)
        assert mu.atoms[0] == pytest.approx(np.exp(0.7**2 / 2))

    def test_conditional_means_against_quadrature(self):
        loc, scale, k = 0.0, 0.3, 4
        mu = quantize_lognormal(loc, scale, k)
        dist = lognorm(s=scale, scale=np.exp(loc))
        edges = dist.ppf(np.arange(k + 1) / k)
        for j in range(k):
            lo = edges[j] if np.isfinite(edges[j]) else 0.0
            hi = edges[j + 1] if np.isfinite(edges[j + 1]) else np.inf
            num, _ = quad(lambda x: x * dist.pdf(x), lo, hi)
            assert mu.atoms[j] == pytest.approx(k * num, abs=1e-9)
        assert mu.mean == pytest.approx(np.exp(0.045), abs=1e-9)

    def test_mean_error_sweep(self):
        for loc in (-0.5, 0.0, 0.4):
            for scale in (0.05, 0.2, 0.5, 1.0):
                for k in (1, 2, 7, 40):
                    mu = quantize_lognormal(loc, scale, k)
                    assert abs(mu.mean - np.exp(loc + scale**2 / 2)) < 1e-9

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            quantize_lognormal(0.0, -0.1, 3)
        with pytest.raises(ValueError):
            quantize_lognormal(0.0, 0.3, 0)

    @pytest.mark.parametrize("m", [2.5, 3.0, "3", True, np.float64(4.0)])
    def test_non_integral_m_refused(self, m):
        with pytest.raises(ValueError, match="m must be a positive integer"):
            quantize_lognormal(0.0, 0.3, m)

    def test_numpy_integer_m(self):
        mu = quantize_lognormal(0.0, 0.3, np.int64(5))
        assert np.array_equal(mu.atoms, quantize_lognormal(0.0, 0.3, 5).atoms)

    @pytest.mark.parametrize("m", [1, 2, 15, 400, 4000])
    def test_slices_match_scipy(self, m):
        eps = np.finfo(float).eps
        edges = normal_slice_edges(m)
        assert edges[0] == -np.inf and edges[-1] == np.inf
        z_ref = edges[1:-1]
        for scale in (0.05, 0.2, 0.5, 1.0):
            z, tail_mass = _normal_slices(scale, m)
            assert np.array_equal(z[[0, -1]], edges[[0, -1]])
            assert tail_mass[0] == 0.0 and tail_mass[-1] == 1.0
            z, tail_mass = z[1:-1], tail_mass[1:-1]
            # both inverse normal CDFs are rational approximations good to a few ulp
            assert np.all(np.abs(z - z_ref) <= 8 * np.spacing(np.abs(z_ref)))
            # Phi(x) has condition number about x^2 for x << 0, so the rounding of
            # the argument (scale - z) / sqrt(2) alone moves either result by about
            # x^2 / 2 ulp; give each side twice that
            x = z - scale
            ref = lognormal_mean_shares(z, scale)
            assert np.all(np.abs(tail_mass - ref) <= 4 * (1 + x**2) * np.spacing(ref))
            # atom_j = m * mean * (tail_{j+1} - tail_j): the two tails differ by a few
            # ulp of 1 between implementations while their difference is about 1 / m,
            # so np.diff turns that into a relative error of about m * eps; the 26
            # covers the lower tail's x^2 conditioning (x^2 <= 25 for m <= 4000)
            atoms = quantize_lognormal(-scale**2 / 2, scale, m).atoms
            ref_atoms = lognormal_atoms(-scale**2 / 2, scale, m)
            assert np.all(np.abs(atoms - ref_atoms) <= 4 * (m + 26) * eps * ref_atoms)

    def test_more_atoms_than_the_cap_refused_before_allocating(self):
        with pytest.raises(SizeCapError, match="100000000000 atoms exceed the cap 200000"):
            quantize_lognormal(0.0, 0.3, 100_000_000_000)
        assert len(quantize_lognormal(0.0, 0.3, DEFAULT_VAR_CAP)) == DEFAULT_VAR_CAP
        with pytest.raises(SizeCapError, match="^6 atoms exceed the cap 5$"):
            quantize_lognormal(0.0, 0.3, 6, var_cap=5)
        assert len(quantize_lognormal(0.0, 0.3, DEFAULT_VAR_CAP + 1, var_cap=DEFAULT_VAR_CAP + 1)) \
            == DEFAULT_VAR_CAP + 1

    @pytest.mark.parametrize("location,scale", [(1e308, 0.1), (800.0, 0.0), (0.0, 1e200),
                                                (float("nan"), 0.2)])
    def test_mean_must_be_finite(self, location, scale):
        with pytest.raises(ValueError, match="not finite"):
            quantize_lognormal(location, scale, 5)

    def test_atoms_increase(self):
        mu = quantize_lognormal(0.1, 0.4, 25)
        assert np.all(np.diff(mu.atoms) > 0)
