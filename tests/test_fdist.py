import math
import warnings

import numpy as np
import pytest

from fconc import FParams, ShapePair, cdf, mean, prob_leq_kappa_mean, probe, threshold, verify
from fconc.fdist import _check_kappa


class TestParams:
    def test_valid(self):
        p = FParams(1, 3)
        assert p.shape() == ShapePair(0.5, 1.5)

    def test_mean_requires_d2_above_2(self):
        with pytest.raises(ValueError):
            FParams(1, 2)

    def test_integers_required(self):
        with pytest.raises(ValueError):
            FParams(1.5, 5)

    def test_d1_positive(self):
        with pytest.raises(ValueError):
            FParams(0, 5)

    def test_degrees_of_freedom_at_most_twice_shape_max(self):
        # 2e5 forms shape 1e5, special.SHAPE_MAX; one past it is rejected,
        # naming the field, and so is 2e17, where prob_leq_kappa_mean
        # returned 1.0 (true value 0.6084) with only a RuntimeWarning.
        # The Python int is compared, so 10**400 cannot overflow the check
        assert FParams(200_000, 200_000).shape() == ShapePair(1e5, 1e5)
        for d1, d2, field in [(200_001, 5, "d1"), (3, 200_001, "d2"), (3, 2 * 10**17, "d2"),
                              (10**400, 5, "d1"), (np.int64(200_001), 5, "d1")]:
            with pytest.raises(ValueError, match=f"^{field} must be at most 200000:"):
                FParams(d1, d2)

    def test_shape_pair_invariants(self):
        with pytest.raises(ValueError):
            ShapePair(0.4, 2.0)
        with pytest.raises(ValueError):
            ShapePair(1.0, 1.0)


class TestMean:
    def test_values(self):
        assert mean(FParams(1, 4)) == 2.0
        assert mean(FParams(7, 3)) == 3.0  # independent of d1

    def test_always_above_one(self):
        for d2 in range(3, 50):
            assert mean(FParams(1, d2)) > 1.0


class TestCdf:
    def test_zero_at_origin(self):
        assert cdf(0.0, FParams(3, 9)) == 0.0

    def test_closed_form_d1_two(self):
        # d1 = 2: P(X <= x) = 1 - (d2/(2x+d2))^(d2/2)
        assert cdf(2.0, FParams(2, 4)) == pytest.approx(0.75, abs=1e-12)

    def test_total_mass(self):
        assert cdf(1e9, FParams(4, 7)) == pytest.approx(1.0, abs=1e-6)

    def test_nondecreasing(self):
        xs = np.linspace(0.0, 20.0, 200)
        vals = cdf(xs, FParams(5, 11))
        assert (np.diff(vals) >= -1e-14).all()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cdf(-1.0, FParams(1, 3))


class TestThreshold:
    def test_simple_values(self):
        assert threshold(ShapePair(1.0, 2.0), 1.0) == pytest.approx(0.5, abs=1e-15)
        assert threshold(ShapePair(0.5, 1.5), 16.0) == pytest.approx(8.0 / 8.5, abs=1e-15)
        assert threshold(ShapePair(1.0, 999.5), 1.5) == pytest.approx(0.0015, abs=1e-18)

    def test_strictly_increasing_in_kappa(self):
        s = ShapePair(2.5, 40.0)
        ks = np.linspace(0.1, 20.0, 50)
        qs = [threshold(s, k) for k in ks]
        assert all(q2 > q1 for q1, q2 in zip(qs, qs[1:]))

    def test_matches_cdf_argument(self):
        # q(a,b,kappa) equals d1*kappa*mean / (d1*kappa*mean + d2)
        for d1, d2, k in [(1, 3, 0.5), (4, 9, 2.0), (30, 500, 1.01)]:
            p = FParams(d1, d2)
            x = k * mean(p)
            direct = threshold(p.shape(), k)
            via_cdf_arg = d1 * x / (d1 * x + d2)
            assert direct == pytest.approx(via_cdf_arg, rel=1e-14)

    def test_kappa_validation(self):
        with pytest.raises(ValueError):
            threshold(ShapePair(1.0, 2.0), 0.0)
        with pytest.raises(ValueError):
            threshold(ShapePair(1.0, 2.0), math.inf)


class TestProbe:
    def test_closed_form_point(self):
        assert prob_leq_kappa_mean(FParams(2, 4), 1.0) == pytest.approx(0.75, abs=1e-12)

    def test_reference_points(self):
        assert prob_leq_kappa_mean(FParams(2, 1999), 1.5) == pytest.approx(0.776954, abs=5e-6)
        assert prob_leq_kappa_mean(FParams(1, 3), 8.0) == pytest.approx(0.983723, abs=5e-6)

    def test_agrees_with_cdf_path(self, rng):
        for _ in range(200):
            d1 = int(rng.integers(1, 400))
            d2 = int(rng.integers(3, 2000))
            k = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
            p = FParams(d1, d2)
            via_threshold = prob_leq_kappa_mean(p, k)
            via_cdf = cdf(k * mean(p), p)
            assert abs(via_threshold - via_cdf) <= 1e-12

    def test_strictly_increasing_in_kappa(self, rng):
        for _ in range(30):
            d1 = int(rng.integers(1, 12))
            d2 = int(rng.integers(3, 300))
            p = FParams(d1, d2)
            ks = [0.5, 0.9, 1.0, 1.2, 2.0, 4.0]
            vals = [prob_leq_kappa_mean(p, k) for k in ks]
            assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))

    def test_exceeds_half_at_mean(self):
        # strict concentration bound at kappa = 1, over a small grid
        for d1 in range(1, 41):
            for d2 in range(3, 41):
                assert prob_leq_kappa_mean(FParams(d1, d2), 1.0) > 0.5

    def test_decreasing_in_d2_for_kappa_leq_one(self):
        for kappa in (0.25, 1.0):
            for d1 in (1, 3):
                vals = [prob_leq_kappa_mean(FParams(d1, d2), kappa) for d2 in range(3, 61)]
                assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))

    # cells where rounding q as (ka + b) - 1 instead of ka + (b - 1) moved
    # the value by an ulp or more
    @pytest.mark.parametrize("d1, d2, kappa", [(1727, 235, 1.05), (1799, 161, 1.05), (737, 288, 1.001)])
    def test_equals_grid_kernel_bitwise(self, d1, d2, kappa):
        cell, _, _ = probe._min_cell(kappa, np.array([d1 / 2.0]), np.array([d2 / 2.0]))
        assert prob_leq_kappa_mean(FParams(d1, d2), kappa) == cell


class TestKappaGate:
    # each entry point that forms kappa * a, at kappa = 1e308 on shapes with
    # a = 2.5; threshold used to return NaN and the rest to overflow with a
    # RuntimeWarning before failing inside reg_inc_beta or reg_lower_gamma
    @pytest.mark.parametrize(
        "call",
        [
            lambda k: threshold(ShapePair(2.5, 2.5), k),
            lambda k: prob_leq_kappa_mean(FParams(5, 5), k),
            lambda k: probe.grid_infimum(k, probe.GridSpec(5, 5)),
            lambda k: probe.infimum(k, probe.GridSpec(5, 5), a_grid=[1.0]),
            lambda k: probe.limit_b([1.0, 2.5], k),
            lambda k: verify.check_monotone_b(k, [5], range(3, 10)),
            lambda k: verify.check_kappa_monotone([(5, 5)], (1.0, k)),
            lambda k: verify.check_limit((2.5,), (k,), [2.0, 4.0]),
        ],
        ids=["threshold", "prob_leq_kappa_mean", "grid_infimum", "infimum", "limit_b",
             "check_monotone_b", "check_kappa_monotone", "check_limit"],
    )
    def test_overflowing_kappa_names_kappa_and_a(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"kappa \* a finite, got kappa=1e\+308 and a=2\.5"):
                call(1e308)

    def test_names_first_overflowing_a_in_order(self):
        with pytest.raises(ValueError, match=r"got kappa=2\.0 and a=1e\+308$"):
            _check_kappa(2.0, [1.0, 1e308, 1.5e308, 8.0])
        assert _check_kappa(2.0, np.array([[1.0, 8.0e307]])) == 2.0
