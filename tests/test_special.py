import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fconc import (
    ConvergenceError,
    EvalConfig,
    beta,
    ln_beta,
    ln_gamma,
    reg_inc_beta,
    reg_lower_gamma,
)

from fconc.special import _CHUNK, REG_INC_BETA_ABS_ERR

from conftest import PROBE_KAPPAS, seeded_triples


class TestEvalConfig:
    def test_defaults_valid(self):
        cfg = EvalConfig()
        assert 0 < cfg.cf_tolerance < 1e-6
        assert cfg.cf_max_iter >= 100
        assert 0 < cfg.quad_tolerance < 1e-6
        assert cfg.quad_max_level >= 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cf_tolerance": 0.0},
            {"cf_tolerance": 1e-6},
            {"cf_max_iter": 99},
            {"quad_tolerance": -1e-9},
            {"quad_tolerance": 1e-3},
            {"quad_max_level": 4},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EvalConfig(**kwargs)


class TestLnGamma:
    def test_known_points(self):
        assert abs(ln_gamma(1.0)) <= 1e-13
        assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-13)
        assert ln_gamma(6.0) == pytest.approx(math.log(120.0), rel=1e-13)

    def test_accuracy_against_stdlib(self):
        # relative criterion, floored at 1 near the zeros of log-gamma
        xs = np.concatenate([np.linspace(0.5, 30.0, 1500), np.geomspace(30.0, 1e6, 1500)])
        ref = np.array([math.lgamma(v) for v in xs])
        err = np.abs(ln_gamma(xs) - ref) / np.maximum(1.0, np.abs(ref))
        assert err.max() <= 1e-13

    def test_reflection_region(self):
        for x in (0.01, 0.1, 0.3, 0.49):
            assert ln_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            ln_gamma(bad)


class TestBeta:
    def test_uniform_density(self):
        assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_half_integer_values(self):
        # Gamma(1/2)Gamma(3/2)/Gamma(2) and Gamma(1/2)Gamma(2)/Gamma(5/2) by hand
        assert beta(0.5, 1.5) == pytest.approx(math.pi / 2.0, rel=1e-12)
        assert beta(0.5, 2.0) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_matches_lgamma_form(self, rng):
        a = np.exp(rng.uniform(np.log(0.5), np.log(300.0), 200))
        b = np.exp(rng.uniform(np.log(0.5), np.log(300.0), 200))
        direct = ln_beta(a, b)
        via_gamma = ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
        assert np.abs(direct - via_gamma).max() <= 1e-11

    def test_chunked_call_matches_slices(self):
        # two chunks and a tail, sub-0.5 shapes included, against calls
        # whose batches end elsewhere
        g = np.random.default_rng(6)
        a = g.uniform(0.01, 3000.0, 2 * _CHUNK + 5)
        b = g.uniform(0.01, 3000.0, a.size)
        sliced = np.concatenate([ln_beta(a[i:i + 997], b[i:i + 997]) for i in range(0, a.size, 997)])
        assert (sliced.view(np.int64) == ln_beta(a, b).view(np.int64)).all()

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            beta(0.0, 1.0)
        with pytest.raises(ValueError):
            beta(1.0, -2.0)

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            beta(1e-310, 1e-310)


class TestRegIncBeta:
    def test_endpoints_exact(self):
        assert reg_inc_beta(0.0, 2.5, 7.0) == 0.0
        assert reg_inc_beta(1.0, 2.5, 7.0) == 1.0

    def test_symmetric_half(self):
        assert reg_inc_beta(0.5, 3.0, 3.0) == pytest.approx(0.5, abs=1e-13)

    def test_closed_form_small(self):
        # I_x(1, b) = 1 - (1-x)^b
        assert reg_inc_beta(0.25, 1.0, 2.0) == pytest.approx(0.4375, abs=1e-13)
        # integral of t^(-1/2)(1-t) on [0, 0.3] over B(1/2, 2) = 4/3
        closed = (2.0 * math.sqrt(0.3) - (2.0 / 3.0) * 0.3 ** 1.5) * 0.75
        assert reg_inc_beta(0.3, 0.5, 2.0) == pytest.approx(closed, abs=1e-12)

    def test_closed_form_a_equal_one(self):
        g = np.random.default_rng(7)
        x = g.uniform(1e-6, 1.0 - 1e-6, 500)
        b = np.exp(g.uniform(0.0, np.log(2000.0), 500))
        got = reg_inc_beta(x, 1.0, b)
        want = -np.expm1(b * np.log1p(-x))
        assert np.abs(got - want).max() <= 1e-12

    def test_symmetry_identity(self):
        arr = seeded_triples(11, 1000, 0.5, 2000.0)
        x, a, b = arr[:, 0], arr[:, 1], arr[:, 2]
        resid = np.abs(reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a) - 1.0)
        assert resid.max() <= 1e-12

    def test_recurrence_identity(self):
        arr = seeded_triples(12, 300, 0.5, 500.0)
        x, a, b = arr[:, 0], arr[:, 1], arr[:, 2]
        lhs = reg_inc_beta(x, a, b + 1.0)
        rhs = reg_inc_beta(x, a, b) + np.exp(
            a * np.log(x) + b * np.log1p(-x) - np.log(b) - ln_beta(a, b)
        )
        assert np.abs(lhs - rhs).max() <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        x1=st.floats(0.0, 1.0),
        x2=st.floats(0.0, 1.0),
        a=st.floats(0.5, 300.0),
        b=st.floats(0.5, 300.0),
    )
    def test_monotone_in_x(self, x1, x2, a, b):
        lo, hi = sorted((x1, x2))
        # tolerance matches the absolute accuracy of the evaluation
        assert reg_inc_beta(lo, a, b) <= reg_inc_beta(hi, a, b) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        # keep x away from the endpoints: within ~1e-8 of them, rounding of
        # 1-x meets the x^(a-1) density singularity and the identity can
        # only hold to density * ulp, not to 1e-12
        x=st.floats(1e-6, 1.0 - 1e-6),
        a=st.floats(0.5, 500.0),
        b=st.floats(0.5, 500.0),
    )
    def test_range_and_symmetry_property(self, x, a, b):
        v = reg_inc_beta(x, a, b)
        assert 0.0 <= v <= 1.0
        assert reg_inc_beta(1.0 - x, b, a) + v == pytest.approx(1.0, abs=1e-12)

    def test_broadcasting_matches_scalar(self):
        xs = np.array([0.1, 0.4, 0.9])
        out = reg_inc_beta(xs, 2.0, 5.0)
        for i, x in enumerate(xs):
            assert out[i] == reg_inc_beta(float(x), 2.0, 5.0)

    @pytest.mark.parametrize("args", [(-0.1, 1, 1), (1.1, 1, 1), (0.5, 0, 1), (0.5, 1, -3)])
    def test_domain_errors(self, args):
        with pytest.raises(ValueError):
            reg_inc_beta(*args)

    def test_convergence_error_carries_iterations(self):
        cfg = EvalConfig(cf_max_iter=100)
        with pytest.raises(ConvergenceError) as err:
            reg_lower_gamma(10000.0, 10000.0, cfg)
        assert err.value.iterations == 100
        assert err.value.args_at_failure == (10000.0, 10000.0)

    def test_convergence_error_reports_callers_arguments(self):
        # x lies past (a+1)/(a+b+2), so the fraction runs on the symmetry
        # branch (1-x, b, a); the report still names the caller's (x, a, b)
        with pytest.raises(ConvergenceError) as err:
            reg_inc_beta(0.50005, 30000.0, 30010.0, EvalConfig(cf_max_iter=100))
        assert err.value.args_at_failure == (0.50005, 30000.0, 30010.0)
        assert "x=0.50005, a=30000.0, b=30010.0" in str(err.value)

    def test_chunked_call_matches_single_element_calls(self):
        # x = 0 and x = 1 interleaved, so the chunk edges of the interior
        # points fall away from multiples of _CHUNK in the array
        n = 3 * _CHUNK + 17
        g = np.random.default_rng(5)
        x = g.uniform(0.0, 1.0, n)
        x[::5] = 0.0
        x[2::7] = 1.0
        a = g.integers(1, 4000, n) / 2.0
        b = g.integers(1, 4000, n) / 2.0
        out = reg_inc_beta(x, a, b)
        # every element against a call whose batches end elsewhere, and the
        # elements at the chunk edges plus a random sample one at a time
        parts = [slice(i, i + 997) for i in range(0, n, 997)]
        sliced = np.concatenate([reg_inc_beta(x[p], a[p], b[p]) for p in parts])
        assert (sliced.view(np.int64) == out.view(np.int64)).all()
        interior = np.flatnonzero((x > 0.0) & (x < 1.0))
        edges = [interior[j] for k in range(1, 4) for j in (k * _CHUNK - 1, k * _CHUNK) if j < interior.size]
        picks = np.concatenate([edges, [0, 1, 2, interior[-1], n - 1], g.integers(0, n, 200)])
        single = np.array([reg_inc_beta(float(x[i]), float(a[i]), float(b[i])) for i in picks])
        assert (single.view(np.int64) == out[picks].view(np.int64)).all()

    def test_convergence_error_names_first_failure_across_chunks(self):
        # the first chunk converges quickly; each later chunk holds a triple
        # whose fraction needs more than 100 iterations
        n = 4 * _CHUNK
        x = np.full(n, 0.25)
        a = np.full(n, 2.0)
        b = np.full(n, 3.0)
        x[::4] = 0.0
        interior = np.flatnonzero(x)
        failing = {_CHUNK + 11: (0.50005, 30000.0, 30010.0), 2 * _CHUNK + 5: (0.50005, 30001.0, 30011.0)}
        for j, triple in failing.items():
            x[interior[j]], a[interior[j]], b[interior[j]] = triple
        with pytest.raises(ConvergenceError) as err:
            reg_inc_beta(x, a, b, EvalConfig(cf_max_iter=100))
        assert err.value.args_at_failure == (0.50005, 30000.0, 30010.0)
        # a count of failures would be over one chunk, not the whole call
        assert str(err.value) == (
            "incomplete beta continued fraction: not converged after 100 iterations; "
            "first offender x=0.50005, a=30000.0, b=30010.0"
        )

    def test_convergence_error_pickle_round_trip(self):
        # process-pool workers send their exceptions to the parent pickled
        exc = ConvergenceError("cf stalled", 2000, (0.25, 1.5, 999.5))
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is ConvergenceError
        assert str(back) == "cf stalled"
        assert back.iterations == 2000
        assert back.args_at_failure == (0.25, 1.5, 999.5)

    def test_absolute_error_against_mpmath(self, rng):
        # the grid search's pruning margin rests on this bound, over the
        # cells it evaluates (x = q(a, b)) and the block bounds it forms
        # (x = q(a_lo, b_hi) at shapes (a_hi, b_lo)); half-integer shapes
        # in [0.5, 999.5]
        mpmath = pytest.importorskip("mpmath")
        n = 150
        kappa = rng.choice(PROBE_KAPPAS, 2 * n)
        a_hi = rng.integers(1, 2000, 2 * n) / 2.0
        b_lo = rng.integers(3, 2000, 2 * n) / 2.0
        # first half cells (zero offsets), second half block corners
        da = np.where(np.arange(2 * n) < n, 0, rng.integers(0, 16, 2 * n)) / 2.0
        db = np.where(np.arange(2 * n) < n, 0, rng.integers(0, 16, 2 * n)) / 2.0
        a_lo = np.maximum(a_hi - da, 0.5)
        b_hi = np.minimum(b_lo + db, 999.5)
        ka = kappa * a_lo
        x = ka / (ka + (b_hi - 1.0))
        got = reg_inc_beta(x, a_hi, b_lo)
        with mpmath.workdps(40):
            for xi, ai, bi, gi in zip(x, a_hi, b_lo, got):
                ref = mpmath.betainc(ai, bi, 0, xi, regularized=True)
                assert abs(float(ref - gi)) <= REG_INC_BETA_ABS_ERR, (xi, ai, bi)


class TestRegLowerGamma:
    def test_exponential_special_case(self):
        assert reg_lower_gamma(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-13)

    def test_erf_special_case(self):
        # P(1/2, x) = erf(sqrt(x))
        assert reg_lower_gamma(0.5, 1.5) == pytest.approx(math.erf(math.sqrt(1.5)), abs=1e-13)
        for x in (0.01, 0.7, 3.0, 20.0):
            assert reg_lower_gamma(0.5, x) == pytest.approx(math.erf(math.sqrt(x)), abs=1e-12)

    def test_empty_integral(self):
        assert reg_lower_gamma(2.0, 0.0) == 0.0

    def test_monotone_and_bounded(self, rng):
        a = np.exp(rng.uniform(np.log(0.5), np.log(1000.0), 50))
        for ai in a:
            xs = np.linspace(0.0, 3.0 * ai, 40)
            vals = reg_lower_gamma(np.full_like(xs, ai), xs)
            assert (np.diff(vals) >= -1e-13).all()
            assert ((0.0 <= vals) & (vals <= 1.0)).all()

    def test_absolute_error_against_mpmath(self, rng):
        # the module docstring's claims near x = a, where the log prefactor
        # cancels most: 1e-12 up to a = 500, 1e-11 up to a = 1e4
        mpmath = pytest.importorskip("mpmath")
        a = np.concatenate([rng.integers(1, 1001, 150) / 2.0, np.geomspace(1000.0, 10000.0, 61)[1:]])
        x = rng.uniform(0.95, 1.05, a.size) * a
        tol = np.where(a <= 500.0, 1e-12, 1e-11)
        got = reg_lower_gamma(a, x)
        with mpmath.workdps(40):
            for ai, xi, gi, ti in zip(a, x, got, tol):
                ref = mpmath.gammainc(ai, 0, xi, regularized=True)
                assert abs(float(ref - gi)) <= ti, (ai, xi)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_lower_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            reg_lower_gamma(1.0, -0.5)
