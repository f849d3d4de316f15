import hashlib
import math
import pickle
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fconc import (
    ConvergenceError,
    beta,
    ln_beta,
    ln_gamma,
    reg_inc_beta,
    reg_lower_gamma,
)

from fconc import fdist, probe, special
from fconc.special import _CHUNK, REG_INC_BETA_ABS_ERR

from conftest import PROBE_KAPPAS, seeded_triples


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

    def test_accuracy_against_mpmath(self):
        # the documented range, a and b in [0.5, 2000]: ln_beta within 1e-12
        # absolute everywhere, beta within 1e-12 relative where B(a, b) is a
        # normal double (measured on this sample: 7.9e-13 and 3.7e-13)
        mpmath = pytest.importorskip("mpmath")
        g = np.random.default_rng(11)
        a = np.exp(g.uniform(math.log(0.5), math.log(2000.0), 3000))
        b = np.exp(g.uniform(math.log(0.5), math.log(2000.0), 3000))
        got_ln, got = ln_beta(a, b), beta(a, b)
        with mpmath.workdps(40):
            refs = [mpmath.beta(ai, bi) for ai, bi in zip(a.tolist(), b.tolist())]
            ln_err = [abs(float(mpmath.log(r) - v)) for r, v in zip(refs, got_ln.tolist())]
            rel_err = [abs(float((v - r) / r)) for r, v in zip(refs, got.tolist()) if r >= sys.float_info.min]
        assert max(ln_err) <= 1e-12
        assert len(rel_err) > 2500 and max(rel_err) <= 1e-12

    @pytest.mark.parametrize("b, err", [(1e5, 5.1e-13), (1e6, 3.0e-12)])
    def test_ln_beta_error_past_documented_range(self, b, err):
        # past a, b = 2000 the error grows with the shapes, as the docstring
        # states; for a << b it is 5.05e-13 and 2.95e-12 here
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = mpmath.log(mpmath.beta(mpmath.mpf(1.5), mpmath.mpf(b)))
            assert abs(float(ref - ln_beta(1.5, b))) <= err

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


class TestGridBetaDensity:
    @pytest.mark.parametrize("kappa", PROBE_KAPPAS)
    def test_density_takes_ln_beta(self, kappa):
        # one log-Beta: the increment bound's density is formed from ln_beta,
        # hex for hex, at the grid's thresholds, on 2-D rows x columns and
        # on their flattened 1-D form, shapes (0.5, 1.5) to (999.5, 999.5)
        d1 = np.append(np.arange(1, 1999, 26), 1999)
        d2 = np.append(np.arange(3, 1999, 24), 1999)
        a, b = np.broadcast_arrays(d1[:, None] / 2.0, d2[None, :] / 2.0)
        x = fdist._threshold(kappa, a, b)
        want = np.exp((a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) - ln_beta(a, b))
        got = special._grid_beta_density(x, a, b)
        assert got.shape == a.shape
        assert (got.view(np.int64) == want.view(np.int64)).all()
        flat = special._grid_beta_density(x.ravel(), a.ravel(), b.ravel())
        assert (flat.view(np.int64) == want.ravel().view(np.int64)).all()


def _tail_sample(seed, n):
    """(x, a, b) with a, b in [0.5, 1000], a tenth at a = 1, where the tail's
    series is geometric, and a tenth at a < 1, and x in the tail bound's
    domain: on the symmetry branch with r below _TAIL_RATIO_MAX. 1 - x is
    spread log-wise below its largest value there, so tails run from about
    1/2 down past the underflow threshold."""
    g = np.random.default_rng(seed)
    a = np.exp(g.uniform(math.log(0.5), math.log(1000.0), n))
    a[: n // 10] = 1.0
    a[n // 10 : n // 5] = g.uniform(0.5, 1.0, n // 10)
    b = np.exp(g.uniform(math.log(0.5), math.log(1000.0), n))
    ratio = np.maximum((a + b) / (b + 1.0), 1.0)
    y_max = np.minimum(1.0 - (a + 1.0) / (a + b + 2.0), special._TAIL_RATIO_MAX / ratio)
    return 1.0 - 0.999 * y_max * np.exp(-g.exponential(g.choice([0.3, 3.0, 30.0], n))), a, b


class TestTailBound:
    def test_bound_against_mpmath(self):
        # the bound, grown by its allowance, is at least the tail, which
        # mpmath takes directly as I_{1-x}(b, a), never as 1 - I. Measured on
        # this sample before the allowance, where the bound is below 1 (86%
        # of it) and the tail normal: the least ratio is 1.0004 and the
        # median 1.09. Every bound is a normal number, the underflowed
        # tails' included
        mpmath = pytest.importorskip("mpmath")
        x, a, b = _tail_sample(7, 600)
        bound = special._tail_bound(x, a, b)
        assert (bound < 1.0).mean() > 0.8
        with mpmath.workdps(40):
            for xi, ai, bi, ti in zip(x.tolist(), a.tolist(), b.tolist(), bound.tolist()):
                tail = mpmath.betainc(bi, ai, 0, 1 - mpmath.mpf(xi), regularized=True)
                assert ti >= sys.float_info.min
                assert ti * (1.0 + special.BETA_DENSITY_REL_ERR) >= tail, (xi, ai, bi)

    def test_rounding_within_allowance(self):
        # the computed bound against the same closed form in mpmath, at the
        # same double x, a and b: its rounding alone, which the allowance
        # covers (measured on this sample: 2.0e-13)
        mpmath = pytest.importorskip("mpmath")
        x, a, b = _tail_sample(9, 400)
        bound = special._tail_bound(x, a, b)
        with mpmath.workdps(40):
            for xi, ai, bi, ti in zip(x.tolist(), a.tolist(), b.tolist(), bound.tolist()):
                if ti == 1.0:
                    continue
                xm, am, bm = mpmath.mpf(xi), mpmath.mpf(ai), mpmath.mpf(bi)
                u = (am * mpmath.log(xm * (am + bm) / am) + bm * mpmath.log((1 - xm) * (am + bm) / bm)
                     + mpmath.log(am * bm / (2 * mpmath.pi * (am + bm))) / 2 + 1 / (12 * (am + bm)))
                r = (1 - xm) * max((am + bm) / (bm + 1), 1)
                exact = mpmath.exp(max(u, special._LN_TAIL_FLOOR)) / (bm * (1 - r))
                assert abs(ti - exact) <= 0.1 * special.BETA_DENSITY_REL_ERR * exact, (xi, ai, bi)

    def test_not_taken_off_its_domain(self):
        # off the symmetry branch, at x = 1, and on the branch at r >= 0.999
        # (r = 0.9991 at x = 0.5001, a = b = 1500) the bound is the trivial
        # 1.0, formed with no log of 1 - x = 0; just past r, it is taken
        x = np.array([0.3, 1.0, 0.5001, 0.501])
        a, b = np.array([5.0, 5.0, 1500.0, 1500.0]), np.array([5.0, 5.0, 1500.0, 1500.0])
        bound = special._tail_bound(x, a, b)
        assert (bound[:3] == 1.0).all() and bound[3] != 1.0


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

    def test_convergence_error_carries_iterations(self, monkeypatch):
        monkeypatch.setattr(special, "_CF_MAX_ITER", 100)
        with pytest.raises(ConvergenceError) as err:
            reg_lower_gamma(10000.0, 10000.0)
        assert err.value.iterations == 100
        assert err.value.args_at_failure == (10000.0, 10000.0)

    def test_convergence_error_reports_callers_arguments(self, monkeypatch):
        # x lies past (a+1)/(a+b+2), so the fraction runs on the symmetry
        # branch (1-x, b, a); the report still names the caller's (x, a, b)
        monkeypatch.setattr(special, "_CF_MAX_ITER", 100)
        with pytest.raises(ConvergenceError) as err:
            reg_inc_beta(0.50005, 30000.0, 30010.0)
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

    def test_convergence_error_names_first_failure_across_chunks(self, monkeypatch):
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
        monkeypatch.setattr(special, "_CF_MAX_ITER", 100)
        with pytest.raises(ConvergenceError) as err:
            reg_inc_beta(x, a, b)
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

    def test_absolute_error_against_mpmath_large_shapes(self, rng):
        # the module docstring's bound holds for a, b up to ~2000, the range
        # verify's oracle sample draws from; real shapes in [1000, 2000] with
        # x within three standard deviations of the mean a/(a+b), where the
        # fraction is longest and I_x is far from 0 and 1
        mpmath = pytest.importorskip("mpmath")
        n = 20
        a = rng.uniform(1000.0, 2000.0, n)
        b = rng.uniform(1000.0, 2000.0, n)
        sd = np.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
        x = a / (a + b) + rng.uniform(-3.0, 3.0, n) * sd
        got = reg_inc_beta(x, a, b)
        with mpmath.workdps(40):
            for xi, ai, bi, gi in zip(x, a, b, got):
                ref = mpmath.betainc(ai, bi, 0, xi, regularized=True)
                assert abs(float(ref - gi)) <= REG_INC_BETA_ABS_ERR, (xi, ai, bi)

    @pytest.mark.parametrize("a, err", [(1e4, 1.4e-12), (5e4, 3.8e-12), (1e5, 1.8e-11)])
    def test_error_past_documented_range(self, a, err):
        # past a, b = 2000 the error grows with the shapes, as the docstring
        # states, at I_{1/2}(a, a); the reference sums DLMF 8.17.8's
        # hypergeometric series (positive terms), since mpmath.betainc does
        # not converge here
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            am, x = mpmath.mpf(a), mpmath.mpf(0.5)
            series = mpmath.hyp2f1(2 * am, 1, am + 1, x, maxterms=10**6)
            ref = x**am * (1 - x) ** am / (am * mpmath.beta(am, am)) * series
            assert abs(float(ref - reg_inc_beta(0.5, a, a))) <= err


def _series_by_steps(a, x):
    """(sum, steps) of the lower-gamma series at floats a and x, one step at
    a time in the order _gamma_series_step takes it; sum is None when the
    series does not converge within _CF_MAX_ITER steps."""
    ap, h = a, 1.0 / a
    delt = h
    for m in range(1, special._CF_MAX_ITER + 1):
        ap += 1.0
        delt = delt * (x / ap)
        h = h + delt
        if abs(delt) < abs(h) * special._CF_TOLERANCE:
            return h, m
    return None, special._CF_MAX_ITER


class TestRegLowerGamma:
    def test_blocked_series_is_the_step(self, monkeypatch):
        # the series finishes in blocks of _SERIES_BLOCK terms once at most
        # that many elements run: the default a-grid's 60-point tail near
        # kappa = 1, the 40-element calls whole, and the random sample's
        # slowest. Every value is the scalar loop's, hex for hex
        block, blocks = special._gamma_series_block, []

        def recording(s, n, tol):
            blocks.append(s.h.size)
            return block(s, n, tol)

        monkeypatch.setattr(special, "_gamma_series_block", recording)
        a_grid = probe.default_a_grid()
        g = np.random.default_rng(7)
        a_rand = np.exp(g.uniform(np.log(0.5), np.log(2e4), 400))
        cases = [(a_grid, kappa * a_grid) for kappa in PROBE_KAPPAS]
        cases += [(a_rand, a_rand * g.uniform(0.2, 1.0, a_rand.size))]
        cases += [(a_rand[i : i + 40], a_rand[i : i + 40]) for i in (0, 200)]
        for a, x in cases:
            series = x < a + 1.0
            if not series.any():
                continue
            a, x = a[series], x[series]
            sums = [_series_by_steps(ai, xi)[0] for ai, xi in zip(a, x)]
            want = np.clip(np.array(sums) * special._gamma_prefactor(a, x), 0.0, 1.0)
            blocks.clear()
            assert reg_lower_gamma(a, x).tobytes() == want.tobytes()
            assert blocks and max(blocks) <= special._SERIES_BLOCK
    @pytest.mark.parametrize(
        "kappa, digest",
        [
            (0.5, "34c649aa439b27861b976b8d4e2a124ab1d6ded0a15ad693e8c27a03b1bb5039"),
            (1.0, "208fcedd11f2d51330a47393b1db29dcd46381a5f621bdd3cf7eaa4a9374989d"),
            (1.00005, "a0099ba9722f0c767a833ae06ee3ba4fd5a8eaef34cf9b79a4474f23c68697ec"),
        ],
    )
    def test_series_limit_curve_bytes_pinned(self, kappa, digest):
        # every term and partial sum of the series is positive, so its
        # convergence test takes no abs; the limit curve over the default
        # a-grid, all on the series at these kappas, keeps its bytes
        vals = probe.limit_b(probe.default_a_grid(), kappa)
        assert hashlib.sha256(vals.tobytes()).hexdigest() == digest

    def test_blocked_series_names_first_failure(self, monkeypatch):
        # at a cap of 100 steps, (200, 200), which needs 123, and (4000,
        # 4000) and (5000, 5000) fail among elements that converge within
        # it, in a call that starts step by step and in one blocked
        # throughout: the lowest-index failure is named, with the scalar
        # loop's iterations and arguments, and a block past the cap would
        # have let (200, 200) through
        monkeypatch.setattr(special, "_CF_MAX_ITER", 100)
        for n in (200, 10):
            a = np.linspace(0.5, 20.0, n)
            x = 0.5 * a
            failing = [n // 3, n // 2, n - 3]
            a[failing] = x[failing] = (200.0, 4000.0, 5000.0)
            assert [i for i in range(n) if _series_by_steps(a[i], x[i])[0] is None] == failing
            with pytest.raises(ConvergenceError) as err:
                reg_lower_gamma(a, x)
            assert err.value.iterations == 100
            assert err.value.args_at_failure == (200.0, 200.0)
            assert str(err.value) == (
                "lower incomplete gamma series: not converged after 100 iterations; first offender a=200.0, x=200.0"
            )

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


def _guarded_fraction(start, step, what, report):
    # reference: the Lentz loop with its guards on every step, as it ran
    # before the guard-free first pass
    return special._converge(lambda s, m, tol: step(s, m, tol, True), start(), what, report)


def _unguarded_fraction(start, step, what, report):
    # the first pass alone, with no guarded rerun
    with np.errstate(divide="raise", invalid="raise"):
        return special._converge(lambda s, m, tol: step(s, m, tol, False), start(), what, report)


class TestGuardFreeLentz:
    """Both Lentz fractions run first without the _TINY guards and rerun
    guarded on a raise or at the cap; every value and failure is the
    guarded loop's."""

    @staticmethod
    def _both(monkeypatch, fn, *args):
        fast = fn(*args)
        with monkeypatch.context() as m:
            m.setattr(special, "_lentz_converge", _guarded_fraction)
            guarded = fn(*args)
        return fast, guarded

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 1.00005, 1.005, 1.5, 3.005, 16.0])
    def test_grid_probes_match_guarded_loop(self, monkeypatch, kappa):
        # a lattice through the full-caps grid, rows and columns off every
        # stride the pass uses
        a = np.arange(1, 2000, 13)[:, None] / 2.0
        b = np.arange(3, 2000, 17)[None, :] / 2.0
        fast, guarded = self._both(monkeypatch, fdist._probe, kappa, a, b)
        assert fast.tobytes() == guarded.tobytes()

    def test_suite_sample_matches_guarded_loop(self, monkeypatch):
        # the one continued-fraction call of a full verification suite
        from fconc import verify

        calls = []

        def record(*args):
            calls.append(args)
            return reg_inc_beta(*args)

        with monkeypatch.context() as m:
            m.setattr(verify, "reg_inc_beta", record)
            verify.run_suite("full", seed=1729)
        (args,) = calls
        fast, guarded = self._both(monkeypatch, reg_inc_beta, *args)
        assert fast.tobytes() == guarded.tobytes()

    def test_upper_gamma_fraction_matches_guarded_loop(self, monkeypatch):
        g = np.random.default_rng(11)
        a = np.exp(g.uniform(np.log(0.5), np.log(5e4), 2000))
        x = (a + 1.0) * np.exp(g.uniform(0.0, np.log(50.0), a.size))
        cases = [(a, x)] + [(probe.default_a_grid(), kappa * probe.default_a_grid()) for kappa in (1.5, 3.0, 16.0)]
        for aa, xx in cases:
            assert (xx >= aa + 1.0).any()
            fast, guarded = self._both(monkeypatch, reg_lower_gamma, aa, xx)
            assert fast.tobytes() == guarded.tobytes()

    def test_exact_zero_denominator_falls_back(self, monkeypatch):
        # x = 0.75, a = 1, b = 2: d starts at 1 / (1 - 3 * 0.75 / 2) = -8 and
        # the first numerator is 0.75 / 6 = 0.125, so a_1 d = -1 exactly and
        # the first denominator is 0. The unguarded loop raises at 1 / d,
        # the guarded one carries _TINY, and the call gives the guarded value
        # with no RuntimeWarning
        x, a, b = np.array([0.75]), np.array([1.0]), np.array([2.0])
        report = {"x": x, "a": a, "b": b}
        with monkeypatch.context() as m:
            m.setattr(special, "_lentz_converge", _unguarded_fraction)
            with pytest.raises(FloatingPointError):
                special._beta_cf(x, a, b, report)
        lentz, guards, guarded_d = special._lentz, [], []

        def watching(s, an, bn, guard):
            guards.append(guard)
            out = lentz(s, an, bn, guard)
            guarded_d.append(float(s.d[0]))
            return out

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            monkeypatch.setattr(special, "_lentz", watching)
            fast = special._beta_cf(x, a, b, report)
            # the unguarded first half-step raised; the rerun's first d is
            # 1 / _TINY
            assert guards[0] is False and all(guards[1:])
            assert guarded_d[0] == 1.0 / special._TINY
            monkeypatch.setattr(special, "_lentz_converge", _guarded_fraction)
            guarded = special._beta_cf(x, a, b, report)
        assert fast.tobytes() == guarded.tobytes()

    def test_failures_match_guarded_loop_at_cap(self, monkeypatch):
        # at a cap of 100 iterations the unguarded pass fails, the guarded
        # rerun fails too, and its error is the one raised: same message,
        # iterations and arguments, on both fractions
        monkeypatch.setattr(special, "_CF_MAX_ITER", 100)
        x = np.array([0.25, 0.50005, 0.3, 0.50005])
        a = np.array([2.0, 30000.0, 4.0, 30001.0])
        b = np.array([3.0, 30010.0, 5.0, 30011.0])
        ga = np.array([500.0, 3000.0, 2.0, 10000.0])
        cases = [(reg_inc_beta, (x, a, b)), (reg_lower_gamma, (ga, ga + 1.0))]
        for fn, args in cases:
            errors = []
            for patch in (None, _guarded_fraction):
                with monkeypatch.context() as m:
                    if patch:
                        m.setattr(special, "_lentz_converge", patch)
                    with pytest.raises(ConvergenceError) as err:
                        fn(*args)
                errors.append((str(err.value), err.value.iterations, err.value.args_at_failure))
            assert errors[0] == errors[1]
            assert errors[0][2] == tuple(float(v[1]) for v in args)

    def test_no_guarded_rerun_on_the_tables_and_suites(self, monkeypatch, capsys):
        # the full-caps table and verification suites 0-63 never take the
        # guarded loop: every one of their fractions is decided unguarded
        from fconc import cli

        runs = {"fractions": 0, "guarded_steps": 0}
        fraction = special._lentz_converge

        def counted(start, step, what, report):
            runs["fractions"] += 1

            def counted_step(s, m, tol, guard):
                runs["guarded_steps"] += guard
                return step(s, m, tol, guard)

            return fraction(start, counted_step, what, report)

        monkeypatch.setattr(special, "_lentz_converge", counted)
        assert cli.main(["table", "--format", "csv"]) == 0
        for seed in range(64):
            assert cli.main(["verify", "--profile", "full", "--seed", str(seed), "--format", "json"]) == 0
        capsys.readouterr()
        assert runs["fractions"] > 100
        assert runs["guarded_steps"] == 0
