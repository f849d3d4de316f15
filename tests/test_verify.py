import dataclasses
import json
import math
import re
import sys
import warnings

import numpy as np
import pytest

import fconc.verify
from fconc import (
    CheckResult,
    ConvergenceError,
    FParams,
    QuadratureError,
    check_kappa_monotone,
    check_limit,
    check_monotone_b,
    check_recurrence,
    prob_leq_kappa_mean,
    reg_inc_beta,
    run_suite,
    quad_inc_beta,
    VerificationReport,
)
from fconc.fdist import _probe
from fconc.probe import limit_b
from fconc.verify import check_oracle_agreement

from conftest import seeded_triples


class TestQuadIncBeta:
    def test_uniform_cdf(self):
        assert quad_inc_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-10)

    def test_singular_endpoint(self):
        closed = (2.0 * math.sqrt(0.3) - (2.0 / 3.0) * 0.3 ** 1.5) * 0.75
        assert quad_inc_beta(0.3, 0.5, 2.0) == pytest.approx(closed, abs=1e-10)

    def test_reference_table_point(self):
        # threshold(0.5, 1.5, kappa=16) = 8/8.5 feeds the (1, 3) row
        v = quad_inc_beta(8.0 / 8.5, 0.5, 1.5)
        assert v == pytest.approx(0.993835, abs=5e-6)
        assert v == pytest.approx(reg_inc_beta(8.0 / 8.5, 0.5, 1.5), abs=1e-9)

    def test_endpoints(self):
        assert quad_inc_beta(0.0, 1.0, 2.0) == 0.0
        assert quad_inc_beta(1.0, 1.0, 2.0) == 1.0

    def test_sharp_peak_large_parameters(self):
        v = quad_inc_beta(0.5, 800.0, 800.0)
        assert v == pytest.approx(reg_inc_beta(0.5, 800.0, 800.0), abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            quad_inc_beta(-0.2, 1.0, 1.0)
        with pytest.raises(ValueError):
            quad_inc_beta(0.5, 0.3, 1.0)

    @pytest.mark.parametrize("a, b", [(0.5, math.nan), (math.nan, 1.0), (math.inf, 1.0), (0.5, math.inf)])
    def test_non_finite_shape_is_domain_error(self, a, b):
        # unchecked, each refines to the cap and fails as a QuadratureError,
        # a NaN a after RuntimeWarnings: a domain error, not a convergence one
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="a and b to be finite"):
                quad_inc_beta(0.5, a, b)

    @pytest.mark.parametrize("x, a, b", [(0.5, 1.0, 1e10), (0.5, 1.0, 1e44), (0.5, 1e6, 1e6)])
    def test_shapes_past_the_domain_bound_rejected(self, x, a, b):
        # far past the bound the complete integral cannot converge; the
        # caller gets a domain error naming the bound, not a convergence one
        with pytest.raises(ValueError, match="at most 100000"):
            quad_inc_beta(x, a, b)

    def test_shapes_at_the_domain_bound_accepted(self):
        # I_{1/2}(a, a) = 1/2; the 1e-12 budget is checked only up to 2000,
        # and here the oracle measured 6.5e-12 off
        assert quad_inc_beta(0.5, 1e5, 1e5) == pytest.approx(0.5, abs=1e-10)

    def test_refinement_cap_error(self, tight_oracle):
        with pytest.raises(QuadratureError) as err:
            quad_inc_beta(0.5, 1500.0, 1500.0)
        assert err.value.iterations == 5

    @pytest.mark.parametrize(
        "x, a, b",
        [(0.5, 1.0, 1.0), (0.3, 0.5, 2.0), (8.0 / 8.5, 0.5, 1.5), (0.0, 1.0, 2.0), (1.0, 1.0, 2.0),
         (0.5, 800.0, 800.0)],
    )
    def test_equals_scalar_loop(self, x, a, b):
        assert quad_inc_beta(x, a, b).hex() == _quad_ref(x, a, b).hex()

    def test_broadcasts_like_a_ufunc(self):
        # a (3, 1) x against a (3,) a and a scalar b; each element gets the
        # bits of its own scalar call, and scalars give a float
        x, a = np.array([[0.0], [0.35], [1.0]]), np.array([0.5, 3.0, 40.0])
        got = quad_inc_beta(x, a, 2.5)
        assert got.shape == (3, 3)
        loop = [[quad_inc_beta(xi, ai, 2.5).hex() for ai in a.tolist()] for xi in x.ravel().tolist()]
        assert [[v.hex() for v in row] for row in got.tolist()] == loop
        assert type(quad_inc_beta(np.float64(0.35), 3, 2.5)) is float

    def test_underflowing_partial_integral_gives_zero(self):
        # I_x(2, 1) = x^2 underflows at x = 5e-324: the partial integral,
        # scaled from [0, 1], has a finite log whose exp is 0.0, with no
        # warning, and the other rows keep the bits of their scalar calls
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert quad_inc_beta(5e-324, 2.0, 1.0) == 0.0
            s = seeded_triples(3, 64, 0.5, 2000.0)
            s[17] = (5e-324, 2.0, 1.0)
            got = quad_inc_beta(s[:, 0], s[:, 1], s[:, 2])
        assert got[17] == 0.0
        rest = np.arange(64) != 17
        assert [v.hex() for v in got[rest].tolist()] == [_quad_ref(*row).hex() for row in s[rest].tolist()]
        # subnormal x give their closed forms, x and 15/16 * 2 sqrt(x)
        assert quad_inc_beta(5e-324, 1.0, 1.0) == 5e-324
        assert quad_inc_beta(1e-310, 1.0, 1.0) == pytest.approx(1e-310, rel=1e-12)
        assert quad_inc_beta(1e-310, 0.5, 3.0) == pytest.approx(1.875e-155, rel=1e-12)

    @pytest.mark.parametrize("a", [0.5, 2.0, 700.0])
    def test_tiny_x_against_mpmath(self, a):
        # taken over [0, x], a partial integral's weights and node distances
        # underflow for tiny x, and refinement stalled at the cap at 1e-295,
        # 1e-299, 1e-315 and 1e-320. Held to the documented 1e-12 absolute error, and
        # below _X_TINY, where I_x is a normal double, to 1e-12 relative
        # (measured: 4e-14)
        mpmath = pytest.importorskip("mpmath")
        xs = [1e-280, 1e-285, 1e-290, 1e-295, 1e-299, 1e-301, 1e-305, 1e-308, 1e-310, 1e-315, 1e-320, 5e-324]
        got = quad_inc_beta(np.array(xs), a, 3.0)
        with mpmath.workdps(40):
            for x, g in zip(xs, got.tolist()):
                ref = mpmath.betainc(a, 3.0, 0, x, regularized=True)
                assert abs(float(ref - g)) <= 1e-12, x
                if x < fconc.verify._X_TINY and ref >= sys.float_info.min:
                    assert abs(float((g - ref) / ref)) <= 1e-12, x

    @pytest.mark.parametrize("first, second", [(0, 1), (fconc.verify._ROWS - 1, fconc.verify._ROWS), (5, 100)])
    @pytest.mark.parametrize("complete_first", [True, False])
    def test_failure_order_is_the_scalar_loop_order(self, tight_oracle, first, second, complete_first):
        # at this cap (0.001, 2, 1500) fails only its complete integral and
        # (0.5, 2, 1500) its partial one; a scalar loop meets element i's
        # partial integral, then its complete one, then element i + 1's.
        # (_ROWS - 1, _ROWS) puts the two in different chunks.
        complete_fails, partial_fails = (0.001, 2.0, 1500.0), (0.5, 2.0, 1500.0)
        sample = np.tile((0.3, 2.0, 3.0), (second + 1, 1))
        sample[first], sample[second] = (
            (complete_fails, partial_fails) if complete_first else (partial_fails, complete_fails)
        )
        with pytest.raises(QuadratureError) as err:
            quad_inc_beta(sample[:, 0], sample[:, 1], sample[:, 2])
        assert err.value.args_at_failure == ((1.0, 2.0, 1500.0) if complete_first else partial_fails)
        assert err.value.iterations == 5

    def test_level_tables_read_only_and_history_free(self, monkeypatch, tight_oracle):
        # the per-level node tables are shared by every call: a capped call
        # that raised, then a call at other settings, must leave the bits of
        # a later call at the fixed settings equal to the one-integral reference
        fconc.verify._ts_level.cache_clear()
        with pytest.raises(QuadratureError):
            quad_inc_beta(0.5, 2.0, 1500.0)
        s = seeded_triples(5, 60, 0.5, 2000.0)
        monkeypatch.setattr(fconc.verify, "_LOG_TOLERANCE", 2.5e-8)
        monkeypatch.setattr(fconc.verify, "_MAX_LEVEL", 14)
        quad_inc_beta(s[:, 0], s[:, 1], s[:, 2])
        monkeypatch.undo()
        got = quad_inc_beta(s[:, 0], s[:, 1], s[:, 2])
        assert [v.hex() for v in got.tolist()] == [_quad_ref(*row).hex() for row in s.tolist()]
        levels = fconc.verify._ts_level.cache_info().currsize
        assert levels >= 6
        for level in range(levels):
            arrays = [v for v in fconc.verify._ts_level(level) if isinstance(v, np.ndarray)]
            assert len(arrays) == 7
            for arr in arrays:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0.0

    @pytest.mark.parametrize("seed", [1729, 7, 19])
    def test_absolute_error_against_mpmath(self, seed):
        # the oracle held to an independent 40-digit value on the sample the
        # full suite's oracle check draws (x uniform, a and b log-uniform on
        # [0.5, 2000]); the worst error measured is about 1.3e-13
        mpmath = pytest.importorskip("mpmath")
        s = fconc.verify._triple_sample(np.random.default_rng(seed), 150, 2000.0)
        got = quad_inc_beta(s[:, 0], s[:, 1], s[:, 2])
        with mpmath.workdps(40):
            for (x, a, b), g in zip(s.tolist(), got.tolist()):
                ref = mpmath.betainc(a, b, 0, x, regularized=True)
                assert abs(float(ref - g)) <= 1e-12, (x, a, b)


class TestCheckRecurrence:
    def test_exact_arithmetic_point(self):
        # I_{1/2}(1,2) = 0.75, I_{1/2}(1,1) = 0.5, correction = 0.25
        r = check_recurrence([(0.5, 1.0, 1.0)])
        assert r.passed and r.max_residual <= 1e-14

    def test_x_zero_vanishes(self):
        r = check_recurrence([(0.0, 2.0, 3.0)])
        assert r.passed and r.max_residual == 0.0

    def test_large_sample_passes(self):
        r = check_recurrence(seeded_triples(31, 1000, 0.5, 500.0))
        assert r.passed
        assert r.max_residual <= 1e-10
        assert r.samples == 1000

    def test_injected_fault_fails_with_name(self):
        r = check_recurrence(seeded_triples(31, 50, 0.5, 500.0), tol=1e-20)
        assert not r.passed
        assert r.name == "recurrence-identity"


class TestCheckMonotoneB:
    def test_kappa_one_strict_decrease(self):
        r = check_monotone_b(1.0, [2], range(3, 201))
        assert r.passed
        assert r.max_residual < -1e-14

    def test_kappa_half_strict_decrease(self):
        r = check_monotone_b(0.5, [1], range(3, 201))
        assert r.passed

    def test_kappa_above_one_observational(self):
        r = check_monotone_b(1.5, [1], range(3, 60))
        assert r.passed
        assert "observational" in r.name

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            check_monotone_b(1.0, [1], [3, 5, 7])

    @pytest.mark.parametrize("d1_list, named", [((1, 2, 3), 1), ((3, 1, 2), 3)])
    def test_violation_names_first_d1_at_worst_step(self, d1_list, named):
        # every d1 violates; d1 = 1 has the largest difference
        r = check_monotone_b(1.0, d1_list, range(3, 30), tol_strict=1e-2)
        assert not r.passed
        assert r.samples == 78
        assert r.detail == f"violation at (d1, d2, kappa) = ({named}, 29, 1.0)"


class TestCheckLimit:
    def test_acceptance_parameters(self):
        r = check_limit((0.5, 1.0, 5.0), (0.5, 1.0), [2.0 ** j for j in range(1, 14)])
        assert r.passed
        assert r.max_residual <= 1e-3

    def test_closed_form_cross_check(self):
        # a = 1: I via 1-(1-q)^b against 1 - exp(-kappa)
        b = 2.0 ** 13
        q = 1.0 / (1.0 + b - 1.0)
        closed = -math.expm1(b * math.log1p(-q))
        assert abs(closed - (1.0 - math.exp(-1.0))) <= 1e-3
        assert reg_inc_beta(q, 1.0, b) == pytest.approx(closed, abs=1e-12)

    def test_bad_ladder_rejected(self):
        with pytest.raises(ValueError):
            check_limit((1.0,), (1.0,), [4.0, 2.0])

    def test_violation_names_first_pair_a_major(self, monkeypatch):
        # the probe falls onto its limit from above; raising the limit by
        # 0.01 for two pairs makes their residual grow once the gap is
        # below 0.01, and (a, kappa) = (1, 1) comes before (5, 0.5) a-major
        def shifted(a, kappa):
            a = np.asarray(a, dtype=np.float64)
            hit = ((a == 1.0) & (kappa == 1.0)) | ((a == 5.0) & (kappa == 0.5))
            return limit_b(a, kappa) + np.where(hit, 0.01, 0.0)

        monkeypatch.setattr(fconc.verify, "limit_b", shifted)
        r = check_limit((0.5, 1.0, 5.0), (0.5, 1.0), [2.0 ** j for j in range(1, 14)])
        assert not r.passed
        assert r.samples == 78
        assert r.detail == "non-shrinking residual at (a, kappa, b, b') = (1.0, 1.0, 16.0, 32.0)"


class TestCheckKappaMonotone:
    def test_reference_ladder(self):
        from fconc import FParams, prob_leq_kappa_mean

        r = check_kappa_monotone([(1, 3)], (1.0, 2.0, 4.0, 8.0, 16.0))
        assert r.passed
        assert prob_leq_kappa_mean(FParams(1, 3), 16.0) == pytest.approx(0.993835, abs=5e-6)

    def test_second_reference_pair(self):
        r = check_kappa_monotone([(2, 1999)], (1.0, 1.5))
        assert r.passed

    def test_singleton_vacuous(self):
        r = check_kappa_monotone([(1, 4)], (6.0,))
        assert r.passed
        assert r.samples == 0

    def test_bad_ladder_rejected(self):
        with pytest.raises(ValueError):
            check_kappa_monotone([(1, 4)], (2.0, 1.0))

    @pytest.mark.parametrize(
        "pairs, ladder",
        [([(2, 50), (1, 3)], (1.0, 1e6, 2e6)), ([(1, 3), (2, 50)], (1.0, 1e6, 2e6, 3e6))],
    )
    def test_saturated_step_is_a_violation(self, pairs, ladder):
        # at (2, 50) the probe rounds to 1.0 from kappa = 1e6 on, so those
        # steps are +0.0 and the residual is their negation -0.0
        r = check_kappa_monotone(pairs, ladder)
        assert not r.passed
        assert r.samples == 2 * (len(ladder) - 1)
        assert r.detail == "non-increasing step at (d1, d2, kappa1, kappa2) = (2, 50, 1000000.0, 2000000.0)"
        assert r.max_residual == 0.0 and math.copysign(1.0, r.max_residual) == -1.0


_BAD_RUNG = "limit-convergence: b ladder rungs must be finite and > 1, got "
_BAD_SAMPLE = "sample values must be finite, got "


class TestCheckInputs:
    @pytest.mark.parametrize(
        "check, args, name",
        [
            (check_monotone_b, (1.0, [], range(3, 10)), "d1_list"),
            (check_limit, ([], (1.0,), [2.0, 4.0]), "a_list"),
            (check_limit, ((1.0,), [], [2.0, 4.0]), "kappa_list"),
            (check_kappa_monotone, ([], (1.0, 2.0)), "p_sample"),
        ],
    )
    def test_empty_input_rejected(self, check, args, name):
        with pytest.raises(ValueError, match=f"{name} must be"):
            check(*args)

    @pytest.mark.parametrize("kappa", [math.nan, -1.0])
    @pytest.mark.parametrize(
        "check, args",
        [
            (check_monotone_b, lambda k: (k, [1], range(3, 10))),
            (check_limit, lambda k: ((1.0,), (0.5, k), [2.0, 4.0])),
            (check_kappa_monotone, lambda k: ([(1, 3)], (k,))),
        ],
    )
    def test_bad_kappa_named(self, check, args, kappa):
        with pytest.raises(ValueError, match="kappa must be a finite positive real"):
            check(*args(kappa))

    @pytest.mark.parametrize(
        "check, args, message",
        [
            (check_monotone_b, (1.0, [2.5], range(3, 30), 1e-2), "d1_list must hold integers >= 1, got 2.5"),
            (check_monotone_b, (1.0, [1, 0], range(3, 30)), "d1_list must hold integers >= 1, got 0.0"),
            (check_monotone_b, (1.0, [math.inf], range(3, 30)), "d1_list must hold integers >= 1, got inf"),
            (check_kappa_monotone, ([(1.9, 3.7)], (1.0, 2.0)), "degrees of freedom must be integers"),
        ],
    )
    def test_bad_degrees_rejected(self, check, args, message):
        # check_monotone_b used to probe a = 1.25 and name d1 = 2, and to
        # fail on d1 = 0 or inf inside reg_inc_beta; check_kappa_monotone
        # checked (1, 3) in place of (1.9, 3.7)
        with pytest.raises(ValueError, match=re.escape(message)):
            check(*args)

    @pytest.mark.parametrize(
        "check, args, message",
        [
            (check_limit, ((0.5, 1.0), (1.0,), [0.5, 2.0]), _BAD_RUNG + "0.5"),
            (check_limit, ((1.0,), (1.0,), [2.0, math.nan, 4.0]), _BAD_RUNG + "nan"),
            (check_limit, ((1.0,), (1.0,), [2.0, math.inf]), _BAD_RUNG + "inf"),
            (check_limit, ((1.0,), (1.0,), [1.0, 2.0]), _BAD_RUNG + "1.0"),
            (check_limit, ((1.0, -1.0), (1.0,), [2.0, 4.0]), "limit-convergence: a_list must hold values > 0, got -1.0"),
            (check_recurrence, ([(0.5, 2.0, 3.0), (math.nan, 2.0, 3.0)],), "recurrence-identity: " + _BAD_SAMPLE + "nan"),
            (check_recurrence, ([(0.5, math.inf, 3.0)],), "recurrence-identity: " + _BAD_SAMPLE + "inf"),
            (check_oracle_agreement, ([(0.5, 2.0, math.nan)],), "oracle-agreement: " + _BAD_SAMPLE + "nan"),
        ],
    )
    def test_bad_values_named_by_their_planner(self, monkeypatch, check, args, message):
        # a rung of 0.5 divided by zero in fdist._threshold, and a NaN rung or
        # sample value reached reg_inc_beta, whose message names no check; an
        # a of -1 was named by limit_b, which now runs after the call. Each
        # now fails in its check's planner, before the call.
        def unreachable(*args):
            raise AssertionError("reg_inc_beta reached")

        monkeypatch.setattr(fconc.verify, "reg_inc_beta", unreachable)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"check {message}")):
                check(*args)


def _monotone_b_loop(kappa, d1_list, d2_range, tol_strict=1e-14):
    # reference: one _probe call per d1, reduced in a Python loop
    kappa = float(kappa)
    d2s = np.asarray(list(d2_range), dtype=np.int64)
    observational = kappa > 1.0
    worst, first, n = -np.inf, None, 0
    for d1 in d1_list:
        diffs = np.diff(_probe(kappa, d1 / 2.0, d2s / 2.0))
        n += diffs.size
        j = int(np.argmax(diffs))
        if diffs[j] > worst:
            worst = float(diffs[j])
        if not observational and first is None and diffs[j] >= -tol_strict:
            first = (int(d1), int(d2s[j + 1]), kappa)
    if observational:
        detail = "kappa > 1: outside proven scope, observational only"
    elif first is None:
        detail = f"all consecutive d2 steps decrease by more than {tol_strict:g}"
    else:
        detail = f"violation at (d1, d2, kappa) = {first}"
    return CheckResult(
        name=f"monotone-in-b[kappa={kappa:g}]" + ("-observational" if observational else ""),
        samples=n, max_residual=worst,
        passed=True if observational else worst < -tol_strict, detail=detail,
    )


def _limit_loop(a_list, kappa_list, b_ladder, final_tol=1e-3):
    # reference: one _probe and one limit_b call per (a, kappa)
    ladder = np.asarray(list(b_ladder), dtype=np.float64)
    worst, violation, pairs = 0.0, None, 0
    for a in a_list:
        for kappa in kappa_list:
            resid = np.abs(_probe(kappa, a, ladder) - limit_b(a, kappa))
            pairs += 1
            grows = np.diff(resid) >= 0.0
            if grows.any() and violation is None:
                j = int(np.argmax(grows))
                violation = (float(a), float(kappa), float(ladder[j]), float(ladder[j + 1]))
            worst = max(worst, float(resid[-1]))
    detail = (
        f"non-shrinking residual at (a, kappa, b, b') = {violation}"
        if violation is not None
        else f"residuals shrink at every step; final <= {final_tol:g}"
    )
    return CheckResult(
        name="limit-convergence", samples=pairs * ladder.size, max_residual=worst,
        passed=violation is None and worst <= final_tol, detail=detail,
    )


def _kappa_monotone_loop(p_sample, kappa_ladder):
    # reference: one scalar prob_leq_kappa_mean call per (pair, kappa)
    ladder = [float(k) for k in kappa_ladder]
    min_inc, violation, comparisons = np.inf, None, 0
    for p in p_sample:
        fp = p if isinstance(p, FParams) else FParams(int(p[0]), int(p[1]))
        vals = [prob_leq_kappa_mean(fp, k) for k in ladder]
        for k1, k2, v1, v2 in zip(ladder, ladder[1:], vals, vals[1:]):
            comparisons += 1
            inc = v2 - v1
            if inc < min_inc:
                min_inc = inc
            if inc <= 0.0 and violation is None:
                violation = (fp.d1, fp.d2, k1, k2)
    detail = (
        f"non-increasing step at (d1, d2, kappa1, kappa2) = {violation}"
        if violation is not None
        else "strictly increasing along the ladder for every parameter pair"
    )
    return CheckResult(
        name="monotone-in-kappa", samples=comparisons, max_residual=float(-min_inc),
        passed=violation is None, detail=detail,
    )


SUITE_CHECKS = (
    "check_recurrence", "check_monotone_b", "check_limit", "check_kappa_monotone", "check_oracle_agreement"
)


def _record_suite(monkeypatch, names, profile, seed):
    """run_suite(profile, seed)'s report, and (name, args, kwargs, result) for
    each call of a check in names, in suite order, recorded at the check
    generator (the check's name with a leading "_") that run_suite runs."""
    calls = []
    with monkeypatch.context() as m:
        for name in names:
            def record(*args, _plan=getattr(fconc.verify, "_" + name), _name=name, **kwargs):
                result = yield from _plan(*args, **kwargs)
                calls.append((_name, args, kwargs, result))
                return result

            m.setattr(fconc.verify, "_" + name, record)
        report = run_suite(profile, seed=seed)
    return report, calls


@pytest.mark.parametrize("seed", [1729, 7])
def test_checks_equal_per_pair_loops_on_full_suite(monkeypatch, seed):
    # the array checks must give the per-pair loops' reports bit for bit on
    # the arguments the full suite passes them
    references = {
        "check_monotone_b": _monotone_b_loop,
        "check_limit": _limit_loop,
        "check_kappa_monotone": _kappa_monotone_loop,
    }
    _, calls = _record_suite(monkeypatch, references, "full", seed)
    assert [c[0] for c in calls].count("check_monotone_b") == 4
    assert {c[0] for c in calls} == set(references)
    for name, args, kwargs, result in calls:
        ref = references[name](*args, **kwargs)
        assert result == ref, name
        assert result.max_residual.hex() == ref.max_residual.hex(), name
        assert type(result.samples) is int and type(result.passed) is bool


def _ts_log_integral_ref(hi, am1, bm1):
    # reference: the one-integral tanh-sinh loop, with Python floats per step,
    # at the oracle's tolerance and cap as they stand (tests patch them)
    halfspan = 0.5 * hi
    onemhi = 1.0 - hi
    max_level = fconc.verify._MAX_LEVEL
    scale, total, prev_log = -np.inf, 0.0, None
    for level in range(max_level + 1):
        h = 0.5 ** level
        ks = fconc.verify._ts_level_nodes(h, level)
        kh = ks * h
        z = (0.5 * math.pi) * np.sinh(kh)
        w = h * halfspan * (0.5 * math.pi) * np.cosh(kh) / np.cosh(z) ** 2
        e2z = np.exp(2.0 * z)
        dlo_pos = 2.0 * halfspan * (e2z / (1.0 + e2z))
        dhi_pos = 2.0 * halfspan / (1.0 + e2z)
        dlo = np.concatenate([dlo_pos, dhi_pos[1:] if level == 0 else dhi_pos])
        dhi = np.concatenate([dhi_pos, dlo_pos[1:] if level == 0 else dlo_pos])
        ww = np.concatenate([w, w[1:] if level == 0 else w])
        expo = am1 * np.log(np.maximum(dlo, 1e-300)) + bm1 * np.log(np.maximum(onemhi + dhi, 1e-300))
        m = float(np.max(expo))
        if m > scale:
            if np.isfinite(scale):
                total *= math.exp(scale - m)
            scale = m
        total = 0.5 * total if level > 0 else 0.0
        total += float(np.sum(np.exp(expo - scale) * ww))
        log_val = math.log(total) + scale
        if prev_log is not None and abs(log_val - prev_log) <= fconc.verify._LOG_TOLERANCE:
            return log_val
        prev_log = log_val
    raise QuadratureError(
        f"tanh-sinh refinement cap {max_level} reached "
        f"(hi={hi!r}, a={am1 + 1.0!r}, b={bm1 + 1.0!r})",
        max_level,
        args_at_failure=(hi, am1 + 1.0, bm1 + 1.0),
    )


def _quad_ref(x, a, b):
    # reference: one sample's oracle value as two scalar integrals
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_num = _ts_log_integral_ref(x, a - 1.0, b - 1.0)
    log_den = _ts_log_integral_ref(1.0, a - 1.0, b - 1.0)
    return min(1.0, math.exp(log_num - log_den))


def _oracle_loop(sample, tol=1e-9):
    # reference: one scalar oracle call per sample, reduced in a Python loop
    s = np.asarray(sample, dtype=np.float64)
    cf_vals = reg_inc_beta(s[:, 0], s[:, 1], s[:, 2])
    worst = 0.0
    for (x, a, b), cf in zip(s.tolist(), cf_vals.tolist()):
        worst = max(worst, abs(_quad_ref(x, a, b) - cf))
    return CheckResult(
        name="oracle-agreement", samples=len(s), max_residual=worst,
        passed=worst <= tol, detail=f"continued fraction vs quadrature within {tol:g}",
    )


@pytest.mark.parametrize("seed", [1729, 7, 19, 43])
def test_oracle_equals_per_sample_loop_on_full_suite(monkeypatch, seed):
    # every batched oracle value, and the report, bit for bit on the sample
    # the full suite draws; at seeds 19 and 43 numpy's vector log rounds one
    # integral differently from math.log on AVX-512 machines
    _, calls = _record_suite(monkeypatch, ["check_oracle_agreement"], "full", seed)
    [(_, (sample, *args), kwargs, result)] = calls
    x, a, b = np.asarray(sample).T
    values = quad_inc_beta(x, a, b)
    refs = [_quad_ref(*row) for row in zip(x.tolist(), a.tolist(), b.tolist())]
    assert [v.hex() for v in values.tolist()] == [r.hex() for r in refs]
    ref = _oracle_loop(sample, *args, **kwargs)
    assert result == ref
    assert result.max_residual.hex() == ref.max_residual.hex()


@pytest.mark.parametrize("profile, seed", [("full", 1729), ("full", 0), ("quick", 1729)])
def test_suite_makes_one_continued_fraction_call(monkeypatch, profile, seed):
    # every continued fraction of a suite in one reg_inc_beta call (there were
    # 8), fdist's name counted too so that a stray _probe call shows, and two
    # oracle kernel calls per _ROWS-element chunk of the oracle sample
    counts = {"reg_inc_beta": 0, "_ts_log_integrals": 0}

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(fconc.verify, "reg_inc_beta", counted("reg_inc_beta", reg_inc_beta))
    monkeypatch.setattr(fconc.fdist, "reg_inc_beta", counted("reg_inc_beta", reg_inc_beta))
    kernel = counted("_ts_log_integrals", fconc.verify._ts_log_integrals)
    monkeypatch.setattr(fconc.verify, "_ts_log_integrals", kernel)
    run_suite(profile, seed=seed)
    n_oracle = 500 if profile == "full" else 40
    assert counts == {"reg_inc_beta": 1, "_ts_log_integrals": 2 * math.ceil(n_oracle / fconc.verify._ROWS)}


@pytest.mark.parametrize("profile", ["quick", "full"])
@pytest.mark.parametrize("seed", [0, 1, 2, 1729])
def test_suite_results_equal_each_check_called_alone(monkeypatch, profile, seed):
    # the shared call gives each check the bits its own call gives
    report, calls = _record_suite(monkeypatch, SUITE_CHECKS, profile, seed)
    assert [result for *_, result in calls] == list(report.checks)
    for name, args, kwargs, result in calls:
        alone = getattr(fconc.verify, name)(*args, **kwargs)
        assert alone == result, name
        assert alone.max_residual.hex() == result.max_residual.hex(), name


def _outcome(run):
    try:
        return run()
    except ConvergenceError as err:
        return err


@pytest.mark.parametrize("seed", [0, 1, 2, 1729])
def test_suite_fails_as_its_checks_called_in_order(monkeypatch, seed):
    # at every continued-fraction cap from 10 to 45 the full suite succeeds
    # or fails as its checks called one after another in suite order do:
    # the same error, str, iterations and arguments. The recurrence needs up
    # to 27-32 steps at these seeds, the monotone and limit checks 11-23,
    # limit_b's lower-gamma series 28, the kappa check 34-36 and the oracle
    # check 30-44. The one documented exception: limit_b runs in its
    # finisher, after the call, so when it and a later continued fraction
    # both fail, the continued fraction's error comes first. That happens
    # at seed 1 and cap 27 only, where the recurrence converges.
    _, calls = _record_suite(monkeypatch, SUITE_CHECKS, "full", seed)

    def in_order(skip=None):
        return [getattr(fconc.verify, name)(*args, **kwargs) for name, args, kwargs, _ in calls if name != skip]

    limit_b_first = []
    for cap in range(10, 46):
        monkeypatch.setattr(fconc.special, "_CF_MAX_ITER", cap)
        want, got = _outcome(in_order), _outcome(lambda: run_suite("full", seed=seed))
        if isinstance(want, list):
            assert isinstance(got, VerificationReport) and list(got.checks) == want, cap
            continue
        if len(want.args_at_failure) == 2:  # a lower-gamma (a, x), from limit_b
            limit_b_first.append(cap)
            want = _outcome(lambda: in_order(skip="check_limit"))
        assert isinstance(got, ConvergenceError), cap
        assert (type(got), str(got), got.iterations, got.args_at_failure) == (
            type(want), str(want), want.iterations, want.args_at_failure
        ), cap
    assert limit_b_first == ([27] if seed == 1 else [])


class TestOracleAgreement:
    def test_sampled_agreement(self):
        r = check_oracle_agreement(seeded_triples(5, 60, 0.5, 2000.0))
        assert r.passed
        assert r.max_residual <= 1e-9

    def test_failure_names_first_failing_integral(self, tight_oracle):
        # _ROWS + 4 converging samples fill the first _ROWS-row chunk and
        # spill into the second; then one sample fails on its complete
        # integral and the next on its partial one. The per-sample loop fails
        # on the former first.
        s = seeded_triples(5, 60, 0.5, 2000.0)
        sample = np.concatenate([np.tile(s[1:5], (fconc.verify._ROWS // 4 + 1, 1)), s[[5, 0]]])
        with pytest.raises(QuadratureError) as ref:
            _oracle_loop(sample)
        with pytest.raises(QuadratureError) as err:
            check_oracle_agreement(sample)
        assert ref.value.args_at_failure[0] == 1.0
        assert err.value.args_at_failure == ref.value.args_at_failure
        assert all(type(v) is float for v in err.value.args_at_failure)
        assert str(err.value) == str(ref.value)
        assert err.value.iterations == 5

    def test_endpoint_samples_are_exact(self):
        ones = np.ones(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = quad_inc_beta(np.array([0.0, 0.3, 1.0]), 2.0 * ones, 3.0 * ones)
            ends = quad_inc_beta(np.array([1.0, 0.0]), ones[:2], ones[:2])
            r = check_oracle_agreement([(0.0, 2.0, 3.0), (1.0, 2.0, 3.0)])
        assert [v.hex() for v in q.tolist()] == [0.0.hex(), _quad_ref(0.3, 2.0, 3.0).hex(), 1.0.hex()]
        assert [v.hex() for v in ends.tolist()] == [1.0.hex(), 0.0.hex()]
        assert r.passed and r.max_residual == 0.0

    def test_nan_continued_fraction_value_fails(self, monkeypatch):
        # a Python max() reduction from 0.0 dropped the NaN and passed
        def one_nan(x, a, b):
            vals = reg_inc_beta(x, a, b)
            vals[3] = math.nan
            return vals

        monkeypatch.setattr(fconc.verify, "reg_inc_beta", one_nan)
        with pytest.raises(ValueError, match="oracle-agreement: residual must be finite"):
            check_oracle_agreement(seeded_triples(5, 10, 0.5, 2000.0))


class TestReportAndSuite:
    def test_residuals_must_be_finite(self):
        with pytest.raises(ValueError):
            CheckResult(name="x", samples=1, max_residual=math.nan, passed=True)

    def test_quick_suite_passes(self):
        rep = run_suite("quick")
        assert rep.overall
        assert rep.first_failure() is None
        assert rep.seed == 1729
        names = [c.name for c in rep.checks]
        assert len(names) == len(set(names))  # checks keyed by name

    def test_suite_deterministic(self):
        d1 = run_suite("quick").to_dict()
        d2 = run_suite("quick").to_dict()
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    def test_report_dict_lists_every_check_field(self):
        rep = run_suite("quick")
        fields = [f.name for f in dataclasses.fields(CheckResult)]
        for c, d in zip(rep.checks, rep.to_dict()["checks"]):
            assert list(d) == fields
            assert d == {f: getattr(c, f) for f in fields}

    def test_report_serializable(self):
        rep = run_suite("quick")
        blob = json.dumps(rep.to_dict())
        parsed = json.loads(blob)
        assert parsed["overall"] is True
        assert {c["name"] for c in parsed["checks"]} == {c.name for c in rep.checks}

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            run_suite("exhaustive")
