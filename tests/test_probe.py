import math
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fconc import (
    ConvergenceError,
    FParams,
    GridSpec,
    conjecture_probe,
    default_a_grid,
    grid_infimum,
    infimum,
    limit_b,
    limit_curve_min,
    prob_leq_kappa_mean,
    reg_inc_beta,
)
from fconc import cli, fdist, probe
from fconc.probe import FLAG_CONJECTURE_REGIME, FLAG_EXACT_INF_NOT_ATTAINED
from fconc.special import DEFAULT_CONFIG, REG_INC_BETA_ABS_ERR, EvalConfig

from conftest import PROBE_KAPPAS


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0, 10)
        with pytest.raises(ValueError):
            GridSpec(5, 2)
        with pytest.raises(ValueError):
            GridSpec(5, 5, d2_min=4)


class TestGridInfimum:
    def test_matches_exhaustive_scalar_scan(self):
        grid = GridSpec(25, 30)
        res = grid_infimum(1.5, grid)
        best = (math.inf, None, None)
        for d1 in range(1, grid.d1_max + 1):
            for d2 in range(3, grid.d2_max + 1):
                v = prob_leq_kappa_mean(FParams(d1, d2), 1.5)
                if v < best[0]:
                    best = (v, d1, d2)
        assert res.grid_min == best[0]
        assert (res.argmin_d1, res.argmin_d2) == (best[1], best[2])

    def test_argmin_value_consistent(self):
        res = grid_infimum(2.5, GridSpec(40, 40))
        direct = prob_leq_kappa_mean(FParams(res.argmin_d1, res.argmin_d2), 2.5)
        assert abs(res.grid_min - direct) <= 1e-12

    def test_true_minimum_on_random_cells(self, rng):
        grid = GridSpec(60, 80)
        res = grid_infimum(1.2, grid)
        for _ in range(300):
            d1 = int(rng.integers(1, grid.d1_max + 1))
            d2 = int(rng.integers(3, grid.d2_max + 1))
            assert prob_leq_kappa_mean(FParams(d1, d2), 1.2) >= res.grid_min - 1e-12

    def test_bit_identical_across_workers(self):
        # d1_max = 300 spans several stripes
        grid = GridSpec(300, 40)
        seq = grid_infimum(1.05, grid, workers=None)
        par = grid_infimum(1.05, grid, workers=2)
        assert seq == par

    def test_tie_break_prefers_smallest_d1_then_d2(self):
        # a huge kappa saturates every cell to 1.0 exactly
        res = grid_infimum(1e15, GridSpec(5, 6))
        assert res.grid_min == 1.0
        assert (res.argmin_d1, res.argmin_d2) == (1, 3)

    def test_monotone_in_kappa(self):
        grid = GridSpec(30, 30)
        mins = [grid_infimum(k, grid).grid_min for k in (0.5, 0.8, 1.0, 1.3, 2.0)]
        assert all(m2 >= m1 for m1, m2 in zip(mins, mins[1:]))

    def test_kappa_validation(self):
        with pytest.raises(ValueError):
            grid_infimum(-1.0, GridSpec(5, 5))

    @pytest.mark.parametrize("kappa", [0.5, 0.9, 1.0, 1.00005, 1.05, 1.5, 3.005, 16.0, 1e15])
    def test_pruned_search_matches_full_grid(self, kappa):
        # oracle: every cell of the capped grid in one call, then the
        # row-major argmin; 1e15 saturates every cell to 1.0 (all ties)
        grid = GridSpec(300, 400)
        d1, d2 = np.meshgrid(
            np.arange(1, grid.d1_max + 1), np.arange(3, grid.d2_max + 1), indexing="ij"
        )
        a, b = d1 / 2.0, d2 / 2.0
        ka = kappa * a
        vals = reg_inc_beta(ka / (ka + (b - 1.0)), a, b)

        def first_min(rows):
            i = int(np.argmin(vals[rows]))
            return float(vals[rows].flat[i]), int(d1[rows].flat[i]), int(d2[rows].flat[i])

        for workers in (None, 2):
            res = grid_infimum(kappa, grid, workers=workers)
            assert (res.grid_min, res.argmin_d1, res.argmin_d2) == first_min(slice(None))
        # the grid argmin lies on the seed's row or column, so also hold each
        # stripe to its own minimum as incumbent: the block holding that cell
        # may not be pruned, wherever it lies
        for lo in range(0, grid.d1_max, 128):
            rows = slice(lo, min(lo + 128, grid.d1_max))
            expected = first_min(rows)
            job = (lo + 1, rows.stop, grid.d2_max, kappa, expected[0], DEFAULT_CONFIG)
            assert probe._scan_stripe(job) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        kappa=st.one_of(st.sampled_from(PROBE_KAPPAS), st.floats(0.5, 4.0), st.floats(4.0, 20.0)),
        d1_lo=st.integers(1, 1984),
        d2_lo=st.integers(3, 1984),
        rows=st.integers(1, 16),
        cols=st.integers(1, 16),
    )
    def test_block_bound_below_every_cell(self, kappa, d1_lo, d2_lo, rows, cols):
        a = np.arange(d1_lo, d1_lo + rows)[:, None] / 2.0
        b = np.arange(d2_lo, d2_lo + cols)[None, :] / 2.0
        bound = probe._block_bound(kappa, a[0, 0], a[-1, 0], b[0, 0], b[0, -1], DEFAULT_CONFIG)
        cells = reg_inc_beta(probe._threshold(kappa, a, b), a, b)
        assert bound <= cells.min() + REG_INC_BETA_ABS_ERR

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched kernel reaches pool workers only when they are forked",
    )
    def test_worker_convergence_error_reaches_caller(self, monkeypatch):
        parent = os.getpid()
        kernel = probe.reg_inc_beta

        def fail_in_worker(x, a, b, config):
            if os.getpid() != parent:
                raise ConvergenceError("forced failure", 7, (0.5, 1.0, 2.0))
            return kernel(x, a, b, config)

        monkeypatch.setattr(probe, "reg_inc_beta", fail_in_worker)
        with pytest.raises(ConvergenceError) as err:
            grid_infimum(1.5, GridSpec(300, 40), workers=2)
        assert err.value.iterations == 7
        assert err.value.args_at_failure == (0.5, 1.0, 2.0)

    def test_convergence_failure_names_cell(self):
        # at kappa = 1.00005 the fraction of cell (60000, 60010) needs more
        # than 100 iterations, and it runs on the symmetry branch
        cfg = EvalConfig(cf_max_iter=100)
        with pytest.raises(ConvergenceError, match=r"\(d1, d2\) = \(60000, 60010\)"):
            probe._min_cell(1.00005, np.array([30000.0]), np.array([30005.0]), cfg)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched kernel reaches pool workers only when they are forked",
    )
    @pytest.mark.parametrize("workers", [[], ["--workers", "2"]])
    def test_cli_convergence_failure_exit_code_names_cell(self, monkeypatch, capsys, workers):
        # no legal EvalConfig makes a grid fraction fail at these caps, so
        # the kernel is patched to fail at cell (135, 30) as the real one would
        kernel = fdist.reg_inc_beta

        def fail_at_cell(x, a, b, config):
            hit = np.flatnonzero((a == 67.5) & (b == 15.0))
            if hit.size:
                i = hit[0]
                raise ConvergenceError("forced failure", 100, (float(x[i]), float(a[i]), float(b[i])))
            return kernel(x, a, b, config)

        monkeypatch.setattr(fdist, "reg_inc_beta", fail_at_cell)
        caps = ["--d1-max", "140", "--d2-max", "40", "--a-max", "5"]
        assert cli.main(["inf", "--kappa", "1.00005", *caps, *workers]) == cli.EXIT_NUMERICAL
        assert "(d1, d2) = (135, 30)" in capsys.readouterr().err


class TestLimitCurve:
    def test_known_limit_values(self):
        assert limit_b(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
        assert limit_b(0.5, 3.0) == pytest.approx(math.erf(math.sqrt(1.5)), abs=1e-12)
        assert limit_b(1.0, 1.5) == pytest.approx(1.0 - math.exp(-1.5), abs=1e-12)

    def test_limit_lower_bounds_finite_grid_value(self):
        # at the d2 = 1999 cap the scan value sits just above the limit
        assert limit_b(1.0, 1.5) < prob_leq_kappa_mean(FParams(2, 1999), 1.5)

    def test_kappa_times_a_overflow_names_both(self):
        # the product used to overflow with a RuntimeWarning and fail later
        # in reg_lower_gamma, naming neither kappa nor a
        msg = r"kappa \* a finite, got kappa=2\.0 and a=1e\+308"
        with pytest.raises(ValueError, match=msg):
            limit_b([1.0, 1e308, 1.5e308], 2.0)
        with pytest.raises(ValueError, match=msg):
            infimum(2.0, GridSpec(5, 5), a_grid=[1e308])

    def test_kappa_one_decreasing_toward_half(self):
        a = np.arange(1, 101) / 2.0
        vals = limit_b(a, 1.0)
        assert (np.diff(vals) < 0.0).all()
        assert (vals > 0.5).all()
        mn, arg = limit_curve_min(1.0, a)
        assert arg == 50.0 and mn == vals[-1]

    def test_kappa_below_one_decays(self):
        a = np.arange(1, 201) / 2.0
        mn, arg = limit_curve_min(0.5, a)
        assert mn < 0.01
        assert arg == a[-1]

    @pytest.mark.parametrize("kappa", [0.5, 1.0])
    def test_per_a_infimum_at_largest_b(self, kappa):
        # for kappa <= 1 the probe decreases in b, so the b-grid infimum
        # sits at the largest b sampled
        b = np.arange(3, 121) / 2.0
        for a in (0.5, 1.0, 2.5):
            q = kappa * a / (kappa * a + b - 1.0)
            vals = reg_inc_beta(q, np.full_like(b, a), b)
            assert int(np.argmin(vals)) == vals.size - 1

    def test_interior_minimum_for_kappa_1_5(self):
        coarse = np.arange(10, 101) / 20.0          # 0.5 .. 5 step 0.05
        fine = np.arange(100, 1001) / 200.0         # 0.5 .. 5 step 0.005, the oracle
        mn_c, arg_c = limit_curve_min(1.5, coarse)
        mn_f, arg_f = limit_curve_min(1.5, fine)
        # interior dip below both the a = 1/2 edge and the value at a = 1
        assert 0.6 <= arg_c <= 1.0 and 0.6 <= arg_f <= 1.0
        assert mn_c < limit_b(0.5, 1.5) and mn_c < limit_b(1.0, 1.5)
        assert mn_c == pytest.approx(0.774739, abs=1e-4)
        assert 0.0 <= mn_c - mn_f <= 1e-4  # finer scan can only go lower, slightly

    def test_half_integer_grid_minimum_for_kappa_1_5(self):
        # on the default half-integer spacing the dip is invisible and the
        # minimum sits at a = 1 with the 1 - exp(-1.5) value
        mn, arg = limit_curve_min(1.5, np.arange(1, 11) / 2.0)
        assert arg == 1.0
        assert mn == pytest.approx(1.0 - math.exp(-1.5), abs=1e-12)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            limit_curve_min(1.0, [])
        with pytest.raises(ValueError):
            limit_curve_min(1.0, [0.5, 0.4])
        with pytest.raises(ValueError):
            limit_curve_min(1.0, [-1.0, 2.0])

    def test_default_a_grid_shape(self):
        g = default_a_grid()
        assert g[0] == 0.5
        assert g[-1] == 10000.0
        assert (np.diff(g) > 0.0).all()
        head = g[g <= 1000.0]
        assert np.allclose(np.diff(head), 0.5)


class TestInfimum:
    def test_kappa_below_one_verdict(self):
        res = infimum(0.5, GridSpec(30, 30), a_grid=np.arange(1, 301) / 2.0)
        assert res.exact_inf == 0.0
        assert FLAG_EXACT_INF_NOT_ATTAINED in res.flags
        assert res.grid_min > 0.0
        assert res.combined_inf_estimate <= res.grid_min

    def test_kappa_one_verdict(self):
        res = infimum(1.0, GridSpec(30, 30), a_grid=np.arange(1, 301) / 2.0)
        assert res.exact_inf == 0.5
        assert res.grid_min > 0.5
        assert res.limit_min > 0.5

    def test_kappa_above_one_no_closed_form(self):
        res = infimum(2.0, GridSpec(30, 30), a_grid=np.arange(1, 301) / 2.0)
        assert res.exact_inf is None
        assert FLAG_CONJECTURE_REGIME in res.flags

    def test_regime_switch_is_exact_comparison(self):
        just_above = math.nextafter(1.0, 2.0)
        res = infimum(just_above, GridSpec(10, 10), a_grid=[0.5, 1.0])
        assert res.exact_inf is None  # no snapping to kappa = 1


class TestConjectureProbe:
    def test_positive_margin_small_caps(self):
        rep = conjecture_probe(1.05, GridSpec(40, 40), a_grid=np.arange(1, 201) / 2.0)
        assert not rep.falsified
        assert rep.counterexample is None
        assert rep.margin > 0.09

    def test_requires_kappa_above_one(self):
        with pytest.raises(ValueError):
            conjecture_probe(1.0, GridSpec(5, 5))
