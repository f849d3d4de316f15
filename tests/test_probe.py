import concurrent.futures
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
    default_a_grid,
    grid_infimum,
    infimum,
    limit_b,
    limit_curve_min,
    prob_leq_kappa_mean,
    reg_inc_beta,
)
from fconc import cli, fdist, probe, special
from fconc.probe import FLAG_CONJECTURE_REGIME, FLAG_EXACT_INF_NOT_ATTAINED
from fconc.special import BETA_DENSITY_REL_ERR, REG_INC_BETA_ABS_ERR

from conftest import PROBE_KAPPAS, patch_infimum


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0, 10)
        with pytest.raises(ValueError):
            GridSpec(5, 2)
        # a cap that is not an integer fails here, not in the scan or the kappa gate
        for caps in [(10.5, 20), (math.nan, 5), (5, 20.0)]:
            with pytest.raises(ValueError, match="must be an integer"):
                GridSpec(*caps)
        # d2 starts at 3; there is no field to move it
        with pytest.raises(TypeError):
            GridSpec(5, 5, d2_min=4)

    def test_caps_at_most_twice_shape_max(self):
        # a cap past 2e5 forms shapes past special.SHAPE_MAX, where no
        # accuracy is held; the Python int is compared, so 10**400 cannot
        # overflow the check
        assert GridSpec(200_000, 200_000).d2_max == 200_000
        for caps, field in [((200_001, 5), "d1_max"), ((5, 200_001), "d2_max"), ((5, 2 * 10**17), "d2_max"),
                            ((10**400, 5), "d1_max")]:
            with pytest.raises(ValueError, match=f"^{field} must be at most 200000:"):
                GridSpec(*caps)


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
            live = probe._live_blocks(kappa, grid, expected[0] + probe._PRUNE_MARGIN)
            job = (lo + 1, live[rows], grid.d2_max, kappa)
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
        bound = probe._block_bound(kappa, a[0, 0], a[-1, 0], b[0, 0], b[0, -1])
        cells = reg_inc_beta(probe._threshold(kappa, a, b), a, b)
        assert bound <= cells.min() + REG_INC_BETA_ABS_ERR

    @settings(max_examples=200, deadline=None)
    @given(
        kappa=st.one_of(st.sampled_from(PROBE_KAPPAS), st.floats(0.5, 4.0), st.floats(4.0, 20.0)),
        d1_lo=st.integers(1, 1984),
        d2_lo=st.integers(3, 1984),
        rows=st.integers(1, 16),
        cols=st.integers(1, 16),
    )
    def test_screen_below_every_cell(self, kappa, d1_lo, d2_lo, rows, cols):
        # the closed-form screen's value over a block, wherever its tail
        # bound is taken, as test_block_bound_below_every_cell
        a = np.arange(d1_lo, d1_lo + rows)[:, None] / 2.0
        b = np.arange(d2_lo, d2_lo + cols)[None, :] / 2.0
        screen = probe._screen(kappa, *(np.array([side]) for side in (a[0, 0], a[-1, 0], b[0, 0], b[0, -1])))
        cells = reg_inc_beta(probe._threshold(kappa, a, b), a, b)
        assert screen[0] <= cells.min() + REG_INC_BETA_ABS_ERR

    @pytest.mark.parametrize("kappa", [1.3, 1.5, 3.005, 16.0])
    def test_screen_moves_no_live_entry(self, monkeypatch, kappa):
        # the screen decides a bound only where the continued fraction would
        # decide it the same way, so the mask is the one the fraction alone
        # gives, and the screen takes most of the bounds here
        grid = GridSpec(300, 400)
        limit = probe._seed(kappa, grid)[0] + probe._PRUNE_MARGIN
        taken = []
        block_bound = probe._block_bound

        def recording(kappa, a_lo, *rest):
            taken.append(a_lo.size)
            return block_bound(kappa, a_lo, *rest)

        monkeypatch.setattr(probe, "_block_bound", recording)
        screened = probe._live_blocks(kappa, grid, limit)
        by_screen = sum(taken)
        taken.clear()
        monkeypatch.setattr(probe, "_screen", lambda kappa, a_lo, *rest: np.zeros(a_lo.size))
        assert (screened == probe._live_blocks(kappa, grid, limit)).all()
        assert by_screen < 0.5 * sum(taken)

    @pytest.mark.parametrize("kappa", [1.5, 3.005, 16.0])
    def test_screen_leaves_few_bounds_to_the_fraction(self, monkeypatch, kappa):
        # a count, so deterministic, at full caps: of the two levels' 30,729,
        # 20,057 and 19,609 bounds at 1.5, 3.005 and 16, the continued
        # fraction takes 2,179, 487 and 270
        screened, fraction = [], []
        screen, block_bound = probe._screen, probe._block_bound

        def counting(kappa, a_lo, *rest):
            screened.append(a_lo.size)
            return screen(kappa, a_lo, *rest)

        def recording(kappa, a_lo, *rest):
            fraction.append(a_lo.size)
            return block_bound(kappa, a_lo, *rest)

        monkeypatch.setattr(probe, "_screen", counting)
        monkeypatch.setattr(probe, "_block_bound", recording)
        grid = GridSpec(1999, 1999)
        *seed, column = probe._seed(kappa, grid)
        probe._live_blocks(kappa, grid, seed[0] + probe._PRUNE_MARGIN, column)
        assert len(screened) == len(fraction) == 2
        assert sum(fraction) <= 0.1 * sum(screened)

    @pytest.mark.parametrize("kappa", [1.001, 1.005])
    def test_segment_pruned_search_matches_full_grid(self, kappa):
        # near-one rows where the segment bound prunes part of the grid but
        # not all of it, held to the same full-grid and per-stripe oracles
        self.test_pruned_search_matches_full_grid(kappa)

    @settings(max_examples=200, deadline=None)
    @given(
        kappa=st.one_of(st.sampled_from(PROBE_KAPPAS), st.floats(0.5, 4.0), st.floats(4.0, 20.0)),
        d1=st.integers(1, 1999),
        d2_lo=st.integers(3, 1936),
        cols=st.integers(1, 64),
    )
    def test_segment_bound_below_every_cell(self, kappa, d1, d2_lo, cols):
        a = d1 / 2.0
        b = np.arange(d2_lo, d2_lo + cols) / 2.0
        bound = probe._segment_bound(kappa, a, b[-1])
        cells = reg_inc_beta(probe._threshold(kappa, a, b), a, b)
        assert bound <= cells.min() + REG_INC_BETA_ABS_ERR

    @pytest.mark.parametrize("kappa", [1.0, 1.00005])
    def test_segment_bound_prunes_near_one(self, monkeypatch, kappa):
        # a count, so deterministic: the block bound alone leaves the whole
        # grid to the stripe scans here, the segment bound a few cells
        grid = GridSpec(300, 400)
        evaluated = []
        min_cell = probe._min_cell

        def counting(kappa, a, b):
            evaluated.append(a.size)
            return min_cell(kappa, a, b)

        monkeypatch.setattr(probe, "_min_cell", counting)
        grid_infimum(kappa, grid)
        seed_cells = grid.d1_max + grid.d2_max - 2  # row d1 = 1 and column d2 = d2_max
        assert sum(evaluated) - seed_cells < 0.01 * grid.d1_max * (grid.d2_max - 2)

    @pytest.mark.parametrize("kappa, share", [(1.5, 0.20), (3.005, 0.07), (16.0, 0.045)])
    def test_fine_blocks_prune_far_from_one(self, monkeypatch, kappa, share):
        # a count, so deterministic: with 16 x 16 blocks alone the stripe
        # scans evaluate 40%, 14% and 9.1% of the grid here; the strips
        # inside the surviving blocks cut that to 5.1%, 0.95% and 0.31%
        grid = GridSpec(300, 400)
        evaluated = []
        min_cell = probe._min_cell

        def counting(kappa, a, b):
            evaluated.append(a.size)
            return min_cell(kappa, a, b)

        monkeypatch.setattr(probe, "_min_cell", counting)
        grid_infimum(kappa, grid)
        seed_cells = grid.d1_max + grid.d2_max - 2  # row d1 = 1 and column d2 = d2_max
        assert sum(evaluated) - seed_cells < share * grid.d1_max * (grid.d2_max - 2)

    @pytest.mark.parametrize("kappa, share", [(1.5, 0.06), (3.005, 0.015), (16.0, 0.004)])
    def test_strips_prune_far_from_one(self, monkeypatch, kappa, share):
        # the same count against the strip level's reach: 4 x 4 blocks in
        # its place leave 9.9%, 3.5% and 1.2%, and strips reversed in
        # orientation 31% at kappa = 1.5
        self.test_fine_blocks_prune_far_from_one(monkeypatch, kappa, share)

    def test_pass_skipped_when_no_bound_can_exceed_limit(self, monkeypatch):
        # at kappa = 1e15 every cell is 1.0, so limit >= 1, and no bound, a
        # probability, can exceed it: the pass takes none and keeps every
        # cell live, and the full-grid oracle still holds
        def unreachable(*args):
            raise AssertionError("bound taken at limit >= 1")

        monkeypatch.setattr(probe, "_block_bound", unreachable)
        monkeypatch.setattr(probe, "_segment_bound", unreachable)
        self.test_pruned_search_matches_full_grid(1e15)

    @pytest.mark.parametrize("kappa", [1.0, 1.00005, 1.001, 1.005])
    def test_pruning_pass_spends_nothing_on_certified_cells(self, monkeypatch, kappa):
        # one bound call per level it runs, blocks then strips; each block or
        # strip it bounds ends inside the grid and holds a cell the
        # row-segment bound left uncertified, and no certified cell is live.
        # Near kappa = 1 the rows' certified prefixes differ, so blocks
        # straddle them. Once at most 300 cells (the rows) are left, the pass
        # runs no further level: at kappa = 1 the segment cut leaves 14
        # cells, and at 1.00005 and 1.001 the increment stage, which runs
        # ahead of both levels above 1, leaves 14 and 62
        grid = GridSpec(300, 400)
        limit = probe._seed(kappa, grid)[0] + probe._PRUNE_MARGIN
        a = np.arange(1, grid.d1_max + 1) / 2.0
        b = np.arange(3, grid.d2_max + 1) / 2.0
        segments = probe._certified_segments(kappa, a, grid.d2_max, limit)
        certified_to = probe._segment_ends(segments - 1, grid.d2_max)  # b = 1 when none
        taken = []
        block_bound = probe._block_bound

        def recording(kappa, a_lo, a_hi, b_lo, b_hi):
            taken.append((a_lo, a_hi, b_hi))
            return block_bound(kappa, a_lo, a_hi, b_lo, b_hi)

        monkeypatch.setattr(probe, "_block_bound", recording)
        live = probe._live_blocks(kappa, grid, limit)
        assert len(taken) == {1.0: 0, 1.00005: 0, 1.001: 0, 1.005: 2}[kappa]
        for a_lo, a_hi, b_hi in taken:
            assert (a_hi <= a[-1]).all() and (b_hi <= b[-1]).all()
            rows = zip((2.0 * a_lo).astype(int) - 1, (2.0 * a_hi).astype(int))
            least = np.array([certified_to[lo:hi].min() for lo, hi in rows])
            assert (b_hi > least).all()
        live_cells = live.repeat(probe._RUN, axis=1)[:, : b.size]
        assert not (live_cells & (b <= certified_to[:, None])).any()

    @settings(max_examples=200, deadline=None)
    @given(
        kappa=st.one_of(st.sampled_from(PROBE_KAPPAS), st.floats(0.5, 20.0)),
        # caps off the block sides, so both levels have clamped edge blocks
        d1_max=st.integers(1, 80).filter(lambda n: n % 4),
        d2_max=st.integers(3, 90).filter(lambda n: (n - 2) % 4),
        d1_cell=st.integers(1, 80),
        d2_cell=st.integers(3, 90),
    )
    def test_pruned_cells_lie_above_limit(self, kappa, d1_max, d2_max, d1_cell, d2_cell):
        # limit as the scan forms it: a real cell's value plus the margin;
        # every cell the pruning pass leaves out must lie strictly above it
        value = prob_leq_kappa_mean(FParams(min(d1_cell, d1_max), min(d2_cell, d2_max)), kappa)
        grid = GridSpec(d1_max, d2_max)
        live = probe._live_blocks(kappa, grid, value + probe._PRUNE_MARGIN)
        a = np.arange(1, d1_max + 1)[:, None] / 2.0
        b = np.arange(3, d2_max + 1)[None, :] / 2.0
        cells = reg_inc_beta(probe._threshold(kappa, a, b), a, b)
        pruned = ~live.repeat(probe._RUN, axis=1)[:, : b.size]
        assert (cells[pruned] > value).all()

    @settings(max_examples=200, deadline=None)
    @given(
        kappa=st.one_of(st.sampled_from(PROBE_KAPPAS), st.floats(0.5, 20.0)),
        d1=st.integers(1, 1999),
        d2_max=st.integers(3, 1999),
        d2_cell=st.integers(3, 1999),
    )
    def test_certified_segments_are_the_prefix_above_limit(self, kappa, d1, d2_max, d2_cell):
        # limit as the scan forms it: a real cell's value plus the margin
        a = np.array([d1 / 2.0])
        limit = prob_leq_kappa_mean(FParams(d1, min(d2_cell, d2_max)), kappa) + probe._PRUNE_MARGIN
        cut = int(probe._certified_segments(kappa, a, d2_max, limit)[0])
        n_seg = -(-(d2_max - 2) // probe._SEGMENT)
        bounds = probe._segment_bound(kappa, a, probe._segment_ends(np.arange(n_seg), d2_max))
        assert (bounds[:cut] > limit).all()
        if cut < n_seg:
            assert bounds[cut] <= limit

    @pytest.mark.parametrize("kappa", [1.00005, 1.001, 1.005, 1.05])
    def test_segment_cut_stops_at_the_floor_suffix(self, kappa):
        # at full caps, from the seed's bounds as the pass uses them: on
        # each lemma row the cut counts the segment bounds above limit up to
        # the row's floor suffix start, never assuming them up to it, and
        # none on the other rows, where the seed takes no bound
        grid = GridSpec(1999, 1999)
        *seed, (head, floor) = probe._seed(kappa, grid)
        limit = seed[0] + probe._PRUNE_MARGIN
        a = np.arange(1, grid.d1_max + 1) / 2.0
        b = np.arange(3, grid.d2_max + 1) / 2.0
        stop = np.full(a.size, 32)
        stop[: floor.size] = probe._floor_suffix(kappa, a[: floor.size], floor, b, limit)
        cut = probe._certified_segments(kappa, a, grid.d2_max, limit, head, stop)
        bounds = probe._segment_bound(kappa, a[:, None], probe._segment_ends(np.arange(32), grid.d2_max)[None, :])
        prefix = np.argmin(np.append(bounds > limit, np.zeros((a.size, 1), dtype=bool), axis=1), axis=1)
        expected = np.minimum(prefix, stop)
        expected[floor.size :] = 0
        assert (cut == expected).all()
        assert (expected < stop).any()

    @pytest.mark.parametrize("kappa, share", [(1.001, 0.005), (1.005, 0.05)])
    def test_increment_bound_prunes_just_above_one(self, monkeypatch, kappa, share):
        # a count, so deterministic: without the increment stage the stripe
        # scans evaluate 19% and 73% of the grid here, with it 0.05% and 2.4%
        grid = GridSpec(300, 400)
        evaluated = []
        min_cell = probe._min_cell

        def counting(kappa, a, b):
            evaluated.append(a.size)
            return min_cell(kappa, a, b)

        monkeypatch.setattr(probe, "_min_cell", counting)
        grid_infimum(kappa, grid)
        seed_cells = grid.d1_max + grid.d2_max - 2  # row d1 = 1 and column d2 = d2_max
        assert sum(evaluated) - seed_cells < share * grid.d1_max * (grid.d2_max - 2)

    @pytest.mark.parametrize("kappa", [1.0002, 1.02, 1.3])
    def test_increment_pruned_search_matches_full_grid(self, kappa):
        # the increment stage certifies nearly every cell up to kappa = 1.2
        # and part of them at 1.3; held to the full-grid and per-stripe oracles
        self.test_pruned_search_matches_full_grid(kappa)

    @pytest.mark.parametrize("kappa, runs", [(0.9, False), (1.0, False), (1.001, True)])
    def test_increment_stage_runs_only_above_one(self, monkeypatch, kappa, runs):
        # at kappa <= 1 the segment bound already takes P_kappa itself, and
        # the stage would only spend
        calls = []
        increment = probe._increment

        def recording(*args):
            calls.append(args[1].size)
            return increment(*args)

        monkeypatch.setattr(probe, "_increment", recording)
        grid_infimum(kappa, GridSpec(300, 400))
        assert bool(calls) == runs

    @pytest.mark.parametrize(
        "kappa, head_elements", [(1.001, 2_711_120), (1.005, 3_783_072), (1.05, 2_274_448), (3.005, 0), (16.0, 0)]
    )
    def test_increment_stage_forms_few_densities(self, monkeypatch, kappa, head_elements):
        # a count, so deterministic, at full caps: the per-entry stage formed
        # head_elements increments, four per live entry it saw; the
        # first-cell rule forms one per run end, about 3% of that, and none
        # where no row satisfies the lemma's (kappa - 1)^2 a <= 1
        formed = []
        increment = probe._increment

        def counting(kappa, a, b):
            formed.append(np.size(b))
            return increment(kappa, a, b)

        monkeypatch.setattr(probe, "_increment", counting)
        grid = GridSpec(1999, 1999)
        *seed, column = probe._seed(kappa, grid)
        probe._live_blocks(kappa, grid, seed[0] + probe._PRUNE_MARGIN, column)
        assert sum(formed) <= 0.05 * head_elements

    @pytest.mark.parametrize(
        "kappa, in_pass, in_stage",
        [(0.9, 0, 0), (1.0, 0, 0), (1.00005, None, 1), (1.001, None, 1), (1.05, None, 1), (1.5, 0, 0)],
    )
    def test_pruning_pass_counts_its_segment_calls(self, monkeypatch, kappa, in_pass, in_stage):
        # a count, so deterministic, at full caps: each call costs some 3-7 ms
        # of numpy overhead whatever its size. The seed's call takes one
        # segment bound per row. At kappa <= 1 it certifies all rows but one
        # whole, whose 1,997 cells are evaluated with no bound taken (the
        # pass took 6 calls, then 1). At 1.5 the first segment certifies no
        # row and the pass takes none. The increment stage takes P_1 in one
        # call at every run end its head check leaves open, on the lemma's
        # rows (test_segment_cut_counts_its_calls counts the cut's calls)
        calls, stage_calls = [], []
        segment_bound, certify_increment = probe._segment_bound, probe._certify_increment

        def counting(*args):
            calls.append(np.size(args[1]))
            return segment_bound(*args)

        def stage(*args):
            before = len(calls)
            certify_increment(*args)
            stage_calls.append(len(calls) - before)

        monkeypatch.setattr(probe, "_segment_bound", counting)
        monkeypatch.setattr(probe, "_certify_increment", stage)
        grid_infimum(kappa, GridSpec(1999, 1999))
        if in_pass is not None:
            assert len(calls) == in_pass
        assert sum(stage_calls) == in_stage

    @pytest.mark.parametrize("kappa, calls", [(1.00005, 2), (1.001, 4), (1.005, 4), (1.05, 0)])
    def test_segment_cut_counts_its_calls(self, monkeypatch, kappa, calls):
        # a count, so deterministic, at full caps, after the seed's first
        # segment end and floor: a row whose floor is above limit is
        # certified whole with no call, and the cut searches only below each
        # row's floor suffix start. Its first call takes each open row's last
        # end before that start: at 1.00005 the floor certifies 1,271 of the
        # 1,999 rows, 123 more close on their suffix start with no probe, and
        # the first call certifies 555 of the other 605; then about 2,000
        # open ends a call; at 1.05 no row is open. Before the floor the cut
        # took 4, 5, 5 and 1 calls
        taken = []
        segment_bound = probe._segment_bound

        def counting(*args):
            taken.append(np.size(args[1]))
            return segment_bound(*args)

        grid = GridSpec(1999, 1999)
        *seed, (head, floor) = probe._seed(kappa, grid)
        limit = seed[0] + probe._PRUNE_MARGIN
        a = np.arange(1, grid.d1_max + 1) / 2.0
        b = np.arange(3, grid.d2_max + 1) / 2.0
        stop = np.full(a.size, 32)
        stop[: floor.size] = probe._floor_suffix(kappa, a[: floor.size], floor, b, limit)
        monkeypatch.setattr(probe, "_segment_bound", counting)
        segments = probe._certified_segments(kappa, a, grid.d2_max, limit, head, stop)
        assert len(taken) == calls
        assert max(taken, default=0) <= 2 * a.size
        if kappa == 1.00005:
            assert np.count_nonzero(floor > limit) == 1271 and taken[0] == 605
            assert np.count_nonzero(segments == stop) == 1271 + 123 + 555

    @pytest.mark.parametrize("kappa", [0.5, 0.9, 1.0])
    @pytest.mark.parametrize("grid", [GridSpec(1999, 1999), GridSpec(300, 400), GridSpec(77, 131)])
    def test_seed_column_is_the_last_segment_bound(self, kappa, grid):
        # what the pass rests on at kappa <= 1: the seed's column d2 = d2_max
        # is each row's last segment bound, hex for hex
        a = np.arange(1, grid.d1_max + 1) / 2.0
        n_seg = -(-(grid.d2_max - 2) // probe._SEGMENT)
        last = probe._segment_bound(kappa, a, probe._segment_ends(n_seg - 1, grid.d2_max))
        column = probe._seed(kappa, grid)[3]
        assert list(map(float.hex, column.tolist())) == list(map(float.hex, last.tolist()))

    @pytest.mark.parametrize("kappa", [1.00005, 1.001, 1.05, 1.5, 16.0])
    @pytest.mark.parametrize("grid", [GridSpec(1999, 1999), GridSpec(300, 400), GridSpec(77, 60)])
    def test_seed_carries_the_first_segment_bound(self, kappa, grid):
        # above 1 the seed's call takes P_1 at each row's first segment end
        # and at d2 = d2_max beside its cells, with kappa = 1 at those
        # elements, on the rows with (kappa - 1)^2 a <= 1 and no others: hex
        # for hex the pass's own _segment_bound
        a = np.arange(1, grid.d1_max + 1) / 2.0
        a = a[(kappa - 1.0) ** 2 * a <= 1.0]
        ends = np.array([probe._segment_ends(0, grid.d2_max), grid.d2_max / 2.0])
        expected = probe._segment_bound(kappa, a[None, :], ends[:, None])
        carried = probe._seed(kappa, grid)[3]
        assert carried.shape == (2, a.size)
        assert list(map(float.hex, carried.ravel().tolist())) == list(map(float.hex, expected.ravel().tolist()))

    @pytest.mark.parametrize("kappa, p1_elements", [(1.5, 16), (3.005, 0), (16.0, 0)])
    def test_seed_takes_p1_on_the_lemma_rows_only(self, monkeypatch, kappa, p1_elements):
        # a count, so deterministic, at full caps: beside its 1,997 + 1,999
        # cells the seed's one call takes P_1 at two ends of each row with
        # (kappa - 1)^2 a <= 1, 8 rows at 1.5 and none at 3.005 and 16. It
        # took P_1 at every row's first segment end, 1,999 elements, which
        # certified no row outside that band
        calls = []
        seed_probe = probe._probe

        def counting(k, a, b):
            calls.append((np.size(a), np.count_nonzero(np.broadcast_to(k, np.shape(a)) == 1.0)))
            return seed_probe(k, a, b)

        monkeypatch.setattr(probe, "_probe", counting)
        probe._seed(kappa, GridSpec(1999, 1999))
        assert calls == [(1997 + 1999 + p1_elements, p1_elements)]

    def test_kappa_one_evaluates_its_last_row_with_no_bound(self, monkeypatch):
        # at full caps the seed's column certifies every row but d1 = 1999
        # whole; its 1,997 cells are at most the 1,999 rows, so the pass
        # takes no segment or block bound and the stripe evaluates them in
        # one call, where the bounds took three calls to leave 13
        evaluated = []
        min_cell = probe._min_cell

        def unreachable(*args):
            raise AssertionError("bound taken at kappa = 1")

        def counting(kappa, a, b):
            evaluated.append(a.size)
            return min_cell(kappa, a, b)

        monkeypatch.setattr(probe, "_segment_bound", unreachable)
        monkeypatch.setattr(probe, "_block_bound", unreachable)
        monkeypatch.setattr(probe, "_min_cell", counting)
        res = grid_infimum(1.0, GridSpec(1999, 1999))
        assert (res.argmin_d1, res.argmin_d2) == (1999, 1999)
        assert evaluated == [1997]

    @pytest.mark.parametrize("kappa", [0.5, 0.9, 1.0, 1.00005, 1.05, 1.5])
    def test_seed_column_moves_no_live_entry(self, kappa):
        # the slot saves a call either way: at kappa <= 1 it holds the
        # column, each row's last segment bound, and above 1 P_1 at each
        # row's first segment end; the mask is the one the pass forms when
        # it takes that bound in a call of its own
        grid = GridSpec(300, 400)
        *seed, column = probe._seed(kappa, grid)
        limit = seed[0] + probe._PRUNE_MARGIN
        with_column = probe._live_blocks(kappa, grid, limit, column)
        assert (with_column == probe._live_blocks(kappa, grid, limit)).all()

    @pytest.mark.parametrize("kappa", [1.25, 1.35, 1.45])
    def test_batched_increment_search_matches_full_grid(self, kappa):
        # at 1.25 and 1.35 the stage's one P_1 call, on the lemma's 32 and 16
        # rows, mixes (row, segment) pairs it certifies whole from their
        # first cell (145 and 32) with pairs decided entry by entry (43 and
        # 37); at 1.45 the head check rules out all 63 pairs of its 9 rows
        # and the stage takes no P_1. Held to the full-grid and per-stripe
        # oracles (test_pruned_search_matches_full_grid covers kappa = 0.9)
        self.test_pruned_search_matches_full_grid(kappa)

    @pytest.mark.parametrize(
        "kappa, share",
        [(1.0, 0.01), (1.00005, 0.01), (1.001, 0.005), (1.005, 0.05), (1.5, 0.06), (3.005, 0.015), (16.0, 0.004)],
    )
    def test_stripes_evaluate_under_their_share(self, monkeypatch, kappa, share):
        # the counted-work guards above at their tightest shares, on the
        # stripes' cells alone: the seed evaluates its row and column
        # through the probe, not _min_cell, so only the stripes are counted
        grid = GridSpec(300, 400)
        evaluated = []
        min_cell = probe._min_cell

        def counting(kappa, a, b):
            evaluated.append(a.size)
            return min_cell(kappa, a, b)

        monkeypatch.setattr(probe, "_min_cell", counting)
        grid_infimum(kappa, grid)
        assert sum(evaluated) < share * grid.d1_max * (grid.d2_max - 2)

    @settings(max_examples=200, deadline=None)
    @given(
        kappa=st.one_of(st.sampled_from([k for k in PROBE_KAPPAS if k > 1.0]), st.floats(1.0, 1.1, exclude_min=True),
                        st.floats(1.1, 4.0)),
        d1=st.integers(1, 1999),
        d2_max=st.integers(3, 1999),
        segment=st.integers(0, 31),
    )
    def test_increment_bound_below_every_cell(self, kappa, d1, d2_max, segment):
        # the stage's bound over one row segment, after its error budget, at
        # every cell of the segment: P_1 at the segment's end, less the
        # allowance, plus each cell's own increment less its relative error
        n_seg = -(-(d2_max - 2) // probe._SEGMENT)
        segment = min(segment, n_seg - 1)
        b_hi = probe._segment_ends(segment, d2_max)
        b = np.arange(2 * b_hi - probe._SEGMENT + 1, 2 * b_hi + 1).clip(3, None) / 2.0
        a = np.full(b.size, d1 / 2.0)
        p1 = probe._segment_bound(kappa, a[0], b_hi)
        inc = probe._increment(kappa, a, b)
        bound = p1 - probe._INCREMENT_MARGIN + inc * (1.0 - BETA_DENSITY_REL_ERR)
        cells = reg_inc_beta(probe._threshold(kappa, a, b), a, b)
        assert (bound <= cells + REG_INC_BETA_ABS_ERR).all()

    @settings(max_examples=200, deadline=None)
    @given(
        kappa=st.one_of(st.sampled_from([1.00005, 1.0002, 1.001, 1.005, 1.02, 1.05, 1.5]),
                        st.floats(1.0, 1.1, exclude_min=True), st.floats(1.1, 2.4)),
        d1=st.integers(1, 1999),
        d2_max=st.integers(3, 1999),
        segment=st.integers(0, 31),
    )
    def test_floor_bound_below_every_cell_of_suffix(self, kappa, d1, d2_max, segment):
        # the floor suffix's bound on a row of the lemma: the floor, P_1 at
        # d2 = d2_max, plus the budgeted increment at a segment's first cell,
        # at every cell from that cell to d2_max
        eligible = np.count_nonzero((kappa - 1.0) ** 2 * (np.arange(1, 2000) / 2.0) <= 1.0)
        d1 = 1 + (d1 - 1) % eligible
        n_seg = -(-(d2_max - 2) // probe._SEGMENT)
        b = np.arange(3 + probe._SEGMENT * min(segment, n_seg - 1), d2_max + 1) / 2.0
        a = np.full(b.size, d1 / 2.0)
        floor = probe._segment_bound(kappa, a[0], d2_max / 2.0)
        bound = floor + probe._gain(kappa, a[:1], b[:1])[0]
        cells = reg_inc_beta(probe._threshold(kappa, a, b), a, b)
        assert (bound <= cells + REG_INC_BETA_ABS_ERR).all()

    @pytest.mark.parametrize("kappa", [1.0002, 1.02])
    @pytest.mark.parametrize(
        "grid",
        [GridSpec(61, 90), GridSpec(77, 131), GridSpec(1, 3), GridSpec(17, 5), GridSpec(129, 67)],
    )
    def test_floor_pruned_search_matches_full_grid(self, kappa, grid):
        # caps off the block and segment sides, so the floor suffix and the
        # cut below it meet a clamped last segment, and (1, 3), (17, 5) and
        # (129, 67) off every stripe, block and entry side too; every cell in
        # one call is the oracle, with workers None and 2, and each 16-row
        # band is held to its own minimum as incumbent: the pass keeps that
        # cell live
        d1, d2 = np.meshgrid(np.arange(1, grid.d1_max + 1), np.arange(3, grid.d2_max + 1), indexing="ij")
        vals = reg_inc_beta(probe._threshold(kappa, d1 / 2.0, d2 / 2.0), d1 / 2.0, d2 / 2.0)

        def first_min(rows):
            i = int(np.argmin(vals[rows]))
            return float(vals[rows].flat[i]), int(d1[rows].flat[i]), int(d2[rows].flat[i])

        for workers in (None, 2):
            res = grid_infimum(kappa, grid, workers=workers)
            assert (res.grid_min, res.argmin_d1, res.argmin_d2) == first_min(slice(None))
        for lo in range(0, grid.d1_max, 16):
            value, row, col = first_min(slice(lo, lo + 16))
            live = probe._live_blocks(kappa, grid, value + probe._PRUNE_MARGIN)
            assert live[row - 1, (col - 3) // probe._RUN]

    @pytest.mark.parametrize("grid", [GridSpec(1, 3), GridSpec(17, 5), GridSpec(100, 67), GridSpec(300, 401)])
    def test_live_mask_runs_match_two_comparisons(self, monkeypatch, rng, grid):
        # the pass lays each row out as runs of dead, live and dead entries;
        # the reference is the two comparisons it replaced, over random
        # certified segments and floor suffix starts on a random lemma
        # prefix, rows past it stopping at the segment count. Rows certified
        # whole (first >= n_entries) and empty runs (stop = segments) are
        # forced; the cut never passes stop. Every stage runs and the first
        # records the full mask, pad rows and pad entries included
        n_rows = -(-grid.d1_max // probe._BLOCK) * probe._BLOCK
        n_entries = -(-(grid.d2_max - 2) // probe._RUN)
        n_seg = -(-(grid.d2_max - 2) // probe._SEGMENT)
        per_seg = probe._SEGMENT // probe._RUN
        for _ in range(10):
            n_lemma = int(rng.integers(0, grid.d1_max + 1))
            stop = np.full(grid.d1_max, n_seg)
            stop[:n_lemma] = rng.integers(0, n_seg + 1, n_lemma)
            segments = rng.integers(0, stop + 1)
            segments[::3] = stop[::3]
            segments[::5] = n_seg
            stop[::5] = n_seg
            recorded = []
            monkeypatch.setattr(probe, "_floor_suffix", lambda kappa, a, floor, b, limit: stop[: floor.size])
            monkeypatch.setattr(probe, "_certified_segments", lambda *args: segments)
            monkeypatch.setattr(probe, "_open_cells", lambda live, n_cells: math.inf)
            monkeypatch.setattr(probe, "_certify_increment", lambda kappa, a, b, live, *rest: recorded.append(live.copy()))
            monkeypatch.setattr(probe, "_bound_blocks", lambda *args: None)
            monkeypatch.setattr(probe, "_bound_strips", lambda *args: None)
            column = np.zeros((2, n_lemma))
            cut = probe._live_blocks(1.00005, grid, 0.5, column)

            first = np.full(n_rows, n_seg * per_seg)
            last = first.copy()
            first[: grid.d1_max], last[: grid.d1_max] = per_seg * segments, per_seg * stop
            cols = np.arange(n_seg * per_seg)
            expected = (cols >= first[:, None]) & (cols < last[:, None])
            expected[:, n_entries:] = False
            (live,) = recorded
            np.testing.assert_array_equal(live, expected)
            np.testing.assert_array_equal(cut, expected[: grid.d1_max, :n_entries])

    @pytest.mark.parametrize("shape", [(16, 4), (32, 16), (128, 500), (2000, 512)])
    def test_held_blocks_match_reshape_and_any(self, rng, shape):
        # the uint32 word reduction against the reshape-and-any it replaced
        per_block = probe._BLOCK // probe._RUN
        for density in (0.0, 0.001, 0.05, 0.5):
            live = rng.random(shape) < density
            block_rows = live.reshape(-1, probe._BLOCK, shape[1]).any(axis=1)
            expected = block_rows.reshape(block_rows.shape[0], -1, per_block).any(axis=2)
            np.testing.assert_array_equal(probe._held_blocks(live), expected)

    @pytest.mark.parametrize("kappa", [1.0, 1.00005, 1.5])
    @pytest.mark.parametrize("grid", [GridSpec(300, 1999), GridSpec(61, 90), GridSpec(200, 67)])
    def test_stripe_cells_match_broadcast_gather(self, monkeypatch, rng, kappa, grid):
        # a stripe's cells, in order, against the broadcast gather they
        # replaced, on the pass's own mask and on random ones whose last
        # entry, which overhangs d2_max = 1999 and 67 by 3 and 1 cells, is
        # live; the last stripe of each grid is short
        gathered = []
        monkeypatch.setattr(probe, "_min_cell", lambda kappa, a, b: gathered.append((a, b)))
        b = np.arange(3, grid.d2_max + 1, dtype=np.int64) / 2.0
        limit = probe._seed(kappa, grid)[0] + probe._PRUNE_MARGIN
        masks = [probe._live_blocks(kappa, grid, limit), rng.random((grid.d1_max, -(-b.size // probe._RUN))) < 0.1]
        masks[1][::7, -1] = True
        for live in masks:
            for lo in range(0, grid.d1_max, probe._STRIPE_ROWS):
                rows = live[lo : lo + probe._STRIPE_ROWS]
                probe._scan_stripe((lo + 1, rows, grid.d2_max, kappa))
                a = np.arange(lo + 1, lo + 1 + rows.shape[0], dtype=np.int64) / 2.0
                cells = rows.repeat(probe._RUN, axis=1)[:, : b.size]
                a_cells, b_cells = np.broadcast_arrays(a[:, None], b[None, :])
                (got_a, got_b), = gathered
                gathered.clear()
                np.testing.assert_array_equal(got_a, a_cells[cells], strict=True)
                np.testing.assert_array_equal(got_b, b_cells[cells], strict=True)

    @settings(max_examples=200, deadline=None)
    @given(
        kappa=st.one_of(st.sampled_from([1.00005, 1.001, 1.005, 1.05, 1.5]), st.floats(1.0, 1.1, exclude_min=True),
                        st.floats(1.1, 2.4)),
        d1=st.integers(1, 1999),
        d2_max=st.integers(3, 1999),
        segment=st.integers(0, 31),
        start=st.integers(0, probe._SEGMENT - 1),
    )
    def test_first_cell_bound_below_every_cell_of_run(self, kappa, d1, d2_max, segment, start):
        # the stage's bound over a run of cells ending at a segment's end, on
        # a row of the lemma: P_1 at the segment's end, less the allowance,
        # plus the run's first cell's increment less its relative error
        eligible = np.count_nonzero((kappa - 1.0) ** 2 * (np.arange(1, 2000) / 2.0) <= 1.0)
        d1 = 1 + (d1 - 1) % eligible
        n_seg = -(-(d2_max - 2) // probe._SEGMENT)
        b_hi = probe._segment_ends(min(segment, n_seg - 1), d2_max)
        b = np.arange(max(3, 2 * b_hi - start), 2 * b_hi + 1) / 2.0
        a = np.full(b.size, d1 / 2.0)
        p1 = probe._segment_bound(kappa, a[0], b_hi)
        inc = probe._increment(kappa, a[:1], b[:1])
        bound = p1 - probe._INCREMENT_MARGIN + inc[0] * (1.0 - BETA_DENSITY_REL_ERR)
        cells = reg_inc_beta(probe._threshold(kappa, a, b), a, b)
        assert (bound <= cells + REG_INC_BETA_ABS_ERR).all()

    @pytest.mark.parametrize("kappa", [1.00005, 1.001, 1.005, 1.0316, 1.05, 1.1, 1.5, 2.4])
    def test_increment_non_decreasing_along_eligible_rows(self, kappa):
        # the lemma on the computed term: every row with (kappa - 1)^2 a <= 1
        # at full caps, along d2. It even increases strictly: the smallest
        # relative step measured is 6.7e-10, against its 1e-11 error
        grid = GridSpec(1999, 1999)
        a = np.arange(1, grid.d1_max + 1)[:, None] / 2.0
        b = np.arange(3, grid.d2_max + 1)[None, :] / 2.0
        a = a[: np.count_nonzero((kappa - 1.0) ** 2 * a <= 1.0)]
        for lo in range(0, a.shape[0], 128):
            inc = probe._increment(kappa, *np.broadcast_arrays(a[lo : lo + 128], b))
            assert (np.diff(inc, axis=1) > 0.0).all()

    def test_increment_error_against_mpmath(self, monkeypatch):
        # the cells the stage sees at full caps from kappa = 1.00005 to 1.05,
        # sampled, with the largest shapes; the exact term takes the
        # thresholds as exact rationals of the double kappa and shapes
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        stage = probe._certify_increment
        seen = []

        def grab(kappa, a, b, live, *rest):
            rows, cols = np.nonzero(live)
            pick = rng.choice(rows.size, 60, replace=False)
            largest = np.argmax(rows + cols)
            rows, cols = np.append(rows[pick], rows[largest]), np.append(cols[pick], cols[largest])
            cells = np.minimum(probe._RUN * cols + rng.integers(0, probe._RUN, cols.size), b.size - 1)
            seen.append((kappa, a[rows], b[cells]))
            return stage(kappa, a, b, live, *rest)

        monkeypatch.setattr(probe, "_certify_increment", grab)
        grid = GridSpec(1999, 1999)
        for kappa in (1.00005, 1.001, 1.005, 1.05):
            limit = probe._seed(kappa, grid)[0] + probe._PRUNE_MARGIN
            probe._live_blocks(kappa, grid, limit)
        with mpmath.workdps(40):
            for kappa, a, b in seen:
                got = probe._increment(kappa, a, b)
                for ai, bi, gi in zip(a, b, got):
                    k, am, bm = mpmath.mpf(kappa), mpmath.mpf(ai), mpmath.mpf(bi)
                    q_k, q_1 = k * am / (k * am + bm - 1), am / (am + bm - 1)
                    ln_f = (am - 1) * mpmath.log(q_k) + (bm - 1) * mpmath.log1p(-q_k) - mpmath.log(mpmath.beta(am, bm))
                    exact = (q_k - q_1) * mpmath.exp(ln_f)
                    assert abs(gi - exact) <= BETA_DENSITY_REL_ERR * exact, (kappa, ai, bi)

    def test_block_bounds_reach_their_last_row_and_column(self, monkeypatch):
        # each block bound takes its shapes at the block's far corner, or at
        # the cap for an edge block, and each strip is one row of a block
        # with a_lo <= b_lo, or one column of any other, reaching across
        # the block or to the cap; one row or column short is unsound,
        # though the bounds' slack hides it from the soundness properties
        taken = []
        block_bound = probe._block_bound

        def recording(kappa, a_lo, a_hi, b_lo, b_hi):
            taken.append((a_lo, a_hi, b_lo, b_hi))
            return block_bound(kappa, a_lo, a_hi, b_lo, b_hi)

        def origin(lo, first):
            # the lowest shape of the 16-aligned block holding lo
            return ((2 * lo - first) // 16 * 16 + first) / 2.0

        def far_end(lo, cap):
            return np.minimum(lo + 7.5, cap / 2.0)

        monkeypatch.setattr(probe, "_block_bound", recording)
        clamped_rows = clamped_cols = 0
        # at kappa = 0.5 the segment cut leaves more cells than rows on
        # (509, 405), so both levels run; on (301, 405) it leaves 19
        for kappa, grid in [(0.5, GridSpec(509, 405)), (1.5, GridSpec(137, 1001)), (16.0, GridSpec(299, 399))]:
            taken.clear()
            limit = probe._seed(kappa, grid)[0] + probe._PRUNE_MARGIN
            probe._live_blocks(kappa, grid, limit)
            assert len(taken) == 2
            (a_lo, a_hi, b_lo, b_hi), strips = taken
            assert a_lo.size and ((2 * a_lo - 1) % 16 == 0).all() and ((2 * b_lo - 3) % 16 == 0).all()
            assert (a_hi == far_end(a_lo, grid.d1_max)).all() and (b_hi == far_end(b_lo, grid.d2_max)).all()
            a_lo, a_hi, b_lo, b_hi = strips
            block_a, block_b = origin(a_lo, 1), origin(b_lo, 3)
            row, col = block_a <= block_b, block_a > block_b
            assert (a_hi[row] == a_lo[row]).all() and (b_lo[row] == block_b[row]).all()
            assert (b_hi[row] == far_end(b_lo[row], grid.d2_max)).all()
            assert (b_hi[col] == b_lo[col]).all() and (a_lo[col] == block_a[col]).all()
            assert (a_hi[col] == far_end(a_lo[col], grid.d1_max)).all()
            clamped_rows += np.count_nonzero(b_hi[row] < b_lo[row] + 7.5)
            clamped_cols += np.count_nonzero(a_hi[col] < a_lo[col] + 7.5)
        # both orientations reach the caps here
        assert clamped_rows and clamped_cols

    def test_p1_decreases_along_every_segment_end_ladder(self):
        # the paper's theorem at k' = 1 on the ladder the segment and
        # increment bounds read it: every row at full caps, about 62k cells
        grid = GridSpec(1999, 1999)
        a = np.arange(1, grid.d1_max + 1)[:, None] / 2.0
        n_seg = -(-(grid.d2_max - 2) // probe._SEGMENT)
        p1 = probe._segment_bound(1.5, a, probe._segment_ends(np.arange(n_seg), grid.d2_max)[None, :])
        assert (np.diff(p1, axis=1) < -2.0 * REG_INC_BETA_ABS_ERR).all()

    @pytest.mark.parametrize("kappa, pools", [(1.0, 0), (1.001, 0), (1.05, 1)])
    def test_pool_starts_only_for_two_live_stripes(self, monkeypatch, kappa, pools):
        # at kappa = 1 and 1.001 one stripe holds the few live cells, so the
        # pool's start-up would cost more than the work it shares; at 1.05
        # three stripes do
        grid = GridSpec(300, 400)
        started = []
        executor = concurrent.futures.ProcessPoolExecutor

        def counting(*args, **kwargs):
            started.append(1)
            return executor(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting)
        assert grid_infimum(kappa, grid, workers=2) == grid_infimum(kappa, grid)
        assert len(started) == pools

    def test_pool_sized_to_live_stripes(self, monkeypatch):
        # a forking pool starts all max_workers processes at once, so a pool
        # asked for 64 workers gets one per live stripe; this stand-in runs
        # the stripes in this process and starts none
        class Executor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                jobs = list(jobs)
                stripes.append(len(jobs))
                return map(fn, jobs)

        sizes, stripes = [], []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Executor)
        grid = GridSpec(300, 400)
        assert grid_infimum(1.05, grid, workers=64) == grid_infimum(1.05, grid)
        assert sizes == stripes == [3]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched kernel reaches pool workers only when they are forked",
    )
    def test_worker_convergence_error_reaches_caller(self, monkeypatch):
        parent = os.getpid()
        kernel = fdist.reg_inc_beta

        def fail_in_worker(x, a, b):
            if os.getpid() != parent:
                raise ConvergenceError("forced failure", 7, (0.5, 1.0, 2.0))
            return kernel(x, a, b)

        monkeypatch.setattr(fdist, "reg_inc_beta", fail_in_worker)
        # three stripes hold live cells at kappa = 1.05, so the pool starts
        with pytest.raises(ConvergenceError) as err:
            grid_infimum(1.05, GridSpec(300, 40), workers=2)
        assert err.value.iterations == 7
        assert err.value.args_at_failure == (0.5, 1.0, 2.0)

    def test_convergence_failure_names_cell(self, monkeypatch):
        # at kappa = 1.00005 the fraction of cell (60000, 60010) needs more
        # than 100 iterations, and it runs on the symmetry branch
        monkeypatch.setattr(special, "_CF_MAX_ITER", 100)
        with pytest.raises(ConvergenceError, match=r"\(d1, d2\) = \(60000, 60010\)"):
            with probe._naming_cell(1.00005):
                probe._min_cell(1.00005, np.array([30000.0]), np.array([30005.0]))

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched kernel reaches pool workers only when they are forked",
    )
    @pytest.mark.parametrize("workers", [[], ["--workers", "2"]])
    def test_cli_convergence_failure_exit_code_names_cell(self, monkeypatch, capsys, workers):
        # the fixed iteration cap lets no grid fraction fail at these caps, so
        # the kernel is patched to fail at cell (135, 12) as the real one
        # would; the pruning pass leaves that cell live
        grid = GridSpec(140, 40)
        limit = probe._seed(1.00005, grid)[0] + probe._PRUNE_MARGIN
        assert probe._live_blocks(1.00005, grid, limit)[134, (12 - 3) // probe._RUN]
        kernel = fdist.reg_inc_beta

        def fail_at_cell(x, a, b):
            hit = np.flatnonzero((a == 67.5) & (b == 6.0))
            if hit.size:
                i = hit[0]
                raise ConvergenceError("forced failure", 100, (float(x[i]), float(a[i]), float(b[i])))
            return kernel(x, a, b)

        monkeypatch.setattr(fdist, "reg_inc_beta", fail_at_cell)
        caps = ["--d1-max", "140", "--d2-max", "40", "--a-max", "5"]
        assert cli.main(["inf", "--kappa", "1.00005", *caps, *workers]) == cli.EXIT_NUMERICAL
        assert "(d1, d2) = (135, 12)" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", [[], ["--workers", "2"]])
    def test_cli_convergence_failure_in_increment_stage_names_cell(self, monkeypatch, capsys, workers):
        # at kappa = 1.005 and caps (200, 300) the increment stage takes P_1
        # at the end of row 98's fourth segment, d2 = 258, which neither the
        # seed nor the segment cut evaluates; the kernel fails there at q_1
        # only
        kernel = fdist.reg_inc_beta
        q_1 = probe._threshold(1.0, 49.0, 129.0)

        def fail_at_p1(x, a, b):
            x, a, b = np.broadcast_arrays(x, a, b)
            hit = np.flatnonzero((a == 49.0) & (b == 129.0) & (x == q_1))
            if hit.size:
                i = hit[0]
                raise ConvergenceError("forced failure", 100, (float(x[i]), float(a[i]), float(b[i])))
            return kernel(x, a, b)

        monkeypatch.setattr(fdist, "reg_inc_beta", fail_at_p1)
        grid = GridSpec(200, 300)
        *seed, (head, floor) = probe._seed(1.005, grid)
        limit = seed[0] + probe._PRUNE_MARGIN
        a = np.arange(1, 201) / 2.0
        stop = np.full(a.size, 5)
        stop[: floor.size] = probe._floor_suffix(1.005, a[: floor.size], floor, np.arange(3, 301) / 2.0, limit)
        probe._certified_segments(1.005, a, 300, limit, head, stop)
        caps = ["--d1-max", "200", "--d2-max", "300", "--a-max", "5"]
        assert cli.main(["inf", "--kappa", "1.005", *caps, *workers]) == cli.EXIT_NUMERICAL
        assert "grid scan at kappa=1.005: convergence failure at (d1, d2) = (98, 258)" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", [[], ["--workers", "2"]])
    def test_cli_convergence_failure_in_seed_floor_names_cell(self, monkeypatch, capsys, workers):
        # above 1 the seed's call takes each lemma row's floor, P_1 at
        # d2 = d2_max; the kernel fails at row 38's, at q_1 only, so the
        # cell named is the floor's and not the seed's own cell (38, 300)
        # at q_kappa, which the same call evaluates
        kernel = fdist.reg_inc_beta
        q_1 = probe._threshold(1.0, 19.0, 150.0)

        def fail_at_floor(x, a, b):
            x, a, b = np.broadcast_arrays(x, a, b)
            hit = np.flatnonzero((a == 19.0) & (b == 150.0) & (x == q_1))
            if hit.size:
                i = hit[0]
                raise ConvergenceError("forced failure", 100, (float(x[i]), float(a[i]), float(b[i])))
            return kernel(x, a, b)

        monkeypatch.setattr(fdist, "reg_inc_beta", fail_at_floor)
        caps = ["--d1-max", "200", "--d2-max", "300", "--a-max", "5"]
        assert cli.main(["inf", "--kappa", "1.005", *caps, *workers]) == cli.EXIT_NUMERICAL
        assert "grid scan at kappa=1.005: convergence failure at (d1, d2) = (38, 300)" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", [[], ["--workers", "2"]])
    def test_cli_convergence_failure_at_segment_end_names_cell(self, monkeypatch, capsys, workers):
        # d2 = 66 ends the first row segment and lies off the seed's row and
        # column, so the first-segment bounds, evaluated before any stripe,
        # meet the failing cell first
        kernel = fdist.reg_inc_beta

        def fail_at_cell(x, a, b):
            # the first-segment bounds share one scalar b
            x, a, b = np.broadcast_arrays(x, a, b)
            hit = np.flatnonzero((a == 67.5) & (b == 33.0))
            if hit.size:
                i = hit[0]
                raise ConvergenceError("forced failure", 100, (float(x[i]), float(a[i]), float(b[i])))
            return kernel(x, a, b)

        monkeypatch.setattr(fdist, "reg_inc_beta", fail_at_cell)
        caps = ["--d1-max", "140", "--d2-max", "100", "--a-max", "5"]
        assert cli.main(["inf", "--kappa", "1.00005", *caps, *workers]) == cli.EXIT_NUMERICAL
        assert "grid scan at kappa=1.00005: convergence failure at (d1, d2) = (135, 66)" in capsys.readouterr().err

    @pytest.mark.parametrize("failing_call", [1, 2], ids=["block-level", "strip-level"])
    def test_cli_convergence_failure_in_block_bound_names_cell(self, monkeypatch, capsys, failing_call):
        # only _block_bound calls probe.reg_inc_beta: its first non-empty call
        # bounds the 16 x 16 blocks, its second the strips; at kappa = 1.5 and
        # caps (40, 40) both levels bound a live block
        kernel = probe.reg_inc_beta
        calls, failed = [], []

        def fail_on_call(x, a, b):
            x, a, b = np.broadcast_arrays(x, a, b)
            if x.size:
                calls.append(x.size)
                if len(calls) == failing_call:
                    failed.append((int(2.0 * a[0]), int(2.0 * b[0])))
                    raise ConvergenceError("forced failure", 100, (float(x[0]), float(a[0]), float(b[0])))
            return kernel(x, a, b)

        monkeypatch.setattr(probe, "reg_inc_beta", fail_on_call)
        caps = ["--d1-max", "40", "--d2-max", "40", "--a-max", "5"]
        assert cli.main(["inf", "--kappa", "1.5", *caps]) == cli.EXIT_NUMERICAL
        d1, d2 = failed[0]
        err = capsys.readouterr().err
        assert f"grid scan at kappa=1.5: convergence failure at (d1, d2) = ({d1}, {d2})" in err


def _ln_increment(mpmath, a, b, kappa):
    """ln inc(a, b) = ln((q_kappa - q_1) f_ab(q_kappa)), exactly."""
    u, v, s = b - 1, a + b - 1, kappa * a + b - 1
    ln_beta = mpmath.loggamma(a) + mpmath.loggamma(b) - mpmath.loggamma(a + b)
    return (mpmath.log(a * (kappa - 1) * u / (s * v)) + (a - 1) * mpmath.log(kappa * a / s)
            + (b - 1) * mpmath.log(u / s) - ln_beta)


def _d2_ln_increment(mpmath, a, b, kappa):
    """The closed form of the second b-derivative of ln inc (the probe
    module's lemma): phi(v) - phi(u) + (kappa - 1)^2 a^2 / (v s^2)."""
    u, v, s = b - 1, a + b - 1, kappa * a + b - 1

    def phi(x):
        return mpmath.psi(1, x + 1) - 1 / x + 1 / x**2

    return phi(v) - phi(u) + (kappa - 1) ** 2 * a**2 / (v * s**2)


class TestIncrementLemma:
    """The lemma behind the increment stage's first-cell rule: on rows with
    (kappa - 1)^2 a <= 1, inc(a, b) does not decrease in b."""

    @pytest.mark.parametrize(
        "a, b, kappa",
        [(0.5, 1.5, 1.001), (3.0, 10.0, 1.05), (50.0, 200.0, 1.1), (999.5, 999.5, 1.0316), (7.0, 3.0, 2.0),
         (0.5, 1000.0, 2.4)],
    )
    def test_second_derivative_closed_form(self, a, b, kappa):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            a, b, kappa = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(kappa)
            numeric = mpmath.diff(lambda t: _ln_increment(mpmath, a, t, kappa), b, 2)
            closed = _d2_ln_increment(mpmath, a, b, kappa)
            assert abs(numeric - closed) <= 1e-8 * abs(closed)

    def test_trigamma_derivative_bound(self):
        # phi'(x) = psi''(x) + 1/x^2 <= -1/x^3, the proof's one inequality
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for x in np.geomspace(0.5, 1e6, 61):
                x = mpmath.mpf(float(x))
                assert -mpmath.psi(2, x) >= 1 / x**2 + 1 / x**3

    def test_second_derivative_negative_at_band_edge(self):
        # kappa = 1 + 1/sqrt(a), where (kappa - 1)^2 a = 1 and the bound is
        # at its tightest; 60 digits, as D' falls to 1e-37 at b = 1e9
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            for a in np.geomspace(0.5, 1e5, 8):
                a = mpmath.mpf(float(a))
                kappa = 1 + 1 / mpmath.sqrt(a)
                for b in np.geomspace(1.5, 1e9, 10):
                    assert _d2_ln_increment(mpmath, a, mpmath.mpf(float(b)), kappa) < 0


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

    @pytest.mark.parametrize(
        "a_grid",
        [default_a_grid(1e4), default_a_grid(1e3), default_a_grid(300), default_a_grid(5e4), np.arange(1, 40001) / 2.0],
        ids=["default", "a_max_1e3", "a_max_300", "a_max_5e4", "half_integers_to_2e4"],
    )
    def test_certified_stop_matches_full_curve(self, a_grid):
        # limit_curve_min stops series elements once above the least fully
        # evaluated value; its minimum and first-occurrence argmin are the
        # full curve's, the value hex for hex
        kappas = (0.25, 0.5, 0.9, 0.999, 1.0, 1.00001, 1.00005, 1.0002, 1.001, 1.005, 1.02, 1.05, 1.1, 1.5, 3.0, 16.0)
        for kappa in kappas:
            vals = limit_b(a_grid, kappa)
            i = int(np.argmin(vals))
            mn, arg = limit_curve_min(kappa, a_grid)
            assert (mn.hex(), arg) == (float(vals[i]).hex(), float(a_grid[i])), kappa

    def test_certified_stop_names_the_full_curves_failure(self):
        # past a = 7e4 the series at kappa = 1 exceeds its cap (ROADMAP item
        # 24); limit_curve_min raises limit_b's error, naming the same a,
        # though the failing elements it evaluates first lie further out
        a_grid = default_a_grid(1e6)
        with pytest.raises(ConvergenceError) as full:
            limit_b(a_grid, 1.0)
        with pytest.raises(ConvergenceError) as stopped:
            limit_curve_min(1.0, a_grid)
        assert str(stopped.value) == str(full.value)
        assert stopped.value.args_at_failure == full.value.args_at_failure
        assert full.value.args_at_failure[0] == pytest.approx(70794.6, rel=1e-6)

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

    @pytest.mark.parametrize("a_grid, message", [([], "nonempty"), ([0.5, 0.4], "strictly ascending")])
    def test_malformed_a_grid_rejected_before_the_scan(self, monkeypatch, a_grid, message):
        # the scan at full caps takes seconds at kappa = 0.5; the a_grid
        # checks that limit_curve_min makes run first
        def scan(*args):
            raise AssertionError("grid_infimum called")

        monkeypatch.setattr(probe, "grid_infimum", scan)
        with pytest.raises(ValueError, match=message):
            infimum(0.5, a_grid=a_grid)

    def test_regime_switch_is_exact_comparison(self):
        just_above = math.nextafter(1.0, 2.0)
        res = infimum(just_above, GridSpec(10, 10), a_grid=[0.5, 1.0])
        assert res.exact_inf is None  # no snapping to kappa = 1


class TestConjectureProbe:
    @pytest.mark.parametrize(
        "grid_min, limit_min, counterexample",
        [(0.5, 0.7, ("grid", 3, 7, 0.5)), (0.6, 0.4, ("limit", 2.0, 0.4)), (0.4, 0.3, ("grid", 3, 7, 0.4))],
    )
    def test_counterexample_reported(self, monkeypatch, capsys, grid_min, limit_min, counterexample):
        # cmd_inf reads the counterexample and the margin from the one
        # ProbeResult: a grid minimum <= 1/2 is named first, then a limit one
        patch_infimum(monkeypatch, grid_min, limit_min)
        cli.main(["inf", "--kappa", "1.05", "--d1-max", "5", "--d2-max", "5", "--a-max", "5"])
        out, err = capsys.readouterr()
        assert f"at {counterexample} contradicts" in err
        assert f"observed margin {min(grid_min, limit_min) - 0.5:.6g}\n" in out
