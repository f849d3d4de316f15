"""Infimum search for P(X <= kappa * E[X]) over integer degrees of freedom.

Three ingredients:

* an exhaustive search of the (d1, d2) grid up to configurable caps, with a
  deterministic (value, d1, d2) tie-break. Exhaustive means every cell is
  either evaluated or certified above the minimum by one of three lower
  bounds. Block bound: I_x(a, b) increases in x and b and decreases in a
  (DLMF 8.17), and q = ka/(ka+b-1) increases in a and decreases in b, so
  I_{q(a_lo, b_hi)}(a_hi, b_lo) bounds a block of cells. It is taken on
  16 x 16 blocks, then, inside the ones nothing else certified, on strips
  that collapse the side with the larger relative span: one-row strips
  where the block's a_lo <= b_lo, one-column strips elsewhere. Far from
  kappa = 1 most block and strip bounds are 1 less a small tail, and a
  closed form settles them before any continued fraction: the tail
  1 - I_x(a, b) = I_{1-x}(b, a) is at most e^ln_pre / (b (1 - r)), where
  ln_pre = a ln x + b ln(1-x) - ln B(a, b) and r = (1-x) max((a+b)/(b+1), 1)
  bounds every term ratio of its hypergeometric series (DLMF 8.17.8), and
  Stirling's bounds on ln Gamma (DLMF 5.6.1) bound ln_pre with no ln B
  (special._tail_bound). It is taken on the symmetry branch
  x > (a+1)/(a+b+2) with r < 0.999, and grown by its relative error,
  BETA_DENSITY_REL_ERR. A bound it puts above the limit plus
  REG_INC_BETA_ABS_ERR is one the continued fraction would put above the
  limit too, so it changes no decision; the others take the continued
  fraction. At full caps it leaves 2,179, 487 and 270 of the two levels'
  30,729, 20,057 and 19,609 bounds to it at kappa = 1.5, 3.005 and 16, and
  none lies on the symmetry branch at 1.001 and 1.005. Segment
  bound: q increases in kappa, so P_kappa >= P_min(kappa, 1) cell by cell,
  and by the paper's theorem P_k' strictly decreases in b for k' <= 1, so
  P_min(kappa, 1)(a, b_hi) bounds every cell of a row up to b_hi: a row's
  certified 64-column segments are a prefix. The seed's call takes each
  row's last segment bound: at kappa <= 1 its column d2 = d2_max, which
  certifies most rows whole; above 1 P_1 at d2 = d2_max, the row's floor,
  beside P_1 at the first segment's end, on the lemma's rows below only.
  Increment bound,
  for kappa > 1: the step from P_1 to P_kappa is the integral of the
  Beta(a, b) density f over [q_1, q_kappa], and f does not increase there,
  so P_1(a, b_hi) + inc(a, b) bounds the cell (a, b) for b <= b_hi, where
  inc(a, b) = (q_kappa - q_1) * f(q_kappa). On rows with
  (kappa - 1)^2 a <= 1, inc does not decrease in b (the lemma below), so
  the increment at a run's first cell bounds the whole run. With
  b_hi = d2_max this makes the floor plus the increment at a segment's
  first cell a bound on every cell from there to d2_max: the segments
  from the first where it exceeds the limit, the floor's suffix, are
  certified with no call, and the search for the certified prefix,
  about d1_max segment ends a call, stops where the suffix starts. One
  call then takes P_1 at every segment end the increment stage needs.
  Above kappa = 1 it runs before the block levels, so they bound only
  what it leaves.
  The block bounds prune far from kappa = 1, the segment bound at and
  below it, and the increment bound just above it. A cell is skipped only
  when a bound, less its error budget, exceeds an evaluated cell's value
  by more than twice reg_inc_beta's absolute error, so a skipped cell can
  be neither the minimum nor tied with it. Exhaustiveness thus also rests
  on the theorem, for kappa <= 1 and for kappa > 1 near 1 alike, which
  verify.check_monotone_b tests on its own sample;
* the b -> infinity limit curve g_kappa(a) = P(a, kappa*a), whose minimum
  over an a-grid is the second infimum candidate; limit_curve_min sums a
  series element only until it is certified above the minimum;
* the closed-form answers for kappa <= 1 (0 below 1, 1/2 at 1, neither
  attained), which are reported alongside the numerical evidence rather
  than assumed.

The lemma: for a > 0, b > 1 and kappa > 1 with (kappa - 1)^2 a <= 1,
inc(a, b) does not decrease in b. Let u = b - 1, v = a + b - 1 and
s = kappa a + b - 1, so q_kappa = kappa a / s and 1 - q_kappa = u / s. The
b-derivative of ln inc is
    D(b) = psi(a+b) - psi(b) + ln(1 - q_kappa) + (kappa-1) a / s + 1/u - 1/v,
and its own derivative is
    D'(b) = phi(v) - phi(u) + (kappa-1)^2 a^2 / (v s^2),
where phi(x) = psi'(x+1) - 1/x + 1/x^2. Then phi'(x) = psi''(x) + 1/x^2
<= -1/x^3: -psi''(x) is the integral over t > 0 of
t^2 e^(-xt) / (1 - e^(-t)) (DLMF 5.15.1), and t / (1 - e^(-t)) >= 1 + t/2.
As u < v, phi(u) - phi(v) >= integral of x^(-3) over [u, v]
= a (u + v) / (2 u^2 v^2) >= a / v^3. As s >= v, a / v^3 is at least
(kappa-1)^2 a^2 / (v s^2) whenever (kappa-1)^2 a <= 1, so D' <= 0. D tends
to 0 as b -> infinity, so D >= 0: inc is non-decreasing in b. In floating
point the row test may round, but the step from a (u + v) / (2 u^2 v^2)
to a / v^3 leaves a relative slack of about 3a / (2u), which covers that
rounding for any b below about 1e15. The eligible rows are a prefix of
the grid: at full caps every row up to kappa = 1.0316, d1 <= 799 at 1.05,
199 rows at 1.1, 8 at 1.5 and none above kappa = 1 + sqrt(2).

One pass in the calling process decides which cells to evaluate; the live
cells are evaluated in d1 stripes whose per-cell arithmetic does not depend
on stripe boundaries, so results are bit-identical for any worker count.
Near kappa = 1 the pass's cost is mostly per continued-fraction call: at
full caps and kappa = 1.00005 the cut's and the stage's calls, of 25 to
1,381 elements, take 1.2-2.3 ms each, and the seed's call of 7,994 takes
5.3 ms (in-process medians, 2-core VM). So each of its stages takes its
bounds in as few calls as it can, and the pass stops once the live
cells number at most d1_max: evaluating them costs about one more call,
and a further stage could only spend one. At full caps the pass makes no
bound call at kappa = 0.9 and 1, where the seed leaves one row of 1,997
cells, and three at 1.00005: two for the segment cut and one in the
increment stage, after which too few cells are live for a block level.
It makes seven at 1.001 and 1.005 (four for the cut, one in the stage and
one for each block level) and three at 1.05 (the stage and the two block
levels). Between those calls the pass's bookkeeping is O(rows + live
entries), beside a few byte-per-entry passes over its rows x 4-column mask:
the mask is laid out from each row's runs of dead and live entries, a block
is held if one of its 16 four-entry words is nonzero, and each stripe
gathers its cells from its live entries alone.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .fdist import _check_df_max, _check_kappa, _probe, _threshold
from .special import (
    BETA_DENSITY_REL_ERR,
    REG_INC_BETA_ABS_ERR,
    ConvergenceError,
    _grid_beta_density,
    _lower_gamma,
    _tail_bound,
    reg_inc_beta,
    reg_lower_gamma,
)

__all__ = [
    "GridSpec",
    "DEFAULT_GRID",
    "ProbeResult",
    "grid_infimum",
    "limit_b",
    "limit_curve_min",
    "infimum",
    "default_a_grid",
    "FLAG_EXACT_INF_NOT_ATTAINED",
    "FLAG_CONJECTURE_REGIME",
]

# Flags attached to results; the CLI serializes these verbatim.
FLAG_EXACT_INF_NOT_ATTAINED = "exact-infimum-not-attained"
FLAG_CONJECTURE_REGIME = "conjecture-kappa-gt-1"

# d1 rows per stripe, the process pool's unit of work (up to ~256k cells); a
# stripe with no live cell is no job. The incomplete beta bounds its own
# working set by evaluating in chunks of special._CHUNK elements, so the
# stripe size sets only the job granularity; 16-row stripes measured no
# faster.
_STRIPE_ROWS = 128

# Side of the square blocks that share one lower bound, one element per 256
# cells, taken on every block with a cell past its rows' certified segments.
# Inside the blocks that survive, the pass bounds one-row or one-column
# strips (see _bound_strips), one element per 16 cells. At full caps and
# kappa = 1.5, 3.005 and 16 they cut the evaluated cells 26x, 23x and 166x
# below the 16 x 16 level's; 4 x 4 blocks, at the same cost, cut them 3-8x.
_BLOCK = 16

# Width of the row segments that share one lower bound: four blocks, so
# segment ends fall on block edges.
_SEGMENT = 4 * _BLOCK

# Cells per entry of the pruning pass's mask: a quarter of a block's row.
_RUN = 4

# A bound and a cell are each within REG_INC_BETA_ABS_ERR of their exact
# values, so a block or segment whose bound exceeds the incumbent by more
# than twice that holds no cell at or below the incumbent.
_PRUNE_MARGIN = 2.0 * REG_INC_BETA_ABS_ERR

# The increment bound's own allowance on top of _PRUNE_MARGIN, which covers
# P_1's error and the cell's. The bound's inequality holds for exact
# thresholds, while P_1, the cell and the density are evaluated at rounded
# ones; a rounding of a few ulps of q moves a probe value by the density
# times that, under 2e-13 on the grid.
_INCREMENT_MARGIN = REG_INC_BETA_ABS_ERR


@dataclass(frozen=True)
class GridSpec:
    """Integer search caps for the (d1, d2) grid; d2 starts at 3, as the mean
    needs d2 > 2, and each cap is at most 2 * special.SHAPE_MAX."""

    d1_max: int
    d2_max: int

    def __post_init__(self):
        # integers (numpy's too): a float cap would fail later, far from its cause
        for name, low in (("d1_max", 1), ("d2_max", 3)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
            _check_df_max(name, value)


DEFAULT_GRID = GridSpec(1999, 1999)


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of an infimum probe at one kappa.

    grid_min / argmin_* come from the exhaustive scan; limit_min is the
    minimum of g_kappa over the sampled a-grid. combined_inf_estimate is
    min(grid_min, limit_min). exact_inf carries the closed-form value for
    kappa <= 1 (not attained on the grid) and is None for kappa > 1.
    """

    kappa: float
    grid_min: float
    argmin_d1: int
    argmin_d2: int
    grid: GridSpec
    limit_min: Optional[float] = None
    limit_argmin_a: Optional[float] = None
    exact_inf: Optional[float] = None
    flags: tuple = field(default_factory=tuple)

    @property
    def combined_inf_estimate(self) -> float:
        if self.limit_min is None:
            return self.grid_min
        return min(self.grid_min, self.limit_min)


def _block_bound(kappa, a_lo, a_hi, b_lo, b_hi):
    """Lower bound of the probe over each block [a_lo, a_hi] x [b_lo, b_hi].

    I_{q(a_lo, b_hi)}(a_hi, b_lo): the threshold is at its smallest and the
    shapes at their least favourable corner, so the exact value is at most
    every cell's exact value.
    """
    return reg_inc_beta(_threshold(kappa, a_lo, b_hi), a_hi, b_lo)


def _screen(kappa, a_lo, a_hi, b_lo, b_hi):
    """Lower bound of the probe over each block, as _block_bound's, formed
    with no continued fraction: 1 - t (1 + BETA_DENSITY_REL_ERR), where t is
    special._tail_bound at the same corner, an upper bound of the exact tail
    1 - I_x(a_hi, b_lo) within its relative error; below 0 where t is not
    taken. Flat arrays.
    """
    return 1.0 - _tail_bound(_threshold(kappa, a_lo, b_hi), a_hi, b_lo) * (1.0 + BETA_DENSITY_REL_ERR)


def _bounds_above(kappa, limit, where, *corners):
    """Mask of the blocks at where's True entries, with corners a_lo, a_hi,
    b_lo, b_hi given by arrays of where's shape, whose block bound exceeds
    limit, as _block_bound alone decides it; False off where.

    A block whose _screen exceeds limit + REG_INC_BETA_ABS_ERR has an exact
    bound above that, so the continued fraction, within that error of it,
    exceeds limit too: the screen decides those blocks as _block_bound
    would, and _block_bound takes the rest in one call. Each call gathers
    its own corners, so the screen's are freed before the fraction runs.
    """
    rest = where.copy()
    rest[where] = _screen(kappa, *(side[where] for side in corners)) <= limit + REG_INC_BETA_ABS_ERR
    above = where & ~rest
    above[rest] = _block_bound(kappa, *(side[rest] for side in corners)) > limit
    return above


@contextmanager
def _naming_cell(kappa):
    """Re-raise a ConvergenceError naming kappa and the cell; only grid_infimum enters it."""
    try:
        yield
    except ConvergenceError as exc:
        _, fa, fb = exc.args_at_failure
        raise ConvergenceError(
            f"grid scan at kappa={kappa!r}: convergence failure at "
            f"(d1, d2) = ({int(2.0 * fa)}, {int(2.0 * fb)})",
            exc.iterations,
            exc.args_at_failure,
        ) from exc


def _first_min(vals, a, b):
    """(value, d1, d2) of the first smallest of vals over flat shape arrays."""
    i = int(np.argmin(vals))
    # halves of integers are exact doubles, so 2a and 2b recover the cell
    return float(vals[i]), int(2.0 * a[i]), int(2.0 * b[i])


def _min_cell(kappa, a, b):
    """(value, d1, d2) of the first smallest probe value over flat shape
    arrays; grid_infimum names a ConvergenceError."""
    return _first_min(_probe(kappa, a, b), a, b)


def _segment_bound(kappa, a, b_hi):
    """Lower bound of the probe over every cell of row a up to b_hi: the
    probe at min(kappa, 1) and b_hi, by the paper's theorem (see the module
    docstring). grid_infimum names a ConvergenceError with the scan's kappa."""
    return _probe(min(kappa, 1.0), a, b_hi)


def _segment_ends(cols, d2_max):
    """b at the last column of row segments cols = 0, 1, ...: segment j spans
    d2 in [3 + j * _SEGMENT, 2 + (j + 1) * _SEGMENT], cut at d2_max."""
    return np.minimum((cols + 1) * _SEGMENT + 2, d2_max) / 2.0


def _spread_ends(lo, hi, rows, budget):
    """(row, segment) pairs to probe on rows, rows ascending: the ends
    strictly between each row's lo and hi, all of them when they number at
    most budget in all, else evenly spaced, as many per row as it takes to
    reach budget in all (one is a bisection step)."""
    span = hi[rows] - lo[rows]
    n = span - 1
    if n.sum() > budget:
        n = np.minimum(n, -(-budget // rows.size))
    k = np.repeat(np.arange(rows.size), n)
    j = 1 + np.arange(k.size) - (np.cumsum(n) - n)[k]
    return rows[k], lo[rows][k] + j * span[k] // (n[k] + 1)


def _certified_segments(kappa, a, d2_max, limit, taken=None, stop=None):
    """Count of each row a's leading segments certified above limit, searched
    below stop (each row's floor suffix start, see _floor_suffix; by default
    every segment).

    A segment bound bounds its row up to the segment's end, so any segment
    bound above limit certifies the prefix ending there, whether or not the
    computed bounds are monotone. One segment is taken for every row in one
    call (taken, when the caller has it; rows past its end count as not
    above): at kappa <= 1 the last, whose bound is the probe on column
    d2 = d2_max, so a row above limit there is certified whole; above 1 the
    first. Segments from stop on are certified by other means, so a row
    whose prefix reaches stop needs no more, and the count never passes
    stop. When the cells past what taken certifies number at most a.size,
    no segment is searched: the pass leaves them to the stripes. Otherwise
    each later call probes ends still open on the rows not yet decided,
    about a.size of them (see _spread_ends), so the search takes few calls.
    Above 1, when the open ends are more than that, the first of these calls
    takes each row's last end before stop: near kappa = 1 it certifies most
    open rows whole (555 of 605 at full caps and kappa = 1.00005), but it
    rarely pays elsewhere (128 of 1,785 rows at 1.001, 9 of 1,942 at 1.005).
    """
    n_seg = -(-(d2_max - 2) // _SEGMENT)
    known = n_seg - 1 if kappa <= 1.0 else 0
    if taken is None:
        taken = _segment_bound(kappa, a, _segment_ends(known, d2_max))
    if stop is None:
        stop = n_seg
    above = np.zeros(a.size, dtype=bool)
    above[: taken.size] = taken > limit
    # segment lo's bound is above limit (or lo = -1), hi's not (or hi = stop)
    hi = np.minimum(np.where(above, n_seg, known), stop)
    lo = np.minimum(np.where(above, known, -1), hi - 1)
    if np.maximum(np.minimum(d2_max - 2, _SEGMENT * stop) - _SEGMENT * (lo + 1), 0).sum() <= a.size:
        return lo + 1
    rows = np.flatnonzero(hi - lo > 1)
    if kappa > 1.0 and (hi - lo - 1)[rows].sum() > a.size:
        # each undecided row's last end first
        at, ends = rows, hi[rows] - 1
    else:
        at, ends = _spread_ends(lo, hi, rows, a.size)
    while rows.size:
        above = _segment_bound(kappa, a[at], _segment_ends(ends, d2_max)) > limit
        starts = np.searchsorted(at, rows)
        lo[rows] = np.maximum.reduceat(np.where(above, ends, lo[at]), starts)
        hi[rows] = np.minimum.reduceat(np.where(above, hi[at], ends), starts)
        rows = np.flatnonzero(hi - lo > 1)
        at, ends = _spread_ends(lo, hi, rows, a.size)
    return lo + 1


def _held_blocks(live):
    """Which 16 x 16 blocks of live, a C-contiguous rows x 4-column mask
    padded to whole blocks, hold a live entry: a block rows x block columns
    mask. A block column's four bool entries are read as one uint32 word."""
    words = live.view(np.uint32)
    return np.bitwise_or.reduce(words.reshape(-1, _BLOCK, words.shape[1]), axis=1) != 0


def _block_corners(a, b, rows, cols):
    """a_lo, a_hi, b_lo, b_hi of the 16 x 16 blocks (rows, cols), cut at the
    caps a[-1] and b[-1]."""
    a_lo, b_lo = a[::_BLOCK][rows], b[::_BLOCK][cols]
    half_side = (_BLOCK - 1) / 2.0
    return a_lo, np.minimum(a_lo + half_side, a[-1]), b_lo, np.minimum(b_lo + half_side, b[-1])


def _bound_blocks(kappa, a, b, live, limit):
    """Clear live's entries in every 16 x 16 block whose block bound exceeds
    limit, in one call over the blocks that hold a live entry."""
    held = _held_blocks(live)
    rows, cols = np.nonzero(held)
    corners = _block_corners(a, b, rows, cols)
    held[rows, cols] = ~_bounds_above(kappa, limit, np.ones(rows.size, dtype=bool), *corners)
    block_rows = live.reshape(-1, _BLOCK, live.shape[1])
    block_rows &= held.repeat(_BLOCK // _RUN, axis=1)[:, None, :]


def _bound_strips(kappa, a, b, live, limit):
    """Clear live's entries that strips of the 16 x 16 blocks certify above
    limit, in one call over the strips that hold a live entry.

    A block with a_lo <= b_lo, whose a side spans the larger multiple of its
    lowest value (7.5 / a_lo against 7.5 / b_lo), is cut into its 16 rows,
    each bounded over the block's columns; any other block into its 16
    columns, each bounded over the block's rows. A strip is a block with
    one degenerate side, so _block_bound bounds it. A row strip above limit
    clears its row's four entries in the block; an entry is cleared when
    the strips over all four of its columns are above it.
    """
    rows, cols = np.nonzero(_held_blocks(live))
    per_block = _BLOCK // _RUN
    # (entry, row, block row, block column); each held block's entries are
    # gathered contiguous, block last, so the reductions below run over
    # leading axes
    blocks = live.reshape(-1, _BLOCK, live.shape[1] // per_block, per_block).transpose(3, 1, 0, 2)
    sub = np.ascontiguousarray(blocks[:, :, rows, cols])
    a_lo, a_hi, b_lo, b_hi = _block_corners(a, b, rows, cols)
    by_row = a_lo <= b_lo
    # strip i of a block: its row i, or its column i; columns past d2_max
    # repeat the last one
    step = np.arange(_BLOCK)[:, None] / 2.0
    a_i, b_i = a_lo + step, np.minimum(b_lo + step, b[-1])
    strips = [np.where(by_row, *ends) for ends in [(a_i, a_lo), (a_i, a_hi), (b_lo, b_i), (b_hi, b_i)]]
    holds = np.where(by_row, sub.any(axis=0), sub.any(axis=1).repeat(_RUN, axis=0))
    above = ~holds | _bounds_above(kappa, limit, holds, *strips)
    by_col = above.reshape(per_block, _RUN, -1).all(axis=1)[:, None, :]
    blocks[:, :, rows, cols] = sub & ~np.where(by_row, above, by_col)


def _increment(kappa, a, b):
    """(q_kappa - q_1) * f_ab(q_kappa) over arrays of grid shapes, kappa > 1.

    f_ab, the Beta(a, b) density, does not increase on [q_1, 1): its mode
    (a-1)/(a+b-2) lies below q_1 = a/(a+b-1), or it decreases everywhere
    when a <= 1. So the term is at most the integral of f_ab over
    [q_1, q_kappa], which is P_kappa(a, b) - P_1(a, b). The difference of
    thresholds is formed in closed form, a(k-1)(b-1) / ((ka+b-1)(a+b-1)),
    with no cancellation, and the term's relative error is within
    BETA_DENSITY_REL_ERR.
    """
    bm1 = b - 1.0
    dq = a * (kappa - 1.0) / (kappa * a + bm1) * (bm1 / (a + bm1))
    return dq * _grid_beta_density(_threshold(kappa, a, b), a, b)


def _gain(kappa, a, b_0):
    """_increment at (a, b_0) less its error budget (_INCREMENT_MARGIN and
    BETA_DENSITY_REL_ERR): what a P_1 value plus it may certify."""
    return _increment(kappa, a, b_0) * (1.0 - BETA_DENSITY_REL_ERR) - _INCREMENT_MARGIN


def _floor_suffix(kappa, a, floor, b, limit):
    """First segment s of each row a from which the row's floor, P_1 at
    d2 = d2_max, plus _gain at s's first cell exceeds limit, for kappa > 1
    on the lemma's rows; 0 where the floor alone exceeds limit, and the
    segment count where no s does.

    floor is the last segment's bound, so a row above limit there is
    certified whole. Otherwise, by the bound of _certify_increment with
    b_hi = d2_max, floor plus _gain at s's first cell is below every cell
    from there to d2_max, so it certifies segments s on. _gain does not
    decrease along the row (the lemma), so s is found by bisection, a few
    densities a row; any s it returns below the segment count is one whose
    bound it evaluated above limit, whatever the rounding.
    """
    lo = np.full(a.size, -1)
    hi = np.where(floor > limit, 0, -(-b.size // _SEGMENT))
    rows = np.flatnonzero(hi - lo > 1)
    while rows.size:
        mid = (lo[rows] + hi[rows]) // 2
        above = floor[rows] + _gain(kappa, a[rows], b[_SEGMENT * mid]) > limit
        hi[rows] = np.where(above, mid, hi[rows])
        lo[rows] = np.where(above, lo[rows], mid)
        rows = rows[hi[rows] - lo[rows] > 1]
    return hi


def _certify_increment(kappa, a, b, live, limit, d2_max, head):
    """Clear the entries of live, a rows x 4-column mask over rows a, whose
    cells all lie above limit by the increment bound, for kappa > 1.

    For kappa > 1, every b <= b_hi in row a and every b_0 <= b,
        P_kappa(a, b) = P_1(a, b) + integral of f_ab over [q_1, q_kappa]
                     >= P_1(a, b_hi) + _increment(kappa, a, b)
                     >= P_1(a, b_hi) + _increment(kappa, a, b_0):
    the paper's theorem at k' = 1, the density bound, then the lemma (see
    the module docstring), which holds on the rows with
    (kappa - 1)^2 a <= 1, a prefix of the grid. So on those rows a run of
    cells up to a segment's end b_hi is bounded by P_1 there plus the
    increment at the run's first cell, after its error budget (_gain).
    head holds P_1 at the end of each lemma row's first segment, one value
    per such row, by the theorem at least its P_1 at every later one, so a
    (row, segment) pair whose bound with head in place of P_1 and the
    increment at the segment's last cell does not exceed limit holds no
    entry that can be certified. The pass has already cleared the pairs the
    row's floor, P_1 at d2 = d2_max, certifies from their first cell
    (_floor_suffix). One _segment_bound call takes P_1 on every other pair
    that holds a live entry; the pairs certified from their segment's first
    cell are cleared whole, and the rest entry by entry, each from its own
    first cell.
    """
    live = live[: head.size]
    if not live.size:
        return
    per_seg = _SEGMENT // _RUN
    by_pair = live.reshape(live.shape[0], -1, per_seg)
    rows, segs = np.nonzero(by_pair.any(axis=2))
    ends = _segment_ends(segs, d2_max)
    can = head[rows] + _gain(kappa, a[rows], ends) > limit
    if not can.any():
        return
    rows, segs, ends = rows[can], segs[can], ends[can]
    p1 = _segment_bound(kappa, a[rows], ends)
    whole = p1 + _gain(kappa, a[rows], b[_SEGMENT * segs]) > limit
    by_pair[rows[whole], segs[whole]] = False
    rows, segs, p1 = rows[~whole], segs[~whole], p1[~whole]
    pair, entry = np.nonzero(by_pair[rows, segs])
    cols = segs[pair] * per_seg + entry
    dead = p1[pair] + _gain(kappa, a[rows[pair]], b[_RUN * cols]) > limit
    live[rows[pair[dead]], cols[dead]] = False


def _open_cells(live, n_cells):
    """Cells in the live entries of a rows x 4-column mask over n_cells
    columns, whose last entry may overhang them."""
    overhang = _RUN * -(-n_cells // _RUN) - n_cells
    return _RUN * np.count_nonzero(live) - overhang * np.count_nonzero(live[:, (n_cells - 1) // _RUN])


def _live_blocks(kappa, grid, limit, column=None):
    """Grid rows x 4-column entries: True where the row's cells in the entry
    lie past its certified segments, the bounds of the 16 x 16 block and of
    the strip or strips holding them are at most limit, and, for kappa > 1
    on rows with (kappa - 1)^2 a <= 1, the increment bound from the entry's
    first cell is too, with P_1 at the entry's segment end or at d2 = d2_max.

    column is _seed's last element, taken here in a _segment_bound call of
    its own when the caller does not have it: at kappa <= 1 each row's last
    segment bound, above 1 P_1 at each lemma row's first segment end and at
    d2 = d2_max, the row's floor.
    Above 1 the segments from each lemma row's floor suffix start on
    (_floor_suffix) are dead from the start, and the segment cut searches
    only below it. The block level and the strip level each bound, in one
    call, only where a live entry remains, the closed-form screen first and
    the continued fraction on what it leaves (_bounds_above). For kappa > 1
    the increment stage runs before them, so they skip the entries it
    certifies. Once the live cells number at most a.size, the row count, no
    further stage runs: the stripes evaluate those cells in about the time
    of one more bound call. Every bound is a probability, so at limit >= 1
    the pass certifies nothing and is skipped.
    """
    a = np.arange(1, grid.d1_max + 1, dtype=np.int64) / 2.0
    b = np.arange(3, grid.d2_max + 1, dtype=np.int64) / 2.0
    n_entries = -(-b.size // _RUN)
    if limit >= 1.0:
        return np.ones((a.size, n_entries), dtype=bool)
    n_seg = -(-b.size // _SEGMENT)
    if column is None:
        if kappa <= 1.0:
            column = _segment_bound(kappa, a, _segment_ends(n_seg - 1, grid.d2_max))
        else:
            lemma = a[(kappa - 1.0) ** 2 * a <= 1.0]
            ends = np.array([_segment_ends(0, grid.d2_max), grid.d2_max / 2.0])
            column = _segment_bound(kappa, lemma[None, :], ends[:, None])
    stop = np.full(a.size, n_seg)
    if kappa > 1.0:
        # P_1 at the first segment's end, and the floor
        column, floor = column
        stop[: floor.size] = _floor_suffix(kappa, a[: floor.size], floor, b, limit)
    segments = _certified_segments(kappa, a, grid.d2_max, limit, column, stop)
    per_seg = _SEGMENT // _RUN
    # each row live from its certified segments to its floor suffix start;
    # padded to whole blocks and whole segments, and pad entries stay dead:
    # per row, runs of dead, live and dead entries
    n_rows, n_cols = -(-a.size // _BLOCK) * _BLOCK, n_seg * per_seg
    first = np.full(n_rows, n_entries)
    last = first.copy()
    first[: a.size] = np.minimum(per_seg * segments, n_entries)
    last[: a.size] = np.minimum(per_seg * stop, n_entries)
    runs = np.stack([first, last - first, n_cols - last], axis=1)
    live = np.tile([False, True, False], n_rows).repeat(runs.ravel()).reshape(n_rows, n_cols)
    stages = [_bound_blocks, _bound_strips]
    if kappa > 1.0:
        stages.insert(0, lambda *args: _certify_increment(*args, grid.d2_max, column))
    for stage in stages:
        if _open_cells(live, b.size) <= a.size:
            break
        stage(kappa, a, b, live, limit)
    return live[: a.size, :n_entries]


def _scan_stripe(args):
    """(value, d1, d2) of the smallest live cell of one stripe.

    args is (d1_lo, live_rows, d2_max, kappa), where live_rows is the
    stripe's slice of _live_blocks's rows x 4-column mask and d1_lo its first
    row. Cells are gathered in row-major order, so the first-occurrence
    argmin gives the smallest d1, then smallest d2, among exact ties.
    """
    d1_lo, live, d2_max, kappa = args
    rows, entries = np.nonzero(live)
    # each entry's four columns, less the last entry's overhang past d2_max
    cols = (_RUN * entries[:, None] + np.arange(_RUN)).ravel()
    keep = cols <= d2_max - 3
    a = (d1_lo + rows.repeat(_RUN)[keep]) / 2.0
    return _min_cell(kappa, a, (3 + cols[keep]) / 2.0)


def _seed(kappa, grid):
    """(value, d1, d2) of the smallest cell on row d1 = 1 and column
    d2 = d2_max, then the segment bounds the pass starts from, d1
    ascending: at kappa <= 1 the column's own values, each row's last
    segment bound; above 1 a 2 x n array, P_1 at the end of each row's first
    segment and at d2 = d2_max (the row's floor), on the n rows with
    (kappa - 1)^2 a <= 1, where the increment lemma holds. These are taken
    in the same call with kappa = 1 at those elements, so their thresholds
    round as _segment_bound's do.
    """
    d1s = np.arange(1, grid.d1_max + 1, dtype=np.int64)
    d2s = np.arange(3, grid.d2_max + 1, dtype=np.int64)
    a = np.concatenate([np.ones_like(d2s), d1s]) / 2.0
    b = np.concatenate([d2s, np.full_like(d1s, grid.d2_max)]) / 2.0
    n_cells, k = a.size, kappa
    if kappa > 1.0:
        lemma = d1s[: np.count_nonzero((kappa - 1.0) ** 2 * (d1s / 2.0) <= 1.0)] / 2.0
        a = np.concatenate([a, lemma, lemma])
        b = np.concatenate([b, np.repeat([_segment_ends(0, grid.d2_max), grid.d2_max / 2.0], lemma.size)])
        k = np.where(np.arange(a.size) < n_cells, kappa, 1.0)
    vals = _probe(k, a, b)
    bounds = vals[n_cells:].reshape(2, -1) if kappa > 1.0 else vals[-d1s.size :]
    return (*_first_min(vals[:n_cells], a[:n_cells], b[:n_cells]), bounds)


def grid_infimum(kappa, grid: GridSpec = DEFAULT_GRID, workers: Optional[int] = None) -> ProbeResult:
    """Exhaustive minimum of P(X <= kappa E[X]) over the capped integer grid.

    The smallest cell of row d1 = 1 and column d2 = d2_max seeds an
    incumbent. The same call takes each row's last segment bound for the
    pass: at kappa <= 1 the column itself, and above 1, beside the cells,
    P_1 at d2 = d2_max and at the first segment's end, on the rows with
    (kappa - 1)^2 a <= 1, where the increment lemma holds. One pass in
    the calling process marks live the cells whose block and strip bounds,
    row-segment bound and, for kappa > 1, increment bounds from the
    segment's end and from the row's floor (see the module docstring) are
    all at most the incumbent plus twice reg_inc_beta's absolute error:
    once for the bound, once for a cell; it stops early once at most d1_max
    cells are live. The increment bound carries its own error budget on
    top. A skipped cell is thus strictly above the incumbent, and the
    result is the exhaustive scan's, bit for bit. Below, at and just above
    kappa = 1 that rests on the paper's b-monotonicity theorem, which the
    segment and increment bounds use.

    The live cells are evaluated in 128-row stripes, in a pool of at most
    workers processes, one per stripe, when workers > 1 and two or more
    stripes have live cells. Ties go to the smallest d1, then the smallest
    d2, and the reduction runs in fixed stripe order, so the result (and
    every intermediate value) is independent of the worker count.

    kappa * d1_max/2 must be finite. A ConvergenceError in the seed, the
    pass or a stripe, a pool worker's too, is re-raised here naming kappa
    and the cell, with its iterations and args_at_failure unchanged.
    """
    k = _check_kappa(kappa, grid.d1_max / 2.0)
    with _naming_cell(k):
        *seed, column = _seed(k, grid)
        live = _live_blocks(k, grid, seed[0] + _PRUNE_MARGIN, column)
        # the seed has evaluated row d1 = 1, and its first-occurrence argmin
        # is the lexicographic minimum of those cells
        live[0] = False
        starts = range(0, grid.d1_max, _STRIPE_ROWS)
        held = np.logical_or.reduceat(live.any(axis=1), starts)
        jobs = [(lo + 1, live[lo : lo + _STRIPE_ROWS], grid.d2_max, k) for lo, h in zip(starts, held) if h]
        if workers is not None and workers > 1 and len(jobs) > 1:
            # imported only here: the pool's modules add ~20 ms to every
            # fconc import. A forking pool starts all max_workers processes
            # at its first submit, so it gets no more than there are jobs.
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
                partials = list(pool.map(_scan_stripe, jobs))
        else:
            partials = [_scan_stripe(j) for j in jobs]

    # lexicographic (value, d1, d2) minimum; the seed is a grid cell too,
    # and stands alone when no stripe has a live cell (such a stripe is no job)
    best_val, best_d1, best_d2 = min(partials + [tuple(seed)])
    return ProbeResult(kappa=k, grid_min=best_val, argmin_d1=best_d1, argmin_d2=best_d2, grid=grid)


def _limit_args(a, kappa):
    """(a, kappa * a) as float arrays, limit_b's checked arguments."""
    arr = np.asarray(a, dtype=np.float64)
    if (arr <= 0.0).any():
        raise ValueError("limit_b requires a > 0")
    return arr, _check_kappa(kappa, arr) * arr


def limit_b(a, kappa):
    """The b -> infinity limit of I_{q(a,b,kappa)}(a, b): P(a, kappa*a).

    A kappa * a that overflows is a ValueError naming kappa and that a.
    """
    return reg_lower_gamma(*_limit_args(a, kappa))


def _check_a_grid(a_grid):
    """a_grid as a float array; a ValueError unless nonempty and strictly ascending."""
    grid = np.asarray(a_grid, dtype=np.float64)
    if grid.size == 0:
        raise ValueError("a_grid must be nonempty")
    if (np.diff(grid) <= 0.0).any():
        raise ValueError("a_grid must be strictly ascending")
    return grid


def limit_curve_min(kappa, a_grid):
    """Minimum of the limit curve over an ascending a-grid.

    Returns (min value, argmin a); ties resolve to the smallest a. Both are
    limit_b's, bit for bit, with less work. Three kinds of element are
    evaluated in full: those on reg_lower_gamma's continued fraction, the
    last on its series, and, for kappa > 1, the series element nearest
    a = 1/(3 (kappa - 1)), about where the curve's minimum sits near
    kappa = 1 (ROADMAP item 8). Every other element sums its series only
    until its value exceeds the least of those (special._gamma_series): its
    full value would exceed it too, so it is neither the minimum nor tied
    with it. A stopped element need not converge, so where limit_b raises
    ConvergenceError this may return; when it raises, limit_b's own
    evaluation reruns, so the element named is the one limit_b names.
    """
    grid, x = _limit_args(_check_a_grid(a_grid), kappa)
    kappa = float(kappa)
    # reg_lower_gamma's series branch
    series = np.flatnonzero((x != 0.0) & (x < grid + 1.0))
    full = np.ones(grid.size, dtype=bool)
    full[series[:-1]] = False
    if kappa > 1.0 and series.size:
        full[series[np.argmin(np.abs(grid[series] - 1.0 / (3.0 * (kappa - 1.0))))]] = True
    try:
        vals = np.empty(grid.size)
        vals[full] = reg_lower_gamma(grid[full], x[full])
        vals[~full] = _lower_gamma(grid[~full], x[~full], vals[full].min())
    except ConvergenceError:
        vals = reg_lower_gamma(grid, x)
    i = int(np.argmin(vals))  # first occurrence: smallest a on ties
    return float(vals[i]), float(grid[i])


def default_a_grid(a_max=1e4) -> np.ndarray:
    """Half-integer a up to min(a_max, 1000), then a 60-point log-spaced tail
    from 1000 to a_max when a_max > 1000.

    The tail documents the a -> infinity trend of the limit curve without
    claiming the infimum is attained there. a_max must be finite and >= 0.5.
    """
    a_max = float(a_max)
    if not (0.5 <= a_max < math.inf):
        raise ValueError(f"a_max must be finite and >= 0.5, got {a_max}")
    head = np.arange(1, int(min(a_max, 1000.0) * 2) + 1, dtype=np.float64) / 2.0
    if a_max <= 1000.0:
        return head
    return np.concatenate([head, np.geomspace(1000.0, a_max, 61)[1:]])


def infimum(kappa, grid: GridSpec = DEFAULT_GRID, a_grid=None, workers: Optional[int] = None) -> ProbeResult:
    """Full probe at one kappa: grid scan + limit curve + closed-form verdict.

    For kappa < 1 the exact infimum is 0 and for kappa == 1 it is 1/2
    (neither attained at finite parameters); both are reported alongside
    the numerical minima so the closed forms are checked, not assumed.
    The regime test is an exact comparison of the double kappa against 1.0;
    values near 1 are never snapped. For kappa <= 1 the grid minimum is
    evidence beside the closed forms. The scan prunes with the paper's
    b-monotonicity theorem at kappa <= 1 and, through the increment bound,
    at kappa > 1 near 1 (at full caps it certifies 94.4% of the grid at
    1.005 and 39.1% at 1.05), so the grid minimum leans on the theorem there;
    verify.check_monotone_b keeps testing it on its own sample. A malformed
    a_grid is rejected before the grid scan, as limit_curve_min rejects it.
    """
    a_grid = _check_a_grid(default_a_grid() if a_grid is None else a_grid)
    k = _check_kappa(kappa, np.append(grid.d1_max / 2.0, a_grid))
    gres = grid_infimum(k, grid, workers)
    lmin, larg = limit_curve_min(k, a_grid)

    if k < 1.0:
        exact, flags = 0.0, (FLAG_EXACT_INF_NOT_ATTAINED,)
    elif k == 1.0:
        exact, flags = 0.5, (FLAG_EXACT_INF_NOT_ATTAINED,)
    else:
        exact, flags = None, (FLAG_CONJECTURE_REGIME,)

    return replace(gres, limit_min=lmin, limit_argmin_a=larg, exact_inf=exact, flags=flags)
