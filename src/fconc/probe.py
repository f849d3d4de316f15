"""Infimum search for P(X <= kappa * E[X]) over integer degrees of freedom.

Three ingredients:

* an exhaustive search of the (d1, d2) grid up to configurable caps, with a
  deterministic (value, d1, d2) tie-break. Exhaustive means every cell is
  either evaluated or certified above the minimum: I_x(a, b) increases in x
  and b and decreases in a (DLMF 8.17), and q = ka/(ka+b-1) increases in a
  and decreases in b, so I_{q(a_lo, b_hi)}(a_hi, b_lo) bounds a whole block
  of cells from below. A block is skipped only when that bound exceeds an
  evaluated cell's value by more than twice reg_inc_beta's absolute error,
  so a skipped cell can be neither the minimum nor tied with it;
* the b -> infinity limit curve g_kappa(a) = P(a, kappa*a), whose minimum
  over an a-grid is the second infimum candidate;
* the closed-form answers for kappa <= 1 (0 below 1, 1/2 at 1, neither
  attained), which are reported alongside the numerical evidence rather
  than assumed.

The grid scan decomposes into d1 stripes whose per-cell arithmetic does not
depend on stripe boundaries, so results are bit-identical for any worker
count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .fdist import _check_kappa, _probe, _threshold
from .special import (
    DEFAULT_CONFIG,
    REG_INC_BETA_ABS_ERR,
    ConvergenceError,
    EvalConfig,
    reg_inc_beta,
    reg_lower_gamma,
)

__all__ = [
    "GridSpec",
    "DEFAULT_GRID",
    "ProbeResult",
    "ConjectureReport",
    "grid_infimum",
    "limit_b",
    "limit_curve_min",
    "infimum",
    "conjecture_probe",
    "default_a_grid",
    "FLAG_EXACT_INF_NOT_ATTAINED",
    "FLAG_CONJECTURE_REGIME",
]

# Flags attached to results; the CLI serializes these verbatim.
FLAG_EXACT_INF_NOT_ATTAINED = "exact-infimum-not-attained"
FLAG_CONJECTURE_REGIME = "conjecture-kappa-gt-1"

# d1 rows per stripe, the process pool's unit of work (~256k cells). The
# incomplete beta bounds its own working set by evaluating in chunks of
# special._CHUNK elements, so the stripe size sets only the job granularity;
# 16-row stripes measured no faster.
_STRIPE_ROWS = 128

# Side of the square blocks that share one lower bound. 16 keeps the bound
# calls under 0.4% of the cells, so a stripe where nothing prunes costs
# about what an unpruned scan does.
_BLOCK = 16

# A bound and a cell are each within REG_INC_BETA_ABS_ERR of their exact
# values, so a block whose bound exceeds the incumbent by more than twice
# that holds no cell at or below the incumbent.
_PRUNE_MARGIN = 2.0 * REG_INC_BETA_ABS_ERR


@dataclass(frozen=True)
class GridSpec:
    """Search caps for the integer (d1, d2) grid; d2 starts at 3."""

    d1_max: int
    d2_max: int
    d2_min: int = 3

    def __post_init__(self):
        if self.d1_max < 1:
            raise ValueError(f"d1_max must be >= 1, got {self.d1_max}")
        if self.d2_max < 3:
            raise ValueError(f"d2_max must be >= 3, got {self.d2_max}")
        if self.d2_min != 3:
            raise ValueError("d2_min is fixed at 3")


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


@dataclass(frozen=True)
class ConjectureReport:
    """Numerical evidence for the kappa > 1 conjecture (never a proof).

    falsified is True if any evaluated point came out <= 1/2, in which case
    counterexample holds ("grid", d1, d2, value) or ("limit", a, value).
    """

    kappa: float
    margin: float
    result: ProbeResult
    falsified: bool
    counterexample: Optional[tuple] = None


def _block_bound(kappa, a_lo, a_hi, b_lo, b_hi, config):
    """Lower bound of the probe over each block [a_lo, a_hi] x [b_lo, b_hi].

    I_{q(a_lo, b_hi)}(a_hi, b_lo): the threshold is at its smallest and the
    shapes at their least favourable corner, so the exact value is at most
    every cell's exact value.
    """
    return reg_inc_beta(_threshold(kappa, a_lo, b_hi), a_hi, b_lo, config)


def _min_cell(kappa, a, b, config):
    """(value, d1, d2) of the first smallest probe value over flat shape arrays.

    A ConvergenceError is re-raised naming the failing cell.
    """
    try:
        vals = _probe(kappa, a, b, config)
    except ConvergenceError as exc:
        _, fa, fb = exc.args_at_failure
        raise ConvergenceError(
            f"grid scan at kappa={kappa!r}: convergence failure at "
            f"(d1, d2) = ({int(2.0 * fa)}, {int(2.0 * fb)})",
            exc.iterations,
            exc.args_at_failure,
        ) from exc
    i = int(np.argmin(vals))
    # halves of integers are exact doubles, so 2a and 2b recover the cell
    return float(vals[i]), int(2.0 * a[i]), int(2.0 * b[i])


def _scan_stripe(args):
    """Minimum of the probe over d1 in [d1_lo, d1_hi] x d2 in [3, d2_max].

    Returns (min_value, d1, d2), or (inf, 0, 0) when every cell is certified
    above the incumbent. Only cells of blocks whose bound is within the
    error margin of the incumbent are evaluated; they are gathered in
    row-major order, so the first-occurrence argmin gives the smallest d1,
    then smallest d2, among exact ties.
    """
    d1_lo, d1_hi, d2_max, kappa, incumbent, config = args
    a = np.arange(d1_lo, d1_hi + 1, dtype=np.int64) / 2.0
    b = np.arange(3, d2_max + 1, dtype=np.int64) / 2.0
    a_lo = a[::_BLOCK, None]
    b_lo = b[None, ::_BLOCK]
    half_side = (_BLOCK - 1) / 2.0
    bound = _block_bound(
        kappa, a_lo, np.minimum(a_lo + half_side, a[-1]), b_lo, np.minimum(b_lo + half_side, b[-1]), config
    )
    live = bound <= incumbent + _PRUNE_MARGIN
    live = live.repeat(_BLOCK, axis=0)[: a.size].repeat(_BLOCK, axis=1)[:, : b.size]
    if not live.any():
        return math.inf, 0, 0
    a_cells, b_cells = np.broadcast_arrays(a[:, None], b[None, :])
    return _min_cell(kappa, a_cells[live], b_cells[live], config)


def _seed(kappa, grid, config):
    """(value, d1, d2) of the smallest cell on row d1 = 1 and column d2 = d2_max."""
    d1s = np.arange(1, grid.d1_max + 1, dtype=np.int64)
    d2s = np.arange(3, grid.d2_max + 1, dtype=np.int64)
    a = np.concatenate([np.ones_like(d2s), d1s]) / 2.0
    b = np.concatenate([d2s, np.full_like(d1s, grid.d2_max)]) / 2.0
    return _min_cell(kappa, a, b, config)


def grid_infimum(kappa, grid: GridSpec = DEFAULT_GRID, config: EvalConfig = DEFAULT_CONFIG,
                 workers: Optional[int] = None) -> ProbeResult:
    """Exhaustive minimum of P(X <= kappa E[X]) over the capped integer grid.

    Exhaustive means every cell is either evaluated or certified above the
    minimum. The smallest cell of row d1 = 1 and column d2 = d2_max seeds
    an incumbent; each 128-row stripe is tiled with 16 x 16 blocks, and a
    block is evaluated only if its monotonicity lower bound is at most the
    incumbent plus twice reg_inc_beta's absolute error (REG_INC_BETA_ABS_ERR
    for the bound and again for a cell). A skipped cell is thus strictly
    above the incumbent, and the result is the exhaustive scan's, bit for bit.

    Ties are broken toward the smallest d1, then the smallest d2. With
    workers > 1 the stripes are evaluated in a process pool; the reduction
    runs in fixed stripe order either way, so the result (and every
    intermediate value) is independent of the worker count.
    """
    k = _check_kappa(kappa)
    seed = _seed(k, grid, config)
    jobs = [
        (lo, min(lo + _STRIPE_ROWS - 1, grid.d1_max), grid.d2_max, k, seed[0], config)
        for lo in range(1, grid.d1_max + 1, _STRIPE_ROWS)
    ]
    if workers is not None and workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_scan_stripe, jobs))
    else:
        partials = [_scan_stripe(j) for j in jobs]

    # lexicographic (value, d1, d2) minimum; the seed is a grid cell too,
    # and stands in for a stripe whose cells were all certified above it
    best_val, best_d1, best_d2 = min(partials + [seed])
    return ProbeResult(kappa=k, grid_min=best_val, argmin_d1=best_d1, argmin_d2=best_d2, grid=grid)


def limit_b(a, kappa, config: EvalConfig = DEFAULT_CONFIG):
    """The b -> infinity limit of I_{q(a,b,kappa)}(a, b): P(a, kappa*a).

    A kappa * a that overflows is a ValueError naming kappa and that a.
    """
    k = _check_kappa(kappa)
    arr = np.asarray(a, dtype=np.float64)
    if (arr <= 0.0).any():
        raise ValueError("limit_b requires a > 0")
    with np.errstate(over="ignore"):
        ka = k * arr
    finite = np.isfinite(ka)
    if not finite.all():
        bad = float(arr[~finite][0])
        raise ValueError(f"limit_b requires kappa * a finite, got kappa={k!r} and a={bad!r}")
    return reg_lower_gamma(arr, ka, config)


def limit_curve_min(kappa, a_grid, config: EvalConfig = DEFAULT_CONFIG):
    """Minimum of the limit curve over an ascending a-grid.

    Returns (min value, argmin a); ties resolve to the smallest a.
    """
    grid = np.asarray(a_grid, dtype=np.float64)
    if grid.size == 0:
        raise ValueError("a_grid must be nonempty")
    if (np.diff(grid) <= 0.0).any():
        raise ValueError("a_grid must be strictly ascending")
    vals = limit_b(grid, kappa, config)
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


def infimum(kappa, grid: GridSpec = DEFAULT_GRID, a_grid=None,
            config: EvalConfig = DEFAULT_CONFIG, workers: Optional[int] = None) -> ProbeResult:
    """Full probe at one kappa: grid scan + limit curve + closed-form verdict.

    For kappa < 1 the exact infimum is 0 and for kappa == 1 it is 1/2
    (neither attained at finite parameters); both are reported alongside
    the numerical minima so the closed forms are checked, not assumed.
    The regime test is an exact comparison of the double kappa against 1.0;
    values near 1 are never snapped.
    """
    k = _check_kappa(kappa)
    if a_grid is None:
        a_grid = default_a_grid()
    gres = grid_infimum(k, grid, config, workers)
    lmin, larg = limit_curve_min(k, a_grid, config)

    if k < 1.0:
        exact, flags = 0.0, (FLAG_EXACT_INF_NOT_ATTAINED,)
    elif k == 1.0:
        exact, flags = 0.5, (FLAG_EXACT_INF_NOT_ATTAINED,)
    else:
        exact, flags = None, (FLAG_CONJECTURE_REGIME,)

    return replace(gres, limit_min=lmin, limit_argmin_a=larg, exact_inf=exact, flags=flags)


def conjecture_probe(kappa, grid: GridSpec = DEFAULT_GRID, a_grid=None,
                     config: EvalConfig = DEFAULT_CONFIG, workers: Optional[int] = None) -> ConjectureReport:
    """Check every grid cell and limit-curve point against the 1/2 bound.

    Requires kappa > 1. Reports the positive margin min(combined) - 1/2.
    A value <= 1/2 anywhere would contradict the proven lower bound, so it
    is returned as an explicit counterexample record for loud handling
    upstream; this routine never claims anything is proved.
    """
    k = _check_kappa(kappa)
    if k <= 1.0:
        raise ValueError(f"conjecture probe requires kappa > 1, got {kappa}")
    res = infimum(k, grid, a_grid, config, workers)
    counterexample = None
    if res.grid_min <= 0.5:
        counterexample = ("grid", res.argmin_d1, res.argmin_d2, res.grid_min)
    elif res.limit_min is not None and res.limit_min <= 0.5:
        counterexample = ("limit", res.limit_argmin_a, res.limit_min)
    return ConjectureReport(
        kappa=k,
        margin=res.combined_inf_estimate - 0.5,
        result=res,
        falsified=counterexample is not None,
        counterexample=counterexample,
    )
