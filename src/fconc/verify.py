"""Independent numerical ground truth and machine-checkable identity suite.

The oracle evaluates the defining beta integral by tanh-sinh (double
exponential) quadrature, which absorbs the t^(a-1) endpoint singularity at
a = 1/2 without any change of variable, and never touches the continued
fraction it is used to check. ``quad_inc_beta`` integrates all its
arguments at once, as array passes over chunks of 128 elements, with its own
refinement loop: it shares no code with the continued-fraction path, not
even its convergence loop. The node tables of each refinement level are
built once per process and shared read-only. A chunk's complete integrals
(hi = 1) read their weights and log distances straight from those tables;
only its partial integrals scale them per row. On top of it sit the
identity and monotonicity checks that back the library's claims:

* the b -> b+1 recurrence of the incomplete beta,
* strict decrease of the probe in b for kappa <= 1,
* convergence of the probe to the lower-gamma limit as b grows,
* strict increase of the probe in kappa.

Checks are deterministic: random samples come from a fixed seed that is
recorded in the report. Each check is a planner, which validates its
arguments and forms the continued fractions it needs, and a finisher, which
does the rest on their values. ``run_suite`` runs the planners in suite
order, takes every continued fraction in one ``reg_inc_beta`` call, then
runs the finishers in suite order. A ConvergenceError is the one the checks
called one after another would raise, except that a failing ``limit_b``
(run by ``check_limit``'s finisher) now comes after a failing continued
fraction of that check or a later one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .fdist import FParams, _check_kappa, _threshold
from .probe import limit_b
from .special import ConvergenceError, _finish, _prepare, ln_beta, reg_inc_beta

__all__ = [
    "QuadratureError",
    "quad_inc_beta",
    "CheckResult",
    "VerificationReport",
    "check_recurrence",
    "check_monotone_b",
    "check_limit",
    "check_kappa_monotone",
    "check_oracle_agreement",
    "run_suite",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 1729

# Cap on the tanh-sinh t-domain variable so exp(2z) stays a normal double.
_Z_MAX = 340.0
_KH_MAX = math.asinh(2.0 * _Z_MAX / math.pi)
_X_TINY = 1e-280  # see quad_inc_beta
# The oracle's domain bound on a and b; see quad_inc_beta.
_SHAPE_MAX = 1e5
# Refinement cap (mesh halvings). Reaching it raises QuadratureError, so it
# can only turn a result into a convergence failure.
_MAX_LEVEL = 12
# An integral stops refining once its log moves by at most this between two
# levels. The oracle's I_x is then within 1e-12 absolute of a 40-digit value
# for a, b in [0.5, 2000] (checked against mpmath on the suite's sample).
_LOG_TOLERANCE = 2.5e-11
# Elements per chunk of the oracle, whose partial and complete integrals are
# one kernel call each. Fewer rows pay numpy's per-call overhead more often;
# more rows, or a whole sample at once, raise peak memory. On a full suite's
# 500-element sample (2-core VM, numpy 2.4.6) 128 rows take 14.3 ms and a
# tracemalloc peak of 0.87 MiB, 64 rows 16.1 ms and 0.52 MiB. 256 rows saved
# 0.7 ms more, but the benchmark's verify-full then read a peak RSS 4.8-6.3%
# above that of 64 rows and eight continued-fraction calls, 128 rows 4.3%.
_ROWS = 128


class QuadratureError(ConvergenceError):
    """Tanh-sinh refinement hit its level cap without meeting tolerance."""


def _ts_level_nodes(h, level):
    """Positive-k node multipliers for one refinement level."""
    kmax = int(_KH_MAX / h)
    if level == 0:
        return np.arange(0, kmax + 1, dtype=np.float64)
    return np.arange(1, kmax + 1, 2, dtype=np.float64)  # odd k only: new nodes


@functools.lru_cache(maxsize=None)
def _ts_level(level):
    """One level's row-independent tables, read-only and shared by every call.

    (h, first mirrored node, cosh_kh, cosh_z2, e2z / (1 + e2z), 1 + e2z) at
    the positive-k nodes, then a complete integral's (halfspan 0.5,
    1 - hi = 0.0) weights and log distances from 0 and 1 over all nodes,
    each formed as the per-row path forms it. Levels 0-8, which the suite
    reaches, take 0.12 MiB; all 13 up to _MAX_LEVEL take 1.9 MiB.
    """
    h = 0.5 ** level
    kh = _ts_level_nodes(h, level) * h
    z = (0.5 * math.pi) * np.sinh(kh)
    cosh_kh = np.cosh(kh)
    cosh_z2 = np.cosh(z) ** 2
    e2z = np.exp(2.0 * z)
    onepe2z = 1.0 + e2z
    frac = e2z / onepe2z
    first = 1 if level == 0 else 0  # level 0's k = 0 has no mirror image
    w = h * 0.5 * (0.5 * math.pi) * cosh_kh / cosh_z2
    dhi_pos = 1.0 / onepe2z  # 2 * halfspan = 1, so frac is the distance from 0
    # clamp keeps log finite if a distance denormalizes; those nodes carry
    # weights ~exp(-2z) and contribute nothing either way
    log_dlo = np.log(np.maximum(np.concatenate([frac, dhi_pos[first:]]), 1e-300))
    log_dhi = np.log(np.maximum(np.concatenate([dhi_pos, frac[first:]]), 1e-300))
    arrays = (cosh_kh, cosh_z2, frac, onepe2z, np.concatenate([w, w[first:]]), log_dlo, log_dhi)
    for arr in arrays:
        arr.flags.writeable = False
    return (h, first) + arrays


def _ts_log_integrals(hi, am1, bm1):
    """log of integral_0^hi t^am1 (1-t)^bm1 dt for each row, by adaptive tanh-sinh.

    ``hi=None`` means hi = 1 for every row: the exponent then comes from the
    level's cached log distances, with no per-row log. Node positions are
    carried as exact distances from both interval ends, so integrable
    endpoint singularities (am1 or bm1 in (-1, 0]) are evaluated accurately.
    Each row's integrand is rescaled by its running maximum log so that sums
    stay in range for sharply peaked (large a, b) cases. A row stops
    refining at the first level its log value moves by at most
    _LOG_TOLERANCE. Returns the logs and the index of the first row still
    refining at level _MAX_LEVEL, or the row count if none is.

    Each row gets the bits a one-row call gives: the per-row columns
    broadcast against the nodes of a level, each node sum runs along the
    contiguous axis, and the per-row exp and log are Python's math (numpy's
    vector loops can round differently).
    """
    rows = am1.size
    out = np.empty(rows)
    idx = np.arange(rows)  # rows still refining
    cols = [am1[:, None], bm1[:, None]]
    if hi is not None:
        halfspan = 0.5 * hi
        cols += [halfspan[:, None], (2.0 * halfspan)[:, None], (1.0 - hi)[:, None]]
    scale = np.full(rows, -np.inf)  # running max exponent M; integral = exp(log(S) + M)
    total = np.zeros(rows)
    prev = np.full(rows, np.nan)  # no earlier level: never within tolerance

    for level in range(_MAX_LEVEL + 1):
        h, first, cosh_kh, cosh_z2, frac, onepe2z, ww, log_dlo, log_dhi = _ts_level(level)
        if hi is None:
            am1c, bm1c = cols
            expo = am1c * log_dlo
            expo += bm1c * log_dhi
        else:
            am1c, bm1c, halfspan, span, onemhi = cols
            w = h * halfspan * (0.5 * math.pi) * cosh_kh / cosh_z2
            dlo_pos = span * frac  # distance from 0 at +k
            dhi_pos = span / onepe2z  # distance from hi at +k
            # nodes at -k mirror the distances
            dlo = np.concatenate([dlo_pos, dhi_pos[:, first:]], axis=1)
            dhi = np.concatenate([dhi_pos, dlo_pos[:, first:]], axis=1)
            ww = np.concatenate([w, w[:, first:]], axis=1)
            expo = np.log(np.maximum(dlo, 1e-300, out=dlo), out=dlo)
            expo *= am1c
            dhi += onemhi
            expo += bm1c * np.log(np.maximum(dhi, 1e-300, out=dhi), out=dhi)
        m = expo.max(axis=1)
        rose = m > scale
        grown = np.flatnonzero(rose & np.isfinite(scale))
        if grown.size:
            total[grown] *= [math.exp(d) for d in (scale[grown] - m[grown]).tolist()]
        scale = np.where(rose, m, scale)
        expo -= scale[:, None]
        np.exp(expo, out=expo)
        expo *= ww
        # h is baked into ww, so halving h halves the carried-over sum
        total = 0.5 * total + expo.sum(axis=1)

        # a sum that underflows to 0 (hi = 5e-324) logs as -inf, converged once it repeats
        log_val = np.array([math.log(t) if t else -math.inf for t in total.tolist()]) + scale
        with np.errstate(invalid="ignore"):
            done = (log_val == prev) | (np.abs(log_val - prev) <= _LOG_TOLERANCE)
        prev = log_val
        if done.any():
            out[idx[done]] = log_val[done]
            keep = ~done
            if not keep.any():
                return out, rows
            idx, scale, total, prev = idx[keep], scale[keep], total[keep], prev[keep]
            cols = [c[keep] for c in cols]
    return out, int(idx[0])


def quad_inc_beta(x, a, b):
    """Oracle for I_x(a, b): the ratio of two tanh-sinh integrals.

    Both the partial and the complete beta integral are evaluated by
    quadrature, so the result shares nothing with the continued-fraction
    path (not even the log-Beta prefactor). Arguments broadcast like
    ufuncs; scalars give a float. The elements with 0 < x < 1 are taken
    _ROWS at a time: one kernel call integrates their partial integrals
    (hi = x), a second their complete ones (hi = 1.0) from the cached
    per-level tables. Each element gets the bits its scalar call gives,
    and a failure names the integral a scalar loop would fail on first,
    in the order partial, complete, next element's partial and so on.
    Where x (1 + |b - 1|) < _X_TINY, the weights and node distances of
    [0, x] underflow, but (1 - t)^(b-1) is 1 there within a relative
    1e-280: the partial integral is x^a times that of u^(a-1) over [0, 1].

    The domain is a >= 0.5, 0 < b <= 1e5 and a <= 1e5 (_SHAPE_MAX); past
    it a sharply peaked integrand fails to converge (from about 3e5) or
    drifts (at (1, 1e8), 1e-9 from reg_inc_beta). The 1e-12 accuracy above
    is checked against mpmath for a, b in [0.5, 2000].
    """
    (x, a, b), shape, scalar = _prepare(x, a, b)
    if not ((0.0 <= x) & (x <= 1.0)).all():
        raise ValueError("quad_inc_beta requires 0 <= x <= 1")
    # NaN passes the range test below and inf passes it; either would run
    # the refinement to its cap and fail as a convergence error
    if not (np.isfinite(a) & np.isfinite(b)).all():
        raise ValueError("quad_inc_beta requires a and b to be finite")
    if ((a < 0.5) | (b <= 0.0)).any():
        raise ValueError("quad_inc_beta requires a >= 0.5 and b > 0")
    if ((a > _SHAPE_MAX) | (b > _SHAPE_MAX)).any():
        raise ValueError(f"quad_inc_beta requires a and b at most {_SHAPE_MAX:g}")
    out = np.where(x == 1.0, 1.0, 0.0)
    inner = np.flatnonzero((x > 0.0) & (x < 1.0))
    hi, am1, bm1 = x[inner], a[inner] - 1.0, b[inner] - 1.0
    tiny = hi * (1.0 + np.abs(bm1)) < _X_TINY
    part_hi, part_bm1 = np.where(tiny, 1.0, hi), np.where(tiny, 0.0, bm1)
    num, den = np.empty(inner.size), np.empty(inner.size)
    for lo in range(0, inner.size, _ROWS):
        rows = slice(lo, lo + _ROWS)
        num[rows], p = _ts_log_integrals(part_hi[rows], am1[rows], part_bm1[rows])
        den[rows], c = _ts_log_integrals(None, am1[rows], bm1[rows])
        if min(p, c) < num[rows].size:
            # a scalar loop meets an element's partial integral before its complete one
            i = lo + min(p, c)
            args = (float(hi[i]) if p <= c else 1.0, float(am1[i]) + 1.0, float(bm1[i]) + 1.0)
            raise QuadratureError(
                f"tanh-sinh refinement cap {_MAX_LEVEL} reached "
                f"(hi={args[0]!r}, a={args[1]!r}, b={args[2]!r})",
                _MAX_LEVEL,
                args_at_failure=args,
            )
    num[tiny] += [ai * math.log(xi) for ai, xi in zip(a[inner][tiny].tolist(), hi[tiny].tolist())]
    out[inner] = [min(1.0, math.exp(n - d)) for n, d in zip(num.tolist(), den.tolist())]
    return _finish(out, shape, scalar)


@dataclass(frozen=True)
class CheckResult:
    """One verification check: residual semantics are described in detail."""

    name: str
    samples: int
    max_residual: float
    passed: bool
    detail: str = ""

    def __post_init__(self):
        if not math.isfinite(self.max_residual):
            raise ValueError(f"check {self.name}: residual must be finite")


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple
    seed: Optional[int] = None
    profile: Optional[str] = None

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "seed": self.seed,
            "profile": self.profile,
            "checks": [asdict(c) for c in self.checks],
        }

    def first_failure(self) -> Optional[CheckResult]:
        for c in self.checks:
            if not c.passed:
                return c
        return None


def _require(check, rule, values, ok):
    """A ValueError naming the check, its rule and the first value that breaks it."""
    if not ok.all():
        raise ValueError(f"check {check}: {rule}, got {float(values[~ok][0])!r}")


def _sample_columns(sample, check):
    arr = np.asarray(sample, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("sample must be an (n, 3) array of (x, a, b) triples")
    if arr.shape[0] == 0:
        raise ValueError("sample must be nonempty")
    _require(check, "sample values must be finite", arr, np.isfinite(arr))
    return arr[:, 0], arr[:, 1], arr[:, 2]


def _nonempty(name, values):
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty sequence")
    return arr


def _evaluate(checks):
    """The results of check generators, with one reg_inc_beta call for all.

    The planners run in order; their requests, broadcast and flattened, are
    joined in that order; the finishers run in order on their shares. Each
    element is computed on its own, so a share has the bits of a call of its
    own, and a ConvergenceError names the first check's failing element.
    """
    requests = [[v.ravel() for v in np.broadcast_arrays(*next(check))] for check in checks]
    vals = reg_inc_beta(*(np.concatenate(column) for column in zip(*requests)))
    ends = np.cumsum([x.size for x, _, _ in requests])
    results = []
    for check, share in zip(checks, np.split(vals, ends[:-1])):
        try:
            check.send(share)
        except StopIteration as done:
            results.append(done.value)
    return results


def _one_call(plan):
    """The public check of the check generator ``plan``, named without its "_".

    Before its yield (the planner) ``plan`` validates the arguments and
    yields the (x, a, b) of every continued fraction the check needs; after
    it (the finisher) it returns the CheckResult. run_suite runs the
    generators themselves.
    """
    @functools.wraps(plan)
    def check(*args, **kwargs):
        return _evaluate([plan(*args, **kwargs)])[0]

    check.__name__ = check.__qualname__ = plan.__name__.removeprefix("_")
    return check


def _check_recurrence(sample, tol: float = 1e-10) -> CheckResult:
    """Residual of I_x(a, b+1) - I_x(a, b) - x^a (1-x)^b / (b B(a, b)).

    The correction term is formed in the log domain; x = 0 contributes a
    zero residual exactly. Both sides are one continued-fraction request,
    b's elements first.
    """
    x, a, b = _sample_columns(sample, "recurrence-identity")
    if (x < 0.0).any() or (x >= 1.0).any() or (a <= 0.0).any() or (b <= 0.0).any():
        raise ValueError("recurrence check requires 0 <= x < 1, a > 0, b > 0")
    both = yield np.tile(x, 2), np.tile(a, 2), np.concatenate([b, b + 1.0])
    i_b, i_b1 = both[:x.size], both[x.size:]
    with np.errstate(divide="ignore"):
        corr = np.exp(a * np.log(x) + b * np.log1p(-x) - np.log(b) - ln_beta(a, b))
    corr = np.where(x == 0.0, 0.0, corr)
    resid = np.abs(i_b1 - i_b - corr)
    worst = float(resid.max())
    return CheckResult(
        name="recurrence-identity",
        samples=int(x.size),
        max_residual=worst,
        passed=worst <= tol,
        detail=f"|I_x(a,b+1) - I_x(a,b) - x^a(1-x)^b/(b B(a,b))| <= {tol:g}",
    )


def _check_monotone_b(kappa, d1_list: Sequence[int], d2_range, tol_strict: float = 1e-14) -> CheckResult:
    """Strict decrease of the probe along consecutive d2 for fixed d1.

    Proven for kappa <= 1; for kappa > 1 the same numbers are collected but
    reported observationally (always passes, detail says so). The residual
    is the largest consecutive difference, which must stay below
    -tol_strict for a strict-decrease pass. A violation names the first d1
    that has one, at its largest difference. A d1 that is not an integer
    >= 1 is a ValueError. The grid scan's row-segment bound rests on this
    theorem, and this check tests it on its own sample.
    """
    d1s = _nonempty("d1_list", d1_list)
    is_degree = np.isfinite(d1s) & (np.floor(d1s) == d1s) & (d1s >= 1.0)
    _require("monotone-in-b", "d1_list must hold integers >= 1", d1s, is_degree)
    kappa = _check_kappa(kappa, d1s / 2.0)
    d2s = np.asarray(list(d2_range), dtype=np.int64)
    if d2s.size < 2 or (np.diff(d2s) != 1).any() or d2s[0] < 3:
        raise ValueError("d2_range must be consecutive integers starting at >= 3")
    observational = kappa > 1.0
    a, b = d1s[:, None] / 2.0, d2s / 2.0
    vals = yield _threshold(kappa, a, b), a, b
    diffs = np.diff(vals.reshape(d1s.size, d2s.size), axis=1)
    worst = float(diffs.max())
    bad = np.flatnonzero(diffs.max(axis=1) >= -tol_strict)
    if observational:
        detail = "kappa > 1: outside proven scope, observational only"
    elif bad.size == 0:
        detail = f"all consecutive d2 steps decrease by more than {tol_strict:g}"
    else:
        i = bad[0]
        violation = (int(d1s[i]), int(d2s[np.argmax(diffs[i]) + 1]), kappa)
        detail = f"violation at (d1, d2, kappa) = {violation}"
    return CheckResult(
        name=f"monotone-in-b[kappa={kappa:g}]" + ("-observational" if observational else ""),
        samples=diffs.size,
        max_residual=worst,
        passed=observational or worst < -tol_strict,
        detail=detail,
    )


def _check_limit(a_list, kappa_list, b_ladder, final_tol: float = 1e-3) -> CheckResult:
    """Convergence of the probe to the lower-gamma limit along a b ladder.

    For each (a, kappa) the residual |I_{q(a,b,kappa)}(a,b) - P(a, kappa a)|
    must shrink at every ladder step and end at or below final_tol. The
    reported residual is the largest end-of-ladder residual; a violation
    names the first (a, kappa), a-major, at its first non-shrinking step.
    Every a must be positive and every rung finite and above 1.
    """
    a = _nonempty("a_list", a_list)
    _require("limit-convergence", "a_list must hold values > 0", a, a > 0.0)
    kappas = [_check_kappa(k, a) for k in _nonempty("kappa_list", kappa_list)]
    ladder = np.asarray(list(b_ladder), dtype=np.float64)
    rungs_ok = np.isfinite(ladder) & (ladder > 1.0)
    _require("limit-convergence", "b ladder rungs must be finite and > 1", ladder, rungs_ok)
    if ladder.size < 2 or (np.diff(ladder) <= 0.0).any():
        raise ValueError("b ladder must be increasing with at least two rungs")
    a_col = a[:, None, None]
    vals = yield _threshold(np.asarray(kappas)[:, None], a_col, ladder), a_col, ladder
    lim = np.stack([limit_b(a, k) for k in kappas], axis=1)
    resid = np.abs(vals.reshape(lim.shape + ladder.shape) - lim[:, :, None])
    grows = np.diff(resid, axis=2) >= 0.0
    worst_final = float(resid[:, :, -1].max())
    bad = np.argwhere(grows.any(axis=2))
    if bad.size == 0:
        violation = None
        detail = f"residuals shrink at every step; final <= {final_tol:g}"
    else:
        i, k = bad[0]
        j = np.argmax(grows[i, k])
        violation = (float(a[i]), kappas[k], float(ladder[j]), float(ladder[j + 1]))
        detail = f"non-shrinking residual at (a, kappa, b, b') = {violation}"
    return CheckResult(
        name="limit-convergence",
        samples=resid.size,
        max_residual=worst_final,
        passed=violation is None and worst_final <= final_tol,
        detail=detail,
    )


def _check_kappa_monotone(p_sample, kappa_ladder) -> CheckResult:
    """Strict increase of the probe along an ascending kappa ladder.

    Residual is the smallest observed increment (negated), so any value
    >= 0 means a violation; singleton ladders pass vacuously. A violation
    names the first pair, in sample order, at its first non-increasing step.
    Each pair is an FParams or a (d1, d2) pair taken as given, so a pair that
    is not integral is FParams' ValueError.
    """
    params = [p if isinstance(p, FParams) else FParams(p[0], p[1]) for p in p_sample]
    if not params:
        raise ValueError("p_sample must be nonempty")
    shapes = np.array([(p.d1, p.d2) for p in params], dtype=np.float64) / 2.0
    ladder = [_check_kappa(k, shapes[:, 0]) for k in _nonempty("kappa_ladder", kappa_ladder)]
    if any(k2 <= k1 for k1, k2 in zip(ladder, ladder[1:])):
        raise ValueError("kappa ladder must be strictly increasing")
    if len(ladder) == 1:
        yield (np.empty(0),) * 3
        return CheckResult(
            name="monotone-in-kappa", samples=0, max_residual=0.0, passed=True,
            detail="singleton ladder: vacuous pass",
        )
    a, b = shapes[:, :1], shapes[:, 1:]
    vals = yield _threshold(np.asarray(ladder), a, b), a, b
    incs = np.diff(vals.reshape(len(params), len(ladder)), axis=1)
    min_inc = float(incs.min())
    bad = np.argwhere(incs <= 0.0)
    if bad.size == 0:
        violation = None
        detail = "strictly increasing along the ladder for every parameter pair"
    else:
        i, j = bad[0]
        violation = (params[i].d1, params[i].d2, ladder[j], ladder[j + 1])
        detail = f"non-increasing step at (d1, d2, kappa1, kappa2) = {violation}"
    return CheckResult(
        name="monotone-in-kappa",
        samples=incs.size,
        max_residual=-min_inc,
        passed=violation is None,
        detail=detail,
    )


def _check_oracle_agreement(sample, tol: float = 1e-9) -> CheckResult:
    """|continued fraction - tanh-sinh quadrature| on (x, a, b) triples."""
    x, a, b = _sample_columns(sample, "oracle-agreement")
    cf_vals = yield x, a, b
    # np.max keeps a NaN residual, which CheckResult then rejects
    worst = float(np.max(np.abs(quad_inc_beta(x, a, b) - cf_vals)))
    return CheckResult(
        name="oracle-agreement",
        samples=int(x.size),
        max_residual=worst,
        passed=worst <= tol,
        detail=f"continued fraction vs quadrature within {tol:g}",
    )


check_recurrence = _one_call(_check_recurrence)
check_monotone_b = _one_call(_check_monotone_b)
check_limit = _one_call(_check_limit)
check_kappa_monotone = _one_call(_check_kappa_monotone)
check_oracle_agreement = _one_call(_check_oracle_agreement)


def _triple_sample(rng, n, hi):
    """n (x, a, b) rows: x uniform on [0, 1), a and b log-uniform on [0.5, hi]."""
    x = rng.uniform(0.0, 1.0, n)
    a = np.exp(rng.uniform(math.log(0.5), math.log(hi), n))
    b = np.exp(rng.uniform(math.log(0.5), math.log(hi), n))
    return np.column_stack([x, a, b])


def run_suite(profile: str = "quick", seed: int = DEFAULT_SEED) -> VerificationReport:
    """Run every check at the given profile ('quick' or 'full').

    quick samples ~100 points per randomized check, full ~1000. All
    sampling is driven by the seed recorded in the report, so reports are
    reproducible bit-for-bit, each result the one its public check gives.

    The planners run in suite order (so a ValueError comes first), one
    reg_inc_beta call takes all their continued fractions, and the
    finishers run in suite order. A ConvergenceError is the one the checks
    called in order raise, except that one from limit_b, in check_limit's
    finisher, now comes after one from any continued fraction. The
    oracle's QuadratureError comes last, from its finisher.
    """
    if profile not in ("quick", "full"):
        raise ValueError(f"profile must be 'quick' or 'full', got {profile!r}")
    quick = profile == "quick"
    n_rec = 100 if quick else 1000
    n_oracle = 40 if quick else 500
    d2_hi = 100 if quick else 200
    n_pairs = 10 if quick else 50

    rng = np.random.default_rng(seed)
    checks = [_check_recurrence(_triple_sample(rng, n_rec, 500.0))]
    for kappa in (0.25, 0.5, 0.9, 1.0):
        checks.append(_check_monotone_b(kappa, (1, 2, 3, 10, 100), range(3, d2_hi + 1)))
    checks.append(_check_limit((0.5, 1.0, 5.0), (0.5, 1.0), [2.0 ** j for j in range(1, 14)]))
    # keep d1 and kappa moderate: once the probe saturates to 1.0 in double
    # precision, strict increase carries no information
    d1s = rng.integers(1, 13, n_pairs)
    d2s = rng.integers(3, 301, n_pairs)
    pairs = [(int(d1), int(d2)) for d1, d2 in zip(d1s, d2s)] + [(1, 3), (2, 1999), (1, 4)]
    checks.append(_check_kappa_monotone(pairs, (0.5, 1.0, 1.5, 2.0, 4.0)))
    checks.append(_check_oracle_agreement(_triple_sample(rng, n_oracle, 2000.0)))
    return VerificationReport(checks=tuple(_evaluate(checks)), seed=seed, profile=profile)
