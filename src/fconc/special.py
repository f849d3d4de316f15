"""Self-contained special functions: log-gamma, Beta, regularized incomplete
beta and lower incomplete gamma.

Everything here is implemented from scratch on top of numpy elementwise
arithmetic (no scipy). All functions accept scalars or arrays and broadcast
like numpy ufuncs; scalar inputs return plain floats.

Accuracy targets (double precision):
  * ``ln_gamma``        relative error <= 1e-13 on [0.5, 1e6]
  * ``ln_beta``         absolute error <= 1e-12 for a, b in [0.5, 2000];
                        past that it grows with the shapes: 4.4e-11 at
                        (1e5, 1e5), and for a << b 5.0e-13 at (1.5, 1e5),
                        3.0e-12 at (1.5, 1e6), 5.5e-8 at (1.5, 1e10),
                        8e-4 at (1.5, 1e15), and -inf from (1.5, 1e17)
  * ``beta``            relative error <= 1e-12 for a, b in [0.5, 2000],
                        where B is normal
  * ``reg_inc_beta``    absolute error <= 1e-12 (REG_INC_BETA_ABS_ERR) for
                        a, b <= 2000; past that it grows, to 1.7e-11 at
                        I_{1/2}(1e5, 1e5) (see its docstring)
  * ``reg_lower_gamma`` absolute error <= 1e-12 for a up to 500 and
                        <= 1e-11 up to a = 1e4 (the end of the default
                        limit-curve grid); the error peaks near x = a, where
                        the log prefactor cancels, and grows with a

All evaluation is pure: results depend only on the arguments, so every
function is safe to call from multiple threads. The continued fractions and
series stop at a fixed relative tolerance, _CF_TOLERANCE, or raise
ConvergenceError (exit 3 from the CLI) after a fixed _CF_MAX_ITER
iterations.

The lower-gamma series finishes in blocks: once at most ``_SERIES_BLOCK``
(64) elements of a call are still running, it takes 64 terms at a time with
numpy's accumulate along a term axis. Each term is the step's own IEEE
operations in the step's order, so every value is bit-identical to the
step-by-step series, and the iteration cap holds term for term. It serves
the limit curve near kappa = 1, whose 60-point tail (a from 1000 to 1e4)
runs up to ~830 steps, each a few numpy calls' overhead on a few dozen
elements; 64 is the smallest measured block that holds the whole tail.
The series has one stop rule: an element stops once it converges or its
partial value exceeds a level, ``above``: infinite in reg_lower_gamma, the
least value it needs in limit_curve_min. A stopped element's full value
would exceed the level too, so every value at or below it is the full
series', bit for bit, and at a level of 1 or more every value is, as both
clip to 1.0 (_gamma_series).

Both Lentz fractions, the incomplete beta's and the upper gamma's, run
first with no guard against a vanishing denominator, under numpy's errstate
raising on division by zero and invalid operations; a call that raises or
reaches the cap reruns with the guard (_lentz_converge). The guard's four
masked passes took 28% of an incomplete-beta step over 131 elements and 21%
over 8,000 (35 against 25 us, 138 against 109 us; 2-core VM, numpy 2.4.6).
The guard can fire only where a denominator is exactly 0, and there the
unguarded loop raises (the lemma is in _lentz's docstring), so every value,
and every failure's ``args_at_failure``, is the guarded loop's.

``reg_inc_beta`` and ``ln_beta`` evaluate in chunks of ``_CHUNK`` elements,
so a call over a whole grid stripe keeps its temporaries (the continued
fraction's arrays, the stacked Lanczos sums) cache-sized. Every element's
arithmetic is independent of its chunk, so a value is bit-identical however
a call is split, and a convergence failure names the lowest-index failing
element of the call.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

__all__ = [
    "ConvergenceError",
    "ln_gamma",
    "ln_beta",
    "beta",
    "reg_inc_beta",
    "reg_lower_gamma",
]

# Documented absolute error of reg_inc_beta; the grid search's pruning
# margin is built on it, and tests check it against mpmath. It holds at the
# fixed relative tolerance of every continued fraction and series below.
REG_INC_BETA_ABS_ERR = 1e-12
_CF_TOLERANCE = 1e-15
# Iteration cap of every continued fraction and series; reaching it raises
# ConvergenceError, so it can only turn a result into a failure.
_CF_MAX_ITER = 2000

# Largest shape a or b the CLI and the verification oracle accept; tests
# hold reg_inc_beta's error up to it.
SHAPE_MAX = 1e5

# Documented relative error of _grid_beta_density, and of the grid scan's
# increment term built on it, for a, b up to ~1000 at the grid's
# thresholds. The density's log sums terms of size up to ~1e3 that cancel,
# so it carries an absolute error of a few ulps of 1e3, which exp turns into
# a relative one. Over the cells the increment bound sees at caps 1999 and
# kappa = 1.00005 to 1.05, mpmath measured at most 8e-13; tests check it.
# _tail_bound's log sums terms of the same size, and the same budget holds
# it; tests check it.
BETA_DENSITY_REL_ERR = 1e-11

# Largest term ratio r at which _tail_bound sums its series as a geometric
# one, whose sum 1 / (1 - r) is then at most 1000.
_TAIL_RATIO_MAX = 0.999

# Least log _tail_bound exponentiates. Raising it only raises the bound,
# and e^-650 = 5e-283 divided by b <= SHAPE_MAX stays a normal number, so no
# bound loses precision to underflow, and no exp takes numpy's slow path for
# subnormal and zero results.
_LN_TAIL_FLOOR = -650.0

# Terms per block, and most live elements, of the lower-gamma series'
# blocked finish (see _converge), so a block is at most 64 x 64. Near
# kappa = 1 the limit curve's 60-point tail, a from 1000 to 1e4, runs up to
# ~830 series steps, each a few numpy calls on a few dozen elements. At
# kappa = 1 the tail took 6.1 ms step by step; in blocks it took 4.9 ms with
# 48 terms, whose block it does not fit, 1.6 ms with 64 and 1.3-1.5 ms with
# 96-192 (medians of 11 interleaved runs, 2-core VM, numpy 2.4.6).
_SERIES_BLOCK = 64

# Lentz guard against vanishing denominators (Numerical Recipes FPMIN).
_TINY = 1e-300

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# Elements per chunk of reg_inc_beta and ln_beta. A chunk's float64
# temporaries are 256 KiB each: the continued fraction's working set stays
# in a 2 MiB L2 cache, and every temporary stays below glibc's mmap
# threshold, so a long fraction does not page-fault fresh memory on each
# iteration.
_CHUNK = 32768

# Lanczos approximation, g = 7, 9 coefficients. Series error ~1e-15 for
# Re(z) >= 0.5; double rounding dominates in practice.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


class ConvergenceError(ArithmeticError):
    """A continued fraction or series hit its iteration cap before converging.

    Carries ``iterations`` (the cap that was exhausted) and ``args_at_failure``,
    the caller's own arguments -- (x, a, b) for reg_inc_beta, (a, x) for
    reg_lower_gamma, never a branch-swapped form -- at the lowest-index
    element that did not converge.
    """

    def __init__(self, message, iterations, args_at_failure=None):
        super().__init__(message)
        self.iterations = iterations
        self.args_at_failure = args_at_failure

    def __reduce__(self):
        # the default reduction replays only the message, so a worker's
        # failure would not unpickle in the parent process
        return type(self), (self.args[0], self.iterations, self.args_at_failure)


def _prepare(*values):
    """Broadcast inputs to a common shape, flattened to 1-D float64.

    Returns (arrays, shape, scalar) where ``scalar`` is True when every
    input was a scalar.
    """
    arrs = [np.asarray(v, dtype=np.float64) for v in values]
    scalar = all(a.ndim == 0 for a in arrs)
    bcast = np.broadcast_arrays(*arrs)
    shape = bcast[0].shape
    flat = [np.ascontiguousarray(a, dtype=np.float64).reshape(-1) for a in bcast]
    return flat, shape, scalar


def _finish(out, shape, scalar):
    if scalar:
        return float(out[0])
    return out.reshape(shape)


def _lanczos_sum(z):
    # c_0 + sum of c_k / ((z - 1) + k); the terms share one scratch array
    # instead of allocating two temporaries each
    zm1 = z - 1.0
    s = np.full_like(z, _LANCZOS_C[0])
    t = np.empty_like(z)
    for k in range(1, len(_LANCZOS_C)):
        np.add(zm1, k, out=t)
        np.divide(_LANCZOS_C[k], t, out=t)
        s += t
    return s


def _ln_gamma_main(z):
    # Lanczos, valid for z >= 0.5
    t = z + (_LANCZOS_G - 0.5)
    return _HALF_LOG_2PI + (z - 0.5) * np.log(t) - t + np.log(_lanczos_sum(z))


def _ln_gamma_raw(z):
    small = z < 0.5
    if not small.any():
        return _ln_gamma_main(z)
    out = np.empty_like(z)
    zs = z[small]
    # reflection: ln Gamma(z) = ln(pi) - ln(sin(pi z)) - ln Gamma(1 - z);
    # the log difference keeps denormal z from overflowing the quotient
    out[small] = math.log(math.pi) - np.log(np.sin(np.pi * zs)) - _ln_gamma_main(1.0 - zs)
    rest = ~small
    out[rest] = _ln_gamma_main(z[rest])
    return out


def ln_gamma(x):
    """Natural log of the Gamma function for x > 0.

    Lanczos approximation (g=7, 9 coefficients) with reflection below 0.5.
    """
    (z,), shape, scalar = _prepare(x)
    if not np.isfinite(z).all() or (z <= 0.0).any():
        raise ValueError("ln_gamma requires finite x > 0")
    return _finish(_ln_gamma_raw(z), shape, scalar)


def _ln_beta_raw(a, b):
    # Combined Lanczos form of ln Gamma(a) + ln Gamma(b) - ln Gamma(a+b).
    # The naive lgamma difference loses ~|lgamma| * eps absolute precision
    # for large arguments; this form is conditioned like the result itself.
    tab = a + b + (_LANCZOS_G - 0.5)
    # one Lanczos pass over a, b and a + b stacked: three passes over small
    # arrays cost three times the per-call overhead
    ln_a, ln_b, ln_ab = np.log(_lanczos_sum(np.stack([a, b, a + b])))
    return (
        _HALF_LOG_2PI
        - (_LANCZOS_G - 0.5)
        + (a - 0.5) * np.log1p(-b / tab)
        + (b - 0.5) * np.log1p(-a / tab)
        - 0.5 * np.log(tab)
        + ln_a
        + ln_b
        - ln_ab
    )


def ln_beta(a, b):
    """Natural log of the Beta function B(a, b), a > 0, b > 0.

    Evaluated in a combined form that avoids the cancelling three-lgamma
    difference. Past a, b = 2000 its error grows, unchecked (see the module
    docstring); it returns -inf once b / (a + b + 6.5) rounds to 1, as at
    (1.5, 1e17). Arguments below 0.5 fall back to ln_gamma.
    """
    (aa, bb), shape, scalar = _prepare(a, b)
    if not (np.isfinite(aa).all() and np.isfinite(bb).all()) or (aa <= 0.0).any() or (bb <= 0.0).any():
        raise ValueError("ln_beta requires finite a > 0 and b > 0")
    out = np.empty_like(aa)
    for lo in range(0, aa.size, _CHUNK):
        out[lo:lo + _CHUNK] = _ln_beta_any(aa[lo:lo + _CHUNK], bb[lo:lo + _CHUNK])
    return _finish(out, shape, scalar)


def beta(a, b):
    """Beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a+b).

    Raises OverflowError when the result exceeds the double range (tiny
    arguments); underflow toward 0 is returned as-is.
    """
    lb = ln_beta(a, b)
    arr = np.asarray(lb)
    if (arr > 709.0).any():
        raise OverflowError("beta(a, b) overflows double precision")
    out = np.exp(arr)
    return float(out) if np.ndim(lb) == 0 else out


def _converge(step, state, what, report, block=None):
    """Iterate ``step(state, m, tol)`` for m = 1, 2, ... over an active set.

    ``state`` is a namespace of equal-length 1-D arrays; ``state.h`` holds the
    current values. ``step`` advances its arrays, in place or by rebinding
    them, and returns the mask of converged elements. An element's value is stored once, at the
    first iteration it converges; the ``live`` mask marks the elements not
    yet stored. Compaction is lazy: every array of ``state`` is gathered down
    to the live elements only when they are 3/4 of the array or fewer, and
    until then a stored element keeps iterating, its later values never
    read. Each element's arithmetic is independent of its batch, so the
    stored values are bit-identical for any chunking or compaction schedule.
    Build ``state`` in place: a local naming one of its arrays would keep
    the full-size array alive through the loop.

    ``block(state, n, tol)``, when given, takes n iterations at once: once
    the live elements number at most _SERIES_BLOCK, they are gathered and
    finished in blocks of that many iterations (fewer at the cap). It leaves
    in ``state.h`` each element's value at its first converged iteration of
    the block, or at the block's last, and returns the converged mask.

    ``report`` maps argument names to the caller's full-length arrays. At
    the iteration cap, ConvergenceError carries their values at the
    lowest-index element that did not converge.
    """
    result = np.empty(state.h.size)
    idx = np.arange(state.h.size)
    live = np.ones(state.h.size, dtype=bool)
    arrays = vars(state)
    # compacted three arrays at a time: one at a time measured ~45% more page
    # faults and 5-10% more time on 128-row stripes at kappa = 1.00005
    groups = [list(arrays)[i:i + 3] for i in range(0, len(arrays), 3)]
    blocked = block is not None and live.size <= _SERIES_BLOCK
    m = 0
    while m < _CF_MAX_ITER:
        if blocked:
            n = min(_SERIES_BLOCK, _CF_MAX_ITER - m)
            done = block(state, n, _CF_TOLERANCE)
        else:
            n = 1
            done = step(state, m + 1, _CF_TOLERANCE)
        m += n
        new = done & live
        if new.any():
            result[idx[new]] = state.h[new]
            live &= ~new
            n_live = np.count_nonzero(live)
            if n_live == 0:
                return result
            to_block = block is not None and n_live <= _SERIES_BLOCK
            if 4 * n_live <= 3 * live.size or (to_block and not blocked):
                idx = idx[live]
                for group in groups:
                    arrays.update([(name, arrays[name][live]) for name in group])
                live = np.ones(n_live, dtype=bool)
                blocked = to_block

    args = tuple(float(v[idx[live][0]]) for v in report.values())
    offender = ", ".join(f"{name}={v!r}" for name, v in zip(report, args))
    raise ConvergenceError(
        f"{what}: not converged after {_CF_MAX_ITER} iterations; "
        f"first offender {offender}",
        _CF_MAX_ITER,
        args_at_failure=args,
    )


def _lentz(s, an, bn, guard):
    """One modified-Lentz step for the next term an / (bn + ...) of a continued
    fraction: advances s.d and s.c in place and returns the factor d * c.

    guard raises a d or c below _TINY in size to _TINY, Numerical Recipes'
    guard against a vanishing denominator. Each is formed as bn + y, with
    y = an * d or an / c. For bn >= 1, as in both of this module's fractions
    (1 for the incomplete beta, x + 1 - a + 2m >= 2 for the upper gamma),
    the guard can fire only where that sum is exactly 0: if |y| lies
    outside (bn/2, 2 bn), the sum rounds to at least bn/2 in size; inside
    that range it is exact (Sterbenz's lemma), and bn and y are multiples of
    2^-53, so it is 0 or at least 2^-53. Without the guard a zero d raises
    at once, at 1 / d, and a zero c at the next an / c: its factor d * c = 0
    leaves the element unconverged, so its next half-step comes in the same
    call, unless the call reaches its cap first. So an unguarded loop that
    neither raises nor reaches its cap reads no value a guard would have
    changed. _lentz_converge runs each fraction that way first, with those
    divisions raising, and reruns it guarded when one raises or the cap is
    reached, so every value and every failure is the guarded loop's.
    """
    d, c = s.d, s.c
    np.multiply(an, d, out=d)
    np.add(bn, d, out=d)
    if guard:
        np.copyto(d, _TINY, where=np.abs(d) < _TINY)
    np.divide(1.0, d, out=d)
    np.divide(an, c, out=c)
    np.add(bn, c, out=c)
    if guard:
        np.copyto(c, _TINY, where=np.abs(c) < _TINY)
    return d * c


def _lentz_converge(start, step, what, report):
    """_converge over a Lentz fraction: start() builds its state and
    step(s, m, tol, guard) is its step. The loop runs first without the
    guard, under errstate raising on division by zero and invalid
    operations; on such an error, or at the iteration cap, it reruns from a
    fresh state with the guard (see _lentz)."""
    try:
        with np.errstate(divide="raise", invalid="raise"):
            return _converge(lambda s, m, tol: step(s, m, tol, False), start(), what, report)
    except (FloatingPointError, ConvergenceError):
        return _converge(lambda s, m, tol: step(s, m, tol, True), start(), what, report)


def _beta_cf_step(s, m, tol, guard):
    # the even and the odd term of the incomplete-beta fraction, each formed
    # in one scratch numerator and one scratch denominator
    fm = float(m)
    m2 = 2.0 * fm
    a_m2 = s.a + m2
    num = s.b - fm
    num *= fm
    num *= s.x
    den = s.qam + m2
    den *= a_m2
    num /= den
    s.h *= _lentz(s, num, 1.0, guard)
    np.add(s.a, fm, out=num)
    np.negative(num, out=num)
    num *= s.qab + fm
    num *= s.x
    np.add(s.qap, m2, out=den)
    np.multiply(a_m2, den, out=den)
    num /= den
    delta = _lentz(s, num, 1.0, guard)
    s.h *= delta
    delta -= 1.0
    return np.abs(delta, out=delta) < tol


def _beta_cf(x, a, b, report):
    """Continued fraction for the incomplete beta (modified Lentz)."""

    def start():
        s = SimpleNamespace(x=x, a=a, b=b, qab=a + b, qap=a + 1.0, qam=a - 1.0, c=np.ones(x.size))
        s.d = 1.0 - s.qab * x / s.qap
        s.d = np.where(np.abs(s.d) < _TINY, _TINY, s.d)
        s.d = 1.0 / s.d
        s.h = s.d.copy()
        return s

    return _lentz_converge(start, _beta_cf_step, "incomplete beta continued fraction", report)


def reg_inc_beta(x, a, b):
    """Regularized incomplete beta function I_x(a, b) for 0 <= x <= 1.

    Modified-Lentz continued fraction; when x lies past (a+1)/(a+b+2) the
    symmetry I_x(a,b) = 1 - I_{1-x}(b,a) is applied so the fraction always
    converges. The power prefactor is formed in the log domain, which keeps
    tiny thresholds (q ~ 1e-3 with large b) from underflowing.

    The absolute error is within REG_INC_BETA_ABS_ERR for a, b <= 2000.
    Past that it grows with the shapes, and nothing checks or reports it:
    |I_{1/2}(a, a) - 1/2| is 1.34e-12 at a = 1e4, 3.70e-12 at 5e4 and
    1.74e-11 at 1e5 (a test holds it within 1.4e-12, 3.8e-12 and 1.8e-11
    against mpmath). The grid search's shapes stay at or below 1000.

    Raises ConvergenceError (with the iteration count) instead of silently
    returning when the fraction fails to settle within _CF_MAX_ITER iterations;
    its ``args_at_failure`` is the caller's own (x, a, b) at the lowest-index
    element that did not converge, on either branch.
    """
    (xa, aa, bb), shape, scalar = _prepare(x, a, b)
    if not (np.isfinite(xa).all() and np.isfinite(aa).all() and np.isfinite(bb).all()):
        raise ValueError("reg_inc_beta requires finite arguments")
    if (xa < 0.0).any() or (xa > 1.0).any():
        raise ValueError("reg_inc_beta requires 0 <= x <= 1")
    if (aa <= 0.0).any() or (bb <= 0.0).any():
        raise ValueError("reg_inc_beta requires a > 0 and b > 0")

    out = np.empty_like(xa)
    out[xa == 0.0] = 0.0
    out[xa == 1.0] = 1.0
    interior = np.flatnonzero((xa > 0.0) & (xa < 1.0))
    for lo in range(0, interior.size, _CHUNK):
        i = interior[lo:lo + _CHUNK]
        xi, ai, bi = xa[i], aa[i], bb[i]
        # branch-independent log prefactor: a ln x + b ln(1-x) - ln B(a,b)
        ln_pre = ai * np.log(xi) + bi * np.log1p(-xi) - _ln_beta_any(ai, bi)
        use_sym = xi > (ai + 1.0) / (ai + bi + 2.0)
        xx = np.where(use_sym, 1.0 - xi, xi)
        fa = np.where(use_sym, bi, ai)
        fb = np.where(use_sym, ai, bi)
        front = np.exp(ln_pre) * _beta_cf(xx, fa, fb, {"x": xi, "a": ai, "b": bi}) / fa
        vals = np.where(use_sym, 1.0 - front, front)
        out[i] = np.clip(vals, 0.0, 1.0)

    return _finish(out, shape, scalar)


def _tail_bound(x, a, b):
    """Upper bound of the tail 1 - I_x(a, b) over flat arrays x, a, b of one
    length, formed with no continued fraction and no ln B; 1.0, the trivial
    bound, where it is not taken.

    The tail is I_{1-x}(b, a), which DLMF 8.17.8 writes as
        x^a (1-x)^b / (b B(a, b)) * F(a+b, 1; b+1; 1-x).
    The series' term ratios, (a+b+n) / (b+1+n) * (1-x), are all at most
    r = (1-x) max((a+b) / (b+1), 1): they fall toward 1 - x when a >= 1 and
    rise toward it when a < 1. So for r < 1 the series is at most 1 / (1-r);
    at a = 1 it is geometric, and that bound exact. By DLMF 5.6.1,
    ln Gamma(z) exceeds Stirling's (z - 1/2) ln z - z + ln(2 pi)/2 by
    between 0 and 1/(12 z), so ln B(a, b) exceeds Stirling's form of it by
    more than -1/(12 (a+b)), and with m = a / (a+b)
        ln(x^a (1-x)^b / B(a, b)) < u = a ln(x/m) + b ln((1-x)/(1-m))
                                        + ln(a b / (2 pi (a+b))) / 2
                                        + 1/(12 (a+b)).
    The bound is e^u / (b (1-r)), within a factor of about
    e^(1/(12a) + 1/(12b)) of the tail's own series bound. It is taken where
    x lies on reg_inc_beta's symmetry branch, x > (a+1)/(a+b+2), where the
    tail is the small side, with x < 1 and r < _TAIL_RATIO_MAX.

    u is raised to _LN_TAIL_FLOOR before its exp, which keeps every bound a
    normal number; unraised, one that underflowed to a subnormal could read
    below the tail (5e-324 against 1e-323), though 1 less either rounds to
    1.0. The bound's relative error is within BETA_DENSITY_REL_ERR for
    a, b up to ~1000: u's logs take arguments rounded a few times, each
    moving a term by a few ulps of a or b, and the terms, of size up to
    ~1e3, round by a few ulps of that, as the density's log does; the
    rounding of r moves 1 / (1-r) by a few ulps times 1 / (1-r) <= 1000.
    """
    ab = a + b
    r = (1.0 - x) * np.maximum(ab / (b + 1.0), 1.0)
    i = np.flatnonzero((x > (a + 1.0) / (ab + 2.0)) & (x < 1.0) & (r < _TAIL_RATIO_MAX))
    x, a, b, ab = x[i], a[i], b[i], ab[i]
    u = (a * np.log(x * ab / a) + b * np.log((1.0 - x) * ab / b)
         + 0.5 * np.log(a * b / (2.0 * math.pi * ab)) + 1.0 / (12.0 * ab))
    out = np.ones(r.size)
    out[i] = np.exp(np.maximum(u, _LN_TAIL_FLOOR)) / (b * (1.0 - r[i]))
    return out


def _ln_beta_any(a, b):
    # flat positive arrays -> ln B(a,b); split off sub-0.5 arguments
    main = (a >= 0.5) & (b >= 0.5)
    if main.all():
        return _ln_beta_raw(a, b)
    out = np.empty_like(a)
    out[main] = _ln_beta_raw(a[main], b[main])
    rest = ~main
    out[rest] = _ln_gamma_raw(a[rest]) + _ln_gamma_raw(b[rest]) - _ln_gamma_raw(a[rest] + b[rest])
    return out


def _grid_beta_density(x, a, b):
    """Beta(a, b) density at 0 < x <= 1 over arrays x, a, b of one shape,
    a >= 1/2 and b > 1 (the grid's); 0 at x = 1.

    Formed as exp((a-1) ln x + (b-1) ln(1-x) - ln B(a, b)), with ln B as
    ln_beta forms it, bit for bit. The log of 1 - x is taken only where
    x < 1, so a threshold that rounds to 1 gives 0 without a
    divide-by-zero warning, and any other non-finite value stays visible.
    """
    ln_1mx = np.full_like(x, -np.inf)
    np.log1p(-x, out=ln_1mx, where=x < 1.0)
    return np.exp((a - 1.0) * np.log(x) + (b - 1.0) * ln_1mx - _ln_beta_raw(a, b))


def _gamma_prefactor(a, x):
    # exp(a ln x - x - ln Gamma(a)), shared by the series and the fraction
    return np.exp(a * np.log(x) - x - _ln_gamma_raw(a))


def _gamma_series_step(s, m, tol, above):
    # x > 0 and a > 0, so every term and partial sum is positive: no abs
    s.ap += 1.0
    s.delt *= s.x / s.ap
    s.h += s.delt
    return (s.delt < s.h * tol) | (s.h * s.pref > above)


def _gamma_series_block(s, n, tol, above):
    # n of _gamma_series_step's steps at once, along a leading term axis:
    # each accumulate is the steps' own recurrence, one IEEE operation per
    # term in the steps' order, so every term is bit-identical to the step's
    ap = np.add.accumulate(np.vstack([s.ap, np.ones((n, s.ap.size))]))[1:]
    delt = np.multiply.accumulate(np.vstack([s.delt, s.x / ap]))[1:]
    h = np.add.accumulate(np.vstack([s.h, delt]))[1:]
    done = (delt < h * tol) | (h * s.pref > above)
    first = np.where(done.any(axis=0), done.argmax(axis=0), n - 1)
    s.ap, s.delt, s.h = ap[-1], delt[-1], h[first, np.arange(first.size)]
    return done.any(axis=0)


def _gamma_series(a, x, above):
    """P(a, x) by the lower-gamma power series, for x < a + 1; each element
    stops once it converges or its partial sum h gives h * prefactor > above,
    and returns that partial value.

    Its terms are positive and rounding is monotone, so its full value would
    be at least that and exceed the level too: a caller that needs only the
    values at or below the level, as limit_curve_min does, gets them bit for
    bit. At a level of 1 or more both values exceed 1, so reg_lower_gamma's
    clip makes both 1.0; at above = inf no element stops early. A stopped
    element need not converge, so a call that would raise ConvergenceError
    may return.
    """
    pref = _gamma_prefactor(a, x)
    s = SimpleNamespace(x=x, ap=a.copy(), h=1.0 / a, pref=pref)
    s.delt = s.h.copy()
    step = lambda s, m, tol: _gamma_series_step(s, m, tol, above)
    block = lambda s, n, tol: _gamma_series_block(s, n, tol, above)
    total = _converge(step, s, "lower incomplete gamma series", {"a": a, "x": x}, block)
    return total * pref


def _gamma_cf_step(s, m, tol, guard):
    fm = float(m)
    s.b0 = s.b0 + 2.0
    delta = _lentz(s, -fm * (fm - s.a), s.b0, guard)
    s.h = s.h * delta
    return np.abs(delta - 1.0) < tol


def _gamma_cf(a, x):
    """Q(a, x) by the upper-gamma continued fraction (modified Lentz), x >= a + 1."""

    def start():
        s = SimpleNamespace(a=a, b0=x + 1.0 - a, c=np.full(x.size, 1.0 / _TINY))
        s.d = 1.0 / s.b0
        s.h = s.d.copy()
        return s

    h = _lentz_converge(start, _gamma_cf_step, "upper incomplete gamma continued fraction", {"a": a, "x": x})
    return h * _gamma_prefactor(a, x)


def reg_lower_gamma(a, x):
    """Regularized lower incomplete gamma P(a, x), a > 0, x >= 0.

    Series expansion for x < a+1, continued fraction for the complement
    otherwise (both in the log-prefactor form). P(a, 0) = 0 exactly.
    """
    (aa, xx), shape, scalar = _prepare(a, x)
    if not (np.isfinite(aa).all() and np.isfinite(xx).all()):
        raise ValueError("reg_lower_gamma requires finite arguments")
    if (aa <= 0.0).any():
        raise ValueError("reg_lower_gamma requires a > 0")
    if (xx < 0.0).any():
        raise ValueError("reg_lower_gamma requires x >= 0")

    return _finish(_lower_gamma(aa, xx), shape, scalar)


def _lower_gamma(a, x, above=math.inf):
    """reg_lower_gamma over checked flat arrays; each series element may stop
    early at a value above the level above (see _gamma_series)."""
    out = np.empty_like(a)
    zero = x == 0.0
    out[zero] = 0.0

    small = (~zero) & (x < a + 1.0)
    if small.any():
        out[small] = _gamma_series(a[small], x[small], above)
    large = (~zero) & ~small
    if large.any():
        out[large] = 1.0 - _gamma_cf(a[large], x[large])

    return np.clip(out, 0.0, 1.0)
