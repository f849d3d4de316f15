"""Self-contained special functions: log-gamma, Beta, regularized incomplete
beta and lower incomplete gamma.

Everything here is implemented from scratch on top of numpy elementwise
arithmetic (no scipy). All functions accept scalars or arrays and broadcast
like numpy ufuncs; scalar inputs return plain floats.

Accuracy targets (double precision):
  * ``ln_gamma``        relative error <= 1e-13 on [0.5, 1e6]
  * ``beta``            relative error <= 1e-12
  * ``reg_inc_beta``    absolute error <= 1e-12 (REG_INC_BETA_ABS_ERR) for
                        a, b up to ~2000
  * ``reg_lower_gamma`` absolute error <= 1e-12 for a up to 500 and
                        <= 1e-11 up to a = 1e4 (the end of the default
                        limit-curve grid); the error peaks near x = a, where
                        the log prefactor cancels, and grows with a

All evaluation is pure: results depend only on the arguments and the
(immutable) EvalConfig, so every function is safe to call from multiple
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EvalConfig",
    "DEFAULT_CONFIG",
    "ConvergenceError",
    "ln_gamma",
    "ln_beta",
    "beta",
    "reg_inc_beta",
    "reg_lower_gamma",
]

# Documented absolute error of reg_inc_beta; the grid search's pruning
# margin is built on it, and tests check it against mpmath.
REG_INC_BETA_ABS_ERR = 1e-12

# Lentz guard against vanishing denominators (Numerical Recipes FPMIN).
_TINY = 1e-300

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

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
    a tuple of the arguments of the first non-converged evaluation point.
    """

    def __init__(self, message, iterations, args_at_failure=None):
        super().__init__(message)
        self.iterations = iterations
        self.args_at_failure = args_at_failure

    def __reduce__(self):
        # the default reduction replays only the message, so a worker's
        # failure would not unpickle in the parent process
        return type(self), (self.args[0], self.iterations, self.args_at_failure)


@dataclass(frozen=True)
class EvalConfig:
    """Tolerances and caps governing every numerical routine.

    cf_tolerance    relative termination tolerance for continued fractions
                    and series
    cf_max_iter     iteration cap for continued fractions and series
    quad_tolerance  absolute tolerance of the tanh-sinh quadrature oracle
    quad_max_level  refinement cap (mesh halvings) for the quadrature
    """

    cf_tolerance: float = 1e-15
    cf_max_iter: int = 2000
    quad_tolerance: float = 1e-10
    quad_max_level: int = 12

    def __post_init__(self):
        if not (0.0 < self.cf_tolerance < 1e-6):
            raise ValueError(f"cf_tolerance must be in (0, 1e-6), got {self.cf_tolerance}")
        if self.cf_max_iter < 100:
            raise ValueError(f"cf_max_iter must be >= 100, got {self.cf_max_iter}")
        if not (0.0 < self.quad_tolerance < 1e-6):
            raise ValueError(f"quad_tolerance must be in (0, 1e-6), got {self.quad_tolerance}")
        if self.quad_max_level < 5:
            raise ValueError(f"quad_max_level must be >= 5, got {self.quad_max_level}")


DEFAULT_CONFIG = EvalConfig()


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
    s = np.full_like(z, _LANCZOS_C[0])
    for k in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[k] / (z - 1.0 + k)
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
    return (
        _HALF_LOG_2PI
        - (_LANCZOS_G - 0.5)
        + (a - 0.5) * np.log1p(-b / tab)
        + (b - 0.5) * np.log1p(-a / tab)
        - 0.5 * np.log(tab)
        + np.log(_lanczos_sum(a))
        + np.log(_lanczos_sum(b))
        - np.log(_lanczos_sum(a + b))
    )


def ln_beta(a, b):
    """Natural log of the Beta function B(a, b), a > 0, b > 0.

    Evaluated in a combined form that stays accurate to a few ulp of the
    result even when a, b are large and the three-lgamma difference would
    cancel catastrophically. Arguments below 0.5 fall back to ln_gamma.
    """
    (aa, bb), shape, scalar = _prepare(a, b)
    if not (np.isfinite(aa).all() and np.isfinite(bb).all()) or (aa <= 0.0).any() or (bb <= 0.0).any():
        raise ValueError("ln_beta requires finite a > 0 and b > 0")
    return _finish(_ln_beta_any(aa, bb), shape, scalar)


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


def _beta_cf(x, a, b, config):
    """Continued fraction for the incomplete beta (modified Lentz).

    Vectorized with an active-set that shrinks as elements converge; each
    element's arithmetic is independent of the batch it is evaluated in,
    so results are bit-identical for any chunking of the inputs.
    """
    n = x.shape[0]
    result = np.empty(n)
    idx = np.arange(n)

    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones(n)
    d = 1.0 - qab * x / qap
    d = np.where(np.abs(d) < _TINY, _TINY, d)
    d = 1.0 / d
    h = d.copy()

    tol = config.cf_tolerance
    for m in range(1, config.cf_max_iter + 1):
        fm = float(m)
        m2 = 2.0 * fm
        aa_ = fm * (b - fm) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa_ * d
        d = np.where(np.abs(d) < _TINY, _TINY, d)
        d = 1.0 / d
        c = 1.0 + aa_ / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        h = h * (d * c)
        aa_ = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa_ * d
        d = np.where(np.abs(d) < _TINY, _TINY, d)
        d = 1.0 / d
        c = 1.0 + aa_ / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        delta = d * c
        h = h * delta

        done = np.abs(delta - 1.0) < tol
        if done.any():
            result[idx[done]] = h[done]
            if done.all():
                return result
            keep = ~done
            idx = idx[keep]
            x, a, b = x[keep], a[keep], b[keep]
            qab, qap, qam = qab[keep], qap[keep], qam[keep]
            c, d, h = c[keep], d[keep], h[keep]

    raise ConvergenceError(
        f"incomplete beta continued fraction: {idx.size} point(s) not converged "
        f"after {config.cf_max_iter} iterations; first offender "
        f"x={x[0]!r}, a={a[0]!r}, b={b[0]!r}",
        config.cf_max_iter,
        args_at_failure=(float(x[0]), float(a[0]), float(b[0])),
    )


def reg_inc_beta(x, a, b, config=DEFAULT_CONFIG):
    """Regularized incomplete beta function I_x(a, b) for 0 <= x <= 1.

    Modified-Lentz continued fraction; when x lies past (a+1)/(a+b+2) the
    symmetry I_x(a,b) = 1 - I_{1-x}(b,a) is applied so the fraction always
    converges. The power prefactor is formed in the log domain, which keeps
    tiny thresholds (q ~ 1e-3 with large b) from underflowing.

    Raises ConvergenceError (with the iteration count) instead of silently
    returning when the fraction fails to settle within config.cf_max_iter.
    """
    (xa, aa, bb), shape, scalar = _prepare(x, a, b)
    if not (np.isfinite(xa).all() and np.isfinite(aa).all() and np.isfinite(bb).all()):
        raise ValueError("reg_inc_beta requires finite arguments")
    if (xa < 0.0).any() or (xa > 1.0).any():
        raise ValueError("reg_inc_beta requires 0 <= x <= 1")
    if (aa <= 0.0).any() or (bb <= 0.0).any():
        raise ValueError("reg_inc_beta requires a > 0 and b > 0")

    out = np.empty_like(xa)
    at0 = xa == 0.0
    at1 = xa == 1.0
    out[at0] = 0.0
    out[at1] = 1.0

    interior = ~(at0 | at1)
    if interior.any():
        xi, ai, bi = xa[interior], aa[interior], bb[interior]
        # branch-independent log prefactor: a ln x + b ln(1-x) - ln B(a,b)
        ln_pre = ai * np.log(xi) + bi * np.log1p(-xi) - _ln_beta_any(ai, bi)
        use_sym = xi > (ai + 1.0) / (ai + bi + 2.0)
        xx = np.where(use_sym, 1.0 - xi, xi)
        fa = np.where(use_sym, bi, ai)
        fb = np.where(use_sym, ai, bi)
        front = np.exp(ln_pre) * _beta_cf(xx, fa, fb, config) / fa
        vals = np.where(use_sym, 1.0 - front, front)
        out[interior] = np.clip(vals, 0.0, 1.0)

    return _finish(out, shape, scalar)


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


def _gamma_series(a, x, config):
    """P(a, x) by the lower-gamma power series, for x < a + 1."""
    n = x.shape[0]
    result = np.empty(n)
    idx = np.arange(n)

    ap = a.copy()
    total = 1.0 / a
    delt = total.copy()
    ln_pre = a * np.log(x) - x - _ln_gamma_raw(a)

    tol = config.cf_tolerance
    for _ in range(config.cf_max_iter):
        ap += 1.0
        delt = delt * (x / ap)
        total = total + delt
        done = np.abs(delt) < np.abs(total) * tol
        if done.any():
            result[idx[done]] = total[done] * np.exp(ln_pre[done])
            if done.all():
                return result
            keep = ~done
            idx = idx[keep]
            a, x, ap = a[keep], x[keep], ap[keep]
            total, delt, ln_pre = total[keep], delt[keep], ln_pre[keep]

    raise ConvergenceError(
        f"lower incomplete gamma series: {idx.size} point(s) not converged after "
        f"{config.cf_max_iter} iterations; first offender a={a[0]!r}, x={x[0]!r}",
        config.cf_max_iter,
        args_at_failure=(float(a[0]), float(x[0])),
    )


def _gamma_cf(a, x, config):
    """Q(a, x) by the upper-gamma continued fraction (modified Lentz), x >= a + 1."""
    n = x.shape[0]
    result = np.empty(n)
    idx = np.arange(n)

    ln_pre = a * np.log(x) - x - _ln_gamma_raw(a)
    b0 = x + 1.0 - a
    c = np.full(n, 1.0 / _TINY)
    d = 1.0 / b0
    h = d.copy()

    tol = config.cf_tolerance
    for i in range(1, config.cf_max_iter + 1):
        fi = float(i)
        an = -fi * (fi - a)
        b0 = b0 + 2.0
        d = an * d + b0
        d = np.where(np.abs(d) < _TINY, _TINY, d)
        c = b0 + an / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        d = 1.0 / d
        delta = d * c
        h = h * delta

        done = np.abs(delta - 1.0) < tol
        if done.any():
            result[idx[done]] = h[done] * np.exp(ln_pre[done])
            if done.all():
                return result
            keep = ~done
            idx = idx[keep]
            a, x, b0 = a[keep], x[keep], b0[keep]
            c, d, h, ln_pre = c[keep], d[keep], h[keep], ln_pre[keep]

    raise ConvergenceError(
        f"upper incomplete gamma continued fraction: {idx.size} point(s) not "
        f"converged after {config.cf_max_iter} iterations; first offender "
        f"a={a[0]!r}, x={x[0]!r}",
        config.cf_max_iter,
        args_at_failure=(float(a[0]), float(x[0])),
    )


def reg_lower_gamma(a, x, config=DEFAULT_CONFIG):
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

    out = np.empty_like(aa)
    zero = xx == 0.0
    out[zero] = 0.0

    small = (~zero) & (xx < aa + 1.0)
    if small.any():
        out[small] = _gamma_series(aa[small], xx[small], config)
    large = (~zero) & ~small
    if large.any():
        out[large] = 1.0 - _gamma_cf(aa[large], xx[large], config)

    return _finish(np.clip(out, 0.0, 1.0), shape, scalar)
