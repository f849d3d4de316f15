"""F-distribution semantics: mean, CDF, concentration threshold and the
probe probability P(X <= kappa * E[X]).

The integer-facing type is :class:`FParams` (degrees of freedom d1, d2);
all the beta-function math runs on :class:`ShapePair` (a, b) = (d1/2, d2/2).
The shape-pair functions accept arbitrary reals with a >= 1/2, b > 1, which
the lemma tests use for dense b-grids.

The probe has one kernel, ``_probe``: I_q(a, b) with q formed by
``_threshold`` as ka / (ka + (b - 1)). The grid scan and
``prob_leq_kappa_mean`` go through it. The verification checks pass
``(_threshold(...), a, b)`` to one ``reg_inc_beta`` call shared by a whole
suite; that is ``_probe``'s own call, and ``reg_inc_beta`` computes each
element on its own, whatever the call holds. So every probe value in the
package rounds q the same way and they agree bit for bit on a cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .special import SHAPE_MAX, reg_inc_beta

__all__ = ["FParams", "ShapePair", "mean", "cdf", "threshold", "prob_leq_kappa_mean"]


def _check_df_max(name, value):
    """A ValueError naming the field when an integer d1, d2 or cap exceeds
    2 * SHAPE_MAX, forming a shape where no accuracy is held. The Python int
    compares with the float exactly, however large (10**400 included)."""
    if int(value) > 2 * SHAPE_MAX:
        raise ValueError(f"{name} must be at most {2 * SHAPE_MAX:g}: accuracy is not held past shape {SHAPE_MAX:g}")


@dataclass(frozen=True)
class FParams:
    """Degrees of freedom of an F random variable.

    The mean d2/(d2-2) exists only for d2 > 2, so d2 >= 3 is required here,
    and d1, d2 <= 2 * special.SHAPE_MAX, past which no accuracy is held.
    """

    d1: int
    d2: int

    def __post_init__(self):
        if not (isinstance(self.d1, (int, np.integer)) and isinstance(self.d2, (int, np.integer))):
            raise ValueError("degrees of freedom must be integers")
        if self.d1 < 1:
            raise ValueError(f"d1 must be >= 1, got {self.d1}")
        if self.d2 < 3:
            raise ValueError(f"d2 must be >= 3 (the mean requires d2 > 2), got {self.d2}")
        _check_df_max("d1", self.d1)
        _check_df_max("d2", self.d2)

    def shape(self) -> "ShapePair":
        return ShapePair(self.d1 / 2.0, self.d2 / 2.0)


@dataclass(frozen=True)
class ShapePair:
    """Continuous shape parameters (a, b) = (d1/2, d2/2), a >= 1/2, b > 1."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("shape parameters must be finite")
        if self.a < 0.5:
            raise ValueError(f"a must be >= 0.5, got {self.a}")
        if self.b <= 1.0:
            raise ValueError(f"b must be > 1, got {self.b}")


def _check_kappa(kappa, shapes=()) -> float:
    """kappa as a float, checked finite and positive with kappa * a finite for
    every a in shapes (scalar or array), the probe's domain; each entry point
    that forms kappa * a passes its shapes first. Overflow names the first a."""
    k = float(kappa)
    if not np.isfinite(k) or k <= 0.0:
        raise ValueError(f"kappa must be a finite positive real, got {kappa}")
    a = np.asarray(shapes, dtype=np.float64).ravel()
    with np.errstate(over="ignore"):
        bad = a[~np.isfinite(k * a)]
    if bad.size:
        raise ValueError(f"the probe requires kappa * a finite, got kappa={k!r} and a={float(bad[0])!r}")
    return k


def mean(p: FParams) -> float:
    """E[X] = d2 / (d2 - 2); always > 1."""
    return p.d2 / (p.d2 - 2.0)


def cdf(x, p: FParams):
    """P(X <= x) = I_{d1 x / (d1 x + d2)}(d1/2, d2/2) for x >= 0."""
    xa = np.asarray(x, dtype=np.float64)
    if (xa < 0.0).any():
        raise ValueError("cdf requires x >= 0")
    t = p.d1 * xa / (p.d1 * xa + p.d2)
    return reg_inc_beta(t, p.d1 / 2.0, p.d2 / 2.0)


def _threshold(kappa, a, b):
    """q = ka/(ka+b-1), the incomplete-beta argument of the probe at shapes (a, b).

    b - 1 is exact for half-integer b, so only ka + (b - 1) and the quotient
    round. Scalars or broadcasting arrays; kappa is not validated.
    """
    ka = kappa * a
    return ka / (ka + (b - 1.0))


def _probe(kappa, a, b):
    """I_q(a, b) with q = _threshold(kappa, a, b): the probe at shapes (a, b)."""
    return reg_inc_beta(_threshold(kappa, a, b), a, b)


def threshold(s: ShapePair, kappa) -> float:
    """q(a, b, kappa) = kappa*a / (kappa*a + b - 1), strictly increasing in kappa.

    This is the incomplete-beta argument matching the point kappa * E[X]
    under the F CDF.
    """
    return _threshold(_check_kappa(kappa, s.a), s.a, s.b)


def prob_leq_kappa_mean(p: FParams, kappa) -> float:
    """P(X <= kappa * E[X]) = I_{q(a,b,kappa)}(a, b).

    Formed through the threshold identity q = kappa*a/(kappa*a + b - 1)
    rather than through the CDF argument, which avoids cancellation for
    large d2; agreement with the cdf path is covered by tests. The value is
    the grid scan's for the same cell, bit for bit.
    """
    s = p.shape()
    return _probe(_check_kappa(kappa, s.a), s.a, s.b)
