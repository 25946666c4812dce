"""Mellin transforms evaluated directly from the un-transformed function.

Given z(t) on (0, inf), this module computes -- via the Mellin convolution
theorem -- the powers Z(s)**k of Z(s) = int z(t) t**(s-1) dt and the
products Z'(s) * Z(s)**k as genuinely iterated integrals of z alone, never
of Z. There are two entry points, which mirror the kernel's Z**(k+1) and
Z' Z**k terms: :func:`power_transform` (k >= 1, whose k = 1 is Z) and
:func:`deriv_times_power` (k >= 0, whose k = 0 is Z', the ln(t)-weighted
transform). Each is the transform of a k-fold Mellin convolution built by
nested adaptive quadratures, one s at a time; contours use
:mod:`melroot.logspace` instead.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, NonConvergenceError
from .quadrature import QuadratureConfig, QuadratureResult, integrate_semi_infinite

__all__ = [
    "MellinIntegrand",
    "power_transform",
    "deriv_times_power",
]

# Outer abscissae integrated together by one batched inner quadrature. The
# first two halvings of the outer loop share one call of its integrand, so
# they bring their new abscissae in one array and fill blocks more often.
# One sampler call of the inner loop holds its rows still refining times the
# new abscissae of its pass, so this block size is what bounds a call of
# the nested levels: at the default tolerances up to 128 x 512 float64 values
# (512 KB); rows that have converged are not sampled again, so a large block
# costs little more than its slowest row.
_ROWS = 128


@dataclass(frozen=True)
class MellinIntegrand:
    """A function z(t) on (0, inf) together with its convergence strip for
    Re(s). ``z`` must accept numpy arrays and return an array of the same
    shape; the nested levels of :func:`power_transform` and
    :func:`deriv_times_power` call it on 2-D arrays, one row per outer
    abscissa still refining. A real ``z`` keeps those levels in float64."""

    z: Callable
    convergence_strip: tuple[float, float] = field(default=(0.0, math.inf))

    def __post_init__(self):
        lo, hi = self.convergence_strip
        if not lo < hi:
            raise ValueError(f"empty convergence strip ({lo}, {hi})")


def _require_in_strip(zf: MellinIntegrand, s: complex) -> complex:
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"s = {s} is not finite")
    lo, hi = zf.convergence_strip
    if not (lo < s.real < hi):
        raise DomainError(
            f"Re(s) = {s.real} outside the convergence strip ({lo}, {hi})"
        )
    return s


def _integrate(
    g: Callable, quad: QuadratureConfig, dimension: int, rows: np.ndarray | None = None
) -> QuadratureResult:
    """:func:`integrate_semi_infinite` with a failure tagged by its nesting
    level (1 = innermost) unless a deeper level already tagged it."""
    try:
        return integrate_semi_infinite(g, quad, rows)
    except NonConvergenceError as exc:
        if exc.dimension is None:
            exc.dimension = dimension
        raise


def _convolution_transform(
    zf: MellinIntegrand, derivative: bool, k: int, s: complex, quad: QuadratureConfig | None
) -> QuadratureResult:
    """Mellin transform at s of c_k = first * z * ... * z (k factors), where
    first is z, or ln(t) z for ``derivative``, and * is the Mellin convolution
    (f * z)(t) = int f(u) z(t/u) du/u. By the convolution theorem this is
    Z(s)**k, or Z'(s) Z(s)**(k-1).

    c_{j+1} is the integral at nesting level j, with the tolerances tightened
    by 10**(k-j); it depends on neither s nor the outer abscissa, so each
    level is memoized per abscissa. The abscissae a level has not seen yet
    are sorted and integrated in blocks of ``_ROWS``, each block as one
    batched quadrature whose rows (one per abscissa t) share the exp-sinh
    grid in u; a row stops being sampled once it has converged. The levels
    are real for a real z; only the outer t**(s-1) weight is complex.
    """
    s = _require_in_strip(zf, s)
    quad = quad or QuadratureConfig()
    z = zf.z

    def level(c: Callable, j: int) -> Callable:
        q = quad.tightened(10.0 ** (k - j))
        memo: dict[float, float | complex] = {}

        def integrand(u: np.ndarray, ts: np.ndarray) -> np.ndarray:
            return (c(u) / u) * z(np.divide.outer(ts, u))

        def convolved(ts: np.ndarray) -> np.ndarray:
            # sorted() rather than np.unique: numpy's sort path adds about
            # 1 MB of resident memory the first time it runs
            new = sorted({t for t in ts.tolist() if t not in memo})
            for i in range(0, len(new), _ROWS):
                block = new[i : i + _ROWS]
                values = _integrate(integrand, q, j, np.array(block)).value
                memo.update(zip(block, values.tolist()))
            return np.array([memo[t] for t in ts.tolist()])

        return convolved

    c = (lambda t: np.log(t) * z(t)) if derivative else z
    for j in range(1, k):
        c = level(c, j)
    # t**(s-1) in log space: the plain product overflows where t**(Re(s)-1)
    # alone leaves double range although the weighted value does not.
    return _integrate(
        lambda t: np.exp((s - 1.0) * np.log(t) + np.log(np.asarray(c(t), dtype=np.complex128))),
        quad,
        k,
    )


def power_transform(zf: MellinIntegrand, k: int, s: complex, quad: QuadratureConfig | None = None) -> QuadratureResult:
    """Z(s)**k computed from z(t) through the convolution representation, a
    k-fold iterated integral, for any integer k >= 1 (each order adds a
    dimension)."""
    if not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"power_transform order must be an integer >= 1, got {k!r}")
    return _convolution_transform(zf, False, k, s, quad)


def deriv_times_power(zf: MellinIntegrand, k: int, s: complex, quad: QuadratureConfig | None = None) -> QuadratureResult:
    """Z'(s) * Z(s)**k from z(t), for any integer k >= 0: k = 0 is
    Z'(s) = int_0^inf ln(t) z(t) t**(s-1) dt, and k >= 1 the (k + 1)-fold
    convolution with an ln(u1) weight."""
    if not isinstance(k, numbers.Integral) or k < 0:
        raise ValueError(f"deriv_times_power order must be an integer >= 0, got {k!r}")
    return _convolution_transform(zf, True, k + 1, s, quad)
