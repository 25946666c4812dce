"""Mellin transforms evaluated directly from the un-transformed function.

Given z(t) on (0, inf), this module computes Z(s) = int z(t) t**(s-1) dt,
its derivative Z'(s) (ln(t) weight), and -- via the Mellin convolution
theorem -- the powers Z(s)**k and the product Z'(s) * Z(s)**k as genuinely
iterated integrals of z alone, never of Z. All four are the transform of a
k-fold Mellin convolution built by nested adaptive quadratures, one s at a
time; contours use :mod:`melroot.logspace` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, NonConvergenceError, UnsupportedOrderError
from .quadrature import QuadratureConfig, QuadratureResult, integrate_semi_infinite

__all__ = [
    "MellinIntegrand",
    "transform",
    "transform_derivative",
    "power_transform",
    "deriv_times_power",
]


@dataclass(frozen=True)
class MellinIntegrand:
    """A function z(t) on (0, inf) together with its convergence strip for
    Re(s). ``z`` must accept numpy arrays and return an array of the same
    shape."""

    z: Callable
    convergence_strip: tuple[float, float] = field(default=(0.0, math.inf))

    def __post_init__(self):
        lo, hi = self.convergence_strip
        if not lo < hi:
            raise ValueError(f"empty convergence strip ({lo}, {hi})")


def _require_in_strip(zf: MellinIntegrand, s: complex) -> complex:
    s = complex(s)
    lo, hi = zf.convergence_strip
    if not (lo < s.real < hi):
        raise DomainError(
            f"Re(s) = {s.real} outside the convergence strip ({lo}, {hi})"
        )
    return s


def _integrate(g: Callable, quad: QuadratureConfig, dimension: int) -> QuadratureResult:
    """:func:`integrate_semi_infinite` with a failure tagged by its nesting
    level (1 = innermost) unless a deeper level already tagged it."""
    try:
        return integrate_semi_infinite(g, quad)
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
    level is memoized per abscissa.
    """
    s = _require_in_strip(zf, s)
    quad = quad or QuadratureConfig()
    z = zf.z

    def level(c: Callable, j: int) -> Callable:
        q = quad.tightened(10.0 ** (k - j))
        memo: dict[float, complex] = {}

        def convolved(ts: np.ndarray) -> np.ndarray:
            out = np.empty(ts.shape, dtype=np.complex128)
            for i, t in enumerate(ts):
                if t not in memo:
                    memo[t] = _integrate(lambda u: c(u) * z(t / u) / u, q, j).value
                out[i] = memo[t]
            return out

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


def transform(zf: MellinIntegrand, s: complex, quad: QuadratureConfig | None = None) -> QuadratureResult:
    """Z(s) = int_0^inf z(t) t**(s-1) dt."""
    return _convolution_transform(zf, False, 1, s, quad)


def transform_derivative(zf: MellinIntegrand, s: complex, quad: QuadratureConfig | None = None) -> QuadratureResult:
    """Z'(s) = int_0^inf ln(t) z(t) t**(s-1) dt."""
    return _convolution_transform(zf, True, 1, s, quad)


def power_transform(zf: MellinIntegrand, k: int, s: complex, quad: QuadratureConfig | None = None) -> QuadratureResult:
    """Z(s)**k computed from z(t) through the convolution representation, a
    k-fold iterated integral. Orders above 3 are rejected (each adds a
    dimension)."""
    if k < 1 or k > 3:
        raise UnsupportedOrderError(f"power_transform supports k in {{1, 2, 3}}, got {k}")
    return _convolution_transform(zf, False, k, s, quad)


def deriv_times_power(zf: MellinIntegrand, k: int, s: complex, quad: QuadratureConfig | None = None) -> QuadratureResult:
    """Z'(s) * Z(s)**k from z(t); k = 0 is :func:`transform_derivative`,
    k = 1 the 2-fold convolution with an ln(u1) weight. k >= 2 is not
    supported."""
    if k < 0 or k > 1:
        raise UnsupportedOrderError(f"deriv_times_power supports k in {{0, 1}}, got {k}")
    return _convolution_transform(zf, True, k + 1, s, quad)
