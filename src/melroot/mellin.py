"""Mellin transforms evaluated directly from the un-transformed function.

Given z(t) on (0, inf), this module computes Z(s) = int z(t) t**(s-1) dt,
its derivative Z'(s) (ln(t) weight), and -- via the Mellin convolution
theorem -- the powers Z(s)**k and the product Z'(s) * Z(s)**k as genuinely
iterated integrals of z alone, never of Z. These nest adaptive quadratures,
one s at a time; contours use :mod:`melroot.logspace` instead.
"""

from __future__ import annotations

import cmath
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
    Re(s). ``z`` must accept numpy arrays for contour counts
    (:mod:`melroot.logspace`); the functions here also take a scalar-only
    ``z``."""

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


def transform(zf: MellinIntegrand, s: complex, quad: QuadratureConfig | None = None) -> QuadratureResult:
    """Z(s) = int_0^inf z(t) t**(s-1) dt."""
    s = _require_in_strip(zf, s)
    z = zf.z
    return integrate_semi_infinite(lambda t: z(t) * t ** (s - 1.0), quad)


def transform_derivative(zf: MellinIntegrand, s: complex, quad: QuadratureConfig | None = None) -> QuadratureResult:
    """Z'(s) = int_0^inf ln(t) z(t) t**(s-1) dt."""
    s = _require_in_strip(zf, s)
    z = zf.z
    return integrate_semi_infinite(lambda t: np.log(t) * z(t) * t ** (s - 1.0), quad)


def _annotate(exc: NonConvergenceError, axis: int) -> NonConvergenceError:
    if exc.dimension is None:
        exc.dimension = axis
    return exc


def _weighted(value: complex, t: float, s: complex) -> complex:
    """``value * t**(s-1)`` evaluated in log space.

    The naive product overflows when t**(Re(s)-1) alone exceeds double range
    even though the combined magnitude is representable (tiny ``value`` at a
    deep-tail abscissa). Results beyond double range are returned as inf for
    the quadrature tail guard to discard.
    """
    if value == 0:
        return 0j
    w = (s - 1.0) * math.log(t) + cmath.log(complex(value))
    if w.real > 709.0:
        return complex(math.inf)
    if w.real < -745.0:
        return 0j
    return cmath.exp(w)


def power_transform(zf: MellinIntegrand, k: int, s: complex, quad: QuadratureConfig | None = None) -> QuadratureResult:
    """Z(s)**k computed from z(t) through the convolution representation.

    k = 1 delegates to :func:`transform`; k = 2 and k = 3 evaluate the 2- and
    3-fold iterated integrals with the inner tolerances tightened one order
    per level. Orders above 3 are rejected (each adds a dimension).
    """
    if k < 1 or k > 3:
        raise UnsupportedOrderError(f"power_transform supports k in {{1, 2, 3}}, got {k}")
    quad = quad or QuadratureConfig()
    if k == 1:
        return transform(zf, s, quad)
    s = _require_in_strip(zf, s)
    z = zf.z

    if k == 2:
        inner_q = quad.tightened()

        def outer2(t: float) -> complex:
            try:
                inner = integrate_semi_infinite(lambda u1: z(u1) * z(t / u1) / u1, inner_q)
            except NonConvergenceError as exc:
                raise _annotate(exc, 1)
            return _weighted(inner.value, t, s)

        try:
            return integrate_semi_infinite(outer2, quad)
        except NonConvergenceError as exc:
            raise _annotate(exc, 2)

    inner_q = quad.tightened(100.0)
    mid_q = quad.tightened(10.0)
    # The innermost convolution depends on u2 only; the DE engine revisits
    # the same u2 abscissae for every outer t, so memoizing is a large win
    # without changing the iterated integral being computed.
    conv_cache: dict[float, complex] = {}

    def conv(u2: float) -> complex:
        got = conv_cache.get(u2)
        if got is None:
            try:
                got = integrate_semi_infinite(lambda u1: z(u1) * z(u2 / u1) / u1, inner_q).value
            except NonConvergenceError as exc:
                raise _annotate(exc, 1)
            conv_cache[u2] = got
        return got

    def outer3(t: float) -> complex:
        def mid(u2: float) -> complex:
            return conv(u2) * complex(z(t / u2)) / u2

        try:
            middle = integrate_semi_infinite(mid, mid_q)
        except NonConvergenceError as exc:
            raise _annotate(exc, 2)
        return _weighted(middle.value, t, s)

    try:
        return integrate_semi_infinite(outer3, quad)
    except NonConvergenceError as exc:
        raise _annotate(exc, 3)


def deriv_times_power(zf: MellinIntegrand, k: int, s: complex, quad: QuadratureConfig | None = None) -> QuadratureResult:
    """Z'(s) * Z(s)**k from z(t); k = 0 is :func:`transform_derivative`,
    k = 1 the 2-fold convolution with an ln(u1) weight. k >= 2 is not
    supported."""
    if k < 0 or k > 1:
        raise UnsupportedOrderError(f"deriv_times_power supports k in {{0, 1}}, got {k}")
    quad = quad or QuadratureConfig()
    if k == 0:
        return transform_derivative(zf, s, quad)
    s = _require_in_strip(zf, s)
    z = zf.z
    inner_q = quad.tightened()

    def outer(t: float) -> complex:
        try:
            inner = integrate_semi_infinite(
                lambda u1: np.log(u1) * z(u1) * z(t / u1) / u1, inner_q
            )
        except NonConvergenceError as exc:
            raise _annotate(exc, 1)
        return _weighted(inner.value, t, s)

    try:
        return integrate_semi_infinite(outer, quad)
    except NonConvergenceError as exc:
        raise _annotate(exc, 2)
