"""Root-minus-pole counting on circular contours.

Two routes to N_roots - N_poles = (1/2*pi*i) * contour integral of f'/f:

* the direct route, evaluating f'/f from reference callables; and
* the approximated route, where 1/f is replaced by the exponential-sum
  approximation, the exponential expanded as a power series, and the
  resulting powers of Z written as Mellin convolutions of z(t) alone.

Stage-by-stage integrand access is exposed so each approximation step can be
inspected separately at any contour angle.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NonConvergenceError, PoleError
from .expsum import ExpSumTable, inv_approx
from .mellin import MellinIntegrand, moments, power_sums
from .quadrature import QuadratureConfig

__all__ = [
    "CircularContour",
    "FactoredFunction",
    "PipelineConfig",
    "CountResult",
    "count_direct",
    "count_pipeline",
    "integrand_direct",
    "integrand_stage1",
    "integrand_stage2",
    "kernel_mellin",
]

_TWO_PI_I = 2j * math.pi
# a reliable count's contour gap is under this
_GAP_TOL = 1e-3


@dataclass(frozen=True)
class CircularContour:
    """Circle s(phi) = center + radius * e**(i*phi), traversed once
    counterclockwise, discretized with ``nodes`` uniform angles."""

    center: complex
    radius: float
    nodes: int = 64

    def __post_init__(self):
        if not cmath.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center}")
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if not isinstance(self.nodes, numbers.Integral) or self.nodes < 1:
            raise ValueError(f"nodes must be a positive integer, got {self.nodes!r}")

    def point(self, phi):
        """s(phi) at an angle or at each angle of an array."""
        return self.center + self.radius * np.exp(1j * phi)

    def velocity(self, phi):
        """ds/dphi = i * radius * e**(i*phi), as :meth:`point`."""
        return 1j * self.radius * np.exp(1j * phi)


@dataclass(frozen=True)
class FactoredFunction:
    """f(s) = K(s) * Z(s) with Z the Mellin transform of ``zf.z``.

    ``K``, ``Kprime`` and, when supplied, ``f_reference`` and
    ``fprime_reference``, like ``zf.z``, must accept a numpy array and act
    elementwise; a scalar result (a constant) broadcasts. Every counting
    route calls each callable it uses once per contour, on the array of all
    its nodes, and the integrands once per array of angles.

    The references are independent oracles for f and f', used by the direct
    route and the stage integrands; the approximated route needs only
    ``zf``, ``K`` and ``Kprime``.
    """

    zf: MellinIntegrand
    K: Callable[[np.ndarray], np.ndarray]
    Kprime: Callable[[np.ndarray], np.ndarray]
    f_reference: Optional[Callable[[np.ndarray], np.ndarray]] = None
    fprime_reference: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class PipelineConfig:
    """Approximation orders and tolerances for the convolution route.

    ``series_order`` is the degree of the Taylor polynomial that replaces
    each exponential; any non-negative order works, since each order is one
    more power of the same f = K Z.
    """

    table: ExpSumTable
    series_order: int = 1
    quad: QuadratureConfig = field(default_factory=QuadratureConfig)

    def __post_init__(self):
        if not isinstance(self.series_order, numbers.Integral) or self.series_order < 0:
            raise ValueError(f"series_order must be a non-negative integer, got {self.series_order!r}")


@dataclass(frozen=True)
class CountResult:
    """Raw contour integral, its nearest integer, and the distance between
    them (the winding residual -- a quality measure for the count).

    A count on an even number N of nodes also carries its contour gap
    |T_N - T_(N/2)|, the distance from the trapezoid sum on every other node
    of the same values. The periodic trapezoid rule converges geometrically
    (Trefethen & Weideman, SIAM Rev. 56 (2014)), so the gap estimates the
    error of T_(N/2), and T_N, the value, is closer still. On an odd N the
    gap is inf, as no half-node sum bounds the value's error, and the count
    is never reliable; a result from a value alone has no gap (None)."""

    value: complex
    rounded: int
    residual: float
    contour_gap: Optional[float] = None

    @classmethod
    def from_value(cls, value: complex, contour_gap: Optional[float] = None) -> "CountResult":
        """Raises :class:`DomainError` when ``value`` is not finite."""
        if not cmath.isfinite(value):
            raise DomainError(f"the contour integral is not finite: {value}")
        rounded = int(round(value.real))
        return cls(value=value, rounded=rounded, residual=abs(value - rounded), contour_gap=contour_gap)

    @property
    def reliable(self) -> bool:
        """False when the integral sits suspiciously far from an integer
        (contour too close to a root/pole, or too few nodes), or when the
        contour gap, if any, is not under 1e-3."""
        return self.residual < 0.25 and (self.contour_gap is None or self.contour_gap < _GAP_TOL)


def _integrand(c: CircularContour, phi, source: Callable, combine: Callable) -> complex | np.ndarray:
    """(1/2*pi*i) * combine(f, f') * ds/dphi at s = s(phi), with (f, f') from
    one call ``source(phis, s)`` on the flat arrays of the angles ``phi`` and
    of their nodes. A scalar angle gives a complex, an array an array of its
    shape. A :class:`NonConvergenceError` of ``source``, whose best estimate
    is (f, f'), is raised again with the values from those as its own."""
    phis = np.asarray(phi, dtype=float)
    flat, failure = phis.reshape(-1), None
    try:
        f, fprime = source(flat, c.point(flat))
    except NonConvergenceError as exc:
        (f, fprime), failure = exc.best_estimate, exc
    # a NaN f or f' gives a NaN value without a warning, as in scalar arithmetic
    with np.errstate(invalid="ignore"):
        values = (combine(f, fprime) * c.velocity(flat) / _TWO_PI_I).reshape(phis.shape)
    if values.ndim == 0:
        values = complex(values)
    if failure is not None:
        estimate = failure.error_estimate
        raise NonConvergenceError(str(failure), best_estimate=values, error_estimate=estimate) from failure
    return values


def _from_references(ff: FactoredFunction, phis: np.ndarray, s: np.ndarray) -> tuple:
    """(f, f') at the nodes ``s`` from one call of each reference."""
    if ff.f_reference is None or ff.fprime_reference is None:
        raise ValueError("direct evaluation needs both f_reference and fprime_reference")
    f = ff.f_reference(s)
    zero = np.broadcast_to(f == 0, s.shape)
    if zero.any():
        raise PoleError(f"f vanishes on the contour at phi = {phis[zero][0]}")
    return f, ff.fprime_reference(s)


def _from_z(ff: FactoredFunction, c: CircularContour, quad: QuadratureConfig, phis: np.ndarray, s: np.ndarray) -> tuple:
    """f = K Z and f' = K' Z + K Z' at the nodes ``s``, with Z and Z' the
    power sums of the moments of the contour's disk and one call of K and of
    K'. A :class:`NonConvergenceError` carries (f, f') from the finest
    moments."""
    failure = None
    try:
        nu, error = moments(ff.zf, c.center, c.radius, quad)
    except NonConvergenceError as exc:
        (nu, error), failure = exc.best_estimate, exc
    z, zprime = power_sums(nu, np.exp(1j * phis), c.radius)
    # the moments' errors on the disk against the tolerance at the nodes
    if failure is None and any(
        e > max(quad.abs_tol, quad.rel_tol * np.abs(v).min(initial=math.inf)) for e, v in zip(error, (z, zprime))
    ):
        message = f"their tail and round-off ({error[0]:.3g} in Z, {error[1]:.3g} in Z') pass the tolerance at a node"
        failure = NonConvergenceError(f"{message}: a smaller disk converges faster", error_estimate=max(error))
    Ks = ff.K(s)
    f, fprime = Ks * z, ff.Kprime(s) * z + Ks * zprime
    if failure is not None:
        message, estimate = f"Mellin moments did not converge on the contour: {failure}", failure.error_estimate
        raise NonConvergenceError(message, best_estimate=(f, fprime), error_estimate=estimate) from failure
    return f, fprime


def _truncated(table: ExpSumTable, n: int) -> Callable:
    """Stage 2's combine step: f' times the exp-sum reciprocal of f, each
    exponential cut to its degree-``n`` Taylor polynomial."""
    if n is None:  # inv_approx's order None is stage 1's exact exponentials
        raise ValueError("series order must be a non-negative integer, got None")
    return lambda f, fprime: fprime * inv_approx(f, table, n)


def integrand_direct(ff: FactoredFunction, c: CircularContour, phi) -> complex | np.ndarray:
    """(1/2*pi*i) * f'(s)/f(s) * ds/dphi at s = s(phi), from the references;
    ``phi`` is an angle or an array of angles."""
    return _integrand(c, phi, partial(_from_references, ff), lambda f, fprime: fprime / f)


def integrand_stage1(ff: FactoredFunction, c: CircularContour, phi, table: ExpSumTable) -> complex | np.ndarray:
    """Direct integrand with 1/f replaced by the exponential-sum
    approximation of the reciprocal."""
    return _integrand(c, phi, partial(_from_references, ff), lambda f, fprime: fprime * inv_approx(f, table))


def integrand_stage2(
    ff: FactoredFunction, c: CircularContour, phi, table: ExpSumTable, n: int
) -> complex | np.ndarray:
    """As stage 1, with each exponential truncated to its degree-``n``
    Taylor polynomial."""
    return _integrand(c, phi, partial(_from_references, ff), _truncated(table, n))


def _kernel(ff: FactoredFunction, c: CircularContour, cfg: PipelineConfig) -> Callable:
    """:func:`kernel_mellin` on the contour ``c`` as a function of the angles."""
    source = partial(_from_z, ff, c, cfg.quad)
    return partial(_integrand, c, source=source, combine=_truncated(cfg.table, cfg.series_order))


def kernel_mellin(ff: FactoredFunction, c: CircularContour, phi, cfg: PipelineConfig) -> complex | np.ndarray:
    """Fully expanded counting-integrand at the contour angle ``phi``, or at
    each angle of an array.

    The :func:`integrand_stage2` of f = K Z and f' = K' Z + K Z', with Z and
    Z' from z(t) alone: the power sums of the moments of the contour's disk,
    so each Z**k and Z' Z**k is a product of them, and the sign factor
    csgn(f) folded in by :func:`inv_approx` at the series order. The
    references of ``ff`` are not used. An angle gets the same value alone as
    in any array: a scalar angle gives a complex, an array an array of its
    shape, and so does the best estimate of a :class:`NonConvergenceError`.
    """
    return _kernel(ff, c, cfg)(phi)


def _count(c: CircularContour, integrand: Callable[[np.ndarray], np.ndarray]) -> CountResult:
    """Trapezoid sum and contour gap of ``integrand``, called once on all node
    angles of ``c``; a :class:`NonConvergenceError` is raised with its best estimate summed."""
    step = 2.0 * math.pi / c.nodes
    try:
        values = integrand(step * np.arange(c.nodes))
    except NonConvergenceError as exc:
        best = complex(exc.best_estimate.sum()) * step
        raise NonConvergenceError(str(exc), best_estimate=best, error_estimate=exc.error_estimate) from exc
    value = complex(values.sum()) * step
    gap = abs(value - complex(values[::2].sum()) * (2.0 * step)) if c.nodes % 2 == 0 else math.inf
    return CountResult.from_value(value, gap)


def count_direct(ff: FactoredFunction, c: CircularContour) -> CountResult:
    """Roots minus poles inside the contour, from the reference f'/f in one
    array computation (:func:`integrand_direct`) over all nodes; exact up to
    trapezoid error, which decays spectrally for contours clear of all roots
    and poles."""
    return _count(c, partial(integrand_direct, ff, c))


def count_pipeline(ff: FactoredFunction, c: CircularContour, cfg: PipelineConfig) -> CountResult:
    """Roots minus poles through the approximated convolution kernel, whose
    value carries the exponential-sum and series-truncation error.

    The kernel values (:func:`kernel_mellin`) at all nodes, from one moment
    density of the contour's disk, summed by the trapezoid rule; a switch of
    csgn(f) on the contour is a jump, which the contour gap shows. Only
    ``ff.zf``, ``ff.K`` and ``ff.Kprime`` are used. A contour that leaves the
    convergence strip of ``ff.zf`` raises :class:`DomainError` before z is
    evaluated."""
    return _count(c, _kernel(ff, c, cfg))
