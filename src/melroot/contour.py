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
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NonConvergenceError, PoleError
from .expsum import ExpSumTable, inv_approx, inv_approx_truncated, truncated_series
from .mellin import MellinIntegrand
from .numerics import csgn
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
    them (the winding residual -- a quality measure for the count)."""

    value: complex
    rounded: int
    residual: float

    @classmethod
    def from_value(cls, value: complex) -> "CountResult":
        """Raises :class:`DomainError` when ``value`` is not finite."""
        if not cmath.isfinite(value):
            raise DomainError(f"the contour integral is not finite: {value}")
        rounded = int(round(value.real))
        return cls(value=value, rounded=rounded, residual=abs(value - rounded))

    @property
    def reliable(self) -> bool:
        """False when the integral sits suspiciously far from an integer
        (contour too close to a root/pole, or too few nodes)."""
        return self.residual < 0.25


def _reference_integrand(ff: FactoredFunction, c: CircularContour, phi, combine: Callable) -> complex | np.ndarray:
    """(1/2*pi*i) * combine(f, f') * ds/dphi at s = s(phi), with f and f' from
    one call of each reference on the nodes of the angle ``phi`` or of the
    array of angles ``phi``. A scalar angle gives a complex, an array an
    array of its shape."""
    if ff.f_reference is None or ff.fprime_reference is None:
        raise ValueError("direct evaluation needs both f_reference and fprime_reference")
    phis = np.atleast_1d(np.asarray(phi, dtype=float))
    s = c.point(phis)
    f = ff.f_reference(s)
    zero = np.broadcast_to(f == 0, s.shape)
    if zero.any():
        raise PoleError(f"f vanishes on the contour at phi = {phis[zero][0]}")
    fprime = ff.fprime_reference(s)
    # a NaN f or f' gives a NaN value without a warning, as in scalar arithmetic
    with np.errstate(invalid="ignore"):
        values = combine(f, fprime) * c.velocity(phis) / _TWO_PI_I
    return values if np.ndim(phi) else complex(values[0])


def integrand_direct(ff: FactoredFunction, c: CircularContour, phi) -> complex | np.ndarray:
    """(1/2*pi*i) * f'(s)/f(s) * ds/dphi at s = s(phi), from the references;
    ``phi`` is an angle or an array of angles."""
    return _reference_integrand(ff, c, phi, lambda f, fprime: fprime / f)


def integrand_stage1(ff: FactoredFunction, c: CircularContour, phi, table: ExpSumTable) -> complex | np.ndarray:
    """Direct integrand with 1/f replaced by the exponential-sum
    approximation of the reciprocal."""
    return _reference_integrand(ff, c, phi, lambda f, fprime: fprime * inv_approx(f, table))


def integrand_stage2(
    ff: FactoredFunction, c: CircularContour, phi, table: ExpSumTable, n: int
) -> complex | np.ndarray:
    """As stage 1, with each exponential truncated to its degree-``n``
    Taylor polynomial."""
    return _reference_integrand(ff, c, phi, lambda f, fprime: fprime * inv_approx_truncated(f, table, n))


def _kernel_values(ff: FactoredFunction, c: CircularContour, phi, cfg: PipelineConfig) -> complex | np.ndarray:
    """The expanded counting integrand at the angle or angles ``phi``, a
    complex or an array of their shape, computed on one flat array of nodes:
    the :func:`integrand_stage2` of f = K Z and f' = K' Z + K Z', with Z and
    Z' the power sums of the moments of the contour's disk, so each Z**k and
    Z' Z**k is a product of them, and the sign factor is csgn(f). K and K'
    are called once each, on all nodes. A :class:`NonConvergenceError`
    carries the values from the finest moments.
    """
    # Imported here: only this route needs it, so `import melroot` does not
    # pay for loading it.
    from .logspace import moments, power_sums

    u = np.exp(1j * np.asarray(phi, dtype=float).reshape(-1))
    nodes, failure = c.center + c.radius * u, None
    try:
        nu, error = moments(ff.zf, c.center, c.radius, cfg.quad)
    except NonConvergenceError as exc:
        (nu, error), failure = exc.best_estimate, exc
    z, zprime = power_sums(nu, u, c.radius)
    # the moments' errors on the disk against the tolerance at the nodes
    tol = cfg.quad
    if failure is None and max(error) > tol.abs_tol and any(
        e > max(tol.abs_tol, tol.rel_tol * np.abs(v).min(initial=math.inf)) for e, v in zip(error, (z, zprime))
    ):
        message = f"their tail and round-off ({error[0]:.3g} in Z, {error[1]:.3g} in Z') pass the tolerance at a node"
        failure = NonConvergenceError(f"{message}: a smaller disk converges faster", error_estimate=max(error))
    Ks = ff.K(nodes)
    f = Ks * z
    fprime = ff.Kprime(nodes) * z + Ks * zprime
    sgn = csgn(f)
    series = sgn * truncated_series(sgn * f, cfg.table, cfg.series_order)
    # (1 / 2 pi i) ds/dphi = radius u / 2 pi
    values = (fprime * series * (c.radius / (2.0 * math.pi) * u)).reshape(np.shape(phi))
    if values.ndim == 0:
        values = complex(values)
    if failure is not None:
        message = f"Mellin moments did not converge on the contour: {failure}"
        raise NonConvergenceError(message, best_estimate=values, error_estimate=failure.error_estimate) from failure
    return values


def kernel_mellin(ff: FactoredFunction, c: CircularContour, phi, cfg: PipelineConfig) -> complex | np.ndarray:
    """Fully expanded counting-integrand at the contour angle ``phi``, or at
    each angle of an array.

    The stage-2 integrand with f and f' from K, K' and the Mellin transforms
    Z and Z' of z(t) alone, the sign factor included; the references of
    ``ff`` are not used. An angle gets the same value alone as in any array:
    a scalar angle gives a complex, an array an array of its shape, and so
    does the best estimate of a :class:`NonConvergenceError`.
    """
    return _kernel_values(ff, c, phi, cfg)


def count_direct(ff: FactoredFunction, c: CircularContour) -> CountResult:
    """Roots minus poles inside the contour, from the reference f'/f.

    Exact up to trapezoid error, which decays spectrally with the node
    count for contours staying clear of all roots and poles. The integrand
    is one array computation (:func:`integrand_direct`) over all nodes.
    """
    step = 2.0 * math.pi / c.nodes
    return CountResult.from_value(complex(integrand_direct(ff, c, step * np.arange(c.nodes)).sum()) * step)


def count_pipeline(ff: FactoredFunction, c: CircularContour, cfg: PipelineConfig) -> CountResult:
    """Roots minus poles through the approximated convolution kernel.

    The result carries the exponential-sum and series-truncation error; the
    integer rounding is only meaningful when the residual is small.

    The kernel values (:func:`kernel_mellin`) at all nodes, from one moment
    density of the contour's disk, summed by the trapezoid rule. Only
    ``ff.zf``, ``ff.K`` and ``ff.Kprime`` are used. A contour that leaves the
    convergence strip of ``ff.zf`` raises :class:`DomainError` before z is
    evaluated.
    """
    step = 2.0 * math.pi / c.nodes
    try:
        values = _kernel_values(ff, c, step * np.arange(c.nodes), cfg)
    except NonConvergenceError as exc:
        best = complex(exc.best_estimate.sum()) * step
        raise NonConvergenceError(str(exc), best_estimate=best, error_estimate=exc.error_estimate) from exc
    return CountResult.from_value(complex(values.sum()) * step)
