"""Numerical integration engines.

Two entry points:

* :func:`integrate_semi_infinite` -- complex-valued integrals over (0, inf),
  evaluated with a double-exponential (exp-sinh) variable transformation.
  Handles algebraic endpoint behavior t**(sigma-1) at 0 and exponentially
  decaying tails in one scheme. Integrands are vectorized over numpy arrays.
* :func:`integrate_periodic` -- trapezoidal rule over [0, 2*pi) for smooth
  periodic integrands (spectrally convergent).

All engines are pure and re-entrant; summation order is fixed so repeated
runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import NonConvergenceError

__all__ = [
    "QuadratureConfig",
    "QuadratureResult",
    "integrate_semi_infinite",
    "integrate_periodic",
]

_LAMBDA = math.pi / 2.0
# |u| cap for the exp-sinh grid: exp(_LAMBDA*sinh(6.5)) is already at the edge
# of double range; contributions beyond are below any representable tolerance.
_U_CAP = 6.5
_H0 = 0.5
_MIN_LEVELS = 2


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budget for the adaptive engines."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_evals: int = 200_000
    truncation_decay: float = 1e-16

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if not (0.0 < self.abs_tol < 1.0):
            raise ValueError(f"abs_tol must lie in (0, 1), got {self.abs_tol}")
        if self.max_evals < 100:
            raise ValueError(f"max_evals must be >= 100, got {self.max_evals}")
        if self.truncation_decay <= 0.0:
            raise ValueError("truncation_decay must be positive")

    def tightened(self, factor: float = 10.0) -> "QuadratureConfig":
        """Copy with tolerances divided by ``factor`` (for nested integrals)."""
        return replace(
            self,
            rel_tol=max(self.rel_tol / factor, 1e-15),
            abs_tol=max(self.abs_tol / factor, 1e-16),
        )


@dataclass(frozen=True)
class QuadratureResult:
    """Value plus an a-posteriori error estimate and the evaluation count."""

    value: complex
    error: float
    evals: int


def _call(g: Callable, ts: np.ndarray) -> np.ndarray:
    """Evaluate ``g`` on the array ``ts``; it must return an array of the
    same shape."""
    out = g(ts)
    if np.shape(out) != ts.shape:
        raise ValueError(
            f"integrand returned shape {np.shape(out)} for abscissae of shape "
            f"{ts.shape}; it must be vectorized over numpy arrays"
        )
    return np.asarray(out, dtype=np.complex128)


def integrate_semi_infinite(g: Callable, quad: QuadratureConfig | None = None) -> QuadratureResult:
    """Integrate ``g`` over (0, inf) with the exp-sinh rule, halving the
    trapezoid step until two levels agree.

    ``g`` must map a numpy array of abscissae to an array of the same shape;
    anything else raises (``ValueError`` for a wrong shape). Any algebraic
    singularity at 0 must be integrable (no worse than t**(sigma-1) with
    sigma > 0) and the tail must decay fast enough for the integral to
    converge absolutely.

    Raises :class:`NonConvergenceError` (carrying the best estimate) if the
    tolerance is not met within ``quad.max_evals`` evaluations.
    """
    quad = quad or QuadratureConfig()

    def sample(u: np.ndarray) -> np.ndarray:
        # transformed integrand: Jacobian included, mesh width excluded
        t = np.exp(_LAMBDA * np.sinh(u))
        w = _LAMBDA * np.cosh(u) * t
        with np.errstate(all="ignore"):
            vals = _call(g, t) * w
        bad = ~np.isfinite(vals)
        if bad.any():
            # Overflow in the far tails, where the genuine contribution is
            # below the truncation threshold by construction of _U_CAP.
            vals = np.where(bad, 0.0, vals)
        return vals

    h = _H0
    n0 = int(_U_CAP / h)
    u = h * np.arange(-n0, n0 + 1)
    vals = sample(u)
    evals = len(u)

    mags = np.abs(vals)
    peak = float(mags.max())
    if peak == 0.0:
        return QuadratureResult(0j, 0.0, evals)

    # Trim the support once from the coarse pass; refinements stay inside it.
    keep = np.nonzero(mags > quad.truncation_decay * peak)[0]
    i_lo = max(int(keep[0]) - 1, 0)
    i_hi = min(int(keep[-1]) + 1, len(u) - 1)
    lo, hi = float(u[i_lo]), float(u[i_hi])
    total = h * complex(vals[i_lo : i_hi + 1].sum())

    level = 0
    err = math.inf
    while evals < quad.max_evals:
        level += 1
        h *= 0.5
        k = np.arange(math.ceil(lo / h), math.floor(hi / h) + 1)
        k = k[k % 2 != 0]
        new_total = total / 2.0 + h * complex(sample(h * k).sum())
        evals += len(k)
        err = abs(new_total - total)
        total = new_total
        if level >= _MIN_LEVELS and err <= max(quad.abs_tol, quad.rel_tol * abs(total)):
            return QuadratureResult(total, err, evals)

    raise NonConvergenceError(
        f"tolerance not reached within {quad.max_evals} evaluations "
        f"(best estimate {total}, last delta {err:.3e})",
        best_estimate=total,
        error_estimate=err,
    )


def integrate_periodic(k: Callable[[float], complex], nodes: int) -> complex:
    """Trapezoidal rule for a 2*pi-periodic integrand on uniform nodes.

    Spectrally accurate for integrands analytic in a strip around the real
    axis. Convergence checking (node doubling) is the caller's contract.
    """
    if nodes < 1:
        raise ValueError(f"nodes must be positive, got {nodes}")
    step = 2.0 * math.pi / nodes
    total = 0j
    for i in range(nodes):
        total += complex(k(step * i))
    return total * step
