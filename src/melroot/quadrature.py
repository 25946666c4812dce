"""Numerical integration engines.

Two entry points:

* :func:`integrate_semi_infinite` -- complex-valued integrals over (0, inf),
  evaluated with a double-exponential (exp-sinh) variable transformation.
  Handles algebraic endpoint behavior t**(sigma-1) at 0 and exponentially
  decaying tails in one scheme. Integrands are vectorized over numpy arrays;
  a batched integrand computes many rows of integrals on one shared grid.
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
        if not (0.0 < self.truncation_decay < 1.0):
            raise ValueError(f"truncation_decay must lie in (0, 1), got {self.truncation_decay}")

    def tightened(self, factor: float = 10.0) -> "QuadratureConfig":
        """Copy with tolerances divided by ``factor`` (for nested integrals)."""
        return replace(
            self,
            rel_tol=max(self.rel_tol / factor, 1e-15),
            abs_tol=max(self.abs_tol / factor, 1e-16),
        )


@dataclass(frozen=True)
class QuadratureResult:
    """Value (a complex, or for a batched integral an array with one entry
    per row, float64 when the integrand is real) plus an a-posteriori error
    estimate and the evaluation count."""

    value: complex | np.ndarray
    error: float
    evals: int


def _call(g: Callable, ts: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """Evaluate ``g`` on the abscissae ``ts``, as ``g(ts)`` of shape ts.shape,
    or, with ``rows``, as ``g(ts, rows)`` of shape (len(rows), len(ts)). A
    real result stays float64; only a complex one becomes complex128."""
    out = np.asarray(g(ts) if rows is None else g(ts, rows))
    expected = ts.shape if rows is None else (len(rows), len(ts))
    if out.shape != expected:
        raise ValueError(
            f"integrand returned shape {out.shape} where {expected} was "
            f"expected; it must be vectorized over numpy arrays, with the "
            f"abscissae on its last axis"
        )
    return out.astype(np.complex128 if np.iscomplexobj(out) else np.float64, copy=False)


def integrate_semi_infinite(
    g: Callable, quad: QuadratureConfig | None = None, rows: np.ndarray | None = None
) -> QuadratureResult:
    """Integrate ``g`` over (0, inf) with the exp-sinh rule, halving the
    trapezoid step until two levels agree.

    Without ``rows``, ``g`` maps a numpy array of abscissae to an array of
    the same shape and ``value`` is a complex. With ``rows``, a 1-D array of
    parameters, each parameter is one integral, a row: ``g(ts, p)`` must
    return shape (len(p), len(ts)) for the parameters ``p`` of the rows still
    refining, and ``value`` is an array with one entry per row (float64 if
    ``g`` is real). Anything else raises ``ValueError``. All rows share the
    grid: the support is trimmed to the union of the rows' supports in the
    coarse pass. A row whose last halving changed it by at most
    ``max(abs_tol, rel_tol * |row|)`` keeps that value and error and is not
    sampled again; the step halves until every row has. ``error`` is the
    largest row error and ``evals`` counts abscissae, not rows times
    abscissae. Any algebraic singularity at 0 must be integrable (no worse
    than t**(sigma-1) with sigma > 0) and the tail must decay fast enough
    for the integral to converge absolutely.

    Raises :class:`NonConvergenceError` (carrying the best estimate of every
    row) if the tolerance is not met within ``quad.max_evals`` evaluations.
    """
    quad = quad or QuadratureConfig()
    if rows is not None:
        rows = np.asarray(rows)
        if rows.ndim != 1:
            raise ValueError(f"rows must be a 1-D array, got shape {rows.shape}")

    def sample(u: np.ndarray, p: np.ndarray | None) -> np.ndarray:
        # transformed integrand: Jacobian included, mesh width excluded
        t = np.exp(_LAMBDA * np.sinh(u))
        w = _LAMBDA * np.cosh(u) * t
        with np.errstate(all="ignore"):
            vals = _call(g, t, p) * w
        # Overflow in the far tails, where the genuine contribution is below
        # the truncation threshold by construction of _U_CAP.
        vals[~np.isfinite(vals)] = 0.0
        return vals

    def result(total: np.ndarray, err: np.ndarray) -> QuadratureResult:
        value = complex(total[0]) if rows is None else total
        return QuadratureResult(value, float(np.max(err)), evals)

    h = _H0
    n0 = int(_U_CAP / h)
    u = h * np.arange(-n0, n0 + 1)
    # The 1-D form is one row, so both forms share the code below.
    vals = sample(u, rows).reshape(-1, len(u))
    evals = len(u)

    mags = np.abs(vals)
    peak = mags.max(axis=1, keepdims=True)
    # Trim the support once from the coarse pass, to the union of the rows'
    # supports; refinements stay inside it.
    keep = np.nonzero((mags > quad.truncation_decay * peak).any(axis=0))[0]
    if keep.size == 0:
        return result(np.zeros(len(vals), dtype=vals.dtype), np.zeros(len(vals)))
    i_lo = max(int(keep[0]) - 1, 0)
    i_hi = min(int(keep[-1]) + 1, len(u) - 1)
    lo, hi = float(u[i_lo]), float(u[i_hi])
    total = h * vals[:, i_lo : i_hi + 1].sum(axis=1)
    err = np.full(len(total), math.inf)
    active = np.arange(len(total))

    level = 0
    while evals < quad.max_evals:
        level += 1
        h *= 0.5
        k = np.arange(math.ceil(lo / h), math.floor(hi / h) + 1)
        k = k[k % 2 != 0]
        p = None if rows is None else rows[active]
        new_total = total[active] / 2.0 + h * sample(h * k, p).reshape(-1, len(k)).sum(axis=1)
        evals += len(k)
        err[active] = np.abs(new_total - total[active])
        total[active] = new_total
        if level >= _MIN_LEVELS:
            # not (err <= tol) rather than err > tol: a NaN row goes on refining
            active = active[~(err[active] <= np.maximum(quad.abs_tol, quad.rel_tol * np.abs(new_total)))]
            if active.size == 0:
                return result(total, err)

    best = result(total, err)
    raise NonConvergenceError(
        f"tolerance not reached within {quad.max_evals} evaluations "
        f"(last delta {best.error:.3e})",
        best_estimate=best.value,
        error_estimate=best.error,
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
