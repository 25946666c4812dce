"""Numerical integration engines.

Two entry points:

* :func:`integrate_semi_infinite` -- complex-valued integrals over (0, inf),
  evaluated with a double-exponential (exp-sinh) variable transformation.
  Handles algebraic endpoint behavior t**(sigma-1) at 0 and exponentially
  decaying tails in one scheme. Integrands are vectorized over numpy arrays;
  a batched integrand computes many rows of integrals on one shared grid.
* :func:`integrate_periodic` -- trapezoidal rule over [0, 2*pi) for smooth
  periodic integrands (spectrally convergent).

Every adaptive integral in the package is one refinement loop,
:func:`_halving_trapezoid` (coarse pass, trim, step halving, a stop test per
row, a budget of sampled abscissae), on a map of (0, inf): the exp-sinh rule
in u with t = exp(pi/2 sinh u), and x = ln t for the disk moments of
:mod:`melroot.mellin`. Each halving is one call of the integrand, except the
first two, which no row can retire from: they share one.

All engines are pure and re-entrant; summation order is fixed so repeated
runs are bit-identical.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from .errors import DomainError, NonConvergenceError

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
# The coarse pass keeps the abscissae where some row exceeds this fraction of
# its largest sample; a finite-edge tail of the moments' ln t grid is cut at
# the same level.
TRUNCATION_DECAY = 1e-16


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budget for the adaptive engines."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_evals: int = 200_000

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if not (0.0 < self.abs_tol < 1.0):
            raise ValueError(f"abs_tol must lie in (0, 1), got {self.abs_tol}")
        if not isinstance(self.max_evals, numbers.Integral) or self.max_evals < 100:
            raise ValueError(f"max_evals must be an integer >= 100, got {self.max_evals!r}")

    def tightened(self, factor: float = 10.0) -> "QuadratureConfig":
        """Copy with tolerances divided by ``factor`` (for nested integrals),
        floored at 1e-15 relative and 1e-16 absolute; a tolerance already
        below its floor is kept, never loosened."""
        return replace(
            self,
            rel_tol=min(self.rel_tol, max(self.rel_tol / factor, 1e-15)),
            abs_tol=min(self.abs_tol, max(self.abs_tol / factor, 1e-16)),
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


def _raise_not_finite(lo: float, hi: float):
    raise DomainError(
        f"the integrand is not finite inside its support, [{lo:g}, {hi:g}] in the mapped variable"
    )


def _halving_trapezoid(
    sample: Callable, lo: float, hi: float, quad: QuadratureConfig, value_of: Callable[[np.ndarray], Any]
) -> QuadratureResult:
    """Trapezoid sums h * sum_k sample(h k) of rows of integrals on one
    shared grid: the abscissae h k in [lo, hi], with h = 0.5, 0.25, ...

    ``sample(u, active)`` returns the rows ``active`` (ascending row indices)
    at the abscissae ``u``, shape (len(active), len(u)); on the coarse pass
    ``active`` is None and it returns all its rows, which sets their number.
    The coarse pass trims the support once, to where some row exceeds
    ``TRUNCATION_DECAY`` times its own peak, plus one step on each side
    (every row is 0 when that is nowhere); each halving samples the new
    abscissae inside it in one sampler call, which holds the rows still
    refining times those abscissae. The halvings up to the
    ``_MIN_LEVELS``-th, which no row can retire from, share one call, each
    as far as the budget would have run it alone; their sums are formed
    level by level from their column blocks, as if sampled one by one. A
    non-finite sample is read as 0 outside that support and raises
    :class:`DomainError` inside it (a sampler that must forgive one zeroes
    it itself), as does a row that is not finite at any abscissa of the
    coarse pass. From the second halving on, a row that
    changed by at most ``max(abs_tol, rel_tol * |row|)`` keeps its value and
    error and is not sampled again. Halving stops when no row is left, or
    raises :class:`NonConvergenceError` with ``value_of`` of the finest sums
    as best estimate once ``quad.max_evals`` abscissae have been sampled.

    Returns ``value_of`` of the sums, the largest row error and the number of
    abscissae sampled (not rows times abscissae).
    """
    h = _H0
    u = h * np.arange(math.ceil(lo / h), math.floor(hi / h) + 1)
    vals = sample(u, None)
    n_rows, evals = vals.shape[0], len(u)
    mags = np.abs(vals)
    peak = mags.max(axis=1, keepdims=True)
    # a NaN or infinite sample makes its row's peak NaN or infinite
    all_finite = bool(np.isfinite(peak).all())
    if not all_finite:
        finite = np.isfinite(vals)
        if not finite.any(axis=1).all():
            raise DomainError(
                f"the integrand is not finite at any abscissa of the coarse pass over [{lo:g}, {hi:g}]"
            )
        vals[~finite] = mags[~finite] = 0.0
        peak = mags.max(axis=1, keepdims=True)
    keep = (mags > TRUNCATION_DECAY * peak).any(axis=0).nonzero()[0]
    if keep.size == 0:
        return QuadratureResult(value_of(np.zeros(n_rows, dtype=vals.dtype)), 0.0, evals)
    i_lo = max(int(keep[0]) - 1, 0)
    i_hi = min(int(keep[-1]) + 1, len(u) - 1)
    lo, hi = float(u[i_lo]), float(u[i_hi])
    if not (all_finite or finite[:, i_lo : i_hi + 1].all()):
        _raise_not_finite(lo, hi)
    total = h * vals[:, i_lo : i_hi + 1].sum(axis=1)
    err = np.full(n_rows, math.inf)
    # sums and last changes of the rows still refining, kept until they retire
    active, sums, delta = np.arange(n_rows), total, err

    level = 0
    while evals < quad.max_evals:
        # the new abscissae of a level, odd multiples of h (coarse-pass lo / h,
        # hi / h are even), each exact; the levels up to _MIN_LEVELS share one
        # sampler call, each of them as far as the budget would have run it alone
        hs, us = [], []
        while True:
            level += 1
            h *= 0.5
            hs.append(h)
            us.append(np.arange(lo + h, hi, 2.0 * h))
            if level >= _MIN_LEVELS or evals + sum(map(len, us)) >= quad.max_evals:
                break
        vals, start = sample(np.concatenate(us), active), 0
        for h, u in zip(hs, us):
            new = vals[:, start : start + len(u)].sum(axis=1)
            start += len(u)
            # the sum of the rows is finite when each row is, and one that is
            # not gets the exact test
            if not cmath.isfinite(new.sum()) and not np.isfinite(new).all():
                _raise_not_finite(lo, hi)
            new = sums / 2.0 + h * new
            evals += len(u)
            delta, sums = np.abs(new - sums), new
        if level >= _MIN_LEVELS:
            # delta <= tol is false for a NaN row, which goes on refining
            done = delta <= np.maximum(quad.abs_tol, quad.rel_tol * np.abs(sums))
            if done.any():
                # rows that go on refining overwrite their entries later
                total[active], err[active] = sums, delta
                live = ~done
                active, sums, delta = active[live], sums[live], delta[live]
                if active.size == 0:
                    return QuadratureResult(value_of(total), float(err.max()), evals)

    total[active], err[active] = sums, delta
    raise NonConvergenceError(
        f"tolerance not reached within {quad.max_evals} evaluations "
        f"(last delta {float(err.max()):.3e})",
        best_estimate=value_of(total),
        error_estimate=float(err.max()),
    )


def integrate_semi_infinite(
    g: Callable, quad: QuadratureConfig | None = None, rows: np.ndarray | None = None
) -> QuadratureResult:
    """Integrate ``g`` over (0, inf) with the exp-sinh rule: the halving
    trapezoid of :func:`_halving_trapezoid` in u, with t = exp(pi/2 sinh u)
    and |u| <= 6.5.

    Without ``rows``, ``g`` maps a numpy array of abscissae to an array of
    the same shape and ``value`` is a complex. With ``rows``, a 1-D array of
    parameters, each parameter is one integral, a row: ``g(ts, p)`` must
    return shape (len(p), len(ts)) for the parameters ``p`` of the rows still
    refining, and ``value`` is an array with one entry per row (float64 if
    ``g`` is real). Anything else raises ``ValueError``. All rows share the
    grid, and a row that has converged is not sampled again. ``error`` is the
    largest row error and ``evals`` counts abscissae, not rows times
    abscissae. A call of ``g`` holds the rows still refining times a pass's
    new abscissae (tens of MB for 10**4 rows), so thousands of rows go in
    blocks, as ``mellin._ROWS`` bounds the nested levels. Any algebraic
    singularity at 0 must be integrable (no worse than t**(sigma-1) with
    sigma > 0) and the tail must decay fast enough to converge absolutely.

    A non-finite value of ``g`` times the Jacobian is read as 0 in the tails
    that the coarse pass trims away, where it is overflow below the
    truncation threshold. Inside the support, or at every abscissa of the
    coarse pass, it raises :class:`DomainError` in the 1-D form; with
    ``rows`` it is read as 0 everywhere, since one row's weight can overflow
    inside another row's support.

    Raises :class:`NonConvergenceError` (carrying the best estimate of every
    row) if the tolerance is not met within ``quad.max_evals`` evaluations.
    """
    quad = quad or QuadratureConfig()
    if rows is not None:
        rows = np.asarray(rows)
        if rows.ndim != 1:
            raise ValueError(f"rows must be a 1-D array, got shape {rows.shape}")

    def sample(u: np.ndarray, active: np.ndarray) -> np.ndarray:
        # transformed integrand: Jacobian included, mesh width excluded
        t = np.exp(_LAMBDA * np.sinh(u))
        w = _LAMBDA * np.cosh(u) * t
        with np.errstate(all="ignore"):
            vals = _call(g, t, rows if rows is None or active is None else rows[active]) * w
        if rows is not None:
            # One row's weight can overflow inside the support that another
            # row keeps; such a sample is far below that row's own threshold.
            vals[~np.isfinite(vals)] = 0.0
        # the 1-D form is one row
        return vals.reshape(-1, len(u))

    value_of = (lambda total: complex(total[0])) if rows is None else (lambda total: total)
    return _halving_trapezoid(sample, -_U_CAP, _U_CAP, quad, value_of)


def integrate_periodic(k: Callable[[float], complex], nodes: int) -> complex:
    """Trapezoidal rule for a 2*pi-periodic integrand on uniform nodes.

    Spectrally accurate for integrands analytic in a strip around the real
    axis. Convergence checking (node doubling) is the caller's contract.
    ``nodes`` must be a positive integer, else ``ValueError``.
    """
    if not isinstance(nodes, numbers.Integral) or nodes < 1:
        raise ValueError(f"nodes must be a positive integer, got {nodes!r}")
    step = 2.0 * math.pi / nodes
    total = 0j
    for i in range(nodes):
        total += complex(k(step * i))
    return total * step
