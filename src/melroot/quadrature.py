"""Numerical integration engines.

Two entry points:

* :func:`integrate_semi_infinite` -- complex-valued integrals over (0, inf),
  evaluated with a double-exponential (exp-sinh) variable transformation.
  Handles algebraic endpoint behavior t**(sigma-1) at 0 and exponentially
  decaying tails in one scheme. Integrands are vectorized over numpy arrays;
  a batched integrand computes many rows of integrals on one shared grid.
* :func:`integrate_periodic` -- trapezoidal rule over [0, 2*pi) for smooth
  periodic integrands (spectrally convergent). No count path calls it; it is
  kept as the reference trapezoid sum of the tests and the benchmark's own
  tests until the benchmark rework (ROADMAP item 1) deletes it.

Every adaptive integral in the package is a halving trapezoid on a map of
(0, inf): a coarse pass at step 1/2, one trim of the support
(:func:`_support`), step halving at the new abscissae only
(:func:`_passes`, :func:`_refined`), a stop test on the rows and a budget
of sampled abscissae, both module constants: ``REL_TOL`` and ``ABS_TOL``,
which only the nested Mellin levels tighten (the integer ``tighten`` of
:func:`integrate_semi_infinite`), and ``MAX_EVALS``. Each halving is one
call of the integrand, except the first two: no row can stop after the
first, so they share one.
:func:`_halving_trapezoid` runs it on the exp-sinh map t = exp(pi/2 sinh u),
where a row that has converged is not sampled again;
:func:`melroot.mellin.moments` runs its own loop on x = ln t, refining every
row until all of them have converged.

All engines are pure and re-entrant; summation order is fixed so repeated
runs are bit-identical.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import DomainError, NonConvergenceError

__all__ = [
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
# The budget of both halving loops: abscissae sampled, the coarse pass's
# included. Read at each call, so one patch of this name reaches both.
MAX_EVALS = 200_000
# The stop test of both halving loops: a row has converged once it changed
# by at most max(ABS_TOL, REL_TOL * |row|).
REL_TOL = 1e-8
ABS_TOL = 1e-12


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


def _support(vals: np.ndarray, u: np.ndarray) -> slice | None:
    """The coarse pass's trim of the rows ``vals`` sampled at ``u``: the
    abscissae where some row exceeds ``TRUNCATION_DECAY`` times its own peak,
    plus one step on each side, or None when every row is 0 at ``u``. A
    non-finite sample is set to 0 in ``vals`` outside the support and raises
    :class:`DomainError` inside it, as does a row finite at no abscissa."""
    finite = np.isfinite(vals)
    if not finite.any(axis=1).all():
        raise DomainError(
            f"the integrand is not finite at any abscissa of the coarse pass over [{u[0]:g}, {u[-1]:g}]"
        )
    vals[~finite] = 0.0
    mags = np.abs(vals)
    keep = (mags > TRUNCATION_DECAY * mags.max(axis=1, keepdims=True)).any(axis=0).nonzero()[0]
    if keep.size == 0:
        return None
    i_lo, i_hi = max(int(keep[0]) - 1, 0), min(int(keep[-1]) + 1, len(u) - 1)
    if not finite[:, i_lo : i_hi + 1].all():
        _raise_not_finite(u[i_lo], u[i_hi])
    return slice(i_lo, i_hi + 1)


def _passes(lo: float, hi: float, evals: int):
    """The sampler calls of the halvings of a grid on [lo, hi], whose coarse
    pass at step ``_H0`` sampled ``evals`` abscissae, while fewer than
    ``MAX_EVALS`` are sampled. Yields, for each call, its levels as (h, new
    abscissae) pairs, the abscissae sampled after it and whether rows may
    stop after it. The new abscissae of a level are the odd multiples of h
    (lo / h and hi / h are even), each exact. No row can stop before the
    ``_MIN_LEVELS``-th halving, so the levels up to it share one call, each
    as far as the budget would have run it alone."""
    h, level = _H0, 0
    while evals < MAX_EVALS:
        levels = []
        while True:
            level += 1
            h *= 0.5
            levels.append((h, np.arange(lo + h, hi, 2.0 * h)))
            evals += len(levels[-1][1])
            if level >= _MIN_LEVELS or evals >= MAX_EVALS:
                break
        yield levels, evals, level >= _MIN_LEVELS


def _refined(sums: np.ndarray, vals: np.ndarray, levels: list, lo: float, hi: float) -> tuple:
    """The trapezoid sums of the rows after the ``levels`` of one sampler
    call, whose samples ``vals`` hold each level's new abscissae as a
    contiguous column block, and the change of the last level:
    sums / 2 + h * sum(new samples), level by level. A sum that is not
    finite at any level stays so to the last, which raises
    :class:`DomainError`."""
    start = 0
    for h, u in levels:
        last, sums = sums, sums / 2.0 + h * vals[:, start : start + len(u)].sum(axis=1)
        start += len(u)
    if not np.isfinite(sums).all():
        _raise_not_finite(lo, hi)
    return sums, np.abs(sums - last)


def _exhausted(best: Any, error: float) -> NonConvergenceError:
    """The failure of a halving loop after ``MAX_EVALS`` abscissae, with its
    finest estimate ``best`` and its rows' largest last change ``error``."""
    message = f"tolerance not reached within {MAX_EVALS} evaluations (last delta {error:.3e})"
    return NonConvergenceError(message, best_estimate=best, error_estimate=error)


def _tolerances(tighten: int) -> tuple[float, float]:
    """(rel_tol, abs_tol) ``tighten`` decades below the package tolerances:
    ``REL_TOL / 10**tighten`` floored at 1e-15 and ``ABS_TOL / 10**tighten``
    floored at 1e-16."""
    # from 8 decades on both sit on their floors; the cap keeps 10.0 ** tighten finite
    scale = 10.0 ** min(tighten, 8)
    return max(REL_TOL / scale, 1e-15), max(ABS_TOL / scale, 1e-16)


def _halving_trapezoid(
    sample: Callable,
    n_rows: int,
    lo: float,
    hi: float,
    value_of: Callable[[np.ndarray], Any],
    tighten: int,
) -> QuadratureResult:
    """Trapezoid sums h * sum_k sample(h k) of ``n_rows`` rows of integrals
    on one shared grid: the abscissae h k in [lo, hi], with h = 0.5, 0.25, ...

    ``sample(u, active)`` returns the rows ``active`` (ascending row indices)
    at the abscissae ``u``, shape (len(active), len(u)). The coarse pass
    samples every row and trims the support once (:func:`_support`; every
    row is 0 when it is nowhere); each halving samples the new abscissae
    inside it in one sampler call (:func:`_passes`), which holds the rows
    still refining times those abscissae. A non-finite sample is read as 0
    outside that support and raises :class:`DomainError` inside it (a
    sampler that must forgive one zeroes it itself). From the second halving
    on, a row that changed by at most ``max(abs_tol, rel_tol * |row|)`` keeps
    its value and error and is not sampled again, with the tolerances
    :func:`_tolerances` of ``tighten``. Halving stops when no row
    is left, or raises :class:`NonConvergenceError` with ``value_of`` of the
    finest sums as best estimate once ``MAX_EVALS`` abscissae have been
    sampled.

    Returns ``value_of`` of the sums, the largest row error and the number of
    abscissae sampled (not rows times abscissae).
    """
    rel_tol, abs_tol = _tolerances(tighten)
    h = _H0
    u = h * np.arange(math.ceil(lo / h), math.floor(hi / h) + 1)
    active = np.arange(n_rows)
    vals, evals = sample(u, active), len(u)
    support = _support(vals, u)
    if support is None:
        return QuadratureResult(value_of(np.zeros(n_rows, dtype=vals.dtype)), 0.0, evals)
    lo, hi = float(u[support.start]), float(u[support.stop - 1])
    total = h * vals[:, support].sum(axis=1)
    err = np.full(n_rows, math.inf)
    # sums and last changes of the rows still refining, kept until they retire
    sums, delta = total, err

    for levels, evals, testable in _passes(lo, hi, evals):
        sums, delta = _refined(sums, sample(np.concatenate([u for _, u in levels]), active), levels, lo, hi)
        if testable:
            # delta <= tol is false for a NaN row, which goes on refining
            done = delta <= np.maximum(abs_tol, rel_tol * np.abs(sums))
            if done.any():
                # rows that go on refining overwrite their entries later
                total[active], err[active] = sums, delta
                live = ~done
                active, sums, delta = active[live], sums[live], delta[live]
                if active.size == 0:
                    return QuadratureResult(value_of(total), float(err.max()), evals)

    total[active], err[active] = sums, delta
    raise _exhausted(value_of(total), float(err.max()))


def integrate_semi_infinite(g: Callable, rows: np.ndarray | None = None, tighten: int = 0) -> QuadratureResult:
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

    The tolerances are ``REL_TOL`` and ``ABS_TOL`` divided by 10**``tighten``
    (floored at 1e-15 and 1e-16), so that a nested level ``tighten`` levels
    below the outermost converges that many decades further; ``tighten``
    must be a non-negative integer, else ``ValueError``. Raises
    :class:`NonConvergenceError` (carrying the best estimate of every row)
    if the tolerance is not met within ``MAX_EVALS`` evaluations.
    """
    if not isinstance(tighten, numbers.Integral) or tighten < 0:
        raise ValueError(f"tighten must be a non-negative integer, got {tighten!r}")
    if rows is not None:
        rows = np.asarray(rows)
        if rows.ndim != 1:
            raise ValueError(f"rows must be a 1-D array, got shape {rows.shape}")

    def sample(u: np.ndarray, active: np.ndarray) -> np.ndarray:
        # transformed integrand: Jacobian included, mesh width excluded
        t = np.exp(_LAMBDA * np.sinh(u))
        w = _LAMBDA * np.cosh(u) * t
        with np.errstate(all="ignore"):
            vals = _call(g, t, rows if rows is None else rows[active]) * w
        if rows is not None:
            # One row's weight can overflow inside the support that another
            # row keeps; such a sample is far below that row's own threshold.
            vals[~np.isfinite(vals)] = 0.0
        # the 1-D form is one row
        return vals.reshape(-1, len(u))

    value_of = (lambda total: complex(total[0])) if rows is None else (lambda total: total)
    n_rows = 1 if rows is None else len(rows)
    return _halving_trapezoid(sample, n_rows, -_U_CAP, _U_CAP, value_of, tighten)


def integrate_periodic(k: Callable[[float], complex], nodes: int) -> complex:
    """Trapezoidal rule for a 2*pi-periodic integrand on uniform nodes.

    Spectrally accurate for integrands analytic in a strip around the real
    axis; it checks no convergence. No count path calls it: it is kept as
    the reference trapezoid sum of the tests and of ``bench/test_bench.py``,
    and its deletion waits on the benchmark rework (ROADMAP item 1), as
    ``bench/tracing.py`` patches it too. ``nodes`` must be a positive
    integer, else ``ValueError``.
    """
    if not isinstance(nodes, numbers.Integral) or nodes < 1:
        raise ValueError(f"nodes must be a positive integer, got {nodes!r}")
    step = 2.0 * math.pi / nodes
    total = 0j
    for i in range(nodes):
        total += complex(k(step * i))
    return total * step
