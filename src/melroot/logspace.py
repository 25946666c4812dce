"""Mellin transforms at all nodes of a contour from densities in x = ln t.

With x = ln t, Z(s) = int z(t) t**(s-1) dt becomes int g(x) e**(s x) dx with
g(x) = z(e**x), and Z' is the same integral of x g. On a uniform grid both
are trapezoid sums h * sum d(x) e**(s x) of densities that do not depend on
s: a contour builds them once and each node costs one weighted sum. Nothing
else is needed: the Mellin convolutions behind Z**k and Z' Z**k are, in x,
convolutions of g and x g, and the trapezoid sum of a full discrete
convolution is the product of its factors' sums (the discrete convolution
theorem), so on this grid they are the products of Z and Z'. The trapezoid
rule converges exponentially for analytic, fast-decaying densities
(Trefethen & Weideman, "The exponentially convergent trapezoidal rule",
SIAM Rev. 56, 2014).

The grid is not refined here: it is the halving trapezoid of
:mod:`melroot.quadrature`, the loop behind the exp-sinh rule, run in x with
one row per node for Z and one for Z'. This module supplies its bounds, from
the convergence strip, and its sampler, which evaluates z at the new
abscissae of each pass.

Only the approximated counting route needs this module, so
:mod:`melroot.contour` imports it on first use.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .mellin import MellinIntegrand
from .quadrature import TRUNCATION_DECAY, QuadratureConfig, _halving_trapezoid

__all__ = ["transform_and_derivative"]

# A side of the strip without a finite edge is scanned out to |x| = _SCAN
# (t up to e**40 ~ 2e17) for the density to die out.
_SCAN = 40.0
# The grid stays inside |x| <= _X_MAX, where t = e**x neither under- nor
# overflows; this also bounds the size of the first grid.
_X_MAX = 700.0


def _tail_cutoff(margin: float) -> float:
    """x > 0 at which x**2 * e**(-margin * x) has fallen to about
    ``TRUNCATION_DECAY``.

    Next to a finite strip edge, the densities weighted by e**(s x) decay like
    |x|**k * e**(-margin |x|), margin = |Re s - edge| and k <= 1 (k = 1 for
    x g), so with one power to spare both are negligible past this point.
    """
    x = -math.log(TRUNCATION_DECAY) / margin
    x += 2.0 * math.log(max(x, 1.0)) / margin
    if x > _X_MAX:
        raise DomainError(
            f"Re(s) within {margin:.3g} of the strip edge: the density tail "
            f"reaches beyond t = e**{_X_MAX:g}"
        )
    return x


def transform_and_derivative(
    zf: MellinIntegrand, s, re_range: tuple[float, float], quad: QuadratureConfig | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Z and Z' at every node of ``s`` from densities of z on one uniform
    grid in x = ln t.

    Returns ``(Z, Z')``, two arrays of shape (len(s),) (empty, without
    evaluating z, when ``s`` is): one trapezoid sum each over the densities g
    and x g. Any Z**k or Z' Z**k is their product.

    ``re_range`` is the span of Re s over the contour. It must lie inside the
    convergence strip, and every node inside it. Next to a finite strip edge
    the grid ends where |x|**2 e**(-margin |x|) falls below 1e-16; a side
    without one is scanned out to |x| = 40.

    The grid is refined by the exp-sinh rule's loop,
    :func:`~melroot.quadrature._halving_trapezoid`, with 2 len(s) rows (Z at
    each node, then Z' at each node): a trim of both sides from the coarse
    pass at step 0.5, then halving until, from the second halving on, each
    row has agreed between two steps within ``quad.rel_tol`` or
    ``quad.abs_tol``. ``quad.max_evals`` bounds the abscissae sampled, as for
    the exp-sinh rule. z is evaluated at the new abscissae of each pass only;
    it must accept numpy arrays and return an array of the same shape, else
    ``ValueError``.

    Raises :class:`DomainError` when ``re_range`` leaves the strip or a node
    is not finite (both before z is evaluated), when z is not finite at a
    grid point and when Z is 0 at every node (z vanishes on the grid); and
    :class:`NonConvergenceError`, with the finest ``(Z, Z')`` reached as
    ``best_estimate``, when the budget runs out first.
    """
    quad = quad or QuadratureConfig()
    lo, hi = zf.convergence_strip
    re_lo, re_hi = re_range
    if not (lo < re_lo <= re_hi < hi):
        raise DomainError(
            f"Re(s) spans [{re_lo}, {re_hi}], outside the convergence strip ({lo}, {hi})"
        )
    s = np.asarray(s, dtype=np.complex128).reshape(-1)
    if not np.isfinite(s).all():
        raise DomainError("nodes must be finite")
    if ((s.real < re_lo) | (s.real > re_hi)).any():
        raise ValueError(f"nodes outside the Re(s) range [{re_lo}, {re_hi}]")
    n = len(s)
    if n == 0:
        return np.empty(0, dtype=np.complex128), np.empty(0, dtype=np.complex128)

    x_lo = -_tail_cutoff(re_lo - lo) if math.isfinite(lo) else -_SCAN
    x_hi = _tail_cutoff(hi - re_hi) if math.isfinite(hi) else _SCAN

    def sample(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # row i < n is g e**(s_i x), row n + i is x g e**(s_i x)
        with np.errstate(all="ignore"):
            g = np.asarray(zf.z(np.exp(x)), dtype=np.complex128)
        if g.shape != x.shape:
            raise ValueError("z must map an array of t to an array of the same shape")
        bad = ~np.isfinite(g)
        if bad.any():
            raise DomainError(f"z(t) is not finite at t = e**{float(x[bad][0]):.6g}")
        # g e**(s x) in log space, formed only where g is not 0 (the product
        # is 0 elsewhere): e**(s x) may overflow only where g is tiny.
        live = g != 0
        all_live = bool(live.all())
        if not all_live:
            x, g = x[live], g[live]
        log_g = np.log(g)
        vals = np.empty((len(rows), len(x)), dtype=np.complex128)
        # with every row, one exponential per node, shared by its Z and Z'
        # rows; once some rows have retired, one per row still refining
        every_row = len(rows) == 2 * n
        if every_row:
            weights = np.multiply(s[:, np.newaxis], x, out=vals[:n])
        else:
            weights = np.multiply(s[rows % n, np.newaxis], x, out=vals)
        weights += log_g
        np.exp(weights, out=weights)
        if every_row:
            np.multiply(weights, x, out=vals[n:])
        else:
            vals[rows >= n] *= x
        if all_live:
            return vals
        out = np.zeros((len(rows), len(live)), dtype=np.complex128)
        out[:, live] = vals
        return out

    z, zprime = _halving_trapezoid(sample, x_lo, x_hi, 2 * n, quad, lambda total: (total[:n], total[n:])).value
    if not z.any():
        raise DomainError("Z(s) = 0 at every node: z(t) vanishes on the grid")
    return z, zprime
