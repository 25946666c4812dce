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

Only the approximated counting route needs this module, so
:mod:`melroot.contour` imports it on first use.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NonConvergenceError
from .mellin import MellinIntegrand
from .quadrature import QuadratureConfig

__all__ = ["transform_and_derivative"]

# Coarsest step of the grid in x = ln t; each refinement halves it.
_H0 = 0.5
# A side of the strip without a finite edge is scanned out to |x| = _SCAN
# (t up to e**40 ~ 2e17) for the density to die out.
_SCAN = 40.0
# The grid stays inside |x| <= _X_MAX, where t = e**x neither under- nor
# overflows; this also bounds the size of the first grid.
_X_MAX = 700.0
# Elements in one block of e**(s x) weights (64 KB of complex128);
# small blocks keep the transient arrays, and so peak memory, small.
_BLOCK = 1 << 12


def _tail_cutoff(margin: float, decay: float) -> float:
    """x > 0 at which x**2 * e**(-margin * x) has fallen to about ``decay``.

    Next to a finite strip edge, the densities weighted by e**(s x) decay like
    |x|**k * e**(-margin |x|), margin = |Re s - edge| and k <= 1 (k = 1 for
    x g), so with one power to spare both are negligible past this point.
    """
    x = -math.log(decay) / margin
    x += 2.0 * math.log(max(x, 1.0)) / margin
    if x > _X_MAX:
        raise DomainError(
            f"Re(s) within {margin:.3g} of the strip edge: the density tail "
            f"reaches beyond t = e**{_X_MAX:g}"
        )
    return x


def _density(zf: MellinIntegrand, x: np.ndarray) -> np.ndarray:
    """g(x) = z(e**x); non-finite values are left for the caller to judge."""
    with np.errstate(all="ignore"):
        g = np.asarray(zf.z(np.exp(x)), dtype=np.complex128)
    if g.shape != x.shape:
        raise ValueError("z must map an array of t to an array of the same shape")
    return g


def _trapezoid_sums(x, g, h, s) -> np.ndarray:
    """Trapezoid sums on the grid ``x`` (step ``h``) at the nodes ``s``:
    row 0 holds Z, row 1 holds Z'."""
    bad = ~np.isfinite(g)
    if bad.any():
        raise DomainError(f"z(t) is not finite at t = e**{float(x[bad][0]):.6g}")
    # g e**(s x) in log space: e**(s x) may overflow only where g has
    # underflowed to 0, and log 0 = -inf keeps that product 0.
    with np.errstate(divide="ignore"):
        log_g = np.log(g)
    factors = np.stack([np.ones_like(x), x])
    rows = max(1, _BLOCK // len(x))
    z = np.empty((2, len(s)), dtype=np.complex128)
    for i in range(0, len(s), rows):
        weights = np.outer(x, s[i : i + rows]) + log_g[:, None]
        z[:, i : i + rows] = factors @ np.exp(weights, out=weights)
    z *= h
    return z


def transform_and_derivative(
    zf: MellinIntegrand, s, re_range: tuple[float, float], quad: QuadratureConfig | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Z and Z' at every node of ``s`` from densities of z built once on a
    uniform grid in x = ln t.

    Returns ``(Z, Z')``, two arrays of shape (len(s),) (empty, without
    evaluating z, when ``s`` is): one trapezoid sum each over the densities g
    and x g. Any Z**k or Z' Z**k is their product.

    ``re_range`` is the span of Re s over the contour. It must lie inside the
    convergence strip, and every node inside it. Next to a finite strip edge
    the grid ends where |x|**2 e**(-margin |x|) falls below
    ``quad.truncation_decay``; a side without one is scanned and cut where
    |g(x)| e**(Re s x) falls below ``quad.truncation_decay`` times its peak.

    The step starts at 0.5 and halves until two successive steps agree at
    every node, for Z and Z', within ``quad.rel_tol`` or ``quad.abs_tol``;
    the finer values are returned. ``z`` must accept numpy arrays.

    Raises :class:`DomainError` when ``re_range`` leaves the strip or a node
    is not finite (both before z is evaluated) or z is not finite on the
    grid, and
    :class:`NonConvergenceError`, with the finest ``(Z, Z')`` reached as
    ``best_estimate``, when one more halving would exceed ``quad.max_evals``
    grid points.
    """
    quad = quad or QuadratureConfig()
    lo, hi = zf.convergence_strip
    re_lo, re_hi = re_range
    if not (lo < re_lo <= re_hi < hi):
        raise DomainError(
            f"Re(s) spans [{re_lo}, {re_hi}], outside the convergence strip ({lo}, {hi})"
        )
    s = np.asarray(s, dtype=np.complex128).reshape(-1)
    if not np.all(np.isfinite(s)):
        raise DomainError("nodes must be finite")
    if np.any((s.real < re_lo) | (s.real > re_hi)):
        raise ValueError(f"nodes outside the Re(s) range [{re_lo}, {re_hi}]")
    if s.size == 0:
        return np.empty(0, dtype=np.complex128), np.empty(0, dtype=np.complex128)

    decay = quad.truncation_decay
    x_lo = -_tail_cutoff(re_lo - lo, decay) if math.isfinite(lo) else -_SCAN
    x_hi = _tail_cutoff(hi - re_hi, decay) if math.isfinite(hi) else _SCAN
    h = _H0
    x = h * np.arange(math.floor(x_lo / h), math.ceil(x_hi / h) + 1)
    g = _density(zf, x)
    # Cut a scanned side where the density, under the largest weight
    # e**(Re s x) any node gives it, falls below decay * peak.
    with np.errstate(divide="ignore", invalid="ignore"):
        weighted = np.where(np.isfinite(g), np.log(np.abs(g)), -np.inf)
    weighted += x * np.where(x > 0.0, re_hi, re_lo)
    live = np.nonzero(weighted > weighted.max() + math.log(decay))[0]
    if live.size == 0:
        raise DomainError("z(t) vanishes on the whole grid")
    i0 = 0 if math.isfinite(lo) else max(int(live[0]) - 1, 0)
    i1 = len(x) - 1 if math.isfinite(hi) else min(int(live[-1]) + 1, len(x) - 1)
    x, g = x[i0 : i1 + 1], g[i0 : i1 + 1]

    values = _trapezoid_sums(x, g, h, s)
    err = math.inf
    while 2 * len(x) - 1 <= quad.max_evals:
        h *= 0.5
        x = x[0] + h * np.arange(2 * len(x) - 1)
        finer = np.empty(len(x), dtype=np.complex128)
        finer[0::2], finer[1::2] = g, _density(zf, x[1::2])
        g = finer
        refined = _trapezoid_sums(x, g, h, s)
        delta = np.abs(refined - values)
        values = refined
        err = float(delta.max())
        if np.all(delta <= np.maximum(quad.abs_tol, quad.rel_tol * np.abs(refined))):
            return values[0], values[1]
    raise NonConvergenceError(
        f"grid step {h} in ln t not settled within {quad.max_evals} grid points "
        f"(last delta {err:.3e})",
        best_estimate=(values[0], values[1]),
        error_estimate=err,
    )
