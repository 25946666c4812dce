"""Mellin quantities at all nodes of a contour from densities in x = ln t.

With x = ln t, Z(s) = int z(t) t**(s-1) dt becomes int g(x) e**(s x) dx with
g(x) = z(e**x), and the Mellin convolution becomes an ordinary convolution.
So Z, Z', Z**2 and Z' Z are trapezoid sums h * sum d(x) e**(s x) of the
densities g, x g, g * g and (x g) * g. None of them depends on s: a contour
builds them once and each node costs one weighted sum. The trapezoid rule
converges exponentially for analytic, fast-decaying densities (Trefethen &
Weideman, "The exponentially convergent trapezoidal rule", SIAM Rev. 56,
2014).

Only the approximated counting route needs this module, so
:mod:`melroot.contour` imports it on first use.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NonConvergenceError
from .mellin import MellinIntegrand
from .quadrature import QuadratureConfig

__all__ = ["convolution_powers"]

# Coarsest step of the grid in x = ln t; each refinement halves it.
_H0 = 0.5
# A side of the strip without a finite edge is scanned out to |x| = _SCAN
# (t up to e**40 ~ 2e17) for the density to die out.
_SCAN = 40.0
# The grid stays inside |x| <= _X_MAX, where t = e**x neither under- nor
# overflows; this also bounds the size of the first grid.
_X_MAX = 700.0
# FFT round-off is absolute, a share of the peak of the convolved density,
# and a node s weights it by e**((Re s - c) x) when the densities are tilted
# by e**(c x). Tilts are spaced so that |Re s - c| * |x| <= _TILT_SPREAD over
# the convolution grid: round-off grows by at most e**4 ~ 55 at any node.
_TILT_SPREAD = 4.0
# Elements in one block of e**((s - c) x) weights (64 KB of complex128);
# small blocks keep the transient arrays, and so peak memory, small.
_BLOCK = 1 << 12


def _tail_cutoff(margin: float, decay: float) -> float:
    """x > 0 at which x**2 * e**(-margin * x) has fallen to about ``decay``.

    Next to a finite strip edge, the densities weighted by e**(s x) decay like
    |x|**k * e**(-margin |x|), margin = |Re s - edge| and k <= 2 (k = 2 for
    (x g) * g), so all of them are negligible beyond this point.
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


def _weighted_sums(d: np.ndarray, x: np.ndarray, w: np.ndarray, h: float) -> np.ndarray:
    """h * sum_x d[r](x) e**(w x) for every row r of ``d`` and every w."""
    rows = max(1, _BLOCK // len(x))
    out = np.empty((len(d), len(w)), dtype=np.complex128)
    for i in range(0, len(w), rows):
        weights = np.outer(x, w[i : i + rows])
        out[:, i : i + rows] = np.einsum("rn,nm->rm", d, np.exp(weights, out=weights))
    out *= h
    return out


def _trapezoid_sums(x, g, h, s, tilts, band) -> np.ndarray:
    """Trapezoid sums on the grid ``x`` (step ``h``) at the nodes ``s``:
    row 0 holds Z and Z', row 1 holds Z**2 and Z' Z. Node i uses the
    densities tilted by ``tilts[band[i]]``."""
    bad = ~np.isfinite(g)
    if bad.any():
        raise DomainError(f"z(t) is not finite at t = e**{float(x[bad][0]):.6g}")
    n = len(x)
    x2 = 2.0 * x[0] + h * np.arange(2 * n - 1)
    size = 1 << (2 * n - 2).bit_length()
    out = np.empty((2, 2, len(s)), dtype=np.complex128)
    for i, c in enumerate(tilts):
        nodes = np.nonzero(band == i)[0]
        if nodes.size == 0:
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            # e**(c x) may overflow only where g has underflowed to 0
            half = np.exp(0.5 * c * x)
            gc = np.where(g == 0, 0j, g * half * half)
        factors = np.stack([gc, x * gc])
        spectra = np.fft.fft(factors, size)
        spectra[1] *= spectra[0]
        spectra[0] *= spectra[0]
        convolved = np.fft.ifft(spectra)[:, : 2 * n - 1]
        w = s[nodes] - c
        out[0][:, nodes] = _weighted_sums(factors, x, w, h)
        # the convolution is itself a trapezoid sum: one more factor h
        out[1][:, nodes] = _weighted_sums(convolved, x2, w, h * h)
    return out


def convolution_powers(
    zf: MellinIntegrand, s, re_range: tuple[float, float], quad: QuadratureConfig | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Z**(k+1) and Z' * Z**k, k = 0, 1, at every node of ``s`` from
    densities of z built once on a uniform grid in x = ln t.

    Returns ``(powers, derivs)``, two arrays of shape (2, len(s)):
    ``powers[k]`` holds Z**(k+1) and ``derivs[k]`` holds Z' * Z**k. The
    convolutions g * g and (x g) * g are computed with ``numpy.fft``.

    ``re_range`` is the span of Re s over the contour. It must lie inside the
    convergence strip, and every node inside it. Next to a finite strip edge
    the grid ends where |x|**2 e**(-margin |x|) falls below
    ``quad.truncation_decay``; a side without one is scanned and cut where
    |g(x)| e**(Re s x) falls below ``quad.truncation_decay`` times its peak.
    Before the FFT the densities are tilted by e**(c x), c the Re s of a band
    of nodes, so that e**(s x) does not amplify the FFT round-off; wide
    contours with long tails use several bands.

    The step starts at 0.5 and halves until two successive steps agree at
    every node, for all four quantities, within ``quad.rel_tol`` or
    ``quad.abs_tol``; the finer values are returned. ``z`` must accept numpy
    arrays.

    Raises :class:`DomainError` when ``re_range`` leaves the strip (before z
    is evaluated) or z is not finite on the grid, and
    :class:`NonConvergenceError`, with the finest values reached as
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
    if np.any((s.real < re_lo) | (s.real > re_hi)):
        raise ValueError(f"nodes outside the Re(s) range [{re_lo}, {re_hi}]")

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

    reach = 2.0 * float(np.abs(x).max())  # the convolution grid spans 2x
    n_tilt = max(1, math.ceil((re_hi - re_lo) * reach / (2.0 * _TILT_SPREAD)))
    tilts = re_lo + (re_hi - re_lo) * (np.arange(n_tilt) + 0.5) / n_tilt
    band = np.abs(s.real[:, None] - tilts).argmin(axis=1)

    values = _trapezoid_sums(x, g, h, s, tilts, band)
    err = math.inf
    while 2 * len(x) - 1 <= quad.max_evals:
        h *= 0.5
        x = x[0] + h * np.arange(2 * len(x) - 1)
        finer = np.empty(len(x), dtype=np.complex128)
        finer[0::2], finer[1::2] = g, _density(zf, x[1::2])
        g = finer
        refined = _trapezoid_sums(x, g, h, s, tilts, band)
        delta = np.abs(refined - values)
        values = refined
        err = float(delta.max())
        if np.all(delta <= np.maximum(quad.abs_tol, quad.rel_tol * np.abs(refined))):
            return values[:, 0], values[:, 1]
    raise NonConvergenceError(
        f"grid step {h} in ln t not settled within {quad.max_evals} grid points "
        f"(last delta {err:.3e})",
        best_estimate=(values[:, 0], values[:, 1]),
        error_estimate=err,
    )
