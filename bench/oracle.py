"""Correctness oracles for the benchmark, written independently of melroot.

* :func:`true_count` -- the truth table for roots minus poles of zeta inside
  a circle of the benchmark's region (the pole at 1 and the first zero).
* :func:`mellin_oracle` -- Z = zeta/K and Z' = (zeta' - K'Z)/K from mpmath,
  so the Mellin layer is checked against a different implementation of zeta,
  Gamma and digamma than the one it ships with.
* :func:`zeta_eta` -- a vectorized eta-series zeta and zeta' in numpy, fast
  enough for whole contours and grids.
* :func:`stage2_reference` -- the exact contour integral of the truncated
  exponential-sum integrand (the quantity ``count_pipeline`` approximates),
  by piecewise Gauss-Legendre between the csgn flip angles, converged by
  doubling.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

POLE = 1.0 + 0.0j
FIRST_ZERO = 0.5 + 14.134725141734693j
LN2 = math.log(2.0)
# 1 - 2**(1-s) vanishes at s = 1 + 2*pi*i*k/ln 2; there the eta series gives
# zeta only through a 0/0 cancellation.
ETA_FACTOR_STEP = 2.0 * math.pi / LN2

_ETA_TERMS = 64


def _borwein_weights(n: int) -> np.ndarray:
    d = []
    acc = Fraction(0)
    for i in range(n + 1):
        acc += Fraction(math.factorial(n + i - 1) * 4**i, math.factorial(n - i) * math.factorial(2 * i))
        d.append(n * acc)
    return np.array([float((-1) ** k * (d[k] - d[n]) / d[n]) for k in range(n)])


_ETA_W = _borwein_weights(_ETA_TERMS)
_ETA_LN = np.log(np.arange(1, _ETA_TERMS + 1, dtype=float))


def special_points(im_max: float) -> list[complex]:
    """Points a counting contour must keep clear of in 0 <= Im s <= im_max:
    the pole, the first zero and the zeros of the eta factor."""
    pts = [POLE, FIRST_ZERO]
    k = 1
    while k * ETA_FACTOR_STEP <= im_max:
        pts.append(complex(1.0, k * ETA_FACTOR_STEP))
        k += 1
    return pts


def true_count(center: complex, radius: float) -> int:
    """Zeros minus poles of zeta inside |s - center| < radius, valid for
    circles within -1 < Re s < 2.5 and -0.5 < Im s < 21 (no other zero or
    pole of zeta lies there)."""
    return int(abs(FIRST_ZERO - center) < radius) - int(abs(POLE - center) < radius)


def zeta_eta(s) -> tuple[np.ndarray, np.ndarray]:
    """(zeta(s), zeta'(s)) for an array of s, by the Borwein-accelerated
    alternating series with 64 terms."""
    s = np.asarray(s, dtype=complex)
    powers = _ETA_W * np.exp(-np.multiply.outer(s, _ETA_LN))
    eta = -powers.sum(axis=-1)
    eta_p = (powers * _ETA_LN).sum(axis=-1)
    two = np.exp((1.0 - s) * LN2)
    lam = 1.0 - two
    return eta / lam, eta_p / lam - eta * two * LN2 / lam**2


def mellin_oracle(s: complex) -> tuple[complex, complex]:
    """(Z(s), Z'(s)) for zeta = K Z with K(s) = 2**(s-1) / ((1 - 2**(1-s)) Gamma(s+1)),
    evaluated with mpmath at 30 digits."""
    import mpmath as mp

    with mp.workdps(30):
        s = mp.mpc(s.real, s.imag)
        two = mp.power(2, 1 - s)
        lam = 1 - two
        K = mp.power(2, s - 1) / (lam * mp.gamma(s + 1))
        Kp = K * (mp.ln2 - two * mp.ln2 / lam - mp.digamma(s + 1))
        zeta = mp.zeta(s)
        Z = zeta / K
        Zp = (mp.zeta(s, derivative=1) - Kp * Z) / K
        return complex(Z), complex(Zp)


def _csgn(x: np.ndarray) -> np.ndarray:
    return np.where(x.real != 0.0, np.sign(x.real), np.sign(x.imag))


def truncated_reciprocal(f: np.ndarray, alpha, c, n: int | None) -> np.ndarray:
    """sum_j alpha_j csgn(f) T_n(-c_j f csgn(f)), T_n the degree-n Taylor
    polynomial of exp, or exp itself when ``n`` is None."""
    sgn = _csgn(f)
    total = np.zeros_like(f)
    for a, cj in zip(alpha, c):
        w = -cj * f * sgn
        poly = np.exp(w) if n is None else sum(w**k / math.factorial(k) for k in range(n + 1))
        total = total + a * sgn * poly
    return total


def stage2_integrand(center: complex, radius: float, phi, alpha, c, n: int) -> np.ndarray:
    """(1/2 pi i) f'(s) T(f(s)) ds/dphi on the circle, f = zeta."""
    e = np.exp(1j * np.asarray(phi, dtype=float))
    f, fp = zeta_eta(center + radius * e)
    return fp * truncated_reciprocal(f, alpha, c, n) * (1j * radius * e) / (2j * math.pi)


def flip_angles(center: complex, radius: float, scan: int = 1024) -> np.ndarray:
    """Angles in [0, 2 pi) where Re zeta changes sign on the circle, located
    by bisection to double precision from a uniform scan."""
    def re_f(phi):
        return zeta_eta(center + radius * np.exp(1j * phi))[0].real

    grid = 2.0 * math.pi * np.arange(scan + 1) / scan
    pos = re_f(grid) > 0.0
    idx = np.nonzero(pos[:-1] != pos[1:])[0]
    lo, hi = grid[idx], grid[idx + 1]
    lo_pos = pos[idx]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        same = (re_f(mid) > 0.0) == lo_pos
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def _gauss_legendre(g, a: float, b: float, n: int) -> complex:
    x, w = np.polynomial.legendre.leggauss(n)
    return complex(0.5 * (b - a) * np.dot(w, g(0.5 * (b - a) * x + 0.5 * (a + b))))


def stage2_reference(center: complex, radius: float, alpha, c, n: int, tol: float = 1e-13):
    """Exact value of the stage-2 contour integral and the csgn flip angles.

    The integrand is analytic between flips, so Gauss-Legendre on each arc
    converges geometrically; the node count doubles until two successive
    totals agree to ``tol`` (relative to max(1, |value|)).
    """
    flips = flip_angles(center, radius)
    edges = [0.0, 2.0 * math.pi] if len(flips) == 0 else [*flips, flips[0] + 2.0 * math.pi]

    def g(phi):
        return stage2_integrand(center, radius, phi, alpha, c, n)

    prev = None
    for nodes in (16, 32, 64, 128, 256, 512, 1024):
        total = sum(_gauss_legendre(g, a, b, nodes) for a, b in zip(edges, edges[1:]))
        if prev is not None and abs(total - prev) <= tol * max(1.0, abs(total)):
            return total, flips
        prev = total
    raise RuntimeError(f"stage-2 reference did not converge on circle {center}, R={radius}")
