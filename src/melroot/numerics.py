"""Complex scalar utilities and special functions.

The complex sign function and its smooth tanh surrogate, and Lanczos
log-gamma / digamma for the prefactors.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, PoleError

__all__ = [
    "csgn",
    "csgn_smooth",
    "log_gamma",
    "digamma",
]

# tanh(w) is +/-1 to double precision long before this; avoids any reliance
# on platform ctanh overflow behavior.
_TANH_SATURATION = 350.0


def csgn(x: complex) -> int:
    """Complex sign: sign of Re(x), falling back to sign of Im(x) on the
    imaginary axis. Undefined at 0."""
    x = complex(x)
    if x == 0:
        raise DomainError("csgn(0) is undefined")
    if x.real != 0.0:
        return 1 if x.real > 0.0 else -1
    return 1 if x.imag > 0.0 else -1


def csgn_smooth(x: complex, eps: float) -> complex:
    """Smooth surrogate tanh(x/eps) for :func:`csgn`.

    Converges pointwise to csgn(x) for Re(x) != 0 as eps -> 0. Saturated
    arguments short-circuit to +/-1 instead of overflowing.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    w = complex(x) / eps
    if abs(w.real) > _TANH_SATURATION:
        return complex(1.0 if w.real > 0.0 else -1.0)
    return cmath.tanh(w)


# Lanczos approximation, g = 7, 9 terms; relative accuracy ~1e-14 on the
# half-plane Re(z) >= 0.5, extended by reflection.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


def log_gamma(z: complex) -> complex:
    """log Gamma(z) for complex z (Lanczos; reflection for Re(z) < 0.5).

    The imaginary part is not guaranteed to be the analytically continued
    branch across the reflection seam; exp(log_gamma(z)) is always Gamma(z).
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"Gamma has a pole at {z}")
    if z.real < 0.5:
        s = cmath.sin(math.pi * z)
        if s == 0:
            raise PoleError(f"Gamma has a pole at {z}")
        return math.log(math.pi) - cmath.log(s) - log_gamma(1.0 - z)
    zm = z - 1.0
    acc = complex(_LANCZOS[0])
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (zm + i)
    t = zm + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (zm + 0.5) * cmath.log(t) - t + cmath.log(acc)


# psi(z) ~ ln z - 1/(2z) - sum B_2n / (2n z^(2n)); coefficients B_2n/(2n)
_DIGAMMA_ASYMPTOTIC = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def digamma(z: complex) -> complex:
    """psi(z) = d/dz log Gamma(z) for complex z."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"digamma has a pole at {z}")
    if z.real < 0.5:
        return digamma(1.0 - z) - math.pi / cmath.tan(math.pi * z)
    acc = 0j
    while z.real < 10.0:
        acc -= 1.0 / z
        z += 1.0
    inv2 = 1.0 / (z * z)
    tail = 0j
    for coeff in reversed(_DIGAMMA_ASYMPTOTIC):
        tail = inv2 * (coeff + tail)
    return acc + cmath.log(z) - 0.5 / z - tail
