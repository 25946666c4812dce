"""Complex special functions, elementwise over numpy arrays.

The complex sign function and its smooth tanh surrogate, and Lanczos
log-gamma / digamma for the prefactors. Each takes a scalar or an array: a
scalar gives a scalar (``csgn`` an int, the others a complex), an array
gives an array of its shape. A pole or domain error at any element raises.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, PoleError

__all__ = [
    "elementwise",
    "csgn",
    "csgn_smooth",
    "log_gamma",
    "digamma",
]

# tanh(w) is +/-1 to double precision long before this; avoids any reliance
# on platform ctanh overflow behavior.
_TANH_SATURATION = 350.0


def elementwise(fn):
    """Let ``fn(x, *args)``, written for a complex array ``x`` of at least
    one dimension, take a scalar or an array: a scalar ``x`` runs as a
    one-element array and gives a Python scalar, so it gets exactly the
    value it would have as an element of an array."""

    @functools.wraps(fn)
    def wrapper(x, *args):
        x = np.asarray(x, dtype=np.complex128)
        return fn(x, *args) if x.ndim else fn(x.reshape(1), *args)[0].item()

    return wrapper


@elementwise
def csgn(x):
    """Complex sign: sign of Re(x), falling back to sign of Im(x) on the
    imaginary axis; +1 or -1 at each element. Undefined at 0."""
    if (x == 0).any():
        raise DomainError("csgn(0) is undefined")
    return np.where(np.where(x.real != 0.0, x.real, x.imag) > 0.0, 1, -1)


@elementwise
def csgn_smooth(x, eps: float):
    """Smooth surrogate tanh(x/eps) for :func:`csgn`.

    Converges pointwise to csgn(x) for Re(x) != 0 as eps -> 0. Saturated
    arguments short-circuit to +/-1 instead of overflowing.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    with np.errstate(over="ignore"):
        w = x / eps
    out = np.where(w.real > 0.0, 1.0 + 0j, -1.0 + 0j)
    live = np.abs(w.real) <= _TANH_SATURATION
    out[live] = np.tanh(w[live])
    return out


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
# coefficients and shifts of the Lanczos terms after the first,
# c_i / (z - 1 + i) for i = 1..8
_LANCZOS_TAIL = np.array(_LANCZOS[1:])
_LANCZOS_SHIFTS = np.arange(1.0, len(_LANCZOS))
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)


def _leading(terms: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``terms`` shaped to broadcast against ``x`` along a new leading axis."""
    return terms.reshape(terms.shape + (1,) * x.ndim)


def _fold(op: np.ufunc, initial, terms: np.ndarray) -> np.ndarray:
    """((initial op terms[0]) op terms[1]) op ... along the leading axis, in
    that order at every element, as a loop of array operations would give it;
    ``terms`` is overwritten. ``accumulate`` keeps the order, while a
    ``reduce`` may sum pairwise and round differently."""
    op(initial, terms[0], out=terms[0])
    return op.accumulate(terms, axis=0)[-1]


def _reject_poles(z: np.ndarray, name: str) -> None:
    poles = (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.floor(z.real))
    if poles.any():
        raise PoleError(f"{name} has a pole at {complex(z[poles][0])}")


@elementwise
def log_gamma(z):
    """log Gamma(z) for complex z (Lanczos; reflection for Re(z) < 0.5).

    The imaginary part is not guaranteed to be the analytically continued
    branch across the reflection seam; exp(log_gamma(z)) is always Gamma(z).
    """
    _reject_poles(z, "Gamma")
    reflect = z.real < 0.5
    zm = np.where(reflect, 1.0 - z, z) - 1.0
    acc = _fold(np.add, _LANCZOS[0], _leading(_LANCZOS_TAIL, zm) / (zm + _leading(_LANCZOS_SHIFTS, zm)))
    t = zm + _LANCZOS_G + 0.5
    out = _HALF_LOG_TWO_PI + (zm + 0.5) * np.log(t) - t + np.log(acc)
    if reflect.any():
        # _reject_poles leaves no z whose sin(pi z) rounds to 0
        out[reflect] = _LOG_PI - np.log(np.sin(math.pi * z[reflect])) - out[reflect]
    return out


_DIGAMMA_SHIFTS = np.arange(10.0)
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


@elementwise
def digamma(z):
    """psi(z) = d/dz log Gamma(z) for complex z (recurrence over ten steps,
    then the asymptotic series; reflection for Re(z) < 0.5)."""
    _reject_poles(z, "digamma")
    reflect = z.real < 0.5
    w = np.where(reflect, 1.0 - z, z)
    # psi(w) = psi(w + 10) - sum_{k < 10} 1 / (w + k), and Re(w + 10) > 10
    # is in the range of the asymptotic series
    acc = _fold(np.subtract, 0.0, 1.0 / (w + _leading(_DIGAMMA_SHIFTS, w)))
    w = w + len(_DIGAMMA_SHIFTS)
    inv2 = 1.0 / (w * w)
    tail = np.zeros_like(w)
    for coeff in reversed(_DIGAMMA_ASYMPTOTIC):
        tail = inv2 * (coeff + tail)
    out = acc + np.log(w) - 0.5 / w - tail
    if reflect.any():
        out[reflect] -= math.pi / np.tan(math.pi * z[reflect])
    return out
