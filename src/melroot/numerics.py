"""Complex special functions over numpy arrays.

The complex sign function, which takes a scalar (giving an int) or an array
(giving an array of its shape), and log-gamma and digamma of a complex array
together, from one pass of Stirling's series (:func:`_gamma_pass`, for the
prefactors). A pole or domain error at any element raises.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, PoleError

__all__ = [
    "elementwise",
    "csgn",
]


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


# Stirling's series (DLMF 5.11.1, 5.11.2) at v = w + 10, |v| > 10.5, where
# seven Bernoulli terms leave less than 2e-17 of log Gamma(v) and psi(v).
# Column k of the row for log Gamma holds minus the coefficient of
# v**-(power k) in log Gamma(v) - (v - 1/2) ln v + v, that for psi the same
# for psi(v) - ln v, so one table of inverse powers serves both.
_SHIFT = 10
_SHIFTS = np.arange(float(_SHIFT))
_EVEN = np.arange(2.0, 16.0, 2.0)  # 2k, k = 1..7
_BERNOULLI = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6])  # B_2k
_STIRLING = -np.array(
    [[0.5 * math.log(2.0 * math.pi), *(_BERNOULLI / (_EVEN * (_EVEN - 1.0)))], [-0.5, *(-_BERNOULLI / _EVEN)]]
)
_STIRLING_POWERS = np.array([[0.0, *(_EVEN - 1.0)], [1.0, *_EVEN]])
_TERMS = (2, _SHIFT + _STIRLING.shape[1])
_LOG_PI = math.log(math.pi)
_LOG_2 = math.log(2.0)


def _gamma_pass(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log Gamma(z), psi(z)) at each element of the complex array ``z``.

    For Re z >= 0.5 both come from Stirling's series at v = z + 10 and the
    recurrence Gamma(z) = Gamma(v) / (z (z + 1) ... (z + 9)); below that from
    the reflection formulas at 1 - z, with log sin(pi z) and cot(pi z)
    reduced to the nearest integer first, and log sin taken from exponentials
    that stay finite at any Im z. A pole, z = 0, -1, -2, ..., anywhere raises
    :class:`PoleError`. log Gamma is the principal branch for Re z >= 0.5;
    below that its exponential is always Gamma(z), but its imaginary part is
    not guaranteed to be the analytically continued branch across the
    reflection seam.
    """
    reflect = z.real < 0.5
    w = z
    if reflect.any():
        poles = reflect & (z.imag == 0.0) & (z.real == np.round(z.real))
        if poles.any():
            raise PoleError(f"Gamma and digamma have a pole at {complex(z[poles][0])}")
        w = np.where(reflect, 1.0 - z, z)
    v = w + _SHIFT
    log_v = np.log(v)
    # log Gamma(w) and psi(w), less (v - 1/2) ln v - v and ln v, are minus the
    # sums of these rows, added in order at every element (``accumulate``; a
    # ``reduce`` may sum pairwise and round a lone element differently)
    shifted = w[..., np.newaxis] + _SHIFTS
    terms = np.empty(w.shape + _TERMS, dtype=np.complex128)
    np.log(shifted, out=terms[..., 0, :_SHIFT])
    np.divide(1.0, shifted, out=terms[..., 1, :_SHIFT])
    np.multiply(_STIRLING, (1.0 / v)[..., np.newaxis, np.newaxis] ** _STIRLING_POWERS, out=terms[..., _SHIFT:])
    sums = np.add.accumulate(terms, axis=-1)[..., -1]
    log_gamma = (v - 0.5) * log_v - v - sums[..., 0]
    psi = log_v - sums[..., 1]
    if w is not z:  # some element is reflected
        # z - n is exact, so log sin and tan lose no digits next to a pole
        zr = z[reflect]
        n = np.round(zr.real)
        angle = math.pi * (zr - n)
        # sin(pi z) = (-1)**n sin(angle), and with sigma = +-1 the sign of
        # Im angle, sin(angle) = e**(-i sigma angle) (1 - e**(2 i sigma angle))
        # / (-2 i sigma): its log does not overflow where sin does, once
        # |Im angle| passes about 710
        sigma = np.where(angle.imag < 0.0, -1.0, 1.0)
        i_angle = 1j * sigma * angle
        log_sin = np.log(-np.expm1(2.0 * i_angle)) - i_angle - _LOG_2 + 1j * math.pi * (sigma / 2.0 + n % 2.0)
        log_gamma[reflect] = _LOG_PI - log_sin - log_gamma[reflect]
        psi[reflect] -= math.pi / np.tan(angle)
    return log_gamma, psi

