"""Complex special functions over numpy arrays.

The complex sign function, which takes a scalar (giving an int) or an array
(giving an array of its shape), and log-gamma and digamma of a complex array
together on Re z > 0, from one pass of Stirling's series (:func:`_gamma_pass`,
for the prefactors). A domain error at any element raises.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError

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


# Stirling's series (DLMF 5.11.1, 5.11.2) at v = z + 10, |v| > 10, where
# the first term left out, of v**-15 and v**-16, is under 3.0e-17 for
# log Gamma(v) and 4.4e-17 for psi(v). Column k of the row for log Gamma
# holds minus the coefficient of v**-(power k) in log Gamma(v) - (v - 1/2)
# ln v + v, that for psi the same for psi(v) - ln v, so one table of inverse
# powers serves both.
_SHIFT = 10
_SHIFTS = np.arange(float(_SHIFT))
_EVEN = np.arange(2.0, 16.0, 2.0)  # 2k, k = 1..7
_BERNOULLI = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6])  # B_2k
_STIRLING = -np.array(
    [[0.5 * math.log(2.0 * math.pi), *(_BERNOULLI / (_EVEN * (_EVEN - 1.0)))], [-0.5, *(-_BERNOULLI / _EVEN)]]
)
_STIRLING_POWERS = np.array([[0.0, *(_EVEN - 1.0)], [1.0, *_EVEN]])
_TERMS = (2, _SHIFT + _STIRLING.shape[1])


def _gamma_pass(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log Gamma(z), psi(z)) at each element of the complex array ``z``,
    from Stirling's series at v = z + 10 and the recurrence Gamma(z) =
    Gamma(v) / (z (z + 1) ... (z + 9)); log Gamma is the principal branch.
    Raises :class:`DomainError` at the first element with Re z <= 0: the
    prefactors take Gamma and psi on the right half-plane only.
    """
    left = z.real <= 0.0
    if left.any():
        at = complex(z.flat[left.argmax()])
        raise DomainError(f"Gamma and digamma are taken for Re z > 0 only, not at z = {at}")
    v = z + _SHIFT
    log_v = np.log(v)
    # log Gamma(z) and psi(z), less (v - 1/2) ln v - v and ln v, are minus the
    # sums of these rows, added in order at every element (``accumulate``; a
    # ``reduce`` may sum pairwise and round a lone element differently)
    shifted = z[..., np.newaxis] + _SHIFTS
    terms = np.empty(z.shape + _TERMS, dtype=np.complex128)
    np.log(shifted, out=terms[..., 0, :_SHIFT])
    np.divide(1.0, shifted, out=terms[..., 1, :_SHIFT])
    np.multiply(_STIRLING, (1.0 / v)[..., np.newaxis, np.newaxis] ** _STIRLING_POWERS, out=terms[..., _SHIFT:])
    sums = np.add.accumulate(terms, axis=-1)[..., -1]
    return (v - 0.5) * log_v - v - sums[..., 0], log_v - sums[..., 1]
