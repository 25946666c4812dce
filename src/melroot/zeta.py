"""Riemann zeta instantiation.

zeta(s) is represented as K(s) * Z(s) with z(t) = t / cosh(t)**2 and the
closed-form prefactor K(s) = 2**(s-1) / ((1 - 2**(1-s)) * Gamma(s+1)),
valid for Re(s) > -1. An independent reference oracle evaluates zeta and
zeta' through the alternating (Dirichlet eta) series with binomial
convergence acceleration, so the Mellin route can be checked against it.
"""

from __future__ import annotations

import cmath
import math
import warnings
from fractions import Fraction

import numpy as np

from .contour import FactoredFunction
from .errors import PoleError
from .mellin import MellinIntegrand
from .numerics import digamma, elementwise, log_gamma

__all__ = [
    "z_integrand",
    "prefactor",
    "prefactor_derivative",
    "zeta_reference",
    "zeta_prime_reference",
    "build_zeta_factored",
]

_LN2 = math.log(2.0)

# Binomial-weighted acceleration of the alternating series
# eta(s) = sum (-1)**(k+1) k**-s; with 50 terms the truncation error is
# below 1e-20 * exp(pi |Im s| / 2), i.e. >10 significant digits for
# |Im s| <= 20.  Weights are computed in exact rational arithmetic once.
_ETA_TERMS = 50


def _eta_weights(n: int) -> list[float]:
    d: list[Fraction] = []
    acc = Fraction(0)
    for i in range(n + 1):
        acc += Fraction(math.factorial(n + i - 1) * 4**i, math.factorial(n - i) * math.factorial(2 * i))
        d.append(n * acc)
    dn = d[n]
    return [float((d[k] - dn) / dn) for k in range(n)]


_ETA_W = _eta_weights(_ETA_TERMS)
_ETA_SIGNED = [((-1) ** k) * w for k, w in enumerate(_ETA_W)]
_ETA_LOGS = [math.log(k + 1) for k in range(_ETA_TERMS)]

_CONDITIONING_CUTOFF = 1e-6


def _check_eta_factor(lam: complex, s: complex, stacklevel: int = 4) -> None:
    """Reject 1 - 2**(1-s) = 0 at s, and warn when it is ill-conditioned;
    ``stacklevel`` is that of :func:`warnings.warn`."""
    if lam == 0:
        raise PoleError(f"zeta representation is singular at s = {s}")
    if abs(lam) < _CONDITIONING_CUTOFF:
        warnings.warn(
            f"1 - 2**(1-s) = {lam:.2e} at s = {s}: the eta-zeta factor is "
            f"ill-conditioned this close to the Re(s) = 1 resonance line",
            RuntimeWarning,
            stacklevel=stacklevel,
        )


def _zeta_and_prime(s: complex, stacklevel: int = 4) -> tuple[complex, complex]:
    """(zeta(s), zeta'(s)) from one pass of the accelerated eta series: zeta'
    is the term-wise derivative, summed beside zeta's terms. The default
    ``stacklevel`` points a conditioning warning at the caller of the
    function that calls this one."""
    s = complex(s)
    two = cmath.exp((1.0 - s) * _LN2)
    lam = 1.0 - two
    _check_eta_factor(lam, s, stacklevel)
    lam_prime = two * _LN2
    acc = 0j
    acc_prime = 0j
    for w, ln in zip(_ETA_SIGNED, _ETA_LOGS):
        term = w * cmath.exp(-s * ln)
        acc += term
        acc_prime -= ln * term
    return -acc / lam, -acc_prime / lam + acc * lam_prime / lam**2


def zeta_reference(s: complex) -> complex:
    """zeta(s) via the accelerated eta series; >=10 significant digits for
    Re(s) > -1, |Im(s)| <= 20. Pole at s = 1."""
    return _zeta_and_prime(s)[0]


def zeta_prime_reference(s: complex) -> complex:
    """d/ds zeta(s), term-wise differentiated accelerated eta series."""
    return _zeta_and_prime(s)[1]


class _SharedEtaPass:
    """zeta and zeta' of one model from one eta-series pass per point.

    The last point evaluated is kept as one tuple (s, zeta(s), zeta'(s)),
    matched by ``==`` and replaced in a single assignment, so f then f' (or
    f' then f) at the same s pays for one pass, and no caller can pair the
    zeta of one point with the zeta' of another. A point that raises
    :class:`PoleError` is not kept.
    """

    def __init__(self):
        # NaN equals no point, so the first call evaluates
        self._last = (complex(math.nan), 0j, 0j)

    def _at(self, s) -> tuple[complex, complex, complex]:
        s = complex(s)
        last = self._last
        if last[0] != s:
            # a warning points at the caller of zeta or zeta_prime
            last = self._last = (s, *_zeta_and_prime(s, stacklevel=5))
        return last

    def zeta(self, s: complex) -> complex:
        return self._at(s)[1]

    def zeta_prime(self, s: complex) -> complex:
        return self._at(s)[2]


def z_integrand(t):
    """z(t) = t / cosh(t)**2, the function whose Mellin transform carries
    zeta; accepts scalars or numpy arrays."""
    return t / np.cosh(t) ** 2


def _prefactor_terms(s: np.ndarray, stacklevel: int):
    """(K(s), 2**(1-s), 1 - 2**(1-s)) at each element of ``s``; the element of smallest
    |1 - 2**(1-s)| is validated by :func:`_check_eta_factor` with ``stacklevel``."""
    two = np.exp((1.0 - s) * _LN2)
    lam = 1.0 - two
    worst = np.argmin(np.abs(lam))
    _check_eta_factor(lam.flat[worst], s.flat[worst], stacklevel)
    return np.exp((s - 1.0) * _LN2 - log_gamma(s + 1.0)) / lam, two, lam


def _derivative(s: np.ndarray, K: np.ndarray, two: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """K'(s) from the terms of :func:`_prefactor_terms` at ``s``."""
    return K * (_LN2 - two * _LN2 / lam - digamma(s + 1.0))


# A conditioning warning names the caller of prefactor or
# prefactor_derivative: above _check_eta_factor sit _prefactor_terms, the
# function itself and the elementwise wrapper.
@elementwise
def prefactor(s):
    """K(s) = 2**(s-1) / ((1 - 2**(1-s)) * Gamma(s+1)), elementwise."""
    return _prefactor_terms(s, stacklevel=5)[0]


@elementwise
def prefactor_derivative(s):
    """K'(s) = K(s) * (ln 2 - 2**(1-s) ln 2 / (1 - 2**(1-s)) - psi(s+1)),
    elementwise."""
    return _derivative(s, *_prefactor_terms(s, stacklevel=5))


class _SharedPrefactorPass:
    """K and K' of one model from one prefactor pass per node array.

    ``K`` and ``Kprime`` take a scalar or an array, as :func:`prefactor` and
    :func:`prefactor_derivative` do, and return the same values. The last
    node array evaluated is kept as one tuple (a copy of the nodes, K,
    2**(1-s), 1 - 2**(1-s)), matched by value and replaced in a single
    assignment: K then K' (or K' then K) on the same nodes computes
    log-gamma once and checks, and warns about, the eta factor once, and a
    node array edited in place between the two calls no longer matches its
    copy. Nodes that raise :class:`PoleError` are not kept.
    """

    def __init__(self):
        # NaN equals no node, so the first call evaluates
        self._last = (np.full(1, complex(math.nan)), None, None, None)
        self.K = elementwise(self._K)
        self.Kprime = elementwise(self._Kprime)

    def _at(self, s: np.ndarray):
        last = self._last
        if not np.array_equal(last[0], s):
            # above _check_eta_factor sit _prefactor_terms, this method, _K or
            # _Kprime and the elementwise wrapper: a warning names their caller
            last = self._last = (s.copy(), *_prefactor_terms(s, stacklevel=6))
        return last

    def _K(self, s: np.ndarray) -> np.ndarray:
        # a copy, so that no caller can edit the kept K
        return self._at(s)[1].copy()

    def _Kprime(self, s: np.ndarray) -> np.ndarray:
        return _derivative(*self._at(s))


def build_zeta_factored() -> FactoredFunction:
    """The zeta function wired as a factored Mellin representation, with the
    eta-series oracle attached as the reference for f and f'.

    Both references draw on one evaluation owned by this model, so f and f'
    at the same s cost one series pass; each returns the value of
    :func:`zeta_reference` or :func:`zeta_prime_reference` there. K and K'
    likewise share one prefactor pass per node array, so a contour computes
    log-gamma once; they return the values of :func:`prefactor` and
    :func:`prefactor_derivative`."""
    zf = MellinIntegrand(z=z_integrand, convergence_strip=(-1.0, math.inf))
    shared = _SharedEtaPass()
    prefactors = _SharedPrefactorPass()
    return FactoredFunction(
        zf=zf,
        K=prefactors.K,
        Kprime=prefactors.Kprime,
        f_reference=shared.zeta,
        fprime_reference=shared.zeta_prime,
    )
