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
import sys
import warnings
from fractions import Fraction
from typing import Callable

import numpy as np

from .contour import FactoredFunction
from .errors import DomainError, PoleError
from .mellin import MellinIntegrand
from .numerics import _gamma_pass, elementwise

__all__ = [
    "z_integrand",
    "zeta_reference",
    "build_zeta_factored",
]

_LN2 = math.log(2.0)

# Binomial-weighted acceleration of the alternating series
# eta(s) = sum (-1)**(k+1) k**-s; with 50 terms the truncation error is
# below 1e-20 * exp(pi |Im s| / 2), i.e. >10 significant digits for
# |Im s| <= 20.  Weights are computed in exact rational arithmetic once.
_ETA_TERMS = 50
# Past this |Im s| the series is refused, not summed: its relative error
# grows from 6.8e-10 at 45 to 3.7e-8 at 50 and 0.29 at 100.
_ETA_MAX_IM = 45.0


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
_PACKAGE = __name__.partition(".")[0]


def _warn_caller(message: str) -> None:
    """Issue ``message`` as a :class:`RuntimeWarning` that names the first
    frame outside the melroot package, however deep inside it the warning
    starts."""
    frame = sys._getframe(1)
    while frame.f_back is not None and frame.f_globals.get("__name__", "").partition(".")[0] == _PACKAGE:
        frame = frame.f_back
    caller = frame.f_globals
    # no module_globals, as in warnings.warn: the loader of a `python -c` or
    # stdin __main__ raises ImportError when warn_explicit asks it for source
    warnings.warn_explicit(
        message,
        RuntimeWarning,
        frame.f_code.co_filename,
        frame.f_lineno,
        module=caller.get("__name__"),
        registry=caller.setdefault("__warningregistry__", {}),
    )


def _check_eta_factor(lam: complex, s: complex) -> None:
    """Reject 1 - 2**(1-s) = 0 at s, and warn when it is ill-conditioned."""
    if lam == 0:
        raise PoleError(f"zeta representation is singular at s = {s}")
    if abs(lam) < _CONDITIONING_CUTOFF:
        _warn_caller(
            f"1 - 2**(1-s) = {lam:.2e} at s = {s}: the eta-zeta factor is "
            f"ill-conditioned this close to the Re(s) = 1 resonance line"
        )


def _zeta_and_prime(s: complex) -> tuple[complex, complex]:
    """(zeta(s), zeta'(s)) from one pass of the accelerated eta series: zeta'
    is the term-wise derivative, summed beside zeta's terms. Raises
    :class:`DomainError` past |Im s| = 45, where the 50 terms lose their
    digits, and where cmath cannot sum them: far left of the strip the terms
    overflow."""
    s = complex(s)
    if abs(s.imag) > _ETA_MAX_IM:
        raise DomainError(f"the eta series is not accurate past |Im s| = {_ETA_MAX_IM:g}, at s = {s}")
    try:
        two = cmath.exp((1.0 - s) * _LN2)
        lam = 1.0 - two
        _check_eta_factor(lam, s)
        lam_prime = two * _LN2
        acc = 0j
        acc_prime = 0j
        for w, ln in zip(_ETA_SIGNED, _ETA_LOGS):
            term = w * cmath.exp(-s * ln)
            acc += term
            acc_prime -= ln * term
        return -acc / lam, -acc_prime / lam + acc * lam_prime / lam**2
    except (OverflowError, ValueError) as exc:  # cmath's range and domain errors
        raise DomainError(f"the eta series leaves floating-point range at s = {s}") from exc


def zeta_reference(s: complex) -> complex:
    """zeta(s) via the accelerated eta series. Pole at s = 1.

    Against mpmath on -0.9 <= Re(s) <= 3 the relative error is at most
    3.3e-12 up to |Im(s)| = 40 and 6.8e-10 at 45; past |Im(s)| = 45 it
    raises :class:`DomainError` instead of returning a value that is wrong
    in its leading digits (0.29 relative at |Im(s)| = 100)."""
    return _zeta_and_prime(s)[0]


def z_integrand(t):
    """z(t) = t / cosh(t)**2, the function whose Mellin transform carries
    zeta; accepts scalars or numpy arrays."""
    return t / np.cosh(t) ** 2


def _prefactor_pass(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K(s), K'(s)) at each element of ``s``, from one gamma pass, with
    K'(s) = K(s) (ln 2 - 2**(1-s) ln 2 / (1 - 2**(1-s)) - psi(s+1)). The first
    element of smallest |1 - 2**(1-s)|, NaN aside, is validated by
    :func:`_check_eta_factor` when that is below the conditioning cutoff.
    Raises :class:`DomainError` at the first element where K or K' is not
    finite: past |Im s| ~ 450 the 1 / Gamma(s+1) factor leaves double range."""
    exponent = (1.0 - s) * _LN2
    two = np.exp(exponent)
    lam = 1.0 - two
    mags = np.abs(lam)
    # fmin and nanargmin pass over NaN, which would hide a 0 from a plain minimum
    if np.fmin.reduce(mags, axis=None, initial=math.inf) < _CONDITIONING_CUTOFF:
        i = np.nanargmin(mags)
        _check_eta_factor(lam.flat[i], s.flat[i])
    log_gamma, psi = _gamma_pass(s + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        K = np.exp(-exponent - log_gamma) / lam
        Kprime = K * (_LN2 - two * _LN2 / lam - psi)
    bad = ~(np.isfinite(K) & np.isfinite(Kprime))
    if bad.any():
        raise DomainError(f"the prefactor leaves floating-point range at s = {s.flat[bad.argmax()]}")
    return K, Kprime


def _eta_pass(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(zeta(s), zeta'(s)) at each element of ``s``, from one
    :func:`_zeta_and_prime` pass per element."""
    values = np.array([_zeta_and_prime(x) for x in s.flat], dtype=np.complex128).reshape(s.shape + (2,))
    return values[..., 0], values[..., 1]


def _kept_evaluation(evaluate: Callable, count: int) -> tuple[Callable, ...]:
    """``count`` elementwise callables, the i-th giving ``evaluate(s)[i]``,
    that share one evaluation per node array.

    The last node array evaluated is kept as one tuple (a copy of the nodes,
    the results of ``evaluate``), matched by value and replaced in a single
    assignment: calling each callable on the same nodes, in any order,
    evaluates once, and nodes edited in place between the calls no longer
    match their copy. Nodes that raise keep nothing, and each call returns a
    copy, so no caller can edit the kept results.
    """
    # NaN equals no node, so the first call evaluates
    kept = (np.full(1, complex(math.nan)), ())

    def results(s: np.ndarray) -> tuple:
        nonlocal kept
        if kept[0].shape != s.shape or not (kept[0] == s).all():
            kept = (s.copy(), evaluate(s))
        return kept[1]

    return tuple(elementwise(lambda s, i=i: results(s)[i].copy()) for i in range(count))


def build_zeta_factored() -> FactoredFunction:
    """The zeta function wired as a factored Mellin representation, with the
    eta-series oracle attached as the reference for f and f'.

    All four callables take a scalar or a node array. f and f' share one
    kept evaluation (:func:`_kept_evaluation`), so a node array costs one
    eta-series pass per node, and K and K' share another, so it costs one
    gamma pass (log Gamma and psi together). f and f' return the pair of
    :func:`_zeta_and_prime` at each node, K and K' that of
    :func:`_prefactor_pass`."""
    zf = MellinIntegrand(z=z_integrand, convergence_strip=(-1.0, math.inf))
    K, Kprime = _kept_evaluation(_prefactor_pass, 2)
    zeta, zeta_prime = _kept_evaluation(_eta_pass, 2)
    return FactoredFunction(zf=zf, K=K, Kprime=Kprime, f_reference=zeta, fprime_reference=zeta_prime)
