"""Riemann zeta instantiation.

zeta(s) is represented as K(s) * Z(s) with z(t) = t / cosh(t)**2 and the
closed-form prefactor K(s) = 2**(s-1) / ((1 - 2**(1-s)) * Gamma(s+1)),
valid for Re(s) > -1. An independent reference oracle, the model's
f_reference and fprime_reference, evaluates zeta and zeta' through the
alternating (Dirichlet eta) series with binomial convergence acceleration,
so the Mellin route can be checked against it. Against mpmath the relative
error of zeta and zeta' was at most 2.3e-13 on 480 random points with
-1 <= Re(s) <= 3 and |Im(s)| <= 1000. A pass over a node array forms
1 - 2**(1-s) once, in the function that forms it for K, and raises at the
pole s = 1 before it sums any node's series.

The series is Borwein's Algorithm 2 (P. Borwein, "An efficient algorithm for
the Riemann zeta function", CMS Conf. Proc. 27, 2000). For Re s >= 1/2 its n
terms miss eta(s) = (1 - 2**(1-s)) zeta(s) by at most
3 (1 + 2|t|) e**(pi |t| / 2) / (3 + sqrt 8)**n, t = Im s, so each point sums
the least n that puts this under 1e-14: 19 terms on the real axis, 39 at
|Im s| = 20 and 915 at |Im s| = 1000. Left of Re s = 1/2 the bound is not
proven; there a point sums ceil(2 (1/2 - Re s)) more terms than at
1/2 + i Im s, a rule checked against mpmath for -1 <= Re s < 1/2. Further
left, and past 1000 terms (about |Im s| = 1096), the series is refused.
Past |Im s| = 100 the weights also take out the round-off of the phases
Im(s) ln k, which left up to 1.1e-12 of zeta at |Im s| = 1000.

A node array runs its series as array arithmetic. One np.exp per block of
nodes forms the powers (k+1)**(-s) of all of them at once, each row as long
as the block's longest series and at most 2**12 powers a block (64 KiB)
whatever |Im s|. In a block, each group of nodes with one length, on one
side of |Im s| = 100, multiplies that length's cached weights into its rows
as one 2-D product, and the sums of zeta and zeta' are the last elements of
one np.add.accumulate along the terms, which adds in their order. np.exp and
the products act element by element, and in each complex product one factor,
a logarithm or a weight, has imaginary part 0, so it rounds as Python's does
even where numpy fuses a multiply and an add; the phase-corrected terms,
whose weights are complex, are formed in real arithmetic. So every point
keeps the bits a scalar cmath loop over its terms gives, alone or in any
array.
"""

from __future__ import annotations

import decimal
import functools
import math
import sys
import warnings
from typing import Callable

import numpy as np

from .contour import FactoredFunction
from .errors import DomainError, PoleError
from .mellin import MellinIntegrand
from .numerics import _gamma_pass, elementwise

__all__ = [
    "z_integrand",
    "build_zeta_factored",
]

_LN2 = math.log(2.0)

# The eta series' length (module docstring): the tolerance on the error of
# eta, the decay rate ln(3 + sqrt 8) of the error per term, the leftmost
# Re s of the checked rule and the most terms summed at any point.
_ETA_LOG_TOL = math.log(1e-14)
_ETA_LOG_RATE = math.log(3.0 + math.sqrt(8.0))
_ETA_MIN_RE = -1.0
_ETA_MAX_TERMS = 1000
# Past this |Im s| the phases Im(s) ln k that exp is given carry more
# than about 1e-13 of round-off, and the weights take it out.
_PHASE_ROUNDOFF_IM = 100.0
_VELTKAMP = 134217729.0  # 2**27 + 1
# The most powers (k+1)**(-s) one exponential forms: 64 KiB of complex
# values, small enough to stay in cache until each node's sums read its row
_ETA_BLOCK = 1 << 12


def _frozen(values, dtype=float) -> np.ndarray:
    """``values`` as a read-only array, safe to share from a cache."""
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=64)
def _eta_series(n: int) -> np.ndarray:
    """The signed weights (-1)**k (d_k - d_n) / d_n, k < n, of Borwein's
    n-term series, as a read-only complex array with imaginary parts 0, the
    dtype of the terms they multiply, so numpy casts them once and not at
    every product; the cache keeps the last 64 lengths asked for.

    d_k = c_0 + ... + c_k sums the coefficients c_i = n (n+i-1)! 4**i /
    ((n-i)! (2i)!) of the Chebyshev polynomial T_2n, integers that the
    recurrence c_(i+1) = c_i 4 (n+i) (n-i) / ((2i+1) (2i+2)) gives exactly,
    and an int / int quotient is correctly rounded.
    """
    c, acc, d = 1, 0, []
    for i in range(n + 1):
        acc += c
        d.append(acc)
        c = c * 4 * (n + i) * (n - i) // ((2 * i + 1) * (2 * i + 2))
    dn = d[n]
    return _frozen([(-1) ** k * ((d[k] - dn) / dn) for k in range(n)], dtype=complex)


def _halves(x: float) -> tuple[float, float]:
    """x = hi + lo exactly, each half with at most 26 significant bits
    (Veltkamp's split), so the product of two halves is exact."""
    c = _VELTKAMP * x
    hi = c - (c - x)
    return hi, x - hi


@functools.cache
def _log_parts() -> np.ndarray:
    """A read-only table of four rows over k = 1 .. the most terms:
    math.log(k), its halves and its error ln k - math.log(k), from 40-digit
    decimal logarithms."""
    exact = decimal.Context(prec=40).ln
    return _frozen(
        [
            (math.log(k), *_halves(math.log(k)), float(exact(k) - decimal.Decimal(math.log(k))))
            for k in range(1, _ETA_MAX_TERMS + 1)
        ]
    ).T


def _phase_corrected(weights: np.ndarray, t: np.ndarray, powers: np.ndarray, terms: np.ndarray) -> None:
    """Write into ``terms`` the terms w_k e**(-i d_k) (k+1)**(-s) of the
    weights w_k and the rows of ``powers`` (k+1)**(-s), one for each Im s
    in the column ``t``, d_k the round-off of the phase fl(t math.log(k+1))
    that the series hands exp: Dekker's exact error of that product plus t
    times the error of math.log. |d_k| < 1e-12, so e**(-i d_k) = 1 - i d_k
    to double precision. The complex product is formed in real arithmetic,
    as Python's complex product forms it, element by element."""
    th, tl = _halves(t)
    _, hi, lo, err = _log_parts()[:, : len(weights)]
    p = t * (hi + lo)
    d = ((th * hi - p) + th * lo + tl * hi) + tl * lo + t * err
    w_im = -weights * d
    terms.real = weights * powers.real - w_im * powers.imag
    terms.imag = weights * powers.imag + w_im * powers.real


def _eta_powers(s: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """The powers (k+1)**(-s) of the ``logs`` ln(k+1), one row for each
    element of the 1-D ``s``, from one np.exp of the array -s ln(k+1), taken
    in place. Both steps act element by element, so each row holds the bits
    that np.exp(-x * logs) gives its element x alone."""
    powers = -s[:, None] * logs
    return np.exp(powers, out=powers)


def _eta_terms(s: np.ndarray) -> np.ndarray:
    """The number of eta-series terms summed at each finite element of
    ``s``, as an int array of its shape: the least n whose Borwein bound is
    under the tolerance, plus ceil(2 (1/2 - Re s)) left of Re s = 1/2. It
    depends on each element alone, and does not decrease as |Im s| grows.
    Raises :class:`DomainError` at the first element left of Re s = -1 or
    past the most terms allowed."""
    t = np.abs(s.imag)
    # math.log, not np.log: numpy's SIMD log differs from it in the last
    # bit at about 1 point in 8,000, and a length whose bound lies within
    # round-off of an integer would move with it
    with np.errstate(over="ignore"):
        u = 3.0 * (1.0 + 2.0 * t)
        log = np.array([math.log(v) for v in u.ravel().tolist()]).reshape(u.shape)
        x = (log + 0.5 * math.pi * t - _ETA_LOG_TOL) / _ETA_LOG_RATE
        extra = np.where(s.real < 0.5, np.ceil(2.0 * (0.5 - s.real)), 0.0)
    left = s.real < _ETA_MIN_RE
    refused = left | ~(x + extra <= _ETA_MAX_TERMS)
    if refused.any():
        i = refused.argmax()
        at = complex(s.flat[i])
        if left.flat[i]:
            raise DomainError(f"the eta series is not checked left of Re s = {_ETA_MIN_RE:g}, at s = {at}")
        raise DomainError(f"the eta series needs more than {_ETA_MAX_TERMS} terms at s = {at}")
    return (np.ceil(x) + extra).astype(int)


_CONDITIONING_CUTOFF = 1e-6
# K(s) = 2**(s-1) / ((1 - 2**(1-s)) Gamma(s+1)) is taken for Re s > -1 only
_K_MIN_RE = -1.0
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


def _eta_lambda(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """((1 - s) ln 2, 2**(1-s), 1 - 2**(1-s)) at each finite element of ``s``
    with Re s >= -1, s = 0 standing in elsewhere. There |2**(1-s)| <= 4, so
    no arithmetic touches inf or NaN, and the zeros of 1 - 2**(1-s), on
    Re s = 1, all lie inside it."""
    ok = np.isfinite(s) & (s.real >= _ETA_MIN_RE)
    exponent = (1.0 - np.where(ok, s, 0.0)) * _LN2
    two = np.exp(exponent)
    return exponent, two, 1.0 - two


def _eta_poles(s: np.ndarray) -> np.ndarray:
    """Where 1 - 2**(1-s) is 0 at the elements of ``s``: zeta's pole."""
    return _eta_lambda(s)[2] == 0


def _eta_factor(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_eta_lambda` at the elements of ``s``, and one check per node
    array, for zeta's pole and for K's: the first element of smallest
    |1 - 2**(1-s)| raises :class:`PoleError` where that is 0, else warns
    when it is under the conditioning cutoff. Then :class:`DomainError` is
    raised at the first element that is not finite."""
    finite = np.isfinite(s)
    exponent, two, lam = _eta_lambda(s)
    mags = np.abs(lam)
    # fmin and nanargmin pass over NaN, which would hide a 0 from a plain minimum
    if np.fmin.reduce(mags, axis=None, initial=math.inf) < _CONDITIONING_CUTOFF:
        i = np.nanargmin(mags)
        at, lam_min = s.flat[i], lam.flat[i]
        if lam_min == 0:
            raise PoleError(f"zeta representation is singular at s = {at}")
        _warn_caller(
            f"1 - 2**(1-s) = {lam_min:.2e} at s = {at}: the eta-zeta factor is "
            f"ill-conditioned this close to the Re(s) = 1 resonance line"
        )
    if not finite.all():
        raise DomainError(f"s = {s.flat[(~finite).argmax()]} is not finite")
    return exponent, two, lam


def z_integrand(t):
    """z(t) = t / cosh(t)**2, the function whose Mellin transform carries
    zeta; accepts scalars or numpy arrays."""
    return t / np.cosh(t) ** 2


def _prefactor_pass(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K(s), K'(s)) at each element of ``s``, from one gamma pass, with
    K'(s) = K(s) (ln 2 - 2**(1-s) ln 2 / (1 - 2**(1-s)) - psi(s+1)). A pole
    anywhere raises :class:`PoleError` first (:func:`_eta_factor`). Raises
    :class:`DomainError` next at the first element that is not finite, then
    at the first with Re s <= -1, outside K's domain, and after the gamma
    pass at the first where K or K' is not finite: past |Im s| ~ 450 the
    1 / Gamma(s+1) factor leaves double range. No numpy warning escapes; far
    right on the real axis K and K' underflow to 0."""
    # 1 - 2**(1-s) is formed on Re s >= -1 (_eta_lambda), which holds K's
    # domain, so a pole is raised before an element outside it
    exponent, two, lam = _eta_factor(s)
    inside = s.real > _K_MIN_RE
    if not inside.all():
        s_out = s.flat[(~inside).argmax()]
        raise DomainError(f"the prefactor K is taken for Re s > {_K_MIN_RE:g} only, not at s = {s_out}")
    # at huge |s| the gamma pass overflows to inf or NaN, which the check
    # below reports, or K underflows to 0
    with np.errstate(all="ignore"):
        log_gamma, psi = _gamma_pass(s + 1.0)
        K = np.exp(-exponent - log_gamma) / lam
        Kprime = K * (_LN2 - two * _LN2 / lam - psi)
    bad = ~(np.isfinite(K) & np.isfinite(Kprime))
    if bad.any():
        raise DomainError(f"the prefactor leaves floating-point range at s = {s.flat[bad.argmax()]}")
    return K, Kprime


def _eta_pass(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(zeta(s), zeta'(s)) at each element of ``s``, zeta' the term-wise
    derivative summed beside zeta's terms, with one series of
    :func:`_eta_terms` terms per element. A pole anywhere raises
    :class:`PoleError` first (:func:`_eta_factor`); :class:`DomainError` is
    raised next at the first element that is not finite, then at the first
    that :func:`_eta_terms` refuses, before any power is formed. Each block
    of at most _ETA_BLOCK powers takes them from one exponential
    (:func:`_eta_powers`), and each group of its elements with one length,
    on one side of |Im s| = _PHASE_ROUNDOFF_IM, sums its series as one 2-D
    array, in a buffer that the call reuses (module docstring)."""
    _, two, lam = _eta_factor(s)
    points, two, lam = s.ravel(), two.ravel(), lam.ravel()
    lengths = _eta_terms(points)
    # a node's group: its length, and whether its weights take out the phases'
    # round-off; grouped without numpy's sorts, whose first use costs 1 MB of RSS
    groups = 2 * lengths + (np.abs(points.imag) > _PHASE_ROUNDOFF_IM)
    longest = int(lengths.max(initial=1))
    rows = _ETA_BLOCK // longest
    buffer = np.empty((2, rows, longest), dtype=complex)
    # complex, as the weights are (_eta_series)
    logs = _log_parts()[0].astype(complex)
    values = np.empty((len(points), 2), dtype=complex)
    # Re s >= -1 keeps each power |(k+1)**(-s)| <= 1000, and _eta_terms
    # refuses |Im s| past about 1096, so only a huge Re s overflows: -s ln k
    # goes to -inf, whose exp is 0, as cmath gives it without a warning
    with np.errstate(over="ignore"):
        for start in range(0, len(points), rows):
            block = slice(start, start + rows)
            powers = _eta_powers(points[block], logs[: lengths[block].max()])
            sums = np.empty((2, len(powers)), dtype=complex)
            for group in sorted(set(groups[block].tolist())):
                members = np.flatnonzero(groups[block] == group)
                n = group // 2
                weights = _eta_series(n)
                terms = buffer[:, : len(members), :n]
                if group % 2:
                    _phase_corrected(weights.real, points[block][members, None].imag, powers[members, :n], terms[0])
                else:
                    np.multiply(weights, powers[members, :n], out=terms[0])
                np.multiply(logs[:n], terms[0], out=terms[1])
                sums[:, members] = np.add.accumulate(terms, axis=-1, out=terms)[..., -1]
            # the combine runs in Python complex arithmetic, whose division
            # and square give other bits than numpy's; acc is -eta(s) and
            # acc_log is eta'(s), and zeta = eta / lam
            values[block] = [
                (-acc / lam_x, acc_log / lam_x + acc * (two_x * _LN2) / lam_x**2)
                for acc, acc_log, two_x, lam_x in zip(*sums.tolist(), two[block].tolist(), lam[block].tolist())
            ]
    return values[:, 0].reshape(s.shape), values[:, 1].reshape(s.shape)


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
    :func:`_eta_pass`, K and K' that of :func:`_prefactor_pass`; f is the
    zeta oracle and f' the zeta' oracle."""
    zf = MellinIntegrand(z=z_integrand, convergence_strip=(-1.0, math.inf))
    K, Kprime = _kept_evaluation(_prefactor_pass, 2)
    zeta, zeta_prime = _kept_evaluation(_eta_pass, 2)
    return FactoredFunction(zf=zf, K=K, Kprime=Kprime, f_reference=zeta, fprime_reference=zeta_prime)
