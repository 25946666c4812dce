"""Mellin transforms evaluated directly from the un-transformed function.

Given z(t) on (0, inf) and Z(s) = int z(t) t**(s-1) dt, two engines compute
Z and its powers from z alone, never from Z; both weight a density by t**s in
log space, e**(log density + s ln t), and check the strip the same way.

At one point, :func:`power_transform` (k >= 1, whose k = 1 is Z) and
:func:`deriv_times_power` (k >= 0, whose k = 0 is Z', the ln(t)-weighted
transform) mirror the kernel's Z**(k+1) and Z' Z**k terms. By the Mellin
convolution theorem each is the transform of a k-fold Mellin convolution,
built by nested adaptive exp-sinh quadratures, one s at a time.

On a disk s = c + R u, |u| <= 1, as contour counts need them, Z and Z' come
from one density in x = ln t. There Z(s) = int g(x) e**(s x) dx, g(x) =
z(e**x), is a trapezoid sum on a uniform grid of step h, and on the disk a
power series in u whose coefficients, the moments nu_j = sum_x w(x)
(R x)**j / j! of the s-free density w(x) = h g(x) e**(c x), are built once
(:func:`moments`); Z and Z' anywhere on the disk are its sum and derivative
(:func:`power_sums`). M is the least degree whose tail estimate, sum_x |w|
e**(R|x|) (R|x|)**(M+1) / (M+1)!, and that of Z', fall under 1e-16 of their
sums of |w|, all summed over the abscissae where |w| passes that floor. It
estimates, and does not bound, the tail: the abscissae it leaves out have the
largest R|x|, and on a large disk they can carry more than the floor. The series
converges like (R / d)**j, d the distance from c to the nearest singularity
of Z, so a large disk next to a strip edge needs more terms than that; the
moments come with error estimates of Z and Z' (the tail past M, and the
round-off of terms as large as |w| e**(R|x|)) for the caller's tolerance.
Z**k and Z' Z**k are products of Z and Z': in x a Mellin convolution is a
convolution, whose trapezoid sum is the product of its factors' sums. The
trapezoid rule converges exponentially for analytic, fast-decaying densities
(Trefethen & Weideman, SIAM Rev. 56, 2014).
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, NonConvergenceError
from .quadrature import _H0, ABS_TOL, REL_TOL, TRUNCATION_DECAY, QuadratureResult
from .quadrature import _exhausted, _passes, _refined, _support, integrate_semi_infinite

__all__ = [
    "MellinIntegrand",
    "power_transform",
    "deriv_times_power",
    "moments",
    "power_sums",
]

# Outer abscissae integrated together by one batched inner quadrature. The
# first two halvings of the outer loop share one call of its integrand, so
# they bring their new abscissae in one array and fill blocks more often.
# One sampler call of the inner loop holds its rows still refining times the
# new abscissae of its pass, so this block size is what bounds a call of
# the nested levels: at the package tolerances up to 128 x 512 float64 values
# (512 KB); rows that have converged are not sampled again, so a large block
# costs little more than its slowest row.
_ROWS = 128
# A side of the strip without a finite edge is scanned out to |x| = _SCAN; no
# grid passes |x| = _X_MAX, where t = e**x would under- or overflow.
_SCAN = 40.0
_X_MAX = 700.0
_EPS = np.finfo(float).eps
# The least M kept: below it the last two moments, which estimate the tail,
# are Z's and Z''s leading Taylor terms on a tiny disk (3 fails at R = 1e-7).
_MIN_DEGREE = 5


@dataclass(frozen=True)
class MellinIntegrand:
    """A function z(t) on (0, inf) together with its convergence strip for
    Re(s). ``z`` must accept numpy arrays and return an array of the same
    shape; the nested levels of :func:`power_transform` and
    :func:`deriv_times_power` call it on 2-D arrays, one row per outer
    abscissa still refining. A real ``z`` keeps those levels in float64."""

    z: Callable
    convergence_strip: tuple[float, float] = field(default=(0.0, math.inf))

    def __post_init__(self):
        lo, hi = self.convergence_strip
        if not lo < hi:
            raise ValueError(f"empty convergence strip ({lo}, {hi})")


def _require_in_strip(zf: MellinIntegrand, s: complex, radius: float = 0.0) -> complex:
    """``s`` as a complex, once it is finite and Re(s) -/+ ``radius`` lie
    inside the convergence strip; :class:`DomainError` otherwise."""
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"s = {s} is not finite")
    lo, hi = zf.convergence_strip
    if not (lo < s.real - radius and s.real + radius < hi):
        disk = f" +/- {radius}" if radius else ""
        raise DomainError(f"Re(s) = {s.real}{disk} outside the convergence strip ({lo}, {hi})")
    return s


def _log_weight(density, s: complex, log_t: np.ndarray) -> np.ndarray:
    """density * t**s as e**(log density + s ln t): the plain product
    overflows where t**Re(s) alone leaves double range although the weighted
    value does not, and log 0 = -inf makes a 0 density 0."""
    return np.exp(np.log(density, dtype=np.complex128) + s * log_t)


def _integrate(g: Callable, dimension: int, tighten: int, rows: np.ndarray | None = None) -> QuadratureResult:
    """:func:`integrate_semi_infinite` with a failure tagged by its nesting
    level (1 = innermost) unless a deeper level already tagged it."""
    try:
        return integrate_semi_infinite(g, rows, tighten)
    except NonConvergenceError as exc:
        if exc.dimension is None:
            exc.dimension = dimension
        raise


def _convolution_transform(zf: MellinIntegrand, derivative: bool, k: int, s: complex) -> QuadratureResult:
    """Mellin transform at s of c_k = first * z * ... * z (k factors), where
    first is z, or ln(t) z for ``derivative``, and * is the Mellin convolution
    (f * z)(t) = int f(u) z(t/u) du/u. By the convolution theorem this is
    Z(s)**k, or Z'(s) Z(s)**(k-1).

    c_{j+1} is the integral at nesting level j, with the package tolerances
    tightened by 10**(k-j) (``tighten = k - j``); it depends on neither s
    nor the outer abscissa, so each level is memoized per abscissa. The
    abscissae a level has not seen yet are sorted and integrated in blocks
    of ``_ROWS``, each block as one batched quadrature whose rows (one per
    abscissa t) share the exp-sinh grid in u; a row stops being sampled once
    it has converged. The levels are real for a real z; only the outer
    t**(s-1) weight is complex.

    Nested levels (k >= 2) raise :class:`DomainError` left of Re s = 0,
    before any quadrature: there the outer weight amplifies the inner
    levels' errors past their estimates, as t**(Re s - 1) with
    Re s - 1 < -1 does near t = 0. For zeta's z, Z**2 at -0.5 - 2i came
    out 3.4e-6 off while claiming 7e-11, and Z**3 and Z' Z raised
    NonConvergenceError after about a second; at Re s = 1e-4 all three are
    within 2e-13.
    """
    s = _require_in_strip(zf, s)
    if k >= 2 and s.real < 0.0:
        raise DomainError(
            f"nested Mellin convolutions are refused left of Re(s) = 0 (s = {s}): "
            f"the outer weight amplifies the inner levels' errors past their estimates"
        )
    z = zf.z

    def level(c: Callable, j: int) -> Callable:
        memo: dict[float, float | complex] = {}

        def integrand(u: np.ndarray, ts: np.ndarray) -> np.ndarray:
            return (c(u) / u) * z(np.divide.outer(ts, u))

        def convolved(ts: np.ndarray) -> np.ndarray:
            # sorted() rather than np.unique: numpy's sort path adds about
            # 1 MB of resident memory the first time it runs
            new = sorted({t for t in ts.tolist() if t not in memo})
            for i in range(0, len(new), _ROWS):
                block = new[i : i + _ROWS]
                values = _integrate(integrand, j, k - j, np.array(block)).value
                memo.update(zip(block, values.tolist()))
            return np.array([memo[t] for t in ts.tolist()])

        return convolved

    c = (lambda t: np.log(t) * z(t)) if derivative else z
    for j in range(1, k):
        c = level(c, j)
    return _integrate(lambda t: _log_weight(c(t), s - 1.0, np.log(t)), k, 0)


def power_transform(zf: MellinIntegrand, k: int, s: complex) -> QuadratureResult:
    """Z(s)**k computed from z(t) through the convolution representation, a
    k-fold iterated integral, for any integer k >= 1 (each order adds a
    dimension); k >= 2 raises :class:`DomainError` left of Re s = 0."""
    if not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"power_transform order must be an integer >= 1, got {k!r}")
    return _convolution_transform(zf, False, k, s)


def deriv_times_power(zf: MellinIntegrand, k: int, s: complex) -> QuadratureResult:
    """Z'(s) * Z(s)**k from z(t), for any integer k >= 0: k = 0 is
    Z'(s) = int_0^inf ln(t) z(t) t**(s-1) dt, and k >= 1 the (k + 1)-fold
    convolution with an ln(u1) weight, which raises :class:`DomainError`
    left of Re s = 0."""
    if not isinstance(k, numbers.Integral) or k < 0:
        raise ValueError(f"deriv_times_power order must be an integer >= 0, got {k!r}")
    return _convolution_transform(zf, True, k + 1, s)


def _tail_cutoff(margin: float) -> float:
    """x > 0 past which |x| e**(-margin x), the decay of x g e**(s x) next to
    a strip edge ``margin`` away, stays below about ``TRUNCATION_DECAY``."""
    x = -math.log(TRUNCATION_DECAY) / margin
    x += 2.0 * math.log(max(x, 1.0)) / margin
    if x > _X_MAX:
        raise DomainError(f"Re(s) within {margin:.3g} of the strip edge: the density tail passes t = e**{_X_MAX:g}")
    return x


def moments(zf: MellinIntegrand, center: complex, radius: float) -> tuple[np.ndarray, tuple[float, float]]:
    """nu_0, ..., nu_M for the disk |s - center| <= radius, trapezoid sums of
    rows on one halving grid in x = ln t, to |x| = 40 or to a strip edge's
    tail cutoff, and error estimates of Z and Z' anywhere on the disk: their
    round-off, eps h sum |w| e**(R|x|) times 1 and |x|, plus their tails past
    M, each estimated by its last two terms.

    The coarse pass at step 1/2 samples w on the whole grid and cuts its
    exact zeros beyond one step of the outermost nonzero abscissae before it
    forms one row table, tall enough for every M the tail estimates may
    pick. M (at least 5) and the round-off are read from that table, which
    is then cut to M + 1 rows. The support trim, the sampler calls of the
    halvings and their budget of ``quadrature.MAX_EVALS`` abscissae sampled
    are quadrature's (``_support``, ``_passes``); from the second halving
    on, the rows stop together, once every one of them changed by at most
    ``max(ABS_TOL, REL_TOL * |row|)``.

    A radius that is not positive and finite raises ``ValueError``, a
    subnormal one, whose Z' = (1/R) d/du overflows, or a disk that leaves
    the convergence strip :class:`DomainError`, all before z is evaluated.
    A z that maps an array of t to another shape raises ``ValueError``, one
    not finite on the grid or 0 on all of it :class:`DomainError`, and an
    exhausted budget :class:`NonConvergenceError` with the finest moments
    and their errors.
    """
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if radius < sys.float_info.min:
        raise DomainError(f"radius {radius} is subnormal: Z' divides by it")
    c, r = _require_in_strip(zf, center, radius), radius
    lo, hi = zf.convergence_strip
    x_lo = -_tail_cutoff(c.real - r - lo) if math.isfinite(lo) else -_SCAN
    x_hi = _tail_cutoff(hi - c.real - r) if math.isfinite(hi) else _SCAN

    def density(x: np.ndarray) -> np.ndarray:
        # w = z(e**x) e**(c x) without the step h; e**(c x) overflows only
        # where z is tiny or 0
        g = np.asarray(zf.z(np.exp(x)))
        if g.shape != x.shape:
            raise ValueError("z must map an array of t to an array of the same shape")
        return _log_weight(g, c, x)

    def rows(x: np.ndarray, w: np.ndarray) -> np.ndarray:
        # row j: w (r x)**j / j!, as a cumulative product down the rows from w
        table = np.empty((len(ratios) + 1, len(x)), dtype=np.complex128)
        table[0] = w
        np.multiply(ratios[:, np.newaxis], x, out=table[1:])
        return np.multiply.accumulate(table, axis=0, out=table)

    def with_errors(nu: np.ndarray) -> tuple[np.ndarray, tuple[float, float]]:
        m = len(nu) - 1
        a, b = abs(nu[m - 1]), abs(nu[m])
        return nu, (_H0 * noise + a + b, (_H0 * noise_prime + (m - 1) * a + m * b) / r)

    # z may under- or overflow far out on the grid, and log 0 = -inf
    with np.errstate(all="ignore"):
        x = _H0 * np.arange(math.ceil(x_lo / _H0), math.floor(x_hi / _H0) + 1)
        w = density(x)
        # only the coarse pass checks w: a later pass's non-finite w makes
        # the sums non-finite, and _refined raises
        if not np.isfinite(w).all():
            raise DomainError(f"z(t) t**c is not finite at t = e**{float(x[~np.isfinite(w)][0]):.6g}")
        nonzero = w.nonzero()[0]
        if nonzero.size == 0:
            raise DomainError("Z(s) = 0 on the disk: z(t) vanishes on the grid")
        # Every row is 0 where w is, and the support trim keeps one step past
        # the outermost nonzero abscissae: the zeros beyond are cut here.
        cut = slice(max(int(nonzero[0]) - 1, 0), int(nonzero[-1]) + 2)
        xs, w = x[cut], w[cut]
        # Z's tail past degree j is the sum of |row j + 1| e**(r|x|), and R
        # Z''s j + 1 times it, over the abscissae where |w| passes
        # TRUNCATION_DECAY of its peak; M is the least j (at least 5) where
        # both are under TRUNCATION_DECAY times the sums of |row 0| and
        # |row 1|, and the same sums of rows 0 and 1 give the round-off.
        mags = np.abs(w)
        keep = mags > TRUNCATION_DECAY * mags.max()
        y = r * np.abs(xs[keep])
        y_max = float(y.max())
        if y_max > _X_MAX:
            raise DomainError(f"the disk is too large for its moments: R |x| reaches {y_max:.3g}")
        # Both tails are below their floors at the first m >= y_max - 1 with
        # e**y_max y_max**m / m! at most TRUNCATION_DECAY (halved for round-off).
        # Past y_max ~ 355 the bound overflows at its peak, m ~ y_max.
        m, bound = 0, math.exp(y_max)
        while bound > 0.5 * TRUNCATION_DECAY or m + 1 < y_max:
            m += 1
            bound *= y_max / m
            if bound == math.inf:
                raise DomainError(
                    f"the disk is too large for its moments: their degree bound overflows at R |x| = {y_max:.3g}"
                )
        ratios = r / np.arange(1, max(m + 1, _MIN_DEGREE) + 1)
        table = rows(xs, w)
        kept = np.abs(table[:, keep])
        tails = (kept * np.exp(y)).sum(axis=1).tolist()
        floor, floor_prime = (TRUNCATION_DECAY * kept[:2].sum(axis=1)).tolist()
        degrees = [j for j, tail in enumerate(tails[1:]) if tail <= floor and (j + 1) * tail <= floor_prime]
        if not degrees:
            raise DomainError("the moment tail bound overflows: |w| e**(R|x|) is not finite")
        noise, noise_prime = _EPS * tails[0], _EPS * tails[1]
        ratios = ratios[: max(degrees[0], _MIN_DEGREE)]
        table = table[: len(ratios) + 1]
        support = _support(table, xs)
        x_lo, x_hi = float(xs[support.start]), float(xs[support.stop - 1])
        nu, delta = _H0 * table[:, support].sum(axis=1), math.inf
        for levels, _, testable in _passes(x_lo, x_hi, len(x)):
            xs = np.concatenate([u for _, u in levels])
            nu, delta = _refined(nu, rows(xs, density(xs)), levels, x_lo, x_hi)
            if testable and (delta <= np.maximum(ABS_TOL, REL_TOL * np.abs(nu))).all():
                return with_errors(nu)
    raise _exhausted(with_errors(nu), float(np.max(delta)))


def power_sums(nu: np.ndarray, u, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """``(Z, Z')`` at s = c + radius u from the :func:`moments` ``nu`` of the
    disk about c: sum_j nu_j u**j and its derivative in s, each of the shape
    of ``u``, an array of any shape. A point gets the same value alone as in
    any array. A u that is not finite raises :class:`DomainError`, one
    outside the disk, |u| > 1 beyond round-off, ``ValueError``."""
    u = np.asarray(u, dtype=np.complex128)
    if not np.abs(u).max(initial=0.0) <= 1.0 + 4.0 * _EPS:
        if not np.isfinite(u).all():
            raise DomainError("points must be finite")
        raise ValueError("points outside the disk: |u| > 1")
    powers = np.empty(u.shape + nu.shape, dtype=np.complex128)
    powers[..., 0] = 1.0
    powers[..., 1:] = u[..., np.newaxis]
    np.multiply.accumulate(powers, axis=-1, out=powers)
    zprime = (powers[..., :-1] * (nu[1:] * np.arange(1, len(nu)))).sum(axis=-1) / radius
    return (powers * nu).sum(axis=-1), zprime
