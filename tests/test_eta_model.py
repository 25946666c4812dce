"""A second factored model that the package does not ship: the Dirichlet eta
function, eta(s) = K(s) Z(s) with z(t) = 1 / (e**t + 1), whose Mellin
transform is Z(s) = Gamma(s) eta(s) on Re s > 0, so K = 1 / Gamma and
K' = -psi / Gamma. mpmath's ``altzeta`` is its reference."""

import math

import mpmath as mp
import numpy as np
import pytest

import melroot as m
from melroot.mellin import moments, power_sums
from melroot.numerics import _gamma_pass, elementwise

FIRST_ZETA_ZERO = 0.5 + 14.134725141734693j
# 1 - 2**(1-s) vanishes at 1 + 2 pi i / ln 2, a zero of eta but not of zeta
ETA_FACTOR_ZERO = complex(1.0, 2.0 * math.pi / math.log(2.0))


def eta_z(t):
    """1 / (e**t + 1), without overflow for large t."""
    e = np.exp(-t)
    return e / (1.0 + e)


@elementwise
def eta_K(s):
    return np.exp(-_gamma_pass(s)[0])


@elementwise
def eta_Kprime(s):
    log_gamma, psi = _gamma_pass(s)
    return -psi * np.exp(-log_gamma)


def _mp(fn):
    """An elementwise reference from an mpmath function of one point."""
    return elementwise(np.vectorize(lambda s: complex(fn(complex(s))), otypes=[complex]))


@pytest.fixture(scope="module")
def eta_ff():
    mp.mp.dps = 30
    return m.FactoredFunction(
        zf=m.MellinIntegrand(z=eta_z, convergence_strip=(0.0, math.inf)),
        K=eta_K,
        Kprime=eta_Kprime,
        f_reference=_mp(mp.altzeta),
        fprime_reference=_mp(lambda s: mp.diff(mp.altzeta, s)),
    )


@pytest.mark.parametrize(
    "center, radius, count",
    [
        pytest.param(ETA_FACTOR_ZERO, 0.1, 1, id="eta-factor-zero"),
        pytest.param(0.5 + 1j, 0.2, 0, id="no-zero"),
        pytest.param(FIRST_ZETA_ZERO, 0.05, 1, id="first-zeta-zero"),
    ],
)
def test_count_direct(eta_ff, center, radius, count):
    result = m.count_direct(eta_ff, m.CircularContour(center, radius, nodes=32))
    assert result.rounded == count
    assert result.reliable


@pytest.mark.parametrize("center, radius", [(0.57 + 1.57j, 0.1), (2.0 + 0j, 0.5), (1.0 + 3.0j, 0.3)])
def test_moments_match_gamma_eta(eta_ff, center, radius):
    # disks at small Im s, where |Z| does not fall far below the sum of |w|
    nu, _ = moments(eta_ff.zf, center, radius)
    u = np.exp(2j * math.pi * np.arange(16) / 16) * np.array([1.0, 0.5] * 8)
    Z, Zprime = power_sums(nu, u, radius)
    for s, z, zp in zip(center + radius * u, Z, Zprime):
        exact = mp.gamma(s) * mp.altzeta(s)
        exact_prime = mp.diff(lambda x: mp.gamma(x) * mp.altzeta(x), s)
        assert abs(z - complex(exact)) < 1e-12 * abs(complex(exact))
        assert abs(zp - complex(exact_prime)) < 1e-11 * abs(complex(exact_prime))
        # K Z is the model's f
        assert abs(eta_ff.K(s) * z - complex(mp.altzeta(s))) < 1e-12 * abs(complex(mp.altzeta(s)))
