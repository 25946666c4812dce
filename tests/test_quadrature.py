import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import melroot as m


def test_exponential_decay_unit_integral():
    r = m.integrate_semi_infinite(lambda t: np.exp(-t))
    assert abs(r.value - 1.0) < 1e-10
    assert r.error < 1e-8


def test_gamma_two():
    r = m.integrate_semi_infinite(lambda t: t * np.exp(-t))
    assert abs(r.value - 1.0) < 1e-10


def test_mellin_integrand_cube():
    # z(t) t**(s-1) at s = 0.4 for z = t/cosh^2 t; cube of the value is a
    # published 10-digit cross-check
    r = m.integrate_semi_infinite(lambda t: t / np.cosh(t) ** 2 * t ** (-0.6))
    assert abs(r.value**3 - 0.4875296028) < 1e-7


def test_reports_error_estimate_and_evals():
    r = m.integrate_semi_infinite(lambda t: np.exp(-t))
    assert r.error >= 0.0
    assert r.evals >= 100


def test_scalar_integrand_rejected():
    # integrands are called once, on whole arrays: no scalar fallback
    import cmath

    with pytest.raises(TypeError):
        m.integrate_semi_infinite(lambda t: cmath.exp(-t))
    with pytest.raises(ValueError):
        m.integrate_semi_infinite(lambda t: 1.0)


def test_linearity():
    quad = m.QuadratureConfig()
    g1 = lambda t: np.exp(-t)
    g2 = lambda t: t * np.exp(-2.0 * t)
    a = 3.7 - 1.2j
    combined = m.integrate_semi_infinite(lambda t: a * g1(t) + g2(t), quad)
    r1 = m.integrate_semi_infinite(g1, quad)
    r2 = m.integrate_semi_infinite(g2, quad)
    tol = 2.0 * max(quad.abs_tol, quad.rel_tol * abs(combined.value))
    assert abs(combined.value - (a * r1.value + r2.value)) < tol


def test_nonconvergence_carries_best_estimate():
    quad = m.QuadratureConfig(max_evals=200)
    with pytest.raises(m.NonConvergenceError) as exc:
        # logarithmically divergent tail: never settles
        m.integrate_semi_infinite(lambda t: 1.0 / (1.0 + t), quad)
    assert exc.value.best_estimate is not None
    assert exc.value.error_estimate is not None


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rel_tol": 0.0},
        {"rel_tol": 1.5},
        {"abs_tol": -1e-3},
        {"max_evals": 50},
        {"truncation_decay": 0.0},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        m.QuadratureConfig(**kwargs)


class TestPeriodic:
    def test_oscillatory_orthogonality(self):
        v = m.integrate_periodic(lambda phi: np.exp(1j * phi), 16)
        assert abs(v) < 1e-14

    def test_constant(self):
        v = m.integrate_periodic(lambda phi: 1.0, 8)
        assert abs(v - 2.0 * math.pi) < 1e-14

    def test_spectral_convergence_on_analytic_integrand(self):
        k = lambda phi: np.exp(np.sin(phi)) + 1j * np.cos(2 * phi)
        a = m.integrate_periodic(k, 32)
        b = m.integrate_periodic(k, 64)
        assert abs(a - b) < 1e-10

    def test_rejects_nonpositive_nodes(self):
        with pytest.raises(ValueError):
            m.integrate_periodic(lambda phi: 1.0, 0)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.5, max_value=5.0))
def test_gamma_values_property(s):
    # int t**(s-1) e**-t dt = Gamma(s)
    r = m.integrate_semi_infinite(lambda t: t ** (s - 1.0) * np.exp(-t))
    assert abs(r.value - math.gamma(s)) < 1e-8 * max(1.0, math.gamma(s))
