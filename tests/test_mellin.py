import cmath
import math

import numpy as np
import pytest

import melroot as m
from melroot.logspace import transform_and_derivative

EXP_DECAY = m.MellinIntegrand(z=lambda t: np.exp(-t), convergence_strip=(0.0, math.inf))


def _never_called(t):
    raise AssertionError("z evaluated")


def euler_gamma_oracle():
    n = 2000
    h = sum(1.0 / k for k in range(1, n + 1))
    return h - math.log(n) - 1.0 / (2 * n) + 1.0 / (12 * n**2)


class TestTransform:
    def test_gamma_two(self):
        assert abs(m.transform(EXP_DECAY, 2.0).value - 1.0) < 1e-9

    def test_gamma_half(self):
        assert abs(m.transform(EXP_DECAY, 0.5).value - math.sqrt(math.pi)) < 1e-9

    def test_reference_cube(self, zeta_zf):
        v = m.transform(zeta_zf, 0.4).value
        assert abs(v**3 - 0.4875296028) < 1e-7

    def test_strip_enforced(self, zeta_zf):
        with pytest.raises(m.DomainError):
            m.transform(zeta_zf, -1.5)
        with pytest.raises(m.DomainError):
            m.transform(EXP_DECAY, 0.0)

    @pytest.mark.parametrize("s", [complex(0.4, math.nan), complex(0.4, math.inf), complex(math.nan, 0.0)])
    def test_non_finite_s_rejected(self, zeta_zf, s):
        # every sample would be NaN and zeroed, so the value would read 0
        with pytest.raises(m.DomainError):
            m.transform(zeta_zf, s)
        with pytest.raises(m.DomainError):
            m.power_transform(zeta_zf, 3, s)
        with pytest.raises(m.DomainError):
            m.deriv_times_power(zeta_zf, 1, s)

    def test_interior_nan_rejected(self):
        points = []

        def z(t):
            points.append(t.size)
            return np.where((t > 1.0) & (t < 2.0), math.nan, np.exp(-t))

        with pytest.raises(m.DomainError):
            m.transform(m.MellinIntegrand(z=z, convergence_strip=(0.0, math.inf)), 1.0)
        # the first halving samples 1 < t < 2; the budget is 200,000
        assert sum(points) < 1_000

    def test_all_nan_rejected(self):
        # NaN at every coarse abscissa would otherwise read as Z = 0
        zf = m.MellinIntegrand(z=lambda t: np.full_like(t, math.nan), convergence_strip=(0.0, math.inf))
        with pytest.raises(m.DomainError):
            m.transform(zf, 1.0)

    def test_analyticity_cauchy_riemann(self, zeta_zf):
        # finite differences along the real and imaginary directions agree
        s = 0.8 + 1.1j
        h = 1e-5
        quad = m.QuadratureConfig(rel_tol=1e-11, abs_tol=1e-14)
        d_re = (m.transform(zeta_zf, s + h, quad).value - m.transform(zeta_zf, s - h, quad).value) / (2 * h)
        d_im = (m.transform(zeta_zf, s + 1j * h, quad).value - m.transform(zeta_zf, s - 1j * h, quad).value) / (2j * h)
        assert abs(d_re - d_im) < 1e-5


class TestTransformDerivative:
    def test_gamma_prime_at_one(self):
        assert abs(m.transform_derivative(EXP_DECAY, 1.0).value + euler_gamma_oracle()) < 1e-9

    def test_matches_finite_difference(self, zeta_zf):
        s = 0.57 + 1.57j
        h = 1e-5
        quad = m.QuadratureConfig(rel_tol=1e-11, abs_tol=1e-14)
        fd = (m.transform(zeta_zf, s + h, quad).value - m.transform(zeta_zf, s - h, quad).value) / (2 * h)
        assert abs(m.transform_derivative(zeta_zf, s).value - fd) < 1e-6

    def test_strip_enforced(self, zeta_zf):
        with pytest.raises(m.DomainError):
            m.transform_derivative(zeta_zf, -2.0)


class TestPowerTransform:
    def test_k1_delegates_to_transform(self):
        assert abs(m.power_transform(EXP_DECAY, 1, 2.0).value - 1.0) < 1e-9

    def test_threefold_real(self, zeta_zf):
        quad = m.QuadratureConfig(rel_tol=1e-9, abs_tol=1e-13)
        v = m.power_transform(zeta_zf, 3, 0.4, quad).value
        assert abs(v - 0.4875296028) < 1e-8

    def test_threefold_complex(self, zeta_zf):
        quad = m.QuadratureConfig(rel_tol=1e-9, abs_tol=1e-13)
        v = m.power_transform(zeta_zf, 3, 0.4 - 0.3j, quad).value
        assert abs(v - (0.4103824778 + 0.1549090396j)) < 1e-8

    @pytest.mark.parametrize("s", [0.4 + 0j, 0.4 - 0.3j])
    def test_fourfold_matches_fourth_power(self, zeta_zf, s):
        direct = m.transform(zeta_zf, s).value ** 4
        assert abs(m.power_transform(zeta_zf, 4, s).value - direct) < 1e-10 * abs(direct)

    @pytest.mark.parametrize("k", [0, -1, 2.5])
    def test_order_must_be_positive_integer(self, k):
        zf = m.MellinIntegrand(z=_never_called)
        with pytest.raises(ValueError, match="integer"):
            m.power_transform(zf, k, 0.5)

    def test_convolution_identity_random_points(self, zeta_zf):
        rng = np.random.default_rng(11)
        quad = m.QuadratureConfig(rel_tol=1e-8, abs_tol=1e-11)
        for _ in range(50):
            s = complex(rng.uniform(0.3, 1.7), rng.uniform(-3.0, 3.0))
            direct = m.transform(zeta_zf, s, quad).value
            conv2 = m.power_transform(zeta_zf, 2, s, quad).value
            assert abs(conv2 - direct**2) < 10.0 * max(quad.abs_tol, quad.rel_tol * abs(conv2)) + 1e-10

    def test_convolution_identity_threefold_random(self, zeta_zf):
        rng = np.random.default_rng(17)
        quad = m.QuadratureConfig(rel_tol=1e-7, abs_tol=1e-10)
        for _ in range(50):
            s = complex(rng.uniform(0.3, 1.7), rng.uniform(-3.0, 3.0))
            direct = m.transform(zeta_zf, s, quad).value
            conv3 = m.power_transform(zeta_zf, 3, s, quad).value
            assert abs(conv3 - direct**3) < 10.0 * max(quad.abs_tol, quad.rel_tol * abs(conv3)) + 1e-8


class TestDerivTimesPower:
    def test_k0_is_derivative(self, zeta_zf):
        s = 0.7 + 0.3j
        a = m.deriv_times_power(zeta_zf, 0, s).value
        b = m.transform_derivative(zeta_zf, s).value
        assert a == b

    def test_k1_matches_product_of_separate_integrals(self, zeta_zf):
        s = 0.57 + 1.57j + 0.1
        prod = m.deriv_times_power(zeta_zf, 1, s).value
        sep = m.transform_derivative(zeta_zf, s).value * m.transform(zeta_zf, s).value
        assert abs(prod - sep) < 1e-6

    def test_k1_gamma_oracle(self):
        # z = t e^{-t} has Z(s) = Gamma(s+1), so Z'(1) Z(1) = (1 - gamma)
        zf = m.MellinIntegrand(z=lambda t: t * np.exp(-t), convergence_strip=(-1.0, math.inf))
        v = m.deriv_times_power(zf, 1, 1.0).value
        assert abs(v - (1.0 - euler_gamma_oracle())) < 1e-8

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("s", [0.4 + 0j, 0.4 - 0.3j])
    def test_higher_orders_match_products(self, zeta_zf, s, k):
        direct = m.transform_derivative(zeta_zf, s).value * m.transform(zeta_zf, s).value ** k
        assert abs(m.deriv_times_power(zeta_zf, k, s).value - direct) < 1e-10 * abs(direct)

    @pytest.mark.parametrize("k", [-1, 0.5])
    def test_order_must_be_non_negative_integer(self, k):
        zf = m.MellinIntegrand(z=_never_called)
        with pytest.raises(ValueError, match="integer"):
            m.deriv_times_power(zf, k, 0.5)


class TestNestedConvolution:
    def test_z_called_on_arrays_only(self, zeta_zf):
        args = []

        def z(t):
            args.append(type(t))
            return m.z_integrand(t)

        zf = m.MellinIntegrand(z=z, convergence_strip=zeta_zf.convergence_strip)
        s = 0.4 - 0.3j
        for k in (1, 2, 3):
            m.power_transform(zf, k, s)
        for k in (0, 1):
            m.deriv_times_power(zf, k, s)
        assert args and set(args) == {np.ndarray}

    def test_inner_integrals_batched(self, zeta_zf):
        # one z call per block of outer abscissae, not one per abscissa
        calls = []

        def z(t):
            calls.append(t.shape)
            return m.z_integrand(t)

        zf = m.MellinIntegrand(z=z, convergence_strip=zeta_zf.convergence_strip)
        m.power_transform(zf, 3, 0.4 - 0.3j)
        assert len(calls) < 1000

    def test_converged_rows_save_z_points(self, zeta_zf):
        # one inner quadrature per abscissa evaluated z at 296,647 points for
        # this Z**3; batched rows that stop refining once they converge must
        # not cost more
        points = []

        def z(t):
            points.append(t.size)
            return m.z_integrand(t)

        zf = m.MellinIntegrand(z=z, convergence_strip=zeta_zf.convergence_strip)
        m.power_transform(zf, 3, 0.4 - 0.3j)
        assert sum(points) < 296_647

    def test_inner_levels_stay_real(self, zeta_zf, monkeypatch):
        # for a real z only the outer t**(s-1) weight is complex
        quadrature = m.mellin.integrate_semi_infinite
        inner = []

        def recording(g, quad=None, rows=None):
            r = quadrature(g, quad, rows)
            if rows is not None:
                inner.append(r.value.dtype)
            return r

        monkeypatch.setattr(m.mellin, "integrate_semi_infinite", recording)
        r = m.power_transform(zeta_zf, 3, 0.4 - 0.3j)
        assert inner and set(inner) == {np.dtype(np.float64)}
        assert isinstance(r.value, complex)

    def test_inner_failure_reports_dimension(self, zeta_zf):
        # the innermost of the two levels runs out of evaluations first
        with pytest.raises(m.NonConvergenceError) as exc:
            m.power_transform(zeta_zf, 2, 0.5, m.QuadratureConfig(max_evals=100))
        assert exc.value.dimension == 1


def _circle(center, radius, nodes):
    """Nodes of a circle and the span of Re s they lie in."""
    s = center + radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    return s, (center.real - radius, center.real + radius)


class TestConvolutionPowers:
    def test_exp_decay_gamma_closed_forms(self):
        # z = e**-t: Z = Gamma(s) and Z' Z = psi(s) Gamma(s)**2
        import mpmath as mp

        s, re_range = _circle(1.0 + 0.5j, 0.3, 16)
        z, zprime = transform_and_derivative(EXP_DECAY, s, re_range)
        for i, si in enumerate(s):
            gamma = complex(mp.gamma(si))
            zp_z = complex(mp.digamma(si)) * gamma**2
            assert abs(z[i] - gamma) <= 1e-12 * abs(gamma)
            assert abs(zprime[i] * z[i] - zp_z) <= 1e-12 * abs(zp_z)

    def test_finite_strip_edge(self):
        # z = 1/(1+t) on the strip (0, 1): Z = pi / sin(pi s); the grid's
        # right end comes from the strip's upper edge
        zf = m.MellinIntegrand(z=lambda t: 1.0 / (1.0 + t), convergence_strip=(0.0, 1.0))
        s, re_range = _circle(0.5 + 0.5j, 0.2, 16)
        z, _ = transform_and_derivative(zf, s, re_range)
        for i, si in enumerate(s):
            exact = math.pi / cmath.sin(math.pi * si)
            assert abs(z[i] - exact) <= 1e-12 * abs(exact)
            assert abs(z[i] * z[i] - exact * exact) <= 1e-12 * abs(exact * exact)

    @pytest.mark.parametrize("center,radius,nodes", [(0.57 + 1.57j, 0.1, 64), (1.0 + 0j, 0.1, 16)])
    def test_matches_adaptive_convolutions(self, zeta_zf, center, radius, nodes):
        # the reference circle and the pole circle
        s, re_range = _circle(center, radius, nodes)
        z, zprime = transform_and_derivative(zeta_zf, s, re_range)
        for i, si in enumerate(s):
            z2 = m.power_transform(zeta_zf, 2, si).value
            zp_z = m.deriv_times_power(zeta_zf, 1, si).value
            assert abs(z[i] * z[i] - z2) <= 1e-9 * abs(z2)
            assert abs(zprime[i] * z[i] - zp_z) <= 1e-9 * abs(zp_z)

    def test_scanned_side_trimmed(self, zeta_zf):
        # the strip (-1, inf) has no upper edge: the grid must end where
        # t / cosh(t)**2 dies out (near t = e**3.5), not where the scan ends
        sizes = []

        def z(t):
            sizes.append(t.size)
            return m.z_integrand(t)

        zf = m.MellinIntegrand(z=z, convergence_strip=zeta_zf.convergence_strip)
        s, re_range = _circle(0.57 + 1.57j, 0.1, 64)
        transform_and_derivative(zf, s, re_range)
        assert sum(sizes) < 400

    def test_compact_support_matches_adaptive_transforms(self):
        # z is exactly 0 for t >= 3, so the sampler forms no exponential on
        # most of the coarse pass, which scans out to t = e**40
        def z(t):
            with np.errstate(divide="ignore"):
                return np.exp(-1.0 / np.maximum(3.0 - t, 0.0))

        zf = m.MellinIntegrand(z=z, convergence_strip=(0.0, math.inf))
        s = np.array([0.5 + 0j, 1.0 + 2.0j, 1.7 - 0.5j, 0.8 + 8.0j])
        z_values, zprime = transform_and_derivative(zf, s, (0.5, 1.7))
        for i, si in enumerate(s):
            exact = m.transform(zf, si).value
            exact_prime = m.transform_derivative(zf, si).value
            assert abs(z_values[i] - exact) <= 1e-10 * abs(exact)
            assert abs(zprime[i] - exact_prime) <= 1e-10 * abs(exact_prime)

    def test_no_nodes(self, zeta_zf):
        calls = []

        def z(t):
            calls.append(t)
            return m.z_integrand(t)

        zf = m.MellinIntegrand(z=z, convergence_strip=zeta_zf.convergence_strip)
        empty = transform_and_derivative(zf, [], (0.5, 0.6))
        assert [values.shape for values in empty] == [(0,), (0,)]
        assert not calls

    @pytest.mark.parametrize("node", [complex(0.55, math.nan), complex(0.55, math.inf)])
    def test_non_finite_node_rejected(self, zeta_zf, node):
        # rejected before z is evaluated, not after the grid budget runs out
        calls = []

        def z(t):
            calls.append(t)
            return m.z_integrand(t)

        zf = m.MellinIntegrand(z=z, convergence_strip=zeta_zf.convergence_strip)
        with pytest.raises(m.DomainError):
            transform_and_derivative(zf, [0.55 + 1j, node], (0.5, 0.6))
        assert not calls

    def test_input_checks(self, zeta_zf):
        with pytest.raises(m.DomainError):
            transform_and_derivative(zeta_zf, [-1.1 + 0j], (-1.2, -0.8))
        with pytest.raises(ValueError):
            transform_and_derivative(zeta_zf, [0.9 + 0j], (0.4, 0.6))

    @pytest.mark.parametrize(
        "z,error",
        [
            # NaN on 1 < t < 2, inside the support that the grid keeps
            (lambda t: np.where((t > 1.0) & (t < 2.0), math.nan, m.z_integrand(t)), m.DomainError),
            # 0 everywhere: no column is live, and Z = 0 at every node
            (np.zeros_like, m.DomainError),
            (lambda t: m.z_integrand(t)[:-1], ValueError),
        ],
        ids=["nan-inside", "vanishing", "wrong-shape"],
    )
    def test_bad_z_rejected(self, zeta_zf, z, error):
        zf = m.MellinIntegrand(z=z, convergence_strip=zeta_zf.convergence_strip)
        s, re_range = _circle(0.57 + 1.57j, 0.1, 8)
        with pytest.raises(error):
            transform_and_derivative(zf, s, re_range)

    def test_nonconvergence_carries_z_and_zprime(self, zeta_zf):
        s, re_range = _circle(0.57 + 1.57j, 0.1, 8)
        with pytest.raises(m.NonConvergenceError) as exc:
            transform_and_derivative(zeta_zf, s, re_range, m.QuadratureConfig(max_evals=200))
        best = exc.value.best_estimate
        assert isinstance(best, tuple) and len(best) == 2
        for values in best:
            assert values.shape == (8,)
            assert np.all(np.isfinite(values))


def test_integrand_validation():
    with pytest.raises(ValueError):
        m.MellinIntegrand(z=lambda t: t, convergence_strip=(2.0, 1.0))
