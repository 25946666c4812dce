import cmath
import math
import time

import numpy as np
import pytest

import melroot as m
from melroot.mellin import moments, power_sums
from melroot.quadrature import ABS_TOL, REL_TOL

EXP_DECAY = m.MellinIntegrand(z=lambda t: np.exp(-t), convergence_strip=(0.0, math.inf))
# e**(-(ln t)**2 / 2000): an entire Z, and a density that is still e**-0.8
# at the scan's end, |ln t| = 40
LOG_NORMAL = m.MellinIntegrand(z=lambda t: np.exp(-np.log(t) ** 2 / 2000.0), convergence_strip=(-math.inf, math.inf))


def _never_called(t):
    raise AssertionError("z evaluated")


def euler_gamma_oracle():
    n = 2000
    h = sum(1.0 / k for k in range(1, n + 1))
    return h - math.log(n) - 1.0 / (2 * n) + 1.0 / (12 * n**2)


class TestTransform:
    def test_gamma_half(self):
        assert abs(m.power_transform(EXP_DECAY, 1, 0.5).value - math.sqrt(math.pi)) < 1e-9

    def test_reference_cube(self, zeta_zf):
        v = m.power_transform(zeta_zf, 1, 0.4).value
        assert abs(v**3 - 0.4875296028) < 1e-7

    def test_strip_enforced(self, zeta_zf):
        with pytest.raises(m.DomainError):
            m.power_transform(zeta_zf, 1, -1.5)
        with pytest.raises(m.DomainError):
            m.power_transform(EXP_DECAY, 1, 0.0)

    @pytest.mark.parametrize("s", [complex(0.4, math.nan), complex(0.4, math.inf), complex(math.nan, 0.0)])
    def test_non_finite_s_rejected(self, zeta_zf, s):
        # every sample would be NaN and zeroed, so the value would read 0
        with pytest.raises(m.DomainError):
            m.power_transform(zeta_zf, 1, s)
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
            m.power_transform(m.MellinIntegrand(z=z, convergence_strip=(0.0, math.inf)), 1, 1.0)
        # the first halving samples 1 < t < 2; the budget is 200,000
        assert sum(points) < 1_000

    def test_all_nan_rejected(self):
        # NaN at every coarse abscissa would otherwise read as Z = 0
        zf = m.MellinIntegrand(z=lambda t: np.full_like(t, math.nan), convergence_strip=(0.0, math.inf))
        with pytest.raises(m.DomainError):
            m.power_transform(zf, 1, 1.0)

    def test_analyticity_cauchy_riemann(self, zeta_zf):
        # finite differences along the real and imaginary directions agree
        s = 0.8 + 1.1j
        h = 1e-5

        def z(x):
            return m.power_transform(zeta_zf, 1, x).value

        d_re = (z(s + h) - z(s - h)) / (2 * h)
        d_im = (z(s + 1j * h) - z(s - 1j * h)) / (2j * h)
        assert abs(d_re - d_im) < 1e-5


class TestTransformDerivative:
    def test_gamma_prime_at_one(self):
        assert abs(m.deriv_times_power(EXP_DECAY, 0, 1.0).value + euler_gamma_oracle()) < 1e-9

    def test_matches_finite_difference(self, zeta_zf):
        s = 0.57 + 1.57j
        h = 1e-5
        fd = m.power_transform(zeta_zf, 1, s + h).value - m.power_transform(zeta_zf, 1, s - h).value
        fd /= 2 * h
        assert abs(m.deriv_times_power(zeta_zf, 0, s).value - fd) < 1e-6

    def test_strip_enforced(self, zeta_zf):
        with pytest.raises(m.DomainError):
            m.deriv_times_power(zeta_zf, 0, -2.0)


class TestPowerTransform:
    def test_k1_is_z(self):
        assert abs(m.power_transform(EXP_DECAY, 1, 2.0).value - 1.0) < 1e-9

    def test_threefold_real(self, zeta_zf):
        v = m.power_transform(zeta_zf, 3, 0.4).value
        assert abs(v - 0.4875296028) < 1e-8

    def test_threefold_complex(self, zeta_zf):
        v = m.power_transform(zeta_zf, 3, 0.4 - 0.3j).value
        assert abs(v - (0.4103824778 + 0.1549090396j)) < 1e-8

    @pytest.mark.parametrize("s", [0.4 + 0j, 0.4 - 0.3j])
    def test_fourfold_matches_fourth_power(self, zeta_zf, s):
        direct = m.power_transform(zeta_zf, 1, s).value ** 4
        assert abs(m.power_transform(zeta_zf, 4, s).value - direct) < 1e-10 * abs(direct)

    @pytest.mark.parametrize("k", [0, -1, 2.5])
    def test_order_must_be_positive_integer(self, k):
        zf = m.MellinIntegrand(z=_never_called)
        with pytest.raises(ValueError, match="integer"):
            m.power_transform(zf, k, 0.5)

    def test_convolution_identity_random_points(self, zeta_zf):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = complex(rng.uniform(0.3, 1.7), rng.uniform(-3.0, 3.0))
            direct = m.power_transform(zeta_zf, 1, s).value
            conv2 = m.power_transform(zeta_zf, 2, s).value
            assert abs(conv2 - direct**2) < 10.0 * max(ABS_TOL, REL_TOL * abs(conv2)) + 1e-10

    def test_convolution_identity_threefold_random(self, zeta_zf):
        rng = np.random.default_rng(17)
        for _ in range(50):
            s = complex(rng.uniform(0.3, 1.7), rng.uniform(-3.0, 3.0))
            direct = m.power_transform(zeta_zf, 1, s).value
            conv3 = m.power_transform(zeta_zf, 3, s).value
            assert abs(conv3 - direct**3) < 10.0 * max(ABS_TOL, REL_TOL * abs(conv3)) + 1e-8


class TestDerivTimesPower:
    def test_k0_is_derivative(self, zeta_zf):
        # Z'(s) is the transform of ln(t) z(t)
        s = 0.7 + 0.3j
        a = m.deriv_times_power(zeta_zf, 0, s).value
        log_weighted = m.MellinIntegrand(lambda t: np.log(t) * zeta_zf.z(t), zeta_zf.convergence_strip)
        b = m.power_transform(log_weighted, 1, s).value
        assert a == b

    def test_k1_matches_product_of_separate_integrals(self, zeta_zf):
        s = 0.57 + 1.57j + 0.1
        prod = m.deriv_times_power(zeta_zf, 1, s).value
        sep = m.deriv_times_power(zeta_zf, 0, s).value * m.power_transform(zeta_zf, 1, s).value
        assert abs(prod - sep) < 1e-6

    def test_k1_gamma_oracle(self):
        # z = t e^{-t} has Z(s) = Gamma(s+1), so Z'(1) Z(1) = (1 - gamma)
        zf = m.MellinIntegrand(z=lambda t: t * np.exp(-t), convergence_strip=(-1.0, math.inf))
        v = m.deriv_times_power(zf, 1, 1.0).value
        assert abs(v - (1.0 - euler_gamma_oracle())) < 1e-8

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("s", [0.4 + 0j, 0.4 - 0.3j])
    def test_higher_orders_match_products(self, zeta_zf, s, k):
        direct = m.deriv_times_power(zeta_zf, 0, s).value * m.power_transform(zeta_zf, 1, s).value ** k
        assert abs(m.deriv_times_power(zeta_zf, k, s).value - direct) < 1e-10 * abs(direct)

    @pytest.mark.parametrize("k", [-1, 0.5])
    def test_order_must_be_non_negative_integer(self, k):
        zf = m.MellinIntegrand(z=_never_called)
        with pytest.raises(ValueError, match="integer"):
            m.deriv_times_power(zf, k, 0.5)


def _zeta_over_k(s):
    """Z(s) = zeta(s) / K(s) = 2**(1-s) Gamma(s+1) eta(s) and Z'(s) for
    zeta's z, from mpmath."""
    import mpmath as mp

    def z(x):
        return mp.power(2, 1 - x) * mp.gamma(x + 1) * mp.altzeta(x)

    with mp.workdps(30):
        s = mp.mpc(s)
        return complex(z(s)), complex(mp.diff(z, s))


class TestLeftOfZero:
    # Left of Re s = 0 the outer weight t**(s-1) amplifies the inner levels'
    # errors near t = 0: Z**2 at -0.5 - 2i was 3.4e-6 off while claiming
    # 7e-11, and Z**3 and Z' Z raised NonConvergenceError after about a second

    @pytest.mark.parametrize("s", [-0.5 - 2j, -0.8 + 0.5j, -0.2 + 1j])
    def test_nested_orders_refused_before_z(self, s):
        zf = m.MellinIntegrand(z=_never_called, convergence_strip=(-1.0, math.inf))
        start = time.perf_counter()
        for k in (2, 3):
            with pytest.raises(m.DomainError, match="amplifies the inner levels' errors past their estimates"):
                m.power_transform(zf, k, s)
        for k in (1, 2):
            with pytest.raises(m.DomainError, match="amplifies the inner levels' errors past their estimates"):
                m.deriv_times_power(zf, k, s)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("s", [-0.5 - 2j, -0.8 + 0.5j])
    def test_single_integrals_still_answer(self, zeta_zf, s):
        # Z and Z' are one integral each, and right there
        z, zprime = _zeta_over_k(s)
        assert abs(m.power_transform(zeta_zf, 1, s).value - z) <= 1e-12 * abs(z)
        assert abs(m.deriv_times_power(zeta_zf, 0, s).value - zprime) <= 1e-12 * abs(zprime)

    def test_nested_orders_answer_just_right_of_zero(self, zeta_zf):
        s = 1e-4 - 1j
        z, zprime = _zeta_over_k(s)
        for value, exact in [
            (m.power_transform(zeta_zf, 2, s).value, z**2),
            (m.power_transform(zeta_zf, 3, s).value, z**3),
            (m.deriv_times_power(zeta_zf, 1, s).value, zprime * z),
        ]:
            assert abs(value - exact) <= 1e-12 * abs(exact)


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

        def recording(g, rows=None, tighten=0):
            r = quadrature(g, rows, tighten)
            if rows is not None:
                inner.append(r.value.dtype)
            return r

        monkeypatch.setattr(m.mellin, "integrate_semi_infinite", recording)
        r = m.power_transform(zeta_zf, 3, 0.4 - 0.3j)
        assert inner and set(inner) == {np.dtype(np.float64)}
        assert isinstance(r.value, complex)

    def test_inner_failure_reports_dimension(self, zeta_zf, monkeypatch):
        # the innermost of the two levels runs out of evaluations first
        monkeypatch.setattr(m.quadrature, "MAX_EVALS", 100)
        with pytest.raises(m.NonConvergenceError) as exc:
            m.power_transform(zeta_zf, 2, 0.5)
        assert exc.value.dimension == 1


def _rim(nodes):
    """The points u of the unit circle where a disk's rim has its nodes."""
    return np.exp(2j * np.pi * np.arange(nodes) / nodes)


def _on_disk(zf, center, radius, u):
    """Z and Z' at center + radius u from the moments of the disk."""
    nu, _ = moments(zf, center, radius)
    return power_sums(nu, u, radius)


def _counted(calls):
    """The zeta density, recording each array of t it is called on."""

    def z(t):
        calls.append(t)
        return m.z_integrand(t)

    return m.MellinIntegrand(z=z, convergence_strip=(-1.0, math.inf))


class TestConvolutionPowers:
    def test_exp_decay_gamma_closed_forms(self):
        # z = e**-t: Z = Gamma(s) and Z' Z = psi(s) Gamma(s)**2
        import mpmath as mp

        u = _rim(16)
        z, zprime = _on_disk(EXP_DECAY, 1.0 + 0.5j, 0.3, u)
        for i, si in enumerate(1.0 + 0.5j + 0.3 * u):
            gamma = complex(mp.gamma(si))
            zp_z = complex(mp.digamma(si)) * gamma**2
            assert abs(z[i] - gamma) <= 1e-12 * abs(gamma)
            assert abs(zprime[i] * z[i] - zp_z) <= 1e-12 * abs(zp_z)

    def test_finite_strip_edge(self):
        # z = 1/(1+t) on the strip (0, 1): Z = pi / sin(pi s); the grid's
        # right end comes from the strip's upper edge
        zf = m.MellinIntegrand(z=lambda t: 1.0 / (1.0 + t), convergence_strip=(0.0, 1.0))
        u = _rim(16)
        z, _ = _on_disk(zf, 0.5 + 0.5j, 0.2, u)
        for i, si in enumerate(0.5 + 0.5j + 0.2 * u):
            exact = math.pi / cmath.sin(math.pi * si)
            assert abs(z[i] - exact) <= 1e-12 * abs(exact)
            assert abs(z[i] * z[i] - exact * exact) <= 1e-12 * abs(exact * exact)

    def test_overflowing_weight_in_log_space(self):
        # z = (1+t)**-3 on the strip (0, 3): Z = Gamma(s) Gamma(3-s) / 2. Next
        # to the upper edge the grid runs to x ~ 490, where e**(c x) overflows
        # and z has underflowed to 0, so the density is formed in log space
        import mpmath as mp

        zf = m.MellinIntegrand(z=lambda t: (1.0 + t) ** -3.0, convergence_strip=(0.0, 3.0))
        u = _rim(8)
        z, zprime = _on_disk(zf, 2.8 + 0.5j, 0.1, u)
        for i, si in enumerate(2.8 + 0.5j + 0.1 * u):
            exact = complex(mp.gamma(si) * mp.gamma(3 - si) / 2)
            exact_prime = complex((mp.digamma(si) - mp.digamma(3 - si)) * exact)
            assert abs(z[i] - exact) <= 1e-10 * abs(exact)
            assert abs(zprime[i] - exact_prime) <= 1e-8 * abs(exact_prime)

    @pytest.mark.parametrize("center,radius,nodes", [(0.57 + 1.57j, 0.1, 64), (1.0 + 0j, 0.1, 16)])
    def test_matches_adaptive_convolutions(self, zeta_zf, center, radius, nodes):
        # the reference circle and the pole circle
        u = _rim(nodes)
        z, zprime = _on_disk(zeta_zf, center, radius, u)
        for i, si in enumerate(center + radius * u):
            z2 = m.power_transform(zeta_zf, 2, si).value
            zp_z = m.deriv_times_power(zeta_zf, 1, si).value
            assert abs(z[i] * z[i] - z2) <= 1e-9 * abs(z2)
            assert abs(zprime[i] * z[i] - zp_z) <= 1e-9 * abs(zp_z)

    def test_scanned_side_trimmed(self):
        # the strip (-1, inf) has no upper edge: the grid must end where
        # t / cosh(t)**2 dies out (near t = e**3.5), not where the scan ends
        calls = []
        moments(_counted(calls), 0.57 + 1.57j, 0.1)
        assert sum(t.size for t in calls) < 400

    def test_compact_support_matches_adaptive_transforms(self):
        # z is exactly 0 for t >= 3, so the density is 0 on most of the
        # coarse pass, which scans out to t = e**40; each point lies off the
        # centre of its own disk
        def z(t):
            with np.errstate(divide="ignore"):
                return np.exp(-1.0 / np.maximum(3.0 - t, 0.0))

        zf = m.MellinIntegrand(z=z, convergence_strip=(0.0, math.inf))
        for si in (0.5 + 0j, 1.0 + 2.0j, 1.7 - 0.5j, 0.8 + 8.0j):
            z_value, zprime = _on_disk(zf, si + 0.05, 0.1, -0.5)
            exact = m.power_transform(zf, 1, si).value
            exact_prime = m.deriv_times_power(zf, 0, si).value
            assert abs(z_value - exact) <= 1e-10 * abs(exact)
            assert abs(zprime - exact_prime) <= 1e-10 * abs(exact_prime)

    def test_large_disk_keeps_its_digits_or_reports_them(self):
        # z = exp(-1/(3-t)) on t < 3, with a pole of Z at the strip edge s = 0.
        # The disk about 0.8 of radius 0.4 reaches to Re s = 0.4 and matches
        # a multiprecision quadrature at s = 0.5. The disk about 3 of radius
        # 2.6 has a slow series that its M cuts short: Z is 1e-7 off on its
        # rim, and the error estimate says so
        import mpmath as mp

        def z(t):
            with np.errstate(divide="ignore"):
                return np.exp(-1.0 / np.maximum(3.0 - t, 0.0))

        zf = m.MellinIntegrand(z=z, convergence_strip=(0.0, math.inf))
        z_value, zprime = _on_disk(zf, 0.8, 0.4, -0.75)
        with mp.workdps(30):
            exact = complex(mp.quad(lambda t: mp.exp(-1 / (3 - t)) / mp.sqrt(t), [0, 1, 2, 3]))
            exact_prime = complex(mp.quad(lambda t: mp.exp(-1 / (3 - t)) * mp.log(t) / mp.sqrt(t), [0, 1, 2, 3]))
        assert abs(z_value - exact) <= 1e-12 * abs(exact)
        assert abs(zprime - exact_prime) <= 1e-12 * abs(exact_prime)
        _, (error, _) = moments(zf, 0.8, 0.4)
        assert error <= 1e-12 * abs(exact)

        nu, (error, error_prime) = moments(zf, 3.0, 2.6)
        z_rim, zprime_rim = power_sums(nu, -1.0, 2.6)
        assert abs(z_rim - m.power_transform(zf, 1, 0.4).value) > 1e-8 * abs(z_rim)
        assert error > 1e-8 * abs(z_rim) and error_prime > 1e-8 * abs(zprime_rim)

    def test_no_nodes(self):
        calls = []
        nu, _ = moments(_counted(calls), 0.55 + 0j, 0.05)
        built = len(calls)
        empty = power_sums(nu, [], 0.05)
        assert [values.shape for values in empty] == [(0,), (0,)]
        assert len(calls) == built

    @pytest.mark.parametrize("node", [complex(0.0, math.nan), complex(math.inf, 0.0)])
    def test_non_finite_node_rejected(self, node):
        # evaluation takes the moments: it calls z no more
        calls = []
        nu, _ = moments(_counted(calls), 0.55 + 1j, 0.05)
        built = len(calls)
        with pytest.raises(m.DomainError):
            power_sums(nu, [0.0, node], 0.05)
        assert len(calls) == built

    def test_input_checks(self, zeta_zf):
        # the disk must lie inside the strip, with a finite centre and radius,
        # before z is evaluated
        zf = m.MellinIntegrand(z=_never_called, convergence_strip=zeta_zf.convergence_strip)
        disks = [(-1.0 + 0j, 0.2), (0.5 + 0j, 1.6), (complex(math.nan, 0.0), 0.1), (complex(0.5, math.inf), 0.1)]
        for center, radius in disks:
            with pytest.raises(m.DomainError):
                moments(zf, center, radius)
        for radius in (0.0, -0.1, math.inf, math.nan):
            with pytest.raises(ValueError):
                moments(zf, 0.5 + 0j, radius)

    def test_point_outside_disk_rejected(self):
        calls = []
        nu, _ = moments(_counted(calls), 0.57 + 1.57j, 0.1)
        built = len(calls)
        with pytest.raises(ValueError):
            power_sums(nu, [0.0, 1.1j], 0.1)
        assert len(calls) == built

    def test_points_of_any_shape(self, zeta_zf):
        # one set of moments: each point gets the same value in any array
        nu, _ = moments(zeta_zf, 0.57 + 1.57j, 0.1)
        u = np.array([0.0, 0.5, 1j, -0.9, 0.3 - 0.3j, 1.0])
        z, zprime = power_sums(nu, u, 0.1)
        grid = power_sums(nu, u.reshape(2, 3), 0.1)
        assert [values.shape for values in grid] == [(2, 3), (2, 3)]
        assert grid[0].tolist() == z.reshape(2, 3).tolist()
        assert grid[1].tolist() == zprime.reshape(2, 3).tolist()
        assert all(power_sums(nu, ui, 0.1) == (z[i], zprime[i]) for i, ui in enumerate(u))

    @pytest.mark.parametrize(
        "z,error",
        [
            # NaN on 1 < t < 2, inside the support that the grid keeps
            (lambda t: np.where((t > 1.0) & (t < 2.0), math.nan, m.z_integrand(t)), m.DomainError),
            # NaN on 1.1 < t < 1.5, between the coarse abscissae t = 1 and
            # e**0.5, where only the first halving samples it
            (lambda t: np.where((t > 1.1) & (t < 1.5), math.nan, m.z_integrand(t)), m.DomainError),
            # 0 everywhere: every moment is 0
            (np.zeros_like, m.DomainError),
            (lambda t: m.z_integrand(t)[:-1], ValueError),
        ],
        ids=["nan-inside", "nan-between-coarse-abscissae", "vanishing", "wrong-shape"],
    )
    def test_bad_z_rejected(self, zeta_zf, z, error):
        zf = m.MellinIntegrand(z=z, convergence_strip=zeta_zf.convergence_strip)
        with pytest.raises(error):
            moments(zf, 0.57 + 1.57j, 0.1)

    @pytest.mark.parametrize(
        "zf,center,radius,match",
        [
            # e**y y**m / m!, the degree bound, overflowed at its peak past
            # y = R |x| ~ 355 and stayed inf: this disk never returned
            (None, 100.0, 90.0, "too large for its moments: their degree bound overflows"),
            # the density's tail next to the strip edge passes t = e**700
            (None, -0.95, 0.04, "within 0.01 of the strip edge"),
            # the wide log-normal is kept out to the scan's end, |x| = 40
            (LOG_NORMAL, 0.0, 20.0, "too large for its moments: R [|]x[|] reaches 800"),
        ],
        ids=["degree-bound-overflow", "strip-edge-tail", "past-x-max"],
    )
    def test_unreachable_disks_refused(self, zeta_zf, zf, center, radius, match):
        start = time.perf_counter()
        with pytest.raises(m.DomainError, match=match):
            moments(zf or zeta_zf, center, radius)
        assert time.perf_counter() - start < 1.0

    def test_nonconvergence_carries_z_and_zprime(self, zeta_zf, monkeypatch):
        # the best estimate is the finest moments, whose Z and Z' are finite
        monkeypatch.setattr(m.quadrature, "MAX_EVALS", 200)
        with pytest.raises(m.NonConvergenceError) as exc:
            moments(zeta_zf, 0.57 + 1.57j, 0.1)
        best, error = exc.value.best_estimate
        assert best.ndim == 1 and np.isfinite(best).all() and np.isfinite(error).all()
        for values in power_sums(best, _rim(8), 0.1):
            assert values.shape == (8,)
            assert np.isfinite(values).all()


def test_integrand_validation():
    with pytest.raises(ValueError):
        m.MellinIntegrand(z=lambda t: t, convergence_strip=(2.0, 1.0))
