import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest

import melroot as m
from tests import reference_values as ref
from tests.conftest import contour_angles


class TestTypes:
    def test_contour_validation(self):
        with pytest.raises(ValueError):
            m.CircularContour(0j, -1.0)
        with pytest.raises(ValueError):
            m.CircularContour(0j, 1.0, nodes=0)
        with pytest.raises(ValueError, match="integer"):
            m.CircularContour(0j, 1.0, nodes=2.5)
        assert m.CircularContour(0j, 1.0, nodes=np.int64(8)).nodes == 8

    @pytest.mark.parametrize(
        "center, radius",
        [(complex(math.nan, 1.0), 0.1), (complex(0.5, math.inf), 0.1), (0.5 + 0j, math.inf), (0.5 + 0j, math.nan)],
    )
    def test_contour_must_be_finite(self, center, radius):
        with pytest.raises(ValueError):
            m.CircularContour(center, radius)

    def test_contour_parameterization(self):
        c = m.CircularContour(1 + 2j, 0.5)
        assert abs(c.point(0.0) - (1.5 + 2j)) < 1e-15
        assert abs(c.point(math.pi / 2) - (1 + 2.5j)) < 1e-15
        assert abs(c.velocity(0.0) - 0.5j) < 1e-15

    def test_pipeline_config_any_order(self, coeffs):
        assert m.PipelineConfig(table=coeffs, series_order=2).series_order == 2
        with pytest.raises(ValueError):
            m.PipelineConfig(table=coeffs, series_order=-1)
        with pytest.raises(ValueError, match="integer"):
            m.PipelineConfig(table=coeffs, series_order=1.5)

    @pytest.mark.parametrize("n", [None, -1, 1.5])
    def test_stage2_order_must_be_an_integer(self, zeta_ff, ref_contour, coeffs, n):
        # inv_approx reads order None as the exact exponentials of stage 1
        with pytest.raises(ValueError, match="integer"):
            m.integrand_stage2(zeta_ff, ref_contour, 0.3, coeffs, n)

    def test_pipeline_config_has_one_sign_mode(self, coeffs):
        # the sign factor is always csgn(f): no smooth-sign width is accepted
        assert "eps" not in {f.name for f in dataclasses.fields(m.PipelineConfig)}
        with pytest.raises(TypeError):
            m.PipelineConfig(table=coeffs, eps=0.01)

    def test_count_result_rounding(self):
        r = m.CountResult.from_value(-0.999999 + 1e-7j)
        assert r.rounded == -1
        assert r.residual < 1e-5
        assert r.reliable
        assert not m.CountResult.from_value(0.5 + 0.2j).reliable
        # a count's contour gap must also be under 1e-3; an odd N's is inf
        assert not m.CountResult.from_value(1.0 + 0j, contour_gap=math.inf).reliable
        assert m.CountResult.from_value(1.0 + 0j, contour_gap=9.99e-4).reliable
        assert not m.CountResult.from_value(1.0 + 0j, contour_gap=1e-3).reliable
        assert not m.CountResult.from_value(1.0 + 0j, contour_gap=math.nan).reliable

    @pytest.mark.parametrize("value", [complex(math.nan, 0.0), complex(math.inf, 0.0)])
    def test_count_result_rejects_non_finite(self, value):
        with pytest.raises(m.DomainError, match=str(value.real)):
            m.CountResult.from_value(value)


class TestDirectIntegrand:
    def test_matches_multiprecision_oracle(self, zeta_ff, ref_contour):
        for phi, expected in zip(contour_angles(), ref.DIRECT_ORACLE):
            assert abs(m.integrand_direct(zeta_ff, ref_contour, phi) - expected) < 1e-9

    def test_periodicity(self, zeta_ff, ref_contour):
        a = m.integrand_direct(zeta_ff, ref_contour, 0.0)
        b = m.integrand_direct(zeta_ff, ref_contour, 2.0 * math.pi)
        assert abs(a - b) < 1e-14

    def test_root_on_contour_rejected(self, zeta_zf):
        ff = m.FactoredFunction(
            zf=zeta_zf,
            K=lambda s: 1.0,
            Kprime=lambda s: 0.0,
            f_reference=lambda s: s,  # root at the origin
            fprime_reference=lambda s: 1.0,
        )
        c = m.CircularContour(-1 + 0j, 1.0)  # passes through 0 at phi = 0
        with pytest.raises(m.PoleError):
            m.integrand_direct(ff, c, 0.0)
        with pytest.raises(m.PoleError, match="phi = 0.0"):
            m.integrand_direct(ff, c, np.array([math.pi, 0.0]))

    def test_references_required(self, zeta_zf):
        ff = m.FactoredFunction(zf=zeta_zf, K=lambda s: 1.0, Kprime=lambda s: 0.0)
        c = m.CircularContour(0.5 + 0.5j, 0.1)
        with pytest.raises(ValueError):
            m.integrand_direct(ff, c, 0.0)
        with pytest.raises(ValueError):
            m.count_direct(ff, c)


class TestAngleArrays:
    """Each integrand takes an angle or an array of angles."""

    @pytest.mark.parametrize(
        "integrand",
        [
            lambda ff, c, phi, t: m.integrand_direct(ff, c, phi),
            lambda ff, c, phi, t: m.integrand_stage1(ff, c, phi, t),
            lambda ff, c, phi, t: m.integrand_stage2(ff, c, phi, t, 1),
            lambda ff, c, phi, t: m.integrand_stage2(ff, c, phi, t, 3),
        ],
        ids=["direct", "stage1", "stage2-order1", "stage2-order3"],
    )
    @pytest.mark.parametrize("center, radius", [(0.57 + 1.57j, 0.1), (1.0 + 0j, 0.1), (0.5 + 14.134725j, 0.05)])
    def test_reference_integrands_equal_their_scalar_loop(self, zeta_ff, coeffs, integrand, center, radius):
        c = m.CircularContour(center, radius)
        phis = 2.0 * math.pi * np.arange(64) / 64 + 0.1
        values = integrand(zeta_ff, c, phis, coeffs)
        loop = [integrand(zeta_ff, c, phi, coeffs) for phi in phis]
        assert all(type(v) is complex for v in loop)
        assert values.shape == phis.shape
        assert values.tolist() == loop
        grid = integrand(zeta_ff, c, phis.reshape(8, 8), coeffs)
        assert grid.shape == (8, 8)
        assert grid.tolist() == values.reshape(8, 8).tolist()

    def test_kernel_matches_its_scalar_loop(self, zeta_ff, ref_contour, coeffs):
        # one moment density per disk: an angle gets the same value alone as
        # in an array of any shape
        cfg = m.PipelineConfig(table=coeffs)
        phis = np.array(contour_angles())
        values = m.kernel_mellin(zeta_ff, ref_contour, phis, cfg)
        loop = [m.kernel_mellin(zeta_ff, ref_contour, phi, cfg) for phi in phis]
        assert values.shape == phis.shape
        assert values.tolist() == loop
        grid = m.kernel_mellin(zeta_ff, ref_contour, phis.reshape(3, 3), cfg)
        assert grid.shape == (3, 3)
        assert grid.tolist() == values.reshape(3, 3).tolist()
        zeros = m.kernel_mellin(zeta_ff, ref_contour, np.zeros((2, 3)), cfg)
        assert zeros.shape == (2, 3)
        assert zeros.tolist() == [[loop[0]] * 3] * 2

    def test_counts_are_sums_of_the_integrand_arrays(self, zeta_ff, coeffs):
        cfg = m.PipelineConfig(table=coeffs)
        c = m.CircularContour(0.57 + 1.57j, 0.1, nodes=64)
        step = 2.0 * math.pi / c.nodes
        phis = step * np.arange(c.nodes)
        kernel = m.kernel_mellin(zeta_ff, c, phis, cfg)
        pipeline = m.count_pipeline(zeta_ff, c, cfg)
        assert pipeline.value == complex(kernel.sum()) * step
        values = m.integrand_direct(zeta_ff, c, phis)
        direct = m.count_direct(zeta_ff, c)
        assert direct.value == complex(values.sum()) * step
        # the contour gap is the distance from the sum on every other node
        assert direct.contour_gap == abs(direct.value - complex(values[::2].sum()) * (2.0 * step))
        assert pipeline.contour_gap == abs(pipeline.value - complex(kernel[::2].sum()) * (2.0 * step))
        odd = m.CircularContour(0.57 + 1.57j, 0.1, nodes=63)
        assert m.count_direct(zeta_ff, odd).contour_gap == math.inf
        assert m.count_pipeline(zeta_ff, odd, cfg).contour_gap == math.inf


class TestStages:
    def test_stage1_reproduces_published_column2(self, zeta_ff, ref_contour, coeffs):
        for phi, expected in zip(contour_angles(), ref.COLUMN2):
            got = m.integrand_stage1(zeta_ff, ref_contour, phi, coeffs)
            assert abs(got - expected) < 1e-6

    def test_stage2_reproduces_published_columns34(self, zeta_ff, ref_contour, coeffs):
        for phi, expected in zip(contour_angles(), ref.COLUMN34):
            got = m.integrand_stage2(zeta_ff, ref_contour, phi, coeffs, 1)
            assert abs(got - expected) < 1e-6

    def test_stage2_high_order_converges_to_stage1(self, zeta_ff, ref_contour, coeffs):
        for phi in contour_angles():
            s1 = m.integrand_stage1(zeta_ff, ref_contour, phi, coeffs)
            s2 = m.integrand_stage2(zeta_ff, ref_contour, phi, coeffs, 30)
            assert abs(s1 - s2) < 1e-10


class TestKernel:
    def test_reproduces_published_column5(self, zeta_ff, ref_contour, coeffs):
        cfg = m.PipelineConfig(table=coeffs)
        for i in (0, 5):
            phi = 2.0 * math.pi * i / 8.0
            got = m.kernel_mellin(zeta_ff, ref_contour, phi, cfg)
            assert abs(got - ref.COLUMN5[i]) < 1e-5

    def test_agrees_with_stage2(self, zeta_ff, ref_contour, coeffs):
        cfg = m.PipelineConfig(table=coeffs)
        for i in (1, 3, 6):
            phi = 2.0 * math.pi * i / 8.0
            kern = m.kernel_mellin(zeta_ff, ref_contour, phi, cfg)
            s2 = m.integrand_stage2(zeta_ff, ref_contour, phi, coeffs, 1)
            assert abs(kern - s2) < 1e-5

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_sign_exponent_parity(self, zeta_ff, ref_contour, coeffs, order):
        # csgn**(k+1) squares away for odd k: rebuilding the kernel from the
        # nested convolutions, with the exponent reduced mod 2, must give the
        # same value
        cfg = m.PipelineConfig(table=coeffs, series_order=order)
        phi = 2.0 * math.pi * 3.0 / 8.0
        s = ref_contour.point(phi)
        sgn = m.csgn(zeta_ff.f_reference(s))
        Ks, Kp = zeta_ff.K(s), zeta_ff.Kprime(s)
        rebuilt = 0j
        for k in range(cfg.series_order + 1):
            z_pow = m.power_transform(zeta_ff.zf, k + 1, s).value
            zp_zk = m.deriv_times_power(zeta_ff.zf, k, s).value
            weight = sum(a * cj**k for a, cj in zip(coeffs.alpha, coeffs.c))
            body = Kp * Ks**k * z_pow + Ks ** (k + 1) * zp_zk
            rebuilt += sgn ** ((k + 1) % 2) * ((-1) ** k / math.factorial(k)) * weight * body
        rebuilt *= ref_contour.velocity(phi) / (2j * math.pi)
        assert abs(rebuilt - m.kernel_mellin(zeta_ff, ref_contour, phi, cfg)) < 1e-12

    def test_agrees_with_stage2_at_every_node(self, zeta_ff, coeffs):
        cfg = m.PipelineConfig(table=coeffs)
        c = m.CircularContour(0.57 + 1.57j, 0.1, nodes=64)
        for i in range(c.nodes):
            phi = 2.0 * math.pi * i / c.nodes
            kern = m.kernel_mellin(zeta_ff, c, phi, cfg)
            assert abs(kern - m.integrand_stage2(zeta_ff, c, phi, coeffs, 1)) < 1e-5

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_agrees_with_stage2_at_higher_orders(self, zeta_ff, coeffs, order):
        # each order is one more power of the same f = K Z
        cfg = m.PipelineConfig(table=coeffs, series_order=order)
        c = m.CircularContour(0.57 + 1.57j, 0.1, nodes=64)
        for i in range(c.nodes):
            phi = 2.0 * math.pi * i / c.nodes
            kern = m.kernel_mellin(zeta_ff, c, phi, cfg)
            assert abs(kern - m.integrand_stage2(zeta_ff, c, phi, coeffs, order)) < 1e-12

    def test_needs_no_references(self, zeta_ff, coeffs):
        # the sign comes from the convolution-route f, so z, K and K' suffice
        bare = m.FactoredFunction(zf=zeta_ff.zf, K=zeta_ff.K, Kprime=zeta_ff.Kprime)
        cfg = m.PipelineConfig(table=coeffs)
        c = m.CircularContour(1.0 + 0j, 0.1, nodes=16)
        assert m.count_pipeline(bare, c, cfg) == m.count_pipeline(zeta_ff, c, cfg)
        for phi in (0.0, 1.0, math.pi):
            assert m.kernel_mellin(bare, c, phi, cfg) == m.kernel_mellin(zeta_ff, c, phi, cfg)

    def test_agrees_with_stage2_on_first_zero_circle(self, zeta_ff, coeffs):
        # |Z**2| ~ 1e-18 here and K**2 ~ 1e18 scales it into the kernel, so
        # Z**2 must carry no round-off of its own beyond that of Z
        cfg = m.PipelineConfig(table=coeffs)
        c = m.CircularContour(complex(0.5, ref.FIRST_ZERO_IM), 0.05, nodes=8)
        stage2 = []
        for i in range(c.nodes):
            phi = 2.0 * math.pi * i / c.nodes
            stage2.append(m.integrand_stage2(zeta_ff, c, phi, coeffs, 1))
            assert abs(m.kernel_mellin(zeta_ff, c, phi, cfg) - stage2[-1]) < 1e-6
        trapezoid = sum(stage2) * (2.0 * math.pi / c.nodes)
        assert abs(m.count_pipeline(zeta_ff, c, cfg).value - trapezoid) < 1e-8

    def test_strip_violation_rejected(self, zeta_ff, coeffs):
        cfg = m.PipelineConfig(table=coeffs)
        c = m.CircularContour(-1.0 + 0j, 0.2)
        with pytest.raises(m.DomainError):
            m.kernel_mellin(zeta_ff, c, math.pi, cfg)

    def test_stage_chain_degradation_is_one_directional(self, zeta_ff, ref_contour, coeffs):
        # the convolution step adds far less error than the series truncation
        for i, (c34, c5) in enumerate(zip(ref.COLUMN34, ref.COLUMN5)):
            assert abs(c5 - c34) <= 1.5e-6


class TestCounting:
    def test_no_enclosed_roots(self, zeta_ff):
        r = m.count_direct(zeta_ff, m.CircularContour(0.57 + 1.57j, 0.1, nodes=64))
        assert r.rounded == 0
        assert r.residual < 1e-6

    def test_pole_counts_minus_one(self, zeta_ff):
        r = m.count_direct(zeta_ff, m.CircularContour(1.0 + 0j, 0.1, nodes=128))
        assert r.rounded == -1
        assert r.residual < 1e-6

    def test_first_zero_counts_plus_one(self, zeta_ff):
        c = m.CircularContour(complex(0.5, ref.FIRST_ZERO_IM), 0.05, nodes=128)
        r = m.count_direct(zeta_ff, c)
        assert r.rounded == 1
        assert r.residual < 1e-6

    def test_pole_count_radius_independent(self, zeta_ff):
        for radius in (0.05, 0.1, 0.2):
            r = m.count_direct(zeta_ff, m.CircularContour(1.0 + 0j, radius, nodes=128))
            assert r.rounded == -1
            assert r.residual < 1e-8

    def test_node_doubling_invariance(self, zeta_ff):
        a = m.count_direct(zeta_ff, m.CircularContour(0.57 + 1.57j, 0.1, nodes=32))
        b = m.count_direct(zeta_ff, m.CircularContour(0.57 + 1.57j, 0.1, nodes=64))
        assert abs(a.value - b.value) < 1e-9

    def test_start_angle_rotation_invariance(self, zeta_ff):
        c = m.CircularContour(1.0 + 0j, 0.1, nodes=64)
        base = m.count_direct(zeta_ff, c)
        rotated = m.integrate_periodic(
            lambda phi: m.integrand_direct(zeta_ff, c, phi + 0.37), c.nodes
        )
        assert abs(base.value - rotated) < 1e-9

    def test_warning_grade_near_root(self, zeta_zf):
        # contour grazing the root of f(s) = s: residual blows up
        ff = m.FactoredFunction(
            zf=zeta_zf,
            K=lambda s: 1.0,
            Kprime=lambda s: 0.0,
            f_reference=lambda s: s,
            fprime_reference=lambda s: 1.0,
        )
        c = m.CircularContour(0.1 + 0j, 0.10001, nodes=8)
        assert not m.count_direct(ff, c).reliable

    @pytest.mark.parametrize(
        "method, center, radius, nodes, wrong, min_gap",
        [
            # the first zero lies inside, 0.005 from the circle (0.988 R from
            # the centre): the 64-node sum lands near 2, yet the half-node sum
            # is 1.2 away (the truth is +1)
            ("direct", 0.8656 + 13.9828j, 0.4009, 64, 2, 1.0),
            # the pipeline's two-way csgn fold misses the pole (truth -1) and
            # the first zero (truth +1); its sign switches on the contour are
            # jumps, which the half-node sum does not follow
            ("pipeline", 1.0077179653704582 + 0.002032038206469709j, 0.1, 16, -25, 1e-3),
            ("pipeline", 0.5 + 14.134725j, 0.05, 8, 0, 1e-3),
            ("pipeline", 1.0 + 0j, 0.9, 64, -2, 1e-3),
            ("pipeline", 0.5 + 14.134725j, 1e-2, 16, 0, 1e-3),
        ],
        ids=["direct", "pipeline-pole", "pipeline-first-zero", "pipeline-circle-about-1", "pipeline-tiny-disk"],
    )
    def test_contour_gap_flags_a_wrong_count(self, zeta_ff, coeffs, method, center, radius, nodes, wrong, min_gap):
        c = m.CircularContour(center, radius, nodes=nodes)
        r = m.count_direct(zeta_ff, c) if method == "direct" else m.count_pipeline(zeta_ff, c, m.PipelineConfig(coeffs))
        assert r.rounded == wrong
        assert r.residual < 0.25
        assert r.contour_gap > min_gap
        assert not r.reliable

    def test_pipeline_is_trapezoid_sum_of_kernel(self, zeta_ff, coeffs):
        cfg = m.PipelineConfig(table=coeffs)
        c = m.CircularContour(0.57 + 1.57j, 0.1, nodes=64)
        trapezoid = m.integrate_periodic(lambda phi: m.kernel_mellin(zeta_ff, c, phi, cfg), c.nodes)
        assert abs(m.count_pipeline(zeta_ff, c, cfg).value - trapezoid) < 1e-15

    def test_pipeline_calls_prefactors_once_on_all_nodes(self, zeta_ff, coeffs):
        calls = []

        def recorded(name, fn):
            def wrapper(s):
                calls.append((name, np.shape(s)))
                return fn(s)

            return wrapper

        ff = dataclasses.replace(zeta_ff, K=recorded("K", zeta_ff.K), Kprime=recorded("Kprime", zeta_ff.Kprime))
        c = m.CircularContour(0.57 + 1.57j, 0.1, nodes=64)
        cfg = m.PipelineConfig(table=coeffs)
        assert m.count_pipeline(ff, c, cfg) == m.count_pipeline(zeta_ff, c, cfg)
        assert calls == [("K", (64,)), ("Kprime", (64,))]

    @pytest.mark.parametrize(
        "center, radius, nodes, calls, points",
        [
            (0.57 + 1.57j, 0.1, 64, 2, 334),  # the reference circle
            (1.0 + 0j, 0.1, 16, 2, 282),  # the pole
            (0.5 + 14.134725j, 0.05, 8, 3, 602),  # the first zero: a third halving
            # the benchmark's seed-0 pole and first-zero circles
            (1.0077179653704582 + 0.002032038206469709j, 0.1, 16, 2, 278),
            (0.5051661181591516 + 14.135263418556582j, 0.05, 8, 3, 602),
        ],
    )
    def test_pipeline_grid_work_is_pinned(self, zeta_ff, coeffs, center, radius, nodes, calls, points):
        # the z calls and z points of the benchmark's circles, unjittered and
        # at seed 0: the coarse pass is one call, the first two halvings
        # share one and each later halving is one, at the new abscissae only
        sizes = []

        def z(t):
            sizes.append(np.size(t))
            return m.z_integrand(t)

        ff = dataclasses.replace(zeta_ff, zf=dataclasses.replace(zeta_ff.zf, z=z))
        m.count_pipeline(ff, m.CircularContour(center, radius, nodes), m.PipelineConfig(table=coeffs))
        assert (len(sizes), sum(sizes)) == (calls, points)

    @pytest.mark.parametrize(
        "center, radius, nodes, value, degree",
        [
            (0.57 + 1.57j, 0.1, 64, 2.963325774675302e-17 - 4.2065601514068947e-17j, 15),  # the reference circle
            (1.0 + 0j, 0.1, 16, -24.316441567057584 + 3.1390816482077686e-15j, 14),  # the pole
            (0.5 + 14.134725j, 0.05, 8, 0.09753842569447208 - 0.023322002358374734j, 12),  # the first zero
            # two of the CI's counts, whose disks need the most moments: the
            # one whose nodes take Gamma at Re(s + 1) < 1/2 (reliable) and
            # the large circle about the pole (unreliable)
            (-0.7 + 0j, 0.1, 16, -5.296519057034592e-17 + 3.4061215800865545e-19j, 46),
            (1.0 + 0j, 0.9, 64, -2.2030603228495993 + 1.8856289067359165e-15j, 61),
        ],
    )
    def test_pipeline_counts_are_pinned(self, zeta_ff, coeffs, center, radius, nodes, value, degree):
        # the benchmark's unjittered circles and two of the CI's: a change
        # that makes counts faster keeps their values and the degree M of
        # their moments
        from melroot.mellin import moments

        c = m.CircularContour(center, radius, nodes)
        count = m.count_pipeline(zeta_ff, c, m.PipelineConfig(table=coeffs)).value
        assert abs(count - value) <= 1e-12 * max(1.0, abs(value))
        assert len(moments(zeta_ff.zf, center, radius)[0]) - 1 == degree

    @pytest.mark.parametrize(
        "center, radii",
        [
            (0.57 + 1.57j, (1e-6, 1e-7, 1e-9, 1e-12, 1e-100, 1e-300)),
            (1.0 + 0.3j, (1e-6, 1e-7, 1e-9, 1e-12, 1e-100, 1e-300)),
            # zeta's first zero is 1.42e-7 from this centre: only smaller
            # disks hold no zero
            (0.5 + 14.134725j, (1e-7, 1e-9, 1e-12, 1e-100, 1e-300)),
            (-0.7 + 0j, (1e-6, 1e-7, 1e-9, 1e-12, 1e-100, 1e-300)),
            (2.0 + 5.0j, (1e-6, 1e-7, 1e-9, 1e-12, 1e-100, 1e-300)),
        ],
    )
    def test_pipeline_counts_tiny_disks(self, zeta_ff, coeffs, center, radii):
        # the moments' tail estimate takes their last two terms, so a disk
        # keeps at least five: with fewer, those were the leading Taylor
        # terms of Z and Z' and a tiny disk raised NonConvergenceError. No
        # disk here holds a zero or pole, so each counts 0
        from melroot.mellin import moments

        cfg = m.PipelineConfig(table=coeffs)
        for radius in radii:
            result = m.count_pipeline(zeta_ff, m.CircularContour(center, radius, 16), cfg)
            assert (result.rounded, result.reliable) == (0, True), radius
            assert len(moments(zeta_ff.zf, center, radius)[0]) == 6

    @pytest.mark.parametrize("radius", [1e-309, 5e-324])
    def test_pipeline_subnormal_radius_is_a_domain_error(self, zeta_ff, coeffs, radius):
        # 1e-300 counts (above); a subnormal R would overflow Z' = (1/R)
        # d/du, so it raises before any numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(m.DomainError, match="subnormal"):
                m.count_pipeline(zeta_ff, m.CircularContour(0.57 + 1.57j, radius, 16), m.PipelineConfig(table=coeffs))

    @pytest.mark.parametrize(
        "center, radius, nodes", [(0.57 + 1.57j, 0.1, 64), (1.0 + 0j, 0.1, 16), (0.5 + 14.134725j, 0.05, 8)]
    )
    def test_pipeline_counts_raise_no_warning(self, zeta_ff, coeffs, center, radius, nodes):
        # z(e**x) e**(c x) is formed in log space, so a count stays silent
        # where z has underflowed on the scanned side of the strip
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m.count_pipeline(zeta_ff, m.CircularContour(center, radius, nodes), m.PipelineConfig(table=coeffs))

    def test_pipeline_large_disk_raises(self, coeffs):
        # z = exp(-1/(3-t)) on t < 3: on the disk about 3 of radius 2.6 the
        # moment series is slow and its M cuts it short, so Z is 1e-7 off on
        # the rim, past REL_TOL = 1e-8; the count raises instead
        def z(t):
            with np.errstate(divide="ignore"):
                return np.exp(-1.0 / np.maximum(3.0 - t, 0.0))

        ff = m.FactoredFunction(
            zf=m.MellinIntegrand(z=z, convergence_strip=(0.0, math.inf)), K=np.ones_like, Kprime=np.zeros_like
        )
        cfg = m.PipelineConfig(table=coeffs)
        with pytest.raises(m.NonConvergenceError, match="smaller disk"):
            m.count_pipeline(ff, m.CircularContour(3.0, 2.6, 16), cfg)
        assert m.count_pipeline(ff, m.CircularContour(1.5, 1.0, 16), cfg).rounded == 0

    def test_pipeline_grid_budget_exhausted(self, zeta_ff, coeffs, monkeypatch):
        monkeypatch.setattr(m.quadrature, "MAX_EVALS", 100)
        cfg = m.PipelineConfig(table=coeffs)
        c = m.CircularContour(0.57 + 1.57j, 0.1, nodes=8)
        for call in (lambda: m.count_pipeline(zeta_ff, c, cfg), lambda: m.kernel_mellin(zeta_ff, c, 0.0, cfg)):
            with pytest.raises(m.NonConvergenceError) as info:
                call()
            best = info.value.best_estimate
            assert isinstance(best, complex)
            assert math.isfinite(best.real) and math.isfinite(best.imag)

    def test_pipeline_vanishing_z_rejected(self, zeta_ff, coeffs):
        # f = K Z = 0 at every node, where csgn(f) is undefined
        ff = dataclasses.replace(zeta_ff, zf=dataclasses.replace(zeta_ff.zf, z=np.zeros_like))
        with pytest.raises(m.DomainError):
            m.count_pipeline(ff, m.CircularContour(0.57 + 1.57j, 0.1, nodes=8), m.PipelineConfig(table=coeffs))

    def test_non_finite_integral_rejected(self, zeta_ff, coeffs):
        c = m.CircularContour(0.57 + 1.57j, 0.1, nodes=8)
        nan = lambda s: complex(math.nan)
        with pytest.raises(m.DomainError, match="nan"):
            m.count_pipeline(dataclasses.replace(zeta_ff, K=nan), c, m.PipelineConfig(table=coeffs))
        with pytest.raises(m.DomainError, match="nan"):
            m.count_direct(dataclasses.replace(zeta_ff, f_reference=nan), c)

    def test_pipeline_strip_checked_before_any_grid(self, zeta_ff, coeffs):
        calls = []

        def z(t):
            calls.append(t)
            return m.z_integrand(t)

        ff = dataclasses.replace(zeta_ff, zf=dataclasses.replace(zeta_ff.zf, z=z))
        with pytest.raises(m.DomainError):
            m.count_pipeline(ff, m.CircularContour(-0.95 + 0j, 0.1), m.PipelineConfig(table=coeffs))
        assert not calls

    def test_pipeline_count_on_root_free_contour(self, zeta_ff, coeffs):
        cfg = m.PipelineConfig(table=coeffs)
        c = m.CircularContour(0.57 + 1.57j, 0.1, nodes=8)
        r = m.count_pipeline(zeta_ff, c, cfg)
        assert abs(r.value) < 0.15
        assert r.rounded == 0
        # trapezoid over the published kernel values as an oracle
        oracle = sum(ref.COLUMN5[:8]) * (2.0 * math.pi / 8.0)
        assert abs(r.value - oracle) < 1e-4
