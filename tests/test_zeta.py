import cmath
import collections
import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import melroot as m
from melroot import zeta as zeta_module
from melroot.cli import main
from melroot.numerics import _gamma_pass, elementwise


class TestZetaReference:
    """The zeta model's f_reference and fprime_reference, the eta-series
    oracle of zeta and zeta'."""

    def test_basel_value(self, zeta_ff):
        assert abs(zeta_ff.f_reference(2.0) - math.pi**2 / 6.0) < 1e-12

    def test_value_at_zero(self, zeta_ff):
        assert abs(zeta_ff.f_reference(0.0) + 0.5) < 1e-12

    def test_pole_at_one(self):
        with pytest.raises(m.PoleError):
            m.build_zeta_factored().f_reference(1.0)
        with pytest.raises(m.PoleError):
            m.build_zeta_factored().fprime_reference(1.0)

    @pytest.mark.parametrize("s", [-800.0, 0.5 + 1e308j], ids=["overflow", "domain"])
    def test_series_out_of_range_is_a_domain_error(self, s):
        # points whose terms would overflow, or whose series length is not
        # finite, are refused with a typed error before any term is summed
        ff = m.build_zeta_factored()
        nodes = np.array([0.5 + 1j, s])
        for reference, at in ((ff.f_reference, s), (ff.fprime_reference, s), (ff.f_reference, nodes)):
            with pytest.raises(m.DomainError, match="eta series"):
                reference(at)

    def test_bad_argument_keeps_its_own_error(self):
        with pytest.raises(ValueError) as info:
            m.build_zeta_factored().f_reference("not a number")
        assert not isinstance(info.value, m.DomainError)

    def test_conditioning_warning_near_resonance(self):
        # 1 - 2**(1-s) vanishes along Re(s) = 1 at Im(s) = 2*pi*k/ln 2
        s = complex(1.0, 2.0 * math.pi / math.log(2.0)) + 1e-8
        ff = m.build_zeta_factored()
        for reference in (ff.f_reference, ff.fprime_reference):
            s += 1e-12  # a new point each time, so the model evaluates afresh
            with pytest.warns(RuntimeWarning) as record:
                reference(s)
            # the warning names the line that called the reference
            assert record[0].filename == __file__

    def test_against_multiprecision(self):
        import mpmath as mp

        mp.mp.dps = 30
        ff = m.build_zeta_factored()
        rng = np.random.default_rng(3)
        for _ in range(40):
            s = complex(rng.uniform(-0.9, 3.0), rng.uniform(-20.0, 20.0))
            if abs(s - 1.0) < 0.05:
                continue
            assert abs(ff.f_reference(s) - complex(mp.zeta(s))) < 1e-10
            assert abs(ff.fprime_reference(s) - complex(mp.zeta(s, derivative=1))) < 1e-9

    def test_series_answers_past_im_45(self):
        # the series grows with |Im s|, so at 45 and past it zeta and zeta'
        # keep 12 digits
        import mpmath as mp

        mp.mp.dps = 30
        ff = m.build_zeta_factored()
        for re in (-1.0, -0.9, 0.0, 0.5, 1.5, 3.0):
            for im in (45.0, math.nextafter(45.0, math.inf), 45.5, 100.0):
                for s in (complex(re, im), complex(re, -im)):
                    for ours, k in ((ff.f_reference, 0), (ff.fprime_reference, 1)):
                        exact = complex(mp.zeta(s, derivative=k))
                        assert abs(ours(s) - exact) < 1e-12 * abs(exact)
        # nodes on both sides of |Im s| = 45 in one array
        nodes = np.array([0.5 + 1j, 0.5 + 45.5j])
        assert ff.f_reference(nodes).tolist() == [ff.f_reference(complex(s)) for s in nodes]
        # a circle about 0.5 + 45i of radius 0.4 holds no zero (the eighth and
        # ninth are at 43.33 and 48.01)
        result = m.count_direct(ff, m.CircularContour(0.5 + 45.0j, 0.4, nodes=16))
        assert result.rounded == 0
        assert result.reliable

    def test_against_multiprecision_to_im_1000(self):
        # a grid of Re s from -1 to 3 and |Im s| up to 1000; without the
        # phase correction past |Im s| = 100 the error reaches 1.1e-12
        import mpmath as mp

        mp.mp.dps = 20
        ff = m.build_zeta_factored()
        points = [complex(re, im) for re in (-1.0, 0.25, 0.5, 3.0) for im in (150.5, 432.1, -718.9, 1000.0)]
        points += [complex(re, im) for re in (-0.6, 1.7) for im in (-261.3, 865.2)]
        # the worst of 480 random points before the phase correction: 1.09e-12
        points.append(0.31963821296734585 - 774.033999427935j)
        # the edges of the checked range
        points += [-1.0 + 0j, -1.0 + 3.0j, 0.5 + 1096.0j]
        for s in points:
            for ours, k in ((ff.f_reference, 0), (ff.fprime_reference, 1)):
                exact = complex(mp.zeta(s, derivative=k))
                assert abs(ours(s) - exact) < 1e-12 * abs(exact), (s, k)

    def test_direct_count_about_the_649th_zero(self):
        # the 649th zero is at 0.5 + 999.79157i (mpmath.zetazero); the
        # series sums 915 terms at each node
        ff = m.build_zeta_factored()
        result = m.count_direct(ff, m.CircularContour(0.5 + 999.7916j, 0.05, nodes=128))
        assert result.rounded == 1
        assert result.reliable

    @pytest.mark.parametrize(
        "s, match",
        [
            (complex(math.nextafter(-1.0, -math.inf), 0.0), "left of Re s = -1"),
            (-2.0 + 5.0j, "left of Re s = -1"),
            (0.5 + 1097.0j, "more than 1000 terms"),
            (-0.5 - 1097.0j, "more than 1000 terms"),
        ],
    )
    def test_refused_outside_the_checked_range(self, s, match, monkeypatch):
        # refused before any weights are built
        built = []
        monkeypatch.setattr(zeta_module, "_eta_series", lambda n: built.append(n))
        with pytest.raises(m.DomainError, match=match):
            m.build_zeta_factored().f_reference(s)
        assert built == []

    @pytest.mark.parametrize("bad", [complex(math.nan), complex(math.inf, 1.0), complex(1.0, -math.inf)])
    def test_non_finite_s_is_a_domain_error(self, bad):
        # raised before any arithmetic: no numpy warning, no bare ValueError
        ff = m.build_zeta_factored()
        nodes = np.array([0.57 + 1.57j, bad])
        calls = [(getattr(ff, name), at) for name in ("f_reference", "fprime_reference", "K", "Kprime") for at in (bad, nodes)]
        for fn, at in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(m.DomainError, match=r"s = .* is not finite") as info:
                    fn(at)
            assert not isinstance(info.value, m.PoleError)
            assert str(bad) in str(info.value)

    # the seventh and eighth zeros (mpmath.zetazero), and the eighth's conjugate
    @pytest.mark.parametrize("im", [40.918719012147498, 43.327073280915002, -43.327073280915002])
    def test_direct_count_below_the_guard(self, im):
        # a circle of radius 0.5 about a zero stays inside |Im s| < 45
        ff = m.build_zeta_factored()
        result = m.count_direct(ff, m.CircularContour(complex(0.5, im), 0.5, nodes=32))
        assert result.rounded == 1
        assert result.reliable

    def test_first_nontrivial_zero_neighborhood(self):
        # the oracle must stay accurate near the first zero, which the
        # counting tests enclose
        import mpmath as mp

        mp.mp.dps = 30
        s = 0.5 + 14.134725j
        assert abs(m.build_zeta_factored().f_reference(s) - complex(mp.zeta(s))) < 1e-11

    @pytest.mark.parametrize("name", ["f_reference", "fprime_reference"])
    def test_error_order(self, name, monkeypatch):
        # the pole, then a non-finite s, then the series' refusal, wherever
        # they stand in the node array, as for K and K', and all before any
        # power (k+1)**(-s) is formed
        powers = []
        monkeypatch.setattr(zeta_module, "_eta_powers", lambda s, logs: powers.append(s))
        f = getattr(m.build_zeta_factored(), name)
        huge, left = 0.5 + 1e308j, -800.0
        with pytest.raises(m.PoleError):
            f(np.array([huge, left, complex(math.nan), 1.0]))
        with pytest.raises(m.DomainError, match="is not finite"):
            f(np.array([huge, left, complex(math.inf)]))
        with pytest.raises(m.DomainError, match="more than 1000 terms"):
            f(np.array([huge, left]))
        with pytest.raises(m.DomainError, match="left of Re s = -1"):
            f(np.array([left, huge]))
        assert powers == []


class TestSeriesLength:
    """The eta series sums, at each point, the terms its error bound asks for."""

    def test_terms_of_a_direct_count_on_the_reference_circle(self, monkeypatch):
        groups = _counted_accumulates(monkeypatch)
        m.count_direct(m.build_zeta_factored(), m.CircularContour(0.57 + 1.57j, 0.1, nodes=64))
        # one group of nodes a length, 21 to 23 terms a node
        assert [n for _, _, n in groups] == [21, 22, 23]
        assert sum(size for _, size, _ in groups) == 64
        assert sum(size * n for _, size, n in groups) == 1422

    def test_lengths_up_to_im_20(self):
        ims = 1j * np.linspace(-20.0, 20.0, 81)
        right = zeta_module._eta_terms(np.linspace(0.5, 3.0, 11)[:, None] + ims)
        left = zeta_module._eta_terms(np.linspace(-1.0, 0.45, 30)[:, None] + ims)
        assert right.shape == (11, 81)
        assert (right.min(), right.max()) == (19, 39)
        assert (left.min(), left.max()) == (20, 42)

    @pytest.mark.parametrize("re", [-1.0, -0.3, 0.0, 0.5, 1.0, 3.0])
    def test_length_does_not_decrease_as_im_grows(self, re):
        ims = np.linspace(0.0, 1000.0, 4001)
        up = zeta_module._eta_terms(re + 1j * ims).tolist()
        down = zeta_module._eta_terms(re - 1j * ims).tolist()
        assert up == down
        assert all(a <= b for a, b in zip(up, up[1:]))
        assert up[-1] == (915 if re >= 0.5 else 915 + math.ceil(2.0 * (0.5 - re)))

    def test_lengths_equal_the_rule_at_each_point(self):
        # the array lengths are the rule of the module docstring worked out
        # with math at each point, alone
        rng = np.random.default_rng(35)
        points = rng.uniform(-1.0, 3.0, 20000) + 1j * rng.uniform(-1090.0, 1090.0, 20000)
        points = np.concatenate([points, np.linspace(-1.0, 3.0, 81) + 1j * np.linspace(0.0, 1000.0, 81)])
        assert zeta_module._eta_terms(points).tolist() == [_rule_length(s) for s in points.tolist()]

    @pytest.mark.parametrize("n", [18, 50, 107])
    def test_weights_match_exact_fractions(self, n):
        # Borwein's d_k = n sum_{i <= k} (n+i-1)! 4**i / ((n-i)! (2i)!), in Fraction arithmetic
        d, acc = [], Fraction(0)
        for i in range(n + 1):
            acc += Fraction(math.factorial(n + i - 1) * 4**i, math.factorial(n - i) * math.factorial(2 * i))
            d.append(n * acc)
        weights = zeta_module._eta_series(n)
        assert weights.real.tolist() == [(-1) ** k * float((d[k] - d[n]) / d[n]) for k in range(n)]
        assert not weights.imag.any()
        assert zeta_module._log_parts()[0, :n].tolist() == [math.log(k) for k in range(1, n + 1)]

    def test_cache_stays_bounded(self):
        # a sign map up to Im s = 1000 asks for about 100 lengths; the cache
        # keeps 64 of them
        cache = zeta_module._eta_series
        cache.cache_clear()
        argv = ["sign-map", "--re-min", "0.5", "--re-max", "0.5", "--im-min", "0", "--im-max", "1000",
                "--grid-nx", "1", "--grid-ny", "101", "--out", os.devnull]
        assert main(argv) == 0
        info = cache.cache_info()
        assert info.currsize <= info.maxsize == 64 < info.misses


def _counted_accumulates(monkeypatch) -> list[tuple[int, ...]]:
    """The shapes (2, group size, length) of the arrays that each
    np.add.accumulate of the zeta module sums, in the order of the calls,
    recorded through a stand-in for its numpy."""
    shapes = []
    accumulate = np.add.accumulate

    class Add:
        def accumulate(self, terms, **kwargs):
            shapes.append(terms.shape)
            return accumulate(terms, **kwargs)

    class Numpy:
        add = Add()

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(zeta_module, "np", Numpy())
    return shapes


def _rule_length(s: complex) -> int:
    """The series length of the module docstring at the point ``s``, in
    scalar math: the least n whose Borwein bound 3 (1 + 2|t|) e**(pi |t| /
    2) / (3 + sqrt 8)**n is at most 1e-14, plus ceil(2 (1/2 - Re s)) left of
    Re s = 1/2."""
    t = abs(s.imag)
    x = (math.log(3.0 * (1.0 + 2.0 * t)) + 0.5 * math.pi * t - math.log(1e-14)) / math.log(3.0 + math.sqrt(8.0))
    return math.ceil(x) + (math.ceil(2.0 * (0.5 - s.real)) if s.real < 0.5 else 0)


def _loop_zeta_and_prime(s: complex) -> tuple[complex, complex]:
    """zeta and zeta' from the module's weights and logarithms, summed by a
    plain cmath loop over the terms, as the series was summed before it ran
    as array arithmetic."""
    ln2 = math.log(2.0)
    two = cmath.exp((1.0 - s) * ln2)
    lam, lam_prime = 1.0 - two, two * ln2
    n = _rule_length(s)
    weights = zeta_module._eta_series(n).real.tolist()
    logs = zeta_module._log_parts()[0, :n]
    t = s.imag
    if abs(t) > 100.0:
        th, tl = zeta_module._halves(t)
        parts = zip(*(row.tolist() for row in zeta_module._log_parts()[1:]))
        for k, (w, (hi, lo, err)) in enumerate(zip(weights, parts)):
            d = ((th * hi - t * (hi + lo)) + th * lo + tl * hi) + tl * lo + t * err
            weights[k] = complex(w, -w * d)
    acc = acc_prime = 0j
    for w, ln in zip(weights, logs.tolist()):
        term = w * cmath.exp(-s * ln)
        acc += term
        acc_prime -= ln * term
    return -acc / lam, -acc_prime / lam + acc * lam_prime / lam**2


class TestEtaArrays:
    """The series runs as array arithmetic along its terms and keeps every
    bit of a scalar loop."""

    def test_equals_a_scalar_loop_to_the_bit(self):
        rng = np.random.default_rng(27)
        re = rng.uniform(-1.0, 3.0, 1200)
        # a third up to |Im s| = 1090, most past the phase correction's 100
        im = np.concatenate([rng.uniform(-100.0, 100.0, 800), rng.uniform(-1090.0, 1090.0, 400)])
        points = [complex(x, y) for x, y in zip(re, im)]
        assert sum(abs(s.imag) > 100.0 for s in points) > 300
        # far right on the real axis -s ln k overflows to -inf, whose power
        # is 0 as in cmath, and no warning escapes
        points += [1e308 + 0.57j, 1e308 + 150.0j]
        want = [_loop_zeta_and_prime(s) for s in points]
        f, fprime = zeta_module._eta_pass(np.array(points))
        assert list(zip(f.tolist(), fprime.tolist())) == want
        assert [tuple(v.item() for v in zeta_module._eta_pass(np.array([s]))) for s in points] == want

    def test_blocks_bound_the_memory(self):
        # a 50 x 120 grid just under Im s = 1000 sums 906 to 917 terms a
        # point: as one exponential its powers would take 88 MB
        re, im = np.meshgrid(np.linspace(-0.5, 2.0, 50), np.linspace(990.0, 1000.0, 120))
        points = (re + 1j * im).ravel()
        zeta_module._log_parts()  # built once per process, not per pass
        tracemalloc.start()
        try:
            f, fprime = zeta_module._eta_pass(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        want = [tuple(v.item() for v in zeta_module._eta_pass(np.array([s]))) for s in points]
        assert list(zip(f.tolist(), fprime.tolist())) == want

    def test_count_across_the_phase_correction_equals_a_scalar_loop(self):
        # the nodes of this circle lie on both sides of |Im s| = 100, where
        # the weights start to take out the round-off of the phases
        c = m.CircularContour(0.5 + 100.0j, 0.5, nodes=128)
        step = 2.0 * math.pi / c.nodes
        phis = step * np.arange(c.nodes)
        nodes = c.point(phis)
        assert (nodes.imag < 100.0).any() and (nodes.imag > 100.0).any()
        f, fprime = np.array([_loop_zeta_and_prime(s) for s in nodes.tolist()]).T
        # f'/f and the trapezoid in the array arithmetic of count_direct
        values = fprime / f * c.velocity(phis) / (2j * math.pi)
        assert m.integrand_direct(m.build_zeta_factored(), c, phis).tolist() == values.tolist()
        value = complex(values.sum()) * step
        result = m.count_direct(m.build_zeta_factored(), c)
        assert result.value == value
        assert result.contour_gap == abs(value - complex(values[::2].sum()) * (2.0 * step))
        assert result.rounded == 0
        assert result.reliable

    def test_any_order_or_shape_keeps_the_bits_of_each_point(self):
        # the circle about 0.5 + 100i sums 112 and 113 terms on both sides
        # of |Im s| = 100, where the weights start to take out the round-off
        # of the phases, and the random points add lengths up to about 170
        c = m.CircularContour(0.5 + 100.0j, 0.5, nodes=128)
        rng = np.random.default_rng(37)
        points = np.concatenate(
            [c.point(2.0 * math.pi / c.nodes * np.arange(c.nodes)),
             rng.uniform(-1.0, 3.0, 64) + 1j * rng.uniform(-150.0, 150.0, 64)]
        )
        lengths, above = zeta_module._eta_terms(points), np.abs(points.imag) > 100.0
        assert len(set(lengths.tolist())) >= 10
        assert {112, 113} <= set(lengths[above].tolist()) & set(lengths[~above].tolist())
        alone = [tuple(v.item() for v in zeta_module._eta_pass(np.array([s]))) for s in points.tolist()]
        for order in (np.arange(len(points)), np.arange(len(points))[::-1], rng.permutation(len(points))):
            f, fprime = zeta_module._eta_pass(points[order])
            assert list(zip(f.tolist(), fprime.tolist())) == [alone[i] for i in order]
        f, fprime = zeta_module._eta_pass(points.reshape(12, 16))
        assert f.shape == fprime.shape == (12, 16)
        assert list(zip(f.ravel().tolist(), fprime.ravel().tolist())) == alone

    def test_cached_arrays_are_read_only(self):
        for array in (zeta_module._eta_series(31), zeta_module._log_parts()):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


class TestPrefactor:
    def test_identity_with_transform(self, zeta_ff):
        # cancellation in the oscillatory integral grows like e^{pi |Im s|/2}
        # (the Gamma decay in the prefactor), so keep |Im s| moderate here
        rng = np.random.default_rng(23)
        for _ in range(20):
            s = complex(rng.uniform(0.05, 2.0), rng.uniform(-12.0, 12.0))
            lhs = zeta_ff.K(s) * m.power_transform(zeta_ff.zf, 1, s).value
            assert abs(lhs - zeta_ff.f_reference(s)) < 1e-7

    def test_identity_degrades_gracefully_at_large_imag(self, zeta_ff):
        s = 1.88 - 20.0j
        lhs = zeta_ff.K(s) * m.power_transform(zeta_ff.zf, 1, s).value
        assert abs(lhs - zeta_ff.f_reference(s)) < 1e-4

    def test_inverse_identity(self, zeta_ff, zeta_zf):
        # zeta(s) * (1 - 2**(1-s)) * Gamma(s+1) / 2**(s-1) recovers Z(s)
        rng = np.random.default_rng(29)
        for _ in range(20):
            s = complex(rng.uniform(0.05, 2.0), rng.uniform(-12.0, 12.0))
            lam = 1.0 - cmath.exp((1.0 - s) * math.log(2.0))
            log_gamma = complex(_gamma_pass(np.array([s + 1.0]))[0][0])
            recovered = zeta_ff.f_reference(s) * lam * cmath.exp(log_gamma) / 2.0 ** (s - 1.0)
            assert abs(recovered - m.power_transform(zeta_zf, 1, s).value) < 1e-7

    def test_derivative_against_finite_differences(self, zeta_ff):
        rng = np.random.default_rng(31)
        h = 1e-6
        for _ in range(20):
            s = complex(rng.uniform(0.1, 2.0), rng.uniform(-10.0, 10.0))
            fd = (zeta_ff.K(s + h) - zeta_ff.K(s - h)) / (2.0 * h)
            assert abs(zeta_ff.Kprime(s) - fd) < 1e-6 * max(1.0, abs(fd))

    def test_matches_multiprecision_on_the_left_circle(self):
        # the 16 nodes of CI's circle about -0.7, where Re(s + 1) < 0.5
        import mpmath as mp

        s = m.CircularContour(-0.7 + 0j, 0.1, 16).point(2.0 * math.pi / 16 * np.arange(16))
        K, Kprime = zeta_module._prefactor_pass(s)
        with mp.workdps(30):
            def k_mp(x):
                return mp.power(2, x - 1) / ((1 - mp.power(2, 1 - x)) * mp.gamma(x + 1))

            for node, k, kprime in zip(s.tolist(), K.tolist(), Kprime.tolist()):
                x = mp.mpc(node)
                want, want_prime = complex(k_mp(x)), complex(mp.diff(k_mp, x))
                assert abs(k - want) <= 1e-13 * abs(want)
                assert abs(kprime - want_prime) <= 1e-13 * abs(want_prime)

    def test_log_derivative_formula(self, zeta_ff):
        s = 0.57 + 1.57j
        h = 1e-7
        fd = (cmath.log(zeta_ff.K(s + h)) - cmath.log(zeta_ff.K(s - h))) / (2.0 * h)
        assert abs(zeta_ff.Kprime(s) / zeta_ff.K(s) - fd) < 1e-6


class TestIntegrandFunction:
    def test_positive(self):
        t = np.linspace(0.01, 20.0, 500)
        assert np.all(m.z_integrand(t) > 0.0)

    def test_tail_bound(self):
        # t/cosh^2 t = 4 t e^{-2t} / (1 + e^{-2t})^2 < 4 t e^{-2t}
        t = np.linspace(2.0, 40.0, 500)
        assert np.all(m.z_integrand(t) < 4.0 * t * np.exp(-2.0 * t) * (1.0 + 1e-12))


class TestBuildZetaFactored:
    def test_wiring(self, zeta_ff):
        s = 0.4
        val = zeta_ff.K(s) * m.power_transform(zeta_ff.zf, 1, s).value
        assert abs(val - zeta_ff.f_reference(s)) < 1e-8

    def test_kprime_wired(self, zeta_ff):
        s = 0.57 + 1.57j
        h = 1e-6
        fd = (zeta_ff.K(s + h) - zeta_ff.K(s - h)) / (2.0 * h)
        assert abs(zeta_ff.Kprime(s) - fd) < 1e-6

    def test_transform_cube_reference_value(self, zeta_ff):
        v = m.power_transform(zeta_ff.zf, 1, 0.4).value
        assert abs(v**3 - 0.4875296044) < 1e-7

    def test_strip(self, zeta_ff):
        assert zeta_ff.zf.convergence_strip[0] == -1.0
        assert math.isinf(zeta_ff.zf.convergence_strip[1])


class TestPrefactorArrays:
    S = np.array([0.57 + 1.57j, -0.5 + 3.0j, 0.4 + 0j, 2.0 - 14.0j, 0.5 + 14.134725j])

    @pytest.mark.parametrize("name", ["K", "Kprime"])
    def test_matches_scalar_values(self, zeta_ff, name):
        f = getattr(zeta_ff, name)
        values = f(self.S)
        assert values.shape == self.S.shape
        assert values.tolist() == [f(complex(s)) for s in self.S]

    @pytest.mark.parametrize("name", ["K", "Kprime"])
    def test_pole_anywhere_in_array_rejected(self, zeta_ff, name):
        # a NaN node, whose |1 - 2**(1-s)| is NaN, must not hide the pole
        for nodes in ([0.57 + 1.57j, 1.0 + 0j, 2.0 + 0j], [complex(math.nan), 1.0 + 0j]):
            with pytest.raises(m.PoleError):
                getattr(zeta_ff, name)(np.array(nodes))

    def test_empty_node_array_gives_empty_array(self, coeffs):
        ff = m.build_zeta_factored()
        c = m.CircularContour(0.57 + 1.57j, 0.1, nodes=8)
        cfg = m.PipelineConfig(table=coeffs)
        entry_points = {
            "K": ff.K,
            "Kprime": ff.Kprime,
            "f_reference": ff.f_reference,
            "fprime_reference": ff.fprime_reference,
            "csgn": m.csgn,
            # the angle arrays of the contour entry points
            "kernel_mellin": lambda s: m.kernel_mellin(ff, c, s.real, cfg),
            "integrand_direct": lambda s: m.integrand_direct(ff, c, s.real),
            "integrand_stage2": lambda s: m.integrand_stage2(ff, c, s.real, coeffs, 1),
        }
        for name, f in entry_points.items():
            assert f(np.array([], dtype=complex)).shape == (0,), name

    @pytest.mark.parametrize("name", ["K", "Kprime"])
    def test_conditioning_warning_from_any_element(self, name):
        near = complex(1.0, 2.0 * math.pi / math.log(2.0)) + 1e-8
        with pytest.warns(RuntimeWarning, match="resonance"):
            getattr(m.build_zeta_factored(), name)(np.array([0.57 + 1.57j, near, 2.0 + 0j]))


class TestPrefactorExtremes:
    """K and K' at the ends of double range give a value or a typed error,
    never a numpy warning; a scalar and a node array that holds the same
    point agree."""

    @staticmethod
    def call(f, at):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return f(at)

    @pytest.mark.parametrize("name", ["K", "Kprime"])
    @pytest.mark.parametrize("s", [-1e308, -800.0, -2.0, -1.0, -1.0 + 5.0j])
    def test_left_of_domain_is_a_domain_error(self, name, s):
        # K has zeros, not poles, at s = -1, -2, ...: no PoleError there
        f = getattr(m.build_zeta_factored(), name)
        for at in (s, np.array([0.57 + 1.57j, s])):
            with pytest.raises(m.DomainError, match=r"Re s > -1 only") as info:
                self.call(f, at)
            assert not isinstance(info.value, m.PoleError)

    @pytest.mark.parametrize("name", ["K", "Kprime"])
    def test_far_right_underflows_to_zero(self, name):
        f = getattr(m.build_zeta_factored(), name)
        assert self.call(f, 1e308) == 0
        values = self.call(f, np.array([0.57 + 1.57j, 1e308]))
        assert values[1] == 0
        assert values[0] == f(0.57 + 1.57j)

    @pytest.mark.parametrize("name", ["K", "Kprime"])
    @pytest.mark.parametrize("s", [0.5 + 1e308j, 0.5 - 1e308j, 1e308j, -0.5 + 1e308j])
    def test_huge_imaginary_part_leaves_range(self, name, s):
        f = getattr(m.build_zeta_factored(), name)
        for at in (s, np.array([0.57 + 1.57j, s])):
            with pytest.raises(m.DomainError, match="leaves floating-point range"):
                self.call(f, at)

    @pytest.mark.parametrize("name", ["K", "Kprime"])
    def test_error_order(self, name):
        # the pole, then a non-finite s, then the domain, then the range
        f = getattr(m.build_zeta_factored(), name)
        huge, left = 0.5 + 1e308j, -800.0
        with pytest.raises(m.PoleError):
            self.call(f, np.array([huge, left, complex(math.nan), 1.0]))
        with pytest.raises(m.DomainError, match="is not finite"):
            self.call(f, np.array([huge, left, complex(math.inf)]))
        with pytest.raises(m.DomainError, match="Re s > -1 only"):
            self.call(f, np.array([huge, left]))


NEAR = complex(1.0, 2.0 * math.pi / math.log(2.0)) + 1e-8  # 1 - 2**(1-s) ~ 1e-8


@pytest.mark.parametrize("how", ["command", "stdin"])
def test_conditioning_warning_from_a_main_without_source(how):
    # `python -c` and a script read from stdin run __main__ from a string,
    # whose loader cannot give source; the warning names it and never raises
    code = "import melroot as m; m.build_zeta_factored().K(1+1e-9)"
    src = str(Path(m.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    args, stdin = ([sys.executable, "-c", code], None) if how == "command" else ([sys.executable, "-"], code)
    done = subprocess.run(args, input=stdin, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    name = "<string>" if how == "command" else "<stdin>"
    assert f"{name}:1: RuntimeWarning: 1 - 2**(1-s)" in done.stderr


class KeptEvaluationCases:
    """Cases for two model callables that share one kept evaluation
    (``zeta._kept_evaluation``), run against each pair that the zeta model
    wires that way; the subclasses name the pair."""

    S = TestPrefactorArrays.S

    def pair(self, ff):
        """The two model callables and the stateless functions they match."""
        raise NotImplementedError

    def count(self, ff, c, coeffs):
        """A count whose only evaluations of the pair are on its node array."""
        raise NotImplementedError

    def test_values_match_module_functions(self):
        ff = m.build_zeta_factored()
        for kept, stateless in zip(*self.pair(ff)):
            assert kept(self.S).tobytes() == stateless(self.S).tobytes()
            for s in self.S:
                value = kept(complex(s))
                assert type(value) is complex
                assert np.array(value).tobytes() == np.array(stateless(complex(s))).tobytes()

    def test_interleaved_calls_are_never_stale(self):
        ff = m.build_zeta_factored()
        (f, g), (f0, g0) = self.pair(ff)
        a, b = self.S, self.S[::-1] + 0.01
        got = [f(a), f(b), g(a), g(b), f(a), g(a)]
        want = [f0(a), f0(b), g0(a), g0(b), f0(a), g0(a)]
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want]

    def test_edits_between_calls_are_not_stale(self):
        ff = m.build_zeta_factored()
        (f, g), (f0, g0) = self.pair(ff)
        a = self.S.copy()
        values = f(a)
        values[:] = 0.0  # an edit of a returned array does not reach the kept one
        assert f(a).tobytes() == f0(a).tobytes()
        assert g(a).tobytes() == g0(a).tobytes()
        a[1] += 0.25  # the nodes themselves, edited in place
        assert g(a).tobytes() == g0(a).tobytes()
        assert f(a).tobytes() == f0(a).tobytes()

    def test_pole_raises_and_is_not_kept(self):
        ff = m.build_zeta_factored()
        (f, g), (_, g0) = self.pair(ff)
        f(self.S)
        for kept in (f, g, f):
            for pole in (1.0, np.array([0.57 + 1.57j, 1.0 + 0j])):
                with pytest.raises(m.PoleError):
                    kept(pole)
        assert g(self.S).tobytes() == g0(self.S).tobytes()

    def test_conditioning_warning_names_the_caller(self):
        ff = m.build_zeta_factored()
        s = NEAR
        for f in self.pair(ff)[0]:
            s += 1e-12  # new nodes for each callable, so the model evaluates afresh
            for nodes in (s, np.array([0.57 + 1.57j, s])):
                with pytest.warns(RuntimeWarning) as record:
                    f(nodes)
                assert [w.filename for w in record] == [__file__]

    def test_conditioning_warning_once_per_node_array(self):
        ff = m.build_zeta_factored()
        f, g = self.pair(ff)[0]
        nodes = np.array([0.57 + 1.57j, NEAR])
        with pytest.warns(RuntimeWarning) as record:
            f(nodes)
            g(nodes)
            f(nodes)
        assert len(record) == 1

    def test_conditioning_warning_through_a_count_names_the_caller(self, coeffs):
        # the node at phi = 0 lies within round-off of NEAR
        c = m.CircularContour(NEAR - 0.1, 0.1, nodes=8)
        with pytest.warns(RuntimeWarning) as record:
            self.count(m.build_zeta_factored(), c, coeffs)
        assert [w.filename for w in record] == [__file__]


class TestSharedEtaPass(KeptEvaluationCases):
    """The zeta model's f and f' references share one eta-series pass per
    node."""

    def pair(self, ff):
        # the stateless eta pass, on a point or a node array
        stateless = tuple(elementwise(lambda s, i=i: zeta_module._eta_pass(s)[i]) for i in range(2))
        return (ff.f_reference, ff.fprime_reference), stateless

    def count(self, ff, c, coeffs):
        return m.count_direct(ff, c)

    def test_count_direct_runs_one_pass_per_node(self, monkeypatch):
        exponentials = []
        powers = zeta_module._eta_powers

        def counted_powers(s, logs):
            exponentials.append(s.copy())
            return powers(s, logs)

        monkeypatch.setattr(zeta_module, "_eta_powers", counted_powers)
        groups = _counted_accumulates(monkeypatch)
        calls = []

        def recorded(name, fn):
            def wrapper(s):
                calls.append((name, np.shape(s)))
                return fn(s)

            return wrapper

        ff = m.build_zeta_factored()
        ff = dataclasses.replace(
            ff,
            f_reference=recorded("f", ff.f_reference),
            fprime_reference=recorded("fprime", ff.fprime_reference),
        )
        m.count_direct(ff, m.CircularContour(0.57 + 1.57j, 0.1, nodes=128))
        assert calls == [("f", (128,)), ("fprime", (128,))]
        # one exponential forms the powers of all 128 nodes, and one
        # accumulate sums the series of each group of nodes with one length,
        # all under |Im s| = 100, for f and f' both
        assert [s.shape for s in exponentials] == [(128,)]
        lengths = collections.Counter(zeta_module._eta_terms(exponentials[0]).tolist())
        assert groups == [(2, lengths[n], n) for n in sorted(lengths)]
        assert len(groups) > 1

    def test_interleaved_calls_match_module_functions(self):
        ff = m.build_zeta_factored()
        s1, s2 = 0.57 + 1.57j, 0.5 + 14.134725j
        got = [ff.f_reference(s1), ff.fprime_reference(s2), ff.f_reference(s2), ff.fprime_reference(s1)]
        f0, g0 = self.pair(ff)[1]
        want = [f0(s1), g0(s2), f0(s2), g0(s1)]
        assert got == want

    def test_count_direct_matches_stateless_references(self):
        ff = m.build_zeta_factored()
        (_, _), (f0, g0) = self.pair(ff)
        stateless = dataclasses.replace(ff, f_reference=f0, fprime_reference=g0)
        for c in (m.CircularContour(0.57 + 1.57j, 0.1, nodes=64), m.CircularContour(1.0 + 0j, 0.1, nodes=128)):
            assert m.count_direct(ff, c) == m.count_direct(stateless, c)


class TestSharedPrefactorPass(KeptEvaluationCases):
    """The zeta model's K and K' share one prefactor pass per node array."""

    def pair(self, ff):
        # the stateless prefactor pass, on a point or a node array
        stateless = tuple(elementwise(lambda s, i=i: zeta_module._prefactor_pass(s)[i]) for i in range(2))
        return (ff.K, ff.Kprime), stateless

    def count(self, ff, c, coeffs):
        return m.count_pipeline(ff, c, m.PipelineConfig(table=coeffs))

    def test_count_pipeline_runs_one_gamma_pass(self, monkeypatch, coeffs):
        # log Gamma and psi for K and K' come from one shared pass
        calls = []

        def counted(z, fn=zeta_module._gamma_pass):
            calls.append(z.shape)
            return fn(z)

        monkeypatch.setattr(zeta_module, "_gamma_pass", counted)
        c = m.CircularContour(1.0 + 0j, 0.1, nodes=16)
        m.count_pipeline(m.build_zeta_factored(), c, m.PipelineConfig(table=coeffs))
        assert calls == [(16,)]

    def test_out_of_range_raises_without_warning_and_is_not_kept(self):
        # 1 / Gamma(s + 1) in K leaves double range past |Im s| ~ 450
        ff = m.build_zeta_factored()
        (f, g), (f0, g0) = self.pair(ff)
        assert all(cmath.isfinite(h(0.57 + 450j)) for h in (f0, g0))
        f(self.S)
        nodes = np.array([0.57 + 1.57j, 0.57 + 460j, 0.57 + 470j])
        for h in (f0, g0, f, g, f):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(m.DomainError, match=r"s = \(0\.57\+460j\)"):
                    h(nodes)
        assert g(self.S).tobytes() == g0(self.S).tobytes()

    def test_conditioning_warning_names_the_caller(self):
        super().test_conditioning_warning_names_the_caller()
        s = NEAR
        for f in self.pair(m.build_zeta_factored())[1]:
            for nodes in (s, np.array([0.57 + 1.57j, s])):
                with pytest.warns(RuntimeWarning) as record:
                    f(nodes)
                assert [w.filename for w in record] == [__file__]
