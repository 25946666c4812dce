import cmath
import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import melroot as m
from melroot import zeta as zeta_module
from melroot.numerics import _gamma_pass, elementwise


class TestZetaReference:
    def test_basel_value(self):
        assert abs(m.zeta_reference(2.0) - math.pi**2 / 6.0) < 1e-12

    def test_value_at_zero(self):
        assert abs(m.zeta_reference(0.0) + 0.5) < 1e-12

    def test_pole_at_one(self):
        with pytest.raises(m.PoleError):
            m.zeta_reference(1.0)
        with pytest.raises(m.PoleError):
            m.build_zeta_factored().fprime_reference(1.0)

    @pytest.mark.parametrize("s", [-800.0, 0.5 + 1e308j], ids=["overflow", "domain"])
    def test_series_out_of_range_is_a_domain_error(self, s):
        # cmath's OverflowError and ValueError, raised in 2**(1-s) or the
        # 50-term loop, come out typed
        ff = m.build_zeta_factored()
        nodes = np.array([0.5 + 1j, s])
        for reference, at in ((m.zeta_reference, s), (ff.fprime_reference, s), (ff.f_reference, nodes)):
            with pytest.raises(m.DomainError, match="eta series"):
                reference(at)

    def test_bad_argument_keeps_its_own_error(self):
        with pytest.raises(ValueError) as info:
            m.zeta_reference("not a number")
        assert not isinstance(info.value, m.DomainError)

    def test_conditioning_warning_near_resonance(self):
        # 1 - 2**(1-s) vanishes along Re(s) = 1 at Im(s) = 2*pi*k/ln 2
        s = complex(1.0, 2.0 * math.pi / math.log(2.0)) + 1e-8
        ff = m.build_zeta_factored()
        for reference in (m.zeta_reference, zeta_module._zeta_and_prime, ff.f_reference, ff.fprime_reference):
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
            assert abs(m.zeta_reference(s) - complex(mp.zeta(s))) < 1e-10
            assert abs(ff.fprime_reference(s) - complex(mp.zeta(s, derivative=1))) < 1e-9

    def test_series_refused_past_im_45(self):
        # the 50-term series keeps 6.8e-10 of zeta and zeta' at |Im s| = 45;
        # past it the error grows to 0.29 at 100, so it is refused
        import mpmath as mp

        mp.mp.dps = 30
        ff = m.build_zeta_factored()
        for re in (-0.9, 0.0, 0.5, 1.5, 3.0):
            for s in (complex(re, 45.0), complex(re, -45.0)):
                for ours, k in ((m.zeta_reference, 0), (ff.fprime_reference, 1)):
                    exact = complex(mp.zeta(s, derivative=k))
                    assert abs(ours(s) - exact) < 1e-9 * abs(exact)
        s = 0.5 + 45.5j
        nodes = np.array([0.5 + 1j, s])
        for reference, at in ((m.zeta_reference, s), (ff.fprime_reference, s.conjugate()), (ff.f_reference, nodes)):
            with pytest.raises(m.DomainError, match="eta series"):
                reference(at)
        # a circle about 0.5 + 45i of radius 0.4 has nodes past |Im s| = 45
        with pytest.raises(m.DomainError, match="eta series"):
            m.count_direct(ff, m.CircularContour(0.5 + 45.0j, 0.4, nodes=16))

    @pytest.mark.parametrize("im", [45.0, -45.0])
    def test_guard_starts_just_past_45(self, im):
        # |Im s| = 45 itself is summed; the next double outward is refused
        assert cmath.isfinite(m.zeta_reference(complex(0.5, im)))
        with pytest.raises(m.DomainError, match="eta series"):
            m.zeta_reference(complex(0.5, math.nextafter(im, math.copysign(math.inf, im))))

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
        assert abs(m.zeta_reference(s) - complex(mp.zeta(s))) < 1e-11


class TestPrefactor:
    def test_identity_with_transform(self, zeta_ff):
        # cancellation in the oscillatory integral grows like e^{pi |Im s|/2}
        # (the Gamma decay in the prefactor), so keep |Im s| moderate here
        rng = np.random.default_rng(23)
        quad = m.QuadratureConfig(rel_tol=1e-10, abs_tol=1e-13)
        for _ in range(20):
            s = complex(rng.uniform(0.05, 2.0), rng.uniform(-12.0, 12.0))
            lhs = zeta_ff.K(s) * m.transform(zeta_ff.zf, s, quad).value
            assert abs(lhs - m.zeta_reference(s)) < 1e-7

    def test_identity_degrades_gracefully_at_large_imag(self, zeta_ff):
        quad = m.QuadratureConfig(rel_tol=1e-10, abs_tol=1e-13)
        s = 1.88 - 20.0j
        lhs = zeta_ff.K(s) * m.transform(zeta_ff.zf, s, quad).value
        assert abs(lhs - m.zeta_reference(s)) < 1e-4

    def test_inverse_identity(self, zeta_zf):
        # zeta(s) * (1 - 2**(1-s)) * Gamma(s+1) / 2**(s-1) recovers Z(s)
        rng = np.random.default_rng(29)
        quad = m.QuadratureConfig(rel_tol=1e-10, abs_tol=1e-13)
        for _ in range(20):
            s = complex(rng.uniform(0.05, 2.0), rng.uniform(-12.0, 12.0))
            lam = 1.0 - cmath.exp((1.0 - s) * math.log(2.0))
            log_gamma = complex(_gamma_pass(np.array([s + 1.0]))[0][0])
            recovered = m.zeta_reference(s) * lam * cmath.exp(log_gamma) / 2.0 ** (s - 1.0)
            assert abs(recovered - m.transform(zeta_zf, s, quad).value) < 1e-7

    def test_derivative_against_finite_differences(self, zeta_ff):
        rng = np.random.default_rng(31)
        h = 1e-6
        for _ in range(20):
            s = complex(rng.uniform(0.1, 2.0), rng.uniform(-10.0, 10.0))
            fd = (zeta_ff.K(s + h) - zeta_ff.K(s - h)) / (2.0 * h)
            assert abs(zeta_ff.Kprime(s) - fd) < 1e-6 * max(1.0, abs(fd))

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
        quad = m.QuadratureConfig(rel_tol=1e-10, abs_tol=1e-13)
        val = zeta_ff.K(s) * m.transform(zeta_ff.zf, s, quad).value
        assert abs(val - m.zeta_reference(s)) < 1e-8

    def test_kprime_wired(self, zeta_ff):
        s = 0.57 + 1.57j
        h = 1e-6
        fd = (zeta_ff.K(s + h) - zeta_ff.K(s - h)) / (2.0 * h)
        assert abs(zeta_ff.Kprime(s) - fd) < 1e-6

    def test_transform_cube_reference_value(self, zeta_ff):
        v = m.transform(zeta_ff.zf, 0.4).value
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
        # the stateless eta series takes one point at a time
        series = zeta_module._zeta_and_prime
        stateless = tuple(np.vectorize(lambda s, i=i: series(s)[i], otypes=[complex]) for i in range(2))
        return (ff.f_reference, ff.fprime_reference), stateless

    def count(self, ff, c, coeffs):
        return m.count_direct(ff, c)

    def test_count_direct_runs_one_pass_per_node(self, monkeypatch):
        passes = []
        series = zeta_module._zeta_and_prime

        def counted(s):
            passes.append(s)
            return series(s)

        monkeypatch.setattr(zeta_module, "_zeta_and_prime", counted)
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
        assert len(passes) == 128

    def test_interleaved_calls_match_module_functions(self):
        ff = m.build_zeta_factored()
        s1, s2 = 0.57 + 1.57j, 0.5 + 14.134725j
        got = [ff.f_reference(s1), ff.fprime_reference(s2), ff.f_reference(s2), ff.fprime_reference(s1)]
        series = zeta_module._zeta_and_prime
        want = [series(s1)[0], series(s2)[1], series(s2)[0], series(s1)[1]]
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
