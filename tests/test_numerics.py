import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import melroot as m

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
nonzero_re = st.floats(min_value=0.05, max_value=1e6).flatmap(
    lambda r: st.sampled_from([r, -r])
)


class TestCsgn:
    def test_positive_real_part(self):
        assert m.csgn(1 + 1j) == 1

    def test_negative_real_part(self):
        assert m.csgn(-2 + 5j) == -1

    def test_imaginary_axis_uses_imag_sign(self):
        assert m.csgn(0 - 3j) == -1
        assert m.csgn(0 + 3j) == 1

    def test_zero_rejected(self):
        with pytest.raises(m.DomainError):
            m.csgn(0)

    @given(re=nonzero_re, im=finite)
    def test_squares_to_one(self, re, im):
        assert m.csgn(complex(re, im)) ** 2 == 1

    @given(re=nonzero_re, im=finite)
    def test_odd(self, re, im):
        x = complex(re, im)
        assert m.csgn(-x) == -m.csgn(x)

    @given(re=nonzero_re, im=finite)
    def test_folds_into_right_half_plane(self, re, im):
        # csgn(f) f is the argument of the exponential sum for 1/f
        x = complex(re, im)
        assert (m.csgn(x) * x).real > 0.0

    @given(im=st.floats(min_value=1e-6, max_value=1e6).flatmap(lambda r: st.sampled_from([r, -r])))
    def test_folds_imaginary_axis_upward(self, im):
        x = complex(0.0, im)
        assert (m.csgn(x) * x).imag > 0.0


def _euler_gamma_oracle():
    # harmonic-sum oracle with Euler-Maclaurin tail correction
    n = 2000
    h = sum(1.0 / k for k in range(1, n + 1))
    return h - math.log(n) - 1.0 / (2 * n) + 1.0 / (12 * n**2)


class TestGammaFunctions:
    def test_log_gamma_one(self):
        assert abs(m.log_gamma(1.0)) < 1e-13

    def test_log_gamma_half(self):
        assert abs(m.log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-13

    def test_digamma_one_is_minus_euler_gamma(self):
        assert abs(m.digamma(1.0) - (-_euler_gamma_oracle())) < 1e-11

    def test_poles_rejected(self):
        for z in (0.0, -1.0, -7.0):
            with pytest.raises(m.PoleError):
                m.log_gamma(z)
            with pytest.raises(m.PoleError):
                m.digamma(z)

    @settings(max_examples=40, deadline=None)
    @given(
        re=st.floats(min_value=-0.9, max_value=10.0),
        im=st.floats(min_value=-50.0, max_value=50.0),
    )
    def test_functional_equation(self, re, im):
        s = complex(re, im)
        if abs(s) < 1e-3 or (s.imag == 0 and s.real <= 0 and s.real.is_integer()):
            return
        lhs = cmath.exp(m.log_gamma(s + 1.0))
        rhs = s * cmath.exp(m.log_gamma(s))
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_digamma_is_log_gamma_derivative(self):
        h = 1e-6
        for s in (2.3 + 0.7j, 5.0 - 3.0j, 0.8 + 0.1j):
            fd = (m.log_gamma(s + h) - m.log_gamma(s - h)) / (2 * h)
            assert abs(m.digamma(s) - fd) < 1e-7

    def test_accuracy_across_the_reflection_line(self):
        # Re z in [-5.5, 4] on both sides of Re z = 0.5, |Im z| <= 60, and
        # points next to the poles at 0, -1, -2, -5
        import mpmath as mp

        re = np.linspace(-5.5, 4.0, 20)
        im = np.array([-60.0, -20.0, -5.0, -1.0, -0.1, -1e-3, 0.0, 1e-3, 0.1, 1.0, 5.0, 20.0, 60.0])
        z = (re[:, np.newaxis] + 1j * im).ravel()
        z = z[(z.imag != 0.0) | (z.real != np.round(z.real)) | (z.real > 0.0)]
        near = [k + d for k in (0.0, -1.0, -2.0, -5.0) for d in (1e-9, -1e-7, 1e-5 + 1e-5j)]
        z = np.concatenate([z, near])
        right = z[z.real >= 0.5]
        with mp.workdps(30):
            gamma = np.array([complex(mp.gamma(p)) for p in z])
            psi = np.array([complex(mp.digamma(p)) for p in z])
            principal = np.array([complex(mp.loggamma(p)) for p in right])
        assert (np.abs(np.exp(m.log_gamma(z)) - gamma) <= 1e-13 * np.abs(gamma)).all()
        assert (np.abs(m.digamma(z) - psi) <= 1e-14 * np.maximum(1.0, np.abs(psi))).all()
        # on Re z >= 0.5 log_gamma is the principal branch itself
        assert (np.abs(m.log_gamma(right) - principal) <= 5e-14 * np.maximum(1.0, np.abs(principal))).all()
        for pole in (0.0, -1.0, -2.0):
            for f in (m.log_gamma, m.digamma):
                with pytest.raises(m.PoleError):
                    f(pole)

    def test_reflection_at_large_imaginary_part(self):
        # sin(pi z) overflows past |Im z| of about 225, log Gamma does not.
        # exp turns an absolute error of log Gamma into the same relative
        # error of Gamma, and |log Gamma| ~ 1500-2100 here holds only about
        # 1e-13 absolute in a double, so the bound scales with |log Gamma|
        import mpmath as mp

        for z in (-0.5 + 300j, -3.2 - 400j):
            with mp.workdps(30):
                gamma, log_gamma = mp.exp(mp.loggamma(z)), complex(mp.loggamma(z))
                ours = m.log_gamma(z)
                assert cmath.isfinite(ours)
                assert abs(mp.exp(ours) / gamma - 1) <= 1e-15 * abs(log_gamma)

    def test_accuracy_against_multiprecision(self):
        import mpmath as mp

        mp.mp.dps = 30
        rng = np.random.default_rng(5)
        for _ in range(30):
            s = complex(rng.uniform(-0.99, 10), rng.uniform(-50, 50))
            ours = cmath.exp(m.log_gamma(s))
            ref = complex(mp.gamma(s))
            assert abs(ours - ref) <= 1e-12 * abs(ref)
            assert abs(m.digamma(s) - complex(mp.digamma(s))) < 1e-10 * max(
                1.0, abs(complex(mp.digamma(s)))
            )


class TestElementwise:
    # one implementation serves scalars and arrays: each element of an array
    # result is the function's value at that element alone
    # Re z < 0.5 (reflection) and Re z >= 0.5, on and off the real axis
    Z = np.array([-3.7 + 0.2j, -0.5 + 0j, 0.25 - 4.0j, 0.49 + 0j, 0.5 + 0j, 1.0 + 0j, 2.3 + 0.7j, 9.5 - 30.0j, 15.0 + 1j])

    @pytest.mark.parametrize("f", [m.log_gamma, m.digamma])
    def test_gamma_functions_match_scalar_values(self, f):
        values = f(self.Z)
        assert values.shape == self.Z.shape
        scalars = [f(complex(z)) for z in self.Z]
        assert all(type(v) is complex for v in scalars)
        assert values.tolist() == scalars
        assert np.array_equal(f(self.Z.reshape(3, 3)), values.reshape(3, 3))

    @pytest.mark.parametrize("f", [m.log_gamma, m.digamma])
    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_pole_anywhere_in_array_rejected(self, f, where):
        z = np.array([1.5 + 1j, 0.3 - 2j, 2.0, -0.5 + 0j, 7.0 + 0j])
        z[where] = -2.0
        with pytest.raises(m.PoleError):
            f(z)

    def test_csgn_matches_scalar_values(self):
        x = np.array([1 + 1j, -2 + 5j, -3j, 3j, -1e-300 + 0j, complex(math.nan, 1.0)])
        scalars = [m.csgn(complex(v)) for v in x]
        assert all(type(v) is int for v in scalars)
        assert scalars == [1, -1, -1, 1, -1, -1]
        assert m.csgn(x).tolist() == scalars

    def test_csgn_zero_anywhere_rejected(self):
        with pytest.raises(m.DomainError):
            m.csgn(np.array([1.0 + 1j, 0j, -1.0 + 0j]))
