import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import melroot as m
from melroot.numerics import _gamma_pass

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


def _gamma(*z):
    """(log Gamma, psi) of the points ``z``, from one gamma pass on their array."""
    return _gamma_pass(np.array(z, dtype=np.complex128))


class TestGammaFunctions:
    def test_log_gamma_one(self):
        assert abs(_gamma(1.0)[0][0]) < 1e-13

    def test_log_gamma_half(self):
        assert abs(_gamma(0.5)[0][0] - math.log(math.sqrt(math.pi))) < 1e-13

    def test_digamma_one_is_minus_euler_gamma(self):
        assert abs(_gamma(1.0)[1][0] - (-_euler_gamma_oracle())) < 1e-11

    def test_poles_rejected(self):
        # the pass is taken on Re z > 0 only: the poles and the rest of the
        # left half-plane are refused, naming the point
        for z in (0.0, -1.0, -7.0, -0.5 + 3j, 2j, -1e-300 + 0j):
            with pytest.raises(m.DomainError, match=re.escape(f"not at z = {complex(z)}")):
                _gamma(z)

    @settings(max_examples=40, deadline=None)
    @given(
        re=st.floats(min_value=0.0, max_value=10.0, exclude_min=True),
        im=st.floats(min_value=-50.0, max_value=50.0),
    )
    def test_functional_equation(self, re, im):
        s = complex(re, im)
        if abs(s) < 1e-3:
            return
        lhs, rhs = np.exp(_gamma(s + 1.0, s)[0]) * [1.0, s]
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_digamma_is_log_gamma_derivative(self):
        h = 1e-6
        for s in (2.3 + 0.7j, 5.0 - 3.0j, 0.8 + 0.1j):
            log_gamma, psi = _gamma(s + h, s - h, s)
            fd = (log_gamma[0] - log_gamma[1]) / (2 * h)
            assert abs(psi[2] - fd) < 1e-7

    def test_accuracy_across_the_reflection_line(self):
        # Re z in (0, 4] on both sides of Re z = 0.5, where a reflection
        # formula would take over, |Im z| <= 60, with a row at Re z = 1e-9
        # next to the pole at 0
        import mpmath as mp

        re = np.concatenate([[1e-9], np.linspace(0.05, 4.0, 20)])
        im = np.array([-60.0, -20.0, -5.0, -1.0, -0.1, -1e-3, 0.0, 1e-3, 0.1, 1.0, 5.0, 20.0, 60.0])
        z = (re[:, np.newaxis] + 1j * im).ravel()
        with mp.workdps(30):
            gamma = np.array([complex(mp.gamma(p)) for p in z])
            psi = np.array([complex(mp.digamma(p)) for p in z])
            principal = np.array([complex(mp.loggamma(p)) for p in z])
        log_gamma, ours = _gamma_pass(z)
        assert (np.abs(np.exp(log_gamma) - gamma) <= 1e-13 * np.abs(gamma)).all()
        assert (np.abs(ours - psi) <= 1e-14 * np.maximum(1.0, np.abs(psi))).all()
        # log Gamma is the principal branch itself
        assert (np.abs(log_gamma - principal) <= 5e-14 * np.maximum(1.0, np.abs(principal))).all()

    def test_reflection_at_large_imaginary_part(self):
        # left of Re z = 0.5 at large |Im z|, where sin(pi z) of the
        # reflection formula would overflow. exp turns an absolute error of
        # log Gamma into the same relative error of Gamma, and |log Gamma| ~
        # 1500-2100 here holds only about 1e-13 absolute in a double, so the
        # bound scales with |log Gamma|
        import mpmath as mp

        for z in (0.25 + 300j, 0.4 - 400j):
            with mp.workdps(30):
                gamma, log_gamma = mp.exp(mp.loggamma(z)), complex(mp.loggamma(z))
                ours = complex(_gamma(z)[0][0])
                assert cmath.isfinite(ours)
                assert abs(mp.exp(ours) / gamma - 1) <= 1e-15 * abs(log_gamma)

    def test_accuracy_against_multiprecision(self):
        import mpmath as mp

        mp.mp.dps = 30
        rng = np.random.default_rng(5)
        s = np.array([complex(10.0 - rng.uniform(0.0, 10.0), rng.uniform(-50, 50)) for _ in range(30)])
        log_gamma, psi = _gamma_pass(s)
        for si, ours, ours_psi in zip(s.tolist(), np.exp(log_gamma).tolist(), psi.tolist()):
            ref = complex(mp.gamma(si))
            assert abs(ours - ref) <= 1e-12 * abs(ref)
            ref_psi = complex(mp.digamma(si))
            assert abs(ours_psi - ref_psi) < 1e-10 * max(1.0, abs(ref_psi))


class TestElementwise:
    # one implementation serves single points and arrays: each element of an
    # array result is the function's value at that element alone
    # 0 < Re z < 0.5 and Re z >= 0.5, on and off the real axis
    Z = np.array([0.1 + 0.2j, 1e-9 + 0j, 0.25 - 4.0j, 0.49 + 0j, 0.5 + 0j, 1.0 + 0j, 2.3 + 0.7j, 9.5 - 30.0j, 15.0 + 1j])

    @pytest.mark.parametrize("part", [0, 1], ids=["log_gamma", "digamma"])
    def test_gamma_pass_matches_single_element_values(self, part):
        values = _gamma_pass(self.Z)[part]
        assert values.shape == self.Z.shape
        assert values.tolist() == [_gamma(z)[part][0] for z in self.Z]
        assert np.array_equal(_gamma_pass(self.Z.reshape(3, 3))[part], values.reshape(3, 3))

    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_pole_anywhere_in_array_rejected(self, where):
        # Re z <= 0 anywhere is refused, naming that element
        z = np.array([1.5 + 1j, 0.3 - 2j, 2.0, 0.5 + 0j, 7.0 + 0j])
        z[where] = -2.0 + 1j
        with pytest.raises(m.DomainError, match=re.escape("not at z = (-2+1j)")):
            _gamma_pass(z)

    def test_csgn_matches_scalar_values(self):
        x = np.array([1 + 1j, -2 + 5j, -3j, 3j, -1e-300 + 0j, complex(math.nan, 1.0)])
        scalars = [m.csgn(complex(v)) for v in x]
        assert all(type(v) is int for v in scalars)
        assert scalars == [1, -1, -1, 1, -1, -1]
        assert m.csgn(x).tolist() == scalars

    def test_csgn_zero_anywhere_rejected(self):
        with pytest.raises(m.DomainError):
            m.csgn(np.array([1.0 + 1j, 0j, -1.0 + 0j]))
