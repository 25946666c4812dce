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


class TestCsgnSmooth:
    def test_saturates(self):
        assert abs(m.csgn_smooth(1.0, 0.01) - 1.0) < 1e-12

    def test_odd_at_zero(self):
        assert m.csgn_smooth(0.0, 0.5) == 0

    def test_matches_exponential_oracle(self):
        # tanh(w) = (e**2w - 1)/(e**2w + 1)
        w = 5 + 2j
        e2w = cmath.exp(2 * w)
        assert abs(m.csgn_smooth(0.5 + 0.2j, 0.1) - (e2w - 1) / (e2w + 1)) < 1e-13

    def test_handles_huge_arguments(self):
        assert m.csgn_smooth(1e300 + 5j, 1e-3) == 1.0
        assert m.csgn_smooth(-1e300 + 5j, 1e-3) == -1.0

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            m.csgn_smooth(1.0, 0.0)

    def test_converges_to_csgn_monotonically(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-3, 3, size=(1000, 2))
        pts = pts[np.abs(pts[:, 0]) > 0.1]
        for re, im in pts:
            x = complex(re, im)
            sign = m.csgn(x)
            errs = [abs(m.csgn_smooth(x, eps) - sign) for eps in (1.0, 0.1, 0.01)]
            assert errs[0] >= errs[1] >= errs[2]


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
