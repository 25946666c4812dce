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


class TestNonFinite:
    def test_tail_overflow_read_as_zero(self):
        # t**5 overflows where e**-t is 0, so the far tail samples are NaN
        samples = []

        def g(t):
            with np.errstate(all="ignore"):
                v = t**5 * np.exp(-t)
            samples.append(v)
            return v

        r = m.integrate_semi_infinite(g)
        assert not np.isfinite(np.concatenate(samples)).all()
        assert abs(r.value - 120.0) < 1e-8 * 120.0

    def test_interior_nan_of_coarse_pass_raises(self):
        # t = 1 is a coarse abscissa (u = 0)
        g = lambda t: np.where(t == 1.0, math.nan, np.exp(-t))
        with pytest.raises(m.DomainError):
            m.integrate_semi_infinite(g)

    def test_interior_nan_of_a_halving_raises(self):
        # NaN at u = +-1/4 and +-3/4, t = exp(pi/2 sinh u): the coarse pass
        # samples multiples of 1/2 only, and the first halving samples these
        nan_at = np.exp(0.5 * math.pi * np.sinh([-0.75, -0.25, 0.25, 0.75]))
        nan = lambda t: np.isclose(t[..., np.newaxis], nan_at, rtol=1e-12, atol=0.0).any(axis=-1)
        g = lambda t: np.where(nan(t), math.nan, np.exp(-t))
        with pytest.raises(m.DomainError, match="not finite inside its support"):
            m.integrate_semi_infinite(g)

    def test_nan_everywhere_raises(self):
        # no coarse abscissa is finite, so there is no support to read as 0
        with pytest.raises(m.DomainError):
            m.integrate_semi_infinite(lambda t: np.full_like(t, math.nan))

    def test_rows_read_nan_everywhere_as_zero(self):
        g = lambda t, rows: np.stack([np.exp(-t) if r == 0 else np.full_like(t, math.nan) for r in rows])
        r = m.integrate_semi_infinite(g, rows=np.array([0, 1]))
        assert abs(r.value[0] - 1.0) < 1e-10
        assert r.value[1] == 0.0

    def test_rows_read_overflow_as_zero(self):
        # row 1 overflows to NaN at t > 5e7, inside the slowly decaying
        # support of row 0
        def g(t, rows):
            with np.errstate(all="ignore"):
                return np.stack([1.0 / (1.0 + t) ** 2 if r == 0 else t**40 * np.exp(-t) for r in rows])

        r = m.integrate_semi_infinite(g, rows=np.array([0, 1]))
        assert abs(r.value[0] - 1.0) < 1e-8
        assert abs(r.value[1] - math.factorial(40)) < 1e-8 * math.factorial(40)


def _damped_cosines(t, p):
    # int e**-t cos(p t) dt = 1 / (1 + p**2); larger p needs finer steps
    return np.exp(-t) * np.cos(np.multiply.outer(p, t))


class TestRows:
    def test_rows_integrate_independently(self):
        gamma = lambda t, p: t ** (p[:, None] - 1.0) * np.exp(-t)
        r = m.integrate_semi_infinite(gamma, rows=np.array([1.0, 2.0, 0.5]))
        assert r.value.shape == (3,)
        assert np.all(np.abs(r.value - [1.0, 1.0, math.sqrt(math.pi)]) < 1e-10)

    def test_single_row_is_the_scalar_integral(self):
        g = lambda t: t / np.cosh(t) ** 2 * t ** (-0.6 - 0.3j)
        scalar = m.integrate_semi_infinite(g)
        g_rows = lambda t, p: t / np.cosh(t) ** 2 * t ** p[:, None]
        rows = m.integrate_semi_infinite(g_rows, rows=np.array([-0.6 - 0.3j]))
        assert isinstance(scalar.value, complex)
        assert rows.value.shape == (1,)
        assert rows.value[0] == scalar.value
        assert (rows.error, rows.evals) == (scalar.error, scalar.evals)

    def test_abscissae_must_be_the_last_axis(self):
        with pytest.raises(ValueError):
            m.integrate_semi_infinite(lambda t, p: np.stack([np.exp(-t), np.exp(-t)], axis=-1), rows=np.zeros(2))
        # without rows the integrand has the shape of its abscissae
        with pytest.raises(ValueError):
            m.integrate_semi_infinite(lambda t: np.stack([np.exp(-t), np.exp(-t)]))
        with pytest.raises(ValueError):
            m.integrate_semi_infinite(lambda t, p: np.exp(-t) * p, rows=np.zeros((2, 1)))

    def test_rows_must_not_change_between_calls(self):
        calls = []

        def g(t, p):
            calls.append(t)
            return np.ones((len(calls), 1)) * np.exp(-t)  # one more row on every call

        with pytest.raises(ValueError):
            m.integrate_semi_infinite(g, rows=np.zeros(1))

    def test_converged_rows_are_not_sampled_again(self):
        rows = np.array([0.0, 5.0, 40.0])
        seen = []

        def g(t, p):
            seen.append(p.tolist())
            return _damped_cosines(t, p)

        r = m.integrate_semi_infinite(g, rows=rows)
        assert np.all(np.abs(r.value - 1.0 / (1.0 + rows**2)) < 1e-10)
        assert seen[0] == rows.tolist()
        # each call gets the rows still refining, in order, and a row that
        # has left never comes back
        for before, after in zip(seen, seen[1:]):
            assert after and set(after) <= set(before) and after == sorted(after)
        assert seen[-1] == [40.0]
        assert sum(0.0 in p for p in seen) < sum(5.0 in p for p in seen) < len(seen)

    def test_converged_row_keeps_its_error(self):
        quad = m.QuadratureConfig()
        r = m.integrate_semi_infinite(_damped_cosines, quad, np.array([0.0, 40.0]))
        alone = m.integrate_semi_infinite(lambda t: np.exp(-t), quad)
        # the reported error is the larger row error, here that of the smooth
        # row, which stopped refining before the oscillatory one
        assert r.error == alone.error
        assert r.evals > alone.evals

    def test_real_rows_stay_real(self):
        p = np.array([0.0, 5.0])
        real = m.integrate_semi_infinite(_damped_cosines, rows=p)
        assert real.value.dtype == np.float64
        cplx = m.integrate_semi_infinite(lambda t, p: np.exp(-t) * np.exp(1j * np.multiply.outer(p, t)), rows=p)
        assert cplx.value.dtype == np.complex128
        assert np.all(np.abs(cplx.value - 1.0 / (1.0 - 1j * p)) < 1e-10)
        assert np.all(np.abs(real.value - cplx.value.real) < 1e-10)

    def test_nonconvergence_carries_every_row(self):
        quad = m.QuadratureConfig(max_evals=200)
        with pytest.raises(m.NonConvergenceError) as exc:
            m.integrate_semi_infinite(
                lambda t, p: np.where(p[:, None] == 0.0, np.exp(-t), 1.0 / (1.0 + t)), quad, np.array([0.0, 1.0])
            )
        assert np.shape(exc.value.best_estimate) == (2,)
        assert np.all(np.isfinite(exc.value.best_estimate))


class TestSamplerCalls:
    def test_first_two_halvings_share_one_call(self):
        sizes = []

        def g(t):
            sizes.append(len(t))
            return np.exp(-t)

        r = m.integrate_semi_infinite(g)
        assert abs(r.value - 1.0) < 1e-10
        # the coarse pass at step 0.5 on |u| <= 6.5; the first halving samples
        # k abscissae of the trimmed support and the second 2k, in one call;
        # each later halving doubles them again in a call of its own
        k = sizes[1] // 3
        assert sizes[0] == 27 and len(sizes) >= 3
        assert sizes[1:] == [3 * k] + [k * 2**level for level in range(2, len(sizes))]
        assert sum(sizes) == r.evals

    def test_budget_spent_by_the_first_halving(self):
        # a kink at 0 keeps the trapezoid error O(h**2), so the first and
        # second halvings give different sums
        f = lambda u: np.exp(-np.abs(u))
        widths = []

        def sample(u, active):
            widths.append(len(u))
            return f(u)[np.newaxis]

        # the coarse pass samples 161 abscissae on [-40, 40] and keeps
        # [-37, 37], where e**-|u| passes 1e-16; its first halving samples 148
        quad = m.QuadratureConfig(max_evals=200)
        with pytest.raises(m.NonConvergenceError) as exc:
            m.quadrature._halving_trapezoid(sample, -40.0, 40.0, quad, lambda total: total)
        assert widths == [161, 148]
        first = 0.25 * f(0.25 * np.arange(-148, 149)).sum()
        assert exc.value.best_estimate == pytest.approx([first], rel=1e-15, abs=0.0)
        assert abs(first - 0.125 * f(0.125 * np.arange(-296, 297)).sum()) > 1e-3

    def test_one_call_per_pass_takes_every_active_row(self):
        # row 0 is e**-t and bounds every other row, so the trimmed support,
        # and the new abscissae of each pass, are e**-t's
        sizes = []
        m.integrate_semi_infinite(lambda t: sizes.append(len(t)) or np.exp(-t))
        k = sizes[1] // 3
        rows = np.linspace(0.0, 3.0, 10_000)
        calls = []

        def g(t, p):
            calls.append((p, len(t)))
            return _damped_cosines(t, p)

        r = m.integrate_semi_infinite(g, rows=rows)
        assert np.all(np.abs(r.value - 1.0 / (1.0 + rows**2)) < 1e-8)
        # after the coarse call, one call per pass over its full width: the
        # first two halvings together, then one halving each
        assert len(calls) >= 3
        assert [n for _, n in calls[1:]] == [3 * k] + [k * 2**level for level in range(2, len(calls))]
        # no row retires before the second halving, and a pass samples every
        # row still refining, however many abscissae it has
        assert calls[1][0].tolist() == rows.tolist()
        for (before, _), (after, _) in zip(calls[1:], calls[2:]):
            assert len(after) and set(after.tolist()) <= set(before.tolist())
        assert sum(n for _, n in calls) == r.evals


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rel_tol": 0.0},
        {"rel_tol": 1.5},
        {"abs_tol": -1e-3},
        {"max_evals": 50},
        # only the rejection is tested: an unbounded budget never stops halving
        {"max_evals": math.inf},
        {"max_evals": 150.5},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        m.QuadratureConfig(**kwargs)


def test_tightened_divides_down_to_its_floors():
    tight = m.QuadratureConfig().tightened()
    assert (tight.rel_tol, tight.abs_tol) == (1e-9, 1e-13)
    floored = m.QuadratureConfig(rel_tol=1e-14, abs_tol=1e-15).tightened(100.0)
    assert (floored.rel_tol, floored.abs_tol) == (1e-15, 1e-16)


def test_tightened_never_loosens():
    # tolerances already below the floors are kept, not raised to them
    tight = m.QuadratureConfig(rel_tol=1e-16, abs_tol=1e-18).tightened(10.0)
    assert (tight.rel_tol, tight.abs_tol) == (1e-16, 1e-18)


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

    @pytest.mark.parametrize("nodes", [2.5, 3.0, np.float64(4.0)])
    def test_rejects_non_integer_nodes(self, nodes):
        with pytest.raises(ValueError, match="integer"):
            m.integrate_periodic(lambda phi: 1.0, nodes)

    def test_accepts_numpy_integer_nodes(self):
        k = lambda phi: np.exp(np.sin(phi))
        assert m.integrate_periodic(k, np.int64(16)) == m.integrate_periodic(k, 16)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.5, max_value=5.0))
def test_gamma_values_property(s):
    # int t**(s-1) e**-t dt = Gamma(s)
    r = m.integrate_semi_infinite(lambda t: t ** (s - 1.0) * np.exp(-t))
    assert abs(r.value - math.gamma(s)) < 1e-8 * max(1.0, math.gamma(s))
