import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import melroot as m
from tests.conftest import contour_angles


class TestExpSumTable:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            m.ExpSumTable((1.0, 2.0), (1.0,))

    def test_empty(self):
        with pytest.raises(ValueError):
            m.ExpSumTable((), ())

    def test_nonpositive_entries(self):
        with pytest.raises(ValueError):
            m.ExpSumTable((1.0, -2.0), (0.1, 0.2))
        with pytest.raises(ValueError):
            m.ExpSumTable((1.0, 2.0), (0.1, 0.0))

    @pytest.mark.parametrize(
        "alpha, c",
        [((math.nan,), (1.0,)), ((1.0,), (math.inf,)), ((1.0,), (math.nan,))],
        ids=["alpha-nan", "c-inf", "c-nan"],
    )
    def test_non_finite_entries(self, alpha, c):
        with pytest.raises(ValueError, match="finite"):
            m.ExpSumTable(alpha, c)

    def test_rates_must_increase(self):
        with pytest.raises(ValueError):
            m.ExpSumTable((1.0, 2.0), (0.5, 0.5))

    def test_presets(self):
        assert m.PRESETS["appendixC"].alpha == (0.048, 0.235, 0.8523, 2.737)
        assert m.PRESETS["appendixC"].c == (0.0169, 0.139, 0.627, 2.241)
        assert m.PRESETS["table2"].alpha == (0.048, 0.235, 0.852, 2.737)
        assert m.PRESETS["table2"].c == (0.017, 0.139, 0.627, 2.241)

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "coeffs.txt"
        path.write_text(
            "# four-term set\n"
            "0.048 0.0169\n"
            "0.235 0.139\n\n"
            "0.8523 0.627\n"
            "2.737 2.241\n"
        )
        table = m.ExpSumTable.from_file(path)
        assert table == m.PRESETS["appendixC"]

    def test_from_file_full_precision(self, tmp_path):
        path = tmp_path / "coeffs.txt"
        path.write_text("0.12345678901234567 0.9876543210987654\n")
        table = m.ExpSumTable.from_file(path)
        assert table.alpha[0] == 0.12345678901234567
        assert table.c[0] == 0.9876543210987654

    def test_from_file_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.1 0.2 0.3\n")
        with pytest.raises(ValueError):
            m.ExpSumTable.from_file(path)


class TestInvApprox:
    def test_four_term_oracle_at_one(self, coeffs):
        # direct four-term summation, written out independently
        oracle = (
            0.048 * math.exp(-0.0169)
            + 0.235 * math.exp(-0.139)
            + 0.8523 * math.exp(-0.627)
            + 2.737 * math.exp(-2.241)
        )
        val = m.inv_approx(1.0, coeffs)
        assert abs(val - oracle) < 1e-14
        assert abs(1.0 * val - 0.998) < 2e-3

    def test_odd_symmetry_exact(self, coeffs):
        assert m.inv_approx(-1.0, coeffs) == -m.inv_approx(1.0, coeffs)

    @given(
        re=st.floats(min_value=0.01, max_value=50.0).flatmap(
            lambda r: st.sampled_from([r, -r])
        ),
        im=st.floats(min_value=-50.0, max_value=50.0),
    )
    def test_odd_symmetry_property(self, re, im):
        table = m.PRESETS["appendixC"]
        x = complex(re, im)
        assert m.inv_approx(-x, table) == -m.inv_approx(x, table)

    def test_zero_rejected(self, coeffs):
        with pytest.raises(m.DomainError):
            m.inv_approx(0.0, coeffs)

    @pytest.mark.parametrize("order", [None, 0, 1, 3])
    def test_array_matches_scalar_values(self, coeffs, order):
        x = np.array([[1.0 + 0.5j, -2.0 + 1j], [-0.1j, 3.0 - 4.0j]])
        values = m.inv_approx(x, coeffs, order)
        assert values.shape == x.shape
        assert values.ravel().tolist() == [m.inv_approx(complex(v), coeffs, order) for v in x.ravel()]

    def test_coarse_on_contour_values(self, zeta_ff, ref_contour, coeffs):
        # the approximation is deliberately coarse where |f| is small
        for phi in contour_angles():
            f = zeta_ff.f_reference(ref_contour.point(phi))
            assert abs(f * m.inv_approx(f, coeffs) - 1.0) < 0.5


class TestInvApproxTruncated:
    def test_high_order_converges_to_full(self, coeffs):
        assert abs(m.inv_approx(1.0, coeffs, 30) - m.inv_approx(1.0, coeffs)) < 1e-12

    def test_order_zero_is_constant_term(self, coeffs):
        expected = sum(coeffs.alpha)
        assert m.inv_approx(1.0, coeffs, 0) == expected
        assert m.inv_approx(37.0, coeffs, 0) == expected
        assert m.inv_approx(-5.0, coeffs, 0) == -expected

    def test_negative_order_rejected(self, coeffs):
        with pytest.raises(ValueError):
            m.inv_approx(1.0, coeffs, -1)

    def test_non_integer_order_rejected(self, coeffs):
        with pytest.raises(ValueError, match="integer"):
            m.inv_approx(1.0, coeffs, 1.5)

    def test_high_orders_do_not_overflow(self, coeffs):
        # c_j**1000 and 1000! overflow a float; the weights must not
        weights = m.expsum.series_weights(coeffs, 1000)
        assert all(math.isfinite(b) for b in weights)
        x = -3.0 + 2.0j
        assert abs(m.inv_approx(x, coeffs, 1000) - m.inv_approx(x, coeffs)) < 1e-12

    def test_monotone_convergence_beyond_threshold(self, coeffs):
        x = 1.5 + 0.4j
        target = m.inv_approx(x, coeffs)
        start = math.ceil(max(coeffs.c) * abs(x))
        errs = [abs(m.inv_approx(x, coeffs, n) - target) for n in range(start, start + 12)]
        assert all(a >= b for a, b in zip(errs, errs[1:]))


class TestErrorGrid:
    def test_small_error_far_from_imaginary_axis(self, coeffs):
        _, _, grid = m.error_grid(coeffs, (10.0, 10.0), (0.0, 0.0), (1, 1))
        assert abs(grid[0, 0]) < 1e-1

    def test_breaks_down_for_small_real_part(self, coeffs):
        _, _, grid = m.error_grid(coeffs, (0.01, 0.01), (0.0, 0.0), (1, 1))
        assert abs(grid[0, 0]) > 10.0

    def test_accuracy_degrades_with_imaginary_offset(self, coeffs):
        # the sum is tuned along the positive real axis; moving off it the
        # exponentials start to oscillate and the error grows, while staying
        # bounded
        _, _, g1 = m.error_grid(coeffs, (1.0, 1.0), (0.0, 0.0), (1, 1))
        _, _, g2 = m.error_grid(coeffs, (1.0, 1.0), (5.0, 5.0), (1, 1))
        e1, e2 = abs(g1[0, 0]), abs(g2[0, 0])
        assert e1 < 0.01
        assert e1 < e2 < 1.0

    def test_grid_shape_and_cells(self, coeffs):
        xs, ys, grid = m.error_grid(coeffs, (0.5, 2.0), (-1.0, 1.0), (4, 3))
        assert grid.shape == (3, 4)
        z = complex(xs[2], ys[1])
        assert grid[1, 2] == m.inv_approx(z, coeffs) - 1.0 / z

    def test_matches_cell_by_cell_loop(self, coeffs):
        xs, ys, grid = m.error_grid(coeffs, (-2.0, 3.0), (-4.0, 4.0), (11, 9))
        for iy, y in enumerate(ys):
            for ix, x in enumerate(xs):
                z = complex(x, y)
                if z == 0:
                    continue
                want = m.inv_approx(z, coeffs) - 1.0 / z
                assert abs(grid[iy, ix] - want) <= 1e-15 * max(1.0, abs(want))

    @pytest.mark.parametrize("samples", [(2.5, 2), (2, 2.5), (np.float64(3.0), 2)])
    def test_non_integer_sizes_rejected(self, coeffs, samples):
        with pytest.raises(ValueError, match="integers"):
            m.error_grid(coeffs, (0.5, 2.0), (-1.0, 1.0), samples)

    def test_numpy_integer_sizes_accepted(self, coeffs):
        got = m.error_grid(coeffs, (0.5, 2.0), (-1.0, 1.0), (np.int64(4), np.int32(3)))[2]
        assert np.array_equal(got, m.error_grid(coeffs, (0.5, 2.0), (-1.0, 1.0), (4, 3))[2])

    def test_origin_is_nan(self, coeffs):
        _, _, grid = m.error_grid(coeffs, (-1.0, 1.0), (0.0, 0.0), (3, 1))
        assert np.isnan(grid[0, 1].real) and np.isnan(grid[0, 1].imag)
        assert np.all(np.isfinite(grid[0, [0, 2]]))
