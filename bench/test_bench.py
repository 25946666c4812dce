"""Tests of the benchmark itself: run with ``python3 -m pytest bench -q``."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
from tracing import Tracer
from workloads import DirectScan, MellinPoints, PipelineCircles

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def model():
    mr, ff, cfg = run.import_melroot()
    return mr, ff, cfg


def _single_pass(workload, model, traced=False):
    """Exactly one pass (a zero time budget still runs one) on ``model``."""
    return run.Measurement(workload, seconds=0.0, traced=traced, load=lambda: (0.0, 1.0, model))


def test_injected_wrong_direct_count_is_failed(model, monkeypatch):
    mr = model[0]
    real = mr.contour.count_direct

    def off_by_one(ff, c):
        return mr.CountResult.from_value(real(ff, c).value + 1.0)

    monkeypatch.setattr(mr.contour, "count_direct", off_by_one)
    s = _single_pass(DirectScan(0, n_circles=3), model).summary()
    assert s["failed"] == 3 and s["statuses"]["error"] == 3
    assert s["answered_frac"] == pytest.approx(2 / 5)  # only the two grids remain right


def test_injected_inaccurate_mellin_value_is_failed(model, monkeypatch):
    mr = model[0]
    real = mr.mellin.power_transform

    def perturbed(zf, k, s, quad=None):
        res = real(zf, k, s, quad)
        return replace(res, value=res.value * (1 + 1e-6)) if k == 2 else res

    monkeypatch.setattr(mr.mellin, "power_transform", perturbed)
    s = _single_pass(MellinPoints(0, points=[0.4 + 0j]), model).summary()
    assert s["failed"] == 1 and s["statuses"]["ok"] == 4
    assert s["failed_frac"] == pytest.approx(1 / 5)


def test_reliable_wrong_pipeline_count_is_scored_failed(model, monkeypatch):
    mr = model[0]
    monkeypatch.setattr(mr.contour, "count_pipeline", lambda ff, c, cfg: mr.CountResult.from_value(0j))
    s = _single_pass(PipelineCircles(0, circles=[(1.0 + 0j, 0.1, 4)]), model).summary()
    assert s["statuses"]["wrong"] == 1 and s["failed_frac"] == 1.0 and s["answered_frac"] == 0.0


def test_raised_operation_is_failed(model, monkeypatch):
    mr = model[0]

    def boom(ff, c):
        raise mr.PoleError("injected")

    monkeypatch.setattr(mr.contour, "count_direct", boom)
    s = _single_pass(DirectScan(0, n_circles=2), model).summary()
    assert s["failed"] == 2


@pytest.mark.parametrize("seed", range(5))
def test_generated_circles_keep_their_margin(seed):
    circles = DirectScan.make_circles(seed, DirectScan.N_CIRCLES)
    assert circles == DirectScan.make_circles(seed, DirectScan.N_CIRCLES)
    special = np.array(oracle.special_points(21.0))
    assert len(special) == 4  # pole, first zero, two eta-factor zeros
    for c, r in circles:
        assert DirectScan.RE[0] <= c.real <= DirectScan.RE[1]
        assert DirectScan.IM[0] <= c.imag <= DirectScan.IM[1]
        assert DirectScan.RADIUS[0] <= r <= DirectScan.RADIUS[1]
        assert np.all(np.abs(np.abs(special - c) - r) >= DirectScan.MARGIN * r)


@pytest.mark.parametrize("seed", range(5))
def test_pipeline_jitter_keeps_the_true_counts(seed):
    w = PipelineCircles(seed)
    assert w.truth == [0, -1, 1]
    assert w.circles[0] == (0.57 + 1.57j, 0.1, 64)
    assert abs(w.circles[1][0] - 1.0) <= PipelineCircles.JITTER
    assert abs(w.circles[2][0] - (0.5 + 14.134725j)) <= PipelineCircles.JITTER


@pytest.mark.parametrize(
    "workload",
    [
        lambda: PipelineCircles(3, circles=[(0.57 + 1.57j, 0.1, 4), (1.003 + 0.002j, 0.1, 4)]),
        lambda: MellinPoints(3, points=[0.4 - 0.3j]),
        lambda: DirectScan(3, n_circles=5),
    ],
    ids=["pipeline", "mellin", "direct"],
)
def test_traced_and_untraced_results_are_bit_identical(workload, model):
    w = workload()
    mr, ff, cfg = model
    plain, _ = run.run_pass(w.ops(mr, ff, cfg))
    with Tracer(mr) as tracer:
        traced, _ = run.run_pass(w.ops(mr, tracer.wrap_model(ff), cfg))
    assert repr([out for _, _, out, _ in traced]) == repr([out for _, _, out, _ in plain])
    assert tracer.spans
    # the originals are back in place after tracing
    assert mr.mellin.integrate_semi_infinite is mr.quadrature.integrate_semi_infinite
    assert mr.contour.count_direct.__module__ == "melroot.contour"
    assert _single_pass(w, model, traced=True).summary()["deterministic"]


def test_reference_circle_counts(model):
    mr, ff, cfg = model
    with Tracer(mr) as tracer:
        mr.contour.count_pipeline(tracer.wrap_model(ff), mr.CircularContour(0.57 + 1.57j, 0.1, 64), cfg)
    calls, _ = tracer.layer_stats()
    assert calls["quadrature.semi_infinite"] == 14_464
    assert tracer.counts["quadrature.semi_infinite.evals"] == 2_154_059
    assert tracer.counts["mellin.z.points"] == 4_300_107


def test_eta_oracle_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    s = np.array([0.57 + 1.57j, 0.5 + 14.1j, -0.9 + 3j, 1.05 + 20.4j, 2.4 + 0.1j])
    f, fp = oracle.zeta_eta(s)
    for si, a, b in zip(s, f, fp):
        assert abs(a - complex(mp.zeta(si))) <= 1e-12 * abs(a)
        assert abs(b - complex(mp.zeta(si, derivative=1))) <= 1e-12 * abs(b)


def test_stage2_reference_matches_the_program_integrand(model):
    mr, ff, cfg = model
    t = cfg.table
    c = mr.CircularContour(0.57 + 1.57j, 0.1, 64)
    ref, flips = oracle.stage2_reference(c.center, c.radius, t.alpha, t.c, 1)
    assert len(flips) == 0
    trap = mr.integrate_periodic(lambda p: mr.integrand_stage2(ff, c, p, t, 1), 64)
    assert abs(trap - ref) < 1e-12
    # with flips the exact value lies where trapezoid sums converge at O(1/N)
    ref, flips = oracle.stage2_reference(1.0 + 0j, 0.1, t.alpha, t.c, 1)
    assert len(flips) == 2
    c = mr.CircularContour(1.0 + 0j, 0.1, 1024)
    trap = mr.integrate_periodic(lambda p: mr.integrand_stage2(ff, c, p, t, 1), 1024)
    assert abs(trap - ref) < 0.01


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "direct_scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
