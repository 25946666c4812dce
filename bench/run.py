#!/usr/bin/env python3
"""melroot benchmark: end-to-end and per-layer metrics for three workloads.

    python3 bench/run.py --workload pipeline_circles --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 10 --out bench/BENCH_x.json

With one workload, the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. The lines above
it report every metric, the operations of the first pass with their oracle
verdicts, and the properties of the generated input. ``--workload all`` runs
every workload untraced and traced in one process and, with ``--out``,
writes everything to a JSON file. See bench/README.md for what each metric
and workload is for.

melroot is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import os
import sys

# Cap the BLAS and OpenMP pools at the usable cores before numpy is imported.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse
import cmath
import hashlib
import importlib
import json
import math
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import oracle
from tracing import Tracer
from workloads import PRESET, SERIES_ORDER, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPS = 25  # plus one per pass
CAL_EVERY_S = 0.1
# setup_s is reported in seconds on a machine where calibration_time() takes
# CAL_REF_S (about its median on the 2-vCPU x86_64 host used to write this)
CAL_REF_S = 0.004
CAL_ITERS = 200
_CAL_X = np.linspace(-2.0, 2.0, 49)
_CAL_LOGS = [math.log(k) for k in range(1, 41)]
_CAL_S = 0.5 + 14.1j
_HALF_PI = math.pi / 2.0
ERR_FLOOR = 1e-16  # err_digits reads 16 when every error is below double rounding

# The gated end-to-end metrics (BENCHMARK.json). A "cal" is the time the
# calibration loop takes on the same machine at the same moment. The raw
# seconds, err_digits, failed_frac and op_p90_s are printed beside them.
END_TO_END = (
    ("setup_s", "s"), ("wall_cal", "cal"), ("op_p50_cal", "cal"), ("peak_rss_mb", "MB"), ("answered_frac", "1"),
)
SPAN_LAYERS = (
    "quadrature.semi_infinite", "quadrature.periodic", "mellin.transform",
    "mellin.power_transform.k1", "mellin.power_transform.k2", "mellin.power_transform.k3",
    "mellin.deriv_times_power.k0", "mellin.deriv_times_power.k1",
    "contour.kernel_mellin", "contour.integrand_direct", "contour.count_pipeline",
    "contour.count_direct", "zeta.reference", "zeta.prefactor", "numerics.log_gamma",
    "numerics.digamma", "expsum.inv_approx", "expsum.error_grid", "cli.main",
)
EXTRA_COUNTS = (
    "quadrature.semi_infinite.raised", "quadrature.semi_infinite.evals",
    "quadrature.periodic.nodes", "mellin.z.calls", "mellin.z.points", "numerics.csgn.calls",
)
PER_LAYER = (
    *[(f"{layer}.calls", "count") for layer in SPAN_LAYERS],
    *[(name, "count") for name in EXTRA_COUNTS],
    *[(f"{layer}.self_pct", "%") for layer in SPAN_LAYERS],
    ("mellin.z.points_per_eval", "1"), ("mellin.kernel_err_max", "1"),
    ("contour.csgn_flips", "1"), ("trace.overhead_frac", "1"),
)


def import_melroot():
    """Import melroot afresh from SRC and build the model every workload uses."""
    for name in [n for n in sys.modules if n == "melroot" or n.startswith("melroot.")]:
        del sys.modules[name]
    mr = importlib.import_module("melroot")
    importlib.import_module("melroot.cli")
    ff = mr.build_zeta_factored()
    cfg = mr.PipelineConfig(table=mr.PRESETS[PRESET], series_order=SERIES_ORDER)
    return mr, ff, cfg


def timed_import():
    """One set-up sample: the seconds import_melroot() took, the mean
    calibration time just before and after it, and the model."""
    before = calibration_time()
    t0 = time.perf_counter()
    model = import_melroot()
    seconds = time.perf_counter() - t0
    return seconds, (before + calibration_time()) / 2.0, model


def calibration_time() -> float:
    """Seconds taken by a fixed loop shaped like melroot's two kinds of hot
    path: exp-sinh sampling of t / cosh(t)**2 on small numpy arrays (the
    Mellin quadratures) and a scalar cmath series (the eta-series zeta). It
    never calls melroot, so a change to melroot cannot move it; it moves with
    the speed the machine gives this process at that moment."""
    t0 = time.perf_counter()
    acc = 0j
    for _ in range(CAL_ITERS):
        t = np.exp(_HALF_PI * np.sinh(_CAL_X))
        acc += complex((_HALF_PI * np.cosh(_CAL_X) * t * t / np.cosh(t) ** 2).sum())
        for ln in _CAL_LOGS:
            acc += cmath.exp(-_CAL_S * ln)
    return time.perf_counter() - t0


def run_pass(ops):
    """Run every operation once. Returns, per operation, (label, seconds,
    output or the exception it raised, judge) and the calibration time that
    goes with it. The calibration loop runs before the pass and again each
    time CAL_EVERY_S of operations have run; an operation gets the mean of
    the samples before and after it."""
    clock = time.perf_counter
    rows, cal = [], []
    before, since = calibration_time(), 0.0
    for label, call, judge in ops:
        t0 = clock()
        try:
            out = call()
        except Exception as exc:  # a raised operation is recorded as failed
            out = exc
        sec = clock() - t0
        rows.append((label, sec, out, judge))
        since += sec
        if since >= CAL_EVERY_S or len(rows) == len(ops):
            after = calibration_time()
            cal += [(before + after) / 2.0] * (len(rows) - len(cal))
            before, since = after, 0.0
    return rows, cal


def fingerprint(rows) -> str:
    return hashlib.sha256(repr([out for _, _, out, _ in rows]).encode()).hexdigest()


class Measurement:
    """All passes of one workload in one trace mode.

    Every pass starts from a fresh import of melroot (``load``), so no state
    a pass leaves behind in melroot's modules can speed up the next one; each
    import is also a set-up sample. Outputs are judged and dropped after each
    pass, so memory does not grow with the number of passes. The pass loop
    stops before the next pass would overrun ``seconds`` (at least one pass
    runs).
    """

    def __init__(self, workload, seconds: float, traced: bool, load=timed_import):
        self.workload, self.load = workload, load
        self.walls, self.verdicts, self.prints, self.setup_times, self.cal_times = [], [], set(), [], []
        self.traced_walls, self.cal_walls, self.traced_cal_walls = [], [], []
        self.traces, self.first_tracer = [], None
        start = time.perf_counter()
        while True:
            self._pass(traced=False)
            if traced:
                self._pass(traced=True)
            per_round = statistics.median(self.walls) + (statistics.median(self.traced_walls) if traced else 0.0)
            if time.perf_counter() - start + per_round > seconds:
                break

    def _pass(self, traced: bool):
        *setup, (mr, ff, cfg) = self.load()
        self.setup_times.append(setup)
        if not traced:
            rows, cal = run_pass(self.workload.ops(mr, ff, cfg))
            self.walls.append(sum(sec for _, sec, _, _ in rows))
            self.cal_walls.append(sum(sec / c for (_, sec, _, _), c in zip(rows, cal)))
            self.verdicts.append([(label, sec, sec / c, *judge(out)) for (label, sec, out, judge), c in zip(rows, cal)])
            self.cal_times.extend(cal)
        else:
            with Tracer(mr) as tracer:
                rows, cal = run_pass(self.workload.ops(mr, tracer.wrap_model(ff), cfg))
            self.traced_walls.append(sum(sec for _, sec, _, _ in rows))
            self.traced_cal_walls.append(sum(sec / c for (_, sec, _, _), c in zip(rows, cal)))
            calls, self_s = tracer.layer_stats()
            self.traces.append((calls, self_s, tracer.counts, kernel_err_max(tracer, cfg)))
            if self.first_tracer is None:
                self.first_tracer = tracer
        self.prints.add(fingerprint(rows))

    def summary(self) -> dict:
        v = [row for rows in self.verdicts for row in rows]
        statuses = [row[3] for row in v]
        errs = [row[4] for row in v if not math.isnan(row[4])]
        counts_repeat = len({repr((sorted(c.items()), sorted(n.items()))) for c, _, n, _ in self.traces}) <= 1
        return {
            "attempted": len(v),
            "failed": statuses.count("error"),
            "statuses": {s: statuses.count(s) for s in ("ok", "unanswered", "wrong", "error")},
            # every pass, traced or not, must give bit-identical outputs
            "deterministic": len(self.prints) == 1 and counts_repeat,
            "failed_frac": (statuses.count("error") + statuses.count("wrong")) / len(v),
            "answered_frac": statuses.count("ok") / len(v),
            "err_digits": -math.log10(max(max(errs, default=ERR_FLOOR), ERR_FLOOR)),
        }

    def end_to_end(self, setup_times) -> tuple[dict, dict]:
        op_s = [row[1] for rows in self.verdicts for row in rows]
        op_cal = [row[2] for rows in self.verdicts for row in rows]
        s = self.summary()
        metrics = {
            "setup_s": CAL_REF_S * statistics.median(sec / cal for sec, cal in [*setup_times, *self.setup_times]),
            "wall_cal": statistics.median(self.cal_walls),
            "op_p50_cal": statistics.median(op_cal),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "answered_frac": s["answered_frac"],
        }
        ops = len(self.verdicts[0])
        extra = {"setup_raw_s": statistics.median(sec for sec, _ in [*setup_times, *self.setup_times]),
                 "wall_s": statistics.median(self.walls), "op_p50_s": statistics.median(op_s),
                 "cal_s": statistics.median(self.cal_times), "err_digits": s["err_digits"],
                 "failed_frac": s["failed_frac"], "passes": len(self.walls), "ops_per_pass": ops}
        if ops >= 100:
            extra["op_p90_s"] = statistics.quantiles(op_s, n=10)[-1]
            extra["op_p90_cal"] = statistics.quantiles(op_cal, n=10)[-1]
        return metrics, extra

    def per_layer(self) -> tuple[dict, dict]:
        calls, _, counts, err = self.traces[0]
        self_s = {layer: statistics.median(t[1].get(layer, 0.0) for t in self.traces) for layer in SPAN_LAYERS}
        traced_wall = statistics.median(self.traced_walls)
        metrics = {f"{layer}.calls": calls.get(layer, 0) for layer in SPAN_LAYERS}
        metrics.update({name: counts.get(name, 0) for name in EXTRA_COUNTS})
        metrics.update({f"{layer}.self_pct": 100.0 * self_s[layer] / traced_wall for layer in SPAN_LAYERS})
        evals = counts.get("quadrature.semi_infinite.evals", 0)
        metrics["mellin.z.points_per_eval"] = counts.get("mellin.z.points", 0) / evals if evals else 0.0
        metrics["mellin.kernel_err_max"] = err
        metrics["contour.csgn_flips"] = self.workload.csgn_flips()
        metrics["trace.overhead_frac"] = statistics.median(self.traced_cal_walls) / statistics.median(self.cal_walls) - 1.0
        seconds = {f"{layer}.self_s": self_s[layer] for layer in SPAN_LAYERS}
        seconds["traced_wall_s"] = traced_wall
        return metrics, seconds


def kernel_err_max(tracer, cfg) -> float:
    """Largest |kernel_mellin - integrand_stage2| over the traced kernel
    nodes, with the stage-2 integrand from the oracle."""
    t = cfg.table
    return max(
        (abs(val - complex(oracle.stage2_integrand(c.center, c.radius, phi, t.alpha, t.c, cfg.series_order)))
         for c, phi, val in tracer.kernel_samples),
        default=0.0,
    )


def git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, mr) -> dict:
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "melroot": mr.__version__,
        "commit": git_commit(),
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "thread_caps": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


PRINTED_UNITS = {"err_digits": "digits", "failed_frac": "1", "passes": "count", "ops_per_pass": "count"}


def _unit(key: str) -> str:
    if key in PRINTED_UNITS:
        return PRINTED_UNITS[key]
    return "cal" if key.endswith("_cal") else "s"


def report(name: str, title: str, metrics: dict, units: dict, extra: dict) -> None:
    print(f"[{name}] {title}")
    for key, value in metrics.items():
        print(f"  {key:40s} {_fmt(value):>14s} {units[key]}")
    for key, value in extra.items():
        print(f"  {key:40s} {_fmt(value):>14s} {_unit(key)}  (printed only)")


def run_workload(name: str, args, setup_times, ff, trace_modes) -> dict:
    workload = WORKLOADS[name](args.seed)
    props = workload.properties(ff.zf.convergence_strip[0])
    print(f"[{name}] why: {workload.why}")
    print(f"[{name}] input: {json.dumps(props)}")
    result = {"properties": props}
    for traced in trace_modes:
        m = Measurement(workload, args.seconds, traced)
        s = m.summary()
        verdict = {"correct": s["failed"] == 0 and s["deterministic"],
                   "attempted": s["attempted"], "failed": s["failed"]}
        for label, sec, _, status, err in m.verdicts[0]:
            if status != "ok" or len(m.verdicts[0]) <= 20:
                print(f"[{name}] op {label}: {status} err={err:.3g} {sec:.4g}s")
        print(f"[{name}] statuses over {len(m.verdicts)} passes: {s['statuses']}, "
              f"deterministic={s['deterministic']}")
        if traced:
            metrics, extra = m.per_layer()
            report(name, "per-layer (traced)", metrics, dict(PER_LAYER), extra)
            m.first_tracer.write(OUT / f"spans-{name}.json")
            units = dict(PER_LAYER)
        else:
            metrics, extra = m.end_to_end(setup_times)
            report(name, "end-to-end (untraced)", metrics, dict(END_TO_END), extra)
            units = dict(END_TO_END)
        verdict["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        mode = "trace1" if traced else "trace0"
        result[mode] = verdict
        result[mode + "_printed"] = extra
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None, help="write all results as JSON (with --workload all)")
    args = p.parse_args(argv)

    if not (SRC / "melroot" / "__init__.py").is_file():
        print(f"error: melroot sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_times = []
    for _ in range(SETUP_REPS):
        sec, cal, (mr, ff, cfg) = timed_import()
        setup_times.append((sec, cal))
    if not Path(mr.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: melroot was imported from {mr.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    meta = metadata(args, mr)
    print(f"meta: {json.dumps(meta)}")

    if args.workload != "all":
        res = run_workload(args.workload, args, setup_times, ff, (bool(args.trace),))
        print(json.dumps(res["trace1" if args.trace else "trace0"]))
        return 0

    results = {name: run_workload(name, args, setup_times, ff, (False, True)) for name in WORKLOADS}
    doc = {"meta": meta, "workloads": results}
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps({name: r["trace0"] for name, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
