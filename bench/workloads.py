"""The benchmark's workloads: seeded inputs, the operations one pass runs, and
the oracle verdict on each operation's output.

Every operation ends in one status:

* ``ok`` -- the output is finite, agrees with the reference of the quantity
  it computes, and (for a count) is flagged reliable with the right integer;
* ``unanswered`` -- a count that agrees with its reference but is flagged
  unreliable;
* ``wrong`` -- a count of the approximated route flagged reliable with the
  wrong integer;
* ``error`` -- the call raised, returned a non-finite value, or returned a
  value that disagrees with an answer that does not depend on the method: a
  Mellin value off by more than 1e-7 relative, a direct count 1/2 or more
  from the true integer, or a grid cell off the oracle.

The approximated route's integer depends on the coarseness of its exp-sum
table and Taylor order, so its counts are scored (``answered_frac``,
``failed_frac``) but never make a run incorrect; their value is measured
against the exact stage-2 contour integral (``err_digits``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

import oracle

PRESET = "appendixC"
SERIES_ORDER = 1
MELLIN_RTOL = 1e-7


def _finite(v: complex) -> bool:
    return math.isfinite(v.real) and math.isfinite(v.imag)


def _judge_count(out, reference: complex, truth: int, exact: bool) -> tuple[str, float]:
    """Verdict on a CountResult; the error is measured against ``reference``.
    An ``exact`` route must land within 1/2 of the true integer."""
    if isinstance(out, BaseException) or not _finite(out.value):
        return "error", math.inf
    err = abs(out.value - reference)
    if exact and err >= 0.5:
        return "error", err
    if not out.reliable:
        return "unanswered", err
    return ("ok" if out.rounded == truth else "wrong"), err


class PipelineCircles:
    """``count_pipeline`` on the reference circle, the pole circle and the
    first-zero circle; the seed jitters the last two centres by at most 0.01."""

    name = "pipeline_circles"
    why = ("approximated route: Mellin and quadrature do >99% of the work, at low and high Im s, "
           "with and without csgn flips")
    JITTER = 0.01

    def __init__(self, seed: int, circles=None):
        if circles is None:
            rng = np.random.default_rng(seed)
            shifts = self.JITTER * np.sqrt(rng.random(2)) * np.exp(2j * math.pi * rng.random(2))
            circles = [
                (0.57 + 1.57j, 0.1, 64),
                (1.0 + complex(shifts[0]), 0.1, 16),
                (0.5 + 14.134725j + complex(shifts[1]), 0.05, 8),
            ]
        self.circles = circles
        self.truth = [oracle.true_count(c, r) for c, r, _ in circles]
        self.reference, self.flips = [], []
        table = _table()
        for c, r, _ in circles:
            ref, flips = oracle.stage2_reference(c, r, table.alpha, table.c, SERIES_ORDER)
            self.reference.append(ref)
            self.flips.append(flips)

    def ops(self, mr, ff, cfg):
        def op(c, r, n):
            return lambda: mr.contour.count_pipeline(ff, mr.contour.CircularContour(c, r, n), cfg)

        return [
            (f"count_pipeline({c:.6f}, R={r}, N={n})", op(c, r, n),
             lambda out, i=i: _judge_count(out, self.reference[i], self.truth[i], exact=False))
            for i, (c, r, n) in enumerate(self.circles)
        ]

    def properties(self, strip_lo: float) -> dict:
        return {
            "circles": [[c.real, c.imag, r, n] for c, r, n in self.circles],
            "true_counts": self.truth,
            "stage2_reference": [[v.real, v.imag] for v in self.reference],
            "flips_per_circle": [len(f) for f in self.flips],
            "csgn_flips": self.csgn_flips(),
            "strip_margin_min": min(c.real - r for c, r, _ in self.circles) - strip_lo,
        }

    def csgn_flips(self) -> float:
        return sum(len(f) > 0 for f in self.flips) / len(self.flips)


class MellinPoints:
    """``power_transform`` k = 1, 2, 3 and ``deriv_times_power`` k = 0, 1 at
    single points: the two published convolution-check points plus eight
    seeded points, one near each node of a 2 x 4 grid over
    0.2 <= Re s <= 1.2, |Im s| <= 4. Cost depends steeply on s, so the seed
    moves each point only within a small box (Re +-0.1, Im +-0.4) and every
    seed asks for about the same work."""

    name = "mellin_points"
    why = "single-point Mellin transforms: deepest nesting (only k = 3 here), nothing to batch across nodes"
    FIXED = (0.4 + 0j, 0.4 - 0.3j)
    GRID_RE = (0.45, 0.95)
    GRID_IM = (-3.0, -1.0, 1.0, 3.0)
    JITTER = (0.1, 0.4)
    KINDS = (("power_transform", 1), ("power_transform", 2), ("power_transform", 3),
             ("deriv_times_power", 0), ("deriv_times_power", 1))

    def __init__(self, seed: int, points=None):
        if points is None:
            rng = np.random.default_rng(seed)
            dre, dim = self.JITTER
            points = list(self.FIXED) + [
                complex(re + rng.uniform(-dre, dre), im + rng.uniform(-dim, dim))
                for re in self.GRID_RE for im in self.GRID_IM
            ]
        self.points = points
        self.expected = {}
        for s in points:
            Z, Zp = oracle.mellin_oracle(s)
            for kind, k in self.KINDS:
                self.expected[(kind, k, s)] = Z**k if kind == "power_transform" else Zp * Z**k

    def ops(self, mr, ff, cfg):
        def op(kind, k, s):
            return lambda: getattr(mr.mellin, kind)(ff.zf, k, s)

        def judge(out, key):
            if isinstance(out, BaseException) or not _finite(out.value):
                return "error", math.inf
            want = self.expected[key]
            rel = abs(out.value - want) / abs(want)
            return ("ok" if rel <= MELLIN_RTOL else "error"), rel

        return [
            (f"{kind}(k={k}, s={s:.6f})", op(kind, k, s), lambda out, key=(kind, k, s): judge(out, key))
            for s in self.points
            for kind, k in self.KINDS
        ]

    def properties(self, strip_lo: float) -> dict:
        return {
            "points": [[s.real, s.imag] for s in self.points],
            "strip_margin_min": min(s.real for s in self.points) - strip_lo,
        }

    def csgn_flips(self) -> float:
        return 0.0


def cli_call(mr, args):
    """Run the CLI in-process with its output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = mr.cli.main(args)
    return rc, buf.getvalue()


class DirectScan:
    """``count_direct`` at N = 128 on seeded circles whose boundary keeps a
    margin from every point where f'/f or the eta-series oracle is singular,
    plus the sign-map and exp-sum error grids of scripts/make_figure_grids.py."""

    name = "direct_scan"
    why = "direct route and figure grids: zeta, numerics, expsum and contour loops do the work, Mellin none"
    N_CIRCLES = 500
    NODES = 128
    RE = (-0.5, 2.0)
    IM = (0.0, 20.0)
    RADIUS = (0.05, 0.5)
    MARGIN = 0.25  # boundary distance to a special point, as a share of R
    SIGN_MAP = ["sign-map", "--re-min", "-0.5", "--re-max", "2", "--im-min", "0",
                "--im-max", "30", "--grid-nx", "50", "--grid-ny", "120", "--format", "json"]
    EXPSUM = ["expsum-error", "--re-min", "0.5", "--re-max", "20", "--im-min", "-10",
              "--im-max", "10", "--grid-nx", "80", "--grid-ny", "80", "--format", "json"]

    def __init__(self, seed: int, n_circles: int = N_CIRCLES):
        self.circles = self.make_circles(seed, n_circles)
        self.truth = [oracle.true_count(c, r) for c, r in self.circles]

    @classmethod
    def make_circles(cls, seed: int, n: int) -> list[tuple[complex, float]]:
        rng = np.random.default_rng(seed)
        special = np.array(oracle.special_points(cls.IM[1] + cls.RADIUS[1]))
        circles = []
        while len(circles) < n:
            c = complex(rng.uniform(*cls.RE), rng.uniform(*cls.IM))
            r = float(rng.uniform(*cls.RADIUS))
            if np.all(np.abs(np.abs(special - c) - r) >= cls.MARGIN * r):
                circles.append((c, r))
        return circles

    def ops(self, mr, ff, cfg):
        def count(c, r):
            return lambda: mr.contour.count_direct(ff, mr.contour.CircularContour(c, r, self.NODES))

        ops = [
            (f"count_direct({c:.6f}, R={r:.4f})", count(c, r),
             lambda out, t=t: _judge_count(out, t, t, exact=True))
            for (c, r), t in zip(self.circles, self.truth)
        ]
        table = mr.expsum.PRESETS[PRESET]
        ops.append(("cli sign-map 50x120", lambda: cli_call(mr, self.SIGN_MAP), _judge_sign_map))
        ops.append(("cli expsum-error 80x80", lambda: cli_call(mr, self.EXPSUM),
                    lambda out: _judge_expsum(out, table)))
        return ops

    def properties(self, strip_lo: float) -> dict:
        counts = {str(v): self.truth.count(v) for v in sorted(set(self.truth))}
        return {"circles": len(self.circles), "true_count_histogram": counts}

    def csgn_flips(self) -> float:
        """Share of circles on which Re zeta changes sign (oracle, 1024-point scan)."""
        phi = 2.0 * math.pi * np.arange(1025) / 1024
        has = 0
        for c, r in self.circles:
            pos = oracle.zeta_eta(c + r * np.exp(1j * phi))[0].real > 0.0
            has += bool(np.any(pos[:-1] != pos[1:]))
        return has / len(self.circles)


def _cli_payload(out):
    if isinstance(out, BaseException) or out[0] != 0:
        return None
    return json.loads(out[1])


def _judge_sign_map(out) -> tuple[str, float]:
    data = _cli_payload(out)
    if data is None:
        return "error", math.nan
    xs, ys = np.array(data["re_axis"]), np.array(data["im_axis"])
    f, _ = oracle.zeta_eta(xs[None, :] + 1j * ys[:, None])
    want = np.where(f.real != 0.0, np.sign(f.real), np.sign(f.imag))
    # cells where Re zeta is within rounding of 0 may take either sign
    clear = np.abs(f.real) > 1e-9 * np.abs(f)
    ok = np.array_equal(np.array(data["sign"])[clear], want[clear])
    return ("ok" if ok else "error"), math.nan


def _judge_expsum(out, table) -> tuple[str, float]:
    data = _cli_payload(out)
    if data is None:
        return "error", math.nan
    xs, ys = np.array(data["re_axis"]), np.array(data["im_axis"])
    x = xs[None, :] + 1j * ys[:, None]
    want = oracle.truncated_reciprocal(x, table.alpha, table.c, None) - 1.0 / x
    got = np.array(data["real"]) + 1j * np.array(data["imag"])
    # the CLI rounds to 7 decimals
    ok = bool(np.all(np.abs(got - want) <= 1e-7))
    return ("ok" if ok else "error"), math.nan


def _table():
    """The exp-sum preset, read from melroot once it is importable."""
    import melroot

    return melroot.PRESETS[PRESET]


WORKLOADS = {w.name: w for w in (PipelineCircles, MellinPoints, DirectScan)}
