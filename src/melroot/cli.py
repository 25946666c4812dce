"""Command-line interface.

Subcommands::

    table1             stage-by-stage integrand table on a circular contour
    count              roots-minus-poles count (direct or pipeline method)
    sign-map           grid of the complex sign of zeta over a rectangle
    expsum-error       grids of the reciprocal-approximation error
    convolution-check  3-fold convolution vs direct third power of Z

Exit codes: 0 success, 1 unreliable count (its residual or its contour
gap too large; an odd ``--nodes`` has no half-node sum, and its gap is
inf), 2 invalid arguments, domain error or an ``--out`` that cannot be
written, 3 quadrature non-convergence. All commands are
deterministic: identical arguments give byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from typing import Optional

import numpy as np

from .contour import (
    CircularContour,
    PipelineConfig,
    count_direct,
    count_pipeline,
    integrand_direct,
    integrand_stage1,
    integrand_stage2,
    kernel_mellin,
)
from .errors import DomainError, NonConvergenceError
from .expsum import PRESETS, ExpSumTable, error_grid
from .mellin import power_transform
from .numerics import csgn
from .zeta import _eta_poles, build_zeta_factored

TABLE_DECIMALS = 7
CHECK_SIGDIGITS = 10


def _checked(kind, ok, what):
    """argparse type: ``kind(text)``, rejected (exit code 2) unless ``ok``."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value

    return parse


_FINITE_FLOAT = _checked(float, math.isfinite, "a finite number")
_POSITIVE_FLOAT = _checked(float, lambda v: 0.0 < v < math.inf, "a positive finite number")
_POSITIVE_INT = _checked(int, lambda v: v > 0, "a positive integer")
_NON_NEGATIVE_INT = _checked(int, lambda v: v >= 0, "a non-negative integer")


def _add_circle_args(p: argparse.ArgumentParser):
    p.add_argument("--center-re", type=_FINITE_FLOAT, default=0.57)
    p.add_argument("--center-im", type=_FINITE_FLOAT, default=1.57)
    slow = "a large disk next to the strip edge Re s = -1 slows the pipeline's Mellin moments (exit 3)"
    p.add_argument("--radius", type=_POSITIVE_FLOAT, default=0.1, help=f"circle radius (default 0.1); {slow}")


def _coeff_file(path: str) -> ExpSumTable:
    """argparse type: the table in the file at ``path``, rejected (exit code
    2) when the file cannot be read or holds no valid table."""
    try:
        return ExpSumTable.from_file(path)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"bad coefficient file {path!r}: {exc}") from exc


def _add_table_args(p: argparse.ArgumentParser):
    p.add_argument("--preset", choices=sorted(PRESETS), default="appendixC")
    p.add_argument("--coeff-file", type=_coeff_file, default=None, help="coefficient file overriding --preset")


def _add_pipeline_args(p: argparse.ArgumentParser):
    _add_table_args(p)
    p.add_argument("--order-n", type=_NON_NEGATIVE_INT, default=1)


def _add_output_args(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _add_grid_args(p: argparse.ArgumentParser):
    p.add_argument("--re-min", type=_FINITE_FLOAT, required=True)
    p.add_argument("--re-max", type=_FINITE_FLOAT, required=True)
    p.add_argument("--im-min", type=_FINITE_FLOAT, required=True)
    p.add_argument("--im-max", type=_FINITE_FLOAT, required=True)
    p.add_argument("--grid-nx", type=_POSITIVE_INT, default=64)
    p.add_argument("--grid-ny", type=_POSITIVE_INT, default=64)


def _coeff_table(args) -> ExpSumTable:
    return PRESETS[args.preset] if args.coeff_file is None else args.coeff_file


def _write(args, body) -> None:
    """Write ``body`` to ``--out`` or stdout: a payload as JSON under ``--format
    json``, else a list whose lists are CSV rows and whose strings are lines."""
    with open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        if args.format == "json":
            fh.write(json.dumps(body, indent=2) + "\n")
            return
        rows = csv.writer(fh)
        for item in body:
            if isinstance(item, str):
                fh.write(item + "\n")
            else:
                rows.writerow(item)


def _fmt(x: float) -> str:
    return f"{x:.{TABLE_DECIMALS}f}"


def _cnum(v: complex) -> dict:
    return {"re": round(v.real, TABLE_DECIMALS), "im": round(v.imag, TABLE_DECIMALS)}


def _grid_rows(xs, ys, cells) -> list:
    """CSV rows of a grid: a header row of Re s, then Im s and its cells."""
    return [["im\\re", *(f"{x:.6g}" for x in xs)], *([f"{y:.6g}", *row] for y, row in zip(ys, cells))]


def cmd_table1(args) -> int:
    ff = build_zeta_factored()
    c = CircularContour(complex(args.center_re, args.center_im), args.radius)
    table = _coeff_table(args)
    cfg = PipelineConfig(table=table, series_order=args.order_n)
    # the published 8 angles and phi = 2 pi again
    phis = 2.0 * math.pi * np.arange(9) / 8.0
    values = zip(
        integrand_direct(ff, c, phis).tolist(),
        integrand_stage1(ff, c, phis, table).tolist(),
        integrand_stage2(ff, c, phis, table, args.order_n).tolist(),
        kernel_mellin(ff, c, phis, cfg).tolist(),
    )
    rows = [(i / 8.0, *row) for i, row in enumerate(values)]
    columns = ("direct", "stage1", "stage2", "kernel")
    if args.format == "json":
        body = [{"phi_over_2pi": frac, **{n: _cnum(v) for n, v in zip(columns, vals)}} for frac, *vals in rows]
    else:
        header = ["phi_over_2pi", *(f"{name}_{part}" for name in columns for part in ("re", "im"))]
        body = [header, *([_fmt(frac), *(_fmt(x) for v in vals for x in (v.real, v.imag))] for frac, *vals in rows)]
    _write(args, body)
    return 0


def cmd_count(args) -> int:
    ff = build_zeta_factored()
    c = CircularContour(complex(args.center_re, args.center_im), args.radius, args.nodes)
    if args.method == "direct":
        result = count_direct(ff, c)
    else:
        cfg = PipelineConfig(table=_coeff_table(args), series_order=args.order_n)
        result = count_pipeline(ff, c, cfg)
    if args.format == "json":
        body = {
            "method": args.method,
            "center": {"re": args.center_re, "im": args.center_im},
            "radius": args.radius,
            "nodes": c.nodes,
            "value": {"re": result.value.real, "im": result.value.imag},
            "rounded": result.rounded,
            "residual": result.residual,
            # an odd node count's gap is inf, which strict JSON cannot hold
            "contour_gap": result.contour_gap if math.isfinite(result.contour_gap) else None,
            "reliable": result.reliable,
        }
    else:
        body = [
            f"value    {result.value.real:+.12e} {result.value.imag:+.12e}i",
            f"rounded  {result.rounded}",
            f"residual {result.residual:.3e}",
            f"contour_gap {result.contour_gap:.3e}",
        ]
    _write(args, body)
    return 0 if result.reliable else 1


def cmd_sign_map(args) -> int:
    xs = np.linspace(args.re_min, args.re_max, args.grid_nx)
    ys = np.linspace(args.im_min, args.im_max, args.grid_ny)
    s = np.empty((len(ys), len(xs)), dtype=np.complex128)
    s.real, s.imag = xs, ys[:, None]
    pole = _eta_poles(s)  # 0 marks a pole
    grid = np.zeros(s.shape, dtype=int)
    grid[~pole] = csgn(build_zeta_factored().f_reference(s[~pole]))
    if args.format == "json":
        _write(args, {"re_axis": xs.tolist(), "im_axis": ys.tolist(), "sign": grid.tolist()})
    else:
        _write(args, _grid_rows(xs, ys, grid.tolist()))
    return 0


def cmd_expsum_error(args) -> int:
    table = _coeff_table(args)
    xs, ys, grid = error_grid(
        table,
        (args.re_min, args.re_max),
        (args.im_min, args.im_max),
        (args.grid_nx, args.grid_ny),
    )
    parts = (("real", grid.real), ("imag", grid.imag))
    if args.format == "json":
        # the origin's NaN cell is null: JSON has no NaN
        cells = {n: [[None if math.isnan(v) else round(v, TABLE_DECIMALS) for v in row] for row in part.tolist()]
                 for n, part in parts}
        _write(args, {"re_axis": xs.tolist(), "im_axis": ys.tolist(), **cells})
    else:
        body = []
        for name, part in parts:
            cells = ([_fmt(v) for v in row] for row in part.tolist())
            body += [f"# {name} part of approximation error", *_grid_rows(xs, ys, cells)]
        _write(args, body)
    return 0


def cmd_convolution_check(args) -> int:
    if args.s_re is not None:
        points = [complex(args.s_re, args.s_im or 0.0)]
    elif args.s_im is not None:
        print("error: --s-im needs --s-re", file=sys.stderr)
        return 2
    else:
        points = [0.4 + 0j, 0.4 - 0.3j]
    ff = build_zeta_factored()
    g = CHECK_SIGDIGITS
    body = []
    for s in points:
        threefold = power_transform(ff.zf, 3, s).value
        cubed = power_transform(ff.zf, 1, s).value ** 3
        diff = abs(threefold - cubed)
        if args.format == "json":
            body.append(
                {
                    "s": {"re": s.real, "im": s.imag},
                    "threefold": {"re": threefold.real, "im": threefold.imag},
                    "cubed": {"re": cubed.real, "im": cubed.imag},
                    "difference": diff,
                }
            )
        else:
            body += [
                f"s = {s.real:.{g}g} + {s.imag:.{g}g}i",
                f"  threefold convolution  {threefold.real:.{g}g} + {threefold.imag:.{g}g}i",
                f"  direct third power     {cubed.real:.{g}g} + {cubed.imag:.{g}g}i",
                f"  |difference|           {diff:.3e}",
            ]
    _write(args, body)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="melroot",
        description="Count roots minus poles of functions given as Mellin transforms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # table1 always tabulates the published 8 angles, so it takes no --nodes
    p = sub.add_parser("table1", help="stage-by-stage integrand table on a circular contour")
    _add_circle_args(p)
    _add_pipeline_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("count", help="count roots minus poles inside a circle")
    _add_circle_args(p)
    p.add_argument("--nodes", type=_POSITIVE_INT, default=64)
    p.add_argument("--method", choices=("direct", "pipeline"), default="direct")
    _add_pipeline_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("sign-map", help="complex sign of zeta on a rectangular grid")
    _add_grid_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_sign_map)

    p = sub.add_parser("expsum-error", help="error grids of the reciprocal approximation")
    _add_grid_args(p)
    _add_table_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_expsum_error)

    p = sub.add_parser("convolution-check", help="threefold convolution vs direct third power")
    p.add_argument("--s-re", type=_FINITE_FLOAT, default=None)
    p.add_argument("--s-im", type=_FINITE_FLOAT, default=None)
    _add_output_args(p)
    p.set_defaults(func=cmd_convolution_check)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:  # includes PoleError
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"quadrature did not converge: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # from _write; exit 1 would read as an unreliable count
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
