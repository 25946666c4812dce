#!/usr/bin/env python3
"""Count roots minus poles of the factored zeta model inside a circle,
comparing the direct f'/f route with the approximated convolution pipeline.
"""

import argparse
import math

import melroot as m


def _report(label: str, result: m.CountResult) -> None:
    gap = "inf (odd node count)" if math.isinf(result.contour_gap) else f"{result.contour_gap:.3e}"
    print(f"{label:10s}value = {result.value:.6e}")
    print(f"          rounded {result.rounded}, residual {result.residual:.3e}, contour gap {gap}")


def run(center: complex, radius: float, nodes: int) -> None:
    ff = m.build_zeta_factored()
    c = m.CircularContour(center, radius, nodes=nodes)

    _report("direct:", m.count_direct(ff, c))

    cfg = m.PipelineConfig(table=m.PRESETS["appendixC"])
    pipe = m.count_pipeline(ff, c, cfg)
    _report("pipeline:", pipe)
    if not pipe.reliable:
        print("          (not a trustworthy integer count: the residual must be under 0.25")
        print("          and the contour gap under 1e-3, which an odd node count never is)")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--center-re", type=float, default=0.57)
    parser.add_argument("--center-im", type=float, default=1.57)
    parser.add_argument("--radius", type=float, default=0.1)
    parser.add_argument("--nodes", type=int, default=8)
    args = parser.parse_args()
    run(complex(args.center_re, args.center_im), args.radius, args.nodes)
