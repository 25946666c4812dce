"""Exponential-sum approximation of the reciprocal.

1/x is approximated by sum_j alpha_j * exp(-c_j * x), valid for Re(x) > 0;
a csgn guard folds arguments into that half-plane, making the approximation
odd. Given an order, :func:`inv_approx` replaces each exponential by its
Taylor polynomial of that degree and sums the result as one polynomial in
the folded argument; the fold and the truncated series are that one
function.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import csgn

__all__ = [
    "ExpSumTable",
    "PRESETS",
    "inv_approx",
    "error_grid",
]


@dataclass(frozen=True)
class ExpSumTable:
    """Weights alpha_j and rates c_j of the reciprocal approximation."""

    alpha: tuple[float, ...]
    c: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "c", tuple(float(x) for x in self.c))
        if len(self.alpha) != len(self.c):
            raise ValueError(
                f"alpha and c must have equal length, got {len(self.alpha)} vs {len(self.c)}"
            )
        if len(self.alpha) < 1:
            raise ValueError("coefficient table must contain at least one term")
        if not all(0.0 < v < math.inf for v in self.alpha + self.c):
            raise ValueError("all coefficients must be finite and strictly positive")
        if any(b <= a for a, b in zip(self.c, self.c[1:])):
            raise ValueError("rates c must be strictly increasing")

    @classmethod
    def from_file(cls, path: str | Path) -> "ExpSumTable":
        """Load a table from plain text: one "alpha c" pair per line.

        Blank lines and lines starting with '#' are ignored; values are
        parsed at full double precision.
        """
        alphas: list[float] = []
        cs: list[float] = []
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'alpha c', got {raw!r}")
            alphas.append(float(parts[0]))
            cs.append(float(parts[1]))
        return cls(tuple(alphas), tuple(cs))


# Two published 4-term presets differing in two entries (0.852 vs 0.8523,
# 0.017 vs 0.0169); the reference tables in this package were generated with
# the "appendixC" set.
PRESETS: dict[str, ExpSumTable] = {
    "table2": ExpSumTable((0.048, 0.235, 0.852, 2.737), (0.017, 0.139, 0.627, 2.241)),
    "appendixC": ExpSumTable((0.048, 0.235, 0.8523, 2.737), (0.0169, 0.139, 0.627, 2.241)),
}


def inv_approx(x, table: ExpSumTable, order: int | None = None):
    """Exponential-sum approximation of 1/x with the csgn fold, elementwise.

    Returns sum_j alpha_j * csgn(x) * exp(-c_j * x * csgn(x)). The fold
    guarantees Re(c_j * x * csgn(x)) >= 0, the convergence condition of the
    underlying approximation, and makes the result an odd function of x.

    An integer ``order`` n cuts each exponential to its Taylor polynomial of
    degree n, which turns the sum into csgn(x) * sum_k b_k y**k with
    y = x csgn(x) and b_k = (-1)**k / k! * sum_j alpha_j c_j**k, k = 0..n:
    the sum over j collapses into one weight per power of y. Each term
    alpha_j (-c_j)**k / k! is the previous one times -c_j / k, so no c_j**k
    or k! overflows at high order, and the polynomial is evaluated by
    Horner's rule, so no power y**k is formed. An order that is not a
    non-negative integer raises ``ValueError``.
    """
    sgn = csgn(x)
    folded = x * sgn
    total = 0j
    if order is None:
        for a, cj in zip(table.alpha, table.c):
            total += a * sgn * np.exp(-cj * folded)
        return total
    if not isinstance(order, numbers.Integral) or order < 0:
        raise ValueError(f"series order must be a non-negative integer, got {order!r}")
    terms = list(table.alpha)
    weights = [sum(terms)]
    for k in range(1, order + 1):
        terms = [t * -cj / k for t, cj in zip(terms, table.c)]
        weights.append(sum(terms))
    for b in reversed(weights):
        total = total * folded + b
    return sgn * total


def error_grid(
    table: ExpSumTable,
    re_range: tuple[float, float],
    im_range: tuple[float, float],
    samples: tuple[int, int],
):
    """Sample inv_approx(z) - 1/z on a rectangular grid.

    Returns ``(re_axis, im_axis, grid)`` with ``grid[iy, ix]`` the error at
    ``re_axis[ix] + 1j * im_axis[iy]``. The exact origin is outside the
    domain; its cell is NaN. Both ``samples`` must be positive integers, else
    ``ValueError``.
    """
    nx, ny = samples
    if not all(isinstance(n, numbers.Integral) and n >= 1 for n in samples):
        raise ValueError(f"grid dimensions must be positive integers, got {samples!r}")
    re_axis = np.linspace(re_range[0], re_range[1], nx)
    im_axis = np.linspace(im_range[0], im_range[1], ny)
    z = re_axis[None, :] + 1j * im_axis[:, None]
    origin = z == 0
    z[origin] = 1.0
    grid = inv_approx(z, table) - 1.0 / z
    grid[origin] = complex(math.nan, math.nan)
    return re_axis, im_axis, grid
