"""Benchmark presets: relative error of the expansion against an oracle.

Each preset fixes x and sweeps a set of y values (real magnitudes plus a
few complex rays that exercise the single-saddle regions), reporting the
relative error of the asymptotic value at each truncation order.  The
rows reproduce the published reference grids for x = 1 and x = -2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .asymptotics import pearcey_asymptotic
from .quadrature import QuadratureConfig, pearcey_quadrature, relative_error


@dataclass(frozen=True)
class TableRow:
    """One y sample: modulus and argument as an exact multiple of pi."""

    modulus: float
    arg_over_pi: Fraction

    @property
    def y(self) -> complex:
        if self.arg_over_pi == 0:
            return complex(self.modulus)
        return self.modulus * cmath.exp(1j * math.pi * float(self.arg_over_pi))

    @property
    def label(self) -> str:
        if self.arg_over_pi == 0:
            return f"{self.modulus:g}"
        num = self.arg_over_pi.numerator
        den = self.arg_over_pi.denominator
        sign = "-" if num < 0 else ""
        coeff = "" if abs(num) == 1 else str(abs(num))
        return f"{self.modulus:g}e^{{{sign}{coeff}i*pi/{den}}}"


@dataclass(frozen=True)
class TableSpec:
    x: complex
    rows: tuple[TableRow, ...]
    orders: tuple[int, ...]


TABLE1 = TableSpec(
    x=complex(1),
    rows=(
        TableRow(5.0, Fraction(0)),
        TableRow(10.0, Fraction(0)),
        TableRow(20.0, Fraction(1, 4)),
        TableRow(20.0, Fraction(-3, 8)),
        TableRow(30.0, Fraction(0)),
        TableRow(40.0, Fraction(0)),
        TableRow(50.0, Fraction(0)),
    ),
    orders=tuple(range(6)),
)

TABLE2 = TableSpec(
    x=complex(-2),
    rows=(
        TableRow(5.0, Fraction(0)),
        TableRow(10.0, Fraction(0)),
        # The reference grid's third row sits on the pi/8 ray: every cell
        # matches evaluation at 20e^{i*pi/8} to ~1e-6, while plain y = 20
        # disagrees by factors of 3 to 13.
        TableRow(20.0, Fraction(1, 8)),
        TableRow(30.0, Fraction(1, 4)),
        TableRow(30.0, Fraction(-3, 8)),
        TableRow(40.0, Fraction(0)),
        TableRow(50.0, Fraction(0)),
    ),
    orders=tuple(range(6)),
)

PRESETS = {1: TABLE1, 2: TABLE2}


def table_rows(spec: TableSpec,
               oracle: QuadratureConfig | None = None
               ) -> Iterator[tuple[str, int, float]]:
    """Yield (y_label, order, relative_error) cells, row-major.

    Each row makes one oracle call and one expansion call at the highest
    order; its partial sums are the lower orders' values, bit for bit.
    """
    if any(order < 0 for order in spec.orders):
        raise ValueError(
            f"index precondition violated: need orders >= 0, got {spec.orders}")
    top = max(spec.orders, default=0)
    for row in spec.rows:
        reference = pearcey_quadrature(spec.x, row.y, oracle)
        partial_sums = pearcey_asymptotic(spec.x, row.y, top).partial_sums
        for order in spec.orders:
            yield row.label, order, relative_error(partial_sums[order], reference)
