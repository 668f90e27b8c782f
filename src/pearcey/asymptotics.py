"""Large-|y| asymptotic expansion of the Pearcey integral.

P(x, y) is even in y, so evaluation is normalised to Re y >= 0 and
everything is phrased in theta = arg y on [-pi/2, pi/2].  Two saddle
contributions exist; which of them the contour actually crosses depends
on theta:

    CASE1   -pi/2 <= theta < -pi/8   only the first branch contributes
    CASE3   |theta| <= pi/8          both branches contribute
    CASE2    pi/8 < theta <= pi/2    only the second branch contributes

Each branch is an exponential prefactor times an inverse-power series in
y^(2/3) with coefficients A_n(x).  On the positive real axis the two
branches are complex conjugates and their sum is real; crossing theta = 0
exchanges which branch dominates (a Stokes line), and at theta = +-3pi/8
both have equal modulus (anti-Stokes lines).

All fractional powers of y are principal-branch.  The expansion degrades
as |y| shrinks; below |y| = 5 the leading omitted term is no longer a
reliable error proxy and results carry a warning.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Iterator

from .coefficients import CoefficientTable, build_table

_PI = math.pi
_AMP = math.sqrt(_PI / 3.0) / 2.0 ** (5.0 / 6.0)
_EXP_LEVEL = 3.0 / 4.0 ** (4.0 / 3.0)
_EXP_SHIFT = 1.0 / 4.0 ** (2.0 / 3.0)
_OVERFLOW_RE = 709.0  # exp argument beyond which a double overflows
_ANTI_STOKES_TOL = 1e-12
_SMALL_Y_WARNING = 5.0


class Region(enum.Enum):
    """Which saddle branches the deformed contour picks up."""

    CASE1 = "CASE1"
    CASE2 = "CASE2"
    CASE3 = "CASE3"


class Dominance(enum.Enum):
    """Exponentially dominant branch, or BOTH on the positive real axis."""

    P1 = "P1"
    P2 = "P2"
    BOTH = "BOTH"


@dataclass(frozen=True)
class EvalPoint:
    """Evaluation point after the evenness reduction to Re y >= 0."""

    x: complex
    y_raw: complex
    y: complex
    theta: float


@dataclass(frozen=True)
class StokesInfo:
    dominant: Dominance
    on_anti_stokes: bool


@dataclass(frozen=True)
class ExpansionResult:
    """Expansion output: the value plus enough structure to judge it.

    ``partial_sums[n]`` is the expansion truncated after the y^(-2n/3)
    term, so ``partial_sums[order] == value``; the branch contributions
    satisfy ``value == p1_contrib + p2_contrib`` with the inactive branch
    pinned to zero.  ``first_omitted_magnitude`` estimates the size of the
    first dropped term and hence the achievable accuracy at this order.
    """

    value: complex
    order: int
    region: Region
    p1_contrib: complex
    p2_contrib: complex
    partial_sums: tuple[complex, ...]
    first_omitted_magnitude: float
    warnings: tuple[str, ...]


def normalize(x: complex, y: complex) -> EvalPoint:
    """Reduce (x, y) by evenness in y to Re y >= 0 and record theta."""
    x = complex(x)
    y = complex(y)
    if not (cmath.isfinite(x) and cmath.isfinite(y)):
        raise ValueError(f"x and y must be finite, got x={x!r}, y={y!r}")
    if y == 0:
        raise ValueError(
            "asymptotic expansion undefined at y = 0; use quadrature")
    y_norm = -y if y.real < 0 else y
    return EvalPoint(x=x, y_raw=y, y=y_norm, theta=cmath.phase(y_norm))


def classify_region(point: EvalPoint) -> Region:
    """Region of theta; the boundaries +-pi/8 belong to CASE3."""
    if abs(point.theta) <= _PI / 8.0:
        return Region.CASE3
    if point.theta < 0:
        return Region.CASE1
    return Region.CASE2


def prefactor(k: int, x: complex, y: complex) -> complex:
    """Exponential prefactor of branch k at principal powers of y.

    On overflow of the double-precision exponential the result saturates
    to an infinite modulus with the correct phase direction.
    """
    if k not in (1, 2):
        raise ValueError(f"branch must be 1 or 2, got {k}")
    if y == 0:
        raise ValueError("prefactor undefined at y = 0")
    x = complex(x)
    logy = cmath.log(y)
    y13 = cmath.exp(logy / 3.0)
    y23 = cmath.exp(2.0 * logy / 3.0)
    y43 = cmath.exp(4.0 * logy / 3.0)
    sgn = 1.0 if k == 1 else -1.0
    expo = (_EXP_LEVEL * y43 * cmath.exp(sgn * 2j * _PI / 3.0)
            - _EXP_SHIFT * x * y23 * cmath.exp(sgn * 1j * _PI / 3.0)
            + x * x / 6.0
            + cmath.log(_AMP / y13))
    if expo.real > _OVERFLOW_RE:
        return complex(math.inf * math.cos(expo.imag),
                       math.inf * math.sin(expo.imag))
    return cmath.exp(expo)


def _partial_sums(k: int, series: tuple[complex, ...], logy: complex,
                  order: int) -> Iterator[complex]:
    """Running partial sums of branch k's inverse-power series, orders 0..order."""
    sgn = -1.0 if k == 1 else 1.0
    total = complex(0)
    for n in range(order + 1):
        term_phase = cmath.exp(sgn * (2 * n + 1) * 1j * _PI / 6.0)
        total += term_phase * series[n] * cmath.exp(-2.0 * n / 3.0 * logy)
        yield total


def series_sum(k: int, table: CoefficientTable, y: complex, order: int) -> complex:
    """Partial sum of branch k's inverse-power series through ``order``."""
    if k not in (1, 2):
        raise ValueError(f"branch must be 1 or 2, got {k}")
    if y == 0:
        raise ValueError("series undefined at y = 0")
    if not 0 <= order <= table.max_order:
        raise ValueError(
            f"order {order} outside table range 0..{table.max_order}")
    *_, total = _partial_sums(k, table.series, cmath.log(y), order)
    return total


def pearcey_branch(k: int, x: complex, y: complex, order: int) -> complex:
    """Single branch P_k(x, y) through ``order``, at y as given."""
    table = build_table(x, order)
    return prefactor(k, complex(x), y) * series_sum(k, table, y, order)


def pearcey_asymptotic(x: complex, y: complex, order: int = 5) -> ExpansionResult:
    """Evaluate P(x, y) by the region-appropriate saddle expansion.

    ``order`` counts retained series terms beyond the leading one, so the
    returned value carries terms through y^(-2*order/3).
    """
    if order < 0:
        raise ValueError(f"index precondition violated: need order >= 0, got {order}")
    point = normalize(x, y)
    region = classify_region(point)
    table = build_table(point.x, order + 1)

    if region is Region.CASE1:
        active = (1,)
    elif region is Region.CASE2:
        active = (2,)
    else:
        active = (1, 2)

    warnings: list[str] = []
    y_mod = abs(point.y)
    if y_mod < _SMALL_Y_WARNING:
        warnings.append(
            f"|y| = {y_mod:.6g} is below {_SMALL_Y_WARNING:g}; the expansion "
            "error can exceed the first omitted term substantially")

    prefs = {k: prefactor(k, point.x, point.y) for k in active}
    if any(not cmath.isfinite(p) for p in prefs.values()):
        warnings.append("exponential prefactor overflowed double precision; "
                        "value saturated to infinite modulus")

    logy = cmath.log(point.y)
    contribs = {k: [complex(0)] * (order + 1) for k in (1, 2)}
    for k in active:
        contribs[k] = [prefs[k] * s
                       for s in _partial_sums(k, table.series, logy, order)]
    partial = [c1 + c2 for c1, c2 in zip(contribs[1], contribs[2])]

    omitted = (sum(abs(prefs[k]) for k in active)
               * abs(table.series[order + 1])
               * y_mod ** (-2.0 * (order + 1) / 3.0))

    return ExpansionResult(
        value=partial[-1],
        order=order,
        region=region,
        p1_contrib=contribs[1][-1],
        p2_contrib=contribs[2][-1],
        partial_sums=tuple(partial),
        first_omitted_magnitude=omitted,
        warnings=tuple(warnings),
    )


def stokes_classification(y: complex) -> StokesInfo:
    """Dominance pattern of the two branches at arg y (after evenness).

    Im y > 0 makes the second branch dominant, Im y < 0 the first; on the
    positive real axis both are equal in modulus and beat against each
    other.  The anti-Stokes flag marks |theta| within 1e-12 of 3pi/8,
    where the moduli cross.
    """
    point = normalize(0.0, y)
    if point.y.imag > 0:
        dom = Dominance.P2
    elif point.y.imag < 0:
        dom = Dominance.P1
    else:
        dom = Dominance.BOTH
    on_anti = abs(abs(point.theta) - 3.0 * _PI / 8.0) <= _ANTI_STOKES_TOL
    return StokesInfo(dominant=dom, on_anti_stokes=on_anti)
