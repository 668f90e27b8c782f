"""Large-|y| asymptotic expansion of the Pearcey integral.

P(x, y) is even in y, so evaluation is normalised to Re y >= 0 and
everything is phrased in theta = arg y on [-pi/2, pi/2].  Two saddle
contributions exist; which of them the contour actually crosses depends
on theta:

    CASE1   -pi/2 <= theta < -pi/8   only the first branch contributes
    CASE3   |theta| <= pi/8          both branches contribute
    CASE2    pi/8 < theta <= pi/2    only the second branch contributes

Each branch is an exponential prefactor times an inverse-power series in
y^(2/3) with coefficients A_n(x).  For real x the prefactors satisfy

    log|p2/p1| = sqrt(3) |y|^(2/3) (3 4^(-4/3) |y|^(2/3) sin(4 theta/3)
                                    - 4^(-2/3) x sin(2 theta/3)).

On the positive real axis the two branches are complex conjugates, equal
in modulus, and their sum is real; crossing theta = 0 exchanges which
branch dominates.  At theta = +-3pi/8 the leading term peaks and one
branch is as dominant as it gets.  In the convention of DLMF 2.11(iv)
theta = 0 is thus an anti-Stokes line and theta = +-3pi/8 are Stokes
lines.  The paper calls the rays at +-3pi/8 anti-Stokes lines, and
``StokesInfo.on_anti_stokes`` keeps the paper's name.

All fractional powers of y are principal-branch.  The expansion degrades
as |y| shrinks; below |y| = 5 the leading omitted term is no longer a
reliable error proxy and results carry a warning.
"""

from __future__ import annotations

import cmath
import enum
import math
import operator
from dataclasses import dataclass

from .coefficients import MAX_ORDER, build_table

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


_ACTIVE_BRANCHES = {Region.CASE1: (1,), Region.CASE2: (2,),
                    Region.CASE3: (1, 2)}


class Dominance(enum.Enum):
    """Exponentially dominant branch, or BOTH on the positive real axis."""

    P1 = "P1"
    P2 = "P2"
    BOTH = "BOTH"


@dataclass(frozen=True)
class EvalPoint:
    """Evaluation point after the evenness reduction to Re y >= 0."""

    x: complex
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
    first dropped term and hence the achievable accuracy at this order;
    a value it does not undercut, or one that underflowed to zero, is not
    resolved and carries a warning.
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
    return EvalPoint(x=x, y=y_norm, theta=cmath.phase(y_norm))


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
    if not (cmath.isfinite(x) and cmath.isfinite(y)):
        raise ValueError(f"x and y must be finite, got x={x!r}, y={y!r}")
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


def branch_partial_sums(k: int, x: complex, y: complex,
                        series: tuple[complex, ...],
                        order: int) -> tuple[complex, list[complex]]:
    """Prefactor of branch k and the branch truncated at each order 0..order.

    ``series`` holds A_0..A_order (or more) at x; y is used as given.
    """
    pref = prefactor(k, x, y)  # rejects a bad branch and y = 0
    logy = cmath.log(y)
    sgn = -1.0 if k == 1 else 1.0
    total = complex(0)
    values = []
    for n in range(order + 1):
        term_phase = cmath.exp(sgn * (2 * n + 1) * 1j * _PI / 6.0)
        total += term_phase * series[n] * cmath.exp(-2.0 * n / 3.0 * logy)
        values.append(pref * total)
    return pref, values


def _integral_order(order) -> int:
    """``order`` as an int; a bool or a non-integral value is refused.

    ``operator.index`` accepts ints and numpy integers but not floats.
    """
    if not isinstance(order, bool):
        try:
            return operator.index(order)
        except TypeError:
            pass
    raise ValueError(f"order must be an int, got {order!r}")


def pearcey_branch(k: int, x: complex, y: complex, order: int) -> complex:
    """Single branch P_k(x, y) through ``order``, at y as given."""
    order = _integral_order(order)
    series = build_table(x, order).series
    return branch_partial_sums(k, x, y, series, order)[1][-1]


def pearcey_asymptotic(x: complex, y: complex, order: int = 5) -> ExpansionResult:
    """Evaluate P(x, y) by the region-appropriate saddle expansion.

    ``order`` counts retained series terms beyond the leading one, so the
    returned value carries terms through y^(-2*order/3).
    """
    order = _integral_order(order)
    if order < 0:
        raise ValueError(f"index precondition violated: need order >= 0, got {order}")
    if order > MAX_ORDER - 1:
        # the error estimate reads one coefficient beyond ``order``
        raise ValueError(
            f"order {order} exceeds the supported cap {MAX_ORDER - 1}")
    point = normalize(x, y)
    region = classify_region(point)
    table = build_table(point.x, order + 1)

    warnings: list[str] = []
    y_mod = abs(point.y)
    if y_mod < _SMALL_Y_WARNING:
        warnings.append(
            f"|y| = {y_mod:.6g} is below {_SMALL_Y_WARNING:g}; the expansion "
            "error can exceed the first omitted term substantially")

    inactive = (0.0, [complex(0)] * (order + 1))
    (pref1, contrib1), (pref2, contrib2) = (
        branch_partial_sums(k, point.x, point.y, table.series, order)
        if k in _ACTIVE_BRANCHES[region] else inactive for k in (1, 2))
    partial = [c1 + c2 for c1, c2 in zip(contrib1, contrib2)]

    omitted = ((abs(pref1) + abs(pref2))
               * abs(table.series[order + 1])
               * y_mod ** (-2.0 * (order + 1) / 3.0))
    if not (cmath.isfinite(pref1) and cmath.isfinite(pref2)):
        warnings.append("exponential prefactor overflowed double precision; "
                        "value saturated to infinite modulus")
    elif partial[-1] == 0:
        warnings.append("value underflowed to zero in double precision; "
                        "the expansion does not resolve P here")
    elif omitted >= abs(partial[-1]):
        warnings.append(
            f"first omitted term {omitted:.3g} is not below |value| = "
            f"{abs(partial[-1]):.3g}; the expansion does not resolve P "
            "at this order")

    return ExpansionResult(
        value=partial[-1],
        order=order,
        region=region,
        p1_contrib=contrib1[-1],
        p2_contrib=contrib2[-1],
        partial_sums=tuple(partial),
        first_omitted_magnitude=omitted,
        warnings=tuple(warnings),
    )


def stokes_classification(y: complex) -> StokesInfo:
    """Dominance pattern of the two branches at arg y (after evenness).

    Im y > 0 makes the second branch dominant, Im y < 0 the first; on the
    positive real axis both are equal in modulus and beat against each
    other, so that is where the moduli cross.  ``on_anti_stokes`` marks
    |theta| within 1e-12 of 3pi/8, where one branch is most dominant.
    That ray is a Stokes line in the DLMF 2.11(iv) convention; the flag
    keeps the paper's name for it.
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
