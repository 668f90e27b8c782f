"""Coefficient families for the inverse-power series in the Pearcey expansion.

The large-|y| expansion of P(x, y) is an inverse-power series in y^(2/3)
whose coefficients A_n(x) are assembled from two simpler families:

* ``expansion_weight(n, m, k, x)`` -- combinatorial weights obtained by
  expanding the cubic/quartic remainder of the phase about a saddle into
  powers of the integration variable and collecting equal powers of
  y^(-2/3),
* ``moment_coeff(n, x)`` -- scaled Gaussian moments c_n(x) of the weight
  exp(-3*2^(-1/3)*u^2 + 2^(1/3)*x*u), normalised so that c_0 = 1.

The moments satisfy the three-term recursion

    c_{n+2} = x/(3*2^(1/3)) * c_{n+1} + (n+1)/(3*2^(2/3)) * c_n

which is the normative evaluation path: unlike the closed-form sum it is
regular at x = 0 and loses no accuracy to cancellation for moderate n.
``moment_coeff_closed`` keeps the closed form for cross-checks.

Everything here is plain complex arithmetic; ``build_table`` bundles the
values an expansion of a given order needs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

#: Highest coefficient order ``build_table`` accepts.  Above order 5 the
#: (n, m, k) lattice in ``_series_from_moments`` loses digits to
#: cancellation: against the same lattice in 60-digit arithmetic, A_n
#: (n <= 25) is off by up to 1.7e-6 relative at x = -2 (3.8e-7 at x = 1,
#: 7.9e-5 at x = 3, 2e5 at x = 10).  The frozen tables (orders <= 5) are
#: unaffected.
MAX_ORDER = 64

_CUBE2 = 2.0 ** (1.0 / 3.0)
_REC_B = 1.0 / (3.0 * _CUBE2)            # x-coupling of the moment recursion
_REC_D = 1.0 / (3.0 * 2.0 ** (2.0 / 3.0))  # index-coupling term


def _factorial(n: int) -> int | float:
    """n!, exact integer up to 20!, lgamma-based float beyond."""
    if n <= 20:
        return math.factorial(n)
    return math.exp(math.lgamma(n + 1))


def expansion_weight(n: int, m: int, k: int, x: complex) -> complex:
    """Weight a_{n,m,k}(x) of the remainder expansion.

        a_{n,m,k}(x) = x^k * 2^(4(2m-n-k)/3) * (-1)^m / (k! (2m-n-k)! (n-m)!)

    Valid only on the lattice floor((n+1)/2) <= m <= n, 0 <= k <= 2m-n.
    """
    if n < 0:
        raise ValueError(f"index precondition violated: need n >= 0, got n={n}")
    if not (n + 1) // 2 <= m <= n:
        raise ValueError(
            "index precondition violated: need floor((n+1)/2) <= m <= n, "
            f"got n={n}, m={m}")
    if not 0 <= k <= 2 * m - n:
        raise ValueError(
            "index precondition violated: need 0 <= k <= 2m-n, "
            f"got n={n}, m={m}, k={k}")
    num = (x ** k) * 2.0 ** (4.0 * (2 * m - n - k) / 3.0) * (-1.0) ** m
    return num / (_factorial(k) * _factorial(2 * m - n - k) * _factorial(n - m))


def _finite(x: complex) -> complex:
    """x as a complex number; NaN or infinite parts raise ValueError."""
    x = complex(x)
    if not cmath.isfinite(x):
        raise ValueError(f"x must be finite, got x={x!r}")
    return x


def _moment_seq(x: complex, nmax: int) -> list[complex]:
    c = [complex(0)] * (nmax + 1)
    c[0] = complex(1)
    if nmax >= 1:
        c[1] = x * _REC_B
    for n in range(nmax - 1):
        c[n + 2] = x * _REC_B * c[n + 1] + (n + 1) * _REC_D * c[n]
    return c


def moment_coeff(n: int, x: complex) -> complex:
    """Scaled Gaussian moment c_n(x) via the three-term recursion."""
    if n < 0:
        raise ValueError(f"index precondition violated: need n >= 0, got n={n}")
    return _moment_seq(_finite(x), n)[n]


def moment_coeff_closed(n: int, x: complex) -> complex:
    """Closed-form c_n(x); cross-check path only, undefined at x = 0.

        c_n(x) = x^n / (3^n 2^(n/3)) * sum_k (3/(2x^2))^k n! / (k! (n-2k)!)
    """
    if n < 0:
        raise ValueError(f"index precondition violated: need n >= 0, got n={n}")
    x = _finite(x)
    if x == 0:
        raise ValueError("closed-form moment undefined at x = 0; "
                         "use the recursion form")
    ratio = 3.0 / (2.0 * x * x)
    total = complex(0)
    for k in range(n // 2 + 1):
        total += ratio ** k * _factorial(n) / (_factorial(k) * _factorial(n - 2 * k))
    return x ** n / (3.0 ** n * 2.0 ** (n / 3.0)) * total


def _series_from_moments(n: int, x: complex, c: list[complex]) -> complex:
    total = complex(0)
    for m in range((n + 1) // 2, n + 1):
        for k in range(2 * m - n + 1):
            total += (-1.0) ** (n + k) * expansion_weight(n, m, k, x) * c[2 * m + n - k]
    return total


def series_coeff(n: int, x: complex) -> complex:
    """Series coefficient A_n(x) of the y^(-2n/3) term, 0 <= n <= MAX_ORDER.

    A_0 = 1 for every x; A_1(x) = 2^(1/3) x (9 - x^2) / 54.
    """
    return build_table(x, n).series[n]


@dataclass(frozen=True)
class CoefficientTable:
    """Moments c_0..c_{3*max_order} and coefficients A_0..A_{max_order} at fixed x."""

    max_order: int
    moments: tuple[complex, ...]
    series: tuple[complex, ...]


def build_table(x: complex, max_order: int) -> CoefficientTable:
    """All coefficients an expansion of order ``max_order`` consumes.

    A_n draws on moments up to index 3n, so ``moments`` runs to 3*max_order.
    """
    if max_order < 0:
        raise ValueError(
            f"index precondition violated: need max_order >= 0, got {max_order}")
    if max_order > MAX_ORDER:
        raise ValueError(
            f"max_order {max_order} exceeds the supported cap {MAX_ORDER}")
    x = _finite(x)
    c = _moment_seq(x, 3 * max_order)
    a = [_series_from_moments(n, x, c) for n in range(max_order + 1)]
    return CoefficientTable(max_order=max_order,
                            moments=tuple(c), series=tuple(a))
