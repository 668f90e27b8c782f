"""Saddle geometry of the rotated Pearcey phase.

After reducing P(x, y) to a half-line free of oscillation issues, the
exponent is |y|^(4/3) * f(t) - x y^(2/3) t^2 with the rotated phase

    f(t) = exp(4i*theta/3) * (i*t - t^4),        theta = arg y.

f has three stationary points; the two relevant ones sit at angle pi/6
and 5pi/6 on the circle |t| = 2^(-2/3).  The modified saddle point method
uses this geometry to justify the expansion, not to evaluate it: no
runtime path integrates along a saddle contour.  Two kinds of reader
remain, and this module keeps only what they need.

* The acceptance gate checks the saddle analysis itself: the phase and
  its derivative, the exact quartic Taylor forms about each saddle
  (``phase_taylor``), the saddle set, and the decay rate of the two tails
  the expansion discards (``tail_decay_rate``).
* The residual exponent h_k left over after the Gaussian factor is split
  off (``residual_exponent``) is the independent reference for the
  runtime weights in ``coefficients.expansion_weight``: summing
  ``residual_series_coeff``, which is built from those weights, must
  reproduce exp(h_k) term by term.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .coefficients import as_finite, expansion_weight

_PI = math.pi
_R_SADDLE = 2.0 ** (-2.0 / 3.0)
_T0 = complex(0.0, -(4.0 ** (-1.0 / 3.0)))
_T1 = _R_SADDLE * cmath.exp(1j * _PI / 6.0)
_T2 = _R_SADDLE * cmath.exp(5j * _PI / 6.0)
_CUBE16 = 2.0 ** (4.0 / 3.0)          # 16^(1/3)
_QUAD_AMP = 3.0 / 2.0 ** (1.0 / 3.0)  # modulus of the quadratic Taylor term
_LEVEL_AMP = 3.0 / 4.0 ** (4.0 / 3.0)  # modulus of f at the saddles


@dataclass(frozen=True)
class SaddleSet:
    """The three stationary points of f; t0 never carries contour weight."""

    t0: complex
    t1: complex
    t2: complex


_SADDLES = SaddleSet(t0=_T0, t1=_T1, t2=_T2)


def saddle_points() -> SaddleSet:
    """Stationary points of the rotated phase (theta-independent)."""
    return _SADDLES


def phase(t: complex, theta: float) -> complex:
    """Rotated phase f(t) = exp(4i*theta/3) (i t - t^4)."""
    as_finite(t=t, theta=theta)
    return cmath.exp(4j * theta / 3.0) * (1j * t - t ** 4)


def phase_derivative(t: complex, theta: float) -> complex:
    """df/dt = exp(4i*theta/3) (i - 4 t^3)."""
    return cmath.exp(4j * theta / 3.0) * (1j - 4.0 * t ** 3)


def phase_taylor(t: complex, theta: float, saddle: int) -> complex:
    """Exact degree-4 Taylor form of f about saddle 1 or 2.

    The expansion terminates at degree 4, so this equals ``phase(t, theta)``
    identically; it exposes the quadratic/cubic/quartic split about each
    saddle that the saddle point analysis rests on, for the acceptance gate
    to check against ``phase``.
    """
    if saddle == 1:
        d = t - _T1
        return (_LEVEL_AMP * cmath.exp(1j * (4.0 * theta + 2.0 * _PI) / 3.0)
                - _QUAD_AMP * cmath.exp(1j * (4.0 * theta + _PI) / 3.0) * d * d
                - _CUBE16 * cmath.exp(1j * (4.0 * theta / 3.0 + _PI / 6.0)) * d ** 3
                - cmath.exp(4j * theta / 3.0) * d ** 4)
    if saddle == 2:
        d = t - _T2
        return (_LEVEL_AMP * cmath.exp(1j * (4.0 * theta - 2.0 * _PI) / 3.0)
                - _QUAD_AMP * cmath.exp(1j * (4.0 * theta - _PI) / 3.0) * d * d
                + _CUBE16 * cmath.exp(1j * (4.0 * theta / 3.0 - _PI / 6.0)) * d ** 3
                - cmath.exp(4j * theta / 3.0) * d ** 4)
    raise ValueError(f"saddle must be 1 or 2, got {saddle}")


def _principal_power(y: complex, exponent: float) -> complex:
    return cmath.exp(exponent * cmath.log(y))


def residual_exponent(u: complex, x: complex, y: complex, branch: int) -> complex:
    """Remainder h_k(u) after the Gaussian factor is split off at saddle k.

    h_1 = exp(2i*pi/3) u^2 (x + 2^(4/3) u) / y^(2/3) + exp(i*pi/3) u^4 / y^(4/3)
    h_2 = exp(-2i*pi/3) u^2 (x - 2^(4/3) u) / y^(2/3) + exp(-i*pi/3) u^4 / y^(4/3)

    Principal powers of y; y = 0 is outside the domain.
    """
    if y == 0:
        raise ValueError("residual exponent undefined at y = 0")
    y23 = _principal_power(y, 2.0 / 3.0)
    y43 = _principal_power(y, 4.0 / 3.0)
    u2 = u * u
    if branch == 1:
        return (cmath.exp(2j * _PI / 3.0) * u2 * (x + _CUBE16 * u) / y23
                + cmath.exp(1j * _PI / 3.0) * u2 * u2 / y43)
    if branch == 2:
        return (cmath.exp(-2j * _PI / 3.0) * u2 * (x - _CUBE16 * u) / y23
                + cmath.exp(-1j * _PI / 3.0) * u2 * u2 / y43)
    raise ValueError(f"branch must be 1 or 2, got {branch}")


def residual_series_coeff(n: int, x: complex, u: complex, branch: int) -> complex:
    """Coefficient of y^(-2n/3) in the u-pointwise expansion of exp(h_k).

    Branch 1 collects exp(-i n pi/3) * sum a_{n,m,k}(x) u^(2m+n-k); branch 2
    is the mirror with u -> -u and the conjugate phase.
    """
    if n < 0:
        raise ValueError(f"index precondition violated: need n >= 0, got n={n}")
    if branch not in (1, 2):
        raise ValueError(f"branch must be 1 or 2, got {branch}")
    base = u if branch == 1 else -u
    total = complex(0)
    for m in range((n + 1) // 2, n + 1):
        for k in range(2 * m - n + 1):
            total += expansion_weight(n, m, k, x) * base ** (2 * m + n - k)
    sign = -1.0 if branch == 1 else 1.0
    return cmath.exp(sign * 1j * n * _PI / 3.0) * total


def tail_decay_rate(theta: float) -> float:
    """Largest Re f over the two tails the saddle expansion discards.

    The steepest-descent lines through the saddles rejoin the original
    half-line at the junctions w = t1 + 2^(-2/3) exp(-i(pi+4theta)/6) and
    u = t2 - 2^(-2/3) exp(i(pi-4theta)/6).  Beyond them Re f decreases
    monotonically, so the maximum sits at a junction and the discarded
    contribution is O(exp(|y|^(4/3) * rate)).  The rate stays below -1.38
    throughout the two-saddle sector |theta| <= pi/8.
    """
    if not abs(theta) <= _PI / 8.0:
        raise ValueError(
            f"tail rate defined for |theta| <= pi/8, got theta={theta}")
    w = _T1 + _R_SADDLE * cmath.exp(-1j * (_PI + 4.0 * theta) / 6.0)
    u = _T2 - _R_SADDLE * cmath.exp(1j * (_PI - 4.0 * theta) / 6.0)
    return max(phase(w, theta).real, phase(u, theta).real)
