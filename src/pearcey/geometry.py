"""Saddle geometry of the rotated Pearcey phase.

After reducing P(x, y) to a half-line free of oscillation issues, the
exponent is |y|^(4/3) * f(t) - x y^(2/3) t^2 with the rotated phase

    f(t) = exp(4i*theta/3) * (i*t - t^4),        theta = arg y.

f has three stationary points; the two relevant ones sit at angle pi/6
and 5pi/6 on the circle |t| = 2^(-2/3).  The contour of integration is
bent through one or both of them along the steepest-descent lines of the
quadratic part of f, and everything downstream (series coefficients,
truncation limits, discarded-tail bounds) is phrased in the scaled
displacement u = (t - t_saddle) * y^(2/3) along those lines.

This module holds the phase, its exact quartic Taylor forms about each
saddle, the residual exponents h_k left over after the Gaussian factor is
split off, their polynomial expansions, the path of the bent contour
(``saddle_path``, which the contour quadrature oracle also integrates
along), and the geometry of the central region derived from that path:
the u-interval each branch integrates over and the decay rate of the two
tails that the expansion discards.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .coefficients import expansion_weight

_PI = math.pi
_R_SADDLE = 2.0 ** (-2.0 / 3.0)
_T0 = complex(0.0, -(4.0 ** (-1.0 / 3.0)))
_T1 = _R_SADDLE * cmath.exp(1j * _PI / 6.0)
_T2 = _R_SADDLE * cmath.exp(5j * _PI / 6.0)
_CUBE16 = 2.0 ** (4.0 / 3.0)          # 16^(1/3)
_QUAD_AMP = 3.0 / 2.0 ** (1.0 / 3.0)  # modulus of the quadratic Taylor term
_LEVEL_AMP = 3.0 / 4.0 ** (4.0 / 3.0)  # modulus of f at the saddles
_TENT_LIMIT = 3.0 * _PI / 8.0  # beyond this |theta| a single saddle line is clean


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
    return cmath.exp(4j * theta / 3.0) * (1j * t - t ** 4)


def phase_derivative(t: complex, theta: float) -> complex:
    """df/dt = exp(4i*theta/3) (i - 4 t^3)."""
    return cmath.exp(4j * theta / 3.0) * (1j - 4.0 * t ** 3)


def phase_taylor(t: complex, theta: float, saddle: int) -> complex:
    """Exact degree-4 Taylor form of f about saddle 1 or 2.

    The expansion terminates at degree 4, so this equals ``phase(t, theta)``
    identically; it exists to expose the quadratic/cubic/quartic split the
    contour construction relies on.
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


@dataclass(frozen=True)
class SaddlePath:
    """The bent contour in the t-plane at theta = arg y, before the y^(1/3) scaling.

    For |theta| <= 3pi/8 ``vertices`` is the tent (u, t2, corner, t1, w):
    from the junction u with the original half-line along saddle 2's
    steepest-descent line, through the corner where that line crosses
    saddle 1's, and out along saddle 1's line to the junction w.  The
    junctions sit 2^(-2/3) past each saddle, beyond the points where Re f
    could rise again, so both ends rejoin the half-line on a falling
    modulus; ``direction`` is None.  Deeper sectors use the single
    steepest-descent line of the relevant saddle: ``vertices`` holds that
    saddle and ``direction`` the unit direction of the line, whose two ends
    already point into decay valleys.
    """

    vertices: tuple[complex, ...]
    direction: complex | None = None


def saddle_path(theta: float) -> SaddlePath:
    """Path of the bent contour for theta = arg y in [-pi/2, pi/2]."""
    d1 = cmath.exp(-1j * (_PI + 4.0 * theta) / 6.0)
    d2 = cmath.exp(1j * (_PI - 4.0 * theta) / 6.0)
    if abs(theta) > _TENT_LIMIT:
        return SaddlePath((_T2,), d2) if theta > 0 else SaddlePath((_T1,), d1)
    w = _T1 + _R_SADDLE * d1
    u = _T2 - _R_SADDLE * d2
    # corner where the two saddle lines cross: t1 + s d1 = t2 + r d2
    det = d1.real * (-d2.imag) - d1.imag * (-d2.real)
    gap = _T2 - _T1
    along1 = (gap.real * (-d2.imag) - gap.imag * (-d2.real)) / det
    corner = _T1 + along1 * d1
    return SaddlePath((u, _T2, corner, _T1, w))


def tail_decay_rate(theta: float) -> float:
    """Largest Re f over the two tails the bent contour discards.

    Both tails run along the original half-line direction, where Re f
    decreases monotonically, so the maximum sits at the junction points
    and the discarded contribution is O(exp(|y|^(4/3) * rate)).  The rate
    stays below -1.38 throughout the two-saddle sector |theta| <= pi/8.
    """
    if abs(theta) > _PI / 8.0:
        raise ValueError(
            f"tail rate defined for |theta| <= pi/8, got theta={theta}")
    path = saddle_path(theta)
    return max(phase(path.vertices[-1], theta).real,
               phase(path.vertices[0], theta).real)


def tail_bound(theta: float, y_mod: float) -> float:
    """Magnitude bound exp(y_mod^(4/3) * tail_decay_rate(theta))."""
    if y_mod <= 0:
        raise ValueError(f"need y_mod > 0, got {y_mod}")
    return math.exp(y_mod ** (4.0 / 3.0) * tail_decay_rate(theta))


@dataclass(frozen=True)
class CasePathLimits:
    """u-interval one branch integrates over, with its tail junction.

    ``tail_peak`` is the t-plane point where the discarded tail attaches
    (and where its integrand modulus peaks).
    """

    branch: int
    u_minus: float
    u_plus: float
    tail_peak: complex


def case3_path_limits(theta: float, y_mod: float, branch: int) -> CasePathLimits:
    """Finite u-limits of branch 1 or 2 in the two-saddle sector.

    Along each steepest-descent segment the scaled displacement u runs
    from the inter-saddle corner to the junction with the original
    half-line; both endpoints grow like |y|^(2/3).
    """
    if abs(theta) > _PI / 8.0:
        raise ValueError(
            f"two-saddle limits defined for |theta| <= pi/8, got theta={theta}")
    if y_mod <= 0:
        raise ValueError(f"need y_mod > 0, got {y_mod}")
    u, t2, corner, t1, w = saddle_path(theta).vertices
    scale = y_mod ** (2.0 / 3.0)
    if branch == 1:
        return CasePathLimits(
            branch=1,
            u_minus=-abs(corner - t1) * scale,
            u_plus=abs(w - t1) * scale,
            tail_peak=w)
    if branch == 2:
        return CasePathLimits(
            branch=2,
            u_minus=-abs(u - t2) * scale,
            u_plus=abs(corner - t2) * scale,
            tail_peak=u)
    raise ValueError(f"branch must be 1 or 2, got {branch}")
