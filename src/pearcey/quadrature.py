"""Quadrature oracles for the Pearcey integral.

Two independent strategies evaluate

    P(x, y) = integral_0^inf exp(-t^4 - x t^2) cos(y t) dt

exactly (up to quadrature error), with no asymptotic content:

* ``REAL_AXIS`` integrates the definition as written, in mpmath
  arbitrary-precision arithmetic.  The integrand oscillates and the
  result can be exponentially smaller than the integrand peak, so the
  working precision buys back the digits that cancellation destroys.
  Slow and certain; the ground truth of last resort.

* ``CONTOUR`` rewrites P as a half-plane integral and bends the path
  through the saddle points of the exponent.  On the bent path the
  integrand modulus peaks at the dominant saddle and decays on both
  sides, so double precision suffices and the cost is milliseconds.
  The bend is the finite polyline of ``geometry.saddle_path``; both ends
  return to the directions of the original contour, which keeps the
  deformation exact for every argument of y.

Both strategies accept any complex x and y (evenness in y is applied
internally).  ``relative_error`` is the shared comparison metric, and
``pearcey_bar`` exposes the rotated variant that the oscillatory
canonical form reduces to.
"""

from __future__ import annotations

import cmath
import math
import warnings as _warnings
from dataclasses import dataclass

import mpmath as mp
from scipy.integrate import IntegrationWarning, quad

from .geometry import saddle_path

REAL_AXIS = "real-axis"
CONTOUR = "contour"

_PI = math.pi
_TAIL_DROP = 48.0              # e-folds below peak at which rays are truncated
_SCAN_POINTS = 32


class ConvergenceError(RuntimeError):
    """Quadrature failed its tolerance; carries the best estimate seen."""

    def __init__(self, message: str, estimate: complex, achieved_error: float):
        super().__init__(message)
        self.estimate = estimate
        self.achieved_error = achieved_error


@dataclass(frozen=True)
class QuadratureConfig:
    strategy: str = CONTOUR
    working_precision_digits: int = 50
    abs_tol: float = 1e-30
    rel_tol: float = 1e-12
    max_subdivisions: int = 6

    def __post_init__(self):
        if self.strategy not in (REAL_AXIS, CONTOUR):
            raise ValueError(
                f"strategy must be {REAL_AXIS!r} or {CONTOUR!r}, "
                f"got {self.strategy!r}")
        if self.working_precision_digits < 16:
            raise ValueError("working_precision_digits must be >= 16, "
                             f"got {self.working_precision_digits}")
        if not self.abs_tol > 0 or not self.rel_tol > 0:
            raise ValueError("tolerances must be positive, got "
                             f"abs_tol={self.abs_tol}, rel_tol={self.rel_tol}")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1, "
                             f"got {self.max_subdivisions}")


_DEFAULT_CONFIG = QuadratureConfig()


def pearcey_quadrature(x: complex, y: complex,
                       config: QuadratureConfig | None = None) -> complex:
    """Evaluate P(x, y) by direct numerical integration."""
    if config is None:
        config = _DEFAULT_CONFIG
    x = complex(x)
    y = complex(y)
    if not (cmath.isfinite(x) and cmath.isfinite(y)):
        raise ValueError(f"x and y must be finite, got x={x!r}, y={y!r}")
    if config.strategy == REAL_AXIS:
        return _real_axis_value(x, y, config)
    return _contour_value(x, y, config)


def pearcey_bar(x: complex, y: complex,
                config: QuadratureConfig | None = None) -> complex:
    """Rotated variant: the oscillatory canonical integral

        integral_{-inf}^{inf} exp(i (t^4 + x t^2 + y t)) dt

    expressed through P by rotating the contour onto the decaying axis.
    """
    rot = 2.0 * cmath.exp(1j * _PI / 8.0)
    return rot * pearcey_quadrature(complex(x) * cmath.exp(-1j * _PI / 4.0),
                                    complex(y) * cmath.exp(1j * _PI / 8.0),
                                    config)


def relative_error(approx: complex, reference: complex) -> float:
    """|approx - reference| / |reference| in the complex modulus."""
    if reference == 0:
        raise ValueError("relative error undefined against a zero reference")
    return abs(complex(approx) - complex(reference)) / abs(complex(reference))


def _real_axis_value(x: complex, y: complex, config: QuadratureConfig) -> complex:
    with mp.workdps(config.working_precision_digits):
        xm = mp.mpc(x)
        ym = mp.mpc(y)
        ax = abs(xm)
        ay = abs(mp.im(ym))
        # Truncate where the integrand envelope falls below abs_tol * e^-5.
        target = mp.log(mp.mpf(config.abs_tol)) - 5

        def envelope_gap(t):
            return -t ** 4 + ax * t * t + ay * t - target

        hi = mp.mpf(1)
        while envelope_gap(hi) > 0:
            hi *= 2
        lo = mp.mpf(0)
        for _ in range(120):
            mid = (lo + hi) / 2
            if envelope_gap(mid) > 0:
                lo = mid
            else:
                hi = mid
        trunc = hi

        width = min(mp.mpf("0.25"), mp.pi / (4 * (1 + abs(ym))))
        panels = max(1, int(mp.ceil(trunc / width)))

        def integrand(t):
            return mp.exp(-t ** 4 - xm * t * t) * mp.cos(ym * t)

        best = None
        best_err = mp.inf
        for _ in range(config.max_subdivisions):
            points = [trunc * k / panels for k in range(panels + 1)]
            value, err = mp.quad(integrand, points, error=True)
            if err < best_err:
                best, best_err = value, err
            if best_err <= max(mp.mpf(config.abs_tol),
                               mp.mpf(config.rel_tol) * abs(best)):
                return complex(best)
            panels *= 2
        raise ConvergenceError(
            f"real-axis quadrature stalled at error {float(best_err):.3e} "
            f"after {config.max_subdivisions} refinements",
            estimate=complex(best), achieved_error=float(best_err))


def _contour_polyline(x: complex, y: complex):
    """Finite vertices plus outgoing ray directions of the bent contour.

    The path is ``geometry.saddle_path`` scaled by y^(1/3).  A tent's ends
    leave along the original real direction; a single saddle line leaves
    along its own direction, both ways.
    """
    if y == 0:
        return [complex(0)], complex(-1), complex(1)
    path = saddle_path(cmath.phase(y))
    y13 = cmath.exp(cmath.log(y) / 3.0)
    verts = [y13 * t for t in path.vertices]
    if path.direction is None:
        return verts, complex(-1), complex(1)
    direction = y13 * path.direction
    direction /= abs(direction)
    return verts, -direction, direction


def _contour_value(x: complex, y: complex, config: QuadratureConfig) -> complex:
    # The flip stays here rather than in a shared helper: the contour must
    # accept y = 0, which the expansion's normalisation rejects.
    if y.real < 0:
        y = -y  # evenness of P in y

    def exponent(u: complex) -> complex:
        return -u ** 4 - x * u * u + 1j * y * u

    def scan_peak(peak: float, points: list[complex]) -> float:
        """``peak`` raised to Re exponent at the interior scan points of each segment."""
        for a, b in zip(points, points[1:]):
            step = (b - a) / _SCAN_POINTS
            for k in range(1, _SCAN_POINTS):
                peak = max(peak, exponent(a + step * k).real)
        return peak

    verts, ray_left, ray_right = _contour_polyline(x, y)
    peak = scan_peak(max(exponent(v).real for v in verts), verts)

    def truncate(start: complex, direction: complex) -> complex:
        length = 1.0
        while (exponent(start + length * direction).real > peak - _TAIL_DROP
               and length < 1e4):
            length *= 1.5
        return start + length * direction

    left = truncate(verts[0], ray_left)
    right = truncate(verts[-1], ray_right)
    # rescan the two tails, which can pass levels the coarse vertex scan
    # missed; the inner segments' scan points are unchanged
    peak = scan_peak(peak, [left, verts[0]])
    peak = scan_peak(peak, [verts[-1], right])
    path = [left] + verts + [right]

    epsrel = max(1e-13, config.rel_tol / 10.0)
    limit = 50 * config.max_subdivisions
    total = complex(0)
    err_sum = 0.0
    with _warnings.catch_warnings():
        # the explicit tolerance check below replaces scipy's advisory
        _warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in zip(path, path[1:]):
            jac = b - a

            def segment(s: float, a=a, jac=jac) -> complex:
                return cmath.exp(exponent(a + s * jac) - peak) * jac

            value, err = quad(segment, 0.0, 1.0, complex_func=True,
                              epsabs=1e-15, epsrel=epsrel, limit=limit)
            total += value
            err_sum += abs(err)

    try:
        scale = 0.5 * math.exp(peak)
        result = total * scale
        achieved = err_sum * scale
    except OverflowError:
        raise ConvergenceError(
            "contour quadrature result exceeds double-precision range",
            estimate=complex(math.inf, math.inf),
            achieved_error=math.inf) from None

    if achieved > max(config.abs_tol, config.rel_tol * abs(result)):
        raise ConvergenceError(
            f"contour quadrature stalled at error {achieved:.3e}",
            estimate=result, achieved_error=achieved)
    return result
