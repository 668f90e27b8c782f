"""Quadrature oracles for the Pearcey integral.

Two independent strategies evaluate

    P(x, y) = integral_0^inf exp(-t^4 - x t^2) cos(y t) dt

exactly (up to quadrature error), with no asymptotic content:

* ``REAL_AXIS`` integrates the definition as written, in mpmath
  arbitrary-precision arithmetic.  The integrand oscillates and the
  result can be exponentially smaller than the integrand peak, so the
  working precision buys back the digits that cancellation destroys.
  It cuts the axis off where the integrand's envelope drops below the
  absolute tolerance and sums Gauss-Legendre panels a fraction of an
  oscillation wide in one pass: mpmath raises the degree on each panel
  until it converges at the working precision, so a pass that misses the
  tolerance has hit that precision's floor and is not refined.  Slow and
  certain (about 5000 integrand evaluations and 0.1 to 1 s per
  paper-table point at 50 digits); the ground truth of last resort.

* ``CONTOUR`` writes P as half the integral of exp(-t^4 - x t^2 + i y t)
  over the whole real line and moves that line up or down to Im t = c.
  The integrand is entire and decays like exp(-s^4) along every
  horizontal line, so by Cauchy the value does not change (DLMF 36.15
  deforms the Pearcey contour the same way).  Of the lines through the
  three saddles of the exponent, the roots of 4t^3 + 2xt - iy, it takes
  the one whose integrand modulus peaks lowest, which keeps the
  cancellation to a few digits, so double precision suffices.  On that
  line the trapezoid rule converges geometrically; halving its step until
  two estimates agree takes a median of 65 nodes and about 0.3 ms per
  point on a 2-core x86 host.

Both strategies accept any finite complex x and y (evenness in y is
applied internally) and share one acceptance rule: a result that misses
the tolerance, or that overflows or underflows double precision, raises
``ConvergenceError`` rather than coming back as a wrong value, inf or 0.
``relative_error`` is the shared comparison metric, and ``pearcey_bar``
exposes the rotated variant that the oscillatory canonical form reduces
to.

Neither backend is imported with this module: the contour imports numpy
on its first call and REAL_AXIS imports mpmath on its first call, so
``import pearcey`` and the expansion load neither library.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

REAL_AXIS = "real-axis"
CONTOUR = "contour"

_PI = math.pi
_TAIL_DROP = 48.0  # e-folds below the line's peak at which it is cut off
_MAX_PANELS = 100_000  # real-axis panels per pass; the panel list is built whole


class ConvergenceError(RuntimeError):
    """Quadrature failed its tolerance or left double range; carries the
    estimate and its error (NaN and inf when no pass was made)."""

    def __init__(self, message: str, estimate: complex, achieved_error: float):
        super().__init__(message)
        self.estimate = estimate
        self.achieved_error = achieved_error


@dataclass(frozen=True)
class QuadratureConfig:
    """Oracle settings.  ``working_precision_digits`` is read by REAL_AXIS
    only and ``max_subdivisions`` by the contour only; both strategies
    accept a result when its error is at most max(abs_tol, rel_tol * |P|).
    """

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
        if (not isinstance(self.working_precision_digits, int)
                or self.working_precision_digits < 16):
            raise ValueError("working_precision_digits must be an int >= 16, "
                             f"got {self.working_precision_digits!r}")
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be positive and finite, got "
                             f"abs_tol={self.abs_tol}, rel_tol={self.rel_tol}")
        if (not isinstance(self.max_subdivisions, int)
                or self.max_subdivisions < 1):
            raise ValueError("max_subdivisions must be an int >= 1, "
                             f"got {self.max_subdivisions!r}")


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
    import mpmath as mp

    with mp.workdps(config.working_precision_digits):
        xm = mp.mpc(x)
        ym = mp.mpc(y)
        ax = abs(xm)
        ay = abs(mp.im(ym))
        # Truncate where the integrand envelope falls below abs_tol * e^-5:
        # the one positive root of the envelope gap (Descartes), bracketed
        # by Fujiwara's bound on the roots of a quartic.
        target = mp.log(mp.mpf(config.abs_tol)) - 5
        bound = 2 * max(mp.sqrt(ax), mp.cbrt(ay), mp.root(abs(target) / 2, 4))
        trunc = mp.findroot(lambda t: -t ** 4 + ax * t * t + ay * t - target,
                            (0, bound), solver="bisect", verify=False)

        width = min(mp.mpf("0.25"), mp.pi / (4 * (1 + abs(ym))))
        panels = max(1, int(mp.ceil(trunc / width)))
        if panels > _MAX_PANELS:
            raise ConvergenceError(
                f"real-axis quadrature needs {panels} panels, more than "
                f"{_MAX_PANELS}", estimate=complex(math.nan, math.nan),
                achieved_error=math.inf)

        def integrand(t):
            return mp.exp(-t ** 4 - xm * t * t) * mp.cos(ym * t)

        # Gauss-Legendre raises its degree on each panel until the panel
        # converges at the working precision, so one pass already reaches
        # the precision floor; more panels would only add rounding.
        points = [trunc * k / panels for k in range(panels + 1)]
        value, err = mp.quad(integrand, points, method="gauss-legendre",
                             error=True)
    return _accepted(REAL_AXIS, complex(value), float(err), config)


def _line_profile(x: complex, y: complex, c: float):
    """Re of the exponent along t = s + ic as a real quartic in s, and its peak.

    The quartic has leading coefficient -1, so its largest value at the real
    parts of its critical points is its maximum over the real line.
    """
    import numpy as np

    profile = np.array([-1.0, 0.0, 6.0 * c * c - x.real,
                        2.0 * c * x.imag - y.imag,
                        c * c * (x.real - c * c) - c * y.real])
    critical = np.roots(np.polyder(profile)).real
    return profile, float(np.polyval(profile, critical).max())


def quad(integrand, lo: float, hi: float, epsrel: float,
         levels: int) -> tuple[complex, float]:
    """Trapezoid rule for a vectorised ``integrand`` on [lo, hi].

    Starts from 16 intervals and halves the step, at most ``levels`` times,
    until two successive estimates differ by at most ``epsrel`` times the
    latest; returns that estimate and the difference as its error.  On an
    entire integrand that has decayed to nothing at both ends the rule
    converges geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014).
    """
    import numpy as np

    n = 16
    h = (hi - lo) / n
    f = integrand(lo + h * np.arange(n + 1))
    total = h * (f.sum() - 0.5 * (f[0] + f[-1]))
    err = math.inf
    for _ in range(levels):
        h *= 0.5
        midpoints = lo + h * np.arange(1, 2 * n, 2)
        refined = 0.5 * total + h * integrand(midpoints).sum()
        n *= 2
        err = abs(refined - total)
        total = refined
        if err <= epsrel * abs(total):
            break
    return complex(total), err


def _contour_value(x: complex, y: complex, config: QuadratureConfig) -> complex:
    import numpy as np

    # The flip stays here rather than in a shared helper: the contour must
    # accept y = 0, which the expansion's normalisation rejects.
    if y.real < 0:
        y = -y  # evenness of P in y

    # Of the horizontal lines through the saddles (the roots of the
    # exponent's derivative), the one with the lowest integrand peak loses
    # the fewest digits to cancellation.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            lines = [(c, *_line_profile(x, y, c)) for c in
                     np.roots([4.0, 0.0, 2.0 * x, -1j * y]).imag.tolist()]
            c, profile, peak = min(lines, key=lambda line: line[2])
            ends = np.roots(profile - [0.0, 0.0, 0.0, 0.0, peak - _TAIL_DROP])
        except np.linalg.LinAlgError:
            # a coefficient or the peak overflowed, and np.roots rejects it
            ends = np.empty(0)
    ends = ends.real[ends.imag == 0]
    lo, hi = ends.min(initial=math.inf), ends.max(initial=-math.inf)
    if not lo < hi:
        # the quartic's scale swamps the tail drop in double precision
        raise ConvergenceError(
            "contour quadrature exponent exceeds double-precision range",
            estimate=complex(math.nan, math.nan), achieved_error=math.inf)

    def integrand(s):
        u = s + 1j * c
        u2 = u * u
        return np.exp(-u2 * u2 - x * u2 + 1j * y * u - peak)

    # relative only: the scaled integral falls like sqrt(pi/x) at large x
    epsrel = max(1e-13, config.rel_tol / 10.0)
    total, err = quad(integrand, lo, hi, epsrel, 4 + config.max_subdivisions)

    try:
        scale = 0.5 * math.exp(peak)
    except OverflowError:
        scale = math.inf  # refused below as out of double range
    return _accepted(CONTOUR, total * scale, err * scale, config)


def _accepted(strategy: str, value: complex, err: float,
              config: QuadratureConfig) -> complex:
    """Both oracles' rule: return a nonzero finite ``value`` within tolerance."""
    if value == 0 or not cmath.isfinite(value):
        side = "underflows" if value == 0 else "exceeds"
        raise ConvergenceError(
            f"{strategy} quadrature result {side} double-precision range",
            estimate=value, achieved_error=err)
    if err > max(config.abs_tol, config.rel_tol * abs(value)):
        raise ConvergenceError(
            f"{strategy} quadrature stalled at error {err:.3e}",
            estimate=value, achieved_error=err)
    return value
