"""Quadrature oracles for the Pearcey integral.

Two independent strategies evaluate

    P(x, y) = integral_0^inf exp(-t^4 - x t^2) cos(y t) dt

exactly (up to quadrature error), with no asymptotic content:

* ``REAL_AXIS`` sums the convergent series of DLMF 36.8,

      P(x, y) = sum_k (-1)^k y^(2k) / (2k)! M_k(x),
      M_k(x) = integral_0^inf t^(2k) exp(-t^4 - x t^2) dt,

  at arbitrary precision.  The oscillating cos(y t) leaves the
  integrals: M_0 and M_1 are two smooth real-axis integrals (trapezoid
  in mpmath, on the axis cut off where the envelope has fallen below
  the working precision), and 4 M_{k+2} = (2k+1) M_k - 2x M_{k+1} gives
  the rest, summed in fixed-point integer arithmetic.  The seeds run at
  the working precision plus the digits they cancel below the envelope's
  peak: min(Re(x)^2, Im(x)^2) / (4 ln 10) at Re x < 0, none otherwise.
  The terms can exceed |P| by many digits, so the series is summed
  twice from the same seeds, at the working precision and a guard of
  digits above it, and once more at the guard from seeds moved apart by
  their own error; the difference of the first two sums plus the shift
  of the third is the error.  While it misses ``rel_tol`` the precision
  rises by the digits the sum lost to cancellation, and at least
  doubles, starting from ``working_precision_digits``.  Capped precision
  levels, terms, quadrature degree and seed cancellation turn an input
  the series cannot reach (large positive Re x, where the recurrence
  amplifies rounding, very large |Im x|, or Re x < -48 with
  |Im x| > 48) into ``ConvergenceError``.  130 to 772 integrand
  evaluations (one or two levels) and 0.003 to 0.03 s per paper-table
  point at 50 digits on a 2-core x86 host, about 85% of it in the seed
  integrals; the ground truth of last resort.

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
import functools
import math
from dataclasses import dataclass

REAL_AXIS = "real-axis"
CONTOUR = "contour"

_PI = math.pi
_TAIL_DROP = 48.0  # e-folds below the line's peak at which it is cut off
_HALVINGS = 10  # contour trapezoid halvings from 16 intervals (16,385 nodes)
_GUARD = 10  # digits between the two sums of a real-axis precision level
_MAX_LEVELS = 5  # real-axis precision levels per call
_MAX_TERMS = 10_000  # terms per real-axis sum
_FIXED_GUARD = 20  # bits the fixed-point y-series carries beyond the precision
_MAX_DEGREE = 15  # trapezoid degree of the seed integrals (131,073 nodes)
_MAX_CANCEL = 250  # digits the real-axis seed integrals may cancel


class ConvergenceError(RuntimeError):
    """Quadrature failed its tolerance or left double range; carries the
    estimate and its error (NaN and inf when no pass was made)."""

    def __init__(self, message: str, estimate: complex, achieved_error: float):
        super().__init__(message)
        self.estimate = estimate
        self.achieved_error = achieved_error


@dataclass(frozen=True)
class QuadratureConfig:
    """Oracle settings.  ``working_precision_digits`` is REAL_AXIS's
    starting precision, which it raises until its error is within
    rel_tol * |P|.  Both strategies accept a result only when its error is
    at most rel_tol * |P|, however small |P| is.
    """

    strategy: str = CONTOUR
    working_precision_digits: int = 50
    rel_tol: float = 1e-12

    def __post_init__(self):
        if self.strategy not in (REAL_AXIS, CONTOUR):
            raise ValueError(
                f"strategy must be {REAL_AXIS!r} or {CONTOUR!r}, "
                f"got {self.strategy!r}")
        if (not isinstance(self.working_precision_digits, int)
                or self.working_precision_digits < 16):
            raise ValueError("working_precision_digits must be an int >= 16, "
                             f"got {self.working_precision_digits!r}")
        if not 0 < self.rel_tol < math.inf:
            raise ValueError("tolerances must be positive and finite, got "
                             f"rel_tol={self.rel_tol}")


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

    digits = config.working_precision_digits
    for _ in range(_MAX_LEVELS):
        with mp.workdps(digits + _GUARD):
            # a real x keeps the seed integrals' arithmetic real, which is
            # cheaper
            xm = mp.mpc(x) if x.imag else mp.mpf(x.real)
            y2 = mp.mpc(y) ** 2
            m0, m1, seed_err, log_peak = _seed_moments(mp, xm, digits)
            # about |y|^(4/3) + digits terms reach the precision (at most
            # 1.5 times that out to x = -52 and |y| = 100); the rest of the
            # allowance lets the recurrence's rounding noise at large
            # positive Re x die out
            terms = int(min(_MAX_TERMS,
                            8 * mp.mpf(abs(y)) ** (4 / 3) + 8 * digits + 100))
            fine, largest = _y_series(mp, xm, y2, m0, m1, terms)
            with mp.workdps(digits):
                coarse, _ = _y_series(mp, xm, y2, m0, m1, terms)
            # The seeds hold about `digits` digits, and the recurrence can
            # amplify their error far beyond the largest term: seeds moved
            # apart by that error excite its growing solution, and the
            # sum's shift is the seeds' share of the error.
            eps = max(seed_err, mp.mpf(10) ** -digits)
            moved, _ = _y_series(mp, xm, y2, m0 * (1 + eps), m1 * (1 - eps),
                                 terms)
            gap = abs(fine - coarse) + abs(moved - fine)
            scale = mp.exp(log_peak)
            value, err = complex(fine * scale), float(gap * scale)
            if gap <= config.rel_tol * abs(fine):
                return _accepted(REAL_AXIS, value, err, config)
            lost = mp.log10(largest / abs(fine)) if fine else digits + _GUARD
        # Rounding noise from the recurrence (large positive Re x) adds to
        # the sum without cancelling, so the lost digits can read 0: the
        # precision at least doubles.
        digits += max(int(mp.ceil(lost)), digits)
    raise ConvergenceError(
        f"{REAL_AXIS} series stalled at error {err:.3e} after {_MAX_LEVELS} "
        "precision levels", estimate=value, achieved_error=err)


def _seed_moments(mp, x, digits: int):
    """M_0 and M_1 of exp(-t^4 - x t^2) over t >= 0 to about ``digits``
    digits, both divided by the envelope's peak exp(log_peak); the larger
    of their relative error estimates; and log_peak.

    At Re x < 0 the integrals cancel below that peak, exp(Re(x)^2 / 4):
    the saddle t^2 = -x/2 lies Im(x)^2 / 4 e-folds under it and the end
    t = 0 Re(x)^2 / 4 (DLMF 36.8).  The smaller of the two is lost, so the
    integrals run at that many digits more, and are refused before
    integrating beyond ``_MAX_CANCEL`` of them.  The axis is cut off at
    t = c, where the envelope exp(-t^4 - Re(x) t^2) has fallen
    10^-(dps + 5) below its peak, and integrated over u in [0, 1] with
    t = c u by the trapezoid rule: the integrand is even about u = 0 and
    negligible at u = 1, where the rule converges geometrically, and one
    fixed interval lets every call share the rule's nodes.  Both
    integrals share the exponential at each node.
    """
    a = float(x.real)
    cancel = (math.ceil(min(a * a, float(x.imag) ** 2) / (4 * math.log(10)))
              if a < 0 else 0)
    if cancel > _MAX_CANCEL:
        raise ConvergenceError(
            f"{REAL_AXIS} seed integrals cancel {cancel} digits, more than "
            f"{_MAX_CANCEL}", estimate=complex(math.nan, math.nan),
            achieved_error=math.inf)
    digits += cancel
    drop = (digits + 5) * math.log(10)
    with mp.workdps(digits):
        if a < 0:
            log_peak = mp.mpf(a) ** 2 / 4  # at t^2 = -a/2
            s = mp.mpf(-a / 2 + math.sqrt(drop))
        else:
            log_peak = mp.mpf(0)
            # the positive root of s^2 + a s = drop, stable at large a
            s = mp.mpf(2 * drop / (a + math.hypot(a, 2 * math.sqrt(drop))))
        # the phase Im(x) s u^2 turns Im(x) s radians over [0, 1]: refuse
        # unless the top degree puts at least four nodes on each radian
        # where it turns fastest, at u = 1
        turns = abs(float(x.imag)) * float(s)
        if 1 + turns > 2 ** (_MAX_DEGREE - 1):
            raise ConvergenceError(
                f"{REAL_AXIS} seed integrals turn {turns:.3g} radians, more "
                f"than trapezoid degree {_MAX_DEGREE} resolves",
                estimate=complex(math.nan, math.nan), achieved_error=math.inf)
        exps = {}

        def envelope(u):
            e = exps.get(u)
            if e is None:
                t2 = s * u * u
                e = exps[u] = mp.exp(-t2 * t2 - x * t2 - log_peak)
            return e

        rule = _trapezoid_rule()
        i0, e0 = mp.quad(envelope, [0, 1], method=rule, error=True,
                         maxdegree=_MAX_DEGREE)
        i1, e1 = mp.quad(lambda u: u * u * envelope(u), [0, 1], method=rule,
                         error=True, maxdegree=_MAX_DEGREE)
        c = mp.sqrt(s)
        return c * i0, c * s * i1, max(e0 / abs(i0), e1 / abs(i1)), log_peak


@functools.cache
def _trapezoid_rule():
    """The trapezoid rule on [0, 1] as an ``mpmath.quad`` method.

    Degree d has 2^(d + 2) intervals: each degree halves the step, adds
    only the new midpoints and reuses the previous sum.  The nodes are
    dyadic fractions, exact at every precision, so ``nodes`` keeps them
    per degree for all calls, at most 2^(_MAX_DEGREE + 2) + 1 in all.
    mpmath's error estimate assumes each degree doubles the digits, as
    the rule does on an integrand even about u = 0 and negligible at
    u = 1 (Trefethen & Weideman, SIAM Rev. 56, 2014).
    """
    from mpmath.calculus.quadrature import QuadratureRule

    class Trapezoid(QuadratureRule):
        nodes = {}  # degree -> [(u, weight)]

        def get_nodes(self, a, b, degree, prec, verbose=False):
            nodes = self.nodes.get(degree)
            if nodes is None:
                ldexp, n = self.ctx.ldexp, 2 ** (degree + 2)
                h = ldexp(1, -degree - 2)
                new = range(n + 1) if degree == 1 else range(1, n, 2)
                nodes = self.nodes[degree] = [
                    (ldexp(j, -degree - 2), h / 2 if j in (0, n) else h)
                    for j in new]
            return nodes

        def sum_next(self, f, nodes, degree, prec, previous, verbose=False):
            total = self.ctx.fdot((w, f(u)) for u, w in nodes)
            return total + previous[-1] / 2 if previous else total

    return Trapezoid


def _y_series(mp, x, y2, m0, m1, terms: int):
    """sum_k (-y^2)^k / (2k)! M_k at the working precision, and its largest
    term's modulus.

    M_k follows from 4 M_{k+2} = (2k+1) M_k - 2x M_{k+1}, so the terms
    T_k = (-y^2)^k / (2k)! M_k themselves follow

        T_{k+2} = (a T_k + (2k+2) b T_{k+1}) / ((2k+2)(2k+3)(2k+4)),

    a = y^4 / 4, b = x y^2 / 2.  They are summed in fixed point, as
    Python integers in units of 2^-sh, which costs a few integer products
    per term where mpc arithmetic costs about ten mpmath operations.  sh
    puts the larger of T_0 and T_1 wp = prec + _FIXED_GUARD bits above
    one unit, and T_1, a and b are rounded to wp bits, so every term is
    resolved at least that finely relative to the largest: the
    recurrence can amplify a rounding of the starting values by millions
    (at x = 1, y = 100).  Once the largest term holds more than 2 wp bits
    (the recurrence's growing noise at large positive Re x), the units
    are coarsened to 2^-wp of it, which keeps the integers short.  The
    sum stops after two successive terms below 10^-dps of the largest,
    an exact test on the integers.
    """
    wp = mp.mp.prec + _FIXED_GUARD

    def fixed(z, bits):
        return [mp.libmp.to_fixed(part, bits) for part in mp.mpc(z)._mpc_]

    with mp.workprec(wp):
        t1 = -y2 * m1 / 2
        sh = wp - max(mp.mag(m0), mp.mag(t1))
        t0r, t0i = fixed(m0, sh)
        t1r, t1i = fixed(t1, sh)
        ar, ai = fixed(y2 * y2 / 4, wp)
        br, bi = fixed(x * y2 / 2, wp)
    cutoff_sq = 10 ** (2 * mp.mp.dps)  # |T| <= 10^-dps largest, squared
    total_r = total_i = largest_sq = 0
    below = 0
    for k in range(terms):
        total_r += t0r
        total_i += t0i
        size_sq = t0r * t0r + t0i * t0i
        if size_sq > largest_sq:
            largest_sq = size_sq
            below = 0
            drop = (size_sq.bit_length() >> 1) - wp
            if drop > wp:
                t0r, t0i, t1r, t1i = (t0r >> drop, t0i >> drop, t1r >> drop,
                                      t1i >> drop)
                total_r, total_i = total_r >> drop, total_i >> drop
                largest_sq >>= 2 * drop
                sh -= drop
        elif size_sq * cutoff_sq <= largest_sq:
            below += 1
            if below == 2:
                return (mp.mpc(mp.mpf((total_r, -sh)),
                               mp.mpf((total_i, -sh))),
                        mp.sqrt(mp.mpf((largest_sq, -2 * sh))))
        else:
            below = 0
        n = 2 * k + 2
        d = n * (n + 1) * (n + 2)
        btr = t1r * br - t1i * bi
        bti = t1r * bi + t1i * br
        t0r, t0i, t1r, t1i = t1r, t1i, (
            ((ar * t0r - ai * t0i + n * btr) >> wp) // d), (
            ((ar * t0i + ai * t0r + n * bti) >> wp) // d)
    raise ConvergenceError(
        f"{REAL_AXIS} series needs more than {terms} terms",
        estimate=complex(math.nan, math.nan), achieved_error=math.inf)


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
    total, err = quad(integrand, lo, hi, epsrel, _HALVINGS)

    try:
        scale = 0.5 * math.exp(peak)
    except OverflowError:
        scale = math.inf  # refused below as out of double range
    # part by part: a complex product would turn a zero part times inf
    # into NaN
    value = complex(total.real * scale if total.real else 0.0,
                    total.imag * scale if total.imag else 0.0)
    return _accepted(CONTOUR, value, err * scale, config)


def _accepted(strategy: str, value: complex, err: float,
              config: QuadratureConfig) -> complex:
    """Both oracles' rule: return a nonzero finite ``value`` within tolerance."""
    if value == 0 or not cmath.isfinite(value):
        side = "underflows" if value == 0 else "exceeds"
        raise ConvergenceError(
            f"{strategy} quadrature result {side} double-precision range",
            estimate=value, achieved_error=err)
    if err > config.rel_tol * abs(value):
        raise ConvergenceError(
            f"{strategy} quadrature stalled at error {err:.3e}",
            estimate=value, achieved_error=err)
    return value
