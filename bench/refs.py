"""Reference values of the Pearcey integral, independent of the package.

    P(x, y) = integral_0^inf exp(-t^4 - x t^2) cos(y t) dt
            = 1/2 integral_{-inf}^{inf} exp(phi(t)) dt,
    phi(t)  = -t^4 - x t^2 + i y t.

The integrand is entire and decays like exp(-s^4) in every horizontal
strip, so the integral may be taken along any line Im t = c.  The line is
chosen to minimise the peak of Re phi on it, which puts it through (or
between) the saddles that carry the value and leaves almost no
cancellation.  On that line the integrand is analytic and decays
super-exponentially, so the trapezoidal rule converges geometrically
(Trefethen & Weideman, SIAM Rev. 56, 2014); it is run in mpmath
arithmetic, halving the step until two estimates agree to two digits
beyond the requested precision.  If the value turns out to be much
smaller than the integrand peak, the working precision is raised by the
digits that cancellation cost and the sum is repeated.

Nothing here imports ``pearcey``: the check stays independent when a
change rewrites either of the package's oracles.

Values are cached on disk, keyed by the input and the requested digits,
so only inputs not seen before pay for the integration.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import mpmath as mp
import numpy as np

DIGITS = 16
_MAX_POINTS = 1 << 16


def _line_quartic(x: complex, y: complex, c: float) -> np.ndarray:
    """Coefficients of Re phi(s + i c) as a real quartic in s."""
    return np.array([-1.0, 0.0, 6.0 * c * c - x.real,
                     2.0 * x.imag * c - y.imag,
                     -c ** 4 + x.real * c * c - y.real * c])


def _peak(quartic: np.ndarray) -> float:
    roots = np.roots(np.polyder(quartic))
    real = roots[np.abs(roots.imag) < 1e-9].real
    return float(np.max(np.polyval(quartic, real)))


def _best_line(x: complex, y: complex) -> tuple[float, float]:
    """Height c minimising max_s Re phi(s + i c), and that peak."""
    span = 2.0 + abs(y) ** (1.0 / 3.0) + math.sqrt(abs(x))
    heights = np.linspace(-span, span, 161)
    s = np.linspace(-2.0 * span, 2.0 * span, 2001)
    quartics = np.array([_line_quartic(x, y, c) for c in heights])
    grid = np.polynomial.polynomial.polyval(s, quartics[:, ::-1].T)
    i = int(np.argmin(grid.max(axis=1)))
    lo, hi = heights[max(i - 1, 0)], heights[min(i + 1, len(heights) - 1)]
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(40):
        a = hi - golden * (hi - lo)
        b = lo + golden * (hi - lo)
        if _peak(_line_quartic(x, y, a)) < _peak(_line_quartic(x, y, b)):
            hi = b
        else:
            lo = a
    c = 0.5 * (lo + hi)
    return c, _peak(_line_quartic(x, y, c))


def _trapezoid(x: complex, y: complex, c: float, top: float, dps: int,
               digits: int):
    """1/2 the line integral, scaled by exp(-top), at ``dps`` digits."""
    quartic = _line_quartic(x, y, c)
    quartic[-1] -= top - (dps + 3) * math.log(10.0)
    ends = np.roots(quartic)
    ends = ends[np.abs(ends.imag) < 1e-9].real
    with mp.workdps(dps):
        xm, ym = mp.mpc(x), mp.mpc(y)
        shift = mp.mpc(0, c)
        level = mp.mpf(top)

        def f(s):
            t = s + shift
            t2 = t * t
            return mp.exp(-t2 * t2 - xm * t2 + 1j * ym * t - level)

        a, b = mp.mpf(float(ends.min())), mp.mpf(float(ends.max()))
        n = 32
        h = (b - a) / n
        total = mp.fsum(f(a + k * h) for k in range(1, n))
        estimate = total * h
        tol = mp.mpf(10) ** (-digits - 2)
        while True:
            total += mp.fsum(f(a + (2 * k + 1) * h / 2) for k in range(n))
            n *= 2
            h /= 2
            refined = total * h
            if abs(refined - estimate) <= tol * abs(refined):
                return refined / 2
            if n >= _MAX_POINTS:
                raise ArithmeticError(
                    f"reference trapezoid did not converge at x={x}, y={y}")
            estimate = refined


def pearcey_reference(x: complex, y: complex, digits: int = DIGITS) -> complex:
    """P(x, y) to about ``digits`` significant digits, from the definition."""
    x, y = complex(x), complex(y)
    c, top = _best_line(x, y)
    dps = digits + 8
    for _ in range(3):
        scaled = _trapezoid(x, y, c, top, dps, digits)
        with mp.workdps(dps):
            lost = max(0.0, -float(mp.log10(abs(scaled)))) if scaled else dps
            if dps - lost >= digits + 6:
                return complex(scaled * mp.exp(top))
        dps = int(digits + lost + 8)
    raise ArithmeticError(
        f"reference lost too many digits to cancellation at x={x}, y={y}")


class ReferenceCache:
    """On-disk cache of ``pearcey_reference`` values, keyed by input."""

    def __init__(self, path: Path, digits: int = DIGITS):
        self.path = path
        self.digits = digits
        self.computed = 0
        self._values: dict | None = None  # read on first use

    def _load(self) -> dict:
        if self._values is None:
            try:
                self._values = json.loads(self.path.read_text())
            except (OSError, ValueError):
                self._values = {}
        return self._values

    def _key(self, x: complex, y: complex) -> str:
        return f"{x.real!r},{x.imag!r},{y.real!r},{y.imag!r},{self.digits}"

    def get(self, x: complex, y: complex) -> complex:
        x, y = complex(x), complex(y)
        key = self._key(x, y)
        values = self._load()
        if key not in values:
            value = pearcey_reference(x, y, self.digits)
            values[key] = [value.real, value.imag]
            self.computed += 1
        re, im = values[key]
        return complex(re, im)

    def save(self) -> None:
        if not self.computed:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self._values))
        os.replace(tmp, self.path)
