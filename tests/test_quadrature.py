"""Quadrature-oracle tests.

The two strategies are independent implementations (an mpmath series over
real-axis moment integrals vs a numpy trapezoid rule on a horizontal line
through a saddle of the exponent), so their agreement is the strongest internal
check; external anchors are the exact value at the origin, evenness in y,
reality on the real axis, the leading magnitude law, the moments in closed
form (Hermite functions, no quadrature), and an mpmath evaluation of the
rotated variant.
"""

import cmath
import dataclasses
import math
import os
import random
import subprocess
import sys
import time
import warnings

import mpmath as mp
import numpy as np
import pytest

import pearcey.quadrature as quadrature
from pearcey import (CONTOUR, REAL_AXIS, ConvergenceError, QuadratureConfig,
                     pearcey_bar, pearcey_quadrature, relative_error)

GAMMA_5_4 = 0.9064024770554771  # Gamma(5/4)

# the default REAL_AXIS oracle; a lower starting precision would save little
FAST_REAL_AXIS = QuadratureConfig(strategy=REAL_AXIS)


def polar(mod, arg):
    return mod * cmath.exp(1j * arg)


def hermite_moments(x):
    """M_0 and M_1 of exp(-t^4 - x t^2) over t >= 0 in closed form,
    Gamma(k + 1/2) H_{-k-1/2}(x/2) / 2, at the working precision."""
    x = mp.mpmathify(x)
    return [mp.gamma(k + 0.5) * mp.hermite(-k - 0.5, x / 2) / 2
            for k in (0, 1)]


def series_sum(x, y2, m0, m1):
    """sum_k (-y^2)^k / (2k)! M_k and its largest term's modulus, from
    M_0 and M_1 by the moment recurrence in plain mpmath arithmetic at the
    working precision, until a term falls below 10^-dps of the largest."""
    tiny = mp.mpf(10) ** -mp.mp.dps
    total = largest = mp.mpf(0)
    coef, k = mp.mpf(1), 0
    while k < 3 or abs(coef * m0) > tiny * largest:
        total += coef * m0
        largest = max(largest, abs(coef * m0))
        m0, m1 = m1, ((2 * k + 1) * m0 - 2 * x * m1) / 4
        coef *= -y2 / ((2 * k + 1) * (2 * k + 2))
        k += 1
    return total, largest


def series_reference(x, y):
    """P(x, y) from the closed-form moments and the y-series of DLMF 36.8
    at 200 digits: no quadrature at all."""
    with mp.workdps(200):
        total, _ = series_sum(mp.mpmathify(x), mp.mpmathify(y) ** 2,
                              *hermite_moments(x))
        return complex(total)


class TestConfig:
    def test_defaults(self):
        cfg = QuadratureConfig()
        assert cfg.strategy == CONTOUR
        assert cfg.rel_tol == 1e-12
        assert quadrature._START_DIGITS == 50

    @pytest.mark.parametrize("kwargs,msg", [
        ({"strategy": "midpoint"}, "strategy"),
        ({"strategy": None}, "strategy"),
        ({"rel_tol": 0.0}, "tolerances"),
        ({"rel_tol": -1e-9}, "tolerances"),
        ({"rel_tol": -math.inf}, "tolerances"),
        ({"strategy": REAL_AXIS, "rel_tol": math.inf}, "tolerances"),
        ({"rel_tol": math.inf}, "tolerances"),
        ({"rel_tol": math.nan}, "tolerances"),
    ])
    def test_validation(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            QuadratureConfig(**kwargs)

    def test_fields(self):
        # one relative tolerance for both strategies: no absolute floor,
        # no contour node budget and no REAL_AXIS starting precision to set
        names = [f.name for f in dataclasses.fields(QuadratureConfig)]
        assert names == ["strategy", "rel_tol"]
        with pytest.raises(TypeError):
            QuadratureConfig(abs_tol=1e-30)
        with pytest.raises(TypeError):
            QuadratureConfig(working_precision_digits=50)


class TestOriginAnchor:
    # P(0, 0) = integral of exp(-t^4) = Gamma(5/4)
    def test_contour(self):
        assert pearcey_quadrature(0.0, 0.0) == pytest.approx(GAMMA_5_4,
                                                             abs=1e-12)

    def test_real_axis(self):
        value = pearcey_quadrature(0.0, 0.0, FAST_REAL_AXIS)
        assert value == pytest.approx(GAMMA_5_4, abs=1e-12)


class TestStrategyAgreement:
    @pytest.mark.parametrize("x,y", [
        (1.0, 10.0),
        (-2.0, 20.0),
        (1.0, polar(20, math.pi / 4)),
        (1 + 1j, 12 + 5j),
        # large positive Re x, where a path that ignores x failed to converge
        (30.0, 3.0),
        (10.0, 8.0),
        (29.1, 3 - 3j),
        (16 - 3.4j, -3.9 + 3.2j),
        (21.1, -8.8 + 1.2j),
        (26.1, -6.9 + 3.1j),
        # an adaptive Gauss-Kronrod rule on the same line stalled here
        (-6.066738739462366 - 4.216903436258711j,
         1.6120735280425345 - 1.1534113350145476j),
        (-6.899195060181565 + 3.5539594552838967j,
         -9.147912253704021 - 3.2558045070914052j),
        # the real-axis seed integrals turn about 3000 radians
        (300j, 2.0),
    ])
    def test_cross_check(self, x, y):
        contour = pearcey_quadrature(x, y)
        direct = pearcey_quadrature(x, y, FAST_REAL_AXIS)
        assert relative_error(contour, direct) <= 1e-9

    @pytest.mark.parametrize("x,y,tol", [
        # |P| below 1e-30, which was the real-axis rule's absolute floor
        (1.0, 80.0, 1e-12),
        (1.0, 100.0, 1e-12),
        # P ~ 3.6e269, where the integrand cancels over 70 digits
        (-50.0, 30.0, 1e-9),
    ])
    def test_relative_accuracy_at_extremes(self, x, y, tol):
        contour = pearcey_quadrature(x, y)
        direct = pearcey_quadrature(x, y, QuadratureConfig(strategy=REAL_AXIS))
        assert relative_error(direct, contour) <= tol


class TestSeedPrecision:
    @pytest.mark.parametrize("x", [-2.15 + 0.06j, 3 + 0.1j, -50.0, 30 + 2j,
                                   -20 + 50j, 300j, 1e4, -45 + 45j])
    def test_seed_moments_against_closed_form(self, x):
        # at -20 + 50i and -45 + 45i the integrals cancel 44 and 88 digits
        # below the envelope's peak, at 300i their phase turns about 3000
        # radians, and at 1e4 the envelope is a narrow Gaussian at u = 0:
        # each comes out to the digits asked for all the same
        digits = 16
        with mp.workdps(digits):
            xm = mp.mpc(x) if isinstance(x, complex) else mp.mpf(x)
            m0, m1, seed_err, log_peak = quadrature._seed_moments(mp, xm,
                                                                  digits)
        with mp.workdps(40):
            scale = mp.exp(log_peak)
            for seed, exact in zip((m0, m1), hermite_moments(x)):
                assert (abs(seed * scale - exact) / abs(exact)
                        <= max(seed_err, mp.mpf(10) ** -digits))

    @pytest.mark.parametrize("x,y", [
        (20.0, 20.0), (8.0, 30.0), (15.0, 15.0), (1.0, 30.0),
        (5 + 2j, 15 - 3j),
    ])
    def test_low_precision_agrees(self, monkeypatch, x, y):
        # the series amplifies the seeds' error here: an error term that
        # missed it returned (20, 20) 7e10 off at 16 digits
        cfg = QuadratureConfig(strategy=REAL_AXIS)
        default = pearcey_quadrature(x, y, cfg)
        for digits in (16, 24):
            monkeypatch.setattr(quadrature, "_START_DIGITS", digits)
            assert relative_error(pearcey_quadrature(x, y, cfg),
                                  default) <= 1e-12

    @pytest.mark.parametrize("x,y,digits", [
        # at Re x < 0 and large |Im x| the seeds cancel 44 to 98 digits,
        # and a fixed guard returned these 2.7e26, 1.6e4 and 2.3e97 off,
        # and P(-45+45i, 5) = 3456.08+1355.27i as -1.2e158
        (-25 + 30j, 5.0, 30),
        (-20 + 50j, 5.0, 30),
        (-30 + 60j, 0.0, 50),
        (-45 + 45j, 5.0, 50),
    ])
    def test_cancelling_seeds_against_closed_form(self, monkeypatch, x, y,
                                                  digits):
        monkeypatch.setattr(quadrature, "_START_DIGITS", digits)
        cfg = QuadratureConfig(strategy=REAL_AXIS)
        assert relative_error(pearcey_quadrature(x, y, cfg),
                              series_reference(x, y)) <= 1e-12


class TestYSeries:
    """The fixed-point y-series against the same recurrence in mpmath."""

    @staticmethod
    def _sums(x, y, dps):
        """The kernel's sum and largest term at dps digits from closed-form
        seeds divided by the envelope's peak, as _seed_moments returns
        them; the plain loop's sum from the same seeds at dps digits; and
        the exact sum and largest term, the loop at twice the digits."""
        with mp.workdps(dps):
            x, y2 = mp.mpmathify(x), mp.mpmathify(y) ** 2
            peak = mp.exp(min(x.real, 0) ** 2 / 4)
            seeds = (x, y2, *(m / peak for m in hermite_moments(x)))
            total, largest = quadrature._y_series(mp, *seeds,
                                                  quadrature._MAX_TERMS)
            plain, _ = series_sum(*seeds)
        with mp.workdps(2 * dps):
            exact, exact_largest = series_sum(*seeds)
        return total, largest, plain, exact, exact_largest

    @pytest.mark.parametrize("x,y,dps", [
        (1.0, 10.0, 60),
        (-2.1 + 0.05j, polar(25, math.pi / 4), 60),
        (0.5 - 0.3j, 3 - 4j, 30),
        (2.0, 0.0, 60),
        # seeds about 1e-221 after the peak scaling
        (-45 + 45j, 5.0, 60),
        # terms up to 1e89 for a sum of 1e-50; the plain loop at 110
        # digits is off by 1e6 times 10^-110 of the largest term
        (1.0, 100.0, 110),
    ])
    def test_against_exact_sum(self, x, y, dps):
        total, largest, _, exact, exact_largest = self._sums(x, y, dps)
        with mp.workdps(dps):
            assert abs(largest - exact_largest) <= 4 * mp.eps * exact_largest
            assert abs(total - exact) <= mp.mpf(10) ** -dps * exact_largest
        if not (isinstance(x, complex) or isinstance(y, complex)):
            assert total.imag == 0

    def test_noise_regime(self):
        # at x = 1e3 the forward recurrence grows rounding by about 1e478,
        # so no sum at 810 digits, the level P(1e3, 50) returns from,
        # reaches 10^-810 of the largest term: the fixed point is no
        # noisier than mpmath's arithmetic
        total, largest, plain, exact, exact_largest = self._sums(1e3, 50.0,
                                                                 810)
        with mp.workdps(810):
            assert abs(largest - exact_largest) <= 4 * mp.eps * exact_largest
            assert abs(total - exact) <= abs(plain - exact)
            assert abs(total - exact) <= 1e-300 * exact_largest
        assert total.imag == 0

    def test_term_count_capped(self):
        with mp.workdps(30):
            x, y2 = mp.mpf(1), mp.mpc(10) ** 2
            with pytest.raises(ConvergenceError,
                               match="series needs more than 20 terms"):
                quadrature._y_series(mp, x, y2, *hermite_moments(1.0), 20)


class TestSymmetries:
    def test_even_in_y_contour(self):
        rng = random.Random(90210)
        for _ in range(12):
            x = complex(rng.uniform(-2.5, 2.5), rng.uniform(-1, 1))
            y = polar(rng.uniform(3, 25), rng.uniform(-math.pi, math.pi))
            plus = pearcey_quadrature(x, y)
            minus = pearcey_quadrature(x, -y)
            assert relative_error(plus, minus) <= 1e-12

    def test_even_in_y_real_axis(self):
        for x, y in [(1.0, -8 + 3j), (-2.0, 6.0)]:
            plus = pearcey_quadrature(x, y, FAST_REAL_AXIS)
            minus = pearcey_quadrature(x, -y, FAST_REAL_AXIS)
            assert relative_error(plus, minus) <= 1e-12

    @pytest.mark.parametrize("x,y", [(1.0, 7.3), (-2.0, 13.0), (0.5, 0.0)])
    def test_real_for_real_arguments(self, x, y):
        value = pearcey_quadrature(x, y)
        assert abs(value.imag) <= 1e-12 * abs(value)

    def test_y_zero_strategies_agree(self):
        for x in (2.0, -1.0):
            contour = pearcey_quadrature(x, 0.0)
            direct = pearcey_quadrature(x, 0.0, FAST_REAL_AXIS)
            assert relative_error(contour, direct) <= 1e-12

    def test_deterministic(self):
        a = pearcey_quadrature(1.0, polar(18, 0.9))
        b = pearcey_quadrature(1.0, polar(18, 0.9))
        assert a == b


class TestMagnitudeLaw:
    def test_exponential_scale_on_real_axis(self):
        # ln |P(1, y)| should follow a y^(4/3) law with the predicted
        # coefficient -(3/2) 4^(-4/3); the subleading fit terms absorb the
        # prefactor and the oscillatory beating of the two branches
        ys = [20.0, 30.0, 40.0, 50.0]
        lnp = [math.log(abs(pearcey_quadrature(1.0, y))) for y in ys]
        design = np.array([[y ** (4 / 3), y ** (2 / 3), 1.0] for y in ys])
        coef, *_ = np.linalg.lstsq(design, np.array(lnp), rcond=None)
        slope_true = -1.5 * 4.0 ** (-4.0 / 3.0)
        assert abs(coef[0] - slope_true) <= 0.05 * abs(slope_true)

    @pytest.mark.parametrize("x", [1e12, 1e16, 1e20])
    def test_large_positive_x(self, x):
        # P(x, 0) = sqrt(pi/x)/2 (1 + O(x^-2)), tiny against the unit peak
        # of the scaled integrand, so no absolute tolerance may end quad
        assert pearcey_quadrature(x, 0.0) == pytest.approx(
            math.sqrt(math.pi / x) / 2, rel=1e-12)


class TestNonFiniteInput:
    @pytest.mark.parametrize("strategy", [CONTOUR, REAL_AXIS])
    @pytest.mark.parametrize("x,y", [
        (1.0, math.nan), (math.nan, 10.0), (1.0, complex(0.0, math.inf)),
        (-math.inf, 2.0),
    ])
    def test_rejected(self, strategy, x, y):
        with pytest.raises(ValueError, match="finite"):
            pearcey_quadrature(x, y, QuadratureConfig(strategy=strategy))


class TestRotatedVariant:
    def test_origin(self):
        expected = 2 * cmath.exp(1j * math.pi / 8) * GAMMA_5_4
        assert pearcey_bar(0.0, 0.0) == pytest.approx(expected, rel=1e-10)

    def test_imaginary_x_against_mpmath(self):
        # at x = i, y = 0 the rotated variant equals the whole-line
        # integral of exp(i t^4 - t^2); substitute s = t^2 for mpmath
        with mp.workdps(40):
            f = lambda s: mp.exp(-s + 1j * s * s) / mp.sqrt(s)
            oracle = complex(mp.quad(f, [0, 1, 4, 9, 16, 25, 36, 49, 64]))
        assert pearcey_bar(1j, 0.0) == pytest.approx(oracle, rel=1e-10)

    def test_general_point_finite(self):
        value = pearcey_bar(2j, 1.0)
        assert cmath.isfinite(value) and value != 0


class TestRelativeError:
    def test_values(self):
        assert relative_error(1.1, 1.0) == pytest.approx(0.1, rel=1e-12)
        assert relative_error(3 + 4j, 5j) == pytest.approx(math.sqrt(10) / 5,
                                                           rel=1e-12)
        assert relative_error(2.0, 2.0) == 0.0

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="zero reference"):
            relative_error(1.0, 0.0)


# |P| is about 3e-62, 5e-50 and 5e-49, and the contour's line peaks 18 to
# 31 digits above it, beyond what double precision can cancel.  An absolute
# floor of 1e-30 on the error let the contour return 1.04e-47 at the first
# point and a value 7.7e12 times too large at the second.
TINY_P = [
    (1.6489883390173503 - 27.899820700118944j,
     -100.2239912785565 + 97.39188630020797j),
    (-0.6451586828952784 - 35.2033173536142j,
     -83.87862811702283 + 100.47822639120726j),
    (5.792125448233662 - 29.986713659854722j,
     76.49348131353678 - 98.940229517096j),
]


class TestRelativeAcceptance:
    @pytest.mark.parametrize("x,y", TINY_P)
    def test_contour_refuses(self, x, y):
        with pytest.raises(ConvergenceError, match="stalled"):
            pearcey_quadrature(x, y)

    @pytest.mark.parametrize("x,y", TINY_P)
    def test_real_axis_against_closed_form(self, x, y):
        value = pearcey_quadrature(x, y, QuadratureConfig(strategy=REAL_AXIS))
        assert relative_error(value, series_reference(x, y)) <= 1e-12


class TestConvergenceFailure:
    @staticmethod
    def _count_passes(monkeypatch):
        # one entry per mp.quad call: its number of integrand evaluations
        calls = []
        rule = mp.quad

        def counted(f, *args, **kwargs):
            calls.append(0)

            def g(u):
                calls[-1] += 1
                return f(u)
            return rule(g, *args, **kwargs)

        monkeypatch.setattr(mp, "quad", counted)
        return calls

    def test_real_axis_reports_best_estimate(self, monkeypatch):
        # no precision the levels reach meets this tolerance: the refusal
        # comes after the last level and carries its estimate
        calls = self._count_passes(monkeypatch)
        monkeypatch.setattr(quadrature, "_START_DIGITS", 16)
        cfg = QuadratureConfig(strategy=REAL_AXIS, rel_tol=1e-300)
        with pytest.raises(ConvergenceError, match="stalled") as info:
            pearcey_quadrature(1.0, 10.0, cfg)
        assert len(calls) == 2 * quadrature._MAX_LEVELS
        err = info.value
        assert err.achieved_error > 0
        reference = pearcey_quadrature(1.0, 10.0)
        assert relative_error(err.estimate, reference) <= 1e-9

    def test_real_axis_single_pass(self, monkeypatch):
        # one precision level, two seed integrals, whatever |y|: the
        # series takes the oscillation out of the integrals
        calls = self._count_passes(monkeypatch)
        cfg = QuadratureConfig(strategy=REAL_AXIS)
        pearcey_quadrature(1.0, 10.0, cfg)
        at_10 = len(calls)
        pearcey_quadrature(1.0, 25.0, cfg)
        assert len(calls) - at_10 == at_10 == 2

    @pytest.mark.parametrize("x", [1.0, -2.15 + 0.06j])
    def test_real_axis_seed_evaluations(self, monkeypatch, x):
        # the trapezoid rule needs at most 257 nodes per seed integral at
        # the benchmark's x (tanh-sinh took 561 and 1,125), and its nodes
        # are kept per degree, not per precision or per call
        evals = self._count_passes(monkeypatch)
        cfg = QuadratureConfig(strategy=REAL_AXIS)
        pearcey_quadrature(x, 10.0, cfg)
        assert len(evals) == 2 and max(evals) <= 257
        nodes = quadrature._trapezoid_rule().nodes
        cached = sum(map(len, nodes.values()))
        for _ in range(3):
            pearcey_quadrature(x, 10.0, cfg)
        assert sum(map(len, nodes.values())) == cached
        assert cached == 2 ** (max(nodes) + 2) + 1

    @pytest.mark.parametrize("x,y,digits", [
        (-60.0, 0.0, 16),  # P ~ e^900
        (-60.0, 60j, 50),  # P ~ e^1233
    ])
    def test_real_axis_overflow_refused(self, monkeypatch, x, y, digits):
        # beyond double range: no silent inf
        monkeypatch.setattr(quadrature, "_START_DIGITS", digits)
        cfg = QuadratureConfig(strategy=REAL_AXIS)
        with pytest.raises(ConvergenceError, match="double-precision"):
            pearcey_quadrature(x, y, cfg)

    @pytest.mark.parametrize("strategy", [CONTOUR, REAL_AXIS])
    def test_overflow_estimate_has_no_nan(self, strategy):
        # P(-60, 0) ~ e^900 is real: a zero imaginary part times an
        # infinite scale must stay zero
        with pytest.raises(ConvergenceError, match="double-precision") as info:
            pearcey_quadrature(-60.0, 0.0, QuadratureConfig(strategy=strategy))
        assert info.value.estimate == complex(math.inf, 0.0)

    @pytest.mark.parametrize("x", [-60 + 60j, -100 + 100j])
    def test_real_axis_cancellation_capped(self, monkeypatch, x):
        # the seed integrals would cancel 391 and 1086 digits (P(-60+60i, 0)
        # = -0.0809-0.1571i): refuse at once rather than integrate for
        # minutes
        calls = self._count_passes(monkeypatch)
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="cancel") as info:
            pearcey_quadrature(x, 0.0, QuadratureConfig(strategy=REAL_AXIS))
        assert time.perf_counter() - start < 1.0
        assert cmath.isnan(info.value.estimate)
        assert not calls

    @pytest.mark.parametrize("y", [800.0, 1e4])
    def test_contour_underflow_refused(self, y):
        # |P(1, y)| falls below the smallest double: no silent zero
        with pytest.raises(ConvergenceError, match="double-precision"):
            pearcey_quadrature(1.0, y)

    def test_contour_exponent_beyond_double_range(self):
        # P(1e154, 1) ~ 9e-78, but the exponent's quartic spans more
        # magnitudes than its roots can resolve; no silent zero
        with pytest.raises(ConvergenceError, match="double-precision"):
            pearcey_quadrature(1e154, 1.0)

    @pytest.mark.parametrize("x,y", [(-1e200, 1.0), (1.0, 1e200)])
    def test_contour_coefficients_beyond_double_range(self, x, y):
        # the quartic's coefficients overflow, or swamp its tail drop: no
        # numpy warning or error, the same refusal as above
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="double-precision"):
                pearcey_quadrature(x, y)

    def test_real_axis_oscillation_capped(self, monkeypatch):
        # exp(-i Im(x) t^2) turns about 1e5 radians on the cut-off axis:
        # refuse before integrating rather than return unresolved seeds
        calls = self._count_passes(monkeypatch)
        with pytest.raises(ConvergenceError, match="degree") as info:
            pearcey_quadrature(1e4j, 1.0, FAST_REAL_AXIS)
        assert cmath.isnan(info.value.estimate)
        assert not calls

    def test_real_axis_term_count_capped(self, monkeypatch):
        # the forward moment recurrence is unstable at large positive x:
        # its rounding noise would need about 1e10 terms to die out
        calls = self._count_passes(monkeypatch)
        try:
            value = pearcey_quadrature(1e20, 1.0, FAST_REAL_AXIS)
        except ConvergenceError:
            assert len(calls) <= 2 * quadrature._MAX_LEVELS
        else:
            assert value == pytest.approx(pearcey_quadrature(1e20, 1.0),
                                          rel=1e-12)

    def test_contour_reports_best_estimate(self):
        cfg = QuadratureConfig(rel_tol=1e-40)
        with pytest.raises(ConvergenceError) as info:
            pearcey_quadrature(1.0, 10.0, cfg)
        err = info.value
        assert err.achieved_error > 0
        reference = pearcey_quadrature(1.0, 10.0)
        assert relative_error(err.estimate, reference) <= 1e-9

    @pytest.mark.parametrize("x,y,config", [
        (1.0, 10.0, QuadratureConfig(rel_tol=1e-40)),
        # a point the horizontal line cannot resolve: the rule runs to its cap
        (-4.567106744928893 - 4.166975080229847j,
         7.67418811055165 - 1.2731125396418272j, None),
    ])
    def test_contour_node_count_capped(self, monkeypatch, x, y, config):
        nodes = 0
        rule = quadrature.quad

        def counted(integrand, *args):
            def counted_integrand(s):
                nonlocal nodes
                nodes += s.size
                return integrand(s)
            return rule(counted_integrand, *args)

        monkeypatch.setattr(quadrature, "quad", counted)
        with pytest.raises(ConvergenceError) as info:
            pearcey_quadrature(x, y, config)
        assert cmath.isfinite(info.value.estimate)
        # 16 intervals halved at most 10 times
        assert 0 < nodes <= 16 * 2 ** 10 + 1


# One fresh interpreter per route: what it runs, and the top-level modules
# it must leave unloaded.  scipy is gone from the package altogether; each
# quadrature strategy imports only its own backend, on its first call.
_ROUTE_IMPORTS = {
    "expansion and cli": (
        "import pearcey, pearcey.cli\n"
        "pearcey.pearcey_asymptotic(1, 20)\n"
        "pearcey.cli.main(['eval', '--x', '1', '--y', '20'])\n",
        ("scipy", "numpy", "mpmath")),
    "real axis": (
        "import pearcey\n"
        "pearcey.pearcey_quadrature(1, 2, pearcey.QuadratureConfig(\n"
        "    strategy=pearcey.REAL_AXIS))\n",
        ("scipy", "numpy")),
    "contour": (
        "import pearcey\n"
        "pearcey.pearcey_quadrature(1, 2)\n",
        ("scipy", "mpmath")),
}


def test_import_loads_no_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    loaded = {}
    for route, (code, unwanted) in _ROUTE_IMPORTS.items():
        code += ("import sys\n"
                 f"print(sorted({{m.partition('.')[0] for m in sys.modules}}"
                 f" & {set(unwanted)!r}))\n")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        loaded[route] = out.strip().splitlines()[-1]
    assert loaded == dict.fromkeys(_ROUTE_IMPORTS, "[]")
