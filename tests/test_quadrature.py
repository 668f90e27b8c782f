"""Quadrature-oracle tests.

The two strategies are independent implementations (mpmath panel sums on
the real axis vs a bent contour under scipy), so their agreement is the
strongest internal check; external anchors are the exact value at the
origin, evenness in y, reality on the real axis, the leading magnitude
law, and an mpmath evaluation of the rotated variant.
"""

import cmath
import math
import random

import mpmath as mp
import numpy as np
import pytest

from pearcey import (CONTOUR, REAL_AXIS, ConvergenceError, QuadratureConfig,
                     pearcey_bar, pearcey_quadrature, relative_error)

GAMMA_5_4 = 0.9064024770554771  # Gamma(5/4)

FAST_REAL_AXIS = QuadratureConfig(strategy=REAL_AXIS,
                                  working_precision_digits=30)


def polar(mod, arg):
    return mod * cmath.exp(1j * arg)


class TestConfig:
    def test_defaults(self):
        cfg = QuadratureConfig()
        assert cfg.strategy == CONTOUR
        assert cfg.working_precision_digits == 50

    @pytest.mark.parametrize("kwargs,msg", [
        ({"strategy": "midpoint"}, "strategy"),
        ({"working_precision_digits": 15}, "working_precision_digits"),
        ({"abs_tol": 0.0}, "tolerances"),
        ({"rel_tol": -1e-9}, "tolerances"),
        ({"max_subdivisions": 0}, "max_subdivisions"),
    ])
    def test_validation(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            QuadratureConfig(**kwargs)


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
    ])
    def test_cross_check(self, x, y):
        contour = pearcey_quadrature(x, y)
        direct = pearcey_quadrature(x, y, FAST_REAL_AXIS)
        assert relative_error(contour, direct) <= 1e-9


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


class TestConvergenceFailure:
    def test_real_axis_reports_best_estimate(self):
        cfg = QuadratureConfig(strategy=REAL_AXIS, working_precision_digits=16,
                               rel_tol=1e-40, abs_tol=1e-60,
                               max_subdivisions=1)
        with pytest.raises(ConvergenceError) as info:
            pearcey_quadrature(1.0, 10.0, cfg)
        err = info.value
        assert err.achieved_error > 0
        reference = pearcey_quadrature(1.0, 10.0)
        assert relative_error(err.estimate, reference) <= 1e-9

    def test_contour_reports_best_estimate(self):
        cfg = QuadratureConfig(rel_tol=1e-40, abs_tol=1e-60,
                               max_subdivisions=1)
        with pytest.raises(ConvergenceError) as info:
            pearcey_quadrature(1.0, 10.0, cfg)
        err = info.value
        assert err.achieved_error > 0
        reference = pearcey_quadrature(1.0, 10.0)
        assert relative_error(err.estimate, reference) <= 1e-9
