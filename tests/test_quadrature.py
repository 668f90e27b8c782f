"""Quadrature-oracle tests.

The two strategies are independent implementations (mpmath panel sums on
the real axis vs a numpy trapezoid rule on a horizontal line through a
saddle of the exponent), so their agreement is the strongest internal
check; external anchors are the exact value at the origin, evenness in y,
reality on the real axis, the leading magnitude law, and an mpmath
evaluation of the rotated variant.
"""

import cmath
import math
import os
import random
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest

import pearcey.quadrature as quadrature
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
        ({"strategy": REAL_AXIS, "abs_tol": math.inf}, "tolerances"),
        ({"rel_tol": math.inf}, "tolerances"),
        ({"abs_tol": math.nan}, "tolerances"),
        ({"max_subdivisions": 2.5}, "max_subdivisions"),
        ({"working_precision_digits": 30.0}, "working_precision_digits"),
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


class TestConvergenceFailure:
    def test_real_axis_reports_best_estimate(self):
        cfg = QuadratureConfig(strategy=REAL_AXIS, working_precision_digits=16,
                               rel_tol=1e-40, abs_tol=1e-60)
        with pytest.raises(ConvergenceError) as info:
            pearcey_quadrature(1.0, 10.0, cfg)
        err = info.value
        assert err.achieved_error > 0
        reference = pearcey_quadrature(1.0, 10.0)
        assert relative_error(err.estimate, reference) <= 1e-9

    @staticmethod
    def _count_passes(monkeypatch):
        calls = []
        rule = mp.quad
        monkeypatch.setattr(
            mp, "quad", lambda *args, **kwargs: calls.append(args)
            or rule(*args, **kwargs))
        return calls

    def test_real_axis_single_pass(self, monkeypatch):
        calls = self._count_passes(monkeypatch)
        pearcey_quadrature(1.0, 10.0, QuadratureConfig(strategy=REAL_AXIS))
        assert len(calls) == 1

    def test_real_axis_raises_after_one_pass(self, monkeypatch):
        # 20 digits cannot reach this tolerance; more panels would not help
        calls = self._count_passes(monkeypatch)
        cfg = QuadratureConfig(strategy=REAL_AXIS, working_precision_digits=20,
                               rel_tol=1e-17, abs_tol=1e-25)
        with pytest.raises(ConvergenceError, match="stalled"):
            pearcey_quadrature(-2.0, 30.0, cfg)
        assert len(calls) == 1

    def test_real_axis_overflow_refused(self):
        # P(-60, 0) ~ e^900 is beyond double range: no silent inf
        cfg = QuadratureConfig(strategy=REAL_AXIS, working_precision_digits=16)
        with pytest.raises(ConvergenceError, match="double-precision"):
            pearcey_quadrature(-60.0, 0.0, cfg)

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

    def test_real_axis_panel_count_capped(self):
        # the cut-off near 1e10 needs 4e10 panels; refuse before building them
        with pytest.raises(ConvergenceError, match="panels") as info:
            pearcey_quadrature(1e20, 1.0, FAST_REAL_AXIS)
        assert cmath.isnan(info.value.estimate)

    def test_contour_reports_best_estimate(self):
        cfg = QuadratureConfig(rel_tol=1e-40, abs_tol=1e-60,
                               max_subdivisions=1)
        with pytest.raises(ConvergenceError) as info:
            pearcey_quadrature(1.0, 10.0, cfg)
        err = info.value
        assert err.achieved_error > 0
        reference = pearcey_quadrature(1.0, 10.0)
        assert relative_error(err.estimate, reference) <= 1e-9

    @pytest.mark.parametrize("x,y,config", [
        (1.0, 10.0, QuadratureConfig(rel_tol=1e-40, abs_tol=1e-60)),
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
        # 16 intervals halved 4 + max_subdivisions = 10 times
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
        "    strategy=pearcey.REAL_AXIS, working_precision_digits=30))\n",
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
