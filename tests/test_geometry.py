"""Saddle-geometry tests.

The phase, its Taylor forms, the residual exponents, and the tail decay
rate are all checked against hand-derived values or against each other
through independent constructions (finite differences, explicit junction
formulas, term-by-term expansion of exp(h)).
"""

import cmath
import math
import random

import pytest

from pearcey import phase, saddle_points, tail_decay_rate
from pearcey.geometry import (phase_derivative, phase_taylor,
                              residual_exponent, residual_series_coeff)

PI = math.pi
R_SADDLE = 2.0 ** (-2.0 / 3.0)
CUBE16 = 2.0 ** (4.0 / 3.0)


def branch_direction(theta, branch):
    """Unit vector of the descent line at saddle 1 or 2."""
    if branch == 1:
        return cmath.exp(-1j * (PI + 4.0 * theta) / 6.0)
    return cmath.exp(1j * (PI - 4.0 * theta) / 6.0)


def junction(theta, branch):
    """Point where the descent line of a branch meets the original ray."""
    s = saddle_points()
    if branch == 1:
        return s.t1 + R_SADDLE * branch_direction(theta, 1)
    return s.t2 - R_SADDLE * branch_direction(theta, 2)


class TestPhase:
    def test_origin_is_zero(self):
        for theta in (-PI / 2, -0.3, 0.0, 1.1, PI / 2):
            assert phase(0.0, theta) == 0

    def test_hand_values(self):
        assert phase(1j, 0.0) == pytest.approx(-2.0, rel=1e-15)
        s = saddle_points()
        level = 3.0 / 4.0 ** (4.0 / 3.0) * cmath.exp(2j * PI / 3.0)
        assert phase(s.t1, 0.0) == pytest.approx(level, rel=1e-14)
        assert phase(s.t2, 0.0) == pytest.approx(level.conjugate(), rel=1e-14)

    @pytest.mark.parametrize("t,theta", [
        (math.nan, 1.0), (1.0, math.nan), (complex(math.inf, 0.0), 0.0),
        (1j, -math.inf),
    ])
    def test_non_finite_rejected(self, t, theta):
        with pytest.raises(ValueError, match="finite"):
            phase(t, theta)

    def test_saddle_locations(self):
        s = saddle_points()
        assert s.t0 == pytest.approx(-1j * 4.0 ** (-1.0 / 3.0), rel=1e-15)
        for t in (s.t1, s.t2):
            assert abs(t) == pytest.approx(R_SADDLE, rel=1e-15)
        assert cmath.phase(s.t1) == pytest.approx(PI / 6, abs=1e-15)
        assert cmath.phase(s.t2) == pytest.approx(5 * PI / 6, abs=1e-15)

    def test_derivative_vanishes_at_saddles(self):
        rng = random.Random(1205)
        s = saddle_points()
        for _ in range(20):
            theta = rng.uniform(-PI / 2, PI / 2)
            for t in (s.t0, s.t1, s.t2):
                assert abs(phase_derivative(t, theta)) <= 1e-13

    def test_derivative_matches_finite_difference(self):
        t, theta, h = 0.3 + 0.2j, 0.7, 1e-6
        fd = (phase(t + h, theta) - phase(t - h, theta)) / (2 * h)
        assert phase_derivative(t, theta) == pytest.approx(fd, abs=1e-8)


class TestPhaseTaylor:
    def test_equals_phase_everywhere(self):
        # degree-4 polynomial == its own degree-4 Taylor form
        rng = random.Random(77041)
        for _ in range(100):
            t = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            theta = rng.uniform(-PI / 2, PI / 2)
            for saddle in (1, 2):
                exact = phase(t, theta)
                taylor = phase_taylor(t, theta, saddle)
                assert abs(taylor - exact) <= 1e-12 * (1 + abs(t) ** 4)

    def test_level_term_at_saddle(self):
        s = saddle_points()
        for theta in (-0.35, 0.0, 0.2):
            assert phase_taylor(s.t1, theta, 1) == pytest.approx(
                phase(s.t1, theta), rel=1e-14)
            assert phase_taylor(s.t2, theta, 2) == pytest.approx(
                phase(s.t2, theta), rel=1e-14)

    def test_saddle_index_validated(self):
        with pytest.raises(ValueError, match="saddle"):
            phase_taylor(0.1, 0.0, 3)


class TestResidualExponent:
    def test_zero_at_origin(self):
        assert residual_exponent(0.0, 1.5, 20.0, 1) == 0
        assert residual_exponent(0.0, 1.5, 20.0, 2) == 0

    def test_hand_value(self):
        # u = 1, x = 0, y = 1 strips the powers of y
        expected = (cmath.exp(2j * PI / 3) * CUBE16 + cmath.exp(1j * PI / 3))
        assert residual_exponent(1.0, 0.0, 1.0, 1) == pytest.approx(
            expected, rel=1e-14)

    def test_branches_mirror_for_real_data(self):
        for u in (0.4, -0.7):
            for x in (0.0, 1.0, -2.0):
                h1 = residual_exponent(-u, x, 25.0, 1)
                h2 = residual_exponent(u, x, 25.0, 2)
                assert abs(h2 - h1.conjugate()) <= 1e-15 * (1 + abs(h2))

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="y = 0"):
            residual_exponent(0.5, 1.0, 0.0, 1)
        with pytest.raises(ValueError, match="branch"):
            residual_exponent(0.5, 1.0, 10.0, 3)


class TestResidualSeries:
    def test_zeroth_is_one(self):
        assert residual_series_coeff(0, 1.7, 0.9, 1) == 1
        assert residual_series_coeff(0, -2.0, -0.3, 2) == 1

    def test_first_order_hand_value(self):
        # x = 0, u = 1: only the k = 0 lattice point survives
        expected = -CUBE16 * cmath.exp(-1j * PI / 3)
        assert residual_series_coeff(1, 0.0, 1.0, 1) == pytest.approx(
            expected, rel=1e-14)
        assert residual_series_coeff(1, 0.0, 1.0, 2) == pytest.approx(
            expected.conjugate() * -1, rel=1e-14)

    @pytest.mark.parametrize("branch", [1, 2])
    def test_partial_sums_converge_to_exp(self, branch):
        u, x, y = 0.3, 1.0, 30.0
        target = cmath.exp(residual_exponent(u, x, y, branch))
        total = complex(0)
        for n in range(7):
            total += residual_series_coeff(n, x, u, branch) / y ** (2 * n / 3)
        assert abs(total - target) <= 1e-6

    def test_error_decays_by_two_thirds_power(self):
        # each extra term should buy roughly a factor |y|^(2/3); the /4
        # slack absorbs coefficient growth between consecutive orders
        # (measured floor over this grid is 0.447 * |y|^(2/3))
        for x in (0.0, 1.0, -2.0):
            for u in (0.25, -0.5):
                for y in (20.0, 40.0):
                    target = cmath.exp(residual_exponent(u, x, y, 1))
                    errs = []
                    total = complex(0)
                    for n in range(6):
                        total += (residual_series_coeff(n, x, u, 1)
                                  / y ** (2 * n / 3))
                        errs.append(abs(total - target))
                    for lo, hi in zip(errs[1:], errs[:-1]):
                        assert hi >= lo * y ** (2 / 3) / 4

    def test_index_validation(self):
        with pytest.raises(ValueError, match="precondition"):
            residual_series_coeff(-1, 1.0, 0.5, 1)
        with pytest.raises(ValueError, match="branch"):
            residual_series_coeff(2, 1.0, 0.5, 0)


class TestTailDecay:
    def test_rate_at_center(self):
        # theta = 0: junction sits on the real axis at 2^(-2/3) sqrt(3),
        # where Re f = -t^4
        assert tail_decay_rate(0.0) == pytest.approx(-9.0 * 2.0 ** (-8.0 / 3.0),
                                                     rel=1e-14)

    def test_rate_at_sector_edges(self):
        for theta in (PI / 8, -PI / 8):
            assert tail_decay_rate(theta) == pytest.approx(-1.38077, abs=1e-5)

    def test_matches_junction_construction(self):
        for theta in (-0.39, -0.1, 0.0, 0.2, 0.39):
            expected = max(phase(junction(theta, 1), theta).real,
                           phase(junction(theta, 2), theta).real)
            assert tail_decay_rate(theta) == pytest.approx(expected, rel=1e-14)

    def test_even_in_theta(self):
        for theta in (0.05, 0.17, 0.31, PI / 8):
            assert tail_decay_rate(theta) == pytest.approx(
                tail_decay_rate(-theta), rel=1e-13)

    def test_bounded_across_sector(self):
        for k in range(50):
            theta = -PI / 8 + k * (PI / 4) / 49
            assert tail_decay_rate(theta) <= -1.38077 + 1e-4

    def test_domain(self):
        for theta in (0.5, -0.5, math.nan):
            with pytest.raises(ValueError, match="pi/8"):
                tail_decay_rate(theta)
