"""Expansion-layer tests.

The numerical truth of the expansion against an independent integrator
lives in test_acceptance.py; here we pin the structure: normalisation,
region routing, prefactor and series identities, result invariants, and
the Stokes/anti-Stokes classification.
"""

import cmath
import math
import random

import pytest

from pearcey import (Dominance, Region, build_table, classify_region,
                     normalize, pearcey_asymptotic, series_coeff,
                     stokes_classification)
from pearcey.asymptotics import (EvalPoint, pearcey_branch, prefactor,
                                 series_sum)

PI = math.pi


def polar(mod, arg):
    return mod * cmath.exp(1j * arg)


class TestNormalize:
    def test_negative_real_axis_flips(self):
        point = normalize(1.0, -10.0)
        assert point.y == 10
        assert point.y_raw == -10
        assert point.theta == pytest.approx(0.0, abs=1e-15)

    def test_left_half_plane_flips(self):
        point = normalize(0.0, -3 - 4j)
        assert point.y == 3 + 4j

    def test_right_half_plane_kept(self):
        point = normalize(0.0, 10j)
        assert point.y == 10j
        assert point.theta == pytest.approx(PI / 2, abs=1e-15)

    def test_inputs_coerced_to_complex(self):
        point = normalize(2, 5)
        assert isinstance(point.x, complex) and isinstance(point.y, complex)

    def test_origin_rejected(self):
        with pytest.raises(ValueError, match="y = 0"):
            normalize(1.0, 0.0)

    @pytest.mark.parametrize("x,y", [
        (1.0, math.nan), (math.nan, 10.0), (1.0, complex(10.0, math.inf)),
        (complex(math.inf, 0.0), 10.0), (1.0, -math.inf),
    ])
    def test_non_finite_rejected(self, x, y):
        with pytest.raises(ValueError, match="finite"):
            normalize(x, y)
        with pytest.raises(ValueError, match="finite"):
            pearcey_asymptotic(x, y)


class TestClassifyRegion:
    @pytest.mark.parametrize("theta,region", [
        (0.0, Region.CASE3),
        (PI / 8, Region.CASE3),
        (-PI / 8, Region.CASE3),
        (PI / 8 + 1e-12, Region.CASE2),
        (-PI / 8 - 1e-12, Region.CASE1),
        (PI / 4, Region.CASE2),
        (-PI / 2, Region.CASE1),
    ])
    def test_boundaries(self, theta, region):
        point = EvalPoint(x=1 + 0j, y_raw=polar(20, theta), y=polar(20, theta),
                          theta=theta)
        assert classify_region(point) is region

    def test_partition(self):
        rng = random.Random(40917)
        for _ in range(200):
            theta = rng.uniform(-PI / 2, PI / 2)
            region = classify_region(normalize(0.5, polar(15, theta)))
            if abs(theta) <= PI / 8:
                assert region is Region.CASE3
            elif theta < 0:
                assert region is Region.CASE1
            else:
                assert region is Region.CASE2


class TestPrefactor:
    def test_modulus_on_real_axis(self):
        # |prefactor| = sqrt(pi/3) 2^(-5/6) y^(-1/3) exp(-(3/2) 4^(-4/3) y^(4/3))
        y = 10.0
        expected = (math.sqrt(PI / 3) / 2 ** (5 / 6) * y ** (-1 / 3)
                    * math.exp(-1.5 * 4.0 ** (-4 / 3) * y ** (4 / 3)))
        assert abs(prefactor(1, 0.0, y)) == pytest.approx(expected, rel=1e-12)
        assert abs(prefactor(2, 0.0, y)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("x,y", [(0.0, 7.0), (1.0, 20.0), (-2.0, 33.0)])
    def test_branches_conjugate_on_real_axis(self, x, y):
        p1 = prefactor(1, x, y)
        p2 = prefactor(2, x, y)
        assert p2 == pytest.approx(p1.conjugate(), rel=1e-14)

    def test_large_finite_value(self):
        p = prefactor(1, 0.0, -100j)
        assert cmath.isfinite(p)
        assert abs(p) > 1e80

    def test_overflow_saturates_with_phase(self):
        p = prefactor(1, 0.0, -300j)
        assert not cmath.isfinite(p)

    def test_validation(self):
        with pytest.raises(ValueError, match="branch"):
            prefactor(3, 0.0, 10.0)
        with pytest.raises(ValueError, match="y = 0"):
            prefactor(1, 0.0, 0.0)


class TestSeriesSum:
    def test_order_zero_is_pure_phase(self):
        table = build_table(1.3, 5)
        assert series_sum(1, table, 17.0, 0) == pytest.approx(
            cmath.exp(-1j * PI / 6), rel=1e-15)
        assert series_sum(2, table, 17.0, 0) == pytest.approx(
            cmath.exp(1j * PI / 6), rel=1e-15)

    def test_increments_have_coefficient_modulus(self):
        # |S_n - S_(n-1)| = |A_n| |y|^(-2n/3) regardless of arg y
        x, y = -2.0, polar(17.0, 0.3)
        table = build_table(x, 5)
        for k in (1, 2):
            prev = series_sum(k, table, y, 0)
            for n in range(1, 6):
                cur = series_sum(k, table, y, n)
                expected = abs(series_coeff(n, x)) * abs(y) ** (-2 * n / 3)
                assert abs(cur - prev) == pytest.approx(expected, rel=1e-13)
                prev = cur

    def test_validation(self):
        table = build_table(1.0, 3)
        with pytest.raises(ValueError, match="outside table range"):
            series_sum(1, table, 10.0, 4)
        with pytest.raises(ValueError, match="outside table range"):
            series_sum(1, table, 10.0, -1)
        with pytest.raises(ValueError, match="branch"):
            series_sum(0, table, 10.0, 2)
        with pytest.raises(ValueError, match="y = 0"):
            series_sum(1, table, 0.0, 2)


class TestPearceyBranch:
    @pytest.mark.parametrize("x,y,order", [(1.0, 25.0, 4), (-2.0, 12.0, 3)])
    def test_branches_conjugate_on_real_axis(self, x, y, order):
        b1 = pearcey_branch(1, x, y, order)
        b2 = pearcey_branch(2, x, y, order)
        assert b2 == pytest.approx(b1.conjugate(), rel=1e-13)

    def test_finite_up_the_imaginary_axis(self):
        assert cmath.isfinite(pearcey_branch(1, 1.0, 10j, 3))


class TestPearceyAsymptotic:
    def test_even_in_y(self):
        plus = pearcey_asymptotic(1.0, 30.0)
        minus = pearcey_asymptotic(1.0, -30.0)
        assert plus.value == minus.value

    def test_result_invariants(self):
        res = pearcey_asymptotic(1.0, 20.0, order=4)
        assert len(res.partial_sums) == 5
        assert res.partial_sums[-1] == res.value
        assert res.value == res.p1_contrib + res.p2_contrib
        assert res.order == 4
        assert res.warnings == ()

    def test_region_routing(self):
        both = pearcey_asymptotic(1.0, 10.0)
        assert both.region is Region.CASE3
        assert both.p1_contrib != 0 and both.p2_contrib != 0

        upper = pearcey_asymptotic(1.0, polar(20, PI / 4))
        assert upper.region is Region.CASE2
        assert upper.p1_contrib == 0

        lower = pearcey_asymptotic(1.0, polar(20, -3 * PI / 8))
        assert lower.region is Region.CASE1
        assert lower.p2_contrib == 0

    def test_leading_partial_sum_is_prefactor_pair(self):
        # pins the truncation convention: partial_sums[0] keeps exactly the
        # leading term of each active branch
        x, y = 1.0, 10.0
        res = pearcey_asymptotic(x, y, order=3)
        lead = (prefactor(1, x, y) * cmath.exp(-1j * PI / 6)
                + prefactor(2, x, y) * cmath.exp(1j * PI / 6))
        assert res.partial_sums[0] == pytest.approx(lead, rel=1e-14)

    @pytest.mark.parametrize("x", [0.0, 1.0, -2.0])
    @pytest.mark.parametrize("y", [10.0, 20.0, 40.0])
    def test_real_on_real_axis(self, x, y):
        res = pearcey_asymptotic(x, y, order=5)
        assert abs(res.value.imag) <= 1e-10 * abs(res.value)

    def test_first_omitted_matches_components(self):
        x, y, order = 1.0, 30.0, 4
        res = pearcey_asymptotic(x, y, order=order)
        expected = ((abs(prefactor(1, x, y)) + abs(prefactor(2, x, y)))
                    * abs(series_coeff(order + 1, x))
                    * y ** (-2 * (order + 1) / 3))
        assert res.first_omitted_magnitude == pytest.approx(expected, rel=1e-13)
        assert res.first_omitted_magnitude < 1e-3 * abs(res.value)

    def test_small_y_warning(self):
        res = pearcey_asymptotic(1.0, 4.5)
        assert any("below 5" in w for w in res.warnings)
        assert pearcey_asymptotic(1.0, 10.0).warnings == ()

    def test_overflow_warning(self):
        res = pearcey_asymptotic(0.0, -300j)
        assert not cmath.isfinite(res.value)
        assert any("overflow" in w for w in res.warnings)

    def test_validation(self):
        with pytest.raises(ValueError, match="y = 0"):
            pearcey_asymptotic(1.0, 0.0)
        with pytest.raises(ValueError, match="precondition"):
            pearcey_asymptotic(1.0, 10.0, order=-1)
        with pytest.raises(ValueError, match="cap"):
            pearcey_asymptotic(1.0, 10.0, order=64)

    def test_order_up_to_cap_supported(self):
        res = pearcey_asymptotic(1.0, 10.0, order=63)
        assert cmath.isfinite(res.value)


class TestStokesClassification:
    @pytest.mark.parametrize("y,dom,anti", [
        (5j, Dominance.P2, False),
        (7.0, Dominance.BOTH, False),
        (-7.0, Dominance.BOTH, False),
        (2 - 2j, Dominance.P1, False),
        (-2 + 2j, Dominance.P1, False),
        (polar(10, -3 * PI / 8), Dominance.P1, True),
        (polar(10, 3 * PI / 8), Dominance.P2, True),
        (polar(10, 3 * PI / 8 + 1e-6), Dominance.P2, False),
    ])
    def test_patterns(self, y, dom, anti):
        info = stokes_classification(y)
        assert info.dominant is dom
        assert info.on_anti_stokes is anti

    def test_origin_rejected(self):
        with pytest.raises(ValueError, match="y = 0"):
            stokes_classification(0.0)
