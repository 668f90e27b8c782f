"""Expansion-layer tests.

The numerical truth of the expansion against an independent integrator
lives in test_acceptance.py; here we pin the structure: normalisation,
region routing, prefactor and series identities, result invariants, and
the Stokes/anti-Stokes classification.
"""

import cmath
import collections
import math
import random

import numpy as np
import pytest

from pearcey import (Dominance, Region, classify_region, normalize,
                     pearcey_asymptotic, series_coeff, stokes_classification)
from pearcey import asymptotics
from pearcey.asymptotics import EvalPoint, pearcey_branch, prefactor

PI = math.pi


def polar(mod, arg):
    return mod * cmath.exp(1j * arg)


class TestNormalize:
    def test_negative_real_axis_flips(self):
        point = normalize(1.0, -10.0)
        assert point.y == 10
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
        for k in (1, 2):
            with pytest.raises(ValueError, match="finite"):
                prefactor(k, x, y)


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
        point = EvalPoint(x=1 + 0j, y=polar(20, theta), theta=theta)
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


class TestPearceyBranch:
    def test_order_zero_is_pure_phase(self):
        x, y = 1.3, 17.0
        assert pearcey_branch(1, x, y, 0) / prefactor(1, x, y) == pytest.approx(
            cmath.exp(-1j * PI / 6), rel=1e-15)
        assert pearcey_branch(2, x, y, 0) / prefactor(2, x, y) == pytest.approx(
            cmath.exp(1j * PI / 6), rel=1e-15)

    def test_increments_have_coefficient_modulus(self):
        # successive orders differ by prefactor * A_n y^(-2n/3) times a
        # unit phase, so |difference| / |prefactor| = |A_n| |y|^(-2n/3)
        x, y = -2.0, polar(17.0, 0.3)
        for k in (1, 2):
            scale = abs(prefactor(k, x, y))
            prev = pearcey_branch(k, x, y, 0)
            for n in range(1, 6):
                cur = pearcey_branch(k, x, y, n)
                expected = abs(series_coeff(n, x)) * abs(y) ** (-2 * n / 3)
                assert abs(cur - prev) / scale == pytest.approx(expected, rel=1e-13)
                prev = cur

    def test_validation(self):
        with pytest.raises(ValueError, match="branch"):
            pearcey_branch(0, 1.0, 10.0, 2)
        with pytest.raises(ValueError, match="branch"):
            pearcey_branch(3, 1.0, 10.0, 2)
        with pytest.raises(ValueError, match="y = 0"):
            pearcey_branch(1, 1.0, 0.0, 2)
        with pytest.raises(ValueError, match="precondition"):
            pearcey_branch(1, 1.0, 10.0, -1)

    @pytest.mark.parametrize("order", [2.0, True, False, "2", None])
    def test_non_integral_order_rejected(self, order):
        # a float failed deep inside with TypeError, True ran as order 1
        with pytest.raises(ValueError, match="order must be an int"):
            pearcey_branch(1, 1.0, 10.0, order)

    def test_numpy_integer_order(self):
        assert (pearcey_branch(1, 1.0, 10.0, np.int64(3))
                == pearcey_branch(1, 1.0, 10.0, 3))

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

    @pytest.mark.parametrize("x", [complex(1.0, 0.5), complex(-2.0, -0.3)])
    @pytest.mark.parametrize("y", [20.0, polar(20, PI / 4), polar(20, -3 * PI / 8)],
                             ids=["CASE3", "CASE2", "CASE1"])
    def test_partial_sums_equal_lower_orders(self, x, y):
        # table_rows reads every order of a row from one expansion's partial
        # sums, so they must equal the lower-order values exactly
        values = [pearcey_asymptotic(x, y, n).value for n in range(12)]
        for top in range(1, 13):
            partial_sums = pearcey_asymptotic(x, y, top).partial_sums
            for n in range(top):
                assert partial_sums[n] == values[n], (top, n)

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

    @pytest.mark.parametrize("x,y,needle", [
        # true values: 3.6e269 at (-50, 30), 0.0574 at (10, 8)
        (-50.0, 30.0, "first omitted term"),
        (10.0, 8.0, "first omitted term"),
        (1.0, 1e4, "underflowed to zero"),
    ])
    def test_unresolved_warning(self, x, y, needle):
        res = pearcey_asymptotic(x, y)
        assert res.first_omitted_magnitude >= abs(res.value)
        assert [w for w in res.warnings if "does not resolve" in w
                and needle in w]

    @pytest.mark.parametrize("y,prefactor_calls", [
        (polar(20, -3 * PI / 8), 1), (polar(20, PI / 4), 1), (20.0, 2),
    ], ids=["CASE1", "CASE2", "CASE3"])
    def test_work_counts(self, monkeypatch, y, prefactor_calls):
        # bench/spans.py reports these two counts as layer metrics
        calls = collections.Counter()

        def counted(name):
            original = getattr(asymptotics, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(asymptotics, name, wrapper)

        counted("build_table")
        counted("prefactor")
        pearcey_asymptotic(1.0, y, order=5)
        assert calls == {"build_table": 1, "prefactor": prefactor_calls}

    def test_validation(self):
        with pytest.raises(ValueError, match="y = 0"):
            pearcey_asymptotic(1.0, 0.0)
        with pytest.raises(ValueError, match="precondition"):
            pearcey_asymptotic(1.0, 10.0, order=-1)
        with pytest.raises(ValueError, match="order 64.*cap 63"):
            pearcey_asymptotic(1.0, 10.0, order=64)

    @pytest.mark.parametrize("order", [2.0, True, False, "2", None])
    def test_non_integral_order_rejected(self, order):
        # a float failed deep inside with TypeError, True returned a
        # result with order=True
        with pytest.raises(ValueError, match="order must be an int"):
            pearcey_asymptotic(1.0, 10.0, order)

    def test_numpy_integer_order(self):
        res = pearcey_asymptotic(1.0, 10.0, np.int64(3))
        assert res == pearcey_asymptotic(1.0, 10.0, 3)
        assert type(res.order) is int

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

    def test_branch_moduli_geometry(self):
        # log|p2/p1| = 3^(3/2) 4^(-4/3) |y|^(4/3) sin(4 theta/3) at x = 0:
        # equal moduli on the real axis, branch 2 most dominant at 3pi/8
        def log_ratio(theta):
            y = polar(20, theta)
            return math.log(abs(prefactor(2, 0.0, y)) / abs(prefactor(1, 0.0, y)))

        assert abs(prefactor(1, 0.0, 20.0)) == pytest.approx(
            abs(prefactor(2, 0.0, 20.0)), rel=1e-14)
        grid = [k * PI / 64 for k in range(-32, 33)]
        ratios = [log_ratio(theta) for theta in grid]
        assert grid[ratios.index(max(ratios))] == pytest.approx(3 * PI / 8)
        assert grid[ratios.index(min(ratios))] == pytest.approx(-3 * PI / 8)
