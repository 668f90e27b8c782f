"""Coefficient family tests.

Covers, in order:
1. expansion weights: hand-computed lattice values and index preconditions
2. moments: recursion values against hand-derived low-order closed forms,
   recursion vs closed-form agreement, and the defining Gaussian-moment
   integral evaluated with mpmath as an independent oracle
3. series coefficients: normalisation, the hand-derived order-1 formula,
   reality for real x
4. table assembly: consistency, stored-recursion residual, order cap
5. non-finite x: every public coefficient function rejects NaN and inf
"""

import cmath
import math
import random

import mpmath as mp
import pytest

from pearcey import build_table, moment_coeff, moment_coeff_closed, series_coeff
from pearcey.coefficients import expansion_weight

CUBE2 = 2.0 ** (1.0 / 3.0)


class TestExpansionWeight:
    @pytest.mark.parametrize("n,m,k,x,expected", [
        (0, 0, 0, 0.7, 1.0),
        (1, 1, 0, 3.0, -(2.0 ** (4.0 / 3.0))),
        (1, 1, 1, 2.0, -2.0),
        (2, 1, 0, 1.0, -1.0),
        (2, 2, 0, 1.0, 2.0 ** (8.0 / 3.0) / 2.0),
    ])
    def test_lattice_values(self, n, m, k, x, expected):
        assert expansion_weight(n, m, k, x) == pytest.approx(expected, rel=1e-15)

    def test_complex_x(self):
        w = expansion_weight(1, 1, 1, 1 + 1j)
        assert w == pytest.approx(-(1 + 1j), rel=1e-15)

    @pytest.mark.parametrize("n,m,k", [
        (2, 0, 0),   # m below floor((n+1)/2)
        (1, 2, 0),   # m above n
        (1, 1, 2),   # k above 2m-n
        (1, 1, -1),  # k negative
        (-1, 0, 0),  # n negative
    ])
    def test_preconditions(self, n, m, k):
        with pytest.raises(ValueError, match="precondition"):
            expansion_weight(n, m, k, 1.0)


class TestMoments:
    def test_normalisation(self):
        for x in (0, 1.5, -2, 1 + 2j):
            assert moment_coeff(0, x) == 1

    @pytest.mark.parametrize("x", [1.0, 2.0, -1.5, 0.5 + 0.5j])
    def test_low_orders_hand_derived(self, x):
        # c_1 = x/(3*2^(1/3)); c_2 = x^2/(9*2^(2/3)) + 1/(3*2^(2/3));
        # c_3 = x^3/54 + x/6
        assert moment_coeff(1, x) == pytest.approx(x / (3 * CUBE2), rel=1e-14)
        assert moment_coeff(2, x) == pytest.approx(
            x * x / (9 * CUBE2 ** 2) + 1 / (3 * CUBE2 ** 2), rel=1e-14)
        assert moment_coeff(3, x) == pytest.approx(x ** 3 / 54 + x / 6, rel=1e-14)

    @pytest.mark.parametrize("x", [1.0, -1.0, 2.0, -2.0, 1 + 1j])
    @pytest.mark.parametrize("n", range(13))
    def test_recursion_matches_closed_form(self, n, x):
        rec = moment_coeff(n, x)
        closed = moment_coeff_closed(n, x)
        assert abs(rec - closed) <= 1e-12 * (1 + abs(rec))

    def test_closed_form_rejects_origin(self):
        with pytest.raises(ValueError, match="x = 0"):
            moment_coeff_closed(3, 0.0)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="precondition"):
            moment_coeff(-1, 1.0)

    @pytest.mark.parametrize("x", [0.0, 1.0, -2.0])
    @pytest.mark.parametrize("n", range(9))
    def test_gaussian_moment_integral(self, n, x):
        # c_n is the n-th moment of exp(-3*2^(-1/3) u^2 + 2^(1/3) x u),
        # normalised by the x-shifted Gaussian mass.
        with mp.workdps(30):
            a = 3 * mp.mpf(2) ** mp.mpf("-1/3")
            b = mp.mpf(2) ** mp.mpf("1/3") * x
            weight = lambda u: mp.exp(-a * u * u + b * u) * u ** n
            integral = mp.quad(weight, [-mp.inf, mp.inf])
            oracle = complex(mp.sqrt(a / mp.pi) * mp.exp(-mp.mpf(x) ** 2 / 6)
                             * integral)
        value = moment_coeff(n, x)
        assert abs(value - oracle) <= 1e-9 * (1 + abs(oracle))


class TestSeriesCoefficients:
    def test_zeroth_is_one(self):
        rng = random.Random(20260819)
        for _ in range(100):
            x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            assert series_coeff(0, x) == 1

    @pytest.mark.parametrize("x", [1.0, -2.0, 0.5, 2 + 1j])
    def test_first_order_hand_derived(self, x):
        # A_1(x) = 2^(1/3) x (9 - x^2) / 54
        expected = CUBE2 * x * (9 - x * x) / 54
        assert series_coeff(1, x) == pytest.approx(expected, rel=1e-13)

    def test_first_order_reference_point(self):
        assert series_coeff(1, 1.0).real == pytest.approx(0.1866549703547960,
                                                          abs=1e-15)
        assert abs(series_coeff(1, 0.0)) <= 1e-15

    @pytest.mark.parametrize("x", [-2.0, -1.0, 0.0, 0.5, 1.0, 2.0])
    def test_real_for_real_x(self, x):
        for n in range(11):
            a = series_coeff(n, x)
            assert abs(a.imag) <= 1e-13 * (1 + abs(a))

    @pytest.mark.parametrize("x", [0.0, 1.0, -2.0, 1 + 1j, 2.5 - 0.5j, 3.0,
                                   -3.0])
    def test_series_obey_ode_recurrence(self, x):
        # 4 P_yyy - 2x P_y - y P = 0 (DLMF 36.10) forces a four-term
        # recurrence on either branch's series, with A_n = 0 for n < 0
        a = build_table(x, 8).series
        at = lambda n: a[n] if n >= 0 else 0.0
        for n in range(1, 9):
            terms = [
                -n * at(n),
                CUBE2 * x * (18 * n - 9 - x * x) / 54 * at(n - 1),
                CUBE2 ** 2 * (12 * n * n - 24 * n + 7 - 2 * (n - 1) * x * x)
                / 18 * at(n - 2),
                -x * (12 * n * n - 36 * n + 19) / 27 * at(n - 3),
                -2 * CUBE2 * (n - 2) * (2 * n - 7) * (2 * n - 1) / 27
                * at(n - 4),
            ]
            scale = max(abs(t) for t in terms)
            assert abs(sum(terms)) <= 1e-10 * scale + 1e-14, f"order {n}"


class TestTable:
    def test_matches_pointwise_ops(self):
        table = build_table(1.5, 6)
        assert len(table.moments) == 19
        assert len(table.series) == 7
        for n in range(7):
            assert table.series[n] == series_coeff(n, 1.5)
        for n in range(19):
            assert table.moments[n] == moment_coeff(n, 1.5)

    @pytest.mark.parametrize("x", [1.0, -2.0, 1 + 1j])
    def test_stored_recursion_residual(self, x):
        table = build_table(x, 5)
        c = table.moments
        for n in range(len(c) - 2):
            lhs = c[n + 2]
            rhs = x / (3 * CUBE2) * c[n + 1] + (n + 1) / (3 * CUBE2 ** 2) * c[n]
            assert abs(lhs - rhs) <= 1e-14 * (1 + abs(lhs))

    def test_order_cap(self):
        build_table(1.0, 64)
        with pytest.raises(ValueError, match="cap"):
            build_table(1.0, 65)
        with pytest.raises(ValueError, match="cap"):
            series_coeff(65, 1.0)

    def test_minimal_table(self):
        table = build_table(0.0, 0)
        assert table.series == (1 + 0j,)
        assert table.moments == (1 + 0j,)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="precondition"):
            build_table(1.0, -1)


class TestNonFiniteX:
    @pytest.mark.parametrize("func", [moment_coeff, moment_coeff_closed,
                                      series_coeff, build_table],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf,
                                   complex(1.0, math.nan),
                                   complex(0.0, math.inf)])
    def test_rejected(self, func, x):
        with pytest.raises(ValueError, match="x must be finite"):
            func(x, 3) if func is build_table else func(3, x)
