"""Bessel routines against independent series oracles, mpmath and scipy."""

import cmath
import math
import sys
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import jn_zeros

from spinbeam.errors import ConvergenceError
from spinbeam.specfun import (
    HalfInt, _iv_pair, _jn_pair, _kapteyn_size, _underflow_size, bessel_i_scaled, bessel_j,
    bessel_j_zero,
)

mp.mp.dps = 40


def j_series(n: int, x: float, terms: int = 40) -> float:
    """Plain ascending-series oracle for J_n, independent of the library."""
    total = 0.0
    for k in range(terms):
        total += (-1.0) ** k * (x / 2.0) ** (n + 2 * k) / (
            math.factorial(k) * math.factorial(n + k)
        )
    return total


def i_series(nu: float, z: complex, terms: int = 50) -> complex:
    """Ascending-series oracle for I_nu at complex argument."""
    total = 0.0j
    for k in range(terms):
        total += cmath.exp(
            (nu + 2 * k) * cmath.log(z / 2.0)
            - math.lgamma(k + 1.0)
            - math.lgamma(nu + k + 1.0)
        )
    return total


class TestHalfInt:
    def test_parse_forms(self):
        assert HalfInt.parse("1/2").twice_value == 1
        assert HalfInt.parse("-3/2").twice_value == -3
        assert HalfInt.parse("2").twice_value == 4
        assert HalfInt.parse(" -1/2 ").twice_value == -1

    def test_parse_rejects_other_denominators(self):
        with pytest.raises(ValueError):
            HalfInt.parse("1/3")

    def test_integer_detection(self):
        assert HalfInt(4).is_integer
        assert not HalfInt(3).is_integer
        assert HalfInt(4).as_int() == 2
        with pytest.raises(ValueError):
            HalfInt(3).as_int()

    def test_float_value_without_arithmetic(self):
        # an order is only held exactly; neighbours are built from twice_value
        assert float(HalfInt(-1)) == -0.5
        assert float(HalfInt(3)) == 1.5
        with pytest.raises(TypeError):
            HalfInt(3) + 1
        with pytest.raises(TypeError):
            HalfInt(3) - HalfInt(1)
        with pytest.raises(TypeError):
            -HalfInt(3)

    def test_ordering_and_str(self):
        assert HalfInt(1) < HalfInt(3)
        assert str(HalfInt(-3)) == "-3/2"
        assert str(HalfInt(4)) == "2"

    def test_rejects_non_integer_storage(self):
        with pytest.raises(TypeError):
            HalfInt(1.5)

    @given(st.integers(min_value=-200, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_str_parse_roundtrip(self, twice):
        h = HalfInt(twice)
        assert HalfInt.parse(str(h)) == h


class TestBesselJ:
    def test_at_origin(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(3, 0.0) == 0.0
        # x/2 underflows to 0 at the smallest subnormal
        assert bessel_j(0, 5e-324) == 1.0

    def test_near_first_zero(self):
        assert abs(bessel_j(0, 2.4048)) < 5e-5

    def test_reflection_example(self):
        assert bessel_j(-3, 2.0) == -bessel_j(3, 2.0)

    def test_series_oracle_value(self):
        oracle = j_series(1, 1.0)
        assert abs(oracle - 0.44005058574493) < 1e-12
        assert abs(bessel_j(1, 1.0) - oracle) < 1e-13

    def test_against_series_small_arguments(self):
        for n in range(0, 7):
            for x in (1e-3, 0.3, 1.0, 2.7, 5.5):
                want = j_series(n, x)
                assert abs(bessel_j(n, x) - want) <= 1e-13 * max(1.0, abs(want))

    def test_against_mpmath_wide(self):
        rng = np.random.default_rng(99)
        for n in (0, 1, 2, 4, 7, 12):
            for x in list(np.geomspace(1e-4, 990.0, 25)) + list(rng.uniform(0, 1000, 10)):
                mine = bessel_j(n, float(x))
                ref = float(mp.besselj(n, mp.mpf(float(x))))
                # relative 1e-12 away from zeros, envelope-scaled floor at them
                envelope = math.sqrt(2.0 / (math.pi * max(float(x), 1e-2)))
                assert abs(mine - ref) <= 1e-12 * abs(ref) + 1e-13 * envelope

    def test_small_argument_power_law(self):
        x = 1e-4
        for n in range(6):
            scaled = bessel_j(n, x) * 2.0 ** n * math.factorial(n) / x ** n
            assert abs(scaled - 1.0) < 1e-6

    @given(st.integers(min_value=1, max_value=8),
           st.floats(min_value=0.05, max_value=80.0))
    @settings(max_examples=60, deadline=None)
    def test_recurrence(self, n, x):
        lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
        rhs = 2.0 * n / x * bessel_j(n, x)
        scale = abs(bessel_j(n - 1, x)) + abs(bessel_j(n + 1, x)) + abs(rhs)
        assert abs(lhs - rhs) <= 1e-10 * max(scale, 1e-30)

    @given(st.integers(min_value=1, max_value=9),
           st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=40, deadline=None)
    def test_reflection_property(self, n, x):
        assert bessel_j(-n, x) == (-1.0) ** n * bessel_j(n, x)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bessel_j(0, -1.0)
        with pytest.raises(ValueError):
            bessel_j(HalfInt(1), 1.0)
        with pytest.raises(ValueError):
            bessel_j(0, float("nan"))

    def test_array_input(self):
        x = np.array([0.0, 1.0, 10.0, 400.0])
        vals = bessel_j(2, x)
        assert vals.shape == x.shape
        for xi, vi in zip(x, vals):
            assert vi == bessel_j(2, float(xi))

    def test_halfint_integer_order_accepted(self):
        assert bessel_j(HalfInt(2), 1.0) == bessel_j(1, 1.0)

    @pytest.mark.parametrize("n", range(13))
    def test_pair_equals_two_calls(self, n):
        # J_n and J_{n+1} from one pass, in every regime and at x = 0; past
        # 50 max(1, n) J_n is asymptotic, and J_{n+1} only past 50 (n + 1)
        top = 50.0 * max(1, n)
        x = np.concatenate([[0.0, 1e-300, 0.4, 3.0, 6.0], np.linspace(6.01, top, 40),
                            np.linspace(top + 1e-9, 50.0 * (n + 2), 40), [2500.0]])
        for batch in (x, x[x > 6.0], x[x > top]):
            pair = _jn_pair(n, batch)
            assert pair.shape == (2,) + batch.shape
            assert np.max(np.abs(pair[0] - bessel_j(n, batch))) <= 1e-15
            assert np.max(np.abs(pair[1] - bessel_j(n + 1, batch))) <= 1e-15

    @pytest.mark.parametrize("n,x", [
        pytest.param(6, [6.01, 7.3, 12.0, 299.0], id="6"),
        pytest.param(12, [6.01, 7.3, 12.0, 599.0], id="12"),
        # a smallest argument far above the regime floor sets a longer stride
        # between the overflow tests
        pytest.param(12, [40.0, 90.0, 300.0, 599.0], id="12-far-from-floor"),
    ])
    def test_rescaled_recurrence_against_mpmath(self, n, x):
        # the recurrence starts above the batch's largest argument, so at the
        # smallest one it grows far past the overflow threshold and rescales
        _check_pair_against_mpmath(n, x)

    @pytest.mark.parametrize("n", [16, 20, 29, 40])
    def test_large_argument_at_high_order_against_mpmath(self, n):
        # both rows of the pair past 50 n: J_n from Hankel's expansion, J_{n+1}
        # from the recurrence just above 50 n and from the expansion past
        # 50 (n + 1)
        _check_pair_against_mpmath(n, [v for v in (1.001 * 50.0 * n, 100.0 * n, 2500.0) if v <= 2500.0])

    @pytest.mark.parametrize("x0", [3000.0, 1e4, 2e5])
    def test_large_argument_phase_against_mpmath(self, x0):
        # the phase x - (n/2 + 1/4) pi formed in doubles loses up to ulp(x),
        # which alone misses the bound from x ~ 3000 on
        x = np.linspace(x0, 1.01 * x0, 7).tolist()
        for n in range(0, 41, 4):
            _check_pair_against_mpmath(n, x)


    def test_high_order_hankel_expansion_against_mpmath(self):
        # J_1000 and J_1001 past their switches, 5e4 and 50,050: the expansion's
        # terms fall below 1e-18 within its 60
        _check_pair_against_mpmath(1000, [6e4, 2e5])

    def test_hankel_expansion_past_sixty_terms_is_refused(self):
        # at order 10^4 and x = 6e5 the terms still grow at the 60th; the parent
        # summed overflowed coefficients into NaN, with two RuntimeWarnings
        with pytest.raises(ConvergenceError, match=r"order 10000 at \|z\| = 600000\.0"):
            bessel_j(10000, 6e5)


def _check_pair_against_mpmath(n, x):
    # both rows of _jn_pair(n, x) at test_against_mpmath_wide's bound
    for row, values in enumerate(_jn_pair(n, np.array(x))):
        for xi, mine in zip(x, values.tolist()):
            ref = float(mp.besselj(n + row, mp.mpf(xi)))
            envelope = math.sqrt(2.0 / (math.pi * xi))
            assert abs(mine - ref) <= 1e-12 * abs(ref) + 1e-13 * envelope


class TestBesselJZero:
    def test_first_zero_anchor(self):
        z = bessel_j_zero(0, 1)
        assert abs(z - 2.4048) < 5e-5
        assert abs(z - 2.404825557695773) < 1e-9

    def test_first_zero_of_j1(self):
        assert abs(bessel_j_zero(1, 1) - 3.831705970207512) < 1e-9

    def test_root_refinement_oracle(self):
        # bisection on the plain series evaluation, fully independent path
        lo, hi = 2.0, 3.0
        flo = j_series(0, lo, terms=60)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fmid = j_series(0, mid, terms=60)
            if flo * fmid <= 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
        assert abs(bessel_j_zero(0, 1) - 0.5 * (lo + hi)) < 1e-10

    def test_against_scipy(self):
        for n, idx in [(0, 3), (1, 2), (2, 10), (5, 1), (0, 30)]:
            assert abs(bessel_j_zero(n, idx) - jn_zeros(n, idx)[-1]) < 1e-9

    @pytest.mark.parametrize("n", [0, 1, 5, 22, 23, 30, 40])
    def test_first_five_zeros_against_scipy(self, n):
        # from order 22 a guess-and-widen bracket around the McMahon estimate
        # can land between zeros and catch the next one (j_{23,2} for j_{23,1})
        got = np.array([bessel_j_zero(n, idx) for idx in range(1, 6)])
        want = jn_zeros(n, 5)
        assert np.max(np.abs(got - want) / want) < 1e-12

    def test_interlacing(self):
        for n in range(0, 4):
            z_n1 = bessel_j_zero(n, 1)
            z_np1 = bessel_j_zero(n + 1, 1)
            z_n2 = bessel_j_zero(n, 2)
            assert z_n1 < z_np1 < z_n2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bessel_j_zero(-1, 1)
        with pytest.raises(ValueError):
            bessel_j_zero(0, 0)


class TestBesselI:
    def test_half_order_hyperbolic_forms(self):
        want = math.sqrt(2.0 / math.pi) * math.sinh(1.0) * math.exp(-1.0)
        assert abs(bessel_i_scaled(HalfInt(1), 1.0) - want) < 1e-14
        want = math.sqrt(2.0 / math.pi) * math.cosh(1.0) * math.exp(-1.0)
        assert abs(bessel_i_scaled(HalfInt(-1), 1.0) - want) < 1e-14

    def test_at_origin(self):
        assert bessel_i_scaled(0, 0.0) == 1.0
        assert bessel_i_scaled(1, 0.0) == 0.0
        assert bessel_i_scaled(HalfInt(1), 0.0) == 0.0
        with pytest.raises(ValueError):
            bessel_i_scaled(HalfInt(-1), 0.0)

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            bessel_i_scaled(HalfInt(-3), 1.0)
        with pytest.raises(ValueError):
            bessel_i_scaled(-1, 1.0)

    def test_series_oracle_complex(self):
        z = 0.5 + 0.5j
        want = i_series(1.0, z) * cmath.exp(-z)
        got = bessel_i_scaled(1, z)
        assert abs(got - want) <= 1e-10 * abs(want)

    def test_real_argument_gives_real_value(self):
        for nu in (0, 1, 2, HalfInt(1), HalfInt(3), HalfInt(-1)):
            for x in (0.2, 3.0, 25.0, 400.0):
                v = bessel_i_scaled(nu, x)
                assert abs(v.imag) <= 1e-13 * abs(v)

    def test_recurrence_over_complex_domain(self):
        worst = 0.0
        for twice_nu in (1, 2, 3, 4, 6):
            nu = HalfInt(twice_nu)
            for radius in (0.5, 3.0, 15.0, 45.0, 200.0, 1500.0):
                for theta in (0.0, 0.7, 1.3, -0.7, -1.3):
                    z = cmath.rect(radius, theta)
                    a = bessel_i_scaled(HalfInt(twice_nu - 2), z)
                    b = bessel_i_scaled(nu, z)
                    c = bessel_i_scaled(HalfInt(twice_nu + 2), z)
                    res = abs(a - c - (2.0 * float(nu) / z) * b) / max(abs(a), abs(c))
                    worst = max(worst, res)
        assert worst < 1e-9

    @given(st.floats(min_value=0.1, max_value=500.0),
           st.floats(min_value=-1.4, max_value=1.4),
           st.integers(min_value=0, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_recurrence_property(self, radius, theta, n):
        nu = HalfInt.from_int(n + 1)
        z = cmath.rect(radius, theta)
        a = bessel_i_scaled(HalfInt.from_int(n), z)
        b = bessel_i_scaled(nu, z)
        c = bessel_i_scaled(HalfInt.from_int(n + 2), z)
        res = abs(a - c - (2.0 * float(nu) / z) * b) / max(abs(a), abs(c))
        assert res < 1e-9

    def test_scaled_rejects_left_half_plane(self):
        with pytest.raises(ValueError):
            bessel_i_scaled(0, -1.0 + 0.5j)

    def test_against_mpmath(self):
        for nu in (HalfInt(-1), HalfInt(0), HalfInt(1), HalfInt(3), HalfInt(4), HalfInt(7)):
            fnu = float(nu)
            for radius in (0.05, 1.3, 8.0, 19.5, 21.0, 90.0, 2000.0):
                for theta in (0.0, 0.8, 1.45, -0.8, -1.45):
                    z = cmath.rect(radius, theta)
                    got = bessel_i_scaled(nu, z)
                    ref = complex(mp.besseli(mp.mpf(fnu), mp.mpc(z)) * mp.exp(-mp.mpc(z)))
                    assert abs(got - ref) <= 1e-10 * abs(ref)

    def test_array_contract(self):
        # a scalar gives a complex, an array keeps its shape, even when empty
        z = np.array([[0.0, 0.5 + 0.5j, 3.0 - 1.0j], [25.0j + 1.0, 90.0, 2000.0 + 5.0j]])
        for nu in (0, 1, 3, HalfInt(1), HalfInt(5)):
            got = bessel_i_scaled(nu, z)
            assert got.shape == z.shape and got.dtype == complex
            for idx in np.ndindex(z.shape):
                one = bessel_i_scaled(nu, complex(z[idx]))
                assert type(one) is complex
                assert abs(got[idx] - one) <= 1e-14 * max(abs(one), 1e-300)
            empty = bessel_i_scaled(nu, np.zeros((0, 3)))
            assert empty.shape == (0, 3) and empty.dtype == complex


def _pair_arguments(twice: int) -> np.ndarray:
    """Complex arguments in every regime of the pair of orders twice/2 and
    twice/2 + 1: the series, Miller and asymptotic bands of integer orders,
    and either side of each half-integer order's own series switch."""
    switches = [max(2.0, twice), max(2.0, twice + 2)]
    radii = [0.05, 1.3, 2.0, 2.1, 8.0, 30.0, 59.0, 61.0, 90.0, 400.0, 2000.0, switches[0] + 1.0]
    radii += [f * s for s in switches for f in (0.97, 1.03)]
    angles = np.array([0.0, 0.8, 1.45, -0.8, -1.45])
    return (np.array(sorted(radii))[:, None] * np.exp(1j * angles)).ravel()


def _mp_scaled_i(nu: float, z: np.ndarray) -> np.ndarray:
    return np.array([complex(mp.besseli(mp.mpf(nu), mp.mpc(v)) * mp.exp(-mp.mpc(v)))
                     for v in z.tolist()])


class TestBesselIPair:
    @pytest.mark.parametrize("twice", range(-1, 14))
    def test_both_rows_against_mpmath(self, twice):
        # the half-integer recurrence loses up to 5.5e-13 just above its switch
        z = _pair_arguments(twice)
        pair = _iv_pair(HalfInt(twice), z)
        assert pair.shape == (2,) + z.shape and pair.dtype == complex
        for row, nu in zip(pair, (twice / 2.0, twice / 2.0 + 1.0)):
            ref = _mp_scaled_i(nu, z)
            assert np.max(np.abs(row - ref) / np.abs(ref)) <= 1e-12

    def test_rescaled_recurrence_at_high_order(self):
        # the Miller recurrence (2 < |z| <= 166^2/4 at this order) starts at
        # order 165 + 96, the cushion above the order itself (it exceeds every
        # |z| here), and grows by about 1e514 down to order 0 at |z| = 2.1:
        # past the rescale threshold 1e250 from its 1e-250 start.  (At order
        # 150 it grows by 1e473 only, and never rescales.)  The values at
        # |z| = 2.1 are about 1e-296, still normal numbers.  The order-20 batch
        # lies far above the regime floor |z| = 2, which sets a longer stride
        # between the overflow tests.
        def batch(moduli, phases):
            return (np.array(moduli)[:, None] * np.exp(1j * np.array(phases))).ravel()

        for n, z in ((165, batch([2.1, 30.0, 59.0], [0.0, 1.0, -1.45])),
                     (20, batch([30.0, 59.0, 80.0, 110.0], [0.0, 1.0, -1.45, 0.8]))):
            pair = _iv_pair(n, z)
            for row, nu in zip(pair, (n, n + 1)):
                ref = _mp_scaled_i(nu, z)
                assert np.max(np.abs(row - ref) / np.abs(ref)) <= 1e-12

    @pytest.mark.parametrize("twice", range(-1, 14))
    def test_second_row_is_next_order(self, twice):
        # each order keeps its own regime thresholds, so row 1 is e^{-z} I_{nu+1}
        # as bessel_i_scaled computes it, to roundoff
        z = _pair_arguments(twice)
        pair = _iv_pair(HalfInt(twice), z)
        want = bessel_i_scaled(HalfInt(twice + 2), z)
        assert np.max(np.abs(pair[1] - want) / np.abs(want)) <= 1e-15

    @pytest.mark.parametrize("twice", [15, 21, 29, 41, 61, 81])
    def test_high_half_integer_orders_against_mpmath(self, twice):
        # every regime of both orders, either side of each switch (|z| = 2 and
        # mu^2/4), and the bands where a per-order series switch at 2 mu or the
        # upward recurrence just past it lost digits, out to phases +-1.55
        mu = twice / 2.0
        switches = [2.0, mu * mu / 4.0, (mu + 1.0) ** 2 / 4.0]
        radii = [0.01, 0.7, 8.0, 0.9 * twice, twice, 1.1 * twice, 3000.0]
        radii += [f * s for s in switches for f in (0.99, 1.0, 1.01)]
        phases = np.array([0.0, 0.6, -0.6, 1.2, -1.2, 1.55, -1.55])
        z = (np.array(sorted(radii))[:, None] * np.exp(1j * phases)).ravel()
        pair = _iv_pair(HalfInt(twice), z)
        with mp.workdps(30):
            for row, nu in zip(pair, (mu, mu + 1.0)):
                ref = _mp_scaled_i(nu, z)
                assert np.max(np.abs(row - ref) / np.abs(ref)) <= 1e-12

    def test_reflection_phase_of_the_large_argument_closure(self):
        # near the imaginary axis the closure adds e^{+-(mu+1/2) pi i} e^{-2z}
        # times a Hankel sum; forming that phase as exp(i (mu+1/2) pi - 2z)
        # rounded it at ulp(2|z|), 1.1e-13 of the terms here.  The error is
        # measured on the terms' scale (1 + |e^{-2z}|)/sqrt(2 pi |z|), since
        # near a zero of J_n on the axis the terms cancel.
        moduli = np.array([60.5, 150.0, 400.0, 900.0, 1200.0])
        phases = np.array([1.2, 1.4, 1.5, 1.56, 0.5 * math.pi])
        z = (moduli[:, None] * np.exp(1j * np.concatenate([phases, -phases]))).ravel()
        scale = (1.0 + np.exp(-2.0 * z.real)) / np.sqrt(2.0 * math.pi * np.abs(z))
        with mp.workdps(30):
            for n in range(14):
                for row, nu in zip(_iv_pair(n, z), (n, n + 1)):
                    assert np.max(np.abs(row - _mp_scaled_i(nu, z)) / scale) <= 2e-15

    def test_shape_and_origin(self):
        z = np.array([[0.0, 3.0], [70.0, 0.5j + 0.1]])
        for twice in (0, 1, 2):
            pair = _iv_pair(HalfInt(twice), z)
            assert pair.shape == (2, 2, 2)
            assert pair[0, 0, 0] == (1.0 if twice == 0 else 0.0) and pair[1, 0, 0] == 0.0
        assert _iv_pair(0, 2.5).shape == (2,)
        assert _iv_pair(HalfInt(3), np.zeros((0, 4))).shape == (2, 0, 4)
        with pytest.raises(ValueError):
            _iv_pair(HalfInt(-1), 0.0)


_PHASES = np.array([0.0, 0.8, 1.45, -0.8, -1.45])


class TestOrderAwareSwitch:
    @pytest.mark.parametrize("n", range(16, 41))
    def test_large_argument_against_mpmath(self, n):
        # the expansion serves |z| > max(60, (n + 1)^2 / 4) only: below that
        # its second term exceeds the first at these orders, and the rule
        # that stops at the smallest term would keep an O(1) error
        z = (np.array([61.0, 100.0, 150.0, 400.0, 2000.0])[:, None] * np.exp(1j * _PHASES)).ravel()
        pair = _iv_pair(n, z)
        for row, nu in zip(pair, (n, n + 1)):
            ref = _mp_scaled_i(nu, z)
            assert np.max(np.abs(row - ref) / np.abs(ref)) <= 1e-12


class TestBatchIndependence:
    # the asymptotic term count follows the batch's smallest |z| and the Miller
    # start its largest, so a batch must give every element its own value
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 15, 16, 20, 29, 39, 40])
    def test_iv_pair(self, n):
        switch = max(60.0, (n + 1) ** 2 / 4.0)
        radii = np.array([2.0 * 1.001, switch * 0.999, switch * 1.001, 2000.0])
        z = (radii[:, None] * np.exp(1j * _PHASES)).ravel()
        batch = _iv_pair(n, z)
        for i, v in enumerate(z.tolist()):
            one = _iv_pair(n, v)
            assert np.max(np.abs(batch[:, i] - one) / np.abs(one)) <= 1e-14

    @pytest.mark.parametrize("twice", [0, 1, 2])
    def test_iv_pair_with_zeros(self, twice):
        # z = 0 takes its limit in the one pass over the batch: every other
        # element, in every regime (reflected Hankel term included), keeps its bits
        z = _pair_arguments(twice)
        got = _iv_pair(HalfInt(twice), np.insert(z, [0, 5, z.size], 0.0))
        at = [0, 6, z.size + 2]
        assert np.delete(got, at, axis=1).tobytes() == _iv_pair(HalfInt(twice), z).tobytes()
        assert got[:, at].tolist() == [[1.0 if twice == 0 else 0.0] * 3, [0.0] * 3]

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 15, 16, 20, 29, 39, 40])
    def test_jn_pair(self, n):
        # a J recurrence of about 2000 steps rounds differently from a start 50
        # orders higher: J_40(1951.95) moves by 1.5e-14 relative, well within
        # the 6e-14 by which either value misses mpmath
        x = np.array([6.0 * 1.001, 50.0 * max(1, n) * 1.001, 50.0 * (n + 1) * 1.001, 2000.0])
        batch = _jn_pair(n, x)
        for i, v in enumerate(x.tolist()):
            one = _jn_pair(n, np.array([v]))[:, 0]
            assert np.max(np.abs(batch[:, i] - one) / np.abs(one)) <= 2e-14


class TestAscendingSeries:
    # the series fixes its term count from the batch's largest |z| and sums by
    # Horner's rule: every element keeps the sum's own rounding, near the
    # zeros of J as well, and does not depend on the batch around it

    @pytest.mark.parametrize("n", range(0, 41))
    def test_j_against_mpmath(self, n):
        zeros = [float(mp.besseljzero(order, i)) for order in (0, 1) for i in (1, 2, 3)]
        x = np.concatenate([np.linspace(0.05, 6.0, 60), zeros])
        pair = _jn_pair(n, x)
        for row, order in zip(pair, (n, n + 1)):
            ref = np.array([float(mp.besselj(order, v)) for v in x.tolist()])
            assert np.max(np.abs(row - ref)) <= 5e-15

    @pytest.mark.parametrize("twice", range(-1, 14))
    def test_scaled_i_against_mpmath(self, twice):
        phases = np.array([0.0, 0.5, -0.5, 1.0, -1.0, 1.55, -1.55])
        z = (np.linspace(0.05, 2.0, 14)[:, None] * np.exp(1j * phases)).ravel()
        pair = _iv_pair(HalfInt(twice), z)
        for row, nu in zip(pair, (twice / 2.0, twice / 2.0 + 1.0)):
            ref = _mp_scaled_i(nu, z)
            assert np.max(np.abs(row - ref) / np.abs(ref)) <= 1e-14

    def test_batch_independence(self):
        rng = np.random.default_rng(21)
        for n in (0, 1, 4, 12):
            x = rng.uniform(0.0, 6.0, 75)
            batch = _jn_pair(n, x)
            for i, v in enumerate(x.tolist()):
                assert np.max(np.abs(batch[:, i] - _jn_pair(n, np.array([v]))[:, 0])) <= 1e-16
        for twice in (-1, 0, 3, 13):
            z = rng.uniform(0.0, 2.0, 75) * np.exp(1j * rng.uniform(-1.55, 1.55, 75))
            batch = _iv_pair(HalfInt(twice), z)
            for i, v in enumerate(z.tolist()):
                assert np.max(np.abs(batch[:, i] - _iv_pair(HalfInt(twice), v))) <= 1e-16


class TestUnderflowBound:
    # (|z|/2)^mu / Gamma(mu + 1) bounds |J_mu| and |e^{-z} I_mu| (DLMF 10.14.4):
    # where it rounds to 0 a pair is (0, 0) with no regime run, where the
    # Miller recurrence took O(mu) steps (4.1 s for J at order 10^6)

    @pytest.mark.parametrize("pair,order,z", [
        (_jn_pair, 10 ** 6, 20.0),
        (_jn_pair, 10 ** 7, 1e5),
        (_iv_pair, HalfInt(2 * 10 ** 6), 20.0 + 5.0j),
        (_iv_pair, HalfInt(2 * 10 ** 6 + 1), 20.0 - 5.0j),
    ], ids=["J-1e6", "J-1e7", "I-1e6", "I-half-odd-1e6"])
    def test_huge_order_in_bounded_time(self, pair, order, z):
        start = time.perf_counter()
        got = pair(order, np.array([z, 0.5 * z]))
        assert time.perf_counter() - start < 0.5
        assert np.all(got == 0.0)

    def test_order_past_lgamma_range(self):
        # ln Gamma(mu + 1) overflows past mu ~ 2.5e305; the bound's |z| is then
        # Stirling's 2 mu/e (1 + O(ln mu / mu)), continuous with lgamma's below
        for mu in (1e300, 2e305, 3e305, 1e308):
            assert abs(_underflow_size(mu) / (2.0 * (mu / math.e)) - 1.0) < 1e-12
        for pair, order, z in ((_jn_pair, 10 ** 306, 1e300), (_iv_pair, HalfInt(10 ** 306), 1e300j)):
            assert np.all(pair(order, np.array([z, 20.0])) == 0.0)

    @pytest.mark.parametrize("n", [250, 400])
    def test_cut_against_mpmath(self, n):
        # across the |z| where the bound of J_n rounds to 0 (about 9.5 and 46):
        # below it both orders are 0, above it they keep their accuracy, to
        # 1e-13 relative and, among the subnormals, 1e-13 of the least normal
        floor = 2.0 * math.exp((math.lgamma(n + 1.0) - 1075.0 * math.log(2.0)) / n)
        x = floor * np.array([0.5, 0.9, 0.999, 1.001, 1.1, 1.3])
        got = _jn_pair(n, x)
        assert np.all(got[:, :3] == 0.0) and np.all(got[0, 4:] > 0.0)
        for row, mu in zip(got, (n, n + 1)):
            ref = np.array([float(mp.besselj(mu, v, maxprec=20000)) for v in x.tolist()])
            assert np.all(np.abs(row - ref) <= 1e-13 * np.maximum(np.abs(ref), sys.float_info.min))


class TestKapteynCut:
    # |J_mu(mu x)| <= x^mu e^{mu s} / (1 + s)^mu, s = sqrt(1 - x^2) (DLMF 10.14.5),
    # cuts J where it rounds to 0 together with DLMF 10.14.4, whichever cut is
    # larger: near x = 1 it is the sharper one

    def test_large_order_runs_no_recurrence(self, monkeypatch):
        # at order 10^5 DLMF 10.14.4 cuts below 0.73 mu only, and the Miller
        # recurrence took 0.35 s to return an exact 0 at 0.8 mu
        from spinbeam import specfun

        calls = []
        real = specfun._miller

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(specfun, "_miller", counted)
        start = time.perf_counter()
        got = _jn_pair(10 ** 5, np.array([8e4, 9e4, 9.6e4]))
        assert time.perf_counter() - start < 0.05
        assert np.all(got == 0.0)
        assert calls == []

    @pytest.mark.parametrize("mu", [1000, 3000, 10 ** 4])
    def test_cut_against_mpmath(self, mu):
        # both orders are below 2^-1075 at the cut, which lies past 10.14.4's
        cut = _kapteyn_size(mu)
        assert cut > _underflow_size(mu)
        for order in (mu, mu + 1):
            assert abs(mp.besselj(order, cut, maxprec=20000)) < mp.mpf(2) ** -1075

    def test_cut_below_the_order(self):
        # s is bisected, so x = 1 - s^2/2 never rounds past 1 as mu grows
        for mu in (1e5, 1e30, 1e306, 1e308):
            cut = _kapteyn_size(mu)
            assert 0.96 * mu < cut < mu
        assert _kapteyn_size(10) == 0.0

    # J_mu, J_{mu+1} recorded with the DLMF 10.14.4 cut alone: every element
    # past the new cut keeps its bits, and those between the cuts were 0
    _RECORDED = {
        (3000, (1925.0, 2000.0, 2600.0, 3000.0, 4100.0)): (
            '0x0.0000000000006p-1022', '0x1.8a5f7dfa5275cp-947', '0x1.83a853dbeb78fp-219',
            '0x1.fc247122dcbc3p-6', '-0x1.bfe990f5e7caep-7', '0x0.0000000000002p-1022',
            '0x1.2d1dd75cb4a9dp-948', '0x1.bfd7fdbda5968p-220', '0x1.dbd0af7f24a8fp-6',
            '-0x1.d6caea3d42b99p-7'),
        (10 ** 4, (7000.0, 8000.0, 9000.0, 10000.0)): (
            '0x0.0p+0', '0x0.0p+0', '0x1.a2676a48eec04p-459', '0x1.542ad53705b0dp-6',
            '0x0.0p+0', '0x0.0p+0', '0x1.0626ecfacc853p-459', '0x1.45abfc999e86dp-6'),
    }

    @pytest.mark.parametrize("mu,x", sorted(_RECORDED), ids=["3000", "1e4"])
    def test_values_past_the_cut_unchanged(self, mu, x):
        assert x[0] < _kapteyn_size(mu) < x[2] or _kapteyn_size(mu) < x[0]
        got = _jn_pair(mu, np.array(x))
        assert tuple(v.hex() for v in got.ravel()) == self._RECORDED[mu, x]


class TestArgumentNearFloatMax:
    # the closures' prefactors pi x (J) and 2 pi z (I), and e^{-2z}, overflow
    # from |z| of about 1e307 on, where the values themselves are near 1e-155:
    # each takes its argument prescaled by 2^-64 there (or e^{-2z} as the
    # square of e^{-z}), and runs without a RuntimeWarning (Tier-1 turns one
    # into an error)

    @pytest.mark.parametrize("x", [5.8e307, 1e308, sys.float_info.max])
    def test_j_pair_against_mpmath(self, x):
        for n in (0, 3):
            got = _jn_pair(n, np.array([x]))[:, 0]
            ref = [float(mp.besselj(mu, mp.mpf(x))) for mu in (n, n + 1)]
            assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))

    @pytest.mark.parametrize("z", [
        1e308 - 1e308j, 1.7e308 + 0j, 5.0 + 1e308j, 3e307 + 1e308j, 1.3e308 - 1.3e308j,
    ], ids=["diagonal", "real", "phase-only", "mixed", "modulus-past-max"])
    @pytest.mark.parametrize("twice", [-1, 0, 1, 2, 5])
    def test_i_pair_against_mpmath(self, twice, z):
        got = _iv_pair(HalfInt(twice), np.array([z]))[:, 0]
        for value, nu in zip(got, (twice / 2.0, twice / 2.0 + 1.0)):
            ref = _mp_scaled_i(nu, np.array([z]))[0]
            assert abs(value - ref) <= 1e-15 * abs(ref)
