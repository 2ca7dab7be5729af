import math

import mpmath
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import example, given, settings, strategies as st

from hypfrac import specfun
from hypfrac.errors import DomainError, HypfracError, NumericError, UnsupportedRangeError
from hypfrac.specfun import (
    _k_table,
    bessel_i,
    bessel_i_scaled,
    bessel_k,
    bessel_k_scaled,
    c_integral,
    l_integral,
    ratio_bounds_check,
    s_integral,
    struve_l,
)

# frozen 30-digit mpmath references
I_03_25 = 3.1939093578017904916501345218
I_M05_12 = 1.3188192656153708308635683608
K_27_73 = 0.000491119891150123416506979406404
K_087_005 = 13.4431512017623875806399806882
L_13_42 = 9.97410934365180392881767560091
L_M25_30 = 1.51533944668196513774057865265
L_M05_10 = 0.937674888245487646717262884391
S3_21_DEF = 3.15478037070060502097538317614   # int_{1/2}^{2} r^{3-nu} K_nu sinh, nu=2.1
C2_17_DEF = 2.53158748412749330905710108368   # int_{1/2}^{2} r^{2-nu} K_nu cosh, nu=1.7
L2_13_DEF = 0.99578740393942767929554774909   # int_{1/2}^{2} r^{2-nu} K_nu,      nu=1.3


def central(f, x, h):
    d1 = (f(x + h) - f(x - h)) / (2 * h)
    d2 = (f(x + h / 2) - f(x - h / 2)) / h
    return (4 * d2 - d1) / 3


class TestBesselI:
    def test_half_integer_closed_form(self):
        # I_{1/2}(1) = sqrt(2/pi) sinh 1
        assert bessel_i(0.5, 1.0) == pytest.approx(
            math.sqrt(2 / math.pi) * math.sinh(1.0), rel=1e-13)

    def test_frozen_values(self):
        assert bessel_i(0.3, 2.5) == pytest.approx(I_03_25, rel=1e-12)
        assert bessel_i(-0.5, 1.2) == pytest.approx(I_M05_12, rel=1e-12)

    def test_against_scipy_grid(self, rng):
        for _ in range(200):
            nu = rng.uniform(-1.0, 10.0)
            x = rng.uniform(1e-3, 50.0)
            assert bessel_i(nu, x) == pytest.approx(sps.iv(nu, x), rel=1e-10)

    def test_small_x_asymptotics(self):
        for nu in (0.4, 1.7, 3.2):
            x = 1e-6
            lead = (x / 2) ** nu / math.gamma(nu + 1)
            assert bessel_i(nu, x) == pytest.approx(lead, rel=1e-6)

    def test_recurrence(self, rng):
        for _ in range(100):
            nu = rng.uniform(0.0, 8.0)
            x = rng.uniform(0.1, 40.0)
            lhs = bessel_i(nu - 1, x) - bessel_i(nu + 1, x)
            rhs = 2 * nu / x * bessel_i(nu, x)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-300)

    def test_at_zero(self):
        assert bessel_i(0.0, 0.0) == 1.0
        assert bessel_i(1.5, 0.0) == 0.0
        with pytest.raises(DomainError):
            bessel_i(-0.5, 0.0)

    def test_overflow_guidance(self):
        with pytest.raises(Exception):
            bessel_i(0.5, 800.0)
        scaled = bessel_i_scaled(0.5, 800.0)
        assert scaled == pytest.approx(1.0 / math.sqrt(2 * math.pi * 800.0), rel=1e-3)

    def test_scaled_matches_plain(self):
        x = 30.0
        assert bessel_i_scaled(2.0, x) == pytest.approx(
            bessel_i(2.0, x) * math.exp(-x), rel=1e-12)


class TestBesselK:
    def test_half_integer_closed_form(self):
        assert bessel_k(0.5, 1.0) == pytest.approx(
            math.sqrt(math.pi / 2) * math.exp(-1.0), rel=1e-13)

    def test_frozen_values(self):
        assert bessel_k(2.7, 7.3) == pytest.approx(K_27_73, rel=1e-12)
        assert bessel_k(0.87, 0.05) == pytest.approx(K_087_005, rel=1e-12)

    def test_against_scipy_grid(self, rng):
        for _ in range(200):
            nu = rng.uniform(-10.0, 10.0)
            x = rng.uniform(1e-3, 50.0)
            assert bessel_k(nu, x) == pytest.approx(sps.kv(nu, x), rel=1e-10)

    def test_even_in_order(self, rng):
        for _ in range(20):
            nu = rng.uniform(0.0, 6.0)
            x = rng.uniform(0.1, 10.0)
            assert bessel_k(nu, x) == bessel_k(-nu, x)

    def test_small_x_asymptotics(self):
        for nu in (0.5, 1.3, 2.6):
            x = 1e-7
            lead = 0.5 * math.gamma(nu) * (x / 2) ** (-nu)
            assert bessel_k(nu, x) == pytest.approx(lead, rel=1e-5)

    def test_derivative_relation(self, rng):
        # K' = -K_{nu-1} - (nu/x) K_nu
        for _ in range(40):
            nu = rng.uniform(0.2, 5.0)
            x = rng.uniform(0.5, 10.0)
            want = -bessel_k(nu - 1, x) - nu / x * bessel_k(nu, x)
            got = central(lambda s: bessel_k(nu, s), x, 1e-5 * x)
            assert got == pytest.approx(want, rel=1e-8)

    def test_recurrence(self, rng):
        for _ in range(100):
            nu = rng.uniform(-6.0, 6.0)
            x = rng.uniform(0.1, 40.0)
            lhs = bessel_k(nu + 1, x) - bessel_k(nu - 1, x)
            rhs = 2 * nu / x * bessel_k(nu, x)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-280)

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_k(1.0, 0.0)
        with pytest.raises(DomainError):
            bessel_k(1.0, -2.0)

    def test_scaled_large_x(self):
        for x in (1e3, 1e6, 1e12):
            want = math.sqrt(math.pi / (2 * x))
            assert bessel_k_scaled(2.5, x) == pytest.approx(want, rel=1e-2)
        assert bessel_k_scaled(2.5, 1e3) == pytest.approx(
            float(sps.kve(2.5, 1e3)), rel=1e-12)


class TestBesselKTables:
    """The trapezoid on power-of-two steps, whose x-free node factors are
    tabulated per (|nu|, level, length) and shared by the scalar and array
    paths."""

    # worst relative error against scipy's kve (1.17.1) on grid() of the rule
    # before the tables (linspace nodes, step min(1/16, 1/(2 sqrt x))), on
    # its better path (array; its scalar path had 1.25e-14)
    OLD_RULE_KVE_WORST = 1.1435297153639112e-14

    @staticmethod
    def grid():
        rng = np.random.default_rng(2014)
        orders = rng.uniform(0.0, 10.0, 12)
        # the level changes at x = 64, 256, 1024 (2 sqrt x = 16, 32, 64)
        edges = np.array([64.0, 256.0, 1024.0])
        x = np.concatenate([np.exp(rng.uniform(math.log(1e-6), math.log(1e4), 1500)),
                            edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        return orders, x

    def test_scalar_and_array_agree(self):
        orders, x = self.grid()
        for nu in orders:
            scalar = np.array([bessel_k_scaled(nu, float(v)) for v in x])
            assert np.max(np.abs(bessel_k_scaled(nu, x) / scalar - 1.0)) <= 2e-15

    def test_against_scipy_no_worse_than_before(self):
        orders, x = self.grid()
        for nu in orders:
            want = sps.kve(nu, x)
            scalar = np.array([bessel_k_scaled(nu, float(v)) for v in x])
            assert np.max(np.abs(scalar / want - 1.0)) <= self.OLD_RULE_KVE_WORST
            assert np.max(np.abs(bessel_k_scaled(nu, x) / want - 1.0)) <= self.OLD_RULE_KVE_WORST

    def test_cache_stays_bounded(self):
        for nu in 3.0 + np.arange(200) / 997.0:
            bessel_k_scaled(float(nu), 0.5)
            bessel_k_scaled(float(nu), np.array([0.01, 100.0]))
        info = _k_table.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize


class TestBesselKEdges:
    """Non-finite, non-positive and too small arguments raise typed errors on
    both paths; an empty array is a valid argument."""

    def test_nan(self):
        for f in (bessel_k, bessel_k_scaled):
            with pytest.raises(DomainError):
                f(1.5, math.nan)
        with pytest.raises(DomainError):
            bessel_k_scaled(1.5, np.array([1.0, math.nan]))

    def test_infinite(self):
        for f in (bessel_k, bessel_k_scaled):
            with pytest.raises(DomainError):
                f(2.5, math.inf)
        with pytest.raises(DomainError):
            bessel_k_scaled(2.5, np.array([1.0, math.inf]))

    def test_huge_x_keeps_tables_small(self, monkeypatch):
        # the node count stays bounded however large x grows: at x = 1e16 a
        # pad of fixed width would ask for a table of ~7e7 nodes.  An order
        # above sqrt(x) keeps the trapezoid rule (a small order takes
        # Hankel's expansion and asks for no table at all)
        sizes = []

        def bounded_table(nu, level, size):
            sizes.append(size)
            assert size <= 4096
            return _k_table(nu, level, size)

        monkeypatch.setattr(specfun, "_k_table", bounded_table)
        with mpmath.workdps(40):
            want = float(mpmath.besselk(2e8, 1e16) * mpmath.exp(1e16))
        assert bessel_k_scaled(2e8, 1e16) == pytest.approx(want, rel=1e-14)
        assert bessel_k_scaled(2e8, np.array([1e16]))[0] == pytest.approx(want, rel=1e-14)
        assert len(sizes) == 2

    def test_nonpositive_array(self):
        for bad in (0.0, -1.0):
            with pytest.raises(DomainError):
                bessel_k_scaled(2.5, np.array([1.0, bad]))

    def test_empty_array(self):
        assert bessel_k_scaled(1.5, np.array([])).shape == (0,)
        assert bessel_k_scaled(1.5, np.empty((0, 3))).shape == (0, 3)

    def test_large_order_at_large_x(self):
        # the cut sits near u = 0.7 and the step at 2^-28: the rule would
        # need ~2e8 nodes (3 GB of tables); the node bound refuses it.  At
        # 1e20 the cut must not collapse to 0, as 1 + 45/x rounding to 1 did
        for big in (1e16, 1e20):
            with pytest.raises(UnsupportedRangeError):
                bessel_k(big, big)
            with pytest.raises(UnsupportedRangeError):
                bessel_k_scaled(big, np.array([1.0, big]))

    @pytest.mark.parametrize("x", [10.0 ** k for k in range(-3, 21)])
    def test_cut_clears_the_decay_at_any_x(self, x):
        # x (cosh u - 1) written as 2 x sinh^2(u/2), exact at the tiny cuts of huge x
        for nu in (0.0, 2.49, x):
            cuts = (specfun._k_cutoff(nu, x, math.asinh, bool),
                    float(specfun._k_cutoff(nu, np.array([x]), np.arcsinh, np.any)[0]))
            for u in cuts:
                assert 2.0 * x * math.sinh(0.5 * u) ** 2 - nu * u >= 45.0

    def test_below_supported_range(self):
        # the cut would pass u = 709, where 1 - cosh u leaves the doubles
        for x in (1e-300, 1e-310):
            with pytest.raises(UnsupportedRangeError):
                bessel_k(0.3, x)
            with pytest.raises(UnsupportedRangeError):
                bessel_k_scaled(0.3, np.array([1.0, x]))
        assert bessel_k(0.3, 1e-280) == pytest.approx(
            0.5 * math.gamma(0.3) * 2e280 ** 0.3, rel=1e-12)


class TestHankelK:
    """Hankel's expansion of exp(x) K_nu(x) serves x >= 20 where nu^2 <= x;
    the trapezoid rule serves the rest."""

    ORDERS = (0.0, 1.6, 2.0, 2.49, 2.4999, 2.5, 4.4)
    X = (20.0, 23.7, 50.0, 333.3, 1e4, 1e6)

    def test_against_mpmath(self):
        worst = 0.0
        for nu in self.ORDERS:
            for x in self.X + (nu * nu,):
                if not (x >= 20.0 and nu * nu <= x):
                    continue
                with mpmath.workdps(40):
                    want = float(mpmath.besselk(nu, x) * mpmath.exp(x))
                worst = max(worst, abs(bessel_k_scaled(nu, x) / want - 1.0))
        assert worst <= 2e-15

    def test_scalar_and_array_agree(self):
        x = np.concatenate([np.geomspace(20.0, 1e6, 400), np.geomspace(1.0, 19.9, 50)])
        for nu in self.ORDERS:
            scalar = np.array([bessel_k_scaled(nu, float(v)) for v in x])
            assert np.max(np.abs(bessel_k_scaled(nu, x) / scalar - 1.0)) <= 4 * np.finfo(float).eps

    def test_half_integer_order_ends_the_sum(self):
        for x in (20.0, 77.0, 1e5):
            want = math.sqrt(math.pi / (2.0 * x)) * (1.0 + 3.0 / x + 3.0 / x ** 2)
            assert bessel_k_scaled(2.5, x) == pytest.approx(want, rel=1e-15)

    def test_routes(self, monkeypatch):
        def refused(nu, x):
            if np.size(x):
                raise AssertionError("trapezoid rule")
            return np.empty(0)

        monkeypatch.setattr(specfun, "_k_trapezoid", refused)
        monkeypatch.setattr(specfun, "_k_trapezoid_array", refused)
        bessel_k(2.0, 20.0)
        bessel_k_scaled(-2.0, np.array([20.0, 1e300]))
        # an order above sqrt(x) takes the rule
        for nu, x in ((4.5, 20.0), (2.0, 19.99)):
            with pytest.raises(AssertionError):
                bessel_k(nu, x)
            with pytest.raises(AssertionError):
                bessel_k_scaled(nu, np.array([x, 1e3]))

    def test_orders_past_the_guard_and_the_switch(self):
        for nu, x in ((10.0, 50.0), (7.0, 48.9), (4.48, 20.0)):
            with mpmath.workdps(40):
                want = float(mpmath.besselk(nu, x) * mpmath.exp(x))
            assert bessel_k_scaled(nu, x) == pytest.approx(want, rel=1e-14)
        for nu in (0.0, 2.49, 4.4):
            below = bessel_k_scaled(nu, math.nextafter(20.0, 0.0))
            assert bessel_k_scaled(nu, 20.0) == pytest.approx(below, rel=1e-14)

    def test_top_of_the_float_range(self):
        # sqrt(pi / 2x) where 2x overflows
        x = 1.7e308
        assert bessel_k_scaled(1e150, x) == pytest.approx(math.sqrt(math.pi / 2.0 / x), rel=1e-15)


class TestNegativeBesselI:
    """Below nu = -1 the series terms may alternate, and I_nu may be negative;
    a sum cancelled below 1e-3 of its largest term is refused."""

    # I_-1.5(x) = 0 here (40-digit mpmath)
    ROOT = 1.1996786402577338

    def test_pinned(self):
        # 40-digit mpmath: -4.632320010854258
        assert bessel_i(-1.5, 0.3) == pytest.approx(-4.632320010854258, rel=1e-14)

    @pytest.mark.parametrize("nu, x", [(-1.5, 0.3), (-1.5, 1.0), (-1.5, 1e-3), (-1.3, 0.5),
                                       (-3.5, 0.5), (-3.5, 2.0)])
    def test_negative_values(self, nu, x):
        with mpmath.workdps(40):
            want = float(mpmath.besseli(nu, x))
        assert want < 0.0
        assert bessel_i(nu, x) == pytest.approx(want, rel=1e-14)
        assert bessel_i_scaled(nu, x) == pytest.approx(want * math.exp(-x), rel=1e-14)

    def test_cancelled_sum_is_refused(self):
        for x in (self.ROOT, self.ROOT + 1e-9):
            with pytest.raises(NumericError):
                bessel_i(-1.5, x)
        x = self.ROOT + 1e-2
        with mpmath.workdps(40):
            want = float(mpmath.besseli(-1.5, x))
        assert bessel_i(-1.5, x) == pytest.approx(want, rel=1e-12)


class TestNonFiniteArguments:
    def test_bessel_i_and_struve(self):
        for f in (bessel_i, bessel_i_scaled, struve_l):
            for x in (math.nan, math.inf, -math.inf):
                with pytest.raises(DomainError):
                    f(1.5, x)

    def test_order(self):
        for f in (bessel_i, bessel_i_scaled, bessel_k, bessel_k_scaled, struve_l):
            for nu in (math.nan, math.inf, -math.inf):
                with pytest.raises(DomainError):
                    f(nu, 1.0)


class TestScaledBesselILargeX:
    """Beyond x = 700 exp(-x) I_nu(x) comes from Hankel's expansion, at a
    cost that does not grow with x, where the series ran ~x terms."""

    @pytest.mark.parametrize("nu", [-3.5, -1.0, 0.0, 0.3, 2.49, 10.0])
    def test_against_mpmath(self, nu):
        mpmath.mp.dps = 40
        for x in (700.5, 1e3, 1e5, 1e7, 1e16, 1e300):
            want = float(mpmath.besseli(nu, x) * mpmath.exp(-x))
            assert bessel_i_scaled(nu, x) == pytest.approx(want, rel=1e-14)

    def test_continuous_at_the_switch(self):
        for nu in (0.3, 2.49, 10.0):
            below, above = bessel_i_scaled(nu, 700.0), bessel_i_scaled(nu, 700.0 * (1 + 1e-15))
            assert above == pytest.approx(below, rel=1e-12)

    def test_large_order_beyond_the_series_limit(self):
        # nu^2 > x: the expansion does not hold, and the series would run x terms
        assert bessel_i_scaled(30.0, 800.0) == pytest.approx(
            float(mpmath.besseli(30, 800) * mpmath.exp(-800)), rel=1e-11)
        with pytest.raises(UnsupportedRangeError):
            bessel_i_scaled(200.0, 2e4)


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


def _finite_or_typed(f, *args):
    try:
        value = f(*args)
    except HypfracError:
        return
    assert isinstance(value, float) and math.isfinite(value), (f.__name__, args, value)


@settings(max_examples=400, deadline=None)
@given(f=st.sampled_from([bessel_i, bessel_i_scaled, bessel_k, bessel_k_scaled, struve_l]),
       nu=ANY_FLOAT, x=ANY_FLOAT)
# the series overflowed nu log(x / 2) with a RuntimeWarning at such orders
@example(f=bessel_i, nu=1.2967614853529988e308, x=0.5)
@example(f=struve_l, nu=1.2967614853529988e308, x=0.5)
def test_functions_return_finite_or_raise_typed(f, nu, x):
    # large orders at large x once asked bessel_k for billions of trapezoid nodes
    _finite_or_typed(f, nu, x)


@settings(max_examples=300, deadline=None)
@given(f=st.sampled_from([s_integral, c_integral, l_integral]), k=st.integers(-1, 8),
       nu=ANY_FLOAT, rho=ANY_FLOAT)
def test_integral_families_return_finite_or_raise_typed(f, k, nu, rho):
    _finite_or_typed(f, k, nu, rho)


class TestWronskian:
    def test_cross_product(self, rng):
        # I_nu K_{nu+1} + I_{nu+1} K_nu = 1/x
        for _ in range(60):
            nu = rng.uniform(0.0, 8.0)
            x = rng.uniform(0.05, 40.0)
            val = bessel_i(nu, x) * bessel_k(nu + 1, x) + bessel_i(nu + 1, x) * bessel_k(nu, x)
            assert val == pytest.approx(1.0 / x, rel=1e-10)


class TestHalfIntegerTable:
    GRID = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)

    def test_i_family(self):
        for r in self.GRID:
            pre = math.sqrt(2 / (math.pi * r))
            assert bessel_i(0.5, r) == pytest.approx(pre * math.sinh(r), rel=1e-11)
            assert bessel_i(1.5, r) == pytest.approx(
                pre * (-math.sinh(r) / r + math.cosh(r)), rel=1e-11)
            assert bessel_i(2.5, r) == pytest.approx(
                pre * ((1 + 3 / r ** 2) * math.sinh(r) - 3 / r * math.cosh(r)), rel=1e-11)

    def test_k_family(self):
        for r in self.GRID:
            pre = math.sqrt(math.pi / (2 * r)) * math.exp(-r)
            assert bessel_k(0.5, r) == pytest.approx(pre, rel=1e-11)
            assert bessel_k(1.5, r) == pytest.approx(pre * (1 + 1 / r), rel=1e-11)
            assert bessel_k(2.5, r) == pytest.approx(
                pre * (1 + 3 / r + 3 / r ** 2), rel=1e-11)


class TestLargeXAsymptotics:
    def test_monotone_approach(self):
        nu = 0.7
        errs_i, errs_k = [], []
        for x in (20.0, 30.0, 45.0, 70.0):
            errs_i.append(abs(bessel_i(nu, x) / (math.exp(x) / math.sqrt(2 * math.pi * x)) - 1))
            errs_k.append(abs(bessel_k(nu, x) / (math.sqrt(math.pi / (2 * x)) * math.exp(-x)) - 1))
        assert errs_i == sorted(errs_i, reverse=True)
        assert errs_k == sorted(errs_k, reverse=True)


class TestSeriesCore:
    """Edges of the ascending-series core that bessel_i and struve_l share."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_negative_integer_order(self, n):
        # 1/Gamma(j - n + 1) vanishes at the poles j < n, so I_{-n} = I_n
        for x in (0.1, 1.0, 7.0, 40.0, 300.0):
            assert bessel_i(-n, x) == pytest.approx(bessel_i(n, x), rel=1e-14)

    @pytest.mark.parametrize("nu", [-1.5, -2.5, -3.5, -7.0])
    def test_struve_negative_orders(self, nu):
        with mpmath.workdps(40):
            for x in (1e-3, 0.1, 1.0, 3.0, 10.0, 30.0):
                assert struve_l(nu, x) == pytest.approx(float(mpmath.struvel(nu, x)), rel=1e-14)

    @pytest.mark.parametrize("nu", [-0.5, 0.5, 1.5, 2.5])
    def test_scale_function_orders(self, nu):
        # the orders and radii of the closed forms of I0 and Iinf
        with mpmath.workdps(40):
            for x in np.linspace(5.0, 90.0, 18):
                assert bessel_i(nu, x) == pytest.approx(float(mpmath.besseli(nu, x)), rel=1e-14)

    def test_terms_past_the_poles(self):
        # the first 46 terms of I_{-46}(1) sit at poles of Gamma(j - 45); the
        # series runs past them as far as it runs past x/2
        assert bessel_i(-46.0, 1.0) == pytest.approx(bessel_i(46.0, 1.0), rel=1e-14)

    @pytest.mark.parametrize("nu, x", [(-46.5, 1.0), (-2.5, 1e-100), (-46.5, 20.0),
                                       (-10.5, 100.0), (-3.5, 5.0)])
    def test_orders_below_minus_one(self, nu, x):
        # anchored at the largest |term|, which at a non-integer order below
        # -1 may lie below the poles, where the terms alternate in sign
        with mpmath.workdps(40):
            want = float(mpmath.besseli(nu, x))
        assert bessel_i(nu, x) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("nu, x, want", [
        # 40-digit mpmath, where the largest term leaves the float range and
        # the series carries its log
        (0.3, 695.0, 1.0342668690524803e+300),
        (5.0, 700.0, 1.5025025321928688e+302),
        (0.5, 700.0, 1.5293200350315745e+302),
        (10.0, 699.0, 5.2420952770671441e+301),
        (-0.5, 698.0, 2.0726726799745553e+301),
        (0.3, 680.0, 3.1985595062206948e+293),
        (-1.0, 699.9, 1.3831430400144021e+302),
        (2.49, 350.0, 2.129354015014768e+150),
    ])
    def test_log_scale_near_700(self, nu, x, want):
        assert bessel_i(nu, x) == pytest.approx(want, rel=3e-13)

    def test_underflowing_ratio(self):
        # (x/2)^2 underflows: below a pole the terms vanish, and the one left
        # is the value (negative: I_-1.5 < 0 near 0), or it leaves the float
        # range, never as a nan
        assert bessel_i(-1.0, 1e-300) == pytest.approx(5e-301, rel=1e-14)
        with mpmath.workdps(40):
            want = float(mpmath.besseli(-1.5, mpmath.mpf("1e-200")))
        assert bessel_i(-1.5, 1e-200) == pytest.approx(want, rel=1e-14)
        with pytest.raises(HypfracError):
            bessel_i(-1.5, 1e-210)


class TestStruve:
    def test_frozen_values(self):
        assert struve_l(1.3, 4.2) == pytest.approx(L_13_42, rel=1e-10)
        assert struve_l(-2.5, 3.0) == pytest.approx(L_M25_30, rel=1e-10)

    def test_elementary_minus_half(self):
        assert struve_l(-0.5, 1.0) == pytest.approx(L_M05_10, rel=1e-12)
        for x in (0.3, 2.0, 9.0):
            assert struve_l(-0.5, x) == pytest.approx(
                math.sqrt(2 / (math.pi * x)) * math.sinh(x), rel=1e-11)

    def test_against_scipy(self, rng):
        for _ in range(150):
            nu = rng.uniform(-3.4, 5.0)
            x = rng.uniform(1e-2, 30.0)
            want = float(sps.modstruve(nu, x))
            assert struve_l(nu, x) == pytest.approx(want, rel=1e-8, abs=1e-12)

    def test_small_x_asymptotics(self):
        for nu in (0.0, 0.8, 2.1):
            x = 1e-5
            lead = (x / 2) ** (nu + 1) / (math.gamma(1.5) * math.gamma(1.5 + nu))
            assert struve_l(nu, x) == pytest.approx(lead, rel=1e-6)

    def test_monotone_in_x_for_nonneg_order(self):
        for nu in (0.0, 1.0, 2.5):
            vals = [struve_l(nu, x) for x in np.linspace(0.1, 29.0, 40)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_range_error(self):
        with pytest.raises(UnsupportedRangeError):
            struve_l(0.5, 31.0)


class TestSCIntegrals:
    def test_k0_two_term_form(self):
        # k = 0 keeps only the first summand
        nu, rho = 0.7, 1.3
        want = (
            math.sqrt(math.pi / 2) * rho ** (1.5 - nu) / (1 - 2 * nu)
            * (bessel_k(nu, rho) * bessel_i(0.5, rho)
               + bessel_k(nu - 1, rho) * bessel_i(-0.5, rho))
        )
        assert s_integral(0, nu, rho) == pytest.approx(want, rel=1e-13)

    def test_definite_integrals_frozen(self):
        got = s_integral(3, 2.1, 2.0) - s_integral(3, 2.1, 0.5)
        assert got == pytest.approx(S3_21_DEF, rel=1e-12)
        got = c_integral(2, 1.7, 2.0) - c_integral(2, 1.7, 0.5)
        assert got == pytest.approx(C2_17_DEF, rel=1e-12)

    def test_derivative_residuals(self, rng):
        for _ in range(25):
            k = int(rng.integers(0, 6))
            rho = rng.uniform(0.3, 8.0)
            nu = rng.uniform(0.2, 2.4)
            if min(abs(k + 1 + j - 2 * nu) for j in range(k + 1)) < 0.05:
                continue
            h = max(1e-5, 1e-5 * rho)
            ds = central(lambda s: s_integral(k, nu, s), rho, h)
            want = rho ** (k - nu) * bessel_k(nu, rho) * math.sinh(rho)
            assert ds == pytest.approx(want, rel=1e-7)
            dc = central(lambda s: c_integral(k, nu, s), rho, h)
            want = rho ** (k - nu) * bessel_k(nu, rho) * math.cosh(rho)
            assert dc == pytest.approx(want, rel=1e-7)

    def test_recurrence_boundary_term(self, rng):
        # S^k_nu + k/(k+1-2 nu) C^{k-1}_{nu-1} equals the boundary product
        for _ in range(25):
            k = int(rng.integers(1, 6))
            rho = rng.uniform(0.3, 6.0)
            nu = rng.uniform(0.2, 2.4)
            if min(abs(k + 1 + j - 2 * nu) for j in range(k + 1)) < 0.05:
                continue
            if min(abs(k + j - 2 * (nu - 1)) for j in range(k)) < 0.05:
                continue
            lhs = s_integral(k, nu, rho) + k / (k + 1 - 2 * nu) * c_integral(k - 1, nu - 1, rho)
            rhs = (
                math.sqrt(math.pi / 2) * rho ** (k + 1.5 - nu) / (k + 1 - 2 * nu)
                * (bessel_k(nu, rho) * bessel_i(0.5, rho)
                   + bessel_k(nu - 1, rho) * bessel_i(-0.5, rho))
            )
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_excluded_orders(self):
        with pytest.raises(DomainError):
            s_integral(2, 1.5, 1.0)  # k+1-2nu = 0
        with pytest.raises(DomainError):
            c_integral(3, 2.5, 1.0)  # k+1+j-2nu = 0 at j=1


class TestLIntegral:
    def test_definite_frozen(self):
        got = l_integral(2, 1.3, 2.0) - l_integral(2, 1.3, 0.5)
        assert got == pytest.approx(L2_13_DEF, rel=1e-11)

    @staticmethod
    def _noise_floor(two_k, nu, rho, h):
        # the closed form cancels a K-sum against a Struve boundary term of
        # this magnitude; differencing cannot resolve below eps*scale/(h*|f'|)
        k = two_k // 2
        arg = 0.5 - nu + k
        bnd = abs(
            math.sqrt(math.pi) * math.gamma(arg) * 2.0 ** (k - nu - 1.0)
            * math.factorial(2 * k) / (2.0 ** k * math.factorial(k)))
        piece = bnd * rho * (
            bessel_k(k - nu, rho) * struve_l(k - nu - 1.0, rho)
            + bessel_k(k - nu - 1.0, rho) * struve_l(k - nu, rho))
        scale = abs(piece) + abs(l_integral(two_k, nu, rho))
        want = rho ** (two_k - nu) * bessel_k(nu, rho)
        return 1e-16 * scale / (h * abs(want))

    def test_derivative_residuals(self, rng):
        # rho capped at 5: beyond that the derivative decays like e^-rho while
        # the antiderivative stays O(1), and the FD noise floor crosses 1e-7
        for _ in range(20):
            k = int(rng.integers(0, 5))
            rho = rng.uniform(0.3, 5.0)
            nu = rng.uniform(0.2, 2.4)
            arg = 0.5 - nu + k
            if arg <= 0 and abs(arg - round(arg)) < 0.05:
                continue
            h = max(1e-5, 1e-5 * rho)
            if self._noise_floor(2 * k, nu, rho, h) > 3e-9:
                continue
            dl = central(lambda s: l_integral(2 * k, nu, s), rho, h)
            want = rho ** (2 * k - nu) * bessel_k(nu, rho)
            assert dl == pytest.approx(want, rel=1e-7)

    def test_recurrence(self, rng):
        # L^{2k}_nu + rho^{2k-nu} K_{1-nu} - (2k-1) L^{2k-2}_{nu-1} = 0
        for _ in range(20):
            k = int(rng.integers(1, 5))
            rho = rng.uniform(0.5, 6.0)
            nu = rng.uniform(0.2, 2.4)
            if abs((0.5 - nu + k) - round(0.5 - nu + k)) < 0.05:
                continue
            lhs = (
                l_integral(2 * k, nu, rho)
                + rho ** (2 * k - nu) * bessel_k(1 - nu, rho)
                - (2 * k - 1) * l_integral(2 * k - 2, nu - 1, rho)
            )
            scale = abs(l_integral(2 * k, nu, rho)) + 1.0
            assert abs(lhs) <= 1e-10 * scale

    def test_domain(self):
        with pytest.raises(DomainError):
            l_integral(1, 0.7, 1.0)  # odd power
        with pytest.raises(DomainError):
            l_integral(2, 1.5, 1.0)  # Gamma pole at 1/2 - nu + k = 0
        with pytest.raises(UnsupportedRangeError):
            l_integral(2, 0.7, 31.0)


class TestRatioBounds:
    def test_basic_point(self):
        assert ratio_bounds_check(0.5, 1.0)

    def test_grid(self):
        for nu in (0.5, 1.0, 2.0, 5.0):
            for x in np.linspace(0.05, 20.0, 25):
                res = ratio_bounds_check(nu, float(x))
                assert res, res

    def test_small_x_limits(self):
        res = ratio_bounds_check(1.0, 1e-4)
        assert res
        assert res.i_lhs < 1e-3 and res.i_rhs < 1e-3
        assert res.k_lhs < 1e-3 and res.k_rhs < 1e-3

    def test_domain(self):
        with pytest.raises(DomainError):
            ratio_bounds_check(-0.5, 1.0)
        res = ratio_bounds_check(0.2, 1.0)
        assert res.k_ok is None and res.i_ok is not None
