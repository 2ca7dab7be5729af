import math

import mpmath
import numpy as np
import pytest

from conftest import approx
from hypfrac import specfun
from hypfrac.errors import DomainError
from hypfrac.geometry import aux_H
from hypfrac.scale import (
    MonotonicityReport,
    ScaleValues,
    i0_closed,
    i0_quadrature,
    i_total_quadrature,
    iinf_closed,
    iinf_quadrature,
    monotonicity_report,
    r0_solve,
    scale_values,
)


# frozen 25-digit mpmath quadratures of the defining integrals
I0_1_05 = 1.249834791879961053211954
IINF_1_05 = 1.356599752804994204287694
I0_2_03 = 1.267129210514769240513366
IINF_2_03 = 3.639914272558531170360346


def _mp_i0(R, g):
    """I0(R) by its two-line closed form in mpmath, at the working precision."""
    R, g = mpmath.mpf(R), mpmath.mpf(g)
    c1 = 2 ** g * g / ((1 - g) * mpmath.gamma(1 - g))
    c2 = c1 / (2 - g)
    i12, i32, i52 = (mpmath.besseli(n, R) for n in (0.5, 1.5, 2.5))
    k_hi, k_mid, k_lo = (mpmath.besselk(n + g, R) for n in (1.5, 0.5, -0.5))
    return R ** (3 - g) * (c1 * (i12 * k_hi + i32 * k_mid) - c2 * (i32 * k_mid + i52 * k_lo))


def _mp_iinf(R, g):
    """Iinf(R) by its closed form in mpmath, at the working precision."""
    R, g = mpmath.mpf(R), mpmath.mpf(g)
    c = 2 ** g / (mpmath.gamma(1 - g) * R ** (g - 3))
    return c * (mpmath.besseli(0.5, R) * mpmath.besselk(1.5 + g, R)
                + mpmath.besseli(1.5, R) * mpmath.besselk(0.5 + g, R))


class TestFrozenReferences:
    def test_mpmath_anchors(self):
        assert i0_closed(1.0, 0.5) == approx(I0_1_05, rel=1e-12)
        assert iinf_closed(1.0, 0.5) == approx(IINF_1_05, rel=1e-12)
        assert i0_closed(2.0, 0.3) == approx(I0_2_03, rel=1e-12)
        assert iinf_closed(2.0, 0.3) == approx(IINF_2_03, rel=1e-10)

    def test_numpy_scalar_radius(self):
        # numpy's scalar power warned in the Bessel series where a float's raised
        for R in (336.9, 607.5):
            for f in (i0_closed, iinf_closed):
                assert f(np.float64(R), 0.5) == f(R, 0.5)
                assert type(f(np.float64(R), 0.5)) is float


class TestClosedFormsAgainstMpmath:
    """The closed forms read I at orders 1/2, 3/2 and 5/2 in elementary form
    and K_(gamma + 3/2) off its recurrence."""

    @pytest.mark.parametrize("g", [0.1, 0.5, 0.9, 0.99])
    def test_i0(self, g):
        # the three-K form with the series of I read 5.2e-15 at gamma .99
        with mpmath.workdps(40):
            worst = max(abs(mpmath.mpf(i0_closed(R, g)) / _mp_i0(R, g) - 1)
                        for R in np.geomspace(1e-3, 50.0, 120).tolist())
        assert worst <= 5e-15

    def test_the_barrier_calls_run_no_series(self, monkeypatch):
        # the tail mass at the radii of barrier-sweep and the front factor
        # at R = 7 of the barrier check
        def refused(*args):
            raise AssertionError("the ascending series of bessel_i")

        monkeypatch.setattr(specfun, "_i_series", refused)
        with mpmath.workdps(40):
            for A in (4.0, 13.0, 82.0):
                assert iinf_closed(A, 0.99) == approx(float(_mp_iinf(A, 0.99)), rel=2e-15)
            assert i0_closed(7.0, 0.99) == approx(float(_mp_i0(7.0, 0.99)), rel=2e-15)


class TestClosedVsQuadrature:
    def test_i0_grid(self):
        for R in (0.1, 0.5, 1.0, 2.5, 5.0):
            for g in (0.001, 0.01, 0.1, 0.35, 0.6, 0.85, 0.95, 0.999):
                assert i0_closed(R, g) == approx(i0_quadrature(R, g), rel=1e-8)

    def test_iinf_grid(self):
        for R in (0.1, 0.5, 1.0, 2.5, 5.0):
            for g in (0.001, 0.01, 0.1, 0.35, 0.6, 0.85, 0.95, 0.999):
                assert iinf_closed(R, g) == approx(iinf_quadrature(R, g), rel=1e-8)

    def test_additivity_third_route(self):
        for (R, g) in [(0.7, 0.4), (2.0, 0.85), (1.0, 0.2), (3.0, 0.001), (0.5, 0.01),
                       (2.0, 0.999)]:
            total = i_total_quadrature(R, g)
            assert i0_closed(R, g) + iinf_closed(R, g) == approx(total, rel=1e-9)

    def test_finite_near_gamma_one(self):
        # well-definedness at the gamma -> 1 end of the quadrature route
        val = i0_quadrature(1.0, 0.99)
        assert math.isfinite(val)
        assert val == approx(i0_closed(1.0, 0.99), rel=1e-8)


class TestShape:
    def test_i0_increasing_in_R(self):
        for g in (0.3, 0.7):
            vals = [i0_closed(R, g) for R in np.linspace(0.1, 5.0, 30)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_iinf_over_R2_decreasing(self):
        for g in (0.3, 0.7):
            vals = [iinf_closed(R, g) / R ** 2 for R in np.linspace(0.1, 5.0, 30)]
            assert all(b < a for a, b in zip(vals, vals[1:]))


class TestGammaLimits:
    def test_i0_to_six(self):
        for R in (0.5, 1.0, 2.0):
            errs = [abs(i0_closed(R, g) - 6.0) for g in (0.9, 0.99, 0.999)]
            assert errs[-1] <= 0.05
            assert errs == sorted(errs, reverse=True)

    def test_iinf_to_zero(self):
        for R in (0.5, 1.0, 2.0):
            vals = [iinf_closed(R, g) for g in (0.9, 0.99, 0.999)]
            assert vals[-1] <= 0.05
            assert vals == sorted(vals, reverse=True)


class TestR0:
    def test_linearity_in_rho0(self):
        base = r0_solve(1.0, 0.5, 0.25) / 0.25
        for rho0 in (0.1, 0.5, 0.9):
            assert r0_solve(1.0, 0.5, rho0) / rho0 == approx(base, rel=1e-9)

    def test_inside_interval(self):
        for g in (0.2, 0.5, 0.8):
            x = r0_solve(2.0, g, 1.0 - 1e-12)
            assert 0.0 < x < 2.0

    def test_defining_equation(self):
        for (R, g) in [(1.0, 0.4), (3.0, 0.7)]:
            x = r0_solve(R, g, 0.25) / 0.25
            assert i0_closed(x, g) == approx(i0_closed(R, g) / 2.0, rel=1e-8)

    def test_vanishes_as_gamma_to_one(self):
        vals = [r0_solve(1.0, g, 0.25) for g in (0.9, 0.99, 0.999)]
        assert vals[-1] <= 0.05 * 0.25
        assert vals == sorted(vals, reverse=True)

    def test_domain(self):
        with pytest.raises(DomainError):
            r0_solve(1.0, 0.5, 1.5)

    @pytest.mark.parametrize("R, g", [(0.5, 0.2), (1.0, 0.4), (3.0, 0.7), (20.0, 0.9)])
    def test_against_mpmath(self, R, g):
        # roots above 1e-3, where r0_solve uses the closed form itself; the
        # 30-digit root of I0(x) = I0(R) / 2 in log x, by a bracketing solver
        with mpmath.workdps(30):
            half = _mp_i0(R, g) / 2
            log_x = mpmath.findroot(lambda s: _mp_i0(mpmath.exp(s), g) - half,
                                    (mpmath.log(1e-3), mpmath.log(R)), solver="anderson")
            want = float(0.25 * mpmath.exp(log_x))
        assert r0_solve(R, g, 0.25) == approx(want, rel=1e-10)


class TestMonotonicityReport:
    def test_mid_gamma(self):
        rep = monotonicity_report(0.5, np.linspace(0.1, 5.0, 40))
        assert isinstance(rep, MonotonicityReport)
        assert rep.all_hold
        assert rep.ratio_decreasing_margin_weighted >= 0.0
        assert rep.ratio_decreasing_margin_quadratic >= 0.0
        assert rep.comparison_margin >= 0.0

    def test_near_limit_gamma(self):
        rep = monotonicity_report(0.95, np.linspace(0.1, 5.0, 40))
        assert rep.all_hold

    def test_euclidean_regime_ratios_flatten(self):
        # consecutive ratios of I0/R^(2-2*gamma) approach 1 as R -> 0, the
        # flat-space scaling becoming exact
        g = 0.5
        grid = [1e-4, 2e-4, 4e-4]
        w = [i0_closed(r, g) / r ** (2.0 - 2.0 * g) for r in grid]
        assert w[1] / w[0] == pytest.approx(1.0, abs=1e-4)
        assert w[2] / w[1] == pytest.approx(1.0, abs=1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            monotonicity_report(0.5, [2.0, 1.0])


class TestScaleValues:
    def test_constructor_invariant(self):
        sv = scale_values(1.0, 0.5)
        assert sv.i0 > 0 and sv.iinf > 0
        bound = (1 - 0.5) / 0.5 * aux_H(1.0) * sv.i0
        assert sv.iinf <= bound

    def test_rejects_inconsistent(self):
        with pytest.raises(DomainError):
            ScaleValues(i0=1.0, iinf=100.0, R=1.0, gamma=0.5)
