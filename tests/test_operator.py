import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest
from conftest import approx, finite_or_typed
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import CubicSpline

import hypfrac
from hypfrac.errors import CalibrationError, DomainError, NumericError, UnsupportedRangeError
from hypfrac.geometry import _MAX_SPAN, acosh1p, aux_H
from hypfrac.kernel import kernel_sinh2
from hypfrac.operator import (
    ArccosReport,
    BarrierSpec,
    EllipticityBounds,
    RadialProfile,
    SphericalTransform,
    apply_fraclap,
    arccos_inequalities,
    barrier_alpha_sweep,
    barrier_check,
    barrier_profile,
    barrier_shifted_value,
    barrier_value,
    constant_profile,
    envelope,
    gaussian_bump,
    laplace_beltrami_radial,
    make_profile,
    multiplier_oracle,
    paraboloid,
    polar_grid,
    polynomial_bump,
    pucci_minus,
    pucci_plus,
    second_difference,
    tabulated,
)
from hypfrac.operator import (_PANEL_LIMIT, _R_FLOOR, _TAIL_EPS, _graded_cuts,
                              _nonlocal_integral, _pairwise_distance, _sphere_integrals,
                              _table)
from hypfrac.quadrature import QuadratureConfig, integrate
from hypfrac.scale import i0_closed, iinf_closed

UNIT = EllipticityBounds(1.0, 1.0)
WIDE = EllipticityBounds(0.5, 2.0)


class TestProfiles:
    def test_factory(self):
        assert make_profile("gaussian-bump").name == "gaussian-bump"
        assert make_profile("polynomial-bump", radius=2.0).support_radius == 2.0
        assert make_profile("constant", value=3.0)(17.0) == 3.0
        tab = make_profile(
            "tabulated", r_samples=[0.0, 0.5, 1.0, 1.5], values=[1.0, 0.8, 0.4, 0.0])
        assert tab(0.5) == approx(0.8)
        with pytest.raises(DomainError):
            make_profile("unknown-family")

    def test_polynomial_bump_boundary(self):
        u = polynomial_bump(1.5)
        assert u(1.5) == 0.0 and u(2.0) == 0.0
        assert u(0.0) == 1.0

    def test_tabulated_interpolation(self):
        r = np.linspace(0.0, 2.0, 30)
        u = tabulated(r, np.exp(-r ** 2))
        assert u(0.7) == pytest.approx(math.exp(-0.49), abs=1e-5)
        assert u(3.0) == 0.0

    def test_paraboloid_not_bounded(self):
        with pytest.raises(DomainError):
            apply_fraclap(paraboloid(), 0.0, 0.5)


class TestArrayEvaluation:
    """``u`` on an array agrees with ``u`` at each scalar entrywise."""

    def check(self, u, radii):
        radii = np.asarray(radii, dtype=float)
        got = u(radii.reshape(-1, 1)).ravel()
        want = np.array([u(float(r)) for r in radii])
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    def test_families(self):
        r = np.linspace(0.0, 4.0, 41)
        self.check(constant_profile(2.5), r)
        self.check(gaussian_bump(0.7), r)
        self.check(polynomial_bump(1.5), np.concatenate([r, [1.5, 1.5 - 1e-12]]))
        self.check(paraboloid(1.0, 2.0, 0.5), r)

    def test_tabulated_beyond_last_sample(self):
        samples = np.linspace(0.0, 2.0, 12)
        u = tabulated(samples, np.cos(samples))
        self.check(u, np.concatenate([np.linspace(0.0, 3.0, 31), [2.0, 2.0 + 1e-12]]))

    def test_barrier_both_sides_of_kink(self):
        spec = BarrierSpec(delta=0.5, alpha=8.0, R=1.0, gamma=0.99)
        rk = spec.kink_radius
        r = [0.0, 0.5 * rk, rk * (1 - 1e-12), rk, rk * (1 + 1e-12), 2 * rk, 1.0, 4.9, 30.0]
        self.check(barrier_profile(spec), r)


class TestScalarEvaluation:
    """``u(r)`` of every family, its array evaluator at a scalar, against
    the family's formula written out."""

    RADII = (0.0, 0.3, 1.0, 1.5, 2.7)

    def test_families(self):
        for r in self.RADII:
            assert constant_profile(2.5)(r) == 2.5
            assert gaussian_bump(0.7)(r) == approx(math.exp(-(r / 0.7) ** 2), rel=1e-15)
            want = (1.0 - (r / 1.5) ** 2) ** 3 if r < 1.5 else 0.0
            assert polynomial_bump(1.5)(r) == pytest.approx(want, rel=1e-14, abs=1e-300)
            assert paraboloid(1.0, 2.0, 0.5)(r) == approx(1.0 - 4.0 * r * r, rel=1e-15)

    def test_tabulated_at_samples(self):
        samples = np.linspace(0.0, 2.0, 12)
        u = tabulated(samples, np.cos(samples))
        for r in samples:
            assert u(float(r)) == pytest.approx(math.cos(r), rel=1e-14, abs=1e-15)
        assert u(2.5) == 0.0

    def test_barrier_both_sides_of_kink(self):
        spec = BarrierSpec(delta=0.5, alpha=8.0, R=1.0, gamma=0.99)
        rk = spec.kink_radius
        u = barrier_profile(spec)
        for r in (0.0, 0.5 * rk, rk, rk * (1 + 1e-12), 2 * rk, 1.0, 4.9):
            assert u(r) == approx(barrier_value(spec, r), rel=1e-15)

    def test_returns_python_float(self):
        spec = BarrierSpec(delta=0.5, alpha=8.0, R=1.0, gamma=0.99)
        tab = tabulated(np.linspace(0.0, 2.0, 12), np.ones(12))
        for u in (constant_profile(1), gaussian_bump(), polynomial_bump(),
                  paraboloid(), tab, barrier_profile(spec)):
            assert type(u(0.5)) is float

    @pytest.mark.parametrize("u, r", [
        (barrier_profile(BarrierSpec(0.5, 2.0, 1.0, 0.99)), -1.0),
        (barrier_profile(BarrierSpec(0.5, 2.0, 1.0, 0.99)), math.nan),
        (barrier_profile(BarrierSpec(0.5, 64.0, 1.0, 0.99)), -1e-3),
        (barrier_profile(BarrierSpec(0.5, 64.0, 1.0, 0.99)), math.nan),
        (gaussian_bump(), -1.0), (gaussian_bump(), -1e-3), (gaussian_bump(), math.nan)])
    def test_refuses_negative_and_nan_radii(self, u, r):
        # u(r) refuses the radius and names the profile, at a float as in an array
        for bad in (r, np.array([0.5, r])):
            with pytest.raises(DomainError, match=f"profile '{u.name}'"):
                u(bad)
        # f, the evaluator the quadratures call on their node arrays, is unchecked
        assert np.isnan(u.f(np.array([math.nan]))[0])

    def test_overflowing_barrier_raises(self):
        # the alpha = 128 floor overflows a float, in u(r) as in barrier_value
        spec = BarrierSpec(delta=0.5, alpha=128.0, R=1.0, gamma=0.99)
        for r in (0.5 * spec.kink_radius, 0.2):
            with pytest.raises(NumericError):
                barrier_value(spec, r)
            with pytest.raises(NumericError):
                barrier_profile(spec)(r)

    def test_overflowing_shifted_barrier_and_tail_radius_raise(self):
        # (5R/d)^(2 alpha) at alpha 200, and eps^(-1/(2 alpha)) at a small alpha
        with pytest.raises(NumericError, match="alpha=200"):
            barrier_shifted_value(BarrierSpec(0.5, 200.0, 1.0, 0.5), 0.13)
        for alpha in (1e-3, 1e-300):
            with pytest.raises(NumericError, match=f"alpha={alpha:g}"):
                barrier_profile(BarrierSpec(0.5, alpha, 1.0, 0.5)).tail_radius(1e-14)
        with pytest.raises(NumericError, match="alpha=1e-300"):
            barrier_check(BarrierSpec(0.5, 1e-300, 1.0, 0.5), [1.0], EllipticityBounds())


def _profile_at(factory, args, r):
    """factory(*args) read at r: a float, the same radius as a numpy scalar,
    and an array of it and 2r."""
    u = factory(*args)
    return u(r), u(np.float64(r)), u(np.array([r, 2.0 * r]))


def _tail_radius(factory, args, eps):
    return factory(*args).tail_radius(eps)


_any = st.one_of(st.floats(), st.floats(-2.0, 40.0))
# sample sets of 4 to 8: any radii, and radii that increase by drawn spacings
_radii = st.one_of(
    st.lists(_any, min_size=4, max_size=8),
    st.lists(st.floats(1e-3, 10.0), min_size=4, max_size=8).map(lambda dr: np.cumsum(dr).tolist()))
_samples = _radii.flatmap(
    lambda r: st.tuples(st.just(r), st.lists(_any, min_size=len(r), max_size=len(r))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=_any, b=_any, c=_any, samples=_samples, r=_any, eps=_any)
# each raised a raw error, warned or gave a non-finite value at the parent:
# scipy's ValueError for repeated or infinite radii and for a nan value, an
# overflow warning in the spline's slopes, tail_radius at eps 0, 2 and nan,
# constant_profile(inf), polynomial_bump(1e-300) at .5 and paraboloid() at 1e300
@example(a=1.0, b=1.0, c=1.0, samples=([0.0, 0.0, 1.0, 2.0], [1.0] * 4), r=0.5, eps=0.5)
@example(a=1.0, b=1.0, c=1.0, samples=([0.0, 1.0, 2.0, math.inf], [1.0] * 4), r=0.5, eps=0.5)
@example(a=1.0, b=1.0, c=1.0, samples=([0.0, 1.0, 2.0, 3.0], [1.0, math.nan, 1.0, 1.0]),
         r=0.5, eps=0.5)
@example(a=1.0, b=1.0, c=1.0, samples=([-1.0, 0.0, 1.0, 2.0], [1.0, 2.0, 3.0, 4.0]),
         r=0.5, eps=0.5)
@example(a=1.0, b=1.0, c=1.0, samples=([0.0, 1.0, 2.0, 3.0], [1.0, 1e308, -1e308, 1.0]),
         r=0.5, eps=0.5)
@example(a=1.0, b=1.0, c=1.0, samples=([0.0, 1.0, 2.0, 3.0], [1.0] * 4), r=0.5, eps=0.0)
@example(a=1.0, b=1.0, c=1.0, samples=([0.0, 1.0, 2.0, 3.0], [1.0] * 4), r=0.5, eps=2.0)
@example(a=1.0, b=1.0, c=1.0, samples=([0.0, 1.0, 2.0, 3.0], [1.0] * 4), r=0.5, eps=math.nan)
@example(a=math.inf, b=1.0, c=1.0, samples=([0.0, 1.0, 2.0, 3.0], [1.0] * 4), r=1.0, eps=0.5)
@example(a=1e-300, b=1.0, c=1.0, samples=([0.0, 1.0, 2.0, 3.0], [1.0] * 4), r=0.5, eps=0.5)
@example(a=0.0, b=1.0, c=1.0, samples=([0.0, 1.0, 2.0, 3.0], [1.0] * 4), r=1e300, eps=0.5)
def test_profile_entry_points_return_finite_or_raise_typed(a, b, c, samples, r, eps):
    # every factory on floats, then on numpy scalars; u(r) on a float, a
    # numpy scalar and an array
    for a, b, c in ((a, b, c), (np.float64(a), np.float64(b), np.float64(c))):
        for factory, args in ((constant_profile, (a,)), (gaussian_bump, (a,)),
                              (polynomial_bump, (a,)), (paraboloid, (a, b, c)),
                              (tabulated, samples)):
            finite_or_typed(_profile_at, factory, args, r)
            finite_or_typed(_tail_radius, factory, args, eps)


_BARRIER = barrier_profile(BarrierSpec(0.5, 2.0, 1.0, 0.99))


@pytest.mark.parametrize("probe, error", [
    pytest.param(lambda: tabulated([0.0, 0.0, 1.0, 2.0], [1.0] * 4), DomainError,
                 id="repeated-radius"),
    pytest.param(lambda: tabulated([0.0, 1.0, 2.0, math.inf], [1.0] * 4), DomainError,
                 id="infinite-radius"),
    pytest.param(lambda: tabulated([0.0, 1.0, 2.0, 3.0], [1.0, math.nan, 1.0, 1.0]),
                 DomainError, id="nan-value"),
    pytest.param(lambda: tabulated([-1.0, 0.0, 1.0, 2.0], [1.0, 2.0, 3.0, 4.0]), DomainError,
                 id="negative-radius"),
    pytest.param(lambda: tabulated([0.0, 1.0, 2.0, 3.0], [1.0, 1e308, -1e308, 1.0]),
                 NumericError, id="overflowing-slopes"),
    pytest.param(lambda: gaussian_bump().tail_radius(0.0), DomainError, id="tail-eps-0"),
    pytest.param(lambda: gaussian_bump().tail_radius(2.0), DomainError, id="tail-eps-2"),
    pytest.param(lambda: gaussian_bump().tail_radius(math.nan), DomainError, id="tail-eps-nan"),
    pytest.param(lambda: _BARRIER.tail_radius(0.0), DomainError, id="barrier-tail-eps-0"),
    pytest.param(lambda: gaussian_bump().tail_radius(1e-310), NumericError,
                 id="tail-overflow"),
    pytest.param(lambda: constant_profile(math.inf), DomainError, id="infinite-constant"),
    pytest.param(lambda: paraboloid(math.nan), DomainError, id="nan-offset"),
    pytest.param(lambda: paraboloid(0.0, math.inf), DomainError, id="infinite-curvature"),
    pytest.param(lambda: paraboloid()(1e300), NumericError, id="paraboloid-overflow"),
    pytest.param(lambda: paraboloid()(np.array([1.0, 1e300])), NumericError,
                 id="paraboloid-overflow-array"),
])
def test_profile_probes_raise_typed(probe, error):
    with pytest.raises(error, match="profile|value|offset|curvature"):
        probe()


def test_tail_radius_is_unchanged_at_valid_eps():
    # the eps check moves no value: the families' formulas, written out
    assert gaussian_bump(0.7).tail_radius(1e-12) == 0.7 * math.sqrt(math.log(1.0 / 1e-12)) + 1.0
    assert _BARRIER.tail_radius(np.float64(1e-10)) == 5.0 * 1e-10 ** (-0.25) + 1.0
    assert constant_profile().tail_radius(0.5) == 1.0
    assert polynomial_bump(2.0).tail_radius(1e-300) == 2.0


class TestNotAKnotSpline:
    """``tabulated`` against ``CubicSpline(extrapolate=False)``, the spline it
    writes out in numpy: within 1e-14 of max|values| on [r_0, r_last]
    (measured: equal, bit for bit, with scipy 1.17.1)."""

    @staticmethod
    def gap(r_samples, values, radii):
        want = CubicSpline(r_samples, values, extrapolate=False)(radii)
        got = tabulated(r_samples, values)(radii)
        return np.max(np.abs(got - want)) / np.max(np.abs(values))

    @pytest.mark.parametrize("r_samples, values", [
        (np.linspace(0.0, 2.0, 30), np.exp(-np.linspace(0.0, 2.0, 30) ** 2)),
        ([0.0, 0.5, 1.0, 1.5], [1.0, 0.8, 0.4, 0.0]),
        (np.linspace(0.0, 2.0, 12), np.cos(np.linspace(0.0, 2.0, 12))),
        (np.linspace(0.0, 2.0, 12), np.ones(12)),
    ])
    def test_samples_of_the_tabulated_tests(self, r_samples, values):
        radii = np.linspace(r_samples[0], r_samples[-1], 1001)
        assert self.gap(r_samples, values, radii) <= 1e-14
        assert self.gap(r_samples, values, np.asarray(r_samples)) <= 1e-14

    def test_random_sample_sets(self, rng):
        # rough values on knots whose smallest spacing is >= 1e-2 of the
        # largest: on near-coincident knots both solves' rounding grows with
        # the system's condition number, and they no longer agree to 1e-14
        worst = 0.0
        for _ in range(300):
            n = int(rng.integers(4, 201))
            spacing = rng.uniform(1e-2, 1.0, n - 1) * 10.0 ** rng.uniform(-3.0, 3.0)
            r_samples = rng.uniform(0.0, 5.0) + np.concatenate([[0.0], np.cumsum(spacing)])
            values = rng.normal(size=n) * 10.0 ** rng.uniform(-5.0, 5.0)
            radii = np.concatenate([r_samples, rng.uniform(r_samples[0], r_samples[-1], 200)])
            worst = max(worst, self.gap(r_samples, values, radii))
        assert worst <= 1e-14

    def test_clipped_below_and_zero_beyond(self):
        u = tabulated([0.5, 1.0, 1.5, 2.0], [3.0, 2.0, 1.0, 0.5])
        np.testing.assert_array_equal(u(np.array([0.0, 0.25, 0.5, 2.0, 2.0 + 1e-12, 7.0])),
                                      [3.0, 3.0, 3.0, 0.5, 0.0, 0.0])

    def test_built_in_linear_time(self):
        # one O(n) sweep, no n x n matrix: 10^4 samples in ~6 ms on a 2-core
        # VM; the bound is ten times a 50 ms budget, against a scheduler's
        # stalls
        r_samples = np.linspace(0.0, 100.0, 10_000)
        start = time.perf_counter()
        tabulated(r_samples, np.sin(r_samples))
        assert time.perf_counter() - start < 0.5


class TestSecondDifference:
    def test_constant_vanishes(self, rng):
        u = constant_profile(2.5)
        for _ in range(20):
            assert second_difference(
                u, rng.uniform(0, 3), rng.uniform(0, 3), rng.uniform(-1, 1)) == 0.0

    def test_squared_distance_profile(self, rng):
        from hypfrac.geometry import law_of_cosines

        u = RadialProfile(f=lambda r: r * r, bounded=False, name="dsq")
        for _ in range(50):
            R0, r, w1 = rng.uniform(0.1, 3), rng.uniform(0, 2), rng.uniform(-1, 1)
            dm, dp = law_of_cosines(r, R0, w1)
            want = (dm * dm + dp * dp - 2 * R0 * R0) / 2
            assert second_difference(u, R0, r, w1) == approx(want, rel=1e-12)

    def test_tangential_small_r_limit(self):
        # delta / r^2 -> u'(R0) coth(R0) / 2 at omega1 = 0
        u = gaussian_bump()
        R0 = 1.2
        du = -2 * R0 * math.exp(-R0 * R0)
        want = du / math.tanh(R0) / 2
        vals = [second_difference(u, R0, r, 0.0) / r ** 2 for r in (1e-2, 1e-3)]
        assert vals[1] == approx(want, rel=1e-4)


class TestFracLap:
    def test_constant_is_zero(self):
        assert apply_fraclap(constant_profile(3.0), 0.7, 0.5) == 0.0

    def test_gamma_to_one_limit(self):
        # -(-Delta)^gamma e^{-r^2} at the origin tends to Delta u(0) = -6
        val = apply_fraclap(gaussian_bump(), 0.0, 0.995)
        assert abs(val + 6.0) <= 0.05 * 6.0
        errs = [abs(apply_fraclap(gaussian_bump(), 0.0, g) + 6.0)
                for g in (0.9, 0.95, 0.99, 0.995)]
        assert errs == sorted(errs, reverse=True)

    def test_requires_smoothness(self):
        u = RadialProfile(f=lambda r: np.maximum(0.0, 1 - r), smoothness="C0", name="cone")
        with pytest.raises(DomainError):
            apply_fraclap(u, 0.0, 0.5)

    @pytest.mark.parametrize("op", [
        lambda u, R0: apply_fraclap(u, R0, 0.5),
        lambda u, R0: pucci_plus(u, R0, 0.5, WIDE),
        lambda u, R0: pucci_minus(u, R0, 0.5, UNIT),
    ])
    def test_evaluation_point_range(self, op):
        # the cut radius A = R0 + tail radius: A + R0 must stay in the span of
        # the law of cosines, where sinh r sinh R0 and its square are floats
        u = gaussian_bump()
        top = 0.5 * (_MAX_SPAN - u.tail_radius(1e-12))
        assert math.isfinite(op(u, top - 1e-9))
        for R0 in (top + 1e-9, 1e300):
            with pytest.raises(UnsupportedRangeError):
                op(u, R0)
        for R0 in (math.nan, math.inf, -1.0):
            with pytest.raises(DomainError):
                op(u, R0)

    def test_well_definedness_bound(self):
        # |Lu| <= Lambda |u|_C2 I0(R) + 2 Lambda |u|_inf Iinf(R)
        u = gaussian_bump()
        R, g = 1.0, 0.6
        rr = np.linspace(1e-4, 8.0, 4000)
        vals = np.exp(-rr ** 2)
        d1 = -2 * rr * vals
        d2 = (4 * rr ** 2 - 2) * vals
        c2_norm = max(np.max(np.abs(vals)), np.max(np.abs(d1)),
                      np.max(np.abs(d2)), np.max(np.abs(d1 / np.tanh(rr))))
        bound = c2_norm * i0_closed(R, g) + 2.0 * 1.0 * iinf_closed(R, g)
        for R0 in (0.0, 0.5, 1.0):
            assert abs(apply_fraclap(u, R0, g)) <= bound


class TestSpectralOracle:
    def test_calibration_constant(self):
        st = SphericalTransform(gaussian_bump())
        assert st.kappa == approx(1.0 / (2.0 * math.pi ** 2), rel=1e-6)

    def test_forward_closed_form(self):
        # u_hat of exp(-r^2) is 2 pi^(3/2) exp((1 - lam^2)/4) sin(lam/2)/lam
        st = SphericalTransform(gaussian_bump())
        for lam in (0.3, 1.0, 2.5, 5.0, 9.0):
            want = (2.0 * math.pi ** 1.5 * math.exp((1.0 - lam * lam) / 4.0)
                    * math.sin(lam / 2.0) / lam)
            assert st.forward(lam) == pytest.approx(want, rel=1e-10, abs=1e-13)

    def test_round_trip(self):
        st = SphericalTransform(gaussian_bump())
        for r in (0.0, 0.3, 0.8, 1.4):
            assert st.roundtrip(r) == pytest.approx(math.exp(-r * r), abs=1e-6)

    def test_plancherel(self):
        st = SphericalTransform(gaussian_bump())
        assert st.plancherel_spectral() == approx(st.norm_sq_direct(), rel=1e-5)

    def test_matches_jump_integral(self):
        st = SphericalTransform(gaussian_bump())
        for g, R0 in [(0.3, 0.0), (0.6, 0.5), (0.9, 0.5)]:
            a = apply_fraclap(gaussian_bump(), R0, g)
            b = st.multiplier_value(R0, g)
            assert a == approx(b, rel=1e-3)

    def test_oneshot_wrapper(self):
        got = multiplier_oracle(gaussian_bump(), 0.0, 0.5)
        want = apply_fraclap(gaussian_bump(), 0.0, 0.5)
        assert got == approx(want, rel=1e-3)

    def test_lambda_cut_by_width(self):
        # the grid step halves from 0.1 until the spectrum of g, above its
        # rounding floor, lies below half the Nyquist frequency pi / (2 h):
        # the narrow bumps' spectra reach past 15.7, so they take 0.05
        steps = {w: SphericalTransform(gaussian_bump(w)).h
                 for w in (0.5, 0.6, 1.0, 1.6, 1.8, 2.0)}
        assert steps == {0.5: 0.05, 0.6: 0.05, 1.0: 0.1, 1.6: 0.1, 1.8: 0.1, 2.0: 0.1}

    def test_lambda_cut_of_other_profiles(self):
        # the narrow bump exp(-4 r^2) carries the spectrum of two_bumps past
        # half the Nyquist frequency of h = 0.1
        tail = lambda eps: math.sqrt(math.log(1.0 / eps)) + 1.0
        two_bumps = RadialProfile(f=lambda r: np.exp(-r * r) - 0.5 * np.exp(-4.0 * r * r),
                                  tail_width=tail)
        wave = RadialProfile(f=lambda r: np.exp(-r * r) * np.cos(2.0 * r), tail_width=tail)
        for u, step in ((two_bumps, 0.05), (wave, 0.1)):
            st = SphericalTransform(u)
            assert st.h == step
            assert st.multiplier_value(0.5, 0.6) == approx(
                apply_fraclap(u, 0.5, 0.6), rel=1e-8)

    def test_wide_bump_matches_jump_integral(self):
        u = gaussian_bump(2.0)
        assert multiplier_oracle(u, 0.5, 0.6) == approx(
            apply_fraclap(u, 0.5, 0.6), rel=1e-8)

    @pytest.mark.parametrize("width", [2.5, 3.0, 4.0, 5.0, 6.0])
    def test_wider_bumps_match_jump_integral(self, width):
        # g = sinh(s) u(|s|) is sampled out to where |u| sinh r falls to 1e-17
        # of its peak, not where u alone does: for these widths that is far
        # beyond the tail radius of u
        u = gaussian_bump(width)
        assert multiplier_oracle(u, 0.5, 0.6) == approx(
            apply_fraclap(u, 0.5, 0.6), rel=1e-9)

    def test_gamma_one_against_stencil(self):
        st = SphericalTransform(gaussian_bump())
        for R0 in (0.0, 0.7):
            assert st.multiplier_value(R0, 1.0) == approx(
                laplace_beltrami_radial(gaussian_bump(), R0), rel=1e-3)

    def test_profile_vanishing_at_the_center(self):
        # r^2 exp(-r^2) is 0 at r = 0, where a kappa fitted from the round
        # trip there had nothing to fit; the exact constant closes it to rounding
        u = RadialProfile(f=lambda r: r * r * np.exp(-r * r),
                          tail_width=lambda eps: math.sqrt(math.log(1.0 / eps)) + 2.0)
        st = SphericalTransform(u)
        for r in (0.0, 0.3, 0.8, 1.4):
            assert st.roundtrip(r) == pytest.approx(r * r * math.exp(-r * r), abs=1e-14)
        for R0 in (0.0, 0.5):
            assert st.multiplier_value(R0, 0.6) == approx(apply_fraclap(u, R0, 0.6),
                                                          rel=1e-7)

    @pytest.mark.parametrize("R0", [-0.5, math.nan, math.inf, -math.inf])
    def test_evaluation_point_range(self, R0):
        st = SphericalTransform(gaussian_bump())
        with pytest.raises(DomainError):
            st.multiplier_value(R0, 0.5)
        with pytest.raises(DomainError):
            st.roundtrip(R0)

    def test_far_evaluation_point(self):
        # R0 / sinh(R0) underflows to 0 rather than overflowing sinh
        st = SphericalTransform(gaussian_bump())
        assert st.multiplier_value(800.0, 0.5) == 0.0
        assert st.roundtrip(800.0) == 0.0

    def test_array_of_evaluation_points(self):
        # one sum serves a float R0 and an array of them, row by row alike
        st = SphericalTransform(gaussian_bump(0.8))
        R = np.array([0.0, 1e-6, 0.3, 0.5, 1.5, 4.0, 800.0])
        for got, one in ((st.multiplier_value(R, 0.6), lambda r: st.multiplier_value(r, 0.6)),
                         (st.roundtrip(R), st.roundtrip)):
            assert got.shape == R.shape
            want = np.array([one(r) for r in R.tolist()])
            assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
        for bad in (-0.5, math.nan):
            R_bad = np.array([0.5, bad])
            with pytest.raises(DomainError):
                st.multiplier_value(R_bad, 0.6)
            with pytest.raises(DomainError):
                st.roundtrip(R_bad)

    @pytest.mark.parametrize("w, R0, gamma", [
        (0.8, 0.0, 0.3), (0.8, 0.0, 0.99), (0.8, 1e-6, 0.3), (0.8, 0.5, 0.6),
        (0.6, 1.5, 0.2), (2.0, 0.0, 0.9), (4.0, 0.5, 0.6), (8.0, 0.5, 0.6)])
    def test_closed_form(self, w, R0, gamma):
        """For u = exp(-r^2 / w^2), g(s) = sinh(s) u(|s|) has the sine
        transform w sqrt(pi) e^(w^2/4) e^(-w^2 xi^2 / 4) sin(w^2 xi / 2), so

          -(-Delta)^gamma u(R0) = -(w e^(w^2/4) / (2 sqrt(pi) sinh R0))
              * int_{-inf}^{inf} e^(-w^2 xi^2 / 4) sin(w^2 xi / 2) sin(xi R0) (1 + xi^2)^gamma dxi,

        with sin(xi R0) / sinh R0 -> xi at R0 = 0.  The integrand is even
        and below e^-81 of its scale past xi = 18 / w; mpmath integrates it
        at dps 30 (40 for w >= 4, where e^(w^2/4) cancels against the
        integral), on panels two periods of sin(w^2 xi / 2) long.  Up to
        width 4 the oracle is held to 1e-12, and width 8 to 1e-8: g peaks at
        ~e^(w^2/4) times the value, and eps max|g| is the floor of its sum.
        """
        mp = mpmath.mp.clone()
        mp.dps = 40 if w >= 4.0 else 30
        w_, R0_, g_ = mp.mpf(w), mp.mpf(R0), mp.mpf(gamma)
        sin_ratio = (lambda x: mp.sin(x * R0_) / mp.sinh(R0_)) if R0 else (lambda x: x)
        f = lambda x: (mp.exp(-w_ * w_ * x * x / 4) * mp.sin(w_ * w_ * x / 2) * sin_ratio(x)
                       * (1 + x * x) ** g_)
        top = 18 / w_
        integral = 2 * mp.quad(f, mp.linspace(0, top, int(w * w * top / (2 * mp.pi)) + 2))
        want = float(-w_ * mp.exp(w_ * w_ / 4) / (2 * mp.sqrt(mp.pi)) * integral)
        rel = 1e-8 if w > 4.0 else 1e-12
        assert multiplier_oracle(gaussian_bump(w), R0, gamma) == approx(want, rel=rel)


class TestPucci:
    def test_constant_is_zero(self):
        u = constant_profile(1.0)
        assert pucci_plus(u, 0.5, 0.5, WIDE) == 0.0
        assert pucci_minus(u, 0.5, 0.5, WIDE) == 0.0

    def test_collapse_to_fraclap(self):
        barrier = barrier_profile(BarrierSpec(delta=0.5, alpha=4.0, R=1.0, gamma=0.6))
        for u in (gaussian_bump(), barrier):
            assert pucci_plus(u, 0.5, 0.6, UNIT) == approx(
                apply_fraclap(u, 0.5, 0.6), rel=1e-9)
            assert pucci_minus(u, 0.5, 0.6, UNIT) == approx(
                apply_fraclap(u, 0.5, 0.6), rel=1e-9)

    def test_ordering_and_duality(self, rng):
        profiles = [gaussian_bump(), polynomial_bump(2.0), gaussian_bump(0.5)]
        for u in profiles:
            R0 = float(rng.uniform(0.0, 1.5))
            g = float(rng.uniform(0.2, 0.9))
            mp_ = pucci_plus(u, R0, g, WIDE)
            mm_ = pucci_minus(u, R0, g, WIDE)
            mid = apply_fraclap(u, R0, g)
            assert mm_ <= mp_ + 1e-12
            for kappa in (0.5, 1.0, 2.0):
                assert mm_ - 1e-9 <= kappa * mid <= mp_ + 1e-9
            flip = RadialProfile(
                f=lambda r, uu=u: -uu(r),
                support_radius=u.support_radius,
                tail_width=u.tail_width,
                name="flip",
            )
            assert pucci_minus(u, R0, g, WIDE) == pytest.approx(
                -pucci_plus(flip, R0, g, WIDE), rel=1e-9, abs=1e-11)


@settings(max_examples=12, deadline=None)
@given(
    c=st.floats(1e-3, 1e3),
    R0=st.floats(0.0, 1.5),
    gamma=st.floats(0.2, 0.9),
    family=st.sampled_from(["gaussian-bump", "polynomial-bump"]),
)
def test_pucci_positive_homogeneity(c, R0, gamma, family):
    # M+-(c u) = c M+-(u) for c > 0.  M+ crosses zero as R0 varies, so the
    # tolerance is also taken against M+ - M- = (Lambda - lambda) * the
    # |delta| mass, to which the radial integral is resolved (1e-8)
    u = make_profile(family)
    scaled = RadialProfile(
        f=lambda r: c * u(r),
        support_radius=u.support_radius,
        tail_width=u.tail_width,
        name="scaled",
    )
    want = {op: op(u, R0, gamma, WIDE) for op in (pucci_plus, pucci_minus)}
    spread = want[pucci_plus] - want[pucci_minus]
    for op, m in want.items():
        assert op(scaled, R0, gamma, WIDE) == pytest.approx(
            c * m, rel=1e-9, abs=1e-8 * c * spread)


# pucci_plus and pucci_minus under bounds (.5, 2), to the last bit: their
# positive parts place each sign change by ten batched Illinois steps of
# ``quadrature._regula_falsi``, whose arithmetic these values fix
PINNED_PUCCI = [
    (None, 0.0, 0.3, -0.9292062753114536, -3.7168251012458144),
    (None, 0.5, 0.9, -2.0227397731092456, -8.090959092436982),
    (None, 1.0, 0.9, 0.5939190954453648, -1.491193061039661),
    (None, 2.2, 0.3, 0.011006817787134752, 0.0013636804321103292),
    (2.0, 0.13, 0.99, -152838273.93881685, -3627676560.484996),
    (2.0, 1.0, 0.99, 387.3909833710626, -20452.71439999699),
    (4.0, 0.5, 0.99, -12060144071864.357, -48256946903623.055),
    (16.0, 2.2, 0.99, -1.1573652040206071e+62, -4.6294608160824285e+62),
]


@pytest.mark.parametrize("alpha, R0, gamma, plus, minus", PINNED_PUCCI,
                         ids=[f"{a}-{R0}-{g}" for a, R0, g, _, _ in PINNED_PUCCI])
def test_nonlinear_pucci_is_bit_identical(alpha, R0, gamma, plus, minus):
    # alpha None: gaussian_bump(.8); else the barrier (delta, R, gamma) = (.5, 1, .99)
    u = (gaussian_bump(0.8) if alpha is None
         else barrier_profile(BarrierSpec(delta=0.5, alpha=alpha, R=1.0, gamma=0.99)))
    got = [pucci_plus(u, R0, gamma, WIDE), pucci_minus(u, R0, gamma, WIDE)]
    assert [repr(v) for v in got] == [repr(plus), repr(minus)]


def _paired(u, R0, u0, r, pos, neg, cfg):
    """The paired form, a reference for ``_sphere_integrals``: the integral
    over omega1 in [-1, 1] of the combine of delta, slopes (pos, neg), at each
    radius of the 1-D array r (every sphere resolved), as adaptive
    Gauss-Kronrod integrals at cfg in the distance w from the center of u.
    The antipodal average of the second difference is integrated over the
    half w in [|r - R0|, w_mid] of the sphere and doubled, in pieces cut at
    the kinks and their mirror images, in log w above a kink.  Returns the
    values and their |f| masses."""
    b = np.sinh(r) * math.sinh(R0)
    x_mid = 2.0 * np.sinh(0.5 * (r - R0)) ** 2 + b  # cosh(w_mid) - 1
    w_lo, w_mid = np.abs(r - R0), acosh1p(x_mid)
    assert np.all(w_mid - w_lo > 1e-6 * w_mid)

    def mirror(two_x, w):
        return acosh1p(np.maximum(two_x - 2.0 * np.sinh(0.5 * w) ** 2, 0.0))

    cols = [w_lo, w_mid]
    for rk in u.kink_radii:
        cols += [np.full_like(r, rk), mirror(2.0 * x_mid, rk)]
    cuts = np.sort(np.clip(np.column_stack(cols), w_lo[:, None], w_mid[:, None]), axis=1)
    keep = cuts[:, 1:] > cuts[:, :-1]
    lo, hi, node = cuts[:, :-1][keep], cuts[:, 1:][keep], np.nonzero(keep)[0]
    log_w = lo >= min(u.kink_radii, default=math.inf)
    lo[log_w], hi[log_w] = np.log(lo[log_w]), np.log(hi[log_w])

    def g(x, own):
        lw = log_w[own][:, None]
        w = np.where(lw, np.exp(x), x)
        jac = np.sinh(w) * np.where(lw, w, 1.0) / b[node[own]][:, None]
        d = 0.5 * (u.f(w) + u.f(mirror(2.0 * x_mid[node[own]][:, None], w))) - u0
        return np.where(d >= 0.0, pos * d, neg * d) * jac

    val, mass = integrate(g, lo, hi, node, r.size, cfg, "paired")
    return 2.0 * val, 2.0 * mass


def _mp_sphere(uf, R0, r, pos, neg, extra=()):
    """40-digit mpmath value and |f| mass of the integral over omega1 in
    [-1, 1] of the combine of delta, slopes (pos, neg), on the sphere of
    radius r; uf is the profile on mpf radii.  Taken on the half w in
    [|r - R0|, w_mid] and doubled, split at each sign change of delta
    between neighbours among 65 equispaced points of the half and the extra
    points.  Also returns the doubled integral of delta on each part."""
    with mpmath.workdps(40):
        r, R0 = mpmath.mpf(r), mpmath.mpf(R0)
        ch, b = mpmath.cosh(r) * mpmath.cosh(R0), mpmath.sinh(r) * mpmath.sinh(R0)
        u0 = uf(R0)

        def delta(w):
            return (uf(w) + uf(mpmath.acosh(2 * ch - mpmath.cosh(w)))) / 2 - u0

        lo, hi = abs(r - R0), mpmath.acosh(ch)
        grid = sorted([lo + (hi - lo) * k / 64 for k in range(65)] + list(extra))
        pts = [lo]
        for p, q in zip(grid, grid[1:]):
            dp = delta(p)
            if dp * delta(q) < 0:
                for _ in range(140):
                    m = (p + q) / 2
                    p, q = (m, q) if delta(m) * dp > 0 else (p, m)
                pts.append(p)
        pts.append(hi)
        parts = [2 * mpmath.quad(lambda w: delta(w) * mpmath.sinh(w), [p, q]) / b
                 for p, q in zip(pts, pts[1:])]
        comb = [pos * x if x > 0 else neg * x for x in parts]
        return float(sum(comb)), float(sum(abs(x) for x in comb)), [float(x) for x in parts]


class TestAngularForms:
    """``_sphere_integrals`` reads every sphere from one antiderivative
    table F: the combine is neg delta + (pos - neg) delta^+, the first term
    (F(r + R0) - F(|r - R0|)) / (sinh r sinh R0), the positive part the sum
    of G(b) - G(a), G(w) = F(w) - F(w_hat(w)), over the pieces where the
    paired second difference is positive.  The references: the paired form,
    adaptive Gauss-Kronrod at rel 1e-12, and 40-digit mpmath.

    The table's first panels halve toward R0, so even at r = 1e-2, where
    F(R0 +- r) ~ r^2 |u'| stand against a difference ~ r^3, the two forms
    agree to 1e-9 (worst 1.0e-10 here, 7.6e-12 of the |f| mass)."""

    RADII = np.array([1e-2, 0.1, 1.0, 3.0])
    CASES = ([(barrier_profile(BarrierSpec(delta=0.5, alpha=a, R=1.0, gamma=0.99)), R0)
              for a in (2.0, 16.0, 64.0) for R0 in (0.3, 1.0, 2.7)]
             + [(gaussian_bump(0.8), R0) for R0 in (0.5, 1.5)])
    PAIRED = QuadratureConfig(1e-12, 1e-18, 2000)

    @pytest.mark.parametrize("u,R0", CASES)
    def test_one_sided_matches_paired(self, u, R0):
        u0 = u(R0)
        table = _table(u, R0, 2.0 * R0 + self.RADII[-1])
        from_table = _sphere_integrals(table, u, R0, u0, self.RADII, 1.0, 1.0)
        paired, _ = _paired(u, R0, u0, self.RADII, 1.0, 1.0, self.PAIRED)
        np.testing.assert_allclose(from_table, paired, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("pos,neg", [(2.0, 0.5), (0.5, 2.0)])
    @pytest.mark.parametrize("u,R0", CASES)
    def test_split_matches_paired(self, u, R0, pos, neg):
        # worst 9.5e-12 of the |f| mass
        u0 = u(R0)
        table = _table(u, R0, 2.0 * R0 + self.RADII[-1])
        split = _sphere_integrals(table, u, R0, u0, self.RADII, pos, neg)
        paired, mass = _paired(u, R0, u0, self.RADII, pos, neg, self.PAIRED)
        assert np.all(np.abs(split - paired) <= 1e-10 * mass)

    @pytest.mark.parametrize("pos,neg", [(2.0, 0.5), (0.5, 2.0)])
    def test_close_root_pair(self, pos, neg):
        # a notch of width 5e-3 at s = 0.17 pulls delta below zero between two
        # roots ~1e-2 apart, inside one sample spacing (0.126 to 0.220) where
        # delta is positive at both samples: the positive part takes the
        # notch as positive, an error of (pos - neg) times its |delta| mass
        notch = RadialProfile(
            f=lambda s: np.exp(-s * s) - 0.5 * np.exp(-(((s - 0.17) / 5e-3) ** 2)),
            name="notch")
        R0, r = 1.0, np.array([1.0])
        got = _sphere_integrals(_table(notch, R0, 2.0 * R0 + 1.0), notch, R0, notch(R0), r,
                                pos, neg)[0]
        uf = lambda s: mpmath.exp(-s * s) - mpmath.exp(-(((s - 0.17) / 5e-3) ** 2)) / 2
        want, _, parts = _mp_sphere(uf, R0, 1.0, pos, neg, extra=[0.17])
        # the parts, from w = 0: positive, the notch, positive, negative
        assert len(parts) == 4 and parts[1] < 0.0 < min(parts[0], parts[2])
        assert abs(got - want) <= abs(pos - neg) * abs(parts[1]) * (1.0 + 1e-6)

    @pytest.mark.parametrize("pos,neg", [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0)])
    def test_frozen_node_against_mpmath(self, pos, neg):
        # the frozen node r = 1e-3 on the table the operator builds: worst
        # 7.8e-10 of the |f| mass (the paired form at its production
        # tolerance was off by up to 3.6e-8)
        cases = [(barrier_profile(BarrierSpec(0.5, a, 1.0, 0.99)),
                  lambda s, a=a: -((s / 5) ** (-2 * a)), R0)
                 for a in (2.0, 4.0) for R0 in (0.4, 1.0, 3.0)]
        cases += [(gaussian_bump(w), lambda s, w=w: mpmath.exp(-((s / w) ** 2)), R0)
                  for w in (0.8, 2.0) for R0 in (0.5, 1.5)]
        for u, uf, R0 in cases:
            top = 2.0 * R0 + min(u.tail_radius(_TAIL_EPS), 80.0)
            got = _sphere_integrals(_table(u, R0, top), u, R0, u(R0), np.array([1e-3]),
                                    pos, neg)[0]
            want, mass, _ = _mp_sphere(uf, R0, 1e-3, pos, neg)
            assert abs(got - want) <= 1e-8 * mass

    def test_no_angular_quadrature(self, monkeypatch):
        # every sphere, the frozen node's too, is read from the table, under
        # either bounds: the only adaptive integral is the radial one
        names = []

        def recording(f, lo, hi, owner, n_owners, cfg, what):
            names.append(what)
            return integrate(f, lo, hi, owner, n_owners, cfg, what)

        monkeypatch.setattr("hypfrac.operator.integrate", recording)
        u = barrier_profile(BarrierSpec(delta=0.5, alpha=4.0, R=1.0, gamma=0.99))
        for bounds in (UNIT, WIDE):
            for value in (pucci_plus(u, 1.0, 0.99, bounds), pucci_minus(u, 1.0, 0.99, bounds),
                          pucci_plus(gaussian_bump(), 0.5, 0.6, bounds)):
                assert math.isfinite(value)
        assert math.isfinite(apply_fraclap(gaussian_bump(), 0.5, 0.6))
        assert set(names) == {"radial integral"} and len(names) == 7


class TestAntiderivativeTable:
    @pytest.mark.parametrize("width", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("R0", [0.3, 1.5])
    def test_gaussian_closed_form(self, width, R0):
        # (w sqrt(pi)/4) e^(w^2/4) (erfc(s/w + w/2) - erfc(s/w - w/2)) is an
        # antiderivative of e^(-s^2/w^2) sinh(s); erfc keeps its digits where
        # both erf values are near 1
        def P(s):
            return (width * math.sqrt(math.pi) / 4.0 * math.exp(width * width / 4.0)
                    * (math.erfc(s / width + width / 2.0) - math.erfc(s / width - width / 2.0)))

        u = gaussian_bump(width)
        u0 = u(R0)
        top = 2.0 * R0 + u.tail_radius(_TAIL_EPS)  # A + R0, as the operator builds it

        def F(s):
            return P(s) - P(R0) - u0 * (math.cosh(s) - math.cosh(R0))

        # u - u0 changes sign at R0 only, so F(0) and F(top) hold the |f| mass
        mass = abs(F(0.0)) + abs(F(top))
        s = np.linspace(0.0, top, 1001)
        got = _table(u, R0, top)(s)
        want = np.array([F(x) for x in s])
        assert np.max(np.abs(got - want)) <= 1e-12 * mass

    @pytest.mark.parametrize("u, R0", [(gaussian_bump(6.0), 1e-4), (gaussian_bump(2.0), 0.05),
                                       (polynomial_bump(2.0), 0.05)])
    def test_rounding_next_to_R0(self, u, R0):
        # u(s) - u0 vanishes at R0 but carries the rounding of u(s): panels
        # resolved to that rounding are accepted, where bisecting them to
        # 1e-13 of their |f| mass once ran into the panel limit
        top = 2.0 * R0 + u.tail_radius(_TAIL_EPS)
        s = np.array([0.0, R0, top])
        assert np.all(np.isfinite(_table(u, R0, top)(s)))
        assert math.isfinite(apply_fraclap(u, R0, 0.6))

    @pytest.mark.parametrize("width, gamma, gap", [(0.8, 0.3, 1.5e-11), (0.8, 0.6, 1.9e-9),
                                                   (1.0, 0.3, 7.7e-12)])
    def test_unresolved_spheres_near_the_center(self, width, gamma, gap):
        # at R0 = 0 no sphere is resolved and no table is built; at R0 = 1e-9
        # the spheres with 2 R0 <= 1e-6 r are not.  Both match the spectral
        # oracle as closely as the jump integral did before the table (gap)
        st = SphericalTransform(gaussian_bump(width))
        for R0 in (0.0, 1e-9):
            got = apply_fraclap(gaussian_bump(width), R0, gamma)
            assert got == approx(st.multiplier_value(R0, gamma), rel=1.5 * gap)


class TestNonlocalPasses:
    """The numpy passes of the nonlocal core: the rounds of its
    antiderivative table, and one sphere pass per call of the radial
    integrand, the frozen node's included."""

    @pytest.mark.parametrize("alpha, most", [(2.0, 1), (8.0, 2), (32.0, 3), (64.0, 5)])
    def test_table_rounds_on_the_barrier(self, alpha, most):
        # the first panels are graded toward the kink radius as toward R0, so
        # the table is accepted within `most` profile calls besides the anchor's
        u = barrier_profile(BarrierSpec(delta=0.5, alpha=alpha, R=1.0, gamma=0.99))
        for R0 in np.linspace(0.5 / 4, 5.0, 22)[1:-1].tolist():
            calls = []
            counted = dataclasses.replace(u, f=lambda r: calls.append(r.size) or u.f(r))
            _table(counted, R0, 2.0 * R0 + min(u.tail_radius(_TAIL_EPS), 80.0))
            assert len(calls) - 1 <= most, R0

    @pytest.mark.parametrize("op, args", [
        (apply_fraclap, (gaussian_bump(0.8), 0.5, 0.6)),
        (pucci_plus, (barrier_profile(BarrierSpec(0.5, 64.0, 1.0, 0.99)), 2.2, 0.99, UNIT)),
        (pucci_plus, (barrier_profile(BarrierSpec(0.5, 64.0, 1.0, 0.99)), 2.2, 0.99, WIDE)),
        (pucci_plus, (barrier_profile(BarrierSpec(0.5, 2.0, 1.0, 0.99)), 1.0, 0.99, WIDE))])
    def test_one_sphere_pass_per_radial_call(self, monkeypatch, op, args):
        spheres, radial = [], []

        def sphere_pass(*a):
            spheres.append(a[4].size)
            return _sphere_integrals(*a)

        def recording(f, *rest):
            def counted(x, own):
                radial.append(x.size)
                return f(x, own)
            return integrate(counted, *rest)

        monkeypatch.setattr("hypfrac.operator._sphere_integrals", sphere_pass)
        monkeypatch.setattr("hypfrac.operator.integrate", recording)
        assert math.isfinite(op(*args))
        assert radial and spheres == radial

    @pytest.mark.parametrize("u, R0, gamma, pos, neg", [
        (gaussian_bump(0.8), 0.0, 0.3, 1.0, 1.0),
        (gaussian_bump(0.8), 0.5, 0.6, 1.0, 1.0),
        (barrier_profile(BarrierSpec(0.5, 2.0, 1.0, 0.99)), 1.0, 0.99, 2.0, 0.5),
        (barrier_profile(BarrierSpec(0.5, 16.0, 1.0, 0.99)), 2.2, 0.99, 0.5, 2.0)])
    def test_folded_near_field(self, monkeypatch, u, R0, gamma, pos, neg):
        # the first panel of the radial integral, [log r_f - 1, log r_f], holds
        # the near field below r_f = 1e-3 with the smooth factor frozen at r_f:
        # 2 pi kernel_sinh2(r_f) r_f^(2 gamma - 1) times the sphere at r_f,
        # integrated against r^(1 - 2 gamma) over [0, r_f]
        seen = {}

        def recording(f, lo, hi, *rest):
            seen.update(f=f, lo=lo, hi=hi)
            return integrate(f, lo, hi, *rest)

        monkeypatch.setattr("hypfrac.operator.integrate", recording)
        _nonlocal_integral(u, R0, gamma, pos, neg)
        t_f = math.log(_R_FLOOR)
        assert (seen["lo"][0], seen["hi"][0]) == (t_f - 1.0, t_f)
        folded = integrate(seen["f"], seen["lo"][:1], seen["hi"][:1], [0], 1,
                           QuadratureConfig(), "first panel")[0][0]
        top = 2.0 * R0 + min(u.tail_radius(_TAIL_EPS), 80.0)
        table = _table(u, R0, top) if R0 > 0.0 else None
        sphere = _sphere_integrals(table, u, R0, u(R0), np.array([_R_FLOOR]), pos, neg)[0]
        frozen = (2.0 * math.pi * kernel_sinh2(gamma, _R_FLOOR)
                  * _R_FLOOR ** (2.0 * gamma - 1.0) * sphere)
        want = frozen * _R_FLOOR ** (2.0 - 2.0 * gamma) / (2.0 - 2.0 * gamma)
        assert folded == pytest.approx(want, rel=1e-13, abs=0.0)


# one fresh process: the operator values it computes first (after other
# orders if argv[1] is "after"), whether the jump-kernel table was built by
# the import, and whether numpy.ma was ever loaded
_FRESH_PROCESS = """
import json, sys
from hypfrac import kernel, operator as op
built = kernel._kernel_table.cache_info().currsize
unit = op.EllipticityBounds(1.0, 1.0)
spec = op.BarrierSpec(0.5, 4.0, 1.0, 0.99)
if sys.argv[1] == "after":
    for g in (0.3, 0.5, 0.75):
        op.apply_fraclap(op.gaussian_bump(1.0), 0.4, g)
    op.pucci_plus(op.barrier_profile(op.BarrierSpec(0.5, 8.0, 1.0, 0.6)), 0.9, 0.6, unit)
values = [op.pucci_plus(op.barrier_profile(spec), 0.7, 0.99, unit),
          op.apply_fraclap(op.gaussian_bump(0.8), 0.5, 0.6),
          op.barrier_check(spec, [0.9], unit).mplus[0]]
print(json.dumps({"built_at_import": built, "values": [float(v).hex() for v in values],
                  "numpy_ma": "numpy.ma" in sys.modules}))
"""


def _fresh_process(mode):
    env = dict(os.environ, PYTHONPATH=str(Path(hypfrac.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _FRESH_PROCESS, mode], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout.splitlines()[-1])


class TestFreshProcess:
    def test_values_do_not_depend_on_call_history(self):
        first, after = _fresh_process("first"), _fresh_process("after")
        assert first["values"] == after["values"]
        # the table is built on first use, never at import
        assert first["built_at_import"] == after["built_at_import"] == 0
        # np.unique and np.union1d would load numpy.ma (+1.2 MB) in the first task
        assert not first["numpy_ma"] and not after["numpy_ma"]


class TestRejectedQuadrature:
    # oscillates far faster than 200 Gauss-Kronrod panels can follow
    NOISE = RadialProfile(
        f=lambda r: np.where(r < 2.0, np.sin(1e8 * r), 0.0),
        support_radius=2.0, name="noise")

    def test_unresolvable_profile_raises_numeric_error(self):
        with pytest.raises(NumericError):
            apply_fraclap(self.NOISE, 0.7, 0.5)

    def test_unresolvable_transform_raises_numeric_error(self):
        # the spectrum of g never decays below half the Nyquist frequency,
        # however fine the grid: a refused transform, not a failed calibration
        with pytest.raises(NumericError) as exc:
            SphericalTransform(self.NOISE)
        assert not isinstance(exc.value, CalibrationError)

    def test_compact_c2_profile_is_refused_by_the_transform(self):
        # the spectrum of a C^2 bump of compact support decays only
        # algebraically: the grid is refined to its bound and refused there
        with pytest.raises(NumericError, match="N = 1048576") as exc:
            SphericalTransform(polynomial_bump())
        assert not isinstance(exc.value, CalibrationError)


class TestBarrierReference:
    """pucci_plus of the barrier (delta, R, gamma) = (.5, 1, .99), unit bounds.

    The reference values come from ``tools/barrier_reference.py``, an
    independent route: scalar QUADPACK at relative tolerance 1e-12, the angular
    integral in 1 - cos(angle) and the radial one in r, both graded
    geometrically at the kinks and their images, with the operator's model
    (second differences frozen below r = 1e-3, analytic tail beyond A).  The
    alpha >= 16 values also agree to <= 1.5e-15 with three further routes
    (graded QUADPACK at 1e-12, grading depths 2^-14 / 2^-29 / 2^-45, a log-w
    angular integral); they sit next to the kink-image ramps that a coarse
    radial panel steps over.  The alpha in {2, 4, 8} points are ones where an
    unbatched scalar QUADPACK core agreed to <= 1e-8 as well.  At (2, .13) the
    reference needs its first radial piece graded toward r = 1e-3 too.
    """

    CASES = [
        (2.0, 0.13, -1512205933.8072672),
        (2.0, 0.4, -1962616.6964554668),
        (2.0, 2.2, -26.568789619305623),
        (4.0, 1.0, -599208653723.7223),
        (4.0, 4.0, -22675364.274770368),
        (8.0, 2.2, -1.399707368838996e+27),
        (16.0, 1.0, -3.2696008272390676e+64),
        (32.0, 2.2, -7.489039567075743e+132),
        (32.0, 4.0, -4.007736386221676e+130),
        (64.0, 2.2, -8.463492439663714e+273),
        (64.0, 4.0, -4.529236005490758e+271),
    ]

    @pytest.mark.parametrize("alpha,R0,want", CASES)
    def test_matches_reference(self, alpha, R0, want):
        spec = BarrierSpec(delta=0.5, alpha=alpha, R=1.0, gamma=0.99)
        got = pucci_plus(barrier_profile(spec), R0, 0.99, UNIT)
        assert got == approx(want, rel=1e-6)


class TestSmallKinkReference:
    """pucci_plus of barriers with small kink radii, unit bounds.

    References from ``tools/barrier_reference.py`` with the spec named in
    each case.  A fixed grading depth of the radial panels misses them: 2
    halvings toward each kink image miss the first case by 3.1e-3, 4 miss
    the alpha = 16, R0 = 3.5 and alpha = 32 cases by 1.6e-3 and 3.8e-4, and
    16 leave the last case's radial error at 1.45e38 of -2.22e39
    (``NumericError``).  The panels next to the images must shrink with the
    kink radius.
    """

    CASES = [
        ((0.1, 2.0, 0.99, 0.05), 16.0, 7.014999999999999, -2.0804999487392334e98),
        ((0.05, 1.0, 0.99, 0.05), 16.0, 3.5, -8.871369132174935e109),
        ((0.05, 1.0, 0.99, 0.05), 16.0, 0.02, -2.410406634564172e122),
        ((0.05, 1.0, 0.99, 0.05), 32.0, 1.0, -4.576742547237144e238),
        ((1e-6, 1.0, 0.9, 0.25), 4.0, 2.0, -2.285220637589795e39),
    ]

    @pytest.mark.parametrize("spec,alpha,R0,want", CASES)
    def test_matches_reference(self, spec, alpha, R0, want):
        delta, R, gamma, kappa = spec
        barrier = BarrierSpec(delta=delta, alpha=alpha, R=R, gamma=gamma, kappa=kappa)
        got = pucci_plus(barrier_profile(barrier), R0, gamma, UNIT)
        assert got == approx(want, rel=1e-6)


class TestGradedCuts:
    def test_marks_are_cuts_with_fine_neighbours(self):
        marks = {0.9, 1.1}
        for finest in (1.0, 0.2, 1e-2, 1e-7):
            cuts = list(_graded_cuts(1e-3, 80.0, marks, finest))
            assert cuts[0] == 1e-3 and cuts[-1] == 80.0
            for m in marks:
                i = cuts.index(m)
                assert cuts[i] - cuts[i - 1] <= finest
                assert cuts[i + 1] - cuts[i] <= finest

    def test_count_grows_like_log2_of_gap(self):
        # one mark in the middle: each side halves until width <= finest
        for k in range(0, 30, 3):
            finest = 2.0 ** -k
            depth = max(0, math.ceil(math.log2(0.5 / finest)))
            assert len(_graded_cuts(0.0, 1.0, {0.5}, finest)) == 3 + 2 * depth

    def test_no_marks_no_cuts(self):
        assert list(_graded_cuts(1e-3, 80.0, set(), math.inf)) == [1e-3, 80.0]
        assert list(_graded_cuts(1e-3, 80.0, {100.0}, 1e-3)) == [1e-3, 80.0]

    def test_finest_below_float_resolution(self):
        # cuts that round onto the mark merge with it, so the count stays
        # bounded by the float resolution, not by log2(gap / finest)
        for mark in (0.02, 1.0, 4.0):
            cuts = _graded_cuts(1e-3, 80.0, {mark}, 1e-300)
            assert np.all(np.diff(cuts) > 0.0)
            assert len(cuts) < _PANEL_LIMIT


class TestBarrier:
    SPEC = BarrierSpec(delta=0.5, alpha=4.0, R=1.0, gamma=0.99)

    def test_floor_everywhere(self):
        spec = self.SPEC
        floor = spec.floor
        for r in np.linspace(0.0, 10.0, 50):
            assert barrier_value(spec, float(r)) >= floor

    def test_branch_switch(self):
        spec = self.SPEC
        eps = 1e-9
        assert barrier_value(spec, spec.kink_radius - eps) == spec.floor
        assert barrier_value(spec, spec.kink_radius + eps) == approx(
            spec.floor, rel=1e-6)

    def test_shifted_sign_table(self):
        spec = self.SPEC
        for r in np.linspace(5.0 * spec.R, 12.0 * spec.R, 20):
            assert barrier_shifted_value(spec, float(r)) >= 0.0
        for r in np.linspace(spec.kappa * spec.delta * spec.R + 1e-6, 2.0 * spec.R, 20):
            assert barrier_shifted_value(spec, float(r)) <= 0.0

    def test_profile_decays(self):
        v = barrier_profile(self.SPEC)
        assert v.tail_radius(1e-10) > 5.0
        assert abs(v(v.tail_radius(1e-10))) <= 1e-10

    def test_margin_goes_negative(self):
        spec = BarrierSpec(delta=0.5, alpha=8.0, R=1.0, gamma=0.99)
        rep = barrier_check(spec, [0.3, 1.0, 3.0], UNIT)
        assert rep.all_nonpositive

    def test_sample_radii_validated(self):
        with pytest.raises(DomainError):
            barrier_check(self.SPEC, [6.0], UNIT)

    def test_value_refuses_an_infinite_radius(self):
        with pytest.raises(DomainError):
            barrier_value(self.SPEC, math.inf)

    @pytest.mark.parametrize("kw", [dict(alpha=math.nan), dict(alpha=math.inf),
                                    dict(R=math.nan), dict(R=math.inf), dict(R=1e308)])
    def test_spec_needs_finite_alpha_and_R(self, kw):
        with pytest.raises(DomainError):
            BarrierSpec(**{**dict(delta=0.5, alpha=4.0, R=1.0, gamma=0.99), **kw})

    @pytest.mark.parametrize("lo, hi", [(1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)])
    def test_bounds_need_finite_values(self, lo, hi):
        with pytest.raises(DomainError):
            EllipticityBounds(lo, hi)

    @pytest.mark.parametrize("start, cap", [(math.nan, 64.0), (math.inf, 64.0),
                                            (2.0, math.nan), (4.0, 2.0)])
    def test_sweep_refuses_an_empty_ladder(self, start, cap):
        with pytest.raises(DomainError):
            barrier_alpha_sweep(0.5, 1.0, 0.99, [1.0], UNIT, alpha_start=start, alpha_cap=cap)


class TestArccosInequalities:
    def test_equality_at_one(self):
        rep = arccos_inequalities(2.0, 1.5, 1.0)
        assert isinstance(rep, ArccosReport)
        for m in rep.margins:
            assert abs(m) <= 1e-12

    def test_random_grid(self, rng):
        for _ in range(100):
            alpha = rng.uniform(0.5, 8.0)
            R0 = rng.uniform(0.1, 4.0)
            t = rng.uniform(1.0 / math.cosh(R0) + 1e-6, 3.0)
            assert arccos_inequalities(alpha, R0, t).all_hold

    def test_near_lower_boundary(self):
        R0 = 1.0
        t = 1.0 / math.cosh(R0) + 1e-6
        rep = arccos_inequalities(3.0, R0, t)
        assert all(math.isfinite(v) for v in rep.lhs)
        assert rep.all_hold

    def test_domain(self):
        with pytest.raises(DomainError):
            arccos_inequalities(1.0, 1.0, 0.1)
        # t = inf once gave lhs (-1.0, -0.724, nan) and rhs (-inf, -inf, -inf)
        for t in (math.inf, math.nan):
            with pytest.raises(DomainError, match="t must be finite"):
                arccos_inequalities(1.0, 1.0, t)

    @pytest.mark.parametrize("R0, t", [(800.0, 1.0), (1e-300, 2.0), (1e-8, 1e300)])
    def test_overflow_is_a_numeric_error(self, R0, t):
        # cosh(800) raised a raw OverflowError, as did 1e-300^(-2 alpha - 2); and
        # t = 1e300 gave a non-finite side
        with pytest.raises(NumericError, match="overflow a float"):
            arccos_inequalities(1.0, R0, t)


class TestEnvelope:
    R = 0.5

    def grid(self):
        return polar_grid(5 * self.R, 40, 96)

    def test_paraboloid_full_contact(self):
        pts = self.grid()
        d0 = pts[:, 0]
        vals = 1.0 - d0 ** 2 / (2 * self.R ** 2)
        res = envelope(pts, vals, self.R)
        assert np.all(res.gamma_values <= vals)
        assert res.contact_count() == len(pts)

    def test_constant_contact_covers_vertex_region(self):
        pts = self.grid()
        vals = np.full(len(pts), 0.7)
        res = envelope(pts, vals, self.R)
        inside = pts[:, 0] <= self.R + 1e-9
        assert np.all(res.contact_mask[inside])
        assert not np.any(res.contact_mask[pts[:, 0] > 2 * self.R])

    def test_dip_localizes_contact(self):
        pts = self.grid()
        d0 = pts[:, 0]
        vals = 1.0 - np.exp(-4.0 * d0 ** 2)
        res = envelope(pts, vals, self.R)
        assert np.all(res.gamma_values <= vals)
        mask = res.contact_mask
        assert 0 < res.contact_count() < len(pts)
        assert float(d0[mask].max()) < 2 * self.R

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            envelope(np.zeros((0, 2)), np.zeros(0), self.R)

    def test_distance_does_not_cancel(self):
        # a point to itself, and to its neighbour 1e-10 rad away on the circle
        # r = 1: the arccosh of cosh ra cosh rb - sinh ra sinh rb cos dphi gave
        # 2.1e-8 for both
        d = _pairwise_distance(np.array([[1.0, 0.3]]), np.array([[1.0, 0.3], [1.0, 0.3 + 1e-10]]))
        assert d[0, 0] == 0.0
        dphi = (0.3 + 1e-10) - 0.3
        assert d[0, 1] == approx(2.0 * math.sinh(1.0) * math.sin(0.5 * dphi), rel=1e-12)

    def test_distances_stay_floats(self):
        # cosh d - 1 and its square, as in the law of cosines
        pts = np.array([[_MAX_SPAN, 0.0]])
        with pytest.raises(UnsupportedRangeError):
            envelope(pts, np.zeros(1), 1.0)

    def test_convexity_surrogate_midpoint(self):
        # along radial geodesics: (G-P)(z) <= avg endpoints + H-correction
        pts = self.grid()
        d0 = pts[:, 0]
        vals = 1.0 - np.exp(-4.0 * d0 ** 2)
        res = envelope(pts, vals, self.R)
        radii = np.unique(pts[:, 0])
        radii = radii[radii > 0]
        h = float(np.diff(radii)[0])
        index = {(round(r, 12), round(p, 12)): i for i, (r, p) in enumerate(pts)}

        def parab_at(i_sample, j_vertex):
            rz, pz = pts[i_sample]
            ry, py = res.vertices[j_vertex]
            arg = (math.cosh(rz) * math.cosh(ry)
                   - math.sinh(rz) * math.sinh(ry) * math.cos(pz - py))
            d = math.acosh(max(arg, 1.0))
            return res.c_values[j_vertex] - d * d / (2 * self.R ** 2)

        checked = 0
        for phi in np.unique(pts[:, 1])[:8]:
            for k in range(1, len(radii) - 1):
                iz = index[(round(radii[k], 12), round(phi, 12))]
                iz1 = index[(round(radii[k + 1], 12), round(phi, 12))]
                iz2 = index[(round(radii[k - 1], 12), round(phi, 12))]
                j = res.vertex_index[iz]
                ry, py = res.vertices[j]
                arg = (math.cosh(radii[k]) * math.cosh(ry)
                       - math.sinh(radii[k]) * math.sinh(ry) * math.cos(phi - py))
                dzy = math.acosh(max(arg, 1.0))
                lhs = res.gamma_values[iz] - parab_at(iz, j)
                rhs = 0.5 * (
                    (res.gamma_values[iz1] - parab_at(iz1, j))
                    + (res.gamma_values[iz2] - parab_at(iz2, j))
                ) + (1.0 / (2 * self.R ** 2)) * 0.25 * aux_H(dzy + 2 * h) * (2 * h) ** 2
                assert lhs <= rhs + 1e-12
                checked += 1
        assert checked > 100
