import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypfrac.errors import CalibrationError, DomainError, NumericError
from hypfrac.geometry import aux_H
from hypfrac.operator import (
    ArccosReport,
    BarrierSpec,
    EllipticityBounds,
    RadialProfile,
    SphericalTransform,
    apply_fraclap,
    arccos_inequalities,
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
from hypfrac.operator import _PANEL_LIMIT, _angular, _graded_cuts
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
        assert tab(0.5) == pytest.approx(0.8)
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
    """``RadialProfile.values`` agrees with the scalar ``__call__`` entrywise."""

    def check(self, u, radii):
        radii = np.asarray(radii, dtype=float)
        got = u.values(radii.reshape(-1, 1)).ravel()
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

    def test_scalar_profile_is_wrapped(self):
        u = RadialProfile(f=lambda r: -math.exp(-r), name="scalar-only")
        self.check(u, np.linspace(0.0, 3.0, 7))


class TestScalarEvaluation:
    """``u(r)`` of every family, derived from its array evaluator, against
    the family's formula written out."""

    RADII = (0.0, 0.3, 1.0, 1.5, 2.7)

    def test_families(self):
        for r in self.RADII:
            assert constant_profile(2.5)(r) == 2.5
            assert gaussian_bump(0.7)(r) == pytest.approx(math.exp(-(r / 0.7) ** 2), rel=1e-15)
            want = (1.0 - (r / 1.5) ** 2) ** 3 if r < 1.5 else 0.0
            assert polynomial_bump(1.5)(r) == pytest.approx(want, rel=1e-14, abs=1e-300)
            assert paraboloid(1.0, 2.0, 0.5)(r) == pytest.approx(1.0 - 4.0 * r * r, rel=1e-15)

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
            assert u(r) == pytest.approx(barrier_value(spec, r), rel=1e-15)

    def test_returns_python_float(self):
        spec = BarrierSpec(delta=0.5, alpha=8.0, R=1.0, gamma=0.99)
        tab = tabulated(np.linspace(0.0, 2.0, 12), np.ones(12))
        for u in (constant_profile(1), gaussian_bump(), polynomial_bump(),
                  paraboloid(), tab, barrier_profile(spec)):
            assert type(u(0.5)) is float

    def test_overflowing_barrier_raises(self):
        # the alpha = 128 floor overflows a float, in u(r) as in barrier_value
        spec = BarrierSpec(delta=0.5, alpha=128.0, R=1.0, gamma=0.99)
        for r in (0.5 * spec.kink_radius, 0.2):
            with pytest.raises(OverflowError):
                barrier_value(spec, r)
            with pytest.raises(OverflowError):
                barrier_profile(spec)(r)


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
            assert second_difference(u, R0, r, w1) == pytest.approx(want, rel=1e-12)

    def test_tangential_small_r_limit(self):
        # delta / r^2 -> u'(R0) coth(R0) / 2 at omega1 = 0
        u = gaussian_bump()
        R0 = 1.2
        du = -2 * R0 * math.exp(-R0 * R0)
        want = du / math.tanh(R0) / 2
        vals = [second_difference(u, R0, r, 0.0) / r ** 2 for r in (1e-2, 1e-3)]
        assert vals[1] == pytest.approx(want, rel=1e-4)


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
        u = RadialProfile(f=lambda r: max(0.0, 1 - r), smoothness="C0", name="cone")
        with pytest.raises(DomainError):
            apply_fraclap(u, 0.0, 0.5)

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
        assert st.kappa == pytest.approx(1.0 / (2.0 * math.pi ** 2), rel=1e-6)

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
        assert st.plancherel_spectral() == pytest.approx(st.norm_sq_direct(), rel=1e-5)

    def test_matches_jump_integral(self):
        st = SphericalTransform(gaussian_bump())
        for g, R0 in [(0.3, 0.0), (0.6, 0.5), (0.9, 0.5)]:
            a = apply_fraclap(gaussian_bump(), R0, g)
            b = st.multiplier_value(R0, g)
            assert a == pytest.approx(b, rel=1e-3)

    def test_oneshot_wrapper(self):
        got = multiplier_oracle(gaussian_bump(), 0.0, 0.5)
        want = apply_fraclap(gaussian_bump(), 0.0, 0.5)
        assert got == pytest.approx(want, rel=1e-3)

    def test_lambda_cut_by_width(self):
        # a forward value within the rounding floor of its integral counts
        # as decayed, which lets width 2 calibrate: its values from lambda 10
        # on are noise of 3e-13 to 2e-15, and the first on the floor is at 80
        cuts = {w: SphericalTransform(gaussian_bump(w)).lam_max
                for w in (0.5, 0.6, 1.0, 1.6, 1.8, 2.0)}
        assert cuts == {0.5: 40.0, 0.6: 20.0, 1.0: 20.0, 1.6: 10.0, 1.8: 10.0, 2.0: 80.0}

    def test_lambda_cut_of_other_profiles(self):
        # profiles whose forward values decay under the weight (1 + lam^2)^2
        # before they reach the rounding floor keep the cut of the weight
        tail = lambda eps: math.sqrt(math.log(1.0 / eps)) + 1.0
        two_bumps = RadialProfile(f_array=lambda r: np.exp(-r * r) - 0.5 * np.exp(-4.0 * r * r),
                                  tail_width=tail)
        wave = RadialProfile(f_array=lambda r: np.exp(-r * r) * np.cos(2.0 * r), tail_width=tail)
        for u, cut in ((two_bumps, 40.0), (wave, 20.0)):
            st = SphericalTransform(u)
            assert st.lam_max == cut
            assert st.multiplier_value(0.5, 0.6) == pytest.approx(
                apply_fraclap(u, 0.5, 0.6), rel=1e-8)

    def test_wide_bump_matches_jump_integral(self):
        u = gaussian_bump(2.0)
        assert multiplier_oracle(u, 0.5, 0.6) == pytest.approx(
            apply_fraclap(u, 0.5, 0.6), rel=1e-8)

    @pytest.mark.parametrize("width", [2.5, 3.0, 4.0])
    def test_wider_bumps_match_jump_integral(self, width):
        # r_max bounds the forward integrand u(r) r sinh(r), not u alone: cut
        # where u fell below 1e-14, these widths' forward values at large
        # lambda were the cut-off tail (2.5 did not decay, 3 and 4 were rejected)
        u = gaussian_bump(width)
        assert multiplier_oracle(u, 0.5, 0.6) == pytest.approx(
            apply_fraclap(u, 0.5, 0.6), rel=1e-6)

    def test_gamma_one_against_stencil(self):
        st = SphericalTransform(gaussian_bump())
        for R0 in (0.0, 0.7):
            assert st.multiplier_value(R0, 1.0) == pytest.approx(
                laplace_beltrami_radial(gaussian_bump(), R0), rel=1e-3)


class TestPucci:
    def test_constant_is_zero(self):
        u = constant_profile(1.0)
        assert pucci_plus(u, 0.5, 0.5, WIDE) == 0.0
        assert pucci_minus(u, 0.5, 0.5, WIDE) == 0.0

    def test_collapse_to_fraclap(self):
        barrier = barrier_profile(BarrierSpec(delta=0.5, alpha=4.0, R=1.0, gamma=0.6))
        for u in (gaussian_bump(), barrier):
            assert pucci_plus(u, 0.5, 0.6, UNIT) == pytest.approx(
                apply_fraclap(u, 0.5, 0.6), rel=1e-9)
            assert pucci_minus(u, 0.5, 0.6, UNIT) == pytest.approx(
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
        f_array=lambda r: c * u.values(r),
        support_radius=u.support_radius,
        tail_width=u.tail_width,
        name="scaled",
    )
    want = {op: op(u, R0, gamma, WIDE) for op in (pucci_plus, pucci_minus)}
    spread = want[pucci_plus] - want[pucci_minus]
    for op, m in want.items():
        assert op(scaled, R0, gamma, WIDE) == pytest.approx(
            c * m, rel=1e-9, abs=1e-8 * c * spread)


class TestAngularForms:
    """A linear combine integrates u(w) - u0 one-sided over the whole sphere;
    the antipodal pair (what a nonlinear combine needs) gives the same value.
    Closer in, at r = 2e-3, the one-sided form loses digits (3.2e-9 on the
    barrier at alpha 2, R0 2.7), which is why the frozen node at r = 1e-3
    stays paired."""

    RADII = np.array([1e-2, 0.1, 1.0, 3.0])
    CASES = ([(barrier_profile(BarrierSpec(delta=0.5, alpha=a, R=1.0, gamma=0.99)), R0)
              for a in (2.0, 16.0, 64.0) for R0 in (0.3, 1.0, 2.7)]
             + [(gaussian_bump(0.8), R0) for R0 in (0.5, 1.5)])

    @pytest.mark.parametrize("u,R0", CASES)
    def test_one_sided_matches_paired(self, u, R0):
        u0 = u(R0)
        one_sided = _angular(u, R0, u0, self.RADII, 1.0, 1.0, False)
        paired = _angular(u, R0, u0, self.RADII, 1.0, 1.0, True)
        np.testing.assert_allclose(one_sided, paired, rtol=1e-9, atol=0.0)


class TestRejectedQuadrature:
    # oscillates far faster than 200 Gauss-Kronrod panels can follow
    NOISE = RadialProfile(
        f=lambda r: math.sin(1e8 * r) if r < 2.0 else 0.0,
        support_radius=2.0, name="noise")

    def test_unresolvable_profile_raises_numeric_error(self):
        with pytest.raises(NumericError):
            apply_fraclap(self.NOISE, 0.7, 0.5)

    def test_unresolvable_transform_raises_numeric_error(self):
        # the first forward integrals (lambda = 5 * 2^k) end with error
        # estimates far above their values; that is a rejected
        # quadrature, not a failed calibration
        with pytest.raises(NumericError) as exc:
            SphericalTransform(self.NOISE)
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
        assert got == pytest.approx(want, rel=1e-6)


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
        assert got == pytest.approx(want, rel=1e-6)


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
        assert barrier_value(spec, spec.kink_radius + eps) == pytest.approx(
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
