import contextlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import approx, finite_or_typed
from hypfrac.errors import DomainError, HypfracError
from hypfrac.geometry import (
    BallPoint,
    DEFAULT_MODEL,
    HyperPoint,
    ModelParams,
    aux_H,
    aux_S,
    aux_T,
    ball_distance_to_origin,
    ball_volume,
    ball_volume_quadrature,
    distance,
    doubling_bounds,
    dyadic_ladder,
    from_ball,
    law_of_cosines,
    origin,
    ring_sector_volume,
    tilde_radius,
    to_ball,
)


def random_ball_point(rng, max_frac=0.9, m=DEFAULT_MODEL):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return BallPoint(v * m.t * max_frac * rng.uniform() ** (1 / 3))


class TestModelParams:
    def test_defaults(self):
        assert DEFAULT_MODEL.tau == 1.0
        assert DEFAULT_MODEL.t == 2.0
        assert DEFAULT_MODEL.b == 2.0

    def test_from_tau(self):
        m = ModelParams.from_tau(3.0)
        assert m.t == 6.0 and m.b == 18.0

    def test_invalid(self):
        for tau, t, b in [(1.0, 2.0, 3.0), (-1.0, -2.0, 2.0), (1.0, math.inf, math.inf),
                          (math.nan, 2.0, 2.0)]:
            with pytest.raises(DomainError):
                ModelParams(tau=tau, t=t, b=b)


class TestIsometry:
    def test_origin_maps_to_center(self):
        assert to_ball(origin()).y == (0.0, 0.0, 0.0)
        p = from_ball(BallPoint((0.0, 0.0, 0.0)))
        assert p.coords == approx([1.0, 0.0, 0.0, 0.0])

    def test_polar_form(self):
        # tau(cosh r, sinh r w) maps to t tanh(r/2) w
        r = 1.0
        p = HyperPoint(math.cosh(r), math.sinh(r), 0.0, 0.0)
        y = to_ball(p)
        assert y.y[0] == approx(2.0 * math.tanh(0.5), rel=1e-14)

    def test_inverse_formula_value(self):
        # plug y=(1,0,0), t=2, tau=1 into the displayed inverse
        p = from_ball(BallPoint((1.0, 0.0, 0.0)))
        assert p.coords == approx([5.0 / 3.0, 4.0 / 3.0, 0.0, 0.0], rel=1e-14)

    def test_round_trip(self, rng):
        for _ in range(1000):
            y = random_ball_point(rng)
            z = to_ball(from_ball(y))
            assert np.allclose(z.vec, y.vec, rtol=1e-12, atol=1e-15)

    def test_boundary_blowup_monotone(self):
        x0s = [from_ball(BallPoint((r, 0.0, 0.0))).x0 for r in (1.0, 1.5, 1.9, 1.99)]
        assert all(b > a for a, b in zip(x0s, x0s[1:]))

    def test_invariant_violation(self):
        with pytest.raises(DomainError):
            to_ball(HyperPoint(1.5, 0.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            from_ball(BallPoint((2.0, 0.0, 0.0)))


class TestDistance:
    def test_zero_iff_equal(self, rng):
        p = from_ball(random_ball_point(rng))
        assert distance(p, p) == 0.0

    def test_log3_example(self):
        p = from_ball(BallPoint((1.0, 0.0, 0.0)))
        assert distance(p, origin()) == approx(math.log(3.0), rel=1e-14)
        assert ball_distance_to_origin(BallPoint((1.0, 0.0, 0.0))) == approx(
            math.log(3.0), rel=1e-14)

    def test_metric_axioms(self, rng):
        for _ in range(300):
            a, b, c = (from_ball(random_ball_point(rng, 0.99)) for _ in range(3))
            dab, dba = distance(a, b), distance(b, a)
            assert dab == pytest.approx(dba, rel=1e-12, abs=1e-13)
            assert distance(a, c) <= dab + distance(b, c) + 1e-10


class TestLawOfCosines:
    def test_degenerate_center(self):
        assert law_of_cosines(0.0, 2.5, 0.3) == (2.5, 2.5)

    def test_collinear(self):
        dm, dp = law_of_cosines(1.0, 2.5, 1.0)
        assert dm == pytest.approx(1.5, abs=1e-13)
        assert dp == pytest.approx(3.5, abs=1e-13)
        dm, dp = law_of_cosines(3.0, 1.0, 1.0)
        assert dm == pytest.approx(2.0, abs=1e-13)
        # the flat branch once squared radii whose squares underflow to 0
        assert law_of_cosines(1e-300, 1e-300, 1.0) == (0.0, 2e-300)

    def test_against_explicit_isometry(self, rng):
        # place the configuration on the hyperboloid and measure directly
        for _ in range(300):
            r = rng.uniform(0.0, 3.0)
            R0 = rng.uniform(0.0, 3.0)
            w1 = rng.uniform(-1.0, 1.0)
            x = np.array([math.cosh(R0), math.sinh(R0), 0.0, 0.0])
            toward = np.array([-math.sinh(R0), -math.cosh(R0), 0.0, 0.0])
            perp = np.array([0.0, 0.0, 1.0, 0.0])
            v = w1 * toward + math.sqrt(max(1.0 - w1 * w1, 0.0)) * perp
            for sign, want in zip((1.0, -1.0), law_of_cosines(r, R0, w1)):
                z = math.cosh(r) * x + sign * math.sinh(r) * v
                got = distance(HyperPoint(*z), origin())
                assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_small_distances_keep_their_digits(self):
        # just above the flat-space branch (max(r, R0) < 1e-6), arccosh of
        # cosh(1e-6) rounded near 1 used to return 1.00004e-6
        for r, R0 in [(1e-6, 4.2e-139), (2e-6, 1e-6), (1e-5, 1e-300)]:
            dm, dp = law_of_cosines(r, R0, 0.3)
            flat = math.sqrt(r * r + R0 * R0 - 2.0 * r * R0 * 0.3)
            assert dm == approx(flat, rel=1e-9)
            assert abs(r - R0) - 1e-15 <= dm <= dp <= r + R0 + 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            law_of_cosines(-1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            law_of_cosines(1.0, 1.0, 1.5)


class TestVolume:
    def test_zero(self):
        assert ball_volume(0.0) == 0.0

    def test_closed_form(self):
        assert ball_volume(1.0) == approx(math.pi * (math.sinh(2.0) - 2.0), rel=1e-14)

    def test_euclidean_limit(self):
        for r in (1e-3, 1e-5):
            assert ball_volume(r) / (4.0 * math.pi / 3.0 * r ** 3) == pytest.approx(
                1.0, abs=5 * r * r)

    def test_quadrature_agrees(self):
        for r in (0.05, 0.7, 3.0):
            assert ball_volume(r) == approx(ball_volume_quadrature(r), rel=1e-10)

    def test_strictly_increasing(self):
        vals = [ball_volume(r) for r in np.linspace(0.01, 5.0, 50)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestDoubling:
    def test_equal_radii(self):
        lo, hi = doubling_bounds(1.0, 1.0)
        assert lo == 1.0 and hi >= 1.0

    def test_sandwich_single(self):
        lo, hi = doubling_bounds(0.5, 1.0)
        ratio = ball_volume(1.0) / ball_volume(0.5)
        assert lo <= ratio <= hi

    def test_sandwich_sweep(self):
        for R in (0.5, 1.0, 2.0):
            for r in np.linspace(0.01, R, 25):
                lo, hi = doubling_bounds(float(r), R)
                ratio = ball_volume(R) / ball_volume(float(r))
                assert lo <= ratio * (1 + 1e-12) and ratio <= hi * (1 + 1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            doubling_bounds(2.0, 1.0)


class TestAuxFunctions:
    def test_values_at_zero(self):
        assert aux_S(0.0) == 1.0
        assert aux_H(0.0) == 1.0
        assert aux_T(0.0) == 2.0

    def test_direct_values(self):
        assert aux_H(1.0) == approx(1.0 / math.tanh(1.0), rel=1e-14)
        assert aux_S(2.0) == approx(math.sinh(2.0) / 2.0, rel=1e-14)

    def test_continuity_at_series_switch(self):
        for f in (aux_S, aux_H, aux_T):
            assert f(1e-4 * (1 - 1e-9)) == approx(f(1e-4 * (1 + 1e-9)), rel=1e-10)

    def test_tilde_radius_identity(self):
        for r in np.linspace(0.05, 10.0, 40):
            assert aux_T(float(r)) * tilde_radius(float(r)) == approx(
                float(r), rel=1e-14)

    def test_tilde_limits(self):
        assert tilde_radius(1e-8) / 1e-8 == approx(0.5, rel=1e-6)
        assert tilde_radius(50.0) == approx(math.atanh(0.5), rel=1e-10)


class TestDyadicLadder:
    def test_defining_equation(self):
        lad = dyadic_ladder(1.0, 5)
        for a, b in zip(lad.radii, lad.radii[1:]):
            assert ball_volume(b) == approx(ball_volume(a) / 8.0, rel=1e-12)

    def test_euclidean_limit(self):
        lad = dyadic_ladder(1e-4, 1)
        assert lad.radii[1] / 1e-4 == pytest.approx(0.5, abs=1e-3)

    def test_ratio_window(self):
        for r0 in (0.1, 1.0):
            lad = dyadic_ladder(r0, 20)
            for q in lad.radius_ratios():
                assert 0.5 <= q < 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            dyadic_ladder(-1.0, 3)
        with pytest.raises(DomainError):
            dyadic_ladder(1.0, 0)


class TestRingSector:
    def test_full_ring_is_volume_difference(self):
        # r_out 20, 30 and 36 once raised NumericError: the ball-coordinate
        # density had a pole just beyond tanh(r_out / 2)
        for r_in, r_out, w in [(0.5, 1.2, -1.0), (0.5, 20.0, 0.0), (0.5, 30.0, 0.0),
                               (0.5, 36.0, 0.0)]:
            got = ring_sector_volume(r_in, r_out, w)
            want = (1.0 - w) / 2.0 * (ball_volume(r_out) - ball_volume(r_in))
            assert got == approx(want, rel=1e-10), (r_in, r_out, w)

    def test_quarter_at_half(self):
        full = ring_sector_volume(0.3, 0.9, -1.0)
        quarter = ring_sector_volume(0.3, 0.9, 0.5)
        assert quarter / full == approx(0.25, rel=1e-12)

    def test_degenerate_cap(self):
        assert ring_sector_volume(0.5, 1.0, 1.0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            ring_sector_volume(1.0, 0.5, 0.0)


class TestHessianSurrogate:
    def test_second_difference_bound(self, rng):
        # discrete D^2 of d^2(.,y)/2 along any geodesic stays below H(d)
        for _ in range(300):
            R0 = rng.uniform(0.05, 5.0)
            w1 = rng.uniform(-1.0, 1.0)
            h = rng.uniform(1e-5, 1e-3)
            dm, dp = law_of_cosines(h, R0, w1)
            second = (dm * dm / 2 + dp * dp / 2 - R0 * R0) / (h * h)
            assert second <= aux_H(R0) * (1.0 + 10.0 * h) + 1e-7


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    r=st.floats(0.0, 3.0),
    R0=st.floats(0.0, 3.0),
    w1=st.floats(-1.0, 1.0),
)
def test_law_of_cosines_triangle_window(r, R0, w1):
    dm, dp = law_of_cosines(r, R0, w1)
    assert dm <= r + R0 + 1e-12
    assert dp <= r + R0 + 1e-12
    assert dm >= abs(r - R0) - 1e-12


_any = st.one_of(st.floats(), st.floats(-2.0, 40.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tau=_any, t=_any, b=_any, p=st.tuples(_any, _any, _any, _any), r=_any, R0=_any, w=_any)
# inputs that once raised or warned: OverflowError in aux_S(800) and in
# doubling_bounds(1e-300, 1) and (0.5, 400), an overflow RuntimeWarning in
# ball_volume_quadrature(800)
@example(tau=1.0, t=2.0, b=2.0, p=(1.0, 0.0, 0.0, 0.0), r=800.0, R0=1.0, w=0.0)
@example(tau=1.0, t=2.0, b=2.0, p=(1.0, 0.0, 0.0, 0.0), r=1e-300, R0=1.0, w=0.0)
@example(tau=1.0, t=2.0, b=2.0, p=(1.0, 0.0, 0.0, 0.0), r=0.5, R0=400.0, w=0.0)
def test_geometry_entry_points_return_finite_or_raise_typed(tau, t, b, p, r, R0, w):
    m = finite_or_typed(ModelParams, tau, t, b) or DEFAULT_MODEL
    finite_or_typed(ModelParams.from_tau, tau)
    y = finite_or_typed(BallPoint, p[1:])
    # validate returns nothing: it passes or raises a typed error
    for point in (y, HyperPoint(*p)):
        with contextlib.suppress(HypfracError):
            if point is not None:
                point.validate(m)
    finite_or_typed(ball_volume, r)
    finite_or_typed(law_of_cosines, r, R0, w)
    finite_or_typed(ring_sector_volume, r, R0, w)
    for f in (aux_S, aux_H, aux_T, tilde_radius, ball_volume_quadrature):
        finite_or_typed(f, r)
    finite_or_typed(doubling_bounds, r, R0)


@pytest.mark.parametrize("f, args", [(tilde_radius, (math.nan,)), (aux_H, (math.inf,)),
                                     (doubling_bounds, (1.0, math.inf))])
def test_non_finite_numbers_are_refused(f, args):
    with pytest.raises(DomainError):
        f(*args)
