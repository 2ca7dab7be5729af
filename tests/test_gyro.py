import cmath
import copy
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import special_ortho_group

from conftest import approx
from hypfrac.errors import DomainError, HypfracError, NumericError
from hypfrac.geometry import BallPoint
from hypfrac.gyro import (
    CancellationResult,
    EigenParams,
    GyroElement,
    boxminus_jacobian,
    cancellation_check,
    clifford_norm_sq,
    coadd,
    cosub,
    cosub_compositional,
    e_factor,
    eigenfunction,
    gyration,
    measure_factor,
    mobius_add,
    neg,
    sphere_integral_E,
    sphere_integral_E_reference,
    transport_prefactor,
)
from hypfrac.quadrature import QuadratureConfig

T = 2.0


def sample(rng, frac=0.6, t=T):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return GyroElement(v * t * frac * rng.uniform() ** (1 / 3), t)


def boundary_sample(rng, frac=0.99, t=T):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return GyroElement(v * t * frac, t)


ZERO = GyroElement((0.0, 0.0, 0.0), T)


class TestGyroElement:
    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            GyroElement((2.0, 0.0, 0.0), 2.0)

    @pytest.mark.parametrize("t", [math.inf, math.nan, 0.0, -2.0])
    def test_radius_must_be_finite_and_positive(self, t):
        with pytest.raises(DomainError):
            GyroElement((1.0, 0.0, 0.0), t)
        with pytest.raises(DomainError):
            EigenParams(1.0, (1.0, 0.0, 0.0), t)

    def test_vec_is_an_array_of_the_coordinates(self):
        a = GyroElement(np.array([0.5, -0.25, 1.0]), T)
        assert isinstance(a.vec, np.ndarray) and a.vec.tolist() == [0.5, -0.25, 1.0]
        assert all(type(c) is float for c in a.y) and type(a.t) is float

    def test_mismatched_t(self, rng):
        a = sample(rng)
        b = GyroElement((0.1, 0.0, 0.0), 3.0)
        # the operations built on mobius_add and gyration refuse through them
        for op in (mobius_add, coadd, cosub, cosub_compositional, cancellation_check,
                   lambda a, b: gyration(a, a, b)):
            with pytest.raises(DomainError, match="share the same ball radius"):
                op(a, b)

    def test_immutable_slotted_value(self):
        a = GyroElement((0.5, -0.25, 1.0), T)
        for name in ("y", "t", "z"):
            with pytest.raises(AttributeError):
                setattr(a, name, 1.0)
        for name in ("y", "t"):
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a.y == (0.5, -0.25, 1.0) and a.t == T
        assert not hasattr(a, "__dict__")
        assert repr(a) == "GyroElement(y=(0.5, -0.25, 1.0), t=2.0)"

    def test_equality_and_hash_are_identity(self):
        a, b = GyroElement((0.5, -0.25, 1.0), T), GyroElement((0.5, -0.25, 1.0), T)
        assert a == a and a != b
        assert hash(a) == object.__hash__(a) and len({a, b}) == 2

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda a: pickle.loads(pickle.dumps(a))])
    def test_copies_rebuild_the_value(self, clone):
        a = GyroElement((0.5, -0.25, 1.0), T)
        b = clone(a)
        assert b is not a and b.y == a.y and b.t == a.t


class TestGroupAxioms:
    def test_left_identity(self, rng):
        for _ in range(1000):
            a = sample(rng)
            assert np.allclose(mobius_add(ZERO, a).vec, a.vec, rtol=0, atol=1e-15)

    def test_left_inverse(self, rng):
        for _ in range(1000):
            a = sample(rng)
            assert mobius_add(neg(a), a).norm() <= 1e-13

    def test_ball_closure(self, rng):
        for _ in range(1000):
            a, b = sample(rng, 0.999), sample(rng, 0.999)
            assert mobius_add(a, b).norm() < T

    def test_gyroassociativity(self, rng):
        for _ in range(1000):
            a, b, z = sample(rng), sample(rng), sample(rng)
            lhs = mobius_add(a, mobius_add(b, z))
            rhs = mobius_add(mobius_add(a, b), gyration(a, b, z))
            assert np.linalg.norm(lhs.vec - rhs.vec) <= 1e-12

    def test_left_loop(self, rng):
        for _ in range(1000):
            a, b, z = sample(rng), sample(rng), sample(rng)
            g1 = gyration(a, b, z)
            g2 = gyration(mobius_add(a, b), b, z)
            assert np.linalg.norm(g1.vec - g2.vec) <= 1e-12

    def test_gyrocommutativity(self, rng):
        for _ in range(1000):
            a, b = sample(rng), sample(rng)
            lhs = mobius_add(a, b)
            rhs = gyration(a, b, mobius_add(b, a))
            assert np.linalg.norm(lhs.vec - rhs.vec) <= 1e-12


def gyration_by_definition(a, b, z):
    """gyr[a,b]z through its definition (-(a (+) b)) (+) (a (+) (b (+) z))."""
    return mobius_add(neg(mobius_add(a, b)), mobius_add(a, mobius_add(b, z)))


class TestGyration:
    def test_closed_form_matches_definition(self, rng):
        for _ in range(1000):
            a, b, z = sample(rng, 0.8), sample(rng, 0.8), sample(rng, 0.8)
            d = np.linalg.norm(gyration(a, b, z).vec - gyration_by_definition(a, b, z).vec)
            assert d <= 1e-12

    def test_norm_preserving_near_boundary(self, rng):
        for _ in range(1000):
            a, b, z = boundary_sample(rng), boundary_sample(rng), boundary_sample(rng)
            assert gyration(a, b, z).norm() == pytest.approx(z.norm(), abs=1e-13)

    def test_identity_slots(self, rng):
        for _ in range(100):
            a, z = sample(rng), sample(rng)
            assert np.allclose(gyration(a, ZERO, z).vec, z.vec, rtol=0, atol=1e-14)
            assert np.allclose(gyration(ZERO, a, z).vec, z.vec, rtol=0, atol=1e-14)

    def test_norm_preserving(self, rng):
        for _ in range(1000):
            a, b, z = sample(rng), sample(rng), sample(rng)
            assert gyration(a, b, z).norm() == pytest.approx(z.norm(), abs=1e-12)


class TestCoaddition:
    def test_cosub_zero(self, rng):
        a = sample(rng)
        assert np.allclose(cosub(a, ZERO).vec, a.vec, rtol=0, atol=1e-15)
        assert cosub(a, a).norm() <= 1e-15

    def test_closed_form_vs_composition(self, rng):
        for _ in range(1000):
            a, b = sample(rng), sample(rng)
            d = np.linalg.norm(cosub(a, b).vec - cosub_compositional(a, b).vec)
            assert d <= 1e-12

    def test_coadd_consistency(self, rng):
        # a [+] (-b) must match the cosub closed form
        for _ in range(200):
            a, b = sample(rng), sample(rng)
            d = np.linalg.norm(coadd(a, neg(b)).vec - cosub(a, b).vec)
            assert d <= 1e-12


class TestCancellation:
    def test_trivial(self, rng):
        b = sample(rng)
        res = cancellation_check(ZERO, b)
        assert res and isinstance(res, CancellationResult)

    def test_random_pairs(self, rng):
        for _ in range(1000):
            res = cancellation_check(sample(rng), sample(rng))
            assert res.left_residual <= 1e-12 and res.right_residual <= 1e-12

    def test_near_boundary(self, rng):
        for _ in range(500):
            res = cancellation_check(
                boundary_sample(rng), boundary_sample(rng), tol=1e-9)
            assert res, res


# (t, a, b, z) and the outputs of mobius_add(a, b), gyration(a, b, z),
# cosub(a, b), neg(a) and cosub_compositional(a, b), to the last bit: any
# reordering of a formula's arithmetic moves one of them
_S = 0.99 / math.sqrt(3.0)
PINNED = [
    (1.7, (0.7123456789012345, -0.3141592653589793, 0.2718281828459045),
     (0.7773, -0.461, -0.6353), (0.2505, 0.5772156649015329, -0.6180339887498949), [
        (1.27575498966465, -0.6244027323460541, -0.00019390424711691214),
        (0.45746214908037097, 0.4806137042536687, -0.5810619885177134),
        (-0.20301837032279446, 0.18988940895524425, 0.7137790600553124),
        (-0.7123456789012345, 0.3141592653589793, -0.2718281828459045),
        (-0.20301837032279485, 0.18988940895524428, 0.7137790600553127),
    ]),
    # every point at 0.99 t
    (3.0, (3 * _S, 3 * _S, -3 * _S), (-3 * _S, 3 * _S, 3 * _S), (0.0, 2.97, 0.0), [
        (1.7142108285487336, 1.766418963669823, -1.7142108285487336),
        (1.9990951982786425, -0.9100202066100243, -1.9990951982786425),
        (1.7319633346731869, 0.0, -1.7319633346731869),
        (-1.7147302994931883, -1.7147302994931883, 1.7147302994931883),
        (1.7319633346731882, 8.324639295399467e-14, -1.7319633346731882),
    ]),
    (1.3, (1.287, 0.0, 0.0), (1.27, 0.13, 0.0), (-0.5, 0.5, 0.7), [
        (1.299881055105476, 0.000666839325822267, 0.0),
        (-0.4472742670492402, 0.5476730137915915, 0.7),
        (0.3753092579730143, -0.047197316896286326, 0.0),
        (-1.287, -0.0, -0.0),
        (0.37530925797282805, -0.04719731689629815, 0.0),
    ]),
    (1e-160, (3e-161, -2e-161, 5e-161), (-4e-161, 1e-161, 6e-161), (2e-161, 7e-161, -1e-161), [
        (2.0178782700144602e-161, -2.0244511634021297e-161, 8.52504272380702e-161),
        (1.0838701196266593e-161, 7.267648218745892e-161, 8.071513080057865e-163),
        (4.8710242925118956e-161, -1.953418482344102e-161, -1.7155021287252694e-161),
        (-3e-161, 2e-161, -5e-161),
        (4.871024292511896e-161, -1.9534184823441024e-161, -1.7155021287252715e-161),
    ]),
    (1e300, (6e299, -2e299, 5e299), (-9.9e299, 0.0, 0.0), (1e299, -7e299, 3e299), [
        (2.867290926703262e299, -3.527774375647178e299, 8.819435939117945e299),
        (4.925476267355503e299, -4.110235711979336e299, -4.2244107200516605e299),
        (9.876148621654015e299, -1.0966150963671198e298, 2.7415377409177996e298),
        (-6e299, 2e299, -5e299),
        (9.876148621654019e299, -1.0966150963671022e298, 2.74153774091776e298),
    ]),
]


@pytest.mark.parametrize("t, ya, yb, yz, want", PINNED)
def test_group_operations_are_bit_identical(t, ya, yb, yz, want):
    a, b, z = GyroElement(ya, t), GyroElement(yb, t), GyroElement(yz, t)
    got = [mobius_add(a, b), gyration(a, b, z), cosub(a, b), neg(a), cosub_compositional(a, b)]
    assert [repr(g.y) for g in got] == [repr(w) for w in want]
    assert all(g.t == t for g in got)


class TestExtremeRadius:
    # the algebra runs in unit-ball coordinates x / t, so any finite t works
    @pytest.mark.parametrize("t", [1e-160, 1e300])
    def test_group_law_scales_with_t(self, t):
        a, b = GyroElement((0.3, -0.1, 0.5), 1.0), GyroElement((-0.2, 0.6, 0.1), 1.0)
        at, bt = GyroElement(t * a.vec, t), GyroElement(t * b.vec, t)
        for op in (mobius_add, cosub, cosub_compositional):
            assert np.allclose(op(at, bt).vec / t, op(a, b).vec, rtol=0, atol=1e-14)
        assert np.allclose(gyration(at, bt, at).vec / t, gyration(a, b, a).vec,
                           rtol=0, atol=1e-14)
        assert cancellation_check(at, bt, tol=1e-14 * t)
        assert boxminus_jacobian(at, bt) == approx(boxminus_jacobian(a, b), rel=1e-13)
        assert measure_factor(at, bt) == approx(measure_factor(a, b), rel=1e-13)

    def test_rounding_onto_the_boundary_raises_typed(self):
        # a (+) (-a) is 0 / 0 here, and |b / t|^2 rounds to 1 for b [-] b
        a = GyroElement((math.nextafter(T, 0.0), 0.0, 0.0), T)
        with pytest.raises(DomainError):
            mobius_add(a, neg(a))
        with pytest.raises(DomainError):
            gyration(a, neg(a), a)
        b = GyroElement((-1.6143142946256421, 0.2619407075276678, 1.1512499398076943), T)
        with pytest.raises(DomainError):
            cosub(b, b)
        with pytest.raises(DomainError):
            boxminus_jacobian(b, b)

    def test_huge_radius_interior_sum(self):
        t = 1e300
        s = mobius_add(GyroElement((1e200, 0.0, 0.0), t), GyroElement((0.0, 1e200, 0.0), t))
        assert s.vec == approx([1e200, 1e200, 0.0], rel=1e-15)


class TestJacobianAndMeasure:
    def test_trivial_translations(self, rng):
        z = sample(rng)
        assert boxminus_jacobian(z, ZERO) == approx(1.0, rel=1e-15)
        assert measure_factor(z, ZERO) == approx(1.0, rel=1e-15)

    def test_center_value(self, rng):
        y = sample(rng)
        want = (1.0 - y.norm() ** 2 / T ** 2) ** 3
        assert boxminus_jacobian(ZERO, y) == approx(want, rel=1e-14)
        assert measure_factor(ZERO, y) == approx(1.0, rel=1e-14)

    def test_jacobian_against_finite_differences(self, rng):
        for _ in range(200):
            z, y = sample(rng, 0.7), sample(rng, 0.7)
            h = 1e-6
            jac = np.empty((3, 3))
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fp = cosub(GyroElement(z.vec + e, T), y).vec
                fm = cosub(GyroElement(z.vec - e, T), y).vec
                jac[:, j] = (fp - fm) / (2 * h)
            det = float(np.linalg.det(jac))
            assert boxminus_jacobian(z, y) == approx(det, rel=1e-6)

    def test_measure_chain_identity(self, rng):
        for _ in range(500):
            z, y = sample(rng), sample(rng)
            w = cosub(z, y)
            chain = boxminus_jacobian(z, y) * (
                (1 - z.norm() ** 2 / T ** 2) / (1 - w.norm() ** 2 / T ** 2)
            ) ** 3
            assert measure_factor(z, y) == approx(chain, rel=1e-10)


class TestEigenfunction:
    def test_center_value(self):
        ep = EigenParams(1.3, (0.0, 0.0, 1.0), T)
        assert eigenfunction(ep, BallPoint((0.0, 0.0, 0.0))) == approx(1.0)

    def test_real_at_lambda_zero(self, rng):
        ep = EigenParams(0.0, (1.0, 0.0, 0.0), T)
        for _ in range(50):
            val = eigenfunction(ep, BallPoint(sample(rng).vec))
            assert val.imag == 0.0 and val.real > 0.0

    def test_modulus(self, rng):
        # |e| equals the purely real-exponent power
        lam = 0.8
        xi = np.array([0.0, 1.0, 0.0])
        ep = EigenParams(lam, xi, T)
        ep0 = EigenParams(0.0, xi, T)
        for _ in range(50):
            y = BallPoint(sample(rng).vec)
            assert abs(eigenfunction(ep, y)) == approx(
                eigenfunction(ep0, y).real, rel=1e-13)

    def test_unit_direction_required(self):
        with pytest.raises(DomainError):
            EigenParams(1.0, (1.0, 1.0, 0.0), T)

    def test_radial_ode(self):
        # spherical average solves f'' + 2 coth(r) f' + (lam^2 + 1) f = 0
        lam = 1.7
        xi = np.array([1.0, 0.0, 0.0])
        nodes, weights = np.polynomial.legendre.leggauss(40)
        theta = 2 * math.pi * np.arange(60) / 60

        def avg(r):
            s = 2.0 * math.tanh(r / 2.0)   # geodesic radius -> ball radius
            st = np.sqrt(np.maximum(1 - nodes ** 2, 0))
            omega = np.empty((40, 60, 3))
            omega[:, :, 0] = nodes[:, None]
            omega[:, :, 1] = st[:, None] * np.cos(theta)[None, :]
            omega[:, :, 2] = st[:, None] * np.sin(theta)[None, :]
            vals = eigenfunction(EigenParams(lam, xi, T), s * omega)
            inner = vals.sum(axis=1) * (2 * math.pi / 60)
            return complex(np.sum(weights * inner)) / (4 * math.pi)

        h = 1e-3
        for r in (0.4, 0.9, 1.6):
            f0, fp, fm = avg(r), avg(r + h), avg(r - h)
            d2 = (fp - 2 * f0 + fm) / h ** 2
            d1 = (fp - fm) / (2 * h)
            resid = d2 + 2 / math.tanh(r) * d1 + (lam ** 2 + 1.0) * f0
            assert abs(resid) <= 1e-4
            # and the average coincides with sin(lam r)/(lam sinh r)
            want = math.sin(lam * r) / (lam * math.sinh(r))
            assert abs(f0 - want) <= 1e-9


class TestEFactor:
    def test_translation_by_zero(self, rng):
        xi = np.array([0.0, 0.0, 1.0])
        z = sample(rng).vec
        assert e_factor(0.9, xi, np.zeros(3), z, T) == approx(1.0 + 0.0j)

    def test_real_positive_at_lambda_zero(self, rng):
        xi = np.array([1.0, 0.0, 0.0])
        for _ in range(50):
            val = e_factor(0.0, xi, sample(rng).vec, sample(rng).vec, T)
            assert val.imag == 0.0 and val.real > 0.0

    def test_rotation_identity(self, rng):
        for i in range(40):
            rot = special_ortho_group.rvs(3, random_state=100 + i)
            lam = rng.uniform(-2, 2)
            xi = rng.normal(size=3)
            xi /= np.linalg.norm(xi)
            y, z = sample(rng).vec, sample(rng).vec
            lhs = e_factor(lam, rot @ xi, y, rot @ z, T)
            rhs = e_factor(lam, xi, rot.T @ y, z, T)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_transport_identity(self, rng):
        for _ in range(500):
            lam = rng.uniform(-3, 3)
            xi = rng.normal(size=3)
            xi /= np.linalg.norm(xi)
            zz, yy = sample(rng), sample(rng)
            ep = EigenParams(-lam, xi, T)
            lhs = eigenfunction(ep, cosub(zz, yy).vec)
            rhs = transport_prefactor(lam, xi, yy.vec, zz.vec, T) * eigenfunction(ep, zz.vec)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_e_is_prefactor_times_measure(self, rng):
        lam = 1.1
        xi = np.array([0.0, 1.0, 0.0])
        for _ in range(50):
            y, z = sample(rng), sample(rng)
            lhs = e_factor(lam, xi, y.vec, z.vec, T)
            rhs = transport_prefactor(lam, xi, y.vec, z.vec, T) * measure_factor(z, y)
            assert abs(lhs - rhs) <= 1e-13 * abs(rhs)


class TestSphereIntegral:
    def test_imaginary_part_vanishes(self, rng):
        cfg = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-13)
        for _ in range(20):
            lam = rng.uniform(0.1, 3.0)
            r = rng.uniform(0.1, 1.8)
            z = BallPoint(sample(rng).vec)
            xi = rng.normal(size=3)
            xi /= np.linalg.norm(xi)
            val = sphere_integral_E(lam, r, z, cfg=cfg, xi=xi)
            assert abs(val.imag) <= 1e-8

    def test_real_part_closed_form(self, rng):
        cfg = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-13)
        for _ in range(20):
            lam = rng.uniform(0.1, 3.0)
            r = rng.uniform(0.1, 1.8)
            z = BallPoint(sample(rng).vec)
            want = sphere_integral_E_reference(lam, r)
            got = sphere_integral_E(lam, r, z, cfg=cfg)
            assert got.real == pytest.approx(want, rel=1e-7, abs=1e-7)

    def test_small_lambda_limit(self):
        cfg = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-13)
        r = 0.8
        z = BallPoint((0.3, -0.2, 0.1))
        got = sphere_integral_E(1e-4, r, z, cfg=cfg)
        want = sphere_integral_E_reference(0.0, r)
        assert got.real == approx(want, rel=1e-6)

    def test_near_boundary_is_bounded(self):
        # r = 1.9 of t = 2 at lam = 8: a steep integrand, in bounded memory
        z = BallPoint((0.3, 0.2, 0.1))
        tracemalloc.start()
        try:
            got = sphere_integral_E(8.0, 1.9, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(got - sphere_integral_E_reference(8.0, 1.9)) <= 1e-10
        assert peak < 64 << 20

    def test_panel_limit_rejects(self):
        with pytest.raises(NumericError):
            sphere_integral_E(8.0, 1.9, BallPoint((0.3, 0.2, 0.1)),
                              cfg=QuadratureConfig(max_subdiv=10))

    def test_domain(self):
        with pytest.raises(DomainError):
            sphere_integral_E(1.0, 2.5, BallPoint((0.0, 0.0, 0.0)))

    @pytest.mark.parametrize("xi", [(0.0, 0.0, 0.0), (math.inf, 0.0, 0.0), (1.0, 0.0)])
    def test_direction_must_be_nonzero_and_finite(self, xi):
        with pytest.raises(DomainError):
            sphere_integral_E(1.0, 0.5, BallPoint((0.0, 0.0, 0.0)), xi=xi)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    ax=st.floats(-0.9, 0.9), ay=st.floats(-0.9, 0.9), az=st.floats(-0.9, 0.9),
    bx=st.floats(-0.9, 0.9), by=st.floats(-0.9, 0.9), bz=st.floats(-0.9, 0.9),
)
def test_cancellation_property(ax, ay, az, bx, by, bz):
    a = GyroElement((ax, ay, az), T)
    b = GyroElement((bx, by, bz), T)
    assert cancellation_check(a, b, tol=1e-11)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    zx=st.floats(-0.9, 0.9), zy=st.floats(-0.9, 0.9), zz=st.floats(-0.9, 0.9),
    yx=st.floats(-0.9, 0.9), yy=st.floats(-0.9, 0.9), yz=st.floats(-0.9, 0.9),
)
def test_clifford_norm_nonnegative(zx, zy, zz, yx, yy, yz):
    val = clifford_norm_sq(np.array([zx, zy, zz]), np.array([yx, yy, yz]), T)
    assert val >= 0.0


def _vectors(t):
    """Any three floats, or three floats of the ball of radius t."""
    return st.one_of(
        st.tuples(st.floats(), st.floats(), st.floats()),
        st.tuples(*[st.floats(-0.577, 0.577).map(lambda c: c * t)] * 3),
    )


def _directions():
    """Any three floats, or the unit vector along three floats."""
    def unit(v):
        n = math.hypot(*v)
        return tuple(c / n for c in v) if 0.0 < n < math.inf else (0.0, 0.0, 1.0)

    floats = st.tuples(st.floats(), st.floats(), st.floats())
    return st.one_of(floats, floats.filter(lambda v: all(map(math.isfinite, v))).map(unit))


def _attempt(fn, *args):
    """fn(*args) when it returns an in-ball element or a finite value, None
    when it raises a typed error; any other exception fails the test."""
    try:
        out = fn(*args)
    except HypfracError:
        return None
    if isinstance(out, GyroElement):
        assert all(map(math.isfinite, out.y)) and out.norm() < out.t
    elif isinstance(out, CancellationResult):
        assert math.isfinite(out.left_residual) and math.isfinite(out.right_residual)
    elif isinstance(out, EigenParams):
        assert math.isfinite(out.lam) and 0.0 < out.t < math.inf
    else:
        assert cmath.isfinite(out)
    return out


def _forms(y):
    """The point y as a tuple, a list and a float64 array, and as a float32
    and an int array where those hold its three floats exactly."""
    forms = [tuple(y), list(y), np.array(y)]
    with np.errstate(over="ignore"):
        narrow = [np.array(y, dtype=np.float32)]
    if all(math.isfinite(c) and c == int(c) and abs(c) < 2.0 ** 63 for c in y):
        narrow.append(np.array([int(c) for c in y]))
    exact = [repr(c) for c in y]
    return forms + [f for f in narrow if [repr(float(c)) for c in f] == exact]


def _element(y, t):
    """GyroElement(y, t) from every form of y: all give the same floats, or all
    raise the same typed error; the element (checked as by _attempt) or None."""
    outs = []
    for form in _forms(y):
        try:
            outs.append(GyroElement(form, t))
        except HypfracError as err:
            outs.append(type(err))
    first = outs[0]
    if isinstance(first, type):
        assert all(out is first for out in outs), outs
        return None
    assert all(isinstance(out, GyroElement) and repr(out) == repr(first) for out in outs), outs
    return _attempt(lambda: first)


def _point_and_batch(fn, *args):
    """fn on single points (the 3-vectors among args) and on their (1, 3)
    batches: both raise the same typed error, or both return finite values,
    a complex and a complex array, that agree within 4 ulp."""
    batch = [np.array([a]) if isinstance(a, np.ndarray) else a for a in args]
    outs = []
    for call in (args, batch):
        try:
            outs.append(fn(*call))
        except HypfracError as err:
            outs.append(type(err))
    one, many = outs
    if isinstance(one, type) or isinstance(many, type):
        assert one is many, (one, many)
        return
    assert type(one) is complex and cmath.isfinite(one)
    assert many.shape == (1,) and np.isfinite(many).all()
    assert abs(many[0].real - one.real) <= 4 * math.ulp(one.real)
    assert abs(many[0].imag - one.imag) <= 4 * math.ulp(one.imag)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data(), t=st.one_of(st.floats(), st.sampled_from([1e-160, 2.0, 1e300])),
       lam=st.floats(), xi=_directions())
def test_gyro_entry_points_return_in_ball_or_finite_or_raise_typed(data, t, lam, xi):
    vectors = _vectors(t) if math.isfinite(t) else st.tuples(st.floats(), st.floats(), st.floats())
    ya, yb, yz = (data.draw(vectors) for _ in range(3))
    a, b, z = (_element(y, t) for y in (ya, yb, yz))
    if a is not None:
        _attempt(neg, a)
    if a is not None and b is not None:
        for op in (mobius_add, coadd, cosub, cosub_compositional, cancellation_check):
            _attempt(op, a, b)
        if z is not None:
            _attempt(gyration, a, b, z)
    ep = _attempt(EigenParams, lam, xi, t)
    if ep is not None:
        _point_and_batch(eigenfunction, ep, np.array(ya))
    for fn in (transport_prefactor, e_factor):
        _point_and_batch(fn, lam, xi, np.array(yb), np.array(yz), t)
