import math
import tracemalloc

import numpy as np
import pytest

from conftest import approx
from hypfrac.errors import DomainError, NumericError
from hypfrac.quadrature import (NODE_BUDGET, ROUNDING, QuadratureConfig, _regula_falsi, alg_left,
                                alg_tail, antiderivative, gk21_batch, integrate)


def test_many_integrals_at_once():
    # owner k < 6: x^k on [0, 1]; owner 6: sin on [0, pi] in two initial
    # panels; owner 7: sqrt(x) on [0, 1], singular derivative at 0.  The
    # integrand receives the initial panel of each row, here mapped to its owner
    powers = np.arange(6.0)

    def f(x, panel):
        own = np.array(owner)[panel][:, None]
        p = np.where(own < 6, powers[np.minimum(own, 5)], 0.0)
        return np.where(own < 6, x ** p, np.where(own == 6, np.sin(x), np.sqrt(np.abs(x))))

    lo = [0.0] * 6 + [0.0, 1.0, 0.0]
    hi = [1.0] * 6 + [1.0, math.pi, 1.0]
    owner = list(range(6)) + [6, 6, 7]
    val, err, _, neval = gk21_batch(f, lo, hi, owner, 8, 1e-10, 1e-14, 200)
    want = np.concatenate([1.0 / (powers + 1.0), [2.0, 2.0 / 3.0]])
    np.testing.assert_allclose(val, want, rtol=1e-10)
    assert np.all(np.abs(val - want) <= err + 1e-15)
    assert np.all(neval % 21 == 0) and neval[6] >= 2 * 63


def test_first_panels_and_their_halves_in_one_call():
    # accepted after its first bisection: the panel and both halves are one call
    # of the integrand (three rows of 21 nodes), and cost 63 nodes as before
    shapes = []

    def f(x, own):
        shapes.append(x.shape)
        return np.exp(-x * x)

    val, err, mass, neval = gk21_batch(f, [0.0], [1.0], [0], 1, 1e-10, 1e-14, 200)
    assert shapes == [(3, 21)]
    assert neval.tolist() == [63]
    np.testing.assert_allclose(val, 0.5 * math.sqrt(math.pi) * math.erf(1.0), rtol=1e-14)
    assert err[0] <= 1e-10 * mass[0]


def test_integrate_values_are_pinned():
    # values of the engine that evaluated the first panels and their halves in
    # two calls; one call may round a row's gemv differently, by at most 1 ulp
    def f(x, panel):
        return np.where((panel == 0)[:, None], np.exp(-x * x),
                        np.where((panel == 1)[:, None], np.sqrt(x), np.sin(10.0 * x)))

    val, mass = integrate(f, [0.0, 0.0, 0.0], [1.0, 1.0, 3.0], [0, 1, 2], 3, QuadratureConfig(),
                          "pinned")
    np.testing.assert_array_max_ulp(val, [0.746824132812427, 0.6666666666667023,
                                          0.08457485501124162], maxulp=1)
    np.testing.assert_array_max_ulp(mass, [0.746824132812427, 0.6666666666667023,
                                           1.9085528089815456], maxulp=1)
    np.testing.assert_array_max_ulp(alg_tail(lambda x: np.cos(1.0 / x), 1.0, 0.5),
                                    1.8090484758005443, maxulp=1)
    np.testing.assert_array_max_ulp(alg_left(lambda x: np.exp(-x), 0.0, 2.0, -0.5),
                                    1.6918067329451985, maxulp=1)


def test_node_budget_bounds_every_call():
    sizes = []

    def f(x, own):
        sizes.append(x.size)
        return np.exp(-x * x)

    n = 3 * NODE_BUDGET // 21
    val, _, _, _ = gk21_batch(f, np.zeros(n), np.ones(n), np.arange(n), n, 1e-12, 1e-15, 200)
    assert max(sizes) <= NODE_BUDGET and len(sizes) > 3
    np.testing.assert_allclose(val, 0.5 * math.sqrt(math.pi) * math.erf(1.0), rtol=1e-12)


def test_panel_limit_leaves_an_honest_error():
    # far more oscillations than 20 panels can follow
    val, err, _, neval = gk21_batch(
        lambda x, own: np.sin(1e5 * x), [0.0], [1.0], [0], 1, 1e-10, 1e-14, 20)
    true = (1.0 - math.cos(1e5)) / 1e5
    assert err[0] >= abs(val[0] - true)
    assert err[0] > 1e-10 and neval[0] <= 21 * 2 * 40


def test_non_finite_integrand_raises():
    with pytest.raises(NumericError):
        gk21_batch(lambda x, own: np.where(x > 0.9, np.inf, x), [0.0], [1.0], [0], 1,
                   1e-10, 1e-14, 200)


def test_integrate_returns_values_and_masses():
    # owner 0: sin on [0, 2 pi] in two initial panels, |f| mass 4; owner 1: -x on [0, 1]
    def f(x, panel):
        return np.where((panel < 2)[:, None], np.sin(x), -x)

    val, mass = integrate(f, [0.0, math.pi, 0.0], [math.pi, 2.0 * math.pi, 1.0], [0, 0, 1], 2,
                          QuadratureConfig(), "test")
    np.testing.assert_allclose(val, [0.0, -0.5], atol=1e-13)
    np.testing.assert_allclose(mass, [4.0, 0.5], rtol=1e-13)


def test_integrate_names_the_owner_out_of_panels():
    cfg = QuadratureConfig(1e-10, 1e-14, 20)
    f = lambda x, panel: np.where((panel == 1)[:, None], np.sin(1e5 * x), x)
    with pytest.raises(NumericError, match=r"^noise: error"):
        integrate(f, [0.0, 0.0], [1.0, 1.0], [0, 1], 2, cfg, "noise")


def test_integrate_accepts_the_rounding_floor():
    # sin over whole periods cancels to rounding noise, far above the
    # absolute tolerance asked for: its error estimate, at least ROUNDING
    # times the |f| mass, is within ten times the granted tolerance
    cfg = QuadratureConfig(1e-12, 1e-300)
    f = lambda x, panel: 1e3 * np.sin(x)
    val, mass = integrate(f, [0.0], [20.0 * math.pi], [0], 1, cfg, "test")
    assert abs(val[0]) <= ROUNDING * mass[0]


@pytest.mark.parametrize("p", [-0.998, -0.5, 0.98])
def test_alg_left_at_extreme_exponents(p):
    # integral_0^1 x^p cos x dx = sum_k (-1)^k / ((2k)! (2k + 1 + p))
    want = sum((-1) ** k / (math.factorial(2 * k) * (2 * k + 1 + p)) for k in range(12))
    assert alg_left(np.cos, 0.0, 1.0, p) == approx(want, rel=1e-10)


@pytest.mark.parametrize("q", [0.001, 0.01, 0.5, 0.99])
def test_alg_tail_at_extreme_exponents(q):
    # integral_1^oo x^(-1-q) (1 + 1/x) dx; at q = 0.001 the map sends 95 %
    # of [0, 1] beyond the clamp x = 1e20
    got = alg_tail(lambda x: 1.0 + 1.0 / x, 1.0, q)
    assert got == approx(1.0 / q + 1.0 / (1.0 + q), rel=1e-10)


def test_alg_left_breaks_at_points():
    # |x - 0.3| on [0, 1] is resolved at once when a panel ends at the kink
    got = alg_left(lambda x: np.abs(x - 0.3), 0.0, 1.0, 0.0, points=[0.3])
    assert got == approx(0.5 * (0.3 ** 2 + 0.7 ** 2), rel=1e-14)


def test_maps_reject_bad_arguments():
    with pytest.raises(DomainError):
        alg_left(np.cos, 0.0, 1.0, -1.0)
    with pytest.raises(DomainError):
        alg_left(np.cos, 1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        alg_tail(np.cos, 0.0, 0.5)


@pytest.mark.parametrize("rel, abs_", [(1.0, 1e-12), (math.inf, 1e-12), (math.nan, 1e-12),
                                       (1e-10, math.inf), (1e-10, math.nan)])
def test_config_needs_a_relative_tolerance_below_one_and_finite_tolerances(rel, abs_):
    with pytest.raises(DomainError):
        QuadratureConfig(rel, abs_)


def test_reject_rule_at_the_largest_absolute_tolerance():
    # ten times the granted tolerance would overflow; the error is divided instead
    val, _ = integrate(lambda x, own: np.sin(x), [0.0], [1.0], [0], 1,
                       QuadratureConfig(0.5, 1.7e308), "test")
    assert val[0] == approx(1.0 - math.cos(1.0), rel=1e-12)


def test_alg_tail_factor_past_the_float_range():
    # a^-q / q overflows at a subnormal exponent, and times a zero integrand
    # made a nan
    with pytest.raises(NumericError):
        alg_tail(lambda x: np.exp(-x), 1.0, 2.2e-311)


def test_antiderivative_from_the_anchor():
    # the integral of (cos(s) - cos(2)) e^s over [2, w], on both sides of the
    # anchor; the first panels are far too wide, so they are bisected
    F = antiderivative(np.cos, np.exp, [0.0, 5.0, 9.0], 2.0, "test")

    def exact(w):
        return (math.exp(w) * (math.cos(w) + math.sin(w)) / 2.0 - math.cos(2.0) * math.exp(w)
                - (math.exp(2.0) * (math.cos(2.0) + math.sin(2.0)) / 2.0
                   - math.cos(2.0) * math.exp(2.0)))

    w = np.linspace(0.0, 9.0, 301)
    want = np.array([exact(x) for x in w])
    np.testing.assert_allclose(F(w), want, rtol=0.0, atol=1e-13 * np.max(np.abs(want)))
    assert abs(F(np.array([2.0]))[0]) <= 1e-14
    assert F(np.array([[1.0, 3.0]])).shape == (1, 2)


def test_antiderivative_sees_the_node_budget():
    sizes = []

    def v(x):
        sizes.append(x.size)
        return np.exp(-x)

    antiderivative(v, np.ones_like, np.linspace(0.0, 300.0, 1201), 0.0, "test")
    assert max(sizes) <= NODE_BUDGET and sum(sizes) > NODE_BUDGET


def test_antiderivative_panel_limit_is_a_numeric_error_in_bounded_memory():
    # sin(1e8 s) needs ~1e8 panels: the table stops at its panel limit with
    # a typed error, holding at most that many panels, not a MemoryError
    tracemalloc.start()
    try:
        with pytest.raises(NumericError, match="panels"):
            antiderivative(lambda s: np.sin(1e8 * s), np.ones_like, [0.0, 2.0], 1.0, "test")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_antiderivative_of_a_non_finite_integrand():
    with pytest.raises(NumericError, match="not finite"):
        antiderivative(lambda s: np.where(s > 0.5, np.inf, s), np.ones_like, [0.0, 1.0], 0.0,
                       "test")


class _Counted:
    """f, counting its calls."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


class TestRegulaFalsi:
    def test_root_at_a_bracket_end(self):
        f = _Counted(lambda x: x - 1.0)
        assert _regula_falsi(f, 0.0, 1.0, -1.0, 0.0, width=1e-12) == 1.0
        assert f.calls == 0
        assert _regula_falsi(f, 1.0, 2.0, 0.0, 1.0, width=1e-12) == 1.0

    def test_linear_converges_in_one_step(self):
        f = _Counted(lambda x: 2.0 * x - 1.0)
        assert _regula_falsi(f, 0.0, 1.0, -1.0, 1.0, width=1e-300) == 0.5
        assert f.calls == 1

    def test_exact_hit_mid_run(self):
        # zero on [0.29, 0.31]: the cubic's Illinois steps land there after
        # several steps, and the run stops on the root long before the width
        f = _Counted(lambda x: 0.0 if abs(x - 0.3) <= 0.01 else x ** 3 - 0.027)
        x = _regula_falsi(f, 0.0, 1.0, f(0.0), f(1.0), width=1e-300)
        assert abs(x - 0.3) <= 0.01 and f(x) == 0.0
        assert 2 < f.calls < 20

    def test_batch_matches_one_bracket_at_a_time(self):
        # roots at 0.3 and in a flat zero on [1.9, 2.1]: the second and third
        # brackets hit the flat zero exactly at steps 2 and 3 and stay there,
        # while the first and last run on toward 0.3
        def f(x):
            return np.where(np.abs(x - 2.0) <= 0.1, 0.0, (x - 0.3) * (x - 2.0))
        x0, x1 = np.array([0.0, 1.5, 1.0, 0.1]), np.array([1.0, 3.0, 2.6, 0.9])
        got = _regula_falsi(f, x0, x1, f(x0), f(x1), steps=6)
        want = [_regula_falsi(lambda c: float(f(c)), a, b, float(f(a)), float(f(b)), steps=6)
                for a, b in zip(x0.tolist(), x1.tolist())]
        assert got.tolist() == want
        assert got[1:3].tolist() == _regula_falsi(f, x0, x1, f(x0), f(x1), steps=3)[1:3].tolist()
        assert f(got).tolist()[1:3] == [0.0, 0.0]
        assert np.all(np.abs(got[[0, 3]] - 0.3) < 1e-7) and np.all(f(got[[0, 3]]) != 0.0)

    def test_empty_batch(self):
        f = _Counted(lambda x: x)
        got = _regula_falsi(f, np.empty(0), np.empty(0), np.empty(0), np.empty(0), steps=10)
        assert got.shape == (0,) and f.calls == 0

    def test_no_convergence_is_a_numeric_error(self):
        with pytest.raises(NumericError, match="cube root: no root within"):
            _regula_falsi(lambda x: x ** 3 - 2.0, 0.0, 2.0, -2.0, 6.0, steps=3, width=1e-12,
                          what="cube root")
        # without a width the steps run out quietly
        x = _regula_falsi(lambda x: x ** 3 - 2.0, 0.0, 2.0, -2.0, 6.0, steps=3)
        assert 0.0 < x < 2.0
