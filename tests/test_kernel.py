import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import approx, finite_or_typed
from hypfrac.errors import DomainError
from hypfrac.kernel import (
    KERNEL_TABLE_REL,
    KernelSpec,
    _KT_END,
    _KT_PANELS,
    _KT_T0,
    _KT_WIDTH,
    _kernel_sinh2_log,
    euclidean_limit_ratio,
    gamma_abs_neg,
    invariance_integral,
    kernel_sinh2,
    kernel_value,
    normalizing_constant,
    spectral_kernel,
)
from hypfrac.quadrature import QuadratureConfig
from hypfrac.scale import i0_closed, iinf_closed, r0_solve


class TestNormalizingConstant:
    def test_half_value(self):
        # Gamma(2) = 1 and |Gamma(-1/2)| = 2 sqrt(pi) give exactly 1/pi^2
        assert normalizing_constant(3, 0.5) == approx(1.0 / math.pi ** 2, rel=1e-14)

    def test_gamma_abs_neg(self):
        assert gamma_abs_neg(0.5) == approx(2.0 * math.sqrt(math.pi), rel=1e-14)

    def test_vanishes_like_one_minus_gamma(self):
        vals = [normalizing_constant(3, g) / (1.0 - g) for g in (0.9, 0.99, 0.999)]
        assert all(v > 0.0 for v in vals)
        spread = max(vals) / min(vals)
        assert spread < 1.5  # bounded, no blow-up

    def test_vanishes_like_gamma(self):
        # gamma |Gamma(-gamma)| -> 1, so C(3, gamma)/gamma -> Gamma(3/2)/pi^(3/2)
        want = math.gamma(1.5) / math.pi ** 1.5
        assert normalizing_constant(3, 1e-5) / 1e-5 == approx(want, rel=1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            normalizing_constant(3, 1.2)
        with pytest.raises(DomainError):
            normalizing_constant(0, 0.5)


class TestKernelValue:
    def test_positive_and_decreasing(self):
        spec = KernelSpec(gamma=0.5)
        vals = [kernel_value(spec, rho) for rho in np.linspace(0.05, 20.0, 80)]
        assert all(v > 0.0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_sinh2_composite_matches(self):
        for g in (0.3, 0.7):
            for rho in (1e-3, 0.5, 2.0, 50.0):
                direct = kernel_value(KernelSpec(g), rho) * math.sinh(rho) ** 2
                assert kernel_sinh2(g, rho) == approx(direct, rel=1e-12)

    def test_small_rho_power_law(self):
        # rho^2 K sinh^2 ~ rho^(1-2 gamma)
        for g in (0.3, 0.7):
            rhos = np.logspace(-4, -2, 25)
            logs = [math.log(r * r * kernel_sinh2(g, r)) for r in rhos]
            slope = np.polyfit(np.log(rhos), logs, 1)[0]
            assert slope == pytest.approx(1.0 - 2.0 * g, abs=0.02)

    def test_large_rho_power_law(self):
        # K sinh^2 ~ rho^(-1-gamma)
        for g in (0.3, 0.7):
            rhos = np.logspace(3, 5, 25)
            logs = [math.log(kernel_sinh2(g, r)) for r in rhos]
            slope = np.polyfit(np.log(rhos), logs, 1)[0]
            assert slope == pytest.approx(-1.0 - g, abs=0.02)

    def test_domain(self):
        with pytest.raises(DomainError):
            kernel_value(KernelSpec(0.5), 0.0)
        with pytest.raises(DomainError):
            KernelSpec(gamma=1.0)

    def test_sinh2_non_finite(self):
        for rho in (math.nan, math.inf):
            with pytest.raises(DomainError):
                kernel_sinh2(0.5, rho)
            with pytest.raises(DomainError):
                kernel_sinh2(0.5, np.array([1.0, rho]))

    def test_sinh2_empty_array(self):
        assert kernel_sinh2(0.5, np.array([])).shape == (0,)

    def test_sinh2_float_and_array(self):
        # one formula serves a float and a batch; a float gives a float
        rho = np.geomspace(1e-5, 1e4, 200)
        for g in (0.1, 0.5, 0.99):
            scalar = [kernel_sinh2(g, float(r)) for r in rho]
            assert all(type(v) is float for v in scalar)
            assert kernel_sinh2(g, np.float64(2.0)) == kernel_sinh2(g, 2.0)
            assert np.max(np.abs(kernel_sinh2(g, rho) / scalar - 1.0)) <= 4 * np.finfo(float).eps


class TestEuclideanLimit:
    def test_large_tau_window(self):
        assert euclidean_limit_ratio(0.5, 1.0, 1e3) == pytest.approx(1.0, abs=1e-3)

    def test_monotone_sweep(self):
        vals = [euclidean_limit_ratio(0.5, 1.0, tau) for tau in (1.0, 10.0, 100.0, 1000.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_small_rho_limit(self):
        assert euclidean_limit_ratio(0.5, 1e-3, 1.0) == pytest.approx(1.0, abs=1e-5)


class TestSpectralKernel:
    def test_zero_at_lambda_zero(self):
        assert spectral_kernel(0.0, 2.0, 1.0) == 0.0

    def test_even_in_lambda(self):
        # lam * sin(lam rho) pairs two odd factors
        for lam in (0.3, 1.1, 2.7):
            assert spectral_kernel(-lam, 2.0, 0.8) == spectral_kernel(lam, 2.0, 0.8)

    def test_exponential_decay(self):
        # envelope decays like exp(-2 rho / t); compare at sin peaks
        t, lam = 2.0, math.pi / 2
        r1, r2 = 1.0, 5.0
        ratio = abs(spectral_kernel(lam, t, r2) / spectral_kernel(lam, t, r1))
        assert ratio == approx(
            math.sinh(2 * r1 / t) / math.sinh(2 * r2 / t), rel=1e-12)

    def test_value(self):
        lam, t, rho = 1.3, 2.0, 0.7
        want = -(1 / (4 * math.pi ** 2)) * (2 / t) * lam * math.sin(lam * rho) / math.sinh(2 * rho / t)
        assert spectral_kernel(lam, t, rho) == approx(want, rel=1e-15)

    def test_tiny_t(self):
        # 2/t overflows here; the kernel itself is 0, and at rho = t a finite
        # -(1/(4 pi^2)) lam^2 2/sinh(2)
        assert spectral_kernel(1.0, 1e-320, 1.0) == 0.0
        assert spectral_kernel(3.0, 1e-320, 1e-320) == approx(
            -0.12571350289744920, rel=1e-15)


class TestReentrancy:
    def test_concurrent_evaluations_match_serial(self):
        # pure value semantics: thread fan-out must reproduce serial results
        from concurrent.futures import ThreadPoolExecutor

        rhos = list(np.linspace(0.05, 10.0, 64))
        serial = [kernel_sinh2(0.6, r) for r in rhos]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda r: kernel_sinh2(0.6, r), rhos))
        assert threaded == serial


class TestKernelTable:
    """The jump-kernel table of the radial integrals, one for every order,
    against kernel_sinh2."""

    GAMMAS = (1e-6, 0.01, 0.3, 0.5, 0.77, 0.99, 1.0 - 1e-6, 1.0 - 1e-9)

    def test_span(self):
        # from a panel below the radial integrals' start at r = 1e-3 to r = 400
        assert math.exp(_KT_T0) < 1e-3 and math.exp(_KT_END) >= 400.0

    def test_within_its_bound(self):
        assert KERNEL_TABLE_REL <= 5e-14
        edges = _KT_T0 + _KT_WIDTH * np.arange(_KT_PANELS + 1)
        t = np.concatenate([np.linspace(_KT_T0, _KT_END, 6001), edges,
                            np.nextafter(edges, -np.inf)[1:], np.nextafter(edges, np.inf)[:-1]])
        for g in self.GAMMAS:
            got = _kernel_sinh2_log(g, t)
            assert np.max(np.abs(got / kernel_sinh2(g, np.exp(t)) - 1.0)) <= KERNEL_TABLE_REL

    def test_outside_its_span_is_kernel_sinh2(self):
        out = np.array([np.nextafter(_KT_T0, -np.inf), math.log(1e-6), -40.0,
                        np.nextafter(_KT_END, np.inf), math.log(1e3), math.log(1e6)])
        t = np.concatenate([out, [0.0, 1.0]])
        for g in (0.3, 0.99):
            want = kernel_sinh2(g, np.exp(out))
            np.testing.assert_array_equal(_kernel_sinh2_log(g, out), want)
            np.testing.assert_array_equal(_kernel_sinh2_log(g, t)[:out.size], want)

    def test_shape_and_order(self):
        t = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        assert _kernel_sinh2_log(0.5, t).shape == (3, 4)
        for bad in (0.0, 1.0, math.nan):
            with pytest.raises(DomainError):
                _kernel_sinh2_log(bad, t)


class TestInvarianceIntegral:
    def test_multiplier_point(self):
        got = invariance_integral(1.0, 0.5, 2.0)
        assert got == approx(math.sqrt(2.0), rel=1e-9)

    def test_lambda_zero_limit(self):
        assert invariance_integral(0.0, 0.35, 2.0) == approx(1.0, rel=1e-9)

    def test_general_t(self):
        for (lam, g, t) in [(1.3, 0.35, 3.0), (0.7, 0.6, 1.0)]:
            got = invariance_integral(lam, g, t)
            assert got == approx((lam * lam + 4.0 / (t * t)) ** g, rel=1e-8)

    def test_small_lambda_continuity(self):
        a = invariance_integral(1e-6, 0.5, 2.0)
        b = invariance_integral(0.0, 0.5, 2.0)
        assert a == approx(b, rel=1e-8)

    def test_large_lambda(self):
        # the plane-wave average oscillates hundreds of times over the tail
        for lam in (32.0, 50.0, 100.0):
            for g in (0.2, 0.5, 0.8, 0.95):
                want = (lam * lam + 1.0) ** g
                assert invariance_integral(lam, g, 2.0) == approx(want, rel=1e-8)

    def test_extreme_gamma(self):
        # near 0 the tail map clamps x; near 1 the near map sends most
        # nodes to rho = 0
        for lam in (0.0, 1e-6, 1.0, 8.0, 50.0):
            for g in (0.001, 0.01, 0.5, 0.99, 0.999):
                want = (lam * lam + 1.0) ** g
                assert invariance_integral(lam, g, 2.0) == approx(want, rel=1e-8)

    @pytest.mark.parametrize("g", [1e-9, 1e-6, 1e-3, 0.5, 0.999, 1.0 - 1e-6, 1.0 - 1e-9])
    def test_uniform_in_the_order(self, g):
        # as 2 - 2 gamma or gamma -> 0 the maps crowd every decade of rho into
        # one first panel below t = 1, which lost O(gamma) and O(1 - gamma) of
        # the integral (9.1e-7 at gamma 1e-6, 6.7e-6 at 1 - 1e-6); the decades'
        # images as first cuts hold it to 1.2e-12
        for lam in (0.0, 1.0, 8.0, 100.0):
            assert invariance_integral(lam, g, 2.0) == approx((lam * lam + 1.0) ** g, rel=2e-12)

    def test_tight_tolerance(self):
        # 1 - sinc(a rho) rho / sinh(rho) keeps full precision where it
        # cancels, so the error estimates do not stall on rounding noise
        cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-15)
        for lam in (0.0, 0.5, 1.0, 2.0, 4.0, 16.0):
            for g in (0.2, 0.5, 0.8, 0.95):
                want = (lam * lam + 1.0) ** g
                assert invariance_integral(lam, g, 2.0, cfg) == approx(want, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            invariance_integral(1.0, 1.5, 2.0)

    def test_loose_config_still_converges(self):
        cfg = QuadratureConfig(rel_tol=1e-8, abs_tol=1e-10, max_subdiv=100)
        got = invariance_integral(2.0, 0.8, 2.0, cfg)
        assert got == approx(5.0 ** 0.8, rel=1e-7)


def _kernel_value(gamma, tau, rho):
    return kernel_value(KernelSpec(gamma, tau), rho)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=st.floats(), b=st.floats(), c=st.floats(), n=st.one_of(st.integers(), st.floats()))
# each raised or warned at the parent: ZeroDivisionError in kernel_value and
# euclidean_limit_ratio, OverflowError and nan in spectral_kernel, a Bessel K
# exp-overflow RuntimeWarning in kernel_sinh2 and i0_closed
@example(a=1e-12, b=1e-300, c=1e-300, n=3)
@example(a=1.0, b=1e-20, c=1.0, n=3)
@example(a=800.0, b=2.0, c=800.0, n=3)
@example(a=1.0, b=1e-320, c=1.0, n=3)
@example(a=3.0, b=1e-320, c=1e-320, n=3)
@example(a=0.5, b=1e-200, c=1.0, n=3)
@example(a=1e-200, b=0.5, c=0.25, n=3)
def test_kernel_and_scale_entry_points_return_finite_or_raise_typed(a, b, c, n):
    # each call runs on floats, then on numpy scalars, which give a float too
    for a, b, c in ((a, b, c), (np.float64(a), np.float64(b), np.float64(c))):
        finite_or_typed(_kernel_value, a, b, c)
        finite_or_typed(euclidean_limit_ratio, a, b, c)
        finite_or_typed(spectral_kernel, a, b, c)
        finite_or_typed(normalizing_constant, n, a)
        finite_or_typed(kernel_sinh2, a, b)
        out = finite_or_typed(kernel_sinh2, a, np.array([b]))
        assert out is None or out.shape == (1,)
        finite_or_typed(i0_closed, a, b)
        finite_or_typed(iinf_closed, a, b)
        finite_or_typed(r0_solve, a, b)
        finite_or_typed(r0_solve, a, b, c)
