"""The explicit jump kernel of the fractional Laplacian on H^3, its
normalizing constant, the spectral kernel, and the invariance integral that
certifies the constant.

The distributional synthesis of the kernel from the spectral side diverges
classically and is never evaluated directly; correctness of the closed-form
kernel is certified through ``invariance_integral``, which must reproduce the
multiplier (lambda^2 + 4/t^2)^gamma.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from .quadrature import (
    QuadratureConfig,
    DEFAULT_QUAD,
    quad_alg_left,
    quad_semi_inf,
)
from .specfun import bessel_k, bessel_k_scaled

__all__ = [
    "KernelSpec",
    "gamma_abs_neg",
    "normalizing_constant",
    "kernel_value",
    "kernel_sinh2",
    "euclidean_limit_ratio",
    "spectral_kernel",
    "invariance_integral",
]


@dataclass(frozen=True)
class KernelSpec:
    """Order gamma in (0,1) and curvature parameter tau > 0."""

    gamma: float
    tau: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise DomainError("kernel order gamma must lie in (0, 1)")
        if self.tau <= 0.0:
            raise DomainError("tau must be positive")


def gamma_abs_neg(gamma: float) -> float:
    """|Gamma(-gamma)| = Gamma(1 - gamma) / gamma for gamma in (0, 1)."""
    if not 0.0 < gamma < 1.0:
        raise DomainError("gamma must lie in (0, 1)")
    return math.gamma(1.0 - gamma) / gamma


def normalizing_constant(n: int, gamma: float) -> float:
    """C(n, gamma) = 2^(2 gamma) Gamma(n/2 + gamma) / (pi^(n/2) |Gamma(-gamma)|)."""
    if n < 1:
        raise DomainError("dimension must be a positive integer")
    if not 0.0 < gamma < 1.0:
        raise DomainError("gamma must lie in (0, 1)")
    return (
        2.0 ** (2.0 * gamma)
        * math.gamma(0.5 * n + gamma)
        / (math.pi ** (0.5 * n) * gamma_abs_neg(gamma))
    )


def kernel_value(spec: KernelSpec, rho: float) -> float:
    """Jump kernel at geodesic distance rho > 0 (n = 3)."""
    if rho <= 0.0:
        raise DomainError("kernel_value requires rho > 0")
    g, tau = spec.gamma, spec.tau
    x = rho / tau
    if x > 700.0:
        # exp(-2x)-type decay: the correctly rounded double is zero
        return 0.0
    return (
        normalizing_constant(3, g)
        * (1.0 / tau) / math.sinh(x)
        * rho ** (-0.5 - g)
        * 2.0 * bessel_k(1.5 + g, x)
        / (math.gamma(1.5 + g) * (2.0 * tau) ** (1.5 + g))
    )


def _sinh2_prefactor(gamma: float) -> float:
    # kernel(rho) * sinh^2(rho) = P * rho^(-1/2-gamma) K_{3/2+gamma}(rho) sinh(rho)
    return 2.0 ** (gamma - 0.5) / (math.pi ** 1.5 * gamma_abs_neg(gamma))


def kernel_sinh2(gamma: float, rho):
    """kernel(rho) * sinh(rho)^2 at tau = 1, stable for arbitrarily large rho.

    This is the density against which every radial integral is taken; the
    exponential growth of sinh^2 exactly cancels the kernel's decay, leaving
    an algebraic rho^(-1-gamma) tail.  K_{3/2+gamma} comes from
    ``bessel_k_scaled``, whose trapezoid nodes sit on power-of-two steps
    shared by all rho of one step, so the node tables of one gamma serve
    every call.  rho may be a numpy array (all entries through those tables
    in batches; an empty array gives an empty array); a scalar rho takes the
    scalar path.  rho must be finite and positive (``DomainError``).
    """
    if not 0.0 < gamma < 1.0:
        raise DomainError("gamma must lie in (0, 1)")
    if isinstance(rho, np.ndarray):
        rho = rho.astype(float, copy=False)
        if not np.all((rho > 0.0) & (rho < np.inf)):
            raise DomainError("kernel_sinh2 requires finite rho > 0")
        ksinh = bessel_k_scaled(1.5 + gamma, rho) * (-np.expm1(-2.0 * rho)) / 2.0
        return _sinh2_prefactor(gamma) * rho ** (-0.5 - gamma) * ksinh
    if not 0.0 < rho < math.inf:
        raise DomainError("kernel_sinh2 requires finite rho > 0")
    # K(rho) sinh(rho) = K_scaled(rho) * (1 - exp(-2 rho)) / 2, no overflow
    ksinh = bessel_k_scaled(1.5 + gamma, rho) * (-math.expm1(-2.0 * rho)) / 2.0
    return _sinh2_prefactor(gamma) * rho ** (-0.5 - gamma) * ksinh


def euclidean_limit_ratio(gamma: float, rho: float, tau: float) -> float:
    """kernel / (C(3,gamma) rho^(-3-2 gamma)); tends to 1 as tau -> infinity."""
    if rho <= 0.0 or tau <= 0.0:
        raise DomainError("euclidean_limit_ratio requires rho, tau > 0")
    spec = KernelSpec(gamma=gamma, tau=tau)
    return kernel_value(spec, rho) / (
        normalizing_constant(3, gamma) * rho ** (-3.0 - 2.0 * gamma)
    )


def spectral_kernel(lam: float, t: float, rho: float) -> float:
    """Radial spectral kernel -(1/(4 pi^2)) (2/t) lam sin(lam rho)/sinh(2 rho/t)."""
    if t <= 0.0 or rho <= 0.0:
        raise DomainError("spectral_kernel requires t, rho > 0")
    return -(1.0 / (4.0 * math.pi ** 2)) * (2.0 / t) * lam * math.sin(lam * rho) / math.sinh(2.0 * rho / t)


def _sinc(u: float) -> float:
    if abs(u) < 1e-4:
        u2 = u * u
        return 1.0 - u2 / 6.0 + u2 * u2 / 120.0
    return math.sin(u) / u


def _rho_over_sinh(rho: float) -> float:
    if rho < 1e-4:
        r2 = rho * rho
        return 1.0 - r2 / 6.0 + 7.0 * r2 * r2 / 360.0
    # 2 rho e^-rho / (1 - e^-2 rho): underflows gracefully for huge rho
    return 2.0 * rho * math.exp(-rho) / (-math.expm1(-2.0 * rho))


def _one_minus_product(lam_t_half: float, rho: float) -> float:
    """1 - sinc(a*rho) * (rho/sinh rho) with a = lam*t/2, cancellation-safe."""
    u = lam_t_half * rho
    if abs(u) < 1e-3 and rho < 1e-3:
        u2, r2 = u * u, rho * rho
        return (u2 + r2) / 6.0 - u2 * u2 / 120.0 - 7.0 * r2 * r2 / 360.0 - u2 * r2 / 36.0
    return 1.0 - _sinc(u) * _rho_over_sinh(rho)


def invariance_integral(
    lam: float,
    gamma: float,
    t: float = 2.0,
    cfg: QuadratureConfig = DEFAULT_QUAD,
) -> float:
    """The oscillation integral of the kernel against 1 - plane-wave average.

    Equals (lam^2 + 4/t^2)^gamma; lam = 0 is evaluated through the analytic
    limit of the integrand.  The integrand is nonnegative, which is asserted
    at the sampled quadrature nodes.
    """
    if not 0.0 < gamma < 1.0:
        raise DomainError("gamma must lie in (0, 1)")
    if t <= 0.0:
        raise DomainError("t must be positive")
    a = 0.5 * lam * t
    scale = math.pi * 2.0 ** (2.0 + 2.0 * gamma) * t ** (-2.0 * gamma)
    neg_seen = [0.0]

    def integrand(rho: float) -> float:
        val = _one_minus_product(a, rho) * kernel_sinh2(gamma, rho)
        if val < neg_seen[0]:
            neg_seen[0] = val
        return val

    def smooth_near_zero(rho: float) -> float:
        # integrand with the rho^(1-2 gamma) singular factor divided out
        if rho == 0.0:
            # analytic limit: (1 + a^2)/6 times the kernel_sinh2 leading constant
            lead = (
                _sinh2_prefactor(gamma)
                * math.gamma(1.5 + gamma) * 2.0 ** (0.5 + gamma)
            )
            return (1.0 + a * a) / 6.0 * lead
        return integrand(rho) * rho ** (2.0 * gamma - 1.0)

    near = quad_alg_left(smooth_near_zero, 0.0, 1.0, 1.0 - 2.0 * gamma, cfg)
    far = quad_semi_inf(integrand, 1.0, cfg)
    if neg_seen[0] < -1e-8:
        raise NumericError(
            f"invariance integrand went negative ({neg_seen[0]:.3e}) at a node"
        )
    return scale * (near + far)
