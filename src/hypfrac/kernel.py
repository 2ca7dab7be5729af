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
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericError, finite, order, positive
from .geometry import _taylor_rest
from .quadrature import (QuadratureConfig, DEFAULT_QUAD, _chebyshev_matrices, _clenshaw,
                         alg_left, alg_tail)
from .specfun import _finite, bessel_k, bessel_k_scaled

__all__ = [
    "KERNEL_TABLE_REL",
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
        # the checked floats, which kernel_value's arithmetic takes
        object.__setattr__(self, "gamma", order(self.gamma))
        object.__setattr__(self, "tau", positive(self.tau, "tau"))


def gamma_abs_neg(gamma: float) -> float:
    """|Gamma(-gamma)| = Gamma(1 - gamma) / gamma for gamma in (0, 1)."""
    gamma = order(gamma)
    return math.gamma(1.0 - gamma) / gamma


def normalizing_constant(n: int, gamma: float) -> float:
    """C(n, gamma) = 2^(2 gamma) Gamma(n/2 + gamma) / (pi^(n/2) |Gamma(-gamma)|)."""
    if not (1 <= n < math.inf and n == int(n)):
        raise DomainError("dimension must be a positive integer")
    gamma = order(gamma)
    try:
        return (
            2.0 ** (2.0 * gamma)
            * math.gamma(0.5 * n + gamma)
            / (math.pi ** (0.5 * n) * gamma_abs_neg(gamma))
        )
    except OverflowError:
        raise NumericError(f"normalizing_constant overflows a float at n={n}") from None


def kernel_value(spec: KernelSpec, rho: float) -> float:
    """Jump kernel at geodesic distance rho > 0 (n = 3)."""
    rho = positive(rho, "rho")
    g, tau = spec.gamma, spec.tau
    x = rho / tau
    if x > 700.0:
        # exp(-2x)-type decay: the correctly rounded double is zero
        return 0.0
    try:
        return _finite(
            normalizing_constant(3, g)
            * (1.0 / tau) / math.sinh(x)
            * rho ** (-0.5 - g)
            * 2.0 * bessel_k(1.5 + g, x)
            / (math.gamma(1.5 + g) * (2.0 * tau) ** (1.5 + g)), "kernel_value")
    except (OverflowError, ZeroDivisionError):
        # rho^(-1/2 - gamma) or 1/tau^(3/2 + gamma) out of range
        raise NumericError(f"kernel_value overflows a float at rho={rho}") from None


def _sinh2_prefactor(gamma: float) -> float:
    # kernel(rho) * sinh^2(rho) = P * rho^(-1/2-gamma) K_{3/2+gamma}(rho) sinh(rho)
    return 2.0 ** (gamma - 0.5) / (math.pi ** 1.5 * gamma_abs_neg(gamma))


def kernel_sinh2(gamma: float, rho):
    """kernel(rho) * sinh(rho)^2 at tau = 1, stable for arbitrarily large rho.

    This is the density against which every radial integral is taken; the
    exponential growth of sinh^2 exactly cancels the kernel's decay, leaving
    an algebraic rho^(-1-gamma) tail.  K_{3/2+gamma} comes from
    ``bessel_k_scaled``: Hankel's expansion from rho = 20 on, and below, the
    trapezoid rule, whose node tables of one gamma serve every call.  rho
    may be a numpy array (an empty array gives an empty array), and a scalar
    rho gives a float, by one formula.  rho must be finite and positive
    (``DomainError``).  This is the exact reference of the density: the
    radial integrals of ``operator`` read it from the jump-kernel table
    (``_kernel_sinh2_log``), within ``KERNEL_TABLE_REL`` of it, and the
    scale quadratures and ``invariance_integral`` call it directly.
    """
    gamma = order(gamma)
    batch = isinstance(rho, np.ndarray)
    rho = rho.astype(float, copy=False) if batch else positive(rho, "rho")
    if batch and not np.all((rho > 0.0) & (rho < math.inf)):
        raise DomainError("kernel_sinh2 requires finite rho > 0")
    # K(rho) sinh(rho) = K_scaled(rho) * (1 - exp(-2 rho)) / 2, no overflow;
    # 2 rho may overflow, where 1 - exp(-2 rho) is 1 all the same
    expm1 = np.expm1 if batch else math.expm1
    with np.errstate(over="ignore"):
        ksinh = bessel_k_scaled(1.5 + gamma, rho) * (-expm1(-2.0 * rho)) / 2.0
        out = _sinh2_prefactor(gamma) * rho ** (-0.5 - gamma) * ksinh
    return _finite(out, "kernel_sinh2")


# the jump-kernel table: Chebyshev points of degree _KT_GAMMA_DEG in gamma on
# [0, 1], and panels _KT_WIDTH wide in t = log rho from _KT_T0, degree
# _KT_T_DEG on each, up to the first panel end past rho = 400.  The span
# starts a panel below rho = 1e-3, where the radial integrals of ``operator``
# start
_KT_GAMMA_DEG = 14
_KT_T_DEG = 16
_KT_WIDTH = 0.25
_KT_T0 = math.log(1e-3) - _KT_WIDTH
_KT_PANELS = math.ceil((math.log(400.0) - _KT_T0) / _KT_WIDTH)
_KT_END = _KT_T0 + _KT_PANELS * _KT_WIDTH
# a bound on the table's relative error against kernel_sinh2, checked on a
# grid of gamma in [1e-6, 1 - 1e-9] by log rho over the whole span (worst
# measured: 1.6e-14, near the ends of the span)
KERNEL_TABLE_REL = 5e-14


# built on first use, not at import, like the Chebyshev matrices it reads
@lru_cache(maxsize=None)
def _kernel_table():
    """Chebyshev coefficients c[j, k, i] of L(gamma, t) =
    log(rho^(1+2 gamma) kernel_sinh2(gamma, rho) / P(gamma)) at rho = e^t,
    P = ``_sinh2_prefactor``: the coefficient of T_j(2 gamma - 1) T_k(x) on
    panel i, x in [-1, 1] across it.  L = (1/2 + gamma) t + log(K_{3/2+gamma}
    (rho) sinh rho) is the log of the smooth factor left by the singularity
    at 0, bounded there and growing like gamma t, and analytic in the order,
    so that its values at the ends gamma = 0 and 1, which kernel_sinh2
    refuses, come from ``bessel_k_scaled`` as well.  Read-only."""
    g_nodes, g_coef = _chebyshev_matrices(_KT_GAMMA_DEG)[:2]
    t_nodes, t_coef = _chebyshev_matrices(_KT_T_DEG)[:2]
    mid = _KT_T0 + _KT_WIDTH * (np.arange(_KT_PANELS) + 0.5)
    t = (mid[:, None] + 0.5 * _KT_WIDTH * t_nodes).ravel()
    rho = np.exp(t)
    half_sinh = -np.expm1(-2.0 * rho) / 2.0
    values = np.array([(0.5 + g) * t + np.log(bessel_k_scaled(1.5 + g, rho) * half_sinh)
                       for g in 0.5 * (g_nodes + 1.0)])
    # gamma, then t on each panel: (gamma coefficient, panel, t coefficient)
    coef = (g_coef @ values).reshape(-1, _KT_PANELS, t_nodes.size) @ t_coef.T
    coef = np.ascontiguousarray(coef.transpose(0, 2, 1))
    coef.flags.writeable = False
    return coef


@lru_cache(maxsize=8)
def _kernel_table_at(gamma: float):
    """The table's coefficients at one order, c[k, i] of T_k(x) on panel i
    (the gamma series summed for every (k, i) at once), and P(gamma).
    Read-only."""
    coef = _clenshaw(_kernel_table(), slice(None), 2.0 * gamma - 1.0)
    coef.flags.writeable = False
    return coef, _sinh2_prefactor(gamma)


def _kernel_sinh2_log(gamma: float, t):
    """kernel_sinh2(gamma, e^t) at every entry of the array t, from the
    jump-kernel table where t lies in its span: the panel
    floor((t - _KT_T0) / _KT_WIDTH), Clenshaw's sum there, and
    P exp(L - (1 + 2 gamma) t), within ``KERNEL_TABLE_REL`` of kernel_sinh2.
    Entries outside the span are kernel_sinh2's own values."""
    gamma = order(gamma)
    coef, pref = _kernel_table_at(gamma)
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    inside = (flat >= _KT_T0) & (flat <= _KT_END)
    out = np.empty(flat.shape)
    t_in = flat[inside]
    s = (t_in - _KT_T0) / _KT_WIDTH
    i = np.minimum(s.astype(np.intp), _KT_PANELS - 1)
    L = _clenshaw(coef, i, 2.0 * (s - i) - 1.0)
    out[inside] = pref * np.exp(L - (1.0 + 2.0 * gamma) * t_in)
    if not inside.all():
        out[~inside] = kernel_sinh2(gamma, np.exp(flat[~inside]))
    return out.reshape(t.shape)


# up to this rho, where the near maps send most nodes as gamma -> 1 and kernel_sinh2
# overflows, their integrands take their limits at 0, O(rho^2) away
_RHO_LIMIT = 1e-8


def _kernel_sinh2_regular(gamma: float, rho):
    """rho^(1+2 gamma) kernel_sinh2(gamma, rho) at every entry of the array
    rho >= 0: the smooth factor left by the rho^(-1-2 gamma) singularity at
    the origin, its limit at 0 up to ``_RHO_LIMIT``."""
    lead = _sinh2_prefactor(gamma) * math.gamma(1.5 + gamma) * 2.0 ** (0.5 + gamma)
    out = np.full(rho.shape, lead)
    big = rho > _RHO_LIMIT
    out[big] = kernel_sinh2(gamma, rho[big]) * rho[big] ** (1.0 + 2.0 * gamma)
    return out


def euclidean_limit_ratio(gamma: float, rho: float, tau: float) -> float:
    """kernel / (C(3,gamma) rho^(-3-2 gamma)); tends to 1 as tau -> infinity."""
    spec = KernelSpec(gamma=gamma, tau=tau)
    rho, gamma = positive(rho, "rho"), spec.gamma
    value = kernel_value(spec, rho)
    try:
        return _finite(value / (normalizing_constant(3, gamma) * rho ** (-3.0 - 2.0 * gamma)),
                       "euclidean_limit_ratio")
    except (OverflowError, ZeroDivisionError):
        raise NumericError(f"euclidean_limit_ratio: rho^(-3 - 2 gamma) out of range at "
                           f"rho={rho}") from None


def spectral_kernel(lam: float, t: float, rho: float) -> float:
    """Radial spectral kernel -(1/(4 pi^2)) (2/t) lam sin(lam rho)/sinh(2 rho/t),
    computed as -(1/(4 pi^2)) lam^2 sinc(lam rho) s / sinh(s) at s = 2 rho / t,
    free of 1/t, which overflows where t is tiny."""
    lam, t, rho = finite(lam, "lam"), positive(t, "t"), positive(rho, "rho")
    phase, s = lam * rho, 2.0 * rho / t
    if not math.isfinite(phase):
        raise NumericError(f"spectral_kernel: lam rho out of the float range at rho={rho}")
    sinc = math.sin(phase) / phase if phase else 1.0
    # s / sinh(s) is 1 where s underflows, and beyond s = 700, where sinh nears
    # overflow, 2 s exp(-s) to rounding (0 where s overflows)
    if s < 700.0:
        damp = s / math.sinh(s) if s else 1.0
    else:
        damp = 2.0 * s * math.exp(-s) if s < math.inf else 0.0
    return _finite(-lam * (lam * sinc) * damp / (4.0 * math.pi ** 2), "spectral_kernel")


def _one_minus_product(a: float, rho):
    """1 - sinc(a rho) rho / sinh(rho) at every entry of the array rho > 0, as (1 - sinc u)
    + sinc(u) (1 - rho / sinh rho), u = a rho, each term by its Taylor series below 1."""
    with np.errstate(over="ignore", invalid="ignore"):
        # sin(u) / u, and rho / sinh(rho) in a form that underflows gracefully;
        # u past the float range gives a nan, which the quadrature refuses
        u = a * rho
        sinc = np.sinc(u / math.pi)
        ros = 2.0 * rho * np.exp(-rho) / -np.expm1(-2.0 * rho)
        omc = np.where(np.abs(u) < 1.0, u * u / 6.0 * _taylor_rest(u * u, -1.0), 1.0 - sinc)
        oms = np.where(rho < 1.0, rho * rho / 6.0 * _taylor_rest(rho * rho, 1.0) * ros, 1.0 - ros)
    return omc + sinc * oms


def invariance_integral(
    lam: float,
    gamma: float,
    t: float = 2.0,
    cfg: QuadratureConfig = DEFAULT_QUAD,
) -> float:
    """The oscillation integral of the kernel against 1 - plane-wave average.

    Equals (lam^2 + 4/t^2)^gamma; lam = 0 is evaluated through the analytic
    limit of the integrand.  The near part over [0, 1] runs through
    ``alg_left`` with the rho^(1-2 gamma) factor, the far part through
    ``alg_tail`` with the rho^(-1-gamma) tail.  The integrand is nonnegative,
    which is asserted by its least value over the quadrature nodes.
    """
    gamma, t = order(gamma), positive(t, "t")
    a = 0.5 * lam * t
    try:
        scale = math.pi * 2.0 ** (2.0 + 2.0 * gamma) * t ** (-2.0 * gamma)
    except OverflowError:
        raise NumericError(f"invariance_integral overflows a float at t={t}") from None
    least = [0.0]

    def seen(v):
        least[0] = min(least[0], float(v.min(initial=0.0)))
        return scale * v

    def near(rho):
        # the integrand over rho^(1-2 gamma); (1 + a^2)/6 is the limit at 0
        # of (1 - product)/rho^2
        tiny = rho <= _RHO_LIMIT
        r = np.where(tiny, 1.0, rho)
        ratio = np.where(tiny, (1.0 + a * a) / 6.0, _one_minus_product(a, r) / (r * r))
        return seen(ratio * _kernel_sinh2_regular(gamma, rho))

    def far(rho):
        # the integrand over rho^(-1-gamma)
        return seen(_one_minus_product(a, rho) * kernel_sinh2(gamma, rho) * rho ** (1.0 + gamma))

    total = (alg_left(near, 0.0, 1.0, 1.0 - 2.0 * gamma, cfg, what="invariance integral near 0")
             + alg_tail(far, 1.0, gamma, cfg, what="invariance integral tail"))
    if least[0] < -1e-8:
        raise NumericError(
            f"invariance integrand went negative ({least[0]:.3e}) at a node"
        )
    return total
