"""Scale functions of the kernel: near-field second moment I0 and far-field
mass Iinf, in closed Bessel-product form and as direct quadratures, plus the
solver for the contact-scale radius r0.

All formulas are at tau = 1 (t = 2).  Closed forms and quadratures are kept
as two genuinely different evaluation routes and must agree to 1e-8.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, order, positive
from .geometry import aux_H
from .kernel import _kernel_sinh2_regular, gamma_abs_neg, kernel_sinh2
from .quadrature import QuadratureConfig, DEFAULT_QUAD, _regula_falsi, alg_left, alg_tail
from .specfun import bessel_i, bessel_k

__all__ = [
    "ScaleValues",
    "scale_values",
    "i0_closed",
    "iinf_closed",
    "i0_quadrature",
    "iinf_quadrature",
    "i_total_quadrature",
    "r0_solve",
    "MonotonicityReport",
    "monotonicity_report",
]


def i0_closed(R: float, gamma: float) -> float:
    """Near-field scale function, two-line Bessel-product closed form.

    K_(gamma + 3/2) is read off the other two K by their recurrence,
    K_(nu + 1) = K_(nu - 1) + (2 nu / R) K_nu (DLMF 10.29.1), whose terms
    are both positive; where it overflows so does the closed form."""
    R, gamma = positive(R, "R"), order(gamma)
    gan = gamma_abs_neg(gamma)
    i12 = bessel_i(0.5, R)
    i32 = bessel_i(1.5, R)
    i52 = bessel_i(2.5, R)
    k_mid = bessel_k(0.5 + gamma, R)
    k_lo = bessel_k(-0.5 + gamma, R)
    k_hi = k_lo + (1.0 + 2.0 * gamma) / R * k_mid
    if k_hi == math.inf:
        raise NumericError(f"i0_closed overflows a float at R={R}")
    c1 = 2.0 ** gamma / ((1.0 - gamma) * gan)
    c2 = c1 / (2.0 - gamma)
    return R ** (3.0 - gamma) * (
        c1 * (i12 * k_hi + i32 * k_mid) - c2 * (i32 * k_mid + i52 * k_lo)
    )


def iinf_closed(R: float, gamma: float) -> float:
    """Far-field scale function, closed form."""
    R, gamma = positive(R, "R"), order(gamma)
    gan = gamma_abs_neg(gamma)
    i12 = bessel_i(0.5, R)
    i32 = bessel_i(1.5, R)
    k_hi = bessel_k(1.5 + gamma, R)
    k_mid = bessel_k(0.5 + gamma, R)
    return (
        2.0 ** gamma / (gamma * gan)
        * R ** (3.0 - gamma)
        * (i12 * k_hi + i32 * k_mid)
    )


_FOUR_PI = 4.0 * math.pi

# Each quadrature integrates in the units of its result, 4 pi folded into the
# integrand, so that the tolerances apply to the returned value.


def _near(R: float, gamma: float, cfg: QuadratureConfig) -> float:
    # 4 pi * integral_0^min(R, 1) rho^2 kernel sinh^2, through the weight
    # rho^(1-2 gamma) of the singularity at the origin
    return alg_left(lambda rho: _FOUR_PI * _kernel_sinh2_regular(gamma, rho),
                    0.0, min(R, 1.0), 1.0 - 2.0 * gamma, cfg)


def _tail(R: float, a: float, gamma: float, cfg: QuadratureConfig) -> float:
    # 4 pi R^2 * integral_a^inf kernel sinh^2, through its rho^(-1-gamma) tail
    c = _FOUR_PI * R * R
    return alg_tail(lambda rho: c * rho ** (1.0 + gamma) * kernel_sinh2(gamma, rho),
                    a, gamma, cfg)


def i0_quadrature(R: float, gamma: float, cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
    """I0(R) = 4 pi * integral_0^R rho^2 kernel(rho) sinh^2(rho) d rho."""
    R, gamma = positive(R, "R"), order(gamma)
    total = _near(R, gamma, cfg)
    if R > 1.0:
        total += alg_left(lambda rho: _FOUR_PI * rho * rho * kernel_sinh2(gamma, rho),
                          1.0, R, 0.0, cfg)
    return total


def iinf_quadrature(R: float, gamma: float, cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Iinf(R) = 4 pi R^2 * integral_R^inf kernel(rho) sinh^2(rho) d rho."""
    R, gamma = positive(R, "R"), order(gamma)
    return _tail(R, R, gamma, cfg)


def i_total_quadrature(R: float, gamma: float) -> float:
    """I(R) = I0(R) + Iinf(R) as a single quadrature of min(rho, R)^2 kernel,
    at ``DEFAULT_QUAD``."""
    R, gamma = positive(R, "R"), order(gamma)
    hi = max(R, 1.0) + 1.0

    def mid(rho):
        return _FOUR_PI * np.minimum(rho, R) ** 2 * kernel_sinh2(gamma, rho)

    return (_near(R, gamma, DEFAULT_QUAD) + alg_left(mid, min(R, 1.0), hi, 0.0, points=[R])
            + _tail(R, hi, gamma, DEFAULT_QUAD))


@dataclass(frozen=True)
class ScaleValues:
    """Pair (I0, Iinf) at a radius; carries the far/near comparison invariant."""

    i0: float
    iinf: float
    R: float
    gamma: float

    def __post_init__(self):
        positive(self.i0, "I0")
        positive(self.iinf, "Iinf")
        bound = (1.0 - self.gamma) / self.gamma * aux_H(self.R) * self.i0
        if self.iinf > bound * (1.0 + 1e-10):
            raise DomainError(
                f"Iinf={self.iinf} exceeds ((1-gamma)/gamma) H(R) I0 = {bound}"
            )


def scale_values(R: float, gamma: float) -> ScaleValues:
    """Closed-form scale function pair at (R, gamma)."""
    return ScaleValues(i0_closed(R, gamma), iinf_closed(R, gamma), R, gamma)


# threshold below which the closed form is replaced by its flat-space
# power-law asymptote inside the r0 solver (Bessel factors overflow there
# at extreme gamma); relative model error is O(threshold^2)
_I0_SMALL_R = 1e-3


def _i0_normal(R: float, gamma: float) -> float:
    """i0_closed(R, gamma), which must be a normal float: r0_solve takes
    the logarithm of it and of its half."""
    value = i0_closed(R, gamma)
    if not sys.float_info.min <= value < math.inf:
        raise NumericError(f"r0_solve: I0({R}) = {value} is out of the float range")
    return value


def r0_solve(R: float, gamma: float, rho0: float = 0.25) -> float:
    """r0 = rho0 * x where I0(x) = I0(R)/2, by regula falsi on log x.

    I0 is strictly increasing, so the root is unique.  For gamma near 1 the
    root collapses by hundreds of orders of magnitude; the Illinois steps of
    ``quadrature._regula_falsi`` run on log x down to a bracket 1e-11 wide,
    with the closed form continued below 1e-3 by its flat-space slope.
    """
    R, gamma = positive(R, "R"), order(gamma)
    rho0 = float(rho0)
    if not 0.0 < rho0 < 1.0:
        raise DomainError("rho0 must lie in (0, 1)")
    target = math.log(_i0_normal(R, gamma) / 2.0)
    anchor_log, small_log = math.log(_i0_normal(_I0_SMALL_R, gamma)), math.log(_I0_SMALL_R)

    def f(log_x):
        if log_x >= small_log:
            return math.log(_i0_normal(math.exp(log_x), gamma)) - target
        # continuous continuation with the Euclidean slope 2 - 2 gamma
        return anchor_log + (2.0 - 2.0 * gamma) * (log_x - small_log) - target

    lo, hi = math.log(1e-300), math.log(R)
    if f(lo) > 0.0:
        raise NumericError("r0_solve: no root above the representable floor")
    x = math.exp(_regula_falsi(f, lo, hi, f(lo), f(hi), width=1e-11, what="r0_solve"))
    if not x < R:
        raise NumericError("r0_solve: root escaped (0, R)")
    return rho0 * x


@dataclass(frozen=True)
class MonotonicityReport:
    """Worst margins of the scale-function monotonicity laws on a grid.

    ``ratio_decreasing_margin_*`` are the minima over consecutive grid pairs
    of the previous-to-next differences of I0/R^(2-gamma) and I0/R^2;
    ``comparison_margin`` is the minimum of ((1-gamma)/gamma) H(R) I0 - Iinf.
    Nonnegative margins mean the laws hold everywhere on the grid.
    """

    gamma: float
    grid: tuple
    ratio_decreasing_margin_weighted: float
    ratio_decreasing_margin_quadratic: float
    comparison_margin: float

    @property
    def all_hold(self) -> bool:
        return (
            self.ratio_decreasing_margin_weighted >= 0.0
            and self.ratio_decreasing_margin_quadratic >= 0.0
            and self.comparison_margin >= 0.0
        )


def monotonicity_report(gamma: float, R_grid) -> MonotonicityReport:
    grid = [float(r) for r in R_grid]
    if len(grid) < 2 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("R_grid must be strictly increasing with >= 2 points")
    i0 = [i0_closed(r, gamma) for r in grid]
    iinf = [iinf_closed(r, gamma) for r in grid]
    weighted = [v / r ** (2.0 - gamma) for v, r in zip(i0, grid)]
    quadratic = [v / r ** 2 for v, r in zip(i0, grid)]
    m_w = min(a - b for a, b in zip(weighted, weighted[1:]))
    m_q = min(a - b for a, b in zip(quadratic, quadratic[1:]))
    m_c = min(
        (1.0 - gamma) / gamma * aux_H(r) * v0 - vi
        for r, v0, vi in zip(grid, i0, iinf)
    )
    return MonotonicityReport(gamma, tuple(grid), m_w, m_q, m_c)
