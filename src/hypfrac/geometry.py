"""Models of 3-dimensional hyperbolic space and their desk-scale geometry.

Two coordinate models are supported: the hyperboloid sheet
x0^2 - x1^2 - x2^2 - x3^2 = tau^2 (x0 > 0) with curvature -1/tau^2, and the
conformal ball of radius t.  The pair is tied by b/t = tau; the default
regime tau = t/2, b = t^2/2 makes the ball measure tend to Lebesgue measure
as the curvature vanishes.

Everything downstream works at tau = 1 (t = 2, b = 2) unless a different
``ModelParams`` is passed explicitly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, UnsupportedRangeError
from .quadrature import QuadratureConfig, DEFAULT_QUAD, alg_left

__all__ = [
    "ModelParams",
    "DEFAULT_MODEL",
    "HyperPoint",
    "BallPoint",
    "DyadicLadder",
    "to_ball",
    "from_ball",
    "distance",
    "ball_distance_to_origin",
    "law_of_cosines",
    "acosh1p",
    "ball_volume",
    "ball_volume_quadrature",
    "doubling_bounds",
    "aux_S",
    "aux_H",
    "aux_T",
    "dyadic_ladder",
    "tilde_radius",
    "ring_sector_volume",
]

# arccosh arguments in [1 - ACOSH_SLACK, 1] are clamped to 1; larger deficits
# are treated as caller errors rather than rounding noise
ACOSH_SLACK = 1e-12
# up to r + R0 = 350, cosh(d) - 1 (~e^350 / 2) and its square inside acosh1p
# stay finite in law_of_cosines
_MAX_SPAN = 350.0


@dataclass(frozen=True)
class ModelParams:
    """Curvature/ball parameters (tau, t, b) with b/t = tau."""

    tau: float = 1.0
    t: float = 2.0
    b: float = 2.0

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.tau, self.t, self.b)):
            raise DomainError("model parameters must be positive and finite")
        if abs(self.b / self.t - self.tau) > 1e-12 * self.tau:
            raise DomainError("model parameters must satisfy b/t = tau")

    @classmethod
    def from_tau(cls, tau: float) -> "ModelParams":
        """Default regime t = 2*tau, b = 2*tau^2."""
        return cls(tau=tau, t=2.0 * tau, b=2.0 * tau * tau)


DEFAULT_MODEL = ModelParams()


@dataclass(frozen=True)
class HyperPoint:
    """Point on the hyperboloid sheet, Lorentz coordinates (x0, x1, x2, x3)."""

    x0: float
    x1: float
    x2: float
    x3: float

    @property
    def coords(self) -> np.ndarray:
        return np.array([self.x0, self.x1, self.x2, self.x3])

    def lorentz_sq(self) -> float:
        return self.x0 * self.x0 - self.x1 * self.x1 - self.x2 * self.x2 - self.x3 * self.x3

    def validate(self, m: ModelParams = DEFAULT_MODEL):
        # the cancellation noise in x0^2 - |x'|^2 scales with x0^2, so the
        # 1e-12 relative check is taken against that scale, which must be finite
        tau2 = m.tau * m.tau
        scale = max(self.x0 * self.x0, tau2)
        if not (self.x0 > 0 and scale < math.inf
                and abs(self.lorentz_sq() - tau2) <= 1e-12 * scale):
            raise DomainError(f"point is not on the tau={m.tau} hyperboloid: {self}")


@dataclass(frozen=True)
class BallPoint:
    """Point of the conformal ball, Euclidean coordinates."""

    y: tuple

    def __init__(self, y):
        arr = np.asarray(y, dtype=float)
        if arr.shape != (3,):
            raise DomainError("BallPoint needs a 3-vector")
        if not np.isfinite(arr).all():
            raise DomainError("BallPoint coordinates must be finite")
        object.__setattr__(self, "y", tuple(arr.tolist()))

    @property
    def vec(self) -> np.ndarray:
        return np.array(self.y)

    def norm(self) -> float:
        return math.hypot(*self.y)

    def validate(self, m: ModelParams = DEFAULT_MODEL):
        if not self.norm() < m.t:
            raise DomainError(f"ball point must satisfy |y| < t = {m.t}")


def origin(m: ModelParams = DEFAULT_MODEL) -> HyperPoint:
    return HyperPoint(m.tau, 0.0, 0.0, 0.0)


def to_ball(p: HyperPoint, m: ModelParams = DEFAULT_MODEL) -> BallPoint:
    """Stereographic-type isometry hyperboloid -> ball."""
    p.validate(m)
    s = m.t / (m.tau + p.x0)
    return BallPoint((s * p.x1, s * p.x2, s * p.x3))


def from_ball(y: BallPoint, m: ModelParams = DEFAULT_MODEL) -> HyperPoint:
    """Inverse isometry ball -> hyperboloid."""
    y.validate(m)
    t2 = m.t * m.t
    n2 = sum(c * c for c in y.y)
    den = t2 - n2
    x0 = m.tau * (t2 + n2) / den
    s = 2.0 * m.tau * m.t / den
    return HyperPoint(x0, s * y.y[0], s * y.y[1], s * y.y[2])


def _acosh_clamped(arg: float, scale: float, what: str) -> float:
    if arg < 1.0:
        if arg < 1.0 - ACOSH_SLACK * max(1.0, scale):
            raise DomainError(f"{what}: arccosh argument {arg} below 1 beyond rounding slack")
        return 0.0
    return math.acosh(arg)


def distance(p: HyperPoint, q: HyperPoint, m: ModelParams = DEFAULT_MODEL) -> float:
    """Geodesic distance tau * arccosh([p,q]/tau^2)."""
    p.validate(m)
    q.validate(m)
    if p == q:
        return 0.0
    bracket = (p.x0 * q.x0 - p.x1 * q.x1 - p.x2 * q.x2 - p.x3 * q.x3) / m.tau ** 2
    scale = p.x0 * q.x0 / m.tau ** 2
    return m.tau * _acosh_clamped(bracket, scale, "distance")


def ball_distance_to_origin(y: BallPoint, m: ModelParams = DEFAULT_MODEL) -> float:
    """tau * log((t+|y|)/(t-|y|))."""
    y.validate(m)
    n = y.norm()
    return m.tau * math.log((m.t + n) / (m.t - n))


def acosh1p(x):
    """arccosh(1 + x) for x >= 0 (floats or numpy arrays), accurate where
    arccosh of a rounded argument near 1 loses small distances."""
    return np.log1p(x + np.sqrt(x * (2.0 + x)))


def law_of_cosines(r: float, R0: float, omega1: float):
    """Distances to a base point from the two antipodal points at geodesic
    polar coordinates (r, omega) around a center at distance R0 from the base.

    Returns (d_minus, d_plus) = (arccosh(A - B), arccosh(A + B)) with
    A = cosh r cosh R0 and B = sinh r sinh R0 omega1, evaluated through the
    cancellation-free rearrangement cosh(r -+ R0) + (1 -+ omega1) sinh r sinh R0.
    """
    if not (0.0 <= r < math.inf and 0.0 <= R0 < math.inf):
        raise DomainError("law_of_cosines requires finite r, R0 >= 0")
    if not abs(omega1) <= 1.0 + 1e-12:
        raise DomainError("omega1 must lie in [-1, 1]")
    if r + R0 > _MAX_SPAN:
        raise UnsupportedRangeError(f"law_of_cosines requires r + R0 <= {_MAX_SPAN:g}")
    omega1 = min(1.0, max(-1.0, omega1))
    if r == 0.0:
        return R0, R0
    if R0 == 0.0:
        return r, r
    if max(r, R0) < 1e-6:
        # Euclidean regime: the acosh route cannot resolve these scales, the
        # flat law of cosines is exact to relative O((r + R0)^2)
        cross = 2.0 * r * R0 * omega1
        return (
            math.sqrt(max(r * r + R0 * R0 - cross, 0.0)),
            math.sqrt(r * r + R0 * R0 + cross),
        )
    s = math.sinh(r) * math.sinh(R0)
    # cosh(d) - 1 = cosh(r - R0) - 1 + (1 -+ omega1) s, with cosh(r - R0) - 1
    # written as 2 sinh^2((r - R0)/2) so that no cancellation occurs
    base = 2.0 * math.sinh(0.5 * (r - R0)) ** 2
    return (float(acosh1p(base + (1.0 - omega1) * s)),
            float(acosh1p(base + (1.0 + omega1) * s)))


def ball_volume(r: float) -> float:
    """Volume of the geodesic ball of radius r at tau = 1:
    pi * (sinh 2r - 2r)."""
    if not 0.0 <= r < math.inf:
        raise DomainError("ball_volume requires finite r >= 0")
    x = 2.0 * r
    if x > 709.0:
        raise UnsupportedRangeError("ball_volume overflows beyond r = 354.5")
    if x == 0.0:
        return 0.0
    if x < 0.5:
        # sinh x - x by series, avoiding cancellation for small radii
        term = x ** 3 / 6.0
        total = 0.0
        k = 1
        while True:
            total += term
            term *= x * x / ((2 * k + 2) * (2 * k + 3))
            k += 1
            if term <= 1e-20 * total:
                break
        return math.pi * total
    return math.pi * (math.sinh(x) - x)


def ball_volume_quadrature(r: float, cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
    """|B_r| = 4 pi * integral of sinh^2 over (0, r); cross-check route."""
    if r < 0.0:
        raise DomainError("ball_volume requires r >= 0")
    if r == 0.0:
        return 0.0
    return alg_left(lambda s: 4.0 * math.pi * np.sinh(s) ** 2, 0.0, r, 0.0, cfg)


def doubling_bounds(r: float, R: float):
    """Volume-doubling sandwich ((R/r)^3, D*(R/r)^log2(D)), D = 8 cosh^2(2R)."""
    if not 0.0 < r <= R:
        raise DomainError("doubling_bounds requires 0 < r <= R")
    d = 8.0 * math.cosh(2.0 * R) ** 2
    ratio = R / r
    return ratio ** 3, d * ratio ** math.log2(d)


def aux_S(t: float) -> float:
    """sinh(t)/t, continuously extended by S(0) = 1."""
    t = abs(t)
    if t < 1e-4:
        return 1.0 + t * t / 6.0 * (1.0 + t * t / 20.0)
    return math.sinh(t) / t


def aux_H(t: float) -> float:
    """t*coth(t), continuously extended by H(0) = 1."""
    t = abs(t)
    if t < 1e-4:
        return 1.0 + t * t / 3.0 - t ** 4 / 45.0
    return t / math.tanh(t)


def aux_T(t: float) -> float:
    """t / arctanh(tanh(t)/2), continuously extended by T(0) = 2."""
    t = abs(t)
    if t < 1e-4:
        return 2.0 + t * t / 2.0
    return t / math.atanh(0.5 * math.tanh(t))


def tilde_radius(r: float) -> float:
    """arctanh(tanh(r)/2); satisfies r = aux_T(r) * tilde_radius(r)."""
    if r <= 0.0:
        raise DomainError("tilde_radius requires r > 0")
    return math.atanh(0.5 * math.tanh(r))


@dataclass(frozen=True)
class DyadicLadder:
    """Radii of nested balls whose volumes shrink by 2^-3 per level."""

    radii: tuple

    def __post_init__(self):
        if len(self.radii) < 2:
            raise DomainError("a ladder needs at least two radii")
        for a, b in zip(self.radii, self.radii[1:]):
            if not 0.0 < b < a:
                raise DomainError("ladder radii must be positive and decreasing")

    def volume_ratios(self):
        vols = [ball_volume(r) for r in self.radii]
        return [vols[i + 1] / vols[i] for i in range(len(vols) - 1)]

    def radius_ratios(self):
        return [b / a for a, b in zip(self.radii, self.radii[1:])]


def dyadic_ladder(r0: float, K: int) -> DyadicLadder:
    """Solve |B_{r_k}| = |B_{r_{k-1}}| / 8 recursively, K levels below r0.

    Bisection on the guaranteed bracket [r_{k-1}/2, r_{k-1}]: the lower end
    satisfies |B_{r/2}| <= |B_r|/8 by the volume-doubling lower bound.
    """
    if r0 <= 0.0:
        raise DomainError("dyadic_ladder requires r0 > 0")
    if K < 1:
        raise DomainError("dyadic_ladder requires K >= 1")
    radii = [float(r0)]
    for _ in range(K):
        prev = radii[-1]
        target = ball_volume(prev) / 8.0
        lo, hi = 0.5 * prev, prev
        flo = ball_volume(lo) - target
        if flo > 0.0:
            raise NumericError(
                f"dyadic_ladder: bracket failed at r={prev} (f(lo)={flo})"
            )
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = ball_volume(mid) - target
            if fm == 0.0:
                lo = hi = mid
                break
            if fm < 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-15 * hi:
                break
        else:
            raise NumericError(f"dyadic_ladder: bisection stalled at r={prev}")
        nxt = 0.5 * (lo + hi)
        if nxt < 0.5 * prev:
            raise NumericError("dyadic_ladder: solution escaped its bracket")
        radii.append(nxt)
    return DyadicLadder(tuple(radii))


def ring_sector_volume(
    r_in: float,
    r_out: float,
    omega1_min: float,
    cfg: QuadratureConfig = DEFAULT_QUAD,
) -> float:
    """Volume of the part of the ring B_{r_out} \\ B_{r_in} whose polar cosine
    against a fixed axis exceeds omega1_min, computed in ball coordinates.

    The sector spans solid angle 2*pi*(1 - omega1_min); the radial factor is
    the unit-ball density (2/(1-rho^2))^3 rho^2 with rho = tanh(r/2).
    """
    if not 0.0 < r_in < r_out:
        raise DomainError("ring_sector_volume requires 0 < r_in < r_out")
    if not -1.0 <= omega1_min <= 1.0:
        raise DomainError("omega1_min must lie in [-1, 1]")
    if not math.tanh(0.5 * r_out) < 1.0:
        raise UnsupportedRangeError("ring_sector_volume: tanh(r_out / 2) rounds to 1")
    solid = 2.0 * math.pi * (1.0 - omega1_min)

    def density(rho):
        return solid * (2.0 / (1.0 - rho * rho)) ** 3 * rho * rho

    return alg_left(density, math.tanh(0.5 * r_in), math.tanh(0.5 * r_out), 0.0, cfg)
