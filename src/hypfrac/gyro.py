"""Mobius gyrogroup algebra on the conformal ball, plane-wave eigenfunctions,
and the sphere-averaged identities they satisfy.

Elements hold their coordinates as a tuple of Python floats, and the group
operations compute on those floats in unit-ball coordinates x/t, so that no
ball radius t, however tiny or huge, under- or overflows t^2 or t^4.
Gyration has Ungar's closed form for Mobius gyrovector spaces: with
u = a/t, v = b/t, w = z/t,

    gyr[a,b]z = z + 2 (A a + B b) / D,
    A = -(u.w)|v|^2 + (v.w) + 2 (u.v)(v.w),   B = -(v.w)|u|^2 - (u.w),
    D = 1 + 2 u.v + |u|^2 |v|^2,

which the tests check against its compositional definition
(-(a (+) b)) (+) (a (+) (b (+) z)).  Clifford products are never formed; the
only Clifford quantity needed is the real norm |1 + conj(z) y / t^2|^2, which
has the closed form (1 + <z,y>/t^2)^2 + (|z|^2 |y|^2 - <z,y>^2)/t^4.

Complex powers always have a strictly positive real base for interior points;
this is asserted at runtime.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from .geometry import BallPoint, ModelParams, DEFAULT_MODEL
from .quadrature import QuadratureConfig, DEFAULT_QUAD, integrate

__all__ = [
    "GyroElement",
    "EigenParams",
    "mobius_add",
    "neg",
    "gyration",
    "coadd",
    "cosub",
    "cosub_compositional",
    "CancellationResult",
    "cancellation_check",
    "clifford_norm_sq",
    "boxminus_jacobian",
    "measure_factor",
    "eigenfunction",
    "e_factor",
    "transport_prefactor",
    "sphere_integral_E",
    "sphere_integral_E_reference",
]

# |log(base)| of a finite positive double is below 745, so the plane-wave
# phase (lam t / 2) log(base) stays finite while |lam t / 2| <= 1e300
_MAX_HALF_PHASE = 1e300


def _radius(t) -> float:
    t = float(t)
    if not 0.0 < t < math.inf:
        raise DomainError("ball radius t must be finite and positive")
    return t


def _direction(xi) -> np.ndarray:
    arr = np.asarray(xi, dtype=float)
    if arr.shape != (3,):
        raise DomainError("xi must be a 3-vector direction")
    if not abs(math.hypot(*arr.tolist()) - 1.0) <= 1e-14:
        raise DomainError("xi must be a unit vector (within 1e-14)")
    return arr


def _exponent(half_phase: float) -> complex:
    """1 + i half_phase, the exponent of the plane-wave power."""
    if not abs(half_phase) <= _MAX_HALF_PHASE:
        raise DomainError("lam * t out of range for the plane-wave phase")
    return complex(1.0, half_phase)


def _unit_ball(y, t: float, what: str) -> np.ndarray:
    """y / t for points y of shape (..., 3); the caller checks |y / t| < 1.

    Each |y_i| < t is checked first, so that neither y / t nor a square of it
    can overflow.
    """
    arr = np.asarray(y, dtype=float)
    if not (abs(arr) < t).all():
        raise DomainError(f"{what} requires interior points")
    return arr / t


@dataclass(frozen=True, eq=False)
class GyroElement:
    """Vector y strictly inside the ball of radius t."""

    y: tuple
    t: float

    def __init__(self, y, t):
        arr = np.asarray(y, dtype=float)
        if arr.shape != (3,):
            raise DomainError("GyroElement needs a 3-vector")
        self._set(tuple(arr.tolist()), _radius(t))

    def _set(self, y: tuple, t: float) -> "GyroElement":
        if not math.hypot(*y) < t:
            raise DomainError("GyroElement must lie strictly inside the ball")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "t", t)
        return self

    @property
    def vec(self) -> np.ndarray:
        return np.array(self.y)

    def norm(self) -> float:
        return math.hypot(*self.y)


def _element(y: tuple, t: float) -> GyroElement:
    """A GyroElement from a tuple of three floats and an already checked t."""
    return object.__new__(GyroElement)._set(y, t)


@dataclass(frozen=True, eq=False)
class EigenParams:
    """Spectral parameter, boundary direction and ball radius of a plane wave."""

    lam: float
    xi: tuple
    t: float

    def __init__(self, lam, xi, t):
        lam = float(lam)
        if not math.isfinite(lam):
            raise DomainError("spectral parameter lam must be finite")
        xi = tuple(_direction(xi).tolist())
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "t", _radius(t))
        object.__setattr__(self, "_xi", np.array(xi))  # broadcast by eigenfunction


def _same_t(a: GyroElement, b: GyroElement):
    if a.t != b.t:
        raise DomainError("gyro operands must share the same ball radius t")


def _positive(den: float, what: str) -> float:
    if not den > 0.0:
        raise DomainError(f"{what} reaches the boundary of the ball in floating point")
    return den


def _unit(a: GyroElement) -> tuple:
    """The unit-ball coordinates a / t."""
    t = a.t
    y0, y1, y2 = a.y
    return y0 / t, y1 / t, y2 / t


def mobius_add(a: GyroElement, b: GyroElement) -> GyroElement:
    """Mobius addition a (+) b on the ball."""
    _same_t(a, b)
    t = a.t
    u0, u1, u2 = _unit(a)
    v0, v1, v2 = _unit(b)
    uv = u0 * v0 + u1 * v1 + u2 * v2
    uu = u0 * u0 + u1 * u1 + u2 * u2
    vv = v0 * v0 + v1 * v1 + v2 * v2
    den = _positive(1.0 + 2.0 * uv + uu * vv, "mobius_add")
    p = 1.0 + 2.0 * uv + vv
    q = 1.0 - uu
    return _element((t * (p * u0 + q * v0) / den, t * (p * u1 + q * v1) / den,
                     t * (p * u2 + q * v2) / den), t)


def neg(a: GyroElement) -> GyroElement:
    y0, y1, y2 = a.y
    return _element((-y0, -y1, -y2), a.t)


def mobius_sub(a: GyroElement, b: GyroElement) -> GyroElement:
    return mobius_add(a, neg(b))


def gyration(a: GyroElement, b: GyroElement, z: GyroElement) -> GyroElement:
    """gyr[a,b]z, a rotation fixing 0, in Ungar's closed form (module docstring)."""
    _same_t(a, b)
    _same_t(a, z)
    t = a.t
    u0, u1, u2 = _unit(a)
    v0, v1, v2 = _unit(b)
    w0, w1, w2 = _unit(z)
    uv = u0 * v0 + u1 * v1 + u2 * v2
    uw = u0 * w0 + u1 * w1 + u2 * w2
    vw = v0 * w0 + v1 * w1 + v2 * w2
    uu = u0 * u0 + u1 * u1 + u2 * u2
    vv = v0 * v0 + v1 * v1 + v2 * v2
    k = 2.0 / _positive(1.0 + 2.0 * uv + uu * vv, "gyration")
    A = k * (vw - uw * vv + 2.0 * uv * vw)
    B = -k * (uw + vw * uu)
    return _element((t * (w0 + A * u0 + B * v0), t * (w1 + A * u1 + B * v1),
                     t * (w2 + A * u2 + B * v2)), t)


def coadd(a: GyroElement, b: GyroElement) -> GyroElement:
    """Coaddition a [+] b = a (+) gyr[a, -b] b."""
    _same_t(a, b)
    return mobius_add(a, gyration(a, neg(b), b))


def cosub(a: GyroElement, b: GyroElement) -> GyroElement:
    """Cosubtraction a [-] b, rational closed form."""
    _same_t(a, b)
    t = a.t
    u0, u1, u2 = _unit(a)
    v0, v1, v2 = _unit(b)
    uu = u0 * u0 + u1 * u1 + u2 * u2
    vv = v0 * v0 + v1 * v1 + v2 * v2
    den = _positive(1.0 - uu * vv, "cosub")
    p = 1.0 - vv
    q = 1.0 - uu
    return _element((t * (p * u0 - q * v0) / den, t * (p * u1 - q * v1) / den,
                     t * (p * u2 - q * v2) / den), t)


def cosub_compositional(a: GyroElement, b: GyroElement) -> GyroElement:
    """a [-] b through the defining composition a (-) gyr[a,b]b."""
    _same_t(a, b)
    return mobius_sub(a, gyration(a, b, b))


class CancellationResult:
    """Residuals of the two gyrogroup cancellation laws."""

    def __init__(self, ok, left_residual, right_residual):
        self.ok = bool(ok)
        self.left_residual = left_residual
        self.right_residual = right_residual

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return (
            f"CancellationResult(ok={self.ok}, left={self.left_residual:.3e}, "
            f"right={self.right_residual:.3e})"
        )


def cancellation_check(a: GyroElement, b: GyroElement, tol: float = 1e-12) -> CancellationResult:
    """Check a (+) ((-a) (+) b) = b and (b [-] a) (+) a = b."""
    _same_t(a, b)
    left = mobius_add(a, mobius_add(neg(a), b))
    right = mobius_add(cosub(b, a), a)
    r1 = math.dist(left.y, b.y)
    r2 = math.dist(right.y, b.y)
    return CancellationResult(max(r1, r2) <= tol, r1, r2)


def _clifford_unit(dot, nz, ny):
    """|1 + conj(z) y|^2 from <z,y>, |z|^2 and |y|^2 of unit-ball coordinates."""
    return (1.0 + dot) ** 2 + np.maximum(nz * ny - dot * dot, 0.0)


def clifford_norm_sq(z, y, t: float):
    """|1 + conj(z) y / t^2|^2 for vectors z, y (broadcasting over leading axes)."""
    t = _radius(t)
    z = np.asarray(z, dtype=float) / t
    y = np.asarray(y, dtype=float) / t
    return _clifford_unit(np.vecdot(z, y), np.vecdot(z, z), np.vecdot(y, y))


def _unit_pair(z: GyroElement, y: GyroElement):
    """1 - |z|^2 |y|^2 / t^4, 1 - |y|^2 / t^2 and clifford_norm_sq(z, y, t)."""
    _same_t(z, y)
    zu, yu = _unit(z), _unit(y)
    dot = sum(p * q for p, q in zip(zu, yu))
    nz = sum(c * c for c in zu)
    ny = sum(c * c for c in yu)
    return _positive(1.0 - nz * ny, "z [-] y"), 1.0 - ny, float(_clifford_unit(dot, nz, ny))


def boxminus_jacobian(z: GyroElement, y: GyroElement) -> float:
    """Jacobian determinant of w -> w [-] y at w = z (n = 3)."""
    a, b, cl = _unit_pair(z, y)
    return a ** (-4.0) * b ** 3 * cl


def measure_factor(z: GyroElement, y: GyroElement) -> float:
    """Density of the ball measure pulled back through z -> z [-] y (n = 3)."""
    a, _, cl = _unit_pair(z, y)
    return (a / cl) ** 2


def eigenfunction(ep: EigenParams, y) -> complex:
    """Plane-wave eigenfunction ((t^2-|y|^2)/|t xi - y|^2)^((2 + i lam t)/2).

    Accepts a BallPoint or an array of shape (..., 3); broadcasts in the
    latter case.
    """
    t = ep.t
    w = _unit_ball(y.vec if isinstance(y, BallPoint) else y, t, "eigenfunction")
    nw = np.vecdot(w, w)
    diff = ep._xi - w
    den = np.vecdot(diff, diff)
    interior = nw < 1.0
    if not (interior & (den > 0.0)).all():
        if not interior.all():
            raise DomainError("eigenfunction requires |y| < t")
        raise NumericError("eigenfunction base left the positive axis")
    out = np.exp(_exponent(0.5 * ep.lam * t) * np.log((1.0 - nw) / den))
    if out.ndim == 0:
        return complex(out)
    return out


def _e_parts(lam: float, xi, y, z, t: float):
    t = _radius(t)
    xi = _direction(xi)
    y = _unit_ball(y, t, "e_factor")
    z = _unit_ball(z, t, "e_factor")
    ny = np.vecdot(y, y)
    nz = np.vecdot(z, z)
    if not ((ny < 1.0) & (nz < 1.0)).all():
        raise DomainError("e_factor requires interior points")
    a = 1.0 - nz * ny
    b = 1.0 - ny
    c = 1.0 - nz
    cl = _clifford_unit(np.vecdot(z, y), nz, ny)
    diff = xi - z
    vec = a[..., None] * xi - b[..., None] * z + c[..., None] * y
    num = np.vecdot(diff, diff) * b * cl
    den = np.vecdot(vec, vec)
    if not ((num > 0.0) & (den > 0.0)).all():
        raise NumericError("e_factor base left the positive axis")
    return num / den, a, cl, _exponent(-0.5 * float(lam) * t)


def transport_prefactor(lam: float, xi, y, z, t: float):
    """The factor carrying e_{-lam,xi;t}(z) to e_{-lam,xi;t}(z [-] y)."""
    base, _, _, expo = _e_parts(lam, xi, y, z, t)
    return np.exp(expo * np.log(base))


def e_factor(lam: float, xi, y, z, t: float):
    """Transport prefactor times the pulled-back measure density (n = 3)."""
    base, a, cl, expo = _e_parts(lam, xi, y, z, t)
    out = np.exp(expo * np.log(base)) * (a / cl) ** 2
    if out.ndim == 0:
        return complex(out)
    return out


def sphere_integral_E(
    lam: float,
    r: float,
    z: BallPoint,
    m: ModelParams = DEFAULT_MODEL,
    cfg: QuadratureConfig = DEFAULT_QUAD,
    xi=(1.0, 0.0, 0.0),
) -> complex:
    """Integral of E(lam, xi, r*omega, z) over the unit sphere of directions.

    Two nested ``quadrature.integrate`` calls at ``cfg``: the outer integral
    runs over the polar cosine c in [-1, 1], one owner for the real part and
    one for the imaginary part, and each batch of outer nodes integrates the
    azimuth in [0, 2 pi] at once, one owner per outer node.  The result is
    independent of xi and z; its imaginary part vanishes analytically.
    """
    t = m.t
    if not 0.0 < r < t:
        raise DomainError("sphere_integral_E requires 0 < r < t")
    z.validate(m)
    xi = np.asarray(xi, dtype=float)
    norm = math.hypot(*xi.tolist()) if xi.shape == (3,) else math.nan
    if not 0.0 < norm < math.inf:
        raise DomainError("xi must be a nonzero finite 3-vector")
    xi = xi / norm
    zv = z.vec

    def polar(c, own):
        # one initial panel per owner: panel 0 is the real part, panel 1 the imaginary
        shape = c.shape
        imag = np.repeat(own == 1, shape[1])
        c = c.ravel()
        s = r * np.sqrt(np.maximum(1.0 - c * c, 0.0))

        def azimuth(theta, node):
            y = np.stack([np.broadcast_to(r * c[node, None], theta.shape),
                          s[node, None] * np.cos(theta), s[node, None] * np.sin(theta)], -1)
            e = e_factor(lam, xi, y, zv, t)
            return np.where(imag[node, None], e.imag, e.real)

        n = c.size
        val, _ = integrate(azimuth, np.zeros(n), np.full(n, 2.0 * math.pi), np.arange(n), n, cfg,
                           "sphere integral, azimuth")
        return val.reshape(shape)

    val, _ = integrate(polar, [-1.0, -1.0], [1.0, 1.0], [0, 1], 2, cfg,
                       "sphere integral, polar cosine")
    return complex(val[0], val[1])


def sphere_integral_E_reference(lam: float, r: float, m: ModelParams = DEFAULT_MODEL) -> float:
    """Closed form of the sphere integral: (4 pi / (lam t)) (t/r - r/t) sin(lam d)
    with d the ball distance of r*omega to the center; lam = 0 by its limit."""
    t = m.t
    if not 0.0 < r < t:
        raise DomainError("sphere_integral_E_reference requires 0 < r < t")
    d = m.tau * math.log((t + r) / (t - r))
    geom = t / r - r / t
    if lam == 0.0:
        return 4.0 * math.pi * geom * d / t
    return 4.0 * math.pi / (lam * t) * geom * math.sin(lam * d)
