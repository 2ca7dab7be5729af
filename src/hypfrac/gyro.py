"""Mobius gyrogroup algebra on the conformal ball, plane-wave eigenfunctions,
and the sphere-averaged identities they satisfy.

A GyroElement is a slotted immutable value: a tuple of three Python floats
and its ball radius.  Each group operation is one straight-line float formula
in unit-ball coordinates x/t, so that no ball radius t, however tiny or huge,
under- or overflows t^2 or t^4.
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

The plane-wave functions (``eigenfunction``, ``transport_prefactor``,
``e_factor``) take one point, a BallPoint or a 3-vector, or a batch of shape
(..., 3).  Their formulas are written once, component by component: a point
runs them on three Python floats, a batch on the three component arrays, and
only the unpacking, the all-checks and the final exp differ.  Both forms take
numpy's log: ``math.log`` rounds differently at some arguments, and the phase
(lam t / 2) log(base) would magnify that one ulp without bound.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, finite, positive
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
_FLOAT = np.dtype(float)


def _direction(xi) -> list:
    arr = np.asarray(xi, dtype=float)
    if arr.shape != (3,):
        raise DomainError("xi must be a 3-vector direction")
    xi = arr.tolist()
    if not abs(math.hypot(*xi) - 1.0) <= 1e-14:
        raise DomainError("xi must be a unit vector (within 1e-14)")
    return xi


def _exponent(half_phase: float) -> complex:
    """1 + i half_phase, the exponent of the plane-wave power."""
    if not abs(half_phase) <= _MAX_HALF_PHASE:
        raise DomainError("lam * t out of range for the plane-wave phase")
    return complex(1.0, half_phase)


def _all(cond) -> bool:
    """A check on one point (a bool) or on a batch (an array of bools)."""
    return cond.all() if isinstance(cond, np.ndarray) else cond


def _unit_ball(y, t: float, what: str) -> tuple:
    """The components of y / t: three floats for one point (a BallPoint or a
    3-vector), three arrays for a batch of shape (..., 3).  The caller
    checks |y / t| < 1.

    Each |y_i| < t is checked first, so that neither y / t nor a square of it
    can overflow.
    """
    if type(y) is np.ndarray and y.shape == (3,) and y.dtype == _FLOAT:
        y0, y1, y2 = y.tolist()
    elif isinstance(y, BallPoint):
        y0, y1, y2 = y.y
    else:
        arr = np.asarray(y, dtype=float)
        if arr.ndim == 0 or arr.shape[-1] != 3:
            raise DomainError(f"{what} needs points of shape (..., 3)")
        y0, y1, y2 = arr.tolist() if arr.ndim == 1 else (arr[..., 0], arr[..., 1], arr[..., 2])
    if not _all((abs(y0) < t) & (abs(y1) < t) & (abs(y2) < t)):
        raise DomainError(f"{what} requires interior points")
    return y0 / t, y1 / t, y2 / t


def _power(base, expo: complex, what: str):
    """base ** expo for a positive finite base: a complex for one point, a
    complex array for a batch."""
    if not _all((base > 0.0) & (base < math.inf)):
        raise NumericError(f"{what} base left the positive axis")
    log = np.log(base)
    if isinstance(base, np.ndarray):
        return np.exp(expo * log)
    return cmath.exp(expo * log)


class GyroElement:
    """Vector y strictly inside the ball of radius t: an immutable value whose
    equality and hash are its identity."""

    __slots__ = ("y", "t")

    def __init__(self, y, t):
        if not (type(y) is np.ndarray and y.shape == (3,) and y.dtype == _FLOAT):
            y = np.asarray(y, dtype=float)
            if y.shape != (3,):
                raise DomainError("GyroElement needs a 3-vector")
        _fill(self, tuple(y.tolist()), positive(t, "t"))

    def __setattr__(self, name, value):
        raise AttributeError(f"GyroElement is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GyroElement is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, since setattr is refused
        return GyroElement, (self.y, self.t)

    def __repr__(self):
        return f"GyroElement(y={self.y!r}, t={self.t!r})"

    @property
    def vec(self) -> np.ndarray:
        return np.array(self.y)

    def norm(self) -> float:
        return math.hypot(*self.y)


_new = object.__new__
_set_y = GyroElement.y.__set__
_set_t = GyroElement.t.__set__


def _fill(e: GyroElement, y: tuple, t: float) -> GyroElement:
    """Set e's slots to a tuple of three floats and an already checked t;
    the one constructor path of GyroElement."""
    if not math.hypot(*y) < t:
        raise DomainError("GyroElement must lie strictly inside the ball")
    _set_y(e, y)
    _set_t(e, t)
    return e


@dataclass(frozen=True, eq=False)
class EigenParams:
    """Spectral parameter, boundary direction and ball radius of a plane wave."""

    lam: float
    xi: tuple
    t: float

    def __init__(self, lam, xi, t):
        lam = finite(lam, "lam")
        xi = tuple(_direction(xi))
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "t", positive(t, "t"))


_SAME_T = "gyro operands must share the same ball radius t"


def mobius_add(a: GyroElement, b: GyroElement) -> GyroElement:
    """Mobius addition a (+) b on the ball."""
    t = a.t
    if b.t != t:
        raise DomainError(_SAME_T)
    y0, y1, y2 = a.y
    u0, u1, u2 = y0 / t, y1 / t, y2 / t
    y0, y1, y2 = b.y
    v0, v1, v2 = y0 / t, y1 / t, y2 / t
    uv = u0 * v0 + u1 * v1 + u2 * v2
    uu = u0 * u0 + u1 * u1 + u2 * u2
    vv = v0 * v0 + v1 * v1 + v2 * v2
    den = 1.0 + 2.0 * uv + uu * vv
    if not den > 0.0:
        raise DomainError("mobius_add reaches the boundary of the ball in floating point")
    p = 1.0 + 2.0 * uv + vv
    q = 1.0 - uu
    return _fill(_new(GyroElement), (t * (p * u0 + q * v0) / den, t * (p * u1 + q * v1) / den,
                                     t * (p * u2 + q * v2) / den), t)


def neg(a: GyroElement) -> GyroElement:
    y0, y1, y2 = a.y
    return _fill(_new(GyroElement), (-y0, -y1, -y2), a.t)


def mobius_sub(a: GyroElement, b: GyroElement) -> GyroElement:
    return mobius_add(a, neg(b))


def gyration(a: GyroElement, b: GyroElement, z: GyroElement) -> GyroElement:
    """gyr[a,b]z, a rotation fixing 0, in Ungar's closed form (module docstring)."""
    t = a.t
    if b.t != t or z.t != t:
        raise DomainError(_SAME_T)
    y0, y1, y2 = a.y
    u0, u1, u2 = y0 / t, y1 / t, y2 / t
    y0, y1, y2 = b.y
    v0, v1, v2 = y0 / t, y1 / t, y2 / t
    y0, y1, y2 = z.y
    w0, w1, w2 = y0 / t, y1 / t, y2 / t
    uv = u0 * v0 + u1 * v1 + u2 * v2
    uw = u0 * w0 + u1 * w1 + u2 * w2
    vw = v0 * w0 + v1 * w1 + v2 * w2
    uu = u0 * u0 + u1 * u1 + u2 * u2
    vv = v0 * v0 + v1 * v1 + v2 * v2
    den = 1.0 + 2.0 * uv + uu * vv
    if not den > 0.0:
        raise DomainError("gyration reaches the boundary of the ball in floating point")
    k = 2.0 / den
    A = k * (vw - uw * vv + 2.0 * uv * vw)
    B = -k * (uw + vw * uu)
    return _fill(_new(GyroElement), (t * (w0 + A * u0 + B * v0), t * (w1 + A * u1 + B * v1),
                                     t * (w2 + A * u2 + B * v2)), t)


def coadd(a: GyroElement, b: GyroElement) -> GyroElement:
    """Coaddition a [+] b = a (+) gyr[a, -b] b."""
    if a.t != b.t:
        raise DomainError(_SAME_T)
    return mobius_add(a, gyration(a, neg(b), b))


def cosub(a: GyroElement, b: GyroElement) -> GyroElement:
    """Cosubtraction a [-] b, rational closed form."""
    t = a.t
    if b.t != t:
        raise DomainError(_SAME_T)
    y0, y1, y2 = a.y
    u0, u1, u2 = y0 / t, y1 / t, y2 / t
    y0, y1, y2 = b.y
    v0, v1, v2 = y0 / t, y1 / t, y2 / t
    uu = u0 * u0 + u1 * u1 + u2 * u2
    vv = v0 * v0 + v1 * v1 + v2 * v2
    den = 1.0 - uu * vv
    if not den > 0.0:
        raise DomainError("cosub reaches the boundary of the ball in floating point")
    p = 1.0 - vv
    q = 1.0 - uu
    return _fill(_new(GyroElement), (t * (p * u0 - q * v0) / den, t * (p * u1 - q * v1) / den,
                                     t * (p * u2 - q * v2) / den), t)


def cosub_compositional(a: GyroElement, b: GyroElement) -> GyroElement:
    """a [-] b through the defining composition a (-) gyr[a,b]b."""
    if a.t != b.t:
        raise DomainError(_SAME_T)
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
    if a.t != b.t:
        raise DomainError(_SAME_T)
    left = mobius_add(a, mobius_add(neg(a), b))
    right = mobius_add(cosub(b, a), a)
    r1 = math.dist(left.y, b.y)
    r2 = math.dist(right.y, b.y)
    return CancellationResult(max(r1, r2) <= tol, r1, r2)


def _clifford_unit(dot, nz, ny):
    """|1 + conj(z) y|^2 from <z,y>, |z|^2 and |y|^2 of unit-ball coordinates,
    floats or arrays."""
    s = 1.0 + dot
    rest = nz * ny - dot * dot
    return s * s + (np.maximum(rest, 0.0) if isinstance(rest, np.ndarray) else max(rest, 0.0))


def clifford_norm_sq(z, y, t: float):
    """|1 + conj(z) y / t^2|^2 for vectors z, y (broadcasting over leading axes)."""
    t = positive(t, "t")
    z = np.asarray(z, dtype=float) / t
    y = np.asarray(y, dtype=float) / t
    return _clifford_unit(np.vecdot(z, y), np.vecdot(z, z), np.vecdot(y, y))


def _unit_pair(z: GyroElement, y: GyroElement):
    """1 - |z|^2 |y|^2 / t^4, 1 - |y|^2 / t^2 and clifford_norm_sq(z, y, t)."""
    t = z.t
    if y.t != t:
        raise DomainError(_SAME_T)
    z0, z1, z2 = z.y
    z0, z1, z2 = z0 / t, z1 / t, z2 / t
    y0, y1, y2 = y.y
    y0, y1, y2 = y0 / t, y1 / t, y2 / t
    nz = z0 * z0 + z1 * z1 + z2 * z2
    ny = y0 * y0 + y1 * y1 + y2 * y2
    a = 1.0 - nz * ny
    if not a > 0.0:
        raise DomainError("z [-] y reaches the boundary of the ball in floating point")
    return a, 1.0 - ny, _clifford_unit(z0 * y0 + z1 * y1 + z2 * y2, nz, ny)


def boxminus_jacobian(z: GyroElement, y: GyroElement) -> float:
    """Jacobian determinant of w -> w [-] y at w = z (n = 3)."""
    a, b, cl = _unit_pair(z, y)
    return a ** (-4.0) * b ** 3 * cl


def measure_factor(z: GyroElement, y: GyroElement) -> float:
    """Density of the ball measure pulled back through z -> z [-] y (n = 3)."""
    a, _, cl = _unit_pair(z, y)
    return (a / cl) ** 2


def eigenfunction(ep: EigenParams, y):
    """Plane-wave eigenfunction ((t^2-|y|^2)/|t xi - y|^2)^((2 + i lam t)/2).

    One point (a BallPoint or a 3-vector) gives a complex; a batch of shape
    (..., 3) gives a complex array of shape (...).
    """
    t = ep.t
    w0, w1, w2 = _unit_ball(y, t, "eigenfunction")
    x0, x1, x2 = ep.xi
    nw = w0 * w0 + w1 * w1 + w2 * w2
    d0, d1, d2 = x0 - w0, x1 - w1, x2 - w2
    den = d0 * d0 + d1 * d1 + d2 * d2
    if not _all(nw < 1.0):
        raise DomainError("eigenfunction requires |y| < t")
    if not _all(den > 0.0):
        raise NumericError("eigenfunction base left the positive axis")
    return _power((1.0 - nw) / den, _exponent(0.5 * ep.lam * t), "eigenfunction")


def _e_parts(lam: float, xi, y, z, t: float):
    """The base of the transport power, 1 - |z|^2 |y|^2 / t^4, the Clifford
    norm and the exponent; one point or a batch (broadcasting y against z)."""
    t = positive(t, "t")
    x0, x1, x2 = _direction(xi)
    y0, y1, y2 = _unit_ball(y, t, "e_factor")
    z0, z1, z2 = _unit_ball(z, t, "e_factor")
    ny = y0 * y0 + y1 * y1 + y2 * y2
    nz = z0 * z0 + z1 * z1 + z2 * z2
    if not _all((ny < 1.0) & (nz < 1.0)):
        raise DomainError("e_factor requires interior points")
    a = 1.0 - nz * ny
    b = 1.0 - ny
    c = 1.0 - nz
    cl = _clifford_unit(z0 * y0 + z1 * y1 + z2 * y2, nz, ny)
    d0, d1, d2 = x0 - z0, x1 - z1, x2 - z2
    v0, v1, v2 = a * x0 - b * z0 + c * y0, a * x1 - b * z1 + c * y1, a * x2 - b * z2 + c * y2
    num = (d0 * d0 + d1 * d1 + d2 * d2) * b * cl
    den = v0 * v0 + v1 * v1 + v2 * v2
    if not _all((num > 0.0) & (den > 0.0)):
        raise NumericError("e_factor base left the positive axis")
    return num / den, a, cl, _exponent(-0.5 * float(lam) * t)


def transport_prefactor(lam: float, xi, y, z, t: float):
    """The factor carrying e_{-lam,xi;t}(z) to e_{-lam,xi;t}(z [-] y).

    One point each for y and z (a BallPoint or a 3-vector) gives a complex; a
    batch of shape (...,3) for either gives a complex array.
    """
    base, _, _, expo = _e_parts(lam, xi, y, z, t)
    return _power(base, expo, "e_factor")


def e_factor(lam: float, xi, y, z, t: float):
    """Transport prefactor times the pulled-back measure density (n = 3).

    One point each for y and z (a BallPoint or a 3-vector) gives a complex; a
    batch of shape (...,3) for either gives a complex array.
    """
    base, a, cl, expo = _e_parts(lam, xi, y, z, t)
    q = a / cl
    return _power(base, expo, "e_factor") * (q * q)


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

    def polar(c, own):
        # one initial panel per owner: panel 0 is the real part, panel 1 the imaginary
        shape = c.shape
        imag = np.repeat(own == 1, shape[1])
        c = c.ravel()
        s = r * np.sqrt(np.maximum(1.0 - c * c, 0.0))

        def azimuth(theta, node):
            y = np.stack([np.broadcast_to(r * c[node, None], theta.shape),
                          s[node, None] * np.cos(theta), s[node, None] * np.sin(theta)], -1)
            e = e_factor(lam, xi, y, z, t)
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
