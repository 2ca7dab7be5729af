"""Pointwise evaluation of the fractional Laplacian and Pucci extremal
operators on radial profiles, the barrier verification, the spectral
multiplier oracle, and the envelope/contact-set computation.

Everything is evaluated at tau = 1.  Azimuthal symmetry reduces all integrals
to the 2-D product measure 2 pi sinh^2(r) dr d(omega1); full 3-D evaluation
points enter only through the law of cosines.
"""

import inspect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (CalibrationError, DomainError, NumericError, UnsupportedRangeError,
                     finite, nonnegative, order, positive)
from .geometry import _MAX_SPAN, acosh1p, aux_H, law_of_cosines
from .kernel import KERNEL_TABLE_REL, _kernel_sinh2_log
from .quadrature import (_TABLE_ABS, _TABLE_PANELS, _TABLE_REL, NODE_BUDGET,
                         QuadratureConfig, _regula_falsi, _sorted_unique, antiderivative,
                         integrate)
from .scale import i0_closed, iinf_closed

__all__ = [
    "RadialProfile",
    "EllipticityBounds",
    "BarrierSpec",
    "make_profile",
    "constant_profile",
    "gaussian_bump",
    "polynomial_bump",
    "paraboloid",
    "tabulated",
    "barrier_profile",
    "second_difference",
    "apply_fraclap",
    "pucci_plus",
    "pucci_minus",
    "NONLOCAL_TOLERANCES",
    "SphericalTransform",
    "multiplier_oracle",
    "laplace_beltrami_radial",
    "barrier_value",
    "barrier_shifted_value",
    "BarrierReport",
    "barrier_check",
    "barrier_alpha_sweep",
    "ArccosReport",
    "arccos_inequalities",
    "EnvelopeResult",
    "envelope",
    "polar_grid",
]


@dataclass(frozen=True)
class RadialProfile:
    """A radial function r >= 0 -> R with declared support and smoothness.

    ``support_radius`` is math.inf for unbounded supports; ``tail_width``
    then converts a tolerance eps into a radius beyond which |f| <= eps.
    ``kink_radii`` lists radii where f is only Lipschitz, or jumps (as
    ``tabulated`` does at its last sample); the declared C2 class holds
    between those radii, and the nonlocal core breaks its panels there.
    ``f`` maps a float array of radii to the array of values, of the same
    shape; ``u(r)`` applies it to r and returns a float for a scalar r, an
    array for an array, and refuses a radius below 0 or nan
    (``DomainError``) and a value that is not finite
    (``NumericError``).  The quadratures of this module call ``f`` on their
    node arrays, unchecked; ``u(r)`` is the per-point entry that the
    benchmark tracer counts.
    """

    f: callable
    support_radius: float = math.inf
    smoothness: str = "C2"
    bounded: bool = True
    kink_radii: tuple = ()
    tail_width: callable = None
    limit_at_infinity: float = 0.0
    name: str = "custom"

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if not np.all(r >= 0.0):  # nan too
            bad = r[~(r >= 0.0)].flat[0]
            raise DomainError(f"profile '{self.name}' takes radii r >= 0, not {bad}")
        # np.ndim: f may return a Python float for a 0-d input
        v = self.f(r)
        finite = np.isfinite(v)
        if not np.all(finite):
            bad = r[~finite].flat[0]
            raise NumericError(f"profile '{self.name}' is not finite at r = {bad}")
        return float(v) if np.ndim(v) == 0 else v

    def tail_radius(self, eps: float) -> float:
        """A radius beyond which |u| <= eps, for eps in (0, 1); ``NumericError``
        where it overflows a float."""
        eps = float(eps)
        if not 0.0 < eps < 1.0:
            raise DomainError(f"profile '{self.name}': eps must lie in (0, 1), not {eps}")
        if math.isfinite(self.support_radius):
            return self.support_radius
        if self.tail_width is None:
            raise DomainError(
                f"profile '{self.name}' has unbounded support and no tail bound"
            )
        radius = self.tail_width(eps)
        if not math.isfinite(radius):
            raise NumericError(f"profile '{self.name}': the tail radius at eps={eps:g} "
                               f"overflows a float")
        return radius


def constant_profile(value: float = 1.0) -> RadialProfile:
    """A constant; every jump integral of it vanishes identically."""
    value = finite(value, "value")
    return RadialProfile(
        support_radius=math.inf,
        tail_width=lambda eps: 1.0,
        limit_at_infinity=value,
        name="constant",
        f=lambda r: np.full(r.shape, value),
    )


def gaussian_bump(width: float = 1.0) -> RadialProfile:
    """exp(-(r/width)^2)."""
    width = positive(width, "width")

    def f(r):
        with np.errstate(over="ignore"):  # exp(-inf) = 0 where (r/width)^2 overflows
            return np.exp(-((r / width) ** 2))

    return RadialProfile(
        support_radius=math.inf,
        tail_width=lambda eps: width * math.sqrt(math.log(1.0 / eps)) + 1.0,
        name="gaussian-bump",
        f=f,
    )


def polynomial_bump(radius: float = 1.0) -> RadialProfile:
    """(1 - (r/radius)^2)^3 inside its support; C^2 across the boundary."""
    radius = positive(radius, "radius")

    def f(r):
        with np.errstate(over="ignore"):  # 0 where r / radius or u * u overflows
            u = r / radius
            return np.where(u < 1.0, (1.0 - u * u) ** 3, 0.0)

    return RadialProfile(support_radius=radius, name="polynomial-bump", f=f)


def paraboloid(offset: float = 0.0, curvature: float = 1.0, R: float = 1.0) -> RadialProfile:
    """offset - curvature * r^2 / (2 R^2); unbounded, for envelope tests."""
    offset, curvature = finite(offset, "offset"), finite(curvature, "curvature")
    R = positive(R, "R")

    def f(r):
        # u(r) refuses the infinities and nans where r * r or 2 R^2 leaves the floats
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return offset - curvature * r * r / (2.0 * R * R)

    return RadialProfile(support_radius=math.inf, bounded=False, name="paraboloid", f=f)


def _not_a_knot(x, y):
    """The cubic spline through (x_i, y_i) whose third derivative is continuous
    at x_1 and x_{n-2} (not-a-knot, n >= 4), a function of radii in
    [x_0, x_{n-1}]: ``scipy.interpolate.CubicSpline(x, y)``, computed in the
    same order of operations, so that its values are scipy's.  ``NumericError``
    where the slopes or the coefficients overflow a float."""
    n = len(x)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, where not finite
        dx = np.diff(x)
        slope = np.diff(y) / dx
        # the slopes s_i at the knots solve a tridiagonal system: row i of
        # 1..n-2 makes the second derivative continuous at x_i,
        #   dx_i s_{i-1} + 2 (dx_{i-1} + dx_i) s_i + dx_{i-1} s_{i+1}
        #     = 3 (dx_i slope_{i-1} + dx_{i-1} slope_i),
        # and rows 0 and n-1 make the third continuous at x_1 and x_{n-2};
        # dl[i] is row i+1's entry left of the diagonal d, du[i] row i's right of it
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        dl = np.append(dx[1:], d1).tolist()
        d = np.concatenate([[dx[1]], 2.0 * (dx[:-1] + dx[1:]), [dx[-2]]]).tolist()
        du = np.concatenate([[d0], dx[:-1], [0.0]]).tolist()
        b = np.concatenate([
            [((dx[0] + 2.0 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0],
            3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]),
            [(dx[-1] ** 2 * slope[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1]]).tolist()
    # one O(n) elimination on floats, with LAPACK gtsv's row interchanges
    # (which scipy's solve calls): row i+1 becomes the pivot row where its
    # entry is the larger, and du2 holds the fill-in two right of the diagonal
    du2 = [0.0] * n
    s = [0.0] * (n + 2)
    try:
        for i in range(n - 1):
            if abs(d[i]) >= abs(dl[i]):
                fact = dl[i] / d[i]
                d[i + 1] -= fact * du[i]
                b[i + 1] -= fact * b[i]
            else:
                fact = d[i] / dl[i]
                d[i], d[i + 1], du[i] = dl[i], du[i] - fact * d[i + 1], d[i + 1]
                du2[i], du[i + 1] = du[i + 1], -fact * du[i + 1]
                b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
        for i in range(n - 1, -1, -1):
            s[i] = (b[i] - du[i] * s[i + 1] - du2[i] * s[i + 2]) / d[i]
    except ZeroDivisionError:  # a pivot rounded to 0, on subnormal spacings
        s = [math.nan] * n
    s = np.array(s[:n])
    # each interval's cubic in powers of h = r - x_i, as scipy's Hermite form
    with np.errstate(over="ignore", invalid="ignore"):
        t = (s[:-1] + s[1:] - 2.0 * slope) / dx
        coef = np.array([y[:-1], s[:-1], (slope - s[:-1]) / dx - t, t / dx])
    if not np.all(np.isfinite(coef)):
        raise NumericError("profile 'tabulated': the spline's slopes overflow a float")
    c0, c1, c2, c3 = coef

    def spline(r):
        i = np.clip(np.searchsorted(x, r, side="right") - 1, 0, n - 2)
        h = r - x[i]
        # summed term by term, as scipy's PPoly does: Horner's rule moves the
        # value by up to 5e-14 of max|y| on rough samples
        with np.errstate(over="ignore", invalid="ignore"):  # u(r) refuses a non-finite value
            return c0[i] + c1[i] * h + c2[i] * (h * h) + c3[i] * (h * h * h)

    return spline


def tabulated(r_samples, values) -> RadialProfile:
    """The not-a-knot cubic spline of samples, zero beyond the last sample
    and the first sample's value below it.

    Not-a-knot is scipy's default end condition, and its values are
    ``scipy.interpolate.CubicSpline(r_samples, values, extrapolate=False)``'s.
    It does not impose u'(0) = 0, which a radial profile needs to be smooth
    on H^3 at the origin: that end condition (a clamped spline) would change
    the values, and is a decision of its own.  The radii must be finite,
    nonnegative and strictly increasing, and the values finite
    (``DomainError``).  Its ``kink_radii`` are r_0, where the clip below
    begins, when r_0 > 0, and the last sample radius, beyond which the
    profile is 0: a kink there, and a jump unless the last value is 0.
    """
    r_samples = np.array(r_samples, dtype=float)  # a copy, which the spline keeps
    values = np.asarray(values, dtype=float)
    if r_samples.ndim != 1 or r_samples.shape != values.shape or len(r_samples) < 4:
        raise DomainError("tabulated profile needs >= 4 matching samples")
    if not (np.all(np.isfinite(r_samples)) and r_samples[0] >= 0.0
            and np.all(np.diff(r_samples) > 0.0)):
        raise DomainError("tabulated profile needs finite radii 0 <= r_0 < r_1 < ...")
    if not np.all(np.isfinite(values)):
        raise DomainError("tabulated profile needs finite values")
    spline = _not_a_knot(r_samples, values)
    bottom, top = float(r_samples[0]), float(r_samples[-1])

    def f(r):
        return np.where(r > top, 0.0, spline(np.clip(r, bottom, top)))

    return RadialProfile(support_radius=top, name="tabulated", f=f,
                         kink_radii=(bottom, top) if bottom > 0.0 else (top,))


_PROFILE_FAMILIES = {
    "constant": constant_profile,
    "gaussian-bump": gaussian_bump,
    "polynomial-bump": polynomial_bump,
    "paraboloid": paraboloid,
    "tabulated": tabulated,
}


def make_profile(name: str, **params) -> RadialProfile:
    """Profile factory keyed by family name; parameters the family does not
    take, or lacks, are a ``DomainError``."""
    try:
        factory = _PROFILE_FAMILIES[name]
    except KeyError:
        raise DomainError(
            f"unknown profile family '{name}'; choose from {sorted(_PROFILE_FAMILIES)}"
        ) from None
    try:
        inspect.signature(factory).bind(**params)
    except TypeError as exc:
        raise DomainError(f"profile family '{name}': {exc}") from None
    return factory(**params)


@dataclass(frozen=True)
class EllipticityBounds:
    """Kernel sandwich constants 0 < lambda_lo <= lambda_hi."""

    lambda_lo: float = 1.0
    lambda_hi: float = 1.0

    def __post_init__(self):
        lo, hi = float(self.lambda_lo), float(self.lambda_hi)
        if not 0.0 < lo <= hi < math.inf:
            raise DomainError("need 0 < lambda_lo <= lambda_hi < inf")
        # the checked floats, which the Pucci operators' arithmetic takes
        object.__setattr__(self, "lambda_lo", lo)
        object.__setattr__(self, "lambda_hi", hi)


@dataclass(frozen=True)
class BarrierSpec:
    """Parameters of the radial negative-power barrier."""

    delta: float
    alpha: float
    R: float
    gamma: float
    kappa: float = 0.25

    def __post_init__(self):
        delta, kappa, R = float(self.delta), float(self.kappa), float(self.R)
        if not 0.0 < delta < 1.0:
            raise DomainError("delta must lie in (0, 1)")
        alpha = positive(self.alpha, "alpha")
        if not 0.0 < kappa <= 0.25:
            raise DomainError("kappa must lie in (0, 1/4]")
        if not 0.0 < 7.0 * R < math.inf:  # the margins are checked on B_7R
            raise DomainError("R must be positive, with 7R a finite float")
        gamma = order(self.gamma)
        # the checked floats, which the barrier's arithmetic takes
        for name, value in zip(("delta", "alpha", "R", "gamma", "kappa"),
                               (delta, alpha, R, gamma, kappa)):
            object.__setattr__(self, name, value)

    @property
    def floor(self) -> float:
        """-(kappa delta / 20)^(-2 alpha); ``NumericError`` where it overflows
        a float, from alpha ~ 69.9 at kappa = 1/4, delta = 1/2."""
        try:
            return -((self.kappa * self.delta / 20.0) ** (-2.0 * self.alpha))
        except (OverflowError, ZeroDivisionError):  # 0 ** (-2 alpha) where kappa delta underflows
            raise NumericError(
                f"the barrier floor overflows a float at alpha={self.alpha:g}") from None

    @property
    def kink_radius(self) -> float:
        # where the distance branch meets the floor
        return self.kappa * self.delta * self.R / 4.0


def barrier_value(spec: BarrierSpec, R0: float) -> float:
    """v(x) = max{ -(kappa delta/20)^(-2 alpha), -(d/5R)^(-2 alpha) } at d = R0.

    The floor is read first: beyond the kink the power is smaller in
    magnitude, so it overflows only where the floor does (``NumericError``).
    """
    R0 = nonnegative(R0, "R0")
    floor = spec.floor
    if R0 <= spec.kink_radius:
        return floor
    return -((R0 / (5.0 * spec.R)) ** (-2.0 * spec.alpha))


def barrier_shifted_value(spec: BarrierSpec, R0: float) -> float:
    """Shifted barrier (25/9)^alpha - (5R/d)^(2 alpha) on its power branch.

    Only the region d >= kappa*delta*R is covered (below it the function is
    an unspecified smooth extension); nonnegative outside B_5R, nonpositive
    in B_2R.  ``NumericError`` where a power overflows a float.
    """
    R0 = nonnegative(R0, "R0")
    if not R0 >= spec.kappa * spec.delta * spec.R:
        raise DomainError("shifted barrier is specified only for d >= kappa*delta*R")
    try:
        return (25.0 / 9.0) ** spec.alpha - (5.0 * spec.R / R0) ** (2.0 * spec.alpha)
    except (OverflowError, ZeroDivisionError):  # 5R / 0 where kappa delta R underflows
        raise NumericError(f"the shifted barrier overflows a float at alpha={spec.alpha:g}, "
                           f"R0={R0:g}") from None


def barrier_profile(spec: BarrierSpec) -> RadialProfile:
    """The barrier as a radial profile; algebraic decay to 0 from below."""

    def tail_width(eps):
        # the radius where |v| falls to eps; NumericError where it overflows a float
        try:
            width = 5.0 * spec.R * eps ** (-0.5 / spec.alpha) + 1.0
        except OverflowError:
            width = math.inf
        if width == math.inf:
            raise NumericError(f"the barrier's tail radius overflows a float at alpha={spec.alpha:g}")
        return width

    def f(r):
        # spec.floor raises NumericError where the floor overflows a float,
        # as barrier_value does; every value lies between it and 0
        floor = spec.floor
        with np.errstate(over="ignore", divide="ignore"):
            power = -((r / (5.0 * spec.R)) ** (-2.0 * spec.alpha))
        return np.where(r <= spec.kink_radius, floor, power)

    return RadialProfile(
        support_radius=math.inf,
        kink_radii=(spec.kink_radius,),
        tail_width=tail_width,
        name="barrier",
        f=f,
    )


# ----------------------------------------------------------------------
# second differences and nonlocal operators


def second_difference(u: RadialProfile, R0: float, r: float, omega1: float) -> float:
    """(u(d-) + u(d+) - 2 u(R0)) / 2 for the antipodal pair around the
    evaluation point; u is radial about the origin."""
    d_minus, d_plus = law_of_cosines(r, R0, omega1)
    return 0.5 * (u(d_minus) + u(d_plus) - 2.0 * u(R0))


# Below this radius the second differences of u drown in rounding noise
# (delta ~ r^2 against absolute noise ~1e-16 |u|); the smooth factor is
# frozen at its value here, a relative modeling error of O(_R_FLOOR^2).
_R_FLOOR = 1e-3
# the panel limit of every integral of this module, the tolerances of the
# nonlocal core's radial integral and of the spherical transform's direct
# norm (the other side of its Plancherel check), and the tail bound that
# places the nonlocal core's far-tail cut
_PANEL_LIMIT = 200
_RADIAL = QuadratureConfig(1e-8, 1e-12, _PANEL_LIMIT)
_FORWARD = QuadratureConfig(1e-11, 1e-13, _PANEL_LIMIT)
_TAIL_EPS = 1e-12
# the first panels of the nonlocal core's antiderivative table are at most
# _TABLE_WIDTH wide, and halve toward R0 down to _TABLE_FINEST and toward
# each kink radius r_k down to r_k _KINK_FINEST
_TABLE_WIDTH = 1.0
_TABLE_FINEST = 2.0 ** -6
_KINK_FINEST = 2.0 ** -7
# what apply_fraclap and the Pucci operators run on, for reports
NONLOCAL_TOLERANCES = {
    "radial_rel": _RADIAL.rel_tol, "radial_abs": _RADIAL.abs_tol,
    "table_rel": _TABLE_REL, "table_abs": _TABLE_ABS,
    "panel_limit": _PANEL_LIMIT, "table_panel_limit": _TABLE_PANELS,
    "tail_eps": _TAIL_EPS, "kernel_table_rel": KERNEL_TABLE_REL,
}


def _graded_cuts(a, b, marks, finest):
    """Break points of [a, b]: the marks inside it, with panel widths halving
    geometrically toward every mark from both sides until the panel next to
    the mark is no wider than ``finest``."""
    ends = [a] + sorted(p for p in set(marks) if a < p < b) + [b]
    cuts = set(ends)
    for p, q in zip(ends, ends[1:]):
        if p not in marks and q not in marks:
            continue
        depth = max(0, math.ceil(math.log2((q - p) / finest)))
        for k in range(1, depth + 1):
            if p in marks:
                cuts.add(p + (q - p) * 2.0 ** -k)
            if q in marks:
                cuts.add(q - (q - p) * 2.0 ** -k)
    return np.array(sorted(cuts))


def _combine(d, pos, neg):
    """The combine of second differences: slope ``pos`` where d >= 0, ``neg`` below."""
    return np.where(d >= 0.0, pos * d, neg * d)


def _table(u, R0, w_max):
    """F(w) = integral of (u(s) - u0) sinh(s) over [R0, w], for w in
    [0, w_max].  Its first panels break at R0, the kink radii and the edge of
    a bounded support, are at most _TABLE_WIDTH wide, and halve toward R0
    down to _TABLE_FINEST: F(R0 + r) and F(R0 - r), ~r^2 |u'|, carry the
    rounding of the panels they lie on, against a difference ~r^3.  They
    also halve toward each kink radius r_k down to r_k _KINK_FINEST, where a
    steep barrier's ramp starts, which the table would otherwise reach by
    bisecting one round per halving."""
    kinks = [rk for rk in u.kink_radii if 0.0 < rk < w_max]
    ends = _sorted_unique(np.concatenate(
        [_graded_cuts(0.0, w_max, {R0}, _TABLE_FINEST), [np.clip(u.support_radius, 0.0, w_max)]]
        + [_graded_cuts(0.0, w_max, {rk}, rk * _KINK_FINEST) for rk in kinks]))
    # each gap in m equal pieces
    gaps = np.diff(ends)
    m = np.ceil(gaps / _TABLE_WIDTH).astype(int)
    k = np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m)
    cuts = np.append(np.repeat(ends[:-1], m) + np.repeat(gaps / m, m) * k, w_max)
    return antiderivative(u.f, np.sinh, cuts, R0, "antiderivative table")


def _mirror(two_x, w):
    """w_hat, cosh(w_hat) = 2 cosh r cosh R0 - cosh w, for two_x = 2 (cosh r cosh R0 - 1)."""
    return acosh1p(np.maximum(two_x - 2.0 * np.sinh(0.5 * w) ** 2, 0.0))


def _paired_delta(u, u0, two_x, w):
    """delta(w) = (u(w) + u(w_hat)) / 2 - u0 at the 1-D array w, NODE_BUDGET nodes at a time."""
    out = np.empty_like(w)
    for s in range(0, w.size, NODE_BUDGET):
        sl = slice(s, s + NODE_BUDGET)
        out[sl] = 0.5 * (u.f(w[sl]) + u.f(_mirror(two_x[sl], w[sl]))) - u0
    return out


def _positive_part(F, u, R0, u0, r):
    """The integral of delta^+ over omega1 in [-1, 1], times sinh r sinh R0,
    at each radius of the 1-D array r.  w -> w_hat preserves sinh(w) dw and
    swaps the halves [|r - R0|, w_mid] and [w_mid, r + R0] of the sphere, so
    on a piece [a, b] of the first where delta(w) keeps its sign the integral
    is G(b) - G(a), G(w) = F(w) - F(w_hat(w)).  Cut at the kinks and their
    mirror images, each piece samples delta at 17 Chebyshev-Lobatto points
    (in log w above a kink, where a barrier's ramps start), and 10 regula
    falsi (Illinois) steps place each strict sign change between neighbours.
    A sub-interval is positive where the sum of its end values is, a root
    counting as 0: two roots within one spacing are missed, at a cost of the
    |delta| mass between them."""
    t = 0.5 - 0.5 * np.cos(np.pi * np.arange(17) / 16)
    two_x = 2.0 * (2.0 * np.sinh(0.5 * (r - R0)) ** 2 + np.sinh(r) * math.sinh(R0))
    w_lo, w_mid = np.abs(r - R0), acosh1p(0.5 * two_x)
    cols = [w_lo, w_mid]
    for rk in u.kink_radii:
        cols += [np.full_like(r, rk), _mirror(two_x, rk)]
    cuts = np.sort(np.clip(np.column_stack(cols), w_lo[:, None], w_mid[:, None]), axis=1)
    keep = cuts[:, 1:] > cuts[:, :-1]
    lo, hi, sphere = cuts[:, :-1][keep], cuts[:, 1:][keep], np.nonzero(keep)[0]
    w = lo[:, None] + (hi - lo)[:, None] * t
    if u.kink_radii:
        log_w = lo >= max(min(u.kink_radii), np.finfo(float).tiny)
        w[log_w] = lo[log_w, None] * (hi[log_w] / lo[log_w])[:, None] ** t
    w[:, 0], w[:, -1] = lo, hi
    two_x = np.broadcast_to(two_x[sphere][:, None], w.shape)
    d = _paired_delta(u, u0, two_x.ravel(), w.ravel()).reshape(w.shape)
    a, b, da, db = w[:, :-1], w[:, 1:], d[:, :-1], d[:, 1:]
    split = ((da > 0.0) & (db < 0.0)) | ((da < 0.0) & (db > 0.0))
    tx = two_x[:, 1:][split]
    x1 = _regula_falsi(lambda c: _paired_delta(u, u0, tx, c),
                       a[split], b[split], da[split], db[split], steps=10)
    # sub-interval [a, b] with root c (c = a without one): [a, c] is positive
    # where da is, [c, b] where db is; the G(end) - G(start) of a piece's
    # positive parts weigh each point by the flag before it less the one after
    left = np.where(split, da > 0.0, da + db > 0.0)
    flags = np.stack([left, left ^ split], axis=2)
    weight = -np.diff(np.pad(flags.reshape(len(lo), -1), ((0, 0), (1, 1))).astype(float), axis=1)
    pts = np.insert(w, np.arange(1, w.shape[1]), a, axis=1)
    pts[:, 1::2][split] = x1
    at = weight != 0.0
    tx, own, pts = np.broadcast_to(two_x[:, :1], at.shape)[at], np.nonzero(at)[0], pts[at]
    return np.bincount(sphere[own], weight[at] * (F(pts) - F(_mirror(tx, pts))), r.size)


def _sphere_integrals(F, u, R0, u0, r, pos, neg):
    """Integral over omega1 in [-1, 1] of the combine of delta, slopes (pos,
    neg), at each radius of the 1-D array r, from the table F of ``_table``:
    w runs over [|r - R0|, r + R0] with the measure sinh(w) dw /
    (sinh r sinh R0) in omega1, so the term neg delta of the combine
    neg delta + (pos - neg) delta^+ takes two values of F."""
    w_lo, w_hi = np.abs(r - R0), r + R0
    # for R0 << r the w-range shrinks to width ~R0, where rounding of w would
    # distort the omega1-measure; there the sphere average of delta is
    # u(r) - u0 up to O(R0^2) (relative < 1e-11 below the cut)
    live = w_hi - w_lo > 1e-6 * w_hi
    out = np.empty(r.shape)
    out[~live] = 2.0 * _combine(u.f(r[~live]) - u0, pos, neg)
    if live.any():
        F_hi, F_lo = np.split(F(np.concatenate([w_hi[live], w_lo[live]])), 2)
        out[live] = neg * (F_hi - F_lo) / (np.sinh(r[live]) * math.sinh(R0))
        if pos != neg:
            out[live] += (pos - neg) * (_positive_part(F, u, R0, u0, r[live])
                                        / (np.sinh(r[live]) * math.sinh(R0)))
    return out


# a product past the float range, at extreme slopes or profile values, is inf,
# which the quadrature refuses as a non-finite integrand (NumericError)
@np.errstate(over="ignore")
def _nonlocal_integral(u, R0, gamma, pos, neg):
    """Common quadrature core: integral of the combine of delta against the
    kernel, slope ``pos`` on delta >= 0 and ``neg`` below.

    Every angular integral, the frozen node's too, is read from one table of
    the antiderivative F(w) = integral of (u(s) - u0) sinh(s) over [R0, w]
    in the distance w from the center of u (``_sphere_integrals``): a
    piecewise Chebyshev table (``quadrature.antiderivative``) built once per
    call and summed outward from F(R0) = 0.  The combine is neg delta +
    (pos - neg) delta^+; the first term takes two values of F per sphere,
    the positive part (only where pos != neg) G(b) - G(a) on the positive
    runs of the paired second difference (``_positive_part``).  Where
    R0 << r (at R0 = 0, everywhere) the sphere is not resolved in w, and its
    average of delta is taken as u(r) - u0.  The outer r-integral has three
    parts:

    * below r_f = 1e-3 (or A/2 if smaller) the smooth factor of the
      r^(1-2 gamma) singularity is frozen at its value at r_f, and
      integrated analytically: frozen r_f^(2-2 gamma) / (2 - 2 gamma), which
      is the log-r integrand at t_f = log r_f over 2 - 2 gamma;
    * from there to A = R0 + min(tail radius, 80), near and mid field alike,
      one integral in log r, which flattens the singularity and the
      algebraic decay.  It is one integral with one tolerance so that the
      rounding noise of second differences near r = 1e-3 is weighed
      against the whole radial mass, not against a small near field.  The
      frozen near field is its first panel [t_f - 1, t_f], on which t stays
      at t_f and the density is divided by 2 - 2 gamma: the frozen node is
      one more node of the radial integrand, read with the others in each
      of its calls;
    * the far tail beyond A, where delta tends to (limit of u) - u(R0)
      uniformly, by its analytic kernel mass iinf_closed(A)/A^2.

    The radial density 2 pi K sinh^2(r) r of the log-r integral comes from
    the jump-kernel table (``kernel._kernel_sinh2_log``), built once per
    process on first use for every order and contracted to gamma once per
    order: a Clenshaw sum per node in place of a Bessel K rule, within
    ``KERNEL_TABLE_REL`` (5e-14) of ``kernel_sinh2``, at the frozen node as
    at every other.  Only a radius outside the table's span (below ~7.8e-4
    or beyond ~442) takes ``kernel_sinh2`` itself, inside
    ``_kernel_sinh2_log``.

    Outer panels are graded geometrically toward both kink images
    |R0 - r_k| and R0 + r_k, where the integrand of a steep barrier climbs
    by tens of orders of magnitude within a ramp whose width scales with the
    kink radius, and which a coarse panel steps over.  The panels halve
    toward each image until the one next to it is no wider than the smallest
    kink radius: ceil(log2(gap / r_k)) levels per side for the gap to the
    neighbouring break point, so a large kink gets few panels and a small
    one as many as its ramp needs.  The radial integral is adaptive
    Gauss-Kronrod (``quadrature.integrate``): a panel is accepted only once
    its two halves confirm it, never on a single estimate.  Its integrand,
    and the profile evaluations of the table and of the positive part, see
    at most ``NODE_BUDGET`` nodes per numpy call, which bounds the memory
    whatever the panel count.  It runs at ``_RADIAL``, to its ``rel_tol`` of
    its |f| mass (absolute floor ``abs_tol``; of 1e3 times its value under
    stronger cancellation), is rejected beyond ten times that, and stops
    refining at ``_PANEL_LIMIT`` panels.  The table's first panels are at
    most ``_TABLE_WIDTH`` wide and graded toward R0 and each kink radius
    (``_table``); its panels are resolved to ``_TABLE_REL`` of their |f|
    mass, and more than ``_TABLE_PANELS`` panels raise ``NumericError``
    (constants of ``quadrature``).  The far-tail cut
    sits where the profile's tail bound reaches ``_TAIL_EPS``.
    """
    R0 = nonnegative(R0, "R0")
    # beyond r = 80 the kernel tail mass is itself < 1e-3, so profile values
    # below ~1e-5 there are already negligible against it
    A = R0 + min(u.tail_radius(_TAIL_EPS), 80.0)
    # the angular integrals reach cosh r cosh R0 - 1 ~ e^(r + R0)/2 at r <= A,
    # and acosh1p squares twice that: finite while A + R0 stays in the span
    # of the law of cosines
    if A + R0 > _MAX_SPAN:
        raise UnsupportedRangeError(
            f"the nonlocal operators need R0 + (cut radius {A:g}) <= {_MAX_SPAN:g}")
    u0 = u(R0)
    r_frozen = min(_R_FLOOR, 0.5 * A)

    # no sphere is resolved at R0 = 0 (see _sphere_integrals): no table
    F = _table(u, R0, A + R0) if R0 > 0.0 else None

    images = {abs(R0 - rk) for rk in u.kink_radii} | {R0 + rk for rk in u.kink_radii}
    # a ramp at a kink image is ~r_k / (2 alpha) wide: panels of width r_k
    # leave its last few halvings to the adaptive bisection
    finest = min(u.kink_radii, default=math.inf)
    cuts = np.log(_graded_cuts(r_frozen, A, images, finest))
    # the frozen near field, radial(t_frozen) / (2 - 2 gamma), is the
    # integral over a first panel [t_frozen - 1, t_frozen]
    t_frozen = cuts[0]
    cuts = np.append(t_frozen - 1.0, cuts)

    def angular(r):
        return _sphere_integrals(F, u, R0, u0, r, pos, neg)

    def radial(t, own):
        t = np.maximum(t, t_frozen)
        r = np.exp(t)
        dens = 2.0 * math.pi * _kernel_sinh2_log(gamma, t) * r
        dens[own == 0] /= 2.0 - 2.0 * gamma
        return dens * angular(r.ravel()).reshape(r.shape)

    val, _ = integrate(radial, cuts[:-1], cuts[1:], np.zeros(cuts.size - 1, int), 1, _RADIAL,
                       "radial integral")

    tail_mass = iinf_closed(A, gamma) / (A * A)  # 4 pi * int_A^inf K sinh^2
    return float(val[0] + _combine(u.limit_at_infinity - u0, pos, neg) * tail_mass)


def _require_c2_bounded(u: RadialProfile, what: str):
    if u.smoothness != "C2":
        raise DomainError(f"{what} requires a C2 profile")
    if not u.bounded:
        raise DomainError(f"{what} requires a bounded profile")


def apply_fraclap(u: RadialProfile, R0: float, gamma: float) -> float:
    """-(-Delta)^gamma u at a point at distance R0 from the center of u.

    Jump integral with slopes (1, 1): the operator is linear, so each sphere
    of radius r reads the average of u - u(R0) from one antiderivative table,
    and that average, O(r^2) as r -> 0, absorbs the principal value with no
    explicit cutoff.
    """
    _require_c2_bounded(u, "apply_fraclap")
    return _nonlocal_integral(u, R0, order(gamma), 1.0, 1.0)


def pucci_plus(u: RadialProfile, R0: float, gamma: float,
               bounds: EllipticityBounds) -> float:
    """Maximal operator: integral of Lambda delta^+ - lambda delta^-.

    The combine has slopes (lambda_hi, lambda_lo).  Each sphere is read from
    the antiderivative table of ``apply_fraclap``: its linear part at slope
    lambda_lo, and, under unequal bounds, (lambda_hi - lambda_lo) times the
    integral of delta^+ over the sign pieces of the paired second difference.
    """
    _require_c2_bounded(u, "pucci_plus")
    return _nonlocal_integral(u, R0, gamma, bounds.lambda_hi, bounds.lambda_lo)


def pucci_minus(u: RadialProfile, R0: float, gamma: float,
                bounds: EllipticityBounds) -> float:
    """Minimal operator: integral of lambda delta^+ - Lambda delta^-.

    The combine has slopes (lambda_lo, lambda_hi): the linear part at slope
    lambda_hi, and (lambda_lo - lambda_hi) times the positive part, as in
    ``pucci_plus``.
    """
    _require_c2_bounded(u, "pucci_minus")
    return _nonlocal_integral(u, R0, gamma, bounds.lambda_lo, bounds.lambda_hi)


# ----------------------------------------------------------------------
# spectral multiplier oracle


# radii at which the round trip must reproduce u
_CHECK_RADII = (0.0, 0.4, 0.9)


class SphericalTransform:
    """Radial spherical transform of H^3 and its inverse, as one FFT of g.

    With phi_lam(r) = sin(lam r) / (lam sinh r), the transform u_hat(lam) =
    4 pi int u phi_lam sinh^2 dr is 2 pi / lam times the sine transform of
    the odd function g(s) = sinh(s) u(|s|) on the line, and the inverse with
    the exact constant kappa = 1/(2 pi^2) is g's inverse sine transform over
    sinh R0.  g is sampled at s_j = j h, in FFT order, out to its reach
    (where |u| sinh r falls to 1e-17 of its peak) plus 40, as the jump kernel
    decays like e^-s; B = -Im fft(g) is zeroed where |B| <= 8 eps sum |g|,
    its rounding floor.  h starts at 0.1 and halves until no kept entry lies
    above half the Nyquist frequency, with ``NumericError`` past N = 2^20
    (a C^2 profile of compact support, whose spectrum decays algebraically,
    is refused so).  A multiplier m(xi) is then the one sum
    (1/N) sum_k B_k m(xi_k) xi_k sinc(xi_k R0) R0 / sinh R0, at one R0 or an
    array of them.  The round trip (m = 1) at ``_CHECK_RADII`` must
    reproduce u to 1e-6 (``CalibrationError``).

    The floor of a value is eps max|g|, and g peaks at ~e^(w^2/4) times the
    value for a Gaussian of width w: 1e-12 relative up to width 4 and ~1e-9
    at width 8, measured against the closed form; from width 10 on the round
    trip misses and the transform is refused.
    """

    kappa = 1.0 / (2.0 * math.pi ** 2)

    def __init__(self, u: RadialProfile):
        _require_c2_bounded(u, "SphericalTransform")
        self.u = u
        # |u| sinh r on a grid of step 1/4 below 700, where sinh nears the float range
        r = 0.25 * np.arange(2801.0)
        with np.errstate(over="ignore"):
            a = np.abs(u.f(r)) * np.sinh(r)
        peak = a.max()
        if not peak < math.inf or a[-1] > 1e-17 * peak:  # nan too
            raise CalibrationError(f"profile '{u.name}' does not decay against sinh(r); "
                                   "the oracle needs a smooth rapidly-decaying profile")
        self.reach = float(r[np.flatnonzero(a > 1e-17 * peak).max(initial=0) + 1])
        h = 0.1
        while True:
            n = 2 ** math.ceil(math.log2(2.0 * (self.reach + 40.0) / h))
            if n > 2 ** 20:
                raise NumericError(f"spherical transform of '{u.name}': the spectrum of g "
                                   f"has not decayed by half the Nyquist frequency at N = {2 ** 20}")
            s = h * np.arange(1.0, math.floor(self.reach / h) + 1.0)
            g = u.f(s) * np.sinh(s)
            odd = np.zeros(n)
            odd[1:s.size + 1], odd[n - s.size:] = g, -g[::-1]
            # the rfft half: B_k xi_k is even in k, and B is 0 at k = 0 and N/2
            B = -np.fft.rfft(odd).imag
            kept = np.flatnonzero(np.abs(B) > 8.0 * np.finfo(float).eps * np.abs(odd).sum())
            if not np.any(kept > n // 4):
                break
            h /= 2.0
        self.h, self._n, self._s, self._g = h, n, s, g
        self._xi, self._B = 2.0 * math.pi / (n * h) * kept, B[kept]
        check = np.array(_CHECK_RADII)
        for r, back, want in zip(_CHECK_RADII, self.roundtrip(check).tolist(),
                                 u.f(check).tolist()):
            if abs(back - want) > 1e-6 * max(1.0, abs(want)):
                raise CalibrationError(f"round trip missed at r={r}: got {back}, expected {want}")

    def forward(self, lam: float) -> float:
        """u_hat(lam) as the trapezoid sum 2 pi h sum_j g_j s_j sinc(lam s_j)
        over the line, twice its half s > 0."""
        return 4.0 * math.pi * self.h * float(
            self._g @ (self._s * np.sinc(lam * self._s / math.pi)))

    def _sum(self, R0, m):
        """(1/N) sum_k B_k m_k xi_k sinc(xi_k R0) R0 / sinh R0 at a float R0
        or at every entry of an array; R0 / sinh R0 = 2 R0 e^-R0 / (1 - e^-2R0)
        underflows to 0 rather than overflow."""
        R0 = np.asarray(R0, dtype=float)
        if not np.all((R0 >= 0.0) & (R0 < math.inf)):
            raise DomainError("R0 must be finite and nonnegative")
        with np.errstate(invalid="ignore"):
            scale = np.where(R0 > 0.0, 2.0 * R0 * np.exp(-R0) / -np.expm1(-2.0 * R0), 1.0)
        # np.sinc(t / pi) = sin(t)/t; one row per R0, summed alike at any shape
        phi = np.sinc(np.multiply.outer(R0, self._xi) / math.pi)
        v = 2.0 / self._n * (phi * (self._B * m * self._xi)).sum(axis=-1) * scale
        return float(v) if v.ndim == 0 else v

    def roundtrip(self, R0):
        """u(R0) back from its transform, at a float R0 or an array."""
        return self._sum(R0, 1.0)

    def multiplier_value(self, R0, gamma: float):
        """-(-Delta)^gamma u(R0) through the multiplier (xi^2 + 1)^gamma, at a
        float R0 or an array."""
        gamma = float(gamma)
        if not 0.0 < gamma <= 1.0:
            raise DomainError("gamma must lie in (0, 1]")
        return -self._sum(R0, (self._xi * self._xi + 1.0) ** gamma)

    def plancherel_spectral(self) -> float:
        """Spectral side of the squared norm, kappa int u_hat^2 lam^2 dlam:
        2 pi h / N sum_k B_k^2 over the FFT, by Parseval."""
        return 4.0 * math.pi * self.h / self._n * float(self._B @ self._B)

    def norm_sq_direct(self) -> float:
        f = lambda r, own: self.u.f(r) ** 2 * np.sinh(r) ** 2
        val, _ = integrate(f, np.zeros(1), np.full(1, self.reach), np.zeros(1, np.intp), 1,
                           _FORWARD, "direct norm")
        return 4.0 * math.pi * float(val[0])


def multiplier_oracle(u: RadialProfile, R0: float, gamma: float) -> float:
    """One-shot spectral evaluation of -(-Delta)^gamma u(R0)."""
    return SphericalTransform(u).multiplier_value(R0, gamma)


def laplace_beltrami_radial(u: RadialProfile, R0: float) -> float:
    """Radial Laplace-Beltrami stencil u'' + 2 coth(r) u' at steps 1e-4 and
    5e-5, Richardson-refined; at the origin this is 3 u''(0).

    Below R0 = 1e-5 it is the origin's stencil: there u(R0 + h) - u(h - R0)
    rounds to 0 or loses its digits, and 2 coth(R0) multiplies what is left
    (gaussian_bump at 1e-12 read 7.4e-2 off, at 1e-310 nan).  The radial
    Laplacian is even and smooth in R0, so the origin's value is O(R0^2) off:
    8.7e-10 for gaussian_bump at 1e-5, where the stencil is 3.1e-8 off.
    """
    R0 = nonnegative(R0, "R0")

    def second(rr, hh):
        return (u(rr + hh) - 2.0 * u(rr) + u(abs(rr - hh))) / (hh * hh)

    def first(rr, hh):
        return (u(rr + hh) - u(abs(rr - hh))) / (2.0 * hh)

    def stencil(hh):
        if R0 < 1e-5:
            return 3.0 * second(0.0, hh)
        return second(R0, hh) + 2.0 / math.tanh(R0) * first(R0, hh)

    d1, d2 = stencil(1e-4), stencil(0.5e-4)
    return (4.0 * d2 - d1) / 3.0


# ----------------------------------------------------------------------
# barrier verification


@dataclass(frozen=True)
class BarrierReport:
    """Supersolution margins of the barrier at the sampled radii."""

    spec: BarrierSpec
    radii: tuple
    mplus: tuple
    margins: tuple

    @property
    def all_nonpositive(self) -> bool:
        return all(m <= 0.0 for m in self.margins)


@lru_cache(maxsize=16)
def _barrier_front(R: float, gamma: float):
    """(7R)^2 / I0(7R) and H(7R): the factors of the barrier margins that
    depend on (R, gamma) alone, shared by every alpha of a sweep."""
    seven = 7.0 * R
    return seven ** 2 / i0_closed(seven, gamma), aux_H(seven)


def barrier_check(spec: BarrierSpec, sample_radii, bounds: EllipticityBounds) -> BarrierReport:
    """Evaluate (7R)^2/I0(7R) * M+ v + Lambda H(7R) at each sample radius.

    Nonpositive margins certify the supersolution property on the sampled
    region (delta R/4, 5R).
    """
    lo_r = spec.delta * spec.R / 4.0
    hi_r = 5.0 * spec.R
    radii = [float(r) for r in sample_radii]
    if any(not lo_r < r < hi_r for r in radii):
        raise DomainError("sample radii must lie in (delta R/4, 5R)")
    v = barrier_profile(spec)
    front, h = _barrier_front(spec.R, spec.gamma)
    shift = bounds.lambda_hi * h
    mplus = [pucci_plus(v, r, spec.gamma, bounds) for r in radii]
    margins = [front * m + shift for m in mplus]
    return BarrierReport(spec, tuple(radii), tuple(mplus), tuple(margins))


def barrier_alpha_sweep(
    delta: float,
    R: float,
    gamma: float,
    sample_radii,
    bounds: EllipticityBounds,
    alpha_start: float = 2.0,
    alpha_cap: float = 64.0,
    kappa: float = 0.25,
):
    """Double alpha until every margin is nonpositive; returns
    (alpha or None, reports).  None means the cap was hit (inconclusive)."""
    alpha_start = positive(alpha_start, "alpha_start")
    if not alpha_start <= alpha_cap:
        raise DomainError("need alpha_cap >= alpha_start")
    reports = {}
    found = None
    alpha = alpha_start
    while alpha <= alpha_cap:
        spec = BarrierSpec(delta=delta, alpha=alpha, R=R, gamma=gamma, kappa=kappa)
        rep = barrier_check(spec, sample_radii, bounds)
        reports[alpha] = rep
        if found is None and rep.all_nonpositive:
            found = alpha
        alpha *= 2.0
    return found, reports


# ----------------------------------------------------------------------
# arccosh convexity inequalities


@dataclass(frozen=True)
class ArccosReport:
    """Both sides of the three tangent-line inequalities at (alpha, R0, t)."""

    alpha: float
    R0: float
    t: float
    lhs: tuple
    rhs: tuple

    @property
    def margins(self) -> tuple:
        return tuple(l - r for l, r in zip(self.lhs, self.rhs))

    @property
    def all_hold(self) -> bool:
        return all(m >= -1e-13 * max(1.0, abs(r)) for m, r in zip(self.margins, self.rhs))


def arccos_inequalities(alpha: float, R0: float, t: float) -> ArccosReport:
    """Evaluate the three convexity bounds for the negative-power barrier;
    ``NumericError`` where a side leaves the float range: cosh R0 beyond
    R0 ~ 710.5, a power of a small R0 or d at large alpha, a large t."""
    alpha, R0, t = positive(alpha, "alpha"), positive(R0, "R0"), finite(t, "t")
    try:
        lhs, rhs = _arccos_sides(alpha, R0, t)
        ok = all(map(math.isfinite, lhs + rhs))
    except (OverflowError, ZeroDivisionError):
        ok = False
    if not ok:
        raise NumericError(f"the arccos inequalities overflow a float at alpha={alpha:g}, "
                           f"R0={R0:g}, t={t:g}")
    return ArccosReport(alpha, R0, t, lhs, rhs)


def _arccos_sides(alpha, R0, t):
    """The sides (lhs, rhs) of ``arccos_inequalities`` at checked floats."""
    ch, sh = math.cosh(R0), math.sinh(R0)
    if not t * ch > 1.0:
        raise DomainError("need t > 1/cosh(R0)")
    H = aux_H(R0)
    s = t * ch
    d = math.acosh(s) if s >= 1.0 else 0.0
    q = s * s - 1.0

    lhs1 = d ** (-2.0 * alpha) - R0 ** (-2.0 * alpha)
    rhs1 = -2.0 * alpha * R0 ** (-2.0 * alpha - 2.0) * H * (t - 1.0)

    lhs2 = d ** (-2.0 * alpha - 2.0) / q - R0 ** (-2.0 * alpha - 2.0) / (sh * sh)
    rhs2 = (
        -(R0 ** (-2.0 * alpha))
        * ((2.0 * alpha + 2.0) + 2.0 * H) * H
        * (t - 1.0) / (R0 ** 4 * sh * sh)
    )

    lhs3 = d ** (-2.0 * alpha - 1.0) * s / q ** 1.5 - R0 ** (-2.0 * alpha - 1.0) * ch / sh ** 3
    rhs3 = (
        -(R0 ** (-2.0 * alpha))
        * ((2.0 * alpha + 1.0) * H - R0 * R0 + 3.0 * H * H) * H
        * (t - 1.0) / (R0 ** 4 * sh * sh)
    )

    return (lhs1, lhs2, lhs3), (rhs1, rhs2, rhs3)


# ----------------------------------------------------------------------
# envelope and contact set


def polar_grid(r_max: float, n_r: int, n_phi: int):
    """Planar geodesic-polar grid on [0, r_max]: rows of (r, phi) pairs,
    flattened."""
    r_max = positive(r_max, "r_max")
    if n_r < 2 or n_phi < 3:
        raise DomainError("polar_grid needs n_r >= 2, n_phi >= 3")
    # near the top of the float range linspace overflows forming its last
    # radius, which it then sets to r_max: every radius is finite
    with np.errstate(over="ignore"):
        radii = np.linspace(0.0, r_max, n_r)[1:]
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    rr, pp = np.meshgrid(radii, phis, indexing="ij")
    pts = np.column_stack([rr.ravel(), pp.ravel()])
    # one copy of the origin (phi = 0 representative)
    return np.vstack([[0.0, 0.0], pts])


def _pairwise_distance(points_a, points_b):
    """Hyperbolic distances between planar polar points (r, phi), through the
    cancellation-free form of the law of cosines (``geometry.law_of_cosines``):
    cosh d - 1 = 2 sinh^2((ra - rb)/2) + 2 sinh ra sinh rb sin^2(dphi/2)."""
    ra = points_a[:, 0][:, None]
    rb = points_b[:, 0][None, :]
    dphi = points_a[:, 1][:, None] - points_b[:, 1][None, :]
    return acosh1p(2.0 * np.sinh(0.5 * (ra - rb)) ** 2
                   + 2.0 * np.sinh(ra) * np.sinh(rb) * np.sin(0.5 * dphi) ** 2)


@dataclass(frozen=True)
class EnvelopeResult:
    """Envelope values, contact mask, and per-sample touching vertex."""

    gamma_values: np.ndarray
    contact_mask: np.ndarray
    vertex_index: np.ndarray
    vertices: np.ndarray
    c_values: np.ndarray
    tolerance: float

    def contact_count(self) -> int:
        return int(np.sum(self.contact_mask))


def envelope(points, values, R: float) -> EnvelopeResult:
    """Envelope of u by paraboloids c_y - d^2(., y)/(2 R^2) with vertices in B_R.

    ``points`` are planar polar samples (r, phi) covering B_5R; the envelope
    and the contact mask are returned on the same samples.  The vertices are
    a polar grid of B_R, 12 radii by the samples' azimuths (at least 8).
    Brute-force double loop over (sample, vertex); that is the definition.
    """
    pts = np.asarray(points, dtype=float)
    vals = np.asarray(values, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) != len(vals) or len(pts) == 0:
        raise DomainError("envelope needs matching nonempty (r, phi) samples and values")
    R = positive(R, "R")
    if not np.all(np.isfinite(vals)):
        raise DomainError("sample values must be finite (u bounded below)")
    # the distances' cosh d - 1 and its square stay floats, as in the law of cosines
    if not pts[:, 0].max() + R <= _MAX_SPAN:
        raise UnsupportedRangeError(f"envelope needs sample radii + R <= {_MAX_SPAN:g}")
    phis = np.unique(pts[:, 1])
    vertices = polar_grid(R, 12, max(8, len(phis)))

    dist = _pairwise_distance(pts, vertices)  # samples x vertices
    pen = dist * dist / (2.0 * R * R)
    c_values = np.min(vals[:, None] + pen, axis=0)
    parab = c_values[None, :] - pen
    vertex_index = np.argmax(parab, axis=1)
    gamma_values = parab[np.arange(len(pts)), vertex_index]
    # a max of minorants cannot exceed u; shave the half-ulp float excess
    gamma_values = np.minimum(gamma_values, vals)

    # grid resolution: radial step and worst azimuthal arc
    rs = np.unique(pts[:, 0])
    dr = float(np.min(np.diff(rs))) if len(rs) > 1 else float(rs[0])
    dphi = 2.0 * math.pi / len(phis)
    spacing = max(dr, math.sinh(float(rs.max())) * dphi)
    tol = 1e-8 + 2.0 * spacing ** 2
    contact = vals - gamma_values <= tol
    return EnvelopeResult(gamma_values, contact, vertex_index, vertices, c_values, tol)
