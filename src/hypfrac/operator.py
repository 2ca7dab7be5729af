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
                     nonnegative, order, positive)
from .geometry import _MAX_SPAN, acosh1p, aux_H, law_of_cosines
from .kernel import KERNEL_TABLE_REL, _kernel_sinh2_log, kernel_sinh2
from .quadrature import (_TABLE_ABS, _TABLE_PANELS, _TABLE_REL, NODE_BUDGET, ROUNDING,
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
    ``kink_radii`` lists radii where f is only Lipschitz; the declared C2
    class is understood away from those radii.  ``f`` maps a float array of
    radii to the array of values, of the same shape; ``u(r)`` applies it to
    r and returns a float for a scalar r, an array for an array.  The
    quadratures of this module call ``f`` on their node arrays; ``u(r)`` is
    the per-point entry that the benchmark tracer counts.
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
        # np.ndim: f may return a Python float for a 0-d input
        v = self.f(np.asarray(r, dtype=float))
        return float(v) if np.ndim(v) == 0 else v

    def tail_radius(self, eps: float) -> float:
        if math.isfinite(self.support_radius):
            return self.support_radius
        if self.tail_width is None:
            raise DomainError(
                f"profile '{self.name}' has unbounded support and no tail bound"
            )
        return self.tail_width(eps)


def constant_profile(value: float = 1.0) -> RadialProfile:
    """A constant; every jump integral of it vanishes identically."""
    return RadialProfile(
        support_radius=math.inf,
        tail_width=lambda eps: 1.0,
        limit_at_infinity=value,
        name="constant",
        f=lambda r: np.full(r.shape, float(value)),
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
        u = r / radius
        return np.where(u < 1.0, (1.0 - u * u) ** 3, 0.0)

    return RadialProfile(support_radius=radius, name="polynomial-bump", f=f)


def paraboloid(offset: float = 0.0, curvature: float = 1.0, R: float = 1.0) -> RadialProfile:
    """offset - curvature * r^2 / (2 R^2); unbounded, for envelope tests."""
    R = positive(R, "R")
    return RadialProfile(
        support_radius=math.inf,
        bounded=False,
        name="paraboloid",
        f=lambda r: offset - curvature * r * r / (2.0 * R * R),
    )


def tabulated(r_samples, values) -> RadialProfile:
    """Cubic interpolation of samples; zero beyond the last sample."""
    r_samples = np.asarray(r_samples, dtype=float)
    values = np.asarray(values, dtype=float)
    if r_samples.ndim != 1 or r_samples.shape != values.shape or len(r_samples) < 4:
        raise DomainError("tabulated profile needs >= 4 matching samples")
    # the one use of scipy in hypfrac: imported here, so that importing the
    # package loads numpy and the standard library only
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(r_samples, values, extrapolate=False)
    top = float(r_samples[-1])

    def f(r):
        return np.where(r > top, 0.0, spline(np.clip(r, float(r_samples[0]), top)))

    return RadialProfile(support_radius=top, name="tabulated", f=f)


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
    in B_2R.
    """
    if not R0 >= spec.kappa * spec.delta * spec.R:
        raise DomainError("shifted barrier is specified only for d >= kappa*delta*R")
    return (25.0 / 9.0) ** spec.alpha - (5.0 * spec.R / R0) ** (2.0 * spec.alpha)


def barrier_profile(spec: BarrierSpec) -> RadialProfile:
    """The barrier as a radial profile; algebraic decay to 0 from below."""

    def tail_width(eps):
        return 5.0 * spec.R * eps ** (-0.5 / spec.alpha) + 1.0

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
# nonlocal core's radial integral and of the spherical
# transform's r- and lambda-integrals, and the tail bound that places the
# nonlocal core's far-tail cut
_PANEL_LIMIT = 200
_RADIAL = QuadratureConfig(1e-8, 1e-12, _PANEL_LIMIT)
_FORWARD = QuadratureConfig(1e-11, 1e-13, _PANEL_LIMIT)
_SPECTRAL = QuadratureConfig(1e-9, 1e-11, _PANEL_LIMIT)
_TAIL_EPS = 1e-12
# the first panels of the nonlocal core's antiderivative table are at most
# _TABLE_WIDTH wide and halve toward R0 down to _TABLE_FINEST
_TABLE_WIDTH = 0.25
_TABLE_FINEST = 2.0 ** -6
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
    rounding of the panels they lie on, against a difference ~r^3."""
    ends = _sorted_unique(np.append(
        _graded_cuts(0.0, w_max, {R0}, _TABLE_FINEST),
        [p for p in (*u.kink_radii, u.support_radius) if 0.0 < p < w_max]))
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

    * below r = 1e-3 (or A/2 if smaller) the smooth factor of the
      r^(1-2 gamma) singularity is frozen and integrated analytically;
    * from there to A = R0 + min(tail radius, 80), near and mid field alike,
      one integral in log r, which flattens the singularity and the
      algebraic decay.  It is one integral with one tolerance so that the
      rounding noise of second differences near r = 1e-3 is weighed
      against the whole radial mass, not against a small near field;
    * the far tail beyond A, where delta tends to (limit of u) - u(R0)
      uniformly, by its analytic kernel mass iinf_closed(A)/A^2.

    The radial density 2 pi K sinh^2(r) r of the log-r integral comes from
    the jump-kernel table (``kernel._kernel_sinh2_log``), built once per
    process on first use for every order and contracted to gamma once per
    order: a Clenshaw sum per node in place of a Bessel K rule, within
    ``KERNEL_TABLE_REL`` (5e-14) of ``kernel_sinh2``.  The frozen node, and
    any radius outside the table's span (below ~7.8e-4 or beyond ~442),
    take ``kernel_sinh2`` itself.

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
    refining at ``_PANEL_LIMIT`` panels.  The table's panels are resolved to
    ``_TABLE_REL`` of their |f| mass, and more than ``_TABLE_PANELS`` panels
    raise ``NumericError`` (constants of ``quadrature``).  The far-tail cut
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

    def angular(r):
        return _sphere_integrals(F, u, R0, u0, r, pos, neg)

    def radial(t, own):
        r = np.exp(t)
        dens = 2.0 * math.pi * _kernel_sinh2_log(gamma, t) * r
        return dens * angular(r.ravel()).reshape(r.shape)

    smooth = (2.0 * math.pi * kernel_sinh2(gamma, r_frozen)
              * r_frozen ** (2.0 * gamma - 1.0)
              * angular(np.array([r_frozen]))[0])
    total = smooth * r_frozen ** (2.0 - 2.0 * gamma) / (2.0 - 2.0 * gamma)

    images = {abs(R0 - rk) for rk in u.kink_radii} | {R0 + rk for rk in u.kink_radii}
    # a ramp at a kink image is ~r_k / (2 alpha) wide: panels of width r_k
    # leave its last few halvings to the adaptive bisection
    finest = min(u.kink_radii, default=math.inf)
    cuts = np.log(_graded_cuts(r_frozen, A, images, finest))
    val, _ = integrate(radial, cuts[:-1], cuts[1:], np.zeros(cuts.size - 1, int), 1, _RADIAL,
                       "radial integral")
    total += val[0]

    tail_mass = iinf_closed(A, gamma) / (A * A)  # 4 pi * int_A^inf K sinh^2
    total += _combine(u.limit_at_infinity - u0, pos, neg) * tail_mass
    return float(total)


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
# beyond r_max the forward integrand |u(r)| r sinh(r) is below this, so the
# cut-off tail of a forward value stays under the spectral integrals'
# absolute tolerance
_FORWARD_CUT = 1e-10


def _forward_cut(u):
    """r_max: the tail radius of u at 1e-14, moved out in steps of 1/4 while
    |u(r)| r sinh(r) exceeds _FORWARD_CUT there.  A bound on u alone lets
    the weight, ~1e7 at r = 15, lift a wide Gaussian's cut-off tail far
    above the forward values it is to resolve."""
    r = u.tail_radius(1e-14)
    if math.isfinite(u.support_radius):
        return r
    # the steps below 700 (sinh overflows a float near 710), summed one at a
    # time as a loop of r += 0.25 would
    steps = math.ceil(4.0 * (700.0 - r)) if r < 700.0 else 0
    rs = np.cumsum(np.r_[r, np.full(steps, 0.25)])
    rs = rs[rs < 700.0]
    with np.errstate(over="ignore"):
        small = np.abs(u.f(rs)) * rs * np.sinh(rs) <= _FORWARD_CUT
    if small.any():
        return float(rs[small.argmax()])
    raise CalibrationError(f"profile '{u.name}' does not decay against r sinh(r); the "
                           "oracle needs a smooth rapidly-decaying profile")


def _integrals(f, top, n, cfg, what):
    """Values and |f| masses of n integrals over [0, top] at cfg; f(x, own) is
    integrand own."""
    return integrate(f, np.zeros(n), np.full(n, top), np.arange(n), n, cfg, what)


class SphericalTransform:
    """Radial spherical transform and its inverse.

    The forward transform integrates u against phi_lambda sinh^2; the inverse
    integrates against phi_lambda lambda^2 with the inversion constant kappa
    = 1/(2 pi^2), and the round trip at ``_CHECK_RADII`` must reproduce u to
    1e-6 before use (``CalibrationError``).  Each spectral integral is one
    batch of ``quadrature.integrate`` reading u_hat on its node array; nodes
    not yet memoised are transformed in one batch.  Every integral goes
    through its reject rule (``NumericError``).
    """

    kappa = 1.0 / (2.0 * math.pi ** 2)

    def __init__(self, u: RadialProfile):
        _require_c2_bounded(u, "SphericalTransform")
        self.u = u
        self.r_max = _forward_cut(u)
        self._fwd_cache = {}
        self.lam_max = self._find_lambda_cut()
        self._check_round_trip()

    def forward(self, lam: float) -> float:
        """u_hat(lam) = 4 pi * integral over [0, r_max] of u phi_lam sinh^2,
        whose integrand u(r) sin(lam r) sinh(r) / lam is taken as
        u(r) sinc(lam r) r sinh(r), to rel 1e-11 / abs 1e-13."""
        return float(self._u_hat(np.array([lam], dtype=float))[0])

    def _transform(self, lam):
        """Value and |integrand| mass of the integral of u(r) sinc(lam r) r
        sinh(r) over [0, r_max] at every entry of the 1-D array lam."""
        # np.sinc(t / pi) = sin(t)/t, 1 at t = 0
        f = lambda r, own: (self.u.f(r) * np.sinc(lam[own, None] * r / math.pi)
                            * r * np.sinh(r))
        return _integrals(f, self.r_max, lam.size, _FORWARD, "forward transform")

    def _u_hat(self, lam):
        """u_hat at every entry of the array lam, each node integrated once."""
        cache = self._fwd_cache
        new = np.fromiter(set(lam.ravel().tolist()).difference(cache), float)
        if new.size:
            val = self._transform(new)[0]
            cache.update(zip(new.tolist(), (4.0 * math.pi * val).tolist()))
        return np.array([cache[x] for x in lam.ravel().tolist()]).reshape(lam.shape)

    def _find_lambda_cut(self) -> float:
        # the weight (1+lam^2)^2 dominates every multiplier used downstream; a
        # value within the rounding floor of its integral, ROUNDING times the
        # |integrand| mass, has decayed as far as it can be seen.  The probes
        # stop at the cut: above it, a wide profile's r-range holds more
        # periods of sinc(lam r) than the panel limit
        for lam in (5.0 * 2.0 ** np.arange(6)).tolist():
            (val,), (mass,) = self._transform(np.array([lam]))
            if (4.0 * math.pi * abs(val) * (1.0 + lam * lam) ** 2 < 1e-10
                    or abs(val) <= ROUNDING * mass):
                return lam
        raise CalibrationError("forward transform does not decay in lambda; the oracle "
                               "needs a smooth rapidly-decaying profile")

    def _spectral_integrals(self, radii, weight):
        """integral of weight(lam) u_hat(lam) phi_lam(R0) lam^2 over
        [0, lam_max] at every R0 in radii, in one batch."""
        radii = np.array(radii, dtype=float)
        if not np.all((radii >= 0.0) & (radii < math.inf)):
            raise DomainError("R0 must be finite and nonnegative")
        # phi_lam(R0) = sinc(lam R0) R0 / sinh(R0), R0 / sinh(R0) = 2 R0 e^-R0 / (1 - e^-2R0)
        scale = np.array([2.0 * r * math.exp(-r) / -math.expm1(-2.0 * r) if r else 1.0
                          for r in radii.tolist()])

        def f(lam, own):
            phi = np.sinc(lam * radii[own, None] / math.pi) * scale[own, None]
            return weight(lam) * self._u_hat(lam) * phi * lam * lam

        return _integrals(f, self.lam_max, radii.size, _SPECTRAL, "spectral integral")[0]

    def roundtrip(self, R0: float) -> float:
        return self.kappa * float(self._spectral_integrals([R0], np.ones_like)[0])

    def _check_round_trip(self):
        got = self.kappa * self._spectral_integrals(_CHECK_RADII, np.ones_like)
        for r, g in zip(_CHECK_RADII, got.tolist()):
            w = self.u(r)
            if abs(g - w) > 1e-6 * max(1.0, abs(w)):
                raise CalibrationError(f"round trip missed at r={r}: got {g}, expected {w}")

    def multiplier_value(self, R0: float, gamma: float) -> float:
        """-(-Delta)^gamma u(R0) through the multiplier -(lam^2+1)^gamma."""
        if not 0.0 < gamma <= 1.0:
            raise DomainError("gamma must lie in (0, 1]")
        return -self.kappa * float(self._spectral_integrals(
            [R0], lambda lam: (lam * lam + 1.0) ** gamma)[0])

    def plancherel_spectral(self) -> float:
        """Spectral side of the squared norm, kappa * int u_hat^2 lam^2."""
        return self.kappa * float(self._spectral_integrals([0.0], self._u_hat)[0])

    def norm_sq_direct(self) -> float:
        f = lambda r, own: self.u.f(r) ** 2 * np.sinh(r) ** 2
        return 4.0 * math.pi * float(_integrals(f, self.r_max, 1, _FORWARD, "direct norm")[0][0])


def multiplier_oracle(u: RadialProfile, R0: float, gamma: float) -> float:
    """One-shot spectral evaluation of -(-Delta)^gamma u(R0)."""
    return SphericalTransform(u).multiplier_value(R0, gamma)


def laplace_beltrami_radial(u: RadialProfile, R0: float) -> float:
    """Radial Laplace-Beltrami stencil u'' + 2 coth(r) u' at steps 1e-4 and
    5e-5, Richardson-refined; at the origin this is 3 u''(0)."""
    R0 = nonnegative(R0, "R0")

    def second(rr, hh):
        return (u(rr + hh) - 2.0 * u(rr) + u(abs(rr - hh))) / (hh * hh)

    def first(rr, hh):
        return (u(rr + hh) - u(abs(rr - hh))) / (2.0 * hh)

    def stencil(hh):
        if R0 == 0.0:
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

    @property
    def worst_margin(self) -> float:
        return max(self.margins)


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
    """Evaluate the three convexity bounds for the negative-power barrier."""
    alpha, R0 = positive(alpha, "alpha"), positive(R0, "R0")
    if not t * math.cosh(R0) > 1.0:
        raise DomainError("need t > 1/cosh(R0)")
    ch, sh = math.cosh(R0), math.sinh(R0)
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

    return ArccosReport(alpha, R0, t, (lhs1, lhs2, lhs3), (rhs1, rhs2, rhs3))


# ----------------------------------------------------------------------
# envelope and contact set


def polar_grid(r_max: float, n_r: int, n_phi: int):
    """Planar geodesic-polar grid on [0, r_max]: rows of (r, phi) pairs,
    flattened."""
    r_max = positive(r_max, "r_max")
    if n_r < 2 or n_phi < 3:
        raise DomainError("polar_grid needs n_r >= 2, n_phi >= 3")
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
