"""Pointwise evaluation of the fractional Laplacian and Pucci extremal
operators on radial profiles, the barrier verification, the spectral
multiplier oracle, and the envelope/contact-set computation.

Everything is evaluated at tau = 1.  Azimuthal symmetry reduces all integrals
to the 2-D product measure 2 pi sinh^2(r) dr d(omega1); full 3-D evaluation
points enter only through the law of cosines.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import CalibrationError, DomainError
from .geometry import acosh1p, aux_H, law_of_cosines
from .kernel import kernel_sinh2
from .quadrature import ROUNDING, accepted, gk21_batch
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
    class is understood away from those radii.  ``f_array`` evaluates f on a
    numpy array, ``f`` at one radius; give either or both.  Without
    ``f_array``, f is wrapped once with ``np.frompyfunc``; without ``f``,
    ``u(r)`` is ``f_array`` on a 0-d array, returned as a float.
    """

    f: callable = None
    support_radius: float = math.inf
    smoothness: str = "C2"
    bounded: bool = True
    kink_radii: tuple = ()
    tail_width: callable = None
    limit_at_infinity: float = 0.0
    name: str = "custom"
    f_array: callable = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.f is None:
            f_array = self.f_array
            object.__setattr__(self, "f", lambda r: float(f_array(np.array(r, dtype=float))))
        elif self.f_array is None:
            ufunc = np.frompyfunc(self.f, 1, 1)
            object.__setattr__(self, "f_array", lambda r: ufunc(r).astype(float))

    def __call__(self, r):
        return self.f(r)

    def values(self, r) -> np.ndarray:
        """f at every entry of the array r (``__call__`` stays scalar)."""
        return self.f_array(np.asarray(r, dtype=float))

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
        f_array=lambda r: np.full(r.shape, float(value)),
    )


def gaussian_bump(width: float = 1.0) -> RadialProfile:
    """exp(-(r/width)^2)."""
    if width <= 0.0:
        raise DomainError("width must be positive")

    return RadialProfile(
        support_radius=math.inf,
        tail_width=lambda eps: width * math.sqrt(math.log(1.0 / eps)) + 1.0,
        name="gaussian-bump",
        f_array=lambda r: np.exp(-((r / width) ** 2)),
    )


def polynomial_bump(radius: float = 1.0) -> RadialProfile:
    """(1 - (r/radius)^2)^3 inside its support; C^2 across the boundary."""
    if radius <= 0.0:
        raise DomainError("radius must be positive")

    def f_array(r):
        u = r / radius
        return np.where(u < 1.0, (1.0 - u * u) ** 3, 0.0)

    return RadialProfile(support_radius=radius, name="polynomial-bump", f_array=f_array)


def paraboloid(offset: float = 0.0, curvature: float = 1.0, R: float = 1.0) -> RadialProfile:
    """offset - curvature * r^2 / (2 R^2); unbounded, for envelope tests."""
    if R <= 0.0:
        raise DomainError("R must be positive")
    return RadialProfile(
        support_radius=math.inf,
        bounded=False,
        name="paraboloid",
        f_array=lambda r: offset - curvature * r * r / (2.0 * R * R),
    )


def tabulated(r_samples, values) -> RadialProfile:
    """Cubic interpolation of samples; zero beyond the last sample."""
    r_samples = np.asarray(r_samples, dtype=float)
    values = np.asarray(values, dtype=float)
    if r_samples.ndim != 1 or r_samples.shape != values.shape or len(r_samples) < 4:
        raise DomainError("tabulated profile needs >= 4 matching samples")
    spline = CubicSpline(r_samples, values, extrapolate=False)
    top = float(r_samples[-1])

    def f_array(r):
        return np.where(r > top, 0.0, spline(np.clip(r, float(r_samples[0]), top)))

    return RadialProfile(support_radius=top, name="tabulated", f_array=f_array)


_PROFILE_FAMILIES = {
    "constant": constant_profile,
    "gaussian-bump": gaussian_bump,
    "polynomial-bump": polynomial_bump,
    "paraboloid": paraboloid,
    "tabulated": tabulated,
}


def make_profile(name: str, **params) -> RadialProfile:
    """Profile factory keyed by family name."""
    try:
        factory = _PROFILE_FAMILIES[name]
    except KeyError:
        raise DomainError(
            f"unknown profile family '{name}'; choose from {sorted(_PROFILE_FAMILIES)}"
        ) from None
    return factory(**params)


@dataclass(frozen=True)
class EllipticityBounds:
    """Kernel sandwich constants 0 < lambda_lo <= lambda_hi."""

    lambda_lo: float = 1.0
    lambda_hi: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.lambda_lo <= self.lambda_hi:
            raise DomainError("need 0 < lambda_lo <= lambda_hi")


@dataclass(frozen=True)
class BarrierSpec:
    """Parameters of the radial negative-power barrier."""

    delta: float
    alpha: float
    R: float
    gamma: float
    kappa: float = 0.25

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise DomainError("delta must lie in (0, 1)")
        if self.alpha <= 0.0:
            raise DomainError("alpha must be positive")
        if not 0.0 < self.kappa <= 0.25:
            raise DomainError("kappa must lie in (0, 1/4]")
        if self.R <= 0.0:
            raise DomainError("R must be positive")
        if not 0.0 < self.gamma < 1.0:
            raise DomainError("gamma must lie in (0, 1)")

    @property
    def floor(self) -> float:
        return -((self.kappa * self.delta / 20.0) ** (-2.0 * self.alpha))

    @property
    def kink_radius(self) -> float:
        # where the distance branch meets the floor
        return self.kappa * self.delta * self.R / 4.0


def barrier_value(spec: BarrierSpec, R0: float) -> float:
    """v(x) = max{ -(kappa delta/20)^(-2 alpha), -(d/5R)^(-2 alpha) } at d = R0."""
    if R0 < 0.0:
        raise DomainError("R0 must be nonnegative")
    if R0 <= spec.kink_radius:
        return spec.floor
    return -((R0 / (5.0 * spec.R)) ** (-2.0 * spec.alpha))


def barrier_shifted_value(spec: BarrierSpec, R0: float) -> float:
    """Shifted barrier (25/9)^alpha - (5R/d)^(2 alpha) on its power branch.

    Only the region d >= kappa*delta*R is covered (below it the function is
    an unspecified smooth extension); nonnegative outside B_5R, nonpositive
    in B_2R.
    """
    if R0 < spec.kappa * spec.delta * spec.R:
        raise DomainError("shifted barrier is specified only for d >= kappa*delta*R")
    return (25.0 / 9.0) ** spec.alpha - (5.0 * spec.R / R0) ** (2.0 * spec.alpha)


def barrier_profile(spec: BarrierSpec) -> RadialProfile:
    """The barrier as a radial profile; algebraic decay to 0 from below."""

    def tail_width(eps):
        return 5.0 * spec.R * eps ** (-0.5 / spec.alpha) + 1.0

    def f_array(r):
        # spec.floor raises OverflowError where the floor overflows a float,
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
        f_array=f_array,
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
# tolerances of the nonlocal core's radial and angular integrals, the panel
# limit of both levels, and the tail bound that places the far-tail cut
_RADIAL_REL = 1e-8
_RADIAL_ABS = 1e-12
_ANGULAR_REL = 1e-9
_ANGULAR_ABS = 1e-15
_PANEL_LIMIT = 200
_TAIL_EPS = 1e-12
# what apply_fraclap and the Pucci operators run on, for reports
NONLOCAL_TOLERANCES = {
    "radial_rel": _RADIAL_REL, "radial_abs": _RADIAL_ABS,
    "angular_rel": _ANGULAR_REL, "angular_abs": _ANGULAR_ABS,
    "panel_limit": _PANEL_LIMIT, "tail_eps": _TAIL_EPS,
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


def _angular(u, R0, u0, r, pos, neg, paired):
    """Integral over omega1 in [-1, 1] of the combine of delta, slopes (pos,
    neg), at each radius of the 1-D array r, in the distance variable w (see
    ``_nonlocal_integral``).

    ``paired`` integrates the antipodal average of the second difference over
    the half w in [|r - R0|, w_hi] of the sphere (weight 2), the only form
    for a nonlinear combine; otherwise the linear combine (pos == neg) is
    applied to u(w) - u0 over the whole range w in [|r - R0|, r + R0]
    (weight 1), one profile evaluation per node."""
    if R0 == 0.0:
        return 2.0 * _combine(u.values(r) - u0, pos, neg)
    # distances through x = cosh(d) - 1, free of the cancellation of acosh
    # near 1: cosh(w_hi) - 1 = cosh r cosh R0 - 1 = 2 sinh^2((r - R0)/2) + b
    b = np.sinh(r) * math.sinh(R0)
    x_hi = 2.0 * np.sinh(0.5 * (r - R0)) ** 2 + b
    w_lo, w_hi = np.abs(r - R0), acosh1p(x_hi)
    # for R0 << r the w-range shrinks to width ~R0, where rounding of w
    # would distort the omega1-measure; there the sphere average of delta is
    # u(r) - u0 up to O(R0^2) (relative < 1e-11 below the cut)
    out = 2.0 * _combine(u.values(r) - u0, pos, neg)
    live = w_hi - w_lo > 1e-6 * w_hi
    r, b, x_hi, w_lo, w_hi = r[live], b[live], x_hi[live], w_lo[live], w_hi[live]
    w_top = w_hi if paired else r + R0
    cols = [w_lo, w_top]
    for rk in u.kink_radii:
        cols.append(np.full_like(r, rk))
        if paired:
            # the mirror image of the kink
            cols.append(acosh1p(np.maximum(2.0 * x_hi - 2.0 * math.sinh(0.5 * rk) ** 2, 0.0)))
    cuts = np.sort(np.clip(np.column_stack(cols), w_lo[:, None], w_top[:, None]), axis=1)
    lo, hi = cuts[:, :-1], cuts[:, 1:]
    node = np.broadcast_to(np.arange(r.size)[:, None], lo.shape)
    keep = hi > lo
    lo, hi, node = lo[keep], hi[keep], node[keep]
    # the power-law ramps start at a kink: pieces above one run in log w
    log_w = np.zeros(lo.shape, dtype=bool)
    if u.kink_radii:
        log_w = lo >= max(min(u.kink_radii), np.finfo(float).tiny)
    lo = np.where(log_w, np.log(np.where(log_w, lo, 1.0)), lo)
    hi = np.where(log_w, np.log(hi), hi)
    # the slope of a linear combine rides on the measure sinh(w) dw / b
    two_x, scale = 2.0 * x_hi[node], (1.0 if paired else pos) / b[node]

    def g(x, own):
        lw = log_w[own][:, None]
        if lw.any():
            w = np.where(lw, np.exp(x), x)
            jac = np.sinh(w) * np.where(lw, w, 1.0) * scale[own][:, None]
        else:
            w, jac = x, np.sinh(x) * scale[own][:, None]
        if not paired:
            return (u.values(w) - u0) * jac
        # the mirror distance: cosh(w_hat) = 2 cosh r cosh R0 - cosh w
        w_hat = acosh1p(np.maximum(two_x[own][:, None] - 2.0 * np.sinh(0.5 * w) ** 2, 0.0))
        return _combine(0.5 * (u.values(w) + u.values(w_hat)) - u0, pos, neg) * jac

    res = gk21_batch(g, lo, hi, np.arange(lo.size), lo.size, _ANGULAR_REL, _ANGULAR_ABS,
                     _PANEL_LIMIT)
    val, err, mass = (np.bincount(node, x, r.size) for x in res[:3])
    val = accepted(val, err, mass, _ANGULAR_REL, _ANGULAR_ABS, "angular integral", r)
    out[live] = 2.0 * val if paired else val
    return out


def _nonlocal_integral(u, R0, gamma, pos, neg):
    """Common quadrature core: integral of the combine of delta against the
    kernel, slope ``pos`` on delta >= 0 and ``neg`` below.

    The angular integral is taken in the distance variable w, which is
    monotone in omega1.  The map from w to its mirror distance on the
    antipodal side preserves the measure sinh(w) dw / (sinh r sinh R0) and
    swaps the two halves of the sphere, so a linear combine (pos == neg, as
    in ``apply_fraclap`` and Pucci under equal bounds) is integrated
    one-sided: w runs over the whole sphere, one profile value per node.  A
    nonlinear combine needs the antipodal pair, the second difference,
    integrated over the half w = d_minus in [|r - R0|, w_hi] and doubled.  So
    does the frozen node below, whatever the slopes: its value is multiplied
    by r^(2 - 2 gamma)/(2 - 2 gamma), and at r = 1e-3 the one-sided
    integrand's |f| mass, ~ r |u'|, dwarfs a value ~ r^2 and costs it digits.
    The profile's kinks (paired, also their mirror images) split the w-range
    into pieces; a piece above a kink, where the power-law ramps of a barrier
    start, is integrated in log w.  The outer r-integral has three parts:

    * below r = 1e-3 (or A/2 if smaller) the smooth factor of the
      r^(1-2 gamma) singularity is frozen and integrated analytically;
    * from there to A = R0 + min(tail radius, 80), near and mid field alike,
      one integral in log r, which flattens the singularity and the
      algebraic decay.  It is one integral with one tolerance so that the
      rounding noise of second differences near r = 1e-3 is weighed
      against the whole radial mass, not against a small near field;
    * the far tail beyond A, where delta tends to (limit of u) - u(R0)
      uniformly, by its analytic kernel mass iinf_closed(A)/A^2.

    Outer panels are graded geometrically toward both kink images
    |R0 - r_k| and R0 + r_k, where the integrand of a steep barrier climbs
    by tens of orders of magnitude within a ramp whose width scales with the
    kink radius, and which a coarse panel steps over.  The panels halve
    toward each image until the one next to it is no wider than the smallest
    kink radius: ceil(log2(gap / r_k)) levels per side for the gap to the
    neighbouring break point, so a large kink gets few panels and a small
    one as many as its ramp needs.  Both levels are adaptive Gauss-Kronrod
    (``gk21_batch``): every outer node's angular pieces are integrated
    together in one batch, and a panel is accepted only once its two halves
    confirm it, never on a single estimate.  The batched integrand sees at
    most ``NODE_BUDGET`` nodes per numpy call, which bounds the memory
    whatever the panel count.  Angular integrals are taken to
    ``_ANGULAR_REL`` of their |f| mass (absolute floor ``_ANGULAR_ABS``; of
    1e3 times their value under stronger cancellation), the radial integral
    to ``_RADIAL_REL`` (absolute floor ``_RADIAL_ABS``) in the same sense;
    ``accepted`` rejects them beyond ten times those tolerances.  Each
    integral stops refining at ``_PANEL_LIMIT`` panels, and the far-tail cut
    sits where the profile's tail bound reaches ``_TAIL_EPS``.
    """
    # beyond r = 80 the kernel tail mass is itself < 1e-3, so profile values
    # below ~1e-5 there are already negligible against it
    A = R0 + min(u.tail_radius(_TAIL_EPS), 80.0)
    u0 = u(R0)

    paired = pos != neg

    def radial(t, own):
        r = np.exp(t)
        dens = 2.0 * math.pi * kernel_sinh2(gamma, r) * r
        return dens * _angular(u, R0, u0, r.ravel(), pos, neg, paired).reshape(r.shape)

    r_frozen = min(_R_FLOOR, 0.5 * A)
    smooth = (2.0 * math.pi * kernel_sinh2(gamma, r_frozen)
              * r_frozen ** (2.0 * gamma - 1.0)
              * _angular(u, R0, u0, np.array([r_frozen]), pos, neg, True)[0])
    total = smooth * r_frozen ** (2.0 - 2.0 * gamma) / (2.0 - 2.0 * gamma)

    images = {abs(R0 - rk) for rk in u.kink_radii} | {R0 + rk for rk in u.kink_radii}
    # a ramp at a kink image is ~r_k / (2 alpha) wide: panels of width r_k
    # leave its last few halvings to the adaptive bisection
    finest = min(u.kink_radii, default=math.inf)
    cuts = np.log(_graded_cuts(r_frozen, A, images, finest))
    val, err, mass, _ = gk21_batch(radial, cuts[:-1], cuts[1:], np.zeros(cuts.size - 1, int),
                                   1, _RADIAL_REL, _RADIAL_ABS, _PANEL_LIMIT)
    total += accepted(val, err, mass, _RADIAL_REL, _RADIAL_ABS, "radial integral")[0]

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
    of radius r integrates u - u(R0) one-sided, and its average, O(r^2) as
    r -> 0, absorbs the principal value with no explicit cutoff.
    """
    _require_c2_bounded(u, "apply_fraclap")
    if not 0.0 < gamma < 1.0:
        raise DomainError("gamma must lie in (0, 1)")
    if R0 < 0.0:
        raise DomainError("R0 must be nonnegative")
    return _nonlocal_integral(u, R0, gamma, 1.0, 1.0)


def pucci_plus(u: RadialProfile, R0: float, gamma: float,
               bounds: EllipticityBounds) -> float:
    """Maximal operator: integral of Lambda delta^+ - lambda delta^-.

    The combine has slopes (lambda_hi, lambda_lo).  Under equal bounds it is
    linear and the angular integrals are one-sided, as in ``apply_fraclap``;
    otherwise they pair each distance with its antipode.
    """
    _require_c2_bounded(u, "pucci_plus")
    return _nonlocal_integral(u, R0, gamma, bounds.lambda_hi, bounds.lambda_lo)


def pucci_minus(u: RadialProfile, R0: float, gamma: float,
                bounds: EllipticityBounds) -> float:
    """Minimal operator: integral of lambda delta^+ - Lambda delta^-.

    The combine has slopes (lambda_lo, lambda_hi); one-sided under equal
    bounds, paired otherwise, as in ``pucci_plus``.
    """
    _require_c2_bounded(u, "pucci_minus")
    return _nonlocal_integral(u, R0, gamma, bounds.lambda_lo, bounds.lambda_hi)


# ----------------------------------------------------------------------
# spectral multiplier oracle


# (rel, abs) tolerances of the spherical transform's r- and lambda-integrals
_FORWARD_TOL = (1e-11, 1e-13)
_SPECTRAL_TOL = (1e-9, 1e-11)
# radii at which the calibrated round trip must reproduce u
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
    while r < 700.0:  # sinh overflows a float near 710
        if abs(u(r)) * r * math.sinh(r) <= _FORWARD_CUT:
            return r
        r += 0.25
    raise CalibrationError(f"profile '{u.name}' does not decay against r sinh(r); the "
                           "oracle needs a smooth rapidly-decaying profile")


def _integrals(f, top, n, tol, what):
    """n integrals over [0, top] at tol = (rel, abs); f(x, own) is integrand own."""
    val, err, mass, _ = gk21_batch(f, np.zeros(n), np.full(n, top), np.arange(n), n, *tol,
                                   _PANEL_LIMIT)
    return accepted(val, err, mass, *tol, what)


class SphericalTransform:
    """Radial spherical transform with self-calibrated inversion constant.

    The forward transform integrates u against phi_lambda sinh^2; the inverse
    integrates against phi_lambda lambda^2 with a constant kappa fixed by the
    round-trip identity (analytically 1/(2 pi^2)), verified to 1e-6 before
    use.  Each spectral integral is one ``gk21_batch`` reading u_hat on its
    node array; nodes not yet memoised are transformed in one batch.  Every
    integral goes through the one reject rule, ``quadrature.accepted``
    (``NumericError``).
    """

    def __init__(self, u: RadialProfile):
        _require_c2_bounded(u, "SphericalTransform")
        self.u = u
        self.r_max = _forward_cut(u)
        self._fwd_cache = {}
        self.lam_max = self._find_lambda_cut()
        self._calibrate()

    def forward(self, lam: float) -> float:
        """u_hat(lam) = 4 pi * integral over [0, r_max] of u phi_lam sinh^2,
        whose integrand u(r) sin(lam r) sinh(r) / lam is taken as
        u(r) sinc(lam r) r sinh(r), to rel 1e-11 / abs 1e-13."""
        return float(self._u_hat(np.array([lam], dtype=float))[0])

    def _transform(self, lam):
        """Value, error and |integrand| mass of the integral of u(r) sinc(lam
        r) r sinh(r) over [0, r_max] at every entry of the 1-D array lam."""
        # np.sinc(t / pi) = sin(t)/t, 1 at t = 0
        f = lambda r, own: (self.u.values(r) * np.sinc(lam[own, None] * r / math.pi)
                            * r * np.sinh(r))
        n = lam.size
        return gk21_batch(f, np.zeros(n), np.full(n, self.r_max), np.arange(n), n,
                          *_FORWARD_TOL, _PANEL_LIMIT)[:3]

    def _u_hat(self, lam):
        """u_hat at every entry of the array lam, each node integrated once."""
        cache = self._fwd_cache
        new = np.fromiter(set(lam.ravel().tolist()).difference(cache), float)
        if new.size:
            val = accepted(*self._transform(new), *_FORWARD_TOL, "forward transform")
            cache.update(zip(new.tolist(), (4.0 * math.pi * val).tolist()))
        return np.array([cache[x] for x in lam.ravel().tolist()]).reshape(lam.shape)

    def _find_lambda_cut(self) -> float:
        # the weight (1+lam^2)^2 dominates every multiplier used downstream; a
        # value within the rounding floor of its integral, ROUNDING times the
        # |integrand| mass, has decayed as far as it can be seen.  Only the
        # integrals up to the cut must be resolved: above it, a wide profile's
        # r-range holds more periods of sinc(lam r) than the panel limit
        lams = 5.0 * 2.0 ** np.arange(6)
        val, err, mass = self._transform(lams)
        small = ((4.0 * math.pi * np.abs(val) * (1.0 + lams * lams) ** 2 < 1e-10)
                 | (np.abs(val) <= ROUNDING * mass))
        k = int(np.argmax(small)) + 1 if small.any() else lams.size
        accepted(val[:k], err[:k], mass[:k], *_FORWARD_TOL, "forward transform")
        if not small.any():
            raise CalibrationError("forward transform does not decay in lambda; the oracle "
                                   "needs a smooth rapidly-decaying profile")
        return float(lams[k - 1])

    def _spectral_integrals(self, radii, weight):
        """integral of weight(lam) u_hat(lam) phi_lam(R0) lam^2 over
        [0, lam_max] at every R0 in radii, in one batch."""
        radii = np.array(radii, dtype=float)
        # phi_lam(R0) = sinc(lam R0) R0 / sinh(R0)
        scale = np.array([r / math.sinh(r) if r else 1.0 for r in radii.tolist()])

        def f(lam, own):
            phi = np.sinc(lam * radii[own, None] / math.pi) * scale[own, None]
            return weight(lam) * self._u_hat(lam) * phi * lam * lam

        return _integrals(f, self.lam_max, radii.size, _SPECTRAL_TOL, "spectral integral")

    def roundtrip(self, R0: float) -> float:
        return self.kappa * float(self._spectral_integrals([R0], np.ones_like)[0])

    def _calibrate(self):
        got = self._spectral_integrals(_CHECK_RADII, np.ones_like).tolist()
        want = [self.u(r) for r in _CHECK_RADII]
        if got[0] == 0.0 or want[0] == 0.0:
            raise CalibrationError("degenerate calibration point")
        self.kappa = want[0] / got[0]
        for r, g, w in zip(_CHECK_RADII, got, want):
            if abs(self.kappa * g - w) > 1e-6 * max(1.0, abs(w)):
                raise CalibrationError(
                    f"round trip missed at r={r}: got {self.kappa * g}, expected {w}")

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
        f = lambda r, own: self.u.values(r) ** 2 * np.sinh(r) ** 2
        return 4.0 * math.pi * float(_integrals(f, self.r_max, 1, _FORWARD_TOL, "direct norm")[0])


def multiplier_oracle(u: RadialProfile, R0: float, gamma: float) -> float:
    """One-shot spectral evaluation of -(-Delta)^gamma u(R0)."""
    return SphericalTransform(u).multiplier_value(R0, gamma)


def laplace_beltrami_radial(u: RadialProfile, R0: float, h: float = 1e-4) -> float:
    """Radial Laplace-Beltrami stencil u'' + 2 coth(r) u', Richardson-refined;
    at the origin this is 3 u''(0)."""

    def second(rr, hh):
        return (u(rr + hh) - 2.0 * u(rr) + u(abs(rr - hh))) / (hh * hh)

    def first(rr, hh):
        return (u(rr + hh) - u(abs(rr - hh))) / (2.0 * hh)

    def stencil(hh):
        if R0 == 0.0:
            return 3.0 * second(0.0, hh)
        return second(R0, hh) + 2.0 / math.tanh(R0) * first(R0, hh)

    d1, d2 = stencil(h), stencil(0.5 * h)
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
    seven = 7.0 * spec.R
    front = seven ** 2 / i0_closed(seven, spec.gamma)
    shift = bounds.lambda_hi * aux_H(seven)
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
    if alpha <= 0.0 or R0 <= 0.0:
        raise DomainError("alpha and R0 must be positive")
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


def polar_grid(r_max: float, n_r: int, n_phi: int, r_min: float = 0.0):
    """Planar geodesic-polar grid: rows of (r, phi) pairs, flattened."""
    if r_max <= 0.0 or n_r < 2 or n_phi < 3:
        raise DomainError("polar_grid needs r_max > 0, n_r >= 2, n_phi >= 3")
    radii = np.linspace(r_min, r_max, n_r)
    if radii[0] == 0.0:
        radii = radii[1:]
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    rr, pp = np.meshgrid(radii, phis, indexing="ij")
    pts = np.column_stack([rr.ravel(), pp.ravel()])
    # one copy of the origin (phi = 0 representative)
    return np.vstack([[0.0, 0.0], pts])


def _pairwise_distance(points_a, points_b):
    """Hyperbolic distances between planar polar points (r, phi)."""
    ra = points_a[:, 0][:, None]
    rb = points_b[:, 0][None, :]
    dphi = points_a[:, 1][:, None] - points_b[:, 1][None, :]
    arg = np.cosh(ra) * np.cosh(rb) - np.sinh(ra) * np.sinh(rb) * np.cos(dphi)
    return np.arccosh(np.maximum(arg, 1.0))


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


def envelope(points, values, R: float, vertices=None, tol: float = None) -> EnvelopeResult:
    """Envelope of u by paraboloids c_y - d^2(., y)/(2 R^2) with vertices in B_R.

    ``points`` are planar polar samples (r, phi) covering B_5R; the envelope
    and the contact mask are returned on the same samples.  Brute-force double
    loop over (sample, vertex); that is the definition.
    """
    pts = np.asarray(points, dtype=float)
    vals = np.asarray(values, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) != len(vals) or len(pts) == 0:
        raise DomainError("envelope needs matching nonempty (r, phi) samples and values")
    if R <= 0.0:
        raise DomainError("R must be positive")
    if not np.all(np.isfinite(vals)):
        raise DomainError("sample values must be finite (u bounded below)")
    if vertices is None:
        n_phi = max(8, len(np.unique(pts[:, 1])))
        vertices = polar_grid(R, 12, n_phi)
    vertices = np.asarray(vertices, dtype=float)
    if len(vertices) == 0:
        raise DomainError("vertex grid is empty")

    dist = _pairwise_distance(pts, vertices)  # samples x vertices
    pen = dist * dist / (2.0 * R * R)
    c_values = np.min(vals[:, None] + pen, axis=0)
    parab = c_values[None, :] - pen
    vertex_index = np.argmax(parab, axis=1)
    gamma_values = parab[np.arange(len(pts)), vertex_index]
    # a max of minorants cannot exceed u; shave the half-ulp float excess
    gamma_values = np.minimum(gamma_values, vals)

    if tol is None:
        # grid resolution: radial step and worst azimuthal arc
        rs = np.unique(pts[:, 0])
        dr = float(np.min(np.diff(rs))) if len(rs) > 1 else float(rs[0])
        phis = np.unique(pts[:, 1])
        dphi = 2.0 * math.pi / max(len(phis), 1)
        spacing = max(dr, math.sinh(float(rs.max())) * dphi)
        tol = 1e-8 + 2.0 * spacing ** 2
    contact = vals - gamma_values <= tol
    return EnvelopeResult(gamma_values, contact, vertex_index, vertices, c_values, tol)
