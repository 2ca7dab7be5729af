"""Quadrature configuration and the one integrator of the package.

``gk21_batch`` integrates many independent integrals at once with the
Gauss-Kronrod 10/21 pair of QUADPACK (Piessens et al. 1983), bisecting
panels in numpy instead of calling a Python integrand point by point.  Every
adaptive integral of the package runs through ``integrate``: the engine, then
the one reject rule.  Two maps onto [0, 1] turn an algebraic factor into a
bounded integrand, for integrands that are numpy functions:

* ``alg_left`` -- the integral of (x - a)^p f(x) over [a, b], p > -1, through
  x = a + (b - a) t^(1/(1+p)); p = 0 is a plain finite integral.
* ``alg_tail`` -- the integral of x^(-1-q) h(x) over [a, oo), q > 0, through
  x = a t^(-1/q).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError

__all__ = [
    "QuadratureConfig",
    "DEFAULT_QUAD",
    "integrate",
    "ROUNDING",
    "alg_left",
    "alg_tail",
    "NODE_BUDGET",
    "gk21_batch",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and panel limit of the integrals of ``integrate``.

    ``rel_tol`` and ``abs_tol`` are the tolerances of ``gk21_batch`` and of
    the reject rule, and ``max_subdiv`` is the panel limit of each integral.
    The geometry, kernel, scale and gyro quadratures take one from their
    caller; the operator module's integrals run on four constants of its own.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdiv: int = 200

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise DomainError("quadrature tolerances must be positive")
        if self.max_subdiv < 10:
            raise DomainError("max_subdiv must be at least 10")


DEFAULT_QUAD = QuadratureConfig()


def integrate(f, lo, hi, owner, n_owners, cfg: QuadratureConfig, what, at=None):
    """Values and |f| masses of ``gk21_batch`` integrals run at ``cfg``.  One
    whose error exceeds ten times the tolerance the batch granted it, max(abs_tol,
    rel_tol min(mass, 1e3 |value|), ROUNDING mass) for its |f| mass, as when it ran
    out of panels, is rejected (``NumericError``), named by ``at`` if given."""
    val, err, mass, _ = gk21_batch(f, lo, hi, owner, n_owners, cfg.rel_tol, cfg.abs_tol,
                                   cfg.max_subdiv)
    bad = err > 10.0 * _granted(mass, val, cfg.rel_tol, cfg.abs_tol)
    if bad.any():
        k = int(np.argmax(bad))
        where = "" if at is None else f" at r={at[k]:.6g}"
        raise NumericError(f"{what}{where}: error {err[k]:.2e} too large for value {val[k]:.4e}")
    return val, mass


def _on_unit(g, points, cfg, what):
    """One integral of g(t, own) over [0, 1], on first panels that break at the ``points``
    and shrink toward t = 0 in steps of 8: the maps turn an integrand's power series into
    powers of t that are not smooth at 0, where one panel would be bisected round by round."""
    cuts = np.array(sorted({0.0, 2.0 ** -6, 2.0 ** -3, 1.0}.union(points)))
    val, _ = integrate(g, cuts[:-1], cuts[1:], np.zeros(cuts.size - 1, np.intp), 1, cfg, what)
    return float(val[0])


def alg_left(f, a, b, p, cfg: QuadratureConfig = DEFAULT_QUAD, points=(), what="alg_left"):
    """Integral of (x - a)^p f(x) over [a, b], p > -1, f a numpy function.

    Through x = a + (b - a) t^(1/(1+p)) it is (b - a)^(1+p)/(1+p) times the
    integral of f(x(t)) over t in [0, 1], bounded wherever f is; the first
    panels break at the ``points`` inside (a, b).  As p -> -1, t^(1/(1+p))
    underflows on much of [0, 1], so f must take its limit at x = a.
    """
    if p <= -1.0:
        raise DomainError("algebraic weight exponent must exceed -1")
    if not b > a:
        raise DomainError(f"{what} requires b > a")
    s, c = 1.0 / (1.0 + p), (b - a) ** (1.0 + p) / (1.0 + p)
    cuts = [((x - a) / (b - a)) ** (1.0 + p) for x in points if a < x < b]
    return _on_unit(lambda t, own: c * f(a + (b - a) * t ** s), cuts, cfg, what)


def alg_tail(h, a, q, cfg: QuadratureConfig = DEFAULT_QUAD, what="alg_tail"):
    """Integral of x^(-1-q) h(x) over [a, oo), a > 0, q > 0, h a numpy function.

    Through x = a t^(-1/q) it is a^(-q)/q times the integral of h(x(t)) over
    t in [0, 1].  x is clamped at X = 1e20, which a t^(-1/q) passes on much of
    [0, 1] when q is small, so h must be flat to O(1/x) out there; the
    clamped part is then O((a/X)^q / X) of the integral.
    """
    if not (a > 0.0 and q > 0.0):
        raise DomainError(f"{what} requires a > 0 and q > 0")
    c = a ** -q / q

    def g(t, own):
        with np.errstate(over="ignore", divide="ignore"):
            x = np.minimum(a * t ** (-1.0 / q), 1e20)
        return c * h(x)

    return _on_unit(g, (), cfg, what)


# ----------------------------------------------------------------------
# batched adaptive Gauss-Kronrod

# Most integrand nodes handed to one call of a batched integrand; bounds the
# size of every temporary array (and so the peak memory) of a batched
# integral, whatever the number of integrals in the batch.
NODE_BUDGET = 1 << 13

# Kronrod 21-point nodes on [-1, 1] in increasing order; the 10-point Gauss
# nodes are the odd-indexed ones (QUADPACK qk21)
_XK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])
_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980297810, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
])
_WK_MID = 0.149445554002916905664936468389821
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_X21 = np.concatenate([-_XK, [0.0], _XK[::-1]])
_W21 = np.concatenate([_WK, [_WK_MID], _WK[::-1]])
_G21 = np.zeros(21)
_G21[1:10:2] = _WG
_G21[11:20:2] = _WG[::-1]
# a panel's least error, per unit of its |f| mass; no tolerance is granted below it
ROUNDING = 50.0 * np.finfo(float).eps
# the |f| mass sets a batched integral's tolerance until it exceeds the
# value this many times; beyond, the value does
_CANCELLATION = 1e3


def _granted(mass, val, rel_tol, abs_tol):
    """The tolerance of batched integrals of |f| mass ``mass`` and value ``val``."""
    return np.maximum(np.maximum(abs_tol, ROUNDING * mass),
                      rel_tol * np.minimum(mass, _CANCELLATION * np.abs(val)))


def _gk21(f, lo, hi, own):
    """Kronrod value, QUADPACK error estimate and |f| mass of each panel."""
    n = lo.size
    value, error, mass = np.empty(n), np.empty(n), np.empty(n)
    step = max(1, NODE_BUDGET // 21)
    for s in range(0, n, step):
        sl = slice(s, s + step)
        half = 0.5 * (hi[sl] - lo[sl])
        x = (0.5 * (lo[sl] + hi[sl]))[:, None] + half[:, None] * _X21
        fx = f(x, own[sl])
        k = fx @ _W21
        if not np.all(np.isfinite(k)):
            raise NumericError("batched integrand is not finite")
        asc = np.abs(fx - 0.5 * k[:, None]) @ _W21
        e = np.abs(k - fx @ _G21)
        # QUADPACK's scaling of |K - G| (the Gauss rule's own error), which
        # discounts it on panels where the rules already agree closely
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            scaled = asc * np.minimum(1.0, (200.0 * e / asc) ** 1.5)
        e = np.where((asc > 0.0) & (e > 0.0), scaled, e)
        m = np.abs(fx) @ _W21
        value[sl] = half * k
        error[sl] = half * np.maximum(e, ROUNDING * m)
        mass[sl] = half * m
    return value, error, mass


def gk21_batch(f, lo, hi, owner, n_owners, rel_tol, abs_tol, limit):
    """Integrate many independent integrals at once by bisecting G10K21 panels.

    Integral ``i`` (its owner index) is the sum over the initial panels
    ``[lo[j], hi[j]]`` with ``owner[j] == i``.  ``f(x, own)`` receives a 2-D
    array of nodes, one row per panel, and for each row the index ``j`` of
    the initial panel it descends from, and returns the integrand at the
    nodes; it is called with at most ``NODE_BUDGET`` nodes at a time.

    A panel is never accepted on its own estimate.  It is bisected, and the
    halves confirm it: its error is ``max(|K_parent - K_left - K_right|,
    err_left, err_right)`` (the halves' QUADPACK error estimates), and its
    value is ``K_left + K_right``.  The owner's tolerance is ``tol =
    _granted(M, I, rel_tol, abs_tol)`` for its current |f| mass M and value
    I: relative to the mass, unless cancellation makes the value a thousand
    times smaller, and never below the rounding floor ``ROUNDING * M``.  A
    panel is accepted when its error is within its share of ``tol``, by |f|
    mass or by width, whichever is larger, or when the errors of the owner's
    accepted and open panels add up to at most ``tol``.  Otherwise both
    halves are bisected in turn.  An owner split into ``limit`` panels stops
    refining and keeps the errors it has, so that ``integrate`` rejects it.

    Returns arrays ``(value, error, mass, neval)`` indexed by owner: the
    |f| mass is what ``integrate`` weighs the error against.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    owner_of = np.asarray(owner, dtype=np.intp)
    root = np.arange(lo.size)
    width = np.bincount(owner_of, hi - lo, n_owners)
    leaves = np.bincount(owner_of, minlength=n_owners)
    neval = 21 * leaves
    value = np.zeros(n_owners)
    error = np.zeros(n_owners)
    done_mass = np.zeros(n_owners)
    k = _gk21(f, lo, hi, root)[0]
    while lo.size:
        n = lo.size
        owner = owner_of[root]
        mid = 0.5 * (lo + hi)
        ck, ce, cm = _gk21(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]),
                           np.concatenate([root, root]))
        pair_k = ck[:n] + ck[n:]
        pair_m = cm[:n] + cm[n:]
        err = np.maximum(np.abs(k - pair_k), np.maximum(ce[:n], ce[n:]))
        counts = np.bincount(owner, minlength=n_owners)
        neval += 42 * counts
        mass = done_mass + np.bincount(owner, pair_m, n_owners)
        tol = _granted(mass, value + np.bincount(owner, pair_k, n_owners), rel_tol, abs_tol)
        share = np.maximum(pair_m / np.where(mass > 0.0, mass, 1.0)[owner],
                           (hi - lo) / width[owner])
        ok = err <= tol[owner] * share
        ok |= (error + np.bincount(owner, err, n_owners) <= tol)[owner]
        # out of panels for this owner, or out of float resolution
        ok |= (leaves[owner] + counts[owner] > limit) | (mid <= lo) | (mid >= hi)
        acc = owner[ok]
        value += np.bincount(acc, pair_k[ok], n_owners)
        error += np.bincount(acc, err[ok], n_owners)
        done_mass += np.bincount(acc, pair_m[ok], n_owners)
        keep = ~ok
        leaves += np.bincount(owner[keep], minlength=n_owners)
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        root = np.concatenate([root[keep], root[keep]])
        k = np.concatenate([ck[:n][keep], ck[n:][keep]])
    return value, error, done_mass, neval
