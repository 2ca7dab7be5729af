"""Quadrature configuration and the one integrator of the package.

``gk21_batch`` integrates many independent integrals at once with the
Gauss-Kronrod 10/21 pair of QUADPACK (Piessens et al. 1983), bisecting
panels in numpy instead of calling a Python integrand point by point, and
calling it once per round of bisections: at the sizes of this package a call
costs about as much as its nodes, so the first round evaluates the first
panels and their halves together, and an integral accepted there costs one
call.  Every adaptive integral of the package runs through ``integrate``: the
engine, then the one reject rule.  Two maps onto [0, 1] turn an algebraic
factor into a bounded integrand, for integrands that are numpy functions:

* ``alg_left`` -- the integral of (x - a)^p f(x) over [a, b], p > -1, through
  x = a + (b - a) t^(1/(1+p)); p = 0 is a plain finite integral.
* ``alg_tail`` -- the integral of x^(-1-q) h(x) over [a, oo), q > 0, through
  x = a t^(-1/q).

``antiderivative`` is the table of an integral: F(w), the integral of
(v - v(anchor)) k from an anchor to w, as piecewise Chebyshev interpolants
(the representation of Battles and Trefethen, SIAM J. Sci. Comput. 25, 2004),
for a caller that needs the integral of one integrand over many intervals.
Its Chebyshev matrices (``_chebyshev_matrices``, of any degree) and Clenshaw
sum (``_clenshaw``) also serve the jump-kernel table of ``kernel``.
``_regula_falsi`` finds every bracketed root of the package.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

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
    "antiderivative",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and panel limit of the integrals of ``integrate``.

    * ``rel_tol``: an integral's tolerance relative to its |f| mass M, or to
      1e3 times its |value| where cancellation makes that the smaller;
    * ``abs_tol``: the least tolerance granted, in the units of the value
      (the rounding floor ``ROUNDING`` M is the other lower bound);
    * ``max_subdiv``: the panel count of one integral at which it stops
      bisecting and keeps the error it has.

    ``integrate`` rejects an integral whose error exceeds ten times its
    tolerance (``NumericError``).  The kernel, scale and gyro quadratures take
    a config from their caller (``i_total_quadrature`` and the geometry
    volumes run at ``DEFAULT_QUAD``); the operator module's integrals run on
    three constants of its own.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdiv: int = 200

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0 and 0.0 < self.abs_tol < math.inf):
            raise DomainError("need rel_tol in (0, 1) and a finite abs_tol > 0")
        if self.max_subdiv < 10:
            raise DomainError("max_subdiv must be at least 10")


DEFAULT_QUAD = QuadratureConfig()


def integrate(f, lo, hi, owner, n_owners, cfg: QuadratureConfig, what):
    """Values and |f| masses of ``gk21_batch`` integrals run at ``cfg``.  One
    whose error exceeds ten times the tolerance the batch granted it, max(abs_tol,
    rel_tol min(mass, 1e3 |value|), ROUNDING mass) for its |f| mass, as when it ran
    out of panels, is rejected (``NumericError``)."""
    val, err, mass, _ = gk21_batch(f, lo, hi, owner, n_owners, cfg.rel_tol, cfg.abs_tol,
                                   cfg.max_subdiv)
    bad = err / 10.0 > _granted(mass, val, cfg.rel_tol, cfg.abs_tol)
    if bad.any():
        k = int(np.argmax(bad))
        raise NumericError(f"{what}: error {err[k]:.2e} too large for value {val[k]:.4e}")
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
    try:
        c = a ** -q / q
    except OverflowError:
        c = math.inf
    if c == math.inf:
        raise NumericError(f"{what}: its factor a^-q / q overflows a float")

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
    nodes; it is called with at most ``NODE_BUDGET`` nodes at a time, and
    once per round otherwise.  The first round evaluates the initial panels
    and both halves of each (rows ``[lo, mid, lo]`` to ``[mid, hi, hi]``);
    each later round, the halves of the panels still open, whose own values
    the round before gave.  ``neval`` counts 63 nodes per initial panel and
    42 per later bisection.

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
    k = None
    while lo.size:
        n = lo.size
        owner = owner_of[root]
        mid = 0.5 * (lo + hi)
        # rows [lo, mid] and [mid, hi], and in the first round the first panels
        # [lo, hi] too, whose Kronrod values no earlier round has given
        rows = 2 if k is not None else 3
        ck, ce, cm = (a.reshape(rows, n) for a in _gk21(
            f, np.concatenate([lo, mid, lo][:rows]), np.concatenate([mid, hi, hi][:rows]),
            np.tile(root, rows)))
        if k is None:
            k = ck[2]
        pair_k = ck[0] + ck[1]
        pair_m = cm[0] + cm[1]
        err = np.maximum(np.abs(k - pair_k), np.maximum(ce[0], ce[1]))
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
        k = np.concatenate([ck[0][keep], ck[1][keep]])
    return value, error, done_mass, neval


# ----------------------------------------------------------------------
# piecewise Chebyshev antiderivative

# degree of a panel's interpolant, on the Chebyshev points of the second kind
# x_j = cos(pi j / 32), j = 0..32
_CHEB_DEG = 32
# the tolerances of a panel, relative to its |f| mass and absolute per unit
# of its width (the floor where v - v(anchor) vanishes within a panel, through
# subnormals or a derivative of limited smoothness), and the panel limit of a
# table, which leaves room for the first panels of the nonlocal core's widest
# table (w up to 350, panels at most 1 wide) and their bisections
_TABLE_REL = 1e-13
_TABLE_ABS = 1e-18
_TABLE_PANELS = 1 << 13


def _sorted_unique(x):
    """The distinct entries of the array x, in increasing order: np.unique
    without its import of numpy.ma, which would grow the memory of the first
    call by more than a megabyte."""
    x = np.sort(np.ravel(x))
    return x[np.concatenate(([True], x[1:] != x[:-1]))] if x.size else x


# built on first use, not at import: numpy work at import would grow the
# memory of every process that imports hypfrac, those that never build a table
@lru_cache(maxsize=None)
def _chebyshev_matrices(n: int):
    """The Chebyshev points of the second kind x_j = cos(pi j / n), j = 0..n,
    and from the values at them: the Chebyshev coefficients of the degree-n
    interpolant (the inverse Vandermonde matrix, a DCT-I), the
    Clenshaw-Curtis weights on [-1, 1], and the n + 2 coefficients of the
    antiderivative that vanishes at x = -1 (the T_k integration recurrence).
    Read-only: every caller of one degree shares them."""
    k = np.arange(n + 1)
    ends = np.where((k == 0) | (k == n), 0.5, 1.0)
    to_coef = (2.0 / n) * np.cos(np.pi * np.outer(k, k) / n) * ends[:, None] * ends
    # the integral of T_k over [-1, 1]: 2 / (1 - k^2) for even k, 0 for odd
    odd = k % 2 == 1
    moments = np.where(odd, 0.0, 2.0 / np.where(odd, 2.0, 1.0 - k * k))
    # int T_0 = T_1, int T_1 = T_2 / 4, int T_k = T_(k+1) / 2(k+1) - T_(k-1) / 2(k-1)
    integ = np.zeros((n + 2, n + 1))
    integ[1, 0] = 1.0
    integ[k[1:] + 1, k[1:]] = 1.0 / (2.0 * (k[1:] + 1))
    integ[k[2:] - 1, k[2:]] -= 1.0 / (2.0 * (k[2:] - 1))
    integ[0] = -((-1.0) ** np.arange(n + 2)) @ integ
    out = np.cos(np.pi * k / n), to_coef, moments @ to_coef, integ @ to_coef
    for a in out:
        a.flags.writeable = False
    return out


def _clenshaw(coef, i, x):
    """sum_k coef[k, i] T_k(x): the Chebyshev series of column i of coef at
    each entry of x, gathering one coefficient at a time, so that the
    temporaries are the size of x.  With a scalar x and i = slice(None), the
    series at x of every column of coef (of any shape past its first axis)."""
    b1 = b2 = np.zeros_like(x)
    x2 = 2.0 * x
    for c in coef[:0:-1]:
        b1, b2 = c[i] + x2 * b1 - b2, b1
    return coef[0][i] + x * b1 - b2


def antiderivative(v, k, cuts, anchor, what):
    """F(w) = the integral of (v(s) - v(anchor)) k(s) over [anchor, w], for w
    in [cuts[0], cuts[-1]]; v and k are numpy functions.

    F is built once, as a degree-32 Chebyshev interpolant of the integrand on
    each panel, starting from the panels between the ``cuts`` (and
    ``anchor``), and v and k see at most ``NODE_BUDGET`` nodes per call.  A
    panel is bisected until its last four Chebyshev coefficients, times its
    width, are within the larger of ``_TABLE_REL`` times its |f| mass
    (Clenshaw-Curtis weights on |f|), ``_TABLE_ABS`` times its width, and
    ``ROUNDING`` times its |v k| mass, or until it reaches float resolution.
    The last is the rounding of the integrand: each value of v carries
    ~eps |v|, which near the anchor, where v - v(anchor) vanishes, is no
    longer small against |f|.  More than ``_TABLE_PANELS`` panels, or an
    integrand that is not finite, raise ``NumericError``.

    The panel integrals are summed outward from the anchor on both sides, so
    F(w) carries the rounding of the panels between the anchor and w only,
    and none of the integral beyond.  Returns F as a numpy function of an
    array of w.
    """
    nodes, to_coef, cc_weights, to_anti = _chebyshev_matrices(_CHEB_DEG)
    v0 = v(np.array([float(anchor)]))[0]
    cuts = _sorted_unique(np.append(np.asarray(cuts, dtype=float), anchor))
    lo, hi = cuts[:-1], cuts[1:]
    kept = []
    n_kept = 0
    step = max(1, NODE_BUDGET // nodes.size)

    def values(x):
        """The integrand, and the magnitude |v k| of its rounding, at x."""
        vx, kx = v(x), k(x)
        return (vx - v0) * kx, np.abs(vx * kx)

    while lo.size:
        if n_kept + lo.size > _TABLE_PANELS:
            raise NumericError(f"{what}: more than {_TABLE_PANELS} panels")
        half = 0.5 * (hi - lo)
        mid = lo + half
        x = mid[:, None] + half[:, None] * nodes
        fx, vk = (np.concatenate(part) for part in
                  zip(*(values(x[s:s + step]) for s in range(0, lo.size, step))))
        if not np.all(np.isfinite(fx)):
            raise NumericError(f"{what}: integrand is not finite")
        tail = np.abs(fx @ to_coef[-4:].T).sum(axis=1) * (hi - lo)
        mass = half * (np.abs(fx) @ cc_weights)
        rounding = ROUNDING * half * (vk @ cc_weights)
        ok = tail <= np.maximum(np.maximum(_TABLE_REL * mass, _TABLE_ABS * (hi - lo)), rounding)
        ok |= (mid <= lo) | (mid >= hi)
        kept.append((lo[ok], hi[ok], fx[ok]))
        n_kept += int(ok.sum())
        lo = np.concatenate([lo[~ok], mid[~ok]])
        hi = np.concatenate([mid[~ok], hi[~ok]])
    lo, hi, fx = (np.concatenate(part) for part in zip(*kept))
    order = np.argsort(lo)
    lo, hi, fx = lo[order], hi[order], fx[order]
    half = 0.5 * (hi - lo)
    # each panel's antiderivative, in x on [-1, 1], from its end nearest the
    # anchor: one column of coefficients per panel
    anti = to_anti @ fx.T
    total = half * anti.sum(axis=0)
    left = hi <= anchor
    anti[0, left] -= anti[:, left].sum(axis=0)
    offset = np.empty_like(total)
    offset[~left] = np.cumsum(np.r_[0.0, total[~left][:-1]])
    offset[left] = -np.cumsum(np.r_[0.0, total[left][:0:-1]])[::-1]
    mid = lo + half

    def F(w):
        w = np.asarray(w, dtype=float)
        # the panel of each w, the first or last one beyond the ends
        i = np.searchsorted(lo[1:], w.ravel(), side="right")
        x = (w.ravel() - mid[i]) / half[i]
        return (offset[i] + half[i] * _clenshaw(anti, i, x)).reshape(w.shape)

    return F


# ----------------------------------------------------------------------
# bracketed roots


def _regula_falsi(f, x0, x1, f0, f1, steps=100, width=0.0, what="regula falsi"):
    """The root of f in each bracket [x0, x1], f0 = f(x0) and f1 = f(x1) of opposite
    signs or zero, by Illinois steps (Dowell and Jarratt, BIT 11, 1971): the secant
    point c replaces x1, and x1 becomes x0 where f(c) changes sign against f1, else f0
    is halved.  Floats are one bracket; arrays, of any shape, a batch (f on arrays).
    At most ``steps`` steps, fewer once every bracket is on a root (f1 = 0) or within
    ``width``; a positive width not reached raises ``NumericError``.  Returns x1."""
    for step in range(steps + 1):
        done = (f1 == 0.0) | (abs(x1 - x0) <= width)
        if np.all(done) or step == steps:
            break
        c = x1 - f1 / (f1 - f0) * (x1 - x0)
        fc = f(c)
        flip = (fc > 0.0) != (f1 > 0.0)
        if isinstance(flip, np.ndarray):
            x0, f0 = np.where(flip, x1, x0), np.where(flip, f1, 0.5 * f0)
        else:
            x0, f0 = (x1, f1) if flip else (x0, 0.5 * f0)
        x1, f1 = c, fc
    if width > 0.0 and not np.all(done):
        raise NumericError(f"{what}: no root within {width:.3g} after {steps} steps")
    return x1
