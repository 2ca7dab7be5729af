"""Quadrature configuration and thin wrappers around QUADPACK.

This is the only module that calls ``scipy.integrate``.  The QUADPACK
wrappers below run at the tolerances of a :class:`QuadratureConfig` and share
one accept rule (``_check``):

* ``quad_finite``     -- adaptive integration on [a, b], optional break points.
* ``quad_semi_inf``   -- adaptive integration on [a, oo) for algebraic or
  exponential tails.
* ``quad_alg_left``   -- integration of f(x) * (x - a)**alpha on [a, b] where
  alpha > -1, i.e. an integrable algebraic singularity at the left endpoint.

``gk21_batch`` integrates many independent integrals at once with the
Gauss-Kronrod 10/21 pair of QUADPACK (Piessens et al. 1983), bisecting
panels in numpy instead of calling a Python integrand point by point.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, NumericError

__all__ = [
    "QuadratureConfig",
    "DEFAULT_QUAD",
    "gauss_legendre",
    "quad_finite",
    "quad_semi_inf",
    "quad_alg_left",
    "NODE_BUDGET",
    "gk21_batch",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and subinterval limit of one QUADPACK integral.

    The wrappers of this module pass ``rel_tol``/``abs_tol`` to QUADPACK as
    ``epsrel``/``epsabs`` and ``max_subdiv`` as its subinterval limit.  The
    geometry, kernel and scale quadratures take one from their caller
    (``gyro.sphere_integral_E`` uses its two tolerances as a refinement
    test).  The operator module takes none: its integrals all run through
    ``gk21_batch`` on module constants of its own.
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


@lru_cache(maxsize=32)
def gauss_legendre(n: int):
    """Cached Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _check(result, cfg: QuadratureConfig, what: str):
    value, abserr, info = result[0], result[1], result[2]
    message = result[3] if len(result) > 3 else None
    if message is not None:
        # QUADPACK raised a warning; accept only if the error estimate still
        # meets the requested tolerance.
        if abserr > max(cfg.abs_tol, 100.0 * cfg.rel_tol * abs(value)):
            raise NumericError(
                f"{what}: quadrature did not converge "
                f"(value={value:.6g}, abserr={abserr:.3g}, {message})"
            )
    return value


def quad_finite(f, a, b, cfg: QuadratureConfig = DEFAULT_QUAD, points=None):
    """Adaptive integral of f on [a, b]."""
    if not b > a:
        raise DomainError("quad_finite requires b > a")
    pts = None
    if points:
        pts = sorted(p for p in points if a < p < b)
        pts = pts or None
    result = quad(
        f, a, b,
        epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
        limit=cfg.max_subdiv, points=pts, full_output=1,
    )
    return _check(result, cfg, "quad_finite")


def quad_semi_inf(f, a, cfg: QuadratureConfig = DEFAULT_QUAD):
    """Adaptive integral of f on [a, oo)."""
    result = quad(
        f, a, np.inf,
        epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
        limit=cfg.max_subdiv, full_output=1,
    )
    return _check(result, cfg, "quad_semi_inf")


def quad_alg_left(f_smooth, a, b, alpha, cfg: QuadratureConfig = DEFAULT_QUAD):
    """Integral of f_smooth(x) * (x - a)**alpha on [a, b], alpha > -1.

    QUADPACK's QAWS handles the algebraic endpoint weight with dedicated
    Chebyshev moments, so f_smooth only needs to be smooth up to the endpoint.
    """
    if alpha <= -1:
        raise DomainError("algebraic weight exponent must exceed -1")
    if not b > a:
        raise DomainError("quad_alg_left requires b > a")
    result = quad(
        f_smooth, a, b,
        weight="alg", wvar=(alpha, 0.0),
        epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
        limit=cfg.max_subdiv, full_output=1,
    )
    return _check(result, cfg, "quad_alg_left")


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
_EPS = np.finfo(float).eps
# the |f| mass sets a batched integral's tolerance until it exceeds the
# value this many times; beyond, the value does
_CANCELLATION = 1e3


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
        error[sl] = half * np.maximum(e, 50.0 * _EPS * m)
        mass[sl] = half * m
    return value, error, mass


def gk21_batch(f, lo, hi, owner, n_owners, rel_tol, abs_tol, limit):
    """Integrate many independent integrals at once by bisecting G10K21 panels.

    Integral ``i`` (its owner index) is the sum over the initial panels
    ``[lo[j], hi[j]]`` with ``owner[j] == i``.  ``f(x, own)`` receives a 2-D
    array of nodes, one row per panel, and the owner of each row, and returns
    the integrand at the nodes; it is called with at most ``NODE_BUDGET``
    nodes at a time.

    A panel is never accepted on its own estimate.  It is bisected, and the
    halves confirm it: its error is ``max(|K_parent - K_left - K_right|,
    err_left, err_right)`` (the halves' QUADPACK error estimates), and its
    value is ``K_left + K_right``.  The owner's tolerance is ``tol =
    max(abs_tol, rel_tol * min(M, 1e3 * |I|))`` for its current |f| mass M
    and value I: relative to the mass, unless cancellation makes the value
    a thousand times smaller.  A panel is accepted when its error is within
    its share of ``tol``, by |f| mass or by width, whichever is larger, or
    when the errors of the owner's accepted and open panels add up to at
    most ``tol``.  Otherwise both halves are bisected in turn.  An owner
    split into ``limit`` panels stops refining and keeps the errors it has,
    so that the caller's error check rejects it.

    Returns arrays ``(value, error, neval)`` indexed by owner.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    owner = np.asarray(owner, dtype=np.intp)
    width = np.bincount(owner, hi - lo, n_owners)
    leaves = np.bincount(owner, minlength=n_owners)
    neval = 21 * leaves
    value = np.zeros(n_owners)
    error = np.zeros(n_owners)
    done_mass = np.zeros(n_owners)
    k = _gk21(f, lo, hi, owner)[0]
    while lo.size:
        n = lo.size
        mid = 0.5 * (lo + hi)
        ck, ce, cm = _gk21(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]),
                           np.concatenate([owner, owner]))
        pair_k = ck[:n] + ck[n:]
        pair_m = cm[:n] + cm[n:]
        err = np.maximum(np.abs(k - pair_k), np.maximum(ce[:n], ce[n:]))
        counts = np.bincount(owner, minlength=n_owners)
        neval += 42 * counts
        mass = done_mass + np.bincount(owner, pair_m, n_owners)
        val = np.abs(value + np.bincount(owner, pair_k, n_owners))
        tol = np.maximum(abs_tol, rel_tol * np.minimum(mass, _CANCELLATION * val))
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
        owner = np.concatenate([owner[keep], owner[keep]])
        k = np.concatenate([ck[:n][keep], ck[n:][keep]])
    return value, error, neval
