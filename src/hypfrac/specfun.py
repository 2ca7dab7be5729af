"""Modified Bessel and Struve functions of real order, and the closed-form
indefinite-integral families built from them.

The evaluators are self-contained:

* ``bessel_i`` sums the ascending series in log space.  For orders nu >= -1
  every term is nonnegative, so the sum is cancellation-free on the whole
  supported range x in (0, ~700].  ``bessel_i_scaled`` goes on beyond 700
  with Hankel's asymptotic expansion where nu^2 <= x.
* ``bessel_k`` integrates exp(-x (cosh u - 1)) cosh(nu u) du, which is
  exp(x) K_nu(x), with the trapezoid rule.  The rule converges geometrically
  for this analytic, double-exponentially decaying integrand (Trefethen and
  Weideman, SIAM Review 56, 2014).  Its step is the power of two
  2^-level <= min(1/16, 1/(2 sqrt x)), shrinking like 1/sqrt(x) so that the
  Laplace peak stays resolved at large x, and its nodes u_j = j 2^-level are
  therefore shared by every x of one level.  The x-free factors
  1 - cosh u_j and log cosh(nu u_j) sit in a bounded cache of tables, one
  per (|nu|, level, power-of-two length), built on first use; an evaluation
  costs one multiply-add, one ``exp`` and one sum per node.  Arrays of x run
  through the same tables, rows of one table together.  A rule longer than
  2^16 nodes (a large order at large x) is refused.
* ``struve_l`` sums the power series with exact (fsum) accumulation; terms can
  alternate in sign for negative orders.

``s_integral``/``c_integral``/``l_integral`` evaluate the finite Bessel(-
Struve) sums for the antiderivatives of rho^(k-nu) K_nu(rho) {sinh, cosh, 1}.

Every public function returns a finite float or raises a ``HypfracError``.
"""

import math
import sys
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, gammasgn

from .errors import DomainError, NumericError, UnsupportedRangeError
from .quadrature import NODE_BUDGET

__all__ = [
    "bessel_i",
    "bessel_i_scaled",
    "bessel_k",
    "bessel_k_scaled",
    "struve_l",
    "s_integral",
    "c_integral",
    "l_integral",
    "ratio_bounds_check",
    "RatioBoundsResult",
]

_LOG2 = math.log(2.0)
# the Bessel K trapezoid stops where its integrand has decayed by exp(-45)
_K_DECAY = 45.0
# ... and before u = 709, where 1 - cosh u is still a finite double; x below
# ~1e-291 would need a longer rule and is unsupported
_K_U_MAX = 709.0
# no rule runs more nodes: up to the cut at _K_U_MAX a step of 1/16 takes
# ~11k; only a large order at large x asks for more
_K_MAX_NODES = 1 << 16
# exponents are floored here before exp, whose results below ~1e-308 take a
# slow path; exp(-700) is < 1e-300 of the u = 0 node, which contributes 1
_K_EXP_FLOOR = -700.0


# the ascending series of I_nu runs up to here; bessel_i_scaled goes on with
# the asymptotic expansion where nu^2 <= x, and with the series, whose length
# grows like x, up to _I_SERIES_LIMIT
_I_SERIES_MAX = 700.0
_I_SERIES_LIMIT = 1e4


def _check_order(nu: float, what: str):
    if not math.isfinite(nu):
        raise DomainError(f"{what} requires a finite order")


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise NumericError(f"{what} overflows a float")
    return value


# ----------------------------------------------------------------------
# modified Bessel I


def _log_half(x: float) -> float:
    """log(x / 2), also where x / 2 is not a normal float."""
    half = 0.5 * x
    return math.log(half) if half >= sys.float_info.min else math.log(x) - _LOG2


def _i_series(nu: float, x: float, shift: float = 0.0) -> float:
    """exp(-shift) I_nu(x) from the ascending series."""
    half = _log_half(x)
    peak = 0.5 * x
    jmax = int(peak + 12.0 * math.sqrt(peak + 1.0) + 30.0)
    j = np.arange(jmax + 1, dtype=float)
    a = nu + j + 1.0
    lt = (2.0 * j + nu) * half - gammaln(j + 1.0) - gammaln(a)
    sg = gammasgn(a)
    finite = lt[np.isfinite(lt)]
    if finite.size == 0:
        raise NumericError(f"bessel_i series degenerate at nu={nu}, x={x}")
    m = float(np.max(finite))
    # Gamma poles in the order shift kill their terms (lt = -inf there)
    terms = np.where(np.isfinite(lt), sg * np.exp(lt - m), 0.0)
    s = float(np.sum(terms))
    tail = lt[-1] - m
    if math.isfinite(tail) and tail > -37.0:
        raise NumericError(f"bessel_i series truncated too early at nu={nu}, x={x}")
    if s <= 0.0:
        raise NumericError(f"bessel_i series lost its sign at nu={nu}, x={x}")
    try:
        return math.exp(m - shift + math.log(s))
    except OverflowError:
        raise NumericError(f"bessel_i overflows a float at nu={nu}, x={x}") from None


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function of the first kind I_nu(x), real order.

    Accurate to ~1e-12 relative for nu in [-1, 10] and x in (0, 700).
    """
    _check_order(nu, "bessel_i")
    if not 0.0 <= x < math.inf:
        raise DomainError("bessel_i requires finite x >= 0")
    if x == 0.0:
        if nu == 0.0:
            return 1.0
        if nu > 0.0:
            return 0.0
        raise DomainError("I_nu(0) diverges for nu < 0")
    if x > _I_SERIES_MAX:
        raise NumericError("bessel_i overflows for x > 700; use bessel_i_scaled")
    return _i_series(nu, x)


def _i_scaled_asymptotic(nu: float, x: float) -> float:
    """exp(-x) I_nu(x) for x > _I_SERIES_MAX and nu^2 <= x by Hankel's
    expansion 1/sqrt(2 pi x) sum_k (-1)^k a_k(nu) / x^k,
    a_k = prod_{i<=k} (4 nu^2 - (2i - 1)^2) / (k! 8^k); the exponentially
    small part is below exp(-2x) relative.  Under these bounds the terms
    fall below 1e-17 of the sum long before the series turns to diverge."""
    mu = 4.0 * nu * nu
    term, total = 1.0, 1.0
    for k in range(1, 200):
        term *= -(mu - (2.0 * k - 1.0) ** 2) / (8.0 * k * x)
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    return total / (math.sqrt(2.0 * math.pi) * math.sqrt(x))


def bessel_i_scaled(nu: float, x: float) -> float:
    """exp(-x) * I_nu(x), safe against overflow for large x.

    The ascending series up to x = 700; beyond, Hankel's asymptotic
    expansion where nu^2 <= x, and elsewhere the series, whose length grows
    like x, up to x = 1e4 (``UnsupportedRangeError`` beyond).
    """
    _check_order(nu, "bessel_i_scaled")
    if not 0.0 < x < math.inf:
        raise DomainError("bessel_i_scaled requires finite x > 0")
    if x > _I_SERIES_MAX and nu * nu <= x:
        return _i_scaled_asymptotic(nu, x)
    if x > _I_SERIES_LIMIT:
        raise UnsupportedRangeError(
            f"bessel_i_scaled beyond x = {_I_SERIES_LIMIT:g} needs nu^2 <= x")
    return _i_series(nu, x, x)


# ----------------------------------------------------------------------
# modified Bessel K


def _log_cosh(t):
    t = np.abs(t)
    return t + np.log1p(np.exp(-2.0 * t)) - _LOG2


def _k_cutoff(nu: float, x, asinh, any_):
    """Smallest u with x (cosh u - 1) - nu u >= _K_DECAY, padded by 5%.

    Its half v = u/2 is the fixed point of v = asinh(sqrt((_K_DECAY / 2 + nu v) / x)),
    free of the cancellation of acosh(1 + y) once 1 + y rounds to 1.  From
    v = 0 the steps rise to it, each closer by the factor nu / (x sinh u),
    which is below tanh(u/2) / u < 1/2 at the fixed point, and stop once a
    step moves v by at most 1e-6 of it.  x is a float, with (asinh, any_) =
    (math.asinh, bool), or an array, with (np.arcsinh, np.any), which differ
    in the last bit, so each path keeps its own.  The callers add 0.25, or
    beyond x = 1024 a few widths 8/sqrt(x) of the integrand's peak.
    """
    a, c = 0.5 * _K_DECAY / x, nu / x
    v = 0.0
    while True:
        step = asinh((a + c * v) ** 0.5)
        if not any_(step - v > 1e-6 * step):
            return 2.1 * step
        v = step


def _k_unsupported(nu: float):
    return UnsupportedRangeError(
        f"bessel_k at nu={nu} needs a trapezoid cut beyond u = {_K_U_MAX:g}: x is too small"
    )


def _k_too_long(nu: float):
    return UnsupportedRangeError(
        f"bessel_k at nu={nu} needs more than {_K_MAX_NODES} trapezoid nodes: nu is too "
        "large for x")


@lru_cache(maxsize=64)
def _k_table(nu: float, level: int, size: int):
    """The x-free factors of the trapezoid nodes u_j = j 2^-level,
    j = 0..size: 1 - cosh u_j = -2 sinh^2(u_j/2), exact near u = 0, and
    log cosh(nu u_j).  The nodes stop at _K_U_MAX, which no cut passes, so
    both stay finite.  Read-only: every call with the same key shares them."""
    u = np.arange(min(size, int(_K_U_MAX * 2 ** level)) + 1) * 2.0 ** -level
    tables = (-2.0 * np.sinh(0.5 * u) ** 2, _log_cosh(nu * u))
    for t in tables:
        t.flags.writeable = False
    return tables


def _k_trapezoid(nu: float, x: float) -> float:
    """exp(x) K_nu(x) at a float x > 0."""
    nu = abs(nu)
    cut = _k_cutoff(nu, x, math.asinh, bool) + min(0.25, 8.0 / math.sqrt(x))
    if not cut <= _K_U_MAX:
        raise _k_unsupported(nu)
    # the step 2^-level is the largest power of two <= min(1/16, 1/(2 sqrt x)),
    # read exactly off the binary exponent of 4x
    m, e = math.frexp(x)
    level = max(4, (e + 3 - (m == 0.5)) // 2)
    n = max(80, math.ceil(math.ldexp(cut, level)))
    if n > _K_MAX_NODES:
        raise _k_too_long(nu)
    sinh2, logcosh = _k_table(nu, level, 1 << (n - 1).bit_length())
    expo = x * sinh2[:n + 1] + logcosh[:n + 1]
    f = np.exp(np.maximum(expo, _K_EXP_FLOOR, out=expo), out=expo)
    val = math.ldexp(float(f.sum()) - 0.5 * float(f[0] + f[n]), -level)
    if not math.isfinite(val):
        raise NumericError(f"bessel_k overflow at nu={nu}, x={x}")
    return val


def _k_trapezoid_array(nu: float, x):
    """exp(x) K_nu(x) at every entry of the 1-D array x: the rule of
    ``_k_trapezoid``, run on the rows that share a node table at once."""
    nu = abs(nu)
    # x < ~1e-307: an infinite cut (inf - inf in the steps after), refused below
    with np.errstate(over="ignore", invalid="ignore"):
        cut = _k_cutoff(nu, x, np.arcsinh, np.any) + np.minimum(0.25, 8.0 / np.sqrt(x))
    if not np.all(cut <= _K_U_MAX):
        raise _k_unsupported(nu)
    m, e = np.frexp(x)
    level = np.maximum(4, (e + 3 - (m == 0.5)) // 2)
    n = np.maximum(80, np.ceil(np.ldexp(cut, level)))
    if not np.all(n <= _K_MAX_NODES):
        raise _k_too_long(nu)
    n = n.astype(np.int64)
    # rows of one (level, size) share a table, size = 2^bits >= n
    key = 64 * level + np.frexp(n - 1)[1]
    out = np.empty_like(x)
    for k in np.unique(key).tolist():
        lv, bits = divmod(k, 64)
        rows = np.flatnonzero(key == k)
        top = int(n[rows].max()) + 1
        sinh2, logcosh = (t[:top] for t in _k_table(nu, lv, 1 << bits))
        j = np.arange(top)
        chunk = max(1, NODE_BUDGET // top)
        for s in range(0, rows.size, chunk):
            r = rows[s:s + chunk]
            nr = n[r]
            expo = x[r, None] * sinh2 + logcosh
            f = np.exp(np.maximum(expo, _K_EXP_FLOOR, out=expo), out=expo)
            f[j > nr[:, None]] = 0.0  # each row is its scalar rule: no node past n
            ends = f[:, 0] + f[np.arange(r.size), nr]
            out[r] = np.ldexp(f.sum(axis=1) - 0.5 * ends, -lv)
    if not np.all(np.isfinite(out)):
        raise NumericError(f"bessel_k overflow at nu={nu}")
    return out


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind K_nu(x); even in nu.

    nu must be finite and x finite and positive (``DomainError`` otherwise);
    x below ~1e-291, whose rule would run past u = 709, and a large order at
    large x, whose rule would need more than 2^16 nodes, raise
    ``UnsupportedRangeError``.  K_nu underflows to 0 beyond x ~ 745.
    """
    _check_order(nu, "bessel_k")
    if not 0.0 < x < math.inf:
        raise DomainError("bessel_k requires finite x > 0")
    return _k_trapezoid(nu, x) * math.exp(-x)


def bessel_k_scaled(nu: float, x):
    """exp(x) * K_nu(x), stable for arbitrarily large x.

    The trapezoid rule on the nodes j 2^-level (see the module docstring),
    with the step 2^-level <= min(1/16, 1/(2 sqrt x)) and at least 80 steps
    up to the cut where the integrand has decayed by exp(-45).  x may be a
    numpy array; its entries then run through the same node tables in
    batches, and agree with the scalar path to a few ulp.  Every entry must be
    finite and positive (``DomainError``); an empty array gives an empty
    array.  The ranges of ``bessel_k`` apply.
    """
    _check_order(nu, "bessel_k_scaled")
    if isinstance(x, np.ndarray):
        x = x.astype(float, copy=False)
        if not np.all((x > 0.0) & (x < np.inf)):
            raise DomainError("bessel_k_scaled requires finite x > 0")
        return _k_trapezoid_array(nu, x.ravel()).reshape(x.shape)
    if not 0.0 < x < math.inf:
        raise DomainError("bessel_k_scaled requires finite x > 0")
    return _k_trapezoid(nu, x)


# ----------------------------------------------------------------------
# modified Struve L


def struve_l(nu: float, x: float) -> float:
    """Modified Struve function L_nu(x) by compensated series summation.

    Supported for x in (0, 30]; larger arguments raise UnsupportedRangeError.
    """
    _check_order(nu, "struve_l")
    if not 0.0 <= x < math.inf:
        raise DomainError("struve_l requires finite x >= 0")
    if x > 30.0:
        raise UnsupportedRangeError("struve_l supports x <= 30 only")
    if x == 0.0:
        if nu > -1.0:
            return 0.0
        raise DomainError("L_nu(0) diverges for nu <= -1")
    half = _log_half(x)
    peak = 0.5 * x
    jmax = int(peak + 12.0 * math.sqrt(peak + 1.0) + 30.0)
    j = np.arange(jmax + 1, dtype=float)
    b = nu + j + 1.5
    lt = (2.0 * j + nu + 1.0) * half - gammaln(j + 1.5) - gammaln(b)
    with np.errstate(over="ignore"):
        terms = np.where(np.isfinite(lt), gammasgn(b) * np.exp(lt), 0.0)
    try:
        total = math.fsum(terms.tolist())
    except (OverflowError, ValueError):  # fsum of terms past the float range
        total = math.inf
    if not math.isfinite(total):
        raise NumericError(f"struve_l overflows a float at nu={nu}, x={x}")
    return total


# ----------------------------------------------------------------------
# integral families S, C, L


def _check_sc_order(k: int, nu: float):
    if k < 0 or k != int(k):
        raise DomainError("k must be a nonnegative integer")
    for j in range(k + 1):
        if abs(k + 1 + j - 2.0 * nu) < 1e-12:
            # excluded superset: every vanishing factor of the denominators,
            # not only nu = k + 1/2
            raise DomainError(
                f"s/c_integral undefined at nu={nu} (factor k+1+{j}-2nu vanishes)"
            )


def _sc_sum(k: int, nu: float, rho: float, cosh_variant: bool) -> float:
    _check_sc_order(k, nu)
    if rho <= 0.0:
        raise DomainError("rho must be positive")
    i_plus = bessel_i(0.5, rho)
    i_minus = bessel_i(-0.5, rho)
    what = f"{'c' if cosh_variant else 's'}_integral at nu={nu}, rho={rho}"
    try:
        pref = math.sqrt(0.5 * math.pi) * rho ** (k + 1.5 - nu)
    except OverflowError:
        raise NumericError(f"{what} overflows a float") from None
    coef = 1.0
    total = 0.0
    for j in range(k + 1):
        if j == 0:
            coef = 1.0 / (k + 1.0 - 2.0 * nu)
        else:
            coef *= -(k - j + 1.0) / (k + 1.0 + j - 2.0 * nu)
        k1 = bessel_k(nu - j, rho)
        k2 = bessel_k(nu - j - 1.0, rho)
        even = (j % 2 == 0)
        if cosh_variant:
            pair = k1 * (i_minus if even else i_plus) + k2 * (i_plus if even else i_minus)
        else:
            pair = k1 * (i_plus if even else i_minus) + k2 * (i_minus if even else i_plus)
        total += coef * pair
    return _finite(pref * total, what)


def s_integral(k: int, nu: float, rho: float) -> float:
    """Antiderivative of rho^(k-nu) K_nu(rho) sinh(rho), finite Bessel sum."""
    return _sc_sum(k, nu, rho, cosh_variant=False)


def c_integral(k: int, nu: float, rho: float) -> float:
    """Antiderivative of rho^(k-nu) K_nu(rho) cosh(rho), finite Bessel sum."""
    return _sc_sum(k, nu, rho, cosh_variant=True)


def l_integral(two_k: int, nu: float, rho: float) -> float:
    """Antiderivative of rho^(2k-nu) K_nu(rho); K/Struve boundary form.

    ``two_k`` must be an even nonnegative integer; rho <= 30 (Struve range).
    """
    if two_k < 0 or two_k % 2 != 0:
        raise DomainError("l_integral requires an even nonnegative power 2k")
    _check_order(nu, "l_integral")
    if not 0.0 < rho < math.inf:
        raise DomainError("rho must be positive and finite")
    if rho > 30.0:
        raise UnsupportedRangeError("l_integral supports rho <= 30 (Struve range)")
    k = two_k // 2
    arg = 0.5 - nu + k
    if arg <= 0.0 and abs(arg - round(arg)) < 1e-12:
        raise DomainError(f"l_integral undefined at nu={nu} (Gamma pole)")
    what = f"l_integral at nu={nu}, rho={rho}"
    try:
        total = 0.0
        for j in range(k):
            coef = (
                math.factorial(2 * k) * math.factorial(k - j)
                / (2.0 ** j * math.factorial(k) * math.factorial(2 * k - 2 * j))
            )
            total -= coef * rho ** (2 * k - j - nu) * bessel_k(nu - 1.0 - j, rho)
        boundary = (
            math.sqrt(math.pi) * math.gamma(arg) * 2.0 ** (k - nu - 1.0)
            * math.factorial(2 * k) / (2.0 ** k * math.factorial(k))
        )
    except OverflowError:
        raise NumericError(f"{what} overflows a float") from None
    total += boundary * rho * (
        bessel_k(k - nu, rho) * struve_l(k - nu - 1.0, rho)
        + bessel_k(k - nu - 1.0, rho) * struve_l(k - nu, rho)
    )
    return _finite(total, what)


# ----------------------------------------------------------------------
# ratio bounds


class RatioBoundsResult:
    """Outcome of the Bessel ratio-bound checks, with residual margins."""

    def __init__(self, nu, x, i_lhs, i_rhs, k_lhs, k_rhs):
        self.nu = nu
        self.x = x
        self.i_lhs = i_lhs
        self.i_rhs = i_rhs
        self.k_lhs = k_lhs
        self.k_rhs = k_rhs
        self.i_ok = None if i_lhs is None else bool(i_lhs < i_rhs)
        # the K bound is attained with equality at nu = 1/2; allow float noise
        self.k_ok = (
            None if k_lhs is None
            else bool(k_lhs <= k_rhs + 1e-12 * max(1.0, abs(k_rhs)))
        )

    def __bool__(self):
        return all(ok for ok in (self.i_ok, self.k_ok) if ok is not None)

    def __repr__(self):
        return (
            f"RatioBoundsResult(nu={self.nu}, x={self.x}, "
            f"i_ok={self.i_ok}, k_ok={self.k_ok})"
        )


def ratio_bounds_check(nu: float, x: float) -> RatioBoundsResult:
    """Check I_{nu+1/2}/I_{nu-1/2} < x/(sqrt(x^2+nu^2)+nu)   (nu >= 0)
    and   K_nu/K_{nu+1} <= x/(sqrt(x^2+(nu-1/2)^2)+nu+1/2)   (nu >= 1/2)."""
    if x <= 0.0:
        raise DomainError("ratio_bounds_check requires x > 0")
    if nu < 0.0:
        raise DomainError("ratio_bounds_check requires nu >= 0")
    i_lhs = bessel_i(nu + 0.5, x) / bessel_i(nu - 0.5, x)
    i_rhs = x / (math.hypot(x, nu) + nu)
    if nu >= 0.5:
        k_lhs = bessel_k(nu, x) / bessel_k(nu + 1.0, x)
        k_rhs = x / (math.hypot(x, nu - 0.5) + nu + 0.5)
    else:
        k_lhs = k_rhs = None
    return RatioBoundsResult(nu, x, i_lhs, i_rhs, k_lhs, k_rhs)
