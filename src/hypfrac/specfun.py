"""Modified Bessel and Struve functions of real order, and the closed-form
indefinite-integral families built from them.

The evaluators are self-contained:

* ``bessel_i`` and ``struve_l`` share one ascending-series core: each term is
  its neighbour times a rational ratio, from the largest term in magnitude,
  which carries the scale and the sign (in log space, where it is not a
  float: ``math.lgamma`` at the first term off the poles, and the ratios up
  to the largest as one product in binary exponents and mantissas).  For
  I at nu >= -1 the terms are nonnegative: no cancellation on x in (0, ~700];
  below, where they may alternate, a sum under 1e-3 of the largest term is
  refused;
  ``bessel_i_scaled`` goes on beyond 700 with Hankel's expansion where
  nu^2 <= x.  L sums its terms, of either sign at negative orders, by fsum.
  ``bessel_i`` takes the orders of the scale functions, -1/2, 1/2, 3/2 and
  5/2, in elementary form (``_i_half_integer``), not by the series.
* ``bessel_k`` sums Hankel's expansion for x >= 20 where nu^2 <= x: one sum,
  ``_hankel``, serves I and K, which share its coefficients, and a float x
  and an array of x alike, bit for bit.  Its length is fixed per order, that
  of the smallest x it serves, and it is nested from the inside.  Elsewhere
  it integrates exp(-x (cosh u - 1)) cosh(nu u) du, which is exp(x) K_nu(x),
  with the trapezoid rule.  The rule converges geometrically for this
  analytic, double-exponentially decaying integrand (Trefethen and Weideman,
  SIAM Review 56, 2014).  Its step is the power of two 2^-level <= min(1/16,
  1/(2 sqrt x)), shrinking like 1/sqrt(x) so that the Laplace peak stays
  resolved at large x, and its nodes u_j = j 2^-level are therefore shared by
  every x of one level.  The x-free factors 1 - cosh u_j and log cosh(nu u_j)
  sit in a bounded cache of tables, one per (|nu|, level, power-of-two
  length), built on first use; an evaluation costs one multiply-add, one
  ``exp`` and one sum per node.  Arrays of x run through the same tables,
  rows of one table together, in a batch form of the rule that stays apart
  from the float form: it costs ~10 times as much for a single x, and the
  barrier operators call both.  A rule longer than 2^16 nodes (a large order
  at large x) is refused.

``s_integral``/``c_integral``/``l_integral`` evaluate the finite Bessel(-
Struve) sums for the antiderivatives of rho^(k-nu) K_nu(rho) {sinh, cosh, 1}.

Every public function returns a finite float or raises a ``HypfracError``;
it takes a numpy scalar as the float it holds, by the input policy of
``errors``.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericError, UnsupportedRangeError, finite, nonnegative, positive
from .quadrature import NODE_BUDGET, _sorted_unique

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
# above this exponent exp, or the sum of up to _K_MAX_NODES + 1 nodes, may
# overflow: log(float max) = 709.78 less log(_K_MAX_NODES + 1) = 11.09.  No
# exponent exceeds nu times the last node, so only a large order at small x
# looks at them
_K_EXP_MAX = 698.0
# Hankel's expansion of K serves x from here on where nu^2 <= x: its terms
# then fall below _HANKEL_STOP of the sum within 24 terms, long before
# k ~ 2x, where they would turn to grow
_K_HANKEL_MIN = 20.0
# eps / 4: Hankel's expansion runs until a term falls below this of its sum
_HANKEL_STOP = 2.0 ** -54
# sqrt(pi / 2x) as this over sqrt(x): 2x overflows, and pi / 2x is subnormal,
# near the top of the float range
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)


# the ascending series of I_nu runs up to here; bessel_i_scaled goes on with
# the asymptotic expansion where nu^2 <= x, and with the series, whose length
# grows like x, up to _I_SERIES_LIMIT
_I_SERIES_MAX = 700.0
_I_SERIES_LIMIT = 1e4
# bessel_i takes these orders in elementary form (``_i_half_integer``), 3/2
# and 5/2 from this x on, and below it by their series
_I_HALF_INTEGER_ORDERS = (-0.5, 0.5, 1.5, 2.5)
_I_ELEMENTARY_MIN = 4.0
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


# beyond this order, nu log(x / 2) in the series may overflow a float
_MAX_ORDER = 1e300
# no series runs more terms: x = 1e4 takes ~6.2k; only an order far below 0
# asks for more
_SERIES_MAX_TERMS = 1 << 16
# the series takes its terms directly from the largest, t_k, where t_k is a
# normal float this far above the subnormals: a subnormal term then errs by
# at most 2^-75 of t_k, and the 2^16 terms of the longest series by less
# than 2^-59; below, it works in log space, at a cost of ~eps |log t_k|
_TERM_FLOOR = 2.0 ** -1000
# below nu = -1 the terms of I may alternate in sign: a sum below this
# fraction of the largest |term| has lost more than three digits to
# cancellation, and is refused
_I_CANCELLATION = 1e-3


def _check_order(nu: float, what: str) -> float:
    """nu as a finite float, once it is within the supported orders."""
    nu = finite(nu, "nu")
    if abs(nu) > _MAX_ORDER:
        raise UnsupportedRangeError(f"{what} supports orders |nu| <= {_MAX_ORDER:g}")
    return nu


def _finite(value, what: str):
    """value, a float or an array, once every entry is finite."""
    if not (np.isfinite(value).all() if isinstance(value, np.ndarray) else math.isfinite(value)):
        raise NumericError(f"{what} overflows a float")
    return value


# ----------------------------------------------------------------------
# modified Bessel I


def _series(x: float, p: float, q: float, s: float):
    """The terms t_j = (x/2)^(2j+p) / (Gamma(j+q) Gamma(j+s)), j < n, of the
    ascending series of I (DLMF 10.25.2) and L (11.2.2), as (c, t_j e^-c):
    products of the ratios (x/2)^2 / ((j+q)(j+s)) up and down from the
    largest |t_k|.  Below j = -s, Gamma(j+s) has a pole at each integer,
    where 1/Gamma and the term vanish, and between them alternates in sign:
    at s < 0 the terms run past -s as far as they run past x/2 elsewhere, and
    at a non-integer s < 0, where none vanishes and |t_j| may peak on either
    side of -s, k is the largest by the cumulative sum of log|ratio|.
    c = 0 where pow and gamma give t_k and every term is a float; else c is
    log|t_k| = log|t_k0| - log|t_k0 / t_k|: the first by lgamma (log|Gamma|)
    at the first index k0 off the poles, the second from the product of the
    ratios between, in binary exponents and mantissas (``_log_abs_prod``),
    so that no large logarithm is rounded on the way; the sign of Gamma(z) at
    z < 0 is (-1)^(floor(-z)+1).
    """
    half = 0.5 * x
    n = max(0, math.ceil(-s)) + int(half + 12.0 * math.sqrt(half + 1.0) + 30.0) + 1
    if n > _SERIES_MAX_TERMS:
        raise NumericError(f"series at x={x} needs more than {_SERIES_MAX_TERMS} terms")
    j = np.arange(n - 1, dtype=float)
    if s < 0.0 and s != math.floor(s):
        log_ratio = 2.0 * (math.log(x) - _LOG2) - np.log(j + q) - np.log(np.abs(j + s))
        k = int(np.argmax(np.concatenate(([0.0], np.cumsum(log_ratio)))))
    else:
        k = max(0, int(math.hypot(half, 0.5 * (q - s)) - 0.5 * (q + s)), math.floor(-s) + 1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        down = (j[:k] + s) / half * (j[:k] + q) / half  # t_j / t_(j+1)
        below = down[::-1].cumprod()[::-1]
        top = np.abs(below).max(initial=1.0)
    if not top < 1e300:
        raise NumericError(f"series terms at x={x} leave the float range")
    terms = np.concatenate((below, [1.0], (half * half / ((j[k:] + q) * (j[k:] + s))).cumprod()))
    try:
        tk = half ** (2 * k + p) / math.gamma(k + q) / math.gamma(k + s)
    except ArithmeticError:  # out of the float range, or 0 ** (2k + p < 0)
        tk = 0.0
    if _TERM_FLOOR <= abs(tk) < 1e300 / top:
        return 0.0, tk * terms
    if k + s < 0.0 and math.floor(-(k + s)) % 2 == 0:
        terms = -terms
    k0 = max(0, math.floor(-s) + 1) if s == math.floor(s) else 0
    c0 = (2 * k0 + p) * (math.log(x) - _LOG2) - math.lgamma(k0 + q) - math.lgamma(k0 + s)
    return c0 - _log_abs_prod(down[k0:]), terms


def _log_abs_prod(f) -> float:
    """log|prod f| of nonzero finite floats, exact in the binary exponents:
    the mantissas, in [1/2, 1), are multiplied in runs too short to
    underflow, so the only roundings are one per factor and the last log."""
    mant, expo = np.frexp(f)
    e = int(expo.sum())
    m = 1.0
    for i in range(0, mant.size, 1000):
        m, b = math.frexp(m * float(np.prod(mant[i:i + 1000])))
        e += b
    return e * _LOG2 + math.log(abs(m))


def _i_series(nu: float, x: float, shift: float = 0.0) -> float:
    """exp(-shift) I_nu(x) from the ascending series."""
    c, terms = _series(x, nu, 1.0, nu + 1.0)
    s = float(terms.sum())
    if not abs(s) > _I_CANCELLATION * float(np.abs(terms).max()):
        raise NumericError(f"bessel_i series cancels at nu={nu}, x={x}")
    if abs(terms[-1]) > math.exp(-37.0) * abs(s):
        raise NumericError(f"bessel_i series truncated too early at nu={nu}, x={x}")
    try:
        return _finite(s * math.exp(c - shift), f"bessel_i at nu={nu}, x={x}")
    except OverflowError:
        raise NumericError(f"bessel_i overflows a float at nu={nu}, x={x}") from None


def _i_half_integer(nu: float, x: float) -> float:
    """I_nu(x), x > 0, at nu = -1/2, 1/2, 3/2 or 5/2, in elementary form:
    sqrt(2 / (pi x)) {cosh x, sinh x} (DLMF 10.39.1); from x = 4 on,
    I_3/2 = I_-1/2 - I_1/2 / x and I_5/2 = I_1/2 - (3 / x) I_3/2
    (10.29.1), which cancel less than 1 bit at 3/2 and 2.2 bits at 5/2;
    below 4, sqrt(2 x / pi) x^n / (2n + 1)!! times the series
    1 + x^2 / (2 (2n + 3)) (1 + x^2 / (4 (2n + 5)) (1 + ...)) of n = 1, 2
    (10.25.2), nested from the inside: its terms are positive, and 16 of
    them reach 2^-54 of the sum at x = 4."""
    root = math.sqrt(x)
    if nu == 0.5:
        return _SQRT_2_OVER_PI * math.sinh(x) / root
    if nu == -0.5:
        return _SQRT_2_OVER_PI * math.cosh(x) / root
    if x >= _I_ELEMENTARY_MIN:
        i32 = _SQRT_2_OVER_PI * (math.cosh(x) - math.sinh(x) / x) / root
        if nu == 1.5:
            return i32
        return _SQRT_2_OVER_PI * math.sinh(x) / root - 3.0 / x * i32
    n = 1 if nu == 1.5 else 2
    x2 = x * x
    rest = 1.0
    for k in range(16, 0, -1):
        rest = 1.0 + x2 / (2 * k * (2 * k + 2 * n + 1)) * rest
    lead = x * root * _SQRT_2_OVER_PI / 3.0
    return lead * rest if n == 1 else lead * x / 5.0 * rest


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function of the first kind I_nu(x), real order.

    At nu = -1/2, 1/2, 3/2 and 5/2, the orders of the scale functions, in
    elementary form, to ~5e-16 relative; elsewhere by the ascending series,
    accurate to ~1e-15 at small x and ~1e-13 near x = 700 for nu in [-1, 10].
    """
    nu, x = _check_order(nu, "bessel_i"), nonnegative(x, "x")
    if x == 0.0:
        if nu == 0.0:
            return 1.0
        if nu > 0.0:
            return 0.0
        raise DomainError("I_nu(0) diverges for nu < 0")
    if x > _I_SERIES_MAX:
        raise NumericError("bessel_i overflows for x > 700; use bessel_i_scaled")
    if nu in _I_HALF_INTEGER_ORDERS:
        return _i_half_integer(nu, x)
    return _i_series(nu, x)


@lru_cache(maxsize=64)
def _hankel_ratios(nu: float, sign: float) -> tuple:
    """The term ratios c_k = sign (nu - h)((nu + h) / 2k), h = k - 1/2, of
    Hankel's expansion at the order nu >= 0, innermost first: as many as
    its smallest argument, max(20, nu^2) for K (sign +1) and max(700, nu^2)
    for I (sign -1), needs for a term to fall below _HANKEL_STOP of the sum
    (at most 24), or up to the zero that ends the sum at a half-integer nu.
    Each product stays below nu^2, so none overflows at a large order."""
    x = max(_K_HANKEL_MIN if sign > 0.0 else _I_SERIES_MAX, nu * nu)
    ratios = []
    term = total = 1.0
    while abs(term) > _HANKEL_STOP * abs(total):
        k = len(ratios) + 1
        h = k - 0.5
        c = sign * (nu - h) * ((nu + h) / (2.0 * k))
        if c == 0.0:
            break
        ratios.append(c)
        term *= c / x
        total += term
    return tuple(reversed(ratios))


def _hankel(nu: float, x, sign: float):
    """Hankel's expansion, exp(x) K_nu(x) = sqrt(pi / 2x) sum_k a_k(nu) / x^k
    at sign +1 (DLMF 10.40.2) and exp(-x) I_nu(x) = sum_k (-1)^k a_k(nu) / x^k
    / sqrt(2 pi x) at sign -1 (10.40.1), a_k = a_(k-1) (4 nu^2 - (2k - 1)^2)
    / 8k, for x >= _K_HANKEL_MIN and nu^2 <= x.  The exponentially small part
    is below exp(-2x) relative.  The sum has a fixed length per (nu, sign),
    that of its smallest x, and is nested from the inside,
    1 + (c_1 / x)(1 + (c_2 / x)(1 + ...)): x is a float, or a 1-D array
    whose entries take the same operations, bit for bit."""
    total = 1.0
    for c in _hankel_ratios(nu, sign):
        total = 1.0 + (c / x) * total
    root = np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)
    if sign > 0.0:
        return total * (_SQRT_HALF_PI / root)
    return total / (math.sqrt(2.0 * math.pi) * root)


def bessel_i_scaled(nu: float, x: float) -> float:
    """exp(-x) * I_nu(x), safe against overflow for large x.

    The ascending series up to x = 700; beyond, Hankel's asymptotic
    expansion where nu^2 <= x, and elsewhere the series, whose length grows
    like x, up to x = 1e4 (``UnsupportedRangeError`` beyond).
    """
    nu, x = _check_order(nu, "bessel_i_scaled"), positive(x, "x")
    if x > _I_SERIES_MAX and nu * nu <= x:
        return _hankel(abs(nu), x, -1.0)
    if x > _I_SERIES_LIMIT:
        raise UnsupportedRangeError(
            f"bessel_i_scaled beyond x = {_I_SERIES_LIMIT:g} needs nu^2 <= x")
    return _i_series(nu, x, x)


# ----------------------------------------------------------------------
# modified Bessel K


def _log_cosh(t):
    t = np.abs(t)
    return t + np.log1p(np.exp(-2.0 * t)) - _LOG2


def _k_cutoff(nu: float, x):
    """Smallest u with x (cosh u - 1) - nu u >= _K_DECAY, padded by 5%.

    Its half v = u/2 is the fixed point of v = asinh(sqrt((_K_DECAY / 2 + nu v) / x)),
    free of the cancellation of acosh(1 + y) once 1 + y rounds to 1.  From
    v = 0 the steps rise to it, each closer by the factor nu / (x sinh u),
    which is below tanh(u/2) / u < 1/2 at the fixed point, and stop once a
    step moves v by at most 1e-6 of it.  x is a float, which takes
    ``math.asinh``, or an array, which takes ``np.arcsinh``: the two differ
    in the last bit, so each path keeps its own.  The callers add 0.25, or
    beyond x = 1024 a few widths 8/sqrt(x) of the integrand's peak.
    """
    batch = isinstance(x, np.ndarray)
    asinh = np.arcsinh if batch else math.asinh
    a, c = 0.5 * _K_DECAY / x, nu / x
    v = 0.0
    while True:
        step = asinh((a + c * v) ** 0.5)
        moved = step - v > 1e-6 * step
        if not (moved.any() if batch else moved):
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


def _k_scaled(nu: float, x):
    """exp(x) K_nu(x) at a float x > 0, or at every entry of a 1-D array x:
    Hankel's expansion where it serves, else the trapezoid rule."""
    nu = abs(nu)
    hankel = (x >= _K_HANKEL_MIN) & (nu * nu <= x)
    if not isinstance(x, np.ndarray):
        return _hankel(nu, x, 1.0) if hankel else _k_trapezoid(nu, x)
    out = np.empty_like(x)
    if hankel.any():
        out[hankel] = _hankel(nu, x[hankel], 1.0)
    if not hankel.all():
        out[~hankel] = _k_trapezoid_array(nu, x[~hankel])
    return out


def _k_trapezoid(nu: float, x: float) -> float:
    """exp(x) K_nu(x) at a float x > 0, nu >= 0, by the trapezoid rule."""
    cut = _k_cutoff(nu, x) + min(0.25, 8.0 / math.sqrt(x))
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
    if nu * math.ldexp(n, -level) > _K_EXP_MAX and expo.max() > _K_EXP_MAX:
        raise NumericError(f"bessel_k overflow at nu={nu}, x={x}")
    f = np.exp(np.maximum(expo, _K_EXP_FLOOR, out=expo), out=expo)
    return math.ldexp(float(f.sum()) - 0.5 * float(f[0] + f[n]), -level)


def _k_trapezoid_array(nu: float, x):
    """exp(x) K_nu(x) at every entry of the 1-D array x, nu >= 0: the rule of
    ``_k_trapezoid``, run on the rows that share a node table at once.  The
    float rule stays a separate form: one x through this one costs 73-83 us,
    against 7-12 us there, and both serve the barrier operators, with ~4
    float calls and ~2 batches of ~190 entries per barrier-sweep task."""
    # x < ~1e-307: an infinite cut (inf - inf in the steps after), refused below
    with np.errstate(over="ignore", invalid="ignore"):
        cut = _k_cutoff(nu, x) + np.minimum(0.25, 8.0 / np.sqrt(x))
    if not np.all(cut <= _K_U_MAX):
        raise _k_unsupported(nu)
    m, e = np.frexp(x)
    level = np.maximum(4, (e + 3 - (m == 0.5)) // 2)
    n = np.maximum(80, np.ceil(np.ldexp(cut, level)))
    if not np.all(n <= _K_MAX_NODES):
        raise _k_too_long(nu)
    check_max = nu * float(np.ldexp(n, -level).max(initial=0.0)) > _K_EXP_MAX
    n = n.astype(np.int64)
    # rows of one (level, size) share a table, size = 2^bits >= n
    key = 64 * level + np.frexp(n - 1)[1]
    out = np.empty_like(x)
    for k in _sorted_unique(key).tolist():
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
            if check_max and expo.max() > _K_EXP_MAX:
                raise NumericError(f"bessel_k overflow at nu={nu}")
            f = np.exp(np.maximum(expo, _K_EXP_FLOOR, out=expo), out=expo)
            f[j > nr[:, None]] = 0.0  # each row is its scalar rule: no node past n
            ends = f[:, 0] + f[np.arange(r.size), nr]
            out[r] = np.ldexp(f.sum(axis=1) - 0.5 * ends, -lv)
    return out


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind K_nu(x); even in nu.

    nu must be finite and x finite and positive (``DomainError`` otherwise);
    x below ~1e-291, whose rule would run past u = 709, and a large order at
    large x (nu^2 > x), whose rule would need more than 2^16 nodes, raise
    ``UnsupportedRangeError``.  K_nu underflows to 0 beyond x ~ 745.
    """
    nu, x = _check_order(nu, "bessel_k"), positive(x, "x")
    return _k_scaled(nu, x) * math.exp(-x)


def bessel_k_scaled(nu: float, x):
    """exp(x) * K_nu(x), stable for arbitrarily large x.

    For x >= 20 where nu^2 <= x, Hankel's expansion sqrt(pi / 2x)
    sum_k a_k(nu) / x^k, as many terms as take a term below eps/4 of the sum
    at x = max(20, nu^2), the same at every x.  Elsewhere the trapezoid rule
    on the nodes j 2^-level (see the module docstring), with the step
    2^-level <= min(1/16, 1/(2 sqrt x)) and at least 80 steps up to the cut
    where the integrand has decayed by exp(-45).  x may be a numpy array; its entries then take
    the same two routes, the expansion entry by entry, bit for bit as at a
    float, and the rule through the same node tables in batches, within a
    few ulp of the float rule.  Every entry must be finite and positive (``DomainError``); an
    empty array gives an empty array.  The ranges of ``bessel_k`` apply.
    """
    nu = _check_order(nu, "bessel_k_scaled")
    if isinstance(x, np.ndarray):
        x = x.astype(float, copy=False)
        if not np.all((x > 0.0) & (x < np.inf)):
            raise DomainError("bessel_k_scaled requires finite x > 0")
        return _k_scaled(nu, x.ravel()).reshape(x.shape)
    return _k_scaled(nu, positive(x, "x"))


# ----------------------------------------------------------------------
# modified Struve L


def struve_l(nu: float, x: float) -> float:
    """Modified Struve function L_nu(x) by its ascending series, summed exactly.

    Supported for x in (0, 30]; larger arguments raise UnsupportedRangeError.
    """
    nu, x = _check_order(nu, "struve_l"), nonnegative(x, "x")
    if x > 30.0:
        raise UnsupportedRangeError("struve_l supports x <= 30 only")
    if x == 0.0:
        if nu > -1.0:
            return 0.0
        raise DomainError("L_nu(0) diverges for nu <= -1")
    c, terms = _series(x, nu + 1.0, 1.5, nu + 1.5)
    try:
        return _finite(math.fsum(terms.tolist()) * math.exp(c), f"struve_l at nu={nu}, x={x}")
    except OverflowError:
        raise NumericError(f"struve_l overflows a float at nu={nu}, x={x}") from None


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
    nu = float(nu)
    _check_sc_order(k, nu)
    rho = positive(rho, "rho")
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
    nu, rho = _check_order(nu, "l_integral"), positive(rho, "rho")
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
    x, nu = positive(x, "x"), nonnegative(nu, "nu")
    i_lhs = bessel_i(nu + 0.5, x) / bessel_i(nu - 0.5, x)
    i_rhs = x / (math.hypot(x, nu) + nu)
    if nu >= 0.5:
        k_lhs = bessel_k(nu, x) / bessel_k(nu + 1.0, x)
        k_rhs = x / (math.hypot(x, nu - 0.5) + nu + 0.5)
    else:
        k_lhs = k_rhs = None
    return RatioBoundsResult(nu, x, i_lhs, i_rhs, k_lhs, k_rhs)
