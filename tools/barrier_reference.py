"""Reference values of pucci_plus on the radial barrier, by an independent route.

    PYTHONPATH=src python tools/barrier_reference.py [ALPHA:R0[:DELTA:R:GAMMA:KAPPA] ...]

``hypfrac.operator`` integrates the angular variable in the distance w and
resolves the power-law ramps of the barrier adaptively in batches.  This
script takes a different path to the same integral, with scalar QUADPACK
(``scipy.integrate.quad``) at relative tolerance 1e-12:

* the angular integral runs in s = 1 - cos(angle), where the near distance is
  acosh(1 + 2 sinh^2((r - R0)/2) + sinh(r) sinh(R0) s), free of cancellation;
  break points sit at the kink and are graded geometrically away from it, at
  widths 2^-k (k = 1..50) of the piece;
* the radial integral runs in r itself, with break points at both kink
  images R0 -/+ kappa delta R/4 graded geometrically on both sides down to
  2^-45 of the neighbouring piece; the first piece is graded the same way
  toward r = 1e-3, where the second differences carry rounding noise (without
  it QUADPACK gives up on that piece at alpha = 2, R0 = 0.13).

The model is the operator's own: the second differences are frozen below
r = 1e-3 (that piece is integrated analytically), the radial integral is cut
at A = R0 + min(tail radius at 1e-12, 80) and the analytic tail mass
iinf_closed(A)/A^2 is added beyond it.  The kernel factor is
``hypfrac.kernel.kernel_sinh2``; the bounds are unit (Lambda = lambda = 1).

A point names alpha and R0 on the default barrier (delta, R, gamma, kappa) =
(.5, 1, .99, .25), or the whole spec.  Without points the tool prints the
defaults below.  The small-kink points of ``tests/test_operator.py``, where a
fixed grading depth of the operator's outer panels fell short, are

    16:7.014999999999999:0.1:2:0.99:0.05
    16:3.5:0.05:1:0.99:0.05  16:0.02:0.05:1:0.99:0.05  32:1:0.05:1:0.99:0.05
    4:2:1e-6:1:0.9:0.25

Each value takes tens of seconds.  Values are printed as ``alpha R0 value``
lines, with ``delta R gamma kappa`` after R0 when the point names a spec.
"""

import math
import sys

from scipy.integrate import quad

from hypfrac.kernel import kernel_sinh2
from hypfrac.operator import BarrierSpec, barrier_profile, barrier_value
from hypfrac.scale import iinf_closed

DELTA, R, GAMMA, KAPPA = 0.5, 1.0, 0.99, 0.25
R_FLOOR = 1e-3
REL = 1e-12
DEFAULT_POINTS = [(2.0, 0.4), (2.0, 2.2), (4.0, 1.0), (4.0, 4.0), (8.0, 0.4),
                  (8.0, 2.2), (16.0, 1.0), (32.0, 2.2), (32.0, 4.0), (64.0, 2.2),
                  (64.0, 4.0)]


def _quad(f, a, b, points, accept):
    pts = sorted({p for p in points if a < p < b})
    val, err, info, *msg = quad(f, a, b, epsabs=0.0, epsrel=REL, limit=5000,
                                points=pts or None, full_output=1)
    if msg and err > accept * abs(val):
        raise RuntimeError(f"reference quadrature on [{a}, {b}]: {msg[0]}")
    return val


def _graded(a, b, toward_a, toward_b, depth):
    pts = []
    for k in range(1, depth + 1):
        if toward_a:
            pts.append(a + (b - a) * 2.0 ** -k)
        if toward_b:
            pts.append(b - (b - a) * 2.0 ** -k)
    return pts


def pucci_plus_reference(alpha, R0, delta=DELTA, R=R, gamma=GAMMA, kappa=KAPPA):
    spec = BarrierSpec(delta=delta, alpha=alpha, R=R, gamma=gamma, kappa=kappa)
    v = barrier_profile(spec)
    rk = spec.kink_radius
    u0 = barrier_value(spec, R0)

    def inner(r):
        b = math.sinh(r) * math.sinh(R0)
        x0 = 2.0 * math.sinh(0.5 * (r - R0)) ** 2
        c_plus = math.cosh(r + R0)

        def g(s):
            x = x0 + b * s
            d_minus = math.log1p(x + math.sqrt(x * (2.0 + x)))
            d_plus = math.acosh(max(c_plus - b * s, 1.0))
            delta = 0.5 * (barrier_value(spec, d_minus) + barrier_value(spec, d_plus)) - u0
            return delta  # Lambda = lambda = 1: the Pucci weights are 1

        s_kink = (2.0 * math.sinh(0.5 * rk) ** 2 - x0) / b
        s_mirror = (c_plus - math.cosh(rk)) / b
        pts = []
        if 0.0 < s_kink < 1.0:
            pts.append(s_kink)
            pts += _graded(s_kink, 1.0, True, False, 50)
        else:
            pts += _graded(0.0, 1.0, True, False, 50)
        if 0.0 < s_mirror < 1.0:
            pts.append(s_mirror)
        # at r ~ 1e-3 the second differences carry ~1e-10 relative rounding
        # noise, which QUADPACK reports as a roundoff warning
        return 2.0 * _quad(g, 0.0, 1.0, pts, 1e-7)

    def outer(r):
        return 2.0 * math.pi * kernel_sinh2(gamma, r) * inner(r)

    A = R0 + min(v.tail_radius(1e-12), 80.0)
    split = min(1.0, 0.5 * A)
    total = outer(R_FLOOR) * R_FLOOR / (2.0 - 2.0 * gamma)
    images = sorted({abs(R0 - rk), R0 + rk})
    for a, b in ((R_FLOOR, split), (split, A)):
        cuts = [a] + [p for p in images if a < p < b] + [b]
        for p, q in zip(cuts, cuts[1:]):
            pts = _graded(p, q, p in images or p == R_FLOOR, q in images, 45)
            total += _quad(outer, p, q, pts, 1e-10)
    total += -u0 * iinf_closed(A, gamma) / (A * A)  # the barrier tends to 0
    return total


def main(argv):
    points = [tuple(map(float, arg.split(":"))) for arg in argv] or DEFAULT_POINTS
    for point in points:
        if len(point) not in (2, 6):
            raise SystemExit(f"a point is ALPHA:R0 or ALPHA:R0:DELTA:R:GAMMA:KAPPA, not {point}")
        label = " ".join(f"{x:.16g}" for x in point)
        print(f"{label} {pucci_plus_reference(*point)!r}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
