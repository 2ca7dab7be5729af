"""The benchmark workloads: seeded inputs, one task each, and its check.

A workload turns a seed into a list of plain-number task inputs (this is part
of set-up) and runs one task at a time through hypfrac's public functions.
Each task returns an ``Outcome``: the values it computed, its worst
cross-route error as a share of the stated tolerance (``None`` when the task
has no second route), and whether every check passed.  A task that raises is
a failure recorded by the caller.

The quadrature workloads' inputs and the gyro batch sizes follow a randomly
shifted Kronecker (R_d) sequence rather than independent draws: every prefix
of the sequence covers the input box evenly, so runs cut off after different
numbers of tasks still see the same mix of cheap and expensive inputs.
"""

import math
from dataclasses import dataclass

import numpy as np

from hypfrac import HypfracError, gyro, kernel, operator, scale

# inputs of the accuracy panel: a fixed seed, so that ``err_ratio_max`` and
# the value digest depend only on the code, never on the run's seed
PANEL_SEED = 20210819


@dataclass
class Outcome:
    values: dict
    err_ratio: float  # worst |error| / tolerance over the task's routes, or None
    ok: bool


def kronecker(rng, n, d):
    """n points of Roberts' R_d sequence in [0, 1)^d with a random shift."""
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    steps = phi ** -np.arange(1, d + 1)
    return (rng.uniform(size=d) + np.outer(np.arange(1, n + 1), steps)) % 1.0


def _rel(a, b):
    return abs(a - b) / abs(b)


class Workload:
    name = ""
    round_size = 1  # tasks per round; the timed phase only stops between rounds
    n_inputs = 0  # tasks generated at set-up; the timed loop cycles through them
    panel_size = 0  # tasks of the fixed-seed accuracy panel
    trace_tasks = 0  # tasks timed with and without tracing in a traced run

    def make_inputs(self, seed):
        raise NotImplementedError

    def run(self, task):
        raise NotImplementedError

    def expected_failure(self, task, exc):
        """True when exc is a failure the program is documented to raise.

        These are the package's typed errors and the ``NameError`` that
        ``operator`` raises for a rejected quadrature (it uses ``NumericError``
        without importing it).  A task failing this way counts in
        ``failed``; any other exception marks the run incorrect.
        """
        return isinstance(exc, HypfracError) or (
            isinstance(exc, NameError) and "NumericError" in str(exc))

    def record_input(self, task):
        """The task's input as stored in the result file."""
        return list(task)


class SpectralIdentity(Workload):
    """Kernel invariance integral and scale-function routes, fresh gamma each."""

    name = "spectral-identity"
    round_size = 2  # an invariance task, then a scale task
    n_inputs = 4000
    panel_size = 32
    trace_tasks = 160
    INV_TOL = 1e-6
    SCALE_TOL = 1e-8
    RHO0 = 0.25

    def make_inputs(self, seed):
        pts = kronecker(np.random.default_rng(seed), self.n_inputs // 2, 4)
        lam = 8.0 * pts[:, 0]
        g_inv = 0.1 + 0.85 * pts[:, 1]
        R = 0.1 * 50.0 ** pts[:, 2]
        g_scale = 0.1 + 0.85 * pts[:, 3]
        tasks = []
        for i in range(len(pts)):
            tasks.append(("invariance", float(lam[i]), float(g_inv[i])))
            tasks.append(("scale", float(R[i]), float(g_scale[i])))
        return tasks

    def run(self, task):
        kind, x, gamma = task
        if kind == "invariance":
            value = kernel.invariance_integral(x, gamma)
            ratio = _rel(value, (x * x + 1.0) ** gamma) / self.INV_TOL
            return Outcome({"invariance": value}, ratio, ratio <= 1.0)
        R = x
        i0c, i0q = scale.i0_closed(R, gamma), scale.i0_quadrature(R, gamma)
        iic, iiq = scale.iinf_closed(R, gamma), scale.iinf_quadrature(R, gamma)
        r0 = scale.r0_solve(R, gamma, self.RHO0)
        ratio = max(_rel(i0q, i0c), _rel(iiq, iic)) / self.SCALE_TOL
        r0_ok = 0.0 < r0 < self.RHO0 * R
        values = {"i0_closed": i0c, "i0_quadrature": i0q,
                  "iinf_closed": iic, "iinf_quadrature": iiq, "r0": r0}
        return Outcome(values, ratio, ratio <= 1.0 and r0_ok)


class BarrierSweep(Workload):
    """Barrier supersolution margins over the alpha ladder at seeded radii."""

    name = "barrier-sweep"
    ladder = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)
    round_size = len(ladder)  # one walk up the ladder
    n_inputs = 7 * 400
    panel_size = 7
    trace_tasks = 14
    DELTA, R, GAMMA = 0.5, 1.0, 0.99
    # criterion 14: every margin is nonpositive from alpha = 4 on
    FIRST_PASSING_ALPHA = 4.0
    TAIL_TOL = 1e-8
    # the operator cuts its radial integral where the profile tail is below
    # this and adds the analytic tail mass iinf_closed(A)/A^2 beyond A
    TAIL_EPS = 1e-12

    def make_inputs(self, seed):
        lo, hi = self.DELTA * self.R / 4.0, 5.0 * self.R
        n_walks = self.n_inputs // self.round_size
        # one golden-ratio sequence of radii, the rungs of a walk spread
        # evenly around it so every rung sweeps the whole radius range
        u0 = kronecker(np.random.default_rng(seed), n_walks, 1)[:, 0]
        tasks = []
        for i in range(n_walks):
            for m, alpha in enumerate(self.ladder):
                u = (u0[i] + m / self.round_size) % 1.0
                tasks.append((alpha, lo + (hi - lo) * (1e-6 + (1.0 - 2e-6) * u)))
        return tasks

    def run(self, task):
        alpha, r = task
        spec = operator.BarrierSpec(delta=self.DELTA, alpha=alpha, R=self.R, gamma=self.GAMMA)
        bounds = operator.EllipticityBounds(1.0, 1.0)
        report = operator.barrier_check(spec, [r], bounds)
        margin = report.margins[0]
        # second route for the analytic tail mass the operator adds beyond A
        A = r + min(operator.barrier_profile(spec).tail_radius(self.TAIL_EPS), 80.0)
        tail_c = scale.iinf_closed(A, self.GAMMA)
        tail_q = scale.iinf_quadrature(A, self.GAMMA)
        ratio = _rel(tail_q, tail_c) / self.TAIL_TOL
        sign_ok = alpha < self.FIRST_PASSING_ALPHA or margin <= 0.0
        values = {"margin": margin, "mplus": report.mplus[0],
                  "tail_closed": tail_c, "tail_quadrature": tail_q}
        return Outcome(values, ratio, math.isfinite(margin) and sign_ok and ratio <= 1.0)

    def expected_failure(self, task, exc):
        # barrier_value overflows a float at the alpha = 128 rung
        return super().expected_failure(task, exc) or (
            isinstance(exc, OverflowError) and task[0] >= 128.0)


class OracleCrosscheck(Workload):
    """Jump integral against the spectral multiplier on Gaussian bumps."""

    name = "oracle-crosscheck"
    round_size = 1
    n_inputs = 3000
    panel_size = 16
    trace_tasks = 50
    TOL = 1e-3

    def make_inputs(self, seed):
        pts = kronecker(np.random.default_rng(seed), self.n_inputs, 3)
        w = 0.6 + 1.0 * pts[:, 0]
        R0 = 1.5 * pts[:, 1]
        g = 0.2 + 0.75 * pts[:, 2]
        return [(float(a), float(b), float(c)) for a, b, c in zip(w, R0, g)]

    def run(self, task):
        w, R0, gamma = task
        u = operator.gaussian_bump(w)
        jump = operator.apply_fraclap(u, R0, gamma)
        spectral = operator.multiplier_oracle(u, R0, gamma)
        ratio = abs(jump - spectral) / max(1.0, abs(spectral)) / self.TOL
        return Outcome({"jump": jump, "spectral": spectral}, ratio, ratio <= 1.0)


class GyroLaws(Workload):
    """Batches of the gyrogroup law suite of ``hypfrac --command gyro-check``."""

    name = "gyro-laws"
    round_size = 1
    n_inputs = 200
    panel_size = 2
    trace_tasks = 60
    # cases per task, seeded in [32, 224]: varied task sizes keep the latency
    # median from flipping between the host's fast and slow speed levels
    MIN_BATCH, MAX_BATCH = 32, 224
    T = 2.0
    TOL, TOL_BOUNDARY = 1e-10, 1e-9
    BOUNDARY_LAWS = ("transport", "cancellation_boundary")

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)
        u = kronecker(rng, self.n_inputs, 1)[:, 0]
        sizes = (self.MIN_BATCH + u * (self.MAX_BATCH + 1 - self.MIN_BATCH)).astype(int)
        n = int(sizes.sum())

        def unit():
            v = rng.normal(size=(n, 3))
            return v / np.linalg.norm(v, axis=1)[:, None]

        def interior():
            return unit() * (self.T * 0.8 * rng.uniform(size=n) ** (1.0 / 3.0))[:, None]

        # one row per case: a, b, z, lambda, xi, and two near-boundary points
        a, b, z = interior(), interior(), interior()
        lam = rng.uniform(-3.0, 3.0, size=(n, 1))
        xi = unit()
        v1, v2 = unit() * 0.99 * self.T, unit() * 0.99 * self.T
        cases = np.hstack([a, b, z, lam, xi, v1, v2])
        return np.split(cases, np.cumsum(sizes)[:-1])

    def record_input(self, task):
        # the vectors are regenerated from the seed and the task index
        return {"cases": len(task)}

    def run(self, task):
        G, t = gyro.GyroElement, self.T
        zero = G((0.0, 0.0, 0.0), t)
        worst = dict.fromkeys((
            "left_identity", "left_inverse", "gyroassociativity", "left_loop",
            "gyrocommutativity", "cancellation", "cosub_closed_form", "transport",
            "cancellation_boundary"), 0.0)

        def dist(p, q):
            return float(np.linalg.norm(p.vec - q.vec))

        def note(law, res):
            worst[law] = max(worst[law], res)

        for row in task:
            a, b, z = G(row[0:3], t), G(row[3:6], t), G(row[6:9], t)
            lam, xi, v1, v2 = float(row[9]), row[10:13], row[13:16], row[16:19]
            note("left_identity", dist(gyro.mobius_add(zero, a), a))
            note("left_inverse", gyro.mobius_add(gyro.neg(a), a).norm())
            ab = gyro.mobius_add(a, b)
            note("gyroassociativity", dist(
                gyro.mobius_add(a, gyro.mobius_add(b, z)),
                gyro.mobius_add(ab, gyro.gyration(a, b, z))))
            note("left_loop", dist(gyro.gyration(a, b, z), gyro.gyration(ab, b, z)))
            note("gyrocommutativity", dist(ab, gyro.gyration(a, b, gyro.mobius_add(b, a))))
            cc = gyro.cancellation_check(a, b)
            note("cancellation", max(cc.left_residual, cc.right_residual))
            note("cosub_closed_form", dist(gyro.cosub(a, b), gyro.cosub_compositional(a, b)))
            ep = gyro.EigenParams(-lam, xi, t)
            lhs = gyro.eigenfunction(ep, gyro.cosub(z, b).vec)
            rhs = gyro.transport_prefactor(lam, xi, b.vec, z.vec, t) * gyro.eigenfunction(ep, z.vec)
            note("transport", abs(lhs - rhs))
            cb = gyro.cancellation_check(G(v1, t), G(v2, t))
            note("cancellation_boundary", max(cb.left_residual, cb.right_residual))
        ratio = max(
            res / (self.TOL_BOUNDARY if law in self.BOUNDARY_LAWS else self.TOL)
            for law, res in worst.items()
        )
        return Outcome(worst, ratio, ratio <= 1.0)


WORKLOADS = {w.name: w for w in (SpectralIdentity(), BarrierSweep(),
                                 OracleCrosscheck(), GyroLaws())}

