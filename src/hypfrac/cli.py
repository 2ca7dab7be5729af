"""Verification CLI: every command runs a battery of checks from one module
family and emits plot-ready CSV or JSON records.

Exit codes: 0 all assertions pass, 1 assertion failure, 2 usage error,
3 numeric non-convergence.
"""

import argparse
import csv
import io
import json
import math
import sys
import time

import numpy as np

from .errors import DomainError, HypfracError, NumericError, order
from .gyro import (
    EigenParams,
    GyroElement,
    cancellation_check,
    cosub,
    cosub_compositional,
    eigenfunction,
    gyration,
    mobius_add,
    neg,
    transport_prefactor,
)
from .kernel import KernelSpec, euclidean_limit_ratio, invariance_integral, kernel_value
from .operator import (
    NONLOCAL_TOLERANCES,
    BarrierSpec,
    EllipticityBounds,
    barrier_alpha_sweep,
    laplace_beltrami_radial,
    make_profile,
    apply_fraclap,
)
from .quadrature import DEFAULT_QUAD, QuadratureConfig
from .scale import (
    i0_closed,
    i0_quadrature,
    iinf_closed,
    iinf_quadrature,
    monotonicity_report,
    r0_solve,
)

USAGE_ERROR = 2
ASSERTION_ERROR = 1
NUMERIC_ERROR = 3

def _fmt(x):
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _parse_grid(text, name):
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise DomainError(f"malformed {name} grid: {text!r}")
    if not vals:
        raise DomainError(f"empty {name} grid")
    if not all(math.isfinite(v) for v in vals):
        raise DomainError(f"non-finite entry in {name} grid: {text!r}")
    return vals


# the ranges of the integer flags, inclusive; the caps keep a run to minutes
# and its arrays small, where a count like 1e20 once ran without end or failed
# to allocate
_INT_RANGES = {
    "seed": (0, None),
    "n_cases": (1, 10 ** 6),
    "n_samples": (1, 10 ** 4),
    "max_subdiv": (10, 10 ** 5),
}


def _check_int_flags(args):
    for name, (lo, hi) in _INT_RANGES.items():
        value = getattr(args, name)
        if value < lo or (hi is not None and value > hi):
            bound = f"at least {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise DomainError(f"--{name.replace('_', '-')} must be {bound}, not {value}")


def _used_tolerances(args):
    """The tolerance blocks of the JSON: what the command actually ran on."""
    if args.command in ("verify-constant", "scale-sweep"):
        return {"tolerances": {"rel_tol": args.rel_tol, "abs_tol": args.abs_tol},
                "quadrature": {"max_subdiv": args.max_subdiv}}
    if args.command in ("barrier-check", "gamma-limit"):
        return {"tolerances": dict(NONLOCAL_TOLERANCES)}
    return {}  # kernel-table and gyro-check run no quadrature


def _emit(args, records, passed, meta, started):
    """Write the records, as CSV under the header of the first record's keys
    (every command returns at least one, each with the same keys), or as JSON."""
    out = io.StringIO()
    if args.format == "csv":
        columns = list(records[0])
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for rec in records:
            writer.writerow([_fmt(rec[c]) for c in columns])
    else:
        payload = {
            "command": args.command,
            "params": meta,
            "seed": args.seed,
            **_used_tolerances(args),
            "records": records,
            "pass": bool(passed),
            "wall_time_s": round(time.perf_counter() - started, 6),
        }

        def coerce(obj):
            if isinstance(obj, np.floating):
                return float(obj)
            if isinstance(obj, np.integer):
                return int(obj)
            if isinstance(obj, np.bool_):
                return bool(obj)
            raise TypeError(f"not JSON serializable: {type(obj)}")

        out.write(json.dumps(payload, sort_keys=True, indent=2, default=coerce))
        out.write("\n")
    text = out.getvalue()
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)


def _cmd_verify_constant(args, cfg):
    lam_grid = _parse_grid(args.lambda_grid, "lambda")
    gam_grid = [order(g) for g in _parse_grid(args.gamma_grid, "gamma")]
    t = args.t
    if not (0.0 < t < math.inf and t * t > 4.0 / sys.float_info.max):
        raise DomainError("--t must be finite and positive, with 4/t^2 a float")
    records = []
    ok = True
    for lam in lam_grid:
        for g in gam_grid:
            got = invariance_integral(lam, g, t, cfg)
            want = (lam * lam + 4.0 / (t * t)) ** g
            rel = abs(got / want - 1.0)
            rec_ok = rel <= args.tol
            ok = ok and rec_ok
            records.append({
                "lambda": lam, "gamma": g, "integral": got,
                "expected": want, "rel_error": rel, "pass": rec_ok,
            })
    return records, ok


def _cmd_scale_sweep(args, cfg):
    r_grid = sorted(_parse_grid(args.r_grid, "R"))
    gam_grid = _parse_grid(args.gamma_grid, "gamma")
    records = []
    ok = True
    for g in gam_grid:
        rep = monotonicity_report(g, r_grid) if len(r_grid) > 1 else None
        mono_ok = rep.all_hold if rep is not None else True
        ok = ok and mono_ok
        for r in r_grid:
            i0c, i0q = i0_closed(r, g), i0_quadrature(r, g, cfg)
            iic, iiq = iinf_closed(r, g), iinf_quadrature(r, g, cfg)
            oracle_ok = (
                abs(i0c / i0q - 1.0) <= 1e-8 and abs(iic / iiq - 1.0) <= 1e-8
            )
            ok = ok and oracle_ok
            records.append({
                "R": r, "gamma": g,
                "i0_closed": i0c, "i0_quad": i0q,
                "iinf_closed": iic, "iinf_quad": iiq,
                "r0": r0_solve(r, g, args.rho0),
                "oracle_match": oracle_ok, "monotonicity": mono_ok,
            })
    return records, ok


def _cmd_kernel_table(args, cfg):
    rho_grid = sorted(_parse_grid(args.rho_grid, "rho"))
    g, tau = args.gamma, args.tau
    spec = KernelSpec(gamma=g, tau=tau)
    records = []
    ok = True
    prev = math.inf
    for rho in rho_grid:
        val = kernel_value(spec, rho)
        decreasing = val < prev
        ok = ok and decreasing
        prev = val
        records.append({
            "rho": rho, "gamma": g, "tau": tau,
            "kernel": val,
            "euclid_ratio": euclidean_limit_ratio(g, rho, tau),
            "decreasing": decreasing,
        })
    return records, ok


def _gyro_cases(rng, t, scale):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return GyroElement(v * t * scale * rng.uniform() ** (1.0 / 3.0), t)


def _cmd_gyro_check(args, cfg):
    rng = np.random.default_rng(args.seed)
    t = 2.0
    n = args.n_cases
    tol, tol_boundary = 1e-10, 1e-9
    worst = {k: 0.0 for k in (
        "left_identity", "left_inverse", "gyroassociativity", "left_loop",
        "gyrocommutativity", "cancellation", "cosub_closed_form", "transport",
        "cancellation_boundary",
    )}
    zero = GyroElement((0.0, 0.0, 0.0), t)
    for _ in range(n):
        a = _gyro_cases(rng, t, 0.8)
        b = _gyro_cases(rng, t, 0.8)
        z = _gyro_cases(rng, t, 0.8)
        worst["left_identity"] = max(
            worst["left_identity"], float(np.linalg.norm(mobius_add(zero, a).vec - a.vec)))
        worst["left_inverse"] = max(
            worst["left_inverse"], mobius_add(neg(a), a).norm())
        lhs = mobius_add(a, mobius_add(b, z))
        rhs = mobius_add(mobius_add(a, b), gyration(a, b, z))
        worst["gyroassociativity"] = max(
            worst["gyroassociativity"], float(np.linalg.norm(lhs.vec - rhs.vec)))
        g1, g2 = gyration(a, b, z), gyration(mobius_add(a, b), b, z)
        worst["left_loop"] = max(
            worst["left_loop"], float(np.linalg.norm(g1.vec - g2.vec)))
        gc = gyration(a, b, mobius_add(b, a))
        worst["gyrocommutativity"] = max(
            worst["gyrocommutativity"],
            float(np.linalg.norm(mobius_add(a, b).vec - gc.vec)))
        cc = cancellation_check(a, b)
        worst["cancellation"] = max(
            worst["cancellation"], max(cc.left_residual, cc.right_residual))
        worst["cosub_closed_form"] = max(
            worst["cosub_closed_form"],
            float(np.linalg.norm(cosub(a, b).vec - cosub_compositional(a, b).vec)))
        lam = rng.uniform(-3.0, 3.0)
        xi = rng.normal(size=3)
        xi /= np.linalg.norm(xi)
        ep = EigenParams(-lam, xi, t)
        lhs_e = eigenfunction(ep, cosub(z, b).vec)
        rhs_e = transport_prefactor(lam, xi, b.vec, z.vec, t) * eigenfunction(ep, z.vec)
        worst["transport"] = max(worst["transport"], abs(lhs_e - rhs_e))
        # near-boundary batch for the cancellation laws
        v1 = rng.normal(size=3); v1 /= np.linalg.norm(v1)
        v2 = rng.normal(size=3); v2 /= np.linalg.norm(v2)
        cb = cancellation_check(GyroElement(v1 * 0.99 * t, t), GyroElement(v2 * 0.99 * t, t))
        worst["cancellation_boundary"] = max(
            worst["cancellation_boundary"], max(cb.left_residual, cb.right_residual))
    records = []
    ok = True
    for law, res in worst.items():
        lim = tol_boundary if law in ("transport", "cancellation_boundary") else tol
        law_ok = res <= lim
        ok = ok and law_ok
        records.append({
            "law": law, "cases": n, "max_residual": res,
            "tolerance": lim, "pass": law_ok,
        })
    return records, ok


def _cmd_barrier_check(args, cfg):
    bounds = EllipticityBounds(args.lambda_lo, args.lambda_hi)
    # the flags' checks, before they place the sample radii
    BarrierSpec(args.delta, args.alpha_start, args.R, args.gamma, args.kappa)
    lo = args.delta * args.R / 4.0
    hi = 5.0 * args.R
    radii = np.linspace(lo, hi, args.n_samples + 2)[1:-1]
    found, reports = barrier_alpha_sweep(
        args.delta, args.R, args.gamma, radii, bounds,
        alpha_start=args.alpha_start, alpha_cap=args.alpha_cap,
        kappa=args.kappa,
    )
    records = []
    for alpha, rep in sorted(reports.items()):
        for r, margin in zip(rep.radii, rep.margins):
            records.append({
                "alpha": alpha, "R0": r, "margin": margin,
                "nonpositive": margin <= 0.0,
            })
    ok = found is not None and all(
        reports[a].all_nonpositive for a in reports if a >= found
    )
    return records, ok


def _cmd_gamma_limit(args, cfg):
    u = make_profile(args.profile)
    gam_grid = [order(g) for g in _parse_grid(args.gamma_grid, "gamma")]
    reference = laplace_beltrami_radial(u, args.R0)
    records = []
    errors = []
    for g in sorted(gam_grid):
        val = apply_fraclap(u, args.R0, g)
        err = abs(val - reference)
        errors.append(err)
        records.append({
            "gamma": g, "fraclap": val, "reference": reference, "abs_error": err,
        })
    ok = all(b < a for a, b in zip(errors, errors[1:]))
    return records, ok


_DISPATCH = {
    "verify-constant": _cmd_verify_constant,
    "scale-sweep": _cmd_scale_sweep,
    "kernel-table": _cmd_kernel_table,
    "gyro-check": _cmd_gyro_check,
    "barrier-check": _cmd_barrier_check,
    "gamma-limit": _cmd_gamma_limit,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hypfrac",
        description="Desk-scale verification of fractional-Laplacian machinery on H^3",
    )
    p.add_argument("--command", required=True, choices=list(_DISPATCH))
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--rel-tol", type=float, default=DEFAULT_QUAD.rel_tol, dest="rel_tol")
    p.add_argument("--abs-tol", type=float, default=DEFAULT_QUAD.abs_tol, dest="abs_tol")
    p.add_argument("--max-subdiv", type=int, default=DEFAULT_QUAD.max_subdiv, dest="max_subdiv")
    # verify-constant
    p.add_argument("--lambda-grid", default="0,0.5,1,2,4", dest="lambda_grid")
    p.add_argument("--gamma-grid", default="0.2,0.5,0.8,0.95", dest="gamma_grid")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--t", type=float, default=2.0)
    # scale-sweep
    p.add_argument("--r-grid", default="0.1,0.5,1,2,5", dest="r_grid")
    p.add_argument("--rho0", type=float, default=0.25)
    # kernel-table
    p.add_argument("--rho-grid", default="0.1,0.2,0.5,1,2,5,10,20", dest="rho_grid")
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--tau", type=float, default=1.0)
    # gyro-check
    p.add_argument("--n-cases", type=int, default=1000, dest="n_cases")
    # barrier-check
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--kappa", type=float, default=0.25)
    p.add_argument("--lambda-lo", type=float, default=1.0, dest="lambda_lo")
    p.add_argument("--lambda-hi", type=float, default=1.0, dest="lambda_hi")
    p.add_argument("--alpha-start", type=float, default=2.0, dest="alpha_start")
    p.add_argument("--alpha-cap", type=float, default=64.0, dest="alpha_cap")
    p.add_argument("--n-samples", type=int, default=10, dest="n_samples")
    # gamma-limit
    p.add_argument("--profile", default="gaussian-bump")
    p.add_argument("--R0", type=float, default=0.0)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0,) else 0
    started = time.perf_counter()
    meta = {k: v for k, v in sorted(vars(args).items()) if k not in ("out",)}
    try:
        _check_int_flags(args)
        cfg = QuadratureConfig(
            rel_tol=args.rel_tol, abs_tol=args.abs_tol, max_subdiv=args.max_subdiv
        )
        records, ok = _DISPATCH[args.command](args, cfg)
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except ArithmeticError as exc:
        # safety net: a float overflow or its kin that no check turned into a
        # NumericError
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except HypfracError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    _emit(args, records, ok, meta, started)
    return 0 if ok else ASSERTION_ERROR


if __name__ == "__main__":
    sys.exit(main())
