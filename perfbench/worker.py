"""One benchmark workload in one fresh process; started by ``run.py``.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Set-up is the time from the first line of this file to the generated inputs:
importing numpy, scipy and hypfrac, then ``make_inputs``.  A single caller then
runs tasks in a closed loop, each after the previous one returned, starting
new rounds until ``--seconds`` have passed.  Every task is checked; an
exception fails the task and the loop carries on.  A fixed-seed accuracy panel
follows the timed phase and gives ``err_ratio_max`` and the value digest.

With ``--trace 1`` the first ``trace_tasks`` tasks are timed without tracing,
then the same tasks again with the tracer installed; the per-layer metrics
come from the second pass, and the difference of the two wall times is the
tracing overhead.  The result is printed as one JSON line.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from workloads import PANEL_SEED, WORKLOADS  # noqa: E402  (imports hypfrac)

# the untraced pass of a traced run stops at this share of --seconds
TRACE_BUDGET_SHARE = 0.3


# The benchmark host may share its cores with other tenants, which slows a
# fixed computation by up to 2x for seconds at a time.  Between rounds of the
# timed phase (at most every PROBE_EVERY_S) the worker times a fixed ~0.6 ms
# reference computation; the median probe over the fastest one is reported
# as ``host_slowdown``, so that a comparison can tell a contended run.  The
# timing metrics themselves are plain wall time.
PROBE_EVERY_S = 0.05


def probe():
    """Duration of a fixed mix of Python arithmetic and small numpy ops."""
    t0 = time.perf_counter()
    x = 0.0
    for i in range(4000):
        x += math.sqrt(i + x * 1e-9)
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(150):
        a = np.exp(-a) + 0.5
    return time.perf_counter() - t0


def run_tasks(wl, tasks, seconds=None, max_tasks=None, tracer=None, probe_host=False):
    """Closed loop over tasks; stops between rounds once time or count is up.

    Returns the task records, the wall time and, with ``probe_host``, the
    host probe durations.
    """
    records = []
    probes = []
    if probe_host:
        for _ in range(5):
            probe()  # warm-up
    start = time.perf_counter()
    last_probe = -math.inf
    deadline = None if seconds is None else start + seconds
    i = 0
    while True:
        if i % wl.round_size == 0:
            if ((deadline is not None and time.perf_counter() >= deadline)
                    or (max_tasks is not None and i >= max_tasks)):
                break
            if probe_host and time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append(probe())
                last_probe = time.perf_counter()
        task = tasks[i % len(tasks)]
        rec = {"index": i % len(tasks), "input": wl.record_input(task)}
        t0 = time.perf_counter()
        try:
            out = tracer.run_task(i, wl.run, task) if tracer else wl.run(task)
        except Exception as exc:  # any failure is recorded, the run goes on
            t1 = time.perf_counter()
            rec.update(ok=False, error=type(exc).__name__, message=str(exc)[:200],
                       expected=wl.expected_failure(task, exc))
        else:
            t1 = time.perf_counter()
            rec.update(ok=bool(out.ok), values=out.values, err_ratio=out.err_ratio)
        rec["ms"] = 1e3 * (t1 - t0)
        records.append(rec)
        i += 1
    return records, time.perf_counter() - start, probes


def tail(latencies):
    """Highest percentile with ten samples beyond it: (value, percentile)."""
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def digest(records):
    h = hashlib.sha256()
    for rec in records:
        h.update(json.dumps([rec["input"], rec.get("values"), rec.get("error")],
                            sort_keys=True).encode())
    return h.hexdigest()


def is_correct(rec):
    """Passed, or failed only in a way the program documents."""
    return rec["ok"] or bool(rec.get("expected"))


def e2e_metrics(records, wall_s, panel, probes):
    passed = [r["ms"] for r in records if r["ok"]]
    n_ok = len(passed)
    tail_ms, tail_pct = tail(passed) if passed else (float("nan"), 0.0)
    ratios = [r["err_ratio"] for r in panel if r["ok"] and r["err_ratio"] is not None]
    err = max(ratios) if ratios else float("nan")
    return {
        "ok_tasks_per_s": {"value": n_ok / wall_s, "unit": "1/s"},
        "task_p50_ms": {"value": statistics.median(passed) if passed else float("nan"),
                        "unit": "ms", "samples": n_ok},
        "task_tail_ms": {"value": tail_ms, "unit": "ms", "percentile": tail_pct,
                         "samples": n_ok},
        "host_slowdown": {"value": statistics.median(probes) / min(probes), "unit": "ratio"},
        "ok_frac": {"value": n_ok / len(records), "unit": "ratio"},
        "fail_frac": {"value": 1.0 - n_ok / len(records), "unit": "ratio"},
        "err_ratio_max": {"value": err, "unit": "ratio", "samples": len(ratios)},
        "err_headroom_digits": {"value": -math.log10(max(err, 1e-300)), "unit": "digits"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out", default=None, help="gzipped CSV of the trace's spans")
    args = p.parse_args(argv)

    import hypfrac
    import scipy

    wl = WORKLOADS[args.workload]
    tasks = wl.make_inputs(args.seed)
    setup_s = time.perf_counter() - _T0
    result = {
        "setup_s": setup_s,
        "hypfrac_file": str(Path(hypfrac.__file__).resolve()),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace:
        from tracer import Tracer

        plain, plain_wall, _ = run_tasks(wl, tasks, seconds=TRACE_BUDGET_SHARE * args.seconds,
                                      max_tasks=wl.trace_tasks)
        tracer = Tracer().install()
        try:
            traced, traced_wall, _ = run_tasks(wl, tasks, max_tasks=len(plain), tracer=tracer)
        finally:
            tracer.uninstall()
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics(traced_wall).items()}
        metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
        metrics["trace.overhead_frac"] = {"value": traced_wall / plain_wall - 1.0,
                                          "unit": "ratio"}
        metrics["trace.tasks"] = {"value": len(traced), "unit": "count"}
        if args.spans_out:
            tracer.write_spans(args.spans_out)
        # tracing must not change a single computed value
        same = [a.get("values") == b.get("values") for a, b in zip(plain, traced)]
        records = plain + traced
        result.update(
            metrics=metrics, records=records,
            correct=all(map(is_correct, records)) and all(same),
            traced_values_identical=all(same),
        )
    else:
        records, wall, probes = run_tasks(wl, tasks, seconds=args.seconds, probe_host=True)
        panel, _, _ = run_tasks(wl, wl.make_inputs(PANEL_SEED), max_tasks=wl.panel_size)
        result.update(
            metrics=e2e_metrics(records, wall, panel, probes), records=records, panel=panel,
            wall_s=wall, digest=digest(panel), digest_tasks=len(panel),
            correct=all(map(is_correct, records + panel)),
        )
    result["attempted"] = len(records)
    result["failed"] = sum(not r["ok"] for r in records)
    errors = {}
    for r in records:
        if "error" in r:
            errors[r["error"]] = errors.get(r["error"], 0) + 1
    result["errors"] = errors
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
