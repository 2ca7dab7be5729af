"""hypfrac benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a source checkout; hypfrac is imported from ``src``.
Each call starts fresh processes with BLAS/OpenMP pinned to one thread:
``SETUP_PROBES`` processes that only import and generate inputs (set-up
time), then one worker that runs the workload (see ``worker.py``).  With
``--trace 0`` the last line of standard output is a JSON object with every
end-to-end metric; with ``--trace 1`` it holds the per-layer metrics and the
tracing overhead.  The full result, stamped with versions, machine, commit and
seed and holding every task's inputs and values, is written to ``--out``
(default ``.perfbench/results/``); ``compare.py`` diffs such files.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("spectral-identity", "barrier-sweep", "oracle-crosscheck", "gyro-laws")
# seeds for tuning and for confirming a claim on inputs not used while tuning
DEFAULT_SEED = 1
HELD_OUT_SEED = 8675309
SETUP_PROBES = 2
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, timeout):
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    origin = Path(result["hypfrac_file"])
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"hypfrac was imported from {origin}, not from {SRC}")
    return result


def finite_or_none(x):
    # NaN (no passed task to take a latency from) is not valid JSON
    return x if math.isfinite(x) else None


def machine_stamp():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "git_commit": git_commit()}


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="result file (JSON)")
    args = p.parse_args(argv)

    if not (SRC / "hypfrac" / "__init__.py").is_file():
        print(f"error: no hypfrac sources under {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()

    def remaining():
        return TIME_LIMIT_S - (time.monotonic() - started)

    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    out = Path(args.out) if args.out else (
        ROOT / ".perfbench" / "results"
        / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_worker(common + ["--setup-only"], remaining())["setup_s"])
        extra = ["--spans-out", str(out.with_suffix(".spans.csv.gz"))] if args.trace else []
        result = run_worker(common + ["--seconds", str(args.seconds),
                                      "--trace", str(args.trace)] + extra, remaining())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s",
                              "samples": len(setups)}
    result.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples=setups, machine=machine_stamp())
    out.write_text(json.dumps(result, indent=1))

    for name, m in metrics.items():
        details = "".join(f" {k}={v:.4g}" if isinstance(v, float) else f" {k}={v}"
                          for k, v in m.items() if k not in ("value", "unit"))
        print(f"{args.workload:18s} {name:38s} {m['value']:>14.6g} {m['unit']:6s}{details}")
    if result.get("errors"):
        print(f"{args.workload:18s} failures by type: {result['errors']}")
    print(f"result file: {out}")

    published = json.load(open(ROOT / "BENCHMARK.json"))["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": finite_or_none(metrics[m["name"]]["value"]),
                                "unit": metrics[m["name"]]["unit"]} for m in published},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
