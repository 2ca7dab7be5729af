"""Compare two sets of benchmark result files, workload by workload.

    python3 perfbench/compare.py BASE... --against NEW...

Each argument is a result file written by ``run.py`` or a directory of them.
Untraced results are compared on the end-to-end metrics with the bounds of
``BENCHMARK.json``: a metric is ``WORSE`` when the new median is worse than the
base median by more than its bound, and ``unresolved`` when the spread of
either side (quartile distance over median) is wider than the bound or has
fewer than two runs, unless every new run beats every base run.  Value
digests must match.  Traced results, when both sides have them, are listed
metric by metric as medians without a verdict.  Exit code 1 when any metric
is WORSE or a digest differs.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    """{(workload, trace): [result, ...]} from files and directories."""
    groups = {}
    for p in map(Path, paths):
        files = sorted(p.glob("*.json")) if p.is_dir() else [p]
        for f in files:
            res = json.loads(f.read_text())
            groups.setdefault((res["workload"], res["trace"]), []).append(res)
    return groups


def spread(values):
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, new, better, bound):
    """(relative change toward worse, verdict) for one metric."""
    mb, mn = statistics.median(base), statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (mn - mb) / abs(mb) if mb else 0.0
    wins = all(sign * (n - b) < 0 for n in new for b in base)
    spreads = [spread(base), spread(new)]
    if wins:
        return worse_by, "better"
    if len(set(base) | set(new)) == 1:
        return worse_by, "same"
    if None in spreads or max(spreads) > bound:
        return worse_by, "unresolved"
    if worse_by > bound:
        return worse_by, "WORSE"
    return worse_by, "better" if -worse_by > max(spreads) else "same"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base", nargs="+")
    p.add_argument("--against", nargs="+", required=True)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(args.base), load(args.against)
    failed = False
    e2e = spec["end_to_end"]
    print(f"{'workload':18s} " + " ".join(f"{m['name'][:16]:>16s}" for m in e2e) + "  digest")
    details = []
    workloads = sorted({wl for wl, _ in base} & {wl for wl, _ in new})
    for wl in workloads:
        b, n = base.get((wl, 0)), new.get((wl, 0))
        if not b or not n:
            continue
        cells = []
        for m in e2e:
            bv = [r["metrics"][m["name"]]["value"] for r in b]
            nv = [r["metrics"][m["name"]]["value"] for r in n]
            change, v = verdict(bv, nv, m["better"], m["bound"])
            failed |= v == "WORSE"
            cells.append(f"{100 * change:+6.1f}% {v:>9s}")
            for side, vals in (("base", bv), ("new", nv)):
                q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
                details.append(f"  {wl:18s} {m['name']:16s} {side:4s} runs={len(vals)} "
                               f"median={statistics.median(vals):.6g} q1={q[0]:.6g} q3={q[2]:.6g}")
        digests = {r["digest"] for r in b} | {r["digest"] for r in n}
        failed |= len(digests) > 1
        print(f"{wl:18s} " + " ".join(f"{c:>16s}" for c in cells)
              + ("  same" if len(digests) == 1 else "  DIFFERENT"))
    print("(change is toward worse: positive = worse)")
    print("\n".join(details))

    for wl in workloads:
        b, n = base.get((wl, 1)), new.get((wl, 1))
        if not b or not n:
            continue
        print(f"\nper-layer medians, {wl} (base runs={len(b)}, new runs={len(n)})")
        for m in spec["per_layer"]:
            mb = statistics.median(r["metrics"][m["name"]]["value"] for r in b)
            mn = statistics.median(r["metrics"][m["name"]]["value"] for r in n)
            rel = f"{100 * (mn - mb) / abs(mb):+.1f}%" if mb else ""
            print(f"  {m['name']:38s} {mb:>14.6g} -> {mn:<14.6g} {rel}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
