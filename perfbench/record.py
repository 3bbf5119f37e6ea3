"""Run every workload over several seeds and write one result set.

    python3 perfbench/record.py --runs 10 --traced-runs 1 --out perfbench/out/results.json

Run it from the repository root.  Each run is one run.py measurement
(fresh workers, closed loop); seeds count up from --first-seed.  Prints
each run's report, then per workload and end-to-end metric the median,
the quartiles and the spread (quartile distance over median) against a
third of the metric's bound, and the tracing overhead: the traced median
operation time minus the untraced one.  Compare two result sets with
compare.py.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import compare
import run
import spec


def main() -> int:
    parser = argparse.ArgumentParser(description="Record a benchmark result set.")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload")
    parser.add_argument("--traced-runs", type=int, default=1, help="traced runs per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    results = {"machine": run.machine(), "seconds": spec.RUN_SECONDS, "runs": []}
    print("machine: " + ", ".join(f"{k}={v}" for k, v in results["machine"].items()))
    for workload in spec.WORKLOADS:
        plan = [(0, i) for i in range(args.runs)] + [(1, i) for i in range(args.traced_runs)]
        for trace, i in plan:
            try:
                result = run.measure(workload, args.first_seed + i, spec.RUN_SECONDS, trace)
            except run.RunError as exc:
                print(f"error: {workload} seed {args.first_seed + i}: {exc}", file=sys.stderr)
                return 1
            results["runs"].append(result)
            print(f"-- {workload} seed {result['seed']} trace {trace}")
            print("\n".join(run.report_lines(result)), flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=1) + "\n")

    untraced, traced = compare.series(results, 0), compare.series(results, 1)
    print("== end to end: median [q1, q3], spread = (q3 - q1) / median, target spread < bound / 3")
    for (workload, name), values in sorted(untraced.items()):
        bound = compare.BOUND[name]
        s = compare.spread(values)
        flag = "" if name == "setup_s" or s < bound / 3 else "  WIDE"
        print(f"{workload:13s} {name:14s} {compare.fmt(values):44s} spread {s:.4f} bound {bound}{flag}")
    for workload in spec.WORKLOADS:
        base, with_trace = untraced.get((workload, "op_p50_ms")), traced.get((workload, "trace.op_p50_ms"))
        if base and with_trace:
            delta = statistics.median(with_trace) - statistics.median(base)
            print(f"{workload:13s} tracing overhead {delta:+.6g} ms per operation "
                  f"({delta / statistics.median(base):+.2%} of the untraced median)")
        failed = sum(r["failed"] for r in results["runs"] if r["workload"] == workload)
        attempted = sum(r["attempted"] for r in results["runs"] if r["workload"] == workload)
        print(f"{workload:13s} fail_ratio {failed / attempted:.6g} ({failed} of {attempted})")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
