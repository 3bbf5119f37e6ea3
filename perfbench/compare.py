"""Compare two result sets written by record.py.

    python3 perfbench/compare.py BASE.json NEW.json

For each workload and metric, prints the median and quartiles of each side
and the change of the medians as a share of the base median, signed so that
a positive change is worse.  End-to-end metrics are judged against their
bound in spec.py: "worse" past the bound, "unresolved" when either side's
own spread (quartile distance over median) is wider than the bound and not
every new run beats every base run, otherwise "ok".  Per-layer metrics come
from the traced runs and have no bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import spec

BETTER = {name: better for name, _, better, *_ in spec.END_TO_END + spec.PER_LAYER}
BOUND = {name: bound for name, _, _, bound, _ in spec.END_TO_END}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def series(results: dict, trace: int) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values over the runs with this trace flag."""
    out: dict[tuple[str, str], list[float]] = {}
    for run in results["runs"]:
        if run["trace"] == trace:
            for name, value in run["metrics"].items():
                out.setdefault((run["workload"], name), []).append(value)
    return out


def worse_share(name: str, base: float, new: float) -> float:
    """Change of new against base as a share of base; positive is worse."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / base
    return change if BETTER[name] == "lower" else -change


def verdict(name: str, base: list[float], new: list[float]) -> str:
    bound = BOUND[name]
    worse = worse_share(name, quartiles(base)[1], quartiles(new)[1])
    if worse > bound:
        return "worse"
    if max(spread(base), spread(new)) > bound:
        lower = BETTER[name] == "lower"
        if (max(new) < min(base)) if lower else (min(new) > max(base)):
            return "ok"
        return "unresolved"
    return "ok"


def fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def main() -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    worse = 0
    for trace, title in ((0, "end to end (untraced runs)"), (1, "per layer (traced runs)")):
        a, b = series(base, trace), series(new, trace)
        print(f"== {title}: median [q1, q3] per side; change is positive when worse")
        for key in sorted(a.keys() & b.keys()):
            workload, name = key
            line = (f"{workload:13s} {name:32s} base {fmt(a[key]):40s} new {fmt(b[key]):40s} "
                    f"change {worse_share(name, quartiles(a[key])[1], quartiles(b[key])[1]):+.3f}")
            if trace == 0:
                v = verdict(name, a[key], b[key])
                worse += v == "worse"
                line += f" bound {BOUND[name]:.2f} {v}"
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
