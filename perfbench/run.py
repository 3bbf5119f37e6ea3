"""Benchmark runner for boolfn: one workload, one seed, one run.

    python3 perfbench/run.py --workload analyze-wide --seed 1 --seconds 30 --trace 0

Run it from the repository root.  It first starts SETUP_PROBES
short-lived worker interpreters to time set-up, then one fresh worker
that runs the workload as a closed loop: one caller, one operation at a
time, the next starting when the last returns.  With --trace 1 that
worker wraps boolfn's entry points in spans and reports per-layer self
times instead of the end-to-end metrics.

stdout carries a readable report; its last line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The exit code is not 0,
and no JSON is printed, when boolfn cannot be imported or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import spec

WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 6  # plus the measuring worker: seven set-up samples per run
PROBE_TIMEOUT_S = 30
WORKER_GRACE_S = 120  # beyond --seconds: the last operation, checks, trace file
TAIL_LADDER = (50, 90, 99, 99.9, 99.99, 99.999)
UNITS = {name: unit for name, unit, *_ in spec.END_TO_END + spec.PER_LAYER}


class RunError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("BOOLFN_MAX_N", None)  # measure the default variable cap
    return env


def start_worker(extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its "ready" line; return it and the set-up time."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *extra],
        stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=spec.ROOT,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RunError(f"worker did not start (exit code {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError(f"worker still running after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}")
    return out


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run: set-up samples plus one measuring worker, summarised."""
    setups = []
    for _ in range(SETUP_PROBES):
        proc, setup = start_worker(["--probe"])
        finish(proc, PROBE_TIMEOUT_S)
        setups.append(setup)
    proc, setup = start_worker(
        ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    )
    setups.append(setup)
    raw = json.loads(finish(proc, seconds + WORKER_GRACE_S).splitlines()[-1])
    ops = raw["op_seconds"]
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": raw["failed"] == 0, "attempted": len(ops), "failed": raw["failed"],
        "errors": raw["errors"], "setup_samples_s": setups, "tail": tail(ops),
    }
    if trace:
        result["metrics"] = raw["layers"]
        result["spans"], result["spans_file"] = raw["spans"], raw["spans_file"]
    else:
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "op_p50_ms": 1000 * statistics.median(ops),
            "ops_per_s": len(ops) / sum(ops),
            "peak_rss_mib": raw["peak_rss_kib"] / 1024,
        }
    return result


def tail(ops: list[float]) -> dict | None:
    """Highest ladder percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(ops)
    best = None
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            best = {"percentile": p, "ms": 1000 * ordered[rank - 1],
                    "beyond": len(ordered) - rank, "samples": len(ordered)}
    return best


def machine() -> dict:
    """Facts needed to read the numbers: cores, cache sizes, versions."""
    facts = {"nproc": os.cpu_count(), "L2": "unknown", "L3": "unknown",
             "python": platform.python_version(), "numpy": "unknown"}
    try:
        facts["numpy"] = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        pass
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            facts[key.strip()[:2]] = value.strip()
    return facts


def report_lines(result: dict) -> list[str]:
    """Readable lines, with the end-to-end names each workload's users know."""
    w = result["workload"]
    lines = []
    if result["trace"]:
        for name, value in result["metrics"].items():
            lines.append(f"[{w}] {name} = {value:.6g} {UNITS[name]}")
        lines.append(f"[{w}] spans recorded: {result['spans']} ({result['spans_file']})")
        return lines
    m, n = result["metrics"], result["attempted"]
    if w == "verify-sweep":
        lines.append(f"[{w}] sweep_s = {m['op_p50_ms'] / 1000:.4f} s (median of {n} sweeps)")
    else:
        lines.append(f"[{w}] table_p50_ms = {m['op_p50_ms']:.4f} ms (median of {n} tables)")
        t = result["tail"]
        if t:
            lines.append(f"[{w}] table_tail_ms = {t['ms']:.4f} ms "
                         f"(p{t['percentile']}, {t['beyond']} of {t['samples']} tables beyond)")
        else:
            lines.append(f"[{w}] table_tail_ms: not reported, {n} tables leave no percentile "
                         "with ten samples beyond it")
        lines.append(f"[{w}] tables_per_s = {m['ops_per_s']:.4f} 1/s")
    lines += [
        f"[{w}] setup_s = {m['setup_s']:.4f} s (median of {len(result['setup_samples_s'])} starts)",
        f"[{w}] peak_rss_mib = {m['peak_rss_mib']:.2f} MiB",
        f"[{w}] fail_ratio = {result['failed'] / n:.6g} ({result['failed']} of {n})",
        f"[{w}] wait time: not applicable (one caller, one thread, no queue)",
    ]
    return lines


def contract_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in result["metrics"].items()},
    })


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    facts = machine()
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    for line in report_lines(result):
        print(line)
    for error in result["errors"]:
        print(f"[{args.workload}] failed operation: {error[:500]}", file=sys.stderr)
    print(contract_line(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
