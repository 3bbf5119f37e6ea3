"""One fresh, single-threaded interpreter per benchmark run or set-up probe.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --probe

Imports boolfn from the src/ next to perfbench/, makes one warm-up call
and prints "ready".  A probe stops there.  Otherwise the worker makes the workload's inputs
from the seed and runs operations in a closed loop for S seconds: the
next operation starts when the last one returns.  Input generation and
the output check happen between operations, outside the timed region.
The last stdout line is one JSON object with the per-operation times,
failures and peak RSS, plus the per-layer metrics when tracing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from array import array
from pathlib import Path

import numpy as np

import reference
import spec
import tracing

WARMUP_ARGV = ["analyze", "--tt", "0x0117177f"]  # majority(5)


def load_boolfn():
    src = spec.ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import boolfn
        import boolfn.cli
    except ModuleNotFoundError as exc:
        raise SystemExit(f"cannot import boolfn from {src}: {exc}") from None
    if not Path(boolfn.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"boolfn imported from {boolfn.__file__}, not from {src}")
    return boolfn


def call_cli(cli, argv: list[str]) -> tuple[int, io.StringIO]:
    """cli.main(argv) with stdout captured; main is looked up on every call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out


class CliWorkload:
    """Operations that go through cli.main with stdout captured."""

    def __init__(self, boolfn, rng):
        self.cli, self.rng = boolfn.cli, rng

    def run(self, argv):
        return call_cli(self.cli, argv)

    @staticmethod
    def output_bytes(output) -> int:
        return len(output[1].getvalue().encode())


class AnalyzeWide(CliWorkload):
    """Random dense n=18 tables as hex text through `boolfn analyze --tt`."""

    N = 18

    def prepare(self):
        entries = self.rng.integers(0, 2, 1 << self.N, dtype=np.uint8)
        text = "0x" + np.packbits(entries).tobytes().hex()  # entry 0 in the top bit of digit 0
        return ["analyze", "--tt", text], reference.facts_tuple(reference.table_facts(entries))

    def check(self, expected, output) -> str | None:
        rc, out = output
        if rc != 0:
            return f"exit code {rc}"
        got = reference.report_tuple(json.loads(out.getvalue()))
        return None if got == expected else f"report {got} != reference {expected}"


class VerifySweep(CliWorkload):
    """One `boolfn verify --max-k 24 --json` per operation; the seed is unused."""

    K_MAX = 24

    def prepare(self):
        return ["verify", "--max-k", str(self.K_MAX), "--json"], None

    def check(self, expected, output) -> str | None:
        rc, out = output
        return reference.check_sweep(rc, out.getvalue(), self.K_MAX)


class CensusN4:
    """Every table on 4 variables as a bitstring, from_bitstring then
    analyze_table; a fresh seeded order each time all 65,536 are done.
    The reference facts are made CHUNK tables at a time, so the benchmark's
    own data stays small next to the worker's peak RSS."""

    N = 4
    CHUNK = 1024

    def __init__(self, boolfn, rng):
        self.boolfn, self.rng = boolfn, rng
        self.order = np.empty(0, dtype=np.int64)
        self.pending: list[tuple[str, tuple]] = []

    def prepare(self):
        if not self.pending:
            if not self.order.size:
                self.order = self.rng.permutation(1 << (1 << self.N))
            chunk, self.order = self.order[: self.CHUNK], self.order[self.CHUNK :]
            texts, facts = reference.census_facts(self.N, chunk)
            self.pending = list(zip(texts, facts))[::-1]
        return self.pending.pop()

    def run(self, text):
        return self.boolfn.cli.analyze_table(self.boolfn.from_bitstring(text))

    def check(self, expected, report) -> str | None:
        got = reference.report_tuple(report.to_dict())
        return None if got == expected else f"report {got} != reference {expected}"

    @staticmethod
    def output_bytes(output) -> int:
        return 0


WORKLOADS = {"analyze-wide": AnalyzeWide, "verify-sweep": VerifySweep, "census-n4": CensusN4}


def checked(workload, expected, output) -> str | None:
    try:
        return workload.check(expected, output)
    except Exception as exc:  # a malformed output is a failed operation
        return f"unreadable output: {exc!r}"


def measure(boolfn, args) -> dict:
    workload = WORKLOADS[args.workload](boolfn, np.random.default_rng(args.seed))
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, boolfn)
    clock = time.perf_counter
    seconds = array("d")  # 8 bytes per operation, not a list of floats
    errors: list[str] = []
    output_bytes = 0
    deadline = clock() + args.seconds
    while not seconds or clock() < deadline:
        op_input, expected = workload.prepare()
        if tracer:
            tracer.op = len(seconds)
        start = clock()
        try:
            output = workload.run(op_input)
            end = clock()
        except Exception as exc:  # count the failure and keep the loop going
            end = clock()
            error = f"raised {exc!r}"
        else:
            error = checked(workload, expected, output)
            output_bytes += workload.output_bytes(output)
        seconds.append(end - start)
        if error:
            errors.append(error)
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # before the output is built
    result = {
        "op_seconds": seconds.tolist(),
        "failed": len(errors),
        "errors": errors[:5],
        "peak_rss_kib": peak_rss_kib,
    }
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer, len(seconds), seconds, output_bytes)
        out_dir = spec.ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{args.workload}.npz"
        tracer.save(spans_file)
        result["spans"] = tracer.spans
        result["spans_file"] = str(spans_file.relative_to(spec.ROOT))
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args()
    if not args.probe and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required unless --probe")

    boolfn = load_boolfn()
    rc, _ = call_cli(boolfn.cli, WARMUP_ARGV)
    if rc != 0:
        raise SystemExit(f"warm-up call exited {rc}")
    print("ready", flush=True)
    if not args.probe:
        print(json.dumps(measure(boolfn, args)), flush=True)


if __name__ == "__main__":
    main()
