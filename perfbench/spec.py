"""What the benchmark measures: workloads, metrics, bounds and run length.

This module is the single source of the benchmark manifest.  Running it
writes BENCHMARK.json at the repository root:

    python3 perfbench/spec.py
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUN_SECONDS = 30

# Workload name -> why it is in the benchmark (one line each).
WORKLOADS = {
    "analyze-wide": (
        "n=18 dense random tables as hex through cli.main analyze: ANF render and the hex "
        "codec dominate, Walsh is small, the 2 MiB int64 spectrum is about L2 size"
    ),
    "verify-sweep": (
        "one verify --max-k 24 --json sweep per op: Walsh kernel at 2^16..2^24 points and "
        "majority builds dominate, no ANF or parsing, buffers exceed L2"
    ),
    "census-n4": (
        "all 65,536 tables on 4 variables, one from_bitstring + analyze_table call each: "
        "per-call overhead dominates, and the exhaustive space has an exact reference"
    ),
}

# (name, unit, better, bound, meaning).  One operation is one table on
# analyze-wide and census-n4, and one whole verify sweep on verify-sweep.
# The timing bounds are wide because the speed of a shared 2-vCPU host
# drifts between runs: medians of 30 s runs spread by 6-27% (quartile
# distance over median) with the program unchanged.  setup_s keeps the
# largest bound, so the timing bounds sit just below it.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "worker interpreter start to import boolfn plus one warm-up call; median of several starts"),
    ("op_p50_ms", "ms", "lower", 0.24,
     "median time of one operation: table_p50_ms on the table workloads, sweep_s x 1000 on verify-sweep"),
    ("ops_per_s", "1/s", "higher", 0.24,
     "operations completed per second the worker was busy: tables_per_s or sweeps per second"),
    ("peak_rss_mib", "MiB", "lower", 0.05,
     "peak resident memory of the worker process"),
]

# (name, unit, better, meaning).  Times are self time: a span's duration
# minus the time its child spans cover.  "/op" values are per operation.
PER_LAYER = [
    ("truthtable.parse_s", "s/op", "lower", "self time in from_hex and from_bitstring"),
    ("truthtable.parse_calls", "count/op", "lower", "parse calls made by the caller (not nested)"),
    ("truthtable.parse_chars_per_s", "chars/s", "higher", "characters of caller text parsed per second of parse time"),
    ("truthtable.structural_s", "s/op", "lower", "self time in halves, complement, reverse, concat"),
    ("truthtable.structural_calls", "count/op", "lower", "calls of halves, complement, reverse, concat"),
    ("spectral.walsh_transform_s", "s/op", "lower", "self time in walsh_transform"),
    ("spectral.walsh_transform_calls", "count/op", "lower", "walsh_transform calls"),
    ("spectral.walsh_points", "count/op", "lower", "sum of 2^n over walsh_transform calls"),
    ("spectral.butterfly_ops", "count/op", "lower", "sum of n * 2^n over walsh_transform calls (computed)"),
    ("spectral.bytes_computed", "B/op", "lower",
     "n passes each reading and writing the returned array, from its dtype (computed, not measured)"),
    ("spectral.ops_per_byte", "ops/B", "higher", "butterfly_ops / bytes_computed"),
    ("spectral.butterfly_ops_per_s", "ops/s", "higher", "butterfly_ops per second of walsh_transform self time"),
    ("spectral.max_buffer_bytes", "B", "lower", "largest spectrum array returned in the run"),
    ("spectral.reduce_s", "s/op", "lower", "self time in WalshSpectrum max_abs, max_abs_index, nonlinearity"),
    ("spectral.small_weight_check_s", "s/op", "lower", "self time in check_weight_equals_nonlinearity"),
    ("spectral.oracle_s", "s/op", "lower", "self time in brute_force_nonlinearity"),
    ("spectral.oracle_calls", "count/op", "lower", "brute_force_nonlinearity calls"),
    ("anf.to_anf_s", "s/op", "lower", "self time in to_anf"),
    ("anf.to_anf_calls", "count/op", "lower", "to_anf calls"),
    ("anf.degree_s", "s/op", "lower", "self time in AnfTable.degree"),
    ("anf.render_s", "s/op", "lower", "self time in AnfTable.render"),
    ("anf.monomials_emitted", "count/op", "lower", "monomials rendered"),
    ("anf.render_monomials_per_s", "1/s", "higher", "monomials rendered per second of render self time"),
    ("majority.build_s", "s/op", "lower", "self time in majority"),
    ("majority.build_calls", "count/op", "lower", "majority calls"),
    ("majority.build_points", "count/op", "lower", "sum of 2^k over majority calls"),
    ("majority.report_self_s", "s/op", "lower", "self time in majority_report"),
    ("cli.main_self_s", "s/op", "lower", "self time in cli.main: argparse, JSON, output"),
    ("cli.analyze_table_self_s", "s/op", "lower", "self time in cli.analyze_table"),
    ("cli.output_bytes", "B/op", "lower", "bytes cli.main wrote to stdout"),
    ("trace.op_p50_ms", "ms", "lower", "median operation time with tracing on"),
    ("trace.attributed_share", "ratio", "higher",
     "self time of the named layer spans / traced operation time; cli.main, cli.analyze_table "
     "and majority_report self time count as unattributed"),
]


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better, _ in PER_LAYER
        ],
    }


if __name__ == "__main__":
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
