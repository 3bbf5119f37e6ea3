"""Command-line front door: analyze tables, build majority reports,
run the identity verification sweep, and benchmark the transform.

stdout carries data (JSON by default), stderr carries diagnostics.
Exit codes: 0 success, 1 verification failure, 2 usage or parse error
or out of memory, 141 (128 + SIGPIPE) when the reader closes stdout early.

Every command that allocates 2**n-sized state (analyze, bench, verify and
majority K, with or without --report) runs it inside one memory guard,
_table_memory(n, need), entered once, after the command's own range check.
On entry the guard checks the command's estimate of the bytes it needs
against the memory available (MemAvailable in /proc/meminfo, capped by the
address space left under RLIMIT_AS), and exits 2 with one line naming n,
the estimate and what is available when it does not fit; inside it, a
MemoryError becomes one line naming n.  A MemoryError raised before the
guard, in analyze's parse or in the ANF build whose terms its estimate
counts, stays a bare "out of memory".  The library functions never read
the memory.  verify and majority --report check k against 4..max_vars()
(check_vars(k, 4)) and majority K against 1..max_vars(), so a count out of
range gets the range message, not the guard's; verify enters the guard
before iter_reports reserves the sweep's buffer, which RLIMIT_AS would
otherwise count against the limit twice.  analyze builds the ANF first, as
small as the table, so its estimate can count the terms; without
--spectrum it drops the spectrum once the record holds its fields, before
the ANF's text is built.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass
from functools import cache

import numpy as np

from .anf import AnfTable, to_anf
from .majority import iter_reports, majority, majority_report, run_length_string
from .spectral import WalshSpectrum, check_weight_equals_nonlinearity, walsh_transform
from .truthtable import TruthTable, check_vars, from_bitstring, from_hex, random_table

_RUNLENGTH_MAX_K = 9
# integers written per joined string, so no string of every entry is held
_WRITE_CHUNK = 1 << 16


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the analyzer measures about one table."""

    n: int
    weight: int
    balanced: bool
    nonlinearity: int | None
    degree: int
    max_abs_walsh: int
    max_abs_walsh_at: int
    anf: str
    weight_equals_nonlinearity: str

    def to_dict(self) -> dict:
        return asdict(self)


def analyze_table(t: TruthTable) -> AnalysisReport:
    """The report on t."""
    anf = to_anf(t)
    return _report(t, walsh_transform(t), anf, anf.render())


def _report(t: TruthTable, spectrum: WalshSpectrum, anf: AnfTable, anf_text: str) -> AnalysisReport:
    """The report on t from its spectrum and ANF, with anf_text as its anf:
    analyze_table passes the rendered text, and analyze passes "" and
    writes the ANF's pieces itself."""
    if t.n >= 2:  # the check takes the weight, so it is taken once
        check = check_weight_equals_nonlinearity(t, spectrum)
        weight, nl, verdict = check.weight, check.nonlinearity, check.verdict
    else:
        weight, nl, verdict = t.weight(), (spectrum.nonlinearity() if t.n else None), "not-applicable"
    return AnalysisReport(
        n=t.n,
        weight=weight,
        balanced=2 * weight == t.size,
        nonlinearity=nl,
        degree=anf.degree(),
        max_abs_walsh=spectrum.max_abs(),
        max_abs_walsh_at=spectrum.max_abs_index(),
        anf=anf_text,
        weight_equals_nonlinearity=verdict,
    )


def _available_memory() -> int | None:
    """Bytes this process can still allocate, or None where no figure can be
    read.  MemAvailable in /proc/meminfo counts free memory and the page
    cache the kernel can reclaim; where that cannot be read, the free
    physical pages alone.  A limit on the address space (RLIMIT_AS, as
    `ulimit -v` sets) caps it at the space left under the limit, or at the
    limit itself where the pages mapped now (/proc/self/statm) cannot be
    read."""
    import resource  # here, not at import: only a command about to allocate reads memory

    page = os.sysconf("SC_PAGE_SIZE")
    try:
        with open("/proc/meminfo", "rb") as meminfo:
            available = next(int(line.split()[1]) << 10 for line in meminfo if line.startswith(b"MemAvailable:"))
    except (OSError, StopIteration):  # no /proc, or no MemAvailable line in it
        if "SC_AVPHYS_PAGES" not in os.sysconf_names:
            return None
        available = os.sysconf("SC_AVPHYS_PAGES") * page
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    if limit != resource.RLIM_INFINITY:
        mapped = 0  # where there is no /proc, the limit alone caps it
        with suppress(OSError), open("/proc/self/statm", "rb") as statm:  # its first field: the pages mapped now
            mapped = int(statm.read().split()[0]) * page
        available = min(available, max(limit - mapped, 0))
    return available


@contextmanager
def _table_memory(n: int, need: int):
    """The one memory guard of a command on a table of n variables, entered
    once, after its range check and before its 2**n-sized allocations.  On
    entry it raises MemoryError, with one line naming n, need and the bytes
    available, when need is more than that (where no figure can be read,
    nothing is checked); inside the block, a MemoryError is renamed to one
    that names n."""
    available = _available_memory()
    if available is not None and need > available:
        raise MemoryError(
            f"not enough memory for a table of {n} variables (2**{n} points):"
            f" about {need / 2**20:.1f} MiB needed, {available / 2**20:.1f} MiB available"
        )
    try:
        yield
    except MemoryError as exc:
        raise MemoryError(f"out of memory on a table of {n} variables (2**{n} points)") from exc


def _parse_table(text: str, expect_n: int | None) -> TruthTable:
    """Text that starts with 0x or 0X is hex, any other text '0'/'1' text."""
    t = from_hex(text) if text.startswith(("0x", "0X")) else from_bitstring(text)
    if expect_n is not None and t.n != expect_n:
        raise ValueError(f"table has {t.n} variables, expected {expect_n}")
    return t


def _write_joined(values: np.ndarray, sep: str) -> None:
    """Write the integers in values to stdout joined by sep, one chunk at a
    time; a list's repr joins its integers by ", " without a str per entry."""
    for start in range(0, values.size, _WRITE_CHUNK):
        if start:
            sys.stdout.write(sep)
        sys.stdout.write(repr(values[start : start + _WRITE_CHUNK].tolist())[1:-1].replace(", ", sep))


def _cmd_analyze(args: argparse.Namespace) -> int:
    # "-" reads the table from stdin: past n = 18 its text is too long for argv
    text = sys.stdin.read().rstrip() if args.tt == "-" else args.tt
    t = _parse_table(text, args.n)
    anf = to_anf(t)  # packed, as small as the table
    # the bytes the rest needs: the int32 spectrum, 4 a point; the
    # coefficient read, 2 a point, an 8-byte cell per term and ~32 a run of
    # its name grid, which has up to (n / 2) * 2**ceil(n / 2) runs; the
    # render, an 8-byte name per term and the text, " + " and the mean name
    # over all 2**n monomials, half of x1x2...xn; and 640 KiB of fixed-size
    # buffers and heap that the allocator keeps.  The spectrum and the render
    # are not both held without --spectrum, so a dense table, whose render
    # is most of it, peaks at ~0.8 of the estimate
    terms = TruthTable.from_packed(t.n, anf.packed).weight()
    full_name = sum(len(f"x{v}") for v in range(1, t.n + 1))
    grid = t.n << (t.n + 1) // 2 + 4
    with _table_memory(t.n, (6 << t.n) + terms * (38 + full_name) // 2 + grid + (640 << 10)):
        spectrum = walsh_transform(t)
        record = _report(t, spectrum, anf, "").to_dict()
        if args.spectrum:
            record["walsh_spectrum"] = []
        else:
            del spectrum  # the record holds its fields: the render gets its memory
        # one writer for both formats: the record's text holds an empty ANF
        # and spectrum, and each is written after its marker, the ANF a run
        # at a time with no joined copy and the spectrum a chunk at a time.
        # json's escape scan of the ANF costs more than the rest of the dump,
        # and its encoder writes a list one entry at a time; the ANF's
        # alphabet, [0-9x +], needs no escape and the spectrum is plain
        # integers, so both go into the JSON text as they are
        if args.text:
            text = "".join(f"{key}: {value}\n" for key, value in record.items())
            anf_at, spectrum_at, sep, head, tail = "anf: ", "walsh_spectrum: [", ", ", "", ""
        else:
            text = json.dumps(record, indent=2) + "\n"
            anf_at, spectrum_at, sep, head, tail = '"anf": "', '"walsh_spectrum": [', ",\n    ", "\n    ", "\n  "
        # every piece is built before the first byte is written, so an
        # out-of-memory leaves stdout empty
        pieces = anf.render_pieces()
        at = text.index(anf_at) + len(anf_at)
        sys.stdout.write(text[:at])
        sys.stdout.writelines(pieces)
        if args.spectrum:
            end = text.index(spectrum_at, at) + len(spectrum_at)
            sys.stdout.write(text[at:end] + head)
            _write_joined(spectrum.values, sep)
            sys.stdout.write(tail)
            at = end
        sys.stdout.write(text[at:])
    return 0


def _cmd_majority(args: argparse.Namespace) -> int:
    k = args.k
    if args.report:
        with _table_memory(check_vars(k, 4), 9 << k >> 1):  # as verify's last report
            rep = majority_report(k)
        print(json.dumps(rep.to_dict(), indent=2))
        return 0 if rep.all_passed() else 1
    if args.runlength:
        if not 1 <= k <= _RUNLENGTH_MAX_K:
            raise ValueError(f"run-length display supports 1..{_RUNLENGTH_MAX_K} variables")
        print(run_length_string(majority(k)))
        return 0
    # 2.3 bytes a point: the packed table, 1/8; its int, 2/15 (30-bit digits
    # in 4 bytes); the bitstring's format text and its reversal, 1 each
    # (measured: 2.25-2.26 bytes a point over the RSS at import, k = 24..28)
    with _table_memory(check_vars(k, 1), (23 << k) // 10):
        print(majority(k).to_bitstring())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # 4.5 bytes a point of majority(k_max): the sweep's int32 buffer, the
    # table, its halves and quarters, and the walks' buffers (measured: the
    # peak at k_max = 24 is 72.0 MiB over the RSS here)
    failures = []
    with _table_memory(check_vars(args.max_k, 4), 9 << args.max_k >> 1):
        for rep in iter_reports(args.max_k):
            if not rep.all_passed():
                failures.append(rep.k)
            if args.json:
                print(json.dumps(rep.to_dict()), flush=True)
            else:
                failed = [r.name for r in rep.identities if not r.passed]
                status = f"FAIL failed={','.join(failed)}" if failed else "PASS"
                passed = len(rep.identities) - len(failed)
                print(
                    f"k={rep.k:2d}  weight={rep.weight}  N={rep.nonlinearity}"
                    f"  predicted={rep.predicted}  oracle={rep.oracle}"
                    f"  identities={passed}/{len(rep.identities)}  {status}",
                    flush=True,
                )
    summary = {"k_min": 4, "k_max": args.max_k, "all_passed": not failures, "failed_k": failures}
    if args.json:
        print(json.dumps({"summary": summary}))
    else:
        print(f"verified k=4..{args.max_k}: {'all identities hold' if not failures else f'FAILURES at k={failures}'}")
    return 1 if failures else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.reps < 1:
        raise ValueError("--reps must be positive")
    times = []
    with _table_memory(check_vars(args.n), 9 << args.n >> 1):  # the spectrum, the table and buffers
        rng = np.random.default_rng(args.seed)
        for _ in range(args.reps):
            t = random_table(args.n, rng)
            start = time.perf_counter()
            walsh_transform(t)
            times.append(time.perf_counter() - start)
    print(
        json.dumps(
            {
                "n": args.n,
                "reps": args.reps,
                "median_seconds": statistics.median(times),
                "min_seconds": min(times),
                "max_seconds": max(times),
            }
        )
    )
    return 0


@cache  # built once per process: parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolfn",
        description="Exact spectral analysis of Boolean functions and the majority family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="weight, nonlinearity, degree, ANF of a table")
    p.add_argument("--tt", required=True, help="truth table: hex after 0x or 0X, else '0'/'1' text; '-' reads stdin")
    p.add_argument("--n", type=int, default=None, help="expected variable count (checked)")
    p.add_argument("--text", action="store_true", help="plain text instead of JSON")
    p.add_argument("--spectrum", action="store_true", help="include the full Walsh spectrum")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("majority", help="construct the k-variable majority table")
    p.add_argument("k", type=int, help="variable count; with neither mode flag, the table's bitstring is printed")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--report", action="store_true", help="measured vs predicted JSON report")
    mode.add_argument("--runlength", action="store_true", help="run-length display, k <= 9")
    p.set_defaults(func=_cmd_majority)

    p = sub.add_parser("verify", help="check every majority identity up to --max-k")
    p.add_argument("--max-k", type=int, required=True, dest="max_k")
    p.add_argument("--json", action="store_true", help="one JSON report per line")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="time the Walsh transform on random tables")
    p.add_argument("n", type=int)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
        return code
    except (ValueError, MemoryError) as exc:
        # a bare MemoryError carries no text
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes nowhere, with no
        # "Exception ignored" from the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
