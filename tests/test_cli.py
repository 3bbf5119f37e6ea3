"""End-to-end CLI runs: JSON shapes, exit codes, error channels."""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import types
import weakref

import numpy as np
import pytest

from boolfn import (
    AnfTable,
    IdentityResult,
    SpectrumSweep,
    TruthTable,
    WalshSpectrum,
    from_bitstring,
    majority,
    majority_report,
    max_vars,
    random_table,
    to_anf,
    verify_identities,
    walsh_transform,
)
from boolfn.cli import _build_parser, analyze_table, main

from conftest import count_transforms

CLI = importlib.import_module("boolfn.cli")

MAJ5 = "00000001000101110001011101111111"
# table texts that analyze refuses, or reads past an odd character: hex with
# whitespace inside, non-ASCII or non-hex digits, no digit, one digit, a
# vertical tab or a lone surrogate; a bad binary digit, the empty text, and
# lengths that are not a power of two
MALFORMED = [
    *["0x12\t34", "0x1234 ", "0x12  34", "0x1 2", "0x 123", "0x\u0661\u0662", "0x\uff10\uff11", "0xgf", "0x\xe9"],
    *["0x", "0x1", "0x12\x0b34", "0x\udc80", "0120", "", "011", "0x123"],
]


def pinned_analyze_runs():
    """(argv, stdin text or None) of every analyze run in the pinned digest.
    The tables come from a seeded random.Random, whose stream is fixed
    across releases: for n = 0..16 a dense table, a sparse one of at most
    n // 2 + 1 set entries and both constants, as binary and (n >= 2) hex
    text, in JSON and --text, with and without --spectrum."""
    rnd = random.Random(0xA11)
    for n in range(17):
        size = 1 << n
        sparse = 0
        for _ in range(n // 2 + 1):
            sparse |= 1 << rnd.randrange(size)
        for bits in (rnd.getrandbits(size), sparse, 0, (1 << size) - 1):
            t = TruthTable(n, bits)
            for tt in [t.to_bitstring(), *([t.to_hex()] if n >= 2 else [])]:
                for flags in ([], ["--text"], ["--spectrum"], ["--text", "--spectrum"]):
                    yield ["analyze", "--tt", tt, *flags], None
    for tt in MALFORMED:
        for flags in ([], ["--n", "4"], ["--text", "--spectrum"]):
            yield ["analyze", "--tt", tt, *flags], None
        yield ["analyze", "--tt", "-"], tt + "\n"
    yield ["analyze", "--tt", "0x17", "--n", "4"], None
    yield ["analyze", "--tt", "-", "--n", "3"], "0110\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_sharpness_example(self, capsys):
        code, out, _ = run(capsys, "analyze", "--tt", "00010011")
        assert code == 0
        report = json.loads(out)
        assert report["weight"] == 3
        assert report["nonlinearity"] == 1
        assert report["degree"] == 3
        assert report["anf"] == "x1x2x3 + x1x2 + x2x3"
        assert report["weight_equals_nonlinearity"] == "not-applicable"

    def test_zero_table(self, capsys):
        code, out, _ = run(capsys, "analyze", "--tt", "0000")
        report = json.loads(out)
        assert code == 0
        assert (report["weight"], report["nonlinearity"], report["degree"]) == (0, 0, 0)
        assert report["balanced"] is False
        assert report["max_abs_walsh"] == 4 and report["max_abs_walsh_at"] == 0

    def test_hex_input(self, capsys):
        code, out, _ = run(capsys, "analyze", "--tt", "0x0117177f", "--n", "5")
        assert code == 0
        assert json.loads(out)["weight"] == 16
        # the prefix alone makes the text hex, in either case
        assert run(capsys, "analyze", "--tt", "0X0117177F", "--n", "5") == (code, out, "")

    @pytest.mark.parametrize("tt, flags", [(MAJ5, []), ("0x0117177f", ["--n", "5", "--text"])])
    def test_table_from_stdin(self, capsys, monkeypatch, tt, flags):
        # "--tt -" reads the text from stdin, its trailing whitespace stripped
        expected = run(capsys, "analyze", "--tt", tt, *flags)
        monkeypatch.setattr(sys, "stdin", io.StringIO(tt + " \n"))
        assert run(capsys, "analyze", "--tt", "-", *flags) == expected

    def test_variable_count_mismatch(self, capsys):
        code, out, err = run(capsys, "analyze", "--tt", "0x17", "--n", "4")
        assert code == 2 and out == ""
        assert "3 variables, expected 4" in err

    def test_parse_error_names_position(self, capsys):
        code, _, err = run(capsys, "analyze", "--tt", "0120")
        assert code == 2
        assert "position 2" in err

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, "analyze", "--tt", "00010011", "--text")
        assert code == 0
        lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert lines["weight"] == "3" and lines["nonlinearity"] == "1"

    def test_spectrum_flag(self, capsys):
        _, out, _ = run(capsys, "analyze", "--tt", "0110", "--spectrum")
        report = json.loads(out)
        assert report["walsh_spectrum"] == [0, 0, 0, 4]

    def test_spectrum_flag_under_text(self, capsys):
        _, plain, _ = run(capsys, "analyze", "--tt", "0110", "--text")
        code, out, _ = run(capsys, "analyze", "--tt", "0110", "--text", "--spectrum")
        assert code == 0
        assert out == plain + "walsh_spectrum: [0, 0, 0, 4]\n"

    def test_spectrum_flag_transforms_once(self, capsys, monkeypatch):
        t = from_bitstring(MAJ5)
        expected = {**analyze_table(t).to_dict(), "walsh_spectrum": walsh_transform(t).values.tolist()}
        calls = []

        def counted(table):
            calls.append(table)
            return walsh_transform(table)

        for name in ("cli", "spectral"):
            monkeypatch.setattr(importlib.import_module(f"boolfn.{name}"), "walsh_transform", counted)
        code, out, _ = run(capsys, "analyze", "--tt", MAJ5, "--spectrum")
        assert code == 0 and len(calls) == 1
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_small_weight_check_by_module_name(self, monkeypatch):
        # the traced benchmark wraps the check under this name
        module = importlib.import_module("boolfn.cli")
        real = module.check_weight_equals_nonlinearity
        calls = []

        def counted(t, spectrum=None):
            calls.append(spectrum)
            return real(t, spectrum)

        monkeypatch.setattr(module, "check_weight_equals_nonlinearity", counted)
        t = from_bitstring(MAJ5)
        assert analyze_table(t).weight_equals_nonlinearity == "not-applicable"
        assert [spectrum.n for spectrum in calls] == [t.n]

    def test_nonlinearity_read_once(self, monkeypatch):
        real = WalshSpectrum.nonlinearity
        calls = []

        def counted(spectrum):
            calls.append(spectrum.n)
            return real(spectrum)

        monkeypatch.setattr(WalshSpectrum, "nonlinearity", counted)
        report = analyze_table(from_bitstring("0001000000000001"))
        assert calls == [4]
        assert report.nonlinearity == 2 and report.weight_equals_nonlinearity == "pass"

    # the ANF is written a run at a time, into the JSON text unescaped: the
    # bytes must be json's own, the ANF must be render()'s text, and every
    # --text line must be "key: value" of the report, in order, for a random
    # table and both constants
    @pytest.mark.parametrize("n", range(17))
    @pytest.mark.parametrize("flags", [[], ["--spectrum"]], ids=["plain", "spectrum"])
    def test_json_output_is_json_dumps(self, capsys, n, flags):
        zero = TruthTable(n, 0)
        for t in (random_table(n, np.random.default_rng(n)), zero, zero.complement()):
            tt = t.to_hex() if n >= 2 else t.to_bitstring()
            code, out, _ = run(capsys, "analyze", "--tt", tt, *flags)
            assert code == 0
            assert out == json.dumps(json.loads(out), indent=2) + "\n"
            assert json.loads(out)["anf"] == analyze_table(t).anf
            code, out, _ = run(capsys, "analyze", "--tt", tt, "--text", *flags)
            assert code == 0
            record = analyze_table(t).to_dict()
            if flags:
                record["walsh_spectrum"] = walsh_transform(t).values.tolist()
            assert out == "".join(f"{key}: {value}\n" for key, value in record.items())

    # the spectrum is written a chunk at a time; every n above holds one chunk
    @pytest.mark.parametrize("chunk", [1, 3, 4, 16])
    def test_spectrum_written_in_chunks(self, capsys, monkeypatch, chunk):
        monkeypatch.setattr(importlib.import_module("boolfn.cli"), "_WRITE_CHUNK", chunk)
        t = random_table(4, np.random.default_rng(4))
        values = walsh_transform(t).values.tolist()
        _, out, _ = run(capsys, "analyze", "--tt", t.to_hex(), "--spectrum")
        assert out == json.dumps({**analyze_table(t).to_dict(), "walsh_spectrum": values}, indent=2) + "\n"
        _, plain, _ = run(capsys, "analyze", "--tt", t.to_hex(), "--text")
        _, out, _ = run(capsys, "analyze", "--tt", t.to_hex(), "--text", "--spectrum")
        assert out == plain + f"walsh_spectrum: {values}\n"

    # the bytes of every run in pinned_analyze_runs, as the sweep's are pinned
    # under TestVerify: stdout, stderr and exit code, one digest for all
    def test_analyze_output_is_pinned(self, capsys, monkeypatch):
        digest = hashlib.sha256()
        for argv, stdin in pinned_analyze_runs():
            if stdin is not None:
                monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
            digest.update(repr((argv, stdin, *run(capsys, *argv))).encode())
        assert digest.hexdigest() == "edb6a54ac46af6625c5ea9dafc6802a4e97a56f600e229562a6aea112684a185"

    def test_consistency_invariant(self, capsys):
        _, out, _ = run(capsys, "analyze", "--tt", MAJ5)
        report = json.loads(out)
        assert report["nonlinearity"] == (1 << (report["n"] - 1)) - report["max_abs_walsh"] // 2


class TestMajority:
    def test_table_output(self, capsys):
        code, out, _ = run(capsys, "majority", "5")
        assert code == 0 and out.strip() == MAJ5

    def test_runlength_output(self, capsys):
        code, out, _ = run(capsys, "majority", "5", "--runlength")
        assert code == 0
        assert out.strip() == "0_7 1 0_3 1 0 1_3 0_3 1 0 1_3 0 1_7"

    def test_report_output(self, capsys):
        code, out, _ = run(capsys, "majority", "6", "--report")
        assert code == 0
        report = json.loads(out)
        assert report["nonlinearity"] == 22
        assert all(item["pass"] for item in report["identities"])

    def test_zero_is_an_error(self, capsys):
        code, out, err = run(capsys, "majority", "0")
        assert code == 2 and out == "" and "error" in err

    def test_runlength_cap(self, capsys):
        code, _, err = run(capsys, "majority", "10", "--runlength")
        assert code == 2 and "1..9" in err

    def test_report_range(self, capsys):
        code, _, err = run(capsys, "majority", "3", "--report")
        assert code == 2 and "variable count 3 outside 4..30" in err


class TestVerify:
    def test_small_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-k", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4  # k=4,5,6 plus the summary
        assert all("PASS" in line for line in lines[:3])
        assert "all identities hold" in lines[-1]

    def test_json_stream(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-k", "5", "--json")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert [rec["k"] for rec in lines[:-1]] == [4, 5]
        assert lines[-1]["summary"]["all_passed"] is True
        assert lines[-1]["summary"]["failed_k"] == []

    # the bytes of the full sweep, pinned so that a faster path cannot change them
    @pytest.mark.parametrize(
        "flags,digest",
        [
            ([], "027e23f3ddad677f5a291c1d863cf5011f1026c4a564113ecad3e2e1909b6f55"),
            (["--json"], "a15bb06b7217bc126b52e6a5088d53d7fd06e0b47b6bf4b937260c0788b12eeb"),
        ],
        ids=["text", "json"],
    )
    def test_full_sweep_output_is_pinned(self, capsys, flags, digest):
        code, out, _ = run(capsys, "verify", "--max-k", "24", *flags)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_low_bound_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--max-k", "3")
        assert code == 2 and "variable count 3 outside 4..30" in err

    @pytest.mark.parametrize("as_json", [False, True])
    def test_cap_is_checked_before_the_first_report(self, capsys, monkeypatch, as_json):
        monkeypatch.setenv("BOOLFN_MAX_N", "8")
        code, out, err = run(capsys, "verify", "--max-k", "12", *(["--json"] if as_json else []))
        assert code == 2 and out == ""
        assert "variable count 12 outside 4..8" in err

    @pytest.mark.parametrize("as_json", [False, True])
    def test_failed_identity_exits_1(self, capsys, monkeypatch, as_json):
        module = importlib.import_module("boolfn.majority")  # boolfn.majority is the function
        real = module.majority_report

        def broken(k, *args, **kwargs):
            rep = real(k, *args, **kwargs)
            return dataclasses.replace(rep, identities=(IdentityResult("forced", False),)) if k == 5 else rep

        monkeypatch.setattr(module, "majority_report", broken)
        code, out, _ = run(capsys, "verify", "--max-k", "6", *(["--json"] if as_json else []))
        assert code == 1
        if as_json:
            assert json.loads(out.splitlines()[-1])["summary"]["failed_k"] == [5]
        else:
            assert out.splitlines()[1].endswith("FAIL failed=forced") and "FAILURES at k=[5]" in out


class TestReportRange:
    """verify and majority --report take k in 4..max_vars(), checked by
    check_vars(k, 4) before the memory preflight.  BOOLFN_MAX_N lowers the cap
    to 10, so no test here builds a sweep past 2**10 points."""

    def test_verify_runs_at_the_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("BOOLFN_MAX_N", "10")
        code, out, err = run(capsys, "verify", "--max-k", "10", "--json")
        *records, last = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and err == ""
        assert [rec["k"] for rec in records] == list(range(4, 11))
        assert last["summary"] == {"k_min": 4, "k_max": 10, "all_passed": True, "failed_k": []}

    @pytest.mark.parametrize(
        "argv", [["verify", "--max-k", "11"], ["majority", "11", "--report"]], ids=["verify", "majority"]
    )
    def test_one_past_the_cap_is_a_usage_error(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("BOOLFN_MAX_N", "10")
        assert run(capsys, *argv) == (2, "", "error: variable count 11 outside 4..10\n")

    # with no memory to spare, a count out of range still gets the range
    # message: the preflight never sees it
    @pytest.mark.parametrize("k", ["99", "3", "-1"])
    @pytest.mark.parametrize("command", ["verify", "majority"])
    def test_range_is_checked_before_the_memory(self, capsys, monkeypatch, command, k):
        monkeypatch.setattr(CLI, "_available_memory", lambda: 0)
        argv = ["verify", "--max-k", k] if command == "verify" else ["majority", k, "--report"]
        assert run(capsys, *argv) == (2, "", f"error: variable count {k} outside 4..{max_vars()}\n")

    # the preflight runs before iter_reports reserves the sweep's buffer,
    # which RLIMIT_AS would count against the limit a second time
    @pytest.mark.parametrize(
        "argv", [["verify", "--max-k", "12"], ["majority", "12", "--report"]], ids=["verify", "majority"]
    )
    def test_preflight_refuses_before_the_sweep_is_built(self, capsys, monkeypatch, argv):
        module = importlib.import_module("boolfn.majority")  # boolfn.majority is the function
        built, sweep = [], module.SpectrumSweep
        monkeypatch.setattr(module, "SpectrumSweep", lambda k_max: built.append(k_max) or sweep(k_max))
        need = 9 * 2**12 // 2
        monkeypatch.setattr(CLI, "_available_memory", lambda: need - 1)
        assert run(capsys, *argv) == (2, "", not_enough(12, need, need - 1))
        assert built == []
        monkeypatch.setattr(CLI, "_available_memory", lambda: need)
        assert run(capsys, *argv)[0] == 0
        assert built == [12]


class TestBench:
    def test_reports_timing(self, capsys):
        code, out, _ = run(capsys, "bench", "8", "--reps", "3", "--seed", "1")
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 8 and report["reps"] == 3
        assert 0 <= report["min_seconds"] <= report["median_seconds"] <= report["max_seconds"]

    def test_degenerate_size(self, capsys):
        code, out, _ = run(capsys, "bench", "0")
        assert code == 0
        assert json.loads(out)["median_seconds"] < 0.1

    def test_cap(self, capsys):
        code, _, err = run(capsys, "bench", "31")
        assert code == 2 and "outside 0..30" in err

    def test_reps_guard(self, capsys):
        code, _, err = run(capsys, "bench", "4", "--reps", "0")
        assert code == 2 and "positive" in err


class TestParser:
    def test_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_exits_two(self, capsys):
        # --format and majority --table are not flags: the 0x/0X prefix picks the codec, a bitstring is the default
        for argv in (
            ["analyze", "--tt", "0110", "--bogus"],
            ["analyze", "--tt", "0x16", "--format", "hex"],
            ["majority", "5", "--table"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv

    # the parser is built once per process; a call after another must read
    # its arguments as a first call does, with nothing left from the last one
    @pytest.mark.parametrize(
        "before, argv",
        [
            (["analyze", "--tt", MAJ5, "--text"], ["analyze", "--tt", MAJ5]),
            (["verify", "--max-k", "6"], ["analyze", "--tt", MAJ5]),
        ],
        ids=["text-then-json", "verify-then-analyze"],
    )
    def test_a_second_call_reads_as_a_first(self, capsys, before, argv):
        _build_parser.cache_clear()
        first = run(capsys, *argv)
        _build_parser.cache_clear()
        assert run(capsys, *before)[0] == 0
        assert run(capsys, *argv) == first
        assert _build_parser.cache_info().misses == 1

    @pytest.mark.parametrize("value", ["abc", "-1", "31"])
    def test_invalid_variable_cap(self, capsys, monkeypatch, value):
        monkeypatch.setenv("BOOLFN_MAX_N", value)
        code, out, err = run(capsys, "analyze", "--tt", "0110")
        assert code == 2 and out == ""
        assert err == f"error: BOOLFN_MAX_N must be an integer in 0..30, got {value!r}\n"


class TestOutOfMemory:
    # every command that allocates 2**n-sized state runs it inside the guard
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--tt", MAJ5],
            ["bench", "5", "--reps", "2"],
            ["verify", "--max-k", "5"],
            ["majority", "5", "--report"],
            ["majority", "5"],
        ],
    )
    def test_exits_2_naming_the_variable_count(self, capsys, monkeypatch, argv):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 128. B for an array with shape (32,) and data type int32")

        for name in ("walsh_transform", "iter_reports", "majority_report", "majority"):
            monkeypatch.setattr(CLI, name, exhausted)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: out of memory on a table of 5 variables (2**5 points)\n"

    # every ANF piece is built before the first byte is written: a
    # MemoryError from the join of a run past the first leaves stdout empty
    @pytest.mark.parametrize("flags", [[], ["--text"]], ids=["json", "text"])
    def test_nothing_written_before_the_anf_pieces_are_built(self, capsys, monkeypatch, flags):
        class Exhausting(str):
            def __radd__(self, other):  # the run's separator and prefix, " + " + prefix
                raise MemoryError

        module = importlib.import_module("boolfn.anf")
        grid = module._grid(14)
        prefixes = grid.prefixes.copy()
        prefixes[len(prefixes) // 2 :] = [Exhausting(p) for p in prefixes[len(prefixes) // 2 :]]
        monkeypatch.setattr(module, "_grid", lambda n: grid._replace(prefixes=prefixes))
        t = random_table(14, np.random.default_rng(14))
        code, out, err = run(capsys, "analyze", "--tt", t.to_hex(), *flags)
        assert code == 2 and out == ""
        assert err == "error: out of memory on a table of 14 variables (2**14 points)\n"

    # the parse runs before n is known, outside every guard
    def test_bare_memory_error_exits_2(self, capsys, monkeypatch):
        def exhausted(text):
            raise MemoryError

        monkeypatch.setattr(CLI, "from_hex", exhausted)
        code, out, err = run(capsys, "analyze", "--tt", "0x17")
        assert code == 2 and out == ""
        assert err == "error: out of memory\n"


def analyze_estimate(t: TruthTable) -> int:
    """The bytes analyze expects to need for t, term by term: the int32
    spectrum; the coefficient read, a byte a point twice, an 8-byte cell per
    term and 16 * n bytes per 2**ceil(n / 2) for its name grid; the render, an
    8-byte name per term, " + " and the mean name, half of x1x2...xn; and
    640 KiB of fixed-size buffers."""
    n, terms = t.n, len(to_anf(t).monomials())
    full_name = len("".join(f"x{v}" for v in range(1, n + 1)))
    spectrum, read, grid = 4 * 2**n, 2 * 2**n + 8 * terms, 16 * n * 2 ** ((n + 1) // 2)
    return spectrum + read + grid + terms * (8 + 3) + terms * full_name // 2 + 640 * 1024


def preflight_case(name: str) -> tuple[list[str], int, int]:
    """argv, the variable count the preflight names, and its estimate."""
    rnd = random.Random(name)
    if name.startswith("analyze"):
        _, n, kind, *flags = name.split()
        n, sparse = int(n), 0
        for _ in range(5):
            sparse |= 1 << rnd.randrange(1 << n)
        bits = {"dense": rnd.getrandbits(1 << n), "sparse": sparse, "zero": 0, "ones": (1 << (1 << n)) - 1}[kind]
        t = TruthTable(n, bits)
        tt = t.to_hex() if kind == "dense" else t.to_bitstring()
        return ["analyze", "--tt", tt, *flags], n, analyze_estimate(t)
    argv = name.split()
    n = int(argv[-1] if argv[0] == "verify" else argv[1])
    if argv[0] == "majority" and "--report" not in argv:
        return argv, n, 23 * 2**n // 10  # the packed table, its int, the bitstring and its reversal
    return argv, n, 9 * 2**n // 2  # the sweep's or the transform's buffer, the table and the rest


def not_enough(n: int, need: int, available: int) -> str:
    return (
        f"error: not enough memory for a table of {n} variables (2**{n} points):"
        f" about {need / 2**20:.1f} MiB needed, {available / 2**20:.1f} MiB available\n"
    )


PREFLIGHT_CASES = [
    "analyze 12 dense",
    "analyze 14 sparse --text",
    "analyze 10 zero --text --spectrum",
    "analyze 8 ones --spectrum",
    "analyze 20 dense",
    "verify --json --max-k 12",
    "verify --max-k 9",
    "bench 12 --reps 1",
    "majority 9 --report",
    "majority 9",
]
PREFLIGHT_IDS = [case.replace(" --", "-").replace(" ", "-") for case in PREFLIGHT_CASES]


class TestMemoryPreflight:
    @pytest.mark.parametrize("case", PREFLIGHT_CASES, ids=PREFLIGHT_IDS)
    def test_exits_2_just_below_the_estimate(self, capsys, monkeypatch, case):
        argv, n, need = preflight_case(case)
        monkeypatch.setattr(CLI, "_available_memory", lambda: need - 1)
        calls = count_transforms(monkeypatch)  # and under the name the CLI calls it by:
        monkeypatch.setattr(CLI, "walsh_transform", importlib.import_module("boolfn.spectral").walsh_transform)
        # the table builders: every majority table, and bench's random tables
        built, module = [], importlib.import_module("boolfn.majority")  # boolfn.majority is the function
        threshold = module.threshold
        monkeypatch.setattr(module, "threshold", lambda *args: built.append(args) or threshold(*args))
        monkeypatch.setattr(CLI, "random_table", lambda *args: built.append(args) or random_table(*args))
        assert run(capsys, *argv) == (2, "", not_enough(n, need, need - 1))
        assert calls == [] and built == []

    @pytest.mark.parametrize("case", PREFLIGHT_CASES, ids=PREFLIGHT_IDS)
    def test_runs_at_the_estimate(self, capsys, monkeypatch, case):
        argv, _, need = preflight_case(case)
        # no figure to read: the run is not checked.  One guard per command,
        # so the memory is read once
        reads = []
        monkeypatch.setattr(CLI, "_available_memory", lambda: reads.append(case))  # None
        expected = run(capsys, *argv)
        assert reads == [case]
        monkeypatch.setattr(CLI, "_available_memory", lambda: need)
        code, out, err = run(capsys, *argv)
        assert expected[0] == 0
        if argv[0] == "bench":  # its timings differ from run to run
            out, expected = json.loads(out)["n"], (0, json.loads(expected[1])["n"], "")
        assert (code, out, err) == expected

    # without --spectrum nothing holds the spectrum, or its array, once the
    # record has its fields: the render can have their memory
    @pytest.mark.parametrize("flags", [[], ["--text"], ["--spectrum"], ["--text", "--spectrum"]])
    def test_spectrum_is_freed_before_the_render(self, capsys, monkeypatch, flags):
        refs, alive = [], []

        def transform(t):
            spectrum = walsh_transform(t)
            refs.extend([weakref.ref(spectrum), weakref.ref(spectrum.values.base)])
            return spectrum

        real = AnfTable.render_pieces

        def render_pieces(anf):
            alive.append([ref() is not None for ref in refs])
            return real(anf)

        monkeypatch.setattr(CLI, "walsh_transform", transform)
        monkeypatch.setattr(AnfTable, "render_pieces", render_pieces)
        t = random_table(12, np.random.default_rng(12))
        code, out, _ = run(capsys, "analyze", "--tt", t.to_hex(), *flags)
        assert code == 0 and len(refs) == 2
        assert alive == [[bool("--spectrum" in flags)] * 2]

    def test_the_library_never_reads_the_memory(self, monkeypatch):
        def unreadable():
            raise AssertionError("the available memory was read")

        monkeypatch.setattr(CLI, "_available_memory", unreadable)
        t = random_table(16, np.random.default_rng(16))
        assert analyze_table(t).n == 16
        assert walsh_transform(t).values.size == 1 << 16
        assert len(SpectrumSweep(10).half_spectra(majority(10))) == 2
        assert majority_report(12).all_passed()
        assert all(rep.all_passed() for rep in verify_identities(16))

    @pytest.mark.parametrize("message", ["", "Unable to allocate 4.00 GiB", not_enough(7, 1 << 20, 0)])
    def test_table_memory_rewrites_every_memory_error(self, message):
        with pytest.raises(MemoryError) as info:
            with CLI._table_memory(7, 0):
                raise MemoryError(message)
        assert str(info.value) == "out of memory on a table of 7 variables (2**7 points)"


class TestAvailableMemory:
    PAGE = 4096

    @pytest.fixture
    def host(self, monkeypatch):
        """A host the reader sees: its /proc files by path (None: unreadable),
        its sysconf values and its RLIMIT_AS, none set until a test sets it."""
        import resource

        host = types.SimpleNamespace(files={}, sysconf={"SC_PAGE_SIZE": self.PAGE}, limit=resource.RLIM_INFINITY)

        def fake_open(path, *args, **kwargs):
            if host.files[path] is None:
                raise FileNotFoundError(path)
            return io.BytesIO(host.files[path])

        monkeypatch.setattr(CLI, "open", fake_open, raising=False)
        monkeypatch.setattr(os, "sysconf", lambda name: host.sysconf[name])
        monkeypatch.setattr(resource, "getrlimit", lambda which: (host.limit, host.limit))
        return host

    def test_reads_mem_available(self, host):
        host.files["/proc/meminfo"] = b"MemTotal: 8000000 kB\nMemFree: 1000 kB\nMemAvailable: 4096 kB\n"
        assert CLI._available_memory() == 4096 * 1024

    @pytest.mark.parametrize("meminfo", [None, b"MemTotal: 8000000 kB\nMemFree: 1000 kB\n"], ids=["no-file", "no-line"])
    def test_falls_back_to_the_free_pages(self, host, meminfo):
        host.files["/proc/meminfo"] = meminfo
        host.sysconf["SC_AVPHYS_PAGES"] = 1000
        assert CLI._available_memory() == 1000 * self.PAGE

    def test_none_where_nothing_can_be_read(self, host, monkeypatch):
        host.files["/proc/meminfo"] = None
        monkeypatch.setattr(os, "sysconf_names", {"SC_PAGE_SIZE": 30})
        assert CLI._available_memory() is None

    @pytest.mark.parametrize("mapped_pages, expected", [(1000, (1 << 22) - 1000 * PAGE), (1 << 20, 0)])
    def test_capped_by_the_address_space_left(self, host, mapped_pages, expected):
        host.files["/proc/meminfo"] = b"MemAvailable: 8000000 kB\n"
        host.files["/proc/self/statm"] = f"{mapped_pages} 100 50 1 0 80 0\n".encode()
        host.limit = 1 << 22
        assert CLI._available_memory() == expected

    # a host without /proc/self/statm: the limit alone caps it, with no raise
    @pytest.mark.parametrize("limit, expected", [(1 << 30, 1 << 30), (1 << 20, 1 << 20), (1 << 40, 8000000 << 10)])
    def test_capped_by_the_limit_where_the_mapped_pages_cannot_be_read(self, host, limit, expected):
        host.files["/proc/meminfo"] = b"MemAvailable: 8000000 kB\n"
        host.files["/proc/self/statm"] = None
        host.limit = limit
        assert CLI._available_memory() == expected

    def test_a_command_runs_where_the_mapped_pages_cannot_be_read(self, host, capsys):
        host.files["/proc/meminfo"] = b"MemAvailable: 8000000 kB\n"
        host.files["/proc/self/statm"] = None
        host.limit = 1 << 30
        code, out, err = run(capsys, "majority", "5", "--report")
        assert (code, err) == (0, "") and json.loads(out) == majority_report(5).to_dict()


class TestClosedPipe:
    # analyze writes ~160 KB, more than a pipe holds, so it is still writing
    # when the read end closes; verify writes each report line as it is made,
    # and the reports after k = 4 take far longer than reading the first line
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--tt", "0x" + np.random.default_rng(14).bytes(2048).hex(), "--n", "14"],
            ["verify", "--max-k", "24"],
        ],
        ids=["analyze", "verify"],
    )
    def test_a_reader_that_closes_early_ends_it_quietly_with_141(self, argv):
        package_root = pathlib.Path(importlib.import_module("boolfn.cli").__file__).parents[1]
        path = os.pathsep.join(filter(None, [str(package_root), os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "boolfn.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
        assert first and err == b""
