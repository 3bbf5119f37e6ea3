#!/usr/bin/env python3
"""List the CLI invocations whose output differs between a git revision and
the working tree.

    python3 scripts/parent_diff.py REV

extracts `git archive REV` into a temporary directory and runs one set of
`boolfn.cli.main` invocations on that tree and on the working tree, each tree
in one Python process of its own with its `src/` first on the path:
- `analyze` over the runs of `test_analyze_output_is_pinned`
  (`tests/test_cli.py`);
- `verify --max-k 24`, as text and with `--json`;
- `majority K --report` for K = 4..24;
- the range edges: `verify --max-k` 3, 25 and 99 (24 is above), and
  `majority K --report` for K = 3, 25 and 99.
It prints each invocation whose stdout, stderr or exit code differs, with the
first differing character of each stream, then the count; it exits 1 when any
differs and 0 when none does.  Both trees run under this process's
environment, so a `BOOLFN_MAX_N` set here applies to both.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile
from typing import IO

ROOT = pathlib.Path(__file__).resolve().parents[1]

# runs in each tree: one JSON line [argv, stdin text or null] in, one JSON
# line [exit code, stdout, stderr] out, per invocation
RUNNER = """
import io, json, pathlib, sys
import boolfn.cli
tree = pathlib.Path(sys.argv[1]).resolve()
if tree not in pathlib.Path(boolfn.cli.__file__).resolve().parents:
    sys.exit(f"boolfn imported from {boolfn.cli.__file__}, not from {tree}")
for line in sys.stdin:
    argv, stdin = json.loads(line)
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin or ""), out, err
    try:
        code = boolfn.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin, sys.stdout, sys.stderr = sys.__stdin__, sys.__stdout__, sys.__stderr__
    print(json.dumps([code, out.getvalue(), err.getvalue()]), flush=True)
"""


def invocations() -> list[tuple[list[str], str | None]]:
    """(argv, stdin text or None) of every invocation compared."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from test_cli import pinned_analyze_runs

    runs = list(pinned_analyze_runs())
    runs += [(["verify", "--max-k", "24", *flags], None) for flags in ([], ["--json"])]
    runs += [(["majority", str(k), "--report"], None) for k in range(4, 25)]
    runs += [(["verify", "--max-k", k], None) for k in ("3", "25", "99")]
    runs += [(["majority", k, "--report"], None) for k in ("3", "25", "99")]
    return runs


def run_tree(tree: pathlib.Path, requests: str, out: IO[str]) -> None:
    """Run every request on tree, its results written to out a line each."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    command = [sys.executable, "-B", "-c", RUNNER, str(tree)]
    subprocess.run(command, input=requests, stdout=out, text=True, env=env, check=True)
    out.seek(0)


def first_difference(a: str, b: str) -> str:
    """Where a and b first differ, and a few characters of each from there."""
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return f"at {at}: {a[at : at + 60]!r} | {b[at : at + 60]!r}"


def show(argv: list[str], stdin: str | None) -> str:
    words = [w if len(w) <= 40 else f"{w[:37]}..." for w in argv]
    return " ".join(words) + ("" if stdin is None else f" < {stdin[:37]!r}")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 scripts/parent_diff.py REV", file=sys.stderr)
        return 2
    archive = subprocess.run(["git", "archive", argv[0]], cwd=ROOT, capture_output=True)
    if archive.returncode:
        print(archive.stderr.decode().rstrip(), file=sys.stderr)
        return 2
    runs = invocations()
    requests = "".join(json.dumps(run) + "\n" for run in runs)
    with tempfile.TemporaryDirectory() as scratch:
        base = pathlib.Path(scratch)
        subprocess.run(["tar", "-x", "-C", scratch], input=archive.stdout, check=True)
        with tempfile.TemporaryFile("w+") as old, tempfile.TemporaryFile("w+") as new:
            run_tree(base, requests, old)
            run_tree(ROOT, requests, new)
            differ = 0
            for run, old_line, new_line in zip(runs, old, new, strict=True):
                if old_line == new_line:
                    continue
                differ += 1
                (old_code, *old_streams), (new_code, *new_streams) = json.loads(old_line), json.loads(new_line)
                notes = [f"exit {old_code} -> {new_code}"] if old_code != new_code else []
                for name, a, b in zip(("stdout", "stderr"), old_streams, new_streams):
                    if a != b:
                        notes.append(f"{name} {first_difference(a, b)}")
                print(f"{show(*run)}: " + "; ".join(notes))
    print(f"{len(runs)} invocations, {differ} differ ({argv[0]} -> working tree)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
