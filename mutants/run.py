"""Run the kept mutants: each entry of a mutant list edits one source file in
a fresh copy of the repository's src/, tests/, README.md and pyproject.toml,
and runs the entry's pytest selection, which must fail on the edit.

    python mutants/run.py

The mutants are listed in mutants.json beside this script.  Each entry is an
object:

    {"name": ..., "file": path from the repository root,
     "old": text, "new": text, "tests": [pytest node ids]}

where "old" and "new" are a string or a list of lines, joined by newlines.
First the selections of every entry run together on an unmutated copy,
which must pass.  Then each mutant is reported as killed (its selection
failed) or survived (it passed), with pytest's summary line.  An entry
whose old text does not occur exactly once in its file, or whose selection
ends in anything but a pass or a test failure (a collection error, an
unknown test), is an error.  The run exits 1 if the unmutated selections
fail, or if any mutant survived or is in error.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "README.md", "pyproject.toml")
PASSED, FAILED = 0, 1  # pytest's exit codes


def copy_repo(dest: pathlib.Path) -> None:
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        else:
            shutil.copy2(ROOT / name, dest / name)


def pytest(tree: pathlib.Path, selection: list[str]) -> tuple[int, str]:
    """pytest's exit code on the selection in tree, and its last line."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else proc.stderr.strip()


def text(value: str | list[str]) -> str:
    return "\n".join(value) if isinstance(value, list) else value


def run_mutant(entry: dict) -> str:
    """The mutant's outcome line: killed, survived or error."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = pathlib.Path(tmp)
        copy_repo(tree)
        path = tree / entry["file"]
        source, old = path.read_text(), text(entry["old"])
        if source.count(old) != 1:
            return f"error: old text occurs {source.count(old)} times in {entry['file']}"
        path.write_text(source.replace(old, text(entry["new"])))
        code, last = pytest(tree, entry["tests"])
    outcome = {FAILED: "killed", PASSED: "survived"}.get(code, f"error: pytest exit code {code}")
    return f"{outcome} ({last})"


def main() -> int:
    entries = json.loads(pathlib.Path(__file__).with_name("mutants.json").read_text())
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy_repo(pathlib.Path(tmp))
        selection = list(dict.fromkeys(arg for entry in entries for arg in entry["tests"]))
        code, last = pytest(pathlib.Path(tmp), selection)
    print(f"unmutated selections: {'pass' if code == PASSED else 'FAIL'} ({last})", flush=True)
    if code != PASSED:
        return 1
    bad = 0
    for entry in entries:
        outcome = run_mutant(entry)
        bad += not outcome.startswith("killed")
        print(f"{entry['name']}: {outcome}", flush=True)
    print(f"{len(entries) - bad} of {len(entries)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
