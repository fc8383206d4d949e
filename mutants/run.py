"""factlab's standing mutation list: every entry must be killed by tier-1.

    python mutants/run.py

Each entry of mutants.json names a module of src/factlab/, a piece of its
text that occurs exactly once, the text that replaces it and why that
change is a fault the tests must catch.  For each entry the runner copies
the checkout to a temporary directory, applies the one replacement there
(never in the checkout), and runs the tier-1 suite in the copy with -x.

A mutant is killed by an assertion when the first failing test fails on an
assert or a pytest check (pytest.raises that does not raise), and by a
traceback when it fails on any other exception, such as a ValueError from
inside the package: a user would see that as exit 1, not as a wrong answer,
so it is reported apart.  A mutant that passes every test survives, and the
runner then exits 1: a survivor is a gap in the tests, to be closed by a
test, never by deleting the entry.

tests/test_soundness.py::test_every_mutant_targets_text_that_occurs_once is
deselected in the copies: it checks this list against the unmutated
source, so it would fail on every mutant and hide which test catches it.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STALENESS_TEST = "tests/test_soundness.py::test_every_mutant_targets_text_that_occurs_once"
TIMEOUT_S = 900  # per mutant; the whole suite takes under a minute
_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out")
_FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", re.MULTILINE)
# the last line of a long traceback entry: where the exception was raised, and its type
_CRASH = re.compile(r"^(\S+\.py):(\d+): (\w+)$", re.MULTILINE)


def load() -> list:
    return json.loads((HERE / "mutants.json").read_text())


def apply(root: Path, entry: dict) -> None:
    """Replace the entry's old text by its new text in the copy at root."""
    path = root / "src" / "factlab" / f"{entry['module']}.py"
    source = path.read_text()
    if source.count(entry["old"]) != 1:
        raise ValueError(f"{entry['name']}: old text occurs {source.count(entry['old'])} times")
    path.write_text(source.replace(entry["old"], entry["new"]))


def classify(code: int, output: str):
    """(verdict, first failing test) of one tier-1 run of a mutant: -x stops
    at the first failure, whose traceback ends at the line that raised."""
    if code == 0:
        return "SURVIVED", ""
    found = _FIRST_FAILURE.search(output)
    test = found.group(1) if found else ""
    crashes = _CRASH.findall(output)
    if code not in (1, 2) or not crashes:  # 2: a test module failed to import
        return f"ERROR (pytest exit {code})", test
    path, line, kind = crashes[-1]
    if kind in ("AssertionError", "Failed"):  # an assert, or pytest.raises not raised
        return "killed by assertion", test
    return f"killed by traceback ({kind} at {path}:{line})", test


def run(entry: dict):
    with tempfile.TemporaryDirectory(prefix="factlab-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        apply(copy, entry)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                "--deselect", STALENESS_TEST]
        try:
            proc = subprocess.run(argv, cwd=copy, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "ERROR (timeout)", ""
    return classify(proc.returncode, proc.stdout)


def main() -> int:
    entries = load()
    failed = 0
    for entry in entries:
        t0 = time.perf_counter()
        verdict, test = run(entry)
        failed += not verdict.startswith("killed")
        print(f"{entry['name']:<55} {verdict:<40} {time.perf_counter() - t0:6.1f} s  {test}",
              flush=True)
    print(f"{len(entries) - failed} of {len(entries)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
