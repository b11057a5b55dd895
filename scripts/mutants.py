"""Run the committed mutant table: each mutant must fail the tests it names.

Each entry of ``scripts/mutants.json`` gives a file, the exact text
``before`` that occurs in it once, the text ``after`` that replaces it, one
line on what the replacement breaks (``breaks``) and the test ids that must
fail under it (``tests``).  For each entry this script copies the tree to a
temporary directory, applies the mutant there, runs the entry's tests with
pytest under ``TIMEOUT_S`` and prints one JSON line.  Before any mutant, the
tests of the whole table run once on an unmutated copy, where every one
must pass.

A mutant is killed when every test it names fails.  The script exits 1 if
the unmutated run fails, or if any mutant survives: one of its tests
passes, its ``before`` text does not occur exactly once, or its run
overruns the time limit.  Usage, from any directory:

    python scripts/mutants.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

REPO = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("mutants.json")
#: Longest run of one mutant's tests, in seconds.
TIMEOUT_S = 120

#: What a copy of the tree leaves out: version control, caches and outputs.
_NOT_COPIED = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks",
    ".perfbench_work", "postmortem_runs", "*.egg-info", "build",
)


class TableError(Exception):
    """A table entry cannot be applied to the tree."""


def load_table(path: Path = TABLE) -> list[dict[str, Any]]:
    entries = json.loads(path.read_text(encoding="utf-8"))
    for k, entry in enumerate(entries):
        missing = {"file", "before", "after", "breaks", "tests"} - set(entry)
        if missing or not entry["tests"] or entry["before"] == entry["after"]:
            raise TableError(f"entry {k}: missing {sorted(missing)}, no tests or no change")
    return entries


def apply_mutant(root: Path, entry: dict[str, Any]) -> None:
    """Replace ``before`` by ``after`` in the entry's file under ``root``."""
    path = root / entry["file"]
    text = path.read_text(encoding="utf-8")
    count = text.count(entry["before"])
    if count != 1:
        raise TableError(f"{entry['file']}: 'before' text occurs {count} times, not once")
    path.write_text(text.replace(entry["before"], entry["after"]), encoding="utf-8")


def run_tests(root: Path, tests: list[str]) -> tuple[int | None, set[str]]:
    """Run ``tests`` in the tree at ``root``; return pytest's exit code (None
    on a timeout) and the ids of the tests that failed or errored."""
    command = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    try:
        run = subprocess.run(
            command, cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return None, set()
    failed = {
        line.split(" ")[1]
        for line in run.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }
    return run.returncode, failed


def _copy(scratch: str, name: str) -> Path:
    root = Path(scratch) / name
    shutil.copytree(REPO, root, ignore=_NOT_COPIED)
    return root


def main() -> int:
    entries = load_table()
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        every_test = sorted({test for entry in entries for test in entry["tests"]})
        code, failed = run_tests(_copy(scratch, "clean"), every_test)
        print(json.dumps({"unmutated": "pass" if code == 0 else "fail", "failed": sorted(failed)}))
        if code != 0:
            return 1
        survivors = 0
        for k, entry in enumerate(entries):
            started = time.monotonic()
            root = _copy(scratch, f"mutant_{k}")
            try:
                apply_mutant(root, entry)
            except TableError as exc:
                status, missed = f"table error: {exc}", entry["tests"]
            else:
                code, failed = run_tests(root, entry["tests"])
                missed = [test for test in entry["tests"] if test not in failed]
                status = "timeout" if code is None else "survived" if missed else "killed"
            shutil.rmtree(root)
            survivors += status != "killed"
            print(json.dumps({
                "mutant": k,
                "file": entry["file"],
                "breaks": entry["breaks"],
                "status": status,
                "passed": missed if status == "survived" else [],
                "seconds": round(time.monotonic() - started, 1),
            }), flush=True)
    print(json.dumps({"mutants": len(entries), "survived": survivors}))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
