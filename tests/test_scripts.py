"""Entry points run end to end: each bundled script and ``python -m
txpostmortem`` in its own interpreter, so that a script importing a name the
package no longer has fails here, and the command line's budget flags."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from txpostmortem import CASE_BUILDERS, cli, workspace

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script",
    [
        ["run_offline_case.py", "prxvt"],
        ["replay_benchmark.py"],
        ["mine_lifecycle_demo.py"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_exits_cleanly(script, tmp_path):
    result = _run_script(script, tmp_path / "work")
    assert result.returncode == 0, result.stderr


def test_replay_benchmark_writes_one_evaluator_report(tmp_path):
    workdir = tmp_path / "work"
    result = _run_script(["replay_benchmark.py"], workdir)
    assert result.returncode == 0, result.stderr
    sessions = sorted((workdir / "sessions").iterdir())
    assert len(sessions) == len(CASE_BUILDERS)
    for session in sessions:
        reports = sorted(p.name for p in (session / workspace.EVALUATION_DIR).iterdir())
        assert reports == ["consensus_report.json", "evaluator_0_evaluation_result.json"]


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "txpostmortem", "--help"],
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: txpostmortem")


def _run_script(argv: list[str], workdir: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / argv[0]), *argv[1:],
         "--workdir", str(workdir)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _postmortem(tmp_path: Path, capsys, *flags: str) -> tuple[int, dict]:
    code = cli.main(
        ["postmortem", "--case", "prxvt", "--workdir", str(tmp_path), *flags]
    )
    return code, json.loads(capsys.readouterr().out)


class TestBudgetFlags:
    def test_defaults_complete_the_case(self, tmp_path, capsys):
        code, doc = _postmortem(tmp_path, capsys)
        assert (code, doc["outcome"]["stage"]) == (0, "done")

    @pytest.mark.parametrize(
        "flag, value, failure",
        [
            ("--stage-turns", "1", "root_cause: stage turn budget exhausted"),
            (
                "--analyzer-iterations",
                "1",
                "root_cause: analyzer iteration budget (1) exhausted",
            ),
            (
                "--reproducer-iterations",
                "0",
                "poc: reproducer iteration budget (0) exhausted",
            ),
        ],
    )
    def test_each_flag_caps_its_budget(self, flag, value, failure, tmp_path, capsys):
        code, doc = _postmortem(tmp_path, capsys, flag, value)
        assert code == 1
        assert doc["outcome"]["stage"] == "failed"
        assert doc["outcome"]["failure"] == failure
