"""Entry points run end to end: the bundled demo script and ``python -m
txpostmortem`` in their own interpreters, so that a script importing a name
the package no longer has fails here; the whole command-line pipeline
(``postmortem``, ``evaluate``, ``metrics``, ``dataset export``) over both
bundled cases; the budget flags; the rejection of malformed flags, of flags
a command would ignore and of malformed files the commands read; and the
paper's checklist table as ``txpostmortem metrics --baseline`` prints it.

Flags are the command line's only settings. The credentials a live run
needs come from the environment and never from a flag."""

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
    [["mine_lifecycle_demo.py"]],
    ids=lambda argv: argv[0],
)
def test_script_exits_cleanly(script, tmp_path):
    result = _run_script(script, tmp_path / "work")
    assert result.returncode == 0, result.stderr


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


def _cli(capsys, *argv: str) -> tuple[int, dict]:
    code = cli.main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def _tree(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_cli_pipeline_over_the_bundled_cases(tmp_path, capsys):
    """Each case runs, validates and is judged; the sessions aggregate; the
    export is deterministic when re-run into the same directory."""
    for case in sorted(CASE_BUILDERS):
        code, doc = _cli(capsys, "postmortem", "--case", case, "--workdir", str(tmp_path))
        assert (code, doc["outcome"]["stage"], doc["poc"]["validated"]) == (0, "done", True)
        code, verdict = _cli(capsys, "evaluate", "--session", doc["session_root"])
        assert code == 0
        assert all(verdict["final"].values())
        evaluation = Path(doc["session_root"]) / workspace.EVALUATION_DIR
        assert sorted(p.name for p in evaluation.iterdir()) == [
            "consensus_report.json",
            "evaluator_0_evaluation_result.json",
        ]
    sessions = str(tmp_path / "sessions")
    code, report = _cli(capsys, "metrics", "--sessions", sessions)
    assert (code, report["sessions"], report["outcomes"]) == (0, 2, {"done": 2})
    out = tmp_path / "dataset"
    trees = []
    for _ in range(2):
        code, index = _cli(capsys, "dataset", "export", "--sessions", sessions, "--out", str(out))
        assert (code, index["count"]) == (0, 2)
        trees.append(_tree(out))
    assert trees[0] == trees[1]


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
    return _cli(capsys, "postmortem", "--case", "prxvt", "--workdir", str(tmp_path), *flags)


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


_SCRIPTED_SEED = ["--chainid", "1", "--tx", "0x" + "ab" * 32, "--fixtures", "{tmp}",
                  "--script", "{tmp}", "--transcripts", "{tmp}"]


@pytest.mark.parametrize(
    "argv",
    [
        ["postmortem", "--chainid", "1", "--tx", "0xzz"],
        ["postmortem", "--chainid", "999999", "--tx", "0x" + "ab" * 32],
        ["monitor", "--feed", "{doc}", "--queue", "{tmp}/queue", "--fixtures", "{tmp}",
         "--chains", "1,x"],
        ["monitor", "--feed", "{doc}", "--queue", "{tmp}/queue", "--fixtures", "{tmp}",
         "--chains", "1,999999"],
        ["metrics", "--sessions", "{tmp}", "--baseline", "{doc}"],
        ["postmortem", "--case", "prxvt", "--backend", "live"],
        ["postmortem", "--case", "prxvt", "--fixtures", "{tmp}"],
        ["postmortem", "--case", "prxvt", "--script", "{tmp}"],
        ["postmortem", "--case", "prxvt", "--transcripts", "{tmp}"],
        ["postmortem", "--case", "prxvt", "--rpc-map", "{doc}"],
        ["postmortem", "--case", "prxvt", "--record-fixtures", "{tmp}/rec"],
        ["postmortem", *_SCRIPTED_SEED, "--rpc-map", "{doc}"],
        ["postmortem", *_SCRIPTED_SEED, "--record-fixtures", "{tmp}/rec"],
        ["postmortem", "--case", "prxvt", "--model", "nope"],
        ["postmortem", *_SCRIPTED_SEED, "--model", "nope"],
    ],
    ids=["bad-tx", "unsupported-chain", "bad-chains", "unsupported-chains",
         "baseline-not-a-list", "case-live", "case-fixtures", "case-script",
         "case-transcripts", "case-rpc-map", "case-record-fixtures",
         "scripted-rpc-map", "scripted-record-fixtures", "case-model", "scripted-model"],
)
def test_malformed_input_is_a_usage_error(argv, tmp_path, capsys):
    """A flag the command would ignore is refused too, before any work."""
    doc = tmp_path / "object.json"
    doc.write_text('{"source_id": "post-0"}\n', encoding="utf-8")
    argv = [arg.format(doc=doc, tmp=tmp_path) for arg in argv]
    if argv[0] == "postmortem":
        argv += ["--workdir", str(tmp_path / "work")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "work").exists()


_RAW_BAD_HASH = json.dumps({"targets": [{"chainid": 1, "txhash": "0xzz"}]})


def _validated_session(**files: str) -> dict[str, str]:
    """Files of one exported-looking session ``s/0``, with ``files`` on top."""
    return {
        "s/0/session_summary.json": "{}",
        f"s/0/{workspace.POC_VALIDATED_RESULT}": '{"overall_status": "Pass"}',
        "s/0/raw.json": json.dumps(
            {"targets": [{"chainid": 1, "txhash": "0x" + "ab" * 32}]}
        ),
        **{f"s/0/{name}": text for name, text in files.items()},
    }


@pytest.mark.parametrize(
    "files, argv, named",
    [
        (
            {"feed.jsonl": "[1, 2]\n"},
            ["monitor", "--feed", "{tmp}/feed.jsonl", "--queue", "{tmp}/queue",
             "--fixtures", "{tmp}"],
            "feed.jsonl:1",
        ),
        (
            {"s/0/session_summary.json": "{"},
            ["metrics", "--sessions", "{tmp}/s"],
            "session_summary.json",
        ),
        (
            {"s/0/session_summary.json": "[]"},
            ["metrics", "--sessions", "{tmp}/s"],
            "session_summary.json",
        ),
        (
            {"s/0/session_summary.json": "{}"},
            ["metrics", "--sessions", "{tmp}/s"],
            "session_summary.json",
        ),
        (
            {"s/0/raw.json": '{"targets": []}'},
            ["evaluate", "--session", "{tmp}/s/0"],
            "raw.json",
        ),
        (
            _validated_session(**{"raw.json": _RAW_BAD_HASH}),
            ["dataset", "export", "--sessions", "{tmp}/s", "--out", "{tmp}/out"],
            "raw.json",
        ),
        (
            _validated_session(**{"sources.json": "{"}),
            ["dataset", "export", "--sessions", "{tmp}/s", "--out", "{tmp}/out"],
            "sources.json",
        ),
        (
            _validated_session(**{"sources.json": "[]"}),
            ["dataset", "export", "--sessions", "{tmp}/s", "--out", "{tmp}/out"],
            "sources.json",
        ),
    ],
    ids=["feed-line-not-an-object", "summary-not-json", "summary-not-an-object",
         "summary-without-fields", "raw-without-targets", "raw-with-a-bad-hash",
         "sources-not-json", "sources-not-an-object"],
)
def test_malformed_file_fails_closed(files, argv, named, tmp_path, capsys):
    """A malformed file a command reads ends it with exit 1 and one
    ``error:`` line naming the file, not a traceback."""
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    assert cli.main([arg.format(tmp=tmp_path) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert named in err


class TestChecklistTable:
    def test_baseline_rows_give_the_papers_lifts(self, tmp_path, capsys):
        """The pipeline's pass-rate lift over DeFiHackLabs, in percentage
        points per checklist item, over the 105 rows both sides scored."""
        sessions = tmp_path / "sessions"
        sessions.mkdir()
        code = cli.main(
            [
                "metrics",
                "--sessions", str(sessions),
                "--baseline", str(REPO / "tests" / "data" / "baseline_comparison_rows.json"),
            ]
        )
        checklist = json.loads(capsys.readouterr().out)["checklist"]
        assert code == 0
        assert checklist["aligned"] == 105
        assert checklist["lift_pp"] == {
            "c1": "0.0",
            "c2": "1.9",
            "c3": "0.0",
            "q1": "1.0",
            "q2": "22.9",
            "q3": "34.3",
            "q4": "98.1",
            "q5": "28.6",
            "q6": "10.5",
        }
