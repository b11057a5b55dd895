"""Entry points run end to end: ``python -m txpostmortem`` in its own
interpreter; the mutant table against the tree; the whole command-line pipeline
(``postmortem``, ``evaluate``, ``metrics``, ``dataset export``) over both
bundled cases; the ``prxvt_non_act`` overlay replayed as a case directory;
replays that leave every case tree's bytes as they were;
an export over an earlier one, which leaves unchanged incidents alone and
writes edited ones anew; the budget flags; the rejection of malformed
flags, of flags a command would ignore and of malformed files the commands
read, replay case files included; and the paper's checklist table as
``txpostmortem metrics --baseline`` prints it.

Flags are the command line's only settings. The credentials a live run
needs come from the environment and never from a flag."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import VALIDATED_SESSION_DOCS

from txpostmortem import CASE_BUILDERS, cli, scenarios, workspace
from txpostmortem.gateway import DataRequest

REPO = Path(__file__).resolve().parents[1]
#: The overlay cases the tests replay, each a directory over a bundled case.
CASE_OVERLAYS = REPO / "tests" / "data" / "cases"


def _mutants():
    """``scripts/mutants.py`` as a module."""
    spec = importlib.util.spec_from_file_location("mutants", REPO / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_in_the_table_applies_to_the_tree_once():
    """Each mutant still applies, so the gate's run tests what it says."""
    entries = _mutants().load_table()
    assert len(entries) >= 16
    for entry in entries:
        text = (REPO / entry["file"]).read_text(encoding="utf-8")
        assert text.count(entry["before"]) == 1, entry["breaks"]
        assert all((REPO / test.split("::")[0]).is_file() for test in entry["tests"])


def test_a_mutant_text_found_twice_is_a_table_error(tmp_path):
    mutants = _mutants()
    (tmp_path / "f.py").write_text("x = 1\nx = 1\n")
    with pytest.raises(mutants.TableError, match="2 times"):
        mutants.apply_mutant(tmp_path, {"file": "f.py", "before": "x = 1", "after": "x = 2"})
    assert (tmp_path / "f.py").read_text() == "x = 1\nx = 1\n"


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
        ["postmortem", "--case", "prxvt", "--rpc-map", "{doc}"],
        ["postmortem", "--case", "prxvt", "--record-fixtures", "{tmp}/rec"],
        ["postmortem", "--case", "prxvt", "--model", "nope"],
        ["postmortem", "--case", "prxvt", "--chainid", "1"],
        ["postmortem", "--case", "prxvt", "--tx", "0x" + "ab" * 32],
        ["postmortem", "--tx", "0x" + "ab" * 32],
    ],
    ids=["bad-tx", "unsupported-chain", "bad-chains", "unsupported-chains",
         "baseline-not-a-list", "case-rpc-map", "case-record-fixtures", "case-model",
         "case-chainid", "case-tx", "no-case-no-chainid"],
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

_POSTED_TX = "0x" + "ab" * 32
#: The fixture a probe of ``_POSTED_TX`` on chain 1 reads.
_PROBED = f"fix/{DataRequest(kind='tx_metadata', chainid=1, target=_POSTED_TX).key}.json"
_FEED = json.dumps(
    {"source_id": "post-0", "timestamp": "2025-01-01T00:00:00Z",
     "text": f"Exploit alert: drain in {_POSTED_TX}"}
)
_MONITOR = ["monitor", "--feed", "{tmp}/feed.jsonl", "--queue", "{tmp}/queue"]
_MONITOR_FIXTURES = _MONITOR + ["--fixtures", "{tmp}/fix", "--chains", "1"]
_MONITOR_RPC_MAP = _MONITOR + ["--rpc-map", "{tmp}/map.json"]
_REPLAY = ["fixtures", "replay", "--fixtures", "{tmp}/fix", "--chainid", "1",
           "--kind", "tx_metadata", "--target", _POSTED_TX]


def _validated_session(**files: str) -> dict[str, str]:
    """Files of one exported-looking session ``s/0``, with ``files`` on top."""
    return {
        "s/0/session_summary.json": "{}",
        "s/0/sources.json": '{"attributions": ["manual"]}',
        "s/0/raw.json": json.dumps(
            {"targets": [{"chainid": 1, "txhash": "0x" + "ab" * 32}]}
        ),
        **{f"s/0/{rel}": text for rel, text in VALIDATED_SESSION_DOCS.items()},
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
        ({"s/0/raw.json": "{}"}, ["evaluate", "--session", "{tmp}/s/0"], "raw.json"),
        ({"feed.jsonl": _FEED, _PROBED: "{"}, _MONITOR_FIXTURES, _PROBED),
        ({_PROBED: "{"}, _REPLAY, _PROBED),
        ({"feed.jsonl": _FEED, _PROBED: '{"request": {}}'}, _MONITOR_FIXTURES, _PROBED),
        ({_PROBED: '{"payload": []}'}, _REPLAY, _PROBED),
        ({"feed.jsonl": _FEED, "map.json": "{"}, _MONITOR_RPC_MAP, "map.json"),
        ({"feed.jsonl": _FEED, "map.json": '{"x": "http://node"}'}, _MONITOR_RPC_MAP, "map.json"),
        ({"feed.jsonl": _FEED, "map.json": '{"1": 7}'}, _MONITOR_RPC_MAP, "map.json"),
        ({"feed.jsonl": _FEED}, _MONITOR_RPC_MAP, "map.json"),
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
        (
            _validated_session(**{workspace.ORACLE_DEFINITION: '{"chainid": 1}'}),
            ["dataset", "export", "--sessions", "{tmp}/s", "--out", "{tmp}/out"],
            "oracle_definition.json: fails the oracle_definition schema",
        ),
        (
            {},
            ["postmortem", "--case", "{tmp}/nope", "--workdir", "{tmp}/work"],
            "nope: neither a bundled case nor a directory",
        ),
    ],
    ids=["feed-line-not-an-object", "summary-not-json", "summary-not-an-object",
         "summary-without-fields", "raw-without-targets", "raw-empty-object",
         "monitor-fixture-not-json", "replay-fixture-not-json",
         "monitor-fixture-without-payload", "replay-fixture-payload-not-an-object",
         "rpc-map-not-json", "rpc-map-key-not-a-chain-id", "rpc-map-url-not-a-string",
         "rpc-map-missing", "raw-with-a-bad-hash",
         "sources-not-json", "sources-not-an-object", "oracle-definition-without-fields",
         "case-not-a-directory"],
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
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize(
    "rel, data, named",
    [
        ("script/root_cause_analyzer_4.json", b"{}", "root_cause_analyzer indices have gaps"),
        ("script/root_cause_analyzer_01.json", b"{}", "index 1 repeated"),
        ("script/root_cause_analyzer_0.json", b"{", "root_cause_analyzer_0.json"),
        ("script/root_cause_analyzer_0.json", b"[1]", "not a JSON object"),
        ("transcripts/run_2.txt", b"", "run indices have gaps"),
        ("transcripts/run_00.txt", b"", "run_00.txt: index 0 repeated"),
        ("transcripts/run_0.txt", b"\xff\xfe", "run_0.txt"),
        ("expected.json", b"{", "expected.json"),
        ("expected.json", b'{"base": "nope"}', "base is not a bundled case"),
        ("expected.json", b"{}", "names no chainid and seed"),
        ("expected.json", b'{"chainid": 1, "seed": "0xzz"}', "'0xzz'"),
    ],
    ids=["script-gap", "script-repeated", "script-undecodable", "script-not-an-object",
         "transcripts-gap", "transcripts-repeated", "transcripts-undecodable",
         "expected-undecodable", "expected-unknown-base", "expected-without-seed",
         "expected-bad-seed"],
)
def test_malformed_replay_case_fails_closed(rel, data, named, tmp_path, capsys):
    """A case directory with a malformed file, here an overlay on prxvt,
    ends ``postmortem --case`` with exit 1 and one ``error:`` line, not a
    traceback, before any session starts."""
    case = tmp_path / "case"
    (case / rel).parent.mkdir(parents=True)
    (case / "expected.json").write_text('{"base": "prxvt"}', encoding="utf-8")
    (case / rel).write_bytes(data)
    argv = ["postmortem", "--case", str(case), "--workdir", str(tmp_path / "work")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not (tmp_path / "work" / "sessions").exists()


def test_the_non_act_overlay_replays_through_the_cli(tmp_path, capsys):
    """``--case`` takes a case directory; the overlay replays prxvt's seed,
    read in place, and ends where its golden says."""
    overlay = CASE_OVERLAYS / "prxvt_non_act"
    code, doc = _cli(capsys, "postmortem", "--case", str(overlay), "--workdir", str(tmp_path))
    assert code == 0
    raw = json.loads((Path(doc["session_root"]) / "raw.json").read_text(encoding="utf-8"))
    assert raw["targets"] == [{"chainid": scenarios.PRXVT_CHAIN, "txhash": scenarios.PRXVT_SEED}]
    golden = json.loads((overlay / "expected.json").read_text(encoding="utf-8"))["session"]
    for key, want in golden.items():
        assert doc.get(key) == want, key
    assert Path(doc["session_root"]).parent == tmp_path / "sessions"
    assert not (tmp_path / "cases").exists()


def _case_hashes() -> dict[str, str]:
    return {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest()
        for top in (scenarios.CASES_DIR, CASE_OVERLAYS)
        for path in sorted(top.rglob("*"))
        if path.is_file()
    }


def test_replays_leave_the_case_data_alone(tmp_path, capsys):
    """Every bundled case and the overlay replay from where they lie: no
    byte under the case trees changes, and each workdir holds only the
    sessions."""
    before = _case_hashes()
    cases = [*sorted(CASE_BUILDERS), str(CASE_OVERLAYS / "prxvt_non_act")]
    for k, case in enumerate(cases):
        workdir = tmp_path / f"work_{k}"
        code, _ = _cli(capsys, "postmortem", "--case", case, "--workdir", str(workdir))
        assert code == 0, case
        assert [p.name for p in workdir.iterdir()] == ["sessions"], case
    assert _case_hashes() == before


@pytest.mark.parametrize(
    "argv, truncated",
    [
        (["dataset", "export", "--sessions", "{tmp}/s", "--out", "{tmp}/out"],
         workspace.ROOT_CAUSE_DOC),
        (["metrics", "--sessions", "{tmp}/s"], workspace.SESSION_SUMMARY),
    ],
    ids=["export-root-cause", "metrics-summary"],
)
def test_truncated_session_file_fails_closed(argv, truncated, prxvt_run, tmp_path, capsys):
    """A session file cut short, as a killed writer of old left it, ends the
    command with exit 1 and one ``error:`` line naming the file."""
    root = tmp_path / "s" / prxvt_run.session_root.name
    shutil.copytree(prxvt_run.session_root, root)
    path = root / truncated
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    assert cli.main([arg.format(tmp=tmp_path) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert truncated in err


_VERDICT = f"{workspace.REPRODUCER_DIR}/iter_0/{workspace.ENGINE_VERDICT}"


@pytest.mark.parametrize(
    "argv, rel, edit",
    [
        (
            ["metrics", "--sessions", "{tmp}/s"],
            workspace.SESSION_SUMMARY,
            lambda doc: {
                **doc,
                "usage": {**doc["usage"], "cached_input_tokens": doc["usage"]["input_tokens"] + 1},
            },
        ),
        (
            ["metrics", "--sessions", "{tmp}/s"],
            workspace.SESSION_SUMMARY,
            lambda doc: {**doc, "latencies": {**doc["latencies"], "session": "slow"}},
        ),
        (["evaluate", "--session", "{session}"], _VERDICT, lambda doc: []),
        (["evaluate", "--session", "{session}"], _VERDICT, lambda doc: {"rubric": []}),
    ],
    ids=["cached-over-input", "latency-not-a-number", "verdict-not-an-object",
         "verdict-rubric-not-an-object"],
)
def test_a_malformed_session_document_fails_closed(argv, rel, edit, prxvt_run, tmp_path, capsys):
    """A session document that decodes but that the command cannot read
    ends it with exit 1 and one ``error:`` line naming the file."""
    root = tmp_path / "s" / prxvt_run.session_root.name
    shutil.copytree(prxvt_run.session_root, root)
    path = root / rel
    path.write_text(json.dumps(edit(json.loads(path.read_text(encoding="utf-8")))),
                    encoding="utf-8")
    assert cli.main([arg.format(tmp=tmp_path, session=root) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert Path(rel).name in err


def test_a_root_cause_that_is_not_one_is_not_judged(prxvt_run, tmp_path, capsys):
    """``evaluate`` checks the root cause it reads against its schema: a list
    ends it with exit 1 and one ``error:`` line, and no evaluation is written."""
    root = tmp_path / prxvt_run.session_root.name
    shutil.copytree(prxvt_run.session_root, root)
    shutil.rmtree(root / workspace.EVALUATION_DIR, ignore_errors=True)
    (root / workspace.ROOT_CAUSE_DOC).write_text("[]", encoding="utf-8")
    assert cli.main(["evaluate", "--session", str(root)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert workspace.ROOT_CAUSE_DOC in err
    assert not (root / workspace.EVALUATION_DIR).exists()


@pytest.mark.parametrize(
    "verdict",
    [None, '{"overall_status": "Pa', "[]", '{"overall_status": "Pass"}'],
    ids=["missing", "truncated", "not-an-object", "breaks-the-schema"],
)
def test_an_unreadable_verdict_is_not_exported(verdict, prxvt_run, tmp_path, capsys):
    """A last attempt with no validator verdict is skipped; one whose
    verdict is unreadable ends the export with exit 1 and one ``error:``
    line naming the file, and nothing is exported."""
    root = tmp_path / "s" / prxvt_run.session_root.name
    shutil.copytree(prxvt_run.session_root, root)
    (*_, (_, attempt)) = workspace.iteration_dirs(root, workspace.REPRODUCER_DIR)
    path = Path(attempt, workspace.POC_VALIDATION)
    path.unlink()
    argv = ["dataset", "export", "--sessions", str(tmp_path / "s"), "--out", str(tmp_path / "out")]
    if verdict is None:
        code, index = _cli(capsys, *argv)
        assert (code, index["count"]) == (0, 0)
        return
    path.write_text(verdict, encoding="utf-8")
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err
    assert not (tmp_path / "out").exists()


def test_incidents_sharing_a_first_tx_export_apart(prxvt_run, tmp_path, capsys):
    """Seeds {A} and {A, B} on one chain are two incidents whose names
    collide: the second in key order takes ``-1``, and neither's files are
    lost."""
    sessions = tmp_path / "s"
    for name, extra in (("a", []), ("b", ["0x" + "ff" * 32])):
        shutil.copytree(prxvt_run.session_root, sessions / name)
        raw = json.loads((sessions / name / "raw.json").read_text(encoding="utf-8"))
        raw["targets"] += [{"chainid": raw["targets"][0]["chainid"], "txhash": tx} for tx in extra]
        (sessions / name / "raw.json").write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    code, index = _cli(capsys, "dataset", "export", "--sessions", str(sessions), "--out", str(out))
    seed = prxvt_run.bundle.seed()
    base = f"{seed.chainid}_{seed.primary.value[2:10]}"
    assert code == 0
    assert [(e["dir"], len(e["seed_txs"])) for e in index["entries"]] == [
        (base, 1),
        (f"{base}-1", 2),
    ]
    for entry in index["entries"]:
        incident = json.loads((out / entry["dir"] / "incident.json").read_text(encoding="utf-8"))
        assert incident == entry
        assert (out / entry["dir"] / "root_cause.json").is_file()


def test_an_incident_gone_from_the_sessions_leaves_the_export(prxvt_run, tmp_path, capsys):
    """Exporting again after a session is deleted gives a fresh export's
    tree: the gone incident's directory is deleted, and a file that no
    export wrote is left alone."""
    sessions = tmp_path / "s"
    for name, extra in (("a", []), ("b", ["0x" + "ff" * 32])):
        shutil.copytree(prxvt_run.session_root, sessions / name)
        raw = json.loads((sessions / name / "raw.json").read_text(encoding="utf-8"))
        raw["targets"] += [{"chainid": raw["targets"][0]["chainid"], "txhash": tx} for tx in extra]
        (sessions / name / "raw.json").write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    code, index = _cli(capsys, "dataset", "export", "--sessions", str(sessions), "--out", str(out))
    assert (code, index["count"]) == (0, 2)
    (out / "notes").mkdir()
    (out / "notes" / "keep.txt").write_text("mine", encoding="utf-8")
    shutil.rmtree(sessions / "b")
    code, index = _cli(capsys, "dataset", "export", "--sessions", str(sessions), "--out", str(out))
    assert (code, index["count"]) == (0, 1)
    fresh = tmp_path / "fresh"
    _cli(capsys, "dataset", "export", "--sessions", str(sessions), "--out", str(fresh))
    tree = _tree(out)
    assert tree.pop("notes/keep.txt") == b"mine"
    assert tree == _tree(fresh)


def _one_incident_export(prxvt_run, tmp_path, capsys) -> tuple[Path, Path]:
    """The sessions directory holding prxvt's session, and its export."""
    sessions = tmp_path / "s"
    shutil.copytree(prxvt_run.session_root, sessions / prxvt_run.session_root.name)
    out = tmp_path / "out"
    code, index = _cli(capsys, "dataset", "export", "--sessions", str(sessions), "--out", str(out))
    assert (code, index["count"]) == (0, 1)
    return sessions, out


def test_the_export_keeps_non_ascii_text(prxvt_run, tmp_path, capsys):
    """Exported documents are UTF-8 text, not ``\\u`` escapes."""
    sessions = tmp_path / "s"
    root = sessions / prxvt_run.session_root.name
    shutil.copytree(prxvt_run.session_root, root)
    doc = json.loads((root / "root_cause.json").read_text(encoding="utf-8"))
    doc["mechanism"] = "Überschuss — drain"
    (root / "root_cause.json").write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    _cli(capsys, "dataset", "export", "--sessions", str(sessions), "--out", str(out))
    (exported,) = out.glob("*/root_cause.json")
    assert '"mechanism": "Überschuss — drain"' in exported.read_text(encoding="utf-8")


def test_an_unchanged_incident_is_not_written_again(prxvt_run, tmp_path, capsys):
    sessions, out = _one_incident_export(prxvt_run, tmp_path, capsys)
    inodes = {path: path.stat().st_ino for path in out.rglob("*")}
    code, _ = _cli(capsys, "dataset", "export", "--sessions", str(sessions), "--out", str(out))
    assert code == 0
    assert {path: path.stat().st_ino for path in out.rglob("*")} == inodes


def _edit_bytes(incident: Path) -> None:
    path = incident / "root_cause.json"
    path.write_bytes(path.read_bytes().replace(b"{", b"[", 1))


def _edit_a_project_file(incident: Path) -> None:
    path = next(p for p in sorted((incident / "poc").rglob("*")) if p.is_file())
    path.write_bytes(path.read_bytes() + b"\n")


def _add_a_file(incident: Path) -> None:
    (incident / "poc" / "extra.txt").write_text("not exported", encoding="utf-8")


def _add_an_empty_directory(incident: Path) -> None:
    (incident / "poc" / "empty").mkdir()


def _remove_a_file(incident: Path) -> None:
    (incident / "incident.json").unlink()


def _link_a_file(incident: Path) -> None:
    path = incident / "root_cause.json"
    copy = incident.parent / "root_cause_copy.json"
    copy.write_bytes(path.read_bytes())
    path.unlink()
    path.symlink_to(copy)


@pytest.mark.parametrize(
    "edit",
    [_edit_bytes, _edit_a_project_file, _add_a_file, _add_an_empty_directory,
     _remove_a_file, _link_a_file],
    ids=["edited-bytes", "edited-project-file", "added-file", "added-empty-directory",
         "removed-file", "file-made-a-link"],
)
def test_an_edited_incident_is_written_anew(edit, prxvt_run, tmp_path, capsys):
    """An incident directory that differs from what the export writes, in
    any file's bytes or in the set of entries, is replaced by a fresh
    export's."""
    sessions, out = _one_incident_export(prxvt_run, tmp_path, capsys)
    (incident,) = [path.parent for path in out.glob("*/incident.json")]
    edit(incident)
    _cli(capsys, "dataset", "export", "--sessions", str(sessions), "--out", str(out))
    fresh = tmp_path / "fresh"
    _cli(capsys, "dataset", "export", "--sessions", str(sessions), "--out", str(fresh))
    tree = _tree(out)
    tree.pop("root_cause_copy.json", None)
    assert tree == _tree(fresh)
    assert not any(path.is_symlink() for path in out.rglob("*"))
    assert sorted(p.relative_to(out) for p in out.rglob("*") if p.is_dir()) == sorted(
        p.relative_to(fresh) for p in fresh.rglob("*") if p.is_dir()
    )


def test_an_edited_index_is_written_anew(prxvt_run, tmp_path, capsys):
    sessions, out = _one_incident_export(prxvt_run, tmp_path, capsys)
    expected = (out / "index.json").read_bytes()
    (out / "index.json").write_bytes(expected.replace(b'"count": 1', b'"count": 7'))
    _cli(capsys, "dataset", "export", "--sessions", str(sessions), "--out", str(out))
    assert (out / "index.json").read_bytes() == expected


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
