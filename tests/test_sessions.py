"""End-to-end sessions: the bundled cases against their goldens, the
artifacts they leave, what they send the model, rejection codes arriving in
the stage they do not belong to, the scan that keeps tainted projects from
the runner, the fresh project each reproducer attempt gets, the attempt
whose run fails to launch, the per-session fetch memo, failures of any kind
ending the session failed, the charge of every model step to the summary,
the non-ACT route, the metrics report and cost over their summaries, the
schema lookup, source scan, correctness checks, fork pin and transcript
runner sessions rely on, and the ``forge`` runner's timeout, which kills
every process a run started."""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from conftest import DATA_DIR, load_script_entries, load_transcripts
from hypothesis import example, given
from hypothesis import strategies as st

from txpostmortem import cli, evaluator, harness, metrics, oracles, scenarios, workspace
from txpostmortem.agents import (
    ROLE_ANALYZER,
    ROLE_CHALLENGER,
    ROLE_ORACLE_GENERATOR,
    ROLE_REPRODUCER,
    ROLES,
    SCRIPTED_STEP_USAGE,
    ScriptedBackend,
    StepResult,
    Usage,
)
from txpostmortem.domain import SeedRef
from txpostmortem.gateway import DataRequest, MissingFixture, fixture_key
from txpostmortem.harness import (
    HarnessError,
    SimulatedRunner,
    scan_for_addresses,
    solidity_sources,
)
from txpostmortem.orchestrator import Budgets, Orchestrator

#: The committed prxvt tree, which every prxvt replay reads in place.
PRXVT_CASE = scenarios.CASES_DIR / "prxvt"
(PRXVT_RUN_0,) = load_transcripts(PRXVT_CASE)


def _read(root: Path, relpath: str) -> dict:
    return json.loads((root / relpath).read_text(encoding="utf-8"))


@pytest.mark.parametrize("fixture", ["prxvt_run", "valinity_run"])
class TestGoldens:
    def test_session_summary_matches(self, fixture, request):
        run = request.getfixturevalue(fixture)
        summary = _read(run.session_root, workspace.SESSION_SUMMARY)
        for key, want in run.bundle.expected["session"].items():
            assert summary.get(key) == want, key

    def test_fork_block_matches(self, fixture, request):
        run = request.getfixturevalue(fixture)
        root_cause = _read(run.session_root, workspace.ROOT_CAUSE_DOC)
        assert root_cause["fork_block"] == run.bundle.expected["fork_block"]

    def test_oracle_ids_match_in_order(self, fixture, request):
        run = request.getfixturevalue(fixture)
        definition = _read(run.session_root, workspace.ORACLE_DEFINITION)
        ids = [c["id"] for kind in ("pre_check", "hard", "soft") for c in definition[kind]]
        assert ids == run.bundle.expected["oracle_ids"]


def _assert_collection_dirs_summarised(root: Path, runs: int) -> None:
    dirs = sorted(p for p in (root / workspace.COLLECTION_DIR).iterdir() if p.is_dir())
    assert [p.name for p in dirs] == [f"iter_{k}" for k in range(runs)]
    for path in dirs:
        assert (path / "data_collection_summary.json").is_file(), path.name


class TestArtifacts:
    def test_one_collection_summary_per_run(self, valinity_run):
        root = valinity_run.session_root
        collection = root / workspace.COLLECTION_DIR
        summaries = sorted(
            p.relative_to(collection).as_posix()
            for p in collection.rglob("data_collection_summary.json")
        )
        runs = valinity_run.doc["collection_runs_total"]
        assert summaries == [
            f"iter_{k}/data_collection_summary.json" for k in range(runs)
        ]

    def test_attacker_router_hit_in_first_reproduction(self, valinity_run):
        verdict = _read(
            valinity_run.session_root,
            f"{workspace.REPRODUCER_DIR}/iter_0/engine_verdict.json",
        )
        assert verdict["rubric"]["attacker_address_hits"] == [
            {"file": "test/Exploit.sol", "address": scenarios.VAL_ROUTER, "line": 34}
        ]

    @pytest.mark.parametrize("fixture", ["prxvt_run", "valinity_run"])
    def test_every_collection_dir_holds_a_summary(self, fixture, request):
        run = request.getfixturevalue(fixture)
        _assert_collection_dirs_summarised(run.session_root, run.doc["collection_runs_total"])

    @pytest.mark.parametrize("fixture", ["prxvt_run", "valinity_run"])
    def test_fetched_items_add_up_over_every_collection_run(self, fixture, request):
        # The bootstrap is collection run zero, and its fetches count too.
        run = request.getfixturevalue(fixture)
        collection = run.session_root / workspace.COLLECTION_DIR
        counts = [
            len(json.loads(path.read_text(encoding="utf-8"))["fetched"])
            for path in collection.glob("iter_*/data_collection_summary.json")
        ]
        assert len(counts) == run.doc["collection_runs_total"]
        assert run.doc["fetched_items"] == sum(counts)

    @pytest.mark.parametrize("fixture", ["prxvt_run", "valinity_run"])
    def test_no_schema_copies(self, fixture, request):
        root = request.getfixturevalue(fixture).session_root
        assert not (root / "schema").exists()

    @pytest.mark.parametrize("fixture", ["prxvt_run", "valinity_run"])
    def test_every_transcript_is_launched(self, fixture, request):
        # The runner plays its transcripts in launch order, so one left over
        # means the case's transcripts and its launches have drifted apart.
        assert request.getfixturevalue(fixture).runner.queue == []

    @pytest.mark.parametrize("fixture", ["prxvt_run", "valinity_run"])
    def test_evidence_citations_resolve(self, fixture, request):
        root = request.getfixturevalue(fixture).session_root
        evidence = _read(root, workspace.ROOT_CAUSE_DOC)["evidence"]
        assert evidence
        for relpath in evidence:
            assert (root / relpath).exists(), relpath


class _RecordingBackend:
    """Passes every call through and keeps what each conversation was sent."""

    def __init__(self, inner: ScriptedBackend):
        self.inner = inner
        self.prompts: dict[str, str] = {}
        self.roles: dict[str, str] = {}
        self.messages: dict[str, list[str]] = {}

    def open_conversation(self, role: str, system_prompt: str) -> str:
        conversation = self.inner.open_conversation(role, system_prompt)
        self.prompts[conversation] = system_prompt
        self.roles[conversation] = role
        self.messages[conversation] = []
        return conversation

    def step(self, conversation_id: str, message: str) -> StepResult:
        self.messages[conversation_id].append(message)
        return self.inner.step(conversation_id, message)

    def sent(self, role: str) -> list[str]:
        """Every message sent to ``role``, in order."""
        return [
            message
            for conversation, messages in self.messages.items()
            if self.roles[conversation] == role
            for message in messages
        ]


class TestModelInput:
    @pytest.mark.parametrize("case", sorted(scenarios.CASE_BUILDERS))
    def test_no_document_is_sent_twice(self, tmp_path, case):
        bundle = scenarios.open_case(case)
        backend = _RecordingBackend(bundle.backend())
        orch = Orchestrator(
            backend=backend, adapter=bundle.adapter(), runner=bundle.runner()
        )
        outcome = orch.run_postmortem(bundle.seed(), str(tmp_path / "runs"))
        assert outcome.stage == "done"
        documents = [
            (conversation, message)
            for conversation, messages in backend.messages.items()
            for message in messages
            if len(message) > 40
        ]
        assert documents
        for conversation, message in documents:
            assert message not in backend.prompts[conversation]

    @pytest.mark.parametrize("case", sorted(scenarios.CASE_BUILDERS))
    def test_role_variables_stay_unbound_in_the_definition(self, tmp_path, case):
        """Binding works on a copy: the written definition and the
        reproducer's message both carry each role variable's null address."""
        bundle = scenarios.open_case(case)
        backend = _RecordingBackend(bundle.backend())
        orch = Orchestrator(backend=backend, adapter=bundle.adapter(), runner=bundle.runner())
        outcome = orch.run_postmortem(bundle.seed(), str(tmp_path / "runs"))
        assert outcome.stage == "done"
        written = _read(outcome.session.root, workspace.ORACLE_DEFINITION)
        sent = json.loads(backend.sent(ROLE_REPRODUCER)[0])
        assert sent == written
        roles = [v for v in written["variables"] if v["kind"] in oracles.ROLE_KINDS]
        assert roles and all(v["address"] is None for v in roles)


    @pytest.mark.parametrize("case", sorted(scenarios.CASE_BUILDERS))
    def test_each_document_sent_is_the_file_the_session_writes(self, tmp_path, case):
        """The oracle generator and the challenger's passing turn read the
        bytes of ``root_cause.json``; the reproducer's first message is
        ``oracle_definition.json``."""
        bundle = scenarios.open_case(case)
        backend = _RecordingBackend(bundle.backend())
        orch = Orchestrator(backend=backend, adapter=bundle.adapter(), runner=bundle.runner())
        outcome = orch.run_postmortem(bundle.seed(), str(tmp_path / "runs"))
        assert outcome.stage == "done"
        root = outcome.session.root
        root_cause = (root / workspace.ROOT_CAUSE_DOC).read_text(encoding="utf-8")
        definition = (root / workspace.ORACLE_DEFINITION).read_text(encoding="utf-8")
        assert backend.sent(ROLE_ORACLE_GENERATOR) == [root_cause]
        assert backend.sent(ROLE_CHALLENGER)[-1] == root_cause
        assert backend.sent(ROLE_REPRODUCER)[0] == definition


def _run_prxvt(tmp_path: Path, entries: dict, runner: SimulatedRunner):
    bundle = scenarios.open_case("prxvt")
    orch = Orchestrator(
        backend=ScriptedBackend(entries),
        adapter=bundle.adapter(),
        runner=runner,
    )
    return orch.run_postmortem(bundle.seed(), str(tmp_path / "runs"))


class TestWrongStageRejection:
    def test_a_root_cause_stage_reject_reanalyzes(self, tmp_path):
        """A PoC-stage code parses as other:; an incomplete lifecycle,
        speculative language and unknown content are the analyzer's to fix.
        Each sends the draft back to the analyzer."""
        for code, reason in (
            ("uses_attacker_contract", "other:uses_attacker_contract"),
            ("incomplete_act_lifecycle", "incomplete_act_lifecycle"),
            ("unknown_content", "unknown_content"),
            ("speculative_language", "speculative_language"),
        ):
            entries = load_script_entries(PRXVT_CASE)
            entries["root_cause_challenger"].insert(
                0,
                {
                    "status": "Reject",
                    "feedback": f"rejected with {code}",
                    "missing_evidence": [],
                    "reject_reasons": [code],
                },
            )
            entries["root_cause_analyzer"].append(entries["root_cause_analyzer"][-1])
            outcome = _run_prxvt(
                tmp_path / code, entries, SimulatedRunner(queue=[PRXVT_RUN_0])
            )
            assert outcome.stage == "done"
            assert outcome.reject_log == [
                {"stage": "root_cause", "reasons": [reason], "actions": ["re_analyze"]}
            ]

    def test_root_cause_code_in_poc_stage_reproduces(self, tmp_path):
        entries = load_script_entries(PRXVT_CASE)
        entries["poc_validator"].insert(
            0,
            {
                "overall_status": "Reject",
                "oracle_results": [],
                "rubric": {},
                "reject_reasons": ["speculative_language"],
            },
        )
        entries["poc_reproducer"].append(entries["poc_reproducer"][-1])
        run = PRXVT_RUN_0
        outcome = _run_prxvt(tmp_path, entries, SimulatedRunner(queue=[run, run]))
        assert outcome.stage == "done"
        assert outcome.reject_log == [
            {
                "stage": "poc",
                "reasons": ["other:speculative_language"],
                "actions": ["re_reproduce"],
            }
        ]


class TestSimulatedRunner:
    def test_plays_run_transcripts_in_launch_order(self, tmp_path):
        # run_10 sorts before run_2 as text, so the order must be numeric.
        for n in range(11):
            (tmp_path / f"run_{n}.txt").write_text(str(n), encoding="utf-8")
        (tmp_path / "0xabc.txt").write_text("x", encoding="utf-8")
        (tmp_path / "notes.md").write_text("stray", encoding="utf-8")
        runner = SimulatedRunner(scenarios.load_numbered([tmp_path], ".txt")["run"])
        assert [runner.run(None) for _ in range(11)] == [str(n) for n in range(11)]
        with pytest.raises(HarnessError):
            runner.run(None)

    @pytest.mark.parametrize(
        "names",
        [("run_0", "run_2"), ("run_1",), ("run_0", "run_1", "run_01")],
        ids=["gap", "no-run-0", "repeated"],
    )
    def test_a_gap_or_a_repeated_index_is_refused(self, tmp_path, names):
        for name in names:
            (tmp_path / f"{name}.txt").write_text(name, encoding="utf-8")
        with pytest.raises(workspace.CorruptArtifact, match="gaps|repeated"):
            scenarios.load_numbered([tmp_path], ".txt")


def _process_state(pid: int) -> tuple[str, str] | None:
    """The (command, state) ``/proc/<pid>/stat`` gives, or None when gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    head, _, tail = stat.rpartition(")")
    return head.partition("(")[2], tail.split()[0]


class TestSubprocessRunner:
    def test_a_timed_out_run_leaves_no_process_behind(self, tmp_path, monkeypatch):
        """A stand-in ``forge`` starts a child, records its pid and hangs:
        the timeout kills the child with the run, so the run raises without
        waiting out the child's hold on its output pipe."""
        pidfile = tmp_path / "child.pid"
        forge = tmp_path / "forge"
        forge.write_text(f'#!/bin/sh\nsleep 30 &\necho $! > "{pidfile}"\nexec sleep 30\n',
                         encoding="utf-8")
        forge.chmod(0o755)
        monkeypatch.setattr(harness, "RUN_TIMEOUT_S", 1)
        project = harness.PoCProject(root=tmp_path, fork_pinned=True)
        try:
            started = time.monotonic()
            with pytest.raises(HarnessError, match="timed out"):
                harness.SubprocessRunner(str(forge)).run(project)
            assert time.monotonic() - started < harness.RUN_TIMEOUT_S + 5
            pid = int(pidfile.read_text(encoding="utf-8"))
            # The run reaps only the group leader, so the SIGKILL the child
            # was sent may still be in delivery: give it a few seconds.
            deadline = time.monotonic() + 5.0
            state = _process_state(pid)
            while state is not None and state[1] != "Z" and time.monotonic() < deadline:
                time.sleep(0.01)
                state = _process_state(pid)
            assert state is None or state[1] == "Z", state
        finally:
            if pidfile.is_file():
                pid = int(pidfile.read_text(encoding="utf-8"))
                if _process_state(pid) == ("sleep", "S"):
                    os.kill(pid, signal.SIGKILL)


class _CountingRunner:
    """Runner wrapper that counts launches."""

    def __init__(self, inner):
        self.inner = inner
        self.launches = 0

    def run(self, project, rpc_url=None):
        self.launches += 1
        return self.inner.run(project, rpc_url)


def _gated_prxvt(
    tmp_path: Path, run: str, exploit_suffix: str = "", validator=None, entries=None
):
    """prxvt's PoC stage with one reproducer attempt: Exploit.sol gets
    ``exploit_suffix`` appended, the runner answers ``run``, and the
    validator is scripted to ``validator`` (a Pass by default).  The
    script is ``entries``, or else the case's own.  Returns the outcome,
    the recording backend and the counting runner."""
    entries = entries or load_script_entries(PRXVT_CASE)
    files = entries["poc_reproducer"][0]["files"]
    files["test/Exploit.sol"] += exploit_suffix
    if validator is not None:
        entries["poc_validator"] = [validator]
    bundle = scenarios.open_case("prxvt")
    backend = _RecordingBackend(ScriptedBackend(entries))
    runner = _CountingRunner(SimulatedRunner(queue=[run]))
    orch = Orchestrator(
        backend=backend,
        adapter=bundle.adapter(),
        runner=runner,
        budgets=Budgets(reproducer_iterations=1),
    )
    return orch.run_postmortem(bundle.seed(), str(tmp_path / "runs")), backend, runner


_FAILING_RUN = PRXVT_RUN_0.replace(
    "[PASS] testExploit()", "[FAIL. Reason: revert: drained] testExploit()"
)


class TestEngineGate:
    """The engine verdict decides what code can check; the validator turn
    runs only on what it passes, and both must pass to validate."""

    def test_engine_reject_never_consumes_the_validator_script(self, tmp_path):
        outcome, backend, _ = _gated_prxvt(tmp_path, _FAILING_RUN)
        assert backend.sent("poc_validator") == []
        assert outcome.stage == "failed"
        assert outcome.poc_validated is False
        assert outcome.iterations.get("poc_validator", 0) == 0

    def test_validator_pass_over_failing_engine_does_not_validate(self, tmp_path):
        outcome, _, _ = _gated_prxvt(tmp_path, _FAILING_RUN)
        root = outcome.session.root
        assert not (root / workspace.REPRODUCER_DIR / "iter_0" / workspace.POC_VALIDATION).exists()
        assert not (root / workspace.POC_REPORT).exists()
        summary = _read(root, workspace.SESSION_SUMMARY)
        assert summary["poc"]["validated"] is False
        verdict = _read(root, f"{workspace.REPRODUCER_DIR}/iter_0/engine_verdict.json")
        assert verdict["overall_status"] == "Reject"

    def test_engine_pass_with_validator_reject_does_not_validate(self, tmp_path):
        reject = {
            "overall_status": "Reject",
            "oracle_results": [],
            "rubric": {},
            "reject_reasons": ["uses_attacker_designed_values"],
        }
        outcome, backend, _ = _gated_prxvt(
            tmp_path, PRXVT_RUN_0, validator=reject
        )
        assert len(backend.sent("poc_validator")) == 1
        verdict = _read(
            outcome.session.root, f"{workspace.REPRODUCER_DIR}/iter_0/engine_verdict.json"
        )
        assert verdict["overall_status"] == "Pass"
        assert outcome.poc_validated is False
        assert outcome.reject_log == [
            {
                "stage": "poc",
                "reasons": ["uses_attacker_designed_values"],
                "actions": ["re_reproduce"],
            }
        ]

    @pytest.mark.parametrize(
        "run, suffix, reasons",
        [
            pytest.param(
                "\n".join(
                    line for line in PRXVT_RUN_0.splitlines()
                    if "OBS " not in line
                ),
                "",
                ["oracle_validation_failed"],
                id="no-oracle-observed",
            ),
            pytest.param(
                _FAILING_RUN, "", ["oracle_validation_failed"], id="run-not-clean"
            ),
            pytest.param(
                "Compiler run failed\n" + PRXVT_RUN_0,
                "",
                ["oracle_validation_failed"],
                id="does-not-compile",
            ),
            pytest.param(
                PRXVT_RUN_0,
                f"address constant TAINT = {scenarios.PRXVT_HELPER};\n",
                ["uses_attacker_contract"],
                id="attacker-contract",
            ),
            pytest.param(
                PRXVT_RUN_0,
                f"address constant TAINT = {scenarios.PRXVT_EOA.upper().replace('0X', '0x')};\n",
                ["uses_attacker_designed_values"],
                id="attacker-eoa",
            ),
            pytest.param(
                _FAILING_RUN,
                f"address constant EOA = {scenarios.PRXVT_EOA};"
                f" address constant ORCH = {scenarios.PRXVT_ORCH};\n",
                # A tainted project is never run, so the failing run is
                # never seen.
                ["uses_attacker_contract", "uses_attacker_designed_values"],
                id="all-three",
            ),
        ],
    )
    def test_reject_codes(self, tmp_path, run, suffix, reasons):
        outcome, backend, _ = _gated_prxvt(tmp_path, run, exploit_suffix=suffix)
        assert backend.sent("poc_validator") == []
        assert outcome.reject_log == [
            {"stage": "poc", "reasons": reasons, "actions": ["re_reproduce"]}
        ]
        verdict = _read(
            outcome.session.root, f"{workspace.REPRODUCER_DIR}/iter_0/engine_verdict.json"
        )
        assert verdict["reject_reasons"] == reasons


class TestScanBeforeLaunch:
    @pytest.mark.parametrize(
        "address, code",
        [
            (scenarios.PRXVT_HELPER, "uses_attacker_contract"),
            (scenarios.PRXVT_EOA, "uses_attacker_designed_values"),
        ],
        ids=["attacker-contract", "attacker-eoa"],
    )
    def test_tainted_project_never_reaches_the_runner(self, tmp_path, address, code):
        exploit = load_script_entries(PRXVT_CASE)["poc_reproducer"][0]["files"][
            "test/Exploit.sol"
        ]
        outcome, backend, runner = _gated_prxvt(
            tmp_path, PRXVT_RUN_0, exploit_suffix=f"address constant TAINT = {address};\n"
        )
        assert runner.launches == 0
        assert backend.sent("poc_validator") == []
        iter_dir = outcome.session.root / workspace.REPRODUCER_DIR / "iter_0"
        assert _read(iter_dir, "engine_verdict.json") == {
            "overall_status": "Reject",
            "oracle_results": [],
            "pre_check_results": [],
            "rubric": {
                "attacker_address_hits": [
                    {
                        "file": "test/Exploit.sol",
                        "address": address,
                        "line": len(exploit.splitlines()) + 1,
                    }
                ]
            },
            "reject_reasons": [code],
        }
        assert not (iter_dir / "forge_output.txt").exists()
        assert not (iter_dir / "run_result.json").exists()

    def test_a_checksummed_role_address_taints_its_lowercase_use(self, tmp_path):
        entries = load_script_entries(PRXVT_CASE)
        roles = entries[ROLE_ANALYZER][-1]["root_cause"]["roles"]
        checksummed = scenarios.PRXVT_HELPER.replace("f3fe", "F3fE")
        roles["attacker_contracts"] = [
            checksummed if a == scenarios.PRXVT_HELPER else a for a in roles["attacker_contracts"]
        ]
        assert checksummed in roles["attacker_contracts"]
        outcome, _, runner = _gated_prxvt(
            tmp_path,
            PRXVT_RUN_0,
            f"address constant TAINT = {scenarios.PRXVT_HELPER};\n",
            entries=entries,
        )
        assert runner.launches == 0
        assert outcome.reject_log == [
            {"stage": "poc", "reasons": ["uses_attacker_contract"], "actions": ["re_reproduce"]}
        ]

    @pytest.mark.parametrize(
        "comment",
        ["// attacker was {}\n", "/* the helper at\n   {} */\n"],
        ids=["line-comment", "block-comment"],
    )
    @pytest.mark.parametrize(
        "address", [scenarios.PRXVT_HELPER, scenarios.PRXVT_EOA], ids=["contract", "eoa"]
    )
    def test_an_address_only_in_a_comment_is_launched_and_validates(
        self, tmp_path, comment, address
    ):
        """A comment is no code: the attempt runs, validates, records no
        hit, and the evaluator's Q1 to Q3 hold for it."""
        outcome, _, runner = _gated_prxvt(tmp_path, PRXVT_RUN_0, comment.format(address))
        assert runner.launches == 1
        assert outcome.poc_validated is True
        assert outcome.reject_log == []
        root = outcome.session.root
        verdict = _read(root, f"{workspace.REPRODUCER_DIR}/iter_0/engine_verdict.json")
        assert verdict["rubric"]["attacker_address_hits"] == []
        exploit = (root / workspace.FORGE_PROJECT_DIR / "test" / "Exploit.sol").read_text(
            encoding="utf-8"
        )
        assert address in exploit
        context = cli.evaluation_context(workspace.open_session(root))
        stance = evaluator.HeuristicEvaluator().initial(context)
        assert [stance[key][0] for key in evaluator.METRIC_KEYS[3:6]] == [True, True, True]


def _prxvt_attempts(tmp_path: Path, attempts: list[dict[str, str]], runs: list[str]):
    """prxvt's PoC stage with one reproducer attempt per file map in
    ``attempts`` and the runner answering ``runs`` in launch order.
    Returns the outcome and the counting runner."""
    entries = load_script_entries(PRXVT_CASE)
    (reproduction,) = entries["poc_reproducer"]
    entries["poc_reproducer"] = [dict(reproduction, files=files) for files in attempts]
    bundle = scenarios.open_case("prxvt")
    runner = _CountingRunner(SimulatedRunner(queue=list(runs)))
    orch = Orchestrator(
        backend=ScriptedBackend(entries),
        adapter=bundle.adapter(),
        runner=runner,
        budgets=Budgets(reproducer_iterations=len(attempts)),
    )
    return orch.run_postmortem(bundle.seed(), str(tmp_path / "runs")), runner


class TestFreshProject:
    """Each attempt's project holds its own files and nothing an earlier
    attempt left, and no source hides where the scan does not look."""

    def _files(self) -> dict[str, str]:
        return load_script_entries(PRXVT_CASE)["poc_reproducer"][0]["files"]

    def test_an_earlier_attempts_file_is_not_scanned_again(self, tmp_path):
        files = self._files()
        tainted = dict(
            files, **{"src/Attack.sol": f"address constant TAINT = {scenarios.PRXVT_HELPER};\n"}
        )
        outcome, runner = _prxvt_attempts(tmp_path, [tainted, files], [PRXVT_RUN_0])
        assert outcome.reject_log == [
            {"stage": "poc", "reasons": ["uses_attacker_contract"], "actions": ["re_reproduce"]}
        ]
        assert runner.launches == 1
        assert outcome.poc_validated is True
        project = outcome.session.root / workspace.FORGE_PROJECT_DIR
        assert not (project / "src" / "Attack.sol").exists()

    def test_build_directories_outlive_the_attempt(self, tmp_path):
        entries = load_script_entries(PRXVT_CASE)
        definition = entries["oracle_generator"][0]
        files = self._files()
        session = workspace.create_session(
            tmp_path, SeedRef.from_strings(definition["chainid"], [scenarios.PRXVT_SEED])
        )
        stale = dict(files, **{"src/Old.sol": "//\n"})
        first = harness.scaffold_project(session, stale, definition)
        built = ["cache/solidity-files-cache.json", "lib/forge-std/src/Test.sol", "out/E.json"]
        for rel in built:
            (first.root / rel).parent.mkdir(parents=True, exist_ok=True)
            (first.root / rel).write_text("{}", encoding="utf-8")
        second = harness.scaffold_project(session, files, definition)
        on_disk = [
            p.relative_to(second.root).as_posix()
            for p in second.root.rglob("*")
            if p.is_file()
        ]
        staged = {*files, harness.CONFIG_FILE, harness.README_FILE}
        assert sorted(on_disk) == sorted([*staged, *built])

    @pytest.mark.parametrize(
        "name",
        [
            *(pytest.param(f"{d}/Attack.sol", id=d) for d in harness.BUILD_DIRS),
            # Names that are no plain file path, or that lie under a file.
            ".",
            "",
            "./test",
            "test/./",
            "foundry.toml/x",
            "README.md/x",
            "test/Exploit.sol/x",
            # Names the file system refuses.
            pytest.param("src/a\x00b.sol", id="nul-byte"),
            pytest.param("src/" + "a" * 300 + ".sol", id="long-component"),
        ],
    )
    def test_sources_in_a_build_directory_are_refused(self, tmp_path, name):
        files = dict(self._files(), **{name: f"// {scenarios.PRXVT_HELPER}\n"})
        outcome, runner = _prxvt_attempts(tmp_path, [files], [PRXVT_RUN_0])
        assert runner.launches == 0
        assert outcome.poc_validated is False
        iter_dir = outcome.session.root / workspace.REPRODUCER_DIR / "iter_0"
        error = _read(iter_dir, "harness_error.json")
        assert error["phase"] == "scaffold"
        assert name in error["error"]
        assert not (iter_dir / workspace.ENGINE_VERDICT).exists()


class TestLaunchFailure:
    def test_a_run_that_fails_to_launch_gets_no_engine_verdict(self, tmp_path):
        # A transcript runner with no transcript left fails to launch.
        files = load_script_entries(PRXVT_CASE)["poc_reproducer"][0]["files"]
        outcome, runner = _prxvt_attempts(tmp_path, [files], [])
        assert runner.launches == 1
        assert outcome.poc_validated is False
        assert outcome.reject_log == [
            {
                "stage": "poc",
                "reasons": ["other:project failed to scaffold or launch"],
                "actions": ["re_reproduce"],
            }
        ]
        iter_dir = outcome.session.root / workspace.REPRODUCER_DIR / "iter_0"
        error = _read(iter_dir, "harness_error.json")
        assert error == {"error": "no transcript left for this run", "phase": "run"}
        assert not (iter_dir / workspace.ENGINE_VERDICT).exists()
        assert not (iter_dir / "forge_output.txt").exists()


class _CountingAdapter:
    """Adapter wrapper that counts fetches by fixture key."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: Counter[str] = Counter()
        self._lock = threading.Lock()

    def fetch(self, request):
        with self._lock:
            self.calls[fixture_key(request)] += 1
        return self.inner.fetch(request)


def _fetched_files(root: Path, iteration: int) -> dict[str, list[str]]:
    """Files of each request a collection run fetched, by fixture key."""
    summary = _read(
        root, f"{workspace.COLLECTION_DIR}/iter_{iteration}/data_collection_summary.json"
    )
    return {
        fixture_key(DataRequest.from_doc(item["request"])): item["files"]
        for item in summary["fetched"]
    }


class TestSessionMemo:
    def test_repeated_requests_hit_the_adapter_once(self, tmp_path):
        bundle = scenarios.open_case("valinity")
        adapter = _CountingAdapter(bundle.adapter())
        orch = Orchestrator(
            backend=bundle.backend(), adapter=adapter, runner=bundle.runner()
        )
        outcome = orch.run_postmortem(bundle.seed(), str(tmp_path / "runs"))
        assert outcome.stage == "done"
        assert set(adapter.calls.values()) == {1}
        root = outcome.session.root
        # The post-challenge batch asks again for the seed trace, the seed
        # balance diff and the loan officer's metadata; its summary names
        # the files the bootstrap landed, and it lands none of its own.
        seed = _fetched_files(root, 0)
        again = _fetched_files(root, 3)
        assert len(again) == 3 and set(again) <= set(seed)
        assert again == {key: seed[key] for key in again}
        iter_3 = root / workspace.COLLECTION_DIR / "iter_3"
        assert [p.name for p in iter_3.iterdir()] == ["data_collection_summary.json"]

    def test_two_sessions_each_fetch_their_seed(self, tmp_path):
        bundle = scenarios.open_case("prxvt")
        entries = {
            role: docs * 2 for role, docs in load_script_entries(PRXVT_CASE).items()
        }
        adapter = _CountingAdapter(bundle.adapter())
        run = PRXVT_RUN_0
        orch = Orchestrator(
            backend=ScriptedBackend(entries),
            adapter=adapter,
            runner=SimulatedRunner(queue=[run, run]),
        )
        for _ in range(2):
            outcome = orch.run_postmortem(bundle.seed(), str(tmp_path / "runs"))
            assert outcome.stage == "done"
        seed_keys = _fetched_files(outcome.session.root, 0)
        assert seed_keys
        for key in seed_keys:
            assert adapter.calls[key] == 2
        assert set(adapter.calls.values()) == {2}


class _FailingKinds:
    """Adapter wrapper whose fetches of the given kinds fail."""

    def __init__(self, inner, kinds: set[str]):
        self.inner = inner
        self.kinds = kinds

    def fetch(self, request):
        if request.kind in self.kinds:
            raise MissingFixture(f"withheld {request.kind}")
        return self.inner.fetch(request)


def _bootstrap_prxvt(tmp_path: Path, failing: set[str]):
    bundle = scenarios.open_case("prxvt")
    backend = _RecordingBackend(bundle.backend())
    orch = Orchestrator(
        backend=backend,
        adapter=_FailingKinds(bundle.adapter(), failing),
        runner=bundle.runner(),
    )
    return orch.run_postmortem(bundle.seed(), str(tmp_path / "runs")), backend


class TestSeedContext:
    def test_context_misses_are_recorded_and_the_session_finishes(self, tmp_path):
        outcome, backend = _bootstrap_prxvt(tmp_path, {"contract_meta"})
        assert outcome.stage == "done"
        summary = _read(
            outcome.session.root,
            f"{workspace.COLLECTION_DIR}/iter_0/data_collection_summary.json",
        )
        assert sorted(f["request"]["kind"] for f in summary["failed"]) == [
            "contract_meta"
        ] * 4 + ["receipt_logs", "state_diff"]
        assert len(summary["fetched"]) == 3
        first = backend.sent("root_cause_analyzer")[0]
        assert first.count("not available") == 6

    def test_first_message_carries_the_digest(self, tmp_path):
        bundle = scenarios.open_case("valinity")
        backend = _RecordingBackend(bundle.backend())
        orch = Orchestrator(
            backend=backend, adapter=bundle.adapter(), runner=bundle.runner()
        )
        outcome = orch.run_postmortem(bundle.seed(), str(tmp_path / "runs"))
        first = backend.sent("root_cause_analyzer")[0]
        context = outcome.session.root / workspace.SEED_CONTEXT_DIR
        names = sorted(p.name for p in context.iterdir())
        assert len(names) == 9
        for name in names:
            assert f"- {name}: " in first
        assert "ValinityLoanOfficer" in first

    def test_missing_seed_trace_fails_bootstrap(self, tmp_path):
        outcome, backend = _bootstrap_prxvt(tmp_path, {"tx_trace"})
        persisted = _read(outcome.session.root, workspace.SESSION_SUMMARY)
        assert persisted["outcome"]["stage"] == "failed"
        assert persisted["outcome"]["failure"].startswith("bootstrap: ")
        assert "tx_trace" in persisted["outcome"]["failure"]
        assert backend.messages == {}
        assert not (outcome.session.root / workspace.SEED_CONTEXT_DIR).exists()


def _assert_failed_closed(outcome, prefix: str) -> None:
    persisted = _read(outcome.session.root, workspace.SESSION_SUMMARY)
    assert persisted == outcome.summary_doc()
    assert persisted["outcome"]["stage"] == "failed"
    assert persisted["outcome"]["failure"].startswith(prefix)
    assert workspace.check_document(persisted, workspace.SCHEMAS["session_summary"]) == []


class _RaisingAdapter:
    """Adapter wrapper that raises ``OSError`` for one request kind."""

    def __init__(self, inner, kind: str):
        self.inner = inner
        self.kind = kind

    def fetch(self, request):
        if request.kind == self.kind:
            raise OSError(f"socket closed fetching {request.kind}")
        return self.inner.fetch(request)


class _RaisingRunner:
    def run(self, project, rpc_url=None):
        raise RuntimeError("runner crashed")


class TestFailClosed:
    """Errors of any class end the session failed at the stage they hit,
    with a terminal, schema-valid summary."""

    def test_oracle_error(self, tmp_path, monkeypatch):
        # Raised after the generator's contract accepted the definition, as
        # the PoC stage binds its roles.
        def broken(definition, deny=frozenset()):
            raise oracles.OracleError("cannot bind")

        monkeypatch.setattr(oracles, "bind_variables", broken)
        outcome = _run_prxvt(
            tmp_path,
            load_script_entries(PRXVT_CASE),
            SimulatedRunner(queue=[PRXVT_RUN_0]),
        )
        _assert_failed_closed(outcome, "poc: OracleError: cannot bind")

    def test_adapter_os_error(self, tmp_path):
        bundle = scenarios.open_case("prxvt")
        orch = Orchestrator(
            backend=bundle.backend(),
            adapter=_RaisingAdapter(bundle.adapter(), "txlist"),
            runner=bundle.runner(),
        )
        outcome = orch.run_postmortem(bundle.seed(), str(tmp_path / "runs"))
        _assert_failed_closed(outcome, "root_cause: OSError: socket closed fetching txlist")

    def test_a_raising_batch_leaves_no_collection_dir(self, tmp_path):
        bundle = scenarios.open_case("prxvt")
        orch = Orchestrator(
            backend=bundle.backend(),
            adapter=_RaisingAdapter(bundle.adapter(), "txlist"),
            runner=bundle.runner(),
        )
        outcome = orch.run_postmortem(bundle.seed(), str(tmp_path / "runs"))
        assert outcome.stage == "failed"
        assert outcome.collection_runs_total == 1
        _assert_collection_dirs_summarised(outcome.session.root, outcome.collection_runs_total)

    def test_runner_runtime_error(self, tmp_path):
        outcome = _run_prxvt(tmp_path, load_script_entries(PRXVT_CASE), _RaisingRunner())
        _assert_failed_closed(outcome, "poc: RuntimeError: runner crashed")


class TestBackendFailure:
    def test_exhausted_script_ends_the_session_failed(self, tmp_path):
        entries = load_script_entries(PRXVT_CASE)
        entries["root_cause_analyzer"] = entries["root_cause_analyzer"][:1]
        outcome = _run_prxvt(
            tmp_path, entries, SimulatedRunner(queue=[PRXVT_RUN_0])
        )
        persisted = _read(outcome.session.root, workspace.SESSION_SUMMARY)
        assert persisted == outcome.summary_doc()
        assert persisted["outcome"]["stage"] == "failed"
        assert persisted["outcome"]["failure"].startswith("root_cause: ScriptExhausted: ")
        assert workspace.check_document(persisted, workspace.SCHEMAS["session_summary"]) == []

    def test_a_case_short_of_transcripts_logs_one_line(self, tmp_path):
        """valinity without its second run transcript exhausts the
        reproducer's script: the command exits 1 and the model-side failure
        is one WARNING line naming it, with no traceback."""
        case = tmp_path / "case"
        shutil.copytree(scenarios.CASES_DIR / "valinity", case)
        (case / "transcripts" / "run_1.txt").unlink()
        run = subprocess.run(
            [sys.executable, "-m", "txpostmortem", "postmortem", "--case", str(case),
             "--workdir", str(tmp_path / "work")],
            env={**os.environ, "PYTHONPATH": str(Path(scenarios.__file__).parents[1])},
            capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 1
        assert json.loads(run.stdout)["outcome"]["failure"].startswith("poc: ScriptExhausted: ")
        [line] = run.stderr.splitlines()
        assert "ScriptExhausted" in line

    @pytest.mark.parametrize(
        "role, kept, analyzer_dirs",
        [("root_cause_analyzer", 1, 1), ("poc_reproducer", 0, 3)],
    )
    def test_a_raising_turn_leaves_no_empty_iteration_dir(
        self, tmp_path, role, kept, analyzer_dirs
    ):
        entries = load_script_entries(PRXVT_CASE)
        entries[role] = entries[role][:kept]
        outcome = _run_prxvt(
            tmp_path, entries, SimulatedRunner(queue=[PRXVT_RUN_0])
        )
        assert outcome.stage == "failed"
        root = outcome.session.root
        analyzer = sorted((root / workspace.ROOT_CAUSE_STAGE_DIR / ROLE_ANALYZER).glob("iter_*"))
        reproducer = sorted((root / workspace.REPRODUCER_DIR).glob("iter_*"))
        assert len(analyzer) == analyzer_dirs
        for path in analyzer + reproducer:
            assert any(p.is_file() for p in path.rglob("*")), path


_INVALID_CHALLENGE = {"status": "Pass", "feedback": "ok", "missing_evidence": ["x"]}


def _recorded_session(tmp_path: Path, name: str):
    """Run a bundled case through a recording backend; ``turn-exhaustion``
    is prxvt whose challenger never sends a valid document, under a 6-turn
    stage budget.  Returns the outcome and the backend."""
    if name == "turn-exhaustion":
        bundle = scenarios.open_case("prxvt")
        entries = load_script_entries(PRXVT_CASE)
        entries[ROLE_CHALLENGER] = [_INVALID_CHALLENGE] * 3
        inner, budgets = ScriptedBackend(entries), Budgets(stage_turns=6)
    else:
        bundle = scenarios.open_case(name)
        inner, budgets = bundle.backend(), Budgets()
    backend = _RecordingBackend(inner)
    orch = Orchestrator(
        backend=backend, adapter=bundle.adapter(), runner=bundle.runner(), budgets=budgets
    )
    return orch.run_postmortem(bundle.seed(), str(tmp_path / "runs")), backend


def _scripted_usage(steps: int) -> Usage:
    return sum([SCRIPTED_STEP_USAGE] * steps, Usage())


class TestAccounting:
    """Each model step is charged once: the summary's turns and tokens add
    up to the steps the backend took, and its PoC counts agree with the
    role iterations and the reject log."""

    @pytest.mark.parametrize("name", ["prxvt", "valinity", "turn-exhaustion"])
    def test_summary_adds_up_to_the_steps_taken(self, tmp_path, name):
        outcome, backend = _recorded_session(tmp_path, name)
        steps = sum(len(messages) for messages in backend.messages.values())
        doc = _read(outcome.session.root, workspace.SESSION_SUMMARY)
        assert sum(doc["turns"].values()) == steps
        assert doc["usage"] == _scripted_usage(steps).to_doc()
        assert doc["poc"]["reproducer_iterations"] == doc["iterations"].get(ROLE_REPRODUCER, 0)
        assert doc["poc"]["rejects"] == sum(1 for e in doc["reject_log"] if e["stage"] == "poc")

    def test_turns_spent_without_a_valid_document_are_charged(self, tmp_path):
        outcome, _ = _recorded_session(tmp_path, "turn-exhaustion")
        assert outcome.stage == "failed"
        assert "root_cause_challenger exhausted 3 turn(s)" in outcome.failure
        assert outcome.turns == {"root_cause": 6}
        assert outcome.usage == _scripted_usage(6)


class TestNonActRoute:
    def test_a_non_act_analysis_ends_the_session_before_the_poc_stage(self, tmp_path):
        # The overlay replaces prxvt's final analysis with a non-ACT one and
        # holds the golden of the session that ends on it.
        reason = "the drained rewards were never claimable by an unprivileged account"
        bundle = scenarios.open_case(DATA_DIR / "cases" / "prxvt_non_act")
        runner = _CountingRunner(bundle.runner())
        orch = Orchestrator(backend=bundle.backend(), adapter=bundle.adapter(), runner=runner)
        outcome = orch.run_postmortem(bundle.seed(), str(tmp_path / "runs"))
        assert (outcome.stage, outcome.is_act) == ("aborted_non_act", False)
        assert outcome.turns == {"root_cause": 3}
        assert set(outcome.latencies) == {"root_cause", "role:root_cause_analyzer", "session"}
        root = outcome.session.root
        report = (root / workspace.ROOT_CAUSE_REPORT).read_text(encoding="utf-8")
        assert f"- Why not ACT: {reason}" in report
        summary = _read(root, workspace.SESSION_SUMMARY)
        assert summary["poc"]["reproducer_iterations"] == 0
        for key, want in bundle.expected["session"].items():
            assert summary.get(key) == want, key
        assert not (root / workspace.REPRODUCER_DIR).exists()
        assert runner.launches == 0


class TestMetricsReport:
    def test_role_latencies_are_reported_apart_from_stages(self, valinity_run):
        report = metrics.sessions_report([valinity_run.doc])
        assert set(report["latency_per_stage"]) == {"root_cause", "poc"}
        assert set(report["latency_per_role"]) == set(ROLES)
        assert report["latency_per_role"]["poc_validator"]["count"] == 1

    def test_cost_of_both_bundled_sessions(self, prxvt_run, valinity_run, tmp_path, capsys):
        sessions = tmp_path / "sessions"
        for run in (prxvt_run, valinity_run):
            shutil.copytree(run.session_root, sessions / run.session_root.name)
        assert cli.main(["metrics", "--sessions", str(sessions)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cost_usd_total"] == "0.0378"
        costs = {
            row["session_id"]: (row["cost_usd"], row["usage"]) for row in report["per_session"]
        }
        assert costs == {
            prxvt_run.doc["session_id"]: ("0.0147", _scripted_usage(7).to_doc()),
            valinity_run.doc["session_id"]: ("0.0231", _scripted_usage(11).to_doc()),
        }

    @staticmethod
    def _sessions(tmp_path: Path, runs, count: int) -> Path:
        """``count`` sessions directories holding the runs' summaries in turn."""
        sessions = tmp_path / f"sessions_{count}"
        for k in range(count):
            (sessions / f"{k:03d}").mkdir(parents=True)
            shutil.copyfile(
                runs[k % len(runs)].session_root / workspace.SESSION_SUMMARY,
                sessions / f"{k:03d}" / workspace.SESSION_SUMMARY,
            )
        return sessions

    def test_a_report_over_the_summaries_equals_one_over_their_list(
        self, prxvt_run, valinity_run, tmp_path
    ):
        sessions = self._sessions(tmp_path, (prxvt_run, valinity_run), 4)
        summaries = metrics.load_session_summaries(sessions)
        assert iter(summaries) is summaries
        assert metrics.sessions_report(summaries) == metrics.sessions_report(
            list(metrics.load_session_summaries(sessions))
        )

    def test_a_malformed_summary_after_good_ones_fails_the_command(
        self, prxvt_run, valinity_run, tmp_path, capsys
    ):
        sessions = self._sessions(tmp_path, (prxvt_run, valinity_run), 2)
        (sessions / "zz").mkdir()
        (sessions / "zz" / workspace.SESSION_SUMMARY).write_text('{"usage": {}}')
        assert cli.main(["metrics", "--sessions", str(sessions)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "zz" in captured.err

    def test_a_report_holds_one_summary_at_a_time(self, prxvt_run, valinity_run, tmp_path):
        """Each summary past the sixth raises the report's peak by less than
        one decoded summary takes: the report keeps a row and the latencies
        of each session, not its summary."""
        runs = (prxvt_run, valinity_run)

        def peak(count: int) -> int:
            sessions = self._sessions(tmp_path, runs, count)
            tracemalloc.start()
            try:
                metrics.sessions_report(metrics.load_session_summaries(sessions))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        text = (valinity_run.session_root / workspace.SESSION_SUMMARY).read_text()
        tracemalloc.start()
        try:
            decoded = json.loads(text)
            one_summary = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert decoded["session_id"]
        assert (peak(60) - peak(6)) / 54 < one_summary


class TestCheckOnce:
    """Each document is checked against its schema once: a role's document
    when its contract accepts it, a document the program builds as it is
    written."""

    @pytest.mark.parametrize("name, checks", [("prxvt", 15), ("valinity", 23)])
    def test_schema_checks_per_session(self, tmp_path, monkeypatch, name, checks):
        checked = []
        depth = [0]
        check_document = workspace.check_document

        def counting_check(doc, spec, path=""):
            # check_document recurses through the module attribute; only
            # the outermost call is a check of a document.
            if depth[0] == 0:
                checked.append(doc)
            depth[0] += 1
            try:
                return check_document(doc, spec, path)
            finally:
                depth[0] -= 1

        validated = []
        validate_definition = oracles.validate_definition

        def counting_validate(definition):
            validated.append(definition)
            return validate_definition(definition)

        monkeypatch.setattr(workspace, "check_document", counting_check)
        monkeypatch.setattr(oracles, "validate_definition", counting_validate)
        bundle = scenarios.open_case(name)
        orch = Orchestrator(
            backend=bundle.backend(),
            adapter=bundle.adapter(),
            runner=bundle.runner(),
            clock=lambda: 0.0,
        )
        outcome = orch.run_postmortem(bundle.seed(), str(tmp_path / "runs"))
        assert outcome.stage == "done"
        assert len(checked) == checks
        assert len({id(doc) for doc in checked}) == checks
        assert len(validated) == outcome.iterations[ROLE_ORACLE_GENERATOR] == 1


class TestSchemaLookup:
    def test_unknown_schema_id_raises(self, tmp_path):
        tx = "0x" + "ab" * 32
        session = workspace.create_session(tmp_path, SeedRef.from_strings(1, [tx]))
        with pytest.raises(workspace.UnknownSchema):
            workspace.write_artifact(session, "x.json", {}, schema_id="no_such_schema")


class TestSourceScan:
    def test_skips_dependencies_and_non_solidity_files(self, tmp_path):
        addr = "0x" + "ab" * 20
        for rel in ("test/Exploit.sol", "lib/forge-std/Test.sol", "foundry.toml"):
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_text(f"x = {addr};\n", encoding="utf-8")
        sources = solidity_sources(tmp_path)
        assert [rel for rel, _ in sources] == ["test/Exploit.sol"]

    def test_every_occurrence_ignoring_case(self):
        addr = "0x" + "ab" * 20
        sources = [("a.sol", f"f({addr.upper()}, {addr});\nuint x = 42;\n")]
        assert scan_for_addresses(sources, {addr, "42"}) == [
            ("a.sol", addr, 1),
            ("a.sol", addr, 1),
            ("a.sol", "42", 2),
        ]
        assert scan_for_addresses(sources, set()) == []

    def test_a_mixed_case_needle_finds_its_lowercase_use(self):
        addr = "0x" + "ab" * 20
        sources = [("a.sol", f"x = {addr};\n")]
        assert scan_for_addresses(sources, {"0x" + "aB" * 20}) == [("a.sol", addr, 1)]

    def test_the_longest_needle_at_a_place_is_reported(self):
        sources = [("a.sol", "x = 0xABCD;\n")]
        assert scan_for_addresses(sources, ["0xab", "0xabcd"]) == [("a.sol", "0xabcd", 1)]

    def test_a_hit_after_a_block_comment_keeps_its_line(self):
        addr = "0x" + "ab" * 20
        sources = [("a.sol", f"/* one\n   two\n*/ x = {addr}; // {addr}\ny = {addr};\n")]
        assert scan_for_addresses(sources, {addr}) == [("a.sol", addr, 3), ("a.sol", addr, 4)]

    def test_a_short_hex_needle_gets_no_numeric_forms(self):
        """Only an address (40 hex digits) also hits as a decimal or a
        zero-stripped literal, so ``0x01`` never matches every ``1``."""
        sources = [("a.sol", "x = 1; y = 0x1; z = 0x01;\n")]
        assert scan_for_addresses(sources, {"0x01"}) == [("a.sol", "0x01", 1)]

    def test_a_numeric_form_hits_only_as_a_whole_literal(self):
        needle = "0x" + "00" * 19 + "2a"
        sources = [("a.sol", "a = 420; b = 142; c = 0x2ab; d = x42; e = uint160(42);\n42;\n")]
        assert scan_for_addresses(sources, {needle}) == [("a.sol", needle, 1), ("a.sol", needle, 2)]

    #: Each form an address may take in Solidity source.
    _FORMS = {
        "lower-case": lambda value, mask: f"0x{value:040x}",
        # A drawn mix of cases, the EIP-55 checksum's among them.
        "checksummed": lambda value, mask: "0x" + "".join(
            c.upper() if mask >> i & 1 else c for i, c in enumerate(f"{value:040x}")
        ),
        "zero-stripped": lambda value, mask: hex(value),
        "decimal": lambda value, mask: f"address(uint160({value}))",
        "hex-string": lambda value, mask: f'hex"{value:040x}"',
        "quoted": lambda value, mask: f'vm.parseAddress("0x{value:040x}")',
    }

    @given(
        value=st.integers(0, 2**160 - 1),
        form=st.sampled_from(sorted(_FORMS)),
        mask=st.integers(0, 2**40 - 1),
    )
    @example(  # EIP-55's own example, in its checksummed case
        value=0x5AAEB6053F3E94C9B9A09F33669435E7EF1BEAED,
        form="checksummed",
        mask=int("".join("1" if c.isupper() else "0" for c in reversed(
            "5aAeb6053F3E94C9b9A09f33669435E7Ef1BeAed"
        )), 2),
    )
    def test_every_form_of_an_address_hits_once_on_its_line(self, value, form, mask):
        """Each form of any 160-bit needle gives one hit on its line, and
        the same text inside ``//`` or ``/* */`` gives none."""
        needle = f"0x{value:040x}"
        text = self._FORMS[form](value, mask)
        source = f"/* {text}\n   {text} */\n// {text}\naddress a = {text}; // {text}\n"
        assert scan_for_addresses([("a.sol", source)], {needle}) == [("a.sol", needle, 4)]


class TestCorrectnessChecks:
    def test_one_failing_test_among_passing_ones_is_not_clean(self):
        raw = PRXVT_RUN_0 + "\n[FAIL. Reason: revert: drained] testSecond()\n"
        result = harness.parse_run_output(raw, fork_pinned=True)
        assert [t["passed"] for t in result["tests"]] == [True, False]
        assert harness.correctness_checks(result)["runs_clean"] is False

    def test_a_compiled_run_with_no_test_result_is_not_clean(self):
        result = harness.parse_run_output("Compiler run successful!\n", fork_pinned=True)
        assert result["compiled"] and result["tests"] == []
        assert harness.correctness_checks(result) == {
            "compiles": True,
            "runs_clean": False,
            "pinned_fork": True,
        }


class TestForkPin:
    def _scaffold(self, tmp_path, edits):
        """Scaffold prxvt's first test with each ``(old, new)`` of ``edits``
        applied to its source."""
        entries = load_script_entries(PRXVT_CASE)
        definition = entries["oracle_generator"][0]
        files = dict(entries["poc_reproducer"][0]["files"])
        for old, new in edits:
            assert old in files["test/Exploit.sol"]
            files["test/Exploit.sol"] = files["test/Exploit.sol"].replace(old, new)
        session = workspace.create_session(
            tmp_path, SeedRef.from_strings(definition["chainid"], [scenarios.PRXVT_SEED])
        )
        return harness.scaffold_project(session, files, definition)

    @pytest.mark.parametrize(
        "old, new",
        [
            (f"= {scenarios.PRXVT_FORK_BLOCK};", f"= {scenarios.PRXVT_FORK_BLOCK - 1};"),
            (f"= {scenarios.PRXVT_FORK_BLOCK};", f"= {scenarios.PRXVT_FORK_BLOCK + 1};"),
            # The constant holds the right block, but the fork is at block 1.
            ('(vm.envString("RPC_URL"), FORK_BLOCK)', '("x", 1)'),
            ('vm.envString("RPC_URL"), FORK_BLOCK)', 'vm.envString("RPC_URL"), 1)'),
        ],
        ids=["-1", "1", "literal-fork-beside-the-constant", "literal-fork-after-a-call"],
    )
    def test_a_test_pinned_off_the_fork_block_is_refused(self, tmp_path, old, new):
        with pytest.raises(harness.ScaffoldError, match="pins fork block"):
            self._scaffold(tmp_path, [(old, new)])

    def test_a_constant_named_after_fork_block_is_not_a_pin(self, tmp_path):
        project = self._scaffold(tmp_path, [
            ("uint256 constant FORK_BLOCK = 40230817;", "uint256 constant OLD_FORK_BLOCK = 1;"),
            ('vm.envString("RPC_URL"), FORK_BLOCK)', 'vm.envString("RPC_URL"))'),
        ])
        assert not project.fork_pinned

    def test_a_pin_inside_a_comment_does_not_count(self, tmp_path):
        project = self._scaffold(tmp_path, [
            ("uint256 constant FORK_BLOCK = 40230817;",
             "// FORK_BLOCK = 40230817\n    /* vm.rollFork(40230817); */"),
            ('vm.envString("RPC_URL"), FORK_BLOCK)', 'vm.envString("RPC_URL"))'),
        ])
        assert not project.fork_pinned

    def test_a_pin_after_a_url_literal_counts(self, tmp_path):
        edits = [
            ("uint256 constant FORK_BLOCK = 40230817;", ""),
            ('vm.envString("RPC_URL"), FORK_BLOCK)', '"https://rpc.example", 40_230_817)'),
        ]
        assert self._scaffold(tmp_path, edits).fork_pinned
        edits[1] = (edits[1][0], '"https://rpc.example", 19_000_000)')
        with pytest.raises(harness.ScaffoldError, match="pins fork block 19000000"):
            self._scaffold(tmp_path / "off", edits)
