"""End-to-end sessions: the bundled cases against their goldens, the
artifacts they leave, what they send the model, rejection codes arriving in
the stage they do not belong to, model-backend failures, the metrics report
over their summaries, and the schema lookup and source scan sessions rely
on."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from txpostmortem import metrics, scenarios, workspace
from txpostmortem.agents import ROLES, ScriptedBackend, StepResult
from txpostmortem.domain import SeedRef
from txpostmortem.harness import SimulatedRunner, scan_for_addresses, solidity_sources
from txpostmortem.orchestrator import Orchestrator


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
    def test_no_schema_copies(self, fixture, request):
        root = request.getfixturevalue(fixture).session_root
        assert not (root / "schema").exists()


class _RecordingBackend:
    """Passes every call through and keeps what each conversation was sent."""

    def __init__(self, inner: ScriptedBackend):
        self.inner = inner
        self.prompts: dict[str, str] = {}
        self.messages: dict[str, list[str]] = {}

    def open_conversation(self, role: str, system_prompt: str) -> str:
        conversation = self.inner.open_conversation(role, system_prompt)
        self.prompts[conversation] = system_prompt
        self.messages[conversation] = []
        return conversation

    def step(self, conversation_id: str, message: str) -> StepResult:
        self.messages[conversation_id].append(message)
        return self.inner.step(conversation_id, message)


class TestModelInput:
    @pytest.mark.parametrize("case", sorted(scenarios.CASE_BUILDERS))
    def test_no_document_is_sent_twice(self, tmp_path, case):
        bundle = scenarios.CASE_BUILDERS[case](tmp_path / "case")
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


def _run_prxvt(tmp_path: Path, entries: dict, runner: SimulatedRunner):
    bundle = scenarios.build_prxvt_case(tmp_path / "case")
    orch = Orchestrator(
        backend=ScriptedBackend(entries),
        adapter=bundle.adapter(),
        runner=runner,
    )
    return orch.run_postmortem(bundle.seed(), str(tmp_path / "runs"))


class TestWrongStageRejection:
    def test_poc_code_in_root_cause_stage_reanalyzes(self, tmp_path):
        entries = scenarios._prxvt_script_entries()
        entries["root_cause_challenger"].insert(
            0,
            {
                "status": "Reject",
                "feedback": "rejected with a PoC-stage code",
                "missing_evidence": [],
                "reject_reasons": ["uses_attacker_contract"],
            },
        )
        entries["root_cause_analyzer"].append(entries["root_cause_analyzer"][-1])
        outcome = _run_prxvt(
            tmp_path, entries, SimulatedRunner(queue=[scenarios._PRXVT_RUN_0])
        )
        assert outcome.stage == "done"
        assert outcome.reject_log == [
            {
                "stage": "root_cause",
                "reasons": ["other:uses_attacker_contract"],
                "actions": ["re_analyze"],
            }
        ]

    def test_root_cause_code_in_poc_stage_reproduces(self, tmp_path):
        entries = scenarios._prxvt_script_entries()
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
        run = scenarios._PRXVT_RUN_0
        outcome = _run_prxvt(tmp_path, entries, SimulatedRunner(queue=[run, run]))
        assert outcome.stage == "done"
        assert outcome.reject_log == [
            {
                "stage": "poc",
                "reasons": ["other:speculative_language"],
                "actions": ["re_reproduce"],
            }
        ]


class TestBackendFailure:
    def test_exhausted_script_ends_the_session_failed(self, tmp_path):
        entries = scenarios._prxvt_script_entries()
        entries["root_cause_analyzer"] = entries["root_cause_analyzer"][:1]
        outcome = _run_prxvt(
            tmp_path, entries, SimulatedRunner(queue=[scenarios._PRXVT_RUN_0])
        )
        persisted = _read(outcome.session.root, workspace.SESSION_SUMMARY)
        assert persisted == outcome.summary_doc()
        assert persisted["outcome"]["stage"] == "failed"
        assert persisted["outcome"]["failure"].startswith("root_cause: ScriptExhausted: ")
        assert workspace.check_document(persisted, workspace.SCHEMAS["session_summary"]) == []


class TestMetricsReport:
    def test_role_latencies_are_reported_apart_from_stages(self, valinity_run):
        report = metrics.sessions_report([valinity_run.doc])
        assert set(report["latency_per_stage"]) == {"root_cause", "poc"}
        assert set(report["latency_per_role"]) == set(ROLES)
        assert report["latency_per_role"]["poc_validator"]["count"] == 1


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
