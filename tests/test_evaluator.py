"""Evaluator panel: negotiation to consensus, tie-breaking, the round bound,
protocol violations, crash degradation, history invariants, the persisted
report shapes and the ``evaluate`` command over a finished session."""

from __future__ import annotations

import json
import shutil

import pytest

from txpostmortem import cli, workspace
from txpostmortem.domain import SeedRef
from txpostmortem.evaluator import (
    ACTION_CHANGE,
    ACTION_INITIAL,
    ACTION_MAINTAIN,
    FAILURE_REASON,
    METRIC_KEYS,
    EvaluationEntry,
    ProtocolViolation,
    ScriptedEvaluatorAgent,
    evaluate_project,
    validate_history,
    write_reports,
)

C1 = "compiles_under_foundry"
Q1 = METRIC_KEYS[3]


def _stance(value: bool = True, **overrides: bool) -> dict[str, tuple[bool, str]]:
    stance = {key: (value, "initial judgment") for key in METRIC_KEYS}
    stance.update({key: (result, "dissent") for key, result in overrides.items()})
    return stance


def _history(report, key: str) -> list[tuple[int, str, bool]]:
    return [(e.round, e.action, e.result) for e in report.histories[key]]


def _two_against_one() -> dict[str, ScriptedEvaluatorAgent]:
    return {
        "evaluator_0": ScriptedEvaluatorAgent(_stance()),
        "evaluator_1": ScriptedEvaluatorAgent(_stance()),
        "evaluator_2": ScriptedEvaluatorAgent(
            _stance(**{C1: False}), moves=[{C1: (True, "the build log shows success")}]
        ),
    }


class TestNegotiation:
    def test_two_against_one_converges_in_one_round(self):
        reports, consensus = evaluate_project({}, _two_against_one())
        assert consensus.converged
        assert consensus.rounds_used == 1
        assert consensus.negotiation_log == [{"round": 1, "conflicts": [C1]}]
        assert consensus.final == {key: True for key in METRIC_KEYS}
        by_id = {r.evaluator_id: r for r in reports}
        assert _history(by_id["evaluator_2"], C1) == [
            (0, ACTION_INITIAL, False),
            (1, ACTION_CHANGE, True),
        ]
        assert _history(by_id["evaluator_0"], C1) == [
            (0, ACTION_INITIAL, True),
            (1, ACTION_MAINTAIN, True),
        ]
        # Only conflicted metrics get negotiation entries.
        assert _history(by_id["evaluator_0"], Q1) == [(0, ACTION_INITIAL, True)]
        assert all(report.validate() == [] for report in reports)

    def test_tie_breaks_to_false(self):
        agents = {
            "evaluator_0": ScriptedEvaluatorAgent(_stance()),
            "evaluator_1": ScriptedEvaluatorAgent(_stance(**{C1: False})),
        }
        _, consensus = evaluate_project({}, agents, max_rounds=1)
        assert consensus.final[C1] is False
        assert consensus.final[Q1] is True

    def test_stubborn_panel_stops_at_the_round_bound(self):
        agents = {
            "evaluator_0": ScriptedEvaluatorAgent(_stance()),
            "evaluator_1": ScriptedEvaluatorAgent(_stance()),
            "evaluator_2": ScriptedEvaluatorAgent(_stance(**{C1: False})),
        }
        reports, consensus = evaluate_project({}, agents, max_rounds=3)
        assert not consensus.converged
        assert consensus.rounds_used == 3
        assert [entry["round"] for entry in consensus.negotiation_log] == [1, 2, 3]
        assert consensus.final[C1] is True
        dissent = {r.evaluator_id: r for r in reports}["evaluator_2"]
        assert _history(dissent, C1) == [(0, ACTION_INITIAL, False)] + [
            (k, ACTION_MAINTAIN, False) for k in (1, 2, 3)
        ]

    def test_move_outside_the_conflict_set_is_a_violation(self):
        agents = _two_against_one()
        agents["evaluator_2"] = ScriptedEvaluatorAgent(
            _stance(**{C1: False}), moves=[{Q1: (False, "second thoughts")}]
        )
        with pytest.raises(ProtocolViolation, match=Q1):
            evaluate_project({}, agents)


class _CrashingAgent:
    def initial(self, context):
        raise RuntimeError("model unavailable")

    def negotiate(self, round_k, conflicts, own, peers):
        raise RuntimeError("model unavailable")


class TestDegradation:
    def test_crashing_agent_degrades_to_all_false(self):
        agents = {
            "evaluator_0": ScriptedEvaluatorAgent(_stance()),
            "evaluator_1": ScriptedEvaluatorAgent(_stance()),
            "evaluator_2": _CrashingAgent(),
        }
        reports, consensus = evaluate_project({}, agents, max_rounds=1)
        crashed = {r.evaluator_id: r for r in reports}["evaluator_2"]
        for key in METRIC_KEYS:
            first = crashed.histories[key][0]
            assert (first.round, first.action, first.result) == (0, ACTION_INITIAL, False)
            assert first.reason == FAILURE_REASON
        assert consensus.final == {key: True for key in METRIC_KEYS}
        assert not consensus.converged


class TestHistory:
    def test_change_without_a_flip_is_rejected(self):
        entries = [
            EvaluationEntry(0, ACTION_INITIAL, True, "initial"),
            EvaluationEntry(1, ACTION_CHANGE, True, "claims to change"),
        ]
        assert validate_history(entries) == ["round 1: Change without a result flip"]

    def test_well_formed_history_passes(self):
        entries = [
            EvaluationEntry(0, ACTION_INITIAL, False, "initial"),
            EvaluationEntry(1, ACTION_CHANGE, True, "persuaded"),
            EvaluationEntry(2, ACTION_MAINTAIN, True, "maintained"),
        ]
        assert validate_history(entries) == []


class TestWriteReports:
    def test_written_reports_pass_their_schema(self, tmp_path):
        session = workspace.create_session(
            tmp_path, SeedRef.from_strings(1, ["0x" + "ab" * 32])
        )
        reports, consensus = evaluate_project({}, _two_against_one())
        written = write_reports(session, reports, consensus)
        assert written == [
            f"{workspace.EVALUATION_DIR}/evaluator_{i}_evaluation_result.json"
            for i in range(3)
        ] + [f"{workspace.EVALUATION_DIR}/consensus_report.json"]
        for rel in written[:-1]:
            doc = json.loads((session.root / rel).read_text(encoding="utf-8"))
            assert set(doc) == set(METRIC_KEYS)
            schema = workspace.SCHEMAS["evaluation_result"]
            assert workspace.check_document(doc, schema) == []
        consolidated = json.loads((session.root / written[-1]).read_text(encoding="utf-8"))
        assert consolidated["converged"] is True
        assert consolidated["evaluators"] == ["evaluator_0", "evaluator_1", "evaluator_2"]
        assert consolidated["votes"][C1] == {
            "evaluator_0": True,
            "evaluator_1": True,
            "evaluator_2": True,
        }


class TestEvaluateCommand:
    @pytest.fixture
    def session_root(self, prxvt_run, tmp_path):
        root = tmp_path / "session"
        shutil.copytree(prxvt_run.session_root, root)
        return root

    def test_one_heuristic_judge_passes_every_metric(self, session_root, capsys):
        assert cli.main(["evaluate", "--session", str(session_root)]) == 0
        written = sorted(p.name for p in (session_root / workspace.EVALUATION_DIR).iterdir())
        assert written == ["consensus_report.json", "evaluator_0_evaluation_result.json"]
        final = json.loads(capsys.readouterr().out)["final"]
        assert len(final) == len(METRIC_KEYS) == 9
        assert all(final.values())

    def test_corrupt_engine_verdict_is_an_error_not_a_crash(self, session_root, capsys):
        latest = max(
            (session_root / workspace.REPRODUCER_DIR).glob("iter_*/engine_verdict.json"),
            key=lambda path: int(path.parent.name.split("_")[1]),
        )
        latest.write_text(latest.read_text(encoding="utf-8")[:40], encoding="utf-8")
        assert cli.main(["evaluate", "--session", str(session_root)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
