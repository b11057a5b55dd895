"""Checklist evaluation: majority with ties breaking to false, degradation of
a crashing or ill-typed judge, the persisted report shapes and the
``evaluate`` command over both bundled cases."""

from __future__ import annotations

import json
import shutil

import pytest

from txpostmortem import cli, scenarios, workspace
from txpostmortem.domain import SeedRef
from txpostmortem.evaluator import (
    ACTION_INITIAL,
    FAILURE_REASON,
    METRIC_KEYS,
    evaluate_project,
    heuristic_quality_checks,
    write_reports,
)

C1 = "compiles_under_foundry"
Q1, Q2, _, Q4, _, Q6 = METRIC_KEYS[3:]


class _FixedJudge:
    """Returns the same stance whatever the context."""

    def __init__(self, stance):
        self.stance = stance

    def initial(self, context):
        return self.stance


def _stance(value: bool = True, **overrides: bool) -> dict[str, tuple[bool, str]]:
    stance = {key: (value, "initial judgment") for key in METRIC_KEYS}
    stance.update({key: (result, "dissent") for key, result in overrides.items()})
    return stance


def _two_against_one() -> dict[str, _FixedJudge]:
    return {
        "evaluator_0": _FixedJudge(_stance()),
        "evaluator_1": _FixedJudge(_stance()),
        "evaluator_2": _FixedJudge(_stance(**{C1: False})),
    }


class TestMajority:
    def test_two_against_one_keeps_the_majority(self):
        reports, verdict = evaluate_project({}, _two_against_one())
        assert verdict.final == {key: True for key in METRIC_KEYS}
        assert not verdict.converged
        assert verdict.rounds_used == 0
        dissent = {r.evaluator_id: r for r in reports}["evaluator_2"]
        assert dissent.results[C1] == (False, "dissent")
        assert dissent.results[Q1] == (True, "initial judgment")

    def test_tie_breaks_to_false(self):
        agents = {
            "evaluator_0": _FixedJudge(_stance()),
            "evaluator_1": _FixedJudge(_stance(**{C1: False})),
        }
        _, verdict = evaluate_project({}, agents)
        assert verdict.final[C1] is False
        assert verdict.final[Q1] is True

    def test_unanimous_judges_converge(self):
        _, verdict = evaluate_project({}, {"evaluator_0": _FixedJudge(_stance())})
        assert verdict.converged
        assert all(verdict.final.values())


class _CrashingAgent:
    def initial(self, context):
        raise RuntimeError("model unavailable")


class TestDegradation:
    @staticmethod
    def _degraded(judge):
        agents = {
            "evaluator_0": _FixedJudge(_stance()),
            "evaluator_1": _FixedJudge(_stance()),
            "evaluator_2": judge,
        }
        reports, verdict = evaluate_project({}, agents)
        assert verdict.final == {key: True for key in METRIC_KEYS}
        assert not verdict.converged
        return {r.evaluator_id: r for r in reports}["evaluator_2"]

    def test_crashing_agent_degrades_to_all_false(self):
        degraded = self._degraded(_CrashingAgent())
        assert degraded.results == {key: (False, FAILURE_REASON) for key in METRIC_KEYS}

    @pytest.mark.parametrize(
        "stance",
        [
            {key: True for key in METRIC_KEYS},
            {key: (True, None) for key in METRIC_KEYS},
            _stance() | {"extra_metric": (True, "not on the checklist")},
        ],
        ids=["bare-bool", "non-string-reason", "extra-key"],
    )
    def test_ill_typed_stance_degrades_to_all_false(self, stance):
        degraded = self._degraded(_FixedJudge(stance))
        assert degraded.results == {key: (False, FAILURE_REASON) for key in METRIC_KEYS}


class TestHeuristicChecks:
    _SOURCE = "contract Exploit {\n    uint256 constant AMOUNT = 13370000000000000000000;\n}\n"

    @pytest.mark.parametrize(
        "constants, want",
        [
            (["13370000000000000000000"], (False, "incident constant at src/Exploit.sol:2")),
            ([], (True, "no incident-specific constant is hard-coded")),
        ],
        ids=["hard-coded", "none-recorded"],
    )
    def test_q3_finds_the_recorded_incident_constants(self, constants, want, tmp_path):
        """Q3 looks for the literals the analyzer recorded in
        ``incident_constants``, as well as the lifecycle hashes."""
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "Exploit.sol").write_text(self._SOURCE, encoding="utf-8")
        checks = heuristic_quality_checks(tmp_path, {"incident_constants": constants}, [])
        assert checks["no_attacker_designed_constants"] == want

    @pytest.mark.parametrize(
        "body, want",
        [
            ("    // assertEq(a, b);\n    // vm.label(a, \"Attacker\");\n", (False, False)),
            ("    /* assertEq(a, b);\n       vm.label(a, \"Attacker\"); */\n", (False, False)),
            ("    assertEq(a, b);\n    vm.label(a, \"Attacker\");\n", (True, True)),
        ],
        ids=["line-comments", "block-comment", "code"],
    )
    def test_an_assertion_or_label_in_a_comment_does_not_count(self, body, want, tmp_path):
        (tmp_path / "test").mkdir()
        source = f"contract T {{\n  function testX() public {{\n{body}  }}\n}}\n"
        (tmp_path / "test" / "Exploit.sol").write_text(source, encoding="utf-8")
        checks = heuristic_quality_checks(tmp_path, {}, [])
        assert (checks[Q4][0], checks[Q6][0]) == want

    def test_q1_and_q2_read_the_recorded_hits_not_the_sources(self, tmp_path):
        """The engine's scan is the record: a hit it names fails Q2 (and Q1
        for an attacker contract) though the sources hold no such address."""
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "Exploit.sol").write_text(self._SOURCE, encoding="utf-8")
        eoa, contract = "0x" + "aa" * 20, "0x" + "bB" * 20
        roles = {"roles": {"attacker_eoas": [eoa], "attacker_contracts": [contract]}}
        # The engine reports each address lower-cased.
        hits = [
            {"file": "test/Exploit.sol", "address": eoa, "line": 7},
            {"file": "src/Gone.sol", "address": contract.lower(), "line": 2},
        ]
        checks = heuristic_quality_checks(tmp_path, roles, hits)
        assert checks[Q1] == (False, "attacker contract referenced at src/Gone.sol:2")
        assert checks[Q2] == (False, "attacker address at test/Exploit.sol:7, src/Gone.sol:2")
        clean = heuristic_quality_checks(tmp_path, roles, [])
        assert clean[Q1][0] and clean[Q2][0]


class TestWriteReports:
    def test_written_reports_pass_their_schema(self, tmp_path):
        session = workspace.create_session(
            tmp_path, SeedRef.from_strings(1, ["0x" + "ab" * 32])
        )
        reports, verdict = evaluate_project({}, _two_against_one())
        written = write_reports(session, reports, verdict)
        assert written == [
            f"{workspace.EVALUATION_DIR}/evaluator_{i}_evaluation_result.json"
            for i in range(3)
        ] + [f"{workspace.EVALUATION_DIR}/consensus_report.json"]
        for rel in written[:-1]:
            doc = json.loads((session.root / rel).read_text(encoding="utf-8"))
            assert set(doc) == set(METRIC_KEYS)
            schema = workspace.SCHEMAS["evaluation_result"]
            assert workspace.check_document(doc, schema) == []
        dissent = json.loads((session.root / written[2]).read_text(encoding="utf-8"))
        assert dissent[C1]["evaluation_history"] == [
            {"round": 0, "action": ACTION_INITIAL, "result": False, "reason": "dissent"}
        ]
        consolidated = json.loads((session.root / written[-1]).read_text(encoding="utf-8"))
        assert consolidated == {"final": {key: True for key in METRIC_KEYS}}

    def test_only_an_initial_judgment_passes_the_schema(self, tmp_path):
        """Every history entry is the one initial judgment; a later round's
        ``Maintain`` is not a document the program writes."""
        session = workspace.create_session(
            tmp_path, SeedRef.from_strings(1, ["0x" + "ab" * 32])
        )
        reports, verdict = evaluate_project({}, _two_against_one())
        rel = write_reports(session, reports, verdict)[0]
        doc = json.loads((session.root / rel).read_text(encoding="utf-8"))
        doc[C1]["evaluation_history"][0]["action"] = "Maintain"
        errors = workspace.check_document(doc, workspace.SCHEMAS["evaluation_result"])
        assert len(errors) == 1 and "'Maintain'" in errors[0], errors


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

    @pytest.mark.parametrize("case", ["prxvt", "valinity"])
    def test_bundled_case_reports(self, case, request, tmp_path, capsys):
        root = tmp_path / "session"
        shutil.copytree(request.getfixturevalue(f"{case}_run").session_root, root)
        assert cli.main(["evaluate", "--session", str(root)]) == 0
        out = json.loads(capsys.readouterr().out)
        evaluation = root / workspace.EVALUATION_DIR
        consensus = json.loads((evaluation / "consensus_report.json").read_text(encoding="utf-8"))
        assert consensus == {"final": {key: True for key in METRIC_KEYS}}
        assert out == dict(consensus, written=[
            f"{workspace.EVALUATION_DIR}/evaluator_0_evaluation_result.json",
            f"{workspace.EVALUATION_DIR}/consensus_report.json",
        ])
        report = json.loads(
            (evaluation / "evaluator_0_evaluation_result.json").read_text(encoding="utf-8")
        )
        assert list(report) == list(METRIC_KEYS)
        for body in report.values():
            [entry] = body["evaluation_history"]
            assert (entry["round"], entry["action"], entry["result"]) == (0, ACTION_INITIAL, True)

    @staticmethod
    def _last_engine_verdict(session_root):
        return max(
            (session_root / workspace.REPRODUCER_DIR).glob("iter_*/engine_verdict.json"),
            key=lambda path: int(path.parent.name.split("_")[1]),
        )

    def test_a_last_attempt_without_an_engine_verdict_is_not_judged(self, session_root, capsys):
        """A last attempt whose project failed to launch has no engine
        verdict, and ``forge_poc/`` holds its sources, not those an earlier
        attempt ran: ``evaluate`` ends with exit 2 and one ``error:`` line
        naming the attempt, and writes no evaluation."""
        (*_, (k, _)) = workspace.iteration_dirs(session_root, workspace.REPRODUCER_DIR)
        attempt = session_root / workspace.REPRODUCER_DIR / f"iter_{k + 1}"
        attempt.mkdir()
        (attempt / "harness_error.json").write_text(
            json.dumps({"error": "launch failed", "phase": "run"}), encoding="utf-8"
        )
        assert cli.main(["evaluate", "--session", str(session_root)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"iter_{k + 1}:" in err
        assert not (session_root / workspace.EVALUATION_DIR).exists()

    def test_corrupt_engine_verdict_is_an_error_not_a_crash(self, session_root, capsys):
        latest = self._last_engine_verdict(session_root)
        latest.write_text(latest.read_text(encoding="utf-8")[:40], encoding="utf-8")
        assert cli.main(["evaluate", "--session", str(session_root)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_a_malformed_rubric_correctness_is_an_error(self, session_root, capsys):
        # A list where the engine writes a map of checks passes the
        # validator's schema, but not the engine verdict's.
        latest = self._last_engine_verdict(session_root)
        verdict = json.loads(latest.read_text(encoding="utf-8"))
        verdict["rubric"]["correctness"] = []
        assert workspace.check_document(verdict, workspace.SCHEMAS["poc_validation"]) == []
        latest.write_text(json.dumps(verdict), encoding="utf-8")
        assert cli.main(["evaluate", "--session", str(session_root)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "rubric.correctness" in err
        assert err.count("\n") == 1
        assert not (session_root / workspace.EVALUATION_DIR).exists()

    def test_a_recorded_hit_fails_q2_though_the_sources_are_clean(self, session_root, capsys):
        """``evaluate`` takes Q1 and Q2 from the last engine verdict's
        ``attacker_address_hits``; it does not scan the sources again."""
        latest = self._last_engine_verdict(session_root)
        verdict = json.loads(latest.read_text(encoding="utf-8"))
        assert verdict["rubric"]["attacker_address_hits"] == []
        hit = {"file": "test/Exploit.sol", "address": scenarios.PRXVT_EOA, "line": 1}
        verdict["rubric"]["attacker_address_hits"] = [hit]
        latest.write_text(json.dumps(verdict), encoding="utf-8")
        assert scenarios.PRXVT_EOA not in (
            session_root / workspace.FORGE_PROJECT_DIR / "test" / "Exploit.sol"
        ).read_text(encoding="utf-8").lower()
        assert cli.main(["evaluate", "--session", str(session_root)]) == 1
        final = json.loads(capsys.readouterr().out)["final"]
        assert {key for key, result in final.items() if not result} == {Q2}
