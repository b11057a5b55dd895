"""Backends and role plumbing: token accounting, scripted playback, retries."""

from __future__ import annotations

import json
import sys
import threading
from string import Template

import pytest
from hypothesis import given
from hypothesis import strategies as st

from txpostmortem import scenarios, workspace
from txpostmortem.agents import roles
from txpostmortem.agents.backend import (
    SCRIPTED_STEP_USAGE,
    BackendError,
    InvalidUsage,
    OpenAIChatBackend,
    ScriptExhausted,
    ScriptedBackend,
    StepResult,
    Usage,
    extract_json_document,
)
from txpostmortem.agents.roles import (
    ROLE_ANALYZER,
    ROLE_CHALLENGER,
    ROLE_ORACLE_GENERATOR,
    ROLE_REPRODUCER,
    ROLE_VALIDATOR,
    ROLES,
    TurnBudgetExceeded,
    UnknownRole,
    build_role_prompt,
    load_template,
    run_role,
    validate_role_output,
)
from txpostmortem.domain import SeedRef

SESSION_BLOCK = "Chain:"
TX = "0x" + "aa" * 32
EOA = "0x" + "11" * 20
VICTIM = "0x" + "22" * 20


class TestUsage:
    def test_defaults_to_zero(self):
        usage = Usage()
        assert usage.input_tokens == usage.cached_input_tokens == usage.output_tokens == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"input_tokens": -1},
            {"output_tokens": -5},
            {"input_tokens": True},
            {"input_tokens": 1.5},
        ],
    )
    def test_rejects_bad_counters(self, kwargs):
        with pytest.raises(InvalidUsage):
            Usage(**kwargs)

    def test_cached_bounded_by_input(self):
        with pytest.raises(InvalidUsage):
            Usage(input_tokens=10, cached_input_tokens=11)

    @given(
        input_tokens=st.integers(min_value=0, max_value=10**9),
        cached_fraction=st.integers(min_value=0, max_value=100),
        output_tokens=st.integers(min_value=0, max_value=10**9),
    )
    def test_uncached_plus_cached_partitions_input(
        self, input_tokens, cached_fraction, output_tokens
    ):
        cached = input_tokens * cached_fraction // 100
        usage = Usage(input_tokens, cached, output_tokens)
        assert usage.uncached_input_tokens + usage.cached_input_tokens == input_tokens
        assert Usage.from_doc(usage.to_doc()) == usage

    def test_addition_is_componentwise(self):
        total = Usage(10, 4, 2) + Usage(5, 1, 3)
        assert total == Usage(15, 5, 5)


class TestScriptedBackend:
    def test_steps_in_order_per_role_across_conversations(self):
        backend = ScriptedBackend({"analyst": [{"n": 1}, {"n": 2}]})
        first = backend.open_conversation("analyst", "prompt")
        second = backend.open_conversation("analyst", "prompt")
        # The cursor tracks the role, not the conversation.
        assert backend.step(first, "go").structured_output == {"n": 1}
        assert backend.step(second, "go").structured_output == {"n": 2}

    def test_exhaustion_fails_closed(self):
        backend = ScriptedBackend({"analyst": [{"n": 1}]})
        conv = backend.open_conversation("analyst", "prompt")
        backend.step(conv, "go")
        with pytest.raises(ScriptExhausted):
            backend.step(conv, "go")

    def test_unknown_role_has_an_empty_script(self):
        backend = ScriptedBackend({})
        conv = backend.open_conversation("ghost", "prompt")
        with pytest.raises(ScriptExhausted):
            backend.step(conv, "go")

    def test_unknown_conversation_rejected(self):
        with pytest.raises(BackendError):
            ScriptedBackend({}).step("missing#1", "go")

    def test_bare_entry_is_the_structured_output(self):
        backend = ScriptedBackend({"r": [{"status": "Pass"}]})
        conv = backend.open_conversation("r", "p")
        result = backend.step(conv, "go")
        assert result.structured_output == {"status": "Pass"}
        assert result.text == ""
        assert result.usage == SCRIPTED_STEP_USAGE

    def test_entry_overrides(self):
        entry = {
            "output": {"k": 1},
            "text": "prose",
            "usage": {"input_tokens": 9, "cached_input_tokens": 4, "output_tokens": 2},
        }
        backend = ScriptedBackend({"r": [entry]})
        conv = backend.open_conversation("r", "p")
        result = backend.step(conv, "go")
        assert result.structured_output == {"k": 1}
        assert result.text == "prose"
        assert result.usage == Usage(9, 4, 2)

    def test_script_loader_orders_and_ignores_strays(self, tmp_path):
        (tmp_path / "analyst_1.json").write_text('{"n": 2}')
        (tmp_path / "analyst_0.json").write_text('{"n": 1}')
        (tmp_path / "README.txt").write_text("not a script")
        backend = ScriptedBackend(scenarios.load_numbered([tmp_path], ".json"))
        conv = backend.open_conversation("analyst", "p")
        assert backend.step(conv, "go").structured_output == {"n": 1}
        assert backend.step(conv, "go").structured_output == {"n": 2}

    def test_script_loader_rejects_gaps(self, tmp_path):
        (tmp_path / "analyst_0.json").write_text('{"n": 1}')
        (tmp_path / "analyst_2.json").write_text('{"n": 3}')
        with pytest.raises(workspace.CorruptArtifact, match="gaps"):
            scenarios.load_numbered([tmp_path], ".json")

    def test_script_loader_rejects_a_repeated_index(self, tmp_path):
        (tmp_path / "analyst_0.json").write_text('{"n": 1}')
        (tmp_path / "analyst_1.json").write_text('{"n": 2}')
        (tmp_path / "analyst_01.json").write_text('{"n": 3}')
        with pytest.raises(workspace.CorruptArtifact, match="repeated"):
            scenarios.load_numbered([tmp_path], ".json")

    def test_script_loader_rejects_an_undecodable_file(self, tmp_path):
        (tmp_path / "analyst_0.json").write_text('{"n": ')
        with pytest.raises(workspace.CorruptArtifact, match="analyst_0.json"):
            scenarios.load_numbered([tmp_path], ".json")


class TestJsonExtraction:
    def test_fenced_block(self):
        assert extract_json_document('before\n```json\n{"a": 1}\n```\nafter') == {"a": 1}

    def test_unlabeled_fence(self):
        assert extract_json_document('```\n{"a": 1}\n```') == {"a": 1}

    def test_bare_object(self):
        assert extract_json_document('  {"a": {"b": 2}}  ') == {"a": {"b": 2}}

    def test_non_object_json_is_rejected(self):
        assert extract_json_document("[1, 2, 3]") is None

    def test_prose_without_json(self):
        assert extract_json_document("no document here") is None

    def test_broken_fence_falls_back_to_nothing(self):
        assert extract_json_document("```json\n{broken\n```") is None


class TestOpenAIChatBackend:
    def _backend(self, responses):
        calls = []

        def post(url, body, headers):
            # The backend reuses its history list; snapshot it at call time.
            calls.append((url, json.loads(json.dumps(body)), dict(headers)))
            return responses[len(calls) - 1]

        backend = OpenAIChatBackend(api_key="sk-test", post=post)
        return backend, calls

    def _response(self, content: str, prompt=100, cached=40, completion=7):
        return {
            "choices": [{"message": {"content": content}}],
            "usage": {
                "prompt_tokens": prompt,
                "prompt_tokens_details": {"cached_tokens": cached},
                "completion_tokens": completion,
            },
        }

    def test_request_shape_and_history(self):
        backend, calls = self._backend(
            [self._response("fine"), self._response("also fine")]
        )
        conv = backend.open_conversation("analyst", "system says")
        backend.step(conv, "first")
        backend.step(conv, "second")

        url, body, headers = calls[0]
        assert url == "https://api.openai.com/v1/chat/completions"
        assert headers == {"Authorization": "Bearer sk-test"}
        assert body["model"] == "gpt-5"
        assert body["temperature"] == 0.0
        assert body["messages"] == [
            {"role": "system", "content": "system says"},
            {"role": "user", "content": "first"},
        ]
        # Second call must carry the whole history including the reply.
        assert [m["role"] for m in calls[1][1]["messages"]] == [
            "system",
            "user",
            "assistant",
            "user",
        ]

    def test_parses_usage_and_structured_output(self):
        backend, _ = self._backend([self._response('{"verdict": "Pass"}')])
        conv = backend.open_conversation("validator", "p")
        result = backend.step(conv, "go")
        assert result.usage == Usage(100, 40, 7)
        assert result.text == '{"verdict": "Pass"}'
        assert result.structured_output is None

    def test_transport_errors_become_backend_errors(self):
        def post(url, body, headers):
            raise OSError("boom")

        backend = OpenAIChatBackend(api_key="k", post=post)
        conv = backend.open_conversation("analyst", "p")
        with pytest.raises(BackendError):
            backend.step(conv, "go")

    @pytest.mark.parametrize(
        "body",
        [
            {"error": {"message": "overloaded"}},
            {"choices": []},
            [{"choices": []}],
            {"choices": [{"message": {"content": "fine"}}], "usage": ["prompt_tokens"]},
        ],
        ids=["error", "no-choice", "not-an-object", "usage-not-an-object"],
    )
    def test_a_malformed_body_is_a_backend_error(self, body):
        backend = OpenAIChatBackend(api_key="k", post=lambda url, request, headers: body)
        conv = backend.open_conversation("analyst", "p")
        with pytest.raises(BackendError, match="malformed model reply"):
            backend.step(conv, "go")

    def test_a_null_usage_counts_as_no_tokens(self):
        reply = {"choices": [{"message": {"content": "fine"}}], "usage": None}
        backend, _ = self._backend([reply])
        result = backend.step(backend.open_conversation("analyst", "p"), "go")
        assert result.text == "fine"
        assert result.usage == Usage(0, 0, 0)

    def test_concurrent_conversations_get_distinct_ids(self):
        backend, _ = self._backend([])
        opened: list[list[str]] = [[] for _ in range(8)]

        def open_many(k):
            for _ in range(50):
                opened[k].append(backend.open_conversation("analyst", "p"))

        threads = [threading.Thread(target=open_many, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        ids = [conversation for ids in opened for conversation in ids]
        assert len(ids) == len(set(ids)) == 400

    def test_unknown_conversation(self):
        backend, _ = self._backend([])
        with pytest.raises(BackendError):
            backend.step("nope#9", "go")


# --------------------------------------------------------------------------
# Role templates and output contracts.


class TestTemplates:
    def test_every_role_has_a_template(self):
        for role in ROLES:
            assert load_template(role).strip()

    def test_unknown_role_rejected(self):
        with pytest.raises(UnknownRole):
            load_template("barista")

    def test_each_template_is_read_once(self, monkeypatch):
        files = roles.resources.files
        reads = []

        def counting_files(package):
            reads.append(package)
            return files(package)

        load_template.cache_clear()
        monkeypatch.setattr(roles.resources, "files", counting_files)
        texts = [load_template(role) for role in ROLES * 3]
        assert texts == [files("txpostmortem").joinpath(f"templates/{role}.txt").read_text(
            encoding="utf-8") for role in ROLES * 3]
        assert len(reads) == len(ROLES)

    @staticmethod
    def _placeholders(text: str) -> set[str]:
        found = set()
        for match in Template.pattern.finditer(text):
            name = match.group("named") or match.group("braced")
            if name:
                found.add(name)
        return found

    @pytest.mark.parametrize("role", ROLES)
    def test_prompt_is_static_up_to_the_session_block(
        self, role, prxvt_run, valinity_run
    ):
        template = load_template(role)
        block = template.index("\n" + SESSION_BLOCK)
        assert template.count(SESSION_BLOCK) == 1
        assert not self._placeholders(template[:block])
        assert self._placeholders(template[block:])
        heads = []
        for run in (prxvt_run, valinity_run):
            prompt = build_role_prompt(role, run.outcome.session)
            assert "$" not in prompt
            heads.append(prompt[: prompt.index("\n" + SESSION_BLOCK)])
        assert heads[0] == heads[1]

    def test_unfilled_placeholder_raises(self, monkeypatch, tmp_path):
        session = workspace.create_session(tmp_path, SeedRef.from_strings(1, [TX]))
        monkeypatch.setattr(roles, "load_template", lambda role: "Chain: $chainid $draft")
        with pytest.raises(KeyError):
            build_role_prompt(ROLE_CHALLENGER, session)

    def test_prompts_name_no_session_directory(self, tmp_path):
        """Two sessions of one seed under base directories of different
        lengths get the same prompt for every role."""
        seed = SeedRef.from_strings(1, [TX])
        near, far = (
            workspace.create_session(tmp_path / base, seed) for base in ("a", "b" * 40 + "/c")
        )
        for role in ROLES:
            assert build_role_prompt(role, near) == build_role_prompt(role, far), role


def _analysis_doc(final: bool) -> dict:
    doc = {
        "summary": "what happened",
        "hypothesis": "why it happened",
        "candidate_contracts": [VICTIM],
        "candidate_roles": {"attacker_eoas": [EOA]},
        "all_relevant_txs": [TX],
        "data_requests": []
        if final
        else [{"kind": "tx_trace", "chainid": 1, "target": TX}],
    }
    if final:
        doc["root_cause"] = _root_cause_doc()
    return doc


def _root_cause_doc() -> dict:
    return {
        "chainid": 1,
        "seed": [TX],
        "act": {"is_act": True},
        "lifecycle": [{"txhash": TX, "phase": "exploit"}],
        "all_relevant_txs": [TX],
        "roles": {
            "attacker_eoas": [EOA],
            "attacker_contracts": [],
            "victim_contracts": [VICTIM],
        },
        "mechanism": "double counted rewards",
        "violated_invariant": "rewards bounded by stake",
        "fork_block": 10,
    }


class TestTypedOutputs:
    def test_interim_analysis_needs_requests_only(self):
        doc = _analysis_doc(final=False)
        output, errors = validate_role_output(ROLE_ANALYZER, doc)
        assert errors == []
        assert output is doc
        assert len(output["data_requests"]) == 1

    def test_final_analysis_requires_root_cause(self):
        doc = _analysis_doc(final=True)
        del doc["root_cause"]
        output, errors = validate_role_output(ROLE_ANALYZER, doc)
        assert output is None
        assert any("root_cause" in e for e in errors)

    def test_final_analysis_with_root_cause_is_valid(self):
        output, errors = validate_role_output(ROLE_ANALYZER, _analysis_doc(final=True))
        assert errors == []
        assert output["data_requests"] == []
        assert output["root_cause"]["fork_block"] == 10

    def test_final_analysis_with_non_string_incident_constants_is_refused(self):
        doc = _analysis_doc(final=True)
        doc["root_cause"]["incident_constants"] = 5
        output, errors = validate_role_output(ROLE_ANALYZER, doc)
        assert output is None
        assert errors == ["incident_constants: expected array"]

    def test_challenger_pass_must_have_no_missing_evidence(self):
        doc = {"status": "Pass", "feedback": "ok", "missing_evidence": ["trace"]}
        output, errors = validate_role_output(ROLE_CHALLENGER, doc)
        assert output is None
        assert any("missing_evidence" in e for e in errors)

    def test_challenger_reject_roundtrip(self):
        doc = {
            "status": "Reject",
            "feedback": "not enough",
            "missing_evidence": ["trace"],
            "reject_reasons": ["missing_onchain_traces"],
        }
        output, errors = validate_role_output(ROLE_CHALLENGER, doc)
        assert errors == []
        assert output is doc
        assert output["status"] == "Reject"
        assert output["reject_reasons"] == ["missing_onchain_traces"]

    def test_reproducer_needs_at_least_one_file(self):
        output, errors = validate_role_output(ROLE_REPRODUCER, {"files": {}})
        assert output is None
        assert any("at least one" in e for e in errors)

    def test_validator_reject_needs_reasons(self):
        doc = {"overall_status": "Reject", "oracle_results": [], "rubric": {}}
        output, errors = validate_role_output(ROLE_VALIDATOR, doc)
        assert output is None
        assert any("reject_reasons" in e for e in errors)

    def test_oracle_generator_runs_semantic_validation(self):
        doc = {
            "chainid": 1,
            "fork_block": 0,  # structurally fine, semantically invalid
            "variables": [],
            "pre_check": [],
            "hard": [],
            "soft": [],
            "success_criteria": "x",
        }
        output, errors = validate_role_output(ROLE_ORACLE_GENERATOR, doc)
        assert output is None
        assert any("fork_block" in e for e in errors)

    def test_unknown_role(self):
        with pytest.raises(UnknownRole):
            validate_role_output("barista", {})


class TestRunRole:
    def test_zero_turn_cap_fails_immediately(self):
        backend = ScriptedBackend({ROLE_CHALLENGER: []})
        with pytest.raises(TurnBudgetExceeded) as info:
            run_role(backend, ROLE_CHALLENGER, "p", "go", turn_cap=0)
        assert info.value.turns == 0

    def test_valid_first_turn(self):
        doc = {"status": "Pass", "feedback": "ok", "missing_evidence": []}
        backend = ScriptedBackend({ROLE_CHALLENGER: [doc]})
        run = run_role(backend, ROLE_CHALLENGER, "p", "go", turn_cap=5)
        assert run.turns_used == 1
        assert run.output == doc
        assert run.usage == SCRIPTED_STEP_USAGE

    def test_invalid_document_is_retried_with_errors_echoed(self):
        bad = {"status": "Pass", "feedback": "ok", "missing_evidence": ["x"]}
        good = {"status": "Pass", "feedback": "ok", "missing_evidence": []}
        seen_messages = []

        class Recorder(ScriptedBackend):
            def step(self, conversation_id, message):
                seen_messages.append(message)
                return super().step(conversation_id, message)

        backend = Recorder({ROLE_CHALLENGER: [bad, good]})
        run = run_role(backend, ROLE_CHALLENGER, "p", "go", turn_cap=5)
        assert run.turns_used == 2
        assert run.usage == SCRIPTED_STEP_USAGE + SCRIPTED_STEP_USAGE
        assert "failed validation" in seen_messages[1]
        assert "missing_evidence" in seen_messages[1]

    def test_exhaustion_carries_last_errors(self):
        bad = {"status": "Pass", "feedback": "ok", "missing_evidence": ["x"]}
        backend = ScriptedBackend({ROLE_CHALLENGER: [bad, bad, bad]})
        with pytest.raises(TurnBudgetExceeded) as info:
            run_role(backend, ROLE_CHALLENGER, "p", "go", turn_cap=3)
        assert info.value.turns == 3
        assert info.value.errors

    def test_text_responses_fall_back_to_json_extraction(self):
        entry = {"output": None, "text": '```json\n{"status": "Pass", "feedback": "f", "missing_evidence": []}\n```'}
        backend = ScriptedBackend({ROLE_CHALLENGER: [entry]})
        run = run_role(backend, ROLE_CHALLENGER, "p", "go", turn_cap=2)
        assert run.output["status"] == "Pass"

    def test_a_reply_is_parsed_once(self, monkeypatch):
        """A live reply with no document is parsed by ``run_role`` alone."""
        from txpostmortem.agents import backend as backend_module

        parsed = []

        def counting(text):
            parsed.append(text)
            return extract_json_document(text)

        monkeypatch.setattr(backend_module, "extract_json_document", counting)
        monkeypatch.setattr(roles, "extract_json_document", counting)
        reply = {"choices": [{"message": {"content": "no document here"}}], "usage": {}}
        backend = OpenAIChatBackend(api_key="k", post=lambda url, body, headers: reply)
        with pytest.raises(TurnBudgetExceeded) as info:
            run_role(backend, ROLE_CHALLENGER, "p", "go", turn_cap=1)
        assert info.value.errors == ["no structured output found in response"]
        assert parsed == ["no document here"]
