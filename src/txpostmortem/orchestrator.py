"""Control loop: seed in, validated root cause and reproduction out.

Model turns are spent only on judgment; what code can check, code decides.
Every fetch of a session goes through one memo, so evidence the session
already holds is never fetched or landed twice.  The bootstrap lands the
seed artifacts plus a best-effort context (receipt logs, state diff, and
metadata of every contract the seed trace calls), and the analyzer's first
message carries a digest of that context.  In the root-cause stage the
gateway fetches each batch of evidence the analyzer requests, with no model
turn of its own, until the analyzer closes its evidence; the draft then
goes to the challenger, and rejections route back by reason.  The PoC stage
generates oracles once, then loops reproducer and harness run until the
reproduction passes or budgets run out.  Each document a model reads is the
compact bytes the session writes (``workspace.dump_compact``): the
challenger and the oracle generator read ``root_cause.json``, and the
reproducer's first message is ``oracle_definition.json``.  Each attempt is
scaffolded, scanned, then launched: a project whose sources name an
attacker address is rejected before the runner sees it.  A project that
fails to scaffold or to launch leaves ``harness_error.json`` with its phase
and no engine verdict.  Every other attempt gets one engine verdict,
written in one place: the scan's hits, and for a run the oracles and the
compile, clean-run and pinned-fork checks, with reject codes from the
validator's vocabulary.  Only a run the engine passes gets a validator
turn, whose verdict is written beside the engine's; a PoC is validated only
when both pass.  Any error ends the session failed, with a terminal summary.

A role turn (``_turn``) hands back what ``agents.run_role`` returns: the
role's document as its contract in ``agents.roles`` accepted it.  The
oracle definition is that document too, with its default tolerances
filled in, and its variables are bound in a copy.  The orchestrator reads
the fields the contract's schema guarantees and writes each document as it
came, without a second check; only the documents it builds itself
(collection summaries, engine verdicts, the session summary) are checked
as they are written.  Collection summaries, oracle results, engine verdicts
and run results are built as the documents the session writes.

Each role run is charged once, as it ends, straight to the session outcome
(``Orchestrator._turn``): its turns to its stage and its tokens to the
session, failed turns included, its seconds to its role, and one iteration
of its role when it yields a document.  A stage timer records each stage's
latency.  Every fetch and rejection is recorded there too, and the outcome
becomes the session summary.
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from . import harness, oracles, workspace
from .agents import (
    ROLE_ANALYZER,
    ROLE_CHALLENGER,
    ROLE_ORACLE_GENERATOR,
    ROLE_REPRODUCER,
    ROLE_VALIDATOR,
    BackendError,
    ModelBackend,
    TurnBudgetExceeded,
    Usage,
    build_role_prompt,
    run_role,
)
from .domain import Address, SeedRef
from .gateway import (
    BootstrapError,
    ChainAdapter,
    DataRequest,
    SessionMemo,
    execute_data_requests,
    fetch_seed_artifacts,
)

logger = logging.getLogger(__name__)

STAGE_BOOTSTRAP = "bootstrap"
STAGE_ROOT_CAUSE = "root_cause"
STAGE_POC = "poc"
STAGE_DONE = "done"
STAGE_ABORTED_NON_ACT = "aborted_non_act"
STAGE_FAILED = "failed"


class StageFailed(Exception):
    def __init__(self, stage: str, reason: str):
        self.stage = stage
        self.reason = reason
        super().__init__(f"{stage}: {reason}")


# --------------------------------------------------------------------------
# Rejection reasons and routing.

REASON_SPECULATIVE = "speculative_language"
REASON_UNKNOWN_CONTENT = "unknown_content"
REASON_MISSING_TRACES = "missing_onchain_traces"
REASON_INCOMPLETE_LIFECYCLE = "incomplete_act_lifecycle"
REASON_ORACLE_FAILED = "oracle_validation_failed"
REASON_ATTACKER_VALUES = "uses_attacker_designed_values"
REASON_ATTACKER_CONTRACT = "uses_attacker_contract"

ROOT_CAUSE_REASONS = frozenset(
    {
        REASON_SPECULATIVE,
        REASON_UNKNOWN_CONTENT,
        REASON_MISSING_TRACES,
        REASON_INCOMPLETE_LIFECYCLE,
    }
)
POC_REASONS = frozenset(
    {REASON_ORACLE_FAILED, REASON_ATTACKER_VALUES, REASON_ATTACKER_CONTRACT}
)

ACTION_RE_ANALYZE = "re_analyze"
ACTION_RE_COLLECT = "re_collect"
ACTION_RE_REPRODUCE = "re_reproduce"


def _reject_codes(raw: list[str], stage_reasons: frozenset[str]) -> list[str]:
    """A challenger's or validator's reject codes as recorded: a code of the
    stage is kept as given, and any other code becomes ``other:<detail>``."""
    codes = []
    for code in (r.strip() for r in raw):
        if code not in stage_reasons:
            detail = code[len("other:") :].strip() if code.startswith("other:") else code
            code = f"other:{detail}" if detail else "other"
        codes.append(code)
    return codes


# --------------------------------------------------------------------------
# Budgets and the session outcome.


@dataclass(frozen=True)
class Budgets:
    """Hard caps; every stage terminates within these regardless of scripts."""

    stage_turns: int = 60
    analyzer_iterations: int = 10
    reproducer_iterations: int = 6


@dataclass
class SessionOutcome:
    """Everything a caller needs to know about one finished session."""

    session: workspace.Session
    stage: str
    is_act: Optional[bool] = None
    failure: str = ""
    usage: Usage = field(default_factory=Usage)
    turns: dict[str, int] = field(default_factory=dict)
    iterations: dict[str, int] = field(default_factory=dict)
    latencies: dict[str, float] = field(default_factory=dict)
    fetched_items: int = 0
    collection_runs_total: int = 0
    poc_validated: bool = False
    reject_log: list[dict[str, Any]] = field(default_factory=list)

    def summary_doc(self) -> dict[str, Any]:
        outcome: dict[str, Any] = {"stage": self.stage}
        if self.is_act is not None:
            outcome["is_act"] = self.is_act
        if self.failure:
            outcome["failure"] = self.failure
        return {
            "session_id": self.session.session_id,
            "outcome": outcome,
            "iterations": dict(self.iterations),
            "turns": dict(self.turns),
            "usage": self.usage.to_doc(),
            "latencies": {k: round(v, 6) for k, v in self.latencies.items()},
            "fetched_items": self.fetched_items,
            "collection_runs_total": self.collection_runs_total,
            "poc": {
                "reproducer_iterations": self.iterations.get(ROLE_REPRODUCER, 0),
                "rejects": sum(1 for e in self.reject_log if e["stage"] == STAGE_POC),
                "validated": self.poc_validated,
            },
            "reject_log": list(self.reject_log),
        }


# --------------------------------------------------------------------------
# Report rendering.


def render_root_cause_report(draft: dict[str, Any], seed: SeedRef) -> str:
    act = draft.get("act", {})
    lines = [
        "# Root-cause report",
        "",
        f"- Chain: {draft.get('chainid')}",
        f"- Seed transaction(s): {', '.join(t.value for t in seed.txs)}",
        f"- ACT opportunity: {'yes' if act.get('is_act') else 'no'}",
    ]
    if act.get("predicate"):
        lines.append(f"- Predicate: {act['predicate']}")
    if act.get("rejection_reason"):
        lines.append(f"- Why not ACT: {act['rejection_reason']}")
    lines += [
        f"- Fork block: {draft.get('fork_block')}",
        "",
        "## Mechanism",
        "",
        draft.get("mechanism", ""),
        "",
        "## Violated invariant",
        "",
        draft.get("violated_invariant", ""),
        "",
        "## Lifecycle",
        "",
    ]
    for entry in draft.get("lifecycle", []):
        lines.append(f"- `{entry['txhash']}` ({entry['phase']})")
    roles = draft.get("roles", {})
    lines += ["", "## Roles", ""]
    for key in ("attacker_eoas", "attacker_contracts", "victim_contracts", "helpers"):
        values = roles.get(key, [])
        if values:
            lines.append(f"- {key}: " + ", ".join(f"`{v}`" for v in values))
    return "\n".join(lines) + "\n"


def render_poc_report(
    definition: dict[str, Any],
    verdict: dict[str, Any],
    iterations: int,
    rejects: int,
) -> str:
    lines = [
        "# Reproduction report",
        "",
        f"- Chain: {definition['chainid']}",
        f"- Fork block: {definition['fork_block']}",
        f"- Project: `{workspace.FORGE_PROJECT_DIR}/`",
        f"- Run command: `{harness.RUN_COMMAND_TEMPLATE}`",
        f"- Reproducer iterations: {iterations} ({rejects} rejected)",
        f"- Oracle verdict: {verdict['overall_status']}",
        "",
        "## Oracle results",
        "",
    ]
    for result in verdict["pre_check_results"] + verdict["oracle_results"]:
        status = "satisfied" if result["satisfied"] else "UNSATISFIED"
        lines.append(f"- `{result['id']}` ({result['kind']}): {status}")
    lines += ["", "## Success criteria", "", definition["success_criteria"]]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Stage helpers.


def _requests_from_missing_evidence(
    missing: list[str], chainid: int
) -> list[DataRequest]:
    """Turn challenger evidence gaps into concrete fetches where possible."""
    requests: list[DataRequest] = []
    for item in missing:
        token = item.strip()
        if len(token) == 66 and token.startswith("0x"):
            requests.append(DataRequest(kind="tx_trace", chainid=chainid, target=token))
            requests.append(DataRequest(kind="balance_diff", chainid=chainid, target=token))
        elif len(token) == 42 and token.startswith("0x"):
            requests.append(DataRequest(kind="contract_meta", chainid=chainid, target=token))
        else:
            logger.info("unactionable missing-evidence item: %s", token)
    return requests


class Orchestrator:
    """Binds one backend, one chain adapter, and one runner into a pipeline."""

    def __init__(
        self,
        backend: ModelBackend,
        adapter: ChainAdapter,
        runner: harness.ProjectRunner,
        budgets: Budgets = Budgets(),
        rpc_url: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.backend = backend
        self.adapter = adapter
        self.runner = runner
        self.budgets = budgets
        self.rpc_url = rpc_url
        self.clock = clock

    # -- accounting ---------------------------------------------------------

    @contextmanager
    def _stage(self, stage: str, outcome: SessionOutcome) -> Iterator[None]:
        """Time one stage.  Its ``turns`` and ``latencies`` keys go in as it
        starts, ahead of the role latencies its turns add."""
        outcome.turns[stage] = 0
        outcome.latencies[stage] = 0.0
        started = self.clock()
        try:
            yield
        finally:
            outcome.latencies[stage] = self.clock() - started

    def _turn(
        self, outcome: SessionOutcome, stage: str, role: str, message: str
    ) -> dict[str, Any]:
        """Run one role within the stage's turn budget; returns what its
        contract accepted.

        What the run spends is charged to ``outcome`` as it ends: its
        seconds, turns and tokens, failed turns included.  A run that yields
        a document also counts one iteration of its role.
        """
        remaining = self.budgets.stage_turns - outcome.turns[stage]
        if remaining <= 0:
            raise StageFailed(stage, "stage turn budget exhausted")
        prompt = build_role_prompt(role, outcome.session)
        started = self.clock()
        try:
            run = run_role(self.backend, role, prompt, message, turn_cap=remaining)
        except TurnBudgetExceeded as exc:
            outcome.turns[stage] += exc.turns
            outcome.usage += exc.usage
            raise StageFailed(stage, str(exc)) from exc
        finally:
            key = f"role:{role}"
            outcome.latencies[key] = outcome.latencies.get(key, 0.0) + self.clock() - started
        outcome.turns[stage] += run.turns_used
        outcome.usage += run.usage
        outcome.iterations[role] = outcome.iterations.get(role, 0) + 1
        return run.output

    # -- collection ---------------------------------------------------------

    def _record_collection(self, outcome: SessionOutcome, summary: dict[str, Any]) -> None:
        """Write one collection run's summary document into
        ``iter_<runs so far>`` and count the run and its fetched items.  Runs
        are numbered densely from the seed's ``iter_0``."""
        iteration = outcome.collection_runs_total
        workspace.write_artifact(
            outcome.session,
            f"{workspace.COLLECTION_DIR}/iter_{iteration}/data_collection_summary.json",
            summary,
            schema_id="collection_summary",
        )
        outcome.collection_runs_total += 1
        outcome.fetched_items += len(summary["fetched"])

    def _collect(
        self, outcome: SessionOutcome, fetches: SessionMemo, requests: list[DataRequest]
    ) -> None:
        """Fetch one request batch into the next collection ``iter_k`` and
        record it; no model turn is involved.  The directory's first write
        creates it once every fetch has returned, so a batch whose fetches
        raise leaves no directory behind."""
        session = outcome.session
        iter_dir = f"{workspace.COLLECTION_DIR}/iter_{outcome.collection_runs_total}"
        summary = execute_data_requests(session, requests, fetches, iter_dir)
        self._record_collection(outcome, summary)

    # -- root-cause stage ---------------------------------------------------

    def run_root_cause_stage(
        self, outcome: SessionOutcome, fetches: SessionMemo, seed_digest: str
    ) -> Optional[dict[str, Any]]:
        """Drive analysis to a challenged root cause; returns the accepted
        draft, or None when the incident is not ACT.  Evidence is fetched
        through the session's ``fetches``; the analyzer's first message
        carries ``seed_digest``, the digest of the seed context."""
        session = outcome.session
        opening = "Begin the analysis from the seed evidence.\n\n" + seed_digest
        feedback = ""
        with self._stage(STAGE_ROOT_CAUSE, outcome):
            while True:
                if outcome.iterations.get(ROLE_ANALYZER, 0) >= self.budgets.analyzer_iterations:
                    raise StageFailed(
                        STAGE_ROOT_CAUSE,
                        f"analyzer iteration budget ({self.budgets.analyzer_iterations}) exhausted",
                    )
                analysis = self._turn(
                    outcome, STAGE_ROOT_CAUSE, ROLE_ANALYZER, feedback or opening
                )
                # Allocated once the turn returns, so a raising turn leaves
                # no empty iteration directory.
                iter_dir = workspace.next_iteration_dir(
                    session, f"{workspace.ROOT_CAUSE_STAGE_DIR}/{ROLE_ANALYZER}"
                )
                workspace.write_artifact(
                    session, f"{iter_dir}/current_analysis_result.json", analysis
                )
                if analysis["data_requests"]:
                    requests = [DataRequest.from_doc(d) for d in analysis["data_requests"]]
                    self._collect(outcome, fetches, requests)
                    continue

                draft = analysis["root_cause"]
                if not draft["act"]["is_act"]:
                    self._finalize_root_cause(session, draft)
                    outcome.is_act = False
                    return None

                challenge = self._turn(
                    outcome, STAGE_ROOT_CAUSE, ROLE_CHALLENGER, workspace.dump_compact(draft)
                )
                workspace.write_artifact(
                    session,
                    f"{workspace.ROOT_CAUSE_STAGE_DIR}/{ROLE_CHALLENGER}/root_cause_challenge_result.json",
                    challenge,
                )
                if challenge["status"] == "Pass":
                    self._finalize_root_cause(session, draft)
                    outcome.is_act = True
                    return draft

                codes = _reject_codes(
                    challenge.get("reject_reasons", []), ROOT_CAUSE_REASONS
                ) or ["other:challenger rejected without reasons"]
                actions = {
                    ACTION_RE_COLLECT if code == REASON_MISSING_TRACES else ACTION_RE_ANALYZE
                    for code in codes
                }
                outcome.reject_log.append(
                    {"stage": STAGE_ROOT_CAUSE, "reasons": codes, "actions": sorted(actions)}
                )
                feedback = challenge["feedback"]
                if ACTION_RE_COLLECT in actions:
                    requests = _requests_from_missing_evidence(
                        challenge["missing_evidence"], session.seed.chainid
                    )
                    if requests:
                        self._collect(outcome, fetches, requests)

    def _finalize_root_cause(
        self, session: workspace.Session, draft: dict[str, Any]
    ) -> None:
        workspace.write_artifact(session, workspace.ROOT_CAUSE_DOC, draft)
        workspace.write_text_artifact(
            session,
            workspace.ROOT_CAUSE_REPORT,
            render_root_cause_report(draft, session.seed),
        )

    # -- PoC stage -----------------------------------------------------------

    def run_poc_stage(self, outcome: SessionOutcome, draft: dict[str, Any]) -> None:
        with self._stage(STAGE_POC, outcome):
            definition = self._turn(
                outcome, STAGE_POC, ROLE_ORACLE_GENERATOR, workspace.dump_compact(draft)
            )
            workspace.write_artifact(outcome.session, workspace.ORACLE_DEFINITION, definition)
            roles = draft["roles"]
            # The reject code a source hit on each attacker-side address earns.
            taint = {
                Address(a).value: code
                for key, code in (
                    ("attacker_eoas", REASON_ATTACKER_VALUES),
                    ("attacker_contracts", REASON_ATTACKER_CONTRACT),
                )
                for a in roles.get(key, [])
            }
            bound = oracles.bind_variables(definition, frozenset(Address(a) for a in taint))
            expected = oracles.observation_names(bound)
            request = workspace.dump_compact(definition)
            feedback = ""
            for attempt in range(self.budgets.reproducer_iterations):
                verdict, codes = self._reproduce_once(
                    outcome, request + feedback, definition, bound, expected, taint
                )
                if not codes:
                    outcome.poc_validated = True
                    # Every earlier attempt was rejected.
                    workspace.write_text_artifact(
                        outcome.session,
                        workspace.POC_REPORT,
                        render_poc_report(
                            definition, verdict, iterations=attempt + 1, rejects=attempt
                        ),
                    )
                    return
                outcome.reject_log.append(
                    {"stage": STAGE_POC, "reasons": codes, "actions": [ACTION_RE_REPRODUCE]}
                )
                feedback = "\n\nReject codes of the previous attempt: " + "; ".join(codes)
            raise StageFailed(
                STAGE_POC,
                f"reproducer iteration budget ({self.budgets.reproducer_iterations}) exhausted",
            )

    def _reproduce_once(
        self,
        outcome: SessionOutcome,
        message: str,
        definition: dict[str, Any],
        bound: dict[str, Any],
        expected: list[str],
        taint: dict[str, str],
    ) -> tuple[Optional[dict[str, Any]], list[str]]:
        """One reproducer round on ``message``, the stage's serialised
        oracle definition plus the previous attempt's reject codes; no
        reject codes means the PoC is validated.  Returns the engine
        verdict document, or None for a project that failed to scaffold or
        to launch.

        The engine decides what code can check.  The sources are scanned
        for attacker addresses before the runner is launched: a hit is
        rejected whatever the run would show, so it is never run.  A run
        then gets the oracles and the three correctness checks.  Only a
        reproduction the engine passes goes to the validator turn.  One
        handler covers a project that fails to scaffold or to launch: its
        ``harness_error.json`` names the phase, and it gets no engine
        verdict.
        """
        session = outcome.session
        reproduction = self._turn(outcome, STAGE_POC, ROLE_REPRODUCER, message)
        # Allocated once the turn returns, as the analyzer's is.
        rel = workspace.next_iteration_dir(session, workspace.REPRODUCER_DIR)
        files = reproduction["files"]
        workspace.write_artifact(
            session,
            f"{rel}/project_manifest.json",
            {"files": sorted(files), "notes": reproduction.get("notes", "")},
        )
        phase, raw = "scaffold", None
        try:
            project = harness.scaffold_project(session, files, definition)
            taint_hits = harness.scan_for_addresses(harness.solidity_sources(project.root), taint)
            hit_codes = {taint[address] for _, address, _ in taint_hits}
            reasons = [
                code
                for code in (REASON_ATTACKER_CONTRACT, REASON_ATTACKER_VALUES)
                if code in hit_codes
            ]
            if not reasons:
                phase = "run"
                raw = self.runner.run(project, self.rpc_url)
        except harness.HarnessError as exc:
            logger.info("project failed to %s: %s", phase, exc)
            workspace.write_artifact(
                session, f"{rel}/harness_error.json", {"error": str(exc), "phase": phase}
            )
            return None, ["other:project failed to scaffold or launch"]

        hits = [{"file": f, "address": a, "line": n} for f, a, n in taint_hits]
        rubric: dict[str, Any] = {"attacker_address_hits": hits}
        # A project the scan refused never ran, so no oracle was evaluated.
        results: list[dict[str, Any]] = []
        if raw is not None:
            result = harness.parse_run_output(raw, project.fork_pinned)
            workspace.write_text_artifact(session, f"{rel}/forge_output.txt", raw)
            checks = harness.correctness_checks(result)
            obs_report = harness.extract_observations(raw, expected)
            results = oracles.evaluate_constraints(bound, obs_report.observations)
            if not (all(r["satisfied"] for r in results) and all(checks.values())):
                reasons = [REASON_ORACLE_FAILED]
            rubric = {
                "correctness": checks,
                "observations_missing": list(obs_report.missing),
                "observation_warnings": list(obs_report.warnings),
                "attacker_address_hits": hits,
            }
        verdict = oracles.engine_verdict(results, rubric, reasons)
        workspace.write_artifact(
            session, f"{rel}/{workspace.ENGINE_VERDICT}", verdict, schema_id="engine_verdict"
        )
        if raw is not None:
            workspace.write_artifact(session, f"{rel}/run_result.json", result)
        if reasons:
            return verdict, reasons

        validation = self._turn(
            outcome,
            STAGE_POC,
            ROLE_VALIDATOR,
            workspace.dump_compact(
                {"engine_verdict": verdict, "observations": obs_report.observations}
            ),
        )
        workspace.write_artifact(session, f"{rel}/{workspace.POC_VALIDATION}", validation)
        if validation["overall_status"] == "Pass":
            return verdict, []
        return verdict, _reject_codes(validation.get("reject_reasons", []), POC_REASONS)

    # -- end to end ----------------------------------------------------------

    def run_postmortem(
        self,
        seed: SeedRef,
        base_dir: str,
        attributions: list[str] | None = None,
    ) -> SessionOutcome:
        session = workspace.create_session(base_dir, seed, attributions)
        outcome = SessionOutcome(session=session, stage=STAGE_BOOTSTRAP)
        fetches = SessionMemo(self.adapter)
        started = self.clock()
        try:
            try:
                bootstrap, digest = fetch_seed_artifacts(session, fetches)
            except BootstrapError as exc:
                outcome.stage = STAGE_FAILED
                outcome.failure = f"bootstrap: {exc}; " + "; ".join(exc.diagnostics)
                return outcome
            # The seed fetch is collection run zero.
            self._record_collection(outcome, bootstrap)

            outcome.stage = STAGE_ROOT_CAUSE
            draft = self.run_root_cause_stage(outcome, fetches, digest)
            if draft is None:
                outcome.stage = STAGE_ABORTED_NON_ACT
                return outcome
            outcome.stage = STAGE_POC
            self.run_poc_stage(outcome, draft)
            outcome.stage = STAGE_DONE
            return outcome
        except StageFailed as exc:
            outcome.stage = STAGE_FAILED
            outcome.failure = str(exc)
            return outcome
        except Exception as exc:
            # Whatever the model, the chain or the runner raised, the
            # session ends failed at the stage it reached; only a failure
            # that is not the model's is logged with its traceback.
            outcome.failure = f"{outcome.stage}: {type(exc).__name__}: {exc}"
            logger.warning("session %s failed: %s", session.session_id, outcome.failure,
                           exc_info=not isinstance(exc, BackendError))
            outcome.stage = STAGE_FAILED
            return outcome
        finally:
            outcome.latencies["session"] = self.clock() - started
            workspace.write_artifact(
                session,
                workspace.SESSION_SUMMARY,
                outcome.summary_doc(),
                schema_id="session_summary",
            )
