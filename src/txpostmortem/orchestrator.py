"""Control loop: seed in, validated root cause and reproduction out.

Model turns are spent only on judgment; what code can check, code decides.
Every fetch of a session goes through one memo, so evidence the session
already holds is never fetched twice.  The bootstrap lands the seed
artifacts plus a best-effort context (receipt logs, state diff, and
metadata of every contract the seed trace calls), and the analyzer's first
message carries a digest of that context.  In the root-cause stage the
gateway fetches each batch of evidence the analyzer requests, with no model
turn of its own, until the analyzer closes its evidence; the draft then
goes to the challenger, and rejections route back by reason.  The PoC stage
generates oracles once, then loops reproducer and harness run until the
reproduction passes or budgets run out.  Each attempt is scanned, then
launched: a project whose sources name an attacker address is rejected
before the runner sees it.  A run gets an engine verdict first: the
oracles and the compile, clean-run and pinned-fork checks, with reject
codes from the validator's vocabulary.  Only a run the engine passes gets a
validator turn, and a PoC is validated only when both pass.  Any error ends
the session failed, with a terminal summary.

Role documents are written as their role contract accepted them, without
a second schema check; only the documents the orchestrator builds itself
(collection summaries, engine verdicts, the session summary) are checked
as they are written.

Each role run is charged once, as it ends, straight to the session outcome
(``Orchestrator._turn``): its turns to its stage and its tokens to the
session, failed turns included, its seconds to its role, and one iteration
of its role when it yields a document.  A stage timer records each stage's
latency.  Every fetch and rejection is recorded there too, and the outcome
becomes the session summary.
"""

from __future__ import annotations

import json
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
    AnalysisResult,
    ChallengeResult,
    ModelBackend,
    OracleGenerationResult,
    TurnBudgetExceeded,
    Usage,
    ValidationResult,
    build_role_prompt,
    run_role,
)
from .domain import Address, SeedRef
from .gateway import (
    BootstrapError,
    ChainAdapter,
    CollectionSummary,
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


class OrchestratorError(Exception):
    pass


class StageFailed(OrchestratorError):
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
    definition: oracles.OracleDefinition,
    verdict: oracles.VerdictReport,
    iterations: int,
    rejects: int,
) -> str:
    lines = [
        "# Reproduction report",
        "",
        f"- Chain: {definition.chainid}",
        f"- Fork block: {definition.fork_block}",
        f"- Project: `{workspace.FORGE_PROJECT_DIR}/`",
        f"- Run command: `{harness.RUN_COMMAND_TEMPLATE}`",
        f"- Reproducer iterations: {iterations} ({rejects} rejected)",
        f"- Oracle verdict: {'Pass' if verdict.overall_pass else 'Reject'}",
        "",
        "## Oracle results",
        "",
    ]
    for result in verdict.pre_check_results + verdict.constraint_results:
        status = "satisfied" if result.satisfied else "UNSATISFIED"
        lines.append(f"- `{result.constraint_id}` ({result.kind}): {status}")
    lines += ["", "## Success criteria", "", definition.success_criteria]
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
        runner: Optional[harness.ProjectRunner] = None,
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

    def _turn(self, outcome: SessionOutcome, stage: str, role: str, message: str) -> Any:
        """Run one role within the stage's turn budget; returns its output.

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

    def _record_collection(
        self, session: workspace.Session, outcome: SessionOutcome, summary: CollectionSummary
    ) -> None:
        """Write one collection run's summary into ``iter_<runs so far>`` and
        count the run and its fetched items.  Runs are numbered densely from
        the seed's ``iter_0``."""
        iteration = outcome.collection_runs_total
        workspace.write_artifact(
            session,
            f"{workspace.COLLECTION_DIR}/iter_{iteration}/data_collection_summary.json",
            summary.to_doc(iteration=iteration),
            schema_id="collection_summary",
        )
        outcome.collection_runs_total += 1
        outcome.fetched_items += summary.fetched_count

    def _collect(
        self,
        session: workspace.Session,
        fetches: SessionMemo,
        requests: list[DataRequest],
        outcome: SessionOutcome,
    ) -> None:
        """Fetch one request batch into the next collection ``iter_k`` and
        record it; no model turn is involved.  The directory's first write
        creates it once every fetch has returned, so a batch whose fetches
        raise leaves no directory behind."""
        iter_dir = session.root / workspace.COLLECTION_DIR / f"iter_{outcome.collection_runs_total}"
        summary = execute_data_requests(session, requests, fetches, iter_dir)
        self._record_collection(session, outcome, summary)

    # -- root-cause stage ---------------------------------------------------

    def run_root_cause_stage(
        self,
        session: workspace.Session,
        outcome: SessionOutcome,
        fetches: SessionMemo,
        seed_digest: str = "",
    ) -> Optional[dict[str, Any]]:
        """Drive analysis to a challenged root cause; returns the accepted
        draft, or None when the incident is not ACT.  Evidence is fetched
        through the session's ``fetches``; the analyzer's first message
        carries ``seed_digest``, the digest of the seed context."""
        opening = "Begin the analysis from the seed evidence."
        if seed_digest:
            opening += "\n\n" + seed_digest
        feedback = ""
        with self._stage(STAGE_ROOT_CAUSE, outcome):
            while True:
                if outcome.iterations.get(ROLE_ANALYZER, 0) >= self.budgets.analyzer_iterations:
                    raise StageFailed(
                        STAGE_ROOT_CAUSE,
                        f"analyzer iteration budget ({self.budgets.analyzer_iterations}) exhausted",
                    )
                analysis: AnalysisResult = self._turn(
                    outcome, STAGE_ROOT_CAUSE, ROLE_ANALYZER, feedback or opening
                )
                # Allocated once the turn returns, so a raising turn leaves
                # no empty iteration directory.
                iter_dir = workspace.next_iteration_dir(
                    session, f"{workspace.ROOT_CAUSE_STAGE_DIR}/{ROLE_ANALYZER}"
                )
                workspace.write_artifact(
                    session,
                    iter_dir.relative_to(session.root) / "current_analysis_result.json",
                    analysis.doc,
                )
                if not analysis.is_final:
                    self._collect(session, fetches, analysis.data_requests, outcome)
                    continue

                draft = dict(analysis.root_cause or {})
                if not draft.get("act", {}).get("is_act", False):
                    self._finalize_root_cause(session, draft)
                    outcome.is_act = False
                    return None

                challenge = self._challenge(session, outcome, draft)
                if challenge.passed:
                    self._finalize_root_cause(session, draft)
                    outcome.is_act = True
                    return draft

                codes = _reject_codes(challenge.reject_reasons, ROOT_CAUSE_REASONS) or [
                    "other:challenger rejected without reasons"
                ]
                actions = {
                    ACTION_RE_COLLECT if code == REASON_MISSING_TRACES else ACTION_RE_ANALYZE
                    for code in codes
                }
                outcome.reject_log.append(
                    {"stage": STAGE_ROOT_CAUSE, "reasons": codes, "actions": sorted(actions)}
                )
                feedback = challenge.feedback
                if ACTION_RE_COLLECT in actions:
                    requests = _requests_from_missing_evidence(
                        challenge.missing_evidence, session.seed.chainid
                    )
                    if requests:
                        self._collect(session, fetches, requests, outcome)

    def _challenge(
        self, session: workspace.Session, outcome: SessionOutcome, draft: dict[str, Any]
    ) -> ChallengeResult:
        challenge: ChallengeResult = self._turn(
            outcome, STAGE_ROOT_CAUSE, ROLE_CHALLENGER, json.dumps(draft, indent=2)
        )
        workspace.write_artifact(
            session,
            f"{workspace.ROOT_CAUSE_STAGE_DIR}/{ROLE_CHALLENGER}/root_cause_challenge_result.json",
            challenge.doc,
        )
        return challenge

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

    def run_poc_stage(
        self,
        session: workspace.Session,
        outcome: SessionOutcome,
        draft: dict[str, Any],
    ) -> None:
        with self._stage(STAGE_POC, outcome):
            definition = self._generate_oracles(session, outcome, draft)
            roles = draft.get("roles", {})
            # The reject code a source hit on each attacker-side address earns.
            taint = {
                Address(a).value: code
                for key, code in (
                    ("attacker_eoas", REASON_ATTACKER_VALUES),
                    ("attacker_contracts", REASON_ATTACKER_CONTRACT),
                )
                for a in roles.get(key, [])
            }
            bound = oracles.bind_variables(
                definition, {}, frozenset(Address(a) for a in taint)
            )
            expected = oracles.observation_names(bound)
            feedback = ""
            for attempt in range(self.budgets.reproducer_iterations):
                verdict, codes = self._reproduce_once(
                    session, outcome, definition, bound, expected, taint, feedback
                )
                if not codes:
                    outcome.poc_validated = True
                    # Every earlier attempt was rejected.
                    workspace.write_text_artifact(
                        session,
                        workspace.POC_REPORT,
                        render_poc_report(
                            definition, verdict, iterations=attempt + 1, rejects=attempt
                        ),
                    )
                    return
                outcome.reject_log.append(
                    {"stage": STAGE_POC, "reasons": codes, "actions": [ACTION_RE_REPRODUCE]}
                )
                feedback = "; ".join(codes)
            raise StageFailed(
                STAGE_POC,
                f"reproducer iteration budget ({self.budgets.reproducer_iterations}) exhausted",
            )

    def _generate_oracles(
        self,
        session: workspace.Session,
        outcome: SessionOutcome,
        draft: dict[str, Any],
    ) -> oracles.OracleDefinition:
        generated: OracleGenerationResult = self._turn(
            outcome, STAGE_POC, ROLE_ORACLE_GENERATOR, json.dumps(draft, indent=2)
        )
        workspace.write_artifact(
            session, workspace.ORACLE_DEFINITION, generated.definition.to_doc()
        )
        return generated.definition

    def _reproduce_once(
        self,
        session: workspace.Session,
        outcome: SessionOutcome,
        definition: oracles.OracleDefinition,
        bound: oracles.OracleDefinition,
        expected: list[str],
        taint: dict[str, str],
        feedback: str,
    ) -> tuple[Optional[oracles.VerdictReport], list[str]]:
        """One reproducer round; no reject codes means the PoC is validated.
        The verdict is None when nothing ran.

        The engine decides what code can check.  The sources are scanned
        for attacker addresses before the runner is launched: a hit is
        rejected whatever the run would show, so it is never run.  A run
        then gets the oracles and the three correctness checks.  Only a
        reproduction the engine passes goes to the validator turn.
        """
        message = json.dumps(definition.to_doc(), indent=2)
        if feedback:
            message += f"\n\nReject codes of the previous attempt: {feedback}"
        reproduction = self._turn(outcome, STAGE_POC, ROLE_REPRODUCER, message)
        # Allocated once the turn returns, as the analyzer's is.
        iter_dir = workspace.next_iteration_dir(session, workspace.REPRODUCER_DIR)
        rel = iter_dir.relative_to(session.root)
        files = reproduction.files
        workspace.write_artifact(
            session,
            rel / "project_manifest.json",
            {"files": sorted(files), "notes": reproduction.notes},
        )
        launch_failed = ["other:project failed to scaffold or launch"]
        try:
            project = harness.scaffold_project(session, files, definition)
        except harness.ScaffoldError as exc:
            logger.info("scaffold failed: %s", exc)
            workspace.write_artifact(
                session, rel / "harness_error.json", {"error": str(exc), "phase": "scaffold"}
            )
            return None, launch_failed

        taint_hits = harness.scan_for_addresses(harness.solidity_sources(project.root), taint)
        hit_codes = {taint[address] for _, address, _ in taint_hits}
        scan_reasons = [
            code
            for code in (REASON_ATTACKER_CONTRACT, REASON_ATTACKER_VALUES)
            if code in hit_codes
        ]
        hits_doc = [{"file": f, "address": a, "line": n} for f, a, n in taint_hits]
        if scan_reasons:
            # Nothing ran, so no oracle was evaluated.
            engine_doc = oracles.VerdictReport((), (), False).to_validation_doc(
                rubric={"attacker_address_hits": hits_doc}, reject_reasons=scan_reasons
            )
            workspace.write_artifact(
                session, rel / "engine_verdict.json", engine_doc, schema_id="poc_validation"
            )
            return None, scan_reasons

        if self.runner is None:
            raise StageFailed(STAGE_POC, "no project runner configured")
        try:
            result = harness.run_project(project, self.runner, self.rpc_url)
        except harness.HarnessError as exc:
            logger.info("run failed to launch: %s", exc)
            workspace.write_artifact(
                session, rel / "harness_error.json", {"error": str(exc), "phase": "run"}
            )
            return None, launch_failed

        workspace.write_text_artifact(session, rel / "forge_output.txt", result.raw_output)
        checks = harness.correctness_checks(project, result)
        obs_report = harness.extract_observations(result.raw_output, expected)
        verdict = oracles.evaluate_constraints(bound, obs_report.observations)
        engine_reasons = [] if verdict.overall_pass and checks.passed else [REASON_ORACLE_FAILED]
        rubric = {
            "correctness": checks.to_doc(),
            "observations_missing": list(obs_report.missing),
            "observation_warnings": list(obs_report.warnings),
            "attacker_address_hits": hits_doc,
        }
        engine_doc = verdict.to_validation_doc(rubric=rubric, reject_reasons=engine_reasons)
        workspace.write_artifact(
            session, rel / "engine_verdict.json", engine_doc, schema_id="poc_validation"
        )
        workspace.write_artifact(session, rel / "run_result.json", result.to_doc())
        if engine_reasons:
            return verdict, engine_reasons

        validation: ValidationResult = self._turn(
            outcome,
            STAGE_POC,
            ROLE_VALIDATOR,
            json.dumps(
                {"engine_verdict": engine_doc, "observations": obs_report.observations},
                indent=2,
            ),
        )
        workspace.write_artifact(session, rel / "poc_validation.json", validation.doc)
        workspace.write_artifact(session, workspace.POC_VALIDATED_RESULT, validation.doc)
        if validation.passed:
            return verdict, []
        return verdict, _reject_codes(validation.reject_reasons, POC_REASONS)

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
                bootstrap = fetch_seed_artifacts(session, fetches)
            except BootstrapError as exc:
                outcome.stage = STAGE_FAILED
                outcome.failure = f"bootstrap: {exc}; " + "; ".join(exc.diagnostics)
                return outcome
            # The seed fetch is collection run zero.
            self._record_collection(session, outcome, bootstrap)

            outcome.stage = STAGE_ROOT_CAUSE
            draft = self.run_root_cause_stage(session, outcome, fetches, bootstrap.digest)
            if draft is None:
                outcome.stage = STAGE_ABORTED_NON_ACT
                return outcome
            outcome.stage = STAGE_POC
            self.run_poc_stage(session, outcome, draft)
            outcome.stage = STAGE_DONE
            return outcome
        except StageFailed as exc:
            outcome.stage = STAGE_FAILED
            outcome.failure = str(exc)
            return outcome
        except Exception as exc:
            # Whatever the model, the chain or the runner raised, the
            # session ends failed at the stage it reached.
            logger.warning("session %s failed", session.session_id, exc_info=True)
            outcome.failure = f"{outcome.stage}: {type(exc).__name__}: {exc}"
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
