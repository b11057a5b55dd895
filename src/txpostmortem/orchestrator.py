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
the session failed, with a terminal summary.  Every model turn, fetch,
rejection, and stage latency is accounted for in the session summary.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from . import harness, lifecycle, oracles, workspace
from .agents import (
    ROLE_ANALYZER,
    ROLE_CHALLENGER,
    ROLE_ORACLE_GENERATOR,
    ROLE_REPRODUCER,
    ROLE_VALIDATOR,
    AnalysisResult,
    ChallengeResult,
    ModelBackend,
    RoleRun,
    TurnBudgetExceeded,
    Usage,
    ValidationResult,
    build_role_prompt,
    run_role,
)
from .domain import Address, SeedRef, validate_chain
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
REASON_OTHER = "other"

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
ACTION_EXPAND_LIFECYCLE = "expand_lifecycle"
ACTION_RE_REPRODUCE = "re_reproduce"


@dataclass(frozen=True)
class RejectReason:
    """A challenger/validator rejection; a code that is unknown, or that
    belongs to the other stage, collapses to other."""

    code: str
    detail: str = ""

    @classmethod
    def parse(cls, raw: str, stage_reasons: frozenset[str]) -> "RejectReason":
        raw = raw.strip()
        if raw in stage_reasons:
            return cls(code=raw)
        if raw.startswith("other:"):
            return cls(code=REASON_OTHER, detail=raw[len("other:") :].strip())
        return cls(code=REASON_OTHER, detail=raw)

    def serialize(self) -> str:
        if self.code == REASON_OTHER:
            return f"other:{self.detail}" if self.detail else "other"
        return self.code


_ROOT_CAUSE_ROUTES = {
    REASON_SPECULATIVE: ACTION_RE_ANALYZE,
    REASON_UNKNOWN_CONTENT: ACTION_RE_ANALYZE,
    REASON_MISSING_TRACES: ACTION_RE_COLLECT,
    REASON_INCOMPLETE_LIFECYCLE: ACTION_EXPAND_LIFECYCLE,
}


# --------------------------------------------------------------------------
# Budgets and accounting.


@dataclass(frozen=True)
class Budgets:
    """Hard caps; every stage terminates within these regardless of scripts."""

    stage_turns: int = 60
    analyzer_iterations: int = 10
    reproducer_iterations: int = 6


@dataclass
class _StageLedger:
    """Mutable accounting for one stage run."""

    stage: str
    budgets: Budgets
    clock: Callable[[], float]
    turns_used: int = 0
    usage: Usage = field(default_factory=Usage)
    role_calls: dict[str, int] = field(default_factory=dict)
    role_seconds: dict[str, float] = field(default_factory=dict)
    started: float = 0.0

    def __post_init__(self) -> None:
        self.started = self.clock()

    @property
    def turns_remaining(self) -> int:
        return self.budgets.stage_turns - self.turns_used

    def charge(self, role: str, run: RoleRun, seconds: float) -> None:
        self.turns_used += run.turns_used
        self.usage = self.usage + run.usage
        self.role_calls[role] = self.role_calls.get(role, 0) + 1
        self.role_seconds[role] = self.role_seconds.get(role, 0.0) + seconds

    def close(self, outcome: "SessionOutcome") -> None:
        """Add this stage's turns, usage, role counts and latencies to the
        session outcome."""
        outcome.usage = outcome.usage + self.usage
        outcome.turns[self.stage] = self.turns_used
        outcome.latencies[self.stage] = self.clock() - self.started
        for role, count in self.role_calls.items():
            outcome.iterations[role] = outcome.iterations.get(role, 0) + count
        for role, seconds in self.role_seconds.items():
            key = f"role:{role}"
            outcome.latencies[key] = outcome.latencies.get(key, 0.0) + seconds


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
    poc_reproducer_iterations: int = 0
    poc_rejects: int = 0
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
                "reproducer_iterations": self.poc_reproducer_iterations,
                "rejects": self.poc_rejects,
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
    project: harness.PoCProject,
    iterations: int,
    rejects: int,
) -> str:
    lines = [
        "# Reproduction report",
        "",
        f"- Chain: {definition.chainid}",
        f"- Fork block: {definition.fork_block}",
        f"- Project: `{workspace.FORGE_PROJECT_DIR}/`",
        f"- Run command: `{project.run_command}`",
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


def _run_budgeted_role(
    ledger: _StageLedger,
    backend: ModelBackend,
    role: str,
    session: workspace.Session,
    message: str,
) -> RoleRun:
    if ledger.turns_remaining <= 0:
        raise StageFailed(ledger.stage, "stage turn budget exhausted")
    prompt = build_role_prompt(role, session)
    started = ledger.clock()
    try:
        run = run_role(backend, role, prompt, message, turn_cap=ledger.turns_remaining)
    except TurnBudgetExceeded as exc:
        ledger.turns_used += exc.turns
        raise StageFailed(ledger.stage, str(exc)) from exc
    ledger.charge(role, run, ledger.clock() - started)
    return run


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

    # -- collection ---------------------------------------------------------

    def _collect(
        self,
        session: workspace.Session,
        fetches: SessionMemo,
        requests: list[DataRequest],
        outcome: SessionOutcome,
    ) -> None:
        """Fetch one request batch into the next collection ``iter_k`` and
        record the gateway's summary of it; no model turn is involved.

        Collection runs are numbered densely from the seed's ``iter_0``, so
        this batch's directory is ``iter_<runs so far>``.  Its first write
        creates it once every fetch has returned, so a batch whose fetches
        raise leaves no directory behind.
        """
        iteration = outcome.collection_runs_total
        iter_dir = session.root / workspace.COLLECTION_DIR / f"iter_{iteration}"
        summary = execute_data_requests(session, requests, fetches, iter_dir)
        workspace.write_artifact(
            session,
            iter_dir.relative_to(session.root) / "data_collection_summary.json",
            summary.to_doc(iteration=iteration),
            schema_id="collection_summary",
        )
        outcome.fetched_items += summary.fetched_count
        outcome.collection_runs_total += 1

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
        ledger = _StageLedger(STAGE_ROOT_CAUSE, self.budgets, self.clock)
        opening = "Begin the analysis from the seed evidence."
        if seed_digest:
            opening += "\n\n" + seed_digest
        feedback = ""
        analyzer_iterations = 0
        try:
            while True:
                if analyzer_iterations >= self.budgets.analyzer_iterations:
                    raise StageFailed(
                        STAGE_ROOT_CAUSE,
                        f"analyzer iteration budget ({self.budgets.analyzer_iterations}) exhausted",
                    )
                iter_dir = workspace.next_iteration_dir(
                    session, f"{workspace.ROOT_CAUSE_STAGE_DIR}/{ROLE_ANALYZER}"
                )
                run = _run_budgeted_role(
                    ledger,
                    self.backend,
                    ROLE_ANALYZER,
                    session,
                    message=feedback or opening,
                )
                analyzer_iterations += 1
                analysis: AnalysisResult = run.output
                workspace.write_artifact(
                    session,
                    iter_dir.relative_to(session.root) / "current_analysis_result.json",
                    analysis.doc,
                    schema_id="analysis_result",
                )
                if not analysis.is_final:
                    self._collect(session, fetches, analysis.data_requests, outcome)
                    continue

                draft = dict(analysis.root_cause or {})
                if not draft.get("act", {}).get("is_act", False):
                    self._finalize_root_cause(session, draft)
                    outcome.is_act = False
                    return None

                challenge = self._challenge(session, ledger, draft)
                if challenge.passed:
                    self._finalize_root_cause(session, draft)
                    outcome.is_act = True
                    return draft

                reasons = [
                    RejectReason.parse(r, ROOT_CAUSE_REASONS)
                    for r in challenge.reject_reasons
                ] or [RejectReason(REASON_OTHER, "challenger rejected without reasons")]
                actions = {
                    _ROOT_CAUSE_ROUTES.get(reason.code, ACTION_RE_ANALYZE)
                    for reason in reasons
                }
                outcome.reject_log.append(
                    {
                        "stage": STAGE_ROOT_CAUSE,
                        "reasons": [r.serialize() for r in reasons],
                        "actions": sorted(actions),
                    }
                )
                feedback = challenge.feedback
                if ACTION_EXPAND_LIFECYCLE in actions:
                    self._expand_lifecycle(session, fetches, draft)
                if ACTION_RE_COLLECT in actions:
                    requests = _requests_from_missing_evidence(
                        challenge.missing_evidence, session.seed.chainid
                    )
                    if requests:
                        self._collect(session, fetches, requests, outcome)
        finally:
            ledger.close(outcome)

    def _challenge(
        self, session: workspace.Session, ledger: _StageLedger, draft: dict[str, Any]
    ) -> ChallengeResult:
        run = _run_budgeted_role(
            ledger,
            self.backend,
            ROLE_CHALLENGER,
            session,
            message=json.dumps(draft, indent=2),
        )
        challenge: ChallengeResult = run.output
        workspace.write_artifact(
            session,
            f"{workspace.ROOT_CAUSE_STAGE_DIR}/{ROLE_CHALLENGER}/root_cause_challenge_result.json",
            challenge.doc,
            schema_id="challenge_result",
        )
        return challenge

    def _finalize_root_cause(
        self, session: workspace.Session, draft: dict[str, Any]
    ) -> None:
        workspace.write_artifact(
            session, workspace.ROOT_CAUSE_DOC, draft, schema_id="root_cause"
        )
        workspace.write_text_artifact(
            session,
            workspace.ROOT_CAUSE_REPORT,
            render_root_cause_report(draft, session.seed),
        )

    def _expand_lifecycle(
        self, session: workspace.Session, fetches: SessionMemo, draft: dict[str, Any]
    ) -> None:
        """Re-mine the lifecycle over a doubled window; best effort."""
        roles = draft.get("roles", {})
        try:
            participants = lifecycle.ParticipantSet(
                origin=Address(roles["attacker_eoas"][0]),
                adversary_eoas=frozenset(Address(a) for a in roles["attacker_eoas"]),
                adversary_contracts=frozenset(
                    Address(a) for a in roles.get("attacker_contracts", [])
                ),
                victims=frozenset(Address(a) for a in roles.get("victim_contracts", [])),
                helpers=frozenset(Address(a) for a in roles.get("helpers", [])),
            )
            mined, universe = lifecycle.mine_lifecycle(
                fetches,
                session.seed.chainid,
                session.seed.primary,
                participants,
                window=2 * lifecycle.DEFAULT_WINDOW,
            )
        except Exception as exc:
            logger.info("lifecycle expansion unavailable: %s", exc)
            return
        workspace.write_artifact(
            session,
            f"{workspace.ROOT_CAUSE_STAGE_DIR}/lifecycle_expansion.json",
            {"universe_size": len(universe), **mined.to_doc()},
        )

    # -- PoC stage -----------------------------------------------------------

    def run_poc_stage(
        self,
        session: workspace.Session,
        outcome: SessionOutcome,
        draft: dict[str, Any],
    ) -> None:
        ledger = _StageLedger(STAGE_POC, self.budgets, self.clock)
        try:
            definition = self._generate_oracles(session, ledger, draft)
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
            for _ in range(self.budgets.reproducer_iterations):
                verdict, reasons, project = self._reproduce_once(
                    session, ledger, definition, bound, expected, taint, feedback, outcome
                )
                if not reasons:
                    outcome.poc_validated = True
                    workspace.write_text_artifact(
                        session,
                        workspace.POC_REPORT,
                        render_poc_report(
                            definition,
                            verdict,
                            project,
                            iterations=outcome.poc_reproducer_iterations,
                            rejects=outcome.poc_rejects,
                        ),
                    )
                    return
                outcome.poc_rejects += 1
                outcome.reject_log.append(
                    {
                        "stage": STAGE_POC,
                        "reasons": [r.serialize() for r in reasons],
                        "actions": [ACTION_RE_REPRODUCE],
                    }
                )
                feedback = "; ".join(r.serialize() for r in reasons)
            raise StageFailed(
                STAGE_POC,
                f"reproducer iteration budget ({self.budgets.reproducer_iterations}) exhausted",
            )
        finally:
            ledger.close(outcome)

    def _generate_oracles(
        self,
        session: workspace.Session,
        ledger: _StageLedger,
        draft: dict[str, Any],
    ) -> oracles.OracleDefinition:
        run = _run_budgeted_role(
            ledger,
            self.backend,
            ROLE_ORACLE_GENERATOR,
            session,
            message=json.dumps(draft, indent=2),
        )
        definition = oracles.normalize_definition(run.output.definition())
        workspace.write_artifact(
            session,
            workspace.ORACLE_DEFINITION,
            definition.to_doc(),
            schema_id="oracle_definition",
        )
        return definition

    def _reproduce_once(
        self,
        session: workspace.Session,
        ledger: _StageLedger,
        definition: oracles.OracleDefinition,
        bound: oracles.OracleDefinition,
        expected: list[str],
        taint: dict[str, str],
        feedback: str,
        outcome: SessionOutcome,
    ) -> tuple[
        Optional[oracles.VerdictReport],
        list[RejectReason],
        Optional[harness.PoCProject],
    ]:
        """One reproducer round; no reject reasons means the PoC is validated.
        The verdict is None when nothing ran.

        The engine decides what code can check.  The sources are scanned
        for attacker addresses before the runner is launched: a hit is
        rejected whatever the run would show, so it is never run.  A run
        then gets the oracles and the three correctness checks.  Only a
        reproduction the engine passes goes to the validator turn.
        """
        iter_dir = workspace.next_iteration_dir(session, workspace.REPRODUCER_DIR)
        rel = iter_dir.relative_to(session.root)
        message = json.dumps(definition.to_doc(), indent=2)
        if feedback:
            message += f"\n\nReject codes of the previous attempt: {feedback}"
        run = _run_budgeted_role(ledger, self.backend, ROLE_REPRODUCER, session, message)
        outcome.poc_reproducer_iterations += 1
        files = run.output.files
        workspace.write_artifact(
            session,
            rel / "project_manifest.json",
            {"files": sorted(files), "notes": run.output.notes},
        )
        launch_failed = [RejectReason(REASON_OTHER, "project failed to scaffold or launch")]
        try:
            project = harness.scaffold_project(session, files, definition)
        except harness.ScaffoldError as exc:
            logger.info("scaffold failed: %s", exc)
            workspace.write_artifact(
                session, rel / "harness_error.json", {"error": str(exc), "phase": "scaffold"}
            )
            return None, launch_failed, None

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
            return None, [RejectReason(code) for code in scan_reasons], project

        if self.runner is None:
            raise StageFailed(STAGE_POC, "no project runner configured")
        try:
            result = harness.run_project(project, self.runner, self.rpc_url)
        except harness.HarnessError as exc:
            logger.info("run failed to launch: %s", exc)
            workspace.write_artifact(
                session, rel / "harness_error.json", {"error": str(exc), "phase": "run"}
            )
            return None, launch_failed, project

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
            return verdict, [RejectReason(code) for code in engine_reasons], project

        vrun = _run_budgeted_role(
            ledger,
            self.backend,
            ROLE_VALIDATOR,
            session,
            message=json.dumps(
                {"engine_verdict": engine_doc, "observations": obs_report.observations},
                indent=2,
            ),
        )
        validation: ValidationResult = vrun.output
        workspace.write_artifact(
            session, rel / "poc_validation.json", validation.doc, schema_id="poc_validation"
        )
        workspace.write_artifact(
            session,
            workspace.POC_VALIDATED_RESULT,
            validation.doc,
            schema_id="poc_validation",
        )
        reasons = [RejectReason.parse(r, POC_REASONS) for r in validation.reject_reasons]
        return verdict, [] if validation.passed else reasons, project

    # -- end to end ----------------------------------------------------------

    def run_postmortem(
        self,
        seed: SeedRef,
        base_dir: str,
        attributions: list[str] | None = None,
    ) -> SessionOutcome:
        validate_chain(seed.chainid)
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
            # The seed fetch is collection run zero; the analyzer's batches
            # follow from iter_1 on, so the numbering stays dense.
            iter0 = workspace.next_iteration_dir(session, workspace.COLLECTION_DIR)
            workspace.write_artifact(
                session,
                iter0.relative_to(session.root) / "data_collection_summary.json",
                bootstrap.to_doc(iteration=0),
                schema_id="collection_summary",
            )
            outcome.collection_runs_total = 1

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
