"""Independent N-evaluator review of a reproduction project.

Each evaluator scores the project against a nine-item checklist (three
correctness metrics, six quality metrics) and records a decision history.
Disagreements are negotiated round by round: evaluators see peer positions
for conflicted metrics only and either maintain or change their judgment.
Consensus is majority vote with ties breaking to false.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Protocol

from . import harness, workspace

logger = logging.getLogger(__name__)


class EvaluatorError(Exception):
    pass


class ProtocolViolation(EvaluatorError):
    """An evaluator touched a metric outside the negotiated conflict set."""


class MalformedHistory(EvaluatorError):
    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


# --------------------------------------------------------------------------
# Checklist metrics.


@dataclass(frozen=True)
class ChecklistMetric:
    metric_id: str
    key: str
    description: str
    correctness: bool


METRICS: tuple[ChecklistMetric, ...] = (
    ChecklistMetric(
        "C1",
        "compiles_under_foundry",
        "Does the PoC compile under Foundry (e.g., forge test builds)?",
        True,
    ),
    ChecklistMetric(
        "C2",
        "runs_without_revert_and_satisfies_oracles",
        "Does the PoC run without reverts and satisfy the intended oracles?",
        True,
    ),
    ChecklistMetric(
        "C3",
        "runs_on_pinned_fork",
        "Does the PoC run on a pinned on-chain fork (not only local mocks)?",
        True,
    ),
    ChecklistMetric(
        "Q1",
        "no_attacker_side_artifacts",
        "Does the PoC avoid attacker-side artifacts (e.g., attacker-deployed"
        " helper contracts), re-implementing the attack from scratch?",
        False,
    ),
    ChecklistMetric(
        "Q2",
        "no_real_attacker_side_address",
        "Does the PoC avoid using the real attacker-side address, and instead"
        ' use clean/deterministic Foundry addresses/roles (e.g., makeAddr)?',
        False,
    ),
    ChecklistMetric(
        "Q3",
        "no_attacker_designed_constants",
        "Does the PoC avoid attacker-specific hard-coded values (e.g.,"
        " calldata, parameters, amounts, crafted constants)?",
        False,
    ),
    ChecklistMetric(
        "Q4",
        "has_success_predicate",
        "Does the PoC assert success predicates (e.g., asset deltas, state"
        " changes, invariant breaks), not only completion?",
        False,
    ),
    ChecklistMetric(
        "Q5",
        "has_explanatory_comments",
        "Does the PoC include comments for non-obvious calls and parameters?",
        False,
    ),
    ChecklistMetric(
        "Q6",
        "uses_address_labels",
        "Does the PoC label key addresses and roles (e.g., Attacker, Victim)?",
        False,
    ),
)

METRIC_KEYS: tuple[str, ...] = tuple(m.key for m in METRICS)
METRIC_BY_KEY: Mapping[str, ChecklistMetric] = {m.key: m for m in METRICS}

ACTION_INITIAL = "Initial"
ACTION_MAINTAIN = "Maintain"
ACTION_CHANGE = "Change"

FAILURE_REASON = "evaluation failure"
DEFAULT_MAX_ROUNDS = 5


# --------------------------------------------------------------------------
# Decision histories.


@dataclass(frozen=True)
class EvaluationEntry:
    round: int
    action: str
    result: bool
    reason: str

    def to_doc(self) -> dict[str, Any]:
        return {
            "round": self.round,
            "action": self.action,
            "result": self.result,
            "reason": self.reason,
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "EvaluationEntry":
        return cls(
            round=doc["round"],
            action=doc["action"],
            result=doc["result"],
            reason=doc["reason"],
        )


def validate_history(entries: list[EvaluationEntry]) -> list[str]:
    """Check one metric's decision history against the entry invariants."""
    errors: list[str] = []
    if not entries:
        return ["history is empty"]
    first = entries[0]
    if first.round != 0:
        errors.append(f"first entry has round {first.round}, expected 0")
    if first.action != ACTION_INITIAL:
        errors.append(f"round 0 action is {first.action!r}, expected Initial")
    for prev, entry in zip(entries, entries[1:]):
        if entry.round != prev.round + 1:
            errors.append(
                f"round {entry.round} follows round {prev.round}; rounds must be contiguous"
            )
        if entry.action == ACTION_INITIAL:
            errors.append(f"round {entry.round}: Initial only allowed at round 0")
        elif entry.action not in (ACTION_MAINTAIN, ACTION_CHANGE):
            errors.append(f"round {entry.round}: unknown action {entry.action!r}")
        flipped = entry.result != prev.result
        if entry.action == ACTION_CHANGE and not flipped:
            errors.append(f"round {entry.round}: Change without a result flip")
        if entry.action == ACTION_MAINTAIN and flipped:
            errors.append(f"round {entry.round}: Maintain with a result flip")
    return errors


@dataclass
class EvaluatorReport:
    """One evaluator's per-metric decision histories plus run evidence refs."""

    evaluator_id: str
    histories: dict[str, list[EvaluationEntry]] = field(default_factory=dict)
    evidence: dict[str, Any] = field(default_factory=dict)

    def latest(self, key: str) -> EvaluationEntry:
        return self.histories[key][-1]

    def append(self, key: str, entry: EvaluationEntry) -> None:
        self.histories.setdefault(key, []).append(entry)

    def validate(self) -> list[str]:
        errors: list[str] = []
        for key in METRIC_KEYS:
            if key not in self.histories:
                errors.append(f"{key}: missing history")
                continue
            errors.extend(f"{key}: {e}" for e in validate_history(self.histories[key]))
        for key in self.histories:
            if key not in METRIC_BY_KEY:
                errors.append(f"{key}: not a checklist metric")
        return errors

    def to_doc(self) -> dict[str, Any]:
        """Wire shape: metric key to description plus decision history."""
        return {
            key: {
                "description": METRIC_BY_KEY[key].description,
                "evaluation_history": [e.to_doc() for e in self.histories[key]],
            }
            for key in METRIC_KEYS
            if key in self.histories
        }

    @classmethod
    def from_doc(cls, evaluator_id: str, doc: Mapping[str, Any]) -> "EvaluatorReport":
        report = cls(evaluator_id=evaluator_id)
        for key, body in doc.items():
            report.histories[key] = [
                EvaluationEntry.from_doc(e) for e in body["evaluation_history"]
            ]
        return report


@dataclass(frozen=True)
class ConsensusReport:
    final: dict[str, bool]
    rounds_used: int
    negotiation_log: list[dict[str, Any]]
    converged: bool

    def to_doc(self) -> dict[str, Any]:
        return {
            "final": dict(self.final),
            "rounds_used": self.rounds_used,
            "negotiation_log": list(self.negotiation_log),
            "converged": self.converged,
        }


# --------------------------------------------------------------------------
# Evaluator agents.


class EvaluatorAgent(Protocol):
    """A judgment source; may be model-backed, scripted, or heuristic."""

    def initial(self, context: Mapping[str, Any]) -> dict[str, tuple[bool, str]]:
        """Round-0 stance over all nine metric keys."""
        ...

    def negotiate(
        self,
        round_k: int,
        conflicts: frozenset[str],
        own: Mapping[str, tuple[bool, str]],
        peers: Mapping[str, list[dict[str, Any]]],
    ) -> dict[str, tuple[bool, str]]:
        """Updated stance for conflicted metrics; omitted keys maintain."""
        ...


class ScriptedEvaluatorAgent:
    """Plays back a fixed initial stance and per-round negotiation moves."""

    def __init__(
        self,
        initial_stance: Mapping[str, tuple[bool, str]],
        moves: list[Mapping[str, tuple[bool, str]]] | None = None,
    ):
        self._initial = dict(initial_stance)
        self._moves = [dict(m) for m in (moves or [])]
        self._cursor = 0

    def initial(self, context: Mapping[str, Any]) -> dict[str, tuple[bool, str]]:
        return dict(self._initial)

    def negotiate(
        self,
        round_k: int,
        conflicts: frozenset[str],
        own: Mapping[str, tuple[bool, str]],
        peers: Mapping[str, list[dict[str, Any]]],
    ) -> dict[str, tuple[bool, str]]:
        if self._cursor >= len(self._moves):
            return {}
        move = self._moves[self._cursor]
        self._cursor += 1
        return dict(move)


class HeuristicEvaluator:
    """Deterministic evaluator over run evidence and static source scans.

    Correctness comes from the harness checks and the oracle verdict in the
    context; quality comes from heuristic_quality_checks.  Negotiation always
    maintains: the heuristics are deterministic, so so is the stance.
    """

    def initial(self, context: Mapping[str, Any]) -> dict[str, tuple[bool, str]]:
        checks = context.get("correctness", {})
        oracle_pass = bool(context.get("oracle_pass", False))
        stance: dict[str, tuple[bool, str]] = {
            "compiles_under_foundry": (
                bool(checks.get("compiles", False)),
                "forge build outcome from the recorded run",
            ),
            "runs_without_revert_and_satisfies_oracles": (
                bool(checks.get("runs_clean", False)) and oracle_pass,
                "test run status combined with the oracle verdict",
            ),
            "runs_on_pinned_fork": (
                bool(checks.get("pinned_fork", False)),
                "fork pinning detected in the project sources",
            ),
        }
        quality = heuristic_quality_checks(
            Path(context["project_root"]), context.get("root_cause", {})
        )
        for key, (result, reason) in quality.items():
            stance[key] = (result, reason)
        return stance

    def negotiate(
        self,
        round_k: int,
        conflicts: frozenset[str],
        own: Mapping[str, tuple[bool, str]],
        peers: Mapping[str, list[dict[str, Any]]],
    ) -> dict[str, tuple[bool, str]]:
        return {}


# --------------------------------------------------------------------------
# Static quality detectors.

_ASSERT_RE = re.compile(r"\b(assert\w*|require)\s*\(")
_LABEL_RE = re.compile(r"\b(vm\.label|makeAddr|vm\.addr)\s*\(")
_COMMENT_RE = re.compile(r"(^\s*//|/\*|^\s*\*)")
_EXTERNAL_CALL_RE = re.compile(r"\.\w+\s*\(")


def _spans(hits: list[tuple[str, str, int]]) -> str:
    return ", ".join(f"{rel}:{lineno}" for rel, _, lineno in hits[:5])


def heuristic_quality_checks(
    project_root: Path, root_cause: Mapping[str, Any]
) -> dict[str, tuple[bool, str]]:
    """Deterministic Q1 to Q6 suggestions with evidence spans in the reasons."""
    sources = harness.solidity_sources(project_root)
    roles = root_cause.get("roles", {})
    attacker_contracts = set(roles.get("attacker_contracts", []))
    attacker_all = attacker_contracts | set(roles.get("attacker_eoas", []))

    results: dict[str, tuple[bool, str]] = {}

    contract_hits = harness.scan_for_addresses(sources, attacker_contracts)
    results["no_attacker_side_artifacts"] = (
        not contract_hits,
        "no attacker-deployed contract is referenced"
        if not contract_hits
        else f"attacker contract referenced at {_spans(contract_hits)}",
    )

    address_hits = harness.scan_for_addresses(sources, attacker_all)
    results["no_real_attacker_side_address"] = (
        not address_hits,
        "no attacker-side address appears in the sources"
        if not address_hits
        else f"attacker address at {_spans(address_hits)}",
    )

    # Incident constants: literals recorded during analysis (calldata blobs,
    # raw amounts) plus the incident transaction hashes themselves.
    needles = {str(c) for c in root_cause.get("incident_constants", [])}
    needles.update(entry.get("txhash", "") for entry in root_cause.get("lifecycle", []))
    constant_hits = harness.scan_for_addresses(sources, needles)
    results["no_attacker_designed_constants"] = (
        not constant_hits,
        "no incident-specific constant is hard-coded"
        if not constant_hits
        else f"incident constant at {_spans(constant_hits)}",
    )

    assert_hits = [
        (rel, "assert", i)
        for rel, text in sources
        for i, line in enumerate(text.splitlines(), start=1)
        if _ASSERT_RE.search(line)
    ]
    results["has_success_predicate"] = (
        bool(assert_hits),
        f"assertions at {_spans(assert_hits)}"
        if assert_hits
        else "no assertion statements found",
    )

    comment_lines = 0
    call_lines = 0
    for _, text in sources:
        for line in text.splitlines():
            if _COMMENT_RE.search(line):
                comment_lines += 1
            elif _EXTERNAL_CALL_RE.search(line):
                call_lines += 1
    commented_enough = comment_lines >= max(2, call_lines // 5)
    results["has_explanatory_comments"] = (
        commented_enough,
        f"{comment_lines} comment line(s) against {call_lines} call line(s)",
    )

    label_hits = [
        (rel, "label", i)
        for rel, text in sources
        for i, line in enumerate(text.splitlines(), start=1)
        if _LABEL_RE.search(line)
    ]
    results["uses_address_labels"] = (
        bool(label_hits),
        f"address labels at {_spans(label_hits)}"
        if label_hits
        else "no vm.label or makeAddr usage found",
    )
    return results


# --------------------------------------------------------------------------
# Protocol driver.


def _all_false_report(evaluator_id: str) -> EvaluatorReport:
    report = EvaluatorReport(evaluator_id=evaluator_id)
    for key in METRIC_KEYS:
        report.append(key, EvaluationEntry(0, ACTION_INITIAL, False, FAILURE_REASON))
    return report


def run_independent_round(
    agents: Mapping[str, EvaluatorAgent], context: Mapping[str, Any]
) -> list[EvaluatorReport]:
    """Round 0: every evaluator judges all nine metrics with no shared state.

    A crashing or ill-typed evaluator degrades to an all-false report; the
    batch always completes with one report per evaluator.
    """
    if not agents:
        raise EvaluatorError("at least one evaluator is required")
    reports = []
    for evaluator_id in sorted(agents):
        agent = agents[evaluator_id]
        try:
            stance = dict(agent.initial(context))
            if set(stance) != set(METRIC_KEYS):
                raise EvaluatorError(
                    f"stance covers {sorted(stance)} instead of the nine metrics"
                )
        except Exception as exc:
            logger.warning("evaluator %s failed round 0: %s", evaluator_id, exc)
            reports.append(_all_false_report(evaluator_id))
            continue
        report = EvaluatorReport(evaluator_id=evaluator_id)
        for key in METRIC_KEYS:
            result, reason = stance[key]
            report.append(key, EvaluationEntry(0, ACTION_INITIAL, bool(result), reason))
        reports.append(report)
    return reports


def find_conflicts(reports: list[EvaluatorReport]) -> frozenset[str]:
    """Metrics whose latest results are not unanimous across evaluators."""
    if not reports:
        return frozenset()
    keys = set(reports[0].histories)
    for report in reports[1:]:
        if set(report.histories) != keys:
            raise ProtocolViolation("reports cover different metric sets")
    return frozenset(
        key
        for key in keys
        if len({report.latest(key).result for report in reports}) > 1
    )


def negotiate_round(
    reports: list[EvaluatorReport],
    agents: Mapping[str, EvaluatorAgent],
    conflicts: frozenset[str],
    round_k: int,
) -> None:
    """Collect one Maintain/Change entry per evaluator per conflicted metric.

    Peer positions are the latest entries as of the round start; the round is
    a synchronization barrier, so moves within it do not see each other.
    """
    if round_k < 1:
        raise EvaluatorError("negotiation rounds start at 1")
    if not conflicts:
        raise EvaluatorError("negotiate_round requires a non-empty conflict set")
    snapshot = {
        report.evaluator_id: {
            key: report.latest(key) for key in sorted(conflicts)
        }
        for report in reports
    }
    for report in reports:
        agent = agents[report.evaluator_id]
        own = {
            key: (entry.result, entry.reason)
            for key, entry in snapshot[report.evaluator_id].items()
        }
        peers = {
            key: [
                {
                    "evaluator_id": other_id,
                    "result": entries[key].result,
                    "reason": entries[key].reason,
                }
                for other_id, entries in sorted(snapshot.items())
                if other_id != report.evaluator_id
            ]
            for key in sorted(conflicts)
        }
        try:
            stance = dict(agent.negotiate(round_k, conflicts, own, peers))
        except Exception as exc:
            logger.warning(
                "evaluator %s failed negotiation round %d: %s",
                report.evaluator_id,
                round_k,
                exc,
            )
            stance = {}
        extra = set(stance) - set(conflicts)
        if extra:
            raise ProtocolViolation(
                f"evaluator {report.evaluator_id} touched non-conflicted "
                f"metric(s) {sorted(extra)} in round {round_k}"
            )
        for key in sorted(conflicts):
            previous = report.latest(key)
            if key in stance:
                result, reason = stance[key]
                result = bool(result)
            else:
                result, reason = previous.result, "maintained"
            action = ACTION_CHANGE if result != previous.result else ACTION_MAINTAIN
            report.append(key, EvaluationEntry(round_k, action, result, reason))


def consensus_from_reports(
    reports: list[EvaluatorReport],
    rounds_used: int,
    negotiation_log: list[dict[str, Any]],
    converged: bool,
) -> ConsensusReport:
    """Pure arbitration: majority of latest results, ties break to false."""
    final: dict[str, bool] = {}
    for key in METRIC_KEYS:
        votes = [report.latest(key).result for report in reports]
        yes, no = votes.count(True), votes.count(False)
        final[key] = yes > no
    return ConsensusReport(
        final=final,
        rounds_used=rounds_used,
        negotiation_log=negotiation_log,
        converged=converged,
    )


def aggregate_consensus(
    reports: list[EvaluatorReport],
    agents: Mapping[str, EvaluatorAgent],
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> ConsensusReport:
    """Negotiate conflicts to convergence or the round bound, then arbitrate."""
    negotiation_log: list[dict[str, Any]] = []
    rounds_used = 0
    conflicts = find_conflicts(reports)
    while conflicts and rounds_used < max_rounds:
        rounds_used += 1
        negotiation_log.append(
            {"round": rounds_used, "conflicts": sorted(conflicts)}
        )
        negotiate_round(reports, agents, conflicts, rounds_used)
        conflicts = find_conflicts(reports)
    return consensus_from_reports(
        reports, rounds_used, negotiation_log, converged=not conflicts
    )


def evaluate_project(
    context: Mapping[str, Any],
    agents: Mapping[str, EvaluatorAgent],
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> tuple[list[EvaluatorReport], ConsensusReport]:
    """Full protocol: independent round 0, negotiation, consensus."""
    reports = run_independent_round(agents, context)
    consensus = aggregate_consensus(reports, agents, max_rounds)
    return reports, consensus


def default_agents(n: int = 1) -> dict[str, EvaluatorAgent]:
    """A panel of ``n`` heuristic evaluators.

    The heuristic is deterministic, so its copies always agree and one is
    enough; negotiation only matters for panels that mix in other agents.
    """
    if n < 1:
        raise EvaluatorError("evaluator count must be at least 1")
    return {f"evaluator_{i}": HeuristicEvaluator() for i in range(n)}


# --------------------------------------------------------------------------
# Persistence.


def write_reports(
    session: workspace.Session,
    reports: list[EvaluatorReport],
    consensus: ConsensusReport,
) -> list[str]:
    """Persist per-evaluator result files and the consolidated report."""
    written = []
    for report in reports:
        errors = report.validate()
        if errors:
            raise MalformedHistory(errors)
        rel = f"{workspace.EVALUATION_DIR}/{report.evaluator_id}_evaluation_result.json"
        workspace.write_artifact(
            session, rel, report.to_doc(), schema_id="evaluation_result"
        )
        written.append(rel)
    consolidated = consensus.to_doc()
    consolidated["evaluators"] = [r.evaluator_id for r in reports]
    consolidated["votes"] = {
        key: {r.evaluator_id: r.latest(key).result for r in reports}
        for key in METRIC_KEYS
        if all(key in r.histories for r in reports)
    }
    rel = f"{workspace.EVALUATION_DIR}/consensus_report.json"
    workspace.write_artifact(session, rel, consolidated)
    written.append(rel)
    return written
