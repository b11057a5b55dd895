"""Independent review of a reproduction project against the paper's checklist.

Each evaluator scores the project once against a nine-item checklist (three
correctness metrics, six quality metrics), giving a result and a reason per
metric.  The verdict on each metric is the majority of the evaluators'
results, with ties breaking to false.  A crashing or ill-typed evaluator
degrades to an all-false report.  Each report is written in the paper's
decision-history format, as a one-entry ``Initial`` history per metric.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, ClassVar, Mapping, Protocol

from . import harness, workspace

logger = logging.getLogger(__name__)


class EvaluatorError(Exception):
    pass


# --------------------------------------------------------------------------
# Checklist metrics.


#: Each checklist metric's key and description, in the paper's order: the
#: three correctness metrics C1-C3, then the six quality metrics Q1-Q6.
METRIC_DESCRIPTIONS: Mapping[str, str] = {
    "compiles_under_foundry": (
        "Does the PoC compile under Foundry (e.g., forge test builds)?"
    ),
    "runs_without_revert_and_satisfies_oracles": (
        "Does the PoC run without reverts and satisfy the intended oracles?"
    ),
    "runs_on_pinned_fork": (
        "Does the PoC run on a pinned on-chain fork (not only local mocks)?"
    ),
    "no_attacker_side_artifacts": (
        "Does the PoC avoid attacker-side artifacts (e.g., attacker-deployed"
        " helper contracts), re-implementing the attack from scratch?"
    ),
    "no_real_attacker_side_address": (
        "Does the PoC avoid using the real attacker-side address, and instead"
        " use clean/deterministic Foundry addresses/roles (e.g., makeAddr)?"
    ),
    "no_attacker_designed_constants": (
        "Does the PoC avoid attacker-specific hard-coded values (e.g.,"
        " calldata, parameters, amounts, crafted constants)?"
    ),
    "has_success_predicate": (
        "Does the PoC assert success predicates (e.g., asset deltas, state"
        " changes, invariant breaks), not only completion?"
    ),
    "has_explanatory_comments": (
        "Does the PoC include comments for non-obvious calls and parameters?"
    ),
    "uses_address_labels": (
        "Does the PoC label key addresses and roles (e.g., Attacker, Victim)?"
    ),
}

METRIC_KEYS: tuple[str, ...] = tuple(METRIC_DESCRIPTIONS)

ACTION_INITIAL = "Initial"
FAILURE_REASON = "evaluation failure"


# --------------------------------------------------------------------------
# Reports and verdicts.


@dataclass(frozen=True)
class EvaluatorReport:
    """One evaluator's ``(result, reason)`` for each of the nine metrics."""

    evaluator_id: str
    results: Mapping[str, tuple[bool, str]]

    def to_doc(self) -> dict[str, Any]:
        """Wire shape: metric key to description plus a one-entry history."""
        return {
            key: {
                "description": METRIC_DESCRIPTIONS[key],
                "evaluation_history": [
                    {
                        "round": 0,
                        "action": ACTION_INITIAL,
                        "result": self.results[key][0],
                        "reason": self.results[key][1],
                    }
                ],
            }
            for key in METRIC_KEYS
        }


@dataclass(frozen=True)
class Verdict:
    """Per-metric majority of the evaluators' results, ties breaking to false."""

    final: dict[str, bool]
    # Read by perfbench/workloads.py: every evaluator agreed on every metric.
    converged: bool
    # Read by perfbench/workloads.py: there is one round of judgment, round 0.
    rounds_used: ClassVar[int] = 0

    def to_doc(self) -> dict[str, Any]:
        return {"final": dict(self.final)}


# --------------------------------------------------------------------------
# Evaluator agents.


class EvaluatorAgent(Protocol):
    """A judgment source; may be model-backed or heuristic."""

    def initial(self, context: Mapping[str, Any]) -> dict[str, tuple[bool, str]]:
        """``(result, reason)`` for each of the nine metric keys."""
        ...


class HeuristicEvaluator:
    """Deterministic evaluator over run evidence and static source scans.

    Correctness comes from the harness checks and the oracle verdict in the
    context; quality comes from heuristic_quality_checks.
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
    needles = set(root_cause.get("incident_constants", []))
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
# Judgment.


def _judge(
    evaluator_id: str, agent: EvaluatorAgent, context: Mapping[str, Any]
) -> EvaluatorReport:
    try:
        stance = dict(agent.initial(context))
        if set(stance) != set(METRIC_KEYS):
            raise EvaluatorError(
                f"stance covers {sorted(stance)} instead of the nine metrics"
            )
        results: dict[str, tuple[bool, str]] = {}
        for key in METRIC_KEYS:
            result, reason = stance[key]
            if not isinstance(reason, str):
                raise EvaluatorError(f"{key}: reason {reason!r} is not a string")
            results[key] = (bool(result), reason)
    except Exception as exc:
        logger.warning("evaluator %s failed: %s", evaluator_id, exc)
        results = {key: (False, FAILURE_REASON) for key in METRIC_KEYS}
    return EvaluatorReport(evaluator_id=evaluator_id, results=results)


def evaluate_project(
    context: Mapping[str, Any],
    agents: Mapping[str, EvaluatorAgent],
) -> tuple[list[EvaluatorReport], Verdict]:
    """Every evaluator judges all nine metrics once, with no shared state.

    The verdict on a metric is the majority of the results, ties breaking to
    false.  The batch always completes with one report per evaluator.
    """
    if not agents:
        raise EvaluatorError("at least one evaluator is required")
    reports = [
        _judge(evaluator_id, agents[evaluator_id], context)
        for evaluator_id in sorted(agents)
    ]
    votes = {
        key: [report.results[key][0] for report in reports] for key in METRIC_KEYS
    }
    return reports, Verdict(
        final={key: v.count(True) > v.count(False) for key, v in votes.items()},
        converged=all(len(set(v)) == 1 for v in votes.values()),
    )


def default_agents(n: int = 1) -> dict[str, EvaluatorAgent]:
    """``n`` heuristic evaluators.

    The heuristic is deterministic, so its copies always agree and one is
    enough.
    """
    if n < 1:
        raise EvaluatorError("evaluator count must be at least 1")
    return {f"evaluator_{i}": HeuristicEvaluator() for i in range(n)}


# --------------------------------------------------------------------------
# Persistence.


def write_reports(
    session: workspace.Session,
    reports: list[EvaluatorReport],
    verdict: Verdict,
) -> list[str]:
    """Persist per-evaluator result files and the verdict."""
    written = []
    for report in reports:
        rel = f"{workspace.EVALUATION_DIR}/{report.evaluator_id}_evaluation_result.json"
        workspace.write_artifact(
            session, rel, report.to_doc(), schema_id="evaluation_result"
        )
        written.append(rel)
    rel = f"{workspace.EVALUATION_DIR}/consensus_report.json"
    workspace.write_artifact(session, rel, verdict.to_doc())
    written.append(rel)
    return written
