"""Specialist roles: prompts, output contracts, and the run loop.

Each role is a structured-I/O function: it receives an instruction prompt
filled in with the session's coordinates, is sent each context document once
as the user message, speaks through a ModelBackend, and must produce a
document that validates against its output contract.  Malformed output is
echoed back with the validation errors for another attempt; every attempt
consumes one turn from the caller's budget.

The contract is the only check of a role's document: its schema in
``workspace.SCHEMAS`` plus the role's cross-field rules, and for the oracle
generator the normalized definition's semantic checks.  The orchestrator
writes what the contract accepted without checking it again.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from importlib import resources
from string import Template
from typing import Any, Optional

from .. import oracles, workspace
from ..gateway.types import DataRequest
from .backend import ModelBackend, Usage, extract_json_document

logger = logging.getLogger(__name__)

ROLE_ANALYZER = "root_cause_analyzer"
ROLE_CHALLENGER = "root_cause_challenger"
ROLE_ORACLE_GENERATOR = "oracle_generator"
ROLE_REPRODUCER = "poc_reproducer"
ROLE_VALIDATOR = "poc_validator"

ROLES = (
    ROLE_ANALYZER,
    ROLE_CHALLENGER,
    ROLE_ORACLE_GENERATOR,
    ROLE_REPRODUCER,
    ROLE_VALIDATOR,
)


class AgentError(Exception):
    pass


class UnknownRole(AgentError):
    pass


class TurnBudgetExceeded(AgentError):
    """A role spent ``turns`` turns, and ``usage`` tokens, without a valid
    document."""

    def __init__(
        self, role: str, turns: int, errors: list[str] | None = None, usage: Usage = Usage()
    ):
        self.role = role
        self.turns = turns
        self.errors = list(errors or [])
        self.usage = usage
        detail = f" (last errors: {'; '.join(self.errors)})" if self.errors else ""
        super().__init__(f"{role} exhausted {turns} turn(s) without valid output{detail}")


def load_template(role: str) -> str:
    if role not in ROLES:
        raise UnknownRole(role)
    return (
        resources.files("txpostmortem")
        .joinpath(f"templates/{role}.txt")
        .read_text(encoding="utf-8")
    )


def build_role_prompt(role: str, session: workspace.Session) -> str:
    """Fill a role's instruction template with the session's coordinates.

    The templates keep every placeholder in their closing workspace block,
    so the instructions before it are the same for every session.  A
    placeholder the session cannot fill raises ``KeyError``.
    """
    return Template(load_template(role)).substitute(
        session_dir=session.root,
        chainid=session.seed.chainid,
        seed_txs=", ".join(t.value for t in session.seed.txs),
    )


# --------------------------------------------------------------------------
# Typed role outputs.


@dataclass(frozen=True)
class AnalysisResult:
    doc: dict[str, Any]

    @property
    def summary(self) -> str:
        return self.doc["summary"]

    @property
    def data_requests(self) -> list[DataRequest]:
        return [DataRequest.from_doc(d) for d in self.doc["data_requests"]]

    @property
    def is_final(self) -> bool:
        return not self.doc["data_requests"]

    @property
    def root_cause(self) -> Optional[dict[str, Any]]:
        return self.doc.get("root_cause")


@dataclass(frozen=True)
class ChallengeResult:
    doc: dict[str, Any]

    @property
    def passed(self) -> bool:
        return self.doc["status"] == "Pass"

    @property
    def feedback(self) -> str:
        return self.doc["feedback"]

    @property
    def missing_evidence(self) -> list[str]:
        return list(self.doc["missing_evidence"])

    @property
    def reject_reasons(self) -> list[str]:
        return list(self.doc.get("reject_reasons", []))


@dataclass(frozen=True)
class OracleGenerationResult:
    """The generator's definition, normalized and validated."""

    definition: oracles.OracleDefinition


@dataclass(frozen=True)
class ReproducerResult:
    doc: dict[str, Any]

    @property
    def files(self) -> dict[str, str]:
        return dict(self.doc["files"])

    @property
    def notes(self) -> str:
        return self.doc.get("notes", "")


@dataclass(frozen=True)
class ValidationResult:
    doc: dict[str, Any]

    @property
    def passed(self) -> bool:
        return self.doc["overall_status"] == "Pass"

    @property
    def reject_reasons(self) -> list[str]:
        return list(self.doc.get("reject_reasons", []))


def validate_role_output(role: str, doc: Any) -> tuple[Optional[Any], list[str]]:
    """Validate a role's document; returns (typed output, error list).

    Structural checks come from the workspace schemas; role-specific
    cross-field rules are enforced here.  The oracle generator's document
    is parsed and normalized once, and the normalized definition is
    validated once.
    """
    if role == ROLE_ANALYZER:
        errors = workspace.check_document(doc, workspace.SCHEMAS["analysis_result"])
        if not errors and not doc["data_requests"]:
            # Evidence closure: the final analysis must carry the root-cause
            # document for the challenger to attack.
            root_cause = doc.get("root_cause")
            if root_cause is None:
                errors.append("root_cause: required when data_requests is empty")
            else:
                errors.extend(
                    workspace.check_document(root_cause, workspace.SCHEMAS["root_cause"])
                )
        return (AnalysisResult(doc), errors) if not errors else (None, errors)
    if role == ROLE_CHALLENGER:
        errors = workspace.check_document(doc, workspace.SCHEMAS["challenge_result"])
        if not errors and doc["status"] == "Pass" and doc["missing_evidence"]:
            errors.append("missing_evidence: must be empty when status is Pass")
        return (ChallengeResult(doc), errors) if not errors else (None, errors)
    if role == ROLE_ORACLE_GENERATOR:
        errors = workspace.check_document(doc, workspace.SCHEMAS["oracle_definition"])
        if errors:
            return None, errors
        try:
            definition = oracles.normalize_definition(oracles.OracleDefinition.from_doc(doc))
        except oracles.InvalidDefinition as exc:
            return None, exc.errors
        except Exception as exc:
            return None, [f"definition: {exc}"]
        return OracleGenerationResult(definition), []
    if role == ROLE_REPRODUCER:
        errors = workspace.check_document(doc, workspace.SCHEMAS["reproducer_result"])
        if not errors and not doc["files"]:
            errors.append("files: at least one project file required")
        return (ReproducerResult(doc), errors) if not errors else (None, errors)
    if role == ROLE_VALIDATOR:
        errors = workspace.check_document(doc, workspace.SCHEMAS["poc_validation"])
        if not errors and doc["overall_status"] == "Reject" and not doc.get("reject_reasons"):
            errors.append("reject_reasons: required when overall_status is Reject")
        return (ValidationResult(doc), errors) if not errors else (None, errors)
    raise UnknownRole(role)


@dataclass
class RoleRun:
    """Outcome of one role invocation: parsed output plus accounting."""

    output: Any
    turns_used: int
    usage: Usage


def run_role(
    backend: ModelBackend,
    role: str,
    prompt: str,
    message: str,
    turn_cap: int,
) -> RoleRun:
    """Drive one role until it yields a valid document or exhausts turns.

    Every backend step consumes one turn.  Invalid documents are retried
    with the validation errors echoed back; the retry costs a turn too.
    Running out of turns raises ``TurnBudgetExceeded`` with what they cost.
    """
    if turn_cap < 1:
        raise TurnBudgetExceeded(role, 0)
    conversation = backend.open_conversation(role, prompt)
    usage = Usage()
    errors: list[str] = []
    next_message = message
    for turn in range(1, turn_cap + 1):
        result = backend.step(conversation, next_message)
        usage = usage + result.usage
        doc = result.structured_output
        if doc is None:
            doc = extract_json_document(result.text)
        if doc is None:
            errors = ["no structured output found in response"]
        else:
            output, errors = validate_role_output(role, doc)
            if not errors:
                return RoleRun(output=output, turns_used=turn, usage=usage)
        logger.info("%s output invalid on turn %d: %s", role, turn, errors)
        next_message = (
            "The previous document failed validation. Fix these problems and "
            "resend the full corrected JSON document:\n- " + "\n- ".join(errors)
        )
    raise TurnBudgetExceeded(role, turn_cap, errors, usage)
