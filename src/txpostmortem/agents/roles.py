"""Specialist roles: prompts, output contracts, and the run loop.

Each role is a structured-I/O function: it receives an instruction prompt
filled in with the session's coordinates, is sent each context document once
as the user message, speaks through a ModelBackend, and must produce a
document that meets its output contract.  Malformed output is echoed back
with the contract's errors for another attempt; every attempt consumes one
turn from the caller's budget.

``run_role`` is where a reply becomes a document: it takes the document a
backend hands over as data, or else parses the reply text once with
``extract_json_document``.  ``_CONTRACTS`` holds each role's contract, its
schema in ``workspace.SCHEMAS`` plus its cross-field rule, and is the only
check of a role's document.  ``run_role`` returns the checked document; the
oracle generator's rule checks it with ``oracles.normalize_definition`` and
hands back that function's copy, which only fills in default tolerances.
The orchestrator reads the fields the schema guarantees and writes the
document without checking it again.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from importlib import resources
from string import Template
from typing import Any, Callable, Optional

from .. import oracles, workspace
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


@functools.cache
def load_template(role: str) -> str:
    """The instruction template of ``role``, read once per process: the
    package's templates never change while it runs."""
    if role not in ROLES:
        raise UnknownRole(role)
    return (
        resources.files("txpostmortem")
        .joinpath(f"templates/{role}.txt")
        .read_text(encoding="utf-8")
    )


def build_role_prompt(role: str, session: workspace.Session) -> str:
    """Fill a role's instruction template with the session's seed.

    The templates keep every placeholder in their closing block, so the
    instructions before it are the same for every session.  A placeholder
    the session cannot fill raises ``KeyError``.
    """
    return Template(load_template(role)).substitute(
        chainid=session.seed.chainid,
        seed_txs=", ".join(t.value for t in session.seed.txs),
    )


# --------------------------------------------------------------------------
# Output contracts.

#: A contract's answer: the checked document, or None and the errors.
_Checked = tuple[Optional[dict[str, Any]], list[str]]


def _evidence_closure(doc: dict[str, Any]) -> _Checked:
    """A final analysis carries the root-cause document for the challenger
    to attack."""
    if doc["data_requests"]:
        return doc, []
    root_cause = doc.get("root_cause")
    if root_cause is None:
        return None, ["root_cause: required when data_requests is empty"]
    errors = workspace.check_document(root_cause, workspace.SCHEMAS["root_cause"])
    return (None, errors) if errors else (doc, [])


def _pass_has_no_missing_evidence(doc: dict[str, Any]) -> _Checked:
    if doc["status"] == "Pass" and doc["missing_evidence"]:
        return None, ["missing_evidence: must be empty when status is Pass"]
    return doc, []


def _normalized_definition(doc: dict[str, Any]) -> _Checked:
    """The definition's semantic checks, run as it is normalized."""
    try:
        return oracles.normalize_definition(doc), []
    except oracles.InvalidDefinition as exc:
        return None, exc.errors


def _at_least_one_file(doc: dict[str, Any]) -> _Checked:
    if not doc["files"]:
        return None, ["files: at least one project file required"]
    return doc, []


def _reject_has_reasons(doc: dict[str, Any]) -> _Checked:
    if doc["overall_status"] == "Reject" and not doc.get("reject_reasons"):
        return None, ["reject_reasons: required when overall_status is Reject"]
    return doc, []


#: Each role's contract: the ``workspace.SCHEMAS`` id its document must
#: meet, then the cross-field rule that a schema-valid document must pass.
#: A rule returns the checked document or the errors that reject it.
_CONTRACTS: dict[str, tuple[str, Callable[[dict[str, Any]], _Checked]]] = {
    ROLE_ANALYZER: ("analysis_result", _evidence_closure),
    ROLE_CHALLENGER: ("challenge_result", _pass_has_no_missing_evidence),
    ROLE_ORACLE_GENERATOR: ("oracle_definition", _normalized_definition),
    ROLE_REPRODUCER: ("reproducer_result", _at_least_one_file),
    ROLE_VALIDATOR: ("poc_validation", _reject_has_reasons),
}


def validate_role_output(role: str, doc: Any) -> _Checked:
    """Check a role's document against its contract; returns (accepted
    output, errors), with output None whenever there are errors."""
    try:
        schema_id, rule = _CONTRACTS[role]
    except KeyError:
        raise UnknownRole(role) from None
    errors = workspace.check_document(doc, workspace.SCHEMAS[schema_id])
    return (None, errors) if errors else rule(doc)


@dataclass
class RoleRun:
    """Outcome of one role invocation: the accepted document plus accounting."""

    output: dict[str, Any]
    turns_used: int
    usage: Usage


def run_role(
    backend: ModelBackend,
    role: str,
    prompt: str,
    message: str,
    turn_cap: int,
) -> RoleRun:
    """Drive one role until its contract accepts a document or turns run out.

    Returns the accepted document.  Each reply is parsed at most once, here,
    when the backend handed over no document.  Every backend step consumes
    one turn.  Invalid documents are retried
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
