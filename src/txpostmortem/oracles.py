"""Semantic success oracles for exploit reproductions.

An oracle definition pins a fork block and declares, over named runtime
observations, the hard constraints that must hold exactly and the soft
constraints that must hold within a recorded tolerance.  Role variables
(attacker, helpers) carry no addresses in the definition; they are bound to
fresh deterministic test addresses at evaluation time so a reproduction can
never satisfy its oracles by replaying attacker-controlled identities.
"""

from __future__ import annotations

import hashlib
import logging
import re
from dataclasses import dataclass, replace
from typing import Any, Mapping, Optional, Sequence, Union

from .domain import Address, validate_chain

logger = logging.getLogger(__name__)

COMPARATORS = ("eq", "gt", "lt", "ge", "le", "within_tolerance")
VARIABLE_KINDS = ("victim_contract", "asset", "attacker_role", "helper_role")
ROLE_KINDS = ("attacker_role", "helper_role")

#: Default soft tolerance: 10% of the expected magnitude, in basis points.
DEFAULT_TOLERANCE_BPS = 1000

_IDENTIFIER = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_INT_LITERAL = re.compile(r"^-?\d+$")
_ADDRESS_LITERAL = re.compile(r"^0x[0-9a-fA-F]{40}$")

ObsValue = Union[int, bool, str]


class OracleError(Exception):
    pass


class InvalidDefinition(OracleError):
    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class UnboundRole(OracleError):
    pass


class TaintedBinding(OracleError):
    """A role variable was bound to a deny-listed (attacker-side) address."""


def fresh_role_address(name: str) -> Address:
    """Deterministic test address for a role variable, derived from its name."""
    digest = hashlib.sha256(f"txpostmortem/fresh-role:{name}".encode()).digest()
    return Address("0x" + digest[:20].hex())


@dataclass(frozen=True)
class Comparison:
    lhs: str
    comparator: str
    rhs: str

    def to_doc(self) -> dict:
        return {"lhs": self.lhs, "comparator": self.comparator, "rhs": self.rhs}

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "Comparison":
        return cls(lhs=doc["lhs"], comparator=doc["comparator"], rhs=doc["rhs"])


@dataclass(frozen=True)
class Tolerance:
    kind: str  # "relative_bps" | "absolute"
    value: int
    rationale: str = ""

    def slack_for(self, expected: int) -> int:
        if self.kind == "absolute":
            return self.value
        return abs(expected) * self.value // 10000

    def to_doc(self) -> dict:
        doc = {"kind": self.kind, "value": self.value}
        if self.rationale:
            doc["rationale"] = self.rationale
        return doc

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "Tolerance":
        return cls(kind=doc["kind"], value=doc["value"], rationale=doc.get("rationale", ""))


@dataclass(frozen=True)
class Constraint:
    constraint_id: str
    kind: str  # "hard" | "soft" | "pre_check"
    check: Comparison
    description: str = ""
    tolerance: Optional[Tolerance] = None

    def to_doc(self) -> dict:
        doc: dict[str, Any] = {"id": self.constraint_id, "check": self.check.to_doc()}
        if self.description:
            doc["description"] = self.description
        if self.tolerance is not None:
            doc["tolerance"] = self.tolerance.to_doc()
        return doc

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any], kind: str) -> "Constraint":
        return cls(
            constraint_id=doc["id"],
            kind=kind,
            check=Comparison.from_doc(doc["check"]),
            description=doc.get("description", ""),
            tolerance=Tolerance.from_doc(doc["tolerance"]) if doc.get("tolerance") else None,
        )


@dataclass(frozen=True)
class OracleVariable:
    name: str
    kind: str
    address: Optional[Address] = None

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "address": self.address.value if self.address else None,
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "OracleVariable":
        return cls(
            name=doc["name"],
            kind=doc["kind"],
            address=Address(doc["address"]) if doc.get("address") else None,
        )


@dataclass(frozen=True)
class OracleDefinition:
    chainid: int
    fork_block: int
    variables: tuple[OracleVariable, ...]
    pre_checks: tuple[Constraint, ...]
    hard: tuple[Constraint, ...]
    soft: tuple[Constraint, ...]
    success_criteria: str
    setup: str = ""

    def all_constraints(self) -> tuple[Constraint, ...]:
        return self.pre_checks + self.hard + self.soft

    def variable_map(self) -> dict[str, OracleVariable]:
        return {v.name: v for v in self.variables}

    def to_doc(self) -> dict:
        doc: dict[str, Any] = {
            "chainid": self.chainid,
            "fork_block": self.fork_block,
            "variables": [v.to_doc() for v in self.variables],
            "pre_check": [c.to_doc() for c in self.pre_checks],
            "hard": [c.to_doc() for c in self.hard],
            "soft": [c.to_doc() for c in self.soft],
            "success_criteria": self.success_criteria,
        }
        if self.setup:
            doc["setup"] = self.setup
        return doc

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "OracleDefinition":
        return cls(
            chainid=doc["chainid"],
            fork_block=doc["fork_block"],
            variables=tuple(OracleVariable.from_doc(v) for v in doc.get("variables", [])),
            pre_checks=tuple(
                Constraint.from_doc(c, "pre_check") for c in doc.get("pre_check", [])
            ),
            hard=tuple(Constraint.from_doc(c, "hard") for c in doc.get("hard", [])),
            soft=tuple(Constraint.from_doc(c, "soft") for c in doc.get("soft", [])),
            success_criteria=doc.get("success_criteria", ""),
            setup=doc.get("setup", ""),
        )


# --------------------------------------------------------------------------
# Validation and normalization.


def _token_class(token: str, variables: Mapping[str, OracleVariable]) -> str:
    if _INT_LITERAL.match(token):
        return "int"
    if token in ("true", "false"):
        return "bool"
    if _ADDRESS_LITERAL.match(token):
        return "address"
    if token in variables:
        return "variable"
    if _IDENTIFIER.match(token):
        return "observation"
    return "invalid"


def validate_definition(definition: OracleDefinition) -> list[str]:
    """Structural and referential checks; returns all problems found."""
    errors: list[str] = []
    try:
        validate_chain(definition.chainid)
    except Exception as exc:
        errors.append(str(exc))
    if definition.fork_block <= 0:
        errors.append(f"fork_block must be positive, got {definition.fork_block}")

    variables = {}
    for var in definition.variables:
        if var.kind not in VARIABLE_KINDS:
            errors.append(f"variable {var.name}: unknown kind {var.kind!r}")
        if var.name in variables:
            errors.append(f"variable {var.name}: duplicate name")
        variables[var.name] = var
        if var.kind in ROLE_KINDS and var.address is not None:
            errors.append(
                f"variable {var.name}: {var.kind} must not carry an address; "
                "roles are bound to fresh addresses at evaluation time"
            )
        if var.kind not in ROLE_KINDS and var.address is None:
            errors.append(f"variable {var.name}: {var.kind} requires an address")

    seen_ids: set[str] = set()
    for constraint in definition.all_constraints():
        cid = constraint.constraint_id
        if cid in seen_ids:
            errors.append(f"constraint {cid}: duplicate id")
        seen_ids.add(cid)
        if constraint.check.comparator not in COMPARATORS:
            errors.append(f"constraint {cid}: unknown comparator {constraint.check.comparator!r}")
        for side, token in (("lhs", constraint.check.lhs), ("rhs", constraint.check.rhs)):
            if _token_class(token, variables) == "invalid":
                errors.append(f"constraint {cid}: {side} {token!r} is not a literal, "
                              "variable, or observation name")
        if constraint.kind in ("hard", "pre_check"):
            if constraint.check.comparator == "within_tolerance":
                errors.append(f"constraint {cid}: within_tolerance is soft-only")
            if constraint.tolerance is not None:
                errors.append(f"constraint {cid}: {constraint.kind} constraints are exact")
    return errors


def normalize_definition(definition: OracleDefinition) -> OracleDefinition:
    """Materialize the default soft tolerance so the recorded definition is
    self-contained; raises InvalidDefinition when validation fails."""
    soft = tuple(
        c
        if c.tolerance is not None
        else replace(
            c,
            tolerance=Tolerance(
                kind="relative_bps",
                value=DEFAULT_TOLERANCE_BPS,
                rationale="default relative tolerance (10%)",
            ),
        )
        for c in definition.soft
    )
    normalized = replace(definition, soft=soft)
    errors = validate_definition(normalized)
    if errors:
        raise InvalidDefinition(errors)
    return normalized


def observation_names(definition: OracleDefinition) -> list[str]:
    """Identifiers the runner must report, in first-reference order."""
    variables = definition.variable_map()
    names: list[str] = []
    for constraint in definition.all_constraints():
        for token in (constraint.check.lhs, constraint.check.rhs):
            if _token_class(token, variables) == "observation" and token not in names:
                names.append(token)
    return names


def bind_variables(
    definition: OracleDefinition,
    deny: set[Address] | frozenset[Address] = frozenset(),
) -> OracleDefinition:
    """Fill role variables with addresses, refusing attacker-side identities.

    Each role variable gets a deterministic fresh address derived from its
    name.
    """
    bound = []
    for var in definition.variables:
        if var.kind in ROLE_KINDS:
            address = fresh_role_address(var.name)
            if address in deny:
                raise TaintedBinding(
                    f"role {var.name} bound to deny-listed address {address}"
                )
            bound.append(replace(var, address=address))
        else:
            if var.address is None:
                raise UnboundRole(f"variable {var.name} has no address")
            bound.append(var)
    return replace(definition, variables=tuple(bound))


# --------------------------------------------------------------------------
# Evaluation.


@dataclass(frozen=True)
class ConstraintResult:
    constraint_id: str
    kind: str
    satisfied: bool
    measured: Optional[ObsValue] = None
    expected: Optional[ObsValue] = None
    reason: str = ""

    def to_doc(self) -> dict:
        doc: dict[str, Any] = {
            "id": self.constraint_id,
            "kind": self.kind,
            "satisfied": self.satisfied,
        }
        if self.measured is not None:
            doc["measured"] = self.measured
        if self.expected is not None:
            doc["expected"] = self.expected
        if self.reason:
            doc["reason"] = self.reason
        return doc


@dataclass(frozen=True)
class VerdictReport:
    """Pass/Reject verdict with per-constraint outcomes in definition order."""

    pre_check_results: tuple[ConstraintResult, ...]
    constraint_results: tuple[ConstraintResult, ...]
    overall_pass: bool

    def to_validation_doc(
        self, rubric: Mapping[str, Any], reject_reasons: Sequence[str]
    ) -> dict:
        """The verdict as a ``poc_validation`` document; it rejects exactly
        when ``reject_reasons`` is non-empty."""
        doc: dict[str, Any] = {
            "overall_status": "Reject" if reject_reasons else "Pass",
            "oracle_results": [r.to_doc() for r in self.constraint_results],
            "pre_check_results": [r.to_doc() for r in self.pre_check_results],
            "rubric": dict(rubric),
        }
        if reject_reasons:
            doc["reject_reasons"] = list(reject_reasons)
        return doc


def _resolve(
    token: str,
    variables: Mapping[str, OracleVariable],
    observations: Mapping[str, ObsValue],
) -> tuple[Optional[ObsValue], str]:
    """Resolve a token to a concrete value, or (None, why-not)."""
    kind = _token_class(token, variables)
    if kind == "int":
        return int(token), ""
    if kind == "bool":
        return token == "true", ""
    if kind == "address":
        return token.lower(), ""
    if kind == "variable":
        var = variables[token]
        if var.address is None:
            return None, f"unbound variable {token}"
        return var.address.value, ""
    if kind == "observation":
        if token in observations:
            value = observations[token]
            if isinstance(value, str):
                return value.lower(), ""
            return value, ""
        return None, f"insufficient observation: {token} not reported"
    return None, f"unresolvable token {token!r}"


def _exact_compare(comparator: str, lhs: ObsValue, rhs: ObsValue) -> tuple[bool, str]:
    if comparator == "eq":
        return lhs == rhs, ""
    if isinstance(lhs, bool) or isinstance(rhs, bool) or not (
        isinstance(lhs, int) and isinstance(rhs, int)
    ):
        return False, f"comparator {comparator} needs integer operands"
    if comparator == "gt":
        return lhs > rhs, ""
    if comparator == "lt":
        return lhs < rhs, ""
    if comparator == "ge":
        return lhs >= rhs, ""
    if comparator == "le":
        return lhs <= rhs, ""
    return False, f"unknown comparator {comparator}"


def _soft_compare(
    comparator: str, measured: ObsValue, expected: ObsValue, tolerance: Tolerance
) -> tuple[bool, str]:
    if isinstance(measured, bool) or isinstance(expected, bool) or not (
        isinstance(measured, int) and isinstance(expected, int)
    ):
        return False, "soft constraints need integer operands"
    slack = tolerance.slack_for(expected)
    if comparator in ("within_tolerance", "eq"):
        return abs(measured - expected) <= slack, ""
    if comparator == "ge":
        return measured >= expected - slack, ""
    if comparator == "gt":
        return measured > expected - slack, ""
    if comparator == "le":
        return measured <= expected + slack, ""
    if comparator == "lt":
        return measured < expected + slack, ""
    return False, f"unknown comparator {comparator}"


def _evaluate_one(
    constraint: Constraint,
    variables: Mapping[str, OracleVariable],
    observations: Mapping[str, ObsValue],
) -> ConstraintResult:
    measured, why_lhs = _resolve(constraint.check.lhs, variables, observations)
    expected, why_rhs = _resolve(constraint.check.rhs, variables, observations)
    if measured is None or expected is None:
        return ConstraintResult(
            constraint_id=constraint.constraint_id,
            kind=constraint.kind,
            satisfied=False,
            measured=measured,
            expected=expected,
            reason=why_lhs or why_rhs,
        )
    if constraint.kind == "soft":
        ok, reason = _soft_compare(
            constraint.check.comparator, measured, expected, constraint.tolerance
        )
    else:
        ok, reason = _exact_compare(constraint.check.comparator, measured, expected)
    return ConstraintResult(
        constraint_id=constraint.constraint_id,
        kind=constraint.kind,
        satisfied=ok,
        measured=measured,
        expected=expected,
        reason=reason,
    )


def evaluate_constraints(
    definition: OracleDefinition,
    observations: Mapping[str, ObsValue],
) -> VerdictReport:
    """Evaluate every pre-check and constraint; Pass means all satisfied.
    ``definition`` is as ``normalize_definition`` returns it, so every soft
    constraint carries its tolerance.

    A missing observation never crashes evaluation; the affected constraint
    is reported unsatisfied with an insufficient-observation reason.
    """
    variables = definition.variable_map()
    pre = tuple(_evaluate_one(c, variables, observations) for c in definition.pre_checks)
    main = tuple(
        _evaluate_one(c, variables, observations)
        for c in definition.hard + definition.soft
    )
    overall = all(r.satisfied for r in pre) and all(r.satisfied for r in main)
    return VerdictReport(
        pre_check_results=pre, constraint_results=main, overall_pass=overall
    )
