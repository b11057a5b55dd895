"""Semantic success oracles for exploit reproductions.

An oracle definition is one JSON document, in the form
``workspace.SCHEMAS["oracle_definition"]`` fixes.  It pins a fork block and
declares, over named runtime observations, the ``pre_check`` and ``hard``
constraints that must hold exactly and the ``soft`` constraints that must
hold within a recorded tolerance.  ``normalize_definition`` checks a
schema-valid document and returns a copy with each soft constraint's
default tolerance filled in; that copy is what a session records and what
every function here reads.  Role variables (attacker, helpers) carry
``"address": null``.  ``bind_variables`` returns a copy that binds them to
fresh deterministic test addresses, so a reproduction can never satisfy its
oracles by replaying attacker-controlled identities, and leaves the
definition it was given as it was.

``evaluate_constraints`` returns one result document per constraint and
``engine_verdict`` builds the engine verdict from them: both are the
documents a session writes, with no class mirroring their fields.  One
rule compares every constraint: a pre-check or hard constraint is a soft
one with zero slack, and only an exact ``eq`` also compares addresses and
booleans.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Container, Iterator, Mapping, Optional, Sequence, Union

from .domain import Address, InvalidAddress, UnsupportedChain, sha256, validate_chain

ROLE_KINDS = ("attacker_role", "helper_role")
#: The constraint lists of a definition, in the order they are evaluated.
CONSTRAINT_KINDS = ("pre_check", "hard", "soft")

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
    digest = sha256(f"txpostmortem/fresh-role:{name}".encode()).digest()
    return Address("0x" + digest[:20].hex())


# --------------------------------------------------------------------------
# Validation and normalization.


def _constraints(definition: Mapping[str, Any]) -> Iterator[tuple[str, dict[str, Any]]]:
    """Each constraint with its kind, in ``CONSTRAINT_KINDS`` order."""
    for kind in CONSTRAINT_KINDS:
        for constraint in definition[kind]:
            yield kind, constraint


def _token_class(token: str, variables: Container[str]) -> str:
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


def validate_definition(definition: Mapping[str, Any]) -> list[str]:
    """Semantic and referential checks of a schema-valid definition; returns
    all problems found.  The schema alone fixes variable kinds and
    comparators."""
    errors: list[str] = []
    try:
        validate_chain(definition["chainid"])
    except UnsupportedChain as exc:
        errors.append(str(exc))
    if definition["fork_block"] <= 0:
        errors.append(f"fork_block must be positive, got {definition['fork_block']}")

    variables: set[str] = set()
    for var in definition["variables"]:
        name, kind, address = var["name"], var["kind"], var["address"]
        if name in variables:
            errors.append(f"variable {name}: duplicate name")
        variables.add(name)
        if kind in ROLE_KINDS and address is not None:
            errors.append(
                f"variable {name}: {kind} must not carry an address; "
                "roles are bound to fresh addresses at evaluation time"
            )
        if kind not in ROLE_KINDS:
            if address is None:
                errors.append(f"variable {name}: {kind} requires an address")
            else:
                try:
                    Address(address)
                except InvalidAddress as exc:
                    errors.append(f"variable {name}: {exc}")

    seen_ids: set[str] = set()
    for kind, constraint in _constraints(definition):
        cid, check = constraint["id"], constraint["check"]
        if cid in seen_ids:
            errors.append(f"constraint {cid}: duplicate id")
        seen_ids.add(cid)
        for side in ("lhs", "rhs"):
            if _token_class(check[side], variables) == "invalid":
                errors.append(f"constraint {cid}: {side} {check[side]!r} is not a literal, "
                              "variable, or observation name")
        if kind != "soft":
            if check["comparator"] == "within_tolerance":
                errors.append(f"constraint {cid}: within_tolerance is soft-only")
            if "tolerance" in constraint:
                errors.append(f"constraint {cid}: {kind} constraints are exact")
    return errors


def normalize_definition(definition: Mapping[str, Any]) -> dict[str, Any]:
    """A copy of a schema-valid definition with the default tolerance
    written into each soft constraint that has none, so the recorded
    definition is self-contained; raises InvalidDefinition when validation
    fails."""
    errors = validate_definition(definition)
    if errors:
        raise InvalidDefinition(errors)
    return {
        **definition,
        "soft": [
            constraint
            if "tolerance" in constraint
            else {
                **constraint,
                "tolerance": {
                    "kind": "relative_bps",
                    "value": DEFAULT_TOLERANCE_BPS,
                    "rationale": "default relative tolerance (10%)",
                },
            }
            for constraint in definition["soft"]
        ],
    }


def observation_names(definition: Mapping[str, Any]) -> list[str]:
    """Identifiers the runner must report, in first-reference order."""
    variables = {var["name"] for var in definition["variables"]}
    names: list[str] = []
    for _, constraint in _constraints(definition):
        for token in (constraint["check"]["lhs"], constraint["check"]["rhs"]):
            if _token_class(token, variables) == "observation" and token not in names:
                names.append(token)
    return names


def bind_variables(
    definition: Mapping[str, Any],
    deny: set[Address] | frozenset[Address] = frozenset(),
) -> dict[str, Any]:
    """A copy of ``definition`` whose role variables carry addresses,
    refusing attacker-side identities.

    Each role variable gets a deterministic fresh address derived from its
    name.
    """
    bound = []
    for var in definition["variables"]:
        if var["kind"] in ROLE_KINDS:
            address = fresh_role_address(var["name"])
            if address in deny:
                raise TaintedBinding(
                    f"role {var['name']} bound to deny-listed address {address}"
                )
            var = {**var, "address": address.value}
        elif var["address"] is None:
            raise UnboundRole(f"variable {var['name']} has no address")
        bound.append(var)
    return {**definition, "variables": bound}


# --------------------------------------------------------------------------
# Evaluation.


def _resolve(
    token: str,
    variables: Mapping[str, Mapping[str, Any]],
    observations: Mapping[str, ObsValue],
) -> tuple[Optional[ObsValue], str]:
    """Resolve a token of a bound definition to a concrete value, or (None,
    why-not) for an unreported observation; addresses resolve lowercased."""
    kind = _token_class(token, variables)
    if kind == "int":
        return int(token), ""
    if kind == "bool":
        return token == "true", ""
    if kind == "observation":
        if token not in observations:
            return None, f"insufficient observation: {token} not reported"
        value = observations[token]
        return (value.lower() if isinstance(value, str) else value), ""
    if kind == "variable":
        token = variables[token]["address"]
    return token.lower(), ""


def _slack(tolerance: Mapping[str, Any], expected: int) -> int:
    """How far a soft measurement may miss ``expected``."""
    if tolerance["kind"] == "absolute":
        return tolerance["value"]
    return abs(expected) * tolerance["value"] // 10000


#: Whether ``measured`` meets ``expected`` under each comparator, missing it
#: by at most ``slack``: zero for a pre-check or a hard constraint.
_COMPARATORS: dict[str, Callable[[int, int, int], bool]] = {
    "eq": lambda measured, expected, slack: abs(measured - expected) <= slack,
    "gt": lambda measured, expected, slack: measured > expected - slack,
    "ge": lambda measured, expected, slack: measured >= expected - slack,
    "lt": lambda measured, expected, slack: measured < expected + slack,
    "le": lambda measured, expected, slack: measured <= expected + slack,
}
_COMPARATORS["within_tolerance"] = _COMPARATORS["eq"]


def _evaluate_one(
    kind: str,
    constraint: Mapping[str, Any],
    variables: Mapping[str, Mapping[str, Any]],
    observations: Mapping[str, ObsValue],
) -> dict[str, Any]:
    check = constraint["check"]
    comparator = check["comparator"]
    measured, why_lhs = _resolve(check["lhs"], variables, observations)
    expected, why_rhs = _resolve(check["rhs"], variables, observations)
    if measured is None or expected is None:
        ok, reason = False, why_lhs or why_rhs
    elif type(measured) is int and type(expected) is int:  # not bool
        slack = _slack(constraint["tolerance"], expected) if kind == "soft" else 0
        ok, reason = _COMPARATORS[comparator](measured, expected, slack), ""
    elif kind != "soft" and comparator == "eq":
        ok, reason = measured == expected, ""
    else:
        ok, reason = False, f"{kind} {comparator} needs integer operands"
    result: dict[str, Any] = {"id": constraint["id"], "kind": kind, "satisfied": ok}
    if measured is not None:
        result["measured"] = measured
    if expected is not None:
        result["expected"] = expected
    if reason:
        result["reason"] = reason
    return result


def evaluate_constraints(
    definition: Mapping[str, Any],
    observations: Mapping[str, ObsValue],
) -> list[dict[str, Any]]:
    """One result document per pre-check and constraint, in
    ``CONSTRAINT_KINDS`` order; Pass means every one is satisfied.
    ``definition`` is as ``normalize_definition`` returns it, so every soft
    constraint carries its tolerance, and as ``bind_variables`` binds it.

    Each comparator is one rule: a measurement may miss its bound by a soft
    constraint's slack, and by zero for a pre-check or hard constraint.
    Only an exact ``eq`` also compares addresses and booleans.  A missing
    observation never crashes evaluation; the affected constraint is
    reported unsatisfied with an insufficient-observation reason.
    """
    variables = {var["name"]: var for var in definition["variables"]}
    return [
        _evaluate_one(kind, constraint, variables, observations)
        for kind, constraint in _constraints(definition)
    ]


def engine_verdict(
    results: Sequence[Mapping[str, Any]],
    rubric: dict[str, Any],
    reject_reasons: Sequence[str],
) -> dict[str, Any]:
    """The engine verdict document over ``evaluate_constraints`` results,
    in the form ``workspace.SCHEMAS["engine_verdict"]`` fixes; it rejects
    exactly when ``reject_reasons`` is non-empty."""
    doc: dict[str, Any] = {
        "overall_status": "Reject" if reject_reasons else "Pass",
        "oracle_results": [r for r in results if r["kind"] != "pre_check"],
        "pre_check_results": [r for r in results if r["kind"] == "pre_check"],
        "rubric": rubric,
    }
    if reject_reasons:
        doc["reject_reasons"] = list(reject_reasons)
    return doc
