"""Oracle definitions and the constraint engine.

A reference definition shaped like the staking-drain case (one pre-check,
three hard constraints, two soft constraints) drives the flip tests: any
single hard observation pushed out of range must turn Pass into Reject.
"""

from __future__ import annotations

import hashlib
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txpostmortem import workspace
from txpostmortem.agents import ROLE_ORACLE_GENERATOR, validate_role_output
from txpostmortem.domain import Address
from txpostmortem.oracles import (
    DEFAULT_TOLERANCE_BPS,
    InvalidDefinition,
    TaintedBinding,
    UnboundRole,
    bind_variables,
    engine_verdict,
    evaluate_constraints,
    fresh_role_address,
    normalize_definition,
    observation_names,
    validate_definition,
)

VICTIM = Address("0x" + "57" * 20)
ATTACKER_EOA = Address("0x" + "74" * 20)

GAIN = 206_730 * 10**18
LOSS = -229_700 * 10**18


def constraint(cid: str, lhs: str, comparator: str, rhs: str, **extra) -> dict:
    return {"id": cid, "check": {"lhs": lhs, "comparator": comparator, "rhs": rhs}, **extra}


def relative(bps: int) -> dict:
    return {"kind": "relative_bps", "value": bps}


def make_definition(**fields) -> dict:
    """A definition with no variables or constraints, then ``fields``."""
    return {
        "chainid": 1,
        "fork_block": 10,
        "variables": [],
        "pre_check": [],
        "hard": [],
        "soft": [],
        "success_criteria": "x",
        **fields,
    }


def reference_definition() -> dict:
    return make_definition(
        chainid=8453,
        fork_block=40_230_817,
        variables=[
            {"name": "staking_pool", "kind": "victim_contract", "address": VICTIM.value},
            {"name": "attacker", "kind": "attacker_role", "address": None},
        ],
        pre_check=[constraint("P1", "fork_pinned", "eq", "true")],
        hard=[
            constraint("H1", "reward_inflated", "eq", "true"),
            constraint("H2", "attacker_token_delta", "gt", "0"),
            constraint("H3", "pool_token_delta", "lt", "0"),
        ],
        soft=[
            constraint("S1", "attacker_token_delta", "ge", str(GAIN), tolerance=relative(1000)),
            constraint("S2", "pool_token_delta", "le", str(LOSS), tolerance=relative(1000)),
        ],
        success_criteria="rewards drained without matching staked principal",
    )


def passing_observations() -> dict:
    return {
        "fork_pinned": True,
        "reward_inflated": True,
        "attacker_token_delta": GAIN,
        "pool_token_delta": LOSS,
    }


def passes(results: list[dict]) -> bool:
    """Whether every oracle result is satisfied, as the engine decides."""
    return all(r["satisfied"] for r in results)


def within(expected: int, measured: int, tolerance: dict) -> bool:
    """Whether one ``within_tolerance`` soft constraint passes."""
    soft = [constraint("S1", "x", "within_tolerance", str(expected), tolerance=tolerance)]
    return passes(evaluate_constraints(make_definition(soft=soft), {"x": measured}))


class TestTolerance:
    def test_absolute_slack_ignores_magnitude(self):
        for expected in (10**30, 0):
            assert within(expected, expected + 500, {"kind": "absolute", "value": 500})
            assert not within(expected, expected + 501, {"kind": "absolute", "value": 500})

    @given(
        expected=st.integers(min_value=-(10**24), max_value=10**24),
        bps=st.integers(min_value=0, max_value=10_000),
    )
    def test_relative_slack_formula(self, expected: int, bps: int):
        slack = abs(expected) * bps // 10_000
        assert within(expected, expected - slack, relative(bps))
        assert not within(expected, expected - slack - 1, relative(bps))


class TestValidation:
    def test_reference_definition_is_valid(self):
        assert validate_definition(reference_definition()) == []

    def test_role_variables_must_not_carry_addresses(self):
        doc = reference_definition()
        doc["variables"][1]["address"] = ATTACKER_EOA.value
        errors = validate_definition(doc)
        assert any("must not carry an address" in e for e in errors)

    def test_concrete_variables_need_addresses(self):
        doc = reference_definition()
        doc["variables"][0]["address"] = None
        errors = validate_definition(doc)
        assert any("requires an address" in e for e in errors)

    def test_a_malformed_variable_address_is_an_error(self):
        doc = reference_definition()
        doc["variables"][0]["address"] = "0x1234"
        errors = validate_definition(doc)
        assert any(e.startswith("variable staking_pool:") for e in errors)

    def test_within_tolerance_is_soft_only(self):
        doc = reference_definition()
        doc["hard"].append(constraint("H9", "x", "within_tolerance", "5"))
        errors = validate_definition(doc)
        assert any("within_tolerance is soft-only" in e for e in errors)

    def test_hard_constraints_are_exact(self):
        doc = reference_definition()
        doc["hard"][2]["tolerance"] = {"kind": "absolute", "value": 1}
        errors = validate_definition(doc)
        assert any("constraints are exact" in e for e in errors)

    def test_duplicate_constraint_ids_rejected(self):
        doc = reference_definition()
        doc["hard"].append(constraint("H1", "y", "eq", "1"))
        errors = validate_definition(doc)
        assert any("duplicate id" in e for e in errors)

    def test_unknown_comparator_and_bad_token(self):
        # The schema alone fixes the comparators, ahead of the semantic checks.
        doc = reference_definition()
        doc["hard"] = [constraint("HX", "x", "almost", "1")]
        output, errors = validate_role_output(ROLE_ORACLE_GENERATOR, doc)
        assert output is None
        assert errors == [
            "hard[0].check.comparator: expected one of "
            "['eq', 'gt', 'lt', 'ge', 'le', 'within_tolerance'], got 'almost'"
        ]
        doc["hard"] = [constraint("HX", "a b", "eq", "1")]
        errors = validate_definition(doc)
        assert any("not a literal" in e for e in errors)

    def test_normalize_fills_default_soft_tolerance(self):
        doc = reference_definition()
        for soft in doc["soft"]:
            del soft["tolerance"]
        normalized = normalize_definition(doc)
        for soft in normalized["soft"]:
            assert soft["tolerance"]["kind"] == "relative_bps"
            assert soft["tolerance"]["value"] == DEFAULT_TOLERANCE_BPS
        assert all("tolerance" not in soft for soft in doc["soft"])

    def test_normalize_raises_on_invalid(self):
        with pytest.raises(InvalidDefinition):
            normalize_definition(dict(reference_definition(), fork_block=0))

    def test_normalize_is_idempotent(self):
        doc = reference_definition()
        del doc["soft"][0]["tolerance"]
        normalized = normalize_definition(doc)
        assert normalize_definition(normalized) == normalized


def _sometimes(common, rare) -> st.SearchStrategy:
    """``common`` seven draws in eight, ``rare`` otherwise."""
    return st.integers(0, 7).flatmap(lambda k: rare if k == 0 else common)


#: Each field is mostly valid, so that some documents pass and the others
#: break one rule or a few.
_ADDRESSES = _sometimes(
    st.sampled_from([VICTIM.value, VICTIM.value.upper().replace("0X", "0x")]),
    st.sampled_from(["0x1234", "", "0x" + "zz" * 20]),
)
_TOKENS = _sometimes(
    st.sampled_from(["x", "y", "v0", "v1", "1000", "-5", "true", VICTIM.value]),
    st.sampled_from(["a b", "0x12", "", "X-1", "0x" + "AB" * 20]),
)
_COMPARATORS = st.sampled_from(["eq", "gt", "lt", "ge", "le", "within_tolerance"])
_TOLERANCES = _sometimes(
    st.none(),
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["relative_bps", "absolute"]), "value": st.integers(-5, 10**4)}
    ),
)


@st.composite
def _constraints(draw, prefix: str) -> list[dict]:
    docs = []
    for k in range(draw(st.integers(0, 2))):
        cid = draw(_sometimes(st.just(f"{prefix}{k}"), st.just("C0")))
        tolerance = draw(_TOLERANCES)
        extra = {} if tolerance is None else {"tolerance": tolerance}
        docs.append(constraint(cid, draw(_TOKENS), draw(_COMPARATORS), draw(_TOKENS), **extra))
    return docs


@st.composite
def _variables(draw) -> list[dict]:
    docs = []
    for k in range(draw(st.integers(0, 2))):
        name = draw(_sometimes(st.just(f"v{k}"), st.sampled_from(["v0", "x", "true"])))
        kind = draw(st.sampled_from(["victim_contract", "asset", "attacker_role", "helper_role"]))
        if kind.endswith("_role"):
            address = draw(_sometimes(st.none(), _ADDRESSES))
        else:
            address = draw(_sometimes(_ADDRESSES, st.none()))
        docs.append({"name": name, "kind": kind, "address": address})
    return docs


_GENERATOR_DOCUMENTS = st.builds(
    make_definition,
    chainid=_sometimes(st.sampled_from([1, 8453]), st.just(7)),
    fork_block=_sometimes(st.integers(1, 10**8), st.integers(-1, 0)),
    variables=_variables(),
    pre_check=_constraints("P"),
    hard=_constraints("H"),
    soft=_constraints("S"),
)


@settings(max_examples=500)
@given(doc=_GENERATOR_DOCUMENTS)
def test_the_generator_contract_returns_the_document_or_errors(doc):
    """Whatever a schema-valid generator document holds (bad or mixed-case
    addresses, unknown tokens, repeated ids, hard constraints with a
    tolerance), its contract answers with the normalized document or with
    errors, and never raises."""
    assert workspace.check_document(doc, workspace.SCHEMAS["oracle_definition"]) == []
    output, errors = validate_role_output(ROLE_ORACLE_GENERATOR, doc)
    if errors:
        assert output is None
    else:
        assert {**output, "soft": doc["soft"]} == doc
        assert all("tolerance" in soft for soft in output["soft"])
        evaluate_constraints(bind_variables(output), {})


_OBSERVED = st.one_of(
    st.integers(-(10**30), 10**30),
    st.booleans(),
    st.sampled_from([VICTIM.value, VICTIM.value.upper().replace("0X", "0x"), ATTACKER_EOA.value]),
)


@settings(max_examples=500)
@given(
    doc=_GENERATOR_DOCUMENTS,
    data=st.data(),
    correctness=st.dictionaries(
        st.sampled_from(["compiles", "runs_clean", "pinned_fork"]), st.booleans()
    ),
    codes=st.lists(st.sampled_from(["oracle_validation_failed", "uses_attacker_contract"])),
)
def test_the_engine_verdict_over_any_accepted_definition_meets_its_schema(
    doc, data, correctness, codes
):
    """For every definition the generator's contract accepts, bound, and
    any int, bool or address observations (some missing), the engine
    verdict meets its schema, lists each constraint id once in
    ``pre_check``, ``hard``, ``soft`` order, and rejects exactly when it is
    given reject codes.  About three documents in ten are accepted; the
    rest are left to the test above."""
    output, errors = validate_role_output(ROLE_ORACLE_GENERATOR, doc)
    if errors:
        return
    bound = bind_variables(output)
    observations = data.draw(
        st.fixed_dictionaries({}, optional={name: _OBSERVED for name in observation_names(bound)})
    )
    rubric = {
        "correctness": correctness,
        "observations_missing": [n for n in observation_names(bound) if n not in observations],
        "observation_warnings": [],
        "attacker_address_hits": [],
    }
    verdict = engine_verdict(evaluate_constraints(bound, observations), rubric, codes)
    assert workspace.check_document(verdict, workspace.SCHEMAS["engine_verdict"]) == []
    listed = verdict["pre_check_results"] + verdict["oracle_results"]
    assert [r["id"] for r in listed] == [
        c["id"] for kind in ("pre_check", "hard", "soft") for c in output[kind]
    ]
    assert len({r["id"] for r in listed}) == len(listed)
    assert (verdict["overall_status"] == "Reject") is bool(codes)
    assert verdict.get("reject_reasons", []) == codes


class TestObservationNames:
    def test_first_reference_order(self):
        assert observation_names(reference_definition()) == [
            "fork_pinned",
            "reward_inflated",
            "attacker_token_delta",
            "pool_token_delta",
        ]


class TestBinding:
    def test_fresh_role_address_matches_derivation(self):
        # Independent recomputation of the documented derivation.
        digest = hashlib.sha256(b"txpostmortem/fresh-role:attacker").digest()
        assert fresh_role_address("attacker").value == "0x" + digest[:20].hex()

    def test_unbound_roles_get_fresh_addresses(self):
        doc = reference_definition()
        bound = bind_variables(doc)
        by_name = {var["name"]: var["address"] for var in bound["variables"]}
        assert by_name["attacker"] == fresh_role_address("attacker").value
        assert by_name["staking_pool"] == VICTIM.value
        assert doc == reference_definition()

    def test_fresh_address_landing_in_deny_set_is_refused(self):
        fresh = fresh_role_address("attacker")
        with pytest.raises(TaintedBinding):
            bind_variables(reference_definition(), deny=frozenset({fresh}))

    def test_concrete_variable_without_address_is_an_error(self):
        broken = make_definition(
            variables=[{"name": "staking_pool", "kind": "victim_contract", "address": None}]
        )
        with pytest.raises(UnboundRole):
            bind_variables(broken)


def _failed_ids(results: list[dict]) -> list[str]:
    return [r["id"] for r in results if not r["satisfied"]]


#: Each comparator a pre-check or hard constraint may use, as Python's own.
_EXACT = {
    "eq": operator.eq,
    "gt": operator.gt,
    "ge": operator.ge,
    "lt": operator.lt,
    "le": operator.le,
}


class TestEngine:
    def test_reference_observations_pass(self):
        results = evaluate_constraints(reference_definition(), passing_observations())
        assert passes(results) is True
        assert _failed_ids(results) == []

    def test_flipping_any_hard_observation_rejects(self):
        # Exhaustive over the hard constraints: invalidate exactly the
        # observation each one measures and nothing else.
        flips = {
            "H1": ("reward_inflated", False),
            "H2": ("attacker_token_delta", 0),
            "H3": ("pool_token_delta", 0),
        }
        for cid, (name, value) in flips.items():
            observations = passing_observations()
            observations[name] = value
            results = evaluate_constraints(reference_definition(), observations)
            assert passes(results) is False, cid
            assert cid in _failed_ids(results)

    def test_failed_pre_check_rejects(self):
        observations = passing_observations()
        observations["fork_pinned"] = False
        results = evaluate_constraints(reference_definition(), observations)
        assert passes(results) is False
        assert _failed_ids(results) == ["P1"]

    def test_missing_observation_reports_without_crashing(self):
        observations = passing_observations()
        del observations["attacker_token_delta"]
        results = evaluate_constraints(reference_definition(), observations)
        assert passes(results) is False
        failed = {r["id"]: r for r in results if not r["satisfied"]}
        assert "insufficient observation" in failed["H2"]["reason"]
        assert "measured" not in failed["H2"]

    def test_soft_slack_is_applied_on_both_sides(self):
        # S1 (ge) tolerates up to 10% below the expected gain; S2 (le)
        # tolerates up to 10% above the expected (negative) loss.
        observations = passing_observations()
        observations["attacker_token_delta"] = GAIN - abs(GAIN) // 10
        observations["pool_token_delta"] = LOSS + abs(LOSS) // 10
        assert passes(evaluate_constraints(reference_definition(), observations))

        observations["attacker_token_delta"] = GAIN - abs(GAIN) // 10 - 1
        assert not passes(evaluate_constraints(reference_definition(), observations))

    def test_a_measurement_exactly_the_slack_away_is_satisfied(self):
        for measured, satisfied in ((500, True), (1500, True), (499, False), (1501, False)):
            assert within(1000, measured, {"kind": "absolute", "value": 500}) is satisfied

    @pytest.mark.parametrize("kind", ["hard", "soft"])
    @pytest.mark.parametrize(
        "comparator, inclusive", [("ge", True), ("le", True), ("gt", False), ("lt", False)]
    )
    def test_a_measurement_at_the_bound_satisfies_only_an_inclusive_comparator(
        self, kind, comparator, inclusive
    ):
        # The bound is 1000, less (ge, gt) or plus (le, lt) a soft slack of 500.
        slack = 500 if kind == "soft" else 0
        extra = {"tolerance": {"kind": "absolute", "value": slack}} if slack else {}
        doc = make_definition(**{kind: [constraint("C1", "x", comparator, "1000", **extra)]})
        measured = 1000 - slack if comparator in ("ge", "gt") else 1000 + slack
        assert passes(evaluate_constraints(doc, {"x": measured})) is inclusive

    @settings(max_examples=500)
    @given(
        measured=st.integers(),
        expected=st.integers(),
        other=st.sampled_from([True, False, VICTIM.value, ATTACKER_EOA.value]),
        other_is_lhs=st.booleans(),
    )
    def test_zero_slack_is_exact_and_only_an_exact_eq_compares_non_integers(
        self, measured, expected, other, other_is_lhs
    ):
        """A pre-check, a hard constraint and a soft one with zero absolute
        slack agree on any two integers; a soft constraint with a boolean or
        address operand is unsatisfied under every comparator."""
        zero = {"kind": "absolute", "value": 0}
        for comparator, holds in _EXACT.items():
            doc = make_definition(
                pre_check=[constraint("P1", "x", comparator, "y")],
                hard=[constraint("H1", "x", comparator, "y")],
                soft=[constraint("S1", "x", comparator, "y", tolerance=zero)],
            )
            results = evaluate_constraints(doc, {"x": measured, "y": expected})
            assert [r["satisfied"] for r in results] == [holds(measured, expected)] * 3
        lhs, rhs = (other, expected) if other_is_lhs else (measured, other)
        for comparator in [*_EXACT, "within_tolerance"]:
            doc = make_definition(soft=[constraint("S1", "x", comparator, "y", tolerance=zero)])
            [result] = evaluate_constraints(doc, {"x": lhs, "y": rhs})
            assert result["satisfied"] is False
            assert "integer operands" in result["reason"]

    def test_boolean_operands_fail_ordered_comparators(self):
        doc = make_definition(hard=[constraint("H1", "flagged", "gt", "0")])
        [result] = evaluate_constraints(doc, {"flagged": True})
        assert result["satisfied"] is False
        assert "integer operands" in result["reason"]

    def test_address_comparison_is_case_insensitive(self):
        mixed = VICTIM.value.upper().replace("0X", "0x")
        doc = make_definition(
            variables=[{"name": "pool", "kind": "victim_contract", "address": mixed}],
            hard=[
                constraint("H1", "winner", "eq", "pool"),
                constraint("H2", "pool", "eq", VICTIM.value),
            ],
        )
        for winner in (mixed, VICTIM.value):
            assert passes(evaluate_constraints(doc, {"winner": winner})) is True

    @given(
        expected=st.integers(min_value=1, max_value=10**24),
        measured=st.integers(min_value=0, max_value=2 * 10**24),
        narrow=st.integers(min_value=0, max_value=10_000),
        widen_by=st.integers(min_value=0, max_value=10_000),
    )
    def test_widening_tolerance_never_flips_pass_to_reject(
        self, expected: int, measured: int, narrow: int, widen_by: int
    ):
        if within(expected, measured, relative(narrow)):
            assert within(expected, measured, relative(narrow + widen_by))

    def test_tolerance_monotonicity_bulk(self):
        # Deterministic sweep: once a soft check passes at some width it
        # stays passing at every wider setting, across comparators.
        rng = random.Random(20260819)
        for _ in range(250):
            expected = rng.randint(1, 10**18)
            measured = expected + rng.randint(-expected, expected)
            comparator = rng.choice(["within_tolerance", "ge", "le", "eq"])
            widths = sorted(rng.randint(0, 10_000) for _ in range(4))
            results = []
            for bps in widths:
                soft = constraint("S1", "x", comparator, str(expected), tolerance=relative(bps))
                results.append(
                    passes(evaluate_constraints(make_definition(soft=[soft]), {"x": measured}))
                )
            # Non-decreasing sequence of verdicts.
            for earlier, later in zip(results, results[1:]):
                assert later >= earlier


class TestVerdictDoc:
    def test_pass_doc_has_no_reject_reasons(self):
        results = evaluate_constraints(reference_definition(), passing_observations())
        doc = engine_verdict(results, {"correctness": {"compiles": True}}, [])
        assert doc["overall_status"] == "Pass"
        assert "reject_reasons" not in doc
        assert doc["rubric"] == {"correctness": {"compiles": True}}
        assert [r["id"] for r in doc["oracle_results"]] == ["H1", "H2", "H3", "S1", "S2"]
        assert [r["id"] for r in doc["pre_check_results"]] == ["P1"]

    def test_reject_doc_names_oracle_validation(self):
        observations = passing_observations()
        observations["reward_inflated"] = False
        results = evaluate_constraints(reference_definition(), observations)
        doc = engine_verdict(results, {}, ["oracle_validation_failed"])
        assert doc["overall_status"] == "Reject"
        assert doc["reject_reasons"] == ["oracle_validation_failed"]
