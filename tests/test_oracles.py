"""Oracle definitions and the constraint engine.

A reference definition shaped like the staking-drain case (one pre-check,
three hard constraints, two soft constraints) drives the flip tests: any
single hard observation pushed out of range must turn Pass into Reject.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from txpostmortem.domain import Address
from txpostmortem.oracles import (
    DEFAULT_TOLERANCE_BPS,
    Comparison,
    Constraint,
    InvalidDefinition,
    OracleDefinition,
    OracleVariable,
    TaintedBinding,
    Tolerance,
    UnboundRole,
    VerdictReport,
    bind_variables,
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


def reference_definition() -> OracleDefinition:
    return OracleDefinition(
        chainid=8453,
        fork_block=40_230_817,
        variables=(
            OracleVariable("staking_pool", "victim_contract", VICTIM),
            OracleVariable("attacker", "attacker_role", None),
        ),
        pre_checks=(
            Constraint("P1", "pre_check", Comparison("fork_pinned", "eq", "true")),
        ),
        hard=(
            Constraint("H1", "hard", Comparison("reward_inflated", "eq", "true")),
            Constraint("H2", "hard", Comparison("attacker_token_delta", "gt", "0")),
            Constraint("H3", "hard", Comparison("pool_token_delta", "lt", "0")),
        ),
        soft=(
            Constraint(
                "S1",
                "soft",
                Comparison("attacker_token_delta", "ge", str(GAIN)),
                tolerance=Tolerance("relative_bps", 1000),
            ),
            Constraint(
                "S2",
                "soft",
                Comparison("pool_token_delta", "le", str(LOSS)),
                tolerance=Tolerance("relative_bps", 1000),
            ),
        ),
        success_criteria="rewards drained without matching staked principal",
    )


def passing_observations() -> dict:
    return {
        "fork_pinned": True,
        "reward_inflated": True,
        "attacker_token_delta": GAIN,
        "pool_token_delta": LOSS,
    }


class TestTolerance:
    def test_absolute_slack_ignores_magnitude(self):
        assert Tolerance("absolute", 500).slack_for(10**30) == 500
        assert Tolerance("absolute", 500).slack_for(0) == 500

    @given(
        expected=st.integers(min_value=-(10**24), max_value=10**24),
        bps=st.integers(min_value=0, max_value=10_000),
    )
    def test_relative_slack_formula(self, expected: int, bps: int):
        slack = Tolerance("relative_bps", bps).slack_for(expected)
        assert slack == abs(expected) * bps // 10_000
        assert slack >= 0


class TestValidation:
    def test_reference_definition_is_valid(self):
        assert validate_definition(reference_definition()) == []

    def test_role_variables_must_not_carry_addresses(self):
        definition = reference_definition()
        bad = definition.variables[:1] + (
            OracleVariable("attacker", "attacker_role", ATTACKER_EOA),
        )
        errors = validate_definition(
            OracleDefinition(
                **{**_as_kwargs(definition), "variables": bad}
            )
        )
        assert any("must not carry an address" in e for e in errors)

    def test_concrete_variables_need_addresses(self):
        definition = reference_definition()
        bad = (
            OracleVariable("staking_pool", "victim_contract", None),
        ) + definition.variables[1:]
        errors = validate_definition(
            OracleDefinition(**{**_as_kwargs(definition), "variables": bad})
        )
        assert any("requires an address" in e for e in errors)

    def test_within_tolerance_is_soft_only(self):
        definition = reference_definition()
        bad = definition.hard + (
            Constraint("H9", "hard", Comparison("x", "within_tolerance", "5")),
        )
        errors = validate_definition(
            OracleDefinition(**{**_as_kwargs(definition), "hard": bad})
        )
        assert any("within_tolerance is soft-only" in e for e in errors)

    def test_hard_constraints_are_exact(self):
        definition = reference_definition()
        bad = definition.hard[:2] + (
            Constraint(
                "H3",
                "hard",
                Comparison("pool_token_delta", "lt", "0"),
                tolerance=Tolerance("absolute", 1),
            ),
        )
        errors = validate_definition(
            OracleDefinition(**{**_as_kwargs(definition), "hard": bad})
        )
        assert any("constraints are exact" in e for e in errors)

    def test_duplicate_constraint_ids_rejected(self):
        definition = reference_definition()
        bad = definition.hard + (
            Constraint("H1", "hard", Comparison("y", "eq", "1")),
        )
        errors = validate_definition(
            OracleDefinition(**{**_as_kwargs(definition), "hard": bad})
        )
        assert any("duplicate id" in e for e in errors)

    def test_unknown_comparator_and_bad_token(self):
        definition = reference_definition()
        bad = (
            Constraint("HX", "hard", Comparison("a b", "almost", "1")),
        )
        errors = validate_definition(
            OracleDefinition(**{**_as_kwargs(definition), "hard": bad})
        )
        assert any("unknown comparator" in e for e in errors)
        assert any("not a literal" in e for e in errors)

    def test_normalize_fills_default_soft_tolerance(self):
        definition = reference_definition()
        stripped = OracleDefinition(
            **{
                **_as_kwargs(definition),
                "soft": tuple(
                    Constraint(c.constraint_id, "soft", c.check) for c in definition.soft
                ),
            }
        )
        normalized = normalize_definition(stripped)
        for constraint in normalized.soft:
            assert constraint.tolerance is not None
            assert constraint.tolerance.kind == "relative_bps"
            assert constraint.tolerance.value == DEFAULT_TOLERANCE_BPS

    def test_normalize_raises_on_invalid(self):
        definition = reference_definition()
        bad = OracleDefinition(**{**_as_kwargs(definition), "fork_block": 0})
        with pytest.raises(InvalidDefinition):
            normalize_definition(bad)

    def test_doc_roundtrip(self):
        definition = normalize_definition(reference_definition())
        assert OracleDefinition.from_doc(definition.to_doc()) == definition

    def test_doc_uses_pre_check_key(self):
        doc = reference_definition().to_doc()
        assert "pre_check" in doc
        assert "pre_checks" not in doc


def _as_kwargs(definition: OracleDefinition) -> dict:
    return {
        "chainid": definition.chainid,
        "fork_block": definition.fork_block,
        "variables": definition.variables,
        "pre_checks": definition.pre_checks,
        "hard": definition.hard,
        "soft": definition.soft,
        "success_criteria": definition.success_criteria,
        "setup": definition.setup,
    }


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
        bound = bind_variables(reference_definition())
        by_name = bound.variable_map()
        assert by_name["attacker"].address == fresh_role_address("attacker")
        assert by_name["staking_pool"].address == VICTIM

    def test_fresh_address_landing_in_deny_set_is_refused(self):
        fresh = fresh_role_address("attacker")
        with pytest.raises(TaintedBinding):
            bind_variables(reference_definition(), deny=frozenset({fresh}))

    def test_concrete_variable_without_address_is_an_error(self):
        definition = reference_definition()
        broken = OracleDefinition(
            **{
                **_as_kwargs(definition),
                "variables": (
                    OracleVariable("staking_pool", "victim_contract", None),
                ),
            }
        )
        with pytest.raises(UnboundRole):
            bind_variables(broken)


def _failed_ids(report: VerdictReport) -> list[str]:
    return [
        r.constraint_id
        for r in report.pre_check_results + report.constraint_results
        if not r.satisfied
    ]


class TestEngine:
    def test_reference_observations_pass(self):
        report = evaluate_constraints(reference_definition(), passing_observations())
        assert report.overall_pass is True
        assert _failed_ids(report) == []

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
            report = evaluate_constraints(reference_definition(), observations)
            assert report.overall_pass is False, cid
            assert cid in _failed_ids(report)

    def test_failed_pre_check_rejects(self):
        observations = passing_observations()
        observations["fork_pinned"] = False
        report = evaluate_constraints(reference_definition(), observations)
        assert report.overall_pass is False
        assert _failed_ids(report) == ["P1"]

    def test_missing_observation_reports_without_crashing(self):
        observations = passing_observations()
        del observations["attacker_token_delta"]
        report = evaluate_constraints(reference_definition(), observations)
        assert report.overall_pass is False
        failed = {r.constraint_id: r for r in report.constraint_results if not r.satisfied}
        assert "insufficient observation" in failed["H2"].reason

    def test_soft_slack_is_applied_on_both_sides(self):
        # S1 (ge) tolerates up to 10% below the expected gain; S2 (le)
        # tolerates up to 10% above the expected (negative) loss.
        observations = passing_observations()
        observations["attacker_token_delta"] = GAIN - abs(GAIN) // 10
        observations["pool_token_delta"] = LOSS + abs(LOSS) // 10
        assert evaluate_constraints(reference_definition(), observations).overall_pass

        observations["attacker_token_delta"] = GAIN - abs(GAIN) // 10 - 1
        assert not evaluate_constraints(reference_definition(), observations).overall_pass

    def test_a_measurement_exactly_the_slack_away_is_satisfied(self):
        definition = OracleDefinition(
            chainid=1,
            fork_block=10,
            variables=(),
            pre_checks=(),
            hard=(),
            soft=(
                Constraint(
                    "S1",
                    "soft",
                    Comparison("x", "within_tolerance", "1000"),
                    tolerance=Tolerance("absolute", 500),
                ),
            ),
            success_criteria="x",
        )
        for measured, satisfied in ((500, True), (1500, True), (499, False), (1501, False)):
            report = evaluate_constraints(definition, {"x": measured})
            assert report.overall_pass is satisfied, measured

    @pytest.mark.parametrize("kind", ["hard", "soft"])
    @pytest.mark.parametrize(
        "comparator, inclusive", [("ge", True), ("le", True), ("gt", False), ("lt", False)]
    )
    def test_a_measurement_at_the_bound_satisfies_only_an_inclusive_comparator(
        self, kind, comparator, inclusive
    ):
        # The bound is 1000, less (ge, gt) or plus (le, lt) a soft slack of 500.
        slack = 500 if kind == "soft" else 0
        constraint = Constraint(
            "C1",
            kind,
            Comparison("x", comparator, "1000"),
            tolerance=Tolerance("absolute", slack) if slack else None,
        )
        definition = OracleDefinition(
            chainid=1,
            fork_block=10,
            variables=(),
            pre_checks=(),
            hard=(constraint,) if kind == "hard" else (),
            soft=(constraint,) if kind == "soft" else (),
            success_criteria="x",
        )
        measured = 1000 - slack if comparator in ("ge", "gt") else 1000 + slack
        assert evaluate_constraints(definition, {"x": measured}).overall_pass is inclusive

    def test_boolean_operands_fail_ordered_comparators(self):
        definition = OracleDefinition(
            chainid=1,
            fork_block=10,
            variables=(),
            pre_checks=(),
            hard=(Constraint("H1", "hard", Comparison("flagged", "gt", "0")),),
            soft=(),
            success_criteria="x",
        )
        report = evaluate_constraints(definition, {"flagged": True})
        assert report.overall_pass is False
        assert "integer operands" in report.constraint_results[0].reason

    def test_address_comparison_is_case_insensitive(self):
        definition = OracleDefinition(
            chainid=1,
            fork_block=10,
            variables=(OracleVariable("pool", "victim_contract", VICTIM),),
            pre_checks=(),
            hard=(Constraint("H1", "hard", Comparison("winner", "eq", "pool")),),
            soft=(),
            success_criteria="x",
        )
        report = evaluate_constraints(definition, {"winner": VICTIM.value.upper().replace("0X", "0x")})
        assert report.overall_pass is True

    @given(
        expected=st.integers(min_value=1, max_value=10**24),
        measured=st.integers(min_value=0, max_value=2 * 10**24),
        narrow=st.integers(min_value=0, max_value=10_000),
        widen_by=st.integers(min_value=0, max_value=10_000),
    )
    def test_widening_tolerance_never_flips_pass_to_reject(
        self, expected: int, measured: int, narrow: int, widen_by: int
    ):
        def verdict(bps: int) -> bool:
            definition = OracleDefinition(
                chainid=1,
                fork_block=10,
                variables=(),
                pre_checks=(),
                hard=(),
                soft=(
                    Constraint(
                        "S1",
                        "soft",
                        Comparison("x", "within_tolerance", str(expected)),
                        tolerance=Tolerance("relative_bps", bps),
                    ),
                ),
                success_criteria="x",
            )
            return evaluate_constraints(definition, {"x": measured}).overall_pass

        if verdict(narrow):
            assert verdict(narrow + widen_by)

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
                constraint = Constraint(
                    "S1",
                    "soft",
                    Comparison("x", comparator, str(expected)),
                    tolerance=Tolerance("relative_bps", bps),
                )
                definition = OracleDefinition(
                    chainid=1,
                    fork_block=10,
                    variables=(),
                    pre_checks=(),
                    hard=(),
                    soft=(constraint,),
                    success_criteria="x",
                )
                results.append(
                    evaluate_constraints(definition, {"x": measured}).overall_pass
                )
            # Non-decreasing sequence of verdicts.
            for earlier, later in zip(results, results[1:]):
                assert later >= earlier


class TestVerdictDoc:
    def test_pass_doc_has_no_reject_reasons(self):
        report = evaluate_constraints(reference_definition(), passing_observations())
        doc = report.to_validation_doc({"correctness": {"compiles": True}}, [])
        assert doc["overall_status"] == "Pass"
        assert "reject_reasons" not in doc
        assert doc["rubric"] == {"correctness": {"compiles": True}}
        assert len(doc["oracle_results"]) == 5
        assert len(doc["pre_check_results"]) == 1

    def test_reject_doc_names_oracle_validation(self):
        observations = passing_observations()
        observations["reward_inflated"] = False
        report = evaluate_constraints(reference_definition(), observations)
        doc = report.to_validation_doc({}, ["oracle_validation_failed"])
        assert doc["overall_status"] == "Reject"
        assert doc["reject_reasons"] == ["oracle_validation_failed"]
