"""Lifecycle mining: from one seed transaction to a minimal incident set.

``extract_participants`` turns the seed's trace and balance diffs into role
candidates.  ``mine_lifecycle`` is the one selection path: it fetches the
adversaries' transaction lists around the seed, and ``_analyse`` does each
step over that universe once (block order, the seed check, the clusters of
repeated entrypoint calls, the qualifying exploit clusters and one funding,
setup, exploit or exit label per record) before the covering set is picked.

All heuristics here are deterministic; they produce candidates for the
analyst roles to confirm, not final judgments.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Optional

from .domain import Address, TxHash
from .gateway import ChainAdapter, DataRequest, GatewayError, adapter_memo, fetch_many
from .gateway.types import BalanceDelta, TraceNode, TxRecord

logger = logging.getLogger(__name__)

#: Block radius mined on each side of the seed.
DEFAULT_WINDOW = 5000


class MinerError(Exception):
    pass


@dataclass(frozen=True)
class ParticipantSet:
    """Role candidates extracted from seed evidence."""

    origin: Address
    adversary_eoas: frozenset[Address]
    adversary_contracts: frozenset[Address]
    victims: frozenset[Address]
    helpers: frozenset[Address]

    @property
    def adversaries(self) -> frozenset[Address]:
        return self.adversary_eoas | self.adversary_contracts


def _is_precompile(address: Address) -> bool:
    return int(address.value, 16) <= 0xFFFF


def extract_participants(
    trace: TraceNode, diffs: Iterable[BalanceDelta]
) -> ParticipantSet:
    """Classify addresses around one transaction into role candidates.

    Heuristics: the trace origin and every net-positive balance holder are
    adversary candidates; net-negative holders are victim candidates;
    remaining intermediate call targets are helpers.  A reverted root frame
    moves nothing, so it yields no victims.
    """
    origin = trace.from_address
    call_targets: set[Address] = set()
    created: set[Address] = set()
    for node in trace.walk():
        if node.to_address is None or _is_precompile(node.to_address):
            continue
        if node.call_type in ("CREATE", "CREATE2"):
            created.add(node.to_address)
        elif node.call_type != "SELFDESTRUCT":
            call_targets.add(node.to_address)

    net: dict[Address, dict[str, int]] = {}
    for entry in diffs:
        per_asset = net.setdefault(entry.address, {})
        per_asset[entry.asset] = per_asset.get(entry.asset, 0) + entry.delta

    gainers = {addr for addr, assets in net.items() if any(d > 0 for d in assets.values())}
    adversary_eoas = {origin} | {a for a in gainers if a not in call_targets and a not in created}
    adversary_contracts = created | {a for a in gainers if a in call_targets}
    adversaries = adversary_eoas | adversary_contracts
    losers = {addr for addr, assets in net.items() if any(d < 0 for d in assets.values())}
    victims = frozenset(losers - adversaries)
    helpers = frozenset(call_targets - adversaries - victims)
    return ParticipantSet(
        origin=origin,
        adversary_eoas=frozenset(adversary_eoas),
        adversary_contracts=frozenset(adversary_contracts),
        victims=victims,
        helpers=frozenset(helpers),
    )


@dataclass(frozen=True)
class TxCluster:
    """Transactions sharing one (counterparty, entrypoint selector) pair."""

    counterparty: Optional[Address]
    selector: Optional[str]
    members: tuple[TxRecord, ...]


def cluster_records(universe: Iterable[TxRecord]) -> list[TxCluster]:
    """Partition a universe in block order (``TxRecord.order_key``) by
    (counterparty, selector).  Members keep the universe's order, so
    clusters come out in first-member order."""
    groups: dict[tuple[Optional[str], Optional[str]], list[TxRecord]] = {}
    for record in universe:
        key = (
            record.to_address.value if record.to_address else None,
            record.selector,
        )
        groups.setdefault(key, []).append(record)
    return [
        TxCluster(
            counterparty=Address(to_value) if to_value else None,
            selector=selector,
            members=tuple(members),
        )
        for (to_value, selector), members in groups.items()
    ]


def exploit_clusters(
    clusters: list[TxCluster], seed: TxHash, participants: ParticipantSet
) -> list[TxCluster]:
    """The qualifying repeated-entrypoint clusters, in the given order.

    A cluster qualifies when it carries a function selector and either
    contains the seed or repeatedly targets a known participant contract.
    """
    interesting = participants.victims | participants.helpers | participants.adversary_contracts
    return [
        cluster
        for cluster in clusters
        if cluster.selector is not None
        and (
            any(m.txhash == seed for m in cluster.members)
            or (len(cluster.members) >= 2 and cluster.counterparty in interesting)
        )
    ]


def _analyse(
    records: Iterable[TxRecord], seed: TxHash, participants: ParticipantSet
) -> tuple[list[TxRecord], dict[TxHash, str], list[TxCluster]]:
    """The block-ordered universe, each record's phase (in universe order)
    and the qualifying exploit clusters.

    Members of the qualifying clusters are the exploit, or the seed alone
    when none qualifies.  A record paying an adversary EOA from outside is
    funding, an adversary's record after the last exploit block is exit, and
    anything else is setup.
    """
    universe = sorted(records, key=TxRecord.order_key)
    if not any(r.txhash == seed for r in universe):
        raise MinerError(f"seed transaction {seed} not present in mined window")
    qualifying = exploit_clusters(cluster_records(universe), seed, participants)
    exploit = {m.txhash for cluster in qualifying for m in cluster.members} or {seed}
    last_exploit_block = max(r.block_number for r in universe if r.txhash in exploit)

    phases: dict[TxHash, str] = {}
    adversaries = participants.adversaries
    for record in universe:
        if record.txhash in exploit:
            phases[record.txhash] = "exploit"
        elif (
            record.to_address in participants.adversary_eoas
            and record.from_address not in adversaries
            and record.value > 0
        ):
            phases[record.txhash] = "funding"
        elif record.block_number > last_exploit_block and record.from_address in adversaries:
            phases[record.txhash] = "exit"
        else:
            phases[record.txhash] = "setup"
    return universe, phases, qualifying


@dataclass(frozen=True)
class LifecycleEntry:
    txhash: TxHash
    phase: str
    block_number: int


@dataclass(frozen=True)
class LifecycleSet:
    """Minimal phase-covering transaction set, in block order."""

    entries: tuple[LifecycleEntry, ...]

    def hashes(self) -> list[str]:
        return [e.txhash.value for e in self.entries]


def mine_lifecycle(
    adapter: ChainAdapter,
    chainid: int,
    seed: TxHash,
    participants: ParticipantSet,
) -> tuple[LifecycleSet, list[TxRecord]]:
    """Fetch adversary transaction lists around the seed and pick the minimal
    lifecycle set: the seed, both ends of every qualifying exploit cluster,
    and a witness of every other phase, its first record or, for exit, its
    last.  Each member but the seed is forced by one of these, so dropping
    any one breaks coverage.  Raises ``MinerError`` when the seed is not in
    the window.

    The seed's block comes from its ``tx_metadata``, fetched through
    ``adapter_memo(adapter)``: after ``monitor.resolve_chains`` on the same
    adapter it is the payload the probe wave found, read from memory, and
    given a ``SessionMemo`` it comes through that memo.  The lists are fetched
    concurrently, straight from the adapter since a window may reach past the
    chain head; the first failure in account order is raised once every list
    has been fetched.  They are merged in sorted-account order, so the first
    account to list a transaction supplies its record, and ``_analyse`` sorts
    the merged records once; that block-ordered universe is returned.
    """
    metadata = adapter_memo(adapter).fetch(
        DataRequest(kind="tx_metadata", chainid=chainid, target=str(seed))
    )
    seed_block = metadata.get("block_number", 0)
    lo = max(0, seed_block - DEFAULT_WINDOW)
    hi = seed_block + DEFAULT_WINDOW
    requests = [
        DataRequest(kind="txlist", chainid=chainid, target=account.value, block_lo=lo, block_hi=hi)
        for account in sorted(participants.adversaries)
    ]
    merged: dict[TxHash, TxRecord] = {}
    for payload in fetch_many(adapter, requests):
        if isinstance(payload, GatewayError):
            raise payload
        for doc in payload.get("records", []):
            record = TxRecord.from_doc(doc)
            merged.setdefault(record.txhash, record)
    universe, phases, qualifying = _analyse(merged.values(), seed, participants)

    chosen: set[TxHash] = {seed}
    for cluster in qualifying:
        chosen |= {cluster.members[0].txhash, cluster.members[-1].txhash}
    witnessed = {phases[h] for h in chosen}
    for phase in ("funding", "setup", "exit"):
        members = [h for h, p in phases.items() if p == phase]  # block order
        if members and phase not in witnessed:
            chosen.add(members[-1] if phase == "exit" else members[0])
    entries = tuple(
        LifecycleEntry(record.txhash, phases[record.txhash], record.block_number)
        for record in universe
        if record.txhash in chosen
    )
    logger.info(
        "mined %d-tx lifecycle from %d records in window [%d, %d]",
        len(entries),
        len(universe),
        lo,
        hi,
    )
    return LifecycleSet(entries=entries), universe
