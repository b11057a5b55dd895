"""Lifecycle mining: from one seed transaction to a minimal incident set.

Given the seed's call trace and balance diffs plus transaction lists for the
adversary-side accounts, this module extracts participant roles, clusters
repeated entrypoint calls, labels funding/setup/exploit/exit phases, and
selects a minimal transaction set that still covers every observed phase.

All heuristics here are deterministic; they produce candidates for the
analyst roles to confirm, not final judgments.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .domain import Address, TxHash
from .gateway import ChainAdapter, DataRequest, adapter_memo, fetch_txlists
from .gateway.types import BalanceDelta, TraceNode, TxRecord

logger = logging.getLogger(__name__)

#: Block radius mined on each side of the seed.
DEFAULT_WINDOW = 5000

PHASES = ("funding", "setup", "exploit", "exit")


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

    def to_doc(self) -> dict:
        return {
            "origin": self.origin.value,
            "adversary_eoas": sorted(a.value for a in self.adversary_eoas),
            "adversary_contracts": sorted(a.value for a in self.adversary_contracts),
            "victims": sorted(a.value for a in self.victims),
            "helpers": sorted(a.value for a in self.helpers),
        }


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

    @property
    def first(self) -> TxRecord:
        return self.members[0]

    @property
    def last(self) -> TxRecord:
        return self.members[-1]

    def hashes(self) -> set[TxHash]:
        return {m.txhash for m in self.members}


def cluster_records(records: Iterable[TxRecord]) -> list[TxCluster]:
    """Partition records by (counterparty, selector), largest cluster first."""
    groups: dict[tuple[Optional[str], Optional[str]], list[TxRecord]] = {}
    for record in records:
        key = (
            record.to_address.value if record.to_address else None,
            record.selector,
        )
        groups.setdefault(key, []).append(record)
    clusters = []
    for (to_value, selector), members in groups.items():
        members.sort(key=TxRecord.order_key)
        clusters.append(
            TxCluster(
                counterparty=Address(to_value) if to_value else None,
                selector=selector,
                members=tuple(members),
            )
        )
    clusters.sort(
        key=lambda c: (
            -len(c.members),
            c.first.order_key(),
            c.counterparty.value if c.counterparty else "",
            c.selector or "",
        )
    )
    return clusters


def exploit_clusters(
    clusters: list[TxCluster], seed: TxHash, participants: ParticipantSet
) -> list[TxCluster]:
    """Qualifying repeated-entrypoint clusters, dominant (largest) first.

    A cluster qualifies when it carries a function selector and either
    contains the seed or repeatedly targets a known participant contract.
    Ties in size are broken in favor of the cluster containing the seed.
    """
    interesting = participants.victims | participants.helpers | participants.adversary_contracts
    qualifying = []
    for cluster in clusters:
        if cluster.selector is None:
            continue
        if any(m.txhash == seed for m in cluster.members):
            qualifying.append(cluster)
        elif len(cluster.members) >= 2 and cluster.counterparty in interesting:
            qualifying.append(cluster)
    qualifying.sort(
        key=lambda c: (
            -len(c.members),
            0 if any(m.txhash == seed for m in c.members) else 1,
            c.first.order_key(),
        )
    )
    return qualifying


def classify_phases(
    records: Iterable[TxRecord],
    seed: TxHash,
    participants: ParticipantSet,
    clusters: list[TxCluster] | None = None,
) -> dict[TxHash, str]:
    """Assign one lifecycle phase to every record in the universe."""
    universe = sorted(records, key=TxRecord.order_key)
    if clusters is None:
        clusters = cluster_records(universe)
    return _phases(universe, seed, participants, exploit_clusters(clusters, seed, participants))


def _phases(
    universe: list[TxRecord],
    seed: TxHash,
    participants: ParticipantSet,
    qualifying: list[TxCluster],
) -> dict[TxHash, str]:
    """``classify_phases`` over a sorted universe whose qualifying exploit
    clusters are known; the phases come in universe order."""
    exploit_hashes: set[TxHash] = set()
    for cluster in qualifying:
        exploit_hashes |= cluster.hashes()
    if not exploit_hashes:
        exploit_hashes = {seed}
    exploit_blocks = [
        r.block_number for r in universe if r.txhash in exploit_hashes
    ]
    last_exploit_block = max(exploit_blocks) if exploit_blocks else 0

    phases: dict[TxHash, str] = {}
    adversaries = participants.adversaries
    for record in universe:
        if record.txhash in exploit_hashes:
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
    return phases


@dataclass(frozen=True)
class LifecycleEntry:
    txhash: TxHash
    phase: str
    block_number: int

    def to_doc(self) -> dict:
        return {
            "txhash": self.txhash.value,
            "phase": self.phase,
            "block_number": self.block_number,
        }


@dataclass(frozen=True)
class LifecycleSet:
    """Minimal phase-covering transaction set, in block order."""

    entries: tuple[LifecycleEntry, ...]
    seed: TxHash

    def hashes(self) -> list[str]:
        return [e.txhash.value for e in self.entries]

    def phases_present(self) -> set[str]:
        return {e.phase for e in self.entries}

    def to_doc(self) -> dict:
        return {
            "seed": self.seed.value,
            "entries": [e.to_doc() for e in self.entries],
        }


@dataclass(frozen=True)
class _CoverageRequirements:
    """What a subset must contain to count as covering the incident."""

    seed: TxHash
    cluster_endpoints: tuple[frozenset[TxHash], ...]  # {first,last} per cluster
    phase_pools: dict[str, frozenset[TxHash]] = field(default_factory=dict)


def coverage_requirements(
    records: Iterable[TxRecord], seed: TxHash, participants: ParticipantSet
) -> _CoverageRequirements:
    return _requirements(sorted(records, key=TxRecord.order_key), seed, participants)[0]


def _requirements(
    universe: list[TxRecord], seed: TxHash, participants: ParticipantSet
) -> tuple[_CoverageRequirements, dict[TxHash, str]]:
    """``coverage_requirements`` of a sorted universe, with the phases
    (in universe order) that its pools come from."""
    if not any(r.txhash == seed for r in universe):
        raise MinerError(f"seed transaction {seed} not present in mined window")
    qualifying = exploit_clusters(cluster_records(universe), seed, participants)
    phases = _phases(universe, seed, participants, qualifying)
    endpoints = tuple(
        frozenset({c.first.txhash, c.last.txhash}) for c in qualifying
    )
    pools: dict[str, frozenset[TxHash]] = {}
    for phase in ("funding", "setup", "exit"):
        pool = frozenset(h for h, p in phases.items() if p == phase)
        if pool:
            pools[phase] = pool
    req = _CoverageRequirements(seed=seed, cluster_endpoints=endpoints, phase_pools=pools)
    return req, phases


def covers(
    subset: set[TxHash],
    records: Iterable[TxRecord],
    seed: TxHash,
    participants: ParticipantSet,
) -> bool:
    """True when ``subset`` witnesses every phase and exploit-cluster span."""
    req = coverage_requirements(records, seed, participants)
    if req.seed not in subset:
        return False
    for endpoints in req.cluster_endpoints:
        if not endpoints <= subset:
            return False
    for pool in req.phase_pools.values():
        if not pool & subset:
            return False
    return True


def select_covering_set(
    records: Iterable[TxRecord], seed: TxHash, participants: ParticipantSet
) -> LifecycleSet:
    """Pick the minimal lifecycle set: seed, cluster spans, phase witnesses.

    Every member other than the seed is forced by some coverage requirement,
    so dropping any one of them breaks coverage.
    """
    universe = sorted(records, key=TxRecord.order_key)
    req, phases = _requirements(universe, seed, participants)

    chosen: set[TxHash] = {seed}
    for endpoints in req.cluster_endpoints:
        chosen |= endpoints
    for phase, pool in req.phase_pools.items():
        if chosen & pool:
            # The seed may sit inside a phase pool; it already witnesses it.
            continue
        members = [h for h, p in phases.items() if p == phase]  # block order
        chosen.add(members[-1] if phase == "exit" else members[0])

    entries = tuple(
        LifecycleEntry(
            txhash=record.txhash,
            phase=phases[record.txhash],
            block_number=record.block_number,
        )
        for record in universe
        if record.txhash in chosen
    )
    return LifecycleSet(entries=entries, seed=seed)


def mine_lifecycle(
    adapter: ChainAdapter,
    chainid: int,
    seed: TxHash,
    participants: ParticipantSet,
) -> tuple[LifecycleSet, list[TxRecord]]:
    """Fetch adversary transaction lists around the seed and select the set.

    The seed's block comes from its ``tx_metadata``, fetched through
    ``adapter_memo(adapter)``: after ``monitor.resolve_chains`` on the same
    adapter it is the payload the probe wave found, read from memory, and
    given a ``SessionMemo`` it comes through that memo.  The lists are fetched
    concurrently once the seed's block is known, straight from the adapter
    since a window may reach past the chain head, and merged in
    sorted-account order, so the first account to list a transaction
    supplies its record.
    """
    metadata = adapter_memo(adapter).fetch(
        DataRequest(kind="tx_metadata", chainid=chainid, target=str(seed))
    )
    seed_block = metadata.get("block_number", 0)
    lo = max(0, seed_block - DEFAULT_WINDOW)
    hi = seed_block + DEFAULT_WINDOW
    accounts = sorted(participants.adversaries)
    merged: dict[TxHash, TxRecord] = {}
    for records in fetch_txlists(adapter, chainid, [a.value for a in accounts], lo, hi):
        for record in records:
            merged.setdefault(record.txhash, record)
    universe = sorted(merged.values(), key=TxRecord.order_key)
    lifecycle = select_covering_set(universe, seed, participants)
    logger.info(
        "mined %d-tx lifecycle from %d records in window [%d, %d]",
        len(lifecycle.entries),
        len(universe),
        lo,
        hi,
    )
    return lifecycle, universe
