"""Lifecycle mining: role extraction, phase labels, covering-set minimality.

``mine_lifecycle`` is checked, over an in-memory adapter, against exhaustive
subset enumeration on every universe small enough to enumerate, so
minimality is never taken on faith.  The coverage rule it must meet is
written out here, as ``covers``, apart from the miner's own selection.
"""

from __future__ import annotations

import itertools
import random
import threading
from collections import Counter

import pytest

from txpostmortem.domain import SUPPORTED_CHAINS, Address, TxHash
from txpostmortem.gateway.types import BalanceDelta, TraceNode, TxRecord
from txpostmortem.lifecycle import (
    DEFAULT_WINDOW,
    MinerError,
    ParticipantSet,
    _analyse,
    cluster_records,
    extract_participants,
    mine_lifecycle,
)
from txpostmortem.monitor import resolve_chains
from txpostmortem.scenarios import (
    PRXVT_ALL_RELEVANT,
    PRXVT_CHAIN,
    PRXVT_LIFECYCLE,
    PRXVT_PARTICIPANTS,
    PRXVT_SEED,
    VAL_CHAIN,
    VAL_PARTICIPANTS,
    VAL_SEED,
    VAL_TX_DEPLOY,
)

ATTACKER = Address("0x" + "aa" * 20)
CONTRACT = Address("0x" + "ac" * 20)
VICTIM = Address("0x" + "bb" * 20)
HELPER = Address("0x" + "cc" * 20)
OUTSIDER = Address("0x" + "dd" * 20)

PARTICIPANTS = ParticipantSet(
    origin=ATTACKER,
    adversary_eoas=frozenset({ATTACKER}),
    adversary_contracts=frozenset({CONTRACT}),
    victims=frozenset({VICTIM}),
    helpers=frozenset({HELPER}),
)

SEL_STAKE = "0xa694fc3a"
SEL_RUN = "0xe6d7db7e"


def _rec(
    n: int,
    block: int,
    to: Address | None,
    selector: str | None,
    sender: Address = ATTACKER,
    value: int = 0,
) -> TxRecord:
    return TxRecord(
        txhash=TxHash("0x" + f"{n:064x}"),
        block_number=block,
        from_address=sender,
        to_address=to,
        selector=selector,
        value=value,
    )


class MemoryAdapter:
    """A node that knows the seed's block, and an explorer that lists every
    one of ``records``, in the given order, for each account."""

    def __init__(self, records, seed):
        self.records = records
        self.seed_block = next((r.block_number for r in records if r.txhash == seed), 0)

    def fetch(self, request):
        if request.kind == "tx_metadata":
            return {"block_number": self.seed_block}
        assert request.kind == "txlist"
        return {"records": [_doc(r) for r in self.records]}


def _doc(record: TxRecord) -> dict:
    return {
        "txhash": record.txhash.value,
        "block_number": record.block_number,
        "from": record.from_address.value,
        "to": record.to_address.value if record.to_address else None,
        "selector": record.selector,
        "value": record.value,
        "index": record.index,
    }


def mine(records, seed, participants=PARTICIPANTS):
    """``mine_lifecycle`` over ``records`` as the whole window."""
    return mine_lifecycle(MemoryAdapter(records, seed), 1, seed, participants)


def covers(subset, universe, seed, participants) -> bool:
    """True when ``subset`` holds the seed, both ends of every qualifying
    exploit cluster, and a witness of every other phase in the universe."""
    _, phases, qualifying = _analyse(universe, seed, participants)
    spans = [{c.members[0].txhash, c.members[-1].txhash} for c in qualifying]
    if seed not in subset or not all(span <= subset for span in spans):
        return False
    return set(phases.values()) - {"exploit"} <= {phases.get(h) for h in subset}


def brute_force_minimum(universe, seed, participants) -> int:
    """Smallest covering subset size, by exhaustive ascending enumeration."""
    hashes = [r.txhash for r in universe]
    for size in range(1, len(hashes) + 1):
        for combo in itertools.combinations(hashes, size):
            if covers(set(combo), universe, seed, participants):
                return size
    raise AssertionError("universe has no covering subset at all")


def assert_selection_is_minimal(records, seed, participants):
    mined, universe = mine(records, seed, participants)
    assert universe == sorted(records, key=TxRecord.order_key)
    chosen = {e.txhash for e in mined.entries}
    assert seed in chosen
    assert covers(chosen, universe, seed, participants)
    assert len(chosen) == brute_force_minimum(universe, seed, participants)
    return mined


class TestExtractParticipants:
    def _trace(self) -> TraceNode:
        return TraceNode.from_doc(
            {
                "call_type": "CALL",
                "from": ATTACKER.value,
                "to": CONTRACT.value,
                "children": [
                    {
                        "call_type": "CALL",
                        "from": CONTRACT.value,
                        "to": VICTIM.value,
                        "children": [],
                    },
                    {
                        "call_type": "CALL",
                        "from": CONTRACT.value,
                        "to": HELPER.value,
                        "children": [],
                    },
                    {
                        "call_type": "CALL",
                        "from": CONTRACT.value,
                        "to": "0x" + "00" * 19 + "04",  # precompile, ignored
                        "children": [],
                    },
                ],
            }
        )

    def _diffs(self) -> list[BalanceDelta]:
        return [
            BalanceDelta(address=CONTRACT, asset="native", delta=5),
            BalanceDelta(address=VICTIM, asset="native", delta=-5),
        ]

    def test_roles_from_trace_and_diffs(self):
        participants = extract_participants(self._trace(), self._diffs())
        assert participants.origin == ATTACKER
        assert ATTACKER in participants.adversary_eoas
        assert CONTRACT in participants.adversary_contracts
        assert participants.victims == frozenset({VICTIM})
        assert participants.helpers == frozenset({HELPER})

    def test_created_contracts_are_adversary_side(self):
        trace = TraceNode.from_doc(
            {
                "call_type": "CALL",
                "from": ATTACKER.value,
                "to": CONTRACT.value,
                "children": [
                    {
                        "call_type": "CREATE",
                        "from": CONTRACT.value,
                        "to": OUTSIDER.value,
                        "children": [],
                    }
                ],
            }
        )
        participants = extract_participants(trace, [])
        assert OUTSIDER in participants.adversary_contracts
        assert OUTSIDER not in participants.helpers

    def test_gainer_outside_the_callgraph_is_an_adversary_eoa(self):
        diffs = self._diffs() + [BalanceDelta(address=OUTSIDER, asset="native", delta=9)]
        participants = extract_participants(self._trace(), diffs)
        assert OUTSIDER in participants.adversary_eoas


class TestClustering:
    def test_clusters_in_first_member_order_members_in_block_order(self):
        records = [
            _rec(1, 130, VICTIM, SEL_RUN),
            _rec(2, 110, VICTIM, SEL_RUN),
            _rec(3, 105, HELPER, SEL_STAKE),
            _rec(4, 100, VICTIM, SEL_RUN),
        ]
        clusters = cluster_records(sorted(records, key=TxRecord.order_key))
        assert [(c.counterparty, c.selector) for c in clusters] == [
            (VICTIM, SEL_RUN),
            (HELPER, SEL_STAKE),
        ]
        assert [m.block_number for m in clusters[0].members] == [100, 110, 130]

    def test_phase_rules(self):
        seed = _rec(10, 120, VICTIM, SEL_RUN)
        records = [
            _rec(1, 90, ATTACKER, None, sender=OUTSIDER, value=10**18),  # funding
            _rec(2, 100, VICTIM, SEL_STAKE),  # setup: lone selector call
            seed,
            _rec(11, 130, VICTIM, SEL_RUN),  # exploit: same cluster as seed
            _rec(20, 140, OUTSIDER, None),  # exit: adversary acts after exploit
        ]
        # Every record is a cluster end or the one witness of its phase.
        phases = {e.txhash: e.phase for e in mine(records, seed.txhash)[0].entries}
        assert len(phases) == len(records)
        assert phases[seed.txhash] == "exploit"
        assert phases[records[0].txhash] == "funding"
        assert phases[records[1].txhash] == "setup"
        assert phases[records[3].txhash] == "exploit"
        assert phases[records[4].txhash] == "exit"
        assert set(phases.values()) <= {"funding", "setup", "exploit", "exit"}

    def test_seed_alone_is_the_exploit(self):
        seed = _rec(1, 100, VICTIM, SEL_RUN)
        mined, _ = mine([seed], seed.txhash)
        assert [(e.txhash, e.phase) for e in mined.entries] == [(seed.txhash, "exploit")]


class TestCoverage:
    def test_seed_must_be_in_the_window(self):
        absent = TxHash("0x" + "99" * 32)
        records = [_rec(1, 100, VICTIM, SEL_RUN)]
        with pytest.raises(MinerError):
            mine(records, absent)
        with pytest.raises(MinerError):
            covers({absent}, records, absent, PARTICIPANTS)

    def test_subset_without_seed_never_covers(self):
        seed = _rec(1, 100, VICTIM, SEL_RUN)
        other = _rec(2, 110, VICTIM, SEL_RUN)
        assert not covers({other.txhash}, [seed, other], seed.txhash, PARTICIPANTS)

    def test_full_universe_always_covers(self):
        seed = _rec(1, 100, VICTIM, SEL_RUN)
        records = [seed, _rec(2, 90, VICTIM, SEL_STAKE), _rec(3, 140, OUTSIDER, None)]
        assert covers({r.txhash for r in records}, records, seed.txhash, PARTICIPANTS)


class TestSelectionMinimality:
    """Exhaustive enumeration confirms minimality on every small universe."""

    def test_singleton_universe(self):
        seed = _rec(1, 100, VICTIM, SEL_RUN)
        lifecycle = assert_selection_is_minimal([seed], seed.txhash, PARTICIPANTS)
        assert lifecycle.hashes() == [seed.txhash.value]
        assert [e.phase for e in lifecycle.entries] == ["exploit"]

    def test_full_lifecycle_universe(self):
        seed = _rec(10, 120, VICTIM, SEL_RUN)
        universe = [
            _rec(1, 90, ATTACKER, None, sender=OUTSIDER, value=10**18),
            _rec(2, 100, VICTIM, SEL_STAKE),
            _rec(3, 105, HELPER, SEL_STAKE),
            seed,
            _rec(11, 125, VICTIM, SEL_RUN),
            _rec(12, 130, VICTIM, SEL_RUN),
            _rec(20, 140, OUTSIDER, None),
        ]
        lifecycle = assert_selection_is_minimal(universe, seed.txhash, PARTICIPANTS)
        # funding + one setup witness + cluster span (seed is first) + exit
        assert len(lifecycle.entries) == 5
        assert {e.phase for e in lifecycle.entries} == {"funding", "setup", "exploit", "exit"}
        blocks = [e.block_number for e in lifecycle.entries]
        assert blocks == sorted(blocks)

    def test_two_qualifying_clusters(self):
        seed = _rec(10, 120, VICTIM, SEL_RUN)
        universe = [
            seed,
            _rec(11, 130, VICTIM, SEL_RUN),
            _rec(12, 135, VICTIM, SEL_RUN),
            _rec(21, 140, HELPER, SEL_STAKE),
            _rec(22, 150, HELPER, SEL_STAKE),
        ]
        lifecycle = assert_selection_is_minimal(universe, seed.txhash, PARTICIPANTS)
        chosen = set(lifecycle.hashes())
        # Both spans are witnessed: seed..135 and 140..150.
        assert universe[0].txhash.value in chosen
        assert universe[2].txhash.value in chosen
        assert universe[3].txhash.value in chosen
        assert universe[4].txhash.value in chosen

    def test_randomized_universes(self):
        rng = random.Random(20260819)
        counterparties = [VICTIM, HELPER, CONTRACT, ATTACKER, OUTSIDER, None]
        selectors = [None, SEL_RUN, SEL_STAKE, "0xdeadbeef"]
        for trial in range(25):
            size = rng.randint(1, 10)
            records = []
            for n in range(size):
                sender = ATTACKER if rng.random() < 0.8 else OUTSIDER
                records.append(
                    _rec(
                        n + 1,
                        block=rng.randint(100, 140),
                        to=rng.choice(counterparties),
                        selector=rng.choice(selectors),
                        sender=sender,
                        value=rng.choice([0, 0, 10**18]),
                    )
                )
            seed = rng.choice(records)
            assert_selection_is_minimal(records, seed.txhash, PARTICIPANTS)


class TestBundledIncidents:
    """Both demo incidents replay through the miner with known answers."""

    def test_staking_drain_covering_set(self, prxvt_run):
        adapter = prxvt_run.bundle.adapter()
        lifecycle, universe = mine_lifecycle(
            adapter, PRXVT_CHAIN, TxHash(PRXVT_SEED), PRXVT_PARTICIPANTS
        )
        assert len(universe) == 8
        assert {r.txhash.value for r in universe} == set(PRXVT_ALL_RELEVANT)
        assert lifecycle.hashes() == [tx for tx, _ in PRXVT_LIFECYCLE]
        assert [(e.txhash.value, e.phase) for e in lifecycle.entries] == list(
            PRXVT_LIFECYCLE
        )
        assert len(lifecycle.entries) == brute_force_minimum(
            universe, TxHash(PRXVT_SEED), PRXVT_PARTICIPANTS
        )

    def test_migration_swap_covering_set(self, valinity_run):
        adapter = valinity_run.bundle.adapter()
        lifecycle, universe = mine_lifecycle(
            adapter, VAL_CHAIN, TxHash(VAL_SEED), VAL_PARTICIPANTS
        )
        assert len(universe) == 14
        assert [(e.txhash.value, e.phase) for e in lifecycle.entries] == [
            (VAL_TX_DEPLOY, "setup"),
            (VAL_SEED, "exploit"),
        ]
        assert len(lifecycle.entries) == brute_force_minimum(
            universe, TxHash(VAL_SEED), VAL_PARTICIPANTS
        )

    def test_mining_after_resolving_makes_no_metadata_call(self, prxvt_run):
        class Counting:
            def __init__(self, inner):
                self.inner = inner
                self.calls: Counter[tuple[str, int]] = Counter()
                self._lock = threading.Lock()

            def fetch(self, request):
                with self._lock:
                    self.calls[(request.kind, request.chainid)] += 1
                return self.inner.fetch(request)

        adapter = Counting(prxvt_run.bundle.adapter())
        seed = TxHash(PRXVT_SEED)
        assert resolve_chains([seed], adapter) == {seed.value: [PRXVT_CHAIN]}
        lifecycle, _ = mine_lifecycle(adapter, PRXVT_CHAIN, seed, PRXVT_PARTICIPANTS)
        assert lifecycle.hashes() == [tx for tx, _ in PRXVT_LIFECYCLE]
        lookups = Counter(c for kind, c in adapter.calls.elements() if kind == "tx_lookup")
        assert lookups == {chainid: 1 for chainid in SUPPORTED_CHAINS}
        # The seed's metadata comes from the wave, so no tx_metadata call.
        assert {kind for kind, _ in adapter.calls} == {"tx_lookup", "txlist"}

    @pytest.mark.parametrize(
        "case, chainid, seed, participants, listed, universe_size",
        [
            ("prxvt", PRXVT_CHAIN, PRXVT_SEED, PRXVT_PARTICIPANTS, 14, 8),
            ("valinity", VAL_CHAIN, VAL_SEED, VAL_PARTICIPANTS, 16, 14),
        ],
    )
    def test_a_mine_sorts_its_universe_once(
        self, request, monkeypatch, case, chainid, seed, participants, listed, universe_size
    ):
        """The merged universe is sorted once, and no account's list on its
        own: one ``order_key`` call per universe record, fewer than the
        records listed."""
        adapter = request.getfixturevalue(f"{case}_run").bundle.adapter()
        calls = []
        order_key = TxRecord.order_key

        def counting_order_key(record):
            calls.append(record)
            return order_key(record)

        monkeypatch.setattr(TxRecord, "order_key", counting_order_key)
        _, universe = mine_lifecycle(adapter, chainid, TxHash(seed), participants)
        assert len(universe) == universe_size
        assert len(calls) == universe_size < listed

    def test_window_default_radius(self):
        assert DEFAULT_WINDOW == 5000
