"""Feed monitor: concurrent chain probes and one resolution per hash."""

from __future__ import annotations

import gc
import sys
import threading
import time
from collections import Counter
from datetime import datetime, timezone

import pytest

from txpostmortem.domain import SUPPORTED_CHAINS, SeedRef, TxHash
from txpostmortem.gateway import FETCH_WORKERS, LiveAdapter, MissingFixture, fetch_many
from txpostmortem.gateway.types import DataRequest
from txpostmortem.monitor import (
    DEFAULT_PROBE_ORDER,
    AmbiguousChain,
    ChainNotFound,
    IncidentCandidate,
    Post,
    ScriptedClassifier,
    dedupe_and_filter,
    resolve_chain,
)

TX = TxHash("0x" + "ab" * 32)
OTHER_TX = TxHash("0x" + "cd" * 32)
STRAY_TX = TxHash("0x" + "ef" * 32)
HOME, SECOND = DEFAULT_PROBE_ORDER[1], DEFAULT_PROBE_ORDER[9]


class _ChainsAdapter:
    """Finds each transaction on the chains listed for it; counts every call
    and keeps the most threads seen alive during one."""

    def __init__(self, hosts: dict[str, set[int]]):
        self.hosts = hosts
        self.calls: list[DataRequest] = []
        self.threads = 0
        self._lock = threading.Lock()

    def fetch(self, request: DataRequest) -> dict:
        with self._lock:
            self.calls.append(request)
            self.threads = max(self.threads, threading.active_count())
        self.wait(request)
        if request.chainid not in self.hosts.get(request.target, set()):
            raise MissingFixture(f"{request.target} not on {request.chainid}")
        return {"txhash": request.target, "chainid": request.chainid}

    def wait(self, request: DataRequest) -> None:
        pass


class _PeakAdapter(_ChainsAdapter):
    """Keeps, per chain, the most calls seen in flight at once.  Every call
    is held 10 ms, or until ``parties`` calls are in flight together."""

    def __init__(self, hosts: dict[str, set[int]], parties: int | None = None):
        super().__init__(hosts)
        self.barrier = threading.Barrier(parties, timeout=5) if parties else None
        self.in_flight: Counter[int] = Counter()
        self.peaks: Counter[int] = Counter()

    def wait(self, request: DataRequest) -> None:
        with self._lock:
            self.in_flight[request.chainid] += 1
            self.peaks[request.chainid] = max(
                self.peaks[request.chainid], self.in_flight[request.chainid]
            )
        if self.barrier:
            self.barrier.wait()
        else:
            time.sleep(0.01)
        with self._lock:
            self.in_flight[request.chainid] -= 1


def _probes(chains, txs=(TX,)) -> list[DataRequest]:
    return [
        DataRequest(kind="tx_metadata", chainid=chainid, target=tx.value)
        for tx in txs
        for chainid in chains
    ]


class TestConcurrentProbes:
    @pytest.mark.parametrize(
        "n", [2, FETCH_WORKERS, 2 * FETCH_WORKERS, len(SUPPORTED_CHAINS)]
    )
    def test_probes_overlap(self, n):
        adapter = _PeakAdapter({TX.value: {HOME}}, parties=n)
        before = threading.active_count()
        assert resolve_chain(TX, adapter, DEFAULT_PROBE_ORDER[:n]) == HOME
        assert len(adapter.calls) == n
        assert adapter.threads - before <= n

    def test_in_flight_per_chain_never_exceeds_the_cap(self):
        # Twice the cap on one chain, then a probe on every chain.
        requests = _probes([HOME] * 2 * FETCH_WORKERS) + _probes(DEFAULT_PROBE_ORDER)
        adapter = _PeakAdapter({TX.value: {HOME}})
        payloads = fetch_many(adapter, requests)
        assert len(adapter.calls) == len(requests)
        assert set(adapter.peaks) == set(SUPPORTED_CHAINS)
        assert max(adapter.peaks.values()) <= FETCH_WORKERS
        assert sum(not isinstance(p, MissingFixture) for p in payloads) == 1 + 2 * FETCH_WORKERS

    def test_single_chain_batch_peaks_at_the_cap(self):
        adapter = _PeakAdapter({TX.value: {HOME}}, parties=FETCH_WORKERS)
        before = threading.active_count()
        payloads = fetch_many(adapter, _probes([HOME] * 2 * FETCH_WORKERS))
        assert payloads == [{"txhash": TX.value, "chainid": HOME}] * 2 * FETCH_WORKERS
        assert adapter.peaks == {HOME: FETCH_WORKERS}
        assert adapter.threads - before <= FETCH_WORKERS

    def test_mixed_chain_batch_keeps_request_order(self):
        requests = _probes(DEFAULT_PROBE_ORDER[:6], (TX, OTHER_TX, STRAY_TX))
        position = {(r.chainid, r.target): k for k, r in enumerate(requests)}

        class LaterAnswersFirst(_ChainsAdapter):
            def wait(self, request):
                time.sleep(0.002 * (len(requests) - position[request.chainid, request.target]))

        every_chain = set(DEFAULT_PROBE_ORDER)
        adapter = LaterAnswersFirst({tx.value: every_chain for tx in (TX, OTHER_TX, STRAY_TX)})
        assert fetch_many(adapter, requests) == [
            {"txhash": r.target, "chainid": r.chainid} for r in requests
        ]

    def test_ambiguous_matches_keep_probe_order(self):
        class LaterAnswersFirst(_ChainsAdapter):
            def wait(self, request):
                time.sleep(0.05 if request.chainid == HOME else 0.0)

        adapter = LaterAnswersFirst({TX.value: {SECOND, HOME}})
        with pytest.raises(AmbiguousChain) as info:
            resolve_chain(TX, adapter)
        assert info.value.matches == [HOME, SECOND]

    def test_no_host_raises_chain_not_found(self):
        with pytest.raises(ChainNotFound) as info:
            resolve_chain(TX, _ChainsAdapter({}))
        assert info.value.txhash == TX.value

    def test_other_errors_propagate_and_no_thread_outlives_the_call(self):
        class Broken(_ChainsAdapter):
            def wait(self, request):
                if request.chainid == SECOND:
                    raise RuntimeError("adapter bug")

        before = threading.active_count()
        with pytest.raises(RuntimeError, match="adapter bug"):
            resolve_chain(TX, Broken({TX.value: {HOME}}))
        assert threading.active_count() == before

    def test_live_adapter_gives_every_concurrent_request_its_own_id(self):
        ids = []
        lock = threading.Lock()

        def rpc_post(url, body, timeout):
            with lock:
                ids.append(body["id"])
            time.sleep(0.001)
            return {"jsonrpc": "2.0", "id": body["id"], "result": None}

        adapter = LiveAdapter(
            env={},
            rpc_map={chainid: f"http://node/{chainid}" for chainid in SUPPORTED_CHAINS},
            rpc_post=rpc_post,
            backoff=0.0,
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.raises(ChainNotFound):
                resolve_chain(TX, adapter)
        finally:
            sys.setswitchinterval(interval)
        assert len(ids) == len(SUPPORTED_CHAINS)
        assert len(set(ids)) == len(ids)


def _post(source_id: str, *hashes: TxHash) -> Post:
    return Post(
        source_id=source_id,
        author="watcher",
        timestamp=datetime(2025, 1, 1, tzinfo=timezone.utc),
        text="incident: " + " and ".join(h.value for h in hashes),
    )


class TestResolveOncePerFeed:
    def test_repeated_hash_is_probed_once(self):
        posts = [_post("p1", TX), _post("p2", TX)]
        adapter = _ChainsAdapter({TX.value: {HOME}})
        accepted, log = dedupe_and_filter(posts, adapter, ScriptedClassifier())
        assert len(adapter.calls) == len(SUPPORTED_CHAINS)
        assert accepted == [
            IncidentCandidate(seed=SeedRef(chainid=HOME, txs=(TX,)), first_post=posts[0])
        ]
        assert log == [{"event": "duplicate_incident", "post": "p2", "chainid": HOME}]

    def test_notes_are_still_logged_per_post(self):
        posts = [_post("p1", OTHER_TX, STRAY_TX), _post("p2", STRAY_TX, OTHER_TX)]
        adapter = _ChainsAdapter({OTHER_TX.value: {HOME, SECOND}})
        accepted, log = dedupe_and_filter(posts, adapter, ScriptedClassifier())
        assert len(adapter.calls) == 2 * len(SUPPORTED_CHAINS)
        assert accepted == [
            IncidentCandidate(
                seed=SeedRef(chainid=HOME, txs=(OTHER_TX,)), first_post=posts[0]
            )
        ]
        ambiguous = {
            "event": "ambiguous_chain",
            "txhash": OTHER_TX.value,
            "matches": [HOME, SECOND],
            "chosen": HOME,
        }
        assert log == [
            {**ambiguous, "post": "p1"},
            {"event": "hash_unresolved", "txhash": STRAY_TX.value, "post": "p1"},
            {"event": "hash_unresolved", "txhash": STRAY_TX.value, "post": "p2"},
            {**ambiguous, "post": "p2"},
            {"event": "duplicate_incident", "post": "p2", "chainid": HOME},
        ]

    def test_a_feed_leaves_no_reference_cycles(self):
        """Errors kept as values drop their tracebacks, so a feed's objects
        are freed when it ends, not at the next full collection."""
        posts = [_post("p1", OTHER_TX, STRAY_TX, TX), _post("p2", STRAY_TX, OTHER_TX)]
        adapter = _ChainsAdapter({OTHER_TX.value: {HOME, SECOND}, TX.value: {HOME}})
        gc.collect()
        gc.disable()
        try:
            dedupe_and_filter(posts, adapter, ScriptedClassifier())
            assert gc.collect() == 0
        finally:
            gc.enable()
