"""Feed monitor: concurrent chain probes and one resolution per hash."""

from __future__ import annotations

import gc
import sys
import threading
import time
from datetime import datetime, timezone

import pytest

from txpostmortem.domain import SUPPORTED_CHAINS, SeedRef, TxHash
from txpostmortem.gateway import FETCH_WORKERS, LiveAdapter, MissingFixture
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
    """Finds each transaction on the chains listed for it; counts every call."""

    def __init__(self, hosts: dict[str, set[int]]):
        self.hosts = hosts
        self.calls: list[DataRequest] = []
        self._lock = threading.Lock()

    def fetch(self, request: DataRequest) -> dict:
        with self._lock:
            self.calls.append(request)
        self.wait(request)
        if request.chainid not in self.hosts.get(request.target, set()):
            raise MissingFixture(f"{request.target} not on {request.chainid}")
        return {"txhash": request.target, "chainid": request.chainid}

    def wait(self, request: DataRequest) -> None:
        pass


class _BarrierAdapter(_ChainsAdapter):
    """Every call waits until ``parties`` calls are in flight together."""

    def __init__(self, hosts: dict[str, set[int]], parties: int):
        super().__init__(hosts)
        self.barrier = threading.Barrier(parties, timeout=5)

    def wait(self, request: DataRequest) -> None:
        self.barrier.wait()


class _PeakAdapter(_ChainsAdapter):
    """Sleeps in every call and keeps the most calls seen in flight at once."""

    def __init__(self, hosts: dict[str, set[int]]):
        super().__init__(hosts)
        self.in_flight = 0
        self.peak = 0

    def wait(self, request: DataRequest) -> None:
        with self._lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        time.sleep(0.01)
        with self._lock:
            self.in_flight -= 1


class TestConcurrentProbes:
    @pytest.mark.parametrize("n", [2, FETCH_WORKERS, 2 * FETCH_WORKERS])
    def test_probes_overlap(self, n):
        adapter = _BarrierAdapter({TX.value: {HOME}}, min(n, FETCH_WORKERS))
        assert resolve_chain(TX, adapter, DEFAULT_PROBE_ORDER[:n]) == HOME
        assert len(adapter.calls) == n

    def test_in_flight_never_exceeds_the_cap(self):
        adapter = _PeakAdapter({TX.value: {HOME}})
        assert resolve_chain(TX, adapter) == HOME
        assert len(adapter.calls) == len(SUPPORTED_CHAINS)
        assert 1 < adapter.peak <= FETCH_WORKERS

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
