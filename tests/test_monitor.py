"""Feed monitor: concurrent chain probes, one resolution per hash and one
probe wave per feed."""

from __future__ import annotations

import gc
import json
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
    FeedError,
    IncidentCandidate,
    Post,
    ScriptedClassifier,
    dedupe_and_filter,
    read_feed,
    resolve_chain,
    resolve_chains,
    run_monitor,
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


def _hashes(n: int) -> list[TxHash]:
    return [TxHash("0x" + f"{k + 1:064x}") for k in range(n)]


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

    def test_other_errors_propagate_and_no_fetch_outlives_the_call(self):
        class Broken(_ChainsAdapter):
            in_flight = 0

            def fetch(self, request):
                with self._lock:
                    self.in_flight += 1
                try:
                    return super().fetch(request)
                finally:
                    with self._lock:
                        self.in_flight -= 1

            def wait(self, request):
                if request.chainid == SECOND:
                    raise RuntimeError("adapter bug")
                time.sleep(0.005)

        adapter = Broken({TX.value: {HOME}})
        with pytest.raises(RuntimeError, match="adapter bug"):
            fetch_many(adapter, _probes(DEFAULT_PROBE_ORDER, _hashes(2 * FETCH_WORKERS)))
        # Each of the failing chain's lanes stops at its first failure.
        assert sum(r.chainid == SECOND for r in adapter.calls) <= FETCH_WORKERS
        assert adapter.in_flight == 0
        calls = len(adapter.calls)
        time.sleep(0.05)
        assert len(adapter.calls) == calls

    def test_the_first_error_in_request_order_propagates(self):
        earlier_started = threading.Event()

        class TwoBugs(_ChainsAdapter):
            def wait(self, request):
                if request.chainid == HOME:
                    earlier_started.set()
                    time.sleep(0.05)
                    raise RuntimeError("earlier request")
                if request.chainid == SECOND:
                    earlier_started.wait(5)
                    raise ValueError("later request")

        with pytest.raises(RuntimeError, match="earlier request"):
            fetch_many(TwoBugs({}), _probes(DEFAULT_PROBE_ORDER))

    def test_a_second_call_starts_no_thread(self, monkeypatch):
        n = len(SUPPORTED_CHAINS)
        requests = _probes(DEFAULT_PROBE_ORDER)
        fetch_many(_PeakAdapter({TX.value: {HOME}}, parties=n), requests)
        # The first call's threads go idle once its lanes have returned.
        time.sleep(0.05)
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        adapter = _PeakAdapter({TX.value: {HOME}}, parties=n)
        payloads = fetch_many(adapter, requests)
        assert len(adapter.calls) == n
        assert sum(not isinstance(p, MissingFixture) for p in payloads) == 1
        assert started == []

    def test_concurrent_calls_share_the_pool(self):
        requests = _probes(DEFAULT_PROBE_ORDER, _hashes(5))
        every_chain = set(SUPPORTED_CHAINS)
        adapters = [
            _PeakAdapter({r.target: every_chain for r in requests}) for _ in range(2)
        ]
        results = [None, None]
        go = threading.Event()

        def call(k):
            go.wait(5)
            results[k] = fetch_many(adapters[k], requests)

        callers = [threading.Thread(target=call, args=(k,)) for k in range(2)]
        for caller in callers:
            caller.start()
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            go.set()
            for caller in callers:
                caller.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        expected = [{"txhash": r.target, "chainid": r.chainid} for r in requests]
        assert results == [expected, expected]
        for adapter in adapters:
            assert sorted((r.chainid, r.target) for r in adapter.calls) == sorted(
                (r.chainid, r.target) for r in requests
            )
            assert set(adapter.peaks) == every_chain
            assert max(adapter.peaks.values()) <= FETCH_WORKERS
            assert adapter.threads <= before + FETCH_WORKERS * len(SUPPORTED_CHAINS)

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


class _RecordingClassifier:
    """Calls every post an incident unless it is listed; records each call."""

    def __init__(self, irrelevant: set[str] = frozenset()):
        self.irrelevant = irrelevant
        self.seen: list[str] = []

    def is_incident(self, post: Post) -> bool:
        self.seen.append(post.source_id)
        return post.source_id not in self.irrelevant


class TestOneWavePerFeed:
    def test_every_hash_of_a_feed_is_in_flight_at_once(self):
        txs = _hashes(3)
        posts = [_post("p1", txs[0]), _post("p2", txs[1], txs[0]), _post("p3", txs[2])]
        adapter = _PeakAdapter(
            {tx.value: {HOME} for tx in txs}, parties=3 * len(SUPPORTED_CHAINS)
        )
        before = threading.active_count()
        accepted, log = dedupe_and_filter(posts, adapter, ScriptedClassifier())
        assert len(adapter.calls) == 3 * len(SUPPORTED_CHAINS)
        assert adapter.threads - before <= 3 * len(SUPPORTED_CHAINS)
        assert [c.seed for c in accepted] == [
            SeedRef(chainid=HOME, txs=(txs[0],)),
            SeedRef(chainid=HOME, txs=(txs[1], txs[0])),
            SeedRef(chainid=HOME, txs=(txs[2],)),
        ]
        assert log == []

    def test_many_hashes_keep_the_per_chain_cap(self):
        txs = _hashes(10)
        posts = [_post(f"p{k}", tx) for k, tx in enumerate(txs)]
        adapter = _PeakAdapter({tx.value: {SECOND} for tx in txs})
        before = threading.active_count()
        accepted, _ = dedupe_and_filter(posts, adapter, ScriptedClassifier())
        assert len(adapter.calls) == 10 * len(SUPPORTED_CHAINS)
        assert set(adapter.peaks) == set(SUPPORTED_CHAINS)
        assert max(adapter.peaks.values()) <= FETCH_WORKERS
        assert adapter.threads - before <= FETCH_WORKERS * len(SUPPORTED_CHAINS)
        assert [c.seed.txs for c in accepted] == [(tx,) for tx in txs]

    def test_answers_are_sliced_per_hash_in_probe_order(self):
        txs = _hashes(3)
        hosts = {txs[0].value: {SECOND, HOME}, txs[2].value: {SECOND}}
        position = {chainid: k for k, chainid in enumerate(DEFAULT_PROBE_ORDER)}

        class LaterAnswersFirst(_ChainsAdapter):
            def wait(self, request):
                time.sleep(0.001 * (len(position) - position[request.chainid]))

        answers = resolve_chains(txs + [txs[0]], LaterAnswersFirst(hosts))
        assert list(answers) == [tx.value for tx in txs]
        assert isinstance(answers[txs[0].value], AmbiguousChain)
        assert answers[txs[0].value].matches == [HOME, SECOND]
        assert isinstance(answers[txs[1].value], ChainNotFound)
        assert answers[txs[1].value].__traceback__ is None
        assert answers[txs[2].value] == SECOND

    def test_classifier_sees_each_post_once_in_order(self):
        txs = _hashes(4)
        posts = [
            _post("p1", txs[0]),
            _post("noise", txs[1], txs[0]),
            _post("p2", txs[2]),
            _post("spam", txs[3]),
        ]
        classifier = _RecordingClassifier({"noise", "spam"})
        adapter = _ChainsAdapter({tx.value: {HOME} for tx in txs})
        accepted, log = dedupe_and_filter(posts, adapter, classifier)
        assert classifier.seen == ["p1", "noise", "p2", "spam"]
        assert {request.target for request in adapter.calls} == {txs[0].value, txs[2].value}
        assert [c.first_post.source_id for c in accepted] == ["p1", "p2"]
        assert log == [
            {"event": "irrelevant_post", "post": "noise"},
            {"event": "irrelevant_post", "post": "spam"},
        ]

    def test_a_feed_without_hashes_fetches_nothing(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        posts = [
            Post(
                source_id=f"p{k}",
                author="watcher",
                timestamp=datetime(2025, 1, 1, tzinfo=timezone.utc),
                text="quiet day on chain",
            )
            for k in range(3)
        ]
        adapter = _ChainsAdapter({})
        accepted, log = dedupe_and_filter(posts, adapter, ScriptedClassifier())
        assert accepted == []
        assert adapter.calls == []
        assert started == []
        assert log == [{"event": "no_seed_found", "post": f"p{k}"} for k in range(3)]

    def test_a_malformed_feed_line_fails_before_any_probe(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        lines = [
            json.dumps(
                {
                    "source_id": post.source_id,
                    "timestamp": post.timestamp.isoformat(),
                    "text": post.text,
                }
            )
            for post in (_post("p1", TX), _post("p2", OTHER_TX))
        ]
        feed.write_text("\n".join(lines + ["{not json"]) + "\n", encoding="utf-8")
        adapter = _ChainsAdapter({TX.value: {HOME}, OTHER_TX.value: {HOME}})
        queue = tmp_path / "queue"
        with pytest.raises(FeedError, match=":3: invalid JSON"):
            run_monitor(read_feed(feed), adapter, queue)
        assert adapter.calls == []
        assert list(queue.iterdir()) == []
