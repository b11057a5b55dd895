"""Feed monitor: hash extraction, concurrent chain probes, one resolution
per hash and one probe wave per feed, of one ``tx_lookup`` per chain."""

from __future__ import annotations

import gc
import importlib.util
import json
import sys
import threading
import time
import weakref
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path
from unittest import mock

import pytest
from conftest import ChainsAdapter, PeakAdapter
from hypothesis import event, given
from hypothesis import strategies as st

from txpostmortem import cli, monitor, scenarios
from txpostmortem.domain import SUPPORTED_CHAINS, SeedRef, TxHash
from txpostmortem.gateway import (
    FETCH_WORKERS,
    LOOKUP_BATCH,
    LiveAdapter,
    MissingFixture,
    SessionMemo,
    UpstreamError,
    adapter_memo,
    collect,
    fetch_many,
)
from txpostmortem.gateway.types import DataRequest, normalize_target
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


def _probes(chains, txs=(TX,)) -> list[DataRequest]:
    return [
        DataRequest(kind="tx_metadata", chainid=chainid, target=tx.value)
        for tx in txs
        for chainid in chains
    ]


def _hashes(n: int) -> list[TxHash]:
    return [TxHash("0x" + f"{k + 1:064x}") for k in range(n)]


class TestExtraction:
    def test_hashes_in_first_appearance_order_without_repeats(self):
        text = f"first {OTHER_TX.value}, then {TX.value}, again {OTHER_TX.value}"
        assert monitor.extract_tx_hashes(text) == [OTHER_TX, TX]

    def test_an_upper_case_prefix_is_a_hash(self):
        upper = "0X" + "AB" * 32
        assert monitor.extract_tx_hashes(f"see {upper}") == [TX]
        assert monitor.extract_tx_hashes(f"{upper} is {TX.value}") == [TX]

    @pytest.mark.parametrize(
        "token",
        ["0x" + "cd" * 20, "0x" + "ab" * 33, "0x" + "ab" * 31 + "a", "f0x" + "ab" * 32],
        ids=["address", "longer-blob", "odd-length", "hex-before"],
    )
    def test_other_hex_is_not_a_hash(self, token):
        assert monitor.extract_tx_hashes(f"see {token} here") == []


class TestConcurrentProbes:
    @pytest.mark.parametrize(
        "n", [2, FETCH_WORKERS, 2 * FETCH_WORKERS, len(SUPPORTED_CHAINS)]
    )
    def test_every_chains_lookup_is_in_flight_at_once(self, n):
        adapter = PeakAdapter({TX.value: {HOME}}, parties=n)
        before = threading.active_count()
        assert resolve_chain(TX, adapter, DEFAULT_PROBE_ORDER[:n]) == HOME
        assert [r.kind for r in adapter.calls] == ["tx_lookup"] * n
        assert sorted(adapter.asked) == sorted((c, TX.value) for c in DEFAULT_PROBE_ORDER[:n])
        assert adapter.threads - before <= n

    def test_in_flight_per_chain_never_exceeds_the_cap(self):
        # Twice the cap on one chain, then a probe on every chain.
        requests = _probes([HOME] * 2 * FETCH_WORKERS) + _probes(DEFAULT_PROBE_ORDER)
        adapter = PeakAdapter({TX.value: {HOME}})
        payloads = fetch_many(adapter, requests)
        assert len(adapter.calls) == len(requests)
        assert set(adapter.peaks) == set(SUPPORTED_CHAINS)
        assert max(adapter.peaks.values()) <= FETCH_WORKERS
        assert sum(not isinstance(p, MissingFixture) for p in payloads) == 1 + 2 * FETCH_WORKERS

    def test_single_chain_batch_peaks_at_the_cap(self):
        adapter = PeakAdapter({TX.value: {HOME}}, parties=FETCH_WORKERS)
        before = threading.active_count()
        payloads = fetch_many(adapter, _probes([HOME] * 2 * FETCH_WORKERS))
        assert payloads == [{"txhash": TX.value, "chainid": HOME}] * 2 * FETCH_WORKERS
        assert adapter.peaks == {HOME: FETCH_WORKERS}
        assert adapter.threads - before <= FETCH_WORKERS

    def test_mixed_chain_batch_keeps_request_order(self):
        requests = _probes(DEFAULT_PROBE_ORDER[:6], (TX, OTHER_TX, STRAY_TX))
        position = {(r.chainid, r.target): k for k, r in enumerate(requests)}

        class LaterAnswersFirst(ChainsAdapter):
            def wait(self, request):
                time.sleep(0.002 * (len(requests) - position[request.chainid, request.target]))

        every_chain = set(DEFAULT_PROBE_ORDER)
        adapter = LaterAnswersFirst({tx.value: every_chain for tx in (TX, OTHER_TX, STRAY_TX)})
        assert fetch_many(adapter, requests) == [
            {"txhash": r.target, "chainid": r.chainid} for r in requests
        ]

    def test_ambiguous_matches_keep_probe_order(self):
        class LaterAnswersFirst(ChainsAdapter):
            def wait(self, request):
                time.sleep(0.05 if request.chainid == HOME else 0.0)

        adapter = LaterAnswersFirst({TX.value: {SECOND, HOME}})
        with pytest.raises(AmbiguousChain) as info:
            resolve_chain(TX, adapter)
        assert info.value.matches == [HOME, SECOND]

    def test_no_host_raises_chain_not_found(self):
        with pytest.raises(ChainNotFound) as info:
            resolve_chain(TX, ChainsAdapter({}))
        assert info.value.txhash == TX.value

    def test_other_errors_propagate_and_no_fetch_outlives_the_call(self):
        class Broken(ChainsAdapter):
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

    def test_a_failed_lookup_is_logged_and_finds_nothing_on_its_chain(self, caplog):
        class SecondRefuses(ChainsAdapter):
            def wait(self, request):
                if request.chainid == SECOND:
                    raise UpstreamError("batch too large")

        hashes = _hashes(3)
        adapter = SecondRefuses({h.value: {HOME, SECOND} for h in hashes})
        with caplog.at_level("WARNING", logger="txpostmortem.monitor"):
            resolved = resolve_chains(hashes, adapter, [HOME, SECOND])
        assert resolved == {h.value: [HOME] for h in hashes}
        [record] = caplog.records
        assert record.getMessage() == (
            f"tx_lookup of 3 hashes failed on chain {SECOND}, so none counts as found"
            " there: batch too large"
        )

    def test_the_first_error_in_request_order_propagates(self):
        earlier_started = threading.Event()

        class TwoBugs(ChainsAdapter):
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
        fetch_many(PeakAdapter({TX.value: {HOME}}, parties=n), requests)
        # The first call's threads go idle once its lanes have returned.
        time.sleep(0.05)
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        adapter = PeakAdapter({TX.value: {HOME}}, parties=n)
        payloads = fetch_many(adapter, requests)
        assert len(adapter.calls) == n
        assert sum(not isinstance(p, MissingFixture) for p in payloads) == 1
        assert started == []

    @pytest.mark.parametrize("n", [1, 2, FETCH_WORKERS])
    def test_the_caller_runs_one_lane_and_the_pool_the_rest(self, monkeypatch, n):
        # A pool of its own, so that no idle thread of an earlier test is reused.
        monkeypatch.setattr(
            collect, "_POOL", collect._FetchPool(FETCH_WORKERS * len(SUPPORTED_CHAINS))
        )
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        callers = []

        class CallerNoting(PeakAdapter):
            def wait(self, request):
                callers.append(threading.current_thread() is threading.main_thread())
                super().wait(request)

        adapter = CallerNoting({TX.value: {HOME}}, parties=n)
        payloads = fetch_many(adapter, _probes([HOME] * n))
        assert payloads == [{"txhash": TX.value, "chainid": HOME}] * n
        assert len(started) == n - 1
        assert sorted(callers) == [False] * (n - 1) + [True]

    def test_concurrent_calls_share_the_pool(self):
        requests = _probes(DEFAULT_PROBE_ORDER, _hashes(5))
        every_chain = set(SUPPORTED_CHAINS)
        adapters = [
            PeakAdapter({r.target: every_chain for r in requests}) for _ in range(2)
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
                ids.extend(item["id"] for item in body)
            time.sleep(0.001)
            return [{"jsonrpc": "2.0", "id": item["id"], "result": None} for item in body]

        adapter = LiveAdapter(
            env={},
            rpc_map={chainid: f"http://node/{chainid}" for chainid in SUPPORTED_CHAINS},
            rpc_post=rpc_post,
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
        timestamp=datetime(2025, 1, 1, tzinfo=timezone.utc),
        text="incident: " + " and ".join(h.value for h in hashes),
    )


class TestResolveOncePerFeed:
    def test_repeated_hash_is_probed_once(self):
        posts = [_post("p1", TX), _post("p2", TX)]
        adapter = ChainsAdapter({TX.value: {HOME}})
        accepted, log = dedupe_and_filter(posts, adapter, ScriptedClassifier())
        assert sorted(adapter.asked) == sorted((c, TX.value) for c in SUPPORTED_CHAINS)
        assert accepted == [
            IncidentCandidate(seed=SeedRef(chainid=HOME, txs=(TX,)), first_post=posts[0])
        ]
        assert log == [{"event": "duplicate_incident", "post": "p2", "chainid": HOME}]

    def test_notes_are_still_logged_per_post(self):
        posts = [_post("p1", OTHER_TX, STRAY_TX), _post("p2", STRAY_TX, OTHER_TX)]
        adapter = ChainsAdapter({OTHER_TX.value: {HOME, SECOND}})
        accepted, log = dedupe_and_filter(posts, adapter, ScriptedClassifier())
        assert len(adapter.calls) == len(SUPPORTED_CHAINS)
        assert len(adapter.asked) == 2 * len(SUPPORTED_CHAINS)
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
        """A feed's answers are chain lists, holding no failed probe or its
        traceback, so its objects are freed when it ends, not at the next
        full collection."""
        posts = [_post("p1", OTHER_TX, STRAY_TX, TX), _post("p2", STRAY_TX, OTHER_TX)]
        adapter = ChainsAdapter({OTHER_TX.value: {HOME, SECOND}, TX.value: {HOME}})
        gc.collect()
        gc.disable()
        try:
            dedupe_and_filter(posts, adapter, ScriptedClassifier())
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestProbePayloadsOutliveTheWave:
    """A wave's found members are kept for its adapter's life; its misses
    are not."""

    def test_a_found_member_is_not_asked_again_and_a_miss_is(self):
        adapter = ChainsAdapter({TX.value: {HOME}})
        answers = resolve_chains([TX, STRAY_TX], adapter)
        assert answers == {TX.value: [HOME], STRAY_TX.value: []}
        first = adapter.asked[:]
        assert len(first) == 2 * len(SUPPORTED_CHAINS)
        # The stray hash turns up: the next wave asks about every pair of
        # hash and chain again but the one that found something.
        adapter.hosts[STRAY_TX.value] = {SECOND}
        answers = resolve_chains([TX, STRAY_TX], adapter)
        assert answers == {TX.value: [HOME], STRAY_TX.value: [SECOND]}
        again = adapter.asked[len(first):]
        assert sorted(again) == sorted(pair for pair in first if pair != (HOME, TX.value))
        # Now both are found wherever they are: a third wave asks only the
        # chains that had neither.
        answers = resolve_chains([TX, STRAY_TX], adapter)
        assert answers == {TX.value: [HOME], STRAY_TX.value: [SECOND]}
        third = adapter.asked[len(first) + len(again):]
        assert sorted(third) == sorted(pair for pair in again if pair != (SECOND, STRAY_TX.value))

    def test_the_table_goes_with_the_adapter(self):
        gc.collect()
        before = len(collect._ADAPTER_PAYLOADS)
        adapter = ChainsAdapter({TX.value: {HOME}})
        assert resolve_chains([TX], adapter) == {TX.value: [HOME]}
        assert len(collect._ADAPTER_PAYLOADS) == before + 1
        gone = weakref.ref(adapter)
        del adapter
        gc.collect()
        assert gone() is None
        assert len(collect._ADAPTER_PAYLOADS) == before

    def test_concurrent_waves_agree_and_leave_a_later_wave_nothing_to_ask(self):
        """Two waves at once may each ask about a pair, as a lookup waits on
        nothing, but both find the same chains, and what they found is kept
        once: a third wave asks no chain about a found hash again."""
        every_chain = set(SUPPORTED_CHAINS)
        adapter = PeakAdapter({TX.value: every_chain, OTHER_TX.value: every_chain})
        go = threading.Event()
        answers = [None, None]

        def call(k):
            go.wait(5)
            answers[k] = resolve_chains([TX, OTHER_TX], adapter)

        callers = [threading.Thread(target=call, args=(k,)) for k in range(2)]
        for caller in callers:
            caller.start()
        go.set()
        for caller in callers:
            caller.join(10)
        assert not any(caller.is_alive() for caller in callers)
        probes = Counter(adapter.asked)
        assert set(probes) == {
            (chainid, tx.value) for chainid in SUPPORTED_CHAINS for tx in (TX, OTHER_TX)
        }
        assert set(probes.values()) <= {1, 2}
        for answer in answers:
            assert [answer[tx.value] for tx in (TX, OTHER_TX)] == [
                list(DEFAULT_PROBE_ORDER)
            ] * 2
        asked = len(adapter.calls)
        assert resolve_chains([OTHER_TX, TX], adapter) == answers[0]
        assert len(adapter.calls) == asked
        request = DataRequest(kind="tx_metadata", chainid=HOME, target=TX.value)
        assert adapter_memo(adapter).fetch(request) == {"txhash": TX.value, "chainid": HOME}
        assert len(adapter.calls) == asked

    def test_a_session_memo_is_its_own_adapter_memo(self):
        memo = SessionMemo(ChainsAdapter({}))
        assert adapter_memo(memo) is memo


class TestOneWaveNamesEachPairOnce:
    """The lookups of one wave name each (chain, hash) once, and each goes
    to the adapter as the wave made it: what lets a lookup keep what it
    found without claiming or waiting."""

    def test_a_chain_named_twice_is_probed_once_at_its_first_place(self):
        adapter = ChainsAdapter({TX.value: {HOME, SECOND}})
        answers = resolve_chains([TX, STRAY_TX], adapter, [SECOND, HOME, SECOND, HOME])
        assert answers == {TX.value: [SECOND, HOME], STRAY_TX.value: []}
        assert Counter(adapter.asked) == {
            (chainid, tx.value): 1 for chainid in (SECOND, HOME) for tx in (TX, STRAY_TX)
        }

    def test_a_chain_named_twice_on_the_command_line_finds_one_chain(self, tmp_path, capsys):
        feed = tmp_path / "feed.jsonl"
        feed.write_text(json.dumps(
            {"source_id": "p0", "timestamp": "2025-01-01T00:00:00Z",
             "text": f"Exploit alert: drain in {scenarios.PRXVT_SEED}"}
        ) + "\n")
        chain = str(scenarios.PRXVT_CHAIN)
        code = cli.main([
            "monitor", "--feed", str(feed), "--queue", str(tmp_path / "queue"),
            "--fixtures", str(scenarios.open_case("prxvt").fixtures_dir),
            "--chains", f"{chain},{chain}",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert (code, len(doc["enqueued"]), doc["log"]) == (0, 1, [])

    @given(
        n=st.integers(1, 2 * LOOKUP_BATCH + 1),
        repeats=st.lists(st.tuples(st.integers(0, 2 * LOOKUP_BATCH), st.booleans()), max_size=8),
        chains=st.lists(st.sampled_from(DEFAULT_PROBE_ORDER), min_size=1, max_size=30),
    )
    def test_each_chain_and_hash_is_named_once_and_sent_as_named(self, n, repeats, chains):
        event(f"lookups per chain: {-(-n // LOOKUP_BATCH)}")
        distinct = [f"0x{'ab' * 28}{k:08x}" for k in range(n)]
        txhashes = [TxHash(txhash) for txhash in distinct]
        # Repeats of the hashes, some spelt in upper case, anywhere in the list.
        for k, upper in repeats:
            txhash = distinct[k % n]
            spelt = "0X" + txhash[2:].upper() if upper else txhash
            txhashes.insert(k % (len(txhashes) + 1), TxHash(spelt))
        adapter = ChainsAdapter({distinct[0]: {chains[0]}})
        named = []

        def recording_fetch_many(memo, requests):
            named.extend(requests)
            return fetch_many(memo, requests)

        with mock.patch.object(monitor, "fetch_many", recording_fetch_many):
            answers = resolve_chains(txhashes, adapter, chains)
        pairs = Counter(
            (request.chainid, normalize_target(txhash))
            for request in named
            for txhash in request.extra["txhashes"]
        )
        assert pairs == {(chainid, txhash): 1 for chainid in chains for txhash in distinct}

        def lookups(requests):
            return sorted((r.kind, r.chainid, r.extra["txhashes"]) for r in requests)

        assert lookups(adapter.calls) == lookups(named)
        assert answers[distinct[0]] == [chains[0]]


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
        adapter = PeakAdapter({tx.value: {HOME} for tx in txs}, parties=len(SUPPORTED_CHAINS))
        before = threading.active_count()
        accepted, log = dedupe_and_filter(posts, adapter, ScriptedClassifier())
        assert len(adapter.calls) == len(SUPPORTED_CHAINS)
        assert len(adapter.asked) == 3 * len(SUPPORTED_CHAINS)
        assert adapter.threads - before <= len(SUPPORTED_CHAINS)
        assert [c.seed for c in accepted] == [
            SeedRef(chainid=HOME, txs=(txs[0],)),
            SeedRef(chainid=HOME, txs=(txs[1], txs[0])),
            SeedRef(chainid=HOME, txs=(txs[2],)),
        ]
        assert log == []

    def test_a_ten_hash_feed_starts_at_most_one_thread_per_chain(self, monkeypatch):
        # A pool of its own, so that no idle thread of an earlier test is reused.
        monkeypatch.setattr(
            collect, "_POOL", collect._FetchPool(FETCH_WORKERS * len(SUPPORTED_CHAINS))
        )
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        txs = _hashes(10)
        posts = [_post(f"p{k}", tx) for k, tx in enumerate(txs)]
        adapter = PeakAdapter({tx.value: {SECOND} for tx in txs})
        accepted, _ = dedupe_and_filter(posts, adapter, ScriptedClassifier())
        assert len(started) <= len(SUPPORTED_CHAINS)
        assert adapter.peaks == {chainid: 1 for chainid in SUPPORTED_CHAINS}
        assert [c.seed.txs for c in accepted] == [(tx,) for tx in txs]

    @pytest.mark.parametrize("batch", [LOOKUP_BATCH, 3], ids=["one-lookup", "four-lookups"])
    def test_every_distinct_hash_is_asked_about_on_every_chain_once(self, monkeypatch, batch):
        """However many lookups a chain's share of the wave takes, each
        distinct hash of the feed is in exactly one of them, on every chain."""
        monkeypatch.setattr(monitor, "LOOKUP_BATCH", batch)
        txs = _hashes(10)
        posts = [_post(f"p{k}", tx, txs[k - 1]) for k, tx in enumerate(txs)]
        adapter = ChainsAdapter({txs[4].value: {HOME}})
        accepted, _ = dedupe_and_filter(posts, adapter, ScriptedClassifier())
        lookups = -(-len(txs) // batch)
        assert len(adapter.calls) == lookups * len(SUPPORTED_CHAINS)
        assert all(len(r.extra["txhashes"]) <= batch for r in adapter.calls)
        assert Counter(adapter.asked) == {(c, tx.value): 1 for c in SUPPORTED_CHAINS for tx in txs}
        assert [c.first_post.source_id for c in accepted] == ["p4"]

    def test_answers_are_sliced_per_hash_in_probe_order(self):
        txs = _hashes(3)
        hosts = {txs[0].value: {SECOND, HOME}, txs[2].value: {SECOND}}
        position = {chainid: k for k, chainid in enumerate(DEFAULT_PROBE_ORDER)}

        class LaterAnswersFirst(ChainsAdapter):
            def wait(self, request):
                time.sleep(0.001 * (len(position) - position[request.chainid]))

        answers = resolve_chains(txs + [txs[0]], LaterAnswersFirst(hosts))
        assert list(answers) == [tx.value for tx in txs]
        assert answers == {
            txs[0].value: [HOME, SECOND],
            txs[1].value: [],
            txs[2].value: [SECOND],
        }

    def test_classifier_sees_each_post_once_in_order(self):
        txs = _hashes(4)
        posts = [
            _post("p1", txs[0]),
            _post("noise", txs[1], txs[0]),
            _post("p2", txs[2]),
            _post("spam", txs[3]),
        ]
        classifier = _RecordingClassifier({"noise", "spam"})
        adapter = ChainsAdapter({tx.value: {HOME} for tx in txs})
        accepted, log = dedupe_and_filter(posts, adapter, classifier)
        assert classifier.seen == ["p1", "noise", "p2", "spam"]
        assert {txhash for _, txhash in adapter.asked} == {txs[0].value, txs[2].value}
        assert [c.first_post.source_id for c in accepted] == ["p1", "p2"]
        assert log == [
            {"event": "irrelevant_post", "post": "noise"},
            {"event": "irrelevant_post", "post": "spam"},
        ]

    def test_each_relevant_post_is_scanned_for_hashes_once(self, tmp_path, monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "perfbench_feed", Path(__file__).resolve().parents[1] / "perfbench" / "feed.py"
        )
        feedgen = importlib.util.module_from_spec(spec)
        # Its dataclasses look their module up in sys.modules.
        monkeypatch.setitem(sys.modules, spec.name, feedgen)
        spec.loader.exec_module(feedgen)
        feed = feedgen.write_feed(tmp_path / "feed.jsonl", 5)
        scanned = []
        extract = monitor.extract_tx_hashes

        def counting_extract(text):
            scanned.append(text)
            return extract(text)

        monkeypatch.setattr(monitor, "extract_tx_hashes", counting_extract)
        adapter = ChainsAdapter(
            {
                scenarios.PRXVT_SEED: {scenarios.PRXVT_CHAIN},
                scenarios.VAL_SEED: {scenarios.VAL_CHAIN},
            }
        )
        classifier = ScriptedClassifier({source_id: False for source_id in feed.irrelevant})
        accepted, _ = dedupe_and_filter(read_feed(feed.path), adapter, classifier)
        assert [(c.seed.chainid, c.seed.primary.value) for c in accepted] == list(
            feed.candidates
        )
        assert len(scanned) == feed.posts - len(feed.irrelevant) == 10

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
                timestamp=datetime(2025, 1, 1, tzinfo=timezone.utc),
                text="quiet day on chain",
            )
            for k in range(3)
        ]
        adapter = ChainsAdapter({})
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
        adapter = ChainsAdapter({TX.value: {HOME}, OTHER_TX.value: {HOME}})
        queue = tmp_path / "queue"
        with pytest.raises(FeedError, match=":3: invalid JSON"):
            run_monitor(read_feed(feed), adapter, queue)
        assert adapter.calls == []
        assert list(queue.iterdir()) == []
