"""Chain-data gateway: fixture keys, record/replay closure, live adapter."""

from __future__ import annotations

import builtins
import hashlib
import io
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from txpostmortem import workspace
from txpostmortem.domain import Address, SeedRef, TxHash, UnsupportedChain
from txpostmortem.gateway.base import (
    BootstrapError,
    MissingCredential,
    MissingFixture,
    SharedResults,
    UnsupportedRequest,
    UpstreamError,
    load_rpc_map,
    resolve_rpc_url,
)
from txpostmortem.gateway.collect import (
    SEED_ARTIFACT_KINDS,
    SEED_CONTEXT_KINDS,
    SEED_DIGEST_CHARS,
    SEED_DIGEST_LINE_CHARS,
    SessionMemo,
    adapter_memo,
    execute_data_requests,
    fetch_many,
    fetch_seed_artifacts,
    fetch_txlists,
)
from txpostmortem.gateway.fixtures import (
    FixtureStore,
    RecordingAdapter,
    ReplayAdapter,
    fixture_key,
)
from txpostmortem.gateway import fixtures, live
from txpostmortem.gateway.live import LiveAdapter, disassemble
from txpostmortem.gateway.types import DataRequest, TxRecord
from txpostmortem.lifecycle import DEFAULT_WINDOW
from txpostmortem.scenarios import (
    VAL_CHAIN,
    VAL_EOA,
    VAL_EOA_2,
    VAL_ROUTER,
    VAL_SEED_BLOCK,
)

TX = "0x" + "ab" * 32
ADDR = "0x" + "cd" * 20


def _request(**overrides) -> DataRequest:
    base = dict(kind="tx_trace", chainid=1, target=TX)
    base.update(overrides)
    return DataRequest(**base)


class TestFixtureKey:
    def test_deterministic(self):
        assert fixture_key(_request()) == fixture_key(_request())

    def test_ignores_reason_and_out_path(self):
        plain = fixture_key(_request())
        annotated = fixture_key(_request(reason="why not", out_path="here.json"))
        assert plain == annotated

    def test_target_case_is_normalized(self):
        assert fixture_key(_request(target=TX.upper().replace("0X", "0x"))) == fixture_key(
            _request()
        )

    @pytest.mark.parametrize(
        "override",
        [
            {"kind": "tx_metadata"},
            {"chainid": 8453},
            {"target": "0x" + "ee" * 32},
            {"block_lo": 5},
            {"block_hi": 9},
            {"extra": {"slot": "0x1"}},
        ],
    )
    def test_semantic_fields_change_the_key(self, override):
        assert fixture_key(_request(**override)) != fixture_key(_request())

    def test_key_shape(self):
        key = fixture_key(_request(kind="txlist", chainid=10, target=ADDR))
        prefix, chain, digest = key.rsplit("_", 2)
        assert prefix == "txlist"
        assert chain == "10"
        assert len(digest) == 16
        int(digest, 16)


class TestFixtureStore:
    def test_round_trip(self, tmp_path):
        store = FixtureStore(tmp_path)
        request = _request()
        store.save(request, {"root": {"x": 1}})
        assert store.has(request)
        assert store.load(request) == {"root": {"x": 1}}

    def test_missing_fixture(self, tmp_path):
        store = FixtureStore(tmp_path)
        assert not store.has(_request())
        with pytest.raises(MissingFixture):
            store.load(_request())

    @pytest.mark.parametrize("present", [True, False], ids=["hit", "miss"])
    def test_load_hashes_the_request_once(self, tmp_path, monkeypatch, present):
        store = FixtureStore(tmp_path)
        request = _request()
        key = fixture_key(request)
        if present:
            store.save(request, {"root": {}})
        calls = []

        def counting_key(req):
            calls.append(req)
            return fixture_key(req)

        monkeypatch.setattr(fixtures, "fixture_key", counting_key)
        if present:
            store.load(request)
        else:
            # A miss names the key, so the recording to add can be found.
            with pytest.raises(MissingFixture, match=f"key {key}"):
                store.load(request)
        assert calls == [request]

    @pytest.mark.parametrize("listed", [False, True], ids=["before-listing", "after-listing"])
    def test_a_directory_named_like_a_fixture_is_a_miss(self, tmp_path, listed):
        store = FixtureStore(tmp_path)
        key = fixture_key(_request())
        if listed:
            store.save(_request(), {"root": {}})
            store.load(_request())
            store.path_for(key).unlink()
        store.path_for(key).mkdir()
        with pytest.raises(MissingFixture, match=f"key {key}"):
            store.load(_request())

    def test_a_store_sees_its_own_save_after_a_load(self, tmp_path):
        store = FixtureStore(tmp_path / "fresh")
        with pytest.raises(MissingFixture):
            store.load(_request())
        store.save(_request(), {"root": {"x": 1}})
        assert store.has(_request())
        assert store.load(_request()) == {"root": {"x": 1}}
        assert store.keys() == [fixture_key(_request())]

    def test_a_miss_makes_no_system_call_and_a_hit_one_open(self, tmp_path, monkeypatch):
        store = FixtureStore(tmp_path)
        store.save(_request(), {"root": {}})
        store.load(_request())
        calls = []
        for module, name in [
            (os, "stat"), (os, "lstat"), (os, "open"), (os, "scandir"), (os, "listdir"),
            (io, "open"), (builtins, "open"),
        ]:
            def counting(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        with pytest.raises(MissingFixture):
            store.load(_request(kind="tx_metadata"))
        assert calls == []
        assert store.load(_request()) == {"root": {}}
        assert calls == ["open"]

    def test_files_are_byte_stable(self, tmp_path):
        request = _request()
        payload = {"b": [1, 2], "a": "x"}
        first = FixtureStore(tmp_path / "one").save(request, payload)
        second = FixtureStore(tmp_path / "two").save(request, payload)
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes().endswith(b"\n")

    def test_keys_sorted(self, tmp_path):
        store = FixtureStore(tmp_path)
        store.save(_request(kind="txlist", target=ADDR), {"records": []})
        store.save(_request(), {"root": {}})
        assert store.keys() == sorted(store.keys())
        assert len(store.keys()) == 2


class _StubAdapter:
    """Serves a deterministic payload for every supported request kind."""

    def __init__(self):
        self.calls = 0

    def fetch(self, request: DataRequest) -> dict:
        if request.kind == "other":
            raise UnsupportedRequest("stub cannot serve 'other'")
        self.calls += 1
        return {
            "kind": request.kind,
            "chainid": request.chainid,
            "target": request.normalized_target(),
            "window": [request.block_lo, request.block_hi],
            "extra": dict(request.extra),
        }


def _one_request_per_kind() -> list[DataRequest]:
    requests = []
    for kind in workspace.DATA_REQUEST_KINDS:
        requests.append(
            DataRequest(
                kind=kind,
                chainid=1,
                target=ADDR if kind not in ("tx_metadata", "tx_trace") else TX,
                block_lo=10 if kind == "txlist" else None,
                block_hi=20 if kind == "txlist" else None,
                extra={"slot": "0x0", "block": "latest"} if kind == "storage_slot" else {},
            )
        )
    return requests


class TestRecordReplayClosure:
    def test_every_kind_recorded_then_replayed_byte_identically(self, tmp_path):
        requests = [r for r in _one_request_per_kind() if r.kind != "other"]
        assert len(requests) == len(workspace.DATA_REQUEST_KINDS) - 1

        store = FixtureStore(tmp_path / "fixtures")
        recorder = RecordingAdapter(_StubAdapter(), store)
        recorded = {fixture_key(r): recorder.fetch(r) for r in requests}

        replays = []
        for _ in range(2):
            adapter = ReplayAdapter(FixtureStore(tmp_path / "fixtures"))
            replays.append({fixture_key(r): adapter.fetch(r) for r in requests})
        assert replays[0] == replays[1] == recorded

        # Byte-level determinism: re-recording the same payloads must leave
        # every fixture file unchanged.
        before = {p.name: p.read_bytes() for p in store.root.glob("*.json")}
        for request in requests:
            RecordingAdapter(_StubAdapter(), store).fetch(request)
        after = {p.name: p.read_bytes() for p in store.root.glob("*.json")}
        assert before == after
        assert len(before) == len(requests)

    def test_replay_never_reaches_the_inner_adapter(self, tmp_path):
        store = FixtureStore(tmp_path)
        inner = _StubAdapter()
        RecordingAdapter(inner, store).fetch(_request())
        assert inner.calls == 1
        ReplayAdapter(store).fetch(_request())
        assert inner.calls == 1

    def test_other_kind_is_refused_by_the_live_path(self):
        adapter = LiveAdapter(env={}, rpc_map={1: "http://node"})
        with pytest.raises(UnsupportedRequest):
            adapter.fetch(DataRequest(kind="other", chainid=1, target="anything"))


class TestRequestTypes:
    def test_normalized_target_lowercases_hex_only(self):
        hexreq = _request(target="0xAB" + "cd" * 31)
        assert hexreq.normalized_target() == ("0xAB" + "cd" * 31).lower()
        textreq = _request(kind="other", target="Some Label")
        assert textreq.normalized_target() == "Some Label"

    def test_to_doc_omits_empty_optionals(self):
        doc = _request().to_doc()
        assert "block_lo" not in doc
        assert "reason" not in doc
        assert "out_path" not in doc
        assert "extra" not in doc
        rich = _request(block_lo=1, block_hi=2, reason="r", out_path="o", extra={"k": 1})
        doc = rich.to_doc()
        assert doc["block_lo"] == 1 and doc["extra"] == {"k": 1}

    def test_txrecord_doc_uses_from_and_to(self):
        record = TxRecord(
            txhash=TxHash(TX),
            block_number=7,
            from_address=Address(ADDR),
            to_address=None,
            selector=None,
            value=0,
            gas_used=21000,
            effective_gas_price=10,
            status=True,
        )
        doc = record.to_doc()
        assert doc["from"] == ADDR
        assert doc["to"] is None
        assert TxRecord.from_doc(doc) == record

    @given(
        blocks=st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(0, 500)), min_size=1, max_size=20
        )
    )
    def test_order_key_sorts_by_block_then_index(self, blocks):
        records = [
            TxRecord(
                txhash="0x" + f"{i:064x}",
                block_number=block,
                from_address=ADDR,
                to_address=ADDR,
                selector=None,
                value=0,
                gas_used=1,
                effective_gas_price=1,
                status=True,
                index=index,
            )
            for i, (block, index) in enumerate(blocks)
        ]
        ordered = sorted(records, key=TxRecord.order_key)
        assert [(r.block_number, r.index) for r in ordered] == sorted(
            (r.block_number, r.index) for r in records
        )


class _SeedAdapter:
    """Stub for seed bootstrap; optionally fails specific kinds."""

    def __init__(self, fail_kinds=()):
        self.fail_kinds = set(fail_kinds)

    def fetch(self, request: DataRequest) -> dict:
        if request.kind in self.fail_kinds:
            raise UpstreamError(f"stub failure for {request.kind}")
        if request.kind == "tx_metadata":
            return {"txhash": request.normalized_target(), "block_number": 100}
        if request.kind == "tx_trace":
            return {"root": {"call_type": "CALL", "from": ADDR, "to": ADDR, "children": []}}
        if request.kind == "balance_diff":
            return {"entries": []}
        raise UnsupportedRequest(request.kind)


class TestSeedBootstrap:
    def _session(self, tmp_path):
        seed = SeedRef(chainid=1, txs=(TX,))
        return workspace.create_session(tmp_path, seed)

    def test_lands_three_artifacts_per_seed_tx(self, tmp_path):
        session = self._session(tmp_path)
        summary = fetch_seed_artifacts(session, _SeedAdapter())
        assert summary.fetched_count == 3
        base = session.root / workspace.SEED_DIR / "1" / TX
        for name in ("metadata.json", "trace.json", "balance_diff.json"):
            assert (base / name).is_file()
        index = json.loads((session.root / workspace.SEED_DIR / "index.json").read_text())
        assert index["targets"] == [{"chainid": 1, "txhash": TX}]
        assert len(index["artifacts"][TX]) == 3

    def test_any_failure_is_fatal_with_diagnostics(self, tmp_path):
        session = self._session(tmp_path)
        with pytest.raises(BootstrapError) as info:
            fetch_seed_artifacts(session, _SeedAdapter(fail_kinds={"tx_trace"}))
        assert info.value.diagnostics
        assert any("tx_trace" in line for line in info.value.diagnostics)


class _ContextAdapter:
    """Serves a seed whose trace calls ``contracts`` addresses, each with a
    selector, plus logs, state diff and long-named contract metadata;
    ``fail_kinds`` fail."""

    def __init__(self, contracts: int, fail_kinds=()):
        self.addresses = [f"0x{i:040x}" for i in range(1, contracts + 1)]
        self.fail_kinds = set(fail_kinds)

    def fetch(self, request: DataRequest) -> dict:
        if request.kind in self.fail_kinds:
            raise UpstreamError(f"stub failure for {request.kind}")
        if request.kind == "tx_trace":
            children = [
                {"call_type": "CALL", "from": ADDR, "to": a, "selector": "0x12345678",
                 "children": []}
                for a in reversed(self.addresses)
            ]
            # A value transfer without a selector is not a contract call.
            children.append({"call_type": "CALL", "from": ADDR, "to": "0x" + "ee" * 20,
                             "selector": None, "children": []})
            return {"root": {"call_type": "CALL", "from": ADDR, "to": ADDR,
                             "selector": None, "children": children}}
        if request.kind == "receipt_logs":
            return {"logs": [{"address": a, "event": "Ping"} for a in self.addresses[:3]]}
        if request.kind == "state_diff":
            return {"pre": {a: {} for a in self.addresses[:2]}, "post": {}}
        if request.kind == "contract_meta":
            return {"address": request.target, "name": "Contract" * 40,
                    "source_kind": "verified_source"}
        return _SeedAdapter().fetch(request)


class TestSeedContext:
    def _bootstrap(self, tmp_path, adapter):
        session = workspace.create_session(tmp_path, SeedRef(chainid=1, txs=(TX,)))
        return session, fetch_seed_artifacts(session, adapter)

    def test_context_lands_in_its_directory(self, tmp_path):
        session, summary = self._bootstrap(tmp_path, _ContextAdapter(3))
        context = session.root / workspace.SEED_CONTEXT_DIR
        assert sorted(p.name for p in context.iterdir()) == sorted(
            [f"receipt_logs_{TX}.json", f"state_diff_{TX}.json"]
            + [f"contract_meta_0x{i:040x}.json" for i in (1, 2, 3)]
        )
        assert summary.fetched_count == 3 + 5
        assert summary.failed == []
        lines = summary.digest.splitlines()
        assert lines[0].startswith(f"Seed context already fetched into {workspace.SEED_CONTEXT_DIR}/")
        assert lines[1] == (
            f"- receipt_logs_{TX}.json: 3 logs: "
            + ", ".join(f"Ping at 0x{i:040x}" for i in (1, 2, 3))
        )
        assert [line.split(":")[0] for line in lines[3:]] == [
            f"- contract_meta_0x{i:040x}.json" for i in (1, 2, 3)
        ]

    def test_context_misses_are_recorded_not_fatal(self, tmp_path):
        session, summary = self._bootstrap(
            tmp_path, _ContextAdapter(2, fail_kinds={"receipt_logs", "contract_meta"})
        )
        assert [f["request"]["kind"] for f in summary.failed] == [
            "receipt_logs", "contract_meta", "contract_meta"
        ]
        assert summary.digest.count("not available (stub failure for") == 3

    def test_digest_is_capped(self, tmp_path):
        _, summary = self._bootstrap(tmp_path, _ContextAdapter(200))
        assert summary.fetched_count == 3 + 2 + 200
        assert len(summary.digest) <= SEED_DIGEST_CHARS
        assert all(len(line) <= SEED_DIGEST_LINE_CHARS for line in summary.digest.splitlines())
        assert summary.digest.endswith(f"more entries in {workspace.SEED_CONTEXT_DIR}/")

    def test_digest_ignores_answer_order(self, tmp_path):
        _, expected = self._bootstrap(tmp_path / "a", _ContextAdapter(200))
        # Both batches answered later-first: 5 seed requests, then 200.
        slow = _LaterFirstAdapter(_ContextAdapter(200), 205, step=0.0002)
        _, got = self._bootstrap(tmp_path / "b", slow)
        assert got.digest.encode() == expected.digest.encode()
        assert got.to_doc() == expected.to_doc()


class TestExecuteDataRequests:
    def test_failures_recorded_without_aborting(self, tmp_path):
        session = workspace.create_session(tmp_path, SeedRef(chainid=1, txs=(TX,)))
        iter_dir = workspace.next_iteration_dir(
            session, workspace.ROOT_CAUSE_STAGE_DIR
        )
        requests = [
            DataRequest(kind="tx_trace", chainid=1, target=TX),
            DataRequest(kind="other", chainid=1, target="nope"),
            DataRequest(kind="tx_trace", chainid=1, target=TX),  # name collision
        ]
        summary = execute_data_requests(session, requests, _StubAdapter(), iter_dir)
        assert summary.fetched_count == 2
        assert len(summary.failed) == 1
        names = sorted(p.name for p in iter_dir.glob("*.json"))
        assert len(names) == 2
        assert len(set(names)) == 2

    def test_out_path_is_honored(self, tmp_path):
        session = workspace.create_session(tmp_path, SeedRef(chainid=1, txs=(TX,)))
        iter_dir = workspace.next_iteration_dir(session, workspace.ROOT_CAUSE_STAGE_DIR)
        requests = [
            DataRequest(kind="tx_trace", chainid=1, target=TX, out_path="custom.json")
        ]
        execute_data_requests(session, requests, _StubAdapter(), iter_dir)
        assert (iter_dir / "custom.json").is_file()


class _LaterFirstAdapter:
    """Holds the k-th of ``n`` calls ``step`` seconds longer than the call
    after it, so later requests are answered first."""

    def __init__(self, inner, n: int, step: float = 0.005):
        self.inner = inner
        self.n = n
        self.step = step
        self._arrivals = itertools.count()

    def fetch(self, request: DataRequest) -> dict:
        time.sleep(self.step * (self.n - next(self._arrivals)))
        return self.inner.fetch(request)


class TestAnswerOrder:
    """Concurrent batches land as a serial batch would, whatever answers first."""

    def _collect(self, tmp_path, requests, adapter):
        session = workspace.create_session(tmp_path, SeedRef(chainid=1, txs=(TX,)))
        iter_dir = workspace.next_iteration_dir(session, workspace.ROOT_CAUSE_STAGE_DIR)
        summary = execute_data_requests(session, requests, adapter, iter_dir)
        files = {p.name: p.read_bytes() for p in sorted(iter_dir.iterdir())}
        return summary.to_doc(), files

    def test_data_requests(self, tmp_path):
        requests = _one_request_per_kind()
        requests.insert(2, requests[0])  # a name collision
        expected = self._collect(tmp_path / "a", requests, _StubAdapter())
        got = self._collect(
            tmp_path / "b", requests, _LaterFirstAdapter(_StubAdapter(), len(requests))
        )
        assert got == expected
        assert [f["request"] for f in got[0]["fetched"]] == [
            r.to_doc() for r in requests if r.kind != "other"
        ]

    def test_seed_bootstrap(self, tmp_path):
        txs = tuple("0x" + f"{i:02x}" * 32 for i in range(1, 4))
        seed = SeedRef(chainid=1, txs=txs)
        n = len(txs) * len(SEED_ARTIFACT_KINDS + SEED_CONTEXT_KINDS)
        slow = _LaterFirstAdapter(_SeedAdapter(), n)
        summary = fetch_seed_artifacts(workspace.create_session(tmp_path / "a", seed), slow)
        assert [f["request"]["target"] for f in summary.fetched] == [
            tx for tx in txs for _ in range(3)
        ]
        with pytest.raises(BootstrapError) as info:
            fetch_seed_artifacts(
                workspace.create_session(tmp_path / "b", seed),
                _LaterFirstAdapter(_SeedAdapter(fail_kinds={"tx_trace", "balance_diff"}), n),
            )
        assert info.value.diagnostics == [
            f"{kind} {tx}: stub failure for {kind}"
            for tx in txs
            for kind in ("tx_trace", "balance_diff")
        ]


class _CountingStub:
    """Counts calls; the first ``failures`` of them fail."""

    def __init__(self, failures: int = 0, delay: float = 0.0):
        self.failures = failures
        self.delay = delay
        self.calls = 0
        self._lock = threading.Lock()

    def fetch(self, request: DataRequest) -> dict:
        with self._lock:
            self.calls += 1
            call = self.calls
        time.sleep(self.delay)
        if call <= self.failures:
            raise UpstreamError(f"call {call} failed")
        return {"target": request.normalized_target(), "window": request.block_hi}


class TestSessionMemo:
    def test_a_repeated_request_reaches_the_adapter_once(self):
        inner = _CountingStub(delay=0.02)
        memo = SessionMemo(inner)
        request = DataRequest(kind="tx_trace", chainid=1, target=TX)
        again = DataRequest(
            kind="tx_trace", chainid=1, target=TX.upper().replace("0X", "0x"), reason="again"
        )
        # Three at once: the later two wait on the first call in flight.
        first = fetch_many(memo, [request, again, request])
        second = fetch_many(memo, [again])
        assert inner.calls == 1
        assert first == second * 3 == [{"target": TX, "window": None}] * 3

    def test_concurrent_repeats_under_fast_switching(self):
        inner = _CountingStub()
        memo = SessionMemo(inner)
        txs = ["0x" + f"{i:02x}" * 32 for i in range(1, 5)]
        requests = [
            DataRequest(kind="tx_trace", chainid=1, target=tx) for _ in range(8) for tx in txs
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            payloads = fetch_many(memo, requests)
        finally:
            sys.setswitchinterval(interval)
        assert inner.calls == len(txs)
        assert [p["target"] for p in payloads] == txs * 8

    def test_distinct_requests_are_fetched_apart(self):
        inner = _CountingStub()
        memo = SessionMemo(inner)
        requests = [
            DataRequest(kind="txlist", chainid=1, target=ADDR, block_lo=1, block_hi=hi)
            for hi in (10, 20)
        ]
        assert [p["window"] for p in fetch_many(memo, requests)] == [10, 20]
        assert inner.calls == 2

    def test_a_failed_fetch_is_fetched_again_by_a_later_batch(self):
        inner = _CountingStub(failures=1)
        memo = SessionMemo(inner)
        request = DataRequest(kind="tx_trace", chainid=1, target=TX)
        [failed] = fetch_many(memo, [request])
        assert isinstance(failed, UpstreamError)
        [payload] = fetch_many(memo, [request])
        assert payload == {"target": TX, "window": None}
        assert fetch_many(memo, [request]) == [payload]
        assert inner.calls == 2


class TestSharedResults:
    def test_waiters_get_the_first_callers_failure_and_it_is_not_kept(self):
        results = SharedResults()
        started, release = threading.Event(), threading.Event()
        calls = []

        def failing():
            calls.append("failing")
            started.set()
            release.wait(5)
            raise UpstreamError("busy")

        outcomes: list[BaseException] = []

        def call():
            try:
                results.get("k", failing)
            except UpstreamError as exc:
                outcomes.append(exc)

        first = threading.Thread(target=call)
        first.start()
        started.wait(5)
        waiter = threading.Thread(target=call)
        waiter.start()
        # The waiter makes the gate, so once it exists the waiter is bound
        # to this call.
        while results._entries["k"].gate is None:
            time.sleep(0.001)
        release.set()
        for thread in (first, waiter):
            thread.join(5)
        assert calls == ["failing"]
        assert len(outcomes) == 2 and outcomes[0] is outcomes[1]
        assert results.get("k", lambda: "again") == "again"
        assert results.get("k", lambda: "not asked") == "again"

    def test_waiters_get_the_first_callers_result(self):
        results = SharedResults()
        started, release = threading.Event(), threading.Event()

        def slow():
            started.set()
            release.wait(5)
            return ["payload"]

        got = []
        first = threading.Thread(target=lambda: got.append(results.get("k", slow)))
        first.start()
        started.wait(5)
        waiter = threading.Thread(target=lambda: got.append(results.get("k", list)))
        waiter.start()
        while results._entries["k"].gate is None:
            time.sleep(0.001)
        release.set()
        for thread in (first, waiter):
            thread.join(5)
        assert got == [["payload"]] * 2 and got[0] is got[1]

    def test_maxsize_drops_the_oldest_key_first(self):
        results = SharedResults(maxsize=2)
        for key in "abc":
            results.get(key, lambda key=key: key.upper())
        assert results.get("c", lambda: "not asked") == "C"
        assert results.get("a", lambda: "again") == "again"
        # "a" pushed out "b", the oldest left; "c" and "a" are kept.
        assert results.get("c", lambda: "not asked") == "C"
        assert results.get("a", lambda: "not asked") == "again"
        assert results.get("b", lambda: "again") == "again"

    def test_a_key_dropped_in_flight_still_answers_its_waiters(self):
        results = SharedResults(maxsize=1)
        started, release = threading.Event(), threading.Event()

        def slow():
            started.set()
            release.wait(5)
            return "first"

        got = []
        first = threading.Thread(target=lambda: got.append(results.get("k", slow)))
        first.start()
        started.wait(5)
        waiter = threading.Thread(target=lambda: got.append(results.get("k", str)))
        waiter.start()
        while results._entries["k"].gate is None:
            time.sleep(0.001)
        assert results.get("other", lambda: "other") == "other"
        release.set()
        for thread in (first, waiter):
            thread.join(5)
        assert got == ["first", "first"]
        assert results.get("other", lambda: "not asked") == "other"
        assert results.get("k", lambda: "again") == "again"


class TestOneKeyPerRequest:
    """Each request is hashed once, however many layers key it."""

    @pytest.mark.parametrize("inner", ["replay", "record"])
    def test_a_memoised_fetch_hashes_each_request_once(self, tmp_path, monkeypatch, inner):
        store = FixtureStore(tmp_path)
        hit, miss = _request(), _request(kind="tx_metadata")
        if inner == "replay":
            store.save(_request(), {"root": {}})
            adapter = ReplayAdapter(store)
        else:
            adapter = RecordingAdapter(_StubAdapter(), store)
        hashes = []
        sha256 = hashlib.sha256

        def counting_sha256(*args):
            hashes.append(args)
            return sha256(*args)

        monkeypatch.setattr(hashlib, "sha256", counting_sha256)
        payloads = fetch_many(SessionMemo(adapter), [hit, miss])
        assert len(hashes) == 2
        if inner == "replay":
            assert payloads[0] == {"root": {}}
            assert isinstance(payloads[1], MissingFixture)
        else:
            assert store.keys() == sorted([fixture_key(hit), fixture_key(miss)])

    def test_an_unserialisable_extra_fails_at_fetch_time(self, tmp_path):
        request = _request(extra={"slot": object()})
        with pytest.raises(TypeError):
            ReplayAdapter(FixtureStore(tmp_path)).fetch(request)
        with pytest.raises(TypeError):
            fixture_key(request)


class TestTypedFetchers:
    def test_txlist_is_sorted_by_order_key(self, tmp_path):
        store = FixtureStore(tmp_path)
        request = DataRequest(kind="txlist", chainid=1, target=ADDR)
        rows = [
            {"txhash": "0x" + "01" * 32, "block_number": 9, "from": ADDR, "to": ADDR,
             "selector": None, "value": 0, "gas_used": 1, "effective_gas_price": 1,
             "status": True, "index": 1},
            {"txhash": "0x" + "02" * 32, "block_number": 3, "from": ADDR, "to": ADDR,
             "selector": None, "value": 0, "gas_used": 1, "effective_gas_price": 1,
             "status": True, "index": 0},
            {"txhash": "0x" + "03" * 32, "block_number": 9, "from": ADDR, "to": ADDR,
             "selector": None, "value": 0, "gas_used": 1, "effective_gas_price": 1,
             "status": True, "index": 0},
        ]
        store.save(request, {"records": rows})
        [records] = fetch_txlists(ReplayAdapter(store), 1, [ADDR])
        assert [r.block_number for r in records] == [3, 9, 9]
        assert [r.index for r in records] == [0, 0, 1]

    def test_storage_slot_round_trip(self, tmp_path):
        store = FixtureStore(tmp_path)
        request = DataRequest(
            kind="storage_slot",
            chainid=1,
            target=ADDR,
            extra={"slot": "0x2", "block": 123},
        )
        store.save(request, {"address": ADDR, "slot": "0x2", "block": 123,
                             "value_hex": "0x" + "00" * 31 + "2a"})
        payload = ReplayAdapter(store).fetch(request)
        assert payload["value_hex"] == "0x" + "00" * 31 + "2a"


class TestCaseFixtures:
    """The bundled demo incidents must replay the mining windows exactly."""

    def test_window_txlist_counts(self, valinity_run):
        adapter = valinity_run.bundle.adapter()
        lo = VAL_SEED_BLOCK - DEFAULT_WINDOW
        hi = VAL_SEED_BLOCK + DEFAULT_WINDOW
        eoa, eoa_2, router = fetch_txlists(
            adapter, VAL_CHAIN, [VAL_EOA, VAL_EOA_2, VAL_ROUTER], lo, hi
        )
        assert len(eoa) == 14
        assert eoa_2 == []
        assert len(router) == 2

    def test_replaying_twice_is_byte_identical(self, valinity_run):
        adapter = valinity_run.bundle.adapter()
        lo = VAL_SEED_BLOCK - DEFAULT_WINDOW
        hi = VAL_SEED_BLOCK + DEFAULT_WINDOW
        request = DataRequest(
            kind="txlist", chainid=VAL_CHAIN, target=VAL_EOA, block_lo=lo, block_hi=hi
        )
        first = json.dumps(adapter.fetch(request), sort_keys=True)
        second = json.dumps(valinity_run.bundle.adapter().fetch(request), sort_keys=True)
        assert first == second


class TestRpcMap:
    def test_packaged_map_covers_every_supported_chain(self):
        from txpostmortem.domain import CHAIN_NAMES

        mapping = load_rpc_map()
        assert set(mapping) == set(CHAIN_NAMES)

    def test_custom_map_file(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text('{"1": "http://node-one"}')
        assert load_rpc_map(path) == {1: "http://node-one"}

    def test_resolve_substitutes_credentials(self):
        url = resolve_rpc_url(1, {"KEY": "abc"}, {1: "http://node/${KEY}"})
        assert url == "http://node/abc"

    def test_unsupported_chain(self):
        with pytest.raises(UnsupportedChain):
            resolve_rpc_url(424242, {}, {424242: "http://node"})

    def test_unconfigured_chain(self):
        with pytest.raises(UnsupportedChain):
            resolve_rpc_url(1, {}, {10: "http://node"})

    def test_missing_credential_names_the_variable(self):
        with pytest.raises(MissingCredential) as info:
            resolve_rpc_url(1, {}, {1: "http://node/${SECRET_TOKEN}"})
        assert "SECRET_TOKEN" in str(info.value)


def _metadata_rpc(responses: dict[str, dict]):
    calls = []

    def rpc_post(url, body, timeout):
        calls.append(body)
        return {"jsonrpc": "2.0", "id": body["id"], "result": responses[body["method"]]}

    return rpc_post, calls


def _http_error(status: int) -> Exception:
    """What ``requests`` raises for a reply with this HTTP status."""
    requests = pytest.importorskip("requests")
    response = requests.Response()
    response.status_code = status
    return requests.HTTPError(f"{status} for url: http://node", response=response)


class TestLiveAdapter:
    def _adapter(self, rpc_post=None, api_get=None, env=None, retries=3):
        return LiveAdapter(
            env=env or {},
            rpc_map={1: "http://node"},
            rpc_post=rpc_post or (lambda url, body, timeout: {"result": None}),
            api_get=api_get or (lambda url, params, timeout: {}),
            retries=retries,
            backoff=0.0,
        )

    def test_tx_metadata_normalization(self):
        rpc_post, calls = _metadata_rpc(
            {
                "eth_getTransactionByHash": {
                    "blockNumber": "0x64",
                    "from": ADDR.upper().replace("0X", "0x"),
                    "to": None,
                    "value": "0xde0b6b3a7640000",
                    "nonce": "0x1",
                    "gasPrice": "0x5f5e100",
                    "input": "0xa9059cbb" + "00" * 64,
                },
                "eth_getTransactionReceipt": {
                    "gasUsed": "0x5208",
                    "effectiveGasPrice": "0x5f5e100",
                    "status": "0x1",
                },
            }
        )
        adapter = self._adapter(rpc_post=rpc_post)
        doc = adapter.fetch(DataRequest(kind="tx_metadata", chainid=1, target=TX))
        assert doc["block_number"] == 100
        assert doc["from"] == ADDR
        assert doc["to"] is None
        assert doc["value"] == 10**18
        assert doc["gas_used"] == 21000
        assert doc["selector"] == "0xa9059cbb"
        assert doc["status"] == 1
        assert calls[0]["method"] == "eth_getTransactionByHash"

    def test_pending_transaction_is_an_error_and_is_not_kept(self):
        # A pending transaction has no block yet; answering block 0 would
        # send a miner to the window around the genesis block.
        rpc_post, calls = _metadata_rpc(
            {"eth_getTransactionByHash": {"blockNumber": None, "from": ADDR, "input": "0x"}}
        )
        adapter = self._adapter(rpc_post=rpc_post)
        request = DataRequest(kind="tx_metadata", chainid=1, target=TX)
        for _ in range(2):
            with pytest.raises(UpstreamError, match="pending"):
                adapter_memo(adapter).fetch(request)
        assert [c["method"] for c in calls] == ["eth_getTransactionByHash"] * 2

    def test_retries_then_upstream_error(self):
        attempts = []

        def rpc_post(url, body, timeout):
            attempts.append(1)
            raise OSError("connection refused")

        adapter = self._adapter(rpc_post=rpc_post, retries=3)
        with pytest.raises(UpstreamError) as info:
            adapter.fetch(DataRequest(kind="tx_metadata", chainid=1, target=TX))
        assert len(attempts) == 3
        assert "3 attempts" in str(info.value)

    def test_rpc_error_payloads_are_upstream_errors(self):
        def rpc_post(url, body, timeout):
            return {"error": {"code": -32000, "message": "header not found"}}

        adapter = self._adapter(rpc_post=rpc_post, retries=1)
        with pytest.raises(UpstreamError):
            adapter.fetch(DataRequest(kind="storage_slot", chainid=1, target=ADDR))

    def test_rpc_error_reply_is_final(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(live.time, "sleep", sleeps.append)
        calls = []

        def rpc_post(url, body, timeout):
            calls.append(body["method"])
            return {"id": body["id"], "error": {"code": -32000, "message": "header not found"}}

        adapter = LiveAdapter(env={}, rpc_map={1: "http://node"}, rpc_post=rpc_post)
        with pytest.raises(UpstreamError) as info:
            adapter.fetch(DataRequest(kind="storage_slot", chainid=1, target=ADDR))
        assert calls == ["eth_getStorageAt"]
        assert sleeps == []
        assert "header not found" in str(info.value)

    def test_transport_errors_are_retried(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(live.time, "sleep", sleeps.append)
        replies = iter([OSError("connection reset"), {"result": "0x2a"}])
        calls = []

        def rpc_post(url, body, timeout):
            calls.append(body["method"])
            reply = next(replies)
            if isinstance(reply, Exception):
                raise reply
            return reply

        adapter = LiveAdapter(env={}, rpc_map={1: "http://node"}, rpc_post=rpc_post)
        doc = adapter.fetch(DataRequest(kind="storage_slot", chainid=1, target=ADDR))
        assert doc["value_hex"] == "0x2a"
        assert len(calls) == 2
        assert sleeps == [adapter.backoff]

    def _failing_rpc_adapter(self, monkeypatch, error):
        sleeps, calls = [], []
        monkeypatch.setattr(live.time, "sleep", sleeps.append)

        def rpc_post(url, body, timeout):
            calls.append(body["method"])
            raise error

        adapter = LiveAdapter(env={}, rpc_map={1: "http://node"}, rpc_post=rpc_post)
        return adapter, calls, sleeps

    @pytest.mark.parametrize("status", [400, 404])
    def test_http_client_error_is_final(self, monkeypatch, status):
        adapter, calls, sleeps = self._failing_rpc_adapter(monkeypatch, _http_error(status))
        with pytest.raises(live.ErrorReply, match=f"HTTP {status}"):
            adapter.fetch(DataRequest(kind="storage_slot", chainid=1, target=ADDR))
        assert calls == ["eth_getStorageAt"]
        assert sleeps == []

    def test_status_is_read_from_any_transport(self, monkeypatch):
        class Rejected(Exception):
            response = type("Reply", (), {"status_code": 403})()

        adapter, calls, sleeps = self._failing_rpc_adapter(monkeypatch, Rejected("forbidden"))
        with pytest.raises(live.ErrorReply, match="HTTP 403"):
            adapter.fetch(DataRequest(kind="storage_slot", chainid=1, target=ADDR))
        assert calls == ["eth_getStorageAt"]
        assert sleeps == []

    @pytest.mark.parametrize("status", [408, 429, 500, 503])
    def test_http_transient_statuses_are_retried(self, monkeypatch, status):
        adapter, calls, sleeps = self._failing_rpc_adapter(monkeypatch, _http_error(status))
        with pytest.raises(UpstreamError, match="after 3 attempts"):
            adapter.fetch(DataRequest(kind="storage_slot", chainid=1, target=ADDR))
        assert calls == ["eth_getStorageAt"] * adapter.retries
        assert sleeps == [adapter.backoff * 2**k for k in range(adapter.retries - 1)]

    def test_connection_error_is_retried(self, monkeypatch):
        requests = pytest.importorskip("requests")
        error = requests.ConnectionError("connection reset")
        adapter, calls, sleeps = self._failing_rpc_adapter(monkeypatch, error)
        with pytest.raises(UpstreamError, match="after 3 attempts"):
            adapter.fetch(DataRequest(kind="storage_slot", chainid=1, target=ADDR))
        assert calls == ["eth_getStorageAt"] * adapter.retries
        assert sleeps == [adapter.backoff * 2**k for k in range(adapter.retries - 1)]

    def _explorer_adapter(self, monkeypatch, reply):
        sleeps, calls = [], []
        monkeypatch.setattr(live.time, "sleep", sleeps.append)

        def api_get(url, params, timeout):
            calls.append(params["action"])
            return reply

        adapter = LiveAdapter(
            env={"ETHERSCAN_API_KEY": "k"}, rpc_map={1: "http://node"}, api_get=api_get
        )
        return adapter, calls, sleeps

    def test_explorer_error_reply_is_final(self, monkeypatch):
        reply = {"status": "0", "message": "NOTOK", "result": "Invalid API Key"}
        adapter, calls, sleeps = self._explorer_adapter(monkeypatch, reply)
        with pytest.raises(UpstreamError, match="Invalid API Key"):
            adapter.fetch(DataRequest(kind="txlist", chainid=1, target=ADDR))
        assert calls == ["txlist"]
        assert sleeps == []

    def test_explorer_rate_limit_is_retried(self, monkeypatch):
        reply = {"status": "0", "message": "NOTOK", "result": "Max rate limit reached"}
        adapter, calls, sleeps = self._explorer_adapter(monkeypatch, reply)
        with pytest.raises(UpstreamError, match="after 3 attempts"):
            adapter.fetch(DataRequest(kind="txlist", chainid=1, target=ADDR))
        assert calls == ["txlist"] * adapter.retries
        assert sleeps == [adapter.backoff * 2**k for k in range(adapter.retries - 1)]

    def test_explorer_no_transactions_is_empty(self, monkeypatch):
        reply = {"status": "0", "message": "No transactions found", "result": []}
        adapter, calls, sleeps = self._explorer_adapter(monkeypatch, reply)
        doc = adapter.fetch(DataRequest(kind="txlist", chainid=1, target=ADDR))
        assert doc == {"records": []}
        assert calls == ["txlist"]
        assert sleeps == []

    def test_txlist_requires_explorer_credential(self):
        adapter = self._adapter()
        with pytest.raises(MissingCredential) as info:
            adapter.fetch(DataRequest(kind="txlist", chainid=1, target=ADDR))
        assert "ETHERSCAN_API_KEY" in str(info.value)

    def test_txlist_parses_explorer_rows(self):
        def api_get(url, params, timeout):
            assert params["apikey"] == "k"
            assert params["action"] == "txlist"
            return {
                "status": "1",
                "result": [
                    {
                        "hash": TX.upper().replace("0X", "0x"),
                        "blockNumber": "100",
                        "from": ADDR,
                        "to": ADDR,
                        "input": "0x",
                        "value": "0",
                        "gasUsed": "21000",
                        "gasPrice": "100",
                        "isError": "0",
                    }
                ],
            }

        adapter = self._adapter(api_get=api_get, env={"ETHERSCAN_API_KEY": "k"})
        doc = adapter.fetch(DataRequest(kind="txlist", chainid=1, target=ADDR))
        assert doc["records"][0]["txhash"] == TX
        assert doc["records"][0]["status"] is True
        assert doc["records"][0]["index"] == 0

    def test_storage_slot_hexifies_int_blocks(self):
        slots = []

        def rpc_post(url, body, timeout):
            slots.append(body["params"])
            return {"result": "0x2a"}

        adapter = self._adapter(rpc_post=rpc_post)
        doc = adapter.fetch(
            DataRequest(
                kind="storage_slot",
                chainid=1,
                target=ADDR,
                extra={"slot": "0x1", "block": 255},
            )
        )
        assert slots[0] == [ADDR, "0x1", "0xff"]
        assert doc["value_hex"] == "0x2a"


_PRESTATE = {
    "pre": {ADDR: {"balance": "0x10", "nonce": 1}, "0x" + "ef" * 20: {"balance": "0x5"}},
    "post": {ADDR: {"balance": "0x4"}, "0x" + "ef" * 20: {"nonce": 2}},
}


class TestLiveAdapterCalls:
    """What the live adapter sends upstream, counted at its transport."""

    def test_rpc_map_is_loaded_once(self, monkeypatch):
        loads = []

        def counting_load(path=None):
            loads.append(path)
            return load_rpc_map(path)

        monkeypatch.setattr(live, "load_rpc_map", counting_load)
        adapter = LiveAdapter(
            env={"QUICKNODE_ENDPOINT": "node", "QUICKNODE_API_KEY": "key"},
            rpc_post=lambda url, body, timeout: {"result": "0x2a"},
            api_get=lambda url, params, timeout: {},
        )
        for slot in range(5):
            adapter.fetch(
                DataRequest(kind="storage_slot", chainid=1, target=ADDR, extra={"slot": hex(slot)})
            )
        assert len(loads) == 1

    def _prestate_adapter(self, reply=lambda: {"result": _PRESTATE}):
        calls = []

        def rpc_post(url, body, timeout):
            assert body["method"] == "debug_traceTransaction"
            calls.append(body["params"])
            time.sleep(0.05)  # long enough for the other thread to ask
            return reply()

        adapter = LiveAdapter(
            env={}, rpc_map={1: "http://node"}, rpc_post=rpc_post, retries=1, backoff=0.0
        )
        return adapter, calls

    def test_balance_and_state_diff_share_one_prestate_call(self):
        adapter, calls = self._prestate_adapter()
        requests = [
            DataRequest(kind="balance_diff", chainid=1, target=TX),
            DataRequest(kind="state_diff", chainid=1, target=TX.upper().replace("0X", "0x")),
        ]
        balance, state = fetch_many(adapter, requests)
        assert len(calls) == 1
        assert calls[0][1] == {"tracer": "prestateTracer", "tracerConfig": {"diffMode": True}}
        assert balance == {
            "entries": [
                {"address": ADDR, "asset": "native", "delta": 4 - 16, "decimals": 18}
            ]
        }
        assert state == {"pre": _PRESTATE["pre"], "post": _PRESTATE["post"]}

    def test_concurrent_kinds_make_one_prestate_call_per_tx(self):
        adapter, calls = self._prestate_adapter()
        txs = ["0x" + f"{i:02x}" * 32 for i in range(1, 5)]
        requests = [
            DataRequest(kind=kind, chainid=1, target=tx)
            for _ in range(2)
            for tx in txs
            for kind in ("balance_diff", "state_diff")
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            payloads = fetch_many(adapter, requests)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(params[0] for params in calls) == txs
        assert all(not isinstance(p, Exception) for p in payloads)

    def test_a_failed_prestate_call_is_not_kept(self):
        replies = iter([{"error": {"code": -32000, "message": "busy"}}, {"result": _PRESTATE}])
        adapter, calls = self._prestate_adapter(lambda: next(replies))
        request = DataRequest(kind="balance_diff", chainid=1, target=TX)
        with pytest.raises(UpstreamError):
            adapter.fetch(request)
        assert adapter.fetch(request)["entries"][0]["delta"] == -12
        assert len(calls) == 2


class TestDisassembler:
    def test_push_widths_consume_immediates(self):
        # 6001 = PUSH1 0x01, 52 = MSTORE, 00 = STOP
        listing = disassemble("0x600152 00".replace(" ", ""))
        lines = listing.splitlines()
        assert lines[0].endswith("PUSH1 0x01")
        assert lines[1].endswith("MSTORE")
        assert lines[2].endswith("STOP")

    def test_unknown_opcodes_keep_raw_hex(self):
        listing = disassemble("0x0c")
        assert "UNKNOWN_0x0c" in listing

    def test_limit_caps_output(self):
        listing = disassemble("0x" + "00" * 100, limit=5)
        assert len(listing.splitlines()) == 5
