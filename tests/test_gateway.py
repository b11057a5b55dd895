"""Chain-data gateway: fixture keys, record/replay closure, live adapter."""

from __future__ import annotations

import builtins
import dataclasses
import hashlib
import io
import itertools
import json
import os
import sys
import threading
import time
import urllib.error
from collections import Counter
from pathlib import Path

import pytest
from conftest import ChainsAdapter, PeakAdapter
from hypothesis import given
from hypothesis import strategies as st

from txpostmortem import transport, workspace
from txpostmortem.domain import SUPPORTED_CHAINS, Address, SeedRef, TxHash, UnsupportedChain
from txpostmortem.gateway.base import (
    LOOKUP_BATCH,
    BootstrapError,
    GatewayError,
    MissingCredential,
    MissingFixture,
    SharedResults,
    UnsupportedRequest,
    UpstreamError,
    load_rpc_map,
    lookup_members,
    resolve_rpc_url,
    tx_lookup,
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
)
from txpostmortem.gateway.fixtures import (
    FixtureStore,
    RecordingAdapter,
    ReplayAdapter,
    fixture_key,
)
from txpostmortem.gateway import fixtures, live
from txpostmortem.gateway import types as gateway_types
from txpostmortem.gateway.live import LiveAdapter, disassemble
from txpostmortem.gateway.types import DataRequest, TxRecord
from txpostmortem.lifecycle import DEFAULT_WINDOW, ParticipantSet, mine_lifecycle
from txpostmortem.scenarios import (
    VAL_CHAIN,
    VAL_EOA,
    VAL_EOA_2,
    VAL_ROUTER,
    VAL_SEED_BLOCK,
)

TX = "0x" + "ab" * 32
ADDR = "0x" + "cd" * 20


#: Block bounds of every JSON scalar type a request may carry.
_BOUNDS = st.none() | st.integers() | st.booleans() | st.floats()
#: Nested JSON values, as ``extra`` may hold.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


def _request(**overrides) -> DataRequest:
    base = dict(kind="tx_trace", chainid=1, target=TX)
    base.update(overrides)
    return DataRequest(**base)


class TestFixtureKey:
    def test_deterministic(self):
        assert fixture_key(_request()) == fixture_key(_request())

    def test_ignores_reason(self):
        plain = fixture_key(_request())
        annotated = fixture_key(_request(reason="why not"))
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

    @given(
        kind=st.sampled_from([*workspace.DATA_REQUEST_KINDS, "tx_lookup"]) | st.text(),
        chainid=st.sampled_from(sorted(SUPPORTED_CHAINS)) | st.integers(),
        target=st.sampled_from([TX, TX.upper(), f" {ADDR} ", ""]) | st.text(),
        block_lo=_BOUNDS,
        block_hi=_BOUNDS,
        extra=st.dictionaries(st.text(), _JSON_VALUES, max_size=4),
    )
    def test_the_key_is_the_hash_of_the_sorted_compact_identity(
        self, kind, chainid, target, block_lo, block_hi, extra
    ):
        """Fixture files are named by the key, so its bytes never change:
        the first 16 hex digits of the SHA-256 of the request's identity
        as ``json.dumps`` writes it with sorted keys and no spaces."""
        request = DataRequest(
            kind=kind, chainid=chainid, target=target,
            block_lo=block_lo, block_hi=block_hi, extra=extra,
        )
        identity = {
            "kind": kind,
            "chainid": chainid,
            "target": request.normalized_target(),
            "block_lo": block_lo,
            "block_hi": block_hi,
            "extra": extra,
        }
        blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
        assert request.key == f"{kind}_{chainid}_{digest}"


class TestFixtureStore:
    def test_round_trip(self, tmp_path):
        store = FixtureStore(tmp_path)
        request = _request()
        store.save(request, {"root": {"x": 1}})
        assert [p.name for p in tmp_path.iterdir()] == [f"{fixture_key(request)}.json"]
        assert store.load(request) == {"root": {"x": 1}}

    def test_missing_fixture(self, tmp_path):
        store = FixtureStore(tmp_path)
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
        assert store.load(_request()) == {"root": {"x": 1}}
        assert [p.name for p in store.root.iterdir()] == [f"{fixture_key(_request())}.json"]

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

    def test_each_fixture_is_a_file_named_by_its_key(self, tmp_path):
        store = FixtureStore(tmp_path)
        requests = [_request(kind="txlist", target=ADDR), _request()]
        store.save(requests[0], {"records": []})
        store.save(requests[1], {"root": {}})
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"{fixture_key(request)}.json" for request in requests
        )
        assert FixtureStore(tmp_path).load(requests[0]) == {"records": []}


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

    def test_a_lookup_is_replayed_from_its_members_fixtures(self, tmp_path):
        metadata = DataRequest(kind="tx_metadata", chainid=1, target=TX)
        FixtureStore(tmp_path).save(metadata, {"txhash": TX, "block_number": 7})
        replay = ReplayAdapter(FixtureStore(tmp_path))
        lookup = tx_lookup(1, ["0x" + "ef" * 32, TX.upper().replace("0X", "0x")])
        assert replay.fetch(lookup) == {"found": {TX: {"txhash": TX, "block_number": 7}}}
        assert [p.name for p in tmp_path.iterdir()] == [f"{fixture_key(metadata)}.json"]

    def test_a_lookup_is_not_a_kind_a_model_may_request(self):
        assert "tx_lookup" not in workspace.DATA_REQUEST_KINDS

    @pytest.mark.parametrize(
        "txhashes", [[], [TX] * (LOOKUP_BATCH + 1), TX, [TX, 7]],
        ids=["none", "too-many", "not-a-list", "not-a-string"],
    )
    def test_a_malformed_lookup_is_refused(self, txhashes):
        request = DataRequest(kind="tx_lookup", chainid=1, target="", extra={"txhashes": txhashes})
        with pytest.raises(UnsupportedRequest, match="tx_lookup"):
            lookup_members(request)
        [refused] = fetch_many(LiveAdapter(env={}, rpc_map={1: "http://node"}), [request])
        assert isinstance(refused, UnsupportedRequest)


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
        assert "extra" not in doc
        rich = _request(block_lo=1, block_hi=2, reason="r", extra={"k": 1})
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
        )
        doc = {
            "txhash": TX,
            "block_number": 7,
            "from": ADDR,
            "to": None,
            "gas_used": 21000,
            "effective_gas_price": 10,
        }
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
        summary, _ = fetch_seed_artifacts(session, SessionMemo(_SeedAdapter()))
        assert len(summary["fetched"]) == 3
        seed_dir = session.root / workspace.SEED_DIR
        assert [p.name for p in seed_dir.iterdir()] == ["1"]
        assert sorted(p.name for p in (seed_dir / "1" / TX).iterdir()) == [
            "balance_diff.json", "metadata.json", "trace.json"
        ]

    def test_any_failure_is_fatal_with_diagnostics(self, tmp_path):
        session = self._session(tmp_path)
        with pytest.raises(BootstrapError) as info:
            fetch_seed_artifacts(session, SessionMemo(_SeedAdapter(fail_kinds={"tx_trace"})))
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
        return (session, *fetch_seed_artifacts(session, SessionMemo(adapter)))

    def test_context_lands_in_its_directory(self, tmp_path):
        session, summary, digest = self._bootstrap(tmp_path, _ContextAdapter(3))
        context = session.root / workspace.SEED_CONTEXT_DIR
        assert sorted(p.name for p in context.iterdir()) == sorted(
            [f"receipt_logs_{TX}.json", f"state_diff_{TX}.json"]
            + [f"contract_meta_0x{i:040x}.json" for i in (1, 2, 3)]
        )
        assert len(summary["fetched"]) == 3 + 5
        assert summary["failed"] == []
        lines = digest.splitlines()
        assert lines[0].startswith(f"Seed context already fetched into {workspace.SEED_CONTEXT_DIR}/")
        assert lines[1] == (
            f"- receipt_logs_{TX}.json: 3 logs: "
            + ", ".join(f"Ping at 0x{i:040x}" for i in (1, 2, 3))
        )
        assert [line.split(":")[0] for line in lines[3:]] == [
            f"- contract_meta_0x{i:040x}.json" for i in (1, 2, 3)
        ]

    def test_context_misses_are_recorded_not_fatal(self, tmp_path):
        _, summary, digest = self._bootstrap(
            tmp_path, _ContextAdapter(2, fail_kinds={"receipt_logs", "contract_meta"})
        )
        assert [f["request"]["kind"] for f in summary["failed"]] == [
            "receipt_logs", "contract_meta", "contract_meta"
        ]
        assert digest.count("not available (stub failure for") == 3

    def test_digest_is_capped(self, tmp_path):
        _, summary, digest = self._bootstrap(tmp_path, _ContextAdapter(200))
        assert len(summary["fetched"]) == 3 + 2 + 200
        assert len(digest) <= SEED_DIGEST_CHARS
        assert all(len(line) <= SEED_DIGEST_LINE_CHARS for line in digest.splitlines())
        assert digest.endswith(f"more entries in {workspace.SEED_CONTEXT_DIR}/")

    def test_digest_ignores_answer_order(self, tmp_path):
        _, expected, expected_digest = self._bootstrap(tmp_path / "a", _ContextAdapter(200))
        # Both batches answered later-first: 5 seed requests, then 200.
        slow = _LaterFirstAdapter(_ContextAdapter(200), 205, step=0.0002)
        _, got, got_digest = self._bootstrap(tmp_path / "b", slow)
        assert got_digest.encode() == expected_digest.encode()
        assert got == expected


class TestExecuteDataRequests:
    def test_failures_recorded_without_aborting(self, tmp_path):
        session = workspace.create_session(tmp_path, SeedRef(chainid=1, txs=(TX,)))
        iter_dir = workspace.next_iteration_dir(
            session, workspace.ROOT_CAUSE_STAGE_DIR
        )
        requests = [
            DataRequest(kind="tx_trace", chainid=1, target=TX),
            DataRequest(kind="other", chainid=1, target="nope"),
            DataRequest(kind="tx_trace", chainid=1, target=TX, block_hi=7),  # name collision
        ]
        summary = execute_data_requests(session, requests, SessionMemo(_StubAdapter()), iter_dir)
        assert len(summary["fetched"]) == 2
        assert len(summary["failed"]) == 1
        names = sorted(p.name for p in (session.root / iter_dir).glob("*.json"))
        assert len(names) == 2
        assert len(set(names)) == 2

    def test_no_request_field_moves_a_landing(self, tmp_path):
        """A payload lands directly in its batch's directory, whatever file
        name the request carries or its target spells."""
        session = workspace.create_session(tmp_path, SeedRef(chainid=1, txs=(TX,)))
        raw = (session.root / workspace.RAW_INPUT).read_bytes()
        # Where the orchestrator lands its first analyst batch.
        iter_dir = f"{workspace.COLLECTION_DIR}/iter_1"
        named = {"kind": "tx_trace", "chainid": 1, "target": TX, "out_path": "../../../../raw.json"}
        requests = [
            DataRequest.from_doc(named),
            DataRequest(kind="other", chainid=1, target="../../../../raw"),
        ]
        summary = execute_data_requests(session, requests, SessionMemo(_CountingStub()), iter_dir)
        relpaths = [path for entry in summary["fetched"] for path in entry["files"]]
        assert len(relpaths) == 2
        for relpath in relpaths:
            assert (session.root / relpath).parent == session.root / iter_dir
            assert (session.root / relpath).is_file()
        assert (session.root / workspace.RAW_INPUT).read_bytes() == raw
        workspace.open_session(session.root)

    def test_a_payload_the_session_holds_lands_once(self, tmp_path):
        """A repeat writes nothing and names the file that holds it, even
        within one batch; a failure is not kept, so a later success lands."""
        session = workspace.create_session(tmp_path, SeedRef(chainid=1, txs=(TX,)))
        memo = SessionMemo(_CountingStub(failures=1))
        held = DataRequest(kind="tx_trace", chainid=1, target=TX)
        failed = DataRequest(kind="tx_metadata", chainid=1, target=TX)
        first = execute_data_requests(session, [failed], memo, "a")
        assert [entry["request"] for entry in first["failed"]] == [failed.to_doc()]
        second = execute_data_requests(session, [held, held], memo, "b")
        third = execute_data_requests(session, [failed, held], memo, "c")
        assert [entry["files"] for entry in second["fetched"] + third["fetched"]] == [
            [f"b/tx_trace_{TX[:24]}.json"],
            [f"b/tx_trace_{TX[:24]}.json"],
            [f"c/tx_metadata_{TX[:24]}.json"],
            [f"b/tx_trace_{TX[:24]}.json"],
        ]
        assert not (session.root / "a").exists()
        assert [p.name for p in (session.root / "b").iterdir()] == [f"tx_trace_{TX[:24]}.json"]
        assert [p.name for p in (session.root / "c").iterdir()] == [
            f"tx_metadata_{TX[:24]}.json"
        ]
        assert memo.adapter.calls == 3


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
        summary = execute_data_requests(session, requests, SessionMemo(adapter), iter_dir)
        files = {p.name: p.read_bytes() for p in sorted((session.root / iter_dir).iterdir())}
        return summary, files

    def test_data_requests(self, tmp_path):
        requests = _one_request_per_kind()
        requests.insert(2, dataclasses.replace(requests[0], block_hi=7))  # a name collision
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
        summary, _ = fetch_seed_artifacts(
            workspace.create_session(tmp_path / "a", seed), SessionMemo(slow)
        )
        assert [f["request"]["target"] for f in summary["fetched"]] == [
            tx for tx in txs for _ in range(3)
        ]
        with pytest.raises(BootstrapError) as info:
            fetch_seed_artifacts(
                workspace.create_session(tmp_path / "b", seed),
                SessionMemo(
                    _LaterFirstAdapter(_SeedAdapter(fail_kinds={"tx_trace", "balance_diff"}), n)
                ),
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


class TestMemoisedLookup:
    """A ``tx_lookup`` through a ``SessionMemo`` is memoised per member."""

    OTHER = "0x" + "ef" * 32

    def test_found_members_answer_later_metadata_requests(self):
        inner = ChainsAdapter({TX: {1}})
        memo = SessionMemo(inner)
        assert memo.fetch(tx_lookup(1, [TX, self.OTHER])) == {
            "found": {TX: {"txhash": TX, "chainid": 1}}
        }
        request = DataRequest(kind="tx_metadata", chainid=1, target=TX.upper().replace("0X", "0x"))
        assert memo.fetch(request) == {"txhash": TX, "chainid": 1}
        assert [r.kind for r in inner.calls] == ["tx_lookup"]

    def test_a_later_lookup_asks_only_for_its_misses(self):
        inner = ChainsAdapter({TX: {1}})
        memo = SessionMemo(inner)
        memo.fetch(tx_lookup(1, [TX, self.OTHER]))
        inner.hosts[self.OTHER] = {1}
        found = memo.fetch(tx_lookup(1, [self.OTHER, TX]))["found"]
        assert list(found) == [self.OTHER, TX]
        assert [r.extra["txhashes"] for r in inner.calls] == [[TX, self.OTHER], [self.OTHER]]
        assert memo.fetch(tx_lookup(1, [TX, self.OTHER]))["found"] == found
        assert len(inner.calls) == 2

    def test_overlapping_lookups_under_fast_switching_ask_each_member_once(self):
        hashes = ["0x" + f"{k:064x}" for k in range(1, 9)]
        inner = PeakAdapter({h: {1} for h in hashes})
        memo = SessionMemo(inner)
        # Twelve lookups on one chain, each held 10 ms, as FETCH_WORKERS lanes.
        requests = [tx_lookup(1, hashes[k : k + 4]) for k in range(0, 8, 2)] * 3
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            payloads = fetch_many(memo, requests)
        finally:
            sys.setswitchinterval(interval)
        assert Counter(inner.asked) == {(1, h): 1 for h in hashes}
        assert [list(p["found"]) for p in payloads] == [r.extra["txhashes"] for r in requests]

    def test_a_failed_lookup_keeps_nothing(self):
        class Down(ChainsAdapter):
            def wait(self, request):
                if len(self.calls) == 1:
                    raise UpstreamError("node down")

        inner = Down({TX: {1}})
        memo = SessionMemo(inner)
        [failed] = fetch_many(memo, [tx_lookup(1, [TX])])
        assert isinstance(failed, UpstreamError)
        assert memo.fetch(tx_lookup(1, [TX]))["found"] == {TX: {"txhash": TX, "chainid": 1}}
        assert len(inner.calls) == 2


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


class TestSharedResultsMany:
    """``get_many``: one claiming pass, one compute, members kept or dropped
    one by one."""

    def test_found_keys_are_kept_and_misses_asked_again(self):
        results = SharedResults()
        results.get("kept", lambda: "K")
        asked = []

        def compute(keys):
            asked.append(keys)
            return {"a": "A", "unasked": "U"}

        assert results.get_many(["kept", "a", "b"], compute) == {"kept": "K", "a": "A"}
        assert results.get_many(["a", "b", "b"], compute) == {"a": "A"}
        assert asked == [["a", "b"], ["b"]]
        assert results.get("b", lambda: "B") == "B"
        assert results.get_many(["b"], compute) == {"b": "B"}
        assert results.get("unasked", lambda: "computed") == "computed"
        assert len(asked) == 2

    def _hold(self, results, keys, found):
        """Start a ``get_many`` of ``keys`` whose compute waits for the
        returned event, then answers ``found``; return the event, the
        thread and where its answer lands."""
        started, release, got = threading.Event(), threading.Event(), []

        def compute(claimed):
            started.set()
            release.wait(5)
            return found

        thread = threading.Thread(target=lambda: got.append(results.get_many(keys, compute)))
        thread.start()
        started.wait(5)
        return release, thread, got

    def test_keys_another_caller_holds_are_waited_on(self):
        results = SharedResults()
        release, first, first_got = self._hold(results, ["a", "b"], {"a": "A"})
        asked, got = [], []

        def compute(keys):
            asked.append(keys)
            return {"c": "C"}

        second = threading.Thread(
            target=lambda: got.append(results.get_many(["a", "b", "c"], compute))
        )
        second.start()
        while results._entries["a"].gate is None or results._entries["b"].gate is None:
            time.sleep(0.001)
        release.set()
        for thread in (first, second):
            thread.join(5)
        assert not first.is_alive() and not second.is_alive()
        assert first_got == [{"a": "A"}]
        assert got == [{"a": "A", "c": "C"}]
        assert asked == [["c"]]

    def test_a_get_waiting_on_a_miss_computes_it(self):
        results = SharedResults()
        release, first, _ = self._hold(results, ["k"], {})
        got = []
        waiter = threading.Thread(target=lambda: got.append(results.get("k", lambda: "mine")))
        waiter.start()
        while results._entries["k"].gate is None:
            time.sleep(0.001)
        release.set()
        for thread in (first, waiter):
            thread.join(5)
        assert not first.is_alive() and not waiter.is_alive()
        assert got == ["mine"]
        assert results.get("k", lambda: "not asked") == "mine"

    def test_a_failed_compute_fails_its_claimed_keys_only(self):
        results = SharedResults()
        results.get("kept", lambda: "K")

        def failing(keys):
            raise UpstreamError("node down")

        with pytest.raises(UpstreamError, match="node down"):
            results.get_many(["kept", "a"], failing)
        assert results.get("kept", lambda: "not asked") == "K"
        assert results.get("a", lambda: "again") == "again"

    def test_a_held_key_whose_caller_failed_is_a_miss(self):
        results = SharedResults()
        started, release = threading.Event(), threading.Event()

        def failing():
            started.set()
            release.wait(5)
            raise UpstreamError("busy")

        def call():
            with pytest.raises(UpstreamError):
                results.get("a", failing)

        first = threading.Thread(target=call)
        first.start()
        started.wait(5)
        got = []
        waiter = threading.Thread(
            target=lambda: got.append(results.get_many(["a", "b"], lambda keys: {"b": "B"}))
        )
        waiter.start()
        while results._entries["a"].gate is None:
            time.sleep(0.001)
        release.set()
        for thread in (first, waiter):
            thread.join(5)
        assert not first.is_alive() and not waiter.is_alive()
        assert got == [{"b": "B"}]


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
        sha256 = gateway_types.sha256

        def counting_sha256(*args):
            hashes.append(args)
            return sha256(*args)

        monkeypatch.setattr(gateway_types, "sha256", counting_sha256)
        payloads = fetch_many(SessionMemo(adapter), [hit, miss])
        assert len(hashes) == 2
        if inner == "replay":
            assert payloads[0] == {"root": {}}
            assert isinstance(payloads[1], MissingFixture)
        else:
            assert sorted(p.stem for p in tmp_path.iterdir()) == sorted(
                [fixture_key(hit), fixture_key(miss)]
            )

    def test_an_unserialisable_extra_fails_at_fetch_time(self, tmp_path):
        request = _request(extra={"slot": object()})
        with pytest.raises(TypeError):
            ReplayAdapter(FixtureStore(tmp_path)).fetch(request)
        with pytest.raises(TypeError):
            fixture_key(request)


class TestTypedFetchers:
    def test_txlist_is_sorted_by_order_key(self, tmp_path):
        """The miner merges the txlists in account order, the first account
        to list a transaction supplying its record, and sorts the merged
        records by ``order_key``."""
        other = "0x" + "ef" * 20  # listed after ADDR

        def row(n, block, index, value=0):
            return {"txhash": "0x" + f"{n:02x}" * 32, "block_number": block, "from": ADDR,
                    "to": ADDR, "selector": None, "value": value, "gas_used": 1,
                    "effective_gas_price": 1, "status": True, "index": index}

        store = FixtureStore(tmp_path)
        seed = row(3, 9, 0)["txhash"]
        store.save(DataRequest(kind="tx_metadata", chainid=1, target=seed), {"block_number": 9})
        for account, rows in ((ADDR, [row(1, 9, 1), row(2, 3, 0)]),
                              (other, [row(3, 9, 0), row(1, 9, 1, value=7)])):
            request = DataRequest(kind="txlist", chainid=1, target=account, block_lo=0,
                                  block_hi=9 + DEFAULT_WINDOW)
            store.save(request, {"records": rows})
        participants = ParticipantSet(
            origin=Address(ADDR),
            adversary_eoas=frozenset({Address(ADDR)}),
            adversary_contracts=frozenset({Address(other)}),
            victims=frozenset(),
            helpers=frozenset(),
        )
        _, universe = mine_lifecycle(ReplayAdapter(store), 1, TxHash(seed), participants)
        assert [(r.block_number, r.index) for r in universe] == [(3, 0), (9, 0), (9, 1)]
        assert [r.txhash.value[:4] for r in universe] == ["0x02", "0x03", "0x01"]
        assert [r.value for r in universe] == [0, 0, 0]

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
        counts = [
            len(adapter.fetch(DataRequest(
                kind="txlist", chainid=VAL_CHAIN, target=account, block_lo=lo, block_hi=hi
            ))["records"])
            for account in (VAL_EOA, VAL_EOA_2, VAL_ROUTER)
        ]
        assert counts == [14, 0, 2]

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
    """What the transport raises for a reply with this HTTP status."""
    return urllib.error.HTTPError("http://node", status, "Refused", None, None)


#: JSON-RPC replies no seed kind can normalise, or may only partly.
_MALFORMED_REPLIES = {
    "list-result": {"jsonrpc": "2.0", "id": 1, "result": [{"blockNumber": "0x1"}]},
    "string-result": {"jsonrpc": "2.0", "id": 1, "result": "0x1234"},
    "no-result": {"jsonrpc": "2.0", "id": 1},
    "bad-block-number": {"jsonrpc": "2.0", "id": 1, "result": {"blockNumber": "0xzz"}},
    "not-an-object": ["jsonrpc", "2.0"],
}


class TestLiveAdapter:
    def _adapter(self, rpc_post=None, api_get=None, env=None):
        return LiveAdapter(
            env=env or {},
            rpc_map={1: "http://node"},
            rpc_post=rpc_post or (lambda url, body, timeout: {"result": None}),
            api_get=api_get or (lambda url, params, timeout: {}),
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

    def test_retries_then_upstream_error(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(transport.time, "sleep", sleeps.append)
        attempts = []

        def rpc_post(url, body, timeout):
            attempts.append(timeout)
            raise OSError("connection refused")

        adapter = self._adapter(rpc_post=rpc_post)
        with pytest.raises(UpstreamError) as info:
            adapter.fetch(DataRequest(kind="tx_metadata", chainid=1, target=TX))
        assert attempts == [live.TIMEOUT_S] * transport.RETRIES
        assert sleeps == [transport.BACKOFF_S * 2**k for k in range(transport.RETRIES - 1)]
        assert f"{transport.RETRIES} attempts" in str(info.value)

    def test_rpc_error_payloads_are_upstream_errors(self):
        def rpc_post(url, body, timeout):
            return {"error": {"code": -32000, "message": "header not found"}}

        adapter = self._adapter(rpc_post=rpc_post)
        with pytest.raises(UpstreamError):
            adapter.fetch(DataRequest(kind="storage_slot", chainid=1, target=ADDR))

    def test_rpc_error_reply_is_final(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(transport.time, "sleep", sleeps.append)
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
        monkeypatch.setattr(transport.time, "sleep", sleeps.append)
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
        assert sleeps == [transport.BACKOFF_S]

    def _failing_rpc_adapter(self, monkeypatch, error):
        sleeps, calls = [], []
        monkeypatch.setattr(transport.time, "sleep", sleeps.append)

        def rpc_post(url, body, timeout):
            calls.append(body["method"])
            raise error

        adapter = LiveAdapter(env={}, rpc_map={1: "http://node"}, rpc_post=rpc_post)
        return adapter, calls, sleeps

    @pytest.mark.parametrize("status", [400, 403, 404])
    def test_http_client_error_is_final(self, monkeypatch, status):
        adapter, calls, sleeps = self._failing_rpc_adapter(monkeypatch, _http_error(status))
        with pytest.raises(live.ErrorReply, match=f"HTTP {status}"):
            adapter.fetch(DataRequest(kind="storage_slot", chainid=1, target=ADDR))
        assert calls == ["eth_getStorageAt"]
        assert sleeps == []

    @pytest.mark.parametrize("status", [408, 429, 500, 503])
    def test_http_transient_statuses_are_retried(self, monkeypatch, status):
        adapter, calls, sleeps = self._failing_rpc_adapter(monkeypatch, _http_error(status))
        with pytest.raises(UpstreamError, match="after 3 attempts"):
            adapter.fetch(DataRequest(kind="storage_slot", chainid=1, target=ADDR))
        assert calls == ["eth_getStorageAt"] * transport.RETRIES
        assert sleeps == [transport.BACKOFF_S * 2**k for k in range(transport.RETRIES - 1)]

    def test_connection_error_is_retried(self, monkeypatch):
        error = urllib.error.URLError(ConnectionResetError(104, "connection reset"))
        adapter, calls, sleeps = self._failing_rpc_adapter(monkeypatch, error)
        with pytest.raises(UpstreamError, match="after 3 attempts"):
            adapter.fetch(DataRequest(kind="storage_slot", chainid=1, target=ADDR))
        assert calls == ["eth_getStorageAt"] * transport.RETRIES
        assert sleeps == [transport.BACKOFF_S * 2**k for k in range(transport.RETRIES - 1)]

    def _explorer_adapter(self, monkeypatch, reply):
        sleeps, calls = [], []
        monkeypatch.setattr(transport.time, "sleep", sleeps.append)

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
        assert calls == ["txlist"] * transport.RETRIES
        assert sleeps == [transport.BACKOFF_S * 2**k for k in range(transport.RETRIES - 1)]

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

    def test_mined_rows_of_one_block_keep_their_place_in_it(self):
        """Two accounts' explorer lists both reach block 10: the universe
        orders their rows by ``transactionIndex``, not by where each row
        sits in its own account's list."""
        other = "0x" + "ef" * 20

        def row(n, block, index):
            return {"hash": "0x" + f"{n:02x}" * 32, "blockNumber": str(block), "from": ADDR,
                    "to": other, "input": "0x", "value": "0", "gasUsed": "1",
                    "gasPrice": "1", "isError": "0", "transactionIndex": str(index)}

        lists = {ADDR: [row(3, 10, 7)], other: [row(1, 9, 0), row(2, 10, 0)]}
        def api_get(url, params, timeout):
            return {"status": "1", "result": lists[params["address"]]}

        live_adapter = self._adapter(api_get=api_get, env={"ETHERSCAN_API_KEY": "k"})

        class SeedAtBlock10:
            def fetch(self, request):
                if request.kind == "tx_metadata":
                    return {"block_number": 10}
                return live_adapter.fetch(request)

        participants = ParticipantSet(
            origin=Address(ADDR),
            adversary_eoas=frozenset({Address(ADDR)}),
            adversary_contracts=frozenset({Address(other)}),
            victims=frozenset(),
            helpers=frozenset(),
        )
        seed = TxHash("0x" + "03" * 32)
        _, universe = mine_lifecycle(SeedAtBlock10(), 1, seed, participants)
        assert [r.txhash.value[:4] for r in universe] == ["0x01", "0x02", "0x03"]
        assert [r.index for r in universe] == [0, 0, 7]

    @pytest.mark.parametrize("kind", SEED_ARTIFACT_KINDS + SEED_CONTEXT_KINDS)
    @pytest.mark.parametrize("reply", sorted(_MALFORMED_REPLIES))
    def test_a_malformed_reply_fails_its_own_request(self, monkeypatch, reply, kind):
        """It is final: one slot holds the error, and nothing is retried."""
        sleeps, calls = [], []
        monkeypatch.setattr(transport.time, "sleep", sleeps.append)

        def rpc_post(url, body, timeout):
            calls.append(body["method"])
            return json.loads(json.dumps(_MALFORMED_REPLIES[reply]))

        adapter = LiveAdapter(env={}, rpc_map={1: "http://node"}, rpc_post=rpc_post)
        requests = [
            DataRequest(kind=kind, chainid=1, target=TX),
            DataRequest(kind="other", chainid=1, target="anything"),
        ]
        payload, other = fetch_many(adapter, requests)
        assert isinstance(payload, (dict, GatewayError))
        assert isinstance(other, UnsupportedRequest)
        if reply == "not-an-object":
            assert isinstance(payload, live.ErrorReply)
            assert len(calls) == 1
        if reply == "bad-block-number" and kind == "tx_metadata":
            assert isinstance(payload, live.ErrorReply)
            assert f"tx_metadata {TX}" in str(payload)
        assert sleeps == []

    def test_malformed_meta_target_fails_its_request_not_the_batch(self, tmp_path):
        calls = []

        def rpc_post(url, body, timeout):
            calls.append(body["method"])
            return {"result": "0x6080"}

        def api_get(url, params, timeout):
            calls.append(params["action"])
            return {"status": "1", "result": [{"SourceCode": "contract V {}"}]}

        adapter = self._adapter(
            rpc_post=rpc_post, api_get=api_get, env={"ETHERSCAN_API_KEY": "k"}
        )
        good, bad = (
            DataRequest(kind="contract_meta", chainid=1, target=target)
            for target in (ADDR, "0x" + "zz" * 20)
        )
        session = workspace.create_session(tmp_path, SeedRef(chainid=1, txs=(TX,)))
        iter_dir = workspace.next_iteration_dir(session, workspace.ROOT_CAUSE_STAGE_DIR)
        summary = execute_data_requests(session, [good, bad], SessionMemo(adapter), iter_dir)
        assert [entry["request"] for entry in summary["fetched"]] == [good.to_doc()]
        assert [entry["request"] for entry in summary["failed"]] == [bad.to_doc()]
        # The malformed target never reaches the explorer or the node.
        assert calls == ["getsourcecode"]

    def test_a_chain_without_an_endpoint_fails_its_request_not_the_batch(self, monkeypatch):
        """Chain 5 is not supported and chain 10 has no endpoint in the map:
        each fails its own request, finally, and chain 1 is served."""
        sleeps = []
        monkeypatch.setattr(transport.time, "sleep", sleeps.append)
        urls = []

        def rpc_post(url, body, timeout):
            urls.append(url)
            return {"result": "0x2a"}

        requests = [
            DataRequest(kind="storage_slot", chainid=chainid, target=ADDR)
            for chainid in (1, 5, 10)
        ]
        served, unsupported, unconfigured = fetch_many(self._adapter(rpc_post=rpc_post), requests)
        assert served["value_hex"] == "0x2a"
        assert isinstance(unsupported, UnsupportedRequest)
        assert "unsupported chain id 5" in str(unsupported)
        assert isinstance(unconfigured, UnsupportedRequest)
        assert "no RPC endpoint configured for chain 10" in str(unconfigured)
        assert (urls, sleeps) == (["http://node"], [])

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


def _node_tx(block: int) -> dict:
    return {
        "blockNumber": hex(block),
        "from": ADDR,
        "to": None,
        "value": "0x0",
        "nonce": "0x1",
        "gasPrice": "0x5",
        "input": "0xa9059cbb",
    }


class _BatchNode:
    """A JSON-RPC node that answers a batch, or a single call, from
    ``txs`` and ``receipts`` by hash.  A ``(method, hash)`` in ``errors``
    gets an error item, one in ``silent`` no item at all, and a hash absent
    from its table a ``null`` result.  ``order`` rearranges each batch
    reply; every body sent is kept."""

    def __init__(self, txs, receipts, errors=(), silent=(), order=lambda items: items):
        self.tables = {"eth_getTransactionByHash": txs, "eth_getTransactionReceipt": receipts}
        self.errors, self.silent = set(errors), set(silent)
        self.order = order
        self.bodies = []

    def _answer(self, item):
        txhash = item["params"][0]
        if (item["method"], txhash) in self.errors:
            return {"jsonrpc": "2.0", "id": item["id"], "error": {"code": -32000, "message": "no"}}
        result = self.tables[item["method"]].get(txhash)
        return {"jsonrpc": "2.0", "id": item["id"], "result": result}

    def __call__(self, url, body, timeout):
        self.bodies.append(body)
        if isinstance(body, dict):
            return self._answer(body)
        return self.order([
            self._answer(item)
            for item in body
            if (item["method"], item["params"][0]) not in self.silent
        ])


class TestLiveLookup:
    """``tx_lookup`` on the live path: one batch of transactions, then one
    of the receipts of those mined."""

    HASHES = ["0x" + f"{k:02x}" * 32 for k in range(1, 5)]

    def _adapter(self, node):
        return LiveAdapter(env={}, rpc_map={1: "http://node"}, rpc_post=node)

    def test_replies_in_any_order_are_matched_by_id(self):
        txs = {h: _node_tx(100 + k) for k, h in enumerate(self.HASHES)}
        receipts = {
            h: {"gasUsed": hex(21000 + k), "status": "0x1"} for k, h in enumerate(self.HASHES)
        }
        node = _BatchNode(txs, receipts, order=lambda items: items[1:][::-1] + items[:1])
        found = self._adapter(node).fetch(tx_lookup(1, self.HASHES))["found"]
        assert [len(body) for body in node.bodies] == [4, 4]
        assert [body[0]["method"] for body in node.bodies] == [
            "eth_getTransactionByHash",
            "eth_getTransactionReceipt",
        ]
        assert list(found) == self.HASHES
        assert [found[h]["block_number"] for h in self.HASHES] == [100, 101, 102, 103]
        assert [found[h]["gas_used"] for h in self.HASHES] == [21000, 21001, 21002, 21003]
        # Each found document is the one tx_metadata builds.
        single = self._adapter(_BatchNode(txs, receipts))
        for h in self.HASHES:
            assert found[h] == single.fetch(DataRequest(kind="tx_metadata", chainid=1, target=h))

    @pytest.mark.parametrize(
        "miss",
        ["tx-error", "tx-null", "tx-pending", "tx-no-reply", "receipt-error", "receipt-no-reply"],
    )
    def test_each_kind_of_miss_leaves_its_member_out(self, miss):
        found_hash, missed = self.HASHES[0], self.HASHES[1]
        txs = {found_hash: _node_tx(100), missed: _node_tx(101)}
        receipts = {found_hash: {"status": "0x1"}, missed: {"status": "0x1"}}
        receipt = miss.startswith("receipt")
        method = "eth_getTransactionReceipt" if receipt else "eth_getTransactionByHash"
        errors = {(method, missed)} if miss.endswith("error") else set()
        silent = {(method, missed)} if miss.endswith("no-reply") else set()
        if miss == "tx-null":
            del txs[missed]
        elif miss == "tx-pending":
            txs[missed]["blockNumber"] = None
        node = _BatchNode(txs, receipts, errors, silent)
        payload = self._adapter(node).fetch(tx_lookup(1, [found_hash, missed]))
        assert payload == {"found": {found_hash: payload["found"][found_hash]}}
        receipts_asked = [item["params"][0] for item in node.bodies[1]]
        mined = [found_hash, missed] if receipt else [found_hash]
        assert receipts_asked == mined

    def test_a_null_receipt_is_found_with_defaults(self):
        node = _BatchNode({TX: _node_tx(100)}, {})
        found = self._adapter(node).fetch(tx_lookup(1, [TX]))["found"]
        assert found[TX]["status"] == 1 and found[TX]["gas_used"] == 0

    def test_nothing_mined_sends_no_receipt_batch(self):
        node = _BatchNode({}, {})
        assert self._adapter(node).fetch(tx_lookup(1, self.HASHES)) == {"found": {}}
        assert len(node.bodies) == 1

    @pytest.mark.parametrize(
        "reply",
        [{"jsonrpc": "2.0", "id": 1, "error": {"code": -32600, "message": "batch too large"}},
         "0x1", None],
        ids=["error-object", "string", "null"],
    )
    def test_a_reply_that_is_not_a_list_is_one_error_for_the_lookup(self, monkeypatch, reply):
        sleeps, calls = [], []
        monkeypatch.setattr(transport.time, "sleep", sleeps.append)

        def rpc_post(url, body, timeout):
            calls.append(body)
            return reply

        [payload] = fetch_many(self._adapter(rpc_post), [tx_lookup(1, self.HASHES)])
        assert isinstance(payload, live.ErrorReply)
        assert "malformed reply" in str(payload)
        assert len(calls) == 1
        assert sleeps == []

    def test_a_transport_error_is_retried(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(transport.time, "sleep", sleeps.append)
        node = _BatchNode({TX: _node_tx(100)}, {TX: {"status": "0x1"}})
        failures = [OSError("connection reset")]

        def rpc_post(url, body, timeout):
            if failures:
                raise failures.pop()
            return node(url, body, timeout)

        found = self._adapter(rpc_post).fetch(tx_lookup(1, [TX]))["found"]
        assert found[TX]["block_number"] == 100
        assert sleeps == [transport.BACKOFF_S]
        assert len(node.bodies) == 2

    @pytest.mark.parametrize(
        "bad",
        ["nonce-off-the-schema", "value-not-hex", "from-null", "tx-not-an-object",
         "receipt-not-an-object"],
    )
    def test_a_malformed_member_is_a_miss_beside_a_found_one(self, bad):
        good, malformed = self.HASHES[0], self.HASHES[1]
        txs = {good: _node_tx(100), malformed: _node_tx(101)}
        receipts = {good: {"status": "0x1"}, malformed: {"status": "0x1"}}
        if bad == "nonce-off-the-schema":
            txs[malformed]["nonce"] = True
        elif bad == "value-not-hex":
            txs[malformed]["value"] = "0xzz"
        elif bad == "from-null":
            txs[malformed]["from"] = None
        elif bad == "tx-not-an-object":
            txs[malformed] = "0x1"
        else:
            receipts[malformed] = "0x1"
        payload = self._adapter(_BatchNode(txs, receipts)).fetch(
            tx_lookup(1, [malformed, good])
        )
        assert list(payload["found"]) == [good]
        assert payload["found"][good]["block_number"] == 100
        assert workspace.check_document(payload, workspace.SCHEMAS["tx_lookup"]) == []

    def test_a_tx_metadata_document_off_the_schema_fails_its_request(self):
        tx = {**_node_tx(100), "nonce": True}
        node = _BatchNode({TX: tx}, {TX: {"status": "0x1"}})
        request = DataRequest(kind="tx_metadata", chainid=1, target=TX)
        with pytest.raises(live.ErrorReply, match="malformed reply.*nonce: expected integer"):
            self._adapter(node).fetch(request)

    def test_every_batch_item_has_its_own_id(self):
        node = _BatchNode({}, {})
        adapter = self._adapter(node)
        for _ in range(2):
            adapter.fetch(tx_lookup(1, self.HASHES))
        ids = [item["id"] for body in node.bodies for item in body]
        assert len(ids) == 2 * len(self.HASHES) == len(set(ids))


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

        adapter = LiveAdapter(env={}, rpc_map={1: "http://node"}, rpc_post=rpc_post)
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

    def test_the_seed_batch_asks_for_each_receipt_once(self, tmp_path):
        replies = {
            "eth_getTransactionByHash": {"blockNumber": "0x10", "from": ADDR, "to": ADDR},
            "eth_getTransactionReceipt": {"gasUsed": "0x5", "status": "0x1", "logs": []},
            "callTracer": {"type": "CALL", "from": ADDR, "to": ADDR},
            "prestateTracer": _PRESTATE,
        }
        methods = []

        def rpc_post(url, body, timeout):
            method, params = body["method"], body["params"]
            methods.append(method)
            return {"result": replies[params[1]["tracer"] if len(params) > 1 else method]}

        txs = ["0x" + f"{i:02x}" * 32 for i in range(1, 4)]
        session = workspace.create_session(tmp_path, SeedRef.from_strings(1, txs))
        adapter = LiveAdapter(env={}, rpc_map={1: "http://node"}, rpc_post=rpc_post)
        summary, _ = fetch_seed_artifacts(session, SessionMemo(adapter))
        assert summary["failed"] == []
        assert len(summary["fetched"]) == len(txs) * 5
        assert methods.count("eth_getTransactionReceipt") == len(txs)
        assert methods.count("debug_traceTransaction") == 2 * len(txs)

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
        listing = disassemble("0x" + "00" * (live.DISASSEMBLY_LINES + 5))
        assert len(listing.splitlines()) == live.DISASSEMBLY_LINES
