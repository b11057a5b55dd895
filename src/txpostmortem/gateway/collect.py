"""High-level collection operations over any chain adapter.

These functions sit between the orchestrator and the adapter: they issue
requests, land payloads as workspace artifacts, and fold results into
collection summaries.  Per-request failures never abort a batch; only a
missing seed artifact is fatal to the seed bootstrap.

The requests of one batch are independent, so ``fetch_many`` waits on up to
``FETCH_WORKERS`` of them at once.  Only the waiting overlaps: artifact
names, workspace writes, summary records and diagnostics are made on the
calling thread in request order, so a batch lands the same bytes however
its answers interleave.

A session fetches through one ``SessionMemo``, so a request it repeats is
answered from the payload it already holds, and still lands as a file of
its own batch.
"""

from __future__ import annotations

import logging
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from .. import workspace
from ..domain import DomainError, TxHash
from .base import BootstrapError, ChainAdapter, GatewayError, SharedResults
from .fixtures import fixture_key
from .types import CollectionSummary, DataRequest, TraceNode, TxRecord

logger = logging.getLogger(__name__)

SEED_ARTIFACT_KINDS = ("tx_metadata", "tx_trace", "balance_diff")
#: Kinds fetched for each seed transaction as best-effort context.
SEED_CONTEXT_KINDS = ("receipt_logs", "state_diff")
_SEED_FILENAMES = {
    "tx_metadata": "metadata.json",
    "tx_trace": "trace.json",
    "balance_diff": "balance_diff.json",
}

#: Most fetches one ``fetch_many`` call has in flight at once.
FETCH_WORKERS = 8

#: Longest digest of the seed context, and longest line in it, in characters.
SEED_DIGEST_CHARS = 4000
SEED_DIGEST_LINE_CHARS = 400

_UNSAFE = re.compile(r"[^0-9a-zA-Z_]+")


def _safe_name(request: DataRequest) -> str:
    target = _UNSAFE.sub("_", request.normalized_target())[:24].strip("_")
    return f"{request.kind}_{target or 'item'}.json"


def fetch_many(
    adapter: ChainAdapter, requests: Sequence[DataRequest]
) -> list[dict[str, Any] | GatewayError]:
    """Fetch every request, with up to ``FETCH_WORKERS`` in flight at once.

    Results come back in request order; a ``GatewayError`` takes its
    request's slot, without its traceback, whose frames would tie the
    results into a reference cycle.  Any other exception propagates once
    the pool has shut down, so no thread outlives the call.  A batch of at
    most one request runs inline.
    """

    def fetch_one(request: DataRequest) -> dict[str, Any] | GatewayError:
        try:
            return adapter.fetch(request)
        except GatewayError as exc:
            return exc.with_traceback(None)

    if len(requests) <= 1:
        return [fetch_one(request) for request in requests]
    pool = ThreadPoolExecutor(max_workers=min(FETCH_WORKERS, len(requests)))
    try:
        return list(pool.map(fetch_one, requests))
    finally:
        pool.shutdown(cancel_futures=True)


class SessionMemo:
    """A ``ChainAdapter`` that fetches each request once per session.

    It keeps every successful payload by ``fixture_key`` for as long as it
    lives, one postmortem session, and hands the same payload to every later
    request for that key; a request made while the first is in flight waits
    for it.  A failure is not kept, so a later batch asks the adapter again.
    """

    def __init__(self, adapter: ChainAdapter):
        self.adapter = adapter
        self._payloads = SharedResults()

    def fetch(self, request: DataRequest) -> dict[str, Any]:
        return self._payloads.get(fixture_key(request), lambda: self.adapter.fetch(request))


@dataclass
class SeedBootstrap(CollectionSummary):
    """Collection run zero: the seed summary plus a digest of its context."""

    digest: str = ""


def _called_contracts(traces: Sequence[dict[str, Any]]) -> list[str]:
    """Every address the traces call with a selector, sorted; a trace of
    unexpected shape adds none."""
    found: set[str] = set()
    for trace in traces:
        try:
            root = TraceNode.from_doc(trace["root"])
        except (KeyError, TypeError, DomainError) as exc:
            logger.info("seed trace unreadable for context: %s", exc)
            continue
        found.update(
            node.to_address.value for node in root.walk() if node.selector and node.to_address
        )
    return sorted(found)


def fetch_seed_artifacts(
    session: workspace.Session,
    adapter: ChainAdapter,
) -> SeedBootstrap:
    """Land the seed artifacts and a best-effort context around them.

    The first batch fetches each seed transaction's metadata, trace and
    balance diff, beside its receipt logs and state diff.  A missing seed
    artifact is fatal: a postmortem cannot start without it, so the caller
    gets one error carrying all diagnostics.  The second batch fetches the
    metadata of every contract the seed traces call with a selector.  The
    context lands under ``SEED_CONTEXT_DIR``; a context miss is recorded in
    the summary and fails nothing.
    """
    seed = session.seed
    summary = SeedBootstrap()
    index: dict[str, Any] = {"targets": [], "artifacts": {}}
    diagnostics: list[str] = []
    requests = [
        DataRequest(kind=kind, chainid=seed.chainid, target=tx.value)
        for tx in seed.txs
        for kind in SEED_ARTIFACT_KINDS + SEED_CONTEXT_KINDS
    ]
    results = iter(zip(requests, fetch_many(adapter, requests)))
    context: list[tuple[DataRequest, dict[str, Any] | GatewayError]] = []
    traces: list[dict[str, Any]] = []
    for tx in seed.txs:
        index["targets"].append({"chainid": seed.chainid, "txhash": tx.value})
        tx_dir = f"{workspace.SEED_DIR}/{seed.chainid}/{tx.value}"
        files: list[str] = []
        for kind in SEED_ARTIFACT_KINDS:
            request, payload = next(results)
            if isinstance(payload, GatewayError):
                diagnostics.append(f"{kind} {tx.value}: {payload}")
                summary.record_failure(request, str(payload))
                continue
            relpath = f"{tx_dir}/{_SEED_FILENAMES[kind]}"
            workspace.write_artifact(session, relpath, payload)
            files.append(relpath)
            summary.record_success(request, [relpath])
            if kind == "tx_trace":
                traces.append(payload)
        index["artifacts"][tx.value] = files
        context += [next(results) for _ in SEED_CONTEXT_KINDS]
    workspace.write_artifact(session, f"{workspace.SEED_DIR}/index.json", index)
    if diagnostics:
        raise BootstrapError(
            f"seed bootstrap failed for {len(diagnostics)} artifact(s)", diagnostics
        )
    contracts = [
        DataRequest(kind="contract_meta", chainid=seed.chainid, target=address)
        for address in _called_contracts(traces)
    ]
    context += zip(contracts, fetch_many(adapter, contracts))
    for request, payload in context:
        if isinstance(payload, GatewayError):
            summary.record_failure(request, str(payload))
            continue
        relpath = f"{workspace.SEED_CONTEXT_DIR}/{_context_name(request)}"
        workspace.write_artifact(session, relpath, payload)
        summary.record_success(request, [relpath])
    summary.digest = _context_digest(context)
    return summary


# -- seed-context digest -------------------------------------------------------


def _log_names(payload: dict[str, Any]) -> str:
    logs = payload.get("logs")
    logs = logs if isinstance(logs, list) else []
    names = []
    for log in logs:
        log = log if isinstance(log, dict) else {}
        topics = log.get("topics")
        event = log.get("event") or (
            str(topics[0])[:10] if isinstance(topics, list) and topics else "log"
        )
        names.append(f"{event} at {log.get('address')}")
    return f"{len(logs)} logs: " + ", ".join(names)


def _diff_accounts(payload: dict[str, Any]) -> str:
    accounts: set[str] = set()
    for key in ("accounts", "pre", "post"):
        part = payload.get(key)
        if isinstance(part, dict):
            accounts.update(str(a) for a in part)
    return f"{len(accounts)} accounts changed: " + ", ".join(sorted(accounts))


def _contract_line(payload: dict[str, Any]) -> str:
    line = f"{payload.get('name') or 'unnamed'} ({payload.get('source_kind')})"
    if payload.get("implementation"):
        line += f", implementation {payload['implementation']}"
    return line


_DIGESTERS = {
    "receipt_logs": _log_names,
    "state_diff": _diff_accounts,
    "contract_meta": _contract_line,
}


def _context_name(request: DataRequest) -> str:
    return f"{request.kind}_{request.normalized_target()}.json"


def _context_digest(
    context: Sequence[tuple[DataRequest, dict[str, Any] | GatewayError]],
) -> str:
    """One line per context fetch, in request order, in at most
    ``SEED_DIGEST_CHARS``; the lines that do not fit are counted instead."""
    lines = [
        f"Seed context already fetched into {workspace.SEED_CONTEXT_DIR}/ "
        "(do not request it again):"
    ]
    for request, payload in context:
        if isinstance(payload, GatewayError):
            line = f"- {request.kind} {request.target}: not available ({payload})"
        else:
            line = f"- {_context_name(request)}: {_DIGESTERS[request.kind](payload)}"
        if len(line) > SEED_DIGEST_LINE_CHARS:
            line = line[: SEED_DIGEST_LINE_CHARS - 3] + "..."
        lines.append(line)
    text = "\n".join(lines)
    if len(text) <= SEED_DIGEST_CHARS:
        return text
    # Keep room for the closing count, which is shorter than any line cap.
    shown: list[str] = []
    size = 0
    for line in lines:
        size += len(line) + 1
        if size > SEED_DIGEST_CHARS - SEED_DIGEST_LINE_CHARS:
            break
        shown.append(line)
    shown.append(
        f"- ... {len(lines) - len(shown)} more entries in {workspace.SEED_CONTEXT_DIR}/"
    )
    return "\n".join(shown)


def execute_data_requests(
    session: workspace.Session,
    requests: list[DataRequest],
    adapter: ChainAdapter,
    iter_dir: Path,
) -> CollectionSummary:
    """Serve a batch of analyst data requests into one iteration directory."""
    summary = CollectionSummary()
    used_names: set[str] = set()
    for request, payload in zip(requests, fetch_many(adapter, requests)):
        if isinstance(payload, GatewayError):
            logger.info("request failed: %s %s: %s", request.kind, request.target, payload)
            summary.record_failure(request, str(payload))
            continue
        name = request.out_path or _safe_name(request)
        base, n = name, 1
        while name in used_names:
            stem, dot, ext = base.partition(".")
            name = f"{stem}_{n}{dot}{ext}"
            n += 1
        used_names.add(name)
        target = iter_dir / name
        relpath = target.relative_to(session.root)
        workspace.write_artifact(session, relpath, payload)
        summary.record_success(request, [str(relpath)])
    return summary


# -- typed helpers -----------------------------------------------------------


def fetch_txlists(
    adapter: ChainAdapter,
    chainid: int,
    addresses: Sequence[str],
    block_lo: int | None = None,
    block_hi: int | None = None,
) -> list[list[TxRecord]]:
    """Each address's transactions in order; the first failure in address
    order is raised once every list has been fetched."""
    requests = [
        DataRequest(
            kind="txlist", chainid=chainid, target=address, block_lo=block_lo, block_hi=block_hi
        )
        for address in addresses
    ]
    lists = []
    for payload in fetch_many(adapter, requests):
        if isinstance(payload, GatewayError):
            raise payload
        records = [TxRecord.from_doc(doc) for doc in payload.get("records", [])]
        lists.append(sorted(records, key=TxRecord.order_key))
    return lists


def fetch_txlist(
    adapter: ChainAdapter,
    chainid: int,
    address: str,
    block_lo: int | None = None,
    block_hi: int | None = None,
) -> list[TxRecord]:
    return fetch_txlists(adapter, chainid, [address], block_lo, block_hi)[0]


def fetch_tx_metadata(
    adapter: ChainAdapter, chainid: int, txhash: str | TxHash
) -> dict[str, Any]:
    return adapter.fetch(
        DataRequest(kind="tx_metadata", chainid=chainid, target=str(txhash))
    )


def read_storage_slot(
    adapter: ChainAdapter, chainid: int, address: str, slot: str, block: int | str = "latest"
) -> str:
    payload = adapter.fetch(
        DataRequest(
            kind="storage_slot",
            chainid=chainid,
            target=address,
            extra={"slot": slot, "block": block},
        )
    )
    return payload["value_hex"]
