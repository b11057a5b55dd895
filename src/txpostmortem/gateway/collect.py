"""High-level collection operations over any chain adapter.

These functions sit between the orchestrator and the adapter: they issue
requests, land payloads as workspace artifacts, and fold results into
collection summaries.  Per-request failures never abort a batch; only the
seed bootstrap treats missing evidence as fatal.

The requests of one batch are independent, so ``fetch_many`` waits on up to
``FETCH_WORKERS`` of them at once.  Only the waiting overlaps: artifact
names, workspace writes, summary records and diagnostics are made on the
calling thread in request order, so a batch lands the same bytes however
its answers interleave.
"""

from __future__ import annotations

import logging
import re
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Sequence

from .. import workspace
from ..domain import TxHash
from .base import BootstrapError, ChainAdapter, GatewayError
from .types import CollectionSummary, DataRequest, TxRecord

logger = logging.getLogger(__name__)

SEED_ARTIFACT_KINDS = ("tx_metadata", "tx_trace", "balance_diff")
_SEED_FILENAMES = {
    "tx_metadata": "metadata.json",
    "tx_trace": "trace.json",
    "balance_diff": "balance_diff.json",
}

#: Most fetches one ``fetch_many`` call has in flight at once.
FETCH_WORKERS = 8

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


def fetch_seed_artifacts(
    session: workspace.Session,
    adapter: ChainAdapter,
) -> CollectionSummary:
    """Land metadata, trace, and balance diff for every seed transaction.

    Any failure is fatal: a postmortem cannot start without its seed
    evidence, so the caller gets one error carrying all diagnostics.
    """
    seed = session.seed
    summary = CollectionSummary()
    index: dict[str, Any] = {"targets": [], "artifacts": {}}
    diagnostics: list[str] = []
    requests = [
        DataRequest(kind=kind, chainid=seed.chainid, target=tx.value)
        for tx in seed.txs
        for kind in SEED_ARTIFACT_KINDS
    ]
    results = iter(zip(requests, fetch_many(adapter, requests)))
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
        index["artifacts"][tx.value] = files
    workspace.write_artifact(session, f"{workspace.SEED_DIR}/index.json", index)
    if diagnostics:
        raise BootstrapError(
            f"seed bootstrap failed for {len(diagnostics)} artifact(s)", diagnostics
        )
    return summary


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
