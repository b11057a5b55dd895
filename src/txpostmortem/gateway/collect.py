"""High-level collection operations over any chain adapter.

These functions sit between the orchestrator and the adapter: they issue
requests, land payloads as workspace artifacts, and fold results into
collection summaries.  Per-request failures never abort a batch; only the
seed bootstrap treats missing evidence as fatal.
"""

from __future__ import annotations

import logging
import re
from pathlib import Path
from typing import Any

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

_UNSAFE = re.compile(r"[^0-9a-zA-Z_]+")


def _safe_name(request: DataRequest) -> str:
    target = _UNSAFE.sub("_", request.normalized_target())[:24].strip("_")
    return f"{request.kind}_{target or 'item'}.json"


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
    for tx in seed.txs:
        index["targets"].append({"chainid": seed.chainid, "txhash": tx.value})
        tx_dir = f"{workspace.SEED_DIR}/{seed.chainid}/{tx.value}"
        files: list[str] = []
        for kind in SEED_ARTIFACT_KINDS:
            request = DataRequest(kind=kind, chainid=seed.chainid, target=tx.value)
            try:
                payload = adapter.fetch(request)
            except GatewayError as exc:
                diagnostics.append(f"{kind} {tx.value}: {exc}")
                summary.record_failure(request, str(exc))
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
    for request in requests:
        try:
            payload = adapter.fetch(request)
        except GatewayError as exc:
            logger.info("request failed: %s %s: %s", request.kind, request.target, exc)
            summary.record_failure(request, str(exc))
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


def fetch_txlist(
    adapter: ChainAdapter,
    chainid: int,
    address: str,
    block_lo: int | None = None,
    block_hi: int | None = None,
) -> list[TxRecord]:
    payload = adapter.fetch(
        DataRequest(
            kind="txlist", chainid=chainid, target=address, block_lo=block_lo, block_hi=block_hi
        )
    )
    records = [TxRecord.from_doc(doc) for doc in payload.get("records", [])]
    return sorted(records, key=TxRecord.order_key)


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
