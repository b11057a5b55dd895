"""Record/replay fixture store for chain data.

Fixture identity is a stable hash over the request's semantic fields (kind,
chain, normalized target, block window, extras), so the same logical request
replays to byte-identical payloads regardless of who issued it or when.
"""

from __future__ import annotations

import hashlib
import json
import logging
from pathlib import Path
from typing import Any

from .base import ChainAdapter, MissingFixture
from .types import DataRequest

logger = logging.getLogger(__name__)


def fixture_key(request: DataRequest) -> str:
    """Stable content key for a request, independent of reason/out_path."""
    identity = {
        "kind": request.kind,
        "chainid": request.chainid,
        "target": request.normalized_target(),
        "block_lo": request.block_lo,
        "block_hi": request.block_hi,
        "extra": request.extra,
    }
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
    return f"{request.kind}_{request.chainid}_{digest}"


class FixtureStore:
    """Directory of recorded payloads, one JSON file per fixture key."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def has(self, request: DataRequest) -> bool:
        return self.path_for(fixture_key(request)).is_file()

    def load(self, request: DataRequest) -> dict[str, Any]:
        key = fixture_key(request)
        path = self.path_for(key)
        if not path.is_file():
            raise MissingFixture(
                f"no fixture for {request.kind} {request.target} on chain "
                f"{request.chainid} (key {key})"
            )
        with path.open("r", encoding="utf-8") as handle:
            doc = json.load(handle)
        return doc["payload"]

    def save(self, request: DataRequest, payload: dict[str, Any]) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(fixture_key(request))
        doc = {"request": request.to_doc(), "payload": payload}
        path.write_text(
            json.dumps(doc, indent=2, ensure_ascii=False, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path

    def keys(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*.json"))


class ReplayAdapter:
    """Serves fetches exclusively from a fixture store; misses are errors."""

    def __init__(self, store: FixtureStore):
        self.store = store

    def fetch(self, request: DataRequest) -> dict[str, Any]:
        return self.store.load(request)


class RecordingAdapter:
    """Passes fetches to an inner adapter and records every payload."""

    def __init__(self, inner: ChainAdapter, store: FixtureStore):
        self.inner = inner
        self.store = store

    def fetch(self, request: DataRequest) -> dict[str, Any]:
        payload = self.inner.fetch(request)
        self.store.save(request, payload)
        return payload
