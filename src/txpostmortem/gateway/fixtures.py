"""Record/replay fixture store for chain data.

Fixture identity is a stable hash over the request's semantic fields (kind,
chain, normalized target, block window, extras), so the same logical request
replays to byte-identical payloads regardless of who issued it or when.  A
request computes its key once, however many layers ask for it.
"""

from __future__ import annotations

import logging
import os
import threading
from pathlib import Path
from typing import Any

from .. import workspace
from .base import ChainAdapter, MissingFixture
from .types import DataRequest

logger = logging.getLogger(__name__)


def fixture_key(request: DataRequest) -> str:
    """Stable content key for a request, independent of its reason.

    The request hashes its fields once and keeps the key (``DataRequest.key``).
    """
    return request.key


def _json_file_stems(root: Path) -> set[str]:
    """Stems of the ``*.json`` names in ``root`` that ``Path.is_file`` accepts."""
    try:
        with os.scandir(root) as entries:
            return {
                entry.name[: -len(".json")]
                for entry in entries
                if entry.name.endswith(".json") and entry.is_file()
            }
    except (FileNotFoundError, NotADirectoryError):
        return set()


class FixtureStore:
    """Directory of recorded payloads, one JSON file per fixture key.

    ``load`` reads a request's payload and ``save`` records one; the store
    offers no other lookup.  It lists its directory's file names once, on
    the first ``load``, and its own ``save`` adds to that listing.  So a
    miss costs no system call and a hit opens its file once.  A store does
    not see files that another writer adds after its first ``load``: make
    a new store to see them.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        #: Keys of the files in ``root``, listed on the first lookup.
        self._keys: set[str] | None = None
        self._lock = threading.Lock()

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _listing(self) -> set[str]:
        if self._keys is None:
            with self._lock:
                if self._keys is None:
                    self._keys = _json_file_stems(self.root)
        return self._keys

    def load(self, request: DataRequest) -> dict[str, Any]:
        """The payload recorded for ``request``.  No file for it raises
        ``MissingFixture``; a file that does not decode, or holds no
        ``payload`` object, raises ``workspace.CorruptArtifact``."""
        key = fixture_key(request)
        if key in self._listing():
            path = self.path_for(key)
            try:
                doc = workspace.read_json(path)
            except workspace.ArtifactNotFound:
                pass  # gone or replaced since the listing: a miss
            else:
                if isinstance(doc, dict) and isinstance(doc.get("payload"), dict):
                    return doc["payload"]
                raise workspace.CorruptArtifact(f"{path}: holds no payload object")
        raise MissingFixture(
            f"no fixture for {request.kind} {request.target} on chain "
            f"{request.chainid} (key {key})"
        )

    def save(self, request: DataRequest, payload: dict[str, Any]) -> Path:
        """Record ``payload`` as the fixture for ``request``, written whole
        (``workspace.write_file``): a crash leaves the earlier fixture or
        none, never a torn one."""
        key = fixture_key(request)
        path = self.path_for(key)
        doc = {"request": request.to_doc(), "payload": payload}
        workspace.write_file(path, workspace.dump_indented(doc))
        # After the write, so that a listing made meanwhile holds the key too.
        with self._lock:
            if self._keys is not None:
                self._keys.add(key)
        return path


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
