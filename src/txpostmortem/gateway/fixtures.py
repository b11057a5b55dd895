"""Record/replay fixture store for chain data.

Fixture identity is a stable hash over the request's semantic fields (kind,
chain, normalized target, block window, extras), so the same logical request
replays to byte-identical payloads regardless of who issued it or when.  A
request computes its key once, however many layers ask for it.
"""

from __future__ import annotations

import logging
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


class FixtureStore:
    """Directories of recorded payloads, one JSON file per fixture key.

    ``load`` reads a request's payload and ``save`` records one in the first
    directory; the store offers no other lookup.  The directories are a
    lookup chain (``workspace.files_in_chain``): a fixture in an earlier one
    hides a later one's under the same key.  The store lists them once, on
    the first ``load``, and its own ``save`` adds to that listing.  So a
    miss costs no system call and a hit opens its file once.  A store does
    not see files that another writer adds after its first ``load``: make
    a new store to see them.
    """

    def __init__(self, *roots: str | Path):
        self.roots = tuple(Path(root) for root in roots)
        #: Where ``save`` writes.
        self.root = self.roots[0]
        #: The file of each key in ``roots``, listed on the first lookup.
        self._paths: dict[str, Path] | None = None
        self._lock = threading.Lock()

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _listing(self) -> dict[str, Path]:
        if self._paths is None:
            with self._lock:
                if self._paths is None:
                    self._paths = workspace.files_in_chain(self.roots, ".json")
        return self._paths

    def load(self, request: DataRequest) -> dict[str, Any]:
        """The payload recorded for ``request``.  No file for it raises
        ``MissingFixture``; a file that does not decode, or holds no
        ``payload`` object, raises ``workspace.CorruptArtifact``."""
        key = fixture_key(request)
        path = self._listing().get(key)
        if path is not None:
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
            if self._paths is not None:
                self._paths[key] = path
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
