"""Record/replay fixture store for chain data.

A fixture file is named by its request's ``fixture_key``, a stable hash
over the request's semantic fields (kind, chain, normalized target, block
window, extras), so the same logical request replays to byte-identical
payloads regardless of who issued it or when.  The key only names files:
memos key a request by its ``identity``, the same fields unhashed, and
only the store, the recorder and ``fixtures record`` hash a request.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Optional

from .. import workspace
from .base import ChainAdapter, MissingFixture, lookup_hashes
from .types import DataRequest


def fixture_key(request: DataRequest) -> str:
    """Stable content key for a request, independent of its reason: the
    stem of its fixture file.

    The request hashes its fields once and keeps the key (``DataRequest.key``).
    """
    return request.key


def _group(key: str) -> str:
    """The ``<kind>_<chainid>`` a fixture key starts with."""
    return key.rpartition("_")[0]


class FixtureStore:
    """Directories of recorded payloads, one JSON file per fixture key.

    ``find`` reads a request's payload, or gives None; ``load`` reads it or
    raises; ``save`` records one in the first directory.  The directories
    are a lookup chain (``workspace.files_in_chain``): a fixture in an
    earlier one hides a later one's under the same key.  The store lists
    them when it is made, and its own ``save`` adds to that listing, so a
    miss costs no system call and a hit opens its file once.  It does not
    see files that another writer adds after it is made.  ``holds`` answers
    from the same listing, with no hashing, whether the store has any
    fixture of a kind on a chain.
    """

    def __init__(self, *roots: str | Path):
        self.roots = tuple(Path(root) for root in roots)
        #: Where ``save`` writes.
        self.root = self.roots[0]
        #: The file of each key in ``roots``, listed when the store is made.
        self._paths = workspace.files_in_chain(self.roots, ".json")
        #: The ``<kind>_<chainid>`` of every key in ``_paths``.
        self._groups = {_group(key) for key in self._paths}

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def holds(self, kind: str, chainid: int) -> bool:
        """Whether any fixture of ``kind`` on chain ``chainid`` is listed."""
        return f"{kind}_{chainid}" in self._groups

    def find(self, request: DataRequest) -> Optional[dict[str, Any]]:
        """The payload recorded for ``request``, or None if there is no file
        for it; a file that does not decode, or holds no ``payload``
        object, raises ``workspace.CorruptArtifact``."""
        return self._read(fixture_key(request))

    def load(self, request: DataRequest) -> dict[str, Any]:
        """The payload recorded for ``request``, as ``find`` reads it; no
        file for it raises ``MissingFixture``, naming its key."""
        key = fixture_key(request)
        payload = self._read(key)
        if payload is None:
            raise MissingFixture(
                f"no fixture for {request.kind} {request.target} on chain "
                f"{request.chainid} (key {key})"
            )
        return payload

    def _read(self, key: str) -> Optional[dict[str, Any]]:
        path = self._paths.get(key)
        if path is None:
            return None
        try:
            doc = workspace.read_json(path)
        except workspace.ArtifactNotFound:
            return None  # gone or replaced since the listing: a miss
        if isinstance(doc, dict) and isinstance(doc.get("payload"), dict):
            return doc["payload"]
        raise workspace.CorruptArtifact(f"{path}: holds no payload object")

    def save(self, request: DataRequest, payload: dict[str, Any]) -> Path:
        """Record ``payload`` as the fixture for ``request``, written whole
        (``workspace.write_file``): a crash leaves the earlier fixture or
        none, never a torn one."""
        key = fixture_key(request)
        path = self.path_for(key)
        doc = {"request": request.to_doc(), "payload": payload}
        workspace.write_file(path, workspace.dump_indented(doc))
        self._paths[key] = os.fspath(path)
        self._groups.add(_group(key))
        return path


class ReplayAdapter:
    """Serves fetches exclusively from a fixture store; misses are errors.

    A ``tx_lookup`` is answered from each member's own ``tx_metadata``
    fixture, a member with none being not found, so a lookup has no
    fixture of its own.  On a chain where the store ``holds`` no
    ``tx_metadata`` fixture the answer is empty and no member is hashed;
    elsewhere each member is hashed once, to name its file, and a miss
    raises nothing."""

    def __init__(self, store: FixtureStore):
        self.store = store

    def fetch(self, request: DataRequest) -> dict[str, Any]:
        if request.kind != "tx_lookup":
            return self.store.load(request)
        txhashes = lookup_hashes(request)
        found = {}
        if self.store.holds("tx_metadata", request.chainid):
            for txhash in txhashes:
                member = DataRequest(kind="tx_metadata", chainid=request.chainid, target=txhash)
                payload = self.store.find(member)
                if payload is not None:
                    found[member.normalized_target()] = payload
        return {"found": found}


class RecordingAdapter:
    """Passes fetches to an inner adapter and records every payload."""

    def __init__(self, inner: ChainAdapter, store: FixtureStore):
        self.inner = inner
        self.store = store

    def fetch(self, request: DataRequest) -> dict[str, Any]:
        payload = self.inner.fetch(request)
        self.store.save(request, payload)
        return payload
