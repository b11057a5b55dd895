"""Adapter contract for chain data access plus RPC endpoint resolution.

An adapter exposes exactly one operation, ``fetch(request) -> payload doc``.
Keeping the surface to a single keyed entrypoint is what makes byte-exact
record/replay possible: the recorder does not need to understand payloads,
only to key them by request.
"""

from __future__ import annotations

import logging
import string
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Hashable, Mapping, Optional, Protocol, Sequence, TypeVar

from .. import workspace
from ..domain import UnsupportedChain, validate_chain
from .types import DataRequest

logger = logging.getLogger(__name__)

T = TypeVar("T")


class GatewayError(Exception):
    pass


class MissingFixture(GatewayError):
    """Replay adapter had no recording for the request."""


class UpstreamError(GatewayError):
    """Live provider failed after retries."""


class MissingCredential(GatewayError):
    """An endpoint template references an unset environment variable."""


class UnsupportedRequest(GatewayError):
    """The adapter cannot serve this request: its kind, or a target its
    kind cannot take.  Final, never retried."""


class BootstrapError(GatewayError):
    """Seed artifacts could not be fetched; carries per-item diagnostics."""

    def __init__(self, message: str, diagnostics: list[str] | None = None):
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])


#: Most hashes one ``tx_lookup`` request asks about, since a node may cap
#: the length of a JSON-RPC batch.  The configured provider's own cap is
#: not checked against this; a lookup its node refuses fails as a whole,
#: and ``monitor.resolve_chains`` logs it.
LOOKUP_BATCH = 100


def tx_lookup(chainid: int, txhashes: Sequence[str]) -> DataRequest:
    """One request asking chain ``chainid`` about each of ``txhashes``, at
    most ``LOOKUP_BATCH`` of them.  Its payload is ``{"found": {<hash>:
    <tx_metadata payload>}}``, keyed by each found hash's normalised form;
    a hash the chain does not have, or has only pending, is left out."""
    return DataRequest(
        kind="tx_lookup", chainid=chainid, target="", extra={"txhashes": list(txhashes)}
    )


def lookup_members(request: DataRequest) -> list[DataRequest]:
    """The ``tx_metadata`` request of each hash a ``tx_lookup`` names, in
    its order.  A lookup naming no hashes, or more than ``LOOKUP_BATCH``,
    or anything but a list of strings, raises ``UnsupportedRequest``."""
    txhashes = request.extra.get("txhashes")
    if (
        not isinstance(txhashes, list)
        or not 0 < len(txhashes) <= LOOKUP_BATCH
        or not all(isinstance(txhash, str) for txhash in txhashes)
    ):
        raise UnsupportedRequest(
            f"tx_lookup needs a list of 1 to {LOOKUP_BATCH} hashes in extra['txhashes']"
        )
    return [
        DataRequest(kind="tx_metadata", chainid=request.chainid, target=txhash)
        for txhash in txhashes
    ]


class ChainAdapter(Protocol):
    def fetch(self, request: DataRequest) -> dict[str, Any]:
        """Return the JSON payload for one data request.

        Besides the kinds a model may request
        (``workspace.DATA_REQUEST_KINDS``), an adapter answers ``tx_lookup``
        (``tx_lookup``, ``lookup_members``): one call that asks a chain
        about many transactions, as the monitor's probe wave does.

        It may be called from several threads at once: ``fetch_many`` runs
        fetches on the threads of the process's shared fetch pool.  An
        adapter must not call ``fetch_many`` itself, since its lanes would
        wait for threads that its own caller's lanes may be holding.

        An adapter must be weakly referenceable and hashed by identity (the
        default for a class without ``__slots__``, ``__eq__`` or
        ``__hash__``): ``adapter_memo`` keeps payloads per adapter object,
        in a table that drops them with the adapter.
        """
        ...


class _Pending:
    """A key whose first call is still running.

    ``gate`` is made, held, only when a second caller arrives.  The first
    caller then leaves its result or failure here and releases the gate,
    and each waiter releases it again for the next.  With no waiter the
    outcome is not left here, so a failure ties no traceback to it.
    """

    __slots__ = ("gate", "result", "error")

    def __init__(self) -> None:
        self.gate: Optional[threading.Lock] = None
        self.result: Any = None
        self.error: Optional[BaseException] = None


_ABSENT = object()


class SharedResults:
    """Results by key, each computed once by its first caller.

    Callers that ask for a key while its first call is running wait on that
    call.  A failure goes to the callers already waiting and is not kept, so
    the next caller computes again.  ``get_many`` computes many keys in one
    call, and drops a key that call did not find as it drops a failure.
    With ``maxsize`` the oldest keys are dropped first.  Safe to use from
    several threads at once.

    A key holds its result, or a ``_Pending`` while its first call runs, so
    a lookup with no one to wait for makes no lock, event or future.
    """

    def __init__(self, maxsize: Optional[int] = None):
        self.maxsize = maxsize
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable, compute: Callable[[], T]) -> T:
        while True:
            with self._lock:
                entry = self._entries.get(key, _ABSENT)
                if entry is _ABSENT:
                    pending = self._entries[key] = _Pending()
                    self._trim()
                    break
                if type(entry) is not _Pending:
                    return entry
                self._bind(entry)
            # Made before the lock was let go, so the first caller sees it.
            entry.gate.acquire()
            entry.gate.release()
            if entry.error is not None:
                raise entry.error
            if entry.result is not _ABSENT:
                return entry.result
            # A ``get_many`` call did not find the key: ask again.
        try:
            result = compute()
        except BaseException as exc:
            self._settle(key, pending, None, exc)
            raise
        self._settle(key, pending, result, None)
        return result

    def get_many(
        self,
        keys: Sequence[Hashable],
        compute: Callable[[list[Hashable]], Mapping[Hashable, T]],
    ) -> dict[Hashable, T]:
        """The results found for ``keys``, by key.

        One pass under the lock claims each key that is neither kept nor
        in flight, and ``compute(claimed)`` answers them in one call with
        the result of each key it found.  A found key is kept; one it did
        not find is dropped, and the next caller computes it again.  If
        ``compute`` raises, each claimed key fails as in ``get`` and the
        error propagates.  A key another caller is computing is then waited
        on, and counts as found only if that caller found it.
        """
        found: dict[Hashable, T] = {}
        claimed: dict[Hashable, _Pending] = {}
        held: dict[Hashable, _Pending] = {}
        with self._lock:
            for key in keys:
                entry = self._entries.get(key, _ABSENT)
                if entry is _ABSENT:
                    claimed[key] = self._entries[key] = _Pending()
                elif type(entry) is not _Pending:
                    found[key] = entry
                elif key not in claimed:
                    held[key] = self._bind(entry)
            self._trim()
        if claimed:
            try:
                results = compute(list(claimed))
            except BaseException as exc:
                for key, pending in claimed.items():
                    self._settle(key, pending, None, exc)
                raise
            for key, pending in claimed.items():
                result = results.get(key, _ABSENT)
                self._settle(key, pending, result, None)
                if result is not _ABSENT:
                    found[key] = result
        for key, pending in held.items():
            pending.gate.acquire()
            pending.gate.release()
            if pending.error is None and pending.result is not _ABSENT:
                found[key] = pending.result
        return found

    def _bind(self, entry: _Pending) -> _Pending:
        """Make ``entry``'s gate, held, if no waiter has; under the lock."""
        if entry.gate is None:
            entry.gate = threading.Lock()
            entry.gate.acquire()
        return entry

    def _trim(self) -> None:
        """Drop the oldest keys past ``maxsize``; under the lock."""
        while self.maxsize is not None and len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def _settle(
        self, key: Hashable, pending: _Pending, result: Any, error: Optional[BaseException]
    ) -> None:
        """Replace ``pending`` by its result, or drop it on failure or when
        the result is ``_ABSENT`` (not found), then let its waiters read the
        outcome.  Once ``pending`` has left the table no caller can make a
        gate for it, so ``gate`` is final here."""
        with self._lock:
            if self._entries.get(key) is pending:
                if error is None and result is not _ABSENT:
                    self._entries[key] = result
                else:
                    del self._entries[key]
        if pending.gate is not None:
            pending.result, pending.error = result, error
            pending.gate.release()


def load_rpc_map(path: str | Path | None = None) -> dict[int, str]:
    """Load the chain-id to RPC URL template map at ``path``, or the
    packaged one.  Templates may reference environment variables as
    ``${NAME}``.  A map that breaks the ``rpc_map`` schema or has a key that
    is not a decimal chain id raises ``workspace.CorruptArtifact``."""
    if path is None:
        path = Path(__file__).parent.parent / "data" / "chainid_rpc_map.json"
    doc = workspace.read_json(Path(path), "rpc_map")
    for chainid in doc:
        if not chainid.isdecimal():
            raise workspace.CorruptArtifact(f"{path}: key {chainid!r} is not a decimal chain id")
    return {int(chainid): url for chainid, url in doc.items()}


def resolve_rpc_url(chainid: int, env: Mapping[str, str], rpc_map: Mapping[int, str]) -> str:
    """Substitute credentials into the endpoint template for a chain."""
    validate_chain(chainid)
    template = rpc_map.get(chainid)
    if template is None:
        raise UnsupportedChain(f"no RPC endpoint configured for chain {chainid}")
    try:
        return string.Template(template).substitute(env)
    except KeyError as exc:
        raise MissingCredential(
            f"endpoint for chain {chainid} needs environment variable {exc.args[0]}"
        ) from None
