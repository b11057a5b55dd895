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
from typing import Any, Callable, Hashable, Mapping, Optional, Protocol, TypeVar

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


class ChainAdapter(Protocol):
    def fetch(self, request: DataRequest) -> dict[str, Any]:
        """Return the JSON payload for one data request.

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
    the next caller computes again.  With ``maxsize`` the oldest keys are
    dropped first.  Safe to use from several threads at once.

    A key holds its result, or a ``_Pending`` while its first call runs, so
    a lookup with no one to wait for makes no lock, event or future.
    """

    def __init__(self, maxsize: Optional[int] = None):
        self.maxsize = maxsize
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable, compute: Callable[[], T]) -> T:
        with self._lock:
            entry = self._entries.get(key, _ABSENT)
            if entry is _ABSENT:
                pending = self._entries[key] = _Pending()
                if self.maxsize is not None and len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
            elif type(entry) is not _Pending:
                return entry
            elif entry.gate is None:
                entry.gate = threading.Lock()
                entry.gate.acquire()
        if entry is not _ABSENT:
            # Made before the lock was let go, so the first caller sees it.
            entry.gate.acquire()
            entry.gate.release()
            if entry.error is not None:
                raise entry.error
            return entry.result
        try:
            result = compute()
        except BaseException as exc:
            self._settle(key, pending, None, exc)
            raise
        self._settle(key, pending, result, None)
        return result

    def _settle(
        self, key: Hashable, pending: _Pending, result: Any, error: Optional[BaseException]
    ) -> None:
        """Replace ``pending`` by its result, or drop it on failure, then
        let its waiters read the outcome.  Once ``pending`` has left the
        table no caller can make a gate for it, so ``gate`` is final here."""
        with self._lock:
            if self._entries.get(key) is pending:
                if error is None:
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
