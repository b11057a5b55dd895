"""Adapter contract for chain data access plus RPC endpoint resolution.

An adapter exposes exactly one operation, ``fetch(request) -> payload doc``.
Keeping the surface to a single keyed entrypoint is what makes byte-exact
record/replay possible: the recorder does not need to understand payloads,
only to key them by request.
"""

from __future__ import annotations

import json
import logging
import string
import threading
from collections import OrderedDict
from concurrent.futures import Future
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Hashable, Mapping, Optional, Protocol, TypeVar

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
    """The adapter cannot serve this request kind."""


class BootstrapError(GatewayError):
    """Seed artifacts could not be fetched; carries per-item diagnostics."""

    def __init__(self, message: str, diagnostics: list[str] | None = None):
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])


class ChainAdapter(Protocol):
    def fetch(self, request: DataRequest) -> dict[str, Any]:
        """Return the JSON payload for one data request.

        It may be called from several threads at once.
        """
        ...


class SharedResults:
    """Results by key, each computed once by its first caller.

    Callers that ask for a key while its first call is running wait on that
    call.  A failure goes to the callers already waiting and is not kept, so
    the next caller computes again.  With ``maxsize`` the oldest keys are
    dropped first.  Safe to use from several threads at once.
    """

    def __init__(self, maxsize: Optional[int] = None):
        self.maxsize = maxsize
        self._futures: OrderedDict[Hashable, Future] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable, compute: Callable[[], T]) -> T:
        with self._lock:
            future = self._futures.get(key)
            owner = future is None
            if owner:
                future = self._futures[key] = Future()
                if self.maxsize is not None and len(self._futures) > self.maxsize:
                    self._futures.popitem(last=False)
        if owner:
            try:
                future.set_result(compute())
            except BaseException as exc:
                with self._lock:
                    if self._futures.get(key) is future:
                        del self._futures[key]
                future.set_exception(exc)
        return future.result()


def load_rpc_map(path: str | Path | None = None) -> dict[int, str]:
    """Load the chain-id to RPC URL template map.

    Templates may reference environment variables as ``${NAME}``.
    """
    if path is None:
        text = (
            resources.files("txpostmortem")
            .joinpath("data/chainid_rpc_map.json")
            .read_text(encoding="utf-8")
        )
    else:
        text = Path(path).read_text(encoding="utf-8")
    raw = json.loads(text)
    return {int(chainid): url for chainid, url in raw.items()}


def resolve_rpc_url(
    chainid: int,
    env: Mapping[str, str],
    rpc_map: Mapping[int, str] | None = None,
) -> str:
    """Substitute credentials into the endpoint template for a chain."""
    validate_chain(chainid)
    mapping = load_rpc_map() if rpc_map is None else rpc_map
    template = mapping.get(chainid)
    if template is None:
        raise UnsupportedChain(f"no RPC endpoint configured for chain {chainid}")
    try:
        return string.Template(template).substitute(env)
    except KeyError as exc:
        raise MissingCredential(
            f"endpoint for chain {chainid} needs environment variable {exc.args[0]}"
        ) from None
