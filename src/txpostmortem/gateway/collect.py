"""High-level collection operations over any chain adapter.

These functions sit between the orchestrator and the adapter: they issue
requests, land payloads as workspace artifacts, and fold results into
collection summaries.  Per-request failures never abort a batch; only a
missing seed artifact is fatal to the seed bootstrap.  The lifecycle miner
fetches its transaction lists with ``fetch_many`` too, and lands nothing.

The requests of one batch are independent, so ``fetch_many`` waits on all
of them at once.  A batch runs as lanes, at most ``FETCH_WORKERS`` per
chain, each taking its chain's next request until none is left: the
monitor's batch of one ``tx_lookup`` per chain is one wave of
``len(SUPPORTED_CHAINS)`` lanes, and a batch on one chain keeps
``FETCH_WORKERS`` in flight.  The calling thread runs one lane itself and
hands each other lane, as one item on a queue, to the process's one fetch
pool, whose threads are started only when no idle one is left and are kept
for later batches; it then waits on one countdown of the handed lanes, with
no future per lane.  Only the waiting overlaps: artifact names, workspace
writes, summary records and diagnostics are made on the calling thread in
request order, so a batch lands the same bytes however its answers
interleave.

A session fetches and lands through one ``SessionMemo``: a request it
repeats is answered from the payload it already holds and writes nothing,
and its summary entry names the file that holds it.  Outside a session,
``adapter_memo`` gives a ``SessionMemo`` whose payloads belong to the
adapter object itself and are dropped with it: the monitor's probe wave
fetches through it, keeping each transaction a lookup found as its
``tx_metadata`` payload, and so does the lifecycle miner's seed lookup,
which is then answered from that payload.
"""

from __future__ import annotations

import logging
import re
import threading
import weakref
from collections import deque
from queue import SimpleQueue
from typing import Any, Callable, Sequence

from .. import workspace
from ..domain import SUPPORTED_CHAINS, DomainError
from .base import (
    BootstrapError,
    ChainAdapter,
    GatewayError,
    SharedResults,
    lookup_members,
    tx_lookup,
)
from .fixtures import fixture_key
from .types import DataRequest, TraceNode

logger = logging.getLogger(__name__)

SEED_ARTIFACT_KINDS = ("tx_metadata", "tx_trace", "balance_diff")
#: Kinds fetched for each seed transaction as best-effort context.
SEED_CONTEXT_KINDS = ("receipt_logs", "state_diff")
_SEED_FILENAMES = {
    "tx_metadata": "metadata.json",
    "tx_trace": "trace.json",
    "balance_diff": "balance_diff.json",
}

#: Most fetches one ``fetch_many`` call has in flight at once on one chain,
#: that is, on one RPC endpoint.
FETCH_WORKERS = 8


class _FetchPool:
    """The process's fetch threads, shared by every ``fetch_many`` call.

    ``run`` hands each lane but the first to the threads as one item on a
    ``SimpleQueue``, runs the first on the calling thread, then waits for a
    countdown of the handed lanes.  A thread is started only when the queue
    holds more lanes than idle threads wait for, and at most ``max_threads``
    are ever started; a thread whose lane has returned waits for the next.
    They are daemon threads: between calls they only wait on the queue, so
    they never hold up the interpreter's exit.

    Not a ``concurrent.futures.ThreadPoolExecutor``: one shared executor,
    the caller still running the first lane, fed perfbench ``triage``
    257-262 posts/s against this pool's 271-285, lower in each of 6
    alternating 10 s pairs (seeds 1-6, 2-CPU Xeon, Python 3.11), and
    added 0.3 MB of peak RSS.
    """

    def __init__(self, max_threads: int):
        self.max_threads = max_threads
        self._lanes: SimpleQueue[tuple[Callable[[Any], None], Any, _Countdown]] = SimpleQueue()
        #: Guards the counts below and every countdown.
        self._lock = threading.Lock()
        self._threads = 0
        #: Idle threads less the lanes queued for them; below zero, lanes
        #: wait for a thread.
        self._spare = 0

    def run(self, lane: Callable[[Any], None], args: Sequence[Any]) -> None:
        """Call ``lane``, which must not raise, on each of ``args``; return
        once every call has returned."""
        if not args:
            return
        handed = args[1:]
        countdown = _Countdown(len(handed))
        with self._lock:
            self._spare -= len(handed)
            start = max(0, min(-self._spare, self.max_threads - self._threads))
            numbers = range(self._threads, self._threads + start)
            self._threads += start
            self._spare += start
        for arg in handed:
            self._lanes.put((lane, arg, countdown))
        for n in numbers:
            threading.Thread(target=self._serve, name=f"fetch_{n}", daemon=True).start()
        lane(args[0])
        if handed:
            countdown.done.acquire()

    def _serve(self) -> None:
        while True:
            self._finish(*self._lanes.get())

    def _finish(self, lane: Callable[[Any], None], arg: Any, countdown: _Countdown) -> None:
        lane(arg)
        with self._lock:
            # Idle before the caller wakes, so its next batch reuses this thread.
            self._spare += 1
            countdown.pending -= 1
            last = not countdown.pending
        if last:
            countdown.done.release()


class _Countdown:
    """Lanes of one ``run`` still out; ``done`` is released when none is."""

    def __init__(self, pending: int):
        self.pending = pending
        self.done = threading.Lock()
        self.done.acquire()


#: Enough threads for a full set of lanes on every chain.
_POOL = _FetchPool(FETCH_WORKERS * len(SUPPORTED_CHAINS))

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
    """Fetch every request, with up to ``FETCH_WORKERS`` in flight per chain.

    Each chain gets ``min(FETCH_WORKERS, n)`` lanes for its ``n``
    requests, and each lane fetches its chain's next request until none is
    left, so no lane ever waits for another.  The calling thread runs the
    first lane and the shared pool the others, so a batch of one lane, such
    as a single request, starts and wakes no thread.  Each chain's JSON-RPC
    endpoint is its own, so the cap is per endpoint and requests on
    different chains never wait for each other's lanes.  Explorer requests
    (``txlist``, ``contract_meta``) share one endpoint, ``EXPLORER_API_URL``,
    across chains.  No caller batches them across chains: the seed
    bootstrap, lifecycle txlists and post-challenge batches are all on the
    seed's chain.  Only an analyst batch naming several chains could have
    more than ``FETCH_WORKERS`` explorer requests in flight.

    Results come back in request order; a ``GatewayError`` takes its
    request's slot, without its traceback, whose frames would tie the
    results into a reference cycle.  Any other exception stops every lane
    from starting another fetch; once all lanes have returned, the first
    such exception in request order propagates, so no fetch outlives the
    call.
    """
    results: list[Any] = [None] * len(requests)
    errors: dict[int, BaseException] = {}
    per_chain: dict[int, deque[int]] = {}
    for index, request in enumerate(requests):
        per_chain.setdefault(request.chainid, deque()).append(index)

    def lane(indices: deque[int]) -> None:
        while not errors:
            try:
                index = indices.popleft()
            except IndexError:
                return
            try:
                results[index] = adapter.fetch(requests[index])
            except GatewayError as exc:
                results[index] = exc.with_traceback(None)
            except BaseException as exc:
                # Raised again on the calling thread once every lane is done.
                errors[index] = exc

    _POOL.run(
        lane,
        [
            indices
            for indices in per_chain.values()
            for _ in range(min(FETCH_WORKERS, len(indices)))
        ],
    )
    if errors:
        raise errors[min(errors)]
    return results


class SessionMemo:
    """A ``ChainAdapter`` that fetches each request once per session.

    It keeps every successful payload by ``fixture_key`` for as long as it
    lives, one postmortem session, and hands the same payload to every later
    request for that key; a request made while the first is in flight waits
    for it.  A failure is not kept, so a later batch asks the adapter again.
    Given ``payloads``, it keeps them there, as ``adapter_memo`` does with its
    adapter's table.  ``landed`` holds the file each payload first landed in.

    A ``tx_lookup`` is memoised per member, under the key of the member's
    ``tx_metadata`` request: the members it neither holds nor waits on go
    to the adapter as one lookup, each found one is kept as that request's
    payload, and a member not found is not kept.
    """

    def __init__(self, adapter: ChainAdapter, payloads: SharedResults | None = None):
        self.adapter = adapter
        self._payloads = SharedResults() if payloads is None else payloads
        self.landed: dict[str, str] = {}

    def fetch(self, request: DataRequest) -> dict[str, Any]:
        if request.kind == "tx_lookup":
            return self._lookup(request)
        return self._payloads.get(fixture_key(request), lambda: self.adapter.fetch(request))

    def _lookup(self, request: DataRequest) -> dict[str, Any]:
        members = {fixture_key(member): member for member in lookup_members(request)}

        def compute(keys: list[str]) -> dict[str, dict[str, Any]]:
            asked = tx_lookup(request.chainid, [members[key].target for key in keys])
            found = self.adapter.fetch(asked)["found"]
            return {
                key: found[hashed]
                for key in keys
                if (hashed := members[key].normalized_target()) in found
            }

        kept = self._payloads.get_many(list(members), compute)
        return {
            "found": {
                member.normalized_target(): kept[key]
                for key, member in members.items()
                if key in kept
            }
        }


#: Payloads by adapter, for ``adapter_memo``.  A value must not refer to its
#: adapter, or the entry would never be dropped.
_ADAPTER_PAYLOADS: weakref.WeakKeyDictionary[Any, SharedResults] = weakref.WeakKeyDictionary()
_ADAPTER_PAYLOADS_LOCK = threading.Lock()


def adapter_memo(adapter: ChainAdapter) -> SessionMemo:
    """A ``SessionMemo`` over ``adapter`` whose payloads live as long as it.

    Every memo made for one adapter object shares one table, which is
    dropped with the adapter.  A ``SessionMemo`` is returned unchanged, so
    code running inside a session fetches through the session's memo.  Use
    it only for data that cannot change once it exists, such as what a
    transaction hash addresses.
    """
    if isinstance(adapter, SessionMemo):
        return adapter
    with _ADAPTER_PAYLOADS_LOCK:
        payloads = _ADAPTER_PAYLOADS.get(adapter)
        if payloads is None:
            payloads = _ADAPTER_PAYLOADS[adapter] = SharedResults()
    return SessionMemo(adapter, payloads)


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


def _land(
    session: workspace.Session,
    fetches: SessionMemo,
    summary: dict[str, Any],
    request: DataRequest,
    payload: dict[str, Any],
    relpath: str,
) -> bool:
    """List ``request`` as fetched in ``summary`` with the file that holds its
    payload: where the session first landed it, or else ``relpath``, written
    now.  Returns whether it wrote ``relpath``."""
    key = fixture_key(request)
    wrote = key not in fetches.landed
    if wrote:
        workspace.write_artifact(session, relpath, payload)
        fetches.landed[key] = relpath
    summary["fetched"].append({"request": request.to_doc(), "files": [fetches.landed[key]]})
    return wrote


def fetch_seed_artifacts(
    session: workspace.Session, fetches: SessionMemo
) -> tuple[dict[str, Any], str]:
    """Land the seed artifacts and a best-effort context around them, and
    return collection run zero's summary with a digest of that context.

    The first batch fetches each seed transaction's metadata, trace and
    balance diff, beside its receipt logs and state diff.  A missing seed
    artifact is fatal: a postmortem cannot start without it, so the caller
    gets one error carrying all diagnostics.  The second batch fetches the
    metadata of every contract the seed traces call with a selector.  The
    context lands under ``SEED_CONTEXT_DIR``; a context miss is recorded in
    the summary and fails nothing.  Both go through ``fetches``, the
    session's memo, which records where each payload lands.
    """
    seed = session.seed
    summary: dict[str, Any] = {"fetched": [], "failed": []}
    diagnostics: list[str] = []
    requests = [
        DataRequest(kind=kind, chainid=seed.chainid, target=tx.value)
        for tx in seed.txs
        for kind in SEED_ARTIFACT_KINDS + SEED_CONTEXT_KINDS
    ]
    results = iter(zip(requests, fetch_many(fetches, requests)))
    context: list[tuple[DataRequest, dict[str, Any] | GatewayError]] = []
    traces: list[dict[str, Any]] = []
    for tx in seed.txs:
        tx_dir = f"{workspace.SEED_DIR}/{seed.chainid}/{tx.value}"
        for kind in SEED_ARTIFACT_KINDS:
            request, payload = next(results)
            if isinstance(payload, GatewayError):
                diagnostics.append(f"{kind} {tx.value}: {payload}")
                summary["failed"].append({"request": request.to_doc(), "error": str(payload)})
                continue
            relpath = f"{tx_dir}/{_SEED_FILENAMES[kind]}"
            _land(session, fetches, summary, request, payload, relpath)
            if kind == "tx_trace":
                traces.append(payload)
        context += [next(results) for _ in SEED_CONTEXT_KINDS]
    if diagnostics:
        raise BootstrapError(
            f"seed bootstrap failed for {len(diagnostics)} artifact(s)", diagnostics
        )
    contracts = [
        DataRequest(kind="contract_meta", chainid=seed.chainid, target=address)
        for address in _called_contracts(traces)
    ]
    context += zip(contracts, fetch_many(fetches, contracts))
    for request, payload in context:
        if isinstance(payload, GatewayError):
            summary["failed"].append({"request": request.to_doc(), "error": str(payload)})
            continue
        relpath = f"{workspace.SEED_CONTEXT_DIR}/{_context_name(request)}"
        _land(session, fetches, summary, request, payload, relpath)
    return summary, _context_digest(context)


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
    fetches: SessionMemo,
    iter_dir: str,
) -> dict[str, Any]:
    """Serve a batch of analyst data requests into one iteration directory,
    ``iter_dir``, given relative to the session root.

    Each goes through ``fetches``, the session's memo; a payload the session
    already landed is not written again, and its entry names the file that
    holds it.  A new payload lands directly in ``iter_dir``, named by
    ``_safe_name`` and suffixed on a collision: no request field names the
    file.  ``iter_dir`` need not exist: the first write creates it, once
    every fetch has returned.
    """
    summary: dict[str, Any] = {"fetched": [], "failed": []}
    used_names: set[str] = set()
    for request, payload in zip(requests, fetch_many(fetches, requests)):
        if isinstance(payload, GatewayError):
            logger.info("request failed: %s %s: %s", request.kind, request.target, payload)
            summary["failed"].append({"request": request.to_doc(), "error": str(payload)})
            continue
        stem = _safe_name(request).removesuffix(".json")
        name, n = f"{stem}.json", 1
        while name in used_names:
            name, n = f"{stem}_{n}.json", n + 1
        relpath = f"{iter_dir}/{name}"
        if _land(session, fetches, summary, request, payload, relpath):
            used_names.add(name)
    return summary

