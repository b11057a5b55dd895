"""Feed monitor: posts in, deduplicated postmortem seeds out.

Posts arrive from a pull-based feed (JSON-lines file or any iterable),
candidate transaction hashes are extracted textually, chains are resolved by
probing the gateway, and accepted incidents are enqueued as bare seed
payloads carrying no narrative context.

A feed's hashes are resolved together, by one ``fetch_many`` batch holding
one ``tx_lookup`` per chain that asks it about every distinct hash at once
(one per ``LOOKUP_BATCH`` hashes on a longer feed).  A live chain answers a
lookup with one JSON-RPC batch, so the wave costs one round trip and, for
a feed of up to ``LOOKUP_BATCH`` hashes, runs as one lane per chain on the
shared fetch pool: ``len(SUPPORTED_CHAINS)`` lanes, the calling thread
running one of them, whatever the number of hashes.  The lanes' own work
runs one at a time under the GIL, so it is kept to constant work per
(chain, hash): no request object, hash or exception per member.  A wave
names each (chain, hash) once.  It fetches through ``adapter_memo``,
which keeps each member a lookup found, without waiting, as the payload
of its ``tx_metadata`` request for as long as the adapter lives (only a
``get`` of one request waits): mining a seed's lifecycle afterwards reads
the seed's metadata from memory, and a later wave asks no chain again
about a hash it found there.  A miss is not kept, so the next feed asks
again.
"""

from __future__ import annotations

import json
import logging
import os
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Iterator, Protocol, Sequence

from . import workspace
from .domain import SUPPORTED_CHAINS, SeedRef, TxHash
from .gateway import (
    LOOKUP_BATCH,
    ChainAdapter,
    GatewayError,
    adapter_memo,
    fetch_many,
    tx_lookup,
)

logger = logging.getLogger(__name__)


class MonitorError(Exception):
    pass


class FeedError(MonitorError):
    pass


class ChainNotFound(MonitorError):
    def __init__(self, txhash: str):
        self.txhash = txhash
        super().__init__(f"no supported chain has transaction {txhash}")


class AmbiguousChain(MonitorError):
    def __init__(self, txhash: str, matches: list[int]):
        self.txhash = txhash
        self.matches = list(matches)
        super().__init__(f"transaction {txhash} found on chains {self.matches}")


# --------------------------------------------------------------------------
# Posts.


@dataclass(frozen=True)
class Post:
    source_id: str
    timestamp: datetime
    text: str

    def __post_init__(self) -> None:
        if not self.text:
            raise MonitorError("post text must be non-empty")
        if self.timestamp.tzinfo is None:
            raise MonitorError("post timestamp must be timezone-aware")

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> "Post":
        raw = str(doc["timestamp"])
        try:
            stamp = datetime.fromisoformat(raw.replace("Z", "+00:00"))
        except ValueError as exc:
            raise MonitorError(f"unparseable timestamp {raw!r}") from exc
        if stamp.tzinfo is None:
            stamp = stamp.replace(tzinfo=timezone.utc)
        return cls(
            source_id=str(doc["source_id"]),
            timestamp=stamp,
            text=str(doc["text"]),
        )


def read_feed(path: str | Path) -> Iterator[Post]:
    """Iterate Post records from a JSON-lines file; malformed lines are fatal."""
    if not os.path.isfile(path):
        raise FeedError(f"feed file not found: {path}")
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError as exc:
                raise FeedError(f"{path}:{lineno}: invalid JSON") from exc
            if not isinstance(doc, dict):
                raise FeedError(f"{path}:{lineno}: not a JSON object")
            try:
                yield Post.from_doc(doc)
            except (KeyError, MonitorError) as exc:
                raise FeedError(f"{path}:{lineno}: {exc}") from exc


# --------------------------------------------------------------------------
# Hash extraction and chain resolution.

# Maximal 0x+64-hex tokens, the prefix in either case as ``TxHash`` takes
# it: hex characters on either side disqualify a match, so addresses (40
# hex) and longer blobs are never mistaken for tx hashes.
_TX_HASH_RE = re.compile(r"(?<![0-9a-fA-F])0[xX][0-9a-fA-F]{64}(?![0-9a-fA-F])")


def extract_tx_hashes(text: str) -> list[TxHash]:
    """All candidate hashes in first-appearance order, deduplicated."""
    return list(dict.fromkeys(map(TxHash, _TX_HASH_RE.findall(text))))


DEFAULT_PROBE_ORDER: tuple[int, ...] = tuple(sorted(SUPPORTED_CHAINS))


def resolve_chains(
    txhashes: Sequence[TxHash],
    adapter: ChainAdapter,
    chains: Iterable[int] = DEFAULT_PROBE_ORDER,
) -> dict[str, list[int]]:
    """Probe every chain for every transaction, all in one wave.

    The wave is one ``fetch_many`` batch of ``tx_lookup`` requests, one
    per chain and ``LOOKUP_BATCH`` distinct hashes, so the call takes as
    long as the slowest lookup.  A chain named twice is probed once, at its
    first place, so the wave names each (chain, hash) once.  Up to
    ``LOOKUP_BATCH`` hashes cost one lane per chain on the shared fetch
    pool, and more at most ``FETCH_WORKERS`` lanes per chain.  The batch
    goes through ``adapter_memo(adapter)``, which keeps each transaction
    found, without waiting, as its ``tx_metadata`` payload for the
    adapter's life (a ``get`` of one request is the memo's one waiting
    rule): a later wave on the same adapter asks no chain about it again,
    and ``lifecycle.mine_lifecycle`` reads it from there.  The memo hashes
    no member.  Misses are not kept and are asked about again by the next
    call.  A lookup that fails, such as one whose node does not answer or
    refuses the batch, finds nothing on its chain and is logged as a
    warning naming the chain.

    Returns, for each distinct hash in first-appearance order and keyed by
    its value, the chains that have it, in probe order: none, one, or
    several for the caller to arbitrate.
    """
    probe_order = tuple(dict.fromkeys(chains))
    distinct = list(dict.fromkeys(txhash.value for txhash in txhashes))
    requests = [
        tx_lookup(chainid, distinct[start : start + LOOKUP_BATCH])
        for chainid in probe_order
        for start in range(0, len(distinct), LOOKUP_BATCH)
    ]
    found: set[tuple[int, str]] = set()
    for request, payload in zip(requests, fetch_many(adapter_memo(adapter), requests)):
        if isinstance(payload, GatewayError):
            logger.warning(
                "tx_lookup of %d hashes failed on chain %d, so none counts as found there: %s",
                len(request.extra["txhashes"]),
                request.chainid,
                payload,
            )
            continue
        found.update((request.chainid, txhash) for txhash in payload["found"])
    return {
        value: [chainid for chainid in probe_order if (chainid, value) in found]
        for value in distinct
    }


def resolve_chain(
    txhash: TxHash,
    adapter: ChainAdapter,
    chains: Iterable[int] = DEFAULT_PROBE_ORDER,
) -> int:
    """Probe every chain for one transaction, all at once.

    One ``resolve_chains`` wave of one lookup per chain.  Exactly one hit
    resolves; zero raises ChainNotFound; several raise AmbiguousChain
    carrying every match, in probe order, so the caller can arbitrate.
    """
    matches = resolve_chains([txhash], adapter, chains)[txhash.value]
    if not matches:
        raise ChainNotFound(txhash.value)
    if len(matches) > 1:
        raise AmbiguousChain(txhash.value, matches)
    return matches[0]


# --------------------------------------------------------------------------
# Candidates.


@dataclass(frozen=True)
class IncidentCandidate:
    seed: SeedRef
    first_post: Post


def candidates_from_post(
    post: Post, hashes: list[TxHash], resolved: dict[str, list[int]]
) -> tuple[list[IncidentCandidate], list[dict[str, Any]]]:
    """Group one post's hashes, ``extract_tx_hashes(post.text)``, per chain.

    ``resolved`` is ``resolve_chains``' answer for a set of hashes holding
    ``hashes``.  A hash no chain has is logged as unresolved and dropped; a
    hash several chains have goes to the first in probe order, with the
    matches logged.  A post naming transactions on several chains is split
    into one candidate per chain, with the split logged.
    """
    notes: list[dict[str, Any]] = []
    by_chain: dict[int, list[TxHash]] = {}
    for txhash in hashes:
        matches = resolved[txhash.value]
        if not matches:
            notes.append(
                {"event": "hash_unresolved", "txhash": txhash.value, "post": post.source_id}
            )
            continue
        chainid = matches[0]
        if len(matches) > 1:
            notes.append(
                {
                    "event": "ambiguous_chain",
                    "txhash": txhash.value,
                    "matches": matches,
                    "chosen": chainid,
                    "post": post.source_id,
                }
            )
        by_chain.setdefault(chainid, []).append(txhash)
    if len(by_chain) > 1:
        notes.append(
            {
                "event": "multi_chain_split",
                "post": post.source_id,
                "chains": sorted(by_chain),
            }
        )
    candidates = [
        IncidentCandidate(
            seed=SeedRef(chainid=chainid, txs=tuple(hashes)), first_post=post
        )
        for chainid, hashes in sorted(by_chain.items())
    ]
    return candidates, notes


# --------------------------------------------------------------------------
# Relevance filtering and deduplication.


class RelevanceClassifier(Protocol):
    def is_incident(self, post: Post) -> bool: ...


class ScriptedClassifier:
    """Fixed verdicts keyed by post source_id; unknown posts are incidents."""

    def __init__(self, verdicts: dict[str, bool] | None = None):
        self.verdicts = dict(verdicts or {})

    def is_incident(self, post: Post) -> bool:
        return self.verdicts.get(post.source_id, True)


def dedupe_and_filter(
    posts: Iterable[Post],
    adapter: ChainAdapter,
    classifier: RelevanceClassifier,
    chains: Iterable[int] = DEFAULT_PROBE_ORDER,
) -> tuple[list[IncidentCandidate], list[dict[str, Any]]]:
    """Classify, extract, and deduplicate; first post per incident wins.

    The whole feed is read and classified first, each post once and in
    order, and each relevant post's hashes are extracted once, so a
    malformed post fails the feed before any probe is sent.
    Then the distinct hashes of the relevant posts, in first-appearance
    order, are resolved by one ``resolve_chains`` call: one wave of one
    ``tx_lookup`` per chain (per ``LOOKUP_BATCH`` hashes).  Hashes named only
    in irrelevant posts are never probed.  Posts repeating a hash reuse its
    answer, and each still logs its own notes.
    """
    accepted: list[IncidentCandidate] = []
    seen: set[tuple[int, tuple[str, ...]]] = set()
    log: list[dict[str, Any]] = []
    # Each post with its hashes, or None for a post that is not relevant.
    classified = [
        (post, extract_tx_hashes(post.text) if classifier.is_incident(post) else None)
        for post in posts
    ]
    resolved = resolve_chains(
        [txhash for _, hashes in classified if hashes for txhash in hashes], adapter, chains
    )

    for post, hashes in classified:
        if hashes is None:
            log.append({"event": "irrelevant_post", "post": post.source_id})
            continue
        candidates, notes = candidates_from_post(post, hashes, resolved)
        log.extend(notes)
        if not candidates:
            log.append({"event": "no_seed_found", "post": post.source_id})
            continue
        for candidate in candidates:
            key = candidate.seed.incident_key
            if key in seen:
                log.append(
                    {
                        "event": "duplicate_incident",
                        "post": post.source_id,
                        "chainid": candidate.seed.chainid,
                    }
                )
                continue
            seen.add(key)
            accepted.append(candidate)
    return accepted, log


# --------------------------------------------------------------------------
# Queue writer.


@dataclass
class MonitorOutcome:
    enqueued: list[str] = field(default_factory=list)
    candidates: list[IncidentCandidate] = field(default_factory=list)
    log: list[dict[str, Any]] = field(default_factory=list)
    latencies: list[dict[str, Any]] = field(default_factory=list)


def run_monitor(
    posts: Iterable[Post],
    adapter: ChainAdapter,
    queue_dir: str | Path,
    classifier: RelevanceClassifier | None = None,
    chains: Iterable[int] = DEFAULT_PROBE_ORDER,
) -> MonitorOutcome:
    """Consume a feed and enqueue one seed payload file per unique incident.

    Seeds are written whole (``workspace.write_file``): a killed monitor
    leaves no torn seed under a seed's name, only a dot-named temp file."""
    os.makedirs(queue_dir, exist_ok=True)
    accepted, log = dedupe_and_filter(
        posts, adapter, classifier or ScriptedClassifier(), chains
    )
    outcome = MonitorOutcome(candidates=accepted, log=log)
    for index, candidate in enumerate(accepted):
        # The seed alone is forwarded, with no trace of the source post.
        payload = workspace.raw_input_doc(candidate.seed)
        first_hash = candidate.seed.primary.value
        name = f"incident_{index:04d}_{candidate.seed.chainid}_{first_hash[2:10]}.json"
        target = os.path.join(queue_dir, name)
        workspace.write_file(target, workspace.dump_indented(payload))
        outcome.enqueued.append(target)
        processed_at = datetime.now(timezone.utc)
        if processed_at < candidate.first_post.timestamp:
            logger.warning(
                "clock skew: post %s timestamp is after processing time",
                candidate.first_post.source_id,
            )
        outcome.latencies.append(
            {
                "post": candidate.first_post.source_id,
                "posted_at": candidate.first_post.timestamp.isoformat(),
                "processed_at": processed_at.isoformat(),
                "seconds": max(
                    0.0,
                    (processed_at - candidate.first_post.timestamp).total_seconds(),
                ),
            }
        )
    return outcome
