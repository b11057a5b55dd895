"""Feed monitor: posts in, deduplicated postmortem seeds out.

Posts arrive from a pull-based feed (JSON-lines file or any iterable),
candidate transaction hashes are extracted textually, chains are resolved by
probing the gateway, and accepted incidents are enqueued as bare seed
payloads carrying no narrative context.

A feed's hashes are resolved together, by one ``fetch_many`` batch holding
one probe per distinct hash and chain.  ``fetch_many`` caps what is in
flight per chain, not per batch, so a feed naming up to ``FETCH_WORKERS``
distinct hashes has all its probes in flight at once and costs one round
trip.  The batch runs as ``min(FETCH_WORKERS, hashes)`` lanes per chain on
the shared fetch pool, which holds at most ``FETCH_WORKERS ×
len(SUPPORTED_CHAINS)`` threads per process and reuses them from feed to
feed.  A hash that several posts repeat is probed once.  The wave fetches
through ``adapter_memo``, so the payloads it finds are kept for as long as
the adapter lives: mining a seed's lifecycle afterwards reads the seed's
metadata from memory.  A probe that found nothing is not kept, so the next
feed asks again.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Iterator, Optional, Protocol, Sequence

from . import workspace
from .domain import SUPPORTED_CHAINS, SeedRef, TxHash
from .gateway import ChainAdapter, DataRequest, GatewayError, adapter_memo, fetch_many

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
    author: str
    timestamp: datetime
    text: str
    url: Optional[str] = None

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
            author=str(doc.get("author", "")),
            timestamp=stamp,
            text=str(doc["text"]),
            url=doc.get("url"),
        )


def read_feed(path: str | Path) -> Iterator[Post]:
    """Iterate Post records from a JSON-lines file; malformed lines are fatal."""
    feed_path = Path(path)
    if not feed_path.is_file():
        raise FeedError(f"feed file not found: {feed_path}")
    with feed_path.open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError as exc:
                raise FeedError(f"{feed_path}:{lineno}: invalid JSON") from exc
            if not isinstance(doc, dict):
                raise FeedError(f"{feed_path}:{lineno}: not a JSON object")
            try:
                yield Post.from_doc(doc)
            except (KeyError, MonitorError) as exc:
                raise FeedError(f"{feed_path}:{lineno}: {exc}") from exc


# --------------------------------------------------------------------------
# Hash extraction and chain resolution.

# Maximal 0x+64-hex tokens: hex characters on either side disqualify a match,
# so addresses (40 hex) and longer blobs are never mistaken for tx hashes.
_TX_HASH_RE = re.compile(r"(?<![0-9a-fA-F])0x[0-9a-fA-F]{64}(?![0-9a-fA-F])")


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

    The probes go out as one ``fetch_many`` batch, one per distinct hash
    and chain, so the call takes as long as the slowest probe.  Up to
    ``FETCH_WORKERS`` hashes are all in flight together, as
    ``min(FETCH_WORKERS, hashes)`` lanes per chain on the shared fetch
    pool, capped at ``FETCH_WORKERS × len(SUPPORTED_CHAINS)`` threads per
    process.  The batch goes through ``adapter_memo(adapter)``: each
    payload found is kept for the adapter's life, as a transaction hash
    addresses data that does not change once mined, and a later wave or
    ``lifecycle.mine_lifecycle`` on the same adapter reads it from there.
    Misses are not kept and are probed again by the next call.

    Returns, for each distinct hash in first-appearance order and keyed by
    its value, the chains that have it, in probe order: none, one, or
    several for the caller to arbitrate.
    """
    probe_order = tuple(chains)
    distinct = list(dict.fromkeys(txhash.value for txhash in txhashes))
    requests = [
        DataRequest(kind="tx_metadata", chainid=chainid, target=value)
        for value in distinct
        for chainid in probe_order
    ]
    # Each hash's probes are consecutive, in probe order.
    payloads = iter(fetch_many(adapter_memo(adapter), requests))
    return {
        value: [
            chainid
            for chainid, payload in zip(probe_order, payloads)
            if not isinstance(payload, GatewayError)
        ]
        for value in distinct
    }


def resolve_chain(
    txhash: TxHash,
    adapter: ChainAdapter,
    chains: Iterable[int] = DEFAULT_PROBE_ORDER,
) -> int:
    """Probe every chain for one transaction, all at once.

    One ``resolve_chains`` wave of one probe per chain.  Exactly one hit
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
    order, are resolved by one ``resolve_chains`` call: one wave with at
    most ``FETCH_WORKERS`` probes in flight per chain.  Hashes named only
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
    enqueued: list[Path] = field(default_factory=list)
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
    queue_path = Path(queue_dir)
    queue_path.mkdir(parents=True, exist_ok=True)
    accepted, log = dedupe_and_filter(
        posts, adapter, classifier or ScriptedClassifier(), chains
    )
    outcome = MonitorOutcome(candidates=accepted, log=log)
    for index, candidate in enumerate(accepted):
        # The seed alone is forwarded, with no trace of the source post.
        payload = workspace.raw_input_doc(candidate.seed)
        first_hash = candidate.seed.primary.value
        name = f"incident_{index:04d}_{candidate.seed.chainid}_{first_hash[2:10]}.json"
        target = queue_path / name
        workspace.write_file(target, json.dumps(payload, indent=2, sort_keys=True) + "\n")
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
