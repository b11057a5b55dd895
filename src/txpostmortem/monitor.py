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
feed.  A hash that several posts repeat is probed once.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, Protocol, Sequence

from . import workspace
from .domain import SUPPORTED_CHAINS, SeedRef, TxHash
from .gateway import ChainAdapter, DataRequest, GatewayError, fetch_many

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
    seen: set[str] = set()
    hashes: list[TxHash] = []
    for token in _TX_HASH_RE.findall(text):
        candidate = TxHash(token)
        if candidate.value not in seen:
            seen.add(candidate.value)
            hashes.append(candidate)
    return hashes


DEFAULT_PROBE_ORDER: tuple[int, ...] = tuple(sorted(SUPPORTED_CHAINS))


def resolve_chains(
    txhashes: Sequence[TxHash],
    adapter: ChainAdapter,
    chains: Iterable[int] = DEFAULT_PROBE_ORDER,
) -> dict[str, int | MonitorError]:
    """Probe every chain for every transaction, all in one wave.

    The probes go out as one ``fetch_many`` batch, one per distinct hash
    and chain, so the call takes as long as the slowest probe.  Up to
    ``FETCH_WORKERS`` hashes are all in flight together, as
    ``min(FETCH_WORKERS, hashes)`` lanes per chain on the shared fetch
    pool, capped at ``FETCH_WORKERS × len(SUPPORTED_CHAINS)`` threads per
    process.

    Returns each hash's answer keyed by its value: the one chain that has
    it, or a ``ChainNotFound`` (no chain) or ``AmbiguousChain`` (several,
    carrying every match in probe order so the caller can arbitrate).  The
    errors are made, not raised, so they carry no traceback.
    """
    probe_order = tuple(chains)
    distinct = list(dict.fromkeys(txhash.value for txhash in txhashes))
    requests = [
        DataRequest(kind="tx_metadata", chainid=chainid, target=value)
        for value in distinct
        for chainid in probe_order
    ]
    payloads = fetch_many(adapter, requests)
    answers: dict[str, int | MonitorError] = {}
    for k, value in enumerate(distinct):
        probes = payloads[k * len(probe_order) : (k + 1) * len(probe_order)]
        matches = [
            chainid
            for chainid, payload in zip(probe_order, probes)
            if not isinstance(payload, GatewayError)
        ]
        if not matches:
            answers[value] = ChainNotFound(value)
        elif len(matches) > 1:
            answers[value] = AmbiguousChain(value, matches)
        else:
            answers[value] = matches[0]
    return answers


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
    answer = resolve_chains([txhash], adapter, chains)[txhash.value]
    if isinstance(answer, MonitorError):
        raise answer
    return answer


# --------------------------------------------------------------------------
# Candidates.


@dataclass(frozen=True)
class IncidentCandidate:
    seed: SeedRef
    first_post: Post

    @property
    def dedup_key(self) -> tuple[int, tuple[str, ...]]:
        return (self.seed.chainid, tuple(sorted(t.value for t in self.seed.txs)))

    def payload(self) -> dict[str, Any]:
        """Forwarded seed payload; strips every trace of the source post."""
        return workspace.raw_input_doc(self.seed)


def candidates_from_post(
    post: Post, resolve: Callable[[TxHash], int | MonitorError]
) -> tuple[list[IncidentCandidate], list[dict[str, Any]]]:
    """Extract, resolve, and group one post's hashes per chain.

    ``resolve`` returns the hash's answer from ``resolve_chains``: a chain
    id, or a ``ChainNotFound`` or ``AmbiguousChain``.  A post naming
    transactions on several chains is split into one candidate per chain,
    with the split logged.
    """
    notes: list[dict[str, Any]] = []
    by_chain: dict[int, list[TxHash]] = {}
    for txhash in extract_tx_hashes(post.text):
        answer = resolve(txhash)
        if isinstance(answer, ChainNotFound):
            notes.append(
                {"event": "hash_unresolved", "txhash": txhash.value, "post": post.source_id}
            )
            continue
        if isinstance(answer, AmbiguousChain):
            chainid = answer.matches[0]
            notes.append(
                {
                    "event": "ambiguous_chain",
                    "txhash": txhash.value,
                    "matches": answer.matches,
                    "chosen": chainid,
                    "post": post.source_id,
                }
            )
        else:
            chainid = answer
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
    """Fixed verdicts keyed by post source_id; unknown posts use the default."""

    def __init__(self, verdicts: dict[str, bool] | None = None, default: bool = True):
        self.verdicts = dict(verdicts or {})
        self.default = default

    def is_incident(self, post: Post) -> bool:
        return self.verdicts.get(post.source_id, self.default)


def dedupe_and_filter(
    posts: Iterable[Post],
    adapter: ChainAdapter,
    classifier: RelevanceClassifier,
    chains: Iterable[int] = DEFAULT_PROBE_ORDER,
) -> tuple[list[IncidentCandidate], list[dict[str, Any]]]:
    """Classify, extract, and deduplicate; first post per incident wins.

    The whole feed is read and classified first, each post once and in
    order, so a malformed post fails the feed before any probe is sent.
    Then the distinct hashes of the relevant posts, in first-appearance
    order, are resolved by one ``resolve_chains`` call: one wave with at
    most ``FETCH_WORKERS`` probes in flight per chain.  Hashes named only
    in irrelevant posts are never probed.  Posts repeating a hash reuse its
    answer, and each still logs its own notes.
    """
    accepted: list[IncidentCandidate] = []
    seen: set[tuple[int, tuple[str, ...]]] = set()
    log: list[dict[str, Any]] = []
    classified = [(post, classifier.is_incident(post)) for post in posts]
    hashes = [
        txhash
        for post, relevant in classified
        if relevant
        for txhash in extract_tx_hashes(post.text)
    ]
    resolved = resolve_chains(hashes, adapter, chains)

    for post, relevant in classified:
        if not relevant:
            log.append({"event": "irrelevant_post", "post": post.source_id})
            continue
        candidates, notes = candidates_from_post(
            post, lambda txhash: resolved[txhash.value]
        )
        log.extend(notes)
        if not candidates:
            log.append({"event": "no_seed_found", "post": post.source_id})
            continue
        for candidate in candidates:
            if candidate.dedup_key in seen:
                log.append(
                    {
                        "event": "duplicate_incident",
                        "post": post.source_id,
                        "chainid": candidate.seed.chainid,
                    }
                )
                continue
            seen.add(candidate.dedup_key)
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
    clock: Callable[[], datetime] | None = None,
) -> MonitorOutcome:
    """Consume a feed and enqueue one seed payload file per unique incident."""
    queue_path = Path(queue_dir)
    queue_path.mkdir(parents=True, exist_ok=True)
    now = clock or (lambda: datetime.now(timezone.utc))
    accepted, log = dedupe_and_filter(
        posts, adapter, classifier or ScriptedClassifier(), chains
    )
    outcome = MonitorOutcome(candidates=accepted, log=log)
    for index, candidate in enumerate(accepted):
        payload = candidate.payload()
        if set(payload) != {"targets"}:
            raise MonitorError("forwarded payload must contain exactly the targets")
        first_hash = candidate.seed.primary.value
        name = f"incident_{index:04d}_{candidate.seed.chainid}_{first_hash[2:10]}.json"
        target = queue_path / name
        target.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        outcome.enqueued.append(target)
        processed_at = now()
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
