"""Seeded triage feed: posts about the two bundled incidents, plus noise.

Every feed has the same composition; the seed picks the order, the noise
hashes and the wording.  Of the twelve posts:

- three name the ``prxvt`` seed and three the ``valinity`` seed.  The first
  of each three is accepted and the other two are repeated incidents;
- three name a transaction hash that no chain has recorded;
- two are marked irrelevant by the classifier and are never probed;
- one names no hash at all.

Nine posts therefore resolve a hash, each probing all 22 supported chains.
The generator records what a correct triage must produce: the accepted
candidates in first-post order and the lifecycle mined for each.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

from txpostmortem import scenarios
from txpostmortem.lifecycle import ParticipantSet


@dataclass(frozen=True)
class Incident:
    case: str
    chainid: int
    seed: str
    participants: ParticipantSet
    lifecycle: tuple[str, ...]


#: The bundled cases as the monitor sees them, with the lifecycle that
#: ``mine_lifecycle`` must select over the recorded window.
INCIDENTS = (
    Incident(
        "prxvt",
        scenarios.PRXVT_CHAIN,
        scenarios.PRXVT_SEED,
        scenarios.PRXVT_PARTICIPANTS,
        tuple(h for h, _ in scenarios.PRXVT_LIFECYCLE),
    ),
    Incident(
        "valinity",
        scenarios.VAL_CHAIN,
        scenarios.VAL_SEED,
        scenarios.VAL_PARTICIPANTS,
        (scenarios.VAL_TX_DEPLOY, scenarios.VAL_SEED),
    ),
)

POSTS_PER_INCIDENT = 3
UNKNOWN_HASH_POSTS = 3
IRRELEVANT_POSTS = 2
NO_HASH_POSTS = 1

_INCIDENT_TEXT = (
    "Exploit alert: suspicious drain in {tx}",
    "Looks like the same attacker again, see {tx} for details",
    "{tx} -- funds moved out of the pool, investigating",
)
_NOISE_TEXT = (
    "Is {tx} related to the bridge pause?",
    "Anyone decoded {tx} yet?",
)


@dataclass(frozen=True)
class Feed:
    path: Path
    posts: int
    irrelevant: frozenset[str]
    #: (chainid, seed) per accepted candidate, in first-post order.
    candidates: tuple[tuple[int, str], ...]
    #: Mined lifecycle hashes per accepted seed.
    lifecycles: dict[str, tuple[str, ...]]


def _random_hash(rng: random.Random) -> str:
    return "0x" + "".join(rng.choice("0123456789abcdef") for _ in range(64))


def write_feed(path: Path, seed: int) -> Feed:
    """Write one JSON-lines feed for ``seed`` and return what it must yield."""
    rng = random.Random(seed)
    known = {incident.seed for incident in INCIDENTS}
    posts: list[tuple[str, bool]] = []
    for incident in INCIDENTS:
        for _ in range(POSTS_PER_INCIDENT):
            posts.append((rng.choice(_INCIDENT_TEXT).format(tx=incident.seed), True))
    for _ in range(UNKNOWN_HASH_POSTS):
        tx = _random_hash(rng)
        posts.append((rng.choice(_NOISE_TEXT).format(tx=tx), True))
    for _ in range(IRRELEVANT_POSTS):
        tx = rng.choice([_random_hash(rng), *sorted(known)])
        posts.append((f"Giveaway! Send to {tx} and win", False))
    for _ in range(NO_HASH_POSTS):
        posts.append(("Quiet day on chain so far", True))
    rng.shuffle(posts)

    start = datetime(2025, 1, 1, tzinfo=timezone.utc)
    irrelevant = set()
    accepted: list[Incident] = []
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for index, (text, relevant) in enumerate(posts):
            source_id = f"post-{index:03d}"
            if not relevant:
                irrelevant.add(source_id)
            accepted += [
                incident for incident in INCIDENTS
                if relevant and incident.seed in text and incident not in accepted
            ]
            doc = {
                "source_id": source_id,
                "author": f"watcher{rng.randrange(100)}",
                "timestamp": (start + timedelta(minutes=index)).isoformat(),
                "text": text,
            }
            handle.write(json.dumps(doc) + "\n")
    return Feed(
        path=path,
        posts=len(posts),
        irrelevant=frozenset(irrelevant),
        candidates=tuple((incident.chainid, incident.seed) for incident in accepted),
        lifecycles={incident.seed: incident.lifecycle for incident in accepted},
    )
