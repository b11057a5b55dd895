#!/usr/bin/env python3
"""Show the lifecycle miner's working on the recorded staking-drain case.

Prints the mined transaction universe, the qualifying call clusters, the
phase each transaction lands in, and the minimal covering set the miner
selects; useful for eyeballing why a transaction was or wasn't kept.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from txpostmortem import scenarios
from txpostmortem.domain import TxHash
from txpostmortem.lifecycle import (
    classify_phases,
    cluster_records,
    exploit_clusters,
    mine_lifecycle,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="miner_demo", type=Path)
    args = parser.parse_args()

    bundle = scenarios.build_prxvt_case(args.workdir / "prxvt")
    participants = scenarios.PRXVT_PARTICIPANTS
    seed = TxHash(scenarios.PRXVT_SEED)

    lifecycle, universe = mine_lifecycle(
        bundle.adapter(), scenarios.PRXVT_CHAIN, seed, participants
    )

    print(f"universe: {len(universe)} transaction(s)")
    clusters = cluster_records(universe)
    qualifying = exploit_clusters(clusters, seed, participants)
    qualifying_keys = {(c.counterparty, c.selector) for c in qualifying}
    for cluster in clusters:
        mark = (
            "exploit"
            if (cluster.counterparty, cluster.selector) in qualifying_keys
            else "       "
        )
        to_address = cluster.counterparty.value if cluster.counterparty else None
        print(f"  [{mark}] to={to_address} selector={cluster.selector} "
              f"size={len(cluster.members)}")

    phases = classify_phases(universe, seed, participants)
    print("\nphases:")
    for record in universe:
        print(f"  {record.txhash.value[:18]}... block={record.block_number} "
              f"phase={phases[record.txhash]}")

    print(f"\nselected covering set ({len(lifecycle.entries)} of {len(universe)}):")
    for entry in lifecycle.entries:
        print(f"  {entry.txhash.value[:18]}... {entry.phase}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
