#!/usr/bin/env python3
"""Replay every bundled case, score the reproductions, and export a dataset.

The closest thing to a full experiment this repository ships: each case runs
end to end offline, each produced exploit project is scored against the
paper's checklist, usage and cost aggregate across sessions, and validated
incidents are exported to a deduplicated dataset directory.  Everything is
deterministic, so repeated runs produce identical numbers and identical
dataset bytes.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass
from pathlib import Path

from txpostmortem import CASE_BUILDERS, Orchestrator
from txpostmortem.cli import evaluation_context, export_dataset
from txpostmortem.evaluator import default_agents, evaluate_project, write_reports
from txpostmortem.metrics import load_session_summaries, sessions_report


@dataclass(frozen=True)
class BenchmarkConfig:
    workdir: Path


def run_benchmark(config: BenchmarkConfig) -> dict:
    sessions_dir = config.workdir / "sessions"
    rows = []
    for name in sorted(CASE_BUILDERS):
        bundle = CASE_BUILDERS[name](config.workdir / "cases" / name)
        orchestrator = Orchestrator(
            backend=bundle.backend(),
            adapter=bundle.adapter(),
            runner=bundle.runner(),
        )
        outcome = orchestrator.run_postmortem(bundle.seed(), str(sessions_dir))
        session = outcome.session
        reports, verdict = evaluate_project(
            evaluation_context(session), default_agents()
        )
        write_reports(session, reports, verdict)
        doc = outcome.summary_doc()
        rows.append(
            {
                "case": name,
                "stage": doc["outcome"]["stage"],
                "turns": doc["turns"],
                "fetched_items": doc["fetched_items"],
                "poc_validated": doc["poc"]["validated"],
                "poc_iterations": doc["poc"]["reproducer_iterations"],
                "evaluation_all_pass": all(verdict.final.values()),
            }
        )
    aggregate = sessions_report(load_session_summaries(sessions_dir))
    dataset = export_dataset(sessions_dir, config.workdir / "dataset")
    return {"cases": rows, "aggregate": aggregate, "dataset": dataset}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="benchmark_runs", type=Path)
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args()
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)

    result = run_benchmark(BenchmarkConfig(workdir=args.workdir))
    print(json.dumps(result, indent=2, sort_keys=True))

    ok = all(
        row["stage"] == "done"
        and row["poc_validated"]
        and row["evaluation_all_pass"]
        for row in result["cases"]
    )
    print()
    print(f"cases: {len(result['cases'])}  "
          f"validated: {sum(r['poc_validated'] for r in result['cases'])}  "
          f"dataset entries: {result['dataset']['count']}  "
          f"total cost: ${result['aggregate']['cost_usd_total']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
