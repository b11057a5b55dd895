"""Command-line front end for the postmortem pipeline.

Subcommands cover the full workflow: run a postmortem for a seed
transaction, score a finished reproduction against the paper's checklist,
aggregate session metrics, scan a social feed for incident candidates,
record or replay single evidence fixtures, and export validated incidents
as a benchmark dataset.

Exit codes: 0 success, 1 pipeline or stage failure, 2 usage errors.
Command-line flags are the only settings; each has its default in the
parser. Credentials come from the environment alone: ``OPENAI_API_KEY``
for the live backend, ``ETHERSCAN_API_KEY`` for explorer queries, and any
``${NAME}`` variable an ``--rpc-map`` endpoint template references.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import shutil
import sys
from pathlib import Path
from typing import Any, Sequence

from . import evaluator, harness, metrics, monitor, scenarios, workspace
from .agents import DEFAULT_MODEL, OpenAIChatBackend, ScriptedBackend
from .domain import DomainError, SeedRef, validate_chain
from .gateway import (
    DataRequest,
    FixtureStore,
    GatewayError,
    LiveAdapter,
    RecordingAdapter,
    ReplayAdapter,
    fixture_key,
    load_rpc_map,
    resolve_rpc_url,
)
from .orchestrator import Budgets, Orchestrator

logger = logging.getLogger(__name__)

DEFAULT_WORKDIR = "postmortem_runs"


class UsageError(Exception):
    """Bad or missing flags; maps to exit code 2."""


def _print_doc(doc: Any) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


# --------------------------------------------------------------------------
# postmortem


def _scripted_stack(
    fixtures: str | Path | None,
    script: str | Path | None,
    transcripts: str | Path | None,
) -> tuple[ScriptedBackend, ReplayAdapter, harness.SimulatedRunner]:
    missing = [
        flag
        for flag, value in (
            ("--fixtures", fixtures),
            ("--script", script),
            ("--transcripts", transcripts),
        )
        if not value
    ]
    if missing:
        raise UsageError(
            "scripted backend needs " + ", ".join(missing)
        )
    return (
        ScriptedBackend.from_dir(script),
        ReplayAdapter(FixtureStore(fixtures)),
        harness.SimulatedRunner.from_dir(transcripts),
    )


#: Flags only the live backend reads.
_LIVE_FLAGS = ("--rpc-map", "--record-fixtures", "--model")
#: Flags a bundled case fixes itself; it runs on the scripted backend.
_CASE_FLAGS = ("--chainid", "--tx", "--fixtures", "--script", "--transcripts")


def _reject_flags(args: argparse.Namespace, flags: Sequence[str], why: str) -> None:
    """Refuse any of ``flags`` that was given, rather than ignore it."""
    given = [flag for flag in flags if getattr(args, flag[2:].replace("-", "_"))]
    if given:
        raise UsageError(f"{why}; drop {', '.join(given)}")


def cmd_postmortem(args: argparse.Namespace) -> int:
    workdir = Path(args.workdir)
    rpc_url = None
    if args.backend == "scripted":
        _reject_flags(args, _LIVE_FLAGS, "the scripted backend makes no live fetches")

    if args.case:
        if args.backend == "live":
            raise UsageError("--case replays a scripted case; drop --backend live")
        _reject_flags(args, _CASE_FLAGS, "--case fixes the seed and its replay inputs")
        bundle = scenarios.CASE_BUILDERS[args.case](workdir / "cases" / args.case)
        seed = bundle.seed()
        backend, adapter, runner = _scripted_stack(
            bundle.fixtures_dir, bundle.script_dir, bundle.transcripts_dir
        )
    else:
        if not args.chainid or not args.tx:
            raise UsageError("need --chainid and at least one --tx (or --case)")
        try:
            seed = SeedRef.from_strings(args.chainid, args.tx)
        except DomainError as exc:
            raise UsageError(f"bad --chainid/--tx: {exc}") from exc
        if args.backend == "scripted":
            backend, adapter, runner = _scripted_stack(
                args.fixtures, args.script, args.transcripts
            )
        else:
            api_key = os.environ.get("OPENAI_API_KEY")
            if not api_key:
                raise UsageError("live backend needs OPENAI_API_KEY in the environment")
            backend = OpenAIChatBackend(api_key=api_key, model=args.model or DEFAULT_MODEL)
            rpc_map = load_rpc_map(args.rpc_map)
            live = LiveAdapter(rpc_map=rpc_map)
            adapter = (
                RecordingAdapter(live, FixtureStore(args.record_fixtures))
                if args.record_fixtures
                else live
            )
            runner = harness.SubprocessRunner()
            rpc_url = resolve_rpc_url(seed.chainid, dict(os.environ), rpc_map)

    budgets = dataclasses.replace(
        Budgets(),
        **{
            f.name: getattr(args, f.name)
            for f in dataclasses.fields(Budgets)
            if getattr(args, f.name) is not None
        },
    )

    orchestrator = Orchestrator(
        backend=backend,
        adapter=adapter,
        runner=runner,
        budgets=budgets,
        rpc_url=rpc_url,
    )
    outcome = orchestrator.run_postmortem(
        seed, str(workdir / "sessions"), attributions=args.attribution or None
    )
    doc = outcome.summary_doc()
    doc["session_root"] = str(outcome.session.root)
    _print_doc(doc)
    return 0 if doc["outcome"]["stage"] in ("done", "aborted_non_act") else 1


# --------------------------------------------------------------------------
# evaluate


def _latest_engine_verdict(session: workspace.Session) -> dict[str, Any] | None:
    base = session.root / workspace.REPRODUCER_DIR
    best: tuple[int, Path] | None = None
    for path in base.glob("iter_*/engine_verdict.json"):
        try:
            index = int(path.parent.name.split("_", 1)[1])
        except ValueError:
            continue
        if best is None or index > best[0]:
            best = (index, path)
    if best is None:
        return None
    return workspace.read_artifact(session, best[1].relative_to(session.root))


def evaluation_context(session: workspace.Session) -> dict[str, Any]:
    """Assemble the judgment inputs for a finished session's reproduction."""
    project_root = session.root / workspace.FORGE_PROJECT_DIR
    root_cause_path = session.root / workspace.ROOT_CAUSE_DOC
    if not project_root.is_dir():
        raise UsageError(f"session has no {workspace.FORGE_PROJECT_DIR}/ project")
    if not root_cause_path.is_file():
        raise UsageError(f"session has no {workspace.ROOT_CAUSE_DOC}")
    verdict = _latest_engine_verdict(session)
    if verdict is None:
        raise UsageError("session has no reproduction verdicts to judge")
    return {
        "project_root": str(project_root),
        "root_cause": workspace.read_artifact(session, workspace.ROOT_CAUSE_DOC),
        "correctness": verdict.get("rubric", {}).get("correctness", {}),
        "oracle_pass": _validated(session.root),
    }


def cmd_evaluate(args: argparse.Namespace) -> int:
    session = workspace.open_session(args.session)
    context = evaluation_context(session)
    reports, verdict = evaluator.evaluate_project(context, evaluator.default_agents())
    written = evaluator.write_reports(session, reports, verdict)
    doc = verdict.to_doc()
    doc["written"] = written
    _print_doc(doc)
    return 0 if all(verdict.final.values()) else 1


# --------------------------------------------------------------------------
# metrics


def cmd_metrics(args: argparse.Namespace) -> int:
    if not args.sessions:
        raise UsageError("need --sessions")
    summaries = metrics.load_session_summaries(args.sessions)
    report = metrics.sessions_report(summaries)
    if args.baseline:
        try:
            rows = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise UsageError(f"unreadable baseline rows: {exc}") from exc
        if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
            raise UsageError(
                f"baseline file {args.baseline} must hold a JSON list of objects"
            )
        counts = metrics.checklist_pass_counts(rows)
        report["checklist"] = {
            "aligned": len(metrics.aligned_rows(rows)),
            "counts": counts,
            "lift_pp": {
                metric: (
                    str(lift)
                    if (lift := metrics.pass_rate_lift(counts, metric)) is not None
                    else None
                )
                for metric in metrics.CHECKLIST_METRICS
            },
        }
    _print_doc(report)
    return 0


# --------------------------------------------------------------------------
# monitor


def cmd_monitor(args: argparse.Namespace) -> int:
    if args.fixtures:
        adapter = ReplayAdapter(FixtureStore(args.fixtures))
    elif args.rpc_map:
        adapter = LiveAdapter(rpc_map=load_rpc_map(args.rpc_map))
    else:
        raise UsageError("need --fixtures (offline) or --rpc-map (live probing)")
    try:
        chains = (
            tuple(validate_chain(int(c)) for c in args.chains.split(","))
            if args.chains
            else monitor.DEFAULT_PROBE_ORDER
        )
    except (ValueError, DomainError) as exc:
        raise UsageError(f"--chains must be supported chain ids: {exc}") from exc
    posts = list(monitor.read_feed(args.feed))
    outcome = monitor.run_monitor(posts, adapter, args.queue, chains=chains)
    _print_doc(
        {
            "enqueued": [str(p) for p in outcome.enqueued],
            "candidates": len(outcome.candidates),
            "log": outcome.log,
            "latencies": outcome.latencies,
        }
    )
    return 0


# --------------------------------------------------------------------------
# fixtures


def _request_from_args(args: argparse.Namespace) -> DataRequest:
    extra: dict[str, Any] = {}
    if args.extra:
        try:
            extra = json.loads(args.extra)
        except ValueError as exc:
            raise UsageError(f"--extra must be JSON: {exc}") from exc
        if not isinstance(extra, dict):
            raise UsageError("--extra must be a JSON object")
    return DataRequest(
        kind=args.kind,
        chainid=args.chainid,
        target=args.target,
        block_lo=args.block_lo,
        block_hi=args.block_hi,
        extra=extra,
    )


def cmd_fixtures(args: argparse.Namespace) -> int:
    if not args.fixtures:
        raise UsageError("need --fixtures")
    store = FixtureStore(args.fixtures)
    request = _request_from_args(args)
    if args.action == "record":
        rpc_map = load_rpc_map(args.rpc_map)
        adapter = RecordingAdapter(LiveAdapter(rpc_map=rpc_map), store)
        payload = adapter.fetch(request)
        _print_doc({"saved": str(store.path_for(fixture_key(request))), "payload": payload})
    else:
        payload = ReplayAdapter(store).fetch(request)
        _print_doc(payload)
    return 0


# --------------------------------------------------------------------------
# dataset export


def _session_dirs(sessions_dir: Path) -> list[Path]:
    return sorted(
        p.parent for p in sessions_dir.glob("*/" + workspace.SESSION_SUMMARY)
    )


def _validated(session_root: Path) -> bool:
    path = session_root / workspace.POC_VALIDATED_RESULT
    if not path.is_file():
        return False
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError:
        return False
    return doc.get("overall_status") == "Pass"


_EXPORT_DOCS = (
    workspace.ROOT_CAUSE_DOC,
    workspace.ORACLE_DEFINITION,
    workspace.POC_VALIDATED_RESULT,
)
_EXPORT_TEXT = (
    workspace.ROOT_CAUSE_REPORT,
    workspace.POC_REPORT,
)


def export_dataset(sessions_dir: str | Path, out_dir: str | Path) -> dict[str, Any]:
    """Export every validated incident once, merging repeat attributions.

    Deterministic by construction: sessions are visited in name order, JSON
    is re-serialized canonically, and project files are copied byte for
    byte, so re-running the export reproduces the same tree.
    """
    sessions_root = Path(sessions_dir)
    out = Path(out_dir)
    incidents: dict[tuple[int, tuple[str, ...]], dict[str, Any]] = {}
    for root in _session_dirs(sessions_root):
        if not _validated(root):
            logger.info("skipping %s: no validated reproduction", root.name)
            continue
        session = workspace.open_session(root)
        key = (session.seed.chainid, tuple(sorted(t.value for t in session.seed.txs)))
        sources = workspace.read_artifact(session, workspace.SOURCES_META)
        errors = workspace.check_document(sources, workspace.SCHEMAS["sources"])
        if errors:
            raise workspace.CorruptArtifact(
                f"{root / workspace.SOURCES_META}: {'; '.join(errors)}"
            )
        attributions = set(sources["attributions"])
        entry = incidents.get(key)
        if entry is None:
            incidents[key] = {"session": session, "attributions": attributions}
        else:
            entry["attributions"] |= attributions
    out.mkdir(parents=True, exist_ok=True)
    index: list[dict[str, Any]] = []
    for (chainid, txs), entry in sorted(incidents.items()):
        session = entry["session"]
        name = f"{chainid}_{txs[0][2:10]}"
        target = out / name
        if target.exists():
            shutil.rmtree(target)
        target.mkdir(parents=True)
        for rel in _EXPORT_DOCS:
            src = session.root / rel
            if not src.is_file():
                continue
            doc = json.loads(src.read_text(encoding="utf-8"))
            (target / Path(rel).name).write_text(
                json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
        for rel in _EXPORT_TEXT:
            src = session.root / rel
            if src.is_file():
                (target / Path(rel).name).write_bytes(src.read_bytes())
        project = session.root / workspace.FORGE_PROJECT_DIR
        if project.is_dir():
            for src in sorted(project.rglob("*")):
                if not src.is_file():
                    continue
                rel_path = src.relative_to(project)
                if rel_path.parts[0] in harness.BUILD_DIRS:
                    continue
                dest = target / "poc" / rel_path
                dest.parent.mkdir(parents=True, exist_ok=True)
                dest.write_bytes(src.read_bytes())
        record = {
            "dir": name,
            "chainid": chainid,
            "seed_txs": list(txs),
            "attributions": sorted(entry["attributions"]),
            "source_session": session.session_id,
        }
        (target / "incident.json").write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        index.append(record)
    index_doc = {"count": len(index), "entries": index}
    (out / "index.json").write_text(
        json.dumps(index_doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return index_doc


def cmd_dataset(args: argparse.Namespace) -> int:
    if not args.sessions or not args.out:
        raise UsageError("need --sessions and --out")
    index = export_dataset(args.sessions, args.out)
    _print_doc(index)
    return 0


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="txpostmortem",
        description="Postmortem pipeline for on-chain incidents.",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log at INFO level"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    post = sub.add_parser(
        "postmortem", help="run seed -> root cause -> oracles -> reproduction"
    )
    post.add_argument("--chainid", type=int)
    post.add_argument("--tx", action="append", help="seed transaction hash (repeatable)")
    post.add_argument("--case", choices=sorted(scenarios.CASE_BUILDERS))
    post.add_argument("--backend", choices=("scripted", "live"), default="scripted")
    post.add_argument("--fixtures", help="recorded evidence directory")
    post.add_argument("--script", help="scripted role outputs directory")
    post.add_argument("--transcripts", help="canned test-run transcripts directory")
    post.add_argument("--workdir", default=DEFAULT_WORKDIR)
    post.add_argument("--rpc-map", dest="rpc_map", help="chain-id to endpoint map")
    post.add_argument(
        "--record-fixtures",
        dest="record_fixtures",
        help="record live fetches into this fixture directory",
    )
    post.add_argument(
        "--model", help=f"model name for the live backend (default {DEFAULT_MODEL})"
    )
    post.add_argument("--attribution", action="append")
    post.add_argument("--stage-turns", dest="stage_turns", type=int)
    post.add_argument("--analyzer-iterations", dest="analyzer_iterations", type=int)
    post.add_argument(
        "--reproducer-iterations", dest="reproducer_iterations", type=int
    )
    post.set_defaults(func=cmd_postmortem)

    ev = sub.add_parser("evaluate", help="score a finished reproduction")
    ev.add_argument("--session", required=True, help="session directory")
    ev.set_defaults(func=cmd_evaluate)

    met = sub.add_parser("metrics", help="aggregate finished session summaries")
    met.add_argument("--sessions", help="directory holding session directories")
    met.add_argument("--baseline", help="checklist comparison rows (JSON)")
    met.set_defaults(func=cmd_metrics)

    mon = sub.add_parser("monitor", help="scan a post feed and enqueue seeds")
    mon.add_argument("--feed", required=True, help="JSON-lines post feed")
    mon.add_argument("--queue", required=True, help="output queue directory")
    mon.add_argument("--fixtures", help="probe chains against recorded fixtures")
    mon.add_argument("--rpc-map", dest="rpc_map")
    mon.add_argument("--chains", help="comma-separated chain ids to probe")
    mon.set_defaults(func=cmd_monitor)

    fix = sub.add_parser("fixtures", help="record or replay one evidence request")
    fix.add_argument("action", choices=("record", "replay"))
    fix.add_argument("--fixtures", help="fixture store directory")
    fix.add_argument("--rpc-map", dest="rpc_map")
    fix.add_argument("--chainid", type=int, required=True)
    fix.add_argument("--kind", required=True)
    fix.add_argument("--target", required=True)
    fix.add_argument("--block-lo", dest="block_lo", type=int)
    fix.add_argument("--block-hi", dest="block_hi", type=int)
    fix.add_argument("--extra", help="JSON object of request-specific fields")
    fix.set_defaults(func=cmd_fixtures)

    data = sub.add_parser("dataset", help="export validated incidents")
    data_sub = data.add_subparsers(dest="dataset_command", required=True)
    data_export = data_sub.add_parser("export")
    data_export.add_argument("--sessions")
    data_export.add_argument("--out")
    data_export.set_defaults(func=cmd_dataset)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GatewayError, workspace.WorkspaceError, harness.HarnessError,
            evaluator.EvaluatorError, metrics.MetricsError, monitor.MonitorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
