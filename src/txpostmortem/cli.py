"""Command-line front end for the postmortem pipeline.

Subcommands cover the full workflow: run a postmortem for a seed
transaction, score a finished reproduction against the paper's checklist,
aggregate session metrics, scan a social feed for incident candidates,
record or replay single evidence fixtures, and export validated incidents
as a benchmark dataset.

``postmortem --case`` replays a recorded case offline, either a bundled
case by name or any case directory, read where it lies and never written
(``scenarios.open_case``), while ``postmortem --chainid/--tx`` runs live
against the model and the chain.

Exit codes: 0 success, 1 pipeline or stage failure or a malformed input
file, 2 usage errors.  Command-line flags are the only settings; each has
its default in the parser.  Credentials come from the environment alone:
``OPENAI_API_KEY`` for a live run, ``ETHERSCAN_API_KEY`` for explorer
queries, and any ``${NAME}`` variable an ``--rpc-map`` endpoint template
references.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import shutil
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Sequence

from . import evaluator, harness, metrics, monitor, scenarios, workspace
from .agents import DEFAULT_MODEL, OpenAIChatBackend
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


def cmd_postmortem(args: argparse.Namespace) -> int:
    workdir = Path(args.workdir)
    rpc_url = None
    if args.case:
        # A flag the replay would ignore is refused rather than ignored.
        flags = ("--chainid", "--tx", "--rpc-map", "--record-fixtures", "--model")
        given = [flag for flag in flags if getattr(args, flag[2:].replace("-", "_"))]
        if given:
            raise UsageError(f"--case replays a recorded case; drop {', '.join(given)}")
        bundle = scenarios.open_case(args.case)
        seed, backend, adapter, runner = (
            bundle.seed(), bundle.backend(), bundle.adapter(), bundle.runner()
        )
    else:
        if not args.chainid or not args.tx:
            raise UsageError("need --case, or --chainid and at least one --tx")
        try:
            seed = SeedRef.from_strings(args.chainid, args.tx)
        except DomainError as exc:
            raise UsageError(f"bad --chainid/--tx: {exc}") from exc
        api_key = os.environ.get("OPENAI_API_KEY")
        if not api_key:
            raise UsageError("a live run needs OPENAI_API_KEY in the environment")
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


def _last_attempt(session_root: Path) -> tuple[Path, dict[str, Any] | None] | None:
    """The last reproducer ``iter_k`` and its validator verdict, read
    through the ``poc_validation`` schema; the verdict is None only when the
    attempt holds none.  None when the session made no attempt."""
    attempts = workspace.iteration_dirs(session_root, workspace.REPRODUCER_DIR)
    if not attempts:
        return None
    attempt = attempts[-1][1]
    try:
        return attempt, workspace.read_json(attempt / workspace.POC_VALIDATION, "poc_validation")
    except workspace.ArtifactNotFound:
        return attempt, None


def evaluation_context(session: workspace.Session) -> dict[str, Any]:
    """Assemble the judgment inputs for a finished session's last attempt,
    the only one whose project ``forge_poc/`` holds; an attempt with no
    engine verdict, whose project never ran, is refused."""
    project_root = session.root / workspace.FORGE_PROJECT_DIR
    if not project_root.is_dir():
        raise UsageError(f"session has no {workspace.FORGE_PROJECT_DIR}/ project")
    if not (session.root / workspace.ROOT_CAUSE_DOC).is_file():
        raise UsageError(f"session has no {workspace.ROOT_CAUSE_DOC}")
    last = _last_attempt(session.root)
    if last is None:
        raise UsageError("session has no reproduction attempts to judge")
    attempt, validation = last
    if not (attempt / workspace.ENGINE_VERDICT).is_file():
        raise UsageError(f"{attempt}: the last reproduction attempt has no engine verdict")
    root_cause = workspace.read_artifact(session, workspace.ROOT_CAUSE_DOC, "root_cause")
    verdict = workspace.read_json(attempt / workspace.ENGINE_VERDICT, "engine_verdict")
    return {
        "project_root": str(project_root),
        "root_cause": root_cause,
        "correctness": verdict["rubric"].get("correctness", {}),
        "attacker_address_hits": verdict["rubric"]["attacker_address_hits"],
        "oracle_pass": validation is not None and validation["overall_status"] == "Pass",
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
            rows = workspace.read_json(Path(args.baseline))
        except workspace.WorkspaceError as exc:
            raise UsageError(str(exc)) from exc
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


_EXPORT_DOCS = ((workspace.ROOT_CAUSE_DOC, "root_cause"),
                (workspace.ORACLE_DEFINITION, "oracle_definition"))
_EXPORT_TEXT = (workspace.ROOT_CAUSE_REPORT, workspace.POC_REPORT)


def _as_bytes(data: str | bytes) -> bytes:
    return data.encode("utf-8") if isinstance(data, str) else data


def _holds(path: str | Path, data: bytes) -> bool:
    """Whether ``path`` is a file, not a link, that holds ``data``."""
    try:
        with open(os.open(path, os.O_RDONLY | os.O_NOFOLLOW), "rb") as handle:
            return handle.read() == data
    except OSError:
        return False


def _holds_exactly(directory: Path, files: dict[str, str | bytes]) -> bool:
    """Whether ``directory`` holds ``files`` byte for byte and nothing else:
    no other file, no link and no directory that none of them is in."""
    dirs = {rel[:k] for rel in files for k, char in enumerate(rel) if char == "/"}
    pending, found = [(str(directory), "")], 0
    try:
        if os.path.islink(directory):
            return False
        while pending:
            path, prefix = pending.pop()
            with os.scandir(path) as entries:
                for entry in entries:
                    rel = prefix + entry.name
                    if entry.is_dir(follow_symlinks=False) and rel in dirs:
                        pending.append((entry.path, rel + "/"))
                    elif rel in files and _holds(entry.path, _as_bytes(files[rel])):
                        found += 1
                    else:
                        return False
    except OSError:
        return False
    return found == len(files)


def export_dataset(sessions_dir: str | Path, out_dir: str | Path) -> dict[str, Any]:
    """Export every validated incident once, merging repeat attributions.

    A session is exported when the validator passed its last attempt, the
    only one whose project ``forge_poc/`` holds; a corrupt verdict, or a
    missing or corrupt root cause or oracle definition, raises.

    An incident (``SeedRef.incident_key``) goes to ``<chainid>_<first tx[2:10]>``;
    in key order, a name already taken gets ``-1``, ``-2``, ….  Deterministic
    by construction: sessions are visited in name order, JSON is re-serialized
    by ``workspace.dump_indented``, and project files are copied byte for
    byte, so re-running the export reproduces the same tree.  Files are
    written whole, after all of an incident's documents are read, so an
    error leaves that incident's directory as it was.
    An incident directory that already holds exactly the files it would
    get, byte for byte, is left as it is, and so is an ``index.json`` that
    already holds the index; any other incident directory is deleted and
    written anew.  Then each directory under ``out_dir`` whose
    ``incident.json`` the index does not list is deleted, so exporting over
    an earlier export gives a fresh export's tree; other files are left
    alone.
    """
    out = Path(out_dir)
    incidents: dict[tuple[int, tuple[str, ...]], dict[str, Any]] = {}
    summaries = Path(sessions_dir).glob("*/" + workspace.SESSION_SUMMARY)
    for root in sorted(p.parent for p in summaries):
        last = _last_attempt(root)
        if not (last and last[1] and last[1]["overall_status"] == "Pass"):
            logger.info("skipping %s: no validated reproduction", root.name)
            continue
        session = workspace.open_session(root)
        key = session.seed.incident_key
        sources = workspace.read_artifact(session, workspace.SOURCES_META, "sources")
        entry = incidents.setdefault(
            key, {"session": session, "validation": last[1], "attributions": set()}
        )
        entry["attributions"] |= set(sources["attributions"])
    index: list[dict[str, Any]] = []
    taken: Counter[str] = Counter()
    for (chainid, txs), entry in sorted(incidents.items()):
        session = entry["session"]
        base = f"{chainid}_{txs[0][2:10]}"
        name = f"{base}-{taken[base]}" if taken[base] else base
        taken[base] += 1
        files: dict[str, str | bytes] = {
            Path(rel).name: workspace.dump_indented(workspace.read_json(session.root / rel, schema))
            for rel, schema in _EXPORT_DOCS
        }
        files["poc_validated_result.json"] = workspace.dump_indented(entry["validation"])
        for rel in _EXPORT_TEXT:
            src = session.root / rel
            if src.is_file():
                files[Path(rel).name] = src.read_bytes()
        project = session.root / workspace.FORGE_PROJECT_DIR
        for src in sorted(project.rglob("*")):
            rel_path = src.relative_to(project)
            if src.is_file() and rel_path.parts[0] not in harness.BUILD_DIRS:
                files[f"poc/{rel_path}"] = src.read_bytes()
        record = {
            "dir": name,
            "chainid": chainid,
            "seed_txs": list(txs),
            "attributions": sorted(entry["attributions"]),
            "source_session": session.session_id,
        }
        files["incident.json"] = workspace.dump_indented(record)
        target = out / name
        if not _holds_exactly(target, files):
            if target.exists():
                shutil.rmtree(target)
            for rel_path, data in files.items():
                workspace.write_file(target / rel_path, data)
        index.append(record)
    index_doc = {"count": len(index), "entries": index}
    index_bytes = _as_bytes(workspace.dump_indented(index_doc))
    if not _holds(out / "index.json", index_bytes):
        workspace.write_file(out / "index.json", index_bytes)
    exported = {record["dir"] for record in index}
    for stale in list(out.glob("*/incident.json")):
        if stale.parent.name not in exported:
            shutil.rmtree(stale.parent)
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
    post.add_argument(
        "--case", help="replay a bundled case by name, or a case directory"
    )
    post.add_argument("--workdir", default=DEFAULT_WORKDIR)
    post.add_argument("--rpc-map", dest="rpc_map", help="chain-id to endpoint map")
    post.add_argument(
        "--record-fixtures",
        dest="record_fixtures",
        help="record live fetches into this fixture directory",
    )
    post.add_argument(
        "--model", help=f"model name for a live run (default {DEFAULT_MODEL})"
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
    except (DomainError, GatewayError, workspace.WorkspaceError, harness.HarnessError,
            evaluator.EvaluatorError, metrics.MetricsError, monitor.MonitorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
