"""The four closed-loop workloads: one client, one item at a time.

``replay`` and ``replay-wan`` run and evaluate whole postmortem sessions over
both bundled cases, ``postprocess`` evaluates and exports finished sessions, and
``triage`` turns a feed of posts into seeds and mined lifecycles.  The
workload seed sets the case order and the triage feed.  Stand-in objects
are built before each timer starts; each item is checked for correctness
after its timer stops.  README.md gives the reasons for each workload.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from txpostmortem import CASE_BUILDERS, Orchestrator
from txpostmortem import cli, evaluator, lifecycle, metrics, monitor, workspace
from txpostmortem.gateway import FixtureStore, ReplayAdapter

import feed as feedgen
import stand_ins
from tracing import Meter, Tracer, trace_orchestrator

#: One prxvt session per two valinity sessions.  prxvt and valinity
#: sessions take different times, and with this mix the median and p90
#: fall inside the valinity cluster instead of in the gap between the two.
CASE_MIX = ("prxvt", "valinity", "valinity")
#: Rounds of CASE_MIX replayed at set-up to make the postprocess corpus.
CORPUS_ROUNDS = 2
ORACLE_DEFINITION = "artifacts/poc/oracle_generator/oracle_definition.json"


@dataclass
class Sample:
    """One timed unit of work."""

    wall: float
    cpu: float
    #: Items (sessions or posts) completed; 0 for end-of-pass work.
    items: int
    ok: bool = True


def timed(fn: Any, *args: Any) -> tuple[Any, float, float]:
    wall, cpu = time.perf_counter(), time.process_time()
    result = fn(*args)
    return result, time.perf_counter() - wall, time.process_time() - cpu


def golden_mismatches(root: Path, expected: dict[str, Any]) -> list[str]:
    """Compare a finished session with its case's ``expected.json``."""
    summary = json.loads((root / workspace.SESSION_SUMMARY).read_text(encoding="utf-8"))
    errors = [
        f"session.{key}" for key, want in expected["session"].items()
        if summary.get(key) != want
    ]
    root_cause = json.loads((root / workspace.ROOT_CAUSE_DOC).read_text(encoding="utf-8"))
    if root_cause.get("fork_block") != expected["fork_block"]:
        errors.append("fork_block")
    definition = json.loads((root / ORACLE_DEFINITION).read_text(encoding="utf-8"))
    ids = [c["id"] for kind in ("pre_check", "hard", "soft") for c in definition[kind]]
    if ids != expected["oracle_ids"]:
        errors.append("oracle_ids")
    return errors


def dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def build_cases(root: Path) -> dict[str, Any]:
    return {name: CASE_BUILDERS[name](root / name) for name in sorted(CASE_BUILDERS)}


def load_expected(bundle: Any) -> dict[str, Any]:
    return json.loads((bundle.root / "expected.json").read_text(encoding="utf-8"))


def evaluate_session(root: Path, meter: Meter) -> Any:
    """Evaluate a finished session as ``txpostmortem evaluate`` does."""
    session = workspace.open_session(root)
    context = cli.evaluation_context(session)
    agents = {
        key: stand_ins.Judge(agent, meter)
        for key, agent in evaluator.default_agents(3).items()
    }
    reports, consensus = evaluator.evaluate_project(context, agents)
    evaluator.write_reports(session, reports, consensus)
    meter.add("evaluator.rounds", consensus.rounds_used)
    return consensus


def evaluation_ok(consensus: Any) -> bool:
    return consensus.converged and all(consensus.final.values())


def report_and_export(sessions_dir: Path, dataset_dir: Path) -> tuple[dict, dict]:
    """``txpostmortem metrics`` and ``txpostmortem dataset`` over a sessions directory."""
    report = metrics.sessions_report(metrics.load_session_summaries(sessions_dir))
    return report, cli.export_dataset(sessions_dir, dataset_dir)


def finish_round(samples: list[Sample], sessions_dir: Path, dataset_dir: Path,
                 sessions: int, incidents: int) -> bool:
    """Time the end-of-round report and export; fail the round if they miscount."""
    (report, index), wall, cpu = timed(report_and_export, sessions_dir, dataset_dir)
    ok = report["sessions"] == sessions and index["count"] == incidents
    if not ok:
        for sample in samples:
            sample.ok = False
    samples.append(Sample(wall, cpu, 0))
    return ok


class Workload:
    name = ""
    item = ""

    def setup(self, root: Path, seed: int) -> None:
        """Build the inputs under ``root``."""
        raise NotImplementedError

    def begin(self, out: Path, seed: int) -> None:
        """Start a measurement writing under ``out``; resets the case order."""
        raise NotImplementedError

    def run_round(self, meter: Meter) -> list[Sample]:
        raise NotImplementedError

    def details(self) -> dict[str, Any]:
        """Workload-specific numbers for the report, since the last begin."""
        return {}


class SessionReplay(Workload):
    """Whole sessions over both cases, all in one sessions directory.

    With ``evaluate``, each session is also evaluated inside its timer, and
    each round ends with the metrics report and the dataset export over the
    sessions directory, as a user of the CLI would run them.  The
    ``postprocess`` corpus is replayed without.
    """

    item = "session"

    def __init__(self, name: str, delays: stand_ins.Delays, evaluate: bool):
        self.name = name
        self.delays = delays
        self.evaluate = evaluate

    def setup(self, root: Path, seed: int) -> None:
        self.cases = build_cases(root / "cases")
        self.expected = {name: load_expected(b) for name, b in self.cases.items()}

    def begin(self, out: Path, seed: int) -> None:
        self.sessions_dir = out / "sessions"
        self.dataset_dir = out / "dataset"
        self.rng = random.Random(seed)
        self.session_bytes: list[int] = []
        self.mismatches: list[str] = []
        #: (session root, matches its golden) per finished session.
        self.finished: list[tuple[Path, bool]] = []

    def _orchestrator(self, name: str, meter: Meter) -> Orchestrator:
        bundle, d = self.cases[name], self.delays
        orch = Orchestrator(
            backend=stand_ins.Backend(bundle.backend(), meter, d.step),
            adapter=stand_ins.Adapter(bundle.adapter(), meter, d.fetch),
            runner=stand_ins.Runner(bundle.runner(), meter, d.run),
        )
        if isinstance(meter, Tracer):
            trace_orchestrator(meter, orch)
        return orch

    def run_round(self, meter: Meter) -> list[Sample]:
        samples = []
        for name in self.rng.sample(CASE_MIX, len(CASE_MIX)):
            orch = self._orchestrator(name, meter)
            seed = self.cases[name].seed()
            outcome, wall, cpu = timed(orch.run_postmortem, seed, str(self.sessions_dir))
            root = outcome.session.root
            errors = golden_mismatches(root, self.expected[name])
            self.session_bytes.append(dir_bytes(root))
            self.finished.append((root, not errors))
            if self.evaluate:
                consensus, eval_wall, eval_cpu = timed(evaluate_session, root, meter)
                wall, cpu = wall + eval_wall, cpu + eval_cpu
                if not evaluation_ok(consensus):
                    errors.append("evaluation")
            self.mismatches += [f"{name}: {e}" for e in errors]
            samples.append(Sample(wall, cpu, 1, not errors))
        if self.evaluate and not finish_round(
            samples, self.sessions_dir, self.dataset_dir, len(self.finished), len(self.cases)
        ):
            self.mismatches.append("report/export")
        return samples

    def details(self) -> dict[str, Any]:
        count = len(self.session_bytes)
        return {
            "session_dir_bytes": sum(self.session_bytes) / count if count else None,
            "golden_mismatches": sorted(set(self.mismatches)),
        }


class PostProcess(Workload):
    """Evaluate, report on and export a corpus of finished sessions."""

    name = "postprocess"
    item = "session"

    def setup(self, root: Path, seed: int) -> None:
        replay = SessionReplay("corpus", stand_ins.NO_DELAYS, evaluate=False)
        replay.setup(root, seed)
        replay.begin(root, seed)
        meter = Meter()
        for _ in range(CORPUS_ROUNDS):
            replay.run_round(meter)
        self.corpus_dir = replay.sessions_dir
        # Golden results of the corpus sessions are checked once, here.
        self.corpus = replay.finished
        self.incidents = len(replay.cases)

    def begin(self, out: Path, seed: int) -> None:
        self.dataset_dir = out / "dataset"
        self.failures: list[str] = []

    def run_round(self, meter: Meter) -> list[Sample]:
        samples = []
        for root, golden_ok in self.corpus:
            consensus, wall, cpu = timed(evaluate_session, root, meter)
            ok = golden_ok and evaluation_ok(consensus)
            if not ok:
                self.failures.append(root.name)
            samples.append(Sample(wall, cpu, 1, ok))
        if not finish_round(samples, self.corpus_dir, self.dataset_dir,
                            len(self.corpus), self.incidents):
            self.failures.append("report/export")
        return samples

    def details(self) -> dict[str, Any]:
        return {"corpus_sessions": len(self.corpus), "failures": sorted(set(self.failures))}


class Triage(Workload):
    """Feed posts through the monitor, then mine each accepted incident."""

    name = "triage"
    item = "post"

    def setup(self, root: Path, seed: int) -> None:
        cases = build_cases(root / "cases")
        self.fixtures = root / "fixtures"
        self.fixtures.mkdir()
        for bundle in cases.values():
            for path in bundle.fixtures_dir.iterdir():
                shutil.copyfile(path, self.fixtures / path.name)
        self.feed = feedgen.write_feed(root / "feed.jsonl", seed)
        self.incidents = {i.seed: i for i in feedgen.INCIDENTS}

    def begin(self, out: Path, seed: int) -> None:
        self.queue_root = out / "queue"
        self.runs = 0
        self.failures: list[str] = []

    def _triage(self, adapter: Any) -> tuple[list[tuple[int, str]], dict[str, tuple[str, ...]]]:
        outcome = monitor.run_monitor(
            monitor.read_feed(self.feed.path),
            adapter,
            self.queue_root / f"run_{self.runs:05d}",
            classifier=monitor.ScriptedClassifier(
                {source_id: False for source_id in self.feed.irrelevant}
            ),
        )
        found, mined = [], {}
        for candidate in outcome.candidates:
            seed = candidate.seed.primary
            found.append((candidate.seed.chainid, seed.value))
            lifecycle_set, _ = lifecycle.mine_lifecycle(
                adapter, candidate.seed.chainid, seed,
                self.incidents[seed.value].participants,
            )
            mined[seed.value] = tuple(lifecycle_set.hashes())
        return found, mined

    def run_round(self, meter: Meter) -> list[Sample]:
        adapter = stand_ins.Adapter(
            ReplayAdapter(FixtureStore(self.fixtures)), meter,
            stand_ins.WAN_DELAYS.fetch,
        )
        (found, mined), wall, cpu = timed(self._triage, adapter)
        self.runs += 1
        ok = tuple(found) == self.feed.candidates and mined == self.feed.lifecycles
        if not ok:
            self.failures.append(f"run {self.runs}")
        return [Sample(wall, cpu, self.feed.posts, ok)]

    def details(self) -> dict[str, Any]:
        return {
            "posts_per_feed": self.feed.posts,
            "expected_candidates": len(self.feed.candidates),
            "failures": self.failures,
        }


WORKLOADS = {
    "replay": lambda: SessionReplay("replay", stand_ins.NO_DELAYS, evaluate=True),
    "replay-wan": lambda: SessionReplay("replay-wan", stand_ins.WAN_DELAYS, evaluate=True),
    "postprocess": PostProcess,
    "triage": Triage,
}


@dataclass
class Measurement:
    #: Samples per round, in the order the rounds ran.
    rounds: list[list[Sample]] = field(default_factory=list)

    @property
    def samples(self) -> list[Sample]:
        return [s for r in self.rounds for s in r]

    @property
    def items(self) -> int:
        return sum(s.items for s in self.samples)

    @property
    def wall(self) -> float:
        return sum(s.wall for s in self.samples)

    @property
    def cpu(self) -> float:
        return sum(s.cpu for s in self.samples)

    @property
    def attempted(self) -> int:
        return sum(1 for s in self.samples if s.items)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s.items and not s.ok)

    def rate(self) -> float:
        """Median over rounds of items per second of the round's wall time.

        A slow stretch of the host or a slow file system moves a few rounds
        and not the median, where the total rate would take it all in.
        """
        return statistics.median(
            sum(s.items for s in r) / sum(s.wall for s in r) for r in self.rounds
        )

    def item_latencies(self) -> list[float]:
        return [s.wall / s.items for s in self.samples if s.items]


def measure(
    workload: Workload,
    out: Path,
    seed: int,
    meter: Meter,
    seconds: float | None = None,
    rounds: int | None = None,
) -> Measurement:
    """Run whole rounds for ``seconds`` of wall time, or exactly ``rounds``."""
    workload.begin(out, seed)
    result = Measurement()
    start = time.perf_counter()
    while (
        len(result.rounds) < rounds if rounds is not None
        else time.perf_counter() - start < seconds
    ):
        result.rounds.append(workload.run_round(meter))
    return result
