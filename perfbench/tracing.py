"""In-memory spans around calls into each layer of the pipeline.

Nothing under ``src/`` records spans yet, so the benchmark wraps the public
functions it can reach from outside: module attributes that the pipeline
looks up at call time (``workspace.write_artifact``, ``orchestrator.run_role``
and so on) are replaced for the length of a traced run and restored after it.
The injected adapter, backend and runner are traced by the stand-in wrappers
in ``stand_ins.py``.

A span holds its name, start, end and parent.  Self time is a span's
duration minus the part of it that its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from txpostmortem import cli, evaluator, harness, lifecycle, metrics, monitor, oracles
from txpostmortem import orchestrator, workspace


@dataclass(eq=False)
class Span:
    name: str
    parent: Optional["Span"]
    start: float
    end: float = 0.0
    failed: bool = False

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Meter:
    """Named counters that several threads may bump at once."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self._lock = threading.Lock()

    def add(self, counter: str, n: float = 1) -> None:
        with self._lock:
            self.counts[counter] += n


class Tracer(Meter):
    """A meter that also collects spans."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, time.perf_counter())
        stack.append(span)
        try:
            yield span
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    # -- derived numbers ------------------------------------------------------

    def self_seconds(self) -> dict[int, float]:
        """Self time per span, keyed by ``id(span)``."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[id(span.parent)].append(span)
        result = {}
        for span in self.spans:
            covered, reach = 0.0, span.start
            for child in sorted(children.get(id(span), ()), key=lambda s: s.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            result[id(span)] = span.seconds - covered
        return result


def traced(tracer: Tracer, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


# --------------------------------------------------------------------------
# Module-attribute instrumentation.

#: (module, attribute, span name) for every plain module function traced.
_MODULE_FUNCTIONS = (
    (workspace, "create_session", "workspace.create_session"),
    (workspace, "next_iteration_dir", "workspace.iter_dir"),
    (workspace, "open_session", "workspace.read"),
    (workspace, "read_artifact", "workspace.read"),
    (orchestrator, "run_role", "agents.run_role"),
    (orchestrator, "build_role_prompt", "agents.build_prompt"),
    (orchestrator, "execute_data_requests", "gateway.collect"),
    (orchestrator, "fetch_seed_artifacts", "gateway.collect"),
    (harness, "scaffold_project", "harness.scaffold"),
    (harness, "parse_run_output", "harness.parse"),
    (harness, "extract_observations", "harness.parse"),
    (harness, "scan_for_addresses", "harness.scan"),
    (oracles, "evaluate_constraints", "oracles.evaluate"),
    (monitor, "resolve_chain", "monitor.resolve"),
    (cli, "evaluation_context", "cli.evaluation_context"),
    (cli, "export_dataset", "cli.export"),
    (evaluator, "evaluate_project", "evaluator.evaluate"),
    (evaluator, "write_reports", "evaluator.write_reports"),
    (metrics, "load_session_summaries", "metrics.report"),
    (metrics, "sessions_report", "metrics.report"),
)

_SCHEMA_SPAN = "workspace.schema_check"
#: Session summaries carry wall-clock latencies, so their size varies by a
#: few bytes from run to run; the repeatability check leaves them out.
_UNSTABLE_ARTIFACTS = (workspace.SESSION_SUMMARY,)


@contextlib.contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Trace the pipeline's module functions until the block exits."""
    originals: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, new: Any) -> None:
        originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for module, attr, name in _MODULE_FUNCTIONS:
        patch(module, attr, traced(tracer, name, getattr(module, attr)))

    def writer(fn: Callable[..., Path]) -> Callable[..., Path]:
        @functools.wraps(fn)
        def wrapper(session: Any, relpath: Any, *args: Any, **kwargs: Any) -> Path:
            with tracer.span("workspace.write"):
                path = fn(session, relpath, *args, **kwargs)
            size = os.stat(path).st_size
            tracer.add("workspace.write.calls")
            tracer.add("workspace.write.bytes", size)
            if Path(relpath).name not in _UNSTABLE_ARTIFACTS:
                tracer.add("workspace.write.stable_bytes", size)
            return path
        return wrapper

    patch(workspace, "write_artifact", writer(workspace.write_artifact))
    patch(workspace, "write_text_artifact", writer(workspace.write_text_artifact))

    check_document = workspace.check_document

    @functools.wraps(check_document)
    def schema_check(*args: Any, **kwargs: Any) -> Any:
        # check_document recurses through the module attribute; only the
        # outermost call gets a span.
        current = tracer.current()
        if current is not None and current.name == _SCHEMA_SPAN:
            return check_document(*args, **kwargs)
        with tracer.span(_SCHEMA_SPAN):
            return check_document(*args, **kwargs)

    patch(workspace, "check_document", schema_check)

    mine_lifecycle = lifecycle.mine_lifecycle

    @functools.wraps(mine_lifecycle)
    def mine(*args: Any, **kwargs: Any) -> Any:
        with tracer.span("lifecycle.mine"):
            mined, universe = mine_lifecycle(*args, **kwargs)
        tracer.add("lifecycle.universe_records", len(universe))
        return mined, universe

    patch(lifecycle, "mine_lifecycle", mine)
    try:
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def trace_orchestrator(tracer: Tracer, orch: orchestrator.Orchestrator) -> None:
    """Give one orchestrator's session and stage methods their own spans."""
    orch.run_postmortem = traced(tracer, "orchestrator.session", orch.run_postmortem)
    orch.run_root_cause_stage = traced(
        tracer, "orchestrator.root_cause", orch.run_root_cause_stage
    )
    orch.run_poc_stage = traced(tracer, "orchestrator.poc", orch.run_poc_stage)


# --------------------------------------------------------------------------
# Per-layer metrics.

#: Deterministic counters two traced runs of the same items must repeat.
REPEATABLE_COUNTS = (
    "agents.step.calls",
    "agents.conversations",
    "agents.prompt_chars",
    "agents.message_chars",
    "gateway.fetch.calls",
    "gateway.fetch.unique",
    "harness.run.calls",
    "evaluator.agent_calls",
    "workspace.write.calls",
    "workspace.write.stable_bytes",
    "monitor.probe.calls",
)


def layer_totals(tracer: Tracer) -> Counter[str]:
    """Raw totals of one traced pass, before normalising.

    For each span name ``N`` there are ``N.s`` (inclusive seconds),
    ``N.self_s`` and ``N.calls``; for each layer ``L`` (the part of a span
    name before the first dot), ``L.self_s`` sums its spans' self time.  The
    meter's counters replace any span total of the same name, since they
    count the same calls.  ``monitor.probe.calls`` and ``monitor.probe.hits``
    count the fetches made while resolving a chain.
    """
    own = tracer.self_seconds()
    totals: Counter[str] = Counter()
    for span in tracer.spans:
        totals[f"{span.name}.s"] += span.seconds
        totals[f"{span.name}.self_s"] += own[id(span)]
        totals[f"{span.name}.calls"] += 1
        totals[f"{span.name.split('.')[0]}.self_s"] += own[id(span)]
        if span.name == "gateway.fetch" and span.parent is not None \
                and span.parent.name == "monitor.resolve":
            totals["monitor.probe.calls"] += 1
            totals["monitor.probe.hits"] += not span.failed
    for name, value in tracer.counts.items():
        totals[name] = value
    return totals


#: Per-layer metrics whose value is not ``layer_totals()[name]`` per item:
#: name -> (numerator, denominator).  A denominator of None means per item;
#: any other is a total of the same pass, which makes the metric a ratio.
SOURCES = {
    "orchestrator.root_cause_s": ("orchestrator.root_cause.s", None),
    "orchestrator.poc_s": ("orchestrator.poc.s", None),
    "gateway.fetch.useful_ratio": ("gateway.fetch.unique", "gateway.fetch.calls"),
    "monitor.probe.hit_ratio": ("monitor.probe.hits", "monitor.probe.calls"),
    "lifecycle.universe_size": ("lifecycle.universe_records", "lifecycle.mine.calls"),
}


def per_layer_metrics(totals: Counter[str], items: int,
                      names: list[str]) -> dict[str, float]:
    """The named per-layer metrics of one pass; a layer not called reads 0."""
    result = {}
    for name in names:
        numerator, denominator = SOURCES.get(name, (name, None))
        den = items if denominator is None else totals[denominator]
        result[name] = totals[numerator] / den if den else 0.0
    return result
