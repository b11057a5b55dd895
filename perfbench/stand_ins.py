"""Wrappers around the injected adapter, backend, runner and evaluators.

Each wrapper counts what crosses the boundary into a ``Meter``.  The adapter,
backend and runner wrappers can also add a fixed sleep per call, so that
offline replays show the model, RPC and runner waiting that dominates live
sessions.  When the meter is a ``Tracer`` every call also gets a span.  The
sleep happens outside any lock, so a later change that issues calls from
several threads overlaps the waits; the counters take the meter's lock.
"""

from __future__ import annotations

import contextlib
import re
import threading
import time
from dataclasses import dataclass
from typing import Any, ContextManager, Optional

from txpostmortem.gateway import DataRequest, GatewayError, fixture_key
from txpostmortem.harness import PoCProject

from tracing import Meter, Tracer


@dataclass(frozen=True)
class Delays:
    """Seconds slept per call at each boundary."""

    fetch: float = 0.0
    step: float = 0.0
    run: float = 0.0


NO_DELAYS = Delays()
#: Runner launch > model turn > RPC call, about 100x below live latencies.
WAN_DELAYS = Delays(fetch=0.010, step=0.020, run=0.050)

# Two sessions that start in the same second get ids ``..._<8 hex>-<n>``.
# The suffix depends on timing, so prompt sizes are counted without it.
_SESSION_BUMP = re.compile(r"(?<=_[0-9a-f]{8})-\d+")


def _prompt_chars(text: str) -> int:
    return len(text) - sum(len(m) for m in _SESSION_BUMP.findall(text))


class _Boundary:
    def __init__(self, meter: Meter, delay: float):
        self.meter = meter
        self.delay = delay
        self.tracer = meter if isinstance(meter, Tracer) else None

    def _span(self, name: str) -> ContextManager[Any]:
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def _wait(self, counter: str) -> None:
        if self.delay:
            time.sleep(self.delay)
            self.meter.add(counter, self.delay)


class Adapter(_Boundary):
    """Chain adapter wrapper; counts calls, distinct fixture keys and misses."""

    def __init__(self, inner: Any, meter: Meter, delay: float = 0.0):
        super().__init__(meter, delay)
        self.inner = inner
        self._seen: set[str] = set()
        self._seen_lock = threading.Lock()

    def fetch(self, request: DataRequest) -> dict[str, Any]:
        key = fixture_key(request)
        with self._seen_lock:
            fresh = key not in self._seen
            self._seen.add(key)
        self.meter.add("gateway.fetch.calls")
        self.meter.add("gateway.fetch.unique", fresh)
        with self._span("gateway.fetch"):
            self._wait("gateway.fetch.wait_s")
            try:
                return self.inner.fetch(request)
            except GatewayError:
                self.meter.add("gateway.fetch.failed")
                raise


class Backend(_Boundary):
    """Model backend wrapper; counts conversations, turns and characters sent."""

    def __init__(self, inner: Any, meter: Meter, delay: float = 0.0):
        super().__init__(meter, delay)
        self.inner = inner
        self._turns: dict[str, int] = {}

    def open_conversation(self, role: str, system_prompt: str) -> str:
        self.meter.add("agents.conversations")
        self.meter.add("agents.prompt_chars", _prompt_chars(system_prompt))
        return self.inner.open_conversation(role, system_prompt)

    def step(self, conversation_id: str, message: str) -> Any:
        turns = self._turns.get(conversation_id, 0)
        self._turns[conversation_id] = turns + 1
        self.meter.add("agents.step.calls")
        self.meter.add("agents.retry_turns", turns > 0)
        self.meter.add("agents.message_chars", _prompt_chars(message))
        with self._span("agents.step"):
            self._wait("agents.step.wait_s")
            return self.inner.step(conversation_id, message)


class Runner(_Boundary):
    """Project runner wrapper; counts launches."""

    def __init__(self, inner: Any, meter: Meter, delay: float = 0.0):
        super().__init__(meter, delay)
        self.inner = inner

    def run(self, project: PoCProject, rpc_url: Optional[str] = None) -> str:
        self.meter.add("harness.run.calls")
        with self._span("harness.run"):
            self._wait("harness.run.wait_s")
            return self.inner.run(project, rpc_url)


class Judge(_Boundary):
    """Evaluator agent wrapper; counts judgments and never sleeps."""

    def __init__(self, inner: Any, meter: Meter):
        super().__init__(meter, 0.0)
        self.inner = inner

    def _judge(self, fn: Any, *args: Any) -> Any:
        self.meter.add("evaluator.agent_calls")
        with self._span("evaluator.judge"):
            return fn(*args)

    def initial(self, context: Any) -> Any:
        return self._judge(self.inner.initial, context)

    def negotiate(self, *args: Any) -> Any:
        return self._judge(self.inner.negotiate, *args)
