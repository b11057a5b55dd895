"""Shared fixtures: both demo cases are replayed once, read in place.

The two scripted sessions are expensive enough (a few hundred artifact
writes each) that every module asserting against them shares one run.
The suite as a whole must pass with no network access, so an autouse
guard refuses every socket connection to a host other than the loopback
address ``127.0.0.1``, where the transport tests serve.  A replay reads its
case where it lies (``scenarios.open_case``), an overlay before its base,
and never writes it.  Tests that edit a case's script or transcripts load them
with ``load_script_entries`` and ``load_transcripts``, through
``scenarios.load_numbered`` as ``CaseBundle.backend`` and
``CaseBundle.runner`` read them, and edit the loaded copy; a test that
edits a case's files copies the case first.  Tests that probe chains for
transactions, as the monitor does, use one stand-in node, ``ChainsAdapter``
(and ``PeakAdapter``, which also measures overlap), which answers a
``tx_lookup`` member by member.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import pytest
from hypothesis import settings

from txpostmortem import scenarios, workspace
from txpostmortem.gateway import DataRequest, MissingFixture
from txpostmortem.harness import SimulatedRunner
from txpostmortem.orchestrator import Orchestrator, SessionOutcome
from txpostmortem.scenarios import CaseBundle

SUITE_STARTED = time.monotonic()

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

DATA_DIR = Path(__file__).parent / "data"


#: The documents by which ``dataset export`` takes a session as validated,
#: by path under the session root: a root cause, an oracle definition and,
#: in the last reproduction attempt ``iter_0``, a passing validator verdict,
#: each with no more than its schema requires.
VALIDATED_SESSION_DOCS = {
    workspace.ROOT_CAUSE_DOC: json.dumps({
        "chainid": 1,
        "seed": ["0x" + "ab" * 32],
        "act": {"is_act": True},
        "lifecycle": [],
        "all_relevant_txs": [],
        "roles": {"attacker_eoas": [], "attacker_contracts": [], "victim_contracts": []},
        "mechanism": "m",
        "violated_invariant": "i",
        "fork_block": 1,
    }),
    workspace.ORACLE_DEFINITION: json.dumps({
        "chainid": 1,
        "fork_block": 1,
        "variables": [],
        "pre_check": [],
        "hard": [],
        "soft": [],
        "success_criteria": "s",
    }),
    f"{workspace.REPRODUCER_DIR}/iter_0/{workspace.POC_VALIDATION}": json.dumps(
        {"overall_status": "Pass", "oracle_results": [], "rubric": {}}
    ),
}


def load_script_entries(case_root: Path) -> dict[str, list[dict[str, Any]]]:
    """A case's scripted role outputs by role, in step order, parsed afresh
    on each call, so that a test may edit them."""
    return scenarios.load_numbered([case_root / "script"], ".json")


def load_transcripts(case_root: Path) -> list[str]:
    """A case's run transcripts in launch order."""
    return scenarios.load_numbered([case_root / "transcripts"], ".txt")["run"]


@dataclass
class ReplayRun:
    """One scripted end-to-end session plus everything assertions need."""

    bundle: CaseBundle
    runner: SimulatedRunner
    outcome: SessionOutcome
    doc: dict[str, Any]
    elapsed: float

    @property
    def session_root(self) -> Path:
        return self.outcome.session.root


def run_case(name: str, root: Path) -> ReplayRun:
    bundle = scenarios.open_case(name)
    runner = bundle.runner()
    orch = Orchestrator(backend=bundle.backend(), adapter=bundle.adapter(), runner=runner)
    started = time.monotonic()
    outcome = orch.run_postmortem(bundle.seed(), str(root / name / "runs"))
    return ReplayRun(
        bundle=bundle,
        runner=runner,
        outcome=outcome,
        doc=outcome.summary_doc(),
        elapsed=time.monotonic() - started,
    )


#: The one host the suite may connect to.
LOOPBACK = "127.0.0.1"


@pytest.fixture(autouse=True, scope="session")
def no_network():
    real_connect = socket.socket.connect

    def refused(self, address):
        if isinstance(address, tuple) and address[0] == LOOPBACK:
            return real_connect(self, address)
        raise RuntimeError(f"test attempted a network connection: {address!r}")

    socket.socket.connect = refused
    try:
        yield
    finally:
        socket.socket.connect = real_connect


@pytest.fixture(scope="session")
def case_root(tmp_path_factory: pytest.TempPathFactory) -> Path:
    return tmp_path_factory.mktemp("cases")


@pytest.fixture(scope="session")
def prxvt_run(case_root: Path) -> ReplayRun:
    return run_case("prxvt", case_root)


@pytest.fixture(scope="session")
def valinity_run(case_root: Path) -> ReplayRun:
    return run_case("valinity", case_root)


class ChainsAdapter:
    """A node on every chain that has each transaction of ``hosts`` on the
    chains listed for it, and no other.

    It answers a ``tx_metadata`` request, and a ``tx_lookup`` member by
    member, reading the hashes from ``extra["txhashes"]`` itself.  A found
    transaction's payload is ``{"txhash": <hash>, "chainid": <chain>}``.
    It keeps every request in ``calls``, each ``(chain, hash)`` it was
    asked about in ``asked``, and the most threads seen alive during a
    call in ``threads``.  Each call runs ``wait(request)``, where a
    subclass may hold it.
    """

    def __init__(self, hosts: dict[str, set[int]]):
        self.hosts = hosts
        self.calls: list[DataRequest] = []
        self.asked: list[tuple[int, str]] = []
        self.threads = 0
        self._lock = threading.Lock()

    def fetch(self, request: DataRequest) -> dict:
        lookup = request.kind == "tx_lookup"
        txhashes = request.extra["txhashes"] if lookup else [request.target]
        with self._lock:
            self.calls.append(request)
            self.asked += [(request.chainid, txhash) for txhash in txhashes]
            self.threads = max(self.threads, threading.active_count())
        self.wait(request)
        found = {
            txhash: {"txhash": txhash, "chainid": request.chainid}
            for txhash in txhashes
            if request.chainid in self.hosts.get(txhash, set())
        }
        if lookup:
            return {"found": found}
        if not found:
            raise MissingFixture(f"{request.target} not on {request.chainid}")
        return found[request.target]

    def wait(self, request: DataRequest) -> None:
        pass


class PeakAdapter(ChainsAdapter):
    """Keeps, per chain, the most calls seen in flight at once.  Every call
    is held 10 ms, or until ``parties`` calls are in flight together."""

    def __init__(self, hosts: dict[str, set[int]], parties: int | None = None):
        super().__init__(hosts)
        self.barrier = threading.Barrier(parties, timeout=5) if parties else None
        self.in_flight: Counter[int] = Counter()
        self.peaks: Counter[int] = Counter()

    def wait(self, request: DataRequest) -> None:
        with self._lock:
            self.in_flight[request.chainid] += 1
            self.peaks[request.chainid] = max(
                self.peaks[request.chainid], self.in_flight[request.chainid]
            )
        if self.barrier:
            self.barrier.wait()
        else:
            time.sleep(0.01)
        with self._lock:
            self.in_flight[request.chainid] -= 1
