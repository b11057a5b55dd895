"""Shared fixtures: both demo cases are replayed once, read in place.

The two scripted sessions are expensive enough (a few hundred artifact
writes each) that every module asserting against them shares one run.
The suite as a whole must pass with no network access, so an autouse
guard refuses every socket connection attempt.  A replay reads its case
where it lies (``scenarios.open_case``), an overlay before its base, and
never writes it.  Tests that edit a case's script or transcripts load them
with ``load_script_entries`` and ``load_transcripts``, through
``scenarios.load_numbered`` as ``CaseBundle.backend`` and
``CaseBundle.runner`` read them, and edit the loaded copy; a test that
edits a case's files copies the case first.
"""

from __future__ import annotations

import json
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import pytest
from hypothesis import settings

from txpostmortem import scenarios, workspace
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


@pytest.fixture(autouse=True, scope="session")
def no_network():
    real_connect = socket.socket.connect

    def refused(self, address):
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
