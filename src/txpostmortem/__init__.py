"""Agentic postmortem pipeline for on-chain incidents.

From one or more seed transactions, the pipeline mines the incident's full
transaction lifecycle, drives specialist analysis roles to an evidence-backed
root-cause report, derives a semantic oracle definition for what counts as a
faithful reproduction, and scaffolds a fork-pinned test project that must
satisfy those oracles.  Every model call goes through a pluggable backend and
every chain access through a record/replay gateway, so complete runs execute
deterministically offline.
"""

from __future__ import annotations

from .agents import (
    ModelBackend,
    OpenAIChatBackend,
    ScriptedBackend,
    StepResult,
    Usage,
    run_role,
)
from .domain import Address, SeedRef, TxHash, validate_chain
from .gateway import (
    ChainAdapter,
    DataRequest,
    FixtureStore,
    LiveAdapter,
    RecordingAdapter,
    ReplayAdapter,
    execute_data_requests,
    fetch_seed_artifacts,
    fixture_key,
)
from .harness import SimulatedRunner, SubprocessRunner, scaffold_project
from .lifecycle import LifecycleSet, ParticipantSet, mine_lifecycle
from .oracles import (
    bind_variables,
    evaluate_constraints,
    normalize_definition,
    observation_names,
    validate_definition,
)
from .orchestrator import Budgets, Orchestrator, SessionOutcome
from .scenarios import CASE_BUILDERS, CaseBundle
from .workspace import Session, create_session, open_session

__version__ = "0.1.0"

__all__ = [
    "Address",
    "Budgets",
    "CASE_BUILDERS",
    "CaseBundle",
    "ChainAdapter",
    "DataRequest",
    "FixtureStore",
    "LifecycleSet",
    "LiveAdapter",
    "ModelBackend",
    "OpenAIChatBackend",
    "Orchestrator",
    "ParticipantSet",
    "RecordingAdapter",
    "ReplayAdapter",
    "ScriptedBackend",
    "SeedRef",
    "Session",
    "SessionOutcome",
    "SimulatedRunner",
    "StepResult",
    "SubprocessRunner",
    "TxHash",
    "Usage",
    "bind_variables",
    "create_session",
    "evaluate_constraints",
    "execute_data_requests",
    "fetch_seed_artifacts",
    "fixture_key",
    "mine_lifecycle",
    "normalize_definition",
    "observation_names",
    "open_session",
    "run_role",
    "scaffold_project",
    "validate_chain",
    "validate_definition",
]
