"""Every byte a bundled session and its evaluation write, pinned by sha256.

Both cases run with a fixed clock and a fixed session creation time, and
each finished session is evaluated as ``txpostmortem evaluate`` does.  The
sha256 of every file in the session directory must match
``data/written_bytes.json``.  A change that is allowed to alter what a
session writes regenerates the manifest with::

    PYTHONPATH=src python tests/test_written_bytes.py > tests/data/written_bytes.json
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from unittest import mock

import pytest

from txpostmortem import cli, evaluator, scenarios, workspace
from txpostmortem.orchestrator import Orchestrator

MANIFEST = Path(__file__).parent / "data" / "written_bytes.json"
CREATED = datetime(2025, 1, 1, tzinfo=timezone.utc)


def written_files(name: str, root: Path) -> dict[str, str]:
    """Run and evaluate case ``name`` under ``root``; the sha256 of each file
    of its session, keyed by path inside the session."""
    bundle = scenarios.CASE_BUILDERS[name](root / "case")
    orch = Orchestrator(bundle.backend(), bundle.adapter(), bundle.runner(), clock=lambda: 0.0)
    pinned = functools.partial(workspace.create_session, now=CREATED)
    with mock.patch.object(workspace, "create_session", pinned):
        outcome = orch.run_postmortem(bundle.seed(), str(root / "sessions"))
    session = workspace.open_session(outcome.session.root)
    context = cli.evaluation_context(session)
    reports, verdict = evaluator.evaluate_project(context, evaluator.default_agents())
    evaluator.write_reports(session, reports, verdict)
    return {
        path.relative_to(session.root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(session.root.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("name", sorted(scenarios.CASE_BUILDERS))
def test_every_written_byte_matches_the_manifest(tmp_path, name):
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))[name]
    assert written_files(name, tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        manifest = {
            name: written_files(name, Path(scratch) / name)
            for name in sorted(scenarios.CASE_BUILDERS)
        }
    json.dump(manifest, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
