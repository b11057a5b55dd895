"""Every byte a bundled session and its evaluation write, pinned by sha256,
and each fact among them written once.

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
from typing import Any, Iterator
from unittest import mock

import pytest

from txpostmortem import cli, evaluator, scenarios, workspace
from txpostmortem.agents import ROLE_ANALYZER
from txpostmortem.orchestrator import Orchestrator

MANIFEST = Path(__file__).parent / "data" / "written_bytes.json"
CREATED = datetime(2025, 1, 1, tzinfo=timezone.utc)


def session_files(name: str, root: Path) -> dict[str, bytes]:
    """Run and evaluate case ``name`` under ``root``; the bytes of each file
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
        path.relative_to(session.root).as_posix(): path.read_bytes()
        for path in sorted(session.root.rglob("*"))
        if path.is_file()
    }


def written_files(name: str, root: Path) -> dict[str, str]:
    """The sha256 of each file ``session_files`` gives."""
    return {
        rel: hashlib.sha256(data).hexdigest() for rel, data in session_files(name, root).items()
    }


@pytest.mark.parametrize("name", sorted(scenarios.CASE_BUILDERS))
def test_every_written_byte_matches_the_manifest(tmp_path, name):
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))[name]
    assert written_files(name, tmp_path) == expected


def _sub_documents(doc: Any) -> Iterator[Any]:
    """``doc`` and every object or array nested in it."""
    yield doc
    for value in doc.values() if isinstance(doc, dict) else doc:
        if isinstance(value, (dict, list)):
            yield from _sub_documents(value)


@pytest.mark.parametrize("name", sorted(scenarios.CASE_BUILDERS))
def test_each_fact_is_written_once(tmp_path, name):
    """No two files of a session hold the same bytes, each JSON file is in
    compact form, and no JSON file is a sub-document of another.  The one
    copy left is the root cause: the analysis that carries it is written
    before the challenger accepts it."""
    files = session_files(name, tmp_path)
    first: dict[bytes, str] = {}
    for rel, data in files.items():
        assert first.setdefault(data, rel) == rel, (rel, first[data])
    docs = {rel: json.loads(data) for rel, data in files.items() if rel.endswith(".json")}
    for rel, doc in docs.items():
        compact = json.dumps(doc, ensure_ascii=False, separators=(",", ":")) + "\n"
        assert files[rel].decode("utf-8") == compact, rel
    prefix = f"{workspace.ROOT_CAUSE_STAGE_DIR}/{ROLE_ANALYZER}/iter_"
    accepted = max(
        (rel for rel in docs if rel.startswith(prefix)),
        key=lambda rel: int(rel[len(prefix) :].partition("/")[0]),
    )
    copies = {
        (rel, other)
        for rel, doc in docs.items()
        for other, container in docs.items()
        if other != rel and any(doc == sub for sub in _sub_documents(container))
    }
    assert copies <= {(workspace.ROOT_CAUSE_DOC, accepted)}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        manifest = {
            name: written_files(name, Path(scratch) / name)
            for name in sorted(scenarios.CASE_BUILDERS)
        }
    json.dump(manifest, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
