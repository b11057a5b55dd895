"""The session path guard: every artifact read and write stays inside the
session directory."""

from __future__ import annotations

import pytest

from txpostmortem import workspace
from txpostmortem.domain import SeedRef

TX = "0x" + "ab" * 32


@pytest.fixture
def session(tmp_path):
    return workspace.create_session(tmp_path / "sessions", SeedRef.from_strings(1, [TX]))


class TestResolveInside:
    def test_in_session_path_is_accepted(self, session):
        target = workspace.resolve_inside(session, "artifacts/x/../y.json")
        assert target == session.root.resolve() / "artifacts" / "y.json"
        workspace.write_artifact(session, "artifacts/y.json", {"ok": True})
        assert workspace.read_artifact(session, "artifacts/y.json") == {"ok": True}

    def test_parent_traversal_is_refused(self, session):
        with pytest.raises(workspace.PathEscapeError):
            workspace.resolve_inside(session, "../x")
        with pytest.raises(workspace.PathEscapeError):
            workspace.write_artifact(session, "artifacts/../../x.json", {})

    def test_absolute_path_is_refused(self, session, tmp_path):
        with pytest.raises(workspace.PathEscapeError):
            workspace.resolve_inside(session, tmp_path / "outside.json")

    def test_symlink_out_of_the_session_is_refused(self, session, tmp_path):
        outside = tmp_path / "outside"
        outside.mkdir()
        (session.root / "link").symlink_to(outside, target_is_directory=True)
        with pytest.raises(workspace.PathEscapeError):
            workspace.write_text_artifact(session, "link/x.txt", "escaped")
        assert not (outside / "x.txt").exists()

    def test_root_is_resolved_once_per_session(self, session, monkeypatch):
        path_type = type(session.root)
        real_resolve = path_type.resolve
        resolved = []

        def counting_resolve(self, strict=False):
            resolved.append(self)
            return real_resolve(self, strict)

        monkeypatch.setattr(path_type, "resolve", counting_resolve)
        for n in range(3):
            workspace.write_artifact(session, f"artifacts/{n}.json", {})
        # One resolution per candidate path; none for the root.
        assert len(resolved) == 3
