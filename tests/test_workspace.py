"""The session path guard: every artifact read and write stays inside the
session directory; concurrent sessions each claim a directory of their own."""

from __future__ import annotations

import sys
import threading
from datetime import datetime, timezone

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


class TestCreateSession:
    NOW = datetime(2025, 1, 1, tzinfo=timezone.utc)

    def test_serial_sessions_bump_the_id(self, tmp_path):
        seed = SeedRef.from_strings(1, [TX])
        ids = [
            workspace.create_session(tmp_path, seed, now=self.NOW).session_id
            for _ in range(3)
        ]
        assert ids == ["20250101T000000Z_abababab" + suffix for suffix in ("", "-1", "-2")]

    def test_concurrent_sessions_never_share_a_directory(self, tmp_path):
        seed = SeedRef.from_strings(1, [TX])
        barrier = threading.Barrier(8, timeout=5)
        sessions = []

        def create():
            barrier.wait()
            sessions.append(workspace.create_session(tmp_path, seed, now=self.NOW))

        threads = [threading.Thread(target=create) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len({s.session_id for s in sessions}) == 8
        assert len({s.root for s in sessions}) == 8
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(s.session_id for s in sessions)
