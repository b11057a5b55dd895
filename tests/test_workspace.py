"""The session path guard: every artifact read and write stays inside the
session directory; concurrent sessions each claim a directory of their own;
every file the program writes is written whole, and every JSON file it reads
back fails as one ``WorkspaceError``."""

from __future__ import annotations

import json
import os
import stat
import sys
import threading
from datetime import datetime, timezone
from pathlib import Path

import pytest

from txpostmortem import cli, monitor, workspace
from txpostmortem.domain import SeedRef
from txpostmortem.gateway import DataRequest, FixtureStore, MissingFixture

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


class _HomeChain:
    """Finds every transaction on chain 1 only."""

    def fetch(self, request: DataRequest) -> dict:
        if request.chainid != 1:
            raise MissingFixture(request.target)
        return {"txhash": request.target, "chainid": 1}


def _write_session_artifact(root: Path) -> Path:
    session = workspace.open_session(root / "sessions" / "s0")
    return workspace.write_artifact(session, "artifacts/doc.json", {"n": 1})


def _write_queue_seed(root: Path) -> Path:
    post = monitor.Post(
        source_id="post-0",
        author="watcher",
        timestamp=datetime(2025, 1, 1, tzinfo=timezone.utc),
        text=f"Exploit alert: drain in {TX}",
    )
    outcome = monitor.run_monitor([post], _HomeChain(), root / "queue", chains=(1,))
    return outcome.enqueued[0]


def _write_fixture(root: Path) -> Path:
    request = DataRequest(kind="tx_metadata", chainid=1, target=TX)
    return FixtureStore(root / "fixtures").save(request, {"n": 1})


def _write_export_index(root: Path) -> Path:
    cli.export_dataset(root / "sessions", root / "dataset")
    return root / "dataset" / "index.json"


@pytest.mark.parametrize(
    "write",
    [_write_session_artifact, _write_queue_seed, _write_fixture, _write_export_index],
    ids=["session-artifact", "queue-seed", "fixture", "export-file"],
)
class TestWholeWrites:
    """A write that fails at the rename leaves the target as it was, or
    absent, and no temp file; a write that completes has the mode that
    ``open()`` gives a new file."""

    @pytest.fixture
    def root(self, tmp_path: Path) -> Path:
        """A session ``sessions/s0`` that the dataset export takes as validated."""
        session = workspace.create_session(tmp_path / "sessions", SeedRef.from_strings(1, [TX]))
        session.root.rename(tmp_path / "sessions" / "s0")
        (tmp_path / "sessions" / "s0" / workspace.SESSION_SUMMARY).write_text("{}")
        attempt = tmp_path / "sessions" / "s0" / workspace.REPRODUCER_DIR / "iter_0"
        attempt.mkdir(parents=True)
        (attempt / workspace.ENGINE_VERDICT).write_text("{}")
        (attempt / workspace.POC_VALIDATION).write_text('{"overall_status": "Pass"}')
        return tmp_path

    @staticmethod
    def _refuse_rename(monkeypatch: pytest.MonkeyPatch) -> None:
        def refused(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refused)

    @staticmethod
    def _temp_files(root: Path) -> list[Path]:
        return list(root.rglob("*.tmp"))

    def test_a_failed_write_adds_no_file(self, write, root, monkeypatch):
        def files() -> list[Path]:
            return sorted(p for p in root.rglob("*") if p.is_file())

        before = files()
        self._refuse_rename(monkeypatch)
        with pytest.raises(OSError, match="rename refused"):
            write(root)
        assert files() == before

    def test_a_failed_write_keeps_the_previous_bytes(self, write, root, monkeypatch):
        target = write(root)
        target.write_bytes(b"previous")
        self._refuse_rename(monkeypatch)
        with pytest.raises(OSError, match="rename refused"):
            write(root)
        assert target.read_bytes() == b"previous"
        assert self._temp_files(root) == []

    def test_a_completed_write_has_the_open_mode(self, write, root):
        probe = root / "probe"
        probe.write_text("")
        target = write(root)
        assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(probe.stat().st_mode)
        json.loads(target.read_text(encoding="utf-8"))
        assert self._temp_files(root) == []


class TestWriteFile:
    def test_a_taken_temporary_name_is_never_written_through(self, tmp_path, monkeypatch):
        """The temporary file is made new: a link already at its name fails
        the write and is neither followed nor moved onto the target."""
        outside = tmp_path / "outside.txt"
        outside.write_text("untouched")
        target = tmp_path / "target.json"
        monkeypatch.setattr(os, "urandom", bytes)
        target.with_name(f".{target.name}.{bytes(8).hex()}.tmp").symlink_to(outside)
        with pytest.raises(FileExistsError):
            workspace.write_file(target, "{}")
        assert outside.read_text() == "untouched"
        assert not target.exists()


class TestReadJson:
    def test_a_missing_file_is_not_found(self, tmp_path):
        with pytest.raises(workspace.ArtifactNotFound, match="absent.json"):
            workspace.read_json(tmp_path / "absent.json")

    @pytest.mark.parametrize("text", ['{"n": ', "", "\udcff"], ids=["truncated", "empty", "not-utf8"])
    def test_an_undecodable_file_is_corrupt(self, tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8", errors="surrogateescape")
        with pytest.raises(workspace.CorruptArtifact, match="doc.json"):
            workspace.read_json(path)


class TestIterationDirs:
    def test_lists_iteration_directories_in_numeric_order(self, session):
        for k in (0, 1, 2, 10):
            (session.root / "stage" / f"iter_{k}").mkdir(parents=True)
        (session.root / "stage" / "iter_x").mkdir()
        (session.root / "stage" / "iter_3").write_text("")
        assert [k for k, _ in workspace.iteration_dirs(session.root, "stage")] == [0, 1, 2, 10]
        assert workspace.next_iteration_dir(session, "stage").name == "iter_11"

    def test_a_missing_parent_has_none(self, session):
        assert workspace.iteration_dirs(session.root, "absent") == []
        assert workspace.next_iteration_dir(session, "absent").name == "iter_0"
