"""The session path guard: every artifact read and write stays inside the
session directory, and the walk below the root agrees with a full resolve;
concurrent sessions each claim a directory of their own; every file the
program writes is written whole, its directories made by the first write
that needs them; ``dump_compact`` writes compact JSON that reads back as the
document; and every JSON file it reads back fails as one ``WorkspaceError``."""

from __future__ import annotations

import gc
import json
import os
import stat
import sys
import threading
from datetime import datetime, timezone
from pathlib import Path

import pytest
from conftest import VALIDATED_SESSION_DOCS
from hypothesis import given
from hypothesis import strategies as st

from txpostmortem import cli, monitor, scenarios, workspace
from txpostmortem.domain import SeedRef
from txpostmortem.gateway import DataRequest, FixtureStore, MissingFixture
from txpostmortem.orchestrator import Orchestrator

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
        reopened = workspace.open_session(session.root)
        for n in range(3):
            workspace.write_artifact(reopened, f"artifacts/{n}.json", {})
        # The root once, for the session handle; an in-session path without
        # links not at all.
        assert resolved == [session.root]


def _reference_resolve_inside(session: workspace.Session, relpath) -> Path:
    """``resolve_inside`` as a full resolve of every path: the result its
    walk must agree with."""
    root = session.root.resolve()
    candidate = (root / relpath).resolve()
    if candidate != root and root not in candidate.parents:
        raise workspace.PathEscapeError(f"path escapes session root: {relpath}")
    return candidate


def _resolved_or_refused(resolve, session, relpath):
    try:
        return resolve(session, relpath)
    except workspace.PathEscapeError:
        return "refused"


@pytest.fixture(scope="module")
def linked_session(tmp_path_factory):
    """A session whose tree holds, under the names the paths below use, a
    link to a directory inside it (``a/a/a``), a link out of it
    (``a/x.json``), a dangling link (``a/a/x.json``) and a file where a
    path may expect a directory (``x.json``)."""
    base = tmp_path_factory.mktemp("linked")
    outside = base / "outside"
    outside.mkdir()
    session = workspace.create_session(base / "sessions", SeedRef.from_strings(1, [TX]))
    root = session.root
    (root / "a" / "a").mkdir(parents=True)
    (root / "a" / "a" / "a").symlink_to("..", target_is_directory=True)
    (root / "a" / "x.json").symlink_to(outside, target_is_directory=True)
    (root / "a" / "a" / "x.json").symlink_to(root / "absent")
    (root / "x.json").write_text("{}")
    return session


_PARTS = st.sampled_from(["a", "x.json", ".", "..", ""])


class TestResolveInsideWalk:
    """The walk below the root gives what a full resolve gives: the same
    path, or the same refusal."""

    @pytest.mark.parametrize(
        "relpath",
        ["", ".", "a", "a/a/x.json", "x.json/a", "a/a/a/a", "a/x.json", "a/x.json/x.json",
         "a/a/a/x.json", "a/..", "a/a/..", "..", "a/../..", "/x.json", "{root}/a/a"],
        ids=["empty", "dot", "plain", "dangling-link", "file-as-directory", "link-inside",
             "link-outside", "below-link-outside", "link-then-link-outside", "dot-dot-back",
             "dot-dot-inside", "dot-dot-out", "dot-dot-past-root", "absolute-outside",
             "absolute-inside"],
    )
    def test_agrees_with_a_full_resolve(self, linked_session, relpath):
        relpath = relpath.format(root=linked_session.root)
        assert _resolved_or_refused(workspace.resolve_inside, linked_session, relpath) == (
            _resolved_or_refused(_reference_resolve_inside, linked_session, relpath)
        )

    @given(
        parts=st.lists(_PARTS, max_size=6),
        absolute=st.booleans(),
        as_path=st.booleans(),
    )
    def test_agrees_with_a_full_resolve_on_any_path(self, linked_session, parts, absolute,
                                                      as_path):
        relpath = "/".join(parts)
        if absolute:
            relpath = f"{linked_session.root}/{relpath}"
        if as_path:
            relpath = Path(relpath)
        assert _resolved_or_refused(workspace.resolve_inside, linked_session, relpath) == (
            _resolved_or_refused(_reference_resolve_inside, linked_session, relpath)
        )

    @pytest.mark.parametrize("name", sorted(scenarios.CASE_BUILDERS))
    def test_a_bundled_session_resolves_only_its_root(self, name, tmp_path, monkeypatch):
        """One ``realpath`` walk per session, its root's, and no ``mkdir``
        of a directory that is already there."""
        bundle = scenarios.open_case(name)
        (tmp_path / "sessions").mkdir()
        walks, taken = [], []
        realpath, mkdir = os.path.realpath, os.mkdir

        def counting_realpath(path, *args, **kwargs):
            walks.append(os.fspath(path))
            return realpath(path, *args, **kwargs)

        def counting_mkdir(path, *args, **kwargs):
            try:
                return mkdir(path, *args, **kwargs)
            except FileExistsError:
                taken.append(path)
                raise

        monkeypatch.setattr(os.path, "realpath", counting_realpath)
        monkeypatch.setattr(os, "mkdir", counting_mkdir)
        orch = Orchestrator(bundle.backend(), bundle.adapter(), bundle.runner(), clock=lambda: 0.0)
        outcome = orch.run_postmortem(bundle.seed(), str(tmp_path / "sessions"))
        assert outcome.stage == "done"
        assert walks == [str(outcome.session.root)]
        assert taken == []


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
        for rel, text in VALIDATED_SESSION_DOCS.items():
            path = tmp_path / "sessions" / "s0" / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
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

    def test_directories_are_made_by_the_first_write_that_needs_them(
        self, tmp_path, monkeypatch
    ):
        made = []
        mkdir = os.mkdir

        def recording_mkdir(path, *args, **kwargs):
            made.append(os.fspath(path))
            return mkdir(path, *args, **kwargs)

        monkeypatch.setattr(os, "mkdir", recording_mkdir)
        for name in ("x.json", "y.json"):
            workspace.write_file(tmp_path / "a" / "b" / name, name)
        assert made == [str(tmp_path / "a"), str(tmp_path / "a" / "b")]
        assert sorted(p.name for p in (tmp_path / "a" / "b").iterdir()) == ["x.json", "y.json"]
        assert (tmp_path / "a" / "b" / "y.json").read_text() == "y.json"


class TestDumpJson:
    """``dump_compact`` writes compact JSON, non-ASCII kept, that reads back as
    the document; it refuses what ``json`` refuses and leaves no reference
    cycle."""

    @pytest.mark.parametrize(
        "doc",
        [
            {"é": "ü\u2028\x00\x1f\"\\/", "日本": ["\ud7ff", "\U0001f600"]},
            {"empty": [[], {}, ()], "nested": {"a": {}, "b": [[]]}},
            [],
            {},
            (),
            [float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 5e-324, 0.1],
            [2**100, -(2**70), 0, True, False, None],
            {1: "int", 2.5: "float", True: "bool", None: "none", float("nan"): "nan"},
            ("tuple", ("inside",)),
            "top-level string",
            7,
        ],
        ids=["non-ascii-and-control", "empty-containers", "empty-list", "empty-object",
             "empty-tuple", "floats", "ints-and-constants", "non-string-keys", "tuples",
             "string", "int"],
    )
    def test_matches_json_dumps(self, doc):
        """The text is the compact form of its own parse, and that parse is
        the document as ``json.dumps`` writes it."""
        text = workspace.dump_compact(doc)
        parsed = json.loads(text)
        assert text == json.dumps(parsed, ensure_ascii=False, separators=(",", ":")) + "\n"
        assert json.dumps(parsed) == json.dumps(doc)

    def test_non_ascii_is_written_as_itself(self):
        doc = {"é": "é"}
        text = workspace.dump_compact(doc)
        assert text == '{"é":"é"}\n'
        assert json.loads(text) == doc

    @pytest.mark.parametrize(
        "doc",
        [{1, 2}, b"bytes", {"nested": [frozenset()]}, {(1, 2): "tuple key"}, object()],
        ids=["set", "bytes", "nested-set", "tuple-key", "object"],
    )
    def test_what_json_refuses_is_a_type_error(self, doc):
        with pytest.raises(TypeError):
            workspace.dump_compact(doc)

    def test_a_circular_document_is_a_value_error(self):
        circular_list: list = [1]
        circular_list.append({"back": circular_list})
        circular_dict: dict = {}
        circular_dict["self"] = [circular_dict]
        for doc in (circular_list, circular_dict):
            with pytest.raises(ValueError, match="Circular reference"):
                workspace.dump_compact(doc)

    def test_a_shared_subdocument_is_not_circular(self):
        shared = {"k": [1]}
        doc = [shared, shared, {"again": shared}]
        assert json.loads(workspace.dump_compact(doc)) == doc

    def test_leaves_no_reference_cycle(self, prxvt_run):
        doc = json.loads((prxvt_run.session_root / workspace.ROOT_CAUSE_DOC).read_text())
        gc.collect()
        gc.disable()
        try:
            for _ in range(50):
                workspace.dump_compact(doc)
            assert gc.collect() == 0
        finally:
            gc.enable()


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

    def test_a_document_that_breaks_its_schema_is_corrupt(self, tmp_path):
        path = tmp_path / "raw.json"
        path.write_text('{"targets": [{"chainid": "1"}]}', encoding="utf-8")
        assert workspace.read_json(path) == {"targets": [{"chainid": "1"}]}
        with pytest.raises(
            workspace.CorruptArtifact,
            match=r"raw\.json: fails the raw_input schema: "
            r"targets\[0\]\.chainid: expected integer; targets\[0\]\.txhash: required",
        ):
            workspace.read_json(path, "raw_input")
        with pytest.raises(workspace.UnknownSchema):
            workspace.read_json(path, "no_such_schema")


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
