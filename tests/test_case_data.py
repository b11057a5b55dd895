"""The committed case trees and the package data that ships them.

No code regenerates a case's fixtures, scripts, transcripts or
``expected.json`` any more, so these tests keep the data consistent: each
fixture sits under the key its recorded request hashes to and in the bytes
``FixtureStore.save`` writes, scripts and transcripts are numbered the way
their loaders read them, and ``expected.json`` agrees with the constants the
monitor, lifecycle and session tests use and with the observations its last
transcript prints.  A last test checks that every data file of the package
is listed in ``pyproject.toml``'s package data, so an installed package
carries its cases."""

from __future__ import annotations

import fnmatch
import json
import re
from pathlib import Path

import pytest

from txpostmortem import harness, scenarios
from txpostmortem.agents import ROLES
from txpostmortem.gateway import DataRequest, FixtureStore, fixture_key

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "txpostmortem"

_SCRIPT_FILE = re.compile(r"^(?P<role>[a-z_]+)_(?P<index>\d+)\.json$")
_TRANSCRIPT_FILE = re.compile(r"^run_(?P<index>\d+)\.txt$")

#: What each case's ``expected.json`` must say, from the module constants.
_CONSTANTS = {
    "prxvt": {
        "chainid": scenarios.PRXVT_CHAIN,
        "seed": scenarios.PRXVT_SEED,
        "fork_block": scenarios.PRXVT_FORK_BLOCK,
        "oracle_ids": list(scenarios.PRXVT_ORACLE_IDS),
        "lifecycle_hashes": [h for h, _ in scenarios.PRXVT_LIFECYCLE],
        "lifecycle_phases": dict(scenarios.PRXVT_LIFECYCLE),
    },
    "valinity": {
        "chainid": scenarios.VAL_CHAIN,
        "seed": scenarios.VAL_SEED,
        "fork_block": scenarios.VAL_FORK_BLOCK,
        "oracle_ids": list(scenarios.VAL_ORACLE_IDS),
    },
}


def _dense(indices: list[int]) -> bool:
    return sorted(indices) == list(range(len(indices)))


def test_one_tree_per_case():
    trees = sorted(p.name for p in scenarios.CASES_DIR.iterdir())
    assert trees == sorted(scenarios.CASE_BUILDERS) == sorted(_CONSTANTS)


@pytest.mark.parametrize("case", sorted(scenarios.CASE_BUILDERS))
class TestCaseTree:
    def test_only_case_files(self, case):
        root = scenarios.CASES_DIR / case
        layout = {
            p.relative_to(root).parent.as_posix() + "/*" + p.suffix
            for p in root.rglob("*")
            if p.is_file() and p.name != "expected.json"
        }
        assert layout <= {"fixtures/*.json", "script/*.json", "transcripts/*.txt"}
        assert (root / "expected.json").is_file()

    def test_fixtures_sit_under_their_request_key(self, case, tmp_path):
        paths = sorted((scenarios.CASES_DIR / case / "fixtures").glob("*.json"))
        assert paths
        store = FixtureStore(tmp_path)
        for path in paths:
            doc = json.loads(path.read_text(encoding="utf-8"))
            request = DataRequest.from_doc(doc["request"])
            assert path.stem == fixture_key(request), path.name
            saved = store.save(request, doc["payload"])
            assert saved.read_bytes() == path.read_bytes(), path.name

    def test_scripts_are_numbered_densely_per_role(self, case):
        indices: dict[str, list[int]] = {}
        for path in (scenarios.CASES_DIR / case / "script").iterdir():
            match = _SCRIPT_FILE.match(path.name)
            assert match, path.name
            indices.setdefault(match["role"], []).append(int(match["index"]))
        assert indices
        assert set(indices) <= set(ROLES)
        for role, found in indices.items():
            assert _dense(found), (role, sorted(found))

    def test_transcripts_are_numbered_densely(self, case):
        names = [p.name for p in (scenarios.CASES_DIR / case / "transcripts").iterdir()]
        matches = [_TRANSCRIPT_FILE.match(name) for name in names]
        assert names and all(matches), names
        assert _dense([int(m["index"]) for m in matches]), sorted(names)

    def test_expected_agrees_with_the_constants(self, case):
        path = scenarios.CASES_DIR / case / "expected.json"
        expected = json.loads(path.read_text(encoding="utf-8"))
        for key, want in _CONSTANTS[case].items():
            assert expected[key] == want, key

    def test_the_last_transcript_shows_the_expected_observations(self, case):
        """The case's last run transcript, the run that passed, yields
        exactly the golden ``observations``, none missing and none repeated,
        and prints every golden ``forge_log_lines`` entry.  ``profit`` is
        left unread until a structured ACT profit is checked in integer
        wei (ROADMAP item 12)."""
        root = scenarios.CASES_DIR / case
        expected = json.loads((root / "expected.json").read_text(encoding="utf-8"))
        transcript = scenarios.load_numbered([root / "transcripts"], ".txt")["run"][-1]
        report = harness.extract_observations(transcript, list(expected["observations"]))
        assert (report.missing, report.warnings) == ((), ())
        # The golden writes integers as decimal strings.
        found = {
            name: str(value) if type(value) is int else value
            for name, value in report.observations.items()
        }
        assert found == expected["observations"]
        for line in expected.get("forge_log_lines", []):
            assert line in transcript, line


def _matches(relpath: str, pattern: str) -> bool:
    """Whether a setuptools package-data glob names ``relpath``; ``*`` never
    crosses a directory."""
    parts, globs = relpath.split("/"), pattern.split("/")
    return len(parts) == len(globs) and all(
        fnmatch.fnmatchcase(part, glob) for part, glob in zip(parts, globs)
    )


def test_every_data_file_is_package_data():
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((REPO / "pyproject.toml").read_text(encoding="utf-8"))
    patterns = config["tool"]["setuptools"]["package-data"]["txpostmortem"]
    files = [
        p.relative_to(PACKAGE).as_posix()
        for top in ("data", "templates")
        for p in (PACKAGE / top).rglob("*")
        if p.is_file() and "__pycache__" not in p.parts
    ]
    assert len(files) > 60
    unshipped = [f for f in files if not any(_matches(f, g) for g in patterns)]
    assert unshipped == []
