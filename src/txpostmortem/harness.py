"""Exploit reproduction harness: scaffold, run, and read back test projects.

The harness turns a reproducer's file map into a Foundry project pinned to
the oracle definition's fork block, runs it through an injectable runner
(real ``forge`` subprocess or a simulated transcript player), and parses the
output into the run result plus named runtime observations.  The run result
is the ``run_result.json`` document the session writes, with no class
mirroring its fields.
"""

from __future__ import annotations

import logging
import os
import re
import shutil
import signal
import subprocess
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import Any, Iterable, Mapping, Optional, Protocol

from . import workspace

logger = logging.getLogger(__name__)

#: Run command recorded in every project README and PoC report; consumers
#: substitute their own archival endpoint.
RUN_COMMAND_TEMPLATE = "RPC_URL=<your-archival-endpoint> forge test -vvv"

TEST_FILE = "test/Exploit.sol"
CONFIG_FILE = "foundry.toml"
README_FILE = "README.md"

#: Top-level project directories holding dependencies and build output,
#: never the project's own sources.
BUILD_DIRS = ("lib", "out", "cache")

#: Seconds one ``forge test`` run may take before it counts as failed.
RUN_TIMEOUT_S = 900.0

DEFAULT_FOUNDRY_TOML = """\
[profile.default]
src = "src"
test = "test"
libs = ["lib"]
evm_version = "cancun"
"""


class HarnessError(Exception):
    pass


class ScaffoldError(HarnessError):
    pass


@dataclass(frozen=True)
class PoCProject:
    """A scaffolded exploit test project rooted inside a session: its
    root, and whether the test pins a fork block (``scaffold_project`` has
    checked that block against the definition's)."""

    root: Path
    fork_pinned: bool


#: A literal block in the fork call wins; else the ``FORK_BLOCK`` constant.
_FORK_BLOCK_PATTERNS = (
    re.compile(r"createSelectFork\s*\((?:[^,()]|\([^()]*\))*,\s*([0-9_]+)\s*\)"),
    re.compile(r"rollFork\s*\(\s*([0-9_]+)\s*\)"),
    re.compile(r"\bFORK_BLOCK\s*=\s*([0-9_]+)"),
)


#: A comment, or a string literal, which may hold ``//`` or ``/*``: the one
#: rule for what a comment is in every check on project sources.
_COMMENT_OR_STRING = re.compile(
    r"//[^\n]*|/\*.*?(?:\*/|\Z)|\"(?:\\.|[^\"\\\n])*\"|'(?:\\.|[^'\\\n])*'", re.DOTALL
)


def code_of(source: str) -> str:
    """``source`` with each comment blanked to a space and its line breaks,
    so every line keeps its number; string literals stay as they are."""
    return _COMMENT_OR_STRING.sub(
        lambda m: m[0] if m[0][0] in "\"'" else " " + "\n" * (len(m[0].splitlines()) - 1),
        source,
    )


def detect_fork_block(test_source: str) -> Optional[int]:
    """Find the pinned fork block in test source, if any.  A pin inside a
    comment or a string literal does not count."""
    code = _COMMENT_OR_STRING.sub('""', code_of(test_source))
    for pattern in _FORK_BLOCK_PATTERNS:
        match = pattern.search(code)
        if match:
            return int(match.group(1).replace("_", ""))
    return None


def project_readme(definition: Mapping[str, Any]) -> str:
    return (
        "# Exploit reproduction\n\n"
        f"Fork-pinned Foundry test for chain {definition['chainid']} at block "
        f"{definition['fork_block']}.\n\n"
        "Run with an archival RPC endpoint for the incident chain:\n\n"
        "```sh\n"
        f"{RUN_COMMAND_TEMPLATE}\n"
        "```\n\n"
        "Success criteria:\n\n"
        f"{definition['success_criteria']}\n"
    )


def scaffold_project(
    session: workspace.Session,
    files: Mapping[str, str],
    definition: Mapping[str, Any],
) -> PoCProject:
    """Write the reproducer's files under ``forge_poc/`` and sanity-check them.

    The project must contain exactly one exploit test at ``test/Exploit.sol``;
    a missing ``foundry.toml`` gets a default, and the README with the run
    command template is always (re)generated.  A fork block pinned in the
    test must equal the oracle definition's fork block.  Every name must be
    a relative file path in canonical form (no ``.``, ``..`` or empty part,
    no trailing ``/``), and none may lie under another staged name,
    ``CONFIG_FILE`` and ``README_FILE`` included.  No file may lie under
    ``BUILD_DIRS``, where the source scan, the evaluator and the dataset
    export do not look.  A name the file system refuses (a NUL byte, a
    component too long) raises ``ScaffoldError`` too.

    Each attempt gets a fresh project: whatever an earlier attempt left
    under ``forge_poc/`` is deleted first, except ``BUILD_DIRS``.
    """
    if TEST_FILE not in files:
        raise ScaffoldError(f"project must include {TEST_FILE}")
    extra_tests = [
        name
        for name in files
        if name.startswith("test/") and name.endswith(".sol") and name != TEST_FILE
    ]
    if extra_tests:
        raise ScaffoldError(
            f"project must contain exactly one exploit test; extra: {sorted(extra_tests)}"
        )
    staged = dict(files)
    staged.setdefault(CONFIG_FILE, DEFAULT_FOUNDRY_TOML)
    staged[README_FILE] = project_readme(definition)
    for name in staged:
        path = PurePosixPath(name)
        if name == "." or path.as_posix() != name or path.is_absolute() or ".." in path.parts:
            raise ScaffoldError(f"project path not in canonical relative form: {name!r}")
        if path.parts[0] in BUILD_DIRS:
            raise ScaffoldError(f"project file in a build directory: {name}")
        for parent in path.parents[:-1]:
            if parent.as_posix() in staged:
                raise ScaffoldError(f"project file {name} lies under the file {parent}")

    pinned = detect_fork_block(files[TEST_FILE])
    if pinned is not None and pinned != definition["fork_block"]:
        raise ScaffoldError(
            f"test pins fork block {pinned} but the oracle definition says "
            f"{definition['fork_block']}"
        )

    root = session.root / workspace.FORGE_PROJECT_DIR
    if root.is_dir():
        for entry in root.iterdir():
            if entry.name in BUILD_DIRS:
                continue
            if entry.is_dir() and not entry.is_symlink():
                shutil.rmtree(entry)
            else:
                entry.unlink()
    for name, content in staged.items():
        try:
            workspace.write_text_artifact(
                session, f"{workspace.FORGE_PROJECT_DIR}/{name}", content
            )
        except (OSError, ValueError) as exc:
            raise ScaffoldError(f"project file {name} cannot be written: {exc}") from exc
    return PoCProject(root=root, fork_pinned=pinned is not None)


class ProjectRunner(Protocol):
    def run(self, project: PoCProject, rpc_url: Optional[str] = None) -> str:
        """Execute the project's tests and return raw combined output."""
        ...


class SubprocessRunner:
    """Runs ``forge test -vvv`` in the project directory, as its own process
    group: a run that outlasts ``RUN_TIMEOUT_S`` has the whole group killed
    and reaped, so no process it started keeps running."""

    def __init__(self, forge_bin: str = "forge"):
        self.forge_bin = forge_bin

    def run(self, project: PoCProject, rpc_url: Optional[str] = None) -> str:
        env = dict(os.environ)
        if rpc_url:
            env["RPC_URL"] = rpc_url
        try:
            process = subprocess.Popen(
                [self.forge_bin, "test", "-vvv"],
                cwd=project.root,
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                start_new_session=True,
            )
        except FileNotFoundError as exc:
            raise HarnessError(f"runner binary not found: {self.forge_bin}") from exc
        with process:
            try:
                stdout, stderr = process.communicate(timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired as exc:
                os.killpg(process.pid, signal.SIGKILL)
                process.communicate()
                raise HarnessError(f"test run timed out after {RUN_TIMEOUT_S}s") from exc
        return stdout + stderr


class SimulatedRunner:
    """Replays canned run transcripts, one per run in launch order; used for
    offline scripted sessions."""

    def __init__(self, queue: list[str] | None = None):
        self.queue = list(queue or [])

    def run(self, project: PoCProject, rpc_url: Optional[str] = None) -> str:
        if self.queue:
            return self.queue.pop(0)
        raise HarnessError("no transcript left for this run")


_TEST_LINE = re.compile(r"\[(PASS|FAIL[^\]]*)\]\s+([A-Za-z_][A-Za-z0-9_]*)\s*\(")
_DURATION = re.compile(r"finished in\s+([0-9.]+)\s*(ms|s)\b")
_COMPILE_FAIL = re.compile(r"Compiler run failed|^Error\s*[:(]", re.MULTILINE)


def parse_run_output(raw: str, fork_pinned: bool) -> dict[str, Any]:
    """Parse forge-style output into the ``run_result.json`` document;
    never raises, garbage parses as not-compiled."""
    compiled = False
    if not _COMPILE_FAIL.search(raw):
        compiled = bool(
            re.search(r"Compiler run successful|\[(PASS|FAIL)|Suite result", raw)
        )
    tests = []
    for status, name in _TEST_LINE.findall(raw):
        passed = status == "PASS"
        reverted = (not passed) and "revert" in status.lower()
        reason = "" if passed else status[len("FAIL") :].strip(".:, ")
        tests.append({"name": name, "passed": passed, "reverted": reverted, "reason": reason})
    duration = None
    match = _DURATION.search(raw)
    if match:
        duration = float(match.group(1)) / (1000.0 if match.group(2) == "ms" else 1.0)
    return {
        "compiled": compiled,
        "tests": tests,
        "fork_pinned": fork_pinned,
        "duration_seconds": duration,
    }


def correctness_checks(result: Mapping[str, Any]) -> dict[str, bool]:
    """The three execution-level checks a ``parse_run_output`` document must
    clear, as the ``rubric.correctness`` mapping: the project compiles,
    every test passes, and the test pins the fork block."""
    return {
        "compiles": result["compiled"],
        "runs_clean": result["compiled"]
        and bool(result["tests"])
        and all(t["passed"] for t in result["tests"]),
        "pinned_fork": result["fork_pinned"],
    }


# --------------------------------------------------------------------------
# Observation protocol: the test logs `OBS <name>=<value>` per oracle input.

_OBS_LINE = re.compile(
    r"^\s*OBS\s+([A-Za-z_][A-Za-z0-9_]*)=(-?\d+|0x[0-9a-fA-F]{40}|true|false)\s*$",
    re.MULTILINE,
)


@dataclass(frozen=True)
class ObservationReport:
    observations: dict[str, int | bool | str]
    missing: tuple[str, ...]
    warnings: tuple[str, ...] = ()


def extract_observations(raw_output: str, expected: list[str]) -> ObservationReport:
    """Collect OBS lines; duplicates keep the last value with a warning."""
    observations: dict[str, int | bool | str] = {}
    warnings: list[str] = []
    for name, token in _OBS_LINE.findall(raw_output):
        if name in observations:
            warnings.append(f"duplicate observation {name}; keeping the last value")
        if token in ("true", "false"):
            observations[name] = token == "true"
        elif token.startswith("0x"):
            observations[name] = token.lower()
        else:
            observations[name] = int(token)
    missing = tuple(name for name in expected if name not in observations)
    return ObservationReport(
        observations=observations, missing=missing, warnings=tuple(warnings)
    )


def solidity_sources(project_root: Path) -> list[tuple[str, str]]:
    """The project's own ``.sol`` files as (relative path, text), skipping
    everything under ``BUILD_DIRS``."""
    sources = []
    for path in sorted(project_root.rglob("*.sol")):
        rel = path.relative_to(project_root)
        if rel.parts[0] in BUILD_DIRS:
            continue
        try:
            sources.append((str(rel), path.read_text(encoding="utf-8")))
        except (UnicodeDecodeError, OSError):
            continue
    return sources


#: A number literal written with ``_`` separators, in a lowercased line; a
#: digit run inside an identifier (``v_1_0``, ``_1_0``) is not one.
_SEPARATED_NUMBER = re.compile(r"(?<![\w$])(?:0x[0-9a-f]+(?:_+[0-9a-f]+)+|[0-9]+(?:_+[0-9]+)+)")


def _join_separated_numbers(line: str) -> str:
    """``line`` with the ``_`` separators taken out of its number literals."""
    if "_" not in line:
        return line
    return _SEPARATED_NUMBER.sub(lambda match: match.group().replace("_", ""), line)


def scan_for_addresses(
    sources: list[tuple[str, str]], needles: Iterable[str]
) -> list[tuple[str, str, int]]:
    """Find needles (addresses or other literals) in the code of sources
    (``code_of``), ignoring case and the ``_`` separators of number
    literals.  An address also hits, as a whole literal, in its decimal
    ``uint160`` form, in hex with its leading zeros dropped and as
    ``hex"<its 40 digits>"`` or ``hex'<its 40 digits>'``.  An address built
    at run time is not found.

    Returns one (file, needle, line) per occurrence, in file, line and
    column order; needles are reported lowercased.
    """
    forms = {n: n for n in {n.lower() for n in needles if n}}
    for needle in [n for n in forms if re.fullmatch("0x[0-9a-f]{40}", n)]:
        digits = needle[2:]
        for form in (
            str(int(digits, 16)),
            "0x" + (digits.lstrip("0") or "0"),
            f'hex"{digits}"',
            f"hex'{digits}'",
        ):
            forms.setdefault(form, needle)
    if not forms:
        return []
    # A whole-literal form checks its left edge after its first character, so
    # each alternative starts with a literal, which the regex engine skips to.
    pattern = re.compile("|".join(
        re.escape(f) if forms[f] == f else rf"{f[0]}(?<!\w.){re.escape(f[1:])}(?!\w)"
        for f in sorted(forms, key=len, reverse=True)
    ))
    return [
        (rel, forms[match.group()], line_no)
        for rel, text in sources
        for line_no, line in enumerate(code_of(text).splitlines(), 1)
        for match in pattern.finditer(_join_separated_numbers(line.lower()))
    ]
