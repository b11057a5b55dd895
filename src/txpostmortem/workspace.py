"""Session workspace: directory layout, file IO, document schemas.

A session is a directory rooted at ``<base>/<session_id>/`` holding the raw
seed input, per-role iteration artifacts, final reports, and the scaffolded
exploit project.

Every file the program writes (session artifacts, queue seeds, fixtures,
dataset exports) goes through ``write_file``: a temp file beside the target,
named ``.<name>.<random hex>.tmp`` with plain strings, renamed over the
target, so a killed run leaves the old file or the whole new one, with the
mode ``open()`` gives.  A directory is made by the first write that needs
it: the temp file is opened first, and only a missing parent makes the
directories and opens it again.  Every JSON file the program reads goes
through ``read_json``, which raises ``ArtifactNotFound`` for a missing file
and ``CorruptArtifact``, naming the file, for one that does not decode or,
given a schema id, breaks that schema.  JSON is written in two forms, both
with non-ASCII kept.  ``dump_compact`` is the one encoder for session
artifacts (``write_artifact``) and for the documents a model is sent, so a
model reads the bytes the session writes.  ``dump_indented``, indented with
sorted keys, is for the files people read: queue seeds, fixtures and
dataset exports.

Every artifact path goes through ``resolve_inside``.  A relative path with
no ``..`` part is checked by ``lstat`` on each of its components below the
session root, which was resolved once; when none is a link the path is
taken as written.  Any other path (absolute, with ``..``, or through a link)
is resolved in full and refused if it leaves the root.

File names on the hot paths are plain strings, built by ``os.path`` or
taken from ``os.DirEntry.path``: the fixture and case listings
(``files_in_chain``) and what reads them, queue seeds, temp files, the
artifact paths ``resolve_inside`` returns and the writers pass on, and the
``iter_k`` directories.  CPython's ``pathlib`` interns every component it
parses, and these names die with their store or session, so each new store
or session would intern them again, filling the interpreter's table of
interned strings until it is rebuilt at a larger size.  ``Session.root``
and the case directories stay ``Path`` objects, made once per session or
case.

Every schema lives in ``SCHEMAS``, and each document is checked against its
schema once in a session.  A model-written document (analysis, challenge,
root cause, oracle definition, reproducer project, validator verdict) is
checked when its role returns, by ``agents.roles.validate_role_output``,
and written as accepted.  The pipeline reads a role's document as that
checked document, with no class mirroring its fields; the oracle
definition is the generator's document with its default tolerances filled
in.  A document the program builds itself (raw input, sources, collection
summaries, engine verdicts, evaluation results, the session summary) is
checked as it is written, by ``write_artifact(schema_id=...)``.  The engine
verdict has its own ``engine_verdict`` schema, which fixes the rubric the
engine writes; the validator's ``poc_validation`` allows any rubric object.
A command that reads a finished session's documents back checks them again
against the same schemas (``read_json(path, schema_id)``), since the files
may have changed on disk.  ``SCHEMAS`` also holds the schemas of two
adapter payload kinds: ``tx_metadata``, which the live adapter checks on
each such document it builds, alone or as a lookup member, and
``tx_lookup``, a map of them.
"""

from __future__ import annotations

import json
import logging
import os
import re
import stat
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import Any, Mapping, Sequence

from .domain import DomainError, SeedRef

logger = logging.getLogger(__name__)


class WorkspaceError(Exception):
    pass


class SchemaError(WorkspaceError):
    """A document to be written fails its schema; ``errors`` lists field
    paths.  A document read back that fails raises ``CorruptArtifact``."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class PathEscapeError(WorkspaceError):
    pass


class ArtifactNotFound(WorkspaceError):
    pass


class CorruptArtifact(WorkspaceError):
    pass


class UnknownSchema(WorkspaceError):
    pass


# --------------------------------------------------------------------------
# Canonical relative paths inside a session directory.

RAW_INPUT = "raw.json"
SOURCES_META = "sources.json"
ROOT_CAUSE_DOC = "root_cause.json"
ROOT_CAUSE_REPORT = "root_cause_report.md"
POC_REPORT = "poc_report.md"
SESSION_SUMMARY = "session_summary.json"
SEED_DIR = "artifacts/root_cause/seed"
#: Best-effort evidence around the seed, fetched at bootstrap.
SEED_CONTEXT_DIR = "artifacts/root_cause/seed/context"
ROOT_CAUSE_STAGE_DIR = "artifacts/root_cause"
#: One ``iter_k`` per gateway collection run; ``iter_0`` is the seed fetch.
#: Each holds its summary and the payloads the session had not landed before.
COLLECTION_DIR = "artifacts/root_cause/data_collector"
#: One ``iter_k`` per reproduction attempt.
REPRODUCER_DIR = "artifacts/poc/poc_reproducer"
#: The engine's verdict on an attempt, in that attempt's ``iter_k``.
ENGINE_VERDICT = "engine_verdict.json"
#: The validator's verdict on an attempt, beside its engine verdict.
POC_VALIDATION = "poc_validation.json"
ORACLE_DEFINITION = "artifacts/poc/oracle_generator/oracle_definition.json"
EVALUATION_DIR = "artifacts/evaluation"
FORGE_PROJECT_DIR = "forge_poc"


# --------------------------------------------------------------------------
# Structural schema mini-language.
#
# A spec is one of:
#   "string" | "int" | "number" | "bool" | "array" | "object" | "any"
#   {"enum": [...]}                      closed set of scalar values
#   {"array_of": spec}                   homogeneous list
#   {"object": {"required": {...}, "optional": {...}}}
#   {"map_of": spec}                     object with arbitrary keys
#   {"nullable": spec}                   spec or null

_SCALARS = {
    "string": str,
    "bool": bool,
    "array": list,
    "object": dict,
}


def check_document(doc: Any, spec: Any, path: str = "") -> list[str]:
    """Return a list of human-readable errors; empty means the doc conforms."""
    where = path or "document"
    if spec == "any":
        return []
    if spec == "int":
        if isinstance(doc, bool) or not isinstance(doc, int):
            return [f"{where}: expected integer"]
        return []
    if spec == "number":
        if isinstance(doc, bool) or not isinstance(doc, (int, float)):
            return [f"{where}: expected number"]
        return []
    if isinstance(spec, str):
        want = _SCALARS.get(spec)
        if want is None:
            raise UnknownSchema(f"bad spec {spec!r} at {where}")
        if spec != "bool" and isinstance(doc, bool):
            return [f"{where}: expected {spec}"]
        if not isinstance(doc, want):
            return [f"{where}: expected {spec}"]
        return []
    if "nullable" in spec:
        if doc is None:
            return []
        return check_document(doc, spec["nullable"], path)
    if "enum" in spec:
        if doc not in spec["enum"]:
            return [f"{where}: expected one of {spec['enum']}, got {doc!r}"]
        return []
    if "array_of" in spec:
        if not isinstance(doc, list):
            return [f"{where}: expected array"]
        errors: list[str] = []
        for i, item in enumerate(doc):
            errors.extend(check_document(item, spec["array_of"], f"{path}[{i}]"))
        return errors
    if "map_of" in spec:
        if not isinstance(doc, dict):
            return [f"{where}: expected object"]
        errors = []
        for key, value in doc.items():
            errors.extend(check_document(value, spec["map_of"], f"{path}.{key}" if path else key))
        return errors
    if "object" in spec:
        if not isinstance(doc, dict):
            return [f"{where}: expected object"]
        errors = []
        required: Mapping[str, Any] = spec["object"].get("required", {})
        optional: Mapping[str, Any] = spec["object"].get("optional", {})
        for key, sub in required.items():
            sub_path = f"{path}.{key}" if path else key
            if key not in doc:
                errors.append(f"{sub_path}: required")
            else:
                errors.extend(check_document(doc[key], sub, sub_path))
        for key, sub in optional.items():
            if key in doc:
                sub_path = f"{path}.{key}" if path else key
                errors.extend(check_document(doc[key], sub, sub_path))
        return errors
    raise UnknownSchema(f"bad spec {spec!r} at {where}")


DATA_REQUEST_KINDS = [
    "tx_metadata",
    "tx_trace",
    "balance_diff",
    "state_diff",
    "receipt_logs",
    "txlist",
    "contract_meta",
    "storage_slot",
    "decompile",
    "other",
]

_DATA_REQUEST_SPEC = {
    "object": {
        "required": {
            "kind": {"enum": DATA_REQUEST_KINDS},
            "chainid": "int",
            "target": "string",
        },
        "optional": {
            "reason": "string",
            "block_lo": {"nullable": "int"},
            "block_hi": {"nullable": "int"},
            "extra": "object",
        },
    }
}

_EXPRESSION_SPEC = {
    "object": {
        "required": {
            "lhs": "string",
            "comparator": {"enum": ["eq", "gt", "lt", "ge", "le", "within_tolerance"]},
            "rhs": "string",
        }
    }
}

_TOLERANCE_SPEC = {
    "object": {
        "required": {
            "kind": {"enum": ["relative_bps", "absolute"]},
            "value": "int",
        },
        "optional": {"rationale": "string"},
    }
}

_CONSTRAINT_SPEC = {
    "object": {
        "required": {
            "id": "string",
            "check": _EXPRESSION_SPEC,
        },
        "optional": {
            "description": "string",
            "tolerance": _TOLERANCE_SPEC,
        },
    }
}

_ADDRESS_HIT_SPEC = {"object": {"required": {"file": "string", "address": "string", "line": "int"}}}

_LIFECYCLE_PHASES = ["funding", "setup", "exploit", "exit"]

_EVALUATION_ENTRY_SPEC = {
    "object": {
        "required": {
            "round": "int",
            "action": {"enum": ["Initial"]},
            "result": "bool",
            "reason": "string",
        }
    }
}


def _poc_verdict_spec(rubric: Any) -> dict[str, Any]:
    """A verdict on one reproduction attempt, whose rubric meets ``rubric``."""
    return {
        "object": {
            "required": {
                "overall_status": {"enum": ["Pass", "Reject"]},
                "oracle_results": {
                    "array_of": {
                        "object": {
                            "required": {"id": "string", "satisfied": "bool"},
                            "optional": {
                                "kind": "string",
                                "measured": "any",
                                "expected": "any",
                                "reason": "string",
                            },
                        }
                    }
                },
                "rubric": rubric,
            },
            "optional": {
                "reject_reasons": {"array_of": "string"},
                "pre_check_results": {"array_of": "object"},
            },
        }
    }


#: A ``tx_metadata`` payload as the live adapter builds it.
_TX_METADATA_SPEC = {
    "object": {
        "required": {
            "txhash": "string",
            "chainid": "int",
            "block_number": "int",
            "from": "string",
            "to": {"nullable": "string"},
            "value": "int",
            "nonce": "int",
            "gas_used": "int",
            "effective_gas_price": "int",
            "status": "int",
            "selector": {"nullable": "string"},
        }
    }
}


SCHEMAS: dict[str, Any] = {
    "raw_input": {
        "object": {
            "required": {
                "targets": {
                    "array_of": {
                        "object": {
                            "required": {"chainid": "int", "txhash": "string"},
                        }
                    }
                }
            }
        }
    },
    "sources": {"object": {"required": {"attributions": {"array_of": "string"}}}},
    "rpc_map": {"map_of": "string"},
    "analysis_result": {
        "object": {
            "required": {
                "summary": "string",
                "hypothesis": "string",
                "candidate_contracts": {"array_of": "string"},
                "candidate_roles": "object",
                "all_relevant_txs": {"array_of": "string"},
                "data_requests": {"array_of": _DATA_REQUEST_SPEC},
            },
            "optional": {
                "root_cause": "object",
            },
        }
    },
    "collection_summary": {
        "object": {
            "required": {
                "fetched": {
                    "array_of": {
                        "object": {
                            "required": {
                                "request": "object",
                                "files": {"array_of": "string"},
                            }
                        }
                    }
                },
                "failed": {
                    "array_of": {
                        "object": {
                            "required": {"request": "object", "error": "string"},
                        }
                    }
                },
            },
        }
    },
    "challenge_result": {
        "object": {
            "required": {
                "status": {"enum": ["Pass", "Reject"]},
                "feedback": "string",
                "missing_evidence": {"array_of": "string"},
            },
            "optional": {"reject_reasons": {"array_of": "string"}},
        }
    },
    "root_cause": {
        "object": {
            "required": {
                "chainid": "int",
                "seed": {"array_of": "string"},
                "act": {
                    "object": {
                        "required": {"is_act": "bool"},
                        "optional": {
                            "predicate": "string",
                            "rejection_reason": "string",
                        },
                    }
                },
                "lifecycle": {
                    "array_of": {
                        "object": {
                            "required": {
                                "txhash": "string",
                                "phase": {"enum": _LIFECYCLE_PHASES},
                            }
                        }
                    }
                },
                "all_relevant_txs": {"array_of": "string"},
                "roles": {
                    "object": {
                        "required": {
                            "attacker_eoas": {"array_of": "string"},
                            "attacker_contracts": {"array_of": "string"},
                            "victim_contracts": {"array_of": "string"},
                        },
                        "optional": {"helpers": {"array_of": "string"}},
                    }
                },
                "mechanism": "string",
                "violated_invariant": "string",
                "fork_block": "int",
            },
            "optional": {"incident_constants": {"array_of": "string"}},
        }
    },
    "oracle_definition": {
        "object": {
            "required": {
                "chainid": "int",
                "fork_block": "int",
                "variables": {
                    "array_of": {
                        "object": {
                            "required": {
                                "name": "string",
                                "kind": {
                                    "enum": [
                                        "victim_contract",
                                        "asset",
                                        "attacker_role",
                                        "helper_role",
                                    ]
                                },
                                "address": {"nullable": "string"},
                            }
                        }
                    }
                },
                "pre_check": {"array_of": _CONSTRAINT_SPEC},
                "hard": {"array_of": _CONSTRAINT_SPEC},
                "soft": {"array_of": _CONSTRAINT_SPEC},
                "success_criteria": "string",
            },
            "optional": {"setup": "string"},
        }
    },
    "reproducer_result": {
        "object": {
            "required": {"files": {"map_of": "string"}},
            "optional": {"notes": "string"},
        }
    },
    "poc_validation": _poc_verdict_spec("object"),
    "engine_verdict": _poc_verdict_spec(
        {
            "object": {
                "required": {"attacker_address_hits": {"array_of": _ADDRESS_HIT_SPEC}},
                "optional": {
                    "correctness": {"map_of": "bool"},
                    "observations_missing": {"array_of": "string"},
                    "observation_warnings": {"array_of": "string"},
                },
            }
        }
    ),
    "evaluation_result": {
        "map_of": {
            "object": {
                "required": {
                    "description": "string",
                    "evaluation_history": {"array_of": _EVALUATION_ENTRY_SPEC},
                }
            }
        }
    },
    "session_summary": {
        "object": {
            "required": {
                "session_id": "string",
                "outcome": {
                    "object": {
                        "required": {
                            "stage": {
                                "enum": [
                                    "bootstrap",
                                    "root_cause",
                                    "poc",
                                    "done",
                                    "aborted_non_act",
                                    "failed",
                                ]
                            }
                        },
                        "optional": {"is_act": "bool", "failure": "string"},
                    }
                },
                "iterations": {"map_of": "int"},
                "usage": {
                    "object": {
                        "required": {
                            "input_tokens": "int",
                            "cached_input_tokens": "int",
                            "output_tokens": "int",
                        }
                    }
                },
                "latencies": {"map_of": "number"},
                "fetched_items": "int",
                "poc": {
                    "object": {
                        "required": {"reproducer_iterations": "int", "rejects": "int"},
                        "optional": {"validated": "bool"},
                    }
                },
            },
            "optional": {"reject_log": "array", "turns": "object"},
        }
    },
    # Chain adapter payloads; ``LiveAdapter`` checks each ``tx_metadata``
    # document it builds.
    "tx_metadata": _TX_METADATA_SPEC,
    "tx_lookup": {"object": {"required": {"found": {"map_of": _TX_METADATA_SPEC}}}},
}


# --------------------------------------------------------------------------
# Sessions.


@dataclass(frozen=True)
class Session:
    """Handle to one postmortem run's directory tree."""

    session_id: str
    root: Path
    seed: SeedRef

    @cached_property
    def resolved_root(self) -> Path:
        """``root`` with symlinks resolved, once per session handle."""
        return self.root.resolve()


def dump_compact(doc: Any) -> str:
    """``doc`` as compact JSON with non-ASCII kept, and a final newline."""
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":")) + "\n"


def dump_indented(doc: Any) -> str:
    """``doc`` as indented JSON with sorted keys, for people to read."""
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


_TEMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW


def write_file(target: str | Path, data: str | bytes) -> None:
    """Write ``data`` (text as UTF-8) to ``target`` whole or not at all.

    The temp file ``.<name>.<random hex>.tmp`` beside the target is made new
    (``O_EXCL | O_NOFOLLOW``), so a link at its name is never written
    through, and renamed over the target; on any failure it is removed.
    The parent directories are made only when the first open finds one
    missing, and the open is tried once more.
    """
    parent, name = os.path.split(target)
    tmp = os.path.join(parent, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, _TEMP_FLAGS, 0o666)
    except FileNotFoundError:
        os.makedirs(parent, exist_ok=True)
        fd = os.open(tmp, _TEMP_FLAGS, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _schema(schema_id: str) -> Any:
    try:
        return SCHEMAS[schema_id]
    except KeyError:
        raise UnknownSchema(f"unknown schema id {schema_id!r}") from None


def read_json(path: str | Path, schema_id: str | None = None) -> Any:
    """The JSON document at ``path``, checked against ``SCHEMAS[schema_id]``
    when a schema id is given."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        raise ArtifactNotFound(f"{path}: no such file") from exc
    except (OSError, ValueError) as exc:
        raise CorruptArtifact(f"{path}: {exc}") from exc
    if schema_id is not None:
        errors = check_document(doc, _schema(schema_id))
        if errors:
            raise CorruptArtifact(f"{path}: fails the {schema_id} schema: {'; '.join(errors)}")
    return doc


def files_in_chain(directories: Sequence[str | Path], suffix: str) -> dict[str, str]:
    """The path of each ``<stem><suffix>`` file across a lookup chain of
    directories, by stem: a file in an earlier directory hides a later
    one's of the same name.  Only what ``os.DirEntry.is_file`` accepts
    counts, and a missing directory holds none."""
    found: dict[str, str] = {}
    for directory in directories:
        try:
            with os.scandir(directory) as entries:
                for entry in entries:
                    if entry.name.endswith(suffix) and entry.is_file():
                        found.setdefault(entry.name[: -len(suffix)], entry.path)
        except (FileNotFoundError, NotADirectoryError):
            pass
    return found


def resolve_inside(session: Session, relpath: str | Path) -> str:
    """Resolve ``relpath`` under the session root, refusing traversal
    outside it.

    The result is ``(root / relpath).resolve()`` on the resolved root, as a
    string, or ``PathEscapeError`` when that lies outside it.  A relative
    path with no ``..`` part gets there without a full resolve: each of its
    components below the root is ``lstat``-ed in turn, and when none is a
    link (a missing one ends the walk, since nothing below it can be a
    link) the path is the root joined with its parts.  An absolute path, a
    ``..`` part or a link anywhere below the root takes the full resolve.
    """
    root = session.resolved_root
    text = os.fspath(relpath)
    if not text.startswith("/"):
        parts = [part for part in text.split("/") if part and part != "."]
        if ".." not in parts:
            base = path = os.fspath(root)
            for part in parts:
                path += "/" + part
                try:
                    if stat.S_ISLNK(os.lstat(path).st_mode):
                        break
                except OSError:
                    # Missing, or under a file: nothing below is a link.
                    return os.path.join(base, *parts)
            else:
                return os.path.join(base, *parts)
    candidate = (root / relpath).resolve()
    if candidate != root and root not in candidate.parents:
        raise PathEscapeError(f"path escapes session root: {relpath}")
    return os.fspath(candidate)


def raw_input_doc(seed: SeedRef) -> dict[str, Any]:
    return {
        "targets": [
            {"chainid": seed.chainid, "txhash": tx.value} for tx in seed.txs
        ]
    }


def create_session(
    base_dir: str | Path,
    seed: SeedRef,
    attributions: list[str] | None = None,
    now: datetime | None = None,
) -> Session:
    """Claim the session directory and record the seed input; the
    directories below it are made by the writes that need them."""
    base = Path(base_dir)
    stamp = (now or datetime.now(timezone.utc)).strftime("%Y%m%dT%H%M%SZ")
    prefix = seed.primary.value[2:10]
    session_id = f"{stamp}_{prefix}"
    bump = 0
    # Claimed by the mkdir itself, so concurrent sessions never share one.
    while True:
        root = base / session_id
        try:
            root.mkdir(parents=True)
            break
        except FileExistsError:
            bump += 1
            session_id = f"{stamp}_{prefix}-{bump}"
    session = Session(session_id=session_id, root=root, seed=seed)
    write_artifact(session, RAW_INPUT, raw_input_doc(seed), schema_id="raw_input")
    write_artifact(
        session,
        SOURCES_META,
        {"attributions": sorted(set(attributions or ["manual"]))},
        schema_id="sources",
    )
    logger.info("created session %s at %s", session_id, root)
    return session


def open_session(root: str | Path) -> Session:
    """Re-open an existing session directory from its raw input."""
    root = Path(root)
    raw_path = root / RAW_INPUT
    targets = read_json(raw_path, "raw_input")["targets"]
    try:
        seed = SeedRef.from_strings(targets[0]["chainid"], [t["txhash"] for t in targets])
    except (IndexError, DomainError) as exc:
        raise CorruptArtifact(f"{raw_path}: bad targets: {exc}") from exc
    return Session(session_id=root.name, root=root, seed=seed)


def write_artifact(
    session: Session,
    relpath: str | Path,
    doc: Any,
    schema_id: str | None = None,
) -> str:
    """Validate (when a schema id is given) and atomically write a JSON doc;
    returns its path."""
    if schema_id is not None:
        errors = check_document(doc, _schema(schema_id))
        if errors:
            raise SchemaError(errors)
    target = resolve_inside(session, relpath)
    write_file(target, dump_compact(doc))
    return target


def write_text_artifact(session: Session, relpath: str | Path, text: str) -> str:
    """Atomically write a text artifact (reports, project sources); returns
    its path."""
    target = resolve_inside(session, relpath)
    write_file(target, text)
    return target


def read_artifact(session: Session, relpath: str | Path, schema_id: str | None = None) -> Any:
    """Read a JSON artifact, checked as ``read_json`` checks it."""
    return read_json(resolve_inside(session, relpath), schema_id)


_ITER_RE = re.compile(r"^iter_(\d+)$")


def iteration_dirs(root: str | Path, parent: str) -> list[tuple[int, str]]:
    """The ``(k, path)`` of each ``iter_k`` directory under ``parent``, a
    directory relative to the session root ``root``, in ``k`` order."""
    try:
        with os.scandir(os.path.join(root, parent)) as entries:
            return sorted(
                (int(m.group(1)), entry.path)
                for entry in entries
                if (m := _ITER_RE.match(entry.name)) and entry.is_dir()
            )
    except (FileNotFoundError, NotADirectoryError):
        return []


def next_iteration_dir(session: Session, parent: str) -> str:
    """Allocate the next dense ``iter_k`` directory under ``parent``, a
    directory relative to the session root; returns its path relative to
    the root, ``<parent>/iter_k``."""
    existing = iteration_dirs(session.root, parent)
    k = existing[-1][0] + 1 if existing else 0
    relpath = f"{parent}/iter_{k}"
    path = os.path.join(session.root, relpath)
    try:
        os.mkdir(path)
    except FileNotFoundError:
        os.makedirs(path)
    return relpath
