"""Session workspace: directory layout, file IO, document schemas.

A session is a directory rooted at ``<base>/<session_id>/`` holding the raw
seed input, per-role iteration artifacts, final reports, and the scaffolded
exploit project.

Every file the program writes (session artifacts, queue seeds, fixtures,
dataset exports) goes through ``write_file``: a temp file renamed over the
target, so a killed run leaves the old file or the whole new one, with the
mode ``open()`` gives.  Every JSON file it reads back goes through
``read_json``, which raises ``ArtifactNotFound`` for a missing file and
``CorruptArtifact`` for an unreadable or undecodable one.

Every schema lives in ``SCHEMAS``, and each document is checked against its
schema once.  A model-written document (analysis, challenge, root cause,
oracle definition, reproducer project, validator verdict) is checked when
its role returns, by ``agents.roles.validate_role_output``, and written
as accepted.  A document the program builds itself (raw input, sources,
collection summaries, engine verdicts, evaluation results, the session
summary) is checked as it is written, by ``write_artifact(schema_id=...)``.
"""

from __future__ import annotations

import json
import logging
import os
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import Any, Mapping

from .domain import DomainError, SeedRef

logger = logging.getLogger(__name__)


class WorkspaceError(Exception):
    pass


class SchemaError(WorkspaceError):
    """Document failed structural validation; ``errors`` lists field paths."""

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
COLLECTION_DIR = "artifacts/root_cause/data_collector"
POC_STAGE_DIR = "artifacts/poc"
#: One ``iter_k`` per reproduction attempt.
REPRODUCER_DIR = "artifacts/poc/poc_reproducer"
#: The engine's verdict on an attempt, in that attempt's ``iter_k``.
ENGINE_VERDICT = "engine_verdict.json"
ORACLE_DEFINITION = "artifacts/poc/oracle_generator/oracle_definition.json"
#: The validator's verdict on the latest reproduction the engine passed.
POC_VALIDATED_RESULT = "artifacts/poc/poc_validator/poc_validated_result.json"
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
            "out_path": "string",
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
            "optional": {"iteration": "int", "fetched_count": "int"},
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
    "poc_validation": {
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
                "rubric": "object",
            },
            "optional": {
                "reject_reasons": {"array_of": "string"},
                "pre_check_results": {"array_of": "object"},
            },
        }
    },
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
                "latencies": "object",
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


def _dump_json(doc: Any) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def write_file(target: Path, data: str | bytes) -> None:
    """Write ``data`` (text as UTF-8) to ``target`` whole or not at all,
    making its parent directories first."""
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW, 0o666)
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


def read_json(path: Path) -> Any:
    """The JSON document at ``path``."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        raise ArtifactNotFound(f"{path}: no such file") from exc
    except (OSError, ValueError) as exc:
        raise CorruptArtifact(f"{path}: {exc}") from exc


def resolve_inside(session: Session, relpath: str | Path) -> Path:
    """Resolve ``relpath`` under the session root, refusing traversal
    outside it."""
    root = session.resolved_root
    candidate = (root / relpath).resolve()
    if candidate != root and root not in candidate.parents:
        raise PathEscapeError(f"path escapes session root: {relpath}")
    return candidate


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
    """Create the session directory skeleton and record the seed input."""
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
    for sub in (SEED_DIR, POC_STAGE_DIR, EVALUATION_DIR):
        (root / sub).mkdir(parents=True, exist_ok=True)
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
    doc = read_json(raw_path)
    errors = check_document(doc, SCHEMAS["raw_input"])
    if errors:
        raise SchemaError(errors)
    targets = doc["targets"]
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
) -> Path:
    """Validate (when a schema id is given) and atomically write a JSON doc."""
    if schema_id is not None:
        if schema_id not in SCHEMAS:
            raise UnknownSchema(f"unknown schema id {schema_id!r}")
        errors = check_document(doc, SCHEMAS[schema_id])
        if errors:
            raise SchemaError(errors)
    target = resolve_inside(session, relpath)
    write_file(target, _dump_json(doc))
    return target


def write_text_artifact(session: Session, relpath: str | Path, text: str) -> Path:
    """Atomically write a text artifact (reports, project sources)."""
    target = resolve_inside(session, relpath)
    write_file(target, text)
    return target


def read_artifact(session: Session, relpath: str | Path) -> Any:
    return read_json(resolve_inside(session, relpath))


_ITER_RE = re.compile(r"^iter_(\d+)$")


def iteration_dirs(session: Session, parent: str | Path) -> list[tuple[int, Path]]:
    """The ``(k, path)`` of each ``iter_k`` directory under ``parent``, a
    directory relative to the session root, in ``k`` order."""
    base = session.root / parent
    return sorted(
        (int(m.group(1)), entry)
        for entry in (base.iterdir() if base.is_dir() else [])
        if (m := _ITER_RE.match(entry.name)) and entry.is_dir()
    )


def next_iteration_dir(session: Session, parent: str | Path) -> Path:
    """Allocate the next dense ``iter_k`` directory under ``parent``, a
    directory relative to the session root."""
    existing = iteration_dirs(session, parent)
    k = existing[-1][0] + 1 if existing else 0
    path = session.root / parent / f"iter_{k}"
    path.mkdir(parents=True, exist_ok=False)
    return path
