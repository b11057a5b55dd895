"""Model backend abstraction: conversations, steps, token accounting.

Every specialist role talks to a backend through the same two calls, so the
whole pipeline runs identically against a live model service or a scripted
stand-in.  The scripted backend replays canned outputs keyed by role and
call order and is the workhorse of the offline test suite.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Protocol

logger = logging.getLogger(__name__)


class BackendError(Exception):
    pass


class ScriptExhausted(BackendError):
    """The scripted backend ran out of entries for a role."""


class InvalidUsage(BackendError):
    pass


@dataclass(frozen=True)
class Usage:
    """Token counters for one step or an aggregate of steps.

    ``cached_input_tokens`` counts the prompt prefix served from cache and
    is always bounded by ``input_tokens``.
    """

    input_tokens: int = 0
    cached_input_tokens: int = 0
    output_tokens: int = 0

    def __post_init__(self) -> None:
        for name in ("input_tokens", "cached_input_tokens", "output_tokens"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise InvalidUsage(f"{name} must be a non-negative integer, got {value!r}")
        if self.cached_input_tokens > self.input_tokens:
            raise InvalidUsage(
                f"cached_input_tokens {self.cached_input_tokens} exceeds "
                f"input_tokens {self.input_tokens}"
            )

    @property
    def uncached_input_tokens(self) -> int:
        return self.input_tokens - self.cached_input_tokens

    def __add__(self, other: "Usage") -> "Usage":
        return Usage(
            self.input_tokens + other.input_tokens,
            self.cached_input_tokens + other.cached_input_tokens,
            self.output_tokens + other.output_tokens,
        )

    def to_doc(self) -> dict:
        return {
            "input_tokens": self.input_tokens,
            "cached_input_tokens": self.cached_input_tokens,
            "output_tokens": self.output_tokens,
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "Usage":
        return cls(
            input_tokens=doc.get("input_tokens", 0),
            cached_input_tokens=doc.get("cached_input_tokens", 0),
            output_tokens=doc.get("output_tokens", 0),
        )


@dataclass(frozen=True)
class StepResult:
    """One assistant turn: free text, optional structured document, usage."""

    text: str = ""
    structured_output: Optional[dict[str, Any]] = None
    usage: Usage = field(default_factory=Usage)


class ModelBackend(Protocol):
    def open_conversation(self, role: str, system_prompt: str) -> str:
        """Start a conversation for a role; returns an opaque conversation id."""
        ...

    def step(self, conversation_id: str, message: str) -> StepResult:
        """Send one user message and return the assistant's turn."""
        ...


#: Model the live backend asks for unless told otherwise.
DEFAULT_MODEL = "gpt-5"

#: Fixed per-step usage reported by the scripted backend unless an entry
#: overrides it; tests rely on it being deterministic.
SCRIPTED_STEP_USAGE = Usage(input_tokens=1200, cached_input_tokens=800, output_tokens=150)

_SCRIPT_FILE = re.compile(r"^(?P<role>[a-z_]+)_(?P<index>\d+)\.json$")


class ScriptedBackend:
    """Replays canned role outputs in call order.

    Entries are keyed by (role, n) where n counts that role's steps across
    the whole run.  A step beyond the script raises ScriptExhausted, which
    deliberately fails closed: a scripted test can never improvise.
    """

    def __init__(self, entries: Mapping[str, list[dict[str, Any]]]):
        self._entries = {role: list(steps) for role, steps in entries.items()}
        self._cursor: dict[str, int] = {}
        self._conversations: dict[str, str] = {}
        self._conv_seq = 0

    @classmethod
    def from_dir(cls, path: str | Path) -> "ScriptedBackend":
        """Load ``<role>_<n>.json`` files from a script directory."""
        path = Path(path)
        staged: dict[str, dict[int, dict[str, Any]]] = {}
        for entry in sorted(path.glob("*.json")):
            match = _SCRIPT_FILE.match(entry.name)
            if not match:
                continue
            doc = json.loads(entry.read_text(encoding="utf-8"))
            staged.setdefault(match["role"], {})[int(match["index"])] = doc
        entries: dict[str, list[dict[str, Any]]] = {}
        for role, by_index in staged.items():
            ordered = [by_index[i] for i in sorted(by_index)]
            if sorted(by_index) != list(range(len(by_index))):
                raise BackendError(
                    f"script for role {role} has gaps: indices {sorted(by_index)}"
                )
            entries[role] = ordered
        return cls(entries)

    def open_conversation(self, role: str, system_prompt: str) -> str:
        self._conv_seq += 1
        conversation_id = f"{role}#{self._conv_seq}"
        self._conversations[conversation_id] = role
        return conversation_id

    def step(self, conversation_id: str, message: str) -> StepResult:
        role = self._conversations.get(conversation_id)
        if role is None:
            raise BackendError(f"unknown conversation {conversation_id!r}")
        index = self._cursor.get(role, 0)
        steps = self._entries.get(role, [])
        if index >= len(steps):
            raise ScriptExhausted(f"script exhausted for role {role} at step {index}")
        self._cursor[role] = index + 1
        entry = steps[index]
        if "output" in entry or "text" in entry or "usage" in entry:
            output = entry.get("output")
            text = entry.get("text", "")
            usage = Usage.from_doc(entry["usage"]) if "usage" in entry else SCRIPTED_STEP_USAGE
        else:
            # Bare document: treat the whole entry as the structured output.
            output, text, usage = dict(entry), "", SCRIPTED_STEP_USAGE
        return StepResult(text=text, structured_output=output, usage=usage)

    def steps_taken(self, role: str) -> int:
        return self._cursor.get(role, 0)


_JSON_BLOCK = re.compile(r"```(?:json)?\s*(\{.*?\})\s*```", re.DOTALL)


def extract_json_document(text: str) -> Optional[dict[str, Any]]:
    """Pull the first JSON object out of assistant text, fenced or bare."""
    match = _JSON_BLOCK.search(text)
    candidates = [match.group(1)] if match else []
    stripped = text.strip()
    if stripped.startswith("{"):
        candidates.append(stripped)
    for candidate in candidates:
        try:
            doc = json.loads(candidate)
        except ValueError:
            continue
        if isinstance(doc, dict):
            return doc
    return None


class OpenAIChatBackend:
    """Minimal chat-completions client for live runs.

    Conversation state is kept client-side; the transport is injectable so
    the client logic stays testable offline.
    """

    def __init__(
        self,
        api_key: str,
        model: str = DEFAULT_MODEL,
        base_url: str = "https://api.openai.com/v1",
        post: Optional[Callable[[str, dict[str, Any], dict[str, str]], dict[str, Any]]] = None,
        temperature: float = 0.0,
    ):
        self.api_key = api_key
        self.model = model
        self.base_url = base_url.rstrip("/")
        self.post = post or self._default_post
        self.temperature = temperature
        self._histories: dict[str, list[dict[str, str]]] = {}
        self._seq = 0

    @staticmethod
    def _default_post(url: str, body: dict[str, Any], headers: dict[str, str]) -> dict[str, Any]:
        import requests

        response = requests.post(url, json=body, headers=headers, timeout=600)
        response.raise_for_status()
        return response.json()

    def open_conversation(self, role: str, system_prompt: str) -> str:
        self._seq += 1
        conversation_id = f"{role}#{self._seq}"
        self._histories[conversation_id] = [{"role": "system", "content": system_prompt}]
        return conversation_id

    def step(self, conversation_id: str, message: str) -> StepResult:
        history = self._histories.get(conversation_id)
        if history is None:
            raise BackendError(f"unknown conversation {conversation_id!r}")
        history.append({"role": "user", "content": message})
        body = {
            "model": self.model,
            "messages": history,
            "temperature": self.temperature,
        }
        headers = {"Authorization": f"Bearer {self.api_key}"}
        try:
            doc = self.post(f"{self.base_url}/chat/completions", body, headers)
        except Exception as exc:
            raise BackendError(f"model call failed: {exc}") from exc
        choice = doc["choices"][0]["message"]
        text = choice.get("content") or ""
        history.append({"role": "assistant", "content": text})
        usage_doc = doc.get("usage", {})
        details = usage_doc.get("prompt_tokens_details", {}) or {}
        usage = Usage(
            input_tokens=usage_doc.get("prompt_tokens", 0),
            cached_input_tokens=details.get("cached_tokens", 0),
            output_tokens=usage_doc.get("completion_tokens", 0),
        )
        return StepResult(
            text=text, structured_output=extract_json_document(text), usage=usage
        )
