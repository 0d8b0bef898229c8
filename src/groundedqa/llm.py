"""LLM backends, the one exchange function ``ask``, and the response grammars.

Two backends share one interface: a chat-completions HTTP client (temperature
0, no transcript kept) and a deterministic scripted backend used by tests and
offline runs. Every role's call goes through ``ask``: a malformed response
yields None plus one counted parse failure and audit event, which the caller
turns into its empty/Unknown value, never an aborted query.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from .axioms import AxiomSyntaxError
from .kg import named_decode_errors
from .trace import Audit

if TYPE_CHECKING:
    import requests

ROLES = ("entity_extract", "axiom", "triple_select", "judge", "mei", "baseline")

API_KEY_ENV = "R3_LLM_API_KEY"


class TransportError(RuntimeError):
    """HTTP backend failure that persists after all retries."""


class ScriptExhaustedError(RuntimeError):
    """The scripted backend ran out of responses for a role (test failure)."""


@dataclass(frozen=True)
class LlmRequest:
    role: str
    rendered_prompt: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")


class ScriptedBackend:
    """Replays scripted responses per role, in order, recording every call.

    The script is a mapping of role name to an ordered list of response
    strings, and any other shape raises ``ValueError``; each call consumes
    the next one. Exhaustion is an error so tests notice both missing and
    unconsumed script lines.
    """

    def __init__(self, script: dict[str, list[str]]):
        if not isinstance(script, dict):
            raise ValueError(f"a script maps roles to lists of responses, got {script!r}")
        unknown = set(script) - set(ROLES)
        if unknown:
            raise ValueError(f"unknown roles in script: {sorted(unknown)}")
        for role, lines in script.items():
            if not isinstance(lines, (list, tuple)) or not all(isinstance(x, str) for x in lines):
                raise ValueError(f"script role {role!r} must map to a list of strings")
        self._script = {role: list(lines) for role, lines in script.items()}
        self._cursor = {role: 0 for role in self._script}
        self._lock = threading.Lock()
        self.call_log: list[tuple[str, str, str]] = []

    @classmethod
    def from_file(cls, path: str) -> "ScriptedBackend":
        with named_decode_errors(path), open(path, encoding="utf-8") as f:
            return cls(json.load(f))

    def complete(self, request: LlmRequest) -> str:
        with self._lock:
            lines = self._script.get(request.role, [])
            i = self._cursor.get(request.role, 0)
            if i >= len(lines):
                raise ScriptExhaustedError(
                    f"script exhausted for role {request.role!r} (call #{i + 1})"
                )
            self._cursor[request.role] = i + 1
            response = lines[i]
            self.call_log.append((request.role, request.rendered_prompt, response))
            return response

    def remaining(self) -> dict[str, int]:
        """Unconsumed lines per role; report at teardown to catch over-scripting."""
        return {
            role: len(lines) - self._cursor.get(role, 0)
            for role, lines in self._script.items()
            if len(lines) - self._cursor.get(role, 0) > 0
        }


@dataclass
class HttpConfig:
    endpoint: str
    model: str
    api_key: Optional[str] = None
    timeout: float = 30.0
    retries: int = 3
    backoff_base: float = 0.5
    system_prompt: str = "You are a careful reasoning assistant. Follow the response format exactly."

    def resolved_api_key(self) -> str:
        return self.api_key or os.environ.get(API_KEY_ENV, "")


class HttpBackend:
    """Chat-completions client with retry, exponential backoff, and timeout.

    Transport errors, 5xx and 429 are retried; a 429's integer ``Retry-After``
    replaces that attempt's backoff. Other 4xx responses fail at once.
    """

    def __init__(self, config: HttpConfig, session: Optional[requests.Session] = None):
        import requests  # loaded only by processes that build an HTTP backend

        self.config = config
        self._session = session or requests.Session()

    def complete(self, request: LlmRequest) -> str:
        import requests

        payload = {
            "model": self.config.model,
            "messages": [
                {"role": "system", "content": self.config.system_prompt},
                {"role": "user", "content": request.rendered_prompt},
            ],
            "temperature": 0.0,
        }
        headers = {"Content-Type": "application/json"}
        key = self.config.resolved_api_key()
        if key:
            headers["Authorization"] = f"Bearer {key}"
        last_error = "no attempt made"
        wait = None  # seconds a 429's Retry-After asked for
        for attempt in range(self.config.retries + 1):
            if attempt:
                time.sleep(wait if wait is not None
                           else self.config.backoff_base * (2 ** (attempt - 1)))
            wait = None
            try:
                resp = self._session.post(
                    self.config.endpoint,
                    json=payload,
                    headers=headers,
                    timeout=self.config.timeout,
                )
            except requests.RequestException as exc:
                last_error = str(exc)
                continue
            if 200 <= resp.status_code < 300:
                try:
                    text = resp.json()["choices"][0]["message"]["content"]
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    raise TransportError(f"malformed completion response: {exc}") from exc
                return text
            last_error = f"HTTP {resp.status_code}"
            if resp.status_code == 429:
                wait = _retry_after_seconds(resp.headers.get("Retry-After"))
            elif 400 <= resp.status_code < 500:
                break  # other client errors will not heal on retry
        raise TransportError(
            f"completion failed after {self.config.retries + 1} attempt(s): {last_error}"
        )


def _retry_after_seconds(value: Optional[str]) -> Optional[int]:
    """Delay from a ``Retry-After`` header holding whole seconds, else None.

    The HTTP-date form and malformed values fall back to exponential backoff.
    """
    if value is None:
        return None
    try:
        seconds = int(value)
    except ValueError:
        return None
    return seconds if seconds >= 0 else None


def ask(backend, role: str, prompt: str, parse: Callable[[str], Any], audit: Audit) -> Any:
    """Send ``prompt`` for ``role`` and parse the reply; None if ``parse`` rejects it.

    A rejection (``parse`` returns None or raises ``AxiomSyntaxError``) counts
    one parse failure and one audit event. Other exceptions propagate.
    """
    response = backend.complete(LlmRequest(role=role, rendered_prompt=prompt))
    detail = ""
    try:
        parsed = parse(response)
    except AxiomSyntaxError as exc:
        parsed, detail = None, f": {exc}"  # the message ends with the position
    if parsed is None:
        audit.parse_failures += 1
        audit.event(f"{role}: unparseable response{detail}")
    return parsed


# -- response grammars -----------------------------------------------------
# Line-oriented, first matching line wins, keys are case-sensitive.


def _first_line(text: str, key: str) -> Optional[str]:
    prefix = key + ":"
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith(prefix):
            return stripped[len(prefix):].strip()
    return None


def parse_entities(text: str) -> Optional[list[str]]:
    """``ENTITIES: name; name; …`` -> names, or None when the line is absent."""
    value = _first_line(text, "ENTITIES")
    if value is None:
        return None
    return [name.strip() for name in value.split(";") if name.strip()]


def parse_axiom_block(text: str) -> Optional[tuple[str, str]]:
    """Split a surfacing response into (grammar_text, natural_text).

    The structured form sits on the first ``AXIOM:`` line; everything else
    is treated as the natural-language sentence.
    """
    grammar = _first_line(text, "AXIOM")
    if grammar is None or not grammar:
        return None
    nl_lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("AXIOM:")
    ]
    return grammar, " ".join(nl_lines)


def parse_select(text: str, n_candidates: int) -> Optional[tuple[list[int], list[str]]]:
    """``SELECT: i,j,…`` -> valid 1-based indices plus dropped raw tokens."""
    value = _first_line(text, "SELECT")
    if value is None:
        return None
    return _parse_indices(value, n_candidates)


def parse_judge(text: str, n_candidates: int) -> Optional[tuple[str, list[int], list[str]]]:
    """``STATUS: …`` and ``EVIDENCE: i,j,…`` -> (status, indices, dropped)."""
    status = _first_line(text, "STATUS")
    if status is None or status.strip() not in ("SATISFIED", "VIOLATED", "UNKNOWN"):
        return None
    evidence_raw = _first_line(text, "EVIDENCE") or ""
    indices, dropped = _parse_indices(evidence_raw, n_candidates)
    return status.strip(), indices, dropped


def parse_mei(text: str) -> Optional[tuple[str, str]]:
    """``MISSING: …`` and ``ENTITY: …`` -> (description, entity name)."""
    missing = _first_line(text, "MISSING")
    entity = _first_line(text, "ENTITY")
    if missing is None or entity is None or not entity:
        return None
    return missing, entity


def _parse_indices(raw: str, n_candidates: int) -> tuple[list[int], list[str]]:
    indices: list[int] = []
    dropped: list[str] = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:  # isdecimal, not isdigit: int() rejects digits such as "²" and "①"
            idx = int(token) if token.isdecimal() else 0
        except ValueError:  # more digits than int() will read
            idx = 0
        if 1 <= idx <= n_candidates:
            if idx not in indices:
                indices.append(idx)
        else:
            dropped.append(token)
    return indices, dropped
