"""Uniform client for text-completion services, plus an in-process double.

All LLM traffic in the package flows through a Gateway. The mock variant
answers through a caller's responder function, which is what the test suite
runs on; the HTTP variant speaks the common chat-completion JSON shape, is
config driven (endpoint, model, credential env var) and is the only one that
retries, since only its transport can fail.

Sessions are deliberately heavyweight in the API: the summarization pipeline
requires that each query hit "a fresh instance" with no shared conversational
state, so every LLM call in the package goes through ``query``, which mints a
session per attempt.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import threading
import time
from dataclasses import asdict, dataclass, field


class GatewayError(RuntimeError):
    """Completion failed. ``kind`` is one of 'auth', 'timeout', 'transport',
    'exhausted'."""

    def __init__(self, message: str, kind: str):
        super().__init__(message)
        self.kind = kind


class MalformedResponse(ValueError):
    """Gateway answered, but not in a usable shape; caller may restart."""


MAX_RETRIES = 3  # attempts per query; a malformed reply costs one


def query(gateway, prompt: str, parse, *, temperature: float, failure: type[Exception]):
    """One LLM call: complete ``prompt`` on a fresh session and return
    ``parse(text)``. A MalformedResponse discards the reply and restarts on a
    new session; after ``MAX_RETRIES`` attempts ``failure`` is raised.
    GatewayError is never retried here."""
    last_error: Exception | None = None
    for _ in range(MAX_RETRIES):
        text = gateway.fresh_session().complete(prompt, temperature=temperature)
        try:
            return parse(text)
        except MalformedResponse as err:
            last_error = err
    raise failure(f"no usable reply after {MAX_RETRIES} attempts: {last_error}")


@dataclass
class Attachment:
    """Opaque image bytes plus a media type tag."""

    data: bytes
    media_type: str = "image/png"


@dataclass
class PromptExchange:
    session_id: str
    request: str
    response: str
    model: str
    latency: float
    retries: int
    attachments: list[dict] = field(default_factory=list)

    def __post_init__(self):
        if not self.request:
            raise ValueError("exchange request must be non-empty")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "PromptExchange":
        return cls(**doc)


class AuditLog:
    """Append-only JSONL file of every prompt/response pair; safe across
    threads. The file is the only record: with no ``path`` nothing is kept."""

    def __init__(self, path=None):
        self.path = path
        self._lock = threading.Lock()

    def append(self, exchange: PromptExchange) -> None:
        if self.path is None:
            return
        line = json.dumps(exchange.to_json()) + "\n"
        with self._lock, open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line)

    @staticmethod
    def read(path) -> list[PromptExchange]:
        """The exchanges of an audit file; a bad line is a ValueError that names its 1-based number."""
        out = []
        with open(path, encoding="utf-8") as fh:
            for i, line in enumerate(fh, 1):
                try:
                    if line.strip():
                        out.append(PromptExchange.from_json(json.loads(line)))
                except (ValueError, RecursionError, TypeError) as err:  # not JSON, too deep, not an exchange
                    raise ValueError(f"line {i}: {err}") from None
        return out


class Session:
    """One isolated conversation. Completions here share no state with any
    other session; the gateway only supplies transport and logging."""

    def __init__(self, gateway: "Gateway", session_id: str):
        self._gateway = gateway
        self.session_id = session_id

    def complete(self, prompt: str, attachments: list[Attachment] | None = None, *, temperature: float) -> str:
        if not prompt:
            raise ValueError("prompt must be non-empty")
        return self._gateway._complete(self.session_id, prompt, attachments or [], temperature)


class Gateway:
    """Base class: session bookkeeping and audit logging."""

    def __init__(self, model: str, audit_log: AuditLog | None = None):
        self.model = model
        self.audit_log = audit_log if audit_log is not None else AuditLog()
        self._session_counter = itertools.count()

    def fresh_session(self) -> Session:
        return Session(self, f"s{next(self._session_counter):06d}")

    def _complete(self, session_id: str, prompt: str, attachments: list[Attachment], temperature: float) -> str:
        start = time.monotonic()
        text, retries = self._transport(prompt, attachments, temperature)
        self.audit_log.append(
            PromptExchange(
                session_id=session_id,
                request=prompt,
                response=text,
                model=self.model,
                latency=time.monotonic() - start,
                retries=retries,
                attachments=[{"media_type": a.media_type, "bytes": len(a.data)} for a in attachments],
            )
        )
        return text

    def _transport(self, prompt: str, attachments: list[Attachment], temperature: float) -> tuple[str, int]:
        raise NotImplementedError


class MockGateway(Gateway):
    """In-process double: ``responder`` maps the prompt text to the reply.
    Its transport cannot fail, so it never retries; a responder raises
    GatewayError to stand for a dead transport."""

    def __init__(self, responder, audit_log: AuditLog | None = None):
        super().__init__("mock", audit_log)
        self._responder = responder

    def _transport(self, prompt: str, attachments, temperature) -> tuple[str, int]:
        return str(self._responder(prompt)), 0


def _finite_number(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)


@dataclass
class GatewayConfig:
    endpoint: str = ""
    model: str = ""
    credential_env: str = "DEMOFORGE_API_KEY"
    timeout: float = 60.0
    max_retries: int = 3
    backoff_base: float = 1.0  # seconds; doubles per retry, 0 disables sleeping

    def __post_init__(self):
        for name in ("endpoint", "model", "credential_env"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")
        if isinstance(self.max_retries, bool) or not isinstance(self.max_retries, int) or self.max_retries < 0:
            raise ValueError(f"max_retries must be an integer >= 0, got {self.max_retries!r}")
        if not (_finite_number(self.timeout) and self.timeout > 0):
            raise ValueError(f"timeout must be a finite number > 0, got {self.timeout!r}")
        if not (_finite_number(self.backoff_base) and self.backoff_base >= 0):
            raise ValueError(f"backoff_base must be a finite number >= 0, got {self.backoff_base!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "GatewayConfig":
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown gateway keys: {sorted(unknown, key=repr)}")
        return cls(**doc)


class HttpGateway(Gateway):
    """Chat-completion-over-HTTP client. Transient transport errors are
    retried with exponential backoff; auth problems fail immediately."""

    def __init__(self, config: GatewayConfig, audit_log: AuditLog | None = None):
        super().__init__(config.model, audit_log)
        if not config.endpoint:
            raise ValueError("endpoint must be configured for live mode")
        self.config = config

    def _credential(self) -> str:
        key = os.environ.get(self.config.credential_env, "")
        if not key:
            raise GatewayError(
                f"no credential in ${self.config.credential_env}", kind="auth"
            )
        return key

    def _transport(self, prompt: str, attachments, temperature) -> tuple[str, int]:
        import requests  # only HTTP traffic needs it, and it is slow to import
        key = self._credential()  # before any network traffic
        content: list[dict] | str
        if attachments:
            content = [{"type": "text", "text": prompt}] + [
                {"type": "image", "media_type": a.media_type, "data": a.data.hex()} for a in attachments
            ]
        else:
            content = prompt
        body = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": content}],
            "temperature": temperature,
            "max_tokens": 4096,
        }
        last_err: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            if attempt and self.config.backoff_base > 0:
                time.sleep(self.config.backoff_base * 2 ** (attempt - 1))
            try:
                resp = requests.post(
                    self.config.endpoint,
                    json=body,
                    headers={"Authorization": f"Bearer {key}"},
                    timeout=self.config.timeout,
                )
            except requests.Timeout as err:
                last_err = GatewayError(f"timeout: {err}", kind="timeout")
                continue
            except requests.RequestException as err:
                last_err = GatewayError(f"transport: {err}", kind="transport")
                continue
            if resp.status_code in (401, 403):
                raise GatewayError(f"auth rejected ({resp.status_code})", kind="auth")
            if resp.status_code >= 500 or resp.status_code == 429:
                last_err = GatewayError(f"server {resp.status_code}", kind="transport")
                continue
            if resp.status_code != 200:
                raise GatewayError(f"unexpected status {resp.status_code}", kind="transport")
            try:  # a 200 whose body is not a chat completion is a broken transport, not a reply
                text = resp.json()["choices"][0]["message"]["content"]
                if not isinstance(text, str):
                    raise TypeError(f"content is {text!r}, not a string")
            except (ValueError, LookupError, TypeError) as err:  # JSONDecodeError is a ValueError
                raise GatewayError(f"malformed completion body: {err!r}", kind="transport") from err
            return text, attempt
        raise GatewayError(f"retries exhausted: {last_err}", kind="exhausted")
