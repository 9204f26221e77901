"""Provider-agnostic chat access with retries, rate limiting, token accounting,
structured-output extraction, and deterministic record/replay.

Every LLM-dependent test in this repo runs against a recorded transcript;
live providers are only exercised when credentials are configured.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Protocol

from .corpus import Record
from .errors import (
    MissingFieldsError,
    NoStructuredObjectError,
    ReplayMissError,
    RetriesExhaustedError,
    StructuredOutputError,
    TaxonomyError,
    TranscriptError,
    TransientProviderError,
    UnknownModelError,
)

logger = logging.getLogger(__name__)

API_KEY_ENV_PREFIX = "FAULTLOOM_API_KEY_"
MAX_ATTEMPTS = 4
DEFAULT_MAX_OUTPUT_TOKENS = 2048
REPAIR_RETRIES = 2


@dataclass(frozen=True)
class ChatRequest(Record):
    model_id: str
    system_text: str
    user_text: str
    temperature: float = 0.0
    max_output_tokens: int = DEFAULT_MAX_OUTPUT_TOKENS

    def __post_init__(self) -> None:
        if not self.system_text or not self.user_text:
            raise ValueError("system_text and user_text must be non-empty")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_output_tokens <= 0:
            raise ValueError("max_output_tokens must be positive")


@dataclass
class ChatResponse(Record):
    text: str
    input_tokens: int = 0
    output_tokens: int = 0
    latency_ms: float = 0.0
    provider_meta: dict = field(default_factory=dict)


def request_digest(request: ChatRequest) -> str:
    """Stable hash of the semantic request fields.

    Canonical JSON (sorted keys, minimal separators) makes the digest
    invariant under field ordering and serialization whitespace, while any
    semantic field change produces a new digest.
    """
    canonical = json.dumps(request.to_dict(), sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Transcript:
    """Append-only record of (request digest -> response), one JSON per line.

    The append handle opens on the first new entry and stays open until
    `close()`; each entry is written under a lock and flushed, so a killed
    process loses at most the entry it was writing. A torn final line (one
    without its newline that does not parse) is dropped with a warning and
    cut off before the next append; any other unreadable line is an error.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self.entries: dict[str, ChatResponse] = {}
        self._lock = threading.Lock()
        self._fh = None
        self._torn_at: int | None = None  # offset of a torn final line, cut before the next append
        self._newline = False  # the last entry lacks its newline
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        offset = 0
        with open(self.path, "rb") as fh:
            for line_no, line in enumerate(fh, start=1):
                complete = line.endswith(b"\n")
                if line.strip():
                    try:
                        raw = json.loads(line)
                        self.entries[raw["request_digest"]] = ChatResponse.from_dict(raw["response"])
                    except (ValueError, KeyError, TypeError) as exc:
                        if complete:
                            raise TranscriptError(str(self.path), line_no, f"unreadable entry: {exc}") from exc
                        logger.warning("%s line %d: dropping torn final entry", self.path, line_no)
                        self._torn_at = offset
                        return
                    self._newline = not complete
                offset += len(line)

    def lookup(self, digest: str) -> ChatResponse:
        try:
            return self.entries[digest]
        except KeyError:
            raise ReplayMissError(digest) from None

    def record(self, digest: str, response: ChatResponse) -> None:
        line = json.dumps({"request_digest": digest, "response": response.to_dict()}, sort_keys=True)
        with self._lock:
            if digest in self.entries:
                return
            self.entries[digest] = response
            if self.path is None:
                return
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = open(self.path, "ab")
                if self._torn_at is not None:
                    self._fh.truncate(self._torn_at)
                    self._torn_at = None
                if self._newline:
                    line = "\n" + line
                    self._newline = False
            self._fh.write((line + "\n").encode("utf-8"))
            self._fh.flush()

    def close(self) -> None:
        """Close the append handle; a later `record` opens it again."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


class Provider(Protocol):
    def send(self, request: ChatRequest) -> ChatResponse: ...


class OpenAICompatProvider:
    """Minimal chat-completions client for OpenAI-compatible HTTP endpoints."""

    ENDPOINTS = {
        "openai": "https://api.openai.com/v1/chat/completions",
        "deepseek": "https://api.deepseek.com/v1/chat/completions",
    }

    def __init__(self, provider_name: str, endpoint: str | None = None):
        if endpoint is None and provider_name not in self.ENDPOINTS:
            raise UnknownModelError(provider_name)
        self.provider_name = provider_name
        self.endpoint = endpoint or self.ENDPOINTS[provider_name]

    def send(self, request: ChatRequest) -> ChatResponse:
        import requests

        api_key = os.environ.get(API_KEY_ENV_PREFIX + self.provider_name.upper())
        if not api_key:
            raise UnknownModelError(
                f"{request.model_id} (no {API_KEY_ENV_PREFIX}{self.provider_name.upper()} set)"
            )
        _, model = split_model_id(request.model_id)
        start = time.monotonic()
        resp = requests.post(
            self.endpoint,
            headers={"Authorization": f"Bearer {api_key}"},
            json={
                "model": model,
                "messages": [
                    {"role": "system", "content": request.system_text},
                    {"role": "user", "content": request.user_text},
                ],
                "temperature": request.temperature,
                "max_tokens": request.max_output_tokens,
            },
            timeout=120,
        )
        latency_ms = (time.monotonic() - start) * 1000
        if resp.status_code == 429 or resp.status_code >= 500:
            raise TransientProviderError(f"HTTP {resp.status_code}: {resp.text[:200]}")
        if resp.status_code != 200:
            raise RuntimeError(f"provider error HTTP {resp.status_code}: {resp.text[:200]}")
        payload = resp.json()
        usage = payload.get("usage", {})
        return ChatResponse(
            text=payload["choices"][0]["message"]["content"] or "",
            input_tokens=int(usage.get("prompt_tokens", 0)),
            output_tokens=int(usage.get("completion_tokens", 0)),
            latency_ms=latency_ms,
            provider_meta={"provider": self.provider_name},
        )


def split_model_id(model_id: str) -> tuple[str, str]:
    if "/" not in model_id:
        raise UnknownModelError(model_id)
    provider, model = model_id.split("/", 1)
    if not provider or not model:
        raise UnknownModelError(model_id)
    return provider, model


def provider_for_model(model_id: str) -> Provider:
    provider_name, _ = split_model_id(model_id)
    return OpenAICompatProvider(provider_name)


class RateLimiter:
    """Token-bucket limiter: bounds concurrency and paces requests per minute."""

    def __init__(self, max_concurrent: int = 4, requests_per_minute: float | None = None):
        self._semaphore = threading.Semaphore(max_concurrent)
        self._interval = 60.0 / requests_per_minute if requests_per_minute else 0.0
        self._lock = threading.Lock()
        self._next_slot = 0.0

    def __enter__(self):
        self._semaphore.acquire()
        if self._interval:
            with self._lock:
                now = time.monotonic()
                wait = self._next_slot - now
                self._next_slot = max(now, self._next_slot) + self._interval
            if wait > 0:
                time.sleep(wait)
        return self

    def __exit__(self, *exc):
        self._semaphore.release()


@dataclass
class UsageTally(Record):
    requests: int = 0
    input_tokens: int = 0
    output_tokens: int = 0


class Gateway:
    """Chat-completion front door with three modes.

    live:   call the provider (with retries); nothing persisted.
    record: serve a request already in the transcript from it; call the
            provider for any other and append (digest, response) to the
            transcript.
    replay: serve responses from the transcript only; a missing digest is a
            ReplayMissError and no provider call is ever made.
    """

    def __init__(
        self,
        mode: str = "replay",
        transcript: Transcript | None = None,
        provider: Provider | None = None,
        max_attempts: int = MAX_ATTEMPTS,
        limiter: RateLimiter | None = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
    ):
        if mode not in ("live", "record", "replay"):
            raise ValueError(f"unknown gateway mode: {mode!r}")
        if mode == "replay" and transcript is None:
            raise ValueError("replay mode requires a transcript")
        if mode == "record" and transcript is None:
            raise ValueError("record mode requires a transcript")
        self.mode = mode
        self.transcript = transcript
        self._provider = provider
        self.max_attempts = max_attempts
        self.limiter = limiter or RateLimiter()
        self.sleep = sleep
        self.rng = rng or random.Random()
        self._usage_lock = threading.Lock()
        self.usage: dict[str, UsageTally] = {}

    def _account(self, model_id: str, response: ChatResponse) -> None:
        with self._usage_lock:
            tally = self.usage.setdefault(model_id, UsageTally())
            tally.requests += 1
            tally.input_tokens += response.input_tokens
            tally.output_tokens += response.output_tokens

    def total_tokens(self) -> int:
        with self._usage_lock:
            return sum(t.input_tokens + t.output_tokens for t in self.usage.values())

    def complete(self, request: ChatRequest) -> ChatResponse:
        digest = request_digest(request)
        if self.mode == "replay":
            response = self.transcript.lookup(digest)
            self._account(request.model_id, response)
            return response
        if self.mode == "record" and (response := self.transcript.entries.get(digest)) is not None:
            self._account(request.model_id, response)
            return response

        provider = self._provider
        if provider is None:
            provider = provider_for_model(request.model_id)

        delay = 0.5
        last_error: Exception | None = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                with self.limiter:
                    response = provider.send(request)
                response.provider_meta.setdefault("attempts", attempt)
                if self.mode == "record" and self.transcript is not None:
                    self.transcript.record(digest, response)
                self._account(request.model_id, response)
                return response
            except TransientProviderError as exc:
                last_error = exc
                logger.warning("transient provider failure (attempt %d): %s", attempt, exc)
                if attempt < self.max_attempts:
                    self.sleep(delay + self.rng.uniform(0, delay / 2))
                    delay *= 2
        raise RetriesExhaustedError(self.max_attempts, last_error)


def extract_structured(text: str, expected_fields: set[str] | None = None) -> dict:
    """Pull the first well-formed JSON object out of raw model output.

    Tolerates code fences and surrounding prose by attempting a decode at
    every '{' until one parses as an object. Missing expected fields are
    reported by name.
    """
    decoder = json.JSONDecoder()
    obj = None
    idx = text.find("{")
    while idx != -1:
        try:
            candidate, _ = decoder.raw_decode(text, idx)
        except json.JSONDecodeError:
            idx = text.find("{", idx + 1)
            continue
        if isinstance(candidate, dict):
            obj = candidate
            break
        idx = text.find("{", idx + 1)
    if obj is None:
        raise NoStructuredObjectError()
    if expected_fields:
        missing = [name for name in expected_fields if name not in obj]
        if missing:
            raise MissingFieldsError(missing)
    return obj


@dataclass(frozen=True)
class StructuredAnswer:
    """The parsed answer, or, once every attempt was rejected, None with the
    last raw answer and the error that rejected it."""

    value: object
    attempts: int
    text: str
    error: StructuredOutputError | TaxonomyError | None = None


def ask_structured(
    gateway: Gateway,
    request: ChatRequest,
    parse: Callable[[str], object],
    repair_note: Callable[[Exception], str],
) -> StructuredAnswer:
    """Ask until `parse` accepts an answer, at most 1 + REPAIR_RETRIES calls.

    An answer that `parse` rejects with a StructuredOutputError or a
    TaxonomyError is asked again with `repair_note(error)` appended to the
    user text. Errors from `gateway.complete` propagate.
    """
    for attempt in range(1, 2 + REPAIR_RETRIES):
        text = gateway.complete(request).text
        try:
            return StructuredAnswer(parse(text), attempt, text)
        except (StructuredOutputError, TaxonomyError) as exc:
            error = exc
            request = replace(request, user_text=request.user_text + repair_note(exc))
    return StructuredAnswer(None, attempt, text, error)
