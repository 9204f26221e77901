"""Provider-agnostic chat access with retries, a bound on the issues in flight, token
accounting, structured-output extraction, and deterministic record/replay.

Every LLM-dependent test in this repo runs against a recorded transcript;
live providers are only exercised when credentials are configured.
"""

from __future__ import annotations

import json
import logging
import os
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Protocol, TypeVar

from .corpus import IssueRecord, Record, sha256_json
from .errors import (
    GatewayError,
    ReplayMissError,
    RetriesExhaustedError,
    StructuredOutputError,
    TaxonomyError,
    TransientProviderError,
)

logger = logging.getLogger(__name__)

MODES = ("live", "record", "replay")  # see Gateway
MAX_ATTEMPTS = 4
MAX_RETRY_AFTER = 60.0  # the longest wait, in seconds, that a Retry-After header sets
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
    return sha256_json(request.to_dict())


T = TypeVar("T")


def raise_transient(status: int, where: str, retry_after: str | None = None) -> None:
    """Raise a TransientProviderError for HTTP 429 or HTTP >= 500, with the
    delay-seconds of a `retry_after` header (RFC 9110 10.2.3), not a date. With
    a `requests` failure, which each client turns into one too, these are the
    failures `retry` retries."""
    if status == 429 or status >= 500:
        exc = TransientProviderError(f"HTTP {status} from {where}")
        if retry_after is not None and (value := retry_after.strip()).isascii() and value.isdigit():
            exc.retry_after = float(value)
        raise exc


def retry(send: Callable[[int], T], key: str, sleep: Callable[[float], None]) -> T:
    """`send(attempt)` until it returns, at most MAX_ATTEMPTS times. Only a
    TransientProviderError is retried, after an exponential backoff from
    0.5 s with up to half a delay of jitter, seeded by `key` and the attempt
    so that the same request waits the same, or the error's `retry_after`
    (at most MAX_RETRY_AFTER) if longer; the last one raises RetriesExhaustedError."""
    delay = 0.5
    for attempt in range(1, MAX_ATTEMPTS + 1):
        try:
            return send(attempt)
        except TransientProviderError as exc:
            last_error = exc
            logger.warning("transient failure (attempt %d): %s", attempt, exc)
            if attempt < MAX_ATTEMPTS:
                backoff = delay + random.Random(f"{key}/{attempt}").uniform(0, delay / 2)
                sleep(max(backoff, min(exc.retry_after, MAX_RETRY_AFTER)))
                delay *= 2
    raise RetriesExhaustedError(f"provider failed after {MAX_ATTEMPTS} attempts: {last_error}") from last_error


class Transcript:
    """Append-only record of (request digest -> response), one JSON per line.

    The append handle opens on the first new entry and stays open until
    `close()`; each entry is written under a lock and flushed, so a killed
    process loses at most the entry it was writing. A torn final line (one
    without its newline that does not parse) is dropped with a warning and
    cut off before the next append; any other unreadable line is an error.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.entries: dict[str, ChatResponse] = {}
        self._lock = threading.Lock()
        self._fh = None
        self._torn_at: int | None = None  # offset of a torn final line, cut before the next append
        self._newline = False  # the last entry lacks its newline
        if self.path.exists():
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
                            raise GatewayError(f"{self.path} line {line_no}: unreadable entry: {exc}") from exc
                        logger.warning("%s line %d: dropping torn final entry", self.path, line_no)
                        self._torn_at = offset
                        return
                    self._newline = not complete
                offset += len(line)

    def lookup(self, digest: str) -> ChatResponse | None:
        return self.entries.get(digest)

    def record(self, digest: str, response: ChatResponse) -> None:
        line = json.dumps({"request_digest": digest, "response": response.to_dict()}, sort_keys=True)
        with self._lock:
            if digest in self.entries:
                return
            self.entries[digest] = response
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

    def __init__(self, provider_name: str):
        """The client of `provider_name`'s endpoint, with the key its
        environment variable holds: the one check of a run's model key."""
        if provider_name not in self.ENDPOINTS:
            raise GatewayError(f"unknown model id: {provider_name!r}")
        self.provider_name = provider_name
        self.endpoint = self.ENDPOINTS[provider_name]
        env_var = f"FAULTLOOM_API_KEY_{provider_name.upper()}"
        self._api_key = os.environ.get(env_var)
        if not self._api_key:
            raise GatewayError(f"{env_var} is not set")

    def send(self, request: ChatRequest) -> ChatResponse:
        import requests

        _, model = split_model_id(request.model_id)
        start = time.monotonic()
        try:
            resp = requests.post(
                self.endpoint,
                headers={"Authorization": f"Bearer {self._api_key}"},
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
        except requests.RequestException as exc:
            raise TransientProviderError(f"{self.endpoint}: {exc}") from exc
        latency_ms = (time.monotonic() - start) * 1000
        raise_transient(resp.status_code, f"{self.endpoint}: {resp.text[:200]}", resp.headers.get("Retry-After"))
        if resp.status_code != 200:
            raise GatewayError(f"provider error HTTP {resp.status_code}: {resp.text[:200]}")
        try:  # a reply that is no chat completion: not JSON, no choices, no message
            payload = resp.json()
            text, usage = payload["choices"][0]["message"]["content"] or "", payload.get("usage", {})
            input_tokens, output_tokens = int(usage.get("prompt_tokens", 0)), int(usage.get("completion_tokens", 0))
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise GatewayError(f"{self.endpoint}: malformed completion: {resp.text[:200]}") from exc
        return ChatResponse(text=text, input_tokens=input_tokens, output_tokens=output_tokens,
                            latency_ms=latency_ms, provider_meta={"provider": self.provider_name})


def split_model_id(model_id: str) -> tuple[str, str]:
    provider, _, model = model_id.partition("/")
    if not provider or not model:
        raise GatewayError(f"unknown model id: {model_id!r}")
    return provider, model


def provider_for_model(model_id: str) -> Provider:
    provider_name, _ = split_model_id(model_id)
    return OpenAICompatProvider(provider_name)


class RateLimiter:
    """Bounds the provider calls in flight to `max_concurrent`."""

    def __init__(self, max_concurrent: int):
        self._semaphore = threading.Semaphore(max_concurrent)

    def __enter__(self):
        self._semaphore.acquire()
        return self

    def __exit__(self, *exc):
        self._semaphore.release()


@dataclass
class UsageTally(Record):
    requests: int = 0
    input_tokens: int = 0
    output_tokens: int = 0


class Gateway:
    """Chat-completion front door: a request is served from the transcript,
    if the gateway holds one; on a miss the provider, if it holds one, is
    asked (with retries) and a transcript appends the answer, and without a
    provider a miss is a ReplayMissError. The mode decides only which of the
    two it holds: live a provider, replay a transcript, record both.

    `map` runs a stage's per-issue calls, up to `parallelism` issues at once.
    """

    def __init__(
        self,
        mode: str = "replay",
        transcript: Transcript | None = None,
        provider: Provider | None = None,
        parallelism: int = 1,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if mode not in MODES:
            raise ValueError(f"unknown gateway mode: {mode!r}")
        for held, needed, what in ((provider, mode != "replay", "provider"), (transcript, mode != "live", "transcript")):
            if (held is not None) != needed:
                raise ValueError(f"{mode} mode {'requires a' if needed else 'takes no'} {what}")
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self.transcript = transcript
        self._provider = provider
        self.parallelism = parallelism
        self.limiter = RateLimiter(parallelism)
        self.sleep = sleep
        self._usage_lock = threading.Lock()
        self.usage: dict[str, UsageTally] = {}

    def _account(self, model_id: str, response: ChatResponse) -> None:
        with self._usage_lock:
            tally = self.usage.setdefault(model_id, UsageTally())
            tally.requests += 1
            tally.input_tokens += response.input_tokens
            tally.output_tokens += response.output_tokens

    def complete(self, request: ChatRequest) -> ChatResponse:
        digest = request_digest(request)
        response = self.transcript.lookup(digest) if self.transcript is not None else None
        if response is None:
            if self._provider is None:
                raise ReplayMissError(f"transcript has no entry for request digest {digest}")

            def send(attempt: int) -> ChatResponse:
                with self.limiter:
                    response = self._provider.send(request)
                response.provider_meta.setdefault("attempts", attempt)
                return response

            response = retry(send, digest, self.sleep)
            if self.transcript is not None:
                self.transcript.record(digest, response)
        self._account(request.model_id, response)
        return response

    def map(self, one: Callable[[IssueRecord], T], issues: Iterable[IssueRecord]) -> list[T]:
        """`one(issue)` for each issue, in input order: inline without a
        provider, as in replay, or at `parallelism` 1, else on a pool of
        `parallelism` threads. The first issue in input order whose call
        raises ends the batch with a GatewayError naming it and the error:
        no issue starts after a call has raised, and those in flight finish,
        so that their answers reach the transcript."""
        failed = threading.Event()  # issues start in input order, so each one it stops is after the failure

        def named(issue: IssueRecord) -> T:
            if failed.is_set():
                raise GatewayError(f"{issue.repo}#{issue.number}: not asked after an earlier failure")
            try:
                return one(issue)
            except Exception as exc:
                failed.set()
                raise GatewayError(f"{issue.repo}#{issue.number}: {type(exc).__name__}: {exc}") from exc

        if self._provider is None or self.parallelism == 1:
            return [named(issue) for issue in issues]
        with ThreadPoolExecutor(max_workers=self.parallelism) as pool:
            return list(pool.map(named, issues))


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
        raise StructuredOutputError("no well-formed structured object found in output")
    if expected_fields:
        missing = sorted(name for name in expected_fields if name not in obj)
        if missing:
            raise StructuredOutputError(f"structured object missing fields: {', '.join(missing)}")
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
