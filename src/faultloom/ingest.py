"""Issue-tracker ingestion: paginated fetching, retries, and a local page cache.

The HTTP transport is injectable so tests run against recorded page fixtures
with zero network traffic; the default transport uses `requests`.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

from .corpus import Corpus, IssueRecord, parse_timestamp
from .errors import IngestError, RateLimitExhaustedError

logger = logging.getLogger(__name__)

TOKEN_ENV_VAR = "FAULTLOOM_VCS_TOKEN"
DEFAULT_API_BASE = "https://api.github.com"
DEFAULT_CACHE_TTL_SECONDS = 24 * 3600
MAX_ATTEMPTS = 4

# (status, headers, body_text)
TransportResponse = tuple[int, dict, str]
Transport = Callable[[str, dict, dict], TransportResponse]


def requests_transport(url: str, headers: dict, params: dict) -> TransportResponse:
    import requests

    resp = requests.get(url, headers=headers, params=params, timeout=30)
    return resp.status_code, dict(resp.headers), resp.text


def _parse_next_link(link_header: str | None) -> str | None:
    if not link_header:
        return None
    for part in link_header.split(","):
        match = re.match(r'\s*<([^>]+)>;\s*rel="next"', part)
        if match:
            return match.group(1)
    return None


@dataclass
class PageCache:
    """Content-addressed page store keyed by request URL + params, with TTL."""

    root: Path
    ttl_seconds: float = DEFAULT_CACHE_TTL_SECONDS

    def _path(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return self.root / f"{digest}.json"

    def get(self, key: str, now: float | None = None) -> str | None:
        path = self._path(key)
        if not path.exists():
            return None
        entry = json.loads(path.read_text(encoding="utf-8"))
        now = time.time() if now is None else now
        if now - entry["fetched_at"] > self.ttl_seconds:
            return None
        return entry["body"]

    def put(self, key: str, body: str, now: float | None = None) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        entry = {"fetched_at": time.time() if now is None else now, "body": body}
        self._path(key).write_text(json.dumps(entry), encoding="utf-8")


class IssueFetcher:
    def __init__(
        self,
        transport: Transport | None = None,
        cache: PageCache | None = None,
        api_base: str = DEFAULT_API_BASE,
        auth_token: str | None = None,
        max_attempts: int = MAX_ATTEMPTS,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.transport = transport or requests_transport
        self.cache = cache
        self.api_base = api_base.rstrip("/")
        self.auth_token = auth_token or os.environ.get(TOKEN_ENV_VAR)
        self.max_attempts = max_attempts
        self.sleep = sleep
        self.network_calls = 0

    def _headers(self) -> dict:
        headers = {"Accept": "application/vnd.github+json"}
        if self.auth_token:
            headers["Authorization"] = f"Bearer {self.auth_token}"
        return headers

    def _get(self, url: str, params: dict) -> TransportResponse:
        cache_key = url + "?" + json.dumps(params, sort_keys=True)
        if self.cache is not None:
            cached = self.cache.get(cache_key)
            if cached is not None:
                entry = json.loads(cached)
                return entry["status"], entry["headers"], entry["body"]

        delay = 0.5
        last_error: Exception | None = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                status, headers, body = self.transport(url, self._headers(), params)
                self.network_calls += 1
            except Exception as exc:
                last_error = exc
                logger.warning("transport error on %s (attempt %d): %s", url, attempt, exc)
                if attempt < self.max_attempts:
                    self.sleep(delay)
                    delay *= 2
                continue
            if status == 403 and headers.get("X-RateLimit-Remaining") == "0":
                reset = headers.get("X-RateLimit-Reset", "unknown")
                raise RateLimitExhaustedError(str(reset))
            if status >= 500 or status == 429:
                last_error = IngestError(f"HTTP {status} from {url}")
                if attempt < self.max_attempts:
                    self.sleep(delay)
                    delay *= 2
                continue
            if status != 200:
                raise IngestError(f"HTTP {status} from {url}: {body[:200]}")
            if self.cache is not None:
                keep = {
                    k: v for k, v in headers.items()
                    if k.lower() in ("link", "content-type")
                }
                self.cache.put(
                    cache_key,
                    json.dumps({"status": status, "headers": keep, "body": body}),
                )
            return status, headers, body
        raise IngestError(
            f"request to {url} failed after {self.max_attempts} attempts: {last_error}"
        )

    def _paginate(self, url: str, params: dict) -> list[dict]:
        items: list[dict] = []
        next_url: str | None = url
        next_params = dict(params)
        while next_url:
            status, headers, body = self._get(next_url, next_params)
            page = json.loads(body)
            if not isinstance(page, list):
                raise IngestError(f"expected a JSON list from {next_url}")
            items.extend(page)
            next_url = _parse_next_link(headers.get("Link"))
            next_params = {}  # the next link already carries its query string
        return items

    def fetch_issues(
        self,
        repo: str,
        window: tuple[datetime, datetime] | None = None,
    ) -> Corpus:
        """Fetch all non-pull-request issues for a repo, with their comments.

        Pull requests surfaced by the issues endpoint are dropped. When a
        creation window is given, issues created outside it are skipped
        (comments are not fetched for them).
        """
        url = f"{self.api_base}/repos/{repo}/issues"
        raw_issues = self._paginate(url, {"state": "all", "per_page": 100})

        records: list[IssueRecord] = []
        for raw in raw_issues:
            if "pull_request" in raw:
                continue
            created_at = parse_timestamp(raw["created_at"])
            if window is not None and not (window[0] <= created_at <= window[1]):
                continue
            comments = []
            if raw.get("comments", 0):
                comments_url = f"{self.api_base}/repos/{repo}/issues/{raw['number']}/comments"
                comments = [
                    {"author_role": c.get("author_association"), "created_at": c["created_at"], "body": c.get("body")}
                    for c in self._paginate(comments_url, {"per_page": 100})
                ]
                comments.sort(key=lambda c: parse_timestamp(c["created_at"]))
            labels = [l["name"] if isinstance(l, dict) else l for l in raw.get("labels", [])]
            records.append(IssueRecord.from_dict(
                {**raw, "repo": repo, "labels": labels, "comments": comments, "url": raw.get("html_url")}
            ))
        return Corpus(records=records, source="live", fetched_at=datetime.now(timezone.utc))
