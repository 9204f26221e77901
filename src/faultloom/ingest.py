"""Issue-tracker ingestion: paginated fetching, retries, and a local page cache.

The HTTP transport is injectable so tests run against recorded page fixtures
with zero network traffic; the default transport uses `requests`.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .corpus import IssueRecord, parse_timestamp, write_atomic
from .errors import CorpusError, RecordInvariantError, TransientProviderError
from .gateway import raise_transient, retry

TOKEN_ENV_VAR = "FAULTLOOM_VCS_TOKEN"
API_BASE = "https://api.github.com"
DEFAULT_CACHE_TTL_SECONDS = 24 * 3600

# (status, headers, body_text)
TransportResponse = tuple[int, dict, str]
Transport = Callable[[str, dict, dict], TransportResponse]


def requests_transport(url: str, headers: dict, params: dict) -> TransportResponse:
    import requests

    try:
        resp = requests.get(url, headers=headers, params=params, timeout=30)
    except requests.RequestException as exc:
        raise TransientProviderError(f"{url}: {exc}") from exc
    return resp.status_code, dict(resp.headers), resp.text


def _json_list(body: str, url: str) -> list:
    try:
        page = json.loads(body)
    except ValueError as exc:
        raise CorpusError(f"{url}: invalid JSON: {exc}") from exc
    if not isinstance(page, list):
        raise CorpusError(f"expected a JSON list from {url}")
    return page


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
    """Content-addressed page store keyed by request URL + params, with a TTL
    of DEFAULT_CACHE_TTL_SECONDS. Each entry is one JSON object, written through
    `write_atomic`; an entry that does not read as one is a miss."""

    root: Path

    def _path(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return self.root / f"{digest}.json"

    def get(self, key: str, now: float | None = None) -> dict | None:
        now = time.time() if now is None else now
        try:
            entry = json.loads(self._path(key).read_text(encoding="utf-8"))
            if now - entry["fetched_at"] <= DEFAULT_CACHE_TTL_SECONDS and isinstance(entry["page"], dict):
                return entry["page"]
        except (OSError, ValueError, KeyError, TypeError):
            pass
        return None

    def put(self, key: str, page: dict, now: float | None = None) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        entry = {"fetched_at": time.time() if now is None else now, "page": page}
        write_atomic(self._path(key), [json.dumps(entry).encode("utf-8")])


class IssueFetcher:
    """Fetches issues from the GitHub REST API, authenticated by the token
    in FAULTLOOM_VCS_TOKEN when it is set. Header names are read without
    regard to case."""

    def __init__(
        self,
        transport: Transport | None = None,
        cache: PageCache | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.transport = transport or requests_transport
        self.cache = cache
        self.sleep = sleep

    def _headers(self) -> dict:
        headers = {"Accept": "application/vnd.github+json"}
        if token := os.environ.get(TOKEN_ENV_VAR):
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def _get(self, url: str, params: dict) -> tuple[dict, list]:
        """The headers, with lower-case names, and the JSON list of the page.
        A body that is not one is a CorpusError and is not cached."""
        cache_key = url + "?" + json.dumps(params, sort_keys=True)
        if self.cache is not None and (page := self.cache.get(cache_key)) is not None:
            return page["headers"], _json_list(page["body"], url)

        def send(attempt: int) -> tuple[dict, str]:
            status, headers, body = self.transport(url, self._headers(), params)
            headers = {k.lower(): v for k, v in headers.items()}
            if status == 403 and headers.get("x-ratelimit-remaining") == "0":
                raise CorpusError(f"rate limit exhausted; resets at {headers.get('x-ratelimit-reset', 'unknown')}")
            raise_transient(status, url, headers.get("retry-after"))
            if status != 200:
                raise CorpusError(f"HTTP {status} from {url}: {body[:200]}")
            return headers, body

        headers, body = retry(send, cache_key, self.sleep)
        page = _json_list(body, url)
        if self.cache is not None:
            keep = {k: v for k, v in headers.items() if k in ("link", "content-type")}
            self.cache.put(cache_key, {"headers": keep, "body": body})
        return headers, page

    def _paginate(self, url: str, params: dict) -> list[dict]:
        items: list[dict] = []
        next_url: str | None = url
        next_params = dict(params)
        while next_url:
            headers, page = self._get(next_url, next_params)
            items.extend(page)
            next_url = _parse_next_link(headers.get("link"))
            next_params = {}  # the next link already carries its query string
        return items

    def fetch_issues(self, repo: str) -> list[IssueRecord]:
        """Fetch all non-pull-request issues for a repo, with their comments.

        Pull requests surfaced by the issues endpoint are dropped; Stage II's
        `cutoff_date` is the date rule. An issue or a comment that does not
        read as one is a CorpusError naming the URL it came from.
        """
        url = f"{API_BASE}/repos/{repo}/issues"
        records: list[IssueRecord] = []
        for raw in self._paginate(url, {"state": "all", "per_page": 100}):
            where = url
            try:
                if "pull_request" in raw:
                    continue
                comments = []
                if raw.get("comments", 0):
                    where = f"{url}/{raw['number']}/comments"
                    comments = [
                        {"author_role": c.get("author_association"), "created_at": c["created_at"],
                         "body": c.get("body")} for c in self._paginate(where, {"per_page": 100})
                    ]
                    comments.sort(key=lambda c: parse_timestamp(c["created_at"]))
                    where = url
                labels = [l["name"] if isinstance(l, dict) else l for l in raw.get("labels", [])]
                records.append(IssueRecord.from_dict(
                    {**raw, "repo": repo, "labels": labels, "comments": comments, "url": raw.get("html_url")}
                ))
            except (AttributeError, KeyError, TypeError, ValueError, RecordInvariantError) as exc:
                raise CorpusError(f"{where}: {exc!r}") from exc
        return records
