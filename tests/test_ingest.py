import json
import re

import pytest

from faultloom.errors import CorpusError, RetriesExhaustedError
from faultloom.gateway import MAX_RETRY_AFTER
from faultloom.ingest import DEFAULT_CACHE_TTL_SECONDS, IssueFetcher, PageCache, _parse_next_link

from fakes import FakeTransport

API = "https://api.github.com"
ISSUES_URL = f"{API}/repos/acme/demo/issues"
PAGE2_URL = f"{ISSUES_URL}?page=2"


def _raw_issue(number, created="2021-03-01T00:00:00Z", pull=False, comments=0):
    raw = {
        "number": number,
        "title": f"issue {number}",
        "state": "open",
        "created_at": created,
        "updated_at": created,
        "closed_at": None,
        "body": "body text",
        "labels": [{"name": "bug"}],
        "comments": comments,
        "html_url": f"https://example.test/acme/demo/issues/{number}",
    }
    if pull:
        raw["pull_request"] = {"url": "x"}
    return raw


def test_parse_next_link():
    header = f'<{PAGE2_URL}>; rel="next", <{ISSUES_URL}?page=5>; rel="last"'
    assert _parse_next_link(header) == PAGE2_URL
    assert _parse_next_link(None) is None
    assert _parse_next_link('<x>; rel="last"') is None


def _two_page_transport(link="Link"):
    page1 = [_raw_issue(i) for i in range(1, 31)]
    page2 = [_raw_issue(i) for i in range(31, 43)]
    return FakeTransport(
        {
            ISSUES_URL: [(200, {link: f'<{PAGE2_URL}>; rel="next"'}, json.dumps(page1))],
            PAGE2_URL: [(200, {}, json.dumps(page2))],
        }
    )


def test_two_page_pagination_counts():
    fetcher = IssueFetcher(transport=_two_page_transport())
    corpus = fetcher.fetch_issues("acme/demo")
    assert len(corpus) == 42
    assert corpus[0].number == 1
    assert corpus[-1].number == 42


@pytest.mark.parametrize("link", ["link", "LINK"])
def test_header_names_are_read_without_regard_to_case(link):
    assert len(IssueFetcher(transport=_two_page_transport(link)).fetch_issues("acme/demo")) == 42
    headers = {"x-ratelimit-remaining": "0", "X-RATELIMIT-RESET": "1700000000"}
    transport = FakeTransport({ISSUES_URL: [(403, headers, "limited")]})
    with pytest.raises(CorpusError, match="rate limit exhausted; resets at 1700000000"):
        IssueFetcher(transport=transport, sleep=lambda s: None).fetch_issues("acme/demo")


def test_pull_requests_excluded():
    items = [_raw_issue(1), _raw_issue(2, pull=True), _raw_issue(3)]
    transport = FakeTransport({ISSUES_URL: [(200, {}, json.dumps(items))]})
    corpus = IssueFetcher(transport=transport).fetch_issues("acme/demo")
    assert [r.number for r in corpus] == [1, 3]
    assert all(not r.is_pull_request for r in corpus)


def test_empty_repository():
    transport = FakeTransport({ISSUES_URL: [(200, {}, "[]")]})
    corpus = IssueFetcher(transport=transport).fetch_issues("acme/demo")
    assert len(corpus) == 0


def test_cache_avoids_second_fetch(tmp_path):
    transport = _two_page_transport()
    cache = PageCache(tmp_path / "cache")
    fetcher = IssueFetcher(transport=transport, cache=cache)
    first = fetcher.fetch_issues("acme/demo")
    calls_after_first = transport.calls
    second = fetcher.fetch_issues("acme/demo")
    assert transport.calls == calls_after_first == 2
    assert [r.to_dict() for r in first] == [r.to_dict() for r in second]


def test_cache_expires(tmp_path):
    cache = PageCache(tmp_path / "cache")
    cache.put("k", {"v": 1}, now=0.0)
    assert cache.get("k", now=DEFAULT_CACHE_TTL_SECONDS) == {"v": 1}
    assert cache.get("k", now=DEFAULT_CACHE_TTL_SECONDS + 1) is None


@pytest.mark.parametrize("damage", ["torn", "old format", "not an object"])
def test_unreadable_cache_entry_is_a_miss_fetched_again(tmp_path, damage):
    cache = PageCache(tmp_path / "cache")
    transport = _two_page_transport()
    fetcher = IssueFetcher(transport=transport, cache=cache)
    first = fetcher.fetch_issues("acme/demo")
    entries = sorted((tmp_path / "cache").iterdir())
    assert [p.suffix for p in entries] == [".json", ".json"]  # no temp file left
    for path in entries:
        text = path.read_text()
        if damage == "torn":
            path.write_text(text[: len(text) // 2])
        elif damage == "old format":  # the page as a JSON string in "body"
            entry = json.loads(text)
            path.write_text(json.dumps({"fetched_at": entry["fetched_at"], "body": json.dumps(entry["page"])}))
        else:
            path.write_text("[]")
    calls = transport.calls
    again = fetcher.fetch_issues("acme/demo")
    assert transport.calls == calls + 2
    assert [r.to_dict() for r in again] == [r.to_dict() for r in first]
    assert fetcher.fetch_issues("acme/demo") and transport.calls == calls + 2  # rewritten whole


def test_retry_then_success():
    ok = (200, {}, json.dumps([_raw_issue(1)]))
    transport = FakeTransport({ISSUES_URL: [(500, {}, "boom"), (500, {}, "boom"), ok]})
    sleeps = []
    fetcher = IssueFetcher(transport=transport, sleep=sleeps.append)
    corpus = fetcher.fetch_issues("acme/demo")
    assert len(corpus) == 1
    assert len(sleeps) == 2
    assert sleeps[1] > sleeps[0]


@pytest.mark.parametrize("status", [429, 503])
@pytest.mark.parametrize("header, first", [("7", 7.0), ("86400", MAX_RETRY_AFTER), ("soon", None)], ids=["seconds", "huge", "word"])
def test_a_tracker_page_waits_the_delay_seconds_of_retry_after(status, header, first):
    ok = (200, {}, json.dumps([_raw_issue(1)]))
    sleeps = []
    for headers in ({"Retry-After": header}, {}):
        transport = FakeTransport({ISSUES_URL: [(status, headers, "busy"), ok]})
        assert len(IssueFetcher(transport=transport, sleep=sleeps.append).fetch_issues("acme/demo")) == 1
    backoff = sleeps.pop()
    assert 0.5 <= backoff <= 0.75
    assert sleeps == [backoff if first is None else first]


def test_retries_exhausted():
    transport = FakeTransport({ISSUES_URL: [(500, {}, "boom")]})
    fetcher = IssueFetcher(transport=transport, sleep=lambda s: None)
    with pytest.raises(RetriesExhaustedError) as exc:
        fetcher.fetch_issues("acme/demo")
    assert "4 attempts" in str(exc.value)
    assert transport.calls == 4


def test_a_transport_error_that_is_not_transient_is_not_retried():
    calls = []

    def transport(url, headers, params):
        calls.append(url)
        raise ValueError("not a network failure")

    with pytest.raises(ValueError):
        IssueFetcher(transport=transport, sleep=lambda s: None).fetch_issues("acme/demo")
    assert calls == [ISSUES_URL]


def test_rate_limit_reports_reset_time():
    headers = {"X-RateLimit-Remaining": "0", "X-RateLimit-Reset": "1700000000"}
    transport = FakeTransport({ISSUES_URL: [(403, headers, "limited")]})
    fetcher = IssueFetcher(transport=transport, sleep=lambda s: None)
    with pytest.raises(CorpusError, match="^rate limit exhausted; resets at 1700000000$"):
        fetcher.fetch_issues("acme/demo")


@pytest.mark.parametrize(
    "body, text",
    [
        ("<html>busy</html>", f"{ISSUES_URL}: invalid JSON: Expecting value: line 1 column 1 (char 0)"),
        ('{"message": "moved"}', f"expected a JSON list from {ISSUES_URL}"),
    ],
    ids=["not JSON", "not a list"],
)
def test_a_page_that_is_not_a_json_list_is_an_ingest_error_and_not_cached(tmp_path, body, text):
    transport = FakeTransport({ISSUES_URL: [(200, {}, body)]})
    fetcher = IssueFetcher(transport=transport, cache=PageCache(tmp_path / "cache"))
    for _ in range(2):
        with pytest.raises(CorpusError, match=f"^{re.escape(text)}$"):
            fetcher.fetch_issues("acme/demo")
    assert transport.calls == 2
    assert list((tmp_path / "cache").glob("*")) == []


def test_an_issue_without_state_is_an_ingest_error_naming_the_url():
    raw = _raw_issue(1)
    del raw["state"]
    transport = FakeTransport({ISSUES_URL: [(200, {}, json.dumps([raw]))]})
    with pytest.raises(CorpusError) as exc:
        IssueFetcher(transport=transport).fetch_issues("acme/demo")
    assert str(exc.value) == f"{ISSUES_URL}: KeyError('missing or null: state')"


def test_a_comment_without_created_at_is_an_ingest_error_naming_its_url():
    comments_url = f"{ISSUES_URL}/5/comments"
    transport = FakeTransport({
        ISSUES_URL: [(200, {}, json.dumps([_raw_issue(5, comments=1)]))],
        comments_url: [(200, {}, json.dumps([{"author_association": "NONE", "body": "hi"}]))],
    })
    with pytest.raises(CorpusError) as exc:
        IssueFetcher(transport=transport).fetch_issues("acme/demo")
    assert str(exc.value) == f"{comments_url}: KeyError('created_at')"


def test_comments_fetched_and_ordered():
    issue = _raw_issue(5, comments=2)
    comments_url = f"{API}/repos/acme/demo/issues/5/comments"
    comments = [
        {"author_association": "NONE", "created_at": "2021-03-02T10:00:00Z", "body": "later"},
        {"author_association": "MEMBER", "created_at": "2021-03-02T09:00:00Z", "body": "earlier"},
    ]
    transport = FakeTransport(
        {
            ISSUES_URL: [(200, {}, json.dumps([issue]))],
            comments_url: [(200, {}, json.dumps(comments))],
        }
    )
    corpus = IssueFetcher(transport=transport).fetch_issues("acme/demo")
    bodies = [c.body for c in corpus[0].comments]
    assert bodies == ["earlier", "later"]
