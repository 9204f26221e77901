import json
import logging
import sys
import threading
import time
from dataclasses import replace

import pytest
import requests

from faultloom.errors import (
    FaultloomError,
    GatewayError,
    ReplayMissError,
    RetriesExhaustedError,
    StructuredOutputError,
    TransientProviderError,
)
from faultloom.gateway import (
    MAX_RETRY_AFTER,
    ChatRequest,
    Gateway,
    OpenAICompatProvider,
    Transcript,
    ask_structured,
    extract_structured,
    provider_for_model,
    request_digest,
)

from faultloom.ingest import IssueFetcher

from fakes import FakeTransport, FlakyProvider, ScriptedProvider, make_response
from gen import make_issue

REQ = ChatRequest(model_id="openai/gpt-4o", system_text="sys", user_text="hello")


def test_digest_stable_and_semantic():
    assert request_digest(REQ) == request_digest(
        ChatRequest(model_id="openai/gpt-4o", system_text="sys", user_text="hello")
    )
    changed = ChatRequest(model_id="openai/gpt-4o", system_text="sys", user_text="hello!")
    assert request_digest(changed) != request_digest(REQ)
    other_model = ChatRequest(model_id="openai/gpt-4o-mini", system_text="sys", user_text="hello")
    assert request_digest(other_model) != request_digest(REQ)


def test_request_validation():
    with pytest.raises(ValueError):
        ChatRequest(model_id="m/x", system_text="", user_text="u")
    with pytest.raises(ValueError):
        ChatRequest(model_id="m/x", system_text="s", user_text="u", temperature=-1)


def test_replay_serves_stored_response(tmp_path):
    transcript = Transcript(tmp_path / "t.jsonl")
    stored = make_response('{"answer": 1}')
    transcript.record(request_digest(REQ), stored)
    transcript.close()
    gateway = Gateway(mode="replay", transcript=Transcript(tmp_path / "t.jsonl"))
    response = gateway.complete(REQ)
    assert response.text == stored.text
    assert response.output_tokens == stored.output_tokens


def test_replay_miss_names_digest(tmp_path):
    transcript = Transcript(tmp_path / "t.jsonl")
    gateway = Gateway(mode="replay", transcript=transcript)
    with pytest.raises(ReplayMissError, match=f"^transcript has no entry for request digest {request_digest(REQ)}$"):
        gateway.complete(REQ)


def test_live_retries_then_succeeds():
    provider = FlakyProvider(failures=2)
    sleeps = []
    gateway = Gateway(mode="live", provider=provider, sleep=sleeps.append)
    response = gateway.complete(REQ)
    assert provider.calls == 3
    assert response.provider_meta["attempts"] == 3
    assert len(sleeps) == 2


def _provider_sleeps():
    sleeps = []
    Gateway(mode="live", provider=FlakyProvider(failures=3), sleep=sleeps.append).complete(REQ)
    return sleeps


def _tracker_sleeps():
    url = "https://api.github.com/repos/acme/demo/issues"
    transport = FakeTransport({url: [(503, {}, "busy")] * 3 + [(200, {}, "[]")]})
    sleeps = []
    IssueFetcher(transport=transport, sleep=sleeps.append).fetch_issues("acme/demo")
    return sleeps


def test_backoff_jitter_is_the_same_for_the_same_request():
    """For a provider request and for a tracker page alike."""
    for sleeps in (_provider_sleeps, _tracker_sleeps):
        runs = [sleeps(), sleeps()]
        assert runs[0] == runs[1] != [0.5, 1.0, 2.0]  # seeded, and jittered
        for sleep, delay in zip(runs[0], (0.5, 1.0, 2.0), strict=True):
            assert delay <= sleep <= 1.5 * delay


def test_live_retries_exhausted():
    failures = []

    class Failing:
        def send(self, request):
            failures.append(TransientProviderError(f"failure {len(failures) + 1}"))
            raise failures[-1]

    gateway = Gateway(mode="live", provider=Failing(), sleep=lambda s: None)
    with pytest.raises(RetriesExhaustedError, match="^provider failed after 4 attempts: failure 4$") as exc:
        gateway.complete(REQ)
    assert len(failures) == 4
    assert exc.value.__cause__ is failures[-1]


class _Reply:
    """A reply of `status_code` whose body is `payload` as JSON, or the text
    `body`, with the response `headers`."""

    def __init__(self, status_code, payload=None, body=None, headers=None):
        self.status_code, self.text = status_code, json.dumps(payload) if body is None else body
        self.headers = requests.structures.CaseInsensitiveDict(headers or {})

    def json(self):
        try:
            return json.loads(self.text)
        except ValueError as exc:
            raise requests.JSONDecodeError(exc.msg, exc.doc, exc.pos) from exc


def _posting(monkeypatch, replies):
    """An OpenAI provider whose `requests.post` raises or returns each of
    `replies` in turn; the list of the calls made."""
    calls = []

    def post(url, **kwargs):
        calls.append(url)
        reply = replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply

    monkeypatch.setattr(requests, "post", post)
    monkeypatch.setenv("FAULTLOOM_API_KEY_OPENAI", "key")
    return OpenAICompatProvider("openai"), calls


def test_provider_retries_a_dropped_connection(monkeypatch):
    ok = _Reply(200, {"choices": [{"message": {"content": "hi"}}], "usage": {"prompt_tokens": 3}})
    provider, calls = _posting(monkeypatch, [requests.ConnectionError("reset"), requests.Timeout("slow"), ok])
    sleeps = []
    response = Gateway(mode="live", provider=provider, sleep=sleeps.append).complete(REQ)
    assert (response.text, response.input_tokens, response.provider_meta) == ("hi", 3, {"provider": "openai", "attempts": 3})
    assert len(calls) == 3 and len(sleeps) == 2


# A Retry-After header's delay-seconds, and the first wait it gives (None: the backoff's).
RETRY_AFTER = {
    "seconds": ("7", 7.0),
    "padded": (" 7 ", 7.0),
    "huge": ("86400", MAX_RETRY_AFTER),
    "too long for an int": ("9" * 5000, MAX_RETRY_AFTER),
    "shorter than the backoff": ("0", None),
    "word": ("soon", None),
    "fraction": ("1.5", None),
    "negative": ("-3", None),
    "http-date": ("Wed, 21 Oct 2026 07:28:00 GMT", None),
}


@pytest.mark.parametrize("status", [429, 503])
@pytest.mark.parametrize("header, first", RETRY_AFTER.values(), ids=RETRY_AFTER)
def test_provider_waits_the_delay_seconds_of_retry_after(monkeypatch, status, header, first):
    ok = _Reply(200, {"choices": [{"message": {"content": "hi"}}]})
    provider, calls = _posting(monkeypatch, [_Reply(status, body="busy", headers={"retry-after": header}), ok])
    sleeps = []
    assert Gateway(mode="live", provider=provider, sleep=sleeps.append).complete(REQ).text == "hi"
    assert len(calls) == 2
    assert sleeps == [_provider_sleeps()[0] if first is None else first]


def test_provider_reports_a_client_error_once_as_a_gateway_error(monkeypatch):
    provider, calls = _posting(monkeypatch, [_Reply(401, {"error": "bad key"})])
    with pytest.raises(GatewayError, match="HTTP 401"):
        Gateway(mode="live", provider=provider, sleep=lambda s: None).complete(REQ)
    assert len(calls) == 1


@pytest.mark.parametrize("reply", [_Reply(200, {}), _Reply(200, {"choices": []}), _Reply(200, body="<html>busy</html>")],
                         ids=["no choices", "empty choices", "not JSON"])
def test_provider_reports_a_malformed_completion_once_as_a_gateway_error_naming_the_endpoint(monkeypatch, reply):
    provider, calls = _posting(monkeypatch, [reply])
    with pytest.raises(GatewayError) as exc:
        Gateway(mode="live", provider=provider, sleep=lambda s: None).complete(REQ)
    assert type(exc.value) is GatewayError
    assert str(exc.value) == f"{provider.endpoint}: malformed completion: {reply.text}"
    assert len(calls) == 1


def test_provider_without_its_key_is_a_gateway_error_naming_the_variable(monkeypatch):
    """The provider reads its key once, as it is made: without it there is
    no provider to call."""
    _, calls = _posting(monkeypatch, [])
    monkeypatch.delenv("FAULTLOOM_API_KEY_OPENAI")
    with pytest.raises(GatewayError) as exc:
        OpenAICompatProvider("openai")
    assert type(exc.value) is GatewayError
    assert str(exc.value) == "FAULTLOOM_API_KEY_OPENAI is not set"
    assert calls == []


def test_provider_sends_the_key_it_read_when_made(monkeypatch):
    headers = []
    ok = _Reply(200, {"choices": [{"message": {"content": "hi"}}]})
    monkeypatch.setattr(requests, "post", lambda url, **kwargs: headers.append(kwargs["headers"]) or ok)
    monkeypatch.setenv("FAULTLOOM_API_KEY_OPENAI", "key")
    provider = OpenAICompatProvider("openai")
    monkeypatch.setenv("FAULTLOOM_API_KEY_OPENAI", "changed")
    assert provider.send(REQ).text == "hi"
    assert headers == [{"Authorization": "Bearer key"}]


def test_a_gateway_that_may_call_a_provider_needs_one(tmp_path):
    for mode in ("live", "record"):
        with pytest.raises(ValueError, match=f"^{mode} mode requires a provider$"):
            Gateway(mode=mode, transcript=Transcript(tmp_path / "t.jsonl"))
    Gateway(mode="replay", transcript=Transcript(tmp_path / "t.jsonl"))


def test_a_gateway_holds_only_what_its_mode_uses(tmp_path):
    with pytest.raises(ValueError, match="^live mode takes no transcript$"):
        Gateway(mode="live", transcript=Transcript(tmp_path / "t.jsonl"), provider=ScriptedProvider([]))
    with pytest.raises(ValueError, match="^replay mode takes no provider$"):
        Gateway(mode="replay", transcript=Transcript(tmp_path / "t.jsonl"), provider=ScriptedProvider([]))
    with pytest.raises(ValueError, match="^record mode requires a transcript$"):
        Gateway(mode="record", provider=ScriptedProvider([]))


def test_transcript_lookup_of_a_missing_digest_is_none(tmp_path):
    _recorded(tmp_path / "t.jsonl", [request_digest(REQ)])
    transcript = Transcript(tmp_path / "t.jsonl")
    assert transcript.lookup(request_digest(REQ)).text == request_digest(REQ)
    assert transcript.lookup(request_digest(replace(REQ, user_text="other"))) is None


def test_record_then_replay_round_trip(tmp_path):
    path = tmp_path / "t.jsonl"
    provider = ScriptedProvider(['{"x": 1}'])
    recorder = Gateway(mode="record", transcript=Transcript(path), provider=provider)
    recorded = recorder.complete(REQ)
    recorder.transcript.close()

    replayer = Gateway(mode="replay", transcript=Transcript(path))
    replayed = replayer.complete(REQ)
    assert replayed.text == recorded.text
    assert provider.calls == 1


def test_token_accounting_is_additive(tmp_path):
    provider = ScriptedProvider(['{"a": 1}', '{"b": 2}'])
    gateway = Gateway(mode="live", provider=provider)
    r1 = gateway.complete(REQ)
    r2 = gateway.complete(
        ChatRequest(model_id="openai/gpt-4o", system_text="sys", user_text="again")
    )
    expected = r1.input_tokens + r1.output_tokens + r2.input_tokens + r2.output_tokens
    tally = gateway.usage["openai/gpt-4o"]
    assert tally.input_tokens + tally.output_tokens == expected
    assert tally.requests == 2


def test_unknown_model_id():
    with pytest.raises(GatewayError, match="^unknown model id: 'no-slash'$"):
        provider_for_model("no-slash")
    with pytest.raises(GatewayError, match="^unknown model id: 'mystery'$"):
        provider_for_model("mystery/model")


def test_transcript_append_only(tmp_path):
    path = tmp_path / "t.jsonl"
    transcript = Transcript(path)
    transcript.record("d1", make_response("one"))
    transcript.record("d2", make_response("two"))
    transcript.record("d1", make_response("one-again"))  # ignored duplicate
    lines = path.read_text().strip().splitlines()  # flushed while still open
    transcript.close()
    assert len(lines) == 2
    assert json.loads(lines[0])["request_digest"] == "d1"


def _recorded(path, digests):
    transcript = Transcript(path)
    for digest in digests:
        transcript.record(digest, make_response(digest))
    transcript.close()


def test_torn_final_line_is_dropped_and_cut_before_the_next_append(tmp_path, caplog):
    path = tmp_path / "t.jsonl"
    _recorded(path, ["d1", "d2", "d3"])
    with open(path, "r+b") as fh:
        fh.truncate(path.stat().st_size - 40)
    with caplog.at_level(logging.WARNING, logger="faultloom.gateway"):
        transcript = Transcript(path)
    assert sorted(transcript.entries) == ["d1", "d2"]
    assert "line 3" in caplog.text
    transcript.record("d4", make_response("d4"))
    transcript.close()
    lines = path.read_text().splitlines()
    assert [json.loads(line)["request_digest"] for line in lines] == ["d1", "d2", "d4"]


def test_complete_final_line_without_newline_is_kept(tmp_path):
    path = tmp_path / "t.jsonl"
    _recorded(path, ["d1", "d2"])
    with open(path, "r+b") as fh:
        fh.truncate(path.stat().st_size - 1)
    transcript = Transcript(path)
    assert sorted(transcript.entries) == ["d1", "d2"]
    transcript.record("d3", make_response("d3"))
    transcript.close()
    assert [json.loads(line)["request_digest"] for line in path.read_text().splitlines()] == ["d1", "d2", "d3"]


@pytest.mark.parametrize("bad_line", [2, 3])
def test_unreadable_transcript_line_names_its_line_number(tmp_path, bad_line):
    path = tmp_path / "t.jsonl"
    _recorded(path, ["d1", "d2", "d3"])
    lines = path.read_text().splitlines(keepends=True)
    lines[bad_line - 1] = lines[bad_line - 1][:30] + "\n"
    path.write_text("".join(lines))
    with pytest.raises(FaultloomError, match=f"line {bad_line}:"):
        Transcript(path)


def test_concurrent_records_are_flushed_whole_and_once(tmp_path):
    path = tmp_path / "t.jsonl"
    transcript = Transcript(path)
    midway = threading.Barrier(5, timeout=10)

    def worker(n):
        for half in (0, 1):
            for i in range(50):
                transcript.record(f"t{n}-{half}-{i}", make_response("x" * i))
                transcript.record(f"shared-{half}-{i}", make_response(f"from {n}"))  # once in all
            if half == 0:
                midway.wait()
                midway.wait()

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        midway.wait()  # every thread has recorded its first half
        reader = Transcript(path)
        midway.wait()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    transcript.close()

    assert len(reader.entries) == 250
    assert all(digest.split("-")[1] == "0" for digest in reader.entries)
    lines = path.read_text().splitlines()
    digests = [json.loads(line)["request_digest"] for line in lines]
    assert len(digests) == len(set(digests)) == 500
    assert Transcript(path).entries == transcript.entries


def test_record_mode_serves_recorded_requests_without_the_provider(tmp_path):
    path = tmp_path / "t.jsonl"
    _recorded(path, [request_digest(REQ)])
    provider = ScriptedProvider(['{"fresh": 1}'])
    gateway = Gateway(mode="record", transcript=Transcript(path), provider=provider)
    assert gateway.complete(REQ).text == request_digest(REQ)
    other = replace(REQ, user_text="other")
    assert gateway.complete(other).text == '{"fresh": 1}'
    assert provider.calls == 1
    assert gateway.usage["openai/gpt-4o"].requests == 2
    gateway.transcript.close()
    assert len(path.read_text().splitlines()) == 2


class _PerIssue:
    """Answers "issue <n>" requests; raises for `failing`, and holds the
    calls for issues 1 and 2 until both are in flight when `both` is set."""

    def __init__(self, failing: int, both: bool = False):
        self.failing, self.asked = failing, []
        self.barrier = threading.Barrier(2, timeout=5) if both else None

    def send(self, request):
        number = int(request.user_text.split()[1])
        self.asked.append(number)
        if self.barrier is not None and number in (1, 2):
            self.barrier.wait()
            if number != self.failing:
                time.sleep(0.1)  # still in flight when the failure ends the batch
        if number == self.failing:
            raise GatewayError("provider error HTTP 401: bad key")
        return make_response(f"answer {number}")


def _map(tmp_path, provider, parallelism):
    path = tmp_path / "t.jsonl"
    gateway = Gateway(mode="record", transcript=Transcript(path), provider=provider, parallelism=parallelism)
    with pytest.raises(GatewayError) as caught:
        gateway.map(lambda issue: gateway.complete(replace(REQ, user_text=f"issue {issue.number}")).text,
                    [make_issue(number=n) for n in range(1, 5)])
    gateway.transcript.close()
    return str(caught.value), [json.loads(line)["response"]["text"] for line in path.read_text().splitlines()]


def test_map_ends_the_batch_at_the_first_failed_call_and_keeps_the_answers_in_flight(tmp_path):
    provider = _PerIssue(failing=3)
    error, recorded = _map(tmp_path / "inline", provider, 1)
    assert error == "acme/dlpipe#3: GatewayError: provider error HTTP 401: bad key"
    assert provider.asked == [1, 2, 3]  # no later issue is asked
    assert recorded == ["answer 1", "answer 2"]

    provider = _PerIssue(failing=1, both=True)
    error, recorded = _map(tmp_path / "pooled", provider, 2)
    assert error == "acme/dlpipe#1: GatewayError: provider error HTTP 401: bad key"
    assert sorted(provider.asked) == [1, 2]  # issues 3 and 4 had not started
    assert recorded == ["answer 2"]  # issue 2 was in flight when issue 1 failed


def test_extract_structured_from_code_fence():
    text = 'Sure!\n```json\n{"fault_related": true, "rationale": "crash"}\n```'
    fields = extract_structured(text, {"fault_related", "rationale"})
    assert fields["fault_related"] is True


def test_extract_structured_ignores_trailing_prose():
    text = '{"fault_related": false, "rationale": "docs"} I hope this helps!'
    fields = extract_structured(text, {"fault_related"})
    assert fields["rationale"] == "docs"


def test_extract_structured_skips_broken_braces():
    text = "set {a} then {\"symptom\": \"Memory Leak\", \"root_cause\": \"Unknown\"}"
    fields = extract_structured(text, {"symptom", "root_cause"})
    assert fields["symptom"] == "Memory Leak"


def test_extract_structured_no_object():
    with pytest.raises(StructuredOutputError, match="^no well-formed structured object found in output$"):
        extract_structured("no braces here at all")


def test_extract_structured_missing_field():
    with pytest.raises(StructuredOutputError, match="^structured object missing fields: fault_related$"):
        extract_structured('{"rationale": "x"}', {"fault_related"})


def _ask(gateway, request=REQ):
    return ask_structured(
        gateway, request,
        lambda text: extract_structured(text, {"ok"}),
        lambda exc: f" [rejected: {exc}]",
    )


@pytest.mark.parametrize(
    "texts, attempts",
    [(['{"ok": 1}'], 1), (["junk", '{"ok": 1}'], 2), (["junk", "{}", '{"ok": 1}'], 3)],
)
def test_ask_structured_repairs_until_parsed(texts, attempts):
    provider = ScriptedProvider(texts)
    answer = _ask(Gateway(mode="live", provider=provider), replace(REQ, max_output_tokens=64))
    assert (answer.value, answer.attempts, answer.error) == ({"ok": 1}, attempts, None)
    assert provider.calls == attempts
    for notes, request in enumerate(provider.requests):
        assert request.user_text.count(" [rejected: ") == notes
        assert request.max_output_tokens == 64


def test_ask_structured_exhausted_returns_last_answer_and_error():
    provider = ScriptedProvider(["junk", "{}", '{"nope": 2}'])
    answer = _ask(Gateway(mode="live", provider=provider))
    assert (answer.value, answer.attempts, answer.text) == (None, 3, '{"nope": 2}')
    assert type(answer.error) is StructuredOutputError
    assert str(answer.error) == "structured object missing fields: ok"
    assert provider.calls == 3


def test_ask_structured_lets_gateway_errors_through(tmp_path):
    with pytest.raises(ReplayMissError):
        _ask(Gateway(mode="replay", transcript=Transcript(tmp_path / "t.jsonl")))
    with pytest.raises(RetriesExhaustedError):
        _ask(Gateway(mode="live", provider=FlakyProvider(failures=10), sleep=lambda s: None))
