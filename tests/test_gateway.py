import json
import logging
import sys
import threading
from dataclasses import replace

import pytest

from faultloom.errors import (
    FaultloomError,
    MissingFieldsError,
    NoStructuredObjectError,
    ReplayMissError,
    RetriesExhaustedError,
    UnknownModelError,
)
from faultloom.gateway import (
    ChatRequest,
    Gateway,
    Transcript,
    ask_structured,
    extract_structured,
    provider_for_model,
    request_digest,
)

from fakes import FlakyProvider, ScriptedProvider, make_response

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
    with pytest.raises(ReplayMissError) as exc:
        gateway.complete(REQ)
    assert exc.value.digest == request_digest(REQ)


def test_live_retries_then_succeeds():
    provider = FlakyProvider(failures=2)
    sleeps = []
    gateway = Gateway(mode="live", provider=provider, sleep=sleeps.append)
    response = gateway.complete(REQ)
    assert provider.calls == 3
    assert response.provider_meta["attempts"] == 3
    assert len(sleeps) == 2


def test_live_retries_exhausted():
    provider = FlakyProvider(failures=10)
    gateway = Gateway(mode="live", provider=provider, sleep=lambda s: None)
    with pytest.raises(RetriesExhaustedError) as exc:
        gateway.complete(REQ)
    assert exc.value.attempts == 4
    assert provider.calls == 4


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
    assert gateway.total_tokens() == expected
    assert gateway.usage["openai/gpt-4o"].requests == 2


def test_unknown_model_id():
    with pytest.raises(UnknownModelError):
        provider_for_model("no-slash")
    with pytest.raises(UnknownModelError):
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
    with pytest.raises(NoStructuredObjectError):
        extract_structured("no braces here at all")


def test_extract_structured_missing_field():
    with pytest.raises(MissingFieldsError) as exc:
        extract_structured('{"rationale": "x"}', {"fault_related"})
    assert exc.value.missing == ["fault_related"]


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
    assert isinstance(answer.error, MissingFieldsError)
    assert provider.calls == 3


def test_ask_structured_lets_gateway_errors_through(tmp_path):
    with pytest.raises(ReplayMissError):
        _ask(Gateway(mode="replay", transcript=Transcript(tmp_path / "t.jsonl")))
    with pytest.raises(RetriesExhaustedError):
        _ask(Gateway(mode="live", provider=FlakyProvider(failures=10), sleep=lambda s: None))
