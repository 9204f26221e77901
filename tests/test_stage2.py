import itertools
import json
import re
from datetime import date, datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultloom.corpus import IssueRecord, parse_timestamp
from faultloom.errors import GatewayError, ReplayMissError
from faultloom.gateway import Gateway, Transcript, request_digest
from faultloom.stage2 import (
    _FOLD,
    CRITERION_ANSWERED,
    CRITERION_CUTOFF_DATE,
    CRITERION_EXCLUSION_LABEL,
    CRITERION_VOCABULARY,
    FilterCriteria,
    apply_deterministic,
    build_filter_prompt,
    load_vocabulary,
    run_stage2,
)

from fakes import CountingProvider, ScriptedProvider, make_response
from gen import EXCLUSION_LABELS, VOCAB, make_issue, synth_corpus

MODEL = "openai/gpt-4o"

CRITERIA = FilterCriteria(
    vocabulary=list(VOCAB),
    exclusion_labels=list(EXCLUSION_LABELS),
    cutoff_date=date(2020, 1, 1),
    require_answered=True,
)


def _trace_map(trace):
    return {c.criterion: c for c in trace}


def test_exclusion_label_fails():
    issue = make_issue(labels=("stat:awaiting response",), body="WebGL broken")
    trace = _trace_map(apply_deterministic(issue, CRITERIA))
    assert not trace[CRITERION_EXCLUSION_LABEL].passed
    assert trace[CRITERION_EXCLUSION_LABEL].evidence == "stat:awaiting response"


def test_cutoff_date_fails_for_2019_issue():
    issue = make_issue(created_at=datetime(2019, 12, 31, tzinfo=timezone.utc))
    trace = _trace_map(apply_deterministic(issue, CRITERIA))
    assert not trace[CRITERION_CUTOFF_DATE].passed
    assert "2019-12-31" in trace[CRITERION_CUTOFF_DATE].evidence


def test_cutoff_date_boundary_passes():
    issue = make_issue(created_at=datetime(2020, 1, 1, tzinfo=timezone.utc))
    trace = _trace_map(apply_deterministic(issue, CRITERIA))
    assert trace[CRITERION_CUTOFF_DATE].passed


@pytest.mark.parametrize("created, passed, evidence", [
    ("2020-01-01T00:30:00+01:00", False, "created 2019-12-31 before cutoff 2020-01-01"),
    ("2019-12-31T23:30:00-01:00", True, "created 2020-01-01"),
])
def test_cutoff_date_is_the_utc_date_of_an_offset_timestamp(created, passed, evidence):
    issue = IssueRecord.from_dict({"repo": "acme/dlpipe", "number": 1, "state": "open",
                                   "created_at": created, "updated_at": created})
    trace = _trace_map(apply_deterministic(issue, CRITERIA))
    assert (trace[CRITERION_CUTOFF_DATE].passed, trace[CRITERION_CUTOFF_DATE].evidence) == (passed, evidence)


def test_vocabulary_match_with_evidence():
    issue = make_issue(body="WebGL context lost after a while")
    trace = _trace_map(apply_deterministic(issue, CRITERIA))
    assert trace[CRITERION_VOCABULARY].passed
    assert trace[CRITERION_VOCABULARY].evidence == "WebGL"


def test_vocabulary_no_match():
    issue = make_issue(title="Update readme", body="Fix a typo in the docs")
    trace = _trace_map(apply_deterministic(issue, CRITERIA))
    assert not trace[CRITERION_VOCABULARY].passed


def test_vocabulary_whole_word_not_substring():
    issue = make_issue(title="Note", body="The tensorization step is fine")
    trace = _trace_map(apply_deterministic(issue, CRITERIA))
    assert not trace[CRITERION_VOCABULARY].passed


def test_vocabulary_punctuated_term_matches_bounded():
    criteria = FilterCriteria(vocabulary=["tf.js"], cutoff_date=date(2020, 1, 1))
    hit = make_issue(body="Using tf.js in the browser")
    miss = make_issue(body="Using mytf.jsx wrapper")
    assert _trace_map(apply_deterministic(hit, criteria))[CRITERION_VOCABULARY].passed
    assert not _trace_map(apply_deterministic(miss, criteria))[CRITERION_VOCABULARY].passed


@pytest.mark.parametrize("title, body, passed", [
    ("A memoryleak first", "then a memory leak", True),  # first hit inside a word
    ("xmemory leak", "", False),  # the lookbehind sees the text before the hit
    ("Memory\u0130 memory leak", "", True),  # İ before the hit, one character after folding
    ("subtensors tensorish tensor", "", True),  # only the third hit is a word
    ("xtensor tensorx", "", False),  # no hit is a word
    ("tensor first", "", True),  # a hit at index 0
    ("", "ends with a tensor", True),  # a hit that ends the text
    ("a subtensor", "tensors", False),  # near misses either side of the newline
    ("a tensorx", "tensor", True),  # a near miss before the newline, a word after it
])
def test_vocabulary_match_after_a_first_hit_inside_a_word(title, body, passed):
    criteria = FilterCriteria(vocabulary=["memory leak", "tensor"], cutoff_date=date(2020, 1, 1))
    issue = make_issue(title=title, body=body, n_comments=0)
    assert _trace_map(apply_deterministic(issue, criteria))[CRITERION_VOCABULARY].passed is passed
    assert apply_deterministic(issue, criteria)[0].to_dict() == _per_part_vocabulary(issue, criteria)


def test_lower_keeps_the_length_of_every_code_point_but_dotted_capital_i():
    every = map(chr, itertools.chain(range(0xD800), range(0xE000, 0x110000)))
    assert [ch for ch in every if len(ch.lower()) != 1] == ["\u0130"]


def test_vocabulary_searches_comments():
    issue = make_issue(body="Something is off", comment_bodies=["try calling dispose()"])
    trace = _trace_map(apply_deterministic(issue, CRITERIA))
    assert trace[CRITERION_VOCABULARY].passed
    assert trace[CRITERION_VOCABULARY].evidence == "dispose"


def test_answered_criterion():
    unanswered = make_issue(n_comments=0, state="open")
    trace = _trace_map(apply_deterministic(unanswered, CRITERIA))
    assert not trace[CRITERION_ANSWERED].passed


def test_one_entry_per_criterion():
    trace = apply_deterministic(make_issue(), CRITERIA)
    assert [c.criterion for c in trace] == [
        CRITERION_VOCABULARY,
        CRITERION_EXCLUSION_LABEL,
        CRITERION_CUTOFF_DATE,
        CRITERION_ANSWERED,
    ]


# --- independent brute-force oracle -----------------------------------------

def _naive_term_hit(text: str, term: str) -> bool:
    lowered, needle = text.lower(), term.lower()
    start = 0
    while True:
        idx = lowered.find(needle, start)
        if idx == -1:
            return False
        before = lowered[idx - 1] if idx > 0 else " "
        after_idx = idx + len(needle)
        after = lowered[after_idx] if after_idx < len(lowered) else " "
        if not before.isalnum() and not after.isalnum():
            return True
        start = idx + 1


def _naive_criteria(issue, criteria):
    texts = [issue.title, issue.body] + [c.body for c in issue.comments]
    vocab = any(_naive_term_hit(t, term) for term in criteria.vocabulary for t in texts)
    label_ok = not any(l in criteria.exclusion_labels for l in issue.labels)
    date_ok = parse_timestamp(issue.created_at).date() >= criteria.cutoff_date
    answered = len(issue.comments) > 0 or not criteria.require_answered
    return (vocab, label_ok, date_ok, answered)


def test_deterministic_agrees_with_naive_oracle_500_issues():
    corpus = synth_corpus(500, seed=77)
    for issue in corpus:
        trace = _trace_map(apply_deterministic(issue, CRITERIA))
        got = (
            trace[CRITERION_VOCABULARY].passed,
            trace[CRITERION_EXCLUSION_LABEL].passed,
            trace[CRITERION_CUTOFF_DATE].passed,
            trace[CRITERION_ANSWERED].passed,
        )
        assert got == _naive_criteria(issue, CRITERIA), f"disagreement on #{issue.number}"


# --- the substring screen against the per-part regex loop it replaced -------

def _per_part_vocabulary(issue, criteria):
    parts = [issue.title, issue.body] + [c.body for c in issue.comments]
    for term in criteria.vocabulary:
        pattern = re.compile(
            r"(?<![0-9A-Za-z])" + re.escape(term) + r"(?![0-9A-Za-z])", re.IGNORECASE
        )
        if any(pattern.search(part) for part in parts):
            return {"criterion": CRITERION_VOCABULARY, "passed": True, "evidence": term}
    return {"criterion": CRITERION_VOCABULARY, "passed": False,
            "evidence": "no vocabulary term matched"}


# ASCII letters next to the code points that re.IGNORECASE equates with them,
# characters whose lower() grows or depends on context, a combining dot,
# an emoji, and the separators around whole-word matches.
_TEXT = st.text(alphabet="aiksAIKS1 .-\n\u0130\u0131\u017f\u212a\u00df\u0307\U0001f41b\ufb01\u00e9\u03a3\u03c2",
                max_size=24)
_ASCII_TERM = st.text(alphabet="aiksAIKS1 .-", min_size=1, max_size=3)
_OTHER_TERM = st.text(alphabet="aik\u0130\u0131\u017f\u212a\u00df\u0307\U0001f41b\u00e9\u03c2",
                      min_size=1, max_size=3)


@st.composite
def _vocabularies(draw):
    terms = draw(st.lists(st.one_of(_ASCII_TERM, _OTHER_TERM), min_size=1, max_size=6))
    # overlapping terms, as "memory leak" and "leak"
    terms += [t[draw(st.integers(0, len(t) - 1)):] for t in terms if len(t) > 1]
    return draw(st.permutations(terms))


@settings(max_examples=400, deadline=None)
@given(title=_TEXT, body=_TEXT, comments=st.lists(_TEXT, max_size=3), vocabulary=_vocabularies())
def test_screened_vocabulary_matches_per_part_regex(title, body, comments, vocabulary):
    criteria = FilterCriteria(vocabulary=vocabulary)
    issue = make_issue(title=title, body=body, comment_bodies=comments)
    trace = apply_deterministic(issue, criteria)
    assert trace[0].to_dict() == _per_part_vocabulary(issue, criteria)


def test_fold_table_covers_every_code_point_equated_with_an_ascii_letter():
    every = "".join(map(chr, itertools.chain(range(0xD800), range(0xE000, 0x110000))))
    letters = re.compile("[a-z]", re.IGNORECASE).findall(every)
    non_ascii = [ch for ch in letters if not ch.isascii()]
    assert non_ascii
    for ch in non_ascii:
        folded = _FOLD.get(ord(ch))
        assert folded is not None and re.fullmatch("[a-z]", folded), ch
        assert re.fullmatch(folded, ch, re.IGNORECASE), ch


def test_vocabulary_term_with_newline_is_rejected():
    with pytest.raises(ValueError, match="newline"):
        FilterCriteria(vocabulary=["out of\nmemory"])


def test_a_byte_order_mark_does_not_hide_the_first_vocabulary_term(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_bytes(b"\xef\xbb\xbfWebGL\n# comment\ntensor\n")
    criteria = FilterCriteria(vocabulary=load_vocabulary(path))
    assert criteria.vocabulary == ["WebGL", "tensor"]
    trace = _trace_map(apply_deterministic(make_issue(title="WebGL context lost", body=""), criteria))
    assert trace[CRITERION_VOCABULARY].passed and trace[CRITERION_VOCABULARY].evidence == "WebGL"


# --- prompt construction -----------------------------------------------------

def test_prompt_deterministic():
    issue = make_issue()
    a = build_filter_prompt(issue, CRITERIA, MODEL)
    b = build_filter_prompt(issue, CRITERIA, MODEL)
    assert a == b
    assert request_digest(a) == request_digest(b)


def test_prompt_comment_budget():
    issue = make_issue(n_comments=100)
    criteria = FilterCriteria(vocabulary=["x"], comment_budget=20)
    prompt = build_filter_prompt(issue, criteria, MODEL)
    assert "comment 0" in prompt.user_text
    assert "comment 19" in prompt.user_text
    assert "comment 20" not in prompt.user_text
    assert "80 more comment(s) truncated" in prompt.user_text


def test_prompt_minimal_issue():
    issue = make_issue(body="", n_comments=0, state="open", title="only a title")
    prompt = build_filter_prompt(issue, CRITERIA, MODEL)
    assert "(empty body)" in prompt.user_text
    assert "(no comments)" in prompt.user_text


def test_prompt_carries_semantic_criteria():
    prompt = build_filter_prompt(make_issue(), CRITERIA, MODEL)
    assert "describe observable problems, errors" in prompt.user_text
    assert "sufficient technical detail and clear" in prompt.user_text


# --- judge -------------------------------------------------------------------

def _gateway(texts):
    provider = CountingProvider(ScriptedProvider(texts))
    return Gateway(mode="live", provider=provider, sleep=lambda s: None), provider


def _judge(gateway):
    (decision,) = run_stage2([make_issue()], CRITERIA, gateway, MODEL)
    return decision


def test_judge_short_circuits_without_provider_call():
    issue = make_issue(created_at=datetime(2019, 1, 1, tzinfo=timezone.utc))
    gateway, provider = _gateway([])
    (decision,) = run_stage2([issue], CRITERIA, gateway, MODEL)
    assert decision.final is False
    assert decision.llm_verdict is None
    assert provider.calls == 0


def test_judge_positive_verdict():
    gateway, provider = _gateway(['{"fault_related": true, "rationale": "crash"}'])
    decision = _judge(gateway)
    assert decision.final is True and decision.llm_verdict is True
    assert provider.calls == 1


def test_judge_negative_verdict():
    gateway, _ = _gateway(['{"fault_related": false, "rationale": "feature request"}'])
    decision = _judge(gateway)
    assert decision.final is False and decision.llm_verdict is False
    assert decision.llm_rationale == "feature request"


@pytest.mark.parametrize("value", ['"false"', "null", "0", '"yes"'])
def test_judge_asks_again_for_a_verdict_that_is_no_boolean(value):
    gateway, provider = _gateway([f'{{"fault_related": {value}}}', '{"fault_related": false, "rationale": "r"}'])
    decision = _judge(gateway)
    assert decision.final is False and decision.llm_verdict is False
    assert decision.error is None
    assert provider.calls == 2
    assert f"fault_related must be true or false, not {json.loads(value)!r}" in provider.inner.requests[1].user_text


def test_judge_never_given_a_boolean_verdict_is_a_parse_failure():
    gateway, provider = _gateway(['{"fault_related": "true"}'] * 3)
    decision = _judge(gateway)
    assert decision.final is False and decision.llm_verdict is None
    assert decision.error == "structured-output-parse-failure: fault_related must be true or false, not 'true'"
    assert provider.calls == 3


def test_judge_reads_a_missing_or_null_rationale_as_empty():
    for answer in ('{"fault_related": true, "rationale": null}', '{"fault_related": true}'):
        gateway, _ = _gateway([answer])
        assert _judge(gateway).llm_rationale == ""


def test_judge_parse_failure_marker_after_retries():
    gateway, provider = _gateway(["prose", "prose", "prose"])
    decision = _judge(gateway)
    assert decision.final is False
    assert decision.llm_verdict is None
    assert "structured-output-parse-failure" in decision.error
    assert provider.calls == 3


def test_final_implies_all_deterministic_passed():
    gateway, _ = _gateway(['{"fault_related": true, "rationale": "r"}'] * 50)
    corpus = synth_corpus(50, seed=5)
    for decision in run_stage2(corpus, CRITERIA, gateway, MODEL):
        if decision.final:
            assert all(c.passed for c in decision.trace)


# --- batch -------------------------------------------------------------------

def _record_transcript_for(corpus, criteria, tmp_path):
    texts = ['{"fault_related": true, "rationale": "gold"}'] * len(corpus)
    provider = ScriptedProvider(texts)
    path = tmp_path / "t.jsonl"
    gateway = Gateway(mode="record", transcript=Transcript(path), provider=provider)
    run_stage2(corpus, criteria, gateway, MODEL)
    gateway.transcript.close()
    return path


def test_run_stage2_order_preserved_across_parallelism(tmp_path):
    # Record mode served from the transcript takes the pool at parallelism
    # above 1; replay would run inline whatever it says.
    corpus = synth_corpus(40, seed=3)
    path = _record_transcript_for(corpus, CRITERIA, tmp_path)

    def rerecord(parallelism):
        gateway = Gateway(mode="record", transcript=Transcript(path), provider=ScriptedProvider([]),
                          parallelism=parallelism)
        return run_stage2(corpus, CRITERIA, gateway, MODEL)

    serial = rerecord(1)
    parallel = rerecord(8)
    assert [d.to_dict() for d in serial] == [d.to_dict() for d in parallel]
    assert [d.key for d in serial] == [r.key for r in corpus]


def test_run_stage2_empty_corpus():
    gateway, _ = _gateway([])
    assert run_stage2([], CRITERIA, gateway, MODEL) == []


def test_run_stage2_a_replay_miss_fails_the_batch_naming_its_issue(tmp_path):
    corpus = synth_corpus(10, seed=9)
    path = _record_transcript_for(corpus, CRITERIA, tmp_path)
    # drop the first transcript entry: the first issue that reaches the model misses
    lines = path.read_text().strip().splitlines()
    path.write_text("\n".join(lines[1:]) + "\n")
    first = next(issue for issue in corpus if all(c.passed for c in apply_deterministic(issue, CRITERIA)))
    digest = request_digest(build_filter_prompt(first, CRITERIA, MODEL))
    gateway = Gateway(mode="replay", transcript=Transcript(path))
    with pytest.raises(GatewayError) as caught:
        run_stage2(corpus, CRITERIA, gateway, MODEL)
    assert str(caught.value) == (
        f"{first.repo}#{first.number}: ReplayMissError: transcript has no entry for request digest {digest}"
    )
    assert isinstance(caught.value.__cause__, ReplayMissError)
