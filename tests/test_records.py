"""The record codec: each record type reads back from its JSON equal to what
was written, and lines written before a field existed still read."""

import functools
import json
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultloom.config import packaged_data_path
from faultloom.corpus import Comment, GoldLabel, IssueRecord, format_timestamp
from faultloom.evaluation import (
    ConfusionMatrix,
    EvalReport,
    RunMeta,
    Stage2Scores,
    Stage3Scores,
    score_stage2,
    score_stage3,
)
from faultloom.gateway import ChatRequest, ChatResponse, Gateway, UsageTally
from faultloom.stage1 import PlanScore, ProjectCandidate, StudyPlan
from faultloom.stage2 import (
    DEFAULT_CHAR_BUDGET,
    DEFAULT_COMMENT_BUDGET,
    CriterionResult,
    FilterCriteria,
    FilterDecision,
    run_stage2,
)
from faultloom.stage3 import FaultLabel, run_stage3
from faultloom.taxonomy import load_taxonomy

from fakes import ScriptedProvider, make_response
from gen import EXCLUSION_LABELS, VOCAB, make_issue

MODEL = "openai/gpt-4o"
REPO = "acme/dlpipe"

texts = st.text(max_size=12)
optional_texts = st.none() | texts
counts = st.integers(0, 10**6)
floats = st.floats(allow_nan=False, allow_infinity=False)
numbers = st.integers(1, 10**6)
# Timestamps are written to the second, in UTC.
stamps = st.datetimes(min_value=datetime(1970, 1, 1), max_value=datetime(9000, 1, 1), timezones=st.just(timezone.utc)).map(
    lambda ts: ts.replace(microsecond=0)
)


@st.composite
def issues(draw):
    created = draw(stamps)
    offsets = sorted(draw(st.lists(st.integers(0, 10**8), max_size=3)))
    comments = tuple(
        Comment(author_role=draw(texts), created_at=format_timestamp(created + timedelta(seconds=s)), body=draw(texts))
        for s in offsets
    )
    updated = format_timestamp(created + timedelta(seconds=draw(st.integers(offsets[-1] if offsets else 0, 10**9))))
    closed = draw(st.booleans())
    return IssueRecord(
        repo=draw(texts), number=draw(numbers), title=draw(texts), state="closed" if closed else "open",
        created_at=format_timestamp(created), updated_at=updated, closed_at=updated if closed else None, body=draw(texts),
        labels=tuple(draw(st.lists(texts, max_size=3))), comments=comments,
        is_pull_request=draw(st.booleans()), url=draw(texts),
    )


matrices = st.builds(
    ConfusionMatrix, classes=st.lists(texts, max_size=3), counts=st.lists(st.lists(counts, max_size=3), max_size=3)
)
stage3_scores = st.builds(
    Stage3Scores, accuracy=floats, correct=counts, total=counts, invalid=counts,
    per_level_accuracy=st.dictionaries(st.integers(1, 3), floats), confusion=matrices,
)


@functools.cache
def _taxonomies():
    return (
        load_taxonomy(packaged_data_path("symptom_taxonomy.yaml")),
        load_taxonomy(packaged_data_path("root_cause_taxonomy.yaml")),
    )


def _answering(*texts):
    return Gateway(mode="live", provider=ScriptedProvider(list(texts)), sleep=lambda s: None)


def _judged_decision():
    criteria = FilterCriteria(vocabulary=list(VOCAB), exclusion_labels=list(EXCLUSION_LABELS))
    issue = make_issue()
    gateway = _answering('{"fault_related": true, "rationale": "r"}')
    (decision,) = run_stage2([issue], criteria, gateway, MODEL)
    return decision


def _classified_label():
    answer = json.dumps({"symptom": "Memory Leak", "root_cause": "Unimplemented Operator", "rationale": "r"})
    symptoms, root_causes = _taxonomies()
    (label,) = run_stage3([make_issue()], symptoms, root_causes, _answering(answer), MODEL,
                          comment_budget=DEFAULT_COMMENT_BUDGET, char_budget=DEFAULT_CHAR_BUDGET)
    return label


def _scored_report():
    leaf_mem = "poor-performance.abnormal-memory-usage.memory-leak"
    leaf_oom = "poor-performance.abnormal-memory-usage.out-of-memory"
    labels = [
        FaultLabel(repo=REPO, number=1, symptom_leaf=leaf_mem, valid=True),
        FaultLabel(repo=REPO, number=2, symptom_leaf=leaf_oom, valid=True),
    ]
    gold = {(REPO, n): GoldLabel(repo=REPO, number=n, symptom_leaf=leaf_mem) for n in (1, 2)}
    decision = FilterDecision(repo=REPO, number=1, llm_verdict=True, final=True)
    return EvalReport(
        stage2=score_stage2([decision], {(REPO, 1): GoldLabel(repo=REPO, number=1, fault_related=True)}),
        stage3_symptom=score_stage3(labels, gold, _taxonomies()[0]),
        stage3_rootcause=None,
        run_meta=RunMeta(wall_time_seconds=0.5, total_tokens=12, per_model={"m": {"requests": 1}}),
        notes=["stage3: no root-cause gold"],
    )


RECORDS = {
    "issue": issues(),
    "decision": st.builds(
        FilterDecision, repo=texts, number=numbers,
        trace=st.lists(st.builds(CriterionResult, criterion=texts, passed=st.booleans(), evidence=texts), max_size=4),
        llm_verdict=st.none() | st.booleans(), llm_rationale=optional_texts, final=st.booleans(), error=optional_texts,
    ),
    "label": st.builds(
        FaultLabel, repo=texts, number=numbers, symptom_leaf=optional_texts, root_cause=optional_texts,
        rationale=texts, attempts=st.integers(1, 3), valid=st.booleans(), raw_output=optional_texts, error=optional_texts,
    ),
    "response": st.builds(
        ChatResponse, text=texts, input_tokens=counts, output_tokens=counts, latency_ms=floats,
        provider_meta=st.dictionaries(texts, texts | counts, max_size=3),
    ),
    "request": st.builds(
        ChatRequest, model_id=texts, system_text=texts.filter(bool), user_text=texts.filter(bool),
        temperature=st.floats(0, 2), max_output_tokens=numbers,
    ),
    "usage": st.builds(UsageTally, requests=counts, input_tokens=counts, output_tokens=counts),
    "plan": st.builds(
        StudyPlan,
        projects=st.lists(st.builds(ProjectCandidate, name=texts, url=optional_texts, rationale=texts), max_size=3),
        research_questions=st.lists(texts, max_size=3),
    ),
    "plan-score": st.builds(
        PlanScore, recall=floats, hits=st.lists(texts, max_size=2), misses=st.lists(texts, max_size=2),
        extras=st.lists(texts, max_size=2),
    ),
    "report": st.builds(
        EvalReport,
        stage2=st.none() | st.builds(
            Stage2Scores, accuracy=floats, precision=floats, recall=floats,
            tp=counts, fp=counts, fn=counts, tn=counts, confusion=matrices,
        ),
        stage3_symptom=st.none() | stage3_scores,
        stage3_rootcause=st.none() | stage3_scores,
        run_meta=st.builds(
            RunMeta, wall_time_seconds=floats, total_tokens=counts,
            per_model=st.dictionaries(texts, st.dictionaries(texts, counts, max_size=3), max_size=2),
            invalid_labels=counts, unscored=counts,
        ),
        notes=st.lists(texts, max_size=2),
    ),
    # What the stages and the fakes produce.
    "open-issue": st.just(make_issue(state="open", n_comments=2)),
    "judged-decision": st.builds(_judged_decision),
    "classified-label": st.builds(_classified_label),
    "scripted-response": st.just(make_response("hello")),
    "scored-report": st.builds(_scored_report),
}


@pytest.mark.parametrize("kind", RECORDS)
@settings(deadline=None)
@given(data=st.data())
def test_record_round_trips_through_json(kind, data):
    record = data.draw(RECORDS[kind])
    raw = json.loads(json.dumps(record.to_dict()))
    again = type(record).from_dict(raw)
    assert again == record
    assert again.to_dict() == raw


STAMP = "2021-06-01T00:00:00Z"


OLDER_LINES = [
    (
        {"repo": REPO, "number": 3, "state": "open", "created_at": STAMP, "updated_at": STAMP, "body": None},
        IssueRecord(repo=REPO, number=3, state="open", created_at=STAMP, updated_at=STAMP),
    ),
    ({"created_at": STAMP, "body": None}, Comment(created_at=STAMP)),
    (
        {"repo": REPO, "number": 3, "final": False, "trace": [{"criterion": "answered", "passed": True}]},
        FilterDecision(repo=REPO, number=3, final=False, trace=[CriterionResult("answered", True)]),
    ),
    ({"repo": REPO, "number": 3, "valid": False}, FaultLabel(repo=REPO, number=3, rationale="", attempts=1, valid=False)),
    ({"text": "t"}, ChatResponse(text="t")),
    ({"projects": [{"name": "TensorFlow.js", "url": ""}]}, StudyPlan(projects=[ProjectCandidate(name="TensorFlow.js")])),
    ({"run_meta": {}}, EvalReport(run_meta=RunMeta())),
]


@pytest.mark.parametrize("raw, expected", OLDER_LINES, ids=[type(e).__name__ for _, e in OLDER_LINES])
def test_older_lines_read_with_the_defaults(raw, expected):
    assert type(expected).from_dict(raw) == expected


def test_a_missing_required_key_is_a_key_error():
    with pytest.raises(KeyError, match="final"):
        FilterDecision.from_dict({"repo": REPO, "number": 3})
    with pytest.raises(KeyError, match="run_meta"):
        EvalReport.from_dict({"stage2": None})


@pytest.mark.parametrize("value", [True, False, "0.5", [0.5]])
def test_a_float_field_reads_an_int_or_a_float_only(value):
    assert RunMeta.from_dict({"wall_time_seconds": 2}).wall_time_seconds == 2.0
    with pytest.raises(TypeError, match="expected a number"):
        RunMeta.from_dict({"wall_time_seconds": value})
    scores = _scored_report().stage3_symptom.to_dict()
    assert Stage3Scores.from_dict({**scores, "accuracy": 1, "per_level_accuracy": {"1": 1}}).per_level_accuracy == {1: 1.0}
    with pytest.raises(TypeError, match="expected a number"):
        Stage3Scores.from_dict({**scores, "accuracy": value})
    with pytest.raises(TypeError, match="expected a number"):
        Stage3Scores.from_dict({**scores, "per_level_accuracy": {"1": value}})
