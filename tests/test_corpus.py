import json
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from faultloom.corpus import (
    Corpus,
    GoldLabel,
    export_dump,
    format_timestamp,
    import_dump,
    load_gold,
    sample_balanced,
)
from faultloom.errors import DumpFormatError, GoldFileError, SamplingError

from gen import make_issue, synth_corpus, synth_gold_balanced


def _write_dump(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record.to_dict()) + "\n")


def test_import_dump_round_trip(tmp_path):
    corpus = synth_corpus(500, seed=11)
    dump = tmp_path / "dump.jsonl"
    export_dump(corpus, dump)
    loaded = import_dump(dump)
    assert len(loaded) == 500
    assert [r.to_dict() for r in loaded] == [r.to_dict() for r in corpus]


def test_import_dump_empty_file(tmp_path):
    dump = tmp_path / "empty.jsonl"
    dump.write_text("")
    assert len(import_dump(dump)) == 0


def test_import_dump_reports_line_number_on_bad_json(tmp_path):
    dump = tmp_path / "bad.jsonl"
    good = json.dumps(make_issue(number=1).to_dict())
    dump.write_text(good + "\n{not json\n")
    with pytest.raises(DumpFormatError) as exc:
        import_dump(dump)
    assert exc.value.line_no == 2


def test_import_dump_rejects_duplicate_key(tmp_path):
    dump = tmp_path / "dup.jsonl"
    line = json.dumps(make_issue(number=7).to_dict())
    dump.write_text(line + "\n" + line + "\n")
    with pytest.raises(DumpFormatError) as exc:
        import_dump(dump)
    assert "acme/dlpipe#7" in str(exc.value)
    assert exc.value.line_no == 2


def test_import_dump_rejects_timestamp_violation(tmp_path):
    raw = make_issue(number=3).to_dict()
    raw["created_at"] = "2024-01-01T00:00:00Z"
    raw["updated_at"] = "2020-01-01T00:00:00Z"
    raw["closed_at"] = None
    raw["state"] = "open"
    raw["comments"] = []
    dump = tmp_path / "ts.jsonl"
    dump.write_text(json.dumps(raw) + "\n")
    with pytest.raises(DumpFormatError) as exc:
        import_dump(dump)
    assert exc.value.line_no == 1


@pytest.mark.parametrize(
    "line",
    [
        "[1, 2]",
        "5",
        {"comments": 5},
        {"comments": ["x"]},
        {"labels": 3},
        {"created_at": 5},
        {"number": float("inf")},
        {"repo": None},
    ],
    ids=str,
)
def test_import_dump_names_the_line_of_a_wrongly_typed_record(tmp_path, line):
    if isinstance(line, dict):
        line = json.dumps({**make_issue(number=2).to_dict(), **line})
    dump = tmp_path / "typed.jsonl"
    dump.write_text(json.dumps(make_issue(number=1).to_dict()) + "\n" + line + "\n")
    with pytest.raises(DumpFormatError) as exc:
        import_dump(dump)
    assert exc.value.line_no == 2


def test_closed_state_requires_closed_at(tmp_path):
    raw = make_issue(number=4).to_dict()
    raw["closed_at"] = None
    dump = tmp_path / "state.jsonl"
    dump.write_text(json.dumps(raw) + "\n")
    with pytest.raises(DumpFormatError):
        import_dump(dump)


def test_gold_file_round_trip(tmp_path):
    gold_path = tmp_path / "gold.csv"
    gold_path.write_text(
        "repo,number,fault_related,symptom_leaf_id,root_cause_id\n"
        "acme/dlpipe,1,true,crash.reference-error.dl-operator-exception,unknown\n"
        "acme/dlpipe,2,false,,\n"
    )
    gold = load_gold(gold_path)
    assert gold[("acme/dlpipe", 1)].fault_related is True
    assert gold[("acme/dlpipe", 1)].symptom_leaf == "crash.reference-error.dl-operator-exception"
    assert gold[("acme/dlpipe", 2)].fault_related is False
    assert gold[("acme/dlpipe", 2)].symptom_leaf is None


def test_gold_file_rejects_fully_empty_row(tmp_path):
    gold_path = tmp_path / "gold.csv"
    gold_path.write_text(
        "repo,number,fault_related,symptom_leaf_id,root_cause_id\n"
        "acme/dlpipe,1,,,\n"
    )
    with pytest.raises(GoldFileError):
        load_gold(gold_path)


def test_sample_balanced_counts_and_determinism():
    corpus, gold = synth_gold_balanced(300, 300)
    sample_a = sample_balanced(corpus, gold, 250, 250, seed=42)
    sample_b = sample_balanced(corpus, gold, 250, 250, seed=42)
    assert len(sample_a) == 500
    assert sample_a.keys() == sample_b.keys()
    positives = sum(1 for r in sample_a if gold[r.key].fault_related)
    assert positives == 250
    assert len(sample_a) - positives == 250


def test_sample_balanced_is_subset_and_seed_sensitive():
    corpus, gold = synth_gold_balanced(300, 300)
    sample = sample_balanced(corpus, gold, 100, 100, seed=1)
    other = sample_balanced(corpus, gold, 100, 100, seed=2)
    corpus_keys = set(corpus.keys())
    assert set(sample.keys()) <= corpus_keys
    assert sample.keys() != other.keys()


def test_sample_balanced_reports_shortfall():
    corpus, gold = synth_gold_balanced(300, 300)
    with pytest.raises(SamplingError) as exc:
        sample_balanced(corpus, gold, 250, 400, seed=0)
    assert exc.value.available == 300
    assert "100" in str(exc.value)


def test_sample_order_independent_of_corpus_order():
    corpus, gold = synth_gold_balanced(50, 50)
    reversed_corpus = Corpus(records=list(reversed(corpus.records)))
    a = sample_balanced(corpus, gold, 20, 20, seed=9)
    b = sample_balanced(reversed_corpus, gold, 20, 20, seed=9)
    assert set(a.keys()) == set(b.keys())


def test_corpus_rejects_duplicate_keys():
    record = make_issue(number=1)
    with pytest.raises(Exception):
        Corpus(records=[record, record])


def test_comment_ordering_enforced():
    issue = make_issue(number=9, n_comments=3)  # construction checks the order
    shuffled = issue.to_dict()
    shuffled["comments"] = list(reversed(shuffled["comments"]))
    from faultloom.corpus import IssueRecord
    from faultloom.errors import RecordInvariantError

    with pytest.raises(RecordInvariantError):
        IssueRecord.from_dict(shuffled)


def test_timestamps_are_utc():
    issue = make_issue(number=2)
    assert issue.created_at.tzinfo == timezone.utc
    raw = issue.to_dict()
    assert raw["created_at"].endswith("Z")


_OFFSETS = st.timedeltas(min_value=-timedelta(hours=23, minutes=59), max_value=timedelta(hours=23, minutes=59))


# The bounds keep the UTC value inside years 1000-9999, where strftime's
# year has four digits.
@given(ts=st.datetimes(
    min_value=datetime(1000, 1, 2), max_value=datetime(9999, 12, 30),
    timezones=st.builds(timezone, _OFFSETS),
))
@example(ts=datetime(2020, 2, 29, 23, 59, 59, 999999, tzinfo=timezone.utc))
@example(ts=datetime(2020, 1, 1, 0, 30, tzinfo=timezone(timedelta(hours=1))))
def test_format_timestamp_matches_strftime(ts):
    assert format_timestamp(ts) == ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
