import dataclasses
import json
import re
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faultloom.corpus import (
    Comment,
    GoldLabel,
    canonical_timestamp,
    copy_lines,
    export_dump,
    format_timestamp,
    import_dump,
    load_gold,
    parse_timestamp,
    read_dump,
    render_issue,
    sample_balanced,
)
from faultloom.errors import CorpusError

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
    with pytest.raises(CorpusError, match=f"{dump} line 2: invalid JSON"):
        import_dump(dump)


def test_import_dump_rejects_duplicate_key(tmp_path):
    dump = tmp_path / "dup.jsonl"
    line = json.dumps(make_issue(number=7).to_dict())
    dump.write_text(line + "\n" + line + "\n")
    with pytest.raises(CorpusError, match=f"^{dump} line 2: duplicate record key acme/dlpipe#7$"):
        import_dump(dump)


def test_import_dump_rejects_timestamp_violation(tmp_path):
    raw = make_issue(number=3).to_dict()
    raw["created_at"] = "2024-01-01T00:00:00Z"
    raw["updated_at"] = "2020-01-01T00:00:00Z"
    raw["closed_at"] = None
    raw["state"] = "open"
    raw["comments"] = []
    dump = tmp_path / "ts.jsonl"
    dump.write_text(json.dumps(raw) + "\n")
    with pytest.raises(CorpusError, match=f"^{dump} line 1: acme/dlpipe#3: created_at after updated_at$"):
        import_dump(dump)


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
        {"is_pull_request": "false"},
        {"labels": [{"name": "bug"}]},
    ],
    ids=str,
)
def test_import_dump_names_the_line_of_a_wrongly_typed_record(tmp_path, line):
    if isinstance(line, dict):
        line = json.dumps({**make_issue(number=2).to_dict(), **line})
    dump = tmp_path / "typed.jsonl"
    dump.write_text(json.dumps(make_issue(number=1).to_dict()) + "\n" + line + "\n")
    with pytest.raises(CorpusError, match=f"^{dump} line 2: "):
        import_dump(dump)


@pytest.mark.parametrize("number", [True, False, 3.7, float("nan")], ids=str)
def test_a_boolean_or_fractional_issue_number_is_an_error_naming_the_line(tmp_path, number):
    dump = tmp_path / "numbers.jsonl"
    dump.write_text(json.dumps({**make_issue(number=5).to_dict(), "number": number}) + "\n")
    with pytest.raises(CorpusError, match=f"{dump} line 1: expected an integer"):
        import_dump(dump)


@pytest.mark.parametrize("number", [5.0, "5"], ids=repr)
def test_an_integral_float_or_numeric_string_is_still_an_issue_number(tmp_path, number):
    dump = tmp_path / "numbers.jsonl"
    dump.write_text(json.dumps({**make_issue(number=9).to_dict(), "number": number}) + "\n")
    (record,) = import_dump(dump)
    assert record.number == 5 and record.number.__class__ is int


def test_closed_state_requires_closed_at(tmp_path):
    raw = make_issue(number=4).to_dict()
    raw["closed_at"] = None
    dump = tmp_path / "state.jsonl"
    dump.write_text(json.dumps(raw) + "\n")
    text = "closed_at must be present iff state is closed"
    with pytest.raises(CorpusError, match=f"^{dump} line 1: acme/dlpipe#4: {text}$"):
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
    with pytest.raises(CorpusError, match="^gold row 2: no populated label field$"):
        load_gold(gold_path)


def test_gold_file_skips_a_blank_row_and_counts_it_in_the_row_numbers(tmp_path):
    gold_path = tmp_path / "gold.csv"
    gold_path.write_text(
        "repo,number,fault_related,symptom_leaf_id,root_cause_id\n"
        "acme/dlpipe,1,true,,\n"
        "\n"
        "acme/dlpipe,2\n"
    )
    with pytest.raises(CorpusError, match="^gold row 4: 2 cells, but the header has 5$"):
        load_gold(gold_path)
    gold_path.write_text(gold_path.read_text().replace("acme/dlpipe,2\n", "acme/dlpipe,2,false,,\n"))
    assert sorted(load_gold(gold_path)) == [("acme/dlpipe", 1), ("acme/dlpipe", 2)]


def test_render_issue_cuts_comment_text_at_the_char_budget():
    issue = make_issue(comment_bodies=["abcdef", "ghij"])
    issue = dataclasses.replace(issue, comments=tuple(dataclasses.replace(c, author_role="") for c in issue.comments))
    text = render_issue(issue, comment_budget=5, char_budget=3)
    assert text.endswith("\nComments:\n- [] abc [truncated]\n[1 more comment(s) truncated]")


def test_sample_balanced_counts_and_determinism():
    corpus, gold = synth_gold_balanced(300, 300)
    keys = [r.key for r in corpus]
    sample_a = sample_balanced(keys, gold, 250, 250, seed=42)
    sample_b = sample_balanced(keys, gold, 250, 250, seed=42)
    assert len(sample_a) == 500
    assert sample_a == sample_b
    positives = sum(1 for key in sample_a if gold[key].fault_related)
    assert positives == 250
    assert len(sample_a) - positives == 250


def test_sample_balanced_is_subset_and_seed_sensitive():
    corpus, gold = synth_gold_balanced(300, 300)
    keys = [r.key for r in corpus]
    sample = sample_balanced(keys, gold, 100, 100, seed=1)
    other = sample_balanced(keys, gold, 100, 100, seed=2)
    corpus_keys = set(keys)
    assert sample <= corpus_keys
    assert sample != other


def test_sample_balanced_reports_shortfall():
    corpus, gold = synth_gold_balanced(300, 300)
    text = r"^stratum 'non-fault': requested 400 but only 300 available \(shortfall 100\)$"
    with pytest.raises(CorpusError, match=text):
        sample_balanced([r.key for r in corpus], gold, 250, 400, seed=0)


def test_sample_order_independent_of_corpus_order():
    corpus, gold = synth_gold_balanced(50, 50)
    keys = [r.key for r in corpus]
    a = sample_balanced(keys, gold, 20, 20, seed=9)
    b = sample_balanced(list(reversed(keys)), gold, 20, 20, seed=9)
    assert a == b


def test_comment_ordering_enforced():
    issue = make_issue(number=9, n_comments=3)  # construction checks the order
    shuffled = issue.to_dict()
    shuffled["comments"] = list(reversed(shuffled["comments"]))
    from faultloom.corpus import IssueRecord
    from faultloom.errors import RecordInvariantError

    with pytest.raises(RecordInvariantError):
        IssueRecord.from_dict(shuffled)


def test_timestamps_are_utc():
    issue = make_issue(number=2, created_at=datetime(2021, 6, 1, 9, 30, tzinfo=timezone(timedelta(hours=2))))
    assert issue.created_at == issue.to_dict()["created_at"] == "2021-06-01T07:30:00Z"


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


# Outside the range above, `isoformat` is the reference: it pads the year to
# four digits as the format does.
@pytest.mark.parametrize("ts, text", [
    (datetime(999, 7, 4, 3, 2, 1, 500000, tzinfo=timezone.utc), "0999-07-04T03:02:01Z"),
    (datetime(2020, 12, 31, 20, 15, 9, tzinfo=timezone(timedelta(hours=-5))), "2021-01-01T01:15:09Z"),
], ids=["year-999", "offset-across-midnight"])
def test_format_timestamp_pads_the_year_and_converts_to_utc(ts, text):
    assert format_timestamp(ts) == text == ts.astimezone(timezone.utc).isoformat(timespec="seconds")[:-6] + "Z"


def _outcome(decode, value):
    try:
        return decode(value)
    except (TypeError, ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _field(width: int, top: int):
    """Text of `width` digits: a number up to `top`, or digits of any script."""
    return st.integers(0, top).map(lambda n: f"{n:0{width}d}") | st.text(
        st.sampled_from("0123456789\u0660\u0665\uff10\uff19\u09e6"), min_size=width, max_size=width
    )


_TIMESTAMP_LIKE = st.builds(
    "{}-{}-{}{}{}:{}:{}{}{}".format,
    _field(4, 9999), _field(2, 13), _field(2, 32), st.sampled_from("T t"),
    _field(2, 24), _field(2, 60), _field(2, 60),
    st.sampled_from(["", ".5", ".123456"]),
    st.sampled_from(["Z", "z", "", "+00:00", "+01:00", "-05:30", "+23:59"]),
)


@given(value=st.text() | _TIMESTAMP_LIKE)
@example(value="2021-02-29T00:00:00Z")
@example(value="2020-02-29T23:59:59Z")
@example(value="2021-01-01T24:00:00Z")
@example(value="2021-12-31T23:59:60Z")
@example(value="\uff12\uff10\uff12\uff11-01-01T00:00:00Z")
@example(value="2021-01-01T00:30:00+01:00")
@example(value="0001-01-01T00:00:00+01:00")
@example(value="2021-01-01T00:00:00.999999Z")
@example(value="2021-01-01t00:00:00z")
@example(value="2021-01-01 00:00:00Z")
@example(value=5)
def test_canonical_timestamp_is_the_parse_and_format_round_trip(value):
    expected = _outcome(lambda v: format_timestamp(parse_timestamp(v)), value)
    assert _outcome(canonical_timestamp, value) == expected
    # The record decoder inlines the canonical case; it must agree as well.
    assert _outcome(lambda v: Comment.from_dict({"created_at": v}).created_at, value) == expected


# The rule `canonical_timestamp` used before its shape test, kept as the
# oracle the shape test must agree with.
_REGEX_CANONICAL = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T(?:[01][0-9]|2[0-3]):[0-9]{2}:[0-9]{2}Z").fullmatch


def _regex_canonical_timestamp(value):
    if value.__class__ is str and _REGEX_CANONICAL(value):
        datetime.fromisoformat(value[:19])
        return value
    return format_timestamp(parse_timestamp(value))


def _value_or_error_class(decode, value):
    try:
        return decode(value)
    except (TypeError, ValueError, OverflowError) as exc:
        return type(exc)


_STAMP_CHARS = "0123456789\u0663\uff10-:TtZz +.,/_\x00\u00e9"


@st.composite
def _perturbed_stamp(draw) -> str:
    """A canonical stamp with up to three characters replaced, removed or inserted."""
    text = list(format_timestamp(draw(st.datetimes(timezones=st.just(timezone.utc)))))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["replace", "remove", "insert"]))
        if edit == "insert" or at == len(text):
            text.insert(at, draw(st.sampled_from(_STAMP_CHARS)))
        elif edit == "remove":
            del text[at]
        else:
            text[at] = draw(st.sampled_from(_STAMP_CHARS))
    return "".join(text)


@settings(max_examples=2000)
@given(value=_perturbed_stamp())
@example(value="2021-02-29T00:00:00Z")
@example(value="2021-01-01T24:00:00Z")
@example(value="2021-01-01T19:00:00Z")
@example(value="2021-01-01T2\u0663:00:00Z")
@example(value="\u0663021-01-01T00:00:00Z")
@example(value="2021-01-01T00:00:0ZZ")
@example(value="0000-01-01T00:00:00Z")
def test_the_shape_test_gives_what_the_regex_rule_gave(value):
    assert _value_or_error_class(canonical_timestamp, value) == _value_or_error_class(_regex_canonical_timestamp, value)


# Later times are up to ~3.2 years on, so the range ends well before 9999.
_INSTANTS = st.datetimes(
    min_value=datetime(1000, 1, 2), max_value=datetime(9990, 1, 1), timezones=st.just(timezone.utc)
)
# RFC 3339 offsets are whole minutes.
_ZONES = st.builds(timezone, _OFFSETS.map(lambda d: timedelta(minutes=d // timedelta(minutes=1))))


@st.composite
def _written(draw, ts: datetime) -> str:
    """`ts` as a dump might hold it: any zone, `Z` or an offset, `T` or a
    space, with or without a fraction of a second."""
    local = ts.astimezone(draw(_ZONES))
    text = local.isoformat(sep=draw(st.sampled_from("T ")), timespec=draw(st.sampled_from(["seconds", "microseconds"])))
    return text[:-6] + "Z" if text.endswith("+00:00") and draw(st.booleans()) else text


@st.composite
def _dump_line(draw, number: int) -> tuple[dict, dict]:
    """A raw dump object with keys missing, null or set, and the record it
    must be written back as."""
    created = draw(_INSTANTS)
    later = sorted(created + timedelta(seconds=draw(st.integers(0, 10**8))) for _ in range(draw(st.integers(0, 3))))
    updated = max([created, *later]) + timedelta(seconds=draw(st.integers(0, 10**6)))
    closed = draw(st.booleans())
    raw = {"repo": draw(st.text()), "number": number, "state": "closed" if closed else "open",
           "created_at": draw(_written(created)), "updated_at": draw(_written(updated))}
    if closed:
        raw["closed_at"] = draw(_written(updated))
    elif draw(st.booleans()):
        raw["closed_at"] = None
    comments = []
    for at in later:
        comment = {"created_at": draw(_written(at))}
        for key in ("author_role", "body"):
            comment.update(draw(st.sampled_from([{}, {key: None}, {key: draw(st.text())}])))
        comments.append(comment)
    optional = {"title": st.text(), "body": st.text(), "labels": st.lists(st.text(), max_size=3),
                "comments": st.just(comments), "is_pull_request": st.booleans(), "url": st.text()}
    for key, values in optional.items():
        choice = draw(st.sampled_from(["missing", "null", "set"]))
        if choice != "missing":
            raw[key] = None if choice == "null" else draw(values)
    stamp = lambda text: format_timestamp(parse_timestamp(text))
    expected = {
        "repo": raw["repo"], "number": number, "state": raw["state"],
        "created_at": stamp(raw["created_at"]), "updated_at": stamp(raw["updated_at"]),
        "closed_at": stamp(raw["closed_at"]) if closed else None,
        "title": raw.get("title") or "", "body": raw.get("body") or "",
        "labels": raw.get("labels") or [], "is_pull_request": raw.get("is_pull_request") or False,
        "url": raw.get("url") or "",
        "comments": [
            {"author_role": c.get("author_role") or "", "body": c.get("body") or "", "created_at": stamp(c["created_at"])}
            for c in (raw.get("comments") or [])
        ],
    }
    return raw, expected


@settings(deadline=None, max_examples=50)
@given(data=st.data(), count=st.integers(0, 4))
def test_a_dump_is_written_back_as_a_reference_encoder_writes_it(tmp_path_factory, data, count):
    pairs = [data.draw(_dump_line(number)) for number in range(1, count + 1)]
    work = tmp_path_factory.mktemp("dump")
    source, written = work / "source.jsonl", work / "corpus.jsonl"
    source.write_text("".join(json.dumps(raw, ensure_ascii=False) + "\n" for raw, _ in pairs), encoding="utf-8")
    export_dump(import_dump(source), written)
    assert written.read_bytes() == "".join(
        json.dumps(expected, sort_keys=True) + "\n" for _, expected in pairs
    ).encode("utf-8")


@settings(deadline=None, max_examples=50)
@given(data=st.data(), count=st.integers(0, 4))
def test_a_dump_line_is_kept_as_its_own_bytes_when_it_holds_its_record(tmp_path_factory, data, count):
    """`read_dump(..., lines=True)` gives each line as it is when it holds
    exactly what its record encodes to, in any key order or escaping, and
    else the record's sorted-key line."""
    # Half the lines hold their record's encoding as it is.
    pairs = [(raw if data.draw(st.booleans()) else expected, expected)
             for raw, expected in (data.draw(_dump_line(number)) for number in range(1, count + 1))]
    source = tmp_path_factory.mktemp("dump") / "source.jsonl"
    lines = []
    for raw, _ in pairs:
        keys = data.draw(st.permutations(list(raw)))
        lines.append(json.dumps({k: raw[k] for k in keys}, ensure_ascii=data.draw(st.booleans())).encode("utf-8"))
    source.write_bytes(b"\n".join(lines))  # the last line without its newline
    written = [line for _, line in read_dump(source, lines=True)]
    assert written == [
        line + b"\n" if raw == expected else (json.dumps(expected, sort_keys=True) + "\n").encode("utf-8")
        for line, (raw, expected) in zip(lines, pairs)
    ]
    assert [json.loads(line) for line in written] == [expected for _, expected in pairs]


def test_a_line_of_ascii_whitespace_is_blank_but_one_of_no_break_spaces_is_not(tmp_path):
    first, second = (json.dumps(make_issue(number=n).to_dict()).encode("utf-8") + b"\n" for n in (1, 2))
    dump = tmp_path / "dump.jsonl"
    dump.write_bytes(first + b" \t\x0b\x0c\r\n" + second)
    assert [r.number for r in import_dump(dump)] == [1, 2]
    copy_lines(dump, tmp_path / "copy.jsonl", {1})
    assert (tmp_path / "copy.jsonl").read_bytes() == second

    dump.write_bytes(first + "\u00a0\n".encode("utf-8") + second)
    with pytest.raises(CorpusError, match=f"{dump} line 2: invalid JSON"):
        import_dump(dump)
    copy_lines(dump, tmp_path / "copy.jsonl", {1})
    assert (tmp_path / "copy.jsonl").read_bytes() == "\u00a0\n".encode("utf-8")


def test_a_dump_line_that_is_not_utf8_names_the_file_and_line(tmp_path):
    dump = tmp_path / "dump.jsonl"
    good = json.dumps(make_issue(number=1).to_dict()).encode("utf-8")
    bad = json.dumps(make_issue(number=2, title="café").to_dict(), ensure_ascii=False).encode("latin-1")
    dump.write_bytes(good + b"\n" + bad + b"\n")
    with pytest.raises(CorpusError, match=f"^{dump} line 2: .*utf-8"):
        import_dump(dump)


def test_a_gold_file_that_is_not_utf8_names_the_file(tmp_path):
    gold_path = tmp_path / "gold.csv"
    gold_path.write_bytes(
        "repo,number,fault_related,symptom_leaf_id,root_cause_id\nacmé/dlpipe,1,true,,\n".encode("latin-1")
    )
    with pytest.raises(CorpusError, match=f"gold file {gold_path} is not UTF-8"):
        load_gold(gold_path)


def test_lines_end_at_newline_only_so_a_lone_carriage_return_joins_two_records(tmp_path):
    """JSON Lines separates lines with `\\n`: a `\\r\\n` ending reads, but a lone
    `\\r` leaves two records on one line, which is an error naming it."""
    first, second, third = (json.dumps(make_issue(number=n).to_dict()) for n in (1, 2, 3))
    dump = tmp_path / "dump.jsonl"
    dump.write_bytes(f"{first}\r\n \t\r\n{second}\r{third}\n".encode("utf-8"))
    with pytest.raises(CorpusError, match=f"^{dump} line 3: invalid JSON"):
        import_dump(dump)
