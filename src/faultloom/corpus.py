"""Issue corpus: normalized records, dump import/export, gold labels, sampling."""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import json
import random
import types
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable

from .errors import (
    DumpFormatError,
    DuplicateRecordError,
    GoldFileError,
    RecordInvariantError,
    SamplingError,
)

IssueKey = tuple[str, int]


def parse_timestamp(value: str) -> datetime:
    """Parse an RFC 3339 timestamp into an aware UTC datetime."""
    if not isinstance(value, str):
        raise TypeError(f"timestamp must be a string, not {type(value).__name__}")
    ts = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        raise ValueError(f"timestamp {value!r} has no timezone")
    return ts.astimezone(timezone.utc)


def format_timestamp(ts: datetime) -> str:
    """`ts` in UTC to the second, as `YYYY-MM-DDTHH:MM:SSZ`."""
    if ts.tzinfo is not timezone.utc:
        ts = ts.astimezone(timezone.utc)
    return ts.isoformat(timespec="seconds")[:-6] + "Z"  # "+00:00" -> "Z"


def _expect(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise TypeError(f"expected {what}, not {type(value).__name__}")
    return value


def _codec(tp) -> tuple[Callable | None, Callable]:
    """(encode, decode) for values of field type `tp`. `encode` is None where
    a value is already JSON-shaped; `decode` takes a value that is not None."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # X | None
        (inner,) = [a for a in args if a is not type(None)]
        encode, decode = _codec(inner)
        return (encode and (lambda v: None if v is None else encode(v))), decode
    if origin in (list, tuple):
        item_encode, item_decode = _codec(args[0])
        build = list if origin is list else tuple

        def decode_array(value):
            return build([item_decode(item) for item in _expect(value, list, "an array")])

        if item_encode is not None:
            return (lambda v: [item_encode(item) for item in v]), decode_array
        return (None if origin is list else list), decode_array
    if tp is dict:
        return None, lambda v: dict(_expect(v, dict, "an object"))
    if tp == dict[int, float]:  # JSON object keys are strings
        return (lambda v: {str(k): x for k, x in v.items()}), (
            lambda v: {int(k): float(x) for k, x in _expect(v, dict, "an object").items()}
        )
    if tp is datetime:
        return format_timestamp, parse_timestamp
    if isinstance(tp, type) and issubclass(tp, Record):
        return _compiled(tp)
    if tp in (str, int, float, bool):
        return None, tp
    raise TypeError(f"no codec for field type {tp!r}")


def _missing(name: str):
    raise KeyError(f"missing or null: {name}")


@functools.cache
def _compiled(cls) -> tuple[Callable, Callable]:
    """The to_dict and from_dict functions of record class `cls`, compiled
    once from its field types into one expression per field, the way
    dataclasses compiles `__init__`. They run as fast as hand-written ones:
    a loop over the fields decoded a dump about 45 % slower, and copying
    `__dict__` to encode gave every record a dict object of its own."""
    hints = typing.get_type_hints(cls)
    env = {"cls": cls, "_expect": _expect, "_missing": _missing}
    encoded, decoded = [], []
    for f in dataclasses.fields(cls):
        name = f.name
        encode, env[f"_decode_{name}"] = _codec(hints[name])
        env[f"_encode_{name}"] = encode
        encoded.append(f"{name!r}: self.{name}" if encode is None else f"{name!r}: _encode_{name}(self.{name})")
        if f.default is not dataclasses.MISSING:
            env[f"_default_{name}"], fallback = f.default, f"_default_{name}"
        elif f.default_factory is not dataclasses.MISSING:
            env[f"_default_{name}"], fallback = f.default_factory, f"_default_{name}()"
        else:
            fallback = f"_missing({name!r})"
        decoded.append(f"{name}=_decode_{name}(v) if (v := raw.get({name!r})) is not None else {fallback}")
    exec(
        f"def encode(self):\n    return {{{', '.join(encoded)}}}\n"
        "def decode(raw):\n    if not isinstance(raw, dict):\n        _expect(raw, dict, 'an object')\n"
        f"    return cls({', '.join(decoded)})\n",
        env,
    )
    return env["encode"], env["decode"]


class Record:
    """Base of the dataclasses that are written as JSON.

    `to_dict` gives the JSON-shaped dict: datetimes as `format_timestamp`
    strings, tuples as lists, dict keys as strings, nested records alike.
    `from_dict` reads one back by the field types. A key that is missing or
    null takes the field's default; without one it is a KeyError, and a value
    of the wrong shape is a TypeError or ValueError.
    """

    def to_dict(self) -> dict:
        return _compiled(type(self))[0](self)

    @classmethod
    def from_dict(cls, raw: dict):
        return _compiled(cls)[1](raw)


@dataclass(frozen=True, kw_only=True)
class Comment(Record):
    author_role: str = ""
    created_at: datetime
    body: str = ""


@dataclass(frozen=True, kw_only=True)
class IssueRecord(Record):
    """One issue; its invariants are checked on construction."""

    repo: str
    number: int
    title: str = ""
    state: str
    created_at: datetime
    updated_at: datetime
    closed_at: datetime | None = None
    body: str = ""
    labels: tuple[str, ...] = ()
    comments: tuple[Comment, ...] = ()
    is_pull_request: bool = False
    url: str = ""

    @property
    def key(self) -> IssueKey:
        return (self.repo, self.number)

    def __post_init__(self) -> None:
        if self.number <= 0:
            raise RecordInvariantError(f"{self.repo}: non-positive issue number {self.number}")
        if self.state not in ("open", "closed"):
            raise RecordInvariantError(f"{self.repo}#{self.number}: bad state {self.state!r}")
        if self.created_at > self.updated_at:
            raise RecordInvariantError(
                f"{self.repo}#{self.number}: created_at after updated_at"
            )
        if (self.closed_at is not None) != (self.state == "closed"):
            raise RecordInvariantError(
                f"{self.repo}#{self.number}: closed_at must be present iff state is closed"
            )
        for a, b in zip(self.comments, self.comments[1:]):
            if a.created_at > b.created_at:
                raise RecordInvariantError(
                    f"{self.repo}#{self.number}: comments out of chronological order"
                )


@dataclass
class Corpus:
    records: list[IssueRecord]
    source: str = "dump"
    fetched_at: datetime | None = None
    _index: dict[IssueKey, IssueRecord] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        for record in self.records:
            if record.key in self._index:
                raise DuplicateRecordError(*record.key)
            self._index[record.key] = record

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def get(self, key: IssueKey) -> IssueRecord | None:
        return self._index.get(key)

    def keys(self) -> list[IssueKey]:
        return [r.key for r in self.records]


def render_issue(issue: IssueRecord, comment_budget: int, char_budget: int) -> str:
    """The issue as prompt text: its first `comment_budget` comments, cut
    off once `char_budget` characters of comment text are shown, with a
    line counting the comments left out."""
    lines = [
        f"Issue: {issue.repo}#{issue.number}",
        f"Title: {issue.title}",
        f"State: {issue.state}",
        f"Labels: {', '.join(issue.labels) if issue.labels else '(none)'}",
        "Body:",
        issue.body if issue.body.strip() else "(empty body)",
        "Comments:",
    ]
    budget_chars = char_budget
    shown = 0
    for comment in issue.comments[:comment_budget]:
        body = comment.body
        if len(body) > budget_chars:
            body = body[:budget_chars] + " [truncated]"
        budget_chars -= min(len(comment.body), budget_chars)
        lines.append(f"- [{comment.author_role}] {body}")
        shown += 1
        if budget_chars <= 0:
            break
    if shown < len(issue.comments):
        lines.append(f"[{len(issue.comments) - shown} more comment(s) truncated]")
    elif not issue.comments:
        lines.append("(no comments)")
    return "\n".join(lines)


def map_issues(issues: Iterable[IssueRecord], one: Callable, parallelism: int, failed: Callable) -> list:
    """`one(issue)` for each issue, in input order, on `parallelism` threads
    (inline when 1). An exception from `one` becomes `failed(issue, exc)`
    rather than aborting the batch."""
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")

    def isolated(issue: IssueRecord):
        try:
            return one(issue)
        except Exception as exc:
            return failed(issue, exc)

    if parallelism == 1:
        return [isolated(issue) for issue in issues]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(isolated, issues))


@dataclass(frozen=True)
class GoldLabel:
    repo: str
    number: int
    fault_related: bool | None = None
    symptom_leaf: str | None = None
    root_cause: str | None = None

    @property
    def key(self) -> IssueKey:
        return (self.repo, self.number)


def import_dump(path: str | Path) -> Corpus:
    """Read a line-delimited JSON dump into a Corpus.

    Every rejection reports the 1-based line number it came from.
    """
    records: list[IssueRecord] = []
    seen: set[IssueKey] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DumpFormatError(line_no, f"invalid JSON: {exc}") from exc
            try:
                record = IssueRecord.from_dict(raw)
            except (KeyError, TypeError, ValueError, OverflowError, RecordInvariantError) as exc:
                raise DumpFormatError(line_no, str(exc)) from exc
            if record.key in seen:
                raise DumpFormatError(
                    line_no, f"duplicate record key {record.repo}#{record.number}"
                )
            seen.add(record.key)
            records.append(record)
    return Corpus(records=records, source="dump")


def write_jsonl(path: str | Path, rows: Iterable[dict], spans: list | None = None) -> str:
    """Write one sorted-key JSON object per line; return the sha256 of the
    bytes written, hashed as they are written. When `spans` is a list, the
    (offset, length) of each line is appended to it."""
    digest = hashlib.sha256()
    offset = 0
    with open(path, "wb") as fh:
        for row in rows:
            line = (json.dumps(row, sort_keys=True) + "\n").encode("utf-8")
            digest.update(line)
            fh.write(line)
            if spans is not None:
                spans.append((offset, len(line)))
            offset += len(line)
    return digest.hexdigest()


def export_dump(corpus: Corpus, path: str | Path, spans: list | None = None) -> str:
    """Write `corpus` as a line-delimited JSON dump; return its sha256. When
    `spans` is a list, it receives each record's (offset, length) in the dump."""
    return write_jsonl(path, (record.to_dict() for record in corpus), spans)


def copy_spans(source: str | Path, path: str | Path, spans: Iterable[tuple[int, int]]) -> str:
    """Write the (offset, length) byte ranges of `source` to `path`, in the
    order given; return the sha256 of the bytes written."""
    digest = hashlib.sha256()
    with open(source, "rb") as src, open(path, "wb") as fh:
        for offset, length in spans:
            src.seek(offset)
            chunk = src.read(length)
            digest.update(chunk)
            fh.write(chunk)
    return digest.hexdigest()


def load_gold(path: str | Path) -> dict[IssueKey, GoldLabel]:
    """Read the gold-label CSV (repo, number, fault_related, symptom_leaf_id,
    root_cause_id; empty cells allowed)."""
    gold: dict[IssueKey, GoldLabel] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"repo", "number", "fault_related", "symptom_leaf_id", "root_cause_id"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise GoldFileError(
                f"gold file must have columns {sorted(required)}, got {reader.fieldnames}"
            )
        for row_no, row in enumerate(reader, start=2):
            repo = row["repo"].strip()
            try:
                number = int(row["number"])
            except ValueError as exc:
                raise GoldFileError(f"gold row {row_no}: bad issue number") from exc
            fault_raw = row["fault_related"].strip().lower()
            fault_related = None if fault_raw == "" else fault_raw in ("true", "1", "yes")
            symptom = row["symptom_leaf_id"].strip() or None
            root_cause = row["root_cause_id"].strip() or None
            if fault_related is None and symptom is None and root_cause is None:
                raise GoldFileError(f"gold row {row_no}: no populated label field")
            key = (repo, number)
            if key in gold:
                raise GoldFileError(f"gold row {row_no}: duplicate key {repo}#{number}")
            gold[key] = GoldLabel(
                repo=repo, number=number, fault_related=fault_related,
                symptom_leaf=symptom, root_cause=root_cause,
            )
    return gold


def sample_balanced(
    corpus: Corpus,
    gold: dict[IssueKey, GoldLabel],
    n_pos: int,
    n_neg: int,
    seed: int,
) -> Corpus:
    """Draw a balanced fault / non-fault subset, uniformly without replacement.

    Uses Python's Mersenne Twister seeded explicitly over key-sorted strata,
    so identical (corpus, gold, seed) inputs select identical records on any
    platform regardless of corpus ordering.
    """
    pos_keys = sorted(
        k for k in corpus.keys() if gold.get(k) and gold[k].fault_related is True
    )
    neg_keys = sorted(
        k for k in corpus.keys() if gold.get(k) and gold[k].fault_related is False
    )
    if len(pos_keys) < n_pos:
        raise SamplingError("fault", n_pos, len(pos_keys))
    if len(neg_keys) < n_neg:
        raise SamplingError("non-fault", n_neg, len(neg_keys))

    rng = random.Random(seed)
    chosen = set(rng.sample(pos_keys, n_pos))
    chosen.update(rng.sample(neg_keys, n_neg))
    records = [r for r in corpus if r.key in chosen]
    return Corpus(records=records, source=corpus.source, fetched_at=corpus.fetched_at)


def merge_corpora(parts: Iterable[Corpus], source: str) -> Corpus:
    records: list[IssueRecord] = []
    for part in parts:
        records.extend(part.records)
    return Corpus(records=records, source=source)
