"""Issue corpus: normalized records, dump import/export, gold labels, sampling."""

from __future__ import annotations

import csv
import hashlib
import json
import random
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
    ts = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        raise ValueError(f"timestamp {value!r} has no timezone")
    return ts.astimezone(timezone.utc)


def format_timestamp(ts: datetime) -> str:
    """`ts` in UTC to the second, as `YYYY-MM-DDTHH:MM:SSZ`."""
    if ts.tzinfo is not timezone.utc:
        ts = ts.astimezone(timezone.utc)
    return ts.isoformat(timespec="seconds")[:-6] + "Z"  # "+00:00" -> "Z"


@dataclass(frozen=True)
class Comment:
    author_role: str
    created_at: datetime
    body: str


@dataclass(frozen=True)
class IssueRecord:
    repo: str
    number: int
    title: str
    state: str
    created_at: datetime
    updated_at: datetime
    closed_at: datetime | None
    body: str
    labels: tuple[str, ...]
    comments: tuple[Comment, ...]
    is_pull_request: bool
    url: str

    @property
    def key(self) -> IssueKey:
        return (self.repo, self.number)

    def validate(self) -> None:
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

    def to_dict(self) -> dict:
        return {
            "repo": self.repo,
            "number": self.number,
            "title": self.title,
            "state": self.state,
            "created_at": format_timestamp(self.created_at),
            "updated_at": format_timestamp(self.updated_at),
            "closed_at": format_timestamp(self.closed_at) if self.closed_at else None,
            "body": self.body,
            "labels": list(self.labels),
            "comments": [
                {
                    "author_role": c.author_role,
                    "created_at": format_timestamp(c.created_at),
                    "body": c.body,
                }
                for c in self.comments
            ],
            "is_pull_request": self.is_pull_request,
            "url": self.url,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "IssueRecord":
        record = cls(
            repo=str(raw["repo"]),
            number=int(raw["number"]),
            title=str(raw.get("title", "")),
            state=str(raw["state"]),
            created_at=parse_timestamp(raw["created_at"]),
            updated_at=parse_timestamp(raw["updated_at"]),
            closed_at=parse_timestamp(raw["closed_at"]) if raw.get("closed_at") else None,
            body=str(raw.get("body") or ""),
            labels=tuple(str(x) for x in raw.get("labels", [])),
            comments=tuple(
                Comment(
                    author_role=str(c.get("author_role", "")),
                    created_at=parse_timestamp(c["created_at"]),
                    body=str(c.get("body") or ""),
                )
                for c in raw.get("comments", [])
            ),
            is_pull_request=bool(raw.get("is_pull_request", False)),
            url=str(raw.get("url", "")),
        )
        record.validate()
        return record


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
            except (KeyError, ValueError, RecordInvariantError) as exc:
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
