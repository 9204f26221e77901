"""Issue corpus: normalized records, dump import/export, gold labels, sampling."""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import io
import json
import os
import random
import types
import typing
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .errors import CorpusError, RecordInvariantError

IssueKey = tuple[str, int]

Timestamp = typing.NewType("Timestamp", str)
"""A time in UTC to the second, as the text `YYYY-MM-DDTHH:MM:SSZ`. The text
is fixed-width, so comparing two of them compares the times. Nothing checks
the text at run time: `from_dict` makes it canonical, and a record built
directly must be given `canonical_timestamp` or `format_timestamp` text."""


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
    return "%04d-%02d-%02dT%02d:%02d:%02dZ" % (ts.year, ts.month, ts.day, ts.hour, ts.minute, ts.second)


def canonical_timestamp(value) -> Timestamp:
    """`value` as a Timestamp: `format_timestamp(parse_timestamp(value))`,
    without the round trip for text already in that form. Such text is
    still checked to name a time that exists: `fromisoformat`, given it
    without the `Z` (which Python 3.10 does not read), takes ASCII digits
    only in the places the shape test leaves to them. Hours stop at 23: an
    interpreter that reads `T24:00:00` as the next midnight must normalise it."""
    # `value[4::3]` is the characters at 4, 7, 10, 13, 16 and 19: the shape's
    # separators, tested in one comparison.
    if (value.__class__ is str and len(value) == 20 and value[4::3] == "--T::Z"
            and value[11:13] < "24" and value.isascii()):
        try:
            datetime.fromisoformat(value[:19])
            return value
        except ValueError:
            pass  # parse_timestamp decides, as for any other text
    return format_timestamp(parse_timestamp(value))


def integer(value) -> int:
    """A JSON integer. An integral float or a numeric string reads as one;
    a boolean or a fraction is a TypeError."""
    if value.__class__ is int:
        return value
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise TypeError(f"expected an integer, not {value!r}")
    return int(value)


def _number(value) -> float:
    """A JSON number as a float; a boolean or a string is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, not {value!r}")
    return float(value)


def _expect(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise TypeError(f"expected {what}, not {type(value).__name__}")
    return value


def _codec(tp) -> tuple[Callable | None, Callable]:
    """(encode, decode) for values of field type `tp`. `encode` is None where
    a value is already JSON-shaped; `decode` takes a value that is not None."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (types.UnionType, typing.Union):  # X | None; typing.Union when X is a NewType
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
            lambda v: {int(k): _number(x) for k, x in _expect(v, dict, "an object").items()}
        )
    if tp is Timestamp:
        return None, canonical_timestamp
    if isinstance(tp, type) and issubclass(tp, Record):
        return _compiled(tp)
    if tp is str:  # a number reads as its text
        return None, lambda v: _expect(v, str, "a string") if isinstance(v, (dict, list)) else str(v)
    if tp is bool:
        return None, lambda v: _expect(v, bool, "a boolean")
    if tp is int:
        return None, integer
    if tp is float:
        return None, _number
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
        value = f"_decode_{name}(v)"
        if hints[name] is str:  # a string is taken as it is, without a call
            value = f"(v if v.__class__ is str else {value})"
        decoded.append(f"{name}={value} if (v := raw.get({name!r})) is not None else {fallback}")
    exec(
        f"def encode(self):\n    return {{{', '.join(encoded)}}}\n"
        "def decode(raw):\n    if not isinstance(raw, dict):\n        _expect(raw, dict, 'an object')\n"
        f"    return cls({', '.join(decoded)})\n",
        env,
    )
    return env["encode"], env["decode"]


class Record:
    """Base of the dataclasses that are written as JSON.

    `to_dict` gives the JSON-shaped dict: tuples as lists, dict keys as
    strings, nested records alike; a Timestamp is already its text.
    `from_dict` reads one back by the field types, a Timestamp through
    `canonical_timestamp`. A key that is missing or null takes the field's
    default; without one it is a KeyError, and a value of the wrong shape is
    a TypeError or ValueError.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        return _compiled(type(self))[0](self)

    @classmethod
    def from_dict(cls, raw: dict):
        return _compiled(cls)[1](raw)


@dataclass(frozen=True, slots=True, kw_only=True)
class Comment(Record):
    """One comment; `created_at` is Timestamp text, as for IssueRecord."""

    author_role: str = ""
    created_at: Timestamp
    body: str = ""


@dataclass(frozen=True, slots=True, kw_only=True)
class IssueRecord(Record):
    """One issue; its invariants are checked on construction. Its
    timestamps are Timestamp text, which `from_dict` makes canonical; a
    caller that builds one directly passes `canonical_timestamp(v)` or
    `format_timestamp(dt)`, since other text would compare and be written
    as it is."""

    repo: str
    number: int
    title: str = ""
    state: str
    created_at: Timestamp
    updated_at: Timestamp
    closed_at: Timestamp | None = None
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


@dataclass(frozen=True)
class GoldLabel:
    repo: str
    number: int
    fault_related: bool | None = None
    symptom_leaf: str | None = None
    root_cause: str | None = None


def read_lines(path: str | Path, kind: type, lines: bool = False) -> Iterator[tuple[int, Record, bytes | None]]:
    """Each non-blank line of the line-delimited JSON file at `path` as a
    `kind` record, with its 1-based line number and, if `lines`, the bytes
    that write the record as a line: the line's own, given a `\n` if it has
    none, when the record encodes to the object the line holds, else
    `jsonl_line` of its encoding. Lines end at `\n` only, the JSON Lines
    separator, and a line of ASCII whitespace alone is blank. A line that
    does not read as one (not UTF-8 included) raises a CorpusError naming
    the file and the line."""
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                # json.loads of the bytes would decode them too, but about 70 % slower.
                raw = json.loads(line.decode("utf-8"))
                record = kind.from_dict(raw)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path} line {line_no}: invalid JSON: {exc}") from exc
            except (KeyError, TypeError, ValueError, OverflowError, RecordInvariantError) as exc:
                raise CorpusError(f"{path} line {line_no}: {exc}") from exc
            if not lines:
                yield line_no, record, None
            elif (row := record.to_dict()) != raw:
                yield line_no, record, jsonl_line(row)
            else:  # the line decodes to `row` again, so it is as good as `row`'s encoding, and cheaper
                yield line_no, record, line if line.endswith(b"\n") else line + b"\n"


def read_dump(path: str | Path, lines: bool = False) -> Iterator[tuple[IssueRecord, bytes | None]]:
    """The records of a line-delimited JSON dump, in file order, one at a
    time, each with its line as `read_lines` gives it. Every rejection, a
    key seen twice included, reports the 1-based line number it came from."""
    seen: set[IssueKey] = set()
    for line_no, record, line in read_lines(path, IssueRecord, lines):
        if record.key in seen:
            raise CorpusError(f"{path} line {line_no}: duplicate record key {record.repo}#{record.number}")
        seen.add(record.key)
        yield record, line


def import_dump(path: str | Path) -> list[IssueRecord]:
    """The records of a line-delimited JSON dump, in file order (see `read_dump`)."""
    return [record for record, _ in read_dump(path)]


# `json.dumps(row, sort_keys=True)` without building an encoder per call. The
# rows are fresh `to_dict` output, which holds no cycle to check for.
_encode_row = json.JSONEncoder(sort_keys=True, check_circular=False).encode


def sha256_json(obj) -> str:
    """sha256 of `obj` as canonical JSON: sorted keys, no whitespace, ASCII."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("ascii")).hexdigest()


def write_atomic(path: str | Path, chunks: Iterable[bytes]) -> str:
    """Write the byte `chunks` to `path`; return the sha256 of the bytes
    written, hashed as they are written. They go to `<path>.tmp`, which
    replaces `path` once the last chunk is written and is removed on any
    exception, so a failed or killed write leaves `path` as it was."""
    tmp, digest = f"{path}.tmp", hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                digest.update(chunk)
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
    return digest.hexdigest()


def jsonl_line(row: dict) -> bytes:
    """`row` as one line of sorted-key JSON."""
    return (_encode_row(row) + "\n").encode("utf-8")


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> str:
    """Write one sorted-key JSON object per line through `write_atomic`;
    return the sha256 of the bytes written."""
    return write_atomic(path, map(jsonl_line, rows))


def export_dump(records: Iterable[IssueRecord], path: str | Path) -> str:
    """Write `records` as a line-delimited JSON dump; return its sha256."""
    return write_jsonl(path, (record.to_dict() for record in records))


def copy_lines(source: str | Path, path: str | Path, keep: set[int]) -> str:
    """Copy to `path` through `write_atomic`, byte for byte and in order,
    each non-blank line of `source` (as `read_lines` splits it) whose 0-based
    index among them is in `keep`; return the sha256 of the bytes written."""
    with open(source, "rb") as src:
        lines = (line for line in src if not line.isspace())
        return write_atomic(path, (line for index, line in enumerate(lines) if index in keep))


_GOLD_FAULT = {"": None, **dict.fromkeys(("true", "1", "yes"), True), **dict.fromkeys(("false", "0", "no"), False)}


def load_gold(path: str | Path) -> dict[IssueKey, GoldLabel]:
    """Read the gold-label CSV (repo, number, fault_related, symptom_leaf_id,
    root_cause_id; empty cells allowed). Each row has a cell for each column
    of the header; a blank row is skipped, a leading byte-order mark dropped.
    fault_related is true/1/yes, false/0/no (any case) or empty, unlabelled."""
    gold: dict[IssueKey, GoldLabel] = {}
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise CorpusError(f"gold file {path} is not UTF-8: {exc}") from exc
        reader = csv.reader(io.StringIO(text, newline=""))
        header = next(reader, None)
        required = {"repo", "number", "fault_related", "symptom_leaf_id", "root_cause_id"}
        if header is None or not required.issubset(header):
            raise CorpusError(f"gold file must have columns {sorted(required)}, got {header}")
        for row_no, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(header):
                raise CorpusError(f"gold row {row_no}: {len(cells)} cells, but the header has {len(header)}")
            row = dict(zip(header, cells))
            repo = row["repo"].strip()
            try:
                number = int(row["number"])
            except ValueError as exc:
                raise CorpusError(f"gold row {row_no}: bad issue number") from exc
            cell = row["fault_related"]
            if (fault_raw := cell.strip().lower()) not in _GOLD_FAULT:
                raise CorpusError(f"gold row {row_no}: fault_related must be true or false, not {cell!r}")
            fault_related = _GOLD_FAULT[fault_raw]
            symptom = row["symptom_leaf_id"].strip() or None
            root_cause = row["root_cause_id"].strip() or None
            if fault_related is None and symptom is None and root_cause is None:
                raise CorpusError(f"gold row {row_no}: no populated label field")
            key = (repo, number)
            if key in gold:
                raise CorpusError(f"gold row {row_no}: duplicate key {repo}#{number}")
            gold[key] = GoldLabel(
                repo=repo, number=number, fault_related=fault_related,
                symptom_leaf=symptom, root_cause=root_cause,
            )
    return gold


def sample_balanced(
    keys: Iterable[IssueKey],
    gold: dict[IssueKey, GoldLabel],
    n_pos: int,
    n_neg: int,
    seed: int,
) -> set[IssueKey]:
    """Draw a balanced fault / non-fault subset of `keys`, uniformly without
    replacement, and return the chosen keys.

    Uses Python's Mersenne Twister seeded explicitly over key-sorted strata,
    so identical (keys, gold, seed) inputs choose identical keys on any
    platform regardless of key order.
    """
    pos_keys, neg_keys = [], []
    for k in keys:
        if (g := gold.get(k)) is not None and g.fault_related is not None:
            (pos_keys if g.fault_related else neg_keys).append(k)
    pos_keys.sort()
    neg_keys.sort()
    for stratum, keys, n in (("fault", pos_keys, n_pos), ("non-fault", neg_keys, n_neg)):
        if len(keys) < n:
            raise CorpusError(
                f"stratum {stratum!r}: requested {n} but only {len(keys)} available (shortfall {n - len(keys)})"
            )

    rng = random.Random(seed)
    chosen = set(rng.sample(pos_keys, n_pos))
    chosen.update(rng.sample(neg_keys, n_neg))
    return chosen

