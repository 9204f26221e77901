"""Stage II: decide per issue whether it is fault-related.

Four criteria: a deterministic vocabulary / label / date / answered check runs
first and short-circuits the LLM call; the two semantic criteria (actual fault
reporting, technical clarity) are judged by the model.
"""

from __future__ import annotations

import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from pathlib import Path

from .corpus import Corpus, IssueRecord
from .errors import StructuredOutputError
from .gateway import ChatRequest, Gateway, extract_structured

REPAIR_RETRIES = 2
DEFAULT_COMMENT_BUDGET = 20
DEFAULT_CHAR_BUDGET = 8000

CRITERION_VOCABULARY = "vocabulary"
CRITERION_EXCLUSION_LABEL = "exclusion_label"
CRITERION_CUTOFF_DATE = "cutoff_date"
CRITERION_ANSWERED = "answered"

PARSE_FAILURE_MARKER = "structured-output-parse-failure"


@dataclass
class FilterCriteria:
    """The deterministic criteria; term patterns and the exclusion-label set
    are built once, at construction."""

    vocabulary: list[str]
    exclusion_labels: list[str] = field(default_factory=list)
    cutoff_date: date = date(2020, 1, 1)
    require_answered: bool = True
    comment_budget: int = DEFAULT_COMMENT_BUDGET
    char_budget: int = DEFAULT_CHAR_BUDGET
    term_patterns: list[tuple[str, str | None, re.Pattern]] = field(init=False, repr=False, compare=False)
    excluded: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.vocabulary:
            raise ValueError("vocabulary must be non-empty")
        if any("\n" in term for term in self.vocabulary):
            raise ValueError("vocabulary terms must not contain a newline")
        # The needle screens a term against the folded issue text; a
        # non-ASCII term has none, so its pattern always decides.
        self.term_patterns = [
            (term, term.lower() if term.isascii() else None, _term_pattern(term))
            for term in self.vocabulary
        ]
        self.excluded = frozenset(self.exclusion_labels)


def load_vocabulary(path: str | Path) -> list[str]:
    terms = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            terms.append(line)
    return terms


@dataclass
class CriterionResult:
    criterion: str
    passed: bool
    evidence: str

    def to_dict(self) -> dict:
        return {"criterion": self.criterion, "passed": self.passed, "evidence": self.evidence}


@dataclass
class FilterDecision:
    repo: str
    number: int
    trace: list[CriterionResult]
    llm_verdict: bool | None
    llm_rationale: str | None
    final: bool
    error: str | None = None

    @property
    def key(self) -> tuple[str, int]:
        return (self.repo, self.number)

    def to_dict(self) -> dict:
        return {
            "repo": self.repo,
            "number": self.number,
            "trace": [c.to_dict() for c in self.trace],
            "llm_verdict": self.llm_verdict,
            "llm_rationale": self.llm_rationale,
            "final": self.final,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "FilterDecision":
        return cls(
            repo=str(raw["repo"]),
            number=int(raw["number"]),
            trace=[
                CriterionResult(
                    criterion=str(c["criterion"]),
                    passed=bool(c["passed"]),
                    evidence=str(c.get("evidence", "")),
                )
                for c in raw.get("trace", [])
            ],
            llm_verdict=raw.get("llm_verdict"),
            llm_rationale=raw.get("llm_rationale"),
            final=bool(raw["final"]),
            error=raw.get("error"),
        )


def _term_pattern(term: str) -> re.Pattern:
    # Whole-word on alphanumeric boundaries; terms carrying punctuation
    # (e.g. "tf.js") match as literal substrings bounded by non-alphanumerics.
    return re.compile(
        r"(?<![0-9A-Za-z])" + re.escape(term) + r"(?![0-9A-Za-z])",
        re.IGNORECASE,
    )


# The non-ASCII code points that re.IGNORECASE matches to an ASCII letter
# (İ ı ſ K); str.lower() alone would miss them or, for İ, add a character.
_FOLD = str.maketrans({"\u0130": "i", "\u0131": "i", "\u017f": "s", "\u212a": "k"})


def apply_deterministic(issue: IssueRecord, criteria: FilterCriteria) -> list[CriterionResult]:
    """Evaluate the four deterministic criteria; total, never raises."""
    trace: list[CriterionResult] = []

    # No term spans a newline and the lookarounds treat one like the edge of
    # a part, so one search of the joined text equals a search of each part.
    # A term whose needle is absent from the folded text cannot match there.
    matched = ""
    text = "\n".join([issue.title, issue.body] + [c.body for c in issue.comments])
    folded = text.translate(_FOLD).lower()
    for term, needle, pattern in criteria.term_patterns:
        if (needle is None or needle in folded) and pattern.search(text):
            matched = term
            break
    trace.append(
        CriterionResult(
            CRITERION_VOCABULARY,
            bool(matched),
            matched if matched else "no vocabulary term matched",
        )
    )

    excluded = [l for l in issue.labels if l in criteria.excluded]
    trace.append(
        CriterionResult(
            CRITERION_EXCLUSION_LABEL,
            not excluded,
            excluded[0] if excluded else "no exclusion label present",
        )
    )

    created = issue.created_at.date()
    recent = created >= criteria.cutoff_date
    trace.append(
        CriterionResult(
            CRITERION_CUTOFF_DATE,
            recent,
            f"created {created.isoformat()}" + ("" if recent else f" before cutoff {criteria.cutoff_date.isoformat()}"),
        )
    )

    if criteria.require_answered:
        answered = len(issue.comments) > 0
        trace.append(
            CriterionResult(
                CRITERION_ANSWERED,
                answered,
                f"{len(issue.comments)} comment(s)",
            )
        )
    return trace


def _render_issue_block(issue: IssueRecord, criteria: FilterCriteria) -> str:
    lines = [
        f"Issue: {issue.repo}#{issue.number}",
        f"Title: {issue.title}",
        f"State: {issue.state}",
        f"Labels: {', '.join(issue.labels) if issue.labels else '(none)'}",
        "Body:",
        issue.body if issue.body.strip() else "(empty body)",
        "Comments:",
    ]
    budget_chars = criteria.char_budget
    shown = 0
    for comment in issue.comments[: criteria.comment_budget]:
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


def build_filter_prompt(
    issue: IssueRecord, criteria: FilterCriteria, model_id: str
) -> ChatRequest:
    """Deterministic prompt carrying the two semantic criteria and the issue."""
    user_text = (
        "Decide whether the following issue is fault-related.\n\n"
        "An issue is fault-related only if it meets BOTH criteria:\n"
        "1. Actual Fault Reporting: it must describe observable problems, "
        "errors, or system failures rather than feature requests, general "
        "questions, or theoretical discussions.\n"
        "2. Technical Clarity: it must provide sufficient technical detail "
        "and clear problem descriptions that enable fault analysis and "
        "understanding.\n\n"
        + _render_issue_block(issue, criteria)
        + "\n\nRespond with a single JSON object: "
        '{"fault_related": true or false, "rationale": "..."}\n'
        "Return only the JSON object."
    )
    return ChatRequest(
        model_id=model_id,
        system_text=(
            "You are a software engineering researcher filtering issue "
            "trackers for fault reports."
        ),
        user_text=user_text,
    )


def judge(
    issue: IssueRecord,
    criteria: FilterCriteria,
    gateway: Gateway,
    model_id: str,
) -> FilterDecision:
    """Full per-issue verdict: deterministic short-circuit, then LLM."""
    trace = apply_deterministic(issue, criteria)
    if not all(c.passed for c in trace):
        return FilterDecision(
            repo=issue.repo, number=issue.number, trace=trace,
            llm_verdict=None, llm_rationale=None, final=False,
        )

    request = build_filter_prompt(issue, criteria, model_id)
    last_error: StructuredOutputError | None = None
    for _ in range(1 + REPAIR_RETRIES):
        response = gateway.complete(request)
        try:
            fields = extract_structured(response.text, {"fault_related"})
        except StructuredOutputError as exc:
            last_error = exc
            request = ChatRequest(
                model_id=request.model_id,
                system_text=request.system_text,
                user_text=(
                    request.user_text
                    + f"\n\nYour previous answer could not be parsed ({exc}). "
                    "Return only the JSON object."
                ),
            )
            continue
        verdict = bool(fields["fault_related"])
        return FilterDecision(
            repo=issue.repo, number=issue.number, trace=trace,
            llm_verdict=verdict,
            llm_rationale=str(fields.get("rationale", "")),
            final=verdict,
        )
    return FilterDecision(
        repo=issue.repo, number=issue.number, trace=trace,
        llm_verdict=None, llm_rationale=None, final=False,
        error=f"{PARSE_FAILURE_MARKER}: {last_error}",
    )


def run_stage2(
    corpus: Corpus,
    criteria: FilterCriteria,
    gateway: Gateway,
    model_id: str,
    parallelism: int = 1,
) -> list[FilterDecision]:
    """One decision per record, in corpus order; per-issue failures are
    recorded in the decision rather than aborting the batch."""
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")

    def _one(issue: IssueRecord) -> FilterDecision:
        try:
            return judge(issue, criteria, gateway, model_id)
        except Exception as exc:
            return FilterDecision(
                repo=issue.repo, number=issue.number,
                trace=apply_deterministic(issue, criteria),
                llm_verdict=None, llm_rationale=None, final=False,
                error=f"{type(exc).__name__}: {exc}",
            )

    if parallelism == 1:
        return [_one(issue) for issue in corpus]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(_one, corpus.records))
