"""Stage II: decide per issue whether it is fault-related.

Four criteria: a deterministic vocabulary / label / date / answered check runs
first and short-circuits the LLM call; the two semantic criteria (actual fault
reporting, technical clarity) are judged by the model.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from pathlib import Path

from .corpus import Corpus, IssueRecord, Record, map_issues, render_issue
from .gateway import ChatRequest, Gateway, ask_structured, extract_structured

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
class CriterionResult(Record):
    criterion: str
    passed: bool
    evidence: str = ""


@dataclass(kw_only=True)
class FilterDecision(Record):
    repo: str
    number: int
    trace: list[CriterionResult] = field(default_factory=list)
    llm_verdict: bool | None = None
    llm_rationale: str | None = None
    final: bool
    error: str | None = None

    @property
    def key(self) -> tuple[str, int]:
        return (self.repo, self.number)


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
        + render_issue(issue, criteria.comment_budget, criteria.char_budget)
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


def _undecided(issue: IssueRecord, trace: list[CriterionResult], error: str | None = None) -> FilterDecision:
    return FilterDecision(repo=issue.repo, number=issue.number, trace=trace, final=False, error=error)


def judge(
    issue: IssueRecord,
    criteria: FilterCriteria,
    gateway: Gateway,
    model_id: str,
    trace: list[CriterionResult] | None = None,
) -> FilterDecision:
    """Full per-issue verdict: deterministic short-circuit, then LLM.
    `trace` is the issue's `apply_deterministic` result, when the caller
    has it already."""
    if trace is None:
        trace = apply_deterministic(issue, criteria)
    if not all(c.passed for c in trace):
        return _undecided(issue, trace)

    answer = ask_structured(
        gateway,
        build_filter_prompt(issue, criteria, model_id),
        lambda text: extract_structured(text, {"fault_related"}),
        lambda exc: f"\n\nYour previous answer could not be parsed ({exc}). "
        "Return only the JSON object.",
    )
    if answer.error is not None:
        return _undecided(issue, trace, f"{PARSE_FAILURE_MARKER}: {answer.error}")
    verdict = bool(answer.value["fault_related"])
    return FilterDecision(
        repo=issue.repo, number=issue.number, trace=trace,
        llm_verdict=verdict,
        llm_rationale=str(answer.value.get("rationale", "")),
        final=verdict,
    )


def run_stage2(
    corpus: Corpus,
    criteria: FilterCriteria,
    gateway: Gateway,
    model_id: str,
    parallelism: int = 1,
) -> list[FilterDecision]:
    """One decision per record, in corpus order; per-issue failures are
    recorded in the decision rather than aborting the batch.

    The deterministic check runs inline for every issue; only the issues
    that pass it go to the `parallelism` threads that ask the model."""
    traces = {issue.key: apply_deterministic(issue, criteria) for issue in corpus}
    passed = [issue for issue in corpus if all(c.passed for c in traces[issue.key])]

    def failed(issue: IssueRecord, exc: Exception) -> FilterDecision:
        return _undecided(issue, traces[issue.key], f"{type(exc).__name__}: {exc}")

    judged = map_issues(
        passed,
        lambda issue: judge(issue, criteria, gateway, model_id, traces[issue.key]),
        parallelism,
        failed,
    )
    by_key = {decision.key: decision for decision in judged}
    return [by_key.get(issue.key) or _undecided(issue, traces[issue.key]) for issue in corpus]
