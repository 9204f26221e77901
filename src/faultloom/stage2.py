"""Stage II: decide per issue whether it is fault-related.

Four criteria: a deterministic vocabulary / label / date / answered check runs
first and short-circuits the LLM call; the two semantic criteria (actual fault
reporting, technical clarity) are judged by the model.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

from .corpus import IssueRecord, Record, render_issue
from .errors import StructuredOutputError
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
    """One term per line; '#' starts a comment line. A leading byte-order mark is dropped."""
    terms = []
    for line in Path(path).read_text(encoding="utf-8-sig").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            terms.append(line)
    if not terms:
        raise ValueError("holds no vocabulary terms")
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
    # A term with a needle matches only where the needle occurs in the folded
    # text, since folding keeps every index (only U+0130 grows under lower(),
    # and _FOLD maps it first): its pattern is tried at each such index, where
    # the lookbehind still sees the text before it, and scans nothing between.
    matched = ""
    text = "\n".join([issue.title, issue.body] + [c.body for c in issue.comments])
    folded = (text if text.isascii() else text.translate(_FOLD)).lower()
    for term, needle, pattern in criteria.term_patterns:
        at = -1 if needle is None else folded.find(needle)
        while at >= 0 and not pattern.match(text, at):
            at = folded.find(needle, at + 1)
        if at >= 0 or needle is None and pattern.search(text):
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

    created, cutoff = issue.created_at[:10], criteria.cutoff_date.isoformat()  # YYYY-MM-DD: text order is date order
    recent = created >= cutoff
    trace.append(
        CriterionResult(
            CRITERION_CUTOFF_DATE,
            recent,
            f"created {created}" + ("" if recent else f" before cutoff {cutoff}"),
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


def _parse_verdict(text: str) -> dict:
    """The answer's object, whose `fault_related` must be a JSON boolean."""
    fields = extract_structured(text, {"fault_related"})
    if not isinstance(verdict := fields["fault_related"], bool):
        raise StructuredOutputError(f"fault_related must be true or false, not {verdict!r}")
    return fields


def run_stage2(
    issues: list[IssueRecord],
    criteria: FilterCriteria,
    gateway: Gateway,
    model_id: str,
) -> list[FilterDecision]:
    """One decision per issue, in input order. The deterministic check runs
    inline for every issue; only the issues that pass it go to `gateway.map`
    to ask the model, so a call that did not return fails the batch with a
    GatewayError naming its issue."""
    traces = {issue.key: apply_deterministic(issue, criteria) for issue in issues}

    def judge(issue: IssueRecord) -> FilterDecision:
        trace = traces[issue.key]
        answer = ask_structured(
            gateway,
            build_filter_prompt(issue, criteria, model_id),
            _parse_verdict,
            lambda exc: f"\n\nYour previous answer could not be parsed ({exc}). "
            "Return only the JSON object.",
        )
        if answer.error is not None:
            return _undecided(issue, trace, f"{PARSE_FAILURE_MARKER}: {answer.error}")
        verdict, rationale = answer.value["fault_related"], answer.value.get("rationale")
        return FilterDecision(
            repo=issue.repo, number=issue.number, trace=trace,
            llm_verdict=verdict, final=verdict,
            llm_rationale="" if rationale is None else str(rationale),
        )

    passed = [issue for issue in issues if all(c.passed for c in traces[issue.key])]
    by_key = {decision.key: decision for decision in gateway.map(judge, passed)}
    return [by_key.get(issue.key) or _undecided(issue, traces[issue.key]) for issue in issues]
