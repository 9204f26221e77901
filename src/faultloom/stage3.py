"""Stage III: taxonomy-anchored classification of fault-related issues into a
symptom leaf and a root-cause subcategory, with validation and repair."""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Corpus, IssueRecord, Record, map_issues, render_issue
from .errors import TaxonomyError
from .gateway import ChatRequest, Gateway, ask_structured, extract_structured
from .stage2 import DEFAULT_CHAR_BUDGET, DEFAULT_COMMENT_BUDGET
from .taxonomy import Taxonomy, TaxonomyNode, render_prompt_section, resolve_label


@dataclass(kw_only=True)
class FaultLabel(Record):
    repo: str
    number: int
    symptom_leaf: str | None = None
    root_cause: str | None = None
    rationale: str = ""
    attempts: int = 1
    valid: bool
    raw_output: str | None = None  # final raw model text, kept when invalid
    error: str | None = None

    @property
    def key(self) -> tuple[str, int]:
        return (self.repo, self.number)


def _outlines(symptoms: Taxonomy, root_causes: Taxonomy) -> tuple[str, str]:
    return render_prompt_section(symptoms), render_prompt_section(root_causes)


def build_classification_prompt(
    issue: IssueRecord,
    symptoms: Taxonomy,
    root_causes: Taxonomy,
    model_id: str,
    outlines: tuple[str, str] | None = None,
    comment_budget: int = DEFAULT_COMMENT_BUDGET,
    char_budget: int = DEFAULT_CHAR_BUDGET,
) -> ChatRequest:
    """Deterministic prompt: both taxonomy outlines, exact-name selection
    instructions, the issue content within the two budgets, and the
    structured output contract. `outlines` is the pair of rendered taxonomy
    sections, when the caller has them already."""
    symptom_outline, root_cause_outline = outlines or _outlines(symptoms, root_causes)
    user_text = (
        "Classify the software fault described by the issue below.\n\n"
        "Symptom taxonomy (choose exactly one leaf-level specific type, by "
        "exact name):\n"
        + symptom_outline
        + "\nRoot-cause taxonomy (choose exactly one subcategory, by exact "
        "name; use \"Unknown\" only when the report gives no usable signal):\n"
        + root_cause_outline
        + "\n"
        + render_issue(issue, comment_budget, char_budget)
        + "\n\nRespond with a single JSON object: "
        '{"symptom": "<exact leaf name>", "root_cause": "<exact subcategory name>", '
        '"rationale": "..."}\n'
        "Return only the JSON object."
    )
    return ChatRequest(
        model_id=model_id,
        system_text=(
            "You are a software engineering researcher labeling fault reports "
            "against a fixed taxonomy."
        ),
        user_text=user_text,
    )


def _resolve_leaf(taxonomy: Taxonomy, label: str, what: str) -> TaxonomyNode:
    node = resolve_label(taxonomy, label)
    if not taxonomy.is_leaf_granularity(node):
        raise TaxonomyError(
            f"{what} label {label!r} names a level-{node.level} category, not a "
            f"leaf-granularity option"
        )
    return node


def _invalid(issue: IssueRecord, attempts: int, error: str, raw_output: str | None = None) -> FaultLabel:
    return FaultLabel(
        repo=issue.repo, number=issue.number, attempts=attempts, valid=False, raw_output=raw_output, error=error
    )


def classify(
    issue: IssueRecord,
    symptoms: Taxonomy,
    root_causes: Taxonomy,
    gateway: Gateway,
    model_id: str,
    outlines: tuple[str, str] | None = None,
    comment_budget: int = DEFAULT_COMMENT_BUDGET,
    char_budget: int = DEFAULT_CHAR_BUDGET,
) -> FaultLabel:
    """Single-issue classification: 1 provider call plus up to 2 repair
    retries; on exhaustion the label is marked invalid, never coerced."""

    def parse(text: str) -> tuple[dict, TaxonomyNode, TaxonomyNode]:
        fields = extract_structured(text, {"symptom", "root_cause"})
        return (
            fields,
            _resolve_leaf(symptoms, str(fields["symptom"]), "symptom"),
            _resolve_leaf(root_causes, str(fields["root_cause"]), "root cause"),
        )

    # Positional only, so a wrapper of the builder taking *args sees them all.
    request = build_classification_prompt(
        issue, symptoms, root_causes, model_id, outlines, comment_budget, char_budget
    )
    answer = ask_structured(
        gateway, request, parse,
        lambda exc: f"\n\nYour previous answer was rejected: {exc}. "
        "Answer again with exact names from the taxonomies, as a "
        "single JSON object.",
    )
    if answer.error is not None:
        return _invalid(issue, answer.attempts, str(answer.error), answer.text)
    fields, symptom_node, root_cause_node = answer.value
    return FaultLabel(
        repo=issue.repo, number=issue.number,
        symptom_leaf=symptom_node.id,
        root_cause=root_cause_node.id,
        rationale=str(fields.get("rationale", "")),
        attempts=answer.attempts,
        valid=True,
    )


def run_stage3(
    issues: Corpus,
    symptoms: Taxonomy,
    root_causes: Taxonomy,
    gateway: Gateway,
    model_id: str,
    parallelism: int = 1,
    comment_budget: int = DEFAULT_COMMENT_BUDGET,
    char_budget: int = DEFAULT_CHAR_BUDGET,
) -> list[FaultLabel]:
    """One label per issue, in input order, with per-issue fault isolation.
    The budgets bound the issue text of each prompt."""
    outlines = _outlines(symptoms, root_causes)

    def failed(issue: IssueRecord, exc: Exception) -> FaultLabel:
        return _invalid(issue, 1, f"{type(exc).__name__}: {exc}")

    return map_issues(
        issues,
        lambda issue: classify(
            issue, symptoms, root_causes, gateway, model_id, outlines, comment_budget, char_budget
        ),
        parallelism,
        failed,
    )
