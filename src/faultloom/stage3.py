"""Stage III: taxonomy-anchored classification of fault-related issues into a
symptom leaf and a root-cause subcategory, with validation and repair."""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import IssueRecord, Record, render_issue
from .errors import TaxonomyError
from .gateway import ChatRequest, Gateway, ask_structured, extract_structured
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


def build_classification_prompt(
    issue: IssueRecord,
    model_id: str,
    outlines: tuple[str, str],
    comment_budget: int,
    char_budget: int,
) -> ChatRequest:
    """Deterministic prompt: both taxonomy outlines (`render_prompt_section`
    of the symptom and of the root-cause taxonomy), exact-name selection
    instructions, the issue content within the two budgets, and the
    structured output contract."""
    symptom_outline, root_cause_outline = outlines
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


def run_stage3(
    issues: list[IssueRecord],
    symptoms: Taxonomy,
    root_causes: Taxonomy,
    gateway: Gateway,
    model_id: str,
    *,
    comment_budget: int,
    char_budget: int,
) -> list[FaultLabel]:
    """One label per issue, in input order, through `gateway.map`: a call that
    did not return fails the batch with a GatewayError naming its issue. Each
    issue gets one provider call plus up to 2 repairs; an answer still
    rejected after them is an invalid label, never coerced. The budgets bound
    the issue text of each prompt."""
    outlines = render_prompt_section(symptoms), render_prompt_section(root_causes)

    def parse(text: str) -> tuple[dict, TaxonomyNode, TaxonomyNode]:
        fields = extract_structured(text, {"symptom", "root_cause"})
        return (
            fields,
            _resolve_leaf(symptoms, str(fields["symptom"]), "symptom"),
            _resolve_leaf(root_causes, str(fields["root_cause"]), "root cause"),
        )

    def classify(issue: IssueRecord) -> FaultLabel:
        # Positional only, so a wrapper of the builder taking *args sees them all.
        request = build_classification_prompt(issue, model_id, outlines, comment_budget, char_budget)
        answer = ask_structured(
            gateway, request, parse,
            lambda exc: f"\n\nYour previous answer was rejected: {exc}. "
            "Answer again with exact names from the taxonomies, as a "
            "single JSON object.",
        )
        if answer.error is not None:
            return FaultLabel(repo=issue.repo, number=issue.number, attempts=answer.attempts, valid=False,
                              raw_output=answer.text, error=str(answer.error))
        fields, symptom_node, root_cause_node = answer.value
        return FaultLabel(
            repo=issue.repo, number=issue.number,
            symptom_leaf=symptom_node.id, root_cause=root_cause_node.id,
            rationale="" if (rationale := fields.get("rationale")) is None else str(rationale),
            attempts=answer.attempts,
            valid=True,
        )

    return gateway.map(classify, issues)
