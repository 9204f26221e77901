"""Stage I: elicit a study plan (projects + research questions) and score it
against a reference project list."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import Record
from .errors import EmptyPlanError, EmptyReferenceError
from .gateway import ChatRequest, Gateway, ask_structured, extract_structured

_SUFFIXES = ("js",)  # ".js" reduces to "js" once punctuation is stripped


def normalize_project_name(name: str) -> str:
    """Fold case and punctuation, and drop a trailing js suffix, so
    "Tensorflow JS", "TensorFlow.js", and "tensorflowjs" all compare equal."""
    folded = re.sub(r"[^0-9a-z]+", "", name.casefold())
    for suffix in _SUFFIXES:
        if folded.endswith(suffix) and len(folded) > len(suffix):
            folded = folded[: -len(suffix)]
    return folded


@dataclass
class StudyTheme:
    description: str
    constraints: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.description.strip():
            raise ValueError("theme description must be non-empty")


@dataclass
class ProjectCandidate(Record):
    name: str
    url: str | None = None
    rationale: str = ""

    def __post_init__(self) -> None:
        self.url = self.url or None  # a model may answer "" for no url


@dataclass
class StudyPlan(Record):
    projects: list[ProjectCandidate] = field(default_factory=list)
    research_questions: list[str] = field(default_factory=list)


def build_study_prompt(theme: StudyTheme, model_id: str) -> ChatRequest:
    constraint_block = "\n".join(f"- {c}" for c in theme.constraints) or "- none"
    user_text = (
        "Research theme:\n"
        f"{theme.description}\n\n"
        "Constraints:\n"
        f"{constraint_block}\n\n"
        "Select representative open-source projects to study for this theme "
        "and formulate research questions appropriate for an empirical fault "
        "study of those projects.\n\n"
        "Respond with a single JSON object of the form:\n"
        '{"projects": [{"name": "...", "url": "...", "rationale": "..."}], '
        '"research_questions": ["..."]}\n'
        "Return only the JSON object."
    )
    return ChatRequest(
        model_id=model_id,
        system_text=(
            "You are an empirical software engineering researcher planning a "
            "study of software faults."
        ),
        user_text=user_text,
    )


def propose_study(theme: StudyTheme, gateway: Gateway, model_id: str) -> StudyPlan:
    """Ask the model for a study plan, with up to two structured-output repair
    retries; duplicate projects (after name normalization) are merged."""
    answer = ask_structured(
        gateway,
        build_study_prompt(theme, model_id),
        lambda text: extract_structured(text, {"projects", "research_questions"}),
        lambda exc: f"\n\nYour previous answer could not be parsed ({exc}). "
        "Return only the JSON object described above.",
    )
    if answer.error is not None:
        raise answer.error

    plan = StudyPlan.from_dict(answer.value)
    merged: dict[str, ProjectCandidate] = {}
    for project in plan.projects:
        key = normalize_project_name(project.name)
        if key not in merged:
            merged[key] = project
    plan.projects = list(merged.values())
    if not plan.projects or not plan.research_questions:
        raise EmptyPlanError("study plan needs at least one project and one research question")
    return plan


@dataclass
class PlanScore(Record):
    recall: float
    hits: list[str]
    misses: list[str]
    extras: list[str]


def load_reference_projects(path: str | Path) -> list[str]:
    """One project name per line; '#' starts a comment."""
    names = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            names.append(line)
    return names


def score_plan(plan: StudyPlan, reference: list[str]) -> PlanScore:
    """Recall of the plan's projects against a reference list under
    normalized-name matching. hits + misses partition the reference."""
    if not reference:
        raise EmptyReferenceError("reference project list is empty")
    plan_keys = {normalize_project_name(p.name): p.name for p in plan.projects}
    hits, misses = [], []
    matched_keys = set()
    for ref_name in reference:
        key = normalize_project_name(ref_name)
        if key in plan_keys:
            hits.append(ref_name)
            matched_keys.add(key)
        else:
            misses.append(ref_name)
    extras = [name for key, name in plan_keys.items() if key not in matched_keys]
    return PlanScore(
        recall=len(hits) / len(reference), hits=hits, misses=misses, extras=extras
    )
