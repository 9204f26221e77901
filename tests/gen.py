"""Deterministic builders for synthetic issues, corpora, and gold labels."""

from __future__ import annotations

import random
from datetime import datetime, timedelta, timezone

from faultloom.corpus import Comment, GoldLabel, IssueRecord, format_timestamp

VOCAB = [
    "WebGL", "dispose", "tensor", "backend", "tf.js", "memory", "inference",
    "model", "gpu", "shader",
]
NOISE = [
    "button", "docs", "typo", "question", "styling", "layout", "roadmap",
    "release", "license", "discussion",
]
EXCLUSION_LABELS = ["stat:awaiting response", "invalid"]

BASE_DATE = datetime(2021, 6, 1, tzinfo=timezone.utc)


def make_issue(
    repo: str = "acme/dlpipe",
    number: int = 1,
    title: str = "Crash when calling predict",
    body: str = "Calling model.predict throws an exception.",
    labels: tuple[str, ...] = (),
    created_at: datetime | None = None,
    n_comments: int = 1,
    comment_bodies: list[str] | None = None,
    state: str = "closed",
    is_pull_request: bool = False,
) -> IssueRecord:
    created = created_at or BASE_DATE
    if comment_bodies is None:
        comment_bodies = [f"comment {i}" for i in range(n_comments)]
    comments = tuple(
        Comment(
            author_role="MEMBER",
            created_at=format_timestamp(created + timedelta(hours=i + 1)),
            body=body_text,
        )
        for i, body_text in enumerate(comment_bodies)
    )
    updated = comments[-1].created_at if comments else format_timestamp(created)
    return IssueRecord(
        repo=repo,
        number=number,
        title=title,
        state=state,
        created_at=format_timestamp(created),
        updated_at=updated,
        closed_at=updated if state == "closed" else None,
        body=body,
        labels=labels,
        comments=comments,
        is_pull_request=is_pull_request,
        url=f"https://example.test/{repo}/issues/{number}",
    )


def synth_corpus(n: int, seed: int) -> list[IssueRecord]:
    """Random issues exercising every deterministic filter criterion."""
    rng = random.Random(seed)
    records = []
    for i in range(1, n + 1):
        words = rng.sample(NOISE, 3)
        if rng.random() < 0.6:
            words.insert(rng.randrange(3), rng.choice(VOCAB))
        if rng.random() < 0.1:
            # adversarial: vocabulary term embedded inside a larger word
            words.append(rng.choice(VOCAB).lower() + "ish")
        body = "The " + " ".join(words) + " misbehaves."
        labels = tuple(
            rng.sample(EXCLUSION_LABELS, 1) if rng.random() < 0.2 else []
        )
        created = BASE_DATE + timedelta(days=rng.randrange(-800, 400))
        records.append(
            make_issue(
                repo="acme/synth",
                number=i,
                title=rng.choice(["Bug report", "Problem with " + rng.choice(VOCAB)]),
                body=body,
                labels=labels,
                created_at=created,
                n_comments=rng.randrange(0, 3),
            )
        )
    return records


def synth_gold_balanced(n_pos: int, n_neg: int, repo: str = "acme/synth") -> tuple[list[IssueRecord], dict]:
    """A corpus of n_pos + n_neg issues with matching fault_related gold."""
    records = []
    gold = {}
    for i in range(1, n_pos + n_neg + 1):
        positive = i <= n_pos
        records.append(
            make_issue(
                repo=repo,
                number=i,
                title=("Crash in tensor op" if positive else "Docs improvement"),
                body=("The WebGL backend crashes." if positive else "Please update the docs."),
                n_comments=1,
            )
        )
        gold[(repo, i)] = GoldLabel(repo=repo, number=i, fault_related=positive)
    return records, gold
