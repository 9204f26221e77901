"""Scoring of stage outputs against expert gold labels.

All scorers are pure functions over in-memory lists. Integer counts are kept
alongside the derived rates so callers can check results with exact rational
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .corpus import GoldLabel, IssueKey, Record
from .errors import EvaluationError
from .stage2 import FilterDecision
from .stage3 import FaultLabel
from .taxonomy import Taxonomy, TaxonomyNode, ancestor_at_level

INVALID_CLASS = "invalid"

# The field of a GoldLabel and of a FaultLabel that each taxonomy kind scores.
LABEL_FIELD = {"symptom": "symptom_leaf", "root_cause": "root_cause"}


@dataclass
class ConfusionMatrix(Record):
    """Rows are gold classes, columns are predicted classes. The reserved
    "invalid" class collects predictions that never resolved."""

    classes: list[str]
    counts: list[list[int]]

    @classmethod
    def empty(cls, classes: list[str]) -> "ConfusionMatrix":
        n = len(classes)
        return cls(classes=list(classes), counts=[[0] * n for _ in range(n)])

    def add(self, gold_index: int, predicted_index: int) -> None:
        """Count one item by the positions of its two classes in `classes`."""
        self.counts[gold_index][predicted_index] += 1

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def diagonal(self) -> int:
        return sum(self.counts[i][i] for i in range(len(self.classes)))


@dataclass
class Stage2Scores(Record):
    accuracy: float
    precision: float
    recall: float
    tp: int
    fp: int
    fn: int
    tn: int
    confusion: ConfusionMatrix

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def score_stage2(
    decisions: list[FilterDecision], gold: dict[IssueKey, GoldLabel]
) -> Stage2Scores:
    """Accuracy / precision / recall with fault-related as the positive class."""
    if not decisions:
        raise EvaluationError("no decisions to score")
    confusion = ConfusionMatrix.empty(["fault", "non-fault"])
    for decision in decisions:
        label = gold.get(decision.key)
        if label is None or label.fault_related is None:
            raise EvaluationError(f"no gold fault_related value for {decision.repo}#{decision.number}")
        confusion.add(0 if label.fault_related else 1, 0 if decision.final else 1)
    (tp, fn), (fp, tn) = confusion.counts
    total = tp + fp + fn + tn
    return Stage2Scores(
        accuracy=(tp + tn) / total,
        precision=tp / (tp + fp) if tp + fp else 0.0,
        recall=tp / (tp + fn) if tp + fn else 0.0,
        tp=tp, fp=fp, fn=fn, tn=tn,
        confusion=confusion,
    )


def _node_pairs(
    labels: list[FaultLabel], gold: dict[IssueKey, GoldLabel], taxonomy: Taxonomy
) -> Iterator[tuple[TaxonomyNode, TaxonomyNode | None]]:
    """Each label's gold node in `taxonomy` and its predicted node, None for
    an invalid label or one that names no node of that kind."""
    name = LABEL_FIELD[taxonomy.kind]
    for label in labels:
        gold_id = getattr(gold.get(label.key), name, None)
        if gold_id is None:
            raise EvaluationError(f"no gold {taxonomy.kind} label for {label.key[0]}#{label.key[1]}")
        gold_node = taxonomy.node_by_id(gold_id)
        predicted_id = getattr(label, name) if label.valid else None
        yield gold_node, None if predicted_id is None else taxonomy.node_by_id(predicted_id)


@dataclass
class Stage3Scores(Record):
    accuracy: float
    correct: int
    total: int
    invalid: int
    per_level_accuracy: dict[int, float]
    confusion: ConfusionMatrix


def hierarchical_accuracy(
    labels: list[FaultLabel], gold: dict[IssueKey, GoldLabel], taxonomy: Taxonomy, level: int
) -> float:
    """Fraction of predictions whose ancestor at `level` matches the gold
    label's ancestor at that level. Invalid predictions are wrong at every
    level."""
    if not labels:
        raise EvaluationError("no labels to score")
    if not 1 <= level <= taxonomy.leaf_level:
        raise EvaluationError(f"level must be in 1..{taxonomy.leaf_level}")
    correct = sum(
        predicted is not None
        and ancestor_at_level(taxonomy, predicted, level) is ancestor_at_level(taxonomy, gold_node, level)
        for gold_node, predicted in _node_pairs(labels, gold, taxonomy)
    )
    return correct / len(labels)


def score_stage3(
    labels: list[FaultLabel], gold: dict[IssueKey, GoldLabel], taxonomy: Taxonomy
) -> Stage3Scores:
    """Exact-node accuracy at the taxonomy's leaf granularity, a full
    confusion matrix over leaf classes plus "invalid", and per-level
    hierarchical accuracies. Each label is counted at its gold and predicted
    node's position among the leaves, so two leaves named alike are two
    classes; a node that is no classification target is an EvaluationError."""
    if not labels:
        raise EvaluationError("no labels to score")
    leaves = taxonomy.leaves()
    position = {node.id: i for i, node in enumerate(leaves)}
    confusion = ConfusionMatrix.empty([n.name for n in leaves] + [INVALID_CLASS])

    def place(label: FaultLabel, node: TaxonomyNode | None, whose: str) -> int:
        if node is not None and node.id not in position:
            raise EvaluationError(f"{label.key[0]}#{label.key[1]}: {whose} {taxonomy.kind} node {node.id!r} "
                                  "is not a classification target")
        return len(leaves) if node is None else position[node.id]

    correct = invalid = 0
    for label, (gold_node, predicted) in zip(labels, _node_pairs(labels, gold, taxonomy)):
        confusion.add(place(label, gold_node, "gold"), place(label, predicted, "predicted"))
        invalid += predicted is None
        correct += predicted is gold_node

    total = len(labels)
    accuracy = correct / total
    # The confusion grid must tell the same story as the per-item counter.
    if confusion.total != total or confusion.diagonal() != correct:
        raise EvaluationError("confusion matrix disagrees with per-item tally (grid total "
                              f"{confusion.total} vs {total}, diagonal {confusion.diagonal()} vs {correct})")

    levels = range(1, taxonomy.leaf_level + 1)
    per_level = {level: hierarchical_accuracy(labels, gold, taxonomy, level) for level in levels}
    return Stage3Scores(
        accuracy=accuracy, correct=correct, total=total, invalid=invalid, per_level_accuracy=per_level,
        confusion=confusion,
    )


@dataclass
class RunMeta(Record):
    wall_time_seconds: float = 0.0
    total_tokens: int = 0
    per_model: dict = field(default_factory=dict)
    invalid_labels: int = 0
    unscored: int = 0  # items missing from gold, excluded but counted


@dataclass(kw_only=True)
class EvalReport(Record):
    stage2: Stage2Scores | None = None
    stage3_symptom: Stage3Scores | None = None
    stage3_rootcause: Stage3Scores | None = None
    run_meta: RunMeta
    notes: list[str] = field(default_factory=list)
