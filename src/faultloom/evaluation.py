"""Scoring of stage outputs against expert gold labels.

All scorers are pure functions over in-memory lists. Integer counts are kept
alongside the derived rates so callers can check results with exact rational
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import GoldLabel, IssueKey, Record
from .errors import EvaluationError, MissingGoldError
from .stage2 import FilterDecision
from .stage3 import FaultLabel
from .taxonomy import Taxonomy, TaxonomyNode, ancestor_at_level

INVALID_CLASS = "invalid"


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

    def add(self, gold_class: str, predicted_class: str) -> None:
        i = self.classes.index(gold_class)
        j = self.classes.index(predicted_class)
        self.counts[i][j] += 1

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def row_sums(self) -> dict[str, int]:
        return {c: sum(row) for c, row in zip(self.classes, self.counts)}

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
    tp = fp = fn = tn = 0
    confusion = ConfusionMatrix.empty(["fault", "non-fault"])
    for decision in decisions:
        label = gold.get(decision.key)
        if label is None or label.fault_related is None:
            raise MissingGoldError(decision.key, "fault_related value")
        predicted, actual = decision.final, label.fault_related
        confusion.add(
            "fault" if actual else "non-fault",
            "fault" if predicted else "non-fault",
        )
        if predicted and actual:
            tp += 1
        elif predicted and not actual:
            fp += 1
        elif not predicted and actual:
            fn += 1
        else:
            tn += 1
    total = tp + fp + fn + tn
    return Stage2Scores(
        accuracy=(tp + tn) / total,
        precision=tp / (tp + fp) if tp + fp else 0.0,
        recall=tp / (tp + fn) if tp + fn else 0.0,
        tp=tp, fp=fp, fn=fn, tn=tn,
        confusion=confusion,
    )


def _gold_node(
    gold: dict[IssueKey, GoldLabel],
    key: IssueKey,
    taxonomy: Taxonomy,
) -> TaxonomyNode:
    label = gold.get(key)
    attr = "symptom_leaf" if taxonomy.kind == "symptom" else "root_cause"
    node_id = getattr(label, attr, None) if label else None
    if node_id is None:
        raise MissingGoldError(key, f"{taxonomy.kind} label")
    return taxonomy.node_by_id(node_id)


def _predicted_node(label: FaultLabel, taxonomy: Taxonomy) -> TaxonomyNode | None:
    if not label.valid:
        return None
    node_id = label.symptom_leaf if taxonomy.kind == "symptom" else label.root_cause
    if node_id is None:
        return None
    return taxonomy.node_by_id(node_id)


@dataclass
class Stage3Scores(Record):
    accuracy: float
    correct: int
    total: int
    invalid: int
    per_level_accuracy: dict[int, float]
    confusion: ConfusionMatrix


def hierarchical_accuracy(
    labels: list[FaultLabel],
    gold: dict[IssueKey, GoldLabel],
    taxonomy: Taxonomy,
    level: int,
) -> float:
    """Fraction of predictions whose ancestor at `level` matches the gold
    label's ancestor at that level. Invalid predictions are wrong at every
    level."""
    if not labels:
        raise EvaluationError("no labels to score")
    if not 1 <= level <= taxonomy.leaf_level:
        raise EvaluationError(f"level must be in 1..{taxonomy.leaf_level}")
    correct = 0
    for label in labels:
        gold_node = _gold_node(gold, label.key, taxonomy)
        predicted = _predicted_node(label, taxonomy)
        if predicted is None:
            continue
        if ancestor_at_level(taxonomy, predicted, level) is ancestor_at_level(
            taxonomy, gold_node, level
        ):
            correct += 1
    return correct / len(labels)


def score_stage3(
    labels: list[FaultLabel],
    gold: dict[IssueKey, GoldLabel],
    taxonomy: Taxonomy,
) -> Stage3Scores:
    """Exact-node accuracy at the taxonomy's leaf granularity, a full
    confusion matrix over leaf classes plus "invalid", and per-level
    hierarchical accuracies."""
    if not labels:
        raise EvaluationError("no labels to score")
    classes = [n.name for n in taxonomy.leaves()] + [INVALID_CLASS]
    confusion = ConfusionMatrix.empty(classes)

    correct = invalid = 0
    for label in labels:
        gold_node = _gold_node(gold, label.key, taxonomy)
        predicted = _predicted_node(label, taxonomy)
        if predicted is None:
            invalid += 1
            confusion.add(gold_node.name, INVALID_CLASS)
            continue
        confusion.add(gold_node.name, predicted.name)
        if predicted is gold_node:
            correct += 1

    total = len(labels)
    accuracy = correct / total
    # The confusion grid must tell the same story as the per-item counter.
    if confusion.total != total or confusion.diagonal() != correct:
        raise EvaluationError(
            "confusion matrix disagrees with per-item tally "
            f"(grid total {confusion.total} vs {total}, "
            f"diagonal {confusion.diagonal()} vs {correct})"
        )

    per_level = {
        level: hierarchical_accuracy(labels, gold, taxonomy, level)
        for level in range(1, taxonomy.leaf_level + 1)
    }
    return Stage3Scores(
        accuracy=accuracy,
        correct=correct,
        total=total,
        invalid=invalid,
        per_level_accuracy=per_level,
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
