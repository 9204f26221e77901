"""Scoring of stage outputs against expert gold labels.

All scorers are pure functions over in-memory lists. Integer counts are kept
alongside the derived rates so callers can check results with exact rational
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import GoldLabel, IssueKey
from .errors import EvaluationError, MissingGoldError
from .stage2 import FilterDecision
from .stage3 import FaultLabel
from .taxonomy import Taxonomy, TaxonomyNode, ancestor_at_level

INVALID_CLASS = "invalid"


@dataclass
class ConfusionMatrix:
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

    def to_dict(self) -> dict:
        return {"classes": self.classes, "counts": self.counts}

    @classmethod
    def from_dict(cls, raw: dict) -> "ConfusionMatrix":
        return cls(classes=list(raw["classes"]), counts=[list(row) for row in raw["counts"]])


@dataclass
class Stage2Scores:
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

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "tn": self.tn,
            "confusion": self.confusion.to_dict(),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Stage2Scores":
        return cls(
            accuracy=raw["accuracy"],
            precision=raw["precision"],
            recall=raw["recall"],
            tp=raw["tp"], fp=raw["fp"], fn=raw["fn"], tn=raw["tn"],
            confusion=ConfusionMatrix.from_dict(raw["confusion"]),
        )


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
class Stage3Scores:
    accuracy: float
    correct: int
    total: int
    invalid: int
    per_level_accuracy: dict[int, float]
    confusion: ConfusionMatrix

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "correct": self.correct,
            "total": self.total,
            "invalid": self.invalid,
            "per_level_accuracy": {str(k): v for k, v in self.per_level_accuracy.items()},
            "confusion": self.confusion.to_dict(),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Stage3Scores":
        return cls(
            accuracy=raw["accuracy"],
            correct=raw["correct"],
            total=raw["total"],
            invalid=raw["invalid"],
            per_level_accuracy={int(k): v for k, v in raw["per_level_accuracy"].items()},
            confusion=ConfusionMatrix.from_dict(raw["confusion"]),
        )


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
class RunMeta:
    wall_time_seconds: float = 0.0
    total_tokens: int = 0
    per_model: dict = field(default_factory=dict)
    invalid_labels: int = 0
    unscored: int = 0  # items missing from gold, excluded but counted

    def to_dict(self) -> dict:
        return {
            "wall_time_seconds": self.wall_time_seconds,
            "total_tokens": self.total_tokens,
            "per_model": self.per_model,
            "invalid_labels": self.invalid_labels,
            "unscored": self.unscored,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "RunMeta":
        return cls(**raw)


@dataclass
class EvalReport:
    stage2: Stage2Scores | None
    stage3_symptom: Stage3Scores | None
    stage3_rootcause: Stage3Scores | None
    run_meta: RunMeta
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "stage2": self.stage2.to_dict() if self.stage2 else None,
            "stage3_symptom": self.stage3_symptom.to_dict() if self.stage3_symptom else None,
            "stage3_rootcause": (
                self.stage3_rootcause.to_dict() if self.stage3_rootcause else None
            ),
            "run_meta": self.run_meta.to_dict(),
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "EvalReport":
        """Inverse of `to_dict`, for a report read back from report.json."""

        def scores(kind, key):
            return kind.from_dict(raw[key]) if raw[key] is not None else None

        return cls(
            stage2=scores(Stage2Scores, "stage2"),
            stage3_symptom=scores(Stage3Scores, "stage3_symptom"),
            stage3_rootcause=scores(Stage3Scores, "stage3_rootcause"),
            run_meta=RunMeta.from_dict(raw["run_meta"]),
            notes=list(raw["notes"]),
        )
