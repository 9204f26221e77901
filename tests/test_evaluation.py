import random
from fractions import Fraction

import pytest

from faultloom.corpus import GoldLabel
from faultloom.errors import EvaluationError, MissingGoldError
from faultloom.evaluation import (
    ConfusionMatrix,
    hierarchical_accuracy,
    score_stage2,
    score_stage3,
)
from faultloom.stage2 import FilterDecision
from faultloom.stage3 import FaultLabel

REPO = "acme/dlpipe"


def _decision(number, final):
    return FilterDecision(
        repo=REPO, number=number, trace=[], llm_verdict=final,
        llm_rationale=None, final=final,
    )


def _gold(number, fault_related=None, symptom=None, root_cause=None):
    return GoldLabel(
        repo=REPO, number=number, fault_related=fault_related,
        symptom_leaf=symptom, root_cause=root_cause,
    )


def _label(number, symptom=None, root_cause=None, valid=True):
    return FaultLabel(
        repo=REPO, number=number, symptom_leaf=symptom, root_cause=root_cause,
        rationale="", attempts=1, valid=valid,
    )


# --- stage 2 ------------------------------------------------------------------

def test_score_stage2_identity():
    decisions = [_decision(i, i % 2 == 0) for i in range(10)]
    gold = {(REPO, i): _gold(i, fault_related=(i % 2 == 0)) for i in range(10)}
    scores = score_stage2(decisions, gold)
    assert scores.accuracy == 1.0
    assert scores.precision == 1.0
    assert scores.recall == 1.0


def test_score_stage2_derived_fixture():
    # 6 TP, 2 FP, 1 FN, 1 TN; counted by hand
    decisions, gold = [], {}
    n = 0
    for _ in range(6):  # TP
        n += 1
        decisions.append(_decision(n, True))
        gold[(REPO, n)] = _gold(n, fault_related=True)
    for _ in range(2):  # FP
        n += 1
        decisions.append(_decision(n, True))
        gold[(REPO, n)] = _gold(n, fault_related=False)
    n += 1  # FN
    decisions.append(_decision(n, False))
    gold[(REPO, n)] = _gold(n, fault_related=True)
    n += 1  # TN
    decisions.append(_decision(n, False))
    gold[(REPO, n)] = _gold(n, fault_related=False)

    scores = score_stage2(decisions, gold)
    assert (scores.tp, scores.fp, scores.fn, scores.tn) == (6, 2, 1, 1)
    assert Fraction(scores.tp + scores.tn, scores.total) == Fraction(7, 10)
    assert scores.accuracy == 0.7
    assert scores.precision == 0.75
    assert scores.recall == 6 / 7
    assert scores.confusion.row_sums() == {"fault": 7, "non-fault": 3}


def test_score_stage2_empty_errors():
    with pytest.raises(EvaluationError):
        score_stage2([], {})


def test_score_stage2_missing_gold_errors():
    with pytest.raises(MissingGoldError):
        score_stage2([_decision(1, True)], {})


def test_score_stage2_permutation_invariant():
    rng = random.Random(4)
    decisions = [_decision(i, rng.random() < 0.5) for i in range(30)]
    gold = {(REPO, i): _gold(i, fault_related=rng.random() < 0.5) for i in range(30)}
    forward = score_stage2(decisions, gold)
    backward = score_stage2(list(reversed(decisions)), gold)
    assert forward.to_dict() == backward.to_dict()


# --- stage 3 ------------------------------------------------------------------

LEAF_MEM = "poor-performance.abnormal-memory-usage.memory-leak"
LEAF_OOM = "poor-performance.abnormal-memory-usage.out-of-memory"
LEAF_OP = "crash.reference-error.dl-operator-exception"
LEAF_FN = "crash.reference-error.function-inaccessible"


def test_score_stage3_leaf_accuracy_derived_fixture(symptoms):
    # 4 labels, 3 exact matches; counted by hand
    labels = [
        _label(1, symptom=LEAF_MEM),
        _label(2, symptom=LEAF_OP),
        _label(3, symptom=LEAF_FN),
        _label(4, symptom=LEAF_OOM),  # gold says Memory Leak
    ]
    gold = {
        (REPO, 1): _gold(1, symptom=LEAF_MEM),
        (REPO, 2): _gold(2, symptom=LEAF_OP),
        (REPO, 3): _gold(3, symptom=LEAF_FN),
        (REPO, 4): _gold(4, symptom=LEAF_MEM),
    }
    scores = score_stage3(labels, gold, symptoms)
    assert Fraction(scores.correct, scores.total) == Fraction(3, 4)
    assert scores.accuracy == 0.75
    # the miss lands in the (Memory Leak -> Out of Memory) confusion cell
    i = scores.confusion.classes.index("Memory Leak")
    j = scores.confusion.classes.index("Out of Memory")
    assert scores.confusion.counts[i][j] == 1


def test_score_stage3_all_invalid(symptoms):
    labels = [_label(i, valid=False) for i in range(1, 5)]
    gold = {(REPO, i): _gold(i, symptom=LEAF_MEM) for i in range(1, 5)}
    scores = score_stage3(labels, gold, symptoms)
    assert scores.accuracy == 0.0
    assert scores.invalid == 4
    invalid_col = scores.confusion.classes.index("invalid")
    assert sum(row[invalid_col] for row in scores.confusion.counts) == 4


def test_score_stage3_row_sums_match_gold_counts_randomized(symptoms):
    rng = random.Random(123)
    leaf_ids = [n.id for n in symptoms.leaves()]
    for _ in range(100):
        n = rng.randrange(5, 40)
        labels, gold = [], {}
        for i in range(1, n + 1):
            gold_id = rng.choice(leaf_ids)
            gold[(REPO, i)] = _gold(i, symptom=gold_id)
            if rng.random() < 0.15:
                labels.append(_label(i, valid=False))
            else:
                labels.append(_label(i, symptom=rng.choice(leaf_ids)))
        scores = score_stage3(labels, gold, symptoms)
        assert scores.confusion.total == n
        gold_counts = {}
        for i in range(1, n + 1):
            name = symptoms.node_by_id(gold[(REPO, i)].symptom_leaf).name
            gold_counts[name] = gold_counts.get(name, 0) + 1
        for cls, total in scores.confusion.row_sums().items():
            assert total == gold_counts.get(cls, 0)


def test_score_stage3_unresolvable_gold_id(symptoms):
    labels = [_label(1, symptom=LEAF_MEM)]
    gold = {(REPO, 1): _gold(1, symptom="no-such-node")}
    with pytest.raises(Exception):
        score_stage3(labels, gold, symptoms)


# --- hierarchical accuracy -----------------------------------------------------

def test_hierarchy_partial_credit_at_l2(symptoms):
    labels = [_label(1, symptom=LEAF_OP)]
    gold = {(REPO, 1): _gold(1, symptom=LEAF_FN)}  # same Reference Error parent
    assert hierarchical_accuracy(labels, gold, symptoms, 3) == 0.0
    assert hierarchical_accuracy(labels, gold, symptoms, 2) == 1.0
    assert hierarchical_accuracy(labels, gold, symptoms, 1) == 1.0


def test_hierarchy_exact_match_correct_everywhere(symptoms):
    labels = [_label(1, symptom=LEAF_MEM)]
    gold = {(REPO, 1): _gold(1, symptom=LEAF_MEM)}
    for level in (1, 2, 3):
        assert hierarchical_accuracy(labels, gold, symptoms, level) == 1.0


def test_hierarchy_disjoint_roots_wrong_everywhere(symptoms):
    labels = [_label(1, symptom=LEAF_OP)]
    gold = {(REPO, 1): _gold(1, symptom=LEAF_MEM)}
    for level in (1, 2, 3):
        assert hierarchical_accuracy(labels, gold, symptoms, level) == 0.0


def test_hierarchy_monotone_over_random_assignments(symptoms):
    rng = random.Random(2024)
    leaf_ids = [n.id for n in symptoms.leaves()]
    for _ in range(50):
        n = rng.randrange(3, 30)
        labels, gold = [], {}
        for i in range(1, n + 1):
            gold[(REPO, i)] = _gold(i, symptom=rng.choice(leaf_ids))
            if rng.random() < 0.1:
                labels.append(_label(i, valid=False))
            else:
                labels.append(_label(i, symptom=rng.choice(leaf_ids)))
        l1 = hierarchical_accuracy(labels, gold, symptoms, 1)
        l2 = hierarchical_accuracy(labels, gold, symptoms, 2)
        l3 = hierarchical_accuracy(labels, gold, symptoms, 3)
        assert l1 >= l2 >= l3


def test_root_cause_unknown_scoring(root_causes):
    labels = [
        _label(1, root_cause="unknown"),
        _label(2, root_cause="unknown"),  # gold is a real subcategory
    ]
    gold = {
        (REPO, 1): _gold(1, root_cause="unknown"),
        (REPO, 2): _gold(2, root_cause="incorrect-programming.api-misuse"),
    }
    scores = score_stage3(labels, gold, root_causes)
    assert scores.correct == 1
    assert hierarchical_accuracy(labels, gold, root_causes, 1) == 0.5


def test_confusion_matrix_invariants():
    matrix = ConfusionMatrix.empty(["a", "b", "invalid"])
    matrix.add("a", "a")
    matrix.add("a", "b")
    matrix.add("b", "invalid")
    assert matrix.total == 3
    assert matrix.row_sums() == {"a": 2, "b": 1, "invalid": 0}
    assert matrix.diagonal() == 1
