"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL
line so the suite output doubles as a checklist."""

import copy
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
import yaml

from faultloom.config import load_config, packaged_data_path
from faultloom.corpus import GoldLabel, load_gold, sample_balanced
from faultloom.errors import TaxonomyError
from faultloom.evaluation import hierarchical_accuracy, score_stage2, score_stage3
from faultloom.gateway import Gateway
from faultloom.pipeline import Runner
from faultloom.stage1 import ProjectCandidate, StudyPlan, score_plan
from faultloom.stage2 import (
    CRITERION_ANSWERED,
    CRITERION_CUTOFF_DATE,
    CRITERION_EXCLUSION_LABEL,
    CRITERION_VOCABULARY,
    FilterCriteria,
    apply_deterministic,
)
from faultloom.stage3 import FaultLabel, run_stage3
from faultloom.taxonomy import load_taxonomy

import make_golden
from fakes import CountingProvider, OracleProvider, ScriptedProvider
from gen import EXCLUSION_LABELS, VOCAB, synth_corpus, synth_gold_balanced
from helpers import nodes_at_level, row_sums
from test_stage2 import _naive_criteria

GOLDEN = Path(__file__).parent / "fixtures" / "golden"
REPO = "acme/dlpipe"


@pytest.fixture
def announce(request):
    capman = request.config.pluginmanager.getplugin("capturemanager")

    @contextmanager
    def _run(name):
        status = "PASS"
        try:
            yield
        except BaseException:
            status = "FAIL"
            raise
        finally:
            with capman.global_and_fixture_disabled():
                print(f"[{status}] {name}")

    return _run


def test_taxonomy_invariant_suite(announce, symptoms, root_causes):
    with announce("taxonomy invariants: fixture counts and mutation rejection"):
        assert len(symptoms.roots) == 5
        assert len(nodes_at_level(symptoms, 2)) == 15
        assert len(nodes_at_level(symptoms, 3)) == 15
        assert len(root_causes.roots) == 5
        assert len(nodes_at_level(root_causes, 2)) == 17

        files = {
            "symptom": packaged_data_path("symptom_taxonomy.yaml"),
            "root_cause": packaged_data_path("root_cause_taxonomy.yaml"),
        }
        mutations = []
        for kind, path in files.items():
            base = yaml.safe_load(path.read_text(encoding="utf-8"))
            for idx in range(len(base["nodes"])):
                mutations += [
                    (kind, lambda r, i=idx: r["nodes"][i].update(
                        id=r["nodes"][(i + 1) % len(r["nodes"])]["id"]), "^duplicate taxonomy node id: "),
                    (kind, lambda r, i=idx: r["nodes"][i].update(
                        name=r["nodes"][(i + 1) % len(r["nodes"])]["name"]), "^duplicate sibling name .* among roots$"),
                    (kind, lambda r, i=idx: r["nodes"][i].update(definition=" "), "has an empty definition$"),
                    (kind, lambda r, i=idx: r["nodes"][i].pop("name"), "^node missing required field 'name' "),
                ]
        assert len(mutations) >= 20
        for kind, build, expected in mutations[:40]:
            raw = copy.deepcopy(yaml.safe_load(files[kind].read_text(encoding="utf-8")))
            build(raw)
            with pytest.raises(TaxonomyError, match=expected):
                load_taxonomy(raw)


def test_deterministic_filter_oracle_equivalence(announce):
    with announce("deterministic filter: naive-oracle agreement on 500 issues in <5s"):
        from datetime import date

        criteria = FilterCriteria(
            vocabulary=list(VOCAB),
            exclusion_labels=list(EXCLUSION_LABELS),
            cutoff_date=date(2020, 1, 1),
            require_answered=True,
        )
        corpus = synth_corpus(500, seed=77)
        started = time.monotonic()
        disagreements = 0
        for issue in corpus:
            trace = {c.criterion: c.passed for c in apply_deterministic(issue, criteria)}
            got = (
                trace[CRITERION_VOCABULARY],
                trace[CRITERION_EXCLUSION_LABEL],
                trace[CRITERION_CUTOFF_DATE],
                trace[CRITERION_ANSWERED],
            )
            if got != _naive_criteria(issue, criteria):
                disagreements += 1
        elapsed = time.monotonic() - started
        assert disagreements == 0
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_sampling_determinism(announce):
    with announce("sampling: identical 250/250 key sets across 10 seeded runs"):
        corpus, gold = synth_gold_balanced(300, 300)
        runs = []
        for _ in range(10):
            sample = sample_balanced([r.key for r in corpus], gold, 250, 250, seed=42)
            keys = frozenset(sample)
            assert len(keys) == 500
            positives = sum(1 for k in keys if gold[k].fault_related)
            assert positives == 250 and len(keys) - positives == 250
            runs.append(keys)
        assert len(set(runs)) == 1


def _decision(number, final):
    from faultloom.stage2 import FilterDecision

    return FilterDecision(
        repo=REPO, number=number, trace=[], llm_verdict=final,
        llm_rationale=None, final=final,
    )


def _gold(number, **kwargs):
    return GoldLabel(
        repo=REPO, number=number,
        fault_related=kwargs.get("fault_related"),
        symptom_leaf=kwargs.get("symptom"),
        root_cause=kwargs.get("root_cause"),
    )


def _label(number, symptom=None, valid=True):
    return FaultLabel(
        repo=REPO, number=number, symptom_leaf=symptom, root_cause=None,
        rationale="", attempts=1, valid=valid,
    )


def test_metric_oracle_equivalence(announce, symptoms):
    with announce("metrics: exact rational agreement with hand-computed fixtures"):
        decisions, gold = [], {}
        outcomes = [(True, True)] * 6 + [(True, False)] * 2 + [(False, True)] + [(False, False)]
        for i, (predicted, actual) in enumerate(outcomes, start=1):
            decisions.append(_decision(i, predicted))
            gold[(REPO, i)] = _gold(i, fault_related=actual)
        s2 = score_stage2(decisions, gold)
        assert Fraction(s2.tp + s2.tn, s2.total) == Fraction(7, 10)
        assert Fraction(s2.tp, s2.tp + s2.fp) == Fraction(3, 4)
        assert Fraction(s2.tp, s2.tp + s2.fn) == Fraction(6, 7)
        assert (s2.accuracy, s2.precision) == (0.7, 0.75)

        mem = "poor-performance.abnormal-memory-usage.memory-leak"
        oom = "poor-performance.abnormal-memory-usage.out-of-memory"
        op = "crash.reference-error.dl-operator-exception"
        fn = "crash.reference-error.function-inaccessible"
        labels = [_label(1, mem), _label(2, op), _label(3, fn), _label(4, oom)]
        gold3 = {
            (REPO, 1): _gold(1, symptom=mem),
            (REPO, 2): _gold(2, symptom=op),
            (REPO, 3): _gold(3, symptom=fn),
            (REPO, 4): _gold(4, symptom=mem),
        }
        s3 = score_stage3(labels, gold3, symptoms)
        assert Fraction(s3.correct, s3.total) == Fraction(3, 4)
        assert s3.accuracy == 0.75

        rng = random.Random(31)
        leaf_ids = [n.id for n in symptoms.leaves()]
        for _ in range(100):
            n = rng.randrange(4, 30)
            rand_labels, rand_gold = [], {}
            for i in range(1, n + 1):
                rand_gold[(REPO, i)] = _gold(i, symptom=rng.choice(leaf_ids))
                rand_labels.append(
                    _label(i, valid=False) if rng.random() < 0.2
                    else _label(i, rng.choice(leaf_ids))
                )
            scores = score_stage3(rand_labels, rand_gold, symptoms)
            counts = {}
            for g in rand_gold.values():
                name = symptoms.node_by_id(g.symptom_leaf).name
                counts[name] = counts.get(name, 0) + 1
            for cls, total in row_sums(scores.confusion).items():
                assert total == counts.get(cls, 0)


def test_hierarchical_monotonicity(announce, symptoms):
    with announce("hierarchy: accuracy monotone L1>=L2>=L3 over 1000 random pairs"):
        rng = random.Random(9001)
        leaf_ids = [n.id for n in symptoms.leaves()]
        violations = 0
        for i in range(1, 1001):
            predicted = (
                _label(i, valid=False) if rng.random() < 0.1
                else _label(i, rng.choice(leaf_ids))
            )
            gold = {(REPO, i): _gold(i, symptom=rng.choice(leaf_ids))}
            l1 = hierarchical_accuracy([predicted], gold, symptoms, 1)
            l2 = hierarchical_accuracy([predicted], gold, symptoms, 2)
            l3 = hierarchical_accuracy([predicted], gold, symptoms, 3)
            if not (l1 >= l2 >= l3):
                violations += 1
        assert violations == 0


def test_perfect_oracle_end_to_end(announce, symptoms, root_causes, tmp_path):
    with announce("end-to-end: gold-echoing provider yields accuracy 1.0 everywhere"):
        gold = load_gold(GOLDEN / "gold.csv")
        oracle = OracleProvider(gold, symptoms, root_causes)
        config = load_config(
            GOLDEN / "config.yaml",
            overrides={
                "mode": "record",
                "out": str(tmp_path / "run"),
                "transcript": str(tmp_path / "t.jsonl"),
            },
        )
        report = Runner(config, provider=oracle).run_pipeline()
        assert report["stage2"]["accuracy"] == 1.0
        assert report["stage2"]["precision"] == 1.0
        assert report["stage2"]["recall"] == 1.0
        for scores in (report["stage3_symptom"], report["stage3_rootcause"]):
            assert scores["accuracy"] == 1.0
            assert all(v == 1.0 for v in scores["per_level_accuracy"].values())


def test_golden_replay_determinism(announce, tmp_path):
    with announce("replay: byte-identical artifacts across two runs, zero network"):
        started = time.monotonic()
        guard = CountingProvider(ScriptedProvider([]))
        snapshots = []
        for _ in range(2):
            config = load_config(
                GOLDEN / "config.yaml", overrides={"out": str(tmp_path / "run")}
            )
            runner = Runner(config, provider=guard)
            runner.run_pipeline()
            out = Path(runner.out)
            snapshots.append({
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file() and p.name != "manifest.json"
            })
        assert guard.calls == 0
        # A transcript gone stale for the current prompts shows up as
        # replay misses: errored decisions and invalid labels.
        decisions = [json.loads(line) for line in (out / "decisions.jsonl").read_text().splitlines()]
        labels = [json.loads(line) for line in (out / "labels.jsonl").read_text().splitlines()]
        assert labels and all(d["error"] is None for d in decisions)
        assert all(l["valid"] and l["error"] is None for l in labels)
        first, second = snapshots
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"
        assert time.monotonic() - started < 60.0


def test_make_golden_regenerates_the_checked_in_fixtures(announce, tmp_path):
    with announce("golden fixtures: tests/make_golden.py rewrites them byte for byte"):
        make_golden.main(tmp_path)
        fixtures = GOLDEN.parent
        names = sorted(p.name for p in GOLDEN.iterdir())
        assert sorted(p.name for p in (tmp_path / "golden").iterdir()) == names
        for name in [f"golden/{n}" for n in names] + ["golden_symptom_outline.txt"]:
            assert (tmp_path / name).read_bytes() == (fixtures / name).read_bytes(), f"{name} differs"


def test_repair_budget_contract(announce, symptoms, root_causes):
    with announce("repair budget: 1-3 calls per issue, exhausted -> valid=false"):
        from faultloom.stage2 import DEFAULT_CHAR_BUDGET, DEFAULT_COMMENT_BUDGET
        from gen import make_issue

        valid = json.dumps(
            {"symptom": "Memory Leak", "root_cause": "Unknown", "rationale": "r"}
        )
        non_leaf = json.dumps({"symptom": "Crash", "root_cause": "Unknown", "rationale": "r"})
        unknown = json.dumps({"symptom": "Gamma Burst", "root_cause": "Aliens", "rationale": "r"})
        scripts = {
            1: ["not json", "still not json", "{broken"],   # exhausts on malformed
            2: [non_leaf, valid],                           # repairs a non-leaf answer
            3: [unknown, unknown, unknown],                 # exhausts on unknown labels
            4: [valid],                                     # clean first try
        }
        texts = [t for i in sorted(scripts) for t in scripts[i]]
        issues = [make_issue(number=i) for i in sorted(scripts)]
        provider = CountingProvider(ScriptedProvider(texts))
        gateway = Gateway(mode="live", provider=provider, sleep=lambda s: None)
        labels = run_stage3(issues, symptoms, root_causes, gateway, "openai/gpt-4o",
                            comment_budget=DEFAULT_COMMENT_BUDGET, char_budget=DEFAULT_CHAR_BUDGET)

        assert [l.number for l in labels] == sorted(scripts)
        for label in labels:
            assert 1 <= label.attempts <= 3
            assert label.attempts == len(scripts[label.number])
        assert provider.calls == len(texts)
        by_number = {l.number: l for l in labels}
        assert by_number[1].valid is False
        assert by_number[2].valid is True
        assert by_number[3].valid is False
        assert by_number[4].valid is True


def test_stage1_scoring(announce):
    with announce("study-plan scoring: recall 1/3 with both reference misses listed"):
        plan = StudyPlan(
            projects=[
                ProjectCandidate(name="TensorFlow.js"),
                ProjectCandidate(name="Teachable Machine"),
                ProjectCandidate(name="Magenta.js"),
            ],
            research_questions=["What symptoms appear?"],
        )
        reference = [
            "TensorFlow.js",
            "third-party DL libraries",
            "58 JavaScript-based DL applications",
        ]
        score = score_plan(plan, reference)
        assert Fraction(len(score.hits), len(reference)) == Fraction(1, 3)
        assert score.hits == ["TensorFlow.js"]
        assert "third-party DL libraries" in score.misses
        assert "58 JavaScript-based DL applications" in score.misses
