#!/usr/bin/env python3
"""Regenerate the checked-in golden fixtures under tests/fixtures/.

Run from the repo root after any prompt or fixture-schema change:

    python3 tests/make_golden.py [OUT]

OUT is the directory to write into, tests/fixtures/ by default; a test
regenerates into a temporary one and compares it with the checked-in files.
Writes the small demo corpus, gold labels, vocabulary, criteria, pipeline
config and a replay transcript recorded against a provider that answers
every prompt with the gold label under OUT/golden/, and the golden taxonomy
outline as OUT/golden_symptom_outline.txt.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS_DIR))

from faultloom.config import load_config, packaged_data_path
from faultloom.corpus import IssueRecord, export_dump, load_gold
from faultloom.pipeline import Runner
from faultloom.taxonomy import load_taxonomy, render_prompt_section

from fakes import OracleProvider
from gen import make_issue

FIXTURES = TESTS_DIR / "fixtures"

REPO = "acme/dlpipe"
T = lambda y, m, d: datetime(y, m, d, tzinfo=timezone.utc)

# (number, title, body, labels, created, comments, gold fault, symptom id, root cause id)
ISSUES = [
    (1, "Crash calling conv2d", "tf.js throws: DL operator not found for WebGL backend.",
     (), T(2021, 3, 1), ["same here on chrome"], True,
     "crash.reference-error.dl-operator-exception", "incorrect-programming.unimplemented-operator"),
    (2, "Memory grows until tab dies", "Repeated predict() calls leak tensor memory; dispose is never called internally.",
     ("bug",), T(2021, 5, 2), ["confirmed with heap snapshots"], True,
     "poor-performance.abnormal-memory-usage.memory-leak", "incorrect-programming.missing-resource-disposal"),
    (3, "OOM on large model", "Loading the 500MB model exhausts GPU memory instantly.",
     (), T(2022, 1, 10), ["which backend?", "WebGL"], True,
     "poor-performance.abnormal-memory-usage.out-of-memory", "execution-environment-error.platform-api-limitation"),
    (4, "Model conversion fails", "Converting the saved model errors out with an unsupported layer.",
     ("bug",), T(2021, 9, 9), ["known limitation"], True,
     "build-initialization-failure.model-loading-failure.model-conversion-error", "data-model-error.incompatible-model-format"),
    (5, "Wrong predictions vs python", "Same model gives different tensor outputs in the browser than in Python.",
     (), T(2021, 7, 21), ["can reproduce"], True,
     "incorrect-functionality.wrong-output.incorrect-prediction", "incorrect-programming.inconsistent-modules-in-tfjs"),
    (6, "WebGL context lost mid-inference", "Page crashes when the WebGL context is lost during inference.",
     (), T(2022, 4, 4), ["happens on low-end GPUs"], True,
     "crash.unhandled-backend-abort.backend-execution-abort", "execution-environment-error.hardware-acceleration-failure"),
    (7, "predict() undefined after upgrade", "After upgrading, model.predict is undefined in the bundle.",
     ("bug",), T(2021, 11, 30), ["check your build config"], True,
     "crash.reference-error.function-inaccessible", "configuration-dependency-error.incorrect-build-configuration"),
    (8, "Inference 10x slower on wasm", "Switching backend to wasm makes inference ten times slower.",
     (), T(2022, 6, 15), ["profiling attached"], True,
     "poor-performance.slow-execution.slow-inference", "unknown"),
    # negatives: four fail a deterministic criterion, four need the LLM verdict
    (9, "Fix typo in README", "The readme says 'teh' instead of 'the'.",
     (), T(2021, 2, 2), ["thanks"], False, None, None),
    (10, "Backend question", "Which backend should I use for my tensor workload?",
     ("stat:awaiting response",), T(2021, 8, 8), ["please advise"], False, None, None),
    (11, "Old release crashes", "The 2019 release crashes with WebGL errors.",
     (), T(2019, 6, 1), ["upgrade please"], False, None, None),
    (12, "Silent tensor question", "How do I reshape a tensor?",
     (), T(2021, 4, 4), [], False, None, None),
    (13, "Feature: quantized models", "Please add int8 tensor quantization support to the backend.",
     (), T(2021, 10, 10), ["+1"], False, None, None),
    (14, "Question about dispose", "When exactly should I call dispose on intermediate tensors?",
     (), T(2022, 2, 2), ["see the memory docs"], False, None, None),
    (15, "Discussion: WebGL vs wasm", "What are the tradeoffs between the WebGL and wasm backends?",
     (), T(2021, 12, 12), ["depends on the device"], False, None, None),
    (16, "Improve model docs", "The model loading docs could explain the tensor layout better.",
     (), T(2022, 3, 3), ["PRs welcome"], False, None, None),
]

VOCAB = ["WebGL", "dispose", "tensor", "backend", "tf.js", "model", "inference", "wasm", "GPU"]

PLAN = {
    "projects": [
        {"name": "TensorFlow.js", "url": "https://github.com/tensorflow/tfjs",
         "rationale": "dominant JavaScript DL library"},
        {"name": "Teachable Machine", "url": None, "rationale": "popular downstream application"},
        {"name": "Magenta.js", "url": None, "rationale": "creative DL toolkit"},
    ],
    "research_questions": [
        "What symptoms do faults in JavaScript DL systems exhibit?",
        "What are the dominant root causes of those faults?",
    ],
}


def build_corpus() -> list[IssueRecord]:
    records = []
    for number, title, body, labels, created, comments, *_ in ISSUES:
        records.append(
            make_issue(
                repo=REPO, number=number, title=title, body=body, labels=labels,
                created_at=created, comment_bodies=list(comments),
                state="closed" if comments else "open",
            )
        )
    return records


def write_inputs(golden: Path) -> None:
    golden.mkdir(parents=True, exist_ok=True)
    export_dump(build_corpus(), golden / "corpus.jsonl")

    lines = ["repo,number,fault_related,symptom_leaf_id,root_cause_id"]
    for number, *rest in ISSUES:
        fault, symptom, root = rest[5], rest[6], rest[7]
        lines.append(f"{REPO},{number},{str(fault).lower()},{symptom or ''},{root or ''}")
    (golden / "gold.csv").write_text("\n".join(lines) + "\n")

    (golden / "vocab.txt").write_text("\n".join(VOCAB) + "\n")
    (golden / "criteria.yaml").write_text(
        "exclusion_labels:\n"
        "  - \"stat:awaiting response\"\n"
        "cutoff_date: 2020-01-01\n"
        "require_answered: true\n"
    )
    (golden / "reference_projects.txt").write_text(
        "TensorFlow.js\n"
        "third-party DL libraries\n"
        "58 JavaScript-based DL applications\n"
    )
    (golden / "config.yaml").write_text(
        "dumps: [corpus.jsonl]\n"
        "criteria: criteria.yaml\n"
        "vocabulary: vocab.txt\n"
        "gold: gold.csv\n"
        "reference_projects: reference_projects.txt\n"
        "theme:\n"
        "  description: JavaScript-based DL system faults\n"
        "  constraints: [open-source projects only]\n"
        "model: openai/gpt-4o\n"
        "mode: replay\n"
        "transcript: transcript.jsonl\n"
        "sampling: {n_pos: 4, n_neg: 4, seed: 7}\n"
        "parallelism: 2\n"
        "stage3_input: filtered\n"
        "out: run\n"
    )


def record_transcript(golden: Path) -> None:
    transcript = golden / "transcript.jsonl"
    transcript.unlink(missing_ok=True)
    symptoms = load_taxonomy(packaged_data_path("symptom_taxonomy.yaml"))
    root_causes = load_taxonomy(packaged_data_path("root_cause_taxonomy.yaml"))
    gold = load_gold(golden / "gold.csv")
    oracle = OracleProvider(gold, symptoms, root_causes, plan=PLAN)

    with tempfile.TemporaryDirectory() as tmp:
        # One call at a time, so that the transcript lines come in the same
        # order on every regeneration.
        config = load_config(
            golden / "config.yaml",
            overrides={"mode": "record", "out": tmp, "parallelism": 1},
        )
        runner = Runner(config, provider=oracle)
        runner.run_pipeline()
        runner.run_define()
    print(f"recorded {len(transcript.read_text().splitlines())} transcript entries")


def write_golden_outline(out: Path) -> None:
    symptoms = load_taxonomy(packaged_data_path("symptom_taxonomy.yaml"))
    (out / "golden_symptom_outline.txt").write_text(
        render_prompt_section(symptoms), encoding="utf-8"
    )


def main(out: Path = FIXTURES) -> None:
    golden = out / "golden"
    write_inputs(golden)
    write_golden_outline(out)
    record_transcript(golden)
    print("golden fixtures written to", golden)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", type=Path, default=FIXTURES, help="directory to write into")
    main(parser.parse_args().out)
