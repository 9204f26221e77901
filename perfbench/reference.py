"""Expected outputs, computed apart from faultloom, and the checks that
compare a finished run directory against them.

The four deterministic criteria are re-implemented naively here (lower-cased
substring search with explicit boundary tests, no regular expressions); the
verdicts, labels and attempts follow from them and the answer plan; the
scores are exact fractions with ancestry read from the taxonomy YAML.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from inputs import CUTOFF, EXCLUSION_LABELS, VOCABULARY, Generated

def _boundary(ch: str) -> bool:
    return not (ch.isascii() and ch.isalnum())


def contains_term(text: str, term: str) -> bool:
    """Case-insensitive occurrence of `term` not flanked by an ASCII letter
    or digit on either side."""
    haystack, needle = text.lower(), term.lower()
    at = haystack.find(needle)
    while at != -1:
        end = at + len(needle)
        if (at == 0 or _boundary(haystack[at - 1])) and (end == len(haystack) or _boundary(haystack[end])):
            return True
        at = haystack.find(needle, at + 1)
    return False


def naive_trace(record: dict) -> list[tuple[str, bool, str | None]]:
    """(criterion, passed, evidence) for the four criteria; evidence is the
    first vocabulary term that matches, or the first exclusion label found."""
    texts = [record["title"], record["body"]] + [c["body"] for c in record["comments"]]
    term = next((t for t in VOCABULARY if any(contains_term(x, t) for x in texts)), None)
    excluded = next((label for label in record["labels"] if label in EXCLUSION_LABELS), None)
    recent = record["created_at"][:10] >= CUTOFF.date().isoformat()
    return [
        ("vocabulary", term is not None, term),
        ("exclusion_label", excluded is None, excluded),
        ("cutoff_date", recent, None),
        ("answered", len(record["comments"]) > 0, None),
    ]


def _path(taxonomy: dict, node_id: str) -> list[str]:
    path = [node_id]
    while taxonomy["nodes"][path[-1]]["parent"] is not None:
        path.append(taxonomy["nodes"][path[-1]]["parent"])
    return path[::-1]


def _at_level(taxonomy: dict, node_id: str, level: int) -> str:
    path = _path(taxonomy, node_id)
    return path[min(level, len(path)) - 1]


@dataclass
class Expected:
    sample: set[str]
    n_pos: int
    n_neg: int
    traces: dict[str, list]
    verdicts: dict[str, bool | None]
    finals: dict[str, bool]
    labels: dict[str, tuple[str, str, int]]  # id -> (symptom, root cause, attempts)
    calls: int  # Gateway.complete calls of a cold pass
    stage2: dict = field(default_factory=dict)
    stage3: dict = field(default_factory=dict)


def expected(gen: Generated, symptoms: dict, root_causes: dict) -> Expected:
    traces, verdicts, finals, labels = {}, {}, {}, {}
    filter_calls = classify_calls = 0
    for iid, record in gen.records.items():
        trace = naive_trace(record)
        passed = all(p for _, p, _ in trace)
        if passed != (gen.kinds[iid] == "pass"):
            raise RuntimeError(f"generator bug: {iid} of kind {gen.kinds[iid]} gives trace {trace}")
        plan = gen.plan[iid]
        traces[iid] = trace
        verdicts[iid] = plan["verdict"] if passed else None
        finals[iid] = bool(passed and plan["verdict"])
        if passed:
            filter_calls += 1 + len(plan["filter_bad"])
        if finals[iid]:
            classify_calls += 1 + len(plan["classify_bad"])
            labels[iid] = (plan["symptom"], plan["root_cause"], 1 + len(plan["classify_bad"]))

    counts = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
    for iid, final in finals.items():
        actual = gen.gold[iid]["fault_related"]
        counts[("t" if final == actual else "f") + ("p" if final else "n")] += 1
    total = sum(counts.values())
    tp, fp, fn, tn = counts["tp"], counts["fp"], counts["fn"], counts["tn"]
    stage2 = dict(counts)
    stage2["accuracy"] = Fraction(tp + tn, total)
    stage2["precision"] = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
    stage2["recall"] = Fraction(tp, tp + fn) if tp + fn else Fraction(0)

    stage3 = {}
    scored = [i for i in labels if gen.gold[i]["fault_related"]]
    for kind, taxonomy, index in (("symptom", symptoms, 0), ("root_cause", root_causes, 1)):
        if not scored:
            stage3[kind] = None
            continue
        pairs = [(labels[i][index], gen.gold[i][kind]) for i in scored]
        stage3[kind] = {
            "total": len(pairs), "invalid": 0,
            "correct": sum(p == g for p, g in pairs),
            "accuracy": Fraction(sum(p == g for p, g in pairs), len(pairs)),
            "per_level_accuracy": {
                str(level): Fraction(
                    sum(_at_level(taxonomy, p, level) == _at_level(taxonomy, g, level) for p, g in pairs),
                    len(pairs))
                for level in range(1, taxonomy["leaf_level"] + 1)
            },
        }
    n_pos = sum(1 for i in gen.records if gen.gold[i]["fault_related"])
    return Expected(
        sample=set(gen.records), n_pos=n_pos, n_neg=len(gen.records) - n_pos,
        traces=traces, verdicts=verdicts, finals=finals, labels=labels,
        calls=filter_calls + classify_calls,
        stage2=stage2, stage3=stage3,
    )


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _key(raw: dict) -> str:
    return f"{raw['repo']}#{raw['number']}"


def check_run(run_dir: Path, exp: Expected, gold: dict) -> tuple[list[str], int, int]:
    """(problems, operations attempted, operations failed) for one run
    directory. An operation is one sampled issue through the filter, plus
    classification when the filter keeps it."""
    problems: list[str] = []
    sample = [_key(r) for r in _jsonl(run_dir / "sample.jsonl")]
    faults = sum(1 for i in sample if gold.get(i, {}).get("fault_related"))
    if set(sample) != exp.sample or len(sample) != len(exp.sample):
        problems.append(f"sample holds {len(sample)} issues, not the {len(exp.sample)} gold issues")
    if (faults, len(sample) - faults) != (exp.n_pos, exp.n_neg):
        problems.append(f"sample holds {faults}/{len(sample) - faults} fault/non-fault, expected {exp.n_pos}/{exp.n_neg}")

    decisions = {_key(d): d for d in _jsonl(run_dir / "decisions.jsonl")}
    labels = {_key(lab): lab for lab in _jsonl(run_dir / "labels.jsonl")}
    failed = sum(1 for d in decisions.values() if d.get("error")) + sum(
        1 for lab in labels.values() if not lab["valid"])
    if set(decisions) != exp.sample:
        problems.append(f"{len(decisions)} decisions for {len(exp.sample)} sampled issues")
    for iid in sorted(exp.sample & set(decisions)):
        d = decisions[iid]
        got = [(c["criterion"], c["passed"]) for c in d["trace"]]
        want = [(name, passed) for name, passed, _ in exp.traces[iid]]
        (_, vocab_ok, term), (_, label_ok, label) = exp.traces[iid][:2]
        if got != want:
            problems.append(f"{iid}: trace {got} != {want}")
            continue
        if vocab_ok and d["trace"][0]["evidence"] != term:
            problems.append(f"{iid}: vocabulary evidence {d['trace'][0]['evidence']!r} != {term!r}")
        if not label_ok and d["trace"][1]["evidence"] != label:
            problems.append(f"{iid}: exclusion evidence {d['trace'][1]['evidence']!r} != {label!r}")
        if d["llm_verdict"] != exp.verdicts[iid] or d["final"] != exp.finals[iid]:
            problems.append(f"{iid}: verdict/final {d['llm_verdict']}/{d['final']}, "
                            f"expected {exp.verdicts[iid]}/{exp.finals[iid]}")
    if set(labels) != set(exp.labels):
        problems.append(f"labels for {len(labels)} issues, expected {len(exp.labels)}")
    for iid in sorted(set(labels) & set(exp.labels)):
        lab = labels[iid]
        got = (lab["symptom_leaf"], lab["root_cause"], lab["attempts"])
        if not lab["valid"] or got != exp.labels[iid]:
            problems.append(f"{iid}: label {got} valid={lab['valid']}, expected {exp.labels[iid]}")

    report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    problems += _compare(report["stage2"], exp.stage2, "stage2")
    problems += _compare(report["stage3_symptom"], exp.stage3["symptom"], "stage3_symptom")
    problems += _compare(report["stage3_rootcause"], exp.stage3["root_cause"], "stage3_rootcause")
    return problems, len(exp.sample), failed


def _compare(got: dict | None, want: dict | None, where: str) -> list[str]:
    if want is None or got is None:
        return [] if want is got else [f"{where}: report has {got!r}, expected {want!r}"]
    problems = []
    for name, value in want.items():
        if isinstance(value, dict):
            problems += _compare(got.get(name), value, f"{where}.{name}")
        elif isinstance(value, Fraction):
            # A correctly rounded int/int division equals the rounded fraction.
            if got.get(name) != float(value):
                problems.append(f"{where}.{name}: {got.get(name)!r} != {value} ({float(value)!r})")
        elif got.get(name) != value:
            problems.append(f"{where}.{name}: {got.get(name)!r} != {value!r}")
    return problems


def comparable_artifacts(run_dir: Path) -> dict[str, bytes]:
    """Run artifacts as a replay must reproduce them: without the manifest
    and config snapshot, which name timings and the mode, and without the
    wall time that report.json and summary.md carry."""
    out = {}
    for path in sorted(run_dir.rglob("*")):
        name = str(path.relative_to(run_dir))
        if not path.is_file() or name in ("manifest.json", "config_snapshot.yaml", "run.lock"):
            continue
        data = path.read_bytes()
        if name == "report.json":
            report = json.loads(data)
            report["run_meta"].pop("wall_time_seconds", None)
            data = json.dumps(report, sort_keys=True).encode()
        elif name == "summary.md":
            data = b"\n".join(line for line in data.splitlines() if not line.startswith(b"- wall time"))
        out[name] = data
    return out
