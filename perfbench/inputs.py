"""Seeded inputs for the benchmark.

From one seed this module writes everything the pipeline reads (issue dump,
gold labels, vocabulary, criteria) plus the answer plan that the fake
providers follow. The plan is the benchmark's ground truth: the reference
computations in `reference.py` work from it and from the generated records,
never from faultloom.

Shares of issue kinds, verdicts and bad answers are exact counts, shuffled by
the seed, so every seed gives the same number of LLM calls per stage; only
the texts, dates and lengths vary.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import yaml

VOCABULARY = [
    "WebGL", "tensor", "backend", "tf.js", "dispose", "memory leak",
    "inference", "shader", "wasm", "GPU", "kernel", "model.predict",
]
NOISE = [
    "button", "layout", "docs", "question", "release", "install", "styling",
    "roadmap", "license", "upgrade", "example", "page", "link", "typo",
    "version", "browser", "output", "input", "value", "array", "shape",
    "error", "script", "bundle", "loader", "worker", "canvas", "image",
    "training", "callback", "promise", "window", "mobile", "cache", "format",
]
EMBED_AFFIXES = [("sub", "s"), ("", "ish"), ("pre", ""), ("", "able"), ("x", "y")]
EXCLUSION_LABELS = ["stat:awaiting response", "invalid", "duplicate"]
OTHER_LABELS = ["bug", "type:bug", "comp:webgl", "needs triage", "P2", "perf"]
REPOS = ["acme/alpha", "acme/beta", "orbit/tensorlab", "orbit/viz"]
ROLES = ["MEMBER", "CONTRIBUTOR", "NONE", "OWNER"]

CUTOFF = datetime(2020, 1, 1, tzinfo=timezone.utc)
# Configured below the pipeline defaults (20 comments, 8000 chars) so that a
# stage that ignores the configuration builds visibly longer prompts.
COMMENT_BUDGET = 12
CHAR_BUDGET = 4000
MODEL_ID = "fake/answering-v1"
PARALLELISM = 2

# Deterministic outcome of each sampled issue: every kind but "pass" fails
# exactly one of the four criteria ("embedded" holds vocabulary terms only
# inside larger words, so it fails the vocabulary criterion too).
KIND_SHARES = {
    "pass": 0.5, "no_vocab": 0.1, "embedded": 0.08, "excluded": 0.12,
    "old": 0.1, "unanswered": 0.1,
}
FILTER_BAD_KINDS = ["malformed", "missing_field"]
CLASSIFY_BAD_KINDS = ["malformed", "non_leaf", "unknown"]


@dataclass(frozen=True)
class Size:
    corpus: int  # issues in the dump
    n_pos: int  # gold fault issues; all of them are sampled
    n_neg: int  # gold non-fault issues; all of them are sampled


@dataclass(frozen=True)
class AnswerMix:
    filter_repairs: tuple[float, float]  # share of judged issues with 1 / 2 bad answers
    classify_repairs: tuple[float, float]  # share of classified issues with 1 / 2 bad answers
    wrong_leaf: float  # share of classified fault issues given a wrong but valid leaf
    missed_fault: float = 0.1  # share of judged fault issues the fake calls non-fault
    false_alarm: float = 0.15  # share of judged non-fault issues the fake calls fault


@dataclass
class Generated:
    records: dict[str, dict]  # "repo#number" -> record, sampled issues only
    gold: dict[str, dict]
    plan: dict[str, dict]
    kinds: dict[str, str]


def issue_id(repo: str, number: int) -> str:
    return f"{repo}#{number}"


def read_taxonomy(path: Path) -> dict:
    """Nodes of a taxonomy YAML by id, with name, level, parent and whether
    the node is a classification target."""
    raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    leaf_level = int(raw["leaf_level"])
    nodes: dict[str, dict] = {}

    def visit(node: dict, level: int, parent: str | None) -> None:
        children = node.get("children") or []
        nodes[node["id"]] = {
            "name": node["name"], "level": level, "parent": parent,
            "target": level == leaf_level or (not children and level < leaf_level),
        }
        for child in children:
            visit(child, level + 1, node["id"])

    for root in raw["nodes"]:
        visit(root, 1, None)
    return {"leaf_level": leaf_level, "nodes": nodes}


def exact(rng: random.Random, n: int, shares: dict) -> list:
    """n outcomes in exactly the given shares (the first key takes the
    rounding remainder), in seeded order."""
    keys = list(shares)
    counts = {k: int(n * shares[k]) for k in keys[1:]}
    out = [keys[0]] * (n - sum(counts.values()))
    for k, c in counts.items():
        out += [k] * c
    rng.shuffle(out)
    return out


def _ts(dt: datetime) -> str:
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def _sentence(rng: random.Random, words: int) -> str:
    return " ".join(rng.choices(NOISE, k=words)).capitalize() + "."


def _long_text(rng: random.Random, chars: int) -> str:
    base = " ".join(_sentence(rng, 12) for _ in range(4))
    return (base + " ") * (chars // (len(base) + 1)) + base[: chars % (len(base) + 1)]


# Comment counts by thread length (the last class runs well past
# COMMENT_BUDGET and the pipeline default of 20), and the share of issues
# with one comment longer than CHAR_BUDGET. Exact shares keep the text
# volume, and so the CPU work, the same for every seed.
THREAD_SHARES = {(1, 4): 0.65, (5, COMMENT_BUDGET + 8): 0.25, (COMMENT_BUDGET + 9, 45): 0.1}
LONG_COMMENT_SHARE = 0.15


def _embedded(rng: random.Random) -> str:
    prefix, suffix = rng.choice(EMBED_AFFIXES)
    term = rng.choice(VOCABULARY).replace(" ", "-")
    return prefix + term.lower() + suffix


def make_record(rng: random.Random, repo: str, number: int, kind: str,
                thread: tuple[int, int], long_comment: bool) -> dict:
    if kind == "old":
        created = datetime(2016, 6, 1, tzinfo=timezone.utc) + timedelta(
            minutes=rng.randrange(0, (CUTOFF - datetime(2016, 6, 1, tzinfo=timezone.utc)).days * 1440))
    else:
        created = CUTOFF + timedelta(minutes=rng.randrange(0, 4 * 365 * 1440))
    n_comments = 0 if kind == "unanswered" else rng.randint(*thread)
    long_at = rng.randrange(n_comments) if long_comment and n_comments else -1
    title = _sentence(rng, rng.randint(3, 7))[:-1]
    body_parts = [_sentence(rng, rng.randint(5, 25)) for _ in range(rng.randint(1, 4))]
    comments = []
    when = created
    for i in range(n_comments):
        when += timedelta(minutes=rng.randint(5, 3000))
        if i == long_at:
            text = _long_text(rng, rng.randint(CHAR_BUDGET + 1000, 9000))
        else:
            text = _sentence(rng, rng.randint(4, 30))
        comments.append({"author_role": rng.choice(ROLES), "created_at": _ts(when), "body": text})

    if kind == "embedded":
        body_parts.insert(rng.randrange(len(body_parts) + 1), f"See {_embedded(rng)} for details.")
    elif kind != "no_vocab":
        term = rng.choice(VOCABULARY)
        where = rng.random()
        if where < 0.15:
            title = f"{title} with {term}"
        elif where < 0.55 or not comments:
            body_parts.insert(rng.randrange(len(body_parts) + 1), f"The {term} fails here.")
        else:
            c = comments[rng.randrange(len(comments))]
            c["body"] = f"{c['body']} Also {term}."
        if rng.random() < 0.3:
            body_parts.append(f"Unrelated: {_embedded(rng)}.")

    labels = rng.sample(OTHER_LABELS, rng.randint(0, 2))
    if kind == "excluded":
        labels.insert(rng.randrange(len(labels) + 1), rng.choice(EXCLUSION_LABELS))
    updated = when + timedelta(minutes=rng.randint(0, 600))
    closed = rng.random() < 0.7
    return {
        "repo": repo, "number": number, "title": title,
        "state": "closed" if closed else "open",
        "created_at": _ts(created), "updated_at": _ts(updated),
        "closed_at": _ts(updated) if closed else None,
        "body": "\n\n".join(body_parts), "labels": labels, "comments": comments,
        "is_pull_request": False,
        "url": f"https://example.test/{repo}/issues/{number}",
    }


def _bad_answers(rng: random.Random, ids: list[str], shares: tuple[float, float], kinds: list[str]) -> dict:
    counts = exact(rng, len(ids), {0: 1 - sum(shares), 1: shares[0], 2: shares[1]})
    return {i: [rng.choice(kinds) for _ in range(c)] for i, c in zip(ids, counts)}


def generate(seed: int, size: Size, mix: AnswerMix, symptoms: dict, root_causes: dict) -> tuple[Generated, list[dict]]:
    """The sampled issues with their gold labels and answer plan, plus the
    whole corpus in dump order."""
    rng = random.Random(seed)
    keys = [issue_id(repo, n) for repo in REPOS for n in range(1, size.corpus // len(REPOS) + 2)]
    keys = rng.sample(keys, size.corpus)
    sampled = size.n_pos + size.n_neg
    pos_ids, neg_ids = keys[: size.n_pos], keys[size.n_pos: sampled]

    kinds: dict[str, str] = {}
    for group in (pos_ids, neg_ids):
        kinds.update(zip(group, exact(rng, len(group), KIND_SHARES)))

    symptom_leaves = sorted(i for i, n in symptoms["nodes"].items() if n["target"])
    cause_leaves = sorted(i for i, n in root_causes["nodes"].items() if n["target"])
    gold: dict[str, dict] = {}
    for iid in pos_ids:
        gold[iid] = {"fault_related": True,
                     "symptom": rng.choice(symptom_leaves), "root_cause": rng.choice(cause_leaves)}
    for iid in neg_ids:
        gold[iid] = {"fault_related": False, "symptom": None, "root_cause": None}

    plan: dict[str, dict] = {iid: {"verdict": None, "filter_bad": [], "classify_bad": []} for iid in kinds}
    for group, flip_share in ((pos_ids, mix.missed_fault), (neg_ids, mix.false_alarm)):
        judged = [iid for iid in group if kinds[iid] == "pass"]
        for iid, flip in zip(judged, exact(rng, len(judged), {False: 1 - flip_share, True: flip_share})):
            plan[iid]["verdict"] = gold[iid]["fault_related"] != flip
    judged = sorted(i for i in kinds if kinds[i] == "pass")
    for iid, bad in _bad_answers(rng, judged, mix.filter_repairs, FILTER_BAD_KINDS).items():
        plan[iid]["filter_bad"] = bad

    classified = sorted(i for i in judged if plan[i]["verdict"])
    for iid, bad in _bad_answers(rng, classified, mix.classify_repairs, CLASSIFY_BAD_KINDS).items():
        plan[iid]["classify_bad"] = bad
    faults = [i for i in classified if gold[i]["fault_related"]]
    wrong = {i for i, w in zip(faults, exact(rng, len(faults), {False: 1 - mix.wrong_leaf, True: mix.wrong_leaf})) if w}
    for iid in classified:
        g = gold[iid]
        if g["fault_related"] and iid not in wrong:
            symptom, cause = g["symptom"], g["root_cause"]
        elif g["fault_related"]:
            symptom = rng.choice([s for s in symptom_leaves if s != g["symptom"]])
            cause = rng.choice([c for c in cause_leaves if c != g["root_cause"]] if rng.random() < 0.5 else cause_leaves)
        else:
            symptom, cause = rng.choice(symptom_leaves), rng.choice(cause_leaves)
        plan[iid]["symptom"] = symptom
        plan[iid]["root_cause"] = cause

    # Thread shapes in exact shares within each group of issues that the
    # pipeline treats alike, so prompt sizes and tokens hold across seeds.
    groups: dict[tuple, list[str]] = {}
    for iid in keys:
        p = plan.get(iid)
        group = (kinds[iid], p["verdict"], len(p["filter_bad"]), len(p["classify_bad"])) if p else None
        groups.setdefault(group, []).append(iid)
    shapes = {}
    for members in groups.values():
        threads = exact(rng, len(members), THREAD_SHARES)
        longs = exact(rng, len(members), {False: 1 - LONG_COMMENT_SHARE, True: LONG_COMMENT_SHARE})
        shapes.update(zip(members, zip(threads, longs)))

    all_kinds = list(KIND_SHARES)
    corpus = []
    for iid in keys:
        repo, number = iid.rsplit("#", 1)
        corpus.append(make_record(rng, repo, int(number), kinds.get(iid) or rng.choice(all_kinds), *shapes[iid]))
    records = {iid: record for iid, record in zip(keys[:sampled], corpus)}
    return Generated(records=records, gold=gold, plan=plan, kinds=kinds), corpus


def write_inputs(directory: Path, generated: Generated, corpus: list[dict], symptoms: dict, root_causes: dict) -> None:
    """Write the files the pipeline reads, plus answers.json for the fakes."""
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for record in corpus:
            fh.write(json.dumps(record) + "\n")
    with open(directory / "gold.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["repo", "number", "fault_related", "symptom_leaf_id", "root_cause_id"])
        for iid, g in generated.gold.items():
            repo, number = iid.rsplit("#", 1)
            writer.writerow([repo, number, str(g["fault_related"]).lower(), g["symptom"] or "", g["root_cause"] or ""])
    (directory / "vocab.txt").write_text(
        "# domain vocabulary, first match wins\n" + "\n".join(VOCABULARY) + "\n", encoding="utf-8")
    (directory / "criteria.yaml").write_text(yaml.safe_dump({
        "exclusion_labels": EXCLUSION_LABELS,
        "cutoff_date": CUTOFF.date().isoformat(),
        "require_answered": True,
        "comment_budget": COMMENT_BUDGET,
        "char_budget": CHAR_BUDGET,
    }), encoding="utf-8")
    names = {}
    for iid, p in generated.plan.items():
        if "symptom" in p:
            names[iid] = {
                **p,
                "symptom_name": symptoms["nodes"][p["symptom"]]["name"],
                "root_cause_name": root_causes["nodes"][p["root_cause"]]["name"],
            }
        else:
            names[iid] = p
    bad_names = {
        "symptom": next(n["name"] for n in symptoms["nodes"].values() if not n["target"]),
        "root_cause": next(n["name"] for n in root_causes["nodes"].values() if not n["target"]),
    }
    (directory / "answers.json").write_text(
        json.dumps({"issues": names, "non_leaf": bad_names}), encoding="utf-8")


def write_config(path: Path, mode: str, transcript: str, out: str, size: Size, seed: int) -> None:
    path.write_text(yaml.safe_dump({
        "dumps": ["corpus.jsonl"],
        "criteria": "criteria.yaml",
        "vocabulary": "vocab.txt",
        "gold": "gold.csv",
        "model": MODEL_ID,
        "mode": mode,
        "transcript": transcript,
        "sampling": {"n_pos": size.n_pos, "n_neg": size.n_neg, "seed": seed},
        "parallelism": PARALLELISM,
        "stage3_input": "filtered",
        "out": out,
    }), encoding="utf-8")
