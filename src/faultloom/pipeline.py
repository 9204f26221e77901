"""End-to-end orchestration: stage sequencing, artifact persistence,
content-hash resumability, and report emission.

Each stage writes a line-delimited artifact into the run directory before the
next stage starts. A stage is skipped on rerun when its recorded input hash
(config section + upstream artifact bytes) is unchanged, so a finished run
directory is stable and fully determines its report: a no-op rerun hashes its
inputs and reads report.json back.

Within one Runner, a stage hands the objects it wrote to the stages after it,
tagged with the sha256 of the written bytes; a later stage uses them only
while the file on disk still has that hash, and parses the file otherwise.
On the same terms the sample stage copies the chosen record lines out of
corpus.jsonl rather than serializing them again.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import logging
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import yaml

from . import stage1, stage2, stage3
from .config import PipelineConfig
from .corpus import (
    Corpus,
    copy_spans,
    export_dump,
    import_dump,
    load_gold,
    merge_corpora,
    sample_balanced,
    write_jsonl,
)
from .errors import FaultloomError, MissingArtifactError, StageError
from .evaluation import (
    EvalReport,
    RunMeta,
    score_stage2,
    score_stage3,
)
from .gateway import Gateway, Provider, RateLimiter, Transcript
from .ingest import IssueFetcher, PageCache
from .taxonomy import Taxonomy, load_taxonomy

logger = logging.getLogger(__name__)

ARTIFACTS = {
    "corpus": "corpus.jsonl",
    "sample": "sample.jsonl",
    "define": "study_plan.json",
    "filter": "decisions.jsonl",
    "classify": "labels.jsonl",
    "evaluate": "report.json",
}


_CHUNK = 1 << 20


def _feed(hasher, path: Path):
    """`hasher` updated with the bytes of `path`, read in chunks into one
    reused buffer."""
    buffer = bytearray(_CHUNK)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buffer):
            hasher.update(view[:size])
    return hasher


def _hash_file(path: Path | None) -> str | None:
    """sha256 of the file at `path`; None when no file is configured."""
    return None if path is None else _feed(hashlib.sha256(), path).hexdigest()


def _input_hash(head: bytes, paths=()) -> str:
    """A stage's input hash: sha256 over `head` and the bytes of each file in
    `paths`, each part followed by a NUL."""
    combined = hashlib.sha256(head + b"\x00")
    for path in paths:
        _feed(combined, path).update(b"\x00")
    return combined.hexdigest()


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str).encode("utf-8")


class Manifest:
    """Per-run record of stage input hashes and stage metadata."""

    def __init__(self, path: Path):
        self.path = path
        self.data: dict = {"stages": {}}
        if path.exists():
            self.data = json.loads(path.read_text(encoding="utf-8"))

    def save(self) -> None:
        self.path.write_text(
            json.dumps(self.data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    def stage(self, name: str) -> dict:
        return self.data["stages"].get(name, {})

    def set_stage(self, name: str, input_hash: str, meta: dict) -> None:
        self.data["stages"][name] = {"input_hash": input_hash, "meta": meta}
        self.save()


# The stages `run_pipeline` runs, in order. The report's run figures come
# from the manifest entries of all but the last.
RUN_ORDER = ("corpus", "sample", "filter", "classify", "evaluate")


def _reader(kind):
    """A parser of a line-delimited artifact into a list of `kind` records."""

    def read(path: Path) -> list:
        with open(path, "r", encoding="utf-8") as fh:
            return [kind.from_dict(json.loads(line)) for line in fh if line.strip()]

    return read


@dataclass
class Runner:
    config: PipelineConfig
    provider: Provider | None = None  # injected fake for tests; live resolves by model id
    gateway: Gateway | None = field(default=None, init=False)
    manifest: Manifest = field(init=False)
    report: EvalReport | None = field(default=None, init=False)  # as run_evaluate last wrote it

    def __post_init__(self) -> None:
        self.out = Path(self.config.out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.manifest = Manifest(self.out / "manifest.json")
        # Parsed artifacts and inputs of this run by name, each with the
        # sha256 of the bytes it was written as or parsed from.
        self._held: dict[str, tuple[str, object]] = {}
        self._snapshotted = False

    # --- shared plumbing ---------------------------------------------------

    def artifact(self, stage: str) -> Path:
        return self.out / ARTIFACTS[stage]

    def require_artifact(self, stage: str, needed_by: str) -> Path:
        path = self.artifact(stage)
        if not path.exists():
            raise MissingArtifactError(str(path), needed_by)
        return path

    def _parsed(self, name: str, path: Path, parse):
        """`parse(path)`, or the object held under `name` when it came from
        bytes with the same sha256 as the file now on disk. Holds what it
        returns."""
        digest = _hash_file(path)
        held = self._held.get(name)
        if held is None or held[0] != digest:
            held = self._held[name] = (digest, parse(path))
        return held[1]

    def _gold(self) -> dict:
        return self._parsed("gold", self.config.gold_file, load_gold)

    def _taxonomies(self) -> tuple[Taxonomy, Taxonomy]:
        return (
            self._parsed("symptom_taxonomy", self.config.symptom_taxonomy_file, load_taxonomy),
            self._parsed("root_cause_taxonomy", self.config.root_cause_taxonomy_file, load_taxonomy),
        )

    def _get_gateway(self) -> Gateway:
        if self.gateway is None:
            transcript = None
            if self.config.transcript_path is not None:
                transcript = Transcript(self.config.transcript_path)
            self.gateway = Gateway(
                mode=self.config.mode,
                transcript=transcript,
                provider=self.provider,
                limiter=RateLimiter(max_concurrent=self.config.parallelism),
            )
        return self.gateway

    def _usage(self) -> dict[str, dict]:
        gateway = self.gateway
        return {m: t.to_dict() for m, t in gateway.usage.items()} if gateway else {}

    def close(self) -> None:
        """Close the transcript's append handle, if one is open."""
        if self.gateway is not None and self.gateway.transcript is not None:
            self.gateway.transcript.close()

    @contextlib.contextmanager
    def locked(self):
        """Hold `run.lock` in the run directory while the block runs, so that
        no two commands write the run directory at once. The transcript is
        closed before the lock is released."""
        lock = self.out / "run.lock"
        try:
            os.close(os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            raise StageError(f"run directory is locked by another command: {lock}") from None
        try:
            yield
        finally:
            self.close()
            lock.unlink(missing_ok=True)

    def snapshot_config(self) -> None:
        """Write `config_snapshot.yaml`, once per Runner."""
        if self._snapshotted:
            return
        self._snapshotted = True
        payload = {
            "mode": self.config.mode,
            "model": self.config.model_id,
            "dumps": [str(p) for p in self.config.dumps],
            "repos": self.config.repos,
            "sampling": asdict(self.config.sampling) if self.config.sampling else None,
            "parallelism": self.config.parallelism,
            "stage3_input": self.config.stage3_input,
        }
        (self.out / "config_snapshot.yaml").write_text(
            yaml.safe_dump(payload, sort_keys=True), encoding="utf-8"
        )

    def _stage(self, name: str, key, upstream, body) -> Path:
        """Run one stage and return its artifact path.

        The stage's input hash covers `key` and the bytes of the `upstream`
        files. When the manifest records that hash and the artifact exists,
        the stage is skipped. Otherwise `body()` writes the artifact and may
        return extra manifest meta, and the manifest records the hash, the
        time and the model calls of the stage."""
        input_hash = _input_hash(_canonical(key), upstream)
        path = self.artifact(name)
        if self.manifest.stage(name).get("input_hash") == input_hash and path.exists():
            logger.info("%s: unchanged, skipping", name)
            return path
        self.snapshot_config()
        started, before = time.monotonic(), self._usage()
        extra = body()
        per_model = {}
        for model, tally in self._usage().items():
            prior = before.get(model, {})
            used = {k: count - prior.get(k, 0) for k, count in tally.items()}
            if used["requests"]:
                per_model[model] = used
        meta = {
            "duration_seconds": round(time.monotonic() - started, 3),
            "tokens": sum(t["input_tokens"] + t["output_tokens"] for t in per_model.values()),
            "per_model": per_model,
            **(extra or {}),
        }
        self.manifest.set_stage(name, input_hash, meta)
        return path

    # --- stages ------------------------------------------------------------
    #
    # Each stage names its key, its upstream files and its body; `_stage`
    # decides whether to skip before the body parses anything. Upstream
    # artifacts come from `_parsed`, so within one run each is parsed at most
    # once, and not at all when the stage that wrote it handed over the
    # parsed object. The docstrings are the CLI's help texts.

    def run_corpus(self) -> Path:
        """Import the dumps and fetch the repos into the corpus artifact."""
        config = self.config

        def body():
            parts = [import_dump(p) for p in config.dumps]
            if config.repos:
                cache = PageCache(config.cache_dir) if config.cache_dir else None
                fetcher = IssueFetcher(cache=cache)
                parts.extend(fetcher.fetch_issues(repo) for repo in config.repos)
            corpus = merge_corpora(parts, source="dump" if not config.repos else "live")
            spans: list = []
            digest = export_dump(corpus, self.artifact("corpus"), spans)
            self._held["corpus"] = (digest, corpus)
            self._held["corpus_spans"] = (digest, spans)  # each record's line
            return {"records": len(corpus)}

        key = {"dumps": [str(p) for p in config.dumps], "repos": config.repos}
        return self._stage("corpus", key, config.dumps, body)

    def run_sample(self) -> Path:
        """Draw the balanced evaluation sample from the corpus."""
        upstream = self.require_artifact("corpus", "sample")
        sampling = self.config.sampling

        def body():
            corpus = self._parsed("corpus", upstream, import_dump)
            # No later stage reads the full corpus. The record spans kept by
            # the corpus stage hold while the file is the one it wrote.
            digest = self._held.pop("corpus")[0]
            written, spans = self._held.pop("corpus_spans", (None, None))
            sample = corpus
            if sampling is not None:
                sample = sample_balanced(corpus, self._gold(), sampling.n_pos, sampling.n_neg, sampling.seed)
            path = self.artifact("sample")
            if written == digest:
                at = dict(zip(corpus.keys(), spans))
                digest = copy_spans(upstream, path, (at[key] for key in sample.keys()))
            else:
                digest = export_dump(sample, path)
            self._held["sample"] = (digest, sample)

        return self._stage("sample", asdict(sampling) if sampling else None, [upstream], body)

    def run_define(self) -> Path:
        """Run research definition: elicit and score a study plan."""
        theme = stage1.StudyTheme(
            description=self.config.theme_description,
            constraints=self.config.theme_constraints,
        )

        def body():
            plan = stage1.propose_study(theme, self._get_gateway(), self.config.model_id)
            payload = {"plan": plan.to_dict()}
            if self.config.reference_projects_file is not None:
                reference = stage1.load_reference_projects(self.config.reference_projects_file)
                payload["score"] = stage1.score_plan(plan, reference).to_dict()
            self.artifact("define").write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )

        key = {
            "theme": theme.description,
            "constraints": theme.constraints,
            "model": self.config.model_id,
            "reference": _hash_file(self.config.reference_projects_file),
        }
        return self._stage("define", key, [], body)

    def run_filter(self) -> Path:
        """Run fault-related issue filtering over the sample."""
        upstream = self.require_artifact("sample", "filter")

        def body():
            criteria = self.config.load_criteria()
            sample = self._parsed("sample", upstream, import_dump)
            decisions = stage2.run_stage2(
                sample, criteria, self._get_gateway(), self.config.model_id,
                parallelism=self.config.parallelism,
            )
            digest = write_jsonl(self.artifact("filter"), (d.to_dict() for d in decisions))
            self._held["filter"] = (digest, decisions)
            return {"decisions": len(decisions), "positives": sum(1 for d in decisions if d.final)}

        key = {
            "vocabulary": _hash_file(self.config.vocabulary_file),
            "criteria": _hash_file(self.config.criteria_file),
            "model": self.config.model_id,
        }
        return self._stage("filter", key, [upstream], body)

    def run_classify(self) -> Path:
        """Run taxonomy-anchored symptom/root-cause classification."""
        upstream = [self.require_artifact("sample", "classify")]
        if self.config.stage3_input == "filtered":
            upstream.append(self.require_artifact("filter", "classify"))

        def body():
            sample = self._parsed("sample", upstream[0], import_dump)
            if self.config.stage3_input == "gold":
                keep = {
                    k for k, g in self._gold().items()
                    if g.symptom_leaf is not None or g.root_cause is not None
                }
            else:
                decisions = self._parsed("filter", upstream[1], _reader(stage2.FilterDecision))
                keep = {d.key for d in decisions if d.final}
            issues = Corpus(records=[r for r in sample if r.key in keep], source=sample.source)
            symptoms, root_causes = self._taxonomies()
            labels = stage3.run_stage3(
                issues, symptoms, root_causes, self._get_gateway(), self.config.model_id,
                parallelism=self.config.parallelism,
                **self.config.prompt_budgets(),
            )
            digest = write_jsonl(self.artifact("classify"), (l.to_dict() for l in labels))
            self._held["classify"] = (digest, labels)
            return {"labels": len(labels), "invalid": sum(1 for l in labels if not l.valid)}

        key = {
            "model": self.config.model_id,
            "stage3_input": self.config.stage3_input,
            "criteria": _hash_file(self.config.criteria_file),
            "symptom_taxonomy": _hash_file(self.config.symptom_taxonomy_file),
            "root_cause_taxonomy": _hash_file(self.config.root_cause_taxonomy_file),
        }
        return self._stage("classify", key, upstream, body)

    # --- evaluation and report ---------------------------------------------

    def build_report(self) -> EvalReport:
        gold = self._gold()
        symptoms, root_causes = self._taxonomies()
        notes: list[str] = []
        meta = RunMeta()

        decisions = self._parsed("filter", self.require_artifact("filter", "evaluate"), _reader(stage2.FilterDecision))
        scorable = [d for d in decisions if (g := gold.get(d.key)) and g.fault_related is not None]
        meta.unscored += len(decisions) - len(scorable)
        stage2_scores = score_stage2(scorable, gold) if scorable else None
        if stage2_scores is None:
            notes.append("stage2: no gold-covered decisions to score")

        labels = self._parsed("classify", self.require_artifact("classify", "evaluate"), _reader(stage3.FaultLabel))
        symptom_labels = [
            l for l in labels if (g := gold.get(l.key)) and g.symptom_leaf is not None
        ]
        rootcause_labels = [
            l for l in labels if (g := gold.get(l.key)) and g.root_cause is not None
        ]
        meta.unscored += (len(labels) - len(symptom_labels)) + (len(labels) - len(rootcause_labels))
        meta.invalid_labels = sum(1 for l in labels if not l.valid)
        if not labels:
            notes.append("stage3: zero issues reached classification")
        stage3_symptom = score_stage3(symptom_labels, gold, symptoms) if symptom_labels else None
        stage3_rootcause = score_stage3(rootcause_labels, gold, root_causes) if rootcause_labels else None

        # Each stage's manifest entry holds what that stage itself used.
        durations = 0.0
        tokens = 0
        per_model: dict = {}
        for name in RUN_ORDER[:-1]:
            stage_meta = self.manifest.stage(name).get("meta", {})
            durations += stage_meta.get("duration_seconds", 0.0)
            tokens += stage_meta.get("tokens", 0)
            for model, tally in stage_meta.get("per_model", {}).items():
                agg = per_model.setdefault(
                    model, {"requests": 0, "input_tokens": 0, "output_tokens": 0}
                )
                for key in agg:
                    agg[key] += tally.get(key, 0)
        meta.wall_time_seconds = round(durations, 3)
        meta.total_tokens = tokens
        meta.per_model = per_model

        return EvalReport(
            stage2=stage2_scores,
            stage3_symptom=stage3_symptom,
            stage3_rootcause=stage3_rootcause,
            run_meta=meta,
            notes=notes,
        )

    def run_evaluate(self) -> Path:
        """Score stage outputs against gold labels and write the report."""
        self.report = None
        upstream = [self.require_artifact(needed, "evaluate") for needed in ("filter", "classify")]

        def body():
            self.report = self.build_report()
            self.write_report(self.report)

        # The report reads gold, both taxonomies, the two artifacts and the
        # upstream manifest entries, so a skip means report.json is current.
        key = {
            "gold": _hash_file(self.config.gold_file),
            "symptom_taxonomy": _hash_file(self.config.symptom_taxonomy_file),
            "root_cause_taxonomy": _hash_file(self.config.root_cause_taxonomy_file),
            "stages": {name: self.manifest.stage(name) for name in RUN_ORDER[:-1]},
        }
        return self._stage("evaluate", key, upstream, body)

    def write_report(self, report: EvalReport) -> None:
        self.artifact("evaluate").write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        tables = self.out / "tables"
        tables.mkdir(exist_ok=True)
        for name, scores in (
            ("stage2_confusion", report.stage2),
            ("stage3_symptom_confusion", report.stage3_symptom),
            ("stage3_rootcause_confusion", report.stage3_rootcause),
        ):
            path = tables / f"{name}.csv"
            if scores is None:
                path.write_text("", encoding="utf-8")
                continue
            matrix = scores.confusion
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["gold \\ predicted"] + matrix.classes)
                for cls, row in zip(matrix.classes, matrix.counts):
                    writer.writerow([cls] + row)
        self._write_summary(report)

    def _write_summary(self, report: EvalReport) -> None:
        lines = ["# Run summary", ""]
        if report.stage2:
            s = report.stage2
            lines += [
                "## Stage II: fault-related issue filtering",
                f"- accuracy: {s.accuracy:.4f} ({s.tp + s.tn}/{s.total})",
                f"- precision: {s.precision:.4f}",
                f"- recall: {s.recall:.4f}",
                "",
            ]
        for title, scores in (
            ("Stage III: symptom classification", report.stage3_symptom),
            ("Stage III: root-cause classification", report.stage3_rootcause),
        ):
            if scores:
                lines.append(f"## {title}")
                lines.append(
                    f"- leaf accuracy: {scores.accuracy:.4f} ({scores.correct}/{scores.total})"
                )
                for level in sorted(scores.per_level_accuracy):
                    lines.append(
                        f"- level-{level} accuracy: {scores.per_level_accuracy[level]:.4f}"
                    )
                lines.append(f"- invalid labels: {scores.invalid}")
                lines.append("")
        meta = report.run_meta
        lines += [
            "## Run",
            f"- wall time (s): {meta.wall_time_seconds}",
            f"- total tokens: {meta.total_tokens}",
            f"- unscored items: {meta.unscored}",
        ]
        for note in report.notes:
            lines.append(f"- note: {note}")
        (self.out / "summary.md").write_text("\n".join(lines) + "\n", encoding="utf-8")

    # --- whole pipeline -----------------------------------------------------

    def run_pipeline(self) -> EvalReport:
        self.config.validate()
        with self.locked():
            try:
                for current in RUN_ORDER:
                    getattr(self, f"run_{current}")()
            except FaultloomError as exc:
                last = _last_artifact(self.out)
                raise StageError(f"stage {current!r} failed ({exc}); last artifact: {last}") from exc
        if self.report is None:  # evaluate skipped, so report.json is current
            raw = json.loads(self.artifact("evaluate").read_text(encoding="utf-8"))
            self.report = EvalReport.from_dict(raw)
        return self.report


def _last_artifact(out: Path) -> str:
    existing = [out / name for name in ARTIFACTS.values() if (out / name).exists()]
    if not existing:
        return "(none)"
    return str(max(existing, key=lambda p: p.stat().st_mtime))
