"""End-to-end orchestration: stage sequencing, artifact persistence,
content-hash resumability, and report emission.

Each stage writes a line-delimited artifact into the run directory before the
next stage starts. Each stage declares the files it reads, config files and
upstream artifacts alike, and records in the manifest its input hash (its
config key + the sha256 of each declared file) and the sha256 its artifact was
written with. On rerun it is skipped when the input hash is unchanged and the
artifact still has that sha256, so a finished run directory is stable and
fully determines its report: a no-op rerun reads report.json back. The
evaluate stage alone writes the report, and its output records the sha256
of each report file, so a missing or edited one is written again.

The manifest also keeps, for each file a command hashed or a stage wrote, its
stat fingerprint (device, inode, size, mtime, ctime) and its sha256. A later
command reuses that sha256 without reading the file while the fingerprint is
unchanged and the file's ctime is older than the manifest's mtime (git's
"racy git" rule); any other file is hashed. A stale fingerprint is refreshed
when a stage next writes the manifest.

A command (a `Runner.locked()` block) keeps one table of the files its
stages read and write, and each file is hashed and parsed at most once in it:
a stage puts the sha256 of the artifact it writes there for the stages after
it, with what a later stage reads of it where the stage holds that: the
corpus stage its ordered key list, so that no stage holds the whole corpus's
records. The filter stage builds the sample's records from `sample.jsonl`. A
stage called outside a command is a command of its own. Nothing in the table
outlives the command.
"""

from __future__ import annotations

import contextlib
import csv
import fcntl
import hashlib
import io
import json
import logging
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import yaml

from . import stage1, stage2, stage3
from .config import PipelineConfig, load_criteria
from .corpus import (  # export_dump: no stage calls it, but perfbench/tracing.py patches it here
    copy_lines,
    export_dump,
    import_dump,
    load_gold,
    read_dump,
    read_lines,
    sample_balanced,
    sha256_json,
    write_jsonl,
)
from .errors import ConfigError, CorpusError, FaultloomError, StageError
from .evaluation import EvalReport, RunMeta, score_stage2, score_stage3
from .gateway import Gateway, Provider, RateLimiter, Transcript
from .ingest import IssueFetcher, PageCache
from .taxonomy import load_taxonomy

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


def _hash_file(path: Path) -> str:
    """sha256 of the file at `path`, read in chunks into one reused buffer."""
    hasher, buffer = hashlib.sha256(), bytearray(_CHUNK)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buffer):
            hasher.update(view[:size])
    return hasher.hexdigest()


def _fingerprint(st: os.stat_result, sha256: str) -> dict:
    """A "files" entry of the manifest: a file's stat fingerprint and its sha256."""
    return {"stat": [st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns], "sha256": sha256}


class Manifest:
    """Per-run record of stage input hashes and stage metadata, and of the
    fingerprint and sha256 of each file a command hashed or a stage wrote,
    by its absolute path: one file named two ways is one entry."""

    def __init__(self, path: Path):
        self.path = path
        self.data: dict = {"stages": {}}
        self.files: dict = {}
        if path.exists():
            try:
                self.data = json.loads(path.read_text(encoding="utf-8"))
            except ValueError as exc:
                raise StageError(f"unreadable manifest {path}: {exc}") from exc
            if not isinstance(self.data, dict) or not isinstance(self.data.get("stages"), dict):
                raise StageError(f"unreadable manifest {path}: no stages object")
            self._trust()

    def _trust(self) -> None:
        """Hold as `self.files` the well-formed entries of the "files" map
        whose file last changed before the manifest was written. An entry that
        changed in the same clock tick is racy: a write later in that tick
        would leave its fingerprint as it was. An entry keyed by a relative
        path, as manifests were once written, is never looked up: it goes."""
        written = self.path.stat().st_mtime_ns
        files = self.data.get("files")
        self.files = {
            path: entry for path, entry in (files.items() if isinstance(files, dict) else ())
            if os.path.isabs(path) and isinstance(entry, dict) and isinstance(entry.get("sha256"), str)
            and isinstance(stat := entry.get("stat"), list) and len(stat) == 5
            and all(type(v) is int for v in stat) and stat[4] < written
        }

    def known(self, path: str, st: os.stat_result) -> str | None:
        """The sha256 of the trusted entry for the absolute `path` if it holds
        `st`'s fingerprint."""
        entry = self.files.get(path)
        if entry is not None and entry == _fingerprint(st, entry["sha256"]):
            return entry["sha256"]
        return None

    def save(self, data: dict) -> None:
        """Write `data` as the manifest through a temp file in the same
        directory, so a killed write leaves the previous manifest in place,
        then hold it as `self.data`: a failed write changes neither."""
        tmp = self.path.with_name(self.path.name + ".tmp")
        _write_json(tmp, data)
        os.replace(tmp, self.path)
        self.data = data
        self._trust()

    def stage(self, name: str) -> dict:
        return self.data["stages"].get(name, {})

    def set_stage(self, name: str, input_hash: str, output: str, meta: dict, files: dict) -> None:
        """Record the stage entry, and `files` (path -> entry) over the trusted ones."""
        entry = {"input_hash": input_hash, "output": output, "meta": meta}
        self.save({**self.data, "stages": {**self.data["stages"], name: entry}, "files": {**self.files, **files}})


# The stages `run_pipeline` runs, in order. The report's run figures come
# from the manifest entries of all but the last.
RUN_ORDER = ("corpus", "sample", "filter", "classify", "evaluate")

# The files the evaluate stage writes, by path in the run directory; the
# output its manifest entry records maps each to its sha256.
REPORT_FILES = ("report.json", "summary.md",
                *(f"tables/{t}_confusion.csv" for t in ("stage2", "stage3_symptom", "stage3_rootcause")))


# The parser of each input a stage reads through `_read`, by name. Each
# looks its loader up as a global at call time, so that a loader patched on
# this module is the one called. The corpus reads as its keys, in file order.
_PARSERS = {
    "corpus": lambda path: [record.key for record in read_dump(path)],
    "sample": lambda path: import_dump(path),
    "filter": lambda path: [d for _, d in read_lines(path, stage2.FilterDecision)],
    "classify": lambda path: [l for _, l in read_lines(path, stage3.FaultLabel)],
    "gold": lambda path: load_gold(path),
    "symptom_taxonomy": lambda path: load_taxonomy(path),
    "root_cause_taxonomy": lambda path: load_taxonomy(path),
    "criteria": lambda path: load_criteria(path),
    "vocabulary": lambda path: stage2.load_vocabulary(path),
    "reference_projects": lambda path: stage1.load_reference_projects(path),
}


@dataclass
class Runner:
    config: PipelineConfig
    provider: Provider | None = None  # injected fake for tests; live resolves by model id
    gateway: Gateway | None = field(default=None, init=False)
    manifest: Manifest = field(init=False)

    def __post_init__(self) -> None:
        self.out = Path(self.config.out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.manifest = Manifest(self.out / "manifest.json")
        # The table of the running command: input name -> [sha256, parsed
        # object or None]; None outside `locked()`.
        self._table: dict[str, list] | None = None
        # The "files" entries of the running command: path -> entry.
        self._taken: dict[str, dict] = {}
        # The inputs of the running stage: name -> path.
        self._inputs: dict[str, Path | None] | None = None
        self._snapshotted = False

    # --- shared plumbing ---------------------------------------------------

    def artifact(self, stage: str) -> Path:
        return self.out / ARTIFACTS[stage]

    def _files(self, *names: str) -> dict:
        """Input name -> file: a stage's artifact, else the configured `<name>_file`."""
        return {n: self.artifact(n) if n in ARTIFACTS else getattr(self.config, f"{n}_file") for n in names}

    def _sha256(self, path: Path) -> str:
        """sha256 of the file at `path`, noted with its fingerprint among the
        command's "files" entries. The file is read only when the manifest
        holds no trusted entry with its current fingerprint."""
        st = os.stat(path)  # before the read, so a later write changes st_ctime_ns
        key = os.path.abspath(path)
        digest = self.manifest.known(key, st) or _hash_file(path)
        self._taken[key] = _fingerprint(st, digest)
        return digest

    def _digest(self, name: str, path: Path | None) -> str | None:
        """sha256 of the file at `path`, the input `name` of the running
        command, taken at most once per command; None when not configured."""
        if name not in self._table:
            self._table[name] = [None if path is None else self._sha256(path), None]
        return self._table[name][0]

    def _written(self, name: str, output) -> bool:
        """Whether each file the stage `name` wrote still has the sha256 that
        `output`, its manifest entry's, records: its artifact's, or for
        evaluate the map of each report file's."""
        try:
            if name == "evaluate":
                return output == {rel: self._sha256(self.out / rel) for rel in REPORT_FILES}
            return output == self._digest(name, self.artifact(name))
        except FileNotFoundError:
            return False

    @contextlib.contextmanager
    def _declared(self, inputs: dict, needed_by: str):
        """Hash each file of `inputs` (name -> path, None when not
        configured) into the command's table, and let `_read` parse them
        while the block runs. Yields the sha256 of each by name. Outside a
        command, the block is a command of its own."""
        with self.locked() if self._table is None else contextlib.nullcontext():
            digests = {}
            for name, path in inputs.items():
                try:
                    digests[name] = self._digest(name, path)
                except FileNotFoundError:
                    if name in ARTIFACTS:
                        raise StageError(
                            f"missing upstream artifact {path} (needed by {needed_by}); run the producing stage first"
                        ) from None
                    raise ConfigError(f"referenced file does not exist: {path}") from None
            self._inputs = inputs
            try:
                yield digests
            finally:
                self._inputs = None

    def _read(self, name: str):
        """The declared input `name` of the running stage, parsed at most once
        per command. An unconfigured criteria file reads as no settings; a
        file that does not parse (bad YAML, not UTF-8, a bad value) is a
        ConfigError naming it."""
        if self._inputs is None or name not in self._inputs:
            raise KeyError(f"{name!r} is not an input the running stage declared")
        entry = self._table[name]
        if entry[1] is None:
            path = self._inputs[name]
            if path is None and name != "criteria":
                raise ConfigError(f"no {name} file configured")
            try:
                entry[1] = _PARSERS[name.rstrip("0123456789")](path)
            except (yaml.YAMLError, ValueError) as exc:
                raise ConfigError(f"{path}: {exc}") from exc
        return entry[1]

    def _get_gateway(self) -> Gateway:
        if self.gateway is None:
            path = self.config.transcript_path
            self.gateway = Gateway(
                mode=self.config.mode,
                transcript=Transcript(path) if path is not None else None,
                provider=self.provider,
                limiter=RateLimiter(max_concurrent=self.config.parallelism),
            )
        return self.gateway

    def _issue_parallelism(self) -> int:
        """The number of issues a stage handles at once. `parallelism` bounds
        concurrent provider calls; replay makes none, and its transcript
        lookups never wait, so it runs each issue inline."""
        return 1 if self.config.mode == "replay" else self.config.parallelism

    def close(self) -> None:
        """Close the transcript's append handle, if one is open."""
        if self.gateway is not None and self.gateway.transcript is not None:
            self.gateway.transcript.close()

    @contextlib.contextmanager
    def locked(self):
        """Hold an exclusive `flock` on `run.lock` in the run directory while
        the block runs, so that no two commands write the run directory at
        once. The kernel frees it when its holder exits, killed or not; the
        file stays, and what it holds means nothing."""
        lock = self.out / "run.lock"
        with open(lock, "a", encoding="utf-8") as fh:
            try:
                fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise StageError(f"run directory is locked by another command: {lock}") from None
            self._table, self._taken = {}, {}
            try:
                yield
            finally:
                self._table, self._taken = None, {}

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

    def _stage(self, name: str, key, inputs: dict, body) -> Path:
        """Run one stage and return its artifact path.

        `inputs` names every file the body reads (name -> path, None when not
        configured); the body reads them only through `_read`, but for the
        corpus stage, which streams its dumps a record at a time. The stage's
        input hash covers `key` and the sha256 of each input. When the
        manifest records that hash and each file the stage wrote still has
        the sha256 recorded as its output, the stage is skipped. Otherwise
        `body()` writes them and returns their output (the artifact's sha256;
        for evaluate, each report file's by its path in the run directory),
        what a later stage reads of it (None to parse the file) and any extra
        manifest meta; the artifact's sha256 and the object go into the
        command's table, and the manifest records the hash, the output, the
        time from the call on and the model calls of the stage. The
        transcript is closed when the body ends."""
        started, path = time.monotonic(), self.artifact(name)
        with self._declared(inputs, name) as digests:
            input_hash = sha256_json({"key": key, "inputs": digests})
            recorded = self.manifest.stage(name)
            if recorded.get("input_hash") == input_hash and self._written(name, recorded.get("output")):
                logger.info("%s: unchanged, skipping", name)
                return path
            self._table.pop(name, None)  # no digest of the artifact holds until the body returns
            self.snapshot_config()
            if self.gateway is not None:
                self.gateway.usage.clear()
            try:
                output, written, extra = body()
            finally:
                self.close()
            files = output if name == "evaluate" else {ARTIFACTS[name]: output}
            for rel, digest in files.items():
                self._taken[os.path.abspath(self.out / rel)] = _fingerprint(os.stat(self.out / rel), digest)
            self._table[name] = [files[ARTIFACTS[name]], written]
            per_model = {m: t.to_dict() for m, t in self.gateway.usage.items()} if self.gateway else {}
            meta = {
                "duration_seconds": round(time.monotonic() - started, 3),
                "tokens": sum(t["input_tokens"] + t["output_tokens"] for t in per_model.values()),
                "per_model": per_model,
                **extra,
            }
            self.manifest.set_stage(name, input_hash, output, meta, self._taken)
        return path

    # --- stages ------------------------------------------------------------
    #
    # Each stage names its key, its input files and its body; `_stage`
    # decides whether to skip before the body parses anything. Inputs come
    # from `_read`, so within one command each is parsed at most once, and an
    # artifact not at all when the stage that wrote it ran in the command.
    # The corpus stage reads its dumps itself, each once, as it writes them.
    # The docstrings are the CLI's help texts.

    def run_corpus(self) -> Path:
        """Import the dumps and fetch the repos into the corpus artifact."""
        config = self.config
        dumps = {f"dump{i}": path for i, path in enumerate(config.dumps)}

        def body():
            # Each record is written as it is read, and only its key is kept.
            keys = []

            def records():
                for path in dumps.values():
                    yield from read_dump(path)
                if config.repos:
                    cache = PageCache(config.cache_dir) if config.cache_dir else None
                    fetcher = IssueFetcher(cache=cache)
                    for repo in config.repos:
                        yield from fetcher.fetch_issues(repo)

            def rows():
                for record in records():
                    keys.append(record.key)
                    yield record.to_dict()
                seen = set()
                for key in keys:  # across the parts; read_dump checked each dump
                    if key in seen:
                        raise CorpusError(f"duplicate record key {key[0]}#{key[1]}")
                    seen.add(key)

            digest = write_jsonl(self.artifact("corpus"), rows())
            return digest, keys, {"records": len(keys)}

        # No dump paths: the dump digests, by position, cover the dumps, and a
        # path as spelled would make one config named two ways two runs.
        return self._stage("corpus", {"repos": config.repos}, dumps, body)

    def run_sample(self) -> Path:
        """Draw the balanced evaluation sample from the corpus."""
        sampling = self.config.sampling
        inputs = self._files("corpus", *(["gold"] if sampling else []))

        def body():
            keys = self._read("corpus")
            keep = range(len(keys))
            if sampling is not None:
                chosen = sample_balanced(keys, self._read("gold"), sampling.n_pos, sampling.n_neg, sampling.seed)
                keep = [i for i, key in enumerate(keys) if key in chosen]
            digest = copy_lines(inputs["corpus"], self.artifact("sample"), set(keep))
            # The filter stage builds the sample's records from the file.
            return digest, None, {}

        return self._stage("sample", asdict(sampling) if sampling else None, inputs, body)

    def run_define(self) -> Path:
        """Run research definition: elicit and score a study plan."""
        if not self.config.theme_description.strip():
            raise ConfigError("define needs a theme.description in the config")
        theme = stage1.StudyTheme(
            description=self.config.theme_description,
            constraints=self.config.theme_constraints,
        )

        def body():
            plan = stage1.propose_study(theme, self._get_gateway(), self.config.model_id)
            payload = {"plan": plan.to_dict()}
            if self.config.reference_projects_file is not None:
                payload["score"] = stage1.score_plan(plan, self._read("reference_projects")).to_dict()
            return _write_json(self.artifact("define"), payload), None, {}

        key = {"theme": theme.description, "constraints": theme.constraints, "model": self.config.model_id}
        return self._stage("define", key, self._files("reference_projects"), body)

    def run_filter(self) -> Path:
        """Run fault-related issue filtering over the sample."""
        inputs = self._files("sample", "criteria", "vocabulary")

        def body():
            criteria = stage2.FilterCriteria(**self._read("criteria"), vocabulary=self._read("vocabulary"))
            decisions = stage2.run_stage2(
                self._read("sample"), criteria, self._get_gateway(), self.config.model_id,
                parallelism=self._issue_parallelism(),
            )
            digest = write_jsonl(self.artifact("filter"), (d.to_dict() for d in decisions))
            return digest, decisions, {"decisions": len(decisions), "positives": sum(1 for d in decisions if d.final)}

        return self._stage("filter", {"model": self.config.model_id}, inputs, body)

    def run_classify(self) -> Path:
        """Run taxonomy-anchored symptom/root-cause classification."""
        config = self.config
        # Gold picks the issues in gold mode, the filter's decisions otherwise.
        picks = "gold" if config.stage3_input == "gold" else "filter"
        inputs = self._files("sample", "criteria", "symptom_taxonomy", "root_cause_taxonomy", picks)

        def body():
            sample = self._read("sample")
            if picks == "gold":
                keep = {
                    k for k, g in self._read("gold").items()
                    if g.symptom_leaf is not None or g.root_cause is not None
                }
            else:
                keep = {d.key for d in self._read("filter") if d.final}
            issues = [r for r in sample if r.key in keep]
            criteria = self._read("criteria")
            labels = stage3.run_stage3(
                issues, self._read("symptom_taxonomy"), self._read("root_cause_taxonomy"),
                self._get_gateway(), config.model_id, parallelism=self._issue_parallelism(),
                comment_budget=criteria["comment_budget"], char_budget=criteria["char_budget"],
            )
            digest = write_jsonl(self.artifact("classify"), (l.to_dict() for l in labels))
            return digest, labels, {"labels": len(labels), "invalid": sum(1 for l in labels if not l.valid)}

        key = {"model": config.model_id, "stage3_input": config.stage3_input}
        return self._stage("classify", key, inputs, body)

    # --- evaluation and report ---------------------------------------------

    def build_report(self) -> EvalReport:
        """Score the decisions and labels against gold, in the evaluate
        stage's body. The run's wall time sums the stages before it as the
        manifest records them; the evaluate stage adds its own."""
        gold, decisions, labels = self._read("gold"), self._read("filter"), self._read("classify")
        symptoms, root_causes = self._read("symptom_taxonomy"), self._read("root_cause_taxonomy")
        notes: list[str] = []
        meta = RunMeta()

        scorable = [d for d in decisions if (g := gold.get(d.key)) and g.fault_related is not None]
        meta.unscored += len(decisions) - len(scorable)
        stage2_scores = score_stage2(scorable, gold) if scorable else None
        if stage2_scores is None:
            notes.append("stage2: no gold-covered decisions to score")

        symptom_labels = [l for l in labels if (g := gold.get(l.key)) and g.symptom_leaf is not None]
        rootcause_labels = [l for l in labels if (g := gold.get(l.key)) and g.root_cause is not None]
        meta.unscored += (len(labels) - len(symptom_labels)) + (len(labels) - len(rootcause_labels))
        meta.invalid_labels = sum(1 for l in labels if not l.valid)
        if not labels:
            notes.append("stage3: zero issues reached classification")
        stage3_symptom = score_stage3(symptom_labels, gold, symptoms) if symptom_labels else None
        stage3_rootcause = score_stage3(rootcause_labels, gold, root_causes) if rootcause_labels else None

        # Each stage's manifest entry holds what that stage itself used.
        for name in RUN_ORDER[:-1]:
            stage_meta = self.manifest.stage(name).get("meta", {})
            meta.wall_time_seconds += stage_meta.get("duration_seconds", 0.0)
            meta.total_tokens += stage_meta.get("tokens", 0)
            for model, tally in stage_meta.get("per_model", {}).items():
                agg = meta.per_model.setdefault(model, {"requests": 0, "input_tokens": 0, "output_tokens": 0})
                for key in agg:
                    agg[key] += tally.get(key, 0)
        meta.wall_time_seconds = round(meta.wall_time_seconds, 3)
        return EvalReport(
            stage2=stage2_scores, stage3_symptom=stage3_symptom, stage3_rootcause=stage3_rootcause, run_meta=meta,
            notes=notes,
        )

    def run_evaluate(self) -> Path:
        """Score stage outputs against gold labels and write the report."""

        def body():
            started = time.monotonic()
            report = self.build_report()
            meta = report.run_meta  # its wall time counts this stage's time up to here
            meta.wall_time_seconds = round(meta.wall_time_seconds + time.monotonic() - started, 3)
            return self.write_report(report), None, {}

        # The report also reads the upstream manifest entries, so a skip
        # means the report files are current.
        key = {"stages": {name: self.manifest.stage(name) for name in RUN_ORDER[:-1]}}
        inputs = self._files("gold", "symptom_taxonomy", "root_cause_taxonomy", "filter", "classify")
        return self._stage("evaluate", key, inputs, body)

    def write_report(self, report: EvalReport) -> dict:
        """Write the REPORT_FILES; return the sha256 of each as written, by
        its path in the run directory."""
        (self.out / "tables").mkdir(exist_ok=True)
        data = [_summary(report)]
        for scores in (report.stage2, report.stage3_symptom, report.stage3_rootcause):
            text = io.StringIO()
            if scores is not None:
                matrix = scores.confusion
                writer = csv.writer(text)
                writer.writerow(["gold \\ predicted"] + matrix.classes)
                for cls, row in zip(matrix.classes, matrix.counts):
                    writer.writerow([cls] + row)
            data.append(text.getvalue().encode("utf-8"))
        written = {rel: _write_bytes(self.out / rel, payload) for rel, payload in zip(REPORT_FILES[1:], data)}
        return {"report.json": _write_json(self.artifact("evaluate"), report.to_dict()), **written}

    # --- whole pipeline -----------------------------------------------------

    def run_pipeline(self) -> dict:
        """Run every stage of RUN_ORDER; return report.json as JSON data."""
        self.config.validate()
        with self.locked():
            try:
                for current in RUN_ORDER:
                    getattr(self, f"run_{current}")()
            except FaultloomError as exc:
                last = _last_artifact(self.out)
                raise StageError(f"stage {current!r} failed ({exc}); last artifact: {last}") from exc
        return json.loads(self.artifact("evaluate").read_text(encoding="utf-8"))


def _write_bytes(path: Path, data: bytes) -> str:
    """Write `data` to `path`; return its sha256."""
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _write_json(path: Path, payload) -> str:
    """Write `payload` as indented JSON; return the sha256 of the bytes written."""
    return _write_bytes(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def _summary(report: EvalReport) -> bytes:
    """summary.md of `report`."""
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
            lines += [f"## {title}", f"- leaf accuracy: {scores.accuracy:.4f} ({scores.correct}/{scores.total})"]
            levels = scores.per_level_accuracy
            lines += [f"- level-{n} accuracy: {levels[n]:.4f}" for n in sorted(levels)]
            lines += [f"- invalid labels: {scores.invalid}", ""]
    meta = report.run_meta
    lines += [
        "## Run",
        f"- wall time (s): {meta.wall_time_seconds}",
        f"- total tokens: {meta.total_tokens}",
        f"- unscored items: {meta.unscored}",
    ]
    lines += [f"- note: {note}" for note in report.notes]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _last_artifact(out: Path) -> str:
    existing = [out / name for name in ARTIFACTS.values() if (out / name).exists()]
    if not existing:
        return "(none)"
    return str(max(existing, key=lambda p: p.stat().st_mtime))
