"""End-to-end orchestration: stage sequencing, artifact persistence,
content-hash resumability, and report emission.

Each stage writes its files into the run directory before the next stage
starts, every one through `write_atomic`, so a failed or killed write leaves
the file as it was. Each stage declares the files it reads, config files and
upstream artifacts alike, and records in the manifest its input hash (its
config key + the sha256 of each declared file) and, as its output, the sha256
of each file it wrote by its path in the run directory. On rerun it is
skipped when the input hash is unchanged and each of those files still has
its sha256, so a finished run directory is stable and fully determines its
report: a no-op rerun reads report.json back. The evaluate stage alone writes
the report files, so a missing or edited one is written again.

The manifest also keeps, for each file a command hashed or a stage wrote, its
stat fingerprint (device, inode, size, mtime, ctime) and its sha256. A later
command reuses that sha256 without reading the file while the fingerprint is
unchanged and the file's ctime is older than the manifest's mtime (git's
"racy git" rule); any other file is hashed. A stale fingerprint is refreshed
when a stage next writes the manifest.

A stage body reads its declared inputs through the `read` it is called with.
A command (a `Runner.locked()` block) hashes and parses each file its stages
read at most once. Its "files" entries hold the sha256 of each file it hashed,
and each file a stage wrote with the sha256 it was written with, so no
artifact is read back to hash it. Its table holds what it parsed of each
input, and what a later stage reads of an artifact where the stage that wrote
it holds that: the corpus stage its ordered key list, the sample stage the
records it drew. Inside a larger command the corpus stage decodes these and
keeps the records the sample can draw (all without sampling, else those gold
labels fault_related), so no stage holds the whole corpus's records while
sampling is on; the filter stage builds the sample's records from
`sample.jsonl` only when the corpus stage did not run in the command. A stage
called outside a command is a command of its own. Nothing of either outlives
the command, nor does the transcript's append handle, which its stages share.
"""

from __future__ import annotations

import contextlib
import csv
import fcntl
import functools
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
    jsonl_line,
    load_gold,
    read_dump,
    read_lines,
    sample_balanced,
    sha256_json,
    write_atomic,
    write_jsonl,
)
from .errors import ConfigError, CorpusError, FaultloomError, StageError
from .evaluation import LABEL_FIELD, EvalReport, RunMeta, score_stage2, score_stage3
from .gateway import Gateway, Provider, Transcript, provider_for_model
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
    by its absolute path, as `load_config` makes each config path: one file
    named two ways is one entry."""

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
        """Write `data` as the manifest, then hold it as `self.data`: a
        failed or killed write changes neither."""
        write_atomic(self.path, [_json(data)])
        self.data = data
        self._trust()

    def stage(self, name: str) -> dict:
        return self.data["stages"].get(name, {})

    def set_stage(self, name: str, input_hash: str, output: dict, meta: dict, files: dict) -> None:
        """Record the stage entry, and `files` (path -> entry) over the trusted ones."""
        entry = {"input_hash": input_hash, "output": output, "meta": meta}
        self.save({**self.data, "stages": {**self.data["stages"], name: entry}, "files": {**self.files, **files}})


# The stages `run_pipeline` runs, in order. The report's run figures come
# from the manifest entries of all but the last.
RUN_ORDER = ("corpus", "sample", "filter", "classify", "evaluate")

# The files the evaluate stage writes, by path in the run directory.
REPORT_FILES = ("report.json", "summary.md",
                *(f"tables/{t}_confusion.csv" for t in ("stage2", "stage3_symptom", "stage3_rootcause")))


# The parser of each input a stage body reads through `read`, by name. Each
# looks its loader up as a global at call time, so that a loader patched on
# this module is the one called. The corpus reads as its keys, in file order.
_PARSERS = {
    "corpus": lambda path: [record.key for record, _ in read_dump(path)],
    "sample": lambda path: import_dump(path),
    "filter": lambda path: [d for _, d, _ in read_lines(path, stage2.FilterDecision)],
    "classify": lambda path: [l for _, l, _ in read_lines(path, stage3.FaultLabel)],
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
    provider: Provider | None = None  # injected fake for tests; else resolved by model id
    gateway: Gateway | None = field(default=None, init=False)
    manifest: Manifest = field(init=False)

    def __post_init__(self) -> None:
        self.out = Path(self.config.out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.manifest = Manifest(self.out / "manifest.json")
        # The table of the running command: input name -> parsed object;
        # None outside `locked()`.
        self._table: dict[str, object] | None = None
        # The "files" entries of the running command: path -> entry.
        self._taken: dict[str, dict] = {}
        self._drawable: dict | None = None  # key -> record the corpus stage kept for the sample stage
        self._snapshotted = False

    # --- shared plumbing ---------------------------------------------------

    def artifact(self, stage: str) -> Path:
        return self.out / ARTIFACTS[stage]

    def _files(self, *names: str) -> dict:
        """Input name -> file: a stage's artifact, else the configured `<name>_file`."""
        return {n: self.artifact(n) if n in ARTIFACTS else getattr(self.config, f"{n}_file") for n in names}

    def _sha256(self, path: Path) -> str:
        """sha256 of the file at `path`, kept with its fingerprint as the
        command's "files" entry for it once the command hashed or wrote it.
        The file is read only when neither that entry nor a trusted manifest
        entry with its current fingerprint holds it."""
        key = str(path)
        if (entry := self._taken.get(key)) is None:
            st = os.stat(path)  # before the read, so a later write changes st_ctime_ns
            entry = self._taken[key] = _fingerprint(st, self.manifest.known(key, st) or _hash_file(path))
        return entry["sha256"]

    def _written(self, output) -> bool:
        """Whether `output`, a stage's manifest entry's, maps the files the
        stage wrote, by path in the run directory, to the sha256 each still has."""
        try:
            return isinstance(output, dict) and all(
                self._sha256(self.out / rel) == digest for rel, digest in output.items())
        except FileNotFoundError:
            return False

    def _read(self, inputs: dict, name: str):
        """The input `name` of `inputs`, a stage's declared inputs (name ->
        path), parsed at most once per command; a name not among them is a
        KeyError. An unconfigured criteria file reads as no settings; a file
        that does not parse (bad YAML, not UTF-8, a bad value) is a
        ConfigError naming it."""
        if name not in inputs:
            raise KeyError(f"{name!r} is not an input the running stage declared")
        if name not in self._table:
            path = inputs[name]
            if path is None and name != "criteria":
                raise ConfigError(f"no {name} file configured")
            try:
                self._table[name] = _PARSERS[name](path)
            except (yaml.YAMLError, ValueError) as exc:
                raise ConfigError(f"{path}: {exc}") from exc
        return self._table[name]

    def _get_gateway(self) -> Gateway:
        """The Runner's Gateway, made on first use. The mode decides what it
        holds: the transcript but in live mode, and a provider but in replay,
        the injected one or else the one `config.model_id` names, which needs
        its key: a GatewayError before any call."""
        if self.gateway is None:
            config = self.config
            provider = None if config.mode == "replay" else self.provider or provider_for_model(config.model_id)
            transcript = None if config.mode == "live" else Transcript(config.transcript_path)
            self.gateway = Gateway(config.mode, transcript, provider, config.parallelism)
        return self.gateway

    @contextlib.contextmanager
    def locked(self):
        """Hold an exclusive `flock` on `run.lock` in the run directory while
        the block, a command, runs, so that no two commands write the run
        directory at once, and close the transcript's append handle when it
        ends. The kernel frees the lock when its holder exits, killed or not;
        the file stays, and what it holds means nothing."""
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
                self._table, self._taken, self._drawable = None, {}, None
                if self.gateway is not None and self.gateway.transcript is not None:
                    self.gateway.transcript.close()

    def snapshot_config(self) -> None:
        """Write `config_snapshot.yaml`, the whole resolved config with each
        path as text, once per Runner."""
        if self._snapshotted:
            return
        self._snapshotted = True
        payload = json.loads(json.dumps(asdict(self.config), default=str))
        write_atomic(self.out / "config_snapshot.yaml", [yaml.safe_dump(payload, sort_keys=True).encode("utf-8")])

    def _stage(self, name: str, key, inputs: dict, body) -> Path:
        """Run one stage and return its artifact path.

        `inputs` names every file the body reads (name -> path, None when not
        configured); the stage's input hash covers `key` and the sha256 of
        each, and a missing one is an error naming it. When the manifest
        records that hash and each file the stage wrote still has the sha256
        its recorded output maps it to, the stage is skipped. Otherwise
        `body(read)` runs, where `read(name)` is `_read` bound to `inputs`:
        the body reads its inputs only through it, but for the corpus stage,
        which streams its dumps a record at a time. It writes its files and
        returns their output, the sha256 of each by its path in the run
        directory; what a later stage reads of its artifact (None to parse
        the file); and any extra manifest meta. Each file's fingerprint goes
        into the command's "files" entries and the object into its table,
        and the manifest records the hash, the output, the time from the call
        on and the model calls of the stage. Outside a command, the stage is
        a command of its own."""
        started, path = time.monotonic(), self.artifact(name)
        with self.locked() if self._table is None else contextlib.nullcontext():
            digests = {}
            for input_name, input_path in inputs.items():
                try:
                    digests[input_name] = None if input_path is None else self._sha256(input_path)
                except FileNotFoundError:
                    if input_name in ARTIFACTS:
                        raise StageError(f"missing upstream artifact {input_path} (needed by {name}); "
                                         "run the producing stage first") from None
                    raise ConfigError(f"referenced file does not exist: {input_path}") from None
            input_hash = sha256_json({"key": key, "inputs": digests})
            recorded = self.manifest.stage(name)
            if recorded.get("input_hash") == input_hash and self._written(recorded.get("output")):
                logger.info("%s: unchanged, skipping", name)
                return path
            self._table.pop(name, None)  # what was parsed of the artifact the body rewrites
            self.snapshot_config()
            if self.gateway is not None:
                self.gateway.usage.clear()
            output, parsed, extra = body(functools.partial(self._read, inputs))
            for rel, digest in output.items():
                self._taken[str(self.out / rel)] = _fingerprint(os.stat(self.out / rel), digest)
            if parsed is not None:
                self._table[name] = parsed
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
    # from the body's `read`, so within one command each is parsed at most once, and an
    # artifact not at all when the stage that wrote it ran in the command.
    # The corpus stage reads its dumps itself, each once, as it writes them.
    # The docstrings are the CLI's help texts.

    def run_corpus(self) -> Path:
        """Import the dumps and fetch the repos into the corpus artifact."""
        config = self.config
        dumps = {f"dump{i}": path for i, path in enumerate(config.dumps)}
        keep = self._table is not None  # inside a larger command; not as `faultloom import`

        def body(_):
            # Each record is written as it is read, and its key kept, and the
            # record if `keep` and the sample can draw it (gold that does not
            # read keeps none; the sample stage reports it). A dump line that
            # reads back as the record it decodes to is written as its own
            # bytes (`read_lines`), any other line and each fetched record in
            # sorted-key form: corpus.jsonl is canonical in content, and in
            # bytes where the dumps are.
            keys, kept, labelled = [], {} if keep else None, None
            if keep and config.sampling is not None:
                try:
                    gold = self._read(self._files("gold"), "gold")
                except (FaultloomError, OSError):
                    gold, kept = {}, None
                labelled = {key for key, label in gold.items() if label.fault_related is not None}

            def records():
                for path in dumps.values():
                    yield from read_dump(path, lines=True)
                if config.repos:
                    cache = PageCache(config.cache_dir) if config.cache_dir else None
                    fetcher = IssueFetcher(cache=cache)
                    for repo in config.repos:
                        for record in fetcher.fetch_issues(repo):
                            yield record, jsonl_line(record.to_dict())

            def lines():
                for record, line in records():
                    keys.append(record.key)
                    if kept is not None and (labelled is None or record.key in labelled):
                        kept[record.key] = record
                    yield line
                seen = set()
                for key in keys:  # across the parts; read_dump checked each dump
                    if key in seen:
                        raise CorpusError(f"duplicate record key {key[0]}#{key[1]}")
                    seen.add(key)

            digest = write_atomic(self.artifact("corpus"), lines())
            self._drawable = kept
            return {ARTIFACTS["corpus"]: digest}, keys, {"records": len(keys)}

        # No dump paths: the dump digests, by position, cover the dumps, and a
        # path as spelled would make one config named two ways two runs.
        return self._stage("corpus", {"repos": config.repos}, dumps, body)

    def run_sample(self) -> Path:
        """Draw the balanced evaluation sample from the corpus."""
        sampling = self.config.sampling
        inputs = self._files("corpus", *(["gold"] if sampling else []))
        drawable, self._drawable = self._drawable, None  # held no longer than this stage

        def body(read):
            keys = read("corpus")
            keep = range(len(keys))
            if sampling is not None:
                chosen = sample_balanced(keys, read("gold"), sampling.n_pos, sampling.n_neg, sampling.seed)
                keep = [i for i, key in enumerate(keys) if key in chosen]
            # Without the corpus stage's records the filter stage reads the file.
            drawn = None if drawable is None else [drawable[keys[i]] for i in keep]
            return {ARTIFACTS["sample"]: copy_lines(inputs["corpus"], self.artifact("sample"), set(keep))}, drawn, {}

        return self._stage("sample", asdict(sampling) if sampling else None, inputs, body)

    def run_define(self) -> Path:
        """Run research definition: elicit and score a study plan."""
        if (theme := self.config.theme) is None:
            raise ConfigError("define needs a theme.description in the config")

        def body(read):
            plan = stage1.propose_study(theme, self._get_gateway(), self.config.model_id)
            payload = {"plan": plan.to_dict()}
            if self.config.reference_projects_file is not None:
                payload["score"] = stage1.score_plan(plan, read("reference_projects")).to_dict()
            return {ARTIFACTS["define"]: write_atomic(self.artifact("define"), [_json(payload)])}, None, {}

        key = {"theme": theme.description, "constraints": theme.constraints, "model": self.config.model_id}
        return self._stage("define", key, self._files("reference_projects"), body)

    def run_filter(self) -> Path:
        """Run fault-related issue filtering over the sample."""
        inputs = self._files("sample", "criteria", "vocabulary")

        def body(read):
            criteria = stage2.FilterCriteria(**read("criteria"), vocabulary=read("vocabulary"))
            decisions = stage2.run_stage2(read("sample"), criteria, self._get_gateway(), self.config.model_id)
            digest = write_jsonl(self.artifact("filter"), (d.to_dict() for d in decisions))
            meta = {"decisions": len(decisions), "positives": sum(1 for d in decisions if d.final)}
            return {ARTIFACTS["filter"]: digest}, decisions, meta

        return self._stage("filter", {"model": self.config.model_id}, inputs, body)

    def run_classify(self) -> Path:
        """Run taxonomy-anchored symptom/root-cause classification."""
        config = self.config
        # Gold picks the issues in gold mode, the filter's decisions otherwise.
        picks = "gold" if config.stage3_input == "gold" else "filter"
        inputs = self._files("sample", "criteria", "symptom_taxonomy", "root_cause_taxonomy", picks)

        def body(read):
            sample = read("sample")
            if picks == "gold":
                keep = {k for k, g in read("gold").items() if g.symptom_leaf is not None or g.root_cause is not None}
            else:
                keep = {d.key for d in read("filter") if d.final}
            issues = [r for r in sample if r.key in keep]
            criteria = read("criteria")
            labels = stage3.run_stage3(
                issues, read("symptom_taxonomy"), read("root_cause_taxonomy"),
                self._get_gateway(), config.model_id,
                comment_budget=criteria["comment_budget"], char_budget=criteria["char_budget"],
            )
            digest = write_jsonl(self.artifact("classify"), (l.to_dict() for l in labels))
            meta = {"labels": len(labels), "invalid": sum(1 for l in labels if not l.valid)}
            return {ARTIFACTS["classify"]: digest}, labels, meta

        key = {"model": config.model_id, "stage3_input": config.stage3_input}
        return self._stage("classify", key, inputs, body)

    # --- evaluation and report ---------------------------------------------

    def build_report(self, read) -> EvalReport:
        """Score the decisions and labels against gold, in the evaluate
        stage's body, whose `read` it takes. The run's wall time sums the
        stages before it as the manifest records them; the evaluate stage
        adds its own."""
        gold, decisions, labels = read("gold"), read("filter"), read("classify")
        symptoms, root_causes = read("symptom_taxonomy"), read("root_cause_taxonomy")
        notes: list[str] = []
        meta = RunMeta()

        scorable = [d for d in decisions if (g := gold.get(d.key)) and g.fault_related is not None]
        meta.unscored += len(decisions) - len(scorable)
        stage2_scores = score_stage2(scorable, gold) if scorable else None
        if stage2_scores is None:
            notes.append("stage2: no gold-covered decisions to score")

        meta.invalid_labels = sum(1 for l in labels if not l.valid)
        if not labels:
            notes.append("stage3: zero issues reached classification")
        stage3_scores = []
        for taxonomy in (symptoms, root_causes):
            field_name = LABEL_FIELD[taxonomy.kind]
            scorable_labels = [l for l in labels if getattr(gold.get(l.key), field_name, None) is not None]
            meta.unscored += len(labels) - len(scorable_labels)
            stage3_scores.append(score_stage3(scorable_labels, gold, taxonomy) if scorable_labels else None)
        stage3_symptom, stage3_rootcause = stage3_scores

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
        return EvalReport(stage2=stage2_scores, stage3_symptom=stage3_symptom, stage3_rootcause=stage3_rootcause,
                          run_meta=meta, notes=notes)

    def run_evaluate(self) -> Path:
        """Score stage outputs against gold labels and write the report."""

        def body(read):
            started = time.monotonic()
            report = self.build_report(read)
            meta = report.run_meta  # its wall time counts this stage's time up to here
            meta.wall_time_seconds = round(meta.wall_time_seconds + time.monotonic() - started, 3)
            (self.out / "tables").mkdir(exist_ok=True)
            tables = (report.stage2, report.stage3_symptom, report.stage3_rootcause)
            data = [_json(report.to_dict()), _summary(report), *map(_confusion_csv, tables)]
            return {rel: write_atomic(self.out / rel, [d]) for rel, d in zip(REPORT_FILES, data)}, None, {}

        # The report also reads the upstream manifest entries, so a skip
        # means the report files are current.
        key = {"stages": {name: self.manifest.stage(name) for name in RUN_ORDER[:-1]}}
        inputs = self._files("gold", "symptom_taxonomy", "root_cause_taxonomy", "filter", "classify")
        return self._stage("evaluate", key, inputs, body)

    # --- whole pipeline -----------------------------------------------------

    def run_pipeline(self) -> dict:
        """Run every stage of RUN_ORDER; return report.json as JSON data."""
        with self.locked():
            try:
                for current in RUN_ORDER:
                    getattr(self, f"run_{current}")()
            except FaultloomError as exc:
                raise StageError(f"stage {current!r} failed ({exc})") from exc
        return json.loads(self.artifact("evaluate").read_text(encoding="utf-8"))


def _json(payload) -> bytes:
    """`payload` as indented, sorted-key JSON text."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _confusion_csv(scores) -> bytes:
    """The confusion matrix of `scores` as CSV; empty without scores."""
    text = io.StringIO()
    if scores is not None:
        writer = csv.writer(text)
        writer.writerow(["gold \\ predicted"] + scores.confusion.classes)
        for cls, row in zip(scores.confusion.classes, scores.confusion.counts):
            writer.writerow([cls] + row)
    return text.getvalue().encode("utf-8")


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

