import contextlib
import json
import logging
import os
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from faultloom import config as config_module
from faultloom import ingest, pipeline, taxonomy
from faultloom.cli import main
from faultloom.config import load_config, load_criteria, load_yaml, packaged_data_path
from faultloom.corpus import IssueRecord, export_dump, import_dump, load_gold, sample_balanced
from faultloom.errors import ConfigError, CorpusError, StageError
from faultloom.evaluation import EvalReport
from faultloom.pipeline import ARTIFACTS, REPORT_FILES, RUN_ORDER, Manifest, Runner

from fakes import CountingProvider, OracleProvider, ScriptedProvider, make_response
from gen import make_issue

GOLDEN = Path(__file__).parent / "fixtures" / "golden"


def _config(tmp_path, **overrides):
    overrides.setdefault("out", str(tmp_path / "run"))
    return load_config(GOLDEN / "config.yaml", overrides=overrides)


def _snapshot(out: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def _files(out: Path) -> dict[str, tuple[bytes, int]]:
    """The bytes and st_mtime_ns of each file under `out`."""
    return {str(p): (p.read_bytes(), p.stat().st_mtime_ns) for p in out.rglob("*") if p.is_file()}


def test_run_pipeline_writes_all_artifacts(tmp_path):
    runner = Runner(_config(tmp_path))
    runner.run_pipeline()
    out = Path(runner.out)
    for name in ARTIFACTS.values():
        if name != ARTIFACTS["define"]:
            assert (out / name).exists(), name
    assert (out / "summary.md").exists()
    assert (out / "config_snapshot.yaml").exists()
    assert (out / "tables" / "stage2_confusion.csv").exists()
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    for name in RUN_ORDER:
        assert "duration_seconds" in stages[name]["meta"], name


def test_second_run_skips_and_is_byte_identical(tmp_path):
    config = _config(tmp_path)
    guard = CountingProvider(ScriptedProvider([]))

    runner1 = Runner(config, provider=guard)
    runner1.run_pipeline()
    first = _snapshot(Path(runner1.out))

    runner2 = Runner(_config(tmp_path), provider=guard)
    runner2.run_pipeline()
    second = _snapshot(Path(runner2.out))

    assert guard.calls == 0  # replay mode: zero provider traffic
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} changed between runs"


def test_changed_seed_invalidates_downstream(tmp_path):
    runner = Runner(_config(tmp_path))
    runner.run_pipeline()
    sample_before = (Path(runner.out) / "sample.jsonl").read_bytes()

    changed = load_config(
        GOLDEN / "config.yaml",
        overrides={"out": str(tmp_path / "run"), "seed": 8},
    )
    runner2 = Runner(changed)
    runner2.run_corpus()
    runner2.run_sample()
    assert (Path(runner2.out) / "sample.jsonl").read_bytes() != sample_before


def test_filter_before_sample_reports_missing_artifact(tmp_path):
    runner = Runner(_config(tmp_path))
    with pytest.raises(StageError, match="missing upstream artifact .*sample.jsonl") as exc:
        runner.run_filter()
    assert "sample.jsonl" in str(exc.value)


def test_replay_config_requires_existing_transcript(tmp_path):
    with pytest.raises(ConfigError, match="transcript"):
        load_config(
            GOLDEN / "config.yaml",
            overrides={"out": str(tmp_path), "transcript": "no-such.jsonl"},
        )


def test_unknown_stage3_input_is_named_in_the_error(tmp_path):
    with pytest.raises(ConfigError, match="stage3_input must be 'filtered' or 'gold', not 'everything'"):
        _config(tmp_path, stage3_input="everything")


def test_live_mode_requires_credentials(tmp_path, monkeypatch):
    monkeypatch.delenv("FAULTLOOM_API_KEY_OPENAI", raising=False)
    with pytest.raises(ConfigError) as exc:
        _config(tmp_path, mode="live")
    assert "FAULTLOOM_API_KEY_OPENAI" in str(exc.value)


def test_define_writes_plan_with_expected_project(tmp_path):
    runner = Runner(_config(tmp_path))
    path = runner.run_define()
    payload = json.loads(path.read_text())
    names = [p["name"] for p in payload["plan"]["projects"]]
    assert "TensorFlow.js" in names
    assert payload["score"]["recall"] == pytest.approx(1 / 3)


def test_stage3_gold_wiring_classifies_all_annotated(tmp_path):
    # with a perfect filter the gold wiring selects the same sampled positives,
    # so the recorded transcript still covers every prompt
    config = _config(tmp_path, stage3_input="gold")
    runner = Runner(config)
    runner.run_corpus()
    runner.run_sample()
    runner.run_filter()
    runner.run_classify()
    labels = [
        json.loads(line)
        for line in (Path(runner.out) / "labels.jsonl").read_text().splitlines()
    ]
    assert len(labels) == 4  # the four gold-annotated issues in the sample
    assert all(l["valid"] for l in labels)


def test_cli_run_and_report(tmp_path):
    out = tmp_path / "run"
    cli = CliRunner()
    result = cli.invoke(
        main,
        ["run", "--config", str(GOLDEN / "config.yaml"), "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert "stage2 accuracy: 1.0000" in result.output


def test_cli_record_mode_without_a_transcript_is_a_config_error(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(f"dumps: [{GOLDEN / 'corpus.jsonl'}]\nvocabulary: {GOLDEN / 'vocab.txt'}\nmode: record\nout: run\n")
    result = CliRunner().invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "error: mode=record requires a transcript path" in result.stderr
    assert not (tmp_path / "run").exists()


def test_cli_define_without_a_theme_is_a_config_error(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(f"dumps: [{GOLDEN / 'corpus.jsonl'}]\ntranscript: {GOLDEN / 'transcript.jsonl'}\nout: run\n")
    result = CliRunner().invoke(main, ["define", "--config", str(config)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "error: define needs a theme.description in the config" in result.stderr


@pytest.mark.parametrize(
    "name, old, new",
    [  # `old` None: `new` is the whole file
        ("config.yaml", None, "- dumps\n- out\n"),
        ("config.yaml", "parallelism: 2", "parallelism: many"),
        ("criteria.yaml", None, "- exclusion_labels\n"),
        ("criteria.yaml", "cutoff_date: 2020-01-01", "cutoff_date: yesterday"),
        ("criteria.yaml", "require_answered: true", "require_answered: true\ncomment_budget: lots"),
        ("config.yaml", "parallelism: 2", "parallelism: [2"),
        ("config.yaml", "  description: JavaScript-based DL system faults\n", ""),
        ("criteria.yaml", "require_answered: true", "require_answered: [true"),
        ("symptom_taxonomy.yaml", "kind: symptom", "kind: [symptom"),
        ("vocab.txt", "WebGL", "WebGL\udcff"),  # the byte 0xff: not UTF-8
        ("vocab.txt", None, "# no terms, only comments\n"),
        ("reference_projects.txt", "TensorFlow.js", "TensorFlow.js\udcff"),
        ("criteria.yaml", "require_answered: true", 'require_answered: "false"'),
        ("criteria.yaml", "require_answered: true", "require_answered: true\ncomment_budget: true"),
        ("criteria.yaml", "require_answered: true", "require_answered: true\ncomment_budget: -1"),
        ("criteria.yaml", "require_answered: true", "require_answered: true\nchar_budget: 12.9"),
        ("config.yaml", "parallelism: 2", "parallelism: true"),
        ("config.yaml", "n_pos: 4", "n_pos: 2.5"),
    ],
)
def test_cli_malformed_config_or_criteria_file_is_an_error_naming_it(tmp_path, name, old, new):
    inputs = tmp_path / "inputs"
    shutil.copytree(GOLDEN, inputs)
    if name == "symptom_taxonomy.yaml":  # the golden config reads the packaged one
        shutil.copy(packaged_data_path(name), inputs / name)
        with open(inputs / "config.yaml", "a") as fh:
            fh.write(f"symptom_taxonomy: {name}\n")
    text = (inputs / name).read_text()
    assert old is None or old in text
    (inputs / name).write_bytes((new if old is None else text.replace(old, new)).encode("utf-8", "surrogateescape"))
    command = "define" if name == "reference_projects.txt" else "run"  # only define reads it
    result = CliRunner().invoke(main, [command, "--config", str(inputs / "config.yaml"), "--out", str(tmp_path / "run")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ")
    assert str(inputs / name) in result.stderr


@pytest.mark.parametrize(
    "name, line, message",
    [
        ("criteria.yaml", 'require_answered: "false"', "require_answered must be true or false, not 'false'"),
        ("criteria.yaml", "comment_budget: true", "comment_budget must be an integer >= 0, not True"),
        ("criteria.yaml", "comment_budget: -1", "comment_budget must be an integer >= 0, not -1"),
        ("criteria.yaml", "char_budget: 12.9", "char_budget must be an integer >= 0, not 12.9"),
        ("config.yaml", "parallelism: true", "parallelism must be an integer >= 1, not True"),
        ("config.yaml", "sampling: {n_pos: 2.5, n_neg: 4}", "sampling.n_pos must be an integer >= 0, not 2.5"),
        ("config.yaml", "sampling: {n_pos: 4, n_neg: 4, seed: false}", "sampling.seed must be an integer, not False"),
    ],
)
def test_a_boolean_fraction_or_negative_setting_is_an_error_naming_the_file_and_key(tmp_path, name, line, message):
    path = tmp_path / name
    if name == "criteria.yaml":
        path.write_text(line + "\n")
    else:
        (tmp_path / "corpus.jsonl").touch()
        path.write_text(f"dumps: [corpus.jsonl]\nmode: record\ntranscript: t.jsonl\n{line}\n")
    with pytest.raises(ConfigError) as exc:
        (load_criteria if name == "criteria.yaml" else load_config)(path)
    assert str(exc.value) == f"{path}: {message}"


def test_cli_filter_before_sample_errors(tmp_path):
    cli = CliRunner()
    result = cli.invoke(
        main,
        ["filter", "--config", str(GOLDEN / "config.yaml"), "--out", str(tmp_path / "r")],
    )
    assert result.exit_code == 1
    assert "sample.jsonl" in result.stderr


@contextlib.contextmanager
def _lock_holder(out: Path):
    """A child process that holds `flock` on `out/run.lock` while the block
    runs, or until it is killed."""
    holder = "import fcntl, sys; fh = open(sys.argv[1], 'a'); fcntl.flock(fh, fcntl.LOCK_EX); print(); sys.stdin.read()"
    out.mkdir(parents=True, exist_ok=True)
    with subprocess.Popen(
        [sys.executable, "-u", "-c", holder, str(out / "run.lock")], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    ) as child:
        try:
            assert child.stdout.readline() == b"\n"  # the lock is held
            yield child
        finally:
            child.kill()
            child.wait(timeout=60)


def test_lock_file_prevents_concurrent_runs(tmp_path):
    config = _config(tmp_path)
    with _lock_holder(Path(config.out_dir)), pytest.raises(StageError, match="locked"):
        Runner(config).run_pipeline()


@pytest.mark.parametrize("owner, broken", [("gone", True), ("alive", False), ("elsewhere", False)])
def test_lock_of_a_gone_command_on_this_host_is_broken(tmp_path, owner, broken):
    """`gone`: the child that held the lock was killed with SIGKILL; `alive`:
    a child process holds it; `elsewhere`: another Runner of this process
    holds it (`flock` is per open file, not per process)."""
    runner = Runner(_config(tmp_path))
    lock = runner.out / "run.lock"
    with contextlib.ExitStack() as stack:
        if owner == "elsewhere":
            stack.enter_context(Runner(_config(tmp_path)).locked())
        else:
            holder = stack.enter_context(_lock_holder(runner.out))
            if owner == "gone":
                holder.kill()  # the holder gets no chance to let go itself
                holder.wait(timeout=60)
        if not broken:
            with pytest.raises(StageError, match="locked"), runner.locked():
                pass
            assert lock.read_text() == ""  # the lock names no owner
            return
        with runner.locked():
            pass
        # A file naming a live owner, as an older version wrote it, is not read.
        lock.write_text(json.dumps({"pid": os.getpid(), "host": os.uname().nodename, "started": "2021-06-01T00:00:00Z"}))
        with runner.locked():
            pass
    with runner.locked():  # one command after another takes the lock again
        pass
    assert lock.exists()


@pytest.mark.parametrize(
    "command, ran",
    [("import", ()), ("filter", ("corpus", "sample")), ("run", ())],
)
def test_cli_command_refuses_a_locked_run_directory(tmp_path, command, ran):
    runner = Runner(_config(tmp_path))
    for stage in ran:
        getattr(runner, f"run_{stage}")()
    out = Path(runner.out)
    with _lock_holder(out):
        existing = _files(out)
        result = CliRunner().invoke(main, [command, "--config", str(GOLDEN / "config.yaml"), "--out", str(out)])
        assert result.exit_code == 1
        assert "locked" in result.stderr
        assert _files(out) == existing


def test_empty_stage3_branch_notes_zero_count(tmp_path):
    runner = Runner(_config(tmp_path))
    runner.run_corpus()
    runner.run_sample()
    runner.run_filter()
    # overwrite decisions so nothing is fault-related
    decisions_path = Path(runner.out) / "decisions.jsonl"
    decisions = [json.loads(l) for l in decisions_path.read_text().splitlines()]
    for d in decisions:
        d["final"] = False
        d["llm_verdict"] = False
    decisions_path.write_text("\n".join(json.dumps(d) for d in decisions) + "\n")
    runner.run_classify()
    runner.run_evaluate()
    report = json.loads(runner.artifact("evaluate").read_text())
    assert report["stage3_symptom"] is None
    assert any("zero issues" in note for note in report["notes"])


def test_seed_override_replaces_sampling_seed_and_yaml_seed_only_fills(tmp_path):
    assert _config(tmp_path).sampling.seed == 7
    assert _config(tmp_path, seed=8).sampling.seed == 8
    config = tmp_path / "config.yaml"
    config.write_text(
        "dumps: [corpus.jsonl]\nmode: record\ntranscript: t.jsonl\nseed: 3\nsampling: {n_pos: 1, n_neg: 1, seed: 5}\n"
    )
    (tmp_path / "corpus.jsonl").touch()
    assert load_config(config).sampling.seed == 5
    config.write_text("dumps: [corpus.jsonl]\nmode: record\ntranscript: t.jsonl\nseed: 3\nsampling: {n_pos: 1, n_neg: 1}\n")
    assert load_config(config).sampling.seed == 3


def test_cli_seed_option_changes_the_sample(tmp_path):
    out = tmp_path / "run"
    cli = CliRunner()
    args = ["--config", str(GOLDEN / "config.yaml"), "--out", str(out)]
    assert cli.invoke(main, ["import", *args]).exit_code == 0
    result = cli.invoke(main, ["sample", *args])
    assert result.exit_code == 0, result.output
    default_sample = (out / "sample.jsonl").read_bytes()
    result = cli.invoke(main, ["sample", *args, "--seed", "8"])
    assert result.exit_code == 0, result.output
    assert (out / "sample.jsonl").read_bytes() != default_sample


_YAML_FILES = sorted([
    *(Path(config_module.__file__).parent / "data").rglob("*.yaml"),
    *(Path(__file__).parent / "fixtures").rglob("*.yaml"),
])


@pytest.mark.parametrize("path", _YAML_FILES, ids=lambda path: path.name)
def test_load_yaml_reads_each_file_as_the_pure_python_loader_does(path):
    assert load_yaml(path) == yaml.load(path.read_text(encoding="utf-8"), Loader=yaml.SafeLoader)


def _count_calls(monkeypatch) -> Counter:
    """Count calls to the loaders and scorers `faultloom.pipeline` looks up,
    to Runner.build_report, to Manifest.set_stage, to `load_yaml` where the
    config, criteria and taxonomy readers look it up, and to yaml.safe_dump."""
    counts: Counter = Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("read_dump", "import_dump", "load_gold", "load_taxonomy", "score_stage2", "score_stage3"):
        counted(pipeline, name)
    counted(Runner, "build_report")
    counted(Manifest, "set_stage")
    for module in (config_module, taxonomy):
        counted(module, "load_yaml")
    counted(yaml, "safe_dump")
    return counts


def test_cold_run_parses_each_input_once_and_noop_rerun_only_reads_report(tmp_path, monkeypatch):
    counts = _count_calls(monkeypatch)
    config = _config(tmp_path)
    Runner(config).run_pipeline()
    assert counts["read_dump"] == len(config.dumps)  # the corpus stage's; the sample stage takes its keys
    assert counts["import_dump"] == 1  # sample.jsonl, by the filter stage
    assert counts["load_gold"] == 1
    assert counts["load_taxonomy"] == 2
    assert counts["load_yaml"] == 4  # the config, the criteria and both taxonomies
    assert counts["build_report"] == 1

    rerun = Runner(_config(tmp_path))
    counts.clear()
    report = rerun.run_pipeline()
    assert not counts  # no parse (YAML included), load, score, report build or manifest write
    assert report == json.loads((Path(config.out_dir) / "report.json").read_text())


def test_noop_rerun_prints_the_report_without_decoding_it(tmp_path, monkeypatch):
    args = ["run", "--config", str(GOLDEN / "config.yaml"), "--out", str(tmp_path / "run")]
    first = CliRunner().invoke(main, args)
    assert first.exit_code == 0, first.output
    decoded = []
    from_dict = EvalReport.from_dict
    monkeypatch.setattr(EvalReport, "from_dict", lambda raw: decoded.append(raw) or from_dict(raw))
    again = CliRunner().invoke(main, args)
    assert again.exit_code == 0, again.output
    assert not decoded
    lines = [line for line in first.output.splitlines() if " accuracy: " in line]
    assert len(lines) == 3
    assert [line for line in again.output.splitlines() if " accuracy: " in line] == lines


def test_a_config_named_by_a_relative_and_an_absolute_path_is_one_run(tmp_path, monkeypatch, caplog):
    guard = CountingProvider(ScriptedProvider([]))
    out = {"out": str(tmp_path / "run")}
    monkeypatch.chdir(GOLDEN.parent)
    Runner(load_config("golden/config.yaml", out), provider=guard).run_pipeline()
    with caplog.at_level(logging.INFO, logger="faultloom.pipeline"):
        Runner(load_config(GOLDEN.resolve() / "config.yaml", out), provider=guard).run_pipeline()
    assert [s for s in RUN_ORDER if f"{s}: unchanged, skipping" not in caplog.text] == []
    assert guard.calls == 0


class _PromptRecorder:
    def __init__(self, inner):
        self.inner = inner
        self.prompts: list[str] = []

    def send(self, request):
        self.prompts.append(request.user_text)
        return self.inner.send(request)


def _rerun_after_edit(tmp_path, caplog, provider, edited, line, overrides=None):
    """Run the pipeline on a copy of the golden fixtures (with a copy of the
    packaged symptom taxonomy beside them), append `line` to the file
    `edited` of the copy and run again; return the stages that ran again."""
    golden = shutil.copytree(GOLDEN, tmp_path / "golden")
    shutil.copy(packaged_data_path("symptom_taxonomy.yaml"), golden)
    overrides = {"mode": "record", "transcript": str(tmp_path / "t.jsonl"), **(overrides or {})}
    Runner(load_config(golden / "config.yaml", overrides), provider=provider).run_pipeline()

    with open(golden / edited, "a", encoding="utf-8") as fh:
        fh.write(line)
    provider.prompts.clear()
    with caplog.at_level(logging.INFO, logger="faultloom.pipeline"):
        Runner(load_config(golden / "config.yaml", overrides), provider=provider).run_pipeline()
    stages = ("corpus", "sample", "filter", "classify")
    return [s for s in stages if f"{s}: unchanged, skipping" not in caplog.text]


@pytest.mark.parametrize(
    "edited, line, reran",
    [
        ("criteria.yaml", "comment_budget: 0\n", ["filter", "classify"]),
        ("vocab.txt", "# reviewed\n", ["filter"]),
    ],
)
def test_edited_criteria_or_vocabulary_reruns_the_stages_that_read_it(
    tmp_path, caplog, symptoms, root_causes, edited, line, reran
):
    provider = _PromptRecorder(OracleProvider(load_gold(GOLDEN / "gold.csv"), symptoms, root_causes))
    assert _rerun_after_edit(tmp_path, caplog, provider, edited, line) == reran
    if "classify" in reran:  # the new budget reaches both kinds of prompt
        truncated = [p for p in provider.prompts if "more comment(s) truncated]" in p]
        assert any('"fault_related"' in p for p in truncated)
        assert any('"symptom"' in p for p in truncated)


@pytest.mark.parametrize(
    "edited, overrides, line, reran",
    [
        ("corpus.jsonl", {}, "\n", ["corpus"]),
        ("gold.csv", {}, "\n", ["sample"]),
        ("gold.csv", {"stage3_input": "gold"}, "\n", ["sample", "classify"]),
        ("symptom_taxonomy.yaml", {"symptom_taxonomy": "symptom_taxonomy.yaml"}, "# reviewed\n", ["classify"]),
    ],
    ids=["dump", "gold", "gold-in-gold-mode", "symptom-taxonomy"],
)
def test_edited_dump_gold_or_taxonomy_reruns_the_stages_that_read_it(
    tmp_path, caplog, symptoms, root_causes, edited, overrides, line, reran
):
    provider = _PromptRecorder(OracleProvider(load_gold(GOLDEN / "gold.csv"), symptoms, root_causes))
    assert _rerun_after_edit(tmp_path, caplog, provider, edited, line, overrides) == reran


def _count_hashes(monkeypatch) -> Counter:
    """Count the files `faultloom.pipeline` hashes, by path."""
    hashed: Counter = Counter()
    hash_file = pipeline._hash_file

    def counted(path):
        hashed[path] += 1
        return hash_file(path)

    monkeypatch.setattr(pipeline, "_hash_file", counted)
    return hashed


def test_cold_run_hashes_only_the_dump_and_config_files_once_each(tmp_path, monkeypatch):
    hashed = _count_hashes(monkeypatch)
    config = _config(tmp_path)
    Runner(config).run_pipeline()
    # Each artifact's sha256 comes from its writer, so no artifact is read back.
    assert hashed == {
        path: 1 for path in (
            config.dumps[0], config.gold_file, config.criteria_file, config.vocabulary_file,
            config.symptom_taxonomy_file, config.root_cause_taxonomy_file,
        )
    }


def _set_mtime(path: Path, ns: int) -> None:
    os.utime(path, ns=(ns, ns))


def test_aged_noop_rerun_hashes_no_file_and_writes_nothing(tmp_path, monkeypatch):
    """With the manifest a second newer than every file it fingerprints, no
    entry is racy, so each file's sha256 comes from the manifest."""
    runner = Runner(_config(tmp_path))
    runner.run_pipeline()
    path = runner.out / "manifest.json"
    _set_mtime(path, path.stat().st_mtime_ns + 10**9)
    manifest = path.read_bytes()
    hashed = _count_hashes(monkeypatch)
    Runner(_config(tmp_path)).run_pipeline()
    assert not hashed
    assert path.read_bytes() == manifest


def test_a_noop_rerun_through_absolute_paths_hashes_no_file(tmp_path, monkeypatch):
    """The manifest keys each file by its absolute path, so a run through
    relative paths and a rerun through absolute ones share its entries."""
    shutil.copytree(GOLDEN, tmp_path / "golden")
    monkeypatch.chdir(tmp_path)
    first = load_config("golden/config.yaml")  # the run directory is golden/run
    assert not Path(first.dumps[0]).is_absolute() and not first.out_dir.is_absolute()
    Runner(first).run_pipeline()
    path = tmp_path / "golden" / "run" / "manifest.json"
    _set_mtime(path, path.stat().st_mtime_ns + 10**9)
    hashed = _count_hashes(monkeypatch)
    config = load_config(tmp_path / "golden" / "config.yaml")
    assert Path(config.dumps[0]).is_absolute() and config.out_dir.is_absolute()
    Runner(config).run_pipeline()
    assert not hashed


@pytest.mark.parametrize(
    "case, reran",
    [
        ("rewritten-in-place", ["filter"]),
        ("replaced", []),
        ("truncated", ["classify"]),
        ("racy", []),
        ("malformed", []),
        ("no-files-map", []),
    ],
)
def test_a_file_whose_fingerprint_may_be_stale_is_hashed_again(tmp_path, monkeypatch, caplog, case, reran):
    """After a finished run whose manifest is a second newer than its files,
    edit one file: it is hashed again, and its stage reruns only when its
    bytes changed."""
    golden = shutil.copytree(GOLDEN, tmp_path / "golden")
    config = load_config(golden / "config.yaml", {"out": str(tmp_path / "run")})
    runner = Runner(config)
    runner.run_pipeline()
    path = runner.out / "manifest.json"
    manifest = json.loads(path.read_text())
    mtime = path.stat().st_mtime_ns + 10**9
    if case == "rewritten-in-place":  # the same size and terms and the old mtime: only st_ctime_ns differs
        edited = golden / "vocab.txt"
        before = edited.stat()
        edited.write_bytes(edited.read_bytes()[:-1] + b" ")
        os.utime(edited, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert edited.stat().st_ctime_ns != before.st_ctime_ns
    elif case == "replaced":  # the same bytes under a new inode
        edited = golden / "corpus.jsonl"
        shutil.copyfile(edited, tmp_path / "copy.jsonl")
        os.replace(tmp_path / "copy.jsonl", edited)
    elif case == "truncated":
        edited = runner.artifact("classify")
        edited.write_bytes(b"".join(edited.read_bytes().splitlines(keepends=True)[:-1]))
    elif case == "racy":  # the manifest written in the tick the file last changed
        edited = golden / "gold.csv"
        mtime = manifest["files"][str(edited)]["stat"][4]
    elif case == "malformed":
        edited = golden / "criteria.yaml"
        manifest["files"][str(edited)] = {"stat": "stale", "sha256": 5}
        path.write_text(json.dumps(manifest))
    else:  # as written before manifests kept fingerprints
        edited = golden / "corpus.jsonl"
        del manifest["files"]
        path.write_text(json.dumps(manifest))
    _set_mtime(path, mtime)

    hashed = _count_hashes(monkeypatch)
    with caplog.at_level(logging.INFO, logger="faultloom.pipeline"):
        Runner(config).run_pipeline()
    assert hashed[edited] == 1
    assert case in ("racy", "no-files-map") or set(hashed) == {edited}
    assert [s for s in RUN_ORDER[:-1] if f"{s}: unchanged, skipping" not in caplog.text] == reran


def _without_wall_time(out: Path) -> dict[str, bytes]:
    """The bytes of each report file, without the lines that hold the wall time."""
    return {
        name: b"".join(line for line in (out / name).read_bytes().splitlines(keepends=True)
                       if b"wall_time_seconds" not in line and b"wall time (s)" not in line)
        for name in REPORT_FILES
    }


@pytest.mark.parametrize("command", ["run", "evaluate"])
@pytest.mark.parametrize("damage", ["table deleted", "table edited", "summary truncated", "all three"])
def test_a_missing_or_edited_report_file_is_written_again(tmp_path, monkeypatch, command, damage):
    """`all three`: a table deleted, summary.md truncated and report.json
    edited. With each manifest a second newer than the files it
    fingerprints, a later command with nothing to do hashes and writes
    nothing."""
    out = tmp_path / "run"
    args = ["--config", str(GOLDEN / "config.yaml"), "--out", str(out)]
    assert CliRunner().invoke(main, ["run", *args]).exit_code == 0
    manifest = out / "manifest.json"
    _set_mtime(manifest, manifest.stat().st_mtime_ns + 10**9)
    first = _without_wall_time(out)
    table = out / "tables" / "stage2_confusion.csv"
    if damage == "table edited":
        table.write_bytes(table.read_bytes().replace(b",0", b",1", 1))
    if damage in ("table deleted", "all three"):
        table.unlink()
    if damage in ("summary truncated", "all three"):
        (out / "summary.md").write_bytes((out / "summary.md").read_bytes()[:20])
    if damage == "all three":
        report = json.loads((out / "report.json").read_text())
        report["stage2"]["accuracy"] = 0.5
        (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    result = CliRunner().invoke(main, [command, *args])
    assert result.exit_code == 0, result.output
    assert _without_wall_time(out) == first

    _set_mtime(manifest, manifest.stat().st_mtime_ns + 10**9)
    existing = _files(out)
    hashed = _count_hashes(monkeypatch)
    assert CliRunner().invoke(main, ["run", *args]).exit_code == 0
    assert not hashed
    assert _files(out) == existing


def test_truncated_artifact_reruns_its_stage_from_the_transcript(tmp_path, monkeypatch):
    guard = CountingProvider(ScriptedProvider([]))
    runner = Runner(_config(tmp_path), provider=guard)
    first = runner.run_pipeline()
    labels = runner.artifact("classify")
    whole = labels.read_bytes()
    labels.write_bytes(b"".join(whole.splitlines(keepends=True)[:-1]))

    ran = []
    set_stage = Manifest.set_stage

    def recorded(manifest, name, *rest):
        ran.append(name)
        return set_stage(manifest, name, *rest)

    monkeypatch.setattr(Manifest, "set_stage", recorded)
    again = Runner(_config(tmp_path), provider=guard).run_pipeline()
    # Evaluate reruns too unless classify's manifest entry came out the same.
    assert ran in (["classify"], ["classify", "evaluate"])
    assert guard.calls == 0
    assert labels.read_bytes() == whole
    assert again["stage3_symptom"]["total"] == first["stage3_symptom"]["total"]
    assert again["stage3_rootcause"]["total"] == first["stage3_rootcause"]["total"]


def test_manifest_written_before_output_digests_reruns_each_stage_once(tmp_path, monkeypatch):
    counts = _count_calls(monkeypatch)
    guard = CountingProvider(ScriptedProvider([]))
    runner = Runner(_config(tmp_path), provider=guard)
    runner.run_pipeline()
    artifacts = _snapshot(runner.out)
    path = runner.out / "manifest.json"
    manifest = json.loads(path.read_text())
    for entry in manifest["stages"].values():
        del entry["output"]
    path.write_text(json.dumps(manifest))

    counts.clear()
    Runner(_config(tmp_path), provider=guard).run_pipeline()
    assert counts["set_stage"] == len(RUN_ORDER)
    counts.clear()
    Runner(_config(tmp_path), provider=guard).run_pipeline()
    assert counts["set_stage"] == 0
    assert guard.calls == 0
    rerun = _snapshot(runner.out)
    for name in ("report.json", "summary.md"):  # they carry the wall time
        del artifacts[name], rerun[name]
    assert rerun == artifacts


def test_unreadable_manifest_stops_the_run_and_names_the_file(tmp_path):
    out = tmp_path / "run"
    args = ["run", "--config", str(GOLDEN / "config.yaml"), "--out", str(out)]
    assert CliRunner().invoke(main, args).exit_code == 0
    manifest = out / "manifest.json"
    manifest.write_bytes(manifest.read_bytes()[:-40])
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1
    assert f"unreadable manifest {manifest}" in result.stderr


def test_manifest_is_replaced_whole(tmp_path, monkeypatch):
    runner = Runner(_config(tmp_path))
    runner.run_corpus()
    path = runner.out / "manifest.json"
    before = path.read_bytes()

    def killed(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(pipeline.os, "replace", killed)
    with pytest.raises(KeyboardInterrupt):
        runner.run_sample()
    assert path.read_bytes() == before
    assert "sample" not in runner.manifest.data["stages"]  # memory agrees with the file
    monkeypatch.undo()
    runner.run_sample()
    assert "sample" in json.loads(path.read_text())["stages"]
    assert [p.name for p in runner.out.glob("manifest*")] == ["manifest.json"]


def test_reported_wall_time_counts_the_evaluate_stage(tmp_path, monkeypatch):
    score_stage2 = pipeline.score_stage2

    def slowed(*args, **kwargs):
        time.sleep(0.3)
        return score_stage2(*args, **kwargs)

    monkeypatch.setattr(pipeline, "score_stage2", slowed)
    runner = Runner(_config(tmp_path))
    assert runner.run_pipeline()["run_meta"]["wall_time_seconds"] >= 0.3


def test_a_stage_body_cannot_read_an_input_it_did_not_declare(tmp_path):
    runner = Runner(_config(tmp_path))
    with pytest.raises(KeyError, match="gold"):
        runner._stage("define", {}, runner._files("reference_projects"), lambda: runner._read("gold"))
    assert not runner.artifact("define").exists()
    assert runner.manifest.stage("define") == {}


def test_report_names_the_line_of_an_unreadable_artifact(tmp_path):
    out = tmp_path / "run"
    args = ["--config", str(GOLDEN / "config.yaml"), "--out", str(out)]
    assert CliRunner().invoke(main, ["run", *args]).exit_code == 0
    decisions = out / "decisions.jsonl"
    lines = decisions.read_text().splitlines(keepends=True)
    lines[1] = json.dumps({**json.loads(lines[1]), "trace": 5}) + "\n"
    decisions.write_text("".join(lines))
    result = CliRunner().invoke(main, ["evaluate", *args])
    assert result.exit_code == 1
    assert f"{decisions} line 2: expected an array, not int" in result.stderr


def test_artifact_edited_between_stages_is_parsed_from_disk(tmp_path, monkeypatch):
    counts = _count_calls(monkeypatch)
    runner = Runner(_config(tmp_path))
    runner.run_corpus()
    runner.run_sample()
    sample_path = Path(runner.out) / "sample.jsonl"
    kept = sample_path.read_text().splitlines()[:-1]
    sample_path.write_text("\n".join(kept) + "\n")
    parsed_before = counts["import_dump"]
    runner.run_filter()
    assert counts["import_dump"] == parsed_before + 1
    decisions = (Path(runner.out) / "decisions.jsonl").read_text().splitlines()
    assert len(decisions) == len(kept)


def test_split_run_reports_the_tokens_of_every_stage(tmp_path):
    whole = Runner(_config(tmp_path, out=str(tmp_path / "whole"))).run_pipeline()

    first = Runner(_config(tmp_path))
    first.run_corpus()
    first.run_sample()
    first.run_filter()
    second = Runner(_config(tmp_path))
    second.run_classify()
    second.run_evaluate()
    stages = second.manifest.data["stages"]
    assert stages["filter"]["meta"]["tokens"] > 0
    assert stages["classify"]["meta"]["tokens"] > 0
    report = json.loads(second.artifact("evaluate").read_text())
    assert report["run_meta"]["total_tokens"] == whole["run_meta"]["total_tokens"]
    assert report["run_meta"]["per_model"] == whole["run_meta"]["per_model"]


class _BarrierProvider:
    """Answers only once `parties` requests are in flight at the same time."""

    def __init__(self, parties: int):
        self.barrier = threading.Barrier(parties, timeout=5)

    def send(self, request):
        self.barrier.wait()
        return make_response('{"fault_related": true, "rationale": "crash"}')


def test_parallelism_above_four_reaches_the_provider(tmp_path):
    dump = tmp_path / "dump.jsonl"
    export_dump([make_issue(number=n) for n in range(1, 7)], dump)
    (tmp_path / "vocab.txt").write_text("predict\n")
    config_path = tmp_path / "config.yaml"
    config_path.write_text(
        "dumps: [dump.jsonl]\nvocabulary: vocab.txt\nmode: record\n"
        "transcript: transcript.jsonl\nparallelism: 6\nout: run\n"
    )
    runner = Runner(load_config(config_path), provider=_BarrierProvider(6))
    runner.run_corpus()
    runner.run_sample()
    runner.run_filter()
    runner.close()
    decisions = [json.loads(line) for line in (tmp_path / "run" / "decisions.jsonl").read_text().splitlines()]
    assert len(decisions) == 6
    assert all(d["error"] is None and d["llm_verdict"] is True for d in decisions)


def test_replay_runs_each_issue_inline(tmp_path, monkeypatch):
    inline = Runner(_config(tmp_path, out=str(tmp_path / "inline"), parallelism=1))
    inline.run_pipeline()

    def no_pool(*args, **kwargs):
        raise AssertionError("replay started a thread pool")

    monkeypatch.setattr("faultloom.corpus.ThreadPoolExecutor", no_pool)
    config = _config(tmp_path, out=str(tmp_path / "pooled"))
    assert config.parallelism == 2
    pooled = Runner(config)
    pooled.run_pipeline()
    for stage in ("corpus", "sample", "filter", "classify"):
        assert pooled.artifact(stage).read_bytes() == inline.artifact(stage).read_bytes(), stage
    for table in (tmp_path / "inline" / "tables").iterdir():
        assert (tmp_path / "pooled" / "tables" / table.name).read_bytes() == table.read_bytes(), table.name
    reports = [json.loads(runner.artifact("evaluate").read_text()) for runner in (inline, pooled)]
    for report in reports:  # the one figure that differs between two runs
        del report["run_meta"]["wall_time_seconds"]
    assert reports[0] == reports[1]


def test_sample_is_copied_from_the_corpus_bytes_and_equals_its_export(tmp_path):
    expected = tmp_path / "expected.jsonl"
    corpus = import_dump(GOLDEN / "corpus.jsonl")
    chosen = sample_balanced([r.key for r in corpus], load_gold(GOLDEN / "gold.csv"), 4, 4, 7)
    export_dump([r for r in corpus if r.key in chosen], expected)

    whole = Runner(_config(tmp_path, out=str(tmp_path / "whole")))
    whole.run_corpus()
    whole.run_sample()
    split = Runner(_config(tmp_path, out=str(tmp_path / "split")))
    split.run_corpus()
    Runner(_config(tmp_path, out=str(tmp_path / "split"))).run_sample()
    for runner in (whole, split):
        assert runner.artifact("sample").read_bytes() == expected.read_bytes()


def test_cold_run_serializes_each_corpus_record_once(tmp_path, monkeypatch):
    calls = Counter()
    to_dict = IssueRecord.to_dict

    def counted(record):
        calls[record.key] += 1
        return to_dict(record)

    monkeypatch.setattr(IssueRecord, "to_dict", counted)
    runner = Runner(_config(tmp_path))
    runner.run_pipeline()
    corpus = import_dump(runner.artifact("corpus"))
    assert set(calls) == {r.key for r in corpus}
    assert set(calls.values()) == {1}


def test_the_corpus_stage_holds_no_more_than_two_records_at_once(tmp_path, monkeypatch):
    """The corpus stage writes each record as it reads it and keeps only its
    key: however long the dump, the record being written and the one being
    read are all it holds."""
    live, peak = [0], [0]
    init = IssueRecord.__init__

    def counted(self, **fields):
        init(self, **fields)
        live[0] += 1
        peak[0] = max(peak[0], live[0])

    def dropped(self):
        live[0] -= 1

    monkeypatch.setattr(IssueRecord, "__init__", counted)
    monkeypatch.setattr(IssueRecord, "__del__", dropped, raising=False)
    runner = Runner(_config(tmp_path))
    runner.run_corpus()
    assert peak[0] == 2
    assert len(runner.artifact("corpus").read_text().splitlines()) > 5 * peak[0]


# An issue that is not in gold, so that no sample picks it.
_UNSAMPLED = make_issue(repo="acme/unsampled", number=99, n_comments=2).to_dict()


def _unsampled(**fields) -> bytes:
    return json.dumps({**_UNSAMPLED, **fields}).encode("utf-8")


BAD_LINES = {
    "invariant": _unsampled(updated_at="2001-01-01T00:00:00Z"),
    "closed-at": _unsampled(state="open"),
    "comment-order": _unsampled(comments=_UNSAMPLED["comments"][::-1]),
    "labels-string": _unsampled(labels="bug"),
    "number-bool": _unsampled(number=True),
    "no-such-day": _unsampled(created_at="2021-02-29T00:00:00Z"),
    "null-repo": _unsampled(repo=None),
    "torn": _unsampled()[:40],
    "array": b"[]",
    "not-utf8": b"\xff",
    "duplicate": (GOLDEN / "corpus.jsonl").read_bytes().splitlines()[3],
}


@pytest.mark.parametrize("bad_line", BAD_LINES.values(), ids=BAD_LINES)
def test_a_bad_dump_line_that_sampling_would_not_pick_fails_import(tmp_path, bad_line):
    """The corpus stage checks every dump line, not only the sampled ones:
    it exits 1 with the text `import_dump` gives for the line, and leaves
    the corpus artifact as it was."""
    golden = shutil.copytree(GOLDEN, tmp_path / "golden")
    dump = golden / "corpus.jsonl"
    args = ["import", "--config", str(golden / "config.yaml"), "--out", str(tmp_path / "run")]
    assert CliRunner().invoke(main, args).exit_code == 0
    written = (tmp_path / "run" / "corpus.jsonl").read_bytes()
    lines = dump.read_bytes().splitlines(keepends=True)
    dump.write_bytes(b"".join(lines) + bad_line + b"\n")
    with pytest.raises(CorpusError) as parsed:
        import_dump(dump)
    assert str(parsed.value).startswith(f"{dump} line {len(lines) + 1}: ")

    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1
    assert result.stderr == f"error: {parsed.value}\n"
    assert (tmp_path / "run" / "corpus.jsonl").read_bytes() == written
    assert sorted(p.name for p in (tmp_path / "run").iterdir() if p.name.endswith(".tmp")) == []


def test_an_invariant_breaking_dump_line_names_it(tmp_path):
    golden = shutil.copytree(GOLDEN, tmp_path / "golden")
    dump = golden / "corpus.jsonl"
    n = len(dump.read_text().splitlines())
    with open(dump, "a", encoding="utf-8") as fh:
        fh.write(BAD_LINES["invariant"].decode() + "\n")
    result = CliRunner().invoke(main, ["import", "--config", str(golden / "config.yaml"), "--out", str(tmp_path / "run")])
    assert result.exit_code == 1
    assert result.stderr == f"error: {dump} line {n + 1}: acme/unsampled#99: created_at after updated_at\n"
    assert not (tmp_path / "run" / "corpus.jsonl").exists()


def _leaves_no_file_open(tmp_path, calls: str):
    """Run `calls` on a record-mode Runner of the golden config, in a Python
    that turns a ResourceWarning into an error, then collect the Runner."""
    script = f"""
import gc
from faultloom.config import load_config, packaged_data_path
from faultloom.corpus import load_gold
from faultloom.pipeline import Runner
from faultloom.taxonomy import load_taxonomy
from fakes import OracleProvider

taxonomies = [load_taxonomy(packaged_data_path(f"{{n}}_taxonomy.yaml")) for n in ("symptom", "root_cause")]
config = load_config({str(GOLDEN / "config.yaml")!r}, overrides={{
    "out": {str(tmp_path / "run")!r}, "mode": "record", "transcript": {str(tmp_path / "t.jsonl")!r}}})
runner = Runner(config, provider=OracleProvider(load_gold({str(GOLDEN / "gold.csv")!r}), *taxonomies))
{calls}
del runner
gc.collect()
"""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-W", "error::ResourceWarning", "-c", script],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "ResourceWarning" not in result.stderr, result.stderr
    assert (tmp_path / "t.jsonl").stat().st_size > 0


def test_run_pipeline_leaves_no_file_open(tmp_path):
    _leaves_no_file_open(tmp_path, "runner.run_pipeline()")


def test_direct_stage_calls_leave_no_file_open(tmp_path):
    _leaves_no_file_open(tmp_path, "runner.run_corpus(); runner.run_sample(); runner.run_filter()")


def test_killed_record_run_resumes_without_paying_again(tmp_path, symptoms, root_causes):
    def record(name, transcript):
        provider = CountingProvider(OracleProvider(load_gold(GOLDEN / "gold.csv"), symptoms, root_causes))
        config = _config(tmp_path, out=str(tmp_path / name), mode="record", transcript=str(transcript))
        Runner(config, provider=provider).run_pipeline()
        return provider.calls

    full = tmp_path / "full.jsonl"
    paid = record("full", full)
    lines = full.read_text().splitlines(keepends=True)
    kept = len(lines) // 2
    killed = tmp_path / "killed.jsonl"
    killed.write_text("".join(lines[:kept]) + lines[kept][:40])  # the kill tore the next entry

    assert record("resumed", killed) == paid - kept
    for name in ("sample", "filter", "classify"):
        artifact = ARTIFACTS[name]
        assert (tmp_path / "resumed" / artifact).read_bytes() == (tmp_path / "full" / artifact).read_bytes()
    assert sorted(killed.read_text().splitlines()) == sorted(line.rstrip("\n") for line in lines)


def test_edited_reference_list_reruns_define(tmp_path):
    golden = shutil.copytree(GOLDEN, tmp_path / "golden")
    config = load_config(golden / "config.yaml", overrides={"out": str(tmp_path / "run")})
    plan = Runner(config).run_define()
    assert json.loads(plan.read_text())["score"]["recall"] == pytest.approx(1 / 3)

    (golden / "reference_projects.txt").write_text("TensorFlow.js\n")
    Runner(config).run_define()
    assert json.loads(plan.read_text())["score"]["recall"] == 1.0


def test_stage_time_counts_hashing_its_inputs(tmp_path, monkeypatch):
    hash_file = pipeline._hash_file

    def slowed(path):
        time.sleep(0.05)
        return hash_file(path)

    monkeypatch.setattr(pipeline, "_hash_file", slowed)
    runner = Runner(_config(tmp_path))
    runner.run_pipeline()
    assert runner.manifest.stage("corpus")["meta"]["duration_seconds"] >= 0.05


@pytest.mark.parametrize(
    "name, old, new, key",
    [
        ("criteria.yaml", '  - "stat:awaiting response"', "  wontfix", "exclusion_labels"),
        ("config.yaml", "dumps: [corpus.jsonl]", "dumps: corpus.jsonl", "dumps"),
        ("config.yaml", "out: run", "out: run\nrepos: acme/dlpipe", "repos"),
        ("config.yaml", "constraints: [open-source projects only]", "constraints: open-source projects only",
         "theme.constraints"),
    ],
)
def test_cli_a_string_where_a_list_belongs_is_an_error_naming_the_file_and_key(
    tmp_path, monkeypatch, name, old, new, key
):
    def offline(url, headers, params):  # a repos list read as letters must not reach the network
        raise AssertionError(f"fetched {url}")

    monkeypatch.setattr(ingest, "requests_transport", offline)
    inputs = tmp_path / "inputs"
    shutil.copytree(GOLDEN, inputs)
    text = (inputs / name).read_text()
    assert old in text
    (inputs / name).write_text(text.replace(old, new))
    result = CliRunner().invoke(main, ["run", "--config", str(inputs / "config.yaml"), "--out", str(tmp_path / "run")])
    assert result.exit_code == 1
    assert result.stderr.startswith("error: ")
    assert f"{inputs / name}: {key} must be a list, not str" in result.stderr


@pytest.mark.parametrize("call, ran", [("run_corpus", ()), ("run_evaluate", RUN_ORDER[:-1])])
def test_direct_call_refuses_a_locked_run_directory(tmp_path, call, ran):
    runner = Runner(_config(tmp_path))
    for stage in ran:
        getattr(runner, f"run_{stage}")()
    with _lock_holder(runner.out):
        existing = _files(runner.out)
        with pytest.raises(StageError, match="locked"):
            getattr(Runner(_config(tmp_path)), call)()
        assert _files(runner.out) == existing


def test_sample_command_copies_the_chosen_lines_of_a_hand_written_corpus(tmp_path):
    """CRLF endings, blank and whitespace-only lines, keys out of canonical
    order and no final newline: `sample.jsonl` holds the chosen lines as they
    are, and reads as the sample of the corpus."""
    records = [json.loads(line) for line in (GOLDEN / "corpus.jsonl").read_text().splitlines()]
    records.append(records.pop(0))  # a chosen record last, on the line without a newline
    lines = [json.dumps(dict(reversed(record.items()))).encode("utf-8") + b"\r\n" for record in records]
    lines[-1] = lines[-1].rstrip(b"\r\n")
    out = tmp_path / "run"
    out.mkdir()
    corpus_path = out / "corpus.jsonl"
    corpus_path.write_bytes(b"\r\n" + b"".join(lines[:3]) + b" \t\r\n" + b"".join(lines[3:]))

    result = CliRunner().invoke(main, ["sample", "--config", str(GOLDEN / "config.yaml"), "--out", str(out)])
    assert result.exit_code == 0, result.output
    corpus = import_dump(corpus_path)
    keys = [r.key for r in corpus]
    chosen = sample_balanced(keys, load_gold(GOLDEN / "gold.csv"), 4, 4, 7)
    assert keys[-1] in chosen
    expected = b"".join(line for line, key in zip(lines, keys) if key in chosen)
    assert (out / "sample.jsonl").read_bytes() == expected
    assert import_dump(out / "sample.jsonl") == [r for r in corpus if r.key in chosen]
