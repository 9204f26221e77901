import json
import logging
import os
import shutil
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from faultloom import pipeline
from faultloom.cli import main
from faultloom.config import load_config
from faultloom.corpus import Corpus, IssueRecord, export_dump, import_dump, load_gold, sample_balanced
from faultloom.errors import ConfigError, MissingArtifactError
from faultloom.pipeline import ARTIFACTS, RUN_ORDER, Manifest, Runner

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
    with pytest.raises(MissingArtifactError) as exc:
        runner.run_filter()
    assert "sample.jsonl" in str(exc.value)


def test_replay_config_requires_existing_transcript(tmp_path):
    with pytest.raises(ConfigError, match="transcript"):
        load_config(
            GOLDEN / "config.yaml",
            overrides={"out": str(tmp_path), "transcript": "no-such.jsonl"},
        )


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


def test_report_regeneration_is_idempotent(tmp_path):
    runner = Runner(_config(tmp_path))
    runner.run_pipeline()
    out = Path(runner.out)
    report_before = (out / "report.json").read_bytes()
    summary_before = (out / "summary.md").read_bytes()
    runner.write_report(runner.build_report())
    assert (out / "report.json").read_bytes() == report_before
    assert (out / "summary.md").read_bytes() == summary_before


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

    report_before = (out / "report.json").read_bytes()
    result = cli.invoke(
        main,
        ["report", "--config", str(GOLDEN / "config.yaml"), "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert (out / "report.json").read_bytes() == report_before


def test_cli_filter_before_sample_errors(tmp_path):
    cli = CliRunner()
    result = cli.invoke(
        main,
        ["filter", "--config", str(GOLDEN / "config.yaml"), "--out", str(tmp_path / "r")],
    )
    assert result.exit_code == 1
    assert "sample.jsonl" in result.stderr


def test_lock_file_prevents_concurrent_runs(tmp_path):
    config = _config(tmp_path)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "run.lock").touch()
    with pytest.raises(Exception, match="locked"):
        Runner(config).run_pipeline()


@pytest.mark.parametrize("owner, broken", [("gone", True), ("alive", False), ("elsewhere", False)])
def test_lock_of_a_gone_command_on_this_host_is_broken(tmp_path, caplog, owner, broken):
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait(timeout=60)
    pid = os.getpid() if owner == "alive" else child.pid
    host = os.uname().nodename + (".elsewhere" if owner == "elsewhere" else "")
    runner = Runner(_config(tmp_path))
    lock = runner.out / "run.lock"
    lock.write_text(json.dumps({"pid": pid, "host": host, "started": "2021-06-01T00:00:00Z"}))
    if not broken:
        with pytest.raises(Exception, match="locked"), runner.locked():
            pass
        assert json.loads(lock.read_text())["pid"] == pid
        return
    with caplog.at_level(logging.WARNING, logger="faultloom.pipeline"), runner.locked():
        held = json.loads(lock.read_text())
    assert "breaking the lock" in caplog.text
    assert (held["pid"], held["host"]) == (os.getpid(), os.uname().nodename)
    assert not lock.exists()


@pytest.mark.parametrize(
    "command, ran",
    [("import", ()), ("filter", ("corpus", "sample")), ("report", RUN_ORDER)],
)
def test_cli_command_refuses_a_locked_run_directory(tmp_path, command, ran):
    runner = Runner(_config(tmp_path))
    for stage in ran:
        getattr(runner, f"run_{stage}")()
    out = Path(runner.out)
    (out / "run.lock").touch()

    def written():
        return {str(p): (p.read_bytes(), p.stat().st_mtime_ns) for p in out.rglob("*") if p.is_file()}

    existing = written()
    result = CliRunner().invoke(main, [command, "--config", str(GOLDEN / "config.yaml"), "--out", str(out)])
    assert result.exit_code == 1
    assert "locked" in result.stderr
    assert written() == existing


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
    report = runner.build_report()
    assert report.stage3_symptom is None
    assert any("zero issues" in note for note in report.notes)


def test_seed_override_replaces_sampling_seed_and_yaml_seed_only_fills(tmp_path):
    assert _config(tmp_path).sampling.seed == 7
    assert _config(tmp_path, seed=8).sampling.seed == 8
    config = tmp_path / "config.yaml"
    config.write_text(
        "dumps: [corpus.jsonl]\nmode: record\nseed: 3\nsampling: {n_pos: 1, n_neg: 1, seed: 5}\n"
    )
    (tmp_path / "corpus.jsonl").touch()
    assert load_config(config).sampling.seed == 5
    config.write_text("dumps: [corpus.jsonl]\nmode: record\nseed: 3\nsampling: {n_pos: 1, n_neg: 1}\n")
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


def _count_calls(monkeypatch) -> Counter:
    """Count calls to the loaders and scorers `faultloom.pipeline` looks up,
    to Runner.build_report, to Manifest.set_stage and to yaml.safe_load and
    yaml.safe_dump."""
    counts: Counter = Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("import_dump", "load_gold", "load_taxonomy", "score_stage2", "score_stage3"):
        counted(pipeline, name)
    counted(Runner, "build_report")
    counted(Manifest, "set_stage")
    counted(yaml, "safe_load")
    counted(yaml, "safe_dump")
    return counts


def test_cold_run_parses_each_input_once_and_noop_rerun_only_reads_report(tmp_path, monkeypatch):
    counts = _count_calls(monkeypatch)
    config = _config(tmp_path)
    Runner(config).run_pipeline()
    assert counts["import_dump"] == len(config.dumps)
    assert counts["load_gold"] == 1
    assert counts["load_taxonomy"] == 2
    assert counts["build_report"] == 1

    rerun = Runner(_config(tmp_path))
    counts.clear()
    report = rerun.run_pipeline()
    assert not counts  # no parse (YAML included), load, score, report build or manifest write
    assert report.to_dict() == json.loads((Path(config.out_dir) / "report.json").read_text())


class _PromptRecorder:
    def __init__(self, inner):
        self.inner = inner
        self.prompts: list[str] = []

    def send(self, request):
        self.prompts.append(request.user_text)
        return self.inner.send(request)


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
    golden = shutil.copytree(GOLDEN, tmp_path / "golden")
    overrides = {"mode": "record", "transcript": str(tmp_path / "t.jsonl")}
    provider = _PromptRecorder(OracleProvider(load_gold(golden / "gold.csv"), symptoms, root_causes))
    Runner(load_config(golden / "config.yaml", overrides), provider=provider).run_pipeline()

    with open(golden / edited, "a", encoding="utf-8") as fh:
        fh.write(line)
    provider.prompts.clear()
    with caplog.at_level(logging.INFO, logger="faultloom.pipeline"):
        Runner(load_config(golden / "config.yaml", overrides), provider=provider).run_pipeline()
    stages = ("corpus", "sample", "filter", "classify")
    assert [s for s in stages if f"{s}: unchanged, skipping" not in caplog.text] == reran
    if "classify" in reran:  # the new budget reaches both kinds of prompt
        truncated = [p for p in provider.prompts if "more comment(s) truncated]" in p]
        assert any('"fault_related"' in p for p in truncated)
        assert any('"symptom"' in p for p in truncated)


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
    assert second.report.run_meta.total_tokens == whole.run_meta.total_tokens
    assert second.report.run_meta.per_model == whole.run_meta.per_model


class _BarrierProvider:
    """Answers only once `parties` requests are in flight at the same time."""

    def __init__(self, parties: int):
        self.barrier = threading.Barrier(parties, timeout=5)

    def send(self, request):
        self.barrier.wait()
        return make_response('{"fault_related": true, "rationale": "crash"}')


def test_parallelism_above_four_reaches_the_provider(tmp_path):
    dump = tmp_path / "dump.jsonl"
    export_dump(Corpus(records=[make_issue(number=n) for n in range(1, 7)]), dump)
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


def test_sample_is_copied_from_the_corpus_bytes_and_equals_its_export(tmp_path):
    expected = tmp_path / "expected.jsonl"
    drawn = sample_balanced(import_dump(GOLDEN / "corpus.jsonl"), load_gold(GOLDEN / "gold.csv"), 4, 4, 7)
    export_dump(drawn, expected)

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
    assert set(calls) == set(corpus.keys())
    assert set(calls.values()) == {1}


def test_run_pipeline_leaves_no_file_open(tmp_path):
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
runner.run_pipeline()
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
