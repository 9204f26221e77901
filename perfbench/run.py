"""Offline end-to-end benchmark of the faultloom pipeline.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout. Each repetition starts a fresh worker
process that sets up a Runner, makes a cold pass and then no-op reruns in
the same run directory; repetitions continue until S seconds have passed.
The last line of standard output is one JSON object with the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1), medians over the
repetitions. Every repetition's outputs are checked against reference
results computed apart from faultloom (see reference.py). --smoke runs every
workload at a tiny size, traced and untraced, with every check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from inputs import AnswerMix, Size, generate, read_taxonomy, write_config, write_inputs
from reference import Expected, check_run, comparable_artifacts, expected

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
RUN_LIMIT_S = 170.0  # a run must end within 180 s


@dataclass(frozen=True)
class Workload:
    mode: str
    size: Size
    smoke_size: Size
    mix: AnswerMix
    reruns: int  # no-op reruns per repetition, 1.3–2.5 s of them
    delay_s: float = 0.0


LIGHT = AnswerMix(filter_repairs=(0.04, 0.01), classify_repairs=(0.04, 0.01), wrong_leaf=0.2)
HEAVY = AnswerMix(filter_repairs=(0.15, 0.05), classify_repairs=(0.2, 0.1), wrong_leaf=0.25)
CPU_SIZE = Size(corpus=1600, n_pos=400, n_neg=400)
WORKLOADS = {
    "cold-record": Workload("record", CPU_SIZE, Size(240, 60, 60), LIGHT, reruns=16),
    "fresh-replay": Workload("replay", CPU_SIZE, Size(240, 60, 60), LIGHT, reruns=16),
    "slow-provider": Workload("record", Size(480, 120, 120), Size(120, 30, 30), HEAVY, reruns=20, delay_s=0.02),
}


class BenchError(Exception):
    pass


class Bench:
    """One workload at one seed: generated inputs, their expected outputs,
    and the repetitions run on them."""

    def __init__(self, name: str, seed: int, smoke: bool, deadline: float):
        self.name = name
        self.workload = WORKLOADS[name]
        self.size = self.workload.smoke_size if smoke else self.workload.size
        self.seed = seed
        self.deadline = deadline
        self.dir = WORK / f"{name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        symptoms = read_taxonomy(SRC / "faultloom" / "data" / "symptom_taxonomy.yaml")
        root_causes = read_taxonomy(SRC / "faultloom" / "data" / "root_cause_taxonomy.yaml")
        generated, corpus = generate(seed, self.size, self.workload.mix, symptoms, root_causes)
        write_inputs(self.dir, generated, corpus, symptoms, root_causes)
        self.gold = generated.gold
        self.expected: Expected = expected(generated, symptoms, root_causes)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        self.problems: list[str] = []
        self.attempted = self.failed = 0

    def repetition(self, tag: str, mode: str, transcript: str, traced: bool, keep: bool = False) -> dict:
        config = self.dir / f"config-{tag}.yaml"
        out = self.dir / f"run-{tag}"
        write_config(config, mode, transcript, out.name, self.size, self.seed)
        job = self.dir / f"job-{tag}.json"
        result_path = self.dir / f"result-{tag}.json"
        job.write_text(json.dumps({
            "config": str(config), "answers": str(self.dir / "answers.json"), "src": str(SRC),
            "delay_s": self.workload.delay_s, "reruns": self.workload.reruns, "trace": traced,
            "spans": str(WORK / f"spans-{self.name}-{self.seed}.jsonl"),
        }), encoding="utf-8")
        started = time.monotonic()
        self._spawn([sys.executable, str(HERE / "worker.py"), str(job), str(result_path)])
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["setup_s"] = result["ready"] - started
        result["mean_rerun_s"] = statistics.fmean(result["rerun_s"])
        self._check(tag, mode, out, result)
        if not keep:
            shutil.rmtree(out)
            if mode == "record":
                (self.dir / transcript).unlink()
        return result

    def _spawn(self, argv: list[str]) -> None:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time for this run")
        try:
            proc = subprocess.run(argv, cwd=self.dir, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker still running after {remaining:.0f} s; killed") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")

    def _check(self, tag: str, mode: str, out: Path, result: dict) -> None:
        exp = self.expected
        problems, attempted, failed = check_run(out, exp, self.gold)
        cold, rerun = result["cold"], result["rerun"]
        if cold["complete_calls"] != exp.calls:
            problems.append(f"{cold['complete_calls']} gateway calls, expected {exp.calls}")
        want_provider = exp.calls if mode == "record" else 0
        if cold["provider_calls"] != want_provider:
            problems.append(f"{cold['provider_calls']} provider calls, expected {want_provider}")
        if rerun["provider_calls"]:
            problems.append(f"no-op rerun made {rerun['provider_calls']} provider calls")
        if rerun["set_stage_calls"]:
            problems.append(f"no-op rerun ran {rerun['set_stage_calls']} stage(s) again")
        if result["transcript_growth"]:
            problems.append(f"no-op rerun grew the transcript by {result['transcript_growth']} bytes")
        if not result["artifacts_unchanged"]:
            problems.append("no-op rerun changed the run artifacts")
        if mode == "replay" and comparable_artifacts(out) != self.recorded:
            problems.append("replayed artifacts differ from those of the recording pass")
        self.problems += [f"[{self.name} seed {self.seed} rep {tag}] {p}" for p in problems]
        if tag != "prep":
            self.attempted += attempted
            self.failed += failed

    def prepare(self) -> None:
        # Compile faultloom's bytecode once, as an installed copy has it.
        self._spawn([sys.executable, "-c", "import faultloom.pipeline"])
        if self.workload.mode == "replay":
            self.repetition("prep", "record", "transcript.jsonl", traced=False, keep=True)
            self.recorded = comparable_artifacts(self.dir / "run-prep")
            shutil.rmtree(self.dir / "run-prep")

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def run(name: str, seed: int, seconds: float, traced: bool, smoke: bool = False) -> dict:
    """Repetitions for `seconds` (at least a few); medians of the metrics.

    A traced run alternates untraced and traced repetitions, so that the
    tracing overhead is measured within the run.
    """
    began = time.monotonic()
    bench = Bench(name, seed, smoke, deadline=began + RUN_LIMIT_S)
    try:
        bench.prepare()
        transcript = "transcript.jsonl" if bench.workload.mode == "replay" else None
        min_reps = 2 if smoke else (4 if traced else 3)
        plain, traced_reps = [], []
        measuring = time.monotonic()
        while True:
            i = len(plain) + len(traced_reps)
            with_trace = traced and i % 2 == 1
            rep = bench.repetition(str(i), bench.workload.mode, transcript or f"transcript-{i}.jsonl", with_trace)
            (traced_reps if with_trace else plain).append(rep)
            print(f"rep {i}{' traced' if with_trace else ''}: setup {rep['setup_s']:.3f} s, "
                  f"wall {rep['wall_s']:.3f} s, rerun {rep['mean_rerun_s']:.3f} s", file=sys.stderr)
            done = time.monotonic()
            took = (done - measuring) / (i + 1)
            if i + 1 >= min_reps and (done - measuring >= seconds or done + 1.5 * took > bench.deadline):
                break
    finally:
        bench.close()

    issues = bench.size.n_pos + bench.size.n_neg
    med = statistics.median
    end_to_end = {
        "setup_s": (med(r["setup_s"] for r in plain), "s"),
        "wall_s": (med(r["wall_s"] for r in plain), "s"),
        "rerun_s": (med(r["mean_rerun_s"] for r in plain), "s"),
        "llm_calls_per_issue": (med(r["cold"]["complete_calls"] / issues for r in plain), "calls/issue"),
        "tokens_per_issue": (med(r["cold"]["tokens"] / issues for r in plain), "tokens/issue"),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in plain), "MB"),
    }
    per_layer = {}
    if traced_reps:
        for metric in traced_reps[0]["layers"]:
            per_layer[metric] = (med(r["layers"][metric] for r in traced_reps), layer_unit(metric))
        per_layer["trace.overhead_s"] = (med(r["wall_s"] for r in traced_reps) - end_to_end["wall_s"][0], "s")
    return {
        "correct": not bench.problems, "problems": bench.problems,
        "attempted": bench.attempted, "failed": bench.failed,
        "repetitions": len(plain) + len(traced_reps),
        "end_to_end": end_to_end, "per_layer": per_layer,
    }


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("short_circuited"):
        return "ratio"
    if metric.endswith("prompt_chars"):
        return "chars"
    return "count"


def _metrics(figures: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in figures.items()}


def smoke() -> int:
    """Every workload at a tiny size, traced, with every check; also checks
    that the metric names agree with BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for name in WORKLOADS:
        started = time.monotonic()
        result = run(name, seed=1, seconds=0, traced=True, smoke=True)
        for kind, figures in (("end_to_end", result["end_to_end"]), ("per_layer", result["per_layer"])):
            declared = {m["name"]: m["unit"] for m in spec[kind]}
            measured = {n: u for n, (_, u) in figures.items()}
            if declared != measured:
                ok = False
                print(f"{name}: {kind} metrics differ from BENCHMARK.json: "
                      f"{sorted(set(declared.items()) ^ set(measured.items()))}")
        for problem in result["problems"]:
            print(problem)
        ok = ok and result["correct"] and result["failed"] == 0
        print(f"{name}: {'ok' if result['correct'] else 'FAILED'}, {result['attempted']} operations, "
              f"{result['failed']} failed, {time.monotonic() - started:.1f} s")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn (one result line each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (SRC / "faultloom" / "pipeline.py").is_file():
        print(f"no faultloom sources under {SRC}; run from the root of a faultloom checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required without --smoke")
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        try:
            result = run(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"{name}: benchmark failed: {exc}", file=sys.stderr)
            return 1
        for problem in result["problems"]:
            print(problem, file=sys.stderr)
        print(f"{name}: {result['repetitions']} repetitions", file=sys.stderr)
        figures = result["per_layer"] if args.trace else result["end_to_end"]
        line = {"correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"], "metrics": _metrics(figures)}
        print(json.dumps({"workload": name, **line} if args.workload == "all" else line), flush=True)
    return 0

if __name__ == "__main__":
    sys.exit(main())
