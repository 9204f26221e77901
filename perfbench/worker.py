"""One benchmark repetition in a fresh interpreter: set up, a cold pass,
then no-op reruns in the same run directory.

Usage: python3 worker.py JOB_JSON RESULT_JSON

The job names the config, the answer plan, the provider delay, the number
of reruns and whether to trace. `ready` (CLOCK_MONOTONIC once the Runner
exists) lets the parent compute set-up time from the moment it started this
process.
"""

import hashlib
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

# Work a no-op rerun still repeats; each is reported as `<layer>.rerun_<name>`.
RERUN_FIGURES = (
    "corpus.import_dump_calls", "corpus.records_parsed", "corpus.load_gold_calls",
    "taxonomy.load_taxonomy_calls", "evaluation.score_calls", "pipeline.build_report_calls",
)


def main() -> None:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    from faultloom import config as fl_config
    from faultloom.pipeline import Runner

    config = fl_config.load_config(job["config"])
    runner = Runner(config)
    ready = time.monotonic()

    from fakes import AnsweringProvider

    import faultloom

    if not Path(faultloom.__file__).resolve().is_relative_to(Path(job["src"]).resolve()):
        raise SystemExit(f"faultloom imported from {faultloom.__file__}, not from {job['src']}")
    provider = AnsweringProvider(Path(job["answers"]), job["delay_s"])
    if tracer:
        provider.send = tracer.wrap("gateway.provider", provider.send)
    counts = _count_calls()
    # The provider is attached after `ready` so that reading the answer plan
    # stays out of set-up time; the gateway picks it up on first use.
    runner.provider = provider

    started = time.perf_counter()
    runner.run_pipeline()
    wall_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cold = dict(counts, provider_calls=provider.calls, peak_concurrency=provider.peak_concurrency)
    cold_spans = tracer.take() if tracer else []
    transcript = Path(config.transcript_path)
    cold_files = _hashes(config.out_dir)
    cold_transcript = transcript.stat().st_size

    counts.update(complete_calls=0, tokens=0, set_stage_calls=0)
    provider.calls = 0
    # A no-op rerun is short, so the job asks for several; the traced figures
    # come from the first. Each rerun is pinned to the next CPU this process
    # may use, in turn, so that every repetition samples each core alike: on
    # a shared host one core can be a third slower than another at one moment.
    rerun_times = []
    cpus = sorted(os.sched_getaffinity(0))
    for attempt in range(job["reruns"]):
        os.sched_setaffinity(0, {cpus[attempt % len(cpus)]})
        rerunner = Runner(config, provider=provider)
        started = time.perf_counter()
        rerunner.run_pipeline()
        rerun_times.append(time.perf_counter() - started)
        if attempt == 0:
            rerun_spans = tracer.take() if tracer else []
    os.sched_setaffinity(0, cpus)
    rerun = dict(counts, provider_calls=provider.calls)

    result = {
        "ready": ready, "wall_s": wall_s, "rerun_s": rerun_times, "peak_rss_mb": peak_rss_mb,
        "cold": cold, "rerun": rerun,
        "artifacts_unchanged": _hashes(config.out_dir) == cold_files,
        "transcript_growth": transcript.stat().st_size - cold_transcript,
    }
    if tracer:
        figures = tracing.layer_figures(cold_spans)
        figures["gateway.peak_concurrency"] = cold["peak_concurrency"]
        again = tracing.layer_figures(rerun_spans)
        figures["pipeline.skipped_stages"] = again["pipeline.skipped_stages"]
        for name in RERUN_FIGURES:
            figures[name.replace(".", ".rerun_", 1)] = again[name]
        result["layers"] = figures
        tracing.write_spans(Path(job["spans"]), {"cold": cold_spans, "rerun": rerun_spans})
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")


def _count_calls() -> dict:
    """Count Gateway.complete calls with their tokens, and manifest stage
    writes (one per stage that ran), into the returned dict."""
    from faultloom.gateway import Gateway
    from faultloom.pipeline import Manifest

    counts = {"complete_calls": 0, "tokens": 0, "set_stage_calls": 0}
    lock = threading.Lock()
    complete, set_stage = Gateway.complete, Manifest.set_stage

    def counted_complete(self, request):
        response = complete(self, request)
        with lock:
            counts["complete_calls"] += 1
            counts["tokens"] += response.input_tokens + response.output_tokens
        return response

    def counted_set_stage(self, *args, **kwargs):
        counts["set_stage_calls"] += 1
        return set_stage(self, *args, **kwargs)

    Gateway.complete, Manifest.set_stage = counted_complete, counted_set_stage
    return counts


def _hashes(run_dir) -> dict[str, str]:
    out = {}
    for path in sorted(Path(run_dir).rglob("*")):
        if path.is_file() and path.name != "run.lock":
            out[str(path.relative_to(run_dir))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


if __name__ == "__main__":
    main()
