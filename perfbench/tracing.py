"""Spans recorded from outside faultloom, and the per-layer figures derived
from them.

`install` wraps public functions where the pipeline looks them up: names
that `faultloom.pipeline` or a stage module imported at import time are
patched in the importing module, methods on their class. Each call records
one span (name, start, end, parent span, thread). A call on a pool thread
with no open span of its own takes as parent the span open on the main
thread, which is the stage that started the pool.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread, value)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.get_ident() == self._main else []
            self._local.stack = stack
        return stack

    def wrap(self, name: str, fn, value=None):
        """`fn` recording a span per call; `value(result)` is kept with it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (tracer._main_stack[-1] if tracer._main_stack else 0)
            span = next(tracer._ids)
            stack.append(span)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((span, name, start, end, parent, threading.get_ident(),
                                     value(result) if value and result is not None else None))

        return traced

    def patch(self, owner, attr: str, name: str, value=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), value))

    def take(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of faultloom. Call before load_config."""
    from faultloom import config, gateway, pipeline, stage2, stage3

    tracer.patch(config, "load_config", "config.load_config")
    tracer.patch(pipeline, "import_dump", "corpus.import_dump", len)
    tracer.patch(pipeline, "export_dump", "corpus.export_dump")
    tracer.patch(pipeline, "sample_balanced", "corpus.sample_balanced")
    tracer.patch(pipeline, "load_gold", "corpus.load_gold")
    tracer.patch(stage2, "run_stage2", "stage2.run_stage2")
    tracer.patch(stage2, "apply_deterministic", "stage2.apply_deterministic")
    tracer.patch(stage2, "build_filter_prompt", "stage2.build_filter_prompt")
    tracer.patch(stage2, "extract_structured", "gateway.extract_structured")
    tracer.patch(stage3, "run_stage3", "stage3.run_stage3")
    tracer.patch(stage3, "build_classification_prompt", "stage3.build_classification_prompt",
                 lambda r: len(r.system_text) + len(r.user_text))
    tracer.patch(stage3, "render_prompt_section", "taxonomy.render_prompt_section")
    tracer.patch(stage3, "extract_structured", "gateway.extract_structured")
    tracer.patch(pipeline, "load_taxonomy", "taxonomy.load_taxonomy")
    tracer.patch(gateway.Gateway, "complete", "gateway.complete")
    tracer.patch(gateway, "request_digest", "gateway.request_digest")
    tracer.patch(gateway.RateLimiter, "__enter__", "gateway.limiter")
    tracer.patch(gateway.Transcript, "__init__", "gateway.transcript_load")
    tracer.patch(gateway.Transcript, "record", "gateway.transcript_record")
    tracer.patch(gateway.Transcript, "lookup", "gateway.transcript_lookup")
    tracer.patch(pipeline, "score_stage2", "evaluation.score_stage2")
    tracer.patch(pipeline, "score_stage3", "evaluation.score_stage3")
    tracer.patch(pipeline.Runner, "run_pipeline", "pipeline.run_pipeline")
    for stage in ("corpus", "sample", "filter", "classify", "evaluate"):
        tracer.patch(pipeline.Runner, f"run_{stage}", f"pipeline.{stage}")
    tracer.patch(pipeline.Runner, "build_report", "pipeline.build_report")
    tracer.patch(pipeline.Manifest, "save", "pipeline.manifest_save")
    tracer.patch(pipeline.Manifest, "set_stage", "pipeline.set_stage")


def write_spans(path: Path, phases: dict[str, list[tuple]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for phase, spans in phases.items():
            for span in spans:
                fh.write(json.dumps([phase, *span]) + "\n")


def layer_figures(spans: list[tuple]) -> dict[str, float]:
    """Busy time, call counts and self time per layer for one pipeline pass.

    Busy time sums span durations across threads. A span's self time is its
    duration minus the part of its interval that its child spans, on any
    thread, cover; a layer's self time sums that over the layer's spans.
    """
    by_id = {s[0]: s for s in spans}
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    values: dict[str, float] = defaultdict(float)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, name, start, end, parent, thread, value in spans:
        calls[name] += 1
        busy[name] += end - start
        values[name] += value or 0
        if parent in by_id:
            children[parent].append((start, end))

    def stage_of(span: tuple) -> str | None:
        while span is not None:
            if span[1] in ("pipeline.filter", "pipeline.classify"):
                return span[1]
            span = by_id.get(span[4])
        return None

    complete_in: dict[str | None, int] = defaultdict(int)
    for span in spans:
        if span[1] == "gateway.complete":
            complete_in[stage_of(span)] += 1
    self_time: dict[str, float] = defaultdict(float)
    for sid, name, start, end, *_ in spans:
        self_time[name.split(".")[0]] += (end - start) - _covered(children[sid], start, end)

    judged = calls["stage2.build_filter_prompt"]
    screened = calls["stage2.apply_deterministic"]
    classified = calls["stage3.build_classification_prompt"]
    final_report = [s for s in spans if s[1] == "pipeline.build_report" and by_id.get(s[4], (0, ""))[1] == "pipeline.run_pipeline"]
    stage_spans = [s for s in spans if s[1] in {f"pipeline.{n}" for n in ("corpus", "sample", "filter", "classify", "evaluate")}]
    writers = {by_id[s[4]][0] for s in spans if s[1] == "pipeline.set_stage" and s[4] in by_id}
    out = {
        "config.load_config_s": busy["config.load_config"],
        "corpus.import_dump_s": busy["corpus.import_dump"],
        "corpus.import_dump_calls": calls["corpus.import_dump"],
        "corpus.records_parsed": values["corpus.import_dump"],
        "corpus.export_dump_s": busy["corpus.export_dump"],
        "corpus.sample_balanced_s": busy["corpus.sample_balanced"],
        "corpus.load_gold_s": busy["corpus.load_gold"],
        "corpus.load_gold_calls": calls["corpus.load_gold"],
        "stage2.apply_deterministic_s": busy["stage2.apply_deterministic"],
        "stage2.apply_deterministic_calls": screened,
        "stage2.build_filter_prompt_s": busy["stage2.build_filter_prompt"],
        "stage2.run_stage2_s": busy["stage2.run_stage2"],
        "stage2.llm_judged": judged,
        "stage2.repair_attempts": complete_in["pipeline.filter"] - judged,
        "stage2.short_circuited": (screened - judged) / screened if screened else 0.0,
        "stage3.build_classification_prompt_s": busy["stage3.build_classification_prompt"],
        "stage3.prompt_chars": values["stage3.build_classification_prompt"] / classified if classified else 0.0,
        "stage3.repair_attempts": complete_in["pipeline.classify"] - classified,
        "stage3.run_stage3_s": busy["stage3.run_stage3"],
        "taxonomy.load_taxonomy_s": busy["taxonomy.load_taxonomy"],
        "taxonomy.load_taxonomy_calls": calls["taxonomy.load_taxonomy"],
        "taxonomy.render_prompt_section_s": busy["taxonomy.render_prompt_section"],
        "taxonomy.render_prompt_section_calls": calls["taxonomy.render_prompt_section"],
        "gateway.complete_s": busy["gateway.complete"],
        "gateway.complete_calls": calls["gateway.complete"],
        "gateway.provider_calls": calls["gateway.provider"],
        "gateway.provider_wait_s": busy["gateway.provider"],
        "gateway.limiter_wait_s": busy["gateway.limiter"],
        "gateway.request_digest_s": busy["gateway.request_digest"],
        "gateway.extract_structured_s": busy["gateway.extract_structured"],
        "gateway.transcript_record_s": busy["gateway.transcript_record"],
        "gateway.transcript_load_s": busy["gateway.transcript_load"],
        "gateway.transcript_lookups": calls["gateway.transcript_lookup"],
        "evaluation.score_stage2_s": busy["evaluation.score_stage2"],
        "evaluation.score_stage3_s": busy["evaluation.score_stage3"],
        "evaluation.score_calls": calls["evaluation.score_stage2"] + calls["evaluation.score_stage3"],
        "pipeline.run_pipeline_s": busy["pipeline.run_pipeline"],
        "pipeline.final_report_s": sum(s[3] - s[2] for s in final_report),
        "pipeline.build_report_calls": calls["pipeline.build_report"],
        "pipeline.manifest_saves": calls["pipeline.manifest_save"],
        "pipeline.skipped_stages": sum(1 for s in stage_spans if s[0] not in writers),
        "trace.spans": len(spans),
    }
    for stage in ("corpus", "sample", "filter", "classify", "evaluate"):
        out[f"pipeline.{stage}_s"] = busy[f"pipeline.{stage}"]
    for layer in ("config", "corpus", "stage2", "stage3", "taxonomy", "gateway", "evaluation", "pipeline"):
        out[f"{layer}.self_s"] = self_time[layer]
    return out


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of `intervals` within [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
