"""Fake providers that answer from the benchmark's answer plan.

Each answer depends only on the request text: the issue key it names, which
stage asks, and how many repair notes the prompt carries. Call order and
thread timing therefore cannot change any outcome. Tokens are sized from
characters (4 per token), so a longer or shorter prompt shows in the counts.
"""

from __future__ import annotations

import json
import re
import threading
import time
from pathlib import Path

from faultloom.gateway import ChatRequest, ChatResponse

ISSUE_KEY_RE = re.compile(r"Issue: (\S+#\d+)")
FILTER_REPAIR_NOTE = "Your previous answer could not be parsed"
CLASSIFY_REPAIR_NOTE = "Your previous answer was rejected"


def tokens(text: str) -> int:
    return max(1, (len(text) + 3) // 4)


class AnsweringProvider:
    """Answers filter and classification prompts as the plan says, first
    with the planned bad answers, then with the intended one. `delay_s` is
    slept on every call, so the fake can stand in for a slow model."""

    def __init__(self, answers_path: Path, delay_s: float = 0.0):
        raw = json.loads(Path(answers_path).read_text(encoding="utf-8"))
        self.plan = raw["issues"]
        self.non_leaf = raw["non_leaf"]
        self.delay_s = delay_s
        self._lock = threading.Lock()
        self.calls = 0
        self.in_flight = 0
        self.peak_concurrency = 0

    def send(self, request: ChatRequest) -> ChatResponse:
        with self._lock:
            self.calls += 1
            self.in_flight += 1
            self.peak_concurrency = max(self.peak_concurrency, self.in_flight)
        try:
            if self.delay_s:
                time.sleep(self.delay_s)
            text = self.answer(request.user_text)
        finally:
            with self._lock:
                self.in_flight -= 1
        return ChatResponse(
            text=text,
            input_tokens=tokens(request.system_text) + tokens(request.user_text),
            output_tokens=tokens(text),
        )

    def answer(self, prompt: str) -> str:
        match = ISSUE_KEY_RE.search(prompt)
        if match is None:
            raise ValueError(f"prompt names no issue: {prompt[:80]!r}")
        plan = self.plan[match.group(1)]
        if '"symptom"' in prompt:
            attempt = prompt.count(CLASSIFY_REPAIR_NOTE)
            bad = plan["classify_bad"]
            if attempt < len(bad):
                return self._bad_label(bad[attempt])
            return json.dumps({
                "symptom": plan["symptom_name"], "root_cause": plan["root_cause_name"],
                "rationale": "planned answer",
            })
        attempt = prompt.count(FILTER_REPAIR_NOTE)
        bad = plan["filter_bad"]
        if attempt < len(bad):
            if bad[attempt] == "malformed":
                return 'Sure. {"fault_related": true, "rationale": "cut off'
            return json.dumps({"verdict": True})
        return json.dumps({"fault_related": plan["verdict"], "rationale": "planned answer"})

    def _bad_label(self, kind: str) -> str:
        if kind == "malformed":
            return '```json\n{"symptom": "Crash", "root_cause":\n```'
        if kind == "non_leaf":
            return json.dumps({"symptom": self.non_leaf["symptom"], "root_cause": self.non_leaf["root_cause"]})
        return json.dumps({"symptom": "Spontaneous Combustion", "root_cause": "Cosmic Rays"})
