import json

import pytest

from faultloom.errors import GatewayError, ReplayMissError
from faultloom.gateway import Gateway, Transcript, request_digest
from faultloom.stage2 import DEFAULT_CHAR_BUDGET, DEFAULT_COMMENT_BUDGET
from faultloom.stage3 import (
    build_classification_prompt,
    run_stage3,
)
from faultloom.taxonomy import ancestors, render_prompt_section

from fakes import CountingProvider, ScriptedProvider
from gen import make_issue
from helpers import nodes_at_level

MODEL = "openai/gpt-4o"

VALID_ANSWER = json.dumps(
    {"symptom": "Memory Leak", "root_cause": "Unimplemented Operator", "rationale": "r"}
)


BUDGETS = {"comment_budget": DEFAULT_COMMENT_BUDGET, "char_budget": DEFAULT_CHAR_BUDGET}


def _gateway(texts):
    provider = CountingProvider(ScriptedProvider(texts))
    return Gateway(mode="live", provider=provider, sleep=lambda s: None), provider


def _outlines(symptoms, root_causes):
    return render_prompt_section(symptoms), render_prompt_section(root_causes)


def _prompt(issue, symptoms, root_causes, comment_budget=DEFAULT_COMMENT_BUDGET, char_budget=DEFAULT_CHAR_BUDGET):
    return build_classification_prompt(issue, MODEL, _outlines(symptoms, root_causes), comment_budget, char_budget)


def _classify(symptoms, root_causes, gateway):
    (label,) = run_stage3([make_issue()], symptoms, root_causes, gateway, MODEL, **BUDGETS)
    return label


def test_prompt_deterministic(symptoms, root_causes):
    issue = make_issue()
    a = _prompt(issue, symptoms, root_causes)
    b = _prompt(issue, symptoms, root_causes)
    assert a == b and request_digest(a) == request_digest(b)


def test_prompt_contains_all_symptom_leaves(symptoms, root_causes):
    prompt = _prompt(make_issue(), symptoms, root_causes)
    for leaf in nodes_at_level(symptoms, 3):
        assert leaf.name in prompt.user_text
    assert len(nodes_at_level(symptoms, 3)) == 15


def test_prompt_offers_unknown_root_cause(symptoms, root_causes):
    prompt = _prompt(make_issue(), symptoms, root_causes)
    assert "- Unknown:" in prompt.user_text


@pytest.mark.parametrize(
    "bodies, budgets, shown",
    [
        ([f"comment {i}" for i in range(30)], {"comment_budget": 12}, 12),
        (["x" * 500] * 30, {"comment_budget": 12, "char_budget": 4000}, 8),
    ],
)
def test_prompt_honours_comment_and_char_budgets(symptoms, root_causes, bodies, budgets, shown):
    issue = make_issue(comment_bodies=bodies)
    prompt = _prompt(issue, symptoms, root_causes, **budgets)
    assert prompt.user_text.count("- [MEMBER] ") == shown
    assert f"[{30 - shown} more comment(s) truncated]" in prompt.user_text


def test_classify_valid_label(symptoms, root_causes):
    gateway, provider = _gateway([VALID_ANSWER])
    label = _classify(symptoms, root_causes, gateway)
    assert label.valid is True
    assert label.symptom_leaf == "poor-performance.abnormal-memory-usage.memory-leak"
    assert label.root_cause == "incorrect-programming.unimplemented-operator"
    assert label.attempts == 1
    assert provider.calls == 1


def test_classify_rejects_non_leaf_then_repairs(symptoms, root_causes):
    coarse = json.dumps({"symptom": "Crash", "root_cause": "Unknown", "rationale": "r"})
    gateway, provider = _gateway([coarse, VALID_ANSWER])
    label = _classify(symptoms, root_causes, gateway)
    assert label.valid is True
    assert label.attempts == 2
    assert provider.calls == 2


def test_classify_unknown_root_cause_is_a_valid_leaf(symptoms, root_causes):
    answer = json.dumps({"symptom": "Memory Leak", "root_cause": "Unknown", "rationale": "r"})
    gateway, _ = _gateway([answer])
    label = _classify(symptoms, root_causes, gateway)
    assert label.valid is True
    assert label.root_cause == "unknown"


def test_classify_reads_a_null_rationale_as_empty(symptoms, root_causes):
    answer = json.dumps({"symptom": "Memory Leak", "root_cause": "Unknown", "rationale": None})
    gateway, _ = _gateway([answer])
    label = _classify(symptoms, root_causes, gateway)
    assert label.valid is True and label.rationale == ""


def test_classify_unresolvable_label_exhausts_budget(symptoms, root_causes):
    bogus = json.dumps({"symptom": "Quantum Error", "root_cause": "Cosmic Rays", "rationale": "r"})
    gateway, provider = _gateway([bogus, bogus, bogus])
    label = _classify(symptoms, root_causes, gateway)
    assert label.valid is False
    assert label.symptom_leaf is None and label.root_cause is None
    assert label.attempts == 3
    assert provider.calls == 3
    assert "Quantum Error" in label.raw_output


def test_classify_malformed_then_recovers(symptoms, root_causes):
    gateway, provider = _gateway(["no json at all", VALID_ANSWER])
    label = _classify(symptoms, root_causes, gateway)
    assert label.valid is True and label.attempts == 2
    assert provider.calls == 2


def test_classify_call_budget_is_one_to_three(symptoms, root_causes):
    cases = [
        [VALID_ANSWER],
        ["junk", VALID_ANSWER],
        ["junk", "junk", "junk"],
    ]
    for texts in cases:
        gateway, provider = _gateway(list(texts))
        _classify(symptoms, root_causes, gateway)
        assert 1 <= provider.calls <= 3


def test_valid_label_granularity_round_trips(symptoms, root_causes):
    gateway, _ = _gateway([VALID_ANSWER])
    label = _classify(symptoms, root_causes, gateway)
    symptom_node = symptoms.node_by_id(label.symptom_leaf)
    root_node = root_causes.node_by_id(label.root_cause)
    assert len(ancestors(symptoms, symptom_node)) == 3
    assert len(ancestors(root_causes, root_node)) <= 2


def test_run_stage3_order_and_a_failed_call_naming_its_issue(symptoms, root_causes, tmp_path):
    issues = [make_issue(number=i) for i in range(1, 6)]
    provider = ScriptedProvider([VALID_ANSWER] * 5)
    path = tmp_path / "t.jsonl"
    recorder = Gateway(mode="record", transcript=Transcript(path), provider=provider, parallelism=4)
    labels = run_stage3(issues, symptoms, root_causes, recorder, MODEL, **BUDGETS)
    recorder.transcript.close()
    assert [l.key for l in labels] == [i.key for i in issues]
    assert all(l.valid for l in labels)

    # drop issue 3's entry: the batch fails and names it, with no label for any issue
    digest = request_digest(_prompt(issues[2], symptoms, root_causes))
    lines = [line for line in path.read_text().splitlines() if digest not in line]
    assert len(lines) == 4
    path.write_text("\n".join(lines) + "\n")
    gateway = Gateway(mode="replay", transcript=Transcript(path))
    with pytest.raises(GatewayError) as caught:
        run_stage3(issues, symptoms, root_causes, gateway, MODEL, **BUDGETS)
    assert str(caught.value) == f"acme/dlpipe#3: ReplayMissError: transcript has no entry for request digest {digest}"
    assert isinstance(caught.value.__cause__, ReplayMissError)


def test_run_stage3_renders_each_taxonomy_once(symptoms, root_causes, monkeypatch):
    import faultloom.stage3 as stage3

    issues = [make_issue(number=i) for i in range(1, 6)]
    expected = [_prompt(i, symptoms, root_causes) for i in issues]
    rendered, prompts = [], []
    render, build = stage3.render_prompt_section, stage3.build_classification_prompt
    monkeypatch.setattr(stage3, "render_prompt_section", lambda t: rendered.append(t) or render(t))
    monkeypatch.setattr(
        stage3, "build_classification_prompt",
        lambda *args: prompts.append(build(*args)) or prompts[-1],
    )
    gateway, _ = _gateway([VALID_ANSWER] * 5)
    labels = run_stage3(issues, symptoms, root_causes, gateway, MODEL, **BUDGETS)
    assert all(l.valid for l in labels)
    assert rendered == [symptoms, root_causes]
    assert prompts == expected


def test_run_stage3_empty_input(symptoms, root_causes):
    gateway, _ = _gateway([])
    assert run_stage3([], symptoms, root_causes, gateway, MODEL, **BUDGETS) == []
