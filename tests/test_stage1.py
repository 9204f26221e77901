import json

import pytest

from faultloom.errors import StageError, StructuredOutputError
from faultloom.gateway import Gateway
from faultloom.stage1 import (
    ProjectCandidate,
    StudyPlan,
    StudyTheme,
    normalize_project_name,
    load_reference_projects,
    propose_study,
    score_plan,
)

from fakes import ScriptedProvider

MODEL = "openai/gpt-4o"
THEME = StudyTheme(description="JavaScript-based DL system faults")


def _gateway(texts):
    return Gateway(mode="live", provider=ScriptedProvider(texts), sleep=lambda s: None)


def _plan_json(projects, questions=("How do faults distribute across symptoms?",)):
    return json.dumps(
        {
            "projects": [{"name": p, "url": None, "rationale": "popular"} for p in projects],
            "research_questions": list(questions),
        }
    )


def test_propose_study_parses_plan():
    gateway = _gateway([_plan_json(["TensorFlow.js", "Magenta.js"])])
    plan = propose_study(THEME, gateway, MODEL)
    assert [p.name for p in plan.projects] == ["TensorFlow.js", "Magenta.js"]
    assert plan.research_questions


def test_propose_study_merges_duplicates():
    gateway = _gateway([_plan_json(["Teachable Machine", "teachable  machine", "Magenta.js"])])
    plan = propose_study(THEME, gateway, MODEL)
    assert [p.name for p in plan.projects] == ["Teachable Machine", "Magenta.js"]


def test_propose_study_repairs_then_errors():
    provider = ScriptedProvider(["prose only", "still prose", "and again"])
    gateway = Gateway(mode="live", provider=provider, sleep=lambda s: None)
    with pytest.raises(StructuredOutputError):
        propose_study(THEME, gateway, MODEL)
    assert provider.calls == 3  # initial + 2 repair retries


def test_propose_study_repair_recovers():
    provider = ScriptedProvider(["no json here", _plan_json(["TensorFlow.js"])])
    gateway = Gateway(mode="live", provider=provider, sleep=lambda s: None)
    plan = propose_study(THEME, gateway, MODEL)
    assert plan.projects[0].name == "TensorFlow.js"
    assert provider.calls == 2


def test_normalize_project_name():
    assert normalize_project_name("TensorFlow.js") == normalize_project_name("Tensorflow JS")
    assert normalize_project_name("tensorflowjs") == normalize_project_name("TensorFlow.js")
    assert normalize_project_name("Magenta.js") != normalize_project_name("TensorFlow.js")


def _plan(names):
    return StudyPlan(
        projects=[ProjectCandidate(name=n) for n in names],
        research_questions=["rq"],
    )


REFERENCE = [
    "TensorFlow.js",
    "third-party DL libraries",
    "58 JavaScript-based DL applications",
]


def test_score_plan_recall_one_third():
    score = score_plan(_plan(["TensorFlow.js"]), REFERENCE)
    assert score.recall == pytest.approx(1 / 3)
    assert score.hits == ["TensorFlow.js"]
    assert set(score.misses) == {
        "third-party DL libraries",
        "58 JavaScript-based DL applications",
    }
    assert score.extras == []


def test_score_plan_identity():
    score = score_plan(_plan(REFERENCE), REFERENCE)
    assert score.recall == 1.0
    assert score.misses == [] and score.extras == []


def test_score_plan_disjoint():
    score = score_plan(_plan(["Unrelated"]), REFERENCE)
    assert score.recall == 0.0
    assert score.extras == ["Unrelated"]


def test_score_plan_empty_reference():
    with pytest.raises(StageError, match="reference project list is empty"):
        score_plan(_plan(["x"]), [])


def test_score_plan_order_invariant():
    names = ["TensorFlow.js", "Magenta.js", "Teachable Machine"]
    forward = score_plan(_plan(names), REFERENCE)
    backward = score_plan(_plan(list(reversed(names))), REFERENCE)
    assert forward.recall == backward.recall
    assert forward.misses == backward.misses
    assert set(forward.extras) == set(backward.extras)


def test_recall_monotone_under_additions():
    small = score_plan(_plan(["TensorFlow.js"]), REFERENCE)
    bigger = score_plan(_plan(["TensorFlow.js", "third-party DL libraries"]), REFERENCE)
    assert bigger.recall >= small.recall


@pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "byte-order-mark"])
def test_reference_file_parsing(tmp_path, mark):
    path = tmp_path / "reference.txt"
    path.write_bytes(mark + b"# comment line\nTensorFlow.js\n\nMagenta.js  # inline\n")
    assert load_reference_projects(path) == ["TensorFlow.js", "Magenta.js"]


@pytest.mark.parametrize("answer, error", [
    ({"projects": "tfjs", "research_questions": ["q"]}, "expected an array, not str"),
    ({"projects": [{"url": "https://example.test"}], "research_questions": ["q"]}, "'missing or null: name'"),
    ({"projects": ["tfjs"], "research_questions": ["q"]}, "expected an object, not str"),
])
def test_propose_study_asks_again_for_a_plan_of_the_wrong_shape(answer, error):
    provider = ScriptedProvider([json.dumps(answer), _plan_json(["TensorFlow.js"])])
    plan = propose_study(THEME, Gateway(mode="live", provider=provider, sleep=lambda s: None), MODEL)
    assert [p.name for p in plan.projects] == ["TensorFlow.js"]
    assert provider.calls == 2
    assert f"could not be parsed (not a study plan: {error})" in provider.requests[1].user_text


def test_propose_study_never_given_a_plan_raises_structured_output_error():
    answer = json.dumps({"projects": "tfjs", "research_questions": ["q"]})
    with pytest.raises(StructuredOutputError, match="^not a study plan: expected an array, not str$"):
        propose_study(THEME, _gateway([answer] * 3), MODEL)
