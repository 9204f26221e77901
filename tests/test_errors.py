"""Each error message, checked where it is raised: every case reaches its
raise site through public code and gets the class and the whole text."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from faultloom import errors
from faultloom.cli import main
from faultloom.config import load_config
from faultloom.corpus import export_dump, import_dump, load_gold, sample_balanced
from faultloom.errors import (
    ConfigError,
    CorpusError,
    EvaluationError,
    GatewayError,
    RecordInvariantError,
    ReplayMissError,
    RetriesExhaustedError,
    StageError,
    StructuredOutputError,
    TaxonomyError,
    TransientProviderError,
)
from faultloom.evaluation import hierarchical_accuracy, score_stage2, score_stage3
from faultloom.gateway import (
    ChatRequest,
    Gateway,
    OpenAICompatProvider,
    Transcript,
    extract_structured,
    provider_for_model,
    raise_transient,
    request_digest,
)
from faultloom.ingest import IssueFetcher
from faultloom.pipeline import Manifest, Runner
from faultloom.stage1 import ProjectCandidate, StudyPlan, StudyTheme, propose_study, score_plan
from faultloom.stage2 import FilterDecision
from faultloom.stage3 import FaultLabel
from faultloom.taxonomy import ancestors, load_taxonomy, resolve_label

from fakes import FakeTransport, FlakyProvider, ScriptedProvider
from gen import make_issue, synth_gold_balanced

GOLDEN = Path(__file__).parent / "fixtures" / "golden"
ISSUES_URL = "https://api.github.com/repos/acme/demo/issues"
REQ = ChatRequest(model_id="openai/gpt-4o", system_text="sys", user_text="hello")


def _node(node_id, name=None, children=(), definition="d"):
    return {"id": node_id, "name": name or node_id.upper(), "definition": definition, "children": list(children)}


def _taxonomy(*roots):
    return {"kind": "symptom", "nodes": list(roots)}


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def _dump(tmp, *lines):
    return import_dump(_write(tmp / "d.jsonl", "".join(line + "\n" for line in lines)))


def _issue_line(**fields):
    return json.dumps({**make_issue(number=1).to_dict(), **fields})


def _fetch(status, headers, body):
    transport = FakeTransport({ISSUES_URL: [(status, headers, body)]})
    IssueFetcher(transport=transport, sleep=lambda s: None).fetch_issues("acme/demo")


def _empty_plan(tmp):
    plan = json.dumps({"projects": [{"name": "TensorFlow.js"}], "research_questions": []})
    gateway = Gateway(mode="live", provider=ScriptedProvider([plan]))
    propose_study(StudyTheme(description="faults"), gateway, "openai/gpt-4o")


def _missing_key(tmp):
    OpenAICompatProvider("openai")


def _sample(tmp):
    corpus, gold = synth_gold_balanced(3, 3)
    sample_balanced([r.key for r in corpus], gold, 5, 1, seed=0)


def _two_dumps(tmp):
    """A config whose two dumps share the key acme/dlpipe#1."""
    export_dump([make_issue(number=1)], tmp / "a.jsonl")
    export_dump([make_issue(number=2), make_issue(number=1)], tmp / "b.jsonl")
    return _write(tmp / "config.yaml", "dumps: [a.jsonl, b.jsonl]\nmode: record\ntranscript: t.jsonl\nout: run\n")


def _deleted_dump(tmp):
    """A config whose dump is deleted after the config was loaded."""
    export_dump([make_issue(number=1)], tmp / "a.jsonl")
    config = load_config(_write(tmp / "config.yaml", "dumps: [a.jsonl]\nmode: record\ntranscript: t.jsonl\nout: run\n"))
    (tmp / "a.jsonl").unlink()
    Runner(config).run_corpus()


def _gold(tmp, *rows, header="repo,number,fault_related,symptom_leaf_id,root_cause_id"):
    return load_gold(_write(tmp / "gold.csv", "".join(line + "\n" for line in (header, *rows))))


def _missing_artifact(tmp):
    Runner(load_config(GOLDEN / "config.yaml", overrides={"out": str(tmp / "run")})).run_filter()


SHARED = _taxonomy(_node("a", children=[_node("a.x", "Crash")]), _node("b", children=[_node("b.x", "crash")]))

# (id, the call that raises, given the test's tmp_path; class; text, "{tmp}" standing for tmp_path)
CASES = [
    ("config without input", lambda tmp: load_config(_write(tmp / "c.yaml", "mode: replay\ntranscript: t.jsonl\n")),
     ConfigError, "config needs at least one dump path or repo"),
    ("unknown mode", lambda tmp: load_config(_write(tmp / "c.yaml", "dumps: [d.jsonl]\nmode: bogus\n")),
     ConfigError, "unknown mode: 'bogus'"),
    # taxonomy
    ("duplicate id", lambda tmp: load_taxonomy(_taxonomy(_node("a"), _node("a", "B"))),
     TaxonomyError, "duplicate taxonomy node id: 'a'"),
    ("duplicate sibling", lambda tmp: load_taxonomy(_taxonomy(_node("a", children=[_node("a.b", "Crash"),
                                                                                   _node("a.c", "crash")]))),
     TaxonomyError, "duplicate sibling name 'crash' under 'a'"),
    ("duplicate root", lambda tmp: load_taxonomy(_taxonomy(_node("a", "Crash"), _node("b", "Crash"))),
     TaxonomyError, "duplicate sibling name 'Crash' among roots"),
    ("empty definition", lambda tmp: load_taxonomy(_taxonomy(_node("a", definition=" "))),
     TaxonomyError, "node 'a' has an empty definition"),
    ("missing field", lambda tmp: load_taxonomy(_taxonomy(_node("a", children=[{"id": "a.b", "name": "B"}]))),
     TaxonomyError, "node missing required field 'definition' (child of a)"),
    ("too deep", lambda tmp: load_taxonomy(_taxonomy(_node("a", children=[_node("a.b", children=[
        _node("a.b.c", children=[_node("a.b.c.d")])])]))),
     TaxonomyError, "node 'a.b.c.d' sits at level 4, deeper than the allowed maximum of 3"),
    ("cycle", lambda tmp: load_taxonomy(_write(
        tmp / "t.yaml", "kind: symptom\nnodes:\n  - &a {id: a, name: A, definition: d, children: [*a]}\n")),
     TaxonomyError, "cycle detected at node 'a'"),
    ("label not found", lambda tmp: resolve_label(load_taxonomy(SHARED), "Leak"),
     TaxonomyError, "no taxonomy node named 'Leak'"),
    ("ambiguous label", lambda tmp: resolve_label(load_taxonomy(SHARED), "CRASH"),
     TaxonomyError, "label 'CRASH' matches multiple nodes: a.x, b.x"),
    ("foreign node", lambda tmp: ancestors(load_taxonomy(SHARED), load_taxonomy(SHARED).roots[0]),
     TaxonomyError, "node 'a' does not belong to this taxonomy"),
    ("unknown node id", lambda tmp: load_taxonomy(SHARED).node_by_id("zz"),
     TaxonomyError, "node 'zz' does not belong to this taxonomy"),
    ("unknown document key", lambda tmp: load_taxonomy({**_taxonomy(_node("a")), "leaf_levle": 1}),
     TaxonomyError, "taxonomy document has unknown key 'leaf_levle'"),
    ("unknown node key", lambda tmp: load_taxonomy(_taxonomy({**_node("a"), "childern": [_node("a.b")]})),
     TaxonomyError, "node 'a' has unknown key 'childern'"),
    ("taxonomy not a mapping", lambda tmp: load_taxonomy([_node("a")]),
     TaxonomyError, "taxonomy document must be a mapping"),
    ("unknown kind", lambda tmp: load_taxonomy({**_taxonomy(_node("a")), "kind": "cause"}),
     TaxonomyError, "unknown taxonomy kind: 'cause'"),
    ("no nodes list", lambda tmp: load_taxonomy({"kind": "symptom", "nodes": {"a": _node("a")}}),
     TaxonomyError, "taxonomy document has no 'nodes' list"),
    ("node not a mapping", lambda tmp: load_taxonomy(_taxonomy(_node("a", children=["a.b"]))),
     TaxonomyError, "node entry is not a mapping (child of a)"),
    ("children not a list", lambda tmp: load_taxonomy(_taxonomy({**_node("a"), "children": "a.b"})),
     TaxonomyError, "children of node 'a' is not a list"),
    ("leaf level 0", lambda tmp: load_taxonomy({**_taxonomy(_node("a")), "leaf_level": 0}),
     TaxonomyError, "leaf_level must be an integer in 1..3, not 0"),
    ("leaf level 7", lambda tmp: load_taxonomy({**_taxonomy(_node("a")), "leaf_level": 7}),
     TaxonomyError, "leaf_level must be an integer in 1..3, not 7"),
    ("leaf level true", lambda tmp: load_taxonomy({**_taxonomy(_node("a")), "leaf_level": True}),
     TaxonomyError, "leaf_level must be an integer in 1..3, not True"),
    ("leaf level text", lambda tmp: load_taxonomy({**_taxonomy(_node("a")), "leaf_level": "x"}),
     TaxonomyError, "leaf_level must be an integer in 1..3, not 'x'"),
    # corpus
    ("dump line not JSON", lambda tmp: _dump(tmp, _issue_line(), "{not json"),
     CorpusError, "{tmp}/d.jsonl line 2: invalid JSON: Expecting property name enclosed in double quotes: "
                  "line 1 column 2 (char 1)"),
    ("dump line not a record", lambda tmp: _dump(tmp, _issue_line(state="stale")),
     CorpusError, "{tmp}/d.jsonl line 1: acme/dlpipe#1: bad state 'stale'"),
    ("dump key twice", lambda tmp: _dump(tmp, _issue_line(), _issue_line()),
     CorpusError, "{tmp}/d.jsonl line 2: duplicate record key acme/dlpipe#1"),
    ("record invariant", lambda tmp: make_issue(number=0),
     RecordInvariantError, "acme/dlpipe: non-positive issue number 0"),
    ("corpus key twice", lambda tmp: Runner(load_config(_two_dumps(tmp))).run_corpus(),
     CorpusError, "duplicate record key acme/dlpipe#1"),
    ("gold row without label", lambda tmp: _gold(tmp, "acme/x,1,,,"),
     CorpusError, "gold row 2: no populated label field"),
    ("gold without a column", lambda tmp: _gold(tmp, "acme/x,1,true", header="repo,number,fault_related"),
     CorpusError, "gold file must have columns ['fault_related', 'number', 'repo', 'root_cause_id', "
                  "'symptom_leaf_id'], got ['repo', 'number', 'fault_related']"),
    ("gold bad issue number", lambda tmp: _gold(tmp, "acme/x,one,true,,"),
     CorpusError, "gold row 2: bad issue number"),
    ("gold key twice", lambda tmp: _gold(tmp, "acme/x,1,true,,", "acme/x,1,false,,"),
     CorpusError, "gold row 3: duplicate key acme/x#1"),
    ("gold fault_related not a boolean", lambda tmp: _gold(tmp, "acme/x,1,true,,", "acme/x,2, maybe,,"),
     CorpusError, "gold row 3: fault_related must be true or false, not ' maybe'"),
    ("short stratum", _sample,
     CorpusError, "stratum 'fault': requested 5 but only 3 available (shortfall 2)"),
    # tracker
    ("rate limit", lambda tmp: _fetch(403, {"X-RateLimit-Remaining": "0", "X-RateLimit-Reset": "1700000000"}, ""),
     CorpusError, "rate limit exhausted; resets at 1700000000"),
    ("tracker not 200", lambda tmp: _fetch(404, {}, '{"message": "Not Found"}'),
     CorpusError, f'HTTP 404 from {ISSUES_URL}: {{"message": "Not Found"}}'),
    ("tracker page not a list", lambda tmp: _fetch(200, {}, '{"message": "moved"}'),
     CorpusError, f"expected a JSON list from {ISSUES_URL}"),
    # gateway
    ("transient", lambda tmp: raise_transient(503, "https://api.example.test"),
     TransientProviderError, "HTTP 503 from https://api.example.test"),
    ("model id without provider", lambda tmp: provider_for_model("no-slash"),
     GatewayError, "unknown model id: 'no-slash'"),
    ("unknown provider", lambda tmp: provider_for_model("mystery/model"),
     GatewayError, "unknown model id: 'mystery'"),
    ("provider key not set", _missing_key,
     GatewayError, "FAULTLOOM_API_KEY_OPENAI is not set"),
    ("retries exhausted",
     lambda tmp: Gateway(mode="live", provider=FlakyProvider(9), sleep=lambda s: None).complete(REQ),
     RetriesExhaustedError, "provider failed after 4 attempts: rate limited"),
    ("replay miss", lambda tmp: Gateway(mode="replay", transcript=Transcript(tmp / "t.jsonl")).complete(REQ),
     ReplayMissError, f"transcript has no entry for request digest {request_digest(REQ)}"),
    ("unreadable transcript", lambda tmp: Transcript(_write(tmp / "t.jsonl", '{"entry": 1}\n')),
     GatewayError, "{tmp}/t.jsonl line 1: unreadable entry: 'response'"),
    ("no structured object", lambda tmp: extract_structured("prose only"),
     StructuredOutputError, "no well-formed structured object found in output"),
    ("missing fields", lambda tmp: extract_structured('{"c": 1}', {"c", "b", "a"}),
     StructuredOutputError, "structured object missing fields: a, b"),
    # evaluation
    ("no gold decision", lambda tmp: score_stage2([FilterDecision(repo="o/r", number=7, final=True)], {}),
     EvaluationError, "no gold fault_related value for o/r#7"),
    ("no gold label", lambda tmp: score_stage3([FaultLabel(repo="o/r", number=7, valid=False)], {},
                                               load_taxonomy(SHARED)),
     EvaluationError, "no gold symptom label for o/r#7"),
    ("no labels", lambda tmp: score_stage3([], {}, load_taxonomy(SHARED)),
     EvaluationError, "no labels to score"),
    ("no labels at a level", lambda tmp: hierarchical_accuracy([], {}, load_taxonomy(SHARED), 1),
     EvaluationError, "no labels to score"),
    ("level outside the taxonomy", lambda tmp: hierarchical_accuracy([FaultLabel(repo="o/r", number=7, valid=False)],
                                                                      {}, load_taxonomy(SHARED), 0),
     EvaluationError, "level must be in 1..3"),
    # stages
    ("empty plan", _empty_plan,
     StageError, "study plan needs at least one project and one research question"),
    ("empty reference", lambda tmp: score_plan(StudyPlan(projects=[ProjectCandidate(name="x")]), []),
     StageError, "reference project list is empty"),
    ("unreadable manifest", lambda tmp: Manifest(_write(tmp / "manifest.json", "[]")),
     StageError, "unreadable manifest {tmp}/manifest.json: no stages object"),
    ("input deleted after load", _deleted_dump,
     ConfigError, "referenced file does not exist: {tmp}/a.jsonl"),
    ("missing artifact", _missing_artifact,
     StageError, "missing upstream artifact {tmp}/run/sample.jsonl (needed by filter); run the producing stage first"),
]


def test_every_error_class_has_a_case():
    classes = {cls for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, Exception)}
    assert classes - {errors.FaultloomError} == {case[2] for case in CASES}


@pytest.mark.parametrize("raise_it, cls, text", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_each_message_where_it_is_raised(tmp_path, monkeypatch, raise_it, cls, text):
    monkeypatch.delenv("FAULTLOOM_API_KEY_OPENAI", raising=False)  # no case needs it, one needs it unset
    with pytest.raises(cls) as exc:
        raise_it(tmp_path)
    assert type(exc.value) is cls
    assert str(exc.value) == text.replace("{tmp}", str(tmp_path))


def test_import_of_two_dumps_sharing_a_key_exits_1(tmp_path):
    config = _two_dumps(tmp_path)
    result = CliRunner().invoke(main, ["import", "--config", str(config)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "error: duplicate record key acme/dlpipe#1" in result.stderr


def test_import_of_a_dump_and_a_repo_sharing_a_key_exits_1(tmp_path, monkeypatch):
    export_dump([make_issue(number=2), make_issue(number=1)], tmp_path / "a.jsonl")
    page = json.dumps([{**make_issue(number=1).to_dict(), "comments": 0}])
    url = "https://api.github.com/repos/acme/dlpipe/issues"
    monkeypatch.setattr("faultloom.ingest.requests_transport", FakeTransport({url: [(200, {}, page)]}))
    config = _write(tmp_path / "config.yaml",
                    "dumps: [a.jsonl]\nrepos: [acme/dlpipe]\nmode: record\ntranscript: t.jsonl\nout: run\n")
    result = CliRunner().invoke(main, ["import", "--config", str(config)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "error: duplicate record key acme/dlpipe#1" in result.stderr
