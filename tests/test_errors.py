"""Each error's text and attributes, and two errors no other test raises."""

from pathlib import Path

import pytest
from click.testing import CliRunner

from faultloom import errors
from faultloom.cli import main
from faultloom.corpus import Corpus, export_dump
from faultloom.taxonomy import load_taxonomy

from gen import make_issue

LAST_ERROR = errors.TransientProviderError("HTTP 503")

# (class, positional arguments as the raise sites pass them, text, attributes)
CASES = [
    ("DuplicateIdError", ("a.b",), "duplicate taxonomy node id: 'a.b'", {"node_id": "a.b"}),
    ("DuplicateNameError", ("Crash", "under 'a'"), "duplicate sibling name 'Crash' under 'a'", {"name": "Crash"}),
    ("DuplicateNameError", ("Crash", "among roots"), "duplicate sibling name 'Crash' among roots", {"name": "Crash"}),
    ("MissingDefinitionError", ("a",), "node 'a' has an empty definition", {"node_id": "a"}),
    (
        "MissingFieldInNodeError", ("definition", "child of a"),
        "node missing required field 'definition' (child of a)", {"field": "definition"},
    ),
    (
        "LevelViolationError", ("a.b.c.d.e", 5, 4),
        "node 'a.b.c.d.e' sits at level 5, deeper than the allowed maximum of 4", {"node_id": "a.b.c.d.e"},
    ),
    ("CyclicStructureError", ("a",), "cycle detected at node 'a'", {"node_id": "a"}),
    ("LabelNotFoundError", ("Crash",), "no taxonomy node named 'Crash'", {"label": "Crash"}),
    (
        "AmbiguousLabelError", ("Crash", ["a", "b"]),
        "label 'Crash' matches multiple nodes: a, b", {"label": "Crash", "node_ids": ["a", "b"]},
    ),
    ("NodeMembershipError", ("a",), "node 'a' does not belong to this taxonomy", {"node_id": "a"}),
    (
        "DumpFormatError", (Path("d.jsonl"), 3, "invalid JSON: x"),
        "d.jsonl line 3: invalid JSON: x", {"line_no": 3, "reason": "invalid JSON: x"},
    ),
    ("DuplicateRecordError", (("o/r", 7),), "duplicate record key o/r#7", {"key": ("o/r", 7)}),
    (
        "SamplingError", ("fault", 5, 3),
        "stratum 'fault': requested 5 but only 3 available (shortfall 2)",
        {"stratum": "fault", "requested": 5, "available": 3},
    ),
    (
        "RateLimitExhaustedError", ("2021-06-01T00:00:00Z",),
        "rate limit exhausted; resets at 2021-06-01T00:00:00Z", {"reset_at": "2021-06-01T00:00:00Z"},
    ),
    ("UnknownModelError", ("x",), "unknown model id: 'x'", {"model_id": "x"}),
    (
        "RetriesExhaustedError", (4, LAST_ERROR),
        "provider failed after 4 attempts: HTTP 503", {"attempts": 4, "last_error": LAST_ERROR},
    ),
    ("ReplayMissError", ("abc",), "transcript has no entry for request digest abc", {"digest": "abc"}),
    ("TranscriptError", ("t.jsonl", 2, "unreadable entry: x"), "t.jsonl line 2: unreadable entry: x", {"line_no": 2}),
    ("NoStructuredObjectError", (), "no well-formed structured object found in output", {}),
    ("MissingFieldsError", (["b", "a"],), "structured object missing fields: a, b", {"missing": ["a", "b"]}),
    (
        "MissingGoldError", (("o/r", 7), "fault_related value"),
        "no gold fault_related value for o/r#7", {"key": ("o/r", 7)},
    ),
    (
        "MissingArtifactError", ("run/sample.jsonl", "filter"),
        "missing upstream artifact run/sample.jsonl (needed by filter); run the producing stage first",
        {"path": "run/sample.jsonl", "needed_by": "filter"},
    ),
]


def test_every_error_class_with_a_message_has_a_case():
    with_message = {
        name for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.FaultloomError) and cls.message is not None
    }
    assert with_message == {case[0] for case in CASES}


@pytest.mark.parametrize("name, args, text, attributes", CASES, ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)])
def test_error_text_and_attributes(name, args, text, attributes):
    error = getattr(errors, name)(*args)
    assert str(error) == text
    for attribute, value in attributes.items():
        assert getattr(error, attribute) == value
        assert type(getattr(error, attribute)) is type(value), attribute


def test_error_without_a_message_keeps_its_text():
    error = errors.ConfigError("no vocabulary file configured")
    assert str(error) == "no vocabulary file configured"
    assert error.args == ("no vocabulary file configured",)


def test_recursive_yaml_alias_is_a_cyclic_structure(tmp_path):
    path = tmp_path / "taxonomy.yaml"
    path.write_text("kind: symptom\nnodes:\n  - &a {id: a, name: A, definition: d, children: [*a]}\n")
    with pytest.raises(errors.CyclicStructureError) as exc:
        load_taxonomy(path)
    assert str(exc.value) == "cycle detected at node 'a'"
    assert exc.value.node_id == "a"


def test_import_of_two_dumps_sharing_a_key_exits_1(tmp_path):
    export_dump(Corpus(records=[make_issue(number=1)]), tmp_path / "a.jsonl")
    export_dump(Corpus(records=[make_issue(number=2), make_issue(number=1)]), tmp_path / "b.jsonl")
    config = tmp_path / "config.yaml"
    config.write_text("dumps: [a.jsonl, b.jsonl]\nmode: record\ntranscript: t.jsonl\nout: run\n")
    result = CliRunner().invoke(main, ["import", "--config", str(config)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "error: duplicate record key acme/dlpipe#1" in result.stderr
