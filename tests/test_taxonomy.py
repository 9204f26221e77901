import copy

import pytest
import yaml

from faultloom.config import packaged_data_path
from faultloom.errors import TaxonomyError
from faultloom.taxonomy import (
    ancestors,
    ancestor_at_level,
    load_taxonomy,
    render_prompt_section,
    resolve_label,
)

from helpers import nodes_at_level


def _raw(kind: str) -> dict:
    name = "symptom_taxonomy.yaml" if kind == "symptom" else "root_cause_taxonomy.yaml"
    with open(packaged_data_path(name), "r", encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def test_symptom_fixture_counts(symptoms):
    assert len(symptoms.roots) == 5
    assert len(nodes_at_level(symptoms, 2)) == 15
    assert len(nodes_at_level(symptoms, 3)) == 15
    assert symptoms.leaf_level == 3


def test_root_cause_fixture_counts(root_causes):
    assert len(root_causes.roots) == 5
    assert len(nodes_at_level(root_causes, 2)) == 17
    assert root_causes.leaf_level == 2
    assert "Unknown" in [r.name for r in root_causes.roots]


def test_duplicate_id_rejected():
    raw = _raw("symptom")
    raw["nodes"][1]["id"] = raw["nodes"][0]["id"]
    with pytest.raises(TaxonomyError, match=f"^duplicate taxonomy node id: '{raw['nodes'][0]['id']}'$"):
        load_taxonomy(raw)


def test_missing_definition_rejected():
    raw = _raw("symptom")
    raw["nodes"][2]["children"][0]["definition"] = "   "
    node_id = raw["nodes"][2]["children"][0]["id"]
    with pytest.raises(TaxonomyError, match=f"^node '{node_id}' has an empty definition$"):
        load_taxonomy(raw)


def test_level_violation_rejected():
    raw = _raw("symptom")
    leaf = raw["nodes"][0]["children"][0]["children"][0]
    leaf["children"] = [
        {"id": "too-deep", "name": "Too Deep", "definition": "depth four node"}
    ]
    with pytest.raises(TaxonomyError, match="^node 'too-deep' sits at level 4, deeper than the allowed maximum of 3$"):
        load_taxonomy(raw)


def test_cycle_rejected_via_shared_alias():
    raw = _raw("symptom")
    # simulate a YAML alias cycle: a node reachable twice
    raw["nodes"][0]["children"].append(raw["nodes"][0]["children"][0])
    with pytest.raises(TaxonomyError, match="^cycle detected at node "):
        load_taxonomy(raw)


def test_duplicate_sibling_name_rejected():
    raw = _raw("root_cause")
    children = raw["nodes"][0]["children"]
    children[1]["name"] = children[0]["name"]
    children[1]["id"] = "still-unique"
    with pytest.raises(TaxonomyError, match=f"^duplicate sibling name '{children[0]['name']}' under "):
        load_taxonomy(raw)


def test_missing_required_field_rejected():
    raw = _raw("root_cause")
    del raw["nodes"][3]["children"][0]["name"]
    with pytest.raises(TaxonomyError, match=r"^node missing required field 'name' \(child of "):
        load_taxonomy(raw)


def test_resolve_label_case_and_whitespace(symptoms):
    node = resolve_label(symptoms, "  memory   leak ")
    assert node.name == "Memory Leak"
    leaf = resolve_label(symptoms, "DL Operator Exception")
    path = ancestors(symptoms, leaf)
    assert [n.name for n in path] == ["Crash", "Reference Error", "DL Operator Exception"]


def test_resolve_label_is_exact_not_substring(symptoms):
    with pytest.raises(TaxonomyError, match="^no taxonomy node named 'Memory'$"):
        resolve_label(symptoms, "Memory")


def test_resolve_label_absent(symptoms):
    with pytest.raises(TaxonomyError, match="^no taxonomy node named 'Nonexistent Category'$"):
        resolve_label(symptoms, "Nonexistent Category")


def test_resolve_label_ambiguous():
    raw = _raw("symptom")
    # same normalized name on two different branches
    raw["nodes"][0]["children"][0]["children"][0]["name"] = "Shared Name"
    raw["nodes"][1]["children"][0]["children"][0]["name"] = "shared  name"
    taxonomy = load_taxonomy(raw)
    with pytest.raises(TaxonomyError, match="^label 'Shared Name' matches multiple nodes: "):
        resolve_label(taxonomy, "Shared Name")


def test_resolve_round_trip_every_node(symptoms, root_causes):
    for taxonomy in (symptoms, root_causes):
        for node in taxonomy.walk():
            assert resolve_label(taxonomy, node.name) is node


def test_ancestors_root_is_itself(symptoms):
    root = symptoms.roots[0]
    assert ancestors(symptoms, root) == [root]


def test_ancestors_rejects_foreign_node(symptoms):
    other = load_taxonomy(packaged_data_path("symptom_taxonomy.yaml"))
    foreign = other.roots[0]
    with pytest.raises(TaxonomyError, match=f"^node '{foreign.id}' does not belong to this taxonomy$"):
        ancestors(symptoms, foreign)


def test_leaf_path_lengths(symptoms, root_causes):
    for leaf in nodes_at_level(symptoms, 3):
        assert len(ancestors(symptoms, leaf)) == 3
    for leaf in root_causes.leaves():
        assert len(ancestors(root_causes, leaf)) <= 2


def test_ancestor_at_level_clamps_to_shallow_nodes(root_causes):
    unknown = root_causes.node_by_id("unknown")
    assert ancestor_at_level(root_causes, unknown, 2) is unknown


def test_render_is_deterministic(symptoms):
    assert render_prompt_section(symptoms) == render_prompt_section(symptoms)


def test_render_minimal_tree():
    taxonomy = load_taxonomy(
        {
            "kind": "symptom",
            "source": "test",
            "nodes": [
                {
                    "id": "a",
                    "name": "Alpha",
                    "definition": "first",
                    "children": [{"id": "b", "name": "Beta", "definition": "second"}],
                }
            ],
        }
    )
    assert render_prompt_section(taxonomy) == "- Alpha: first\n  - Beta: second\n"


def test_render_matches_golden(symptoms, request):
    golden = request.config.rootpath / "tests" / "fixtures" / "golden_symptom_outline.txt"
    assert render_prompt_section(symptoms) == golden.read_text(encoding="utf-8")


def test_single_field_mutations_rejected():
    """Property-style sweep: mutate one field at a time, expect a rejection."""
    mutations = []
    for kind in ("symptom", "root_cause"):
        base = _raw(kind)
        for idx in range(len(base["nodes"])):
            for build, expected in (
                (lambda r, i=idx: r["nodes"][i].update(id=r["nodes"][(i + 1) % len(r["nodes"])]["id"]),
                 "^duplicate taxonomy node id: "),
                (lambda r, i=idx: r["nodes"][i].update(definition=""), "has an empty definition$"),
                (lambda r, i=idx: r["nodes"][i].pop("name"), "^node missing required field 'name' "),
                (lambda r, i=idx: r["nodes"][i].update(name=r["nodes"][(i + 1) % len(r["nodes"])]["name"]),
                 "^duplicate sibling name .* among roots$"),
            ):
                mutations.append((kind, build, expected))
    assert len(mutations) >= 20
    for kind, build, expected in mutations:
        raw = copy.deepcopy(_raw(kind))
        build(raw)
        with pytest.raises(TaxonomyError, match=expected):
            load_taxonomy(raw)
