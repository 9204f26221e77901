"""Hierarchical fault taxonomies: loading, validation, traversal, rendering.

A taxonomy is a fixed 3-level category tree (primary category, subcategory,
specific type). It is loaded once from a YAML document and treated as
immutable afterwards, so instances are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from .config import load_yaml
from .errors import TaxonomyError

MAX_LEVEL = 3

# Scoring granularity per taxonomy kind: symptoms are scored at specific-type
# leaves, root causes at subcategory level.
DEFAULT_LEAF_LEVEL = {"symptom": 3, "root_cause": 2}

# The keys a taxonomy document and each of its nodes may hold; a misspelled
# key is an error, not a setting or a subtree left out.
DOCUMENT_KEYS = ("kind", "source", "leaf_level", "nodes")
NODE_KEYS = ("id", "name", "definition", "children")


def normalize_label(label: str) -> str:
    """Case-fold and collapse whitespace so LLM-emitted names compare stably."""
    return " ".join(label.split()).casefold()


@dataclass(frozen=True)
class TaxonomyNode:
    id: str
    name: str
    definition: str
    level: int
    children: tuple["TaxonomyNode", ...] = ()


@dataclass
class Taxonomy:
    kind: str
    roots: tuple[TaxonomyNode, ...]
    leaf_level: int
    _by_id: dict[str, TaxonomyNode] = field(default_factory=dict, repr=False)
    # Each node id's path of nodes from its root down to the node, inclusive.
    _path: dict[str, tuple[TaxonomyNode, ...]] = field(default_factory=dict, repr=False)
    _by_name: dict[str, list[TaxonomyNode]] = field(default_factory=dict, repr=False)

    def walk(self) -> Iterator[TaxonomyNode]:
        """All nodes in document order, depth first."""
        stack = list(reversed(self.roots))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def node_by_id(self, node_id: str) -> TaxonomyNode:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise TaxonomyError(f"node {node_id!r} does not belong to this taxonomy") from None

    def is_leaf_granularity(self, node: TaxonomyNode) -> bool:
        """Whether a node is a valid classification target.

        Targets are nodes at the leaf level, plus shallower nodes with no
        children (e.g. a root-cause primary like "Unknown" that was never
        subdivided).
        """
        if node.level == self.leaf_level:
            return True
        return not node.children and node.level < self.leaf_level

    def leaves(self) -> list[TaxonomyNode]:
        return [n for n in self.walk() if self.is_leaf_granularity(n)]


def _build_node(raw: Any, level: int, seen_ids: set[str], seen_objs: set[int], context: str) -> TaxonomyNode:
    if not isinstance(raw, dict):
        raise TaxonomyError(f"node entry is not a mapping ({context})")
    if id(raw) in seen_objs:
        raise TaxonomyError(f"cycle detected at node {str(raw.get('id', '<unknown>'))!r}")
    seen_objs.add(id(raw))

    for key in ("id", "name", "definition"):
        if key not in raw or raw[key] is None:
            raise TaxonomyError(f"node missing required field {key!r} ({context})")
    node_id = str(raw["id"])
    name = str(raw["name"])
    definition = str(raw["definition"]).strip()
    if unknown := [key for key in raw if key not in NODE_KEYS]:
        raise TaxonomyError(f"node {node_id!r} has unknown key {unknown[0]!r}")

    if node_id in seen_ids:
        raise TaxonomyError(f"duplicate taxonomy node id: {node_id!r}")
    seen_ids.add(node_id)
    if not definition:
        raise TaxonomyError(f"node {node_id!r} has an empty definition")
    if level > MAX_LEVEL:
        raise TaxonomyError(
            f"node {node_id!r} sits at level {level}, deeper than the allowed maximum of {MAX_LEVEL}"
        )

    raw_children = raw.get("children") or []
    if not isinstance(raw_children, list):
        raise TaxonomyError(f"children of node {node_id!r} is not a list")
    children = _build_siblings(
        raw_children, level + 1, seen_ids, seen_objs, f"child of {node_id}", f"under {node_id!r}"
    )
    return TaxonomyNode(id=node_id, name=name, definition=definition, level=level, children=children)


def _build_siblings(
    raws: list, level: int, seen_ids: set[str], seen_objs: set[int], context: str, where: str
) -> tuple[TaxonomyNode, ...]:
    """The nodes of the sibling entries `raws`, at `level`: two siblings whose
    names normalize alike are a TaxonomyError that names the second and
    `where` they are ("among roots", "under '<parent id>'")."""
    nodes, names = [], set()
    for raw in raws:
        node = _build_node(raw, level, seen_ids, seen_objs, context)
        if normalize_label(node.name) in names:
            raise TaxonomyError(f"duplicate sibling name {node.name!r} {where}")
        names.add(normalize_label(node.name))
        nodes.append(node)
    return tuple(nodes)


def load_taxonomy(document: str | Path | dict) -> Taxonomy:
    """Load and validate a taxonomy from a YAML file path or a parsed mapping.

    Raises a TaxonomyError whose message names the offending node for
    duplicate ids, missing definitions, level violations, and cycles, and
    the key for a key it does not read or a `leaf_level` that is not an
    integer in 1..MAX_LEVEL.
    """
    raw = load_yaml(document) if isinstance(document, (str, Path)) else document
    if not isinstance(raw, dict):
        raise TaxonomyError("taxonomy document must be a mapping")
    if unknown := [key for key in raw if key not in DOCUMENT_KEYS]:
        raise TaxonomyError(f"taxonomy document has unknown key {unknown[0]!r}")

    kind = raw.get("kind")
    if kind not in ("symptom", "root_cause"):
        raise TaxonomyError(f"unknown taxonomy kind: {kind!r}")
    leaf_level = raw.get("leaf_level", DEFAULT_LEAF_LEVEL[kind])
    if type(leaf_level) is not int or not 1 <= leaf_level <= MAX_LEVEL:
        raise TaxonomyError(f"leaf_level must be an integer in 1..{MAX_LEVEL}, not {leaf_level!r}")
    raw_roots = raw.get("nodes")
    if not isinstance(raw_roots, list) or not raw_roots:
        raise TaxonomyError("taxonomy document has no 'nodes' list")

    roots = _build_siblings(raw_roots, 1, set(), set(), "root", "among roots")
    taxonomy = Taxonomy(kind=kind, roots=roots, leaf_level=leaf_level)
    for node in taxonomy.walk():
        taxonomy._by_id[node.id] = node
        taxonomy._by_name.setdefault(normalize_label(node.name), []).append(node)
        # The walk reaches a parent before its children; a root's path is itself.
        path = taxonomy._path.setdefault(node.id, (node,))
        taxonomy._path.update((child.id, path + (child,)) for child in node.children)
    return taxonomy


def resolve_label(taxonomy: Taxonomy, label: str) -> TaxonomyNode:
    """Exact-name lookup, case-insensitive with whitespace normalization."""
    matches = taxonomy._by_name.get(normalize_label(label), [])
    if not matches:
        raise TaxonomyError(f"no taxonomy node named {label!r}")
    if len(matches) > 1:
        raise TaxonomyError(f"label {label!r} matches multiple nodes: {', '.join(n.id for n in matches)}")
    return matches[0]


def ancestors(taxonomy: Taxonomy, node: TaxonomyNode) -> list[TaxonomyNode]:
    """Path from a root down to the node, inclusive."""
    if taxonomy._by_id.get(node.id) is not node:
        raise TaxonomyError(f"node {node.id!r} does not belong to this taxonomy")
    return list(taxonomy._path[node.id])


def ancestor_at_level(taxonomy: Taxonomy, node: TaxonomyNode, level: int) -> TaxonomyNode:
    """Ancestor of a node at the given level; the node itself if shallower."""
    path = ancestors(taxonomy, node)
    return path[min(level, len(path)) - 1]


def render_prompt_section(taxonomy: Taxonomy) -> str:
    """Deterministic depth-indented outline of names and definitions."""
    lines = []
    for node in taxonomy.walk():
        indent = "  " * (node.level - 1)
        lines.append(f"{indent}- {node.name}: {node.definition}")
    return "\n".join(lines) + "\n"
