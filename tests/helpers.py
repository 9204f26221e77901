"""Views of taxonomies and confusion matrices that only the tests read."""

from __future__ import annotations

from faultloom.evaluation import ConfusionMatrix
from faultloom.taxonomy import Taxonomy, TaxonomyNode


def nodes_at_level(taxonomy: Taxonomy, level: int) -> list[TaxonomyNode]:
    return [n for n in taxonomy.walk() if n.level == level]


def row_sums(matrix: ConfusionMatrix) -> dict[str, int]:
    return {c: sum(row) for c, row in zip(matrix.classes, matrix.counts)}
