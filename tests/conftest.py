"""Shared fixtures: a small research-network example graph.

Five nodes and seven edges: two papers and three researchers, connected by
Author/Colleague/PhDDirector/Reviewer edges, with a mix of sparse attributes
(names, titles, universities, topics) and dense ones (positions, expertise
levels, project counts).
"""

import pytest

from attk2.io import InputBundle
from attk2.k2 import _leaf_pos, _rect_leaves

# external ids are chosen so the static build's internal ids coincide with
# them (elements are already listed in (label, ext id) order)
NODE_SCHEMA = [
    ("Paper", [("Title", False), ("Topic", False)]),
    ("Researcher", [("Name", False), ("Position", True), ("University", False)]),
]
EDGE_SCHEMA = [
    ("Author", []),
    ("Colleague", [("Projects", True)]),
    ("PhDDirector", []),
    ("Reviewer", [("Expertise", True)]),
]
NODES = [
    ("1", "Paper", [("Title", "Compressing graphs"), ("Topic", "Graph compression")]),
    ("2", "Paper", [("Title", "Graph databases"), ("Topic", "Databases")]),
    (
        "3",
        "Researcher",
        [("Name", "P. García"), ("University", "Madrid"), ("Position", "Lecturer")],
    ),
    (
        "4",
        "Researcher",
        [("Name", "J. Boy"), ("University", "Coruña"), ("Position", "Chair")],
    ),
    (
        "5",
        "Researcher",
        [("Name", "S. Gómez"), ("University", "Coruña"), ("Position", "Chair")],
    ),
]
EDGES = [
    ("1", "Author", "3", "1", []),
    ("2", "Author", "5", "1", []),
    ("3", "Author", "5", "2", []),
    ("4", "Colleague", "4", "5", [("Projects", "5-10")]),
    ("5", "PhDDirector", "4", "5", []),
    ("6", "Reviewer", "3", "2", [("Expertise", "Medium")]),
    ("7", "Reviewer", "4", "2", [("Expertise", "High")]),
]

RELATION_TRIPLES = [
    (1, 3, 1),
    (2, 5, 1),
    (3, 5, 2),
    (4, 4, 5),
    (5, 4, 5),
    (6, 3, 2),
    (7, 4, 2),
]


def running_bundle() -> InputBundle:
    return InputBundle(
        [(lab, list(atts)) for lab, atts in NODE_SCHEMA],
        [(lab, list(atts)) for lab, atts in EDGE_SCHEMA],
        [(e, lab, list(atts)) for e, lab, atts in NODES],
        [(e, lab, s, t, list(atts)) for e, lab, s, t, atts in EDGES],
    )


@pytest.fixture
def bundle() -> InputBundle:
    return running_bundle()


@pytest.fixture
def store(bundle):
    from attk2.graph import build_graph

    return build_graph(bundle)


# Reads that only tests need, written over the reads the package runs: the
# point descent, the rectangle descent and the whole-structure decode.


def cell(tree, r: int, c: int) -> int:
    """1 when cell (r, c) of a k²-tree is set, else 0."""
    return int(_leaf_pos(tree, r - 1, c - 1) > 0)


def leaf_ordinal(tree, r: int, c: int) -> int:
    """1-based levelwise ordinal of cell (r, c)'s one among L's ones; 0 when
    the cell is not set."""
    return _leaf_pos(tree, r - 1, c - 1)


def cells_in(tree, r1: int, r2: int, c1: int, c2: int) -> list[tuple[int, int]]:
    """The set cells inside the rectangle, in (row, col) order."""
    return [(r, c) for r, c, _ in _rect_leaves(tree, r1 - 1, r2 - 1, c1 - 1, c2 - 1)]


def edges_between(rel, u: int, v: int) -> list[int]:
    """Ascending edge ids from u to v of a relations layer."""
    return [e for e, r, c in rel.all_triples() if (r, c) == (u, v)]
