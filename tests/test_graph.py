"""Static store facade: the worked research-network example plus randomized
oracle equivalence."""

import random

import pytest

from attk2.errors import InputError, NotFoundError
from attk2.gen import generate
from attk2.graph import EDGE, NODE, UNDEFINED, build_graph
from attk2.oracle import NaiveStore

from conftest import edges_between, running_bundle


def test_get_types(store):
    assert store.get_types(NODE) == ["Paper", "Researcher"]
    assert store.get_types(EDGE) == ["Author", "Colleague", "PhDDirector", "Reviewer"]


def test_scan(store):
    assert list(store.scan(NODE, "Researcher")) == [3, 4, 5]
    assert list(store.scan(NODE, "Paper")) == [1, 2]
    assert list(store.scan(EDGE, "Reviewer")) == [6, 7]
    with pytest.raises(NotFoundError):
        store.scan(NODE, "Venue")


def test_edge_id_ranges(store):
    assert store.edge_schema.ids_of("Author") == (1, 3)
    assert store.edge_schema.ids_of("Colleague") == (4, 4)
    assert store.edge_schema.ids_of("PhDDirector") == (5, 5)
    assert store.edge_schema.ids_of("Reviewer") == (6, 7)


def test_get_type(store):
    assert store.get_type(NODE, 4) == "Researcher"
    assert store.get_type(EDGE, 6) == "Reviewer"
    with pytest.raises(IndexError):
        store.get_type(NODE, 6)


def test_get_attribute(store):
    assert store.get_attribute(NODE, 3, "Title") is UNDEFINED
    assert store.get_attribute(NODE, 3, "Name") == "P. García"
    assert store.get_attribute(EDGE, 6, "Expertise") == "Medium"
    assert store.get_attribute(EDGE, 4, "Projects") == "5-10"
    assert store.get_attribute(EDGE, 5, "Expertise") is UNDEFINED
    assert store.get_attribute(EDGE, 1, "Projects") is UNDEFINED


def test_select(store):
    assert store.select(NODE, "Paper", "Title", "Compressing graphs") == [1]
    assert store.select(NODE, "Paper", "Title", "No such paper") == []
    assert store.select(NODE, "Researcher", "Position", "Chair") == [4, 5]
    assert store.select(NODE, "Researcher", "Position", "Lecturer") == [3]
    assert store.select(NODE, "Researcher", "University", "Coruña") == [4, 5]
    assert store.select(NODE, "Paper", "Position", "Chair") is UNDEFINED
    with pytest.raises(NotFoundError):
        store.select(NODE, "Venue", "Name", "x")


def test_neighbors(store):
    assert store.neighbors("Researcher", 4) == [5]
    # the relations hold edge (7, 4, 2), so node 4 does point at paper 2
    assert store.neighbors("Paper", 4) == [2]
    assert store.neighbors("Paper", 1) == []
    assert store.neighbors("Researcher", 1) == []


def test_related(store):
    assert store.related("Author", 3) == [1]
    assert store.related("Reviewer", 3) == [2]
    assert store.related("Author", 1) == []
    assert store.related("PhDDirector", 4) == [5]
    assert store.related("Colleague", 4) == [5]


def test_relations_layer_shape(store):
    assert edges_between(store.relations, 4, 5) == [4, 5]
    assert store.relations.multi.to_bits() == [0, 0, 0, 1, 0, 0]
    assert store.relations.more.tolist() == [4, 5]


def test_build_rejects_schema_violation():
    bundle = running_bundle()
    bundle.nodes[0][2].append(("Position", "Chair"))  # Position not in Paper schema
    with pytest.raises(InputError) as err:
        build_graph(bundle)
    assert "Position" in str(err.value)


def test_an_attribute_given_twice_is_rejected_by_both_stores():
    from attk2.queries import replay_bundle

    bundle = running_bundle()
    bundle.nodes[2][2].append(("Name", "P. Garcia"))  # node 3's sparse Name, again
    for build in (build_graph, replay_bundle):
        with pytest.raises(InputError, match="attribute 'Name' given twice"):
            build(bundle)


def test_build_rejects_an_attribute_of_two_kinds():
    from attk2.io import InputBundle

    # x dense under node label A and sparse under node label B, then sparse
    # under an edge label
    nodes = [("1", "A", [("x", "p")]), ("2", "B", [("x", "q")])]
    for node_b, edges in (([("x", False)], []), ([], [("x", False)])):
        bundle = InputBundle(
            [("A", [("x", True)]), ("B", node_b)], [("R", edges)], nodes[: 1 + bool(node_b)], []
        )
        with pytest.raises(InputError, match="'x' is declared both dense and sparse"):
            build_graph(bundle)


def test_build_minimal_empty_graph():
    from attk2.io import InputBundle

    bundle = InputBundle([("Lonely", [])], [("Link", [])], [], [])
    g = build_graph(bundle)
    assert g.get_types(NODE) == ["Lonely"]
    assert list(g.scan(NODE, "Lonely")) == []
    assert g.node_schema.count == 0


def _compare_all(g, oracle, rng, probes=300):
    node_labels = oracle.get_types(NODE)
    edge_labels = oracle.get_types(EDGE)
    n = len(oracle.node_labels)
    e = len(oracle.edge_labels)
    atts = ["attr%02d" % i for i in range(1, 7)] + ["bogus"]
    assert g.get_types(NODE) == node_labels
    assert g.get_types(EDGE) == edge_labels
    for lab in node_labels:
        assert list(g.scan(NODE, lab)) == oracle.scan(NODE, lab)
    for lab in edge_labels:
        assert list(g.scan(EDGE, lab)) == oracle.scan(EDGE, lab)
    for _ in range(probes):
        i = rng.randint(1, n)
        assert g.get_type(NODE, i) == oracle.get_type(NODE, i)
        j = rng.randint(1, e)
        assert g.get_type(EDGE, j) == oracle.get_type(EDGE, j)
        att = rng.choice(atts)
        assert g.get_attribute(NODE, i, att) == oracle.get_attribute(NODE, i, att)
        assert g.get_attribute(EDGE, j, att) == oracle.get_attribute(EDGE, j, att)
        lab = rng.choice(node_labels)
        value = g.get_attribute(NODE, i, att)
        probe_value = value if isinstance(value, str) else "v%08d" % rng.randint(1, 99)
        assert g.select(NODE, lab, att, probe_value) == oracle.select(
            NODE, lab, att, probe_value
        )
        lab = rng.choice(node_labels)
        assert g.neighbors(lab, i) == oracle.neighbors(lab, i)
        elab = rng.choice(edge_labels)
        assert g.related(elab, i) == oracle.related(elab, i)


def test_oracle_equivalence_randomized():
    for seed in (11, 12):
        data = generate(
            nodes=200, edges=900, node_types=3, edge_types=4, attrs=6, seed=seed,
            queries_per_kind=0,
        )
        g = build_graph(data.bundle)
        oracle = NaiveStore.from_bundle(data.bundle)
        _compare_all(g, oracle, random.Random(seed))


def test_alternate_arity_matches_default(bundle):
    g2 = build_graph(bundle, k=2)
    g4 = build_graph(bundle, k=4)
    assert g4.relations.base.k == 4
    for kind in (NODE, EDGE):
        assert g4.get_types(kind) == g2.get_types(kind)
        schema = g2.node_schema if kind == NODE else g2.edge_schema
        for label in g4.get_types(kind):
            assert list(g4.scan(kind, label)) == list(g2.scan(kind, label))
        for i in range(1, schema.count + 1):
            assert g4.get_type(kind, i) == g2.get_type(kind, i)
            for att in ("Name", "Title", "Position", "Expertise", "Projects"):
                assert g4.get_attribute(kind, i, att) == g2.get_attribute(kind, i, att)
    for u in range(1, 6):
        for lab in g2.get_types(NODE):
            assert g4.neighbors(lab, u) == g2.neighbors(lab, u)
        for elab in g2.get_types(EDGE):
            assert g4.related(elab, u) == g2.related(elab, u)
    assert edges_between(g4.relations, 4, 5) == [4, 5]


def test_select_get_attribute_closure(store):
    for kind, labels in ((NODE, ["Paper", "Researcher"]), (EDGE, ["Reviewer"])):
        for label in labels:
            for att, _dense in (
                store.node_schema if kind == NODE else store.edge_schema
            ).attrs_of(label):
                lo, hi = (
                    store.node_schema if kind == NODE else store.edge_schema
                ).ids_of(label)
                for i in range(lo, hi + 1):
                    value = store.get_attribute(kind, i, att)
                    if isinstance(value, str):
                        assert i in store.select(kind, label, att, value)


def test_neighbors_partition(store):
    for u in range(1, 6):
        all_cols = store.relations.neighbor_cols(u, 1, 5)
        per_label = [store.neighbors(lab, u) for lab in store.get_types(NODE)]
        merged = sorted(c for part in per_label for c in part)
        assert merged == all_cols
        for elab in store.get_types(EDGE):
            assert set(store.related(elab, u)) <= set(all_cols)
