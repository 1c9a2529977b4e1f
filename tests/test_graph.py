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
    with pytest.raises(NotFoundError):
        store.get_type(NODE, 6)


def test_an_id_never_allocated_is_not_found_in_all_three_stores():
    """Ids 0 and one past the last of each kind: every read that takes an
    element id, and the two stores' `set_attribute`, raise NotFoundError."""
    from attk2.queries import replay_bundle

    bundle = running_bundle()
    stores = [
        build_graph(bundle),
        replay_bundle(bundle).graph,
        NaiveStore.from_bundle(bundle),
    ]
    for store in stores:
        for kind, count in ((NODE, 5), (EDGE, 7)):
            for elem in (0, count + 1):
                with pytest.raises(NotFoundError):
                    store.get_type(kind, elem)
                with pytest.raises(NotFoundError):
                    store.get_attribute(kind, elem, "Name")
                if hasattr(store, "set_attribute"):
                    with pytest.raises(NotFoundError):
                        store.set_attribute(kind, elem, "Name", "x")
        for node in (0, 6):
            with pytest.raises(NotFoundError):
                store.neighbors("Paper", node)
            with pytest.raises(NotFoundError):
                store.related("Author", node)


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


# One row per bundle rule (`check_bundle`): the fault, then the entry it is
# reported at by default and in the text written by `write_bundle`, then the
# message that follows.
BUNDLE_FAULTS = [
    pytest.param(
        lambda b: b.node_schema.append(("Paper", [("Title", False), ("Topic", False)])),
        "node label 'Paper'", "schema.tsv:3", "duplicate label 'Paper'",
        id="repeated-label",
    ),
    pytest.param(
        lambda b: b.edge_schema[1][1].append(("Projects", True)),
        "edge label 'Colleague'", "schema.tsv:4", "duplicate attribute 'Projects'",
        id="repeated-attribute",
    ),
    pytest.param(  # sparse under Paper, then dense under Researcher
        lambda b: b.node_schema[0][1].append(("Position", False)),
        "node label 'Researcher'", "schema.tsv:2",
        "attribute 'Position' is declared both dense and sparse",
        id="sparse-then-dense",
    ),
    pytest.param(  # dense under Researcher, then sparse under an edge label
        lambda b: b.edge_schema[0][1].append(("Position", False)),
        "edge label 'Author'", "schema.tsv:3",
        "attribute 'Position' is declared both dense and sparse",
        id="dense-then-sparse",
    ),
    pytest.param(
        lambda b: b.nodes.append(("1", "Paper", [])),
        "node '1'", "nodes.tsv:6", "duplicate node id '1'",
        id="repeated-node-id",
    ),
    pytest.param(
        lambda b: b.edges.append(("7", "Author", "3", "1", [])),
        "edge '7'", "edges.tsv:8", "duplicate edge id '7'",
        id="repeated-edge-id",
    ),
    pytest.param(
        lambda b: b.nodes.append(("9", "Ghost", [])),
        "node '9'", "nodes.tsv:6", "undeclared label 'Ghost'",
        id="undeclared-label",
    ),
    pytest.param(  # a node label is not an edge label
        lambda b: b.edges.append(("8", "Paper", "3", "1", [])),
        "edge '8'", "edges.tsv:8", "undeclared label 'Paper'",
        id="undeclared-edge-label",
    ),
    pytest.param(
        lambda b: b.nodes[0][2].append(("Position", "Chair")),
        "node '1'", "nodes.tsv:1", "attribute 'Position' is not in the schema of label 'Paper'",
        id="attribute-outside-the-schema",
    ),
    pytest.param(
        lambda b: b.nodes[2][2].append(("Name", "P. Garcia")),
        "node '3'", "nodes.tsv:3", "attribute 'Name' given twice",
        id="attribute-given-twice",
    ),
    pytest.param(
        lambda b: b.edges.__setitem__(0, ("1", "Author", "nope", "1", [])),
        "edge '1'", "edges.tsv:1", "unknown source node 'nope'",
        id="endpoint-not-a-node",
    ),
]


@pytest.mark.parametrize("fault, entry, line, message", BUNDLE_FAULTS)
def test_every_entry_point_rejects_a_bundle_fault_alike(tmp_path, fault, entry, line, message):
    from attk2.io import load_input, write_bundle
    from attk2.queries import replay_bundle

    bundle = running_bundle()
    fault(bundle)
    for build in (build_graph, replay_bundle):
        with pytest.raises(InputError) as err:
            build(bundle)
        assert type(err.value) is InputError
        assert str(err.value) == f"{entry}: {message}"
    write_bundle(tmp_path, bundle)
    with pytest.raises(InputError) as err:
        load_input(tmp_path)
    assert type(err.value) is InputError
    assert str(err.value) == f"{line}: {message}"


def test_an_edge_to_an_unknown_node_is_rejected_by_both_stores(tmp_path, capsys):
    from attk2.cli import main
    from attk2.io import write_bundle
    from attk2.queries import replay_bundle

    bundle = running_bundle()
    bundle.edges[3] = ("4", "Colleague", "4", "nope", [("Projects", "5-10")])
    for build in (build_graph, replay_bundle):
        with pytest.raises(InputError, match="^edge '4': unknown target node 'nope'$"):
            build(bundle)
    write_bundle(tmp_path, bundle)
    assert main(["build", "--input", str(tmp_path), "--output", str(tmp_path / "x.db")]) == 1
    assert capsys.readouterr().err == "error: edges.tsv:4: unknown target node 'nope'\n"


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
