"""Dynamic store: mutations, tombstoning, and agreement with both the naive
replay oracle and the static store."""

import random

import pytest

from attk2.dyngraph import DynAttK2Graph
from attk2.errors import InputError, NotFoundError
from attk2.gen import generate
from attk2.graph import EDGE, NODE, UNDEFINED, build_graph
from attk2.io import InputBundle
from attk2.oracle import NaiveStore
from attk2.queries import DynamicRunner, format_result, replay_bundle

from conftest import edges_between, running_bundle


def make_tiny():
    g = DynAttK2Graph()
    g.add_node_type("User")
    g.add_attribute(NODE, "User", "name", False)
    g.add_attribute(NODE, "User", "tier", True)
    g.add_edge_type("Follows")
    g.add_attribute(EDGE, "Follows", "since", True)
    return g


def test_empty_store_queries():
    g = DynAttK2Graph()
    assert g.get_types(NODE) == []
    assert g.get_types(EDGE) == []
    with pytest.raises(NotFoundError):
        g.scan(NODE, "User")


def test_sequential_ids_and_basic_queries():
    g = make_tiny()
    assert g.add_node("User", [("name", "ann")]) == 1
    assert g.add_node("User", [("tier", "gold")]) == 2
    assert g.add_edge("Follows", 1, 2, [("since", "2019")]) == 1
    assert g.get_type(NODE, 1) == "User"
    assert g.get_attribute(NODE, 1, "name") == "ann"
    assert g.get_attribute(NODE, 1, "tier") is None
    assert g.get_attribute(NODE, 1, "age") is UNDEFINED
    assert g.scan(NODE, "User") == [1, 2]
    assert g.neighbors("User", 1) == [2]
    assert g.related("Follows", 1) == [2]
    assert g.select(NODE, "User", "tier", "gold") == [2]


def test_add_node_validation_applies_no_mutation():
    g = make_tiny()
    with pytest.raises(InputError):
        g.add_node("User", [("name", "x"), ("age", "3")])
    assert g.node_schema.count == 0
    with pytest.raises(NotFoundError):
        g.add_node("Ghost", [])


def test_add_edge_requires_endpoints():
    g = make_tiny()
    g.add_node("User")
    with pytest.raises(NotFoundError):
        g.add_edge("Follows", 1, 2)


def test_parallel_edges_and_involution():
    g = make_tiny()
    g.add_node("User")
    g.add_node("User")
    e1 = g.add_edge("Follows", 1, 2)
    e2 = g.add_edge("Follows", 1, 2)
    assert edges_between(g.relations, 1, 2) == [e1, e2]
    g.remove_edge(e2)
    assert edges_between(g.relations, 1, 2) == [e1]


def test_set_attribute_last_write_wins():
    g = make_tiny()
    g.add_node("User", [("tier", "gold")])
    g.set_attribute(NODE, 1, "tier", "iron")
    assert g.get_attribute(NODE, 1, "tier") == "iron"
    assert g.select(NODE, "User", "tier", "gold") == []
    assert g.select(NODE, "User", "tier", "iron") == [1]
    with pytest.raises(InputError):
        g.set_attribute(NODE, 1, "age", "9")


def test_sparse_values_past_the_last_set_rank_read_absent():
    g = make_tiny()
    g.add_node("User", [("name", "ann")])
    g.add_node("User")
    g.add_node("User", [("tier", "gold")])
    assert len(g.node_sparse[("User", "name")].values) == 1
    assert [g.get_attribute(NODE, i, "name") for i in (1, 2, 3)] == ["ann", None, None]
    g.set_attribute(NODE, 3, "name", "cy")
    assert [g.get_attribute(NODE, i, "name") for i in (1, 2, 3)] == ["ann", None, "cy"]
    assert g.select(NODE, "User", "name", "cy") == [3]


def test_dense_values_append_columns_at_end():
    g = make_tiny()
    g.add_node("User", [("tier", "gold")])
    g.add_node("User", [("tier", "wood")])
    g.add_node("User", [("tier", "bronze")])
    assert g.node_dense[("User", "tier")].values == ["gold", "wood", "bronze"]


def test_a_dense_attribute_of_two_labels_keeps_each_labels_values():
    g = make_tiny()
    g.add_node_type("Bot")
    g.add_attribute(NODE, "Bot", "tier", True)
    g.add_attribute(EDGE, "Follows", "tier", True)
    users = [g.add_node("User", [("tier", "gold")]), g.add_node("User", [("tier", "wood")])]
    bots = [g.add_node("Bot", [("tier", "gold")]), g.add_node("Bot", [("tier", "iron")])]
    edges = [g.add_edge("Follows", users[0], bots[0], [("tier", "gold")])]
    # one tree per (label, attribute), its columns in that label's first-seen order
    assert g.node_dense[("User", "tier")].values == ["gold", "wood"]
    assert g.node_dense[("Bot", "tier")].values == ["gold", "iron"]

    def selects(kind, label):
        return {v: g.select(kind, label, "tier", v) for v in ("gold", "wood", "iron")}

    assert selects(NODE, "User") == {"gold": [1], "wood": [2], "iron": []}
    assert selects(NODE, "Bot") == {"gold": [3], "wood": [], "iron": [4]}
    assert selects(EDGE, "Follows") == {"gold": [1], "wood": [], "iron": []}
    g.set_attribute(NODE, bots[1], "tier", "wood")
    g.set_attribute(NODE, users[0], "tier", "iron")
    assert selects(NODE, "User") == {"gold": [], "wood": [2], "iron": [1]}
    assert selects(NODE, "Bot") == {"gold": [3], "wood": [4], "iron": []}
    assert [g.get_attribute(NODE, i, "tier") for i in users + bots] == [
        "iron", "wood", "gold", "wood"
    ]
    g.remove_edge(edges[0])
    edges.append(g.add_edge("Follows", bots[1], users[1], [("tier", "wood")]))
    assert selects(EDGE, "Follows") == {"gold": [], "wood": [2], "iron": []}
    assert selects(NODE, "User") == {"gold": [], "wood": [2], "iron": [1]}
    assert selects(NODE, "Bot") == {"gold": [3], "wood": [4], "iron": []}


def test_remove_edge_tombstones():
    g = make_tiny()
    g.add_node("User")
    g.add_node("User")
    e = g.add_edge("Follows", 1, 2, [("since", "2020")])
    g.remove_edge(e)
    with pytest.raises(NotFoundError):
        g.get_type(EDGE, e)
    with pytest.raises(NotFoundError):
        g.get_attribute(EDGE, e, "since")
    with pytest.raises(NotFoundError):
        g.remove_edge(e)
    assert g.scan(EDGE, "Follows") == []
    assert g.select(EDGE, "Follows", "since", "2020") == []
    assert g.related("Follows", 1) == []
    # ids are never reused
    assert g.add_edge("Follows", 2, 1) == e + 1


def test_remove_node_requires_isolation():
    g = make_tiny()
    g.add_node("User", [("name", "ann")])
    g.add_node("User")
    e = g.add_edge("Follows", 1, 2)
    with pytest.raises(InputError):
        g.remove_node(1)
    g.remove_edge(e)
    g.remove_node(1)
    with pytest.raises(NotFoundError):
        g.get_type(NODE, 1)
    assert g.scan(NODE, "User") == [2]
    assert g.select(NODE, "User", "name", "ann") == []
    with pytest.raises(NotFoundError):
        g.add_edge("Follows", 2, 1)


def test_remove_node_of_an_id_never_allocated_matches_the_oracle():
    """Removing id 0, one past the last node or a large id raises the
    oracle's NotFoundError with its message; so does removing a node twice."""
    g = make_tiny()
    oracle = NaiveStore()
    oracle.add_node_type("User")
    oracle.add_attribute(NODE, "User", "name", False)
    for store in (g, oracle):
        store.add_node("User", [("name", "ann")])
        store.add_node("User")
    count = 2
    for node_id in (0, count + 1, 10**9):
        for store in (g, oracle):
            with pytest.raises(NotFoundError, match=f"^node {node_id} does not exist$"):
                store.remove_node(node_id)
    for store in (g, oracle):
        store.remove_node(2)
        with pytest.raises(NotFoundError, match="^node 2 does not exist$"):
            store.remove_node(2)
    assert g.scan(NODE, "User") == oracle.scan(NODE, "User") == [1]


def test_schema_growth_midstream():
    g = make_tiny()
    g.add_node("User", [("name", "ann")])
    g.add_node_type("Bot")
    g.add_attribute(NODE, "Bot", "name", False)
    bot = g.add_node("Bot", [("name", "marvin")])
    assert g.get_types(NODE) == ["Bot", "User"]
    assert g.get_type(NODE, bot) == "Bot"
    assert g.select(NODE, "Bot", "name", "marvin") == [bot]
    assert g.select(NODE, "User", "name", "marvin") == []
    # a dense/sparse clash on the shared attribute name is rejected
    g.add_edge_type("Owns")
    with pytest.raises(InputError):
        g.add_attribute(EDGE, "Owns", "name", True)


def test_running_example_replay_matches_paper_answers():
    r = replay_bundle(running_bundle())
    g = r.graph
    boy = r.node_ids["4"]
    gomez = r.node_ids["5"]
    assert g.neighbors("Researcher", boy) == [gomez]
    assert g.get_type(NODE, r.node_ids["4"]) == "Researcher"
    assert g.get_attribute(EDGE, r.edge_ids["6"], "Expertise") == "Medium"
    assert g.related("Author", r.node_ids["3"]) == [r.node_ids["1"]]


def test_permuted_replay_matches_static_modulo_ids():
    bundle = running_bundle()
    static = build_graph(bundle)
    rng = random.Random(4)
    for _ in range(3):
        norder = list(range(len(bundle.nodes)))
        eorder = list(range(len(bundle.edges)))
        rng.shuffle(norder)
        rng.shuffle(eorder)
        r = replay_bundle(bundle, node_order=norder, edge_order=eorder)
        g = r.graph
        assert g.get_types(NODE) == static.get_types(NODE)
        for ext, iid in r.node_ids.items():
            s = static.node_ids.internal(ext)
            assert g.get_type(NODE, iid) == static.get_type(NODE, s)
            for att in ("Name", "Title", "Position", "University", "Topic"):
                assert g.get_attribute(NODE, iid, att) == static.get_attribute(
                    NODE, s, att
                )
            for lab in static.get_types(NODE):
                got = {r.node_ext[x] for x in g.neighbors(lab, iid)}
                want = {
                    static.node_ids.external(x) for x in static.neighbors(lab, s)
                }
                assert got == want
            for elab in static.get_types(EDGE):
                got = {r.node_ext[x] for x in g.related(elab, iid)}
                want = {
                    static.node_ids.external(x) for x in static.related(elab, s)
                }
                assert got == want


def test_freeze_exports_static_store(tmp_path):
    from attk2 import io

    r = replay_bundle(running_bundle())
    g = r.graph
    g.remove_edge(r.edge_ids["5"])
    frozen = g.freeze()
    assert frozen.get_types(NODE) == g.get_types(NODE)
    assert frozen.edge_schema.count == 6
    for ext, dyn_id in r.node_ids.items():
        internal = frozen.node_ids.internal(str(dyn_id))
        assert frozen.get_type(NODE, internal) == g.get_type(NODE, dyn_id)
        for att in ("Name", "Title", "Position"):
            assert frozen.get_attribute(NODE, internal, att) == g.get_attribute(
                NODE, dyn_id, att
            )
        for lab in g.get_types(NODE):
            got = sorted(
                frozen.node_ids.external(x) for x in frozen.neighbors(lab, internal)
            )
            assert got == sorted(str(x) for x in g.neighbors(lab, dyn_id))
    # the export serializes like any static store
    path = tmp_path / "frozen.db"
    io.save_db(frozen, path)
    loaded = io.load_db(path)
    assert loaded.get_types(EDGE) == frozen.get_types(EDGE)


def test_mutation_stream_matches_oracle():
    rng = random.Random(0xD16)
    data = generate(
        nodes=120, edges=500, node_types=3, edge_types=3, attrs=6, seed=77,
        queries_per_kind=0,
    )
    bundle = data.bundle
    g = DynAttK2Graph()
    o = NaiveStore()
    for label, atts in bundle.node_schema:
        g.add_node_type(label)
        o.add_node_type(label)
        for att, dense in atts:
            g.add_attribute(NODE, label, att, dense)
            o.add_attribute(NODE, label, att, dense)
    for label, atts in bundle.edge_schema:
        g.add_edge_type(label)
        o.add_edge_type(label)
        for att, dense in atts:
            g.add_attribute(EDGE, label, att, dense)
            o.add_attribute(EDGE, label, att, dense)
    ext_ids = {}
    for ext, label, attrs in bundle.nodes:
        ext_ids[ext] = g.add_node(label, attrs)
        assert o.add_node(label, attrs) == ext_ids[ext]
    live_edges = []
    node_atts = {lab: [a for a, _ in atts] for lab, atts in bundle.node_schema}
    for i, (ext, label, src, tgt, attrs) in enumerate(bundle.edges):
        eid = g.add_edge(label, ext_ids[src], ext_ids[tgt], attrs)
        assert o.add_edge(label, ext_ids[src], ext_ids[tgt], attrs) == eid
        live_edges.append(eid)
        if i % 5 == 2 and live_edges:
            victim = live_edges.pop(rng.randrange(len(live_edges)))
            g.remove_edge(victim)
            o.remove_edge(victim)
        if i % 7 == 3:
            node = rng.randint(1, g.node_schema.count)
            label_n = o.get_type(NODE, node)
            atts_n = node_atts[label_n]
            if atts_n:
                att = rng.choice(atts_n)
                value = f"upd{i}"
                g.set_attribute(NODE, node, att, value)
                o.set_attribute(NODE, node, att, value)
    node_labels = o.get_types(NODE)
    edge_labels = o.get_types(EDGE)
    for lab in node_labels:
        assert g.scan(NODE, lab) == o.scan(NODE, lab)
    for lab in edge_labels:
        assert g.scan(EDGE, lab) == o.scan(EDGE, lab)
    n = g.node_schema.count
    for _ in range(400):
        i = rng.randint(1, n)
        assert g.get_type(NODE, i) == o.get_type(NODE, i)
        att = rng.choice(["attr%02d" % a for a in range(1, 7)])
        assert g.get_attribute(NODE, i, att) == o.get_attribute(NODE, i, att)
        lab = rng.choice(node_labels)
        assert g.neighbors(lab, i) == o.neighbors(lab, i)
        elab = rng.choice(edge_labels)
        assert g.related(elab, i) == o.related(elab, i)
        j = rng.randint(1, g.edge_schema.count)
        try:
            want = o.get_attribute(EDGE, j, att)
        except NotFoundError:
            with pytest.raises(NotFoundError):
                g.get_attribute(EDGE, j, att)
        else:
            assert g.get_attribute(EDGE, j, att) == want


# -- bulk replay against insertion ------------------------------------------------


def _reference_replay(bundle, k=2, node_order=None, edge_order=None):
    """The insertion replay, through the public API only: declare the
    schema, then `add_node` and `add_edge` element by element."""
    g = DynAttK2Graph(k=k)
    for kind, schema in ((NODE, bundle.node_schema), (EDGE, bundle.edge_schema)):
        for label, atts in schema:
            (g.add_node_type if kind == NODE else g.add_edge_type)(label)
            for att, dense in atts:
                g.add_attribute(kind, label, att, dense)

    def ordered(records, order):
        if order is None:
            return sorted(records, key=lambda r: (r[1], r[0]))
        return [records[i] for i in order]

    node_ids = {}
    for ext, label, attrs in ordered(bundle.nodes, node_order):
        node_ids[ext] = g.add_node(label, attrs)
    edge_ids = {}
    for ext, label, src, tgt, attrs in ordered(bundle.edges, edge_order):
        edge_ids[ext] = g.add_edge(label, node_ids[src], node_ids[tgt], attrs)
    return DynamicRunner(g, node_ids, edge_ids)


def _tree_fields(tree):
    return tree.k, tree.n, tree.T.to_bits(), tree.L.to_bits()


def _assert_same_store(got, want):
    """Field by field: every tree's side and bits, the leaf lists, the edge
    endpoints, the type tables and every value store."""
    assert _tree_fields(got.relations.base) == _tree_fields(want.relations.base)
    assert got.relations.lists == want.relations.lists
    assert got.edge_sources == want.edge_sources
    assert got.edge_targets == want.edge_targets
    for kind in (NODE, EDGE):
        a, b = got._schema(kind), want._schema(kind)
        assert (a._codes, a._ids) == (b._codes, b._ids)
        sparse, ref = got._sparse(kind), want._sparse(kind)
        assert list(sparse) == list(ref)
        for key, store in sparse.items():
            assert store.values == ref[key].values
            assert store.lex_index == ref[key].lex_index
        dense, ref = got._dense(kind), want._dense(kind)
        assert list(dense) == list(ref)
        for key, store in dense.items():
            assert store.values == ref[key].values
            assert list(store._col_of.items()) == list(ref[key]._col_of.items())
            assert _tree_fields(store.tree) == _tree_fields(ref[key].tree)


def _edge_case_bundle(case, k):
    """A small bundle for one edge case of the bulk build. Every case keeps
    a node and an edge label with no elements, and a dense and a sparse
    attribute that no element takes."""
    node_schema = [
        ("A", [("name", False), ("tier", True), ("nick", False), ("rank", True)]),
        ("B", [("name", False)]),
        ("Void", [("tier", True)]),
    ]
    edge_schema = [("E", [("w", True), ("note", False)]), ("F", []), ("Unused", [])]
    if case == "no-edges":
        nodes = [(f"n{i}", "AB"[i % 2], [("name", f"x{i % 3}")]) for i in range(7)]
        return InputBundle(node_schema, edge_schema, nodes, [])
    if case == "single-level":  # every coordinate of every tree is at most k
        nodes = [(f"n{i}", "A", [("tier", f"t{i % 2}")]) for i in range(k)]
        edges = [
            ("e1", "E", "n0", f"n{k - 1}", [("w", "1")]),
            ("e2", "E", "n0", f"n{k - 1}", [("w", "2"), ("note", "p")]),
            ("e3", "F", f"n{k - 1}", f"n{k - 1}", []),
        ]
        return InputBundle(node_schema, edge_schema, nodes, edges)
    # "power-of-k": the highest node id, dense rank and dense column are k²
    side = k * k
    nodes = [(f"n{i:02d}", "A", [("tier", f"t{i:02d}")]) for i in range(side)]
    nodes.append(("b", "B", [("name", "only")]))
    edges = [
        ("e1", "E", f"n{side - 1:02d}", f"n{side - 1:02d}", [("w", "x")]),
        ("e2", "F", "n00", f"n{side - 1:02d}", []),
    ]
    return InputBundle(node_schema, edge_schema, nodes, edges)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("case", ["no-edges", "single-level", "power-of-k"])
def test_bulk_replay_equals_insertion_on_edge_cases(case, k):
    bundle = _edge_case_bundle(case, k)
    got = replay_bundle(bundle, k)
    want = _reference_replay(bundle, k)
    _assert_same_store(got.graph, want.graph)
    assert (got.node_ids, got.edge_ids) == (want.node_ids, want.edge_ids)
    if case == "single-level":
        assert got.graph.relations.base.n == k and not got.graph.relations.base.T.n
    if case == "power-of-k":
        assert got.graph.relations.base.n == k * k
        assert got.graph.node_dense[("A", "tier")].tree.n == k * k


@pytest.mark.parametrize("k", [2, 3, 4])
def test_bulk_replay_equals_insertion_in_every_order(k):
    data = generate(
        nodes=150, edges=600, node_types=4, edge_types=5, attrs=6, seed=7,
        queries_per_kind=0,
    )
    bundle = data.bundle
    rng = random.Random(28 + k)
    orders = [(None, None)]
    for _ in range(3):
        norder = list(range(len(bundle.nodes)))
        eorder = list(range(len(bundle.edges)))
        rng.shuffle(norder)
        rng.shuffle(eorder)
        orders.append((norder, eorder))
    for norder, eorder in orders:
        got = replay_bundle(bundle, k, norder, eorder)
        want = _reference_replay(bundle, k, norder, eorder)
        _assert_same_store(got.graph, want.graph)
        assert (got.node_ids, got.edge_ids) == (want.node_ids, want.edge_ids)


def _answers(runner, scripts):
    out = []
    for name in sorted(scripts):
        for op in scripts[name]:
            try:
                out.append(format_result(runner.run(op[0], op[1:])))
            except NotFoundError as exc:
                out.append(f"!{exc}")
    return out


@pytest.mark.parametrize("k", [2, 3])
def test_bulk_replay_takes_writes_like_insertion(tmp_path, k):
    """One write stream on a bulk-built and an insertion-built store: the
    stores stay equal field by field, answer the eight query kinds alike
    and freeze to the same bytes."""
    from attk2 import io

    data = generate(
        nodes=120, edges=400, node_types=3, edge_types=3, attrs=6, seed=11,
        queries_per_kind=25,
    )
    runners = [replay_bundle(data.bundle, k), _reference_replay(data.bundle, k)]
    declared = [
        (kind, label, att, dense)
        for kind, schema in ((NODE, data.bundle.node_schema), (EDGE, data.bundle.edge_schema))
        for label, atts in schema
        for att, dense in atts
    ]
    assert {dense for *_, dense in declared} == {False, True}
    for r in runners:
        g = r.graph
        u, v = g.edge_sources[0], g.edge_targets[0]
        edge_label = g.get_type(EDGE, 1)
        fresh = g.add_node(g.get_type(NODE, 1))
        parallel = g.add_edge(edge_label, u, v)
        g.add_edge(edge_label, fresh, u)  # a new pair, in a row no edge had
        for kind, label, att, _ in declared:
            for i, elem in enumerate(g.scan(kind, label)[:4]):
                g.set_attribute(kind, elem, att, f"w{i % 2}")
        g.remove_edge(parallel)
        g.remove_edge(2)
        lonely = g.add_node(g.get_type(NODE, 1))
        g.remove_node(lonely)
    got, want = runners
    _assert_same_store(got.graph, want.graph)
    assert _answers(got, data.scripts) == _answers(want, data.scripts)
    paths = [tmp_path / "bulk.db", tmp_path / "insert.db"]
    for r, path in zip(runners, paths):
        io.save_db(r.graph.freeze(), path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
