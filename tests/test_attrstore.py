"""Sparse attribute lists and dense attribute matrices."""

import random
import sys
import threading

import pytest

from attk2 import io
from attk2.attrstore import DenseAttributeMatrix, DynDenseAttribute, SparseAttribute
from attk2.gen import generate
from attk2.graph import EDGE, NODE, build_graph
from attk2.oracle import NaiveStore

from conftest import cells_in, running_bundle


@pytest.fixture
def names():
    # Researcher names, ids 3..5
    return SparseAttribute(
        "Researcher", "Name", 3, ["P. García", "J. Boy", "S. Gómez"]
    )


def test_sparse_get(names):
    assert names.get(3) == "P. García"
    assert names.get(5) == "S. Gómez"
    with pytest.raises(IndexError):
        names.get(2)
    with pytest.raises(IndexError):
        names.get(6)


def test_sparse_lex_index_first_entry(names):
    assert names.values[names.lex_index[0]] == "J. Boy"


def test_sparse_select(names):
    assert names.select("J. Boy") == [4]
    assert names.select("nobody") == []


def test_sparse_absent_values():
    sa = SparseAttribute("L", "a", 1, ["x", None, "x", None, ""])
    assert sa.get(2) is None
    assert len(sa.lex_index) == 3  # the index holds present values only
    assert sa.select("x") == [1, 3]
    assert sa.select("") == [5]  # literal empty string is a real value


def test_sparse_duplicates_across_ids():
    rng = random.Random(5)
    values = [rng.choice(["a", "b", "c"]) for _ in range(100)]
    sa = SparseAttribute("L", "a", 10, values)
    for v in "abc":
        assert sa.select(v) == [i + 10 for i, x in enumerate(values) if x == v]
    for i, v in enumerate(values):
        assert sa.get(i + 10) == v


def test_selects_find_values_from_every_utf8_length():
    # one- to four-byte characters: the stores sort values bytewise and
    # search them in code-point order, which must agree
    rng = random.Random(11)
    chars = ["a", "z", "\u00e9", "\u00ff", "\u20ac", "\ufffd", "\U0001f600", "\U0010ffff"]
    values = ["".join(rng.choices(chars, k=rng.randint(0, 3))) for _ in range(200)]
    sparse = SparseAttribute("L", "a", 1, values)
    dense = DenseAttributeMatrix.build(200, [(i + 1, "a", v) for i, v in enumerate(values)])
    for value in set(values) | {"b", "\U0001f601"}:
        want = [i + 1 for i, v in enumerate(values) if v == value]
        assert sparse.select(value) == want
        assert dense.select("a", value, 1, 200) == want


@pytest.fixture
def edge_dense():
    # edges 1..7: e4 Projects=5-10, e6 Expertise=Medium, e7 Expertise=High
    return DenseAttributeMatrix.build(
        7,
        [(6, "Expertise", "Medium"), (7, "Expertise", "High"), (4, "Projects", "5-10")],
    )


def test_dense_get(edge_dense):
    assert edge_dense.get(6, "Expertise") == "Medium"
    assert edge_dense.get(4, "Projects") == "5-10"
    assert edge_dense.get(1, "Expertise") is None
    assert edge_dense.get(4, "Expertise") is None
    assert edge_dense.get(4, "Rating") is None


def test_dense_columns_sorted(edge_dense):
    assert edge_dense.atts == ["Expertise", "Projects"]
    assert edge_dense.col_values[0] == ["High", "Medium"]  # bytewise order
    assert edge_dense.col_limits == [2, 3]


def test_dense_select(edge_dense):
    assert edge_dense.select("Expertise", "Medium", 1, 7) == [6]
    assert edge_dense.select("Expertise", "High", 1, 7) == [7]
    assert edge_dense.select("Expertise", "High", 1, 5) == []
    assert edge_dense.select("Expertise", "Low", 1, 7) == []
    assert edge_dense.select("Projects", "5-10", 1, 7) == [4]


def test_dense_empty():
    m = DenseAttributeMatrix.build(5, [])
    assert m.get(1, "a") is None
    assert m.select("a", "x", 1, 5) == []


def test_dense_random_against_matrix_scan():
    rng = random.Random(0xA7)
    n = 90
    atts = ["alpha", "beta", "gamma"]
    assigned = {}
    for elem in range(1, n + 1):
        for att in atts:
            if rng.random() < 0.5:
                assigned[(elem, att)] = f"{att}-{rng.randint(1, 9)}"
    m = DenseAttributeMatrix.build(
        n, [(e, a, v) for (e, a), v in assigned.items()]
    )
    for _ in range(100):
        elem = rng.randint(1, n)
        att = rng.choice(atts)
        assert m.get(elem, att) == assigned.get((elem, att))
        value = f"{att}-{rng.randint(1, 9)}"
        lo = rng.randint(1, n)
        hi = rng.randint(lo, n)
        want = [
            e for e in range(lo, hi + 1) if assigned.get((e, att)) == value
        ]
        assert m.select(att, value, lo, hi) == want
    # at most one 1 per row inside each attribute block
    for elem in range(1, n + 1):
        for att in atts:
            c1, c2 = m._block(att)
            assert len(m.matrix.row_leaves(elem, c1, c2)) <= 1


def test_schema_guard_regions_stay_empty():
    # elements 1..3 are label A (attribute alpha), 4..6 label B (attribute beta);
    # the cross blocks contain no ones
    triples = [(1, "alpha", "x"), (2, "alpha", "y"), (5, "beta", "z")]
    m = DenseAttributeMatrix.build(6, triples)
    a1, a2 = m._block("alpha")
    b1, b2 = m._block("beta")
    assert cells_in(m.matrix, 4, 6, a1, a2) == []
    assert cells_in(m.matrix, 1, 3, b1, b2) == []


def test_dyn_sparse_last_write_wins():
    # the dynamic store's form: ranks within the label, limit 1, grown by set
    sa = SparseAttribute("L", "a", 1, [])
    sa.set(2, "v1")
    assert sa.get(2) == "v1"
    assert sa.get(1) is None
    with pytest.raises(IndexError):
        sa.get(9)
    sa.set(2, "v2")
    assert sa.get(2) == "v2"
    assert sa.select("v1") == []
    assert sa.select("v2") == [2]
    sa.set(2, None)
    assert sa.get(2) is None
    assert sa.select("v2") == []
    assert sa.lex_index.tolist() == []


def test_sparse_set_replay_against_mapping():
    # sets, overwrites with an equal or a different value, clears, and long
    # runs of equal values across positions, checked after every step
    rng = random.Random(0x5A)
    sa = SparseAttribute("L", "a", 4, [])
    ref = {}
    for step in range(3000):
        elem = rng.randint(4, 140)
        roll = rng.random()
        if roll < 0.2:
            value = None
        elif roll < 0.3 and elem in ref:
            value = ref[elem]
        else:
            value = rng.choice(["x", "x", "x", "y", "", "zé"]) + str(rng.randint(0, step % 3))
        sa.set(elem, value)
        if value is None:
            ref.pop(elem, None)
        else:
            ref[elem] = value
        # the build's sort is the reference
        assert sa.lex_index == SparseAttribute("L", "a", 4, list(sa.values)).lex_index
        probe = rng.randint(4, 3 + len(sa.values))
        assert sa.get(probe) == ref.get(probe)
        for want in {value, rng.choice(list(ref.values()) or ["x0"])} - {None}:
            assert sa.select(want) == sorted(e for e, v in ref.items() if v == want)
    assert sorted(ref) == [e for e in range(4, 4 + len(sa.values)) if sa.get(e) is not None]


@pytest.mark.parametrize("unsplit", [False, True], ids=["list", "unsplit"])
def test_sets_before_the_first_select_leave_the_index_to_it(unsplit):
    # writes to an attribute whose index no select has sorted yet write the
    # value only; the first select sorts what they left
    rng = random.Random(29)
    values = [rng.choice(["a", "b", "c", None]) for _ in range(60)]
    present = [i for i, v in enumerate(values) if v is not None]
    sa = SparseAttribute("L", "a", 4, (lambda: list(values)) if unsplit else list(values))
    sa.set(4 + present[0], None)  # clear
    sa.set(4 + present[1], "d" if values[present[1]] != "d" else "e")  # overwrite
    sa.set(4 + len(values) + 3, "b")  # a new value past the end
    assert sa._index is None
    fresh = SparseAttribute("L", "a", 4, list(sa.values))
    for value in ("a", "b", "c", "d", "e", "z"):
        assert sa.select(value) == fresh.select(value)
    assert sa.lex_index == fresh.lex_index
    sa.set(5, "z")  # the index is kept from here on
    assert sa.select("z") == SparseAttribute("L", "a", 4, list(sa.values)).select("z")


def test_concurrent_first_reads_split_and_sort_once(tmp_path):
    """Readers on several threads start together on freshly loaded stores,
    whose sparse tables are unsplit and unsorted; with the interpreter
    switching threads as often as it can, every get and select still
    answers as on one thread."""
    data = generate(
        nodes=300, edges=900, node_types=3, edge_types=3, attrs=6, seed=4,
        queries_per_kind=0,
    )
    path = tmp_path / "g.db"
    io.save_db(build_graph(data.bundle), path)
    ref = io.load_db(path)
    probes = {}
    for key, sa in [*ref.node_sparse.items(), *ref.edge_sparse.items()]:
        items = sa.items()
        ids = [i for i, _ in items[:: max(1, len(items) // 8)]] + [sa.limit]
        wanted = {v for _, v in items[:: max(1, len(items) // 4)]} | {"no such value"}
        probes[key] = [("get", i, sa.get(i)) for i in ids]
        probes[key] += [("select", v, sa.select(v)) for v in sorted(wanted)]
    assert len(probes) >= 2
    stores = [io.load_db(path) for _ in range(30)]
    start = threading.Barrier(6, timeout=60)
    wrong = []

    def read(seed):
        order = random.Random(seed)
        for g in stores:
            sparse = {**g.node_sparse, **g.edge_sparse}
            keys = list(probes)
            order.shuffle(keys)
            start.wait()
            for key in keys:
                sa = sparse[key]
                calls = list(probes[key])
                order.shuffle(calls)
                for name, arg, want in calls:
                    try:
                        got = getattr(sa, name)(arg)
                    except Exception as exc:  # a torn derivation reads out of range
                        got = exc
                    if got != want:
                        wrong.append((key, name, arg, got))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(s,)) for s in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert wrong == []


def test_dyn_dense_set_and_update():
    d = DynDenseAttribute()
    d.set(3, "x")
    assert d.get(3) == "x"
    d.set(3, "y")
    assert d.get(3) == "y"
    assert d.select("x") == []
    assert d.select("y") == [3]
    # unseen values append new columns at the end, in first-seen order
    d.set(1, "m")
    assert d.values == ["x", "y", "m"]
    d.set(3, None)  # None clears, as in SparseAttribute.set
    assert d.get(3) is None


def test_dyn_dense_replay_against_mapping():
    rng = random.Random(0xA8)
    atts = {name: DynDenseAttribute() for name in ("p", "q", "r")}
    ref = {}
    for _ in range(1000):
        name = rng.choice("pqr")
        elem = rng.randint(1, 120)
        value = f"{name}{rng.randint(1, 12)}"
        atts[name].set(elem, value)
        ref[(elem, name)] = value
        elem = rng.randint(1, 120)
        name = rng.choice("pqr")
        assert atts[name].get(elem) == ref.get((elem, name))
    for name, store in atts.items():
        values = {v for (e, a), v in ref.items() if a == name}
        for value in values:
            want = sorted(
                e for (e, a), v in ref.items() if a == name and v == value
            )
            assert store.select(value) == want
        # one value per element survives the updates
        for elem in range(1, 121):
            hits = store.tree.row_leaves(elem, 1, store.tree.n) if elem <= store.tree.n else []
            assert len(hits) <= 1


def _gen_bundle(seed):
    return generate(
        nodes=2000, edges=5000, node_types=4, edge_types=5, attrs=8, seed=seed,
        queries_per_kind=0,
    ).bundle


@pytest.mark.parametrize("seed", [None, 7, 11], ids=["running", "gen7", "gen11"])
def test_postings_equal_column_walks_after_build_and_load(tmp_path, seed):
    built = build_graph(running_bundle() if seed is None else _gen_bundle(seed))
    path = tmp_path / "p.db"
    io.save_db(built, path)
    for graph in (built, io.load_db(path)):
        for dense in (graph.node_dense, graph.edge_dense):
            m = dense.matrix
            col = 0
            for att, values in zip(dense.atts, dense.col_values):
                for value in values:
                    col += 1
                    walk = [row for row, _ in m.col_leaves(col, 1, m.n_logical)]
                    assert dense.select(att, value, 1, m.n_logical) == walk
            assert col == dense.col_limits[-1]


@pytest.mark.parametrize("seed", [7, 11])
def test_dense_selects_on_label_boundaries_match_the_oracle(seed):
    bundle = _gen_bundle(seed)
    graph = build_graph(bundle)
    naive = NaiveStore.from_bundle(bundle)
    touched = 0
    for kind, schema, dense in (
        (NODE, graph.node_schema, graph.node_dense),
        (EDGE, graph.edge_schema, graph.edge_dense),
    ):
        labels = graph.get_types(kind)
        for label in labels:
            ids = graph.scan(kind, label)
            for att in (a for a, is_dense in schema.attrs_of(label) if is_dense):
                for value in dense.col_values[dense.atts.index(att)] + ["no such value"]:
                    got = graph.select(kind, label, att, value)
                    assert got == naive.select(kind, label, att, value)
                    touched += bool(got) and (got[0] == ids[0] or got[-1] == ids[-1])
        # windows that straddle two neighbouring labels, one id on each side
        for left, right in zip(labels, labels[1:]):
            lo, hi = graph.scan(kind, left)[-1], graph.scan(kind, right)[0]
            for att in dense.atts:
                for value in dense.col_values[dense.atts.index(att)]:
                    want = [e for e in (lo, hi) if naive.get_attribute(kind, e, att) == value]
                    assert dense.select(att, value, lo, hi) == want
    assert touched  # some answers start or end on their label's boundary
