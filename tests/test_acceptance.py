"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import random
import time
from itertools import accumulate

import pytest

from attk2 import io
from attk2.bits import BitSequence, DynBitSequence
from attk2.dyngraph import DynAttK2Graph
from attk2.errors import CorruptFileError, NotFoundError
from attk2.gen import generate, write_generated
from attk2.graph import EDGE, NODE, UNDEFINED, build_graph
from attk2.k2 import K2Tree
from attk2.oracle import NaiveStore
from attk2.queries import (
    DynamicRunner,
    StaticRunner,
    bench_scripts,
    format_result,
    load_scripts,
)
from attk2.schema import DynTypeTable

from conftest import cell, cells_in, edges_between, running_bundle

GRAPH_SIZES = [
    (60, 240), (120, 600), (250, 1000), (400, 1600), (600, 2500),
    (800, 4000), (1000, 5000), (1300, 6500), (1600, 8000), (2000, 10_000),
]


def report(name, elapsed, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[PASS] {name} in {elapsed:.2f}s{suffix}")


class OracleRunner:
    """Executes script operations against the naive store, in external ids."""

    def __init__(self, oracle, node_ids, edge_ids):
        self.o = oracle
        self.node_ids = node_ids
        self.edge_ids = edge_ids
        self.node_ext = {v: k for k, v in node_ids.items()}
        self.edge_ext = {v: k for k, v in edge_ids.items()}

    def run(self, op, args):
        o = self.o
        if op == "GetNodeTypes":
            return o.get_types(NODE)
        if op == "GetEdgeTypes":
            return o.get_types(EDGE)
        if op == "ScanNodes":
            return [self.node_ext[i] for i in o.scan(NODE, args[0])]
        if op == "ScanEdges":
            return [self.edge_ext[i] for i in o.scan(EDGE, args[0])]
        if op == "GetNodeType":
            return o.get_type(NODE, self.node_ids[args[0]])
        if op == "GetEdgeType":
            return o.get_type(EDGE, self.edge_ids[args[0]])
        if op == "GetNodeAttribute":
            return o.get_attribute(NODE, self.node_ids[args[0]], args[1])
        if op == "GetEdgeAttribute":
            return o.get_attribute(EDGE, self.edge_ids[args[0]], args[1])
        if op == "SelectNodes":
            out = o.select(NODE, args[0], args[1], args[2])
            if out is UNDEFINED:
                return out
            return [self.node_ext[i] for i in out]
        if op == "SelectEdges":
            out = o.select(EDGE, args[0], args[1], args[2])
            if out is UNDEFINED:
                return out
            return [self.edge_ext[i] for i in out]
        if op == "Neighbors":
            return [self.node_ext[i] for i in o.neighbors(args[0], self.node_ids[args[1]])]
        if op == "Related":
            return [self.node_ext[i] for i in o.related(args[0], self.node_ids[args[1]])]
        raise AssertionError(op)


def answers(runner, ops):
    out = []
    for op in ops:
        try:
            out.append(format_result(runner.run(op[0], op[1:])))
        except (NotFoundError, KeyError, IndexError):
            out.append("!notfound")
    return out


@pytest.fixture(scope="module")
def big_store(tmp_path_factory):
    """40k-node / 100k-edge generated store, built and serialized once."""
    root = tmp_path_factory.mktemp("big")
    data = generate(
        nodes=40_000, edges=100_000, node_types=4, edge_types=5, attrs=6, seed=7
    )
    write_generated(root, data)
    graph = build_graph(data.bundle)
    db = root / "big.db"
    io.save_db(graph, db)
    return root, db, graph


def test_criterion_1_golden_worked_example():
    t0 = time.monotonic()
    g = build_graph(running_bundle())
    assert g.get_type(NODE, 4) == "Researcher"
    assert g.get_type(EDGE, 6) == "Reviewer"
    assert list(g.scan(NODE, "Researcher")) == [3, 4, 5]
    assert g.get_attribute(NODE, 3, "Title") is UNDEFINED
    assert g.get_attribute(NODE, 3, "Name") == "P. García"
    assert g.get_attribute(EDGE, 6, "Expertise") == "Medium"
    assert edges_between(g.relations, 4, 5) == [4, 5]
    assert g.relations.multi.to_bits() == [0, 0, 0, 1, 0, 0]
    assert g.relations.more.tolist() == [4, 5]
    assert g.neighbors("Researcher", 4) == [5]
    assert g.related("Author", 3) == [1]
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report("criterion 1: golden worked example", elapsed)


def test_criterion_2_static_oracle_equivalence():
    t0 = time.monotonic()
    total = 0
    for i, (nodes, edges) in enumerate(GRAPH_SIZES):
        data = generate(
            nodes=nodes, edges=edges, node_types=4, edge_types=5, attrs=6,
            seed=101 + i,
        )
        graph = build_graph(data.bundle)
        oracle = NaiveStore.from_bundle(data.bundle)
        static = StaticRunner(graph)
        reference = OracleRunner(
            oracle,
            {ext: i for i, ext in oracle.node_ext.items()},
            {ext: i for i, ext in oracle.edge_ext.items()},
        )
        for name, ops in data.scripts.items():
            got = answers(static, ops)
            want = answers(reference, ops)
            assert got == want, f"disagreement in {name} of graph {i}"
            total += len(ops)
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    report("criterion 2: static oracle equivalence", elapsed, f"{total} queries")


def _replay_with_mutations(bundle, order_seed):
    """Insert a bundle in random order with 500 interleaved mutations applied
    to both the dynamic store and a naive replay."""
    rng = random.Random(order_seed)
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

    nodes = list(bundle.nodes)
    edges = list(bundle.edges)
    rng.shuffle(nodes)
    rng.shuffle(edges)
    node_ids = {}
    for ext, label, attrs in nodes:
        node_ids[ext] = g.add_node(label, attrs)
        o.add_node(label, attrs)
    node_atts = {lab: [a for a, _ in atts] for lab, atts in bundle.node_schema}
    label_of = {ext: lab for ext, lab, _ in bundle.nodes}

    budget = 500
    live = []
    mutations_per_edge = max(1, (budget // max(1, len(edges))) + 1)

    def mutate():
        nonlocal budget
        if budget <= 0:
            return
        budget -= 1
        if live and rng.random() < 0.4:
            victim = live.pop(rng.randrange(len(live)))
            g.remove_edge(victim)
            o.remove_edge(victim)
        else:
            ext = rng.choice(nodes)[0]
            atts = node_atts[label_of[ext]]
            if not atts:
                return
            att = rng.choice(atts)
            value = f"upd{budget:04d}"
            g.set_attribute(NODE, node_ids[ext], att, value)
            o.set_attribute(NODE, node_ids[ext], att, value)

    edge_ids = {}
    for i, (ext, label, src, tgt, attrs) in enumerate(edges):
        eid = g.add_edge(label, node_ids[src], node_ids[tgt], attrs)
        o.add_edge(label, node_ids[src], node_ids[tgt], attrs)
        edge_ids[ext] = eid
        live.append(eid)
        if i % 3 == 1:
            for _ in range(mutations_per_edge):
                mutate()
    while budget > 0:
        mutate()
    return DynamicRunner(g, node_ids, edge_ids), OracleRunner(o, node_ids, edge_ids)


def test_criterion_3_dynamic_oracle_equivalence():
    t0 = time.monotonic()
    total = 0
    for i, (nodes, edges) in enumerate(GRAPH_SIZES):
        data = generate(
            nodes=nodes, edges=edges, node_types=4, edge_types=5, attrs=6,
            seed=101 + i,
        )
        for order in range(3):
            dyn, reference = _replay_with_mutations(data.bundle, 7000 + 10 * i + order)
            for name, ops in data.scripts.items():
                got = answers(dyn, ops)
                want = answers(reference, ops)
                assert got == want, f"disagreement in {name}, graph {i}, order {order}"
                total += len(ops)
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    report("criterion 3: dynamic oracle equivalence", elapsed, f"{total} queries")


def test_criterion_4_bit_structure_suites():
    t0 = time.monotonic()
    rng = random.Random(0xACC4)
    # rank/select against a linear scan, bitmaps up to 10^6 bits
    for n, density in ((10**6, 0.31), (4096, 0.5), (64, 0.8)):
        bits = [1 if rng.random() < density else 0 for _ in range(n)]
        bs = BitSequence(bits)
        prefix = [0] + list(accumulate(bits))
        ones = [i + 1 for i, b in enumerate(bits) if b]
        probes = 8000 if n == 10**6 else 1000
        for _ in range(probes):
            i = rng.randint(0, n)
            assert bs.rank1(i) == prefix[i]
            j = rng.randint(1, len(ones))
            assert bs.select1(j) == ones[j - 1]
    # k2-tree queries against matrix brute force
    for k in (2, 4):
        for density in (0.001, 0.01, 0.1):
            n = 128
            cells = {
                (rng.randint(1, n), rng.randint(1, n))
                for _ in range(int(n * n * density) + 1)
            }
            t = K2Tree.build(n, cells, k)
            for r in range(1, n + 1):
                assert [c for c, _ in t.row_leaves(r, 1, n)] == sorted(
                    c for rr, c in cells if rr == r
                )
            for c in range(1, n + 1):
                assert [r for r, _ in t.col_leaves(c, 1, n)] == sorted(
                    r for r, cc in cells if cc == c
                )
            for _ in range(400):
                r, c = rng.randint(1, n), rng.randint(1, n)
                assert cell(t, r, c) == ((r, c) in cells)
            for _ in range(50):
                r1 = rng.randint(1, n); r2 = rng.randint(r1, n)
                c1 = rng.randint(1, n); c2 = rng.randint(c1, n)
                want = sorted(
                    (r, c) for r, c in cells if r1 <= r <= r2 and c1 <= c <= c2
                )
                assert cells_in(t, r1, r2, c1, c2) == want
    # dynamic bit sequence against a naive replay
    d = DynBitSequence()
    ref = []
    for _ in range(10_000):
        roll = rng.random()
        if roll < 0.55 or not ref:
            p = rng.randint(1, len(ref) + 1)
            b = rng.randint(0, 1)
            d.insert_zeros(p, 1)
            d.set_bit(p, b)
            ref.insert(p - 1, b)
        elif roll < 0.8:
            p = rng.randint(1, len(ref))
            bit = d.access(p)
            d.remove_run(p, 1)
            assert bit == ref.pop(p - 1)
        else:
            p = rng.randint(1, len(ref))
            ref[p - 1] ^= 1
            d.set_bit(p, ref[p - 1])
        assert d.n == len(ref)
        if ref:
            p = rng.randint(1, len(ref))
            assert d.access(p) == ref[p - 1]
            i = rng.randint(0, len(ref))
            assert d.rank1(i) == sum(ref[:i])
    assert d.to_bits() == ref
    # dynamic type table against a naive replay; 400 labels, so label codes
    # do not fit a byte
    t = DynTypeTable()
    labels = []
    seq = []  # the label of each id
    for _ in range(10_000):
        if not labels or (len(labels) < 400 and rng.random() < 0.06):
            labels.append(f"L{len(labels)}")
            t.add_type(labels[-1])
        label = rng.choice(labels)
        assert t.register_element(label) == len(seq) + 1
        seq.append(label)
        # id p of a label that seq holds j times up to p has rank j, and the
        # label's j-th id is p
        p = rng.randint(1, len(seq))
        label = seq[p - 1]
        j = seq[:p].count(label)
        assert t.type_of(p) == label and t.rank_in_label(p) == (label, j)
        assert t.select_in_label(label, j) == p
    assert len(labels) == 400 and t.count == len(seq)
    for label in labels:
        ids = [i + 1 for i, lab in enumerate(seq) if lab == label]
        assert t.ids_of(label) == ids
        assert [t.type_of(i) for i in ids] == [label] * len(ids)
        assert [t.rank_in_label(i) for i in ids] == [(label, j) for j in range(1, len(ids) + 1)]
        assert [t.select_in_label(label, j) for j in range(1, len(ids) + 1)] == ids
        for rank in (0, len(ids) + 1):
            with pytest.raises(NotFoundError):
                t.select_in_label(label, rank)
    for elem in (0, len(seq) + 1):
        with pytest.raises(NotFoundError):
            t.type_of(elem)
        with pytest.raises(NotFoundError):
            t.rank_in_label(elem)
    elapsed = time.monotonic() - t0
    report("criterion 4: bit-structure suites", elapsed)


def test_criterion_5_serialization(tmp_path):
    t0 = time.monotonic()
    data = generate(
        nodes=500, edges=2500, node_types=4, edge_types=5, attrs=6, seed=55,
        queries_per_kind=0,
    )
    graph = build_graph(data.bundle)
    path = tmp_path / "store.db"
    io.save_db(graph, path)
    original = path.read_bytes()
    loaded = io.load_db(path)
    io.save_db(loaded, path)
    assert path.read_bytes() == original  # save -> load -> save is byte-identical

    rng = random.Random(55)
    labels = loaded.get_types(NODE)
    elabels = loaded.get_types(EDGE)
    for _ in range(1000):
        i = rng.randint(1, graph.node_schema.count)
        att = "attr%02d" % rng.randint(1, 6)
        assert loaded.get_attribute(NODE, i, att) == graph.get_attribute(NODE, i, att)
        assert loaded.get_type(NODE, i) == graph.get_type(NODE, i)
        lab = rng.choice(labels)
        assert loaded.neighbors(lab, i) == graph.neighbors(lab, i)
        elab = rng.choice(elabels)
        assert loaded.related(elab, i) == graph.related(elab, i)

    corrupted = tmp_path / "corrupt.db"
    corrupted.write_bytes(b"BADMAGIC" + original[8:])
    with pytest.raises(CorruptFileError):
        io.load_db(corrupted)
    corrupted.write_bytes(original[:30])
    with pytest.raises(CorruptFileError):
        io.load_db(corrupted)
    elapsed = time.monotonic() - t0
    report("criterion 5: serialization", elapsed)


def test_criterion_6_space_properties(big_store):
    t0 = time.monotonic()
    # (a) clustered 1024x1024 matrix at 1% density beats the raw bitmap
    rng = random.Random(0x6A)
    n = 1024
    target = n * n // 100
    anchors = [(rng.randint(0, n - 64), rng.randint(0, n - 64)) for _ in range(8)]
    cells = set()
    while len(cells) < target:
        ar, ac = anchors[rng.randrange(8)]
        cells.add((ar + rng.randint(1, 64), ac + rng.randint(1, 64)))
    tree = K2Tree.build(n, cells, 2)
    raw_bits = n * n
    assert tree.bit_size < raw_bits

    # (b) the README's claims for the 100k-edge store at seed 7, as reported
    # by cmd_stats: the relations layer under 90 bits per edge, its succinct
    # part (T + L + Multi) about 7, and the file's size
    from attk2.cli import main

    _root, db, graph = big_store
    import contextlib
    import io as stdio

    buf = stdio.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["stats", "--db", str(db)]) == 0
    stats = dict(line.split("\t") for line in buf.getvalue().strip().splitlines())
    bits_per_edge = float(stats["relations_bits_per_edge"])
    assert bits_per_edge < 90.0
    assert 6.5 <= float(stats["relations_structure_bits_per_edge"]) <= 7.5
    assert int(stats["total_bytes"]) == 2_782_525
    elapsed = time.monotonic() - t0
    report(
        "criterion 6: space properties",
        elapsed,
        f"clustered {tree.bit_size}/{raw_bits} bits, relations {bits_per_edge:.1f} bits/edge",
    )


def test_criterion_7_performance_smoke(big_store):
    t0 = time.monotonic()
    root, db, _graph = big_store
    loaded = io.load_db(db)
    runner = StaticRunner(loaded)
    scripts = load_scripts(root / "queries")
    assert len(scripts) == 8
    # warmup, then best throughput of five timed runs per set: scheduler
    # interference inflates timings, it never deflates them (timeit's
    # take-the-minimum rationale)
    bench_scripts(runner, scripts, repeat=1)
    best = {}
    bench_start = time.monotonic()
    for _ in range(5):
        for row in bench_scripts(runner, scripts, repeat=1):
            name = row["set"]
            if name not in best or row["qps"] > best[name]["qps"]:
                best[name] = row
    bench_elapsed = time.monotonic() - bench_start
    assert bench_elapsed < 60
    rows = list(best.values())
    slowest = min(rows, key=lambda r: r["qps"])
    for row in rows:
        assert row["qps"] >= 10_000, f"{row['set']} at {row['qps']:.0f} qps"
    elapsed = time.monotonic() - t0
    report(
        "criterion 7: performance smoke",
        elapsed,
        f"slowest set {slowest['set']} at {slowest['qps']:.0f} qps",
    )
