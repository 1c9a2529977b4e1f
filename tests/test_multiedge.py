"""Multi-edge relations layer: Multi/Last/More encoding and per-leaf lists."""

import random

import pytest

from attk2.errors import InputError, NotFoundError
from attk2.multiedge import DynMultiEdge, MultiEdgeK2Tree

from conftest import RELATION_TRIPLES, edges_between, leaf_ordinal


@pytest.fixture
def rel():
    return MultiEdgeK2Tree.build(5, RELATION_TRIPLES)


def test_running_example_encoding(rel):
    assert rel.base.L.ones == 6
    assert rel.multi.to_bits() == [0, 0, 0, 1, 0, 0]
    assert rel.last == [1, 6, 7, 2, 2, 3]
    assert rel.more == [4, 5]


def test_edges_between_running_example(rel):
    assert edges_between(rel, 4, 5) == [4, 5]
    assert edges_between(rel, 3, 1) == [1]
    assert edges_between(rel, 1, 3) == []
    with pytest.raises(IndexError):
        edges_between(rel, 0, 1)
    with pytest.raises(IndexError):
        edges_between(rel, 1, 6)


def test_neighbors_with_edges_running_example(rel):
    assert rel.neighbors_with_edges(4, 3, 5) == [(5, [4, 5])]
    assert rel.neighbors_with_edges(3, 1, 5) == [(1, [1]), (2, [6])]
    assert rel.neighbor_cols(3, 1, 5) == [1, 2]


def test_reverse_with_edges_running_example(rel):
    assert rel.reverse_with_edges(1, 1, 5) == [(3, [1]), (5, [2])]
    assert rel.reverse_with_edges(4, 1, 5) == []


def test_empty_structure():
    m = MultiEdgeK2Tree.build(4, [])
    assert edges_between(m, 1, 2) == []
    assert m.neighbors_with_edges(3, 1, 4) == []
    assert m.all_triples() == []


def test_three_parallel_edges():
    m = MultiEdgeK2Tree.build(3, [(5, 2, 3), (1, 2, 3), (9, 2, 3)])
    assert m.multi.to_bits() == [1]
    assert m.last == [3]
    assert m.more == [1, 5, 9]
    assert edges_between(m, 2, 3) == [1, 5, 9]


def test_duplicate_edge_id_rejected():
    with pytest.raises(InputError):
        MultiEdgeK2Tree.build(3, [(1, 1, 2), (1, 2, 3)])
    with pytest.raises(InputError):
        MultiEdgeK2Tree.build(3, [(1, 1, 4)])


def test_round_trip_on_random_multigraphs():
    rng = random.Random(0xE0)
    for _ in range(6):
        n = rng.randint(2, 200)
        m = rng.randint(0, 2000)
        triples = []
        eid = 0
        while len(triples) < m:
            u, v = rng.randint(1, n), rng.randint(1, n)
            for _ in range(rng.randint(1, 5)):
                if len(triples) >= m:
                    break
                eid += 1
                triples.append((eid, u, v))
        rel = MultiEdgeK2Tree.build(n, triples)
        assert len(rel.all_triples()) == len(triples)
        assert sorted(rel.all_triples()) == sorted(triples)


def test_leaf_ordinal_consistency(rel):
    # the index into Multi/Last is exactly the base tree's leaf ordinal
    for (eid, u, v) in RELATION_TRIPLES:
        i = leaf_ordinal(rel.base, u, v)
        ids = rel._ids_at(i)
        assert eid in ids


def test_reverse_probes_against_triples():
    rng = random.Random(0xE1)
    n = 60
    triples = [
        (e + 1, rng.randint(1, n), rng.randint(1, n)) for e in range(400)
    ]
    rel = MultiEdgeK2Tree.build(n, triples)
    for _ in range(100):
        v = rng.randint(1, n)
        r1 = rng.randint(1, n)
        r2 = rng.randint(r1, n)
        want = {}
        for e, a, b in triples:
            if b == v and r1 <= a <= r2:
                want.setdefault(a, []).append(e)
        expected = [(a, sorted(ids)) for a, ids in sorted(want.items())]
        assert rel.reverse_with_edges(v, r1, r2) == expected


def test_dyn_add_remove_involution():
    d = DynMultiEdge()
    d.add_edge(1, 2, 3)
    d.remove_edge(1, 2, 3)
    assert edges_between(d, 2, 3) == []
    assert d.all_triples() == []
    d.add_edge(1, 2, 3)
    d.add_edge(2, 2, 3)
    assert edges_between(d, 2, 3) == [1, 2]


def test_dyn_remove_absent():
    d = DynMultiEdge()
    d.add_edge(7, 1, 1)
    with pytest.raises(NotFoundError):
        d.remove_edge(8, 1, 1)
    with pytest.raises(NotFoundError):
        d.remove_edge(7, 2, 2)
    with pytest.raises(InputError):
        d.add_edge(7, 1, 1)


def test_dyn_replay_against_multiset():
    """1000 random add/remove operations against a plain triple list."""
    rng = random.Random(0xE2)
    d = DynMultiEdge()
    ref = {}
    next_id = 0
    live = []
    for _ in range(1000):
        if not live or rng.random() < 0.6:
            next_id += 1
            u, v = rng.randint(1, 50), rng.randint(1, 50)
            d.add_edge(next_id, u, v)
            ref.setdefault((u, v), []).append(next_id)
            live.append((next_id, u, v))
        else:
            i = rng.randrange(len(live))
            eid, u, v = live.pop(i)
            d.remove_edge(eid, u, v)
            ref[(u, v)].remove(eid)
        u, v = rng.randint(1, 50), rng.randint(1, 50)
        want = sorted(ref.get((u, v), []))
        if max(u, v) <= d.base.n:
            assert edges_between(d, u, v) == want
        else:  # past the dynamic matrix, so no edge was ever added there
            assert want == []
    flat = sorted((e, u, v) for (u, v), ids in ref.items() for e in ids)
    assert sorted(d.all_triples()) == flat


def test_static_dynamic_agreement():
    rng = random.Random(0xE3)
    n = 40
    triples = [(e + 1, rng.randint(1, n), rng.randint(1, n)) for e in range(300)]
    static = MultiEdgeK2Tree.build(n, triples)
    order = list(triples)
    rng.shuffle(order)
    dyn = DynMultiEdge()
    for e, u, v in order:
        dyn.add_edge(e, u, v)
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            assert edges_between(static, u, v) == edges_between(dyn, u, v)
    for u in range(1, n + 1):
        assert static.neighbors_with_edges(u, 1, n) == dyn.neighbors_with_edges(u, 1, n)
        assert static.neighbor_cols(u, 1, n) == dyn.neighbor_cols(u, 1, n)
        assert static.reverse_with_edges(u, 1, n) == dyn.reverse_with_edges(u, 1, n)
    assert static.all_triples() == dyn.all_triples()
    # a node or window past each matrix raises the same error in both classes
    for rel, side in ((static, n), (dyn, dyn.base.n)):
        for read in (rel.neighbors_with_edges, rel.neighbor_cols, rel.reverse_with_edges):
            with pytest.raises(IndexError):
                read(1, 1, side + 1)
            with pytest.raises(IndexError):
                read(side + 1, 1, side)
    removed = set(order[::3])
    for e, u, v in removed:
        dyn.remove_edge(e, u, v)
    kept = [t for t in triples if t not in removed]
    assert MultiEdgeK2Tree.build(n, kept).all_triples() == dyn.all_triples()
