"""Multi-edge relations layer: Multi/Last/More encoding and per-leaf lists."""

import random

import pytest

from attk2 import io
from attk2.errors import InputError, NotFoundError
from attk2.multiedge import DynMultiEdge, MultiEdgeK2Tree

from conftest import RELATION_TRIPLES, edges_between, leaf_ordinal


@pytest.fixture
def rel():
    return MultiEdgeK2Tree.build(5, RELATION_TRIPLES)


def test_running_example_encoding(rel):
    assert rel.base.L.ones == 6
    assert rel.multi.to_bits() == [0, 0, 0, 1, 0, 0]
    assert rel.last.tolist() == [1, 6, 7, 2, 2, 3]
    assert rel.more.tolist() == [4, 5]


def test_edges_between_running_example(rel):
    assert edges_between(rel, 4, 5) == [4, 5]
    assert edges_between(rel, 3, 1) == [1]
    assert edges_between(rel, 1, 3) == []
    with pytest.raises(IndexError):
        rel.neighbor_cols(0, 1, 1)
    with pytest.raises(IndexError):
        rel.neighbor_cols(1, 6, 6)


def _dyn(triples, k=2):
    d = DynMultiEdge(k=k)
    for e, u, v in triples:
        d.add_edge(e, u, v)
    return d


def test_neighbors_with_edges_running_example(rel):
    d = _dyn(RELATION_TRIPLES)
    assert d.neighbors_with_edges(4, 3, 5) == [(5, [4, 5])]
    assert d.neighbors_with_edges(3, 1, 5) == [(1, [1]), (2, [6])]
    assert rel.neighbor_cols(3, 1, 5) == d.neighbor_cols(3, 1, 5) == [1, 2]


def test_reverse_with_edges_running_example():
    d = _dyn(RELATION_TRIPLES)
    assert d.reverse_with_edges(1, 1, 5) == [(3, [1]), (5, [2])]
    assert d.reverse_with_edges(4, 1, 5) == []


def test_empty_structure():
    m = MultiEdgeK2Tree.build(4, [])
    assert edges_between(m, 1, 2) == []
    assert m.neighbor_cols(3, 1, 4) == []
    assert m.all_triples() == []


def test_three_parallel_edges():
    m = MultiEdgeK2Tree.build(3, [(5, 2, 3), (1, 2, 3), (9, 2, 3)])
    assert m.multi.to_bits() == [1]
    assert m.last.tolist() == [3]
    assert m.more.tolist() == [1, 5, 9]
    assert edges_between(m, 2, 3) == [1, 5, 9]


def test_edge_ids_must_fit_in_32_bits():
    MultiEdgeK2Tree.build(2, [(2**32 - 1, 1, 2)])
    for eid in (2**32, -1):  # a single edge, and one of a parallel pair
        for triples in ([(eid, 1, 2)], [(eid, 1, 2), (1, 1, 2)]):
            with pytest.raises(InputError, match="32-bit range"):
                MultiEdgeK2Tree.build(2, triples)


def test_duplicate_edge_id_rejected():
    with pytest.raises(InputError):
        MultiEdgeK2Tree.build(3, [(1, 1, 4)])


def _read_back(rel):
    """The relations written and read again through the store's codec."""
    w = io._Writer()
    io._write_relations(w, rel)
    edges = len(rel.last) - rel.multi.ones + len(rel.more)
    return io._read_relations(io._Reader(w.getvalue()), rel.base.n_logical, edges)


def _random_multigraph(rng, n: int, m: int) -> list[tuple[int, int, int]]:
    """m triples on n nodes; each pair drawn takes a run of 1 to 5 parallel
    edges with consecutive ids."""
    triples = []
    eid = 0
    while len(triples) < m:
        u, v = rng.randint(1, n), rng.randint(1, n)
        for _ in range(rng.randint(1, 5)):
            if len(triples) >= m:
                break
            eid += 1
            triples.append((eid, u, v))
    return triples


def test_round_trip_on_random_multigraphs():
    """Built at k = 2, 3 and 4 and read back, the relations list every triple
    and answer `related_targets` as a filter of the triples does, for every
    node and edge-id windows that often cut through a multi leaf's run."""
    for k in (2, 3, 4):
        rng = random.Random(0xE0 + k)
        for _ in range(4):
            n = rng.randint(2, 100)
            m = rng.randint(0, 2000)
            triples = _random_multigraph(rng, n, m)
            out = {}
            for e, u, v in triples:
                out.setdefault(u, []).append((e, v))
            windows = [(1, m), (m + 1, m + 9)]  # every edge, and none
            while len(windows) < 50:
                lo = rng.randint(1, m + 1)
                windows.append((lo, lo + rng.choice((0, 1, 2, 5, 40))))
            built = MultiEdgeK2Tree.build(n, triples, k)
            for rel in (built, _read_back(built)):
                assert rel.bounds == built.bounds
                assert len(rel.all_triples()) == len(triples)
                assert sorted(rel.all_triples()) == sorted(triples)
                for u in range(1, n + 1):
                    for lo, hi in windows:
                        want = sorted({v for e, v in out.get(u, ()) if lo <= e <= hi})
                        assert rel.related_targets(u, lo, hi) == want


def test_leaf_ordinal_consistency(rel):
    # the index into Multi/Last is exactly the base tree's leaf ordinal; the
    # m-th multi leaf's run is More[bounds[m-1]:bounds[m]] and ends at Last
    multi = rel.multi.to_bits()
    assert rel.bounds.tolist() == [0, 2]
    for (eid, u, v) in RELATION_TRIPLES:
        i = leaf_ordinal(rel.base, u, v)
        if multi[i - 1]:
            m = rel.multi.rank1(i)
            assert rel.bounds[m] == rel.last[i - 1]
            assert eid in rel.more[rel.bounds[m - 1] : rel.bounds[m]]
        else:
            assert rel.last[i - 1] == eid


def test_reverse_probes_against_triples():
    rng = random.Random(0xE1)
    n = 60
    triples = [
        (e + 1, rng.randint(1, n), rng.randint(1, n)) for e in range(400)
    ]
    rel = _dyn(triples)
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
    # the same triples in the same order: so every pair's edge ids agree
    assert static.all_triples() == dyn.all_triples()
    out, into = {}, {}
    for e, u, v in sorted(triples):
        out.setdefault(u, {}).setdefault(v, []).append(e)
        into.setdefault(v, {}).setdefault(u, []).append(e)
    for u in range(1, n + 1):
        assert dyn.neighbors_with_edges(u, 1, n) == sorted(out.get(u, {}).items())
        assert static.neighbor_cols(u, 1, n) == dyn.neighbor_cols(u, 1, n)
        assert dyn.reverse_with_edges(u, 1, n) == sorted(into.get(u, {}).items())
    # a node or window past each matrix raises the same error in every read
    for side, reads in (
        (n, [static.neighbor_cols]),
        (dyn.base.n, [dyn.neighbors_with_edges, dyn.neighbor_cols, dyn.reverse_with_edges]),
    ):
        for read in reads:
            with pytest.raises(IndexError):
                read(1, 1, side + 1)
            with pytest.raises(IndexError):
                read(side + 1, 1, side)
    removed = set(order[::3])
    for e, u, v in removed:
        dyn.remove_edge(e, u, v)
    kept = [t for t in triples if t not in removed]
    assert MultiEdgeK2Tree.build(n, kept).all_triples() == dyn.all_triples()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_all_triples_against_brute_force(k):
    """Both forms list every triple in leaf order, each leaf's ids ascending,
    also after removals; the leaf order is the cells' child-digit paths."""
    rng = random.Random(0xE4 + k)
    n = 30
    triples = []
    for e in range(1, 301):  # about a third run parallel to the last edge
        pair = triples[-1][1:] if triples and rng.random() < 0.3 else None
        triples.append((e, *(pair or (rng.randint(1, n), rng.randint(1, n)))))
    dyn = _dyn(reversed(triples), k)  # ids arrive out of order
    for e, u, v in triples[::4]:
        dyn.remove_edge(e, u, v)
    kept = [t for i, t in enumerate(triples) if i % 4]
    side = k
    while side < n:
        side *= k

    def path(cell):
        r, c, s, digits = cell[0] - 1, cell[1] - 1, side, []
        while s > 1:
            s //= k
            digits.append(r // s % k * k + c // s % k)
        return digits

    ids = {}
    for e, u, v in kept:
        ids.setdefault((u, v), []).append(e)
    want = [(e, u, v) for u, v in sorted(ids, key=path) for e in sorted(ids[u, v])]
    assert MultiEdgeK2Tree.build(n, kept, k).all_triples() == want
    assert dyn.all_triples() == want
