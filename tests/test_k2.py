"""k²-tree construction, navigation and mutation against brute-force oracles."""

import random
import sys
import threading

import pytest

from attk2.errors import InputError
from attk2.k2 import BAND_J, DynK2Tree, K2Tree, _cells, _rect_leaves, _row_leaves

from conftest import cell, cells_in, leaf_ordinal


def bits(s):
    return [int(ch) for ch in s]


def test_build_empty_matrix():
    t = K2Tree.build(4, [], 2)
    assert t.T.to_bits() == bits("0000")
    assert t.L.to_bits() == []
    assert cell(t, 1, 1) == 0
    assert t.row_leaves(3, 1, 4) == []
    assert cells_in(t, 1, 4, 1, 4) == []


def test_build_single_level_identity():
    t = K2Tree.build(2, [(1, 1), (2, 2)], 2)
    assert t.T.to_bits() == []
    assert t.L.to_bits() == bits("1001")
    assert cell(t, 1, 1) == 1
    assert cell(t, 1, 2) == 0
    assert [c for c, _ in t.row_leaves(1, 1, 2)] == [1]
    assert [r for r, _ in t.col_leaves(1, 1, 2)] == [1]


def test_full_two_by_two():
    t = K2Tree.build(2, [(r, c) for r in (1, 2) for c in (1, 2)], 2)
    assert [c for c, _ in t.row_leaves(2, 1, 2)] == [1, 2]


def test_build_rejects_bad_input():
    with pytest.raises(InputError, match=r"^cell \(0, 1\) outside 4x4 matrix$"):
        K2Tree.build(4, [(0, 1)], 2)
    with pytest.raises(InputError, match=r"^cell \(1, 5\) outside 4x4 matrix$"):
        K2Tree.build(4, [(1, 5)], 2)
    # the first cell out of range is named, wherever the extremes lie
    with pytest.raises(InputError, match=r"^cell \(3, 9\) outside 4x4 matrix$"):
        K2Tree.build(4, iter([(1, 1), (3, 9), (0, 0), (2, 2)]), 2)
    with pytest.raises(InputError, match=r"^cell \(1, 1\) outside 0x0 matrix$"):
        K2Tree.build(0, [(1, 1)], 3)
    with pytest.raises(InputError, match=r"^k must be at least 2, got 1$"):
        K2Tree.build(4, [], 1)
    with pytest.raises(InputError, match=r"^matrix side must be non-negative, got -1$"):
        K2Tree.build(-1, [], 2)


def _reference_build(n_logical, cells, k):
    """T bits, L bits and the leaf order by the direct definition: split the
    cells into k² buckets per block, level by level, as the build did before
    it sorted cell codes."""
    n = k
    while n < n_logical:
        n *= k
    k2 = k * k
    t_bits, l_bits = [], []
    blocks = [sorted({(r - 1, c - 1) for r, c in cells})]
    size = n
    while size > k:
        sub = size // k
        next_blocks = []
        for block in blocks:
            buckets = [[] for _ in range(k2)]
            for r, c in block:
                buckets[(r // sub % k) * k + c // sub % k].append((r, c))
            t_bits.extend(1 if bucket else 0 for bucket in buckets)
            next_blocks.extend(bucket for bucket in buckets if bucket)
        blocks = next_blocks
        size = sub
    for block in blocks:
        leaf = [0] * k2
        for r, c in block:
            leaf[r % k * k + c % k] = 1
        l_bits.extend(leaf)
    return t_bits, l_bits, [(r + 1, c + 1) for block in blocks for r, c in block]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("side", [0, 1, 2, "k", "k+1", 16, 17, 64, 65, 200])
def test_build_matches_the_bucketing_reference(k, side):
    """The code-sorted build against `_reference_build`: T, L and the leaf
    order, on empty, one-cell, duplicate-cell, full-block, random and
    generator input."""
    n = {"k": k, "k+1": k + 1}.get(side, side)
    rng = random.Random(n * 10 + k)
    inputs = [[]]
    if n:
        block = min(n, k)
        inputs += [
            [(n, n)],
            [(1, n), (n, 1), (1, n), (n, 1), (1, n)],
            [(r, c) for r in range(1, block + 1) for c in range(1, block + 1)],
            [(r, c) for r in range(n - block + 1, n + 1) for c in range(1, block + 1)] * 2,
            [(rng.randint(1, n), rng.randint(1, n)) for _ in range(3 * n)],
            [(r, c) for r in range(1, n + 1) for c in range(1, n + 1) if rng.random() < 0.3],
        ]
    for cells in inputs:
        want_t, want_l, want_order = _reference_build(n, cells, k)
        for given in (cells, (rc for rc in cells)):
            t, order = K2Tree.build_with_order(n, given, k)
            assert (t.T.to_bits(), t.L.to_bits(), order) == (want_t, want_l, want_order)


def test_eleven_by_eleven_padding():
    """11x11 matrix with an empty up-right quadrant, padded to 16."""
    cells = [
        (1, 1), (2, 5), (8, 3), (5, 8), (7, 7),
        (9, 2), (10, 6), (11, 1), (9, 9), (10, 11),
    ]
    t = K2Tree.build(11, cells, 2)
    assert t.n == 16
    # first partition: only the up-right 8x8 submatrix is empty
    assert t.T.to_bits()[:4] == bits("1011")
    for r in range(1, 9):
        for c in range(9, 12):
            assert cell(t, r, c) == 0
    # padding invariance: building at the padded side answers identically
    t16 = K2Tree.build(16, cells, 2)
    for r in range(1, 12):
        assert t.row_leaves(r, 1, 11) == t16.row_leaves(r, 1, 16)
        for c in range(1, 12):
            assert cell(t, r, c) == cell(t16, r, c)
    assert cells_in(t, 1, 11, 1, 11) == cells_in(t16, 1, 11, 1, 11) == sorted(cells)


def _leaf_order_key(r, c, n, k):
    """Levelwise leaf order equals lexicographic order of the child-digit path."""
    digits = []
    size = n
    r -= 1
    c -= 1
    while size > 1:
        size //= k
        digits.append((r // size) * k + (c // size))
        r %= size
        c %= size
    return digits


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("density", [0.001, 0.01, 0.1])
def test_queries_against_brute_force(k, density):
    rng = random.Random(int(density * 10_000) * 31 + k)
    # 100 is no power of k: its full-width windows cross the padding
    for n in (128, 100):
        _check_against_brute_force(rng, n, k, density)


def _check_against_brute_force(rng, n, k, density):
    cells = {
        (rng.randint(1, n), rng.randint(1, n))
        for _ in range(int(n * n * density) + 1)
    }
    t = K2Tree.build(n, cells, k)
    assert t.ones == len(cells)
    for _ in range(300):
        r, c = rng.randint(1, n), rng.randint(1, n)
        assert cell(t, r, c) == ((r, c) in cells)
    for r in range(1, n + 1):
        assert [c for c, _ in t.row_leaves(r, 1, n)] == sorted(
            c for (rr, c) in cells if rr == r
        )
    for c in range(1, n + 1):
        assert [r for r, _ in t.col_leaves(c, 1, n)] == sorted(
            r for (r, cc) in cells if cc == c
        )
    assert cells_in(t, 1, n, 1, n) == sorted(cells)
    for _ in range(60):
        r1 = rng.randint(1, n); r2 = rng.randint(r1, n)
        c1 = rng.randint(1, n); c2 = rng.randint(c1, n)
        want = sorted(
            (r, c) for (r, c) in cells if r1 <= r <= r2 and c1 <= c <= c2
        )
        assert cells_in(t, r1, r2, c1, c2) == want
    # row and column windows, each leaf named by its ordinal
    pos = {rc: leaf_ordinal(t, *rc) for rc in cells}
    for _ in range(200):
        line = rng.randint(1, n)
        lo = rng.randint(1, n)
        hi = rng.randint(lo - 1, n)  # an empty window now and then
        if rng.random() < 0.2:
            lo, hi = 1, n
        row = [(c, pos[line, c]) for c in range(lo, hi + 1) if (line, c) in cells]
        col = [(r, pos[r, line]) for r in range(lo, hi + 1) if (r, line) in cells]
        assert t.row_leaves(line, lo, hi) == row
        assert t.col_leaves(line, lo, hi) == col


@pytest.mark.parametrize("density", [0.05, 0.3, 0.7])
def test_row_walk_matches_the_shared_descent(density):
    """The static k=2 row walk against `_rect_leaves`, on every row and every
    column window of sides 1 to 17; each leaf's ordinal is its cell's index in
    the leaf order."""
    rng = random.Random(int(density * 100))
    for n in range(1, 18):
        cells = [(r, c) for r in range(1, n + 1) for c in range(1, n + 1) if rng.random() < density]
        t = K2Tree.build(n, cells, 2)
        ordinal = {rc: i for i, rc in enumerate(_cells(t), start=1)}
        for r in range(1, n + 1):
            assert all(ordinal[r, c] == i for c, i in t.row_leaves(r, 1, n))
            for lo in range(1, n + 1):
                for hi in range(lo, n + 1):
                    assert t.row_leaves(r, lo, hi) == _row_leaves(t, r, lo, hi)


def _band_cells(rng, n, layout):
    """About 3n cells of an n×n matrix: uniform, or clustered along the
    diagonal as label-sorted ids cluster a graph's edges."""
    if layout == "random":
        return [(rng.randint(1, n), rng.randint(1, n)) for _ in range(3 * n)]
    out = []
    for _ in range(3 * n):
        r = rng.randint(1, n)
        out.append((r, min(n, max(1, r + rng.randint(-12, 12)))))
    return out


@pytest.mark.parametrize("layout", ["random", "diagonal"])
@pytest.mark.parametrize("n", sorted({2 << BAND_J, (2 << BAND_J) + 1, 64, 65, 128, 200, 1024}))
def test_band_start_matches_the_shared_descent(n, layout):
    """Above side 2 << BAND_J the k=2 row walk starts at the row's band
    frontier: every row, full width and in sampled windows (empty ones
    included), against `_row_leaves`, and every leaf ordinal against the
    leaf order of `_cells`."""
    rng = random.Random(n * 7 + len(layout))
    t = K2Tree.build(n, _band_cells(rng, n, layout), 2)
    ordinal = {rc: i for i, rc in enumerate(_cells(t), start=1)}
    for r in range(1, n + 1):
        row = t.row_leaves(r, 1, n)
        assert row == _row_leaves(t, r, 1, n)
        assert all(ordinal[r, c] == i for c, i in row)
        for _ in range(3):
            lo = rng.randint(1, n)
            hi = rng.randint(lo - 1, min(n, lo + rng.choice((0, 5, 40, n))))
            assert t.row_leaves(r, lo, hi) == _row_leaves(t, r, lo, hi)
    assert (t._bands is not None) == (t.n > 2 << BAND_J)


@pytest.mark.parametrize("layout", ["random", "diagonal"])
def test_frontier_masks_name_the_rows_that_hold_ones(layout):
    """Every frontier entry of every band, (T start, first column, row
    mask), names a block of side 2 << BAND_J whose rows with a one are
    exactly the mask's bits."""
    n = 300
    side = 2 << BAND_J
    t = K2Tree.build(n, _band_cells(random.Random(5), n, layout), 2)
    t.row_leaves(1, 1, n)
    at, flat = t._bands
    for band in range(t.n // side):
        i = at[band] or t._frontier(band)
        entries = [flat[q : q + 3] for q in range(i + 1, i + 1 + 3 * flat[i], 3)]
        assert [col0 for _, col0, _ in entries] == sorted(col0 for _, col0, _ in entries)
        held = {}
        for r, c, _ in _rect_leaves(t, band * side, band * side + side - 1, 0, t.n - 1):
            col0 = (c - 1) // side * side
            held[col0] = held.get(col0, 0) | 1 << (r - 1) % side
        assert {col0: mask for _, col0, mask in entries} == held


def test_a_narrow_first_read_derives_the_whole_band():
    """The first read of a band is one column; a later full-width read of
    another row of that band still finds every one."""
    n = 512
    side = 2 << BAND_J
    cells = [(r, c) for r in range(side + 1, 2 * side + 1) for c in range(r % 7 + 1, n + 1, 37)]
    t = K2Tree.build(n, cells, 2)
    first = (side + 1) % 7 + 1  # the first row's first one
    assert t.row_leaves(side + 1, first, first) == _row_leaves(t, side + 1, first, first) != []
    for r in (side + 2, 2 * side):
        row = t.row_leaves(r, 1, n)
        assert [c for c, _ in row] == sorted(c for rr, c in cells if rr == r)
        assert row == _row_leaves(t, r, 1, n)


def test_concurrent_first_reads_derive_the_bands_once():
    """Readers on several threads start together on fresh trees and derive
    the bands on their first reads; with the interpreter switching threads
    as often as it can, every read still matches the shared descent."""
    n = 128
    rng = random.Random(3)
    trees = [K2Tree.build(n, _band_cells(rng, n, "random"), 2) for _ in range(150)]
    rows = rng.sample(range(1, n + 1), 12)
    want = [{r: _row_leaves(t, r, 1, n) for r in rows} for t in trees]
    start = threading.Barrier(6, timeout=60)
    wrong = []

    def read(seed):
        order = random.Random(seed)
        for t, answers in zip(trees, want):
            start.wait()
            for r in order.sample(rows, len(rows)):
                try:
                    if t.row_leaves(r, 1, n) != answers[r]:
                        wrong.append(r)
                except Exception as exc:  # a torn cache reads out of range
                    wrong.append(exc)

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


def test_leaf_ordinal_matches_enumeration():
    rng = random.Random(99)
    n = 32
    cells = {(rng.randint(1, n), rng.randint(1, n)) for _ in range(120)}
    t = K2Tree.build(n, cells, 2)
    order = sorted(cells, key=lambda rc: _leaf_order_key(rc[0], rc[1], t.n, 2))
    for i, (r, c) in enumerate(order, start=1):
        assert leaf_ordinal(t, r, c) == i
    missing = next(
        (r, c)
        for r in range(1, n + 1)
        for c in range(1, n + 1)
        if (r, c) not in cells
    )
    assert leaf_ordinal(t, *missing) == 0


def test_leaf_ordinal_single_cell():
    t = K2Tree.build(7, [(3, 6)], 2)
    assert leaf_ordinal(t, 3, 6) == 1


def test_space_on_clustered_matrix():
    """1% density clustered into 8 blocks compresses below the raw bitmap."""
    rng = random.Random(1024)
    n = 1024
    target = n * n // 100
    cells = set()
    anchors = [(rng.randint(0, n - 64), rng.randint(0, n - 64)) for _ in range(8)]
    while len(cells) < target:
        ar, ac = anchors[rng.randrange(8)]
        cells.add((ar + rng.randint(1, 64), ac + rng.randint(1, 64)))
    t = K2Tree.build(n, cells, 2)
    assert t.ones == target
    assert t.bit_size < n * n


def test_dyn_k2_chunks_hold_whole_blocks():
    """After random sets, clears and grows, with enough blocks that T and L
    both split into 2,048-bit chunks, every chunk of a k=2 tree holds whole
    2×2 blocks: its length is a multiple of 4, so no block straddles two
    chunks. A k=2 pair read of one block's bits relies on this."""
    rng = random.Random(17)
    t = DynK2Tree(4, 2)
    cells = set()
    for step in range(3000):
        bound = 64 if step < 300 else 1500  # the side grows past 64 midway
        if cells and rng.random() < 0.3:
            r, c = rng.choice(sorted(cells)) if rng.random() < 0.8 else (1, 1)
            t.clear(r, c)
            cells.discard((r, c))
        else:
            r, c = rng.randint(1, bound), rng.randint(1, bound)
            t.set(r, c)
            cells.add((r, c))
        if step % 100 == 99:
            for bits in (t.T, t.L):
                assert all(length % 4 == 0 for length in bits._lens)
    assert len(t.T._chunks) > 1 and len(t.L._chunks) > 1
    assert sorted(_cells(t)) == sorted(cells)


def test_dyn_set_examples():
    d = DynK2Tree(4, k=2)
    d.set(3, 2)
    assert cell(d, 3, 2) == 1
    assert sum(cell(d, r, c) for r in range(1, 5) for c in range(1, 5)) == 1
    # set then clear leaves a logically (and physically) empty tree
    d.clear(3, 2)
    assert _cells(d) == []
    fresh = DynK2Tree(4, k=2)
    assert d.T.to_bits() == fresh.T.to_bits()
    assert d.L.to_bits() == fresh.L.to_bits()
    ordinal, present = d.clear(1, 1)
    assert not present


def test_dyn_replay_against_matrix():
    """500 random set/clear ops on 64x64 equal a plain boolean matrix."""
    rng = random.Random(64)
    d = DynK2Tree(64, k=2)
    ref = [[0] * 64 for _ in range(64)]
    for _ in range(500):
        r, c = rng.randint(1, 64), rng.randint(1, 64)
        if rng.random() < 0.6:
            d.set(r, c)
            ref[r - 1][c - 1] = 1
        else:
            _, present = d.clear(r, c)
            assert present == bool(ref[r - 1][c - 1])
            ref[r - 1][c - 1] = 0
        rr, cc = rng.randint(1, 64), rng.randint(1, 64)
        assert cell(d, rr, cc) == ref[rr - 1][cc - 1]
    cells = [
        (r + 1, c + 1) for r in range(64) for c in range(64) if ref[r][c]
    ]
    static = K2Tree.build(64, cells, 2)
    for r in range(1, 65):
        assert d.row_leaves(r, 1, 64) == static.row_leaves(r, 1, 64)
    for c in range(1, 65):
        assert d.col_leaves(c, 1, 64) == static.col_leaves(c, 1, 64)
    assert cells_in(d, 1, 64, 1, 64) == cells_in(static, 1, 64, 1, 64)
    assert d.T.to_bits() == static.T.to_bits()
    assert d.L.to_bits() == static.L.to_bits()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_dyn_matches_static(k):
    """Random sets and clears, then every traversal of the dynamic tree
    against the static tree built from the cells left."""
    rng = random.Random(27 + k)
    n = k ** 3 + 1  # padded to k⁴: three internal levels
    d = DynK2Tree(n, k=k)
    cells = set()
    for _ in range(400):
        r, c = rng.randint(1, n), rng.randint(1, n)
        if rng.random() < 0.7:
            d.set(r, c)
            cells.add((r, c))
        else:
            d.clear(r, c)
            cells.discard((r, c))
    static, order = K2Tree.build_with_order(n, cells, k)
    assert d.T.to_bits() == static.T.to_bits()
    assert d.L.to_bits() == static.L.to_bits()
    assert _cells(d) == order
    # every read names a leaf by its cell's 1-based index in the leaf order
    ordinal = {rc: i for i, rc in enumerate(order, start=1)}
    whole = _rect_leaves(d, 0, n - 1, 0, n - 1)
    assert whole == _rect_leaves(static, 0, n - 1, 0, n - 1)
    assert all(ordinal[rr, cc] == i for rr, cc, i in whole)
    for r in range(1, n + 1):
        row = d.row_leaves(r, 1, d.n)
        assert row == static.row_leaves(r, 1, n)
        assert all(ordinal[r, cc] == i for cc, i in row)
    for _ in range(200):
        r, c = rng.randint(1, n), rng.randint(1, n)
        lo = rng.randint(1, n)
        hi = rng.randint(lo, n)
        assert d.row_leaves(r, lo, hi) == static.row_leaves(r, lo, hi)
        col = d.col_leaves(c, lo, hi)
        assert col == static.col_leaves(c, lo, hi)
        assert all(ordinal[rr, c] == i for rr, i in col)
        r1 = rng.randint(1, n); r2 = rng.randint(r1, n)
        c1 = rng.randint(1, n); c2 = rng.randint(c1, n)
        want = _rect_leaves(d, r1 - 1, r2 - 1, c1 - 1, c2 - 1)
        assert want == _rect_leaves(static, r1 - 1, r2 - 1, c1 - 1, c2 - 1)
        assert [(rr, cc) for rr, cc, _ in want] == sorted(
            (rr, cc) for (rr, cc) in cells if r1 <= rr <= r2 and c1 <= cc <= c2
        )
        assert all(ordinal[rr, cc] == i for rr, cc, i in want)
    for rc in cells:
        assert leaf_ordinal(d, *rc) == leaf_ordinal(static, *rc) == ordinal[rc]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_build_hands_over_the_leaf_order(k):
    rng = random.Random(k)
    n = 50
    cells = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(300)]
    t, order = K2Tree.build_with_order(n, cells, k)
    assert sorted(order) == sorted(set(cells))
    assert [leaf_ordinal(t, r, c) for r, c in order] == list(range(1, len(order) + 1))
    assert order == sorted(order, key=lambda rc: _leaf_order_key(rc[0], rc[1], t.n, k))
    assert _cells(t) == order
    # empty trees of several levels and of one (side k, T empty), a one-level
    # tree with ones, and a full two-level one
    for side, some in ((n, []), (1, []), (k, [(1, 2), (k, 1), (k, k)])):
        t, order = K2Tree.build_with_order(side, some, k)
        assert _cells(t) == order
    full = [(r, c) for r in range(1, k * k + 1) for c in range(1, k * k + 1)]
    t, order = K2Tree.build_with_order(k * k, full, k)
    assert _cells(t) == order and len(order) == k**4


def test_dyn_grow_preserves_cells():
    d = DynK2Tree(2, k=2)
    d.set(1, 2)
    d.set(2, 2)
    assert _cells(d) == [(1, 2), (2, 2)]  # one level: T is empty
    d.grow()
    assert d.n == 4
    assert cell(d, 1, 2) == 1 and cell(d, 2, 2) == 1
    assert cell(d, 4, 4) == 0
    d.set(4, 3)
    d.grow()
    assert d.n == 8
    assert cells_in(d, 1, 8, 1, 8) == [(1, 2), (2, 2), (4, 3)]
    # growing an empty tree keeps it empty and canonical
    e = DynK2Tree(2, k=2)
    e.grow()
    f = DynK2Tree(4, k=2)
    assert e.n == 4
    assert e.T.to_bits() == f.T.to_bits() and e.L.to_bits() == f.L.to_bits()


def test_dyn_set_returns_leaf_ordinal():
    d = DynK2Tree(8, k=2)
    ordinal, created = d.set(3, 1)
    assert (ordinal, created) == (1, True)
    ordinal, created = d.set(3, 1)
    assert (ordinal, created) == (1, False)
    ordinal, created = d.set(1, 1)
    assert created and ordinal == 1  # (1,1) precedes (3,1) in leaf order
    assert leaf_ordinal(d, 3, 1) == 2


@pytest.mark.parametrize("k", [2, 3])
def test_dyn_set_grows_until_the_cell_fits(k):
    d = DynK2Tree(2, k=k)
    d.set(1, 2)
    assert d.set(k**2 + 1, 1) == (2, True)  # side k, grown twice
    assert d.n == k**3
    assert _cells(d) == [(1, 2), (k**2 + 1, 1)]
    assert d.set(1, k**3) == (2, True) and d.n == k**3  # fits: no growth
    for r, c in ((0, 1), (1, 0), (-1, 5)):
        with pytest.raises(IndexError):
            d.set(r, c)
    assert d.n == k**3 and len(_cells(d)) == 3
    e = DynK2Tree(k, k=k)
    assert e.set(1, k + 1) == (1, True) and e.n == k**2  # a column past the side
