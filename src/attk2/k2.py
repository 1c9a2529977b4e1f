"""k²-trees: recursively partitioned boolean matrices, static and dynamic.

The matrix side is padded to the next power of k. Internal levels live in the
T bitmap, the single-cell leaf level in L, both laid out levelwise with
children in row-major order inside each k² block. The children of the j-th
one of T start at concatenated position j*k² (block 0 belongs to the virtual
root), so navigation needs nothing beyond rank over T. Reads and writes name
a leaf by its ordinal, the 1-based rank of its one in L, which indexes the
relations layer's Multi/Last or lists: only this module locates a leaf in L.

Both trees navigate the same way, so the read-only descents are written once,
against the one bit-vector method that `BitSequence` and `DynBitSequence`
share: ``access_rank(p)``, which returns ``(access(p), rank1(p))`` after
locating p once. `_leaf_pos` is the point descent (a cell's ordinal, 0 when
the cell is 0) and `_rect_leaves` the rectangle descent; a row or a column is
its one-row or one-column case. `DynMultiEdge.remove_edge` finds its leaf
with `_leaf_pos`: on a replayed 10k-node / 25k-edge dynamic tree that took
12.5 µs against 24.3 µs for a one-cell `row_leaves`. Only `DynK2Tree.set`,
which grows the side until the cell fits, and `DynK2Tree.clear` walk the tree
themselves, because they change it on the way. A whole-tree read is `_cells`,
one level-order pass over the bits of T and then L with no rank call: the
inverse of `build_with_order`.

A static k=2 row takes its own walk in `K2Tree.row_leaves`, which reads the
words inline: the row picks the same half of every block of one level, so the
two children it may enter are adjacent bits of one word, numbered by one
popcount; one more numbers the row's two cells of a leaf block. Attribute
lookups, Neighbors and Related run on it; routed through the shared descent,
those 40k-node / 100k-edge query sets ran 1.5–1.6×, 2.5× and 2.7× slower
(CPython 3.11, 2 vCPUs, min of 20 alternating rounds in one process). A
static column takes the shared descent at every k. The static store walks a
dense value column once, on the column's first select, and keeps its ids.

Rows and columns are 1-based in the public API.
"""

from __future__ import annotations

from itertools import chain, compress, count
from typing import Iterable

from .bits import BitSequence, DynBitSequence
from .errors import InputError


def _padded_side(n_logical: int, k: int) -> int:
    side = k
    while side < n_logical:
        side *= k
    return side


def _leaf_pos(tree, r: int, c: int) -> int:
    """Leaf ordinal of cell (r, c) (0-based coordinates); 0 if the cell is 0."""
    k = tree.k
    k2 = k * k
    access_rank = tree.T.access_rank
    size = tree.n // k
    pos = 0
    while size > 1:
        bit, ones = access_rank(pos + (r // size) * k + (c // size) + 1)
        if not bit:
            return 0
        r %= size
        c %= size
        pos = ones * k2
        size //= k
    bit, ordinal = tree.L.access_rank(pos + r * k + c - tree.T.n + 1)
    return ordinal if bit else 0


def _rect_leaves(tree, rlo: int, rhi: int, clo: int, chi: int) -> list[tuple[int, int, int]]:
    """(row, col, leaf ordinal) triples, rows and columns 1-based and sorted,
    of the ones in rows rlo..rhi and columns clo..chi (0-based, inclusive).

    The walk goes level by level, so leaves come out in L order; inside one
    row or one column that is already column or row order.
    """
    k = tree.k
    k2 = k * k
    access_rank = tree.T.access_rank
    sub = tree.n // k
    level = [(0, 0, 0)]  # (start of the k² block, first row, first column)
    while sub > 1 and level:
        nxt = []
        for start, row0, col0 in level:
            for i in range(k):
                row = row0 + i * sub
                if row > rhi or row + sub <= rlo:
                    continue
                p = start + i * k + 1
                for j in range(k):
                    col = col0 + j * sub
                    if col > chi or col + sub <= clo:
                        continue
                    bit, ones = access_rank(p + j)
                    if bit:
                        nxt.append((ones * k2, row, col))
        level = nxt
        sub //= k
    access_rank = tree.L.access_rank
    tn = tree.T.n
    out = []
    for start, row0, col0 in level:
        for i in range(k):
            row = row0 + i
            if rlo <= row <= rhi:
                q = start + i * k - tn
                for j in range(k):
                    if clo <= col0 + j <= chi:
                        bit, ordinal = access_rank(q + j + 1)
                        if bit:
                            out.append((row + 1, col0 + j + 1, ordinal))
    out.sort()
    return out


def _cells(tree) -> list[tuple[int, int]]:
    """The 1-based (row, col) of every one, in L order: the i-th cell holds
    the i-th one of L. The inverse of `K2Tree.build_with_order`."""
    k = tree.k
    k2 = k * k
    # (first row, first column, child side) of each block: the root's, then
    # one per one of T, in the order of the ones; the ones of L come last
    blocks = [(0, 0, tree.n // k)]
    for p in compress(count(), chain(tree.T.to_bits(), tree.L.to_bits())):
        row, col, sub = blocks[p // k2]
        i = p % k2
        blocks.append((row + i // k * sub, col + i % k * sub, sub // k))
    return [(row + 1, col + 1) for row, col, _ in blocks[1 + tree.T.ones :]]


# Read methods both tree classes share; `_check_rc` holds each class's bounds.


def _row_leaves(self, r: int, c1: int, c2: int) -> list[tuple[int, int]]:
    """(col, leaf ordinal) pairs for ones in row r, cols c1..c2."""
    if c1 > c2:
        return []
    self._check_rc(r, c1)
    self._check_rc(r, c2)
    return [(c, i) for _, c, i in _rect_leaves(self, r - 1, r - 1, c1 - 1, c2 - 1)]


def _col_leaves(self, c: int, r1: int, r2: int) -> list[tuple[int, int]]:
    """(row, leaf ordinal) pairs for ones in column c, rows r1..r2."""
    if r1 > r2:
        return []
    self._check_rc(r1, c)
    self._check_rc(r2, c)
    return [(r, i) for r, _, i in _rect_leaves(self, r1 - 1, r2 - 1, c - 1, c - 1)]


class K2Tree:
    """Static k²-tree over an n_logical×n_logical boolean matrix, padded to
    the side n, the next power of k."""

    __slots__ = ("k", "n", "n_logical", "T", "L")

    def __init__(self, k: int, n_logical: int, t: BitSequence, l: BitSequence):
        self.k = k
        self.n = _padded_side(n_logical, k)
        self.n_logical = n_logical
        self.T = t
        self.L = l

    @classmethod
    def build(cls, n_logical: int, cells: Iterable[tuple[int, int]], k: int = 2) -> "K2Tree":
        """Build from 1-based (row, col) cells; duplicates are collapsed."""
        return cls.build_with_order(n_logical, cells, k)[0]

    @classmethod
    def build_with_order(
        cls, n_logical: int, cells: Iterable[tuple[int, int]], k: int = 2
    ) -> tuple["K2Tree", list[tuple[int, int]]]:
        """`build`, plus the distinct 1-based cells in leaf order: the i-th
        cell holds the i-th one of L."""
        if k < 2:
            raise InputError(f"k must be at least 2, got {k}")
        if n_logical < 0:
            raise InputError(f"matrix side must be non-negative, got {n_logical}")
        cell_set = set()
        for r, c in cells:
            if not (1 <= r <= n_logical and 1 <= c <= n_logical):
                raise InputError(f"cell ({r}, {c}) outside {n_logical}x{n_logical} matrix")
            cell_set.add((r - 1, c - 1))
        n = _padded_side(n_logical, k)
        k2 = k * k
        t_bits: list[int] = []
        l_bits: list[int] = []
        # blocks hold the 0-based cells themselves, in leaf order at the end
        blocks = [sorted(cell_set)]
        size = n
        while size > k:
            sub = size // k
            next_blocks = []
            for block in blocks:
                buckets = [None] * k2
                for cell in block:
                    idx = (cell[0] // sub % k) * k + cell[1] // sub % k
                    if buckets[idx] is None:
                        buckets[idx] = []
                    buckets[idx].append(cell)
                for bucket in buckets:
                    if bucket is None:
                        t_bits.append(0)
                    else:
                        t_bits.append(1)
                        next_blocks.append(bucket)
            blocks = next_blocks
            size = sub
        for block in blocks:
            leaf = [0] * k2
            for r, c in block:
                leaf[r % k * k + c % k] = 1
            l_bits.extend(leaf)
        tree = cls(k, n_logical, BitSequence(t_bits), BitSequence(l_bits))
        return tree, [(r + 1, c + 1) for block in blocks for r, c in block]

    @property
    def ones(self) -> int:
        """Number of distinct 1-cells."""
        return self.L.ones

    @property
    def bit_size(self) -> int:
        """Total payload bits, |T| + |L|."""
        return self.T.n + self.L.n

    def _check_rc(self, r: int, c: int):
        if not (1 <= r <= self.n_logical and 1 <= c <= self.n_logical):
            raise IndexError(
                f"cell ({r}, {c}) outside {self.n_logical}x{self.n_logical} matrix"
            )

    col_leaves = _col_leaves

    def row_leaves(self, r: int, c1: int, c2: int) -> list[tuple[int, int]]:
        """(col, leaf ordinal) pairs for ones in row r, cols c1..c2."""
        if self.k != 2:
            return _row_leaves(self, r, c1, c2)
        if c1 > c2:
            return []
        self._check_rc(r, c1)
        self._check_rc(r, c2)
        # The k=2 row walk. Below a block whose children have side 2^j the
        # row lies in half (rr >> j) & 1, the same for every block of the
        # level, so its two children are T bits p and p+1: one word holds
        # both (blocks start at multiples of 4), and one popcount numbers
        # them. A pushed block meets the window lo..hi, so each child needs
        # one test. Stack entries are (block start, first column, j); a block
        # with j = 0 lies in L, where one shift reads the row's two cells and
        # one popcount against L's directory numbers them.
        rr = r - 1
        lo = c1 - 1
        hi = c2 - 1
        tw = self.T._words
        tc = self.T._cum
        tn = self.T.n
        lw = self.L._words
        lc = self.L._cum
        out = []
        emit = out.append
        stack = [(0, 0, self.n.bit_length() - 2)]
        pop = stack.pop
        push = stack.append
        while stack:
            start, col0, j = pop()
            p = start + ((rr >> j & 1) << 1)
            if not j:
                p -= tn
                w = p >> 6
                word = lw[w]
                p &= 63
                pair = word >> p & 3
                if pair:
                    ordinal = lc[w] + (word & ((1 << p) - 1)).bit_count() + (pair & 1)
                    if pair & 1 and col0 >= lo:
                        emit((col0 + 1, ordinal))
                    if pair & 2 and col0 < hi:
                        emit((col0 + 2, ordinal + 1))
                continue
            w = p >> 6
            word = tw[w]
            p &= 63
            pair = word >> p & 3
            if pair:
                ones = tc[w] + (word & ((2 << p) - 1)).bit_count()
                mid = col0 + (1 << j)
                j -= 1
                if pair & 2 and mid <= hi:
                    push(((ones + 1) << 2, mid, j))
                if pair & 1 and mid > lo:
                    push((ones << 2, col0, j))
        return out


class DynK2Tree:
    """k²-tree over dynamic bitmaps; cells can be set and cleared, and the
    matrix side can grow by factors of k (new area appended right/below)."""

    __slots__ = ("k", "n", "T", "L")

    def __init__(self, n_initial: int = 0, k: int = 2):
        if k < 2:
            raise InputError(f"k must be at least 2, got {k}")
        self.k = k
        self.n = _padded_side(max(1, n_initial), k)
        k2 = k * k
        if self.n == k:
            self.T = DynBitSequence()
            self.L = DynBitSequence([0] * k2)
        else:
            self.T = DynBitSequence([0] * k2)
            self.L = DynBitSequence()

    @property
    def bit_size(self) -> int:
        return self.T.n + self.L.n

    def _check_rc(self, r: int, c: int):
        if not (1 <= r <= self.n and 1 <= c <= self.n):
            raise IndexError(f"cell ({r}, {c}) outside {self.n}x{self.n} matrix")

    def grow(self):
        """Multiply the side by k; existing cells keep their coordinates."""
        k2 = self.k * self.k
        single_level = self.T.n == 0
        root = self.L if single_level else self.T
        empty = root.rank1(k2) == 0
        self.n *= self.k
        if empty:
            if single_level:
                self.L.remove_run(1, k2)
                self.T.insert_zeros(1, k2)
            return
        self.T.insert_zeros(1, k2)
        self.T.set_bit(1, 1)

    def set(self, r: int, c: int) -> tuple[int, bool]:
        """Set cell (r, c), growing the side until it fits; returns (leaf
        ordinal, created)."""
        if r < 1 or c < 1:
            raise IndexError(f"cell ({r}, {c}) must have positive coordinates")
        while self.n < r or self.n < c:
            self.grow()
        k = self.k
        k2 = k * k
        t = self.T
        l = self.L
        r -= 1
        c -= 1
        size = self.n
        pos = 0
        while True:
            size //= k
            p = pos + (r // size) * k + (c // size)
            if size == 1:
                lp = p - t.n
                bit, ordinal = l.access_rank(lp + 1)
                if bit:
                    return ordinal, False
                l.set_bit(lp + 1, 1)
                return ordinal + 1, True
            bit, ones = t.access_rank(p + 1)
            if not bit:
                break
            r %= size
            c %= size
            pos = ones * k2
        # materialize the missing path: flip the internal bit, then splice a
        # fresh all-zero child block at each deeper level
        t.set_bit(p + 1, 1)
        ones += 1
        while True:
            r %= size
            c %= size
            start = ones * k2
            size //= k
            child = (r // size) * k + (c // size)
            if size == 1:
                lp = start - t.n + child
                l.insert_zeros(start - t.n + 1, k2)
                l.set_bit(lp + 1, 1)
                return l.rank1(lp + 1), True
            t.insert_zeros(start + 1, k2)
            p = start + child
            t.set_bit(p + 1, 1)
            ones = t.rank1(p + 1)

    def clear(self, r: int, c: int) -> tuple[int, bool]:
        """Clear cell (r, c); returns (former leaf ordinal, was present).

        Blocks left all-zero are removed and the parent bit cleared, keeping
        the empty-submatrix rule intact; clearing an absent cell is a no-op.
        """
        self._check_rc(r, c)
        k = self.k
        k2 = k * k
        t = self.T
        l = self.L
        r -= 1
        c -= 1
        size = self.n
        pos = 0
        path = []
        while True:
            size //= k
            p = pos + (r // size) * k + (c // size)
            if size == 1:
                lp = p - t.n
                bit, ordinal = l.access_rank(lp + 1)
                if not bit:
                    return 0, False
                l.set_bit(lp + 1, 0)
                block = lp - lp % k2
                # the root block is never removed, even when all zero
                if t.n and l.rank1(block + k2) - l.rank1(block) == 0:
                    l.remove_run(block + 1, k2)
                    self._cascade(path)
                return ordinal, True
            bit, ones = t.access_rank(p + 1)
            if not bit:
                return 0, False
            path.append(p)
            r %= size
            c %= size
            pos = ones * k2

    def _cascade(self, path: list[int]):
        t = self.T
        k2 = self.k * self.k
        for p in reversed(path):
            t.set_bit(p + 1, 0)
            block = p - p % k2
            if block == 0:
                break
            if t.rank1(block + k2) - t.rank1(block) == 0:
                t.remove_run(block + 1, k2)
            else:
                break

    row_leaves = _row_leaves
    col_leaves = _col_leaves
