"""k²-trees: recursively partitioned boolean matrices, static and dynamic.

The matrix side is padded to the next power of k. Internal levels live in the
T bitmap, the single-cell leaf level in L, both laid out levelwise with
children in row-major order inside each k² block. The children of the j-th
one of T start at concatenated position j*k² (block 0 belongs to the virtual
root), so navigation needs nothing beyond rank over T, and L carries rank
support so leaf ones can be numbered.

Rows and columns are 1-based in the public API.
"""

from __future__ import annotations

from typing import Iterable

from .bits import BitSequence, DynBitSequence
from .errors import InputError, NotFoundError


def _padded_side(n_logical: int, k: int) -> int:
    side = k
    while side < n_logical:
        side *= k
    return side


class K2Tree:
    """Static k²-tree over an n×n boolean matrix."""

    __slots__ = ("k", "n", "n_logical", "T", "L")

    def __init__(self, k: int, n: int, n_logical: int, t: BitSequence, l: BitSequence):
        self.k = k
        self.n = n
        self.n_logical = n_logical
        self.T = t
        self.L = l

    @classmethod
    def build(cls, n_logical: int, cells: Iterable[tuple[int, int]], k: int = 2) -> "K2Tree":
        """Build from 1-based (row, col) cells; duplicates are collapsed."""
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
        blocks = [sorted(cell_set)]
        size = n
        while size > k:
            sub = size // k
            next_blocks = []
            for block in blocks:
                buckets = [None] * k2
                for r, c in block:
                    idx = (r // sub) * k + (c // sub)
                    if buckets[idx] is None:
                        buckets[idx] = []
                    buckets[idx].append((r % sub, c % sub))
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
                leaf[r * k + c] = 1
            l_bits.extend(leaf)
        return cls(k, n, n_logical, BitSequence(t_bits), BitSequence(l_bits))

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

    def cell(self, r: int, c: int) -> int:
        self._check_rc(r, c)
        return 1 if self._leaf_pos(r - 1, c - 1) >= 0 else 0

    def leaf_ordinal(self, r: int, c: int) -> int:
        """Ordinal (1-based, levelwise) of this cell's one among the leaf ones."""
        self._check_rc(r, c)
        pos = self._leaf_pos(r - 1, c - 1)
        if pos < 0:
            raise NotFoundError(f"cell ({r}, {c}) is not set")
        return self.L.rank1(pos + 1)

    def _leaf_pos(self, r: int, c: int) -> int:
        """0-based position in L of the cell's bit, or -1 if the cell is 0."""
        k = self.k
        k2 = k * k
        tw = self.T._words
        tc = self.T._cum
        tn = self.T.n
        lw = self.L._words
        size = self.n
        pos = 0
        while True:
            size //= k
            p = pos + (r // size) * k + (c // size)
            if p >= tn:
                p -= tn
                if (lw[p >> 6] >> (p & 63)) & 1:
                    return p
                return -1
            if not (tw[p >> 6] >> (p & 63)) & 1:
                return -1
            r %= size
            c %= size
            p += 1
            w = p >> 6
            rem = p & 63
            ones = tc[w]
            if rem:
                ones += (tw[w] & ((1 << rem) - 1)).bit_count()
            pos = ones * k2

    def row_neighbors(self, r: int) -> list[int]:
        """Ascending columns with a 1 in row r."""
        self._check_rc(r, 1)
        return [c for c, _ in self.row_leaves(r, 1, self.n_logical)]

    def col_neighbors(self, c: int) -> list[int]:
        """Ascending rows with a 1 in column c."""
        self._check_rc(1, c)
        return [r for r, _ in self.col_leaves(c, 1, self.n_logical)]

    def row_leaves(self, r: int, c1: int, c2: int) -> list[tuple[int, int]]:
        """(col, 0-based L position) pairs for ones in row r, cols c1..c2."""
        if c1 > c2:
            return []
        self._check_rc(r, c1)
        self._check_rc(r, c2)
        if self.k == 2:
            if c1 == 1 and c2 == self.n_logical:
                return self._row_leaves2_full(r - 1)
            return self._row_leaves2(r - 1, c1 - 1, c2 - 1)
        k = self.k
        k2 = k * k
        tw = self.T._words
        tc = self.T._cum
        tn = self.T.n
        lw = self.L._words
        lo, hi = c1 - 1, c2 - 1
        out = []
        stack = [(0, self.n // k, r - 1, 0)]
        while stack:
            start, sub, rr, col0 = stack.pop()
            base = start + (rr // sub) * k
            if sub == 1:
                for j in range(k):
                    col = col0 + j
                    if col < lo or col > hi:
                        continue
                    q = base + j - tn
                    if (lw[q >> 6] >> (q & 63)) & 1:
                        out.append((col + 1, q))
                continue
            rr %= sub
            nxt = []
            for j in range(k):
                ccol = col0 + j * sub
                if ccol > hi or ccol + sub <= lo:
                    continue
                p = base + j
                if (tw[p >> 6] >> (p & 63)) & 1:
                    p += 1
                    w = p >> 6
                    rem = p & 63
                    ones = tc[w]
                    if rem:
                        ones += (tw[w] & ((1 << rem) - 1)).bit_count()
                    nxt.append((ones * k2, sub // k, rr, ccol))
            stack.extend(reversed(nxt))
        return out

    def _row_leaves2(self, rr: int, lo: int, hi: int) -> list[tuple[int, int]]:
        # unrolled k=2 variant of row_leaves; this is the hottest loop in the
        # package, so children are pushed inline instead of via a temp list
        tw = self.T._words
        tc = self.T._cum
        tn = self.T.n
        lw = self.L._words
        out = []
        stack = [(0, self.n >> 1, rr, 0)]
        pop = stack.pop
        push = stack.append
        emit = out.append
        while stack:
            start, sub, rr, col0 = pop()
            if rr >= sub:
                rr -= sub
                start += 2
            if sub == 1:
                q = start - tn
                if lo <= col0 <= hi and (lw[q >> 6] >> (q & 63)) & 1:
                    emit((col0 + 1, q))
                col0 += 1
                q += 1
                if lo <= col0 <= hi and (lw[q >> 6] >> (q & 63)) & 1:
                    emit((col0 + 1, q))
                continue
            half = sub >> 1
            c1 = col0 + sub
            if c1 <= hi and c1 + sub > lo:
                p = start + 1
                if (tw[p >> 6] >> (p & 63)) & 1:
                    p += 1
                    w = p >> 6
                    rem = p & 63
                    ones = tc[w]
                    if rem:
                        ones += (tw[w] & ((1 << rem) - 1)).bit_count()
                    push((ones << 2, half, rr, c1))
            if col0 <= hi and col0 + sub > lo:
                p = start
                if (tw[p >> 6] >> (p & 63)) & 1:
                    p += 1
                    w = p >> 6
                    rem = p & 63
                    ones = tc[w]
                    if rem:
                        ones += (tw[w] & ((1 << rem) - 1)).bit_count()
                    push((ones << 2, half, rr, col0))
        return out

    def _row_leaves2_full(self, rr: int) -> list[tuple[int, int]]:
        # full-width row scan: no column window to test (padding cells are 0)
        tw = self.T._words
        tc = self.T._cum
        tn = self.T.n
        lw = self.L._words
        out = []
        stack = [(0, self.n >> 1, rr, 0)]
        pop = stack.pop
        push = stack.append
        emit = out.append
        while stack:
            start, sub, rr, col0 = pop()
            if rr >= sub:
                rr -= sub
                start += 2
            if sub == 1:
                q = start - tn
                if (lw[q >> 6] >> (q & 63)) & 1:
                    emit((col0 + 1, q))
                q += 1
                if (lw[q >> 6] >> (q & 63)) & 1:
                    emit((col0 + 2, q))
                continue
            p = start + 1
            if (tw[p >> 6] >> (p & 63)) & 1:
                p += 1
                w = p >> 6
                rem = p & 63
                ones = tc[w]
                if rem:
                    ones += (tw[w] & ((1 << rem) - 1)).bit_count()
                push((ones << 2, sub >> 1, rr, col0 + sub))
            p = start
            if (tw[p >> 6] >> (p & 63)) & 1:
                p += 1
                w = p >> 6
                rem = p & 63
                ones = tc[w]
                if rem:
                    ones += (tw[w] & ((1 << rem) - 1)).bit_count()
                push((ones << 2, sub >> 1, rr, col0))
        return out

    def col_leaves(self, c: int, r1: int, r2: int) -> list[tuple[int, int]]:
        """(row, 0-based L position) pairs for ones in column c, rows r1..r2."""
        if r1 > r2:
            return []
        self._check_rc(r1, c)
        self._check_rc(r2, c)
        if self.k == 2:
            return self._col_leaves2(c - 1, r1 - 1, r2 - 1)
        k = self.k
        k2 = k * k
        tw = self.T._words
        tc = self.T._cum
        tn = self.T.n
        lw = self.L._words
        lo, hi = r1 - 1, r2 - 1
        out = []
        stack = [(0, self.n // k, c - 1, 0)]
        while stack:
            start, sub, cc, row0 = stack.pop()
            coff = cc // sub
            if sub == 1:
                for i in range(k):
                    row = row0 + i
                    if row < lo or row > hi:
                        continue
                    q = start + i * k + coff - tn
                    if (lw[q >> 6] >> (q & 63)) & 1:
                        out.append((row + 1, q))
                continue
            cc %= sub
            nxt = []
            for i in range(k):
                crow = row0 + i * sub
                if crow > hi or crow + sub <= lo:
                    continue
                p = start + i * k + coff
                if (tw[p >> 6] >> (p & 63)) & 1:
                    p += 1
                    w = p >> 6
                    rem = p & 63
                    ones = tc[w]
                    if rem:
                        ones += (tw[w] & ((1 << rem) - 1)).bit_count()
                    nxt.append((ones * k2, sub // k, cc, crow))
            stack.extend(reversed(nxt))
        return out

    def _col_leaves2(self, cc: int, lo: int, hi: int) -> list[tuple[int, int]]:
        # unrolled k=2 variant of col_leaves
        tw = self.T._words
        tc = self.T._cum
        tn = self.T.n
        lw = self.L._words
        out = []
        stack = [(0, self.n >> 1, cc, 0)]
        pop = stack.pop
        push = stack.append
        emit = out.append
        while stack:
            start, sub, cc, row0 = pop()
            if cc >= sub:
                cc -= sub
                start += 1
            if sub == 1:
                q = start - tn
                if lo <= row0 <= hi and (lw[q >> 6] >> (q & 63)) & 1:
                    emit((row0 + 1, q))
                row0 += 1
                q += 2
                if lo <= row0 <= hi and (lw[q >> 6] >> (q & 63)) & 1:
                    emit((row0 + 1, q))
                continue
            half = sub >> 1
            r1 = row0 + sub
            if r1 <= hi and r1 + sub > lo:
                p = start + 2
                if (tw[p >> 6] >> (p & 63)) & 1:
                    p += 1
                    w = p >> 6
                    rem = p & 63
                    ones = tc[w]
                    if rem:
                        ones += (tw[w] & ((1 << rem) - 1)).bit_count()
                    push((ones << 2, half, cc, r1))
            if row0 <= hi and row0 + sub > lo:
                p = start
                if (tw[p >> 6] >> (p & 63)) & 1:
                    p += 1
                    w = p >> 6
                    rem = p & 63
                    ones = tc[w]
                    if rem:
                        ones += (tw[w] & ((1 << rem) - 1)).bit_count()
                    push((ones << 2, half, cc, row0))
        return out

    def range(self, r1: int, r2: int, c1: int, c2: int) -> list[tuple[int, int]]:
        """All 1-cells inside the rectangle, in lexicographic (row, col) order."""
        return [(r, c) for r, c, _ in self.range_leaves(r1, r2, c1, c2)]

    def range_leaves(
        self, r1: int, r2: int, c1: int, c2: int
    ) -> list[tuple[int, int, int]]:
        """(row, col, 0-based L position) triples inside the rectangle, sorted."""
        if r1 > r2 or c1 > c2:
            raise InputError(f"malformed rectangle ({r1}..{r2}, {c1}..{c2})")
        self._check_rc(r1, c1)
        self._check_rc(r2, c2)
        k = self.k
        k2 = k * k
        tw = self.T._words
        tc = self.T._cum
        tn = self.T.n
        lw = self.L._words
        rlo, rhi = r1 - 1, r2 - 1
        clo, chi = c1 - 1, c2 - 1
        out = []
        stack = [(0, self.n // k, 0, 0)]
        while stack:
            start, sub, row0, col0 = stack.pop()
            if sub == 1:
                for i in range(k):
                    row = row0 + i
                    if row < rlo or row > rhi:
                        continue
                    for j in range(k):
                        col = col0 + j
                        if col < clo or col > chi:
                            continue
                        q = start + i * k + j - tn
                        if (lw[q >> 6] >> (q & 63)) & 1:
                            out.append((row + 1, col + 1, q))
                continue
            for i in range(k):
                crow = row0 + i * sub
                if crow > rhi or crow + sub <= rlo:
                    continue
                for j in range(k):
                    ccol = col0 + j * sub
                    if ccol > chi or ccol + sub <= clo:
                        continue
                    p = start + i * k + j
                    if (tw[p >> 6] >> (p & 63)) & 1:
                        p += 1
                        w = p >> 6
                        rem = p & 63
                        ones = tc[w]
                        if rem:
                            ones += (tw[w] & ((1 << rem) - 1)).bit_count()
                        stack.append((ones * k2, sub // k, crow, ccol))
        out.sort()
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
    def ones(self) -> int:
        return self.L.ones

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

    def set(self, r: int, c: int) -> tuple[int, int, bool]:
        """Set cell (r, c); returns (leaf ordinal, 0-based L position, created)."""
        self._check_rc(r, c)
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
                if l.access(lp + 1):
                    return l.rank1(lp + 1), lp, False
                l.set_bit(lp + 1, 1)
                return l.rank1(lp + 1), lp, True
            if not t.access(p + 1):
                break
            r %= size
            c %= size
            pos = t.rank1(p + 1) * k2
        # materialize the missing path: flip the internal bit, then splice a
        # fresh all-zero child block at each deeper level
        t.set_bit(p + 1, 1)
        while True:
            r %= size
            c %= size
            start = t.rank1(p + 1) * k2
            size //= k
            child = (r // size) * k + (c // size)
            if size == 1:
                lp = start - t.n + child
                l.insert_zeros(start - t.n + 1, k2)
                l.set_bit(lp + 1, 1)
                return l.rank1(lp + 1), lp, True
            t.insert_zeros(start + 1, k2)
            t.set_bit(start + child + 1, 1)
            p = start + child

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
                if not l.access(lp + 1):
                    return 0, False
                ordinal = l.rank1(lp + 1)
                l.set_bit(lp + 1, 0)
                block = lp - lp % k2
                # the root block is never removed, even when all zero
                if t.n and l.rank1(block + k2) - l.rank1(block) == 0:
                    l.remove_run(block + 1, k2)
                    self._cascade(path)
                return ordinal, True
            if not t.access(p + 1):
                return 0, False
            path.append(p)
            r %= size
            c %= size
            pos = t.rank1(p + 1) * k2

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

    def cell(self, r: int, c: int) -> int:
        self._check_rc(r, c)
        return 1 if self._leaf_pos(r - 1, c - 1) >= 0 else 0

    def leaf_ordinal(self, r: int, c: int) -> int:
        self._check_rc(r, c)
        pos = self._leaf_pos(r - 1, c - 1)
        if pos < 0:
            raise NotFoundError(f"cell ({r}, {c}) is not set")
        return self.L.rank1(pos + 1)

    def _leaf_pos(self, r: int, c: int) -> int:
        k = self.k
        k2 = k * k
        t = self.T
        tn = t.n
        size = self.n
        pos = 0
        while True:
            size //= k
            p = pos + (r // size) * k + (c // size)
            if p >= tn:
                p -= tn
                if self.L.access(p + 1):
                    return p
                return -1
            if not t.access(p + 1):
                return -1
            r %= size
            c %= size
            pos = t.rank1(p + 1) * k2

    def row_neighbors(self, r: int) -> list[int]:
        self._check_rc(r, 1)
        return [c for c, _ in self.row_leaves(r, 1, self.n)]

    def col_neighbors(self, c: int) -> list[int]:
        self._check_rc(1, c)
        return [r for r, _ in self.col_leaves(c, 1, self.n)]

    def row_leaves(self, r: int, c1: int, c2: int) -> list[tuple[int, int]]:
        if c1 > c2:
            return []
        self._check_rc(r, c1)
        self._check_rc(r, c2)
        k = self.k
        k2 = k * k
        t = self.T
        tn = t.n
        l = self.L
        lo, hi = c1 - 1, c2 - 1
        out = []
        stack = [(0, self.n // k, r - 1, 0)]
        while stack:
            start, sub, rr, col0 = stack.pop()
            base = start + (rr // sub) * k
            if sub == 1:
                for j in range(k):
                    col = col0 + j
                    if col < lo or col > hi:
                        continue
                    q = base + j - tn
                    if l.access(q + 1):
                        out.append((col + 1, q))
                continue
            rr %= sub
            nxt = []
            for j in range(k):
                ccol = col0 + j * sub
                if ccol > hi or ccol + sub <= lo:
                    continue
                p = base + j
                if t.access(p + 1):
                    nxt.append((t.rank1(p + 1) * k2, sub // k, rr, ccol))
            stack.extend(reversed(nxt))
        return out

    def col_leaves(self, c: int, r1: int, r2: int) -> list[tuple[int, int]]:
        if r1 > r2:
            return []
        self._check_rc(r1, c)
        self._check_rc(r2, c)
        k = self.k
        k2 = k * k
        t = self.T
        tn = t.n
        l = self.L
        lo, hi = r1 - 1, r2 - 1
        out = []
        stack = [(0, self.n // k, c - 1, 0)]
        while stack:
            start, sub, cc, row0 = stack.pop()
            coff = cc // sub
            if sub == 1:
                for i in range(k):
                    row = row0 + i
                    if row < lo or row > hi:
                        continue
                    q = start + i * k + coff - tn
                    if l.access(q + 1):
                        out.append((row + 1, q))
                continue
            cc %= sub
            nxt = []
            for i in range(k):
                crow = row0 + i * sub
                if crow > hi or crow + sub <= lo:
                    continue
                p = start + i * k + coff
                if t.access(p + 1):
                    nxt.append((t.rank1(p + 1) * k2, sub // k, cc, crow))
            stack.extend(reversed(nxt))
        return out

    def range(self, r1: int, r2: int, c1: int, c2: int) -> list[tuple[int, int]]:
        if r1 > r2 or c1 > c2:
            raise InputError(f"malformed rectangle ({r1}..{r2}, {c1}..{c2})")
        self._check_rc(r1, c1)
        self._check_rc(r2, c2)
        k = self.k
        k2 = k * k
        t = self.T
        tn = t.n
        l = self.L
        rlo, rhi = r1 - 1, r2 - 1
        clo, chi = c1 - 1, c2 - 1
        out = []
        stack = [(0, self.n // k, 0, 0)]
        while stack:
            start, sub, row0, col0 = stack.pop()
            if sub == 1:
                for i in range(k):
                    row = row0 + i
                    if row < rlo or row > rhi:
                        continue
                    for j in range(k):
                        col = col0 + j
                        if col < clo or col > chi:
                            continue
                        if l.access(start + i * k + j - tn + 1):
                            out.append((row + 1, col + 1))
                continue
            for i in range(k):
                crow = row0 + i * sub
                if crow > rhi or crow + sub <= rlo:
                    continue
                for j in range(k):
                    ccol = col0 + j * sub
                    if ccol > chi or ccol + sub <= clo:
                        continue
                    p = start + i * k + j
                    if t.access(p + 1):
                        stack.append((t.rank1(p + 1) * k2, sub // k, crow, ccol))
        out.sort()
        return out
