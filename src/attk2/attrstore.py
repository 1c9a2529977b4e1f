"""Attribute storage: sparse value lists and dense value matrices.

A sparse attribute of a label is a value list indexed by ``id - limit``
(limit being the label's lowest id, or 1 where the dynamic store indexes by
rank within the label), with None for an absent value, and a value-order
index: an ``array('I')`` of the positions of the present values only, sorted
by value and equal values by position, so a select is one C-level bisect
and a walk over its answer, and a dynamic write takes three bisects and one
insert or delete for each index entry it changes.

Dense attributes of one kind share a single k²-tree whose rows are element
ids and whose columns are value columns, grouped in per-attribute blocks; a
one at (i, j) means element i takes the j-th column's value. Beside the
k²-tree, which answers row accesses, the same ones are kept column-major as
value postings: one run of ascending element ids per column, so a select
bisects its id range inside one run.

The dynamic store keeps one growable `SparseAttribute` per (label,
attribute), indexed by each element's rank within its label, and one dynamic
k²-tree per dense attribute with columns appended in first-seen order.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import itemgetter

from .errors import InputError
from .k2 import DynK2Tree, K2Tree


class SparseAttribute:
    """Values of one sparse attribute over a contiguous id range that starts
    at `limit`: a label's ids in the static store, its element ranks (limit
    1) in the dynamic one."""

    __slots__ = ("label", "att", "limit", "values", "lex_index")

    def __init__(self, label: str, att: str, limit: int, values: list, lex_index=None):
        self.label = label
        self.att = att
        self.limit = limit
        self.values = values
        if lex_index is None:
            lex_index = array(
                "I",
                sorted(
                    (i for i, v in enumerate(values) if v is not None),
                    key=values.__getitem__,
                ),
            )
        # positions of the present values by value, equal values by position
        self.lex_index = lex_index

    def get(self, elem_id: int):
        pos = elem_id - self.limit
        if not 0 <= pos < len(self.values):
            raise IndexError(
                f"id {elem_id} outside range of {self.label}.{self.att}"
            )
        return self.values[pos]

    def set(self, elem_id: int, value):
        """Last-write-wins assignment (None clears), extending the list with
        absents up to the id."""
        pos = elem_id - self.limit
        values = self.values
        if pos >= len(values):
            values.extend([None] * (pos + 1 - len(values)))
        old = values[pos]
        if old == value:
            return
        if old is not None:
            del self.lex_index[self._slot(old, pos)]
        values[pos] = value
        if value is not None:
            self.lex_index.insert(self._slot(value, pos), pos)

    def _slot(self, value: str, pos: int) -> int:
        """Where position pos, holding `value`, sits (or goes) in lex_index."""
        idx = self.lex_index
        key = self.values.__getitem__
        lo = bisect_left(idx, value, key=key)
        return bisect_left(idx, pos, lo, bisect_right(idx, value, lo, key=key))

    def select(self, value: str) -> list[int]:
        """Ascending ids whose value equals `value`."""
        idx = self.lex_index
        vals = self.values
        n = len(idx)
        lo = bisect_left(idx, value, key=vals.__getitem__)
        # a walk, not a second bisect: most answers hold a value or two
        out = []
        while lo < n and vals[idx[lo]] == value:
            out.append(idx[lo] + self.limit)
            lo += 1
        return out


class DenseAttributeMatrix:
    """All dense attributes of one element kind, packed into one k²-tree,
    with the value postings of its columns.

    Column c's postings are ``ids[offsets[c - 1]:offsets[c]]``: the element
    ids taking that column's value, ascending."""

    __slots__ = ("matrix", "atts", "col_limits", "col_values", "offsets", "ids", "_att_index")

    def __init__(
        self,
        matrix: K2Tree | None,
        atts: list[str],
        col_limits: list[int],
        col_values: list[list[str]],
        offsets: array,
        ids: array,
    ):
        self.matrix = matrix
        self.atts = atts
        self.col_limits = col_limits
        self.col_values = col_values
        self.offsets = offsets
        self.ids = ids
        self._att_index = {a: i for i, a in enumerate(atts)}

    @classmethod
    def build(
        cls,
        n_elements: int,
        triples: list[tuple[int, str, str]],
        k: int = 2,
    ) -> "DenseAttributeMatrix":
        """triples: (element id, attribute, value); one value per (id, att)."""
        per_att: dict[str, dict[int, str]] = {}
        for elem_id, att, value in triples:
            row = per_att.setdefault(att, {})
            if elem_id in row:
                raise InputError(
                    f"element {elem_id} takes two values for dense attribute {att!r}"
                )
            row[elem_id] = value
        atts = sorted(per_att)
        col_limits = []
        col_values = []
        cells = []
        total = 0
        for att in atts:
            rows = per_att[att]
            values = sorted(set(rows.values()))
            pos = {v: total + j + 1 for j, v in enumerate(values)}
            total += len(values)
            col_limits.append(total)
            col_values.append(values)
            for elem_id, value in rows.items():
                cells.append((elem_id, pos[value]))
        counts = [0] * (total + 1)
        for _, col in cells:
            counts[col] += 1
        offsets = array("I", accumulate(counts))
        ids = array("I", map(itemgetter(0), sorted(cells, key=itemgetter(1, 0))))
        matrix = K2Tree.build(max(n_elements, total), cells, k) if cells else None
        return cls(matrix, atts, col_limits, col_values, offsets, ids)

    def _block(self, att: str) -> tuple[int, int]:
        """Inclusive column range of the attribute's block."""
        i = self._att_index[att]
        lower = self.col_limits[i - 1] if i else 0
        return lower + 1, self.col_limits[i]

    def get(self, elem_id: int, att: str):
        """Value of the attribute for the element, or None."""
        if self.matrix is None or att not in self._att_index:
            return None
        c1, c2 = self._block(att)
        if c1 > c2 or elem_id > self.matrix.n_logical:
            return None
        hits = self.matrix.row_leaves(elem_id, c1, c2)
        if not hits:
            return None
        col = hits[0][0]
        return self.col_values[self._att_index[att]][col - c1]

    def select(self, att: str, value: str, lo: int, hi: int) -> list[int]:
        """Ascending element ids in lo..hi taking `value` for the attribute."""
        if att not in self._att_index:
            return []
        values = self.col_values[self._att_index[att]]
        j = bisect_left(values, value)
        if j >= len(values) or values[j] != value:
            return []
        col = self._block(att)[0] + j
        ids = self.ids
        first = bisect_left(ids, lo, self.offsets[col - 1], self.offsets[col])
        return ids[first : bisect_right(ids, hi, first, self.offsets[col])].tolist()


class DynDenseAttribute:
    """One dynamic k²-tree per dense attribute; value columns append-only."""

    __slots__ = ("att", "tree", "values", "_col_of")

    def __init__(self, att: str, k: int = 2):
        self.att = att
        self.tree = DynK2Tree(k=k)
        self.values: list[str] = []
        self._col_of: dict[str, int] = {}

    def _ensure(self, side: int):
        while self.tree.n < side:
            self.tree.grow()

    def set(self, elem_id: int, value: str):
        """Last-write-wins assignment; unseen values open a new final column."""
        col = self._col_of.get(value)
        if col is None:
            self.values.append(value)
            col = len(self.values)
            self._col_of[value] = col
        self._ensure(max(elem_id, col))
        for prev_col, _ in self.tree.row_leaves(elem_id, 1, self.tree.n):
            if prev_col != col:
                self.tree.clear(elem_id, prev_col)
        self.tree.set(elem_id, col)

    def clear(self, elem_id: int):
        """Drop the element's value, if any."""
        if elem_id > self.tree.n:
            return
        for col, _ in self.tree.row_leaves(elem_id, 1, self.tree.n):
            self.tree.clear(elem_id, col)

    def get(self, elem_id: int):
        if elem_id > self.tree.n:
            return None
        hits = self.tree.row_leaves(elem_id, 1, self.tree.n)
        if not hits:
            return None
        return self.values[hits[0][0] - 1]

    def select(self, value: str, lo: int, hi: int) -> list[int]:
        col = self._col_of.get(value)
        if col is None:
            return []
        hi = min(hi, self.tree.n)
        if lo > hi:
            return []
        return [row for row, _ in self.tree.col_leaves(col, lo, hi)]
