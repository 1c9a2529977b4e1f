"""Attribute storage: sparse value lists and dense value matrices.

A sparse attribute of a label is a value list indexed by ``id - limit``
(limit being the label's lowest id, or 1 where the dynamic store indexes by
rank within the label), with None for an absent value, and a value-order
index: an ``array('I')`` of the positions of the present values only, sorted
by value and equal values by position, so a select is one C-level bisect
and a walk over its answer, and a dynamic write takes three bisects and one
insert or delete for each index entry it changes. The index is derived from
the values, at build and at load alike.

Dense attributes of one kind share a single k²-tree whose rows are element
ids and whose columns are value columns, grouped in per-attribute blocks; a
one at (i, j) means element i takes the j-th column's value. A row read
answers `get`. A select bisects its id range in its column's ascending ids,
which the column's first select derives with one column descent of the tree
and keeps. An element with two ones in one attribute's block is corrupt:
the row read that finds it, and the column derivation that lists it, raise
`CorruptFileError`.

The dynamic store keeps one growable `SparseAttribute` per (label,
attribute), indexed by each element's rank within its label, and one dynamic
k²-tree per dense attribute with columns appended in first-seen order.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, compress, repeat
from operator import is_not
from typing import Iterable

from .errors import CorruptFileError, InputError
from .k2 import DynK2Tree, K2Tree


class SparseAttribute:
    """Values of one sparse attribute over a contiguous id range that starts
    at `limit`: a label's ids in the static store, its element ranks (limit
    1) in the dynamic one."""

    __slots__ = ("label", "att", "limit", "values", "lex_index")

    def __init__(self, label: str, att: str, limit: int, values: list):
        self.label = label
        self.att = att
        self.limit = limit
        self.values = values
        present = compress(range(len(values)), map(is_not, values, repeat(None)))
        # positions of the present values by value, equal values by position
        # (the sort is stable)
        self.lex_index = array("I", sorted(present, key=values.__getitem__))

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
    """All dense attributes of one element kind, packed into one k²-tree.

    `_columns` maps each value column a select has read to its element ids,
    ascending, taken from one column descent on that column's first select."""

    __slots__ = ("matrix", "atts", "col_limits", "col_values", "_att_index", "_columns")

    def __init__(self, matrix: K2Tree | None, atts: list[str], col_values: list[list[str]]):
        self.matrix = matrix
        self.atts = atts
        self.col_values = col_values
        self.col_limits = list(accumulate(map(len, col_values)))  # each block's last column
        self._att_index = {a: i for i, a in enumerate(atts)}
        self._columns: dict[int, array] = {}

    @classmethod
    def build(
        cls,
        n_elements: int,
        triples: list[tuple[int, str, str]],
        k: int = 2,
        declared: Iterable[str] = (),
    ) -> "DenseAttributeMatrix":
        """triples: (element id, attribute, value); one value per (id, att).
        The attributes are the `declared` names and those the triples take,
        sorted; `build_graph` declares its schema's `dense_names()`."""
        per_att: dict[str, dict[int, str]] = {att: {} for att in declared}
        for elem_id, att, value in triples:
            row = per_att.setdefault(att, {})
            if elem_id in row:
                raise InputError(
                    f"element {elem_id} takes two values for dense attribute {att!r}"
                )
            row[elem_id] = value
        atts = sorted(per_att)
        col_values = []
        cells = []
        total = 0
        for att in atts:
            rows = per_att[att]
            values = sorted(set(rows.values()))
            pos = {v: total + j + 1 for j, v in enumerate(values)}
            total += len(values)
            col_values.append(values)
            for elem_id, value in rows.items():
                cells.append((elem_id, pos[value]))
        matrix = K2Tree.build(max(n_elements, total), cells, k) if cells else None
        return cls(matrix, atts, col_values)

    def _block(self, att: str) -> tuple[int, int]:
        """Inclusive column range of the attribute's block."""
        i = self._att_index[att]
        lower = self.col_limits[i - 1] if i else 0
        return lower + 1, self.col_limits[i]

    def _row_col(self, elem_id: int, c1: int, c2: int):
        """The column of the element's one in columns c1..c2, or None."""
        hits = self.matrix.row_leaves(elem_id, c1, c2)
        if len(hits) > 1:
            raise CorruptFileError(
                f"element {elem_id} takes two values of one dense attribute"
            )
        return hits[0][0] if hits else None

    def get(self, elem_id: int, att: str):
        """Value of the attribute for the element, or None."""
        if self.matrix is None or att not in self._att_index:
            return None
        c1, c2 = self._block(att)
        col = self._row_col(elem_id, c1, c2)
        return None if col is None else self.col_values[self._att_index[att]][col - c1]

    def select(self, att: str, value: str, lo: int, hi: int) -> list[int]:
        """Ascending element ids in lo..hi taking `value` for the attribute."""
        if att not in self._att_index:
            return []
        values = self.col_values[self._att_index[att]]
        j = bisect_left(values, value)
        if j >= len(values) or values[j] != value:
            return []
        c1, c2 = self._block(att)
        ids = self._columns.get(c1 + j)
        if ids is None:
            m = self.matrix
            rows = [row for row, _ in m.col_leaves(c1 + j, 1, m.n_logical)]
            for row in rows:  # raises on a row with a second value in the block
                self._row_col(row, c1, c2)
            ids = self._columns[c1 + j] = array("I", rows)
        first = bisect_left(ids, lo)
        return ids[first : bisect_right(ids, hi, first)].tolist()


class DynDenseAttribute:
    """One dynamic k²-tree per dense attribute; value columns append-only."""

    __slots__ = ("att", "tree", "values", "_col_of")

    def __init__(self, att: str, k: int = 2):
        self.att = att
        self.tree = DynK2Tree(k=k)
        self.values: list[str] = []
        self._col_of: dict[str, int] = {}

    def set(self, elem_id: int, value: str):
        """Last-write-wins assignment; unseen values open a new final column."""
        col = self._col_of.get(value)
        if col is None:
            self.values.append(value)
            col = len(self.values)
            self._col_of[value] = col
        self.tree.set(elem_id, col)  # grows the side until the cell fits
        for prev_col, _ in self.tree.row_leaves(elem_id, 1, self.tree.n):
            if prev_col != col:
                self.tree.clear(elem_id, prev_col)

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
