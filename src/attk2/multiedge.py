"""Relations layer: a k²-tree over node pairs carrying edge identifiers.

Each leaf one of the base tree owns one entry in the auxiliary structures,
indexed by its levelwise leaf ordinal, which every `k2` read returns. In the
static form a Multi bitmap flags leaves holding several parallel edges, Last
stores either the single edge id or the end position of the leaf's run inside
More, and More concatenates the id runs of all multi-edge leaves in ordinal
order. Build and load keep the run bounds: 0, then the end of each run, so
the m-th multi leaf's run is More[bounds[m-1]:bounds[m]]. Last, More and the
bounds are `array('I')`, 32-bit unsigned like the wire form of the first two.

The dynamic form replaces Multi/Last/More with one growable id list per leaf.

`all_triples` walks one `k2._cells` decode, whose i-th cell owns entry i of
Multi/Last or of the lists. Only the dynamic form decodes the ids of a row or
a column, for the dynamic store's `related` and `remove_node`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Iterable

from .bits import BitSequence
from .errors import InputError, NotFoundError
from .k2 import DynK2Tree, K2Tree, _cells, _leaf_pos


def _neighbor_cols(self, u: int, c1: int, c2: int) -> list[int]:
    """Targets in c1..c2 linked from u, without decoding edge ids."""
    return [col for col, _ in self.base.row_leaves(u, c1, c2)]


def _ids_by_pair(triples: Iterable[tuple[int, int, int]]) -> dict[tuple[int, int], list[int]]:
    """Each (origin, target)'s edge ids, in the order of the triples. A list
    starts as ``[eid]``, as `DynMultiEdge.add_edge` makes it, so a bulk-built
    dynamic store holds lists of the same size."""
    by_pair: dict[tuple[int, int], list[int]] = {}
    for eid, u, v in triples:
        pair = (u, v)
        ids = by_pair.get(pair)
        if ids is None:
            by_pair[pair] = [eid]
        else:
            ids.append(eid)
    return by_pair


class MultiEdgeK2Tree:
    """Static multigraph adjacency: base k²-tree plus Multi/Last/More."""

    __slots__ = ("base", "multi", "last", "more", "bounds")

    def __init__(
        self, base: K2Tree, multi: BitSequence, last: array, more: array, bounds: array
    ):
        self.base = base
        self.multi = multi
        self.last = last
        self.more = more
        self.bounds = bounds  # 0, then the end of each multi leaf's run in More

    @classmethod
    def build(
        cls,
        n_nodes: int,
        triples: Iterable[tuple[int, int, int]],
        k: int = 2,
    ) -> "MultiEdgeK2Tree":
        """Build from (edge_id, origin, target) triples. The caller keeps the
        edge ids distinct: `graph._assemble` numbers them 1, 2, ...; an
        endpoint outside 1..n_nodes fails the k²-tree's cell check."""
        by_pair = _ids_by_pair(triples)
        base, order = K2Tree.build_with_order(n_nodes, by_pair.keys(), k)
        multi_bits = []
        last = []
        more = []
        bounds = [0]
        for pair in order:
            ids = by_pair[pair]
            if len(ids) == 1:
                multi_bits.append(0)
                last.append(ids[0])
            else:
                ids.sort()
                multi_bits.append(1)
                more.extend(ids)
                last.append(len(more))
                bounds.append(len(more))
        try:
            last, more = array("I", last), array("I", more)
        except OverflowError:
            raise InputError("an edge id is outside the 32-bit range of Last/More") from None
        return cls(base, BitSequence(multi_bits), last, more, array("I", bounds))

    neighbor_cols = _neighbor_cols

    def related_targets(self, u: int, elo: int, ehi: int) -> list[int]:
        """Targets of u connected through an edge id in [elo, ehi].

        Avoids materializing id lists: single-edge leaves are one comparison,
        multi leaves bisect their sorted run inside More.
        """
        access_rank = self.multi.access_rank
        last = self.last
        more = self.more
        bounds = self.bounds
        out = []
        for col, i in self.base.row_leaves(u, 1, self.base.n_logical):
            multi, m = access_rank(i)
            if multi:
                end = bounds[m]
                j = bisect_left(more, elo, bounds[m - 1], end)
                if j < end and more[j] <= ehi:
                    out.append(col)
            elif elo <= last[i - 1] <= ehi:
                out.append(col)
        return out

    def all_triples(self) -> list[tuple[int, int, int]]:
        """Every (edge_id, origin, target), in leaf order, each leaf's ids
        ascending."""
        out = []
        end = 0  # where the next multi leaf's run starts in More
        for (r, c), multi, last in zip(_cells(self.base), self.multi.to_bits(), self.last):
            if multi:
                out.extend((eid, r, c) for eid in self.more[end:last])
                end = last
            else:
                out.append((last, r, c))
        return out


class DynMultiEdge:
    """Dynamic multigraph adjacency: DynK2Tree plus per-leaf edge id lists."""

    __slots__ = ("base", "lists")

    def __init__(self, k: int = 2):
        self.base = DynK2Tree(k=k)
        self.lists: list[list[int]] = []

    @classmethod
    def build(cls, triples: Iterable[tuple[int, int, int]], k: int = 2) -> "DynMultiEdge":
        """What `add_edge` on each (edge_id, origin, target), in order, builds:
        one list per pair, its ids in that order, in leaf order. The lists
        hold the given id objects; edge ids must be unique."""
        by_pair = _ids_by_pair(triples)
        rel = cls.__new__(cls)
        rel.base, order = DynK2Tree.build_with_order(by_pair, k)
        rel.lists = list(map(by_pair.__getitem__, order))
        return rel

    def add_edge(self, eid: int, u: int, v: int):
        """Record edge eid from u to v, setting the base cell when new."""
        ordinal, created = self.base.set(u, v)
        if created:
            self.lists.insert(ordinal - 1, [eid])
        else:
            ids = self.lists[ordinal - 1]
            if eid in ids:
                raise InputError(f"edge id {eid} already present at ({u}, {v})")
            ids.append(eid)

    def remove_edge(self, eid: int, u: int, v: int):
        """Delete edge eid from (u, v), clearing the cell if its list empties."""
        if not (1 <= u <= self.base.n and 1 <= v <= self.base.n):
            raise NotFoundError(f"edge {eid} not present at ({u}, {v})")
        ordinal = _leaf_pos(self.base, u - 1, v - 1)
        if not ordinal:
            raise NotFoundError(f"edge {eid} not present at ({u}, {v})")
        ids = self.lists[ordinal - 1]
        try:
            ids.remove(eid)
        except ValueError:
            raise NotFoundError(f"edge {eid} not present at ({u}, {v})") from None
        if not ids:
            del self.lists[ordinal - 1]
            self.base.clear(u, v)

    def neighbors_with_edges(self, u: int, c1: int, c2: int) -> list[tuple[int, list[int]]]:
        """(target, edge ids) for every target in c1..c2 linked from u."""
        return [(col, sorted(self.lists[i - 1])) for col, i in self.base.row_leaves(u, c1, c2)]

    neighbor_cols = _neighbor_cols

    def reverse_with_edges(self, v: int, r1: int, r2: int) -> list[tuple[int, list[int]]]:
        """(origin, edge ids) for every origin in r1..r2 linking to v."""
        return [(row, sorted(self.lists[i - 1])) for row, i in self.base.col_leaves(v, r1, r2)]

    def all_triples(self) -> list[tuple[int, int, int]]:
        """Every (edge_id, origin, target), in leaf order, each leaf's ids
        ascending."""
        cells = _cells(self.base)
        return [(eid, r, c) for (r, c), ids in zip(cells, self.lists) for eid in sorted(ids)]
