"""Dynamic attributed-graph store: same query surface, mutable everything.

Ids are handed out in insertion order, so labels do not form contiguous
ranges; type lookups go through the dynamic type table and label filters
are rank/select or per-id checks instead of range scans. Attribute values,
sparse and dense alike, live in one store per (label, attribute) indexed by
each element's rank within its label, so a select maps ranks back to ids
and never meets another label's elements. Removing an edge
tombstones its id: the id is never reused, its type-table entry stays (so
ranks of later edges are stable) and the id is reported not-found afterwards.

A store filled from a bundle (`queries.replay_bundle`, hence `query
--dynamic`) is not built by insertion: `load` lays out each structure in one
pass, the type tables, each value store and the relations, whose k²-trees
come from the static tree's Z-order build (`k2._layout`). Inserting the same
elements into an empty store gives the same store, bit for bit. An id never
allocated, like a removed one, is not found.
"""

from __future__ import annotations

from array import array
from operator import itemgetter

from .attrstore import DynDenseAttribute, SparseAttribute
from .errors import InputError, NotFoundError
from .graph import EDGE, NODE, UNDEFINED, _assemble, _dense, _schema, _sparse
from .io import export_bundle
from .multiedge import DynMultiEdge
from .schema import DynTypeTable


class DynAttK2Graph:
    """Mutable attributed multigraph over dynamic k²-tree storage.

    Single-writer: callers must not run queries concurrently with mutations.
    """

    def __init__(self, k: int = 2):
        self.k = k
        kinds: dict[str, bool] = {}  # one kind per attribute name, across both
        self.node_schema = DynTypeTable(kinds)
        self.edge_schema = DynTypeTable(kinds)
        self.node_sparse: dict[tuple[str, str], SparseAttribute] = {}
        self.edge_sparse: dict[tuple[str, str], SparseAttribute] = {}
        self.node_dense: dict[tuple[str, str], DynDenseAttribute] = {}
        self.edge_dense: dict[tuple[str, str], DynDenseAttribute] = {}
        self.relations = DynMultiEdge(k=k)
        self.edge_sources = array("I")  # edge id - 1 -> origin node
        self.edge_targets = array("I")  # edge id - 1 -> target node
        self.dead_edges: set[int] = set()
        self.dead_nodes: set[int] = set()

    # -- schema mutations ----------------------------------------------------

    def add_node_type(self, label: str):
        self.node_schema.add_type(label)

    def add_edge_type(self, label: str):
        self.edge_schema.add_type(label)

    def add_attribute(self, kind: str, label: str, att: str, dense: bool):
        """Declare an attribute for a label; existing elements stay absent.
        An attribute name is dense or sparse under every label of both kinds.
        """
        self._schema(kind).add_attribute(label, att, dense)
        store = DynDenseAttribute(self.k) if dense else SparseAttribute(label, att, 1, [])
        self._stores(kind, dense)[(label, att)] = store

    # -- element mutations ----------------------------------------------------

    def add_node(self, label: str, attrs=()) -> int:
        attrs = list(attrs)
        self.node_schema.check_attrs(label, attrs)
        node_id = self.node_schema.register_element(label)
        for att, value in attrs:
            self._store_value(NODE, node_id, label, att, value)
        return node_id

    def add_edge(self, label: str, u: int, v: int, attrs=()) -> int:
        attrs = list(attrs)
        n = self.node_schema.count
        if not (1 <= u <= n and 1 <= v <= n):
            raise NotFoundError(f"edge endpoints ({u}, {v}) must be existing nodes")
        if u in self.dead_nodes or v in self.dead_nodes:
            raise NotFoundError(f"edge endpoints ({u}, {v}) must be live nodes")
        self.edge_schema.check_attrs(label, attrs)
        edge_id = self.edge_schema.register_element(label)
        self.edge_sources.append(u)
        self.edge_targets.append(v)
        self.relations.add_edge(edge_id, u, v)
        for att, value in attrs:
            self._store_value(EDGE, edge_id, label, att, value)
        return edge_id

    def load(self, nodes, edges):
        """Add the elements of a bundle to a store that holds none yet, in one
        pass per structure. The store equals, bit for bit, the one that
        `add_node` of each node and then `add_edge` of each edge builds.

        nodes are (label, attrs) and edges (id, label, origin, target,
        attrs), each in id order, so the edge ids are 1, 2, ...; the leaf
        lists hold those id objects, and an id map holding them as well
        costs no int of its own. The schema is declared already, and the
        records must keep `graph.check_bundle`'s rules: neither `check_attrs`
        nor the endpoint checks of `add_edge` run again.
        """
        if self.node_schema.count or self.edge_schema.count:
            raise InputError("load needs a store without elements")
        self._load_values(NODE, list(map(itemgetter(0), nodes)), map(itemgetter(1), nodes))
        self._load_values(EDGE, list(map(itemgetter(1), edges)), map(itemgetter(4), edges))
        self.edge_sources.extend(map(itemgetter(2), edges))
        self.edge_targets.extend(map(itemgetter(3), edges))
        self.relations = DynMultiEdge.build(map(itemgetter(0, 2, 3), edges), self.k)

    def set_attribute(self, kind: str, elem_id: int, att: str, value: str):
        """Last-write-wins update of one attribute value."""
        schema = self._schema(kind)
        self._check_live(kind, elem_id)
        label = schema.type_of(elem_id)
        schema.check_attrs(label, ((att, value),))
        self._store_value(kind, elem_id, label, att, value)

    def remove_edge(self, edge_id: int):
        """Tombstone an edge: drop it from the relations and its attributes."""
        if edge_id in self.dead_edges or not 1 <= edge_id <= self.edge_schema.count:
            raise NotFoundError(f"edge {edge_id} does not exist")
        u, v = self.edge_sources[edge_id - 1], self.edge_targets[edge_id - 1]
        self.relations.remove_edge(edge_id, u, v)
        self.dead_edges.add(edge_id)
        self._clear_values(EDGE, edge_id)

    def remove_node(self, node_id: int):
        """Tombstone a node. Its id stays allocated and is reported not-found;
        incident edges must have been removed first."""
        if node_id in self.dead_nodes or not 1 <= node_id <= self.node_schema.count:
            raise NotFoundError(f"node {node_id} does not exist")
        n = self.relations.base.n
        if node_id <= n and (
            self.relations.neighbor_cols(node_id, 1, n)
            or self.relations.reverse_with_edges(node_id, 1, n)
        ):
            raise InputError(f"node {node_id} still has incident edges")
        self.dead_nodes.add(node_id)
        self._clear_values(NODE, node_id)

    # -- queries --------------------------------------------------------------

    def get_types(self, kind: str) -> list[str]:
        return self._schema(kind).label_list()

    def scan(self, kind: str, label: str) -> list[int]:
        ids = self._schema(kind).ids_of(label)
        dead = self._dead(kind)
        if dead:
            ids = [i for i in ids if i not in dead]
        return ids

    def get_type(self, kind: str, elem_id: int) -> str:
        schema = self._schema(kind)
        self._check_live(kind, elem_id)
        return schema.type_of(elem_id)

    def get_attribute(self, kind: str, elem_id: int, att: str):
        schema = self._schema(kind)
        self._check_live(kind, elem_id)
        label, rank = schema.rank_in_label(elem_id)
        store = self._values(kind, label, att)
        if store is None:
            return UNDEFINED
        try:
            return store.get(rank)
        except IndexError:  # a sparse list reaches only as far as the last rank set
            return None

    def select(self, kind: str, label: str, att: str, value: str):
        store = self._values(kind, label, att)
        if store is None:
            return UNDEFINED
        # ids of one label increase with their rank; a removed element has no
        # values left (`_clear_values`), so nothing here is a tombstone
        schema = self._schema(kind)
        return [schema.select_in_label(label, r) for r in store.select(value)]

    def neighbors(self, node_label: str, node_id: int) -> list[int]:
        self._check_node(node_id)
        if not self.node_schema.has_label(node_label):
            raise NotFoundError(f"unknown label {node_label!r}")
        if node_id > self.relations.base.n:
            return []
        cols = self.relations.neighbor_cols(node_id, 1, self.relations.base.n)
        return [c for c in cols if self.node_schema.type_of(c) == node_label]

    def related(self, edge_label: str, node_id: int) -> list[int]:
        self._check_node(node_id)
        if not self.edge_schema.has_label(edge_label):
            raise NotFoundError(f"unknown label {edge_label!r}")
        if node_id > self.relations.base.n:
            return []
        out = []
        for col, ids in self.relations.neighbors_with_edges(
            node_id, 1, self.relations.base.n
        ):
            if any(self.edge_schema.type_of(e) == edge_label for e in ids):
                out.append(col)
        return out

    def freeze(self):
        """One-way export: build a static store from the live content.

        Dynamic ids become the external ids of the static store (as decimal
        strings); tombstoned elements are dropped. The per-call guards keep
        the live content valid, so the bundle is not checked again.
        """
        return _assemble(export_bundle(self, str, str), self.k)

    # -- internals --------------------------------------------------------------

    _schema = _schema
    _sparse = _sparse
    _dense = _dense

    def _dead(self, kind: str) -> set[int]:
        return self.dead_edges if kind == EDGE else self.dead_nodes

    def _check_node(self, node_id: int):
        self.node_schema.type_of(node_id)  # range check
        self._check_live(NODE, node_id)

    def _check_live(self, kind: str, elem_id: int):
        if elem_id in self._dead(kind):
            raise NotFoundError(f"{kind} {elem_id} was removed")

    def _stores(self, kind: str, dense: bool) -> dict:
        return self._dense(kind) if dense else self._sparse(kind)

    def _values(self, kind: str, label: str, att: str):
        """The value store of the label's attribute, indexed by rank in the
        label; None when att is not in the label's schema."""
        info = self._schema(kind).attribute_info(label, att)
        return None if info is None else self._stores(kind, info[1])[(label, att)]

    def _load_values(self, kind: str, labels: list[str], attrs):
        """Register elements of the labels, in order, and build each (label,
        attribute) store from the values they take, by rank."""
        schema = self._schema(kind)
        ranks = schema.register_elements(labels)
        columns: dict[tuple[str, str], tuple[list, list]] = {}  # ranks, values
        for label, rank, pairs in zip(labels, ranks, attrs):
            for att, value in pairs:
                column = columns.get((label, att))
                if column is None:
                    column = columns[(label, att)] = ([], [])
                column[0].append(rank)
                column[1].append(value)
        for (label, att), (ranks, values) in columns.items():
            dense = schema.attribute_info(label, att)[1]
            if dense:
                store = DynDenseAttribute.build(ranks, values, self.k)
            else:  # a list up to the highest rank set, as `set` leaves it
                by_rank = [None] * ranks[-1]
                for rank, value in zip(ranks, values):
                    by_rank[rank - 1] = value
                store = SparseAttribute(label, att, 1, by_rank)
            self._stores(kind, dense)[(label, att)] = store

    def _store_value(self, kind: str, elem_id: int, label: str, att: str, value: str):
        rank = self._schema(kind).rank_in_label(elem_id)[1]
        self._values(kind, label, att).set(rank, value)

    def _clear_values(self, kind: str, elem_id: int):
        """Drop every attribute value of a removed element."""
        schema = self._schema(kind)
        label, rank = schema.rank_in_label(elem_id)
        for att, dense in schema.attrs_of(label):
            self._stores(kind, dense)[(label, att)].set(rank, None)
