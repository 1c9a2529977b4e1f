"""Dynamic attributed-graph store: same query surface, mutable everything.

Ids are handed out in insertion order, so labels do not form contiguous
ranges; type lookups go through the dynamic type sequence and label filters
are rank/select or per-id checks instead of range scans. Removing an edge
tombstones its id: the id is never reused, the type-sequence entry stays (so
ranks of later edges are stable) and the id is reported not-found afterwards.
"""

from __future__ import annotations

from .attrstore import DynDenseAttribute, DynSparseAttribute
from .errors import InputError, NotFoundError
from .graph import EDGE, NODE, UNDEFINED, build_graph
from .io import export_bundle
from .multiedge import DynMultiEdge
from .schema import DynTypeTable


class DynAttK2Graph:
    """Mutable attributed multigraph over dynamic k²-tree storage.

    Single-writer: callers must not run queries concurrently with mutations.
    """

    def __init__(self, k: int = 2):
        self.k = k
        self.node_schema = DynTypeTable()
        self.edge_schema = DynTypeTable()
        self.node_sparse: dict[tuple[str, str], DynSparseAttribute] = {}
        self.edge_sparse: dict[tuple[str, str], DynSparseAttribute] = {}
        self.node_dense: dict[str, DynDenseAttribute] = {}
        self.edge_dense: dict[str, DynDenseAttribute] = {}
        self.relations = DynMultiEdge(k=k)
        self.edge_endpoints: list[tuple[int, int]] = []
        self.dead_edges: set[int] = set()
        self.dead_nodes: set[int] = set()
        self._dense_kind: dict[str, bool] = {}  # attribute name -> dense flag

    # -- schema mutations ----------------------------------------------------

    def add_node_type(self, label: str):
        self.node_schema.add_type(label)

    def add_edge_type(self, label: str):
        self.edge_schema.add_type(label)

    def add_attribute(self, kind: str, label: str, att: str, dense: bool):
        """Declare an attribute for a label; existing elements stay absent.

        Dense/sparse classification is a property of the attribute name and
        must agree across every label using it.
        """
        known = self._dense_kind.get(att)
        if known is not None and known != dense:
            raise InputError(
                f"attribute {att!r} is already registered as "
                f"{'dense' if known else 'sparse'}"
            )
        schema = self._schema(kind)
        schema.add_attribute(label, att, dense)
        self._dense_kind[att] = dense
        if dense:
            stores = self.node_dense if kind == NODE else self.edge_dense
            if att not in stores:
                stores[att] = DynDenseAttribute(att, self.k)
        else:
            stores = self.node_sparse if kind == NODE else self.edge_sparse
            stores.setdefault((label, att), DynSparseAttribute(label, att))

    # -- element mutations ----------------------------------------------------

    def add_node(self, label: str, attrs=()) -> int:
        attrs = list(attrs)
        self._check_attrs(NODE, label, attrs)
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
        self._check_attrs(EDGE, label, attrs)
        edge_id = self.edge_schema.register_element(label)
        self.edge_endpoints.append((u, v))
        self.relations.add_edge(edge_id, u, v)
        for att, value in attrs:
            self._store_value(EDGE, edge_id, label, att, value)
        return edge_id

    def set_attribute(self, kind: str, elem_id: int, att: str, value: str):
        """Last-write-wins update of one attribute value."""
        schema = self._schema(kind)
        self._check_live(kind, elem_id)
        label = schema.type_of(elem_id)
        if schema.attribute_info(label, att) is None:
            raise InputError(f"attribute {att!r} is not in the schema of {label!r}")
        self._store_value(kind, elem_id, label, att, value)

    def remove_edge(self, edge_id: int):
        """Tombstone an edge: drop it from the relations and its attributes."""
        if edge_id in self.dead_edges or not 1 <= edge_id <= self.edge_schema.count:
            raise NotFoundError(f"edge {edge_id} does not exist")
        label, rank = self.edge_schema.rank_in_label(edge_id)
        u, v = self.edge_endpoints[edge_id - 1]
        self.relations.remove_edge(edge_id, u, v)
        self.dead_edges.add(edge_id)
        for att, dense in self.edge_schema.attrs_of(label):
            if dense:
                self.edge_dense[att].clear(edge_id)
            else:
                store = self.edge_sparse.get((label, att))
                if store is not None:
                    store.set(rank, None)

    def remove_node(self, node_id: int):
        """Tombstone a node. Its id stays allocated and is reported not-found;
        incident edges must have been removed first."""
        self._check_node(node_id)
        n = self.relations.base.n
        if node_id <= n and (
            self.relations.neighbor_cols(node_id, 1, n)
            or self.relations.reverse_with_edges(node_id, 1, n)
        ):
            raise InputError(f"node {node_id} still has incident edges")
        label, rank = self.node_schema.rank_in_label(node_id)
        self.dead_nodes.add(node_id)
        for att, dense in self.node_schema.attrs_of(label):
            if dense:
                self.node_dense[att].clear(node_id)
            else:
                store = self.node_sparse.get((label, att))
                if store is not None:
                    store.set(rank, None)

    # -- queries --------------------------------------------------------------

    def get_types(self, kind: str) -> list[str]:
        return self._schema(kind).label_list()

    def scan(self, kind: str, label: str) -> list[int]:
        ids = self._schema(kind).ids_of(label)
        dead = self.dead_edges if kind == EDGE else self.dead_nodes
        if dead:
            ids = [i for i in ids if i not in dead]
        return ids

    def get_type(self, kind: str, elem_id: int) -> str:
        self._check_live(kind, elem_id)
        return self._schema(kind).type_of(elem_id)

    def get_attribute(self, kind: str, elem_id: int, att: str):
        schema = self._schema(kind)
        self._check_live(kind, elem_id)
        label = schema.type_of(elem_id)
        info = schema.attribute_info(label, att)
        if info is None:
            return UNDEFINED
        if info[1]:
            store = (self.node_dense if kind == NODE else self.edge_dense).get(att)
            return store.get(elem_id) if store else None
        store = (self.node_sparse if kind == NODE else self.edge_sparse).get(
            (label, att)
        )
        if store is None:
            return None
        _, rank = schema.rank_in_label(elem_id)
        return store.get(rank)

    def select(self, kind: str, label: str, att: str, value: str):
        schema = self._schema(kind)
        info = schema.attribute_info(label, att)
        if info is None:
            return UNDEFINED
        if info[1]:
            store = (self.node_dense if kind == NODE else self.edge_dense).get(att)
            if store is None:
                return []
            hits = store.select(value, 1, schema.count)
            out = [i for i in hits if schema.type_of(i) == label]
        else:
            store = (self.node_sparse if kind == NODE else self.edge_sparse).get(
                (label, att)
            )
            if store is None:
                return []
            out = [
                schema.select_in_label(label, rank) for rank in store.select(value)
            ]
            out.sort()
        dead = self.dead_edges if kind == EDGE else self.dead_nodes
        if dead:
            out = [i for i in out if i not in dead]
        return out

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
        strings); tombstoned elements are dropped.
        """
        return build_graph(export_bundle(self, str, str), k=self.k)

    # -- internals --------------------------------------------------------------

    def _schema(self, kind: str) -> DynTypeTable:
        if kind == NODE:
            return self.node_schema
        if kind == EDGE:
            return self.edge_schema
        raise InputError(f"kind must be 'node' or 'edge', got {kind!r}")

    def _check_node(self, node_id: int):
        self.node_schema.type_of(node_id)  # range check
        if node_id in self.dead_nodes:
            raise NotFoundError(f"node {node_id} was removed")

    def _check_live(self, kind: str, elem_id: int):
        if kind == EDGE:
            if elem_id in self.dead_edges:
                raise NotFoundError(f"edge {elem_id} was removed")
        elif elem_id in self.dead_nodes:
            raise NotFoundError(f"node {elem_id} was removed")

    def _check_attrs(self, kind: str, label: str, attrs):
        schema = self._schema(kind)
        if not schema.has_label(label):
            raise NotFoundError(f"unknown label {label!r}")
        seen = set()
        for att, _value in attrs:
            if schema.attribute_info(label, att) is None:
                raise InputError(
                    f"attribute {att!r} is not in the schema of {label!r}"
                )
            if att in seen:
                raise InputError(f"attribute {att!r} given twice")
            seen.add(att)

    def _store_value(self, kind: str, elem_id: int, label: str, att: str, value: str):
        info = self._schema(kind).attribute_info(label, att)
        if info[1]:
            stores = self.node_dense if kind == NODE else self.edge_dense
            stores[att].set(elem_id, value)
        else:
            stores = self.node_sparse if kind == NODE else self.edge_sparse
            store = stores.setdefault((label, att), DynSparseAttribute(label, att))
            _, rank = self._schema(kind).rank_in_label(elem_id)
            store.set(rank, value)
