"""Static attributed-graph store: builder plus the unified query API.

Internally every element is addressed by a dense 1-based id assigned at build
time: elements are sorted by (label, external id) so each label owns a
contiguous id range. Queries take and return internal ids; the id maps
translate back to the caller's external ids.

`get_attribute` and `select` report a distinguished UNDEFINED result when the
attribute is not part of the element's schema; that case is an answer, not
an error.

Every order the store defines on strings (labels, ids, values, attribute
names) is UTF-8 byte order. Python orders str by code point, which is the
same order, so the package sorts and bisects str directly; only `oracle.py`
sorts on the encoded bytes, because it is the independent reference.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

from .attrstore import DenseAttributeMatrix, SparseAttribute
from .errors import InputError, NotFoundError
from .multiedge import MultiEdgeK2Tree
from .schema import DynTypeTable, TypeTable

if TYPE_CHECKING:
    from .io import InputBundle


class _Undefined:
    __slots__ = ()

    def __repr__(self):
        return "UNDEFINED"

    def __bool__(self):
        return False


#: Result of asking for an attribute outside the element's schema.
UNDEFINED = _Undefined()

NODE = "node"
EDGE = "edge"


class IdMap:
    """Bidirectional external/internal id correspondence for one kind."""

    __slots__ = ("to_internal", "to_external")

    def __init__(self, externals_by_internal: list[str]):
        self.to_external = externals_by_internal
        self.to_internal = dict(
            zip(externals_by_internal, range(1, len(externals_by_internal) + 1))
        )

    def internal(self, ext: str) -> int:
        iid = self.to_internal.get(ext)
        if iid is None:
            raise NotFoundError(f"unknown external id {ext!r}")
        return iid

    def external(self, internal: int) -> str:
        return self.to_external[internal - 1]

    def __len__(self):
        return len(self.to_external)


# The kind dispatch of both stores: `AttK2Graph` and `DynAttK2Graph` bind
# these three in their class bodies.


def _schema(self, kind: str):
    if kind == NODE:
        return self.node_schema
    if kind == EDGE:
        return self.edge_schema
    raise InputError(f"kind must be 'node' or 'edge', got {kind!r}")


def _sparse(self, kind: str) -> dict:
    return self.node_sparse if kind == NODE else self.edge_sparse


def _dense(self, kind: str):
    return self.node_dense if kind == NODE else self.edge_dense


class AttK2Graph:
    """Immutable attributed multigraph over k²-tree storage."""

    def __init__(
        self,
        node_schema: TypeTable,
        edge_schema: TypeTable,
        node_sparse: dict[tuple[str, str], SparseAttribute],
        edge_sparse: dict[tuple[str, str], SparseAttribute],
        node_dense: DenseAttributeMatrix,
        edge_dense: DenseAttributeMatrix,
        relations: MultiEdgeK2Tree,
        node_ids: IdMap,
        edge_ids: IdMap,
        k: int = 2,
    ):
        self.node_schema = node_schema
        self.edge_schema = edge_schema
        self.node_sparse = node_sparse
        self.edge_sparse = edge_sparse
        self.node_dense = node_dense
        self.edge_dense = edge_dense
        self.relations = relations
        self.node_ids = node_ids
        self.edge_ids = edge_ids
        self.k = k

    _schema = _schema
    _sparse = _sparse
    _dense = _dense

    # -- the unified query API ---------------------------------------------

    def get_types(self, kind: str) -> list[str]:
        """Labels of the kind, bytewise ascending."""
        return self._schema(kind).label_list()

    def scan(self, kind: str, label: str) -> range:
        """Ids carrying the label, as a contiguous ascending range."""
        lo, hi = self._schema(kind).ids_of(label)
        return range(lo, hi + 1)

    def get_type(self, kind: str, elem_id: int) -> str:
        return self._schema(kind).type_of(elem_id)

    def get_attribute(self, kind: str, elem_id: int, att: str):
        """Value, None when the slot is empty, UNDEFINED when att is not in
        the element's schema."""
        schema = self._schema(kind)
        label = schema.type_of(elem_id)
        info = schema.attribute_info(label, att)
        if info is None:
            return UNDEFINED
        _, dense = info
        if dense:
            return self._dense(kind).get(elem_id, att)
        return self._sparse(kind)[(label, att)].get(elem_id)

    def select(self, kind: str, label: str, att: str, value: str):
        """Ascending ids of `label` taking `value` for `att`; UNDEFINED when
        the attribute is not part of the label's schema."""
        schema = self._schema(kind)
        info = schema.attribute_info(label, att)
        if info is None:
            return UNDEFINED
        lo, hi = schema.ids_of(label)
        if lo > hi:
            return []
        _, dense = info
        if dense:
            return self._dense(kind).select(att, value, lo, hi)
        return self._sparse(kind)[(label, att)].select(value)

    def neighbors(self, node_label: str, node_id: int) -> list[int]:
        """Targets of node_id whose label is node_label, ascending."""
        self.node_schema.type_of(node_id)  # id range check
        lo, hi = self.node_schema.ids_of(node_label)
        if lo > hi:
            return []
        return self.relations.neighbor_cols(node_id, lo, hi)

    def related(self, edge_label: str, node_id: int) -> list[int]:
        """Targets of node_id reached through an edge of edge_label, ascending."""
        self.node_schema.type_of(node_id)
        elo, ehi = self.edge_schema.ids_of(edge_label)
        if elo > ehi:
            return []
        return self.relations.related_targets(node_id, elo, ehi)


_WHO = {"node_schema": "node label", "edge_schema": "edge label", "nodes": "node", "edges": "edge"}


def check_bundle(bundle: "InputBundle", where=None) -> None:
    """Raise `InputError` at the first entry of the bundle that breaks a
    schema rule of `schema.DynTypeTable`, repeats an external id within a
    kind, or is an element whose label its kind does not declare or whose
    endpoint is not a node. The schema is declared, in order, into a node
    and an edge table that share their attribute kinds, and each element's
    attributes are checked against its label's (`DynTypeTable.check_attrs`).

    `where(part, i)` names the i-th entry of a part (an `InputBundle` field)
    at the head of the message; by default it is the label or the external id.
    """
    if where is None:
        def where(part, i):
            return f"{_WHO[part]} {getattr(bundle, part)[i][0]!r}"

    def fail(part, i, what):
        raise InputError(f"{where(part, i)}: {what}") from None

    kinds: dict[str, bool] = {}
    tables = {}
    for part, records in (("node_schema", "nodes"), ("edge_schema", "edges")):
        table = tables[records] = DynTypeTable(kinds)
        for i, (label, atts) in enumerate(getattr(bundle, part)):
            try:
                table.add_type(label)
                for att, dense in atts:
                    table.add_attribute(label, att, dense)
            except InputError as exc:
                fail(part, i, exc)

    nodes: set[str] = set()
    for part, ids in (("nodes", nodes), ("edges", set())):
        table = tables[part]
        for i, rec in enumerate(getattr(bundle, part)):
            ext, label = rec[0], rec[1]
            if ext in ids:
                fail(part, i, f"duplicate {_WHO[part]} id {ext!r}")
            ids.add(ext)
            if not table.has_label(label):
                fail(part, i, f"undeclared label {label!r}")
            for end, node in zip(("source", "target"), rec[2:-1]):  # edges only
                if node not in nodes:
                    fail(part, i, f"unknown {end} node {node!r}")
            try:
                table.check_attrs(label, rec[-1])
            except InputError as exc:
                fail(part, i, exc)


def build_graph(bundle: "InputBundle", k: int = 2) -> AttK2Graph:
    """Check an input bundle (`check_bundle`) and assemble the static store."""
    check_bundle(bundle)
    return _assemble(bundle, k)


def _assemble(bundle: "InputBundle", k: int) -> AttK2Graph:
    """The static store of a bundle that `check_bundle` accepts, unchecked:
    `cli.cmd_build` passes the bundle `io.load_input` has checked, and
    `DynAttK2Graph.freeze` one its live store's guards keep valid.

    Internal ids are assigned by sorting elements on (label, external id),
    both compared bytewise, so every label covers a contiguous range.
    """

    def table(schema, records):
        counts = Counter(r[1] for r in records)
        return TypeTable.build([(label, counts[label], list(atts)) for label, atts in schema])

    node_schema = table(bundle.node_schema, bundle.nodes)
    edge_schema = table(bundle.edge_schema, bundle.edges)

    nodes = sorted(bundle.nodes, key=lambda r: (r[1], r[0]))
    edges = sorted(bundle.edges, key=lambda r: (r[1], r[0]))
    node_ids = IdMap([r[0] for r in nodes])
    edge_ids = IdMap([r[0] for r in edges])

    def build_side(table, records):
        dense_names = table.dense_names()
        dense = set(dense_names)  # a name has one kind across labels
        dense_triples = []
        raw_sparse: dict[tuple[str, str], dict[int, str]] = {}
        for elem_id, rec in enumerate(records, 1):
            for att, value in rec[-1]:
                if att in dense:
                    dense_triples.append((elem_id, att, value))
                else:
                    raw_sparse.setdefault((rec[1], att), {})[elem_id] = value
        sparse: dict[tuple[str, str], SparseAttribute] = {}
        for label in table.labels:
            lo, hi = table.ids_of(label)
            for att, is_dense in table.attrs_of(label):
                if not is_dense:
                    values = raw_sparse.get((label, att), {})
                    sparse[(label, att)] = SparseAttribute(
                        label, att, lo, [values.get(i) for i in range(lo, hi + 1)]
                    )
        return sparse, DenseAttributeMatrix.build(len(records), dense_triples, k, dense_names)

    node_sparse, node_dense = build_side(node_schema, nodes)
    edge_sparse, edge_dense = build_side(edge_schema, edges)

    node = node_ids.to_internal
    triples = [(i, node[src], node[tgt]) for i, (_, _, src, tgt, _) in enumerate(edges, 1)]
    relations = MultiEdgeK2Tree.build(len(nodes), triples, k)

    return AttK2Graph(
        node_schema,
        edge_schema,
        node_sparse,
        edge_sparse,
        node_dense,
        edge_dense,
        relations,
        node_ids,
        edge_ids,
        k,
    )
