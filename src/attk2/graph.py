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

from itertools import chain
from typing import TYPE_CHECKING

from .attrstore import DenseAttributeMatrix, SparseAttribute
from .errors import InputError, NotFoundError
from .multiedge import MultiEdgeK2Tree
from .schema import TypeTable, _mixed_kind

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


def build_graph(bundle: "InputBundle", k: int = 2) -> AttK2Graph:
    """Assemble the static store from a validated input bundle.

    Internal ids are assigned by sorting elements on (label, external id),
    both compared bytewise, so every label covers a contiguous range.
    """
    att = _mixed_kind(chain(bundle.node_schema, bundle.edge_schema))
    if att is not None:
        raise InputError(f"attribute {att!r} is declared both dense and sparse")
    node_atts = {label: dict(atts) for label, atts in bundle.node_schema}
    edge_atts = {label: dict(atts) for label, atts in bundle.edge_schema}

    def order(records, label_of, ext_of):
        return sorted(records, key=lambda r: (label_of(r), ext_of(r)))

    nodes = order(bundle.nodes, lambda r: r[1], lambda r: r[0])
    edges = order(bundle.edges, lambda r: r[1], lambda r: r[0])
    for kind, records in ((NODE, nodes), (EDGE, edges)):
        if len({r[0] for r in records}) != len(records):
            raise InputError(f"duplicate external {kind} id")
    node_ids = IdMap([r[0] for r in nodes])
    edge_ids = IdMap([r[0] for r in edges])

    def check_attrs(kind, schema_atts, records, attr_of):
        for rec in records:
            ext, label = rec[0], rec[1]
            declared = schema_atts.get(label)
            if declared is None:
                raise InputError(f"{kind} {ext!r} has undeclared label {label!r}")
            seen = set()
            for att, _ in attr_of(rec):
                if att not in declared:
                    raise InputError(
                        f"{kind} {ext!r}: attribute {att!r} is not in the schema "
                        f"of label {label!r}"
                    )
                if att in seen:
                    raise InputError(f"{kind} {ext!r}: attribute {att!r} given twice")
                seen.add(att)

    check_attrs(NODE, node_atts, nodes, lambda r: r[2])
    check_attrs(EDGE, edge_atts, edges, lambda r: r[4])

    def build_side(schema_atts, records, attr_of):
        counts = {label: 0 for label in schema_atts}
        for rec in records:
            counts[rec[1]] += 1
        table = TypeTable.build(
            [(label, counts[label], list(atts.items())) for label, atts in schema_atts.items()]
        )
        sparse: dict[tuple[str, str], SparseAttribute] = {}
        dense_triples = []
        raw_sparse: dict[tuple[str, str], dict[int, str]] = {}
        for i, rec in enumerate(records):
            elem_id = i + 1
            label = rec[1]
            for att, value in attr_of(rec):
                if schema_atts[label][att]:
                    dense_triples.append((elem_id, att, value))
                else:
                    raw_sparse.setdefault((label, att), {})[elem_id] = value
        for label in table.labels:
            lo, hi = table.ids_of(label)
            for att, is_dense in table.attrs_of(label):
                if is_dense:
                    continue
                values = raw_sparse.get((label, att), {})
                sparse[(label, att)] = SparseAttribute(
                    label, att, lo, [values.get(i) for i in range(lo, hi + 1)]
                )
        dense = DenseAttributeMatrix.build(len(records), dense_triples, k, table.dense_names())
        return table, sparse, dense

    node_schema, node_sparse, node_dense = build_side(node_atts, nodes, lambda r: r[2])
    edge_schema, edge_sparse, edge_dense = build_side(edge_atts, edges, lambda r: r[4])

    triples = []
    for i, (ext, _label, src, tgt, _atts) in enumerate(edges):
        triples.append((i + 1, node_ids.internal(src), node_ids.internal(tgt)))
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
