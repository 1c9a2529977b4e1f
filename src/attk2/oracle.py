"""Deliberately naive reference store: plain dicts and linear scans.

This module defines the intended meaning of every query and mutation. The
test suite and the benchmark (`perfbench`) check the stores' answers against
it; it shares nothing with the compressed implementation below the call
signatures. Keep it slow and obvious. A value exists only for an attribute
in its element's schema, so a removal pops those keys alone.
"""

from __future__ import annotations

from .errors import InputError, NotFoundError
from .graph import NODE, UNDEFINED


class NaiveStore:
    """Linear-scan implementation of the attributed multigraph model."""

    def __init__(self):
        self.node_labels: dict[int, str] = {}
        self.edge_labels: dict[int, str] = {}
        self.triples: list[tuple[int, int, int]] = []  # (edge id, origin, target)
        self.node_values: dict[tuple[int, str], str] = {}
        self.edge_values: dict[tuple[int, str], str] = {}
        self.node_schema: dict[str, list[tuple[str, bool]]] = {}
        self.edge_schema: dict[str, list[tuple[str, bool]]] = {}
        self.dead_nodes: set[int] = set()
        self.dead_edges: set[int] = set()
        self.node_ext: dict[int, str] = {}
        self.edge_ext: dict[int, str] = {}

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_bundle(cls, bundle) -> "NaiveStore":
        """Replicate the static id assignment: sort elements by (label, ext)."""
        store = cls()
        for label, atts in bundle.node_schema:
            store.node_schema[label] = list(atts)
        for label, atts in bundle.edge_schema:
            store.edge_schema[label] = list(atts)
        nodes = sorted(bundle.nodes, key=lambda r: (r[1].encode(), r[0].encode()))
        ext_to_id = {}
        for i, (ext, label, atts) in enumerate(nodes):
            node_id = i + 1
            store.node_labels[node_id] = label
            store.node_ext[node_id] = ext
            ext_to_id[ext] = node_id
            for att, value in atts:
                store.node_values[(node_id, att)] = value
        edges = sorted(bundle.edges, key=lambda r: (r[1].encode(), r[0].encode()))
        for i, (ext, label, src, tgt, atts) in enumerate(edges):
            edge_id = i + 1
            store.edge_labels[edge_id] = label
            store.edge_ext[edge_id] = ext
            store.triples.append((edge_id, ext_to_id[src], ext_to_id[tgt]))
            for att, value in atts:
                store.edge_values[(edge_id, att)] = value
        return store

    # -- mutations --------------------------------------------------------------

    def add_node_type(self, label):
        if label in self.node_schema:
            raise InputError(f"label {label!r} already exists")
        self.node_schema[label] = []

    def add_edge_type(self, label):
        if label in self.edge_schema:
            raise InputError(f"label {label!r} already exists")
        self.edge_schema[label] = []

    def add_attribute(self, kind, label, att, dense):
        schema = self.node_schema if kind == NODE else self.edge_schema
        if label not in schema:
            raise NotFoundError(f"unknown label {label!r}")
        if any(a == att for a, _ in schema[label]):
            raise InputError(f"attribute {att!r} already declared for {label!r}")
        schema[label].append((att, dense))

    def add_node(self, label, attrs=()):
        if label not in self.node_schema:
            raise NotFoundError(f"unknown label {label!r}")
        valid = {a for a, _ in self.node_schema[label]}
        for att, _ in attrs:
            if att not in valid:
                raise InputError(f"attribute {att!r} invalid for {label!r}")
        node_id = len(self.node_labels) + 1
        self.node_labels[node_id] = label
        for att, value in attrs:
            self.node_values[(node_id, att)] = value
        return node_id

    def add_edge(self, label, u, v, attrs=()):
        if label not in self.edge_schema:
            raise NotFoundError(f"unknown label {label!r}")
        if u not in self.node_labels or v not in self.node_labels:
            raise NotFoundError(f"edge endpoints ({u}, {v}) must be existing nodes")
        if u in self.dead_nodes or v in self.dead_nodes:
            raise NotFoundError(f"edge endpoints ({u}, {v}) must be live nodes")
        valid = {a for a, _ in self.edge_schema[label]}
        for att, _ in attrs:
            if att not in valid:
                raise InputError(f"attribute {att!r} invalid for {label!r}")
        edge_id = len(self.edge_labels) + 1
        self.edge_labels[edge_id] = label
        self.triples.append((edge_id, u, v))
        for att, value in attrs:
            self.edge_values[(edge_id, att)] = value
        return edge_id

    def set_attribute(self, kind, elem_id, att, value):
        labels = self.node_labels if kind == NODE else self.edge_labels
        dead = self.dead_nodes if kind == NODE else self.dead_edges
        if elem_id not in labels:
            raise NotFoundError(f"id {elem_id} out of range")
        if elem_id in dead:
            raise NotFoundError(f"{kind} {elem_id} was removed")
        schema = self.node_schema if kind == NODE else self.edge_schema
        if not any(a == att for a, _ in schema[labels[elem_id]]):
            raise InputError(f"attribute {att!r} invalid for {labels[elem_id]!r}")
        values = self.node_values if kind == NODE else self.edge_values
        values[(elem_id, att)] = value

    def remove_edge(self, edge_id):
        if edge_id not in self.edge_labels or edge_id in self.dead_edges:
            raise NotFoundError(f"edge {edge_id} does not exist")
        self.dead_edges.add(edge_id)
        self.triples = [t for t in self.triples if t[0] != edge_id]
        for att, _ in self.edge_schema[self.edge_labels[edge_id]]:
            self.edge_values.pop((edge_id, att), None)

    def remove_node(self, node_id):
        if node_id not in self.node_labels or node_id in self.dead_nodes:
            raise NotFoundError(f"node {node_id} does not exist")
        if any(u == node_id or v == node_id for _, u, v in self.triples):
            raise InputError(f"node {node_id} still has incident edges")
        self.dead_nodes.add(node_id)
        for att, _ in self.node_schema[self.node_labels[node_id]]:
            self.node_values.pop((node_id, att), None)

    # -- queries ------------------------------------------------------------------

    def _labels(self, kind):
        return self.node_labels if kind == NODE else self.edge_labels

    def _dead(self, kind):
        return self.dead_nodes if kind == NODE else self.dead_edges

    def _schema(self, kind):
        return self.node_schema if kind == NODE else self.edge_schema

    def _values(self, kind):
        return self.node_values if kind == NODE else self.edge_values

    def get_types(self, kind):
        return sorted(self._schema(kind), key=str.encode)

    def scan(self, kind, label):
        if label not in self._schema(kind):
            raise NotFoundError(f"unknown label {label!r}")
        labels = self._labels(kind)
        dead = self._dead(kind)
        return sorted(
            i for i, lab in labels.items() if lab == label and i not in dead
        )

    def get_type(self, kind, elem_id):
        labels = self._labels(kind)
        if elem_id not in labels:
            raise NotFoundError(f"id {elem_id} out of range")
        if elem_id in self._dead(kind):
            raise NotFoundError(f"{kind} {elem_id} was removed")
        return labels[elem_id]

    def get_attribute(self, kind, elem_id, att):
        label = self.get_type(kind, elem_id)
        if not any(a == att for a, _ in self._schema(kind)[label]):
            return UNDEFINED
        return self._values(kind).get((elem_id, att))

    def select(self, kind, label, att, value):
        if label not in self._schema(kind):
            raise NotFoundError(f"unknown label {label!r}")
        if not any(a == att for a, _ in self._schema(kind)[label]):
            return UNDEFINED
        values = self._values(kind)
        dead = self._dead(kind)
        return sorted(
            i
            for i, lab in self._labels(kind).items()
            if lab == label and i not in dead and values.get((i, att)) == value
        )

    def neighbors(self, node_label, node_id):
        self.get_type(NODE, node_id)
        if node_label not in self.node_schema:
            raise NotFoundError(f"unknown label {node_label!r}")
        return sorted(
            {
                v
                for _, u, v in self.triples
                if u == node_id and self.node_labels[v] == node_label
            }
        )

    def related(self, edge_label, node_id):
        self.get_type(NODE, node_id)
        if edge_label not in self.edge_schema:
            raise NotFoundError(f"unknown label {edge_label!r}")
        return sorted(
            {
                v
                for e, u, v in self.triples
                if u == node_id and self.edge_labels[e] == edge_label
            }
        )
