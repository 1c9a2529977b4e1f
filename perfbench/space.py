"""Deterministic space accounting: serialized, nominal and resident bytes.

All figures are counts that repeat exactly for a given input.
"""

from __future__ import annotations

import gc
import struct
import sys
import types

from attk2 import io

SECTION_NAMES = {
    io.SEC_NODE_SCHEMA: "node_schema",
    io.SEC_EDGE_SCHEMA: "edge_schema",
    io.SEC_NODE_ATTRS: "node_attrs",
    io.SEC_EDGE_ATTRS: "edge_attrs",
    io.SEC_RELATIONS: "relations",
    io.SEC_ID_MAPS: "id_maps",
}

_NOT_DATA = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)


def section_bytes(path) -> dict[str, int]:
    """Payload length of every section, read from the store file's table
    (magic, u32 version, u32 count, then count × (u32 tag, u64 offset, u64 length))."""
    with open(path, "rb") as fh:
        head = fh.read(len(io.MAGIC) + 8)
        (count,) = struct.unpack_from("<I", head, len(io.MAGIC) + 4)
        table = fh.read(count * 20)
    out = {}
    for i in range(count):
        tag, _offset, length = struct.unpack_from("<IQQ", table, i * 20)
        out[SECTION_NAMES.get(tag, f"tag{tag}")] = length
    return out


def resident_bytes(groups: list[tuple[str, list]]) -> dict[str, int]:
    """Deep `sys.getsizeof` walk per group of root objects.

    Groups are walked in order and every object counts once, for the first
    group that reaches it; types, modules and functions are not data and are
    skipped. The walk follows `gc.get_referents`, so it sees __slots__ values,
    dict keys and values and container items.
    """
    seen: set[int] = set()
    out = {}
    for name, roots in groups:
        total = 0
        stack = list(roots)
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, _NOT_DATA):
                continue
            seen.add(id(obj))
            total += sys.getsizeof(obj)
            stack.extend(gc.get_referents(obj))
        out[name] = total
    return out


def static_layers(graph) -> list[tuple[str, list]]:
    """Root objects per layer of a static store; the last group takes what
    the layers leave over (the store object itself)."""
    return [
        ("graph.idmap", [graph.node_ids, graph.edge_ids]),
        ("schema", [graph.node_schema, graph.edge_schema]),
        ("k2", [graph.relations.base]),
        ("multiedge", [graph.relations]),
        ("attrstore", [graph.node_sparse, graph.edge_sparse, graph.node_dense, graph.edge_dense]),
        ("other", [graph]),
    ]


def dynamic_layers(runner) -> list[tuple[str, list]]:
    """Root objects per layer of a replayed dynamic store; the runner's
    external id dictionaries play the role of the static id maps."""
    g = runner.graph
    return [
        ("graph.idmap", [runner.node_ids, runner.edge_ids, runner.node_ext, runner.edge_ext]),
        ("schema", [g.node_schema, g.edge_schema]),
        ("k2", [g.relations.base]),
        ("multiedge", [g.relations]),
        ("attrstore", [g.node_sparse, g.edge_sparse, g.node_dense, g.edge_dense]),
        ("other", [runner]),
    ]


def nominal_bits(relations) -> dict[str, int]:
    """k²-tree payload bits and the auxiliary structure sizes of the
    relations layer (Multi/Last/More exist only in the static form)."""
    out = {"k2.nominal_bits": relations.base.bit_size}
    multi = getattr(relations, "multi", None)
    out["multiedge.multi_bits"] = len(multi) if multi is not None else 0
    out["multiedge.last_entries"] = len(getattr(relations, "last", ()))
    out["multiedge.more_entries"] = len(getattr(relations, "more", ()))
    return out
