"""Text ingestion and binary serialization of the static store.

Input format (tab-separated UTF-8, one record per line):

  schema.tsv   NODE|EDGE <TAB> label <TAB> att:kind ...     kind: s | d
  nodes.tsv    ext_id <TAB> label <TAB> att=value ...
  edges.tsv    ext_id <TAB> label <TAB> src_ext <TAB> tgt_ext <TAB> att=value ...

Tabs, backslashes, '=' and newlines inside any field are backslash-escaped
(\\t, \\\\, \\=, \\n), so a raw split on tab characters is always safe.

Binary format: magic "ATTK2TRE", u32 LE version, then a section table
(u32 count; per section u32 tag, u64 offset, u64 length) followed by the
section payloads. All integers are little-endian; bitmaps use the shared wire
form (u64 bit count + packed 64-bit words, LSB first within each word).
Absent sparse values are encoded with the reserved length 2^64-1, keeping them
distinct from genuine empty strings. The writer is deterministic, so saving a
loaded store reproduces the file byte for byte.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .attrstore import DenseAttributeMatrix, SparseAttribute
from .bits import BitSequence
from .errors import CorruptFileError, InputError
from .graph import EDGE, NODE, AttK2Graph, IdMap
from .k2 import K2Tree
from .multiedge import MultiEdgeK2Tree
from .schema import TypeTable

MAGIC = b"ATTK2TRE"
VERSION = 1
_ABSENT = (1 << 64) - 1

SEC_NODE_SCHEMA = 1
SEC_EDGE_SCHEMA = 2
SEC_NODE_ATTRS = 3
SEC_EDGE_ATTRS = 4
SEC_RELATIONS = 5
SEC_ID_MAPS = 6

_SECTION_ORDER = (
    SEC_NODE_SCHEMA,
    SEC_EDGE_SCHEMA,
    SEC_NODE_ATTRS,
    SEC_EDGE_ATTRS,
    SEC_RELATIONS,
    SEC_ID_MAPS,
)


@dataclass
class InputBundle:
    """Parsed and validated text input.

    node_schema/edge_schema: [(label, [(att, dense flag)...])...]
    nodes: [(ext_id, label, [(att, value)...])...]
    edges: [(ext_id, label, src_ext, tgt_ext, [(att, value)...])...]
    """

    node_schema: list
    edge_schema: list
    nodes: list
    edges: list


# -- field escaping ------------------------------------------------------------

_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "=": "\\="}
_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "=": "="}


def escape_field(s: str) -> str:
    if not any(ch in s for ch in "\\\t\n="):
        return s
    return "".join(_ESCAPES.get(ch, ch) for ch in s)


def unescape_field(s: str) -> str:
    if "\\" not in s:
        return s
    out = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch == "\\":
            if i + 1 >= len(s) or s[i + 1] not in _UNESCAPES:
                raise InputError(f"bad escape in field {s!r}")
            out.append(_UNESCAPES[s[i + 1]])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _split_assignment(field: str) -> tuple[str, str]:
    """Split att=value on the first unescaped '='."""
    i = 0
    while i < len(field):
        if field[i] == "\\":
            i += 2
            continue
        if field[i] == "=":
            return unescape_field(field[:i]), unescape_field(field[i + 1 :])
        i += 1
    raise InputError(f"expected att=value, got {field!r}")


# -- text input ------------------------------------------------------------------


def load_input(directory) -> InputBundle:
    """Read and validate schema.tsv / nodes.tsv / edges.tsv from a directory."""
    directory = Path(directory)
    node_schema, edge_schema = _load_schema(directory / "schema.tsv")
    node_atts = {label: dict(atts) for label, atts in node_schema}
    edge_atts = {label: dict(atts) for label, atts in edge_schema}

    nodes = []
    node_exts = set()
    for lineno, fields in _read_tsv(directory / "nodes.tsv"):
        if len(fields) < 2:
            raise InputError(f"nodes.tsv:{lineno}: expected ext_id and label")
        ext = unescape_field(fields[0])
        label = unescape_field(fields[1])
        if ext in node_exts:
            raise InputError(f"nodes.tsv:{lineno}: duplicate node id {ext!r}")
        node_exts.add(ext)
        if label not in node_atts:
            raise InputError(f"nodes.tsv:{lineno}: undeclared label {label!r}")
        attrs = _parse_attrs(fields[2:], node_atts[label], "nodes.tsv", lineno, label)
        nodes.append((ext, label, attrs))

    edges = []
    edge_exts = set()
    for lineno, fields in _read_tsv(directory / "edges.tsv"):
        if len(fields) < 4:
            raise InputError(
                f"edges.tsv:{lineno}: expected ext_id, label, source and target"
            )
        ext = unescape_field(fields[0])
        label = unescape_field(fields[1])
        src = unescape_field(fields[2])
        tgt = unescape_field(fields[3])
        if ext in edge_exts:
            raise InputError(f"edges.tsv:{lineno}: duplicate edge id {ext!r}")
        edge_exts.add(ext)
        if label not in edge_atts:
            raise InputError(f"edges.tsv:{lineno}: undeclared label {label!r}")
        if src not in node_exts:
            raise InputError(f"edges.tsv:{lineno}: unknown source node {src!r}")
        if tgt not in node_exts:
            raise InputError(f"edges.tsv:{lineno}: unknown target node {tgt!r}")
        attrs = _parse_attrs(fields[4:], edge_atts[label], "edges.tsv", lineno, label)
        edges.append((ext, label, src, tgt, attrs))

    return InputBundle(node_schema, edge_schema, nodes, edges)


def _read_tsv(path: Path):
    if not path.exists():
        raise InputError(f"missing input file {path}")
    with open(path, encoding="utf-8", newline="\n") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            yield lineno, line.split("\t")


def _load_schema(path: Path):
    node_schema = []
    edge_schema = []
    kinds: dict[str, bool] = {}  # attribute -> dense, global consistency
    seen = {"NODE": set(), "EDGE": set()}
    for lineno, fields in _read_tsv(path):
        if len(fields) < 2 or fields[0] not in ("NODE", "EDGE"):
            raise InputError(f"schema.tsv:{lineno}: expected NODE or EDGE record")
        side = fields[0]
        label = unescape_field(fields[1])
        if label in seen[side]:
            raise InputError(f"schema.tsv:{lineno}: duplicate label {label!r}")
        seen[side].add(label)
        atts = []
        for field in fields[2:]:
            if len(field) < 3 or field[-2] != ":" or field[-1] not in "sd":
                raise InputError(
                    f"schema.tsv:{lineno}: expected att:s or att:d, got {field!r}"
                )
            att = unescape_field(field[:-2])
            dense = field[-1] == "d"
            if any(a == att for a, _ in atts):
                raise InputError(f"schema.tsv:{lineno}: duplicate attribute {att!r}")
            if att in kinds and kinds[att] != dense:
                raise InputError(
                    f"schema.tsv:{lineno}: attribute {att!r} is declared both "
                    "dense and sparse"
                )
            kinds[att] = dense
            atts.append((att, dense))
        (node_schema if side == "NODE" else edge_schema).append((label, atts))
    return node_schema, edge_schema


def _parse_attrs(fields, declared, filename, lineno, label):
    attrs = []
    seen = set()
    for field in fields:
        att, value = _split_assignment(field)
        if att not in declared:
            raise InputError(
                f"{filename}:{lineno}: attribute {att!r} is not in the schema "
                f"of label {label!r}"
            )
        if att in seen:
            raise InputError(f"{filename}:{lineno}: attribute {att!r} given twice")
        seen.add(att)
        attrs.append((att, value))
    return attrs


def write_bundle(directory, bundle: InputBundle):
    """Write a bundle back out in the text input format."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "schema.tsv", "w", encoding="utf-8", newline="\n") as fh:
        for side, schema in (("NODE", bundle.node_schema), ("EDGE", bundle.edge_schema)):
            for label, atts in schema:
                cols = [side, escape_field(label)]
                cols += [f"{escape_field(a)}:{'d' if d else 's'}" for a, d in atts]
                fh.write("\t".join(cols) + "\n")
    with open(directory / "nodes.tsv", "w", encoding="utf-8", newline="\n") as fh:
        for ext, label, attrs in bundle.nodes:
            cols = [escape_field(ext), escape_field(label)]
            cols += [f"{escape_field(a)}={escape_field(v)}" for a, v in attrs]
            fh.write("\t".join(cols) + "\n")
    with open(directory / "edges.tsv", "w", encoding="utf-8", newline="\n") as fh:
        for ext, label, src, tgt, attrs in bundle.edges:
            cols = [
                escape_field(ext),
                escape_field(label),
                escape_field(src),
                escape_field(tgt),
            ]
            cols += [f"{escape_field(a)}={escape_field(v)}" for a, v in attrs]
            fh.write("\t".join(cols) + "\n")


def export_bundle(store, node_ext, edge_ext) -> InputBundle:
    """The content of a static or dynamic store as a bundle.

    node_ext/edge_ext map store ids to the external ids the bundle carries.
    Absent values are left out, so `build_graph` on the result rebuilds the
    same static store.
    """
    ends = {eid: (u, v) for eid, u, v in store.relations.all_triples()}

    def side(kind, schema):
        declared = [(label, schema.attrs_of(label)) for label in store.get_types(kind)]
        rows = []
        for label, atts in declared:
            for i in store.scan(kind, label):
                got = ((a, store.get_attribute(kind, i, a)) for a, _ in atts)
                rows.append((i, label, [(a, v) for a, v in got if isinstance(v, str)]))
        return declared, rows

    node_schema, nodes = side(NODE, store.node_schema)
    edge_schema, edges = side(EDGE, store.edge_schema)
    return InputBundle(
        node_schema,
        edge_schema,
        [(node_ext(i), label, attrs) for i, label, attrs in nodes],
        [
            (edge_ext(i), label, node_ext(ends[i][0]), node_ext(ends[i][1]), attrs)
            for i, label, attrs in edges
        ],
    )


def write_id_maps(path, graph: AttK2Graph):
    """Emit ids.tsv: kind <TAB> ext_id <TAB> internal_id."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for kind, idmap in (("node", graph.node_ids), ("edge", graph.edge_ids)):
            for internal, ext in enumerate(idmap.to_external, start=1):
                fh.write(f"{kind}\t{escape_field(ext)}\t{internal}\n")


# -- binary encoding helpers -------------------------------------------------------


class _Writer:
    def __init__(self):
        self.parts = []

    def u32(self, v):
        self.parts.append(struct.pack("<I", v))

    def u64(self, v):
        self.parts.append(struct.pack("<Q", v))

    def text(self, s: str):
        raw = s.encode("utf-8")
        self.u64(len(raw))
        self.parts.append(raw)

    def maybe_text(self, s):
        if s is None:
            self.u64(_ABSENT)
        else:
            self.text(s)

    def bits(self, bs: BitSequence):
        self.parts.append(bs.to_bytes())

    def u64_array(self, values):
        self.u64(len(values))
        if values:
            self.parts.append(struct.pack(f"<{len(values)}Q", *values))

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    def __init__(self, buf: bytes, offset: int = 0, end: int | None = None):
        self.buf = buf
        self.pos = offset
        self.end = len(buf) if end is None else end

    def _take(self, size: int) -> int:
        if self.pos + size > self.end:
            raise CorruptFileError("truncated section")
        pos = self.pos
        self.pos += size
        return pos

    def u32(self) -> int:
        return struct.unpack_from("<I", self.buf, self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack_from("<Q", self.buf, self._take(8))[0]

    def text(self) -> str:
        size = self.u64()
        if size > self.end - self.pos:
            raise CorruptFileError("truncated string")
        pos = self._take(size)
        return self.buf[pos : pos + size].decode("utf-8")

    def maybe_text(self):
        size = self.u64()
        if size == _ABSENT:
            return None
        if size > self.end - self.pos:
            raise CorruptFileError("truncated string")
        pos = self._take(size)
        return self.buf[pos : pos + size].decode("utf-8")

    def bits(self) -> BitSequence:
        n = self.u64()
        nwords = (n + 63) // 64
        pos = self._take(8 * nwords)
        words = list(struct.unpack_from(f"<{nwords}Q", self.buf, pos))
        if n % 64 and words and words[-1] >> (n % 64):
            raise CorruptFileError("bit sequence has nonzero padding bits")
        return BitSequence.from_words(words, n)

    def u64_array(self) -> list[int]:
        count = self.u64()
        if count > (self.end - self.pos) // 8:
            raise CorruptFileError("truncated array")
        pos = self._take(8 * count)
        return list(struct.unpack_from(f"<{count}Q", self.buf, pos))

    def done(self):
        if self.pos != self.end:
            raise CorruptFileError("trailing bytes in section")


def _write_schema(w: _Writer, table: TypeTable):
    w.u64(len(table.labels))
    for i, label in enumerate(table.labels):
        w.text(label)
        w.u64(table.upper_limits[i])
        names = table._attrs[i]
        w.u64(len(names))
        for name in names:
            w.text(name)
        w.bits(table._dense[i])


def _read_schema(r: _Reader) -> TypeTable:
    count = r.u64()
    labels, uppers, attrs, dense = [], [], [], []
    for _ in range(count):
        labels.append(r.text())
        uppers.append(r.u64())
        names = [r.text() for _ in range(r.u64())]
        flags = r.bits()
        if flags.n != len(names):
            raise CorruptFileError("dense flag bitmap does not match attribute count")
        attrs.append(names)
        dense.append(flags)
    prev = 0
    for u in uppers:
        if u < prev:
            raise CorruptFileError("schema upper limits are not monotone")
        prev = u
    return TypeTable(labels, uppers, attrs, dense)


def _write_k2(w: _Writer, tree: K2Tree):
    w.u32(tree.k)
    w.u64(tree.n)
    w.u64(tree.n_logical)
    w.bits(tree.T)
    w.bits(tree.L)


def _read_k2(r: _Reader) -> K2Tree:
    k = r.u32()
    n = r.u64()
    n_logical = r.u64()
    t = r.bits()
    l = r.bits()
    if k < 2 or (t.n + l.n) % (k * k):
        raise CorruptFileError("malformed k2-tree payload")
    return K2Tree(k, n, n_logical, t, l)


def _write_attrs(w: _Writer, sparse: dict, dense: DenseAttributeMatrix):
    items = sorted(sparse.items(), key=lambda kv: (kv[0][0].encode(), kv[0][1].encode()))
    w.u64(len(items))
    for (label, att), store in items:
        w.text(label)
        w.text(att)
        w.u64(store.limit)
        w.u64(len(store.values))
        for value in store.values:
            w.maybe_text(value)
        w.u64_array(store.lex_index)
    w.u32(1 if dense.matrix is not None else 0)
    if dense.matrix is not None:
        _write_k2(w, dense.matrix)
    w.u64(len(dense.atts))
    for i, att in enumerate(dense.atts):
        w.text(att)
        w.u64(dense.col_limits[i])
        values = dense.col_values[i]
        w.u64(len(values))
        for value in values:
            w.text(value)


def _read_attrs(r: _Reader):
    sparse = {}
    for _ in range(r.u64()):
        label = r.text()
        att = r.text()
        limit = r.u64()
        count = r.u64()
        values = [r.maybe_text() for _ in range(count)]
        lex = r.u64_array()
        if len(lex) != count or (lex and max(lex) >= count):
            raise CorruptFileError("sparse index does not match value list")
        sparse[(label, att)] = SparseAttribute(label, att, limit, values, lex)
    matrix = _read_k2(r) if r.u32() else None
    atts, limits, col_values = [], [], []
    for _ in range(r.u64()):
        atts.append(r.text())
        limits.append(r.u64())
        col_values.append([r.text() for _ in range(r.u64())])
    if sum(len(v) for v in col_values) != (limits[-1] if limits else 0):
        raise CorruptFileError("dense column limits do not match value lists")
    return sparse, DenseAttributeMatrix(matrix, atts, limits, col_values)


def _write_relations(w: _Writer, rel: MultiEdgeK2Tree):
    _write_k2(w, rel.base)
    w.bits(rel.multi)
    w.u64_array(rel.last)
    w.u64_array(rel.more)


def _read_relations(r: _Reader) -> MultiEdgeK2Tree:
    base = _read_k2(r)
    multi = r.bits()
    last = r.u64_array()
    more = r.u64_array()
    if multi.n != base.L.ones or len(last) != multi.n:
        raise CorruptFileError("relations auxiliary arrays do not match leaf count")
    return MultiEdgeK2Tree(base, multi, last, more)


def _write_id_map(w: _Writer, idmap: IdMap):
    w.u64(len(idmap))
    for ext in idmap.to_external:
        w.text(ext)


def _read_id_map(r: _Reader) -> IdMap:
    return IdMap([r.text() for _ in range(r.u64())])


def save_db(graph: AttK2Graph, path):
    """Serialize the store; the write is atomic (temp file + rename)."""
    sections = []
    for tag in _SECTION_ORDER:
        w = _Writer()
        if tag == SEC_NODE_SCHEMA:
            _write_schema(w, graph.node_schema)
        elif tag == SEC_EDGE_SCHEMA:
            _write_schema(w, graph.edge_schema)
        elif tag == SEC_NODE_ATTRS:
            _write_attrs(w, graph.node_sparse, graph.node_dense)
        elif tag == SEC_EDGE_ATTRS:
            _write_attrs(w, graph.edge_sparse, graph.edge_dense)
        elif tag == SEC_RELATIONS:
            _write_relations(w, graph.relations)
        else:
            _write_id_map(w, graph.node_ids)
            _write_id_map(w, graph.edge_ids)
        sections.append((tag, w.getvalue()))

    header_len = len(MAGIC) + 4 + 4 + len(sections) * 20
    table = struct.pack("<I", len(sections))
    offset = header_len
    for tag, payload in sections:
        table += struct.pack("<IQQ", tag, offset, len(payload))
        offset += len(payload)

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(table)
            for _, payload in sections:
                fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_db(path) -> AttK2Graph:
    """Load a serialized store, validating magic, version and section bounds."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < len(MAGIC) + 8 or buf[: len(MAGIC)] != MAGIC:
        raise CorruptFileError("bad magic")
    (version,) = struct.unpack_from("<I", buf, len(MAGIC))
    if version != VERSION:
        raise CorruptFileError(f"unsupported version {version}")
    (count,) = struct.unpack_from("<I", buf, len(MAGIC) + 4)
    table_start = len(MAGIC) + 8
    if table_start + count * 20 > len(buf):
        raise CorruptFileError("truncated section table")
    sections = {}
    for i in range(count):
        tag, offset, length = struct.unpack_from("<IQQ", buf, table_start + i * 20)
        if offset + length > len(buf):
            raise CorruptFileError(f"section {tag} exceeds file size")
        sections[tag] = (offset, length)
    for tag in _SECTION_ORDER:
        if tag not in sections:
            raise CorruptFileError(f"missing section {tag}")

    def reader(tag):
        offset, length = sections[tag]
        return _Reader(buf, offset, offset + length)

    r = reader(SEC_NODE_SCHEMA)
    node_schema = _read_schema(r)
    r.done()
    r = reader(SEC_EDGE_SCHEMA)
    edge_schema = _read_schema(r)
    r.done()
    r = reader(SEC_NODE_ATTRS)
    node_sparse, node_dense = _read_attrs(r)
    r.done()
    r = reader(SEC_EDGE_ATTRS)
    edge_sparse, edge_dense = _read_attrs(r)
    r.done()
    r = reader(SEC_RELATIONS)
    relations = _read_relations(r)
    r.done()
    r = reader(SEC_ID_MAPS)
    node_ids = _read_id_map(r)
    edge_ids = _read_id_map(r)
    r.done()

    if len(node_ids) != node_schema.count or len(edge_ids) != edge_schema.count:
        raise CorruptFileError("id maps do not match schema element counts")
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
        relations.base.k,
    )
