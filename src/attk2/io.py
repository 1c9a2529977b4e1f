"""Text ingestion and binary serialization of the static store.

Input format (tab-separated UTF-8, one record per line):

  schema.tsv   NODE|EDGE <TAB> label <TAB> att:kind ...     kind: s | d
  nodes.tsv    ext_id <TAB> label <TAB> att=value ...
  edges.tsv    ext_id <TAB> label <TAB> src_ext <TAB> tgt_ext <TAB> att=value ...

Tabs, backslashes, '=' and newlines inside any field are backslash-escaped
(\\t, \\\\, \\=, \\n), so a raw split on tab characters is always safe.

Binary format, version 7: magic "ATTK2TRE", u32 LE version, then a section
table (u32 count; per section u32 tag, u64 offset, u64 length) followed by the
section payloads. Every payload ends in a u32 CRC-32 (zlib) of the bytes
before it, which the loader checks before parsing the section; the table's
length includes these four bytes. All integers are little-endian; bitmaps use
the shared wire form (u64 bit count + packed 64-bit words, LSB first within
each word). Labels and attribute names are single strings (u64 byte length +
UTF-8). Each schema section is a u64 label count, then per label: the label,
its u64 element count, its dense flags as a bitmap (one bit per attribute)
and its attribute names, in declaration order. Every string list (an id map,
the values of one sparse attribute, the values of one dense column) is one
string table: u32 separator code point, u32 absent-marker code point, then
u64 byte size and one UTF-8 blob in which every entry is followed by the
separator; an absent sparse value is the marker alone, so it stays distinct
from "". The writer picks the two smallest code points outside the
surrogates that occur in no entry (in practice \\x00 and \\x01), and the loader
cuts the decoded blob with one `str.split`. Each attrs section holds one
string table per sparse attribute of its schema, in schema order (labels
ascending, each label's sparse attributes in declaration order), then the
column values of each attribute name the schema declares dense, names
ascending, then the dense k²-tree if those columns hold any value. A k²-tree
is u32 k and the bitmaps T and L. The relations section holds the k²-tree,
the Multi bitmap, then Last and More as packed u32 values. The id-map section
holds the node and then the edge id map.

The file holds nothing that can be derived from the rest. Every size follows
from the schema or from bytes read before it: a label's attribute count is
its bitmap's length; the relations k²-tree's logical side is the node count
and a dense tree's the larger of its kind's element and column counts, and
each side is padded to a power of k; a sparse value list holds one entry per id of its label and
an id map one per element; Last holds one entry per bit of Multi, and More
ends where the last multi leaf's run ends. The sparse value-order indexes are
sorted at load, and a dense column's element ids are read from the tree on
its first select. The writer is deterministic, so saving a loaded store
reproduces the file byte for byte. Files of versions 1 to 6 are rejected;
rebuild them from text.

Beyond the checksums, load checks in O(size) the structure the queries rely
on: in each k²-tree, |T| + |L| = k²·(1 + ones(T)), T ends exactly after its
last internal level (one rank per level) and no one lies in the padding rows
or columns past the logical side (two rectangle descents); Multi has one bit
per leaf of the relations tree; the multi runs tile More, each ascending; the
leaves hold each edge id 1..edges exactly once; dense column values ascend
bytewise; each schema section's labels ascend strictly and no label repeats
an attribute name, and no attribute name is dense under one label and sparse
under another, across both schema sections; each string table's separator
and marker are two distinct code points UTF-8 can encode and its blob ends in
the separator; each sparse value list holds one value per id of its label,
and each id map one id per element, with no duplicate.
A dense element with two values in one attribute is found by the query that
reads its row or its column (`attrstore.DenseAttributeMatrix`).
"""

from __future__ import annotations

import os
import struct
import sys
import tempfile
import zlib
from array import array
from itertools import accumulate, chain, compress, islice, repeat
from operator import eq, ge, lt, setitem
from pathlib import Path
from typing import NamedTuple

from .attrstore import DenseAttributeMatrix, SparseAttribute
from .bits import BitSequence
from .errors import CorruptFileError, InputError
from .graph import EDGE, NODE, AttK2Graph, IdMap
from .k2 import K2Tree, _rect_leaves
from .multiedge import MultiEdgeK2Tree
from .schema import TypeTable, _mixed_kind

MAGIC = b"ATTK2TRE"
VERSION = 7

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


class InputBundle(NamedTuple):
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
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").rstrip("\n")
            except UnicodeDecodeError as exc:
                raise InputError(
                    f"{path.name}:{lineno}: invalid UTF-8 at byte {exc.start}"
                ) from None
            if not line:
                continue
            yield lineno, line.split("\t")


def _load_schema(path: Path):
    node_schema = []
    edge_schema = []
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
            atts.append((att, dense))
        (node_schema if side == "NODE" else edge_schema).append((label, atts))
    att = _mixed_kind(chain(node_schema, edge_schema))
    if att is not None:
        raise InputError(f"schema.tsv: attribute {att!r} is declared both dense and sparse")
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


def _is_scalar(c: int) -> bool:
    """Whether code point c can be encoded in UTF-8 (not a surrogate)."""
    return c < 0xD800 or 0xE000 <= c < 0x110000


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

    def texts(self, values):
        """One string table; None entries are written as absent."""
        present = "".join(filter(None, values))
        free = (c for c in range(0x110000) if _is_scalar(c) and chr(c) not in present)
        sep, marker = islice(free, 2)
        self.u32(sep)
        self.u32(marker)
        sep, marker = chr(sep), chr(marker)
        entries = [marker if v is None else v for v in values]
        self.text(sep.join(entries) + sep if entries else "")

    def bits(self, bs: BitSequence):
        self.parts.append(bs.to_bytes())

    def u32_array(self, values):
        try:
            values = array("I", values)  # a copy: byteswap leaves the store's alone
        except OverflowError:
            raise InputError("a Last/More value is outside the 32-bit range") from None
        if sys.byteorder == "big":
            values.byteswap()
        self.parts.append(values.tobytes())

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
        try:
            return str(self.buf[pos : pos + size], "utf-8")
        except UnicodeDecodeError:
            raise CorruptFileError("string is not valid UTF-8") from None

    def texts(self, absent: bool = False) -> list:
        """One string table; absent entries become None where `absent`
        allows them and are corrupt elsewhere. The caller checks the count."""
        sep, marker = self.u32(), self.u32()
        if sep == marker or not (_is_scalar(sep) and _is_scalar(marker)):
            raise CorruptFileError("string table terminators are not two distinct characters")
        values = self.text().split(chr(sep))
        # every entry ends in the separator, so the last part is empty
        if values.pop():
            raise CorruptFileError("string table does not end in its separator")
        marker = chr(marker)
        if marker in values:
            if not absent:
                raise CorruptFileError("absent entry in a list that must be complete")
            gaps = compress(range(len(values)), map(eq, values, repeat(marker)))
            any(map(setitem, repeat(values), gaps, repeat(None)))  # any() only drains the map
        return values

    def bits(self) -> BitSequence:
        bs, self.pos = BitSequence.from_bytes(self.buf[: self.end], self.pos)
        return bs

    def u32_array(self, count: int) -> array:
        if count > (self.end - self.pos) // 4:
            raise CorruptFileError("truncated array")
        pos = self._take(4 * count)
        values = array("I")
        values.frombytes(self.buf[pos : pos + 4 * count])
        if sys.byteorder == "big":
            values.byteswap()
        return values

    def done(self):
        if self.pos != self.end:
            raise CorruptFileError("trailing bytes in section")


def _write_schema(w: _Writer, table: TypeTable):
    """Per label: its name, element count, dense flags and attribute names."""
    labels = table.label_list()
    w.u64(len(labels))
    for label, lower, upper in zip(labels, [0, *table.upper_limits], table.upper_limits):
        w.text(label)
        w.u64(upper - lower)
        atts = table.attrs_of(label)
        w.bits(BitSequence(dense for _, dense in atts))
        for name, _ in atts:
            w.text(name)


def _read_schema(r: _Reader) -> TypeTable:
    labels, counts, attrs = [], [], []
    for _ in range(r.u64()):
        labels.append(r.text())
        counts.append(r.u64())
        flags = r.bits().to_bits()  # one per attribute
        names = [r.text() for _ in flags]
        if len(set(names)) != len(names):
            raise CorruptFileError(f"label {labels[-1]!r} repeats an attribute name")
        attrs.append(list(zip(names, flags)))
    if not all(map(lt, labels, labels[1:])):
        raise CorruptFileError("schema labels do not ascend strictly")
    return TypeTable(labels, list(accumulate(counts)), attrs)


def _write_k2(w: _Writer, tree: K2Tree):
    w.u32(tree.k)
    w.bits(tree.T)
    w.bits(tree.L)


def _read_k2(r: _Reader, n_logical: int) -> K2Tree:
    """A k²-tree over an n_logical×n_logical matrix, checked: |T| + |L| =
    k²·(1 + ones(T)), T ends after its last level and no one lies outside
    the matrix."""
    k = r.u32()
    t = r.bits()
    l = r.bits()
    # the root block and one block per one of T, k² bits each
    if k < 2 or t.n + l.n != k * k * (1 + t.ones):
        raise CorruptFileError("malformed k2-tree payload")
    tree = K2Tree(k, n_logical, t, l)
    n = tree.n
    # T holds one level per division of the side by k, down to k: the root's
    # block, then the children of each one in turn, which end at
    # k²(1 + rank1(p)) for the ones up to p
    end, side = 0, n
    while side > k and end <= t.n:
        end = k * k * (1 + t.rank1(end))
        side //= k
    if end != t.n:
        raise CorruptFileError("k2-tree levels do not match its side")
    m = n_logical
    # the padding rows, then the padding columns (0-based, inclusive)
    if m < n and (
        _rect_leaves(tree, m, n - 1, 0, n - 1) or _rect_leaves(tree, 0, n - 1, m, n - 1)
    ):
        raise CorruptFileError(f"k2-tree has a one outside its {m}x{m} matrix")
    return tree


def _sparse_order(schema: TypeTable):
    """(label, attribute) of every sparse attribute, in file order: labels
    ascending, each label's attributes in declaration order."""
    for label in schema.label_list():
        for att, dense in schema.attrs_of(label):
            if not dense:
                yield label, att


def _write_attrs(w: _Writer, schema: TypeTable, sparse: dict, dense: DenseAttributeMatrix):
    for key in _sparse_order(schema):
        w.texts(sparse[key].values)
    for values in dense.col_values:
        w.texts(values)
    if dense.matrix is not None:
        _write_k2(w, dense.matrix)


def _read_attrs(r: _Reader, schema: TypeTable):
    sparse = {}
    for label, att in _sparse_order(schema):
        lo, hi = schema.ids_of(label)
        values = r.texts(absent=True)
        if len(values) != hi - lo + 1:
            raise CorruptFileError(
                f"sparse attribute {label}.{att} does not match its label's id range"
            )
        sparse[(label, att)] = SparseAttribute(label, att, lo, values)
    atts = schema.dense_names()
    col_values = [r.texts() for _ in atts]
    for values in col_values:  # str order is UTF-8 byte order
        if not all(map(lt, values, values[1:])):
            raise CorruptFileError("dense column values are not in ascending order")
    columns = sum(map(len, col_values))
    # the tree and side `DenseAttributeMatrix.build` gives: rows and columns in range
    matrix = _read_k2(r, max(schema.count, columns)) if columns else None
    return sparse, DenseAttributeMatrix(matrix, atts, col_values)


def _write_relations(w: _Writer, rel: MultiEdgeK2Tree):
    _write_k2(w, rel.base)
    w.bits(rel.multi)
    w.u32_array(rel.last)
    w.u32_array(rel.more)


_IS_ONE = bytes.maketrans(b"01", b"\x00\x01")
_IS_ZERO = bytes.maketrans(b"01", b"\x01\x00")


def _mask(size: int, positions, bit: int = 1) -> bytearray:
    """`size` bytes, `bit` at each of `positions` and the other bit elsewhere,
    filled in C. Sets in its place raised the peak RSS of a CLI query on the
    40k-node / 100k-edge store by about 1.1 MB."""
    mask = bytearray([1 - bit]) * size
    any(map(setitem, repeat(mask), positions, repeat(bit)))  # any() only drains the map
    return mask


def _read_relations(r: _Reader, nodes: int, edges: int) -> MultiEdgeK2Tree:
    """Read the relations of a store with `nodes` nodes and `edges` edges,
    checking that Multi has one bit per leaf, that the multi runs tile More,
    each ascending, and that the leaves hold every id in 1..edges exactly
    once. Last holds one entry per leaf and More ends with the last run."""
    base = _read_k2(r, nodes)
    multi = r.bits()
    if multi.n != base.L.ones:
        raise CorruptFileError("the Multi bitmap does not match the leaf count")
    last = r.u32_array(multi.n)
    # one "0" or "1" byte per leaf, spelled out from the Multi words
    flags = "".join(f"{w:064b}"[::-1] for w in multi._words)[: multi.n].encode()
    bounds = array("I", [0, *compress(last, flags.translate(_IS_ONE))])  # 0, the run ends
    if not all(map(lt, bounds, bounds[1:])):
        raise CorruptFileError("multi-edge runs do not tile the More array")
    more = r.u32_array(bounds[-1])
    singles = list(compress(last, flags.translate(_IS_ZERO)))
    for ids in (singles, more):
        if ids and (min(ids) < 1 or max(ids) > edges):
            raise CorruptFileError(f"edge id outside 1..{edges} in the relations")
    # counted first, so that a corrupt edge count cannot size the mask
    if len(singles) + len(more) != edges or (
        _mask(edges + 1, chain(singles, more)).count(1) != edges
    ):
        raise CorruptFileError(f"the relations do not hold each edge id 1..{edges} once")
    # More may step down only where a run starts (`related_targets` bisects runs)
    inside = _mask(len(more) + 1, bounds, 0)[1:-1]  # 1 where More[p] continues a run
    if any(compress(map(ge, more, islice(more, 1, None)), inside)):
        raise CorruptFileError("a multi-edge run in More does not ascend")
    return MultiEdgeK2Tree(base, multi, last, more, bounds)


def _read_id_map(r: _Reader) -> IdMap:
    idmap = IdMap(r.texts())
    if len(idmap.to_internal) != len(idmap):
        raise CorruptFileError("id map holds a duplicate external id")
    return idmap


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
            _write_attrs(w, graph.node_schema, graph.node_sparse, graph.node_dense)
        elif tag == SEC_EDGE_ATTRS:
            _write_attrs(w, graph.edge_schema, graph.edge_sparse, graph.edge_dense)
        elif tag == SEC_RELATIONS:
            _write_relations(w, graph.relations)
        else:
            w.texts(graph.node_ids.to_external)
            w.texts(graph.edge_ids.to_external)
        payload = w.getvalue()
        sections.append((tag, payload + struct.pack("<I", zlib.crc32(payload))))

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


def section_table(buf: bytes) -> dict[int, tuple[int, int]]:
    """Tag -> (offset, length) of every section of a store file's content,
    after checking magic, version, table bounds and that no section is
    missing or runs past the end."""
    if len(buf) < len(MAGIC) + 8 or buf[: len(MAGIC)] != MAGIC:
        raise CorruptFileError("bad magic")
    version, count = struct.unpack_from("<II", buf, len(MAGIC))
    if version != VERSION:
        raise CorruptFileError(f"unsupported version {version}")
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
    return sections


def load_db(path) -> AttK2Graph:
    """Load a serialized store, validating magic, version, section bounds and
    checksums, and the structure the queries rely on."""
    with open(path, "rb") as fh:
        buf = memoryview(fh.read())  # slices of a view share the buffer
    sections = section_table(buf)

    def section(tag, read, *args):
        """read(reader, *args) over the whole of the section's checked payload."""
        offset, length = sections[tag]
        end = offset + length - 4
        if length < 4 or struct.unpack_from("<I", buf, end)[0] != zlib.crc32(
            buf[offset:end]
        ):
            raise CorruptFileError(f"section {tag} fails its checksum")
        r = _Reader(buf, offset, end)
        out = read(r, *args)
        r.done()
        return out

    node_schema = section(SEC_NODE_SCHEMA, _read_schema)
    edge_schema = section(SEC_EDGE_SCHEMA, _read_schema)
    schemas = (node_schema, edge_schema)
    att = _mixed_kind((lab, s.attrs_of(lab)) for s in schemas for lab in s.labels)
    if att is not None:
        raise CorruptFileError(f"attribute {att!r} is both dense and sparse in the schema")
    node_sparse, node_dense = section(SEC_NODE_ATTRS, _read_attrs, node_schema)
    edge_sparse, edge_dense = section(SEC_EDGE_ATTRS, _read_attrs, edge_schema)
    relations = section(SEC_RELATIONS, _read_relations, node_schema.count, edge_schema.count)
    node_ids, edge_ids = section(SEC_ID_MAPS, lambda r: (_read_id_map(r), _read_id_map(r)))

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
