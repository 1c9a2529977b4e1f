"""Text ingestion, escaping, and binary round trips."""

import random
import struct
import zlib

import pytest

from attk2 import io, queries
from attk2.bits import BitSequence
from attk2.cli import main
from attk2.errors import CorruptFileError, InputError
from attk2.gen import generate
from attk2.attrstore import DenseAttributeMatrix, SparseAttribute
from attk2.graph import EDGE, NODE, AttK2Graph, IdMap, build_graph
from attk2.k2 import BAND_J, K2Tree, _cells
from attk2.multiedge import MultiEdgeK2Tree
from attk2.schema import TypeTable

from conftest import RELATION_TRIPLES, running_bundle


def test_escape_round_trip():
    for s in ("plain", "a\tb", "x=y", "back\\slash", "multi\nline", "", "=\t\\\n"):
        assert io.unescape_field(io.escape_field(s)) == s
    assert "\t" not in io.escape_field("a\tb")
    with pytest.raises(InputError):
        io.unescape_field("bad\\z")


def test_bundle_text_round_trip(tmp_path, bundle):
    io.write_bundle(tmp_path, bundle)
    back = io.load_input(tmp_path)
    assert back.node_schema == bundle.node_schema
    assert back.edge_schema == bundle.edge_schema
    assert back.nodes == bundle.nodes
    assert back.edges == bundle.edges


def test_load_running_fixture_counts(tmp_path, bundle):
    io.write_bundle(tmp_path, bundle)
    back = io.load_input(tmp_path)
    assert len(back.nodes) == 5
    assert len(back.edges) == 7


def test_awkward_values_survive(tmp_path):
    bundle = running_bundle()
    bundle.nodes[0][2][0] = ("Title", "tab\there = tricky \\ stuff")
    io.write_bundle(tmp_path, bundle)
    back = io.load_input(tmp_path)
    assert back.nodes[0][2][0] == ("Title", "tab\there = tricky \\ stuff")


def _write(tmp_path, name, text):
    (tmp_path / name).write_text(text, encoding="utf-8")


def _minimal_schema(tmp_path):
    _write(tmp_path, "schema.tsv", "NODE\tA\tx:s\nEDGE\tR\n")


def test_load_errors_report_line_numbers(tmp_path):
    _minimal_schema(tmp_path)
    _write(tmp_path, "nodes.tsv", "n1\tA\nn1\tA\n")
    _write(tmp_path, "edges.tsv", "")
    with pytest.raises(InputError) as err:
        io.load_input(tmp_path)
    assert "nodes.tsv:2" in str(err.value) and "duplicate" in str(err.value)


def test_load_rejects_undeclared_label(tmp_path):
    _minimal_schema(tmp_path)
    _write(tmp_path, "nodes.tsv", "n1\tB\n")
    _write(tmp_path, "edges.tsv", "")
    with pytest.raises(InputError) as err:
        io.load_input(tmp_path)
    assert "undeclared" in str(err.value)


def test_load_rejects_undeclared_attribute(tmp_path):
    _minimal_schema(tmp_path)
    _write(tmp_path, "nodes.tsv", "n1\tA\ty=1\n")
    _write(tmp_path, "edges.tsv", "")
    with pytest.raises(InputError) as err:
        io.load_input(tmp_path)
    assert "'y'" in str(err.value)


def test_load_rejects_dangling_endpoint(tmp_path):
    _minimal_schema(tmp_path)
    _write(tmp_path, "nodes.tsv", "")
    _write(tmp_path, "edges.tsv", "e1\tR\tn1\tn2\n")
    with pytest.raises(InputError) as err:
        io.load_input(tmp_path)
    assert "unknown source node" in str(err.value)


def test_load_rejects_malformed_lines(tmp_path):
    _write(tmp_path, "schema.tsv", "VERTEX\tA\n")
    _write(tmp_path, "nodes.tsv", "")
    _write(tmp_path, "edges.tsv", "")
    with pytest.raises(InputError):
        io.load_input(tmp_path)
    _write(tmp_path, "schema.tsv", "NODE\tA\tx:q\n")
    with pytest.raises(InputError):
        io.load_input(tmp_path)
    _write(tmp_path, "schema.tsv", "NODE\tA\tx:s\nEDGE\tR\tx:d\n")
    with pytest.raises(InputError) as err:
        io.load_input(tmp_path)
    assert "dense and sparse" in str(err.value)


@pytest.mark.parametrize(
    "name, text, error",
    [
        ("schema.tsv", "NODE\tA\\q\n", "schema.tsv:1: bad escape in field 'A\\\\q'"),
        ("nodes.tsv", "n1\tA\tx=1\nn2\tA\tx\n", "nodes.tsv:2: expected att=value, got 'x'"),
        ("edges.tsv", "e\\q\tR\tn1\tn1\n", "edges.tsv:1: bad escape in field 'e\\\\q'"),
    ],
    ids=["schema", "nodes", "edges"],
)
def test_field_parse_errors_report_line_numbers(tmp_path, name, text, error):
    _minimal_schema(tmp_path)
    _write(tmp_path, "nodes.tsv", "n1\tA\n")
    _write(tmp_path, "edges.tsv", "")
    _write(tmp_path, name, text)
    with pytest.raises(InputError) as err:
        io.load_input(tmp_path)
    assert str(err.value) == error


def test_missing_file(tmp_path):
    with pytest.raises(InputError):
        io.load_input(tmp_path)


def test_save_load_round_trip(tmp_path, store):
    path = tmp_path / "example.db"
    io.save_db(store, path)
    first = path.read_bytes()
    loaded = io.load_db(path)
    io.save_db(loaded, path)
    assert path.read_bytes() == first
    assert loaded.get_attribute(NODE, 3, "Name") == "P. García"
    assert loaded.related("Author", 3) == [1]
    assert loaded.node_ids.external(4) == "4"


def test_save_is_deterministic(tmp_path, store):
    a = tmp_path / "a.db"
    b = tmp_path / "b.db"
    io.save_db(store, a)
    io.save_db(store, b)
    assert a.read_bytes() == b.read_bytes()


def test_store_layout(tmp_path, store):
    """The running example's store, decoded field by field with `struct` as
    the `io` docstring lays out version 7."""
    path = tmp_path / "layout.db"
    io.save_db(store, path)
    data = path.read_bytes()
    pos = 0

    def take(fmt):
        nonlocal pos
        out = struct.unpack_from("<" + fmt, data, pos)
        pos += struct.calcsize("<" + fmt)
        return out

    def u32():
        return take("I")[0]

    def u64():
        return take("Q")[0]

    def text():
        return take(f"{u64()}s")[0].decode()

    def bits():
        n = u64()
        return [w >> i & 1 for w in take(f"{(n + 63) // 64}Q") for i in range(64)][:n]

    def table():
        assert take("2I") == (0, 1)  # separator, absent marker
        entries = text().split("\x00")
        assert entries.pop() == ""
        return entries

    def schema():
        labels = []
        for _ in range(u64()):
            label, count, flags = text(), u64(), bits()
            labels.append((label, count, [(text(), dense) for dense in flags]))
        return labels

    def k2():
        return u32(), bits(), bits()  # k, T, L

    def attrs(sparse, dense):
        return [table() for _ in range(sparse + dense)], k2()

    assert take("8s2I") == (b"ATTK2TRE", 7, 6)
    table_of = [take("IQQ") for _ in range(6)]
    expect = {
        io.SEC_NODE_SCHEMA: (schema, [
            ("Paper", 2, [("Title", 0), ("Topic", 0)]),
            ("Researcher", 3, [("Name", 0), ("Position", 1), ("University", 0)]),
        ]),
        io.SEC_EDGE_SCHEMA: (schema, [
            ("Author", 3, []),
            ("Colleague", 1, [("Projects", 1)]),
            ("PhDDirector", 1, []),
            ("Reviewer", 2, [("Expertise", 1)]),
        ]),
        # Title, Topic, Name and University, then Position's columns and the
        # tree of 5 rows and 2 columns, padded to side 8
        io.SEC_NODE_ATTRS: (lambda: attrs(4, 1), ([
            ["Compressing graphs", "Graph databases"],
            ["Graph compression", "Databases"],
            ["P. García", "J. Boy", "S. Gómez"],
            ["Madrid", "Coruña", "Coruña"],
            ["Chair", "Lecturer"],
        ], (2, [1, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0], [0, 1, 1, 0, 1, 0, 0, 0]))),
        # the columns of Expertise and Projects, then their tree of 7 rows
        io.SEC_EDGE_ATTRS: (lambda: attrs(0, 2), ([["High", "Medium"], ["5-10"]], (
            2, [1, 0, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0], [0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0]
        ))),
        # the tree, Multi, Last (one u32 per leaf) and More (up to the end of
        # leaf 3's run)
        io.SEC_RELATIONS: (lambda: (k2(), bits(), take("6I"), take("2I")), (
            (
                2,
                [1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0],
                [1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 0],
            ),
            [0, 0, 0, 1, 0, 0],
            (1, 6, 7, 2, 2, 3),
            (4, 5),
        )),
        io.SEC_ID_MAPS: (lambda: (table(), table()), (list("12345"), list("1234567"))),
    }
    assert [tag for tag, _, _ in table_of] == list(expect)
    for tag, offset, length in table_of:
        assert pos == offset
        read, want = expect[tag]
        assert read() == want, tag
        assert u32() == zlib.crc32(data[offset:pos - 4])
        assert pos == offset + length
    assert pos == len(data)


def test_loaded_store_answers_probes(tmp_path):
    data = generate(
        nodes=150, edges=600, node_types=3, edge_types=3, attrs=6, seed=5,
        queries_per_kind=0,
    )
    g = build_graph(data.bundle)
    path = tmp_path / "g.db"
    io.save_db(g, path)
    back = io.load_db(path)
    rng = random.Random(5)
    for _ in range(1000):
        i = rng.randint(1, g.node_schema.count)
        att = "attr%02d" % rng.randint(1, 6)
        assert back.get_attribute(NODE, i, att) == g.get_attribute(NODE, i, att)
        lab = rng.choice(g.get_types(NODE))
        assert back.neighbors(lab, i) == g.neighbors(lab, i)
        e = rng.randint(1, g.edge_schema.count)
        assert back.get_type(EDGE, e) == g.get_type(EDGE, e)


def test_load_rejects_corruption(tmp_path, store):
    path = tmp_path / "c.db"
    io.save_db(store, path)
    data = path.read_bytes()

    bad = tmp_path / "bad.db"
    bad.write_bytes(b"NOTMAGIC" + data[8:])
    with pytest.raises(CorruptFileError):
        io.load_db(bad)

    bad.write_bytes(data[:8] + struct.pack("<I", 99) + data[12:])
    with pytest.raises(CorruptFileError):
        io.load_db(bad)

    bad.write_bytes(data[: len(data) - 10])
    with pytest.raises(CorruptFileError):
        io.load_db(bad)

    # a section length pointing past the end of the file
    count = struct.unpack_from("<I", data, 12)[0]
    tag, offset, length = struct.unpack_from("<IQQ", data, 16)
    patched = bytearray(data)
    struct.pack_into("<IQQ", patched, 16, tag, offset, len(data) * 2)
    bad.write_bytes(bytes(patched))
    with pytest.raises(CorruptFileError):
        io.load_db(bad)
    assert count == 6


def test_id_maps_file(tmp_path, store):
    io.write_id_maps(tmp_path / "ids.tsv", store)
    lines = (tmp_path / "ids.tsv").read_text().splitlines()
    assert "node\t1\t1" in lines
    assert "edge\t7\t7" in lines
    assert len(lines) == 12


def test_generator_output_round_trips(tmp_path):
    from attk2.gen import write_generated

    data = generate(nodes=40, edges=120, node_types=2, edge_types=2, attrs=4, seed=9)
    write_generated(tmp_path, data)
    bundle = io.load_input(tmp_path)
    assert len(bundle.nodes) == 40
    assert len(bundle.edges) == 120
    build_graph(bundle)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_export_rebuilds_the_same_store_file(tmp_path, k):
    # every k²-tree side is derived from its matrix size and k at load
    data = generate(
        nodes=300, edges=900, node_types=3, edge_types=4, attrs=6, seed=7,
        queries_per_kind=0,
    )
    g = build_graph(data.bundle, k=k)
    original = tmp_path / "original.db"
    io.save_db(g, original)
    bundle = io.export_bundle(g, g.node_ids.external, g.edge_ids.external)
    rebuilt = tmp_path / "rebuilt.db"
    io.save_db(build_graph(bundle, k=g.k), rebuilt)
    assert rebuilt.read_bytes() == original.read_bytes()
    io.save_db(io.load_db(original), rebuilt)
    assert rebuilt.read_bytes() == original.read_bytes()


def test_a_dense_attribute_no_element_takes_round_trips(tmp_path, capsys):
    # Paper declares a dense Pages beside Researcher's Position, and no edge
    # keeps a dense value, so the edge kind has dense columns and no tree
    bundle = running_bundle()
    bundle.node_schema[0][1].append(("Pages", True))
    edges = [(ext, label, src, tgt, []) for ext, label, src, tgt, _ in bundle.edges]
    store = build_graph(bundle._replace(edges=edges))
    assert store.node_dense.atts == ["Pages", "Position"]
    assert store.edge_dense.col_values == [[], []] and store.edge_dense.matrix is None
    path = tmp_path / "u.db"
    io.save_db(store, path)
    first = path.read_bytes()
    io.save_db(io.load_db(path), path)
    assert path.read_bytes() == first
    script = tmp_path / "script.tsv"
    script.write_text(
        "GetNodeAttribute\t1\tPages\nSelectNodes\tPaper\tPages\t12\n"
        "GetNodeAttribute\t4\tPosition\nSelectNodes\tResearcher\tPosition\tChair\n"
        "GetEdgeAttribute\t4\tProjects\nSelectEdges\tReviewer\tExpertise\tHigh\n",
        encoding="utf-8",
    )
    for dynamic in ([], ["--dynamic"]):
        assert main(["query", "--db", str(path), "--script", str(script), *dynamic]) == 0
        assert capsys.readouterr().out == "-\n-\nChair\n4\t5\n-\n-\n"


def test_load_rejects_version_1(tmp_path, store, capsys):
    path = tmp_path / "v1.db"
    io.save_db(store, path)
    script = tmp_path / "script.tsv"
    script.write_text("GetNodeTypes\n", encoding="utf-8")
    for version in (1, 2, 3, 4, 5, 6):
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, len(io.MAGIC), version)
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptFileError, match=f"unsupported version {version}"):
            io.load_db(path)
        for dynamic in ([], ["--dynamic"]):
            assert main(["query", "--db", str(path), "--script", str(script), *dynamic]) == 1
            assert capsys.readouterr().err == f"error: unsupported version {version}\n"


def _patched(data: bytes, tag: int, at: int, raw: bytes) -> bytes:
    """`data` with `raw` written at offset `at` of section `tag`'s payload
    and that section's checksum recomputed."""
    offset, length = io.section_table(data)[tag]
    out = bytearray(data)
    out[offset + at : offset + at + len(raw)] = raw
    end = offset + length - 4
    struct.pack_into("<I", out, end, zlib.crc32(out[offset:end]))
    return bytes(out)


def _with_payload(data: bytes, tag: int, payload: bytes) -> bytes:
    """`data` with section `tag`'s payload replaced by `payload` (checksum
    appended) and the section table rewritten for the new lengths."""
    table = io.section_table(data)
    bodies = [bytes(data[o : o + n]) for o, n in table.values()]
    bodies[list(table).index(tag)] = payload + struct.pack("<I", zlib.crc32(payload))
    out = bytearray(data[: len(io.MAGIC) + 8])
    offset = len(out) + 20 * len(table)
    for t, body in zip(table, bodies):
        out += struct.pack("<IQQ", t, offset, len(body))
        offset += len(body)
    return bytes(out + b"".join(bodies))


def test_load_needs_one_entry_per_sparse_attribute(tmp_path, store, capsys):
    path = tmp_path / "e.db"
    io.save_db(store, path)
    data = path.read_bytes()
    # the node attributes open with the entries of Paper.Title, Paper.Topic,
    # Researcher.Name and Researcher.University: a string table each
    offset, length = io.section_table(data)[io.SEC_NODE_ATTRS]
    payload = data[offset : offset + length - 4]
    r = io._Reader(payload)
    r.texts(absent=True)
    title, rest = payload[: r.pos], payload[r.pos :]
    assert _with_payload(data, io.SEC_NODE_ATTRS, title + rest) == data
    script = tmp_path / "script.tsv"
    script.write_text("GetNodeAttribute\t1\tTitle\n", encoding="utf-8")
    assert main(["query", "--db", str(path), "--script", str(script)]) == 0
    assert capsys.readouterr().out == "Compressing graphs\n"
    cases = {
        "Paper.Topic does not match": rest,  # Title's entry cut out
        "Researcher.Name does not match": title + title + rest,  # Title's entry twice
    }
    for message, attrs in cases.items():
        path.write_bytes(_with_payload(data, io.SEC_NODE_ATTRS, attrs))
        with pytest.raises(CorruptFileError, match=message):
            io.load_db(path)
        for dynamic in ([], ["--dynamic"]):
            assert main(["query", "--db", str(path), "--script", str(script), *dynamic]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and message in err


def test_load_checks_sections_past_their_checksums(tmp_path, store):
    path = tmp_path / "s.db"
    io.save_db(store, path)
    data = path.read_bytes()
    # the id-map section opens with the node table: u32 separator 0, u32
    # absent marker 1, u64 byte size 10, then each id followed by the
    # separator
    offset, _ = io.section_table(data)[io.SEC_ID_MAPS]
    node_ids = b"1\x002\x003\x004\x005\x00"
    assert struct.unpack_from("<2IQ10s", data, offset) == (0, 1, 10, node_ids)
    blob = 4 + 4 + 8
    # the node attributes open with Paper.Title's entry, its string table
    # (separator, marker, u64 byte size 35, blob); one value of 34 bytes
    # fills as many
    attrs, _ = io.section_table(data)[io.SEC_NODE_ATTRS]
    title = struct.pack("<2IQ", 0, 1, 35) + b"Compressing graphs\x00Graph databases\x00"
    assert data[attrs : attrs + len(title)] == title
    one_value = struct.pack("<2IQ", 0, 1, 35) + b"x" * 34 + b"\x00"
    assert len(one_value) == len(title)
    cases = {
        # "4" and "5" joined, four ids for five nodes
        "id maps do not match schema element counts": (io.SEC_ID_MAPS, blob + 7, b"4"),
        "not valid UTF-8": (io.SEC_ID_MAPS, blob, b"\xff"),
        "absent entry": (io.SEC_ID_MAPS, blob, b"\x01"),
        "Paper.Title does not match its label's id range": (io.SEC_NODE_ATTRS, 0, one_value),
        "duplicate external id": (io.SEC_ID_MAPS, blob, b"2"),
    }
    for message, (tag, at, raw) in cases.items():
        path.write_bytes(_patched(data, tag, at, raw))
        with pytest.raises(CorruptFileError, match=message):
            io.load_db(path)
    # a flipped blob byte with the old checksum left in place
    flipped = bytearray(data)
    flipped[offset + blob] ^= 0x80
    path.write_bytes(bytes(flipped))
    with pytest.raises(CorruptFileError, match="checksum"):
        io.load_db(path)


@pytest.mark.parametrize(
    "values, sep, marker",
    [
        ([], 0, 1),
        ([""], 0, 1),
        (["a\x00b", "\x01", "", "\x02c"], 3, 4),  # the terminators move past them
        (["\U0001d11e", "x\U0001f600", "\U0010ffff"], 0, 1),
        ([None, "", None, "a", ""], 0, 1),
    ],
    ids=["empty", "one-empty-string", "low-code-points", "non-bmp", "absent-beside-empty"],
)
def test_string_table_round_trip(values, sep, marker):
    w = io._Writer()
    w.texts(values)
    raw = w.getvalue()
    assert struct.unpack_from("<2I", raw) == (sep, marker)
    r = io._Reader(raw)
    back = r.texts(absent=True)
    r.done()
    assert back == values
    again = io._Writer()
    again.texts(back)
    assert again.getvalue() == raw


@pytest.mark.parametrize(
    "at, raw, message",
    [
        (0, struct.pack("<I", 1), "terminators are not two distinct characters"),
        (4, struct.pack("<I", 0x110000), "terminators are not two distinct characters"),
        (0, struct.pack("<I", 0xD800), "terminators are not two distinct characters"),
        (16 + 9, b"6", "does not end in its separator"),
        (16 + 4, b"\x01", "absent entry in a list that must be complete"),
    ],
    ids=["separator-is-marker", "past-0x10ffff", "surrogate", "no-final-terminator", "marker"],
)
def test_load_checks_the_string_table_terminators(tmp_path, store, capsys, at, raw, message):
    # the node id map: u32 separator 0, u32 absent marker 1, u64 byte size
    # 10, then "1" to "5", each followed by the separator
    path = tmp_path / "m.db"
    io.save_db(store, path)
    data = path.read_bytes()
    offset, _ = io.section_table(data)[io.SEC_ID_MAPS]
    assert data[offset + 16 : offset + 26] == b"1\x002\x003\x004\x005\x00"
    path.write_bytes(_patched(data, io.SEC_ID_MAPS, at, raw))
    script = tmp_path / "script.tsv"
    script.write_text("GetNodeType\t3\n", encoding="utf-8")
    _rejected_everywhere(capsys, path, script, message)


def test_save_rejects_a_relations_value_past_32_bits(tmp_path, store):
    rel = store.relations
    path = tmp_path / "big.db"
    for last, more in (([*rel.last[:5], 2**32], rel.more), (rel.last, [4, 2**32])):
        store.relations = MultiEdgeK2Tree(rel.base, rel.multi, last, more, rel.bounds)
        with pytest.raises(InputError, match="32-bit range"):
            io.save_db(store, path)
    assert not path.exists()


def test_load_rejects_a_dense_column_out_of_order(tmp_path, store):
    path = tmp_path / "d.db"
    io.save_db(store, path)
    data = path.read_bytes()
    # Position's string table: u32 separator 0, u32 absent marker 1, u64
    # blob size 15, blob; swap the two values
    table = struct.pack("<2IQ", 0, 1, 15) + b"Chair\x00Lecturer\x00"
    offset, _ = io.section_table(data)[io.SEC_NODE_ATTRS]
    at = data.index(table, offset) - offset
    swapped = struct.pack("<2IQ", 0, 1, 15) + b"Lecturer\x00Chair\x00"
    path.write_bytes(_patched(data, io.SEC_NODE_ATTRS, at, swapped))
    with pytest.raises(CorruptFileError, match="dense column values"):
        io.load_db(path)


@pytest.mark.parametrize("side, cells", [(0, []), (5, []), (5, [(1, 2), (4, 5)]), (9, [(9, 1)])])
def test_k2_tree_bitmap_sizes_are_checked(side, cells):
    tree = K2Tree.build(side, cells)
    w = io._Writer()
    io._write_k2(w, tree)
    back = io._read_k2(io._Reader(w.getvalue()), side)
    assert (back.n, back.T.to_bits(), back.L.to_bits()) == (
        tree.n, tree.T.to_bits(), tree.L.to_bits()
    )
    # one more bit in T, or one one of T fewer, breaks |T| + |L| = k²(1 + ones(T))
    bits = tree.T.to_bits()
    for t in (bits + [0], [0] * len(bits)):
        if t == bits:
            continue
        w = io._Writer()
        io._write_k2(w, K2Tree(tree.k, side, BitSequence(t), tree.L))
        with pytest.raises(CorruptFileError, match="malformed k2-tree"):
            io._read_k2(io._Reader(w.getvalue()), side)


def _one_level_short(store):
    """The relations tree (side 8: two levels in T, then L) with T cut to its
    first level and L sized so that |T| + |L| = k²(1 + ones(T)) holds."""
    base = store.relations.base
    assert base.T.to_bits() == [1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0]
    base.T = BitSequence([1, 1, 0, 0])
    base.L = BitSequence([1, 1, 1, 0, 1, 1, 1, 0])  # six leaves, as Multi has


def _arity_3(store):
    """The relations tree written with k = 3: its 16 + 12 bits are not the
    9·(1 + 6) a k = 3 tree with six ones in T holds."""
    store.relations.base.k = 3


def _one_past_the_side(store):
    """The relations rebuilt on side 7 with edge 1 at (3, 7), which load
    reads on the side 5 of the five nodes: both pad to 8."""
    store.relations = MultiEdgeK2Tree.build(7, [(1, 3, 7), *RELATION_TRIPLES[1:]])


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_arity_3, "malformed k2-tree payload"),
        (_one_level_short, "k2-tree levels do not match its side"),
        (_one_past_the_side, "k2-tree has a one outside its 5x5 matrix"),
    ],
    ids=["bitmap-sizes", "levels", "padding"],
)
def test_load_checks_the_relations_tree_shape(tmp_path, store, capsys, corrupt, message):
    path = tmp_path / "p.db"
    script = tmp_path / "script.tsv"
    script.write_text("Neighbors\tPaper\t3\nRelated\tAuthor\t3\n", encoding="utf-8")
    io.save_db(store, path)
    assert main(["query", "--db", str(path), "--script", str(script)]) == 0
    assert capsys.readouterr().out == "1\t2\n1\n"
    corrupt(store)
    io.save_db(store, path)  # every checksum holds
    with pytest.raises(CorruptFileError, match=message):
        io.load_db(path)
    for dynamic in ([], ["--dynamic"]):
        assert main(["query", "--db", str(path), "--script", str(script), *dynamic]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_load_checks_the_dense_tree_side(tmp_path, store, capsys):
    # the file holds no dense tree side: load reads a tree exactly when the
    # kind's columns hold a value, on the larger of the element and column
    # counts (here 5 nodes and Position's 2 columns, padded to 8)
    path = tmp_path / "t.db"
    script = tmp_path / "script.tsv"
    script.write_text(
        "GetNodeAttribute\t4\tPosition\nSelectNodes\tResearcher\tPosition\tChair\n",
        encoding="utf-8",
    )
    io.save_db(store, path)
    assert main(["query", "--db", str(path), "--script", str(script)]) == 0
    assert capsys.readouterr().out == "Chair\n4\t5\n"
    m = store.node_dense
    nine = sorted(["Chair", "Lecturer", *"abcdefg"])
    cases = {  # each written by save_db, so every checksum holds
        "k2-tree levels do not match its side": (m.matrix, nine),  # side 9, padded to 16
        "trailing bytes in section": (m.matrix, []),  # a tree, and no column
        "truncated section": (None, m.col_values[0]),  # columns, and no tree
    }
    for message, (matrix, values) in cases.items():
        store.node_dense = DenseAttributeMatrix(matrix, ["Position"], [values])
        io.save_db(store, path)
        _rejected_everywhere(capsys, path, script, message)


# Position's columns are Chair (1) and Lecturer (2). Nodes 3 (Lecturer) and 4
# (Chair) share the first leaf block of the node dense tree's L, rows 3-4 and
# columns 1-2, one bit per cell in row-major order; node 5 (Chair) is in the
# second. A moved one: node 4's Chair cleared and node 3's set. An extra one:
# node 3's Chair set as well.
@pytest.mark.parametrize(
    "leaves", [[1, 1, 0, 0, 1, 0, 0, 0], [1, 1, 1, 0, 1, 0, 0, 0]], ids=["moved", "extra"]
)
def test_a_dense_row_with_two_values_is_rejected_where_read(tmp_path, store, capsys, leaves):
    m = store.node_dense.matrix
    assert m.L.to_bits() == [0, 1, 1, 0, 1, 0, 0, 0]
    m.L = BitSequence(leaves)
    path = tmp_path / "two.db"
    io.save_db(store, path)  # every checksum holds
    message = "element 3 takes two values of one dense attribute"
    with pytest.raises(CorruptFileError, match=message):
        io.load_db(path).get_attribute(NODE, 3, "Position")
    for value in ("Chair", "Lecturer"):
        with pytest.raises(CorruptFileError, match=message):
            io.load_db(path).select(NODE, "Researcher", "Position", value)
    script = tmp_path / "script.tsv"
    reads = [
        "GetNodeAttribute\t3\tPosition",
        "SelectNodes\tResearcher\tPosition\tChair",
        "SelectNodes\tResearcher\tPosition\tLecturer",
    ]
    for read in reads:  # each read of row 3 or of a column listing it
        script.write_text(read + "\n", encoding="utf-8")
        assert main(["query", "--db", str(path), "--script", str(script)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    script.write_text("GetNodeAttribute\t4\tPosition\n" + "\n".join(reads) + "\n", encoding="utf-8")
    for dynamic in ([], ["--dynamic"]):
        assert main(["query", "--db", str(path), "--script", str(script), *dynamic]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_a_dense_row_with_two_values_is_rejected_on_the_band_path(tmp_path):
    """As above, on a dense matrix wide enough that its row reads start at a
    band frontier: one element is given a second column of its value's
    attribute block."""
    data = generate(
        nodes=300, edges=600, node_types=3, edge_types=3, attrs=6, seed=5,
        queries_per_kind=0,
    )
    g = build_graph(data.bundle)
    dense = g.node_dense
    m = dense.matrix
    assert m.n > 2 << BAND_J
    cells = _cells(m)
    firsts = [1] + [last + 1 for last in dense.col_limits]  # each block's first column
    elem, col, a = next(
        (r, c, a)
        for r, c in sorted(cells)
        for a in range(len(dense.atts))
        if firsts[a] <= c < firsts[a + 1] and firsts[a + 1] - firsts[a] > 1
    )
    other = firsts[a] + (col == firsts[a])
    dense.matrix = K2Tree.build(m.n_logical, cells + [(elem, other)], 2)
    path = tmp_path / "two.db"
    io.save_db(g, path)  # every checksum holds
    att = dense.atts[a]
    label = g.get_type(NODE, elem)
    message = f"element {elem} takes two values of one dense attribute"
    with pytest.raises(CorruptFileError, match=message):
        io.load_db(path).get_attribute(NODE, elem, att)
    for c in (col, other):
        value = dense.col_values[a][c - firsts[a]]
        with pytest.raises(CorruptFileError, match=message):
            io.load_db(path).select(NODE, label, att, value)


def test_reads_leave_the_store_file_unchanged(tmp_path):
    """Saving a loaded store after all eight query sets have run writes the
    bytes it was loaded from: what reads derive stays out of the file."""
    data = generate(
        nodes=400, edges=1500, node_types=3, edge_types=4, attrs=6, seed=7,
        queries_per_kind=60,
    )
    path = tmp_path / "g.db"
    io.save_db(build_graph(data.bundle), path)
    g = io.load_db(path)
    runner = queries.StaticRunner(g)
    assert len(data.scripts) == 8
    for ops in data.scripts.values():
        queries.run_script(runner, ops)
    assert g.relations.base._bands is not None
    again = tmp_path / "again.db"
    io.save_db(g, again)
    assert again.read_bytes() == path.read_bytes()


def test_load_checks_the_relations_arrays(tmp_path, store, capsys):
    path = tmp_path / "r.db"
    io.save_db(store, path)
    data = path.read_bytes()
    # the Multi bitmap 000100 (u64 bit count 6, one word), then Last (six u32
    # values, one per leaf) and More (two u32 values, up to the end of the
    # last run): leaf 3 holds edges 4 and 5 from node 4 to 5, so its Last
    # entry is the end of its run in More; the others are single edge ids
    arrays = struct.pack("<QQ6I2I", 6, 0b1000, 1, 6, 7, 2, 2, 3, 4, 5)
    offset, _ = io.section_table(data)[io.SEC_RELATIONS]
    at = data.index(arrays, offset) - offset
    script = tmp_path / "script.tsv"
    script.write_text("Related\tColleague\t4\nRelated\tAuthor\t3\n", encoding="utf-8")
    assert main(["query", "--db", str(path), "--script", str(script)]) == 0
    assert capsys.readouterr().out == "5\n1\n"
    last = 16  # where Last's values start
    more = last + 6 * 4  # where More's values start
    u32 = struct.Struct("<I").pack
    cases = [
        ("Multi bitmap does not match the leaf count", 0, struct.pack("<Q", 5)),
        ("do not tile", last + 3 * 4, u32(0)),  # an empty run
        ("truncated array", last + 3 * 4, u32(99)),  # a run past the end of the section
        ("each edge id 1..7 once", last + 3 * 4, u32(1)),  # More ends early, no edge 5
        ("outside 1..7", last + 0 * 4, u32(0)),  # a single edge id of 0
        ("outside 1..7", last + 0 * 4, u32(99)),  # a single edge id past the edges
        ("outside 1..7", more + 1 * 4, u32(8)),  # an id in More past the edges
        ("each edge id 1..7 once", last + 0 * 4, u32(3)),  # edge 3 twice, edge 1 never
        ("does not ascend", more, struct.pack("<2I", 5, 4)),  # the run of leaf 3 descends
    ]
    for message, field, raw in cases:
        path.write_bytes(_patched(data, io.SEC_RELATIONS, at + field, raw))
        with pytest.raises(CorruptFileError, match=message):
            io.load_db(path)
        for dynamic in ([], ["--dynamic"]):
            assert main(["query", "--db", str(path), "--script", str(script), *dynamic]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and message in err


def _rejected_everywhere(capsys, path, script, message):
    """load_db and `query`, static and --dynamic, reject the store."""
    with pytest.raises(CorruptFileError, match=message):
        io.load_db(path)
    for dynamic in ([], ["--dynamic"]):
        assert main(["query", "--db", str(path), "--script", str(script), *dynamic]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and message in err


def test_load_rejects_an_attribute_of_two_kinds(tmp_path, capsys):
    # build_graph refuses this schema, so the store is put together here:
    # x is dense under node label A and sparse under node label B
    graph = AttK2Graph(
        TypeTable(["A", "B"], [1, 2], [[("x", True)], [("x", False)]]),
        TypeTable([], [], []),
        {("B", "x"): SparseAttribute("B", "x", 2, ["q"])},
        {},
        DenseAttributeMatrix.build(2, [(1, "x", "p")]),
        DenseAttributeMatrix.build(0, []),
        MultiEdgeK2Tree.build(2, []),
        IdMap(["1", "2"]),
        IdMap([]),
    )
    path = tmp_path / "x.db"
    io.save_db(graph, path)
    script = tmp_path / "script.tsv"
    script.write_text("GetNodeAttribute\t1\tx\nGetNodeAttribute\t2\tx\n", encoding="utf-8")
    _rejected_everywhere(
        capsys, path, script, "node label 'B': attribute 'x' is declared both dense and sparse"
    )


def test_load_checks_the_schema_order(tmp_path, store, capsys):
    path = tmp_path / "x.db"
    io.save_db(store, path)
    data = path.read_bytes()
    script = tmp_path / "script.tsv"
    script.write_text("GetNodeTypes\n", encoding="utf-8")
    assert main(["query", "--db", str(path), "--script", str(script)]) == 0
    assert capsys.readouterr().out == "Paper\tResearcher\n"
    # `Paper` renamed `Zaper` in the node schema, the one place a label is
    # written, so the labels no longer ascend; `Topic` renamed `Title`, a
    # second Title of Paper
    cases = {
        "labels do not ascend strictly": (b"Paper", b"Zaper", (io.SEC_NODE_SCHEMA,)),
        "node label 'Paper': duplicate attribute 'Title'": (b"Topic", b"Title", (io.SEC_NODE_SCHEMA,)),
    }
    for message, (old, new, tags) in cases.items():
        bad = data
        for tag in tags:
            offset, length = io.section_table(bad)[tag]
            at = bad.find(old, offset, offset + length)
            assert at >= 0
            while at >= 0:
                bad = _patched(bad, tag, at - offset, new)
                at = bad.find(old, at, offset + length)
        path.write_bytes(bad)
        with pytest.raises(CorruptFileError, match=message):
            io.load_db(path)
        for dynamic in ([], ["--dynamic"]):
            assert main(["query", "--db", str(path), "--script", str(script), *dynamic]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and message in err


def _all_answers(graph) -> list[str]:
    """One answer line per call of each of the twelve operations, over every
    label, element, attribute and stored value of the running example."""
    runner = queries.StaticRunner(graph)
    ops = [["GetNodeTypes"], ["GetEdgeTypes"]]
    for ext, label, attrs in running_bundle().nodes:
        ops += [["ScanNodes", label], ["GetNodeType", ext]]
        for att, value in attrs:
            ops += [["GetNodeAttribute", ext, att], ["SelectNodes", label, att, value]]
        ops += [["Neighbors", lab, ext] for lab in ("Paper", "Researcher")]
        ops += [["Related", lab, ext] for lab in ("Author", "Colleague", "Reviewer")]
    for ext, label, _src, _tgt, attrs in running_bundle().edges:
        ops += [["ScanEdges", label], ["GetEdgeType", ext]]
        for att, value in attrs:
            ops += [["GetEdgeAttribute", ext, att], ["SelectEdges", label, att, value]]
    assert len({op[0] for op in ops}) == 12
    return [queries.format_result(runner.run(op[0], op[1:])) for op in ops]


def test_every_top_bit_flip_is_caught_or_harmless(tmp_path, store):
    path = tmp_path / "f.db"
    io.save_db(store, path)
    data = path.read_bytes()
    want = _all_answers(io.load_db(path))
    for i in range(len(data)):
        flipped = bytearray(data)
        flipped[i] ^= 0x80
        path.write_bytes(bytes(flipped))
        try:
            graph = io.load_db(path)
        except CorruptFileError:
            continue
        assert _all_answers(graph) == want, f"byte {i}"


def test_round_trip_keeps_non_ascii_empty_and_absent_values(tmp_path):
    bundle = running_bundle()
    bundle.nodes[0] = ("1", "Paper", [("Title", "")])  # Topic absent
    bundle.edges[3] = ("4", "Colleague", "4", "5", [("Projects", "")])
    store = build_graph(bundle)
    path = tmp_path / "v.db"
    io.save_db(store, path)
    first = path.read_bytes()
    loaded = io.load_db(path)
    assert loaded.get_attribute(NODE, 1, "Title") == ""
    assert loaded.get_attribute(NODE, 1, "Topic") is None
    assert loaded.get_attribute(NODE, 3, "Name") == "P. García"
    assert loaded.get_attribute(NODE, 4, "University") == "Coruña"
    assert loaded.get_attribute(EDGE, 4, "Projects") == ""
    assert loaded.select(NODE, "Paper", "Title", "") == [1]
    io.save_db(loaded, path)
    assert path.read_bytes() == first


@pytest.mark.parametrize(
    "at, raw, message",
    [
        (0, struct.pack("<I", 1), "terminators are not two distinct characters"),
        (16 + 34, b"s", "does not end in its separator"),
        (16, b"\xff", "not valid UTF-8"),
        (16 + 11, b"\x00", "Paper.Title does not match its label's id range"),
    ],
    ids=["separator-is-marker", "no-final-separator", "invalid-utf8", "one-entry-too-many"],
)
def test_load_checks_each_sparse_table_before_any_read(tmp_path, store, capsys, at, raw, message):
    # the node attributes open with Paper.Title's sparse table: u32 separator
    # 0, u32 absent marker 1, u64 byte size 35, then its two values, each
    # followed by the separator; a table load leaves unsplit is still
    # checked whole, so no query needs to read it
    path = tmp_path / "t.db"
    io.save_db(store, path)
    data = path.read_bytes()
    offset, _ = io.section_table(data)[io.SEC_NODE_ATTRS]
    assert data[offset + 16 : offset + 51] == b"Compressing graphs\x00Graph databases\x00"
    path.write_bytes(_patched(data, io.SEC_NODE_ATTRS, at, raw))
    script = tmp_path / "script.tsv"
    script.write_text("GetNodeType\t3\n", encoding="utf-8")
    _rejected_everywhere(capsys, path, script, message)


def test_load_checks_the_relations_ids_in_one_pass(tmp_path, store, capsys):
    """The edge ids are counted from Multi and More alone, then marked in one
    mask whose bounds find an id of 0 or past the edges, wherever it sits."""
    path = tmp_path / "r.db"
    io.save_db(store, path)
    data = path.read_bytes()
    # Multi 000100, Last (1, 6, 7, 2, 2, 3) and More (4, 5), as in
    # test_load_checks_the_relations_arrays
    arrays = struct.pack("<QQ6I2I", 6, 0b1000, 1, 6, 7, 2, 2, 3, 4, 5)
    rel, _ = io.section_table(data)[io.SEC_RELATIONS]
    last = data.index(arrays, rel) - rel + 16
    more = last + 6 * 4
    # the edge schema's first label and its element count
    schema, _ = io.section_table(data)[io.SEC_EDGE_SCHEMA]
    author = data.index(struct.pack("<Q", 6) + b"Author" + struct.pack("<Q", 3), schema) - schema
    u32 = struct.Struct("<I").pack
    cases = [
        ("outside 1..7", io.SEC_RELATIONS, more, u32(0)),  # an id of 0 in a run of More
        ("outside 1..7", io.SEC_RELATIONS, last + 4, u32(8)),  # a single id one past the edges
        # eight edges in the schema, seven in the relations
        ("each edge id 1..8 once", io.SEC_EDGE_SCHEMA, author + 14, struct.pack("<Q", 4)),
    ]
    script = tmp_path / "script.tsv"
    script.write_text("GetEdgeTypes\n", encoding="utf-8")
    for message, tag, at, raw in cases:
        path.write_bytes(_patched(data, tag, at, raw))
        _rejected_everywhere(capsys, path, script, message)


@pytest.mark.parametrize("source", ["generated", "empty-and-absent"])
def test_a_store_saved_before_any_read_is_unchanged(tmp_path, source):
    """Saving a freshly loaded store, every sparse table still unsplit and no
    index sorted, writes the bytes it was loaded from."""
    if source == "generated":
        bundle = generate(
            nodes=400, edges=1500, node_types=3, edge_types=4, attrs=6, seed=7,
            queries_per_kind=0,
        ).bundle
    else:
        bundle = running_bundle()
        bundle.nodes[0] = ("1", "Paper", [("Title", "")])  # Topic absent
    path = tmp_path / "g.db"
    io.save_db(build_graph(bundle), path)
    g = io.load_db(path)
    sparse = [*g.node_sparse.values(), *g.edge_sparse.values()]
    assert sparse and not any(sa._values.__class__ is list for sa in sparse)
    assert not any(sa._index is not None for sa in sparse)
    again = tmp_path / "again.db"
    io.save_db(g, again)
    assert again.read_bytes() == path.read_bytes()
