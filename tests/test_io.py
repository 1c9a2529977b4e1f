"""Text ingestion, escaping, and binary round trips."""

import random
import struct

import pytest

from attk2 import io
from attk2.errors import CorruptFileError, InputError
from attk2.gen import generate
from attk2.graph import EDGE, NODE, build_graph

from conftest import running_bundle


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


def test_export_rebuilds_the_same_store_file(tmp_path):
    data = generate(
        nodes=300, edges=900, node_types=3, edge_types=4, attrs=6, seed=7,
        queries_per_kind=0,
    )
    g = build_graph(data.bundle)
    original = tmp_path / "original.db"
    io.save_db(g, original)
    bundle = io.export_bundle(g, g.node_ids.external, g.edge_ids.external)
    rebuilt = tmp_path / "rebuilt.db"
    io.save_db(build_graph(bundle, k=g.k), rebuilt)
    assert rebuilt.read_bytes() == original.read_bytes()
