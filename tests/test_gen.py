"""Generator determinism and output validity."""

import filecmp

from attk2.gen import XorShift64Star, generate, write_generated
from attk2.graph import build_graph
from attk2.io import load_input
from attk2.queries import parse_script


def reference_xorshift(seed, count):
    # independent transcription of the xorshift64* recurrence
    mask = (1 << 64) - 1
    x = seed & mask or 0x9E3779B97F4A7C15
    out = []
    for _ in range(count):
        x ^= x >> 12
        x = (x ^ (x << 25)) & mask
        x ^= x >> 27
        out.append((x * 2685821657736338717) & mask)
    return out


def test_prng_matches_reference():
    rng = XorShift64Star(1)
    assert [rng.next_u64() for _ in range(5)] == reference_xorshift(1, 5)
    rng = XorShift64Star(0)  # zero seed is remapped, not stuck at zero
    values = [rng.next_u64() for _ in range(4)]
    assert len(set(values)) == 4
    assert values == reference_xorshift(0, 4)


def test_same_seed_is_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        write_generated(
            out,
            generate(nodes=50, edges=140, node_types=3, edge_types=2, attrs=5, seed=99),
        )
    for name in ("schema.tsv", "nodes.tsv", "edges.tsv"):
        assert filecmp.cmp(a / name, b / name, shallow=False)
    for q in sorted((a / "queries").iterdir()):
        assert filecmp.cmp(q, b / "queries" / q.name, shallow=False)


def test_different_seed_differs(tmp_path):
    one = generate(nodes=50, edges=140, node_types=3, edge_types=2, attrs=5, seed=1)
    two = generate(nodes=50, edges=140, node_types=3, edge_types=2, attrs=5, seed=2)
    assert one.bundle.edges != two.bundle.edges


def test_tiny_output_loads_and_builds(tmp_path):
    write_generated(
        tmp_path,
        generate(nodes=5, edges=7, node_types=2, edge_types=2, attrs=3, seed=3),
    )
    bundle = load_input(tmp_path)
    g = build_graph(bundle)
    assert g.node_schema.count == 5
    assert g.edge_schema.count == 7


def test_forced_parallel_edges_by_pigeonhole():
    # more edges than distinct pairs guarantees a multi-edge
    data = generate(nodes=3, edges=20, node_types=1, edge_types=1, attrs=0, seed=4)
    pairs = [(src, tgt) for _, _, src, tgt, _ in data.bundle.edges]
    assert len(pairs) > len(set(pairs))
    g = build_graph(data.bundle)
    assert g.relations.multi.ones >= 1


def test_scripts_cover_all_kinds_and_parse(tmp_path):
    data = generate(nodes=30, edges=60, node_types=2, edge_types=2, attrs=4, seed=6)
    assert len(data.scripts) == 8
    ops = {rows[0][0] for rows in data.scripts.values() if rows}
    assert ops == {
        "GetNodeType",
        "GetEdgeType",
        "GetNodeAttribute",
        "GetEdgeAttribute",
        "SelectNodes",
        "SelectEdges",
        "Neighbors",
        "Related",
    }
    for rows in data.scripts.values():
        assert len(rows) == 1000
    write_generated(tmp_path, data)
    for q in (tmp_path / "queries").iterdir():
        parse_script(q)


def test_queries_per_kind_parameter():
    data = generate(
        nodes=10, edges=10, node_types=1, edge_types=1, attrs=2, seed=8,
        queries_per_kind=25,
    )
    assert all(len(rows) == 25 for rows in data.scripts.values())


def test_every_label_has_an_element():
    data = generate(nodes=12, edges=30, node_types=5, edge_types=4, attrs=4, seed=10)
    node_labels = {lab for _, lab, _ in data.bundle.nodes}
    edge_labels = {lab for _, lab, *_ in data.bundle.edges}
    assert len(node_labels) == 5
    assert len(edge_labels) == 4


def test_dense_pools_respect_sqrt_heuristic():
    data = generate(nodes=400, edges=900, node_types=3, edge_types=3, attrs=8, seed=11)
    bundle = data.bundle
    dense_atts = {
        att
        for _, atts in bundle.node_schema + bundle.edge_schema
        for att, dense in atts
        if dense
    }
    assert dense_atts
    for att in dense_atts:
        node_values = {
            v for _, _, pairs in bundle.nodes for a, v in pairs if a == att
        }
        edge_values = {
            v for _, _, _, _, pairs in bundle.edges for a, v in pairs if a == att
        }
        count = len(bundle.nodes) if node_values else len(bundle.edges)
        distinct = len(node_values | edge_values)
        assert 0 < distinct <= max(4, int(count**0.5))
