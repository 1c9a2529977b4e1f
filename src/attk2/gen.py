"""Seeded synthetic graph and query-set generator.

Everything derives from a xorshift64* stream, so a given seed reproduces the
output byte for byte; stdlib random is deliberately avoided to keep fixtures
portable. Alongside the graph bundle the generator emits eight query scripts
of a configurable size, one per query kind: GetNodeType, GetEdgeType,
GetNodeAttribute, GetEdgeAttribute, SelectNodes, SelectEdges, Neighbors and
Related.

Attribute classification follows "dense iff the value pool is at most the
square root of the element count": dense attributes draw from a pool sized
near that square root, sparse attributes get mostly-unique values with
occasional repeats. The output mimics real datasets rather than uniform
noise: edge endpoints are biased towards nearby ids (community structure) and
dense values drift with element order (age/date-like correlation), producing
the clustered adjacency blocks the tree representation is built for.
"""

from __future__ import annotations

from math import isqrt
from pathlib import Path
from typing import NamedTuple

from .errors import InputError
from .io import InputBundle, escape_field, write_bundle

_M64 = (1 << 64) - 1


class XorShift64Star:
    """xorshift64* generator (shifts 12/25/27, multiplier 2685821657736338717).

    The state is the seed forced nonzero; a zero seed is replaced by the
    golden-ratio constant 0x9E3779B97F4A7C15.
    """

    __slots__ = ("_x",)

    def __init__(self, seed: int):
        self._x = (seed & _M64) or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self._x
        x ^= x >> 12
        x = (x ^ (x << 25)) & _M64
        x ^= x >> 27
        self._x = x
        return (x * 0x2545F4914F6CDD1D) & _M64

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n) by modulo reduction."""
        return self.next_u64() % n

    def choice(self, seq):
        return seq[self.next_u64() % len(seq)]

    def chance(self, percent: int) -> bool:
        return self.next_u64() % 100 < percent

    def shuffle(self, xs: list):
        for i in range(len(xs) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            xs[i], xs[j] = xs[j], xs[i]


class GeneratedData(NamedTuple):
    bundle: InputBundle
    scripts: dict[str, list[list[str]]]  # script name -> rows of fields


def generate(
    nodes: int,
    edges: int,
    node_types: int,
    edge_types: int,
    attrs: int,
    seed: int,
    queries_per_kind: int = 1000,
) -> GeneratedData:
    if node_types < 1 or edge_types < 1:
        raise InputError("need at least one node type and one edge type")
    if nodes < node_types:
        raise InputError("need at least one node per node type")
    if edges and nodes < 1:
        raise InputError("edges need nodes")
    rng = XorShift64Star(seed)

    node_labels = [f"Kind{i:02d}" for i in range(1, node_types + 1)]
    edge_labels = [f"Rel{i:02d}" for i in range(1, edge_types + 1)]

    # assign attributes to sides and labels; even ordinals are dense
    node_side: dict[str, list[tuple[str, bool]]] = {lab: [] for lab in node_labels}
    edge_side: dict[str, list[tuple[str, bool]]] = {lab: [] for lab in edge_labels}
    att_pool: dict[str, list[str]] = {}
    for i in range(1, attrs + 1):
        att = f"attr{i:02d}"
        to_nodes = i % 2 == 1
        dense = i % 4 in (3, 0)  # both sides get a sparse/dense mixture
        labels = node_labels if to_nodes else edge_labels
        side = node_side if to_nodes else edge_side
        count = nodes if to_nodes else edges
        chosen = list(labels)
        rng.shuffle(chosen)
        for label in chosen[: 1 + rng.below(min(3, len(labels)))]:
            side[label].append((att, dense))
        if dense:
            pool = max(4, isqrt(max(4, count)))
            att_pool[att] = [f"{att}-v{j:04d}" for j in range(1, pool + 1)]

    node_ext = [f"n{i:06d}" for i in range(1, nodes + 1)]
    edge_ext = [f"e{i:06d}" for i in range(1, edges + 1)]

    occurring: dict[tuple[str, str, str], list[str]] = {}
    unique_counter = 0

    def make_values(kind, label, atts, index, total):
        nonlocal unique_counter
        out = []
        recent = []
        for att, dense in atts:
            if not rng.chance(90):
                continue
            if dense:
                # value index follows element order, like an age or a date
                pool = att_pool[att]
                j = (index * len(pool)) // max(1, total)
                if rng.chance(10):
                    j += rng.below(3) - 1
                value = pool[min(len(pool) - 1, max(0, j))]
            elif recent and rng.chance(10):
                value = rng.choice(recent)
            else:
                unique_counter += 1
                value = f"v{unique_counter:08d}"
            recent.append(value)
            out.append((att, value))
            bucket = occurring.setdefault((kind, label, att), [])
            if len(bucket) < 64:
                bucket.append(value)
        return out

    node_records = []
    for i, ext in enumerate(node_ext):
        label = node_labels[i] if i < node_types else rng.choice(node_labels)
        node_records.append(
            (ext, label, make_values("node", label, node_side[label], i, nodes))
        )
    node_label_of = {ext: lab for ext, lab, _ in node_records}

    # community structure: endpoints are biased towards neighbors in the
    # store's (label, ext id) order, so the adjacency matrix is band-shaped
    # with a small fraction of longer ties
    by_internal = sorted(node_ext, key=lambda e: (node_label_of[e], e))
    spread = max(4, nodes // 2048)

    def near(idx, width):
        j = idx + rng.below(2 * width + 1) - width
        return min(nodes - 1, max(0, j))

    edge_records = []
    prev_pair = None
    for i, ext in enumerate(edge_ext):
        label = edge_labels[i] if i < edge_types else rng.choice(edge_labels)
        if prev_pair is not None and i % 3 == 1:
            src, tgt = prev_pair  # parallel edges: several ties between a pair
        else:
            si = rng.below(nodes)
            src = by_internal[si]
            width = spread if rng.chance(95) else 4 * spread
            tgt = by_internal[near(si, width)]
        prev_pair = (src, tgt)
        edge_records.append(
            (ext, label, src, tgt, make_values("edge", label, edge_side[label], i, edges))
        )

    bundle = InputBundle(
        [(lab, node_side[lab]) for lab in node_labels],
        [(lab, edge_side[lab]) for lab in edge_labels],
        node_records,
        edge_records,
    )

    scripts = _make_scripts(
        rng,
        bundle,
        node_ext,
        edge_ext,
        node_label_of,
        {ext: lab for ext, lab, *_ in edge_records},
        occurring,
        queries_per_kind,
    )
    return GeneratedData(bundle, scripts)


def _make_scripts(
    rng,
    bundle,
    node_ext,
    edge_ext,
    node_label_of,
    edge_label_of,
    occurring,
    count,
):
    node_atts = {lab: [a for a, _ in atts] for lab, atts in bundle.node_schema}
    edge_atts = {lab: [a for a, _ in atts] for lab, atts in bundle.edge_schema}
    all_node_atts = sorted({a for atts in node_atts.values() for a in atts})
    all_edge_atts = sorted({a for atts in edge_atts.values() for a in atts})
    node_labels = sorted(node_atts)
    edge_labels = sorted(edge_atts)

    def pick_att(label, side_atts, universe):
        valid = side_atts.get(label) or []
        if valid and rng.chance(85):
            return rng.choice(valid)
        if universe and rng.chance(80):
            return rng.choice(universe)
        return "no_such_attr"

    def pick_value(kind, label, att):
        bucket = occurring.get((kind, label, att))
        if bucket and rng.chance(75):
            return rng.choice(bucket)
        return f"missing{rng.below(10 ** 6):06d}"

    def get_queries(kind, exts, label_of, side_atts, universe):
        rows = []
        for _ in range(count):
            ext = rng.choice(exts)
            rows.append([f"Get{kind}Attribute", ext, pick_att(label_of[ext], side_atts, universe)])
        return rows

    scripts = {
        "q1_GetNodeType": [["GetNodeType", rng.choice(node_ext)] for _ in range(count)],
        "q2_GetEdgeType": [["GetEdgeType", rng.choice(edge_ext)] for _ in range(count)]
        if edge_ext
        else [],
        "q3_GetNodeAttribute": get_queries(
            "Node", node_ext, node_label_of, node_atts, all_node_atts
        ),
        "q4_GetEdgeAttribute": get_queries(
            "Edge", edge_ext, edge_label_of, edge_atts, all_edge_atts
        )
        if edge_ext
        else [],
    }

    rows = []
    for _ in range(count):
        label = rng.choice(node_labels)
        att = pick_att(label, node_atts, all_node_atts)
        rows.append(["SelectNodes", label, att, pick_value("node", label, att)])
    scripts["q5_SelectNodes"] = rows

    rows = []
    for _ in range(count):
        label = rng.choice(edge_labels)
        att = pick_att(label, edge_atts, all_edge_atts)
        rows.append(["SelectEdges", label, att, pick_value("edge", label, att)])
    scripts["q6_SelectEdges"] = rows

    scripts["q7_Neighbors"] = [
        ["Neighbors", rng.choice(node_labels), rng.choice(node_ext)]
        for _ in range(count)
    ]
    scripts["q8_Related"] = [
        ["Related", rng.choice(edge_labels), rng.choice(node_ext)]
        for _ in range(count)
    ]
    return scripts


def write_generated(directory, data: GeneratedData):
    """Write the bundle plus the query scripts under <dir>/queries/."""
    directory = Path(directory)
    write_bundle(directory, data.bundle)
    qdir = directory / "queries"
    qdir.mkdir(parents=True, exist_ok=True)
    for name, rows in sorted(data.scripts.items()):
        with open(qdir / f"{name}.tsv", "w", encoding="utf-8", newline="\n") as fh:
            for row in rows:
                fh.write("\t".join(escape_field(f) for f in row) + "\n")
