"""Query-script parsing, execution and timing.

A script is tab-separated, one query per line: the operation name followed by
its arguments. Ids in scripts are external ids; runners translate to internal
ids on the way in and back on the way out. Empty and undefined results are
both rendered as "-".
"""

from __future__ import annotations

import gc
import time
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import InputError, NotFoundError
from .graph import EDGE, NODE, UNDEFINED, AttK2Graph, check_bundle
from .io import InputBundle, unescape_field

if TYPE_CHECKING:
    from .dyngraph import DynAttK2Graph


def _selected(to_ext, ids):
    return UNDEFINED if ids is UNDEFINED else list(map(to_ext, ids))


# Operation name -> (arity, call). A call takes the runner and the operation's
# arguments; the runner's four translators (external id -> store id and back)
# are all that differs between the static and the dynamic store.
_OPS = {
    "GetNodeTypes": (0, lambda r, a: r.graph.get_types(NODE)),
    "GetEdgeTypes": (0, lambda r, a: r.graph.get_types(EDGE)),
    "ScanNodes": (1, lambda r, a: list(map(r._node_ext, r.graph.scan(NODE, a[0])))),
    "ScanEdges": (1, lambda r, a: list(map(r._edge_ext, r.graph.scan(EDGE, a[0])))),
    "GetNodeType": (1, lambda r, a: r.graph.get_type(NODE, r._node_int(a[0]))),
    "GetEdgeType": (1, lambda r, a: r.graph.get_type(EDGE, r._edge_int(a[0]))),
    "GetNodeAttribute": (
        2,
        lambda r, a: r.graph.get_attribute(NODE, r._node_int(a[0]), a[1]),
    ),
    "GetEdgeAttribute": (
        2,
        lambda r, a: r.graph.get_attribute(EDGE, r._edge_int(a[0]), a[1]),
    ),
    "SelectNodes": (
        3,
        lambda r, a: _selected(r._node_ext, r.graph.select(NODE, a[0], a[1], a[2])),
    ),
    "SelectEdges": (
        3,
        lambda r, a: _selected(r._edge_ext, r.graph.select(EDGE, a[0], a[1], a[2])),
    ),
    "Neighbors": (
        2,
        lambda r, a: list(map(r._node_ext, r.graph.neighbors(a[0], r._node_int(a[1])))),
    ),
    "Related": (
        2,
        lambda r, a: list(map(r._node_ext, r.graph.related(a[0], r._node_int(a[1])))),
    ),
}


def parse_script(path) -> list[list[str]]:
    """Read a query script, checking operation names and arities."""
    ops = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError:
        raise InputError(f"{path}: query script is not UTF-8 text") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        try:
            fields = [unescape_field(f) for f in line.split("\t")]
        except InputError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
        op = fields[0]
        entry = _OPS.get(op)
        if entry is None:
            raise InputError(f"{path}:{lineno}: unknown operation {op!r}")
        if len(fields) - 1 != entry[0]:
            raise InputError(
                f"{path}:{lineno}: {op} takes {entry[0]} arguments, "
                f"got {len(fields) - 1}"
            )
        ops.append(fields)
    return ops


def _run(self, op, args):
    entry = _OPS.get(op)
    if entry is None:
        raise InputError(f"unknown operation {op!r}")
    return entry[1](self, args)


def _internal(ids: dict):
    """ext -> store id through `ids`, failing like `IdMap.internal`."""

    def internal(ext):
        iid = ids.get(ext)
        if iid is None:
            raise NotFoundError(f"unknown external id {ext!r}")
        return iid

    return internal


class StaticRunner:
    """Executes script operations against a static store, in external ids."""

    def __init__(self, graph: AttK2Graph):
        self.graph = graph
        self._node_int = graph.node_ids.internal
        self._edge_int = graph.edge_ids.internal
        self._node_ext = graph.node_ids.external
        self._edge_ext = graph.edge_ids.external

    run = _run


class DynamicRunner:
    """Same operation surface over a dynamic store plus its external id maps.

    Callers that add elements register their external ids by assigning into
    the four dicts; translation reads them on every call.
    """

    def __init__(self, graph: DynAttK2Graph, node_ids: dict, edge_ids: dict):
        self.graph = graph
        self.node_ids = node_ids  # external -> dynamic id
        self.edge_ids = edge_ids
        self.node_ext = {v: k for k, v in node_ids.items()}
        self.edge_ext = {v: k for k, v in edge_ids.items()}
        self._node_int = _internal(node_ids)
        self._edge_int = _internal(edge_ids)
        self._node_ext = self.node_ext.__getitem__
        self._edge_ext = self.edge_ext.__getitem__

    run = _run


def replay_bundle(
    bundle: InputBundle, k: int = 2, node_order=None, edge_order=None
) -> DynamicRunner:
    """Check a bundle (`graph.check_bundle`) and build a dynamic store of its
    content with `DynAttK2Graph.load`, which lays out each structure in one
    pass and gives what inserting the elements one by one, in id order, does.

    Ids follow the element order. The default order sorts elements by
    (label, external id), which makes the dynamic ids coincide with the
    static store's internal ids; explicit orders give other id assignments.
    """
    from .dyngraph import DynAttK2Graph  # off the import path of static queries

    check_bundle(bundle)
    g = DynAttK2Graph(k=k)
    for label, atts in bundle.node_schema:
        g.add_node_type(label)
        for att, dense in atts:
            g.add_attribute(NODE, label, att, dense)
    for label, atts in bundle.edge_schema:
        g.add_edge_type(label)
        for att, dense in atts:
            g.add_attribute(EDGE, label, att, dense)

    def ordered(records, order):
        if order is None:
            return sorted(records, key=lambda r: (r[1], r[0]))
        return [records[i] for i in order]

    nodes = ordered(bundle.nodes, node_order)
    edges = ordered(bundle.edges, edge_order)
    node_ids = dict(zip([r[0] for r in nodes], range(1, len(nodes) + 1)))
    edge_ids = dict(zip([r[0] for r in edges], range(1, len(edges) + 1)))
    g.load(
        [(label, attrs) for _, label, attrs in nodes],
        [
            (eid, label, node_ids[src], node_ids[tgt], attrs)
            for eid, (_, label, src, tgt, attrs) in zip(edge_ids.values(), edges)
        ],
    )
    return DynamicRunner(g, node_ids, edge_ids)


def format_result(result) -> str:
    """Render a query result as one tab-separated output line."""
    if result is UNDEFINED or result is None:
        return "-"
    if isinstance(result, str):
        return result
    items = list(result)
    if not items:
        return "-"
    return "\t".join(items)


def run_script(runner, ops) -> list[str]:
    return [format_result(runner.run(op[0], op[1:])) for op in ops]


def bench_scripts(runner, scripts: dict[str, list], repeat: int = 1) -> list[dict]:
    """Time every query individually; returns one summary row per script.

    The collector is paused while the clock runs, like timeit does, so the
    numbers reflect query cost rather than allocation debt of the caller.
    """
    rows = []
    for name in sorted(scripts):
        ops = scripts[name]
        samples = []
        run = runner.run
        clock = time.perf_counter_ns
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(repeat):
                for op in ops:
                    args = op[1:]
                    t0 = clock()
                    run(op[0], args)
                    samples.append(clock() - t0)
        finally:
            if was_enabled:
                gc.enable()
        if not samples:
            continue
        samples_us = [s / 1000.0 for s in samples]
        samples_us.sort()
        n = len(samples_us)
        mean_us = sum(samples_us) / n
        half = n // 2
        median_us = samples_us[half] if n % 2 else (samples_us[half - 1] + samples_us[half]) / 2
        rows.append(
            {
                "set": name,
                "queries": n,
                "mean_us": mean_us,
                "median_us": median_us,
                "p99_us": samples_us[min(n - 1, int(n * 0.99))],
                "qps": (1e6 / mean_us) if mean_us else 0.0,
            }
        )
    return rows


def load_scripts(directory) -> dict[str, list]:
    """Parse every *.tsv script in a directory, keyed by file stem."""
    directory = Path(directory)
    scripts = {}
    for path in sorted(directory.glob("*.tsv")):
        scripts[path.stem] = parse_script(path)
    if not scripts:
        raise InputError(f"no query scripts (*.tsv) found in {directory}")
    return scripts
