"""The three workloads, their oracle checks and their metrics.

Every workload drives attk2 through its public functions from one
single-threaded client in a closed loop: the next call starts only after the
previous one returned. The garbage collector stays enabled, as a library
user has it. The graph and its eight query sets come from
`attk2.gen.generate` with the graph seed (7 by default, the ROADMAP's fixed
workload); the run's seed drives the benchmark's own choices through
`random.Random`: how queries interleave into rounds, the write stream and
the CLI request scripts.

One *round* is the unit behind `round_p50_ms`: one query of each of the
eight generated kinds (`static_reads`), three reads and one write
(`dynamic_mixed`), or one CLI request running one query of each kind
(`cli_scripts`).

Times are normalised by the host-speed probe of probe.py; the `raw.`
metrics keep the measured values of the gated figures.

In a traced run the untraced half of the window runs to its end before
`spans.Tracer.install` is called; the store is then set up again and the
traced half runs, after which the wrappers are removed.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from attk2 import gen, io, queries
from attk2 import graph as graph_layer
from attk2.graph import EDGE, NODE, UNDEFINED
from attk2.oracle import NaiveStore

import space
from probe import INTERVAL_NS, Probe
from spans import LAYERS, Tracer

NODE_TYPES, EDGE_TYPES, ATTRS = 4, 5, 6
SETUP_REPEATS = 3

#: (nodes, edges) per workload; "toy" is the self-test size.
SIZES = {
    "full": {"static_reads": (40_000, 100_000), "dynamic_mixed": (10_000, 25_000), "cli_scripts": (40_000, 100_000)},
    "toy": {"static_reads": (300, 1_200), "dynamic_mixed": (300, 1_200), "cli_scripts": (300, 1_200)},
}

QUERY_CLASS = {
    "GetNodeType": "point",
    "GetEdgeType": "point",
    "GetNodeAttribute": "point",
    "GetEdgeAttribute": "point",
    "SelectNodes": "select",
    "SelectEdges": "select",
    "Neighbors": "traverse",
    "Related": "traverse",
}
WRITE_KINDS = ("add_edge", "set_attribute", "remove_edge", "add_node")


@dataclass
class Result:
    """Metrics of one workload run: name -> (value, unit), plus counts."""

    workload: str
    info: dict
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def put(self, name: str, value, unit: str):
        self.metrics[name] = (value, unit)


@dataclass
class Context:
    root: Path  # checkout root; attk2 is imported from root/src
    workdir: Path  # scratch files of this run, removed afterwards
    outdir: Path  # span files that outlive the run
    launcher: object  # spawner.Launcher that runs the CLI children
    seed: int  # the benchmark's own choices: query order, writes, requests
    seconds: float
    trace: bool
    scale: str = "full"
    graph_seed: int = 7  # attk2.gen's seed: the graph and its query sets


# -- shared helpers -------------------------------------------------------------


def percentile(sorted_ns, q: float) -> float:
    """Nearest-rank percentile of ascending nanosecond samples, in ns."""
    if not sorted_ns:
        return 0.0
    return float(sorted_ns[max(0, math.ceil(q * len(sorted_ns)) - 1)])


def expected_line(result) -> str:
    """The script output line for an oracle result, written independently of
    `queries.format_result`: '-' for undefined, absent or empty."""
    if result is UNDEFINED or result is None:
        return "-"
    if isinstance(result, str):
        return result
    return "\t".join(result) if result else "-"


class OracleView:
    """`NaiveStore` behind external ids: answers script operations as lines."""

    def __init__(self, store: NaiveStore):
        self.store = store
        self.node_ext = dict(store.node_ext)
        self.edge_ext = dict(store.edge_ext)
        self.node_int = {ext: i for i, ext in self.node_ext.items()}
        self.edge_int = {ext: i for i, ext in self.edge_ext.items()}

    def register(self, kind: str, ext: str, elem_id: int):
        if kind == NODE:
            self.node_ext[elem_id] = ext
            self.node_int[ext] = elem_id
        else:
            self.edge_ext[elem_id] = ext
            self.edge_int[ext] = elem_id

    def line(self, op: str, args) -> str:
        """The expected output line, or "!<exception name>" when the oracle raises."""
        try:
            return expected_line(self._answer(op, args))
        except Exception as exc:
            return "!" + type(exc).__name__

    def _answer(self, op, a):
        s = self.store
        if op == "GetNodeType":
            return s.get_type(NODE, self.node_int[a[0]])
        if op == "GetEdgeType":
            return s.get_type(EDGE, self.edge_int[a[0]])
        if op == "GetNodeAttribute":
            return s.get_attribute(NODE, self.node_int[a[0]], a[1])
        if op == "GetEdgeAttribute":
            return s.get_attribute(EDGE, self.edge_int[a[0]], a[1])
        if op in ("SelectNodes", "SelectEdges"):
            kind, ext = (NODE, self.node_ext) if op == "SelectNodes" else (EDGE, self.edge_ext)
            ids = s.select(kind, a[0], a[1], a[2])
            return ids if ids is UNDEFINED else [ext[i] for i in ids]
        if op == "Neighbors":
            return [self.node_ext[i] for i in s.neighbors(a[0], self.node_int[a[1]])]
        if op == "Related":
            return [self.node_ext[i] for i in s.related(a[0], self.node_int[a[1]])]
        raise ValueError(f"unknown operation {op!r}")


def generate(ctx: Context, workload: str):
    nodes, edges = SIZES[ctx.scale][workload]
    return gen.generate(nodes, edges, NODE_TYPES, EDGE_TYPES, ATTRS, ctx.graph_seed)


def interleaved_queries(scripts, rng: random.Random):
    """All generated queries as a flat list, plus rounds of query indices:
    round j holds one query of every kind, kinds in a seeded order."""
    kinds = sorted(scripts)
    flat = []
    per_kind = []
    for name in kinds:
        base = len(flat)
        flat.extend((row[0], row[1:]) for row in scripts[name])
        idx = list(range(base, len(flat)))
        rng.shuffle(idx)
        per_kind.append(idx)
    rounds = []
    for j in range(min(len(ix) for ix in per_kind)):
        rnd = [ix[j] for ix in per_kind]
        rng.shuffle(rnd)
        rounds.append(rnd)
    return flat, rounds


def setup_repeats(ctx: Context) -> int:
    """A traced run reports no setup_s, so it sets up only once."""
    return 1 if ctx.trace else SETUP_REPEATS


def timed_median(res: Result, fn, repeats: int):
    """Run fn() `repeats` times; puts the median seconds as setup_s and
    returns the last fn() value. Each call is normalised by probes taken
    right before and after it."""
    times = []
    norm = []
    value = None
    for _ in range(repeats):
        value = None
        gc.collect()
        probe = Probe()
        probe.sample(5)
        t0 = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - t0)
        probe.sample(5)
        norm.append(times[-1] * probe.factor())
    res.put("setup_s", statistics.median(norm), "s")
    res.put("raw.setup_s", statistics.median(times), "s")
    return value


def class_metrics(res: Result, lat: dict, classes):
    """p50 and p99 of normalised nanosecond samples per class, in µs."""
    for cls in classes:
        samples = sorted(lat[cls])
        res.put(f"{cls}_p50_us", percentile(samples, 0.50) / 1e3, "us")
        res.put(f"{cls}_p99_us", percentile(samples, 0.99) / 1e3, "us")


def put_space(res: Result, layers: dict, nominal: dict, sections: dict | None, edges: int):
    res.put("resident_mb", sum(layers.values()) / 1e6, "MB")
    for layer in ("schema", "attrstore", "k2", "multiedge"):
        res.put(f"{layer}.resident_bytes", layers[layer], "bytes")
    res.put("graph.idmap_resident_bytes", layers["graph.idmap"], "bytes")
    for name, value in nominal.items():
        res.put(name, value, "bits" if name.endswith("_bits") else "count")
    sections = sections or {}
    for name in space.SECTION_NAMES.values():
        res.put(f"io.section_bytes.{name}", sections.get(name, 0), "bytes")
    res.put("attrstore.serialized_bytes", sections.get("node_attrs", 0) + sections.get("edge_attrs", 0), "bytes")
    rel_bits = sections.get("relations", 0) * 8 / edges if edges else 0.0
    res.put("multiedge.serialized_bits_per_edge", rel_bits, "bits/edge")


def put_layers(res: Result, tracer: Tracer, ops: int):
    """Per-layer figures of the traced window, normalised per operation."""
    stats = tracer.window_stats()
    ops = max(ops, 1)
    for layer in LAYERS:
        res.put(f"{layer}.calls_per_op", stats["calls"][layer] / ops, "calls/op")
        res.put(f"{layer}.self_us_per_op", stats["self_ns"][layer] / 1e3 / ops, "us/op")
    res.put("graph.idmap_calls_per_op", stats["idmap_calls"] / ops, "calls/op")
    res.put("k2.leaves_per_call", stats["k2_leaves_per_call"], "leaves/call")
    res.put("multiedge.targets_per_leaf", stats["targets_per_leaf"], "ratio")
    res.put("dyngraph.label_keep_ratio", stats["label_keep_ratio"], "ratio")

    def first(name):
        spans = tracer.top_level_seconds(name)
        return spans[0] if spans else 0.0

    res.put("graph.build_s", first("graph.build_graph"), "s")
    res.put("io.save_s", first("io.save_db"), "s")
    res.put("io.load_s", first("io.load_db"), "s")
    for name in ("cli.import_ms", "cli.load_ms", "cli.query_ms"):
        res.put(name, 0.0, "ms")  # no CLI child outside cli_scripts


def round_figures(ok_ops: int, r_ns, norm_ns, good, probe: Probe) -> dict:
    """Throughput and round latency of a window, normalised and raw.

    r_ns and norm_ns are the rounds' measured and normalised durations;
    `good` flags rounds whose operations all answered correctly, the only
    ones timed. Rounds fill the window but for the probes, so their summed
    time is its length.
    """
    good_raw = sorted(ns for ns, g in zip(r_ns, good) if g)
    good_norm = sorted(ns for ns, g in zip(norm_ns, good) if g)
    return {
        "ops_per_s": ok_ops / (sum(norm_ns) / 1e9),
        "round_p50_ms": percentile(good_norm, 0.5) / 1e6,
        "round_p99_ms": percentile(good_norm, 0.99) / 1e6,
        "raw_ops_per_s": ok_ops / (sum(r_ns) / 1e9),
        "raw_round_p50_ms": percentile(good_raw, 0.5) / 1e6,
        "probe_ms": probe.mean_ms(),
    }


def put_main(res: Result, main: dict):
    """The window figures every workload reports, normalised and raw."""
    res.put("ops_per_s", main["ops_per_s"], "ops/s")
    res.put("round_p50_ms", main["round_p50_ms"], "ms")
    res.put("raw.ops_per_s", main["raw_ops_per_s"], "ops/s")
    res.put("raw.round_p50_ms", main["raw_round_p50_ms"], "ms")
    res.put("probe_ms", main["probe_ms"], "ms")


def put_overhead(res: Result, untraced: dict, traced: dict):
    """Tracing overhead: how much slower the traced half ran than the untraced one."""
    res.put("trace.slowdown", untraced["ops_per_s"] / traced["ops_per_s"] if traced["ops_per_s"] else 0.0, "ratio")
    res.put("trace.p50_ratio", traced["round_p50_ms"] / untraced["round_p50_ms"] if untraced["round_p50_ms"] else 0.0, "ratio")
    res.notes.append(
        f"tracing overhead: ops_per_s {untraced['ops_per_s']:.1f} untraced -> {traced['ops_per_s']:.1f} traced; "
        f"round_p50_ms {untraced['round_p50_ms']:.4f} -> {traced['round_p50_ms']:.4f}"
    )


def report_mismatches(res: Result, mismatches: list):
    for text in mismatches[:5]:
        res.notes.append(f"mismatch: {text}")
    if len(mismatches) > 5:
        res.notes.append(f"... {len(mismatches) - 5} more mismatches")


# -- static_reads -----------------------------------------------------------------


def _read_window(run, flat, rounds, answers, seconds, tracer=None):
    """Closed-loop rounds of reads until `seconds` have passed, with a probe
    every INTERVAL_NS between rounds.

    Returns per-sample (query index, ns) arrays, per-round (round index,
    ns) arrays, the number of times each query ran and the number of its
    answers that differ from `answers`, the number of operations and the
    probe.
    """
    fmt = queries.format_result
    clock = time.perf_counter_ns
    s_q, s_ns = array("l"), array("q")
    r_ix, r_ns = array("l"), array("q")
    runs = [0] * len(flat)
    differ = [0] * len(flat)
    n = 0
    probe = Probe()
    gc.collect()
    probe.sample()
    deadline = clock() + int(seconds * 1e9)
    next_probe = clock() + INTERVAL_NS
    done = False
    while not done:
        for j, rnd in enumerate(rounds):
            r0 = clock()
            for q in rnd:
                op, args = flat[q]
                if tracer is not None:
                    tracer.op_id = n
                n += 1
                t0 = clock()
                try:
                    ans = fmt(run(op, args))
                except Exception as exc:  # recorded as the answer and checked
                    ans = "!" + type(exc).__name__
                t1 = clock()
                s_q.append(q)
                s_ns.append(t1 - t0)
                runs[q] += 1
                if ans != answers[q]:
                    differ[q] += 1
            r1 = clock()
            r_ix.append(j)
            r_ns.append(r1 - r0)
            if r1 >= deadline:
                done = True
                break
            if r1 >= next_probe:
                probe.sample()
                next_probe = clock() + INTERVAL_NS
    if tracer is not None:
        tracer.op_id = -1
    return {"samples": (s_q, s_ns), "rounds": (r_ix, r_ns), "runs": runs, "differ": differ, "ops": n, "probe": probe}


def _score_reads(res: Result, win: dict, flat, rounds, wrong: set) -> dict:
    """Turn a read window into counts and normalised latency figures,
    leaving out every sample of a query whose answer was wrong."""
    s_q, s_ns = win["samples"]
    runs, differ = win["runs"], win["differ"]
    failed = sum(runs[q] if q in wrong else differ[q] for q in range(len(runs)))
    bad = wrong | {q for q, d in enumerate(differ) if d}
    f = win["probe"].factor()
    lat = {c: [] for c in ("point", "select", "traverse")}
    kinds = {op: [] for op in QUERY_CLASS}
    for q, ns in zip(s_q, s_ns):
        if q not in bad:
            op = flat[q][0]
            lat[QUERY_CLASS[op]].append(ns * f)
            kinds[op].append(ns * f)
    r_ix, r_ns = win["rounds"]
    good = [not bad.intersection(rounds[j]) for j in r_ix]
    ok = win["ops"] - failed
    res.attempted += win["ops"]
    res.failed += failed
    norm = [ns * f for ns in r_ns]
    return {"lat": lat, "kinds": kinds, **round_figures(ok, r_ns, norm, good, win["probe"])}


def static_reads(ctx: Context) -> Result:
    data = generate(ctx, "static_reads")
    nodes, edges = SIZES[ctx.scale]["static_reads"]
    res = Result("static_reads", {"nodes": nodes, "edges": edges})
    rng = random.Random(ctx.seed)
    flat, rounds = interleaved_queries(data.scripts, rng)
    db = ctx.workdir / "static.db"

    def setup():
        graph = graph_layer.build_graph(data.bundle)
        io.save_db(graph, db)
        return io.load_db(db)

    graph = timed_median(res, setup, setup_repeats(ctx))
    runner = queries.StaticRunner(graph)
    answers = []
    for op, args in flat:  # warm-up pass; its answers are the ones checked
        try:
            answers.append(queries.format_result(runner.run(op, args)))
        except Exception as exc:
            answers.append("!" + type(exc).__name__)

    seconds = ctx.seconds / (2 if ctx.trace else 1)
    wins = [_read_window(runner.run, flat, rounds, answers, seconds)]
    if ctx.trace:
        tracer = Tracer()
        tracer.install()  # only after the untraced half has ended
        try:
            traced = queries.StaticRunner(setup())
            wins.append(_read_window(traced.run, flat, rounds, answers, seconds, tracer=tracer))
        finally:
            tracer.uninstall()

    oracle = OracleView(NaiveStore.from_bundle(data.bundle))
    expected = [oracle.line(op, args) for op, args in flat]
    wrong = set()
    mismatches = []
    for q, (op, args) in enumerate(flat):
        want = expected[q]
        if answers[q] != want:
            wrong.add(q)
            mismatches.append(f"{op} {args}: expected {want!r}, got {answers[q]!r}")
    report_mismatches(res, mismatches)
    scored = [_score_reads(res, win, flat, rounds, wrong) for win in wins]

    main = scored[0]
    put_main(res, main)
    res.put("round_p99_ms", main["round_p99_ms"], "ms")
    class_metrics(res, main["lat"], ("point", "select", "traverse"))
    for op, samples in main["kinds"].items():
        samples.sort()
        res.put(f"{op}.p50_us", percentile(samples, 0.5) / 1e3, "us")
        res.put(f"{op}.qps", len(samples) / (sum(samples) / 1e9) if samples else 0.0, "1/s")
    sections = space.section_bytes(db)
    res.put("store_bits_per_edge", db.stat().st_size * 8 / edges, "bits/edge")
    layers = space.resident_bytes(space.static_layers(graph))
    put_space(res, layers, space.nominal_bits(graph.relations), sections, edges)
    res.put("memory_mb", res.metrics["resident_mb"][0], "MB")
    # the README's two performance claims, reported without gating on them
    slowest = min(QUERY_CLASS, key=lambda op: res.metrics[f"{op}.qps"][0])
    qps = res.metrics[f"{slowest}.qps"][0]
    res.notes.append(
        f"README claim 'every static query kind at >= 10^4 qps': slowest is {slowest} "
        f"at {qps:.0f} qps (normalised) -> {'holds' if qps >= 1e4 else 'does not hold'}"
    )
    bits = res.metrics["multiedge.serialized_bits_per_edge"][0]
    res.notes.append(
        f"README claim 'relations under 90 bits/edge': {bits:.1f} bits/edge "
        f"-> {'holds' if bits < 90 else 'does not hold'}"
    )
    if ctx.trace:
        put_layers(res, tracer, wins[1]["ops"])
        put_overhead(res, main, scored[1])
        tracer.dump(ctx.outdir / f"spans-static_reads-seed{ctx.seed}")
    return res


# -- dynamic_mixed ------------------------------------------------------------------


class Writer:
    """Seeded write generator over the replayed store's current content.

    New edges run parallel to an existing pair half of the time; otherwise
    they join near pairs in (label, external id) order, as `gen` places
    them. Values are drawn from those the bundle already uses, so selects
    can find written elements.
    """

    def __init__(self, bundle, runner, rng: random.Random):
        self.rng = rng
        self.g = runner.graph
        self.node_schema = {label: [a for a, _ in atts] for label, atts in bundle.node_schema}
        self.edge_schema = {label: [a for a, _ in atts] for label, atts in bundle.edge_schema}
        self.node_labels = sorted(self.node_schema)
        self.edge_labels = sorted(self.edge_schema)
        values = {}
        for _ext, _label, attrs in bundle.nodes:
            for att, value in attrs:
                values.setdefault((NODE, att), set()).add(value)
        for *_rest, attrs in bundle.edges:
            for att, value in attrs:
                values.setdefault((EDGE, att), set()).add(value)
        self.values = {key: sorted(vals) for key, vals in values.items()}
        # replay ids are positions in (label, external id) order
        nodes = sorted(bundle.nodes, key=lambda r: (r[1].encode(), r[0].encode()))
        edges = sorted(bundle.edges, key=lambda r: (r[1].encode(), r[0].encode()))
        self.n_base = len(nodes)
        self.spread = max(4, len(nodes) // 2048)
        self.node_label = [None] + [r[1] for r in nodes]
        node_id = {r[0]: i + 1 for i, r in enumerate(nodes)}
        self.edge_label = {i + 1: r[1] for i, r in enumerate(edges)}
        self.ends = {i + 1: (node_id[r[2]], node_id[r[3]]) for i, r in enumerate(edges)}
        self.live = list(self.ends)
        self.live_pos = {e: i for i, e in enumerate(self.live)}
        self.attr_nodes = [i for i in range(1, len(nodes) + 1) if self.node_schema[self.node_label[i]]]
        self.fresh = 0

    def _attrs(self, kind, atts):
        out = []
        for att in atts:
            if self.rng.random() < 0.9:
                out.append((att, self._value(kind, att)))
        return out

    def _value(self, kind, att):
        pool = self.values.get((kind, att))
        if pool:
            return self.rng.choice(pool)
        self.fresh += 1
        return f"w{self.fresh:08d}"

    def next(self, kind: str):
        """A write as (name, args); choosing it does not touch the store."""
        rng = self.rng
        if kind == "remove_edge" and self.live:
            return "remove_edge", (self.live[rng.randrange(len(self.live))],)
        if kind == "set_attribute":
            for _ in range(32):
                if rng.random() < 0.5 and self.live:
                    eid = self.live[rng.randrange(len(self.live))]
                    atts = self.edge_schema[self.edge_label[eid]]
                    if atts:
                        att = rng.choice(atts)
                        return "set_attribute", (EDGE, eid, att, self._value(EDGE, att))
                elif self.attr_nodes:
                    nid = rng.choice(self.attr_nodes)
                    att = rng.choice(self.node_schema[self.node_label[nid]])
                    return "set_attribute", (NODE, nid, att, self._value(NODE, att))
        if kind == "add_node":
            label = rng.choice(self.node_labels)
            return "add_node", (label, self._attrs(NODE, self.node_schema[label]))
        label = rng.choice(self.edge_labels)
        if self.live and rng.random() < 0.5:
            u, v = self.ends[self.live[rng.randrange(len(self.live))]]
        else:
            si = rng.randrange(self.n_base)
            width = self.spread if rng.random() < 0.95 else 4 * self.spread
            ti = min(self.n_base - 1, max(0, si + rng.randrange(2 * width + 1) - width))
            u, v = si + 1, ti + 1
        return "add_edge", (label, u, v, self._attrs(EDGE, self.edge_schema[label]))

    def applied(self, name: str, args, result):
        """Track the store's content after a write succeeded."""
        if name == "remove_edge":
            eid = args[0]
            i = self.live_pos.pop(eid)
            last = self.live.pop()
            if last != eid:
                self.live[i] = last
                self.live_pos[last] = i
        elif name == "add_edge":
            self.edge_label[result] = args[0]
            self.ends[result] = (args[1], args[2])
            self.live_pos[result] = len(self.live)
            self.live.append(result)
        elif name == "add_node":
            self.node_label.append(args[0])
            if self.node_schema[args[0]]:
                self.attr_nodes.append(result)


def _mixed_window(runner, writer, flat, reads, seconds, tracer=None):
    """Closed-loop rounds of three reads and one write until `seconds` have
    passed, with a probe every INTERVAL_NS between rounds. Returns the
    operation log (kind, payload, answer, class, ns), per-round (first op,
    ns) arrays and the probe."""
    fmt = queries.format_result
    clock = time.perf_counter_ns
    run = runner.run
    g = runner.graph
    calls = {name: getattr(g, name) for name in WRITE_KINDS}
    log = []
    rounds = array("q")
    round_first = array("l")
    n_new = [0, 0]
    k = 0
    w = 0
    probe = Probe()
    gc.collect()
    probe.sample()
    deadline = clock() + int(seconds * 1e9)
    next_probe = clock() + INTERVAL_NS
    while True:
        round_first.append(len(log))
        r0 = clock()
        for _ in range(3):
            q = reads[k % len(reads)]
            k += 1
            op, args = flat[q]
            if tracer is not None:
                tracer.op_id = len(log)
            t0 = clock()
            try:
                ans = fmt(run(op, args))
            except Exception as exc:  # recorded as the answer and checked
                ans = "!" + type(exc).__name__
            t1 = clock()
            log.append(("read", q, ans, QUERY_CLASS[op], t1 - t0))
        name, wargs = writer.next(WRITE_KINDS[w % len(WRITE_KINDS)])
        w += 1
        if tracer is not None:
            tracer.op_id = len(log)
        t0 = clock()
        try:
            result = calls[name](*wargs)
        except Exception as exc:  # recorded as the outcome and checked
            result = "!" + type(exc).__name__
        t1 = clock()
        ext = None
        if not isinstance(result, str):
            writer.applied(name, wargs, result)
            if name in ("add_node", "add_edge"):
                # give the new element an external id, as a user of the
                # runner would, so answers that contain it can be printed
                is_node = name == "add_node"
                n_new[not is_node] += 1
                ext = f"{'x' if is_node else 'y'}{n_new[not is_node]:07d}"
                ids, back = (runner.node_ids, runner.node_ext) if is_node else (runner.edge_ids, runner.edge_ext)
                ids[ext] = result
                back[result] = ext
        log.append(("write", (name, wargs, ext), result, "write", t1 - t0))
        r1 = clock()
        rounds.append(r1 - r0)
        if r1 >= deadline:
            break
        if r1 >= next_probe:
            probe.sample()
            next_probe = clock() + INTERVAL_NS
    if tracer is not None:
        tracer.op_id = -1
    return {"log": log, "rounds": (round_first, rounds), "probe": probe}


def _check_mixed(bundle, flat, log) -> tuple[list[bool], list[str]]:
    """Replay the log into a fresh NaiveStore; ok[i] tells whether operation i
    gave the oracle's answer (a NotFoundError the oracle also raises counts
    as correct)."""
    oracle = OracleView(NaiveStore.from_bundle(bundle))
    s = oracle.store
    ok = []
    mismatches = []
    for kind, payload, got, *_timing in log:
        if kind == "read":
            op, args = flat[payload]
            want = oracle.line(op, args)
            desc = f"{op} {args}"
        else:
            name, wargs, ext = payload
            desc = f"{name} {wargs}"
            try:
                want = getattr(s, name)(*wargs)
            except Exception as exc:
                want = "!" + type(exc).__name__
            if ext is not None and not isinstance(want, str):
                oracle.register(NODE if name == "add_node" else EDGE, ext, want)
        ok.append(got == want)
        if got != want:
            mismatches.append(f"{desc}: expected {want!r}, got {got!r}")
    return ok, mismatches


def _score_mixed(res: Result, win: dict, ok: list) -> dict:
    log = win["log"]
    f = win["probe"].factor()
    lat = {"point": [], "select": [], "traverse": [], "write": []}
    for (_kind, _payload, _got, cls, ns), good in zip(log, ok):
        if good:
            lat[cls].append(ns * f)
    first, r_ns = win["rounds"]
    bounds = list(first) + [len(log)]
    good = [all(ok[bounds[i] : bounds[i + 1]]) for i in range(len(r_ns))]
    n_ok = sum(ok)
    res.attempted += len(log)
    res.failed += len(log) - n_ok
    norm = [ns * f for ns in r_ns]
    return {"lat": lat, **round_figures(n_ok, r_ns, norm, good, win["probe"])}


def dynamic_mixed(ctx: Context) -> Result:
    data = generate(ctx, "dynamic_mixed")
    nodes, edges = SIZES[ctx.scale]["dynamic_mixed"]
    res = Result("dynamic_mixed", {"nodes": nodes, "edges": edges})
    rng = random.Random(ctx.seed)
    flat, rounds = interleaved_queries(data.scripts, rng)
    reads = [q for rnd in rounds for q in rnd]

    runner = timed_median(res, lambda: queries.replay_bundle(data.bundle), setup_repeats(ctx))
    layers = space.resident_bytes(space.dynamic_layers(runner))
    nominal = space.nominal_bits(runner.graph.relations)
    seconds = ctx.seconds / (2 if ctx.trace else 1)

    def window(r, tracer=None):
        writer = Writer(data.bundle, r, random.Random(ctx.seed + 1))
        return _mixed_window(r, writer, flat, reads, seconds, tracer=tracer)

    wins = [window(runner)]
    if ctx.trace:
        tracer = Tracer()
        tracer.install()  # only after the untraced half has ended
        try:
            wins.append(window(queries.replay_bundle(data.bundle), tracer))
        finally:
            tracer.uninstall()
    scored = []
    for win in wins:
        ok, mismatches = _check_mixed(data.bundle, flat, win["log"])
        report_mismatches(res, mismatches)
        scored.append(_score_mixed(res, win, ok))

    main = scored[0]
    put_main(res, main)
    res.put("round_p99_ms", main["round_p99_ms"], "ms")
    class_metrics(res, main["lat"], ("point", "select", "traverse", "write"))
    put_space(res, layers, nominal, None, edges)
    res.put("memory_mb", res.metrics["resident_mb"][0], "MB")
    if ctx.trace:
        put_layers(res, tracer, len(wins[1]["log"]))
        res.put("queries.replay_s", tracer.top_level_seconds("queries.replay_bundle")[0], "s")
        put_overhead(res, main, scored[1])
        tracer.dump(ctx.outdir / f"spans-dynamic_mixed-seed{ctx.seed}")
    return res


# -- cli_scripts ------------------------------------------------------------------------


def _request_window(ctx, make_argv, scripts, seconds, tracer=None):
    """Closed-loop CLI requests until `seconds` have passed (at least one).
    Three probes run before the first request and after each request, while
    no child runs, so request i lies between probes 3i and 3i + 6. Returns
    the requests and the probe."""
    out = []
    errfile = ctx.workdir / "stderr.txt"
    probe = Probe()
    probe.sample(3)
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    i = 0
    while True:
        path, rows = scripts(i)
        argv, spans_path = make_argv(path, i)
        reply = ctx.launcher.run(argv, errfile)
        err = errfile.read_text(errors="replace")[-400:] if reply["code"] else ""
        out.append((rows, reply["code"], reply["stdout"], reply["ns"], reply["maxrss_kb"] * 1024, err))
        if tracer is not None and reply["code"] == 0:
            child = Tracer.load(spans_path)
            tracer.absorb(child, i)
            tracer.extra.setdefault("import_ns", []).append(child.extra["import_ns"])
        probe.sample(3)
        i += 1
        if time.perf_counter_ns() >= deadline:
            break
    return out, probe


def cli_scripts(ctx: Context) -> Result:
    data = generate(ctx, "cli_scripts")
    nodes, edges = SIZES[ctx.scale]["cli_scripts"]
    res = Result("cli_scripts", {"nodes": nodes, "edges": edges})
    rng = random.Random(ctx.seed)
    kinds = sorted(data.scripts)
    db = ctx.workdir / "cli.db"

    def setup():
        io.save_db(graph_layer.build_graph(data.bundle), db)

    timed_median(res, setup, setup_repeats(ctx))
    graph = io.load_db(db)
    runner = queries.StaticRunner(graph)
    oracle = OracleView(NaiveStore.from_bundle(data.bundle))

    picks = []

    def script(i):
        while len(picks) <= i:
            picks.append([rng.choice(data.scripts[k]) for k in kinds])
        rows = picks[i]
        path = ctx.workdir / "request.tsv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for row in rows:
                fh.write("\t".join(io.escape_field(f) for f in row) + "\n")
        return path, rows

    def plain(path, _i):
        return [sys.executable, "-m", "attk2.cli", "query", "--db", str(db), "--script", str(path)], None

    def traced(path, i):
        spans_path = ctx.workdir / f"child{i}"
        boot = str(Path(__file__).resolve().parent / "cli_boot.py")
        return [sys.executable, boot, str(spans_path), "query", "--db", str(db), "--script", str(path)], spans_path

    warm = _request_window(ctx, plain, script, 0)  # fills __pycache__
    seconds = ctx.seconds / (2 if ctx.trace else 1)
    wins = [_request_window(ctx, plain, script, seconds)]
    if ctx.trace:
        tracer = Tracer()
        tracer.install()  # only after the untraced half has ended
        try:
            setup()
            wins.append(_request_window(ctx, traced, script, seconds, tracer=tracer))
        finally:
            tracer.uninstall()

    def check(win):
        win, probe = win
        rss = []
        failed = 0
        mismatches = []
        r_ns, good = [], []
        for rows, code, stdout, ns, peak, err in win:
            want = [oracle.line(row[0], row[1:]) for row in rows]
            mine = [queries.format_result(runner.run(row[0], row[1:])) for row in rows]
            got = stdout.splitlines()
            r_ns.append(ns)
            good.append(code == 0 and got == want and mine == want)
            if not good[-1]:
                failed += 1
                mismatches.append(f"request {[r[0] for r in rows]}: exit {code}, {err.strip()!r}" if code else
                                  f"request {rows}: expected {want!r}, child {got!r}, in-process {mine!r}")
            else:
                rss.append(peak)
        report_mismatches(res, mismatches)
        n = len(win)
        res.attempted += n
        res.failed += failed
        # each request is normalised by the probes just before and after it
        norm = [ns * probe.factor(3 * i, 3 * i + 6) for i, ns in enumerate(r_ns)]
        ok_ns = sorted(ns for ns, g in zip(norm, good) if g)
        return {
            **round_figures(n - failed, r_ns, norm, good, probe),
            "p90_ms": percentile(ok_ns, 0.9) / 1e6,
            "requests": n - failed,
            "rss": statistics.median(rss) if rss else 0,
        }

    check(warm)
    scored = [check(win) for win in wins]
    main = scored[0]
    put_main(res, main)  # one op is one request
    res.put("request_p50_ms", main["round_p50_ms"], "ms")
    if main["requests"] >= 100:
        res.put("request_p90_ms", main["p90_ms"], "ms")
    else:
        res.notes.append(
            f"request_p90_ms not reported: {main['requests']} requests, p90 needs 100"
        )
    res.put("requests", main["requests"], "count")
    res.put("request_peak_rss_mb", main["rss"] / 1e6, "MB")
    res.put("memory_mb", main["rss"] / 1e6, "MB")
    layers = space.resident_bytes(space.static_layers(graph))
    put_space(res, layers, space.nominal_bits(graph.relations), space.section_bytes(db), edges)
    if ctx.trace:
        n_traced = scored[1]["requests"]
        put_layers(res, tracer, len(wins[1][0]))
        loads = sorted(
            (tracer.end[i] - tracer.start[i]) / 1e6
            for i in range(len(tracer.start))
            if tracer.op[i] >= 0 and tracer.names[tracer.name_ix[i]] == "io.load_db"
        )
        query = sorted(
            (tracer.end[i] - tracer.start[i]) / 1e6
            for i in range(len(tracer.start))
            if tracer.op[i] >= 0 and tracer.names[tracer.name_ix[i]] == "queries.run_script"
        )
        imports = sorted(ns / 1e6 for ns in tracer.extra.get("import_ns", ()))
        res.put("cli.import_ms", statistics.median(imports) if imports else 0.0, "ms")
        res.put("cli.load_ms", statistics.median(loads) if loads else 0.0, "ms")
        res.put("cli.query_ms", statistics.median(query) if query else 0.0, "ms")
        res.put("io.load_s", statistics.median(loads) / 1e3 if loads else 0.0, "s")
        put_overhead(res, main, scored[1])
        res.notes.append(f"traced requests: {n_traced}")
        tracer.dump(ctx.outdir / f"spans-cli_scripts-seed{ctx.seed}")
    return res


WORKLOADS = {
    "static_reads": static_reads,
    "dynamic_mixed": dynamic_mixed,
    "cli_scripts": cli_scripts,
}
