"""Command-line front end: build, query, gen, bench and stats subcommands.

Exit codes: 0 success, 1 input error, 2 internal error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__, io, queries
from .errors import CorruptFileError, InputError, NotFoundError
from .graph import _assemble


def _print_sizes(path) -> int:
    """Print the byte sizes of a store file's layers, read from its section
    table; returns the relations section's size."""
    buf = Path(path).read_bytes()
    sizes = {tag: length for tag, (_, length) in io.section_table(buf).items()}
    rels = sizes[io.SEC_RELATIONS]
    print(f"schema_bytes\t{sizes[io.SEC_NODE_SCHEMA] + sizes[io.SEC_EDGE_SCHEMA]}")
    print(f"data_bytes\t{sizes[io.SEC_NODE_ATTRS] + sizes[io.SEC_EDGE_ATTRS]}")
    print(f"relations_bytes\t{rels}")
    print(f"total_bytes\t{len(buf)}")
    return rels


def cmd_build(args) -> int:
    bundle = io.load_input(args.input)  # checks the bundle
    graph = _assemble(bundle, args.k)
    out = Path(args.output)
    io.save_db(graph, out)
    io.write_id_maps(out.parent / "ids.tsv", graph)
    _print_sizes(out)
    return 0


def cmd_query(args) -> int:
    graph = io.load_db(args.db)
    ops = queries.parse_script(args.script)
    if args.dynamic:
        bundle = io.export_bundle(
            graph, graph.node_ids.external, graph.edge_ids.external
        )
        runner = queries.replay_bundle(bundle, k=graph.k)
    else:
        runner = queries.StaticRunner(graph)
    for line in queries.run_script(runner, ops):
        print(line)
    return 0


def cmd_gen(args) -> int:
    from . import gen  # off the import path of the other subcommands

    data = gen.generate(
        nodes=args.nodes,
        edges=args.edges,
        node_types=args.node_types,
        edge_types=args.edge_types,
        attrs=args.attrs,
        seed=args.seed,
    )
    gen.write_generated(args.output, data)
    print(f"wrote {args.nodes} nodes, {args.edges} edges to {args.output}")
    return 0


def cmd_bench(args) -> int:
    graph = io.load_db(args.db)
    runner = queries.StaticRunner(graph)
    scripts = queries.load_scripts(args.scripts)
    rows = queries.bench_scripts(runner, scripts, repeat=args.repeat)
    print("set\tqueries\tmean_us\tmedian_us\tp99_us\tqps")
    for row in rows:
        print(
            f"{row['set']}\t{row['queries']}\t{row['mean_us']:.2f}\t"
            f"{row['median_us']:.2f}\t{row['p99_us']:.2f}\t{row['qps']:.0f}"
        )
    return 0


def cmd_stats(args) -> int:
    graph = io.load_db(args.db)
    rels = _print_sizes(args.db)
    edges = graph.edge_schema.count
    rel = graph.relations
    structure_bits = rel.base.bit_size + rel.multi.n
    print(f"nodes\t{graph.node_schema.count}")
    print(f"edges\t{edges}")
    if edges:
        print(f"relations_bits_per_edge\t{rels * 8 / edges:.2f}")
        print(f"relations_structure_bits_per_edge\t{structure_bits / edges:.2f}")
    else:
        print("relations_bits_per_edge\t0.00")
        print("relations_structure_bits_per_edge\t0.00")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attk2", description="Compressed attributed-graph store."
    )
    parser.add_argument("--version", action="version", version=f"attk2 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a store from a text input directory")
    p.add_argument("--input", required=True, help="directory with schema/nodes/edges TSV")
    p.add_argument("--output", required=True, help="output database file")
    p.add_argument("--k", type=int, default=2, help="k²-tree arity (default 2)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="run a query script against a store")
    p.add_argument("--db", required=True)
    p.add_argument("--script", required=True)
    p.add_argument(
        "--dynamic",
        action="store_true",
        help="replay the store into the dynamic structures before querying",
    )
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("gen", help="generate a synthetic graph plus query sets")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--node-types", type=int, default=3)
    p.add_argument("--edge-types", type=int, default=3)
    p.add_argument("--attrs", type=int, default=6)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="time the query sets against a store")
    p.add_argument("--db", required=True)
    p.add_argument("--scripts", required=True, help="directory of *.tsv query scripts")
    p.add_argument("--repeat", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("stats", help="report layer sizes of a store")
    p.add_argument("--db", required=True)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, NotFoundError, CorruptFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
