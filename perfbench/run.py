"""attk2 benchmark: static reads, a dynamic read/write mix and CLI requests.

    python3 perfbench/run.py [--workload static_reads|dynamic_mixed|cli_scripts|all]
                             [--seed 7] [--seconds 10] [--trace 0|1] [--toy]

Run from anywhere inside a checkout; attk2 is imported from the checkout's
`src/`. Every metric is printed as `name<TAB>value<TAB>unit`, then the last
line is one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the `end_to_end` metrics of BENCHMARK.json with `--trace 0`, its `per_layer`
metrics with `--trace 1`. Result records and span files go to
`perfbench/out/`. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

from spawner import Launcher

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("static_reads", "dynamic_mixed", "cli_scripts")


def commit_of(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=7, help="query order, writes and requests")
    p.add_argument(
        "--graph-seed", type=int, default=7, help="attk2.gen seed of the graph and its query sets"
    )
    p.add_argument("--seconds", type=float, default=6.0, help="length of the timed window")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1), help="1: per-layer traced run")
    p.add_argument("--toy", action="store_true", help="300 nodes / 1,200 edges (self-test size)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "attk2" / "__init__.py").is_file():
        print(f"error: no attk2 sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    with Launcher(env) as launcher:  # started while this process is small
        sys.path.insert(0, str(src))
        return run(args, launcher)


def run(args, launcher) -> int:
    import workloads

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    names = NAMES if args.workload == "all" else (args.workload,)
    info = {
        "seed": args.seed,
        "graph_seed": args.graph_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": "toy" if args.toy else "full",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit_of(ROOT),
    }
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
            ctx = workloads.Context(
                ROOT, Path(tmp), outdir, launcher, args.seed, args.seconds, bool(args.trace),
                info["scale"], args.graph_seed
            )
            res = workloads.WORKLOADS[name](ctx)
        res.info = {"workload": name, **info, **res.info}
        res.put("error_rate", res.failed / res.attempted if res.attempted else 1.0, "ratio")
        print(f"# {json.dumps(res.info)}")
        for metric, (value, unit) in res.metrics.items():
            print(f"{metric}\t{value!r}\t{unit}")
        for note in res.notes:
            print(f"# {note}")
        record = {**res.info, "attempted": res.attempted, "failed": res.failed,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res.metrics.items()},
                  "notes": res.notes}
        out = outdir / f"{name}-seed{args.seed}-graph{args.graph_seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")
        prefix = f"{name}." if len(names) > 1 else ""
        for m in wanted:
            value, unit = res.metrics[m["name"]]
            final["metrics"][prefix + m["name"]] = {"value": value, "unit": unit}
        final["attempted"] += res.attempted
        final["failed"] += res.failed
    final["correct"] = final["failed"] == 0 and final["attempted"] > 0
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
