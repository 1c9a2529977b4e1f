"""Traced CLI child of the cli_scripts workload.

    python cli_boot.py SPANS query --db DB --script SCRIPT

Times `import attk2.cli`, wraps the layer modules as the benchmark process
does, runs `attk2.cli.main` on the remaining arguments as operation 0 and
writes the spans to SPANS (see `spans.Tracer.dump`). Exits with main's code.
"""

import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter_ns()
    import attk2.cli

    import_ns = time.perf_counter_ns() - t0
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.extra["import_ns"] = import_ns
    tracer.op_id = 0
    code = attk2.cli.main(sys.argv[2:])
    tracer.op_id = -1
    tracer.dump(sys.argv[1])
    sys.exit(code)
