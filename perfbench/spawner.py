"""Child-process launcher of the cli_scripts workload.

    python spawner.py      (normally started through `Launcher`)

Reads one JSON request per stdin line, {"argv": [...], "stderr": path}, runs
it to completion and answers on stdout with one JSON line: {"code",
"stdout", "ns", "maxrss_kb"}. `ns` runs from spawn to exit; `maxrss_kb` is
the child's ru_maxrss from os.wait4. Exits at end of input.

Linux charges a new process's peak RSS with the peak of the process that
spawned it, so a child started straight from the benchmark (which holds a
40k-node store and its oracle) would report the benchmark's memory. Started
while the benchmark is still small, this launcher keeps that floor low.
"""

import json
import os
import subprocess
import sys
import time


class Launcher:
    """Client side: starts the launcher process and sends it requests.

    Use as a context manager; leaving it ends the launcher and waits for it.
    """

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )

    def run(self, argv, stderr_path) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv, "stderr": str(stderr_path)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("child-process launcher exited")
        return json.loads(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def serve(requests, replies):
    for line in requests:
        req = json.loads(line)
        with open(req["stderr"], "wb") as err:
            t0 = time.perf_counter_ns()
            proc = subprocess.Popen(req["argv"], stdout=subprocess.PIPE, stderr=err)
            with proc.stdout:
                out = proc.stdout.read()
            _pid, status, usage = os.wait4(proc.pid, 0)
            ns = time.perf_counter_ns() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "code": proc.returncode,
            "stdout": out.decode("utf-8", errors="replace"),
            "ns": ns,
            "maxrss_kb": usage.ru_maxrss,
        }
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
