"""Self-test of the benchmark at toy size (300 nodes / 1,200 edges).

    python3 -m pytest perfbench/test_selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit on
every workload, that a runner which corrupts one answer drives error_rate
above 0, that the untraced half of a traced run runs without wrappers, and
that the benchmark refuses to run without the attk2 sources.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from attk2 import queries  # noqa: E402
from spawner import Launcher  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--toy")
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]


def corrupt_first(monkeypatch, cls, op_name):
    """Make cls.run give a wrong answer for one query of kind op_name."""
    original = cls.run
    target = []

    def run(self, op, args):
        if op == op_name and not target:
            target.append(list(args))
        result = original(self, op, args)
        return "corrupted" if op == op_name and list(args) == target[0] else result

    monkeypatch.setattr(cls, "run", run)


@pytest.fixture
def toy_context(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with Launcher(env) as launcher:
        yield workloads.Context(ROOT, tmp_path, tmp_path, launcher, 5, 0.5, False, "toy")


@pytest.mark.parametrize(
    "workload, cls",
    [
        ("static_reads", queries.StaticRunner),
        ("dynamic_mixed", queries.DynamicRunner),
        ("cli_scripts", queries.StaticRunner),  # the in-process answers
    ],
)
def test_one_corrupted_answer_raises_error_rate(monkeypatch, toy_context, workload, cls):
    corrupt_first(monkeypatch, cls, "GetNodeType")
    res = workloads.WORKLOADS[workload](toy_context)
    assert res.attempted >= 1
    assert res.failed >= 1
    assert any(note.startswith("mismatch") for note in res.notes)


def wrapped():
    """Whether the layer wrappers of spans.Tracer are in place."""
    return [
        hasattr(f, "__wrapped__")
        for f in (queries.format_result, vars(queries.StaticRunner)["run"], vars(queries.DynamicRunner)["run"])
    ]


@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_untraced_half_runs_before_wrappers_are_installed(monkeypatch, tmp_path, workload):
    seen = []
    for name in ("_read_window", "_mixed_window", "_request_window"):

        def spy(*args, _original=getattr(workloads, name), **kwargs):
            seen.append((kwargs.get("tracer") is not None, wrapped()))
            return _original(*args, **kwargs)

        monkeypatch.setattr(workloads, name, spy)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with Launcher(env) as launcher:
        ctx = workloads.Context(ROOT, tmp_path, tmp_path, launcher, 5, 0.5, True, "toy")
        res = workloads.WORKLOADS[workload](ctx)
    assert res.failed == 0
    timed = seen[-2:]  # cli_scripts runs a warm-up request first
    assert timed == [(False, [False] * 3), (True, [True] * 3)]
    assert wrapped() == [False] * 3  # uninstalled after the traced half


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", ".work-*", "__pycache__"))
    out = run_bench("--workload", "static_reads", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
