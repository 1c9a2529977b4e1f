"""Command-line interface: subcommands, exit codes, output formats."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import attk2
from attk2 import io
from attk2.cli import main

from conftest import running_bundle


@pytest.fixture
def fixture_dir(tmp_path):
    d = tmp_path / "input"
    io.write_bundle(d, running_bundle())
    return d


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_reports_layer_sizes(tmp_path, fixture_dir, capsys):
    db = tmp_path / "ex.db"
    code, out, _ = run(capsys, "build", "--input", str(fixture_dir), "--output", str(db))
    assert code == 0
    lines = dict(line.split("\t") for line in out.strip().splitlines())
    assert set(lines) == {"schema_bytes", "data_bytes", "relations_bytes", "total_bytes"}
    assert all(int(v) > 0 for v in lines.values())
    assert db.exists()
    assert (tmp_path / "ids.tsv").exists()


def test_build_bad_input_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "schema.tsv").write_text("NODE\tA\n")
    (bad / "nodes.tsv").write_text("n1\tB\n")
    (bad / "edges.tsv").write_text("")
    code, _, err = run(capsys, "build", "--input", str(bad), "--output", str(tmp_path / "x.db"))
    assert code == 1
    assert "error" in err


def test_build_non_utf8_input_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "schema.tsv").write_text("NODE\tA\tx:s\nEDGE\tR\n")
    (bad / "nodes.tsv").write_bytes(b"n1\tA\tx=caf\xff\n")
    (bad / "edges.tsv").write_text("")
    code, _, err = run(capsys, "build", "--input", str(bad), "--output", str(tmp_path / "x.db"))
    assert code == 1
    assert err.startswith("error: nodes.tsv:1: ") and "UTF-8" in err


def _script(tmp_path, lines):
    path = tmp_path / "script.tsv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def test_query_worked_examples(tmp_path, fixture_dir, capsys):
    db = tmp_path / "ex.db"
    assert run(capsys, "build", "--input", str(fixture_dir), "--output", str(db))[0] == 0
    script = _script(
        tmp_path,
        [
            "GetNodeType\t4",
            "GetEdgeType\t6",
            "ScanNodes\tResearcher",
            "GetNodeAttribute\t3\tTitle",
            "GetNodeAttribute\t3\tName",
            "GetEdgeAttribute\t6\tExpertise",
            "Neighbors\tResearcher\t4",
            "Related\tAuthor\t3",
            "GetNodeTypes",
            "SelectNodes\tPaper\tTitle\tCompressing graphs",
            "SelectEdges\tReviewer\tExpertise\tHigh",
            "Related\tReviewer\t1",
        ],
    )
    code, out, _ = run(capsys, "query", "--db", str(db), "--script", str(script))
    assert code == 0
    assert out.splitlines() == [
        "Researcher",
        "Reviewer",
        "3\t4\t5",
        "-",
        "P. García",
        "Medium",
        "5",
        "1",
        "Paper\tResearcher",
        "1",
        "7",
        "-",
    ]


def test_build_with_k4_answers_identically(tmp_path, fixture_dir, capsys):
    db2 = tmp_path / "k2.db"
    db4 = tmp_path / "k4.db"
    run(capsys, "build", "--input", str(fixture_dir), "--output", str(db2))
    assert run(
        capsys, "build", "--input", str(fixture_dir), "--output", str(db4), "--k", "4"
    )[0] == 0
    script = _script(
        tmp_path, ["GetNodeType\t4", "Neighbors\tResearcher\t4", "Related\tAuthor\t3"]
    )
    _, out2, _ = run(capsys, "query", "--db", str(db2), "--script", str(script))
    _, out4, _ = run(capsys, "query", "--db", str(db4), "--script", str(script))
    assert out2 == out4


def test_query_empty_script(tmp_path, fixture_dir, capsys):
    db = tmp_path / "ex.db"
    run(capsys, "build", "--input", str(fixture_dir), "--output", str(db))
    script = _script(tmp_path, [])
    code, out, _ = run(capsys, "query", "--db", str(db), "--script", str(script))
    assert code == 0
    assert out == ""


def test_query_dynamic_matches_static(tmp_path, capsys):
    gen_dir = tmp_path / "gen"
    code, _, _ = run(
        capsys, "gen", "--nodes", "60", "--edges", "200", "--node-types", "3",
        "--edge-types", "3", "--attrs", "6", "--seed", "21", "--output", str(gen_dir),
    )
    assert code == 0
    db = tmp_path / "g.db"
    assert run(capsys, "build", "--input", str(gen_dir), "--output", str(db))[0] == 0
    for script in sorted((gen_dir / "queries").iterdir()):
        _, static_out, _ = run(capsys, "query", "--db", str(db), "--script", str(script))
        code, dyn_out, _ = run(
            capsys, "query", "--db", str(db), "--script", str(script), "--dynamic"
        )
        assert code == 0
        assert dyn_out == static_out, script.name


def test_query_rejects_bad_script(tmp_path, fixture_dir, capsys):
    db = tmp_path / "ex.db"
    run(capsys, "build", "--input", str(fixture_dir), "--output", str(db))
    script = _script(tmp_path, ["Frobnicate\t1"])
    code, _, err = run(capsys, "query", "--db", str(db), "--script", str(script))
    assert code == 1 and "unknown operation" in err
    script = _script(tmp_path, ["GetNodeType\t4\textra"])
    assert run(capsys, "query", "--db", str(db), "--script", str(script))[0] == 1
    script.write_bytes(b"GetNodeType\t\xff\n")
    code, _, err = run(capsys, "query", "--db", str(db), "--script", str(script))
    assert code == 1 and str(script) in err and "UTF-8" in err
    code, _, err = run(capsys, "query", "--db", str(db), "--script", str(tmp_path))
    assert code == 1 and err.startswith("error: ")
    code, _, err = run(capsys, "query", "--db", str(tmp_path), "--script", str(script))
    assert code == 1 and err.startswith("error: ")


def test_query_script_escape_error_names_its_line(tmp_path, fixture_dir, capsys):
    db = tmp_path / "ex.db"
    run(capsys, "build", "--input", str(fixture_dir), "--output", str(db))
    script = _script(tmp_path, ["GetNodeType\t4", "GetNodeType\tn\\q"])
    code, out, err = run(capsys, "query", "--db", str(db), "--script", str(script))
    assert code == 1 and out == ""
    assert err == f"error: {script}:2: bad escape in field 'n\\\\q'\n"


@pytest.mark.parametrize(
    "line",
    ["GetNodeType\tnope", "GetEdgeAttribute\tnope\tExpertise", "Neighbors\tPaper\tnope"],
    ids=lambda line: line.split("\t")[0],
)
@pytest.mark.parametrize("mode", [[], ["--dynamic"]], ids=["static", "dynamic"])
def test_query_unknown_external_id_exits_one(tmp_path, fixture_dir, capsys, line, mode):
    db = tmp_path / "ex.db"
    run(capsys, "build", "--input", str(fixture_dir), "--output", str(db))
    script = _script(tmp_path, [line])
    code, out, err = run(capsys, "query", "--db", str(db), "--script", str(script), *mode)
    assert code == 1
    assert out == ""
    assert err == "error: unknown external id 'nope'\n"


def test_stats_running_example(tmp_path, fixture_dir, capsys):
    db = tmp_path / "ex.db"
    run(capsys, "build", "--input", str(fixture_dir), "--output", str(db))
    code, out, _ = run(capsys, "stats", "--db", str(db))
    assert code == 0
    stats = dict(line.split("\t") for line in out.strip().splitlines())
    assert stats["nodes"] == "5" and stats["edges"] == "7"
    assert float(stats["relations_bits_per_edge"]) > 0


def test_stats_empty_store(tmp_path, capsys):
    d = tmp_path / "empty"
    d.mkdir()
    (d / "schema.tsv").write_text("NODE\tA\nEDGE\tR\n")
    (d / "nodes.tsv").write_text("")
    (d / "edges.tsv").write_text("")
    db = tmp_path / "empty.db"
    assert run(capsys, "build", "--input", str(d), "--output", str(db))[0] == 0
    code, out, _ = run(capsys, "stats", "--db", str(db))
    assert code == 0
    stats = dict(line.split("\t") for line in out.strip().splitlines())
    assert stats["edges"] == "0"
    assert stats["relations_bits_per_edge"] == "0.00"


def test_stats_structure_bits_per_edge_on_generated_graph(tmp_path, capsys):
    # the succinct part (T + L + Multi) of a clustered generated graph stays
    # far below a plain edge list; the id payload dominates the serialized form
    gen_dir = tmp_path / "gen"
    run(
        capsys, "gen", "--nodes", "2000", "--edges", "10000", "--seed", "13",
        "--output", str(gen_dir),
    )
    db = tmp_path / "g.db"
    run(capsys, "build", "--input", str(gen_dir), "--output", str(db))
    code, out, _ = run(capsys, "stats", "--db", str(db))
    assert code == 0
    stats = dict(line.split("\t") for line in out.strip().splitlines())
    assert float(stats["relations_structure_bits_per_edge"]) < 32
    assert float(stats["relations_bits_per_edge"]) < 128


def test_stats_corrupt_file(tmp_path, capsys):
    path = tmp_path / "junk.db"
    path.write_bytes(b"garbage")
    code, _, err = run(capsys, "stats", "--db", str(path))
    assert code == 1 and "error" in err


def test_bench_runs_all_sets(tmp_path, capsys):
    gen_dir = tmp_path / "gen"
    run(
        capsys, "gen", "--nodes", "40", "--edges", "100", "--seed", "31",
        "--output", str(gen_dir),
    )
    db = tmp_path / "g.db"
    run(capsys, "build", "--input", str(gen_dir), "--output", str(db))
    code, out, _ = run(
        capsys, "bench", "--db", str(db), "--scripts", str(gen_dir / "queries"),
        "--repeat", "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("set\t")
    assert len(lines) == 9
    for line in lines[1:]:
        fields = line.split("\t")
        assert int(fields[1]) == 2000  # --repeat 2 doubles the sample count
        assert float(fields[5]) > 0


def test_gen_determinism_via_cli(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(
            capsys, "gen", "--nodes", "20", "--edges", "50", "--seed", "77",
            "--output", str(out),
        )[0] == 0
    assert (a / "nodes.tsv").read_bytes() == (b / "nodes.tsv").read_bytes()
    assert (a / "edges.tsv").read_bytes() == (b / "edges.tsv").read_bytes()


def test_cli_import_leaves_out_gen_and_the_dynamic_store():
    # every CLI request imports attk2.cli afresh and pays for what it pulls in
    src = str(Path(attk2.__file__).resolve().parents[1])
    unused = "{'attk2.gen', 'attk2.dyngraph', 'attk2.oracle'}"
    code = f"import sys, attk2.cli; print(sorted({unused} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_every_exported_name_resolves():
    assert all(hasattr(attk2, name) for name in attk2.__all__)
