import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from causeweave import CIEngine, cap_levels, learn_structure, load_csv
from causeweave.citest import make_backend
from causeweave.cli import main
from conftest import EXAMPLE1_ENTRIES


@pytest.fixture
def example1_file(tmp_path):
    path = tmp_path / "example1.json"
    path.write_text(
        json.dumps(
            [{"x": x, "y": y, "s": list(s), "p": p} for x, y, s, p in EXAMPLE1_ENTRIES]
        )
    )
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_learn_injected_proposed(tmp_path, capsys, example1_file):
    out = str(tmp_path / "graph")
    code, stdout, _ = run(
        capsys, "learn", "--data", example1_file, "--backend", "injected", "--out", out
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["nv"] == 3
    assert summary["ne"] == 2
    edges_at_x = [
        p for p in json.loads(Path(out + ".json").read_text())["undirected"] if "X" in p
    ]
    assert len(edges_at_x) == 1
    assert Path(out + ".dot").exists()


def test_learn_injected_pc_stable(tmp_path, capsys, example1_file):
    out = str(tmp_path / "pc")
    code, stdout, _ = run(
        capsys,
        "learn", "--data", example1_file, "--backend", "injected",
        "--algorithm", "pc-stable", "--out", out, "--format", "json",
    )
    assert code == 0
    assert json.loads(stdout)["ne"] == 1
    doc = json.loads(Path(out).read_text())
    assert all("X" not in pair for pair in doc["undirected"] + doc["directed"])


def test_learn_malformed_schema_exits_2(tmp_path, capsys):
    schema = tmp_path / "schema.json"
    schema.write_text('[{"name": "a", "kind": "categorical", "levels": ["only"]}]')
    data = tmp_path / "d.csv"
    data.write_text("a\nonly\n")
    code, _, stderr = run(
        capsys, "learn", "--data", str(data), "--schema", str(schema)
    )
    assert code == 2
    err = json.loads(stderr)
    assert err["error"]["type"] == "SchemaError"


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_learn_non_finite_cell_exits_2(tmp_path, capsys, cell):
    # One bad cell in `a` of an a->b->c chain must stop the run, not drop a-b.
    rng = np.random.default_rng(3)
    a = rng.standard_normal(2000)
    b = a + rng.standard_normal(2000)
    c = b + rng.standard_normal(2000)
    rows = ["a,b,c"] + [",".join(map(repr, r)) for r in np.column_stack([a, b, c]).tolist()]
    rows[100] = f"{cell}," + rows[100].split(",", 1)[1]
    data = tmp_path / "d.csv"
    data.write_text("\n".join(rows) + "\n")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps([{"name": v, "kind": "continuous"} for v in "abc"]))
    code, stdout, stderr = run(capsys, "learn", "--data", str(data), "--schema", str(schema))
    assert code == 2 and stdout == ""
    err = json.loads(stderr)["error"]
    assert err["type"] == "UnknownLevel"
    assert err["message"] == f"a: value '{cell}' (row 100) is not finite"


def test_learn_csv_gtest(tmp_path, capsys):
    schema = tmp_path / "schema.json"
    schema.write_text(
        json.dumps(
            [
                {"name": "a", "kind": "categorical", "levels": ["0", "1"]},
                {"name": "b", "kind": "categorical", "levels": ["0", "1"]},
            ]
        )
    )
    rows = ["a,b"] + [f"{i % 2},{i % 2}" for i in range(40)]
    data = tmp_path / "d.csv"
    data.write_text("\n".join(rows) + "\n")
    code, stdout, _ = run(capsys, "learn", "--data", str(data), "--schema", str(schema))
    assert code == 0
    assert json.loads(stdout)["ne"] == 1  # perfectly correlated pair


def test_learn_drop_dominant_flag(tmp_path, capsys):
    schema = tmp_path / "schema.json"
    schema.write_text(
        json.dumps(
            [
                {"name": "a", "kind": "categorical", "levels": ["0", "1"]},
                {"name": "b", "kind": "categorical", "levels": ["0", "1"]},
            ]
        )
    )
    rows = ["a,b"] + [f"{0 if i < 199 else 1},{i % 2}" for i in range(200)]
    data = tmp_path / "d.csv"
    data.write_text("\n".join(rows) + "\n")
    code, stdout, _ = run(
        capsys,
        "learn", "--data", str(data), "--schema", str(schema), "--drop-dominant", "0.99",
    )
    assert code == 0
    assert json.loads(stdout)["nv"] == 1  # dominated variable removed


def test_learn_cap_levels_flag(tmp_path, capsys):
    # `f` has two rare levels; merged into one, they carry no information
    # about `g`, so capping removes the f-g edge.
    f = ["a"] * 1200 + ["b"] * 640 + ["c"] * 100 + ["d"] * 60
    g = [1] * 750 + [0] * 450 + [1] * 400 + [0] * 240 + [1] * 100 + [0] * 60
    data = tmp_path / "d.csv"
    data.write_text("f,g\n" + "".join(f"{a},{b}\n" for a, b in zip(f, g)))
    schema = tmp_path / "schema.json"
    schema.write_text(
        json.dumps(
            [
                {"name": "f", "kind": "categorical", "levels": ["a", "b", "c", "d"]},
                {"name": "g", "kind": "categorical", "levels": ["0", "1"]},
            ]
        )
    )
    out = tmp_path / "g.json"
    code, _, _ = run(
        capsys, "learn", "--data", str(data), "--schema", str(schema),
        "--cap-levels", "0.9", "--format", "json", "--out", str(out),
    )
    assert code == 0

    def learn(d):
        return learn_structure(list(d.names), CIEngine(make_backend(d, "auto")))

    raw = load_csv(data, schema)
    capped = cap_levels(raw, 0.9)
    assert capped.variable("f").levels == ("a", "b", "Others")
    assert out.read_text() == learn(capped).to_json()
    assert learn(capped).skeleton_pairs() != learn(raw).skeleton_pairs()


@pytest.mark.parametrize(
    "argv",
    [
        ["learn", "--alpha", "0"],
        ["learn", "--alpha", "1"],
        ["learn", "--m-ci", "0"],
        ["simulate", "--alpha", "0"],
        ["simulate", "--alpha", "1"],
        ["simulate", "--m-ci", "0"],
        ["simulate", "--reps", "0"],
        ["simulate", "--threads", "0"],
    ],
    ids=" ".join,
)
def test_out_of_range_option_exits_2(tmp_path, capsys, example1_file, argv):
    command, *option = argv
    if command == "learn":
        argv = ["learn", "--data", example1_file, "--backend", "injected", *option]
    code, stdout, stderr = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 2 and stdout == ""
    err = json.loads(stderr)["error"]
    assert err["type"] == "ValueError"
    assert err["message"].startswith(option[0] + " must be")
    assert list(tmp_path.glob("out*")) == []


@pytest.mark.parametrize("kind", ["categorical", "continuous"])
def test_simulate_no_samples_exits_2(capsys, kind):
    code, stdout, stderr = run(
        capsys, "simulate", "--kind", kind, "--k", "4", "--n", "0", "--reps", "1"
    )
    assert code == 2 and stdout == ""
    assert json.loads(stderr) == {
        "error": {"type": "ValueError", "message": "need at least one sample"}
    }


def test_options_a_command_does_not_read_are_refused(tmp_path, capsys, example1_file):
    graph = str(tmp_path / "g.json")
    run(capsys, "learn", "--data", example1_file, "--backend", "injected",
        "--out", graph, "--format", "json")
    out = str(tmp_path / "out")
    for argv in (
        ["learn", "--data", example1_file, "--backend", "injected", "--seed", "1"],
        ["score", graph, "--data", example1_file, "--schema", example1_file,
         "--alpha", "0.1"],
        ["export", graph, "--threads", "2"],
        ["simulate", "--k", "4", "--n", "50", "--reps", "1", "--format", "dot"],
        # Refused by the parser, before the missing file is looked for.
        ["learn", "--data", str(tmp_path / "missing.csv"), "--schema", graph,
         "--format", "csv"],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", out])
        assert exc.value.code == 2
        # An argparse usage error naming the option, not a JSON error.
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("causeweave") and ": error: " in last
        assert argv[-2] in last
    assert sorted(p.name for p in tmp_path.iterdir()) == ["example1.json", "g.json"]


def test_simulate_thread_count_does_not_change_bytes(tmp_path, capsys):
    outs = []
    for threads, tag in ((1, "a"), (8, "b")):
        out = str(tmp_path / f"rep_{tag}")
        code, _, _ = run(
            capsys,
            "simulate", "--kind", "categorical", "--k", "6", "--n", "120",
            "--reps", "4", "--seed", "3", "--threads", str(threads),
            "--out", out, "--format", "csv",
        )
        assert code == 0
        outs.append(Path(out + ".json").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("threads, reps", [(2, 4), (3, 2)])
def test_simulate_continuous_worker_count_does_not_change_bytes(
    tmp_path, capsys, threads, reps
):
    outs = []
    for t in (1, threads):
        out = str(tmp_path / f"cont_{t}")
        code, _, _ = run(
            capsys,
            "simulate", "--kind", "continuous", "--k", "6", "--n", "150",
            "--rho", "0.2", "--reps", str(reps), "--seed", "5", "--threads", str(t),
            "--out", out,
        )
        assert code == 0
        outs.append(Path(out + ".json").read_bytes())
    assert outs[0] == outs[1]


def test_simulate_continuous_writes_report(tmp_path, capsys):
    out = str(tmp_path / "cont")
    code, stdout, _ = run(
        capsys,
        "simulate", "--kind", "continuous", "--k", "6", "--n", "150",
        "--rho", "0.1", "--theta", "0.5", "--reps", "3", "--seed", "1",
        "--alpha", "0.01", "--m-ci", "2", "--out", out,
    )
    assert code == 0
    doc = json.loads(Path(out + ".json").read_text())
    assert set(doc["reports"]) == {"proposed", "pc-stable"}
    assert doc["reports"]["proposed"]["roc"] is None
    summary = json.loads(stdout)
    assert 0.0 <= summary["summary"]["proposed"]["tnr"] <= 1.0


def test_score_command(tmp_path, capsys, example1_file):
    graph_path = str(tmp_path / "g.json")
    run(
        capsys, "learn", "--data", example1_file, "--backend", "injected",
        "--out", graph_path, "--format", "json",
    )
    schema = tmp_path / "schema.json"
    schema.write_text(
        json.dumps(
            [{"name": n, "kind": "categorical", "levels": ["0", "1"]} for n in "XYZ"]
        )
    )
    rows = ["X,Y,Z"] + [f"{i % 2},{(i // 2) % 2},{i % 2}" for i in range(40)]
    data = tmp_path / "d.csv"
    data.write_text("\n".join(rows) + "\n")
    out = str(tmp_path / "scores.json")
    code, stdout, _ = run(
        capsys,
        "score", graph_path, "--data", str(data), "--schema", str(schema), "--out", out,
    )
    assert code == 0
    assert "bic" in stdout
    doc = json.loads(Path(out).read_text())
    assert len(doc["rows"]) == 1
    assert doc["rows"][0]["df"] >= 0


def test_export_round_trip_and_distances(tmp_path, capsys, example1_file):
    json_path = str(tmp_path / "g.json")
    run(
        capsys, "learn", "--data", example1_file, "--backend", "injected",
        "--out", json_path, "--format", "json",
    )
    dot_path = str(tmp_path / "g.dot")
    code, _, _ = run(capsys, "export", json_path, "--out", dot_path, "--format", "dot")
    assert code == 0
    back_path = str(tmp_path / "g2.json")
    code, stdout, _ = run(
        capsys, "export", dot_path, "--out", back_path, "--format", "json",
        "--distances-from", "X", "--max-distance", "2",
    )
    assert code == 0
    report = json.loads(stdout)
    # X-Z-Y chain: one vertex within distance 1, both within 2
    assert report["within"] == {"1": 1, "2": 2}
    original = json.loads(Path(json_path).read_text())
    round_tripped = json.loads(Path(back_path).read_text())
    assert round_tripped["undirected"] == original["undirected"]
    assert round_tripped["directed"] == original["directed"]


@pytest.mark.parametrize("algorithm", ["proposed", "pc-stable"])
@pytest.mark.parametrize(
    "prior",
    [
        {"tiers": {"Xx": 0}, "required": [["Y", "Q"]]},
        {"tiers": {"Xx": 0}},
        {"required": [["Y", "Q"]]},
        {"forbidden": [["Q", "X"]]},
    ],
)
def test_learn_prior_naming_unknown_vertex_exits_2(
    tmp_path, capsys, example1_file, algorithm, prior
):
    prior_path = tmp_path / "prior.json"
    prior_path.write_text(json.dumps(prior))
    out = tmp_path / "graph.json"
    code, stdout, stderr = run(
        capsys, "learn", "--data", example1_file, "--backend", "injected",
        "--algorithm", algorithm, "--prior", str(prior_path), "--out", str(out),
        "--format", "json",
    )
    assert code == 2
    assert stdout == ""
    assert json.loads(stderr)["error"]["type"] == "UnknownVertex"
    assert not out.exists()


def test_export_unknown_vertex_exits_2(tmp_path, capsys, example1_file):
    json_path = str(tmp_path / "g.json")
    run(
        capsys, "learn", "--data", example1_file, "--backend", "injected",
        "--out", json_path, "--format", "json",
    )
    code, _, stderr = run(
        capsys, "export", json_path, "--distances-from", "NOPE"
    )
    assert code == 2
    assert json.loads(stderr)["error"]["type"] == "UnknownVertex"


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a second and 50 MB at start-up; the CI tests
    # need only scipy.special.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    # The replicate pool imports multiprocessing only when it forks.
    code = (
        "import sys, causeweave.cli; "
        "assert 'scipy.stats' not in sys.modules and 'multiprocessing' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def assert_input_error(code, stdout, stderr, error_type, out):
    assert code == 2 and stdout == ""
    lines = stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == error_type
    assert not out.exists()


def test_learn_schema_with_tier_exits_2(tmp_path, capsys):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(
        [{"name": v, "kind": "categorical", "levels": ["0", "1"], "tier": 0} for v in "ab"]
    ))
    data = tmp_path / "d.csv"
    data.write_text("a,b\n" + "".join(f"{i % 2},{i % 2}\n" for i in range(40)))
    out = tmp_path / "graph.json"
    code, stdout, stderr = run(
        capsys, "learn", "--data", str(data), "--schema", str(schema),
        "--out", str(out), "--format", "json",
    )
    assert_input_error(code, stdout, stderr, "SchemaError", out)
    assert "--prior" in json.loads(stderr)["error"]["message"]


@pytest.mark.parametrize(
    "prior, error_type",
    [
        ({"required": [["X", "Y"], ["Y", "X"]]}, "PriorKnowledgeCycle"),
        ({"tiers": {"X": 1, "Y": 0}, "required": [["X", "Y"]]}, "PriorKnowledgeCycle"),
        ([["X", "Y"]], "ValueError"),
        ({"tiers": {"X": 1.7}}, "ValueError"),
        ({"tiers": {"X": True}}, "ValueError"),
        ({"tiers": {"X": "1"}}, "ValueError"),
        ({"tiers": [["X", 1]]}, "ValueError"),
        ({"forbiden": [["X", "Y"]]}, "ValueError"),
        ({"required": [["X"]]}, "ValueError"),
        ({"required": [["X", 1]]}, "ValueError"),
        ({"forbidden": "XY"}, "ValueError"),
        (
            {"tiers": {"X": 0, "Y": 1}, "required": [["Y", "Z"], ["Z", "X"]]},
            "PriorKnowledgeCycle",
        ),
    ],
    ids=[
        "required-cycle", "required-against-tiers", "array", "float-tier", "bool-tier",
        "string-tier", "tiers-not-object", "unknown-key", "short-pair", "non-string-pair",
        "pairs-not-list", "required-chain-against-tiers",
    ],
)
def test_learn_bad_prior_file_exits_2(tmp_path, capsys, example1_file, prior, error_type):
    prior_path = tmp_path / "prior.json"
    prior_path.write_text(json.dumps(prior))
    out = tmp_path / "graph.json"
    code, stdout, stderr = run(
        capsys, "learn", "--data", example1_file, "--backend", "injected",
        "--prior", str(prior_path), "--out", str(out), "--format", "json",
    )
    assert_input_error(code, stdout, stderr, error_type, out)


@pytest.mark.parametrize("command", ["learn-auto", "learn-gtest", "learn-fisherz", "score"])
def test_header_only_csv_exits_2(tmp_path, command):
    # In a fresh process, so that any numpy warning would reach stderr.
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps([{"name": v, "kind": "continuous"} for v in "abc"]))
    data = tmp_path / "d.csv"
    data.write_text("a,b,c\n")
    out = tmp_path / "out.json"
    if command == "score":
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"vertices": ["a", "b", "c"]}))
        argv = ["score", str(graph), "--out", str(out)]
    else:
        argv = ["learn", "--backend", command.split("-")[1], "--out", str(out),
                "--format", "json"]
    argv += ["--data", str(data), "--schema", str(schema)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "causeweave.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert_input_error(proc.returncode, proc.stdout, proc.stderr, "RowLengthMismatch", out)
    assert "no data rows" in proc.stderr


def write_ab_data(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("a,b\n" + "".join(f"{i % 2},{i % 2}\n" for i in range(40)))
    return data


BINARY = {"kind": "categorical", "levels": ["0", "1"]}


@pytest.mark.parametrize(
    "entry",
    [
        {"name": "a", **BINARY, "level": ["x"]},
        {"name": "a", "kind": "categorical", "levels": "01"},
        {"name": "a", "kind": "categorical", "levels": [0, 1]},
        {"name": "a", "kind": "categorical", "levels": {"0": 1, "1": 2}},
        {"name": 1, **BINARY},
        {"name": "a", "kind": ["categorical"], "levels": ["0", "1"]},
    ],
    ids=[
        "unknown-key", "levels-string", "levels-numbers", "levels-object",
        "name-not-string", "kind-not-string",
    ],
)
def test_learn_malformed_schema_entry_exits_2(tmp_path, capsys, entry):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps([entry, {"name": "b", **BINARY}]))
    out = tmp_path / "graph.json"
    code, stdout, stderr = run(
        capsys, "learn", "--data", str(write_ab_data(tmp_path)), "--schema", str(schema),
        "--out", str(out), "--format", "json",
    )
    assert_input_error(code, stdout, stderr, "SchemaError", out)


@pytest.mark.parametrize(
    "doc",
    [
        [{"x": "X", "y": "Y", "s": []}],
        [{"x": "X", "y": "Y", "s": "CD", "p": 0.5}],
        {"XYZ0": 1},
        [{"x": "X", "y": "Y", "s": [], "p": 0.5, "q": 1}],
        [{"x": "X", "y": "Y", "s": [], "p": "0.5"}],
        [{"x": "X", "y": 1, "s": [], "p": 0.5}],
        ["XY.5"],
    ],
    ids=[
        "missing-p", "string-s", "object", "unknown-key", "string-p", "non-string-name",
        "string-entry",
    ],
)
def test_learn_bad_injected_file_exits_2(tmp_path, capsys, doc):
    data = tmp_path / "injected.json"
    data.write_text(json.dumps(doc))
    out = tmp_path / "graph.json"
    code, stdout, stderr = run(
        capsys, "learn", "--data", str(data), "--backend", "injected",
        "--out", str(out), "--format", "json",
    )
    assert_input_error(code, stdout, stderr, "ValueError", out)


@pytest.mark.parametrize(
    "doc",
    [
        [["a", "b"]],
        {"directed": [["a", "b"]]},
        {"vertices": "ab"},
        {"vertices": ["a", "b", "cd"], "sepsets": [["a", "b", "cd", 0.5]]},
        {"vertices": ["a", "b"], "directed": ["ab"]},
        {"vertices": ["a", "b"], "undirected": [["a", "b"]], "significance": [["a", "b"]]},
        {"vertices": ["a", "b"], "edges": [["a", "b"]]},
    ],
    ids=[
        "array", "no-vertices", "vertices-string", "witness-string", "edge-string",
        "short-significance", "unknown-key",
    ],
)
@pytest.mark.parametrize("command", ["export", "score"])
def test_malformed_graph_json_exits_2(tmp_path, capsys, doc, command):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    argv = [command, str(graph), "--out", str(out)]
    if command == "score":
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps([{"name": v, **BINARY} for v in "ab"]))
        argv += ["--data", str(write_ab_data(tmp_path)), "--schema", str(schema)]
    code, stdout, stderr = run(capsys, *argv)
    assert_input_error(code, stdout, stderr, "ValueError", out)


@pytest.mark.parametrize("which", ["data", "injected-data", "schema", "prior", "graph"])
def test_directory_path_exits_2(tmp_path, capsys, example1_file, which):
    folder = tmp_path / "folder"
    folder.mkdir()
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps([{"name": v, **BINARY} for v in "ab"]))
    data = write_ab_data(tmp_path)
    out = tmp_path / "out.json"
    argv = {
        "data": ["learn", "--data", str(folder), "--schema", str(schema)],
        "injected-data": ["learn", "--data", str(folder), "--backend", "injected"],
        "schema": ["learn", "--data", str(data), "--schema", str(folder)],
        "prior": ["learn", "--data", example1_file, "--backend", "injected",
                  "--prior", str(folder)],
        "graph": ["export", str(folder)],
    }[which]
    code, stdout, stderr = run(capsys, *argv, "--out", str(out), "--format", "json")
    assert_input_error(code, stdout, stderr, "IsADirectoryError", out)
