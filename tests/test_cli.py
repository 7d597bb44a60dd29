import argparse
import csv
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from causeweave import (
    CIEngine,
    InjectedBackend,
    cap_levels,
    errors,
    forward_step,
    learn_structure,
    load_csv,
    maximization_step,
    maximize,
)
from causeweave.citest import canonical_key, make_backend
from causeweave import cli
from causeweave.cli import main
from causeweave.experiments import CategoricalSimConfig, ContinuousSimConfig
from conftest import EXAMPLE1_ENTRIES
from oracle_helpers import cache_dump, decode, full_scan_q_value, ptable_entries, random_ptable

ROOT = Path(__file__).resolve().parents[1]


def write_injected(path, entries):
    """Write ``{"x", "y", "s", "p"}`` entries as an injected-results file."""
    path.write_text(json.dumps(entries))
    return str(path)


@pytest.fixture
def example1_file(tmp_path):
    return write_injected(tmp_path / "example1.json", EXAMPLE1_ENTRIES)


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


def test_learn_drop_dominant_with_a_prior_naming_a_dropped_variable(tmp_path, capsys):
    """A prior may name a variable ``--drop-dominant`` removes: the learn
    uses the prior's other tiers and pairs.  A name outside the schema is
    still refused."""
    rng = np.random.default_rng(2)
    n = 600
    a = (rng.random(n) < 0.1).astype(int)  # 0 in about 90% of the rows
    b = rng.integers(0, 2, n)
    c = np.where(rng.random(n) < 0.8, b, 1 - b)
    data = tmp_path / "d.csv"
    data.write_text("a,b,c\n" + "".join(f"{x},{y},{z}\n" for x, y, z in zip(a, b, c)))
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps([{"name": v, **BINARY} for v in "abc"]))
    outputs = {}
    for name, prior in {
        "full": {"tiers": {"a": 0, "b": 0, "c": 1}, "required": [["a", "c"]],
                 "forbidden": [["c", "a"], ["c", "b"]]},
        "kept": {"tiers": {"b": 0, "c": 1}, "forbidden": [["c", "b"]]},
    }.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(prior))
        out = tmp_path / name
        code, stdout, _ = run(
            capsys, "learn", "--data", str(data), "--schema", str(schema),
            "--drop-dominant", "0.8", "--prior", str(tmp_path / f"{name}.json"),
            "--out", str(out), "--format", "json",
        )
        assert code == 0
        outputs[name] = (stdout.replace(name, ""), out.read_bytes())
    assert outputs["full"] == outputs["kept"]
    assert json.loads(outputs["kept"][1])["directed"] == [["b", "c"]]
    (tmp_path / "typo.json").write_text(json.dumps({"tiers": {"a": 0, "bb": 0, "c": 1}}))
    out = tmp_path / "typo"
    code, stdout, stderr = run(
        capsys, "learn", "--data", str(data), "--schema", str(schema),
        "--drop-dominant", "0.8", "--prior", str(tmp_path / "typo.json"),
        "--out", str(out), "--format", "json",
    )
    assert_input_error(code, stdout, stderr, "UnknownVertex", out)
    assert "['bb']" in json.loads(stderr)["error"]["message"]


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
        ["simulate", "--k", "1", "--kind", "categorical"],
        ["simulate", "--k", "1", "--kind", "continuous"],
        # An option of the other kind.
        ["simulate", "--levels", "7", "--kind", "continuous"],
        ["simulate", "--max-parents", "9", "--kind", "continuous"],
        ["simulate", "--no-bic", "--kind", "continuous"],
        ["simulate", "--rho", "0.1"],
        ["simulate", "--theta", "1", "--kind", "categorical"],
        ["export", "--max-distance", "0"],
        ["export", "--max-distance", "-3"],
    ],
    ids=" ".join,
)
def test_out_of_range_option_exits_2(tmp_path, capsys, example1_file, argv):
    command, *option = argv
    if command == "learn":
        argv = ["learn", "--data", example1_file, "--backend", "injected", *option]
    if command == "export":
        graph = str(tmp_path / "g.json")  # the path X-Z-Y
        run(capsys, "learn", "--data", example1_file, "--backend", "injected",
            "--out", graph, "--format", "json")
        argv = ["export", graph, "--distances-from", "X", *option]
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


def test_simulate_negative_max_parents_exits_2(capsys):
    code, stdout, stderr = run(
        capsys, "simulate", "--kind", "categorical", "--k", "4", "--n", "50", "--reps", "1",
        "--max-parents", "-1",
    )
    assert code == 2 and stdout == ""
    assert json.loads(stderr) == {
        "error": {"type": "ValueError", "message": "max_parents must be >= 0, got -1"}
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


@pytest.mark.parametrize(
    "kind, config",
    [("categorical", CategoricalSimConfig), ("continuous", ContinuousSimConfig)],
    ids=["categorical", "continuous"],
)
def test_simulate_takes_every_default_from_the_kind_config(
    tmp_path, capsys, monkeypatch, kind, config
):
    """The ``config`` echo of a run given only ``--kind`` is the config's
    defaults (the experiment itself is not run)."""
    seen = []
    monkeypatch.setattr(cli, f"run_{kind}_experiment", lambda cfg: seen.append(cfg) or {})
    out = str(tmp_path / "sim")
    assert run(capsys, "simulate", "--kind", kind, "--out", out)[0] == 0
    assert seen == [config()]
    defaults = dataclasses.asdict(config())
    del defaults["threads"]
    if "compute_bic" in defaults:
        defaults["bic"] = defaults.pop("compute_bic")
    assert json.loads(Path(out + ".json").read_text())["config"] == {"kind": kind, **defaults}


def test_readme_option_table_matches_the_parser():
    rows = {}
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("| `"):
            command, options = line.strip("|").split("|")
            rows[command.strip().strip("`")] = {
                word for word in options.strip().strip("`").split() if word.startswith("--")
            }
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert rows == {
        name: {o for a in sub._actions if not isinstance(a, argparse._HelpAction)
               for o in a.option_strings if o.startswith("--")}
        for name, sub in commands.choices.items()
    }


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


def test_export_distances_stop_at_the_vertex_count(tmp_path, capsys, example1_file):
    json_path = str(tmp_path / "g.json")
    run(
        capsys, "learn", "--data", example1_file, "--backend", "injected",
        "--out", json_path, "--format", "json",
    )
    # X-Z-Y chain: no shortest path is longer than 2, so the series ends at
    # k = 3 vertices, however large --max-distance is.
    for extra in ([], ["--max-distance", "200000"]):
        code, stdout, _ = run(capsys, "export", json_path, "--distances-from", "X", *extra)
        assert code == 0
        assert json.loads(stdout)["within"] == {"1": 1, "2": 2, "3": 2}


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


def error_classes(cls=errors.CauseweaveError):
    for sub in cls.__subclasses__():
        yield sub
        yield from error_classes(sub)


def test_each_error_class_sets_its_exit_code(monkeypatch, capsys):
    # Every package error, found by walking the hierarchy, raised inside main.
    codes = {}
    for cls in error_classes():
        def fail(args, cls=cls):
            raise cls("boom")

        monkeypatch.setattr("causeweave.cli._check", fail)
        code, stdout, stderr = run(capsys, "export", "g.json")
        assert stdout == "" and json.loads(stderr)["error"]["type"] == cls.__name__
        assert code == (2 if issubclass(cls, errors.InputError) else 1), cls.__name__
        codes[cls.__name__] = code
    # A new error class is exercised above; one that exits 2 must also be named here.
    assert sorted(name for name, code in codes.items() if code == 2) == [
        "InputError", "MissingColumn", "MixedBackendUnsupported", "PriorKnowledgeCycle",
        "RowLengthMismatch", "SchemaError", "UninjectedQuery", "UnknownLevel", "UnknownVertex",
    ]


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
    "graph, names",
    [
        ({"vertices": ["P", "Q"]}, "ab"),
        ({"vertices": ["P", "Q"], "directed": [["P", "Q"]]}, ""),
        ({"vertices": ["P", "Q"], "directed": [["P", "Q"]]}, "ab"),
    ],
    ids=["no-edges", "edge-empty-schema", "edge"],
)
def test_score_graph_vertex_missing_from_the_data_exits_2(tmp_path, capsys, graph, names):
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps(graph))
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps([{"name": v, **BINARY} for v in names]))
    out = tmp_path / "out.json"
    code, stdout, stderr = run(
        capsys, "score", str(graph_path), "--data", str(write_ab_data(tmp_path)),
        "--schema", str(schema), "--out", str(out),
    )
    assert_input_error(code, stdout, stderr, "MissingColumn", out)
    assert "'P'" in json.loads(stderr)["error"]["message"]


@pytest.mark.parametrize("where", ["header row", "row 3"])
@pytest.mark.parametrize("command", ["learn", "score"])
def test_csv_field_over_the_reader_limit_exits_2(tmp_path, capsys, command, where):
    big = "x" * (csv.field_size_limit() + 1)
    lines = ["a,b,note"] + [f"{i % 2},{i % 2}," for i in range(40)]
    if where == "header row":
        lines[0] += big
    else:
        lines[3] += big
    data = tmp_path / "d.csv"
    data.write_text("\n".join(lines) + "\n")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps([{"name": v, **BINARY} for v in "ab"]))
    out = tmp_path / "out.json"
    if command == "score":
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"vertices": ["a", "b"]}))
        argv = ["score", str(graph)]
    else:
        argv = ["learn", "--format", "json"]
    code, stdout, stderr = run(
        capsys, *argv, "--data", str(data), "--schema", str(schema), "--out", str(out)
    )
    assert_input_error(code, stdout, stderr, "RowLengthMismatch", out)
    message = json.loads(stderr)["error"]["message"]
    assert message.startswith(f"{where}: ") and "field larger than field limit" in message


@pytest.mark.parametrize("algorithm", ["proposed", "pc-stable"])
def test_csv_with_a_byte_order_mark_reads_as_the_plain_file(tmp_path, capsys, algorithm):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(
        [{"name": v, **BINARY} for v in "ab"] + [{"name": "c", "kind": "continuous"}]
    ))
    text = "a,b,c\n" + "".join(f"{i % 2},{i // 3 % 2},{i * 0.37 % 1:.3f}\n" for i in range(60))
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert decode(load_csv(marked, schema)) == decode(load_csv(plain, schema))
    written = []
    for data in (plain, marked):
        out = tmp_path / f"{data.stem}.json"
        code, _, _ = run(
            capsys, "learn", "--data", str(data), "--schema", str(schema),
            "--algorithm", algorithm, "--out", str(out), "--format", "json",
        )
        assert code == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("algorithm", ["proposed", "pc-stable"])
def test_learn_reads_plain_crlf_and_quoted_csv_alike(tmp_path, capsys, algorithm):
    # The plain and CRLF files take the byte tokeniser, the quoted one csv.reader.
    rng = np.random.default_rng(11)
    n = 400
    a = rng.standard_normal(n)
    b = a + rng.standard_normal(n)
    c = b + rng.standard_normal(n)
    d = c - a + rng.standard_normal(n)
    levels = {"b": ["low", "mid", "high"], "d": ["nein", "ja"]}
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps([
        {"name": "a", "kind": "continuous"},
        {"name": "b", "kind": "ordinal", "levels": levels["b"]},
        {"name": "c", "kind": "continuous"},
        {"name": "d", "kind": "categorical", "levels": levels["d"]},
    ]))
    rows = [
        [f"{a[i]:.6f}", levels["b"][int(b[i] > -0.5) + int(b[i] > 0.5)], repr(float(c[i])),
         levels["d"][int(d[i] > 0)]]
        for i in range(n)
    ]
    plain = "\n".join(",".join(row) for row in [["a", "b", "c", "d"], *rows]) + "\n"
    files = {"plain": plain, "crlf": plain.replace("\n", "\r\n")}
    with io.StringIO(newline="") as quoted:
        csv.writer(quoted, quoting=csv.QUOTE_ALL).writerows([["a", "b", "c", "d"], *rows])
        files["quoted"] = quoted.getvalue()
    outputs = {}
    for name, text in files.items():
        data = tmp_path / f"{name}.csv"
        data.write_bytes(text.encode("utf-8"))
        out = tmp_path / name
        code, stdout, stderr = run(
            capsys, "learn", "--data", str(data), "--schema", str(schema),
            "--algorithm", algorithm, "--out", str(out),
        )
        assert code == 0, stderr
        summary = json.loads(stdout)
        del summary["out"]
        outputs[name] = (summary, (tmp_path / f"{name}.json").read_bytes(),
                         (tmp_path / f"{name}.dot").read_bytes())
    assert outputs["plain"][0]["ne"] > 0
    assert outputs["crlf"] == outputs["plain"] == outputs["quoted"]


# Each input file other than the CSV, and a run that reads it.
BOM_RUNS = {
    "schema.json": ["learn", "--data", "d.csv", "--schema", "schema.json"],
    "prior.json": ["learn", "--data", "results.json", "--backend", "injected",
                   "--prior", "prior.json"],
    "results.json": ["learn", "--data", "results.json", "--backend", "injected"],
    "g.json": ["export", "g.json"],
    "g.dot": ["export", "g.dot"],
}


@pytest.mark.parametrize("name", list(BOM_RUNS))
def test_input_file_with_a_byte_order_mark_reads_as_the_plain_file(
    tmp_path, monkeypatch, capsys, example1_file, name
):
    plain = tmp_path / "plain"
    plain.mkdir()
    write_ab_data(plain)
    (plain / "schema.json").write_text(json.dumps([{"name": v, **BINARY} for v in "ab"]))
    shutil.copy(example1_file, plain / "results.json")
    (plain / "prior.json").write_text(json.dumps({"tiers": {"Y": 0, "X": 1, "Z": 1}}))
    monkeypatch.chdir(plain)
    assert run(capsys, "learn", "--data", "results.json", "--backend", "injected",
               "--out", "g")[0] == 0
    marked = tmp_path / "marked"
    shutil.copytree(plain, marked)
    (marked / name).write_bytes(b"\xef\xbb\xbf" + (plain / name).read_bytes())
    outcomes = []
    for where in (plain, marked):
        # Same relative paths on both sides, so stdout can be compared too.
        monkeypatch.chdir(where)
        code, stdout, _ = run(capsys, *BOM_RUNS[name], "--out", "out.json", "--format", "json")
        outcomes.append((code, stdout, Path("out.json").read_bytes()))
    assert outcomes[0][0] == 0
    assert outcomes[1] == outcomes[0]


@pytest.mark.parametrize("backend", ["auto", "injected", "drop-dominant"])
def test_learn_empty_schema_exits_2(tmp_path, capsys, example1_file, backend):
    # `score` with an empty schema exits 2 on the first graph vertex the data
    # lacks (test_score_graph_vertex_missing_from_the_data_exits_2).
    schema = tmp_path / "schema.json"
    schema.write_text("[]")
    data = example1_file if backend == "injected" else str(write_ab_data(tmp_path))
    options = ["--backend", backend]
    if backend == "drop-dominant":
        # Both variables of a declared schema are dominated, so none is left.
        schema.write_text(json.dumps([{"name": v, **BINARY} for v in "ab"]))
        Path(data).write_text("a,b\n0,0\n0,0\n0,0\n0,1\n")
        options = ["--drop-dominant", "0.5"]
    out = tmp_path / "graph.json"
    code, stdout, stderr = run(
        capsys, "learn", "--data", data, *options, "--schema", str(schema),
        "--out", str(out), "--format", "json",
    )
    error_type = "InputError" if backend == "drop-dominant" else "SchemaError"
    assert_input_error(code, stdout, stderr, error_type, out)
    if backend == "drop-dominant":
        assert "--drop-dominant 0.5" in json.loads(stderr)["error"]["message"]


def test_learn_empty_injected_results_exit_2(tmp_path, capsys):
    data = tmp_path / "empty.json"
    data.write_text("[]")
    out = tmp_path / "graph.json"
    code, stdout, stderr = run(
        capsys, "learn", "--data", str(data), "--backend", "injected",
        "--out", str(out), "--format", "json",
    )
    assert_input_error(code, stdout, stderr, "InputError", out)


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


@pytest.mark.parametrize(
    "sepsets, undirected",
    [
        ([["a", "q", [], 0.5]], []),
        ([["a", "b", ["zz"], 0.5]], []),
        ([["a", "b", ["a"], 0.5]], []),
        ([["a", "b", [], 2.0]], []),
        ([["a", "b", [], -0.5]], []),
        ([["a", "b", [], 0.5]], [["a", "b"]]),
    ],
    ids=[
        "unknown-vertex", "unknown-witness", "endpoint-witness", "p-above-one",
        "p-below-zero", "adjacent-pair",
    ],
)
@pytest.mark.parametrize("command", ["export", "score"])
def test_graph_json_with_bad_sepset_exits_2(tmp_path, capsys, sepsets, undirected, command):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(
        {"vertices": ["a", "b"], "undirected": undirected, "sepsets": sepsets}
    ))
    out = tmp_path / "out.json"
    argv = [command, str(graph), "--out", str(out)]
    if command == "score":
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps([{"name": v, **BINARY} for v in "ab"]))
        argv += ["--data", str(write_ab_data(tmp_path)), "--schema", str(schema)]
    code, stdout, stderr = run(capsys, *argv)
    assert_input_error(code, stdout, stderr, "ValueError", out)
    assert "sepset" in json.loads(stderr)["error"]["message"]


@pytest.mark.parametrize("algorithm", ["proposed", "pc-stable"])
def test_learn_prior_forbidding_the_only_tier_direction_exits_2(
    tmp_path, capsys, example1_file, algorithm
):
    prior_path = tmp_path / "prior.json"
    prior_path.write_text(json.dumps({"tiers": {"Z": 0, "Y": 1}, "forbidden": [["Z", "Y"]]}))
    out = tmp_path / "graph.json"
    code, stdout, stderr = run(
        capsys, "learn", "--data", example1_file, "--backend", "injected",
        "--algorithm", algorithm, "--prior", str(prior_path), "--out", str(out),
        "--format", "json",
    )
    assert_input_error(code, stdout, stderr, "ValueError", out)
    assert "leaves no direction" in json.loads(stderr)["error"]["message"]


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


@pytest.mark.parametrize("algorithm", ["proposed", "pc-stable"])
@pytest.mark.parametrize("backend", ["auto", "injected"])
def test_learn_schema_repeating_a_name_exits_2(
    tmp_path, capsys, example1_file, backend, algorithm
):
    # With injected results no CSV header catches the repeat, so the schema must.
    schema = tmp_path / "schema.json"
    names = ["X", "Y", "Z", "X"] if backend == "injected" else ["a", "b", "a"]
    schema.write_text(json.dumps([{"name": name, **BINARY} for name in names]))
    data = example1_file if backend == "injected" else str(write_ab_data(tmp_path))
    out = tmp_path / "graph.json"
    code, stdout, stderr = run(
        capsys, "learn", "--data", data, "--backend", backend, "--schema", str(schema),
        "--algorithm", algorithm, "--out", str(out), "--format", "json",
    )
    assert_input_error(code, stdout, stderr, "SchemaError", out)
    assert "'X' more than once" in stderr or "'a' more than once" in stderr


@pytest.mark.parametrize(
    "option", [["--cap-levels", "7"], ["--drop-dominant", "0.9"]], ids=" ".join
)
def test_learn_injected_refuses_data_options(tmp_path, capsys, example1_file, option):
    out = tmp_path / "graph.json"
    code, stdout, stderr = run(
        capsys, "learn", "--data", example1_file, "--backend", "injected", *option,
        "--out", str(out), "--format", "json",
    )
    assert_input_error(code, stdout, stderr, "ValueError", out)
    assert json.loads(stderr)["error"]["message"].startswith(option[0] + " applies to CSV data")


def test_learn_injected_needs_only_the_queries_selection_asks(tmp_path, capsys):
    # Selection never scores a non-member whose marginal p-value is at or
    # above its first score, so an injected table may lack those queries.
    names = [f"V{i}" for i in range(8)]
    table = {key: p**6 for key, p in random_ptable(names, np.random.default_rng(5)).items()}
    engine = CIEngine(InjectedBackend(dict(table)))
    learn_structure(names, engine)
    asked = {key: table[key] for key in cache_dump(engine)}
    # The full scan asks a query the table lacks.
    with mock.patch.object(maximize, "q_value", full_scan_q_value):
        with pytest.raises(errors.UninjectedQuery):
            learn_structure(names, CIEngine(InjectedBackend(dict(asked))))
    outputs = []
    for name, entries in (("complete", table), ("asked", asked)):
        out = tmp_path / f"{name}-graph.json"
        data = write_injected(tmp_path / f"{name}.json", ptable_entries(entries))
        code, _, _ = run(
            capsys, "learn", "--data", data, "--backend", "injected",
            "--out", str(out), "--format", "json",
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    # A query of the winner's closing scores is still asked: the non-member
    # with the largest marginal p-value, given the whole winning set.
    family = forward_step("V0", names, engine)
    chosen = maximization_step("V0", family, names, engine).chosen
    assert 1 <= len(chosen) <= 3
    other = max((v for v in names[1:] if v not in chosen), key=lambda v: table[("V0", v, ())])
    closing = canonical_key("V0", other, chosen)
    lacking = {key: p for key, p in asked.items() if key != closing}
    data = write_injected(tmp_path / "closing.json", ptable_entries(lacking))
    out = tmp_path / "closing-graph.json"
    code, stdout, stderr = run(
        capsys, "learn", "--data", data, "--backend", "injected", "--out", str(out), "--format", "json"
    )
    assert_input_error(code, stdout, stderr, "UninjectedQuery", out)
