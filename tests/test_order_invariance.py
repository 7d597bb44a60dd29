"""Learned graphs do not depend on the order of the variable list.

Both learners run on the variables in their given order and on shuffles of
it; apart from ``vertices``, which echoes the order, the graphs serialize
alike: edges, directions, edge significance and separating sets.
"""

import json

import numpy as np
import pytest

from causeweave import CIEngine, learn_structure, pc_stable
from causeweave.citest import GTestBackend, make_backend
from causeweave.cli import main
from causeweave.dataset import Dataset, VariableSchema
from causeweave.skeleton_orient import PriorKnowledge
from oracle_helpers import decode
from test_replay import categorical, continuous, mixed

DATA = {"gtest": categorical, "fisherz": continuous, "auto": mixed}


def without_vertices(obj):
    return {key: value for key, value in obj.items() if key != "vertices"}


@pytest.mark.parametrize("tiers", [False, True], ids=["no-prior", "tiers"])
@pytest.mark.parametrize("learner", [learn_structure, pc_stable], ids=lambda f: f.__name__)
@pytest.mark.parametrize("kind", ["gtest", "fisherz", "auto"])
def test_graph_independent_of_variable_order(kind, learner, tiers):
    data = DATA[kind](5)
    names = list(data.names)
    prior = PriorKnowledge(tiers={v: i // 3 for i, v in enumerate(names)}) if tiers else None

    def learn(order):
        engine = CIEngine(make_backend(data, kind))
        return without_vertices(learner(order, engine, prior=prior).to_json_obj())

    expected = learn(names)
    assert expected["undirected"] or expected["directed"]
    rng = np.random.default_rng(len(names))
    for order in (names[::-1], [names[i] for i in rng.permutation(len(names))]):
        assert learn(order) == expected, order


def cli_graphs(tmp_path, capsys, data, *options):
    """``learn`` on ``data`` written as one CSV, its schema given in order
    and then reversed: the two graph documents without ``vertices``."""
    entries = []
    for var in data.schema:
        entry = {"name": var.name, "kind": var.kind}
        if var.is_discrete:
            entry["levels"] = list(var.levels)
        entries.append(entry)
    csv = tmp_path / "d.csv"
    csv.write_text(",".join(data.names) + "\n" + "".join(
        ",".join(map(str, row)) + "\n" for row in zip(*decode(data).values())
    ))
    graphs = []
    for label, schema in (("given", entries), ("reversed", entries[::-1])):
        schema_path = tmp_path / f"{label}.json"
        schema_path.write_text(json.dumps(schema))
        out = tmp_path / f"{label}-graph.json"
        code = main([
            "learn", "--data", str(csv), "--schema", str(schema_path),
            "--out", str(out), "--format", "json", *options,
        ])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["vertices"] == [e["name"] for e in schema]
        graphs.append(without_vertices(doc))
    return graphs


@pytest.mark.parametrize("algorithm", ["proposed", "pc-stable"])
def test_cli_learn_independent_of_schema_order(tmp_path, capsys, algorithm):
    graphs = cli_graphs(tmp_path, capsys, mixed(6), "--algorithm", algorithm)
    assert graphs[0] == graphs[1]
    assert graphs[0]["undirected"] or graphs[0]["directed"]


def with_copy(data, name, copy):
    """``data`` with a column ``copy`` equal to ``name`` cell for cell."""
    var = data.variable(name)
    schema = (*data.schema, VariableSchema(copy, var.kind, var.levels))
    return Dataset(schema=schema, columns={**data.columns, copy: data.columns[name]}, n=data.n)


@pytest.mark.parametrize("algorithm", ["proposed", "pc-stable"])
def test_duplicated_column_learns_independent_of_order(tmp_path, capsys, algorithm):
    data = with_copy(categorical(5), "V03", "copy")
    names = list(data.names)
    learner = learn_structure if algorithm == "proposed" else pc_stable

    def learn(order):
        return without_vertices(learner(order, CIEngine(GTestBackend(data))).to_json_obj())

    expected = learn(names)
    # A column and its copy are dependent given anything.
    assert {"V03", "copy"} in [set(edge) for edge in expected["undirected"] + expected["directed"]]
    rng = np.random.default_rng(len(names))
    for order in (names[::-1], [names[i] for i in rng.permutation(len(names))]):
        assert learn(order) == expected, order
    graphs = cli_graphs(tmp_path, capsys, data, "--algorithm", algorithm, "--backend", "gtest")
    assert graphs[0] == graphs[1] == expected
