"""Learned graphs do not depend on how levels are labelled, and a constant
column changes nothing but its own, isolated vertex.

Both learners run with the G-test on ``make_discrete_net(10, 3, 3)``
samples of 400 rows, seeds 0-5.
"""

import math

import numpy as np
import pytest

from causeweave import CIEngine, learn_structure, pc_stable
from causeweave.citest import GTestBackend
from causeweave.dataset import Dataset, VariableSchema
from causeweave.simgen import make_discrete_net

SEEDS = range(6)


def sample(seed: int) -> Dataset:
    return make_discrete_net(10, 3, 3, seed=[seed, 0]).sample(400, seed=[seed, 1])


def learn(learner, data: Dataset) -> dict:
    return learner(list(data.names), CIEngine(GTestBackend(data)), alpha=0.05, m_ci=3).to_json_obj()


def relabelled(data: Dataset, rng: np.random.Generator) -> Dataset:
    """Every variable's declared levels permuted, every cell recoded to keep its label."""
    schema, columns = [], {}
    for var in data.schema:
        order = rng.permutation(len(var.levels))
        schema.append(VariableSchema(var.name, var.kind, tuple(var.levels[i] for i in order)))
        columns[var.name] = np.argsort(order)[data.columns[var.name]]
    return Dataset(schema=tuple(schema), columns=columns, n=data.n)


def with_constant(data: Dataset, name: str, at: int) -> Dataset:
    """``data`` with a categorical column ``name`` that holds one level only."""
    schema = list(data.schema)
    schema.insert(at, VariableSchema(name, "categorical", ("only", "never")))
    columns = {**data.columns, name: np.zeros(data.n, dtype=np.int64)}
    return Dataset(schema=tuple(schema), columns=columns, n=data.n)


def p_values(obj: dict) -> list[float]:
    return [row[-1] for row in obj["significance"] + obj["sepsets"]]


def structure(obj: dict) -> dict:
    """The graph without its p-values: edges, directions and witnesses."""
    return {
        "vertices": obj["vertices"],
        "directed": obj["directed"],
        "undirected": obj["undirected"],
        "significance": [row[:-1] for row in obj["significance"]],
        "sepsets": [row[:-1] for row in obj["sepsets"]],
    }


@pytest.mark.parametrize("learner", [learn_structure, pc_stable], ids=lambda f: f.__name__)
@pytest.mark.parametrize("seed", SEEDS)
def test_graph_independent_of_level_labels(seed, learner):
    data = sample(seed)
    expected = learn(learner, data)
    got = learn(learner, relabelled(data, np.random.default_rng(seed)))
    assert structure(got) == structure(expected)
    # The same tables, counted in another cell order: sums may round apart.
    for a, b in zip(p_values(got), p_values(expected)):
        assert math.isclose(a, b, rel_tol=1e-12), (a, b)


@pytest.mark.parametrize("learner", [learn_structure, pc_stable], ids=lambda f: f.__name__)
@pytest.mark.parametrize("seed", SEEDS)
def test_constant_column_is_isolated_and_changes_nothing_else(seed, learner):
    data = sample(seed)
    expected = learn(learner, data)
    got = learn(learner, with_constant(data, "K", at=5))
    assert got["vertices"].pop(5) == "K"
    assert not any("K" in pair for pair in got["directed"] + got["undirected"])
    got["sepsets"] = [row for row in got["sepsets"] if "K" not in row[:2]]
    assert got == expected
