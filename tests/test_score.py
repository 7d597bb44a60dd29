import math

import numpy as np
import pytest

from causeweave import (
    CIEngine,
    OracleBackend,
    PriorKnowledge,
    bic_of_graph,
    learn_structure,
    make_backend,
    pc_stable,
)
from causeweave.dataset import VariableSchema, from_raw
from causeweave.errors import MissingColumn
from causeweave.score import dag_extension, fit_local
from causeweave.skeleton_orient import Cpdag, SeparationRecord, orient
from causeweave.simgen import make_discrete_net
from oracle_helpers import random_dag, reference_dag_extension


def binary_counts_data(counts):
    """Two binary variables realized with the given 2x2 cell counts."""
    a_cells, b_cells = [], []
    for ia in (0, 1):
        for ib in (0, 1):
            a_cells += [str(ia)] * counts[ia][ib]
            b_cells += [str(ib)] * counts[ia][ib]
    schema = (
        VariableSchema("a", "categorical", ("0", "1")),
        VariableSchema("b", "categorical", ("0", "1")),
    )
    return from_raw(schema, {"a": a_cells, "b": b_cells})


def continuous_data(cols):
    schema = tuple(VariableSchema(n, "continuous") for n in sorted(cols))
    return from_raw(schema, {n: list(v) for n, v in cols.items()})


def test_empty_parents_is_null_model():
    data = binary_counts_data([[30, 10], [10, 30]])
    fit = fit_local(data, "a", ())
    assert fit.loglik_star == 0.0 and fit.df == 0


def test_binary_local_gain_equals_half_g_statistic():
    data = binary_counts_data([[30, 10], [10, 30]])
    fit = fit_local(data, "a", ("b",))
    g = CIEngine(make_backend(data, "gtest")).test("a", "b").statistic
    assert fit.loglik_star == pytest.approx(g / 2.0, rel=1e-10)
    assert fit.df == 1


def test_half_g_identity_on_random_tables(rng):
    for _ in range(100):
        counts = rng.integers(1, 40, size=(2, 2)).tolist()
        data = binary_counts_data(counts)
        fit = fit_local(data, "a", ("b",))
        g = CIEngine(make_backend(data, "gtest")).test("a", "b").statistic
        assert fit.loglik_star == pytest.approx(g / 2.0, rel=1e-8, abs=1e-10)


def test_noiseless_regression_fit():
    parent = np.linspace(-2, 2, 50)
    data = continuous_data({"p": parent, "x": 2.0 * parent})
    fit = fit_local(data, "x", ("p",))
    assert fit.df == 1
    assert fit.loglik_star > 100.0  # essentially perfect fit, floored finite


def test_regression_drops_collinear_columns():
    parent = np.linspace(-2, 2, 50)
    data = continuous_data({"p": parent, "q": 3.0 * parent, "x": 2.0 * parent + 0.1})
    fit = fit_local(data, "x", ("p", "q"))
    assert fit.df == 1  # q is collinear with p


def test_loglik_star_nonnegative_and_monotone(rng):
    labels = ("0", "1", "2")
    schema = tuple(VariableSchema(n, "categorical", labels) for n in "abc")
    raw = {n: [labels[i] for i in rng.integers(0, 3, size=120)] for n in "abc"}
    data = from_raw(schema, raw)
    small = fit_local(data, "a", ("b",))
    big = fit_local(data, "a", ("b", "c"))
    assert small.loglik_star >= 0.0
    assert big.loglik_star >= small.loglik_star - 1e-9


def test_empty_graph_bic_zero(rng):
    labels = ("0", "1")
    schema = tuple(VariableSchema(n, "categorical", labels) for n in "ab")
    raw = {n: [labels[i] for i in rng.integers(0, 2, size=50)] for n in "ab"}
    data = from_raw(schema, raw)
    report = bic_of_graph(data, Cpdag(vertices=("a", "b")))
    assert report.bic == 0.0
    assert report.total_df == 0 and report.total_loglik_star == 0.0


def test_bic_decomposes_over_vertices(rng):
    labels = ("0", "1")
    schema = tuple(VariableSchema(n, "categorical", labels) for n in "abc")
    cols = {n: rng.integers(0, 2, size=200) for n in "abc"}
    cols["b"] = (cols["a"] + rng.integers(0, 2, size=200)) % 2
    raw = {n: [labels[i] for i in v] for n, v in cols.items()}
    data = from_raw(schema, raw)
    g = Cpdag(vertices=("a", "b", "c"), directed={("a", "b"), ("b", "c")})
    report = bic_of_graph(data, g)
    manual_ll = sum(
        fit_local(data, v, parents).loglik_star
        for v, parents in (("a", ()), ("b", ("a",)), ("c", ("b",)))
    )
    manual_df = sum(
        fit_local(data, v, parents).df
        for v, parents in (("a", ()), ("b", ("a",)), ("c", ("b",)))
    )
    assert report.total_loglik_star == pytest.approx(manual_ll)
    assert report.bic == pytest.approx(-2 * manual_ll + manual_df * math.log(200))


def test_bic_invariant_under_level_relabeling(rng):
    labels = ("0", "1", "2")
    schema = tuple(VariableSchema(n, "categorical", labels) for n in "ab")
    cols = {n: rng.integers(0, 3, size=150) for n in "ab"}
    data = from_raw(schema, {n: [labels[i] for i in v] for n, v in cols.items()})
    relabeled = from_raw(
        schema, {n: [labels[(i + 1) % 3] for i in v] for n, v in cols.items()}
    )
    g = Cpdag(vertices=("a", "b"), directed={("a", "b")})
    assert bic_of_graph(data, g).bic == pytest.approx(bic_of_graph(relabeled, g).bic)


def test_true_edge_usually_lowers_bic(rng):
    labels = ("0", "1")
    schema = tuple(VariableSchema(n, "categorical", labels) for n in "ab")
    wins = 0
    for rep in range(100):
        r = np.random.default_rng([7, rep])
        a = r.integers(0, 2, size=300)
        flip = r.random(300) < 0.15
        b = np.where(flip, 1 - a, a)
        data = from_raw(
            schema, {"a": [labels[i] for i in a], "b": [labels[i] for i in b]}
        )
        empty = bic_of_graph(data, Cpdag(vertices=("a", "b")))
        edged = bic_of_graph(data, Cpdag(vertices=("a", "b"), directed={("a", "b")}))
        wins += edged.bic < empty.bic
    assert wins > 50


def test_bic_refuses_a_graph_vertex_missing_from_the_data():
    data = binary_counts_data([[30, 10], [10, 30]])
    # Data columns outside the graph are allowed: a graph learned after
    # dropping a column is scored against the full table.
    assert bic_of_graph(data, Cpdag(vertices=("a",))).total_df == 0
    for graph in (
        Cpdag(vertices=("Q", "P")),
        Cpdag(vertices=("a", "P", "Q"), directed={("P", "Q")}),
    ):
        with pytest.raises(MissingColumn, match="vertex 'P'"):
            bic_of_graph(data, graph)


def test_dag_extension_orients_everything():
    g = Cpdag(
        vertices=("a", "b", "c", "d"),
        directed={("a", "b")},
        undirected={("b", "c"), ("c", "d")},
    )
    ext = dag_extension(g)
    assert ext.undirected == set()
    assert ext.is_acyclic()
    assert ext.skeleton_pairs() == g.skeleton_pairs()


def test_orient_leaves_no_undirected_edge_along_a_directed_path(rng):
    # ``dag_extension`` directs an undirected edge of ``orient``'s output as
    # it is stored; this invariant is why that never closes a cycle.
    left = 0
    for _ in range(300):
        dag = random_dag(int(rng.integers(3, 9)), rng, edge_prob=0.4)
        directed = {e for e in sorted(dag.edges) if rng.random() < 0.5}
        g = orient(Cpdag(dag.vertices, directed=directed, undirected=dag.edges - directed), None)
        for a, b in g.undirected:
            assert not g.has_directed_path(a, b) and not g.has_directed_path(b, a)
        left += len(g.undirected)
    assert left > 100


def test_dag_extension_forms_no_collider_from_sepsets():
    # The sepset would make X->Z<-Y a collider; the extension extends the
    # edges the graph shows and commits the smallest edge first instead.
    chain = Cpdag(
        vertices=("X", "Y", "Z"),
        undirected={("X", "Z"), ("Y", "Z")},
        sepsets={("X", "Y"): SeparationRecord(p_value=0.4, witness=())},
    )
    assert dag_extension(chain).directed == {("X", "Z"), ("Z", "Y")}
    assert chain.sepsets and chain.undirected == {("X", "Z"), ("Y", "Z")}


def learned_graphs():
    """Both learners' graphs, without and with a tier prior, on random oracle
    DAGs and on two samples of the categorical benchmark's size (k = 20
    binary variables, n = 500)."""
    rng = np.random.default_rng(33)
    cases = []
    for _ in range(6):
        dag = random_dag(int(rng.integers(5, 10)), rng, edge_prob=0.4, max_degree=3)
        cases.append((list(dag.vertices), OracleBackend(dag), {}))
    for seed in (1, 2):
        data = make_discrete_net(20, 3, 2, seed=[seed, 0]).sample(500, seed=[seed, 1])
        cases.append((list(data.names), make_backend(data), {"alpha": 0.05, "m_ci": 3}))
    for variables, backend, settings in cases:
        tiers = PriorKnowledge(tiers={v: i // 4 for i, v in enumerate(variables)})
        for learner in (learn_structure, pc_stable):
            for prior in (None, tiers):
                yield learner(variables, CIEngine(backend), prior=prior, **settings)


def test_dag_extension_equals_the_per_edge_reference_on_learned_graphs():
    graphs = list(learned_graphs())
    assert sum(len(g.undirected) for g in graphs) > 50
    for g in graphs:
        assert dag_extension(g).to_json() == reference_dag_extension(g).to_json()


def test_dag_extension_equals_the_per_edge_reference_on_random_graphs(rng):
    for _ in range(300):
        dag = random_dag(int(rng.integers(3, 10)), rng, edge_prob=0.4)
        directed = {e for e in sorted(dag.edges) if rng.random() < 0.4}
        g = Cpdag(
            dag.vertices,
            directed=directed,
            undirected=dag.edges - directed,
            edge_significance={tuple(sorted(e)): float(rng.random()) for e in sorted(dag.edges)},
        )
        assert dag_extension(g).to_json() == reference_dag_extension(g).to_json()


def test_mixed_parent_regression(rng):
    disc = rng.integers(0, 2, size=200)
    cont = rng.standard_normal(200)
    y = 1.5 * disc + 0.5 * cont + rng.standard_normal(200) * 0.2
    schema = (
        VariableSchema("d", "categorical", ("0", "1")),
        VariableSchema("p", "continuous"),
        VariableSchema("y", "continuous"),
    )
    data = from_raw(
        schema, {"d": [str(v) for v in disc], "p": list(cont), "y": list(y)}
    )
    fit = fit_local(data, "y", ("d", "p"))
    assert fit.df == 2  # one dummy + one slope
    assert fit.loglik_star > 50.0


def test_discrete_child_continuous_parent(rng):
    cont = rng.standard_normal(400)
    probs = 1.0 / (1.0 + np.exp(-2.0 * cont))
    child = (rng.random(400) < probs).astype(int)
    schema = (
        VariableSchema("c", "categorical", ("0", "1")),
        VariableSchema("p", "continuous"),
    )
    data = from_raw(schema, {"c": [str(v) for v in child], "p": list(cont)})
    fit = fit_local(data, "c", ("p",))
    assert fit.df == (2 - 1) * (5 - 1)  # quintile-binned parent configurations
    assert fit.loglik_star > 10.0
