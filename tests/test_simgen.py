import numpy as np
import pytest

from causeweave import (
    LinearSemSpec,
    evaluate_recovery,
    gen_linear_sem,
    make_discrete_net,
)
from causeweave.citest import OracleGraph
from causeweave.errors import VertexMismatch
from causeweave.simgen import roc_curve, skeleton_rates
from causeweave.skeleton_orient import Cpdag
from oracle_helpers import random_dag


def cpdag_with(vertices, pairs):
    return Cpdag(vertices=tuple(vertices), undirected={tuple(sorted(p)) for p in pairs})


def test_zero_signal_gives_independent_standard_normals():
    spec = LinearSemSpec(k=5, rho=0.5, theta=0.0, n=2000, seed=3)
    data, _ = gen_linear_sem(spec)
    block = np.column_stack([data.columns[n] for n in data.names])
    assert np.all(np.abs(block.mean(axis=0)) < 4 / np.sqrt(2000))
    assert np.all(np.abs(block.std(axis=0) - 1.0) < 0.15)
    corr = np.corrcoef(block.T)
    off = corr[~np.eye(5, dtype=bool)]
    assert np.all(np.abs(off) < 4 / np.sqrt(2000))


def test_edge_count_concentrates_at_rho():
    rho, k, draws = 0.25, 8, 1000
    pairs = k * (k - 1) // 2
    total = sum(
        len(gen_linear_sem(LinearSemSpec(k=k, rho=rho, theta=0.5, n=1, seed=s))[1].edges)
        for s in range(draws)
    )
    mean = draws * pairs * rho
    se = np.sqrt(draws * pairs * rho * (1 - rho))
    assert abs(total - mean) < 3 * se


def test_linear_sem_deterministic():
    spec = LinearSemSpec(k=6, rho=0.3, theta=0.5, n=100, seed=11)
    d1, g1 = gen_linear_sem(spec)
    d2, g2 = gen_linear_sem(spec)
    assert g1.edges == g2.edges
    for name in d1.names:
        assert np.array_equal(d1.columns[name], d2.columns[name])


def test_linear_sem_graph_matches_columns():
    # the returned DAG must describe the *permuted* columns: regressing a
    # child on its parents must explain variance at strong signal
    spec = LinearSemSpec(k=6, rho=0.4, theta=2.0, n=4000, seed=5)
    data, dag = gen_linear_sem(spec)
    for child in dag.vertices:
        parents = dag.parents(child)
        if not parents:
            continue
        y = data.columns[child]
        design = np.column_stack([data.columns[p] for p in parents])
        beta, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ beta
        assert resid.var() < 0.75 * y.var()


def test_discrete_net_single_vertex():
    net = make_discrete_net(k=1, max_parents=2, levels=3, seed=[4, 0])
    data, dag = net.sample(500, seed=[4, 1]), net.graph
    assert dag.edges == frozenset()
    assert set(np.unique(data.columns[data.names[0]])) <= {0, 1, 2}


def test_discrete_net_matches_cpt_product():
    net = make_discrete_net(k=3, max_parents=2, levels=2, seed=9)
    data = net.sample(100_000, seed=10)
    verts = net.graph.vertices
    emp = np.zeros((2, 2, 2))
    cols = [data.columns[v] for v in verts]
    for combo in range(8):
        bits = [(combo >> i) & 1 for i in range(3)]
        emp[tuple(bits)] = np.mean(
            (cols[0] == bits[0]) & (cols[1] == bits[1]) & (cols[2] == bits[2])
        )
    exact = np.zeros((2, 2, 2))
    order = net.graph.topological_order
    for combo in range(8):
        values = {verts[i]: (combo >> i) & 1 for i in range(3)}
        p = 1.0
        for v in order:
            cfg = 0
            for parent in net.graph.parents(v):
                cfg = cfg * 2 + values[parent]
            p *= net.cpts[v][cfg, values[v]]
        exact[tuple(values[verts[i]] for i in range(3))] = p
    assert 0.5 * np.abs(emp - exact).sum() <= 0.01


def test_discrete_net_deterministic():
    n1 = make_discrete_net(k=5, max_parents=2, levels=3, seed=[21, 0])
    n2 = make_discrete_net(k=5, max_parents=2, levels=3, seed=[21, 0])
    d1, d2 = n1.sample(200, seed=[21, 1]), n2.sample(200, seed=[21, 1])
    assert n1.graph.edges == n2.graph.edges
    for name in d1.names:
        assert np.array_equal(d1.columns[name], d2.columns[name])


def test_random_dag_respects_degree_cap(rng):
    for _ in range(20):
        dag = random_dag(8, rng, edge_prob=0.9, max_degree=3)
        degree = {v: 0 for v in dag.vertices}
        for a, b in dag.edges:
            degree[a] += 1
            degree[b] += 1
        assert max(degree.values()) <= 3


def test_perfect_recovery_report():
    truth = OracleGraph(vertices=("a", "b", "c"), edges=frozenset({("a", "b")}))
    learned = [cpdag_with("abc", [("a", "b")]) for _ in range(4)]
    rep = evaluate_recovery(truth, learned)
    assert rep.tpr == 1.0 and rep.tnr == 1.0
    assert rep.auc == 1.0
    assert rep.reps == 4


def test_empty_recovery_report():
    truth = OracleGraph(vertices=("a", "b", "c"), edges=frozenset({("a", "b")}))
    learned = [cpdag_with("abc", []) for _ in range(3)]
    rep = evaluate_recovery(truth, learned)
    assert rep.tpr == 0.0 and rep.tnr == 1.0


def test_hand_built_three_rep_report():
    truth = OracleGraph(vertices=("a", "b", "c"), edges=frozenset({("a", "b")}))
    learned = [
        cpdag_with("abc", [("a", "b")]),
        cpdag_with("abc", [("a", "b"), ("b", "c")]),
        cpdag_with("abc", [("b", "c")]),
    ]
    rep = evaluate_recovery(truth, learned)
    assert rep.edge_freq[("a", "b")] == pytest.approx(2 / 3)
    assert rep.edge_freq[("b", "c")] == pytest.approx(2 / 3)
    assert rep.edge_freq[("a", "c")] == 0.0
    assert rep.tpr == pytest.approx(2 / 3)
    assert rep.tnr == pytest.approx(2 / 3)
    # cutting above 2/3 keeps nothing; at 2/3 keeps both frequent pairs
    assert rep.roc == ((0.0, 0.0), (0.5, 1.0), (1.0, 1.0))
    assert rep.auc == pytest.approx(0.75)


def test_roc_endpoints_and_tie_collapse():
    truth = {("a", "b")}
    pairs = [("a", "b"), ("a", "c"), ("b", "c")]
    curve, auc = roc_curve(truth, pairs, {("a", "b"): 1.0, ("a", "c"): 0.0, ("b", "c"): 0.0})
    assert curve[0] == (0.0, 1.0)  # the true edge alone comes first, fpr 0
    assert curve[-1] == (1.0, 1.0)
    assert auc == 1.0


def test_auc_invariant_under_rep_reordering(rng):
    truth = OracleGraph(vertices=("a", "b", "c", "d"), edges=frozenset({("a", "b"), ("c", "d")}))
    reps = []
    for _ in range(6):
        pairs = [p for p in [("a", "b"), ("c", "d"), ("a", "c")] if rng.random() < 0.6]
        reps.append(cpdag_with("abcd", pairs))
    fwd = evaluate_recovery(truth, reps)
    rev = evaluate_recovery(truth, list(reversed(reps)))
    assert fwd.auc == rev.auc
    assert fwd.edge_freq == rev.edge_freq


def test_metrics_invariant_under_relabeling():
    truth = OracleGraph(vertices=("a", "b", "c"), edges=frozenset({("a", "b")}))
    learned = [cpdag_with("abc", [("a", "b"), ("b", "c")])]
    base = evaluate_recovery(truth, learned)
    mapping = {"a": "x", "b": "y", "c": "z"}
    truth2 = OracleGraph(
        vertices=("x", "y", "z"),
        edges=frozenset({(mapping[u], mapping[v]) for u, v in truth.edges}),
    )
    learned2 = [cpdag_with("xyz", [("x", "y"), ("y", "z")])]
    other = evaluate_recovery(truth2, learned2)
    assert (base.tpr, base.tnr, base.auc) == (other.tpr, other.tnr, other.auc)


def test_vertex_mismatch_rejected():
    truth = OracleGraph(vertices=("a", "b"), edges=frozenset())
    with pytest.raises(VertexMismatch):
        evaluate_recovery(truth, [cpdag_with("xy", [])])


def test_per_rep_truths_skip_roc(rng):
    # A sequence of truths never gets a curve, even one of length one or one
    # repeating a single graph object.
    for truths in (
        [random_dag(4, rng, edge_prob=0.4) for _ in range(3)],
        [random_dag(4, rng, edge_prob=0.4)],
        [random_dag(4, rng, edge_prob=0.4)] * 2,
    ):
        learned = [cpdag_with(t.vertices, list(t.skeleton_pairs())) for t in truths]
        rep = evaluate_recovery(truths, learned)
        assert rep.tpr == 1.0 and rep.tnr == 1.0
        assert rep.roc is None and rep.auc is None


def test_skeleton_rates_degenerate_conventions():
    no_edges = OracleGraph(vertices=("a", "b"), edges=frozenset())
    tpr, tnr = skeleton_rates(no_edges, cpdag_with("ab", []))
    assert tpr == 1.0 and tnr == 1.0


def test_discrete_net_refuses_negative_max_parents():
    with pytest.raises(ValueError, match=r"^max_parents must be >= 0, got -1$"):
        make_discrete_net(k=3, max_parents=-1, levels=2, seed=0)
    assert make_discrete_net(k=3, max_parents=0, levels=2, seed=0).graph.edges == frozenset()
