from causeweave import (
    CIEngine,
    InjectedBackend,
    OracleBackend,
    learn_structure,
    pc_stable,
)
from causeweave.pcstable import pc_stable_skeleton
from conftest import EXAMPLE1_ENTRIES
from oracle_helpers import ptable_entries, random_dag, random_ptable

VARS3 = ["X", "Y", "Z"]


def test_example1_contrast(example1_engine):
    # the baseline removes both edges at X; the two-step learner keeps one
    skeleton = pc_stable_skeleton(VARS3, example1_engine, alpha=0.05)
    seps = skeleton.sepsets
    assert skeleton.skeleton_pairs() == {("Y", "Z")}
    assert seps[("X", "Y")].witness == ("Z",)
    assert seps[("X", "Y")].p_value == 0.30
    assert seps[("X", "Z")].witness == ("Y",)

    proposed = learn_structure(
        VARS3, CIEngine(InjectedBackend.from_entries(EXAMPLE1_ENTRIES)), alpha=0.05
    )
    x_edges_proposed = [p for p in proposed.skeleton_pairs() if "X" in p]
    x_edges_pc = [p for p in skeleton.skeleton_pairs() if "X" in p]
    assert len(x_edges_proposed) == 1
    assert len(x_edges_pc) == 0


def test_fully_independent_gives_empty_graph():
    entries = [{"x": "A", "y": "B", "p": 0.9}, {"x": "A", "y": "C", "p": 0.7},
               {"x": "B", "y": "C", "p": 0.8}]
    skeleton = pc_stable_skeleton(["A", "B", "C"], CIEngine(InjectedBackend.from_entries(entries)))
    assert skeleton.skeleton_pairs() == set()
    assert len(skeleton.sepsets) == 3  # every deleted pair keeps its separator


def test_oracle_skeleton_is_exact(rng):
    for _ in range(25):
        k = int(rng.integers(4, 9))
        dag = random_dag(k, rng, edge_prob=0.3, max_degree=3)
        engine = CIEngine(OracleBackend(dag))
        skeleton = pc_stable_skeleton(dag.vertices, engine, alpha=0.05, m_ci=3)
        assert skeleton.skeleton_pairs() == dag.skeleton_pairs(), sorted(dag.edges)


def test_order_independence(rng):
    for _ in range(10):
        names = [f"T{i}" for i in range(6)]
        table = random_ptable(names, rng)
        alpha = float(rng.uniform(0.2, 0.8))
        engine = CIEngine(InjectedBackend.from_entries(ptable_entries(table)))
        base = pc_stable_skeleton(names, engine, alpha=alpha, m_ci=3)
        perm = list(rng.permutation(names))
        engine2 = CIEngine(InjectedBackend.from_entries(ptable_entries(table)))
        shuffled = pc_stable_skeleton(perm, engine2, alpha=alpha, m_ci=3)
        assert base.skeleton_pairs() == shuffled.skeleton_pairs()
        assert base.sepsets == shuffled.sepsets


def test_pc_stable_full_pipeline_orients(example1_engine):
    g = pc_stable(VARS3, example1_engine, alpha=0.05)
    assert g.skeleton_pairs() == {("Y", "Z")}
    assert g.is_acyclic()


def test_no_query_is_asked_twice(rng):
    # Level 0 offers the empty set from both endpoints, and deeper levels
    # offer every subset of the shared neighbours twice.
    engines = []
    for _ in range(10):
        dag = random_dag(int(rng.integers(4, 9)), rng, edge_prob=0.4, max_degree=4)
        engines.append((dag.vertices, CIEngine(OracleBackend(dag)), 0.05))
    for _ in range(10):
        names = [f"T{i}" for i in range(6)]
        table = random_ptable(names, rng)
        engine = CIEngine(InjectedBackend.from_entries(ptable_entries(table)))
        engines.append((names, engine, float(rng.uniform(0.2, 0.8))))
    for variables, engine, alpha in engines:
        with engine.trace() as log:
            pc_stable_skeleton(variables, engine, alpha=alpha, m_ci=3)
        assert log and len(log) == len(set(log))
