import json

import numpy as np
import pytest

from causeweave import (
    CIEngine,
    InjectedBackend,
    OracleBackend,
    OracleGraph,
)
from causeweave.cli import main
from causeweave.errors import BudgetExceeded
from causeweave.forward import ForwardSearch, forward_step
from oracle_helpers import (
    all_admissible_sets,
    definitional_extensions,
    maximal_sets,
    ptable_entries,
    random_dag,
    random_ptable,
)

VARS3 = ["X", "Y", "Z"]


def engine_for(table):
    return CIEngine(InjectedBackend.from_entries(ptable_entries(table)))


def test_example1_extensions(example1_engine):
    search = ForwardSearch("X", VARS3, example1_engine, alpha=0.05)
    search.run()
    assert search.memo[()] == {"Y", "Z"}
    assert search.memo[("Y",)] == frozenset()
    assert search.memo[("Z",)] == frozenset()


def test_example1_family(example1_engine):
    fam = forward_step("X", VARS3, example1_engine, alpha=0.05)
    assert tuple(map(frozenset, fam.family)) == (frozenset({"Y"}), frozenset({"Z"}))


def test_isolated_target_yields_empty_set_family():
    entries = [
        {"x": "X", "y": "Y", "p": 0.9}, {"x": "X", "y": "Z", "p": 0.8},
        {"x": "Y", "y": "Z", "p": 0.9}, {"x": "X", "y": "Y", "s": ["Z"], "p": 0.9},
        {"x": "X", "y": "Z", "s": ["Y"], "p": 0.9}, {"x": "Y", "y": "Z", "s": ["X"], "p": 0.9},
    ]
    fam = forward_step("X", VARS3, CIEngine(InjectedBackend.from_entries(entries)), alpha=0.05)
    assert tuple(map(frozenset, fam.family)) == (frozenset(),)


def test_extensions_match_definitional_enumeration(rng):
    # Incremental computation vs. brute-force admissibility over all subsets.
    for trial in range(40):
        k = int(rng.integers(3, 7))
        names = [f"T{i}" for i in range(k)]
        table = random_ptable(names, rng)
        alpha = float(rng.uniform(0.2, 0.8))
        target = names[int(rng.integers(0, k))]
        order = [v for v in names if v != target]
        search = ForwardSearch(target, names, engine_for(table), alpha=alpha, m_ci=k)
        fam = search.run()
        for s, computed in search.memo.items():
            expected = definitional_extensions(table, alpha, target, order, s)
            assert computed == expected, (trial, target, sorted(s))
        expected_family = maximal_sets(set(all_admissible_sets(table, alpha, target, order)))
        assert set(map(frozenset, fam.family)) == expected_family


def test_only_admissible_sets_expanded(rng):
    # Pruning: a set violating the membership condition is never scheduled.
    for _ in range(15):
        names = [f"T{i}" for i in range(5)]
        table = random_ptable(names, rng)
        alpha = float(rng.uniform(0.2, 0.8))
        target = names[0]
        order = [v for v in names if v != target]
        search = ForwardSearch(target, names, engine_for(table), alpha=alpha, m_ci=5)
        search.run()
        from oracle_helpers import admissible

        for s in search.memo:
            assert admissible(table, alpha, target, s), sorted(s)


def test_extension_sets_shrink_with_growth(rng):
    # Any expanded superset has an extension set contained in its subsets'.
    names = [f"T{i}" for i in range(6)]
    table = random_ptable(names, rng)
    search = ForwardSearch("T0", names, engine_for(table), alpha=0.5, m_ci=6)
    search.run()
    for s, ext in search.memo.items():
        for i in range(len(s)):
            assert ext <= search.memo[s[:i] + s[i + 1 :]]


def test_each_set_expanded_once_and_family_in_rank_order(rng):
    # A set is made only from the set without its last member, so the search
    # expands as many sets as its memo holds, and the family comes out
    # sorted by (size, member ranks) with each member tuple in rank order.
    for trial in range(40):
        k = int(rng.integers(3, 7))
        names = [str(v) for v in rng.permutation([f"T{i}" for i in range(k)])]
        table = random_ptable(names, rng)
        alpha = float(rng.uniform(0.2, 0.8))
        m_ci = int(rng.integers(1, k + 1))
        search = ForwardSearch(names[0], names, engine_for(table), alpha=alpha, m_ci=m_ci)
        fam = search.run()
        assert search.expanded == len(search.memo), trial
        ranks = [[search.rank[v] for v in c] for c in fam.family]
        assert all(r == sorted(r) for r in ranks), (trial, fam.family)
        keys = [(len(r), r) for r in ranks]
        assert keys == sorted(keys), (trial, fam.family)


def test_no_repeated_query_within_forward_step(rng):
    for _ in range(10):
        names = [f"T{i}" for i in range(6)]
        table = random_ptable(names, rng)
        engine = engine_for(table)
        with engine.trace() as log:
            forward_step("T2", names, engine, alpha=0.5, m_ci=3)
        assert len(log) == len(set(log))


def test_family_is_antichain(rng):
    for _ in range(10):
        names = [f"T{i}" for i in range(6)]
        table = random_ptable(names, rng)
        fam = forward_step("T1", names, engine_for(table), alpha=0.5, m_ci=2)
        sets = tuple(map(frozenset, fam.family))
        for a in sets:
            for b in sets:
                assert not (a < b)


def test_family_order_independent(rng):
    for _ in range(10):
        names = [f"T{i}" for i in range(5)]
        table = random_ptable(names, rng)
        alpha = float(rng.uniform(0.2, 0.8))
        base = forward_step("T0", names, engine_for(table), alpha=alpha, m_ci=5)
        perm = ["T0"] + list(rng.permutation([n for n in names if n != "T0"]))
        shuffled = forward_step("T0", perm, engine_for(table), alpha=alpha, m_ci=5)
        assert set(map(frozenset, base.family)) == set(map(frozenset, shuffled.family))


def test_oracle_chain():
    # Both singletons are marginally dependent hence admissible; the distant
    # one is eliminated later by the selection step, not here.
    dag = OracleGraph(vertices=("X", "A", "B"), edges=frozenset({("X", "A"), ("A", "B")}))
    fam = forward_step("X", ["X", "A", "B"], CIEngine(OracleBackend(dag)))
    assert set(map(frozenset, fam.family)) == {frozenset({"A"}), frozenset({"B"})}


def test_oracle_collider_parents():
    dag = OracleGraph(vertices=("A", "X", "B"), edges=frozenset({("A", "X"), ("B", "X")}))
    fam = forward_step("X", ["A", "X", "B"], CIEngine(OracleBackend(dag)))
    assert tuple(map(frozenset, fam.family)) == (frozenset({"A", "B"}),)


def test_oracle_family_contains_true_neighborhood(rng):
    # Some family member always contains the true parents-children set; the
    # member can be a strict superset: a non-neighbor that stays dependent
    # given every subset (a spouse behind a conditioned child) gets absorbed;
    # see the acceptance-suite docstring for a minimal counterexample.
    for _ in range(30):
        k = int(rng.integers(4, 9))
        dag = random_dag(k, rng, edge_prob=0.3, max_degree=3)
        engine = CIEngine(OracleBackend(dag))
        for x in dag.vertices:
            truth = set(dag.parents(x)) | set(dag.children(x))
            fam = forward_step(x, dag.vertices, engine, m_ci=3)
            assert any(truth <= member for member in map(frozenset, fam.family)), (
                sorted(dag.edges),
                x,
            )


def pairwise_family(search):
    """The family by the pairwise rule, from a finished search: the terminal
    sets (empty extension), in the order they were examined, each kept
    unless a later one strictly contains it."""
    terminal = [s for s, ext in search.memo.items() if not ext]
    return tuple(
        s
        for i, s in enumerate(terminal)
        if not any(set(s) < set(later) for later in terminal[i + 1 :])
    )


def test_family_equals_the_pairwise_maximal_scan(rng, example1_engine, budget_table):
    searches = [ForwardSearch("X", VARS3, example1_engine, alpha=0.05)]
    table, _ = budget_table
    searches += [
        ForwardSearch(t, BUDGET_NAMES, engine_for(table), alpha=BUDGET_ALPHA, m_ci=m_ci)
        for t in BUDGET_NAMES[:3]
        for m_ci in (1, 2, 8)
    ]
    for _ in range(20):
        k = int(rng.integers(4, 10))
        dag = random_dag(k, rng, edge_prob=float(rng.uniform(0.2, 0.6)), max_degree=4)
        engine = CIEngine(OracleBackend(dag))
        m_ci = int(rng.integers(1, 4))
        searches += [ForwardSearch(x, dag.vertices, engine, m_ci=m_ci) for x in dag.vertices]
    sizes = []
    for search in searches:
        fam = search.run()
        assert fam.family == pairwise_family(search), (search.target, search.memo)
        sizes.append(len(fam.family))
    # Some searches have several maximal sets and drop non-maximal terminal ones.
    assert max(sizes) > 3
    assert any(len(pairwise_family(s)) < sum(not e for e in s.memo.values()) for s in searches)


def test_budget_exceeded(example1_engine, monkeypatch):
    monkeypatch.setattr("causeweave.forward.BUDGET", 2)
    with pytest.raises(BudgetExceeded, match="more than 2 candidate sets"):
        ForwardSearch("X", VARS3, example1_engine, alpha=0.05).run()


BUDGET_NAMES = [f"T{i}" for i in range(8)]
BUDGET_ALPHA = 0.9


@pytest.fixture
def budget_table():
    """An 8-variable table whose first target has dozens of admissible sets."""
    table = random_ptable(BUDGET_NAMES, np.random.default_rng(5))
    admissible_sets = len(all_admissible_sets(table, BUDGET_ALPHA, "T0", BUDGET_NAMES[1:]))
    assert admissible_sets > 20
    return table, admissible_sets


def test_budget_exceeded_at_scale(budget_table, monkeypatch):
    table, admissible_sets = budget_table
    full = ForwardSearch("T0", BUDGET_NAMES, engine_for(table), alpha=BUDGET_ALPHA, m_ci=8)
    full.run()
    assert full.expanded == admissible_sets
    budget = admissible_sets // 2
    monkeypatch.setattr("causeweave.forward.BUDGET", budget)
    search = ForwardSearch("T0", BUDGET_NAMES, engine_for(table), alpha=BUDGET_ALPHA, m_ci=8)
    with pytest.raises(BudgetExceeded, match=f"^T0: more than {budget} candidate sets"):
        search.run()
    assert search.expanded == budget + 1


def test_cli_learn_budget_exceeded_exits_1(budget_table, monkeypatch, tmp_path, capsys):
    table, admissible_sets = budget_table
    data = tmp_path / "injected.json"
    data.write_text(json.dumps(ptable_entries(table)))
    budget = admissible_sets // 2
    monkeypatch.setattr("causeweave.forward.BUDGET", budget)
    out = tmp_path / "graph"
    code = main([
        "learn", "--data", str(data), "--backend", "injected",
        "--alpha", str(BUDGET_ALPHA), "--m-ci", "8", "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": {
        "type": "BudgetExceeded",
        "message": f"T0: more than {budget} candidate sets expanded",
    }}
    assert not list(tmp_path.glob("graph*"))
