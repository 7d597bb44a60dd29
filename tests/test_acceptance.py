"""Acceptance suite: one test per release criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.

Criterion 1 is known-red: the selection rule can absorb a spouse into a
neighborhood under a perfect oracle, so exact skeleton recovery on
arbitrary random DAGs is not a property the method has.  Minimal
counterexample (max degree 3): edges V01->V05, V02->V05, V03->V01,
V03->V04, V04->V00, V05->V04, target V02 with true neighborhood {V05}.
Every subset of {V05} leaves V02 dependent on V04 — the empty set through
the directed path V02->V05->V04, and {V05} itself through the opened
collider V02->V05<-V01 continuing V01<-V03->V04 — so {V04, V05} passes the
admissibility condition, separates everything else perfectly, wins
selection, and the spurious V02-V04 edge survives the either-endpoint
deletion rule.  Only extra edges ever appear (never missing ones), and
collider orientation stays exact whenever the skeleton is.  The test
states the criterion verbatim and reports the achieved rate.
"""

import statistics
import time

import numpy as np

from causeweave import (
    CIEngine,
    InjectedBackend,
    OracleBackend,
    bic_of_graph,
    learn_structure,
    pc_stable,
)
from causeweave.cli import main as cli_main
from causeweave.dataset import VariableSchema, from_raw
from causeweave.experiments import (
    PC_STABLE,
    PROPOSED,
    CategoricalSimConfig,
    ContinuousSimConfig,
    run_categorical_experiment,
    run_continuous_experiment,
)
from causeweave.forward import ForwardSearch, forward_step
from causeweave.maximize import SepComputer, maximization_step
from causeweave.score import fit_local
from causeweave.skeleton_orient import Cpdag
from conftest import EXAMPLE1_ENTRIES
from oracle_helpers import (
    all_admissible_sets,
    cpdag_vstructs,
    definitional_extensions,
    exhaustive_sep,
    maximal_sets,
    ptable_entries,
    random_dag,
    random_ptable,
    true_vstructs,
)


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_oracle_exact_recovery():
    rng = np.random.default_rng(1)
    t0 = time.time()
    exact = 0
    trials = 200
    for _ in range(trials):
        k = int(rng.integers(4, 9))
        dag = random_dag(k, rng, edge_prob=0.3, max_degree=3)
        g = learn_structure(dag.vertices, CIEngine(OracleBackend(dag)), alpha=0.05, m_ci=3)
        if g.skeleton_pairs() == dag.skeleton_pairs() and cpdag_vstructs(g) == true_vstructs(dag):
            exact += 1
    elapsed = time.time() - t0
    ok = exact == trials and elapsed < 60
    verdict(
        1,
        ok,
        f"exact skeleton+colliders on {exact}/{trials} oracle DAGs in {elapsed:.1f}s "
        "(known-red: selection can absorb spouses; see module docstring)",
    )
    assert ok, f"only {exact}/{trials} exact under the oracle"


def test_criterion_2_definitional_equivalence():
    rng = np.random.default_rng(2)
    t0 = time.time()
    instances = 500
    for trial in range(instances):
        k = int(rng.integers(3, 7))
        names = [f"T{i}" for i in range(k)]
        table = random_ptable(names, rng)
        alpha = float(rng.uniform(0.2, 0.8))
        target = names[int(rng.integers(0, k))]
        order = [v for v in names if v != target]
        engine = CIEngine(InjectedBackend.from_entries(ptable_entries(table)))
        search = ForwardSearch(target, names, engine, alpha=alpha, m_ci=k)
        family = search.run()
        for s, computed in search.memo.items():
            assert computed == definitional_extensions(table, alpha, target, order, s)
        assert set(map(frozenset, family.family)) == maximal_sets(
            set(all_admissible_sets(table, alpha, target, order))
        )
        x, y = order[0], target
        rest = tuple(v for v in order[1:])
        got_p, got_w = SepComputer(y, engine, m_ci=k).score(x, rest)
        want_p, want_w = exhaustive_sep(table, y, x, rest)
        assert got_p == want_p and got_w == want_w
    elapsed = time.time() - t0
    ok = elapsed < 60
    verdict(2, ok, f"{instances} instances matched both exhaustive oracles exactly in {elapsed:.1f}s")
    assert ok


def test_criterion_3_motivating_example_contract():
    def engine():
        return CIEngine(InjectedBackend.from_entries(EXAMPLE1_ENTRIES))

    variables = ["X", "Y", "Z"]
    proposed = learn_structure(variables, engine(), alpha=0.05, m_ci=3)
    prop_x_edges = {p for p in proposed.skeleton_pairs() if "X" in p}
    baseline = pc_stable(variables, engine(), alpha=0.05, m_ci=3)
    pc_x_edges = {p for p in baseline.skeleton_pairs() if "X" in p}
    fam = forward_step("X", variables, engine(), alpha=0.05)
    sel = maximization_step("X", fam, variables, engine())
    ok = (
        len(prop_x_edges) == 1
        and sel.neighbors in ({"Y"}, {"Z"})
        and len(pc_x_edges) == 0
    )
    verdict(3, ok, f"proposed keeps exactly one edge at X ({sorted(prop_x_edges)}), baseline keeps none")
    assert ok


def test_criterion_4_no_repeated_queries():
    rng = np.random.default_rng(4)
    runs = 50
    for _ in range(runs):
        k = int(rng.integers(4, 7))
        names = [f"T{i}" for i in range(k)]
        table = random_ptable(names, rng)
        engine = CIEngine(InjectedBackend.from_entries(ptable_entries(table)))
        alpha = float(rng.uniform(0.2, 0.8))
        for target in names:
            with engine.trace() as fwd_log:
                family = forward_step(target, names, engine, alpha=alpha, m_ci=3)
            assert len(fwd_log) == len(set(fwd_log)), "repeated query inside forward step"
            with engine.trace() as max_log:
                maximization_step(target, family, names, engine, m_ci=3)
            assert len(max_log) == len(set(max_log)), "repeated query inside selection step"
    verdict(4, True, f"zero repeated canonical queries across {runs} runs, every target, both steps")


def test_criterion_5_continuous_trend():
    t0 = time.time()
    lines = []
    ok = True
    for theta in (0.25, 0.5):
        cfg = ContinuousSimConfig(
            k=20, n=500, rho=0.04, theta=theta, reps=100, alpha=0.01, m_ci=2, seed=55
        )
        reports = run_continuous_experiment(cfg)
        prop, pc = reports[PROPOSED], reports[PC_STABLE]
        ok &= prop.tpr >= pc.tpr
        ok &= prop.tnr >= pc.tnr - 0.02
        lines.append(
            f"theta={theta}: TPR {prop.tpr:.3f} vs {pc.tpr:.3f}, TNR {prop.tnr:.3f} vs {pc.tnr:.3f}"
        )
    elapsed = time.time() - t0
    ok &= elapsed < 15 * 60
    verdict(5, ok, "; ".join(lines) + f" ({elapsed:.0f}s)")
    assert ok


def test_criterion_6_categorical_trend():
    t0 = time.time()
    cfg = CategoricalSimConfig(
        k=20, n=500, levels=2, max_parents=3, reps=100, alpha=0.05, m_ci=3, seed=77
    )
    reports = run_categorical_experiment(cfg)
    elapsed = time.time() - t0
    prop, pc = reports[PROPOSED], reports[PC_STABLE]
    med_prop = statistics.median(prop.bic)
    med_pc = statistics.median(pc.bic)
    ok = (
        prop.tpr >= pc.tpr
        and prop.auc >= pc.auc
        and med_prop <= med_pc
        and elapsed < 30 * 60
    )
    verdict(
        6,
        ok,
        f"TPR {prop.tpr:.3f} vs {pc.tpr:.3f}; AUC {prop.auc:.3f} vs {pc.auc:.3f}; "
        f"median BIC {med_prop:.1f} vs {med_pc:.1f} ({elapsed:.0f}s)",
    )
    assert ok


def test_criterion_7_conditioning_cap_robustness():
    reports = {}
    for m_ci in (2, 4):
        cfg = CategoricalSimConfig(
            k=20, n=500, levels=2, max_parents=3, reps=100, alpha=0.05,
            m_ci=m_ci, seed=77, compute_bic=False,
        )
        reports[m_ci] = run_categorical_experiment(cfg)[PROPOSED]
    d_tpr = abs(reports[2].tpr - reports[4].tpr)
    d_tnr = abs(reports[2].tnr - reports[4].tnr)
    ok = d_tpr <= 0.05 and d_tnr <= 0.05
    verdict(7, ok, f"|dTPR| = {d_tpr:.4f}, |dTNR| = {d_tnr:.4f} between caps 2 and 4")
    assert ok


def test_criterion_8_information_criterion_identities():
    rng = np.random.default_rng(8)
    # (a) per-vertex gains non-negative over random graphs and datasets
    labels = ("0", "1", "2")
    nonneg = True
    for _ in range(20):
        schema = tuple(VariableSchema(n, "categorical", labels) for n in "abcde")
        raw = {n: [labels[i] for i in rng.integers(0, 3, size=120)] for n in "abcde"}
        data = from_raw(schema, raw)
        dag = random_dag(5, rng, edge_prob=0.4, names=tuple("abcde"))
        report = bic_of_graph(data, Cpdag(vertices=tuple("abcde"), directed=set(dag.edges)))
        nonneg &= all(f.loglik_star >= 0.0 for f in report.per_vertex.values())
    # (b) empty graph scores zero
    schema = tuple(VariableSchema(n, "categorical", ("0", "1")) for n in "ab")
    raw = {n: [("0", "1")[i] for i in rng.integers(0, 2, size=60)] for n in "ab"}
    empty_zero = bic_of_graph(from_raw(schema, raw), Cpdag(vertices=("a", "b"))).bic == 0.0
    # (c) two-level local deviance equals the dependence statistic, 100 tables
    identity = True
    from causeweave import make_backend

    for _ in range(100):
        counts = rng.integers(1, 50, size=(2, 2))
        a_cells, b_cells = [], []
        for ia in (0, 1):
            for ib in (0, 1):
                a_cells += [str(ia)] * counts[ia, ib]
                b_cells += [str(ib)] * counts[ia, ib]
        data = from_raw(schema, {"a": a_cells, "b": b_cells})
        fit = fit_local(data, "a", ("b",))
        g_stat = CIEngine(make_backend(data, "gtest")).test("a", "b").statistic
        identity &= abs(2.0 * fit.loglik_star - g_stat) <= 1e-8 * max(1.0, g_stat)
    ok = nonneg and empty_zero and identity
    verdict(8, ok, f"gains nonneg: {nonneg}; empty-graph zero: {empty_zero}; deviance identity: {identity}")
    assert ok


def test_criterion_9_byte_identical_reports(tmp_path, capsys):
    blobs = []
    for threads in (1, 8):
        out = str(tmp_path / f"t{threads}")
        code = cli_main(
            [
                "simulate", "--kind", "categorical", "--k", "8", "--n", "200",
                "--reps", "6", "--seed", "99", "--threads", str(threads),
                "--out", out,
            ]
        )
        capsys.readouterr()
        assert code == 0
        blobs.append(open(out + ".json", "rb").read())
    ok = blobs[0] == blobs[1]
    verdict(9, ok, f"reports identical across thread counts: {len(blobs[0])} bytes")
    assert ok
