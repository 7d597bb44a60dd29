import pytest

from causeweave import (
    CIEngine,
    OracleBackend,
    build_skeleton,
    compute_sepsets,
    edge_significance,
    forward_step,
    inject_results,
    learn_structure,
    maximization_step,
    orient,
    pc_stable,
)
from causeweave.errors import PriorKnowledgeCycle, UnknownVertex
from causeweave.forward import CandidateSet, NeighborhoodFamily
from causeweave.maximize import NeighborSelection, SepComputer
from causeweave.simgen import random_dag
from causeweave.skeleton_orient import (
    Cpdag,
    PriorKnowledge,
    SeparationRecord,
    cpdag_from_dot,
    pair_key,
)
from oracle_helpers import cpdag_vstructs, ptable_entries, random_ptable, true_vstructs


def selection(target, members, q=1.0):
    return NeighborSelection(
        target=target,
        chosen=CandidateSet(members=tuple(sorted(members))),
        q_value=q,
        separation={},
    )


def scored_selection(target, members, variables, engine):
    """Selection of a one-candidate family, with its separation scores."""
    family = NeighborhoodFamily(
        target=target,
        family=(CandidateSet(members=tuple(sorted(members))),),
    )
    return maximization_step(target, family, variables, engine)


def undirected_graph(vertices, pairs, sepsets=None):
    return Cpdag(
        vertices=tuple(vertices),
        undirected={pair_key(*p) for p in pairs},
        sepsets=sepsets or {},
    )


def test_skeleton_keeps_asymmetric_membership():
    g = build_skeleton({"X": selection("X", ["Y"]), "Y": selection("Y", [])})
    assert g.skeleton_pairs() == {("X", "Y")}


def test_skeleton_empty_when_no_selections():
    g = build_skeleton({v: selection(v, []) for v in "ABC"})
    assert g.skeleton_pairs() == set()


def test_edge_significance_is_min_and_symmetric(example1_engine):
    sels = {
        t: scored_selection(t, members, "XYZ", example1_engine)
        for t, members in (("X", ["Z"]), ("Y", ["Z"]), ("Z", ["Y"]))
    }
    xz = edge_significance("X", "Z", sels)
    zx = edge_significance("Z", "X", sels)
    # side of X: no other candidates -> marginal 0.02; side of Z: max(0.02, 0.20)
    assert xz == 0.02
    assert xz == zx


def test_orient_basic_collider():
    g = undirected_graph("XZY", [("X", "Z"), ("Z", "Y")])
    seps = {("X", "Y"): SeparationRecord(witness=(), p_value=0.4)}
    out = orient(g, None, seps)
    assert out.directed == {("X", "Z"), ("Y", "Z")}
    assert out.undirected == set()


def test_orient_separator_contains_middle_no_collider():
    g = undirected_graph("XZY", [("X", "Z"), ("Z", "Y")])
    seps = {("X", "Y"): SeparationRecord(witness=("Z",), p_value=0.4)}
    out = orient(g, None, seps)
    assert out.directed == set()
    assert out.undirected == {("X", "Z"), ("Y", "Z")}


def test_conflicting_colliders_resolved_by_p_value():
    # chain X-Z-Y-W: both middles claimed; the higher-p separation wins and
    # the losing collider is dropped entirely.
    g = undirected_graph("XZYW", [("X", "Z"), ("Z", "Y"), ("Y", "W")])
    seps = {
        ("X", "Y"): SeparationRecord(witness=(), p_value=0.4),
        ("W", "Z"): SeparationRecord(witness=(), p_value=0.2),
        ("W", "X"): SeparationRecord(witness=(), p_value=0.9),
    }
    out = orient(g, None, seps)
    assert ("X", "Z") in out.directed and ("Y", "Z") in out.directed
    assert ("Z", "Y") not in out.directed
    assert ("W", "Y") not in out.directed  # lost with its collider
    # and flipping the p-values flips the winner
    seps2 = {
        ("X", "Y"): SeparationRecord(witness=(), p_value=0.1),
        ("W", "Z"): SeparationRecord(witness=(), p_value=0.2),
        ("W", "X"): SeparationRecord(witness=(), p_value=0.9),
    }
    out2 = orient(g, None, seps2)
    assert ("Z", "Y") in out2.directed and ("W", "Y") in out2.directed


def test_tier_orientation():
    g = undirected_graph(["Age", "Education"], [("Age", "Education")])
    pk = PriorKnowledge(tiers={"Age": 0, "Education": 1})
    out = orient(g, pk, {})
    assert out.directed == {("Age", "Education")}


def test_forbidden_direction_never_produced():
    g = undirected_graph("XZY", [("X", "Z"), ("Z", "Y")])
    seps = {("X", "Y"): SeparationRecord(witness=(), p_value=0.4)}
    pk = PriorKnowledge(forbidden=frozenset({("Y", "Z")}))
    out = orient(g, pk, seps)
    # the collider contradicts prior knowledge: dropped; but X-Z may still
    # be oriented by nothing else, so it stays undirected
    assert ("Y", "Z") not in out.directed
    # prior knowledge alone orients the one-sided pair
    assert ("Z", "Y") in out.directed


def test_required_edge_oriented():
    g = undirected_graph("AB", [("A", "B")])
    pk = PriorKnowledge(required=frozenset({("B", "A")}))
    out = orient(g, pk, {})
    assert out.directed == {("B", "A")}


def test_prior_knowledge_cycles_rejected():
    with pytest.raises(PriorKnowledgeCycle):
        PriorKnowledge(required=frozenset({("A", "B"), ("B", "C"), ("C", "A")}))
    with pytest.raises(PriorKnowledgeCycle):
        PriorKnowledge(tiers={"A": 1, "B": 0}, required=frozenset({("A", "B")}))
    # Y->Z->X required while tier 0 (X) must precede tier 1 (Y): a cycle
    # through both the required edges and the tier order.
    with pytest.raises(PriorKnowledgeCycle):
        PriorKnowledge(tiers={"X": 0, "Y": 1}, required=frozenset({("Y", "Z"), ("Z", "X")}))
    with pytest.raises(ValueError):
        PriorKnowledge(required=frozenset({("A", "B")}), forbidden=frozenset({("A", "B")}))


def test_forbidden_direction_can_close_a_required_cycle_in_orient():
    # The prior alone is consistent, but on the triangle the forbidden A->B
    # forces B->A, which with the required A->C closes C->B into a cycle.
    pk = PriorKnowledge(
        forbidden=frozenset({("A", "B")}), required=frozenset({("A", "C"), ("C", "B")})
    )
    g = undirected_graph("ABC", [("A", "B"), ("A", "C"), ("B", "C")])
    with pytest.raises(PriorKnowledgeCycle, match="cannot be committed"):
        orient(g, pk, {})


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"tiers": {"A": True}}, "non-negative integer"),
        ({"tiers": {"A": -1}}, "non-negative integer"),
        ({"required": {("A", "B", "C")}}, "pairs"),
        ({"forbidden": "AB"}, "pairs"),
    ],
    ids=["bool-tier", "negative-tier", "triple", "bare-string"],
)
def test_prior_knowledge_values_rejected_at_construction(kwargs, match):
    with pytest.raises(ValueError, match=match):
        PriorKnowledge(**kwargs)


def _altered_prior(tiers, required):
    # Construction refuses a cycle, so only a prior altered afterwards has one.
    pk = PriorKnowledge(tiers=tiers)
    object.__setattr__(pk, "required", frozenset(required))
    return pk


@pytest.mark.parametrize("learner", [learn_structure, pc_stable])
@pytest.mark.parametrize(
    "prior, error",
    [
        (PriorKnowledge(tiers={"Xx": 0}), UnknownVertex),
        (PriorKnowledge(forbidden=frozenset({("Q", "X")})), UnknownVertex),
        (_altered_prior({}, {("X", "Y"), ("Y", "X")}), PriorKnowledgeCycle),
        (_altered_prior({"X": 0, "Y": 1}, {("Y", "Z"), ("Z", "X")}), PriorKnowledgeCycle),
    ],
    ids=["unknown-tier", "unknown-forbidden", "cyclic-required", "required-chain-against-tiers"],
)
def test_bad_prior_raises_before_any_query(example1_engine, learner, prior, error):
    with example1_engine.trace() as log:
        with pytest.raises(error):
            learner(["X", "Y", "Z"], example1_engine, prior=prior)
    assert log == []
    assert example1_engine.cache.hits == example1_engine.cache.misses == 0


def test_propagation_unshielded_rule():
    # A->B committed, B-C undirected, A-C non-adjacent: forces B->C; same
    # for B-D; C-D has neither a directed path nor an unshielded arrow
    # pointing at it, so it stays undirected.
    g = Cpdag(
        vertices=("A", "B", "C", "D"),
        directed={("A", "B")},
        undirected={("B", "C"), ("C", "D"), ("B", "D")},
    )
    out = orient(g, None, {})
    assert ("B", "C") in out.directed and ("B", "D") in out.directed
    assert ("C", "D") in out.undirected
    assert out.is_acyclic()


def test_propagation_directed_path_rule():
    g = Cpdag(
        vertices=("A", "B", "C"),
        directed={("A", "B"), ("B", "C")},
        undirected={("A", "C")},
    )
    out = orient(g, None, {})
    assert ("A", "C") in out.directed


def test_orientation_is_idempotent_fixed_point():
    g = undirected_graph("XZYW", [("X", "Z"), ("Z", "Y"), ("Y", "W")])
    seps = {
        ("X", "Y"): SeparationRecord(witness=(), p_value=0.4),
        ("W", "Z"): SeparationRecord(witness=(), p_value=0.2),
        ("W", "X"): SeparationRecord(witness=(), p_value=0.9),
    }
    once = orient(g, None, seps)
    twice = orient(once, None, seps)
    assert once.directed == twice.directed
    assert once.undirected == twice.undirected


def test_orientation_preserves_skeleton(rng):
    for _ in range(10):
        dag = random_dag(7, rng, edge_prob=0.35)
        engine = CIEngine(OracleBackend(dag))
        sels = {}
        for x in dag.vertices:
            fam = forward_step(x, dag.vertices, engine)
            sels[x] = maximization_step(x, fam, dag.vertices, engine)
        skeleton = build_skeleton(sels)
        seps = compute_sepsets(skeleton, sels)
        out = orient(skeleton, None, seps)
        assert out.skeleton_pairs() == skeleton.skeleton_pairs()
        assert out.is_acyclic()


def test_oracle_pipeline_recovers_superset_and_exact_vstructs(rng):
    # The full pipeline never loses a true edge under the oracle; when the
    # skeleton is exact its colliders match the truth (extras can appear on
    # spouse-absorbing graphs; see the acceptance-suite docstring).
    exact = total = 0
    for _ in range(40):
        dag = random_dag(7, rng, edge_prob=0.3, max_degree=3)
        g = learn_structure(dag.vertices, CIEngine(OracleBackend(dag)))
        total += 1
        assert dag.skeleton_pairs() <= g.skeleton_pairs()
        if g.skeleton_pairs() == dag.skeleton_pairs():
            exact += 1
            assert cpdag_vstructs(g) == true_vstructs(dag)
    assert exact / total > 0.8


def learning_cases(rng):
    """(variables, engine factory, alpha): 50 random p-tables, 20 oracle DAGs."""
    for _ in range(50):
        names = [f"T{i}" for i in range(int(rng.integers(4, 7)))]
        entries = ptable_entries(random_ptable(names, rng))
        alpha = float(rng.uniform(0.2, 0.8))
        yield names, lambda e=entries: CIEngine(inject_results(e)), alpha
    for _ in range(20):
        dag = random_dag(7, rng, edge_prob=0.3, max_degree=3)
        yield list(dag.vertices), lambda d=dag: CIEngine(OracleBackend(d)), 0.05


def learn_per_pair(variables, engine, alpha, m_ci):
    """``learn_structure`` with one fresh ``SepComputer`` per ordered pair
    for the sepsets and the edge p-values: the reference for the stored
    separation scores."""
    sels = {
        x: maximization_step(
            x, forward_step(x, variables, engine, alpha=alpha, m_ci=m_ci),
            variables, engine, m_ci=m_ci,
        )
        for x in variables
    }
    skeleton = build_skeleton(sels)

    def score(a, b):
        return SepComputer(a, engine, m_ci=m_ci).score(b, sels[a].neighbors - {b})

    sepsets = {}
    for i, x in enumerate(variables):
        for y in variables[i + 1 :]:
            if skeleton.has_edge(x, y):
                continue
            best = None
            for a, b in ((x, y), (y, x)):
                value, witness = score(a, b)
                if best is None or value > best[0] or (value == best[0] and witness < best[1]):
                    best = (value, witness)
            sepsets[pair_key(x, y)] = SeparationRecord(witness=best[1], p_value=best[0])
    skeleton.edge_significance = {
        (x, y): min(score(x, y)[0], score(y, x)[0]) for x, y in skeleton.skeleton_pairs()
    }
    return orient(skeleton, None, sepsets), sels


def test_separation_scores_equal_fresh_per_pair_scores(rng):
    for variables, make_engine, alpha in learning_cases(rng):
        engine = make_engine()
        reference, sels = learn_per_pair(variables, engine, alpha, m_ci=3)
        for a, sel in sels.items():
            assert set(sel.separation) == set(variables) - {a}
            for b, stored in sel.separation.items():
                fresh = SepComputer(a, engine, m_ci=3).score(b, sel.neighbors - {b})
                assert stored == fresh, (a, b)
        graph = learn_structure(variables, make_engine(), alpha=alpha, m_ci=3)
        assert graph.to_json() == reference.to_json()


def test_no_query_after_selection(rng):
    # Sepsets and edge p-values are read from the selections, so a full
    # learn asks exactly the forward and selection queries, in their order.
    for variables, make_engine, alpha in learning_cases(rng):
        engine = make_engine()
        with engine.trace() as full:
            learn_structure(variables, engine, alpha=alpha, m_ci=3)
        engine = make_engine()
        with engine.trace() as steps:
            for x in variables:
                family = forward_step(x, variables, engine, alpha=alpha, m_ci=3)
                maximization_step(x, family, variables, engine, m_ci=3)
        assert full == steps


def test_learned_graph_carries_significance_and_sepsets(example1_engine):
    g = learn_structure(["X", "Y", "Z"], example1_engine, alpha=0.05)
    assert set(g.edge_significance) == g.skeleton_pairs()
    assert set(g.sepsets) == {("X", "Y")}
    assert g.sepsets[("X", "Y")].p_value == 0.30
    assert g.sepsets[("X", "Y")].witness == ("Z",)


def test_json_round_trip(example1_engine):
    g = learn_structure(["X", "Y", "Z"], example1_engine, alpha=0.05)
    back = Cpdag.from_json(g.to_json())
    assert back.vertices == g.vertices
    assert back.directed == g.directed
    assert back.undirected == g.undirected
    assert back.edge_significance == g.edge_significance
    assert back.sepsets == g.sepsets


def test_dot_round_trip(example1_engine):
    g = learn_structure(["X", "Y", "Z"], example1_engine, alpha=0.05)
    text = g.to_dot()
    assert '"X" -- "Z"' in text or '"Z" -- "X"' in text
    back = cpdag_from_dot(text)
    assert set(back.vertices) == set(g.vertices)
    assert back.directed == g.directed
    assert back.undirected == g.undirected
    assert back.edge_significance == pytest.approx(g.edge_significance)


def test_prior_knowledge_json(tmp_path):
    path = tmp_path / "pk.json"
    path.write_text(
        '{"tiers": {"Age": 0, "Edu": 1}, "forbidden": [["A", "B"]], "required": [["C", "D"]]}'
    )
    pk = PriorKnowledge.from_json(path)
    assert pk.tiers == {"Age": 0, "Edu": 1}
    assert pk.forbidden == {("A", "B")}
    assert pk.required == {("C", "D")}
