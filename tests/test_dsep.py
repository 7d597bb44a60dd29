import networkx as nx
import pytest

from causeweave import CIEngine, OracleBackend, OracleGraph
from causeweave.citest import d_sep, topological_order
from causeweave.errors import UnknownVertex
from causeweave.simgen import make_discrete_net
from causeweave.skeleton_orient import Cpdag
from oracle_helpers import all_subsets, brute_force_dsep, random_dag


def graph(edges, vertices=None):
    vs = vertices or sorted({v for e in edges for v in e})
    return OracleGraph(vertices=tuple(vs), edges=frozenset(edges))


CHAIN = graph([("X", "Z"), ("Z", "Y")])
FORK = graph([("Z", "X"), ("Z", "Y")])
COLLIDER = graph([("X", "Z"), ("Y", "Z")])


def test_three_vertex_motifs():
    assert d_sep(CHAIN, "X", "Y", {"Z"})
    assert not d_sep(CHAIN, "X", "Y")
    assert d_sep(FORK, "X", "Y", {"Z"})
    assert not d_sep(COLLIDER, "X", "Y", {"Z"})
    assert d_sep(COLLIDER, "X", "Y")


def test_collider_descendant_opens_path():
    g = graph([("X", "Z"), ("Y", "Z"), ("Z", "W")])
    assert not d_sep(g, "X", "Y", {"W"})  # descendant of the collider
    assert d_sep(g, "X", "Y")


def test_unknown_vertex_and_bad_queries():
    with pytest.raises(UnknownVertex):
        d_sep(CHAIN, "X", "Q")
    with pytest.raises(ValueError):
        d_sep(CHAIN, "X", "Y", {"X"})


def test_cycle_rejected():
    with pytest.raises(ValueError, match="cycle"):
        graph([("A", "B"), ("B", "C"), ("C", "A")])


def test_topological_order_certificate():
    g = graph([("A", "B"), ("B", "C"), ("A", "C")])
    order = {v: i for i, v in enumerate(g.topological_order)}
    assert all(order[a] < order[b] for a, b in g.edges)


def test_acyclicity_checks_agree_with_networkx(rng):
    # Random directed edge sets, 2-cycles included, on 3-8 vertices.
    verdicts = []
    for _ in range(200):
        k = int(rng.integers(3, 9))
        vs = tuple(f"V{i}" for i in range(k))
        edges = frozenset(
            (a, b) for a in vs for b in vs if a != b and rng.random() < 0.6 / (k - 1)
        )
        reference = nx.DiGraph(list(edges))
        reference.add_nodes_from(vs)
        acyclic = nx.is_directed_acyclic_graph(reference)
        cpdag = Cpdag(vertices=vs)
        cpdag.directed = set(edges)
        assert cpdag.is_acyclic() == acyclic
        try:
            OracleGraph(vertices=vs, edges=edges)
            built = True
        except ValueError as exc:
            assert "cycle" in str(exc)
            built = False
        assert built == acyclic
        order = topological_order(vs, edges)
        assert (len(order) == k) == acyclic
        # A placed vertex comes after every parent: each edge into it runs forward.
        pos = {v: i for i, v in enumerate(order)}
        assert all(a in pos and pos[a] < pos[b] for a, b in edges if b in pos)
        verdicts.append(acyclic)
    assert 20 < sum(verdicts) < 180


def test_topological_order_is_pinned():
    # FIFO queue, sorted sources, children in sorted order; a heap in place
    # of the queue gives another order on this graph.
    order = make_discrete_net(20, 3, 2, seed=[0, 0]).graph.topological_order
    assert order == (
        "V03", "V04", "V06", "V10", "V11", "V16", "V18", "V19", "V09", "V02",
        "V13", "V00", "V08", "V14", "V07", "V12", "V15", "V17", "V05", "V01",
    )


def test_dsep_matches_path_enumeration(rng):
    for _ in range(25):
        k = int(rng.integers(4, 9))
        dag = random_dag(k, rng, edge_prob=0.35)
        edges = sorted(dag.edges)
        verts = list(dag.vertices)
        for i, x in enumerate(verts):
            for y in verts[i + 1 :]:
                rest = [v for v in verts if v not in (x, y)]
                for s in all_subsets(rest, max_size=3):
                    assert d_sep(dag, x, y, s) == brute_force_dsep(edges, x, y, s), (
                        edges,
                        x,
                        y,
                        s,
                    )


def test_oracle_ci_values():
    assert OracleBackend(CHAIN).compute([("X", "Y", ("Z",))])[0].p_value == 1.0
    assert OracleBackend(COLLIDER).compute([("X", "Y", ())])[0].p_value == 1.0
    assert OracleBackend(COLLIDER).compute([("X", "Y", ("Z",))])[0].p_value == 0.0


def test_oracle_graphoid_implication(rng):
    # Contraction plus weak union, stated with pairwise queries: if x is
    # independent of y given S and of w given S+{y}, then it is independent
    # of w given S and of y given S+{w}.  Holds for graph separation; check
    # the oracle outputs exhaustively on small random DAGs.
    checked = 0
    for _ in range(20):
        dag = random_dag(6, rng, edge_prob=0.4)
        verts = list(dag.vertices)
        eng = CIEngine(OracleBackend(dag))
        for x in verts:
            for y in verts:
                for w in verts:
                    if len({x, y, w}) != 3:
                        continue
                    rest = [v for v in verts if v not in (x, y, w)]
                    for s in all_subsets(rest, max_size=1):
                        if (
                            eng.test(x, y, s).p_value == 1.0
                            and eng.test(x, w, (*s, y)).p_value == 1.0
                        ):
                            checked += 1
                            assert eng.test(x, w, s).p_value == 1.0
                            assert eng.test(x, y, (*s, w)).p_value == 1.0
    assert checked > 50  # the implication premise fired often enough
