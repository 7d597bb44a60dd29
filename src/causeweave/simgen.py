"""Synthetic data generators and structure-recovery metrics.

Two generators cover the benchmark regimes: a linear structural-equation
model over continuous variables (random upper-triangular edge mask,
standard-normal weights and noise, variable order permuted afterwards) and
a random discrete network (random parent sets, flat-Dirichlet conditional
probability tables, ancestral sampling).

Recovery is measured on the undirected skeleton.  With one shared true
graph across replicates the per-pair edge frequencies yield a confidence
curve: thresholding the frequency at every cutoff gives one
false-positive/true-positive point, and the area under the resulting curve
summarizes edge discovery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .citest import OracleGraph
from .dataset import Dataset, VariableSchema, joint_codes
from .errors import VertexMismatch
from .skeleton_orient import Cpdag, Pair


def _names(k: int) -> tuple[str, ...]:
    width = max(2, len(str(k - 1)))
    return tuple(f"V{i:0{width}d}" for i in range(k))


@dataclass(frozen=True)
class LinearSemSpec:
    """Configuration of the linear-model generator."""

    k: int
    rho: float
    theta: float
    n: int
    seed: object = 0

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("need at least two variables")
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"edge probability must be in (0, 1), got {self.rho}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        if self.n < 1:
            raise ValueError("need at least one sample")


def gen_linear_sem(spec: LinearSemSpec) -> tuple[Dataset, OracleGraph]:
    """Sample a random linear model: data plus its generating DAG.

    Each ordered pair (i, j), i < j, carries an edge with probability
    ``rho`` and a standard-normal weight; variable j is ``theta`` times the
    weighted sum of its parents plus standard-normal noise.  The variable
    order of the output is randomly permuted (and the returned graph is
    permuted consistently), so column position carries no causal hint.
    """
    rng = np.random.default_rng(spec.seed)
    k, n = spec.k, spec.n
    edge_mask = np.triu(rng.random((k, k)) < spec.rho, 1)
    weights = rng.standard_normal((k, k))
    noise = rng.standard_normal((n, k))
    values = np.empty((n, k))
    for j in range(k):
        values[:, j] = noise[:, j]
        parents = np.nonzero(edge_mask[:, j])[0]
        if parents.size:
            values[:, j] += spec.theta * values[:, parents] @ weights[parents, j]

    perm = rng.permutation(k)
    names = _names(k)
    position = np.empty(k, dtype=np.int64)  # original index -> output slot
    position[perm] = np.arange(k)
    schema = tuple(VariableSchema(name=name, kind="continuous") for name in names)
    columns = {names[m]: np.ascontiguousarray(values[:, perm[m]]) for m in range(k)}
    edges = frozenset(
        (names[position[i]], names[position[j]])
        for i, j in zip(*np.nonzero(edge_mask))
    )
    graph = OracleGraph(vertices=names, edges=edges)
    return Dataset(schema=schema, columns=columns, n=n), graph


@dataclass(frozen=True)
class DiscreteNet:
    """A discrete network: DAG, level count, and one CPT per vertex.

    ``cpts[v]`` has one Dirichlet(1)-distributed row per joint parent
    configuration (row-major over the sorted parent tuple).
    """

    graph: OracleGraph
    levels: int
    cpts: dict[str, np.ndarray]

    def sample(self, n: int, seed: object) -> Dataset:
        """Ancestral sampling of ``n`` rows."""
        if n < 1:
            raise ValueError("need at least one sample")
        rng = np.random.default_rng(seed)
        columns: dict[str, np.ndarray] = {}
        for v in self.graph.topological_order:
            parents = [(columns[p], self.levels) for p in self.graph.parents(v)]
            config, _ = joint_codes(parents, n)
            cumulative = np.cumsum(self.cpts[v], axis=1)[config]
            draws = rng.random(n)
            columns[v] = np.minimum(
                (draws[:, None] > cumulative).sum(axis=1), self.levels - 1
            ).astype(np.int64)
        labels = tuple(f"l{i}" for i in range(self.levels))
        schema = tuple(
            VariableSchema(name=name, kind="categorical", levels=labels)
            for name in self.graph.vertices
        )
        return Dataset(
            schema=schema, columns={v: columns[v] for v in self.graph.vertices}, n=n
        )


def make_discrete_net(
    k: int, max_parents: int, levels: int, seed: object
) -> DiscreteNet:
    """Random DAG plus random conditional probability tables.

    Vertices are placed in a random order; each picks a uniform number of
    parents (up to ``max_parents``) among its predecessors.
    """
    if max_parents < 0:
        raise ValueError(f"max_parents must be >= 0, got {max_parents}")
    if levels < 2:
        raise ValueError("discrete variables need at least two levels")
    if k < 1:
        raise ValueError("need at least one vertex")
    rng = np.random.default_rng(seed)
    names = _names(k)
    order = rng.permutation(k)
    edges = set()
    for pos in range(k):
        v = names[order[pos]]
        n_par = int(rng.integers(0, min(max_parents, pos) + 1))
        if n_par:
            picks = rng.choice(pos, size=n_par, replace=False)
            edges.update((names[order[p]], v) for p in picks)
    graph = OracleGraph(vertices=names, edges=frozenset(edges))
    cpts = {}
    for v in names:
        n_configs = levels ** len(graph.parents(v))
        cpts[v] = rng.dirichlet(np.ones(levels), size=n_configs)
    return DiscreteNet(graph=graph, levels=levels, cpts=cpts)


@dataclass(frozen=True)
class SimReport:
    """Skeleton-recovery metrics aggregated over replicates.

    ``roc`` and ``auc`` are present only when all replicates share one true
    graph (they are built from cross-replicate edge frequencies).
    ``bic`` optionally carries the per-replicate criterion values.
    """

    tpr: float
    tnr: float
    edge_freq: dict[Pair, float]
    roc: tuple[tuple[float, float], ...] | None
    auc: float | None
    reps: int
    bic: tuple[float, ...] | None = None

    def to_json_obj(self) -> dict:
        return {
            "tpr": self.tpr,
            "tnr": self.tnr,
            "reps": self.reps,
            "edge_freq": [[a, b, f] for (a, b), f in sorted(self.edge_freq.items())],
            "roc": None if self.roc is None else [list(p) for p in self.roc],
            "auc": self.auc,
            "bic": None if self.bic is None else list(self.bic),
        }

    def roc_csv(self) -> str:
        """Cutoff curve as two-column CSV (false rate, true rate)."""
        lines = ["fpr,tpr"]
        if self.roc:
            lines += [f"{fpr!r},{tpr!r}" for fpr, tpr in self.roc]
        return "\n".join(lines) + "\n"


def skeleton_rates(true_graph: OracleGraph, learned: Cpdag) -> tuple[float, float]:
    """True-positive and true-negative edge rates, ignoring orientation.

    Degenerate denominators (no true edges / no true non-edges) count as a
    perfect rate of 1.0.
    """
    if set(true_graph.vertices) != set(learned.vertices):
        raise VertexMismatch("graphs do not share a vertex set")
    verts = sorted(true_graph.vertices)
    all_pairs = {(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :]}
    truth = true_graph.skeleton_pairs()
    found = learned.skeleton_pairs()
    non_edges = all_pairs - truth
    tpr = len(found & truth) / len(truth) if truth else 1.0
    tnr = len(non_edges - found) / len(non_edges) if non_edges else 1.0
    return tpr, tnr


def roc_curve(
    truth: set[Pair], all_pairs: list[Pair], freq: dict[Pair, float]
) -> tuple[tuple[tuple[float, float], ...], float]:
    """Threshold the edge frequencies at every cutoff and integrate.

    Points run from the empty graph (cutoff above every frequency) to the
    complete graph (cutoff zero), whose point is (1, 1) even when the truth
    has no non-edge.  Equal false rates collapse to their best
    true rate before trapezoidal integration over the false rate.
    """
    n_true = len(truth)
    n_false = len(all_pairs) - n_true

    def rates(cut: float) -> tuple[float, float]:
        kept = {p for p in all_pairs if freq.get(p, 0.0) >= cut}
        tp = len(kept & truth)
        fp = len(kept) - tp
        return (
            fp / n_false if n_false else 0.0,
            tp / n_true if n_true else 1.0,
        )

    cuts = sorted({f for f in freq.values() if f > 0.0}, reverse=True)
    points = [(0.0, 0.0) if n_true else (0.0, 1.0)]
    points += [rates(c) for c in cuts]
    points.append((1.0, 1.0))

    best: dict[float, float] = {}
    for fpr, tpr in points:
        best[fpr] = max(best.get(fpr, 0.0), tpr)
    curve = tuple(sorted(best.items()))
    auc = 0.0
    for (f0, t0), (f1, t1) in zip(curve, curve[1:]):
        auc += (f1 - f0) * (t0 + t1) / 2.0
    return curve, auc


def evaluate_recovery(
    true_dag,
    learned: list[Cpdag],
    bic: tuple[float, ...] | None = None,
) -> SimReport:
    """Aggregate skeleton recovery over replicates.

    ``true_dag`` is either one shared graph (full report, including the
    frequency-threshold curve) or a sequence of per-replicate graphs
    (rates and frequencies only).
    """
    if not learned:
        raise ValueError("no learned graphs given")
    shared_truth = not isinstance(true_dag, (list, tuple))
    truths = [true_dag] * len(learned) if shared_truth else list(true_dag)
    if len(truths) != len(learned):
        raise VertexMismatch("one true graph per learned graph required")

    verts = sorted(truths[0].vertices)
    pairs = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :]]
    counts = {p: 0 for p in pairs}
    tprs, tnrs = [], []
    for truth, graph in zip(truths, learned):
        tpr, tnr = skeleton_rates(truth, graph)
        tprs.append(tpr)
        tnrs.append(tnr)
        for p in graph.skeleton_pairs():
            counts[p] += 1
    freq = {p: c / len(learned) for p, c in counts.items()}

    roc = auc = None
    if shared_truth:
        roc, auc = roc_curve(truths[0].skeleton_pairs(), pairs, freq)
    return SimReport(
        tpr=float(np.mean(tprs)),
        tnr=float(np.mean(tnrs)),
        edge_freq=freq,
        roc=roc,
        auc=auc,
        reps=len(learned),
        bic=bic,
    )
