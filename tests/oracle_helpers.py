"""Independent reference implementations used only to check the package.

Everything here is deliberately brute force: path enumeration instead of
reachability, full subset enumeration instead of incremental recursions,
per-row dictionary counting instead of vectorized tables, entropy sums
instead of the likelihood-ratio formula.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import replace
from itertools import chain, combinations
from unittest import mock

import networkx as nx
import numpy as np
from scipy import special

from causeweave.citest import (
    BACKEND_FISHERZ,
    BACKEND_GTEST,
    CITestResult,
    GTestBackend,
    OracleGraph,
)
from causeweave.dataset import QUINTILE_BINS
from causeweave.skeleton_orient import orient


def all_subsets(items, max_size=None):
    items = sorted(items)
    top = len(items) if max_size is None else min(max_size, len(items))
    return chain.from_iterable(combinations(items, r) for r in range(top + 1))


# -- graph separation oracle -------------------------------------------------


def brute_force_dsep(edges, x, y, s, vertices=()) -> bool:
    """Separation decided by enumerating every acyclic path and checking the
    collider/non-collider rule vertex by vertex."""
    s = set(s)
    dg = nx.DiGraph()
    dg.add_edges_from(edges)
    dg.add_nodes_from([x, y, *s, *vertices])
    ancestors_of_s = set(s)
    for v in s:
        ancestors_of_s |= nx.ancestors(dg, v)
    ug = dg.to_undirected()
    for path in nx.all_simple_paths(ug, x, y):
        active = True
        for i in range(1, len(path) - 1):
            prev_v, v, next_v = path[i - 1], path[i], path[i + 1]
            collider = dg.has_edge(prev_v, v) and dg.has_edge(next_v, v)
            if collider:
                if v not in ancestors_of_s:
                    active = False
                    break
            elif v in s:
                active = False
                break
        if active:
            return False
    return True


def true_vstructs(dag) -> set[tuple[str, str, str]]:
    """Collider triples of a DAG with non-adjacent tails, tails sorted."""
    skeleton = dag.skeleton_pairs()
    out = set()
    for z in dag.vertices:
        ps = sorted(dag.parents(z))
        for i, a in enumerate(ps):
            for b in ps[i + 1 :]:
                if tuple(sorted((a, b))) not in skeleton:
                    out.add((a, z, b))
    return out


def cpdag_vstructs(g) -> set[tuple[str, str, str]]:
    """Collider triples read off a learned mixed graph."""
    out = set()
    for z in g.vertices:
        ps = sorted(g.parents(z))
        for i, a in enumerate(ps):
            for b in ps[i + 1 :]:
                if not g.has_edge(a, b):
                    out.add((a, z, b))
    return out


# -- random graphs ---------------------------------------------------------------


def random_dag(
    k: int,
    rng: np.random.Generator,
    edge_prob: float = 0.3,
    max_degree: int | None = None,
    names: tuple[str, ...] | None = None,
) -> OracleGraph:
    """Random DAG over a random vertex order with an optional degree cap;
    by default the vertices are named as the package's generators name them
    (``V00``, ``V01``, ...)."""
    if names is None:
        width = max(2, len(str(k - 1)))
        names = tuple(f"V{i:0{width}d}" for i in range(k))
    order = rng.permutation(k)
    degree = np.zeros(k, dtype=np.int64)
    edges = set()
    for a in range(k):
        for b in range(a + 1, k):
            i, j = order[a], order[b]
            if max_degree is not None and (degree[i] >= max_degree or degree[j] >= max_degree):
                continue
            if rng.random() < edge_prob:
                edges.add((names[i], names[j]))
                degree[i] += 1
                degree[j] += 1
    return OracleGraph(vertices=names, edges=frozenset(edges))


# -- injected p-value tables -------------------------------------------------


def table_key(x, y, s=()):
    a, b = sorted((x, y))
    return (a, b, tuple(sorted(s)))


def random_ptable(variables, rng) -> dict:
    """A complete p-value assignment: every pair given every subset of the rest."""
    variables = sorted(variables)
    table = {}
    for i, x in enumerate(variables):
        for y in variables[i + 1 :]:
            rest = [v for v in variables if v not in (x, y)]
            for s in all_subsets(rest):
                table[table_key(x, y, s)] = float(rng.random())
    return table


def ptable_entries(table):
    return [{"x": a, "y": b, "s": list(s), "p": p} for (a, b, s), p in sorted(table.items())]


def lookup(table, x, y, s=()):
    return table[table_key(x, y, s)]


# -- definitional search quantities ------------------------------------------


def admissible(table, alpha, target, members) -> bool:
    """Every member dependent on the target given every subset of the others."""
    members = set(members)
    for m in members:
        for s in all_subsets(members - {m}):
            if lookup(table, target, m, s) > alpha:
                return False
    return True


def definitional_extensions(table, alpha, target, order, s) -> frozenset:
    """Later variables whose addition keeps the set admissible, from scratch."""
    s = set(s)
    rank = {v: i for i, v in enumerate(order)}
    start = max((rank[v] for v in s), default=-1) + 1
    return frozenset(
        t for t in order[start:] if admissible(table, alpha, target, s | {t})
    )


def all_admissible_sets(table, alpha, target, order):
    others = [v for v in order if v != target]
    return [
        frozenset(s)
        for s in all_subsets(others)
        if admissible(table, alpha, target, s)
    ]


def maximal_sets(sets):
    return {s for s in sets if not any(s < other for other in sets)}


def exhaustive_sep(table, x, y, n, m_ci=None):
    """Max p-value over (capped) subsets of n, with the smallest witness."""
    best = (-1.0, ())
    for s in all_subsets(n, max_size=m_ci):
        p = lookup(table, x, y, s)
        if p > best[0] or (p == best[0] and tuple(s) < best[1]):
            best = (p, tuple(s))
    return best


def exhaustive_q(table, x, n, variables, m_ci=None):
    outside = sorted(set(variables) - set(n) - {x})
    if not outside:
        return math.inf
    return min(exhaustive_sep(table, x, m, n, m_ci=m_ci)[0] for m in outside)


# -- statistics oracles --------------------------------------------------------


def entropy(counts) -> float:
    counts = np.asarray(counts, dtype=float).ravel()
    total = counts.sum()
    probs = counts[counts > 0] / total
    return float(-(probs * np.log(probs)).sum())


def entropy_cmi(counts_xys) -> float:
    """Plug-in conditional mutual information from a (x, y, strata) table."""
    c = np.asarray(counts_xys, dtype=float)
    h_xs = entropy(c.sum(axis=1))
    h_ys = entropy(c.sum(axis=0))
    h_xys = entropy(c)
    h_s = entropy(c.sum(axis=(0, 1)))
    return h_xs + h_ys - h_xys - h_s


def reference_g_result(table, n) -> CITestResult:
    """The G-test of one integer table ``(nx, ny, *levels)`` on ``n`` rows,
    the scalar arithmetic the stacked statistic must reproduce bit for bit:
    integer margins and products, one division and ``log`` per non-empty
    cell in C order, one pairwise ``np.sum``."""
    nx, ny = table.shape[:2]
    counts = table.reshape(nx, ny, -1)
    per_stratum = counts.sum(axis=(0, 1))
    row = counts.sum(axis=1)[:, None, :]
    col = counts.sum(axis=0)[None, :, :]
    mask = counts > 0
    ratio = (counts * per_stratum)[mask] / (row * col)[mask]
    statistic = max(0.0, 2.0 * float(np.sum(counts[mask] * np.log(ratio))))
    dof = (nx - 1) * (ny - 1) * int(np.count_nonzero(per_stratum))
    p_value = float(special.chdtrc(dof, statistic)) if dof > 0 else 1.0
    return CITestResult(p_value, statistic, dof, BACKEND_GTEST, low_power=n < 5 * dof)


def reference_z_result(corr, n, block) -> CITestResult:
    """The z-test of the query whose rows of the correlation matrix ``corr``
    are ``block`` (``x``, ``y``, then ``s``) on ``n`` rows, the arithmetic
    the stacked test must reproduce bit for bit: ``pinv`` of the 2-D block
    picked with ``np.ix_``, then the z arithmetic on its NumPy scalars."""
    scale = n - (len(block) - 2) - 3
    if scale <= 0:
        return CITestResult(1.0, 0.0, 0, BACKEND_FISHERZ, low_power=True)
    prec = np.linalg.pinv(corr[np.ix_(block, block)])
    xx, yy, xy = prec[0, 0], prec[1, 1], prec[0, 1]
    denom = xx * yy
    r = -xy / math.sqrt(denom) if denom > 0 else 0.0
    r = min(1.0 - 1e-15, max(-1.0 + 1e-15, r))
    statistic = math.sqrt(scale) * math.atanh(r)
    p_value = float(2.0 * special.ndtr(-abs(statistic)))
    return CITestResult(p_value, statistic, 0, BACKEND_FISHERZ)


@contextmanager
def row_scans():
    """A list that gets one entry per ``GTestBackend._counts`` call (one
    row scan) made inside the block."""
    scans = []
    counts = GTestBackend._counts
    with mock.patch.object(
        GTestBackend, "_counts", lambda self, *args: scans.append(args) or counts(self, *args)
    ):
        yield scans


def count_table(data, names) -> np.ndarray:
    """The integer table of ``names``' observed-level codes, one axis per
    name, counted with ``np.add.at`` rather than a joint cell index."""
    columns = [data.codes(v) for v in names]
    table = np.zeros([levels for _, levels in columns], dtype=np.int64)
    np.add.at(table, tuple(codes for codes, _ in columns), 1)
    return table


def count_rows(data, names) -> dict:
    """Joint cell counts by a literal per-row scan."""
    cols = [data.columns[n] for n in names]
    out: dict = {}
    for row in range(data.n):
        key = tuple(int(c[row]) for c in cols)
        out[key] = out.get(key, 0) + 1
    return out


def decode(data) -> dict[str, list]:
    """Every column of ``data`` as raw cell values: level labels or floats."""
    return {
        var.name: [var.levels[i] for i in data.columns[var.name]] if var.is_discrete
        else [float(v) for v in data.columns[var.name]]
        for var in data.schema
    }


def reference_codes(data, name) -> tuple[np.ndarray, int]:
    """``Dataset.codes`` by sorting: the column, cut at its quantiles when
    continuous, renumbered by ``np.unique(..., return_inverse=True)``."""
    col = data.columns[name]
    if not data.is_discrete(name):
        qs = np.linspace(0.0, 1.0, QUINTILE_BINS + 1)[1:-1]
        col = np.searchsorted(np.unique(np.quantile(col, qs)), col, side="right")
    levels, codes = np.unique(col, return_inverse=True)
    return codes, len(levels)


# -- differential replay -------------------------------------------------------


def full_scan_q_value(computer, n, variables, floor=-math.inf):
    """``maximize.q_value`` before its bound: every other is scored, in name
    order, in batches that each end at an other whose marginal p-value is at
    or below ``floor``, until the first score at or below ``floor``."""
    others = sorted(set(variables) - set(n) - {computer.anchor})
    marginals = computer.scores(others, ())
    q = math.inf
    start = 0
    for end, marginal in enumerate(marginals, 1):
        if marginal.p_value > floor and end < len(others):
            continue
        for record in computer.scores(others[start:end], n):
            if record.p_value <= floor:
                return record.p_value
            q = min(q, record.p_value)
        start = end
    return q


def reference_dag_extension(g):
    """``score.dag_extension`` one edge at a time: ``orient`` with no prior
    on a copy of ``g`` without its sepsets, then, while an undirected edge
    is left, the smallest one committed as it is ordered and the whole
    ``orient`` run again on the result."""
    work = orient(replace(g, sepsets={}), None)
    while work.undirected:
        edge = min(work.undirected)
        work.undirected.remove(edge)
        work.directed.add(edge)
        work = orient(work, None)
    return work


def cache_dump(engine) -> dict:
    """Every result in ``engine``'s cache by canonical key, as ``(p.hex(),
    statistic.hex(), dof, low_power)``: two dumps are equal exactly when
    the two engines hold the same queries with bitwise-equal results."""
    return {
        key: (float(r.p_value).hex(), float(r.statistic).hex(), r.dof, r.low_power)
        for key, r in engine.cache._store.items()
    }


def dump_differences(first: dict, second: dict) -> list[str]:
    """One line per key held by one dump only or valued differently."""
    lines = [f"only in first: {key}" for key in sorted(first.keys() - second.keys())]
    lines += [f"only in second: {key}" for key in sorted(second.keys() - first.keys())]
    lines += [
        f"{key}: {first[key]} != {second[key]}"
        for key in sorted(first.keys() & second.keys())
        if first[key] != second[key]
    ]
    return lines


def assert_same_dumps(first: dict, second: dict) -> None:
    lines = dump_differences(first, second)
    assert not lines, f"{len(lines)} cache entries differ:\n" + "\n".join(lines[:10])
