"""Graph comparison via a decomposable information criterion.

The log-likelihood of a directed graph splits into one term per vertex
given its parents.  Each local term is reported relative to the
intercept-only null model, so every per-vertex contribution is
non-negative and the empty graph scores exactly zero.  Discrete vertices
get the saturated per-parent-configuration multinomial maximum likelihood
(which is the categorical GLM fit in closed form, with continuous parents
binned by ``Dataset.codes``); continuous vertices get
ordinary least squares on their parent encodings.  The criterion is
``-2 * loglik_star + df * log(n)``: lower is better.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset, joint_codes
from .errors import MissingColumn
from .skeleton_orient import Cpdag, orient

# Relative floor on residual variance; keeps perfect fits finite.
_RSS_FLOOR = 1e-15


@dataclass(frozen=True)
class LocalFit:
    loglik_star: float
    df: int


@dataclass(frozen=True)
class FitReport:
    """Per-vertex likelihood gains and the aggregated criterion."""

    per_vertex: dict[str, LocalFit]
    total_loglik_star: float
    total_df: int
    bic: float
    n: int


def _fit_discrete(data: Dataset, x: str, parents: list[str]) -> LocalFit:
    columns = [data.codes(v) for v in parents + [x]]
    levels = columns[-1][1]
    flat, n_cells = joint_codes(columns, data.n)
    counts = np.bincount(flat, minlength=n_cells).reshape(-1, levels).astype(np.float64)

    config_totals = counts.sum(axis=1)
    config, level = np.nonzero(counts)
    observed = counts[config, level]
    fitted = float(np.sum(observed * np.log(observed / config_totals[config])))
    marg = counts.sum(axis=0)
    nz = marg > 0
    null = float(np.sum(marg[nz] * np.log(marg[nz] / data.n)))
    observed_configs = int(np.count_nonzero(config_totals))
    return LocalFit(
        loglik_star=max(0.0, fitted - null),
        df=(levels - 1) * (observed_configs - 1),
    )


def _fit_continuous(data: Dataset, x: str, parents: list[str]) -> LocalFit:
    y = data.columns[x].astype(np.float64)
    blocks = [np.ones((data.n, 1))]
    for p in parents:
        if data.is_discrete(p):
            codes, nl = data.codes(p)
            dummies = np.zeros((data.n, nl - 1))
            for lvl in range(1, nl):
                dummies[:, lvl - 1] = codes == lvl
            blocks.append(dummies)
        else:
            blocks.append(data.columns[p].reshape(-1, 1))
    design = np.hstack(blocks)
    beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    tss = float(np.sum((y - y.mean()) ** 2))
    if tss <= 0.0:
        return LocalFit(loglik_star=0.0, df=max(0, int(rank) - 1))
    rss = max(float(resid @ resid), tss * _RSS_FLOOR)
    return LocalFit(
        loglik_star=max(0.0, 0.5 * data.n * math.log(tss / rss)),
        df=max(0, int(rank) - 1),
    )


def fit_local(data: Dataset, x: str, parents) -> LocalFit:
    """Likelihood gain of regressing ``x`` on ``parents`` over no parents.

    The gain is non-negative by model nesting; the degrees of freedom count
    the parameters beyond the null model, with unobserved levels of ``x``,
    unobserved parent configurations (and collinear regression columns)
    contributing none.
    """
    parents = sorted(set(parents))
    if x in parents:
        raise ValueError(f"{x!r} cannot be its own parent")
    if not parents or data.n == 0:
        return LocalFit(loglik_star=0.0, df=0)
    if data.is_discrete(x):
        return _fit_discrete(data, x, parents)
    return _fit_continuous(data, x, parents)


def dag_extension(g: Cpdag) -> Cpdag:
    """A fully directed graph consistent with the mixed input.

    Propagation rules run first, on a copy without the input's sepsets so
    no collider is added; while undirected edges remain, the smallest one is
    committed in a cycle-free direction and propagation reruns.
    Deterministic and always acyclic.
    """
    work = orient(replace(g, sepsets={}), None)
    while work.undirected:
        # ``orient`` left no undirected edge along a directed path: no cycle.
        edge = min(work.undirected)
        work.undirected.remove(edge)
        work.directed.add(edge)
        work = orient(work, None)
    return work


def bic_of_graph(data: Dataset, g: Cpdag) -> FitReport:
    """Information criterion of a learned graph against a dataset.

    Undirected edges are first resolved through a consistent directed
    extension; vertex terms then add up by the likelihood decomposition.
    Raises ``MissingColumn`` for the first graph vertex, in sorted order,
    that is not a data column; data columns outside the graph are ignored.
    """
    missing = sorted(set(g.vertices) - set(data.names))
    if missing:
        raise MissingColumn(f"graph vertex {missing[0]!r} is not a data column")
    extension = dag_extension(g)
    per_vertex: dict[str, LocalFit] = {}
    for v in extension.vertices:
        per_vertex[v] = fit_local(data, v, extension.parents(v))
    total_ll = sum(f.loglik_star for f in per_vertex.values())
    total_df = sum(f.df for f in per_vertex.values())
    bic = -2.0 * total_ll + total_df * math.log(data.n) if data.n else 0.0
    return FitReport(
        per_vertex=per_vertex,
        total_loglik_star=total_ll,
        total_df=total_df,
        bic=bic,
        n=data.n,
    )
