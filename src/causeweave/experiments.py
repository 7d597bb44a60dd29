"""Monte-Carlo experiment harness comparing the two learners.

Two experiment families:

* continuous — a fresh linear model per replicate; reports mean skeleton
  rates per algorithm.
* categorical — one fixed random discrete network; replicates draw fresh
  datasets from it, so edge frequencies support a threshold curve, and the
  information criterion is evaluated per replicate.

Every replicate derives its generator from (master seed, replicate index),
so results are independent of scheduling and worker count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .citest import CIEngine, FisherZBackend, GTestBackend
from .pcstable import pc_stable
from .score import bic_of_graph
from .simgen import (
    LinearSemSpec,
    SimReport,
    evaluate_recovery,
    gen_linear_sem,
    make_discrete_net,
)
from .skeleton_orient import learn_structure

PROPOSED = "proposed"
PC_STABLE = "pc-stable"
ALGORITHMS = (PROPOSED, PC_STABLE)


@dataclass(frozen=True)
class ContinuousSimConfig:
    """Linear-model benchmark: a new graph and dataset every replicate."""

    k: int = 20
    n: int = 500
    rho: float = 0.04
    theta: float = 0.5
    reps: int = 100
    alpha: float = 0.01
    m_ci: int = 2
    seed: int = 0
    threads: int = 1


@dataclass(frozen=True)
class CategoricalSimConfig:
    """Discrete-network benchmark: one fixed net, fresh samples per replicate."""

    k: int = 20
    n: int = 500
    levels: int = 2
    max_parents: int = 3
    reps: int = 100
    alpha: float = 0.05
    m_ci: int = 3
    seed: int = 0
    threads: int = 1
    compute_bic: bool = True


def _learn_all(data, engine, alpha, m_ci):
    """Both learners' graphs, the proposed one first, over one shared cache."""
    return {
        PROPOSED: learn_structure(data.names, engine, alpha=alpha, m_ci=m_ci),
        PC_STABLE: pc_stable(data.names, engine, alpha=alpha, m_ci=m_ci),
    }


# The replicate closure of the open pool.  Forked workers inherit it, so
# only replicate indices and results cross the process boundary.
_job = None


def _run_job(rep: int):
    return _job(rep)


def _map_reps(worker, reps: int, threads: int) -> list:
    """``[worker(r) for r in range(reps)]``, on at most ``threads`` forked
    worker processes and never more than there are cores.

    Results come back in replicate order, and a failure raises the lowest
    failing replicate's exception, as the serial loop does.  Where ``fork``
    is unavailable the replicates run serially: spawned workers would
    re-import numpy and scipy and could not receive the closure.
    """
    global _job
    workers = min(threads, reps, os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            _job = worker
            try:
                ctx = multiprocessing.get_context("fork")
                with ctx.Pool(workers) as pool:
                    return list(pool.imap(_run_job, range(reps)))
            finally:
                _job = None
    return [worker(r) for r in range(reps)]


def run_continuous_experiment(cfg: ContinuousSimConfig) -> dict[str, SimReport]:
    """Mean skeleton recovery per algorithm over fresh linear models."""

    def worker(rep: int):
        spec = LinearSemSpec(
            k=cfg.k, rho=cfg.rho, theta=cfg.theta, n=cfg.n, seed=[cfg.seed, rep]
        )
        data, truth = gen_linear_sem(spec)
        engine = CIEngine(FisherZBackend(data))
        return truth, _learn_all(data, engine, cfg.alpha, cfg.m_ci)

    outcomes = _map_reps(worker, cfg.reps, cfg.threads)
    truths = [truth for truth, _ in outcomes]
    return {
        alg: evaluate_recovery(truths, [graphs[alg] for _, graphs in outcomes])
        for alg in ALGORITHMS
    }


def run_categorical_experiment(cfg: CategoricalSimConfig) -> dict[str, SimReport]:
    """Recovery, threshold curve, and criterion per algorithm on one net."""
    net = make_discrete_net(cfg.k, cfg.max_parents, cfg.levels, seed=[cfg.seed, 0])

    def worker(rep: int):
        data = net.sample(cfg.n, seed=[cfg.seed, 1 + rep])
        engine = CIEngine(GTestBackend(data))
        graphs = _learn_all(data, engine, cfg.alpha, cfg.m_ci)
        if not cfg.compute_bic:
            return graphs, None
        return graphs, {alg: bic_of_graph(data, g).bic for alg, g in graphs.items()}

    outcomes = _map_reps(worker, cfg.reps, cfg.threads)
    reports = {}
    for alg in ALGORITHMS:
        bic = tuple(bics[alg] for _, bics in outcomes) if cfg.compute_bic else None
        reports[alg] = evaluate_recovery(net.graph, [g[alg] for g, _ in outcomes], bic=bic)
    return reports
