"""Re-measure the ROADMAP "Baseline" figures with the benchmark's tracer.

    python3 perfbench/crosscheck.py [--with-k80]

Run from the repository root.  Measures, on this machine:

* one criterion-6 replicate (seed 77, replicate 0: k=20 binary variables,
  n=500, alpha=0.05, m_ci=3): the proposed learner untraced, then traced
  for its backend time, cache misses and hits and stage times; PC-stable
  on a fresh engine and on the learner's warm one; BIC;
* eight criterion-6 replicates with one and with two threads;
* continuous ``learn_structure`` (rho=0.04, theta=0.5, n=2000, alpha=0.01,
  m_ci=2): the median over seeds 0-4 at k=20 and k=40, and seed 0 at k=80
  with ``--with-k80`` (20-50 s);
* the p-value calls: ``scipy.stats`` distributions against the
  ``scipy.special`` functions, and whether they agree bitwise.

Prints one line per figure with the ROADMAP value beside it, then one JSON
object with every figure.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
from scipy import special, stats  # noqa: E402

from causeweave.citest import CIEngine, FisherZBackend, GTestBackend  # noqa: E402
from causeweave.experiments import (  # noqa: E402
    CategoricalSimConfig,
    run_categorical_experiment,
)
from causeweave.pcstable import pc_stable  # noqa: E402
from causeweave.score import bic_of_graph  # noqa: E402
from causeweave.simgen import LinearSemSpec, gen_linear_sem, make_discrete_net  # noqa: E402
from causeweave.skeleton_orient import learn_structure  # noqa: E402

import tracer  # noqa: E402

# The ROADMAP "Baseline" section, in the units printed below.
ROADMAP = {
    "rep.proposed_s": 0.63,
    "rep.backend_s": 0.56,
    "rep.misses": 4707,
    "rep.hits": 3521,
    "rep.pcstable_s": 0.09,
    "rep.bic_s": 0.003,
    "rep.forward_s": 0.16,
    "rep.selection_s": 0.37,
    "rep.sepsets_significance_orient_s": 0.01,
    "reps8.threads1_s": 5.6,
    "reps8.threads2_s": 7.0,
    "learn.k20_s": 0.6,
    "learn.k40_s": 1.9,
    "learn.k80_s": 21.1,
    "pvalue.chi2_sf_us": 52.0,
    "pvalue.chdtrc_us": 2.0,
    "pvalue.norm_sf_us": 66.0,
    "pvalue.ndtr_us": 0.3,
}


def best_of(fn, repeat: int = 3) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def replicate() -> dict:
    net = make_discrete_net(20, 3, 2, seed=[77, 0])
    data = net.sample(500, seed=[77, 1])
    out = {"rep.proposed_s": best_of(
        lambda: learn_structure(data.names, CIEngine(GTestBackend(data)), alpha=0.05, m_ci=3))}
    engine = CIEngine(GTestBackend(data))
    tr = tracer.Tracer()
    t0 = time.perf_counter()
    with tr:
        graph = learn_structure(data.names, engine, alpha=0.05, m_ci=3)
    unit = tr.end_unit(time.perf_counter() - t0)
    out["rep.proposed_traced_s"] = unit["unit_s"]
    out["rep.backend_s"] = unit["citest.gtest.s"]
    out["rep.misses"] = engine.cache.misses
    out["rep.hits"] = engine.cache.hits
    out["rep.forward_s"] = unit["forward.s"]
    out["rep.selection_s"] = unit["maximize.s"]
    out["rep.sepsets_significance_orient_s"] = sum(
        unit.get(f"{s}.s", 0.0) for s in ("sepsets", "significance", "orient"))
    t0 = time.perf_counter()
    pc_stable(data.names, engine, alpha=0.05, m_ci=3)
    out["rep.pcstable_warm_s"] = time.perf_counter() - t0
    out["rep.pcstable_s"] = best_of(
        lambda: pc_stable(data.names, CIEngine(GTestBackend(data)), alpha=0.05, m_ci=3))
    out["rep.bic_s"] = best_of(lambda: bic_of_graph(data, graph))
    return out


def threads() -> dict:
    out = {}
    for n in (1, 2):
        cfg = CategoricalSimConfig(k=20, n=500, reps=8, alpha=0.05, m_ci=3, seed=77, threads=n)
        t0 = time.perf_counter()
        run_categorical_experiment(cfg)
        out[f"reps8.threads{n}_s"] = time.perf_counter() - t0
    return out


def continuous(ks, seeds) -> dict:
    """Median learn time over ``seeds``, plus each seed's time and edge count:
    a single graph's time depends strongly on its edges."""
    out = {}
    for k in ks:
        times, edges = [], []
        for seed in seeds:
            data, truth = gen_linear_sem(LinearSemSpec(k=k, rho=0.04, theta=0.5, n=2000, seed=seed))
            t0 = time.perf_counter()
            learn_structure(data.names, CIEngine(FisherZBackend(data)), alpha=0.01, m_ci=2)
            times.append(time.perf_counter() - t0)
            edges.append(len(truth.edges))
        out[f"learn.k{k}_s"] = statistics.median(times)
        out[f"learn.k{k}_per_seed_s"] = [round(t, 4) for t in times]
        out[f"learn.k{k}_per_seed_edges"] = edges
    return out


def pvalues(samples: int = 100_000) -> dict:
    rng = np.random.default_rng(0)
    stat = rng.exponential(5.0, samples)
    dof = rng.integers(1, 40, samples).astype(float)
    z = rng.normal(0.0, 3.0, samples)
    calls = 20_000

    def per_call_us(fn, *args) -> float:
        timer = timeit.Timer(lambda: fn(*args))
        return 1e6 * min(timer.repeat(3, calls)) / calls

    chi2_equal = np.array_equal(stats.chi2.sf(stat, dof), special.chdtrc(dof, stat))
    norm_equal = np.array_equal(stats.norm.sf(z), special.ndtr(-z))
    return {
        "pvalue.chi2_sf_us": per_call_us(stats.chi2.sf, 7.3, 4),
        "pvalue.chdtrc_us": per_call_us(special.chdtrc, 4, 7.3),
        "pvalue.norm_sf_us": per_call_us(stats.norm.sf, 1.7),
        "pvalue.ndtr_us": per_call_us(special.ndtr, -1.7),
        "pvalue.chi2_bitwise_equal": bool(chi2_equal),
        "pvalue.norm_bitwise_equal": bool(norm_equal),
        "pvalue.samples": samples,
    }


def main(argv: list[str]) -> int:
    figures: dict = {}
    figures.update(replicate())
    figures.update(threads())
    figures.update(continuous((20, 40), range(5)))
    if "--with-k80" in argv:
        figures.update(continuous((80,), range(1)))
    figures.update(pvalues())
    for key, value in figures.items():
        ref = ROADMAP.get(key)
        if isinstance(value, float) and ref:
            print(f"{key:<36} {value:>12.4g}   ROADMAP {ref:<8g} ratio {value / ref:.2f}")
        else:
            print(f"{key:<36} {value!s:>12}")
    print(json.dumps(figures, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
