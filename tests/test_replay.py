"""Differential replay: the batched query path against the one-by-one path.

A full ``learn_structure`` runs twice on fixed seeds and equal backends,
once on a ``CIEngine`` and once on a reference engine whose ``p_values``
is the one-by-one loop over ``p_value``.  The two engine caches must hold
the same queries with bitwise-equal results and equal hit and miss counts,
and the two graphs must serialize alike.
"""

import dataclasses

import numpy as np
import pytest

from causeweave import CIEngine, inject_results
from causeweave.citest import make_backend
from causeweave.dataset import VariableSchema, from_raw
from causeweave.pcstable import pc_stable
from causeweave.simgen import LinearSemSpec, gen_linear_sem, make_discrete_net
from causeweave.skeleton_orient import PriorKnowledge, learn_structure
from oracle_helpers import assert_same_dumps, cache_dump, random_ptable


class OneByOne(CIEngine):
    """An engine that asks each query of a batch through ``test``."""

    def p_values(self, x, y, subsets):
        return [self.p_value(x, y, s) for s in subsets]


def categorical(seed):
    return make_discrete_net(12, 3, 3, seed=[seed, 0]).sample(400, seed=[seed, 1])


def continuous(seed):
    data, _ = gen_linear_sem(LinearSemSpec(k=12, rho=0.25, theta=0.5, n=300, seed=[seed, 0]))
    return data


def mixed(seed):
    """Two thirds of a linear model's columns cut at quantiles into 2-4 levels."""
    data, _ = gen_linear_sem(LinearSemSpec(k=9, rho=0.3, theta=0.5, n=5000, seed=[seed, 0]))
    rng = np.random.default_rng([seed, 1])
    schema, raw = [], {}
    for j, name in enumerate(data.names):
        col = data.columns[name]
        if j % 3 == 2:
            schema.append(VariableSchema(name, "continuous"))
            raw[name] = col.tolist()
            continue
        k = int(rng.integers(2, 5))
        labels = tuple(f"l{i}" for i in range(k))
        cuts = np.quantile(col, np.linspace(0.0, 1.0, k + 1)[1:-1])
        schema.append(VariableSchema(name, "ordinal", labels))
        raw[name] = [labels[c] for c in np.searchsorted(cuts, col, side="right")]
    return from_raw(tuple(schema), raw)


def engines(kind, seed):
    """The batched engine and its one-by-one reference, on equal backends."""
    if kind == "injected":
        # Skewed towards small p-values, so that most pairs are dependent.
        names = [f"V{i}" for i in range(9)]
        table = random_ptable(names, np.random.default_rng(seed))
        entries = [(*key, p**6) for key, p in table.items()]
        backends = (inject_results(entries), inject_results(entries))
    else:
        data = {"gtest": categorical, "fisherz": continuous, "auto": mixed}[kind](seed)
        names = list(data.names)
        backends = (make_backend(data, kind), make_backend(data, kind))
    return names, CIEngine(backends[0]), OneByOne(backends[1])


def replay(kind, seed, learner=learn_structure, **kwargs):
    names, batched, reference = engines(kind, seed)
    graph = learner(names, batched, **kwargs)
    expected = learner(names, reference, **kwargs)
    return batched, reference, graph, expected


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", ["gtest", "auto", "fisherz", "injected"])
def test_batched_queries_replay_bitwise(kind, seed):
    batched, reference, graph, expected = replay(kind, seed)
    assert_same_dumps(cache_dump(batched), cache_dump(reference))
    assert len(batched.cache) > 150
    assert (batched.cache.hits, batched.cache.misses) == (
        reference.cache.hits, reference.cache.misses
    )
    assert graph.to_json() == expected.to_json()


def test_batched_queries_replay_with_prior_and_pc_stable():
    names, _, _ = engines("auto", 2)
    prior = PriorKnowledge(tiers={v: i // 3 for i, v in enumerate(names)})
    for learner in (learn_structure, pc_stable):
        batched, reference, graph, expected = replay("auto", 2, learner, prior=prior)
        assert_same_dumps(cache_dump(batched), cache_dump(reference))
        assert graph.to_json() == expected.to_json()


def test_replay_helper_catches_one_ulp():
    batched, reference, _, _ = replay("gtest", 0)
    key, result = next(
        (k, r) for k, r in sorted(reference.cache._store.items()) if r.statistic > 0
    )
    moved = np.nextafter(result.statistic, np.inf)
    reference.cache.store(key, dataclasses.replace(result, statistic=moved))
    with pytest.raises(AssertionError, match="1 cache entries differ"):
        assert_same_dumps(cache_dump(batched), cache_dump(reference))
