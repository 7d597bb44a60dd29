"""Differential replay: the batched query path against the one-by-one path,
and the bounded selection scan against the full scan.

A full ``learn_structure`` runs twice on fixed seeds and equal backends,
once on a ``CIEngine`` and once on a reference engine whose ``ask`` (so
also its ``p_values``) is the one-by-one loop over ``test``, with the
forward step testing one set, and one candidate, at a time
(``plain_extensions``) and selection scoring one other variable at a time
(``plain_q_value``).  The forward step alone is replayed the same way, so
that its memo and family are compared too.  The two engine caches must hold
the same queries with bitwise-equal results and equal hit and miss counts,
and the two graphs must serialize alike.

The bounded ``q_value`` skips every non-member whose marginal p-value is at
or above the first score; the full scan it replaced
(``oracle_helpers.full_scan_q_value``) scored them all.  Both must pick the
same selections and graphs with bitwise-equal results for the queries both
ask.  A losing candidate's scan may stop at its floor on another
non-member in each, so the bounded run may ask a query the full scan did
not, but only in a scan that stopped at its floor.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest

from causeweave import CIEngine, InjectedBackend, OracleBackend, maximize, skeleton_orient
from causeweave.citest import PASS_CELLS, GTestBackend, make_backend
from causeweave.dataset import Dataset, VariableSchema, from_raw
from causeweave.forward import ForwardSearch
from causeweave.pcstable import pc_stable
from causeweave.simgen import LinearSemSpec, gen_linear_sem, make_discrete_net
from causeweave.skeleton_orient import PriorKnowledge, learn_structure
from oracle_helpers import (
    assert_same_dumps,
    cache_dump,
    full_scan_q_value,
    random_dag,
    random_ptable,
)


class OneByOne(CIEngine):
    """An engine that asks each key of a round through ``test``."""

    def ask(self, keys):
        return [self.test(*key).p_value for key in keys]


def plain_extensions(search, level):
    """``ForwardSearch.extensions`` as a loop over the level's sets that, for
    each set, asks each candidate's first test, then its leave-one-out
    tests, before the next candidate."""

    def dependent(other, cond):
        return search.engine.test(search.target, other, cond).p_value <= search.alpha

    results = []
    for s in level:
        drops = [s[:i] + s[i + 1 :] for i in range(len(s))]
        if not s:
            candidates = search.order
        else:
            upper = frozenset.intersection(*(search.memo[d] for d in drops))
            later = search.order[search.rank[s[-1]] + 1 :]
            candidates = [t for t in later if t in upper]
        accepted = []
        for t in candidates:
            if len(s) > search.m_ci or (
                dependent(t, s) and all(dependent(v, d + (t,)) for v, d in zip(s, drops))
            ):
                accepted.append(t)
        search.memo[s] = frozenset(accepted)
        results.append(tuple(accepted))
    return results


def plain_q_value(computer, n, variables, floor=-math.inf):
    """``maximize.q_value`` as a loop that scores one other at a time: the
    lowest (marginal p-value, name) first, then, in ascending order, each
    other whose marginal lies below that first score, stopping at the first
    score at or below ``floor``."""
    others = sorted(set(variables) - set(n) - {computer.anchor})
    if not others:
        return math.inf
    ranked = sorted((computer.score(other, ()).p_value, other) for other in others)
    q = bound = computer.score(ranked[0][1], n).p_value
    for marginal, other in ranked[1:]:
        if q <= floor or marginal >= bound:
            break
        q = min(q, computer.score(other, n).p_value)
    return q


def categorical(seed):
    return make_discrete_net(12, 3, 3, seed=[seed, 0]).sample(400, seed=[seed, 1])


def categorical_levels(seed):
    """A 4-level net with its columns merged down to 2, 3 or 4 levels, so
    that one batch holds tables of several shapes."""
    data = make_discrete_net(12, 3, 4, seed=[seed, 0]).sample(600, seed=[seed, 1])
    schema, columns = [], {}
    for j, var in enumerate(data.schema):
        k = 2 + j % 3
        schema.append(VariableSchema(var.name, "categorical", var.levels[:k]))
        columns[var.name] = np.minimum(data.columns[var.name], k - 1)
    return Dataset(schema=tuple(schema), columns=columns, n=data.n)


def categorical_small(seed):
    """30 rows of a 4-level net: tests given two others have 144 dof."""
    return make_discrete_net(8, 3, 4, seed=[seed, 0]).sample(30, seed=[seed, 1])


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


def wide(seed):
    """A sparse 30-variable model, wide enough for z-test stacks of 50 and more."""
    data, _ = gen_linear_sem(LinearSemSpec(k=30, rho=0.05, theta=0.5, n=2000, seed=[seed, 0]))
    return data


def injected_entries(names, seed, zero_pairs):
    """A complete table skewed towards small p-values, so that most pairs
    are dependent.  With ``zero_pairs``, every test of about one pair in
    five reads exactly 0.0, the value a p-value underflows to, so that
    selection's first candidate (floor 0.0) can stop early too."""
    table = random_ptable(names, np.random.default_rng(seed))
    return [
        {
            "x": a, "y": b, "s": s,
            "p": 0.0 if zero_pairs and (int(a[1:]) + int(b[1:])) % 5 == 0 else p**6,
        }
        for (a, b, s), p in table.items()
    ]


def engines(kind, seed):
    """The batched engine and its one-by-one reference, on equal backends."""
    if kind.startswith("injected"):
        names = [f"V{i}" for i in range(9)]
        entries = injected_entries(names, seed, zero_pairs=kind == "injected-zeros")
        backends = (InjectedBackend.from_entries(entries), InjectedBackend.from_entries(entries))
    elif kind == "oracle":
        dag = random_dag(9, np.random.default_rng(seed), edge_prob=0.35, max_degree=3)
        names = list(dag.vertices)
        backends = (OracleBackend(dag), OracleBackend(dag))
    else:
        data = {"gtest": categorical, "fisherz": continuous, "auto": mixed,
                "fisherz-wide": wide, "gtest-levels": categorical_levels,
                "gtest-small": categorical_small}[kind](seed)
        names = list(data.names)
        backend = kind.partition("-")[0]
        backends = (make_backend(data, backend), make_backend(data, backend))
    return names, CIEngine(backends[0]), OneByOne(backends[1])


def tiers(names):
    """A prior that puts three variables per tier, in name-list order."""
    return PriorKnowledge(tiers={v: i // 3 for i, v in enumerate(names)})


def replay(kind, seed, learner=learn_structure, **kwargs):
    names, batched, reference = engines(kind, seed)
    graph = learner(names, batched, **kwargs)
    with mock.patch.object(maximize, "q_value", plain_q_value), mock.patch.object(
        ForwardSearch, "extensions", plain_extensions
    ):
        expected = learner(names, reference, **kwargs)
    return batched, reference, graph, expected


def assert_replayed(batched, reference, graph, expected):
    assert_same_dumps(cache_dump(batched), cache_dump(reference))
    assert (batched.cache.hits, batched.cache.misses) == (
        reference.cache.hits, reference.cache.misses
    )
    assert graph.to_json() == expected.to_json()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", ["gtest", "auto", "fisherz", "injected"])
def test_batched_queries_replay_bitwise(kind, seed):
    batched, reference, graph, expected = replay(kind, seed)
    assert_replayed(batched, reference, graph, expected)
    assert len(cache_dump(batched)) > 150


@pytest.mark.parametrize("kind", ["gtest", "fisherz", "auto", "injected", "oracle"])
def test_forward_rounds_replay_the_one_by_one_search(kind):
    names, batched, reference = engines(kind, 1)
    searches = [ForwardSearch(x, names, batched, alpha=0.2) for x in names]
    families = [search.run() for search in searches]
    with mock.patch.object(ForwardSearch, "extensions", plain_extensions):
        expected = [ForwardSearch(x, names, reference, alpha=0.2) for x in names]
        expected_families = [search.run() for search in expected]
    assert families == expected_families
    assert [s.memo for s in searches] == [s.memo for s in expected]
    assert [s.expanded for s in searches] == [s.expanded for s in expected]
    assert_same_dumps(cache_dump(batched), cache_dump(reference))
    assert (batched.cache.hits, batched.cache.misses) == (
        reference.cache.hits, reference.cache.misses
    )
    # Some searches grow sets of two or more, so leave-one-out rounds ran.
    assert any(len(s) >= 2 for search in searches for s in search.memo)


def test_wide_fisherz_replay_stacks_fifty_and_more(monkeypatch):
    stacks = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(
        np.linalg, "pinv", lambda a: stacks.append(len(a) if a.ndim == 3 else 1) or pinv(a)
    )
    batched, reference, graph, expected = replay("fisherz-wide", 0, alpha=0.01, m_ci=2)
    assert_replayed(batched, reference, graph, expected)
    assert max(stacks) >= 50


def test_gtest_replay_mixes_shapes_and_splits_passes(monkeypatch):
    calls, inside = [], []
    compute, scored = GTestBackend.compute, GTestBackend._scored

    def spy_compute(self, keys):
        calls.append([])
        inside.append(True)
        try:
            return compute(self, keys)
        finally:
            inside.pop()

    def spy_scored(self, blocks):
        if inside:
            calls[-1].append([block.shape for block in blocks])
        return scored(self, blocks)

    monkeypatch.setattr(GTestBackend, "compute", spy_compute)
    monkeypatch.setattr(GTestBackend, "_scored", spy_scored)
    batched, reference, graph, expected = replay("gtest-levels", 4)
    assert_replayed(batched, reference, graph, expected)
    # One pass scored tables of several shapes ...
    assert any(len(set(shapes)) > 1 for call in calls for shapes in call)
    # ... and one call split its tables into several passes at the cap.
    assert any(len(call) > 1 for call in calls)
    # A pass of several tables holds at most PASS_CELLS cells once padded.
    assert max(
        max(a for a, _, _ in shapes) * max(b for _, b, _ in shapes) * sum(w for *_, w in shapes)
        for call in calls for shapes in call if len(shapes) > 1
    ) <= PASS_CELLS


def test_gtest_replay_with_fewer_rows_than_dof():
    batched, reference, graph, expected = replay("gtest-small", 1)
    assert_replayed(batched, reference, graph, expected)
    results = list(batched.cache._store.values())
    assert any(r.dof > 30 for r in results)
    assert all(r.low_power == (30 < 5 * r.dof) for r in results)


def test_injected_replay_stops_where_the_plain_scan_stops():
    stops = []

    def spy(computer, n, variables, floor=-math.inf):
        q = q_value(computer, n, variables, floor)
        stops.append(floor if q <= floor else None)
        return q

    q_value = maximize.q_value
    with mock.patch.object(maximize, "q_value", spy):
        batched, reference, graph, expected = replay("injected-zeros", 3, alpha=0.2)
    assert_replayed(batched, reference, graph, expected)
    # Stops at the first candidate's floor of 0.0, and at later floors.
    assert 0.0 in stops and any(s is not None and s > 0.0 for s in stops)


def test_batched_queries_replay_with_prior_and_pc_stable():
    names, _, _ = engines("auto", 2)
    for learner in (learn_structure, pc_stable):
        assert_replayed(*replay("auto", 2, learner, prior=tiers(names)))


def test_replay_helper_catches_one_ulp():
    batched, reference, _, _ = replay("gtest", 0)
    key, result = next(
        (k, r) for k, r in sorted(reference.cache._store.items()) if r.statistic > 0
    )
    moved = np.nextafter(result.statistic, np.inf)
    reference.cache.store(key, dataclasses.replace(result, statistic=moved))
    with pytest.raises(AssertionError, match="1 cache entries differ"):
        assert_same_dumps(cache_dump(batched), cache_dump(reference))


def learn_with(q_value, kind, seed, prior):
    """A learn on a fresh engine with ``q_value`` as selection's scan: its
    engine, its graph, each target's selection and the queries asked by the
    scans that stopped at their floor."""
    names, engine, _ = engines(kind, seed)
    selections, stopped = {}, set()
    step = maximize.maximization_step

    def spy_step(x, *args, **kwargs):
        selections[x] = step(x, *args, **kwargs)
        return selections[x]

    def spy_scan(computer, n, variables, floor=-math.inf):
        with engine.trace() as log:
            q = q_value(computer, n, variables, floor)
        if q <= floor:
            stopped.update(log)
        return q

    with mock.patch.object(maximize, "q_value", spy_scan), mock.patch.object(
        skeleton_orient, "maximization_step", spy_step
    ):
        graph = learn_structure(names, engine, prior=tiers(names) if prior else None)
    return engine, graph, selections, stopped


@pytest.mark.parametrize("prior", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["gtest", "fisherz", "auto", "injected", "oracle"])
def test_bounded_scan_matches_the_full_scan(kind, seed, prior):
    bounded, graph, selections, stopped = learn_with(maximize.q_value, kind, seed, prior)
    full, full_graph, full_selections, _ = learn_with(full_scan_q_value, kind, seed, prior)
    assert graph.to_json() == full_graph.to_json()
    assert selections == full_selections
    asked, full_asked = cache_dump(bounded), cache_dump(full)
    shared = asked.keys() & full_asked.keys()
    assert_same_dumps({k: asked[k] for k in shared}, {k: full_asked[k] for k in shared})
    assert asked.keys() - full_asked.keys() <= stopped


@pytest.mark.parametrize("kind", ["gtest", "fisherz", "auto", "injected", "oracle"])
def test_bounded_scan_asks_fewer_queries(kind):
    bounded, _, _, _ = learn_with(maximize.q_value, kind, 0, False)
    full, _, _, _ = learn_with(full_scan_q_value, kind, 0, False)
    assert bounded.cache.misses < full.cache.misses
