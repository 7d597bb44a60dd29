import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from causeweave import CICache, CIEngine, ci_test, inject_results
from causeweave.citest import (
    FisherZBackend,
    GTestBackend,
    InjectedBackend,
    canonical_key,
    make_backend,
)
from causeweave.dataset import VariableSchema, from_raw
from causeweave.errors import MixedBackendUnsupported, UninjectedQuery
from causeweave.simgen import LinearSemSpec, gen_linear_sem, make_discrete_net
from causeweave.skeleton_orient import learn_structure
from conftest import EXAMPLE1_ENTRIES
from oracle_helpers import entropy_cmi


def binary_data(cols: dict[str, list[int]]):
    schema = tuple(
        VariableSchema(n, "categorical", ("0", "1")) for n in sorted(cols)
    )
    raw = {n: [str(v) for v in vals] for n, vals in cols.items()}
    return from_raw(schema, raw)


def discrete_data(arrays: dict[str, np.ndarray], n_levels: int):
    labels = tuple(str(i) for i in range(n_levels))
    schema = tuple(VariableSchema(n, "categorical", labels) for n in sorted(arrays))
    return from_raw(schema, {n: [labels[v] for v in a] for n, a in arrays.items()})


def test_exact_independence_gives_p_one():
    # counts [[25,25],[25,25]]: empirical independence, zero statistic.
    a = [0] * 50 + [1] * 50
    b = ([0] * 25 + [1] * 25) * 2
    res = ci_test(binary_data({"a": a, "b": b}), "a", "b", backend="gtest")
    assert res.statistic == pytest.approx(0.0, abs=1e-12)
    assert res.p_value == pytest.approx(1.0)
    assert res.dof == 1


def test_fisherz_zero_correlation_gives_p_one():
    n = 100
    x = np.tile([1.0, 1.0, -1.0, -1.0], n // 4)
    y = np.tile([1.0, -1.0, 1.0, -1.0], n // 4)  # orthogonal to x by design
    schema = (VariableSchema("x", "continuous"), VariableSchema("y", "continuous"))
    data = from_raw(schema, {"x": list(x), "y": list(y)})
    res = ci_test(data, "x", "y", backend="fisherz")
    assert res.statistic == pytest.approx(0.0, abs=1e-12)
    assert res.p_value == pytest.approx(1.0)


def test_g_statistic_matches_entropy_oracle(rng):
    arrays = {n: rng.integers(0, 2, size=200) for n in ("a", "b", "c")}
    data = discrete_data(arrays, 2)
    res = ci_test(data, "a", "b", ("c",), backend="gtest")
    counts = np.zeros((2, 2, 2))
    for i in range(200):
        counts[arrays["a"][i], arrays["b"][i], arrays["c"][i]] += 1
    expected = 2.0 * 200 * entropy_cmi(counts)
    assert res.statistic == pytest.approx(expected, rel=1e-10, abs=1e-10)


def test_gtest_empty_stratum_excluded_from_dof(rng):
    # conditioning level 2 never occurs: dof counts 2 strata, not 3.
    a = rng.integers(0, 2, size=60)
    b = rng.integers(0, 2, size=60)
    c = rng.integers(0, 2, size=60)  # third level unused
    labels = ("0", "1", "2")
    schema = (
        VariableSchema("a", "categorical", ("0", "1")),
        VariableSchema("b", "categorical", ("0", "1")),
        VariableSchema("c", "categorical", labels),
    )
    data = from_raw(
        schema,
        {"a": [str(v) for v in a], "b": [str(v) for v in b], "c": [str(v) for v in c]},
    )
    res = ci_test(data, "a", "b", ("c",), backend="gtest")
    assert res.dof == 1 * 1 * 2


def test_low_power_flag(rng):
    arrays = {n: rng.integers(0, 3, size=30) for n in ("a", "b", "c")}
    data = discrete_data(arrays, 3)
    res = ci_test(data, "a", "b", ("c",), backend="gtest")
    assert res.dof >= 8
    assert res.low_power  # 30 < 5 * dof


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_gtest_invariant_under_relabeling_and_swap(data_strategy):
    seed = data_strategy.draw(st.integers(0, 10**6))
    rng = np.random.default_rng(seed)
    arrays = {n: rng.integers(0, 2, size=80) for n in ("a", "b")}
    base = discrete_data(arrays, 2)
    res = ci_test(base, "a", "b", backend="gtest")
    swapped = ci_test(base, "b", "a", backend="gtest")
    relabeled = discrete_data({"a": 1 - arrays["a"], "b": arrays["b"]}, 2)
    rel = ci_test(relabeled, "a", "b", backend="gtest")
    assert res.statistic == pytest.approx(swapped.statistic, abs=1e-12)
    assert res.statistic == pytest.approx(rel.statistic, rel=1e-12, abs=1e-12)
    assert res.p_value == pytest.approx(rel.p_value, rel=1e-12, abs=1e-12)


@given(
    scale=st.floats(0.05, 50.0),
    shift=st.floats(-100.0, 100.0),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=30, deadline=None)
def test_fisherz_affine_invariance(scale, shift, seed):
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((60, 3))
    block[:, 1] += 0.5 * block[:, 0]

    def dataset(first_col):
        cols = {"x": first_col, "y": block[:, 1], "z": block[:, 2]}
        schema = tuple(VariableSchema(n, "continuous") for n in sorted(cols))
        return from_raw(schema, {n: list(v) for n, v in cols.items()})

    res = ci_test(dataset(block[:, 0]), "x", "y", ("z",), backend="fisherz")
    res2 = ci_test(dataset(scale * block[:, 0] + shift), "x", "y", ("z",), backend="fisherz")
    assert res.p_value == pytest.approx(res2.p_value, rel=1e-9, abs=1e-12)


def test_fisherz_rejects_discrete():
    data = binary_data({"a": [0, 1, 0, 1], "b": [0, 0, 1, 1]})
    with pytest.raises(MixedBackendUnsupported):
        ci_test(data, "a", "b", backend="fisherz")


def test_auto_backend_bins_mixed_queries(rng):
    n = 300
    disc = rng.integers(0, 2, size=n)
    cont = rng.standard_normal(n) + 2.0 * disc
    schema = (
        VariableSchema("d", "categorical", ("0", "1")),
        VariableSchema("x", "continuous"),
    )
    data = from_raw(schema, {"d": [str(v) for v in disc], "x": list(cont)})
    res = ci_test(data, "d", "x", backend="auto")
    assert res.backend == "gtest"  # mixed query went through binning
    assert res.p_value < 0.01  # strong dependence survives the bins
    assert res.dof == (2 - 1) * (5 - 1)


def test_cache_counters_and_symmetry():
    cache = CICache()
    engine = CIEngine(inject_results(EXAMPLE1_ENTRIES), cache)
    first = engine.test("X", "Y", ("Z",))
    again = engine.test("Y", "X", ("Z",))
    assert first == again
    assert cache.misses == 1 and cache.hits == 1
    assert len(cache) == 1


def test_canonical_key_validation():
    with pytest.raises(ValueError):
        canonical_key("X", "X", ())
    with pytest.raises(ValueError):
        canonical_key("X", "Y", ("X",))
    with pytest.raises(ValueError):
        canonical_key("X", "Y", ("Z", "Z"))
    assert canonical_key("Y", "X", ("b", "a")) == ("X", "Y", ("a", "b"))


def test_injected_backend_contract():
    backend = inject_results(EXAMPLE1_ENTRIES)
    engine = CIEngine(backend)
    assert engine.p_value("X", "Y") == 0.01
    assert engine.p_value("Y", "X") == 0.01  # symmetric lookup
    with pytest.raises(UninjectedQuery):
        CIEngine(InjectedBackend.from_entries([])).test("X", "Y")
    with pytest.raises(ValueError, match="duplicate"):
        InjectedBackend.from_entries([("X", "Y", (), 0.5), ("Y", "X", (), 0.5)])
    # Python tuples take any sequence of names for s and an int p.
    assert InjectedBackend.from_entries([("X", "Z", ["Y"], 1)]).table == {("X", "Z", ("Y",)): 1.0}


def test_example1_rejection_pattern(example1_engine):
    alpha = 0.05
    assert example1_engine.p_value("X", "Y") <= alpha  # rejected
    assert example1_engine.p_value("X", "Z") <= alpha  # rejected
    assert example1_engine.p_value("X", "Y", ("Z",)) > alpha  # not rejected
    assert example1_engine.p_value("X", "Z", ("Y",)) > alpha  # not rejected


def test_trace_records_queries(example1_engine):
    with example1_engine.trace() as log:
        example1_engine.p_value("X", "Y")
        example1_engine.p_value("Y", "X")
    assert log == [("X", "Y", ()), ("X", "Y", ())]


def test_make_backend_names(rng):
    data = binary_data({"a": [0, 1] * 20, "b": [0, 0, 1, 1] * 10})
    assert isinstance(make_backend(data, "gtest"), GTestBackend)
    with pytest.raises(ValueError):
        make_backend(data, "nope")
    with pytest.raises(MixedBackendUnsupported):
        FisherZBackend(data)  # no continuous columns at all


def test_empty_dataset_is_degenerate():
    from causeweave.errors import DegenerateTable

    data = binary_data({"a": [], "b": []})
    with pytest.raises(DegenerateTable):
        ci_test(data, "a", "b", backend="gtest")


@pytest.mark.parametrize(
    "c_schema, cells, levels",
    [
        # Tied quantile edges leave one of four bins empty.
        (VariableSchema("c", "continuous"), [0.0] * 6 + [1.0, 1.0, 2.0, 3.0], 3),
        # A declared level no row has.
        (VariableSchema("c", "categorical", ("0", "1", "2")), ["0", "1"] * 5, 2),
    ],
    ids=["continuous", "discrete"],
)
def test_gtest_dof_counts_non_empty_bins_of_tied_column(c_schema, cells, levels):
    # Only observed levels count: dof = (levels - 1) * (2 - 1).
    schema = (VariableSchema("b", "categorical", ("0", "1")), c_schema)
    data = from_raw(schema, {"b": ["0", "1"] * 30, "c": cells * 6})
    assert data.codes("c")[1] == levels
    assert ci_test(data, "c", "b", backend="gtest").dof == levels - 1


def reference_p_value(res) -> float:
    """The p-value from the ``scipy.stats`` distributions, as a cross-check."""
    if res.backend == "gtest":
        return float(stats.chi2.sf(res.statistic, res.dof)) if res.dof > 0 else 1.0
    return float(2.0 * stats.norm.sf(abs(res.statistic)))


def assert_p_values_match_reference(engine, log):
    assert log
    for key in set(log):
        res = engine.cache.lookup(key)
        assert res.p_value.hex() == reference_p_value(res).hex(), key


def test_gtest_p_values_match_chi2_sf_over_full_run():
    # Criterion-6 setup: k=20 binary variables, n=500, m_ci=3.
    net = make_discrete_net(20, 3, 2, seed=[77, 0])
    data = net.sample(500, seed=[77, 1])
    engine = CIEngine(GTestBackend(data))
    with engine.trace() as log:
        learn_structure(data.names, engine, alpha=0.05, m_ci=3)
    assert_p_values_match_reference(engine, log)


def test_fisherz_p_values_match_norm_sf_over_full_run():
    data, _ = gen_linear_sem(LinearSemSpec(k=20, rho=0.1, theta=0.5, n=500, seed=[5, 0]))
    engine = CIEngine(FisherZBackend(data))
    with engine.trace() as log:
        learn_structure(data.names, engine, alpha=0.01, m_ci=2)
    assert_p_values_match_reference(engine, log)


def test_p_values_match_reference_at_edges():
    n = 2000
    x = np.tile([1.0, 1.0, -1.0, -1.0], n // 4)
    y = np.tile([1.0, -1.0, 1.0, -1.0], n // 4)
    w = np.tile([1.0, -1.0, -1.0, 1.0], n // 4)  # orthogonal to x and y
    cols = {
        "x": x,
        "y": y,  # z = 0
        "up": x + 1.06 * w,  # z near +38, where 2 * sf(z) nears underflow
        "down": -x + 1.06 * w,  # z near -38
        "const": np.zeros(n),  # one bin: dof = 0
    }
    schema = tuple(VariableSchema(v, "continuous") for v in cols)
    data = from_raw(schema, {v: list(c) for v, c in cols.items()})
    z0 = ci_test(data, "x", "y", backend="fisherz")
    up = ci_test(data, "x", "up", backend="fisherz")
    down = ci_test(data, "x", "down", backend="fisherz")
    flat = ci_test(data, "x", "const", backend="gtest")
    same = ci_test(data, "x", "up", backend="gtest")
    indep = ci_test(data, "x", "y", backend="gtest")
    assert z0.statistic == 0.0
    assert 35 < up.statistic < 40 and -40 < down.statistic < -35 and up.p_value > 0.0
    assert flat.dof == 0 and flat.p_value == 1.0
    assert indep.statistic == 0.0 and same.statistic > 2000 and same.p_value == 0.0
    for res in (z0, up, down, flat, same, indep):
        assert res.p_value.hex() == reference_p_value(res).hex()


def test_special_matches_stats_at_edges():
    for z in (0.0, -0.0, 40.0, -40.0):
        assert (2.0 * special.ndtr(-abs(z))).hex() == (2.0 * stats.norm.sf(abs(z))).hex()
    for dof in (1, 4, 96):
        for statistic in (0.0, 3.84, 1e3, 1e6):
            got = float(special.chdtrc(dof, statistic))
            assert got.hex() == float(stats.chi2.sf(statistic, dof)).hex()
