import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from causeweave import CIEngine, make_backend
from causeweave.citest import (
    PASS_CELLS,
    FisherZBackend,
    GTestBackend,
    InjectedBackend,
    canonical_key,
    make_backend,
)
from causeweave.dataset import VariableSchema, from_raw
from causeweave.errors import MissingColumn, MixedBackendUnsupported, UninjectedQuery
from causeweave.simgen import LinearSemSpec, gen_linear_sem, make_discrete_net
from causeweave.skeleton_orient import learn_structure
from conftest import EXAMPLE1_ENTRIES
from oracle_helpers import (
    cache_dump,
    count_table,
    entropy_cmi,
    reference_g_result,
    reference_z_result,
    row_scans,
)


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
    res = CIEngine(make_backend(binary_data({"a": a, "b": b}), "gtest")).test("a", "b")
    assert res.statistic == pytest.approx(0.0, abs=1e-12)
    assert res.p_value == pytest.approx(1.0)
    assert res.dof == 1


def test_fisherz_zero_correlation_gives_p_one():
    n = 100
    x = np.tile([1.0, 1.0, -1.0, -1.0], n // 4)
    y = np.tile([1.0, -1.0, 1.0, -1.0], n // 4)  # orthogonal to x by design
    schema = (VariableSchema("x", "continuous"), VariableSchema("y", "continuous"))
    data = from_raw(schema, {"x": list(x), "y": list(y)})
    res = CIEngine(make_backend(data, "fisherz")).test("x", "y")
    assert res.statistic == pytest.approx(0.0, abs=1e-12)
    assert res.p_value == pytest.approx(1.0)


def test_g_statistic_matches_entropy_oracle(rng):
    arrays = {n: rng.integers(0, 2, size=200) for n in ("a", "b", "c")}
    data = discrete_data(arrays, 2)
    res = CIEngine(make_backend(data, "gtest")).test("a", "b", ("c",))
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
    res = CIEngine(make_backend(data, "gtest")).test("a", "b", ("c",))
    assert res.dof == 1 * 1 * 2


def test_low_power_flag(rng):
    arrays = {n: rng.integers(0, 3, size=30) for n in ("a", "b", "c")}
    data = discrete_data(arrays, 3)
    res = CIEngine(make_backend(data, "gtest")).test("a", "b", ("c",))
    assert res.dof >= 8
    assert res.low_power  # 30 < 5 * dof


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_gtest_invariant_under_relabeling_and_swap(data_strategy):
    seed = data_strategy.draw(st.integers(0, 10**6))
    rng = np.random.default_rng(seed)
    arrays = {n: rng.integers(0, 2, size=80) for n in ("a", "b")}
    base = discrete_data(arrays, 2)
    res = CIEngine(make_backend(base, "gtest")).test("a", "b")
    swapped = CIEngine(make_backend(base, "gtest")).test("b", "a")
    relabeled = discrete_data({"a": 1 - arrays["a"], "b": arrays["b"]}, 2)
    rel = CIEngine(make_backend(relabeled, "gtest")).test("a", "b")
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

    res = CIEngine(make_backend(dataset(block[:, 0]), "fisherz")).test("x", "y", ("z",))
    res2 = CIEngine(make_backend(dataset(scale * block[:, 0] + shift), "fisherz")).test(
        "x", "y", ("z",)
    )
    assert res.p_value == pytest.approx(res2.p_value, rel=1e-9, abs=1e-12)


def test_fisherz_rejects_discrete():
    data = binary_data({"a": [0, 1, 0, 1], "b": [0, 0, 1, 1]})
    with pytest.raises(MixedBackendUnsupported):
        CIEngine(make_backend(data, "fisherz")).test("a", "b")


def test_auto_backend_bins_mixed_queries(rng):
    n = 300
    disc = rng.integers(0, 2, size=n)
    cont = rng.standard_normal(n) + 2.0 * disc
    schema = (
        VariableSchema("d", "categorical", ("0", "1")),
        VariableSchema("x", "continuous"),
    )
    data = from_raw(schema, {"d": [str(v) for v in disc], "x": list(cont)})
    res = CIEngine(make_backend(data, "auto")).test("d", "x")
    assert res.backend == "gtest"  # mixed query went through binning
    assert res.p_value < 0.01  # strong dependence survives the bins
    assert res.dof == (2 - 1) * (5 - 1)


def test_cache_counters_and_symmetry():
    engine = CIEngine(InjectedBackend.from_entries(EXAMPLE1_ENTRIES))
    first = engine.test("X", "Y", ("Z",))
    again = engine.test("Y", "X", ("Z",))
    assert first == again
    assert engine.cache.misses == 1 and engine.cache.hits == 1
    assert len(cache_dump(engine)) == 1


def test_canonical_key_validation():
    with pytest.raises(ValueError):
        canonical_key("X", "X", ())
    with pytest.raises(ValueError):
        canonical_key("X", "Y", ("X",))
    with pytest.raises(ValueError):
        canonical_key("X", "Y", ("Z", "Z"))
    assert canonical_key("Y", "X", ("b", "a")) == ("X", "Y", ("a", "b"))


def test_injected_backend_contract():
    backend = InjectedBackend.from_entries(EXAMPLE1_ENTRIES)
    engine = CIEngine(backend)
    assert engine.test("X", "Y").p_value == 0.01
    assert engine.test("Y", "X").p_value == 0.01  # symmetric lookup
    with pytest.raises(UninjectedQuery):
        CIEngine(InjectedBackend.from_entries([])).test("X", "Y")
    with pytest.raises(ValueError, match="duplicate"):
        InjectedBackend.from_entries(
            [{"x": "X", "y": "Y", "p": 0.5}, {"x": "Y", "y": "X", "p": 0.5}]
        )
    # An integer p is a number too.
    assert InjectedBackend.from_entries([{"x": "X", "y": "Z", "s": ["Y"], "p": 1}]).table == {
        ("X", "Z", ("Y",)): 1.0
    }


def test_example1_rejection_pattern(example1_engine):
    alpha = 0.05
    assert example1_engine.test("X", "Y").p_value <= alpha  # rejected
    assert example1_engine.test("X", "Z").p_value <= alpha  # rejected
    assert example1_engine.test("X", "Y", ("Z",)).p_value > alpha  # not rejected
    assert example1_engine.test("X", "Z", ("Y",)).p_value > alpha  # not rejected


def test_trace_records_queries(example1_engine):
    with example1_engine.trace() as log:
        example1_engine.test("X", "Y")
        example1_engine.test("Y", "X")
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
        CIEngine(make_backend(data, "gtest")).test("a", "b")


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
    assert CIEngine(make_backend(data, "gtest")).test("c", "b").dof == levels - 1


def reference_p_value(res) -> float:
    """The p-value from the ``scipy.stats`` distributions, as a cross-check."""
    if res.backend == "gtest":
        return float(stats.chi2.sf(res.statistic, res.dof)) if res.dof > 0 else 1.0
    return float(2.0 * stats.norm.sf(abs(res.statistic)))


def assert_p_values_match_reference(engine, log):
    assert log
    for key in set(log):
        res = engine.test(*key)  # cached: the stored result
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
    z0 = CIEngine(make_backend(data, "fisherz")).test("x", "y")
    up = CIEngine(make_backend(data, "fisherz")).test("x", "up")
    down = CIEngine(make_backend(data, "fisherz")).test("x", "down")
    flat = CIEngine(make_backend(data, "gtest")).test("x", "const")
    same = CIEngine(make_backend(data, "gtest")).test("x", "up")
    indep = CIEngine(make_backend(data, "gtest")).test("x", "y")
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


def bits(res):
    return (res.p_value.hex(), float(res.statistic).hex(), res.dof, res.low_power, res.backend)


def edge_case_data(rng, n):
    """Columns of 2-4 levels plus the awkward ones: a constant column, a
    continuous column with tied quantile edges, a declared level no row has;
    and continuous columns for the z-test, among them a copy of ``u`` and a
    constant, so that some correlation blocks are singular."""
    cols = {name: rng.integers(0, k, size=n) for name, k in zip("abcde", (2, 3, 4, 3, 2))}
    schema = [VariableSchema(name, "categorical", ("0", "1", "2", "3")) for name in cols]
    raw = {name: [str(v) for v in col] for name, col in cols.items()}
    schema.append(VariableSchema("k", "categorical", ("0", "1")))
    raw["k"] = ["1"] * n
    schema.append(VariableSchema("t", "continuous"))
    raw["t"] = [float(v) for v in rng.choice([0.0, 0.0, 0.0, 1.0, 2.0], size=n)]
    schema.append(VariableSchema("u", "continuous"))
    raw["u"] = list(rng.normal(size=n))
    schema += [VariableSchema(name, "continuous") for name in ("v", "w", "z")]
    raw["v"] = list(raw["u"])
    raw["w"] = list(np.array(raw["u"]) + rng.normal(size=n))
    raw["z"] = [0.5] * n
    return from_raw(tuple(schema), raw)


TABLE_NAMES = ("a", "b", "c", "d", "e", "k", "t", "u")
TABLE_PAIRS = [("a", "b"), ("k", "c"), ("t", "d"), ("u", "t"), ("e", "u")]
CONTINUOUS = ("t", "u", "v", "w", "z")
CONTINUOUS_PAIRS = [("u", "t"), ("w", "v"), ("u", "v"), ("z", "w"), ("t", "z")]


def z_reference(data):
    """``reference_z_result`` of a canonical key on ``data``'s correlation
    matrix, whose rows follow the schema's continuous columns."""
    pos = {name: i for i, name in enumerate(v.name for v in data.schema if not v.is_discrete)}
    corr = FisherZBackend(data).corr
    return lambda key: reference_z_result(corr, data.n, [pos[v] for v in (key[0], key[1], *key[2])])


def random_subsets(rng, names, count):
    out = [()]
    for _ in range(count):
        size = int(rng.integers(0, 4))
        out.append(tuple(rng.choice(names, size=size, replace=False).tolist()))
    return out


def mixed_keys(rng, names, pairs, chains):
    """Canonical keys of several pairs and block sizes, shuffled together:
    random subsets of ``names``, and with ``chains`` nested chains as well
    as disjoint sets."""
    keys = []
    for x, y in pairs:
        rest = [v for v in names if v not in (x, y)]
        subsets = random_subsets(rng, rest, 12)
        if chains:
            subsets += [tuple(rest[:3]), tuple(rest[:2]), tuple(rest[1:2]), tuple(rest[3:6])]
        keys += [canonical_key(x, y, s) for s in subsets]
    return [keys[i] for i in rng.permutation(len(keys))]


@pytest.mark.parametrize("power", ["large", "low-power"])
@pytest.mark.parametrize("backend_kind", ["gtest", "auto", "fisherz"])
def test_a_batch_equals_its_keys_asked_alone_bitwise(rng, monkeypatch, power, backend_kind):
    # A table test is low-power at n < 5 * dof, a z-test only at
    # n - |s| - 3 <= 0: at 5 rows, for every subset of two or more.
    n = 3000 if power == "large" else 40 if backend_kind == "gtest" else 5
    data = edge_case_data(rng, n)
    assert data.codes("t")[1] < 5 and data.codes("k")[1] == 1
    backend = make_backend(data, backend_kind)
    stacks, tables = [], []
    pinv, chdtrc = np.linalg.pinv, special.chdtrc
    monkeypatch.setattr(np.linalg, "pinv", lambda a: stacks.append(a.ndim == 3) or pinv(a))
    monkeypatch.setattr(special, "chdtrc", lambda k, x: tables.append(np.size(x)) or chdtrc(k, x))
    batches = []
    for trial in range(4):
        keys = []
        if backend_kind != "fisherz":
            keys += mixed_keys(rng, TABLE_NAMES, TABLE_PAIRS, trial == 0)
        if backend_kind != "gtest":
            keys += mixed_keys(rng, CONTINUOUS, CONTINUOUS_PAIRS, trial == 0)
        batches.append(keys)
    if backend_kind != "gtest":
        # A lone z-test, and block sizes one and three each held by one key
        # of a wider batch.
        z_ref = z_reference(data)
        batches.append([canonical_key("u", "w", ("t",))])
        batches.append([canonical_key(x, y, s) for x, y, s in (
            ("u", "t", ()), ("w", "v", ()), ("u", "w", ("t",)), ("u", "v", ("t", "w", "z")),
        )])
    low_power = zero_dof = z_tests = 0
    for keys in batches:
        got = backend.compute(keys)
        expected = [backend.compute([key])[0] for key in keys]
        assert list(map(bits, got)) == list(map(bits, expected)), keys
        for key, result in zip(keys, got):
            if result.backend == "gtest":
                table = count_table(data, (key[0], key[1], *key[2]))
                assert bits(result) == bits(reference_g_result(table, n)), key
                zero_dof += result.dof == 0
            else:
                assert bits(result) == bits(z_ref(key)), key
                z_tests += 1
        low_power += sum(r.low_power for r in got)
    assert (low_power > 0) == (power == "low-power")
    assert (z_tests > 0) == (backend_kind != "gtest")
    assert (zero_dof > 0) == (backend_kind != "fisherz")
    assert any(stacks) == (backend_kind != "gtest")
    # A G-test stack of several tables ran.
    assert (max(tables, default=0) > 1) == (backend_kind != "fisherz")
    assert backend.compute([]) == []
    if backend_kind == "fisherz":
        # A discrete name, in a stack and in a block size of its own.
        for key in (("a", "u", ()), ("u", "w", ("k",))):
            with pytest.raises(MixedBackendUnsupported, match="'[ak]' is not"):
                backend.compute([("t", "u", ()), ("t", "v", ("w",)), key, ("v", "w", ())])


def padded_cells(blocks) -> int:
    """Cells of the zero-padded block one G-test pass scores ``blocks`` in."""
    return (max(b.shape[0] for b in blocks) * max(b.shape[1] for b in blocks)
            * sum(b.shape[2] for b in blocks))


def test_gtest_passes_split_at_the_cap(rng, monkeypatch):
    """A batch of more cells than one pass holds, of several shapes, with
    empty strata and dof-0 tables: it is scored in passes filled up to the
    cap in batch order, each of several shapes, and every result is the
    reference's."""
    n = 500
    names = [f"b{i:02d}" for i in range(18)]
    cols = {name: rng.integers(0, 2, size=n) for name in names}
    cols["dup"] = cols["b00"].copy()  # given b00 and dup, half the strata are empty
    cols["one"] = np.zeros(n, dtype=np.int64)  # one level, so dof 0
    data = discrete_data(cols, 2)
    keys = [canonical_key(x, y) for i, x in enumerate(names) for y in names[i + 1 :]]
    keys += [canonical_key(x, y, ("b00", "dup")) for x, y in zip(names[1:6], names[6:11])]
    for s in (("b13", "b14"), ("b15", "b16", "b17"), ("b01", "b02", "b03"), ("b04", "b05", "b06")):
        rest = [v for v in names if v not in s]
        keys += [canonical_key(x, y, s) for i, x in enumerate(rest) for y in rest[i + 1 :]]
    keys += [canonical_key("one", y, s) for y, s in (("b01", ()), ("b02", ("b03",)))]
    keys = [keys[i] for i in rng.permutation(len(keys))]
    backend = GTestBackend(data)
    passes = []
    scored = GTestBackend._scored
    monkeypatch.setattr(
        GTestBackend, "_scored", lambda self, blocks: passes.append(blocks) or scored(self, blocks)
    )
    got = backend.compute(keys)
    assert sum(map(len, passes)) == len(keys)
    assert padded_cells([b for blocks in passes for b in blocks]) > 2 * PASS_CELLS
    # Each pass holds at most PASS_CELLS cells, and the next table would not fit.
    assert all(padded_cells(blocks) <= PASS_CELLS for blocks in passes)
    assert all(padded_cells([*blocks, after[0]]) > PASS_CELLS
               for blocks, after in zip(passes, passes[1:]))
    assert all(len({b.shape for b in blocks}) > 1 for blocks in passes)
    for key, result in zip(keys, got):
        table = count_table(data, (key[0], key[1], *key[2]))
        assert bits(result) == bits(reference_g_result(table, n)) == bits(backend.compute([key])[0])
    empty = [r for k, r in zip(keys, got) if k[2] == ("b00", "dup")]
    assert all(r.dof == 2 for r in empty)  # two of the four strata hold rows
    assert [r.dof for k, r in zip(keys, got) if "one" in k] == [0, 0]


def test_gtest_lone_compute_sums_out_a_table_a_batch_counted(rng):
    n = 300
    data = edge_case_data(rng, n)
    backend = GTestBackend(data)
    backend.compute([canonical_key("a", "b", ("c", "d")), canonical_key("a", "e")])
    with row_scans() as scans:
        # The same variable set as another pair, and subsets of it across pairs.
        for x, y, s in [("c", "d", ("a", "b")), ("a", "c", ("b", "d")), ("b", "d", ()),
                        ("a", "b", ("c",)), ("d", "b", ("a",))]:
            table = count_table(data, (x, y, *s))
            assert bits(backend.compute([(x, y, s)])[0]) == bits(reference_g_result(table, n))
        assert scans == []
        backend.compute([("a", "b", ("e",))])  # no stored table covers a, b and e
        assert len(scans) == 1


@pytest.mark.parametrize("kind", ["auto", "gtest"])
def test_an_unknown_name_raises_missing_column_alone_and_in_a_batch(rng, kind):
    backend = make_backend(edge_case_data(rng, 50), kind)
    for key in [("a", "nope", ()), ("nope", "u", ()), ("u", "w", ("nope",))]:
        with pytest.raises(MissingColumn, match="no variable named 'nope'"):
            backend.compute([key])
        with pytest.raises(MissingColumn, match="no variable named 'nope'"):
            backend.compute([("a", "b", ()), ("u", "w", ()), key])
    # A failed batch stores nothing: the same backend still answers.
    assert backend.compute([("a", "b", ()), ("a", "c", ("b",))])[0].backend == "gtest"


@st.composite
def store_sequences(draw):
    """A discrete dataset and a sequence of steps on one backend, each a
    batch or a run of lone keys.  Columns declare 2-5 levels and rows take
    1-5 of them (one taken level gives dof 0); with at most 60 rows, some
    strata are empty.  A step's keys are pairs and conditioning sets drawn
    from one set of two to five variables, so they nest across pairs."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    names = [f"v{i}" for i in range(draw(st.integers(4, 6)))]
    schema, raw = [], {}
    for name in names:
        labels = tuple(str(i) for i in range(draw(st.integers(2, 5))))
        taken = draw(st.integers(1, len(labels)))
        schema.append(VariableSchema(name, "categorical", labels))
        raw[name] = [labels[v] for v in rng.integers(0, taken, size=n)]
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        base = draw(st.lists(st.sampled_from(names), min_size=2, max_size=5, unique=True))
        members = st.lists(st.sampled_from(base), min_size=2, max_size=len(base), unique=True)
        drawn = draw(st.lists(members, min_size=1, max_size=6))
        keys = [canonical_key(x, y, s) for x, y, *s in drawn]
        steps.append((draw(st.booleans()), keys))
    return from_raw(tuple(schema), raw), steps


@given(store_sequences())
@settings(max_examples=60, deadline=None)
def test_gtest_store_answers_bitwise_as_a_fresh_count(case):
    data, steps = case
    backend = GTestBackend(data)
    asked = set()
    with row_scans() as scans:
        for lone, keys in steps:
            got = [backend.compute([key])[0] for key in keys] if lone else backend.compute(keys)
            for (x, y, s), result in zip(keys, got):
                table = count_table(data, (x, y, *s))
                assert bits(result) == bits(reference_g_result(table, data.n)), (x, y, s)
                asked.add(frozenset((x, y, *s)))
            assert len(scans) <= len(asked)
        # Every variable set asked is stored now: asking again scans no row.
        before = len(scans)
        keys = [key for _, step in steps for key in step]
        backend.compute(keys)
        backend.compute(keys[-1:])
        assert len(scans) == before


def test_a_round_of_canonical_keys_matches_one_by_one_tests(rng):
    data = edge_case_data(rng, 500)
    batches = [
        ("a", [("b", ()), ("b", ("c",)), ("b", ("c", "d")), ("b", ("d", "c")), ("b", ("c",)),
               ("b", ("e", "k", "t"))]),
        ("b", [("a", ("c",)), ("a", ("t",)), ("a", ())]),
        # Table tests and z-tests of several pairs in one batch.
        ("u", [("t", ("a",)), ("w", ()), ("t", ()), ("v", ("w",)), ("t", ("a", "b")),
               ("w", ("t",))]),
        ("t", []),
        ("t", [("u", ("a", "b")), ("u", ("e",)), ("z", ("u",))]),
    ]
    batched = CIEngine(make_backend(data, "auto"))
    single = CIEngine(make_backend(data, "auto"))
    with batched.trace() as batched_log, single.trace() as single_log:
        for x, queries in batches:
            got = batched.ask([canonical_key(x, y, s) for y, s in queries])
            assert got == [single.test(x, y, s).p_value for y, s in queries]
    assert batched_log == single_log
    assert list(cache_dump(batched).items()) == list(cache_dump(single).items())
    assert (batched.cache.hits, batched.cache.misses) == (single.cache.hits, single.cache.misses)
    assert batched.cache.hits == 5
    with pytest.raises(ValueError, match="contains a query variable"):
        batched.ask([canonical_key("a", y, s) for y, s in [("b", ("c",)), ("b", ("a",))]])
    with pytest.raises(ValueError, match="must differ"):
        batched.ask([canonical_key("a", "a", ())])


def test_an_injected_round_raises_at_its_first_uninjected_key_and_stores_none():
    engine = CIEngine(InjectedBackend.from_entries(EXAMPLE1_ENTRIES))
    assert engine.ask([("X", "Y", ()), ("X", "Y", ("Z",))]) == [0.01, 0.30]
    stored = cache_dump(engine)
    # ("Y", "Z", ()) is injected, but its round fails at the key given W.
    with pytest.raises(UninjectedQuery, match="'W'"):
        engine.ask([("Y", "Z", ()), ("Y", "Z", ("W",)), ("Y", "Z", ("V",))])
    assert cache_dump(engine) == stored
    assert engine.ask([("Y", "Z", ())]) == [engine.backend.table[("Y", "Z", ())]]


@pytest.mark.parametrize("kind", ["auto", "gtest", "injected"])
def test_a_round_of_one_is_a_test_and_a_wider_round_is_not(rng, monkeypatch, kind):
    """A one-key ``ask`` enters ``CIEngine.test``; a wider round, on any
    backend, does not."""
    if kind == "injected":
        engine = CIEngine(InjectedBackend.from_entries(EXAMPLE1_ENTRIES))
        one, wide = ("X", "Y", ()), [("X", "Y", ("Z",)), ("X", "Z", ()), ("Y", "Z", ())]
    else:
        engine = CIEngine(make_backend(edge_case_data(rng, 200), kind))
        one, wide = ("a", "b", ()), [("a", "b", ("c",)), ("a", "c", ()), ("b", "c", ("d",))]
    entered = []
    test = CIEngine.test
    monkeypatch.setattr(
        CIEngine, "test", lambda self, *query: entered.append(query) or test(self, *query)
    )
    assert engine.ask([one]) == [engine.test(*one).p_value]
    assert entered == [one, one]
    entered.clear()
    got = engine.ask(wide)
    assert got == [test(engine, *key).p_value for key in wide]
    assert entered == []
    assert engine.ask([]) == []
