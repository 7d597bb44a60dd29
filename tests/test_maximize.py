import math
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causeweave import (
    CIEngine,
    InjectedBackend,
    OracleBackend,
    OracleGraph,
    forward_step,
    maximization_step,
    q_value,
)
from causeweave.citest import canonical_key
from causeweave.errors import EmptyFamily
from causeweave.forward import NeighborhoodFamily
from causeweave.maximize import SepComputer, best_record
from oracle_helpers import (
    exhaustive_q,
    exhaustive_sep,
    lookup,
    ptable_entries,
    random_dag,
    random_ptable,
)

VARS3 = ["X", "Y", "Z"]


def engine_for(table):
    return CIEngine(InjectedBackend.from_entries(ptable_entries(table)))


def family_of(target, members_list):
    return NeighborhoodFamily(
        target=target,
        family=tuple(tuple(sorted(m)) for m in members_list),
    )


def test_empty_candidate_set_is_marginal_test(example1_engine):
    value, witness = SepComputer("X", example1_engine).score("Y", ())
    assert value == 0.01 and witness == ()


def test_example1_sep_score(example1_engine):
    value, witness = SepComputer("X", example1_engine).score("Y", ("Z",))
    assert value == 0.30
    assert witness == ("Z",)


def test_sep_score_matches_exhaustive_enumeration(rng):
    for _ in range(40):
        names = [f"T{i}" for i in range(5)]
        table = random_ptable(names, rng)
        engine = engine_for(table)
        x, y = names[0], names[1]
        n = tuple(names[2:5])
        for size in (1, 2, 3):
            got_p, got_w = SepComputer(x, engine, m_ci=3).score(y, n[:size])
            want_p, want_w = exhaustive_sep(table, x, y, n[:size])
            assert got_p == want_p
            assert got_w == want_w


def test_sep_score_cap_matches_capped_enumeration(rng):
    for _ in range(20):
        names = [f"T{i}" for i in range(6)]
        table = random_ptable(names, rng)
        engine = engine_for(table)
        got_p, got_w = SepComputer("T0", engine, m_ci=2).score("T1", ("T2", "T3", "T4", "T5"))
        want_p, want_w = exhaustive_sep(table, "T0", "T1", ("T2", "T3", "T4", "T5"), m_ci=2)
        assert got_p == want_p and got_w == want_w


def test_sep_score_monotone_in_candidate_set(rng):
    names = [f"T{i}" for i in range(5)]
    table = random_ptable(names, rng)
    engine = engine_for(table)
    full, _ = SepComputer("T0", engine, m_ci=4).score("T1", ("T2", "T3", "T4"))
    for sub in [(), ("T2",), ("T2", "T3"), ("T3", "T4")]:
        assert SepComputer("T0", engine, m_ci=4).score("T1", sub)[0] <= full


def test_q_empty_outside_is_infinite(example1_engine):
    assert q_value(SepComputer("X", example1_engine), ("Y", "Z"), VARS3) == math.inf


def test_example1_q_values(example1_engine):
    assert q_value(SepComputer("X", example1_engine), ("Z",), VARS3) == 0.30
    assert q_value(SepComputer("X", example1_engine), ("Y",), VARS3) == 0.20


def test_q_early_exit_agrees_with_full_scan(rng):
    for _ in range(30):
        names = [f"T{i}" for i in range(5)]
        table = random_ptable(names, rng)
        engine = engine_for(table)
        n = ("T1", "T2")
        full = q_value(SepComputer("T0", engine, m_ci=3), n, names)
        floor = full + 0.01
        floored = q_value(SepComputer("T0", engine, m_ci=3), n, names, floor=floor)
        # an early exit only ever reports a value at or below the floor, so
        # the candidate still loses against a best-so-far of `floor`; with
        # no exit the exact minimum comes back
        assert floored <= floor
        assert floored == full or floored <= floor
        assert full == exhaustive_q(table, "T0", n, names)
        # a floor below the minimum never changes the outcome
        assert q_value(SepComputer("T0", engine, m_ci=3), n, names, floor=full - 0.01) == full


def tied_ptable(names, rng):
    """A complete table drawn from five p-values, so that marginals tie with
    each other and with separation scores."""
    return {
        key: float(rng.choice([0.01, 0.1, 0.3, 0.6, 0.9]))
        for key in random_ptable(names, rng)
    }


def test_bounded_q_matches_exhaustive_and_skips_what_cannot_win(rng):
    skipped_total = 0
    for _ in range(200):
        names = [f"T{i}" for i in range(6)]
        table = tied_ptable(names, rng)
        engine = engine_for(table)
        size = int(rng.integers(0, 5))
        n = tuple(sorted(rng.choice(names[1:], size=size, replace=False)))
        m_ci = int(rng.integers(1, 4))
        floor = float(rng.choice([-math.inf, 0.0, 0.01, 0.1, 0.3, rng.random()]))
        with engine.trace() as log:
            q = q_value(SepComputer("T0", engine, m_ci=m_ci), n, names, floor=floor)
        # criterion 4: no query is asked twice
        assert len(log) == len(set(log))
        want = exhaustive_q(table, "T0", n, names, m_ci=m_ci)
        if q > floor:
            assert q == want
        else:
            assert want <= q
        # the lowest (marginal, name) is scored first; an other whose
        # marginal is at or above its score is never asked given n
        ranked = sorted((lookup(table, "T0", v), v) for v in names[1:] if v not in n)
        first = exhaustive_sep(table, "T0", ranked[0][1], n, m_ci=m_ci)[0]
        skipped = {v for marginal, v in ranked[1:] if marginal >= first}
        assert not [key for key in log if key[2] and key[1] in skipped]
        skipped_total += len(skipped) if n else 0
    assert skipped_total > 0


def test_bounded_q_without_outside_variable_is_infinite(rng):
    names = [f"T{i}" for i in range(4)]
    engine = engine_for(tied_ptable(names, rng))
    for floor in (-math.inf, 0.0, 0.5):
        with engine.trace() as log:
            assert q_value(SepComputer("T0", engine), names[1:], names, floor=floor) == math.inf
        assert log == []


def test_example1_selection(example1_engine):
    fam = forward_step("X", VARS3, example1_engine, alpha=0.05)
    sel = maximization_step("X", fam, VARS3, example1_engine)
    assert sel.chosen == ("Z",)
    assert sel.q_value == 0.30
    # the winner's scores: Y over {Z}, and Z over the rest of {Z}
    assert sel.separation == {"Y": (0.30, ("Z",)), "Z": (0.02, ())}
    assert hash(sel) == hash(maximization_step("X", fam, VARS3, example1_engine))
    # the motivating contract: exactly one of the two rivals survives
    assert sel.neighbors in ({"Y"}, {"Z"})


def test_singleton_family_returned_unchanged(example1_engine):
    fam = family_of("X", [("Y",)])
    sel = maximization_step("X", fam, VARS3, example1_engine)
    assert sel.chosen == ("Y",)
    assert sel.q_value == q_value(SepComputer("X", example1_engine), ("Y",), VARS3)


def test_empty_family_raises(example1_engine):
    with pytest.raises(EmptyFamily):
        maximization_step("X", family_of("X", []), VARS3, example1_engine)


def test_selection_equals_unfloored_argmax(rng):
    # Early-exit scan vs. independent argmax with the same tie-break.
    for _ in range(40):
        names = [f"T{i}" for i in range(5)]
        table = random_ptable(names, rng)
        engine = engine_for(table)
        alpha = float(rng.uniform(0.2, 0.8))
        fam = forward_step("T0", names, engine, alpha=alpha, m_ci=4)
        sel = maximization_step("T0", fam, names, engine, m_ci=4)
        scored = [
            (exhaustive_q(table, "T0", frozenset(c), names, m_ci=4), c)
            for c in fam.family
        ]
        top = max(t[0] for t in scored)
        contenders = [c for q, c in scored if q == top]
        expected = min(contenders, key=lambda c: (len(c), tuple(sorted(c))))
        assert sel.chosen == expected
        assert sel.q_value == top


def test_selection_invariant_under_monotone_transform(rng):
    for transform in (lambda p: p**0.5, lambda p: p**3, lambda p: 0.05 + 0.9 * p):
        names = [f"T{i}" for i in range(5)]
        table = random_ptable(names, rng)
        warped = {k: float(transform(v)) for k, v in table.items()}
        fam1 = forward_step("T0", names, engine_for(table), alpha=0.4, m_ci=4)
        sel1 = maximization_step("T0", fam1, names, engine_for(table), m_ci=4)
        fam2 = NeighborhoodFamily(target="T0", family=fam1.family)
        sel2 = maximization_step("T0", fam2, names, engine_for(warped), m_ci=4)
        assert sel1.chosen == sel2.chosen


def test_no_repeated_query_within_maximization(rng):
    for make_table in [random_ptable] * 10 + [tied_ptable] * 10:
        names = [f"T{i}" for i in range(6)]
        table = make_table(names, rng)
        engine = engine_for(table)
        fam = forward_step("T3", names, engine, alpha=0.5, m_ci=3)
        with engine.trace() as log:
            maximization_step("T3", fam, names, engine, m_ci=3)
        assert len(log) == len(set(log))


def test_oracle_chain_selection():
    dag = OracleGraph(vertices=("X", "A", "B"), edges=frozenset({("X", "A"), ("A", "B")}))
    engine = CIEngine(OracleBackend(dag))
    fam = forward_step("X", ["X", "A", "B"], engine)
    sel = maximization_step("X", fam, ["X", "A", "B"], engine)
    assert sel.neighbors == {"A"}
    assert sel.q_value == 1.0


def test_oracle_selection_contains_truth(rng):
    # The selected set always covers the true parents-children set; equality
    # can fail on spouse-absorbing graphs (see the acceptance-suite docstring).
    exact = 0
    total = 0
    for _ in range(25):
        dag = random_dag(6, rng, edge_prob=0.3, max_degree=3)
        engine = CIEngine(OracleBackend(dag))
        for x in dag.vertices:
            truth = set(dag.parents(x)) | set(dag.children(x))
            fam = forward_step(x, dag.vertices, engine, m_ci=3)
            sel = maximization_step(x, fam, dag.vertices, engine, m_ci=3)
            total += 1
            assert truth <= sel.neighbors or sel.q_value == 0.0
            exact += sel.neighbors == truth
    assert exact / total > 0.9


def test_sep_computer_validates_arguments(example1_engine):
    comp = SepComputer("X", example1_engine)
    with pytest.raises(ValueError):
        comp.score("X", ())
    with pytest.raises(ValueError):
        comp.score("Y", ("Y",))


def test_score_asks_each_capped_subset_exactly_once(rng):
    # One score asks every subset of n with at most m_ci members, once, and
    # nothing above the cap; a later score asks only the subsets not yet asked.
    names = [f"T{i}" for i in range(7)]
    table = random_ptable(names, rng)
    n, n2 = ("T2", "T3", "T4", "T5"), ("T4", "T5", "T6")

    def keys(members, m_ci):
        return {
            canonical_key("T0", "T1", sub)
            for size in range(m_ci + 1)
            for sub in combinations(members, size)
        }

    for m_ci in (1, 2, 3, 4):
        engine = engine_for(table)
        comp = SepComputer("T0", engine, m_ci=m_ci)
        with engine.trace() as first:
            comp.score("T1", n)
        assert len(first) == len(set(first))
        assert set(first) == keys(n, m_ci)
        with engine.trace() as second:
            comp.score("T1", n2)
        assert len(second) == len(set(second))
        assert set(second) == keys(n2, m_ci) - keys(n, m_ci)


# Few p-values and short witnesses over few names, so that most lists tie.
RECORDS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        st.lists(st.sampled_from("ABC"), max_size=3).map(tuple),
    ),
    min_size=1,
    max_size=12,
)


@given(RECORDS)
@example([(0.5, ("B",)), (0.5, ("A", "B"))])
@example([(0.5, ("A",)), (0.7, ("B", "C")), (0.7, ("B",))])
@settings(max_examples=300, deadline=None)
def test_best_record_is_the_largest_p_value_then_the_smallest_witness(records):
    p_values, witnesses = (list(column) for column in zip(*records))
    expected = min(records, key=lambda r: (-r[0], r[1]))
    assert best_record(p_values, witnesses) == expected
    assert best_record(tuple(p_values), tuple(witnesses)) == expected
