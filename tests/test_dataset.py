import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causeweave import cap_levels, filter_dominant, load_csv
from causeweave.dataset import VariableSchema, from_raw, joint_codes
from causeweave.errors import (
    MissingColumn,
    RowLengthMismatch,
    SchemaError,
    UnknownLevel,
)
from oracle_helpers import count_rows

SCHEMA3 = [
    {"name": "a", "kind": "categorical", "levels": ["yes", "no"]},
    {"name": "b", "kind": "ordinal", "levels": ["low", "mid", "high"]},
    {"name": "c", "kind": "continuous"},
]


def write_inputs(tmp_path, rows, schema=SCHEMA3, header="a,b,c"):
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema))
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("\n".join([header] + rows) + "\n")
    return csv_path, schema_path


def test_load_csv_round_trip(tmp_path):
    rows = ["yes,low,1.5", "no,mid,-2.0", "yes,high,0.25", "no,low,3.5", "yes,mid,0.0"]
    data = load_csv(*write_inputs(tmp_path, rows))
    assert data.n == 5
    assert data.names == ("a", "b", "c")
    decoded = data.decode()
    assert decoded["a"] == ["yes", "no", "yes", "no", "yes"]
    assert decoded["b"] == ["low", "mid", "high", "low", "mid"]
    assert decoded["c"] == [1.5, -2.0, 0.25, 3.5, 0.0]


def test_load_csv_unknown_level(tmp_path):
    paths = write_inputs(tmp_path, ["yes,low,1.0", "Maybe,mid,2.0"])
    with pytest.raises(UnknownLevel, match="Maybe"):
        load_csv(*paths)


def test_load_csv_missing_column(tmp_path):
    paths = write_inputs(tmp_path, ["yes,low", "no,mid"], header="a,b")
    with pytest.raises(MissingColumn, match="'c'"):
        load_csv(*paths)


def test_load_csv_repeated_header_column(tmp_path):
    # a schema column named twice is ambiguous; a repeated extra column is not read
    paths = write_inputs(tmp_path, ["yes,low,1.0,no"], header="a,b,c,a")
    with pytest.raises(SchemaError, match="repeats column 'a'"):
        load_csv(*paths)
    paths = write_inputs(tmp_path, ["yes,low,1.0,x,y"], header="a,b,c,extra,extra")
    assert load_csv(*paths).decode()["a"] == ["yes"]


def test_load_csv_ragged_row(tmp_path):
    paths = write_inputs(tmp_path, ["yes,low,1.0", "no,mid"])
    with pytest.raises(RowLengthMismatch, match="row 2"):
        load_csv(*paths)


def test_load_csv_non_numeric_continuous(tmp_path):
    paths = write_inputs(tmp_path, ["yes,low,oops"])
    with pytest.raises(UnknownLevel, match="not numeric"):
        load_csv(*paths)


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-Infinity"])
def test_load_csv_non_finite_continuous(tmp_path, cell):
    paths = write_inputs(tmp_path, ["yes,low,1.0", f"no,mid,{cell}"])
    with pytest.raises(UnknownLevel, match=r"c: value .* \(row 2\) is not finite"):
        load_csv(*paths)


def test_schema_validation():
    with pytest.raises(SchemaError):
        VariableSchema(name="v", kind="categorical", levels=("only",))
    with pytest.raises(SchemaError):
        VariableSchema(name="v", kind="categorical", levels=("a", "a"))
    with pytest.raises(SchemaError):
        VariableSchema(name="v", kind="continuous", levels=("a", "b"))


def test_filter_dominant_drops_rare_variation(tmp_path):
    # 995 of 1000 rows share one level of `a`: dominated at the 0.99 threshold.
    rows = [
        f"{'yes' if i < 995 else 'no'},{'low' if i % 2 else 'mid'},0.0"
        for i in range(1000)
    ]
    data = load_csv(*write_inputs(tmp_path, rows))
    filtered = filter_dominant(data, threshold=0.99)
    assert [v.name for v in filtered.schema] == ["b", "c"]


def test_filter_dominant_keeps_balanced():
    data = from_raw(
        (VariableSchema("a", "categorical", ("x", "y")),),
        {"a": ["x", "y"] * 10},
    )
    assert filter_dominant(data, threshold=0.99) is data


def test_filter_dominant_all_dropped():
    data = from_raw(
        (VariableSchema("a", "categorical", ("x", "y")),),
        {"a": ["x"] * 999 + ["y"]},
    )
    out = filter_dominant(data, threshold=0.99)
    assert out.schema == () and out.n == 1000


def test_filter_dominant_idempotent(tmp_path):
    rows = ["yes,low,0.0"] * 995 + ["no,high,1.0"] * 5
    data = load_csv(*write_inputs(tmp_path, rows))
    once = filter_dominant(data, 0.99)
    twice = filter_dominant(once, 0.99)
    assert [v.name for v in once.schema] == [v.name for v in twice.schema]
    assert once.n == twice.n


def test_cap_levels_merges_rare():
    labels = [f"l{i}" for i in range(6)]
    counts = [60, 20, 10, 6, 3, 1]
    raw = [lab for lab, c in zip(labels, counts) for _ in range(c)]
    data = from_raw(
        (VariableSchema("a", "categorical", tuple(labels)),), {"a": raw}
    )
    capped = cap_levels(data, coverage=0.95)
    var = capped.variable("a")
    assert var.levels == ("l0", "l1", "l2", "l3", "Others")
    freq = np.bincount(capped.columns["a"], minlength=5)
    assert freq.tolist() == [60, 20, 10, 6, 4]


def test_cap_levels_noop_when_single_merge():
    data = from_raw(
        (VariableSchema("a", "categorical", ("x", "y")),), {"a": ["x"] * 99 + ["y"]}
    )
    assert cap_levels(data, coverage=0.95).variable("a").levels == ("x", "y")


def test_build_table_all_cells():
    data = from_raw(
        (
            VariableSchema("a", "categorical", ("0", "1")),
            VariableSchema("b", "categorical", ("0", "1")),
        ),
        {"a": ["0", "0", "1", "1"], "b": ["0", "1", "0", "1"]},
    )
    flat, n_cells = joint_codes([data.codes("a"), data.codes("b")], data.n)
    assert n_cells == 4
    assert np.bincount(flat, minlength=n_cells).reshape(2, 2).tolist() == [[1, 1], [1, 1]]
    flat, n_cells = joint_codes([], data.n)
    assert n_cells == 1 and flat.tolist() == [0, 0, 0, 0]


def test_build_table_matches_row_scan(rng):
    labels = ("0", "1", "2")
    schema = tuple(VariableSchema(n, "categorical", labels) for n in "abcd")
    raw = {n: [labels[i] for i in rng.integers(0, 3, size=50)] for n in "abcd"}
    data = from_raw(schema, raw)
    flat, n_cells = joint_codes([data.codes(n) for n in "abc"], data.n)
    counts = np.bincount(flat, minlength=n_cells).reshape(3, 3, 3)
    expected = count_rows(data, ["a", "b", "c"])
    for ia in range(3):
        for ib in range(3):
            for ic in range(3):
                assert counts[ia, ib, ic] == expected.get((ia, ib, ic), 0)


def test_codes_bins_continuous_with_ties():
    # Tied quantile edges collapse to four bins, of which no row falls in
    # the third: only the three non-empty bins are levels.
    cells = [2.5, -1.0, 2.5, 0.5, 2.5, -1.0, 0.5, 2.5, 7.0, 2.5]
    data = from_raw((VariableSchema("c", "continuous"),), {"c": cells})
    codes, n_levels = data.codes("c")
    assert n_levels == 3
    assert codes.tolist() == [2, 0, 2, 1, 2, 0, 1, 2, 2, 2]


@st.composite
def raw_discrete_columns(draw):
    n_levels = draw(st.integers(2, 4))
    labels = tuple(f"v{i}" for i in range(n_levels))
    n = draw(st.integers(1, 30))
    cells = draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n))
    return labels, cells


@given(raw_discrete_columns())
@settings(max_examples=50, deadline=None)
def test_encode_decode_round_trip(col):
    labels, cells = col
    data = from_raw((VariableSchema("a", "categorical", labels),), {"a": cells})
    assert data.decode()["a"] == cells
