import csv
import json
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causeweave import CIEngine, cap_levels, filter_dominant, learn_structure, load_csv
from causeweave.citest import make_backend
from causeweave import dataset
from causeweave.dataset import DISCRETE_KINDS, VariableSchema, from_raw, joint_codes
from causeweave.errors import (
    InputError,
    MissingColumn,
    RowLengthMismatch,
    SchemaError,
    UnknownLevel,
)
from causeweave.score import fit_local
from oracle_helpers import count_rows, decode, reference_codes

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
    decoded = decode(data)
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
    assert decode(load_csv(*paths))["a"] == ["yes"]


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
    # A kept level that already bears the residual label is refused.
    clash = ("l0", "Others", *labels[2:])
    data = from_raw(
        (VariableSchema("a", "categorical", clash),), {"a": [clash[i] for i in data.columns["a"]]}
    )
    with pytest.raises(SchemaError, match="a: residual label 'Others' already a level"):
        cap_levels(data, coverage=0.95)


def test_cap_levels_noop_when_single_merge():
    # A continuous column, and with no rows every column, is left as it is.
    for rows in (100, 0):
        data = from_raw(
            (VariableSchema("a", "categorical", ("x", "y")), VariableSchema("c", "continuous")),
            {"a": (["x"] * 99 + ["y"])[:rows], "c": [0.5] * rows},
        )
        capped = cap_levels(data, coverage=0.95)
        assert capped.schema == data.schema
        assert all(capped.columns[v] is data.columns[v] for v in ("a", "c"))


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
def coded_columns(draw):
    """A discrete column whose declared levels some rows never take, or a
    continuous column drawn from few values, so that quantile edges tie."""
    n = draw(st.integers(1, 60))
    if draw(st.booleans()):
        n_levels = draw(st.integers(2, 8))
        used = draw(st.lists(st.integers(0, n_levels - 1), min_size=1, max_size=n_levels))
        cells = draw(st.lists(st.sampled_from(used), min_size=n, max_size=n))
        var = VariableSchema("v", "categorical", tuple(f"l{i}" for i in range(n_levels)))
        return var, [var.levels[i] for i in cells]
    values = draw(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=4))
    cells = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    return VariableSchema("v", "continuous"), cells


@given(coded_columns())
@settings(max_examples=200, deadline=None)
def test_codes_equal_the_sorting_reference(column):
    var, cells = column
    data = from_raw((var,), {"v": cells})
    codes, n_levels = data.codes("v")
    expected, expected_levels = reference_codes(data, "v")
    assert codes.dtype == expected.dtype
    assert codes.tobytes() == expected.tobytes()
    assert n_levels == expected_levels and type(n_levels) is int


@pytest.mark.parametrize("backend", ["gtest", "auto"])
def test_codes_of_an_unknown_name_raise_missing_column(rng, backend):
    # Whichever path reaches ``Dataset.codes`` first: a test, a learn, a fit.
    schema = tuple(VariableSchema(f"V0{i}", "categorical", ("0", "1")) for i in range(3))
    data = from_raw(schema, {v.name: [str(c) for c in rng.integers(0, 2, 30)] for v in schema})
    calls = [
        lambda: data.codes("nope"),
        lambda: CIEngine(make_backend(data, backend)).test("V00", "nope"),
        lambda: learn_structure([*data.names, "nope"], CIEngine(make_backend(data, backend))),
        lambda: fit_local(data, "V00", ["nope"]),
    ]
    for call in calls:
        with pytest.raises(MissingColumn, match="no variable named 'nope'"):
            call()


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
    assert decode(data)["a"] == cells


def survey_rows(n):
    return [f"{('yes', 'no')[i % 2]},{('low', 'mid', 'high')[i % 3]},{i * 0.25}" for i in range(n)]


DEEP_ERRORS = pytest.mark.parametrize(
    "bad, message",
    [
        ({7000: "Maybe,mid,1.0"}, "a: value 'Maybe' (row 7000) is not a declared level"),
        ({7000: "yes,mid,oops"}, "c: value 'oops' (row 7000) is not numeric"),
        ({7000: "yes,mid,nan"}, "c: value 'nan' (row 7000) is not finite"),
        # Columns are checked in schema order, each down to its first bad cell.
        ({7000: "yes,mid,oops", 9000: "no,huge,1.0"},
         "b: value 'huge' (row 9000) is not a declared level"),
        ({7000: "yes,mid,inf", 7500: "yes,mid,oops"}, "c: value 'oops' (row 7500) is not numeric"),
    ],
    ids=["bad-level", "non-numeric", "nan", "first-column-first", "numeric-before-finite"],
)


@DEEP_ERRORS
def test_load_csv_error_deep_in_a_large_file(tmp_path, bad, message):
    rows = survey_rows(10000)
    for row_no, row in bad.items():
        rows[row_no - 1] = row
    with pytest.raises(UnknownLevel) as exc:
        load_csv(*write_inputs(tmp_path, rows))
    assert str(exc.value) == message


def test_load_csv_large_file_matches_cell_by_cell_encoding(tmp_path):
    rows = survey_rows(10000)
    data = load_csv(*write_inputs(tmp_path, rows))
    cells = [row.split(",") for row in rows]
    expected = {
        "a": [("yes", "no").index(r[0]) for r in cells],
        "b": [("low", "mid", "high").index(r[1]) for r in cells],
        "c": [float(r[2]) for r in cells],
    }
    for name, values in expected.items():
        col = data.columns[name]
        assert col.dtype == (np.float64 if name == "c" else np.int64)
        assert col.tolist() == values


def test_load_csv_quoted_cell_with_comma(tmp_path):
    schema = [{"name": "a", "kind": "categorical", "levels": ["x,y", "z"]}, SCHEMA3[2]]
    paths = write_inputs(tmp_path, ['"x,y",1.5', 'z,"2.5"', '"x,y",-1'], schema, header="a,c")
    data = load_csv(*paths)
    assert decode(data) == {"a": ["x,y", "z", "x,y"], "c": [1.5, 2.5, -1.0]}


def test_load_csv_ignores_extra_column(tmp_path):
    # The extra column holds cells no schema variable would accept.
    rows = ["yes,not a number,low,1.5", "no,,mid,2.0"]
    data = load_csv(*write_inputs(tmp_path, rows, header="a,extra,b,c"))
    assert decode(data) == {"a": ["yes", "no"], "b": ["low", "mid"], "c": [1.5, 2.0]}


@pytest.mark.parametrize("names", [["c"], ["b"], ["c", "a"], []])
def test_load_csv_reads_one_or_reordered_schema_columns_of_a_wide_file(tmp_path, names):
    schema = [v for name in names for v in SCHEMA3 if v["name"] == name]
    rows = ["x1,yes,low,x2,1.5,x3", "y1,no,mid,y2,2.0,y3", "z1,yes,high,z2,-1,z3"]
    data = load_csv(*write_inputs(tmp_path, rows, schema, header="e1,a,b,e2,c,e3"))
    full = {"a": ["yes", "no", "yes"], "b": ["low", "mid", "high"], "c": [1.5, 2.0, -1.0]}
    assert data.names == tuple(names)
    assert decode(data) == {name: full[name] for name in names}
    assert data.n == 3


def test_from_raw_converts_python_and_numpy_cells():
    schema = (
        VariableSchema("a", "categorical", ("0", "1", "2")), VariableSchema("c", "continuous")
    )
    cells = [np.float64(0.1), np.float64(-2.5), np.float64(1e-300)]
    data = from_raw(schema, {"a": [2, 0, 1], "c": cells})
    assert data.columns["a"].tolist() == [2, 0, 1]
    assert data.columns["c"].tolist() == [0.1, -2.5, 1e-300]
    with pytest.raises(UnknownLevel) as exc:
        from_raw(schema, {"a": [2, 3, 1], "c": cells})
    assert str(exc.value) == "a: value 3 (row 2) is not a declared level"
    with pytest.raises(UnknownLevel) as exc:
        from_raw(schema, {"a": [2, [0], 1], "c": cells})
    assert str(exc.value) == "a: value [0] (row 2) is not a declared level"
    with pytest.raises(UnknownLevel) as exc:
        from_raw(schema, {"a": [2, 0, 1], "c": [1.0, None, 2.0]})
    assert str(exc.value) == "c: value None (row 2) is not numeric"


def test_joint_codes_leaves_its_inputs_unchanged(rng):
    columns = [(rng.integers(0, k, size=200), k) for k in (3, 2, 4)]
    before = [codes.copy() for codes, _ in columns]
    flat, n_cells = joint_codes(columns, 200)
    assert n_cells == 24
    for (codes, _), saved in zip(columns, before):
        assert np.array_equal(codes, saved)
    a, b, c = (codes for codes, _ in columns)
    assert flat.tolist() == ((a * 2 + b) * 4 + c).tolist()


# -- the byte tokeniser against csv.reader ---------------------------------------


def load_outcome(csv_path, schema_path):
    """What ``load_csv`` makes of a file: the dataset's names, row count and
    column bytes, or the class and message of the error it raises."""
    try:
        data = load_csv(csv_path, schema_path)
    except InputError as exc:
        return type(exc).__name__, str(exc)
    columns = {name: (col.dtype.str, col.tobytes()) for name, col in data.columns.items()}
    return data.names, data.n, columns


@contextmanager
def reader_refused():
    """Fail if ``load_csv`` falls back to ``csv.reader`` inside the block."""
    with mock.patch.object(dataset.csv, "reader", side_effect=AssertionError("csv.reader")):
        yield


def reader_outcome(csv_path, schema_path):
    """``load_outcome`` through ``csv.reader`` alone."""
    with mock.patch.object(dataset._PlainCsv, "parse", return_value=None):
        return load_outcome(csv_path, schema_path)


LABELS = ["yes", "no", "", " x", "né", "日本", "ß", "1.5", "Others"]
NUMBERS = [
    "1.5", "-2", "1e3", " 3.0 ", "1_0", "١٢", "\u00a01.5", "\u20031", "0x1", "nan", "-Infinity",
    "inf", "1e400", "", "oops", "+.5", "1.", "\ufeff2",
]


@st.composite
def plain_csvs(draw):
    """A schema and the lines of a CSV with no quote, CR or NUL inside a line:
    header columns that may repeat or lack a schema name, cells that may not
    parse, and rows whose cell count may be off by one."""
    schema = []
    for i in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(["v", "é", "w x"])) + str(i)
        if draw(st.booleans()):
            levels = draw(st.lists(st.sampled_from(LABELS), min_size=2, max_size=4, unique=True))
            schema.append({"name": name, "kind": draw(st.sampled_from(DISCRETE_KINDS)),
                           "levels": levels})
        else:
            schema.append({"name": name, "kind": "continuous"})
    names = [v["name"] for v in schema]
    if names and draw(st.integers(0, 9)) == 0:
        names.pop(draw(st.integers(0, len(names) - 1)))
    extras = draw(st.lists(st.sampled_from(["x", "ü", "v0"]), max_size=2))
    header = draw(st.permutations(names + extras)) or ["x"]
    k = len(header)
    pool = LABELS + NUMBERS
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        width = k if draw(st.integers(0, 15)) else draw(st.sampled_from([k - 1, k + 1]))
        rows.append(",".join(draw(st.lists(st.sampled_from(pool), min_size=width, max_size=width))))
    return schema, header, rows


@given(
    plain_csvs(),
    st.sampled_from(["\n", "\r\n"]),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_plain_csv_loads_as_the_csv_reader_reads_it(tmp_path_factory, case, newline, end, bom):
    schema, header, rows = case
    tmp_path = tmp_path_factory.mktemp("plain")
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema))
    prefix = b"\xef\xbb\xbf" if bom else b""

    def write(name, header):
        path = tmp_path / name
        text = newline.join([",".join(header), *rows]) + (newline if end else "")
        path.write_bytes(prefix + text.encode("utf-8"))
        return path

    plain = write("plain.csv", header)
    # A quoted header field sends the same content down the csv.reader path.
    quoted = write("quoted.csv", [f'"{header[0]}"', *header[1:]])
    if all([",".join(header), *rows]):  # no blank line
        with reader_refused():
            outcome = load_outcome(plain, schema_path)
    else:
        outcome = load_outcome(plain, schema_path)
    assert outcome == load_outcome(quoted, schema_path)


SURVEY = "\n".join(["a,b,c", *survey_rows(40)]) + "\n"


@pytest.mark.parametrize(
    "text, plain",
    [
        (SURVEY.replace("\n", "\r\n"), True),
        (SURVEY.replace("\n", "\r\n", 5), True),  # CRLF and LF mixed
        (SURVEY.replace("\n", "\r", 7), False),  # a bare CR ends a row for csv.reader
        (SURVEY.replace("yes,", "yes\r,", 1), False),
        (SURVEY.replace("\n", "\n\n", 3), False),  # a blank line is a row of no cells
        (SURVEY.replace("\n", "\r\n\r\n", 3), False),
        ("\n" + SURVEY, False),
        (SURVEY + "\n", False),
        (SURVEY.replace("low", "lo\0w", 1), False),
        (SURVEY.replace("yes", "y" * (csv.field_size_limit() + 1), 1), False),
        # The tokeniser takes no line longer than the reader's field limit.
        (SURVEY.replace("yes", "y" * csv.field_size_limit(), 1), False),
        (SURVEY.replace("yes", "y" * (csv.field_size_limit() - len(",low,0.0")), 1), True),
        ("\ufeff" + SURVEY, True),
        ("\ufeff\ufeff" + SURVEY, True),  # only the first mark is skipped
        ("a,b,c\n", True),
        ("a,b,c", True),
        ("", False),
        ("\ufeff", False),
        ("\n", False),
        (SURVEY.rstrip("\n"), True),
        (SURVEY.rstrip("\n") + ",", True),
        (SURVEY.replace("1.0", "1.0,", 1), True),
        (SURVEY.replace("a,b,c", "b,c,a,e\u0301"), True),
        (SURVEY.replace("yes", "\u00e9", 3), True),
        (SURVEY.replace("yes", '"yes"', 3), False),
    ],
    ids=[
        "crlf", "crlf-and-lf", "bare-cr", "cr-in-a-field", "blank-line", "blank-crlf-line",
        "leading-blank-line", "trailing-blank-line", "nul", "over-long-field",
        "field-at-the-limit", "line-at-the-limit", "bom", "two-boms", "header-only", "header-only-unterminated",
        "empty", "bom-only", "newline-only", "no-trailing-newline", "empty-last-field",
        "extra-cell", "more-header-fields", "non-ascii-cell", "quoted-cells",
    ],
)
@pytest.mark.parametrize(
    "schema",
    [SCHEMA3, [], [SCHEMA3[2], SCHEMA3[0]],
     [{"name": "a", "kind": "categorical", "levels": ["yes", "\u00e9", "no"]}, SCHEMA3[1]]],
    ids=["schema3", "empty-schema", "reordered", "non-ascii-level"],
)
def test_load_csv_edge_files_match_the_csv_reader(tmp_path, text, plain, schema):
    csv_path, schema_path = tmp_path / "data.csv", tmp_path / "schema.json"
    csv_path.write_bytes(text.encode("utf-8"))
    schema_path.write_text(json.dumps(schema))
    expected = reader_outcome(csv_path, schema_path)
    if plain:
        with reader_refused():
            assert load_outcome(csv_path, schema_path) == expected
    else:
        assert load_outcome(csv_path, schema_path) == expected


def test_load_csv_invalid_utf8_is_read_by_the_csv_reader(tmp_path):
    csv_path, schema_path = write_inputs(tmp_path, survey_rows(5))
    csv_path.write_bytes(csv_path.read_bytes().replace(b"mid", b"m\xffd"))
    with pytest.raises(UnicodeDecodeError) as exc:
        load_csv(csv_path, schema_path)
    with pytest.raises(UnicodeDecodeError) as expected:
        reader_outcome(csv_path, schema_path)
    assert str(exc.value) == str(expected.value)


def test_load_csv_level_with_a_nul_is_read_by_the_csv_reader(tmp_path):
    # An S array drops trailing NULs, so "no\0" would match a cell "no".
    schema = [{"name": "a", "kind": "categorical", "levels": ["yes", "no\0"]}]
    paths = write_inputs(tmp_path, ["yes", "no"], schema, header="a")
    with pytest.raises(UnknownLevel, match=r"^a: value 'no' \(row 2\) is not a declared level$"):
        load_csv(*paths)


@DEEP_ERRORS
def test_load_csv_deep_errors_match_the_csv_reader(tmp_path, bad, message):
    rows = survey_rows(10000)
    for row_no, row in bad.items():
        rows[row_no - 1] = row
    paths = write_inputs(tmp_path, rows)
    with reader_refused():
        assert load_outcome(*paths) == ("UnknownLevel", message)
    assert reader_outcome(*paths) == ("UnknownLevel", message)


@pytest.mark.parametrize(
    "bad, message",
    [
        ({3: "yes,low"}, "row 3: 2 cells, header has 3"),
        ({1: "yes,low,1.0,2.0"}, "row 1: 4 cells, header has 3"),
        ({9000: "yes", 9500: "no,low"}, "row 9000: 1 cells, header has 3"),
        ({10000: "yes,low,1.0,"}, "row 10000: 4 cells, header has 3"),
    ],
)
def test_load_csv_first_ragged_row_matches_the_csv_reader(tmp_path, bad, message):
    rows = survey_rows(10000)
    for row_no, row in bad.items():
        rows[row_no - 1] = row
    paths = write_inputs(tmp_path, rows)
    with reader_refused():
        assert load_outcome(*paths) == ("RowLengthMismatch", message)
    assert reader_outcome(*paths) == ("RowLengthMismatch", message)


# -- the field decoders against csv.reader ----------------------------------------

ODD_NUMBERS = [
    "-0", "-0.000000", "00.5", "5.", ".5", "+1", "1e5", "1_0", " 1", "1 ", "inf", "nan", "-",
    "-.5", "--1", "1-", "1.2.3", "1234567890123456", "123456789012345", "12345678901234.5",
    "-123456789.1234567", "0.1234567890123456", "\u0661\u0662", "\uff11", "1.25", "-7", "",
]
ODD_LABELS = ["a", "ab", "abcdefgh", "abcdefghi", "n\u00e9", "\u65e5\u672c", "\u65e5\u672c\u8a9e",
              "", "x y", "Others", "-0.5", "Don't know", "Refused to answer", "Refused to answe",
              "abcdefghabcdefgh", "abcdefghabcdefgi"]


@st.composite
def decimal_cells(draw):
    """A column of decimals with one count of digits after the point, of
    which one in ten may be an odd number form."""
    fraction = draw(st.sampled_from([0, 1, 6, 14]))
    cells = []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.integers(0, 9)) == 0:
            cells.append(draw(st.sampled_from(ODD_NUMBERS)))
            continue
        whole = draw(st.integers(0, 10 ** draw(st.integers(1, max(1, 15 - fraction))) - 1))
        part = draw(st.integers(0, 10**fraction - 1)) if fraction else None
        cell = str(whole) if part is None else f"{whole}.{part:0{fraction}d}"
        cells.append(("-" if draw(st.booleans()) else "") + cell)
    return cells


@st.composite
def decoded_csvs(draw):
    """A schema of one or two columns and the rows of a plain CSV that holds
    them: labels with some declared levels no row takes and, rarely, an
    undeclared one; decimals as ``decimal_cells`` draws them."""
    columns, schema = [], []
    for i in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            levels = draw(st.lists(st.sampled_from(ODD_LABELS), min_size=2, max_size=5, unique=True))
            pool = levels[: draw(st.integers(1, len(levels)))]
            if draw(st.integers(0, 4)) == 0:
                pool = pool + [draw(st.sampled_from(ODD_LABELS))]
            schema.append({"name": f"d{i}", "kind": "categorical", "levels": levels})
            columns.append(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12)))
        else:
            schema.append({"name": f"c{i}", "kind": "continuous"})
            columns.append(draw(decimal_cells()))
    n = min(map(len, columns))
    rows = [",".join(cells) for cells in zip(*(cells[:n] for cells in columns))]
    return schema, rows


@given(decoded_csvs())
@settings(max_examples=400, deadline=None)
def test_decoded_fields_load_as_the_csv_reader_reads_them(tmp_path_factory, case):
    schema, rows = case
    header = ",".join(v["name"] for v in schema)
    paths = write_inputs(tmp_path_factory.mktemp("decoded"), rows, schema, header=header)
    if all(rows):  # no blank line
        with reader_refused():
            outcome = load_outcome(*paths)
    else:
        outcome = load_outcome(*paths)
    assert outcome == reader_outcome(*paths)


@pytest.mark.parametrize("cell", ODD_NUMBERS)
def test_odd_number_forms_load_as_the_csv_reader_reads_them(tmp_path, cell):
    # Beside whole numbers, one-place and six-place decimals, first and last.
    schema = [{"name": "c", "kind": "continuous"}]
    for i, others in enumerate([["0", "-12"], ["3.5"], ["-1.500000", "2.000001"]]):
        for j, rows in enumerate([[cell, *others], [*others, cell]]):
            (tmp_path / f"{i}{j}").mkdir()
            paths = write_inputs(tmp_path / f"{i}{j}", rows, schema, header="c")
            assert load_outcome(*paths) == reader_outcome(*paths)


def test_survey_shaped_file_takes_the_field_decoders(tmp_path, rng):
    # As the survey writer lays a file out, short labels and ``%.6f``
    # numbers, some of them negative; and answers as a survey spells them,
    # of a whole word and of three words, two of which begin alike.
    n, schema, cells = 300, [], []
    answers = {
        5: ["Positive", "Negative"],
        7: ["Yes", "No", "Don't know", "Don't know (probe)", "Refused to answer"],
    }
    for j in range(8):
        name = f"V{j:02d}"
        if j % 3:
            labels = answers.get(j, [f"{name.lower()}_{lv}" for lv in range(2 + j % 3)])
            schema.append({"name": name, "kind": "ordinal", "levels": labels})
            cells.append(np.array(labels)[rng.integers(0, len(labels), n)])
        else:
            schema.append({"name": name, "kind": "continuous"})
            cells.append(np.char.mod("%.6f", rng.normal(scale=3.0, size=n)))
    rows = [",".join(row) for row in np.column_stack(cells).tolist()]
    paths = write_inputs(tmp_path, rows, schema, header=",".join(v["name"] for v in schema))
    slow_path = AssertionError("_PlainCsv.column")
    with reader_refused(), mock.patch.object(dataset._PlainCsv, "column", side_effect=slow_path):
        outcome = load_outcome(*paths)
    assert outcome == reader_outcome(*paths)
    assert outcome[1] == n
