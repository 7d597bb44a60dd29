"""Typed tabular data: schema-driven CSV ingestion and column encoding.

Discrete observations are stored as level indices (``int64``), continuous
ones as ``float64``.  A loaded dataset is immutable: column arrays are
marked read-only.  Every input file is read here: ``load_csv`` reads
the CSV and ``read_input`` reads the rest.
"""

from __future__ import annotations

import codecs
import csv
import json
import operator
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    MissingColumn,
    RowLengthMismatch,
    SchemaError,
    UnknownLevel,
)

DISCRETE_KINDS = ("categorical", "ordinal")
VALID_KINDS = DISCRETE_KINDS + ("continuous",)

# Bins used when a continuous variable is encoded as levels.
QUINTILE_BINS = 5
# The level ``cap_levels`` merges rare levels into.
OTHER_LABEL = "Others"

_NO_DATA_ROWS = "empty CSV: no data rows"
# The byte class of the plain CSV tokeniser: True for a byte that ends a
# field (a comma or a line feed).
_FIELD_END = np.zeros(256, dtype=bool)
_FIELD_END[[ord(","), ord("\n")]] = True
_LF, _CR = ord("\n"), ord("\r")


@dataclass(frozen=True)
class VariableSchema:
    """Declares one variable: its name, kind and levels.

    ``levels`` is the ordered list of admissible labels for categorical and
    ordinal variables and must be empty for continuous ones.
    """

    name: str
    kind: str
    levels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise SchemaError(f"{self.name}: unknown kind {self.kind!r}")
        if self.kind == "continuous":
            if self.levels:
                raise SchemaError(f"{self.name}: continuous variables take no levels")
        else:
            if len(self.levels) < 2:
                raise SchemaError(f"{self.name}: discrete variables need >=2 levels")
            if len(set(self.levels)) != len(self.levels):
                raise SchemaError(f"{self.name}: duplicate level labels")

    @property
    def is_discrete(self) -> bool:
        return self.kind in DISCRETE_KINDS


@dataclass(frozen=True)
class Dataset:
    """Encoded observations for a list of variables.

    ``columns[name]`` holds level indices for discrete variables and raw
    floats for continuous ones; every column has exactly ``n`` entries.
    """

    schema: tuple[VariableSchema, ...]
    columns: dict[str, np.ndarray]
    n: int
    _by_name: dict[str, VariableSchema] = field(init=False, repr=False, compare=False)
    _codes: dict[str, tuple[np.ndarray, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_name = {v.name: v for v in self.schema}
        if len(by_name) != len(self.schema):
            raise SchemaError("duplicate variable names in schema")
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_codes", {})
        if set(self.columns) != set(by_name):
            raise SchemaError("columns do not match schema names")
        for name, col in self.columns.items():
            if len(col) != self.n:
                raise SchemaError(f"{name}: column length {len(col)} != n={self.n}")
            var = by_name[name]
            if var.is_discrete:
                if len(col) and (col.min() < 0 or col.max() >= len(var.levels)):
                    raise SchemaError(f"{name}: encoded value out of level range")
            col.setflags(write=False)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.schema)

    def variable(self, name: str) -> VariableSchema:
        try:
            return self._by_name[name]
        except KeyError:
            raise MissingColumn(f"no variable named {name!r}") from None

    def is_discrete(self, name: str) -> bool:
        return self.variable(name).is_discrete

    def codes(self, name: str) -> tuple[np.ndarray, int]:
        """Observed-level indices of a column and their count.

        A continuous column is first cut at its quantiles into at most
        ``QUINTILE_BINS`` bins, and tied edges collapse.  Either kind is
        then renumbered to the levels some row has: a declared level or a
        bin no row falls in is no level.  The renumbering counts rows per
        level rather than sorting them, so each level's code is the number
        of observed levels below it.  Computed once per column and kept,
        read-only like ``columns``, for every later caller.
        """
        if name not in self._codes:
            var = self.variable(name)
            col = self.columns[name]
            if not var.is_discrete:
                qs = np.linspace(0.0, 1.0, QUINTILE_BINS + 1)[1:-1]
                col = np.searchsorted(np.unique(np.quantile(col, qs)), col, side="right")
            observed = np.bincount(col) > 0
            renumber = np.cumsum(observed, dtype=np.intp) - 1
            codes = renumber[col]
            codes.setflags(write=False)
            self._codes[name] = (codes, int(np.count_nonzero(observed)))
        return self._codes[name]


def read_input(path: str | Path) -> str:
    """The text of an input file: UTF-8, after an optional byte-order mark."""
    return Path(path).read_text(encoding="utf-8-sig")


def read_json(path: str | Path, kind: type, error: type[Exception], message: str):
    """The JSON document of an input file (see ``read_input``); raises
    ``error(message)`` unless its top level is a ``kind``."""
    raw = json.loads(read_input(path))
    if not isinstance(raw, kind):
        raise error(message)
    return raw


def load_schema(path: str | Path) -> tuple[VariableSchema, ...]:
    """Read a schema file (see ``read_json``): a JSON array of ``{"name",
    "kind", "levels"?}`` with distinct string names, string kinds and JSON
    arrays of strings as levels.  Anything else raises ``SchemaError``.

    Tiers are prior knowledge and belong in the prior file, not here.
    """
    raw = read_json(path, list, SchemaError, "schema file must contain a JSON array")
    out: dict[str, VariableSchema] = {}
    for entry in raw:
        if not isinstance(entry, dict) or "name" not in entry or "kind" not in entry:
            raise SchemaError(f"schema entry missing name/kind: {entry!r}")
        name, kind, levels = entry["name"], entry["kind"], entry.get("levels", [])
        if not isinstance(name, str) or not isinstance(kind, str):
            raise SchemaError(f"schema name and kind must be strings: {entry!r}")
        if "tier" in entry:
            raise SchemaError(f"{name}: the schema takes no tier; give tiers in --prior")
        unknown = set(entry) - {"name", "kind", "levels"}
        if unknown:
            raise SchemaError(f"{name}: unknown schema keys {sorted(unknown)!r}")
        if not isinstance(levels, list) or not all(isinstance(v, str) for v in levels):
            raise SchemaError(f"{name}: levels must be a JSON array of strings")
        if name in out:
            raise SchemaError(f"schema declares {name!r} more than once")
        out[name] = VariableSchema(name=name, kind=kind, levels=tuple(levels))
    return tuple(out.values())


def from_raw(schema: tuple[VariableSchema, ...], raw_columns: dict[str, list]) -> Dataset:
    """Encode raw cell values (labels / numbers) into a Dataset.

    Each column is encoded in one pass, which looks discrete cells up as
    they are (CSV cells are strings).  Only when that pass fails is the
    column walked cell by cell, which converts a discrete cell with ``str``
    first, and names the first bad cell and its row.
    """
    columns: dict[str, np.ndarray] = {}
    n = None
    for var in schema:
        if var.name not in raw_columns:
            raise MissingColumn(f"missing column {var.name!r}")
        cells = raw_columns[var.name]
        if n is None:
            n = len(cells)
        columns[var.name] = _encode_column(var, cells)
    return Dataset(schema=schema, columns=columns, n=n or 0)


def _encode_column(var: VariableSchema, cells) -> np.ndarray:
    """One column of ``from_raw``."""
    if var.is_discrete:
        index = {label: i for i, label in enumerate(var.levels)}
        try:
            return np.fromiter(map(index.__getitem__, cells), np.int64, count=len(cells))
        except (KeyError, TypeError):
            return _encode_levels(var, index, cells)
    try:
        enc = np.fromiter(map(float, cells), np.float64, count=len(cells))
    except (TypeError, ValueError):
        enc = _encode_numbers(var, cells)
    bad = np.flatnonzero(~np.isfinite(enc))
    if bad.size:
        i = int(bad[0])
        raise UnknownLevel(f"{var.name}: value {cells[i]!r} (row {i + 1}) is not finite")
    return enc


def _encode_levels(var: VariableSchema, index: dict[str, int], cells) -> np.ndarray:
    enc = np.empty(len(cells), dtype=np.int64)
    for i, cell in enumerate(cells):
        try:
            enc[i] = index[str(cell)]
        except KeyError:
            raise UnknownLevel(
                f"{var.name}: value {cell!r} (row {i + 1}) is not a declared level"
            ) from None
    return enc


def _encode_numbers(var: VariableSchema, cells) -> np.ndarray:
    enc = np.empty(len(cells), dtype=np.float64)
    for i, cell in enumerate(cells):
        try:
            enc[i] = float(cell)
        except (TypeError, ValueError):
            raise UnknownLevel(
                f"{var.name}: value {cell!r} (row {i + 1}) is not numeric"
            ) from None
    return enc


def load_csv(path: str | Path, schema_path: str | Path) -> Dataset:
    """Load a headered, RFC-4180 CSV against a schema file.

    Every schema variable must appear in the header exactly once (extra CSV
    columns are ignored, repeated or not).  Discrete cells are mapped to
    level indices in schema order; continuous cells must be finite numbers.
    A leading UTF-8 byte-order mark is skipped.  There is no imputation, so
    missingness must be declared as an explicit level upstream.  A file with
    a header and no data rows is refused, and so is a row the CSV reader
    cannot split, such as one with a field longer than
    ``csv.field_size_limit()``.

    A plain file (see ``_PlainCsv.parse``) is tokenised over its bytes with
    NumPy; any other file, or a schema with a NUL in a level, goes through
    ``csv.reader``.  Both give the same dataset or raise the same error.

    Raises
    ------
    MissingColumn, RowLengthMismatch, SchemaError, UnknownLevel
    """
    schema = load_schema(schema_path)
    raw = Path(path).read_bytes()
    nul_level = any("\0" in label for var in schema for label in var.levels)
    plain = None if nul_level else _PlainCsv.parse(raw)
    del raw
    if plain is None:
        return _read_csv(path, schema)
    positions = _header_positions(plain.header, schema)
    n = plain.data_rows()
    columns = {var.name: _encode_plain(var, plain.column(positions[var.name])) for var in schema}
    # As on the reader path, where from_raw counts the rows of the first column.
    return Dataset(schema=schema, columns=columns, n=n if columns else 0)


def _header_positions(header: list[str], schema: tuple[VariableSchema, ...]) -> dict[str, int]:
    """The header position of each schema variable; each must appear once."""
    positions: dict[str, int] = {}
    for var in schema:
        if header.count(var.name) > 1:
            raise SchemaError(f"CSV header repeats column {var.name!r}")
        try:
            positions[var.name] = header.index(var.name)
        except ValueError:
            raise MissingColumn(f"CSV header lacks column {var.name!r}") from None
    return positions


def _read_csv(path: str | Path, schema: tuple[VariableSchema, ...]) -> Dataset:
    """``load_csv`` through ``csv.reader``: the schema's cells of each row
    are read once and transposed once, so each column is encoded in a
    single pass (see ``from_raw``)."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise RowLengthMismatch("empty CSV: header row required") from None
        except csv.Error as exc:
            raise RowLengthMismatch(f"header row: {exc}") from None
        col_pos = _header_positions(header, schema)
        # Each row keeps only the schema's cells (itemgetter of a single
        # position would return the cell itself, not a sequence of one).
        keep = list(col_pos.values())
        pick = operator.itemgetter(*keep) if len(keep) > 1 else lambda row: [row[p] for p in keep]
        rows = []
        try:
            for row_no, row in enumerate(reader, start=1):
                if len(row) != len(header):
                    raise RowLengthMismatch(_row_length_message(row_no, len(row), len(header)))
                rows.append(pick(row))
        except csv.Error as exc:
            # A row the reader cannot split (a field over csv.field_size_limit(), say).
            raise RowLengthMismatch(f"row {len(rows) + 1}: {exc}") from None
    if not rows:
        raise RowLengthMismatch(_NO_DATA_ROWS)
    cells = list(zip(*rows))
    del rows  # the cells stay referenced once, by column
    return from_raw(schema, dict(zip(col_pos, cells)))


def _row_length_message(row_no: int, cells: int, header: int) -> str:
    return f"row {row_no}: {cells} cells, header has {header}"


@dataclass(frozen=True)
class _PlainCsv:
    """A plain CSV's bytes, split into fields with NumPy.

    ``ends`` holds the position of every field's end (its comma or line
    feed) in file order, and ``lines`` the index in ``ends`` of each line's
    last field; the header is line 0.  ``buf`` is the file after any
    byte-order mark, zero-padded so that a window of any field's width fits
    after every field start.  ``crlf`` is set when some line ends in CRLF.
    """

    header: list[str]
    buf: np.ndarray
    ends: np.ndarray
    lines: np.ndarray
    crlf: bool

    @classmethod
    def parse(cls, raw: bytes) -> "_PlainCsv | None":
        """The fields of ``raw``, or None unless it is plain: valid UTF-8
        with no ``"`` or NUL byte, no CR outside a CRLF line end, no blank
        line and no line longer than ``csv.field_size_limit()``.  Such a
        file is split at every comma and line end, as ``csv.reader`` splits
        it; a missing final line end is implied."""
        start = len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0
        crlf = b"\r" in raw
        if (
            len(raw) == start
            or b'"' in raw
            or b"\0" in raw
            or crlf and raw.count(b"\r") != raw.count(b"\r\n")
        ):
            return None
        if not raw.isascii():
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return None
        body = np.frombuffer(raw, dtype=np.uint8, offset=start)
        size = len(body)
        # A virtual line end after an unterminated last line is position size.
        ends = np.flatnonzero(_FIELD_END[body]).astype(np.int32 if size < 2**31 - 1 else np.int64)
        lines = np.flatnonzero(body[ends] == _LF)
        if body[-1] != _LF:
            ends = np.append(ends, np.array([size], dtype=ends.dtype))
            lines = np.append(lines, len(ends) - 1)
        line_ends = ends[lines]
        lengths = np.diff(line_ends, prepend=-1) - 1
        if crlf:
            lengths -= body[line_ends - 1] == _CR
        widest = int(lengths.max())
        if lengths.min() == 0 or widest > csv.field_size_limit():
            return None
        header = bytes(body[: lengths[0]]).decode("utf-8").split(",")
        buf = np.zeros(size + widest, dtype=np.uint8)
        buf[:size] = body
        return cls(header, buf, ends, lines, crlf)

    def data_rows(self) -> int:
        """The number of data rows, once every row is checked to have as
        many fields as the header; raises ``RowLengthMismatch`` for the
        first row that does not, or when there is no data row."""
        k, n_lines = len(self.header), len(self.lines)
        bad = np.flatnonzero(self.lines != np.arange(k - 1, k * n_lines, k))
        if bad.size:
            row = int(bad[0])
            cells = int(self.lines[row] - self.lines[row - 1])
            raise RowLengthMismatch(_row_length_message(row, cells, k))
        if n_lines == 1:
            raise RowLengthMismatch(_NO_DATA_ROWS)
        return n_lines - 1

    def column(self, p: int) -> np.ndarray:
        """The data rows' fields at header position ``p``, as a fixed-width
        bytes (``S``) array; call after ``data_rows``."""
        grid = self.ends.reshape(len(self.lines), len(self.header))
        stop = grid[1:, p]
        if p == grid.shape[1] - 1 and self.crlf:
            stop = stop - (self.buf[stop - 1] == _CR)
        start = (grid[1:, p - 1] if p else grid[:-1, -1]) + 1
        lengths = stop - start
        width = max(int(lengths.max()), 1)
        fields = sliding_window_view(self.buf, width)[start]
        fields *= np.arange(width) < lengths[:, None]
        return fields.view(f"S{width}").ravel()


def _encode_plain(var: VariableSchema, cells: np.ndarray) -> np.ndarray:
    """One column of ``from_raw`` from the UTF-8 bytes of its cells.

    Discrete cells are found by ``searchsorted`` among the sorted bytes of
    the declared levels (none holds a NUL, which an ``S`` array would drop)
    and continuous ones are read by ``float`` from their bytes.  A column
    with a miss, a parse failure or a non-finite value is encoded from its
    decoded ``str`` cells by ``from_raw``'s own code, which raises the same
    error as the ``csv.reader`` path."""
    if var.is_discrete:
        labels = np.array([label.encode("utf-8", "surrogatepass") for label in var.levels])
        order = np.argsort(labels).astype(np.int64)
        ordered = labels[order]
        at = np.minimum(np.searchsorted(ordered, cells), len(ordered) - 1)
        if (ordered[at] == cells).all():
            return order[at]
    else:
        try:
            enc = np.fromiter(map(float, cells.tolist()), np.float64, count=len(cells))
        except ValueError:
            enc = None
        if enc is not None and np.isfinite(enc).all():
            return enc
    return _encode_column(var, [cell.decode("utf-8") for cell in cells.tolist()])


def filter_dominant(data: Dataset, threshold: float = 0.99) -> Dataset:
    """Drop discrete variables whose modal level frequency exceeds ``threshold``.

    Continuous variables are always kept.  The operation is idempotent and
    returns a dataset sharing the surviving column arrays.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if data.n == 0:
        return data
    keep = []
    for var in data.schema:
        if var.is_discrete:
            freq = np.bincount(data.columns[var.name], minlength=len(var.levels))
            if freq.max() / data.n > threshold:
                continue
        keep.append(var)
    if len(keep) == len(data.schema):
        return data
    return Dataset(
        schema=tuple(keep),
        columns={v.name: data.columns[v.name] for v in keep},
        n=data.n,
    )


def cap_levels(data: Dataset, coverage: float = 0.95) -> Dataset:
    """Collapse rare levels of each discrete variable into one residual level.

    For each discrete variable, the most frequent levels jointly covering at
    least ``coverage`` of the rows are kept; the rest are merged into a new
    ``OTHER_LABEL`` level.  Variables where fewer than two levels would be
    merged are left untouched (merging a single level is a pure rename).
    """
    if not 0.0 < coverage <= 1.0:
        raise ValueError(f"coverage must be in (0, 1], got {coverage}")
    new_schema = []
    new_columns = {}
    for var in data.schema:
        col = data.columns[var.name]
        if not var.is_discrete or data.n == 0:
            new_schema.append(var)
            new_columns[var.name] = col
            continue
        freq = np.bincount(col, minlength=len(var.levels))
        # Highest frequency first; original order breaks ties deterministically.
        order = sorted(range(len(var.levels)), key=lambda i: (-freq[i], i))
        cum = 0
        kept: list[int] = []
        for i in order:
            kept.append(i)
            cum += freq[i]
            if cum / data.n >= coverage:
                break
        dropped = [i for i in range(len(var.levels)) if i not in kept]
        if len(dropped) < 2:
            new_schema.append(var)
            new_columns[var.name] = col
            continue
        kept_sorted = sorted(kept)
        labels = tuple(var.levels[i] for i in kept_sorted)
        if OTHER_LABEL in labels:
            raise SchemaError(f"{var.name}: residual label {OTHER_LABEL!r} already a level")
        remap = np.full(len(var.levels), len(kept_sorted), dtype=np.int64)
        for new_idx, old_idx in enumerate(kept_sorted):
            remap[old_idx] = new_idx
        new_schema.append(replace(var, levels=labels + (OTHER_LABEL,)))
        new_columns[var.name] = remap[col]
    return Dataset(schema=tuple(new_schema), columns=new_columns, n=data.n)


def joint_codes(columns: list[tuple[np.ndarray, int]], n: int) -> tuple[np.ndarray, int]:
    """Row-major joint cell index over ``(codes, n_levels)`` pairs.

    The first column varies slowest.  ``n`` is the row count, needed when
    ``columns`` is empty (every row then falls in the single cell 0).  The
    index is built in place in one fresh ``int64`` array, so no temporary
    is made per column and the input code arrays are left untouched.
    """
    flat = np.zeros(n, dtype=np.int64)
    n_cells = 1
    for codes, levels in columns:
        flat *= levels
        flat += codes
        n_cells *= levels
    return flat, n_cells
