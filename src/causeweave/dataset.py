"""Typed tabular data: schema-driven CSV ingestion and column encoding.

Discrete observations are stored as level indices (``int64``), continuous
ones as ``float64``.  A loaded dataset is immutable: column arrays are
marked read-only.  Every input file is read here: ``load_csv`` reads
the CSV and ``read_input`` reads the rest.  A plain CSV's cells are decoded
from their byte bounds: labels as rows of 8-byte keys and short decimals as
a mantissa over a power of ten.
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
_COMMA, _LF, _CR, _MINUS, _ZERO = (ord(c) for c in ",\n\r-0")
# A label key is a field's bytes as little-endian unsigned 8-byte words.
_WORD = 8
# Masks that keep the first 0..8 bytes of a word.
_KEY_MASKS = np.array([(1 << 8 * size) - 1 for size in range(_WORD + 1)], dtype=np.uint64)
# The odd multiplier that folds a key's words into one (see ``_search``).
_FOLD = np.uint64(0x9E3779B97F4A7C15)
# A decimal read from its bytes has at most 15 digits, so its mantissa is
# below 10**15 < 2**53 and, like every power of ten up to 10**16, exact.
_MAX_DIGITS = 15
_NUMBER_WIDTH = _MAX_DIGITS + 2  # with a sign and a point
_POWERS = np.array([10**place for place in range(_NUMBER_WIDTH)], dtype=np.float64)
# A decimal point less the zero digit, in bytes.
_POINT_DIGIT = (ord(".") - _ZERO) % 256


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
        fast, slow, dtype = index.__getitem__, lambda cell: index[str(cell)], np.int64
        problem = "is not a declared level"
    else:
        fast = slow = float
        dtype, problem = np.float64, "is not numeric"
    try:
        enc = np.fromiter(map(fast, cells), dtype, count=len(cells))
    except (KeyError, TypeError, ValueError):
        enc = np.empty(len(cells), dtype=dtype)
        for i, cell in enumerate(cells):
            try:
                enc[i] = slow(cell)
            except (KeyError, TypeError, ValueError):
                raise UnknownLevel(f"{var.name}: value {cell!r} (row {i + 1}) {problem}") from None
    if not var.is_discrete:
        bad = np.flatnonzero(~np.isfinite(enc))
        if bad.size:
            i = int(bad[0])
            raise UnknownLevel(f"{var.name}: value {cells[i]!r} (row {i + 1}) is not finite")
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
    ``csv.field_size_limit()``.  The dataset has one row per data row, even
    when the schema is empty.

    A plain file (see ``_PlainCsv.parse``) is tokenised over its bytes with
    NumPy and each column decoded from its fields' bounds (see
    ``_decode_plain``); any other file, or a schema with a NUL in a level,
    goes through ``csv.reader``.  Both give the same dataset or raise the
    same error.

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
    columns = {var.name: _decode_plain(plain, var, positions[var.name]) for var in schema}
    return Dataset(schema=schema, columns=columns, n=n)


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
    n = len(rows)
    cells = list(zip(*rows))
    del rows  # the cells stay referenced once, by column
    columns = {var.name: _encode_column(var, column) for var, column in zip(schema, cells)}
    return Dataset(schema=schema, columns=columns, n=n)


def _row_length_message(row_no: int, cells: int, header: int) -> str:
    return f"row {row_no}: {cells} cells, header has {header}"


@dataclass(frozen=True)
class _PlainCsv:
    """A plain CSV's bytes, split into fields with NumPy.

    ``ends`` holds the position in the file (after any byte-order mark) of
    every field's end (its comma or line feed) in file order, and ``lines``
    the index in ``ends`` of each line's last field; the header is line 0.
    ``buf`` is the file after any byte-order mark, behind ``_NUMBER_WIDTH``
    zero bytes (so that a number's window ending at any field end starts
    inside it) and before the zero bytes that let a window of any field's
    width, rounded up to whole words, fit after every field start.
    ``crlf`` is set when some line ends in CRLF.
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
        field_end = body == _COMMA
        field_end |= body == _LF
        ends = np.flatnonzero(field_end)
        del field_end  # before the narrowing copy below, which sets the peak
        # int32 when every position in buf (see bounds) fits.
        ends = ends.astype(np.int32 if _NUMBER_WIDTH + size < 2**31 - 1 else np.int64)
        # A virtual line end after an unterminated last line is position size.
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
        buf = np.zeros(_NUMBER_WIDTH + size + widest + _WORD, dtype=np.uint8)
        buf[_NUMBER_WIDTH : _NUMBER_WIDTH + size] = body
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

    def bounds(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        """Where in ``buf`` the data rows' fields at header position ``p``
        start and stop (before the comma, line feed or CRLF); call after
        ``data_rows``."""
        grid = self.ends.reshape(len(self.lines), len(self.header))
        stop = grid[1:, p] + _NUMBER_WIDTH
        if p == grid.shape[1] - 1 and self.crlf:
            stop -= self.buf[stop - 1] == _CR
        start = (grid[1:, p - 1] if p else grid[:-1, -1]) + (_NUMBER_WIDTH + 1)
        return start, stop

    def column(self, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
        """The fields between ``start`` and ``stop`` as a fixed-width bytes
        (``S``) array."""
        lengths = stop - start
        width = max(int(lengths.max()), 1)
        fields = sliding_window_view(self.buf, width)[start]
        fields *= np.arange(width) < lengths[:, None]
        return fields.view(f"S{width}").ravel()

    def keys(self, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
        """The fields between ``start`` and ``stop`` as label keys (see
        ``_level_keys``): one row per field, of as many words as the widest
        field needs, each word read at its place after the start and masked
        to the bytes of the field it holds."""
        lengths = stop - start
        places = np.arange(0, max(int(lengths.max()), 1), _WORD)
        words = np.ndarray((len(self.buf) - _WORD + 1,), "<u8", self.buf, strides=(1,))
        keys = words[start[:, None] + places]
        keys &= _KEY_MASKS[np.clip(lengths[:, None] - places, 0, _WORD)]
        return keys

    def decimals(self, start: np.ndarray, stop: np.ndarray) -> np.ndarray | None:
        """The fields between ``start`` and ``stop`` as the numbers ``float``
        reads from them, or None unless each is ``-?digits`` or
        ``-?digits.digits`` with at most ``_MAX_DIGITS`` digits, with as many
        digits after the point in every row.

        Each field is read from a window of the widest field's bytes that
        ends where the field ends, so every byte column has one place value.
        The mantissa and the power of ten are exact doubles, and one IEEE
        division rounds their quotient as ``float`` rounds the decimal."""
        lengths = stop - start
        width = int(lengths.max())
        if width > _NUMBER_WIDTH or lengths.min() == 0:
            return None
        first = bytes(self.buf[start[0] : stop[0]])
        fraction = len(first) - 1 - first.rfind(b".") if b"." in first else 0
        negative = self.buf[start] == _MINUS
        unsigned = lengths - negative
        count = unsigned - (fraction > 0)
        if count.min() <= fraction or count.max() > _MAX_DIGITS:
            return None
        digits = sliding_window_view(self.buf, width)[stop - width]
        digits -= _ZERO
        # Each field's bytes after its sign stay; the bytes before read 0.
        tails = np.arange(width) >= np.arange(width + 1)[:, None]
        digits *= np.take(tails, width - unsigned, axis=0)
        if fraction:
            if not (digits[:, width - 1 - fraction] == _POINT_DIGIT).all():
                return None
            digits[:, width - 1 - fraction] = 0
        if digits.max() > 9:
            return None
        # Place values from the last column: the fraction digits, the point
        # (a zero digit by now) and then the whole digits.
        places = np.arange(width - 1, -1, -1)
        if fraction:
            places -= places >= fraction
        values = (digits @ _POWERS[places]) / _POWERS[fraction]
        # Every value is +0.0 or positive, so a negative sign source gives -v.
        return np.copysign(values, 0.5 - negative, out=values)


def _level_keys(var: VariableSchema, n_words: int) -> np.ndarray:
    """Each declared level's UTF-8 bytes as a row of ``n_words`` words,
    zero-filled past its end; a level longer than that is a row of ``0xFF``
    bytes, which no UTF-8 field holds.  No level of a plain file holds a
    NUL, so equal keys are equal bytes."""
    size = _WORD * n_words
    rows = []
    for label in var.levels:
        data = label.encode("utf-8", "surrogatepass")
        data = data.ljust(size, b"\0") if len(data) <= size else b"\xff" * size
        rows.append(np.frombuffer(data, dtype="<u8"))
    return np.array(rows)


def _search(levels: np.ndarray, cells: np.ndarray) -> np.ndarray | None:
    """The index (``int64``) of each row of ``cells`` among the rows of
    ``levels``, or None when some row is found as no level.

    Each row is folded into one word, first word first, and looked up by
    ``searchsorted`` among the folded levels; a fold two rows share is
    caught by comparing the found level's row with the cell's."""
    folded = []
    for keys in (levels, cells):
        fold = keys[:, 0].copy()
        for j in range(1, keys.shape[1]):
            fold *= _FOLD
            fold += keys[:, j]
        folded.append(fold)
    order = np.argsort(folded[0]).astype(np.int64)
    at = np.minimum(np.searchsorted(folded[0][order], folded[1]), len(order) - 1)
    codes = order[at]
    return codes if (levels[codes] == cells).all() else None


def _decode_plain(plain: _PlainCsv, var: VariableSchema, p: int) -> np.ndarray:
    """One column of ``from_raw`` from a plain CSV's fields at header
    position ``p``.

    A discrete column is looked up by key, and a continuous column of short
    decimals is read by ``_PlainCsv.decimals``.  A column with a miss, or
    any other column, goes through ``_encode_plain``."""
    start, stop = plain.bounds(p)
    if var.is_discrete:
        keys = plain.keys(start, stop)
        enc = _search(_level_keys(var, keys.shape[1]), keys)
    else:
        enc = plain.decimals(start, stop)
    return _encode_plain(var, plain.column(start, stop)) if enc is None else enc


def _encode_plain(var: VariableSchema, cells: np.ndarray) -> np.ndarray:
    """One column of ``from_raw`` from the UTF-8 bytes of its cells.

    Continuous cells are read by ``float`` from their bytes.  A discrete
    column (which comes here only with a miss), a parse failure or a
    non-finite value is encoded from its decoded ``str`` cells by
    ``from_raw``'s own code, which raises the same error as the
    ``csv.reader`` path."""
    if not var.is_discrete:
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
    index is built in place in one ``int64`` copy of the first column, so
    no temporary is made per column and the input code arrays are left
    untouched.
    """
    if not columns:
        return np.zeros(n, dtype=np.int64), 1
    (first, n_cells), *rest = columns
    flat = first.astype(np.int64)
    for codes, levels in rest:
        flat *= levels
        flat += codes
        n_cells *= levels
    return flat, n_cells
