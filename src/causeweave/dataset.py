"""Typed tabular data: schema-driven CSV ingestion and column encoding.

Discrete observations are stored as level indices (``int64``), continuous
ones as ``float64``.  A loaded dataset is immutable: column arrays are
marked read-only.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

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

    def __post_init__(self) -> None:
        by_name = {v.name: v for v in self.schema}
        if len(by_name) != len(self.schema):
            raise SchemaError("duplicate variable names in schema")
        object.__setattr__(self, "_by_name", by_name)
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
        bin no row falls in is no level.
        """
        col = self.columns[name]
        if not self.variable(name).is_discrete:
            qs = np.linspace(0.0, 1.0, QUINTILE_BINS + 1)[1:-1]
            col = np.searchsorted(np.unique(np.quantile(col, qs)), col, side="right")
        levels, codes = np.unique(col, return_inverse=True)
        return codes, len(levels)

    def decode(self) -> dict[str, list]:
        """Map encoded columns back to raw cell values (labels / floats)."""
        out: dict[str, list] = {}
        for var in self.schema:
            col = self.columns[var.name]
            if var.is_discrete:
                out[var.name] = [var.levels[i] for i in col]
            else:
                out[var.name] = [float(v) for v in col]
        return out


def load_schema(path: str | Path) -> tuple[VariableSchema, ...]:
    """Read a schema file: a JSON array of ``{"name", "kind", "levels"?}``
    with string ``name`` and ``kind`` and ``levels`` a JSON array of
    strings.  Any other key raises ``SchemaError``.

    Tiers are prior knowledge and belong in the prior file, not here.
    """
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise SchemaError("schema file must contain a JSON array")
    out = []
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
        out.append(VariableSchema(name=name, kind=kind, levels=tuple(levels)))
    return tuple(out)


def from_raw(schema: tuple[VariableSchema, ...], raw_columns: dict[str, list]) -> Dataset:
    """Encode raw cell values (labels / numbers) into a Dataset."""
    columns: dict[str, np.ndarray] = {}
    n = None
    for var in schema:
        if var.name not in raw_columns:
            raise MissingColumn(f"missing column {var.name!r}")
        cells = raw_columns[var.name]
        if n is None:
            n = len(cells)
        if var.is_discrete:
            index = {label: i for i, label in enumerate(var.levels)}
            enc = np.empty(len(cells), dtype=np.int64)
            for i, cell in enumerate(cells):
                try:
                    enc[i] = index[str(cell)]
                except KeyError:
                    raise UnknownLevel(
                        f"{var.name}: value {cell!r} (row {i + 1}) is not a declared level"
                    ) from None
        else:
            enc = np.empty(len(cells), dtype=np.float64)
            for i, cell in enumerate(cells):
                try:
                    enc[i] = float(cell)
                except (TypeError, ValueError):
                    raise UnknownLevel(
                        f"{var.name}: value {cell!r} (row {i + 1}) is not numeric"
                    ) from None
            bad = np.flatnonzero(~np.isfinite(enc))
            if bad.size:
                i = int(bad[0])
                raise UnknownLevel(
                    f"{var.name}: value {cells[i]!r} (row {i + 1}) is not finite"
                )
        columns[var.name] = enc
    return Dataset(schema=schema, columns=columns, n=n or 0)


def load_csv(path: str | Path, schema_path: str | Path) -> Dataset:
    """Load a headered, RFC-4180 CSV against a schema file.

    Every schema variable must appear in the header exactly once (extra CSV
    columns are ignored, repeated or not).  Discrete cells are mapped to
    level indices in schema order; continuous cells must be finite numbers.
    There is no imputation, so missingness must be declared as an explicit
    level upstream.  A file with a header and no data rows is refused.

    Raises
    ------
    MissingColumn, RowLengthMismatch, SchemaError, UnknownLevel
    """
    schema = load_schema(schema_path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise RowLengthMismatch("empty CSV: header row required") from None
        col_pos: dict[str, int] = {}
        for var in schema:
            if header.count(var.name) > 1:
                raise SchemaError(f"CSV header repeats column {var.name!r}")
            try:
                col_pos[var.name] = header.index(var.name)
            except ValueError:
                raise MissingColumn(f"CSV header lacks column {var.name!r}") from None
        raw: dict[str, list[str]] = {name: [] for name in col_pos}
        row_no = 0
        for row_no, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise RowLengthMismatch(
                    f"row {row_no}: {len(row)} cells, header has {len(header)}"
                )
            for name, pos in col_pos.items():
                raw[name].append(row[pos])
    if row_no == 0:
        raise RowLengthMismatch("empty CSV: no data rows")
    return from_raw(schema, raw)


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
    ``columns`` is empty (every row then falls in the single cell 0).
    """
    flat = np.zeros(n, dtype=np.int64)
    n_cells = 1
    for codes, levels in columns:
        flat = flat * levels + codes
        n_cells *= levels
    return flat, n_cells
