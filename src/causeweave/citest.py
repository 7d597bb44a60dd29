"""Conditional-independence testing with memoization.

Four interchangeable backends produce ``CITestResult`` values for queries
``(x, y | s)``:

* ``GTestBackend`` — likelihood-ratio test of conditional independence on
  contingency tables (the statistic is twice the sample size times the
  plug-in conditional mutual information), chi-square reference.
* ``FisherZBackend`` — partial-correlation z-test for all-continuous
  queries, driven by one precomputed correlation matrix.
* ``OracleBackend`` — exact graph separation on a known DAG, returning
  p-values of 1.0/0.0; used to validate search behavior without noise.
* ``InjectedBackend`` — fixed p-values from a lookup table.

``CIEngine`` wraps a backend with a shared ``CICache`` so no statistical
computation is repeated for the same canonical query, and offers a trace
facility so callers can assert that a search never re-asks a query.
"""

from __future__ import annotations

import json
import math
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from numbers import Real
from pathlib import Path

import numpy as np
from scipy import special

from .dataset import Dataset, joint_codes
from .errors import (
    DegenerateTable,
    MixedBackendUnsupported,
    UninjectedQuery,
    UnknownVertex,
)

QueryKey = tuple[str, str, tuple[str, ...]]

BACKEND_GTEST = "gtest"
BACKEND_FISHERZ = "fisherz"
BACKEND_ORACLE = "oracle"
BACKEND_INJECTED = "injected"

# Conditioning-set size cap used as the default throughout the package.
DEFAULT_MAX_COND = 3
DEFAULT_ALPHA = 0.05


def canonical_key(x: str, y: str, s=()) -> QueryKey:
    """Order-free identity of a query: the pair is unordered, ``s`` sorted."""
    if x == y:
        raise ValueError(f"query variables must differ: {x!r}")
    s = tuple(sorted(s))
    if x in s or y in s:
        raise ValueError(f"conditioning set {s!r} contains a query variable")
    if len(set(s)) != len(s):
        raise ValueError(f"duplicate conditioning variables in {s!r}")
    a, b = sorted((x, y))
    return (a, b, s)


@dataclass(frozen=True)
class CITestResult:
    """Outcome of one conditional-independence test."""

    p_value: float
    statistic: float
    dof: int
    backend: str
    low_power: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p-value out of range: {self.p_value}")
        if self.dof < 0:
            raise ValueError(f"negative dof: {self.dof}")


class CICache:
    """Memo of test results keyed by canonical query.

    One cache serves one learn in one process.  Counters only ever increase.
    """

    def __init__(self) -> None:
        self._store: dict[QueryKey, CITestResult] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def lookup(self, key: QueryKey) -> CITestResult | None:
        found = self._store.get(key)
        if found is None:
            self.misses += 1
        else:
            self.hits += 1
        return found

    def store(self, key: QueryKey, result: CITestResult) -> None:
        self._store[key] = result


class GTestBackend:
    """Conditional mutual-information test on discrete (or binned) columns."""

    name = BACKEND_GTEST

    def __init__(self, data: Dataset):
        self.data = data
        self._codes: dict[str, tuple[np.ndarray, int]] = {}

    def _column(self, name: str) -> tuple[np.ndarray, int]:
        """``data.codes(name)``, memoized: binning a column is not free."""
        got = self._codes.get(name)
        if got is None:
            got = self._codes[name] = self.data.codes(name)
        return got

    def compute(self, x: str, y: str, s: tuple[str, ...]) -> CITestResult:
        if self.data.n == 0:
            raise DegenerateTable("cannot test on an empty dataset")
        columns = [self._column(v) for v in (x, y, *s)]
        flat, n_cells = joint_codes(columns, self.data.n)
        nx, ny = columns[0][1], columns[1][1]
        counts = np.bincount(flat, minlength=n_cells).reshape(nx, ny, -1)

        per_stratum = counts.sum(axis=(0, 1))
        row = counts.sum(axis=1)[:, None, :]
        col = counts.sum(axis=0)[None, :, :]
        mask = counts > 0
        ratio = (counts * per_stratum)[mask] / (row * col)[mask]
        statistic = max(0.0, 2.0 * float(np.sum(counts[mask] * np.log(ratio))))
        dof = (nx - 1) * (ny - 1) * int(np.count_nonzero(per_stratum))
        p_value = float(special.chdtrc(dof, statistic)) if dof > 0 else 1.0
        return CITestResult(
            p_value=p_value,
            statistic=statistic,
            dof=dof,
            backend=self.name,
            low_power=self.data.n < 5 * dof,
        )


class FisherZBackend:
    """Partial-correlation z-test; valid for all-continuous queries only."""

    name = BACKEND_FISHERZ

    def __init__(self, data: Dataset):
        names = [v.name for v in data.schema if not v.is_discrete]
        if not names:
            raise MixedBackendUnsupported("dataset has no continuous variables")
        self.n = data.n
        self._pos = {name: i for i, name in enumerate(names)}
        block = np.column_stack([data.columns[name] for name in names])
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = np.corrcoef(block.T) if len(names) > 1 else np.ones((1, 1))
        corr = np.nan_to_num(corr, nan=0.0)
        np.fill_diagonal(corr, 1.0)
        self.corr = corr

    def compute(self, x: str, y: str, s: tuple[str, ...]) -> CITestResult:
        if self.n == 0:
            raise DegenerateTable("cannot test on an empty dataset")
        try:
            idx = [self._pos[x], self._pos[y]] + [self._pos[v] for v in s]
        except KeyError as exc:
            raise MixedBackendUnsupported(
                f"fisher-z requires continuous variables; {exc.args[0]!r} is not"
            ) from None
        scale = self.n - len(s) - 3
        if scale <= 0:
            return CITestResult(1.0, 0.0, 0, self.name, low_power=True)
        prec = np.linalg.pinv(self.corr[np.ix_(idx, idx)])
        denom = prec[0, 0] * prec[1, 1]
        r = -prec[0, 1] / math.sqrt(denom) if denom > 0 else 0.0
        r = min(1.0 - 1e-15, max(-1.0 + 1e-15, r))
        statistic = math.sqrt(scale) * math.atanh(r)
        p_value = float(2.0 * special.ndtr(-abs(statistic)))
        return CITestResult(p_value, statistic, 0, self.name)


class AutoBackend:
    """Kind-aware dispatch: all-continuous queries go to the z-test,
    anything touching a discrete variable goes to the table test with
    quintile-binned continuous columns."""

    name = "auto"

    def __init__(self, data: Dataset):
        self.data = data
        self._gtest = GTestBackend(data)
        self._fisherz: FisherZBackend | None = None

    def compute(self, x: str, y: str, s: tuple[str, ...]) -> CITestResult:
        if all(not self.data.is_discrete(v) for v in (x, y, *s)):
            if self._fisherz is None:
                self._fisherz = FisherZBackend(self.data)
            return self._fisherz.compute(x, y, s)
        return self._gtest.compute(x, y, s)


def topological_order(vertices, edges) -> tuple[str, ...]:
    """Kahn's order of ``vertices`` under the directed ``edges``: a FIFO
    queue seeded with the sorted sources, each vertex's children released
    in sorted order.  Vertices on or behind a directed cycle are left out,
    so the graph is acyclic exactly when the order has every vertex."""
    children: dict[str, list[str]] = {v: [] for v in vertices}
    indeg = dict.fromkeys(vertices, 0)
    for a, b in edges:
        children[a].append(b)
        indeg[b] += 1
    ready = deque(sorted(v for v in vertices if indeg[v] == 0))
    order: list[str] = []
    while ready:
        v = ready.popleft()
        order.append(v)
        for c in sorted(children[v]):
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
    return tuple(order)


@dataclass(frozen=True)
class OracleGraph:
    """A DAG whose construction certifies acyclicity via a topological order."""

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    topological_order: tuple[str, ...] = field(init=False, compare=False)
    _parents: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)
    _children: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        parents: dict[str, list[str]] = {v: [] for v in self.vertices}
        children: dict[str, list[str]] = {v: [] for v in self.vertices}
        for a, b in self.edges:
            if a not in vset or b not in vset:
                raise UnknownVertex(f"edge ({a!r}, {b!r}) references unknown vertex")
            if a == b:
                raise ValueError(f"self-loop at {a!r}")
            parents[b].append(a)
            children[a].append(b)
        order = topological_order(self.vertices, self.edges)
        if len(order) != len(self.vertices):
            raise ValueError("edge set contains a directed cycle")
        object.__setattr__(self, "topological_order", order)
        object.__setattr__(self, "_parents", {v: tuple(sorted(p)) for v, p in parents.items()})
        object.__setattr__(self, "_children", {v: tuple(sorted(c)) for v, c in children.items()})

    def parents(self, v: str) -> tuple[str, ...]:
        self._require(v)
        return self._parents[v]

    def children(self, v: str) -> tuple[str, ...]:
        self._require(v)
        return self._children[v]

    def skeleton_pairs(self) -> set[tuple[str, str]]:
        return {tuple(sorted(e)) for e in self.edges}

    def _require(self, v: str) -> None:
        if v not in self._parents:
            raise UnknownVertex(f"unknown vertex {v!r}")


def d_sep(g: OracleGraph, x: str, y: str, s=()) -> bool:
    """Exact graph separation of ``x`` and ``y`` given ``s``.

    Walks the directed structure tracking the direction each vertex was
    entered from, so a trail through a vertex is followed exactly when the
    local collider/non-collider rule leaves it open.  Linear in the graph
    size per call.
    """
    s = frozenset(s)
    for v in (x, y, *s):
        g._require(v)
    if x == y or x in s or y in s:
        raise ValueError("query variables must be distinct from the conditioning set")

    conditioned_ancestors = set(s)
    stack = list(s)
    while stack:
        for p in g.parents(stack.pop()):
            if p not in conditioned_ancestors:
                conditioned_ancestors.add(p)
                stack.append(p)

    FROM_CHILD, FROM_PARENT = 0, 1
    seen: set[tuple[str, int]] = set()
    queue: deque[tuple[str, int]] = deque([(x, FROM_CHILD)])
    while queue:
        v, direction = queue.popleft()
        if (v, direction) in seen:
            continue
        seen.add((v, direction))
        if v == y:
            return False
        if direction == FROM_CHILD and v not in s:
            for p in g.parents(v):
                queue.append((p, FROM_CHILD))
            for c in g.children(v):
                queue.append((c, FROM_PARENT))
        elif direction == FROM_PARENT:
            if v not in s:
                for c in g.children(v):
                    queue.append((c, FROM_PARENT))
            if v in conditioned_ancestors:
                for p in g.parents(v):
                    queue.append((p, FROM_CHILD))
    return True


class OracleBackend:
    """Idealized faithful test: p-value 1.0 when separated, 0.0 otherwise."""

    name = BACKEND_ORACLE

    def __init__(self, graph: OracleGraph):
        self.graph = graph

    def compute(self, x: str, y: str, s: tuple[str, ...]) -> CITestResult:
        separated = d_sep(self.graph, x, y, s)
        return CITestResult(
            p_value=1.0 if separated else 0.0,
            statistic=0.0 if separated else math.inf,
            dof=0,
            backend=self.name,
        )


class InjectedBackend:
    """Returns exactly the p-values injected at construction time."""

    name = BACKEND_INJECTED

    def __init__(self, table: dict[QueryKey, float]):
        self.table = table

    @classmethod
    def from_entries(cls, entries) -> "InjectedBackend":
        """Build from an iterable of ``(x, y, s, p)`` tuples or of mappings
        with keys ``x``, ``y``, ``p`` and an optional ``s``.  Raises
        ``ValueError`` for a missing or unknown key, a name that is not a
        string, ``s`` given as a bare string, a p-value that is not a number
        in [0, 1], or a query given twice."""
        table: dict[QueryKey, float] = {}
        for entry in entries:
            if isinstance(entry, dict):
                if not {"x", "y", "p"} <= entry.keys() <= {"x", "y", "s", "p"}:
                    raise ValueError(f"injected entry needs keys x, y, p and optional s: {entry!r}")
                entry = (entry["x"], entry["y"], entry.get("s", ()), entry["p"])
            if not isinstance(entry, (tuple, list)) or len(entry) != 4:
                raise ValueError(f"injected entry must be (x, y, s, p): {entry!r}")
            x, y, s, p = entry
            if not isinstance(s, (tuple, list)) or not all(isinstance(v, str) for v in (x, y, *s)):
                raise ValueError(f"injected query needs names x, y and a list s: {entry!r}")
            if not isinstance(p, Real) or isinstance(p, bool) or not 0.0 <= p <= 1.0:
                raise ValueError(f"injected p-value must be a number in [0, 1], got {p!r}")
            key = canonical_key(x, y, tuple(s))
            if key in table:
                raise ValueError(f"duplicate injected query {key!r}")
            table[key] = float(p)
        return cls(table)

    @classmethod
    def from_json(cls, path: str | Path) -> "InjectedBackend":
        """Read a JSON array of ``{"x", "y", "s", "p"}`` objects (see
        ``from_entries``); any other JSON type raises ``ValueError``."""
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, list):
            raise ValueError("injected results must be a JSON array")
        return cls.from_entries(raw)

    def variable_names(self) -> tuple[str, ...]:
        names: set[str] = set()
        for a, b, s in self.table:
            names.update((a, b, *s))
        return tuple(sorted(names))

    def compute(self, x: str, y: str, s: tuple[str, ...]) -> CITestResult:
        key = canonical_key(x, y, s)
        try:
            p = self.table[key]
        except KeyError:
            raise UninjectedQuery(f"no injected p-value for {key!r}") from None
        return CITestResult(p_value=p, statistic=0.0, dof=0, backend=self.name)


def inject_results(table) -> InjectedBackend:
    """Backend returning exactly the given ``(x, y, s, p_value)`` entries."""
    return InjectedBackend.from_entries(table)


class CIEngine:
    """Memoizing front end over a test backend.

    Every query is canonicalized before the cache lookup, so the engine is
    symmetric in the pair and insensitive to conditioning-set order.  A
    trace can be opened to record the canonical key of every query made
    (hit or miss) within a code region.
    """

    def __init__(self, backend, cache: CICache | None = None):
        self.backend = backend
        self.cache = cache if cache is not None else CICache()
        self._trace: list[QueryKey] | None = None

    def test(self, x: str, y: str, s=()) -> CITestResult:
        key = canonical_key(x, y, s)
        if self._trace is not None:
            self._trace.append(key)
        found = self.cache.lookup(key)
        if found is None:
            found = self.backend.compute(key[0], key[1], key[2])
            self.cache.store(key, found)
        return found

    def p_value(self, x: str, y: str, s=()) -> float:
        return self.test(x, y, s).p_value

    @contextmanager
    def trace(self):
        """Record canonical keys of all queries issued inside the block."""
        previous = self._trace
        log: list[QueryKey] = []
        self._trace = log
        try:
            yield log
        finally:
            self._trace = previous


def make_backend(data: Dataset, kind: str = "auto"):
    """Construct a data-driven backend by name."""
    if kind == "auto":
        return AutoBackend(data)
    if kind == BACKEND_GTEST:
        return GTestBackend(data)
    if kind == BACKEND_FISHERZ:
        return FisherZBackend(data)
    raise ValueError(f"unknown backend {kind!r}")


def ci_test(data: Dataset, x: str, y: str, s=(), backend="auto", cache: CICache | None = None) -> CITestResult:
    """One-shot conditional-independence test against a dataset.

    ``backend`` may be a name (``auto``, ``gtest``, ``fisherz``) or an
    already-constructed backend object.  Pass a ``CICache`` to share
    memoization across calls; for heavy use construct a ``CIEngine`` once.
    """
    if isinstance(backend, str):
        backend = make_backend(data, backend)
    return CIEngine(backend, cache).test(x, y, tuple(s))
