"""Conditional-independence testing with memoization.

Four interchangeable backends produce ``CITestResult`` values for queries
``(x, y | s)``:

* ``GTestBackend`` — likelihood-ratio test of conditional independence on
  contingency tables (the statistic is twice the sample size times the
  plug-in conditional mutual information), chi-square reference; a batch
  counts its tables from one strata code per conditioning set and scores
  same-shape tables in stacks of at most ``STACK_CELLS`` cells.
* ``FisherZBackend`` — partial-correlation z-test for all-continuous
  queries, driven by one precomputed correlation matrix; a batch inverts
  its same-size correlation blocks in one stacked ``pinv``, and a lone
  query is a stack of one.
* ``OracleBackend`` — exact graph separation on a known DAG, returning
  p-values of 1.0/0.0; used to validate search behavior without noise.
* ``InjectedBackend`` — fixed p-values from a lookup table.

``CIEngine`` wraps a backend with its own ``CICache`` so no statistical
computation is repeated for the same canonical query, and offers a trace
facility so callers can assert that a search never re-asks a query.
``CIEngine.ask`` asks a round of canonical keys at once: the G-test,
Fisher-z and auto backends answer its uncached keys in one ``compute_many``
call, bitwise equal to one ``compute`` per key, while the oracle and
injected backends are asked one by one.  A round of one is a ``test``.
``CIEngine.p_values`` is ``canonical_key`` plus ``ask``.
"""

from __future__ import annotations

import math
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate
from numbers import Real
from pathlib import Path

import numpy as np
from scipy import special

from .dataset import Dataset, joint_codes, read_json
from .errors import (
    DegenerateTable,
    MixedBackendUnsupported,
    UninjectedQuery,
    UnknownVertex,
)

QueryKey = tuple[str, str, tuple[str, ...]]
Pair = tuple[str, str]

BACKEND_GTEST = "gtest"
BACKEND_FISHERZ = "fisherz"
BACKEND_ORACLE = "oracle"
BACKEND_INJECTED = "injected"

# Conditioning-set size cap used as the default throughout the package.
DEFAULT_MAX_COND = 3
DEFAULT_ALPHA = 0.05
# Cells per stacked G-test statistic (a larger table is scored alone), so
# that a stack's temporaries stay small.
STACK_CELLS = 512


def check_settings(alpha: float, m_ci: int) -> None:
    """Both learners' refusal of a significance level outside (0, 1) or a
    conditioning cap below 1, before any test."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if m_ci < 1:
        raise ValueError(f"conditioning cap must be >= 1, got {m_ci}")


def pair_key(a: str, b: str) -> Pair:
    """The one encoding of an unordered pair: its two names in sorted order.

    Edges, sepsets, significances and query keys are all keyed by it.
    """
    if a == b:
        raise ValueError(f"no self-pairs: {a!r}")
    return (a, b) if a < b else (b, a)


def canonical_key(x: str, y: str, s=()) -> QueryKey:
    """Order-free identity of a query: ``pair_key(x, y)`` then ``s`` sorted."""
    if x == y:
        raise ValueError(f"query variables must differ: {x!r}")
    s = tuple(sorted(s))
    if x in s or y in s:
        raise ValueError(f"conditioning set {s!r} contains a query variable")
    if len(set(s)) != len(s):
        raise ValueError(f"duplicate conditioning variables in {s!r}")
    return (*pair_key(x, y), s)


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

    def lookup_many(
        self, keys: list[QueryKey]
    ) -> tuple[dict[QueryKey, CITestResult], list[QueryKey]]:
        """The stored results among ``keys``, and the keys not stored yet,
        each once, in first-seen order.  Counts one miss per key returned
        missing and a hit for every other key, as looking the keys up one at
        a time would if every miss were stored before the next lookup."""
        found: dict[QueryKey, CITestResult] = {}
        missing = []
        for key in dict.fromkeys(keys):
            result = self._store.get(key)
            if result is None:
                missing.append(key)
            else:
                found[key] = result
        self.misses += len(missing)
        self.hits += len(keys) - len(missing)
        return found, missing

    def store(self, key: QueryKey, result: CITestResult) -> None:
        self._store[key] = result


class GTestBackend:
    """Conditional mutual-information test on discrete (or binned) columns.

    Tables of one shape ``(nx, ny, strata)`` are scored as one stack: each
    step of the statistic but the last sum is elementwise or an exact
    integer sum, so it gives a table in a stack what it gives the table
    alone, and each table's terms are then summed by one ``np.add.reduce``
    over its own slice, in a lone table's order (``np.add.reduceat`` sums
    in another).  ``compute`` is a stack of one.
    """

    name = BACKEND_GTEST

    def __init__(self, data: Dataset):
        self.data = data

    def compute(self, x: str, y: str, s: tuple[str, ...]) -> CITestResult:
        table = self._counts(x, y, self._strata(s))
        return self._stacked(table.reshape(1, *table.shape[:2], -1))[0]

    def compute_many(self, keys: list[QueryKey]) -> list[CITestResult]:
        """``[compute(*key) for key in keys]``, bitwise, with fewer row scans
        and one stacked statistic per shape.

        A single key goes through ``compute``.  Otherwise each pair's
        subsets are visited from largest to smallest; a subset with a
        superset counted from the rows in this call takes its table as a
        sum over that table's extra axes (integer counts, so exact).  The
        tables counted from the rows share one strata code per conditioning
        set.  Same-shape tables are scored in stacks of at most
        ``STACK_CELLS`` cells; a stack of one is a view of its table."""
        if len(keys) == 1:
            return [self.compute(*keys[0])]
        by_pair: dict[Pair, list[tuple[str, ...]]] = {}
        for x, y, s in keys:
            by_pair.setdefault((x, y), []).append(s)
        from_rows: dict[tuple[str, ...], list[Pair]] = {}
        sums = []
        for (x, y), subsets in by_pair.items():
            counted: list[tuple[tuple[str, ...], frozenset[str]]] = []
            for s in sorted(dict.fromkeys(subsets), key=len, reverse=True):
                members = frozenset(s)
                sup = next((t for t, t_set in counted if members <= t_set), None)
                if sup is None:
                    from_rows.setdefault(s, []).append((x, y))
                    counted.append((s, members))
                else:
                    # Both subsets are sorted, so the kept axes stay in s's order.
                    extra = tuple(2 + i for i, v in enumerate(sup) if v not in members)
                    sums.append(((x, y, s), (x, y, sup), extra))
        tables: dict[QueryKey, np.ndarray] = {}
        for s, pairs in from_rows.items():
            strata = self._strata(s)
            tables.update(((x, y, s), self._counts(x, y, strata)) for x, y in pairs)
        for key, sup, extra in sums:
            tables[key] = tables[sup].sum(axis=extra)
        by_shape: dict[tuple[int, int, int], list[QueryKey]] = {}
        for key, table in tables.items():
            nx, ny = table.shape[:2]
            by_shape.setdefault((nx, ny, table.size // (nx * ny)), []).append(key)
        results: dict[QueryKey, CITestResult] = {}
        for shape, group in by_shape.items():
            step = max(1, STACK_CELLS // math.prod(shape))
            for i in range(0, len(group), step):
                chunk = group[i : i + step]
                views = [tables[key].reshape(1, *shape) for key in chunk]
                stack = views[0] if len(views) == 1 else np.concatenate(views)
                results.update(zip(chunk, self._stacked(stack)))
        return [results[key] for key in keys]

    def _strata(self, s: tuple[str, ...]) -> tuple[np.ndarray, int, list[int]]:
        """The joint code of ``s``'s columns, its cell count and their levels."""
        if self.data.n == 0:
            raise DegenerateTable("cannot test on an empty dataset")
        columns = [self.data.codes(v) for v in s]
        code, n_strata = joint_codes(columns, self.data.n)
        return code, n_strata, [levels for _, levels in columns]

    def _counts(self, x: str, y: str, strata: tuple[np.ndarray, int, list[int]]) -> np.ndarray:
        """Row counts of the ``(x, y, *s)`` cells, shaped ``(nx, ny, *levels)``:
        ``x`` and then ``y`` folded in front of the strata code of ``s``, the
        cell index ``joint_codes`` gives ``(x, y, *s)``."""
        code, n_strata, levels = strata
        (xs, nx), (ys, ny) = self.data.codes(x), self.data.codes(y)
        flat = xs * ny
        flat += ys
        if n_strata > 1:  # one stratum has the all-zero code
            flat *= n_strata
            flat += code
        return np.bincount(flat, minlength=nx * ny * n_strata).reshape(nx, ny, *levels)

    def _stacked(self, counts: np.ndarray) -> list[CITestResult]:
        """The tests of a stack of tables shaped ``(tables, nx, ny, strata)``."""
        _, nx, ny, _ = counts.shape
        add = np.add.reduce
        per_stratum = add(counts, axis=(1, 2), keepdims=True)
        row = add(counts, axis=2, keepdims=True)
        col = add(counts, axis=1, keepdims=True)
        mask = counts > 0
        ratio = (counts * per_stratum)[mask] / (row * col)[mask]
        terms = counts[mask] * np.log(ratio)
        ends = list(accumulate(add(mask.reshape(len(counts), -1), axis=1).tolist()))
        statistics = [
            max(0.0, 2.0 * float(add(terms[start:end]))) for start, end in zip([0, *ends], ends)
        ]
        dofs = ((nx - 1) * (ny - 1) * add(per_stratum > 0, axis=3).ravel()).tolist()
        p_values = special.chdtrc(dofs, statistics).tolist()
        n = self.data.n
        return [
            CITestResult(p if dof > 0 else 1.0, statistic, dof, self.name, low_power=n < 5 * dof)
            for p, statistic, dof in zip(p_values, statistics, dofs)
        ]


class FisherZBackend:
    """Partial-correlation z-test; valid for all-continuous queries only.
    Queries of one conditioning-set size share one stacked ``pinv``, which
    runs the same SVD and cutoff on each block as alone; ``compute`` is a
    stack of one."""

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
        return self._stacked(len(s), [(x, y, s)])[0]

    def compute_many(self, keys: list[QueryKey]) -> list[CITestResult]:
        """``[compute(*key) for key in keys]``, bitwise, with one stacked
        ``pinv`` per block size.  A single key goes through ``compute``."""
        if len(keys) == 1:
            return [self.compute(*keys[0])]
        by_size: dict[int, list[QueryKey]] = {}
        for key in keys:
            by_size.setdefault(len(key[2]), []).append(key)
        results: dict[QueryKey, CITestResult] = {}
        for size, group in by_size.items():
            results.update(zip(group, self._stacked(size, group)))
        return [results[key] for key in keys]

    def _stacked(self, size: int, keys: list[QueryKey]) -> list[CITestResult]:
        """The tests of ``keys``, whose conditioning sets have ``size``
        members each; low-power (p-value 1) when ``n - size - 3 <= 0``."""
        if self.n == 0:
            raise DegenerateTable("cannot test on an empty dataset")
        idx = np.array([self._block(*key) for key in keys])
        scale = self.n - size - 3
        if scale <= 0:
            return [CITestResult(1.0, 0.0, 0, self.name, low_power=True) for _ in keys]
        precs = np.linalg.pinv(self.corr[idx[:, :, None], idx[:, None, :]])
        denom = precs[:, 0, 0] * precs[:, 1, 1]
        positive = denom > 0
        r = -precs[:, 0, 1] / np.sqrt(np.where(positive, denom, 1.0))
        r[~positive] = 0.0
        r = np.minimum(np.maximum(r, -1.0 + 1e-15), 1.0 - 1e-15)
        # math.atanh per element: NumPy's arctanh may take a vectorised path
        # that differs from it in the last bit.
        statistics = math.sqrt(scale) * np.array([math.atanh(v) for v in r.tolist()])
        p_values = 2.0 * special.ndtr(-np.abs(statistics))
        return [
            CITestResult(p_value, statistic, 0, self.name)
            for p_value, statistic in zip(p_values.tolist(), statistics.tolist())
        ]

    def _block(self, x: str, y: str, s: tuple[str, ...]) -> list[int]:
        """Correlation-matrix rows of ``x``, ``y`` and then ``s``."""
        try:
            return [self._pos[x], self._pos[y]] + [self._pos[v] for v in s]
        except KeyError as exc:
            raise MixedBackendUnsupported(
                f"fisher-z requires continuous variables; {exc.args[0]!r} is not"
            ) from None


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
        if self._continuous(x, y, s):
            return self._z().compute(x, y, s)
        return self._gtest.compute(x, y, s)

    def compute_many(self, keys: list[QueryKey]) -> list[CITestResult]:
        """``[compute(*key) for key in keys]``: the all-continuous keys in
        one z-test batch, the rest in one G-test batch."""
        tables, continuous = [], []
        for key in keys:
            (continuous if self._continuous(*key) else tables).append(key)
        results = dict(zip(tables, self._gtest.compute_many(tables)))
        if continuous:
            results.update(zip(continuous, self._z().compute_many(continuous)))
        return [results[key] for key in keys]

    def _continuous(self, x: str, y: str, s: tuple[str, ...]) -> bool:
        return all(not self.data.is_discrete(v) for v in (x, y, *s))

    def _z(self) -> FisherZBackend:
        if self._fisherz is None:
            self._fisherz = FisherZBackend(self.data)
        return self._fisherz


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
    edges: frozenset[Pair]
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

    def skeleton_pairs(self) -> set[Pair]:
        return {pair_key(a, b) for a, b in self.edges}

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
        """Read a JSON array of ``{"x", "y", "s", "p"}`` objects (see ``from_entries``
        and ``dataset.read_json``); another JSON type raises ``ValueError``."""
        raw = read_json(path, list, ValueError, "injected results must be a JSON array")
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


class CIEngine:
    """Memoizing front end over a test backend.

    Every query is canonicalized before the cache lookup, so the engine is
    symmetric in the pair and insensitive to conditioning-set order; only
    ``ask`` takes keys that its caller built canonical.  A
    trace can be opened to record the canonical key of every query made
    (hit or miss) within a code region.
    """

    def __init__(self, backend):
        self.backend = backend
        self.cache = CICache()
        self._trace: list[QueryKey] | None = None

    def test(self, x: str, y: str, s=()) -> CITestResult:
        key = canonical_key(x, y, s)
        if self._trace is not None:
            self._trace.append(key)
        found, missing = self.cache.lookup_many([key])
        if missing:
            found[key] = self.backend.compute(*key)
            self.cache.store(key, found[key])
        return found[key]

    def p_value(self, x: str, y: str, s=()) -> float:
        return self.test(x, y, s).p_value

    def p_values(self, x: str, queries) -> list[float]:
        """``[p_value(x, y, s) for y, s in queries]``, asked as one round:
        every query is checked and canonicalized first, then ``ask``-ed."""
        return self.ask([canonical_key(x, y, s) for y, s in queries])

    def ask(self, keys: list[QueryKey]) -> list[float]:
        """The p-values of ``keys``, which must be canonical already (as
        ``canonical_key`` returns them), asked as one round.

        A round of one, or any round on a backend without ``compute_many``
        (oracle, injected), is one ``test`` per key.  Otherwise the trace
        entries and cache counts are those of the one-by-one calls, and the
        uncached keys, which may belong to different pairs, go to one
        ``backend.compute_many(keys)`` in query order.
        """
        compute_many = getattr(self.backend, "compute_many", None)
        if compute_many is None or len(keys) == 1:
            return [self.test(*key).p_value for key in keys]
        if self._trace is not None:
            self._trace.extend(keys)
        found, missing = self.cache.lookup_many(keys)
        if missing:
            for key, result in zip(missing, compute_many(missing)):
                self.cache.store(key, result)
                found[key] = result
        return [found[key].p_value for key in keys]

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
