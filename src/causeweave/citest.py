"""Conditional-independence testing with memoization.

Four interchangeable backends produce ``CITestResult`` values for queries
``(x, y | s)``:

* ``GTestBackend`` — likelihood-ratio test of conditional independence on
  contingency tables (the statistic is twice the sample size times the
  plug-in conditional mutual information), chi-square reference; it counts
  each variable set from the rows at most once in its life, sums every
  other table out of a stored one, and scores a batch's tables of all
  shapes in passes of at most ``PASS_CELLS`` cells.
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
Every backend has one method, ``compute(keys)``, which answers a list of
canonical keys in order; the G-test and Fisher-z answers are bitwise those
of one call per key.  ``CIEngine.ask`` asks a round of canonical keys at
once, its uncached keys in one ``compute`` call; a round of one is a
``test``.  ``CIEngine.p_values`` is ``canonical_key`` plus ``ask``.
"""

from __future__ import annotations

import math
from collections import Counter, deque
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
# Cells per G-test scoring pass (a larger table is scored alone), so that
# a pass's temporaries stay small.
PASS_CELLS = 4096


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

    Every table counted from the rows is kept for the life of the backend
    (one learn, or one replicate), stored with its axis order under the bit
    mask of its variable set ``{x, y} | s``, and every sub-mask of two or
    more variables is indexed to it.  A key whose mask is indexed, in a
    batch or alone, takes its table as an integer sum over the stored
    table's other axes, transposed to ``(x, y, *s)``: counts are exact, so
    every statistic is the one a fresh count gives.  The rest of a batch is
    counted from the rows, largest conditioning sets first, each laid out
    ``(*s, a, b)`` with ``a`` the pair member shared by most counts of the
    same ``s``, so that one code of ``(*s, a)`` serves all of them.

    A batch's tables, of any shapes, are scored together in passes of at
    most ``PASS_CELLS`` cells (a larger table alone).
    """

    name = BACKEND_GTEST

    def __init__(self, data: Dataset):
        self.data = data
        self._bit = {v.name: 1 << i for i, v in enumerate(data.schema)}
        # Mask of a counted variable set -> its axis of each name, and table.
        self._stored: dict[int, tuple[dict[str, int], np.ndarray]] = {}
        # Mask of any set of two or more variables -> a stored mask over it.
        self._index: dict[int, int] = {}
        # The cell index of each row scan is built here, not allocated anew.
        self._flat = np.empty(data.n, np.intp)

    def compute(self, keys: list[QueryKey]) -> list[CITestResult]:
        """The test of each key, bitwise as if asked alone, with no row scan
        for a variable set the backend has counted and one scoring pass per
        ``PASS_CELLS`` cells."""
        blocks = self._tables(keys)
        results: list[CITestResult] = []
        batch: list[np.ndarray] = []
        nx = ny = width = 0
        for block in blocks.values():
            # The padded shape of the pass with this table added.
            a, b, w = block.shape
            a, b, w = (a if a > nx else nx), (b if b > ny else ny), width + w
            if batch and a * b * w > PASS_CELLS:
                results += self._scored(batch)
                batch = []
                a, b, w = block.shape
            batch.append(block)
            nx, ny, width = a, b, w
        if batch:
            results += self._scored(batch)
        if len(blocks) == len(keys):
            return results
        by_key = dict(zip(blocks, results))
        return [by_key[key] for key in keys]

    def _tables(self, keys: list[QueryKey]) -> dict[QueryKey, np.ndarray]:
        """The table of each distinct key, in first-seen order, shaped
        ``(nx, ny, strata)`` over the cells of ``(x, y, *s)`` in C order:
        summed out of a stored table where one covers the key's variables,
        else counted from the rows and stored."""
        if self.data.n == 0:
            raise DegenerateTable("cannot test on an empty dataset")
        bit, index, stored = self._bit, self._index, self._stored
        masks: dict[QueryKey, int] = {}
        try:
            for key in keys:
                x, y, s = key
                mask = bit[x] | bit[y]
                for v in s:
                    mask |= bit[v]
                masks[key] = mask
        except KeyError as exc:
            self.data.variable(exc.args[0])  # raises MissingColumn
            raise
        fresh: dict[tuple[str, ...], list[tuple[str, str, int]]] = {}
        for key in sorted(
            (key for key, mask in masks.items() if mask not in index),
            key=lambda key: len(key[2]), reverse=True,
        ):
            mask = masks[key]
            if mask in index:  # counted for a larger key of this batch
                continue
            x, y, s = key
            fresh.setdefault(s, []).append((x, y, mask))
            sub = mask
            while sub:
                if sub & (sub - 1):  # two or more variables
                    index.setdefault(sub, mask)
                sub = (sub - 1) & mask
        for s, pairs in fresh.items():
            self._count(s, pairs)
        blocks = {}
        for key, mask in masks.items():
            pos, table = stored[index[mask]]
            x, y, s = key
            axes = [pos[x], pos[y], *map(pos.__getitem__, s)]
            if len(axes) < table.ndim:  # sum out the stored table's other variables
                extra = [*set(range(table.ndim)).difference(axes)]
                table = np.add.reduce(table, axis=tuple(extra), keepdims=True)
                axes += extra
            table = table.transpose(axes)
            blocks[key] = table.reshape(table.shape[0], table.shape[1], -1)
        return blocks

    def _count(self, s: tuple[str, ...], pairs: list[tuple[str, str, int]]) -> None:
        """Count and store the table of each pair under ``s``, shaped
        ``(*levels, na, nb)``: the anchor ``a`` is the member of its pair in
        more of ``pairs``, and the code of ``(*s, a)`` is made once per
        anchor."""
        codes, n = self.data.codes, self.data.n
        columns = [codes(v) for v in s]
        levels = [k for _, k in columns]
        shared = Counter(v for x, y, _ in pairs for v in (x, y)) if len(pairs) > 1 else {}
        by_anchor: dict[str, list[tuple[str, int]]] = {}
        for x, y, mask in pairs:
            a, b = (y, x) if shared and shared[y] > shared[x] else (x, y)
            by_anchor.setdefault(a, []).append((b, mask))
        if len(by_anchor) > 1 and len(columns) > 1:
            columns = [joint_codes(columns, n)]
        for a, others in by_anchor.items():
            anchor = codes(a)
            prefix, cells = joint_codes([*columns, anchor], n)
            for b, mask in others:
                table = self._counts(prefix, b, cells).reshape(*levels, anchor[1], codes(b)[1])
                table.flags.writeable = False
                self._stored[mask] = ({v: i for i, v in enumerate((*s, a, b))}, table)

    def _counts(self, code: np.ndarray, y: str, n_cells: int) -> np.ndarray:
        """One row scan: the counts of the cells of ``code`` over ``n_cells``
        cells, with ``y``'s codes folded in last."""
        ys, ny = self.data.codes(y)
        flat = np.multiply(code, ny, out=self._flat)
        flat += ys
        return np.bincount(flat, minlength=n_cells * ny)

    def _scored(self, blocks: list[np.ndarray]) -> list[CITestResult]:
        """The tests of tables shaped ``(nx, ny, strata)``, in one pass.

        The tables' strata are laid side by side in one zero-padded
        ``(nx, ny, strata)`` block, so stratum, row and column sums are
        exact integer sums over its axes, and every step of the statistic
        but the last sum is elementwise, as for a lone table.  Padding
        cells are empty, so masked out; a table's own cells keep their C
        order, so a stable sort of the terms by table gives each its own
        run, which one ``np.add.reduce`` sums in a lone table's order
        (``np.add.reduceat`` sums in another)."""
        add = np.add.reduce
        shapes = [block.shape for block in blocks]
        if len(blocks) == 1:
            counts = blocks[0]
        elif len({shape[:2] for shape in shapes}) == 1:
            counts = np.concatenate(blocks, axis=2)
        else:
            nx, ny = max(a for a, _, _ in shapes), max(b for _, b, _ in shapes)
            counts = np.zeros((nx, ny, sum(w for *_, w in shapes)), np.int64)
            lo = 0
            for block, (a, b, w) in zip(blocks, shapes):
                counts[:a, :b, lo : lo + w] = block
                lo += w
        per_stratum = add(counts, axis=(0, 1))
        row = add(counts, axis=1, keepdims=True)
        col = add(counts, axis=0, keepdims=True)
        mask = counts > 0
        ratio = (counts * per_stratum)[mask] / (row * col)[mask]
        terms = counts[mask] * np.log(ratio)
        if len(blocks) == 1:
            ends, strata = [len(terms)], [np.count_nonzero(per_stratum)]
        else:
            owner = np.repeat(np.arange(len(blocks)), [w for *_, w in shapes])
            which = owner[np.flatnonzero(mask) % counts.shape[2]]
            terms = terms[np.argsort(which, kind="stable")]
            ends = list(accumulate(np.bincount(which, minlength=len(blocks)).tolist()))
            strata = np.bincount(owner[per_stratum > 0], minlength=len(blocks)).tolist()
        statistics = [
            max(0.0, 2.0 * float(add(terms[start:end]))) for start, end in zip([0, *ends], ends)
        ]
        dofs = [(a - 1) * (b - 1) * k for (a, b, _), k in zip(shapes, strata)]
        p_values = special.chdtrc(dofs, statistics).tolist()
        n = self.data.n
        return [
            CITestResult(p if dof > 0 else 1.0, statistic, dof, self.name, low_power=n < 5 * dof)
            for p, statistic, dof in zip(p_values, statistics, dofs)
        ]


class FisherZBackend:
    """Partial-correlation z-test; valid for all-continuous queries only.
    Queries of one conditioning-set size share one stacked ``pinv``, which
    runs the same SVD and cutoff on each block as alone."""

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

    def compute(self, keys: list[QueryKey]) -> list[CITestResult]:
        """The test of each key, bitwise as if asked alone, with one stacked
        ``pinv`` per block size."""
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
        self._continuous_names = frozenset(v.name for v in data.schema if not v.is_discrete)

    def compute(self, keys: list[QueryKey]) -> list[CITestResult]:
        """The all-continuous keys in one z-test batch, the rest in one
        G-test batch; a sub-backend is called only for a non-empty part."""
        tables, continuous = [], []
        for key in keys:
            (continuous if self._continuous(*key) else tables).append(key)
        results = {}
        if tables:
            results.update(zip(tables, self._gtest.compute(tables)))
        if continuous:
            results.update(zip(continuous, self._z().compute(continuous)))
        return [results[key] for key in keys]

    def _continuous(self, x: str, y: str, s: tuple[str, ...]) -> bool:
        """Are all of the key's variables continuous?  An unknown name is
        not, so the G-test raises ``MissingColumn`` for it."""
        names = self._continuous_names
        return x in names and y in names and names.issuperset(s)

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

    def compute(self, keys: list[QueryKey]) -> list[CITestResult]:
        return [
            CITestResult(1.0, 0.0, 0, self.name) if d_sep(self.graph, x, y, s)
            else CITestResult(0.0, math.inf, 0, self.name)
            for x, y, s in keys
        ]


class InjectedBackend:
    """Returns exactly the p-values injected at construction time."""

    name = BACKEND_INJECTED

    def __init__(self, table: dict[QueryKey, float]):
        self.table = table

    @classmethod
    def from_entries(cls, entries) -> "InjectedBackend":
        """Build from an iterable of mappings with keys ``x``, ``y``, ``p`` and
        an optional ``s``.  Raises ``ValueError`` for an entry that is not a
        mapping, a missing or unknown key, a name that is not a string, ``s``
        given as a bare string, a p-value that is not a number in [0, 1], or a
        query given twice."""
        table: dict[QueryKey, float] = {}
        for entry in entries:
            keys = entry.keys() if isinstance(entry, dict) else set()
            if not {"x", "y", "p"} <= keys <= {"x", "y", "s", "p"}:
                raise ValueError(f"injected entry needs keys x, y, p and optional s: {entry!r}")
            entry = (entry["x"], entry["y"], entry.get("s", ()), entry["p"])
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

    def compute(self, keys: list[QueryKey]) -> list[CITestResult]:
        """The injected result of each key; the first key with none raises
        ``UninjectedQuery``."""
        for key in keys:
            if key not in self.table:
                raise UninjectedQuery(f"no injected p-value for {key!r}")
        return [CITestResult(self.table[key], 0.0, 0, self.name) for key in keys]


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
        return self._results([canonical_key(x, y, s)])[0]

    def p_values(self, x: str, queries) -> list[float]:
        """``[test(x, y, s).p_value for y, s in queries]``, asked as one round:
        every query is checked and canonicalized first, then ``ask``-ed."""
        return self.ask([canonical_key(x, y, s) for y, s in queries])

    def ask(self, keys: list[QueryKey]) -> list[float]:
        """The p-values of ``keys``, which must be canonical already (as
        ``canonical_key`` returns them), asked as one round.

        A round of one is a ``test``.  Otherwise the trace entries and cache
        counts are those of the one-by-one calls, and the uncached keys,
        which may belong to different pairs, go to one
        ``backend.compute(keys)`` in query order.
        """
        if len(keys) == 1:
            return [self.test(*keys[0]).p_value]
        return [result.p_value for result in self._results(keys)]

    def _results(self, keys: list[QueryKey]) -> list[CITestResult]:
        """Trace and look up ``keys`` as one round, computing the uncached."""
        if self._trace is not None:
            self._trace.extend(keys)
        found, missing = self.cache.lookup_many(keys)
        if missing:
            for key, result in zip(missing, self.backend.compute(missing)):
                self.cache.store(key, result)
                found[key] = result
        return [found[key] for key in keys]

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
