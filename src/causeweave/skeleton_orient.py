"""Skeleton assembly and edge orientation into a partially directed graph.

The skeleton keeps an edge between two vertices when either one selected
the other as a neighbor.  Orientation then proceeds in three stages:

1. prior knowledge (tier ranks, required and forbidden directions),
2. collider detection on unshielded triples, using for every non-adjacent
   pair the stored separating set with the largest p-value; colliders that
   disagree on a shared edge are resolved globally in favor of the one
   whose separating set has the larger p-value,
3. two propagation rules applied to a fixed point: an undirected edge
   whose endpoints are already joined by a directed path follows that
   path, and an undirected edge into the open side of an unshielded
   directed pair points away from it.

A directed cycle is never committed at any stage, and forbidden directions
are never produced.
"""

from __future__ import annotations

import json
import logging
import re
from collections.abc import Collection, Mapping
from dataclasses import dataclass, field
from pathlib import Path

from .citest import (
    DEFAULT_ALPHA, DEFAULT_MAX_COND, CIEngine, Pair, check_settings, pair_key, topological_order
)
from .dataset import read_json
from .errors import PriorKnowledgeCycle, UnknownVertex
from .forward import forward_step
from .maximize import NeighborSelection, SeparationRecord, best_record, maximization_step

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PriorKnowledge:
    """Orientation constraints: tier ranks plus explicit edge directions.

    A lower tier may cause a higher tier, never the reverse.  ``forbidden``
    directions are never produced; ``required`` pairs are oriented as given
    whenever the skeleton contains the edge.  Construction raises
    ``ValueError`` unless ``tiers`` maps names to non-negative integers
    (bools refused) and ``forbidden`` and ``required`` are collections of
    two-string pairs (a bare string refused) with no pair in both and no
    forbidden direction that is the only one the tiers allow, and
    ``PriorKnowledgeCycle`` when the required edges and the tier order are
    jointly cyclic.
    """

    tiers: dict[str, int] = field(default_factory=dict)
    forbidden: frozenset[Pair] = frozenset()
    required: frozenset[Pair] = frozenset()

    def __post_init__(self) -> None:
        if not isinstance(self.tiers, Mapping):
            raise ValueError("prior tiers must map names to integers")
        # A private copy: editing the caller's dict later cannot bypass the checks.
        object.__setattr__(self, "tiers", dict(self.tiers))
        for name, tier in self.tiers.items():
            if not (isinstance(name, str) and type(tier) is int and tier >= 0):
                raise ValueError(f"tier of {name!r} must be a non-negative integer, got {tier!r}")
        for key in ("forbidden", "required"):
            pairs = getattr(self, key)
            if isinstance(pairs, str) or not isinstance(pairs, Collection) or not all(
                isinstance(p, (tuple, list)) and len(p) == 2 and all(isinstance(v, str) for v in p)
                for p in pairs
            ):
                raise ValueError(f"prior {key} must be a collection of [name, name] pairs")
            object.__setattr__(self, key, frozenset(map(tuple, pairs)))
        overlap = self.required & self.forbidden
        if overlap:
            raise ValueError(f"directions both required and forbidden: {sorted(overlap)}")
        self.check_consistent()

    @classmethod
    def from_json(cls, path: str | Path) -> "PriorKnowledge":
        """Read ``{"tiers": {name: int}, "forbidden": [[a, b]], "required":
        [[a, b]]}`` (see ``dataset.read_json``), every key optional.  Raises
        ``ValueError`` for another JSON type, an unknown key or a value
        construction refuses."""
        raw = read_json(path, dict, ValueError, "prior file must contain a JSON object")
        unknown = set(raw) - {"tiers", "forbidden", "required"}
        if unknown:
            raise ValueError(f"prior file has unknown keys {sorted(unknown)!r}")
        return cls(**raw)

    def check_consistent(self) -> None:
        """Raise ``ValueError`` when a forbidden direction is the only one
        the tiers allow, so the edge could be oriented neither way, and
        ``PriorKnowledgeCycle`` when the required edges and the tier order
        (an edge from every tiered name to every name of a higher tier) are
        jointly cyclic."""
        tiered = self.tiers.items()
        edges = {(a, b) for a, ta in tiered for b, tb in tiered if ta < tb}
        against = sorted(self.forbidden & edges)
        if against:
            a, b = against[0]
            raise ValueError(
                f"forbidden {a!r}->{b!r} leaves no direction for {a!r}-{b!r}: "
                f"the tiers forbid {b!r}->{a!r}"
            )
        edges.update(self.required)
        names = set(self.tiers).union(*self.required)
        left = names.difference(topological_order(names, edges))
        if left:
            raise PriorKnowledgeCycle(
                f"required edges and tiers are cyclic; no order places {sorted(left)!r}"
            )

    def check(self, vertices) -> None:
        """Raise ``UnknownVertex`` when the prior names a vertex outside
        ``vertices``.  Consistency was checked at construction."""
        unknown = set(self.tiers).union(*self.required, *self.forbidden) - set(vertices)
        if unknown:
            raise UnknownVertex(f"prior knowledge names unknown vertices {sorted(unknown)!r}")

    def allows(self, a: str, b: str) -> bool:
        """May an edge be directed a -> b under these constraints?"""
        if (a, b) in self.forbidden or (b, a) in self.required:
            return False
        ta, tb = self.tiers.get(a), self.tiers.get(b)
        return ta is None or tb is None or ta <= tb


# The rows of each graph JSON key, field by field, and what each field holds.
_JSON_ROWS = {
    "directed": ("name", "name"),
    "undirected": ("name", "name"),
    "significance": ("name", "name", "p"),
    "sepsets": ("name", "name", "names", "p"),
}
_JSON_FIELD = {
    "name": lambda v: isinstance(v, str),
    "names": lambda v: isinstance(v, list) and all(isinstance(u, str) for u in v),
    "p": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}


@dataclass
class Cpdag:
    """Mixed graph: directed and undirected edges over a fixed vertex set.

    ``edge_significance`` maps present edges (canonical pairs) to the
    minimax connection p-value; ``sepsets`` maps non-adjacent pairs to
    their best separating set.
    """

    vertices: tuple[str, ...]
    directed: set[Pair] = field(default_factory=set)
    undirected: set[Pair] = field(default_factory=set)
    edge_significance: dict[Pair, float] = field(default_factory=dict)
    sepsets: dict[Pair, SeparationRecord] = field(default_factory=dict)

    def __post_init__(self) -> None:
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertices")
        self.undirected = {pair_key(a, b) for a, b in self.undirected}
        for a, b in self.directed | self.undirected:
            if a not in vset or b not in vset:
                raise UnknownVertex(f"edge ({a!r}, {b!r}) references unknown vertex")
        self.validate()

    def validate(self) -> None:
        dir_pairs = {pair_key(a, b) for a, b in self.directed}
        if dir_pairs & self.undirected:
            raise ValueError("edge present both directed and undirected")
        if any((b, a) in self.directed for a, b in self.directed):
            raise ValueError("edge directed both ways")
        if not self.is_acyclic():
            raise ValueError("directed part contains a cycle")
        present = self.skeleton_pairs()
        stray = set(self.edge_significance) - present
        if stray:
            raise ValueError(f"significance recorded for absent edges: {sorted(stray)}")
        for p in self.edge_significance.values():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"edge significance out of range: {p}")
        vset = set(self.vertices)
        for (a, b), rec in self.sepsets.items():
            if a == b or a not in vset or b not in vset:
                raise ValueError(f"sepset for ({a!r}, {b!r}), not a pair of graph vertices")
            if (a, b) in present or (b, a) in present:
                raise ValueError(f"sepset recorded for adjacent pair ({a!r}, {b!r})")
            if any(v in (a, b) or v not in vset for v in rec.witness):
                raise ValueError(
                    f"sepset of ({a!r}, {b!r}) has witness {list(rec.witness)!r} naming "
                    "an endpoint or an unknown vertex"
                )
            if not 0.0 <= rec.p_value <= 1.0:
                raise ValueError(f"sepset p-value out of range: {rec.p_value}")

    # -- structure queries -------------------------------------------------

    def skeleton_pairs(self) -> set[Pair]:
        return {pair_key(a, b) for a, b in self.directed} | set(self.undirected)

    def has_edge(self, a: str, b: str) -> bool:
        return pair_key(a, b) in self.undirected or (a, b) in self.directed or (b, a) in self.directed

    def adjacent(self, v: str) -> set[str]:
        return {b if a == v else a for a, b in self.directed | self.undirected if v in (a, b)}

    def children(self, v: str) -> set[str]:
        return {b for a, b in self.directed if a == v}

    def parents(self, v: str) -> set[str]:
        return {a for a, b in self.directed if b == v}

    def has_directed_path(self, src: str, dst: str) -> bool:
        stack, seen = [src], {src}
        while stack:
            v = stack.pop()
            for c in self.children(v):
                if c == dst:
                    return True
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return False

    def is_acyclic(self) -> bool:
        return len(topological_order(self.vertices, self.directed)) == len(self.vertices)

    def copy(self) -> "Cpdag":
        return Cpdag(
            vertices=self.vertices,
            directed=set(self.directed),
            undirected=set(self.undirected),
            edge_significance=dict(self.edge_significance),
            sepsets=dict(self.sepsets),
        )

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "directed": sorted(map(list, self.directed)),
            "undirected": sorted(map(list, self.undirected)),
            "significance": [
                [a, b, self.edge_significance[(a, b)]]
                for a, b in sorted(self.edge_significance)
            ],
            "sepsets": [
                [a, b, list(rec.witness), rec.p_value]
                for (a, b), rec in sorted(self.sepsets.items())
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Cpdag":
        """Parse :meth:`to_json` output.  Raises ``ValueError`` unless the
        document is an object with a ``vertices`` array of names, no other
        keys than ``to_json`` writes, and rows of the shape it writes: names
        where names go, a number for a p-value and an array of names (never a
        bare string) for a witness."""
        obj = json.loads(text)
        if not isinstance(obj, dict) or not _JSON_FIELD["names"](obj.get("vertices")):
            raise ValueError("graph JSON must be an object with a vertices array of names")
        unknown = set(obj) - {"vertices", *_JSON_ROWS}
        if unknown:
            raise ValueError(f"graph JSON has unknown keys {sorted(unknown)!r}")
        for key, shape in _JSON_ROWS.items():
            rows = obj.get(key, [])
            if not isinstance(rows, list) or not all(
                isinstance(r, list) and len(r) == len(shape)
                and all(_JSON_FIELD[c](v) for c, v in zip(shape, r))
                for r in rows
            ):
                raise ValueError(f"graph {key} must be an array of [{', '.join(shape)}] rows")
        return cls(
            vertices=tuple(obj["vertices"]),
            directed={(a, b) for a, b in obj.get("directed", [])},
            undirected={(a, b) for a, b in obj.get("undirected", [])},
            edge_significance={
                pair_key(a, b): float(p) for a, b, p in obj.get("significance", [])
            },
            sepsets={
                pair_key(a, b): SeparationRecord(p_value=float(p), witness=tuple(w))
                for a, b, w, p in obj.get("sepsets", [])
            },
        )

    def to_dot(self) -> str:
        """DOT text; a name is quoted, with ``\\`` and ``"`` escaped."""
        q = {v: '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"' for v in self.vertices}
        lines = ["digraph learned {"]
        for v in self.vertices:
            lines.append(f"  {q[v]};")
        for a, b in sorted(self.directed):
            lines.append(f"  {q[a]} -> {q[b]}{self._dot_attr(a, b)};")
        for a, b in sorted(self.undirected):
            lines.append(f"  {q[a]} -- {q[b]}{self._dot_attr(a, b)};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def _dot_attr(self, a: str, b: str) -> str:
        p = self.edge_significance.get(pair_key(a, b))
        return f" [pvalue={p!r}]" if p is not None else ""


_DOT_NAME = r'"((?:[^"\\]|\\.)+)"'  # a quoted name; \\ and \" are escapes
_DOT_EDGE = re.compile(
    rf"^\s*{_DOT_NAME}\s*(->|--)\s*{_DOT_NAME}\s*(?:\[pvalue=([^\]]+)\])?\s*;\s*$"
)
_DOT_VERTEX = re.compile(rf"^\s*{_DOT_NAME}\s*;\s*$")


def _dot_unquote(name: str) -> str:
    """Undo ``to_dot``'s escapes; any other backslash is kept as it is."""
    return re.sub(r'\\([\\"])', r"\1", name)


def cpdag_from_dot(text: str) -> Cpdag:
    """Parse the DOT dialect emitted by :meth:`Cpdag.to_dot`."""
    vertices: list[str] = []
    directed: set[Pair] = set()
    undirected: set[Pair] = set()
    significance: dict[Pair, float] = {}

    def note(v: str) -> None:
        if v not in vertices:
            vertices.append(v)

    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith(("digraph", "graph", "}")):
            continue
        m = _DOT_EDGE.match(line)
        if m:
            a, op, b, p = m.groups()
            a, b = _dot_unquote(a), _dot_unquote(b)
            note(a)
            note(b)
            if op == "->":
                directed.add((a, b))
            else:
                undirected.add(pair_key(a, b))
            if p is not None:
                significance[pair_key(a, b)] = float(p)
            continue
        m = _DOT_VERTEX.match(line)
        if m:
            note(_dot_unquote(m.group(1)))
            continue
        raise ValueError(f"unparseable DOT line: {line!r}")
    return Cpdag(
        vertices=tuple(vertices),
        directed=directed,
        undirected=undirected,
        edge_significance=significance,
    )


# -- skeleton ---------------------------------------------------------------


def build_skeleton(selections: dict[str, NeighborSelection]) -> Cpdag:
    """Undirected graph keeping an edge when either endpoint chose the other.

    Equivalently, starting from the complete graph the edge x-y is deleted
    only when x is not among y's neighbors and y is not among x's.
    """
    vertices = tuple(selections)
    undirected = set()
    for i, x in enumerate(vertices):
        for y in vertices[i + 1 :]:
            if y in selections[x].neighbors or x in selections[y].neighbors:
                undirected.add(pair_key(x, y))
    return Cpdag(vertices=vertices, undirected=undirected)


def edge_significance(x: str, y: str, selections: dict[str, NeighborSelection]) -> float:
    """Connection strength of edge x-y: the smaller of the two endpoints'
    best separating p-values (small means no subset separates the pair),
    read from ``selections[x].separation[y]`` and ``selections[y].separation[x]``."""
    return min(selections[x].separation[y].p_value, selections[y].separation[x].p_value)


def compute_sepsets(
    skeleton: Cpdag, selections: dict[str, NeighborSelection]
) -> dict[Pair, SeparationRecord]:
    """The graph's ``sepsets``, one record per non-adjacent pair x-y: the
    :func:`best_record` of ``selections[x].separation[y]`` and
    ``selections[y].separation[x]``, each searched in that endpoint's chosen
    neighborhood."""
    out: dict[Pair, SeparationRecord] = {}
    verts = skeleton.vertices
    for i, x in enumerate(verts):
        for y in verts[i + 1 :]:
            if not skeleton.has_edge(x, y):
                a, b = selections[x].separation[y], selections[y].separation[x]
                out[pair_key(x, y)] = best_record((a.p_value, b.p_value), (a.witness, b.witness))
    return out


# -- orientation ------------------------------------------------------------


def _commit(g: Cpdag, a: str, b: str, pk: PriorKnowledge, why: str) -> bool:
    """Direct edge a -> b if permitted and cycle-free; report success."""
    key = pair_key(a, b)
    if key not in g.undirected:
        return False
    if not pk.allows(a, b):
        logger.debug("skip %s -> %s (%s): forbidden by prior knowledge", a, b, why)
        return False
    if g.has_directed_path(b, a):
        logger.info("skip %s -> %s (%s): would close a directed cycle", a, b, why)
        return False
    g.undirected.discard(key)
    g.directed.add((a, b))
    return True


def orient(graph: Cpdag, pk: PriorKnowledge | None) -> Cpdag:
    """Orient a copy of ``graph`` into a partially directed acyclic graph.

    Stages: prior knowledge, then colliders read from ``graph.sepsets``
    (globally resolved by descending separating p-value; a collider
    contradicting prior knowledge or an already-committed opposite arrow is
    dropped), then the two propagation rules to a fixed point.  Skeleton
    edges are never added or removed, only directed.  A prior that names a
    vertex the graph does not have raises ``UnknownVertex``.
    """
    pk = pk if pk is not None else PriorKnowledge()
    pk.check(graph.vertices)
    g = graph.copy()

    for a, b in sorted(g.undirected):
        fwd, rev = pk.allows(a, b), pk.allows(b, a)
        if fwd != rev:
            u, v = (a, b) if fwd else (b, a)
            if not _commit(g, u, v, pk, "prior knowledge") and (u, v) in pk.required:
                raise PriorKnowledgeCycle(f"required edge {u!r}->{v!r} cannot be committed")

    candidates = []
    for z in g.vertices:
        near = sorted(g.adjacent(z))
        for i, a in enumerate(near):
            for b in near[i + 1 :]:
                if g.has_edge(a, b):
                    continue
                rec = g.sepsets.get(pair_key(a, b))
                if rec is None or z in rec.witness:
                    continue
                candidates.append((rec.p_value, a, z, b))
    # Larger separating p-value wins conflicts; remaining keys fix the scan order.
    candidates.sort(key=lambda t: (-t[0], t[1], t[2], t[3]))
    for p_value, a, z, b in candidates:
        arms = ((a, z), (b, z))
        if any(not pk.allows(u, v) for u, v in arms):
            logger.debug("collider %s->%s<-%s dropped: prior knowledge", a, z, b)
            continue
        if any((v, u) in g.directed for u, v in arms):
            logger.debug("collider %s->%s<-%s dropped: conflicts with earlier arrow", a, z, b)
            continue
        todo = [(u, v) for u, v in arms if (u, v) not in g.directed]
        if any(g.has_directed_path(z, u) for u, _ in todo):
            logger.info("collider %s->%s<-%s skipped: would close a cycle", a, z, b)
            continue
        for u, v in todo:
            _commit(g, u, v, pk, f"collider p={p_value}")

    changed = True
    while changed:
        changed = False
        for a, b in sorted(g.undirected):
            if g.has_directed_path(a, b):
                changed |= _commit(g, a, b, pk, "directed path")
            elif g.has_directed_path(b, a):
                changed |= _commit(g, b, a, pk, "directed path")
        for key in sorted(g.undirected):
            for z, y in (key, key[::-1]):
                x = next((p for p in sorted(g.parents(z)) if p != y and not g.has_edge(p, y)), None)
                if x is not None and _commit(g, z, y, pk, f"unshielded {x}->{z}"):
                    changed = True
                    break

    g.validate()
    return g


# -- end-to-end learner ------------------------------------------------------


def checked_variables(variables, prior: PriorKnowledge | None) -> list[str]:
    """``variables`` as a list; raises ``ValueError`` for a name given twice,
    and as ``PriorKnowledge.check_consistent`` and ``check`` do for ``prior``."""
    variables = list(variables)
    if len(set(variables)) != len(variables):
        repeated = sorted({v for v in variables if variables.count(v) > 1})
        raise ValueError(f"variables named more than once: {repeated!r}")
    if prior is not None:
        prior.check_consistent()  # again: refuse one altered since construction
        prior.check(variables)
    return variables


def learn_structure(
    variables,
    engine: CIEngine,
    alpha: float = DEFAULT_ALPHA,
    m_ci: int = DEFAULT_MAX_COND,
    prior: PriorKnowledge | None = None,
) -> Cpdag:
    """Two-step neighborhood discovery for every vertex, then orientation.

    ``variables`` fixes both the vertex set and the enumeration order used
    by the per-target searches.  The returned graph carries per-edge
    connection p-values and per-non-adjacent-pair separating sets.  A repeated
    variable, a bad ``prior``, ``alpha`` outside (0, 1) or ``m_ci`` below 1
    raises before the first CI test.
    """
    variables = checked_variables(variables, prior)
    check_settings(alpha, m_ci)
    selections: dict[str, NeighborSelection] = {}
    for x in variables:
        family = forward_step(x, variables, engine, alpha=alpha, m_ci=m_ci)
        selections[x] = maximization_step(x, family, variables, engine, m_ci=m_ci)
    skeleton = build_skeleton(selections)
    skeleton.sepsets = compute_sepsets(skeleton, selections)
    skeleton.edge_significance = {
        pair: edge_significance(pair[0], pair[1], selections)
        for pair in sorted(skeleton.skeleton_pairs())
    }
    return orient(skeleton, prior)
