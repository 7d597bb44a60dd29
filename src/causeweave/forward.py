"""Forward enumeration of candidate parent-children sets for one target.

For a target X and an enumeration order T1..Tp-1 over the remaining
variables, a candidate set N is *admissible* when every member stays
dependent on X given every subset of the other members.  Admissibility is
hereditary (subsets of admissible sets are admissible), so the search
expands sets one higher-indexed variable at a time and only ever grows
sets that are still admissible.

The extension set of an admissible S is computed incrementally: the
intersection of the extension sets of all leave-one-out subsets of S is an
upper bound, and membership is settled with tests conditioned on exactly
|S| variables.  Consequently no conditional-independence query is issued
twice within one search.  Above the conditioning-size cap the upper bound
itself is used as the extension set (no further testing).

The search returns the admissible sets that could not be extended,
filtered down to the ones that are maximal under inclusion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .citest import DEFAULT_ALPHA, DEFAULT_MAX_COND, CIEngine
from .errors import BudgetExceeded

# Candidate sets one search may expand before it raises ``BudgetExceeded``.
BUDGET = 10**6


@dataclass(frozen=True)
class NeighborhoodFamily:
    """All maximal admissible candidate sets found for one target, each a
    tuple of members in enumeration order; the family is sorted by
    (size, member ranks)."""

    target: str
    family: tuple[tuple[str, ...], ...]


class ForwardSearch:
    """Search state for a single target: enumeration order plus extension memo.

    The memo keeps the extension set of every set examined so far, which is
    exactly what the leave-one-out intersection needs; it lives only as long
    as the per-target search.
    """

    def __init__(
        self,
        target: str,
        variables,
        engine: CIEngine,
        alpha: float = DEFAULT_ALPHA,
        m_ci: int = DEFAULT_MAX_COND,
    ):
        variables = list(variables)
        if target not in variables:
            raise ValueError(f"target {target!r} not among variables")
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if m_ci < 1:
            raise ValueError(f"conditioning cap must be >= 1, got {m_ci}")
        self.target = target
        self.engine = engine
        self.alpha = alpha
        self.m_ci = m_ci
        self.order = tuple(v for v in variables if v != target)
        self.rank = {v: i for i, v in enumerate(self.order)}
        self.memo: dict[frozenset[str], frozenset[str]] = {}
        self.expanded = 0

    def _dependent(self, other: str, cond) -> bool:
        return self.engine.p_value(self.target, other, cond) <= self.alpha

    def _sorted(self, s) -> list[str]:
        return sorted(s, key=self.rank.__getitem__)

    def extensions(self, s: frozenset[str]) -> frozenset[str]:
        """Variables that can extend the admissible set ``s``.

        Reads the extension sets of the leave-one-out subsets of ``s`` from
        the memo, so every one of them must have been examined first, as
        ``run`` does; their intersection, restricted to variables after the
        highest-ranked member, bounds the result.
        """
        members = self._sorted(s)
        if not s:
            candidates = list(self.order)
        else:
            upper = frozenset.intersection(*(self.memo[s - {v}] for v in members))
            later = self.order[self.rank[members[-1]] + 1 :]
            candidates = [t for t in later if t in upper]
        if len(s) > self.m_ci:
            result = frozenset(candidates)
        else:
            # Every candidate's first test in one batch; the leave-one-out
            # tests stay lazy, since ``all`` stops at the first that fails.
            first = self.engine.p_values(self.target, [(t, members) for t in candidates])
            result = frozenset(
                t
                for t, p in zip(candidates, first)
                if p <= self.alpha
                and all(
                    self._dependent(drop, self._sorted((s - {drop}) | {t})) for drop in members
                )
            )
        self.memo[s] = result
        return result

    def run(self) -> NeighborhoodFamily:
        """Expand sets level by level and keep the maximal terminal ones."""
        terminal: list[frozenset[str]] = []
        level: list[frozenset[str]] = [frozenset()]
        seen: set[frozenset[str]] = set()
        while level:
            next_level: list[frozenset[str]] = []
            for s in sorted(level, key=lambda s_: tuple(self.rank[v] for v in self._sorted(s_))):
                assert s not in seen, "a candidate set was scheduled twice"
                seen.add(s)
                self.expanded += 1
                if self.expanded > BUDGET:
                    raise BudgetExceeded(
                        f"{self.target}: more than {BUDGET} candidate sets expanded"
                    )
                ext = self.extensions(s)
                if ext:
                    next_level.extend(s | {t} for t in ext)
                else:
                    terminal.append(s)
            level = next_level
        family = [tuple(self._sorted(s)) for s in _maximal(terminal)]
        family.sort(key=lambda c: (len(c), tuple(self.rank[v] for v in c)))
        return NeighborhoodFamily(target=self.target, family=tuple(family))


def _maximal(sets: list[frozenset[str]]) -> list[frozenset[str]]:
    """Drop every set that is a proper subset of another set in the list."""
    kept: list[frozenset[str]] = []
    for s in sorted(sets, key=len, reverse=True):
        if not any(s < other for other in kept):
            kept.append(s)
    return kept


def forward_step(
    target: str,
    variables,
    engine: CIEngine,
    alpha: float = DEFAULT_ALPHA,
    m_ci: int = DEFAULT_MAX_COND,
) -> NeighborhoodFamily:
    """All maximal admissible candidate neighborhoods of ``target``.

    ``variables`` fixes the enumeration order.
    """
    return ForwardSearch(target, variables, engine, alpha=alpha, m_ci=m_ci).run()
