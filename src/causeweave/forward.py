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

Each candidate set is a tuple of its members in enumeration order.  A set
only ever grows by a variable ranked after its last member, so it is made
exactly once, from the set without its last member.  Every level then
comes out in (member ranks) order, and so do the sets that cannot be
extended; the maximal ones among them form the family, in that order.

A whole level is asked in rounds: first every candidate's test given its
set, then, round by round, the next leave-one-out test of every candidate
that passed all of its earlier ones.  Each round is one ``CIEngine.ask``
of the queries' keys, built canonical, so the backend answers its uncached
queries in one ``compute``; a round of one is a ``CIEngine.test``.  The
learner has checked the variables and settings; the search does not.
"""

from __future__ import annotations

from dataclasses import dataclass

from .citest import DEFAULT_ALPHA, DEFAULT_MAX_COND, CIEngine, pair_key
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
        self.target = target
        self.engine = engine
        self.alpha = alpha
        self.m_ci = m_ci
        self.order = tuple(v for v in variables if v != target)
        self.rank = {v: i for i, v in enumerate(self.order)}
        self.memo: dict[tuple[str, ...], frozenset[str]] = {}
        self.expanded = 0

    def extensions(self, level: list[tuple[str, ...]]) -> list[tuple[str, ...]]:
        """The variables that can extend each set of ``level`` (admissible
        sets of one size), each in rank order.

        A set's bound is the intersection of its leave-one-out subsets'
        extension sets in the memo (so ``run`` examines the previous level
        first), restricted to variables after its last member.  Round 0
        asks every candidate's first test; round d asks the d-th
        leave-one-out test of each candidate that passed every earlier one,
        as ``all`` would, so the queries are those of a search that asks one
        candidate at a time.
        """
        bounds = []
        for s in level:
            if not s:
                bounds.append(self.order)
                continue
            drops = (s[:i] + s[i + 1 :] for i in range(len(s)))
            upper = frozenset.intersection(*(self.memo[d] for d in drops))
            later = self.order[self.rank[s[-1]] + 1 :]
            bounds.append(tuple(t for t in later if t in upper))
        size = len(level[0])
        if size > self.m_ci:
            results = bounds
        else:
            alive = [(s, t) for s, bound in zip(level, bounds) for t in bound]
            for d in range(size + 1):
                if not alive:
                    break
                queries = [
                    (t, s) if d == 0 else (s[d - 1], s[: d - 1] + s[d:] + (t,))
                    for s, t in alive
                ]
                p_values = self.engine.ask(
                    [(*pair_key(self.target, y), tuple(sorted(c))) for y, c in queries]
                )
                alive = [c for c, p in zip(alive, p_values) if p <= self.alpha]
            accepted: dict[tuple[str, ...], list[str]] = {s: [] for s in level}
            for s, t in alive:
                accepted[s].append(t)
            results = [tuple(accepted[s]) for s in level]
        for s, result in zip(level, results):
            self.memo[s] = frozenset(result)
        return results

    def run(self) -> NeighborhoodFamily:
        """Expand sets level by level and keep the maximal terminal ones.

        Each set is made once, from the set without its last member, so the
        levels and the terminal sets, hence the family, come in rank order.
        Every set of a level is counted against the budget before the level
        is asked.
        """
        terminal: list[tuple[str, ...]] = []
        level: list[tuple[str, ...]] = [()]
        while level:
            for s in level:
                assert s not in self.memo, "a candidate set was scheduled twice"
                self.expanded += 1
                if self.expanded > BUDGET:
                    raise BudgetExceeded(
                        f"{self.target}: more than {BUDGET} candidate sets expanded"
                    )
            next_level: list[tuple[str, ...]] = []
            for s, ext in zip(level, self.extensions(level)):
                if ext:
                    next_level.extend(s + (t,) for t in ext)
                else:
                    terminal.append(s)
            level = next_level
        # A terminal set is maximal unless it lies inside a set examined one
        # level up: the memo holds every examined set, and every subset of
        # one, so a terminal superset implies such a set, and such a set
        # (admissible) lies inside a terminal one.
        below = {s[:i] + s[i + 1 :] for s in self.memo for i in range(len(s))}
        family = tuple(s for s in terminal if s not in below)
        return NeighborhoodFamily(target=self.target, family=family)


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
