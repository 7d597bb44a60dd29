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
"""

from __future__ import annotations

from dataclasses import dataclass

from .citest import DEFAULT_ALPHA, DEFAULT_MAX_COND, CIEngine, check_settings
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
        check_settings(alpha, m_ci)
        self.target = target
        self.engine = engine
        self.alpha = alpha
        self.m_ci = m_ci
        self.order = tuple(v for v in variables if v != target)
        self.rank = {v: i for i, v in enumerate(self.order)}
        self.memo: dict[tuple[str, ...], frozenset[str]] = {}
        self.expanded = 0

    def _dependent(self, other: str, cond) -> bool:
        return self.engine.p_value(self.target, other, cond) <= self.alpha

    def extensions(self, s: tuple[str, ...]) -> tuple[str, ...]:
        """Variables that can extend the admissible set ``s``, in rank order.

        Reads the extension sets of the leave-one-out subsets of ``s`` from
        the memo, so every one of them must have been examined first, as
        ``run`` does; their intersection, restricted to variables after the
        last member, bounds the result.
        """
        drops = [s[:i] + s[i + 1 :] for i in range(len(s))]
        if not s:
            candidates = self.order
        else:
            upper = frozenset.intersection(*(self.memo[d] for d in drops))
            later = self.order[self.rank[s[-1]] + 1 :]
            candidates = tuple(t for t in later if t in upper)
        if len(s) > self.m_ci:
            result = candidates
        else:
            # Every candidate's first test in one batch; the leave-one-out
            # tests stay lazy, since ``all`` stops at the first that fails.
            first = self.engine.p_values(self.target, [(t, s) for t in candidates])
            result = tuple(
                t
                for t, p in zip(candidates, first)
                if p <= self.alpha
                and all(self._dependent(v, d + (t,)) for v, d in zip(s, drops))
            )
        self.memo[s] = frozenset(result)
        return result

    def run(self) -> NeighborhoodFamily:
        """Expand sets level by level and keep the maximal terminal ones.

        Each set is made once, from the set without its last member, so the
        levels and the terminal sets, hence the family, come in rank order.
        """
        terminal: list[tuple[str, ...]] = []
        level: list[tuple[str, ...]] = [()]
        while level:
            next_level: list[tuple[str, ...]] = []
            for s in level:
                assert s not in self.memo, "a candidate set was scheduled twice"
                self.expanded += 1
                if self.expanded > BUDGET:
                    raise BudgetExceeded(
                        f"{self.target}: more than {BUDGET} candidate sets expanded"
                    )
                ext = self.extensions(s)
                if ext:
                    next_level.extend(s + (t,) for t in ext)
                else:
                    terminal.append(s)
            level = next_level
        sets = [frozenset(s) for s in terminal]
        family = tuple(
            s
            for i, s in enumerate(terminal)
            if not any(sets[i] < later for later in sets[i + 1 :])
        )
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
