"""Selection of the best candidate neighborhood by a minimax p-value score.

For a pair (x, y) and a candidate set N, the *separation score* is the
largest p-value of the tests of x against y conditioned on a subset of N
with at most ``m_ci`` members.  Each (y, subset) p-value is asked of the
engine at most once per anchor x.

A candidate's quality is the minimum separation score over all
non-members: a good neighborhood lets some subset of itself separate the
target from everything else.  A score is never below its marginal p-value
(the empty subset is always tested), so the non-members are ranked by
marginal p-value and the lowest is scored first: its score bounds the
minimum, and a non-member whose marginal is at or above that bound can
never lower it and is not scored.  Selection scans candidates with a
running floor, so a hopeless candidate is abandoned on the first
non-member it fails to separate; only a non-member whose marginal is at or
below the floor can stop the scan, so the rest are scored in batches that
each end at such a variable, and nothing after a stop is ever asked.
The winner's scores against every other variable are
kept with the selection; the skeleton reads its p-values and separating
sets from them without testing again.  ``best_record`` is the one rule that
picks a separating set, here, for the sepsets and in PC-stable: the largest
p-value, then the smallest witness.  Arguments are taken as
``learn_structure`` builds them (sets free of the pair, a forward step's
family, never empty) and are not checked again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

from .citest import DEFAULT_MAX_COND, CIEngine, pair_key
from .forward import NeighborhoodFamily

Witness = tuple[str, ...]


class SeparationRecord(NamedTuple):
    """A separation score, the best p-value with the witness subset attaining
    it: selections hold one per other variable, graphs one per sepset."""

    p_value: float
    witness: Witness


def best_record(p_values, witnesses) -> SeparationRecord:
    """The best of the parallel sequences ``p_values`` and ``witnesses``, as
    a record: the largest p-value; on a tie, the smallest witness (the
    first of equal ones).  Witnesses are compared only among ties."""
    best = max(p_values)
    if p_values.count(best) == 1:
        i = p_values.index(best)
    else:
        i = min((w, i) for i, (p, w) in enumerate(zip(p_values, witnesses)) if p == best)[1]
    return SeparationRecord(p_values[i], witnesses[i])


@dataclass(frozen=True)
class NeighborSelection:
    """The winning candidate set for a target as its member tuple, its
    quality and, per other variable ``v``, the score of ``v`` over
    ``chosen - {v}``."""

    target: str
    chosen: tuple[str, ...]
    q_value: float
    separation: dict[str, SeparationRecord] = field(hash=False)

    @property
    def neighbors(self) -> frozenset[str]:
        return frozenset(self.chosen)


class SepComputer:
    """Separation scores for one anchor variable, with shared memoization.

    ``score(other, n)`` is the maximum, over the subsets of ``n`` with at
    most ``m_ci`` members, of the p-value of ``anchor`` against ``other``
    given the subset, as the :func:`best_record` of its p-values and
    subsets.  The p-value of each (other, subset) is asked of the engine at
    most once per computer: ``scores(others, n)`` asks for all of its
    (other, subset) pairs missing from the memo in a single
    ``CIEngine.ask`` round.
    """

    def __init__(self, anchor: str, engine: CIEngine, m_ci: int = DEFAULT_MAX_COND):
        self.anchor = anchor
        self.engine = engine
        self.m_ci = m_ci
        self._p: dict[str, dict[Witness, float]] = {}

    def score(self, other: str, n) -> SeparationRecord:
        return self.scores([other], n)[0]

    def scores(self, others, n) -> list[SeparationRecord]:
        """``[score(other, n) for other in others]``, asked as one round.

        The anchor and each other stay outside ``n``, and the subsets come
        sorted from the sorted ``n``, so each key is built canonical and
        goes straight to ``CIEngine.ask``."""
        n = sorted(set(n))
        sizes = range(min(len(n), self.m_ci) + 1)
        subsets = [sub for size in sizes for sub in combinations(n, size)]
        self._ask(others, n, subsets)
        return [
            best_record(list(map(self._p[other].__getitem__, subsets)), subsets)
            for other in others
        ]

    def marginals(self, others) -> list[float]:
        """The marginal p-value of the anchor against each of ``others``,
        the p-values of ``scores(others, ())``: read from the memo, and the
        missing ones asked as one round."""
        self._ask(others, [], [()])
        return [self._p[other][()] for other in others]

    def _ask(self, others, n: list[str], subsets: list[Witness]) -> None:
        """Put the p-value of every (other, subset) into the memo, asking
        the missing ones as one ``CIEngine.ask`` round in (other, subset)
        order; ``subsets`` are the sorted subsets of the sorted ``n``."""
        keys, slots = [], []
        for other in others:
            memo = self._p.setdefault(other, {})
            x, y = pair_key(self.anchor, other)
            for sub in subsets:
                if sub not in memo:
                    keys.append((x, y, sub))
                    slots.append((memo, sub))
        for (memo, sub), p in zip(slots, self.engine.ask(keys)):
            memo[sub] = p


def q_value(
    computer: SepComputer, n, variables, floor: float = -math.inf
) -> float:
    """Minimum separation score of ``computer.anchor`` against every
    variable outside ``n``, scored by ``computer``.

    Returns positive infinity when there is no outside variable.  The
    others are ranked by (marginal p-value, name) and the first is scored
    alone.  A score is at least its marginal p-value, so the first score
    bounds the minimum: an other whose marginal is at or above it cannot
    lower the minimum and is never scored given ``n``.  As soon as any score
    drops to ``floor`` or below, that score is returned directly: the
    minimum cannot beat the floor anymore.  Only an other whose marginal
    p-value is at or below ``floor`` can end the scan, so the others below
    the bound are cut into runs that each end at such a variable, and each
    run is scored as one batch.
    """
    others = sorted(set(variables) - set(n) - {computer.anchor})
    if not others:
        return math.inf
    marginals = computer.marginals(others)
    (_, first), *rest = sorted(zip(marginals, others))
    q = computer.score(first, n).p_value
    if q <= floor:
        return q
    below = [(marginal, other) for marginal, other in rest if marginal < q]
    start = 0
    for end, (marginal, _) in enumerate(below, 1):
        if marginal > floor and end < len(below):
            continue
        for record in computer.scores([other for _, other in below[start:end]], n):
            if record.p_value <= floor:
                return record.p_value
            q = min(q, record.p_value)
        start = end
    return q


def maximization_step(
    x: str,
    family: NeighborhoodFamily,
    variables,
    engine: CIEngine,
    m_ci: int = DEFAULT_MAX_COND,
) -> NeighborSelection:
    """Pick the family member with the largest quality score.

    Candidates are scanned in (cardinality, member-order) sequence with a
    rising floor, so ties resolve to the smaller, earlier set and losing
    candidates are abandoned early; the outcome equals a full argmax.  The
    selection records the winner's score against every other variable: the
    non-members share one conditioning set and are asked as one batch.
    """
    ordered = sorted(family.family, key=lambda c: (len(c), tuple(sorted(c))))
    computer = SepComputer(x, engine, m_ci=m_ci)
    chosen: tuple[str, ...] | None = None
    # The best quality so far is the floor; p-values are never below 0.
    chosen_q = 0.0
    for cand in ordered:
        q = q_value(computer, cand, variables, floor=chosen_q)
        if chosen is None or q > chosen_q:
            chosen, chosen_q = cand, q
    outside = [v for v in variables if v != x and v not in chosen]
    separation = dict(zip(outside, computer.scores(outside, chosen)))
    separation.update((v, computer.score(v, set(chosen) - {v})) for v in chosen)
    return NeighborSelection(target=x, chosen=chosen, q_value=chosen_q, separation=separation)
