"""Order-independent PC-style baseline sharing the orientation machinery.

Edges are tested level by level against conditioning sets drawn from
adjacency sets frozen at the start of each level, and deletions are applied
only once the level completes, so the result does not depend on variable
order.  Each edge asks the union of both endpoints' size-L subsets as one
sorted set, in one ``CIEngine.ask`` round, so no query is asked twice; its
keys are canonical as built (``x < y``, and each set is sorted and drawn
without ``x`` or ``y``).  For every deleted edge the separating set found at
the deleting level is recorded as the ``maximize.best_record`` of all its
tests there (the largest p-value, then the smallest set: the rule selection
uses), which also keeps the stored sepsets order-free.
"""

from __future__ import annotations

from itertools import combinations

from .citest import DEFAULT_ALPHA, DEFAULT_MAX_COND, CIEngine, check_settings
from .maximize import best_record
from .skeleton_orient import (
    Cpdag,
    Pair,
    PriorKnowledge,
    SeparationRecord,
    checked_variables,
    orient,
)


def pc_stable_skeleton(
    variables,
    engine: CIEngine,
    alpha: float = DEFAULT_ALPHA,
    m_ci: int = DEFAULT_MAX_COND,
) -> Cpdag:
    """Level-wise skeleton pruning with frozen adjacency sets.

    At level L every surviving edge x-y is tested once against each size-L
    subset of the level-start adjacencies of x or of y; the edge is
    removed at the end of the level if any such test fails to reject
    independence.  Levels stop once no adjacency is large enough or the
    conditioning cap is passed.  The graph's ``sepsets`` hold the record of
    every removed edge, for :func:`orient` to read.  A repeated variable,
    ``alpha`` outside (0, 1) or ``m_ci`` below 1 raises before the first CI
    test.
    """
    variables = checked_variables(variables, None)
    check_settings(alpha, m_ci)
    adjacency: dict[str, set[str]] = {
        v: set(variables) - {v} for v in variables
    }
    sepsets: dict[Pair, SeparationRecord] = {}

    level = 0
    while level <= m_ci:
        frozen = {v: set(adjacency[v]) for v in variables}
        edges = sorted((x, y) for x in variables for y in adjacency[x] if x < y)
        if not any(
            len(frozen[x] - {y}) >= level or len(frozen[y] - {x}) >= level
            for x, y in edges
        ):
            break
        removals: dict[Pair, SeparationRecord] = {}
        for x, y in edges:
            pools = (frozen[x] - {y}, frozen[y] - {x})
            conds = sorted({c for pool in pools for c in combinations(sorted(pool), level)})
            if not conds:
                continue
            best = best_record(engine.ask([(x, y, c) for c in conds]), conds)
            if best.p_value > alpha:
                removals[(x, y)] = best
        for (x, y), record in removals.items():
            adjacency[x].discard(y)
            adjacency[y].discard(x)
            sepsets[(x, y)] = record
        level += 1

    return Cpdag(
        vertices=tuple(variables),
        undirected={(x, y) for x in variables for y in adjacency[x] if x < y},
        sepsets=sepsets,
    )


def pc_stable(
    variables,
    engine: CIEngine,
    alpha: float = DEFAULT_ALPHA,
    m_ci: int = DEFAULT_MAX_COND,
    prior: PriorKnowledge | None = None,
) -> Cpdag:
    """Baseline pipeline: level-wise skeleton plus the shared orientation.

    A repeated variable or a bad ``prior`` raises before the first CI test.
    """
    variables = checked_variables(variables, prior)
    return orient(pc_stable_skeleton(variables, engine, alpha=alpha, m_ci=m_ci), prior)
