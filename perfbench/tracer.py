"""Outside-in tracing of causeweave's layers.

The tracer swaps public functions of the package, as bound in the module
globals and class attributes their callers look them up in, for wrappers
that record spans, and ``restore`` puts every original object back.  The
package itself is not edited.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (``-1`` at the top of a unit).  Spans live in memory for one
unit; ``end_unit`` folds them into per-name call counts, inclusive time and
self time (inclusive time minus the time covered by child spans), then
clears them.  Spans whose name has no ``citest.`` prefix are stages: CI
queries, cache misses and orientation skips are counted against the
innermost open stage.

Wrappers keep one stack per tracer, so a traced unit must run on one
thread.
"""

from __future__ import annotations

import importlib
import logging
import time
from collections import Counter, defaultdict

# (module, attribute path, span name): the calls each layer is entered by.
# A function is patched in every module whose code calls it by global name.
SPANS = (
    ("causeweave.skeleton_orient", "forward_step", "forward"),
    ("causeweave.skeleton_orient", "maximization_step", "maximize"),
    ("causeweave.skeleton_orient", "compute_sepsets", "sepsets"),
    ("causeweave.skeleton_orient", "edge_significance", "significance"),
    ("causeweave.skeleton_orient", "orient", "orient"),
    ("causeweave.pcstable", "orient", "orient"),
    ("causeweave.experiments", "pc_stable", "pcstable"),
    ("causeweave.cli", "pc_stable", "pcstable"),
    ("causeweave.experiments", "bic_of_graph", "score.bic"),
    ("causeweave.experiments", "evaluate_recovery", "simgen.evaluate"),
    ("causeweave.simgen", "DiscreteNet.sample", "simgen.sample"),
    ("causeweave.cli", "_write", "cli.write"),
    ("causeweave.citest", "GTestBackend.compute", "citest.gtest"),
    ("causeweave.citest", "FisherZBackend.compute", "citest.fisherz"),
    ("causeweave.citest", "AutoBackend.compute", "citest.auto"),
)
ENGINE = ("causeweave.citest", "CIEngine.test", "citest.engine")
REPS = ("causeweave.experiments", "_map_reps", "experiments.rep")
# Counter-only hooks: no span, just a count taken from the call.
FORWARD_RUN = ("causeweave.forward", "ForwardSearch.run")
Q_VALUE = ("causeweave.maximize", "q_value")
LOAD_CSV = ("causeweave.cli", "load_csv", "dataset.load_csv")
ORIENT_LOGGER = "causeweave.skeleton_orient"

BACKEND_SPANS = ("citest.gtest", "citest.fisherz", "citest.auto")


def patch_points() -> list[tuple[str, str]]:
    """Every (module, attribute path) the tracer replaces."""
    return [(m, a) for m, a, _ in SPANS] + [
        ENGINE[:2], REPS[:2], FORWARD_RUN, Q_VALUE, LOAD_CSV[:2]
    ]


def _resolve(module: str, path: str):
    """Owner object and attribute name for ``module`` + dotted ``path``."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class _SkipCounter(logging.Handler):
    """Counts orientation records (every one is a skipped or dropped commit)."""

    def __init__(self, tracer: "Tracer"):
        super().__init__(level=logging.DEBUG)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        self.tracer._stages[-1][2] += 1


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = [-1]
        # Counter cells [queries, misses, skipped] of open stages; the first
        # cell collects queries made outside any stage.
        self._stages: list[list[int]] = [[0, 0, 0]]
        self.counts: Counter = Counter()
        self.engines: dict[int, object] = {}
        self.rep_s: list[float] = []
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._handler = _SkipCounter(self)
        self._logger_level: int | None = None

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn, stage: bool):
        spans, open_, stages, counts = self.spans, self._open, self._stages, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, open_[-1]]
            open_.append(len(spans))
            spans.append(rec)
            if stage:
                stages.append([0, 0, 0])
            try:
                return fn(*args, **kwargs)
            finally:
                if stage:
                    q, m, skipped = stages.pop()
                    counts[name + ".queries"] += q
                    counts[name + ".misses"] += m
                    counts[name + ".skipped"] += skipped
                open_.pop()
                rec[2] = clock()

        traced.__wrapped__ = fn
        return traced

    def _engine(self, fn):
        spans, open_, stages, engines = self.spans, self._open, self._stages, self.engines
        clock = time.perf_counter
        name = ENGINE[2]

        def traced_test(engine, x, y, s=()):
            cache = engine.cache
            before = cache.misses
            rec = [name, clock(), 0.0, open_[-1]]
            open_.append(len(spans))
            spans.append(rec)
            try:
                return fn(engine, x, y, s)
            finally:
                open_.pop()
                rec[2] = clock()
                cell = stages[-1]
                cell[0] += 1
                if cache.misses != before:
                    cell[1] += 1
                engines[id(engine)] = engine

        traced_test.__wrapped__ = fn
        return traced_test

    def _reps(self, fn):
        span, rep_s = self._span, self.rep_s
        clock = time.perf_counter

        def traced_map_reps(worker, *args, **kwargs):
            traced_worker = span(REPS[2], worker, stage=True)

            def timed(rep):
                t0 = clock()
                try:
                    return traced_worker(rep)
                finally:
                    rep_s.append(clock() - t0)

            return fn(timed, *args, **kwargs)

        traced_map_reps.__wrapped__ = fn
        return traced_map_reps

    def _forward_run(self, fn):
        counts = self.counts

        def traced_run(search, *args, **kwargs):
            family = fn(search, *args, **kwargs)
            counts["forward.expanded_sets"] += search.expanded
            counts["forward.family_size"] += len(family.family)
            counts["forward.targets"] += 1
            return family

        traced_run.__wrapped__ = fn
        return traced_run

    def _q_value(self, fn):
        counts = self.counts

        def traced_q_value(*args, **kwargs):
            counts["maximize.candidates_scored"] += 1
            return fn(*args, **kwargs)

        traced_q_value.__wrapped__ = fn
        return traced_q_value

    def _load_csv(self, fn):
        counts = self.counts
        traced = self._span(LOAD_CSV[2], fn, stage=True)

        def traced_load_csv(*args, **kwargs):
            data = traced(*args, **kwargs)
            counts["dataset.rows"] += data.n
            return data

        traced_load_csv.__wrapped__ = fn
        return traced_load_csv

    # -- install / restore ---------------------------------------------------

    def _patch(self, module: str, path: str, make) -> None:
        try:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}:{path}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Patch every point in the table; a point that no longer exists is
        listed in ``missing`` and its layer reads zero."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for module, path, name in SPANS:
            stage = not name.startswith("citest.")
            self._patch(module, path, lambda fn, n=name, st=stage: self._span(n, fn, st))
        self._patch(*ENGINE[:2], self._engine)
        self._patch(*REPS[:2], self._reps)
        self._patch(*FORWARD_RUN, self._forward_run)
        self._patch(*Q_VALUE, self._q_value)
        self._patch(*LOAD_CSV[:2], self._load_csv)
        logger = logging.getLogger(ORIENT_LOGGER)
        self._logger_level = logger.level
        logger.setLevel(logging.DEBUG)
        logger.addHandler(self._handler)

    def restore(self) -> None:
        """Put back every patched object, newest first, and the logger."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        if self._logger_level is not None:
            logger = logging.getLogger(ORIENT_LOGGER)
            logger.removeHandler(self._handler)
            logger.setLevel(self._logger_level)
            self._logger_level = None

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- per-unit aggregation ------------------------------------------------

    def end_unit(self, unit_s: float) -> dict[str, float]:
        """Fold this unit's spans and counters into flat totals and reset.

        Keys: ``<span>.calls``, ``<span>.s`` (inclusive), ``<span>.self_s``,
        the stage counters, cache totals read from every engine the unit
        used, ``covered_s`` (time under top-level spans) and ``unit_s``.
        """
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        covered = 0.0
        for (name, start, end, parent), inner in zip(spans, child_s):
            dur = end - start
            out[name + ".calls"] += 1
            out[name + ".s"] += dur
            out[name + ".self_s"] += dur - inner
            if parent < 0:
                covered += dur
        for key, value in self.counts.items():
            out[key] += value
        entries = low_power = 0
        for engine in self.engines.values():
            results = getattr(engine.cache, "_store", {}).values()
            entries += len(results)
            low_power += sum(1 for r in results if r.low_power)
            out["cache.hits"] += engine.cache.hits
            out["cache.misses"] += engine.cache.misses
        out["cache.entries"] += entries
        out["cache.low_power"] += low_power
        out["covered_s"] += covered
        out["unit_s"] += unit_s
        spans.clear()
        self._stages[0] = [0, 0, 0]
        self.counts.clear()
        self.engines.clear()
        return dict(out)


def is_patched(obj) -> bool:
    return hasattr(obj, "__wrapped__") and getattr(obj, "__module__", "") == __name__


def patched_now() -> list[str]:
    """Patch points whose current object is still a tracer wrapper."""
    found = []
    for module, path in patch_points():
        try:
            owner, attr = _resolve(module, path)
        except (ImportError, AttributeError):
            continue
        if is_patched(getattr(owner, attr)):
            found.append(f"{module}:{path}")
    return found
