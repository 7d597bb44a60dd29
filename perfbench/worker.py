"""One workload in one fresh process; ``run.py`` starts it.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR [--small]
with ``src`` on PYTHONPATH.  Prints one JSON object as its last line.

Untraced (TRACE=0): set up ``SETUP_REPEATS`` times, then run units in a
closed loop (one caller, next unit when the last one returns) until
SECONDS have passed and at least the workload's quality units are done.
Traced (TRACE=1): every unit's inputs run twice, once untraced and once
under the tracer, alternating which goes first, so the tracing overhead is
measured on identical work.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = time.perf_counter() - _T0
SETUP_REPEATS = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def tail(samples: list[float]) -> dict | None:
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    for p in TAIL_PERCENTILES:
        if len(ordered) * (1.0 - p / 100.0) >= 10.0:
            cut = statistics.quantiles(ordered, n=1000, method="inclusive")[round(p * 10) - 1]
            return {"p": p, "value": cut}
    return None


def run_unit(wl, inputs, record: dict) -> tuple[float, bool]:
    """Time one unit and check its output; a failure is recorded, not raised."""
    t0 = time.perf_counter()
    try:
        result = wl.run(inputs)
    except Exception as exc:  # a failed unit counts in failed_frac; the run goes on
        record.setdefault("errors", []).append(f"{type(exc).__name__}: {exc}")
        return time.perf_counter() - t0, False
    dt = time.perf_counter() - t0
    try:
        digest, quality = wl.check(inputs, result)
    except Exception as exc:
        record.setdefault("errors", []).append(f"check {type(exc).__name__}: {exc}")
        return dt, False
    record.setdefault("sha256", []).append(digest)
    record.setdefault("quality", []).append(quality)
    return dt, True


def quality_means(record: dict, units: int) -> dict:
    rows = record.get("quality", [])[:units]
    if not rows:
        return {}
    return {key: statistics.fmean(row[key] for row in rows) for key in rows[0]}


def untraced(wl, seconds: float) -> tuple[dict, dict]:
    record: dict = {}
    times: list[float] = []
    attempted = failed = 0
    prepare_s = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline or attempted < wl.quality_units:
        t0 = time.perf_counter()
        inputs = wl.prepare(attempted)
        prepare_s += time.perf_counter() - t0
        dt, ok = run_unit(wl, inputs, record)
        attempted += 1
        if ok:
            times.append(dt)
        else:
            failed += 1
    wall = time.perf_counter() - start
    metrics = {
        "wall_s": (wall, "s"),
        "unit_s_p50": (statistics.median(times) if times else float("inf"), "s"),
        # Input generation is the benchmark's work, not the program's.
        "units_per_s": (len(times) / (wall - prepare_s), "1/s"),
        "failed_frac": (failed / attempted, "ratio"),
    }
    for key, value in quality_means(record, wl.quality_units).items():
        metrics[key] = (value, "ratio")
    extra = {"unit_samples": len(times), "unit_s_tail": tail(times), "unit_s": times,
             "prepare_s": prepare_s}
    return metrics, dict(record, attempted=attempted, failed=failed, **extra)


def layer_metrics(total: dict, n: int, rep_s: list[float], plain_s: float) -> dict:
    """Per-layer figures from the summed unit folds of ``n`` traced units:
    times and counts are per-unit means, ratios are over the whole run."""

    def get(key: str) -> float:
        return total.get(key, 0.0)

    def per_unit(key: str) -> float:
        return get(key) / max(1, n)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    queries = get("cache.hits") + get("cache.misses")
    m = {
        "citest.queries": (per_unit("cache.hits") + per_unit("cache.misses"), "count"),
        "citest.misses": (per_unit("cache.misses"), "count"),
        "citest.hit_ratio": (ratio(get("cache.hits"), queries), "ratio"),
        "citest.backend_s": (
            sum(per_unit(b + ".self_s") for b in tracer.BACKEND_SPANS), "s"),
        "citest.engine_s": (per_unit("citest.engine.self_s"), "s"),
        "citest.gtest.us_per_test": (
            1e6 * ratio(get("citest.gtest.s"), get("citest.gtest.calls")), "us"),
        "citest.fisherz.us_per_test": (
            1e6 * ratio(get("citest.fisherz.s"), get("citest.fisherz.calls")), "us"),
        "citest.low_power_frac": (ratio(get("cache.low_power"), get("cache.entries")), "ratio"),
        "forward.expanded_sets": (per_unit("forward.expanded_sets"), "count"),
        "forward.family_size_mean": (
            ratio(get("forward.family_size"), get("forward.targets")), "count"),
        "maximize.candidates_scored": (per_unit("maximize.candidates_scored"), "count"),
        "maximize.candidates_per_family": (
            ratio(get("maximize.candidates_scored"), get("forward.family_size")), "ratio"),
        "orient.skipped": (per_unit("orient.skipped"), "count"),
        "score.bic_s": (per_unit("score.bic.s"), "s"),
        "simgen.sample_s": (per_unit("simgen.sample.s"), "s"),
        "simgen.evaluate_s": (per_unit("simgen.evaluate.s"), "s"),
        "experiments.rep_s_p50": (statistics.median(rep_s) if rep_s else 0.0, "s"),
        "dataset.load_csv_s": (per_unit("dataset.load_csv.s"), "s"),
        "dataset.rows_per_s": (
            ratio(get("dataset.rows"), get("dataset.load_csv.s")), "1/s"),
        "cli.write_s": (per_unit("cli.write.s"), "s"),
        "trace.overhead_frac": (ratio(get("unit_s"), plain_s) - 1.0, "ratio"),
        "trace.uncovered_s": (per_unit("unit_s") - per_unit("covered_s"), "s"),
    }
    for stage in ("forward", "maximize", "sepsets", "significance", "orient", "pcstable"):
        m[f"{stage}.s"] = (per_unit(stage + ".s"), "s")
    for stage in ("forward", "maximize", "sepsets", "significance"):
        m[f"{stage}.queries"] = (per_unit(stage + ".queries"), "count")
    for stage in ("maximize", "pcstable"):
        m[f"{stage}.misses"] = (per_unit(stage + ".misses"), "count")
    return m


def traced(wl, seconds: float) -> tuple[dict, dict]:
    tr = tracer.Tracer()
    record: dict = {}
    total: dict[str, float] = {}
    traced_units = pairs = failed = 0
    plain_s = 0.0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or pairs < 1:
        inputs = wl.prepare(pairs)
        for tracing in ((False, True) if pairs % 2 == 0 else (True, False)):
            if tracing:
                with tr:
                    traced_s, traced_ok = run_unit(wl, inputs, record)
                unit = tr.end_unit(traced_s)
            else:
                plain = run_unit(wl, inputs, record)
        pairs += 1
        if traced_ok and plain[1]:
            traced_units += 1
            plain_s += plain[0]
            for key, value in unit.items():
                total[key] = total.get(key, 0.0) + value
        else:
            failed += 1
    still = tracer.patched_now()
    if still:
        raise RuntimeError(f"tracer left patched: {still}")
    metrics = layer_metrics(total, traced_units, tr.rep_s, plain_s)
    extra = {"traced_units": traced_units, "missing_patch_points": tr.missing, "totals": total}
    return metrics, dict(record, attempted=pairs, failed=failed, **extra)


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, workdir = argv[:5]
    small = "--small" in argv[5:]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    workdir = Path(workdir)
    wl_cls = workloads.WORKLOADS[name]
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = wl_cls(workdir, seed, trace, small=small)
        wl.setup()
        setups.append(time.perf_counter() - t0)
    if trace:
        metrics, record = traced(wl, seconds)
    else:
        metrics, record = untraced(wl, seconds)
        metrics["setup_s"] = (IMPORT_S + statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    out = {
        "workload": name,
        "params": wl.params,
        "trace": trace,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "import_s": IMPORT_S,
        "setup_repeats_s": setups,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **record,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
