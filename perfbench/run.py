"""causeweave benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload cont-wide --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each workload runs in its own fresh Python
process (``worker.py``) with ``src`` on its path; this process starts it,
waits for it and prints:

* a table of the metrics, one per line with its unit;
* one JSON report line: every metric, the per-unit sha256 digests, the
  unit-time sample count and tail, failures, and the environment (commit,
  source digest, Python/numpy/scipy versions, core count, seed, workload
  parameters);
* as the last line, ``{"correct", "attempted", "failed", "metrics"}`` where
  the metrics are the end-to-end ones of ``BENCHMARK.json`` (``--trace 0``)
  or its per-layer ones (``--trace 1``).

``--workload all`` runs every workload in turn.  ``--small`` shrinks every
input for a quick smoke run.  Exit code 2 means the benchmark could not run
(for example, no ``src/causeweave`` next to it); no result is printed then.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cat-mc", "cont-wide", "survey-cli")
# Headroom under the 180 s a run may take, for start-up and reporting.
WORKER_TIMEOUT_S = 170


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources, named and ordered by path."""
    h = hashlib.sha256()
    for path in sorted((SRC / "causeweave").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    return {
        "commit": commit(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "seed": seed,
    }


def run_worker(workload: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    workdir = HERE / ".work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds),
           "1" if trace else "0", str(workdir)] + (["--small"] if small else [])
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def contract_line(result: dict, names: list[str]) -> dict:
    metrics = result["metrics"]
    missing = [n for n in names if n not in metrics]
    if missing:
        raise RuntimeError(f"{result['workload']} did not measure {missing}")
    return {
        "correct": result["failed"] == 0 and not result.get("errors"),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: metrics[n] for n in names},
    }


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be a non-negative integer")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=_non_negative, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for smoke runs")
    args = parser.parse_args(argv)

    if not (SRC / "causeweave" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC / 'causeweave'}", file=sys.stderr)
        return 2
    bench = spec()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    key = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in bench[key]]
    env = environment(args.seed)
    lines = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = run_worker(workload, args.seed, seconds, bool(args.trace), args.small)
            line = contract_line(result, names)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            print(f"benchmark: {exc}", file=sys.stderr)
            return 1
        for name, m in sorted(result["metrics"].items()):
            print(f"{workload:<11} {name:<32} {m['value']:>14.6g} {m['unit']}")
        print(json.dumps({"report": dict(result, env=env)}, sort_keys=True))
        lines[workload] = line
    print(json.dumps(line if len(lines) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
