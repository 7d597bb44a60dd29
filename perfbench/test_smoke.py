"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload in-process with ``--small`` inputs, untraced and
traced, and checks that every metric ``BENCHMARK.json`` names is emitted
and that the tracer leaves no patched name behind.  A last case runs the
command itself end to end.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REPORTED = {"wall_s", "failed_frac", "skeleton_tpr", "skeleton_tnr"}


def _originals() -> dict[str, object]:
    out = {}
    for module, path in tracer.patch_points():
        owner, attr = tracer._resolve(module, path)
        out[f"{module}:{path}"] = getattr(owner, attr)
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_emits_end_to_end_metrics(name, tmp_path):
    wl = workloads.WORKLOADS[name](tmp_path, 3, trace=False, small=True)
    wl.setup()
    metrics, record = worker.untraced(wl, 0.2)
    expected = {m["name"] for m in SPEC["end_to_end"]} - {"setup_s", "peak_rss_mb"}
    assert expected | REPORTED <= set(metrics)
    assert record["failed"] == 0 and record["attempted"] >= wl.quality_units
    assert len(record["sha256"]) == record["attempted"]
    if name == "cat-mc":
        assert "auc" in metrics


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_emits_layer_metrics_and_restores(name, tmp_path):
    before = _originals()
    wl = workloads.WORKLOADS[name](tmp_path, 3, trace=True, small=True)
    wl.setup()
    metrics, record = worker.traced(wl, 0.2)
    assert {m["name"] for m in SPEC["per_layer"]} <= set(metrics)
    assert record["failed"] == 0 and record["traced_units"] >= 1
    assert record["missing_patch_points"] == []
    assert tracer.patched_now() == []
    after = _originals()
    assert all(after[key] is before[key] for key in before)
    assert metrics["citest.queries"][0] > 0
    assert metrics["forward.s"][0] > 0


def test_restore_after_a_failing_unit():
    before = _originals()
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            1 / 0
    assert all(_originals()[key] is before[key] for key in before)


def test_same_seed_repeats_outputs(tmp_path):
    digests = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        wl = workloads.WORKLOADS["cont-wide"](tmp_path / sub, 5, trace=False, small=True)
        wl.setup()
        _, record = worker.untraced(wl, 0.0)
        digests.append(record["sha256"][: wl.quality_units])
    assert digests[0] == digests[1]


def test_command_prints_the_contract_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "survey-cli", "--seed", "2",
         "--seconds", "0.2", "--trace", "0", "--small"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
