"""Every function the benchmark's tracer patches must still be entered.

``test_benchmark_hooks.py`` checks that each patch point resolves; this
checks that tiny ``learn`` and ``simulate`` runs still call each one, so a
per-layer metric cannot silently read zero after a function moves.  Runs are
traced one unit each, so a span name that two patch points share (``orient``
in ``skeleton_orient`` and ``pcstable``, ``pcstable`` in ``cli`` and
``experiments``) is expected from a run only one of them can explain.
"""

import json

import numpy as np

from causeweave.cli import main
from test_benchmark_hooks import load_tracer

LEARN = {"cli.write", "dataset.load_csv", "citest.engine", "citest.auto", "citest.gtest",
         "citest.fisherz", "orient"}
SIMULATE = {"experiments.rep", "simgen.evaluate", "pcstable", "forward", "maximize"}
# Run name -> span names the run must enter.
EXPECTED = {
    "learn-proposed": LEARN | {"forward", "maximize", "sepsets", "significance"},
    "learn-pc-stable": LEARN | {"pcstable"},
    "simulate-categorical": SIMULATE | {"simgen.sample", "score.bic", "citest.gtest"},
    "simulate-continuous": SIMULATE | {"citest.fisherz"},
}


def write_mixed_csv(tmp_path):
    """Two categorical and two continuous columns, each tied to the last."""
    rng = np.random.default_rng(7)
    n = 300
    a = rng.integers(0, 2, n)
    b = np.where(rng.random(n) < 0.8, a, 1 - a)
    c = b + rng.standard_normal(n)
    d = c + rng.standard_normal(n)
    data = tmp_path / "mixed.csv"
    data.write_text("a,b,c,d\n" + "".join(
        f"{ai},{bi},{ci:.6f},{di:.6f}\n" for ai, bi, ci, di in zip(a, b, c, d)
    ))
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(
        [{"name": v, "kind": "categorical", "levels": ["0", "1"]} for v in "ab"]
        + [{"name": v, "kind": "continuous"} for v in "cd"]
    ))
    return str(data), str(schema)


def test_every_tracer_patch_point_is_entered(tmp_path, capsys):
    tracer = load_tracer()
    data, schema = write_mixed_csv(tmp_path)
    runs = {
        f"learn-{alg}": ["learn", "--data", data, "--schema", schema, "--algorithm", alg,
                         "--out", str(tmp_path / alg), "--format", "json"]
        for alg in ("proposed", "pc-stable")
    }
    runs.update({
        f"simulate-{kind}": ["simulate", "--kind", kind, "--k", "4", "--n", "150",
                             "--reps", "2", "--threads", "1"]
        for kind in ("categorical", "continuous")
    })
    totals = {}
    with tracer.Tracer() as traced:
        for name, argv in runs.items():
            assert main(argv) == 0, name
            totals[name] = traced.end_unit(0.0)
    capsys.readouterr()
    assert traced.missing == []

    every_name = {name for _, _, name in tracer.SPANS}
    every_name |= {tracer.ENGINE[2], tracer.REPS[2], tracer.LOAD_CSV[2]}
    assert every_name <= set().union(*EXPECTED.values())
    unentered = [
        f"{run}: {name}" for run, names in EXPECTED.items() for name in sorted(names)
        if not totals[run].get(name + ".calls")
    ]
    assert unentered == []
    assert totals["learn-proposed"]["forward.targets"] == 4
    assert totals["learn-proposed"]["maximize.candidates_scored"] > 0
    assert totals["learn-pc-stable"]["dataset.rows"] == 300
