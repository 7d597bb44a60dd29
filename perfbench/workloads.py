"""The benchmark's three workloads.

Each workload is built from the benchmark seed alone.  ``setup`` runs one
unit on tiny inputs so that lazy imports and first-call costs are paid
before timing.  ``prepare(i)`` makes the inputs of unit ``i`` (untimed),
``run`` is the timed unit, and ``check`` validates its output and returns
the unit's sha256 and quality figures.

* ``cat-mc`` — the paper's Monte-Carlo setup through the CLI (``simulate
  --kind categorical``): many cheap G-tests where per-call overhead
  dominates; the only workload that exercises ``experiments``,
  ``pcstable``, ``score`` and ``simgen``.
* ``cont-wide`` — one large library ``learn_structure`` call per unit on a
  fresh linear model (Fisher-z backend, low-power preset): dominated by
  the selection step, with the largest shared cache.
* ``survey-cli`` — ``causeweave learn`` on a mixed survey-style CSV with a
  tier prior: large n moves the G-test cost into row counting, and CSV
  parsing, auto dispatch, prior-driven orientation and output writing are
  on the path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from causeweave import cli
from causeweave.citest import CIEngine, FisherZBackend
from causeweave.simgen import LinearSemSpec, gen_linear_sem, make_discrete_net, skeleton_rates
from causeweave.skeleton_orient import Cpdag, learn_structure


WARM_UP, UNIT = 0, 1
# Draws allowed per unit when looking for a typical graph (about one in
# eight draws is typical).
MAX_DRAWS = 1000


def derive_seed(seed: int, *path: int) -> int:
    """A seed for one input stream, a pure function of the benchmark seed:
    ``(WARM_UP,)``, or ``(UNIT, i)`` and ``(UNIT, i, draw)`` for unit ``i``."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0] & 0x7FFFFFFF)


def dependent_pairs(graph) -> int:
    """Vertex pairs that are marginally dependent in ``graph``: one is an
    ancestor of the other or they share an ancestor."""
    ancestry: dict[str, set[str]] = {}
    for v in graph.topological_order:
        ancestry[v] = {v}.union(*(ancestry[p] for p in graph.parents(v)))
    names = graph.vertices
    return sum(
        1 for i, a in enumerate(names) for b in names[i + 1 :] if ancestry[a] & ancestry[b]
    )


def typical(graph, shape: tuple[int, int] | None) -> bool:
    """Is the graph's (edge count, dependent-pair count) within 10% of the
    generator's medians ``shape``?

    A learn's cost follows these two counts closely (on cat-mc nets the
    log unit time correlates 0.83 with the edge count and 0.90 with the
    dependent pairs), so units draw graphs until one is typical.  Runs with
    different seeds then carry similar work, and their timings can be
    compared.  ``None`` accepts every graph.
    """
    if shape is None:
        return True
    edges, pairs = shape
    return (abs(len(graph.edges) - edges) <= max(1.0, 0.1 * edges)
            and abs(dependent_pairs(graph) - pairs) <= max(1.0, 0.1 * pairs))


def linear_model(p: dict, seed: int):
    """``gen_linear_sem`` data and graph, on the first typical draw."""
    for draw in range(MAX_DRAWS):
        spec = LinearSemSpec(k=p["k"], rho=p["rho"], theta=p["theta"], n=p["n"],
                             seed=[seed, draw])
        data, truth = gen_linear_sem(spec)
        if typical(truth, p["shape"]):
            return data, truth
    raise RuntimeError(f"no typical graph in {MAX_DRAWS} draws")


def _sha256(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process; its stdout is captured, not printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _check_graph(g: Cpdag, names) -> None:
    g.validate()
    if set(g.vertices) != set(names):
        raise AssertionError("vertex set differs from the input variables")


class CatMc:
    """``causeweave simulate --kind categorical``, one fresh net per unit."""

    name = "cat-mc"
    # Units whose quality figures are reported; the loop always runs them.
    quality_units = 16

    def __init__(self, workdir: Path, seed: int, trace: bool, small: bool = False):
        self.workdir, self.seed = workdir, seed
        self.params = {
            "kind": "categorical", "k": 20, "n": 500, "max_parents": 3, "levels": 2,
            "alpha": 0.05, "m_ci": 3, "reps": 2, "bic": True,
            # Traced runs use one worker so spans nest in one thread.
            "threads": 1 if trace else 2,
            "shape": (28, 111),
        }
        if small:
            self.params.update(k=6, n=120, shape=None)
            self.quality_units = 1

    def _argv(self, p: dict, seed: int, out: Path) -> list[str]:
        return [
            "simulate", "--kind", "categorical", "--k", str(p["k"]), "--n", str(p["n"]),
            "--max-parents", str(p["max_parents"]), "--levels", str(p["levels"]),
            "--alpha", str(p["alpha"]), "--m-ci", str(p["m_ci"]), "--reps", str(p["reps"]),
            "--threads", str(p["threads"]), "--seed", str(seed), "--out", str(out),
        ]

    def setup(self) -> None:
        tiny = dict(self.params, k=5, n=60, reps=2)
        code, _ = _run_cli(self._argv(tiny, derive_seed(self.seed, WARM_UP), self.workdir / "warm"))
        if code != 0:
            raise RuntimeError(f"warm-up simulate exited {code}")

    def prepare(self, i: int):
        """Arguments of unit ``i``, whose ``--seed`` makes a typical net."""
        p = self.params
        for draw in range(MAX_DRAWS):
            seed = derive_seed(self.seed, UNIT, i, draw)
            # The net ``simulate --seed S`` builds (see run_categorical_experiment).
            net = make_discrete_net(p["k"], p["max_parents"], p["levels"], seed=[seed, 0])
            if typical(net.graph, p["shape"]):
                return self._argv(p, seed, self.workdir / f"sim{i % 2}")
        raise RuntimeError(f"no typical net in {MAX_DRAWS} draws")

    def run(self, argv):
        return _run_cli(argv)

    def check(self, argv, result) -> tuple[str, dict]:
        code, stdout = result
        if code != 0:
            raise AssertionError(f"simulate exited {code}")
        json.loads(stdout)
        path = Path(argv[-1] + ".json")
        doc = json.loads(path.read_text(encoding="utf-8"))
        reports = doc["reports"]
        if set(reports) != {"proposed", "pc-stable"}:
            raise AssertionError(f"report algorithms {sorted(reports)}")
        for rep in reports.values():
            if rep["reps"] != self.params["reps"] or len(rep["bic"]) != self.params["reps"]:
                raise AssertionError("report replicate count is wrong")
            if not (0.0 <= rep["tpr"] <= 1.0 and 0.0 <= rep["tnr"] <= 1.0):
                raise AssertionError("skeleton rate out of range")
            if rep["auc"] is None or not 0.0 <= rep["auc"] <= 1.0:
                raise AssertionError("auc missing or out of range")
        ours = reports["proposed"]
        quality = {"skeleton_tpr": ours["tpr"], "skeleton_tnr": ours["tnr"], "auc": ours["auc"]}
        return _sha256(path), quality


class ContWide:
    """Library ``learn_structure`` on a fresh 40-variable linear model."""

    name = "cont-wide"
    quality_units = 8

    def __init__(self, workdir: Path, seed: int, trace: bool, small: bool = False):
        self.workdir, self.seed = workdir, seed
        self.params = {"k": 40, "n": 2000, "rho": 0.04, "theta": 0.5, "alpha": 0.01, "m_ci": 2,
                       "shape": (31, 82)}
        if small:
            self.params.update(k=8, n=200, rho=0.3, shape=None)
            self.quality_units = 1

    def _inputs(self, p: dict, seed: int):
        data, truth = linear_model(p, seed)
        return data, truth, FisherZBackend(data)

    def setup(self) -> None:
        tiny = dict(self.params, k=6, n=100, rho=0.3, shape=None)
        data, _, backend = self._inputs(tiny, derive_seed(self.seed, WARM_UP))
        learn_structure(data.names, CIEngine(backend), alpha=tiny["alpha"], m_ci=tiny["m_ci"])

    def prepare(self, i: int):
        return self._inputs(self.params, derive_seed(self.seed, UNIT, i))

    def run(self, inputs):
        data, _, backend = inputs
        p = self.params
        return learn_structure(data.names, CIEngine(backend), alpha=p["alpha"], m_ci=p["m_ci"])

    def check(self, inputs, graph) -> tuple[str, dict]:
        data, truth, _ = inputs
        _check_graph(graph, data.names)
        tpr, tnr = skeleton_rates(truth, graph)
        digest = hashlib.sha256(graph.to_json().encode("utf-8")).hexdigest()
        return digest, {"skeleton_tpr": tpr, "skeleton_tnr": tnr}


def write_survey(workdir: Path, prefix: str, p: dict, seed: int):
    """Survey-style CSV, schema and tier prior drawn from a linear model.

    About two thirds of the columns are cut at quantiles into 2-4 levels
    (alternately categorical and ordinal); the rest stay continuous.  Tiers
    split the generating graph's topological order into ``p["tiers"]``
    blocks, so the prior agrees with the true directions.
    """
    data, truth = linear_model(p, seed)
    k, tiers = p["k"], p["tiers"]
    rng = np.random.default_rng([seed, 1])
    names = list(data.names)
    discrete = set(rng.choice(names, size=round(2 * k / 3), replace=False).tolist())
    schema, cells = [], []
    for j, name in enumerate(names):
        col = data.columns[name]
        if name in discrete:
            levels = int(rng.integers(2, 5))
            cuts = np.quantile(col, np.linspace(0.0, 1.0, levels + 1)[1:-1])
            labels = [f"{name.lower()}_{lv}" for lv in range(levels)]
            codes = np.searchsorted(cuts, col, side="right")
            kind = "ordinal" if j % 2 else "categorical"
            schema.append({"name": name, "kind": kind, "levels": labels})
            cells.append(np.array(labels)[codes])
        else:
            schema.append({"name": name, "kind": "continuous"})
            cells.append(np.char.mod("%.6f", col))
    rows = np.column_stack(cells)
    csv_path = workdir / f"{prefix}.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names) + "\n")
        fh.write("\n".join(",".join(row) for row in rows.tolist()) + "\n")
    schema_path = workdir / f"{prefix}_schema.json"
    schema_path.write_text(json.dumps(schema), encoding="utf-8")
    order = truth.topological_order
    prior = {"tiers": {v: pos * tiers // k for pos, v in enumerate(order)}}
    prior_path = workdir / f"{prefix}_prior.json"
    prior_path.write_text(json.dumps(prior), encoding="utf-8")
    return csv_path, schema_path, prior_path, truth


class SurveyCli:
    """``causeweave learn`` (auto backend, tier prior) on a mixed CSV."""

    name = "survey-cli"
    quality_units = 12

    def __init__(self, workdir: Path, seed: int, trace: bool, small: bool = False):
        self.workdir, self.seed = workdir, seed
        self.params = {
            "k": 24, "n": 20000, "rho": 0.05, "theta": 0.5, "alpha": 0.05, "m_ci": 3,
            "backend": "auto", "tiers": 3, "shape": (14, 26),
        }
        if small:
            self.params.update(k=6, n=300, rho=0.3, shape=None)

    def _argv(self, csv_path, schema_path, prior_path, out: Path) -> list[str]:
        p = self.params
        return [
            "learn", "--data", str(csv_path), "--schema", str(schema_path),
            "--backend", p["backend"], "--alpha", str(p["alpha"]), "--m-ci", str(p["m_ci"]),
            "--prior", str(prior_path), "--out", str(out),
        ]

    def setup(self) -> None:
        tiny = dict(self.params, k=6, n=200, rho=0.3, shape=None)
        *files, _ = write_survey(self.workdir, "warm", tiny, derive_seed(self.seed, WARM_UP))
        code, _ = _run_cli(self._argv(*files, self.workdir / "warm_out"))
        if code != 0:
            raise RuntimeError(f"warm-up learn exited {code}")

    def prepare(self, i: int):
        p = self.params
        prefix = f"survey{i % 2}"
        *files, truth = write_survey(self.workdir, prefix, p, derive_seed(self.seed, UNIT, i))
        return self._argv(*files, self.workdir / f"{prefix}_graph"), truth

    def run(self, inputs):
        return _run_cli(inputs[0])

    def check(self, inputs, result) -> tuple[str, dict]:
        argv, truth = inputs
        code, stdout = result
        if code != 0:
            raise AssertionError(f"learn exited {code}")
        summary = json.loads(stdout)
        out = Path(argv[-1])
        json_path, dot_path = out.with_suffix(".json"), out.with_suffix(".dot")
        graph = Cpdag.from_json(json_path.read_text(encoding="utf-8"))
        _check_graph(graph, truth.vertices)
        if summary["ne"] != len(graph.skeleton_pairs()) or not dot_path.read_text():
            raise AssertionError("summary line or DOT output disagrees with the graph")
        tpr, tnr = skeleton_rates(truth, graph)
        return _sha256(json_path, dot_path), {"skeleton_tpr": tpr, "skeleton_tnr": tnr}


WORKLOADS = {w.name: w for w in (CatMc, ContWide, SurveyCli)}
