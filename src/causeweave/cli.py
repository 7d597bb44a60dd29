"""Command-line front end: learn, simulate, score, export.

Exit codes: 0 on success, 1 on a computational failure, 2 on a usage or
input problem.  Failures print one machine-readable JSON object to stderr:
``{"error": {"type": ..., "message": ...}}``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import errors
from .citest import CIEngine, InjectedBackend, make_backend
from .dataset import cap_levels, filter_dominant, load_csv, load_schema
from .experiments import (
    ALGORITHMS,
    PROPOSED,
    CategoricalSimConfig,
    ContinuousSimConfig,
    run_categorical_experiment,
    run_continuous_experiment,
)
from .pcstable import pc_stable
from .score import bic_of_graph
from .skeleton_orient import Cpdag, PriorKnowledge, cpdag_from_dot, learn_structure

_INPUT_ERRORS = (
    errors.SchemaError,
    errors.UnknownLevel,
    errors.RowLengthMismatch,
    errors.MissingColumn,
    errors.UninjectedQuery,
    errors.MixedBackendUnsupported,
    errors.UnknownVertex,
    FileNotFoundError,
    json.JSONDecodeError,
    ValueError,
)


@dataclass(frozen=True)
class RunConfig:
    """Validated flag bundle for one command invocation."""

    command: str
    data: str | None = None
    schema: str | None = None
    alpha: float = 0.05
    m_ci: int = 3
    backend: str = "auto"
    algorithm: str = PROPOSED
    prior: str | None = None
    seed: int = 0
    reps: int = 100
    threads: int = 1
    out: str | None = None
    fmt: str | None = None
    extras: dict | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"--alpha must be in (0, 1), got {self.alpha}")
        if self.m_ci < 1:
            raise ValueError(f"--m-ci must be >= 1, got {self.m_ci}")
        if self.threads < 1:
            raise ValueError(f"--threads must be >= 1, got {self.threads}")
        if self.reps < 1:
            raise ValueError(f"--reps must be >= 1, got {self.reps}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown --algorithm {self.algorithm!r}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=0.05, help="test size (default 0.05)")
    p.add_argument("--m-ci", type=int, default=3, dest="m_ci",
                   help="conditioning-set size cap (default 3)")
    p.add_argument("--seed", type=int, default=0, help="master random seed")
    p.add_argument("--threads", type=int, default=1, help="worker threads (default 1)")
    p.add_argument("--out", default=None, help="output path or path prefix")
    p.add_argument("--format", dest="fmt", choices=("json", "dot", "csv"), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causeweave",
        description="Constraint-based causal structure learning toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_learn = sub.add_parser("learn", help="learn a graph from data")
    p_learn.add_argument("--data", required=True,
                         help="CSV dataset (or injected-results JSON with --backend injected)")
    p_learn.add_argument("--schema", default=None, help="schema JSON (required for CSV data)")
    p_learn.add_argument("--backend", choices=("auto", "gtest", "fisherz", "injected"),
                         default="auto")
    p_learn.add_argument("--algorithm", choices=ALGORITHMS, default=PROPOSED)
    p_learn.add_argument("--prior", default=None, help="prior-knowledge JSON file")
    p_learn.add_argument("--drop-dominant", type=float, default=None, metavar="FRAC",
                         help="drop discrete variables whose modal level exceeds FRAC")
    p_learn.add_argument("--cap-levels", type=float, default=None, metavar="COVERAGE",
                         dest="cap_levels",
                         help="merge rare levels beyond the given coverage into one")
    _add_common(p_learn)

    p_sim = sub.add_parser("simulate", help="run a Monte-Carlo recovery benchmark")
    p_sim.add_argument("--kind", choices=("continuous", "categorical"), default="categorical")
    p_sim.add_argument("--k", type=int, default=20, help="number of variables")
    p_sim.add_argument("--n", type=int, default=500, help="sample size per replicate")
    p_sim.add_argument("--rho", type=float, default=0.04, help="edge probability (continuous)")
    p_sim.add_argument("--theta", type=float, default=0.5, help="signal strength (continuous)")
    p_sim.add_argument("--levels", type=int, default=2, help="levels per variable (categorical)")
    p_sim.add_argument("--max-parents", type=int, default=3, dest="max_parents")
    p_sim.add_argument("--reps", type=int, default=100)
    p_sim.add_argument("--no-bic", action="store_true", help="skip criterion scoring (categorical)")
    _add_common(p_sim)

    p_score = sub.add_parser("score", help="criterion table for graphs against a dataset")
    p_score.add_argument("graphs", nargs="+", help="graph files (.json or .dot)")
    p_score.add_argument("--data", required=True)
    p_score.add_argument("--schema", required=True)
    _add_common(p_score)

    p_export = sub.add_parser("export", help="convert graphs and report distances")
    p_export.add_argument("graph", help="graph file (.json or .dot)")
    p_export.add_argument("--distances-from", default=None, dest="distances_from",
                          help="vertex for a reachable-within-k report")
    p_export.add_argument("--max-distance", type=int, default=3, dest="max_distance")
    _add_common(p_export)

    return parser


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _load_graph(path: str) -> Cpdag:
    text = Path(path).read_text(encoding="utf-8")
    if path.endswith(".dot"):
        return cpdag_from_dot(text)
    return Cpdag.from_json(text)


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def cmd_learn(cfg: RunConfig) -> int:
    prior = PriorKnowledge.from_json(cfg.prior) if cfg.prior else None
    if cfg.backend == "injected":
        backend = InjectedBackend.from_json(cfg.data)
        if cfg.schema:
            variables = [v.name for v in load_schema(cfg.schema)]
        else:
            variables = list(backend.variable_names())
    else:
        if not cfg.schema:
            raise ValueError("--schema is required unless --backend injected")
        data = load_csv(cfg.data, cfg.schema)
        preprocess = (cfg.extras or {})
        if preprocess.get("cap_levels") is not None:
            data = cap_levels(data, coverage=preprocess["cap_levels"])
        if preprocess.get("drop_dominant") is not None:
            data = filter_dominant(data, threshold=preprocess["drop_dominant"])
        backend = make_backend(data, cfg.backend)
        variables = list(data.names)
    engine = CIEngine(backend)
    if cfg.algorithm == PROPOSED:
        graph = learn_structure(variables, engine, alpha=cfg.alpha, m_ci=cfg.m_ci, prior=prior)
    else:
        graph = pc_stable(variables, engine, alpha=cfg.alpha, m_ci=cfg.m_ci, prior=prior)

    written = []
    if cfg.out:
        if cfg.fmt == "json":
            _write(cfg.out, graph.to_json())
            written = [cfg.out]
        elif cfg.fmt == "dot":
            _write(cfg.out, graph.to_dot())
            written = [cfg.out]
        elif cfg.fmt is None:
            _write(cfg.out + ".json", graph.to_json())
            _write(cfg.out + ".dot", graph.to_dot())
            written = [cfg.out + ".json", cfg.out + ".dot"]
        else:
            raise ValueError("learn supports --format json or dot")
    _emit(
        {
            "nv": len(graph.vertices),
            "ne": len(graph.skeleton_pairs()),
            "nde": len(graph.directed),
            "out": written,
        }
    )
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    x = cfg.extras or {}
    if x["kind"] == "continuous":
        sim_cfg = ContinuousSimConfig(
            k=x["k"], n=x["n"], rho=x["rho"], theta=x["theta"], reps=cfg.reps,
            alpha=cfg.alpha, m_ci=cfg.m_ci, seed=cfg.seed, threads=cfg.threads,
        )
        reports = run_continuous_experiment(sim_cfg)
        echo = {
            "kind": "continuous", "k": x["k"], "n": x["n"], "rho": x["rho"],
            "theta": x["theta"], "reps": cfg.reps, "alpha": cfg.alpha,
            "m_ci": cfg.m_ci, "seed": cfg.seed,
        }
    else:
        sim_cfg = CategoricalSimConfig(
            k=x["k"], n=x["n"], levels=x["levels"], max_parents=x["max_parents"],
            reps=cfg.reps, alpha=cfg.alpha, m_ci=cfg.m_ci, seed=cfg.seed,
            threads=cfg.threads, compute_bic=not x["no_bic"],
        )
        reports = run_categorical_experiment(sim_cfg)
        echo = {
            "kind": "categorical", "k": x["k"], "n": x["n"], "levels": x["levels"],
            "max_parents": x["max_parents"], "reps": cfg.reps, "alpha": cfg.alpha,
            "m_ci": cfg.m_ci, "seed": cfg.seed, "bic": not x["no_bic"],
        }
    doc = {
        "config": echo,
        "reports": {alg: rep.to_json_obj() for alg, rep in reports.items()},
    }
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    written = []
    if cfg.out:
        _write(cfg.out + ".json", text)
        written.append(cfg.out + ".json")
        if cfg.fmt == "csv":
            for alg, rep in reports.items():
                if rep.roc is not None:
                    path = f"{cfg.out}_{alg}_roc.csv"
                    _write(path, rep.roc_csv())
                    written.append(path)
    _emit(
        {
            "out": written,
            "summary": {
                alg: {"tpr": rep.tpr, "tnr": rep.tnr, "auc": rep.auc}
                for alg, rep in reports.items()
            },
        }
    )
    return 0


def cmd_score(cfg: RunConfig) -> int:
    data = load_csv(cfg.data, cfg.schema)
    rows = []
    for path in cfg.extras["graphs"]:
        report = bic_of_graph(data, _load_graph(path))
        rows.append(
            {
                "graph": path,
                "df": report.total_df,
                "loglik_star": report.total_loglik_star,
                "bic": report.bic,
            }
        )
    if cfg.out:
        _write(cfg.out, json.dumps({"rows": rows}, sort_keys=True, indent=2) + "\n")
    header = f"{'graph':<40} {'df':>8} {'loglik*':>14} {'bic':>14}"
    print(header)
    for r in rows:
        print(f"{r['graph']:<40} {r['df']:>8} {r['loglik_star']:>14.3f} {r['bic']:>14.3f}")
    return 0


def cmd_export(cfg: RunConfig) -> int:
    graph = _load_graph(cfg.extras["graph"])
    written = []
    if cfg.out:
        fmt = cfg.fmt or ("dot" if cfg.out.endswith(".dot") else "json")
        if fmt == "dot":
            _write(cfg.out, graph.to_dot())
        elif fmt == "json":
            _write(cfg.out, graph.to_json())
        else:
            raise ValueError("export supports --format json or dot")
        written.append(cfg.out)
    result: dict = {"out": written, "nv": len(graph.vertices), "ne": len(graph.skeleton_pairs())}
    if cfg.extras["distances_from"]:
        goal = cfg.extras["distances_from"]
        if goal not in graph.vertices:
            raise errors.UnknownVertex(f"vertex {goal!r} not in graph")
        dist = _bfs_distances(graph, goal)
        result["distances_from"] = goal
        result["within"] = {
            str(k): sum(1 for d in dist.values() if 0 < d <= k)
            for k in range(1, cfg.extras["max_distance"] + 1)
        }
    _emit(result)
    return 0


def _bfs_distances(graph: Cpdag, start: str) -> dict[str, int]:
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in graph.adjacent(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        common = dict(
            command=args.command,
            alpha=args.alpha,
            m_ci=args.m_ci,
            seed=args.seed,
            threads=args.threads,
            out=args.out,
            fmt=args.fmt,
        )
        if args.command == "learn":
            cfg = RunConfig(
                data=args.data, schema=args.schema, backend=args.backend,
                algorithm=args.algorithm, prior=args.prior,
                extras={"cap_levels": args.cap_levels, "drop_dominant": args.drop_dominant},
                **common,
            )
            return cmd_learn(cfg)
        if args.command == "simulate":
            cfg = RunConfig(
                reps=args.reps,
                extras=dict(
                    kind=args.kind, k=args.k, n=args.n, rho=args.rho, theta=args.theta,
                    levels=args.levels, max_parents=args.max_parents, no_bic=args.no_bic,
                ),
                **common,
            )
            return cmd_simulate(cfg)
        if args.command == "score":
            cfg = RunConfig(
                data=args.data, schema=args.schema, extras={"graphs": args.graphs}, **common
            )
            return cmd_score(cfg)
        cfg = RunConfig(
            extras={
                "graph": args.graph,
                "distances_from": args.distances_from,
                "max_distance": args.max_distance,
            },
            **common,
        )
        return cmd_export(cfg)
    except _INPUT_ERRORS as exc:
        _fail(exc)
        return 2
    except errors.CauseweaveError as exc:
        _fail(exc)
        return 1


def _fail(exc: Exception) -> None:
    print(
        json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}, sort_keys=True),
        file=sys.stderr,
    )


if __name__ == "__main__":
    sys.exit(main())
