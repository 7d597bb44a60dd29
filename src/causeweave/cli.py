"""Command-line front end: learn, simulate, score, export.

Exit codes: 0 on success, 1 on a computational failure, 2 on a usage or
input problem.  Failures other than argparse usage errors print one
machine-readable JSON object to stderr:
``{"error": {"type": ..., "message": ...}}``.
"""

from __future__ import annotations

import argparse
import json
import sys
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
    errors.PriorKnowledgeCycle,
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
    PermissionError,
    ValueError,
)


def _add_ci(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=0.05, help="test size (default 0.05)")
    p.add_argument("--m-ci", type=int, default=3, dest="m_ci",
                   help="conditioning-set size cap (default 3)")


def _add_out(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    p.add_argument("--out", default=None, help="output path or path prefix")
    p.add_argument("--format", dest="fmt", choices=formats, default=None)


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
    _add_ci(p_learn)
    _add_out(p_learn, ("json", "dot"))
    p_learn.set_defaults(run=cmd_learn)

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
    _add_ci(p_sim)
    p_sim.add_argument("--seed", type=int, default=0, help="master random seed")
    p_sim.add_argument("--threads", type=int, default=1, help="worker processes (default 1)")
    _add_out(p_sim, ("json", "csv"))
    p_sim.set_defaults(run=cmd_simulate)

    p_score = sub.add_parser("score", help="criterion table for graphs against a dataset")
    p_score.add_argument("graphs", nargs="+", help="graph files (.json or .dot)")
    p_score.add_argument("--data", required=True)
    p_score.add_argument("--schema", required=True)
    p_score.add_argument("--out", default=None, help="JSON table path")
    p_score.set_defaults(run=cmd_score)

    p_export = sub.add_parser("export", help="convert graphs and report distances")
    p_export.add_argument("graph", help="graph file (.json or .dot)")
    p_export.add_argument("--distances-from", default=None, dest="distances_from",
                          help="vertex for a reachable-within-k report")
    p_export.add_argument("--max-distance", type=int, default=3, dest="max_distance")
    _add_out(p_export, ("json", "dot"))
    p_export.set_defaults(run=cmd_export)

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


def cmd_learn(args: argparse.Namespace) -> int:
    prior = PriorKnowledge.from_json(args.prior) if args.prior else None
    if args.backend == "injected":
        backend = InjectedBackend.from_json(args.data)
        if args.schema:
            variables = [v.name for v in load_schema(args.schema)]
        else:
            variables = list(backend.variable_names())
    else:
        if not args.schema:
            raise ValueError("--schema is required unless --backend injected")
        data = load_csv(args.data, args.schema)
        if args.cap_levels is not None:
            data = cap_levels(data, coverage=args.cap_levels)
        if args.drop_dominant is not None:
            data = filter_dominant(data, threshold=args.drop_dominant)
        backend = make_backend(data, args.backend)
        variables = list(data.names)
    engine = CIEngine(backend)
    if args.algorithm == PROPOSED:
        graph = learn_structure(variables, engine, alpha=args.alpha, m_ci=args.m_ci, prior=prior)
    else:
        graph = pc_stable(variables, engine, alpha=args.alpha, m_ci=args.m_ci, prior=prior)

    written = []
    if args.out:
        if args.fmt == "json":
            _write(args.out, graph.to_json())
            written = [args.out]
        elif args.fmt == "dot":
            _write(args.out, graph.to_dot())
            written = [args.out]
        else:
            _write(args.out + ".json", graph.to_json())
            _write(args.out + ".dot", graph.to_dot())
            written = [args.out + ".json", args.out + ".dot"]
    _emit(
        {
            "nv": len(graph.vertices),
            "ne": len(graph.skeleton_pairs()),
            "nde": len(graph.directed),
            "out": written,
        }
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.kind == "continuous":
        sim_cfg = ContinuousSimConfig(
            k=args.k, n=args.n, rho=args.rho, theta=args.theta, reps=args.reps,
            alpha=args.alpha, m_ci=args.m_ci, seed=args.seed, threads=args.threads,
        )
        reports = run_continuous_experiment(sim_cfg)
        echo = {
            "kind": "continuous", "k": args.k, "n": args.n, "rho": args.rho,
            "theta": args.theta, "reps": args.reps, "alpha": args.alpha,
            "m_ci": args.m_ci, "seed": args.seed,
        }
    else:
        sim_cfg = CategoricalSimConfig(
            k=args.k, n=args.n, levels=args.levels, max_parents=args.max_parents,
            reps=args.reps, alpha=args.alpha, m_ci=args.m_ci, seed=args.seed,
            threads=args.threads, compute_bic=not args.no_bic,
        )
        reports = run_categorical_experiment(sim_cfg)
        echo = {
            "kind": "categorical", "k": args.k, "n": args.n, "levels": args.levels,
            "max_parents": args.max_parents, "reps": args.reps, "alpha": args.alpha,
            "m_ci": args.m_ci, "seed": args.seed, "bic": not args.no_bic,
        }
    doc = {
        "config": echo,
        "reports": {alg: rep.to_json_obj() for alg, rep in reports.items()},
    }
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    written = []
    if args.out:
        _write(args.out + ".json", text)
        written.append(args.out + ".json")
        if args.fmt == "csv":
            for alg, rep in reports.items():
                if rep.roc is not None:
                    path = f"{args.out}_{alg}_roc.csv"
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


def cmd_score(args: argparse.Namespace) -> int:
    data = load_csv(args.data, args.schema)
    rows = []
    for path in args.graphs:
        report = bic_of_graph(data, _load_graph(path))
        rows.append(
            {
                "graph": path,
                "df": report.total_df,
                "loglik_star": report.total_loglik_star,
                "bic": report.bic,
            }
        )
    if args.out:
        _write(args.out, json.dumps({"rows": rows}, sort_keys=True, indent=2) + "\n")
    header = f"{'graph':<40} {'df':>8} {'loglik*':>14} {'bic':>14}"
    print(header)
    for r in rows:
        print(f"{r['graph']:<40} {r['df']:>8} {r['loglik_star']:>14.3f} {r['bic']:>14.3f}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    written = []
    if args.out:
        fmt = args.fmt or ("dot" if args.out.endswith(".dot") else "json")
        _write(args.out, graph.to_dot() if fmt == "dot" else graph.to_json())
        written.append(args.out)
    result: dict = {"out": written, "nv": len(graph.vertices), "ne": len(graph.skeleton_pairs())}
    goal = args.distances_from
    if goal:
        if goal not in graph.vertices:
            raise errors.UnknownVertex(f"vertex {goal!r} not in graph")
        dist = _bfs_distances(graph, goal)
        result["distances_from"] = goal
        result["within"] = {
            str(k): sum(1 for d in dist.values() if 0 < d <= k)
            for k in range(1, args.max_distance + 1)
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


def _check(args: argparse.Namespace) -> None:
    """Range checks of the numeric options the command has."""
    if hasattr(args, "alpha") and not 0.0 < args.alpha < 1.0:
        raise ValueError(f"--alpha must be in (0, 1), got {args.alpha}")
    if hasattr(args, "m_ci") and args.m_ci < 1:
        raise ValueError(f"--m-ci must be >= 1, got {args.m_ci}")
    if hasattr(args, "threads") and args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    if hasattr(args, "reps") and args.reps < 1:
        raise ValueError(f"--reps must be >= 1, got {args.reps}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check(args)
        return args.run(args)
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
