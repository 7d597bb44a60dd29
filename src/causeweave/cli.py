"""Command-line front end: learn, simulate, score, export.

Exit codes: 0 on success, 1 on a computational failure, 2 on a usage or
input problem: an ``errors.InputError``, a ``ValueError`` or a file that
cannot be opened.  Failures other than argparse usage errors print one
machine-readable JSON object to stderr:
``{"error": {"type": ..., "message": ...}}``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import errors
from .citest import DEFAULT_ALPHA, DEFAULT_MAX_COND, CIEngine, InjectedBackend, make_backend
from .dataset import cap_levels, filter_dominant, load_csv, load_schema, read_input
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
    errors.InputError,
    ValueError,
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
    PermissionError,
)

_GRAPH_FORMATS = {
    "json": (Cpdag.to_json, Cpdag.from_json),
    "dot": (Cpdag.to_dot, cpdag_from_dot),
}


def _add_ci(p: argparse.ArgumentParser, default: str = "%(default)s") -> None:
    p.add_argument("--alpha", type=float, help=f"test size (default {default})")
    p.add_argument("--m-ci", type=int, dest="m_ci",
                   help=f"conditioning-set size cap (default {default})")


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
    p_learn.set_defaults(run=cmd_learn, alpha=DEFAULT_ALPHA, m_ci=DEFAULT_MAX_COND)

    # An option not given is left out, and the kind's config supplies its default.
    p_sim = sub.add_parser("simulate", help="run a Monte-Carlo recovery benchmark",
                           argument_default=argparse.SUPPRESS)
    p_sim.add_argument("--kind", choices=("continuous", "categorical"), default="categorical")
    p_sim.add_argument("--k", type=int, help="number of variables")
    p_sim.add_argument("--n", type=int, help="sample size per replicate")
    p_sim.add_argument("--rho", type=float, help="edge probability (continuous)")
    p_sim.add_argument("--theta", type=float, help="signal strength (continuous)")
    p_sim.add_argument("--levels", type=int, help="levels per variable (categorical)")
    p_sim.add_argument("--max-parents", type=int, dest="max_parents",
                       help="parent cap per variable (categorical)")
    p_sim.add_argument("--reps", type=int)
    p_sim.add_argument("--no-bic", action="store_false", dest="compute_bic",
                       help="skip criterion scoring (categorical)")
    _add_ci(p_sim, "from the kind's config")
    p_sim.add_argument("--seed", type=int, help="master random seed")
    p_sim.add_argument("--threads", type=int, help="worker processes")
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
    p_export.add_argument("--max-distance", type=int, default=3, dest="max_distance",
                          help="largest k reported, at most the vertex count (default %(default)s)")
    _add_out(p_export, ("json", "dot"))
    p_export.set_defaults(run=cmd_export)

    return parser


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _graph_format(path: str, fmt: str | None = None):
    """``(writer, parser)`` of ``fmt``, or of the path's suffix when no
    format is given: ``.dot`` is DOT, anything else JSON."""
    return _GRAPH_FORMATS[fmt or ("dot" if path.endswith(".dot") else "json")]


def _load_graph(path: str) -> Cpdag:
    return _graph_format(path)[1](read_input(path))


def _check_declared(names) -> None:
    """Refuse a schema with no variable, over which a learn would print an
    empty graph; ``score`` reports the graph vertex such a schema lacks."""
    if not names:
        raise errors.SchemaError("schema declares no variables")


def _restricted(prior: PriorKnowledge, names) -> PriorKnowledge:
    """``prior`` without the tiers and pairs that name a vertex outside
    ``names``."""
    kept = set(names)
    return PriorKnowledge(
        tiers={v: tier for v, tier in prior.tiers.items() if v in kept},
        forbidden=[pair for pair in prior.forbidden if kept.issuperset(pair)],
        required=[pair for pair in prior.required if kept.issuperset(pair)],
    )


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def cmd_learn(args: argparse.Namespace) -> int:
    prior = PriorKnowledge.from_json(args.prior) if args.prior else None
    if args.backend == "injected":
        options = {"--cap-levels": args.cap_levels, "--drop-dominant": args.drop_dominant}
        for option, value in options.items():
            if value is not None:
                raise ValueError(f"{option} applies to CSV data, not to --backend injected")
        backend = InjectedBackend.from_json(args.data)
        if args.schema:
            variables = [v.name for v in load_schema(args.schema)]
            _check_declared(variables)
        else:
            variables = list(backend.variable_names())
            if not variables:
                raise errors.InputError("injected results name no variables")
    else:
        if not args.schema:
            raise ValueError("--schema is required unless --backend injected")
        data = load_csv(args.data, args.schema)
        _check_declared(data.names)
        if args.cap_levels is not None:
            data = cap_levels(data, coverage=args.cap_levels)
        if args.drop_dominant is not None:
            kept = filter_dominant(data, threshold=args.drop_dominant)
            if not kept.names:
                raise errors.InputError(f"--drop-dominant {args.drop_dominant} leaves no variable")
            if prior:
                prior.check(data.names)  # a name the schema lacks is refused
                prior = _restricted(prior, kept.names)
            data = kept
        backend = make_backend(data, args.backend)
        variables = list(data.names)
    engine = CIEngine(backend)
    if args.algorithm == PROPOSED:
        graph = learn_structure(variables, engine, alpha=args.alpha, m_ci=args.m_ci, prior=prior)
    else:
        graph = pc_stable(variables, engine, alpha=args.alpha, m_ci=args.m_ci, prior=prior)

    written = []
    if args.out:
        written = [args.out] if args.fmt else [f"{args.out}.{fmt}" for fmt in _GRAPH_FORMATS]
        for path in written:
            _write(path, _graph_format(path, args.fmt)[0](graph))
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
    config, experiment = (
        (ContinuousSimConfig, run_continuous_experiment)
        if args.kind == "continuous"
        else (CategoricalSimConfig, run_categorical_experiment)
    )
    fields = {f.name for f in dataclasses.fields(config)}
    own = ("command", "run", "kind", "out", "fmt")
    given = {key: value for key, value in vars(args).items() if key not in own}
    extra = [name for name in given if name not in fields]
    if extra:
        flag = "--no-bic" if extra[0] == "compute_bic" else "--" + extra[0].replace("_", "-")
        raise ValueError(f"{flag} must be left out with --kind {args.kind}")
    sim_cfg = config(**given)
    reports = experiment(sim_cfg)
    echo = {
        "bic" if key == "compute_bic" else key: value
        for key, value in dataclasses.asdict(sim_cfg).items()
        if key != "threads"
    }
    doc = {
        "config": {"kind": args.kind, **echo},
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
        _write(args.out, _graph_format(args.out, args.fmt)[0](graph))
        written.append(args.out)
    result: dict = {"out": written, "nv": len(graph.vertices), "ne": len(graph.skeleton_pairs())}
    goal = args.distances_from
    if goal:
        if goal not in graph.vertices:
            raise errors.UnknownVertex(f"vertex {goal!r} not in graph")
        dist = _bfs_distances(graph, goal)
        result["distances_from"] = goal
        # No shortest path has more than nv - 1 steps, so later counts repeat.
        result["within"] = {
            str(k): sum(1 for d in dist.values() if 0 < d <= k)
            for k in range(1, min(args.max_distance, len(graph.vertices)) + 1)
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
    if hasattr(args, "k") and args.k < 2:
        raise ValueError(f"--k must be >= 2, got {args.k}")
    if hasattr(args, "max_distance") and args.max_distance < 1:
        raise ValueError(f"--max-distance must be >= 1, got {args.max_distance}")


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
