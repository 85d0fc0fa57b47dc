"""Command-line front end.

One subcommand per analysis family plus `pipeline` for config-driven runs.
An analysis subcommand takes the pipeline parameters named in _TABLE_FLAGS
as flags, with the defaults, choices and bounds of the pipeline's tables.
Exit codes: 0 success, 1 computational failure (JSON error object on
stderr), 2 usage or validation failure (a validation failure lists every
problem on stderr, as a pipeline config does). Reports print to stdout as
JSON unless --out redirects them to a file.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import communities, ergm, groupcompare, metrics, nullmodels, resampling, twopart
from .estimators import ESTIMATOR_NAMES, estimate, load_connection_matrix
from .networks import load_network
from .panels import _parse_csv_matrix, load_timeseries
from .pipeline import _CONFIG_PARAMS, ANALYSIS_PARAMS, REQUIRED, ConfigError, _checked_params
from .pipeline import _nested_problems, load_config, run_pipeline
from .runtime import to_json
from .thresholding import apply_spec, spec_problems

_TABLE_FLAGS = {  # analysis subcommand: the table parameters it takes as flags
    "metrics": ("metrics",),
    "smallworld": ("null_count", "swaps_per_edge", "clustering_variant", "seed", "workers"),
    "community": ("cartography", "seed"),
    "compare": ("method", "correction", "t_threshold", "permutations", "alternative", "radius", "seed"),
    "ergm": ("terms", "seed"),
    "twopart": ("threshold", "maxfev"),
    "bootstrap": ("metric", "replicates", "block_length", "seed"),
}
_FLAG_TYPES = {"int": int, "number": float, "str": str}


def _emit(args, obj):
    text = to_json(obj)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_series(path, layout):
    return load_timeseries(path, layout=layout).subjects[0]


def _cmd_estimate(args):
    series = _load_series(args.infile, args.layout)
    params = json.loads(args.params) if args.params else {}
    if args.band:
        params["band"] = [float(x) for x in args.band.split(",")]
    cm = estimate(series, args.measure, params)
    if args.out:
        cm.save(args.out)
        return None
    return {"measure": cm.measure, "values": cm.values, "params": cm.params}


def _checked_spec(spec):
    """A threshold spec given as a flag; raises ConfigError if spec_problems
    finds any."""
    problems = spec_problems(spec)
    if problems:
        raise ConfigError(problems)
    return spec


def _cmd_threshold(args):
    spec = _checked_spec(args.spec)
    g = apply_spec(load_connection_matrix(args.infile), spec)
    if args.out:
        g.save(args.out)
        return None
    return {"n": g.n, "edges": g.edges, "meta": g.meta}


def _cmd_metrics(args):
    g = load_network(args.infile)
    return {m: metrics.metric_value(g, m) for m in args.metrics}


def _cmd_smallworld(args):
    return nullmodels.small_world(
        load_network(args.infile),
        null_count=args.null_count,
        swaps_per_edge=args.swaps_per_edge,
        seed=args.seed,
        clustering_variant=args.clustering_variant,
        workers=args.workers,
    )


def _cmd_community(args):
    g = load_network(args.infile)
    if args.algorithm == "louvain":
        part = communities.louvain(g, seed=args.seed)
    else:
        part = communities.girvan_newman(g)
    out = {"algorithm": args.algorithm, "assignment": part.assignment, "q": part.q}
    if args.cartography:
        out["roles"] = communities.cartography(g, part.assignment)
    return out


def _load_group(paths):
    return [load_connection_matrix(p) for p in paths]


def _cmd_compare(args):
    group_a, group_b = _load_group(args.group_a), _load_group(args.group_b)
    if args.method == "edgewise":
        return groupcompare.edgewise_compare(group_a, group_b, correction=args.correction)
    test = {
        "t_threshold": args.t_threshold,
        "permutations": args.permutations,
        "seed": args.seed,
        "alternative": args.alternative,
    }
    if args.method == "nbs":
        return groupcompare.nbs(group_a, group_b, **test)
    coords, _ = _parse_csv_matrix(args.coordinates)
    adjacency = groupcompare.adjacency_from_coordinates(coords, radius=args.radius)
    return groupcompare.spc(group_a, group_b, node_adjacency=adjacency, **test)


def _cmd_ergm(args):
    g = load_network(args.infile).binary()
    terms = tuple(args.terms)
    fit = ergm.ergm_mple(g, terms)
    out = {
        "terms": list(terms),
        "theta": fit.theta,
        "standard_errors": fit.standard_errors,
        "pseudo_loglik": fit.pseudo_loglik,
        "stats": ergm.ergm_stats(g, terms).tolist(),
    }
    if args.simulate is not None:
        nets = ergm.ergm_simulate(fit.model(), g.n, count=args.simulate, seed=args.seed)
        out["simulated_stats"] = [ergm.ergm_stats(s, terms).tolist() for s in nets]
    return out


def _cmd_twopart(args):
    group = _load_group(args.matrices)
    coords = _parse_csv_matrix(args.coordinates)[0] if args.coordinates else None
    data = twopart.build_dyad_dataset(group, coordinates=coords, threshold=args.threshold)
    omega = twopart.CorrelationStructure(args.omega)
    fit = twopart.twopart_fit(data, omega=omega, maxfev=args.maxfev)
    return {
        "presence": fit.presence,
        "strength_beta": fit.strength.beta,
        "strength_se": fit.strength.se,
        "strength_tau2": fit.strength.tau2,
        "omega_kind": fit.strength.omega.kind,
        "omega_params": fit.strength.omega.params(),
        "strength_loglik": fit.strength.loglik,
    }


def _cmd_bootstrap(args):
    threshold_spec = None if args.threshold is None else _checked_spec(args.threshold)
    return resampling.metric_error(
        _load_series(args.infile, args.layout),
        metric=args.metric,
        estimator=args.estimator,
        threshold_spec=threshold_spec,
        replicates=args.replicates,
        block_length=args.block_length,
        seed=args.seed,
    )


def _cmd_pipeline(args):
    config = load_config(args.config, out_dir=args.out)
    written = run_pipeline(config)
    return {"reports": written, "out_dir": config.out_dir}


def _add_table_flags(p, command):
    """One flag per table parameter of command, absent from the namespace
    unless given."""
    table = {**_CONFIG_PARAMS, **ANALYSIS_PARAMS[command]}
    for name in _TABLE_FLAGS[command]:
        param, flag = table[name], "--" + name.replace("_", "-")
        if param.kind == "bool":
            p.add_argument(flag, action="store_true", default=argparse.SUPPRESS)
            continue
        p.add_argument(
            flag,
            type=_FLAG_TYPES[param.kind],
            nargs="+" if param.many else None,
            choices=param.choices or None,
            required=param.default is REQUIRED,
            default=argparse.SUPPRESS,
        )


def _table_values(args):
    """The table parameters of args.command, given or defaulted; raises
    ConfigError listing every problem the pipeline would find in them."""
    table = {**_CONFIG_PARAMS, **ANALYSIS_PARAMS[args.command]}
    table = {name: table[name] for name in _TABLE_FLAGS[args.command]}
    given = {name: getattr(args, name) for name in table if hasattr(args, name)}
    checked, problems = _checked_params(args.command, table, given, None)
    problems = problems or _nested_problems(args.command, checked)
    if checked.get("method") == "spc" and not args.coordinates:
        problems = [*problems, "compare: spc needs node coordinates (--coordinates)"]
    if problems:
        raise ConfigError(problems)
    return checked


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fcnets",
        description="Functional connectivity network analysis",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(command, fn, help, infile=True):
        p = sub.add_parser(command, help=help, allow_abbrev=False)
        p.set_defaults(fn=fn)
        if infile:
            p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", help="write the report here instead of stdout")
        if command in _TABLE_FLAGS:
            _add_table_flags(p, command)
        return p

    layouts = ["rows-are-time", "rows-are-nodes"]
    p = add("estimate", _cmd_estimate, "time series to connection matrix")
    p.add_argument("--measure", choices=ESTIMATOR_NAMES, default="correlation")
    p.add_argument("--layout", choices=layouts, default="rows-are-time")
    p.add_argument("--band", help="low,high in Hz (coherence)")
    p.add_argument("--params", help="extra estimator parameters as JSON")

    p = add("threshold", _cmd_threshold, "connection matrix to network")
    p.add_argument("--spec", type=json.loads, required=True, help="threshold spec as JSON")

    add("metrics", _cmd_metrics, "graph metrics of a network")
    add("smallworld", _cmd_smallworld, "sigma and omega against null ensembles")

    p = add("community", _cmd_community, "community detection and cartography")
    p.add_argument("--algorithm", choices=["louvain", "girvan-newman"], default="louvain")

    p = add("compare", _cmd_compare, "two-group edge-population tests", infile=False)
    p.add_argument("--group-a", nargs="+", required=True, help="connection matrix CSVs")
    p.add_argument("--group-b", nargs="+", required=True)
    p.add_argument("--coordinates", help="CSV of node coordinates (spc)")

    p = add("ergm", _cmd_ergm, "fit and simulate graph models")
    p.add_argument("--simulate", type=int, help="also simulate this many networks")

    p = add("twopart", _cmd_twopart, "dyad-level two-part mixed model", infile=False)
    p.add_argument("--matrices", nargs="+", required=True, help="connection matrix CSVs")
    p.add_argument("--coordinates", help="CSV of node coordinates")
    p.add_argument("--omega", choices=list(twopart.STRUCTURE_KINDS), default="identity")

    p = add("bootstrap", _cmd_bootstrap, "metric uncertainty via block bootstrap")
    p.add_argument("--layout", choices=layouts, default="rows-are-time")
    p.add_argument("--estimator", choices=ESTIMATOR_NAMES, default="correlation")
    p.add_argument("--threshold", type=json.loads, help="threshold spec as JSON")

    p = add("pipeline", _cmd_pipeline, "run a JSON pipeline config", infile=False)
    p.add_argument("--config", required=True)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command in _TABLE_FLAGS:
            vars(args).update(_table_values(args))
        result = args.fn(args)
    except ConfigError as exc:
        sys.stderr.write(to_json({"error": "validation", "problems": exc.problems}))
        return 2
    except (ValueError, RuntimeError, OSError, KeyError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(to_json({"error": type(exc).__name__, "message": str(exc)}))
        return 1
    if result is not None:
        if args.fn is _cmd_pipeline:
            sys.stdout.write(to_json(result))
        else:
            _emit(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
