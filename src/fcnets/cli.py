"""Command-line front end.

One subcommand per analysis family plus `pipeline` for config-driven runs.
Exit codes: 0 success, 1 computational failure (JSON error object on
stderr), 2 usage or validation failure. Reports print to stdout as JSON
unless --out redirects them to a file.
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
from .pipeline import ConfigError, load_config, run_pipeline
from .runtime import to_json
from .thresholding import apply_spec


def _emit(args, obj):
    text = to_json(obj)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_series(path, layout):
    panel = load_timeseries(path, layout=layout)
    return panel.subjects[0]


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


def _threshold_spec_from_args(args):
    spec = {"method": args.strategy}
    if args.strategy == "fixed_threshold":
        spec["criterion"] = args.criterion
        if args.tau is not None:
            spec["tau"] = args.tau
        if args.criterion == "significance":
            spec["alpha"] = args.alpha
            if args.correction != "none":
                spec["correction"] = args.correction
            else:
                spec["correction"] = None
            spec["series_length"] = args.series_length
    elif args.strategy == "fixed_degree":
        spec["k_target"] = args.k
    elif args.strategy == "fixed_density":
        if args.density is not None:
            spec["density"] = args.density
        if args.path_exponent is not None:
            spec["path_exponent"] = args.path_exponent
    elif args.strategy == "weighted":
        spec["policy"] = args.policy
        if args.tau is not None:
            spec["tau"] = args.tau
    if args.negatives and args.strategy in ("fixed_threshold", "fixed_degree", "fixed_density"):
        spec["negatives"] = args.negatives
    return spec


def _cmd_threshold(args):
    cm = load_connection_matrix(args.infile)
    g = apply_spec(cm, _threshold_spec_from_args(args))
    if args.out:
        g.save(args.out)
        return None
    return {"n": g.n, "edges": g.edges, "meta": g.meta}


def _cmd_metrics(args):
    g = load_network(args.infile)
    names = args.metric or ["density"]
    return {m: metrics.metric_value(g, m) for m in names}


def _cmd_smallworld(args):
    g = load_network(args.infile)
    res = nullmodels.small_world(
        g,
        null_count=args.null_count,
        swaps_per_edge=args.swaps_per_edge,
        seed=args.seed,
        clustering_variant=args.clustering_variant,
        workers=args.workers,
    )
    return res


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
    group_a = _load_group(args.group_a)
    group_b = _load_group(args.group_b)
    if args.method == "edgewise":
        res = groupcompare.edgewise_compare(group_a, group_b, correction=args.correction)
        return {
            "method": "edgewise",
            "t": res.t,
            "p": res.p,
            "q": res.q,
            "significant": res.significant_edges(args.alpha),
        }
    test = {
        "t_threshold": args.t_threshold,
        "permutations": args.permutations,
        "seed": args.seed,
        "alternative": args.alternative,
    }
    if args.method == "nbs":
        return groupcompare.nbs(group_a, group_b, **test)
    if not args.coordinates:
        raise ValueError("spc needs --coordinates (CSV of node positions)")
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
    if args.simulate:
        nets = ergm.ergm_simulate(fit.model(), g.n, count=args.simulate, seed=args.seed)
        out["simulated_stats"] = [ergm.ergm_stats(s, terms).tolist() for s in nets]
    return out


def _cmd_twopart(args):
    group = _load_group(args.matrices)
    coords = None
    if args.coordinates:
        coords, _ = _parse_csv_matrix(args.coordinates)
    data = twopart.build_dyad_dataset(
        group, coordinates=coords, threshold=args.presence_threshold
    )
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
    series = _load_series(args.infile, args.layout)
    threshold_spec = json.loads(args.threshold) if args.threshold else None
    return resampling.metric_error(
        series,
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fcnets",
        description="Functional connectivity network analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=True):
        p.add_argument("--out", help="write the report here instead of stdout")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("estimate", help="time series to connection matrix")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--measure", choices=ESTIMATOR_NAMES, default="correlation")
    p.add_argument("--layout", choices=["rows-are-time", "rows-are-nodes"], default="rows-are-time")
    p.add_argument("--band", help="low,high in Hz (coherence)")
    p.add_argument("--params", help="extra estimator parameters as JSON")
    add_common(p, seed=False)
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("threshold", help="connection matrix to network")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument(
        "--strategy",
        choices=["fixed_threshold", "fixed_degree", "fixed_density", "weighted"],
        default="fixed_threshold",
    )
    p.add_argument("--criterion", choices=["value", "significance", "min_connected"], default="value")
    p.add_argument("--tau", type=float)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--correction", choices=["bonferroni", "bh-fdr", "none"], default="bonferroni")
    p.add_argument("--series-length", type=int)
    p.add_argument("--k", type=float, help="target average degree")
    p.add_argument("--density", type=float)
    p.add_argument("--path-exponent", type=float)
    p.add_argument("--policy", choices=["keep_positive", "absolute", "threshold_then_keep"], default="keep_positive")
    p.add_argument("--negatives", choices=["drop", "absolute"])
    add_common(p, seed=False)
    p.set_defaults(fn=_cmd_threshold)

    p = sub.add_parser("metrics", help="graph metrics of a network")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--metric", action="append", choices=metrics.METRIC_NAMES)
    add_common(p, seed=False)
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser("smallworld", help="sigma and omega against null ensembles")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--null-count", type=int, default=20)
    p.add_argument("--swaps-per-edge", type=int, default=10)
    p.add_argument("--clustering-variant", choices=["mean_local", "transitivity"], default="mean_local")
    p.add_argument("--workers", type=int)
    add_common(p)
    p.set_defaults(fn=_cmd_smallworld)

    p = sub.add_parser("community", help="community detection and cartography")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--algorithm", choices=["louvain", "girvan-newman"], default="louvain")
    p.add_argument("--cartography", action="store_true")
    add_common(p)
    p.set_defaults(fn=_cmd_community)

    p = sub.add_parser("compare", help="two-group edge-population tests")
    p.add_argument("--group-a", nargs="+", required=True, help="connection matrix CSVs")
    p.add_argument("--group-b", nargs="+", required=True)
    p.add_argument("--method", choices=["edgewise", "nbs", "spc"], default="nbs")
    p.add_argument("--correction", choices=["bonferroni", "bh-fdr"], default="bh-fdr")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--t-threshold", type=float, default=2.0)
    p.add_argument("--permutations", type=int, default=1000)
    p.add_argument("--alternative", choices=["two_sided", "greater", "less"], default="two_sided")
    p.add_argument("--coordinates", help="CSV of node coordinates (spc)")
    p.add_argument("--radius", type=float, default=1.5, help="spatial adjacency radius (spc)")
    add_common(p)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("ergm", help="fit and simulate graph models")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--terms", nargs="+", default=["edges", "two_stars", "triangles"])
    p.add_argument("--simulate", type=int, help="also simulate this many networks")
    add_common(p)
    p.set_defaults(fn=_cmd_ergm)

    p = sub.add_parser("twopart", help="dyad-level two-part mixed model")
    p.add_argument("--matrices", nargs="+", required=True, help="connection matrix CSVs")
    p.add_argument("--coordinates", help="CSV of node coordinates")
    p.add_argument("--presence-threshold", type=float, default=0.0)
    p.add_argument("--omega", choices=list(twopart.STRUCTURE_KINDS), default="identity")
    p.add_argument("--maxfev", type=int, default=2000)
    add_common(p, seed=False)
    p.set_defaults(fn=_cmd_twopart)

    p = sub.add_parser("bootstrap", help="metric uncertainty via block bootstrap")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--layout", choices=["rows-are-time", "rows-are-nodes"], default="rows-are-time")
    p.add_argument("--metric", required=True, choices=metrics.METRIC_NAMES)
    p.add_argument("--estimator", choices=ESTIMATOR_NAMES, default="correlation")
    p.add_argument("--threshold", help="threshold spec as JSON")
    p.add_argument("--replicates", type=int, default=200)
    p.add_argument("--block-length", type=int)
    add_common(p)
    p.set_defaults(fn=_cmd_bootstrap)

    p = sub.add_parser("pipeline", help="run a JSON pipeline config")
    p.add_argument("--config", required=True)
    add_common(p, seed=False)
    p.set_defaults(fn=_cmd_pipeline)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.fn(args)
    except ConfigError as exc:
        sys.stderr.write(
            to_json({"error": "validation", "problems": exc.problems})
        )
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
