"""Config-driven orchestration: time series to connection matrices to
networks to analysis reports.

A pipeline config is one JSON document naming the input manifest, the
estimator, the thresholding rule, and a list of analyses. Validation is
all-up-front: every problem in the config is collected and reported before
any computation starts. One global seed fans out to derived per-stage and
per-subject seeds, so reports are byte-identical across runs and across
worker counts.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import __version__
from . import communities, ergm, groupcompare, metrics, nullmodels, resampling, twopart
from .estimators import ESTIMATOR_NAMES, estimate
from .panels import BandSpec, bandpass_filter, load_manifest
from .runtime import derive_seed, parallel_map, resolve_workers, to_json, write_json
from .thresholding import apply_spec, spec_problems

ANALYSIS_TYPES = (
    "metrics",
    "smallworld",
    "community",
    "compare",
    "ergm",
    "twopart",
    "bootstrap",
)


class ConfigError(ValueError):
    """Carries every validation problem found in a config."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid pipeline config:\n" + "\n".join(f"- {p}" for p in self.problems))


@dataclass
class PipelineConfig:
    manifest: str
    estimator: str
    estimator_params: dict
    threshold: dict
    analyses: list
    seed: int
    out_dir: str
    workers: int | None = None
    bandpass: tuple | None = None
    raw: dict = field(default_factory=dict)


def load_config(path, out_dir=None):
    """Read and validate a pipeline config JSON file."""
    with open(path) as fh:
        raw = json.load(fh)
    base = os.path.dirname(os.path.abspath(path))
    return validate_config(raw, base, out_dir=out_dir)


def validate_config(raw, base_dir=".", out_dir=None):
    """Check every field of a raw config dict; raise ConfigError listing all
    problems, or return a PipelineConfig."""
    problems = []
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a JSON object"])

    manifest = raw.get("manifest")
    manifest_doc = None
    subject_count = 0
    if not manifest:
        problems.append("missing 'manifest' (path to the input manifest JSON)")
    else:
        manifest = os.path.join(base_dir, manifest)
        if not os.path.exists(manifest):
            problems.append(f"manifest file not found: {manifest}")
        else:
            try:
                with open(manifest) as fh:
                    manifest_doc = json.load(fh)
                subject_count = len(manifest_doc.get("subject_files", []))
                for rel in manifest_doc.get("subject_files", []):
                    p = os.path.join(os.path.dirname(manifest), rel)
                    if not os.path.exists(p):
                        problems.append(f"subject file not found: {p}")
            except (json.JSONDecodeError, OSError) as exc:
                problems.append(f"manifest unreadable: {exc}")

    est = raw.get("estimator", {})
    if isinstance(est, str):
        est = {"name": est}
    est_name = est_params = None
    if not isinstance(est, dict):
        problems.append(f"estimator must be an object or a name, got {est!r}")
    else:
        est_name = est.get("name")
        if est_name not in ESTIMATOR_NAMES:
            problems.append(
                f"estimator {est_name!r} unknown; choose from {ESTIMATOR_NAMES}"
            )
        est_params = est.get("params", {})

    threshold = raw.get("threshold", {"method": "fixed_threshold", "criterion": "value", "tau": 0.0})
    problems += spec_problems(threshold)

    bandpass = raw.get("bandpass")
    if bandpass is not None:
        try:
            bandpass = (float(bandpass[0]), float(bandpass[1]))
            BandSpec(*bandpass)
        except (TypeError, ValueError, IndexError) as exc:
            problems.append(f"bandpass must be [low_hz, high_hz]: {exc}")

    analyses = raw.get("analyses", [])
    if not isinstance(analyses, list) or not analyses:
        problems.append("'analyses' must be a non-empty list")
        analyses = []
    has_coordinates = bool(manifest_doc and manifest_doc.get("coordinates"))
    for idx, spec in enumerate(analyses):
        tag = f"analyses[{idx}]"
        if not isinstance(spec, dict) or spec.get("type") not in ANALYSIS_TYPES:
            problems.append(
                f"{tag}: type {spec.get('type') if isinstance(spec, dict) else spec!r} "
                f"unknown; choose from {ANALYSIS_TYPES}"
            )
            continue
        params = spec.get("params", {})
        if not isinstance(params, dict):
            problems.append(f"{tag}: params must be an object, got {params!r}")
            continue
        kind = spec["type"]
        if kind == "compare":
            method = params.get("method", "nbs")
            if method not in ("edgewise", "nbs", "spc"):
                problems.append(f"{tag}: compare method {method!r} unknown")
            for key in ("group_a", "group_b"):
                members = params.get(key)
                if not members:
                    problems.append(f"{tag}: compare needs subject index list {key!r}")
                elif manifest_doc and any(
                    not (0 <= int(s) < subject_count) for s in members
                ):
                    problems.append(f"{tag}: {key} indices out of range 0..{subject_count - 1}")
            if method == "spc" and not has_coordinates:
                problems.append(
                    f"{tag}: spc requires node coordinates in the manifest "
                    "(spatial adjacency is built from them)"
                )
            if method in ("nbs", "spc") and "t_threshold" not in params:
                problems.append(f"{tag}: {method} needs 't_threshold'")
        elif kind == "bootstrap":
            subject = params.get("subject", 0)
            if manifest_doc and not (0 <= int(subject) < max(subject_count, 1)):
                problems.append(f"{tag}: bootstrap subject {subject} out of range")
            if "metric" not in params:
                problems.append(f"{tag}: bootstrap needs 'metric'")
            elif params["metric"] not in metrics.METRIC_NAMES:
                problems.append(
                    f"{tag}: metric {params['metric']!r} unknown; "
                    f"choose from {metrics.METRIC_NAMES}"
                )
        elif kind == "metrics":
            for m in params.get("metrics", ["density"]):
                if m not in metrics.METRIC_NAMES:
                    problems.append(
                        f"{tag}: metric {m!r} unknown; choose from {metrics.METRIC_NAMES}"
                    )
        elif kind == "twopart":
            omega = params.get("omega")
            if omega is not None:
                kind_name = omega.get("kind") if isinstance(omega, dict) else None
                if kind_name not in twopart.STRUCTURE_KINDS:
                    problems.append(
                        f"{tag}: omega kind {kind_name!r} unknown; "
                        f"choose from {twopart.STRUCTURE_KINDS}"
                    )
                elif kind_name not in ("identity", "compound_symmetry") and not has_coordinates:
                    problems.append(
                        f"{tag}: omega kind {kind_name!r} needs node coordinates "
                        "in the manifest for dyad distances"
                    )
        elif kind == "ergm":
            for term in params.get("terms", ["edges"]):
                if term not in ergm.TERM_NAMES:
                    problems.append(f"{tag}: ergm term {term!r} unknown")

    seed = raw.get("seed", 0)
    try:
        seed = int(seed)
    except (TypeError, ValueError):
        problems.append(f"seed must be an integer, got {seed!r}")
        seed = 0

    # a config-file out_dir travels with the config; a --out flag is a
    # shell argument and resolves against the caller's working directory
    if out_dir:
        resolved_out = os.path.abspath(out_dir)
    elif raw.get("out_dir"):
        resolved_out = os.path.join(base_dir, raw["out_dir"])
    else:
        resolved_out = None
        problems.append("missing output directory ('out_dir' in config or --out flag)")

    if problems:
        raise ConfigError(problems)
    return PipelineConfig(
        manifest=manifest,
        estimator=est_name,
        estimator_params=est_params,
        threshold=threshold,
        analyses=analyses,
        seed=seed,
        out_dir=resolved_out,
        workers=raw.get("workers"),
        bandpass=bandpass,
        raw=raw,
    )


def _estimate_one(args):
    series, name, params = args
    return estimate(series, name, params)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _cell(v):
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _analysis_metrics(config, params, panel, matrices, networks, seed):
    names = params.get("metrics", ["density", "clustering_mean_local", "global_efficiency"])
    per_subject = [
        {m: metrics.metric_value(g, m) for m in names} for g in networks
    ]
    table_rows = [
        [s] + [per_subject[s][m] for m in names] for s in range(len(networks))
    ]
    _write_csv(
        os.path.join(config.out_dir, "metrics.csv"),
        ["subject"] + list(names),
        table_rows,
    )
    return {
        "metrics": names,
        "per_subject": per_subject,
        "group_mean": {m: float(np.mean([d[m] for d in per_subject])) for m in names},
        "group_std": {m: float(np.std([d[m] for d in per_subject], ddof=1)) if len(per_subject) > 1 else 0.0 for m in names},
    }


def _analysis_smallworld(config, params, panel, matrices, networks, seed):
    subjects = params.get("subjects", list(range(len(networks))))
    out = []
    for s in subjects:
        res = nullmodels.small_world(
            networks[int(s)].binary(),
            null_count=params.get("null_count", 20),
            swaps_per_edge=params.get("swaps_per_edge", 10),
            seed=derive_seed(seed, "subject", s),
            clustering_variant=params.get("clustering_variant", "mean_local"),
            workers=config.workers,
        )
        out.append({"subject": int(s), "result": res})
    return {"per_subject": out}


def _analysis_community(config, params, panel, matrices, networks, seed):
    out = []
    for s, g in enumerate(networks):
        part = communities.louvain(g, seed=derive_seed(seed, "subject", s))
        entry = {"subject": s, "assignment": part.assignment, "q": part.q}
        if params.get("cartography", False):
            entry["roles"] = communities.cartography(g, part.assignment)
        out.append(entry)
    return {"per_subject": out}


def _analysis_compare(config, params, panel, matrices, networks, seed):
    method = params.get("method", "nbs")
    group_a = [matrices[int(s)] for s in params["group_a"]]
    group_b = [matrices[int(s)] for s in params["group_b"]]
    alternative = params.get("alternative", "two_sided")
    if method == "edgewise":
        res = groupcompare.edgewise_compare(
            group_a, group_b, correction=params.get("correction", "bh-fdr")
        )
        pairs = res.edge_pairs()
        _write_csv(
            os.path.join(config.out_dir, "edgewise.csv"),
            ["i", "j", "t", "p", "q"],
            [
                [pairs[e][0], pairs[e][1], res.t[e], res.p[e], res.q[e]]
                for e in range(len(pairs))
            ],
        )
        return res
    if method == "nbs":
        return groupcompare.nbs(
            group_a,
            group_b,
            t_threshold=params["t_threshold"],
            permutations=params.get("permutations", 1000),
            seed=derive_seed(seed, "permutations"),
            alternative=alternative,
        )
    adjacency = groupcompare.adjacency_from_coordinates(
        panel.coordinates, radius=params.get("radius", 1.5)
    )
    return groupcompare.spc(
        group_a,
        group_b,
        t_threshold=params["t_threshold"],
        node_adjacency=adjacency,
        permutations=params.get("permutations", 1000),
        seed=derive_seed(seed, "permutations"),
        alternative=alternative,
    )


def _analysis_ergm(config, params, panel, matrices, networks, seed):
    terms = tuple(params.get("terms", ("edges", "two_stars", "triangles")))
    binaries = [g.binary() for g in networks]
    fits = []
    for s, g in enumerate(binaries):
        try:
            fit = ergm.ergm_mple(g, terms)
            fits.append({"subject": s, "theta": fit.theta, "se": fit.standard_errors})
        except ValueError as exc:
            fits.append({"subject": s, "error": str(exc)})
    rep = ergm.representative_network(
        binaries,
        terms,
        ensemble=params.get("ensemble", 50),
        seed=derive_seed(seed, "representative"),
    )
    rep_path = os.path.join(config.out_dir, "representative_network.tsv")
    rep.save(rep_path)
    return {
        "terms": list(terms),
        "per_subject": fits,
        "representative": rep.meta,
        "representative_edges": rep.edges,
    }


def _analysis_twopart(config, params, panel, matrices, networks, seed):
    omega_spec = params.get("omega")
    omega = None
    if omega_spec:
        omega = twopart.CorrelationStructure(
            kind=omega_spec["kind"],
            **{k: v for k, v in omega_spec.items() if k != "kind"},
        )
    data = twopart.build_dyad_dataset(
        [matrices],
        coordinates=panel.coordinates,
        threshold=params.get("threshold", 0.0),
        covariates=params.get("covariates"),
    )
    fit = twopart.twopart_fit(
        data,
        presence_formula=tuple(params.get("presence_formula", ("intercept",))),
        strength_formula=tuple(params.get("strength_formula", ("intercept",))),
        omega=omega,
        gamma=params.get("gamma", "identity"),
        quad_points=params.get("quad_points", 20),
        maxfev=params.get("maxfev", 2000),
    )
    return {
        "presence": fit.presence,
        "strength": {
            "names": fit.strength.names,
            "beta": fit.strength.beta,
            "se": fit.strength.se,
            "tau2": fit.strength.tau2,
            "sigma_task": fit.strength.sigma_task,
            "omega_kind": fit.strength.omega.kind,
            "omega_params": fit.strength.omega.params(),
            "loglik": fit.strength.loglik,
            "converged": fit.strength.converged,
            "n_rows": fit.strength.n_rows,
        },
    }


def _analysis_bootstrap(config, params, panel, matrices, networks, seed):
    subject = int(params.get("subject", 0))
    return resampling.metric_error(
        panel.subjects[subject],
        metric=params["metric"],
        estimator=config.estimator,
        estimator_params=config.estimator_params,
        threshold_spec=config.threshold,
        replicates=params.get("replicates", 200),
        block_length=params.get("block_length"),
        seed=derive_seed(seed, "subject", subject),
        level=params.get("level", 0.05),
    )


_ANALYSIS_FUNCTIONS = {
    "metrics": _analysis_metrics,
    "smallworld": _analysis_smallworld,
    "community": _analysis_community,
    "compare": _analysis_compare,
    "ergm": _analysis_ergm,
    "twopart": _analysis_twopart,
    "bootstrap": _analysis_bootstrap,
}


def run_pipeline(config):
    """Execute a validated config; returns {analysis label: report path}."""
    os.makedirs(config.out_dir, exist_ok=True)
    panel = load_manifest(config.manifest)
    if config.bandpass is not None:
        panel = bandpass_filter(panel, BandSpec(*config.bandpass))
    est_params = dict(config.estimator_params)
    if config.estimator == "coherence" and "sampling_interval" not in est_params:
        est_params["sampling_interval"] = panel.sampling_interval
    matrices = parallel_map(
        _estimate_one,
        [(s, config.estimator, est_params) for s in panel.subjects],
        workers=config.workers,
    )
    networks = [apply_spec(cm, config.threshold) for cm in matrices]

    written = {}
    counts = {}
    stage_seeds = {}
    for spec in config.analyses:
        kind = spec["type"]
        counts[kind] = counts.get(kind, 0) + 1
        label = kind if counts[kind] == 1 else f"{kind}_{counts[kind]}"
        seed = derive_seed(config.seed, "analysis", label)
        stage_seeds[label] = seed
        result = _ANALYSIS_FUNCTIONS[kind](
            config, spec.get("params", {}), panel, matrices, networks, seed
        )
        report = {
            "analysis": kind,
            "label": label,
            "params": spec.get("params", {}),
            "estimator": {"name": config.estimator, "params": config.estimator_params},
            "threshold": config.threshold,
            "seed": seed,
            "result": result,
        }
        path = os.path.join(config.out_dir, f"{label}.json")
        write_json(path, report)
        written[label] = path

    config_text = to_json(config.raw)
    provenance = {
        "config": config.raw,
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "package_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": config.seed,
        "stage_seeds": stage_seeds,
        "workers": resolve_workers(config.workers),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    write_json(os.path.join(config.out_dir, "provenance.json"), provenance)
    return written
