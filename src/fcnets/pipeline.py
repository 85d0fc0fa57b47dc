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
from functools import partial

import numpy as np
import scipy

from . import __version__
from . import communities, ergm, groupcompare, metrics, nullmodels, resampling, twopart
from .estimators import ESTIMATOR_NAMES, estimate
from .panels import BandSpec, bandpass_filter, load_manifest
from .runtime import derive_seed, parallel_map, resolve_workers, to_json, write_json
from .thresholding import apply_spec, spec_problems

REQUIRED = object()  # the default of a parameter that must be given


@dataclass(frozen=True)
class Param:
    """A config parameter: its JSON kind (a key of _KINDS; true and false are
    neither integers nor numbers), default (called with the subject count if
    callable; None also admits null), allowed values, and bounds, inclusive
    for integers and exclusive for numbers. many: a list of min_items or more."""

    kind: str
    default: object = REQUIRED
    choices: tuple = ()
    low: float | None = None
    high: float | None = None
    many: bool = False
    min_items: int = 0


_KINDS = {  # kind: (the types json.load gives for it, one value, a list of values)
    "int": ((int,), "an integer", "integers"),
    "subject": ((int,), "a subject index", "subject indices"),
    "number": ((int, float), "a number", "numbers"),
    "str": ((str,), "a string", "strings"),
    "bool": ((bool,), "true or false", "booleans"),
    "object": ((dict,), "an object", "objects"),
}
_DEFAULT_METRICS = ("density", "clustering_mean_local", "global_efficiency")

ANALYSIS_PARAMS = {
    "metrics": {"metrics": Param("str", _DEFAULT_METRICS, metrics.METRIC_NAMES, many=True)},
    "smallworld": {
        "subjects": Param("subject", lambda count: list(range(count)), many=True),
        "null_count": Param("int", 20, low=1),
        "swaps_per_edge": Param("int", 10, low=1),
        "clustering_variant": Param("str", "mean_local", ("mean_local", "transitivity")),
    },
    "community": {"cartography": Param("bool", False)},
    "compare": {
        "method": Param("str", "nbs", ("edgewise", "nbs", "spc")),
        "group_a": Param("subject", many=True, min_items=2),
        "group_b": Param("subject", many=True, min_items=2),
        "correction": Param("str", "bh-fdr", ("bonferroni", "bh-fdr")),
        "t_threshold": Param("number", None, low=0),
        "permutations": Param("int", 1000, low=100),
        "alternative": Param("str", "two_sided", ("two_sided", "greater", "less")),
        "radius": Param("number", 1.5, low=0),
    },
    "ergm": {
        "terms": Param("str", ergm.TERM_NAMES, ergm.TERM_NAMES, many=True),
        "ensemble": Param("int", 50, low=1),
    },
    "twopart": {
        "omega": Param("object", None),
        "threshold": Param("number", 0.0),
        "covariates": Param("object", None),
        "presence_formula": Param("str", ("intercept",), many=True),
        "strength_formula": Param("str", ("intercept",), many=True),
        "quad_points": Param("int", 20, low=1),
        "maxfev": Param("int", 2000, low=1),
    },
    "bootstrap": {
        "subject": Param("subject", 0),
        "metric": Param("str", REQUIRED, metrics.METRIC_NAMES),
        "replicates": Param("int", 200, low=10),
        "block_length": Param("int", None, low=2),
        "level": Param("number", 0.05, low=0, high=1),
    },
}
ANALYSIS_TYPES = tuple(ANALYSIS_PARAMS)
_CONFIG_PARAMS = {
    "seed": Param("int", 0),
    "workers": Param("int", None, low=1),
    "out_dir": Param("str", None),
}
_CONFIG_KEYS = ("manifest", "estimator", "threshold", "bandpass", "analyses", *_CONFIG_PARAMS)


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
    analyses: list  # (type, params as given, params checked and defaulted)
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


def _checked_params(tag, table, params, subject_count):
    """(params with the table's defaults filled in, problems). Subject
    indices are checked against subject_count unless it is None."""
    problems = [
        f"{tag}: unknown parameter {k!r}; known: {list(table)}" for k in params if k not in table
    ]
    checked = {}
    for name, param in table.items():
        if name in params:
            value = checked[name] = params[name]
            if value is not None or param.default is not None:
                problems += _value_problems(f"{tag}: {name}", param, value, subject_count)
        elif param.default is REQUIRED:
            problems.append(f"{tag}: {name!r} is required")
        else:
            default = param.default
            checked[name] = default(subject_count or 0) if callable(default) else default
    return checked, problems


def _unknown_keys(tag, obj, known):
    return [f"{tag}: unknown key {k!r}; known: {list(known)}" for k in obj if k not in known]


def _value_problems(label, param, value, subject_count):
    """What is wrong with one parameter value: a list of at most one problem."""
    types, one, many = _KINDS[param.kind]
    items = value if param.many and type(value) is list else [value]
    if (param.many and type(value) is not list) or any(type(v) not in types for v in items):
        return [f"{label} must be {f'a list of {many}' if param.many else one}, got {value!r}"]
    if len(items) < param.min_items:
        return [f"{label} must list at least {param.min_items} values, got {value!r}"]
    low, high = param.low, param.high
    if param.kind == "subject":
        low, high = 0, None if subject_count is None else subject_count - 1
    closed = param.kind != "number"
    for v in items:
        if param.choices and v not in param.choices:
            return [f"{label} {v!r} unknown; choose from {param.choices}"]
        if low is not None and (v < low if closed else not v > low):
            return [f"{label} must be {'>=' if closed else '>'} {low}, got {v!r}"]
        if high is not None and (v > high if closed else not v < high):
            return [f"{label} must be {'<=' if closed else '<'} {high}, got {v!r}"]
    return []


def _nested_problems(tag, checked):
    """Problems inside params that passed the table: ergm terms must start
    with edges and not repeat, a twopart omega must build a
    CorrelationStructure, which then replaces the omega dict, and nbs and
    spc need a t_threshold."""
    problems = []
    method = checked.get("method")
    if method in ("nbs", "spc") and checked["t_threshold"] is None:
        problems.append(f"{tag}: {method} needs 't_threshold'")
    if "terms" in checked:
        try:
            ergm._check_terms(checked["terms"])
        except ValueError as exc:
            problems.append(f"{tag}: terms: {exc}")
    if checked.get("omega") is not None:
        try:
            checked["omega"] = twopart.CorrelationStructure(**checked["omega"])
        except (TypeError, ValueError) as exc:
            problems.append(f"{tag}: omega: {exc}")
    return problems


def validate_config(raw, base_dir=".", out_dir=None):
    """Check every field of a raw config dict; raise ConfigError listing all
    problems, or return a PipelineConfig."""
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a JSON object"])
    problems = _unknown_keys("config", raw, _CONFIG_KEYS)

    manifest = raw.get("manifest")
    manifest_doc = None
    subject_count = None  # known once the manifest is read
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
                subject_files = manifest_doc.get("subject_files", [])
                subject_count = len(subject_files)
                for rel in subject_files:
                    p = os.path.join(os.path.dirname(manifest), rel)
                    if not os.path.exists(p):
                        problems.append(f"subject file not found: {p}")
            except (json.JSONDecodeError, OSError, AttributeError, TypeError) as exc:
                problems.append(f"manifest unreadable: {exc}")

    est = raw.get("estimator", {})
    if isinstance(est, str):
        est = {"name": est}
    est_name = est_params = None
    if not isinstance(est, dict):
        problems.append(f"estimator must be an object or a name, got {est!r}")
    else:
        problems += _unknown_keys("estimator", est, ("name", "params"))
        est_name = est.get("name")
        if est_name not in ESTIMATOR_NAMES:
            problems.append(f"estimator {est_name!r} unknown; choose from {ESTIMATOR_NAMES}")
        est_params = est.get("params", {})
        if not isinstance(est_params, dict):
            problems.append(f"estimator params must be an object, got {est_params!r}")

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
    has_coordinates = isinstance(manifest_doc, dict) and bool(manifest_doc.get("coordinates"))
    checked_analyses = []
    for idx, spec in enumerate(analyses):
        tag = f"analyses[{idx}]"
        if not isinstance(spec, dict) or spec.get("type") not in ANALYSIS_TYPES:
            problems.append(
                f"{tag}: type {spec.get('type') if isinstance(spec, dict) else spec!r} "
                f"unknown; choose from {ANALYSIS_TYPES}"
            )
            continue
        problems += _unknown_keys(tag, spec, ("type", "params"))
        params = spec.get("params", {})
        if not isinstance(params, dict):
            problems.append(f"{tag}: params must be an object, got {params!r}")
            continue
        checked, found = _checked_params(tag, ANALYSIS_PARAMS[spec["type"]], params, subject_count)
        problems += found or _nested_problems(tag, checked)
        checked_analyses.append((spec["type"], params, checked))
        method, omega = checked.get("method"), checked.get("omega")
        distance_omega = isinstance(omega, twopart.CorrelationStructure) and (
            omega.kind not in twopart.DISTANCE_FREE_KINDS
        )
        if not has_coordinates and (method == "spc" or distance_omega):
            user = "spc" if method == "spc" else f"omega kind {omega.kind!r}"
            problems.append(f"{tag}: {user} needs node coordinates in the manifest")

    given = {key: raw[key] for key in _CONFIG_PARAMS if key in raw}
    top, found = _checked_params("config", _CONFIG_PARAMS, given, None)
    problems += found

    # a config-file out_dir travels with the config; a --out flag is a
    # shell argument and resolves against the caller's working directory
    if out_dir:
        resolved_out = os.path.abspath(out_dir)
    elif raw.get("out_dir") and isinstance(raw["out_dir"], str):
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
        analyses=checked_analyses,
        seed=top["seed"],
        out_dir=resolved_out,
        workers=top["workers"],
        bandpass=bandpass,
        raw=raw,
    )


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        for row in [header, *rows]:
            fh.write(",".join(format(v, ".12g") if isinstance(v, float) else str(v) for v in row))
            fh.write("\n")


def _metric_values(g, names):
    """{metric: value} for one network; a metric that raises ValueError gets
    None and its message under "errors"."""
    values, errors = {}, {}
    for m in names:
        try:
            values[m] = metrics.metric_value(g, m)
        except ValueError as exc:
            values[m], errors[m] = None, str(exc)
    return {**values, "errors": errors} if errors else values


def _analysis_metrics(config, params, panel, matrices, networks, seed, suffix=""):
    """Per-subject metrics; group mean and std over the subjects with a value
    (null when none has one)."""
    names = params["metrics"]
    per_subject = [_metric_values(g, names) for g in networks]
    rows = [
        [s] + ["" if values[m] is None else values[m] for m in names]
        for s, values in enumerate(per_subject)
    ]
    _write_csv(os.path.join(config.out_dir, f"metrics{suffix}.csv"), ["subject", *names], rows)
    have = {m: [d[m] for d in per_subject if d[m] is not None] for m in names}
    return {
        "metrics": names,
        "per_subject": per_subject,
        "group_mean": {m: float(np.mean(v)) if v else None for m, v in have.items()},
        "group_std": {
            m: float(np.std(v, ddof=1)) if len(v) > 1 else (0.0 if v else None)
            for m, v in have.items()
        },
    }


def _analysis_smallworld(config, params, panel, matrices, networks, seed, suffix=""):
    out = []
    for s in params["subjects"]:
        res = nullmodels.small_world(
            networks[s].binary(),
            null_count=params["null_count"],
            swaps_per_edge=params["swaps_per_edge"],
            seed=derive_seed(seed, "subject", s),
            clustering_variant=params["clustering_variant"],
            workers=config.workers,
        )
        out.append({"subject": s, "result": res})
    return {"per_subject": out}


def _analysis_community(config, params, panel, matrices, networks, seed, suffix=""):
    out = []
    for s, g in enumerate(networks):
        part = communities.louvain(g, seed=derive_seed(seed, "subject", s))
        entry = {"subject": s, "assignment": part.assignment, "q": part.q}
        if params["cartography"]:
            entry["roles"] = communities.cartography(g, part.assignment)
        out.append(entry)
    return {"per_subject": out}


def _analysis_compare(config, params, panel, matrices, networks, seed, suffix=""):
    method = params["method"]
    group_a = [matrices[s] for s in params["group_a"]]
    group_b = [matrices[s] for s in params["group_b"]]
    if method == "edgewise":
        res = groupcompare.edgewise_compare(group_a, group_b, correction=params["correction"])
        rows = [[i, j, t, p, q] for (i, j), t, p, q in zip(res.edge_pairs(), res.t, res.p, res.q)]
        _write_csv(os.path.join(config.out_dir, f"edgewise{suffix}.csv"), ["i", "j", "t", "p", "q"], rows)
        return res
    test = {
        "t_threshold": params["t_threshold"],
        "permutations": params["permutations"],
        "seed": derive_seed(seed, "permutations"),
        "alternative": params["alternative"],
    }
    if method == "nbs":
        return groupcompare.nbs(group_a, group_b, **test)
    adjacency = groupcompare.adjacency_from_coordinates(panel.coordinates, radius=params["radius"])
    return groupcompare.spc(group_a, group_b, node_adjacency=adjacency, **test)


def _analysis_ergm(config, params, panel, matrices, networks, seed, suffix=""):
    terms = params["terms"]
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
        ensemble=params["ensemble"],
        seed=derive_seed(seed, "representative"),
    )
    rep.save(os.path.join(config.out_dir, "representative_network.tsv"))
    return {
        "terms": list(terms),
        "per_subject": fits,
        "representative": rep.meta,
        "representative_edges": rep.edges,
    }


def _analysis_twopart(config, params, panel, matrices, networks, seed, suffix=""):
    data = twopart.build_dyad_dataset(
        [matrices],
        coordinates=panel.coordinates,
        threshold=params["threshold"],
        covariates=params["covariates"],
    )
    fit = twopart.twopart_fit(
        data,
        presence_formula=params["presence_formula"],
        strength_formula=params["strength_formula"],
        omega=params["omega"],
        quad_points=params["quad_points"],
        maxfev=params["maxfev"],
    )
    strength = fit.strength
    kept = ("names", "beta", "se", "tau2", "sigma_task", "loglik", "converged", "n_rows")
    return {
        "presence": fit.presence,
        "strength": {
            **{name: getattr(strength, name) for name in kept},
            "omega_kind": strength.omega.kind,
            "omega_params": strength.omega.params(),
        },
    }


def _analysis_bootstrap(config, params, panel, matrices, networks, seed, suffix=""):
    subject = params["subject"]
    return resampling.metric_error(
        panel.subjects[subject],
        metric=params["metric"],
        estimator=config.estimator,
        estimator_params=config.estimator_params,
        threshold_spec=config.threshold,
        replicates=params["replicates"],
        block_length=params["block_length"],
        seed=derive_seed(seed, "subject", subject),
        level=params["level"],
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
    """Execute a validated config; returns {analysis label: report path}.

    Once every subject's connection matrix and network exist, the panel
    keeps only the series of the subjects a bootstrap analysis resamples;
    the other entries of panel.subjects become None, so the group analyses
    run without the estimation input in memory.
    """
    workers = resolve_workers(config.workers)
    os.makedirs(config.out_dir, exist_ok=True)
    panel = load_manifest(config.manifest)
    if config.bandpass is not None:
        panel = bandpass_filter(panel, BandSpec(*config.bandpass))
    est_params = dict(config.estimator_params)
    if config.estimator == "coherence" and "sampling_interval" not in est_params:
        est_params["sampling_interval"] = panel.sampling_interval
    matrices = parallel_map(
        partial(estimate, name=config.estimator, params=est_params),
        panel.subjects,
        workers=workers,
    )
    networks = [apply_spec(cm, config.threshold) for cm in matrices]
    resampled = {params["subject"] for kind, _, params in config.analyses if kind == "bootstrap"}
    panel.subjects = [x if s in resampled else None for s, x in enumerate(panel.subjects)]

    written, counts, stage_seeds = {}, {}, {}
    for kind, given, params in config.analyses:
        counts[kind] = counts.get(kind, 0) + 1
        suffix = "" if counts[kind] == 1 else f"_{counts[kind]}"
        label = kind + suffix
        seed = derive_seed(config.seed, "analysis", label)
        stage_seeds[label] = seed
        try:
            result = _ANALYSIS_FUNCTIONS[kind](config, params, panel, matrices, networks, seed, suffix)
        except TypeError as exc:
            raise ValueError(f"analysis {label!r} failed: {exc}") from exc
        report = {
            "analysis": kind,
            "label": label,
            "params": given,
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
        "workers": workers,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    write_json(os.path.join(config.out_dir, "provenance.json"), provenance)
    return written
