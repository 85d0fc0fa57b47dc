"""Seeded input generators for the benchmark workloads.

Everything here uses numpy and scipy only, never fcnets: the program under
test receives the files written by the ``write_*`` functions (and, for the
power-law fit, one generated array), and the planted structure returned
alongside is what the output checks compare against.
"""

from __future__ import annotations

import json
import os

import numpy as np
from scipy.special import zeta

# --- cohort: 20 + 20 subjects, n = 90, T = 300 -----------------------------

COHORT_GROUP = 20
COHORT_N = 90
COHORT_T = 300
COHORT_MODULES = 6
COHORT_PLANTED = 6  # nodes that share an extra group-B factor
COHORT_K_TARGET = 10
COHORT_NBS_T = 3.5
COHORT_SPC_T = 3.0
COHORT_SPC_RADIUS = 1.5
COHORT_PERMUTATIONS = 500
COHORT_BOOTSTRAP_REPLICATES = 200
COHORT_BOOTSTRAP_METRIC = "global_efficiency"
COHORT_METRICS = (
    "density",
    "mean_degree",
    "clustering_mean_local",
    "global_efficiency",
    "local_efficiency",
    "path_length",
)

# --- graph_nulls ------------------------------------------------------------

NULLS_N = 1000
NULLS_K = 10
NULLS_WS_P = 0.1
NULLS_NULL_COUNT = 2
NULLS_SWAPS_PER_EDGE = 10
GN_MODULES = 4
GN_MODULE_SIZE = 15
GN_EDGES_IN = 42  # per module, of 105 pairs
GN_EDGES_OUT = 14  # between modules, of 1350 pairs
POWERLAW_SIZE = 2000
POWERLAW_ALPHA = 2.5  # fixed: the fit's cost grows with the tail's spread of values
POWERLAW_XMIN = 2
POWERLAW_REPS = 99

# --- group_models -----------------------------------------------------------

ERGM_SUBJECTS = 8
ERGM_N = 60
ERGM_T = 300
ERGM_MODULES = 4
ERGM_DENSITY = 0.12
ERGM_TERMS = ("edges", "two_stars", "triangles")
ERGM_ENSEMBLE = 30
DYAD_SUBJECTS = 16
DYAD_N = 8
DYAD_BETA_V = 0.8
DYAD_BETA_S = 0.5
DYAD_TASK_RHO = 0.5
DYAD_MAXFEV = 2000
KRON_INSTANCES = 20


def _rng(seed, label):
    """Independent stream per (seed, input) so inputs do not shift each other."""
    tag = int.from_bytes(label.encode(), "little") % (2**32)
    return np.random.default_rng([int(seed), tag])


def _modules(rng, n, count):
    """Random equal-size module labels 0..count-1 over n nodes."""
    labels = np.empty(n, dtype=int)
    labels[rng.permutation(n)] = np.arange(n) // (n // count)
    return labels


def _modular_series(rng, modules, T, loading, extra=None):
    """node x time: unit noise plus a per-module factor scaled by a per-node loading."""
    n = modules.size
    factors = rng.standard_normal((modules.max() + 1, T))
    x = loading[:, None] * factors[modules] + rng.standard_normal((n, T))
    if extra is not None:
        nodes, weight = extra
        x[nodes] += weight * rng.standard_normal(T)
    return x


def cohort_study(seed):
    """Two groups with planted modules, a planted group-B contrast and 3-D coordinates."""
    rng = _rng(seed, "cohort")
    n = COHORT_N
    modules = _modules(rng, n, COHORT_MODULES)
    planted_module = int(rng.integers(COHORT_MODULES))
    members = np.flatnonzero(modules == planted_module)
    planted = np.sort(rng.choice(members, COHORT_PLANTED, replace=False))

    # modules sit 10 units apart; module mates on a 1.2 grid, the planted
    # nodes in a tight 0.5 cluster lifted 5 units off that plane, so the
    # planted edges are spatial pairwise neighbours at radius 1.5
    coords = np.zeros((n, 3))
    for m in range(COHORT_MODULES):
        rest = [v for v in np.flatnonzero(modules == m) if v not in set(planted)]
        for k, v in enumerate(rest):
            coords[v] = (10.0 * m + 1.2 * (k % 4), 1.2 * (k // 4), 0.0)
    for k, v in enumerate(planted):
        coords[v] = (10.0 * planted_module + 0.5 * (k % 3), 0.5 * (k // 3), 5.0)
    coords += rng.uniform(-0.05, 0.05, size=coords.shape)

    base_loading = rng.uniform(0.4, 0.65, size=n)
    series = []
    for s in range(2 * COHORT_GROUP):
        loading = base_loading * rng.uniform(0.9, 1.1, size=n)
        extra = (planted, 0.8) if s >= COHORT_GROUP else None
        series.append(_modular_series(rng, modules, COHORT_T, loading, extra))
    planted_edges = [(int(a), int(b)) for i, a in enumerate(planted) for b in planted[i + 1 :]]
    return {
        "series": series,
        "modules": modules,
        "planted_nodes": planted,
        "planted_edges": planted_edges,
        "coordinates": coords,
        "group_a": list(range(COHORT_GROUP)),
        "group_b": list(range(COHORT_GROUP, 2 * COHORT_GROUP)),
    }


def cohort_config():
    """The pipeline config the cohort workload runs (manifest path relative)."""
    threshold = {"method": "fixed_degree", "k_target": COHORT_K_TARGET}
    groups = {
        "group_a": list(range(COHORT_GROUP)),
        "group_b": list(range(COHORT_GROUP, 2 * COHORT_GROUP)),
    }
    return {
        "manifest": "manifest.json",
        "estimator": {"name": "correlation"},
        "threshold": threshold,
        "analyses": [
            {"type": "metrics", "params": {"metrics": list(COHORT_METRICS)}},
            {"type": "community", "params": {"cartography": True}},
            {
                "type": "compare",
                "params": {
                    "method": "nbs",
                    "t_threshold": COHORT_NBS_T,
                    "permutations": COHORT_PERMUTATIONS,
                    **groups,
                },
            },
            {
                "type": "compare",
                "params": {
                    "method": "spc",
                    "t_threshold": COHORT_SPC_T,
                    "radius": COHORT_SPC_RADIUS,
                    "permutations": COHORT_PERMUTATIONS,
                    **groups,
                },
            },
            {
                "type": "bootstrap",
                "params": {
                    "subject": 0,
                    "metric": COHORT_BOOTSTRAP_METRIC,
                    "replicates": COHORT_BOOTSTRAP_REPLICATES,
                },
            },
        ],
        "seed": 11,
    }


def _write_series_csv(path, x):
    """node x time array as a rows-are-time CSV with a node-label header."""
    with open(path, "w") as fh:
        fh.write(",".join(f"node{i}" for i in range(x.shape[0])) + "\n")
        for row in x.T:
            fh.write(",".join(format(v, ".10g") for v in row) + "\n")


def _write_manifest(directory, series, coordinates=None, sampling_interval=2.0):
    files = []
    for s, x in enumerate(series):
        name = f"subject_{s:02d}.csv"
        _write_series_csv(os.path.join(directory, name), x)
        files.append(name)
    manifest = {
        "subject_files": files,
        "layout": "rows-are-time",
        "sampling_interval": sampling_interval,
    }
    if coordinates is not None:
        manifest["coordinates"] = np.asarray(coordinates).tolist()
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    return os.path.join(directory, "manifest.json")


def read_series_csv(path):
    """The series exactly as written, parsed back with numpy (node x time)."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T


def write_cohort(directory, study):
    _write_manifest(directory, study["series"], study["coordinates"])
    path = os.path.join(directory, "config.json")
    with open(path, "w") as fh:
        json.dump(cohort_config(), fh, indent=1, sort_keys=True)
    return {"config": path}


# --- graph_nulls --------------------------------------------------------------


def watts_strogatz(n, k, p, rng):
    """Ring lattice whose edges each move their far end with probability p."""
    edges = {(min(i, (i + o) % n), max(i, (i + o) % n)) for o in range(1, k // 2 + 1) for i in range(n)}
    out = set(edges)
    for a, b in sorted(edges):
        if rng.random() < p:
            out.discard((a, b))
            while True:
                c = int(rng.integers(n))
                pair = (min(a, c), max(a, c))
                if c != a and pair not in out:
                    out.add(pair)
                    break
    return n, sorted(out)


def _pick_pairs(iu, ju, mask, count, rng):
    idx = rng.choice(np.flatnonzero(mask), count, replace=False)
    return set(zip(iu[idx].tolist(), ju[idx].tolist()))


def erdos_renyi(n, mean_degree, rng):
    """G(n, m) with exactly n * mean_degree / 2 edges, so every seed does equal work."""
    iu, ju = np.triu_indices(n, 1)
    edges = _pick_pairs(iu, ju, np.ones(iu.size, bool), n * mean_degree // 2, rng)
    return n, sorted(edges)


def planted_partition(modules, size, edges_in, edges_out, rng):
    """Equal modules with a fixed number of edges inside each and between them."""
    labels = np.repeat(np.arange(modules), size)
    n = labels.size
    iu, ju = np.triu_indices(n, 1)
    edges = _pick_pairs(iu, ju, labels[iu] != labels[ju], edges_out, rng)
    for m in range(modules):
        edges |= _pick_pairs(iu, ju, (labels[iu] == m) & (labels[ju] == m), edges_in, rng)
    return (n, sorted(edges)), labels


def discrete_powerlaw(alpha, x_min, size, rng, cap=100000):
    """Exact draws from p(x) = x^-alpha / zeta(alpha, x_min), x >= x_min (table up to cap)."""
    xs = np.arange(x_min, cap + 1, dtype=float)
    cdf = np.cumsum(xs ** (-alpha)) / zeta(alpha, x_min)
    return (x_min + np.searchsorted(cdf, rng.random(size) * cdf[-1])).astype(int)


def graph_nulls_inputs(seed):
    rng = _rng(seed, "graph_nulls")
    ws = watts_strogatz(NULLS_N, NULLS_K, NULLS_WS_P, rng)
    er = erdos_renyi(NULLS_N, NULLS_K, rng)
    modular, gn_labels = planted_partition(GN_MODULES, GN_MODULE_SIZE, GN_EDGES_IN, GN_EDGES_OUT, rng)
    degrees = discrete_powerlaw(POWERLAW_ALPHA, POWERLAW_XMIN, POWERLAW_SIZE, rng)
    return {
        "ws": ws,
        "er": er,
        "modular": modular,
        "gn_labels": gn_labels,
        "powerlaw_alpha": POWERLAW_ALPHA,
        "powerlaw_degrees": degrees,
        "small_world_seeds": {"ws": int(rng.integers(2**31)), "er": int(rng.integers(2**31))},
        "rewire_seed": int(rng.integers(2**31)),
        "powerlaw_seed": int(rng.integers(2**31)),
    }


def write_edgelist(path, graph):
    n, edges = graph
    with open(path, "w") as fh:
        fh.write("# " + json.dumps({"n": n}) + "\n")
        fh.write("".join(f"{a}\t{b}\n" for a, b in edges))


def write_graph_nulls(directory, inputs):
    paths = {}
    for name in ("ws", "er", "modular"):
        paths[name] = os.path.join(directory, f"{name}.tsv")
        write_edgelist(paths[name], inputs[name])
    return paths


# --- group_models ---------------------------------------------------------------


def ergm_panel(seed):
    rng = _rng(seed, "ergm_panel")
    modules = _modules(rng, ERGM_N, ERGM_MODULES)
    loading = rng.uniform(0.8, 1.2, size=ERGM_N)
    series = [
        _modular_series(rng, modules, ERGM_T, loading * rng.uniform(0.9, 1.1, size=ERGM_N))
        for _ in range(ERGM_SUBJECTS)
    ]
    return {"series": series, "modules": modules}


def _expit(x):
    return 1.0 / (1.0 + np.exp(-x))


def dyad_study(rng, tasks, lear):
    """Criterion-08-style dyad data: subject x task correlation-like matrices.

    Presence follows a logistic model with a subject random intercept around
    DYAD_BETA_V; present strengths are tanh of DYAD_BETA_S plus a subject
    intercept plus dyad noise, correlated across dyads by lear (rho 0.5,
    delta 1) when lear is set and across tasks at DYAD_TASK_RHO.
    """
    n = DYAD_N
    iu, ju = np.triu_indices(n, 1)
    d = iu.size
    xs = np.arange(float(n))
    coords = np.column_stack([xs, 0.07 * xs**2, np.zeros(n)])
    mids = (coords[iu] + coords[ju]) / 2.0
    dist = np.linalg.norm(mids[:, None, :] - mids[None, :, :], axis=2)
    off = dist[~np.eye(d, dtype=bool)]
    d_min, d_max = off.min(), off.max()
    omega = 0.5 ** (d_min + 1.0 * (dist - d_min) / (d_max - d_min))
    np.fill_diagonal(omega, 1.0)
    if not lear:
        omega = np.eye(d)
    chol_o = np.linalg.cholesky(omega)
    gamma = np.full((tasks, tasks), DYAD_TASK_RHO)
    np.fill_diagonal(gamma, 1.0)
    chol_g = np.linalg.cholesky(gamma)
    mats = [[] for _ in range(tasks)]
    for _ in range(DYAD_SUBJECTS):
        v_int = 0.5 * rng.standard_normal()
        s_int = 0.08 * rng.standard_normal()
        noise = 0.12 * chol_g @ rng.standard_normal((tasks, d)) @ chol_o.T
        for t in range(tasks):
            v = rng.random(d) < _expit(DYAD_BETA_V + v_int)
            z = DYAD_BETA_S + s_int + noise[t]
            y = np.where(v, np.tanh(np.maximum(z, 0.01)), -0.1)
            m = np.zeros((n, n))
            m[iu, ju] = y
            mats[t].append(m + m.T)
    return {"matrices": mats, "coordinates": coords}


def kronecker_instances(rng):
    """Random (residuals, gamma, omega, sigma_task, tau2) likelihood instances."""
    out = []
    for _ in range(KRON_INSTANCES):
        t_count = int(rng.integers(1, 5))
        d_count = int(rng.integers(2, 9))
        mats = []
        for k in (t_count, d_count):
            a = rng.standard_normal((k, k + 2))
            c = a @ a.T
            s = np.sqrt(np.diag(c))
            mats.append(c / np.outer(s, s))
        residuals = [rng.standard_normal((t_count, d_count)) for _ in range(int(rng.integers(1, 4)))]
        out.append(
            {
                "residuals": residuals,
                "gamma": mats[0],
                "omega": mats[1],
                "sigma_task": rng.uniform(0.5, 1.5, t_count),
                "tau2": float(rng.uniform(0.0, 0.5)),
            }
        )
    return out


def group_models_inputs(seed):
    rng = _rng(seed, "dyads")
    return {
        "ergm": ergm_panel(seed),
        "single_task": dyad_study(rng, 1, lear=True),
        "two_task": dyad_study(rng, 2, lear=False),
        "kronecker": kronecker_instances(rng),
        "representative_seed": int(rng.integers(2**31)),
    }


def _write_matrix_csv(path, m):
    np.savetxt(path, m, delimiter=",", fmt="%.17g")
    with open(path + ".json", "w") as fh:
        json.dump({"measure": "correlation", "params": {}, "n": m.shape[0]}, fh)


def write_group_models(directory, inputs):
    ergm_dir = os.path.join(directory, "ergm")
    os.makedirs(ergm_dir)
    paths = {"ergm_manifest": _write_manifest(ergm_dir, inputs["ergm"]["series"])}
    for study in ("single_task", "two_task"):
        files = []
        for t, subjects in enumerate(inputs[study]["matrices"]):
            names = []
            for s, m in enumerate(subjects):
                p = os.path.join(directory, f"{study}_t{t}_s{s:02d}.csv")
                _write_matrix_csv(p, m)
                names.append(p)
            files.append(names)
        paths[study] = files
    return paths


GENERATORS = {
    "cohort": (cohort_study, write_cohort),
    "graph_nulls": (graph_nulls_inputs, write_graph_nulls),
    "group_models": (group_models_inputs, write_group_models),
}
