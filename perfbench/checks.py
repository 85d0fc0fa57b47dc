"""Output checks made apart from fcnets.

Each check takes plain data (arrays, edge lists, parsed reports) and
returns a list of problems; an empty list means the output passed. The
references are computed here with numpy, scipy or networkx, or are
properties the method must have. None compares against a stored copy of
an earlier output.
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
from scipy import optimize
from scipy.spatial.distance import cdist

REL = 1e-9  # reports print 12 significant digits


def _close(a, b, rel=REL, abs_=1e-12):
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_)


def graph(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def nmi(a, b):
    """Normalized mutual information 2 I / (H_a + H_b), natural log."""
    a = np.unique(np.asarray(a), return_inverse=True)[1]
    b = np.unique(np.asarray(b), return_inverse=True)[1]
    joint = np.zeros((a.max() + 1, b.max() + 1))
    np.add.at(joint, (a, b), 1.0 / a.size)
    pa, pb = joint.sum(1), joint.sum(0)
    nz = joint > 0
    mi = np.sum(joint[nz] * np.log(joint[nz] / np.outer(pa, pb)[nz]))
    ha = -np.sum(pa * np.log(pa))
    hb = -np.sum(pb * np.log(pb))
    return 1.0 if ha + hb == 0 else float(2 * mi / (ha + hb))


def top_edges(values, count):
    """The `count` largest positive upper-triangle entries as (i, j) pairs."""
    n = values.shape[0]
    iu, ju = np.triu_indices(n, 1)
    w = values[iu, ju]
    order = np.argsort(-w, kind="stable")[:count]
    order = order[w[order] > 0]
    return sorted(zip(iu[order].tolist(), ju[order].tolist()))


def fixed_degree_count(n, k_target):
    return int(math.floor(n * k_target / 2.0 + 0.5))


def path_length(g):
    """Mean shortest-path length over reachable ordered pairs."""
    total = pairs = 0
    for _, lengths in nx.all_pairs_shortest_path_length(g):
        total += sum(lengths.values())
        pairs += len(lengths) - 1
    return total / pairs


# --- cohort -----------------------------------------------------------------


def check_correlation(label, series, values):
    ref = np.corrcoef(series)
    np.fill_diagonal(ref, 0.0)
    err = float(np.max(np.abs(np.asarray(values) - ref)))
    return [] if err < 1e-10 else [f"{label}: correlation differs from np.corrcoef by {err:.3g}"]


def check_fixed_degree(label, values, edges, k_target):
    """Edge count round(n k / 2), and exactly the top-ranked entries."""
    values = np.asarray(values)
    n = values.shape[0]
    want = fixed_degree_count(n, k_target)
    problems = []
    if len(edges) != want:
        problems.append(f"{label}: {len(edges)} edges, fixed_degree k={k_target} needs {want}")
    if sorted(map(tuple, edges)) != top_edges(values, want):
        problems.append(f"{label}: edges are not the {want} top-ranked correlations")
    return problems


def metric_reference(g, name):
    n = g.number_of_nodes()
    if name == "density":
        return nx.density(g)
    if name == "mean_degree":
        return 2.0 * g.number_of_edges() / n
    if name == "clustering_mean_local":
        return nx.average_clustering(g)
    if name == "global_efficiency":
        return nx.global_efficiency(g)
    if name == "local_efficiency":
        return nx.local_efficiency(g)
    if name == "path_length":
        return path_length(g)
    raise KeyError(name)


def check_metrics_table(rows, graphs):
    """rows: [{"subject": s, metric: value}] parsed from metrics.csv."""
    problems = []
    if len(rows) != len(graphs):
        return [f"metrics.csv has {len(rows)} rows for {len(graphs)} subjects"]
    for row, g in zip(rows, graphs):
        for name, value in row.items():
            if name == "subject":
                continue
            ref = metric_reference(g, name)
            if not _close(value, ref):
                problems.append(f"subject {row['subject']}: {name} {value} != networkx {ref}")
    return problems


def check_partition(label, g, assignment, q, planted, min_nmi):
    problems = []
    groups = {}
    for node, c in enumerate(assignment):
        groups.setdefault(c, set()).add(node)
    ref = nx.community.modularity(g, list(groups.values()))
    if not _close(q, ref):
        problems.append(f"{label}: q {q} != networkx modularity {ref}")
    score = nmi(assignment, planted)
    if score < min_nmi:
        problems.append(f"{label}: NMI with planted modules {score:.3f} < {min_nmi}")
    return problems


def check_cluster_test(label, result, planted_edges, alpha=0.05):
    """Every planted edge lies in one cluster whose FWE p is at most alpha."""
    planted = {tuple(e) for e in planted_edges}
    for cluster, p in zip(result["clusters"], result["fwe_p"]):
        if planted <= {tuple(e) for e in cluster}:
            if p <= alpha:
                return []
            return [f"{label}: the cluster holding the planted edges has FWE p {p} > {alpha}"]
    return [f"{label}: no reported cluster holds all {len(planted)} planted edges"]


def check_bootstrap(result, direct, requested):
    problems = []
    if not _close(result["point"], direct):
        problems.append(f"bootstrap point {result['point']} != direct {direct}")
    if result["requested"] != requested:
        problems.append(f"bootstrap requested {result['requested']} != {requested}")
    if len(result["replicates"]) != result["requested"] - result["failed"]:
        problems.append(
            f"bootstrap has {len(result['replicates'])} replicates, "
            f"expected requested - failed = {result['requested'] - result['failed']}"
        )
    return problems


# --- graph_nulls --------------------------------------------------------------


def largest_component(g):
    nodes = max(nx.connected_components(g), key=lambda c: (len(c), -min(c)))
    return g.subgraph(nodes).copy()


def check_small_world(label, g, result, regime):
    """C and L against networkx, the index formulas, and the regime bounds."""
    problems = []
    core = largest_component(g)
    C, L = nx.average_clustering(core), nx.average_shortest_path_length(core)
    if not _close(result["C"], C):
        problems.append(f"{label}: C {result['C']} != networkx {C}")
    if not _close(result["L"], L):
        problems.append(f"{label}: L {result['L']} != networkx {L}")
    sigma = (result["C"] / result["C_rand"]) / (result["L"] / result["L_rand"])
    omega = result["L_rand"] / result["L"] - result["C"] / result["C_latt"]
    if not (_close(result["sigma"], sigma) and _close(result["omega"], omega)):
        problems.append(f"{label}: sigma/omega disagree with C, L and the ensemble means")
    for name, lo, hi in regime:
        if not lo < result[name] < hi:
            problems.append(f"{label}: {name} {result[name]:.3f} outside ({lo}, {hi})")
    return problems


def check_rewire(n, before, after, min_changed=0.5):
    problems = []
    after = [tuple(e) for e in after]
    if any(a == b for a, b in after):
        problems.append("rewired graph has a self-loop")
    canon = {(min(a, b), max(a, b)) for a, b in after}
    if len(canon) != len(after):
        problems.append("rewired graph has a duplicate edge")
    deg_before = np.bincount(np.ravel(before), minlength=n)
    deg_after = np.bincount(np.ravel(after), minlength=n) if after else np.zeros(n, int)
    if not np.array_equal(deg_before, deg_after):
        problems.append("rewiring changed the degree sequence")
    changed = 1.0 - len(canon & {tuple(e) for e in before}) / max(len(before), 1)
    if changed < min_changed:
        problems.append(f"rewiring moved only {changed:.0%} of edges")
    return problems


def check_powerlaw(alpha_hat, alpha, tol):
    if abs(alpha_hat - alpha) > tol:
        return [f"power-law exponent {alpha_hat:.3f} not within {tol} of the sampled {alpha:.3f}"]
    return []


# --- group_models ----------------------------------------------------------------


def synchronization_pair(x, y, lag, dim, k):
    """Shared-neighbour fraction of two series, by brute-force neighbour search."""

    def neighbours(s):
        B = s.size - (dim - 1) * lag
        vectors = np.stack([s[d * lag : d * lag + B] for d in range(dim)], axis=1)
        dist = cdist(vectors, vectors, "sqeuclidean")
        window = (dim - 1) * lag
        idx = np.arange(B)
        dist[np.abs(idx[:, None] - idx[None, :]) < window] = np.inf
        dist[idx, idx] = np.inf
        return [set(row) for row in np.argsort(dist, axis=1, kind="stable")[:, :k].tolist()]

    nx_, ny_ = neighbours(x), neighbours(y)
    return sum(len(a & b) for a, b in zip(nx_, ny_)) / (len(nx_) * k)


def check_synchronization(label, series, values, pairs, lag, dim, k):
    problems = []
    for i, j in pairs:
        ref = synchronization_pair(series[i], series[j], lag, dim, k)
        if not _close(values[i][j], ref):
            problems.append(f"{label}: synchronization ({i}, {j}) {values[i][j]} != direct {ref}")
    return problems


def ergm_statistics(adj):
    """edges, two-stars, triangles of a 0/1 adjacency."""
    adj = np.asarray(adj, dtype=float)
    deg = adj.sum(0)
    return np.array([deg.sum() / 2, np.sum(deg * (deg - 1) / 2), np.trace(adj @ adj @ adj) / 6])


def change_statistics(adj):
    """Per-dyad change statistics (edges, two-stars, triangles) and presence."""
    adj = np.asarray(adj, dtype=float)
    n = adj.shape[0]
    iu, ju = np.triu_indices(n, 1)
    deg = adj.sum(0)
    present = adj[iu, ju]
    two_stars = deg[iu] + deg[ju] - 2 * present
    common = (adj @ adj)[iu, ju]
    return np.column_stack([np.ones(iu.size), two_stars, common]), present


def logistic_fit(X, y):
    def nll(theta):
        eta = X @ theta
        return float(np.sum(np.logaddexp(0.0, eta) - y * eta))

    def grad(theta):
        return X.T @ (1.0 / (1.0 + np.exp(-(X @ theta))) - y)

    def hess(theta):
        mu = 1.0 / (1.0 + np.exp(-(X @ theta)))
        return X.T @ (X * (mu * (1 - mu))[:, None])

    res = optimize.minimize(nll, np.zeros(X.shape[1]), jac=grad, hess=hess, method="trust-exact", options={"gtol": 1e-10})
    return res.x


def check_mple(label, adj, theta, tol=1e-5):
    X, y = change_statistics(adj)
    ref = logistic_fit(X, y)
    if np.max(np.abs(np.asarray(theta) - ref) / (1 + np.abs(ref))) > tol:
        return [f"{label}: MPLE theta {np.round(theta, 6).tolist()} != logistic fit {np.round(ref, 6).tolist()}"]
    return []


def check_representative(meta, subject_adjs, chosen_adj, thetas):
    problems = []
    target = np.mean([ergm_statistics(a) for a in subject_adjs], axis=0)
    achieved = ergm_statistics(chosen_adj)
    if not np.allclose(meta["target_stats"], target, rtol=1e-12):
        problems.append(f"representative target stats {meta['target_stats']} != {target.tolist()}")
    if not np.allclose(meta["achieved_stats"], achieved, rtol=1e-12):
        problems.append(f"representative achieved stats {meta['achieved_stats']} != {achieved.tolist()}")
    if not np.allclose(meta["theta"], np.mean(thetas, axis=0), rtol=1e-9, atol=1e-12):
        problems.append("representative theta is not the mean of the subject MPLE fits")
    return problems


def check_twopart(label, fit, beta_v, beta_s, max_z=4.0):
    problems = []
    for part, truth in (("presence", beta_v), ("strength", beta_s)):
        beta, se = fit[part]["beta"][0], fit[part]["se"][0]
        if not (np.isfinite(se) and se > 0 and abs(beta - truth) <= max_z * se):
            problems.append(f"{label}: {part} intercept {beta:.4f} (SE {se:.4f}) not within {max_z} SE of {truth}")
        if not fit[part]["converged"]:
            problems.append(f"{label}: {part} fit did not converge")
    return problems


def dense_loglik(residuals, gamma, omega, sigma_task, tau2):
    s = np.diag(sigma_task)
    m = gamma.shape[0] * omega.shape[0]
    cov = tau2 * np.ones((m, m)) + np.kron(s @ gamma @ s, omega)
    _, logdet = np.linalg.slogdet(cov)
    total = 0.0
    for block in residuals:
        r = block.flatten()
        total += -0.5 * (r.size * np.log(2 * np.pi) + logdet + r @ np.linalg.solve(cov, r))
    return total


def check_kronecker(label, value, instance):
    ref = dense_loglik(**instance)
    if not math.isclose(value, ref, abs_tol=1e-8, rel_tol=1e-10):
        return [f"{label}: kronecker_loglik {value} != dense {ref}"]
    return []
