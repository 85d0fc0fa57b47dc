"""Exponential-family random graph models on binary networks.

Supported sufficient statistics: edge count, two-star count (sum over nodes
of C(k, 2)), and triangle count. Estimation is maximum pseudolikelihood
(logistic regression of each dyad's state on its change statistics), and
simulation is single-dyad Metropolis sampling. A representative network for
a subject group is drawn from the model at the group-mean parameters.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .networks import Network
from .runtime import rng_for

TERM_NAMES = ("edges", "two_stars", "triangles")


def _check_terms(terms):
    terms = tuple(terms)
    if not terms or terms[0] != "edges":
        raise ValueError("terms must start with 'edges'")
    for t in terms:
        if t not in TERM_NAMES:
            raise ValueError(f"unknown term {t!r}; choose from {TERM_NAMES}")
    if len(set(terms)) != len(terms):
        raise ValueError("duplicate terms")
    return terms


@dataclass(frozen=True)
class ErgmModel:
    terms: tuple
    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "terms", _check_terms(self.terms))
        theta = np.asarray(self.theta, dtype=float)
        if theta.shape != (len(self.terms),):
            raise ValueError("theta length must match terms")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta must be finite")
        object.__setattr__(self, "theta", theta)


def ergm_stats(network, terms=TERM_NAMES):
    """Sufficient statistics of a binary network, in term order."""
    terms = _check_terms(terms)
    A = network.adjacency().astype(float)
    k = A.sum(axis=0)
    out = []
    for t in terms:
        if t == "edges":
            out.append(float(network.edge_count))
        elif t == "two_stars":
            out.append(float(np.sum(k * (k - 1) / 2)))
        else:
            out.append(float(np.trace(A @ A @ A) / 6.0))
    return np.array(out)


def _change_stats_matrix(adj, degrees, i, j, terms):
    """Change in each statistic from adding edge (i, j) to a graph without it."""
    out = np.empty(len(terms))
    common = int(np.count_nonzero(adj[i] & adj[j]))
    for idx, t in enumerate(terms):
        if t == "edges":
            out[idx] = 1.0
        elif t == "two_stars":
            out[idx] = float(degrees[i] + degrees[j])
        else:
            out[idx] = float(common)
    return out


def ergm_change_stats(network, dyad, terms=TERM_NAMES):
    """Change statistics for one dyad: stats(graph + edge) - stats(graph - edge)."""
    terms = _check_terms(terms)
    i, j = dyad
    if not (0 <= i < network.n and 0 <= j < network.n) or i == j:
        raise ValueError(f"invalid dyad {dyad!r}")
    adj = network.adjacency().astype(bool)
    degrees = network.degrees().astype(int).copy()
    if adj[i, j]:
        adj[i, j] = adj[j, i] = False
        degrees[i] -= 1
        degrees[j] -= 1
    return _change_stats_matrix(adj, degrees, i, j, terms)


@dataclass
class ErgmFit:
    terms: tuple
    theta: np.ndarray
    standard_errors: np.ndarray
    pseudo_loglik: float
    iterations: int
    n: int

    def model(self):
        return ErgmModel(self.terms, self.theta)


def _dyad_design(network, terms):
    adj = network.adjacency().astype(bool)
    degrees = network.degrees().astype(int)
    n = network.n
    rows = []
    y = []
    for i in range(n):
        for j in range(i + 1, n):
            present = adj[i, j]
            if present:
                adj[i, j] = adj[j, i] = False
                degrees[i] -= 1
                degrees[j] -= 1
            rows.append(_change_stats_matrix(adj, degrees, i, j, terms))
            y.append(1.0 if present else 0.0)
            if present:
                adj[i, j] = adj[j, i] = True
                degrees[i] += 1
                degrees[j] += 1
    return np.array(rows), np.array(y)


def ergm_mple(network, terms=TERM_NAMES, max_iter=100, tol=1e-8):
    """Maximum pseudolikelihood fit by iteratively reweighted least squares.

    Requires a graph that is neither empty nor complete. Raises on apparent
    separation (coefficients diverging) or non-convergence.
    """
    terms = _check_terms(terms)
    m = network.edge_count
    total = network.n * (network.n - 1) // 2
    if m == 0 or m == total:
        raise ValueError("graph is empty or complete; pseudolikelihood is degenerate")
    X, y = _dyad_design(network, terms)
    theta = np.zeros(len(terms))
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        eta = X @ theta
        mu = 1.0 / (1.0 + np.exp(-eta))
        grad = X.T @ (y - mu)
        if np.max(np.abs(grad)) < tol:
            converged = True
            break
        w = mu * (1.0 - mu)
        H = X.T @ (X * w[:, None])
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                "singular information matrix; model is unidentifiable on this graph"
            ) from exc
        theta = theta + step
        if np.max(np.abs(theta)) > 30:
            raise ValueError(
                "pseudolikelihood diverged (|theta| > 30); graph is separable "
                "under these terms"
            )
    if not converged:
        raise ValueError(f"IRLS did not converge in {max_iter} iterations")
    eta = X @ theta
    # a strictly sign-separating fit is a witness that no finite maximum exists
    if np.all(np.where(y == 1, eta > 1e-6, eta < -1e-6)):
        raise ValueError(
            "perfect separation: dyad presence is exactly predicted by the "
            "change statistics, so the pseudolikelihood has no finite maximum"
        )
    mu = 1.0 / (1.0 + np.exp(-eta))
    w = mu * (1.0 - mu)
    H = X.T @ (X * w[:, None])
    cov = np.linalg.inv(H)
    loglik = float(np.sum(y * eta - np.log1p(np.exp(eta))))
    return ErgmFit(
        terms=terms,
        theta=theta,
        standard_errors=np.sqrt(np.diag(cov)),
        pseudo_loglik=loglik,
        iterations=it,
        n=network.n,
    )


def ergm_simulate(
    model,
    n,
    count=1,
    burn_in=None,
    thin=None,
    seed=0,
    start=None,
):
    """Metropolis sampling of binary networks from an ERGM.

    One step proposes toggling a uniformly random dyad and accepts with
    probability min(1, exp(theta . delta)). Defaults: burn_in = 10 n^2
    steps, thin = n^2 steps between retained samples. Emits a warning when
    the chain spends more than half of burn-in pinned at an empty or
    complete graph, a symptom of model degeneracy.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if count < 1:
        raise ValueError("count must be positive")
    burn_in = 10 * n * n if burn_in is None else int(burn_in)
    thin = n * n if thin is None else int(thin)
    if thin < 1:
        raise ValueError("thin must be positive")
    terms = model.terms
    theta = model.theta
    rng = rng_for(seed, "ergm_sim")
    adj = np.zeros((n, n), dtype=bool)
    degrees = np.zeros(n, dtype=int)
    edge_count = 0
    if start is not None:
        if start.n != n:
            raise ValueError("start network has wrong node count")
        adj = start.adjacency().astype(bool)
        degrees = adj.sum(axis=0).astype(int)
        edge_count = start.edge_count
    max_edges = n * (n - 1) // 2
    pinned = 0

    def step():
        nonlocal edge_count
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        present = adj[i, j]
        if present:
            adj[i, j] = adj[j, i] = False
            degrees[i] -= 1
            degrees[j] -= 1
        delta = _change_stats_matrix(adj, degrees, i, j, terms)
        log_accept = float(theta @ delta) * (-1.0 if present else 1.0)
        accept = log_accept >= 0 or rng.random() < np.exp(log_accept)
        add_back = (present and not accept) or (not present and accept)
        if add_back:
            adj[i, j] = adj[j, i] = True
            degrees[i] += 1
            degrees[j] += 1
        edge_count += int(adj[i, j]) - int(present)

    for _ in range(burn_in):
        step()
        if edge_count == 0 or edge_count == max_edges:
            pinned += 1
    if burn_in > 0 and pinned > burn_in / 2:
        warnings.warn(
            "chain spent most of burn-in at an empty or complete graph; "
            "the model is likely degenerate at these parameters",
            RuntimeWarning,
        )
    samples = []
    for _ in range(count):
        for _ in range(thin):
            step()
        ii, jj = np.nonzero(np.triu(adj, 1))
        samples.append(Network(n, np.column_stack((ii, jj)), meta={"model": "ergm"}))
    return samples


def representative_network(
    group,
    terms=TERM_NAMES,
    ensemble=50,
    seed=0,
    burn_in=None,
    thin=None,
):
    """Group-typical network: simulate at the mean of per-subject MPLE fits.

    Subjects whose fit fails (degenerate or separable graphs) are dropped
    with a warning. From an ensemble simulated at the mean parameters, the
    network whose statistics are closest (Euclidean) to the group-mean
    statistics is returned, with fit and selection detail in its meta.
    """
    terms = _check_terms(terms)
    if not group:
        raise ValueError("empty group")
    n = group[0].n
    thetas = []
    all_stats = []
    failures = []
    for idx, g in enumerate(group):
        if g.n != n:
            raise ValueError("all subjects must share the node count")
        all_stats.append(ergm_stats(g, terms))
        try:
            thetas.append(ergm_mple(g, terms).theta)
        except ValueError as exc:
            failures.append((idx, str(exc)))
    if failures:
        warnings.warn(
            f"{len(failures)} of {len(group)} subject fits failed and were "
            f"excluded: {failures[:3]}",
            RuntimeWarning,
        )
    if not thetas:
        raise ValueError("no subject yielded a valid fit")
    theta_bar = np.mean(np.vstack(thetas), axis=0)
    target = np.mean(np.vstack(all_stats), axis=0)
    model = ErgmModel(terms, theta_bar)
    nets = ergm_simulate(
        model, n, count=ensemble, burn_in=burn_in, thin=thin, seed=seed
    )
    dists = [float(np.linalg.norm(ergm_stats(g, terms) - target)) for g in nets]
    best = int(np.argmin(dists))
    chosen = nets[best]
    chosen.meta.update(
        {
            "theta": theta_bar.tolist(),
            "terms": list(terms),
            "target_stats": target.tolist(),
            "achieved_stats": ergm_stats(chosen, terms).tolist(),
            "ensemble": ensemble,
            "excluded_subjects": [i for i, _ in failures],
        }
    )
    return chosen
