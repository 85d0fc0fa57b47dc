"""Exponential-family random graph models on binary networks.

Supported sufficient statistics: edge count, two-star count (sum over nodes
of C(k, 2)), and triangle count. Estimation is maximum pseudolikelihood
(logistic regression of each dyad's state on its change statistics), and
simulation is single-dyad Metropolis sampling. A representative network for
a subject group is drawn from the model at the group-mean parameters.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .networks import Network
from .runtime import rng_for

TERM_NAMES = ("edges", "two_stars", "triangles")
_STEP_BLOCK = 4096  # Metropolis steps per block of drawn proposals


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
    """Sufficient statistics of the 0/1 adjacency (weights ignored), in term order."""
    terms = _check_terms(terms)
    A = (network.adjacency() != 0).astype(float)
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


def _change_stats(A, iu, ju, common, terms):
    """Change statistics of the dyads (iu[k], ju[k]) of the graph with int
    adjacency A, one row per dyad in term order, and each dyad's presence.

    The change from adding edge (i, j) to the graph without it is 1 edge,
    k_i + k_j two-stars (degrees without the edge) and one triangle per
    common neighbour; `common` holds those counts.
    """
    present = A[iu, ju]
    k = A.sum(axis=0)
    columns = {"edges": np.ones(len(iu)), "two_stars": k[iu] + k[ju] - 2 * present, "triangles": common}
    return np.column_stack([columns[t] for t in terms]).astype(float), present.astype(float)


def ergm_change_stats(network, dyad, terms=TERM_NAMES):
    """Change statistics for one dyad: stats(graph + edge) - stats(graph - edge)."""
    terms = _check_terms(terms)
    i, j = dyad
    if not (0 <= i < network.n and 0 <= j < network.n) or i == j:
        raise ValueError(f"invalid dyad {dyad!r}")
    A = (network.adjacency() != 0).astype(np.int64)
    X, _ = _change_stats(A, [i], [j], [A[i] @ A[j]], terms)
    return X[0]


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
    """MPLE design over the dyads i < j in row-major order: change statistics
    and presence."""
    A = (network.adjacency() != 0).astype(np.int64)
    iu, ju = np.triu_indices(network.n, 1)
    common = (A @ A)[iu, ju] if "triangles" in terms else None
    return _change_stats(A, iu, ju, common, terms)


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


def _proposal_blocks(rng, n, steps):
    """Metropolis proposals (i, j, log(1 - u)) for `steps` steps: a uniform
    ordered pair i != j and a uniform u in [0, 1), drawn in blocks of
    _STEP_BLOCK steps with one rng call each for i, j and u, in that order.
    1 - u is uniform on (0, 1], so its log is finite."""
    while steps > 0:
        size = min(_STEP_BLOCK, steps)
        i = rng.integers(n, size=size)
        j = rng.integers(n - 1, size=size)
        j += j >= i
        yield zip(i.tolist(), j.tolist(), np.log1p(-rng.random(size)).tolist())
        steps -= size


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

    One step proposes toggling the dyad of a uniformly random ordered pair
    i != j. With delta the dyad's change statistic, it accepts when
    log(1 - u) <= +-theta . delta for a uniform u in [0, 1), that is with
    probability min(1, exp(+-theta . delta)): + for adding the edge, - for
    removing it. The pairs and uniforms are drawn in blocks of _STEP_BLOCK
    steps, so seeded samples differ from those of earlier fcnets versions,
    which drew each proposal separately. Defaults: burn_in = 10 n^2 steps,
    thin = n^2 steps between retained samples. Each sample's meta records
    "pinned_burn_in", the fraction of burn-in steps that ended at an empty
    or complete graph; above one half a warning is emitted, as that is a
    symptom of model degeneracy.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if count < 1:
        raise ValueError("count must be positive")
    burn_in = 10 * n * n if burn_in is None else max(int(burn_in), 0)
    thin = n * n if thin is None else int(thin)
    if thin < 1:
        raise ValueError("thin must be positive")
    weights = dict(zip(model.terms, model.theta.tolist()))
    w_edges = weights["edges"]
    w_two_stars = weights.get("two_stars", 0.0)
    w_triangles = weights.get("triangles", 0.0)
    rows = [0] * n  # row i as a bitset: bit j is set when edge (i, j) is present
    degrees = [0] * n
    if start is not None:
        if start.n != n:
            raise ValueError("start network has wrong node count")
        for i, j in start.pairs.tolist():
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        degrees = start.degrees().tolist()
    edge_count = sum(degrees) // 2
    max_edges = n * (n - 1) // 2
    proposals = itertools.chain.from_iterable(
        _proposal_blocks(rng_for(seed, "ergm_sim"), n, burn_in + count * thin)
    )

    def advance(steps):
        """Run the next `steps` steps; return how many ended at an empty or complete graph."""
        nonlocal edge_count
        pinned = 0
        for i, j, log_v in itertools.islice(proposals, steps):
            row_i, row_j = rows[i], rows[j]
            present = row_i >> j & 1
            log_accept = (
                w_edges
                + w_two_stars * (degrees[i] + degrees[j] - 2 * present)
                + w_triangles * (row_i & row_j).bit_count()
            )
            if present:
                log_accept = -log_accept
            if log_v <= log_accept:
                rows[i] = row_i ^ (1 << j)
                rows[j] = row_j ^ (1 << i)
                change = 1 - 2 * present
                degrees[i] += change
                degrees[j] += change
                edge_count += change
            if edge_count == 0 or edge_count == max_edges:
                pinned += 1
        return pinned

    pinned = advance(burn_in) / burn_in if burn_in > 0 else 0.0
    if pinned > 0.5:
        warnings.warn(
            "chain spent most of burn-in at an empty or complete graph; "
            "the model is likely degenerate at these parameters",
            RuntimeWarning,
        )
    nbytes = (n + 7) // 8
    samples = []
    for _ in range(count):
        advance(thin)
        bits = np.frombuffer(b"".join(r.to_bytes(nbytes, "little") for r in rows), dtype=np.uint8)
        adj = np.unpackbits(bits.reshape(n, nbytes), axis=1, count=n, bitorder="little")
        ii, jj = np.nonzero(np.triu(adj, 1))
        meta = {"model": "ergm", "pinned_burn_in": pinned}
        samples.append(Network(n, np.column_stack((ii, jj)), meta=meta))
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
    statistics is returned, with fit and selection detail in its meta. An
    ensemble of only empty or complete graphs is flagged with a warning.
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
    if all(g.edge_count in (0, n * (n - 1) // 2) for g in nets):
        msg = "all ensemble samples are empty or complete graphs; the model is likely degenerate"
        warnings.warn(msg, RuntimeWarning)
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
