"""Null networks and benchmarking: degree-preserving rewiring, ring-lattice
references, small-world indices, and degree-distribution fitting.

The small-world indices compare a network's clustering and path length
against ensemble means from rewired (degree-matched) nulls and against a
ring-lattice reference:

    sigma = (C / C_rand) / (L / L_rand)
    omega = L_rand / L - C / C_latt

Degree-distribution fitting follows the discrete maximum-likelihood recipe
with the lower cutoff chosen by Kolmogorov-Smirnov distance and a
semi-parametric bootstrap for goodness of fit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import zeta

from .metrics import clustering, largest_component, path_length
from .networks import Network
from .runtime import derive_seed, parallel_map, rng_for


def rewire_preserving_degree(g, swaps_per_edge=10, seed=0):
    """Randomize a network by double-edge swaps, preserving every degree.

    Two edges (a, b), (c, d) are replaced by (a, d), (c, b) when that creates
    no self-loop or duplicate. Swapping continues until
    swaps_per_edge * |edges| successes; 100 * |edges| consecutive rejections
    triggers a warning and returns the best effort.
    """
    if g.weights is not None:
        raise ValueError("rewiring needs an unweighted network; pass g.binary()")
    if g.edge_count < 2:
        raise ValueError("rewiring needs at least 2 edges")
    rng = np.random.default_rng(seed)
    edges = g.pairs.tolist()
    edge_set = set(map(tuple, edges))
    m = len(edges)
    target = swaps_per_edge * m
    max_stale = 100 * m
    successes = 0
    stale = 0
    while successes < target:
        if stale >= max_stale:
            warnings.warn(
                f"rewiring stalled after {successes}/{target} swaps; returning best effort",
                RuntimeWarning,
            )
            break
        e1, e2 = rng.integers(0, m, size=2)
        if e1 == e2:
            stale += 1
            continue
        a, b = edges[e1]
        c, d = edges[e2]
        # two swap orientations: (a,d),(c,b) or (a,c),(b,d)
        if rng.integers(0, 2):
            b, d = d, b
        else:
            b, c = c, b
        # proposed edges are now (a, b) and (c, d)
        if a == b or c == d:
            stale += 1
            continue
        p1 = (min(a, b), max(a, b))
        p2 = (min(c, d), max(c, d))
        old1 = (min(edges[e1][0], edges[e1][1]), max(edges[e1][0], edges[e1][1]))
        old2 = (min(edges[e2][0], edges[e2][1]), max(edges[e2][0], edges[e2][1]))
        if p1 == p2 or p1 in edge_set or p2 in edge_set:
            stale += 1
            continue
        edge_set.discard(old1)
        edge_set.discard(old2)
        edge_set.add(p1)
        edge_set.add(p2)
        edges[e1] = [p1[0], p1[1]]
        edges[e2] = [p2[0], p2[1]]
        successes += 1
        stale = 0
    return Network(g.n, sorted(edge_set), meta={"null": "degree_preserving_rewire", "seed": int(seed)})


def lattice_reference(g):
    """Ring lattice on the same nodes with exactly the same edge count.

    Candidate edges are enumerated ordered by (ring offset, node): offset 1
    edges (i, i+1 mod n) first, then offset 2, and so on; the first |edges|
    candidates are kept. The result is degree-near-regular (max - min <= 2).
    """
    n, m = g.n, g.edge_count
    if m < n:
        warnings.warn(
            f"{m} edges cannot close a ring on {n} nodes; returning a partial ring",
            RuntimeWarning,
        )
    edges = []
    seen = set()
    offset = 1
    while len(edges) < m:
        if offset > n // 2:
            raise ValueError(f"cannot place {m} edges on {n} nodes as a ring lattice")
        for i in range(n):
            j = (i + offset) % n
            pair = (min(i, j), max(i, j))
            if pair in seen:
                continue
            seen.add(pair)
            edges.append(pair)
            if len(edges) == m:
                break
        offset += 1
    return Network(n, edges, meta={"null": "ring_lattice"})


@dataclass
class SmallWorldResult:
    sigma: float
    omega: float
    C: float
    L: float
    C_rand: float
    L_rand: float
    C_latt: float
    null_count: int
    seed: int
    clustering_variant: str = "mean_local"
    restricted_to_largest_component: bool = False


def _subgraph_on(g, nodes):
    index = np.full(g.n, -1)
    index[nodes] = np.arange(len(nodes))
    pairs = index[g.pairs]
    return Network(len(nodes), pairs[np.all(pairs >= 0, axis=1)])


def _cl_stats(g, variant):
    comp = largest_component(g)
    restricted = comp.size < g.n
    sub = _subgraph_on(g, comp) if restricted else g
    C = clustering(sub, variant).value
    L = path_length(sub).value
    return C, L, restricted


def _null_member_stats(payload):
    g, swaps_per_edge, member_seed, variant = payload
    null = rewire_preserving_degree(g, swaps_per_edge, member_seed)
    C, L, _ = _cl_stats(null, variant)
    return C, L


def small_world(
    g,
    null_count=20,
    swaps_per_edge=10,
    seed=0,
    clustering_variant="mean_local",
    workers=None,
):
    """Both small-world indices from one rewired ensemble.

    Disconnected inputs are measured on the largest component and flagged.
    Ensemble members use seeds derived from (seed, member index), so serial
    and parallel runs agree bit for bit.
    """
    C, L, restricted = _cl_stats(g, clustering_variant)
    payloads = [
        (g, swaps_per_edge, derive_seed(seed, "null", i), clustering_variant)
        for i in range(null_count)
    ]
    stats = parallel_map(_null_member_stats, payloads, workers=workers)
    C_rand = float(np.mean([s[0] for s in stats]))
    L_rand = float(np.mean([s[1] for s in stats]))
    latt = lattice_reference(g)
    C_latt = clustering(latt, clustering_variant).value
    if C_rand == 0:
        raise ValueError("sigma undefined: null-ensemble clustering is zero")
    if C_latt == 0:
        raise ValueError("omega undefined: lattice clustering is zero")
    sigma = (C / C_rand) / (L / L_rand)
    omega = L_rand / L - C / C_latt
    return SmallWorldResult(
        sigma=float(sigma),
        omega=float(omega),
        C=C,
        L=L,
        C_rand=C_rand,
        L_rand=L_rand,
        C_latt=float(C_latt),
        null_count=null_count,
        seed=int(seed),
        clustering_variant=clustering_variant,
        restricted_to_largest_component=restricted,
    )


@dataclass
class PowerLawFit:
    alpha: float
    x_min: int
    ks_statistic: float
    gof_p: float
    pure_loglik: float
    truncated_alpha: float
    truncated_rate: float
    truncated_loglik: float
    tail_count: int
    bootstrap_reps: int
    seed: int


_ALPHA_GRID = np.concatenate([np.linspace(1.02, 4.0, 300), np.linspace(4.02, 8.0, 100)])


def _mle_alpha(tail, x_min):
    """Discrete power-law MLE via a grid over the exponent plus parabolic refine."""
    n = tail.size
    slog = np.sum(np.log(tail))
    z = zeta(_ALPHA_GRID, x_min)
    ll = -_ALPHA_GRID * slog - n * np.log(z)
    k = int(np.argmax(ll))
    if 0 < k < ll.size - 1:
        a0, a1, a2 = _ALPHA_GRID[k - 1 : k + 2]
        l0, l1, l2 = ll[k - 1 : k + 2]
        denom = (l0 - 2 * l1 + l2)
        if denom < 0:
            alpha = a1 - 0.5 * (a2 - a0) / 2 * (l2 - l0) / denom
        else:
            alpha = a1
    else:
        alpha = _ALPHA_GRID[k]
    loglik = -alpha * slog - n * np.log(float(zeta(alpha, x_min)))
    return float(alpha), float(loglik)


def _powerlaw_cdf(alpha, x_min, x_max):
    """CDF values at x_min..x_max for the discrete power law."""
    xs = np.arange(x_min, x_max + 1, dtype=float)
    pmf = xs ** (-alpha) / zeta(alpha, x_min)
    return xs.astype(int), np.cumsum(pmf)


def _ks_distance(tail, alpha, x_min):
    x_max = int(tail.max())
    xs, cdf = _powerlaw_cdf(alpha, x_min, x_max)
    n = tail.size
    counts = np.bincount(tail - x_min, minlength=x_max - x_min + 1)
    emp = np.cumsum(counts) / n
    return float(np.max(np.abs(emp - cdf)))


def _fit_tail(values, min_tail=50):
    """Pick x_min by KS over candidates with enough tail mass; fit alpha."""
    values = np.asarray(values, dtype=int)
    candidates = np.unique(values)
    best = None
    for xm in candidates:
        tail = values[values >= xm]
        if tail.size < min_tail:
            break
        alpha, loglik = _mle_alpha(tail.astype(float), int(xm))
        D = _ks_distance(tail, alpha, int(xm))
        if best is None or D < best[2]:
            best = (float(alpha), int(xm), D, loglik, tail.size)
    if best is None:
        raise ValueError(f"no candidate cutoff leaves >= {min_tail} observations")
    return best


def sample_powerlaw(alpha, x_min, size, rng):
    """Exact draws from the discrete power law via an inverse-CDF table."""
    cap = max(int(x_min) * 100000, 10000)
    xs, cdf = _powerlaw_cdf(alpha, int(x_min), cap)
    u = rng.random(size) * cdf[-1]
    return xs[np.searchsorted(cdf, u)]


def _truncated_loglik(tail, alpha, rate, x_min):
    """Log-likelihood of x^(-alpha) e^(-rate x) on x >= x_min (normalized by series sum)."""
    cut = int(x_min + max(60.0 / rate, 100))
    xs = np.arange(x_min, cut + 1, dtype=float)
    log_terms = -alpha * np.log(xs) - rate * xs
    mx = log_terms.max()
    log_norm = mx + np.log(np.sum(np.exp(log_terms - mx)))
    return float(-alpha * np.sum(np.log(tail)) - rate * np.sum(tail) - tail.size * log_norm)


def _fit_truncated(tail, x_min, alpha_start):
    from scipy.optimize import minimize

    def nll(p):
        alpha, lograte = p
        if alpha <= 0 or lograte < np.log(1e-4) or lograte > np.log(10.0):
            return np.inf
        return -_truncated_loglik(tail, alpha, np.exp(lograte), x_min)

    res = minimize(
        nll,
        x0=np.array([alpha_start, np.log(1e-2)]),
        method="Nelder-Mead",
        options={"maxfev": 400, "xatol": 1e-4, "fatol": 1e-6},
    )
    alpha, lograte = res.x
    return float(alpha), float(np.exp(lograte)), float(-res.fun)


def powerlaw_fit(degrees, bootstrap_reps=200, seed=0, min_tail=50):
    """Fit a discrete power law to a degree sequence with bootstrap GOF.

    The cutoff x_min minimizes the KS distance between the empirical tail and
    the fitted model; gof_p resamples from the fitted model (values below
    x_min resampled from the data) and refits, reporting the add-one fraction
    of resampled KS distances at least as large as the observed one. An
    exponentially truncated variant x^(-alpha) e^(-rate x) is fit on the same
    tail and both log-likelihoods are reported.
    """
    values = np.asarray(degrees, dtype=int)
    values = values[values > 0]
    if values.size == 0 or np.unique(values).size < 2:
        raise ValueError("degree sequence is constant or empty; nothing to fit")
    alpha, x_min, D_obs, pure_ll, tail_n = _fit_tail(values, min_tail)
    rng = rng_for(seed, "powerlaw_gof")
    below = values[values < x_min]
    n = values.size
    p_tail = tail_n / n
    exceed = 0
    for b in range(bootstrap_reps):
        take_tail = rng.random(n) < p_tail
        n_tail = int(take_tail.sum())
        synth = np.empty(n, dtype=int)
        synth[:n_tail] = sample_powerlaw(alpha, x_min, n_tail, rng)
        if n - n_tail > 0:
            if below.size:
                synth[n_tail:] = rng.choice(below, size=n - n_tail, replace=True)
            else:
                synth[n_tail:] = sample_powerlaw(alpha, x_min, n - n_tail, rng)
        try:
            _, _, D_b, _, _ = _fit_tail(synth, min_tail)
        except ValueError:
            D_b = np.inf
        if D_b >= D_obs:
            exceed += 1
    gof_p = (exceed + 1) / (bootstrap_reps + 1)
    tail = values[values >= x_min].astype(float)
    t_alpha, t_rate, t_ll = _fit_truncated(tail, x_min, alpha)
    return PowerLawFit(
        alpha=alpha,
        x_min=int(x_min),
        ks_statistic=D_obs,
        gof_p=float(gof_p),
        pure_loglik=float(pure_ll),
        truncated_alpha=t_alpha,
        truncated_rate=t_rate,
        truncated_loglik=t_ll,
        tail_count=int(tail_n),
        bootstrap_reps=int(bootstrap_reps),
        seed=int(seed),
    )
