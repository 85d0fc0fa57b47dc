"""Two-group inference on edge populations.

Edgewise tests compare Fisher-transformed connectivity at every edge with a
multiplicity correction. The two cluster methods admit edges whose group
t statistic crosses a primary threshold and then test cluster sizes against
a permutation distribution of the maximum: components connected through
shared nodes, or clusters grown over spatially pairwise-neighboring edges.
Family-wise p-values use the add-one convention (b + 1) / (P + 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .estimators import CORRELATION_MEASURES
from .panels import fisher_z
from .runtime import rng_for
from .thresholding import _bh_adjust


def _edge_index(n):
    return np.triu_indices(n, 1)


def _group_edge_values(group, iu, ju):
    """Subjects x edges matrix of Fisher-transformed (correlation family) values."""
    rows = []
    for cm in group:
        vals = cm.values[iu, ju]
        if cm.measure in CORRELATION_MEASURES:
            vals = fisher_z(np.clip(vals, -1 + 1e-12, 1 - 1e-12))
        rows.append(vals)
    return np.vstack(rows)


def _validate_groups(group_a, group_b):
    if len(group_a) < 2 or len(group_b) < 2:
        raise ValueError("each group needs at least 2 subjects")
    n = group_a[0].n
    for cm in list(group_a) + list(group_b):
        if cm.n != n:
            raise ValueError(f"inconsistent node counts: {cm.n} != {n}")
    return n


def _t_for_labels(X, labels_a):
    """Pooled-variance two-sample t for each row of boolean label matrix."""
    na = labels_a.sum(axis=1, keepdims=True).astype(float)
    nb = labels_a.shape[1] - na
    sa = labels_a @ X
    sb = (~labels_a) @ X
    sqa = labels_a @ (X**2)
    sqb = (~labels_a) @ (X**2)
    ma, mb = sa / na, sb / nb
    va = (sqa - na * ma**2) / (na - 1)
    vb = (sqb - nb * mb**2) / (nb - 1)
    sp = ((na - 1) * va + (nb - 1) * vb) / (na + nb - 2)
    denom = np.sqrt(sp * (1 / na + 1 / nb))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (ma - mb) / denom
    return t, denom


@dataclass
class EdgeTestResult:
    n: int
    t: np.ndarray
    p: np.ndarray
    q: np.ndarray
    correction: str
    group_sizes: tuple
    undefined: np.ndarray  # edges with zero pooled variance

    def edge_pairs(self):
        iu, ju = _edge_index(self.n)
        return list(zip(iu.tolist(), ju.tolist()))

    def significant_edges(self, alpha=0.05):
        iu, ju = _edge_index(self.n)
        mask = ~self.undefined & (self.q < alpha)
        return list(zip(iu[mask].tolist(), ju[mask].tolist()))


def edgewise_compare(group_a, group_b, correction="bh-fdr"):
    """Mass-univariate two-sample t per edge with Bonferroni or BH-FDR q-values.

    Zero pooled variance at an edge leaves that edge flagged with undefined
    p (NaN) and q = 1.
    """
    n = _validate_groups(group_a, group_b)
    iu, ju = _edge_index(n)
    X = np.vstack(
        [_group_edge_values(group_a, iu, ju), _group_edge_values(group_b, iu, ju)]
    )
    labels = np.zeros((1, X.shape[0]), dtype=bool)
    labels[0, : len(group_a)] = True
    t, denom = _t_for_labels(X, labels)
    t, denom = t[0], denom[0]
    undefined = ~(denom > 0)
    df = len(group_a) + len(group_b) - 2
    p = np.full(t.size, np.nan)
    p[~undefined] = 2.0 * stats.t.sf(np.abs(t[~undefined]), df)
    if correction == "bonferroni":
        q = np.minimum(p * p.size, 1.0)
    elif correction == "bh-fdr":
        q = np.full(p.size, np.nan)
        q[~undefined] = _bh_adjust(p[~undefined])
    else:
        raise ValueError(f"unknown correction {correction!r}")
    q = np.where(undefined, 1.0, q)
    return EdgeTestResult(
        n=n,
        t=t,
        p=p,
        q=q,
        correction=correction,
        group_sizes=(len(group_a), len(group_b)),
        undefined=undefined,
    )


@dataclass
class ComponentResult:
    method: str
    n: int
    clusters: list  # list of edge-pair lists
    sizes: list
    fwe_p: list
    t_threshold: float
    permutations: int
    alternative: str
    seed: int
    null_max: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def significant(self, alpha=0.05):
        return [c for c, p in zip(self.clusters, self.fwe_p) if p < alpha]


def _supra_mask(t, threshold, alternative):
    if alternative == "two_sided":
        return np.abs(t) > threshold
    if alternative == "greater":
        return t > threshold
    if alternative == "less":
        return -t > threshold
    raise ValueError(f"unknown alternative {alternative!r}")


def _node_components(n, iu, ju, masks):
    """Connected components of the supra-threshold graph of each mask row.

    All rows are solved in one call: row p's graph lives on nodes
    p*n .. p*n + n - 1 of one block-diagonal graph. Returns the row, edge
    index and component label of every supra-threshold edge.
    """
    rows, edges = np.nonzero(masks)
    a, b = rows * n + iu[edges], rows * n + ju[edges]
    size = len(masks) * n
    graph = csr_matrix((np.ones(edges.size), (a, b)), shape=(size, size))
    return rows, edges, connected_components(graph, directed=False)[1][a]


_SPC_MIN_CLUSTER_EDGES = 2  # a lone edge with no pairwise neighbor is not a cluster


def _edge_clusters_pairwise(iu, ju, masks, node_adj):
    """Clusters of supra-threshold edges under the pairwise-neighbor rule.

    Edges (a, b) and (c, d) of one mask row are neighbors iff one endpoint
    matching makes both ends equal-or-adjacent: (a~c or a=c) and (b~d or
    b=d), or the swapped matching. All rows are solved in one call; returns
    the row, edge index and cluster label of every supra-threshold edge.
    """
    rows, edges = np.nonzero(masks)
    near = np.asarray(node_adj, dtype=bool) | np.eye(len(node_adj), dtype=bool)
    starts = np.searchsorted(rows, np.arange(len(masks) + 1))
    xs, ys = [], []
    for lo, hi in zip(starts[:-1], starts[1:]):
        a, b = iu[edges[lo:hi]], ju[edges[lo:hi]]
        linked = (near[np.ix_(a, a)] & near[np.ix_(b, b)]) | (near[np.ix_(a, b)] & near[np.ix_(b, a)])
        x, y = np.nonzero(linked)
        xs.append(x + lo)
        ys.append(y + lo)
    x, y = np.concatenate(xs), np.concatenate(ys)
    graph = csr_matrix((np.ones(x.size), (x, y)), shape=(edges.size, edges.size))
    return rows, edges, connected_components(graph, directed=False)[1]


def _cluster_lists(edges, labels, min_edges):
    """Edge lists (ascending) of the clusters of one row with >= min_edges edges."""
    order = np.argsort(labels, kind="stable")
    bounds = np.flatnonzero(np.diff(labels[order])) + 1
    parts = np.split(edges[order], bounds) if edges.size else []
    return [part.tolist() for part in parts if part.size >= min_edges]


def _max_cluster_sizes(rows, labels, row_count, min_edges):
    """Edge count of each row's largest cluster with >= min_edges edges, else 0."""
    sizes = np.bincount(labels)
    label_row = np.zeros(sizes.size, dtype=int)
    label_row[labels] = rows
    keep = sizes >= min_edges
    out = np.zeros(row_count)
    np.maximum.at(out, label_row[keep], sizes[keep])
    return out


def _permutation_labels(n_a, n_total, permutations, seed, tag):
    labels = np.zeros((permutations, n_total), dtype=bool)
    for p in range(permutations):
        rng = rng_for(seed, tag, p)
        labels[p, rng.permutation(n_total)[:n_a]] = True
    return labels


def nbs(group_a, group_b, t_threshold, permutations=1000, seed=0, alternative="two_sided"):
    """Connected-component cluster inference over supra-threshold edges.

    Cluster size is edge count. The family-wise p of each observed component
    is the add-one fraction of group-label permutations whose maximum
    component size reaches it. No supra-threshold edges yields an empty
    result rather than an error.
    """
    if permutations < 100:
        raise ValueError("need at least 100 permutations")
    n = _validate_groups(group_a, group_b)
    iu, ju = _edge_index(n)
    X = np.vstack(
        [_group_edge_values(group_a, iu, ju), _group_edge_values(group_b, iu, ju)]
    )
    n_a, n_total = len(group_a), X.shape[0]
    obs_labels = np.zeros((1, n_total), dtype=bool)
    obs_labels[0, :n_a] = True
    t_obs = _t_for_labels(X, obs_labels)[0]
    _, edges, comp = _node_components(n, iu, ju, _supra_mask(t_obs, t_threshold, alternative))
    comps = _cluster_lists(edges, comp, 1)
    comps.sort(key=lambda c: (-len(c), c))
    labels = _permutation_labels(n_a, n_total, permutations, seed, "nbs_perm")
    t_perm = _t_for_labels(X, labels)[0]
    rows, _, comp = _node_components(n, iu, ju, _supra_mask(t_perm, t_threshold, alternative))
    null_max = _max_cluster_sizes(rows, comp, permutations, 1)
    sizes = [len(c) for c in comps]
    fwe = [float((np.sum(null_max >= s) + 1) / (permutations + 1)) for s in sizes]
    clusters = [[(int(iu[e]), int(ju[e])) for e in sorted(c)] for c in comps]
    return ComponentResult(
        method="nbs",
        n=n,
        clusters=clusters,
        sizes=sizes,
        fwe_p=fwe,
        t_threshold=float(t_threshold),
        permutations=permutations,
        alternative=alternative,
        seed=int(seed),
        null_max=null_max,
    )


def adjacency_from_coordinates(coordinates, radius):
    """Spatial node adjacency: pairs closer than radius (Euclidean)."""
    coords = np.asarray(coordinates, dtype=float)
    d = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2)
    adj = (d > 0) & (d <= radius)
    return adj


def spc(
    group_a,
    group_b,
    t_threshold,
    node_adjacency,
    permutations=1000,
    seed=0,
    alternative="two_sided",
):
    """Spatial pairwise clustering of supra-threshold edges.

    node_adjacency is a boolean n x n matrix of spatial neighborship (see
    adjacency_from_coordinates). Cluster membership requires at least one
    pairwise neighbor, so isolated supra-threshold edges are never reported.
    Family-wise p-values come from the same max-cluster-size permutation
    scheme as nbs.
    """
    if permutations < 100:
        raise ValueError("need at least 100 permutations")
    n = _validate_groups(group_a, group_b)
    node_adj = np.asarray(node_adjacency)
    if node_adj.shape != (n, n):
        raise ValueError(f"node adjacency must be ({n}, {n}), got {node_adj.shape}")
    iu, ju = _edge_index(n)
    X = np.vstack(
        [_group_edge_values(group_a, iu, ju), _group_edge_values(group_b, iu, ju)]
    )
    n_a, n_total = len(group_a), X.shape[0]
    obs_labels = np.zeros((1, n_total), dtype=bool)
    obs_labels[0, :n_a] = True
    t_obs = _t_for_labels(X, obs_labels)[0]
    _, edges, cluster = _edge_clusters_pairwise(
        iu, ju, _supra_mask(t_obs, t_threshold, alternative), node_adj
    )
    obs_clusters = _cluster_lists(edges, cluster, _SPC_MIN_CLUSTER_EDGES)
    obs_clusters.sort(key=lambda c: (-len(c), c))
    labels = _permutation_labels(n_a, n_total, permutations, seed, "spc_perm")
    t_perm = _t_for_labels(X, labels)[0]
    rows, _, cluster = _edge_clusters_pairwise(
        iu, ju, _supra_mask(t_perm, t_threshold, alternative), node_adj
    )
    null_max = _max_cluster_sizes(rows, cluster, permutations, _SPC_MIN_CLUSTER_EDGES)
    sizes = [len(c) for c in obs_clusters]
    fwe = [float((np.sum(null_max >= s) + 1) / (permutations + 1)) for s in sizes]
    clusters = [[(int(iu[e]), int(ju[e])) for e in c] for c in obs_clusters]
    return ComponentResult(
        method="spc",
        n=n,
        clusters=clusters,
        sizes=sizes,
        fwe_p=fwe,
        t_threshold=float(t_threshold),
        permutations=permutations,
        alternative=alternative,
        seed=int(seed),
        null_max=null_max,
    )
