"""Two-group inference on edge populations.

Edgewise tests compare Fisher-transformed connectivity at every edge with a
multiplicity correction. The two cluster methods, the network-based
statistic (nbs) and spatial pairwise clustering (spc), are one permutation
test that differs only in how supra-threshold edges form clusters:
components connected through shared nodes, or clusters grown over spatially
pairwise-neighboring edges. Edges whose group t statistic crosses a primary
threshold are clustered, and each observed cluster's size is tested against
the permutation distribution of the maximum cluster size. That null is built
in chunks of 32 permutations, so memory does not grow with the permutation
count, and every chunk's t statistics are computed in one workspace of four
(32, edges) slabs allocated once per test. Family-wise p-values use the
add-one convention (b + 1) / (P + 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.special import stdtr

from .estimators import CORRELATION_MEASURES
from .panels import fisher_z
from .runtime import rng_for
from .thresholding import _bh_adjust


def _edge_panel(group_a, group_b):
    """Node count, subjects x edges panel of both groups (Fisher-transformed for
    the correlation family) and the observed label row (True for group a).

    Each edge's column is centred on its mean. t does not change under a
    shift, and centring keeps the one-pass variances of `_t_for_labels` from
    cancelling on an edge whose spread is small against its level.
    """
    if len(group_a) < 2 or len(group_b) < 2:
        raise ValueError("each group needs at least 2 subjects")
    subjects = list(group_a) + list(group_b)
    n = subjects[0].n
    iu, ju = np.triu_indices(n, 1)
    rows = []
    for cm in subjects:
        if cm.n != n:
            raise ValueError(f"inconsistent node counts: {cm.n} != {n}")
        vals = cm.values[iu, ju]
        if cm.measure in CORRELATION_MEASURES:
            vals = fisher_z(np.clip(vals, -1 + 1e-12, 1 - 1e-12))
        rows.append(vals)
    observed = np.zeros((1, len(subjects)), dtype=bool)
    observed[0, : len(group_a)] = True
    X = np.vstack(rows)
    return n, X - X.mean(axis=0), observed


def _t_for_labels(X, X2, labels_a, work):
    """Pooled-variance two-sample t for each row of boolean label matrix.

    X2 is X**2. work is a (4, rows, edges) float workspace, allocated once per
    test, with at least as many rows as labels_a; every intermediate goes into
    work[:, :len(labels_a)] with out=, with the operations of the plain
    formula, and t is returned as a view of work[0]. Group a's variance is
    finished before group b's sums are formed, and the numerator ma - mb
    before mb is squared in place, so four slabs hold it all. The variances
    are one-pass sums, exact enough on the per-edge centred panel of
    `_edge_panel`.
    """
    ma, mb, va, vb = work[:, : len(labels_a)]
    na = labels_a.sum(axis=1, keepdims=True).astype(float)
    nb = labels_a.shape[1] - na
    labels_b = ~labels_a
    np.matmul(labels_a, X, out=ma)
    ma /= na
    np.matmul(labels_a, X2, out=va)
    np.square(ma, out=mb)  # va = (sq_a - na * ma**2) / (na - 1), mb as scratch
    mb *= na
    va -= mb
    va /= na - 1
    np.matmul(labels_b, X, out=mb)
    mb /= nb
    np.matmul(labels_b, X2, out=vb)
    ma -= mb  # the numerator, formed before mb is squared in place
    np.square(mb, out=mb)  # vb = (sq_b - nb * mb**2) / (nb - 1)
    mb *= nb
    vb -= mb
    vb /= nb - 1
    va *= na - 1  # pooled: ((na - 1) * va + (nb - 1) * vb) / (na + nb - 2)
    vb *= nb - 1
    va += vb
    va /= na + nb - 2
    va *= 1 / na + 1 / nb
    denom = np.sqrt(va, out=va)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(ma, denom, out=ma)


def _t_workspace(rows, edges):
    """Work buffers for `_t_for_labels` on up to rows label rows."""
    return np.empty((4, rows, edges))


@dataclass
class EdgeTestResult:
    n: int
    t: np.ndarray
    p: np.ndarray
    q: np.ndarray
    correction: str
    group_sizes: tuple
    undefined: np.ndarray  # edges without a finite t, or where both groups are constant

    def edge_pairs(self):
        iu, ju = np.triu_indices(self.n, 1)
        return list(zip(iu.tolist(), ju.tolist()))

    def significant_edges(self, alpha=0.05):
        iu, ju = np.triu_indices(self.n, 1)
        mask = ~self.undefined & (self.q < alpha)
        return list(zip(iu[mask].tolist(), ju[mask].tolist()))


def edgewise_compare(group_a, group_b, correction="bh-fdr"):
    """Mass-univariate two-sample t per edge with Bonferroni or BH-FDR q-values.

    An edge has no defined t where both groups are exactly constant or its
    sum-of-squares pooled variance is not positive (t not finite): it is
    flagged undefined with p NaN and q = 1, and neither correction counts it.
    """
    n, X, observed = _edge_panel(group_a, group_b)
    t = _t_for_labels(X, X**2, observed, _t_workspace(1, X.shape[1]))[0]
    na = len(group_a)
    constant = (np.ptp(X[:na], axis=0) == 0) & (np.ptp(X[na:], axis=0) == 0)
    undefined = constant | ~np.isfinite(t)
    df = len(group_a) + len(group_b) - 2
    p = np.full(t.size, np.nan)
    p[~undefined] = 2.0 * stdtr(df, -np.abs(t[~undefined]))
    if correction == "bonferroni":
        q = np.minimum(p * np.count_nonzero(~undefined), 1.0)
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


def _supra_mask(t, threshold, alternative, scratch):
    """Supra-threshold edges of each row of t; |t| or -t goes into scratch."""
    if alternative == "two_sided":
        return np.abs(t, out=scratch) > threshold
    if alternative == "greater":
        return t > threshold
    if alternative == "less":
        return np.negative(t, out=scratch) > threshold
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


_PERMUTATION_CHUNK = 32  # permutations whose t statistics are held at once


def _cluster_permutation_test(
    method, group_a, group_b, t_threshold, permutations, seed, alternative, clusters, min_edges
):
    """Max-cluster-size permutation test shared by nbs and spc.

    clusters(n, iu, ju, masks) labels the supra-threshold edges of each mask
    row and returns (row, edge index, cluster label) per edge; clusters with
    fewer than min_edges edges are dropped. Permutation p relabels subjects
    with rng_for(seed, f"{method}_perm", p), and the null is built in chunks
    of _PERMUTATION_CHUNK permutations whose t statistics share one
    workspace of 4 x _PERMUTATION_CHUNK x edges floats (4.1 MB at n = 90);
    its second slab, free once t is formed, holds |t| or -t for the mask.
    t_threshold must be > 0.
    """
    if permutations < 100:
        raise ValueError("need at least 100 permutations")
    if not t_threshold > 0:
        raise ValueError(f"t_threshold must be > 0, got {t_threshold!r}")
    n, X, observed = _edge_panel(group_a, group_b)
    iu, ju = np.triu_indices(n, 1)
    X2, work = X**2, _t_workspace(min(_PERMUTATION_CHUNK, permutations), X.shape[1])
    t_obs = _t_for_labels(X, X2, observed, work)
    mask = _supra_mask(t_obs, t_threshold, alternative, work[1, :1])
    _, edges, labels = clusters(n, iu, ju, mask)
    found = _cluster_lists(edges, labels, min_edges)
    found.sort(key=lambda c: (-len(c), c))
    n_total, tag = X.shape[0], f"{method}_perm"
    null_max = np.zeros(permutations)
    for lo in range(0, permutations, _PERMUTATION_CHUNK):
        perms = range(lo, min(lo + _PERMUTATION_CHUNK, permutations))
        shuffled = np.zeros((len(perms), n_total), dtype=bool)
        for row, p in enumerate(perms):
            shuffled[row, rng_for(seed, tag, p).permutation(n_total)[: len(group_a)]] = True
        t = _t_for_labels(X, X2, shuffled, work)
        mask = _supra_mask(t, t_threshold, alternative, work[1, : len(perms)])
        rows, _, labels = clusters(n, iu, ju, mask)
        null_max[lo : perms.stop] = _max_cluster_sizes(rows, labels, len(perms), min_edges)
    sizes = [len(c) for c in found]
    return ComponentResult(
        method=method,
        n=n,
        clusters=[[(int(iu[e]), int(ju[e])) for e in c] for c in found],
        sizes=sizes,
        fwe_p=[float((np.sum(null_max >= s) + 1) / (permutations + 1)) for s in sizes],
        t_threshold=float(t_threshold),
        permutations=permutations,
        alternative=alternative,
        seed=int(seed),
        null_max=null_max,
    )


def nbs(group_a, group_b, t_threshold, permutations=1000, seed=0, alternative="two_sided"):
    """Connected-component cluster inference over supra-threshold edges.

    Cluster size is edge count. The family-wise p of each observed component
    is the add-one fraction of group-label permutations whose maximum
    component size reaches it. No supra-threshold edges yields an empty
    result rather than an error.
    """
    return _cluster_permutation_test(
        "nbs", group_a, group_b, t_threshold, permutations, seed, alternative, _node_components, 1
    )


def adjacency_from_coordinates(coordinates, radius):
    """Spatial node adjacency: distinct positions at most radius apart
    (Euclidean). radius must be > 0."""
    if not radius > 0:
        raise ValueError(f"radius must be > 0, got {radius!r}")
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
    node_adj = np.asarray(node_adjacency)

    def clusters(n, iu, ju, masks):
        # n is known only after the group checks, which keep precedence
        if node_adj.shape != (n, n):
            raise ValueError(f"node adjacency must be ({n}, {n}), got {node_adj.shape}")
        return _edge_clusters_pairwise(iu, ju, masks, node_adj)

    return _cluster_permutation_test(
        "spc",
        group_a,
        group_b,
        t_threshold,
        permutations,
        seed,
        alternative,
        clusters,
        _SPC_MIN_CLUSTER_EDGES,
    )
