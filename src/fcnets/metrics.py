"""Descriptive graph metrics on binary and weighted networks.

Distances on weighted networks use 1/weight as edge length. Efficiency and
path-length formulas follow the inverse-distance averages over ordered node
pairs; unreachable pairs contribute zero to efficiencies and are excluded
(and counted) for the characteristic path length.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _cc
from scipy.sparse.csgraph import shortest_path as _sp


@dataclass
class MetricReport:
    metric: str
    value: float
    per_node: np.ndarray | None = None
    unreachable_pair_count: int = 0
    flags: dict = field(default_factory=dict)


def _sparse_adj(g, lengths=False):
    """Symmetric CSR adjacency carrying edge weights, or 1/weight with lengths=True."""
    w = g.edge_weights()
    if lengths:
        w = 1.0 / w
    return csr_matrix(
        (np.repeat(w, 2), (g.pairs.ravel(), g.pairs[:, ::-1].ravel())), shape=(g.n, g.n)
    )


def distance_matrix(g):
    """All-pairs shortest-path distances (hops, or summed 1/weight)."""
    if g.n == 0:
        return np.zeros((0, 0))
    return _sp(_sparse_adj(g, lengths=True), method="D", directed=False, unweighted=g.weights is None)


def components(g):
    """Connected components as lists of node indices (sorted within/by head)."""
    if g.n == 0:
        return []
    ncomp, labels = _cc(_sparse_adj(g), directed=False)
    return [np.where(labels == c)[0] for c in range(ncomp)]


def largest_component(g):
    """Nodes of the largest component; ties pick the one with the smallest node."""
    comps = sorted(components(g), key=lambda c: (-len(c), int(c[0])))
    return comps[0]


def density(g):
    possible = g.n * (g.n - 1) / 2
    return g.edge_count / possible if possible else 0.0


def clustering(g, variant="mean_local"):
    """Triangle-based clustering.

    mean_local averages 2 * t_i / (k_i (k_i - 1)) over all nodes, degree < 2
    contributing 0. transitivity is 3 * triangles / connected triples.
    weighted_geometric replaces triangle counts with geometric-mean triangle
    weights (weights rescaled by the maximum), reducing to mean_local when
    all weights are equal.
    """
    n = g.n
    if n == 0 or g.edge_count == 0:
        return MetricReport(f"clustering_{variant}", 0.0, per_node=np.zeros(n))
    A = (g.adjacency() > 0).astype(float)
    deg = A.sum(axis=1)
    if variant in ("mean_local", "transitivity"):
        tri = np.diag(A @ A @ A) / 2.0
        if variant == "mean_local":
            denom = deg * (deg - 1)
            per = np.where(denom > 0, 2.0 * tri / np.maximum(denom, 1), 0.0)
            return MetricReport("clustering_mean_local", float(per.mean()), per_node=per)
        triples = float(np.sum(deg * (deg - 1) / 2.0))
        total_tri = float(tri.sum() / 3.0)
        value = 3.0 * total_tri / triples if triples > 0 else 0.0
        return MetricReport("clustering_transitivity", value)
    if variant == "weighted_geometric":
        Wc = np.cbrt(g.adjacency() / g.edge_weights().max())
        tri_w = np.diag(Wc @ Wc @ Wc) / 2.0
        denom = deg * (deg - 1)
        per = np.where(denom > 0, 2.0 * tri_w / np.maximum(denom, 1), 0.0)
        return MetricReport("clustering_weighted_geometric", float(per.mean()), per_node=per)
    raise ValueError(f"unknown clustering variant {variant!r}")


_LOCAL_BATCH_NODES = 512  # bounds each block-diagonal distance matrix


def local_efficiency(g):
    """Mean over nodes of the inverse-distance average within each node's
    neighbor subgraph; nodes with fewer than two neighbors contribute 0.

    Neighbor subgraphs are solved a batch at a time as the diagonal blocks
    of one block-diagonal graph, so each batch is one shortest-path call.
    """
    n = g.n
    if n == 0:
        return MetricReport("local_efficiency", 0.0, per_node=np.zeros(0))
    W = g.adjacency().astype(float)
    per = np.zeros(n)
    blocks, rows, cols, lengths = [], [], [], []
    offset = 0

    def solve_batch():
        graph = csr_matrix(
            (np.concatenate(lengths), (np.concatenate(rows), np.concatenate(cols))),
            shape=(offset, offset),
        )
        D = _sp(graph, method="D", directed=False, unweighted=g.weights is None)
        for i, start, k in blocks:
            with np.errstate(divide="ignore"):
                inv = 1.0 / D[start : start + k, start : start + k]
            inv[~np.isfinite(inv)] = 0.0
            np.fill_diagonal(inv, 0.0)
            per[i] = inv.sum() / (k * (k - 1))

    for i in range(n):
        nb = np.flatnonzero(W[i])
        k = nb.size
        if k < 2:
            continue
        sub = W[np.ix_(nb, nb)]
        r, c = np.nonzero(np.triu(sub, 1))
        blocks.append((i, offset, k))
        rows.append(r + offset)
        cols.append(c + offset)
        lengths.append(1.0 / sub[r, c])
        offset += k
        if offset >= _LOCAL_BATCH_NODES:
            solve_batch()
            blocks, rows, cols, lengths, offset = [], [], [], [], 0
    if blocks:
        solve_batch()
    return MetricReport("local_efficiency", float(per.mean()), per_node=per)


def global_efficiency(g):
    """Average inverse shortest distance over ordered pairs (1/inf = 0)."""
    n = g.n
    if n < 2:
        return MetricReport("global_efficiency", 0.0)
    D = distance_matrix(g)
    with np.errstate(divide="ignore"):
        inv = 1.0 / D
    inv[~np.isfinite(inv)] = 0.0
    np.fill_diagonal(inv, 0.0)
    unreachable = int(np.sum(np.isinf(D)))
    return MetricReport(
        "global_efficiency", float(inv.sum() / (n * (n - 1))), unreachable_pair_count=unreachable
    )


def path_length(g):
    """Mean shortest-path length over reachable ordered pairs."""
    n = g.n
    D = distance_matrix(g)
    off = ~np.eye(n, dtype=bool)
    finite = np.isfinite(D) & off
    unreachable = int(np.sum(~np.isfinite(D) & off))
    if not np.any(finite):
        raise ValueError("path length undefined: no reachable node pairs")
    return MetricReport(
        "path_length", float(D[finite].mean()), unreachable_pair_count=unreachable
    )


def _brandes(g):
    """Brandes accumulation; returns (node betweenness, edge betweenness dict).

    Breadth-first on unweighted networks, Dijkstra with 1/weight lengths on
    weighted ones. Values use the unordered-pair convention (accumulations
    halved), raw and unnormalized.
    """
    n = g.n
    weighted = g.weights is not None
    L = _sparse_adj(g, lengths=True)
    L.sort_indices()  # neighbors in ascending order fix the accumulation order
    adj = [
        list(zip(L.indices[lo:hi].tolist(), L.data[lo:hi].tolist()))
        for lo, hi in zip(L.indptr[:-1].tolist(), L.indptr[1:].tolist())
    ]
    node_bc = np.zeros(n)
    edge_bc = dict.fromkeys(map(tuple, g.pairs.tolist()), 0.0)
    for s in range(n):
        sigma = np.zeros(n)
        sigma[s] = 1.0
        dist = np.full(n, np.inf)
        dist[s] = 0.0
        preds = [[] for _ in range(n)]
        order = []
        if weighted:
            seen = np.zeros(n, dtype=bool)
            heap = [(0.0, s)]
            while heap:
                d, v = heapq.heappop(heap)
                if seen[v]:
                    continue
                seen[v] = True
                order.append(v)
                for w_, length in adj[v]:
                    nd = d + length
                    if nd < dist[w_] - 1e-12:
                        dist[w_] = nd
                        sigma[w_] = sigma[v]
                        preds[w_] = [v]
                        heapq.heappush(heap, (nd, w_))
                    elif abs(nd - dist[w_]) <= 1e-12 and not seen[w_]:
                        sigma[w_] += sigma[v]
                        preds[w_].append(v)
        else:
            queue = [s]
            head = 0
            while head < len(queue):
                v = queue[head]
                head += 1
                order.append(v)
                for w_, _ in adj[v]:
                    if np.isinf(dist[w_]):
                        dist[w_] = dist[v] + 1
                        queue.append(w_)
                    if dist[w_] == dist[v] + 1:
                        sigma[w_] += sigma[v]
                        preds[w_].append(v)
        delta = np.zeros(n)
        for v in reversed(order):
            for p in preds[v]:
                share = sigma[p] / sigma[v] * (1.0 + delta[v])
                delta[p] += share
                key = (min(p, v), max(p, v))
                edge_bc[key] += share
            if v != s:
                node_bc[v] += delta[v]
    node_bc /= 2.0
    for k in edge_bc:
        edge_bc[k] /= 2.0
    return node_bc, edge_bc


def betweenness(g):
    return _brandes(g)[0]


def edge_betweenness(g):
    return _brandes(g)[1]


def centrality(g, kind):
    """Classical centralities: degree, betweenness, closeness, eigenvector.

    Closeness is component-restricted: (|C| - 1) / sum of distances inside the
    node's own component, 0 for isolated nodes. Eigenvector centrality is the
    nonnegative unit-norm principal vector on the largest component (power
    iteration, tolerance 1e-10), zero elsewhere.
    """
    n = g.n
    if kind == "degree":
        per = g.degrees().astype(float)
        return MetricReport("centrality_degree", float(per.mean()), per_node=per)
    if kind == "betweenness":
        per = betweenness(g)
        return MetricReport("centrality_betweenness", float(per.mean()), per_node=per)
    if kind == "closeness":
        D = distance_matrix(g)
        per = np.zeros(n)
        for comp in components(g):
            if comp.size < 2:
                continue
            sub = D[np.ix_(comp, comp)]
            per[comp] = (comp.size - 1) / sub.sum(axis=1)
        return MetricReport("centrality_closeness", float(per.mean()), per_node=per)
    if kind == "eigenvector":
        if g.edge_count == 0:
            raise ValueError("eigenvector centrality undefined on an edgeless graph")
        comp = largest_component(g)
        A = g.adjacency().astype(float)[np.ix_(comp, comp)]
        x = np.full(comp.size, 1.0 / np.sqrt(comp.size))
        for _ in range(100000):
            # shift by I so bipartite components cannot oscillate
            y = A @ x + x
            norm = np.linalg.norm(y)
            if norm == 0:
                break
            y /= norm
            if np.max(np.abs(y - x)) < 1e-10:
                x = y
                break
            x = y
        x = np.abs(x)
        x /= np.linalg.norm(x)
        per = np.zeros(n)
        per[comp] = x
        return MetricReport("centrality_eigenvector", float(per.mean()), per_node=per)
    raise ValueError(f"unknown centrality kind {kind!r}")


def assortativity(g):
    """Degree correlation across edges.

    With j_e, k_e the endpoint degrees of edge e and M the edge count:
    r = [mean(j k) - mean((j + k) / 2)^2] /
    [mean((j^2 + k^2) / 2) - mean((j + k) / 2)^2].
    Degree-regular graphs have zero denominator and raise.
    """
    if g.edge_count == 0:
        raise ValueError("assortativity undefined: no edges")
    deg = g.degrees().astype(float)
    j, k = deg[g.pairs[:, 0]], deg[g.pairs[:, 1]]
    mean_prod = np.mean(j * k)
    mean_half_sum = np.mean((j + k) / 2.0)
    mean_half_sq = np.mean((j**2 + k**2) / 2.0)
    denom = mean_half_sq - mean_half_sum**2
    if abs(denom) < 1e-15:
        raise ValueError("assortativity undefined: all edge endpoints have equal degree")
    value = (mean_prod - mean_half_sum**2) / denom
    return MetricReport("assortativity", float(value))


def degree_sequence(g):
    """Degrees in node order."""
    return g.degrees().tolist()


METRIC_NAMES = (
    "density",
    "mean_degree",
    "clustering_mean_local",
    "clustering_transitivity",
    "clustering_weighted_geometric",
    "local_efficiency",
    "global_efficiency",
    "path_length",
    "assortativity",
)


def metric_value(g, metric):
    """Scalar metric dispatcher used by the bootstrap and the CLI."""
    if metric == "density":
        return density(g)
    if metric == "mean_degree":
        return float(g.degrees().mean())
    if metric.startswith("clustering_"):
        return clustering(g, metric.removeprefix("clustering_")).value
    if metric == "local_efficiency":
        return local_efficiency(g).value
    if metric == "global_efficiency":
        return global_efficiency(g).value
    if metric == "path_length":
        return path_length(g).value
    if metric == "assortativity":
        return assortativity(g).value
    raise ValueError(f"unknown metric {metric!r}; known: {METRIC_NAMES}")
