"""Descriptive graph metrics on binary and weighted networks.

Distances on weighted networks use 1/weight as edge length. Efficiency and
path-length formulas follow the inverse-distance averages over ordered node
pairs; unreachable pairs contribute zero to efficiencies and are excluded
(and counted) for the characteristic path length.

Unweighted path length, efficiencies and triangle counts run on packed
bitsets (uint64 words, one bit per node or source). Path length and global
efficiency count ordered pairs by hop distance with a breadth-first search
from a block of sources at once, one bit per source (Then et al. 2014);
graphs held as the diagonal blocks of one network search together
(`block_global_efficiencies`).
Triangles are popcounts of adjacency-row intersections, and local efficiency
runs the same search on every node's neighbour subgraph at once, whose edges
are those intersections. All of them count exact integers. Weighted path
length, the weighted efficiencies and closeness take scipy's shortest-path
distances (Dijkstra).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

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


def _csr_edges(g):
    """Neighbour lists in CSR form, ascending within each row.

    Returns (indptr, neighbours, edge ids): the slots of node v are
    indptr[v]:indptr[v + 1], and each slot carries the row of `g.pairs`
    that holds its edge.
    """
    rows = g.pairs.T.ravel()
    cols = g.pairs[:, ::-1].T.ravel()
    order = np.argsort(rows * g.n + cols)  # keys are distinct: (row, col) order
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=g.n), out=indptr[1:])
    return indptr, cols[order], np.tile(np.arange(g.edge_count), 2)[order]


def _sparse_adj(g, w):
    """Symmetric CSR adjacency carrying the per-edge values w (in pair order)."""
    indptr, nbr, eid = _csr_edges(g)
    return csr_matrix((w[eid], nbr, indptr), shape=(g.n, g.n))


# Bounds the uint64 words one bitset gather holds: 2m * words for a
# breadth-first level over a block of 64 * words sources, edges * words for
# a block of triangle row intersections, and the words a chunk of centres
# of local efficiency gathers (see `_local_inverse_sums`).
_BITSET_BLOCK = 1 << 20


def _bitset(n, rows, bits, width):
    """(n, ceil(width / 64)) uint64 rows with bit bits[k] set in row rows[k]."""
    words = -(-width // 64)
    dense = np.zeros((n, 64 * words), dtype=bool)
    dense[rows, bits] = True
    return np.packbits(dense, axis=1, bitorder="little").view(np.uint64)


def distance_matrix(g):
    """All-pairs shortest-path distances (hops, or summed 1/weight)."""
    if g.n == 0:
        return np.zeros((0, 0))
    L = _sparse_adj(g, 1.0 / g.edge_weights())
    return _sp(L, method="D", directed=False, unweighted=g.weights is None)


def components(g):
    """Connected components as lists of node indices (sorted within/by head)."""
    if g.n == 0:
        return []
    ncomp, labels = _cc(_sparse_adj(g, g.edge_weights()), directed=False)
    return [np.where(labels == c)[0] for c in range(ncomp)]


def largest_component(g):
    """Nodes of the largest component; ties pick the one with the smallest node."""
    if g.n == 0:
        raise ValueError("largest component undefined: the network has no nodes")
    return min(components(g), key=lambda c: (-len(c), int(c[0])))


def density(g):
    possible = g.n * (g.n - 1) / 2
    return g.edge_count / possible if possible else 0.0


def clustering(g, variant="mean_local"):
    """Triangle-based clustering.

    mean_local averages 2 * t_i / (k_i (k_i - 1)) over all nodes, degree < 2
    contributing 0. transitivity is 3 * triangles / connected triples. Both
    count triangles on the 0/1 adjacency with bitset rows: edge (i, j) closes
    popcount(row_i & row_j) triangles, and t_i is half the sum over i's edges.
    weighted_geometric replaces triangle counts with geometric-mean triangle
    weights (weights rescaled by the maximum), reducing to mean_local when
    all weights are equal.
    """
    n = g.n
    if n == 0 or g.edge_count == 0:
        return MetricReport(f"clustering_{variant}", 0.0, per_node=np.zeros(n))
    deg = g.degrees().astype(float)
    if variant in ("mean_local", "transitivity"):
        tri = _triangles(g) / 2.0
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


def _adjacency_rows(g):
    """(n, ceil(n / 64)) uint64 rows of the 0/1 adjacency, bit j of row i for edge (i, j)."""
    i, j = g.pairs.T
    return _bitset(g.n, np.concatenate((i, j)), np.concatenate((j, i)), g.n)


def _triangles(g):
    """Twice each node's triangle count, from popcounts of adjacency-row pairs."""
    i, j = g.pairs.T
    rows = _adjacency_rows(g)
    closed = np.zeros(g.edge_count, dtype=np.int64)  # triangles through each edge
    step = max(1, _BITSET_BLOCK // rows.shape[1])
    for k in range(0, g.edge_count, step):
        both = rows[i[k : k + step]] & rows[j[k : k + step]]
        closed[k : k + step] = np.bitwise_count(both).sum(axis=1)
    return np.bincount(g.pairs.ravel(), weights=np.repeat(closed, 2), minlength=g.n)


def _levels(front, nbr, indptr):
    """Breadth-first levels from the source bits in `front`, one level per item.

    front holds a row of source bits for each node of the graph whose
    neighbour lists are CSR (indptr, nbr). The search runs on the nodes
    with neighbours only: no node lists one without, and the reduceat
    would give its empty segment the next element. A level ORs the
    frontier rows of each node's neighbours (one reduceat over the CSR
    slots) and keeps the bits not yet seen; it yields the nodes with
    neighbours and the popcount of each one's newly reached bits, until a
    level reaches nothing.
    """
    linked = np.flatnonzero(np.diff(indptr))
    starts = indptr[linked]
    position = np.zeros(len(indptr) - 1, dtype=np.int64)
    position[linked] = np.arange(linked.size)
    nbr = position[nbr]
    front = front[linked]
    unseen = ~front
    while True:
        front = np.bitwise_or.reduceat(front[nbr], starts, axis=0)
        front &= unseen
        found = np.bitwise_count(front).sum(axis=1)
        if not found.any():
            return
        yield linked, found
        unseen ^= front


def _local_inverse_sums(g):
    """Per node, the sum of 1/hop distance over ordered pairs of its
    neighbour subgraph (unweighted networks).

    Each CSR slot (c, a) stands for node a in c's neighbour subgraph, where
    its neighbours are N(c) & N(a): the set bits of the intersection of
    adjacency rows c and a, as in `_triangles`. Every subgraph searches at
    once as the blocks of one block-diagonal graph on the slots (`_levels`).
    Sources stay in their own block, so slot (c, a) carries bit p for the
    p-th neighbour of c in a row of ceil(max degree / 64) words. Each
    level's popcounts add up per centre with one bincount. Centres run in
    consecutive chunks whose temporaries stay within _BITSET_BLOCK words.
    """
    n = g.n
    indptr, nbr, _ = _csr_edges(g)
    deg = np.diff(indptr)
    centre = np.repeat(np.arange(n), deg)
    local = np.arange(nbr.size) - indptr[centre]
    keys = centre * n + nbr  # ascending, so the slot of (c, b) is the rank of c * n + b
    rows = _adjacency_rows(g)
    width = -(-int(deg.max()) // 64)
    # words per slot: the unpacked row intersection and source bits (one
    # byte per bit) and up to deg - 1 neighbour rows gathered per level
    cost = 8 * (rows.shape[1] + width) + (deg[centre] - 1) * width
    bound = np.concatenate(([0], np.cumsum(cost)))[indptr]
    sums = np.zeros(n)
    lo = 0
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(bound, bound[lo] + _BITSET_BLOCK, side="right")) - 1)
        s0, s1 = indptr[lo], indptr[hi]
        c, a = centre[s0:s1], nbr[s0:s1]
        both = np.unpackbits((rows[c] & rows[a]).view(np.uint8), axis=1, bitorder="little")
        hit, b = np.nonzero(both)
        sub_indptr = np.zeros(s1 - s0 + 1, dtype=np.int64)
        np.cumsum(np.bincount(hit, minlength=s1 - s0), out=sub_indptr[1:])
        sub_nbr = np.searchsorted(keys, c[hit] * n + b) - s0
        front = _bitset(s1 - s0, np.arange(s1 - s0), local[s0:s1], 64 * width)
        for level, (linked, found) in enumerate(_levels(front, sub_nbr, sub_indptr), start=1):
            sums[lo:hi] += np.bincount(c[linked] - lo, weights=found, minlength=hi - lo) / level
        lo = hi
    return sums


_LOCAL_BATCH_NODES = 512  # bounds each block-diagonal distance matrix


def _local_inverse_sums_dijkstra(g):
    """Per node, the sum of 1/distance over ordered pairs of its neighbour
    subgraph, with 1/weight lengths (weighted networks).

    Neighbour subgraphs are solved a batch at a time as the diagonal blocks
    of one block-diagonal graph, so each batch is one shortest-path call.
    """
    n = g.n
    W = g.adjacency().astype(float)
    sums = np.zeros(n)
    blocks, rows, cols, lengths = [], [], [], []
    offset = 0

    def solve_batch():
        graph = csr_matrix(
            (np.concatenate(lengths), (np.concatenate(rows), np.concatenate(cols))),
            shape=(offset, offset),
        )
        D = _sp(graph, method="D", directed=False)
        for i, start, k in blocks:
            with np.errstate(divide="ignore"):
                inv = 1.0 / D[start : start + k, start : start + k]
            inv[~np.isfinite(inv)] = 0.0
            np.fill_diagonal(inv, 0.0)
            sums[i] = inv.sum()

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
    return sums


def local_efficiency(g):
    """Mean over nodes of the inverse-distance average within each node's
    neighbor subgraph; nodes with fewer than two neighbors contribute 0.

    Unweighted networks count hop distances in every neighbor subgraph at
    once with a bit-parallel breadth-first search (`_local_inverse_sums`).
    Weighted ones take scipy's Dijkstra distances with 1/weight lengths, a
    batch of subgraphs per call (`_local_inverse_sums_dijkstra`).
    """
    n = g.n
    if n == 0:
        return MetricReport("local_efficiency", 0.0, per_node=np.zeros(0))
    if g.edge_count == 0:
        sums = np.zeros(n)
    elif g.weights is None:
        sums = _local_inverse_sums(g)
    else:
        sums = _local_inverse_sums_dijkstra(g)
    deg = g.degrees()
    pairs = deg * (deg - 1)
    per = np.where(pairs > 0, sums / np.maximum(pairs, 1), 0.0)
    return MetricReport("local_efficiency", float(per.mean()), per_node=per)


def global_efficiency(g):
    """Average inverse shortest distance over ordered pairs (1/inf = 0).

    Unweighted networks sum c_l / l over the counts c_l of ordered pairs at
    each hop distance l (`_hop_counts`) as an exact fraction and divide
    once, so the value is correctly rounded (`block_global_efficiencies`
    with one block). Weighted ones average the inverses of scipy's Dijkstra
    distances with 1/weight lengths. Unreachable ordered pairs contribute 0
    and are counted.
    """
    n = g.n
    if n < 2:
        return MetricReport("global_efficiency", 0.0)
    if g.weights is None:
        [(value, unreachable)] = block_global_efficiencies(g, n)
    else:
        D = distance_matrix(g)
        with np.errstate(divide="ignore"):
            inv = 1.0 / D
        inv[~np.isfinite(inv)] = 0.0
        np.fill_diagonal(inv, 0.0)
        value = float(inv.sum() / (n * (n - 1)))
        unreachable = int(np.sum(np.isinf(D)))
    return MetricReport("global_efficiency", value, unreachable_pair_count=unreachable)


def block_global_efficiencies(g, size):
    """(global efficiency, unreachable ordered pairs) of each graph that an
    unweighted g holds as its diagonal blocks of `size` nodes, with no edge
    between blocks; a block of fewer than 2 nodes has efficiency 0.

    Every block counts its pairs by hop distance in one search
    (`_hop_counts`); each value is the correctly rounded exact fraction
    sum over l of c_l / l, over size * (size - 1).
    """
    pairs = size * (size - 1)
    out = []
    for counts in _hop_counts(g, size).tolist():
        total = sum((Fraction(c, level) for level, c in enumerate(counts, start=1) if c), Fraction(0))
        out.append((float(total / pairs) if pairs else 0.0, pairs - sum(counts)))
    return out


def _hop_counts(g, size=None):
    """Ordered node pairs at each hop distance 1, 2, ..., size within each
    diagonal block of `size` nodes of g (default one block, the whole
    graph): a (g.n // size, size) int64 array, one row per block. No edge
    may join two blocks.

    A block of b sources of every graph searches at once (`_levels`) on
    (n, ceil(b / 64)) bitsets whose row v holds one bit per source of v's
    graph, and each level's new pairs are counted by popcount and summed
    per graph.
    """
    n = g.n
    size = n if size is None else size
    graphs = n // size if size else 1
    indptr, nbr, _ = _csr_edges(g)
    counts = np.zeros((graphs, size), dtype=np.int64)
    words = max(1, _BITSET_BLOCK // max(1, nbr.size))
    for first in range(0, size, 64 * words):
        sources = np.arange(first, min(size, first + 64 * words))
        rows = (np.arange(graphs)[:, None] * size + sources).ravel()
        front = _bitset(n, rows, np.tile(sources - first, graphs), sources.size)
        for level, (linked, found) in enumerate(_levels(front, nbr, indptr)):
            counts[:, level] += np.bincount(linked // size, weights=found, minlength=graphs).astype(np.int64)
    return counts


def path_length(g):
    """Mean shortest-path length over reachable ordered pairs.

    Unweighted networks count pairs by hop distance with a bit-parallel
    breadth-first search (`_hop_counts`), so the mean is an exact integer
    sum over an exact count; weighted ones average scipy's Dijkstra
    distances with 1/weight lengths. Unreachable ordered pairs are left out
    and counted.
    """
    n = g.n
    if g.weights is None:
        counts = _hop_counts(g)[0].tolist()
        reachable = sum(counts)
        total = sum(level * c for level, c in enumerate(counts, start=1))
    else:
        D = distance_matrix(g)
        finite = D[np.isfinite(D) & ~np.eye(n, dtype=bool)]
        reachable, total = finite.size, float(finite.sum())
    if not reachable:
        raise ValueError("path length undefined: no reachable node pairs")
    return MetricReport(
        "path_length", total / reachable, unreachable_pair_count=n * (n - 1) - reachable
    )


# Bounds b * (n + 2m) for a block of b sources: the flat per-(source, node)
# state is b * n entries and one level expands at most b * 2m CSR slots.
_BRANDES_BLOCK = 1 << 18


def _brandes_levels(g):
    """Unweighted Brandes over every source at once, level by level.

    Sources run in blocks; state is flat arrays indexed s * n + v (hop
    distance, path count sigma, dependency delta). A forward level expands
    the whole frontier through the CSR slots and sums sigma over each
    successor with bincount; a backward level does the same for delta and
    the edge shares, keyed by the edge id of each slot. Work is O(n m), as
    in one breadth-first search per source. Returns raw (unhalved) node
    and edge accumulations, the latter in pair order.
    """
    n, m = g.n, g.edge_count
    indptr, nbr, eid = _csr_edges(g)
    node_bc = np.zeros(n)
    edge_bc = np.zeros(m)

    def expand(front):
        """Frontier position, CSR slot and flat successor index of every slot."""
        v = front % n
        start = indptr[v]
        count = indptr[v + 1] - start
        pos = np.repeat(np.arange(front.size), count)
        slot = np.arange(pos.size) + np.repeat(start - (np.cumsum(count) - count), count)
        return pos, slot, (front - v)[pos] + nbr[slot]

    per_block = max(1, _BRANDES_BLOCK // max(1, n + 2 * m))
    for first in range(0, n, per_block):
        sources = np.arange(first, min(n, first + per_block))
        size = sources.size * n
        roots = np.arange(sources.size) * n + sources
        dist = np.full(size, -1, dtype=np.int32)
        sigma = np.zeros(size)
        delta = np.zeros(size)
        dist[roots] = 0
        sigma[roots] = 1.0
        levels = [roots]
        while levels[-1].size:
            front, d = levels[-1], len(levels)
            pos, _, succ = expand(front)
            seen = dist[succ]
            fresh = seen < 0
            dist[succ[fresh]] = d
            on_path = fresh | (seen == d)
            # only level-d entries receive counts, and their sigma starts at 0
            sigma += np.bincount(succ[on_path], weights=sigma[front[pos[on_path]]], minlength=size)
            levels.append(np.flatnonzero(dist == d))
        for d in range(len(levels) - 2, 0, -1):
            front = levels[d - 1]
            pos, slot, succ = expand(front)
            on_path = dist[succ] == d
            pos, succ = pos[on_path], succ[on_path]
            share = sigma[front[pos]] / sigma[succ] * (1.0 + delta[succ])
            delta[front] = np.bincount(pos, weights=share, minlength=front.size)
            edge_bc += np.bincount(eid[slot[on_path]], weights=share, minlength=m)
        delta[roots] = 0.0
        node_bc += delta.reshape(sources.size, n).sum(axis=0)
    return node_bc, edge_bc


def _brandes_dijkstra(g):
    """Weighted Brandes, one Dijkstra search per source with 1/weight lengths.

    Returns raw (unhalved) node and edge accumulations, the latter in pair
    order.
    """
    n = g.n
    indptr, nbr, eid = _csr_edges(g)
    lengths = 1.0 / g.weights[eid]
    adj = [
        list(zip(nbr[lo:hi].tolist(), lengths[lo:hi].tolist(), eid[lo:hi].tolist()))
        for lo, hi in zip(indptr[:-1].tolist(), indptr[1:].tolist())
    ]
    node_bc = np.zeros(n)
    edge_bc = np.zeros(g.edge_count)
    for s in range(n):
        sigma = np.zeros(n)
        sigma[s] = 1.0
        dist = np.full(n, np.inf)
        dist[s] = 0.0
        preds = [[] for _ in range(n)]
        order = []
        seen = np.zeros(n, dtype=bool)
        heap = [(0.0, s)]
        while heap:
            d, v = heapq.heappop(heap)
            if seen[v]:
                continue
            seen[v] = True
            order.append(v)
            for w_, length, e in adj[v]:
                nd = d + length
                if nd < dist[w_] - 1e-12:
                    dist[w_] = nd
                    sigma[w_] = sigma[v]
                    preds[w_] = [(v, e)]
                    heapq.heappush(heap, (nd, w_))
                elif abs(nd - dist[w_]) <= 1e-12 and not seen[w_]:
                    sigma[w_] += sigma[v]
                    preds[w_].append((v, e))
        delta = np.zeros(n)
        for v in reversed(order):
            for p, e in preds[v]:
                share = sigma[p] / sigma[v] * (1.0 + delta[v])
                delta[p] += share
                edge_bc[e] += share
            if v != s:
                node_bc[v] += delta[v]
    return node_bc, edge_bc


def _brandes(g):
    """Brandes accumulation; returns (node betweenness, edge betweenness dict).

    Unweighted networks run every source at once, level by level
    (`_brandes_levels`); weighted ones run one Dijkstra search per source
    with 1/weight lengths (`_brandes_dijkstra`). Values use the
    unordered-pair convention (accumulations halved), raw and unnormalized;
    the edge dict is keyed by (i, j) pairs in pair order.
    """
    node_bc, edge_bc = (_brandes_levels if g.weights is None else _brandes_dijkstra)(g)
    return node_bc / 2.0, dict(zip(map(tuple, g.pairs.tolist()), (edge_bc / 2.0).tolist()))


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
            y = A @ x + x  # stays > 0, as x > 0 and A >= 0, so its norm is never 0
            y /= np.linalg.norm(y)
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


_METRICS = {
    "density": density,
    "mean_degree": lambda g: float(g.degrees().mean()),
    "clustering_mean_local": lambda g: clustering(g, "mean_local").value,
    "clustering_transitivity": lambda g: clustering(g, "transitivity").value,
    "clustering_weighted_geometric": lambda g: clustering(g, "weighted_geometric").value,
    "local_efficiency": lambda g: local_efficiency(g).value,
    "global_efficiency": lambda g: global_efficiency(g).value,
    "path_length": lambda g: path_length(g).value,
    "assortativity": lambda g: assortativity(g).value,
}
METRIC_NAMES = tuple(_METRICS)


def metric_value(g, metric):
    """Scalar metric dispatcher used by the bootstrap and the CLI."""
    if metric not in _METRICS:
        raise ValueError(f"unknown metric {metric!r}; known: {METRIC_NAMES}")
    return _METRICS[metric](g)
