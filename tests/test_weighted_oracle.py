"""Weighted metrics and modularity against networkx as an independent oracle.

Random graphs carry unequal weights, so a metric that ignores weights, or
uses weight instead of 1/weight as the edge length, disagrees with networkx.
"""

import numpy as np
import pytest

from fcnets.communities import modularity
from fcnets.metrics import (
    betweenness,
    centrality,
    clustering,
    distance_matrix,
    edge_betweenness,
    global_efficiency,
    local_efficiency,
    path_length,
)
from fcnets.networks import WeightedNetwork

nx = pytest.importorskip("networkx")

SEEDS = range(50)


def random_weighted(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 26))
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < rng.uniform(0.15, 0.6)
    if keep.sum() < 2:
        keep[:2] = True
    w = rng.uniform(0.1, 3.0, int(keep.sum()))
    triples = list(zip(iu[keep].tolist(), ju[keep].tolist(), w.tolist()))
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from((a, b, {"weight": x, "length": 1.0 / x}) for a, b, x in triples)
    return WeightedNetwork(n, triples), G


def nx_distances(G):
    n = G.number_of_nodes()
    D = np.full((n, n), np.inf)
    for s, lengths in nx.all_pairs_dijkstra_path_length(G, weight="length"):
        for t, d in lengths.items():
            D[s, t] = d
    return D


@pytest.mark.parametrize("seed", SEEDS)
def test_paths_and_efficiency(seed):
    g, G = random_weighted(seed)
    n = g.n
    D = nx_distances(G)
    assert np.allclose(distance_matrix(g), D, rtol=1e-12, atol=0)
    off = ~np.eye(n, dtype=bool)
    finite = np.isfinite(D) & off
    inv = np.where(finite, 1.0 / np.where(finite, D, 1.0), 0.0)
    assert global_efficiency(g).value == pytest.approx(inv.sum() / (n * (n - 1)), rel=1e-12)
    assert path_length(g).value == pytest.approx(D[finite].mean(), rel=1e-12)
    assert path_length(g).unreachable_pair_count == int((~finite & off).sum())


@pytest.mark.parametrize("seed", SEEDS)
def test_betweenness_and_closeness(seed):
    g, G = random_weighted(seed)
    node = nx.betweenness_centrality(G, normalized=False, weight="length")
    assert np.allclose(betweenness(g), [node[v] for v in range(g.n)], rtol=1e-9, atol=1e-9)
    edge = nx.edge_betweenness_centrality(G, normalized=False, weight="length")
    ours = edge_betweenness(g)
    assert set(ours) == {(min(e), max(e)) for e in edge}
    for (a, b), value in edge.items():
        assert ours[(min(a, b), max(a, b))] == pytest.approx(value, rel=1e-9, abs=1e-9)
    close = nx.closeness_centrality(G, distance="length", wf_improved=False)
    assert np.allclose(
        centrality(g, "closeness").per_node, [close[v] for v in range(g.n)], rtol=1e-12, atol=0
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_weighted_clustering_and_local_efficiency(seed):
    g, G = random_weighted(seed)
    report = clustering(g, "weighted_geometric")
    expected = nx.clustering(G, weight="weight")
    assert np.allclose(report.per_node, [expected[v] for v in range(g.n)], rtol=1e-12, atol=1e-15)

    per = np.zeros(g.n)
    for v in range(g.n):
        hood = list(G.neighbors(v))
        k = len(hood)
        if k < 2:
            continue
        H = G.subgraph(hood)
        total = sum(
            1.0 / d
            for s, lengths in nx.all_pairs_dijkstra_path_length(H, weight="length")
            for t, d in lengths.items()
            if t != s
        )
        per[v] = total / (k * (k - 1))
    result = local_efficiency(g)
    assert np.allclose(result.per_node, per, rtol=1e-12, atol=0)
    assert result.value == pytest.approx(per.mean(), rel=1e-12)


@pytest.mark.parametrize("seed", SEEDS)
def test_modularity_of_random_partition(seed):
    g, G = random_weighted(seed)
    labels = np.random.default_rng(1000 + seed).integers(0, 4, g.n)
    parts = [set(np.flatnonzero(labels == c).tolist()) for c in np.unique(labels)]
    expected = nx.community.modularity(G, parts, weight="weight")
    assert modularity(g, labels) == pytest.approx(expected, rel=1e-12, abs=1e-12)
