"""Weighted metrics and modularity against networkx as an independent oracle.

Random graphs carry unequal weights, so a metric that ignores weights, or
uses weight instead of 1/weight as the edge length, disagrees with networkx.
Eigenvector centrality and assortativity are checked on the same graphs taken
as binary graphs.
"""

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path as sp

from fcnets import metrics
from fcnets.communities import modularity
from fcnets.metrics import (
    assortativity,
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


def integer_weighted(G, seed):
    """G with weights drawn from {1, 2}: lengths 1 and 0.5 add up exactly, so
    many geodesics tie and Dijkstra meets each tie at an equal distance."""
    G = nx.convert_node_labels_to_integers(G, ordering="sorted")
    w = np.random.default_rng(seed).choice([1.0, 2.0], G.number_of_edges())
    triples = [(a, b, x) for (a, b), x in zip(G.edges(), w.tolist())]
    for a, b, x in triples:
        G[a][b].update(weight=x, length=1.0 / x)
    return WeightedNetwork(G.number_of_nodes(), triples), G


@pytest.mark.parametrize(
    "G",
    [
        nx.grid_2d_graph(6, 7),
        nx.hypercube_graph(4),
        nx.watts_strogatz_graph(30, 4, 0.0),  # ring lattice
        nx.gnp_random_graph(25, 0.2, seed=3),
    ],
    ids=["grid", "hypercube", "ring_lattice", "gnp"],
)
@pytest.mark.parametrize("seed", range(3))
def test_betweenness_with_tied_weighted_geodesics(G, seed):
    g, G = integer_weighted(G, seed)
    tied = [
        t for t in range(1, g.n)
        if nx.has_path(G, 0, t) and len(list(nx.all_shortest_paths(G, 0, t, weight="length"))) > 1
    ]
    assert tied  # the sweep reaches the equal-distance branch of the search
    node = nx.betweenness_centrality(G, normalized=False, weight="length")
    assert np.allclose(betweenness(g), [node[v] for v in range(g.n)], rtol=1e-12, atol=1e-12)
    edge = nx.edge_betweenness_centrality(G, normalized=False, weight="length")
    ours = edge_betweenness(g)
    assert set(ours) == {(min(e), max(e)) for e in edge}
    for (a, b), value in edge.items():
        assert ours[(min(a, b), max(a, b))] == pytest.approx(value, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_betweenness_with_tiny_weights(seed):
    """Weights near 1e-5 put distances near 1e6, where one rounding of a
    distance exceeds 1e-12: each shortest-path tree edge must still count."""
    rng = np.random.default_rng(seed)
    G = nx.gnp_random_graph(40, 0.06, seed=seed)
    G.add_edges_from(zip(range(39), range(1, 40)))  # a path keeps it connected
    w = 1e-5 * rng.uniform(0.1, 3.0, G.number_of_edges())
    triples = [(a, b, x) for (a, b), x in zip(G.edges(), w.tolist())]
    for a, b, x in triples:
        G[a][b].update(weight=x, length=1.0 / x)
    g = WeightedNetwork(G.number_of_nodes(), triples)
    ours, edge = metrics._brandes(g)
    assert not np.isnan(ours).any() and not np.isnan(list(edge.values())).any()
    node = nx.betweenness_centrality(G, normalized=False, weight="length")
    assert np.allclose(ours, [node[v] for v in range(g.n)], rtol=1e-12, atol=1e-12)
    expected = nx.edge_betweenness_centrality(G, normalized=False, weight="length")
    for (a, b), value in expected.items():
        assert edge[(min(a, b), max(a, b))] == pytest.approx(value, rel=1e-12, abs=1e-12)


def test_weighted_blocked_sources_match_one_block(monkeypatch):
    g, G = integer_weighted(nx.watts_strogatz_graph(30, 4, 0.3, seed=2), 0)
    whole = metrics._brandes(g)
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["indices"].tolist())
        return sp(*args, **kwargs)

    monkeypatch.setattr(metrics, "_sp", counted)
    node_nx = nx.betweenness_centrality(G, normalized=False, weight="length")
    step = g.n + 2 * g.edge_count
    for sources in (g.n - 1, 7, 1):  # the last block holds 1, 2 and 1 sources
        monkeypatch.setattr(metrics, "_BRANDES_BLOCK", sources * step)
        calls.clear()
        node, edge = metrics._brandes(g)
        assert calls == [list(range(lo, min(g.n, lo + sources))) for lo in range(0, g.n, sources)]
        assert np.allclose(node, whole[0], rtol=1e-12, atol=0)
        assert list(edge) == list(whole[1])
        assert np.allclose(list(edge.values()), list(whole[1].values()), rtol=1e-12, atol=0)
        assert np.allclose(node, [node_nx[v] for v in range(g.n)], rtol=1e-12, atol=1e-12)
        calls.clear()
        metrics._brandes(g.binary())
        assert calls == []


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

    per = nx_local_efficiency(G)
    result = local_efficiency(g)
    assert np.allclose(result.per_node, per, rtol=1e-12, atol=0)
    assert result.value == pytest.approx(per.mean(), rel=1e-12)


def nx_local_efficiency(G):
    """Per node, the inverse-distance average of its neighbour subgraph."""
    per = np.zeros(G.number_of_nodes())
    for v in G:
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
    return per


@pytest.mark.parametrize("seed", range(10))
def test_weighted_local_efficiency_in_small_batches(monkeypatch, seed):
    g, G = random_weighted(seed)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return sp(*args, **kwargs)

    monkeypatch.setattr(metrics, "_LOCAL_BATCH_NODES", 4)
    monkeypatch.setattr(metrics, "_sp", counted)
    result = local_efficiency(g)
    assert np.allclose(result.per_node, nx_local_efficiency(G), rtol=1e-12, atol=0)
    assert len(calls) > 1  # the batch flushed before the last subgraph


@pytest.mark.parametrize("seed", SEEDS)
def test_modularity_of_random_partition(seed):
    g, G = random_weighted(seed)
    labels = np.random.default_rng(1000 + seed).integers(0, 4, g.n)
    parts = [set(np.flatnonzero(labels == c).tolist()) for c in np.unique(labels)]
    expected = nx.community.modularity(G, parts, weight="weight")
    assert modularity(g, labels) == pytest.approx(expected, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", SEEDS)
def test_binary_eigenvector_centrality_and_assortativity(seed):
    g = random_weighted(seed)[0].binary()
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    # the largest component; ties go to the one holding the smallest node
    comp = min(nx.connected_components(G), key=lambda c: (-len(c), min(c)))
    expected = np.zeros(g.n)
    for v, x in nx.eigenvector_centrality_numpy(G.subgraph(comp)).items():
        expected[v] = x
    assert np.allclose(centrality(g, "eigenvector").per_node, expected, rtol=0, atol=1e-8)

    degree = dict(G.degree())
    if len({degree[v] for e in G.edges for v in e}) == 1:
        with pytest.raises(ValueError, match="equal degree"):
            assortativity(g)
        return
    expected = nx.degree_assortativity_coefficient(G)
    assert assortativity(g).value == pytest.approx(expected, rel=1e-12, abs=1e-12)
