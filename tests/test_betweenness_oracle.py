"""Unweighted betweenness and Girvan-Newman against networkx as an oracle.

The unweighted Brandes accumulation runs every source at once, level by
level, in blocks of sources. Node and edge values are checked against
networkx on random graphs (with isolated nodes and several components) and
on graphs with many tied geodesics, on degenerate graphs, and across a block
boundary. Girvan-Newman is checked against a reference that drives the same
removal rule with networkx betweenness and components.
"""

import numpy as np
import pytest

from fcnets import communities, metrics
from fcnets.communities import Partition, girvan_newman, modularity
from fcnets.metrics import betweenness, edge_betweenness
from fcnets.networks import BinaryNetwork

nx = pytest.importorskip("networkx")


def as_network(G):
    G = nx.convert_node_labels_to_integers(G, ordering="sorted")
    return BinaryNetwork(G.number_of_nodes(), list(G.edges())), G


def assert_matches_networkx(g, G):
    node = nx.betweenness_centrality(G, normalized=False)
    expected = np.array([node[v] for v in range(g.n)])
    assert np.allclose(betweenness(g), expected, rtol=1e-12, atol=0)
    edge = nx.edge_betweenness_centrality(G, normalized=False)
    edge = {(min(e), max(e)): v for e, v in edge.items()}
    ours = edge_betweenness(g)
    assert list(ours) == sorted(edge)
    assert np.allclose([ours[e] for e in ours], [edge[e] for e in ours], rtol=1e-12, atol=0)


def random_gnp(seed):
    """G(n, p) on 10-60 nodes; sparse draws leave isolated nodes and several components."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 61))
    p = float(rng.uniform(0.5, 4.0)) / n
    return nx.gnp_random_graph(n, p, seed=seed)


@pytest.mark.parametrize("seed", range(40))
def test_random_graphs(seed):
    G = random_gnp(seed)
    assert_matches_networkx(*as_network(G))


def test_random_sweep_covers_isolated_nodes_and_several_components():
    graphs = [random_gnp(seed) for seed in range(40)]
    isolated = [sum(d == 0 for _, d in G.degree()) for G in graphs]
    assert sum(k > 0 for k in isolated) >= 10
    # at least two components with an edge
    assert sum(nx.number_connected_components(G) - k >= 2 for G, k in zip(graphs, isolated)) >= 10


@pytest.mark.parametrize(
    "G",
    [
        nx.grid_2d_graph(7, 9),
        nx.hypercube_graph(5),
        nx.complete_bipartite_graph(5, 7),
        nx.watts_strogatz_graph(40, 6, 0.0),  # ring lattice
        nx.cycle_graph(12),
    ],
    ids=["grid", "hypercube", "k5_7", "ring_lattice", "cycle"],
)
def test_graphs_with_many_tied_geodesics(G):
    assert_matches_networkx(*as_network(G))


@pytest.mark.parametrize("n", [0, 1, 6])
def test_degenerate_graphs(n):
    g = BinaryNetwork(n, [])
    assert betweenness(g).tolist() == [0.0] * n
    assert edge_betweenness(g) == {}


def test_blocked_sources_match_one_block(monkeypatch):
    G = nx.watts_strogatz_graph(30, 4, 0.3, seed=2)
    g, G = as_network(G)
    whole = metrics._brandes(g)
    step = g.n + 2 * g.edge_count
    for sources in (g.n - 1, 7, 1):  # the last block holds 1, 2 and 1 sources
        monkeypatch.setattr(metrics, "_BRANDES_BLOCK", sources * step)
        node, edge = metrics._brandes(g)
        assert np.allclose(node, whole[0], rtol=1e-12, atol=0)
        assert list(edge) == list(whole[1])
        assert np.allclose(list(edge.values()), list(whole[1].values()), rtol=1e-12, atol=0)
        assert_matches_networkx(g, G)


# --- Girvan-Newman -------------------------------------------------------------------


def reference_girvan_newman(G):
    """Girvan-Newman driven by networkx: the same tie rule and dendrogram cut."""
    g = BinaryNetwork(G.number_of_nodes(), list(G.edges()))
    H = G.copy()

    def assignment():
        a = np.zeros(g.n, dtype=int)
        for cid, comp in enumerate(sorted(nx.connected_components(H), key=min)):
            a[sorted(comp)] = cid
        return a

    best_a = assignment()
    best_q = modularity(g, best_a)
    ncomp = nx.number_connected_components(H)
    while H.number_of_edges():
        ebc = nx.edge_betweenness_centrality(H, normalized=False)
        ebc = {(min(e), max(e)): v for e, v in ebc.items()}
        top = max(ebc.values())
        H.remove_edge(*min(e for e, v in ebc.items() if v >= top * (1.0 - 1e-9)))
        if nx.number_connected_components(H) != ncomp:
            a = assignment()
            q = modularity(g, a)
            if q > best_q + 1e-12:
                best_q, best_a = q, a
            ncomp = nx.number_connected_components(H)
    return Partition(best_a)


def sweep_graph(i):
    family, seed = divmod(i, 10)
    if family == 0:
        return nx.planted_partition_graph(3, 8, 0.6, 0.05, seed=seed)
    if family == 1:
        return nx.watts_strogatz_graph(16 + 2 * seed, 4, 0.0)  # ring lattice
    return nx.watts_strogatz_graph(24, 4, 0.15, seed=seed)


@pytest.mark.parametrize("i", range(30))
def test_girvan_newman_matches_networkx_reference(i):
    G = nx.convert_node_labels_to_integers(sweep_graph(i), ordering="sorted")
    part = girvan_newman(BinaryNetwork(G.number_of_nodes(), list(G.edges())))
    assert part.assignment.tolist() == reference_girvan_newman(G).assignment.tolist()


def test_girvan_newman_breaks_ties_by_smallest_edge(monkeypatch):
    # On a cycle every edge ties, so (0, 1) goes first and the resulting path
    # 1, 2, ..., 7, 0 is cut in the middle, between 4 and 5.
    cycle = BinaryNetwork(8, [(i, (i + 1) % 8) for i in range(8)])
    split = [0, 1, 1, 1, 1, 0, 0, 0]
    assert girvan_newman(cycle, max_communities=2).assignment.tolist() == split

    def nudged(factor):
        def ebc(g):
            values = edge_betweenness(g)
            if (6, 7) in values:
                values[(6, 7)] *= factor
            return values

        return ebc

    # a rounding-sized excess still ties; a real one wins: path 7, 0, ..., 6
    monkeypatch.setattr(communities, "edge_betweenness", nudged(1 + 1e-12))
    assert girvan_newman(cycle, max_communities=2).assignment.tolist() == split
    monkeypatch.setattr(communities, "edge_betweenness", nudged(1 + 1e-6))
    assert girvan_newman(cycle, max_communities=2).assignment.tolist() == [0, 0, 0, 1, 1, 1, 1, 0]
