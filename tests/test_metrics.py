"""Graph metrics against hand-computed values on small named graphs."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    complete_graph,
    cycle_graph,
    k4_minus_edge,
    path_graph,
    star_graph,
    two_triangles,
)
from fcnets.metrics import (
    assortativity,
    betweenness,
    centrality,
    clustering,
    components,
    density,
    distance_matrix,
    edge_betweenness,
    global_efficiency,
    largest_component,
    local_efficiency,
    metric_value,
    path_length,
)
from fcnets.networks import BinaryNetwork, WeightedNetwork


def test_distance_matrix_path():
    D = distance_matrix(path_graph(3))
    assert D[0, 1] == 1 and D[1, 2] == 1 and D[0, 2] == 2
    assert np.all(np.diag(D) == 0)


def test_path_graph_values():
    g = path_graph(3)
    assert global_efficiency(g).value == pytest.approx(5 / 6)
    assert path_length(g).value == pytest.approx(4 / 3)
    assert clustering(g, "mean_local").value == 0.0
    assert list(betweenness(g)) == [0.0, 1.0, 0.0]


def test_path4_betweenness_and_assortativity():
    g = path_graph(4)
    assert list(betweenness(g)) == [0.0, 2.0, 2.0, 0.0]
    assert assortativity(g).value == pytest.approx(-0.5)


def test_cycle_values():
    g = cycle_graph(5)
    assert path_length(g).value == pytest.approx(1.5)
    assert global_efficiency(g).value == pytest.approx(0.75)
    assert np.allclose(betweenness(g), 1.0)
    with pytest.raises(ValueError, match="equal degree"):
        assortativity(g)


def test_complete_graph_values():
    g = complete_graph(4)
    assert clustering(g, "mean_local").value == pytest.approx(1.0)
    assert clustering(g, "transitivity").value == pytest.approx(1.0)
    assert path_length(g).value == pytest.approx(1.0)
    assert global_efficiency(g).value == pytest.approx(1.0)
    assert local_efficiency(g).value == pytest.approx(1.0)
    assert density(g) == pytest.approx(1.0)
    assert np.allclose(betweenness(g), 0.0)


def test_k4_minus_edge_clustering():
    g = k4_minus_edge()
    assert clustering(g, "transitivity").value == pytest.approx(0.75)
    assert clustering(g, "mean_local").value == pytest.approx(5 / 6)
    assert local_efficiency(g).value == pytest.approx(11 / 12)


def test_star_centralities():
    g = star_graph(3)
    assert list(betweenness(g)) == [3.0, 0.0, 0.0, 0.0]
    close = centrality(g, "closeness").per_node
    assert close[0] == pytest.approx(1.0)
    assert np.allclose(close[1:], 0.6)
    eig = centrality(g, "eigenvector").per_node
    assert eig[0] == pytest.approx(1 / np.sqrt(2), abs=1e-8)
    assert np.allclose(eig[1:], 1 / np.sqrt(6), atol=1e-8)
    assert assortativity(g).value == pytest.approx(-1.0)


def test_degree_centrality():
    per = centrality(path_graph(3), "degree").per_node
    assert list(per) == [1.0, 2.0, 1.0]
    with pytest.raises(ValueError, match="unknown centrality"):
        centrality(path_graph(3), "pagerank")


def test_eigenvector_bipartite_converges():
    # K2 alternates under plain power iteration; the +I shift must settle it.
    eig = centrality(path_graph(2), "eigenvector").per_node
    assert np.allclose(eig, 1 / np.sqrt(2), atol=1e-8)


def test_disconnected_graph():
    g = two_triangles()
    rep = global_efficiency(g)
    assert rep.value == pytest.approx(0.4)
    assert rep.unreachable_pair_count == 18
    assert path_length(g).value == pytest.approx(1.0)
    assert np.allclose(centrality(g, "closeness").per_node, 1.0)
    comps = components(g)
    assert [sorted(c.tolist()) for c in comps] == [[0, 1, 2], [3, 4, 5]]
    assert sorted(largest_component(g).tolist()) == [0, 1, 2]
    eig = centrality(g, "eigenvector").per_node
    assert np.allclose(eig[:3], 1 / np.sqrt(3), atol=1e-8)
    assert np.allclose(eig[3:], 0.0)


def test_edge_betweenness_path():
    ebc = edge_betweenness(path_graph(3))
    assert ebc[(0, 1)] == pytest.approx(2.0)
    assert ebc[(1, 2)] == pytest.approx(2.0)


def test_weighted_distances_and_efficiency():
    # length of an edge is 1/weight, so strong edges are short
    g = WeightedNetwork(3, [(0, 1, 2.0), (1, 2, 2.0)])
    D = distance_matrix(g)
    assert D[0, 1] == pytest.approx(0.5)
    assert D[0, 2] == pytest.approx(1.0)
    assert global_efficiency(g).value == pytest.approx(5 / 3)


def test_weighted_clustering_reduces_to_binary():
    tri = [(0, 1), (0, 2), (1, 2), (1, 3)]
    wg = WeightedNetwork(4, [(a, b, 2.0) for a, b in tri])
    bg = BinaryNetwork(4, tri)
    assert clustering(wg, "weighted_geometric").value == pytest.approx(
        clustering(bg, "mean_local").value
    )


def test_weighted_betweenness_equal_weights_matches_binary():
    edges = [(0, 1), (1, 2), (1, 3), (3, 4)]
    wg = WeightedNetwork(5, [(a, b, 3.0) for a, b in edges])
    bg = BinaryNetwork(5, edges)
    assert np.allclose(betweenness(wg), betweenness(bg))


def test_metric_value_dispatch():
    g = path_graph(3)
    assert metric_value(g, "density") == pytest.approx(2 / 3)
    assert metric_value(g, "mean_degree") == pytest.approx(4 / 3)
    assert metric_value(g, "global_efficiency") == pytest.approx(5 / 6)
    with pytest.raises(ValueError, match="unknown metric"):
        metric_value(g, "modularity")


def test_path_length_edgeless_raises():
    with pytest.raises(ValueError, match="no reachable"):
        path_length(BinaryNetwork(3, []))


def test_eigenvector_edgeless_raises():
    with pytest.raises(ValueError, match="edgeless"):
        centrality(BinaryNetwork(3, []), "eigenvector")


def brute_transitivity(g):
    nbrs = [set() for _ in range(g.n)]
    for a, b in g.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    triangles = sum(
        1
        for a, b, c in itertools.combinations(range(g.n), 3)
        if b in nbrs[a] and c in nbrs[a] and c in nbrs[b]
    )
    triples = sum(len(nb) * (len(nb) - 1) // 2 for nb in nbrs)
    return 3.0 * triangles / triples if triples else 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=7), st.integers(min_value=0, max_value=10_000))
def test_transitivity_matches_enumeration(n, seed):
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < 0.5
    g = BinaryNetwork(n, list(zip(iu[keep].tolist(), ju[keep].tolist())))
    assert clustering(g, "transitivity").value == pytest.approx(brute_transitivity(g))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10_000))
def test_betweenness_nonnegative_and_leaf_zero(n, seed):
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < 0.4
    g = BinaryNetwork(n, list(zip(iu[keep].tolist(), ju[keep].tolist())))
    bc = betweenness(g)
    assert np.all(bc >= -1e-12)
    for node, deg in enumerate(g.degrees()):
        if deg <= 1:
            assert bc[node] == pytest.approx(0.0)
