"""Unweighted path length, efficiencies and triangle counts against exact references.

Unweighted path length counts pairs by hop distance with a bit-parallel
breadth-first search over blocks of sources. Its value and unreachable-pair
count are checked for exact equality with a reference built on the
all-pairs distance matrix, and against networkx shortest-path lengths, on
random graphs (with isolated nodes and several components), on sizes around
the 64-bit word boundary, on a ring lattice with many levels, and across a
source-block boundary. Per-node triangle counts are checked against
networkx.

Unweighted global efficiency must equal, exactly, the correctly rounded
mean of 1/distance over networkx shortest-path lengths (an exact fraction,
rounded once), and per-node local efficiency must match networkx's
efficiency of each neighbour subgraph to 1e-12 relative. Both are checked
on the same families, on graphs with a degree above 64 (more than one word
of sources per neighbour subgraph), across bitset-block boundaries, and
without any Dijkstra call.
"""

from fractions import Fraction

import numpy as np
import pytest

from conftest import ring_lattice
from fcnets import metrics
from fcnets.metrics import distance_matrix, global_efficiency, local_efficiency, path_length
from fcnets.networks import BinaryNetwork, Network

nx = pytest.importorskip("networkx")


def reference_path_length(g):
    """(value, unreachable ordered pairs) from the all-pairs distance matrix."""
    n = g.n
    D = distance_matrix(g)
    off = ~np.eye(n, dtype=bool)
    finite = np.isfinite(D) & off
    return float(D[finite].mean()), int(np.sum(~np.isfinite(D) & off))


def as_network(G):
    G = nx.convert_node_labels_to_integers(G, ordering="sorted")
    return BinaryNetwork(G.number_of_nodes(), list(G.edges())), G


def assert_exact(g, G):
    report = path_length(g)
    assert (report.value, report.unreachable_pair_count) == reference_path_length(g)
    lengths = [d for _, row in nx.all_pairs_shortest_path_length(G) for d in row.values() if d]
    assert report.value == sum(lengths) / len(lengths)
    assert report.unreachable_pair_count == g.n * (g.n - 1) - len(lengths)
    triangles = nx.triangles(G)
    assert (metrics._triangles(g) / 2).tolist() == [triangles[v] for v in range(g.n)]


def random_gnp(seed):
    """G(n, p) on 10-140 nodes; sparse draws leave isolated nodes and several components."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 141))
    p = float(rng.uniform(0.5, 4.0)) / n
    return nx.gnp_random_graph(n, p, seed=seed)


@pytest.mark.parametrize("seed", range(40))
def test_random_graphs(seed):
    assert_exact(*as_network(random_gnp(seed)))


def test_random_sweep_covers_isolated_nodes_and_several_components():
    graphs = [random_gnp(seed) for seed in range(40)]
    isolated = [sum(d == 0 for _, d in G.degree()) for G in graphs]
    assert sum(k > 0 for k in isolated) >= 10
    # at least two components with an edge
    assert sum(nx.number_connected_components(G) - k >= 2 for G, k in zip(graphs, isolated)) >= 10
    assert sum(G.number_of_nodes() > 64 for G in graphs) >= 10


@pytest.mark.parametrize("n", [63, 64, 65, 128])
@pytest.mark.parametrize("family", ["path", "gnp", "complete"])
def test_sizes_around_a_word(n, family):
    if family == "path":
        G = nx.path_graph(n)
    elif family == "gnp":
        G = nx.gnp_random_graph(n, 3.0 / n, seed=n)
    else:
        G = nx.complete_graph(n)
    assert_exact(*as_network(G))


def test_ring_lattice_with_many_levels():
    g = ring_lattice(300, 4)  # 75 levels from every source
    assert_exact(g, nx.Graph([tuple(e) for e in g.pairs.tolist()]))


def test_blocked_sources_match_one_block(monkeypatch):
    g, G = as_network(nx.watts_strogatz_graph(150, 4, 0.2, seed=3))
    G.add_nodes_from(range(150, 160))  # isolated nodes in the last block
    g = BinaryNetwork(160, g.pairs)
    whole = path_length(g)
    # blocks of 64, 64, 32 and of 128, 32 sources; the triangle counts in
    # assert_exact then run in blocks of 200 and of 400 of the 300 edges
    for words in (1, 2):
        monkeypatch.setattr(metrics, "_BITSET_BLOCK", words * 2 * g.edge_count)
        blocked = path_length(g)
        assert (blocked.value, blocked.unreachable_pair_count) == (
            whole.value,
            whole.unreachable_pair_count,
        )
        assert_exact(g, G)


def test_weighted_networks_keep_dijkstra():
    rng = np.random.default_rng(4)
    g, _ = as_network(nx.gnp_random_graph(40, 0.08, seed=4))
    g = Network(g.n, g.pairs, weights=rng.uniform(0.1, 2.0, g.edge_count))
    report = path_length(g)
    assert (report.value, report.unreachable_pair_count) == reference_path_length(g)


@pytest.mark.parametrize(
    "g", [BinaryNetwork(0, []), BinaryNetwork(1, []), BinaryNetwork(6, [])], ids=["n0", "n1", "edgeless"]
)
def test_no_reachable_pair_raises(g):
    with pytest.raises(ValueError, match="path length undefined: no reachable node pairs"):
        path_length(g)


def assert_efficiencies(g, G):
    n = g.n
    glob = global_efficiency(g)
    lengths = [d for _, row in nx.all_pairs_shortest_path_length(G) for d in row.values() if d]
    exact = sum(map(Fraction, [1] * len(lengths), lengths), Fraction(0))
    want = float(exact / (n * (n - 1))) if n > 1 else 0.0
    assert glob.value == want
    assert glob.unreachable_pair_count == (n * (n - 1) - len(lengths) if n > 1 else 0)
    local = local_efficiency(g)
    # nx.local_efficiency(G) is the mean of these
    per = [nx.global_efficiency(G.subgraph(G[v])) for v in range(n)]
    np.testing.assert_allclose(local.per_node, per, rtol=1e-12, atol=0)
    assert local.value == pytest.approx(sum(per) / n if n else 0.0, rel=1e-12, abs=0)


@pytest.mark.parametrize("seed", range(40))
def test_efficiencies_random_graphs(seed):
    assert_efficiencies(*as_network(random_gnp(seed)))


@pytest.mark.parametrize(
    "family, n",
    [(f, n) for f in ("path", "gnp", "dense") for n in (63, 64, 65, 128)]
    + [("complete", n) for n in (63, 64, 65)],
)
def test_efficiencies_sizes_around_a_word(family, n):
    if family == "path":
        G = nx.path_graph(n)
    elif family == "gnp":
        G = nx.gnp_random_graph(n, 3.0 / n, seed=n)
    elif family == "dense":
        G = nx.gnp_random_graph(n, 40.0 / n, seed=n)
    else:
        G = nx.complete_graph(n)
    assert_efficiencies(*as_network(G))


def hub_with_components():
    """A hub joined to 80 nodes that are sparsely linked, a path and isolated nodes."""
    G = nx.gnp_random_graph(80, 0.06, seed=2)
    G.add_edges_from((80, v) for v in range(80))
    return nx.disjoint_union_all([G, nx.path_graph(10), nx.empty_graph(5)])


@pytest.mark.parametrize(
    "G",
    [nx.complete_graph(70), nx.gnm_random_graph(80, 2700, seed=1), hub_with_components()],
    ids=["K70", "gnm80", "hub_and_components"],
)
def test_efficiencies_with_a_degree_above_64(G):
    g, G = as_network(G)
    assert int(g.degrees().max()) > 64
    assert_efficiencies(g, G)


@pytest.mark.parametrize(
    "g",
    [BinaryNetwork(0, []), BinaryNetwork(1, []), BinaryNetwork(2, []), BinaryNetwork(2, [(0, 1)]), BinaryNetwork(6, [])],
    ids=["n0", "n1", "n2_edgeless", "n2_edge", "edgeless"],
)
def test_efficiencies_on_tiny_graphs(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    assert_efficiencies(g, G)


def test_blocked_efficiencies_match_one_block(monkeypatch):
    G = nx.disjoint_union_all(
        [nx.watts_strogatz_graph(150, 6, 0.2, seed=3), nx.complete_graph(70), nx.empty_graph(10)]
    )
    g, G = as_network(G)
    whole = global_efficiency(g), local_efficiency(g)
    # local efficiency from one centre per chunk up to one chunk; global
    # efficiency in blocks of 64, 64, 64, 38 and of 128, 102 sources, then
    # in one block
    for block in (1, 4 * g.edge_count, 5000, 50_000):
        monkeypatch.setattr(metrics, "_BITSET_BLOCK", block)
        glob, local = global_efficiency(g), local_efficiency(g)
        assert (glob.value, glob.unreachable_pair_count) == (
            whole[0].value,
            whole[0].unreachable_pair_count,
        )
        assert local.value == whole[1].value
        np.testing.assert_array_equal(local.per_node, whole[1].per_node)
    assert_efficiencies(g, G)


def test_block_global_efficiencies_match_each_graph(monkeypatch):
    # graphs of 70 nodes as the diagonal blocks of one network: each block
    # gets its graph's own value and unreachable count, in one block of
    # sources and in blocks of 64 and 6 sources
    size = 70
    graphs = [nx.path_graph(size), nx.complete_graph(size), nx.empty_graph(size)]
    graphs += [nx.gnp_random_graph(size, p, seed=k) for k, p in enumerate((0.01, 0.03, 0.1))]
    nets = [as_network(G)[0] for G in graphs]
    want = [(r.value, r.unreachable_pair_count) for r in map(global_efficiency, nets)]
    blocks = Network(size * len(nets), np.vstack([g.pairs + k * size for k, g in enumerate(nets)]))
    assert metrics.block_global_efficiencies(blocks, size) == want
    monkeypatch.setattr(metrics, "_BITSET_BLOCK", 2 * blocks.edge_count)
    assert metrics.block_global_efficiencies(blocks, size) == want
    assert metrics.block_global_efficiencies(Network(0, []), size) == []


def test_unweighted_efficiencies_never_run_dijkstra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("unweighted efficiencies reached Dijkstra")

    g, G = as_network(random_gnp(5))
    monkeypatch.setattr(metrics, "distance_matrix", refuse)
    monkeypatch.setattr(metrics, "_sp", refuse)
    assert_efficiencies(g, G)
    weighted = Network(g.n, g.pairs, weights=np.ones(g.edge_count))
    with pytest.raises(AssertionError, match="reached Dijkstra"):
        global_efficiency(weighted)
    with pytest.raises(AssertionError, match="reached Dijkstra"):
        local_efficiency(weighted)
