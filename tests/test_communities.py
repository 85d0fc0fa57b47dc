"""Community detection, modularity, node roles, and partition agreement."""

import numpy as np
import pytest

from conftest import erdos_renyi, two_triangles
from fcnets import communities
from fcnets.communities import (
    Partition,
    cartography,
    girvan_newman,
    louvain,
    louvain_runs,
    modularity,
    normalized_mutual_information,
)
from fcnets.networks import BinaryNetwork, Network, WeightedNetwork


def barbell():
    """Two triangles joined by one bridge edge; Q of the true split is 5/14."""
    return BinaryNetwork(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])


def clique_ring(cliques=4, size=4):
    edges = []
    for c in range(cliques):
        base = c * size
        edges += [(base + i, base + j) for i in range(size) for j in range(i + 1, size)]
        edges.append((base, (base + size) % (cliques * size)))
    truth = np.repeat(np.arange(cliques), size)
    return BinaryNetwork(cliques * size, edges), truth


def test_modularity_barbell_values():
    g = barbell()
    truth = [0, 0, 0, 1, 1, 1]
    # within = 3/7 per block, degree sums 7 each: Q = 2 (3/7 - (7/14)^2)
    assert modularity(g, truth) == pytest.approx(6 / 7 - 0.5)
    assert modularity(g, [0] * 6) == pytest.approx(0.0)
    assert modularity(g, range(6)) == pytest.approx(-34 / 196)


def test_modularity_guards():
    g = barbell()
    with pytest.raises(ValueError, match="covers"):
        modularity(g, [0, 0, 0])
    with pytest.raises(ValueError, match="negative"):
        modularity(g, [0, 0, 0, -1, 1, 1])


def test_partition_relabels_contiguous():
    p = Partition(np.array([5, 5, 2, 2, 9]))
    assert list(p.assignment) == [0, 0, 1, 1, 2]
    assert p.community_count == 3
    assert [c.tolist() for c in p.communities()] == [[0, 1], [2, 3], [4]]


def test_partition_relabels_in_first_appearance_order():
    rng = np.random.default_rng(4)
    for size in [0, 1, 2, 7, 50, 300]:
        labels = rng.integers(-20, 20, size) * 3
        ids = {}
        expected = [ids.setdefault(c, len(ids)) for c in labels.tolist()]
        assert Partition(labels).assignment.tolist() == expected


def test_louvain_barbell():
    part = louvain(barbell(), seed=1)
    assert part.q == pytest.approx(6 / 7 - 0.5)
    assert normalized_mutual_information(part.assignment, [0, 0, 0, 1, 1, 1]) == pytest.approx(1.0)


def test_louvain_weighted_respects_weights():
    tri = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    edges = [(a, b, 2.0) for a, b in tri] + [(2, 3, 0.1)]
    part = louvain(WeightedNetwork(6, edges), seed=1)
    assert normalized_mutual_information(part.assignment, [0, 0, 0, 1, 1, 1]) == pytest.approx(1.0)


def test_louvain_clique_ring_recovery():
    g, truth = clique_ring()
    part = louvain(g, seed=3)
    assert normalized_mutual_information(part.assignment, truth) == pytest.approx(1.0)
    assert part.community_count == 4


def test_louvain_deterministic():
    g, _ = clique_ring(5, 4)
    a = louvain(g, seed=11)
    b = louvain(g, seed=11)
    assert list(a.assignment) == list(b.assignment)
    assert a.q == b.q


def test_louvain_edgeless_raises():
    with pytest.raises(ValueError, match="at least one edge"):
        louvain(BinaryNetwork(4, []))


def test_girvan_newman_barbell():
    part = girvan_newman(barbell())
    assert part.q == pytest.approx(6 / 7 - 0.5)
    assert normalized_mutual_information(part.assignment, [0, 0, 0, 1, 1, 1]) == pytest.approx(1.0)


def test_girvan_newman_disconnected_start():
    part = girvan_newman(two_triangles())
    assert part.community_count == 2
    assert part.q == pytest.approx(0.5)


def test_girvan_newman_max_communities():
    g, _ = clique_ring(4, 3)
    part = girvan_newman(g, max_communities=2)
    assert part.community_count <= 2


def test_girvan_newman_size_bound():
    with pytest.raises(ValueError, match="n <= 500"):
        girvan_newman(BinaryNetwork(501, [(0, 1)]))


def test_cartography_roles():
    # community 0: star of 10 around node 0; community 1: triangle 10-11-12;
    # node 5 reaches across with edges to 10 and 11
    edges = [(0, i) for i in range(1, 10)]
    edges += [(10, 11), (10, 12), (11, 12), (5, 10), (5, 11)]
    g = BinaryNetwork(13, edges)
    assignment = [0] * 10 + [1] * 3
    roles = {r.node: r for r in cartography(g, assignment)}

    assert roles[0].within_module_z == pytest.approx(3.0)
    assert roles[0].participation == pytest.approx(0.0)
    assert roles[0].role == "R5"

    assert roles[1].within_module_z == pytest.approx(-1 / 3)
    assert roles[1].role == "R1"

    assert roles[5].participation == pytest.approx(4 / 9)
    assert roles[5].role == "R2"

    # the triangle is degree-regular within itself: z degenerates to 0
    assert roles[12].degenerate
    assert roles[12].within_module_z == 0.0
    assert roles[12].role == "R1"
    assert roles[10].participation == pytest.approx(4 / 9)
    assert roles[10].role == "R2"


def _role(z, p, hub_z, nonhub_cuts, hub_cuts):
    """The documented role rule for one node."""
    if z >= hub_z:
        return "R5" if p <= hub_cuts[0] else "R6" if p <= hub_cuts[1] else "R7"
    if p < nonhub_cuts[0]:
        return "R1"
    return "R2" if p <= nonhub_cuts[1] else "R3" if p <= nonhub_cuts[2] else "R4"


def test_cartography_cuts_on_participation_values():
    # hub_z and every cut sit exactly on some node's z or participation, so each
    # role R1-R7 and each < / <= boundary is decided by an exact tie
    g = erdos_renyi(40, 6, np.random.default_rng(0))
    a = np.arange(40) % 4
    base = cartography(g, a)
    z = np.array([r.within_module_z for r in base])
    p = np.array([r.participation for r in base])
    hub_z = np.unique(z)[len(np.unique(z)) // 2]
    hub = z >= hub_z
    nonhub_p, hub_p = np.unique(p[~hub]), np.unique(p[hub])
    nonhub_cuts, hub_cuts = tuple(nonhub_p[1:4]), tuple(hub_p[:2])
    roles = cartography(g, a, hub_z=hub_z, nonhub_cuts=nonhub_cuts, hub_cuts=hub_cuts)
    assert [(r.within_module_z, r.participation) for r in roles] == list(zip(z, p))
    expected = [_role(zi, pi, hub_z, nonhub_cuts, hub_cuts) for zi, pi in zip(z, p)]
    assert [r.role for r in roles] == expected
    assert set(expected) == {f"R{k}" for k in range(1, 8)}
    on_cut = {r.role for r in roles if r.participation in nonhub_cuts + hub_cuts}
    assert on_cut == {"R2", "R3", "R5", "R6"}


def test_cartography_guards():
    g = barbell()
    with pytest.raises(ValueError, match="cover"):
        cartography(g, [0, 0, 0])


def test_nmi_values():
    assert normalized_mutual_information([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0)
    assert normalized_mutual_information([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0)
    assert normalized_mutual_information([0, 0, 0], [0, 0, 0]) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="same nodes"):
        normalized_mutual_information([0, 1], [0, 1, 1])


def test_louvain_runs_agreement():
    parts, nmi = louvain_runs(barbell(), runs=3, seed=5)
    assert len(parts) == 3
    assert nmi.shape == (3, 3)
    assert np.allclose(nmi, 1.0)
    assert parts[0].q == pytest.approx(6 / 7 - 0.5)


def _reference_louvain_level(nbrs, n, m, rng):
    """The sweep as it was on numpy arrays and scalars: the reference the
    list-based `_louvain_level` must reproduce bit for bit."""
    comm = np.arange(n)
    strength = np.array([sum(d.values()) for d in nbrs])
    comm_total = strength.astype(float).copy()
    improved_any = False
    while True:
        moved = 0
        for i in rng.permutation(n):
            ci = comm[i]
            ki = strength[i]
            to_comm = {}
            for j, w in nbrs[i].items():
                if j == i:
                    continue
                to_comm[comm[j]] = to_comm.get(comm[j], 0.0) + w
            comm_total[ci] -= ki
            base = to_comm.get(ci, 0.0) - ki * comm_total[ci] / (2 * m)
            best_c, best_gain = ci, 0.0
            for c, w_ic in to_comm.items():
                if c == ci:
                    continue
                gain = (w_ic - ki * comm_total[c] / (2 * m)) - base
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_c = c
            comm[i] = best_c
            comm_total[best_c] += ki
            if best_c != ci:
                moved += 1
        if moved == 0:
            break
        improved_any = True
    return comm, improved_any


def planted_graph(seed):
    """Planted modules on 20-90 nodes; odd seeds carry weights in [0.1, 2)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 91))
    labels = rng.integers(0, int(rng.integers(2, 7)), n)
    iu, ju = np.triu_indices(n, 1)
    p = np.where(labels[iu] == labels[ju], rng.uniform(0.2, 0.6), rng.uniform(0.01, 0.08))
    keep = rng.random(iu.size) < p
    pairs = np.column_stack((iu[keep], ju[keep]))
    weights = rng.uniform(0.1, 2.0, keep.sum()) if seed % 2 else None
    return Network(n, pairs, weights)


def test_louvain_on_lists_matches_the_array_sweep(monkeypatch):
    nx = pytest.importorskip("networkx")
    levels = []
    level = communities._louvain_level

    def counted(*args):
        comm, improved = level(*args)
        levels[-1] += improved
        return comm, improved

    monkeypatch.setattr(communities, "_louvain_level", counted)
    for seed in range(60):
        g = planted_graph(seed)
        levels.append(0)
        got = louvain(g, seed=seed)
        with monkeypatch.context() as patch:
            patch.setattr(communities, "_louvain_level", _reference_louvain_level)
            want = louvain(g, seed=seed)
        np.testing.assert_array_equal(got.assignment, want.assignment)
        assert got.q.hex() == want.q.hex()
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_weighted_edges_from((i, j, w) for (i, j), w in zip(g.pairs.tolist(), g.edge_weights()))
        nx_q = nx.algorithms.community.modularity(G, [set(c.tolist()) for c in got.communities()])
        assert abs(got.q - nx_q) <= 1e-12
    assert sum(k >= 2 for k in levels) >= 10  # graphs that aggregate more than one level


def _dense_modularity(A, assignment):
    """Q = (1 / 2m) sum_ij (A_ij - k_i k_j / 2m) [c_i = c_j], on the dense matrix."""
    k = A.sum(axis=1)
    two_m = k.sum()
    same = assignment[:, None] == assignment[None, :]
    return float(np.sum((A - np.outer(k, k) / two_m)[same]) / two_m)


def test_louvain_finest_level_admits_no_improving_single_move(monkeypatch):
    # the first level stops when no node gains from moving: check that by
    # brute force on the original graph, over every node and every community
    # among its neighbours
    levels = []
    level = communities._louvain_level

    def recorded(*args):
        comm, improved = level(*args)
        levels.append(comm)
        return comm, improved

    monkeypatch.setattr(communities, "_louvain_level", recorded)
    for seed in range(60):
        g = planted_graph(seed)
        levels.clear()
        louvain(g, seed=seed)
        A = np.zeros((g.n, g.n))
        i, j = g.pairs.T
        A[i, j] = A[j, i] = g.edge_weights()
        comm = levels[0]
        q = _dense_modularity(A, comm)
        for node in range(g.n):
            for c in set(comm[np.flatnonzero(A[node])].tolist()) - {comm[node]}:
                moved = comm.copy()
                moved[node] = c
                assert _dense_modularity(A, moved) - q <= 1e-12, (seed, node, c)
