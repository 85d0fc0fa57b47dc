"""Every output check accepts a correct result and rejects a perturbed one."""

import copy

import bench_paths  # noqa: F401
import networkx as nx
import numpy as np
import pytest

import checks
from fcnets import ergm, estimators, networks, twopart


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def modular_series(rng, n=24, T=200):
    modules = np.arange(n) % 3
    return rng.standard_normal((3, T))[modules] * 0.7 + rng.standard_normal((n, T)), modules


# --- cohort -------------------------------------------------------------------


def test_correlation(rng):
    x = rng.standard_normal((6, 50))
    values = estimators.correlation_matrix(x).values
    assert checks.check_correlation("s", x, values) == []
    values[1, 2] += 1e-6
    assert checks.check_correlation("s", x, values)


def test_fixed_degree(rng):
    x, _ = modular_series(rng)
    corr = np.corrcoef(x)
    edges = checks.top_edges(corr, checks.fixed_degree_count(24, 4))
    assert checks.check_fixed_degree("s", corr, edges, 4) == []
    assert checks.check_fixed_degree("s", corr, edges[:-1], 4)  # dropped edge
    missing = next(e for e in checks.top_edges(corr, 200) if e not in edges)
    assert checks.check_fixed_degree("s", corr, edges[1:] + [missing], 4)  # wrong edge


def test_metrics_table(rng):
    x, _ = modular_series(rng)
    g = checks.graph(24, checks.top_edges(np.corrcoef(x), 48))
    names = ("density", "mean_degree", "clustering_mean_local", "global_efficiency", "local_efficiency", "path_length")
    row = {"subject": 0, **{m: checks.metric_reference(g, m) for m in names}}
    assert checks.check_metrics_table([row], [g]) == []
    for m in names:
        shifted = dict(row, **{m: row[m] * (1 + 1e-6)})
        assert checks.check_metrics_table([shifted], [g]), m


def test_path_length_skips_unreachable_pairs():
    g = checks.graph(5, [(0, 1), (1, 2), (3, 4)])
    # ordered reachable pairs: 0-1, 1-2 (1 hop) x2, 0-2 (2 hops) x2, 3-4 x2
    assert checks.path_length(g) == pytest.approx((2 + 2 + 4 + 2) / 8)


def test_partition():
    g = nx.disjoint_union(nx.complete_graph(5), nx.complete_graph(5))
    g.add_edge(0, 5)
    planted = [0] * 5 + [1] * 5
    q = nx.community.modularity(g, [set(range(5)), set(range(5, 10))])
    assert checks.check_partition("p", g, planted, q, planted, min_nmi=0.9) == []
    assert checks.check_partition("p", g, planted, q + 1e-6, planted, min_nmi=0.9)
    scrambled = [0, 1] * 5
    q_s = nx.community.modularity(g, [set(range(0, 10, 2)), set(range(1, 10, 2))])
    assert checks.check_partition("p", g, scrambled, q_s, planted, min_nmi=0.9)


def test_nmi_is_label_free():
    assert checks.nmi([0, 0, 1, 1], [5, 5, 2, 2]) == pytest.approx(1.0)
    assert checks.nmi([0, 1, 0, 1], [0, 0, 1, 1]) == pytest.approx(0.0)


def test_cluster_test():
    planted = [(0, 1), (0, 2), (1, 2)]
    result = {"clusters": [[(5, 6)], planted + [(2, 3)]], "fwe_p": [0.5, 0.002]}
    assert checks.check_cluster_test("nbs", result, planted) == []
    dropped = {"clusters": [[(5, 6)], planted[1:] + [(2, 3)]], "fwe_p": [0.5, 0.002]}
    assert checks.check_cluster_test("nbs", dropped, planted)
    weak = {"clusters": result["clusters"], "fwe_p": [0.5, 0.2]}
    assert checks.check_cluster_test("nbs", weak, planted)


def test_bootstrap():
    result = {"point": 0.25, "requested": 10, "failed": 1, "replicates": [0.2] * 9}
    assert checks.check_bootstrap(result, 0.25, 10) == []
    assert checks.check_bootstrap(dict(result, point=0.26), 0.25, 10)
    assert checks.check_bootstrap(dict(result, replicates=[0.2] * 10), 0.25, 10)
    assert checks.check_bootstrap(dict(result, requested=20), 0.25, 10)


# --- graph_nulls ------------------------------------------------------------------


def small_world_result(g):
    C, L = nx.average_clustering(g), nx.average_shortest_path_length(g)
    C_rand, L_rand, C_latt = C / 4, L * 0.8, C * 1.2
    return {
        "C": C, "L": L, "C_rand": C_rand, "L_rand": L_rand, "C_latt": C_latt,
        "sigma": (C / C_rand) / (L / L_rand), "omega": L_rand / L - C / C_latt,
    }


def test_small_world():
    g = nx.connected_watts_strogatz_graph(60, 6, 0.1, seed=1)
    res = small_world_result(g)
    regime = [("sigma", 1.0, np.inf), ("omega", -0.3, 0.3)]
    assert checks.check_small_world("ws", g, res, regime) == []
    assert checks.check_small_world("ws", g, dict(res, C=res["C"] * 1.001), regime)
    assert checks.check_small_world("ws", g, dict(res, sigma=res["sigma"] + 0.01), regime)
    assert checks.check_small_world("ws", g, res, [("sigma", 0.8, 1.2)])


def test_rewire():
    before = [(0, 1), (2, 3), (4, 5), (6, 7)]
    after = [(0, 3), (1, 2), (4, 7), (5, 6)]  # two double-edge swaps
    assert checks.check_rewire(8, before, after) == []
    assert checks.check_rewire(8, before, before)  # nothing moved
    assert checks.check_rewire(8, before, [(0, 3), (1, 2), (4, 7), (5, 5)])  # self-loop
    assert checks.check_rewire(8, before, [(0, 3), (0, 3), (4, 7), (5, 6)])  # duplicate, degrees
    assert checks.check_rewire(8, before, [(0, 3), (1, 2), (4, 7), (5, 7)])  # degrees


def test_powerlaw():
    assert checks.check_powerlaw(2.55, 2.5, 0.2) == []
    assert checks.check_powerlaw(2.75, 2.5, 0.2)


# --- group_models ------------------------------------------------------------------


def test_synchronization_matches_fcnets(rng):
    x, _ = modular_series(rng, n=6, T=120)
    cm = estimators.synchronization_matrix(x)
    p = cm.params
    pairs = [(0, 3), (1, 2), (4, 5)]
    assert checks.check_synchronization("s", x, cm.values, pairs, p["lag"], p["dim"], p["neighbor_count"]) == []
    shifted = cm.values.copy()
    shifted[1, 2] += 1.0 / (x.shape[1] * p["neighbor_count"])  # one extra shared neighbour
    assert checks.check_synchronization("s", x, shifted, pairs, p["lag"], p["dim"], p["neighbor_count"])


def ergm_group(rng, count=3, n=20):
    out = []
    for _ in range(count):
        x, _ = modular_series(rng, n=n, T=150)
        cm = estimators.correlation_matrix(x)
        iu, ju = np.triu_indices(n, 1)
        order = np.argsort(-cm.values[iu, ju])[:40]
        out.append(networks.BinaryNetwork(n, list(zip(iu[order].tolist(), ju[order].tolist()))))
    return out


def adjacency(g):
    return g.adjacency().astype(float)


def test_mple_and_representative(rng):
    group = ergm_group(rng)
    fits = [ergm.ergm_mple(g) for g in group]
    for g, fit in zip(group, fits):
        assert checks.check_mple("s", adjacency(g), fit.theta) == []
        assert checks.check_mple("s", adjacency(g), fit.theta + [0, 0, 1e-3])
    rep = ergm.representative_network(group, ensemble=3, seed=1, burn_in=2000, thin=200)
    adjs = [adjacency(g) for g in group]
    thetas = [f.theta for f in fits]
    assert checks.check_representative(rep.meta, adjs, adjacency(rep), thetas) == []
    bad = copy.deepcopy(rep.meta)
    bad["achieved_stats"][2] += 1
    assert checks.check_representative(bad, adjs, adjacency(rep), thetas)
    assert checks.check_representative(rep.meta, adjs[:-1] + [adjs[0]], adjacency(rep), thetas)


def test_ergm_statistics_match_fcnets(rng):
    g = ergm_group(rng, count=1)[0]
    np.testing.assert_allclose(checks.ergm_statistics(adjacency(g)), ergm.ergm_stats(g))


def test_twopart():
    fit = {
        "presence": {"beta": [0.85], "se": [0.1], "converged": True},
        "strength": {"beta": [0.48], "se": [0.02], "converged": True},
    }
    assert checks.check_twopart("t", fit, 0.8, 0.5) == []
    far = copy.deepcopy(fit)
    far["strength"]["beta"] = [0.6]
    assert checks.check_twopart("t", far, 0.8, 0.5)
    stuck = copy.deepcopy(fit)
    stuck["presence"]["converged"] = False
    assert checks.check_twopart("t", stuck, 0.8, 0.5)


def test_kronecker(rng):
    import inputs

    for inst in inputs.kronecker_instances(rng)[:5]:
        value = twopart.kronecker_loglik(**inst)
        assert checks.check_kronecker("k", value, inst) == []
        assert checks.check_kronecker("k", value + 1e-6, inst)

