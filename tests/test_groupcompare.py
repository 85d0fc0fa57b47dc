"""Edgewise tests, component clustering (nbs), and spatial pairwise clustering."""

import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.sparse.csgraph import connected_components

from fcnets.estimators import ConnectionMatrix
from fcnets.groupcompare import (
    _PERMUTATION_CHUNK,
    _edge_panel,
    _t_for_labels,
    adjacency_from_coordinates,
    edgewise_compare,
    nbs,
    spc,
)
from fcnets.panels import fisher_z
from fcnets.runtime import rng_for


def _edge_idx(n):
    iu, ju = np.triu_indices(n, 1)
    return {(int(a), int(b)): k for k, (a, b) in enumerate(zip(iu, ju))}


def cm_from_z(z, n, measure="correlation"):
    vals = np.zeros((n, n))
    iu, ju = np.triu_indices(n, 1)
    vals[iu, ju] = np.tanh(z)
    vals += vals.T
    return ConnectionMatrix(vals, measure, {})


def make_groups(n, subjects, shift_edges=(), shift=1.0, seed=0, paired_noise=True):
    """Two groups; with paired_noise the groups share identical base subjects,
    so unshifted edges have exactly zero observed t."""
    rng = np.random.default_rng(seed)
    m = n * (n - 1) // 2
    idx = _edge_idx(n)
    base = [0.2 * rng.standard_normal(m) for _ in range(subjects)]
    if paired_noise:
        base_b = base
    else:
        base_b = [0.2 * rng.standard_normal(m) for _ in range(subjects)]
    group_b = [cm_from_z(z, n) for z in base_b]
    group_a = []
    for z in base:
        z2 = z.copy()
        for e in shift_edges:
            z2[idx[e]] += shift
        group_a.append(cm_from_z(z2, n))
    return group_a, group_b


def test_edgewise_matches_scipy():
    n = 5
    ga, gb = make_groups(n, subjects=7, seed=3, paired_noise=False)
    res = edgewise_compare(ga, gb)
    az = np.vstack([fisher_z(cm.values[np.triu_indices(n, 1)]) for cm in ga])
    bz = np.vstack([fisher_z(cm.values[np.triu_indices(n, 1)]) for cm in gb])
    ref = stats.ttest_ind(az, bz, axis=0, equal_var=True)
    assert np.allclose(res.t, ref.statistic, atol=1e-12)
    assert np.allclose(res.p, ref.pvalue, atol=1e-12)


def test_edgewise_finds_shifted_edge():
    ga, gb = make_groups(6, subjects=6, shift_edges=[(0, 1)], shift=1.0, seed=1)
    res = edgewise_compare(ga, gb)
    assert res.significant_edges(alpha=0.05) == [(0, 1)]
    k = _edge_idx(6)[(0, 1)]
    assert res.t[k] > 4
    bon = edgewise_compare(ga, gb, correction="bonferroni")
    assert bon.q[k] == pytest.approx(min(bon.p[k] * bon.p.size, 1.0))


def test_edgewise_skips_fisher_for_noncorrelation():
    # values above 1 would break the z-transform if it were applied
    rng = np.random.default_rng(9)
    n = 4
    mats = []
    for _ in range(8):
        vals = np.zeros((n, n))
        iu, ju = np.triu_indices(n, 1)
        vals[iu, ju] = 1.5 + rng.random(iu.size)
        vals += vals.T
        mats.append(ConnectionMatrix(vals, "mutual_information", {}))
    res = edgewise_compare(mats[:4], mats[4:])
    raw_a = np.vstack([cm.values[np.triu_indices(n, 1)] for cm in mats[:4]])
    raw_b = np.vstack([cm.values[np.triu_indices(n, 1)] for cm in mats[4:]])
    ref = stats.ttest_ind(raw_a, raw_b, axis=0, equal_var=True)
    assert np.allclose(res.t, ref.statistic)


def test_edgewise_undefined_edges():
    n = 4
    ga, gb = make_groups(n, subjects=5, seed=2, paired_noise=False)
    for cm in ga + gb:
        cm.values[0, 1] = cm.values[1, 0] = 0.0
    res = edgewise_compare(ga, gb)
    k = _edge_idx(n)[(0, 1)]
    assert res.undefined[k]
    assert np.isnan(res.p[k])
    assert res.q[k] == 1.0
    assert (0, 1) not in res.significant_edges(alpha=0.99)


def test_edgewise_flags_every_constant_edge():
    # at 0.3 the sum-of-squares pooled SD comes out 2.6e-9 from cancellation, not 0
    n = 4
    k = _edge_idx(n)[(0, 1)]
    for value in (0.0, 0.123456789, 0.3, 0.7):
        ga, gb = make_groups(n, subjects=5, seed=2, paired_noise=False)
        for cm in ga + gb:
            cm.values[0, 1] = cm.values[1, 0] = value
        for correction in ("bonferroni", "bh-fdr"):
            res = edgewise_compare(ga, gb, correction=correction)
            assert np.flatnonzero(res.undefined).tolist() == [k]
            assert np.isnan(res.p[k]) and res.q[k] == 1.0
        defined = ~res.undefined
        bon = edgewise_compare(ga, gb, correction="bonferroni")
        assert np.array_equal(bon.q[defined], np.minimum(bon.p[defined] * defined.sum(), 1.0))
        assert (0, 1) not in bon.significant_edges(alpha=0.99)


@pytest.mark.parametrize("eps", [1e-15, 1e-13, 1e-9])
def test_edgewise_nearly_constant_edge_is_not_significant(eps):
    # one subject 0.3 + eps, the rest 0.3: the two-pass t is about 1 (p = 0.35),
    # but the sum-of-squares pooled variance is rounding noise (0 at 1e-15)
    n = 4
    k = _edge_idx(n)[(0, 1)]
    ga, gb = make_groups(n, subjects=5, seed=2, paired_noise=False)
    for s, cm in enumerate(ga + gb):
        cm.values[0, 1] = cm.values[1, 0] = 0.3 + (eps if s == 0 else 0.0)
    for correction in ("bonferroni", "bh-fdr"):
        res = edgewise_compare(ga, gb, correction=correction)
        assert np.array_equal(np.isnan(res.p), res.undefined)
        assert np.all((res.q >= 0) & (res.q <= 1))
        assert (0, 1) not in res.significant_edges(alpha=0.05)
        assert res.undefined[k] or res.p[k] > 0.05


def test_edgewise_t_of_a_nearly_constant_edge_matches_a_two_pass_reference():
    # one subject at 0.3 + 1e-9, the rest at 0.3: a sum-of-squares variance
    # about the raw values cancels to rounding noise (t = 0.093, p = 0.93)
    n = 4
    k = _edge_idx(n)[(0, 1)]
    ga, gb = make_groups(n, subjects=5, seed=2, paired_noise=False)
    for s, cm in enumerate(ga + gb):
        cm.values[0, 1] = cm.values[1, 0] = 0.3 + (1e-9 if s == 0 else 0.0)
    z = fisher_z(np.array([cm.values[0, 1] for cm in ga + gb]))
    a, b = z[:5], z[5:]
    pooled = (np.sum((a - a.mean()) ** 2) + np.sum((b - b.mean()) ** 2)) / 8
    want = (a.mean() - b.mean()) / np.sqrt(pooled * (1 / 5 + 1 / 5))
    res = edgewise_compare(ga, gb)
    assert want == pytest.approx(1.0, rel=1e-3)
    assert res.t[k] == pytest.approx(want, rel=1e-6)
    assert res.p[k] == pytest.approx(0.347, abs=1e-3)


def test_edgewise_guards():
    ga, gb = make_groups(4, subjects=3, seed=0)
    with pytest.raises(ValueError, match="unknown correction"):
        edgewise_compare(ga, gb, correction="holm")
    with pytest.raises(ValueError, match="at least 2"):
        edgewise_compare(ga[:1], gb)
    bad = make_groups(5, subjects=3, seed=0)[0]
    with pytest.raises(ValueError, match="node counts"):
        edgewise_compare(ga, bad)


SCENARIO_COORDS = np.array(
    [[0.0, 0.0], [0.5, 0.0], [5.0, 0.0], [10.0, 0.0], [15.0, 0.0], [20.0, 0.0], [25.0, 0.0]]
)


def test_adjacency_from_coordinates():
    adj = adjacency_from_coordinates(SCENARIO_COORDS, radius=1.0)
    assert adj[0, 1] and adj[1, 0]
    assert adj.sum() == 2
    assert not adj.diagonal().any()


def test_clustering_scenario_shared_target():
    # adjacent seed nodes 0,1 each connect to two distant targets: one nbs
    # component, but spatial pairwise clustering splits it per target
    planted = [(0, 2), (1, 2), (0, 3), (1, 3)]
    ga, gb = make_groups(7, subjects=6, shift_edges=planted, shift=1.0, seed=4)
    adj = adjacency_from_coordinates(SCENARIO_COORDS, radius=1.0)
    r_nbs = nbs(ga, gb, t_threshold=5.0, permutations=199, seed=0)
    assert len(r_nbs.clusters) == 1
    assert set(r_nbs.clusters[0]) == set(planted)
    r_spc = spc(ga, gb, t_threshold=5.0, node_adjacency=adj, permutations=199, seed=0)
    got = {frozenset(c) for c in r_spc.clusters}
    assert got == {frozenset([(0, 2), (1, 2)]), frozenset([(0, 3), (1, 3)])}
    assert r_spc.sizes == [2, 2]


def test_clustering_scenario_spur_excluded():
    # a third edge hanging off the shared node joins the nbs component but
    # has no pairwise spatial neighbor, so it drops out of spc
    planted = [(0, 2), (1, 2), (2, 6)]
    ga, gb = make_groups(7, subjects=6, shift_edges=planted, shift=1.0, seed=5)
    adj = adjacency_from_coordinates(SCENARIO_COORDS, radius=1.0)
    r_nbs = nbs(ga, gb, t_threshold=5.0, permutations=199, seed=0)
    assert len(r_nbs.clusters) == 1 and set(r_nbs.clusters[0]) == set(planted)
    r_spc = spc(ga, gb, t_threshold=5.0, node_adjacency=adj, permutations=199, seed=0)
    assert len(r_spc.clusters) == 1
    assert set(r_spc.clusters[0]) == {(0, 2), (1, 2)}


def test_clustering_scenario_chain_only_topological():
    # a two-edge chain through a shared node is one nbs component yet has no
    # spatial pairing at all, so spc reports nothing
    planted = [(0, 2), (2, 3)]
    ga, gb = make_groups(7, subjects=6, shift_edges=planted, shift=1.0, seed=6)
    adj = adjacency_from_coordinates(SCENARIO_COORDS, radius=1.0)
    r_nbs = nbs(ga, gb, t_threshold=5.0, permutations=199, seed=0)
    assert len(r_nbs.clusters) == 1 and set(r_nbs.clusters[0]) == set(planted)
    r_spc = spc(ga, gb, t_threshold=5.0, node_adjacency=adj, permutations=199, seed=0)
    assert r_spc.clusters == []


def test_nbs_alternatives():
    ga, gb = make_groups(6, subjects=6, shift_edges=[(0, 1), (0, 2)], shift=1.2, seed=7)
    up = nbs(ga, gb, t_threshold=4.0, permutations=199, seed=1, alternative="greater")
    assert len(up.clusters) == 1
    down = nbs(ga, gb, t_threshold=4.0, permutations=199, seed=1, alternative="less")
    assert down.clusters == []
    flipped = nbs(gb, ga, t_threshold=4.0, permutations=199, seed=1, alternative="less")
    assert len(flipped.clusters) == 1
    with pytest.raises(ValueError, match="unknown alternative"):
        nbs(ga, gb, t_threshold=4.0, permutations=199, alternative="both")


def test_nbs_significance_and_determinism():
    ga, gb = make_groups(7, subjects=8, shift_edges=[(0, 1), (1, 2), (0, 2)], shift=1.5, seed=8)
    a = nbs(ga, gb, t_threshold=4.0, permutations=199, seed=3)
    b = nbs(ga, gb, t_threshold=4.0, permutations=199, seed=3)
    assert a.fwe_p == b.fwe_p
    assert np.array_equal(a.null_max, b.null_max)
    assert a.fwe_p[0] < 0.05
    assert a.significant(alpha=0.05) == [a.clusters[0]]
    assert a.fwe_p[0] >= 1.0 / 200.0  # add-one floor


def test_nbs_no_suprathreshold_edges():
    ga, gb = make_groups(5, subjects=5, seed=9)
    res = nbs(ga, gb, t_threshold=8.0, permutations=101, seed=0)
    assert res.clusters == [] and res.sizes == [] and res.fwe_p == []


def test_permutation_count_guards():
    ga, gb = make_groups(5, subjects=5, seed=10)
    with pytest.raises(ValueError, match="100 permutations"):
        nbs(ga, gb, t_threshold=3.0, permutations=50)
    with pytest.raises(ValueError, match="100 permutations"):
        spc(ga, gb, t_threshold=3.0, node_adjacency=np.zeros((5, 5), bool), permutations=50)


@pytest.mark.parametrize("t_threshold", [float("nan"), -1.0, 0.0])
def test_t_threshold_must_be_positive(t_threshold):
    # NaN would pass no edge and write "t_threshold": NaN into the report
    ga, gb = make_groups(5, subjects=5, seed=10)
    with pytest.raises(ValueError, match="^t_threshold must be > 0"):
        nbs(ga, gb, t_threshold=t_threshold, permutations=100)
    with pytest.raises(ValueError, match="^t_threshold must be > 0"):
        spc(ga, gb, t_threshold=t_threshold, node_adjacency=np.ones((5, 5), bool), permutations=100)


@pytest.mark.parametrize("radius", [-1.0, 0.0, float("nan")])
def test_adjacency_radius_must_be_positive(radius):
    with pytest.raises(ValueError, match="^radius must be > 0"):
        adjacency_from_coordinates(SCENARIO_COORDS, radius=radius)


def test_spc_adjacency_shape_guard():
    ga, gb = make_groups(5, subjects=5, seed=11)
    with pytest.raises(ValueError, match="node adjacency"):
        spc(ga, gb, t_threshold=3.0, node_adjacency=np.zeros((4, 4), bool), permutations=101)


def _oracle_max_cluster(method, pairs, supra, near):
    """Edge count of the largest cluster of supra-threshold edges (0 if none)."""
    edges = [pairs[k] for k in np.flatnonzero(supra)]
    if method == "nbs":
        n = len(near)
        graph = np.zeros((n, n))
        for a, b in edges:
            graph[a, b] = 1
        _, comp = connected_components(graph, directed=False)
        sizes = np.bincount(comp[[a for a, _ in edges]], minlength=n) if edges else [0]
        return max(sizes)
    # spc: grow clusters over pairwise neighbors, then drop single edges
    def close(x, y):
        return x == y or near[x, y]

    seen, best = set(), 0
    for start in range(len(edges)):
        if start in seen:
            continue
        seen.add(start)
        stack, size = [start], 0
        while stack:
            (a, b), size = edges[stack.pop()], size + 1
            for k, (c, d) in enumerate(edges):
                if k not in seen and (
                    (close(a, c) and close(b, d)) or (close(a, d) and close(b, c))
                ):
                    seen.add(k)
                    stack.append(k)
        if size >= 2:
            best = max(best, size)
    return best


# 100 and 257 end inside a 64-permutation chunk, 128 ends on a chunk
# boundary and 129 starts a new chunk with one permutation in it
@pytest.mark.parametrize("permutations", [100, 128, 129, 257])
@pytest.mark.parametrize("method", ["nbs", "spc"])
def test_null_distribution_matches_per_permutation_oracle(method, permutations):
    n, n_a, seed, threshold = 14, 8, 21, 1.8
    planted = [(0, 1), (0, 2), (1, 2)]
    ga, gb = make_groups(n, subjects=n_a, shift_edges=planted, seed=12, paired_noise=False)
    coords = np.random.default_rng(13).uniform(0, 3, (n, 2))
    near = adjacency_from_coordinates(coords, radius=2.0)
    if method == "nbs":
        res = nbs(ga, gb, t_threshold=threshold, permutations=permutations, seed=seed)
    else:
        res = spc(ga, gb, threshold, near, permutations=permutations, seed=seed)

    iu, ju = np.triu_indices(n, 1)
    pairs = list(zip(iu.tolist(), ju.tolist()))
    X = np.vstack([fisher_z(cm.values[iu, ju]) for cm in ga + gb])
    total = 2 * n_a

    def max_cluster(in_a):
        t = stats.ttest_ind(X[in_a], X[~in_a], axis=0, equal_var=True).statistic
        assert np.min(np.abs(np.abs(t) - threshold)) > 1e-9  # no edge on the threshold
        return _oracle_max_cluster(method, pairs, np.abs(t) > threshold, near)

    null_max = np.zeros(permutations)
    for p in range(permutations):
        in_a = np.zeros(total, dtype=bool)
        in_a[rng_for(seed, f"{method}_perm", p).permutation(total)[:n_a]] = True
        null_max[p] = max_cluster(in_a)
    assert np.array_equal(res.null_max, null_max)
    # the data make a dropped chunk (zeros) or a repeated one (copied values) show
    assert null_max[-1] > 0 and np.mean(null_max == 0) < 0.05
    assert len(np.unique(null_max)) > 5
    observed = np.arange(total) < n_a
    assert res.sizes[0] == max_cluster(observed)
    expected_p = [(np.sum(null_max >= s) + 1) / (permutations + 1) for s in res.sizes]
    assert res.fwe_p == expected_p


def _plain_t(X, labels_a):
    """The pooled t formula written with fresh arrays, in the order `_t_for_labels` keeps."""
    na = labels_a.sum(axis=1, keepdims=True).astype(float)
    nb = labels_a.shape[1] - na
    sa, sb = labels_a @ X, (~labels_a) @ X
    sqa, sqb = labels_a @ (X**2), (~labels_a) @ (X**2)
    ma, mb = sa / na, sb / nb
    va = (sqa - na * ma**2) / (na - 1)
    vb = (sqb - nb * mb**2) / (nb - 1)
    sp = ((na - 1) * va + (nb - 1) * vb) / (na + nb - 2)
    denom = np.sqrt(sp * (1 / na + 1 / nb))
    with np.errstate(divide="ignore", invalid="ignore"):
        return (ma - mb) / denom


def _label_block(rng, rows, total, n_a):
    labels = np.zeros((rows, total), dtype=bool)
    for r in range(rows):
        labels[r, rng.permutation(total)[:n_a]] = True
    return labels


@pytest.mark.parametrize("total", [4, 5, 17, 40, 60])
def test_t_in_a_reused_workspace_is_bitwise_the_plain_formula(total):
    rng = np.random.default_rng(total)
    edges = 301
    spread = 10.0 ** rng.uniform(-9, 0, edges)  # per-edge scale, 1e-9 to 1
    X = rng.standard_normal((total, edges)) * spread + rng.uniform(-1, 1, edges)
    X -= X.mean(axis=0)
    chunk = _PERMUTATION_CHUNK
    work = np.full((4, chunk, edges), np.nan)
    # a full block first, so the shorter blocks run on a workspace holding stale rows
    for rows in (chunk, chunk - 1, 1, chunk, 1):
        labels = _label_block(rng, rows, total, int(rng.integers(2, total - 1)))
        got = _t_for_labels(X, X**2, labels, work)
        want = _plain_t(X, labels)
        assert got.shape == (rows, edges)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_edgewise_t_is_bitwise_the_plain_formula():
    ga, gb = make_groups(9, subjects=7, seed=14, paired_noise=False)
    n, X, observed = _edge_panel(ga, gb)
    got = edgewise_compare(ga, gb).t
    assert np.array_equal(got.view(np.uint64), _plain_t(X, observed)[0].view(np.uint64))


def test_nbs_peak_memory_stays_within_eight_chunk_arrays():
    # 40 subjects at n = 90: one chunk of t statistics is 32 x 4,005 float64
    # (1.03 MB), and the t workspace holds four of them; the peak is about
    # 6.9 such arrays (7.0 MB)
    rng = np.random.default_rng(15)
    n = 90
    mats = [cm_from_z(0.3 * rng.standard_normal(n * (n - 1) // 2), n) for _ in range(40)]
    tracemalloc.start()
    try:
        nbs(mats[:20], mats[20:], t_threshold=3.0, permutations=500, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * _PERMUTATION_CHUNK * 4005 * 8
