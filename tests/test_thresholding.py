"""Thresholding rules: cutoffs, fixed degree/density, weighted policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcnets.estimators import ConnectionMatrix
from fcnets.thresholding import (
    _ranked_pairs,
    apply_fixed_degree,
    apply_fixed_density,
    apply_fixed_threshold,
    apply_spec,
    top_edge_masks,
    weighted_network,
)


def cm_from(vals, measure="correlation"):
    return ConnectionMatrix(np.asarray(vals, dtype=float), measure, {})


def sym(n, rng):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


def test_value_criterion_edges():
    vals = np.array(
        [
            [0.0, 0.8, 0.2, -0.9],
            [0.8, 0.0, 0.5, 0.1],
            [0.2, 0.5, 0.0, 0.4],
            [-0.9, 0.1, 0.4, 0.0],
        ]
    )
    net = apply_fixed_threshold(cm_from(vals), criterion="value", tau=0.3)
    assert set(net.edges) == {(0, 1), (1, 2), (2, 3)}
    net_abs = apply_fixed_threshold(
        cm_from(vals), criterion="value", tau=0.3, negatives="absolute"
    )
    assert set(net_abs.edges) == {(0, 1), (0, 3), (1, 2), (2, 3)}


def test_value_needs_tau():
    with pytest.raises(ValueError, match="tau"):
        apply_fixed_threshold(cm_from(np.zeros((3, 3))), criterion="value")


def test_significance_criterion():
    # T=100: r=0.5 survives Bonferroni x6 easily, r=0.1 does not.
    vals = np.zeros((4, 4))
    vals[0, 1] = vals[1, 0] = 0.5
    vals[2, 3] = vals[3, 2] = 0.1
    vals[0, 2] = vals[2, 0] = -0.6
    net = apply_fixed_threshold(
        cm_from(vals), criterion="significance", alpha=0.05, series_length=100
    )
    assert set(net.edges) == {(0, 1)}
    net_abs = apply_fixed_threshold(
        cm_from(vals),
        criterion="significance",
        alpha=0.05,
        series_length=100,
        negatives="absolute",
    )
    assert set(net_abs.edges) == {(0, 1), (0, 2)}


def test_significance_guards():
    vals = np.zeros((3, 3))
    with pytest.raises(ValueError, match="correlation-family"):
        apply_fixed_threshold(
            cm_from(vals, "mutual_information"),
            criterion="significance",
            series_length=100,
        )
    with pytest.raises(ValueError, match="series_length"):
        apply_fixed_threshold(cm_from(vals), criterion="significance")
    for alpha in (0, 1, 5, -0.1, float("nan")):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            apply_fixed_threshold(cm_from(vals), criterion="significance", alpha=alpha, series_length=100)


def test_min_connected():
    vals = np.full((4, 4), 0.1)
    np.fill_diagonal(vals, 0.0)
    for (a, b), w in {(0, 1): 0.9, (1, 2): 0.8, (0, 2): 0.7, (2, 3): 0.5}.items():
        vals[a, b] = vals[b, a] = w
    net = apply_fixed_threshold(cm_from(vals), criterion="min_connected")
    assert set(net.edges) == {(0, 1), (0, 2), (1, 2), (2, 3)}
    assert net.meta["threshold"]["connecting_weight"] == pytest.approx(0.5)


def _spans(n, pairs):
    seen, stack = {0}, [0]
    while stack:
        a = stack.pop()
        for i, j in pairs:
            for u, v in ((i, j), (j, i)):
                if u == a and v not in seen:
                    seen.add(v)
                    stack.append(v)
    return len(seen) == n


@pytest.mark.parametrize("negatives", ["drop", "absolute"])
def test_min_connected_is_the_largest_connecting_cutoff(negatives):
    # brute force: the largest entry value w whose cut (entries >= w, and
    # > 0 under "drop") connects every node; rounding makes ties common
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        vals = np.round(sym(n, rng) * 2) / 2
        np.fill_diagonal(vals, 0.0)
        ranked = np.abs(vals) if negatives == "absolute" else vals
        iu, ju = np.triu_indices(n, 1)
        best = None
        for w in sorted(set(ranked[iu, ju].tolist()), reverse=True):
            keep = (ranked[iu, ju] >= w) & ((ranked[iu, ju] > 0) | (negatives == "absolute"))
            if _spans(n, list(zip(iu[keep].tolist(), ju[keep].tolist()))):
                best = w
                break
        if best is None:
            with pytest.raises(ValueError, match="impossible"):
                apply_fixed_threshold(cm_from(vals), "min_connected", negatives=negatives)
            continue
        net = apply_fixed_threshold(cm_from(vals), "min_connected", negatives=negatives)
        assert net.meta["threshold"]["connecting_weight"] == best
        assert net.edges == [(i, j) for i, j, k in zip(iu.tolist(), ju.tolist(), keep) if k]


@pytest.mark.parametrize("negatives", ["drop", "absolute"])
def test_min_connected_single_node_is_connected(negatives):
    net = apply_fixed_threshold(cm_from([[0.0]]), "min_connected", negatives=negatives)
    assert (net.n, net.edges) == (1, [])
    assert net.meta["threshold"] == {
        "criterion": "min_connected",
        "connecting_weight": None,
        "negatives": negatives,
    }


def test_min_connected_impossible():
    vals = np.array(
        [
            [0.0, 0.5, -0.2],
            [0.5, 0.0, -0.3],
            [-0.2, -0.3, 0.0],
        ]
    )
    with pytest.raises(ValueError, match="connected"):
        apply_fixed_threshold(cm_from(vals), criterion="min_connected")


def test_fixed_degree_count():
    rng = np.random.default_rng(3)
    net = apply_fixed_degree(cm_from(sym(5, rng)), k_target=2, negatives="absolute")
    assert net.edge_count == 5
    assert np.mean(net.degrees()) == pytest.approx(2.0)
    # fractional target: E = floor(5 * 1.7 / 2 + 0.5) = 4
    net = apply_fixed_degree(cm_from(sym(5, rng)), k_target=1.7, negatives="absolute")
    assert net.edge_count == 4


def test_fixed_degree_keeps_top_ranked():
    vals = np.zeros((4, 4))
    for (a, b), w in {(0, 1): 0.9, (2, 3): 0.8, (0, 2): 0.7, (1, 3): 0.6}.items():
        vals[a, b] = vals[b, a] = w
    net = apply_fixed_degree(cm_from(vals), k_target=1.5)  # E = 3
    assert set(net.edges) == {(0, 1), (0, 2), (2, 3)}


def test_fixed_degree_tie_break_lexicographic():
    vals = np.full((4, 4), 0.5)
    np.fill_diagonal(vals, 0.0)
    net = apply_fixed_degree(cm_from(vals), k_target=1.0)  # E = 2 of 6 equal entries
    assert net.edges == [(0, 1), (0, 2)]


def _lexsort_ranking(vals, n):
    iu, ju = np.triu_indices(n, 1)
    w = vals[iu, ju]
    order = np.lexsort((ju, iu, -w))
    return iu[order], ju[order], w[order]


@pytest.mark.parametrize("n", [2, 3, 7, 20])
def test_ranked_pairs_match_the_lexsort_ranking(n):
    rng = np.random.default_rng(n)
    cases = []
    for _ in range(5):
        vals = np.round(sym(n, rng), 1)  # rounding makes ties
        vals[rng.random((n, n)) < 0.2] = 0.0
        vals[rng.random((n, n)) < 0.2] = -0.0
        cases.append(vals)
    with_nan = sym(n, rng)
    with_nan[0, 1] = with_nan[n - 2, n - 1] = np.nan
    cases += [with_nan, np.zeros((n, n)), np.full((n, n), -0.0)]
    size = n * (n - 1) // 2
    for vals in cases:
        want = _lexsort_ranking(vals, n)
        # every prefix, from none of the pairs to all of them, as well as the
        # full ranking; rounded and zero matrices put ties at the cut
        for count in [None, *range(size + 1)]:
            got = _ranked_pairs(vals, n, count)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b[:count])
            assert np.array_equal(np.signbit(got[2]), np.signbit(want[2][:count]))


@pytest.mark.parametrize("negatives", ["drop", "absolute"])
def test_fixed_degree_and_density_keep_the_lexsort_prefix(negatives):
    rng = np.random.default_rng(11)
    n = 30
    size = n * (n - 1) // 2
    for rounded in (False, True):
        vals = sym(n, rng)
        if rounded:
            vals = np.round(vals, 1)  # many ties at every cut
        ranked = np.abs(vals) if negatives == "absolute" else vals
        ii, jj, _ = _lexsort_ranking(ranked, n)
        for E in (0, 1, 7, 100, 217, size - 1, size):
            net = apply_fixed_degree(cm_from(vals), k_target=2 * E / n, negatives=negatives)
            assert net.edges == sorted(zip(ii[:E].tolist(), jj[:E].tolist()))
            if E:
                net = apply_fixed_density(cm_from(vals), density=E / size, negatives=negatives)
                assert net.edges == sorted(zip(ii[:E].tolist(), jj[:E].tolist()))


@pytest.mark.parametrize(
    "spec",
    [
        {"method": "fixed_degree", "k_target": 3},
        {"method": "fixed_degree", "k_target": 4.5, "negatives": "absolute"},
        {"method": "fixed_density", "density": 0.2},
        {"method": "fixed_density", "path_exponent": 2.0, "negatives": "absolute"},
    ],
)
def test_top_edge_masks_match_each_slice(spec):
    rng = np.random.default_rng(5)
    n = 12
    stack = np.stack([sym(n, rng) for _ in range(9)])
    stack[1:4] = np.round(stack[1:4], 1)  # ties at the cut
    stack[4] = 0.0
    stack[5, 0, 1:] = stack[5, 1:, 0] = np.nan
    stack[6][np.triu(rng.random((n, n)) < 0.8, 1)] = np.nan  # a NaN cut
    masks = top_edge_masks(stack, spec)
    count = apply_spec(cm_from(stack[0]), spec).edge_count
    iu, ju = np.triu_indices(n, 1)
    for vals, mask in zip(stack, masks):
        ranked = np.abs(vals) if spec.get("negatives") == "absolute" else vals
        ii, jj, _ = _lexsort_ranking(ranked, n)
        want = sorted(zip(ii[:count].tolist(), jj[:count].tolist()))
        assert list(zip(iu[mask].tolist(), ju[mask].tolist())) == want
    assert masks.sum(axis=1).tolist() == [count] * len(stack)


def test_fixed_degree_overflow():
    with pytest.raises(ValueError, match="exceeds"):
        apply_fixed_degree(cm_from(np.zeros((4, 4))), k_target=4)


def test_fixed_density_count():
    rng = np.random.default_rng(4)
    net = apply_fixed_density(cm_from(sym(6, rng)), density=0.4, negatives="absolute")
    assert net.edge_count == 6  # round(0.4 * 15)
    with pytest.raises(ValueError, match="exactly one"):
        apply_fixed_density(cm_from(sym(6, rng)), density=0.4, path_exponent=2.0)
    with pytest.raises(ValueError, match="exactly one"):
        apply_fixed_density(cm_from(sym(6, rng)))


def test_path_exponent_edge_count_frozen():
    # n=1000, S=2.5: k = 1000**0.4 = 15.8489..., E = floor(1000*k/2 + 0.5) = 7924.
    rng = np.random.default_rng(5)
    net = apply_fixed_density(cm_from(sym(1000, rng)), path_exponent=2.5)
    assert net.edge_count == 7924
    assert net.meta["threshold"]["implied_k"] == pytest.approx(15.848931924611136)


def test_path_exponent_guards():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError, match="> 1"):
        apply_fixed_density(cm_from(sym(5, rng)), path_exponent=0.9)


def test_weighted_policies():
    vals = np.array(
        [
            [0.0, 0.6, -0.4],
            [0.6, 0.0, 0.2],
            [-0.4, 0.2, 0.0],
        ]
    )
    pos = weighted_network(cm_from(vals), policy="keep_positive")
    assert {(a, b): w for a, b, w in pos.edges} == {
        (0, 1): pytest.approx(0.6),
        (1, 2): pytest.approx(0.2),
    }
    mag = weighted_network(cm_from(vals), policy="absolute")
    assert {(a, b): w for a, b, w in mag.edges}[(0, 2)] == pytest.approx(0.4)
    cut = weighted_network(cm_from(vals), policy="threshold_then_keep", tau=0.3)
    assert [(a, b) for a, b, _ in cut.edges] == [(0, 1)]
    with pytest.raises(ValueError, match="tau"):
        weighted_network(cm_from(vals), policy="threshold_then_keep")
    with pytest.raises(ValueError, match="non-positive"):
        weighted_network(cm_from(vals), policy="threshold_then_keep", tau=-0.5)
    with pytest.raises(ValueError, match="eliminated"):
        weighted_network(cm_from(-np.abs(vals)), policy="keep_positive")


def test_apply_spec_dispatch():
    rng = np.random.default_rng(7)
    cm = cm_from(sym(5, rng))
    direct = apply_fixed_degree(cm, k_target=2, negatives="absolute")
    via = apply_spec(cm, {"method": "fixed_degree", "k_target": 2, "negatives": "absolute"})
    assert via.edges == direct.edges
    with pytest.raises(ValueError, match="unknown threshold method"):
        apply_spec(cm, {"method": "nope"})


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=4, max_value=12),
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.5, max_value=3.0),
)
def test_fixed_degree_exact_count_property(n, seed, k):
    e_target = int(np.floor(n * k / 2.0 + 0.5))
    if e_target > n * (n - 1) // 2:
        return
    vals = sym(n, np.random.default_rng(seed))
    net = apply_fixed_degree(cm_from(vals), k_target=k, negatives="absolute")
    assert net.edge_count == e_target
    kept = {frozenset(e) for e in net.edges}
    a = np.abs(vals)
    if kept and e_target < n * (n - 1) // 2:
        iu, ju = np.triu_indices(n, 1)
        kept_w = min(a[i, j] for i, j in net.edges)
        out_w = max(
            a[i, j] for i, j in zip(iu, ju) if frozenset((int(i), int(j))) not in kept
        )
        assert kept_w >= out_w - 1e-12
