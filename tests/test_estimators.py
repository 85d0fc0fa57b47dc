import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from fcnets import estimators
from fcnets.estimators import (
    ROUNDS_MAX_K,
    ConnectionMatrix,
    DelayEmbedding,
    _correlations,
    _neighbor_indices,
    _symmetrise,
    coherence_matrix,
    correlation_matrix,
    estimate,
    load_connection_matrix,
    mutual_information_matrix,
    partial_correlation_matrix,
    synchronization_matrix,
)
from fcnets.panels import BandSpec


def _colored(rng, corr, t):
    """Samples whose *sample* correlation equals corr exactly."""
    n = corr.shape[0]
    x = rng.standard_normal((n, t))
    x -= x.mean(axis=1, keepdims=True)
    cov = x @ x.T / t
    white = np.linalg.inv(np.linalg.cholesky(cov)) @ x
    return np.linalg.cholesky(corr) @ white


def test_correlation_matches_numpy(rng):
    x = rng.standard_normal((6, 300))
    cm = correlation_matrix(x)
    expect = np.corrcoef(x)
    np.fill_diagonal(expect, 0.0)
    assert np.allclose(cm.values, expect, atol=1e-12)
    assert cm.measure == "correlation"


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("T", [4, 300])
@pytest.mark.parametrize("n", [2, 3, 90])
@pytest.mark.parametrize("b", [1, 7, 8, 9])
def test_stacked_correlation_is_corrcoef_per_slice(b, n, T):
    # every slice bit for bit: the stacked product must round as np.corrcoef's
    # np.dot does on this BLAS, and the symmetrised stack as ConnectionMatrix did
    rng = np.random.default_rng(100 * b + n + T)
    stack = rng.standard_normal((b, n, T))
    stack[::2] = np.round(stack[::2] * 8)  # integer-valued slices tie
    r, zero = _correlations(stack.copy())
    want = np.stack([np.corrcoef(s) for s in stack])
    np.testing.assert_array_equal(_bits(r), _bits(want))
    assert not zero.any()
    assert _symmetrise(r).all()
    for got, c in zip(r, want):
        c = (c + c.T) / 2.0
        np.fill_diagonal(c, 0.0)
        np.testing.assert_array_equal(_bits(got), _bits(c))
    np.testing.assert_array_equal(_bits(correlation_matrix(stack[0]).values), _bits(r[0]))


def test_stacked_correlation_marks_zero_variance_nodes(rng):
    stack = rng.standard_normal((3, 4, 30))
    stack[0, 2] = 2.5  # constant
    stack[2, [0, 3]] = -4.0
    _, zero = _correlations(stack.copy())
    np.testing.assert_array_equal(zero, stack.std(axis=2) == 0)
    np.testing.assert_array_equal(np.flatnonzero(zero.any(axis=1)), [0, 2])


def test_symmetrise_flags_asymmetric_slices():
    values = np.zeros((3, 3, 3))
    values[1, 0, 1] = 1e-3
    values[2, 1, 2] = np.nan
    np.testing.assert_array_equal(_symmetrise(values), [True, False, False])
    assert values[1, 0, 1] == values[1, 1, 0] == 5e-4


def test_correlation_rejects_constant_node(rng):
    x = rng.standard_normal((3, 50))
    x[1] = 2.5
    with pytest.raises(ValueError, match="1"):
        correlation_matrix(x)


def test_partial_correlation_chain_vanishes(rng):
    # Markov chain 1-2-3: conditioning on the middle node removes the 1-3 link.
    corr = np.array([[1.0, 0.6, 0.36], [0.6, 1.0, 0.6], [0.36, 0.6, 1.0]])
    x = _colored(rng, corr, 500)
    cm = partial_correlation_matrix(x)
    assert abs(cm.values[0, 2]) < 1e-8
    assert cm.values[0, 1] > 0.3


def test_partial_correlation_shrinkage_keeps_symmetry(rng):
    x = rng.standard_normal((5, 40))
    cm = partial_correlation_matrix(x, shrinkage=0.1)
    assert np.allclose(cm.values, cm.values.T)
    assert np.all(np.diag(cm.values) == 0)


def test_partial_correlation_of_an_ill_conditioned_covariance(rng):
    # 30 nodes sharing one strong signal: inv() leaves an asymmetry above
    # ConnectionMatrix's 1e-12, which the estimator averages away itself
    x = 0.01 * rng.standard_normal((30, 300)) + rng.standard_normal(300)
    Q = np.linalg.inv(np.cov(x))
    d = np.sqrt(np.diag(Q))
    p = np.clip(-Q / np.outer(d, d), -1.0, 1.0)
    assert np.max(np.abs(p - p.T)) > 1e-12
    want = (p + p.T) / 2.0
    np.fill_diagonal(want, 0.0)
    assert np.array_equal(partial_correlation_matrix(x).values, want)


def test_partial_correlation_singular_advises_shrinkage(rng):
    x = rng.standard_normal((10, 8))  # more nodes than samples
    with pytest.raises(ValueError, match="shrinkage"):
        partial_correlation_matrix(x)


def test_coherence_white_noise_low(rng):
    x = rng.standard_normal((4, 4096))
    cm = coherence_matrix(x, BandSpec(0.05, 0.2), sampling_interval=1.0)
    off = cm.values[np.triu_indices(4, 1)]
    assert np.all(off < 0.2)
    assert np.all(off > 0)


def test_coherence_shared_signal_high(rng):
    shared = rng.standard_normal(2048)
    x = np.vstack([shared + 0.05 * rng.standard_normal(2048) for _ in range(2)])
    cm = coherence_matrix(x, BandSpec(0.05, 0.2), sampling_interval=1.0)
    assert cm.values[0, 1] > 0.95


def test_coherence_band_needs_bins(rng):
    x = rng.standard_normal((2, 256))
    with pytest.raises(ValueError, match="band"):
        coherence_matrix(x, BandSpec(0.0001, 0.0002), sampling_interval=1.0)


def test_mutual_information_gaussian_pair(rng):
    # rho = 0.9 Gaussian pair; analytic MI = -0.5 log2(1 - rho^2) = 1.198 bits.
    corr = np.array([[1.0, 0.9], [0.9, 1.0]])
    x = _colored(rng, corr, 100_000)
    pinned = mutual_information_matrix(x, bins=48)
    assert pinned.values[0, 1] == pytest.approx(1.198, abs=0.05)
    # The adaptive default (sqrt(T/5) bins) overshoots through plug-in bias;
    # its value is frozen here so a drift in the binning rule is caught.
    default = mutual_information_matrix(x)
    assert default.params["bins"] == 142
    assert default.values[0, 1] == pytest.approx(1.30, abs=0.03)


def test_mutual_information_independent_near_zero(rng):
    x = rng.standard_normal((2, 50_000))
    cm = mutual_information_matrix(x, bins=20)
    assert cm.values[0, 1] < 0.02


def test_mutual_information_normalized_identical_is_one(rng):
    a = rng.standard_normal(5000)
    cm = mutual_information_matrix(np.vstack([a, a]), bins=16, normalized=True)
    assert cm.values[0, 1] == pytest.approx(1.0, abs=1e-9)


def test_synchronization_identical_and_independent(rng):
    t = 600
    a = np.sin(0.3 * np.arange(t)) + 0.1 * rng.standard_normal(t)
    b = rng.standard_normal(t)
    cm = synchronization_matrix(np.vstack([a, a.copy(), b]))
    embed = DelayEmbedding()
    B = embed.vector_count(t)
    assert cm.values[0, 1] == pytest.approx(1.0)
    # Independent pair: coincidence at chance level k/B.
    chance = embed.neighbor_count / B
    assert cm.values[0, 2] < 5 * chance


def test_synchronization_counts_match_pairwise_neighbor_sets(rng):
    x = rng.standard_normal((5, 150))
    x[1] = x[0] + 0.05 * rng.standard_normal(150)
    embed = DelayEmbedding(lag=2, dim=3, neighbor_count=4)
    k, B, w = embed.neighbor_count, embed.vector_count(150), embed.window()
    neighbors = []
    for series in x:
        v = np.stack([series[d * embed.lag : d * embed.lag + B] for d in range(embed.dim)], axis=1)
        d2 = ((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=2)
        d2[np.abs(np.subtract.outer(np.arange(B), np.arange(B))) < w] = np.inf
        neighbors.append([set(np.argsort(row, kind="stable")[:k].tolist()) for row in d2])
    cm = synchronization_matrix(x, embed)
    for i in range(5):
        assert cm.values[i, i] == 0.0
        for j in range(i + 1, 5):
            shared = sum(len(a & b) for a, b in zip(neighbors[i], neighbors[j]))
            assert cm.values[i, j] == cm.values[j, i] == shared / (B * k)


def test_synchronization_neighbours_with_ties_at_the_kth_distance(rng):
    # a period-5 integer series repeats each delay vector every 5 samples:
    # its distances are exact integers and rows tie at their k-th distance
    T = 90
    x = np.vstack([np.tile([0.0, 1.0, 3.0, 2.0, 5.0], T // 5), rng.standard_normal(T)])
    embed = DelayEmbedding()
    k, B = embed.neighbor_count, embed.vector_count(T)
    excluded = np.abs(np.subtract.outer(np.arange(B), np.arange(B))) < embed.window()
    oracle, tied = [], []
    for series, idx in zip(x, _neighbor_indices(x, embed)):
        v = series[np.arange(B)[:, None] + embed.lag * np.arange(embed.dim)]
        d2 = cdist(v, v, "sqeuclidean")
        d2[excluded] = np.inf
        kth = np.sort(d2, axis=1)[:, k - 1 : k]
        assert idx.shape == (B, k)
        assert all(len(set(row)) == k for row in idx.tolist())
        assert np.all(np.take_along_axis(d2, idx, axis=1) <= kth)
        tied.append(np.count_nonzero(d2 <= kth) > B * k)
        if tied[-1]:
            # which tied vectors count is argpartition's choice, on the same exact distances
            expected = np.argpartition(d2, k - 1, axis=1)[:, :k]
            np.testing.assert_array_equal(idx, expected)
        else:
            expected = np.argsort(d2, axis=1)[:, :k]
            assert [set(r) for r in idx.tolist()] == [set(r) for r in expected.tolist()]
        oracle.append([set(r) for r in expected.tolist()])
    assert tied == [True, False]
    shared = sum(len(a & b) for a, b in zip(*oracle))
    assert synchronization_matrix(x, embed).values[0, 1] == shared / (B * k)


def _reference_neighbor_indices(series, embed):
    """The selection as it was before the argmin rounds, for every k: a
    partition bounds each row's k-th distance, and where a row ties there
    `np.argpartition` picks. `_neighbor_indices` must reproduce its sets."""
    B, k = embed.vector_count(series.shape[1]), embed.neighbor_count
    excluded = np.abs(np.subtract.outer(np.arange(B), np.arange(B))) < embed.window()
    d2, gram = np.empty((B, B)), np.empty((B, B))
    for x in series:
        vectors = x[np.arange(B)[:, None] + embed.lag * np.arange(embed.dim)]
        sq = np.sum(vectors**2, axis=1)
        np.add.outer(sq, sq, out=d2)
        np.matmul(vectors, vectors.T, out=gram)
        gram *= 2.0
        d2 -= gram
        d2[excluded] = np.inf
        np.copyto(gram, d2)
        gram.partition(k - 1, axis=1)
        near = np.flatnonzero(d2 <= gram[:, k - 1 : k])
        if near.size == B * k:
            yield (near % B).reshape(B, k)
        else:
            yield np.argpartition(d2, k - 1, axis=1)[:, :k]


def test_neighbour_selection_matches_the_partition_rule(rng, monkeypatch):
    # continuous, 1-decimal and {0, 1, 2} panels, each at the shortest
    # series the embedding allows (B = k + 2 * window + 1) and a longer one
    rounds = []
    select = estimators._nearest_by_rounds

    def recorded(d2, k):
        near = select(d2, k)
        rounds.append((k, near is None))
        return near

    monkeypatch.setattr(estimators, "_nearest_by_rounds", recorded)
    for k in (1, 3, 5, ROUNDS_MAX_K, ROUNDS_MAX_K + 1):
        for lag, dim in ((1, 2), (2, 3)):
            embed = DelayEmbedding(lag=lag, dim=dim, neighbor_count=k)
            w = embed.window()
            for B in (k + 2 * w + 1, 80):
                x = rng.standard_normal((4, B + w))
                for panel in (x, np.round(x, 1), rng.integers(0, 3, x.shape).astype(float)):
                    got = list(_neighbor_indices(panel, embed))
                    want = list(_reference_neighbor_indices(panel, embed))
                    for g, r in zip(got, want):
                        assert g.shape == (B, k)
                        assert [set(row) for row in g.tolist()] == [set(row) for row in r.tolist()]
                    sets = [[set(row) for row in r.tolist()] for r in want]
                    shared = np.zeros((4, 4), dtype=np.int64)
                    for i in range(4):
                        for j in range(i + 1, 4):
                            shared[i, j] = shared[j, i] = sum(
                                len(a & b) for a, b in zip(sets[i], sets[j])
                            )
                    values = synchronization_matrix(panel, embed).values
                    assert values.tobytes() == (shared / (B * k)).tobytes()
    # the rounds ran with and without a tie fallback, and above
    # ROUNDS_MAX_K never: there np.argpartition picked every node
    assert {tie for _, tie in rounds} == {False, True}
    assert max(k for k, _ in rounds) == ROUNDS_MAX_K


@pytest.mark.parametrize("large", [{10: 1.2e154, 40: 1.2e154}, {0: 1.2e154, 40: 2e154}])
def test_neighbour_selection_matches_the_partition_rule_where_distances_overflow(rng, large):
    # two vectors holding 1.2e154 are at distance inf - inf = NaN from each
    # other and at distinct finite distances from the rest: argmin takes a
    # NaN first, a partition puts it last, so the rounds must defer. In the
    # second case vector 40 = (2e154, x[41]) has an infinite square: it is
    # at NaN from vector 0 and at inf from all others, so its row picks
    # column 0 in every round and must be restored to NaN there.
    x = rng.standard_normal((2, 60)) * 1e150
    x[0, list(large)] = list(large.values())
    embed = DelayEmbedding(lag=1, dim=2, neighbor_count=3)
    with np.errstate(over="ignore", invalid="ignore"):
        got = list(_neighbor_indices(x, embed))
        want = list(_reference_neighbor_indices(x, embed))
    for g, r in zip(got, want):
        assert [set(row) for row in g.tolist()] == [set(row) for row in r.tolist()]


@pytest.mark.parametrize(
    "name, value",
    [
        ("lag", True),
        ("lag", "x"),
        ("dim", 2.5),
        ("neighbor_count", 2.0),
        ("neighbor_count", np.bool_(True)),
    ],
)
def test_delay_embedding_rejects_non_integer_sizes(rng, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        DelayEmbedding(**{name: value})
    x = rng.standard_normal((3, 60))
    message = f"estimator 'synchronization' failed: {name} must be an integer"
    with pytest.raises(ValueError, match=message):
        estimate(x, "synchronization", {name: value})


def test_delay_embedding_takes_numpy_integers():
    embed = DelayEmbedding(lag=np.int64(1), dim=np.int32(2), neighbor_count=np.uint8(3))
    assert [type(v) for v in (embed.lag, embed.dim, embed.neighbor_count)] == [int, int, int]
    assert embed == DelayEmbedding(1, 2, 3)


def test_connection_matrix_roundtrip(tmp_path, rng):
    x = rng.standard_normal((5, 100))
    cm = correlation_matrix(x)
    path = tmp_path / "cm.csv"
    cm.save(path)
    back = load_connection_matrix(path)
    assert np.allclose(back.values, cm.values, atol=0)
    assert back.measure == "correlation"


def test_connection_matrix_validation():
    with pytest.raises(ValueError):
        ConnectionMatrix(np.array([[0.0, 0.5], [0.4, 0.0]]), "correlation", {})
    with pytest.raises(ValueError):
        ConnectionMatrix(np.ones((2, 3)), "correlation", {})
    cm = ConnectionMatrix(np.array([[0.1, 0.5], [0.5, 0.2]]), "correlation", {})
    assert np.all(np.diag(cm.values) == 0)
    assert cm.values[0, 1] == 0.5


def test_connection_matrix_symmetry_tolerance_is_absolute():
    # np.allclose's default rtol=1e-5 would accept this and average it
    with pytest.raises(ValueError, match="symmetric"):
        ConnectionMatrix(np.array([[0.0, 0.5], [0.500004, 0.0]]), "correlation", {})
    with pytest.raises(ValueError, match="symmetric"):
        ConnectionMatrix(np.array([[0.0, 1e6], [1e6 + 1e-3, 0.0]]), "unknown", {})
    cm = ConnectionMatrix(np.array([[0.0, 0.5], [0.5 + 1e-13, 0.0]]), "correlation", {})
    assert cm.values[0, 1] == cm.values[1, 0] == (0.5 + (0.5 + 1e-13)) / 2


def test_estimate_dispatch(rng):
    x = rng.standard_normal((3, 128))
    assert estimate(x, "correlation").measure == "correlation"
    assert estimate(x, "coherence", {"band": [0.05, 0.2]}).measure == "coherence"
    with pytest.raises(ValueError, match="unknown estimator"):
        estimate(x, "magic")
    with pytest.raises(ValueError, match="band"):
        estimate(x, "coherence")


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10_000))
def test_symmetry_zero_diagonal_property(n, seed):
    x = np.random.default_rng(seed).standard_normal((n, 80))
    for cm in (
        correlation_matrix(x),
        partial_correlation_matrix(x, shrinkage=0.05),
        mutual_information_matrix(x, bins=8),
    ):
        assert np.allclose(cm.values, cm.values.T)
        assert np.all(np.diag(cm.values) == 0)
    assert np.all(np.abs(correlation_matrix(x).values) <= 1.0)
    assert np.all(mutual_information_matrix(x, bins=8).values >= 0)
