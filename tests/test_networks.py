"""The network container: validation, canonical edges, persistence."""

import numpy as np
import pytest

from fcnets.networks import BinaryNetwork, WeightedNetwork, from_adjacency, load_network


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 1), (2, 2)], r"self-loop \(2, 2\)"),
        ([(0, 1), (1, 2), (0, 1)], r"duplicate edge \(0, 1\)"),
        ([(2, 1), (0, 2), (1, 2)], r"duplicate edge \(1, 2\)"),  # reversed pair
        ([(0, 1), (1, 3)], r"edge \(1, 3\) outside node range 0\.\.2"),
        ([(-1, 2)], r"edge \(-1, 2\) outside node range 0\.\.2"),
    ],
)
def test_unweighted_validation_errors(edges, message):
    with pytest.raises(ValueError, match=message):
        BinaryNetwork(3, edges)
    with pytest.raises(ValueError, match=message):
        WeightedNetwork(3, [(a, b, 1.5) for a, b in edges])


@pytest.mark.parametrize("w, shown", [(0.0, "0.0"), (-2.0, "-2.0"), (np.nan, "nan"), (np.inf, "inf")])
def test_weight_errors(w, shown):
    with pytest.raises(ValueError, match=rf"edge \(0, 2\) weight must be positive and finite, got {shown}"):
        WeightedNetwork(3, [(0, 1, 1.0), (2, 0, w)])


def test_first_error_in_input_order_wins():
    with pytest.raises(ValueError, match=r"self-loop \(1, 1\)"):
        BinaryNetwork(3, [(1, 1), (0, 1), (1, 0)])
    with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
        BinaryNetwork(3, [(0, 1), (1, 0), (2, 2)])
    # node range is checked after self-loops and duplicates
    with pytest.raises(ValueError, match=r"duplicate"):
        BinaryNetwork(3, [(0, 5), (0, 1), (1, 0)])


def test_canonical_sorted_edges():
    g = BinaryNetwork(4, [(3, 1), (0, 2), (2, 1)])
    assert g.edges == [(0, 2), (1, 2), (1, 3)]
    assert all(type(v) is int for e in g.edges for v in e)
    assert g.edge_count == 3
    assert g.degrees().tolist() == [1, 2, 2, 1]
    A = g.adjacency()
    assert A.dtype == np.int8 and np.array_equal(A, A.T) and A.sum() == 6

    w = WeightedNetwork(4, [(3, 1, 0.5), (0, 2, 2), (2, 1, 1.25)])
    assert w.edges == [(0, 2, 2.0), (1, 2, 1.25), (1, 3, 0.5)]
    assert all(type(e[2]) is float for e in w.edges)
    W = w.adjacency()
    assert W.dtype == np.float64 and W[3, 1] == W[1, 3] == 0.5
    assert w.degrees().tolist() == [1, 2, 2, 1]


def test_binary_drops_weights_and_copies_meta():
    w = WeightedNetwork(3, [(1, 0, 0.25), (1, 2, 4.0)], {"source": "x"})
    b = w.binary()
    assert b.edges == [(0, 1), (1, 2)]
    assert b.meta == {"source": "x"} and b.meta is not w.meta
    assert np.array_equal(b.adjacency(), (w.adjacency() > 0).astype(np.int8))


def test_empty_network():
    g = BinaryNetwork(3, [])
    assert g.edges == [] and g.edge_count == 0
    assert g.degrees().tolist() == [0, 0, 0]


@pytest.mark.parametrize(
    "build",
    [
        lambda: BinaryNetwork(5, [(4, 0), (1, 2), (0, 3)], {"name": "u", "k": 2}),
        lambda: WeightedNetwork(
            5, [(4, 0, 0.1), (1, 2, 1 / 3), (0, 3, 2.5e-7), (3, 4, 12345.678901234567)], {"name": "w"}
        ),
    ],
)
def test_save_load_save_round_trip_is_byte_identical(tmp_path, build):
    g = build()
    first, second = tmp_path / "a.tsv", tmp_path / "b.tsv"
    g.save(first)
    h = load_network(first)
    h.save(second)
    assert first.read_bytes() == second.read_bytes()
    assert (h.n, h.edges, h.meta) == (g.n, g.edges, g.meta)
    lines = first.read_text().splitlines()
    assert lines[0].startswith("# {") and '"n": 5' in lines[0]
    if len(g.edges[0]) == 3:
        assert lines[1:] == [f"{a}\t{b}\t{w:.17g}" for a, b, w in g.edges]
    else:
        assert lines[1:] == [f"{a}\t{b}" for a, b in g.edges]


@pytest.mark.parametrize(
    "text, message",
    [
        ("0\t1\n", "missing JSON header line"),
        ('# {"n": 3}\n0\t1\n1\t2\t0.5\n', "mixed weighted and unweighted lines"),
        ('# {"n": 3}\n0\t1\t0.5\t9\n', "bad edge line"),
    ],
)
def test_load_network_errors(tmp_path, text, message):
    path = tmp_path / "bad.tsv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_network(path)


def test_from_adjacency_chooses_weighted_or_not():
    A = np.zeros((4, 4))
    A[0, 1] = A[1, 0] = A[2, 3] = A[3, 2] = 1.0
    g = from_adjacency(A, {"tag": 1})
    assert g.edges == [(0, 1), (2, 3)] and g.meta == {"tag": 1}
    assert g.adjacency().dtype == np.int8
    A[2, 3] = A[3, 2] = 0.5
    w = from_adjacency(A)
    assert w.edges == [(0, 1, 1.0), (2, 3, 0.5)] and w.meta == {}
    assert np.array_equal(w.adjacency(), A)
