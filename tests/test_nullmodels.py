"""Null models: rewiring, lattice references, small-world indices, power laws."""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from scipy.special import zeta
from scipy.stats import chisquare

from conftest import cycle_graph, erdos_renyi, ring_lattice, star_graph, watts_strogatz
from fcnets import nullmodels
from fcnets.networks import BinaryNetwork, Network
from fcnets.nullmodels import (
    _SWAP_BLOCK,
    lattice_reference,
    powerlaw_fit,
    rewire_preserving_degree,
    sample_powerlaw,
    small_world,
)


def test_rewire_preserves_degrees(rng):
    g = watts_strogatz(40, 4, 0.2, rng)
    null = rewire_preserving_degree(g, swaps_per_edge=10, seed=11)
    assert null.edge_count == g.edge_count
    assert list(null.degrees()) == list(g.degrees())
    assert set(null.edges) != set(g.edges)
    pairs = null.edges
    assert len(set(pairs)) == len(pairs)
    assert all(a != b for a, b in pairs)


def test_rewire_deterministic(rng):
    g = watts_strogatz(30, 4, 0.2, rng)
    a = rewire_preserving_degree(g, seed=5)
    b = rewire_preserving_degree(g, seed=5)
    c = rewire_preserving_degree(g, seed=6)
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_rewire_needs_two_edges():
    with pytest.raises(ValueError, match="2 edges"):
        rewire_preserving_degree(BinaryNetwork(3, [(0, 1)]))


@pytest.mark.parametrize("swaps_per_edge", [0, -3, 0.5])
def test_rewire_needs_at_least_one_swap_per_edge(rng, swaps_per_edge):
    with pytest.raises(ValueError, match="swaps_per_edge must be >= 1"):
        rewire_preserving_degree(watts_strogatz(20, 4, 0.1, rng), swaps_per_edge=swaps_per_edge)


def test_rewire_stalls_on_star():
    # every swap on a star makes a self-loop or duplicate, so it must give up
    g = star_graph(4)
    with pytest.warns(RuntimeWarning, match="stalled"):
        null = rewire_preserving_degree(g, swaps_per_edge=2, seed=0)
    assert set(null.edges) == set(g.edges)


def _accepted_proposals(edges):
    """a(x): how many of the (e1, e2, orientation) proposals from this edge
    list (each edge (i, j) with i < j) the swap rule accepts."""
    present = set(edges)
    count = 0
    for (a, b), (c, d) in itertools.permutations(edges, 2):
        for p1, p2 in (((a, d), (c, b)), ((a, c), (b, d))):
            p1, p2 = tuple(sorted(p1)), tuple(sorted(p2))
            if p1[0] != p1[1] and p2[0] != p2[1] and p1 != p2:
                count += p1 not in present and p2 not in present
    return count


def test_rewire_samples_the_jump_chain_law():
    """Counting only successful swaps makes the output follow the jump chain
    of the swap walk, whose stationary law puts mass a(x) on graph x. Every
    labelled graph with degrees (3, 2, 2, 3, 2, 2) is enumerated (54 of
    them, a(x) from 22 to 28) and the rewired outputs of fixed seeds are
    tested against that law."""
    g = Network(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)])
    degrees = list(g.degrees())
    graphs = []
    for edges in itertools.combinations(itertools.combinations(range(6), 2), g.edge_count):
        if list(np.bincount(np.ravel(edges), minlength=6)) == degrees:
            graphs.append(edges)
    weight = np.array([_accepted_proposals(list(x)) for x in graphs], dtype=float)
    assert len(graphs) == 54 and (weight.min(), weight.max()) == (22, 28)
    index = {x: k for k, x in enumerate(graphs)}
    counts = np.zeros(len(graphs))
    reps = 4000
    for seed in range(reps):
        counts[index[tuple(rewire_preserving_degree(g, swaps_per_edge=20, seed=seed).edges)]] += 1
    assert chisquare(counts, reps * weight / weight.sum()).pvalue >= 0.001


def _gnm_with_isolated(rng):
    """G(n, m) on the first 24 of 30 nodes: nodes 24..29 stay isolated."""
    iu, ju = np.triu_indices(24, 1)
    keep = rng.choice(iu.size, size=50, replace=False)
    return Network(30, np.column_stack((iu[keep], ju[keep])))


def _near_complete(rng):
    """K_11 minus 10 random edges."""
    iu, ju = np.triu_indices(11, 1)
    keep = np.sort(rng.choice(iu.size, size=iu.size - 10, replace=False))
    return Network(11, np.column_stack((iu[keep], ju[keep])))


@pytest.mark.parametrize(
    "family, swaps_per_edge",
    [
        (lambda rng: watts_strogatz(30, 4, 0.2, rng), 10),
        (_gnm_with_isolated, 10),
        (_near_complete, 3),
    ],
    ids=["watts_strogatz", "gnm_isolated", "near_complete"],
)
def test_rewire_invariants_over_many_seeds(family, swaps_per_edge):
    for seed in range(200):
        g = family(np.random.default_rng(seed))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the target is reached: no stall warning
            null = rewire_preserving_degree(g, swaps_per_edge=swaps_per_edge, seed=seed)
        assert null.n == g.n and null.edge_count == g.edge_count
        assert np.array_equal(null.degrees(), g.degrees())
        assert np.all(null.pairs[:, 0] < null.pairs[:, 1])
        assert len(set(null.edges)) == null.edge_count
        assert null.meta == {"null": "degree_preserving_rewire", "seed": seed}
        again = rewire_preserving_degree(g, swaps_per_edge=swaps_per_edge, seed=seed)
        assert np.array_equal(again.pairs, null.pairs)


def _one_swap_at_a_time(g, swaps_per_edge, seed):
    """Reference rewire over tuple edges: the same proposals, read one by one
    from the same blocks of draws, until exactly swaps_per_edge * m succeed."""
    rng = np.random.default_rng(seed)
    edges = [tuple(e) for e in g.pairs.tolist()]
    present = set(edges)
    m = len(edges)
    queue = []
    done = 0
    while done < swaps_per_edge * m:
        if not queue:
            picks = rng.integers(0, m, size=(_SWAP_BLOCK, 2)).tolist()
            flips = rng.integers(0, 2, size=_SWAP_BLOCK).tolist()
            queue = list(zip(picks, flips))[::-1]
        (e1, e2), flip = queue.pop()
        (a, b), (c, d) = edges[e1], edges[e2]
        new = ((a, d), (c, b)) if flip else ((a, c), (b, d))
        p1, p2 = (tuple(sorted(p)) for p in new)
        if e1 == e2 or p1[0] == p1[1] or p2[0] == p2[1]:
            continue
        if p1 == p2 or p1 in present or p2 in present:
            continue
        present -= {edges[e1], edges[e2]}
        present |= {p1, p2}
        edges[e1], edges[e2] = p1, p2
        done += 1
    return sorted(present)


def test_rewire_stops_at_the_exact_target_across_block_boundaries(rng):
    # 50 * 100 = 5000 swaps take more than one block of draws and end inside a later one
    g = watts_strogatz(50, 4, 0.2, rng)
    assert g.edge_count == 100 and (50 * g.edge_count) % _SWAP_BLOCK != 0
    for seed in range(3):
        null = rewire_preserving_degree(g, swaps_per_edge=50, seed=seed)
        assert null.edges == _one_swap_at_a_time(g, 50, seed)
        assert np.array_equal(null.degrees(), g.degrees())


def test_lattice_reference_shape():
    g = ring_lattice(12, 4)
    latt = lattice_reference(g)
    assert latt.edge_count == g.edge_count
    deg = latt.degrees()
    assert deg.max() - deg.min() <= 2
    # a cycle is already a ring lattice and must come back unchanged
    c = cycle_graph(8)
    assert lattice_reference(c).edges == c.edges


def _ring_candidates(n, m):
    """First m distinct ring pairs, by (offset, node), enumerated one at a time."""
    edges, seen, offset = [], set(), 1
    while len(edges) < m:
        for i in range(n):
            j = (i + offset) % n
            pair = (min(i, j), max(i, j))
            if pair in seen:
                continue
            seen.add(pair)
            edges.append(pair)
            if len(edges) == m:
                break
        offset += 1
    return edges


def test_lattice_reference_matches_enumeration():
    # every edge count on every ring up to 40 nodes keeps the same pair set
    # (the enumeration for m edges is the first m of the full one)
    for n in range(2, 41):
        iu, ju = np.triu_indices(n, 1)
        ref = _ring_candidates(n, iu.size)
        for m in range(iu.size + 1):
            g = Network(n, np.column_stack((iu[:m], ju[:m])))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                assert lattice_reference(g).edges == sorted(ref[:m]), (n, m)


def test_lattice_reference_warns_on_sparse():
    g = BinaryNetwork(10, [(0, 1), (2, 3), (4, 5)])
    with pytest.warns(RuntimeWarning, match="partial ring"):
        latt = lattice_reference(g)
    assert latt.edge_count == 3


def test_small_world_regimes(rng):
    ws = watts_strogatz(60, 6, 0.1, rng)
    res = small_world(ws, null_count=8, seed=3)
    assert res.sigma > 1.5
    assert -0.7 < res.omega < 0.4

    ring = ring_lattice(60, 6)
    res_ring = small_world(ring, null_count=8, seed=3)
    assert res_ring.omega < -0.3

    er = erdos_renyi(60, 6, rng)
    res_er = small_world(er, null_count=8, seed=3)
    assert 0.5 < res_er.sigma < 2.0
    assert res_er.omega > 0.4


def test_small_world_deterministic_and_shared_ensemble(rng):
    g = watts_strogatz(40, 4, 0.15, rng)
    a = small_world(g, null_count=6, seed=9)
    b = small_world(g, null_count=6, seed=9)
    assert (a.sigma, a.omega, a.C_rand, a.L_rand) == (b.sigma, b.omega, b.C_rand, b.L_rand)
    par = small_world(g, null_count=6, seed=9, workers=2)
    assert par.sigma == a.sigma and par.omega == a.omega


@pytest.mark.parametrize("null_count", [0, -1])
def test_small_world_needs_a_null_graph(rng, null_count):
    with pytest.raises(ValueError, match="null_count must be >= 1"):
        small_world(watts_strogatz(20, 4, 0.1, rng), null_count=null_count)


def test_small_world_disconnected_flagged(rng):
    core = watts_strogatz(30, 4, 0.1, rng)
    g = BinaryNetwork(31, core.edges)  # node 30 isolated
    res = small_world(g, null_count=4, seed=2)
    assert res.restricted_to_largest_component
    assert np.isfinite(res.sigma)


def test_sample_powerlaw_marginals(rng):
    alpha, x_min = 3.0, 2
    draws = sample_powerlaw(alpha, x_min, 20_000, rng)
    assert draws.min() >= x_min
    p_first = np.mean(draws == x_min)
    expected = x_min ** (-alpha) / zeta(alpha, x_min)
    assert p_first == pytest.approx(expected, abs=0.02)


def test_powerlaw_fit_recovers_exponent(rng):
    draws = sample_powerlaw(2.5, 1, 2000, rng)
    fit = powerlaw_fit(draws, bootstrap_reps=49, seed=1, min_tail=50)
    assert fit.alpha == pytest.approx(2.5, abs=0.2)
    assert fit.x_min <= 3
    assert fit.gof_p > 0.05
    assert fit.tail_count >= 50
    # the truncated variant nests the pure law, so it cannot do much better here
    assert fit.truncated_loglik - fit.pure_loglik < 3.0


def test_powerlaw_detects_exponential_cutoff(rng):
    # thin the tail with e^(-0.25 x): the truncated fit should win clearly
    draws = sample_powerlaw(1.8, 1, 60_000, rng)
    keep = draws[rng.random(draws.size) < np.exp(-0.25 * draws)]
    assert keep.size > 2000
    fit = powerlaw_fit(keep[:2000], bootstrap_reps=0, seed=1, min_tail=50)
    assert fit.truncated_loglik - fit.pure_loglik > 3.0
    assert fit.truncated_rate > 0.05


class _ForgetfulCache(dict):
    """A zeta-grid cache that never reports a hit, so every grid is recomputed."""

    def __contains__(self, key):
        return False


def test_powerlaw_fit_computes_each_zeta_grid_once(rng, monkeypatch):
    draws = sample_powerlaw(2.5, 1, 1000, rng)
    grids = []  # the x_min of every zeta call over the whole exponent grid

    def counting_zeta(alpha, x_min):
        if np.ndim(alpha):
            grids.append(int(x_min))
        return zeta(alpha, x_min)

    monkeypatch.setattr(nullmodels, "zeta", counting_zeta)
    cached = powerlaw_fit(draws, bootstrap_reps=19, seed=3)
    cached_grids = list(grids)
    assert cached_grids and len(cached_grids) == len(set(cached_grids))

    grids.clear()
    fit_tail = nullmodels._fit_tail
    monkeypatch.setattr(
        nullmodels, "_fit_tail", lambda values, min_tail, _: fit_tail(values, min_tail, _ForgetfulCache())
    )
    recomputed = powerlaw_fit(draws, bootstrap_reps=19, seed=3)
    assert len(grids) > len(cached_grids) and set(grids) == set(cached_grids)

    def bits(fit):
        return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(fit)]

    assert bits(cached) == bits(recomputed)


def test_powerlaw_fit_guards():
    with pytest.raises(ValueError, match="constant or empty"):
        powerlaw_fit([4] * 100)
    with pytest.raises(ValueError, match="no candidate cutoff"):
        powerlaw_fit([1, 2, 3, 4, 5] * 4, min_tail=50)


def _recorded_fits(monkeypatch):
    """Wrap nullmodels._fit_tail; returns the list of samples it is given."""
    samples = []
    fit_tail = nullmodels._fit_tail

    def recorded(values, *args):
        samples.append(np.array(values))
        return fit_tail(values, *args)

    monkeypatch.setattr(nullmodels, "_fit_tail", recorded)
    return samples


def test_powerlaw_bootstrap_draws_below_the_cutoff_from_the_data(rng, monkeypatch):
    # below x_min = 10 the data hold only 1s and 3s, two to one; the model's
    # table starts at x_min, so every synthetic value below it is a data draw
    data = np.concatenate([np.repeat([1, 3], [200, 100]), sample_powerlaw(2.5, 10, 500, rng)])
    rng.shuffle(data)
    samples = _recorded_fits(monkeypatch)
    fit = powerlaw_fit(data, bootstrap_reps=20, seed=2)
    assert (fit.x_min, fit.tail_count) == (10, 500)
    synthetic = samples[1:]
    assert len(synthetic) == 20
    drawn = []
    for synth in synthetic:
        low = synth < fit.x_min
        assert synth.size == data.size
        assert np.all(np.diff(low.astype(int)) >= 0)  # the model's draws, then the data's
        drawn.append(synth[low])
    drawn = np.concatenate(drawn)
    assert set(drawn.tolist()) == {1, 3}
    # each value lies below x_min with probability 300/800: 6000 of 16000 expected, sd 61
    assert abs(drawn.size - 6000) < 300
    assert np.mean(drawn == 1) == pytest.approx(2 / 3, abs=0.03)


def test_powerlaw_bootstrap_refits_always_find_a_cutoff(rng, monkeypatch):
    # a synthetic sample has the data's size, so its smallest value is a
    # cutoff that keeps all n >= min_tail values, even at min_tail = n
    data = sample_powerlaw(2.5, 2, 300, rng)
    samples = _recorded_fits(monkeypatch)
    fit = powerlaw_fit(data, bootstrap_reps=20, seed=4, min_tail=data.size)
    assert (fit.x_min, fit.tail_count) == (data.min(), data.size)
    assert len(samples) == 21 and all(s.size == data.size for s in samples)
    assert 1 / 21 <= fit.gof_p <= 1.0


def test_powerlaw_fit_deterministic(rng):
    draws = sample_powerlaw(2.2, 1, 800, rng)
    a = powerlaw_fit(draws, bootstrap_reps=19, seed=7)
    b = powerlaw_fit(draws, bootstrap_reps=19, seed=7)
    assert (a.alpha, a.x_min, a.gof_p) == (b.alpha, b.x_min, b.gof_p)
