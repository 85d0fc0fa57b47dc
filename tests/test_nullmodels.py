"""Null models: rewiring, lattice references, small-world indices, power laws."""

import numpy as np
import pytest
from scipy.special import zeta

from conftest import cycle_graph, erdos_renyi, ring_lattice, star_graph, watts_strogatz
from fcnets.networks import BinaryNetwork
from fcnets.nullmodels import (
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


def test_rewire_stalls_on_star():
    # every swap on a star makes a self-loop or duplicate, so it must give up
    g = star_graph(4)
    with pytest.warns(RuntimeWarning, match="stalled"):
        null = rewire_preserving_degree(g, swaps_per_edge=2, seed=0)
    assert set(null.edges) == set(g.edges)


def test_lattice_reference_shape():
    g = ring_lattice(12, 4)
    latt = lattice_reference(g)
    assert latt.edge_count == g.edge_count
    deg = latt.degrees()
    assert deg.max() - deg.min() <= 2
    # a cycle is already a ring lattice and must come back unchanged
    c = cycle_graph(8)
    assert lattice_reference(c).edges == c.edges


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


def test_powerlaw_fit_guards():
    with pytest.raises(ValueError, match="constant or empty"):
        powerlaw_fit([4] * 100)
    with pytest.raises(ValueError, match="no candidate cutoff"):
        powerlaw_fit([1, 2, 3, 4, 5] * 4, min_tail=50)


def test_powerlaw_fit_deterministic(rng):
    draws = sample_powerlaw(2.2, 1, 800, rng)
    a = powerlaw_fit(draws, bootstrap_reps=19, seed=7)
    b = powerlaw_fit(draws, bootstrap_reps=19, seed=7)
    assert (a.alpha, a.x_min, a.gof_p) == (b.alpha, b.x_min, b.gof_p)
