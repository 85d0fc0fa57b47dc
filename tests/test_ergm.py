"""Exponential random graph models: statistics, pseudolikelihood, simulation."""

import itertools
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit, logit
from scipy.stats import chisquare

from conftest import complete_graph, path_graph, random_graph, star_graph
from fcnets import ergm
from fcnets.ergm import (
    TERM_NAMES,
    ErgmModel,
    ergm_change_stats,
    ergm_mple,
    ergm_simulate,
    ergm_stats,
    representative_network,
)
from fcnets.networks import BinaryNetwork, WeightedNetwork
from fcnets.runtime import rng_for


def triangle():
    return BinaryNetwork(3, [(0, 1), (1, 2), (0, 2)])


def test_stats_known_graphs():
    assert list(ergm_stats(complete_graph(4))) == [6.0, 12.0, 4.0]
    assert list(ergm_stats(star_graph(3))) == [3.0, 3.0, 0.0]
    assert list(ergm_stats(triangle())) == [3.0, 3.0, 1.0]
    assert list(ergm_stats(path_graph(3))) == [2.0, 1.0, 0.0]
    assert list(ergm_stats(triangle(), ("edges",))) == [3.0]
    # weights are ignored, as in the change statistics and the MPLE design
    weighted = WeightedNetwork(3, [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)])
    assert list(ergm_stats(weighted)) == [3.0, 3.0, 1.0]


def test_change_stats_match_stat_difference(rng):
    for _ in range(20):
        g = random_graph(8, 0.4, rng)
        i, j = sorted(rng.choice(8, size=2, replace=False).tolist())
        delta = ergm_change_stats(g, (i, j))
        without = BinaryNetwork(8, [e for e in g.edges if e != (i, j)])
        with_e = BinaryNetwork(8, list(without.edges) + [(i, j)])
        assert np.allclose(delta, ergm_stats(with_e) - ergm_stats(without))


def test_change_stats_triangle_closure():
    assert list(ergm_change_stats(triangle(), (0, 1))) == [1.0, 2.0, 1.0]
    assert list(ergm_change_stats(path_graph(3), (0, 2))) == [1.0, 2.0, 1.0]
    with pytest.raises(ValueError, match="invalid dyad"):
        ergm_change_stats(triangle(), (0, 0))
    with pytest.raises(ValueError, match="invalid dyad"):
        ergm_change_stats(triangle(), (0, 5))


def test_term_validation():
    with pytest.raises(ValueError, match="start with 'edges'"):
        ergm_stats(triangle(), ("two_stars", "edges"))
    with pytest.raises(ValueError, match="unknown term"):
        ergm_stats(triangle(), ("edges", "stars"))
    with pytest.raises(ValueError, match="duplicate"):
        ergm_stats(triangle(), ("edges", "edges"))
    with pytest.raises(ValueError, match="length"):
        ErgmModel(("edges",), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="finite"):
        ErgmModel(("edges",), np.array([np.inf]))


def test_mple_edges_only_is_logit_density(rng):
    g = random_graph(20, 0.3, rng)
    fit = ergm_mple(g, ("edges",))
    density = g.edge_count / (20 * 19 / 2)
    assert fit.theta[0] == pytest.approx(logit(density), abs=1e-6)
    assert fit.standard_errors[0] > 0


def test_mple_matches_independent_optimizer(rng):
    g = random_graph(12, 0.35, rng)
    fit = ergm_mple(g)
    iu, ju = np.triu_indices(12, 1)
    adj = g.adjacency()
    X = np.vstack([ergm_change_stats(g, (int(a), int(b))) for a, b in zip(iu, ju)])
    y = adj[iu, ju].astype(float)

    def nll(theta):
        eta = X @ theta
        return -np.sum(y * eta - np.logaddexp(0.0, eta))

    ref = minimize(nll, np.zeros(3), method="BFGS", options={"gtol": 1e-10})
    assert np.allclose(fit.theta, ref.x, atol=1e-4)
    assert fit.pseudo_loglik == pytest.approx(-ref.fun, abs=1e-6)
    assert fit.model().terms == ("edges", "two_stars", "triangles")


def test_mple_degenerate_graphs():
    with pytest.raises(ValueError, match="empty or complete"):
        ergm_mple(BinaryNetwork(5, []))
    with pytest.raises(ValueError, match="empty or complete"):
        ergm_mple(complete_graph(5))


def test_mple_separation_detected():
    # in a perfect matching, presence is exactly predicted by the two-star
    # change (0 for matched pairs, positive otherwise)
    g = BinaryNetwork(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="separation|separable"):
        ergm_mple(g, ("edges", "two_stars"))


def test_simulate_bernoulli_density():
    # with only the edge term the model is G(n, expit(theta))
    for theta, tol in ((0.0, 0.05), (-2.0, 0.04)):
        model = ErgmModel(("edges",), np.array([theta]))
        nets = ergm_simulate(model, n=12, count=40, seed=1)
        dens = np.mean([g.edge_count / 66.0 for g in nets])
        assert dens == pytest.approx(expit(theta), abs=tol)


def test_simulate_deterministic():
    model = ErgmModel(("edges",), np.array([-0.5]))
    a = ergm_simulate(model, n=10, count=3, seed=4)
    b = ergm_simulate(model, n=10, count=3, seed=4)
    assert [g.edges for g in a] == [g.edges for g in b]
    c = ergm_simulate(model, n=10, count=3, seed=5)
    assert [g.edges for g in a] != [g.edges for g in c]


def test_simulate_degeneracy_warning():
    model = ErgmModel(("edges",), np.array([-6.0]))
    with pytest.warns(RuntimeWarning, match="degenerate"):
        nets = ergm_simulate(model, n=8, count=1, seed=0)
    assert nets[0].meta["pinned_burn_in"] > 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nets = ergm_simulate(ErgmModel(("edges",), np.array([0.0])), n=8, count=2, seed=0)
    assert [g.meta["pinned_burn_in"] for g in nets] == [0.0, 0.0]


def test_simulate_guards():
    model = ErgmModel(("edges",), np.array([0.0]))
    with pytest.raises(ValueError, match="n >= 2"):
        ergm_simulate(model, n=1)
    with pytest.raises(ValueError, match="count"):
        ergm_simulate(model, n=5, count=0)
    with pytest.raises(ValueError, match="wrong node count"):
        ergm_simulate(model, n=5, start=complete_graph(4))


def test_representative_network(rng):
    group = [random_graph(15, 0.3, rng) for _ in range(6)]
    rep = representative_network(group, terms=("edges",), ensemble=20, seed=2)
    target = np.mean([g.edge_count for g in group])
    assert abs(rep.edge_count - target) < 20
    assert rep.meta["terms"] == ["edges"]
    assert rep.meta["ensemble"] == 20
    assert rep.meta["excluded_subjects"] == []
    assert rep.meta["target_stats"] == [pytest.approx(target)]
    assert rep.meta["achieved_stats"] == [float(rep.edge_count)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = representative_network(group, terms=("edges",), ensemble=20, seed=2)
    assert again.edges == rep.edges


def test_representative_network_excludes_failures(rng):
    group = [random_graph(10, 0.4, rng) for _ in range(4)] + [BinaryNetwork(10, [])]
    with pytest.warns(RuntimeWarning, match="excluded"):
        rep = representative_network(group, terms=("edges",), ensemble=10, seed=3)
    assert rep.meta["excluded_subjects"] == [4]
    with pytest.raises(ValueError, match="empty group"):
        representative_network([])


def test_representative_network_records_pinned_fraction():
    group = [BinaryNetwork(8, [(0, 1)]), BinaryNetwork(8, [(2, 3)]), BinaryNetwork(8, [(0, 5), (6, 7)])]
    rep = representative_network(group, terms=("edges",), ensemble=5, seed=2)
    model = ErgmModel(("edges",), np.array(rep.meta["theta"]))
    direct = ergm_simulate(model, 8, count=5, seed=2)
    assert rep.meta["pinned_burn_in"] == direct[0].meta["pinned_burn_in"] > 0


def test_representative_network_warns_on_an_all_complete_ensemble(monkeypatch):
    # at this theta the seed-2 chain reaches the complete graph late in burn-in,
    # under the burn-in warning line, and stays there
    terms = ("edges", "triangles")
    fit = ergm.ErgmFit(terms, np.array([-1.94, 2.15]), np.ones(2), 0.0, 1, 8)
    monkeypatch.setattr(ergm, "ergm_mple", lambda g, terms: fit)
    group = [BinaryNetwork(8, [(0, 1), (1, 2), (0, 2)])] * 2
    with pytest.warns(RuntimeWarning, match="all ensemble samples are empty or complete") as seen:
        rep = representative_network(group, terms=terms, ensemble=5, seed=2)
    assert len(seen) == 1
    assert rep.edge_count == 28 and rep.meta["pinned_burn_in"] < 0.5
    assert set(rep.meta) == {
        "model", "pinned_burn_in", "theta", "terms", "target_stats", "achieved_stats",
        "ensemble", "excluded_subjects",
    }


def test_dyad_design_matches_change_stats_on_every_dyad(rng):
    for n, p in ((2, 1.0), (7, 0.3), (12, 0.5), (15, 0.8)):
        g = random_graph(n, p, rng)
        adj = g.adjacency()
        dyads = list(itertools.combinations(range(n), 2))
        for terms in (("edges",), ("edges", "two_stars"), ("edges", "triangles"), TERM_NAMES):
            X, y = ergm._dyad_design(g, terms)
            assert X.shape == (len(dyads), len(terms)) and X.dtype == np.float64
            for dyad, row, present in zip(dyads, X, y):
                assert row.tolist() == ergm_change_stats(g, dyad, terms).tolist()
                assert present == adj[dyad]
        weighted = WeightedNetwork(n, [(i, j, 0.5) for i, j in g.edges])
        X, y = ergm._dyad_design(g, TERM_NAMES)
        X_w, y_w = ergm._dyad_design(weighted, TERM_NAMES)
        assert np.array_equal(X_w, X) and np.array_equal(y_w, y)
        for dyad, row in zip(dyads, X):
            without = BinaryNetwork(n, [e for e in g.edges if e != dyad])
            with_e = BinaryNetwork(n, list(without.edges) + [dyad])
            assert row.tolist() == (ergm_stats(with_e) - ergm_stats(without)).tolist()


# --- the Metropolis sampler against the exact law on 5 nodes -------------------

N5_DYADS = list(itertools.combinations(range(5), 2))


def _stats5(edges):
    """(edges, two_stars, triangles) of a graph on 5 nodes, counted directly."""
    nbrs = [set() for _ in range(5)]
    for i, j in edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    two_stars = sum(len(s) * (len(s) - 1) // 2 for s in nbrs)
    triangles = sum(
        b in nbrs[a] and c in nbrs[a] and c in nbrs[b]
        for a, b, c in itertools.combinations(range(5), 3)
    )
    return (len(edges), two_stars, triangles)


# the statistics of all 1,024 graphs on 5 nodes, graph k holding dyad b when bit b of k is set
N5_STATS = np.array(
    [_stats5([d for b, d in enumerate(N5_DYADS) if k >> b & 1]) for k in range(1 << len(N5_DYADS))],
    dtype=float,
)


def _exact_law(terms, theta):
    """P(g) proportional to exp(theta . stats(g)) over the 1,024 graphs."""
    columns = [TERM_NAMES.index(t) for t in terms]
    log_w = N5_STATS[:, columns] @ np.asarray(theta)
    w = np.exp(log_w - log_w.max())
    return w / w.sum()



@pytest.mark.parametrize(
    "terms, theta",
    [
        (("edges",), (-0.6,)),
        (TERM_NAMES, (0.4, -0.4, 0.9)),  # negative two-star, positive triangle weight
        (TERM_NAMES, (-1.0, 0.3, -0.6)),  # mixed
    ],
    ids=["edges_only", "negative_two_star", "mixed"],
)
def test_simulate_matches_exact_law_on_5_nodes(terms, theta):
    """4,000 samples 100 steps (10 proposals per dyad) apart. Mean statistics
    get z-tests with batch-means standard errors (20 batches), so residual
    autocorrelation widens the error instead of being ignored. Frequencies of
    the (edges, two_stars, triangles) classes get a chi-square test, with the
    classes of expected count under 5 pooled into one cell."""
    count, batches = 4000, 20
    p = _exact_law(terms, theta)
    nets = ergm_simulate(ErgmModel(terms, np.array(theta)), 5, count=count, burn_in=500, thin=100, seed=7)
    sampled = np.array([_stats5(g.edges) for g in nets], dtype=float)
    batch_means = sampled.reshape(batches, -1, 3).mean(axis=1)
    se = batch_means.std(axis=0, ddof=1) / np.sqrt(batches)
    z = (sampled.mean(axis=0) - p @ N5_STATS) / se
    assert np.all(np.abs(z) < 4), z

    classes = sorted(set(map(tuple, N5_STATS.tolist())))
    index = {c: k for k, c in enumerate(classes)}
    expected = np.bincount([index[tuple(s)] for s in N5_STATS.tolist()], weights=p) * count
    observed = np.bincount([index[tuple(s)] for s in sampled.tolist()], minlength=len(classes))
    small = expected < 5
    expected = np.append(expected[~small], expected[small].sum())
    observed = np.append(observed[~small], observed[small].sum())
    assert chisquare(observed, expected).pvalue > 1e-3


def test_one_step_matches_metropolis_kernel():
    """From a fixed start, one step toggles dyad d with probability
    (1/10) min(1, exp(theta . (stats(start with d toggled) - stats(start))))
    and otherwise leaves the graph as it was."""
    theta = np.array([-0.3, -0.2, 0.8])
    model = ErgmModel(TERM_NAMES, theta)
    start_edges = {(0, 1), (0, 2), (1, 2), (2, 3)}
    start = BinaryNetwork(5, sorted(start_edges))
    base = np.array(_stats5(start_edges))
    probs = [
        min(1.0, float(np.exp(theta @ (np.array(_stats5(start_edges ^ {d})) - base)))) / len(N5_DYADS)
        for d in N5_DYADS
    ]
    probs.append(1.0 - sum(probs))
    seeds = 4000
    counts = np.zeros(len(probs))
    for seed in range(seeds):
        (g,) = ergm_simulate(model, 5, burn_in=0, thin=1, seed=seed, start=start)
        toggled = set(g.edges) ^ start_edges
        assert len(toggled) <= 1
        counts[N5_DYADS.index(toggled.pop()) if toggled else -1] += 1
    expected = np.array(probs) * seeds
    assert expected.min() > 5
    assert chisquare(counts, expected).pvalue > 1e-3


def _reference_chain(model, n, count, burn_in, thin, seed, start, block):
    """Textbook Metropolis on a dense bool matrix, consuming the same draws as
    ergm_simulate: per block of up to `block` steps, one rng call each for i,
    j (shifted past i) and u. Returns the sampled edge lists and the fraction
    of burn-in steps that ended at an empty or complete graph."""
    rng = rng_for(seed, "ergm_sim")
    total = burn_in + count * thin
    draws = []
    while len(draws) < total:
        size = min(block, total - len(draws))
        i = rng.integers(n, size=size)
        j = rng.integers(n - 1, size=size)
        draws += zip(i, np.where(j >= i, j + 1, j), rng.random(size))
    theta = dict(zip(model.terms, model.theta))
    adj = np.zeros((n, n), dtype=bool) if start is None else start.adjacency().astype(bool)
    pinned, samples = 0, []
    for step, (i, j, u) in enumerate(draws, 1):
        present = adj[i, j]
        adj[i, j] = adj[j, i] = False
        k = adj.sum(axis=0)
        delta = {"edges": 1.0, "two_stars": k[i] + k[j], "triangles": np.sum(adj[i] & adj[j])}
        x = sum(theta[t] * delta[t] for t in model.terms)
        accept = 1.0 - u <= np.exp(min(-x if present else x, 0.0))
        adj[i, j] = adj[j, i] = present != accept
        m = adj.sum() // 2
        if step <= burn_in:
            pinned += m == 0 or m == n * (n - 1) // 2
        elif (step - burn_in) % thin == 0:
            samples.append([tuple(e) for e in np.argwhere(np.triu(adj, 1)).tolist()])
    return samples, pinned / burn_in if burn_in else 0.0


@pytest.mark.parametrize(
    "terms, theta, n, start, burn_in, thin, count, block",
    [
        (("edges",), (-0.3,), 6, None, 37, 11, 9, 7),
        (("edges",), (0.2,), 2, None, 5, 3, 4, 3),
        (("edges",), (-6.0,), 4, None, 60, 5, 3, 16),  # degenerate: mostly pinned
        (TERM_NAMES, (-1.2, -0.1, 0.9), 9, "random", 100, 29, 6, 13),
        (("edges", "triangles"), (0.5, -0.7), 7, "complete", 20, 17, 5, 64),
        (("edges", "two_stars"), (1.0, -0.4), 10, "random", 0, 50, 4, 33),
        (TERM_NAMES, (-1.0, 0.05, 0.3), 8, None, None, None, 60, None),  # defaults: 4,480 steps
    ],
    ids=["edges", "n2", "degenerate", "all_terms", "complete_start", "no_burn_in", "default_block"],
)
def test_simulate_matches_dense_reference_across_blocks(
    monkeypatch, terms, theta, n, start, burn_in, thin, count, block
):
    if block is not None:
        monkeypatch.setattr(ergm, "_STEP_BLOCK", block)
    start = {"random": random_graph(n, 0.4, np.random.default_rng(n)), "complete": complete_graph(n)}.get(start)
    model = ErgmModel(terms, np.array(theta))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        nets = ergm_simulate(model, n, count=count, burn_in=burn_in, thin=thin, seed=3, start=start)
    steps_burn = 10 * n * n if burn_in is None else burn_in
    steps_thin = n * n if thin is None else thin
    ref, pinned = _reference_chain(
        model, n, count, steps_burn, steps_thin, 3, start, ergm._STEP_BLOCK
    )
    assert steps_burn + count * steps_thin > ergm._STEP_BLOCK
    assert [g.edges for g in nets] == ref
    assert [g.meta["pinned_burn_in"] for g in nets] == [pinned] * count
