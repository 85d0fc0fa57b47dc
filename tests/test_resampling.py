"""Block bootstrap mechanics and metric uncertainty accounting."""

import numpy as np
import pytest
from scipy import stats

from fcnets import estimators, resampling, thresholding
from fcnets.metrics import metric_value
from fcnets.resampling import block_bootstrap, metric_error


def one_replicate(x, **kw):
    [(b, res)] = list(block_bootstrap(x, replicates=1, **kw))
    assert b == 0
    return res


def test_block_starts_shared_across_nodes():
    x = np.vstack([np.arange(25.0), 100 + np.arange(25.0), 1000 + np.arange(25.0)])
    res = one_replicate(x, seed=3)
    assert res.shape == x.shape
    assert np.array_equal(res[1] - 100, res[0])
    assert np.array_equal(res[2] - 1000, res[0])
    assert set(res[0]) <= set(np.arange(25.0))


def test_blocks_are_contiguous_with_wraparound():
    t, L = 20, 5
    x = np.arange(float(t))[None, :]
    res = one_replicate(x, block_length=L, seed=11)[0]
    for j in range(t - 1):
        if j % L != L - 1:
            assert res[j + 1] == (res[j] + 1) % t


def test_full_length_block_is_a_rotation():
    t = 25
    x = np.arange(float(t))[None, :]
    res = one_replicate(x, block_length=t, seed=2)[0]
    assert any(np.array_equal(res, np.roll(np.arange(float(t)), -k)) for k in range(t))


def test_block_bootstrap_determinism_and_order():
    x = np.arange(30.0).reshape(2, 15)
    full = [r for _, r in block_bootstrap(x, replicates=3, seed=9)]
    again = list(block_bootstrap(x, replicates=3, seed=9))
    assert [b for b, _ in again] == [0, 1, 2]
    for r, (_, r2) in zip(full, again):
        assert np.array_equal(r, r2)
    other = one_replicate(x, seed=10)
    assert not np.array_equal(full[0], other)
    # each replicate is seeded independently of how many came before
    assert np.array_equal(full[1], list(block_bootstrap(x, replicates=2, seed=9))[1][1])


def test_block_bootstrap_guards():
    x = np.zeros((2, 12))
    with pytest.raises(ValueError, match=">= 2"):
        list(block_bootstrap(x, block_length=1))
    with pytest.raises(ValueError, match="exceeds"):
        list(block_bootstrap(x, block_length=13))
    with pytest.raises(ValueError, match="2-d"):
        list(block_bootstrap(np.zeros(12)))


def ar_panel(rng, nodes=8, t=120):
    shared = rng.standard_normal(t)
    x = 0.6 * shared + 0.8 * rng.standard_normal((nodes, t))
    for j in range(1, t):
        x[:, j] = 0.3 * x[:, j - 1] + x[:, j]
    return x


def test_metric_error_accounting(rng):
    x = ar_panel(rng)
    spec = {"method": "fixed_threshold", "criterion": "value", "tau": 0.15}
    out = metric_error(
        x, "density", threshold_spec=spec, replicates=40, block_length=10, seed=5
    )
    cm = estimators.estimate(x, "correlation")
    g = thresholding.apply_spec(cm, spec)
    assert out.point == pytest.approx(metric_value(g, "density"))
    assert out.requested == 40 and out.failed == 0
    assert out.replicates.shape == (40,)
    assert out.bias == pytest.approx(out.replicates.mean() - out.point)
    assert out.standard_error == pytest.approx(np.std(out.replicates, ddof=1))
    lo, hi = np.percentile(out.replicates, [2.5, 97.5])
    assert out.ci_percentile == (pytest.approx(lo), pytest.approx(hi))
    z = stats.norm.ppf(0.975)
    assert out.ci_normal[0] == pytest.approx(out.point - z * out.standard_error)
    assert out.ci_normal[1] == pytest.approx(out.point + z * out.standard_error)
    assert out.block_length == 10 and out.metric == "density"


def test_metric_error_default_block_length(rng):
    x = ar_panel(rng, nodes=4, t=36)
    out = metric_error(x, "mean_degree", replicates=10, seed=1)
    assert out.block_length == 6  # ceil(sqrt(36))
    assert np.isfinite(out.standard_error)


def test_metric_error_determinism(rng):
    x = ar_panel(rng, nodes=5, t=60)
    spec = {"method": "fixed_threshold", "criterion": "value", "tau": 0.1}
    a = metric_error(x, "clustering_transitivity", threshold_spec=spec, replicates=15, seed=4)
    b = metric_error(x, "clustering_transitivity", threshold_spec=spec, replicates=15, seed=4)
    assert np.array_equal(a.replicates, b.replicates)
    assert a.ci_percentile == b.ci_percentile


def borderline_panel():
    # two coupled nodes whose correlation sits just above the cut, so many
    # resamples fall below it and leave the graph edgeless
    rng = np.random.default_rng(7)
    t = 16
    s = rng.standard_normal(t)
    x = np.vstack(
        [
            0.6 * s + 0.8 * rng.standard_normal(t),
            0.6 * s + 0.8 * rng.standard_normal(t),
            rng.standard_normal(t),
        ]
    )
    r = np.corrcoef(x)[0, 1]
    spec = {"method": "fixed_threshold", "criterion": "value", "tau": float(r) - 0.02}
    return x, spec


def test_metric_error_aborts_on_many_failures():
    x, spec = borderline_panel()
    with pytest.raises(RuntimeError, match="failed"):
        metric_error(
            x, "path_length", threshold_spec=spec, replicates=30, block_length=4, seed=0
        )


def test_metric_error_counts_tolerated_failures():
    x, spec = borderline_panel()
    out = metric_error(
        x,
        "path_length",
        threshold_spec=spec,
        replicates=30,
        block_length=4,
        seed=0,
        max_failure_fraction=1.0,
    )
    assert out.failed > 3
    assert out.replicates.size == 30 - out.failed
    assert np.isfinite(out.point)


def test_metric_error_replicate_floor(rng):
    x = ar_panel(rng, nodes=3, t=25)
    with pytest.raises(ValueError, match="at least 10"):
        metric_error(x, "density", replicates=9)


@pytest.mark.parametrize("level", [1.5, 1.0, 0.0, -0.2, float("nan")])
def test_metric_error_rejects_a_level_outside_0_1_before_any_replicate(rng, monkeypatch, level):
    def refuse(*args, **kwargs):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(resampling, "block_bootstrap", refuse)
    monkeypatch.setattr(estimators, "estimate", refuse)
    with pytest.raises(ValueError, match=r"level must be in \(0, 1\)"):
        metric_error(ar_panel(rng, nodes=4, t=40), "density", replicates=10, level=level)


@pytest.mark.parametrize(
    "block_length, message",
    [(1, "block_length must be >= 2, got 1"), (41, "block_length 41 exceeds series length 40")],
)
def test_metric_error_checks_the_block_length_before_the_point_estimate(
    rng, monkeypatch, block_length, message
):
    calls = []
    estimate = estimators.estimate
    monkeypatch.setattr(estimators, "estimate", lambda *a, **k: calls.append(a) or estimate(*a, **k))
    with pytest.raises(ValueError, match=f"^{message}$"):
        metric_error(ar_panel(rng, nodes=4, t=40), "density", replicates=10, block_length=block_length)
    assert calls == []


def reference_metric_error(x, spec, replicates, block_length, seed):
    """(point, replicates, failed): one replicate at a time through the public
    estimate -> apply_spec -> metric_value chain."""

    def pipeline(data):
        g = thresholding.apply_spec(estimators.estimate(data, "correlation"), spec)
        return metric_value(g, "global_efficiency")

    values, failed = [], 0
    for _, resampled in block_bootstrap(x, block_length, replicates, seed):
        try:
            values.append(pipeline(resampled))
        except (ValueError, RuntimeError):
            failed += 1
    return pipeline(x), np.array(values), failed


def spiky_panel(rng, nodes=12, t=60):
    # node 0 is 0 except at one sample, so every resample whose blocks miss
    # that sample gives it zero variance and fails
    x = ar_panel(rng, nodes, t)
    x[0] = 0.0
    x[0, 5] = 1.0
    return x


@pytest.mark.parametrize(
    "spec",
    [
        {"method": "fixed_degree", "k_target": 4},
        {"method": "fixed_density", "density": 0.3, "negatives": "absolute"},
    ],
    ids=["fixed_degree", "fixed_density"],
)
@pytest.mark.parametrize(
    "panel, replicates",
    [("ar", 10), ("ar", 13), ("ar", 200), ("integers", 13), ("integers", 200), ("spiky", 200)],
)
def test_stacked_metric_error_equals_the_replicate_loop(monkeypatch, spec, panel, replicates):
    rng = np.random.default_rng(replicates)
    if panel == "integers":  # few distinct values: correlations tie at the cut
        x = rng.integers(0, 3, (16, 40)).astype(float)
        x[1] = x[2]
    elif panel == "spiky":
        x = spiky_panel(rng)
    else:
        x = ar_panel(rng, nodes=20, t=90)
    block_length = 5
    point, values, failed = reference_metric_error(x, spec, replicates, block_length, seed=3)
    calls = []
    estimate = estimators.estimate
    monkeypatch.setattr(estimators, "estimate", lambda *a: calls.append(1) or estimate(*a))
    out = metric_error(
        x, "global_efficiency", threshold_spec=spec, replicates=replicates,
        block_length=block_length, seed=3, max_failure_fraction=1.0,
    )
    assert len(calls) == 1  # the point alone: the replicates ran stacked
    assert out.point == point and out.failed == failed
    assert out.replicates.tobytes() == values.tobytes()
    if panel == "spiky":
        assert 0 < failed < replicates
