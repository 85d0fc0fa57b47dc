"""Tracing wraps fcnets from outside, restores it, and attributes time by layer."""

import bench_paths  # noqa: F401
import pytest

import fcnets
import tracing
import workloads
from fcnets import communities, metrics, networks, nullmodels
from tracing import Tracer


def test_install_wraps_every_binding_and_uninstall_restores():
    originals = (metrics.edge_betweenness, communities.edge_betweenness, fcnets.edge_betweenness)
    tracer = Tracer()
    tracer.install()
    try:
        assert metrics.edge_betweenness is communities.edge_betweenness is fcnets.edge_betweenness
        assert metrics.edge_betweenness is not originals[0]
        g = networks.BinaryNetwork(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
        communities.girvan_newman(g)
    finally:
        tracer.uninstall()
    assert (metrics.edge_betweenness, communities.edge_betweenness, fcnets.edge_betweenness) == originals
    layers = tracer.layer_metrics(passes=1)
    assert layers["metrics.edge_betweenness_calls"] == 7  # one per removed edge
    assert layers["networks.built"] >= 8  # the input, a working copy, one per removal
    assert tracer.missing == set()


def test_rate_metrics_use_call_arguments():
    g = networks.BinaryNetwork(8, [(i, (i + 1) % 8) for i in range(8)] + [(0, 4), (2, 6)])
    tracer = Tracer()
    tracer.install()
    try:
        nullmodels.rewire_preserving_degree(g, swaps_per_edge=3, seed=1)
    finally:
        tracer.uninstall()
    assert tracer.work[("nullmodels", "rewire_preserving_degree")] == 3 * g.edge_count
    assert tracer.layer_metrics(1)["nullmodels.swaps_per_s"] > 0


def test_missing_name_is_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(metrics, "local_efficiency")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert "metrics.local_efficiency" in tracer.missing
    assert tracer.layer_metrics(1)["metrics.local_efficiency_s"] == 0


def test_layer_and_self_time():
    tracer = Tracer()
    # module, function, start, end, parent
    tracer.spans[:] = [
        ["nullmodels", "small_world", 0.0, 10.0, -1],
        ["nullmodels", "rewire_preserving_degree", 1.0, 5.0, 0],
        ["metrics", "path_length", 6.0, 9.0, 0],
        ["metrics", "distance_matrix", 6.5, 8.5, 2],
        ["communities", "girvan_newman", 20.0, 30.0, -1],
        ["metrics", "edge_betweenness", 21.0, 24.0, 4],
        ["communities", "modularity", 25.0, 26.0, 4],
        ["cli", "main", 40.0, 50.0, -1],
        ["pipeline", "load_config", 41.0, 43.0, 7],
        ["pipeline", "validate_config", 41.5, 42.5, 8],
        ["runtime", "to_json", 42.0, 42.2, 9],
    ]
    layers = tracer.layer_metrics(passes=2)
    assert layers["nullmodels.small_world_self_s"] == pytest.approx((10 - 4 - 3) / 2)
    assert layers["nullmodels.rewire_s"] == pytest.approx(4 / 2)
    assert layers["metrics.path_length_s"] == pytest.approx(3 / 2)  # same-module call included
    assert layers["metrics.distance_matrix_calls"] == pytest.approx(1 / 2)
    assert layers["communities.girvan_newman_self_s"] == pytest.approx((10 - 3 - 1) / 2)
    assert layers["metrics.edge_betweenness_s"] == pytest.approx(3 / 2)
    assert layers["pipeline.load_config_s"] == pytest.approx((2 - 0.2) / 2)
    assert layers["pipeline.self_s"] == pytest.approx((2 - 0.2) / 2)
    assert layers["cli.self_s"] == pytest.approx((10 - 2) / 2)
    assert layers["runtime.to_json_s"] == pytest.approx(0.2 / 2)


def test_metric_names_cover_every_layer_metric():
    names = tracing.metric_names()
    layers = Tracer().layer_metrics(passes=1)
    assert set(names) == set(layers)


def test_ops_count_failures_and_skip_dependents():
    ops = workloads.Ops()

    def boom(x):
        raise ValueError("no")

    first = ops(boom, 1)
    second = ops(lambda xs: xs, [first, 2])
    assert ops(lambda: 3) == 3
    assert first is workloads.FAILED and second is workloads.FAILED
    assert (ops.attempted, ops.failed) == (3, 2)
