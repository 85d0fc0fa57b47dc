"""BENCHMARK.json names exactly the metrics and workloads the benchmark reports."""

import json
import os
import re

import bench_paths
import run
import tracing

with open(os.path.join(os.path.dirname(bench_paths.BENCH), "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_top_level_keys_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 15) < 3420  # 15 s covers set-up probes and checks


def test_workloads_match_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]


def test_metric_entries():
    names = []
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert set(bounds) == {"wall_s", "setup_s", "peak_rss_mb"}


def test_per_layer_names_are_what_the_traced_run_reports():
    reported = dict(tracing.metric_names())
    reported.update({"trace.wall_s": "s", "trace.overhead_s": "s", "trace.missing": "count"})
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == reported
    rates = {m["name"] for m in SPEC["per_layer"] if m["better"] == "higher"}
    assert rates == {name for name, unit in reported.items() if unit == "1/s"}
