"""End-to-end command-line checks against the bundled sample data."""

import gc
import json
import os
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import fcnets
from conftest import cycle_graph, path_graph
from fcnets import groupcompare, metrics
from fcnets.cli import _TABLE_FLAGS, main
from fcnets.estimators import load_connection_matrix
from fcnets.networks import BinaryNetwork
from fcnets.pipeline import _CONFIG_PARAMS, ANALYSIS_PARAMS, _analysis_metrics, validate_config
from fcnets.runtime import to_json

DATA = Path(fcnets.__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_leaves_scipy_stats_unloaded():
    # fcnets takes its t and normal functions from scipy.special; loading all
    # of scipy.stats would add about half a second to every command
    code = "import sys, fcnets, fcnets.cli; print([m for m in sys.modules if m.startswith('scipy.stats')])"
    env = {**os.environ, "PYTHONPATH": str(Path(fcnets.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_metrics_on_bundled_path_graph(capsys):
    code, out, _ = run_cli(
        capsys,
        "metrics", "--in", DATA / "p3.tsv",
        "--metrics", "global_efficiency", "path_length",
    )
    assert code == 0
    report = json.loads(out)
    assert report["global_efficiency"] == pytest.approx(5 / 6)
    assert report["path_length"] == pytest.approx(4 / 3)


def test_estimate_threshold_metrics_round_trip(tmp_path, capsys):
    cm_path = tmp_path / "cm.csv"
    code, _, _ = run_cli(
        capsys,
        "estimate", "--in", DATA / "subject_0.csv", "--out", cm_path,
    )
    assert code == 0 and cm_path.exists() and (tmp_path / "cm.csv.json").exists()

    net_path = tmp_path / "net.tsv"
    code, _, _ = run_cli(
        capsys,
        "threshold", "--in", cm_path,
        "--spec", '{"method": "fixed_degree", "k_target": 3}', "--out", net_path,
    )
    assert code == 0 and net_path.exists()

    code, out, _ = run_cli(capsys, "metrics", "--in", net_path, "--metrics", "density")
    assert code == 0
    # 8 nodes at mean degree 3 keeps 12 of 28 dyads
    assert json.loads(out)["density"] == pytest.approx(12 / 28)


def test_estimate_coherence_band_flag(capsys, tmp_path):
    out_path = tmp_path / "coh.csv"
    code, _, _ = run_cli(
        capsys,
        "estimate", "--in", DATA / "subject_0.csv",
        "--measure", "coherence", "--band", "0.05,0.2",
        "--params", '{"sampling_interval": 2.0}',
        "--out", out_path,
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "coh.csv.json").read_text())
    assert sidecar["measure"] == "coherence"
    vals = np.loadtxt(out_path, delimiter=",")
    assert vals.shape == (8, 8) and np.all(np.diag(vals) == 0)


@pytest.mark.parametrize("interval", [0, -2.0, float("nan"), "2"])
def test_estimate_coherence_rejects_a_bad_sampling_interval(capsys, tmp_path, interval):
    code, out, err = run_cli(
        capsys,
        "estimate", "--in", DATA / "subject_0.csv",
        "--measure", "coherence", "--band", "0.05,0.2",
        "--params", json.dumps({"sampling_interval": interval}),
        "--out", tmp_path / "coh.csv",
    )
    assert code == 1 and out == ""
    report = json.loads(err)
    assert report["error"] == "ValueError"
    assert "sampling interval must be a finite number > 0" in report["message"]


@pytest.mark.parametrize(
    "patch",
    [{"bandpass": [0.05, 0.2]}, {"estimator": {"name": "coherence", "params": {"band": [0.05, 0.2]}}}],
    ids=["bandpass", "coherence"],
)
def test_pipeline_rejects_a_zero_sampling_interval(tmp_path, capsys, patch):
    manifest = json.loads((DATA / "manifest.json").read_text())
    manifest["subject_files"] = [str(DATA / f) for f in manifest["subject_files"]]
    manifest["sampling_interval"] = 0
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    cfg = {**json.loads((DATA / "config.json").read_text()), **patch}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "pipeline", "--config", path, "--out", tmp_path / "run")
    assert code == 1 and out == ""
    assert "sampling interval must be a finite number > 0, got 0.0" in json.loads(err)["message"]


def test_invalid_config_exits_2_with_problem_list(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "manifest": "missing.json",
        "estimator": "wavelet",
        "analyses": [],
    }))
    code, out, err = run_cli(capsys, "pipeline", "--config", cfg)
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "validation"
    text = " ".join(report["problems"])
    assert "manifest" in text and "wavelet" in text and "analyses" in text
    assert "output directory" in text
    assert len(report["problems"]) == 4


@pytest.mark.parametrize("manifest", [[1, 2], {"subject_files": 5}])
def test_malformed_manifest_exits_2(tmp_path, capsys, manifest):
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    cfg = json.loads((DATA / "config.json").read_text())
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "pipeline", "--config", path, "--out", tmp_path / "run")
    assert code == 2 and out == ""
    assert any("manifest unreadable" in p for p in json.loads(err)["problems"])


def test_computational_failure_exits_1(capsys):
    code, out, err = run_cli(
        capsys,
        "threshold", "--in", DATA / "group_a_0.csv",
        "--spec", '{"method": "fixed_degree", "k_target": 50}',
    )
    assert code == 1 and out == ""
    report = json.loads(err)
    assert report["error"] == "ValueError"
    assert report["message"]


@pytest.mark.parametrize(
    "header, argv, needle",
    [
        ('{"n": 0}', ["smallworld", "--null-count", "2"], "no nodes"),
        ("[3]", ["metrics"], "JSON object"),
        ("[3]", ["smallworld"], "JSON object"),
        ("[3]", ["community"], "JSON object"),
        ("[3]", ["ergm"], "JSON object"),
        ('"n"', ["metrics"], "JSON object"),
        ('{"m": 3}', ["metrics"], "JSON object"),
        ('{"n": null}', ["metrics"], "nonnegative integer n"),
        ('{"n": -1}', ["metrics"], "nonnegative integer n"),
        ('{"n": 2.5}', ["community"], "nonnegative integer n"),
    ],
)
def test_malformed_network_exits_1(tmp_path, capsys, header, argv, needle):
    path = tmp_path / "net.tsv"
    path.write_text(f"# {header}\n")
    code, out, err = run_cli(capsys, argv[0], "--in", path, *argv[1:])
    assert code == 1 and out == ""
    report = json.loads(err)
    assert report["error"] == "ValueError"
    assert needle in report["message"]


@pytest.mark.parametrize("swaps", ["0", "-3"])
def test_smallworld_rejects_fewer_than_one_swap_per_edge(tmp_path, capsys, swaps):
    # below one swap per edge every null would be the input graph itself
    path = tmp_path / "ring.tsv"
    cycle_graph(12).save(path)
    code, out, err = run_cli(
        capsys, "smallworld", "--in", path, "--null-count", "2", "--swaps-per-edge", swaps
    )
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report == {
        "error": "validation",
        "problems": [f"smallworld: swaps_per_edge must be >= 1, got {swaps}"],
    }


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc_info:
        main(["threshold"])
    assert exc_info.value.code == 2


@pytest.mark.parametrize("command", ["estimate", "threshold", *_TABLE_FLAGS, "pipeline"])
def test_every_subcommand_prints_its_help(capsys, command):
    with pytest.raises(SystemExit) as exc_info:
        main([command, "--help"])
    assert exc_info.value.code == 0
    assert f"usage: fcnets {command}" in capsys.readouterr().out


def test_a_flag_prefix_is_not_read_as_a_longer_flag(capsys):
    # abbreviations would let a renamed flag, --metric, silently mean --metrics
    with pytest.raises(SystemExit) as exc_info:
        main(["metrics", "--in", str(DATA / "p3.tsv"), "--metric", "density"])
    assert exc_info.value.code == 2
    assert "unrecognized arguments: --metric density" in capsys.readouterr().err


# argv that reaches each analysis subcommand's table check, which runs before
# any input file is read
FLAG_ARGV = {
    "metrics": ["--in", "unread.tsv"],
    "smallworld": ["--in", "unread.tsv"],
    "community": ["--in", "unread.tsv"],
    "compare": ["--group-a", "a.csv", "--group-b", "b.csv", "--t-threshold", "2"],
    "ergm": ["--in", "unread.tsv"],
    "twopart": ["--matrices", "unread.csv"],
    "bootstrap": ["--in", "unread.csv", "--metric", "density"],
}


def out_of_range_flags():
    """(subcommand, parameter, value) just outside each bound or choice list
    of every table flag; NaN too for each bounded number."""
    cases = []
    for command, names in _TABLE_FLAGS.items():
        table = {**_CONFIG_PARAMS, **ANALYSIS_PARAMS[command]}
        for name in names:
            param = table[name]
            number = param.kind == "number"
            if param.choices:
                cases.append((command, name, "bogus"))
            if param.low is not None:
                cases.append((command, name, str(param.low if number else param.low - 1)))
            if param.high is not None:
                cases.append((command, name, str(param.high if number else param.high + 1)))
            if number and (param.low, param.high) != (None, None):
                cases.append((command, name, "nan"))
    return cases


@pytest.mark.parametrize("command, name, value", out_of_range_flags())
def test_every_table_flag_rejects_a_value_outside_the_table(capsys, command, name, value):
    flag = "--" + name.replace("_", "-")
    argv = [command, *FLAG_ARGV[command], flag, value]
    if value == "bogus":  # argparse holds the choices
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        assert f"argument {flag}: invalid choice: 'bogus'" in capsys.readouterr().err
        return
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "validation"
    assert any(p.startswith(f"{command}: {name} must be") for p in report["problems"])


def test_metrics_defaults_to_the_table_metrics(capsys):
    code, out, _ = run_cli(capsys, "metrics", "--in", DATA / "p3.tsv")
    assert code == 0
    assert sorted(json.loads(out)) == sorted(ANALYSIS_PARAMS["metrics"]["metrics"].default)


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--in", DATA / "subject_0.csv"],
        ["twopart", "--matrices", DATA / "group_a_0.csv", DATA / "group_a_1.csv"],
        ["pipeline", "--config", DATA / "config.json"],
    ],
    ids=["estimate", "twopart", "pipeline"],
)
def test_seed_flag_is_a_usage_error_where_nothing_reads_a_seed(capsys, argv):
    # the pipeline's seed lives in its config; estimate and twopart draw nothing
    with pytest.raises(SystemExit) as exc_info:
        main([str(a) for a in argv] + ["--seed", "5"])
    assert exc_info.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


def test_community_with_cartography(capsys):
    code, out, _ = run_cli(
        capsys, "community", "--in", DATA / "p3.tsv", "--cartography",
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["assignment"]) == 3
    assert len(report["roles"]) == 3
    assert "q" in report


def test_compare_nbs_on_sample_groups(capsys):
    groups_a = [DATA / f"group_a_{i}.csv" for i in range(6)]
    groups_b = [DATA / f"group_b_{i}.csv" for i in range(6)]
    code, out, _ = run_cli(
        capsys,
        "compare", "--group-a", *groups_a, "--group-b", *groups_b,
        "--method", "nbs", "--t-threshold", "2.5", "--permutations", "200",
    )
    assert code == 0
    report = json.loads(out)
    assert report["permutations"] == 200
    assert len(report["null_max"]) == 200
    assert len(report["fwe_p"]) == len(report["clusters"])


@pytest.mark.parametrize(
    "flags, needle",
    [(["--method", m, "--t-threshold", t], "t_threshold") for m in ("nbs", "spc") for t in ("nan", "-1", "0")]
    + [(["--method", "spc", "--t-threshold", "2.5", "--radius", r], "radius") for r in ("-1", "0", "nan")],
)
def test_compare_rejects_a_threshold_or_radius_that_is_not_positive(capsys, flags, needle):
    # checked by the pipeline's bounds; NaN would write "t_threshold": NaN
    groups_a = [DATA / f"group_a_{i}.csv" for i in range(6)]
    groups_b = [DATA / f"group_b_{i}.csv" for i in range(6)]
    code, out, err = run_cli(
        capsys,
        "compare", "--group-a", *groups_a, "--group-b", *groups_b,
        "--coordinates", DATA / "coordinates.csv", *flags,
    )
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "validation"
    assert [p for p in report["problems"] if p.startswith(f"compare: {needle} must be > 0")]


@pytest.mark.parametrize("method", ["nbs", "spc"])
def test_compare_needs_a_t_threshold_as_a_config_does(capsys, method):
    groups = [DATA / f"group_{g}_{i}.csv" for g in "ab" for i in range(3)]
    code, out, err = run_cli(
        capsys,
        "compare", "--group-a", *groups[:3], "--group-b", *groups[3:],
        "--coordinates", DATA / "coordinates.csv", "--method", method,
    )
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "validation", "problems": [f"compare: {method} needs 't_threshold'"]}


def test_compare_edgewise_prints_the_edge_test_result(capsys):
    groups_a = [DATA / f"group_a_{i}.csv" for i in range(6)]
    groups_b = [DATA / f"group_b_{i}.csv" for i in range(6)]
    code, out, _ = run_cli(
        capsys, "compare", "--group-a", *groups_a, "--group-b", *groups_b, "--method", "edgewise"
    )
    assert code == 0
    expected = groupcompare.edgewise_compare(
        [load_connection_matrix(p) for p in groups_a], [load_connection_matrix(p) for p in groups_b]
    )
    assert out == to_json(expected)


def test_compare_edgewise_reports_tables(capsys):
    groups_a = [DATA / f"group_a_{i}.csv" for i in range(6)]
    groups_b = [DATA / f"group_b_{i}.csv" for i in range(6)]
    code, out, _ = run_cli(
        capsys,
        "compare", "--group-a", *groups_a, "--group-b", *groups_b,
        "--method", "edgewise", "--correction", "bh-fdr",
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["t"]) == 45  # 10-node matrices
    assert len(report["p"]) == 45 and len(report["q"]) == 45


def test_ergm_fit_and_simulate(capsys):
    code, out, _ = run_cli(
        capsys,
        "ergm", "--in", DATA / "p3.tsv", "--terms", "edges", "--simulate", "3",
    )
    assert code == 0
    report = json.loads(out)
    assert report["theta"][0] == pytest.approx(np.log(2), abs=1e-4)
    assert report["stats"] == [2]
    assert len(report["simulated_stats"]) == 3


def test_ergm_simulate_zero_networks_is_an_error(capsys):
    # zero is a count like any other, not a request to skip simulation
    code, out, err = run_cli(
        capsys, "ergm", "--in", DATA / "p3.tsv", "--terms", "edges", "--simulate", "0"
    )
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": "count must be positive"}


def test_twopart_subcommand(capsys):
    mats = [DATA / f"group_a_{i}.csv" for i in range(3)]
    code, out, _ = run_cli(capsys, "twopart", "--matrices", *mats, "--maxfev", "600")
    assert code == 0
    report = json.loads(out)
    assert report["omega_kind"] == "identity"
    assert len(report["strength_beta"]) == 1
    assert np.isfinite(report["strength_loglik"])


def test_twopart_rejects_fewer_than_one_evaluation(capsys):
    # the pipeline's maxfev bound is 1; below it the CLI reported the start values
    mats = [DATA / f"group_a_{i}.csv" for i in range(3)]
    code, out, err = run_cli(capsys, "twopart", "--matrices", *mats, "--maxfev", "0")
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report == {"error": "validation", "problems": ["twopart: maxfev must be >= 1, got 0"]}


def test_bootstrap_subcommand(capsys):
    code, out, _ = run_cli(
        capsys,
        "bootstrap", "--in", DATA / "subject_0.csv", "--metric", "density",
        "--replicates", "12", "--block-length", "10",
        "--threshold", '{"method": "fixed_threshold", "criterion": "value", "tau": 0.2}',
    )
    assert code == 0
    report = json.loads(out)
    assert report["requested"] == 12
    assert np.isfinite(report["standard_error"])
    assert report["block_length"] == 10


@pytest.mark.parametrize(
    "threshold, needle",
    [
        ({"method": "fixed_degree", "k": 3}, "no parameter ['k']"),
        ([1, 2], "must be an object"),
    ],
)
def test_pipeline_bad_threshold_spec_exits_2(tmp_path, capsys, threshold, needle):
    cfg = json.loads((DATA / "config.json").read_text())
    cfg["manifest"] = str(DATA / "manifest.json")
    cfg["threshold"] = threshold
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "pipeline", "--config", path, "--out", tmp_path / "run")
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "validation"
    assert any(needle in p for p in report["problems"])


def test_pipeline_threshold_parameter_of_wrong_type_exits_1(tmp_path, capsys):
    cfg = json.loads((DATA / "config.json").read_text())
    cfg["manifest"] = str(DATA / "manifest.json")
    cfg["threshold"] = {"method": "fixed_degree", "k_target": "3"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "pipeline", "--config", path, "--out", tmp_path / "run")
    assert code == 1 and out == ""
    report = json.loads(err)
    assert report["error"] == "ValueError"
    assert "threshold spec" in report["message"] and "k_target" in report["message"]


@pytest.mark.parametrize(
    "field, needle",
    [("estimator", "estimator must be an object"), ("params", "analyses[0]: params must be an object")],
)
def test_pipeline_non_object_field_exits_2(tmp_path, capsys, field, needle):
    cfg = json.loads((DATA / "config.json").read_text())
    cfg["manifest"] = str(DATA / "manifest.json")
    if field == "estimator":
        cfg["estimator"] = ["correlation"]
    else:
        cfg["analyses"][0]["params"] = ["density"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "pipeline", "--config", path, "--out", tmp_path / "run")
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "validation"
    assert any(needle in p for p in report["problems"])


NBS = {"method": "nbs", "group_a": [0, 1, 2], "group_b": [3, 4, 5], "t_threshold": 2.0}


def smallworld(**params):
    return {"type": "smallworld", "params": {"subjects": [0], **params}}


def twopart_omega(kind="exponential", **omega):
    return {"type": "twopart", "params": {"omega": {"kind": kind, **omega}}}


@pytest.mark.parametrize(
    "patch, code, needle",
    [
        ({"estimator": {"name": "correlation", "params": ["x"]}}, 2, "estimator params must be"),
        ({"type": "compare", "params": {**NBS, "group_a": 5}}, 2, "group_a must be a list"),
        ({"type": "ergm", "params": {"terms": 5}}, 2, "terms must be a list"),
        ({"type": "metrics", "params": {"metrics": 5}}, 2, "metrics must be a list"),
        ({"type": "smallworld", "params": {"subjects": 5}}, 2, "subjects must be a list"),
        ({"type": "smallworld", "params": {"subjects": [99]}}, 2, "subjects must be <= 5, got 99"),
        ({"type": "compare", "params": {**NBS, "group_a": [[0], 1]}}, 2, "group_a must be a list"),
        (
            {"type": "bootstrap", "params": {"subject": [0], "metric": "density"}},
            2,
            "subject must be a subject index",
        ),
        ({"type": "compare", "params": {**NBS, "permutations": "500"}}, 2, "permutations must be"),
        ({"type": "compare", "params": {**NBS, "t_threshold": "2"}}, 2, "t_threshold must be"),
        (
            {"type": "smallworld", "params": {"subjects": [0], "null_count": "3"}},
            2,
            "null_count must be",
        ),
        (twopart_omega(phi="x"), 2, "phi must be a number"),
        (smallworld(null_count=0), 2, "null_count must be >= 1"),
        (smallworld(null_count=-1), 2, "null_count must be >= 1"),
        (smallworld(nul_count=3), 2, "unknown parameter 'nul_count'"),
        (smallworld(swaps_per_edge=1.5), 2, "swaps_per_edge must be"),
        ({"type": "community", "params": {"cartography": "no"}}, 2, "cartography must be"),
        ({"type": "compare", "params": {**NBS, "group_a": [True, 1, 2]}}, 2, "group_a must be"),
        (
            {"type": "bootstrap", "params": {"subject": True, "metric": "density"}},
            2,
            "subject must be a subject index",
        ),
        ({"type": "bootstrap", "params": {"level": 2, "metric": "density"}}, 2, "level must be < 1"),
        (
            {"type": "bootstrap", "params": {"block_length": 1, "metric": "density"}},
            2,
            "block_length must be >= 2, got 1",
        ),
        ({"type": "twopart", "params": {"gamma": "x"}}, 2, "unknown parameter 'gamma'"),
        ({"type": "twopart", "params": {"covariates": [1, 2]}}, 2, "covariates must be an object"),
        ({"seed": 1.7}, 2, "seed must be an integer"),
        ({"seed": "7"}, 2, "seed must be an integer"),
        ({"workers": [2]}, 2, "workers must be an integer"),
        ({"out_dir": 5}, 2, "out_dir must be a string"),
        (
            {"estimator": {"name": "partial_correlation", "params": {"bogus": 1}}},
            1,
            "estimator 'partial_correlation' failed",
        ),
        (
            {"estimator": {"name": "partial_correlation", "params": {"shrinkage": "x"}}},
            1,
            "estimator 'partial_correlation' failed",
        ),
        (
            {"estimator": {"name": "coherence", "params": {"band": "ab"}}},
            1,
            "estimator 'coherence' failed",
        ),
        (
            {"estimator": {"name": "synchronization", "params": {"lag": "x"}}},
            1,
            "estimator 'synchronization' failed",
        ),
        (
            {"estimator": {"name": "synchronization", "params": {"lag": True}}},
            1,
            "estimator 'synchronization' failed: lag must be an integer, got True",
        ),
        (
            {"estimator": {"name": "correlation", "params": {"bogus": 1}}},
            1,
            "estimator 'correlation' failed",
        ),
        ({"type": "ergm", "params": {"terms": ["edges", "edges"]}}, 2, "terms: duplicate terms"),
        ({"type": "ergm", "params": {"terms": ["triangles"]}}, 2, "terms must start with 'edges'"),
        (twopart_omega(bogus=1), 2, "'bogus'"),
        (twopart_omega("compound_symmetry", rho=1.5), 2, "rho must lie in (0, 1), got 1.5"),
        (twopart_omega(phi=-2), 2, "phi must lie in (0, inf), got -2"),
        (twopart_omega(phi=10**400), 2, "phi must be a finite number"),
    ],
    ids=[
        "estimator_params", "group_a", "terms", "metrics", "subjects", "subjects_range",
        "group_a_nested", "bootstrap_subject",
        "permutations", "t_threshold", "null_count", "omega_phi",
        "null_count_zero", "null_count_negative", "null_count_typo", "swaps_per_edge_float",
        "cartography_string", "group_a_bool", "bootstrap_subject_bool", "level_above_1",
        "block_length_one",
        "twopart_gamma", "twopart_covariates_list", "seed_float", "seed_string",
        "workers_list", "out_dir_int", "partial_correlation_unknown", "shrinkage_string",
        "coherence_band_string", "synchronization_lag_string", "synchronization_lag_bool",
        "correlation_unknown",
        "ergm_terms_repeated", "ergm_terms_no_edges", "omega_unknown_key", "omega_rho_range",
        "omega_phi_negative", "omega_phi_huge",
    ],
)
def test_pipeline_wrongly_typed_param_is_a_structured_error(
    tmp_path, capsys, patch, code, needle
):
    """A wrongly typed or out-of-range param is a validation problem (exit 2,
    before any output is written) or a ValueError naming the analysis or
    estimator (exit 1), never a traceback. patch is either top-level config
    fields or one analysis to run."""
    cfg = json.loads((DATA / "config.json").read_text())
    cfg["manifest"] = str(DATA / "manifest.json")
    cfg.update({"analyses": [patch]} if "type" in patch else patch)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    got, out, err = run_cli(capsys, "pipeline", "--config", path, "--out", tmp_path / "run")
    assert got == code and out == ""
    report = json.loads(err)
    if code == 2:
        assert report["error"] == "validation" and not (tmp_path / "run").exists()
        assert any(needle in p for p in report["problems"])
    else:
        assert report["error"] == "ValueError" and needle in report["message"]


# one valid analysis of each type on the bundled data, using every default it can
VALID_PARAMS = {
    "metrics": {},
    "smallworld": {},
    "community": {},
    "compare": {"method": "edgewise", "group_a": [0, 1, 2], "group_b": [3, 4, 5]},
    "ergm": {},
    "twopart": {},
    "bootstrap": {"metric": "density"},
}
JSON_VALUES = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-(10**6), 10**6),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "string": st.text(max_size=8),
    "array": st.lists(st.integers(0, 5), max_size=3),
    "object": st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
}
ACCEPTED = {  # table kind: the JSON kinds it takes
    "int": {"int"},
    "subject": {"int"},
    "number": {"int", "float"},
    "str": {"string"},
    "bool": {"bool"},
    "object": {"object"},
}
PROPERTY = settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def validation_problems(capsys, kind, params):
    """Problems from a pipeline run of one analysis that must fail validation:
    exit 2, empty stdout, a JSON "validation" error and no output directory."""
    cfg = json.loads((DATA / "config.json").read_text())
    cfg["manifest"] = str(DATA / "manifest.json")
    cfg["analyses"] = [{"type": kind, "params": params}]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "pipeline", "--config", path, "--out", Path(tmp) / "run")
        assert not (Path(tmp) / "run").exists()
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "validation"
    return report["problems"]


def test_valid_params_pass_and_defaults_are_filled():
    raw = {
        "manifest": str(DATA / "manifest.json"),
        "estimator": "correlation",
        "analyses": [{"type": kind, "params": p} for kind, p in VALID_PARAMS.items()],
        "out_dir": "unused",
    }
    checked = {kind: params for kind, _, params in validate_config(raw).analyses}
    assert set(checked) == set(ANALYSIS_PARAMS)
    for kind, params in checked.items():
        assert set(params) == set(ANALYSIS_PARAMS[kind])
    assert checked["smallworld"]["subjects"] == [0, 1, 2, 3, 4, 5]
    assert checked["compare"]["permutations"] == 1000 and checked["compare"]["t_threshold"] is None
    assert checked["bootstrap"] == {
        "subject": 0, "metric": "density", "replicates": 200, "block_length": None, "level": 0.05,
    }


@pytest.mark.parametrize(
    "kind, name", [(kind, name) for kind, table in ANALYSIS_PARAMS.items() for name in table]
)
@PROPERTY
@given(data=st.data())
def test_pipeline_rejects_a_param_of_another_json_kind(capsys, kind, name, data):
    param = ANALYSIS_PARAMS[kind][name]
    accepted = {"array"} if param.many else ACCEPTED[param.kind]
    if param.default is None:
        accepted = accepted | {"null"}
    json_kind = data.draw(st.sampled_from(sorted(set(JSON_VALUES) - accepted)))
    value = data.draw(JSON_VALUES[json_kind])
    problems = validation_problems(capsys, kind, {**VALID_PARAMS[kind], name: value})
    assert any(name in p for p in problems)


@PROPERTY
@given(kind=st.sampled_from(sorted(ANALYSIS_PARAMS)), key=st.text(min_size=1, max_size=12))
def test_pipeline_rejects_an_unknown_param(capsys, kind, key):
    assume(key not in ANALYSIS_PARAMS[kind])
    problems = validation_problems(capsys, kind, {**VALID_PARAMS[kind], key: 1})
    assert any(f"unknown parameter {key!r}" in p for p in problems)


@pytest.mark.parametrize(
    "flags, measure, key",
    [
        (["--measure", "partial_correlation", "--params", '{"bogus": 1}'], "partial_correlation", "bogus"),
        (["--band", "0.05,0.2"], "correlation", "band"),
    ],
    ids=["partial_correlation_bogus", "correlation_band"],
)
def test_estimate_unknown_param_exits_1(capsys, flags, measure, key):
    code, out, err = run_cli(capsys, "estimate", "--in", DATA / "subject_0.csv", *flags)
    assert code == 1 and out == ""
    report = json.loads(err)
    assert report["error"] == "ValueError"
    assert f"estimator {measure!r} failed" in report["message"] and key in report["message"]


@pytest.mark.parametrize(
    "threshold, code, needle",
    [
        ('{"method": "fixed_degree", "k": 3}', 2, "no parameter ['k']"),
        ("[1, 2]", 2, "must be an object"),
        ('{"method": "fixed_degree", "k_target": "3"}', 1, "threshold spec"),
    ],
    ids=["unknown_key", "not_an_object", "wrong_type"],
)
def test_bootstrap_bad_threshold_spec_exit_code(capsys, threshold, code, needle):
    # spec_problems finds the first two before any work, as in a pipeline config
    got, out, err = run_cli(
        capsys,
        "bootstrap", "--in", DATA / "subject_0.csv", "--metric", "density",
        "--replicates", "10", "--threshold", threshold,
    )
    assert got == code and out == ""
    report = json.loads(err)
    if code == 2:
        assert report["error"] == "validation" and any(needle in p for p in report["problems"])
    else:
        assert report["error"] == "ValueError" and needle in report["message"]


def read_reports(out_dir):
    reports = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".json"):
            reports[name] = (Path(out_dir) / name).read_text()
    return reports


def test_pipeline_runs_and_is_deterministic(tmp_path, capsys, monkeypatch):
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for out in (out1, out2):
        code, stdout, _ = run_cli(
            capsys, "pipeline", "--config", DATA / "config.json", "--out", out,
        )
        assert code == 0
        listed = json.loads(stdout)["reports"]
        assert set(listed) == {"metrics", "community"}
    for fname in ("metrics.json", "community.json", "metrics.csv"):
        assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()

    prov1 = json.loads((out1 / "provenance.json").read_text())
    prov2 = json.loads((out2 / "provenance.json").read_text())
    prov1.pop("timestamp"), prov2.pop("timestamp")
    assert prov1 == prov2
    assert prov1["seed"] == 7 and "config_sha256" in prov1

    monkeypatch.setenv("FCNETS_WORKERS", "2")
    code, _, _ = run_cli(capsys, "pipeline", "--config", DATA / "config.json", "--out", out3)
    assert code == 0
    for fname in ("metrics.json", "community.json"):
        assert (out1 / fname).read_bytes() == (out3 / fname).read_bytes()


def test_pipeline_report_contents(tmp_path, capsys):
    out = tmp_path / "run"
    code, _, _ = run_cli(capsys, "pipeline", "--config", DATA / "config.json", "--out", out)
    assert code == 0
    metrics_report = json.loads((out / "metrics.json").read_text())
    assert metrics_report["analysis"] == "metrics"
    per_subject = metrics_report["result"]["per_subject"]
    assert len(per_subject) == 6
    # fixed degree k=3 on 8 nodes pins every subject's density
    for entry in per_subject:
        assert entry["density"] == pytest.approx(12 / 28)
    community_report = json.loads((out / "community.json").read_text())
    assert len(community_report["result"]["per_subject"]) == 6


def test_pipeline_metric_error_is_recorded_per_subject(tmp_path):
    names = ["density", "path_length", "assortativity"]
    # edgeless: no reachable pair, no edge; cycle: every endpoint of degree 2
    networks = [path_graph(4), BinaryNetwork(4, []), cycle_graph(4)]
    config = SimpleNamespace(out_dir=str(tmp_path))
    result = _analysis_metrics(config, {"metrics": names}, None, None, networks, 0)
    good = {m: metrics.metric_value(networks[0], m) for m in names}
    cycle_length = metrics.path_length(networks[2]).value
    assert result["per_subject"] == [
        good,
        {
            "density": 0.0,
            "path_length": None,
            "assortativity": None,
            "errors": {
                "path_length": "path length undefined: no reachable node pairs",
                "assortativity": "assortativity undefined: no edges",
            },
        },
        {
            "density": 4 / 6,
            "path_length": cycle_length,
            "assortativity": None,
            "errors": {"assortativity": "assortativity undefined: all edge endpoints have equal degree"},
        },
    ]
    lengths = [good["path_length"], cycle_length]
    assert result["group_mean"] == {
        "density": float(np.mean([good["density"], 0.0, 4 / 6])),
        "path_length": float(np.mean(lengths)),
        "assortativity": good["assortativity"],
    }
    assert result["group_std"]["path_length"] == float(np.std(lengths, ddof=1))
    assert result["group_std"]["assortativity"] == 0.0
    rows = (tmp_path / "metrics.csv").read_text().splitlines()
    assert rows[0] == "subject,density,path_length,assortativity"
    assert rows[2] == "1,0,,"
    assert rows[3] == f"2,{4 / 6:.12g},{cycle_length:.12g},"


def test_pipeline_with_no_value_for_a_metric_reports_null(tmp_path, capsys):
    cfg = json.loads((DATA / "config.json").read_text())
    cfg["manifest"] = str(DATA / "manifest.json")
    cfg["threshold"] = {"method": "fixed_threshold", "criterion": "value", "tau": 2.0}
    cfg["analyses"] = [{"type": "metrics", "params": {"metrics": ["density", "path_length"]}}]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    code, _, _ = run_cli(capsys, "pipeline", "--config", path, "--out", out)
    assert code == 0
    result = json.loads((out / "metrics.json").read_text())["result"]
    assert all(entry["path_length"] is None for entry in result["per_subject"])
    assert result["group_mean"] == {"density": 0.0, "path_length": None}
    assert result["group_std"] == {"density": 0.0, "path_length": None}


def test_pipeline_second_analysis_of_a_kind_gets_its_own_table(tmp_path, capsys):
    cfg = json.loads((DATA / "config.json").read_text())
    cfg["manifest"] = str(DATA / "manifest.json")
    first, second = ["density"], ["density", "clustering_mean_local"]
    edgewise = {"method": "edgewise", "group_a": [0, 1, 2], "group_b": [3, 4, 5]}
    cfg["analyses"] = [
        {"type": "metrics", "params": {"metrics": first}},
        {"type": "compare", "params": {**edgewise, "correction": "bonferroni"}},
        {"type": "metrics", "params": {"metrics": second}},
        {"type": "compare", "params": {**edgewise, "correction": "bh-fdr"}},
    ]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    code, stdout, _ = run_cli(capsys, "pipeline", "--config", path, "--out", out)
    assert code == 0
    assert set(json.loads(stdout)["reports"]) == {"metrics", "metrics_2", "compare", "compare_2"}
    for label, names in (("metrics", first), ("metrics_2", second)):
        rows = (out / f"{label}.csv").read_text().splitlines()
        assert rows[0] == ",".join(["subject", *names])
        per_subject = json.loads((out / f"{label}.json").read_text())["result"]["per_subject"]
        assert [row.split(",")[1] for row in rows[1:]] == [f"{e['density']:.12g}" for e in per_subject]
    for label, correction in (("", "bonferroni"), ("_2", "bh-fdr")):
        rows = (out / f"edgewise{label}.csv").read_text().splitlines()
        q = json.loads((out / f"compare{label}.json").read_text())["result"]["q"]
        assert rows[0] == "i,j,t,p,q"
        assert [float(row.split(",")[4]) for row in rows[1:]] == pytest.approx(q, rel=1e-11)
        assert json.loads((out / f"compare{label}.json").read_text())["params"]["correction"] == correction
    assert (out / "edgewise.csv").read_text() != (out / "edgewise_2.csv").read_text()


def test_pipeline_releases_the_series_no_bootstrap_reads(tmp_path, monkeypatch):
    # after estimation only the bootstrap subject's series is still referenced
    from fcnets import pipeline

    load, compare = pipeline.load_manifest, pipeline._ANALYSIS_FUNCTIONS["compare"]
    series, alive = [], []

    def load_and_watch(path):
        panel = load(path)
        series.extend(weakref.ref(x) for x in panel.subjects)
        return panel

    def compare_and_watch(*args):
        gc.collect()
        alive.append([ref() is not None for ref in series])
        return compare(*args)

    monkeypatch.setattr(pipeline, "load_manifest", load_and_watch)
    monkeypatch.setitem(pipeline._ANALYSIS_FUNCTIONS, "compare", compare_and_watch)
    cfg = json.loads((DATA / "config.json").read_text())
    cfg["analyses"] = [
        {"type": "compare", "params": {"method": "edgewise", "group_a": [0, 1, 2], "group_b": [3, 4, 5]}},
        {"type": "bootstrap", "params": {"subject": 4, "metric": "density", "replicates": 10}},
    ]
    config = validate_config(cfg, str(DATA), out_dir=str(tmp_path / "out"))
    written = pipeline.run_pipeline(config)
    assert alive == [[False, False, False, False, True, False]]
    assert json.loads(open(written["bootstrap"]).read())["result"]["requested"] == 10
