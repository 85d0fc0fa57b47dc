"""End-to-end command-line checks against the bundled sample data."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

import fcnets
from fcnets.cli import main

DATA = Path(fcnets.__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_metrics_on_bundled_path_graph(capsys):
    code, out, _ = run_cli(
        capsys,
        "metrics", "--in", DATA / "p3.tsv",
        "--metric", "global_efficiency", "--metric", "path_length",
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
        "--strategy", "fixed_degree", "--k", "3", "--out", net_path,
    )
    assert code == 0 and net_path.exists()

    code, out, _ = run_cli(capsys, "metrics", "--in", net_path, "--metric", "density")
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


def test_computational_failure_exits_1(capsys):
    code, out, err = run_cli(
        capsys,
        "threshold", "--in", DATA / "group_a_0.csv",
        "--strategy", "fixed_degree", "--k", "50",
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


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc_info:
        main(["threshold"])
    assert exc_info.value.code == 2


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


def test_twopart_subcommand(capsys):
    mats = [DATA / f"group_a_{i}.csv" for i in range(3)]
    code, out, _ = run_cli(capsys, "twopart", "--matrices", *mats, "--maxfev", "600")
    assert code == 0
    report = json.loads(out)
    assert report["omega_kind"] == "identity"
    assert len(report["strength_beta"]) == 1
    assert np.isfinite(report["strength_loglik"])


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


@pytest.mark.parametrize(
    "patch, code, needle",
    [
        ({"estimator": {"name": "correlation", "params": ["x"]}}, 2, "estimator params must be"),
        ({"type": "compare", "params": {**NBS, "group_a": 5}}, 2, "group_a must be a list"),
        ({"type": "ergm", "params": {"terms": 5}}, 2, "terms must be a list"),
        ({"type": "metrics", "params": {"metrics": 5}}, 2, "metrics must be a list"),
        ({"type": "smallworld", "params": {"subjects": 5}}, 2, "subjects must be a list"),
        ({"type": "smallworld", "params": {"subjects": [99]}}, 2, "subjects indices out of range"),
        ({"type": "compare", "params": {**NBS, "group_a": [[0], 1]}}, 2, "group_a indices must be"),
        (
            {"type": "bootstrap", "params": {"subject": [0], "metric": "density"}},
            2,
            "bootstrap subject must be",
        ),
        ({"type": "compare", "params": {**NBS, "permutations": "500"}}, 1, "analysis 'compare'"),
        ({"type": "compare", "params": {**NBS, "t_threshold": "2"}}, 1, "analysis 'compare'"),
        (
            {"type": "smallworld", "params": {"subjects": [0], "null_count": "3"}},
            1,
            "analysis 'smallworld'",
        ),
        (
            {"type": "twopart", "params": {"omega": {"kind": "exponential", "phi": "x"}}},
            1,
            "analysis 'twopart'",
        ),
    ],
    ids=[
        "estimator_params", "group_a", "terms", "metrics", "subjects", "subjects_range",
        "group_a_nested", "bootstrap_subject",
        "permutations", "t_threshold", "null_count", "omega_phi",
    ],
)
def test_pipeline_wrongly_typed_param_is_a_structured_error(
    tmp_path, capsys, patch, code, needle
):
    """A wrongly typed or out-of-range param is a validation problem (exit 2)
    or a ValueError naming the analysis (exit 1), never a traceback. patch
    is either a config field or one analysis to run."""
    cfg = json.loads((DATA / "config.json").read_text())
    cfg["manifest"] = str(DATA / "manifest.json")
    cfg.update(patch if "estimator" in patch else {"analyses": [patch]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    got, out, err = run_cli(capsys, "pipeline", "--config", path, "--out", tmp_path / "run")
    assert got == code and out == ""
    report = json.loads(err)
    if code == 2:
        assert report["error"] == "validation"
        assert any(needle in p for p in report["problems"])
    else:
        assert report["error"] == "ValueError" and needle in report["message"]


@pytest.mark.parametrize(
    "threshold, needle",
    [
        ('{"method": "fixed_degree", "k": 3}', "no parameter ['k']"),
        ("[1, 2]", "must be an object"),
        ('{"method": "fixed_degree", "k_target": "3"}', "threshold spec"),
    ],
)
def test_bootstrap_bad_threshold_spec_exits_1(capsys, threshold, needle):
    code, out, err = run_cli(
        capsys,
        "bootstrap", "--in", DATA / "subject_0.csv", "--metric", "density",
        "--replicates", "10", "--threshold", threshold,
    )
    assert code == 1 and out == ""
    report = json.loads(err)
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
