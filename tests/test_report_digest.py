"""scripts/report_digest.py on the bundled config: one digest per config on
stdout, one SHA-256 per report file on stderr, the same on every run. The
configs that scripts/alltypes_config.py and scripts/standing_configs.py
write validate and regenerate byte for byte."""

import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "report_digest.py"
CONFIG = str(ROOT / "src" / "fcnets" / "data" / "config.json")
spec = importlib.util.spec_from_file_location("report_digest", SCRIPT)
report_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_digest)


def test_bundled_config_digests_are_equal_across_runs(capsys):
    report_digest.main([str(ROOT), CONFIG, CONFIG])
    out, err = capsys.readouterr()
    first, second = out.splitlines()
    assert first == second
    digest, config = first.split()
    assert config == CONFIG and len(digest) == 64
    lines = [line.split() for line in err.splitlines()]
    assert len(lines) % 2 == 0
    half = len(lines) // 2
    assert lines[:half] == lines[half:]
    names = [name for _, name, _ in lines[:half]]
    assert names == sorted(names) and "metrics.json" in names and "provenance.json" not in names
    assert all(c == CONFIG and len(d) == 64 for d, _, c in lines)


def test_file_digests_are_the_sha256_of_each_report(tmp_path, capsys):
    from fcnets.cli import main

    assert main(["pipeline", "--config", CONFIG, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    _, files = report_digest.report_digest(str(ROOT), CONFIG)
    written = sorted(p.name for p in tmp_path.iterdir() if p.name != "provenance.json")
    assert sorted(files) == written
    for name in written:
        assert files[name] == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()


ALLTYPES = ROOT / "scripts" / "alltypes_config.py"
spec = importlib.util.spec_from_file_location("alltypes_config", ALLTYPES)
alltypes_config = importlib.util.module_from_spec(spec)
spec.loader.exec_module(alltypes_config)


def test_alltypes_config_validates_covers_every_analysis_and_regenerates_identically(tmp_path):
    from fcnets.metrics import METRIC_NAMES
    from fcnets.pipeline import ANALYSIS_TYPES, load_config

    first = alltypes_config.write_alltypes(str(tmp_path / "a"))
    second = alltypes_config.write_alltypes(str(tmp_path / "b"))
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    config = load_config(first, out_dir=str(tmp_path / "out"))
    assert config.raw == load_config(second, out_dir=str(tmp_path / "out")).raw
    assert {kind for kind, _, _ in config.analyses} == set(ANALYSIS_TYPES)
    compares = {
        (p["method"], p["correction"] if p["method"] == "edgewise" else None)
        for kind, _, p in config.analyses
        if kind == "compare"
    }
    assert compares == {("edgewise", "bonferroni"), ("edgewise", "bh-fdr"), ("nbs", None), ("spc", None)}
    metrics = next(p for kind, _, p in config.analyses if kind == "metrics")["metrics"]
    assert sorted(metrics) == sorted(METRIC_NAMES)
    community = next(p for kind, _, p in config.analyses if kind == "community")
    assert community["cartography"]


STANDING = ROOT / "scripts" / "standing_configs.py"


def test_standing_configs_regenerate_identically_and_validate(tmp_path):
    from fcnets.pipeline import load_config

    runs = []
    for name in ("a", "b"):
        proc = subprocess.run(
            [sys.executable, str(STANDING), str(tmp_path / name)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout.split())
    first, second = runs
    assert first[0] == second[0] and Path(first[0]).resolve() == Path(CONFIG) and len(first) == 6
    for a, b in zip(first[1:], second[1:]):
        assert Path(a).parent.name == Path(b).parent.name
        files = sorted(p.name for p in Path(a).parent.iterdir())
        assert files == sorted(p.name for p in Path(b).parent.iterdir())
        for f in files:
            assert (Path(a).parent / f).read_bytes() == (Path(b).parent / f).read_bytes()
    names = [Path(p).parent.name for p in first[1:]]
    assert names == ["cohort1", "cohort2", "cohort3", "alltypes", "synchronization"]
    for path in first:
        load_config(path, out_dir=str(tmp_path / "out"))  # raises ConfigError on a problem
    config = load_config(first[-1], out_dir=str(tmp_path / "out"))
    assert config.estimator == "synchronization"
    assert [kind for kind, _, _ in config.analyses] == ["metrics", "bootstrap"]
