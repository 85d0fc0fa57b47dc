"""scripts/bench_pair.py verdicts on made-up parent/change runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pair.py"
spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
bench_pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pair)


def runs(values):
    return [{"metrics": {"m": {"value": v}}} for v in values]


def verdict(parent, change, better="lower", bound=0.05):
    (row,) = bench_pair.summarize(runs(parent), runs(change), {"m": (better, bound)})
    return row[-2], row[-1]


PARENT = [116.4, 122.9, 117.0, 121.8, 119.6, 116.9, 122.1, 119.3, 120.5, 118.2]


def test_metric_fixed_by_each_seed_is_judged_on_pairs():
    # seeds spread 116-123 (IQR wider than 5%), each pair moves by 0.1 or less
    assert verdict(PARENT, [v + 0.1 for v in PARENT]) == ("ok", False)
    assert verdict(PARENT, [v * 1.08 for v in PARENT]) == ("WORSE", False)
    assert verdict(PARENT, [v * 0.8 for v in PARENT]) == ("ok", True)


def test_higher_is_better_is_signed():
    assert verdict(PARENT, [v * 0.9 for v in PARENT], better="higher") == ("WORSE", False)
    assert verdict(PARENT, [v * 1.1 for v in PARENT], better="higher")[0] == "ok"


def test_noisy_pairs_are_unresolved():
    change = [v * f for v, f in zip(PARENT, [0.9, 1.1, 0.92, 1.08, 0.95, 1.12, 0.9, 1.1, 0.93, 1.09])]
    assert verdict(PARENT, change)[0] == "unresolved"


def test_median_paired_difference_is_reported():
    (row,) = bench_pair.summarize(runs(PARENT), runs([v * 1.02 for v in PARENT]), {"m": ("lower", 0.05)})
    assert row[-3] == pytest.approx(0.02)


def test_unresolved_metric_lists_its_paired_differences():
    # peak memory with two levels by seed: the change lowers the high seeds
    # by 15 MB and leaves the low ones, so the pairs spread too widely
    parent = [104.4, 122.7, 106.2, 106.5, 119.7, 104.2, 122.6, 122.6, 119.3, 122.6]
    change = [v - 15.0 if v > 110 else v + 0.1 for v in parent]
    assert verdict(parent, change) == ("unresolved", False)
    lines = bench_pair.paired_lines(range(1, 11), runs(parent), runs(change), "m", "lower")
    assert len(lines) == 10
    assert lines[0] == "  seed 1: parent 104.4 change 104.5 diff +0.1%"
    assert lines[1] == "  seed 2: parent 122.7 change 107.7 diff -12.2%"
