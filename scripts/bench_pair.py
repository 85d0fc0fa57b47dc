"""Benchmark two source checkouts in alternating order and compare them.

    python3 scripts/bench_pair.py PARENT_DIR CHANGE_DIR --workload all --seeds 1 10

For each seed in the inclusive range, runs the change checkout's
BENCHMARK.json ``command`` with

    --workload W --seed S --seconds RUN_SECONDS --trace 0

(RUN_SECONDS is that file's ``run_seconds``) in each checkout, the parent
first on odd seeds and the change first on even ones, and prints each
run's end-to-end metrics to standard error. Then, for every end-to-end
metric that BENCHMARK.json names (per workload when W is ``all``), it
prints both sides' medians and quartiles, the number of seeds on which the
change was better (ties count for neither side), a bound verdict and
whether the difference counts as a gain: better on at least nine tenths
of the seeds, and medians apart by more than the parent's interquartile
range. The bound verdict rests on the paired differences, one per seed:
(change - parent) / parent, signed so that positive is worse. Each seed
runs its own inputs, so a metric that the inputs fix (peak memory, say)
spreads across seeds but hardly within a pair. The verdict is
``unresolved`` when the interquartile range of the paired differences is
wider than the bound and the change is not better on every seed;
otherwise ``ok`` when their median stays within the bound, and ``WORSE``
when it does not. The median paired difference is printed as ``diff``,
and for each ``unresolved`` metric every seed's values and paired
difference follow the table, one line per seed, so that a spread with
two levels (some seeds moved, others not) shows.

Exits 1 if any run exits with an error, is not ``correct`` or has a failed
operation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN_TIMEOUT = 900.0  # seconds for one benchmark call; run.py limits each workload to 170 s itself


def run_bench(command, checkout, workload, seed, seconds):
    """One untraced benchmark run of `command` in `checkout`; its combined result line."""
    cmd = [
        *command, "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: seed {seed} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    """(first quartile, median, third quartile)."""
    return statistics.quantiles(values, n=4, method="inclusive")


def paired(parent, change, name, better):
    """Per seed: (parent value, change value, paired difference), the last
    (change - parent) / parent signed so that positive is worse."""
    sign = 1.0 if better == "lower" else -1.0
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    return [(a, b, sign * (b - a) / abs(a)) for a, b in zip(p, c)]


def paired_lines(seeds, parent, change, name, better):
    """One line per seed with both values and the paired difference."""
    return [
        f"  seed {seed}: parent {a:.4g} change {b:.4g} diff {w:+.1%}"
        for seed, (a, b, w) in zip(seeds, paired(parent, change, name, better))
    ]


def summarize(parent, change, metrics):
    """One row per metric: medians, quartiles, pairs won, bound verdict, gain verdict."""
    rows = []
    for name, (better, bound) in metrics.items():
        p, c, worse = map(list, zip(*paired(parent, change, name, better)))
        sign = 1.0 if better == "lower" else -1.0
        won = sum(w < 0 for w in worse)
        p_q1, p_med, p_q3 = quartiles(p)
        c_q1, c_med, c_q3 = quartiles(c)
        w_q1, w_med, w_q3 = quartiles(worse)
        if w_q3 - w_q1 > bound and won < len(p):
            verdict = "unresolved"
        elif w_med <= bound:
            verdict = "ok"
        else:
            verdict = "WORSE"
        gain = won >= 0.9 * len(p) and sign * (p_med - c_med) > p_q3 - p_q1
        rows.append((name, p_med, p_q1, p_q3, c_med, c_q1, c_q3, won, len(p), w_med, verdict, gain))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True, help="cohort, graph_nulls, group_models or all")
    ap.add_argument("--seeds", type=int, nargs=2, required=True, metavar=("FIRST", "LAST"))
    args = ap.parse_args()
    if args.seeds[1] <= args.seeds[0]:
        ap.error("need at least two seeds for quartiles")
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    script = bench["command"][-1]
    for checkout in (args.parent, args.change):
        if not os.path.isfile(os.path.join(checkout, script)):
            ap.error(f"{checkout} has no {script}")
    workloads = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    metrics = {}
    for w in workloads:
        for m in bench["end_to_end"]:
            name = f"{w}.{m['name']}" if args.workload == "all" else m["name"]
            metrics[name] = (m["better"], m["bound"])

    results = {"parent": [], "change": []}
    bad = []
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            r = run_bench(bench["command"], getattr(args, side), args.workload, seed, bench["run_seconds"])
            results[side].append(r)
            values = " ".join(f"{k}={r['metrics'][k]['value']:.4g}" for k in metrics)
            sys.stderr.write(f"seed {seed} {side}: correct={r['correct']} failed={r['failed']} {values}\n")
            if not r["correct"] or r["failed"]:
                bad.append(f"seed {seed} {side}: correct={r['correct']}, failed={r['failed']}")

    fmt = "{:28} {:>10} {:>22} {:>10} {:>22} {:>7} {:>8} {:>10} {:>5}"
    print(fmt.format("metric", "parent", "[q1, q3]", "change", "[q1, q3]", "won", "diff", "bound", "gain"))
    rows = summarize(results["parent"], results["change"], metrics)
    for name, p_med, p_q1, p_q3, c_med, c_q1, c_q3, won, pairs, diff, verdict, gain in rows:
        print(fmt.format(
            name, f"{p_med:.4g}", f"[{p_q1:.4g}, {p_q3:.4g}]", f"{c_med:.4g}", f"[{c_q1:.4g}, {c_q3:.4g}]",
            f"{won}/{pairs}", f"{diff:+.1%}", verdict, "yes" if gain else "no",
        ))
    seeds = range(args.seeds[0], args.seeds[1] + 1)
    for name, *_, verdict, _gain in rows:
        if verdict == "unresolved":
            print(f"{name} unresolved; paired differences (positive is worse):")
            lines = paired_lines(seeds, results["parent"], results["change"], name, metrics[name][0])
            print("\n".join(lines))
    if bad:
        print("runs that were not correct or had failed operations:\n  " + "\n  ".join(bad))
        sys.exit(1)


if __name__ == "__main__":
    main()
