"""fcnets benchmark: run one workload (or all) and print the result as JSON.

    python3 perfbench/run.py --workload cohort --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; fcnets is imported from ./src.
Workloads: cohort, graph_nulls, group_models, or ``all`` to run each in
turn and print one line per workload before the combined result.

With ``--trace 0`` the last line holds the end-to-end metrics: ``wall_s``
(median wall time of one pass over the workload's operations),
``setup_s`` (median over SETUP_SAMPLES fresh interpreters of importing
fcnets and writing the generated inputs) and ``peak_rss_mb`` (peak
resident memory of the process that ran the passes). With ``--trace 1``
it holds the per-layer metrics of tracing.py, measured on traced passes
that alternate with untraced ones. Every workload process is started
fresh, waited for, and killed if it overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cohort", "graph_nulls", "group_models")
SETUP_SAMPLES = 3  # the run's own set-up plus two set-up-only interpreters
TIME_LIMIT = 170.0  # seconds for one workload, probes included
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))


def _env():
    env = dict(os.environ)
    env.pop("FCNETS_WORKERS", None)  # the program's default worker count decides
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _session(args, mode, deadline):
    cmd = [
        sys.executable, os.path.join(HERE, "session.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--mode", mode,
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{args.workload}: session overran the {TIME_LIMIT:.0f} s limit")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{args.workload}: session exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args):
    deadline = time.monotonic() + TIME_LIMIT
    main = _session(args, "run", deadline)
    metrics = {}
    if args.trace:
        from tracing import metric_names

        for name, unit in metric_names().items():
            metrics[name] = _metric(main["layers"][name], unit)
        untraced = statistics.median(main["wall_s"])
        traced = statistics.median(main["traced_wall_s"])
        metrics["trace.wall_s"] = _metric(traced, "s")
        metrics["trace.overhead_s"] = _metric(traced - untraced, "s")
        metrics["trace.missing"] = _metric(len(main["missing"]), "count")
        for name in main["missing"]:
            sys.stderr.write(f"traced name missing from fcnets: {name}\n")
    else:
        setups = [main["setup_s"]]
        setups += [_session(args, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        metrics["wall_s"] = _metric(statistics.median(main["wall_s"]), "s")
        metrics["setup_s"] = _metric(statistics.median(setups), "s")
        metrics["peak_rss_mb"] = _metric(main["peak_rss_mb"], "MB")
    return {
        "correct": main["correct"],
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "fcnets", "__init__.py")):
        sys.exit(f"no fcnets source under {os.path.join(ROOT, 'src')}; run from a source checkout")
    if args.workload != "all":
        print(json.dumps(run_workload(args)))
        return
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        result = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        print(name, json.dumps(result), flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
