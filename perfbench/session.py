"""One workload in one fresh interpreter; prints one JSON line.

    python3 perfbench/session.py --workload W --seed N --seconds S --trace 0|1 --mode run|setup

Set-up (timed as ``setup_s``) is importing fcnets and generating and
writing the workload's inputs. ``--mode setup`` stops there. ``--mode run``
then runs passes of the workload until the next pass would end past
``--seconds`` (at least MIN_PASSES, unless the next would end past
PASS_LIMIT), checks the first pass against independent references and
every later pass against the first. With ``--trace 1`` passes alternate
untraced and traced, and the traced ones give the per-layer metrics.
Started by run.py, which owns the result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
PASS_LIMIT = 120.0  # seconds; past it no new pass starts, so a slowed program still reports


def _parse():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mode", choices=("run", "setup"), default="run")
    return p.parse_args()


def _setup(workload, seed, directory):
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import fcnets  # noqa: F401  (timed: the package import is part of set-up)
    import fcnets.cli  # noqa: F401

    import inputs

    make, write = inputs.GENERATORS[workload]
    data = make(seed)
    paths = write(directory, data)
    return time.perf_counter() - start, data, paths


def _passes(wl, fc, seconds, tracer):
    """Run passes; returns (pass times keyed by traced, check problems, ops)."""
    from workloads import Ops

    ops = Ops()
    walls = {False: [], True: []}
    problems = []
    reference = None
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        if traced:
            tracer.install()
        out_dir = tempfile.mkdtemp(prefix="pass-", dir=wl.directory)
        t0 = time.perf_counter()
        out = wl.run_pass(fc, ops, out_dir)
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        walls[traced].append(wall)
        fingerprint = wl.fingerprint(out)
        if reference is None:
            reference = fingerprint
            problems += wl.check(fc, out)
        elif fingerprint != reference:
            problems.append("a later pass gave different results from the first on the same inputs")
        shutil.rmtree(out_dir)
        done = len(walls[False]) + len(walls[True])
        enough = (
            len(walls[True]) >= MIN_TRACED_PASSES and len(walls[False]) >= MIN_TRACED_PASSES
            if tracer is not None
            else done >= MIN_PASSES
        )
        ends_at = time.perf_counter() - start + statistics.median(walls[False] + walls[True])
        if (enough and ends_at > seconds) or ends_at > PASS_LIMIT:
            return walls, problems, ops


def _run(args, directory, data, paths):
    import fcnets
    import workloads
    from tracing import Tracer

    wl = workloads.WORKLOADS[args.workload](data, paths, directory)
    tracer = Tracer() if args.trace else None
    walls, problems, ops = _passes(wl, fcnets, args.seconds, tracer)
    for traced, times in walls.items():
        if times:
            label = "traced" if traced else "untraced"
            sys.stderr.write(f"{args.workload} {label} passes (s): {' '.join(f'{t:.3f}' for t in times)}\n")
    for p in problems:
        sys.stderr.write(f"check failed: {p}\n")
    result = {
        "wall_s": walls[False],
        "traced_wall_s": walls[True],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "correct": not problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(len(walls[True]))
        result["missing"] = sorted(tracer.missing)
        tracer.dump(os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    return result


def main():
    args = _parse()
    os.makedirs(WORK, exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        setup_s, data, paths = _setup(args.workload, args.seed, directory)
        result = {"setup_s": setup_s}
        if args.mode == "run":
            result.update(_run(args, directory, data, paths))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
