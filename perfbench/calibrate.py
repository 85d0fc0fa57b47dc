"""Regenerate the run-derived tolerances of the output checks.

    python3 perfbench/calibrate.py --seeds 1 20

Some checks compare a statistical outcome with a band rather than an exact
reference: Louvain and Girvan-Newman recovery of planted modules (NMI
floors), the random-graph small-world sigma band, the power-law exponent
tolerance and the two-part coefficient z bound. This script runs the same
fcnets calls as the workloads on the generated inputs of a range of seeds
and prints, per seed, the statistic each band limits, so the bands in
workloads.py and checks.py can be re-derived. It is not part of a
benchmark run.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import inputs as gen  # noqa: E402
from fcnets import communities, estimators, networks, nullmodels, thresholding, twopart  # noqa: E402
from fcnets.runtime import derive_seed  # noqa: E402


def cohort(seed):
    study = gen.cohort_study(seed)
    config = gen.cohort_config()
    stage = derive_seed(config["seed"], "analysis", "community")  # as the pipeline derives it
    worst = 1.0
    for s, x in enumerate(study["series"]):
        g = thresholding.apply_spec(estimators.estimate(x, "correlation"), config["threshold"])
        part = communities.louvain(g, seed=derive_seed(stage, "subject", s))
        worst = min(worst, checks.nmi(part.assignment, study["modules"]))
    return {"louvain_min_nmi": worst}


def graph_nulls(seed):
    d = gen.graph_nulls_inputs(seed)
    out = {}
    for name in ("ws", "er"):
        res = nullmodels.small_world(
            networks.BinaryNetwork(*d[name]), null_count=gen.NULLS_NULL_COUNT,
            swaps_per_edge=gen.NULLS_SWAPS_PER_EDGE, seed=d["small_world_seeds"][name],
        )
        out[f"{name}_sigma"], out[f"{name}_omega"] = res.sigma, res.omega
    gn = communities.girvan_newman(networks.BinaryNetwork(*d["modular"]))
    out["gn_nmi"] = checks.nmi(gn.assignment, d["gn_labels"])
    fit = nullmodels.powerlaw_fit(d["powerlaw_degrees"], bootstrap_reps=gen.POWERLAW_REPS, seed=d["powerlaw_seed"])
    out["powerlaw_error"] = fit.alpha - d["powerlaw_alpha"]
    return out


def group_models(seed):
    d = gen.group_models_inputs(seed)
    models = {
        "single_task": {"omega": twopart.CorrelationStructure("lear", rho=0.5, delta=1.0)},
        "two_task": {"gamma": "unstructured"},
    }
    out = {}
    for study, options in models.items():
        mats = [[estimators.ConnectionMatrix(m, "correlation") for m in task] for task in d[study]["matrices"]]
        data = twopart.build_dyad_dataset(mats, coordinates=d[study]["coordinates"])
        fit = twopart.twopart_fit(data, maxfev=gen.DYAD_MAXFEV, **options)
        for part, truth in (("presence", gen.DYAD_BETA_V), ("strength", gen.DYAD_BETA_S)):
            f = getattr(fit, part)
            out[f"{study}_{part}_z"] = (f.beta[0] - truth) / f.se[0]
            out[f"{study}_{part}_converged"] = f.converged
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, nargs=2, default=(1, 20), metavar=("FIRST", "LAST"))
    args = p.parse_args()
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        row = {**cohort(seed), **graph_nulls(seed), **group_models(seed)}
        print(seed, " ".join(f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}" for k, v in row.items()), flush=True)


if __name__ == "__main__":
    main()
