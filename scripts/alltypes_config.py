"""Write a seeded panel and a pipeline config that runs every analysis type.

    python3 scripts/alltypes_config.py OUTDIR

OUTDIR receives 12 subjects' time series (16 nodes, T = 150, two modules of
8 nodes; the second group of 6 shares an extra factor on nodes 0-3), a
manifest with node coordinates, and ``config.json``. The config thresholds
at fixed density 0.3 and runs metrics with every metric name, smallworld,
community with cartography, edgewise compares with Bonferroni and BH-FDR,
nbs, spc, ergm, twopart and bootstraps of global and local efficiency.
Everything comes from ``numpy.random.default_rng(3)``, so a rerun writes the
same bytes. ``scripts/report_digest.py SRC_DIR OUTDIR/config.json`` then
covers every report writer, the edgewise, nbs and spc reports included.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

SEED = 3
SUBJECTS = 12
NODES = 16
SAMPLES = 150
GROUP_A = list(range(SUBJECTS // 2))
GROUP_B = list(range(SUBJECTS // 2, SUBJECTS))
METRICS = [
    "density",
    "mean_degree",
    "clustering_mean_local",
    "clustering_transitivity",
    "clustering_weighted_geometric",
    "local_efficiency",
    "global_efficiency",
    "path_length",
    "assortativity",
]
GROUPS = {"group_a": GROUP_A, "group_b": GROUP_B}
CONFIG = {
    "manifest": "manifest.json",
    "estimator": {"name": "correlation"},
    "threshold": {"method": "fixed_density", "density": 0.3},
    "seed": 11,
    "analyses": [
        {"type": "metrics", "params": {"metrics": METRICS}},
        {"type": "smallworld", "params": {"subjects": [0, 6], "null_count": 5}},
        {"type": "community", "params": {"cartography": True}},
        {"type": "compare", "params": {**GROUPS, "method": "edgewise", "correction": "bonferroni"}},
        {"type": "compare", "params": {**GROUPS, "method": "edgewise", "correction": "bh-fdr"}},
        {"type": "compare", "params": {**GROUPS, "method": "nbs", "t_threshold": 2.5, "permutations": 200}},
        {
            "type": "compare",
            "params": {**GROUPS, "method": "spc", "t_threshold": 2.0, "permutations": 200, "radius": 1.5},
        },
        {"type": "ergm", "params": {"ensemble": 10}},
        {"type": "twopart", "params": {}},
        {"type": "bootstrap", "params": {"metric": "global_efficiency", "replicates": 20}},
        {"type": "bootstrap", "params": {"subject": 6, "metric": "local_efficiency", "replicates": 20}},
    ],
}


def write_alltypes(out_dir, config=CONFIG):
    """Write the panel, manifest and config (CONFIG unless given) under
    out_dir; return the config path."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(SEED)
    modules = np.repeat([0, 1], NODES // 2)
    files = []
    for s in range(SUBJECTS):
        x = rng.standard_normal((SAMPLES, NODES)) + rng.standard_normal((SAMPLES, 2))[:, modules]
        if s in GROUP_B:
            x[:, :4] += rng.standard_normal((SAMPLES, 1))
        name = f"subject_{s}.csv"
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(",".join(f"n{i}" for i in range(NODES)) + "\n")
            fh.writelines(",".join(format(v, ".12g") for v in row) + "\n" for row in x)
        files.append(name)
    manifest = {
        "subject_files": files,
        "layout": "rows-are-time",
        "sampling_interval": 2.0,
        "coordinates": np.round(rng.uniform(0, 3, (NODES, 3)), 6).tolist(),
    }
    for name, doc in (("manifest.json", manifest), ("config.json", config)):
        with open(os.path.join(out_dir, name), "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return os.path.join(out_dir, "config.json")


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        raise SystemExit(__doc__)
    print(write_alltypes(args[0]))


if __name__ == "__main__":
    main()
