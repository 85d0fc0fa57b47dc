"""Write the standing equivalence configs and print their paths, one a line.

    python3 scripts/standing_configs.py OUTDIR

The first path is the bundled ``src/fcnets/data/config.json``. OUTDIR then
receives the ``cohort`` benchmark inputs of seeds 1-3 (``cohort1`` ..
``cohort3``, from ``perfbench.inputs``), the config that runs every
analysis type (``alltypes``, from ``scripts/alltypes_config.py``), and the
same panel estimated by synchronization (``synchronization``: a metrics
analysis and a 10-replicate bootstrap, whose every replicate re-estimates).
The other configs estimate by correlation only. Each is seeded, so a rerun
writes the same bytes. The whole byte-identity check of a change is then

    python3 scripts/report_digest.py SRC_DIR $(python3 scripts/standing_configs.py OUTDIR)

run on the parent and on the change.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from alltypes_config import CONFIG, METRICS, write_alltypes  # noqa: E402
from perfbench.inputs import cohort_study, write_cohort  # noqa: E402

BUNDLED = os.path.join(ROOT, "src", "fcnets", "data", "config.json")
COHORT_SEEDS = (1, 2, 3)
SYNCHRONIZATION = {
    **CONFIG,
    "estimator": {"name": "synchronization"},
    "analyses": [
        {"type": "metrics", "params": {"metrics": METRICS}},
        {"type": "bootstrap", "params": {"metric": "global_efficiency", "replicates": 10}},
    ],
}


def write_standing(out_dir):
    """Write the configs under out_dir; return every standing config path."""
    paths = [BUNDLED]
    for seed in COHORT_SEEDS:
        directory = os.path.join(out_dir, f"cohort{seed}")
        os.makedirs(directory, exist_ok=True)
        paths.append(write_cohort(directory, cohort_study(seed))["config"])
    paths.append(write_alltypes(os.path.join(out_dir, "alltypes")))
    paths.append(write_alltypes(os.path.join(out_dir, "synchronization"), SYNCHRONIZATION))
    return paths


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        raise SystemExit(__doc__)
    print("\n".join(write_standing(args[0])))


if __name__ == "__main__":
    main()
