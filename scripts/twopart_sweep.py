"""Two-part fits over the 120-fit sweep, one JSON line per fit.

    PYTHONPATH=src python3 scripts/twopart_sweep.py > sweep.jsonl

The sweep is criterion 08's replicates 1000-1099 (lear Omega, maxfev 1500)
plus both `group_models` benchmark studies on seeds 1-10. The fits use the
`fcnets` on PYTHONPATH; the inputs come from this checkout's
tests/test_acceptance.py and perfbench/inputs.py, so two trees can be
compared line by line on the same data. Each line holds the fit's label,
the presence and strength log-likelihoods, the presence tau, the strength
tau2, the keys of every NaN standard error (presence coefficients as
`presence_<name>`, strength coefficients as `strength_<name>`, then the
strength `param_se` keys) and both parts' `converged`.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from fcnets.estimators import ConnectionMatrix
from fcnets.twopart import CorrelationStructure, build_dyad_dataset, twopart_fit

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
from test_acceptance import simulate_dyad_study  # noqa: E402


def studies():
    """(label, dataset, twopart_fit options) for every fit of the sweep."""
    for seed in range(1000, 1100):
        mats, coords = simulate_dyad_study(seed)
        yield f"c08_{seed}", build_dyad_dataset(mats, coordinates=coords), {
            "omega": CorrelationStructure("lear"), "maxfev": 1500,
        }
    spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    options = {
        "single_task": {"omega": CorrelationStructure("lear", rho=0.5, delta=1.0)},
        "two_task": {"gamma": "unstructured"},
    }
    for seed in range(1, 11):
        d = inputs.group_models_inputs(seed)
        for study, opts in options.items():
            mats = [[ConnectionMatrix(m, "correlation", {}) for m in task] for task in d[study]["matrices"]]
            data = build_dyad_dataset(mats, coordinates=d[study]["coordinates"])
            yield f"{study}_{seed}", data, {"maxfev": inputs.DYAD_MAXFEV, **opts}


def main():
    for label, data, options in studies():
        fit = twopart_fit(data, **options)
        p, s = fit.presence, fit.strength
        nan = [f"presence_{n}" for n, v in zip(p.names, p.se) if np.isnan(v)]
        nan += [f"strength_{n}" for n, v in zip(s.names, s.se) if np.isnan(v)]
        nan += [k for k, v in s.param_se.items() if np.isnan(v)]
        print(json.dumps({
            "fit": label, "presence_loglik": p.loglik, "strength_loglik": s.loglik,
            "tau": p.tau, "tau2": s.tau2, "nan_se": nan,
            "presence_converged": p.converged, "strength_converged": s.converged,
        }), flush=True)


if __name__ == "__main__":
    main()
