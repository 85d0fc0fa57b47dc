"""Uncertainty for derived network metrics via circular block bootstrap.

Replicate panels resample whole time blocks with wraparound, using one set
of block starts shared by every node so cross-node dependence survives. The
full estimate -> threshold -> metric pipeline is re-run on each replicate.

Replicates recentre on the sample: each replicate correlation scatters
around its sample value, not around the population value. For a thresholded
exceedance metric such as density, this moves the replicate mean away from
the point estimate (on pure noise under an uncorrected 5% significance cut,
from the nominal 0.05 to about 0.166), so the reported bias there measures
the recentring, not the estimator's bias.
scripts/bootstrap_density_experiment.py measures the effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import estimators, thresholding
from .metrics import metric_value
from .runtime import rng_for


def block_bootstrap(series, block_length=None, replicates=1, seed=0):
    """Circular block bootstrap replicates of a node x time array.

    Default block length is ceil(sqrt(T)). Block starts are drawn once per
    replicate and shared across nodes; blocks wrap around the end of the
    record. block_length = T degenerates to a circular rotation of the
    whole record. Yields (replicate_index, resampled_series).
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 2:
        raise ValueError("series must be a 2-d node x time array")
    n, t = x.shape
    if block_length is None:
        block_length = int(math.ceil(math.sqrt(t)))
    block_length = int(block_length)
    if block_length < 2:
        raise ValueError(f"block_length must be >= 2, got {block_length}")
    if block_length > t:
        raise ValueError(f"block_length {block_length} exceeds series length {t}")
    n_blocks = int(math.ceil(t / block_length))
    offsets = np.arange(block_length)
    for b in range(replicates):
        rng = rng_for(seed, "block_bootstrap", b)
        starts = rng.integers(0, t, size=n_blocks)
        idx = (starts[:, None] + offsets[None, :]).ravel()[:t] % t
        yield b, x[:, idx]


@dataclass
class DeltaDistribution:
    """Block-bootstrap distribution of one derived metric."""

    metric: str
    point: float
    replicates: np.ndarray
    bias: float
    standard_error: float
    ci_percentile: tuple
    ci_normal: tuple
    level: float
    block_length: int
    requested: int
    failed: int
    seed: int


def metric_error(
    series,
    metric,
    estimator="correlation",
    estimator_params=None,
    threshold_spec=None,
    replicates=200,
    block_length=None,
    seed=0,
    level=0.05,
    max_failure_fraction=0.10,
):
    """Block-bootstrap distribution of a network metric.

    Each replicate re-runs estimation, thresholding, and the metric on a
    block-bootstrap resample. Replicates whose pipeline raises (for example
    a disconnected replicate under a path-length metric) are skipped; more
    than max_failure_fraction failures aborts with an error.

    Returns a DeltaDistribution with the point estimate, bias (replicate
    mean minus point), standard error, and two central intervals: the
    percentile interval and the normal interval point +/- z * se.

    Replicates recentre on the sample. For thresholded exceedance metrics
    such as density this shifts the replicate mean away from the point, so
    bias there measures the recentring and not the estimator's bias (see
    scripts/bootstrap_density_experiment.py).
    """
    if replicates < 10:
        raise ValueError("need at least 10 replicates")
    x = np.asarray(series, dtype=float)

    spec = threshold_spec or {"method": "fixed_threshold", "criterion": "value", "tau": 0.0}

    def pipeline(data):
        cm = estimators.estimate(data, estimator, estimator_params)
        g = thresholding.apply_spec(cm, spec)
        return metric_value(g, metric)

    point = pipeline(x)
    values = []
    failed = 0
    if block_length is None:
        block_length = int(math.ceil(math.sqrt(x.shape[1])))
    for _, resampled in block_bootstrap(
        x, block_length=block_length, replicates=replicates, seed=seed
    ):
        try:
            values.append(pipeline(resampled))
        except (ValueError, RuntimeError):
            failed += 1
    if failed > max_failure_fraction * replicates:
        raise RuntimeError(
            f"{failed} of {replicates} bootstrap replicates failed; the metric "
            "is unstable under resampling (often a connectivity requirement)"
        )
    reps = np.array(values)
    se = float(np.std(reps, ddof=1)) if reps.size > 1 else float("nan")
    z = float(ndtri(1 - level / 2))
    lo, hi = np.percentile(reps, [100 * level / 2, 100 * (1 - level / 2)])
    return DeltaDistribution(
        metric=metric,
        point=float(point),
        replicates=reps,
        bias=float(np.mean(reps) - point),
        standard_error=se,
        ci_percentile=(float(lo), float(hi)),
        ci_normal=(float(point - z * se), float(point + z * se)),
        level=level,
        block_length=block_length,
        requested=replicates,
        failed=failed,
        seed=int(seed),
    )
