"""Uncertainty for derived network metrics via circular block bootstrap.

Replicate panels resample whole time blocks with wraparound, using one set
of block starts shared by every node so cross-node dependence survives.
Every replicate goes through the full estimate -> threshold -> metric
pipeline. Correlation thresholded at a fixed degree or density and measured
by global efficiency runs in stacked chunks of _CHUNK replicates: one
stacked correlation, one partition per replicate for its top edges, and one
breadth-first search over the chunk's graphs as the blocks of one graph.
Every other estimator, threshold and metric runs one replicate at a time.
Both give the same values.

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
from .metrics import block_global_efficiencies, metric_value
from .networks import Network
from .runtime import rng_for

_CHUNK = 8  # replicates per stacked pass: the stack holds 8 * n * T floats


def _checked_block_length(x, block_length):
    """block_length as an int, ceil(sqrt(T)) when None; raises unless x is a
    2-d node x time array and 2 <= block_length <= T."""
    if x.ndim != 2:
        raise ValueError("series must be a 2-d node x time array")
    t = x.shape[1]
    if block_length is None:
        block_length = int(math.ceil(math.sqrt(t)))
    block_length = int(block_length)
    if block_length < 2:
        raise ValueError(f"block_length must be >= 2, got {block_length}")
    if block_length > t:
        raise ValueError(f"block_length {block_length} exceeds series length {t}")
    return block_length


def block_bootstrap(series, block_length=None, replicates=1, seed=0):
    """Circular block bootstrap replicates of a node x time array.

    Default block length is ceil(sqrt(T)). Block starts are drawn once per
    replicate and shared across nodes; blocks wrap around the end of the
    record. block_length = T degenerates to a circular rotation of the
    whole record. Yields (replicate_index, resampled_series).
    """
    x = np.asarray(series, dtype=float)
    block_length = _checked_block_length(x, block_length)
    n, t = x.shape
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
    block-bootstrap resample. Correlation under a fixed_degree or
    fixed_density threshold with global_efficiency runs _CHUNK replicates
    per stacked pass (`_stacked_replicates`); every other combination runs
    one replicate at a time. Replicates whose pipeline raises (for example a
    disconnected replicate under a path-length metric, or a node with zero
    variance in the resample) are skipped; more than max_failure_fraction
    failures aborts with an error.

    Returns a DeltaDistribution with the point estimate, bias (replicate
    mean minus point), standard error, and two central intervals at
    0 < level < 1: the percentile interval and the normal interval
    point +/- z * se.

    Replicates recentre on the sample. For thresholded exceedance metrics
    such as density this shifts the replicate mean away from the point, so
    bias there measures the recentring and not the estimator's bias (see
    scripts/bootstrap_density_experiment.py).
    """
    if replicates < 10:
        raise ValueError("need at least 10 replicates")
    if not 0 < level < 1:
        raise ValueError(f"level must be in (0, 1), got {level!r}")
    x = np.asarray(series, dtype=float)
    block_length = _checked_block_length(x, block_length)
    spec = threshold_spec or {"method": "fixed_threshold", "criterion": "value", "tau": 0.0}

    def pipeline(data):
        cm = estimators.estimate(data, estimator, estimator_params)
        g = thresholding.apply_spec(cm, spec)
        return metric_value(g, metric)

    point = pipeline(x)
    draws = block_bootstrap(x, block_length=block_length, replicates=replicates, seed=seed)
    stacked = (
        estimator == "correlation"
        and spec["method"] in thresholding.TOP_EDGE_METHODS
        and metric == "global_efficiency"
    )
    if stacked:
        values, failed = _stacked_replicates(draws, x.shape, spec)
    else:
        values, failed = [], 0
        for _, resampled in draws:
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


def _stacked_replicates(draws, shape, spec):
    """(global efficiencies, failure count) of the replicates in draws under
    correlation and a fixed_degree or fixed_density spec, _CHUNK at a time.

    Each chunk's resamples fill one reused (_CHUNK, n, T) stack. A replicate
    fails, as `correlation_matrix` and `ConnectionMatrix` would fail it,
    when a node has zero variance or its matrix is not symmetric; the
    others keep their top edges (`thresholding.top_edge_masks`) as the
    diagonal blocks of one network whose blocks are measured in one search
    (`block_global_efficiencies`).
    """
    n, t = shape
    stack = np.empty((_CHUNK, n, t))
    iu, ju = np.triu_indices(n, 1)
    values, failed = [], 0

    def run(count):
        r, zero = estimators._correlations(stack[:count])
        ok = estimators._symmetrise(r) & ~zero.any(axis=1)
        graph, pair = np.nonzero(thresholding.top_edge_masks(r, spec)[ok])
        pairs = np.column_stack((graph * n + iu[pair], graph * n + ju[pair]))
        blocks = Network(int(ok.sum()) * n, pairs)
        values.extend(v for v, _ in block_global_efficiencies(blocks, n))
        return count - int(ok.sum())

    count = 0
    for _, resampled in draws:
        stack[count] = resampled
        count += 1
        if count == _CHUNK:
            failed += run(count)
            count = 0
    if count:
        failed += run(count)
    return values, failed
