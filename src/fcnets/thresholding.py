"""Thresholding: connection matrices to binary or weighted networks.

Three binary families: a fixed cutoff (by value, edgewise significance, or
the minimum-connections-while-connected rule), a fixed average degree, and a
fixed edge density (directly or through a path-length exponent). Weighted
retention policies live here too.

Conventions shared by all selectors: the negative-entry policy is applied
first ("drop" ignores negatives, "absolute" ranks by magnitude); ties at a
cutoff break lexicographically by (i, j); "round" means half-up,
floor(x + 0.5).
"""

from __future__ import annotations

import inspect

import numpy as np
from scipy import stats
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .estimators import CORRELATION_MEASURES
from .networks import Network


def _round_half_up(x):
    return int(np.floor(x + 0.5))


def _policy_values(cm, negatives):
    if negatives not in ("drop", "absolute"):
        raise ValueError(f"unknown negative policy {negatives!r}")
    vals = cm.values.copy()
    if negatives == "absolute":
        vals = np.abs(vals)
    return vals


def _ranked_pairs(vals, n):
    """All i<j pairs sorted by value desc, ties by (i, j) lexicographic."""
    iu, ju = np.triu_indices(n, 1)
    w = vals[iu, ju]
    order = np.lexsort((ju, iu, -w))
    return iu[order], ju[order], w[order]


def _connecting_weight(ii, jj, w, usable, n):
    """Weight of the last pair in the shortest connected prefix of the
    ranked pairs, or None if no usable prefix connects all n nodes.

    Connectivity only grows with the prefix, so the prefix is found by
    bisection on its length.
    """
    unusable = np.flatnonzero(~usable)
    k_max = int(unusable[0]) if unusable.size else w.size

    def connected(k):
        graph = coo_matrix((np.ones(k), (ii[:k], jj[:k])), shape=(n, n))
        return connected_components(graph, directed=False)[0] == 1

    if k_max == 0 or not connected(k_max):
        return None
    lo, hi = n - 1, k_max
    while lo < hi:
        mid = (lo + hi) // 2
        if connected(mid):
            hi = mid
        else:
            lo = mid + 1
    return w[hi - 1]


def _correlation_pvalues(cm, series_length):
    if cm.measure not in CORRELATION_MEASURES:
        raise ValueError(
            f"significance thresholding needs a correlation-family matrix, got {cm.measure!r}"
        )
    if series_length is None or series_length <= 3:
        raise ValueError("significance thresholding needs series_length > 3")
    r = np.clip(cm.values, -1 + 1e-15, 1 - 1e-15)
    t = r * np.sqrt((series_length - 2) / (1.0 - r**2))
    return 2.0 * stats.t.sf(np.abs(t), series_length - 2)


def _bh_adjust(p):
    """Benjamini-Hochberg step-up adjusted p-values (monotone in p-rank)."""
    p = np.asarray(p, dtype=float)
    m = p.size
    order = np.argsort(p, kind="stable")
    scaled = p[order] * m / np.arange(1, m + 1)
    q = np.minimum.accumulate(scaled[::-1])[::-1]
    out = np.empty(m)
    out[order] = np.minimum(q, 1.0)
    return out


def apply_fixed_threshold(
    cm,
    criterion="value",
    tau=None,
    alpha=0.05,
    correction="bonferroni",
    series_length=None,
    negatives="drop",
):
    """Binary network from a single cutoff rule.

    criterion "value": edge iff entry > tau.
    criterion "significance": edge iff corrected p < alpha, with the entry
    treated as a correlation from series_length samples and tested through
    the t transform r * sqrt((T - 2) / (1 - r^2)); correction is
    "bonferroni" or "bh-fdr".
    criterion "min_connected": the sparsest value cutoff keeping all n nodes
    in one connected component; edges are all entries >= the connecting
    weight.
    """
    n = cm.n
    vals = _policy_values(cm, negatives)
    iu, ju = np.triu_indices(n, 1)

    if criterion == "value":
        if tau is None:
            raise ValueError("criterion 'value' needs tau")
        mask = vals[iu, ju] > tau
        meta = {"threshold": {"criterion": "value", "tau": tau, "negatives": negatives}}
    elif criterion == "significance":
        pv = _correlation_pvalues(cm, series_length)[iu, ju]
        if negatives == "drop":
            sign_ok = cm.values[iu, ju] > 0
        else:
            sign_ok = np.ones(pv.size, dtype=bool)
        if correction == "bonferroni":
            q = np.minimum(pv * pv.size, 1.0)
        elif correction == "bh-fdr":
            q = _bh_adjust(pv)
        elif correction in (None, "none"):
            q = pv
        else:
            raise ValueError(f"unknown correction {correction!r}")
        mask = (q < alpha) & sign_ok
        meta = {
            "threshold": {
                "criterion": "significance",
                "alpha": alpha,
                "correction": correction or "none",
                "series_length": series_length,
                "negatives": negatives,
            }
        }
    elif criterion == "min_connected":
        ii, jj, w = _ranked_pairs(vals, n)
        usable = w > 0 if negatives == "drop" else np.ones(w.size, dtype=bool)
        w_connect = _connecting_weight(ii, jj, w, usable, n)
        if w_connect is None:
            raise ValueError(
                "min_connected impossible: graph cannot be connected under the "
                f"'{negatives}' negative policy"
            )
        mask = vals[iu, ju] >= w_connect
        if negatives == "drop":
            mask &= vals[iu, ju] > 0
        meta = {
            "threshold": {
                "criterion": "min_connected",
                "connecting_weight": float(w_connect),
                "negatives": negatives,
            }
        }
    else:
        raise ValueError(f"unknown criterion {criterion!r}")

    return Network(n, np.column_stack((iu[mask], ju[mask])), meta=meta)


def apply_fixed_degree(cm, k_target, negatives="drop"):
    """Keep exactly round(n * k_target / 2) top-ranked entries.

    k_target is the desired mean degree and may be fractional.
    """
    n = cm.n
    E = _round_half_up(n * k_target / 2.0)
    max_edges = n * (n - 1) // 2
    if E > max_edges:
        raise ValueError(f"target edge count {E} exceeds possible {max_edges}")
    ii, jj, w = _ranked_pairs(_policy_values(cm, negatives), n)
    return Network(
        n,
        np.column_stack((ii[:E], jj[:E])),
        meta={"threshold": {"criterion": "fixed_degree", "k_target": k_target, "negatives": negatives}},
    )


def apply_fixed_density(cm, density=None, path_exponent=None, negatives="drop"):
    """Keep a fixed fraction of possible edges, or match a path-length exponent.

    With path_exponent S, the implied mean degree is k = n**(1/S) (from
    n = k**S) and the fixed-degree rule applies.
    """
    n = cm.n
    if (density is None) == (path_exponent is None):
        raise ValueError("give exactly one of density or path_exponent")
    if density is not None:
        if not 0 < density <= 1:
            raise ValueError("density must be in (0, 1]")
        E = _round_half_up(density * n * (n - 1) / 2.0)
        ii, jj, _ = _ranked_pairs(_policy_values(cm, negatives), n)
        return Network(
            n,
            np.column_stack((ii[:E], jj[:E])),
            meta={"threshold": {"criterion": "fixed_density", "density": density, "negatives": negatives}},
        )
    S = float(path_exponent)
    if S <= 1:
        raise ValueError("path_exponent must be > 1")
    k = n ** (1.0 / S)
    if k >= n:
        raise ValueError(f"implied mean degree {k:.3g} not below n={n}")
    net = apply_fixed_degree(cm, k, negatives=negatives)
    net.meta = {
        "threshold": {
            "criterion": "fixed_density",
            "path_exponent": S,
            "implied_k": k,
            "negatives": negatives,
        }
    }
    return net


def weighted_network(cm, policy="keep_positive", tau=None):
    """Weighted network retaining connection strengths.

    policy "keep_positive" drops non-positive entries, "absolute" keeps
    magnitudes, "threshold_then_keep" keeps original weights above tau.
    """
    n = cm.n
    iu, ju = np.triu_indices(n, 1)
    w = cm.values[iu, ju]
    if policy == "keep_positive":
        mask = w > 0
        kept = w
    elif policy == "absolute":
        kept = np.abs(w)
        mask = kept > 0
    elif policy == "threshold_then_keep":
        if tau is None:
            raise ValueError("threshold_then_keep needs tau")
        mask = w > tau
        kept = w
        if np.any(mask & (kept <= 0)):
            raise ValueError("threshold_then_keep with tau <= 0 would retain non-positive weights")
    else:
        raise ValueError(f"unknown policy {policy!r}")
    if not np.any(mask):
        raise ValueError(f"policy {policy!r} eliminated every weight")
    return Network(
        n, np.column_stack((iu[mask], ju[mask])), kept[mask], {"weights": {"policy": policy, "tau": tau}}
    )


_SPEC_FUNCTIONS = {
    "fixed_threshold": apply_fixed_threshold,
    "fixed_degree": apply_fixed_degree,
    "fixed_density": apply_fixed_density,
    "weighted": weighted_network,
}
THRESHOLD_METHODS = tuple(_SPEC_FUNCTIONS)


def spec_problems(spec):
    """Problems with a thresholding spec {"method": ..., **kwargs}, or [].

    The spec must be an object naming a known method; its other keys must
    be parameters of that method's function, and every parameter without a
    default must be given.
    """
    if not isinstance(spec, dict):
        return [f"threshold spec must be an object, got {spec!r}"]
    method = spec.get("method")
    if method not in THRESHOLD_METHODS:
        return [f"unknown threshold method {method!r}; choose from {THRESHOLD_METHODS}"]
    params = list(inspect.signature(_SPEC_FUNCTIONS[method]).parameters.values())[1:]
    names = [p.name for p in params]
    unknown = [k for k in spec if k != "method" and k not in names]
    missing = [p.name for p in params if p.default is p.empty and p.name not in spec]
    problems = []
    if unknown:
        problems.append(f"threshold method {method!r} has no parameter {unknown}; parameters: {names}")
    if missing:
        problems.append(f"threshold method {method!r} needs {missing}")
    return problems


def apply_spec(cm, spec):
    """Dispatch a thresholding spec dict {"method": ..., **kwargs}.

    A malformed spec, or a parameter of the wrong type, raises ValueError.
    """
    problems = spec_problems(spec)
    if problems:
        raise ValueError("; ".join(problems))
    params = {k: v for k, v in spec.items() if k != "method"}
    try:
        return _SPEC_FUNCTIONS[spec["method"]](cm, **params)
    except TypeError as exc:
        raise ValueError(f"threshold spec {spec!r} failed: {exc}") from exc
