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
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.special import stdtr

from .estimators import CORRELATION_MEASURES
from .networks import Network


def _round_half_up(x):
    return int(np.floor(x + 0.5))


def _policy_values(values, negatives):
    if negatives not in ("drop", "absolute"):
        raise ValueError(f"unknown negative policy {negatives!r}")
    return np.abs(values) if negatives == "absolute" else values


def _top_pairs(w, count):
    """(b, P) mask of the `count` largest entries of each row of w, with ties
    at the cut taken in column order and NaN ranked last.

    One partition per row finds the count-th value (the cut), and every
    entry above or at it is kept. A NaN cut means fewer than count entries
    are not NaN: all of those are above it and the NaNs tie at it. Only when
    some row then keeps more than count entries are its ties counted off in
    column order.
    """
    if count <= 0:
        return np.zeros(w.shape, dtype=bool)
    if count >= w.shape[1]:
        return np.ones(w.shape, dtype=bool)
    neg = -w
    cut = np.partition(neg, count - 1, axis=1)[:, count - 1 : count]
    above, at = neg < cut, neg == cut
    nan_cut = np.isnan(cut)
    if nan_cut.any():
        nan = np.isnan(neg)
        above |= nan_cut & ~nan
        at |= nan_cut & nan
    keep = above | at
    if np.count_nonzero(keep) > count * len(keep):
        room = count - np.count_nonzero(above, axis=1, keepdims=True)
        keep = above | (at & (np.cumsum(at, axis=1) <= room))
    return keep


def _ranked_pairs(vals, n, count=None):
    """The first `count` (default all) i<j pairs sorted by value desc, ties by
    (i, j) lexicographic: the stable sort keeps within ties the (i, j) order
    np.triu_indices yields, and NaN ranks last.

    A prefix does not sort every pair: `_top_pairs` picks it, and only its
    pairs are sorted.
    """
    iu, ju = np.triu_indices(n, 1)
    w = vals[iu, ju]
    if count is not None:
        keep = np.flatnonzero(_top_pairs(w[None], count)[0])
        iu, ju, w = iu[keep], ju[keep], w[keep]
    order = np.argsort(-w, kind="stable")
    return iu[order], ju[order], w[order]


def _connecting_weight(ii, jj, w, usable, n):
    """Weight of the last pair in the shortest connected prefix of the
    ranked pairs, or None if no usable prefix connects all n nodes.

    Usable pairs form a prefix of the ranking. In a minimum spanning tree of
    them costed by rank, the largest rank is where the shortest connecting
    prefix ends; a tree of fewer than n - 1 edges means none connects. Ranks,
    not weights, are the costs, so a zero weight stays an edge and ties keep
    their (i, j) order.
    """
    unusable = np.flatnonzero(~usable)
    k = int(unusable[0]) if unusable.size else w.size
    ranks = np.arange(1.0, k + 1)
    tree = minimum_spanning_tree(coo_matrix((ranks, (ii[:k], jj[:k])), shape=(n, n)))
    if k == 0 or tree.nnz < n - 1:
        return None
    return w[int(tree.data.max()) - 1]


def _correlation_pvalues(cm, series_length):
    if cm.measure not in CORRELATION_MEASURES:
        raise ValueError(
            f"significance thresholding needs a correlation-family matrix, got {cm.measure!r}"
        )
    if series_length is None or series_length <= 3:
        raise ValueError("significance thresholding needs series_length > 3")
    r = np.clip(cm.values, -1 + 1e-15, 1 - 1e-15)
    t = r * np.sqrt((series_length - 2) / (1.0 - r**2))
    return 2.0 * stdtr(series_length - 2, -np.abs(t))


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
    criterion "significance": edge iff corrected p < alpha, 0 < alpha < 1,
    with the entry treated as a correlation from series_length samples and
    tested through the t transform r * sqrt((T - 2) / (1 - r^2)); correction
    is "bonferroni" or "bh-fdr".
    criterion "min_connected": the sparsest value cutoff keeping all n nodes
    in one connected component; edges are all entries >= the connecting
    weight. A single node is connected already: it gets no edge and a
    connecting weight of None.
    """
    n = cm.n
    vals = _policy_values(cm.values, negatives)
    iu, ju = np.triu_indices(n, 1)

    if criterion == "value":
        if tau is None:
            raise ValueError("criterion 'value' needs tau")
        mask = vals[iu, ju] > tau
        meta = {"threshold": {"criterion": "value", "tau": tau, "negatives": negatives}}
    elif criterion == "significance":
        if not 0 < alpha < 1:  # NaN fails too
            raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
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
        if n == 1:  # one node is connected without an edge
            w_connect, mask = None, np.zeros(0, dtype=bool)
        else:
            w_connect = _connecting_weight(ii, jj, w, usable, n)
            if w_connect is None:
                raise ValueError(
                    "min_connected impossible: graph cannot be connected under the "
                    f"'{negatives}' negative policy"
                )
            w_connect = float(w_connect)
            mask = vals[iu, ju] >= w_connect
            if negatives == "drop":
                mask &= vals[iu, ju] > 0
        meta = {
            "threshold": {
                "criterion": "min_connected",
                "connecting_weight": w_connect,
                "negatives": negatives,
            }
        }
    else:
        raise ValueError(f"unknown criterion {criterion!r}")

    return Network(n, np.column_stack((iu[mask], ju[mask])), meta=meta)


def _degree_count(n, k_target):
    """Edge count of mean degree k_target on n nodes, round(n * k_target / 2)."""
    E = _round_half_up(n * k_target / 2.0)
    max_edges = n * (n - 1) // 2
    if E > max_edges:
        raise ValueError(f"target edge count {E} exceeds possible {max_edges}")
    return E


def _density_count(n, density=None, path_exponent=None):
    """Edge count of a fixed-density rule on n nodes, and the mean degree a
    path exponent implies (None for a density)."""
    if (density is None) == (path_exponent is None):
        raise ValueError("give exactly one of density or path_exponent")
    if density is not None:
        if not 0 < density <= 1:
            raise ValueError("density must be in (0, 1]")
        return _round_half_up(density * n * (n - 1) / 2.0), None
    S = float(path_exponent)
    if S <= 1:
        raise ValueError("path_exponent must be > 1")
    k = n ** (1.0 / S)
    if k >= n:
        raise ValueError(f"implied mean degree {k:.3g} not below n={n}")
    return _degree_count(n, k), k


TOP_EDGE_METHODS = ("fixed_degree", "fixed_density")


def top_edge_masks(values, spec):
    """The i<j pairs (in np.triu_indices order) that a fixed_degree or
    fixed_density spec keeps in each slice of a (b, n, n) stack of values:
    a (b, n(n-1)/2) mask from one partition per slice (`_top_pairs`)."""
    params = {k: v for k, v in spec.items() if k != "method"}
    negatives = params.pop("negatives", "drop")
    n = values.shape[-1]
    if spec["method"] == "fixed_degree":
        count = _degree_count(n, **params)
    else:
        count = _density_count(n, **params)[0]
    iu, ju = np.triu_indices(n, 1)
    return _top_pairs(_policy_values(values[:, iu, ju], negatives), count)


def _top_network(cm, count, negatives, meta):
    iu, ju = np.triu_indices(cm.n, 1)
    keep = _top_pairs(_policy_values(cm.values[iu, ju], negatives)[None], count)[0]
    return Network(cm.n, np.column_stack((iu[keep], ju[keep])), meta={"threshold": meta})


def apply_fixed_degree(cm, k_target, negatives="drop"):
    """Keep exactly round(n * k_target / 2) top-ranked entries.

    k_target is the desired mean degree and may be fractional.
    """
    meta = {"criterion": "fixed_degree", "k_target": k_target, "negatives": negatives}
    return _top_network(cm, _degree_count(cm.n, k_target), negatives, meta)


def apply_fixed_density(cm, density=None, path_exponent=None, negatives="drop"):
    """Keep a fixed fraction of possible edges, or match a path-length exponent.

    With path_exponent S, the implied mean degree is k = n**(1/S) (from
    n = k**S) and the fixed-degree rule applies.
    """
    count, k = _density_count(cm.n, density, path_exponent)
    if k is None:
        meta = {"criterion": "fixed_density", "density": density, "negatives": negatives}
    else:
        meta = {
            "criterion": "fixed_density",
            "path_exponent": float(path_exponent),
            "implied_k": k,
            "negatives": negatives,
        }
    return _top_network(cm, count, negatives, meta)


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
