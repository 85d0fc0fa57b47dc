"""The undirected network container produced by thresholding.

A `Network` on nodes 0..n-1 holds its edges as two arrays: `pairs`, an
(m, 2) int64 array of canonical (i < j) node pairs in lexicographic order,
and `weights`, a float64 array of m strictly positive finite edge weights,
or None for an unweighted network. Both are read-only. Degrees, the dense
adjacency and the sparse matrices the metrics use are built from these
arrays on each call; nothing is cached. `edges` is the same edge list as
Python tuples, (i, j) or (i, j, w).

`BinaryNetwork(n, edges)` and `WeightedNetwork(n, triples)` build a
`Network` from an edge list. Persistence is an edge-list TSV whose first
line is a JSON header comment recording n and provenance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


def _first(mask):
    """Index of the first True entry of a boolean array, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


@dataclass(init=False, eq=False)
class Network:
    """Undirected graph on nodes 0..n-1, unweighted or with positive weights.

    Validation reports the first offending edge in input order (self-loop
    or repeated pair), then the first bad weight, then the first edge, in
    sorted order, with a node outside 0..n-1. As a dataclass it has a
    repr and a field view (dataclasses.asdict) that show its contents.
    """

    n: int
    pairs: np.ndarray
    weights: np.ndarray | None
    meta: dict

    def __init__(self, n, pairs, weights=None, meta=None):
        p = np.asarray(pairs, dtype=np.int64)
        if p.size == 0:
            p = p.reshape(0, 2)
        if p.ndim != 2 or p.shape[1] != 2:
            raise ValueError("edges must be (i, j) node pairs")
        a, b = p[:, 0], p[:, 1]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        order = np.lexsort((hi, lo))  # stable: repeats follow their first occurrence
        lo_s, hi_s = lo[order], hi[order]
        repeat = np.zeros(len(p), dtype=bool)
        repeat[order[1:]] = (lo_s[1:] == lo_s[:-1]) & (hi_s[1:] == hi_s[:-1])
        bad = _first((a == b) | repeat)
        if bad is not None:
            if a[bad] == b[bad]:
                raise ValueError(f"self-loop ({a[bad]}, {b[bad]})")
            raise ValueError(f"duplicate edge ({lo[bad]}, {hi[bad]})")
        if weights is not None:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (len(p),):
                raise ValueError(f"need one weight per edge, got {w.shape} for {len(p)} edges")
            bad = _first(~(np.isfinite(w) & (w > 0)))
            if bad is not None:
                raise ValueError(
                    f"edge ({lo[bad]}, {hi[bad]}) weight must be positive and finite, "
                    f"got {float(w[bad])}"
                )
            weights = w[order]
            weights.flags.writeable = False
        bad = _first((lo_s < 0) | (hi_s >= n))
        if bad is not None:
            raise ValueError(f"edge ({lo_s[bad]}, {hi_s[bad]}) outside node range 0..{n - 1}")
        self.n = int(n)
        self.pairs = np.column_stack((lo_s, hi_s))
        self.pairs.flags.writeable = False
        self.weights = weights
        self.meta = {} if meta is None else meta

    @property
    def edge_count(self):
        return len(self.pairs)

    @property
    def edges(self):
        """Edges as Python tuples in pair order: (i, j), or (i, j, w) when weighted."""
        cols = self.pairs.T.tolist()
        if self.weights is not None:
            cols.append(self.weights.tolist())
        return list(zip(*cols))

    def edge_weights(self):
        """Weights in pair order; 1.0 for every edge of an unweighted network."""
        return np.ones(self.edge_count) if self.weights is None else self.weights

    def degrees(self):
        return np.bincount(self.pairs.ravel(), minlength=self.n)

    def adjacency(self):
        """Dense symmetric adjacency: int8 0/1, or float64 weights."""
        weighted = self.weights is not None
        A = np.zeros((self.n, self.n), dtype=np.float64 if weighted else np.int8)
        i, j = self.pairs.T
        A[i, j] = A[j, i] = self.weights if weighted else 1
        return A

    def binary(self):
        """The same edges without weights; meta is copied."""
        return Network(self.n, self.pairs, meta=dict(self.meta))

    def save(self, path):
        header = {"n": self.n}
        header.update(self.meta)
        with open(path, "w") as fh:
            fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
            if self.weights is None:
                fh.writelines(f"{a}\t{b}\n" for a, b in self.edges)
            else:
                fh.writelines(f"{a}\t{b}\t{w:.17g}\n" for a, b, w in self.edges)


def BinaryNetwork(n, edges, meta=None):
    """Unweighted network from an edge list of (i, j) pairs."""
    return Network(n, edges, meta=meta)


def WeightedNetwork(n, triples, meta=None):
    """Weighted network from an edge list of (i, j, weight) triples."""
    triples = list(triples)
    pairs = [(a, b) for a, b, _ in triples]
    return Network(n, pairs, [w for _, _, w in triples], meta)


def load_network(path):
    """Load an edge-list TSV; returns a weighted Network if lines carry weights.

    The first line must be a '# {json}' header object carrying at least n,
    a nonnegative integer.
    """
    with open(path) as fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise ValueError(f"{path}: missing JSON header line")
        header = json.loads(first[1:].strip())
        n = header.get("n") if isinstance(header, dict) else None
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError(f"{path}: header must be a JSON object with a nonnegative integer n")
        meta = {k: v for k, v in header.items() if k != "n"}
        pairs, weights = [], []
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) not in (2, 3):
                raise ValueError(f"{path}: bad edge line {line!r}")
            pairs.append((int(parts[0]), int(parts[1])))
            if len(parts) == 3:
                weights.append(float(parts[2]))
    if weights and len(weights) != len(pairs):
        raise ValueError(f"{path}: mixed weighted and unweighted lines")
    return Network(n, pairs, weights or None, meta)


def from_adjacency(A, meta=None):
    """Build a network from a dense adjacency matrix (weights if non-0/1)."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    iu, ju = np.triu_indices(n, 1)
    w = A[iu, ju]
    keep = w != 0
    w = w[keep]
    return Network(n, np.column_stack((iu[keep], ju[keep])), None if np.all(w == 1.0) else w, meta)
