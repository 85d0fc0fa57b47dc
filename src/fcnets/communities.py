"""Community structure: modularity, detection, and node-role cartography.

Modularity of a partition is the within-community edge fraction minus the
degree-based expectation, summed over communities:

    Q = sum_u [ w_uu / m - (d_u / (2m))^2 ]

with w_uu the within-community edge weight, d_u the community degree sum,
and m the total edge weight. Weighted networks use weight fractions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import components, edge_betweenness
from .networks import Network
from .runtime import derive_seed


@dataclass
class Partition:
    """Node-to-community assignment with contiguous ids and its modularity."""

    assignment: np.ndarray
    q: float = 0.0

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=int)
        # relabel to contiguous ids in first-appearance order
        seen = {}
        out = np.empty_like(a)
        for i, c in enumerate(a):
            if c not in seen:
                seen[c] = len(seen)
            out[i] = seen[c]
        self.assignment = out

    @property
    def community_count(self):
        return int(self.assignment.max()) + 1 if self.assignment.size else 0

    def communities(self):
        return [np.where(self.assignment == c)[0] for c in range(self.community_count)]


def modularity(g, assignment):
    """Evaluate Q for an assignment (array of community ids, one per node)."""
    a = np.asarray(assignment, dtype=int)
    if a.size != g.n:
        raise ValueError(f"assignment covers {a.size} nodes, graph has {g.n}")
    if np.any(a < 0):
        raise ValueError("unassigned node (negative community id)")
    w = g.edge_weights()
    m = sum(w.tolist())
    if m == 0:
        return 0.0
    ncomm = int(a.max()) + 1
    ends = a[g.pairs]
    same = ends[:, 0] == ends[:, 1]
    # bincount adds in edge order, as a loop over the edges would
    within = np.bincount(ends[same, 0], weights=w[same], minlength=ncomm)
    degsum = np.bincount(ends.ravel(), weights=np.repeat(w, 2), minlength=ncomm)
    return float(np.sum(within / m - (degsum / (2 * m)) ** 2))


def _neighbor_weights(g):
    nbrs = [dict() for _ in range(g.n)]
    for (a, b), w in zip(g.pairs.tolist(), g.edge_weights().tolist()):
        nbrs[a][b] = nbrs[a].get(b, 0.0) + w
        nbrs[b][a] = nbrs[b].get(a, 0.0) + w
    return nbrs


def _louvain_level(nbrs, n, m, rng):
    """One Louvain level: greedy local moves until no gain; returns assignment."""
    comm = np.arange(n)
    strength = np.array([sum(d.values()) for d in nbrs])
    comm_total = strength.astype(float).copy()  # total strength per community
    improved_any = False
    while True:
        moved = 0
        for i in rng.permutation(n):
            ci = comm[i]
            ki = strength[i]
            # weights from i to each neighboring community
            to_comm = {}
            for j, w in nbrs[i].items():
                if j == i:
                    continue
                to_comm[comm[j]] = to_comm.get(comm[j], 0.0) + w
            comm_total[ci] -= ki
            base = to_comm.get(ci, 0.0) - ki * comm_total[ci] / (2 * m)
            best_c, best_gain = ci, 0.0
            for c, w_ic in to_comm.items():
                if c == ci:
                    continue
                gain = (w_ic - ki * comm_total[c] / (2 * m)) - base
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_c = c
            comm[i] = best_c
            comm_total[best_c] += ki
            if best_c != ci:
                moved += 1
        if moved == 0:
            break
        improved_any = True
    return comm, improved_any


def louvain(g, seed=0):
    """Greedy modularity optimization with community aggregation.

    Deterministic for a given seed: the node sweep order within each pass is
    drawn from the seeded generator, and each node moves to the first
    neighboring community achieving the maximal gain.
    """
    if g.edge_count == 0:
        raise ValueError("community detection needs at least one edge")
    rng = np.random.default_rng(seed)
    n0 = g.n
    assignment = np.arange(n0)
    nbrs = _neighbor_weights(g)
    m = sum(g.edge_weights().tolist())
    node_map = np.arange(n0)  # original node -> current supernode
    while True:
        n_cur = len(nbrs)
        comm, improved = _louvain_level(nbrs, n_cur, m, rng)
        if not improved:
            break
        # relabel and aggregate into a supergraph (self-loops keep within weight)
        labels = {}
        for c in comm:
            if c not in labels:
                labels[c] = len(labels)
        comp = np.array([labels[c] for c in comm])
        node_map = comp[node_map]
        nc = len(labels)
        # aggregate into a supergraph; self-loop weight ends up counted twice,
        # which is what community strength (degree sum) requires
        nbrs2 = [dict() for _ in range(nc)]
        for i in range(n_cur):
            ci = comp[i]
            for j, w in nbrs[i].items():
                cj = comp[j]
                if ci == cj:
                    nbrs2[ci][ci] = nbrs2[ci].get(ci, 0.0) + w
                else:
                    nbrs2[ci][cj] = nbrs2[ci].get(cj, 0.0) + w
        nbrs = nbrs2
        if nc == n_cur:
            break
    part = Partition(node_map)
    part.q = modularity(g, part.assignment)
    return part


def girvan_newman(g, max_communities=None):
    """Divisive detection by repeated removal of the highest-betweenness edge.

    Returns the partition along the dendrogram with the highest modularity.
    Bounded to n <= 500; larger graphs should use louvain.
    """
    if g.n > 500:
        raise ValueError("girvan_newman is bounded to n <= 500; use louvain for larger graphs")
    if g.edge_count == 0:
        raise ValueError("community detection needs at least one edge")
    work = g

    def comp_assignment(net):
        a = np.zeros(net.n, dtype=int)
        for cid, comp in enumerate(components(net)):
            a[comp] = cid
        return a

    best_a = comp_assignment(work)
    best_q = modularity(g, best_a)
    ncomp = int(best_a.max()) + 1
    while work.edge_count > 0:
        if max_communities is not None and ncomp >= max_communities:
            break
        ebc = edge_betweenness(work)
        target = max(sorted(ebc), key=lambda e: (ebc[e], (-e[0], -e[1])))
        keep = np.any(work.pairs != target, axis=1)
        work = Network(work.n, work.pairs[keep], None if work.weights is None else work.weights[keep])
        a = comp_assignment(work)
        ncomp_new = int(a.max()) + 1
        if ncomp_new != ncomp:
            q = modularity(g, a)
            if q > best_q + 1e-12:
                best_q = q
                best_a = a
            ncomp = ncomp_new
    part = Partition(best_a)
    part.q = modularity(g, part.assignment)
    return part


@dataclass
class NodeRole:
    node: int
    within_module_z: float
    participation: float
    role: str
    degenerate: bool = False


HUB_Z = 2.5
NONHUB_P_CUTS = (0.05, 0.62, 0.80)  # R1 | R2 | R3 | R4
HUB_P_CUTS = (0.30, 0.75)  # R5 | R6 | R7


def cartography(g, assignment, hub_z=HUB_Z, nonhub_cuts=NONHUB_P_CUTS, hub_cuts=HUB_P_CUTS):
    """Role taxonomy from within-module degree z-score and participation.

    z is the node's within-community degree standardized inside its own
    community (population standard deviation); size-1 communities and
    zero-variance communities give z = 0 with a degeneracy flag. The
    participation coefficient is 1 - sum over modules of (k_im / k_i)^2.
    Roles: nonhubs (z < hub_z) split at participation 0.05 / 0.62 / 0.80
    into R1-R4; hubs split at 0.30 / 0.75 into R5-R7.
    """
    a = np.asarray(assignment, dtype=int)
    if a.size != g.n:
        raise ValueError("assignment does not cover all nodes")
    n = g.n
    ncomm = int(a.max()) + 1
    i, j = g.pairs.T
    deg = g.degrees().astype(float)
    k_im = np.zeros((n, ncomm))
    np.add.at(k_im, (i, a[j]), 1.0)
    np.add.at(k_im, (j, a[i]), 1.0)
    within = k_im[np.arange(n), a]
    z = np.zeros(n)
    degen = np.zeros(n, dtype=bool)
    for c in range(ncomm):
        mask = a == c
        if mask.sum() < 2:
            degen[mask] = True
            continue
        mu = within[mask].mean()
        sd = within[mask].std()
        if sd == 0:
            degen[mask] = True
            continue
        z[mask] = (within[mask] - mu) / sd
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = k_im / np.maximum(deg[:, None], 1)
    p = 1.0 - np.sum(frac**2, axis=1)
    p[deg == 0] = 0.0
    roles = []
    for i in range(n):
        if z[i] >= hub_z:
            if p[i] <= hub_cuts[0]:
                role = "R5"
            elif p[i] <= hub_cuts[1]:
                role = "R6"
            else:
                role = "R7"
        else:
            if p[i] < nonhub_cuts[0]:
                role = "R1"
            elif p[i] <= nonhub_cuts[1]:
                role = "R2"
            elif p[i] <= nonhub_cuts[2]:
                role = "R3"
            else:
                role = "R4"
        roles.append(
            NodeRole(
                node=i,
                within_module_z=float(z[i]),
                participation=float(p[i]),
                role=role,
                degenerate=bool(degen[i]),
            )
        )
    return roles


def normalized_mutual_information(a, b):
    """NMI between two assignments: 2 I(A;B) / (H(A) + H(B)), natural log."""
    a = np.asarray(a, dtype=int)
    b = np.asarray(b, dtype=int)
    if a.size != b.size:
        raise ValueError("assignments must cover the same nodes")
    n = a.size
    ka, kb = a.max() + 1, b.max() + 1
    joint = np.zeros((ka, kb))
    np.add.at(joint, (a, b), 1.0)
    joint /= n
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    ha = -np.sum(pa[pa > 0] * np.log(pa[pa > 0]))
    hb = -np.sum(pb[pb > 0] * np.log(pb[pb > 0]))
    nz = joint > 0
    mi = np.sum(joint[nz] * np.log(joint[nz] / np.outer(pa, pb)[nz]))
    if ha + hb == 0:
        return 1.0  # both partitions trivial, hence identical in structure
    return float(2.0 * mi / (ha + hb))


def louvain_runs(g, runs, seed=0):
    """Repeated seeded detections with the pairwise NMI of their partitions."""
    parts = [louvain(g, seed=derive_seed(seed, "louvain_run", r)) for r in range(runs)]
    nmi = np.ones((runs, runs))
    for i in range(runs):
        for j in range(i + 1, runs):
            nmi[i, j] = nmi[j, i] = normalized_mutual_information(
                parts[i].assignment, parts[j].assignment
            )
    return parts, nmi
