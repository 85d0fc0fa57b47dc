"""Association estimators: node x time series in, symmetric connection matrix out.

Five measures are provided: Pearson correlation, shrunk partial correlation,
band-averaged magnitude-squared coherence, binned mutual information, and a
generalized synchronization index built on delay embeddings. Every estimator
returns a ConnectionMatrix with exact symmetry and a zero diagonal.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from .panels import BandSpec, _parse_csv_matrix


@dataclass
class ConnectionMatrix:
    """Symmetric n x n association values with a zero diagonal."""

    values: np.ndarray
    measure: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError("values must be square")
        if not _symmetrise(values[None])[0]:
            raise ValueError("values must be symmetric")
        self.values = values

    @property
    def n(self):
        return self.values.shape[0]

    def save(self, path):
        """Write values as CSV plus a JSON sidecar (<path>.json) with measure/params."""
        np.savetxt(path, self.values, delimiter=",", fmt="%.17g")
        with open(str(path) + ".json", "w") as fh:
            json.dump(
                {"measure": self.measure, "params": self.params, "n": self.n},
                fh,
                sort_keys=True,
                indent=2,
            )
            fh.write("\n")


def load_connection_matrix(path):
    """Read a matrix CSV (a header row is ignored) and its JSON sidecar, if any."""
    values, _ = _parse_csv_matrix(path)
    try:
        with open(str(path) + ".json") as fh:
            meta = json.load(fh)
        measure, params = meta.get("measure", "unknown"), meta.get("params", {})
    except FileNotFoundError:
        measure, params = "unknown", {}
    return ConnectionMatrix(values, measure, params)


CORRELATION_MEASURES = ("correlation", "partial_correlation")


def _check_variance(series):
    sd = series.std(axis=1)
    bad = np.where(sd == 0)[0]
    if bad.size:
        raise ValueError(f"zero-variance series at node(s) {bad.tolist()}")


def _correlations(stack):
    """Pearson correlations of each (n, T) slice of a (b, n, T) stack, and a
    (b, n) mask of the nodes with zero variance. stack is centred in place.

    The operations are np.corrcoef's, in its order: centre, X @ X^T, scale
    by 1 / (T - 1), divide by the root of the diagonal on each side, clip to
    [-1, 1]. A node has zero variance exactly when its centred sum of
    squares, the diagonal, is 0; its row and column are then left unscaled,
    and its slice is no correlation matrix.
    """
    stack -= stack.mean(axis=-1, keepdims=True)
    r = np.matmul(stack, stack.transpose(0, 2, 1))
    diag = np.diagonal(r, axis1=1, axis2=2)
    zero = diag == 0
    r *= 1.0 / max(stack.shape[-1] - 1, 1)
    sd = np.sqrt(diag)
    sd[zero] = 1.0
    r /= sd[:, :, None]
    r /= sd[:, None, :]
    np.clip(r, -1.0, 1.0, out=r)
    return r, zero


def _symmetrise(values):
    """Average each (n, n) slice of a (b, n, n) stack with its transpose and
    zero its diagonal, in place. Returns the (b,) mask of slices that were
    symmetric to within 1e-12 absolute beforehand (np.allclose with
    rtol=0, so the tolerance does not grow with the values). A slice at a
    time, the temporaries stay the size of one matrix."""
    ok = np.empty(len(values), dtype=bool)
    for k, v in enumerate(values):
        ok[k] = np.allclose(v, v.T, rtol=0, atol=1e-12)
        np.divide(v + v.T, 2.0, out=v)
        np.fill_diagonal(v, 0.0)
    return ok


def correlation_matrix(series):
    """Pearson correlation for every node pair (`_correlations` on a stack of one)."""
    series = np.array(series, dtype=float)
    if series.ndim != 2:
        raise ValueError("series must be a 2-d node x time array")
    r, zero = _correlations(series[None])
    bad = np.flatnonzero(zero[0])
    if bad.size:
        raise ValueError(f"zero-variance series at node(s) {bad.tolist()}")
    return ConnectionMatrix(r[0], "correlation", {})


def partial_correlation_matrix(series, shrinkage=0.0):
    """Partial correlation from the inverse of a shrunk covariance.

    The sample covariance S is shrunk toward its own diagonal,
    (1 - shrinkage) * S + shrinkage * diag(S), then inverted; entry (i, j) is
    -Q_ij / sqrt(Q_ii * Q_jj) for Q the inverse. shrinkage > 0 is required
    whenever S is singular (e.g., fewer time points than nodes).
    """
    if not 0.0 <= shrinkage <= 1.0:
        raise ValueError("shrinkage must be in [0, 1]")
    series = np.asarray(series, dtype=float)
    _check_variance(series)
    S = np.cov(series)
    S = np.atleast_2d(S)
    shrunk = (1.0 - shrinkage) * S + shrinkage * np.diag(np.diag(S))
    try:
        Q = np.linalg.inv(shrunk)
        if not np.all(np.isfinite(Q)) or np.linalg.cond(shrunk) > 1e12:
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        raise ValueError(
            "shrunk covariance is singular or ill-conditioned; "
            "increase shrinkage above 0 (common when T <= n)"
        ) from None
    d = np.sqrt(np.diag(Q))
    p = np.clip(-Q / np.outer(d, d), -1.0, 1.0)
    # inv() is symmetric only up to rounding that grows with the condition
    # number (about 6e-12 at 5e5), more than ConnectionMatrix accepts
    _symmetrise(p[None])
    return ConnectionMatrix(p, "partial_correlation", {"shrinkage": shrinkage})


def _welch_spectra(series, segment_count, sampling_interval):
    """Averaged auto/cross spectra over 50%-overlapped Hann-tapered segments.

    Returns (freqs, S) with S[i, j, f] the averaged cross spectrum. Segment
    length is the largest L with (segment_count + 1) * L / 2 <= T.
    """
    n, T = series.shape
    seg_len = int(2 * T // (segment_count + 1))
    if seg_len < 8:
        raise ValueError(
            f"segment length {seg_len} < 8 samples; fewer segments or a longer series is needed"
        )
    step = seg_len // 2
    starts = range(0, T - seg_len + 1, step)
    window = np.hanning(seg_len)
    freqs = np.fft.rfftfreq(seg_len, d=sampling_interval)
    S = np.zeros((n, n, freqs.size), dtype=complex)
    count = 0
    for s0 in starts:
        seg = series[:, s0 : s0 + seg_len]
        seg = seg - seg.mean(axis=1, keepdims=True)
        F = np.fft.rfft(seg * window, axis=1)
        S += F[:, None, :] * np.conj(F)[None, :, :]
        count += 1
    return freqs, S / count


def coherence_matrix(series, band, segment_count=8, sampling_interval=1.0):
    """Band-averaged magnitude-squared coherence.

    Per frequency bin, |S_xy|^2 / (S_xx * S_yy) with Welch-averaged spectra;
    the reported value is the mean over bins falling inside the band.
    """
    series = np.asarray(series, dtype=float)
    _check_variance(series)
    band.validate_for(sampling_interval)
    freqs, S = _welch_spectra(series, segment_count, sampling_interval)
    inband = (freqs >= band.low_hz - 1e-12) & (freqs <= band.high_hz + 1e-12) & (freqs > 0)
    if not np.any(inband):
        raise ValueError(f"no FFT bins inside band ({band.low_hz}, {band.high_hz}) Hz")
    auto = np.real(np.einsum("iif->if", S))
    denom = auto[:, None, :] * auto[None, :, :]
    coh = np.abs(S) ** 2 / np.maximum(denom, 1e-300)
    vals = coh[:, :, inband].mean(axis=2)
    vals = np.clip(np.real(vals), 0.0, 1.0)
    return ConnectionMatrix(
        vals,
        "coherence",
        {
            "low_hz": band.low_hz,
            "high_hz": band.high_hz,
            "segment_count": segment_count,
            "sampling_interval": sampling_interval,
        },
    )


def _rank_bins(x, bins):
    """Equiprobable bin index per sample via ranks (ties broken by position)."""
    T = x.size
    ranks = np.empty(T, dtype=np.int64)
    ranks[np.argsort(x, kind="stable")] = np.arange(T)
    return np.minimum(ranks * bins // T, bins - 1)


def mutual_information_matrix(series, bins=None, normalized=False):
    """Plug-in mutual information (bits) over equiprobable-marginal 2-D histograms.

    Rank binning makes the estimate invariant under strictly monotone
    transforms of either series. Default bins = ceil(sqrt(T / 5)); pass bins
    explicitly when calibrating against a known value, since the plug-in bias
    grows with bins^2 / T. With normalized=True, values are divided by the
    smaller marginal entropy, mapping onto [0, 1].
    """
    series = np.asarray(series, dtype=float)
    n, T = series.shape
    sd = series.std(axis=1)
    bad = np.where(sd == 0)[0]
    if bad.size:
        raise ValueError(f"constant series at node(s) {bad.tolist()}: bins undefined")
    if bins is None:
        bins = int(np.ceil(np.sqrt(T / 5)))
    bins = int(bins)
    if bins < 2:
        raise ValueError("bins must be >= 2")
    codes = np.vstack([_rank_bins(series[i], bins) for i in range(n)])
    # marginal entropies from the (near-uniform) rank bins
    H = np.empty(n)
    for i in range(n):
        counts = np.bincount(codes[i], minlength=bins)
        p = counts[counts > 0] / T
        H[i] = -np.sum(p * np.log2(p))
    vals = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            joint = np.bincount(codes[i] * bins + codes[j], minlength=bins * bins) / T
            joint = joint.reshape(bins, bins)
            pi = joint.sum(axis=1, keepdims=True)
            pj = joint.sum(axis=0, keepdims=True)
            nz = joint > 0
            mi = np.sum(joint[nz] * np.log2(joint[nz] / (pi @ pj)[nz]))
            if normalized:
                mi = mi / min(H[i], H[j])
            vals[i, j] = vals[j, i] = max(mi, 0.0)
    return ConnectionMatrix(
        vals, "mutual_information", {"bins": bins, "normalized": bool(normalized)}
    )


@dataclass(frozen=True)
class DelayEmbedding:
    """Delay-vector embedding: lag (samples), dimension, and neighbor count."""

    lag: int = 2
    dim: int = 3
    neighbor_count: int = 5

    def __post_init__(self):
        for name in ("lag", "dim", "neighbor_count"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.lag < 1 or self.dim < 2 or self.neighbor_count < 1:
            raise ValueError("need lag >= 1, dim >= 2, neighbor_count >= 1")

    def vector_count(self, T):
        return T - (self.dim - 1) * self.lag

    def window(self):
        # temporal exclusion radius for neighbor searches
        return (self.dim - 1) * self.lag


def _delay_vectors(x, embed):
    B = embed.vector_count(x.size)
    idx = np.arange(B)[:, None] + embed.lag * np.arange(embed.dim)[None, :]
    return x[idx]


# Up to this many neighbours, argmin rounds pick them; above it, and on a
# tie, `np.argpartition` does. A round is one pass over the (B, B)
# distances, so the rounds cost grows with k while `np.argpartition`'s
# does not; at B = 296 one costs about as much as 19 rounds.
ROUNDS_MAX_K = 18


def _nearest_by_rounds(d2, k):
    """Flat indices (B, k) of each row's k nearest, or None on a tie.

    Round j takes each row's argmin and sets it to inf. The picks are the k
    nearest of their row, and the only such set, unless one more argmin
    reaches the k-th distance again (or a NaN was picked, which argmin
    takes first). On a tie d2 is restored and None is returned; a row that
    ran out of finite distances picked some entry twice, so the rounds are
    restored last to first and each entry ends at its first-read value.
    """
    B = d2.shape[0]
    flat = d2.reshape(-1)
    offsets = np.arange(0, B * B, B)
    picks, values = np.empty((k, B), dtype=np.intp), np.empty((k, B))
    for j in range(k):
        np.add(d2.argmin(axis=1), offsets, out=picks[j])
        flat.take(picks[j], out=values[j])
        flat.put(picks[j], np.inf)
    following = flat.take(d2.argmin(axis=1) + offsets)
    # values[0] <= values[-1] is False only where a NaN was picked
    if np.all((following > values[-1]) & (values[0] <= values[-1])):
        return picks.T
    flat.put(picks[::-1], values[::-1])
    return None


def _neighbor_indices(series, embed):
    """Per node, (B, k) indices: row b holds the k nearest delay vectors of b,
    in no order.

    Temporal neighbors closer than the embedding window (b itself included)
    are excluded so trivially-adjacent vectors never count as recurrences.
    For k <= ROUNDS_MAX_K, k argmin rounds find the neighbours
    (`_nearest_by_rounds`). Above it, or where a row ties at its k-th
    distance, `np.argpartition` picks them, and so which of the tied
    vectors count, on that node's distances. The rounds find the only k
    nearest of each row, so the sets do not depend on the method. The
    (B, B) distance buffers are shared by all nodes: fresh
    ones would each be a new memory map once B^2 floats outgrow the
    allocator's threshold.
    """
    B, k = embed.vector_count(series.shape[1]), embed.neighbor_count
    cols = np.arange(B)[:, None] + np.arange(1 - embed.window(), embed.window())
    # flat indices of the (b, c) with |b - c| < window
    excluded = (cols + np.arange(0, B * B, B)[:, None])[(cols >= 0) & (cols < B)]
    d2, gram = np.empty((B, B)), np.empty((B, B))
    for x in series:
        vectors = _delay_vectors(x, embed)
        sq = np.sum(vectors**2, axis=1)
        d2[:] = sq
        d2 += sq[:, None]
        np.matmul(vectors, vectors.T, out=gram)
        gram *= 2.0
        d2 -= gram
        d2.put(excluded, np.inf)
        near = _nearest_by_rounds(d2, k) if k <= ROUNDS_MAX_K else None
        yield np.argpartition(d2, k - 1, axis=1)[:, :k] if near is None else near % B


def synchronization_matrix(series, embed=DelayEmbedding()):
    """Generalized synchronization via nearest-neighbor coincidence.

    Each series is delay-embedded; for every time index the k nearest delay
    vectors are found in each node's own embedded space (`_neighbor_indices`:
    argmin rounds up to k = ROUNDS_MAX_K, and `np.argpartition`'s choice
    above it or where a row ties at its k-th distance). The
    index for a pair is the average fraction of shared neighbor indices,
    which is 1 for identical series and near k/B for independent ones. The
    two directed fractions coincide by construction; their average is
    reported.
    """
    series = np.asarray(series, dtype=float)
    _check_variance(series)
    n, T = series.shape
    B = embed.vector_count(T)
    if B <= embed.neighbor_count + 2 * embed.window():
        raise ValueError(
            f"series too short for embedding: {B} delay vectors with window {embed.window()}"
        )
    k = embed.neighbor_count
    # row i of the n x B^2 membership marks (b, c) when c is a neighbor of b
    # for node i; one sparse product counts the shared pairs of every two
    # nodes. The counts are at most B * k, so int32 holds them.
    cols = [(np.arange(B)[:, None] * B + idx).ravel() for idx in _neighbor_indices(series, embed)]
    member = csr_matrix(
        (np.ones(n * B * k, dtype=np.int32), np.concatenate(cols), np.arange(n + 1) * (B * k)),
        shape=(n, B * B),
    )
    shared = (member @ member.T).toarray()
    np.fill_diagonal(shared, 0)
    vals = shared / (B * k)
    return ConnectionMatrix(
        vals,
        "synchronization",
        {"lag": embed.lag, "dim": embed.dim, "neighbor_count": embed.neighbor_count},
    )


ESTIMATOR_NAMES = (
    "correlation",
    "partial_correlation",
    "coherence",
    "mutual_information",
    "synchronization",
)


def estimate(series, name, params=None):
    """Dispatch an estimator by name with a keyword-parameter dict.

    Coherence accepts band as a (low, high) pair; synchronization accepts
    lag / dim / neighbor_count in place of an embedding object. A parameter
    it does not take, or of the wrong type, raises ValueError.
    """
    try:
        params = dict(params or {})
        if name == "correlation":
            return correlation_matrix(series, **params)
        if name == "partial_correlation":
            return partial_correlation_matrix(series, **params)
        if name == "coherence":
            band = params.pop("band", None)
            if band is None:
                raise ValueError("coherence needs a band: [low_hz, high_hz]")
            if not isinstance(band, BandSpec):
                band = BandSpec(*band)
            return coherence_matrix(series, band, **params)
        if name == "mutual_information":
            return mutual_information_matrix(series, **params)
        if name == "synchronization":
            try:
                embed = DelayEmbedding(**params)
            except ValueError as exc:
                raise ValueError(f"estimator {name!r} failed: {exc}") from exc
            return synchronization_matrix(series, embed)
    except TypeError as exc:
        raise ValueError(f"estimator {name!r} failed: {exc}") from exc
    raise ValueError(f"unknown estimator {name!r}; choose from {ESTIMATOR_NAMES}")
