"""Association estimators: node x time series in, symmetric connection matrix out.

Five measures are provided: Pearson correlation, shrunk partial correlation,
band-averaged magnitude-squared coherence, binned mutual information, and a
generalized synchronization index built on delay embeddings. Every estimator
returns a ConnectionMatrix with exact symmetry and a zero diagonal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .panels import BandSpec


@dataclass
class ConnectionMatrix:
    """Symmetric n x n association values with a zero diagonal."""

    values: np.ndarray
    measure: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise ValueError("values must be square")
        if not np.allclose(self.values, self.values.T, atol=1e-12):
            raise ValueError("values must be symmetric")
        self.values = (self.values + self.values.T) / 2.0
        np.fill_diagonal(self.values, 0.0)

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
    values = np.loadtxt(path, delimiter=",", ndmin=2)
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


def correlation_matrix(series):
    """Pearson correlation for every node pair."""
    series = np.asarray(series, dtype=float)
    _check_variance(series)
    r = np.corrcoef(series)
    r = np.clip(r, -1.0, 1.0)
    return ConnectionMatrix(r, "correlation", {})


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
    p = -Q / np.outer(d, d)
    p = np.clip(p, -1.0, 1.0)
    np.fill_diagonal(p, 0.0)
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


def _neighbor_membership(vectors, embed):
    """Boolean (B, B) matrix: row b marks the k nearest delay vectors of b.

    Temporal neighbors closer than the embedding window are excluded so
    trivially-adjacent vectors never count as recurrences.
    """
    B = vectors.shape[0]
    k = embed.neighbor_count
    sq = np.sum(vectors**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (vectors @ vectors.T)
    offsets = np.abs(np.arange(B)[:, None] - np.arange(B)[None, :])
    d2[offsets < embed.window()] = np.inf
    np.fill_diagonal(d2, np.inf)
    member = np.zeros((B, B), dtype=bool)
    part = np.argpartition(d2, k - 1, axis=1)[:, :k]
    np.put_along_axis(member, part, True, axis=1)
    return member


def synchronization_matrix(series, embed=DelayEmbedding()):
    """Generalized synchronization via nearest-neighbor coincidence.

    Each series is delay-embedded; for every time index the k nearest delay
    vectors are found in each node's own embedded space. The index for a pair
    is the average fraction of shared neighbor indices, which is 1 for
    identical series and near k/B for independent ones. The two directed
    fractions coincide by construction; their average is reported.
    """
    series = np.asarray(series, dtype=float)
    _check_variance(series)
    n, T = series.shape
    B = embed.vector_count(T)
    if B <= embed.neighbor_count + 2 * embed.window():
        raise ValueError(
            f"series too short for embedding: {B} delay vectors with window {embed.window()}"
        )
    members = [_neighbor_membership(_delay_vectors(series[i], embed), embed) for i in range(n)]
    k = embed.neighbor_count
    vals = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            shared = np.sum(members[i] & members[j]) / (B * k)
            vals[i, j] = vals[j, i] = shared
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
    lag / dim / neighbor_count in place of an embedding object.
    """
    params = dict(params or {})
    if name == "correlation":
        return correlation_matrix(series)
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
        embed_kw = {
            k: params.pop(k) for k in ("lag", "dim", "neighbor_count") if k in params
        }
        if params:
            raise ValueError(f"unknown synchronization parameters {sorted(params)}")
        return synchronization_matrix(series, DelayEmbedding(**embed_kw))
    raise ValueError(f"unknown estimator {name!r}; choose from {ESTIMATOR_NAMES}")
