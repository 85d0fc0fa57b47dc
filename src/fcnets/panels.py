"""Time-series panel ingestion, band-pass filtering, and scalar transforms.

A panel holds one series matrix (node x time) per subject plus shared
metadata: node labels, optional 3-D node coordinates, and the sampling
interval (seconds per scan). All downstream estimators consume panels.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from numbers import Real

import numpy as np


@dataclass(frozen=True)
class BandSpec:
    """Frequency band in Hz, validated against the panel's Nyquist rate."""

    low_hz: float
    high_hz: float

    def __post_init__(self):
        if not (0 <= self.low_hz < self.high_hz):
            raise ValueError(f"band must satisfy 0 <= low < high, got ({self.low_hz}, {self.high_hz})")

    def validate_for(self, sampling_interval):
        finite = isinstance(sampling_interval, Real) and np.isfinite(sampling_interval)
        if not (finite and sampling_interval > 0):
            raise ValueError(f"sampling interval must be a finite number > 0, got {sampling_interval!r}")
        nyquist = 1.0 / (2.0 * sampling_interval)
        if self.high_hz > nyquist + 1e-12:
            raise ValueError(
                f"band upper edge {self.high_hz} Hz exceeds Nyquist {nyquist:.6g} Hz "
                f"for sampling interval {sampling_interval}s"
            )


@dataclass
class TimeSeriesPanel:
    """Per-subject node x time signals with shared node metadata."""

    subjects: list  # list of 2-D float arrays, node x time
    node_labels: list | None = None
    coordinates: np.ndarray | None = None  # (n, 3) spatial positions
    sampling_interval: float = 1.0

    def __post_init__(self):
        if not self.subjects:
            raise ValueError("panel needs at least one subject")
        self.subjects = [np.asarray(s, dtype=float) for s in self.subjects]
        n = self.subjects[0].shape[0]
        for k, s in enumerate(self.subjects):
            if s.ndim != 2:
                raise ValueError(f"subject {k}: series must be 2-D (node x time)")
            if s.shape[0] != n:
                raise ValueError(f"subject {k}: node count {s.shape[0]} != {n}")
            if s.shape[1] < 3:
                raise ValueError(f"subject {k}: need >= 3 time points, got {s.shape[1]}")
            if not np.all(np.isfinite(s)):
                raise ValueError(f"subject {k}: non-finite values in series")
        if self.node_labels is not None and len(self.node_labels) != n:
            raise ValueError("node_labels length != node count")
        if self.coordinates is not None:
            self.coordinates = np.asarray(self.coordinates, dtype=float)
            if self.coordinates.shape != (n, 3):
                raise ValueError(f"coordinates must be (n, 3), got {self.coordinates.shape}")

    @property
    def subject_count(self):
        return len(self.subjects)


def _parse_csv_matrix(path):
    """Read a numeric CSV, returning (float matrix, header labels or None).

    '#' starts a comment running to the end of its line; lines holding nothing
    but whitespace, commas and a comment are skipped. The first line left is a
    header of labels when any of its cells is not a number; the others are
    rows of numbers, quoted or not, of one width. Every error names the file.
    """
    with open(path) as fh:
        texts = (line.split("#", 1)[0] for line in fh)
        lines = [text for text in texts if text.replace(",", "").strip()]
    header = [cell.strip() for cell in next(csv.reader(lines[:1]), [])]
    try:
        for cell in header:
            float(cell)
        header = None
    except ValueError:
        lines = lines[1:]
    if not lines:
        raise ValueError(f"{path}: no data rows")
    try:
        return np.loadtxt(lines, delimiter=",", quotechar='"', ndmin=2), header
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_timeseries(path, layout="rows-are-time", sampling_interval=1.0):
    """Load a single-subject CSV into a panel normalized to node x time.

    layout declares the file orientation; an optional header row holds node
    labels. Fewer than 3 time points is rejected.
    """
    if layout not in ("rows-are-time", "rows-are-nodes"):
        raise ValueError(f"unknown layout {layout!r}")
    mat, header = _parse_csv_matrix(path)
    series = mat.T if layout == "rows-are-time" else mat
    if series.shape[1] < 3:
        raise ValueError(f"{path}: need >= 3 time points, got {series.shape[1]}")
    labels = header if layout == "rows-are-time" else None
    return TimeSeriesPanel([series], node_labels=labels, sampling_interval=sampling_interval)


def save_timeseries(path, panel, subject=0, layout="rows-are-time"):
    """Write one subject's series as CSV (12 significant digits)."""
    series = panel.subjects[subject]
    mat = series.T if layout == "rows-are-time" else series
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if layout == "rows-are-time" and panel.node_labels is not None:
            writer.writerow(panel.node_labels)
        for row in mat:
            writer.writerow([format(v, ".12g") for v in row])


def load_manifest(path):
    """Load a JSON manifest describing a multi-subject panel.

    Expected keys: "subject_files" (list of CSV paths, relative to the
    manifest), "layout", "sampling_interval", optional "node_labels" and
    "coordinates" (n x 3 list).
    """
    with open(path) as fh:
        spec = json.load(fh)
    base = os.path.dirname(os.path.abspath(path))
    layout = spec.get("layout", "rows-are-time")
    tr = float(spec.get("sampling_interval", 1.0))
    subjects = []
    for rel in spec["subject_files"]:
        fpath = rel if os.path.isabs(rel) else os.path.join(base, rel)
        sub = load_timeseries(fpath, layout=layout, sampling_interval=tr)
        subjects.append(sub.subjects[0])
    coords = spec.get("coordinates")
    return TimeSeriesPanel(
        subjects,
        node_labels=spec.get("node_labels"),
        coordinates=np.array(coords, dtype=float) if coords is not None else None,
        sampling_interval=tr,
    )


def bandpass_filter(panel, band):
    """Band-pass every series by zeroing FFT bins outside [low, high] Hz.

    Frequency-domain masking: exactly specifiable, no filter-design choices.
    A bin is kept iff low <= |f| <= high. With low > 0 the DC bin is removed,
    so each output series has mean ~0.
    """
    band.validate_for(panel.sampling_interval)
    out = []
    for series in panel.subjects:
        T = series.shape[1]
        freqs = np.fft.rfftfreq(T, d=panel.sampling_interval)
        keep = (freqs >= band.low_hz - 1e-12) & (freqs <= band.high_hz + 1e-12)
        spec = np.fft.rfft(series, axis=1)
        spec[:, ~keep] = 0.0
        out.append(np.fft.irfft(spec, n=T, axis=1))
    return TimeSeriesPanel(
        out,
        node_labels=panel.node_labels,
        coordinates=panel.coordinates,
        sampling_interval=panel.sampling_interval,
    )


def fisher_z(r):
    """Variance-stabilizing transform of a correlation: atanh(r).

    Rejects |r| >= 1 rather than returning inf.
    """
    r = np.asarray(r, dtype=float)
    if np.any(np.abs(r) >= 1):
        raise ValueError("fisher_z requires |r| < 1")
    out = np.arctanh(r)
    return float(out) if out.ndim == 0 else out


def inverse_fisher_z(z):
    """Inverse transform: tanh(z)."""
    z = np.asarray(z, dtype=float)
    out = np.tanh(z)
    return float(out) if out.ndim == 0 else out
