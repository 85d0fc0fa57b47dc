"""Execution plumbing shared by every analysis: seed fan-out, worker pools,
and deterministic JSON serialization.

A single user-facing seed is expanded into independent per-stage and per-item
seeds by hashing, so results never depend on scheduling order or worker count.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

WORKERS_ENV = "FCNETS_WORKERS"


def derive_seed(seed, *labels):
    """Derive a child seed from a parent seed and any number of labels.

    Hash-based (SHA-256), so the result is stable across processes and
    Python versions; builtin hash() is salted per process and unusable here.
    """
    key = ":".join([str(int(seed))] + [str(lab) for lab in labels])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def rng_for(seed, *labels):
    """Generator seeded by derive_seed(seed, *labels)."""
    return np.random.default_rng(derive_seed(seed, *labels))


def resolve_workers(workers=None):
    """Decide the worker count: explicit argument, else env var, else 1."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(WORKERS_ENV)
    if env:
        return max(1, int(env))
    return 1


def parallel_map(fn, items, workers=None):
    """Map fn over items, serially or on a process pool.

    Results come back in input order regardless of completion order, so the
    output is identical for any worker count. fn must be picklable
    (module-level) when workers > 1. The pool has at most one worker per
    item: under fork it starts all its workers at once.
    """
    items = list(items)
    nw = min(resolve_workers(workers), len(items))
    if nw <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=nw) as pool:
        return list(pool.map(fn, items))


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):  # before int: a bool is an int
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def to_json(obj):
    """Serialize dataclasses / arrays / scalars to deterministic JSON text.

    Keys are sorted and floats use repr, so equal inputs give byte-equal
    output. Timestamps do not belong here; they live only in provenance files.
    """
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"


def write_json(path, obj):
    """Write to_json(obj)'s bytes to path, encoded straight into the file
    instead of first building the whole text."""
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")
