import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fcnets import runtime
from fcnets.runtime import derive_seed, parallel_map, rng_for, to_json, write_json


def test_derive_seed_is_stable():
    assert derive_seed(0, "a") == derive_seed(0, "a")
    assert derive_seed(0, "a") != derive_seed(0, "b")
    assert derive_seed(0, "a", 1) != derive_seed(0, "a", 2)
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_derive_seed_known_value_frozen():
    # Frozen so seed derivations never drift between releases.
    assert derive_seed(0, "stage") == 15634820482665065328
    assert derive_seed(42, "x", 3) == 18112890852945942273


def test_rng_for_reproducible():
    a = rng_for(7, "draws").standard_normal(5)
    b = rng_for(7, "draws").standard_normal(5)
    assert np.array_equal(a, b)


def _square(x):
    return x * x


def test_parallel_map_matches_serial_order():
    items = list(range(20))
    assert parallel_map(_square, items, workers=1) == [x * x for x in items]
    assert parallel_map(_square, items, workers=4) == [x * x for x in items]


def test_parallel_map_pool_has_at_most_one_worker_per_item(monkeypatch):
    # a fake executor records the pool size and runs nothing in another process
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(runtime, "ProcessPoolExecutor", FakePool)
    assert parallel_map(_square, [2, 3], workers=8) == [4, 9]
    assert parallel_map(_square, list(range(5)), workers=3) == [x * x for x in range(5)]
    assert parallel_map(_square, [7], workers=8) == [49]
    assert sizes == [2, 3]


def test_to_json_deterministic_and_sorted():
    obj = {"b": np.arange(3), "a": {"y": 1.5, "x": np.float64(2.25)}}
    s1, s2 = to_json(obj), to_json(obj)
    assert s1 == s2
    parsed = json.loads(s1)
    assert parsed == {"a": {"x": 2.25, "y": 1.5}, "b": [0, 1, 2]}
    assert list(parsed) == ["a", "b"]


def test_to_json_writes_booleans():
    text = to_json({"flags": [True, np.bool_(False)], "n": np.int64(1)})
    assert json.loads(text) == {"flags": [True, False], "n": 1}
    assert '"flags": [\n    true,\n    false\n  ]' in text


def test_write_json_writes_the_text_of_to_json(tmp_path):
    @dataclasses.dataclass
    class Report:
        values: np.ndarray
        flags: tuple
        meta: dict

    obj = {
        "z": Report(np.array([[0.1, 2.0], [np.nan, -0.0]]), (True, np.bool_(False)), {3: "é"}),
        "a": [np.int64(7), np.float64(1e-300), float("inf"), None, []],
    }
    path = tmp_path / "report.json"
    write_json(path, obj)
    assert path.read_text() == to_json(obj)


@given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
def test_derive_seed_in_range(seed, label):
    val = derive_seed(seed, label)
    assert 0 <= val < 2**64


def test_parallel_map_empty():
    assert parallel_map(_square, [], workers=4) == []
