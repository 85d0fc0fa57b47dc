import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fcnets.runtime import derive_seed, parallel_map, rng_for, to_json


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


def test_to_json_deterministic_and_sorted():
    obj = {"b": np.arange(3), "a": {"y": 1.5, "x": np.float64(2.25)}}
    s1, s2 = to_json(obj), to_json(obj)
    assert s1 == s2
    parsed = json.loads(s1)
    assert parsed == {"a": {"x": 2.25, "y": 1.5}, "b": [0, 1, 2]}
    assert list(parsed) == ["a", "b"]


@given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
def test_derive_seed_in_range(seed, label):
    val = derive_seed(seed, label)
    assert 0 <= val < 2**64


def test_parallel_map_empty():
    assert parallel_map(_square, [], workers=4) == []
