"""The generators give identical inputs, and identical files, for the same seed."""

import os

import bench_paths  # noqa: F401
import numpy as np
import pytest

import inputs

GENERATED = {
    "cohort": inputs.cohort_study,
    "graph_nulls": inputs.graph_nulls_inputs,
    "group_models": inputs.group_models_inputs,
}


def same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


def files(directory):
    out = {}
    for base, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = fh.read()
    return out


@pytest.mark.parametrize("workload", sorted(GENERATED))
def test_same_seed_same_inputs(workload):
    make = GENERATED[workload]
    assert same(make(3), make(3))
    assert not same(make(3), make(4))


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_same_seed_same_files(workload, tmp_path):
    make, write = inputs.GENERATORS[workload]
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    write(str(first), make(5))
    write(str(second), make(5))
    assert files(first) == files(second)


def test_cohort_plants_what_the_checks_expect():
    study = inputs.cohort_study(1)
    assert len(study["series"]) == 2 * inputs.COHORT_GROUP
    assert all(x.shape == (inputs.COHORT_N, inputs.COHORT_T) for x in study["series"])
    assert np.bincount(study["modules"]).tolist() == [inputs.COHORT_N // inputs.COHORT_MODULES] * inputs.COHORT_MODULES
    planted = study["planted_nodes"]
    assert len(set(study["modules"][planted])) == 1
    coords = study["coordinates"][planted]
    spread = np.linalg.norm(coords[:, None] - coords[None], axis=2)
    assert spread.max() < inputs.COHORT_SPC_RADIUS


def test_powerlaw_sampler_matches_its_law():
    rng = np.random.default_rng(0)
    x = inputs.discrete_powerlaw(2.5, 2, 200000, rng)
    assert x.min() == 2
    # P(X = 2) = 2^-2.5 / zeta(2.5, 2)
    from scipy.special import zeta

    assert np.mean(x == 2) == pytest.approx(2**-2.5 / zeta(2.5, 2), abs=0.005)


def test_read_back_series_matches_written(tmp_path):
    study = inputs.cohort_study(2)
    inputs.write_cohort(str(tmp_path), study)
    back = inputs.read_series_csv(str(tmp_path / "subject_00.csv"))
    np.testing.assert_allclose(back, study["series"][0], rtol=1e-9)
