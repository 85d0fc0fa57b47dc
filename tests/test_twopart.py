"""Two-part dyad model: structures, dataset assembly, both likelihood parts."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy import integrate, optimize
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit, logit

from fcnets import twopart
from fcnets.estimators import ConnectionMatrix
from fcnets.twopart import (
    _KINDS,
    _PARAMS,
    _SENTINEL,
    STRUCTURE_KINDS,
    _fit_box,
    _objective,
    _presence_marginal,
    _standard_errors,
    _OmegaParam,
    _StrengthDesign,
    _strength_loglik,
    _StrengthModel,
    CorrelationStructure,
    build_dyad_dataset,
    corr_matrix,
    dyad_midpoint_distances,
    kronecker_loglik,
    twopart_fit,
    twopart_predict,
)
from test_acceptance import simulate_dyad_study

TIMES = np.array([0.0, 1.0, 2.0])
DIST3 = np.abs(TIMES[:, None] - TIMES[None, :])


def cm_from_dyads(dyad_vals, n):
    vals = np.zeros((n, n))
    iu, ju = np.triu_indices(n, 1)
    vals[iu, ju] = dyad_vals
    vals += vals.T
    return ConnectionMatrix(vals, "correlation", {})


def rand_corr(rng, k):
    a = rng.standard_normal((k, k + 2))
    c = a @ a.T + k * np.eye(k)
    d = np.sqrt(np.diag(c))
    return c / np.outer(d, d)


# --- correlation structures ---


def test_structure_matrices_hand_values():
    assert np.array_equal(corr_matrix(CorrelationStructure("identity"), DIST3), np.eye(3))
    cs = corr_matrix(CorrelationStructure("compound_symmetry", rho=0.4), DIST3)
    assert cs[0, 1] == cs[0, 2] == 0.4 and np.all(np.diag(cs) == 1)
    ar = corr_matrix(CorrelationStructure("ar1", rho=0.5), DIST3)
    assert np.allclose(ar, [[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]])
    ex = corr_matrix(CorrelationStructure("exponential", phi=2.0), DIST3)
    assert ex[0, 1] == pytest.approx(np.exp(-0.5))
    ga = corr_matrix(CorrelationStructure("gaussian", phi=2.0), DIST3)
    assert ga[0, 2] == pytest.approx(np.exp(-1.0))
    li = corr_matrix(CorrelationStructure("linear", phi=0.4), DIST3)
    assert li[0, 1] == pytest.approx(0.6)
    assert li[0, 2] == pytest.approx(0.2)
    sp = corr_matrix(CorrelationStructure("spherical", phi=2.0), DIST3)
    assert sp[0, 1] == pytest.approx(1 - 1.5 * 0.5 + 0.5 * 0.125)


def test_lear_interpolates_between_limits():
    # delta = 1 makes the exponent equal the distance on a {1, 2} distance set
    lear = corr_matrix(CorrelationStructure("lear", rho=0.6, delta=1.0), DIST3)
    ar = corr_matrix(CorrelationStructure("ar1", rho=0.6), DIST3)
    assert np.allclose(lear, ar)
    # delta = 0 pins every exponent at d_min
    flat = corr_matrix(CorrelationStructure("lear", rho=0.6, delta=0.0), DIST3)
    off = flat[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 0.6)


def test_damped_exponential_nests_ar1():
    damp = corr_matrix(CorrelationStructure("damped_exponential", rho=0.7, nu=1.0), DIST3)
    ar = corr_matrix(CorrelationStructure("ar1", rho=0.7), DIST3)
    assert np.allclose(damp, ar)


def test_all_structures_produce_valid_correlations():
    examples = {
        "identity": {},
        "compound_symmetry": {"rho": 0.3},
        "ar1": {"rho": 0.6},
        "lear": {"rho": 0.6, "delta": 0.8},
        "damped_exponential": {"rho": 0.6, "nu": 0.7},
        "exponential": {"phi": 2.0},
        "gaussian": {"phi": 2.0},
        "linear": {"phi": 0.2},
        "spherical": {"phi": 3.0},
    }
    assert set(examples) == set(STRUCTURE_KINDS)
    for kind, params in examples.items():
        m = corr_matrix(CorrelationStructure(kind, **params), DIST3)
        assert np.allclose(np.diag(m), 1.0)
        assert np.allclose(m, m.T)
        assert np.linalg.eigvalsh(m).min() >= -1e-8


def test_structure_guards():
    with pytest.raises(ValueError, match="unknown structure"):
        CorrelationStructure("toeplitz")
    with pytest.raises(ValueError, match="unset"):
        corr_matrix(CorrelationStructure("ar1"), DIST3)
    with pytest.raises(ValueError, match="rho"):
        corr_matrix(CorrelationStructure("ar1", rho=1.2), DIST3)
    with pytest.raises(ValueError, match="phi"):
        corr_matrix(CorrelationStructure("exponential", phi=-1.0), DIST3)
    with pytest.raises(ValueError, match="d_max > d_min"):
        corr_matrix(CorrelationStructure("lear", rho=0.5, delta=1.0), np.ones((3, 3)) - np.eye(3))
    with pytest.raises(ValueError, match="square"):
        corr_matrix(CorrelationStructure("ar1", rho=0.5), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="exponential takes no parameter rho"):
        CorrelationStructure("exponential", rho=0.5)
    with pytest.raises(ValueError, match="d_min"):
        CorrelationStructure("lear", d_min=-1.0)
    assert CorrelationStructure("lear", d_min=0.0, d_max=2.0).d_max == 2.0
    # an int beyond int64 that a float holds starts the fit like that float
    om = _OmegaParam(CorrelationStructure("exponential", phi=10**30), DIST3, 3)
    assert om.start.tolist() == [np.log(1e30)]


@pytest.mark.parametrize(
    "kind, name", [(kind, name) for kind, spec in _KINDS.items() for name in spec.params]
)
def test_structure_param_table(kind, name):
    # out of range, not a number, a bool, or an int too large for a float:
    # rejected at construction, naming the param
    p = _PARAMS[name]
    bad = [p.low - 1.0, np.nan, "0.5", True, np.bool_(True), 10**400]
    bad += [] if p.closed else [p.low]
    bad += [p.high] if np.isfinite(p.high) else []
    for value in bad:
        with pytest.raises(ValueError, match=name):
            CorrelationStructure(kind, **{name: value})
    # an in-range value comes back from the optimizer coordinate it starts at
    value = p.low + 0.3 * (min(p.high, p.low + 10.0) - p.low)
    om = _OmegaParam(CorrelationStructure(kind, **{name: value}), DIST3, 3)
    assert getattr(om.structure_at(om.start), name) == pytest.approx(value, rel=0, abs=1e-12)


def test_non_psd_structure_rejected():
    # a non-metric distance set: both far points sit next to the first
    d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 50.0], [1.0, 50.0, 0.0]])
    with pytest.raises(ValueError, match="positive semidefinite"):
        corr_matrix(CorrelationStructure("ar1", rho=0.9), d)


def test_dyad_midpoint_distances():
    coords = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    d = dyad_midpoint_distances(coords, [(0, 1), (2, 3), (0, 3)])
    assert d[0, 1] == pytest.approx(2.0)
    assert d[0, 2] == pytest.approx(1.0)
    assert d[0, 0] == 0.0


# --- dataset assembly ---


def test_build_dataset_ordering_and_presence():
    mats = [
        [cm_from_dyads([0.5, -0.2, 0.1], 3), cm_from_dyads([0.4, 0.3, -0.6], 3)],
        [cm_from_dyads([0.2, 0.2, 0.2], 3), cm_from_dyads([-0.1, 0.6, 0.05], 3)],
    ]
    data = build_dyad_dataset(mats, threshold=0.0)
    assert data.n_subjects == 2 and data.n_tasks == 2
    assert list(data.subject) == [0] * 6 + [1] * 6
    assert list(data.task) == [0, 0, 0, 1, 1, 1] * 2
    assert list(data.dyad) == [0, 1, 2] * 4
    # subject 0 task 0: negatives zeroed and absent
    assert list(data.y[:3]) == [0.5, 0.0, 0.1]
    assert list(data.v[:3]) == [1.0, 0.0, 1.0]
    assert data.dyads == [(0, 1), (0, 2), (1, 2)]


def test_build_dataset_threshold():
    data = build_dyad_dataset([cm_from_dyads([0.5, 0.1, 0.3], 3)], threshold=0.2)
    assert list(data.v) == [1.0, 0.0, 1.0]
    assert list(data.y) == [0.5, 0.1, 0.3]  # strengths kept raw above zero


def test_build_dataset_covariates():
    mats = [cm_from_dyads([0.5, 0.2, 0.3], 3) for _ in range(4)]
    data = build_dyad_dataset(
        mats, covariates={"age": [10.0, 20.0, 30.0, 40.0], "x": np.arange(12.0)}
    )
    assert np.array_equal(data.covariates["age"], np.repeat([10.0, 20.0, 30.0, 40.0], 3))
    assert np.array_equal(data.covariates["x"], np.arange(12.0))
    X = data.design(("intercept", "age"))
    assert X.shape == (12, 2) and np.all(X[:, 0] == 1)
    with pytest.raises(ValueError, match="unknown covariate"):
        data.design(("intercept", "height"))
    with pytest.raises(ValueError, match="expected"):
        build_dyad_dataset(mats, covariates={"bad": np.arange(5.0)})


def test_build_dataset_covariate_coincident_shapes():
    # 2 nodes -> 1 dyad, so subject-level and row-level lengths coincide;
    # the expansion is the identity there, so either reading gives these rows
    mats = [cm_from_dyads([0.5], 2) for _ in range(3)]
    data = build_dyad_dataset(mats, covariates={"a": [1.0, 2.0, 3.0]})
    assert np.array_equal(data.covariates["a"], [1.0, 2.0, 3.0])


def test_build_dataset_guards():
    with pytest.raises(ValueError, match="at least one task"):
        build_dyad_dataset([])
    ragged = [[cm_from_dyads([0.5, 0.2, 0.3], 3)], []]
    with pytest.raises(ValueError, match="subjects"):
        build_dyad_dataset(ragged)
    mats = [cm_from_dyads([0.5, 0.2, 0.3], 3), cm_from_dyads([0.5, 0.2, 0.3], 3)]
    with pytest.raises(ValueError, match="subjects"):
        build_dyad_dataset([mats, mats[:1]])
    mi = ConnectionMatrix(np.zeros((3, 3)), "mutual_information", {})
    with pytest.raises(ValueError, match="correlation-family"):
        build_dyad_dataset([mi])
    with pytest.raises(ValueError, match="one row per node"):
        build_dyad_dataset(mats, coordinates=np.zeros((2, 3)))


# --- Kronecker likelihood against a dense oracle ---


def test_kronecker_matches_dense(rng):
    T, D = 3, 4
    gamma = rand_corr(rng, T)
    omega = rand_corr(rng, D)
    sigma_task = np.array([0.8, 1.2, 0.5])
    tau2 = 0.3
    blocks = [rng.standard_normal((T, D)) for _ in range(2)]
    ll = kronecker_loglik(blocks, gamma, omega, sigma_task, tau2)
    S = np.diag(sigma_task)
    cov = tau2 * np.ones((T * D, T * D)) + np.kron(S @ gamma @ S, omega)
    ref = 0.0
    for R in blocks:
        r = R.flatten()
        _, logdet = np.linalg.slogdet(cov)
        ref += -0.5 * (r.size * np.log(2 * np.pi) + logdet + r @ np.linalg.solve(cov, r))
    assert ll == pytest.approx(ref, abs=1e-10)


def test_kronecker_identity_gamma_decomposes(rng):
    # independent tasks with no shared intercept: the likelihood is the sum
    # of per-task Gaussian log-densities under sigma_t^2 Omega
    T, D = 2, 5
    omega = rand_corr(rng, D)
    sigma_task = np.array([0.7, 1.3])
    R = rng.standard_normal((T, D))
    ll = kronecker_loglik([R], np.eye(T), omega, sigma_task, 0.0)
    ref = 0.0
    for t in range(T):
        cov = sigma_task[t] ** 2 * omega
        _, logdet = np.linalg.slogdet(cov)
        ref += -0.5 * (D * np.log(2 * np.pi) + logdet + R[t] @ np.linalg.solve(cov, R[t]))
    assert ll == pytest.approx(ref, abs=1e-10)


def test_kronecker_shape_guard(rng):
    with pytest.raises(ValueError, match="residual block"):
        kronecker_loglik([np.zeros((2, 3))], np.eye(2), np.eye(2), np.ones(2), 0.1)


# --- fitting ---


@pytest.fixture(scope="module")
def identical_subject_fit():
    # five identical subjects: 9 of 15 dyads present with graded strengths
    dyad_vals = np.concatenate([0.4 + 0.02 * np.arange(9), np.full(6, -0.2)])
    mats = [cm_from_dyads(dyad_vals, 6) for _ in range(5)]
    data = build_dyad_dataset(mats)
    fit = twopart_fit(data)
    return data, fit


def test_presence_intercept_identity(identical_subject_fit):
    # no subject heterogeneity: the random-effect variance collapses and the
    # intercept must equal the log-odds of the observed presence rate
    _, fit = identical_subject_fit
    assert fit.presence.beta[0] == pytest.approx(logit(0.6), abs=1e-3)
    assert fit.presence.tau < 1e-2


def test_strength_intercept_is_mean_transformed(identical_subject_fit):
    data, fit = identical_subject_fit
    present = data.y[data.v > 0]
    assert fit.strength.beta[0] == pytest.approx(np.arctanh(present).mean(), abs=1e-6)
    assert fit.strength.gamma_kind == "identity"
    assert fit.strength.omega.kind == "identity"


def test_predict_backtransforms(identical_subject_fit):
    _, fit = identical_subject_fit
    out = twopart_predict(fit, {})
    assert out["presence_probability"][0] == pytest.approx(expit(fit.presence.beta[0]))
    assert out["expected_strength"][0] == pytest.approx(np.tanh(fit.strength.beta[0]))


def test_strength_recovers_covariate_slope(rng):
    n, subjects = 5, 5
    iu_count = 10
    x = rng.uniform(-1, 1, size=subjects * iu_count)
    eta = 0.2 + 0.15 * x + 0.03 * rng.standard_normal(x.size)
    mats = [cm_from_dyads(np.tanh(eta[s * iu_count : (s + 1) * iu_count]), n) for s in range(subjects)]
    data = build_dyad_dataset(mats, covariates={"x": x})
    if np.all(data.v == 1.0):
        data.v[0] = 0.0  # keep the logistic part estimable
    fit = twopart_fit(data, strength_formula=("intercept", "x"))
    assert fit.strength.beta[1] == pytest.approx(0.15, abs=0.05)
    assert fit.strength.beta[0] == pytest.approx(0.2, abs=0.05)
    assert fit.strength.se.shape == (2,)


def test_presence_covariate_direction(rng):
    n, subjects = 5, 6
    rows = subjects * 10
    x = rng.uniform(-1, 1, size=rows)
    p = expit(0.3 + 1.5 * x)
    vals = np.where(rng.random(rows) < p, 0.5, -0.5)
    mats = [cm_from_dyads(vals[s * 10 : (s + 1) * 10], n) for s in range(subjects)]
    data = build_dyad_dataset(mats, covariates={"x": x})
    fit = twopart_fit(data, presence_formula=("intercept", "x"), maxfev=1500)
    assert fit.presence.beta[1] > 0.4
    lo, hi = twopart_predict(fit, {"x": np.array([-1.0, 1.0])})["presence_probability"]
    assert hi > lo


def test_omega_exponential_over_midpoints(rng):
    xs = np.arange(4.0)
    coords = np.column_stack([xs, 0.05 * xs**2, np.zeros(4)])
    vals = np.vstack([0.3 + 0.1 * rng.random(6) for _ in range(4)])
    vals[3, 0] = -0.2  # one absent row keeps presence non-constant
    mats = [cm_from_dyads(v, 4) for v in vals]
    data = build_dyad_dataset(mats, coordinates=coords)
    fit = twopart_fit(data, omega=CorrelationStructure("exponential"), maxfev=1200)
    om = fit.strength.omega_matrix
    assert np.allclose(np.diag(om), 1.0)
    assert np.all((om > 0) & (om <= 1))
    assert np.linalg.eigvalsh(om).min() >= -1e-8
    assert fit.strength.omega.kind == "exponential" and fit.strength.omega.phi > 0
    assert "omega_phi" in fit.strength.param_se
    assert "tau_over_s" in fit.strength.param_se


def test_coincident_midpoints_raise_named_error(rng):
    coords = np.column_stack([np.arange(4.0), np.zeros(4), np.zeros(4)])
    vals = np.vstack([0.3 + 0.1 * rng.random(6) for _ in range(4)])
    vals[3, 0] = -0.2
    mats = [cm_from_dyads(v, 4) for v in vals]
    data = build_dyad_dataset(mats, coordinates=coords)
    with pytest.raises(ValueError, match="midpoint"):
        twopart_fit(data, omega=CorrelationStructure("exponential"))


def test_gamma_unstructured_two_tasks(rng):
    vals_t0 = np.vstack([0.35 + 0.1 * rng.random(6) for _ in range(4)])
    vals_t1 = np.vstack([0.30 + 0.1 * rng.random(6) for _ in range(4)])
    vals_t0[1:, 5] = -0.1  # incomplete blocks exercise the dense path
    mats = [
        [cm_from_dyads(v, 4) for v in vals_t0],
        [cm_from_dyads(v, 4) for v in vals_t1],
    ]
    data = build_dyad_dataset(mats)
    fit = twopart_fit(data, gamma="unstructured", maxfev=1500)
    G = fit.strength.gamma_matrix
    assert fit.strength.gamma_kind == "unstructured"
    assert G.shape == (2, 2)
    assert np.allclose(np.diag(G), 1.0)
    assert -1 < G[0, 1] < 1
    assert fit.strength.sigma_task.shape == (2,)


def test_strength_fit_matches_dense_numpy_oracle():
    # two tasks, a subject covariate, an exponential Omega and an unstructured
    # Gamma; subjects 0-2 have complete task-by-dyad blocks, 3-5 do not
    rng = np.random.default_rng(20)
    xs = np.arange(4.0)
    coords = np.column_stack([xs, 0.05 * xs**2, np.zeros(4)])
    age = np.array([-1.0, -0.4, 0.1, 0.5, 0.9, 1.3])
    vals = 0.3 + 0.05 * age[None, :, None] + 0.1 * rng.random((2, 6, 6))
    # dyad noise that decays exponentially with midpoint distance, so that the
    # likelihood peaks at an interior phi (without it, it rises as phi -> 0)
    dist = dyad_midpoint_distances(coords, list(zip(*np.triu_indices(4, 1))))
    vals += 0.05 * rng.standard_normal((2, 6, 6)) @ np.linalg.cholesky(np.exp(-dist / 1.5)).T
    vals[0, 3, 1] = vals[1, 4, 0] = vals[1, 4, 5] = vals[0, 5, 2] = -0.2
    mats = [[cm_from_dyads(v, 4) for v in task] for task in vals]
    data = build_dyad_dataset(mats, coordinates=coords, covariates={"age": age})
    fit = twopart_fit(
        data, strength_formula=("intercept", "age"),
        omega=CorrelationStructure("exponential"), gamma="unstructured", maxfev=600,
    )
    s = fit.strength
    assert not np.allclose(s.omega_matrix, np.eye(6))
    present = data.v > 0
    z = np.arctanh(data.y)
    X = np.column_stack([np.ones(data.n_rows()), data.covariates["age"]])
    task_cov = s.gamma_matrix * np.outer(s.sigma_task, s.sigma_task)
    blocks, complete = [], 0
    for subj in range(data.n_subjects):
        rows = np.flatnonzero(present & (data.subject == subj))
        complete += rows.size == data.n_tasks * len(data.dyads)
        t, d = data.task[rows], data.dyad[rows]
        cov = s.tau2 + task_cov[t][:, t] * s.omega_matrix[d][:, d]
        blocks.append((X[rows], z[rows], cov))
    assert complete == 3
    xtx = sum(Xs.T @ np.linalg.solve(cov, Xs) for Xs, _, cov in blocks)
    xty = sum(Xs.T @ np.linalg.solve(cov, zs) for Xs, zs, cov in blocks)
    beta = np.linalg.solve(xtx, xty)
    loglik = 0.0
    for Xs, zs, cov in blocks:
        r = zs - Xs @ beta
        _, logdet = np.linalg.slogdet(cov)
        loglik += -0.5 * (r.size * np.log(2 * np.pi) + logdet + r @ np.linalg.solve(cov, r))
    assert np.allclose(s.beta, beta, rtol=0, atol=1e-8)
    assert s.loglik == pytest.approx(loglik, abs=1e-8)


def test_gamma_patterned_follows_structure(rng):
    vals = [np.vstack([0.3 + 0.1 * rng.random(3) for _ in range(3)]) for _ in range(3)]
    vals[2][2, 2] = -0.2
    mats = [[cm_from_dyads(v, 3) for v in task] for task in vals]
    data = build_dyad_dataset(mats, task_times=TIMES)
    fit = twopart_fit(data, gamma=CorrelationStructure("ar1"), maxfev=1500)
    G = fit.strength.gamma_matrix
    assert G[0, 1] == pytest.approx(G[1, 2])
    assert G[0, 2] == pytest.approx(G[0, 1] ** 2)
    assert fit.strength.gamma_kind == "ar1"


def test_gamma_patterned_guards(rng):
    vals = np.vstack([0.3 + 0.1 * rng.random(3) for _ in range(3)])
    vals[0, 0] = -0.2
    one_task = build_dyad_dataset([cm_from_dyads(v, 3) for v in vals])
    with pytest.raises(ValueError, match="more than one task"):
        twopart_fit(one_task, gamma=CorrelationStructure("ar1"))
    mats = [[cm_from_dyads(v, 3) for v in vals]] * 2
    no_times = build_dyad_dataset(mats)
    with pytest.raises(ValueError, match="task_times"):
        twopart_fit(no_times, gamma=CorrelationStructure("ar1"))


def test_distance_structure_needs_coordinates(rng):
    vals = np.vstack([0.3 + 0.1 * rng.random(6) for _ in range(3)])
    vals[0, 0] = -0.2
    data = build_dyad_dataset([cm_from_dyads(v, 4) for v in vals])
    with pytest.raises(ValueError, match="needs dyad distances"):
        twopart_fit(data, omega=CorrelationStructure("gaussian"))


def test_constant_presence_raises():
    mats = [cm_from_dyads([0.5, 0.4, 0.3], 3) for _ in range(3)]
    with pytest.raises(ValueError, match="constant"):
        twopart_fit(build_dyad_dataset(mats))


@pytest.mark.parametrize("maxfev", [0, -5])
def test_twopart_fit_needs_at_least_one_evaluation(maxfev, monkeypatch):
    # below one evaluation no optimizer runs and the fit would be the start values
    calls = []
    monkeypatch.setattr(twopart, "_fit_presence", lambda *args: calls.append(args))
    data = build_dyad_dataset([cm_from_dyads([0.5, -0.1, 0.3], 3) for _ in range(3)])
    with pytest.raises(ValueError, match=rf"^maxfev must be >= 1, got {maxfev}$"):
        twopart_fit(data, maxfev=maxfev)
    assert calls == []


def test_predict_guards(identical_subject_fit):
    _, fit = identical_subject_fit
    with pytest.raises(ValueError, match="share a length"):
        twopart_predict(fit, {"a": np.zeros(2), "b": np.zeros(3)})


# --- batched strength likelihood, its gradient, standard errors at a bound ---


def per_block_loglik(data, names, omega_m, gamma_m, sigma_task, tau2):
    """The strength likelihood one subject block at a time: a scipy Cholesky
    factor per block for both the GLS step and the log-likelihood."""
    mask = data.v > 0
    X = data.design(names)[mask]
    y = np.arctanh(np.clip(data.y[mask], 0.0, 1.0 - 1e-12))
    subject, task, dyad = data.subject[mask], data.task[mask], data.dyad[mask]
    gp = gamma_m * np.outer(sigma_task, sigma_task)
    xtx = np.zeros((X.shape[1], X.shape[1]))
    xty = np.zeros(X.shape[1])
    blocks = []
    for s in np.unique(subject):
        idx = np.where(subject == s)[0]
        idx = idx[np.lexsort((dyad[idx], task[idx]))]
        t, d = task[idx], dyad[idx]
        c = cho_factor(gp[np.ix_(t, t)] * omega_m[np.ix_(d, d)] + tau2, lower=True)
        ci_x = cho_solve(c, X[idx])
        xtx += X[idx].T @ ci_x
        xty += ci_x.T @ y[idx]
        blocks.append((idx, c))
    beta = np.linalg.solve(xtx, xty)
    resid = y - X @ beta
    total = 0.0
    for idx, c in blocks:
        r = resid[idx]
        logdet = 2 * np.sum(np.log(np.diag(c[0])))
        total += -0.5 * (r.size * np.log(2 * np.pi) + logdet + float(r @ cho_solve(c, r)))
    return total, beta, xtx


def dyad_data(rng, n, subjects, tasks=1, present=None, covariate=False, coords=None, times=None):
    """Random strengths on n nodes; present[s] (default all) lists each
    subject's present (task, dyad) rows by flat index."""
    D = n * (n - 1) // 2
    vals = 0.3 + 0.15 * rng.random((tasks, subjects, D))
    if present is not None:
        keep = np.zeros((subjects, tasks * D), dtype=bool)
        for s, rows in enumerate(present):
            keep[s, rows] = True
        vals = np.where(keep.reshape(subjects, tasks, D).transpose(1, 0, 2), vals, -0.1)
    mats = [[cm_from_dyads(v, n) for v in task] for task in vals]
    extra = {"x": rng.standard_normal(subjects * tasks * D)} if covariate else None
    return build_dyad_dataset(mats, coordinates=coords, covariates=extra, task_times=times)


def batched_cases():
    rng = np.random.default_rng(7)
    return {
        "one_row_blocks": dyad_data(rng, 5, 6, present=[[s] for s in range(6)]),
        "single_subject": dyad_data(rng, 6, 1, present=[rng.permutation(15)[:11]]),
        "sizes_1_to_50": dyad_data(rng, 11, 50, present=[rng.permutation(55)[: s + 1] for s in range(50)]),
        "multi_task_incomplete": dyad_data(
            rng, 5, 7, tasks=3, present=[rng.permutation(30)[: rng.integers(1, 31)] for _ in range(7)]
        ),
        "covariate": dyad_data(
            rng, 5, 6, tasks=2, covariate=True, present=[rng.permutation(20)[: 8 + 2 * s] for s in range(6)]
        ),
    }


@pytest.mark.parametrize("case", list(batched_cases()))
def test_batched_strength_loglik_matches_per_block_reference(case):
    data = batched_cases()[case]
    names = ("intercept", "x") if data.covariates else ("intercept",)
    design = _StrengthDesign(data, names)
    sizes = np.bincount(data.subject[data.v > 0])
    if case == "sizes_1_to_50":
        assert sorted(sizes.tolist()) == list(range(1, 51))
    rng = np.random.default_rng(11)
    for _ in range(20):
        omega_m = rand_corr(rng, len(data.dyads))
        gamma_m = rand_corr(rng, data.n_tasks) if data.n_tasks > 1 else np.eye(1)
        sigma_task = rng.uniform(0.05, 0.3, data.n_tasks)
        tau2 = float(rng.uniform(0.0, 0.05))
        ll, beta, xtx, _ = _strength_loglik(design, omega_m, gamma_m, sigma_task, tau2)
        ref_ll, ref_beta, ref_xtx = per_block_loglik(data, names, omega_m, gamma_m, sigma_task, tau2)
        assert abs(ll - ref_ll) <= 1e-12 * abs(ref_ll)
        assert np.max(np.abs(beta - ref_beta)) <= 1e-12 * np.max(np.abs(ref_beta))
        np.testing.assert_allclose(xtx, ref_xtx, rtol=1e-12, atol=0)
        # with the gradient the value is the same to rounding
        ll_g, beta_g, _, _ = _strength_loglik(design, omega_m, gamma_m, sigma_task, tau2, grad=True)
        assert abs(ll_g - ref_ll) <= 1e-12 * abs(ref_ll)
        assert np.max(np.abs(beta_g - ref_beta)) <= 1e-12 * np.max(np.abs(ref_beta))


def test_batched_design_pads_with_identity():
    rng = np.random.default_rng(3)
    data = dyad_data(rng, 5, 3, tasks=2, present=[[0], [1, 4, 12, 19], [2, 3]])
    design = _StrengthDesign(data, ("intercept",))
    k = data.n_tasks * len(data.dyads)
    # block 0 has one real row: every other row and column is pad
    index = design.cov_index[0]
    assert index[0, 0] == 0 and np.all(index[0, 1:] == k * k) and np.all(index[1:, 0] == k * k)
    pad = index[1:, 1:]
    assert np.all(np.diag(pad) == k * k + 1)
    assert np.all(pad[~np.eye(3, dtype=bool)] == k * k)
    assert np.all(design.xy[0, 1:] == 0.0)


def strength_model(kind, tasks, gamma, complete, seed):
    rng = np.random.default_rng(seed)
    # points on a line whose pair sums differ, so dyad midpoints are distinct
    # and every distance kernel is positive definite
    coords = np.column_stack([[0.0, 1.0, 3.0, 7.0, 15.0], np.zeros(5), np.zeros(5)]) / 4
    present = None if complete else [rng.permutation(10 * tasks)[: 10 * tasks - 1 - s] for s in range(4)]
    times = np.array([0.0, 1.0, 2.5])[:tasks]
    data = dyad_data(rng, 5, 4, tasks=tasks, present=present, coords=coords, times=times)
    return _StrengthModel(data, ("intercept",), CorrelationStructure(kind), gamma), rng


GAMMAS = {  # task count and twopart_fit's gamma argument
    "identity": (2, "identity"),
    "unstructured": (3, "unstructured"),
    "patterned": (3, CorrelationStructure("ar1")),
}


@pytest.mark.parametrize("complete", [True, False], ids=["complete", "incomplete"])
@pytest.mark.parametrize("gamma", list(GAMMAS))
@pytest.mark.parametrize("kind", STRUCTURE_KINDS)
def test_strength_gradient_matches_central_differences(kind, gamma, complete):
    tasks, gamma_arg = GAMMAS[gamma]
    model, rng = strength_model(kind, tasks, gamma_arg, complete, seed=len(kind) + tasks)
    if complete:
        assert np.all(model.design.cov_index < (tasks * 10) ** 2)
    else:
        assert np.any(model.design.cov_index >= (tasks * 10) ** 2)
    shift = np.zeros(model.start.size)
    if kind == "gaussian":
        shift[1 + tasks] = -1.0  # phi at the median distance leaves Omega nearly singular
    for _ in range(3):
        x = model.start + shift + rng.uniform(-0.3, 0.3, model.start.size)
        _, _, _, g = model.loglik(x, grad=True)
        num = np.zeros(x.size)
        for i in range(x.size):
            e = np.zeros(x.size)
            e[i] = 1e-4
            diff = [(model.loglik(x + k * e)[0] - model.loglik(x - k * e)[0]) / (2e-4 * k) for k in (1, 0.5)]
            num[i] = (4 * diff[1] - diff[0]) / 3  # Richardson: error O(step^4)
        np.testing.assert_allclose(g, num, rtol=1e-6, atol=1e-5)


def quadratic(H, centre):
    """loglik(x, grad) of the negative quadratic 0.5 (x - centre)' H (x - centre)."""

    def loglik(x, grad=False):
        d = x - centre
        return -0.5 * d @ H @ d, -(H @ d) if grad else None

    return loglik


def test_standard_errors_are_nan_at_a_bound():
    # the minimum of this quadratic lies outside the bounds the objective
    # allows (|x| <= 40), so L-BFGS-B stops on the bound in x0
    H = np.array([[2.0, 0.6], [0.6, 1.0]])
    lower, upper = np.full(2, -40.0), np.full(2, 40.0)
    objective = _objective(quadratic(H, np.array([55.0, 1.0])), lower, upper)
    res, se = _fit_box(objective, np.array([30.0, 0.0]), lower, upper, 4000, 1e-4)
    assert res.x[0] == pytest.approx(40.0, abs=1e-4)
    assert np.isnan(se[0])
    assert se[1] == pytest.approx(1.0, rel=1e-4)  # 1 / sqrt(H[1, 1]), x0 held fixed
    # inside the bounds every coordinate keeps its standard error
    objective = _objective(quadratic(H, np.zeros(2)), lower, upper)
    res, se = _fit_box(objective, np.array([3.0, -2.0]), lower, upper, 4000, 1e-4)
    assert se == pytest.approx(np.sqrt(np.diag(np.linalg.inv(H))), rel=1e-4)


def c08_fit(seed):
    mats, coords = simulate_dyad_study(seed)
    data = build_dyad_dataset(mats, coordinates=coords)
    return twopart_fit(data, omega=CorrelationStructure("lear"), maxfev=1500).strength


def test_strength_se_is_nan_for_a_variance_at_its_bound():
    # criterion-08 replicate 1026: the subject variance goes to zero, and the
    # likelihood is highest with tau / s on its lower bound, 0
    s = c08_fit(1026)
    assert s.converged
    assert s.tau2 == 0.0
    assert np.isnan(s.param_se["tau_over_s"])
    others = [v for name, v in s.param_se.items() if name != "tau_over_s"]
    assert all(np.isfinite(v) and v > 0.01 for v in others)
    assert s.loglik >= 431.883066136 - 1e-6


def test_strength_fit_reaches_the_interior_optimum():
    # criterion-08 replicate 1078: the optimum (from 30 random starts) has
    # tau2 = 0.0031; a fit that stops with tau2 near zero falls 1.2 short
    s = c08_fit(1078)
    assert s.converged
    assert s.loglik >= 412.805205303 - 1e-6
    assert s.tau2 == pytest.approx(0.00311331, rel=1e-3)


def failing_lbfgsb(monkeypatch):
    """Make every L-BFGS-B run report failure at its start, so that
    `_fit_box` falls back to Nelder-Mead from there; the list of the
    Nelder-Mead runs that follow."""
    minimize, runs = optimize.minimize, []

    def fake(fun, x0, *args, method=None, **kwargs):
        if method == "L-BFGS-B":
            x0 = np.asarray(x0, dtype=float)
            return optimize.OptimizeResult(x=x0, fun=fun(x0), success=False, nfev=1)
        runs.append(x0)
        return minimize(fun, x0, *args, method=method, **kwargs)

    monkeypatch.setattr(twopart.optimize, "minimize", fake)
    return runs


def test_strength_fit_falls_back_to_nelder_mead(monkeypatch):
    # L-BFGS-B fails at the start; Nelder-Mead continues from there, to a
    # fit with tau2 = 0, whose standard error alone is NaN
    mats, coords = simulate_dyad_study(1078)
    data = build_dyad_dataset(mats, coordinates=coords)
    model = _StrengthModel(data, ("intercept",), CorrelationStructure("lear"), "identity")
    runs = failing_lbfgsb(monkeypatch)
    s = twopart_fit(data, omega=CorrelationStructure("lear"), maxfev=1500).strength
    assert len(runs) == 2  # presence, then strength
    assert model.loglik(model.start)[0] < 370.0
    assert s.loglik > 410.0
    assert s.tau2 == 0.0 and np.isnan(s.param_se["tau_over_s"])
    assert all(np.isfinite(v) for name, v in s.param_se.items() if name != "tau_over_s")


def test_strength_se_is_nan_for_a_flat_variance(identical_subject_fit):
    # five identical subjects: the subject variance tends to zero, and the
    # fit ends with tau / s on its lower bound, 0
    _, fit = identical_subject_fit
    s = fit.strength
    assert s.tau2 == 0.0
    assert np.isnan(s.param_se["tau_over_s"])
    assert np.isfinite(s.param_se["log_sigma2_task0"]) and s.param_se["log_sigma2_task0"] > 0.01


def test_standard_errors_of_a_flat_quadratic():
    # the second coordinate's curvature is so small that x +- 2 SE reaches
    # past |x| <= 40; away from the bounds it still gets its standard error
    H = np.array([[2.0, 1e-3], [1e-3, 1e-6]])
    x = np.array([0.3, -1.0])
    for bound in (np.inf, 40.0):
        objective = _objective(quadratic(H, np.zeros(2)), np.full(2, -bound), np.full(2, bound))
        assert _standard_errors(objective, x, 1e-4) == pytest.approx([1.0, np.sqrt(2e6)], rel=1e-3)


# --- presence gradient, gradient-difference standard errors ---


@pytest.mark.parametrize("tasks", [1, 2])
@pytest.mark.parametrize("quad_points", [5, 20])
@pytest.mark.parametrize("covariate", [False, True], ids=["intercept", "covariate"])
def test_presence_gradient_matches_central_differences(covariate, quad_points, tasks):
    rng = np.random.default_rng(quad_points + 10 * tasks + covariate)
    rows = 10 * tasks
    present = [rng.permutation(rows)[: rng.integers(1, rows)] for _ in range(6)]
    data = dyad_data(rng, 5, 6, tasks=tasks, present=present, covariate=covariate)
    X = data.design(("intercept", "x") if covariate else ("intercept",))
    nodes, weights = hermgauss(quad_points)

    def loglik(x, grad=False):
        return _presence_marginal(x, X, data.v, data.subject, data.n_subjects, nodes, weights, grad)

    for tau in np.exp(np.linspace(-3.0, 1.0, 5)):
        x = np.append(rng.uniform(-1.0, 1.0, X.shape[1]), tau)
        ll, g = loglik(x, grad=True)
        assert ll == loglik(x)[0]
        num = np.zeros(x.size)
        for i in range(x.size):
            e = np.zeros(x.size)
            e[i] = 1e-4
            diff = [(loglik(x + k * e)[0] - loglik(x - k * e)[0]) / (2e-4 * k) for k in (1, 0.5)]
            num[i] = (4 * diff[1] - diff[0]) / 3  # Richardson: error O(step^4)
        np.testing.assert_allclose(g, num, rtol=1e-6, atol=1e-5)


def group_models_studies(seed):
    """The benchmark's two dyad studies for one seed, as (data, twopart_fit options)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    d = inputs.group_models_inputs(seed)
    options = {
        "single_task": {"omega": CorrelationStructure("lear", rho=0.5, delta=1.0)},
        "two_task": {"gamma": "unstructured"},
    }
    for study, opts in options.items():
        mats = [[ConnectionMatrix(m, "correlation", {}) for m in task] for task in d[study]["matrices"]]
        data = build_dyad_dataset(mats, coordinates=d[study]["coordinates"])
        yield data, {"maxfev": inputs.DYAD_MAXFEV, **opts}


def _fd_hessian(f, x, h):
    """Central-difference Hessian of f at x with per-coordinate steps h, and
    which of its entries had a stencil point where f met the sentinel."""
    p = x.size
    H = np.zeros((p, p))
    hit = np.zeros((p, p), dtype=bool)
    for a in range(p):
        for b in range(a, p):
            ea = np.zeros(p); ea[a] = h[a]
            eb = np.zeros(p); eb[b] = h[b]
            f_pp = f(x + ea + eb)
            f_pm = f(x + ea - eb)
            f_mp = f(x - ea + eb)
            f_mm = f(x - ea - eb)
            H[a, b] = H[b, a] = (f_pp - f_pm - f_mp + f_mm) / (4 * h[a] * h[b])
            hit[a, b] = hit[b, a] = max(f_pp, f_pm, f_mp, f_mm) >= _SENTINEL
    return H, hit


def value_difference_se(objective, x, step):
    """Standard errors from value differences (`_fd_hessian`), NaN for a
    coordinate whose own stencil, or whose stencil with a coordinate kept,
    meets the sentinel; the others with those coordinates held fixed."""
    H, hit = _fd_hessian(objective, x, step * (1.0 + np.abs(x)))
    bad = np.diag(hit).copy()
    bad |= np.any(hit & ~bad[:, None] & ~bad[None, :], axis=1)
    se = np.full(x.size, np.nan)
    keep = np.flatnonzero(~bad)
    var = np.diag(np.linalg.inv(H[np.ix_(keep, keep)]))
    se[keep] = np.sqrt(np.where(var > 0, var, np.nan))
    return se


def recorded_fits(monkeypatch):
    """Every `_fit_box` call of the fits that follow: (objective, optimum, step, SEs)."""
    calls = []
    fit_box = twopart._fit_box

    def recording(objective, start, lower, upper, maxfev, step):
        res, se = fit_box(objective, start, lower, upper, maxfev, step)
        calls.append((objective, res.x, step, se))
        return res, se

    monkeypatch.setattr(twopart, "_fit_box", recording)
    return calls


def test_gradient_difference_se_match_value_differences(monkeypatch):
    calls = recorded_fits(monkeypatch)
    for seed in range(1000, 1005):
        c08_fit(seed)
    for data, options in group_models_studies(1):
        twopart_fit(data, **options)
    assert len(calls) >= 14
    for objective, x, step, se in calls:
        by_gradient = _standard_errors(objective, x, step)
        np.testing.assert_array_equal(se, by_gradient)
        by_value = value_difference_se(objective, x, step)
        assert np.array_equal(np.isnan(by_value), np.isnan(by_gradient))
        np.testing.assert_allclose(by_gradient, by_value, rtol=1e-3)


def test_presence_fit_falls_back_to_nelder_mead(monkeypatch):
    # as in the strength test: L-BFGS-B fails at the start, and Nelder-Mead
    # continues from there to the same optimum
    mats, coords = simulate_dyad_study(1078)
    data = build_dyad_dataset(mats, coordinates=coords)
    p = twopart_fit(data, omega=CorrelationStructure("lear"), maxfev=1500).presence
    runs = failing_lbfgsb(monkeypatch)
    q = twopart._fit_presence(data, ("intercept",), 20, 1500)
    assert len(runs) == 1
    assert q.converged
    assert q.loglik == pytest.approx(p.loglik, abs=1e-8)
    assert q.beta == pytest.approx(p.beta, abs=1e-5)
    assert q.tau == pytest.approx(p.tau, rel=1e-4)
    assert q.se == pytest.approx(p.se, rel=1e-3)


def test_presence_fit_reaches_a_variance_on_its_bound():
    # criterion-08 replicate 1083: the presence likelihood is highest at
    # tau = 0, where the model is the plain logistic one
    mats, coords = simulate_dyad_study(1083)
    p = twopart._fit_presence(build_dyad_dataset(mats, coordinates=coords), ("intercept",), 20, 1500)
    assert p.converged
    assert p.tau == 0.0
    assert p.loglik >= -260.339895438708 - 1e-9
    assert np.isfinite(p.se[0])


def presence_case(covariate):
    """(dataset, design, beta) of a small two-task presence problem."""
    rng = np.random.default_rng(31 + covariate)
    present = [rng.permutation(20)[: rng.integers(1, 20)] for _ in range(6)]
    data = dyad_data(rng, 5, 6, tasks=2, present=present, covariate=covariate)
    X = data.design(("intercept", "x") if covariate else ("intercept",))
    return data, X, rng.uniform(-1.0, 1.0, X.shape[1])


@pytest.mark.parametrize("covariate", [False, True], ids=["intercept", "covariate"])
def test_presence_marginal_at_tau_zero_is_the_logistic_likelihood(covariate):
    data, X, beta = presence_case(covariate)
    nodes, weights = hermgauss(20)
    ll, g = _presence_marginal(
        np.append(beta, 0.0), X, data.v, data.subject, data.n_subjects, nodes, weights, grad=True
    )
    eta = X @ beta
    assert ll == pytest.approx(np.sum(data.v * eta - np.log1p(np.exp(eta))), rel=1e-12)
    np.testing.assert_allclose(g[:-1], X.T @ (data.v - expit(eta)), rtol=1e-10)
    assert abs(g[-1]) < 1e-12


@pytest.mark.parametrize("tau", [0.3, 1.0])
@pytest.mark.parametrize("covariate", [False, True], ids=["intercept", "covariate"])
def test_presence_marginal_matches_quad(covariate, tau):
    data, X, beta = presence_case(covariate)
    nodes, weights = hermgauss(20)
    ll, _ = _presence_marginal(np.append(beta, tau), X, data.v, data.subject, data.n_subjects, nodes, weights)
    eta = X @ beta
    total = 0.0
    for s in range(data.n_subjects):
        rows = data.subject == s
        y, e = data.v[rows], eta[rows]

        def integrand(z):
            return np.exp(np.sum(y * (e + tau * z) - np.logaddexp(0.0, e + tau * z)) - 0.5 * z * z)

        value, _ = integrate.quad(integrand, -np.inf, np.inf, epsabs=0.0, epsrel=1e-13)
        total += np.log(value / np.sqrt(2 * np.pi))
    assert ll == pytest.approx(total, rel=1e-10)
