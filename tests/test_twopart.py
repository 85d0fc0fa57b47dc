"""Two-part dyad model: structures, dataset assembly, both likelihood parts."""

import numpy as np
import pytest
from scipy.special import expit, logit

from fcnets.estimators import ConnectionMatrix
from fcnets.twopart import (
    STRUCTURE_KINDS,
    CorrelationStructure,
    build_dyad_dataset,
    corr_matrix,
    dyad_midpoint_distances,
    kronecker_loglik,
    twopart_fit,
    twopart_predict,
)

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
    assert "log_tau2" in fit.strength.param_se


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


def test_predict_guards(identical_subject_fit):
    _, fit = identical_subject_fit
    with pytest.raises(ValueError, match="share a length"):
        twopart_predict(fit, {"a": np.zeros(2), "b": np.zeros(3)})
