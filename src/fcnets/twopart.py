"""Two-part mixed models for dyad-level connectivity.

Connectivity matrices are unrolled into one row per (subject, task, dyad).
Part I models connection presence with mixed-effects logistic regression
(subject random intercept, adaptive Gauss-Hermite quadrature). Part II
models Fisher-transformed strengths of present connections with a linear
mixed model: subject random intercept, a structured correlation over dyads
(distance-based kinds evaluated on Euclidean distances between dyad
midpoints), and, with several tasks, a task correlation crossed with the
dyad correlation. Each evaluation of the strength likelihood builds every
subject's dense covariance over its present rows and Cholesky-factors it
once; that factor gives both the GLS coefficients and the log-likelihood.
`kronecker_loglik` evaluates complete task-by-dyad grids in factored form,
without the dense matrix, for callers that have such grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy import optimize
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit, logsumexp

from .estimators import CORRELATION_MEASURES

STRUCTURE_KINDS = (
    "identity",
    "compound_symmetry",
    "ar1",
    "lear",
    "damped_exponential",
    "exponential",
    "gaussian",
    "linear",
    "spherical",
)

_DISTANCE_FREE = ("identity", "compound_symmetry")


@dataclass(frozen=True)
class CorrelationStructure:
    """Parametric correlation over distances; unset params are fitted.

    kinds and parameters:
      identity            none
      compound_symmetry   rho
      ar1                 rho        rho**d
      lear                rho, delta rho**(d_min + delta (d - d_min)/(d_max - d_min))
      damped_exponential  rho, nu    rho**(d**nu)
      exponential         phi        exp(-d / phi)
      gaussian            phi        exp(-(d / phi)**2)
      linear              phi        (1 - phi d) where phi d <= 1, else 0
      spherical           phi        (1 - 1.5 u + 0.5 u^3), u = d/phi <= 1, else 0
    """

    kind: str
    rho: float | None = None
    delta: float | None = None
    nu: float | None = None
    phi: float | None = None
    d_min: float | None = None
    d_max: float | None = None

    def __post_init__(self):
        if self.kind not in STRUCTURE_KINDS:
            raise ValueError(
                f"unknown structure {self.kind!r}; choose from {STRUCTURE_KINDS}"
            )

    def param_names(self):
        return {
            "identity": (),
            "compound_symmetry": ("rho",),
            "ar1": ("rho",),
            "lear": ("rho", "delta"),
            "damped_exponential": ("rho", "nu"),
            "exponential": ("phi",),
            "gaussian": ("phi",),
            "linear": ("phi",),
            "spherical": ("phi",),
        }[self.kind]

    def params(self):
        return {name: getattr(self, name) for name in self.param_names()}


def _check_structure_params(structure):
    p = structure.params()
    if "rho" in p and not (0.0 < p["rho"] < 1.0):
        raise ValueError(f"{structure.kind}: rho must lie in (0, 1), got {p['rho']}")
    if "delta" in p and p["delta"] < 0:
        raise ValueError(f"lear: delta must be >= 0, got {p['delta']}")
    if "nu" in p and p["nu"] <= 0:
        raise ValueError(f"damped_exponential: nu must be > 0, got {p['nu']}")
    if "phi" in p and p["phi"] <= 0:
        raise ValueError(f"{structure.kind}: phi must be > 0, got {p['phi']}")


def corr_matrix(structure, distances):
    """Correlation matrix of a structure over a symmetric distance matrix.

    The result has unit diagonal and is checked for positive semidefiniteness
    (minimum eigenvalue >= -1e-8); violations raise with the offending
    parameters in the message.
    """
    d = np.asarray(distances, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distances must be a square matrix")
    if structure.kind == "identity":
        return np.eye(d.shape[0])
    for name, value in structure.params().items():
        if value is None:
            raise ValueError(f"{structure.kind}: parameter {name} is unset")
    _check_structure_params(structure)
    k = structure.kind
    if k == "compound_symmetry":
        out = np.full(d.shape, structure.rho)
    elif k == "ar1":
        out = structure.rho**d
    elif k == "lear":
        off = d[~np.eye(d.shape[0], dtype=bool)]
        d_min = structure.d_min if structure.d_min is not None else float(off.min())
        d_max = structure.d_max if structure.d_max is not None else float(off.max())
        if d_max <= d_min:
            raise ValueError(
                f"lear needs d_max > d_min, got d_min={d_min} d_max={d_max}"
            )
        expo = d_min + structure.delta * (d - d_min) / (d_max - d_min)
        out = structure.rho**expo
    elif k == "damped_exponential":
        out = structure.rho ** (d**structure.nu)
    elif k == "exponential":
        out = np.exp(-d / structure.phi)
    elif k == "gaussian":
        out = np.exp(-((d / structure.phi) ** 2))
    elif k == "linear":
        u = structure.phi * d
        out = np.where(u <= 1.0, 1.0 - u, 0.0)
    elif k == "spherical":
        u = d / structure.phi
        out = np.where(u <= 1.0, 1.0 - 1.5 * u + 0.5 * u**3, 0.0)
    else:  # pragma: no cover
        raise AssertionError(k)
    np.fill_diagonal(out, 1.0)
    out = (out + out.T) / 2
    min_eig = float(np.linalg.eigvalsh(out).min())
    if min_eig < -1e-8:
        raise ValueError(
            f"{k} with params {structure.params()} is not positive semidefinite "
            f"(min eigenvalue {min_eig:.3e})"
        )
    return out


def dyad_midpoint_distances(coordinates, dyads):
    """Euclidean distances between dyad midpoints, (D, D)."""
    coords = np.asarray(coordinates, dtype=float)
    mids = np.array([(coords[j] + coords[k]) / 2.0 for j, k in dyads])
    return np.linalg.norm(mids[:, None, :] - mids[None, :, :], axis=2)


@dataclass
class DyadDataset:
    """Flat dyad-level table: one row per (subject, task, dyad)."""

    subject: np.ndarray
    task: np.ndarray
    dyad: np.ndarray  # index into `dyads`
    v: np.ndarray  # presence 0/1
    y: np.ndarray  # connection strength, negatives zeroed
    dyads: list  # (j, k) node pairs, lexicographic
    n_subjects: int
    n_tasks: int
    covariates: dict = field(default_factory=dict)
    dyad_distances: np.ndarray | None = None
    task_times: np.ndarray | None = None
    threshold: float = 0.0

    def n_rows(self):
        return self.subject.size

    def design(self, names):
        cols = []
        for name in names:
            if name == "intercept":
                cols.append(np.ones(self.n_rows()))
            elif name in self.covariates:
                cols.append(np.asarray(self.covariates[name], dtype=float))
            else:
                raise ValueError(
                    f"unknown covariate {name!r}; available: "
                    f"{sorted(self.covariates)} plus 'intercept'"
                )
        return np.column_stack(cols)


def build_dyad_dataset(
    matrices_by_task,
    coordinates=None,
    threshold=0.0,
    covariates=None,
    task_times=None,
):
    """Unroll connectivity matrices into a dyad-level dataset.

    matrices_by_task: list over tasks of equal-length subject lists of
    connection matrices (a flat subject list is treated as one task).
    Negative connectivity is zeroed; presence is strength > threshold.
    Rows are ordered by subject, then task, then dyad (j < k lexicographic).
    Subject-level covariates (length = subject count) are expanded to rows;
    row-level arrays are taken as-is.
    """
    if matrices_by_task and not isinstance(matrices_by_task[0], (list, tuple)):
        matrices_by_task = [list(matrices_by_task)]
    n_tasks = len(matrices_by_task)
    if n_tasks == 0 or not matrices_by_task[0]:
        raise ValueError("need at least one task with at least one subject")
    n_subjects = len(matrices_by_task[0])
    n = matrices_by_task[0][0].n
    for t, group in enumerate(matrices_by_task):
        if len(group) != n_subjects:
            raise ValueError(f"task {t} has {len(group)} subjects, expected {n_subjects}")
        for cm in group:
            if cm.n != n:
                raise ValueError("all matrices must share the node count")
            if cm.measure not in CORRELATION_MEASURES:
                raise ValueError(
                    f"dyad models expect correlation-family matrices, got {cm.measure!r}"
                )
    iu, ju = np.triu_indices(n, 1)
    dyads = list(zip(iu.tolist(), ju.tolist()))
    d_count = len(dyads)
    subj_col, task_col, dyad_col, v_col, y_col = [], [], [], [], []
    for s in range(n_subjects):
        for t in range(n_tasks):
            vals = matrices_by_task[t][s].values[iu, ju]
            vals = np.where(vals < 0, 0.0, vals)
            subj_col.append(np.full(d_count, s))
            task_col.append(np.full(d_count, t))
            dyad_col.append(np.arange(d_count))
            v_col.append((vals > threshold).astype(float))
            y_col.append(vals)
    data = DyadDataset(
        subject=np.concatenate(subj_col),
        task=np.concatenate(task_col),
        dyad=np.concatenate(dyad_col),
        v=np.concatenate(v_col),
        y=np.concatenate(y_col),
        dyads=dyads,
        n_subjects=n_subjects,
        n_tasks=n_tasks,
        threshold=float(threshold),
        task_times=None if task_times is None else np.asarray(task_times, dtype=float),
    )
    if coordinates is not None:
        coords = np.asarray(coordinates, dtype=float)
        if coords.shape[0] != n:
            raise ValueError("coordinates must have one row per node")
        data.dyad_distances = dyad_midpoint_distances(coords, dyads)
    n_rows = data.n_rows()
    for name, values in (covariates or {}).items():
        arr = np.asarray(values, dtype=float)
        if arr.shape == (n_rows,):
            # when n_subjects == n_rows the subject expansion is the identity,
            # so the row-level reading covers both interpretations
            data.covariates[name] = arr
        elif arr.shape == (n_subjects,):
            data.covariates[name] = arr[data.subject]
        else:
            raise ValueError(
                f"covariate {name!r} has shape {arr.shape}; expected "
                f"({n_rows},) rows or ({n_subjects},) subjects"
            )
    return data


def _fd_hessian(f, x, h):
    """Central-difference Hessian of f at x with per-coordinate steps h."""
    p = x.size
    H = np.zeros((p, p))
    for a in range(p):
        for b in range(a, p):
            ea = np.zeros(p); ea[a] = h[a]
            eb = np.zeros(p); eb[b] = h[b]
            f_pp = f(x + ea + eb)
            f_pm = f(x + ea - eb)
            f_mp = f(x - ea + eb)
            f_mm = f(x - ea - eb)
            H[a, b] = H[b, a] = (f_pp - f_pm - f_mp + f_mm) / (4 * h[a] * h[b])
    return H


# ---------------------------------------------------------------------------
# Part I: mixed-effects logistic presence model


def _presence_marginal(params, X, y, subj, n_subjects, nodes, weights):
    """Marginal log-likelihood via Laplace-centered Gauss-Hermite quadrature."""
    beta = params[:-1]
    tau = float(np.exp(params[-1]))
    eta0 = X @ beta
    u = np.zeros(n_subjects)
    for _ in range(60):
        mu = expit(eta0 + u[subj])
        grad = np.bincount(subj, weights=y - mu, minlength=n_subjects) - u / tau**2
        hess = -np.bincount(subj, weights=mu * (1 - mu), minlength=n_subjects) - 1 / tau**2
        step = np.clip(grad / (-hess), -5.0, 5.0)
        u = u + step
        if np.max(np.abs(grad)) < 1e-10:
            break
    mu = expit(eta0 + u[subj])
    hess = -np.bincount(subj, weights=mu * (1 - mu), minlength=n_subjects) - 1 / tau**2
    sigma_star = 1.0 / np.sqrt(-hess)
    # Evaluate g at shifted nodes d_q = u* + sqrt(2) sigma* x_q, all subjects at once.
    d = u[None, :] + np.sqrt(2.0) * sigma_star[None, :] * nodes[:, None]  # (Q, S)
    eta = eta0[None, :] + d[:, subj]  # (Q, N)
    row_ll = y[None, :] * eta - np.logaddexp(0.0, eta)
    g = np.zeros((nodes.size, n_subjects))
    for q in range(nodes.size):
        g[q] = np.bincount(subj, weights=row_ll[q], minlength=n_subjects)
    g += -0.5 * (d / tau) ** 2 - np.log(tau) - 0.5 * np.log(2 * np.pi)
    log_terms = np.log(weights)[:, None] + nodes[:, None] ** 2 + g
    per_subject = logsumexp(log_terms, axis=0) + 0.5 * np.log(2.0) + np.log(sigma_star)
    return float(np.sum(per_subject))


@dataclass
class PresenceFit:
    names: tuple
    beta: np.ndarray
    se: np.ndarray
    tau: float
    loglik: float
    converged: bool
    quad_points: int


def _fit_presence(data, names, quad_points, maxfev):
    X = data.design(names)
    y = data.v.astype(float)
    subj = data.subject.astype(int)
    if np.all(y == 1) or np.all(y == 0):
        raise ValueError(
            "presence indicator is constant; the logistic part is not estimable"
        )
    nodes, weights = hermgauss(quad_points)
    # Plain logistic start values.
    beta = np.zeros(X.shape[1])
    for _ in range(50):
        mu = expit(X @ beta)
        grad = X.T @ (y - mu)
        H = X.T @ (X * (mu * (1 - mu))[:, None]) + 1e-8 * np.eye(X.shape[1])
        step = np.linalg.solve(H, grad)
        beta = beta + np.clip(step, -3, 3)
        if np.max(np.abs(grad)) < 1e-8:
            break
    start = np.concatenate([beta, [np.log(0.5)]])

    def objective(params):
        if abs(params[-1]) > 12 or np.max(np.abs(params[:-1])) > 40:
            return 1e10
        return -_presence_marginal(params, X, y, subj, data.n_subjects, nodes, weights)

    res = optimize.minimize(
        objective, start, method="Nelder-Mead",
        options={"maxfev": maxfev, "xatol": 1e-7, "fatol": 1e-9},
    )
    params = res.x
    # Standard errors from the numerical Hessian of the marginal deviance.
    p = params.size
    H = _fd_hessian(objective, params, 1e-4 * (1.0 + np.abs(params)))
    try:
        cov = np.linalg.inv(H)
        se = np.sqrt(np.clip(np.diag(cov), 0, None))[: p - 1]
    except np.linalg.LinAlgError:
        se = np.full(p - 1, np.nan)
    return PresenceFit(
        names=tuple(names),
        beta=params[:-1],
        se=se,
        tau=float(np.exp(params[-1])),
        loglik=-float(res.fun),
        converged=bool(res.success),
        quad_points=quad_points,
    )


# ---------------------------------------------------------------------------
# Part II: linear mixed model on Fisher-transformed strengths


def kronecker_loglik(residuals, gamma, omega, sigma_task, tau2):
    """Gaussian log-likelihood of task-by-dyad residual matrices.

    Covariance of vec(R) (task-major) is tau2 * ones + (S Gamma S) kron Omega
    with S = diag(sigma_task). Uses the factorized identities
    logdet(A kron B) = D logdet A + T logdet B and
    quad(A kron B) = trace(A^-1 R B^-1 R^T), plus a rank-one Woodbury update
    for the random intercept, so the dense Kronecker matrix is never formed.
    """
    sigma_task = np.atleast_1d(np.asarray(sigma_task, dtype=float))
    gp = gamma * np.outer(sigma_task, sigma_task)  # S Gamma S
    T, D = gp.shape[0], omega.shape[0]
    cg = cho_factor(gp, lower=True)
    co = cho_factor(omega, lower=True)
    logdet_k = D * 2 * np.sum(np.log(np.diag(cg[0]))) + T * 2 * np.sum(
        np.log(np.diag(co[0]))
    )
    gp_inv_one = cho_solve(cg, np.ones(T))
    om_inv_one = cho_solve(co, np.ones(D))
    one_kinv_one = float(np.sum(gp_inv_one) * np.sum(om_inv_one))
    denom = 1.0 + tau2 * one_kinv_one
    total = 0.0
    m = T * D
    for R in residuals:
        if R.shape != (T, D):
            raise ValueError(f"residual block must be ({T}, {D}), got {R.shape}")
        kinv_r = cho_solve(cg, cho_solve(co, R.T).T)  # Gp^-1 R Omega^-1
        quad = float(np.sum(R * kinv_r))
        one_kinv_r = float(gp_inv_one @ R @ om_inv_one)
        quad -= tau2 * one_kinv_r**2 / denom
        logdet = logdet_k + np.log(denom)
        total += -0.5 * (m * np.log(2 * np.pi) + logdet + quad)
    return total


class _StrengthDesign:
    """Present rows, with one block per subject in (task, dyad) order.

    Each block holds its row indices, its X and y rows, and the np.ix_ grids
    that pick its task-by-task and dyad-by-dyad covariance entries.
    """

    def __init__(self, data, names):
        mask = data.v > 0
        if not np.any(mask):
            raise ValueError("no present connections; the strength part is empty")
        self.X = data.design(names)[mask]
        self.y = np.arctanh(np.clip(data.y[mask], 0.0, 1.0 - 1e-12))
        self.n_tasks = data.n_tasks
        self.n_dyads = len(data.dyads)
        subject, task, dyad = data.subject[mask], data.task[mask], data.dyad[mask]
        self.blocks = []
        for s in np.unique(subject):
            idx = np.where(subject == s)[0]
            idx = idx[np.lexsort((dyad[idx], task[idx]))]
            t, d = task[idx], dyad[idx]
            self.blocks.append(
                (idx, self.X[idx], self.y[idx], np.ix_(t, t), np.ix_(d, d))
            )


def _strength_loglik(design, omega_m, gamma_m, sigma_task, tau2):
    """Log-likelihood, GLS coefficients and X' V^-1 X of the strength part.

    Subject block covariance: tau2 + (S Gamma S)[t, t'] * Omega[d, d'] with
    S = diag(sigma_task), factored once for the GLS step and the likelihood.
    """
    gp = gamma_m * np.outer(sigma_task, sigma_task)
    p = design.X.shape[1]
    xtx = np.zeros((p, p))
    xty = np.zeros(p)
    factors = []
    for _, Xs, ys, tasks, dyads in design.blocks:
        c = cho_factor(gp[tasks] * omega_m[dyads] + tau2, lower=True)
        ci_x = cho_solve(c, Xs)
        xtx += Xs.T @ ci_x
        xty += ci_x.T @ ys
        factors.append(c)
    beta = np.linalg.solve(xtx, xty)
    resid = design.y - design.X @ beta
    total = 0.0
    for (idx, *_), c in zip(design.blocks, factors):
        r = resid[idx]
        logdet = 2 * np.sum(np.log(np.diag(c[0])))
        quad = float(r @ cho_solve(c, r))
        total += -0.5 * (r.size * np.log(2 * np.pi) + logdet + quad)
    return total, beta, xtx


def _hyperspherical_corr(angles_x, T):
    """Unit-diagonal correlation from unconstrained angle parameters."""
    theta = np.pi * expit(np.asarray(angles_x, dtype=float))
    L = np.zeros((T, T))
    L[0, 0] = 1.0
    pos = 0
    for i in range(1, T):
        row = theta[pos : pos + i]
        pos += i
        prod = 1.0
        for j in range(i):
            L[i, j] = np.cos(row[j]) * prod
            prod *= np.sin(row[j])
        L[i, i] = prod
    return L @ L.T


class _OmegaParam:
    """Maps optimizer coordinates to an Omega correlation matrix."""

    def __init__(self, structure, distances, n_dyads):
        self.structure = structure
        self.kind = structure.kind
        if self.kind not in _DISTANCE_FREE and distances is None:
            raise ValueError(
                f"structure {self.kind!r} needs dyad distances; provide node "
                "coordinates or use compound_symmetry / identity"
            )
        self.distances = (
            np.zeros((n_dyads, n_dyads)) if distances is None else distances
        )
        if self.kind == "lear":
            off = self.distances[~np.eye(n_dyads, dtype=bool)]
            if off.size and float(off.max()) <= float(off.min()):
                raise ValueError("lear needs d_max > d_min among dyad distances")
        names = structure.param_names()
        self.names = names
        start = []
        for name in names:
            val = getattr(structure, name)
            if name == "rho":
                start.append(0.0 if val is None else np.log(val / (1 - val)))
            elif name == "delta":
                start.append(0.0 if val is None else np.log(max(val, 1e-6)))
            elif name == "nu":
                start.append(np.log(0.5) if val is None else np.log(val))
            else:  # phi
                if val is None:
                    off = self.distances[~np.eye(n_dyads, dtype=bool)]
                    med = float(np.median(off)) if off.size else 1.0
                    start.append(np.log(max(med, 1e-6)))
                else:
                    start.append(np.log(val))
        self.start = np.array(start)

    def structure_at(self, x):
        kw = {}
        for name, xv in zip(self.names, x):
            if name == "rho":
                kw[name] = float(expit(xv))
            else:
                kw[name] = float(np.exp(xv))
        return replace(self.structure, **kw)

    def matrix(self, x):
        return corr_matrix(self.structure_at(x), self.distances)


@dataclass
class StrengthFit:
    names: tuple
    beta: np.ndarray
    se: np.ndarray
    tau2: float
    sigma_task: np.ndarray
    omega: CorrelationStructure
    omega_matrix: np.ndarray
    gamma_kind: str
    gamma_matrix: np.ndarray
    loglik: float
    converged: bool
    n_rows: int
    param_se: dict


def _fit_strength(data, names, omega, gamma, maxfev):
    design = _StrengthDesign(data, names)
    T = design.n_tasks
    omega = omega if omega is not None else CorrelationStructure("identity")
    om = _OmegaParam(omega, data.dyad_distances, design.n_dyads)

    if isinstance(gamma, CorrelationStructure):
        if T == 1:
            raise ValueError("a task correlation needs more than one task")
        if data.task_times is None:
            raise ValueError("patterned task correlation needs task_times")
        tt = np.abs(data.task_times[:, None] - data.task_times[None, :])
        gm_param = _OmegaParam(gamma, tt, T)
        gamma_kind = gamma.kind
    elif gamma == "unstructured" and T > 1:
        gm_param = None
        gamma_kind = "unstructured"
    else:
        gm_param = None
        gamma_kind = "identity"

    ols_beta, *_ = np.linalg.lstsq(design.X, design.y, rcond=None)
    ols_var = float(np.var(design.y - design.X @ ols_beta)) or 1e-4

    # Coordinate layout: [log tau2, log sigma_t^2 (T), omega params, gamma params]
    start = [np.log(max(0.2 * ols_var, 1e-6))]
    start += [np.log(max(0.8 * ols_var, 1e-6))] * T
    start += list(om.start)
    n_gamma = 0
    if gamma_kind == "unstructured":
        n_gamma = T * (T - 1) // 2
        start += [0.0] * n_gamma
    elif gm_param is not None:
        n_gamma = gm_param.start.size
        start += list(gm_param.start)
    start = np.array(start)
    n_om = om.start.size

    def unpack(params):
        tau2 = float(np.exp(params[0]))
        sigma_task = np.sqrt(np.exp(params[1 : 1 + T]))
        om_x = params[1 + T : 1 + T + n_om]
        gm_x = params[1 + T + n_om :]
        omega_m = om.matrix(om_x)
        if gamma_kind == "unstructured":
            gamma_m = _hyperspherical_corr(gm_x, T)
        elif gm_param is not None:
            gamma_m = gm_param.matrix(gm_x)
        else:
            gamma_m = np.eye(T)
        return tau2, sigma_task, omega_m, gamma_m, om_x

    def objective(params):
        if np.max(np.abs(params)) > 25:
            return 1e10
        try:
            tau2, sigma_task, omega_m, gamma_m, _ = unpack(params)
            ll, _, _ = _strength_loglik(design, omega_m, gamma_m, sigma_task, tau2)
        except (ValueError, np.linalg.LinAlgError):
            return 1e10
        if not np.isfinite(ll):
            return 1e10
        return -ll

    if objective(start) >= 1e10:
        try:
            tau2, sigma_task, omega_m, gamma_m, _ = unpack(start)
            _strength_loglik(design, omega_m, gamma_m, sigma_task, tau2)
        except (ValueError, np.linalg.LinAlgError) as exc:
            hint = ""
            if data.dyad_distances is not None:
                off = data.dyad_distances[~np.eye(design.n_dyads, dtype=bool)]
                if off.size and float(off.min()) == 0.0:
                    hint = (
                        "; distinct dyads share a midpoint, which makes "
                        "distance-kernel correlations singular - use "
                        "compound_symmetry or perturb the coordinates"
                    )
            raise ValueError(
                f"strength covariance is degenerate at the starting values: {exc}{hint}"
            ) from exc

    res = optimize.minimize(
        objective, start, method="Nelder-Mead",
        options={"maxfev": maxfev, "xatol": 1e-7, "fatol": 1e-9},
    )
    if res.fun >= 1e10:
        raise ValueError("no valid covariance parameters found during optimization")
    params = res.x
    tau2, sigma_task, omega_m, gamma_m, om_x = unpack(params)
    ll, beta, xtx = _strength_loglik(design, omega_m, gamma_m, sigma_task, tau2)
    beta_cov = np.linalg.inv(xtx)
    se = np.sqrt(np.diag(beta_cov))

    # Variance-parameter uncertainty from the profile deviance (transformed scale).
    labels = (
        ["log_tau2"]
        + [f"log_sigma2_task{t}" for t in range(T)]
        + [f"omega_{n}" for n in om.names]
        + [f"gamma_{i}" for i in range(n_gamma)]
    )
    H = _fd_hessian(objective, params, 1e-3 * (1.0 + np.abs(params)))
    try:
        pc = np.linalg.inv(H)
        param_se = {
            lab: float(np.sqrt(v)) if v > 0 else float("nan")
            for lab, v in zip(labels, np.diag(pc))
        }
    except np.linalg.LinAlgError:
        param_se = {lab: float("nan") for lab in labels}

    return StrengthFit(
        names=tuple(names),
        beta=beta,
        se=se,
        tau2=tau2,
        sigma_task=sigma_task,
        omega=om.structure_at(om_x),
        omega_matrix=omega_m,
        gamma_kind=gamma_kind,
        gamma_matrix=gamma_m,
        loglik=float(ll),
        converged=bool(res.success),
        n_rows=int(design.y.size),
        param_se=param_se,
    )


@dataclass
class TwoPartFit:
    presence: PresenceFit
    strength: StrengthFit
    threshold: float
    n_tasks: int
    dyads: list


def twopart_fit(
    data,
    presence_formula=("intercept",),
    strength_formula=("intercept",),
    omega=None,
    gamma="identity",
    quad_points=20,
    maxfev=2000,
):
    """Fit both parts of the dyad-level mixed model.

    omega: CorrelationStructure over dyad distances (None = identity).
    gamma: "identity", "unstructured", or a CorrelationStructure evaluated
    on inter-task times (multi-task data only). Provided structure parameter
    values seed the optimizer; all free parameters are estimated.
    """
    presence = _fit_presence(data, presence_formula, quad_points, maxfev)
    strength = _fit_strength(data, strength_formula, omega, gamma, maxfev)
    return TwoPartFit(
        presence=presence,
        strength=strength,
        threshold=data.threshold,
        n_tasks=data.n_tasks,
        dyads=data.dyads,
    )


def twopart_predict(fit, covariates):
    """Presence probability and expected strength for new covariate rows.

    covariates maps names to equal-length arrays; 'intercept' is implicit.
    Expected strength back-transforms the linear predictor with tanh.
    """
    sizes = {np.asarray(v).shape[0] for v in covariates.values()} or {1}
    if len(sizes) != 1:
        raise ValueError("covariate arrays must share a length")
    rows = sizes.pop()

    def build(names):
        cols = []
        for name in names:
            if name == "intercept":
                cols.append(np.ones(rows))
            elif name in covariates:
                cols.append(np.asarray(covariates[name], dtype=float))
            else:
                raise ValueError(f"missing covariate {name!r} for prediction")
        return np.column_stack(cols)

    eta_v = build(fit.presence.names) @ fit.presence.beta
    eta_s = build(fit.strength.names) @ fit.strength.beta
    return {
        "presence_probability": expit(eta_v),
        "expected_strength": np.tanh(eta_s),
    }
