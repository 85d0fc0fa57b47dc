"""Two-part mixed models for dyad-level connectivity.

Connectivity matrices are unrolled into one row per (subject, task, dyad).
Part I models connection presence with mixed-effects logistic regression
(subject random intercept, adaptive Gauss-Hermite quadrature). Part II
models Fisher-transformed strengths of present connections with a linear
mixed model: subject random intercept, a structured correlation over dyads
(distance-based kinds evaluated on Euclidean distances between dyad
midpoints), and, with several tasks, a task correlation crossed with the
dyad correlation. Every subject block is padded with identity rows to the
largest block size once per fit, so each evaluation of the strength
likelihood gathers all block covariances with one `take`, factors the
stack with one batched Cholesky and solves for [X y] in one call; those
factors give the GLS coefficients, the log-likelihood and its exact
gradient (with the GLS coefficients profiled out). The presence
likelihood's gradient comes through the quadrature's Laplace mode. Each
part's subject variance is optimized as a standard deviation on a closed
interval that starts at 0 (presence tau, strength tau over the OLS
residual standard deviation), so a fit can end with the variance at 0.
Both parts are maximized by L-BFGS-B within bounds, with Nelder-Mead as
the fallback when it fails, and their standard errors come from
differences of the exact gradient: NaN where the difference stencil meets
a bound.
Each correlation kind is stated once, in `_KINDS` (its parameters, its
kernel over distances and that kernel's derivatives), and each parameter
once, in `_PARAMS` (its range, its optimizer transform with that
transform's derivative, and its start value when unset).

`kronecker_loglik` evaluates complete task-by-dyad grids in factored form,
without the dense matrix. Nothing in the package calls it: it stays public
as the factored-form likelihood that the tests and the benchmark check
against the dense form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from operator import itemgetter
from numbers import Real
from typing import NamedTuple

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy import optimize
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit, logsumexp

from .estimators import CORRELATION_MEASURES


def _lear_span(s, d):
    """(d_min, d - d_min, d_max - d_min) of a lear structure over distances d."""
    off = d[~np.eye(d.shape[0], dtype=bool)]
    d_min = s.d_min if s.d_min is not None else float(off.min())
    d_max = s.d_max if s.d_max is not None else float(off.max())
    if d_max <= d_min:
        raise ValueError(f"lear needs d_max > d_min, got d_min={d_min} d_max={d_max}")
    return d_min, d - d_min, d_max - d_min


def _lear(s, d):
    d_min, above, span = _lear_span(s, d)
    with np.errstate(over="ignore"):  # on the diagonal, set to 1 later, when delta is large
        return s.rho ** (d_min + s.delta * above / span)


def _lear_grad(s, d):
    d_min, above, span = _lear_span(s, d)
    e = d_min + s.delta * above / span
    with np.errstate(over="ignore", invalid="ignore"):  # as in _lear
        c = s.rho**e
        return e * c / s.rho, c * np.log(s.rho) * above / span


def _damped_exponential(s, d):
    with np.errstate(over="ignore"):  # d**nu = inf for d > 1 and a large nu; rho**inf = 0 is its limit
        return s.rho ** (d**s.nu)


def _damped_exponential_grad(s, d):
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        dn = d**s.nu
        c = s.rho**dn
        return dn * c / s.rho, np.where(d > 0, c * np.log(s.rho) * dn * np.log(d), 0.0)


def _spherical(s, d):
    u = d / s.phi
    return np.where(u <= 1.0, 1.0 - 1.5 * u + 0.5 * u**3, 0.0)


def _spherical_grad(s, d):
    u = d / s.phi
    return (np.where(u <= 1.0, 1.5 * u * (1.0 - u**2) / s.phi, 0.0),)


class _Kind(NamedTuple):
    params: tuple  # fitted parameters, in optimizer order
    kernel: object  # (structure, distances) -> correlations, diagonal not yet set; None: identity
    grad: object  # (structure, distances) -> kernel derivative per fitted parameter
    distances: bool = True  # False: the kernel ignores distances
    fixed: tuple = ()  # parameters that are used as given and never fitted


_KINDS = {
    "identity": _Kind((), None, None, distances=False),
    "compound_symmetry": _Kind(
        ("rho",), lambda s, d: np.full(d.shape, s.rho), lambda s, d: (np.ones(d.shape),),
        distances=False,
    ),
    "ar1": _Kind(("rho",), lambda s, d: s.rho**d, lambda s, d: (d * s.rho**d / s.rho,)),
    "lear": _Kind(("rho", "delta"), _lear, _lear_grad, fixed=("d_min", "d_max")),
    "damped_exponential": _Kind(("rho", "nu"), _damped_exponential, _damped_exponential_grad),
    "exponential": _Kind(
        ("phi",), lambda s, d: np.exp(-d / s.phi), lambda s, d: (np.exp(-d / s.phi) * d / s.phi**2,)
    ),
    "gaussian": _Kind(
        ("phi",),
        lambda s, d: np.exp(-((d / s.phi) ** 2)),
        lambda s, d: (np.exp(-((d / s.phi) ** 2)) * 2 * d**2 / s.phi**3,),
    ),
    "linear": _Kind(
        ("phi",),
        lambda s, d: np.where(s.phi * d <= 1.0, 1.0 - s.phi * d, 0.0),
        lambda s, d: (np.where(s.phi * d <= 1.0, -d, 0.0),),
    ),
    "spherical": _Kind(("phi",), _spherical, _spherical_grad),
}
STRUCTURE_KINDS = tuple(_KINDS)
DISTANCE_FREE_KINDS = tuple(kind for kind, spec in _KINDS.items() if not spec.distances)


def _log_median(off):
    return np.log(max(float(np.median(off)) if off.size else 1.0, 1e-6))


class _Param(NamedTuple):
    low: float  # excluded unless closed
    high: float  # excluded
    closed: bool = False
    to_x: object = None  # value -> optimizer coordinate
    from_x: object = None  # optimizer coordinate -> value
    dfrom_x: object = None  # optimizer coordinate -> derivative of from_x
    start: object = None  # off-diagonal distances -> coordinate when unset


def _dexpit(x):
    return expit(x) * expit(-x)


_PARAMS = {
    "rho": _Param(0.0, 1.0, False, lambda v: np.log(v / (1 - v)), expit, _dexpit, lambda off: 0.0),
    "delta": _Param(0.0, np.inf, True, lambda v: np.log(max(v, 1e-6)), np.exp, np.exp, lambda off: 0.0),
    "nu": _Param(0.0, np.inf, False, np.log, np.exp, np.exp, lambda off: np.log(0.5)),
    "phi": _Param(0.0, np.inf, False, np.log, np.exp, np.exp, _log_median),
    "d_min": _Param(0.0, np.inf, True),
    "d_max": _Param(0.0, np.inf, True),
}


@dataclass(frozen=True)
class CorrelationStructure:
    """Parametric correlation over distances; unset params are fitted.

    kinds, parameters and correlation at distance d:
      identity            none
      compound_symmetry   rho        rho
      ar1                 rho        rho**d
      lear                rho, delta rho**(d_min + delta (d - d_min)/(d_max - d_min))
      damped_exponential  rho, nu    rho**(d**nu)
      exponential         phi        exp(-d / phi)
      gaussian            phi        exp(-(d / phi)**2)
      linear              phi        (1 - phi d) where phi d <= 1, else 0
      spherical           phi        (1 - 1.5 u + 0.5 u^3), u = d/phi <= 1, else 0

    A set value must be a finite number (not a bool) in range: rho in (0, 1);
    delta >= 0; nu > 0; phi > 0. lear alone also takes d_min and d_max
    (>= 0; unset, they are the smallest and largest off-diagonal distance).
    Any other kind given a parameter it does not use is an error.
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
            raise ValueError(f"unknown structure {self.kind!r}; choose from {STRUCTURE_KINDS}")
        spec = _KINDS[self.kind]
        for name, p in _PARAMS.items():
            value = getattr(self, name)
            if value is None:
                continue
            if name not in spec.params + spec.fixed:
                raise ValueError(
                    f"{self.kind} takes no parameter {name}; "
                    f"its parameters: {spec.params + spec.fixed}"
                )
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{self.kind}: {name} must be a number, got {value!r}")
            try:
                finite = math.isfinite(value)
            except OverflowError:
                finite = False
            if not finite:
                raise ValueError(f"{self.kind}: {name} must be a finite number")
            if not (value >= p.low if p.closed else value > p.low) or not value < p.high:
                bounds = f"{'[' if p.closed else '('}{p.low:g}, {p.high:g})"
                raise ValueError(f"{self.kind}: {name} must lie in {bounds}, got {value!r}")

    def param_names(self):
        return _KINDS[self.kind].params

    def params(self):
        return {name: getattr(self, name) for name in self.param_names()}


def corr_matrix(structure, distances):
    """Correlation matrix of a structure over a symmetric distance matrix.

    The result has unit diagonal and is checked for positive semidefiniteness
    (minimum eigenvalue >= -1e-8); violations raise with the offending
    parameters in the message.
    """
    d = np.asarray(distances, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distances must be a square matrix")
    kernel = _KINDS[structure.kind].kernel
    if kernel is None:
        return np.eye(d.shape[0])
    for name, value in structure.params().items():
        if value is None:
            raise ValueError(f"{structure.kind}: parameter {name} is unset")
    out = kernel(structure, d)
    np.fill_diagonal(out, 1.0)
    out = (out + out.T) / 2
    min_eig = float(np.linalg.eigvalsh(out).min())
    if min_eig < -1e-8:
        raise ValueError(
            f"{structure.kind} with params {structure.params()} is not positive semidefinite "
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
        return _design(names, self.covariates, self.n_rows())


def _design(names, covariates, rows):
    """One column per name: ones for 'intercept', else that covariate's values."""
    cols = []
    for name in names:
        if name == "intercept":
            cols.append(np.ones(rows))
        elif name in covariates:
            cols.append(np.asarray(covariates[name], dtype=float))
        else:
            raise ValueError(
                f"unknown covariate {name!r}; available: {sorted(covariates)} plus 'intercept'"
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
    # subject x task x dyad
    vals = np.array([[g[s].values[iu, ju] for g in matrices_by_task] for s in range(n_subjects)])
    vals = np.where(vals < 0, 0.0, vals).reshape(-1)
    subject, task, dyad = np.indices((n_subjects, n_tasks, len(dyads))).reshape(3, -1)
    data = DyadDataset(
        subject=subject,
        task=task,
        dyad=dyad,
        v=(vals > threshold).astype(float),
        y=vals,
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


_SENTINEL = 1e10  # objective value outside the optimizer's bounds or where the likelihood fails


def _gradient_hessian(objective, x, h):
    """Central-difference Hessian of the exact gradient at x with
    per-coordinate steps h, symmetrised (objective(x, grad=True) -> (value,
    gradient); one pair of calls per coordinate), and which coordinates had
    a point where the objective met the sentinel."""
    H = np.zeros((x.size, x.size))
    hit = np.zeros(x.size, dtype=bool)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h[i]
        (f_p, g_p), (f_m, g_m) = objective(x + e, grad=True), objective(x - e, grad=True)
        H[:, i] = (g_p - g_m) / (2 * h[i])
        hit[i] = max(f_p, f_m) >= _SENTINEL
    return (H + H.T) / 2, hit


def _standard_errors(objective, x, step):
    """Each coordinate's standard error from the inverse Hessian at x, by
    central differences of the exact gradient with steps step * (1 + |x|)
    (`_gradient_hessian`).

    A coordinate gets NaN when its stencil meets the sentinel: it is on or
    next to a bound, or the likelihood fails there. The others come from
    the Hessian over the coordinates left, and are NaN where a variance is
    not positive or that Hessian is singular.
    """
    H, bad = _gradient_hessian(objective, x, step * (1.0 + np.abs(x)))
    se = np.full(x.size, np.nan)
    keep = np.flatnonzero(~bad)
    if keep.size:
        try:
            var = np.diag(np.linalg.inv(H[np.ix_(keep, keep)]))
        except np.linalg.LinAlgError:
            return se
        se[keep] = np.sqrt(np.where(var > 0, var, np.nan))
    return se


def _objective(loglik, lower, upper):
    """The negative log-likelihood that the optimizers minimize.

    loglik(x, grad) -> (log-likelihood, its gradient or None). The result
    objective(x, grad=False) is the value, or with grad (value, gradient);
    outside lower <= x <= upper, where loglik raises ValueError or
    LinAlgError, and where either is not finite it is the sentinel (with a
    zero gradient).
    """

    def objective(x, grad=False):
        ll, g = np.nan, None
        if np.all((lower <= x) & (x <= upper)):
            try:
                ll, g = loglik(x, grad=grad)
            except (ValueError, np.linalg.LinAlgError):
                pass
        ok = np.isfinite(ll) and (not grad or np.all(np.isfinite(g)))
        if not grad:
            return -ll if ok else _SENTINEL
        return (-ll, -g) if ok else (_SENTINEL, np.zeros(x.size))

    return objective


def _fit_box(objective, start, lower, upper, maxfev, step):
    """Minimize an `_objective` within lower <= x <= upper; (result,
    standard errors).

    L-BFGS-B on the exact gradient (ftol 1e-13, gtol 1e-8, at most maxfev
    evaluations). When it does not report success or ends on the sentinel,
    Nelder-Mead continues from where it stopped with the evaluations left.
    Then, as lme4's boundary check does, the coordinates that lie within
    their standard-error step of a bound move onto it when the objective
    there is no higher, to L-BFGS-B's relative tolerance: a variance that
    tends to 0 is approached along a likelihood flat to first order, which
    neither optimizer follows all the way. The standard errors come from
    gradient differences at the optimum (`_standard_errors`).
    """
    res = optimize.minimize(
        objective, start, args=(True,), jac=True, method="L-BFGS-B",
        bounds=np.column_stack([lower, upper]), options={"maxfun": maxfev, "ftol": 1e-13, "gtol": 1e-8},
    )
    if not res.success or res.fun >= _SENTINEL:
        res = optimize.minimize(
            objective, res.x, method="Nelder-Mead",
            options={"maxfev": max(maxfev - res.nfev, 1), "xatol": 1e-7, "fatol": 1e-9},
        )
    h = step * (1.0 + np.abs(res.x))
    edge = np.where(res.x - lower < h, lower, np.where(upper - res.x < h, upper, res.x))
    if np.any(edge != res.x):
        f_edge = objective(edge)
        if f_edge - res.fun <= 1e-13 * max(abs(res.fun), 1.0):
            res.x, res.fun = edge, f_edge
    return res, _standard_errors(objective, res.x, step)


# ---------------------------------------------------------------------------
# Part I: mixed-effects logistic presence model


def _presence_marginal(params, X, y, subj, n_subjects, nodes, weights, grad=False):
    """Marginal log-likelihood via Laplace-centered Gauss-Hermite quadrature,
    and with grad its gradient over params = [beta, tau]; else None.

    Subject s's random intercept is tau z with z standard normal (lme4's
    GLMM form), so the integrand stays regular at tau = 0, where the model
    is the plain logistic one. Its log integrand g(z) = sum of its rows'
    log p(y | eta + tau z) plus log N(z; 0, 1) has mode z* and sigma* =
    (-g''(z*))^-1/2, and is evaluated at the nodes d_q = z* + sqrt(2)
    sigma* x_q. The gradient differentiates through the mode (Pinheiro &
    Bates 1995): with P_q the normalised quadrature terms, d/dtheta =
    sum_q P_q [dg(d_q)/dtheta + g'(d_q) (dz*/dtheta + sqrt(2) x_q
    dsigma*/dtheta)] + (dsigma*/dtheta) / sigma*, where dz* = -d_theta
    g'(z*) / g''(z*) and dsigma* = sigma*^3 (d_theta g''(z*) + g'''(z*)
    dz*) / 2.
    """
    beta, tau = params[:-1], float(params[-1])
    eta0 = X @ beta

    def by_subject(rows):  # (N, k) row values -> (S, k) subject sums
        return np.stack([np.bincount(subj, weights=c, minlength=n_subjects) for c in rows.T], axis=1)

    z = np.zeros(n_subjects)
    for _ in range(60):
        mu = expit(eta0 + tau * z[subj])
        g1 = tau * np.bincount(subj, weights=y - mu, minlength=n_subjects) - z
        hess = -(tau**2) * np.bincount(subj, weights=mu * (1 - mu), minlength=n_subjects) - 1
        z = z + np.clip(g1 / (-hess), -5.0, 5.0)
        if np.max(np.abs(g1)) < 1e-10:
            break
    mu = expit(eta0 + tau * z[subj])
    w = mu * (1 - mu)
    w3 = w * (1 - 2 * mu)
    # subject sums of y - mu, w and w3: g' = tau s_r - z, g'' = -tau^2 s_w - 1
    s_r, s_w, s_w3 = by_subject(np.column_stack([y - mu, w, w3])).T
    hess = -(tau**2) * s_w - 1
    sigma_star = 1.0 / np.sqrt(-hess)
    # Evaluate g at shifted nodes d_q = z* + sqrt(2) sigma* x_q, all subjects at once.
    d = z[None, :] + np.sqrt(2.0) * sigma_star[None, :] * nodes[:, None]  # (Q, S)
    eta = eta0[None, :] + tau * d[:, subj]  # (Q, N)
    row_ll = y[None, :] * eta - np.logaddexp(0.0, eta)
    # one bincount over (node, subject) cells adds each cell's rows in row order
    cells = (np.arange(nodes.size)[:, None] * n_subjects + subj).ravel()
    size = nodes.size * n_subjects
    g = np.bincount(cells, weights=row_ll.ravel(), minlength=size).reshape(nodes.size, n_subjects)
    g += -0.5 * d**2 - 0.5 * np.log(2 * np.pi)
    log_terms = np.log(weights)[:, None] + nodes[:, None] ** 2 + g
    norm = logsumexp(log_terms, axis=0)
    total = float(np.sum(norm + 0.5 * np.log(2.0) + np.log(sigma_star)))
    if not grad:
        return total, None

    # at the mode: derivatives of g' and g'' over [beta, tau], and g'''
    dg1 = np.column_stack([-tau * by_subject(w[:, None] * X), s_r - tau * z * s_w])
    dg2 = np.column_stack([
        -(tau**2) * by_subject(w3[:, None] * X), -2 * tau * s_w - tau**2 * z * s_w3
    ])
    g3 = -(tau**3) * s_w3
    dz = -dg1 / hess[:, None]
    dsigma = 0.5 * sigma_star[:, None] ** 3 * (dg2 + g3[:, None] * dz)
    # at the nodes: g'(d_q), and g's own derivative weighted by P_q
    P = np.exp(log_terms - norm)  # (Q, S)
    resid = y[None, :] - expit(eta)  # (Q, N)
    r_nodes = np.bincount(cells, weights=resid.ravel(), minlength=size).reshape(P.shape)
    g1_nodes = tau * r_nodes - d
    direct = np.append(X.T @ np.sum(P[:, subj] * resid, axis=0), np.sum(P * r_nodes * d))
    a = np.sum(P * g1_nodes, axis=0)
    b = np.sqrt(2.0) * np.sum(P * g1_nodes * nodes[:, None], axis=0)
    return total, direct + a @ dz + b @ dsigma + np.sum(dsigma / sigma_star[:, None], axis=0)


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
    lower = np.append(np.full(X.shape[1], -40.0), 0.0)  # beta, tau
    upper = np.append(np.full(X.shape[1], 40.0), np.exp(12.0))
    objective = _objective(
        lambda x, grad: _presence_marginal(x, X, y, subj, data.n_subjects, nodes, weights, grad),
        lower, upper,
    )
    res, se = _fit_box(objective, np.append(beta, 0.5), lower, upper, maxfev, 1e-4)
    return PresenceFit(
        names=tuple(names),
        beta=res.x[:-1],
        se=se[:-1],
        tau=float(res.x[-1]),
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
    """Present rows, one block per subject in (task, dyad) order, every block
    padded to the largest block size.

    `xy` (blocks, size, p + 1) stacks each block's [X y] rows, zero on pad
    rows. `cov_index` (blocks, size, size) holds flat indices into the
    raveled (task, dyad) covariance kron(S Gamma S, Omega) + tau2, whose
    row (t, d) is t * n_dyads + d, followed by two pad slots: 0 for every pad
    entry off the diagonal and 1 on it. Pad rows and columns are then those
    of the identity, which add nothing to the log-determinant or the
    quadratic form.
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
        order = np.lexsort((dyad, task, subject))
        _, block, sizes = np.unique(subject[order], return_inverse=True, return_counts=True)
        pos = np.arange(order.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        shape = (sizes.size, int(sizes.max()))
        self.xy = np.zeros(shape + (self.X.shape[1] + 1,))
        self.xy[block, pos] = np.column_stack([self.X, self.y])[order]
        k = self.n_tasks * self.n_dyads
        key = np.full(shape, -1)
        key[block, pos] = (task * self.n_dyads + dyad)[order]
        real = key >= 0
        index = np.where(
            real[:, :, None] & real[:, None, :], key[:, :, None] * k + key[:, None, :], k * k
        )
        pad_block, pad_pos = np.nonzero(~real)
        index[pad_block, pad_pos, pad_pos] = k * k + 1
        self.cov_index = index


def _strength_loglik(design, omega_m, gamma_m, sigma_task, tau2, grad=False):
    """Log-likelihood, GLS coefficients and X' V^-1 X of the strength part,
    and with grad the log-likelihood's derivative with respect to each entry
    of the (task, dyad) covariance, shaped (T, D, T, D); else None.

    Subject block covariance: tau2 + (S Gamma S)[t, t'] * Omega[d, d'] with
    S = diag(sigma_task). One Cholesky factorization of the padded stack of
    block covariances gives W = L^-1 [X y]; the GLS step, the quadratic form
    and, with diag(L), the log-determinant all come from W. beta is profiled
    out, so an entry's derivative is -1/2 the sum of (V^-1 - a a')[i, j] over
    the block entries (i, j) that take it, with a = V^-1 r.
    """
    k = design.n_tasks * design.n_dyads
    full = np.kron(gamma_m * np.outer(sigma_task, sigma_task), omega_m) + tau2
    V = np.take(np.concatenate([full.ravel(), [0.0, 1.0]]), design.cov_index)
    L = np.linalg.cholesky(V)
    if grad:
        L_inv = np.linalg.inv(L)
        W = L_inv @ design.xy
    else:
        W = np.linalg.solve(L, design.xy)
    p = W.shape[2] - 1
    Wx = W[..., :p]
    flat = Wx.reshape(-1, p)
    xtx = flat.T @ flat
    beta = np.linalg.solve(xtx, flat.T @ W[..., p].ravel())
    r = W[..., p] - Wx @ beta
    logdet = 2 * np.sum(np.log(np.diagonal(L, axis1=1, axis2=2)))
    total = -0.5 * (design.y.size * np.log(2 * np.pi) + logdet + np.sum(r * r))
    if not grad:
        return total, beta, xtx, None
    a = np.einsum("sji,sj->si", L_inv, r)  # V^-1 r = L^-T (L^-1 r)
    M = np.swapaxes(L_inv, 1, 2) @ L_inv - a[:, :, None] * a[:, None, :]
    d_full = np.bincount(design.cov_index.ravel(), M.ravel(), minlength=k * k + 2)[: k * k]
    return total, beta, xtx, -0.5 * d_full.reshape((design.n_tasks, design.n_dyads) * 2)


def _hyperspherical_factor(angles_x, T):
    """Lower-triangular L with unit-norm rows from angles pi * expit(x), and
    those angles: row i is (cos a_0, sin a_0 cos a_1, ..., prod sin a_j)."""
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
    return L, theta


def _hyperspherical_corr(angles_x, T):
    """Unit-diagonal correlation from unconstrained angle parameters."""
    L, _ = _hyperspherical_factor(angles_x, T)
    return L @ L.T


def _hyperspherical_grads(angles_x, T):
    """Derivative of `_hyperspherical_corr` with respect to each angle
    coordinate, (angles, T, T)."""
    x = np.asarray(angles_x, dtype=float)
    L, theta = _hyperspherical_factor(x, T)
    dL = np.zeros((x.size, T, T))
    pos = 0
    for i in range(1, T):
        row = theta[pos : pos + i]
        for j in range(i):
            # angle j of row i: its cosine in column j, a sine factor in each later column
            dL[pos + j, i, j] = -np.sin(row[j]) * np.prod(np.sin(row[:j]))
            for c in range(j + 1, i + 1):
                lead = np.cos(row[c]) if c < i else 1.0
                dL[pos + j, i, c] = lead * np.cos(row[j]) * np.prod(np.sin(np.delete(row[:c], j)))
        pos += i
    dL *= (np.pi * _dexpit(x))[:, None, None]
    half = dL @ L.T
    return half + np.swapaxes(half, 1, 2)


class _OmegaParam:
    """Maps optimizer coordinates to a structure's correlation matrix over
    distances (between dyads for Omega, between task times for Gamma), and
    to that matrix's derivative per coordinate."""

    def __init__(self, structure, distances, size):
        self.structure = structure
        if _KINDS[structure.kind].distances and distances is None:
            raise ValueError(
                f"structure {structure.kind!r} needs dyad distances; provide node "
                f"coordinates or use one of {DISTANCE_FREE_KINDS}"
            )
        self.distances = np.zeros((size, size)) if distances is None else distances
        self.names = structure.param_names()
        off = self.distances[~np.eye(size, dtype=bool)]
        given = [(_PARAMS[name], getattr(structure, name)) for name in self.names]
        self.start = np.array([p.start(off) if v is None else p.to_x(float(v)) for p, v in given])

    def structure_at(self, x):
        kw = {name: float(_PARAMS[name].from_x(xv)) for name, xv in zip(self.names, x)}
        return replace(self.structure, **kw)

    def matrix(self, x):
        return corr_matrix(self.structure_at(x), self.distances)

    def grads(self, x):
        """Derivative of matrix(x) with respect to each coordinate, (k, size, size)."""
        n = self.distances.shape[0]
        if not self.names:
            return np.zeros((0, n, n))
        s = self.structure_at(x)
        g = np.array(_KINDS[s.kind].grad(s, self.distances), dtype=float)
        g[:, np.arange(n), np.arange(n)] = 0.0
        chain = [_PARAMS[name].dfrom_x(xv) for name, xv in zip(self.names, x)]
        return (g + np.swapaxes(g, 1, 2)) / 2 * np.array(chain)[:, None, None]


class _GammaParam(NamedTuple):
    """Optimizer coordinates of an identity or unstructured Gamma."""

    start: np.ndarray
    matrix: object  # coordinates -> Gamma
    grads: object  # coordinates -> derivative of Gamma per coordinate, (k, T, T)


def _gamma_param(gamma, data):
    """(Gamma kind, its parametrization) for twopart_fit's gamma argument."""
    T = data.n_tasks
    if isinstance(gamma, CorrelationStructure):
        if T == 1:
            raise ValueError("a task correlation needs more than one task")
        if data.task_times is None:
            raise ValueError("patterned task correlation needs task_times")
        tt = np.abs(data.task_times[:, None] - data.task_times[None, :])
        return gamma.kind, _OmegaParam(gamma, tt, T)
    if gamma == "unstructured" and T > 1:
        return "unstructured", _GammaParam(
            np.zeros(T * (T - 1) // 2),
            partial(_hyperspherical_corr, T=T),
            partial(_hyperspherical_grads, T=T),
        )
    return "identity", _GammaParam(np.zeros(0), lambda x: np.eye(T), lambda x: np.zeros((0, T, T)))


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


class _StrengthModel:
    """The strength log-likelihood over the optimizer's coordinates
    [theta, log sigma_t^2 (T), Omega params, Gamma params], where theta =
    tau / s is the subject standard deviation relative to s, the standard
    deviation of the OLS residuals: tau2 = s^2 theta^2."""

    def __init__(self, data, names, omega, gamma):
        self.design = design = _StrengthDesign(data, names)
        self.om = _OmegaParam(omega or CorrelationStructure("identity"), data.dyad_distances, design.n_dyads)
        self.gamma_kind, self.gm = _gamma_param(gamma, data)
        ols_beta, *_ = np.linalg.lstsq(design.X, design.y, rcond=None)
        self.ols_var = ols_var = float(np.var(design.y - design.X @ ols_beta)) or 1e-4
        self.start = np.concatenate([
            [np.sqrt(0.2)], [np.log(max(0.8 * ols_var, 1e-6))] * design.n_tasks,
            self.om.start, self.gm.start,
        ])

    def unpack(self, x):
        """(tau2, sigma_task, Omega, Gamma, Omega coordinates, Gamma coordinates) at x."""
        T, n_om = self.design.n_tasks, self.om.start.size
        om_x, gm_x = x[1 + T : 1 + T + n_om], x[1 + T + n_om :]
        tau2 = self.ols_var * float(x[0]) ** 2
        sigma_task = np.sqrt(np.exp(x[1 : 1 + T]))
        return tau2, sigma_task, self.om.matrix(om_x), self.gm.matrix(gm_x), om_x, gm_x

    def loglik(self, x, grad=False):
        """(log-likelihood, beta, X' V^-1 X, gradient over the coordinates or
        None) at x. The gradient chains the derivative with respect to each
        (task, dyad) covariance entry through kron(S Gamma S, Omega) + tau2
        and each coordinate's transform."""
        tau2, sigma_task, omega_m, gamma_m, om_x, gm_x = self.unpack(x)
        ll, beta, xtx, d_full = _strength_loglik(self.design, omega_m, gamma_m, sigma_task, tau2, grad)
        if not grad:
            return ll, beta, xtx, None
        scale = np.outer(sigma_task, sigma_task)
        d_task = np.einsum("idje,de->ij", d_full, omega_m)  # with respect to S Gamma S
        d_omega = np.einsum("idje,ij->de", d_full, gamma_m * scale)
        d_sigma = d_task * gamma_m * scale
        g = np.concatenate([
            [d_full.sum() * 2 * self.ols_var * x[0]],
            (d_sigma.sum(axis=0) + d_sigma.sum(axis=1)) / 2,
            np.einsum("kde,de->k", self.om.grads(om_x), d_omega),
            np.einsum("kij,ij->k", self.gm.grads(gm_x), d_task * scale),
        ])
        return ll, beta, xtx, g


def _fit_strength(data, names, omega, gamma, maxfev):
    model = _StrengthModel(data, names, omega, gamma)
    try:
        model.loglik(model.start)
    except (ValueError, np.linalg.LinAlgError) as exc:
        hint = ""
        if data.dyad_distances is not None:
            off = data.dyad_distances[~np.eye(model.design.n_dyads, dtype=bool)]
            if off.size and float(off.min()) == 0.0:
                hint = (
                    "; distinct dyads share a midpoint, which makes "
                    "distance-kernel correlations singular - use "
                    "compound_symmetry or perturb the coordinates"
                )
        raise ValueError(
            f"strength covariance is degenerate at the starting values: {exc}{hint}"
        ) from exc
    # theta in [0, e^12.5 / s], so tau2 <= e^25; every other coordinate in [-25, 25]
    upper = np.append(np.exp(12.5) / np.sqrt(model.ols_var), np.full(model.start.size - 1, 25.0))
    lower = np.append(0.0, -upper[1:])
    objective = _objective(lambda x, grad: itemgetter(0, 3)(model.loglik(x, grad)), lower, upper)
    # Variance-parameter uncertainty from the profile deviance (optimizer's scale).
    res, param_se = _fit_box(objective, model.start, lower, upper, maxfev, 1e-3)
    if res.fun >= _SENTINEL:
        raise ValueError("no valid covariance parameters found during optimization")
    tau2, sigma_task, omega_m, gamma_m, om_x, _ = model.unpack(res.x)
    ll, beta, xtx, _ = model.loglik(res.x)
    labels = (
        ["tau_over_s"]
        + [f"log_sigma2_task{t}" for t in range(sigma_task.size)]
        + [f"omega_{n}" for n in model.om.names]
        + [f"gamma_{i}" for i in range(model.gm.start.size)]
    )
    return StrengthFit(
        names=tuple(names),
        beta=beta,
        se=np.sqrt(np.diag(np.linalg.inv(xtx))),
        tau2=tau2,
        sigma_task=sigma_task,
        omega=model.om.structure_at(om_x),
        omega_matrix=omega_m,
        gamma_kind=model.gamma_kind,
        gamma_matrix=gamma_m,
        loglik=float(ll),
        converged=bool(res.success),
        n_rows=int(model.design.y.size),
        param_se={lab: float(v) for lab, v in zip(labels, param_se)},
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

    Both parts maximize their likelihood - the presence part's marginal
    likelihood, the strength part's profile likelihood - with L-BFGS-B on
    its exact gradient, within bounds on the optimizer's coordinates.
    Presence: beta in [-40, 40] and the subject standard deviation tau in
    [0, e^12]. Strength: theta = tau / s in [0, e^12.5 / s], where s^2 is
    the variance of the OLS residuals (so tau2 = s^2 theta^2 <= e^25), and
    every other coordinate (log task variances, transformed correlation
    parameters) in [-25, 25]. When L-BFGS-B does not report success or ends
    at no valid point, Nelder-Mead continues from where it stopped. maxfev
    caps the likelihood evaluations of each part's optimizer, shared by
    L-BFGS-B and the fallback (L-BFGS-B may finish the line search under
    way). A coordinate that ends within one standard-error step of a bound
    is moved onto it when the likelihood there is no lower (to L-BFGS-B's
    relative tolerance, 1e-13), so a variance that tends to 0 is reported
    as 0. Standard errors of the presence coefficients and of the strength
    covariance parameters (`param_se`, on the optimizer's scale, keyed
    `tau_over_s`, `log_sigma2_task{t}`, `omega_{name}` and `gamma_{i}`)
    come from the inverse Hessian, by central differences of the exact
    gradient. One rule makes a standard error NaN: its difference stencil
    meets a bound (or a point where the likelihood fails). The other
    standard errors are then taken with those coordinates held fixed.
    maxfev must be >= 1.
    """
    if not maxfev >= 1:
        raise ValueError(f"maxfev must be >= 1, got {maxfev!r}")
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
    eta_v = _design(fit.presence.names, covariates, rows) @ fit.presence.beta
    eta_s = _design(fit.strength.names, covariates, rows) @ fit.strength.beta
    return {
        "presence_probability": expit(eta_v),
        "expected_strength": np.tanh(eta_s),
    }
