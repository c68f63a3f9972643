"""Multi-output Gaussian-process model: likelihood, L1-penalized fitting,
prediction, and the independent univariate baseline.

Replicated observations are handled exactly: with all replicates stacked, the
covariance is Kron(C, J_M) + nugget*I over (output, point, replicate) order,
which collapses to an equivalent problem on per-point means plus a scalar
residual term.  All likelihood values equal the stacked-data likelihood.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular, LinAlgError
from scipy.optimize import minimize
from scipy.special import expit, logit

from .covkernel import (
    ANGLE_EPS,
    CrossCorrAngles,
    CrossCorrMatrix,
    MarginalSds,
    RoughnessParams,
    angles_to_corr,
    corr_to_angles,
    cov_matrix,
    cross_cov_block,
    n_angles,
)
from .design import InputSpec

MODEL_FORMAT_VERSION = "mgpkit-model-v1"


class FitError(Exception):
    """Model fitting failed; carries diagnostics in args."""


class NonPositiveDefiniteError(FitError):
    """Covariance factorization failed even after jitter escalation."""


# ---------------------------------------------------------------------------
# Regression basis


@dataclass(frozen=True)
class RegressionBasis:
    """Trend basis shared by all outputs: 'const', 'linear' or 'quad'.

    'quad' is quadratic-diagonal: [1, x_1..x_l, x_1^2..x_l^2].
    """

    kind: str = "const"

    _KINDS = ("const", "linear", "quad")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown basis '{self.kind}'; choose from {self._KINDS}")

    def width(self, l: int) -> int:
        return {"const": 1, "linear": 1 + l, "quad": 1 + 2 * l}[self.kind]

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        ones = np.ones((x.shape[0], 1))
        if self.kind == "const":
            return ones
        if self.kind == "linear":
            return np.hstack([ones, x])
        return np.hstack([ones, x, x ** 2])


# ---------------------------------------------------------------------------
# Dataset


@dataclass(frozen=True)
class Dataset:
    """Replicated multi-output observations on unit-hypercube designs.

    y[i] stacks the reps observations of each design point contiguously
    (point-major order), so len(y[i]) == x[i].shape[0] * reps.
    """

    specs: list
    x: list
    y: list
    reps: int
    output_names: list

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        xs = [np.atleast_2d(np.asarray(xi, dtype=float)) for xi in self.x]
        ys = [np.asarray(yi, dtype=float).ravel() for yi in self.y]
        if len(xs) != len(ys) or len(xs) != len(self.output_names):
            raise ValueError("x, y and output_names must have one entry per output")
        for i, (xi, yi) in enumerate(zip(xs, ys)):
            if yi.size != xi.shape[0] * self.reps:
                raise ValueError(
                    f"output {i}: expected {xi.shape[0] * self.reps} observations, got {yi.size}"
                )
            if not (np.all(np.isfinite(xi)) and np.all(np.isfinite(yi))):
                raise ValueError(f"output {i}: non-finite values in data")
        object.__setattr__(self, "x", xs)
        object.__setattr__(self, "y", ys)

    @property
    def k(self) -> int:
        return len(self.x)

    @property
    def l(self) -> int:
        return self.x[0].shape[1]

    @property
    def n_points(self) -> int:
        return sum(xi.shape[0] for xi in self.x)

    @property
    def n_total(self) -> int:
        return self.n_points * self.reps

    def point_means(self) -> list:
        """Per-output means over replicates at each design point."""
        return [yi.reshape(-1, self.reps).mean(axis=1) for yi in self.y]

    def within_point_sse(self) -> float:
        """Total squared deviation of observations from their point means."""
        sse = 0.0
        for yi in self.y:
            g = yi.reshape(-1, self.reps)
            sse += float(((g - g.mean(axis=1, keepdims=True)) ** 2).sum())
        return sse

    def sub_dataset(self, i: int) -> "Dataset":
        return Dataset(self.specs, [self.x[i]], [self.y[i]], self.reps, [self.output_names[i]])

    def fingerprint(self) -> dict:
        h = hashlib.sha256()
        for xi, yi in zip(self.x, self.y):
            h.update(np.ascontiguousarray(xi).tobytes())
            h.update(np.ascontiguousarray(yi).tobytes())
        return {"n_total": self.n_total, "sha256": h.hexdigest()}


# ---------------------------------------------------------------------------
# Parameters


@dataclass
class MgpParams:
    """All estimable quantities of the model."""

    beta: list
    sigma: MarginalSds
    phi: RoughnessParams
    omega: CrossCorrAngles
    nugget: float
    lam: float = 0.0

    def __post_init__(self):
        if self.nugget < 0.0:
            raise ValueError(f"nugget must be >= 0, got {self.nugget}")
        if self.lam < 0.0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
        self.beta = [np.asarray(b, dtype=float).ravel() for b in self.beta]

    @property
    def t(self) -> CrossCorrMatrix:
        return angles_to_corr(self.omega)

    def beta_concat(self) -> np.ndarray:
        return np.concatenate(self.beta)


# ---------------------------------------------------------------------------
# Likelihood pieces


def build_f_matrix(data: Dataset, basis: RegressionBasis) -> np.ndarray:
    """Block-diagonal trend matrix over the stacked (replicated) observations."""
    blocks = [basis.evaluate(np.repeat(xi, data.reps, axis=0)) for xi in data.x]
    return _blkdiag(blocks)


def _f_points(data: Dataset, basis: RegressionBasis) -> np.ndarray:
    """Block-diagonal trend matrix over design points only (one row per point)."""
    return _blkdiag([basis.evaluate(xi) for xi in data.x])


def _blkdiag(blocks: list) -> np.ndarray:
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols))
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def _factor(params: MgpParams, data: Dataset):
    """Lower Cholesky factor of the point-level covariance of replicate means,
    Cz = M*C + nugget*I, and the diagonal jitter it needed (escalated on failure).
    """
    c = cov_matrix(data.x, params.sigma, params.phi, params.t, nugget=0.0)
    cz = data.reps * c + params.nugget * np.eye(data.n_points)
    scale = float(np.mean(np.diag(cz)))
    jitter = 0.0
    while True:
        try:
            return cholesky(cz + jitter * np.eye(cz.shape[0]), lower=True), jitter
        except LinAlgError:
            jitter = 1e-10 * scale if jitter == 0.0 else jitter * 10.0
            if jitter > 1e-6 * scale:
                raise NonPositiveDefiniteError(
                    "covariance matrix is not positive definite (jitter escalation failed)"
                )


def penalized_loglik(params: MgpParams, data: Dataset, basis: RegressionBasis) -> float:
    """L1-penalized Gaussian log-likelihood of the stacked observations.

    -1/2 (log|R| + e' R^-1 e) - lambda*|beta|_1 - (N/2) log(2*pi), evaluated
    through the exact replicate collapse.
    """
    m, n, n_pts = data.reps, data.n_total, data.n_points
    if m > 1 and params.nugget <= 0.0:
        raise ValueError("replicated data requires a positive nugget")
    chol_l, _ = _factor(params, data)
    ybar = np.concatenate(data.point_means())
    resid = ybar - _f_points(data, basis) @ params.beta_concat()
    w = solve_triangular(chol_l, resid, lower=True)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol_l))))
    quad = m * float(w @ w)
    ll = -0.5 * (n * np.log(2.0 * np.pi) + logdet + quad)
    if m > 1:
        ll -= 0.5 * ((n - n_pts) * np.log(params.nugget) + data.within_point_sse() / params.nugget)
    return ll - params.lam * float(np.sum(np.abs(params.beta_concat())))


# ---------------------------------------------------------------------------
# L1-penalized generalized least squares


def gls_beta_l1(r_chol: np.ndarray, f: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Minimize 1/2 (y - F b)' R^-1 (y - F b) + lam*|b|_1.

    ``r_chol`` is the lower Cholesky factor of R.  The system is whitened by a
    triangular solve; lam = 0 falls back to the closed-form GLS solution, and
    lam > 0 runs coordinate descent with soft thresholding until no
    coefficient moves by 1e-10 in a sweep (at most 10000 sweeps).
    """
    w = solve_triangular(r_chol, y, lower=True)
    fw = solve_triangular(r_chol, f, lower=True)
    q = f.shape[1]
    if lam == 0.0:
        sol, _, rank, _ = np.linalg.lstsq(fw, w, rcond=None)
        if rank < q:
            raise FitError("rank-deficient trend basis: F' R^-1 F is singular")
        return sol
    norms = (fw ** 2).sum(axis=0)
    beta = np.zeros(q)
    r = w.copy()  # running residual w - fw @ beta
    for _ in range(10000):
        max_change = 0.0
        for j in range(q):
            if norms[j] == 0.0:
                continue
            rho = fw[:, j] @ r + norms[j] * beta[j]
            new = np.sign(rho) * max(abs(rho) - lam, 0.0) / norms[j]
            if new != beta[j]:
                r -= (new - beta[j]) * fw[:, j]
                max_change = max(max_change, abs(new - beta[j]))
                beta[j] = new
        if max_change < 1e-10:
            break
    return beta


def lambda_max(r_chol: np.ndarray, f: np.ndarray, y: np.ndarray) -> float:
    """Smallest penalty at which the L1-penalized GLS solution is all-zero."""
    w = solve_triangular(r_chol, y, lower=True)
    fw = solve_triangular(r_chol, f, lower=True)
    return float(np.max(np.abs(fw.T @ w)))


# ---------------------------------------------------------------------------
# Fitting


@dataclass
class FitConfig:
    """Knobs for the block-coordinate maximum-likelihood fit."""

    lam: object = 0.0  # float, or "auto" for BIC-selected penalty
    restarts: int = 5
    seed: int = 0


# block-coordinate search: at most _MAX_ROUNDS (beta step, covariance step)
# rounds of at most _COV_MAXITER L-BFGS-B iterations each; the rounds stop
# once one raises the log-likelihood by less than _ROUND_TOL relative
_MAX_ROUNDS = 4
_COV_MAXITER = 60
_ROUND_TOL = 1e-5
_LAMBDA_GRID = (0.0, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0)  # x N_total, for lam="auto"
_PHI_INIT_RANGE = (0.1, 100.0)  # log-uniform phi of the random starts


@dataclass
class Prediction:
    """Per-output predictive mean and standard deviation."""

    mean: np.ndarray
    sd: np.ndarray
    extrapolated: bool = False


# unconstrained parameter vector layout: [log sigma (K), log phi (K*l),
# logit-scaled omega (K(K-1)/2), log nugget (1)]
_LOG_SIGMA_BOUNDS = (-6.0, 6.0)
_LOG_PHI_BOUNDS = (np.log(1e-3), np.log(1e4))
_OMEGA_U_BOUNDS = (-12.0, 12.0)
_LOG_NUGGET_BOUNDS = (-18.0, 3.0)


def _pack(sigma, phi, omega, nugget):
    u = logit(np.clip(np.asarray(omega) / np.pi, 1e-9, 1 - 1e-9))
    return np.concatenate([np.log(sigma), np.log(phi).ravel(), u, [np.log(nugget)]])


def _unpack(theta, k, l):
    m = n_angles(k)
    sigma = np.exp(theta[:k])
    phi = np.exp(theta[k : k + k * l]).reshape(k, l)
    omega = np.clip(np.pi * expit(theta[k + k * l : k + k * l + m]), ANGLE_EPS, np.pi - ANGLE_EPS)
    nugget = float(np.exp(theta[-1]))
    return sigma, phi, omega, nugget


def _theta_bounds(k, l):
    m = n_angles(k)
    return (
        [_LOG_SIGMA_BOUNDS] * k
        + [_LOG_PHI_BOUNDS] * (k * l)
        + [_OMEGA_U_BOUNDS] * m
        + [_LOG_NUGGET_BOUNDS]
    )


@dataclass
class FittedModel:
    """Immutable result of fit(): parameters plus cached training algebra.

    Parameters are in standardized output units; predictions are mapped back
    to original units through (y_mean, y_scale).
    """

    params: MgpParams
    data: Dataset  # standardized copy used for the algebra
    basis: RegressionBasis
    y_mean: np.ndarray
    y_scale: np.ndarray
    chol: np.ndarray = field(repr=False)  # lower factor of Cz = M*C + nugget*I
    alpha: np.ndarray = field(repr=False)  # M * Cz^-1 (ybar - F beta)
    diagnostics: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return self.data.k

    def beta_original(self) -> list:
        """Trend coefficients mapped back to original output units."""
        out = []
        for i, b in enumerate(self.params.beta):
            bo = self.y_scale[i] * b.copy()
            bo[0] += self.y_mean[i]
            out.append(bo)
        return out


def _condition(params: MgpParams, data: Dataset, basis: RegressionBasis) -> FittedModel:
    """Model conditioned on ``data`` at given parameters, in the units of ``data``."""
    chol_l, jitter = _factor(params, data)
    resid = np.concatenate(data.point_means()) - _f_points(data, basis) @ params.beta_concat()
    return FittedModel(
        params=params,
        data=data,
        basis=basis,
        y_mean=np.zeros(data.k),
        y_scale=np.ones(data.k),
        chol=chol_l,
        alpha=data.reps * cho_solve((chol_l, True), resid),
        diagnostics={"jitter": jitter},
    )


def _fit_once(data, basis, lam, start=None) -> FittedModel:
    """One restart of block-coordinate ascent on standardized data."""
    k, l, m_reps = data.k, data.l, data.reps
    if start is None:
        start = (np.ones(k), np.ones((k, l)), np.full(n_angles(k), np.pi / 2.0), 1e-2)
    sigma0, phi0, omega0, nugget0 = start
    theta = _pack(sigma0, phi0, omega0, nugget0)
    bounds = _theta_bounds(k, l)
    ybar = np.concatenate(data.point_means())
    f_pts = _f_points(data, basis)

    def params_at(theta, beta_list):
        sigma, phi, omega, nugget = _unpack(theta, k, l)
        return MgpParams(
            beta=beta_list,
            sigma=MarginalSds(sigma),
            phi=RoughnessParams(phi),
            omega=CrossCorrAngles(omega, k),
            nugget=nugget,
            lam=lam,
        )

    beta = [np.zeros(basis.width(l)) for _ in range(k)]

    def neg_ll(th):
        try:
            return -penalized_loglik(params_at(th, beta), data, basis)
        except NonPositiveDefiniteError:
            return 1e12

    # L-BFGS-B starts from an identity Hessian, so its first step is the raw
    # gradient; the log-likelihood grows with N_total, and unscaled that step
    # lands on a box corner (phi = 1e4, white noise) where the phi-gradient
    # vanishes.  The search therefore sees the per-observation objective.
    def neg_ll_per_obs(th):
        return neg_ll(th) / data.n_total

    # warm-up: settle sigma/phi/nugget with the angles frozen, so the
    # cross-correlation cannot wander while the marginals are still wrong
    if n_angles(k) > 0:
        frozen = list(bounds)
        for a_i in range(k + k * l, k + k * l + n_angles(k)):
            frozen[a_i] = (theta[a_i], theta[a_i])
        res = minimize(
            neg_ll_per_obs, theta, method="L-BFGS-B", bounds=frozen,
            options={"maxiter": _COV_MAXITER},
        )
        theta = res.x

    def beta_step(th):
        # the collapsed system scales y and F by sqrt(M); lam is unchanged
        chol_l, _ = _factor(params_at(th, beta), data)
        bfull = gls_beta_l1(chol_l, np.sqrt(m_reps) * f_pts, np.sqrt(m_reps) * ybar, lam)
        return np.split(bfull, k)

    prev_obj = -np.inf
    n_iters = 0
    for _ in range(_MAX_ROUNDS):
        beta = beta_step(theta)
        # covariance step at current beta
        res = minimize(
            neg_ll_per_obs,
            theta,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": _COV_MAXITER},
        )
        theta = res.x
        n_iters += int(res.nit)
        obj = -neg_ll(theta)
        if obj - prev_obj < _ROUND_TOL * max(1.0, abs(obj)):
            break
        prev_obj = obj

    # the rounds end on a covariance step: solve beta at the returned covariance
    params = params_at(theta, beta_step(theta))
    model = _condition(params, data, basis)
    model.diagnostics = {
        "loglik": float(penalized_loglik(params, data, basis)),
        "iterations": n_iters,
        **model.diagnostics,
    }
    return model


def _standardize(data: Dataset):
    means = np.array([yi.mean() for yi in data.y])
    scales = np.array([max(yi.std(), 1e-12) for yi in data.y])
    ystd = [(yi - mu) / sc for yi, mu, sc in zip(data.y, means, scales)]
    return Dataset(data.specs, data.x, ystd, data.reps, data.output_names), means, scales


def fit(data: Dataset, basis: RegressionBasis = None, config: FitConfig = None) -> FittedModel:
    """Maximum penalized-likelihood fit of all model parameters.

    Alternates an L1-penalized GLS step for the trend coefficients with a
    bounded quasi-Newton step over the covariance parameters (in log/logit
    space); the best of ``config.restarts`` multi-starts wins.  With
    ``lam="auto"`` the covariance is that of the λ=0 fit; the penalty level
    and trend support are chosen on the L1 path by a BIC over unpenalized GLS
    refits on each support at that covariance, and the returned model carries
    the winning refit (relaxed lasso): ``params.lam`` is 0, and
    ``diagnostics`` holds the selected ``lambda`` and ``support``.
    """
    basis = basis or RegressionBasis("const")
    config = config or FitConfig()
    if config.lam == "auto":
        return _fit_auto(data, basis, config)
    lam = float(config.lam)

    sdata, means, scales = _standardize(data)
    rng = np.random.default_rng(config.seed)
    best = None
    errors = []
    lo, hi = _PHI_INIT_RANGE
    k, l = sdata.k, sdata.l
    starts = [None] * config.restarts
    if k > 1:
        # informed first start: univariate prefits for sigma/phi/nugget and an
        # empirical-correlation guess for the angles
        try:
            starts[0] = _informed_start(sdata, basis, config)
        except FitError:
            pass
    for i in range(config.restarts):
        start = starts[i]
        if start is None and i > 0:
            if starts[0] is not None and i % 2 == 1:
                # perturb the informed start
                s0, p0, o0, n0 = starts[0]
                phi0 = p0 * np.exp(rng.normal(0.0, 0.5, size=(k, l)))
                w = rng.uniform(0.4, 0.9)
                om0 = np.clip(w * o0 + (1 - w) * np.pi / 2.0, ANGLE_EPS, np.pi - ANGLE_EPS)
                start = (s0, phi0, om0, n0)
            else:
                phi0 = np.exp(rng.uniform(np.log(lo), np.log(hi), size=(k, l)))
                start = (np.ones(k), phi0, np.full(n_angles(k), np.pi / 2.0), 1e-2)
        try:
            model = _fit_once(sdata, basis, lam, start=start)
        except FitError as exc:
            errors.append(str(exc))
            continue
        if best is None or model.diagnostics["loglik"] > best.diagnostics["loglik"]:
            best = model
    if best is None:
        raise FitError(f"all {config.restarts} restarts failed: {errors}")
    best.y_mean = means
    best.y_scale = scales
    best.diagnostics["restarts"] = config.restarts
    best.diagnostics["lambda"] = lam
    return best


def _informed_start(sdata: Dataset, basis: RegressionBasis, config: FitConfig):
    """Starting point from per-output univariate fits plus empirical correlation."""
    k = sdata.k
    prefits = fit_independent(sdata, basis, replace(config, lam=0.0, restarts=2))
    # each prefit re-standardizes; undo its scale to stay in sdata units
    sigma0 = np.array([m.params.sigma.sigma[0] * m.y_scale[0] for m in prefits])
    phi0 = np.array([m.params.phi.phi[0] for m in prefits])
    nugget0 = float(np.mean([m.params.nugget * m.y_scale[0] ** 2 for m in prefits]))
    omega0 = np.full(n_angles(k), np.pi / 2.0)
    shapes = {xi.shape for xi in sdata.x}
    if len(shapes) == 1 and all(np.allclose(xi, sdata.x[0]) for xi in sdata.x[1:]):
        with np.errstate(divide="ignore", invalid="ignore"):
            t_emp = np.corrcoef(sdata.point_means())
        # an output constant over the design has no correlation: keep right angles
        if np.all(np.isfinite(t_emp)):
            t0 = 0.8 * t_emp + 0.2 * np.eye(k)  # shrink toward I to keep PD margins
            w, v = np.linalg.eigh((t0 + t0.T) / 2.0)
            t0 = v @ np.diag(np.clip(w, 1e-6, None)) @ v.T
            d = np.sqrt(np.diag(t0))
            t0 = t0 / np.outer(d, d)
            np.fill_diagonal(t0, 1.0)
            omega0 = corr_to_angles(CrossCorrMatrix(t0)).angles
    return sigma0, phi0, omega0, nugget0


def _select_lambda(model0: FittedModel):
    """Pick (lambda, support, beta) on the L1 path by BIC over relaxed refits.

    The covariance is held at the unpenalized fit ``model0``; each grid value
    of lambda yields a support via the whitened lasso, the support gets an
    unpenalized GLS refit, and supports are compared by residual quadratic
    form plus ``|support| * log(N)``.  Returns the winning lambda, support
    index array and refit coefficients (zero off the support, concatenated
    over outputs); ties prefer the sparser support.
    """
    data = model0.data  # standardized
    chol_l, _ = _factor(model0.params, data)
    f_pts = _f_points(data, model0.basis)
    ybar = np.concatenate(data.point_means())
    s = np.sqrt(data.reps)
    w_f = solve_triangular(chol_l, f_pts, lower=True) * s
    w_y = solve_triangular(chol_l, ybar, lower=True) * s
    n_tot = data.n_total
    scored = []
    for g in sorted(_LAMBDA_GRID):
        lam = g * n_tot
        if lam > 0:
            sup = np.flatnonzero(gls_beta_l1(np.eye(len(w_y)), w_f, w_y, lam))
        else:
            sup = np.arange(f_pts.shape[1])
        relaxed = np.zeros(f_pts.shape[1])
        if len(sup):
            coef, *_ = np.linalg.lstsq(w_f[:, sup], w_y, rcond=None)
            relaxed[sup] = coef
        bic = float(np.sum((w_y - w_f @ relaxed) ** 2)) + len(sup) * np.log(n_tot)
        scored.append(((bic, len(sup), -lam), lam, sup, relaxed))
    _, lam_sel, support, beta = min(scored, key=lambda entry: entry[0])
    return lam_sel, support, beta


def _fit_auto(data: Dataset, basis: RegressionBasis, config: FitConfig) -> FittedModel:
    """lam="auto": the lam=0 fit's covariance with the BIC-selected relaxed trend."""
    model0 = fit(data, basis, replace(config, lam=0.0))
    lam_sel, support, beta = _select_lambda(model0)
    params = replace(model0.params, beta=np.split(beta, model0.k))
    model = _condition(params, model0.data, basis)
    model.y_mean, model.y_scale = model0.y_mean, model0.y_scale
    model.diagnostics = {
        **model0.diagnostics,
        "loglik": float(penalized_loglik(params, model0.data, basis)),
        "lambda": lam_sel,
        "support": support.tolist(),
    }
    return model


def fit_independent(
    data: Dataset, basis: RegressionBasis = None, config: FitConfig = None
) -> list:
    """Fit K separate univariate GPs, one per output."""
    return [fit(data.sub_dataset(i), basis, config) for i in range(data.k)]


# ---------------------------------------------------------------------------
# Prediction


# query rows per block of predict_batch: bounds the (K*rows) x (K*n) cross-covariance
PREDICT_BLOCK_ROWS = 128


def predict(model: FittedModel, x0: np.ndarray) -> Prediction:
    """Predictive mean and simple-kriging standard deviation at one point."""
    x0 = np.asarray(x0, dtype=float).ravel()
    mean, sd = predict_batch(model, x0[None, :])
    extrapolated = bool(np.any(x0 < 0.0) or np.any(x0 > 1.0))
    return Prediction(mean=mean[0], sd=sd[0], extrapolated=extrapolated)


def predict_batch(model: FittedModel, x: np.ndarray) -> tuple:
    """Means and sds at many points: returns (n x K, n x K) arrays.

    Rows go in blocks of b: row o*b + i of the cross-covariance r pairs output
    o at query row i with every training point, so one triangular solve with
    K*b right-hand sides gives every variance of the block.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    data, p = model.data, model.params
    k, t = data.k, p.t  # p.t rebuilds T from the angles on every access
    beta = np.column_stack(p.beta)
    means = np.empty((x.shape[0], k))
    sds = np.empty((x.shape[0], k))
    for lo in range(0, x.shape[0], PREDICT_BLOCK_ROWS):
        xb = x[lo : lo + PREDICT_BLOCK_ROWS]
        r = np.block([[cross_cov_block(xb, data.x[j], o, j, p.sigma, p.phi, t) for j in range(k)]
                      for o in range(k)])
        mean_std = model.basis.evaluate(xb) @ beta + (r @ model.alpha).reshape(k, -1).T
        v = solve_triangular(model.chol, r.T, lower=True)
        var_std = p.sigma.sigma ** 2 + p.nugget - data.reps * (v * v).sum(axis=0).reshape(k, -1).T
        means[lo : lo + len(xb)] = model.y_mean + model.y_scale * mean_std
        sds[lo : lo + len(xb)] = model.y_scale * np.sqrt(np.maximum(var_std, 0.0))
    return means, sds


def rmse(model, test: Dataset) -> np.ndarray:
    """Per-output test RMSE; `model` is a FittedModel or a list of K of them."""
    if test.n_points == 0:
        raise ValueError("empty test dataset")
    out = np.empty(test.k)
    for i in range(test.k):
        if isinstance(model, list):
            mean, _ = predict_batch(model[i], test.x[i])
            pred = mean[:, 0]
        else:
            mean, _ = predict_batch(model, test.x[i])
            pred = mean[:, i]
        obs = test.y[i].reshape(-1, test.reps)
        err = obs - pred[:, None]
        out[i] = float(np.sqrt(np.mean(err ** 2)))
    return out


# ---------------------------------------------------------------------------
# Serialization


def model_to_json(model: FittedModel) -> str:
    p = model.params
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "specs": [{"name": s.name, "lower": s.lower, "upper": s.upper} for s in model.data.specs],
        "basis": model.basis.kind,
        "output_names": list(model.data.output_names),
        "params": {
            "beta": [b.tolist() for b in p.beta],
            "sigma": p.sigma.sigma.tolist(),
            "phi": p.phi.phi.tolist(),
            "omega": p.omega.angles.tolist(),
            "t": p.t.t.tolist(),
            "nugget": p.nugget,
            "lambda": p.lam,
        },
        "standardization": {"y_mean": model.y_mean.tolist(), "y_scale": model.y_scale.tolist()},
        "training": {
            "x": [xi.tolist() for xi in model.data.x],
            "y": [yi.tolist() for yi in model.data.y],
            "reps": model.data.reps,
            "fingerprint": model.data.fingerprint(),
        },
        "diagnostics": {k: v for k, v in model.diagnostics.items()},
    }
    return json.dumps(doc, indent=2)


def model_from_json(text: str) -> FittedModel:
    doc = json.loads(text)
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format: {doc.get('version')!r}")
    specs = [InputSpec(s["name"], s["lower"], s["upper"]) for s in doc["specs"]]
    tr = doc["training"]
    data = Dataset(
        specs,
        [np.array(xi) for xi in tr["x"]],
        [np.array(yi) for yi in tr["y"]],
        tr["reps"],
        doc["output_names"],
    )
    pp = doc["params"]
    k = data.k
    params = MgpParams(
        beta=[np.array(b) for b in pp["beta"]],
        sigma=MarginalSds(np.array(pp["sigma"])),
        phi=RoughnessParams(np.array(pp["phi"])),
        omega=CrossCorrAngles(np.array(pp["omega"]), k),
        nugget=float(pp["nugget"]),
        lam=float(pp["lambda"]),
    )
    model = _condition(params, data, RegressionBasis(doc["basis"]))
    model.y_mean = np.array(doc["standardization"]["y_mean"])
    model.y_scale = np.array(doc["standardization"]["y_scale"])
    model.diagnostics = doc.get("diagnostics", {})
    return model
