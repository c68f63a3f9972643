"""Multi-output Gaussian-process model: likelihood, L1-penalized fitting,
prediction, and the independent univariate baseline.

Replicated observations are handled exactly: with all replicates stacked, the
covariance is Kron(C, J_M) + nugget*I over (output, point, replicate) order,
which collapses to an equivalent problem on per-point means plus a scalar
residual term.  All likelihood values equal the stacked-data likelihood.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from numbers import Real

import numpy as np
from scipy.linalg import block_diag, solve_triangular, LinAlgError
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs, dtrtri

from .covkernel import (CrossCorrAngles, CrossCorrMatrix, MarginalSds, OutputPairs, RoughnessParams,
                        angles_to_corr, corr_and_angle_grads, corr_to_angles, design_of, pair_groups,
                        kernels_from_sq_diffs, n_angles, pair_constants, sq_diffs)
# not called here; kept as mgp.cov_matrix and mgp.cross_cov_block, which span tracers wrap
from .covkernel import cov_matrix, cross_cov_block  # noqa: F401
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

    @property
    def design_of(self) -> list:
        """Per output, the index of the first output on exactly the same points."""
        return design_of(self.x)

    def sub_dataset(self, i: int) -> "Dataset":
        return Dataset(self.specs, [self.x[i]], [self.y[i]], self.reps, [self.output_names[i]])


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


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``a`` (LAPACK dpotrf; in place if ``a`` is
    Fortran-ordered), its upper triangle zero.  LinAlgError if ``a`` is not
    positive definite or the factor not finite: dpotrf passes NaN through."""
    c, info = dpotrf(a, lower=1, overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    if info > 0 or not np.isfinite(c.trace()):
        raise LinAlgError("matrix is not positive definite or not finite")
    return c


def _factor_collapsed(c: np.ndarray, reps: int, nugget: float):
    """Lower Cholesky factor of Cz = reps*c + nugget*I and the jitter it needed.

    ``c`` is left as it is.  Jitter * I is added, from 1e-10 up to 1e-6
    times the mean diagonal of Cz, only after a factorization has failed.
    """
    def factor(jitter):  # each Cz is a new Fortran-ordered array, which dpotrf overwrites
        cz = np.multiply(c, reps, order="F")
        diag = cz.ravel(order="K")[:: len(c) + 1]  # a view, as cz is contiguous
        diag += nugget
        if jitter:
            diag += jitter
        return cholesky(cz), jitter

    try:
        return factor(0.0)
    except LinAlgError:
        pass
    scale = float(np.mean(np.diag(c) * reps + nugget))
    jitter = 1e-10 * scale
    while 0.0 < jitter <= 1e-6 * scale:  # no jitter rescues a diagonal mean <= 0
        try:
            return factor(jitter)
        except LinAlgError:
            jitter *= 10.0
    raise NonPositiveDefiniteError(
        "covariance matrix is not positive definite (jitter escalation failed)"
    )


def penalized_loglik(params: MgpParams, data: Dataset, basis: RegressionBasis) -> float:
    """L1-penalized Gaussian log-likelihood of the stacked observations.

    -1/2 (log|R| + e' R^-1 e) - lambda*|beta|_1 - (N/2) log(2*pi), evaluated
    through the exact replicate collapse: the ``diagnostics["loglik"]`` of
    :meth:`_LoglikEngine.condition`.  Its references are dense inversions of
    the stacked covariance: ``dense_oracle_loglik`` in the tests and
    ``DenseModel.loglik`` in ``bench/checks.py``.
    """
    return _LoglikEngine(data, basis).condition(params).diagnostics["loglik"]


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


# ---------------------------------------------------------------------------
# Fitting


@dataclass
class FitConfig:
    """Knobs for the block-coordinate maximum-likelihood fit."""

    lam: object = 0.0  # float, or "auto" for BIC-selected penalty
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.lam != "auto" and not (isinstance(self.lam, Real) and 0.0 <= self.lam < np.inf):
            raise ValueError(f"lambda must be 'auto' or a finite number >= 0, got {self.lam!r}")


# block-coordinate search: _MAX_ROUNDS (beta step, covariance step) rounds of
# at most _COV_MAXITER L-BFGS-B iterations each.  On the 30 training sets of
# the joint-fit benchmark's seeds 1-10 (40 points x 4 reps, linear trend,
# restarts=1, scored on 500 noise-free plant points), 2 rounds against 4 cut
# the likelihood evaluations from 18,964 to 13,604 (K=1 prefits) and from
# 9,861 to 6,058 (K=3) and the mean relative test RMSE from 0.0772 to 0.0720,
# for a mean log-likelihood 3.6 lower (184.53 against 188.14).  One round
# solves beta only at the start and loses 5.7 more (178.87).
_MAX_ROUNDS = 2
_COV_MAXITER = 60
# L-BFGS-B ftol of the univariate prefits only: they just seed the joint search.  On the
# sets above, 1e-3 and 1e-4 against the default: K=1 evaluations 2,284 and 4,641 against
# 13,605, mean log-likelihood 184.95 and 184.70 against 184.52, RMSE 0.0695 and 0.0693 vs 0.0721.
_PREFIT_FTOL = 1e-3
_LAMBDA_GRID = (0.0, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0)  # x N_total, for lam="auto"
_PHI_INIT_RANGE = (0.1, 100.0)  # log-uniform phi of the random starts
# diagnostics that fit() sums over its restarts and the univariate prefits:
# L-BFGS-B searches, searches stopped at _COV_MAXITER, and likelihood
# evaluations whose covariance could not be factored (a 1e12 penalty)
_SEARCH_COUNTS = ("searches", "iter_limit_hits", "npd_penalties")


@dataclass
class Prediction:
    """Per-output predictive mean and standard deviation."""

    mean: np.ndarray
    sd: np.ndarray


# unconstrained parameter vector layout: [log sigma (K), log phi (K*l),
# logit-scaled omega (K(K-1)/2), log nugget (1)]
_LOG_SIGMA_BOUNDS = (-6.0, 6.0)
_LOG_PHI_BOUNDS = (np.log(1e-3), np.log(1e4))
_OMEGA_U_BOUNDS = (-12.0, 12.0)  # pi * expit(+-12): every angle within 1.9e-5 of (0, pi)
_LOG_NUGGET_BOUNDS = (-18.0, 3.0)


def _pack(sigma, phi, omega, nugget):
    from scipy.special import logit
    u = logit(np.asarray(omega) / np.pi)
    return np.concatenate([np.log(sigma), np.log(phi).ravel(), u, [np.log(nugget)]])


def _unpack(theta, k, l):
    from scipy.special import expit
    m = n_angles(k)
    sigma = np.exp(theta[:k])
    phi = np.exp(theta[k : k + k * l]).reshape(k, l)
    omega = np.pi * expit(theta[k + k * l : k + k * l + m])
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


class _LoglikEngine:
    """Log-likelihood and its exact gradient in the packed parameters θ, and
    the model conditioned at given parameters, for one dataset and trend basis.

    What stays fixed during a fit is computed once, and all restarts of a
    fit share the engine: the output pairs i <= j with their squared
    differences (:class:`OutputPairs`), the point means ȳ, the block-diagonal
    trend matrix F, the β step's system √M·F and √M·ȳ, and the replicate SSE.  Each call
    builds Cz = M*C + nugget*I from them, factors it once and returns ℓ and
    ∂ℓ/∂θ = ½ tr[(M a a' − Cz⁻¹) ∂Cz/∂θ] with a = Cz⁻¹(ȳ − Fβ) (Rasmussen &
    Williams 2006, §5.4.1), plus the nugget's replicate-SSE term, through the
    hypersphere map of the angles and the log/logit packing.  The pairs'
    constants and gradient algebra are arrays over all P = K(K+1)/2 pairs;
    each group of pairs takes one product for its kernels, one for its sums,
    and one gather of Cz⁻¹ from dpotri's triangle, which is never symmetrized.
    """

    def __init__(self, data: Dataset, basis: RegressionBasis):
        self.data, self.basis = data, basis
        self.k, self.l, self.reps = data.k, data.l, data.reps
        self.n_points, self.n_total = data.n_points, data.n_total
        self.ybar = np.concatenate(data.point_means())
        self.f = block_diag(*[basis.evaluate(xi) for xi in data.x])
        self.f_s, self.y_s = np.sqrt(self.reps) * self.f, np.sqrt(self.reps) * self.ybar
        self.sse = data.within_point_sse()
        self.pairs = OutputPairs(data.x)
        self.ii, self.jj = self.pairs.ii, self.pairs.jj
        # per output, the rows e*P + p of its K+1 terms (end e of pair p), in pair
        # order with end i first: each output's gradient adds its terms in this order
        order = np.argsort(np.column_stack([self.ii, self.jj]).ravel(), kind="stable")
        self.ends = (order % 2 * len(self.ii) + order // 2).reshape(self.k, self.k + 1)
        self.cross = self.ii < self.jj
        # ½M, doubled for the blocks off the diagonal, which C holds twice
        self.half = 0.5 * self.reps * np.where(self.cross, 2.0, 1.0)

    def _c(self, sigma, phi, t):
        """C, each group's kernels without sigma_i sigma_j T_ij, and the pair
        constants of :func:`pair_constants`."""
        consts = pair_constants(sigma, phi, t, self.ii, self.jj)
        return (*self.pairs.cov(consts), consts)

    def _loglik(self, chol_l, beta, nugget, lam):
        """Penalized stacked-data log-likelihood from the factor of
        Cz = M*C + nugget*I, and a = Cz⁻¹ (ȳ - Fβ)."""
        m = self.reps
        if m > 1 and nugget <= 0.0:
            raise ValueError("replicated data requires a positive nugget")
        resid = self.ybar - self.f @ beta
        a, info = dpotrs(chol_l, resid, lower=1)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of dpotrs")
        logdet = 2.0 * float(np.log(chol_l.diagonal()).sum())
        ll = -0.5 * (self.n_total * np.log(2.0 * np.pi) + logdet + m * float(resid @ a))
        if m > 1:
            ll -= 0.5 * ((self.n_total - self.n_points) * np.log(nugget) + self.sse / nugget)
        return ll - lam * float(np.abs(beta).sum()), a

    def factor(self, theta):
        """Lower Cholesky factor of Cz at θ and the jitter it needed."""
        sigma, phi, omega, nugget = _unpack(theta, self.k, self.l)
        t = angles_to_corr(CrossCorrAngles(omega, self.k)).t
        return _factor_collapsed(self._c(sigma, phi, t)[0], self.reps, nugget)

    def condition(self, params: MgpParams, factor=None) -> FittedModel:
        """Model conditioned on the engine's data at ``params``: one factor L of
        Cz (``factor``, a (factor, jitter) pair, if the caller has it) gives L,
        α = M Cz⁻¹ (ȳ - Fβ) and ``diagnostics["loglik"]``; L⁻¹ waits for the
        first variance (:attr:`FittedModel.chol_inv`)."""
        if factor is None:
            c = self._c(params.sigma.sigma, params.phi.phi, params.t.t)[0]
            factor = _factor_collapsed(c, self.reps, params.nugget)
        chol_l, jitter = factor
        ll, a = self._loglik(chol_l, params.beta_concat(), params.nugget, params.lam)
        return FittedModel(
            params=params,
            data=self.data,
            basis=self.basis,
            y_mean=np.zeros(self.k),
            y_scale=np.ones(self.k),
            chol=chol_l,
            alpha=self.reps * a,
            diagnostics={"loglik": float(ll), "jitter": jitter},
        )

    def loglik_grad(self, theta, beta, lam=0.0):
        """(ℓ, ∂ℓ/∂θ) at θ for the concatenated trend ``beta``; ℓ equals
        :func:`penalized_loglik` of the same parameters."""
        k, l, m = self.k, self.l, self.reps
        sigma, phi, omega, nugget = _unpack(theta, k, l)
        t, dt_domega = corr_and_angle_grads(omega, k)
        c, kernels, (phi_ends, harm, _, s, st) = self._c(sigma, phi, t)
        chol_l, _ = _factor_collapsed(c, m, nugget)
        ll, a = self._loglik(chol_l, beta, nugget, lam)

        # dpotri fills the lower triangle of Cz⁻¹, read at (max(r, c), min(r, c))
        inv, info = dpotri(chol_l, lower=1, overwrite_c=1)
        if info != 0:
            raise NonPositiveDefiniteError(f"inverse from the Cholesky factor failed (info {info})")
        inv_t = inv.T  # C-ordered, as dpotri returns a Fortran-ordered array
        # per pair: Σ W∘E over its block of W = M a a' − Cz⁻¹ (∂ℓ/∂Cz, doubled), and the
        # same weighted by each D²_d, from one (G × n_a n_b) @ (n_a n_b × l) product per group
        q, r = np.empty(len(self.ii)), np.empty((len(self.ii), l))
        for (ps, d2, rows, cols), e, tri in zip(self.pairs.groups, kernels, self.pairs.lower_index):
            we = np.einsum("gi,gj->gij", a[rows], a[cols]).reshape(e.shape)  # a_r a_c
            we *= m
            we -= inv_t.take(tri)
            we *= e
            q[ps] = we.sum(axis=1)
            r[ps] = we @ d2
        s0 = st * q  # Σ W∘C
        s_d = st[:, None] * r
        # each pair's terms for its outputs i and j: σ (column 0), then φ by
        # ∂log C_ij/∂log φ_id = (¼ − ½φ_id/(φ_id+φ_jd)) − h_d φ_jd/(φ_id+φ_jd) D²_d
        den = phi_ends[0] + phi_ends[1]
        terms = np.empty((2, len(self.ii), 1 + l))
        terms[:, :, 0] = self.half * s0
        np.multiply(self.half[:, None],
                    (0.25 - 0.5 * phi_ends / den) * s0[:, None]
                    - harm * phi_ends[::-1] / den * s_d,
                    out=terms[:, :, 1:])
        g = terms.reshape(-1, 1 + l)[self.ends].sum(axis=1)  # each output's terms, in order
        g_u = np.empty(0)  # the angles' terms: none at K=1
        if k > 1:
            g_t = np.zeros((k, k))
            g_t[self.ii, self.jj] = np.where(self.cross, m * s * q, 0.0)  # T's diagonal is fixed
            g_omega = np.einsum("ij,pij->p", g_t, dt_domega)
            from scipy.special import expit
            ex = expit(theta[k + k * l : -1])
            g_u = g_omega * np.pi * ex * (1.0 - ex)
        n_extra = self.n_total - self.n_points
        trace_w = float((a * a * m - inv.diagonal()).sum())
        g_nugget = 0.5 * trace_w - 0.5 * (n_extra / nugget - self.sse / nugget ** 2)
        grad = np.concatenate([g[:, 0], g[:, 1:].ravel(), g_u, [nugget * g_nugget]])
        # dpotrf reads one triangle of Cz, the gradient both: a NaN the other holds shows here
        if not np.isfinite(grad).all():
            raise NonPositiveDefiniteError("non-finite gradient of the log-likelihood")
        return ll, grad


@dataclass
class FittedModel:
    """A model conditioned on its training data by :meth:`_LoglikEngine.condition`:
    parameters plus cached training algebra (the factor L of Cz and α; L⁻¹ for
    the predictive variances once one is asked for).  Fitting and loading then
    set its standardization and diagnostics; the model JSON holds neither L nor L⁻¹.
    Parameters are in standardized output units; predictions are mapped back
    to original units through (y_mean, y_scale).
    """

    params: MgpParams
    data: Dataset  # standardized copy used for the algebra
    basis: RegressionBasis
    y_mean: np.ndarray
    y_scale: np.ndarray
    chol: np.ndarray = field(repr=False)  # lower factor L of Cz = M*C + nugget*I
    alpha: np.ndarray = field(repr=False)  # M * Cz^-1 (ybar - F beta)
    diagnostics: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return self.data.k

    @cached_property
    def chol_inv(self) -> np.ndarray:
        """L⁻¹, lower triangular, from LAPACK dtrtri at its first read: fits,
        loads and means-only predictions never form it."""
        # dtrtri reads and writes the lower triangle; the upper one stays zero
        chol_inv, info = dtrtri(self.chol, lower=1)
        if info != 0:
            raise NonPositiveDefiniteError(f"inverse of the Cholesky factor failed (info {info})")
        return chol_inv


# scipy.optimize loads at the first search, not at import; span tracers and tests wrap this name
def minimize(*args, **kwargs):
    from scipy.optimize import minimize
    return minimize(*args, **kwargs)


def _fit_once(engine: _LoglikEngine, lam, counts, start=None, **options) -> FittedModel:
    """One restart of block-coordinate ascent on the engine's standardized data;
    its searches, with extra L-BFGS-B ``options``, count in ``counts`` (_SEARCH_COUNTS)."""
    k, l, n_total = engine.k, engine.l, engine.n_total
    if start is None:
        start = (np.ones(k), np.ones((k, l)), np.full(n_angles(k), np.pi / 2.0), 1e-2)
    theta = _pack(*start)
    bounds = _theta_bounds(k, l)
    beta = np.zeros(k * engine.basis.width(l))

    # L-BFGS-B starts from an identity Hessian, so its first step is the raw
    # gradient; the log-likelihood grows with N_total, and unscaled that step
    # lands on a box corner (phi = 1e4, white noise) where the phi-gradient
    # vanishes.  The search therefore sees the per-observation objective.
    def neg_ll_per_obs(th):
        try:
            ll, grad = engine.loglik_grad(th, beta, lam)
        except NonPositiveDefiniteError:
            counts["npd_penalties"] += 1
            return 1e12 / n_total, np.zeros_like(th)
        return -ll / n_total, -grad / n_total

    round_loglik = []  # penalized ℓ at the end of each search

    def search(th, box):
        res = minimize(neg_ll_per_obs, th, jac=True, method="L-BFGS-B", bounds=box,
                       options={"maxiter": _COV_MAXITER, **options})
        counts["searches"] += 1
        counts["iter_limit_hits"] += int(res.nit >= _COV_MAXITER)
        round_loglik.append(-float(res.fun) * n_total)
        return res

    # warm-up: settle sigma/phi/nugget with the angles frozen, so the cross-correlation
    # cannot wander while the marginals are still wrong.  On the sets cited at _MAX_ROUNDS,
    # dropping it raises mean log-likelihood from 185.0 to 189.0, and test RMSE from 0.069 to 0.083.
    if n_angles(k) > 0:
        frozen = list(bounds)
        for a_i in range(k + k * l, k + k * l + n_angles(k)):
            frozen[a_i] = (theta[a_i], theta[a_i])
        theta = search(theta, frozen).x

    n_iters = 0
    for _ in range(_MAX_ROUNDS):
        beta = gls_beta_l1(engine.factor(theta)[0], engine.f_s, engine.y_s, lam)
        # covariance step at current beta
        res = search(theta, bounds)
        theta = res.x
        n_iters += int(res.nit)

    # the rounds end on a covariance step: solve beta at the returned
    # covariance, whose factor the returned model keeps
    factor = engine.factor(theta)
    sigma, phi, omega, nugget = _unpack(theta, k, l)
    params = MgpParams(
        beta=np.split(gls_beta_l1(factor[0], engine.f_s, engine.y_s, lam), k),
        sigma=MarginalSds(sigma),
        phi=RoughnessParams(phi),
        omega=CrossCorrAngles(omega, k),
        nugget=nugget,
        lam=lam,
    )
    model = engine.condition(params, factor)
    model.diagnostics["iterations"] = n_iters
    model.diagnostics["round_loglik"] = round_loglik
    return model


def _standardize(data: Dataset):
    means = np.array([yi.mean() for yi in data.y])
    scales = np.array([max(yi.std(), 1e-12) for yi in data.y])
    ystd = [(yi - mu) / sc for yi, mu, sc in zip(data.y, means, scales)]
    return Dataset(data.specs, data.x, ystd, data.reps, data.output_names), means, scales


def _fit_restarts(engine, lam, restarts, seed, counts, informed=None, **options) -> FittedModel:
    """Best of ``restarts`` runs of _fit_once (L-BFGS-B ``options`` passed on); the
    first starts from ``informed`` if given, every second one from a perturbation of it."""
    rng = np.random.default_rng(seed)
    best = None
    errors = []
    lo, hi = _PHI_INIT_RANGE
    k, l = engine.k, engine.l
    for i in range(restarts):
        if i == 0:
            start = informed
        elif informed is not None and i % 2 == 1:
            # perturb the informed start
            s0, p0, o0, n0 = informed
            phi0 = p0 * np.exp(rng.normal(0.0, 0.5, size=(k, l)))
            w = rng.uniform(0.4, 0.9)
            start = (s0, phi0, w * o0 + (1 - w) * np.pi / 2.0, n0)  # mixed with pi/2: inside (0, pi)
        else:
            phi0 = np.exp(rng.uniform(np.log(lo), np.log(hi), size=(k, l)))
            start = (np.ones(k), phi0, np.full(n_angles(k), np.pi / 2.0), 1e-2)
        try:
            model = _fit_once(engine, lam, counts, start=start, **options)
        except FitError as exc:
            errors.append(str(exc))
            continue
        if best is None or model.diagnostics["loglik"] > best.diagnostics["loglik"]:
            best = model
    if best is None:
        raise FitError(f"all {restarts} restarts failed: {errors}")
    return best


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
    lam = 0.0 if config.lam == "auto" else float(config.lam)
    # every search of this fit counts, also those of restarts and prefits that fail
    counts = dict.fromkeys(_SEARCH_COUNTS, 0)
    sdata, means, scales = _standardize(data)
    engine = _LoglikEngine(sdata, basis)
    informed = None
    if sdata.k > 1:  # informed first start: prefits in sdata's units, empirical correlation
        try:
            prefits = [_fit_restarts(_LoglikEngine(sdata.sub_dataset(i), basis), 0.0, 2,
                                     config.seed, counts, ftol=_PREFIT_FTOL) for i in range(sdata.k)]
            informed = _informed_start(sdata, prefits)
        except FitError:
            pass
    model = _fit_restarts(engine, lam, config.restarts, config.seed, counts, informed)
    model.diagnostics.update(counts)
    model.diagnostics["restarts"] = config.restarts
    model.diagnostics["lambda"] = lam
    if config.lam == "auto":
        model = _relaxed_trend(model, engine)
    model.y_mean, model.y_scale = means, scales
    return model


def _informed_start(sdata: Dataset, prefits: list):
    """Starting point from per-output univariate fits plus empirical correlation."""
    k = sdata.k
    sigma0 = np.array([m.params.sigma.sigma[0] for m in prefits])
    phi0 = np.array([m.params.phi.phi[0] for m in prefits])
    nugget0 = float(np.mean([m.params.nugget for m in prefits]))
    omega0 = np.full(n_angles(k), np.pi / 2.0)
    if not any(sdata.design_of):
        with np.errstate(divide="ignore", invalid="ignore"):
            t_emp = np.corrcoef(sdata.point_means())
        # an output constant over the design has no correlation: keep right angles
        if np.all(np.isfinite(t_emp)):
            t0 = 0.8 * t_emp + 0.2 * np.eye(k)  # eigenvalues >= 0.2: angles in [0.46, 2.68]
            np.fill_diagonal(t0, 1.0)
            omega0 = corr_to_angles(CrossCorrMatrix(t0)).angles
    return sigma0, phi0, omega0, nugget0


def _relaxed_trend(model0: FittedModel, engine: _LoglikEngine) -> FittedModel:
    """lam="auto": the lam=0 fit's covariance, and its factor, with the trend
    picked on the L1 path by BIC over relaxed refits; ``engine`` is the fit's.

    Each grid value of lambda yields a support via the whitened lasso, the
    support gets an unpenalized GLS refit, and supports are compared by
    residual quadratic form plus ``|support| * log(N)``, ties preferring the
    sparser one.  The winning refit is zero off its support.
    """
    w_f = solve_triangular(model0.chol, engine.f_s, lower=True)
    w_y = solve_triangular(model0.chol, engine.y_s, lower=True)
    n_tot, width = engine.n_total, engine.f.shape[1]
    scored = []
    for g in sorted(_LAMBDA_GRID):
        lam = g * n_tot
        if lam > 0:
            sup = np.flatnonzero(gls_beta_l1(model0.chol, engine.f_s, engine.y_s, lam))
        else:
            sup = np.arange(width)
        relaxed = np.zeros(width)
        if len(sup):
            coef, *_ = np.linalg.lstsq(w_f[:, sup], w_y, rcond=None)
            relaxed[sup] = coef
        bic = float(np.sum((w_y - w_f @ relaxed) ** 2)) + len(sup) * np.log(n_tot)
        scored.append(((bic, len(sup), -lam), lam, sup, relaxed))
    _, lam_sel, support, beta = min(scored, key=lambda entry: entry[0])
    params = replace(model0.params, beta=np.split(beta, model0.k))
    model = engine.condition(params, (model0.chol, model0.diagnostics["jitter"]))
    model.diagnostics = {
        **model0.diagnostics,
        "loglik": model.diagnostics["loglik"],
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
    return Prediction(mean=mean[0], sd=sd[0])


def predict_batch(model: FittedModel, x: np.ndarray, sd: bool = True) -> tuple:
    """Means and sds at many points: (n x K, n x K) arrays; the sds are None
    when ``sd`` is false, which skips the variance algebra.

    Rows go in blocks of b: row o*b + i of the cross-covariance r pairs output
    o at query row i with every training point, so one triangular product
    L⁻¹ r' gives every variance of the block, through ‖L⁻¹ r_i‖² = r_i' Cz⁻¹ r_i.
    Each distinct training design (:attr:`Dataset.design_of`) gets one
    squared-difference tensor per block, and each of the engine's pair groups
    (:func:`pair_groups`) one kernel product per design it ends on, which fills
    the blocks of (i, j) and (j, i): r at a training point is C's row, bit for
    bit.  Non-finite query points raise ValueError.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise ValueError("query points must be finite")
    data, p = model.data, model.params
    k, sigma, design = data.k, p.sigma.sigma, data.design_of
    offs = np.concatenate([[0], np.cumsum([xj.shape[0] for xj in data.x])])
    # H, normalizer and scale of each pair i <= j; the same for every block
    ii, jj, groups = pair_groups(design)
    _, harm, norm, _, st = pair_constants(sigma, p.phi.phi, p.t.t, ii, jj)
    ii, jj = ii.tolist(), jj.tolist()
    beta = np.column_stack(p.beta)
    means = np.empty((x.shape[0], k))
    sds = np.empty((x.shape[0], k)) if sd else None
    for lo in range(0, x.shape[0], PREDICT_BLOCK_ROWS):
        xb = x[lo : lo + PREDICT_BLOCK_ROWS]
        b = len(xb)
        r = np.empty((k * b, offs[-1]))
        d2 = {q: sq_diffs(xb, data.x[q]).reshape(-1, data.l) for q in set(design)}
        for (da, db), ps in groups.items():
            # query rows of i against the points of j (design db) and of j against i's (da)
            e = {q: kernels_from_sq_diffs(d2[q], harm[ps], norm[ps]).reshape(len(ps), b, -1)
                 for q in {da, db}}
            for g, pair in enumerate(ps):
                i, j = ii[pair], jj[pair]
                for row, col, q in {(i, j, db), (j, i, da)}:  # one block when i == j
                    np.multiply(st[pair], e[q][g],
                                out=r[row * b : (row + 1) * b, offs[col] : offs[col + 1]])
        mean_std = model.basis.evaluate(xb) @ beta + (r @ model.alpha).reshape(k, -1).T
        means[lo : lo + b] = model.y_mean + model.y_scale * mean_std
        if sd:
            v = dtrmm(1.0, model.chol_inv, r.T, lower=1, overwrite_b=1)  # in r's memory
            v *= v
            var_std = sigma ** 2 + p.nugget - data.reps * v.sum(axis=0).reshape(k, -1).T
            sds[lo : lo + b] = model.y_scale * np.sqrt(np.maximum(var_std, 0.0))
    return means, sds


def rmse(model, test: Dataset) -> np.ndarray:
    """Per-output test RMSE; `model` is a FittedModel or a list of K of them."""
    if test.n_points == 0:
        raise ValueError("empty test dataset")
    one = isinstance(model, list)  # K univariate models: output i is model i's only one
    k = len(model) if one else model.k
    if test.k != k:
        raise ValueError(f"test dataset has {test.k} outputs, the model {k}")
    out = np.empty(test.k)
    for i in range(test.k):
        mean, _ = predict_batch(model[i] if one else model, test.x[i], sd=False)
        err = test.y[i].reshape(-1, test.reps) - mean[:, 0 if one else i, None]
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
        },
        "diagnostics": {k: v for k, v in model.diagnostics.items()},
    }
    return json.dumps(doc, indent=2)


def _field(doc, key, kind=list):
    """``doc[key]`` of a model file if ``doc`` is an object and it is a ``kind``;
    a Real must be finite."""
    value = doc.get(key) if isinstance(doc, dict) else None
    if isinstance(value, kind) and not isinstance(value, bool):  # a JSON true is no number
        if kind is Real:
            _numbers(value, key)
        return value
    raise ValueError(f"model file: field {key!r} is missing or not a {kind.__name__}")


def _numbers(values, key: str, shape: tuple = None) -> np.ndarray:
    """Field ``key`` of a model file as floats, all finite (json reads NaN and
    Infinity), in ``shape`` if one is given."""
    try:
        a = np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:  # a ragged list, or one holding text
        raise ValueError(f"model file: field {key!r} is not an array of numbers") from exc
    if not np.all(np.isfinite(a)):
        raise ValueError(f"model file: field {key!r} holds a number that is not finite")
    if shape is not None and a.shape != shape:
        raise ValueError(f"model file: field {key!r} has shape {a.shape}, expected {shape}")
    return a


def model_from_json(text: str) -> FittedModel:
    doc = json.loads(text)
    if _field(doc, "version", str) != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format: {doc['version']!r}")
    specs = [InputSpec(_field(s, "name", str), _field(s, "lower", Real), _field(s, "upper", Real))
             for s in _field(doc, "specs")]
    l = len(specs)
    tr = _field(doc, "training", dict)
    xs = [_numbers(xi, "x") for xi in _field(tr, "x")]
    if any(xi.shape[1:] != (l,) for xi in xs):
        raise ValueError(f"model file: field 'x' holds a point that is not {l} numbers")
    data = Dataset(
        specs,
        xs,
        [_numbers(yi, "y") for yi in _field(tr, "y")],
        _field(tr, "reps", int),
        _field(doc, "output_names"),
    )
    k, basis = data.k, RegressionBasis(_field(doc, "basis", str))
    pp = _field(doc, "params", dict)
    params = MgpParams(
        beta=list(_numbers(_field(pp, "beta"), "beta", (k, basis.width(l)))),
        sigma=MarginalSds(_numbers(_field(pp, "sigma"), "sigma", (k,))),
        phi=RoughnessParams(_numbers(_field(pp, "phi"), "phi", (k, l))),
        omega=CrossCorrAngles(_numbers(_field(pp, "omega"), "omega"), k),
        nugget=float(_field(pp, "nugget", Real)),
        lam=float(_field(pp, "lambda", Real)),
    )
    model = _LoglikEngine(data, basis).condition(params)
    std = _field(doc, "standardization", dict)
    model.y_mean = _numbers(_field(std, "y_mean"), "y_mean", (k,))
    model.y_scale = _numbers(_field(std, "y_scale"), "y_scale", (k,))
    model.diagnostics = doc.get("diagnostics", {})
    return model
