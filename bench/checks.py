"""Reference computations for the benchmark's output checks.

Everything here is written from the formulas in the docstrings of
``mgpkit.covkernel`` and ``mgpkit.mgp`` with numpy alone; none of the
program's algebra is imported.  The program collapses replicated
observations onto per-point means; the references below work on the full
stacked observations instead, so they check that collapse as well.

Each ``check_*`` function returns a list of problems (empty when the output
is right).
"""

from __future__ import annotations

import csv

import numpy as np

LOGLIK_RTOL = 1e-9
# predictions are compared in standardized output units
MEAN_ATOL = 1e-6
VAR_ATOL = 1e-6
EE_RTOL = 1e-6


def basis_matrix(kind: str, x: np.ndarray) -> np.ndarray:
    """Trend basis: 'const' [1], 'linear' [1, x], 'quad' [1, x, x^2]."""
    ones = np.ones((x.shape[0], 1))
    cols = {"const": [ones], "linear": [ones, x], "quad": [ones, x, x ** 2]}[kind]
    return np.hstack(cols)


def hypersphere_corr(omega: np.ndarray, k: int) -> np.ndarray:
    """T = E E' with row r of E on the unit sphere, built from its r angles."""
    e = np.zeros((k, k))
    e[0, 0] = 1.0
    pos = 0
    for r in range(1, k):
        sin_prod = 1.0
        for s in range(r):
            e[r, s] = np.cos(omega[pos]) * sin_prod
            sin_prod *= np.sin(omega[pos])
            pos += 1
        e[r, r] = sin_prod
    return e @ e.T


class DenseModel:
    """A model JSON document evaluated with dense stacked-observation algebra."""

    def __init__(self, doc: dict):
        p, tr = doc["params"], doc["training"]
        self.kind = doc["basis"]
        self.reps = int(tr["reps"])
        self.x = [np.asarray(xi, dtype=float) for xi in tr["x"]]
        self.y = np.concatenate([np.asarray(yi, dtype=float) for yi in tr["y"]])
        self.k = len(self.x)
        self.sigma = np.asarray(p["sigma"], dtype=float)
        self.phi = np.atleast_2d(np.asarray(p["phi"], dtype=float))
        self.t = hypersphere_corr(np.asarray(p["omega"], dtype=float), self.k)
        self.nugget = float(p["nugget"])
        self.beta = [np.asarray(b, dtype=float) for b in p["beta"]]
        self.y_mean = np.asarray(doc["standardization"]["y_mean"], dtype=float)
        self.y_scale = np.asarray(doc["standardization"]["y_scale"], dtype=float)
        # stacked observation order: output block, point, replicate
        self.xs = [np.repeat(xi, self.reps, axis=0) for xi in self.x]
        self.r = self._cross(self.xs, self.xs) + self.nugget * np.eye(self.y.size)
        trend = [basis_matrix(self.kind, xs) @ b for xs, b in zip(self.xs, self.beta)]
        self.resid = self.y - np.concatenate(trend)
        self.r_inv_resid = np.linalg.solve(self.r, self.resid)

    def _kernel(self, xa, xb, i, j):
        """sigma_i sigma_j T_ij exp(-d' H d) |P_i|^1/4 |P_j|^1/4 / |(P_i + P_j)/2|^1/2.

        P = diag(1/phi) are the outputs' length-scale matrices and H is the
        inverse of their mean (the convolution of two Gaussian kernels).
        """
        p_i, p_j = 1.0 / self.phi[i], 1.0 / self.phi[j]
        h = 1.0 / ((p_i + p_j) / 2.0)
        d = xa[:, None, :] - xb[None, :, :]
        quad = (d * d * h).sum(axis=-1)
        norm = np.prod(p_i) ** 0.25 * np.prod(p_j) ** 0.25 / np.sqrt(np.prod((p_i + p_j) / 2.0))
        return self.sigma[i] * self.sigma[j] * self.t[i, j] * norm * np.exp(-quad)

    def _cross(self, xa_list, xb_list):
        return np.block(
            [[self._kernel(xa, xb, i, j) for j, xb in enumerate(xb_list)]
             for i, xa in enumerate(xa_list)]
        )

    def gls_beta(self) -> np.ndarray:
        """Generalized least-squares trend coefficients (K x width) at this covariance."""
        blocks = [basis_matrix(self.kind, xs) for xs in self.xs]
        rows, width = blocks[0].shape
        f = np.zeros((self.y.size, self.k * width))
        for i, block in enumerate(blocks):
            f[i * rows:(i + 1) * rows, i * width:(i + 1) * width] = block
        r_inv_f = np.linalg.solve(self.r, f)
        return np.linalg.solve(f.T @ r_inv_f, r_inv_f.T @ self.y).reshape(self.k, width)

    def loglik(self) -> float:
        """Unpenalized Gaussian log-likelihood of the stacked observations."""
        sign, logdet = np.linalg.slogdet(self.r)
        if sign <= 0:
            return float("nan")
        n = self.y.size
        return -0.5 * (n * np.log(2.0 * np.pi) + logdet + self.resid @ self.r_inv_resid)

    def predict(self, x0: np.ndarray):
        """Kriging means and predictive variances at x0, standardized: (n0 x K) each."""
        means = np.empty((x0.shape[0], self.k))
        var = np.empty_like(means)
        for out in range(self.k):
            cross = np.hstack([self._kernel(x0, xs, out, j) for j, xs in enumerate(self.xs)])
            means[:, out] = basis_matrix(self.kind, x0) @ self.beta[out] + cross @ self.r_inv_resid
            quad = np.einsum("ab,ab->a", cross, np.linalg.solve(self.r, cross.T).T)
            var[:, out] = self.sigma[out] ** 2 + self.nugget - quad
        return means, var

    def to_original(self, means, var):
        """Standardized means and variances to means and sds in output units."""
        return (self.y_mean + self.y_scale * means,
                self.y_scale * np.sqrt(np.maximum(var, 0.0)))


def check_corr_matrix(doc: dict) -> list:
    """T must be symmetric, positive definite, unit-diagonal, and match omega."""
    t = np.asarray(doc["params"]["t"], dtype=float)
    k = t.shape[0]
    problems = []
    if not np.array_equal(t, t.T):
        problems.append("T is not symmetric")
    if not np.array_equal(np.diag(t), np.ones(k)):
        problems.append("T does not have a unit diagonal")
    if np.linalg.eigvalsh(t).min() <= 0.0:
        problems.append("T is not positive definite")
    ref = hypersphere_corr(np.asarray(doc["params"]["omega"], dtype=float), k)
    if not np.allclose(t, ref, rtol=0.0, atol=1e-12):
        problems.append("T does not match its hypersphere angles")
    return problems


def check_loglik(doc: dict, dense: DenseModel) -> list:
    """diagnostics.loglik must equal the dense stacked-data log-likelihood."""
    got = float(doc["diagnostics"]["loglik"])
    want = dense.loglik()
    if not abs(got - want) <= LOGLIK_RTOL * max(1.0, abs(want)):
        return [f"loglik {got!r} differs from the dense value {want!r}"]
    return []


def read_predictions(path, n_inputs: int, names: list):
    """Physical points, means and sds from a `mgpkit predict` CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], np.array(rows[1:], dtype=float)
    want = []
    for nm in names:
        want += [f"{nm}_mean", f"{nm}_sd", f"{nm}_lo", f"{nm}_hi"]
    if header[n_inputs:] != want:
        raise ValueError(f"{path}: unexpected header {header}")
    cols = body[:, n_inputs:].reshape(body.shape[0], len(names), 4)
    return body[:, :n_inputs], cols[:, :, 0], cols[:, :, 1], cols[:, :, 2], cols[:, :, 3]


def check_predictions(dense: DenseModel, x_unit, mean, sd, lo, hi) -> list:
    """`mgpkit predict` output must equal dense kriging at the same points."""
    m_ref, v_ref = dense.predict(x_unit)
    m_got = (mean - dense.y_mean) / dense.y_scale
    v_got = (sd / dense.y_scale) ** 2
    problems = []
    err_m = float(np.max(np.abs(m_got - m_ref)))
    err_v = float(np.max(np.abs(v_got - np.maximum(v_ref, 0.0))))
    if not err_m <= MEAN_ATOL:
        problems.append(f"predicted means differ from dense kriging by {err_m:.3g} (standardized)")
    if not err_v <= VAR_ATOL:
        problems.append(f"predicted variances differ from dense kriging by {err_v:.3g} (standardized)")
    band = np.abs(lo - (mean - 2 * sd)).max() + np.abs(hi - (mean + 2 * sd)).max()
    if not band <= 1e-9 * (1.0 + np.abs(mean).max()):
        problems.append("the 2-sd band does not match mean and sd")
    return problems


def read_ee_report(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["output", "input", "mu", "mu_star", "sigma"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    return {(r[0], r[1]): np.array(r[2:5], dtype=float) for r in rows[1:]}


def elementary_effects(means_along, trajectories) -> np.ndarray:
    """Morris effects (r x K x l) from model means at every trajectory point.

    ``means_along[t]`` holds the means at the l+1 points of trajectory t; the
    move from point m to m+1 changes exactly one input, found from the points.
    """
    effects = []
    for vals, pts in zip(means_along, trajectories):
        l = pts.shape[1]
        per_input = np.empty((vals.shape[1], l))
        for m in range(l):
            step = pts[m + 1] - pts[m]
            v = int(np.flatnonzero(step)[0])
            per_input[:, v] = (vals[m + 1] - vals[m]) / step[v]
        effects.append(per_input)
    return np.array(effects)


def check_sensitivity(dense: DenseModel, report: dict, trajectories, names, inputs) -> list:
    """mu, mu* and sigma must equal effects from dense means on the same trajectories."""
    means_along = [dense.to_original(*dense.predict(pts))[0] for pts in trajectories]
    eff = elementary_effects(means_along, trajectories)
    ref = np.stack([eff.mean(axis=0), np.abs(eff).mean(axis=0), eff.std(axis=0, ddof=1)], axis=-1)
    problems = []
    for i, out in enumerate(names):
        scale = 1.0 + np.abs(ref[i]).max()
        for v, inp in enumerate(inputs):
            got = report.get((out, inp))
            if got is None:
                problems.append(f"no sensitivity row for ({out}, {inp})")
            elif not np.all(np.abs(got - ref[i, v]) <= EE_RTOL * scale):
                problems.append(f"({out}, {inp}): mu, mu*, sigma {got} differ from {ref[i, v]}")
    return problems


def check_design(unit_path, phys_path, n: int, lower, upper) -> list:
    """`mgpkit design` output: n points, one per stratum in every column, consistent units."""
    with open(unit_path, newline="") as fh:
        unit = np.array(list(csv.reader(fh))[1:], dtype=float)
    with open(phys_path, newline="") as fh:
        phys = np.array(list(csv.reader(fh))[1:], dtype=float)
    problems = []
    if unit.shape != (n, len(lower)) or phys.shape != unit.shape:
        return [f"design has shape {unit.shape}/{phys.shape}, expected ({n}, {len(lower)})"]
    if unit.min() < 0.0 or unit.max() > 1.0:
        problems.append("design points leave the unit cube")
    strata = np.floor(unit * n).astype(int)
    if any(sorted(col) != list(range(n)) for col in strata.T):
        problems.append("design is not a Latin hypercube")
    if not np.allclose(phys, lower + unit * (upper - lower), rtol=1e-9, atol=0.0):
        problems.append("physical and unit-cube designs disagree")
    return problems


def trend_least_squares(kind: str, x_train, y_train, x_test) -> np.ndarray:
    """Ordinary least squares on the trend basis alone, evaluated at x_test."""
    coef, *_ = np.linalg.lstsq(basis_matrix(kind, x_train), y_train, rcond=None)
    return basis_matrix(kind, x_test) @ coef


def rmse_rel(pred, truth) -> np.ndarray:
    """Per-output RMSE divided by the output's standard deviation over the points."""
    return np.sqrt(np.mean((pred - truth) ** 2, axis=0)) / truth.std(axis=0)
