"""Reference computations that only tests call; pytest collects no tests here."""

import numpy as np
from scipy.linalg import solve_triangular


def det_normalizer(phi_i: np.ndarray, phi_j: np.ndarray) -> float:
    """Equivalent determinant normalizer written in precision form.

    |Phi_i^-1|^(1/4) |Phi_j^-1|^(1/4) / |(Phi_i^-1 + Phi_j^-1)/2|^(1/2),
    returned as the factor multiplying the exponential (i.e. already inverted):
    the reference for ``mgpkit.covkernel.mean_normalizer``.
    """
    inv_i, inv_j = 1.0 / np.asarray(phi_i), 1.0 / np.asarray(phi_j)
    return float(
        np.prod(inv_i) ** 0.25 * np.prod(inv_j) ** 0.25 / np.sqrt(np.prod((inv_i + inv_j) / 2.0))
    )


def lambda_max(r_chol: np.ndarray, f: np.ndarray, y: np.ndarray) -> float:
    """Smallest penalty at which the L1-penalized GLS solution is all-zero."""
    w = solve_triangular(r_chol, y, lower=True)
    fw = solve_triangular(r_chol, f, lower=True)
    return float(np.max(np.abs(fw.T @ w)))


def beta_original(model) -> list:
    """A fitted model's trend coefficients mapped back to original output units."""
    out = []
    for i, b in enumerate(model.params.beta):
        bo = model.y_scale[i] * b.copy()
        bo[0] += model.y_mean[i]
        out.append(bo)
    return out
