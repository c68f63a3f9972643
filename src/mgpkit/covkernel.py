"""Cross-correlation matrices from hypersphere angles and the nonseparable
cross-covariance between outputs.

The roughness parameters phi act as precisions: the within-output kernel is
exp(-sum_k phi_k * d_k^2), so larger phi means faster-decaying correlation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, LinAlgError

ANGLE_EPS = 1e-6  # angles clamped to [ANGLE_EPS, pi - ANGLE_EPS] to keep the map bijective


def n_angles(k: int) -> int:
    return k * (k - 1) // 2


@dataclass(frozen=True)
class CrossCorrAngles:
    """Hypersphere angles, row-major lower triangle (r=2..K, s=1..r-1)."""

    angles: np.ndarray
    k: int

    def __post_init__(self):
        a = np.asarray(self.angles, dtype=float).ravel()
        if a.size != n_angles(self.k):
            raise ValueError(
                f"expected {n_angles(self.k)} angles for K={self.k}, got {a.size}"
            )
        if np.any(a <= 0.0) or np.any(a >= np.pi):
            raise ValueError("all angles must lie strictly inside (0, pi)")
        object.__setattr__(self, "angles", a)


@dataclass(frozen=True)
class CrossCorrMatrix:
    """Positive definite K x K correlation matrix with unit diagonal."""

    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("cross-correlation matrix must be square")
        if not np.allclose(t, t.T, atol=1e-12):
            raise ValueError("cross-correlation matrix must be symmetric")
        if not np.allclose(np.diag(t), 1.0, atol=1e-12):
            raise ValueError("cross-correlation matrix must have unit diagonal")
        if np.any(np.abs(t) > 1.0 + 1e-12):
            raise ValueError("off-diagonal correlations must lie in [-1, 1]")
        object.__setattr__(self, "t", t)

    @property
    def k(self) -> int:
        return self.t.shape[0]


@dataclass(frozen=True)
class RoughnessParams:
    """Per-output, per-dimension positive precision parameters (K x l)."""

    phi: np.ndarray

    def __post_init__(self):
        p = np.atleast_2d(np.asarray(self.phi, dtype=float))
        if np.any(p <= 0.0):
            raise ValueError("roughness parameters must be strictly positive")
        object.__setattr__(self, "phi", p)


@dataclass(frozen=True)
class MarginalSds:
    """Per-output marginal standard deviations (K positive reals)."""

    sigma: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sigma, dtype=float).ravel()
        if np.any(s <= 0.0):
            raise ValueError("marginal standard deviations must be strictly positive")
        object.__setattr__(self, "sigma", s)


def _sphere_rows(angles: np.ndarray, k: int) -> np.ndarray:
    """E with T = E E': row 1 is (1, 0, ..., 0); for r >= 2 the entries are
    cos/sin products of the row's angles, so every row has unit length."""
    e = np.zeros((k, k))
    e[0, 0] = 1.0
    idx = 0
    for r in range(1, k):
        row_angles = angles[idx : idx + r]
        idx += r
        sin_prod = 1.0
        for s in range(r):
            e[r, s] = np.cos(row_angles[s]) * sin_prod
            sin_prod *= np.sin(row_angles[s])
        e[r, r] = sin_prod
    return e


def angles_to_corr(omega: CrossCorrAngles) -> CrossCorrMatrix:
    """Build T = E E' where row r of E lies on the unit sphere.

    T is positive definite with unit diagonal for any valid angle vector.
    """
    e = _sphere_rows(omega.angles, omega.k)
    return CrossCorrMatrix(_unit_diag(e @ e.T))


def corr_and_angle_grads(angles: np.ndarray, k: int) -> tuple:
    """T as a raw array and dT/d(omega_p) for each angle p, stacked (m x K x K).

    Differentiating row r of E by its angle omega at position s multiplies
    the entries after position s by cot(omega) and turns
    E[r, s] = cos(omega) * prod sin into -sin(omega) * prod sin; so
    dT = dE E' + E dE' is nonzero in row and column r only.
    """
    e = _sphere_rows(angles, k)
    grads = np.zeros((n_angles(k), k, k))
    p = 0
    for r in range(1, k):
        sin_prod = 1.0
        for s in range(r):
            a = angles[p]
            de = np.zeros(k)
            de[s] = -np.sin(a) * sin_prod
            de[s + 1 : r + 1] = e[r, s + 1 : r + 1] * (np.cos(a) / np.sin(a))
            sin_prod *= np.sin(a)
            col = e @ de
            col[r] = 0.0  # T keeps its unit diagonal
            grads[p, r, :] = col
            grads[p, :, r] = col
            p += 1
    return _unit_diag(e @ e.T), grads


def _unit_diag(t: np.ndarray) -> np.ndarray:
    t = (t + t.T) / 2.0
    np.fill_diagonal(t, 1.0)
    return t


def corr_to_angles(t: CrossCorrMatrix) -> CrossCorrAngles:
    """Invert :func:`angles_to_corr` via Cholesky and spherical coordinates.

    Each Cholesky row lies on a unit sphere; the angle at position s is
    arctan2(norm of the remaining components, component s), which avoids the
    cancellation of dividing by accumulated sine products.
    """
    try:
        e = cholesky(t.t, lower=True)
    except LinAlgError as exc:
        raise ValueError("matrix is not positive definite") from exc
    e = e / np.linalg.norm(e, axis=1, keepdims=True)
    angles = []
    for r in range(1, t.k):
        for s in range(r):
            tail = float(np.linalg.norm(e[r, s + 1 : r + 1]))
            ang = float(np.arctan2(tail, e[r, s]))
            angles.append(min(max(ang, ANGLE_EPS), np.pi - ANGLE_EPS))
    return CrossCorrAngles(np.array(angles), t.k)


def sq_diffs(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Coordinate-wise squared differences of two point sets, (n_a x n_b x l)."""
    d2 = xa[:, None, :] - xb[None, :, :]
    d2 *= d2  # squared in place: one (n_a, n_b, l) temporary per call, not two
    return d2


def harmonic_precisions(phi_i: np.ndarray, phi_j: np.ndarray) -> np.ndarray:
    """Coordinate-wise harmonic mean H of two outputs' precisions, the H of
    exp(-d' H d); per-pair rows (P x l) give one row per pair."""
    return 2.0 * phi_i * phi_j / (phi_i + phi_j)


def cov_block_from_sq_diffs(
    d2: np.ndarray, harm: np.ndarray, normalizer: float, scale: float = 1.0
) -> np.ndarray:
    """scale * (normalizer * exp(-d' H d)) over squared differences ``d2``.

    ``harm`` is H from :func:`harmonic_precisions` and ``normalizer`` the
    factor from :func:`mean_normalizer`; with scale = sigma_i sigma_j T_ij
    this is the cross-covariance block.  The kernel is scaled once formed, as
    the likelihood engine scales it, so both give the same bits.
    """
    return scale * (normalizer * np.exp(-np.einsum("abk,k->ab", d2, harm)))


def cross_cov_block(
    xa: np.ndarray,
    xb: np.ndarray,
    i: int,
    j: int,
    sigma: MarginalSds,
    phi: RoughnessParams,
    t: CrossCorrMatrix,
) -> np.ndarray:
    """Nonseparable cross-covariance between output i on xa and output j on xb.

    For point sets (n_a x l) and (n_b x l) returns the (n_a x n_b) matrix
    sigma_i sigma_j T_ij * exp(-d' H d) / det-normalizer, where d = xa - xb
    (see :func:`cov_block_from_sq_diffs`).
    """
    xa = np.atleast_2d(np.asarray(xa, dtype=float))
    xb = np.atleast_2d(np.asarray(xb, dtype=float))
    if xa.shape[1] != xb.shape[1]:
        raise ValueError("point sets must share a dimension")
    pi, pj = phi.phi[i], phi.phi[j]
    if pi.size != xa.shape[1]:
        raise ValueError("point dimension does not match roughness parameters")
    scale = sigma.sigma[i] * sigma.sigma[j] * t.t[i, j]
    return cov_block_from_sq_diffs(sq_diffs(xa, xb), harmonic_precisions(pi, pj),
                                   mean_normalizer(pi, pj), scale)


def det_normalizer(phi_i: np.ndarray, phi_j: np.ndarray) -> float:
    """Equivalent determinant normalizer written in precision form.

    |Phi_i^-1|^(1/4) |Phi_j^-1|^(1/4) / |(Phi_i^-1 + Phi_j^-1)/2|^(1/2),
    returned as the factor multiplying the exponential (i.e. already inverted).
    """
    inv_i, inv_j = 1.0 / np.asarray(phi_i), 1.0 / np.asarray(phi_j)
    return float(
        np.prod(inv_i) ** 0.25 * np.prod(inv_j) ** 0.25 / np.sqrt(np.prod((inv_i + inv_j) / 2.0))
    )


def mean_normalizer(phi_i: np.ndarray, phi_j: np.ndarray):
    """Determinant normalizer as a multiplying factor, arithmetic-mean form:
    prod_k [AM(phi_k) * AM(1/phi_k)]^(-1/4), 1 when phi_i == phi_j; per-pair
    rows (P x l) give one normalizer per pair."""
    pi, pj = np.asarray(phi_i), np.asarray(phi_j)
    return 1.0 / np.prod(((pi + pj) / 2.0 * (1.0 / pi + 1.0 / pj) / 2.0) ** 0.25, axis=-1)


def cov_matrix(
    xs: list[np.ndarray],
    sigma: MarginalSds,
    phi: RoughnessParams,
    t: CrossCorrMatrix,
    nugget: float = 0.0,
) -> np.ndarray:
    """Full covariance over K per-output point sets, in output-block order.

    Adds nugget * I; the result is positive definite for nugget > 0, and
    exactly symmetric: each block below the diagonal is stored as the
    transpose of its mirror, and diagonal blocks are symmetric entry by entry.
    """
    if nugget < 0.0:
        raise ValueError(f"nugget must be >= 0, got {nugget}")
    k = len(xs)
    xs = [np.atleast_2d(np.asarray(x, dtype=float)) for x in xs]
    offs = np.concatenate([[0], np.cumsum([x.shape[0] for x in xs])])
    r = np.empty((offs[-1], offs[-1]))
    for i in range(k):
        for j in range(i, k):
            block = cross_cov_block(xs[i], xs[j], i, j, sigma, phi, t)
            r[offs[i] : offs[i + 1], offs[j] : offs[j + 1]] = block
            if j > i:
                r[offs[j] : offs[j + 1], offs[i] : offs[i + 1]] = block.T
    r += nugget * np.eye(offs[-1])
    return r
