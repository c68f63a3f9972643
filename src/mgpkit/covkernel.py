"""Cross-correlation matrices from hypersphere angles and the nonseparable
cross-covariance between outputs.

The roughness parameters phi act as precisions: the within-output kernel is
exp(-sum_k phi_k * d_k^2), so larger phi means faster-decaying correlation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


def angles_to_corr(omega: CrossCorrAngles) -> CrossCorrMatrix:
    """Build T = E E' where row r of E lies on the unit sphere.

    T is positive definite with unit diagonal for any valid angle vector.
    """
    return CrossCorrMatrix(corr_and_angle_grads(omega.angles, omega.k)[0])


def corr_and_angle_grads(angles: np.ndarray, k: int) -> tuple:
    """T as a raw array and dT/d(omega_p) for each angle p, stacked (m x K x K).

    Row 1 of E is (1, 0, ..., 0); for r >= 2 its entries are cos/sin products
    of the row's angles, so every row has unit length.  Differentiating row r
    by its angle omega at position s multiplies the entries after position s
    by cot(omega) and turns E[r, s] = cos(omega) * prod sin into
    -sin(omega) * prod sin; so dT = dE E' + E dE' is nonzero in row and
    column r only.  The products are of floats, which round as arrays do.
    """
    if k == 1:  # T is [[1]] and there are no angles
        return np.ones((1, 1)), np.zeros((0, 1, 1))
    cos_a, sin_a = np.cos(angles).tolist(), np.sin(angles).tolist()
    e, de, rows = [[1.0] + [0.0] * (k - 1)], [], []  # E; per angle, row r of dE, and r
    for r in range(1, k):
        row, before, sin_prod = [], [], 1.0
        for c, s in zip(cos_a[len(de) : len(de) + r], sin_a[len(de) : len(de) + r]):
            row.append(c * sin_prod)
            before.append(sin_prod)
            sin_prod *= s
        e.append(row + [sin_prod] + [0.0] * (k - 1 - r))
        for s in range(r):
            p = len(de)
            cot = cos_a[p] / sin_a[p]
            de.append([0.0] * s + [-sin_a[p] * before[s]] + [x * cot for x in e[r][s + 1 :]])
            rows.append(r)
    e = np.array(e)
    cols = np.matmul(e, np.array(de)[:, :, None])[:, :, 0]  # E dE_r' per angle, one product each
    grads = np.zeros((len(rows), k, k))
    for grad, r, col in zip(grads, rows, cols):
        col[r] = 0.0  # T keeps its unit diagonal
        grad[r] = col
        grad[:, r] = col
    t = e @ e.T
    t = (t + t.T) / 2.0
    t.flat[:: k + 1] = 1.0
    return t, grads


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


def kernels_from_sq_diffs(d2: np.ndarray, harm: np.ndarray, normalizer: np.ndarray) -> np.ndarray:
    """normalizer_g * exp(-d' H_g d) for G rows H_g of ``harm`` and G normalizers
    (:func:`pair_constants`) over ``d2``, squared differences as (n_a n_b x l):
    G x (n_a n_b) kernels from one matrix product and one exp.  A row's bits
    depend on G (GEMV for G = 1, else GEMM): assemblies that must agree group alike."""
    e = np.negative(harm) @ d2.T  # the product of -H: negation is exact
    np.exp(e, out=e)
    return np.multiply(normalizer[:, None], e, out=e)


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
    (see :func:`kernels_from_sq_diffs`).
    """
    xa = np.atleast_2d(np.asarray(xa, dtype=float))
    xb = np.atleast_2d(np.asarray(xb, dtype=float))
    if xa.shape[1] != xb.shape[1]:
        raise ValueError("point sets must share a dimension")
    if phi.phi.shape[1] != xa.shape[1]:
        raise ValueError("point dimension does not match roughness parameters")
    _, harm, norm, _, st = pair_constants(sigma.sigma, phi.phi, t.t, [i], [j])
    e = kernels_from_sq_diffs(sq_diffs(xa, xb).reshape(-1, xa.shape[1]), harm, norm)
    return st[0] * e.reshape(len(xa), len(xb))


def mean_normalizer(phi_i: np.ndarray, phi_j: np.ndarray):
    """Determinant normalizer as a multiplying factor, arithmetic-mean form:
    prod_k [AM(phi_k) * AM(1/phi_k)]^(-1/4), 1 when phi_i == phi_j; per-pair
    rows (P x l) give one normalizer per pair."""
    pi, pj = np.asarray(phi_i), np.asarray(phi_j)
    return 1.0 / (((pi + pj) / 2.0 * (1.0 / pi + 1.0 / pj) / 2.0) ** 0.25).prod(axis=-1)


def design_of(xs: list) -> list:
    """Per point set, the index of the first one with exactly the same points."""
    return [next(q for q, xq in enumerate(xs) if np.array_equal(xq, xi)) for xi in xs]


def pair_constants(sigma, phi, t, ii, jj):
    """Per output pair (ii[p], jj[p]) of sigma (K), phi (K x l) and T: (φ_i, φ_j)
    as a 2 x P x l array, H, the normalizer, sigma_i sigma_j and sigma_i sigma_j T_ij."""
    phi_ends = phi[np.array((ii, jj))]
    pi, pj = phi_ends
    s = sigma[ii] * sigma[jj]
    return phi_ends, harmonic_precisions(pi, pj), mean_normalizer(pi, pj), s, s * t[ii, jj]


def pair_groups(design: list) -> tuple:
    """The pairs i <= j of K outputs as (ii, jj), and their groups on the same two point sets,
    {(design[i], design[j]): pair indices} with ``design`` from :func:`design_of`."""
    ii, jj = np.triu_indices(len(design))
    groups = {}
    for p, (i, j) in enumerate(zip(ii.tolist(), jj.tolist())):
        groups.setdefault((design[i], design[j]), []).append(p)
    return ii, jj, groups


class OutputPairs:
    """The pairs i <= j of K point sets, row by row, in groups on the same two
    point sets (:func:`pair_groups`): (pair indices, squared differences as
    (n_a n_b x l), and the rows (G x n_a) and columns (G x n_b) of the
    group's blocks of the stacked covariance)."""

    def __init__(self, xs: list):
        self.ii, self.jj, members = pair_groups(design_of(xs))
        o = np.concatenate([[0], np.cumsum([len(x) for x in xs])])
        self.size = o[-1]
        # consecutive pairs, as when all outputs share one design, index as a slice: no copies
        self.groups = [(slice(ps[0], ps[-1] + 1) if ps[-1] - ps[0] == len(ps) - 1 else np.array(ps),
                        sq_diffs(xs[a], xs[b]).reshape(-1, xs[a].shape[1]),
                        o[self.ii[ps], None] + np.arange(len(xs[a])),
                        o[self.jj[ps], None] + np.arange(len(xs[b])))
                       for (a, b), ps in members.items()]

    def cov(self, consts) -> tuple:
        """C from the :func:`pair_constants` of these pairs, and each group's
        kernels (G x n_a n_b) from one :func:`kernels_from_sq_diffs` call."""
        _, harm, norm, _, st = consts
        n = self.size
        kernels = [kernels_from_sq_diffs(d2, harm[ps], norm[ps]) for ps, d2, *_ in self.groups]
        if len(self.ii) == 1:  # K=1: C is the one pair's block
            return (st[0] * kernels[0]).reshape(n, n), kernels
        c = np.empty((n, n), order="F")  # Fortran-ordered, for dpotrf to factor in place
        for (ps, _, rows, cols), e in zip(self.groups, kernels):
            p, q = rows.shape[1], cols.shape[1]
            for block, r, s in zip((st[ps, None] * e).reshape(-1, p, q), rows[:, 0], cols[:, 0]):
                c[r : r + p, s : s + q] = block
                if r != s:  # a block above the diagonal, and its transpose below
                    c[s : s + q, r : r + p] = block.T
        return c, kernels

    @cached_property
    def lower_index(self) -> list:
        """Per group, the flat index of (min(r, c), max(r, c)) in an N x N matrix for
        each entry (r, c) of its blocks in kernel order (G x n_a n_b, int32; built at first use)."""
        return [(np.minimum(r[:, :, None], c[:, None, :]) * self.size
                 + np.maximum(r[:, :, None], c[:, None, :])).astype(np.int32).reshape(len(r), -1)
                for _, _, r, c in self.groups]


def cov_matrix(xs: list[np.ndarray], sigma: MarginalSds, phi: RoughnessParams,
               t: CrossCorrMatrix, nugget: float = 0.0) -> np.ndarray:
    """Full covariance over K per-output point sets, in output-block order.

    Adds nugget * I; the result is positive definite for nugget > 0, and
    exactly symmetric: each block below the diagonal is stored as the
    transpose of its mirror, and diagonal blocks are symmetric entry by entry.
    Its pairs are grouped as the likelihood engine's, so both give the same bits.
    """
    if nugget < 0.0:
        raise ValueError(f"nugget must be >= 0, got {nugget}")
    pairs = OutputPairs([np.atleast_2d(np.asarray(x, dtype=float)) for x in xs])
    r = pairs.cov(pair_constants(sigma.sigma, phi.phi, t.t, pairs.ii, pairs.jj))[0]
    r += nugget * np.eye(pairs.size)
    return r
