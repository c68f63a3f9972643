import numpy as np
import pytest

from mgpkit.covkernel import (
    CrossCorrAngles,
    CrossCorrMatrix,
    MarginalSds,
    RoughnessParams,
    angles_to_corr,
    corr_to_angles,
    cov_matrix,
    cross_cov_block,
    n_angles,
    mean_normalizer,
)
from oracles import det_normalizer

# measured cross-correlation structure of the three turbines
TABLE_T = np.array(
    [
        [1.0, 0.7592, 0.0575],
        [0.7592, 1.0, 0.0453],
        [0.0575, 0.0453, 1.0],
    ]
)


def kernel_at(xi, xj, i, j, sigma, phi, t):
    """cross_cov_block on the one-row point sets {xi} and {xj}."""
    return cross_cov_block(np.atleast_2d(xi), np.atleast_2d(xj), i, j, sigma, phi, t)[0, 0]


def docstring_kernel(xi, xj, i, j, sigma, phi, t):
    """The formula of cross_cov_block's docstring at one pair of points, term by term."""
    quad, norm = 0.0, 1.0
    for a, b, u, v in zip(phi.phi[i], phi.phi[j], xi, xj):
        quad += 2.0 * a * b / (a + b) * (u - v) ** 2
        norm *= ((a + b) / 2.0 * (1.0 / a + 1.0 / b) / 2.0) ** 0.25
    return sigma.sigma[i] * sigma.sigma[j] * t.t[i, j] * np.exp(-quad) / norm


def random_angles(k, rng):
    return CrossCorrAngles(rng.uniform(0.05, np.pi - 0.05, size=n_angles(k)), k)


class TestAnglesToCorr:
    def test_right_angle_gives_identity(self):
        t = angles_to_corr(CrossCorrAngles(np.array([np.pi / 2]), 2))
        np.testing.assert_allclose(t.t, np.eye(2), atol=1e-15)

    def test_k2_turbine_correlation(self):
        t = angles_to_corr(CrossCorrAngles(np.array([np.arccos(0.7592)]), 2))
        assert abs(t.t[0, 1] - 0.7592) < 1e-12

    def test_k3_turbine_matrix(self):
        # solve the third angle from the spherical expansion of T_32:
        # T_32 = cos(w31) cos(w21) + cos(w32) sin(w31) sin(w21)
        w21 = np.arccos(0.7592)
        w31 = np.arccos(0.0575)
        w32 = np.arccos((0.0453 - np.cos(w31) * np.cos(w21)) / (np.sin(w31) * np.sin(w21)))
        t = angles_to_corr(CrossCorrAngles(np.array([w21, w31, w32]), 3))
        np.testing.assert_allclose(t.t, TABLE_T, atol=1e-4)

    def test_always_pdude(self):
        rng = np.random.default_rng(7)
        for k in (2, 3, 5):
            for _ in range(100):
                t = angles_to_corr(random_angles(k, rng))
                w = np.linalg.eigvalsh(t.t)
                assert w.min() > 0.0
                np.testing.assert_allclose(np.diag(t.t), 1.0)

    def test_rejects_boundary_angles(self):
        with pytest.raises(ValueError):
            CrossCorrAngles(np.array([0.0]), 2)
        with pytest.raises(ValueError):
            CrossCorrAngles(np.array([np.pi]), 2)

    def test_angle_count(self):
        with pytest.raises(ValueError):
            CrossCorrAngles(np.array([1.0, 1.0]), 2)


class TestCorrToAngles:
    def test_identity_gives_right_angles(self):
        om = corr_to_angles(CrossCorrMatrix(np.eye(3)))
        np.testing.assert_allclose(om.angles, np.pi / 2, atol=1e-12)

    def test_table_matrix_round_trip(self):
        om = corr_to_angles(CrossCorrMatrix(TABLE_T))
        np.testing.assert_allclose(angles_to_corr(om).t, TABLE_T, atol=1e-10)

    def test_strong_correlation_angle(self):
        om = corr_to_angles(CrossCorrMatrix(np.array([[1.0, 0.999], [0.999, 1.0]])))
        assert abs(om.angles[0] - np.arccos(0.999)) < 1e-12

    def test_round_trip_random(self):
        rng = np.random.default_rng(42)
        for k in (2, 3, 5):
            for _ in range(50):
                om = random_angles(k, rng)
                om2 = corr_to_angles(angles_to_corr(om))
                np.testing.assert_allclose(om2.angles, om.angles, atol=1e-10)

    def test_rejects_non_pd(self):
        bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        with pytest.raises(ValueError):
            corr_to_angles(CrossCorrMatrix(bad))


class TestCrossCov:
    def setup_method(self):
        self.sigma = MarginalSds(np.array([1.5, 0.7]))
        self.phi = RoughnessParams(np.array([[1.0, 3.0], [4.0, 0.5]]))
        self.t = CrossCorrMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))

    def test_same_output_same_point_gives_variance(self):
        x = np.array([0.2, 0.9])
        v = kernel_at(x, x, 0, 0, self.sigma, self.phi, self.t)
        assert abs(v - 1.5 ** 2) < 1e-15

    def test_equal_roughness_collapses_normalizer(self):
        phi = RoughnessParams(np.array([[2.0, 2.0], [2.0, 2.0]]))
        x = np.array([0.1, 0.4])
        v = kernel_at(x, x, 0, 1, self.sigma, phi, self.t)
        assert abs(v - 1.5 * 0.7 * 0.5) < 1e-14

    def test_closed_form_value(self):
        # l=1, phi=(1,4), sigma=(1,1), T12=0.5, d=0:
        # 0.5 / [ (2.5)*(0.625) ]^(1/4) = 0.5 * 1.5625**-0.25
        sigma = MarginalSds(np.array([1.0, 1.0]))
        phi = RoughnessParams(np.array([[1.0], [4.0]]))
        v = kernel_at(np.array([0.3]), np.array([0.3]), 0, 1, sigma, phi, self.t)
        assert abs(v - 0.5 * 1.5625 ** -0.25) < 1e-14

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x1, x2 = rng.uniform(size=2), rng.uniform(size=2)
            a = kernel_at(x1, x2, 0, 1, self.sigma, self.phi, self.t)
            b = kernel_at(x2, x1, 1, 0, self.sigma, self.phi, self.t)
            assert abs(a - b) < 1e-15

    def test_diagonal_reduces_to_squared_exponential(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            x1, x2 = rng.uniform(size=2), rng.uniform(size=2)
            d = x1 - x2
            expected = 1.5 ** 2 * np.exp(-np.sum(self.phi.phi[0] * d * d))
            got = kernel_at(x1, x2, 0, 0, self.sigma, self.phi, self.t)
            assert abs(got - expected) < 1e-14

    def test_cross_correlation_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            phi = RoughnessParams(rng.uniform(0.1, 10.0, size=(2, 3)))
            x = rng.uniform(size=3)
            v = kernel_at(x, x, 0, 1, self.sigma, phi, self.t)
            assert abs(v) <= 1.5 * 0.7 * 0.5 + 1e-14

    def test_normalizer_forms_agree(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            pi = rng.uniform(0.05, 50.0, size=4)
            pj = rng.uniform(0.05, 50.0, size=4)
            assert abs(mean_normalizer(pi, pj) - det_normalizer(pi, pj)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_at(np.array([0.1]), np.array([0.1, 0.2]), 0, 1, self.sigma, self.phi, self.t)

    def test_block_matches_scalar(self):
        rng = np.random.default_rng(10)
        xa, xb = rng.uniform(size=(3, 2)), rng.uniform(size=(4, 2))
        block = cross_cov_block(xa, xb, 0, 1, self.sigma, self.phi, self.t)
        for i in range(3):
            for j in range(4):
                expected = docstring_kernel(xa[i], xb[j], 0, 1, self.sigma, self.phi, self.t)
                assert abs(block[i, j] - expected) < 1e-14


class TestCovMatrix:
    def test_single_output_repeated_point(self):
        sigma = MarginalSds(np.array([2.0]))
        phi = RoughnessParams(np.array([[1.0]]))
        t = CrossCorrMatrix(np.eye(1))
        r = cov_matrix([np.array([[0.3], [0.3]])], sigma, phi, t, nugget=0.0)
        np.testing.assert_allclose(r, 4.0 * np.ones((2, 2)), atol=1e-14)

    def test_identity_t_is_block_diagonal(self):
        sigma = MarginalSds(np.array([1.0, 1.0]))
        phi = RoughnessParams(np.array([[1.0], [2.0]]))
        t = CrossCorrMatrix(np.eye(2))
        xs = [np.array([[0.1], [0.5]]), np.array([[0.2], [0.9]])]
        r = cov_matrix(xs, sigma, phi, t)
        np.testing.assert_allclose(r[:2, 2:], 0.0, atol=1e-15)

    def test_positive_semidefinite_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(2, 11))
            l = int(rng.integers(1, 4))
            sigma = MarginalSds(rng.uniform(0.5, 2.0, size=k))
            phi = RoughnessParams(rng.uniform(0.1, 20.0, size=(k, l)))
            t = angles_to_corr(
                CrossCorrAngles(rng.uniform(0.1, np.pi - 0.1, size=n_angles(k)), k)
            )
            xs = [rng.uniform(size=(n, l)) for _ in range(k)]
            r = cov_matrix(xs, sigma, phi, t, nugget=0.0)
            w = np.linalg.eigvalsh(r)
            assert w.min() >= -1e-8 * abs(w).max()

    def test_exactly_symmetric_heterotopic(self):
        # no symmetrizing pass: symmetry must hold entry for entry as built
        rng = np.random.default_rng(12)
        for nugget in (0.0, 1e-3, 0.5):
            phi = RoughnessParams(rng.uniform(0.1, 20.0, size=(3, 4)))
            xs = [rng.uniform(size=(n, 4)) for n in (7, 5, 9)]
            r = cov_matrix(xs, MarginalSds(rng.uniform(0.5, 2.0, size=3)), phi,
                           angles_to_corr(random_angles(3, rng)), nugget=nugget)
            assert np.array_equal(r, r.T)

    def test_nugget_makes_positive_definite(self):
        sigma = MarginalSds(np.array([1.0]))
        phi = RoughnessParams(np.array([[1.0]]))
        t = CrossCorrMatrix(np.eye(1))
        r = cov_matrix([np.array([[0.3], [0.3]])], sigma, phi, t, nugget=1e-4)
        assert np.linalg.eigvalsh(r).min() > 0.0

    def test_rejects_negative_nugget(self):
        sigma = MarginalSds(np.array([1.0]))
        phi = RoughnessParams(np.array([[1.0]]))
        with pytest.raises(ValueError):
            cov_matrix([np.array([[0.1]])], sigma, phi, CrossCorrMatrix(np.eye(1)), nugget=-1.0)
