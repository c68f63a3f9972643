import json

import numpy as np
import pytest
from scipy.linalg import block_diag, cholesky
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dpotri, dpotrs
from scipy.special import expit

from mgpkit.covkernel import (
    CrossCorrAngles,
    CrossCorrMatrix,
    MarginalSds,
    RoughnessParams,
    angles_to_corr,
    corr_and_angle_grads,
    cov_matrix,
    harmonic_precisions,
    mean_normalizer,
)
from mgpkit.design import InputSpec, lhs
import mgpkit.covkernel
import mgpkit.mgp
from mgpkit.cli import main
from mgpkit.mgp import (
    _COV_MAXITER,
    _SEARCH_COUNTS,
    Dataset,
    FitConfig,
    FitError,
    MgpParams,
    NonPositiveDefiniteError,
    RegressionBasis,
    _LoglikEngine,
    _factor_collapsed,
    _fit_once,
    _pack,
    _unpack,
    fit,
    fit_independent,
    gls_beta_l1,
    model_from_json,
    model_to_json,
    penalized_loglik,
    predict,
    predict_batch,
    rmse,
)
from oracles import lambda_max

UNIT_SPECS_1D = [InputSpec("x", 0.0, 1.0)]
UNIT_SPECS_2D = [InputSpec("x1", 0.0, 1.0), InputSpec("x2", 0.0, 1.0)]


def make_params(k, l, beta_width, rng, nugget=0.1, lam=0.0):
    m = k * (k - 1) // 2
    return MgpParams(
        beta=[rng.normal(size=beta_width) for _ in range(k)],
        sigma=MarginalSds(rng.uniform(0.5, 2.0, size=k)),
        phi=RoughnessParams(rng.uniform(0.5, 5.0, size=(k, l))),
        omega=CrossCorrAngles(rng.uniform(0.3, np.pi - 0.3, size=m), k),
        nugget=nugget,
        lam=lam,
    )


def stacked_f(data, basis):
    """Block-diagonal trend matrix over the stacked (replicated) observations."""
    return block_diag(*[basis.evaluate(np.repeat(xi, data.reps, axis=0)) for xi in data.x])


def dense_oracle_loglik(params, data, basis):
    """Reference log-likelihood by explicit inversion of the stacked covariance."""
    xexp = [np.repeat(xi, data.reps, axis=0) for xi in data.x]
    r = cov_matrix(xexp, params.sigma, params.phi, params.t, nugget=params.nugget)
    f = stacked_f(data, basis)
    y = np.concatenate(data.y)
    e = y - f @ params.beta_concat()
    sign, logdet = np.linalg.slogdet(r)
    quad = e @ np.linalg.inv(r) @ e
    penalty = params.lam * np.abs(params.beta_concat()).sum()
    return -0.5 * (len(y) * np.log(2 * np.pi) + logdet + quad) - penalty


class TestBuildFMatrix:
    def test_constant_block_ones(self):
        data = Dataset(
            UNIT_SPECS_1D,
            [np.array([[0.1], [0.5], [0.9]]), np.array([[0.2], [0.7]])],
            [np.zeros(3), np.zeros(2)],
            1,
            ["a", "b"],
        )
        f = _LoglikEngine(data, RegressionBasis("const")).f
        assert f.shape == (5, 2)
        np.testing.assert_array_equal(f[:3, 0], 1.0)
        np.testing.assert_array_equal(f[3:, 1], 1.0)
        np.testing.assert_array_equal(f[:3, 1], 0.0)

    def test_linear_width(self):
        assert RegressionBasis("linear").width(6) == 7

    def test_quadratic_row(self):
        data = Dataset(
            UNIT_SPECS_2D, [np.array([[0.3, 0.6]])], [np.zeros(1)], 1, ["a"]
        )
        f = _LoglikEngine(data, RegressionBasis("quad")).f
        np.testing.assert_allclose(f[0], [1.0, 0.3, 0.6, 0.09, 0.36])

    def test_unknown_basis(self):
        with pytest.raises(ValueError):
            RegressionBasis("cubic")


class TestDesignOf:
    def test_first_output_on_exactly_the_same_points(self):
        rng = np.random.default_rng(28)
        x = rng.uniform(size=(6, 2))

        def design_of(xs):
            ys = [np.zeros(len(xi)) for xi in xs]
            return Dataset(UNIT_SPECS_2D, xs, ys, 1, [f"y{i}" for i in range(len(xs))]).design_of

        assert design_of([x]) == [0]
        assert design_of([x, x, x]) == [0, 0, 0]  # one array object
        assert design_of([x, x.copy(), x.copy()]) == [0, 0, 0]
        # within np.allclose, but not the same points
        assert np.allclose(x + 1e-12, x)
        assert design_of([x, x + 1e-12, x.copy()]) == [0, 1, 0]
        assert design_of([x, x[:4], x[:4].copy(), x[1:]]) == [0, 1, 1, 3]


class TestPenalizedLoglik:
    def test_single_gaussian_density(self):
        data = Dataset(UNIT_SPECS_1D, [np.array([[0.5]])], [np.array([3.0])], 1, ["a"])
        params = MgpParams(
            beta=[np.array([3.0])],
            sigma=MarginalSds(np.array([1.2])),
            phi=RoughnessParams(np.array([[1.0]])),
            omega=CrossCorrAngles(np.array([]), 1),
            nugget=0.4,
        )
        got = penalized_loglik(params, data, RegressionBasis("const"))
        expected = -0.5 * np.log(1.2 ** 2 + 0.4) - 0.5 * np.log(2 * np.pi)
        assert abs(got - expected) < 1e-12

    def test_matches_dense_oracle_k1(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(5, 1))
        y = rng.normal(size=5)
        data = Dataset(UNIT_SPECS_1D, [x], [y], 1, ["a"])
        params = make_params(1, 1, 1, rng)
        got = penalized_loglik(params, data, RegressionBasis("const"))
        assert abs(got - dense_oracle_loglik(params, data, RegressionBasis("const"))) < 1e-8

    def test_matches_dense_oracle_multi_output_replicated(self):
        rng = np.random.default_rng(1)
        k, l, n, m = 3, 2, 4, 3
        xs = [rng.uniform(size=(n, l)) for _ in range(k)]
        ys = [rng.normal(size=n * m) for _ in range(k)]
        data = Dataset(UNIT_SPECS_2D, xs, ys, m, ["a", "b", "c"])
        basis = RegressionBasis("linear")
        params = make_params(k, l, 3, rng, nugget=0.3, lam=0.7)
        got = penalized_loglik(params, data, basis)
        assert abs(got - dense_oracle_loglik(params, data, basis)) < 1e-8

    def test_penalty_is_linear_in_lambda(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(size=(6, 2))
        y = rng.normal(size=6)
        data = Dataset(UNIT_SPECS_2D, [x], [y], 1, ["a"])
        basis = RegressionBasis("linear")
        p1 = make_params(1, 2, 3, rng, lam=1.0)
        p2 = MgpParams(p1.beta, p1.sigma, p1.phi, p1.omega, p1.nugget, lam=2.0)
        b_norm = np.abs(p1.beta_concat()).sum()
        diff = penalized_loglik(p1, data, basis) - penalized_loglik(p2, data, basis)
        assert abs(diff - b_norm) < 1e-10


class TestGlsBetaL1:
    def test_identity_r_is_ols(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        beta = gls_beta_l1(np.eye(10), f, y, 0.0)
        expected, *_ = np.linalg.lstsq(f, y, rcond=None)
        np.testing.assert_allclose(beta, expected, atol=1e-10)

    def test_zero_lambda_matches_closed_form(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(8, 8))
        r = a @ a.T + 8 * np.eye(8)
        f = rng.normal(size=(8, 3))
        y = rng.normal(size=8)
        r_chol = cholesky(r, lower=True)
        beta = gls_beta_l1(r_chol, f, y, 0.0)
        ri = np.linalg.inv(r)
        expected = np.linalg.solve(f.T @ ri @ f, f.T @ ri @ y)
        np.testing.assert_allclose(beta, expected, atol=1e-8)

    def test_large_lambda_gives_zero(self):
        rng = np.random.default_rng(5)
        f = rng.normal(size=(10, 4))
        y = rng.normal(size=10)
        r_chol = np.eye(10)
        lmax = lambda_max(r_chol, f, y)
        np.testing.assert_array_equal(gls_beta_l1(r_chol, f, y, lmax * 1.0001), 0.0)
        assert np.any(gls_beta_l1(r_chol, f, y, lmax * 0.9) != 0.0)

    def test_rank_deficient_raises(self):
        f = np.ones((5, 2))  # duplicated column
        with pytest.raises(FitError):
            gls_beta_l1(np.eye(5), f, np.ones(5), 0.0)


class TestFitAndPredict:
    def test_recovers_univariate_gp(self):
        rng = np.random.default_rng(0)
        x = np.sort(rng.uniform(size=(20, 1)), axis=0)
        true_phi, true_sigma = 8.0, 2.0
        c = true_sigma ** 2 * np.exp(-true_phi * (x - x.T) ** 2)
        y = cholesky(c + 1e-12 * np.eye(20), lower=True) @ rng.normal(size=20)
        data = Dataset(UNIT_SPECS_1D, [x], [y], 1, ["y"])
        model = fit(data, RegressionBasis("const"), FitConfig(lam=0.0, restarts=3))
        sigma_hat = float(model.params.sigma.sigma[0] * model.y_scale[0])
        phi_hat = float(model.params.phi.phi[0, 0])
        assert true_sigma / 2 < sigma_hat < true_sigma * 2
        assert true_phi / 2 < phi_hat < true_phi * 2
        mean, _ = predict_batch(model, x)
        assert np.max(np.abs(mean[:, 0] - y)) / np.max(np.abs(y)) < 1e-4

    def test_rough_gp_fit_beats_generating_parameters(self):
        # a rough 2-D GP (phi ~ 25): from the default start the covariance
        # search must not stop on the phi = 1e4 white-noise plateau
        rng = np.random.default_rng(103)
        n, l = 40, 2
        phi = RoughnessParams(rng.uniform(20.0, 40.0, size=(1, l)))
        sigma = MarginalSds(np.ones(1))
        omega = CrossCorrAngles(np.array([]), 1)
        x = lhs(n, l, seed=3).points
        c = cov_matrix([x], sigma, phi, angles_to_corr(omega), nugget=1e-4)
        y = cholesky(c, lower=True) @ rng.normal(size=n)
        data = Dataset(UNIT_SPECS_2D, [x], [y], 1, ["y"])
        model = fit(data, RegressionBasis("const"), FitConfig(lam=0.0, restarts=1))
        mu, sc = model.y_mean[0], model.y_scale[0]
        truth = MgpParams(
            beta=[np.array([-mu / sc])],
            sigma=MarginalSds(sigma.sigma / sc),
            phi=phi,
            omega=omega,
            nugget=1e-4 / sc ** 2,
        )
        ll_fit = model.diagnostics["loglik"]
        assert ll_fit >= penalized_loglik(truth, model.data, model.basis)
        # the reported value is the stacked-data log-likelihood, whatever
        # scaling the optimizer works in
        assert ll_fit == pytest.approx(
            penalized_loglik(model.params, model.data, model.basis), rel=1e-12, abs=1e-12
        )

    def test_beta_is_gls_at_returned_covariance(self):
        # the rounds end on a covariance step; the returned trend must be the
        # GLS solution at the returned covariance, not at the one before it
        rng = np.random.default_rng(17)
        x = lhs(15, 2, seed=17).points
        clean = [np.sin(3 * x[:, 0]) + x[:, 1], np.cos(2 * x[:, 1]) - x[:, 0]]
        ys = [np.repeat(c, 2) + 0.1 * rng.normal(size=30) for c in clean]
        data = Dataset(UNIT_SPECS_2D, [x, x], ys, 2, ["a", "b"])
        model = fit(data, RegressionBasis("linear"), FitConfig(lam=0.0, restarts=1))
        p, sdata = model.params, model.data
        c = cov_matrix(sdata.x, p.sigma, p.phi, p.t)
        chol = cholesky(sdata.reps * c + p.nugget * np.eye(sdata.n_points), lower=True)
        f = block_diag(*[model.basis.evaluate(xi) for xi in sdata.x])
        s = np.sqrt(sdata.reps)
        expected = gls_beta_l1(chol, s * f, s * np.concatenate(sdata.point_means()), 0.0)
        np.testing.assert_allclose(p.beta_concat(), expected, rtol=0, atol=1e-10)
        assert model.diagnostics["loglik"] == penalized_loglik(p, sdata, model.basis)
        # the returned factor is the one cov_matrix's covariance gives, exactly
        assert np.array_equal(model.chol, _factor_collapsed(c, sdata.reps, p.nugget)[0])

    def test_likelihood_value_error_is_not_swallowed(self, monkeypatch):
        # only a failed factorization is a 1e12 penalty for the search; a
        # ValueError signals a bug and must reach the caller, from the
        # search's own likelihood and from the returned model's (both computed
        # by the engine), also from the univariate prefits of a K = 2 fit's
        # informed start
        x = lhs(10, 1, seed=4).points
        k1 = Dataset(UNIT_SPECS_1D, [x], [np.sin(6 * x[:, 0])], 1, ["y"])
        k2 = Dataset(UNIT_SPECS_1D, [x, x], [np.sin(6 * x[:, 0]), np.cos(3 * x[:, 0])], 1,
                     ["a", "b"])
        for name in ("condition", "loglik_grad"):
            for data in (k1, k2):
                calls = []
                original = getattr(_LoglikEngine, name)

                def raise_once(*args, original=original, calls=calls):
                    calls.append(1)
                    if len(calls) == 1:
                        raise ValueError("bug")
                    return original(*args)

                monkeypatch.setattr(_LoglikEngine, name, raise_once)
                with pytest.raises(ValueError, match="bug"):
                    fit(data, RegressionBasis("const"), FitConfig(lam=0.0, restarts=1))
                monkeypatch.undo()
                assert calls == [1]

    @pytest.mark.filterwarnings("error")
    def test_constant_output_fits_without_correlation_guess(self):
        # a constant output has no empirical correlation: the informed start
        # keeps right angles instead of building T from NaNs
        x = lhs(10, 2, seed=5).points
        ys = [np.sin(4 * x[:, 0]) + x[:, 1], np.full(10, 3.0)]
        data = Dataset(UNIT_SPECS_2D, [x, x], ys, 1, ["a", "b"])
        model = fit(data, RegressionBasis("const"), FitConfig(lam=0.0, restarts=1))
        assert np.isfinite(model.diagnostics["loglik"])

    def test_interpolation_with_zero_nugget(self):
        # constructed model (not fitted): kriging must interpolate exactly
        rng = np.random.default_rng(7)
        for k in (1, 2, 3):
            n, l = 8, 2
            xs = [rng.uniform(size=(n, l)) for _ in range(k)]
            ys = [rng.normal(size=n) for _ in range(k)]
            data = Dataset(UNIT_SPECS_2D, xs, ys, 1, [f"y{i}" for i in range(k)])
            params = make_params(k, l, 1, rng, nugget=0.0)
            model = _manual_model(params, data, RegressionBasis("const"))
            for i in range(k):
                for j in range(n):
                    pred = predict(model, xs[i][j])
                    assert abs(pred.mean[i] - ys[i][j]) <= 1e-6 * max(1.0, abs(ys[i][j]))
                    assert pred.sd[i] < 1e-5

    def test_far_field_reverts_to_trend(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0.0, 0.05, size=(5, 1))
        y = rng.normal(size=5)
        data = Dataset(UNIT_SPECS_1D, [x], [y], 1, ["y"])
        params = MgpParams(
            beta=[np.array([1.5])],
            sigma=MarginalSds(np.array([2.0])),
            phi=RoughnessParams(np.array([[5000.0]])),
            omega=CrossCorrAngles(np.array([]), 1),
            nugget=0.25,
        )
        model = _manual_model(params, data, RegressionBasis("const"))
        pred = predict(model, np.array([1.0]))
        assert abs(pred.mean[0] - 1.5) < 1e-6
        assert abs(pred.sd[0] - np.sqrt(2.0 ** 2 + 0.25)) < 1e-6

    def test_identity_t_matches_univariate_predictions(self):
        rng = np.random.default_rng(9)
        n, l = 10, 2
        xs = [rng.uniform(size=(n, l)) for _ in range(2)]
        ys = [rng.normal(size=n) for _ in range(2)]
        data = Dataset(UNIT_SPECS_2D, xs, ys, 1, ["a", "b"])
        sigma = MarginalSds(np.array([1.3, 0.9]))
        phi = RoughnessParams(np.array([[2.0, 3.0], [1.0, 4.0]]))
        joint = MgpParams(
            beta=[np.array([0.2]), np.array([-0.4])],
            sigma=sigma,
            phi=phi,
            omega=CrossCorrAngles(np.array([np.pi / 2]), 2),
            nugget=0.05,
        )
        jm = _manual_model(joint, data, RegressionBasis("const"))
        x0s = rng.uniform(size=(20, l))
        for i in range(2):
            sub = Dataset(UNIT_SPECS_2D, [xs[i]], [ys[i]], 1, ["y"])
            up = MgpParams(
                beta=[joint.beta[i]],
                sigma=MarginalSds(sigma.sigma[[i]]),
                phi=RoughnessParams(phi.phi[[i]]),
                omega=CrossCorrAngles(np.array([]), 1),
                nugget=0.05,
            )
            um = _manual_model(up, sub, RegressionBasis("const"))
            for x0 in x0s:
                pj = predict(jm, x0)
                pu = predict(um, x0)
                assert abs(pj.mean[i] - pu.mean[0]) < 1e-8
                assert abs(pj.sd[i] - pu.sd[0]) < 1e-8

    def test_sparse_trend_screening(self):
        # y = F beta + noise with beta = (5, 3, 0, 0): L1 at lambda_max zeroes all
        rng = np.random.default_rng(10)
        n = 40
        x = lhs(n, 3, seed=3).points
        f = np.hstack([np.ones((n, 1)), x])
        beta_true = np.array([5.0, 3.0, 0.0, 0.0])
        y = f @ beta_true + 0.3 * rng.normal(size=n)
        r_chol = np.eye(n)
        lmax = lambda_max(r_chol, f, y)
        np.testing.assert_array_equal(gls_beta_l1(r_chol, f, y, lmax), 0.0)
        beta_mid = gls_beta_l1(r_chol, f, y, 0.005 * lmax)
        assert beta_mid[2] == 0.0 and beta_mid[3] == 0.0
        assert abs(beta_mid[0] - 5.0) < 1.0 and abs(beta_mid[1] - 3.0) < 1.0

    def test_fit_independent_matches_k1_fit(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(size=(12, 1))
        y = np.sin(4 * x[:, 0]) + 0.05 * rng.normal(size=12)
        data = Dataset(UNIT_SPECS_1D, [x], [y], 1, ["y"])
        cfg = FitConfig(lam=0.0, restarts=2, seed=1)
        a = fit(data, RegressionBasis("const"), cfg)
        (b,) = fit_independent(data, RegressionBasis("const"), cfg)
        np.testing.assert_allclose(a.params.phi.phi, b.params.phi.phi)
        np.testing.assert_allclose(a.params.sigma.sigma, b.params.sigma.sigma)

    def test_identity_t_likelihood_decomposes(self):
        rng = np.random.default_rng(12)
        n = 10
        xs = [rng.uniform(size=(n, 1)) for _ in range(2)]
        ys = [np.sin(6 * xs[0][:, 0]), np.cos(5 * xs[1][:, 0])]
        data = Dataset(UNIT_SPECS_1D, xs, ys, 1, ["a", "b"])
        basis = RegressionBasis("const")
        params = make_params(2, 1, 1, rng, nugget=0.02)
        params.omega = CrossCorrAngles(np.array([np.pi / 2]), 2)
        joint_ll = penalized_loglik(params, data, basis)
        total = 0.0
        for i in range(2):
            sub = Dataset(UNIT_SPECS_1D, [xs[i]], [ys[i]], 1, ["y"])
            up = MgpParams(
                beta=[params.beta[i]],
                sigma=MarginalSds(params.sigma.sigma[[i]]),
                phi=RoughnessParams(params.phi.phi[[i]]),
                omega=CrossCorrAngles(np.array([]), 1),
                nugget=params.nugget,
            )
            total += penalized_loglik(up, sub, basis)
        assert abs(joint_ll - total) < 1e-8

    def test_finite_difference_gradient_consistency(self):
        # the likelihood must be smooth in the covariance parameters
        rng = np.random.default_rng(13)
        x = rng.uniform(size=(10, 1))
        y = np.sin(5 * x[:, 0])
        data = Dataset(UNIT_SPECS_1D, [x], [y], 1, ["y"])
        basis = RegressionBasis("const")

        def ll_of_logphi(lp):
            p = MgpParams(
                beta=[np.array([0.0])],
                sigma=MarginalSds(np.array([1.0])),
                phi=RoughnessParams(np.array([[np.exp(lp)]])),
                omega=CrossCorrAngles(np.array([]), 1),
                nugget=0.01,
            )
            return penalized_loglik(p, data, basis)

        for lp in (-1.0, 0.0, 1.0, 2.0):
            h = 1e-5
            g_central = (ll_of_logphi(lp + h) - ll_of_logphi(lp - h)) / (2 * h)
            h2 = 1e-6
            g_fine = (ll_of_logphi(lp + h2) - ll_of_logphi(lp - h2)) / (2 * h2)
            assert abs(g_central - g_fine) <= 1e-4 * max(1.0, abs(g_fine))


def engine_cases():
    """(data, basis) for K = 1, 2, 3, isotopic and heterotopic, 1 and 3 reps;
    at K=3 also outputs 0 and 2 on one design and output 1 on another."""
    rng = np.random.default_rng(21)
    for k in (1, 2, 3):
        for sizes in ((7,) * k, (7, 9, 5)[:k]) + (((7, 9, 7),) if k == 3 else ()):
            for reps in (1, 3):
                x0 = rng.uniform(size=(7, 2))
                xs = [x0 if n == 7 else rng.uniform(size=(n, 2)) for n in sizes]
                ys = [rng.normal(size=len(xi) * reps) for xi in xs]
                data = Dataset(UNIT_SPECS_2D, xs, ys, reps, [f"y{i}" for i in range(k)])
                for kind in ("const", "linear", "quad"):
                    yield data, RegressionBasis(kind)


def random_theta(data, rng):
    k, l = data.k, data.l
    return _pack(rng.uniform(0.5, 2.0, size=k), np.exp(rng.uniform(-1.0, 2.0, size=(k, l))),
                 rng.uniform(0.3, np.pi - 0.3, size=k * (k - 1) // 2), rng.uniform(0.01, 0.5))


def params_at(theta, beta, data, lam):
    sigma, phi, omega, nugget = _unpack(theta, data.k, data.l)
    return MgpParams(np.split(beta, data.k), MarginalSds(sigma), RoughnessParams(phi),
                     CrossCorrAngles(omega, data.k), nugget, lam)


def reference_corr_and_angle_grads(angles, k):
    """T and dT/dω from per-angle loops over the sphere rows, sines and
    cosines taken one angle at a time."""
    if k == 1:
        return np.ones((1, 1)), np.zeros((0, 1, 1))
    e, p = np.zeros((k, k)), 0
    e[0, 0] = 1.0
    for r in range(1, k):
        sin_prod = 1.0
        for s in range(r):
            e[r, s] = np.cos(angles[p + s]) * sin_prod
            sin_prod *= np.sin(angles[p + s])
        e[r, r] = sin_prod
        p += r
    grads, p = np.zeros((p, k, k)), 0
    for r in range(1, k):
        sin_prod = 1.0
        for s in range(r):
            a, de = angles[p], np.zeros(k)
            de[s] = -np.sin(a) * sin_prod
            de[s + 1 : r + 1] = e[r, s + 1 : r + 1] * (np.cos(a) / np.sin(a))
            sin_prod *= np.sin(a)
            col = e @ de
            col[r] = 0.0
            grads[p, r, :] = col
            grads[p, :, r] = col
            p += 1
    t = e @ e.T
    t = (t + t.T) / 2.0
    np.fill_diagonal(t, 1.0)
    return t, grads


def reference_loglik_grad(engine, theta, beta, lam=0.0):
    """(ℓ, ∇ℓ) of the engine's data from C and W = M a a' − Cz⁻¹ in full,
    assembled and contracted block by block, each output's terms added by
    np.add.at in pair order, and a factor from scipy's cholesky: the
    reference for bit-equality of _LoglikEngine.loglik_grad."""
    k, l, m, n = engine.k, engine.l, engine.reps, engine.n_points
    ii, jj = engine.ii, engine.jj
    sigma, phi, omega, nugget = _unpack(theta, k, l)
    t, dt_domega = reference_corr_and_angle_grads(omega, k)
    pi, pj = phi[ii], phi[jj]
    harm, norm, s = harmonic_precisions(pi, pj), mean_normalizer(pi, pj), sigma[ii] * sigma[jj]
    st = s * t[ii, jj]
    offs = np.concatenate([[0], np.cumsum([len(x) for x in engine.data.x])])
    blocks = [(slice(offs[i], offs[i + 1]), slice(offs[j], offs[j + 1])) for i, j in zip(ii, jj)]
    c, kernels = np.empty((n, n)), []
    for ps, d2, *_ in engine.pairs.groups:  # the engine's groups: a kernel's bits depend on G
        e = harm[ps] @ d2.T
        np.exp(np.negative(e, out=e), out=e)
        kernels.append(norm[ps, None] * e)
        for p, e_p in zip(np.arange(len(ii))[ps], kernels[-1]):
            rows, cols = blocks[p]
            c[rows, cols] = st[p] * e_p.reshape(c[rows, cols].shape)
            if rows != cols:
                c[cols, rows] = c[rows, cols].T
    c *= m
    c.flat[:: n + 1] += nugget
    chol_l = cholesky(c, lower=True)
    resid = engine.ybar - engine.f @ beta
    a, _ = dpotrs(chol_l, resid, lower=1)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol_l))))
    ll = -0.5 * (engine.n_total * np.log(2.0 * np.pi) + logdet + m * float(resid @ a))
    if m > 1:
        ll -= 0.5 * ((engine.n_total - n) * np.log(nugget) + engine.sse / nugget)
    ll -= lam * float(np.sum(np.abs(beta)))
    inv, _ = dpotri(chol_l, lower=1)
    cz_inv = inv + inv.T
    cz_inv.flat[:: n + 1] *= 0.5
    w = np.outer(a, a)
    w *= m
    w -= cz_inv
    q, r = np.empty(len(ii)), np.empty((len(ii), l))
    for (ps, d2, *_), e in zip(engine.pairs.groups, kernels):
        we = np.empty_like(e)
        for w_p, e_p, p in zip(we, e, np.arange(len(ii))[ps]):
            block = w[blocks[p]]
            np.multiply(block, e_p.reshape(block.shape), out=w_p.reshape(block.shape))
        q[ps] = we.sum(axis=1)
        r[ps] = we @ d2
    s0, s_d = st * q, st[:, None] * r
    phi_ends = np.stack([pi, pj], axis=1)
    den = (pi + pj)[:, None]
    half = 0.5 * m * np.where(ii < jj, 2.0, 1.0)
    terms = np.empty((len(ii), 2, 1 + l))
    terms[:, :, 0] = (half * s0)[:, None]
    terms[:, :, 1:] = half[:, None, None] * (
        (0.25 - 0.5 * phi_ends / den) * s0[:, None, None]
        - harm[:, None] * phi_ends[:, ::-1] / den * s_d[:, None])
    g = np.zeros((k, 1 + l))
    np.add.at(g, np.column_stack([ii, jj]).ravel(), terms.reshape(-1, 1 + l))
    g_t = np.zeros((k, k))
    g_t[ii, jj] = np.where(ii < jj, m * s * q, 0.0)
    ex = expit(theta[k + k * l : -1])
    g_u = np.einsum("ij,pij->p", g_t, dt_domega) * np.pi * ex * (1.0 - ex)
    n_extra = engine.n_total - n
    g_nugget = 0.5 * float(np.trace(w)) - 0.5 * (n_extra / nugget - engine.sse / nugget ** 2)
    return ll, np.concatenate([g[:, 0], g[:, 1:].ravel(), g_u, [nugget * g_nugget]])


class TestLoglikEngine:
    def test_loglik_equals_penalized_loglik(self):
        rng = np.random.default_rng(22)
        for data, basis in engine_cases():
            engine = _LoglikEngine(data, basis)
            theta = random_theta(data, rng)
            beta = rng.normal(size=data.k * basis.width(data.l))
            ll, _ = engine.loglik_grad(theta, beta, 0.4)
            want = penalized_loglik(params_at(theta, beta, data, 0.4), data, basis)
            assert ll == want

    def test_equals_the_block_by_block_reference(self):
        # ℓ and ∇ℓ equal the reference's bit for bit: each pair's block of
        # ∂ℓ/∂Cz read from dpotri's triangle, C filled without a per-pair
        # loop, each output's terms summed in pair order, and dpotrf called
        # directly change no floating-point operation and no order; also with
        # φ at both bounds, the nugget at both bounds and λ > 0
        rng = np.random.default_rng(30)
        phi_bounds, nugget_bounds = mgpkit.mgp._LOG_PHI_BOUNDS, mgpkit.mgp._LOG_NUGGET_BOUNDS
        cases = [(None, None, 0.0), (None, None, 0.4)]
        cases += [(log_phi, None, 0.0) for log_phi in phi_bounds]
        cases += [(None, log_nugget, 0.2) for log_nugget in nugget_bounds]
        for data, basis in engine_cases():
            engine = _LoglikEngine(data, basis)
            k, l = data.k, data.l
            for log_phi, log_nugget, lam in cases:
                theta = random_theta(data, rng)
                if log_phi is not None:
                    theta[k : k + k * l] = log_phi
                if log_nugget is not None:
                    theta[-1] = log_nugget
                beta = rng.normal(size=k * basis.width(l))
                ll, grad = engine.loglik_grad(theta, beta, lam)
                want_ll, want_grad = reference_loglik_grad(engine, theta, beta, lam)
                assert ll == want_ll
                assert np.array_equal(grad, want_grad)

    def test_covariance_equals_cov_matrix(self):
        # one covariance assembly: the engine's C is cov_matrix's bit for bit,
        # also with φ at the search's bounds
        rng = np.random.default_rng(27)
        lo, hi = mgpkit.mgp._LOG_PHI_BOUNDS
        for data, basis in engine_cases():
            engine = _LoglikEngine(data, basis)
            k, l = data.k, data.l
            for log_phi in (None, np.full(k * l, lo), np.full(k * l, hi),
                            rng.choice([lo, hi], size=k * l)):
                theta = random_theta(data, rng)
                if log_phi is not None:
                    theta[k : k + k * l] = log_phi
                p = params_at(theta, np.zeros(k), data, 0.0)
                c = engine._c(p.sigma.sigma, p.phi.phi, p.t.t)[0]
                assert np.array_equal(c, cov_matrix(data.x, p.sigma, p.phi, p.t))

    def test_one_kernel_product_per_distinct_design_pair(self, monkeypatch):
        # the engine groups its pairs by their two designs: one
        # kernels_from_sq_diffs call per group and evaluation, whose rows
        # match the kernel evaluated pair by pair; the product and the sum
        # of products may differ in the exponent x's last bit, which exp
        # turns into x ulps of the kernel, so the bound is 1e-15 per unit of x
        rng = np.random.default_rng(29)
        kernels_, calls = mgpkit.covkernel.kernels_from_sq_diffs, []

        def checked(d2, harm, norm):
            e = kernels_(d2, harm, norm)
            calls.append(len(harm))
            x = np.stack([(d2 * h).sum(-1) for h in harm])
            ref = norm[:, None] * np.exp(-x)
            assert np.all(np.abs(e - ref) <= 1e-15 * np.maximum(x, 1.0) * ref)
            return e

        monkeypatch.setattr(mgpkit.covkernel, "kernels_from_sq_diffs", checked)
        seen = set()
        for data, basis in engine_cases():
            design = data.design_of
            engine = _LoglikEngine(data, basis)
            calls.clear()
            engine.loglik_grad(random_theta(data, rng), np.zeros(data.k * basis.width(data.l)))
            assert len(calls) == len({(design[i], design[j]) for i, j in zip(engine.ii, engine.jj)})
            assert sum(calls) == len(engine.ii)
            seen.add((tuple(design), tuple(sorted(calls))))
        assert ((0, 0, 0), (6,)) in seen  # isotopic: one product for all six pairs
        assert ((0, 1, 0), (1, 1, 1, 3)) in seen

    def test_k1_correlation_shortcut_changes_no_bit(self, monkeypatch):
        # at K=1 corr_and_angle_grads returns T = [[1]] and no angle
        # derivatives without the sphere-row loops; ℓ and ∇ℓ equal those
        # from T built by those loops (angles_to_corr)
        t, dt = corr_and_angle_grads(np.array([]), 1)
        assert np.array_equal(t, angles_to_corr(CrossCorrAngles(np.array([]), 1)).t)
        assert dt.shape == (0, 1, 1)
        rng = np.random.default_rng(28)
        cases = [(_LoglikEngine(data, basis), random_theta(data, rng),
                  rng.normal(size=basis.width(data.l)))
                 for data, basis in engine_cases() if data.k == 1]
        got = [engine.loglik_grad(theta, beta, 0.3) for engine, theta, beta in cases]
        monkeypatch.setattr("mgpkit.mgp.corr_and_angle_grads", lambda angles, k: (
            angles_to_corr(CrossCorrAngles(angles, k)).t, np.zeros((0, k, k))))
        for (engine, theta, beta), (ll, grad) in zip(cases, got):
            want_ll, want_grad = engine.loglik_grad(theta, beta, 0.3)
            assert ll == want_ll
            assert np.array_equal(grad, want_grad)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(23)
        h = 1e-5
        for data, basis in engine_cases():
            engine = _LoglikEngine(data, basis)
            theta = random_theta(data, rng)
            beta = rng.normal(size=data.k * basis.width(data.l))
            _, grad = engine.loglik_grad(theta, beta)
            central = np.array([
                (engine.loglik_grad(theta + h * e, beta)[0]
                 - engine.loglik_grad(theta - h * e, beta)[0]) / (2 * h)
                for e in np.eye(theta.size)
            ])
            assert np.max(np.abs(grad - central)) <= 1e-6 * max(1.0, np.max(np.abs(central)))

    def test_values_do_not_depend_on_earlier_calls(self):
        # θ1, θ2, θ1 (with a β-step factorization between): the first and
        # third calls agree exactly, so no buffer carries over between calls
        rng = np.random.default_rng(25)
        for data, basis in engine_cases():
            if data.k == 2 or basis.kind != "linear":
                continue
            engine = _LoglikEngine(data, basis)
            theta1, theta2 = random_theta(data, rng), random_theta(data, rng)
            beta = rng.normal(size=data.k * basis.width(data.l))
            ll1, grad1 = engine.loglik_grad(theta1, beta, 0.2)
            engine.loglik_grad(theta2, beta, 0.2)
            engine.factor(theta2)
            ll3, grad3 = engine.loglik_grad(theta1, beta, 0.2)
            assert ll1 == ll3
            np.testing.assert_array_equal(grad1, grad3)

    def test_factor_jitters_only_a_covariance_that_fails(self):
        # a duplicated point with nugget 0: with sigma 1 and phi powers of two
        # the two points' 2x2 block is exactly ones, so its second pivot is 0
        x = lhs(8, 2, seed=5).points.copy()
        x[1] = x[0]
        c = cov_matrix([x], MarginalSds(np.ones(1)), RoughnessParams(np.array([[2.0, 4.0]])),
                       CrossCorrMatrix(np.eye(1)))
        cz = c.copy()  # reps 1, nugget 0
        chol, jitter = _factor_collapsed(c, 1, 0.0)
        assert jitter > 0.0
        np.testing.assert_allclose(chol @ chol.T, cz + jitter * np.eye(8), rtol=0, atol=1e-12)
        assert _factor_collapsed(cz.copy(), 1, 0.1)[1] == 0.0
        with pytest.raises(NonPositiveDefiniteError):
            _factor_collapsed(np.array([[1.0, 2.0], [2.0, 1.0]]), 1, 0.0)
        with pytest.raises(NonPositiveDefiniteError):  # jitter scales with a zero diagonal
            _factor_collapsed(np.zeros((2, 2)), 1, 0.0)

    def test_indefinite_covariance_is_a_search_penalty(self, monkeypatch):
        # the model's kernel is positive semi-definite at every θ, so an
        # indefinite Cz is made by factoring -Cz: the engine raises
        # NonPositiveDefiniteError, and the search takes it as its 1e12
        # penalty rather than failing (the β step after it then raises)
        cholesky_ = mgpkit.mgp.cholesky
        monkeypatch.setattr("mgpkit.mgp.cholesky", lambda a, **kw: cholesky_(-a, **kw))
        rng = np.random.default_rng(26)
        x = lhs(10, 2, seed=6).points
        k2 = Dataset(UNIT_SPECS_2D, [x, x], [np.sin(6 * x[:, 0]), np.cos(3 * x[:, 1])], 1,
                     ["a", "b"])
        for data in (k2.sub_dataset(0), k2):
            engine = _LoglikEngine(data, RegressionBasis("const"))
            with pytest.raises(NonPositiveDefiniteError):
                engine.loglik_grad(random_theta(data, rng), np.zeros(data.k))
        counts = dict.fromkeys(_SEARCH_COUNTS, 0)
        with pytest.raises(NonPositiveDefiniteError):
            _fit_once(_LoglikEngine(k2, RegressionBasis("const")), 0.0, counts)
        assert counts["searches"] == 1  # the frozen-angle warm-up
        assert counts["npd_penalties"] >= 1

    def test_a_nan_kernel_is_a_factorization_failure(self, monkeypatch):
        # dpotrf can return info 0 on a NaN and fill the factor with NaN; the
        # factorization checks the factor's diagonal, so one NaN kernel entry
        # that it reads makes loglik_grad, factor and condition raise, as an
        # indefinite covariance does, and the search counts it as a penalty
        kernels_ = mgpkit.covkernel.kernels_from_sq_diffs

        def one_nan(d2, harm, norm):
            e = kernels_(d2, harm, norm)
            e[0, -1] = np.nan  # the first pair's last entry: in C's lower triangle
            return e

        monkeypatch.setattr(mgpkit.covkernel, "kernels_from_sq_diffs", one_nan)
        rng = np.random.default_rng(32)
        for data, basis in engine_cases():
            if basis.kind != "const":
                continue
            engine = _LoglikEngine(data, basis)
            theta, beta = random_theta(data, rng), np.zeros(data.k)
            with pytest.raises(NonPositiveDefiniteError):
                engine.loglik_grad(theta, beta)
            with pytest.raises(NonPositiveDefiniteError):
                engine.factor(theta)
            with pytest.raises(NonPositiveDefiniteError):
                engine.condition(params_at(theta, beta, data, 0.0))
        x = lhs(10, 2, seed=6).points
        k2 = Dataset(UNIT_SPECS_2D, [x, x], [np.sin(6 * x[:, 0]), np.cos(3 * x[:, 1])], 1,
                     ["a", "b"])
        counts = dict.fromkeys(_SEARCH_COUNTS, 0)
        with pytest.raises(NonPositiveDefiniteError):
            _fit_once(_LoglikEngine(k2, RegressionBasis("const")), 0.0, counts)
        assert counts["searches"] == 1  # the frozen-angle warm-up, then the β step raises
        assert counts["npd_penalties"] >= 1

    def test_a_nan_only_the_upper_triangle_holds_fails_the_gradient(self, monkeypatch):
        # dpotrf reads one triangle of Cz and the gradient both: with a NaN at
        # kernel entry (0, 1) of a K=1 covariance the factor is finite and ℓ
        # would be too, so loglik_grad raises on its non-finite gradient, and
        # the search takes that as its penalty and stays at its start
        kernels_ = mgpkit.covkernel.kernels_from_sq_diffs

        def one_nan(d2, harm, norm):
            e = kernels_(d2, harm, norm)
            e[0, 1] = np.nan
            return e

        monkeypatch.setattr(mgpkit.covkernel, "kernels_from_sq_diffs", one_nan)
        x = lhs(10, 2, seed=6).points
        data = Dataset(UNIT_SPECS_2D, [x], [np.sin(6 * x[:, 0])], 1, ["a"])
        engine = _LoglikEngine(data, RegressionBasis("const"))
        theta = random_theta(data, np.random.default_rng(33))
        chol, jitter = engine.factor(theta)
        assert np.isfinite(chol).all() and jitter == 0.0
        with pytest.raises(NonPositiveDefiniteError, match="non-finite gradient"):
            engine.loglik_grad(theta, np.zeros(1))
        counts = dict.fromkeys(_SEARCH_COUNTS, 0)
        model = _fit_once(engine, 0.0, counts)
        assert counts["npd_penalties"] >= counts["searches"] >= 1
        assert np.array_equal(model.params.phi.phi, np.ones((1, 2)))

    def test_search_uses_the_exact_gradient(self, monkeypatch):
        # a finite-difference gradient costs one factorization per parameter
        # per iteration (13 parameters here); the exact one costs one per
        # evaluation, and L-BFGS-B takes one or two evaluations an iteration
        counts = {"cholesky": 0, "nit": 0, "searches": 0, "at_cap": 0}
        cholesky_, minimize_ = mgpkit.mgp.cholesky, mgpkit.mgp.minimize

        def counted_cholesky(*args, **kwargs):
            counts["cholesky"] += 1
            return cholesky_(*args, **kwargs)

        def counted_minimize(*args, **kwargs):
            res = minimize_(*args, **kwargs)
            counts["nit"] += res.nit
            counts["searches"] += 1
            counts["at_cap"] += res.nit >= _COV_MAXITER
            return res

        monkeypatch.setattr("mgpkit.mgp.cholesky", counted_cholesky)
        monkeypatch.setattr("mgpkit.mgp.minimize", counted_minimize)
        x = lhs(15, 3, seed=24).points
        ys = [np.sin(3 * x[:, 0]) + x[:, 1], np.sin(3 * x[:, 0]) - x[:, 2] ** 2]
        data = Dataset([InputSpec(f"x{j}", 0.0, 1.0) for j in range(3)], [x, x], ys, 1,
                       ["a", "b"])
        model = fit(data, RegressionBasis("const"), FitConfig(lam=0.0, restarts=2))
        # every evaluation factors through mgp.cholesky, which the tracer wraps
        assert counts["nit"] <= counts["cholesky"] < 3 * counts["nit"]
        # the model counts every search of the fit, prefits included
        assert model.diagnostics["searches"] == counts["searches"]
        assert model.diagnostics["iter_limit_hits"] == counts["at_cap"]
        assert model.diagnostics["npd_penalties"] >= 0

    def test_failed_restarts_and_prefits_are_counted(self, monkeypatch):
        # the first three restarts fail after their searches: both restarts
        # of the first prefit (so the informed start is dropped) and the
        # first restart of the joint fit; their searches still count
        searches, conditioned = [], []
        minimize_, condition_ = mgpkit.mgp.minimize, _LoglikEngine.condition

        def counted_minimize(*args, **kwargs):
            searches.append(1)
            return minimize_(*args, **kwargs)

        def failing_condition(*args):
            conditioned.append(1)
            if len(conditioned) <= 3:
                raise FitError("rejected")
            return condition_(*args)

        monkeypatch.setattr("mgpkit.mgp.minimize", counted_minimize)
        monkeypatch.setattr(_LoglikEngine, "condition", failing_condition)
        x = lhs(10, 1, seed=4).points
        data = Dataset(UNIT_SPECS_1D, [x, x], [np.sin(6 * x[:, 0]), np.cos(3 * x[:, 0])], 1,
                       ["a", "b"])
        model = fit(data, RegressionBasis("const"), FitConfig(lam=0.0, restarts=2))
        assert model.diagnostics["searches"] == len(searches)
        # the two restarts of the first prefit, then the two joint restarts
        assert len(conditioned) == 4

    def test_one_factorization_per_conditioned_model(self, monkeypatch):
        # fit is entered once per call and standardizes its data once, for the
        # prefits too; outside its searches, each _fit_once
        # run factors Cz once per β step (one per round and one after the
        # last), and its returned model reuses the last of those factors;
        # λ="auto" conditions the relaxed trend on the λ=0 model's factor,
        # so it adds no factorization; no covariance comes from cov_matrix;
        # the restarts on one dataset share its engine, which λ="auto" reuses
        # for the relaxed trend
        counts = {"cov_matrix": 0, "fit": 0, "_standardize": 0, "_fit_once": 0,
                  "_LoglikEngine": 0, "factorizations": 0}
        searching = []
        minimize_, factor_ = mgpkit.mgp.minimize, mgpkit.mgp._factor_collapsed

        def counted(name):
            original = getattr(mgpkit.mgp, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(mgpkit.mgp, name, wrapper)

        def search(*args, **kwargs):
            searching.append(1)
            try:
                return minimize_(*args, **kwargs)
            finally:
                searching.pop()

        def factor(*args):
            counts["factorizations"] += not searching
            return factor_(*args)

        for name in ("cov_matrix", "fit", "_standardize", "_fit_once", "_LoglikEngine"):
            counted(name)
        monkeypatch.setattr(mgpkit.mgp, "minimize", search)
        monkeypatch.setattr(mgpkit.mgp, "_factor_collapsed", factor)
        x = lhs(10, 1, seed=4).points
        k2 = Dataset(UNIT_SPECS_1D, [x, x], [np.sin(6 * x[:, 0]), np.cos(3 * x[:, 0])], 1,
                     ["a", "b"])
        mgpkit.mgp.fit(k2, RegressionBasis("const"), FitConfig(lam=0.0, restarts=2))
        # two restarts of each univariate prefit, then the two joint restarts;
        # one engine per prefit and one for the joint fit
        per_run = mgpkit.mgp._MAX_ROUNDS + 1
        assert counts == {"cov_matrix": 0, "fit": 1, "_standardize": 1, "_fit_once": 6,
                          "_LoglikEngine": 3, "factorizations": 6 * per_run}

        counts.update(dict.fromkeys(counts, 0))
        mgpkit.mgp.fit(criterion6_like_data(), RegressionBasis("linear"),
                       FitConfig(lam="auto", restarts=1))
        assert counts == {"cov_matrix": 0, "fit": 1, "_standardize": 1, "_fit_once": 1,
                          "_LoglikEngine": 1, "factorizations": per_run}

    def test_search_budget(self):
        # a K=2 fit with restarts=1: two restarts of each univariate prefit at
        # 2 rounds each, then the joint restart's warm-up and its 2 rounds; a
        # K=1 fit has no prefits and no warm-up
        x = lhs(10, 1, seed=4).points
        k2 = Dataset(UNIT_SPECS_1D, [x, x], [np.sin(6 * x[:, 0]), np.cos(3 * x[:, 0])], 1,
                     ["a", "b"])
        config = FitConfig(lam=0.0, restarts=1)
        assert fit(k2, RegressionBasis("const"), config).diagnostics["searches"] == 11
        assert fit(k2.sub_dataset(0), RegressionBasis("const"), config).diagnostics["searches"] == 2

    def test_only_the_prefits_loosen_ftol(self, monkeypatch):
        # the univariate prefits only seed the joint search, so only their
        # searches stop at _PREFIT_FTOL; every other search keeps L-BFGS-B's
        # default ftol
        options, minimize_ = [], mgpkit.mgp.minimize

        def recorded(*args, **kwargs):
            options.append(kwargs["options"])
            return minimize_(*args, **kwargs)

        monkeypatch.setattr("mgpkit.mgp.minimize", recorded)
        x = lhs(10, 1, seed=4).points
        k2 = Dataset(UNIT_SPECS_1D, [x, x], [np.sin(6 * x[:, 0]), np.cos(3 * x[:, 0])], 1,
                     ["a", "b"])
        config = FitConfig(lam=0.0, restarts=1)
        fit(k2, RegressionBasis("const"), config)
        # two restarts of each prefit at two rounds each, then the joint
        # restart's warm-up and its two rounds
        prefit = {"maxiter": _COV_MAXITER, "ftol": mgpkit.mgp._PREFIT_FTOL}
        assert options == [prefit] * 8 + [{"maxiter": _COV_MAXITER}] * 3
        options.clear()
        fit(k2.sub_dataset(0), RegressionBasis("const"), config)
        fit_independent(k2, RegressionBasis("const"), config)
        assert options == [{"maxiter": _COV_MAXITER}] * 6

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_round_loglik_does_not_decrease(self, k):
        # each round's GLS step maximizes ℓ over β at the search's θ (λ=0),
        # and each search starts where the step left it; the returned model's
        # β is solved once more at the last search's θ
        rng = np.random.default_rng(40 + k)
        x = lhs(15, 2, seed=k).points
        ys = [np.sin(3 * x[:, 0]) + c * x[:, 1] + 0.05 * rng.normal(size=15)
              for c in np.linspace(-1.0, 1.0, k)]
        data = Dataset(UNIT_SPECS_2D, [x] * k, ys, 1, [f"y{i}" for i in range(k)])
        model = fit(data, RegressionBasis("linear"), FitConfig(lam=0.0, restarts=2))
        lls = model.diagnostics["round_loglik"]
        assert len(lls) == mgpkit.mgp._MAX_ROUNDS + (k > 1)  # the warm-up when K > 1
        for before, after in zip(lls, lls[1:] + [model.diagnostics["loglik"]]):
            assert after >= before - 1e-9 * abs(before)
        assert json.loads(model_to_json(model))["diagnostics"]["round_loglik"] == lls

    def test_starts_from_perfectly_correlated_outputs_keep_their_angles_inside(
            self, monkeypatch):
        # outputs y, y and -y have empirical correlations of exactly ±1; the
        # informed start shrinks them toward I, so every eigenvalue of its T is
        # >= 0.2; each angle's sine is at least its row's diagonal Cholesky
        # entry, whose square is >= 0.2, so the angles, and those of the
        # perturbed start, which mixes them with pi/2, lie in
        # [arcsin sqrt(0.2), pi - arcsin sqrt(0.2)] = [0.46, 2.68]
        starts, fit_once = [], mgpkit.mgp._fit_once

        def recorded(engine, lam, counts, start=None, **options):
            if engine.k == 3:
                starts.append(start)
            return fit_once(engine, lam, counts, start=start, **options)

        monkeypatch.setattr(mgpkit.mgp, "_fit_once", recorded)
        x = lhs(12, 1, seed=5).points
        y = np.sin(6 * x[:, 0]) + x[:, 0]
        data = Dataset(UNIT_SPECS_1D, [x] * 3, [y, y, -y], 1, ["a", "b", "c"])
        model = fit(data, RegressionBasis("const"), FitConfig(lam=0.0, restarts=2))
        assert np.isfinite(model.diagnostics["loglik"])
        t_emp = np.corrcoef(model.data.point_means())
        np.testing.assert_allclose(np.abs(t_emp), 1.0, rtol=0.0, atol=1e-12)
        lo = np.arcsin(np.sqrt(0.2))
        assert len(starts) == 2
        for _, _, omega, _ in starts:
            assert np.all((omega >= lo) & (omega <= np.pi - lo))

    def test_angle_bounds_unpack_inside_the_open_interval(self):
        # L-BFGS-B keeps each angle's u within _OMEGA_U_BOUNDS, where pi * expit(u)
        # stays at least 1.9e-5 inside (0, pi), as CrossCorrAngles requires
        k, l = 3, 2
        for u in mgpkit.mgp._OMEGA_U_BOUNDS:
            theta = np.concatenate([np.zeros(k + k * l), np.full(3, u), [0.0]])
            omega = _unpack(theta, k, l)[2]
            assert np.all(np.minimum(omega, np.pi - omega) > 1.9e-5)
            CrossCorrAngles(omega, k)  # raises on any angle outside (0, pi)


def sliced_cov_predict_batch(model, x):
    """predict_batch with each block's cross-covariance sliced from cov_matrix over
    [query block; training points] of every output, which groups its pairs as the
    engine does, and the same blocking and product with L⁻¹: the reference for
    bit-equality."""
    data, p = model.data, model.params
    k = data.k
    beta = np.column_stack(p.beta)
    means, sds = np.empty((len(x), k)), np.empty((len(x), k))
    rows = mgpkit.mgp.PREDICT_BLOCK_ROWS
    for lo in range(0, len(x), rows):
        xb = x[lo : lo + rows]
        full = cov_matrix([np.vstack([xb, xi]) for xi in data.x], p.sigma, p.phi, p.t)
        starts = np.concatenate([[0], np.cumsum([len(xb) + len(xi) for xi in data.x])])
        # C-ordered as predict_batch's r: a product's bits depend on the layout too
        r = np.ascontiguousarray(np.block(
            [[full[starts[o] : starts[o] + len(xb), starts[j] + len(xb) : starts[j + 1]]
              for j in range(k)] for o in range(k)]))
        mean_std = model.basis.evaluate(xb) @ beta + (r @ model.alpha).reshape(k, -1).T
        v = dtrmm(1.0, model.chol_inv, r.T, lower=1)
        var_std = p.sigma.sigma ** 2 + p.nugget - data.reps * (v * v).sum(axis=0).reshape(k, -1).T
        means[lo : lo + len(xb)] = model.y_mean + model.y_scale * mean_std
        sds[lo : lo + len(xb)] = model.y_scale * np.sqrt(np.maximum(var_std, 0.0))
    return means, sds


def dense_kriging(model, xq):
    """Means and sds at ``xq`` from the joint prior over the stacked (repeated)
    training points and the query points of every output, conditioned by
    dense solves: the independent reference for predict_batch."""
    data, params, basis = model.data, model.params, model.basis
    reps, nq = data.reps, len(xq)
    stacked = [np.vstack([np.repeat(xi, reps, axis=0), xq]) for xi in data.x]
    full = cov_matrix(stacked, params.sigma, params.phi, params.t)
    ends = np.cumsum([len(s) for s in stacked])
    train = np.concatenate([np.arange(e - len(s), e - nq) for e, s in zip(ends, stacked)])
    r_tt = full[np.ix_(train, train)] + params.nugget * np.eye(len(train))
    resid = np.concatenate(data.y) - stacked_f(data, basis) @ params.beta_concat()
    means, sds = np.empty((nq, data.k)), np.empty((nq, data.k))
    for i in range(data.k):
        query = np.arange(ends[i] - nq, ends[i])
        r_qt = full[np.ix_(query, train)]
        m_std = basis.evaluate(xq) @ params.beta[i] + r_qt @ np.linalg.solve(r_tt, resid)
        v_std = (np.diag(full[np.ix_(query, query)]) + params.nugget
                 - np.sum(r_qt * np.linalg.solve(r_tt, r_qt.T).T, axis=1))
        means[:, i] = model.y_mean[i] + model.y_scale[i] * m_std
        sds[:, i] = model.y_scale[i] * np.sqrt(v_std)
    return means, sds


class TestBatchedPrediction:
    def test_matches_dense_kriging_oracle(self, monkeypatch):
        # K=3 with replicates, a correlated T, a linear trend and non-trivial
        # standardization, queried over several row blocks
        monkeypatch.setattr("mgpkit.mgp.PREDICT_BLOCK_ROWS", 4)
        rng = np.random.default_rng(16)
        k, l, reps = 3, 2, 3
        xs = [rng.uniform(size=(n, l)) for n in (6, 8, 7)]
        ys = [rng.normal(size=len(xi) * reps) for xi in xs]
        data = Dataset(UNIT_SPECS_2D, xs, ys, reps, ["a", "b", "c"])
        basis = RegressionBasis("linear")
        params = make_params(k, l, 3, rng, nugget=0.2)
        params.omega = CrossCorrAngles(np.array([0.6, 2.4, 0.9]), k)
        assert np.min(np.abs(params.t.t[np.tril_indices(k, -1)])) > 0.3
        model = _LoglikEngine(data, basis).condition(params)
        model.y_mean = np.array([10.0, -3.0, 0.5])
        model.y_scale = np.array([2.0, 0.3, 5.0])
        outside = np.array([[-0.1, 0.5], [1.15, 0.3], [0.4, 1.3]])
        xq = np.vstack([rng.uniform(size=(22, l)), outside])
        mean, sd = predict_batch(model, xq)
        ref_mean, ref_sd = dense_kriging(model, xq)
        np.testing.assert_allclose(mean, ref_mean, rtol=0, atol=1e-9)
        np.testing.assert_allclose(sd, ref_sd, rtol=0, atol=1e-9)
        preds = [predict(model, x0) for x0 in xq]
        np.testing.assert_allclose([pr.mean for pr in preds], mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose([pr.sd for pr in preds], sd, rtol=0, atol=1e-12)

    def test_ill_conditioned_model_matches_dense_kriging_oracle(self, monkeypatch):
        # K=3 with the nugget at its lower bound e^-18 and smooth kernels
        # (small φ): the factor's condition number is near 1e5, and the sds
        # near training points are about 1e-4, where the product with the
        # computed L⁻¹ is least accurate
        monkeypatch.setattr("mgpkit.mgp.PREDICT_BLOCK_ROWS", 8)
        rng = np.random.default_rng(0)
        k, l, reps = 3, 2, 2
        xs = [rng.uniform(size=(n, l)) for n in (12, 14, 13)]
        ys = [rng.normal(size=len(xi) * reps) for xi in xs]
        data = Dataset(UNIT_SPECS_2D, xs, ys, reps, ["a", "b", "c"])
        params = make_params(k, l, 3, rng, nugget=float(np.exp(-18.0)))
        params.phi = RoughnessParams(rng.uniform(0.05, 0.2, size=(k, l)))
        model = _LoglikEngine(data, RegressionBasis("linear")).condition(params)
        assert model.diagnostics["jitter"] == 0.0
        assert 3e4 < np.linalg.cond(model.chol) < 3e5
        xq = np.vstack([rng.uniform(size=(20, l)), xs[0][:3], xs[1][:2]])
        mean, sd = predict_batch(model, xq)
        ref_mean, ref_sd = dense_kriging(model, xq)
        assert sd.min() < 2e-4
        np.testing.assert_allclose(sd, ref_sd, rtol=0, atol=1e-9)

    def test_l_inverse_is_formed_at_the_first_variance(self, monkeypatch, tmp_path):
        # conditioning inverts nothing and prediction solves nothing: the first
        # variance inverts the factor once, and the model keeps L⁻¹.  Callers
        # that read means only (screening, rmse) and fits never invert.
        calls = {"dtrtri": 0, "solve_triangular": 0, "condition": 0}

        def counted(owner, name, key):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(mgpkit.mgp, "dtrtri", "dtrtri")
        counted(mgpkit.mgp, "solve_triangular", "solve_triangular")
        counted(_LoglikEngine, "condition", "condition")
        monkeypatch.setattr("mgpkit.mgp.PREDICT_BLOCK_ROWS", 4)
        rng = np.random.default_rng(22)
        xs = [rng.uniform(size=(n, 2)) for n in (6, 5)]
        data = Dataset(UNIT_SPECS_2D, xs, [rng.normal(size=n) for n in (6, 5)], 1, ["a", "b"])
        model = _LoglikEngine(data, RegressionBasis("linear")).condition(
            make_params(2, 2, 3, rng, nugget=0.1))
        assert calls == {"dtrtri": 0, "solve_triangular": 0, "condition": 1}
        predict_batch(model, rng.uniform(size=(11, 2)))
        assert calls == {"dtrtri": 1, "solve_triangular": 0, "condition": 1}
        predict_batch(model, rng.uniform(size=(11, 2)))
        predict(model, np.full(2, 0.5))
        assert calls == {"dtrtri": 1, "solve_triangular": 0, "condition": 1}
        text = model_to_json(model)
        loaded = model_from_json(text)
        assert calls == {"dtrtri": 1, "solve_triangular": 0, "condition": 2}
        predict(loaded, np.full(2, 0.5))
        assert calls == {"dtrtri": 2, "solve_triangular": 0, "condition": 2}

        rmse(model_from_json(text), Dataset(UNIT_SPECS_2D, [xs[1][:3], xs[0][:2]],
                                            [np.zeros(3), np.ones(2)], 1, ["a", "b"]))
        path = tmp_path / "model.json"
        path.write_text(text)
        assert main(["sensitivity", "--target", str(path), "--r", "3",
                     "--out", str(tmp_path / "s")]) == 0
        fit(data, RegressionBasis("const"), FitConfig(lam="auto", restarts=2))
        assert calls["dtrtri"] == 2 and calls["condition"] > 4

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_query_point_is_rejected(self, bad):
        rng = np.random.default_rng(23)
        x = rng.uniform(size=(6, 2))
        data = Dataset(UNIT_SPECS_2D, [x], [np.sin(3 * x[:, 0])], 1, ["y"])
        model = _LoglikEngine(data, RegressionBasis("linear")).condition(
            make_params(1, 2, 3, rng, nugget=0.1))
        xq = rng.uniform(size=(5, 2))
        xq[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            predict_batch(model, xq)
        with pytest.raises(ValueError, match="finite"):
            predict(model, xq[3])

    @pytest.mark.parametrize("sizes, reps", [((5, 9, 7), 2), ((8,), 1)],
                             ids=["heterotopic-k3", "k1"])
    def test_predict_batch_equals_per_pair_assembly(self, monkeypatch, sizes, reps):
        # 11 query rows in blocks of 4: two full blocks and a ragged one
        monkeypatch.setattr("mgpkit.mgp.PREDICT_BLOCK_ROWS", 4)
        rng = np.random.default_rng(21)
        k, l = len(sizes), 2
        xs = [rng.uniform(size=(n, l)) for n in sizes]
        ys = [rng.normal(size=n * reps) for n in sizes]
        data = Dataset(UNIT_SPECS_2D, xs, ys, reps, [f"y{i}" for i in range(k)])
        basis = RegressionBasis("linear")
        model = _LoglikEngine(data, basis).condition(make_params(k, l, 3, rng, nugget=0.2))
        model.y_mean = rng.normal(size=k)
        model.y_scale = rng.uniform(0.5, 3.0, size=k)
        xq = rng.uniform(-0.1, 1.1, size=(11, l))
        mean, sd = predict_batch(model, xq)
        ref_mean, ref_sd = sliced_cov_predict_batch(model, xq)
        assert np.array_equal(mean, ref_mean)
        assert np.array_equal(sd, ref_sd)

    @pytest.mark.parametrize("sizes, reps, shared", [((5, 9, 7), 2, False), ((8,), 1, False),
                                                     ((7, 7, 7), 2, True)],
                             ids=["heterotopic-k3", "k1", "isotopic-k3"])
    def test_means_without_sds_are_equal(self, monkeypatch, sizes, reps, shared):
        monkeypatch.setattr("mgpkit.mgp.PREDICT_BLOCK_ROWS", 4)
        rng = np.random.default_rng(24)
        k, l = len(sizes), 2
        xs = [rng.uniform(size=(n, l)) for n in sizes]
        if shared:
            xs = [xs[0].copy() for _ in xs]
        ys = [rng.normal(size=n * reps) for n in sizes]
        data = Dataset(UNIT_SPECS_2D, xs, ys, reps, [f"y{i}" for i in range(k)])
        model = _LoglikEngine(data, RegressionBasis("linear")).condition(
            make_params(k, l, 3, rng, nugget=0.2))
        model.y_mean = rng.normal(size=k)
        model.y_scale = rng.uniform(0.5, 3.0, size=k)
        xq = rng.uniform(-0.1, 1.1, size=(11, l))
        mean, sd = predict_batch(model, xq, sd=False)
        assert sd is None
        assert np.array_equal(mean, predict_batch(model, xq)[0])

    @pytest.mark.parametrize("designs, calls, kernels", [((0, 0, 0), 3, 1), ((0, 1, 0), 6, 6)],
                             ids=["isotopic-k3", "two-designs-k3"])
    def test_one_sq_diffs_per_block_per_distinct_design(self, monkeypatch, designs, calls,
                                                        kernels):
        # 11 query rows in blocks of 4 make three blocks; outputs on equal
        # copies of one point set share its squared differences, and each of
        # the engine's pair groups takes one kernel product per design it ends
        # on: one group of 6 pairs on (0, 0, 0); on (0, 1, 0) the groups of
        # pairs on designs (0, 0) and (1, 1) take one each, (0, 1) and (1, 0) two
        monkeypatch.setattr("mgpkit.mgp.PREDICT_BLOCK_ROWS", 4)
        rng = np.random.default_rng(30)
        k, l, reps = 3, 2, 2
        points = [rng.uniform(size=(n, l)) for n in (7, 5)]
        xs = [points[q].copy() for q in designs]
        ys = [rng.normal(size=len(xi) * reps) for xi in xs]
        data = Dataset(UNIT_SPECS_2D, xs, ys, reps, ["a", "b", "c"])
        basis = RegressionBasis("linear")
        model = _LoglikEngine(data, basis).condition(make_params(k, l, 3, rng, nugget=0.2))
        model.y_mean = rng.normal(size=k)
        model.y_scale = rng.uniform(0.5, 3.0, size=k)
        xq = rng.uniform(-0.1, 1.1, size=(11, l))
        sq_diffs_, d2_calls = mgpkit.mgp.sq_diffs, []

        def counted_sq_diffs(*args):
            d2_calls.append(1)
            return sq_diffs_(*args)

        kernels_, kernel_calls = mgpkit.mgp.kernels_from_sq_diffs, []

        def counted_kernels(*args):
            kernel_calls.append(1)
            return kernels_(*args)

        monkeypatch.setattr("mgpkit.mgp.sq_diffs", counted_sq_diffs)
        monkeypatch.setattr("mgpkit.mgp.kernels_from_sq_diffs", counted_kernels)
        mean, sd = predict_batch(model, xq)
        assert len(d2_calls) == calls
        assert len(kernel_calls) == 3 * kernels
        ref_mean, ref_sd = sliced_cov_predict_batch(model, xq)
        assert np.array_equal(mean, ref_mean)
        assert np.array_equal(sd, ref_sd)

    @pytest.mark.parametrize("designs", [(0, 0, 0), (0, 1, 0), (0, 1, 2)],
                             ids=["isotopic-k3", "two-designs-k3", "heterotopic-k3"])
    def test_cross_covariance_at_training_points_is_the_engines(self, monkeypatch, designs):
        # queried at output o's training points, the rows of o in each block's
        # cross-covariance are o's rows of the engine's C, bit for bit
        monkeypatch.setattr("mgpkit.mgp.PREDICT_BLOCK_ROWS", 4)
        rng = np.random.default_rng(31)
        k, l, reps = 3, 2, 2
        points = [rng.uniform(size=(n, l)) for n in (7, 5, 9)]
        xs = [points[q].copy() for q in designs]
        ys = [rng.normal(size=len(xi) * reps) for xi in xs]
        data = Dataset(UNIT_SPECS_2D, xs, ys, reps, ["a", "b", "c"])
        engine = _LoglikEngine(data, RegressionBasis("linear"))
        params = make_params(k, l, 3, rng, nugget=0.2)
        model = engine.condition(params)
        c = engine._c(params.sigma.sigma, params.phi.phi, params.t.t)[0]
        offs = np.concatenate([[0], np.cumsum([len(xi) for xi in xs])])
        dtrmm_, blocks = mgpkit.mgp.dtrmm, []

        def capturing_dtrmm(alpha, a, b, **kwargs):
            blocks.append(b.T.copy())  # r, before the product overwrites it
            return dtrmm_(alpha, a, b, **kwargs)

        monkeypatch.setattr("mgpkit.mgp.dtrmm", capturing_dtrmm)
        for o in range(k):
            blocks.clear()
            predict_batch(model, xs[o])
            rows = np.vstack([r.reshape(k, -1, offs[-1])[o] for r in blocks])
            assert np.array_equal(rows, c[offs[o] : offs[o + 1]])


class TestRmse:
    def _simple_model(self, y_const):
        rng = np.random.default_rng(14)
        x = rng.uniform(size=(4, 1))
        data = Dataset(UNIT_SPECS_1D, [x], [np.full(4, y_const)], 1, ["y"])
        params = MgpParams(
            beta=[np.array([y_const])],
            sigma=MarginalSds(np.array([1.0])),
            phi=RoughnessParams(np.array([[1e4]])),
            omega=CrossCorrAngles(np.array([]), 1),
            nugget=0.0,
        )
        return _manual_model(params, data, RegressionBasis("const"))

    def test_perfect_predictor(self):
        model = self._simple_model(1.0)
        test = Dataset(UNIT_SPECS_1D, [np.array([[0.33], [0.66]])], [np.ones(2)], 1, ["y"])
        np.testing.assert_allclose(rmse(model, test), 0.0, atol=1e-10)

    def test_constant_zero_predictor_on_ones(self):
        model = self._simple_model(0.0)
        test = Dataset(UNIT_SPECS_1D, [np.array([[0.33], [0.66]])], [np.ones(2)], 1, ["y"])
        np.testing.assert_allclose(rmse(model, test), 1.0, atol=1e-10)

    def test_empty_test_set_rejected(self):
        model = self._simple_model(0.0)
        with pytest.raises(ValueError):
            rmse(model, Dataset(UNIT_SPECS_1D, [np.empty((0, 1))], [np.empty(0)], 1, ["y"]))

    def test_test_set_of_other_output_count_rejected(self):
        # once an IndexError after the first output's score
        model = self._simple_model(0.0)
        x = np.array([[0.33], [0.66]])
        test = Dataset(UNIT_SPECS_1D, [x, x], [np.ones(2), np.ones(2)], 1, ["y", "z"])
        for scored in (model, [model]):
            with pytest.raises(ValueError, match="test dataset has 2 outputs, the model 1"):
                rmse(scored, test)


class TestSerialization:
    def test_round_trip_predictions(self):
        rng = np.random.default_rng(15)
        x = rng.uniform(size=(10, 2))
        ys = [np.sin(3 * x[:, 0]), np.cos(2 * x[:, 1])]
        data = Dataset(UNIT_SPECS_2D, [x, x], ys, 1, ["a", "b"])
        model = fit(data, RegressionBasis("linear"), FitConfig(lam=0.0, restarts=1, seed=2))
        text = model_to_json(model)
        doc = json.loads(text)
        assert doc["version"] == "mgpkit-model-v1"
        loaded = model_from_json(text)
        x0s = rng.uniform(size=(5, 2))
        m1, s1 = predict_batch(model, x0s)
        m2, s2 = predict_batch(loaded, x0s)
        np.testing.assert_allclose(m1, m2, atol=1e-10)
        np.testing.assert_allclose(s1, s2, atol=1e-10)

    def test_training_fingerprint_is_optional(self):
        # models written before the fingerprint was dropped carry one in the
        # training block; it is not read, with or without it
        rng = np.random.default_rng(18)
        x = rng.uniform(size=(8, 2))
        data = Dataset(UNIT_SPECS_2D, [x, x], [np.sin(3 * x[:, 0]), x[:, 1] ** 2], 1, ["a", "b"])
        model = fit(data, RegressionBasis("const"), FitConfig(lam=0.0, restarts=1))
        text = model_to_json(model)
        doc, old = json.loads(text), json.loads(text)
        assert "fingerprint" not in doc["training"]
        old["training"]["fingerprint"] = {"n_total": 16, "sha256": "0" * 64}
        x0s = rng.uniform(size=(5, 2))
        expected = predict_batch(model, x0s)
        for d in (doc, old):
            got = predict_batch(model_from_json(json.dumps(d)), x0s)
            np.testing.assert_array_equal(got[0], expected[0])
            np.testing.assert_array_equal(got[1], expected[1])

    def test_rejects_unknown_version(self):
        with pytest.raises(ValueError):
            model_from_json('{"version": "other"}')


def criterion6_like_data(seed=0):
    """K=1, 40 points x 3 reps on [0,1]^3 with trend 5 + 3*x1 and noise sd 0.3."""
    specs = [InputSpec(f"x{j}", 0.0, 1.0) for j in range(3)]
    rng = np.random.default_rng(seed)
    x = lhs(40, 3, seed=seed).points
    y = ((5.0 + 3.0 * x[:, 0])[:, None] + 0.3 * rng.normal(size=(40, 3))).ravel()
    return Dataset(specs, [x], [y], 3, ["y"])


class TestAutoLambda:
    CONFIG = FitConfig(lam="auto", restarts=1)

    def test_covariance_is_fitted_once(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return _fit_once(*args, **kwargs)

        monkeypatch.setattr("mgpkit.mgp._fit_once", counting)
        fit(criterion6_like_data(), RegressionBasis("linear"), self.CONFIG)
        assert len(calls) == 1

    def test_reports_its_own_likelihood_and_selection(self):
        model = fit(criterion6_like_data(), RegressionBasis("linear"), self.CONFIG)
        loaded = model_from_json(model_to_json(model))
        for m in (model, loaded):
            assert m.diagnostics["loglik"] == penalized_loglik(m.params, m.data, m.basis)
            c = cov_matrix(m.data.x, m.params.sigma, m.params.phi, m.params.t)
            assert np.array_equal(m.chol, _factor_collapsed(c, m.data.reps, m.params.nugget)[0])
            # the returned trend is the unpenalized refit on the selected support
            assert m.params.lam == 0.0
            assert m.diagnostics["lambda"] > 0.0
            off = np.ones(m.params.beta_concat().size, dtype=bool)
            off[m.diagnostics["support"]] = False
            assert np.all(m.params.beta_concat()[off] == 0.0)
        assert model.diagnostics["support"] == [0, 1]


def _manual_model(params, data, basis):
    """FittedModel from given parameters without running the optimizer."""
    return _LoglikEngine(data, basis).condition(params)
