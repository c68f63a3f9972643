"""Acceptance suite: eight end-to-end checks, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy benchmark
checks (1 and 2) stay within a few minutes each on a single core.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from mgpkit.covkernel import (
    CrossCorrAngles,
    CrossCorrMatrix,
    MarginalSds,
    RoughnessParams,
    angles_to_corr,
    corr_to_angles,
    cov_matrix,
    n_angles,
    mean_normalizer,
)
from mgpkit.design import InputSpec, lhs, maximin_lhs, morris_trajectories, scale_design
from mgpkit.mgp import (
    Dataset,
    FitConfig,
    MgpParams,
    RegressionBasis,
    fit,
    fit_independent,
    gls_beta_l1,
    penalized_loglik,
    predict,
    rmse,
)
from mgpkit.plantsim import (
    DEFAULT_SPECS,
    OUTPUT_NAMES,
    PlantConfig,
    generate_dataset,
    plant_response_batch,
)
from mgpkit.sensitivity import elementary_effects, rank_inputs
from oracles import beta_original, det_normalizer, lambda_max

UNIT_2D = [InputSpec("a", 0.0, 1.0), InputSpec("b", 0.0, 1.0)]


def report(num, label, ok, detail=""):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_cross_correlation_recovery():
    t_true = np.array([[1.0, 0.76, 0.06], [0.76, 1.0, 0.05], [0.06, 0.05, 1.0]])
    om_true = corr_to_angles(CrossCorrMatrix(t_true))
    sig = MarginalSds(np.ones(3))
    k, l, n = 3, 2, 40
    iu = np.triu_indices(3, 1)
    errs = []
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        phi = RoughnessParams(np.tile(rng.uniform(20.0, 40.0, size=(1, l)), (k, 1)))
        x = lhs(n, l, seed).points
        r = cov_matrix([x] * k, sig, phi, angles_to_corr(om_true), nugget=1e-4)
        y = np.linalg.cholesky(r) @ rng.normal(size=k * n)
        data = Dataset(UNIT_2D, [x] * k, [y[:n], y[n : 2 * n], y[2 * n :]], 1, ["a", "b", "c"])
        model = fit(data, RegressionBasis("const"), FitConfig(lam=0.0, restarts=3, seed=seed))
        errs.append(np.abs(model.params.t.t[iu] - t_true[iu]))
    med = np.median(np.array(errs), axis=0)
    report(1, "cross-correlation recovery", bool(np.all(med < 0.15)),
           f"median abs errors {np.round(med, 3).tolist()} (tolerance 0.15)")


def test_criterion_2_mgp_vs_independent_on_plant():
    wins = 0
    per_seed = []
    for seed in range(10):
        cfg = PlantConfig(seed=seed)
        train = generate_dataset(maximin_lhs(50, 6, seed, restarts=5), cfg, reps=5)
        dte = maximin_lhs(50, 6, 1000 + seed, restarts=5)
        clean = plant_response_batch(scale_design(dte, cfg.specs), cfg)
        test = Dataset(cfg.specs, [dte.points] * 3, [clean[:, j] for j in range(3)],
                       1, list(OUTPUT_NAMES))
        fc = FitConfig(lam=0.0, restarts=3, seed=seed)
        mgp = fit(train, RegressionBasis("linear"), fc)
        ind = fit_independent(train, RegressionBasis("linear"), fc)
        r_m, r_i = rmse(mgp, test), rmse(ind, test)
        win = bool(r_m[0] <= r_i[0] and r_m[1] <= r_i[1])
        wins += win
        per_seed.append(win)
    report(2, "MGP <= independent RMSE on HPT and IPT", wins >= 8,
           f"{wins}/10 seeds {per_seed}")


def test_criterion_3_hypersphere_suite():
    rng = np.random.default_rng(0)
    worst_corr_rt = 0.0  # corr -> angles -> corr, any draw
    worst_angle_rt = 0.0  # angles -> corr -> angles, well-conditioned draws
    all_pd = True
    draws = 0
    for k in (2, 3, 5):
        for _ in range(334):
            om = CrossCorrAngles(rng.uniform(1e-3, np.pi - 1e-3, size=n_angles(k)), k)
            t = angles_to_corr(om)
            w = np.linalg.eigvalsh(t.t)
            all_pd &= bool(w.min() > 0.0) and bool(
                np.allclose(np.diag(t.t), 1.0, atol=1e-12)
            )
            t2 = angles_to_corr(corr_to_angles(t))
            worst_corr_rt = max(worst_corr_rt, float(np.max(np.abs(t2.t - t.t))))
            # angle recovery is conditioning-limited near the boundary, so the
            # angle-space leg uses draws away from degenerate correlations
            om_mid = CrossCorrAngles(rng.uniform(0.3, np.pi - 0.3, size=n_angles(k)), k)
            rec = corr_to_angles(angles_to_corr(om_mid))
            worst_angle_rt = max(worst_angle_rt, float(np.max(np.abs(rec.angles - om_mid.angles))))
            draws += 1
    ok = all_pd and worst_corr_rt < 1e-10 and worst_angle_rt < 1e-10
    report(3, "hypersphere PDUDE + round trip", ok,
           f"{draws} draws, corr round trip {worst_corr_rt:.2e}, "
           f"angle round trip {worst_angle_rt:.2e}")


def test_criterion_4_covariance_validity():
    rng = np.random.default_rng(11)
    worst_eig = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(2, 31))
        l = int(rng.integers(1, 4))
        sigma = MarginalSds(rng.uniform(0.5, 2.0, size=k))
        phi = RoughnessParams(rng.uniform(0.1, 20.0, size=(k, l)))
        t = angles_to_corr(CrossCorrAngles(rng.uniform(0.1, np.pi - 0.1, size=n_angles(k)), k))
        xs = [rng.uniform(size=(n, l)) for _ in range(k)]
        w = np.linalg.eigvalsh(cov_matrix(xs, sigma, phi, t, nugget=0.0))
        worst_eig = min(worst_eig, float(w.min() / abs(w).max()))
    worst_norm = 0.0
    for _ in range(200):
        pi = rng.uniform(0.05, 50.0, size=4)
        pj = rng.uniform(0.05, 50.0, size=4)
        worst_norm = max(worst_norm, abs(mean_normalizer(pi, pj) - det_normalizer(pi, pj)))
    ok = worst_eig >= -1e-8 and worst_norm < 1e-12
    report(4, "covariance PSD + normalizer identity", ok,
           f"min relative eigenvalue {worst_eig:.2e}, normalizer diff {worst_norm:.2e}")


def _manual_model(params, data, basis):
    from mgpkit.mgp import _LoglikEngine

    return _LoglikEngine(data, basis).condition(params)


def test_criterion_5_kriging_correctness():
    rng = np.random.default_rng(7)
    basis = RegressionBasis("const")
    # interpolation with zero nugget
    interp_err = 0.0
    for k in (1, 2, 3):
        xs = [rng.uniform(size=(8, 2)) for _ in range(k)]
        ys = [rng.normal(size=8) for _ in range(k)]
        data = Dataset(UNIT_2D, xs, ys, 1, [f"y{i}" for i in range(k)])
        params = MgpParams(
            beta=[rng.normal(size=1) for _ in range(k)],
            sigma=MarginalSds(rng.uniform(0.5, 2.0, size=k)),
            phi=RoughnessParams(rng.uniform(0.5, 5.0, size=(k, 2))),
            omega=CrossCorrAngles(rng.uniform(0.3, np.pi - 0.3, size=n_angles(k)), k),
            nugget=0.0,
        )
        model = _manual_model(params, data, basis)
        for i in range(k):
            for j in range(8):
                rel = abs(predict(model, xs[i][j]).mean[i] - ys[i][j]) / max(1.0, abs(ys[i][j]))
                interp_err = max(interp_err, rel)
    # K=1, lam=0 likelihood vs dense-inverse oracle
    x = rng.uniform(size=(5, 2))
    y = rng.normal(size=5)
    data1 = Dataset(UNIT_2D, [x], [y], 1, ["y"])
    p1 = MgpParams(beta=[np.array([0.3])], sigma=MarginalSds(np.array([1.2])),
                   phi=RoughnessParams(np.array([[2.0, 3.0]])),
                   omega=CrossCorrAngles(np.array([]), 1), nugget=0.2)
    r = cov_matrix([x], p1.sigma, p1.phi, p1.t, nugget=p1.nugget)
    e = y - 0.3
    sign, logdet = np.linalg.slogdet(r)
    oracle = -0.5 * (5 * np.log(2 * np.pi) + logdet + e @ np.linalg.inv(r) @ e)
    ll_err = abs(penalized_loglik(p1, data1, basis) - oracle)
    # T = I joint prediction equals univariate predictions
    xs = [rng.uniform(size=(10, 2)) for _ in range(2)]
    ys = [rng.normal(size=10) for _ in range(2)]
    data2 = Dataset(UNIT_2D, xs, ys, 1, ["a", "b"])
    sigma = MarginalSds(np.array([1.3, 0.9]))
    phi = RoughnessParams(np.array([[2.0, 3.0], [1.0, 4.0]]))
    joint = MgpParams(beta=[np.array([0.2]), np.array([-0.4])], sigma=sigma, phi=phi,
                      omega=CrossCorrAngles(np.array([np.pi / 2]), 2), nugget=0.05)
    jm = _manual_model(joint, data2, basis)
    ident_err = 0.0
    for i in range(2):
        sub = Dataset(UNIT_2D, [xs[i]], [ys[i]], 1, ["y"])
        up = MgpParams(beta=[joint.beta[i]], sigma=MarginalSds(sigma.sigma[[i]]),
                       phi=RoughnessParams(phi.phi[[i]]),
                       omega=CrossCorrAngles(np.array([]), 1), nugget=0.05)
        um = _manual_model(up, sub, basis)
        for x0 in rng.uniform(size=(20, 2)):
            pj, pu = predict(jm, x0), predict(um, x0)
            ident_err = max(ident_err, abs(pj.mean[i] - pu.mean[0]), abs(pj.sd[i] - pu.sd[0]))
    ok = interp_err < 1e-6 and ll_err < 1e-8 and ident_err < 1e-8
    report(5, "kriging correctness", ok,
           f"interp {interp_err:.2e}, loglik {ll_err:.2e}, T=I match {ident_err:.2e}")


def test_criterion_6_l1_screening():
    specs = [InputSpec(f"x{j}", 0.0, 1.0) for j in range(3)]
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = lhs(40, 3, seed=seed).points
        clean = 5.0 + 3.0 * x[:, 0]
        y = (clean[:, None] + 0.3 * rng.normal(size=(40, 3))).ravel()
        data = Dataset(specs, [x], [y], 3, ["y"])
        m = fit(data, RegressionBasis("linear"), FitConfig(lam="auto", restarts=2, seed=seed))
        b = m.params.beta[0]
        bo = beta_original(m)[0]
        hits += bool(b[1] != 0.0 and b[2] == 0.0 and b[3] == 0.0
                     and abs(bo[0] - 5.0) <= 1.0 and abs(bo[1] - 3.0) <= 0.6)
    # lambda >= lambda_max zeroes everything exactly
    rng = np.random.default_rng(99)
    f = rng.normal(size=(20, 4))
    yv = rng.normal(size=20)
    lmax = lambda_max(np.eye(20), f, yv)
    at_max_zero = bool(np.all(gls_beta_l1(np.eye(20), f, yv, lmax) == 0.0))
    report(6, "L1 sparse-pattern recovery", hits >= 8 and at_max_zero,
           f"{hits}/10 seeds, beta=0 at lambda_max: {at_max_zero}")


def test_criterion_7_morris_screening():
    # affine target: exact slopes and zero spread
    specs3 = [InputSpec(n, 0.0, 1.0) for n in ("a", "b", "c")]
    ts = morris_trajectories(10, 3, delta=0.3, seed=0)
    res = elementary_effects(
        lambda x: 4.0 * x[:, 0] - 2.0 * x[:, 1] + 0.5 * x[:, 2], ts, specs3
    )
    affine_ok = bool(
        np.allclose(res.mu_star[0], [4.0, 2.0, 0.5], atol=1e-10)
        and np.all(res.sigma_ee < 1e-10)
    )
    # virtual plant: inlet pressure tops the HPT ranking for every seed
    cfg = PlantConfig(noise_sd=np.zeros(3))
    lo = np.array([s.lower for s in DEFAULT_SPECS])
    hi = np.array([s.upper for s in DEFAULT_SPECS])

    def f(u):
        return plant_response_batch(lo + u * (hi - lo), cfg)

    pressure_first = True
    for seed in range(10):
        trajs = morris_trajectories(10, 6, delta=0.3, seed=seed)
        r = elementary_effects(f, trajs, DEFAULT_SPECS, list(OUTPUT_NAMES))
        pressure_first &= rank_inputs(r, 0)[0] == 0
    report(7, "Morris screening", affine_ok and pressure_first,
           f"affine exact: {affine_ok}, HPT pressure-first all seeds: {pressure_first}")


def test_criterion_8_cli_determinism(tmp_path):
    # the subprocesses import mgpkit from this checkout, as pytest's pythonpath does
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run_all(root):
        root.mkdir()
        env_cmds = [
            ["design", "--n", "8", "--seed", "1", "--restarts", "3",
             "--out", str(root / "d")],
            ["simulate", "--design", str(root / "d_unit.csv"), "--reps", "2",
             "--seed", "1", "--out", str(root / "train.csv")],
            ["fit", "--data", str(root / "train.csv"), "--restarts", "1",
             "--out", str(root / "model.json")],
            ["predict", "--model", str(root / "model.json"),
             "--points", str(root / "d_unit.csv"), "--out", str(root / "pred.csv")],
            ["sensitivity", "--r", "4", "--seed", "2", "--out", str(root / "s")],
        ]
        for cmd in env_cmds:
            proc = subprocess.run([sys.executable, "-m", "mgpkit.cli"] + cmd,
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
        files = ["d_unit.csv", "d_phys.csv", "train.csv", "model.json",
                 "pred.csv", "s_ee.csv", "s_ee_plot.dat"]
        return {f: hashlib.sha256((root / f).read_bytes()).hexdigest() for f in files}

    hashes = [run_all(tmp_path / f"run{i}") for i in range(3)]
    ok = hashes[0] == hashes[1] == hashes[2]
    diff = [f for f in hashes[0] if not (hashes[0][f] == hashes[1][f] == hashes[2][f])]
    report(8, "CLI determinism across 3 runs", ok, f"differing files: {diff}" if diff else "")
