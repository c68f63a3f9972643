"""mgpkit benchmark: one workload per process, run from the root of a checkout.

    python3 bench/run.py --workload joint-fit --seed 1 --seconds 50 --trace 0

Every workload drives the user's command-line pipeline in this process
through ``mgpkit.cli.main``: ``fit`` on plant training data, ``design`` of a
held-out query set, ``predict`` on it and ``sensitivity --target model.json``.
The workloads differ in where the load sits (see README.md).  A round runs
the whole pipeline once; rounds repeat on the same inputs until ``--seconds``
is used up.  Each command's output is checked against dense computations in
``checks.py``.  The last line of standard output is the result as JSON.

With ``--trace 1`` the run alternates untraced and traced rounds and reports
per-layer counts and self times per set-up plus one round (see spans.py).
"""

from __future__ import annotations

import os

# BLAS and OpenMP read these when numpy loads; a second BLAS thread on a busy
# 2-core machine made each Cholesky about 30x slower
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 3
DELTA = 0.3

# Covariance parameters of the surrogate-query model, in standardized output
# units (inputs in the unit cube), rounded from a K=3 fit to 40 plant points
# with a linear trend.  phi rows are HPT, IPT, LPT; omega puts corr(HPT, IPT)
# at 0.98 and both correlations with LPT at 0.30.
STATED = {
    "sigma": [0.3, 0.3, 0.12],
    "phi": [[3.0, 0.6, 0.6, 0.01, 1.3, 0.01],
            [1.5, 0.7, 0.7, 0.01, 1.5, 0.01],
            [0.01, 0.01, 1.0, 5.0, 3.5, 4.0]],
    "omega": [0.2, 1.27, 1.54],
    "nugget": 0.015,
}

WORKLOADS = {
    # the paper's model: one K=3 joint fit per training set, whose
    # finite-difference likelihood search does nearly all the work
    "joint-fit": {
        "datasets": 3, "n": 40, "reps": 4,
        "fit": ["--mode", "mgp", "--basis", "linear", "--lambda", "0", "--restarts", "1"],
        "basis": "linear", "query_n": 500, "sens_r": 20, "query_repeats": 2,
    },
    # queries on a model with stated parameters on 100 plant points; the fit
    # step is the independent baseline (three K=1 GPs) on the same points
    "surrogate-query": {
        "datasets": 1, "n": 100, "reps": 2,
        "fit": ["--mode", "independent", "--basis", "linear", "--lambda", "0", "--restarts", "1"],
        "basis": "linear", "query_n": 1000, "sens_r": 50, "query_repeats": 1,
        "stated": True,
    },
}

END_TO_END = {
    "setup_s": "s", "fit_s": "s", "test_rmse_rel": "1", "design_s": "s",
    "predict_points_per_s": "points/s", "sensitivity_s": "s", "peak_rss_mb": "MB",
}

# per-layer metric -> (span counter, unit)
PER_LAYER = {
    "covkernel.cov_matrix.calls": ("covkernel.cov_matrix.calls", "count"),
    "covkernel.cov_matrix.self_s": ("covkernel.cov_matrix.self_s", "s"),
    "covkernel.cross_cov_block.calls": ("covkernel.cross_cov_block.calls", "count"),
    "covkernel.cross_cov_block.self_s": ("covkernel.cross_cov_block.self_s", "s"),
    "mgp.penalized_loglik.calls": ("mgp.penalized_loglik.calls", "count"),
    "mgp.penalized_loglik.self_s": ("mgp.penalized_loglik.self_s", "s"),
    "mgp.penalized_loglik.raised": ("mgp.penalized_loglik.raised", "count"),
    "mgp.cholesky.calls": ("mgp.cholesky.calls", "count"),
    "mgp.cholesky.failed": ("mgp.cholesky.raised", "count"),
    "mgp.cholesky.s": ("mgp.cholesky.s", "s"),
    "mgp.lbfgs.calls": ("mgp.lbfgs.calls", "count"),
    "mgp.lbfgs.nit": ("mgp.lbfgs.nit", "count"),
    "mgp.lbfgs.nfev": ("mgp.lbfgs.nfev", "count"),
    "mgp.lbfgs.self_s": ("mgp.lbfgs.self_s", "s"),
    "mgp.lbfgs.iter_limit_hits": ("mgp.lbfgs.iter_limit_hits", "count"),
    "mgp.fit.calls": ("mgp.fit.calls", "count"),
    "mgp.fit.s": ("mgp.fit.s", "s"),
    "mgp.gls_beta_l1.calls": ("mgp.gls_beta_l1.calls", "count"),
    "mgp.gls_beta_l1.self_s": ("mgp.gls_beta_l1.self_s", "s"),
    "mgp.predict.calls": ("mgp.predict.calls", "count"),
    "mgp.predict_batch.s": ("mgp.predict_batch.s", "s"),
    "mgp.model_from_json.s": ("mgp.model_from_json.s", "s"),
    "sensitivity.elementary_effects.self_s": ("sensitivity.elementary_effects.self_s", "s"),
    "sensitivity.model_evals": ("sensitivity.model_evals", "count"),
    "design.maximin_lhs.s": ("design.maximin_lhs.s", "s"),
    "design.write_design_csv.s": ("design.write_design_csv.s", "s"),
    "design.read_design_csv.s": ("design.read_design_csv.s", "s"),
    "plantsim.generate_dataset.s": ("plantsim.generate_dataset.s", "s"),
    "cli.cmd_fit.self_s": ("cli.cmd_fit.self_s", "s"),
    "cli.cmd_design.self_s": ("cli.cmd_design.self_s", "s"),
    "cli.cmd_predict.self_s": ("cli.cmd_predict.self_s", "s"),
    "cli.cmd_sensitivity.self_s": ("cli.cmd_sensitivity.self_s", "s"),
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment(np, scipy) -> dict:
    src_files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
    }


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_seconds() -> float:
    """Time to import the CLI module in a fresh interpreter: each command pays it."""
    code = ("import time; t = time.perf_counter(); import mgpkit.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


class Bench:
    def __init__(self, args, mgpkit, np, checks):
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.mgpkit, self.np, self.checks = mgpkit, np, checks
        self.work = OUT / f"{args.workload}-seed{args.seed}"
        self.work.mkdir(parents=True, exist_ok=True)
        specs = mgpkit.plantsim.DEFAULT_SPECS
        self.lower = np.array([s.lower for s in specs])
        self.upper = np.array([s.upper for s in specs])
        self.inputs = [s.name for s in specs]
        self.outputs = list(mgpkit.plantsim.OUTPUT_NAMES)
        seq = np.random.SeedSequence([args.seed, sorted(WORKLOADS).index(args.workload)])
        self.seeds = [int(s) for s in seq.generate_state(16)]

    # -- set-up ------------------------------------------------------------

    def setup(self):
        """Training sets (and the stated model) written where the CLI reads them."""
        mgpkit, np, spec = self.mgpkit, self.np, self.spec
        self.train = []
        for i in range(spec["datasets"]):
            path = self.work / f"train{i}.csv"
            data = self._plant_data(spec["n"], spec["reps"],
                                    self.seeds[2 * i], self.seeds[2 * i + 1])
            mgpkit.plantsim.write_dataset_csv(path, data)
            self.train.append((path, data))
        self.query_model = None
        if spec.get("stated"):
            data = self.train[0][1]
            path = self.work / "stated.json"
            path.write_text(json.dumps(self._stated_model(data, spec["basis"])))
            self.query_model = ([path], data, spec["basis"])

    def _plant_data(self, n, reps, design_seed, noise_seed):
        mgpkit = self.mgpkit
        design = mgpkit.design.maximin_lhs(n, len(self.inputs), design_seed, restarts=20)
        return mgpkit.plantsim.generate_dataset(
            design, mgpkit.plantsim.PlantConfig(seed=noise_seed), reps=reps)

    def _stated_model(self, data, basis) -> dict:
        """Model JSON for STATED on `data`, trend by dense GLS at that covariance."""
        np, checks = self.np, self.checks
        y_mean = np.array([yi.mean() for yi in data.y])
        y_scale = np.array([yi.std() for yi in data.y])
        k, width = data.k, checks.basis_matrix(basis, data.x[0][:1]).shape[1]
        doc = {
            "version": self.mgpkit.mgp.MODEL_FORMAT_VERSION,
            "specs": [{"name": s.name, "lower": s.lower, "upper": s.upper} for s in data.specs],
            "basis": basis,
            "output_names": list(data.output_names),
            "params": dict(STATED, beta=[[0.0] * width] * k, **{"lambda": 0.0}),
            "standardization": {"y_mean": y_mean.tolist(), "y_scale": y_scale.tolist()},
            "training": {
                "x": [xi.tolist() for xi in data.x],
                "y": [((yi - m) / s).tolist() for yi, m, s in zip(data.y, y_mean, y_scale)],
                "reps": data.reps,
            },
            "diagnostics": {},
        }
        doc["params"]["t"] = checks.hypersphere_corr(np.array(STATED["omega"]), k).tolist()
        doc["params"]["beta"] = checks.DenseModel(doc).gls_beta().tolist()
        return doc

    # -- one round ---------------------------------------------------------

    def run_round(self) -> dict:
        """Each training set in turn: `mgpkit fit`, then `query_repeats` query stages."""
        rnd = {"attempted": 0, "failed": 0, "problems": [], "commands_s": 0.0, "fit_s": 0.0,
               "design_s": [], "predict": [], "sensitivity_s": [], "rmse_rel": [],
               "vs_trend": []}
        for i, (path, data) in enumerate(self.train):
            fitted = self._fit(rnd, i, path, data)
            for _ in range(self.spec["query_repeats"]):
                self._query_stage(rnd, self.query_model or fitted)
        return rnd

    def _fit(self, rnd, i, path, data):
        """`mgpkit fit` on one training set; returns (model paths, data, basis)."""
        spec = self.spec
        out = self.work / f"model{i}.json"
        secs, ok = self._command(rnd, ["fit", "--data", str(path), *spec["fit"],
                                       "--seed", str(self.args.seed), "--out", str(out)])
        rnd["fit_s"] += secs
        # independent mode writes one K=1 model per output next to --out
        paths = ([out] if "mgp" in spec["fit"] else
                 [self.work / f"model{i}_{nm}.json" for nm in self.outputs])
        if ok:
            self._check(rnd, lambda: [m for p in paths for m in self._check_fit(p)])
        return paths, data, spec["basis"]

    def _query_stage(self, rnd, query_model):
        """`design` of the query set, then `predict` and `sensitivity` with each model file."""
        np, checks, spec = self.np, self.checks, self.spec
        paths, data, basis = query_model
        q = self.work / "query"
        secs, ok = self._command(rnd, ["design", "--n", str(spec["query_n"]),
                                       "--seed", str(self.seeds[12]), "--out", str(q)])
        rnd["design_s"].append(secs)
        q_unit = truth = None
        if ok and self._check(rnd, lambda: checks.check_design(
                f"{q}_unit.csv", f"{q}_phys.csv", spec["query_n"], self.lower, self.upper)):
            q_unit = np.loadtxt(f"{q}_unit.csv", delimiter=",", skiprows=1, ndmin=2)
            truth = self.mgpkit.plantsim.plant_response_batch(
                self.lower + q_unit * (self.upper - self.lower))

        predict_s = sens_s = 0.0
        means = []
        for p_i, model_path in enumerate(paths):
            if q_unit is None:
                self._skip(rnd, 2)
                continue
            pred = self.work / f"pred{p_i}.csv"
            secs, ok = self._command(rnd, ["predict", "--model", str(model_path),
                                           "--points", f"{q}_unit.csv", "--out", str(pred)])
            predict_s += secs
            if ok:
                means.append(self._check(
                    rnd, lambda: self._check_predict(model_path, pred, q_unit)))
            sens = self.work / f"sens{p_i}"
            secs, ok = self._command(
                rnd, ["sensitivity", "--target", str(model_path), "--r", str(spec["sens_r"]),
                      "--delta", str(DELTA), "--seed", str(self.seeds[13]), "--out", str(sens)])
            sens_s += secs
            if ok:
                self._check(rnd, lambda: self._check_sensitivity(model_path, sens))
        if len(means) == len(paths) and all(m is not None for m in means):
            rel, rel_trend = self._test_rmse(np.hstack(means), truth, data, basis, q_unit)
            rnd["rmse_rel"].append(float(rel.mean()))
            rnd["vs_trend"].append({"model": rel.tolist(), "least_squares": rel_trend.tolist()})
        if predict_s > 0:
            rnd["predict"].append((len(paths) * spec["query_n"], predict_s))
        rnd["sensitivity_s"].append(sens_s)

    def _command(self, rnd, argv):
        """One CLI command in this process; (wall seconds, succeeded)."""
        rnd["attempted"] += 1
        buf = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = self.mgpkit.cli.main(argv)
        except Exception:
            code = None
            buf.write(traceback.format_exc())
        secs = perf_counter() - start
        rnd["commands_s"] += secs
        if code != 0:
            rnd["failed"] += 1
            rnd["problems"].append(
                f"mgpkit {' '.join(argv)} -> exit {code}: {buf.getvalue()[-2000:]}")
        return secs, code == 0

    def _skip(self, rnd, n):
        """Commands that cannot run because an earlier one failed count as failed."""
        rnd["attempted"] += n
        rnd["failed"] += n

    def _check(self, rnd, fn):
        """Run a check returning (problems, value) or problems; a problem fails the command."""
        try:
            res = fn()
        except Exception:
            res = [traceback.format_exc()]
        problems, value = res if isinstance(res, tuple) else (res, None)
        if problems:
            rnd["failed"] += 1
            rnd["problems"].extend(problems)
            rnd["wrong"] = True
            return None
        return True if value is None else value

    def _check_fit(self, path):
        doc = json.loads(Path(path).read_text())
        problems = self.checks.check_corr_matrix(doc)
        problems += self.checks.check_loglik(doc, self.checks.DenseModel(doc))
        return problems

    def _check_predict(self, model_path, pred_path, q_unit):
        checks = self.checks
        doc = json.loads(Path(model_path).read_text())
        names = doc["output_names"]
        phys, mean, sd, lo, hi = checks.read_predictions(pred_path, len(self.inputs), names)
        problems = checks.check_predictions(checks.DenseModel(doc), q_unit, mean, sd, lo, hi)
        if not self.np.allclose(phys, self.lower + q_unit * (self.upper - self.lower),
                                rtol=1e-9, atol=0.0):
            problems.append("predicted points differ from the query design")
        return problems, mean

    def _check_sensitivity(self, model_path, sens):
        checks = self.checks
        doc = json.loads(Path(model_path).read_text())
        traj = self.mgpkit.design.morris_trajectories(
            self.spec["sens_r"], len(self.inputs), delta=DELTA, seed=self.seeds[13])
        report = checks.read_ee_report(f"{sens}_ee.csv")
        return checks.check_sensitivity(checks.DenseModel(doc), report,
                                        [t.points for t in traj], doc["output_names"],
                                        self.inputs)

    def _test_rmse(self, pred, truth, data, basis, q_unit):
        """Relative test RMSE per output of the model and of least squares on its trend basis.

        The comparison is recorded, not checked: a joint fit on 30 points x 5 reps
        predicted HPT worse than least squares on some training sets.
        """
        np, checks = self.np, self.checks
        x_obs = np.repeat(data.x[0], data.reps, axis=0)
        ols = np.column_stack([checks.trend_least_squares(basis, x_obs, yi, q_unit)
                               for yi in data.y])
        return checks.rmse_rel(pred, truth), checks.rmse_rel(ols, truth)


def run(args) -> dict:
    t_import = perf_counter()
    import numpy as np
    import scipy

    sys.path.insert(0, str(SRC))
    import mgpkit.cli  # loads every layer
    import checks
    import spans
    t_import = perf_counter() - t_import

    env = environment(np, scipy)
    print(json.dumps({"env": env}), flush=True)
    bench = Bench(args, mgpkit, np, checks)
    tracer = spans.Tracer() if args.trace else None

    if tracer:
        spans.install_mgpkit(tracer, mgpkit)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        bench.setup()
        setup_times.append(import_seconds() + perf_counter() - start)
    at_setup = tracer.snapshot() if tracer else None

    rounds = []
    start = perf_counter()
    while True:
        trace_this = bool(tracer) and len(rounds) % 2 == 1
        if tracer:
            tracer.uninstall()
            if trace_this:
                spans.install_mgpkit(tracer, mgpkit)
        t0 = perf_counter()
        rnd = bench.run_round()
        rnd["round_s"] = perf_counter() - t0
        rnd["traced"] = trace_this
        rounds.append(rnd)
        typical = statistics.median(r["round_s"] for r in rounds)
        enough = not tracer or any(r["traced"] for r in rounds)
        if enough and perf_counter() - start + typical > args.seconds:
            break
    if tracer:
        tracer.uninstall()

    wrong = any(r.get("wrong") for r in rounds)
    result = {
        "correct": not wrong,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
    }
    if tracer:
        result["metrics"] = layer_metrics(tracer, at_setup, rounds)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl.gz")
    else:
        result["metrics"] = end_to_end_metrics(setup_times, rounds)
    record = dict(result, env=env, args=vars(args), import_s=t_import, setup_s=setup_times,
                  rounds=rounds)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    return result


def end_to_end_metrics(setup_times, rounds) -> dict:
    """Query-command timings are pooled over every query stage of the run.

    On a shared 2-core machine the same command ran at full speed or at about
    half speed from one second to the next, so a pooled figure over the whole
    run moved less between runs than a median or a minimum of its stages.
    Set-up and fit times are medians over their repeats; a round's test RMSE
    is the mean over its training sets (each query stage adds one).
    """
    def pooled(key):
        return [v for r in rounds for v in r[key]] or [float("nan")]

    points = sum(n for r in rounds for n, _ in r["predict"])
    predict_s = sum(t for r in rounds for _, t in r["predict"])
    values = {
        "setup_s": statistics.median(setup_times),
        "fit_s": statistics.median(r["fit_s"] for r in rounds),
        "test_rmse_rel": statistics.median(
            [statistics.fmean(r["rmse_rel"]) for r in rounds if r["rmse_rel"]] or [float("nan")]),
        "design_s": statistics.fmean(pooled("design_s")),
        "predict_points_per_s": points / predict_s if predict_s else float("nan"),
        "sensitivity_s": statistics.fmean(pooled("sensitivity_s")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}


def layer_metrics(tracer, at_setup, rounds) -> dict:
    """Per set-up plus one traced round; the overhead compares traced and untraced rounds."""
    total = tracer.snapshot()
    n_traced = sum(r["traced"] for r in rounds)
    metrics = {}
    for name, (key, unit) in PER_LAYER.items():
        setup_part = at_setup.get(key, 0) / SETUP_REPEATS
        round_part = (total.get(key, 0) - at_setup.get(key, 0)) / n_traced
        value = setup_part + round_part
        if unit == "count" and float(value).is_integer():
            value = int(value)
        metrics[name] = {"value": value, "unit": unit}

    traced = statistics.median(r["commands_s"] for r in rounds if r["traced"])
    plain = statistics.median(r["commands_s"] for r in rounds if not r["traced"])
    metrics["trace.overhead_s"] = {"value": traced - plain, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mgpkit" / "__init__.py").is_file():
        print(f"error: no mgpkit sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    result = run(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
