import csv
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from mgpkit.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
import mgpkit.cli
import mgpkit.design
import mgpkit.mgp
from mgpkit.design import (DesignMatrix, InputSpec, lhs, maximin_lhs, morris_trajectories,
                           read_design_csv, scale_design, write_design_csv)
from mgpkit.mgp import model_from_json, predict, predict_batch
from mgpkit.plantsim import DEFAULT_SPECS


def run(argv):
    return main(argv)


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def per_value_csv(header, rows):
    """CSV bytes as csv.writer writes them with every number formatted f"{v:.12g}"."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows([f"{v:.12g}" for v in row] for row in rows)
    return buf.getvalue().encode()


def make_design(workdir, n=8, seed=0, out="d"):
    assert run(["design", "--n", str(n), "--seed", str(seed), "--restarts", "3",
                "--out", str(workdir / out)]) == EXIT_OK
    return workdir / f"{out}_unit.csv", workdir / f"{out}_phys.csv"


def make_dataset(workdir, n=8, reps=2, seed=0, out="train.csv"):
    unit, _ = make_design(workdir, n=n, seed=seed)
    assert run(["simulate", "--design", str(unit), "--reps", str(reps),
                "--seed", str(seed), "--out", str(workdir / out)]) == EXIT_OK
    return workdir / out


def make_model(workdir, out="model.json", extra=()):
    data = make_dataset(workdir)
    assert run(["fit", "--data", str(data), "--restarts", "1",
                "--out", str(workdir / out), *extra]) == EXIT_OK
    return workdir / out


def write_specs(workdir, n):
    """A specs file of the first ``n`` plant inputs, padded with made-up ones."""
    specs = (list(DEFAULT_SPECS) + [InputSpec(f"extra{i}", 0.0, 1.0) for i in range(n)])[:n]
    path = workdir / f"specs{n}.csv"
    path.write_text("".join(f"{s.name},{s.lower},{s.upper}\n" for s in specs))
    return path


class TestTopLevel:
    def test_version(self, capsys):
        assert run(["--version"]) == EXIT_OK
        assert "mgpkit" in capsys.readouterr().out

    def test_no_command_is_usage_error(self):
        assert run([]) == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self):
        assert run(["design", "--n", "4", "--bogus"]) == EXIT_USAGE

    def test_missing_required_is_usage_error(self):
        assert run(["simulate"]) == EXIT_USAGE

    @pytest.mark.parametrize("command", mgpkit.cli.COMMANDS)
    def test_one_subcommands_parser_reads_as_all_six(self, command):
        # the others take no flags, but the top level lists all six as before
        def texts(parser):
            sub = parser._subparsers._group_actions[0].choices[command]
            return [p.format_usage() + p.format_help() for p in (parser, sub)]

        assert texts(mgpkit.cli.build_parser(command)) == texts(mgpkit.cli.build_parser())

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["-h", "fit"], ["--version"], ["bogus"], ["fit", "--bogus"],
        ["design", "--n", "4", "--bogus"], ["predict", "--model", "m.json"], ["predict", "-h"],
        ["--config", "run.cfg", "design", "--n", "4"]], ids=[
        "no-command", "help", "help-before-command", "version", "unknown-command", "unknown-flag",
        "unknown-flag-after-values", "missing-required", "subcommand-help", "unknown-config-key"])
    def test_main_reads_argv_as_with_all_six(self, workdir, capsys, monkeypatch, argv):
        (workdir / "run.cfg").write_text("restartz = 3\n")
        code = run(argv)
        seen = capsys.readouterr()
        full = mgpkit.cli.build_parser
        monkeypatch.setattr(mgpkit.cli, "build_parser", lambda command=None: full())
        assert (code, seen) == (run(argv), capsys.readouterr())
        assert code == (EXIT_DATA if "--config" in argv else
                        EXIT_OK if {"--help", "-h", "--version"} & set(argv) else EXIT_USAGE)


# run in a fresh interpreter, as every command is: this module itself loads scipy.spatial
IMPORT_PROBE = """
import json, sys
from mgpkit.cli import main

def step(argv=None):
    code = main(argv) if argv else 0
    loaded = [m for m in ("scipy.optimize", "scipy.special", "scipy.spatial") if m in sys.modules]
    print("probe", json.dumps([code, sorted(loaded)]))

step()
step(["predict", "--model", "model.json", "--points", "d_unit.csv", "--out", "pred.csv"])
step(["sensitivity", "--target", "model.json", "--r", "2", "--out", "s"])
step(["design", "--n", "6", "--restarts", "2", "--out", "again"])
step(["fit", "--data", "train.csv", "--restarts", "1", "--out", "again.json"])
"""


class TestImports:
    def test_scipy_subpackages_load_where_used(self, workdir):
        make_model(workdir)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                              text=True, env=env, check=True)
        steps = [json.loads(line[6:]) for line in proc.stdout.splitlines()
                 if line.startswith("probe ")]
        # import, predict and sensitivity --target load none of the three
        assert steps[:3] == [[EXIT_OK, []]] * 3
        # scipy.spatial may load scipy.special, and scipy.optimize both
        (design_code, after_design), (fit_code, after_fit) = steps[3:]
        assert design_code == fit_code == EXIT_OK
        assert "scipy.spatial" in after_design and "scipy.optimize" not in after_design
        assert "scipy.optimize" in after_fit


class TestBenchTracer:
    def test_every_wrapped_name_exists(self, monkeypatch):
        # the benchmark's tracer wraps program functions by module attribute; deleting
        # one of them fails here, not only in a traced benchmark run
        path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
        monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
        spec = importlib.util.spec_from_file_location("bench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        fit, tracer = mgpkit.mgp.fit, spans.Tracer()
        try:
            spans.install_mgpkit(tracer, mgpkit)
            assert mgpkit.mgp.fit is not fit
        finally:
            tracer.uninstall()
        assert mgpkit.mgp.fit is fit


class TestDesign:
    def test_writes_unit_and_phys(self, workdir):
        unit, phys = make_design(workdir)
        assert unit.exists() and phys.exists()

    def test_rerun_byte_identical(self, workdir):
        unit, phys = make_design(workdir, out="a")
        h1 = (digest(unit), digest(phys))
        unit2, phys2 = make_design(workdir, out="b")
        assert (digest(unit2), digest(phys2)) == h1

    def test_measures_only_the_candidates_that_improve(self, workdir, monkeypatch, capsys):
        # maximin_lhs sweeps each candidate once, on cdist blocks of rows, and
        # to the end only when it beats the best so far; the logged minimum
        # distance is the winner's, with no sweep after the search
        n, seed, restarts, l = 300, 2, 8, len(DEFAULT_SPECS)
        cands = [lhs(n, l, int(seed if i == 0 else
                               np.random.SeedSequence((seed, i)).generate_state(1)[0])).points
                 for i in range(restarts)]
        mins = [pdist(p).min() for p in cands]
        improves = [d > max(mins[:i], default=-np.inf) for i, d in enumerate(mins)]
        assert 1 < sum(improves) < restarts  # both kinds of candidate occur
        sweep, cdist, entries = mgpkit.design._least_distance, mgpkit.design.cdist, []

        def counted_sweep(points, bound=-np.inf):
            entries.append(0)
            return sweep(points, bound)

        def counted_cdist(a, b):
            entries[-1] += len(a) * len(b)
            return cdist(a, b)

        monkeypatch.setattr("mgpkit.design._least_distance", counted_sweep)
        monkeypatch.setattr("mgpkit.design.cdist", counted_cdist)
        full = []  # each candidate's unbounded sweep
        for p in cands:
            counted_sweep(p)
            full.append(entries.pop())
        assert run(["design", "--n", str(n), "--seed", str(seed), "--restarts", str(restarts),
                    "--out", str(workdir / "d")]) == EXIT_OK
        assert len(entries) == restarts
        assert max(entries) < n * (n - 1) // 2  # no sweep measures every pair
        for swept, in_full, better in zip(entries, full, improves):
            assert swept == in_full if better else swept < in_full  # rejected ones stop early
        assert f"min_distance={max(mins):.6g} " in capsys.readouterr().out

    def test_custom_specs_file(self, workdir, capsys):
        specs = workdir / "specs.csv"
        specs.write_text("name,lower,upper\na,0,1\nb,2,4\n")
        assert run(["design", "--n", "5", "--specs-file", str(specs),
                    "--out", str(workdir / "d")]) == EXIT_OK
        header = (workdir / "d_phys.csv").read_text().splitlines()[0]
        assert header == "a,b"

    def test_bad_specs_file(self, workdir):
        specs = workdir / "specs.csv"
        specs.write_text("a,zero,1\n")
        assert run(["design", "--n", "5", "--specs-file", str(specs),
                    "--out", str(workdir / "d")]) == EXIT_DATA

    @pytest.mark.parametrize("text, row", [
        ("a,0,1,junk\n", "row 1"),  # once read as a, with junk dropped
        ("name,lower,upper\na,0\n", "row 2"),
        ("a,0,1\n,2,4\n", "row 2"),
        ("a,0,1\nb,2,4\na,5,6\n", "row 3"),  # once written as a design with header a,b,a
    ])
    def test_specs_row_of_three_fields_with_a_new_name(self, workdir, capsys, text, row):
        specs = workdir / "specs.csv"
        specs.write_text(text)
        assert run(["design", "--n", "5", "--specs-file", str(specs),
                    "--out", str(workdir / "d")]) == EXIT_DATA
        assert f"bad spec at {row}: expected a name not used before" in capsys.readouterr().err
        assert not (workdir / "d_phys.csv").exists()

    def test_infinite_bound_is_data_error(self, workdir, capsys):
        # once written as inf in every row of d_phys.csv, with exit 0
        specs = workdir / "specs.csv"
        specs.write_text("pressure_mpa,10,inf\ntemperature_k,500,2000\n")
        assert run(["design", "--n", "5", "--specs-file", str(specs),
                    "--out", str(workdir / "d")]) == EXIT_DATA
        assert "input 'pressure_mpa': bounds must be finite" in capsys.readouterr().err
        assert not (workdir / "d_phys.csv").exists()


class TestSimulate:
    def test_produces_dataset(self, workdir):
        data = make_dataset(workdir, n=6, reps=3)
        lines = data.read_text().splitlines()
        assert len(lines) == 1 + 6 * 3

    def test_missing_design_is_data_error(self, workdir):
        assert run(["simulate", "--design", str(workdir / "nope.csv")]) == EXIT_DATA

    def test_header_only_design_is_data_error(self, workdir):
        _, phys = make_design(workdir)
        empty = workdir / "empty.csv"
        empty.write_text(phys.read_text().splitlines()[0] + "\n")
        assert run(["simulate", "--design", str(empty), "--out", str(workdir / "t.csv")]) == EXIT_DATA
        assert not (workdir / "t.csv").exists()

    def test_test_design_pair(self, workdir):
        unit, _ = make_design(workdir, out="tr")
        unit2, _ = make_design(workdir, seed=9, out="te")
        assert run(["simulate", "--design", str(unit), "--test-design", str(unit2),
                    "--out", str(workdir / "train.csv"),
                    "--test-out", str(workdir / "test.csv")]) == EXIT_OK
        assert (workdir / "train.csv").exists() and (workdir / "test.csv").exists()

    @pytest.mark.parametrize("n_specs", [5, 7])
    def test_specs_of_wrong_length_are_data_error(self, workdir, capsys, n_specs):
        specs = write_specs(workdir, n_specs)
        assert run(["design", "--n", "4", "--specs-file", str(specs),
                    "--out", str(workdir / "d")]) == EXIT_OK
        capsys.readouterr()
        assert run(["simulate", "--design", str(workdir / "d_unit.csv"), "--specs-file",
                    str(specs), "--out", str(workdir / "t.csv")]) == EXIT_DATA
        assert f"the plant takes 6 inputs, got {n_specs} input specs" in capsys.readouterr().err
        assert not (workdir / "t.csv").exists()

    def test_rerun_byte_identical(self, workdir):
        a = make_dataset(workdir, out="a.csv")
        h = digest(a)
        b = make_dataset(workdir, out="b.csv")
        assert digest(b) == h


class TestFit:
    def test_writes_model_json(self, workdir, capsys):
        model = make_model(workdir)
        doc = json.loads(model.read_text())
        assert doc["version"] == "mgpkit-model-v1"
        out = capsys.readouterr().out
        assert "cross-correlation" in out and "beta sparsity" in out
        # the penalized log-likelihood after the warm-up and each round
        lls = doc["diagnostics"]["round_loglik"]
        assert len(lls) == 3
        assert ("loglik by search (warm-up when K > 1, then each round): "
                + " ".join(f"{v:.6g}" for v in lls)) in out

    def test_huge_lambda_zeroes_beta(self, workdir, capsys):
        make_model(workdir, extra=("--lambda", "1e9"))
        out = capsys.readouterr().out
        assert "beta sparsity (x=nonzero): 0 0 0" in out

    def test_independent_mode_writes_per_output(self, workdir):
        data = make_dataset(workdir)
        assert run(["fit", "--data", str(data), "--mode", "independent",
                    "--restarts", "1", "--out", str(workdir / "m.json")]) == EXIT_OK
        for nm in ("HPT", "IPT", "LPT"):
            assert (workdir / f"m_{nm}.json").exists()

    @pytest.mark.parametrize("out, template", [
        ("model", "model_{}"),
        ("run.json.d/m.json", "run.json.d/m_{}.json"),
    ])
    def test_independent_mode_names_each_output(self, workdir, out, template):
        # the output name goes before the suffix of the file name only
        data = make_dataset(workdir)
        (workdir / "run.json.d").mkdir()
        assert run(["fit", "--data", str(data), "--mode", "independent",
                    "--restarts", "1", "--out", str(workdir / out)]) == EXIT_OK
        for nm in ("HPT", "IPT", "LPT"):
            doc = json.loads((workdir / template.format(nm)).read_text())
            assert doc["output_names"] == [nm]

    def test_rerun_byte_identical(self, workdir):
        a = make_model(workdir, out="a.json")
        h = digest(a)
        b = make_model(workdir, out="b.json")
        assert digest(b) == h

    def test_missing_data_is_data_error(self, workdir):
        assert run(["fit", "--data", str(workdir / "nope.csv")]) == EXIT_DATA

    @pytest.mark.parametrize("flag, value, setting", [
        ("--restarts", "0", "restarts"),
        ("--lambda", "-1", "lambda"),
        ("--lambda", "inf", "lambda"),
        ("--lambda", "nan", "lambda"),
        ("--lambda", "abc", "lambda"),
    ])
    def test_bad_fit_setting_is_data_error_before_any_search(self, workdir, capsys, monkeypatch,
                                                             flag, value, setting):
        data = make_dataset(workdir)
        searches = []
        monkeypatch.setattr("mgpkit.mgp.minimize", lambda *args, **kwargs: searches.append(1))
        assert run(["fit", "--data", str(data), flag, value,
                    "--out", str(workdir / "m.json")]) == EXIT_DATA
        assert setting in capsys.readouterr().err
        assert searches == []
        assert not (workdir / "m.json").exists()

    def test_rank_deficient_fit_is_numeric_error(self, workdir):
        # 2 points cannot support a quadratic trend basis
        data = make_dataset(workdir, n=2, reps=1)
        assert run(["fit", "--data", str(data), "--basis", "quad",
                    "--restarts", "1", "--out", str(workdir / "m.json")]) == EXIT_NUMERIC


class TestPredict:
    def test_band_columns(self, workdir):
        model = make_model(workdir)
        unit, _ = make_design(workdir, n=5, seed=3, out="pts")
        out = workdir / "pred.csv"
        assert run(["predict", "--model", str(model), "--points", str(unit),
                    "--out", str(out)]) == EXIT_OK
        rows = out.read_text().splitlines()
        header = rows[0].split(",")
        assert "HPT_mean" in header and "LPT_hi" in header
        assert len(rows) == 6
        first = dict(zip(header, map(float, rows[1].split(","))))
        assert first["HPT_lo"] < first["HPT_mean"] < first["HPT_hi"]
        np.testing.assert_allclose(
            first["HPT_hi"] - first["HPT_mean"], 2 * first["HPT_sd"], rtol=1e-9
        )

    def test_files_equal_per_value_csv_writer(self, workdir):
        model_path = make_model(workdir)
        unit, phys = make_design(workdir, n=7, seed=3, out="pts")
        specs = list(DEFAULT_SPECS)
        d = maximin_lhs(7, len(specs), 3, restarts=3)
        assert unit.read_bytes() == per_value_csv([f"u_{s.name}" for s in specs], d.points)
        assert phys.read_bytes() == per_value_csv([s.name for s in specs],
                                                  scale_design(d, specs))

        out = workdir / "pred.csv"
        assert run(["predict", "--model", str(model_path), "--points", str(unit),
                    "--out", str(out)]) == EXIT_OK
        model = model_from_json(model_path.read_text())
        design = read_design_csv(unit, specs)
        mean, sd = predict_batch(model, design.points)
        header = [s.name for s in specs] + [f"{nm}_{col}" for nm in model.data.output_names
                                            for col in ("mean", "sd", "lo", "hi")]
        rows = []
        for i, x in enumerate(scale_design(design, specs)):
            row = list(x)
            for m, s in zip(mean[i], sd[i]):
                row += [m, s, m - 2 * s, m + 2 * s]
            rows.append(row)
        assert out.read_bytes() == per_value_csv(header, rows)

    def _extrapolation_case(self, workdir):
        """A fitted model made rough (phi 200, nugget 0.01), and a points file
        with its first training point and the origin, outside its design."""
        model = make_model(workdir)
        doc = json.loads(model.read_text())
        doc["params"].update(phi=[[200.0] * 6] * 3, nugget=0.01)
        model.write_text(json.dumps(doc))
        points = workdir / "pts.csv"
        write_design_csv(points, DesignMatrix(np.array([doc["training"]["x"][0][0], [0.0] * 6])),
                         DEFAULT_SPECS, unit=True)
        return model, points

    @staticmethod
    def _log_fields(text):
        line = next(ln for ln in text.splitlines() if ln.startswith("[mgpkit] predict "))
        return dict(kv.split("=", 1) for kv in line.split()[2:])

    def test_log_counts_extrapolation(self, workdir, capsys):
        model, points = self._extrapolation_case(workdir)
        capsys.readouterr()
        assert run(["predict", "--model", str(model), "--points", str(points),
                    "--out", str(workdir / "pred.csv")]) == EXIT_OK
        fields = self._log_fields(capsys.readouterr().out)
        # the training point is inside the design, with an sd near the nugget's;
        # the origin is outside it, where the sd is near the prior sd
        assert fields["sd_near_prior"] == "HPT:1,IPT:1,LPT:1"
        assert fields["outside_design"] == "HPT:1,IPT:1,LPT:1"
        assert fields["sd_zero"] == "HPT:0,IPT:0,LPT:0"
        _, sd = predict_batch(model_from_json(model.read_text()),
                              read_design_csv(points, DEFAULT_SPECS).points)
        assert np.all(sd[0] > 0.0)

    def test_log_counts_a_clipped_variance(self, workdir, capsys, monkeypatch):
        model, points = self._extrapolation_case(workdir)

        def clipped(*args, **kwargs):
            mean, sd = predict_batch(*args, **kwargs)
            sd[0, 1] = 0.0  # a variance that rounded below 0 at the training point
            return mean, sd

        monkeypatch.setattr(mgpkit.cli, "predict_batch", clipped)
        capsys.readouterr()
        assert run(["predict", "--model", str(model), "--points", str(points),
                    "--out", str(workdir / "pred.csv")]) == EXIT_OK
        fields = self._log_fields(capsys.readouterr().out)
        assert fields["sd_zero"] == "HPT:0,IPT:1,LPT:0"
        assert fields["sd_near_prior"] == "HPT:1,IPT:1,LPT:1"

    def test_failed_inverse_fails_predict_but_not_screening(self, workdir, capsys, monkeypatch):
        # L⁻¹ is formed at the first variance: loading and screening need none
        model = make_model(workdir)
        unit, _ = make_design(workdir, n=4, seed=3, out="pts")
        monkeypatch.setattr(mgpkit.mgp, "dtrtri", lambda a, lower: (a, 1))
        assert run(["sensitivity", "--target", str(model), "--r", "2",
                    "--out", str(workdir / "s")]) == EXIT_OK
        capsys.readouterr()
        assert run(["predict", "--model", str(model), "--points", str(unit),
                    "--out", str(workdir / "pred.csv")]) == EXIT_NUMERIC
        assert "inverse of the Cholesky factor failed" in capsys.readouterr().err
        assert not (workdir / "pred.csv").exists()

    def test_corrupt_model_is_data_error(self, workdir, capsys):
        bad = workdir / "bad.json"
        unit, _ = make_design(workdir, n=4, out="pts")
        # a JSON true where a number belongs: once read as nugget 1.0, and as a
        # reps count that crashed with a TypeError
        doc = json.loads(make_model(workdir).read_text())
        nugget_true = dict(doc, params=dict(doc["params"], nugget=True))
        reps_true = dict(doc, training=dict(doc["training"], reps=True))
        # json reads NaN and Infinity: a NaN y_scale once gave NaN predictions
        # with exit 0, a NaN lambda loaded, and a NaN nugget failed naming no field
        y_scale_nan = dict(doc, standardization=dict(doc["standardization"],
                                                     y_scale=[float("nan")] * 3))
        x = [list(map(list, xi)) for xi in doc["training"]["x"]]
        x[0][1][2] = float("-inf")
        non_finite = [(dict(doc, params=dict(doc["params"], **{name: value})), name)
                      for name, value in [("nugget", float("nan")), ("lambda", float("nan")),
                                          ("sigma", [1.0, float("inf"), 1.0])]]
        non_finite += [(y_scale_nan, "y_scale"),
                       (dict(doc, training=dict(doc["training"], x=x)), "x"),
                       (dict(doc, specs=[dict(doc["specs"][0], upper=float("inf"))]
                             + doc["specs"][1:]), "upper")]
        # arrays that do not fit K = 3, l = 6 and the const basis: once an IndexError
        # traceback, or numpy's matmul or broadcast message naming no field
        params, std = doc["params"], doc["standardization"]
        misshapen = [(dict(doc, params=dict(params, **{name: value})), name)
                     for name, value in [("sigma", params["sigma"][:2]),
                                         ("phi", params["phi"][:2]),
                                         ("phi", [row[:5] for row in params["phi"]]),
                                         ("beta", params["beta"][:2]),
                                         ("beta", [b * 3 for b in params["beta"]])]]
        misshapen.append((dict(doc, standardization=dict(std, y_scale=std["y_scale"][:2])),
                          "y_scale"))
        ragged_phi = [params["phi"][0][:5]] + params["phi"][1:]
        x5 = [[row[:5] for row in xi] for xi in doc["training"]["x"]]
        # an unknown version, a known version with no other field, and a
        # document that is not an object: each error names what is wrong
        for text, message in [('{"version": "other"}', "unsupported model format: 'other'"),
                              ('{"version": "mgpkit-model-v1"}', "field 'specs' is missing"),
                              ("[]", "field 'version' is missing"),
                              (json.dumps(nugget_true), "field 'nugget' is missing or not a Real"),
                              (json.dumps(reps_true), "field 'reps' is missing or not a int")] + [
                (json.dumps(bad_doc), f"field {name!r} holds a number that is not finite")
                for bad_doc, name in non_finite] + [
                (json.dumps(bad_doc), f"field {name!r} has shape") for bad_doc, name in misshapen] + [
                (json.dumps(dict(doc, params=dict(params, phi=ragged_phi))),
                 "field 'phi' is not an array of numbers"),
                (json.dumps(dict(doc, training=dict(doc["training"], x=x5))),
                 "field 'x' holds a point that is not 6 numbers")]:
            bad.write_text(text)
            capsys.readouterr()
            assert run(["predict", "--model", str(bad), "--points", str(unit)]) == EXIT_DATA
            assert message in capsys.readouterr().err
            assert run(["sensitivity", "--target", str(bad), "--r", "2",
                        "--out", str(workdir / "s")]) == EXIT_DATA
            assert message in capsys.readouterr().err

    def test_replicated_model_with_zero_nugget_is_data_error(self, workdir, capsys):
        # the replicate-SSE term of the likelihood divides by the nugget
        model = make_model(workdir)  # 8 points x 2 reps
        doc = json.loads(model.read_text())
        doc["params"]["nugget"] = 0.0
        model.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="positive nugget"):
            model_from_json(model.read_text())
        unit, _ = make_design(workdir, n=4, seed=3, out="pts")
        assert run(["predict", "--model", str(model), "--points", str(unit)]) == EXIT_DATA
        assert "replicated data requires a positive nugget" in capsys.readouterr().err

    def test_out_of_range_point_is_data_error(self, workdir):
        model = make_model(workdir)
        _, phys = make_design(workdir, n=5, seed=3, out="pts")
        rows = [r.split(",") for r in phys.read_text().splitlines()]
        rows[2][0] = repr(DEFAULT_SPECS[0].upper + 1.0)
        phys.write_text("\n".join(",".join(r) for r in rows) + "\n")
        out = workdir / "pred.csv"
        assert run(["predict", "--model", str(model), "--points", str(phys),
                    "--out", str(out)]) == EXIT_DATA
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda row: ["nan"] + row[1:], "non-finite value at row 3"),
        (lambda row: row[:1] + ["inf"] + row[2:], "non-finite value at row 3"),
        (lambda row: row[:-1], f"row 3 has {len(DEFAULT_SPECS) - 1} values, expected "
                               f"{len(DEFAULT_SPECS)}"),
    ], ids=["nan", "inf", "ragged"])
    def test_bad_point_row_is_data_error(self, workdir, capsys, edit, message):
        model = make_model(workdir)
        unit, _ = make_design(workdir, n=5, seed=3, out="pts")
        rows = [r.split(",") for r in unit.read_text().splitlines()]
        rows[2] = edit(rows[2])
        unit.write_text("\n".join(",".join(r) for r in rows) + "\n")
        out = workdir / "pred.csv"
        assert run(["predict", "--model", str(model), "--points", str(unit),
                    "--out", str(out)]) == EXIT_DATA
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestCompare:
    def test_rmse_table(self, workdir, capsys):
        train = make_dataset(workdir, n=8, seed=0, out="train.csv")
        test = make_dataset(workdir, n=6, seed=4, out="test.csv")
        out = workdir / "cmp.csv"
        assert run(["compare", "--train", str(train), "--test", str(test),
                    "--restarts", "1", "--out", str(out)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "rmse_mgp" in text and "HPT" in text
        rows = out.read_text().splitlines()
        assert rows[0] == "output,rmse_mgp,rmse_independent"
        assert len(rows) == 4

    # a test set with fewer outputs once crashed with an IndexError after two rows, and one
    # with its outputs reordered scored each model against another output's data
    @pytest.mark.parametrize("outputs", [["HPT", "IPT"], ["LPT", "IPT", "HPT"]])
    def test_test_outputs_must_match_training(self, workdir, capsys, outputs):
        train = make_dataset(workdir, n=8, seed=0, out="train.csv")
        with open(make_dataset(workdir, n=6, seed=4, out="test.csv"), newline="") as fh:
            table = list(csv.DictReader(fh))
        test = workdir / "test_cols.csv"
        columns = [s.name for s in DEFAULT_SPECS] + ["rep"] + outputs
        with open(test, "w", newline="") as fh:
            csv.writer(fh).writerows([columns] + [[row[c] for c in columns] for row in table])
        out = workdir / "cmp.csv"
        assert run(["compare", "--train", str(train), "--test", str(test),
                    "--restarts", "1", "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"outputs {outputs} differ from the training outputs ['HPT', 'IPT', 'LPT']" in err
        assert not out.exists()


class TestSensitivity:
    def test_plant_target(self, workdir, capsys):
        assert run(["sensitivity", "--r", "4", "--seed", "1",
                    "--out", str(workdir / "s")]) == EXIT_OK
        assert (workdir / "s_ee.csv").exists()
        assert (workdir / "s_ee_plot.dat").exists()
        text = capsys.readouterr().out
        assert text.startswith("HPT:")

    def test_model_target(self, workdir):
        model = make_model(workdir)
        assert run(["sensitivity", "--target", str(model), "--r", "3",
                    "--out", str(workdir / "sm")]) == EXIT_OK
        assert (workdir / "sm_ee.csv").exists()
        # the statistics equal those of one-point predictions along the same
        # trajectories (the CLI defaults: delta 0.3, seed 0)
        fitted = model_from_json(model.read_text())
        effects = []
        for traj in morris_trajectories(3, 6, delta=0.3, seed=0):
            means = np.array([predict(fitted, pt).mean for pt in traj.points])
            steps = traj.signed_steps()
            per_input = np.empty((3, 6))
            for move, v in enumerate(traj.varied_index):
                per_input[:, v] = (means[move + 1] - means[move]) / steps[move]
            effects.append(per_input)
        effects = np.array(effects)
        with open(workdir / "sm_ee.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for col, want in (("mu", effects.mean(axis=0)), ("mu_star", np.abs(effects).mean(axis=0)),
                          ("sigma", effects.std(axis=0, ddof=1))):
            got = np.array([float(r[col]) for r in rows]).reshape(3, 6)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_rerun_byte_identical(self, workdir):
        run(["sensitivity", "--r", "4", "--out", str(workdir / "a")])
        run(["sensitivity", "--r", "4", "--out", str(workdir / "b")])
        assert digest(workdir / "a_ee.csv") == digest(workdir / "b_ee.csv")

    @pytest.mark.parametrize("n_specs", [5, 7])
    def test_plant_target_with_specs_of_wrong_length_is_data_error(self, workdir, capsys,
                                                                   n_specs):
        assert run(["sensitivity", "--target", "plant", "--r", "2", "--specs-file",
                    str(write_specs(workdir, n_specs)), "--out", str(workdir / "s")]) == EXIT_DATA
        assert f"the plant takes 6 inputs, got {n_specs} input specs" in capsys.readouterr().err
        assert not (workdir / "s_ee.csv").exists()

    def test_plant_target_with_infinite_bound_is_data_error(self, workdir, capsys):
        # once a RuntimeError traceback from the plant's non-finite input
        specs = write_specs(workdir, 6)
        specs.write_text(specs.read_text().replace("pressure_mpa,10.0,35.0", "pressure_mpa,10,inf"))
        assert run(["sensitivity", "--target", "plant", "--r", "2", "--specs-file", str(specs),
                    "--out", str(workdir / "s")]) == EXIT_DATA
        assert "input 'pressure_mpa': bounds must be finite" in capsys.readouterr().err
        assert not (workdir / "s_ee.csv").exists()

    def test_bad_delta_is_data_error(self, workdir):
        assert run(["sensitivity", "--delta", "2.0",
                    "--out", str(workdir / "s")]) == EXIT_DATA


class TestConfigFile:
    def test_config_sets_defaults(self, workdir):
        cfg = workdir / "run.cfg"
        cfg.write_text("n = 6\nseed = 2\nrestarts = 3\n")
        assert run(["--config", str(cfg), "design", "--out", str(workdir / "d")]) == EXIT_OK
        rows = (workdir / "d_unit.csv").read_text().splitlines()
        assert len(rows) == 7

    def test_flags_beat_config(self, workdir):
        cfg = workdir / "run.cfg"
        cfg.write_text("n = 6\n")
        assert run(["--config", str(cfg), "design", "--n", "4", "--restarts", "3",
                    "--out", str(workdir / "d")]) == EXIT_OK
        rows = (workdir / "d_unit.csv").read_text().splitlines()
        assert len(rows) == 5

    @pytest.mark.parametrize("form", [["--config={}"], ["--conf", "{}"]])
    def test_config_read_in_every_argparse_form(self, workdir, form):
        # `--config=file` and an abbreviated flag name the same file as `--config file`
        cfg = workdir / "run.cfg"
        cfg.write_text("restartz = 7\n")
        argv = [f.format(cfg) for f in form]
        assert run([*argv, "design", "--n", "4", "--out", str(workdir / "d")]) == EXIT_DATA
        assert not (workdir / "d_unit.csv").exists()

    def test_missing_config_is_data_error(self, workdir):
        assert run(["--config", str(workdir / "nope.cfg"), "design", "--n", "4"]) == EXIT_DATA

    def test_config_key_names_its_flag(self, workdir, capsys):
        # `lambda` is the flag --lambda, whose argparse dest is `lam`
        data = make_dataset(workdir)
        cfg = workdir / "run.cfg"
        cfg.write_text("lambda = 1e9\n")
        assert run(["--config", str(cfg), "fit", "--data", str(data), "--restarts", "1",
                    "--out", str(workdir / "m.json")]) == EXIT_OK
        assert "beta sparsity (x=nonzero): 0 0 0" in capsys.readouterr().out

    def test_auto_lambda_from_config(self, workdir, capsys):
        # `lambda = auto` selects the trend support; the written model records
        # the selection and predicts
        data = make_dataset(workdir, n=12)
        cfg = workdir / "run.cfg"
        cfg.write_text("lambda = auto\n")
        assert run(["--config", str(cfg), "fit", "--data", str(data), "--basis", "linear",
                    "--restarts", "1", "--out", str(workdir / "m.json")]) == EXIT_OK
        doc = json.loads((workdir / "m.json").read_text())
        diag = doc["diagnostics"]
        assert doc["params"]["lambda"] == 0.0 and diag["lambda"] >= 0.0
        beta = np.concatenate(doc["params"]["beta"])
        assert np.flatnonzero(beta).tolist() == diag["support"]
        assert f"lambda={diag['lambda']}" in capsys.readouterr().out
        unit, _ = make_design(workdir, n=5, seed=3, out="pts")
        assert run(["predict", "--model", str(workdir / "m.json"), "--points", str(unit),
                    "--out", str(workdir / "pred.csv")]) == EXIT_OK
        assert len((workdir / "pred.csv").read_text().splitlines()) == 6

    def test_dashed_config_key_names_its_flag(self, workdir):
        specs = workdir / "specs.csv"
        specs.write_text("a,0,1\nb,0,1\n")
        cfg = workdir / "run.cfg"
        cfg.write_text("specs-file = " + str(specs) + "\n")
        assert run(["--config", str(cfg), "design", "--n", "4", "--restarts", "2",
                    "--out", str(workdir / "d")]) == EXIT_OK
        assert (workdir / "d_phys.csv").read_text().splitlines()[0] == "a,b"

    def test_unknown_config_key_is_data_error(self, workdir):
        cfg = workdir / "run.cfg"
        cfg.write_text("restartz = 3\n")
        assert run(["--config", str(cfg), "design", "--n", "4",
                    "--out", str(workdir / "d")]) == EXIT_DATA
        assert not (workdir / "d_unit.csv").exists()

    def test_malformed_config_is_data_error(self, workdir):
        cfg = workdir / "run.cfg"
        cfg.write_text("just a line\n")
        assert run(["--config", str(cfg), "design", "--n", "4"]) == EXIT_DATA
