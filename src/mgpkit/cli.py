"""Command-line front end: design, simulate, fit, predict, compare, sensitivity.

Exit codes: 0 success, 2 usage error, 3 data/parse error, 4 numerical failure.
A plain key=value config file can seed any flag default; explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .design import (
    DesignMatrix,
    InputSpec,
    format_csv_rows,
    maximin_lhs,
    morris_trajectories,
    read_design_csv,
    scale_design,
    write_design_csv,
)
from .mgp import (
    FitConfig,
    FitError,
    RegressionBasis,
    fit,
    fit_independent,
    model_from_json,
    model_to_json,
    predict_batch,
    rmse,
    MODEL_FORMAT_VERSION,
)
from .plantsim import (
    DEFAULT_SPECS,
    OUTPUT_NAMES,
    PlantConfig,
    generate_dataset,
    plant_response_batch,
    read_dataset_csv,
    write_dataset_csv,
)
from .sensitivity import ee_plot_data, ee_ranking_text, ee_report, elementary_effects

COMMANDS = ("design", "simulate", "fit", "predict", "compare", "sensitivity")
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class DataError(Exception):
    pass


def _load_specs(path) -> list:
    if path is None:
        return list(DEFAULT_SPECS)
    specs = []
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].startswith("#") or row[0] == "name":
                continue
            if len(row) != 3 or not row[0] or row[0] in {s.name for s in specs}:
                raise DataError(f"{path}: bad spec at row {i}: expected a name not used before, "
                                f"a lower and an upper bound, got {row}")
            try:
                specs.append(InputSpec(row[0], float(row[1]), float(row[2])))
            except ValueError as exc:
                raise DataError(f"{path}: bad spec at row {i}: {exc}") from exc
    if not specs:
        raise DataError(f"{path}: no input specs found")
    return specs


def _load_config_file(path) -> dict:
    values = {}
    with open(path) as fh:
        for i, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}: line {i}: expected key=value")
            key, val = (s.strip() for s in line.split("=", 1))
            values[key.replace("-", "_")] = val.strip("\"'")
    return values


def _apply_config(parser: argparse.ArgumentParser, values: dict) -> None:
    """Make each config key the default of the flag it names in every subcommand.

    Keys are flag names with '-' read as '_' (``specs_file`` sets
    ``--specs-file``, ``lambda`` sets ``--lambda``); argparse converts the
    values with each flag's own type.  A key that names no flag is a DataError.
    """
    used = set()
    for sub in parser._subparsers._group_actions[0].choices.values():
        flags = {opt[2:].replace("-", "_"): a for a in sub._actions
                 if not isinstance(a, argparse._HelpAction) for opt in a.option_strings}
        hits = {key: flags[key] for key in values if key in flags}
        sub.set_defaults(**{a.dest: values[key] for key, a in hits.items()})
        for a in hits.values():
            a.required = False
        used.update(hits)
    unknown = sorted(set(values) - used)
    if unknown:
        raise DataError(f"unknown config key(s): {', '.join(unknown)}")


def _log(cmd: str, **kv) -> None:
    tail = " ".join(f"{k}={v}" for k, v in kv.items())
    print(f"[mgpkit] {cmd} {tail}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_design(args) -> int:
    specs = _load_specs(args.specs_file)
    d = maximin_lhs(args.n, len(specs), args.seed, restarts=args.restarts)
    write_design_csv(f"{args.out}_unit.csv", d, specs, unit=True)
    write_design_csv(f"{args.out}_phys.csv", d, specs, unit=False)
    _log("design", n=args.n, dims=len(specs), seed=args.seed, restarts=args.restarts,
         min_distance=f"{d.min_distance():.6g}", out=args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    specs = _load_specs(args.specs_file)
    config = PlantConfig(
        specs=specs,
        noise_sd=args.noise,
        coupling=args.coupling,
        seed=args.seed,
    )
    design = read_design_csv(args.design, specs)
    data = generate_dataset(design, config, reps=args.reps)
    write_dataset_csv(args.out, data)
    _log("simulate", design=args.design, reps=args.reps, coupling=args.coupling,
         seed=args.seed, rows=design.n * args.reps, out=args.out)
    if args.test_design:
        test_design = read_design_csv(args.test_design, specs)
        test_cfg = PlantConfig(specs=specs, noise_sd=config.noise_sd,
                               coupling=args.coupling, seed=args.seed + 1)
        test = generate_dataset(test_design, test_cfg, reps=args.reps)
        write_dataset_csv(args.test_out, test)
        _log("simulate", design=args.test_design, seed=args.seed + 1, out=args.test_out)
    return EXIT_OK


def _fit_config(args) -> FitConfig:
    try:
        lam = float(args.lam)
    except ValueError:
        lam = args.lam  # "auto"; any other text FitConfig rejects, naming the setting
    return FitConfig(lam=lam, restarts=args.restarts, seed=args.seed)


def _print_corr(model, heading: str) -> None:
    print(heading)
    for row in model.params.t.t:
        print("  " + " ".join(f"{v:+.4f}" for v in row))


def _print_fit_report(model, name: str) -> None:
    print(f"model={name} loglik={model.diagnostics['loglik']:.6g} "
          f"lambda={model.diagnostics.get('lambda', model.params.lam)}")
    lls = " ".join(f"{v:.6g}" for v in model.diagnostics["round_loglik"])
    print(f"loglik by search (warm-up when K > 1, then each round): {lls}")
    _print_corr(model, "estimated cross-correlation matrix:")
    pattern = ["".join("0" if b == 0.0 else "x" for b in bo) for bo in model.params.beta]
    print(f"beta sparsity (x=nonzero): {' '.join(pattern)}")


def cmd_fit(args) -> int:
    specs = _load_specs(args.specs_file)
    data = read_dataset_csv(args.data, specs)
    basis = RegressionBasis(args.basis)
    config = _fit_config(args)
    if args.mode == "mgp":
        model = fit(data, basis, config)
        with open(args.out, "w") as fh:
            fh.write(model_to_json(model))
        _print_fit_report(model, args.out)
    else:
        models = fit_independent(data, basis, config)
        out = Path(args.out)
        for i, m in enumerate(models):
            # model.json -> model_HPT.json; the output name goes before the suffix
            path = str(out.with_name(f"{out.stem}_{data.output_names[i]}{out.suffix}"))
            with open(path, "w") as fh:
                fh.write(model_to_json(m))
            _print_fit_report(m, path)
    _log("fit", data=args.data, mode=args.mode, basis=args.basis, seed=args.seed)
    return EXIT_OK


def cmd_predict(args) -> int:
    with open(args.model) as fh:
        model = model_from_json(fh.read())
    specs = model.data.specs
    design = read_design_csv(args.points, specs)
    mean, sd = predict_batch(model, design.points)
    names = model.data.output_names
    header = [s.name for s in specs]
    for nm in names:
        header += [f"{nm}_mean", f"{nm}_sd", f"{nm}_lo", f"{nm}_hi"]
    bands = np.stack([mean, sd, mean - 2 * sd, mean + 2 * sd], axis=2).reshape(design.n, -1)
    with open(args.out, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.write(format_csv_rows(np.hstack([scale_design(design, specs), bands])))
    # extrapolation, per output: sds over 0.9 of the prior sd, points outside the range of
    # the output's training design in any input, and sds of 0 (variances clipped at 0)
    prior_sd = model.y_scale * np.sqrt(model.params.sigma.sigma ** 2 + model.params.nugget)
    outside = np.column_stack([np.any((design.points < xi.min(axis=0))
                                      | (design.points > xi.max(axis=0)), axis=1)
                               for xi in model.data.x])
    flags = {"sd_near_prior": sd > 0.9 * prior_sd, "outside_design": outside, "sd_zero": sd == 0.0}
    _log("predict", model=args.model, points=args.points, rows=design.n, out=args.out,
         **{key: ",".join(f"{nm}:{n}" for nm, n in zip(names, f.sum(axis=0)))
            for key, f in flags.items()})
    return EXIT_OK


def cmd_compare(args) -> int:
    specs = _load_specs(args.specs_file)
    train = read_dataset_csv(args.train, specs)
    test = read_dataset_csv(args.test, specs)
    if test.output_names != train.output_names:
        raise DataError(f"{args.test}: outputs {test.output_names} differ from the training "
                        f"outputs {train.output_names}")
    basis = RegressionBasis(args.basis)
    config = _fit_config(args)
    mgp_model = fit(train, basis, config)
    indep = fit_independent(train, basis, config)
    rmse_mgp = rmse(mgp_model, test)
    rmse_ind = rmse(indep, test)
    print("output        rmse_mgp      rmse_independent")
    for i, nm in enumerate(train.output_names):
        print(f"{nm:<12} {rmse_mgp[i]:<13.6g} {rmse_ind[i]:.6g}")
    _print_corr(mgp_model, "estimated cross-correlation matrix (MGP):")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["output", "rmse_mgp", "rmse_independent"])
            for i, nm in enumerate(train.output_names):
                w.writerow([nm, f"{rmse_mgp[i]:.12g}", f"{rmse_ind[i]:.12g}"])
    _log("compare", train=args.train, test=args.test, seed=args.seed)
    return EXIT_OK


def cmd_sensitivity(args) -> int:
    specs = _load_specs(args.specs_file)
    if args.target == "plant":
        cfg = PlantConfig(specs=specs, noise_sd=np.zeros(3), coupling=args.coupling)

        def f(u):
            return plant_response_batch(scale_design(DesignMatrix(u), specs), cfg)

        names = list(OUTPUT_NAMES)
    else:
        with open(args.target) as fh:
            model = model_from_json(fh.read())
        specs = model.data.specs
        names = list(model.data.output_names)

        def f(u):
            return predict_batch(model, u, sd=False)[0]

    trajectories = morris_trajectories(args.r, len(specs), delta=args.delta, seed=args.seed)
    result = elementary_effects(f, trajectories, specs, output_names=names)
    with open(f"{args.out}_ee.csv", "w") as fh:
        fh.write(ee_report(result))
    with open(f"{args.out}_ee_plot.dat", "w") as fh:
        fh.write(ee_plot_data(result))
    print(ee_ranking_text(result))
    _log("sensitivity", target=args.target, r=args.r, delta=args.delta, seed=args.seed,
         out=args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def build_parser(command: str = None) -> argparse.ArgumentParser:
    """Every subcommand's parser, or ``command``'s alone: usage, help and errors read the same."""
    parser = argparse.ArgumentParser(
        prog="mgpkit",
        description="Multi-output GP surrogate toolkit for the virtual power plant benchmark.",
    )
    parser.add_argument("--version", action="version",
                        version=f"mgpkit {__version__} (model format {MODEL_FORMAT_VERSION})")
    parser.add_argument("--config", help="key=value file supplying flag defaults")
    # usage names the six as argparse does from their parsers; with those, no metavar: it
    # would replace "command" in the error for a missing one
    names = "{" + ",".join(COMMANDS) + "}" if command in COMMANDS else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=names)

    def add(name, help_):  # a parser, or only a line of the help when another is built alone
        if command not in COMMANDS or name == command:
            return sub.add_parser(name, help=help_)
        sub._choices_actions.append(sub._ChoicesPseudoAction(name, (), help_))

    if p := add("design", "generate a maximin LHS design"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--restarts", type=int, default=20)
        p.add_argument("--specs-file", default=None)
        p.add_argument("--out", default="design")
        p.set_defaults(func=cmd_design)
    if p := add("simulate", "run the virtual plant on a design"):
        p.add_argument("--design", required=True)
        p.add_argument("--test-design", default=None)
        p.add_argument("--reps", type=int, default=1)
        p.add_argument("--noise", type=float, default=None)
        p.add_argument("--coupling", type=float, default=1.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--specs-file", default=None)
        p.add_argument("--out", default="train.csv")
        p.add_argument("--test-out", default="test.csv")
        p.set_defaults(func=cmd_simulate)
    if p := add("fit", "fit the MGP or independent GPs"):
        p.add_argument("--data", required=True)
        p.add_argument("--basis", choices=["const", "linear", "quad"], default="const")
        p.add_argument("--lambda", dest="lam", default="0")
        p.add_argument("--restarts", type=int, default=5)
        p.add_argument("--mode", choices=["mgp", "independent"], default="mgp")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--specs-file", default=None)
        p.add_argument("--out", default="model.json")
        p.set_defaults(func=cmd_fit)
    if p := add("predict", "predict mean and 2-sd band at new points"):
        p.add_argument("--model", required=True)
        p.add_argument("--points", required=True)
        p.add_argument("--out", default="predictions.csv")
        p.set_defaults(func=cmd_predict)
    if p := add("compare", "MGP vs independent-GP test RMSE"):
        p.add_argument("--train", required=True)
        p.add_argument("--test", required=True)
        p.add_argument("--basis", choices=["const", "linear", "quad"], default="const")
        p.add_argument("--lambda", dest="lam", default="0")
        p.add_argument("--restarts", type=int, default=2)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--specs-file", default=None)
        p.add_argument("--out", default=None)
        p.set_defaults(func=cmd_compare)
    if p := add("sensitivity", "Morris elementary-effects screening"):
        p.add_argument("--target", default="plant", help="'plant' or a model JSON path")
        p.add_argument("--r", type=int, default=10)
        p.add_argument("--delta", type=float, default=0.3)
        p.add_argument("--coupling", type=float, default=1.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--specs-file", default=None)
        p.add_argument("--out", default="sensitivity")
        p.set_defaults(func=cmd_sensitivity)

    return parser


def _preparse(argv: list) -> tuple:
    """The top-level --config value and the subcommand, read as the full parser reads
    them (``--config=f`` and abbreviations such as ``--conf f`` included)."""
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    pre.add_argument("command", nargs=argparse.REMAINDER)  # subcommand flags are not ours
    try:
        args = pre.parse_known_args(argv)[0]
    except argparse.ArgumentError:
        return None, None  # a malformed --config is left for the full parser to report
    return args.config, args.command[0] if args.command else None


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # --config is read first so its values become flag defaults (flags still win); as
        # its keys may name any subcommand's flags, all six are built then
        cfg_path, command = _preparse(argv)
        parser = build_parser(command if cfg_path is None else None)
        if cfg_path is not None:
            _apply_config(parser, _load_config_file(cfg_path))
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    except (OSError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    try:
        return args.func(args)
    except (DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FitError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
