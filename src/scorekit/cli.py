"""Command-line interface.

Subcommands: fit, predict, grid-exp, conv-exp, plot. Every subcommand is
config-driven: --config names a JSON file, --out the artifact to write.
Exit codes: 0 success, 1 input error (bad flags, bad config, bad files),
2 numeric failure (singular systems, non-convergence, overflow).
"""

import argparse
import os
import sys
from dataclasses import replace

from .atomic import atomic_open
from .bench import (
    REGISTRY,
    _check_keys,
    _load_json_object,
    _parse_estimator,
    _Problem,
    emit_plot,
    load_experiment_config,
    run_convergence_experiment,
    run_grid_experiment,
)
from .errors import InputError, NumericError
from .estimators import load_estimator, predict, save_estimator
from .oracles import load_samples_csv, save_samples_csv


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; our contract reserves 2
    # for numeric failures, so usage problems are rethrown as input errors
    def error(self, message):
        raise InputError(message)


def _command_config(args, keys):
    """The subcommand's JSON config, of schema 1 and no key beyond keys, and
    path(key): the file named under key, relative to the config's folder."""
    data = _load_json_object(args.config, "config")
    _check_keys(data, ("schema_version",) + keys, "config")
    if data.get("schema_version") != 1:
        raise InputError("config: 'schema_version' must be 1")

    def path(key):
        if not isinstance(data[key], str) or not data[key]:
            raise InputError(f"config.{key}: expected a file path string")
        return os.path.join(os.path.dirname(args.config), data[key])
    return data, path


# ======================================================================
# fit
# ======================================================================

def _cmd_fit(args) -> int:
    data, path = _command_config(args, ("samples", "estimator"))
    if "samples" not in data or "estimator" not in data:
        raise InputError("config: fit needs 'samples' and 'estimator'")
    X = load_samples_csv(path("samples"))
    entry = _parse_estimator(data["estimator"], "config.estimator")
    fit = REGISTRY[entry.id].fit
    if fit is None:
        raise InputError("the oracle is not a fittable estimator")
    if len(entry.grid) != 1:
        raise InputError("fit config must pin exactly one hyperparameter "
                         f"point, got a grid of {len(entry.grid)}")
    problem = _Problem(X, (entry,), 0 if args.seed is None else args.seed)
    est = fit(problem, entry, problem.spec(entry), 0)
    del problem  # its Gram must not outlive the fit
    save_estimator(est, args.out)
    return 0


# ======================================================================
# predict
# ======================================================================

def _cmd_predict(args) -> int:
    data, path = _command_config(args, ("estimator", "queries"))
    if "estimator" not in data or "queries" not in data:
        raise InputError("config: predict needs 'estimator' and 'queries'")
    est = load_estimator(path("estimator"))
    Q = load_samples_csv(path("queries"))
    scores = predict(est, Q)
    save_samples_csv(scores, args.out)
    return 0


# ======================================================================
# experiments and plotting
# ======================================================================

def _experiment_config(args):
    cfg = load_experiment_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seeds=(args.seed,))
    return cfg


def _cmd_grid_exp(args) -> int:
    run_grid_experiment(_experiment_config(args), args.out, threads=args.threads)
    return 0


def _cmd_conv_exp(args) -> int:
    run_convergence_experiment(_experiment_config(args), args.out,
                               threads=args.threads)
    return 0


def _cmd_plot(args) -> int:
    data, path = _command_config(args, ("input", "x", "log_x", "log_y", "title"))
    if "input" not in data:
        raise InputError("config: plot needs 'input' (a summary CSV path)")
    for key in ("log_x", "log_y"):
        if key in data and not isinstance(data[key], bool):
            raise InputError(f"config.{key}: expected true or false")
    svg = emit_plot(path("input"),
                    x_field=data.get("x", "M"),
                    log_x=bool(data.get("log_x", False)),
                    log_y=bool(data.get("log_y", False)),
                    title=str(data.get("title", "")))
    with atomic_open(args.out, "w", newline="") as f:
        f.write(svg)
    return 0


# ======================================================================
# entry point
# ======================================================================

def _build_parser() -> _Parser:
    parser = _Parser(prog="scorekit",
                     description="score-estimation benchmark harness")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    specs = (
        ("fit", _cmd_fit, "fit an estimator from a samples CSV"),
        ("predict", _cmd_predict, "evaluate a saved estimator on queries"),
        ("grid-exp", _cmd_grid_exp, "run a hyperparameter sweep"),
        ("conv-exp", _cmd_conv_exp, "run a convergence-rate experiment"),
        ("plot", _cmd_plot, "render a summary CSV as an SVG chart"),
    )
    for name, fn, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output path")
        p.add_argument("--seed", type=int, default=None,
                       help="seed override (fit: subset draws; experiments: "
                            "replaces the config seed list)")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for experiment sweeps")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "fn", None) is None:
            parser.print_usage(sys.stderr)
            print("scorekit: error: a subcommand is required", file=sys.stderr)
            return 1
        if args.threads < 1:
            raise InputError("--threads must be >= 1")
        if args.seed is not None and args.seed < 0:
            raise InputError("--seed must be >= 0")
        return args.fn(args)
    except InputError as exc:
        print(f"scorekit: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"scorekit: error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"scorekit: numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
