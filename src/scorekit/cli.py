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
    _config_path,
    _parse_estimator,
    _Problem,
    emit_plot,
    load_experiment_config,
    read_config,
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


def _command_config(args):
    """The subcommand's JSON config, read by bench.read_config, and
    path(key): bench._config_path of the file named under key."""
    data = read_config(args.command, path=args.config)
    return data, lambda key: _config_path(data, key, os.path.dirname(args.config))


# ======================================================================
# fit
# ======================================================================

def _cmd_fit(args) -> None:
    data, path = _command_config(args)
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
    try:  # a fit that exits 0 predicts finite scores at its samples
        predict(est, X)
    except NumericError as exc:
        raise NumericError(f"at the samples: {exc}") from None
    save_estimator(est, args.out)


# ======================================================================
# predict
# ======================================================================

def _cmd_predict(args) -> None:
    data, path = _command_config(args)
    est = load_estimator(path("estimator"))
    Q = load_samples_csv(path("queries"))
    scores = predict(est, Q)
    save_samples_csv(scores, args.out)


# ======================================================================
# experiments and plotting
# ======================================================================

def _experiment_config(args):
    cfg = load_experiment_config(args.config)
    return cfg if args.seed is None else replace(cfg, seeds=(args.seed,))


def _cmd_grid_exp(args) -> None:
    run_grid_experiment(_experiment_config(args), args.out, threads=args.threads)


def _cmd_conv_exp(args) -> None:
    run_convergence_experiment(_experiment_config(args), args.out, threads=args.threads)


def _cmd_plot(args) -> None:
    data, path = _command_config(args)
    opts = {"x_field": data.get("x", "M")}
    for key, default in (("log_x", False), ("log_y", False), ("title", "")):
        opts[key] = data.get(key, default)
        if type(opts[key]) is not type(default):
            want = "a string" if key == "title" else "true or false"
            raise InputError(f"config.{key}: expected {want}")
    svg = emit_plot(path("input"), **opts)
    with atomic_open(args.out, "w", newline="") as f:
        f.write(svg)


# ======================================================================
# entry point
# ======================================================================

def _build_parser() -> _Parser:
    parser = _Parser(prog="scorekit",
                     description="score-estimation benchmark harness")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    seed = ("--seed", dict(type=int, default=None, help=(
        "seed override (fit: subset draws; experiments: replaces the config seed list)")))
    threads = ("--threads", dict(type=int, default=1, help="worker threads for the sweep"))
    # each subcommand takes only the flags it reads
    specs = (
        ("fit", _cmd_fit, "fit an estimator from a samples CSV", (seed,)),
        ("predict", _cmd_predict, "evaluate a saved estimator on queries", ()),
        ("grid-exp", _cmd_grid_exp, "run a hyperparameter sweep", (seed, threads)),
        ("conv-exp", _cmd_conv_exp, "run a convergence-rate experiment", (seed, threads)),
        ("plot", _cmd_plot, "render a summary CSV as an SVG chart", ()),
    )
    for name, fn, help_text, flags in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output path")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
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
        if getattr(args, "threads", 1) < 1:
            raise InputError("--threads must be >= 1")
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise InputError("--seed must be >= 0")
        args.fn(args)
        return 0
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
