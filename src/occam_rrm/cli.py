"""Command line front end: `run` an experiment config, `sweep` a parameter,
`advise` a technique, `plot` a figure. Exit codes: 0 success, 2 config
error, 3 runtime error. Numpy's floating-point warnings are silenced: a
non-finite result that matters raises NumericalError instead."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .advisor import ProblemTraits, advise, usecase_traits
from .errors import ConfigError, OccamRrmError
from .experiments import ExperimentConfig, load_config, run_experiment, sweep
from .plots import PLOT_KINDS, emit_plot

EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME = 0, 2, 3


class _Parser(argparse.ArgumentParser):
    """A usage error is a config error: one stderr line and exit 2, from
    the subcommand parsers too, which are made of this class."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _common_flags() -> argparse.ArgumentParser:
    # SUPPRESS keeps values set before the subcommand from being clobbered
    # by subparser defaults, so the flags work in either position.
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="replace the config's seed list with this single seed")
    p.add_argument("--out-dir", default=argparse.SUPPRESS,
                   help="override the config's outputs directory")
    p.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                   help="suppress progress text (files are still written)")
    p.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                   help="parallel (solver, seed) cells; default $OCCAM_RRM_JOBS or 1")
    return p


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = _Parser(prog="occam-rrm", parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", parents=[common], help="run an experiment config")
    run_p.add_argument("config", help="experiment JSON config path")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", parents=[common], help="sweep one config parameter")
    sweep_p.add_argument("config")
    sweep_p.add_argument("--param", required=True,
                         help="dotted config path, e.g. env.hysteresis")
    sweep_p.add_argument("--values", required=True,
                         help="JSON list of values, e.g. '[0, 2, 4, 6]'")
    sweep_p.set_defaults(func=cmd_sweep)

    advise_p = sub.add_parser("advise", parents=[common], help="recommend a technique")
    advise_p.add_argument("--traits", help="JSON object of ProblemTraits booleans")
    advise_p.add_argument("--use-case", help="one of SC, BF, ES, PC, LA, HO, AC")
    advise_p.add_argument("--variant", default="default")
    advise_p.set_defaults(func=cmd_advise)

    plot_p = sub.add_parser("plot", parents=[common], help="emit an SVG figure")
    plot_p.add_argument("input", help="summary.json or sweep.csv path")
    plot_p.add_argument("--kind", required=True, choices=PLOT_KINDS)
    plot_p.add_argument("--out", required=True, help="output SVG path")
    plot_p.set_defaults(func=cmd_plot)
    return parser


def _refuse(args, *names) -> None:
    """Refuse the common flags among `names` given, in either position, to
    a command that would ignore them."""
    given = ", ".join("--" + name.replace("_", "-") for name in names if hasattr(args, name))
    if given:
        raise ConfigError(f"{args.command} does not take {given}")


def _load_with_overrides(args):
    """The config with --out-dir and --seed in place of its outputs and
    seeds, checked as the file's own values are."""
    cfg = load_config(args.config)
    out_dir, seed = getattr(args, "out_dir", None), getattr(args, "seed", None)
    if out_dir is None and seed is None:
        return cfg
    raw = cfg.to_dict()
    if out_dir is not None:
        raw["outputs"] = out_dir
    if seed is not None:
        raw["seeds"] = [seed]
    return ExperimentConfig.from_dict(raw)


def cmd_run(args) -> int:
    cfg = _load_with_overrides(args)
    summary_path = run_experiment(cfg, jobs=getattr(args, "jobs", None))
    if not getattr(args, "quiet", False):
        summary = json.loads(summary_path.read_text())
        for label in sorted(summary["solvers"]):
            metrics = summary["solvers"][label]["metrics"]
            stats = " ".join(f"{k}={v:.6g}" for k, v in sorted(metrics.items()))
            print(f"{label}: {stats}")
        print(f"summary: {summary_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_with_overrides(args)
    try:
        values = json.loads(args.values)
    except ValueError as exc:  # also an int past 4300 digits
        raise ConfigError(f"--values is not valid JSON: {exc}") from exc
    if not isinstance(values, list):
        raise ConfigError("--values must be a JSON list")
    sweep_path = sweep(cfg, args.param, values, jobs=getattr(args, "jobs", None))
    if not getattr(args, "quiet", False):
        print(f"sweep: {sweep_path}")
    return EXIT_OK


def cmd_advise(args) -> int:
    _refuse(args, "seed", "jobs", "out_dir")
    if args.traits is not None:
        try:
            data = json.loads(args.traits)
        except ValueError as exc:
            raise ConfigError(f"--traits is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("--traits must be a JSON object")
        known = {f.name for f in fields(ProblemTraits)}
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown trait keys {sorted(extra)}; known: {sorted(known)}")
        traits = ProblemTraits(**{k: bool(v) for k, v in data.items()})
    elif args.use_case is not None:
        traits = usecase_traits(args.use_case, args.variant)
    else:
        raise ConfigError("advise needs --traits or --use-case")
    rec = advise(traits)
    if not getattr(args, "quiet", False):
        print(rec.render())
    print(json.dumps({
        "technique": rec.technique,
        "solver_hint": rec.solver_hint,
        "path": [list(step) for step in rec.path],
    }))
    return EXIT_OK


def cmd_plot(args) -> int:
    _refuse(args, "seed", "jobs")
    out = getattr(args, "out_dir", None)
    if out == "":
        raise ConfigError("--out-dir must be a nonempty path")
    out_path = args.out if out is None else Path(out) / args.out  # an absolute --out wins
    written = emit_plot(args.input, args.kind, out_path)
    if not getattr(args, "quiet", False):
        print(f"plot: {written}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OccamRrmError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
