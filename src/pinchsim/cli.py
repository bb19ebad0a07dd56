"""Command-line entry point.

Subcommands: optimize (four schemes at the configured error bound),
sweep-eps, sweep-users, converge, validate-config.  A run is fully described
by (config file, master seed): sweep grids and optimizer settings live in
the config, with --override for ad-hoc tweaks.  The effective config is
echoed to a sidecar JSON next to the CSV so every output is reproducible
from its own directory.

Exit codes: 0 success, 1 usage error, 2 config error.  Progress goes to
stderr; stdout carries machine-parsable key=value summary lines only.
"""

import argparse
import dataclasses
import json
import sys

from . import experiments
from .config import (ConfigError, RunConfig, apply_overrides, load_run_config,
                     run_config_from_dict)

USAGE_ERROR = 1
CONFIG_ERROR = 2


class _ArgumentParser(argparse.ArgumentParser):
    """argparse variant that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _build_parser():
    parser = _ArgumentParser(prog="pinchsim",
                             description="Fairness-oriented design of a "
                                         "pinching-antenna NOMA downlink")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("optimize", "run all four schemes at the configured error bound"),
            ("sweep-eps", "sweep the estimate-error bound grid"),
            ("sweep-users", "sweep the user-count grid"),
            ("converge", "aggregate optimizer traces across realizations"),
            ("validate-config", "check a config file and exit")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        if name != "validate-config":
            p.add_argument("--out", default=f"{name}.csv", help="output CSV path")
            p.add_argument("--seed", type=int, default=1234, help="master seed")
            p.add_argument("--realizations", type=int, default=None,
                           help="override the configured realization count")
            p.add_argument("--threads", type=int, default=1,
                           help="accepted for compatibility and ignored; "
                                "realizations always run serially")
            p.add_argument("--override", action="append", default=[],
                           metavar="KEY=VALUE",
                           help="config override, repeatable; dotted keys "
                                "address the pso/experiments sections")
    return parser


def _load_effective_config(args) -> tuple[RunConfig, dict]:
    run = load_run_config(args.config)
    doc = run.to_dict()
    overrides = getattr(args, "override", [])
    if overrides:
        doc = apply_overrides(doc, overrides)
        run = run_config_from_dict(doc)
        doc = run.to_dict()
    if getattr(args, "realizations", None) is not None:
        if args.realizations < 1:
            raise ConfigError(f"realizations must be >= 1, got {args.realizations}")
        run = RunConfig(system=run.system, pso=run.pso,
                        experiments=dataclasses.replace(
                            run.experiments, realizations=args.realizations))
        doc = run.to_dict()
    return run, doc


def _sidecar_path(out_path):
    stem = out_path[:-4] if out_path.endswith(".csv") else out_path
    return stem + ".config.json"


def _emit(out_path, csv_text, effective_doc):
    experiments.write_text_atomic(out_path, csv_text)
    experiments.write_text_atomic(_sidecar_path(out_path),
                                  json.dumps(effective_doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}", file=sys.stderr)


def _progress(message):
    print(message, file=sys.stderr)


def _summarize(records):
    for (value, scheme), mean_db in experiments.aggregate_mean_db(records).items():
        var = records[0].sweep_var
        print(f"sweep_var={var} sweep_value={value:.9g} scheme={scheme} "
              f"mean_min_sinr_db={mean_db:.9g}")


def _cmd_validate(args):
    run, _ = _load_effective_config(args)
    sys_cfg = run.system
    print(f"config=ok num_users={sys_cfg.num_users} num_pas={sys_cfg.num_pas} "
          f"waveguide_len={sys_cfg.waveguide_len:.9g} csi_eps={sys_cfg.csi_eps:.9g}")
    return 0


def _cmd_optimize(args):
    """A one-point sweep-eps at the configured error bound."""
    run, doc = _load_effective_config(args)
    settings = dataclasses.replace(run.experiments, eps_grid=(run.system.csi_eps,))
    records = experiments.sweep_epsilon(run.system, run.pso, settings, args.seed)
    _emit(args.out, experiments.records_to_csv_text(records), doc)
    _summarize(records)
    return 0


def _cmd_sweep(args, which):
    run, doc = _load_effective_config(args)
    fn = experiments.sweep_epsilon if which == "eps" else experiments.sweep_users
    records = fn(run.system, run.pso, run.experiments, args.seed,
                 progress=_progress)
    _emit(args.out, experiments.records_to_csv_text(records), doc)
    _summarize(records)
    return 0


def _cmd_converge(args):
    run, doc = _load_effective_config(args)
    traces = experiments.convergence_trace(run.system, run.pso,
                                           run.experiments.realizations,
                                           args.seed, progress=_progress)
    _emit(args.out, experiments.convergence_to_csv_text(traces), doc)
    for scheme in traces.fitness:
        final = traces.rescored_min_sinr[scheme][-1]
        print(f"scheme={scheme} final_mean_min_sinr_db={experiments.to_db(final):.9g}")
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        if args.command == "validate-config":
            return _cmd_validate(args)
        if args.command == "optimize":
            return _cmd_optimize(args)
        if args.command == "sweep-eps":
            return _cmd_sweep(args, "eps")
        if args.command == "sweep-users":
            return _cmd_sweep(args, "users")
        if args.command == "converge":
            return _cmd_converge(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
