"""Command-line entry point.

Subcommands (``COMMANDS``): optimize (four schemes at the configured error
bound), sweep-eps, sweep-users, converge, validate-config.  A run is fully
described by (config file, master seed): sweep grids and optimizer settings
live in the config, with --override for ad-hoc tweaks.  The effective config
is echoed to a sidecar JSON next to the CSV so every output is reproducible
from its own directory.  --threads N runs the searches' work units in up to N
forked worker processes (in [1, 64], and no more than the work units or the
CPUs the run may use); the output bytes do not depend on it.

Exit codes: 0 success, 1 usage error (including an --out that cannot be
written), 2 config error.  Progress goes to stderr; stdout carries
machine-parsable key=value summary lines only.
"""

import argparse
import dataclasses
import json
import os
import sys

from . import experiments
from .config import (ConfigError, RunConfig, apply_overrides, load_run_config,
                     run_config_from_dict)

USAGE_ERROR = 1
CONFIG_ERROR = 2
MAX_THREADS = 64


class _ArgumentParser(argparse.ArgumentParser):
    """argparse variant that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _int_in(lo, hi, shown):
    """An argparse type: an integer in [lo, hi], the range written as ``shown``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must be in {shown}, got {value}")
        return value
    return parse


def _out(text):
    """--out value: a file path whose CSV and sidecar are not directories."""
    for path in (text, _sidecar_path(text)):
        if not os.path.basename(path) or os.path.isdir(path):
            raise argparse.ArgumentTypeError(f"must name a file, not a directory: {path!r}")
    return text


class _WriteError(Exception):
    """An output file could not be written."""


def _build_parser():
    parser = _ArgumentParser(prog="pinchsim",
                             description="Fairness-oriented design of a "
                                         "pinching-antenna NOMA downlink")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        if name != "validate-config":
            p.add_argument("--out", type=_out, default=f"{name}.csv",
                           help="output CSV path")
            p.add_argument("--seed", type=_int_in(0, 2 ** 64 - 1, "[0, 2**64)"), default=1234,
                           help="master seed, in [0, 2**64)")
            p.add_argument("--realizations", type=int, default=None,
                           help="override the configured realization count")
            p.add_argument("--threads", default=1,
                           type=_int_in(1, MAX_THREADS, f"[1, {MAX_THREADS}]"),
                           help=f"most worker processes, in [1, {MAX_THREADS}]; the "
                                "output does not depend on it")
            p.add_argument("--override", action="append", default=[],
                           metavar="KEY=VALUE",
                           help="config override, repeatable; dotted keys "
                                "address the pso/experiments sections")
    return parser


def _load_effective_config(args) -> tuple[RunConfig, dict]:
    """The config file, which must validate on its own, with its overrides applied."""
    run = load_run_config(args.config)
    doc = run.to_dict()
    overrides = list(getattr(args, "override", []))
    if getattr(args, "realizations", None) is not None:
        overrides.append(f"experiments.realizations={args.realizations}")
    if overrides:
        doc = apply_overrides(doc, overrides)
        run = run_config_from_dict(doc)
        doc = run.to_dict()
    return run, doc


def _sidecar_path(out_path):
    stem = out_path[:-4] if out_path.endswith(".csv") else out_path
    return stem + ".config.json"


def _emit(out_path, csv_text, effective_doc):
    """Write the CSV and its sidecar, or neither."""
    written = []
    for path, text in ((out_path, csv_text),
                       (_sidecar_path(out_path),
                        json.dumps(effective_doc, indent=2, sort_keys=True) + "\n")):
        try:
            experiments.write_text_atomic(path, text)
        except OSError as exc:
            for done in written:
                os.unlink(done)
            raise _WriteError(f"cannot write {path}: {exc.strerror or exc}") from None
        written.append(path)
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


def _cmd_optimize(args):
    """A one-point sweep-eps at the configured error bound."""
    run, doc = _load_effective_config(args)
    settings = dataclasses.replace(run.experiments, eps_grid=(run.system.csi_eps,))
    records = experiments.sweep_epsilon(run.system, run.pso, settings, args.seed,
                                        workers=args.threads)
    _emit(args.out, experiments.records_to_csv_text(records), doc)
    _summarize(records)


def _cmd_sweep(args, sweep):
    run, doc = _load_effective_config(args)
    records = sweep(run.system, run.pso, run.experiments, args.seed,
                    progress=_progress, workers=args.threads)
    _emit(args.out, experiments.records_to_csv_text(records), doc)
    _summarize(records)


def _cmd_converge(args):
    run, doc = _load_effective_config(args)
    traces = experiments.convergence_trace(run.system, run.pso,
                                           run.experiments.realizations,
                                           args.seed, progress=_progress,
                                           workers=args.threads)
    _emit(args.out, experiments.convergence_to_csv_text(traces), doc)
    for scheme in traces.fitness:
        final = traces.rescored_min_sinr[scheme][-1]
        print(f"scheme={scheme} final_mean_min_sinr_db={experiments.to_db(final):.9g}")


# subcommand -> (help, handler); sweeps are looked up when called, so wrappers apply
COMMANDS = {
    "optimize": ("run all four schemes at the configured error bound", _cmd_optimize),
    "sweep-eps": ("sweep the estimate-error bound grid",
                  lambda args: _cmd_sweep(args, experiments.sweep_epsilon)),
    "sweep-users": ("sweep the user-count grid",
                    lambda args: _cmd_sweep(args, experiments.sweep_users)),
    "converge": ("aggregate optimizer traces across realizations", _cmd_converge),
    "validate-config": ("check a config file and exit", _cmd_validate),
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        COMMANDS[args.command][1](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except _WriteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
