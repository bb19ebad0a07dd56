#!/usr/bin/env python3
"""Golden outputs of the command line, stored in tests/golden/.

Usage: python3 tools/golden.py [--write]

Runs every case of ``CASES`` in this process, with the package under src/,
through ``pinchsim.cli.main`` at seed 7 on tests/golden/small.json (8
particles, 10 iterations, 2 realizations, eps grid 0, 0.1 and k grid 1, 2,
3), and keeps each run's CSV, config sidecar and stdout.  Without --write it
compares them with the stored files: each sidecar exactly, and each CSV and
stdout field by field (fields split at commas, '=' and blanks), a field that
reads as a decimal number with a point or an exponent at ``RTOL`` relative
and every other field, integers such as seeds and iterations included,
exactly.  It runs every case at --threads 1 and 2, prints one line per
file that differs and per file in tests/golden/ that no case writes, and
exits 1 on any.  With --write it stores the outputs at --threads 1 in place
of the old ones; the outputs do not depend on the thread count.  A change
that regenerates the goldens states in CHANGES.md which of them moved and
why.  ``tests/test_golden.py`` runs the same comparison.

The cases, drawn from ``tools/byte_identity.sh``'s matrix, cover every
subcommand that writes a CSV: both score modes, a mixed error-bound grid
with a repeat and a zero bound, a zero-bound converge (where both PSO
schemes are one search), a one-user grid point (k grid 1, 2, 3), a packed
guide (N = 5, min_spacing 2.5 on L = 10, so (N - 1) * min_spacing = L), and
at K = 8, N = 16, O = 8, where the kernel's row bound is 64, a converge and
a 40-point sweep-eps of one-particle swarms.  The sweep's 160 rows a
realization are scored in three kernel calls, and its two realizations are
two work units; so are sweep-users' three grid points, and both fork
workers at --threads 2.

The CSVs print 9 significant digits, so ``RTOL`` passes a change in the
last bits of a value that moves no decision of the search, and trips on any
change to the model or the search.  The goldens were written and checked on
one host and numpy build.  Last-bit noise from another CPU's numpy dispatch
can flip a comparison of two particles' fitness and so move a search's
whole trajectory; a failure on another host alone calls for regenerating
the goldens there, recorded in CHANGES.md, not for a looser ``RTOL``.
``tools/byte_identity.sh`` and ``tools/kernel_identity.py`` check bits
against a parent revision on one host; the goldens hold the numbers across
revisions.
"""

import argparse
import contextlib
import io
import math
import pathlib
import re
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CONFIG = GOLDEN / "small.json"
RTOL = 1e-7
SUFFIXES = (".csv", ".config.json", ".stdout")
# a number as "%.9g" prints it, with a point or an exponent
_DECIMAL = re.compile(r"-?\d+(\.\d+(e[-+]\d+)?|e[-+]\d+)")

_WIDE = ["--override", "num_users=8", "--override", "num_pas=16",
         "--override", "obstacle_count=8"]
_GRID40 = ["--override", "experiments.eps_grid=[%s]" % ",".join(
    f"{0.02 * i:.2f}" for i in range(40))]
_MIXED = ["--override", "experiments.eps_grid=[0.2,0.0,0.1,0.1]"]
_SAMPLED = ["--override", "experiments.score_mode=true_sampled"]

# name -> subcommand and its arguments, without --config, --seed, --out and --threads
CASES = {
    "optimize": ["optimize"],
    "sweep_eps_mixed": ["sweep-eps", *_MIXED],
    "sweep_eps_mixed_sampled": ["sweep-eps", *_MIXED, *_SAMPLED],
    "sweep_eps_packed": ["sweep-eps", "--override", "num_pas=5",
                         "--override", "min_spacing=2.5"],
    "sweep_users": ["sweep-users"],
    "sweep_users_sampled": ["sweep-users", *_SAMPLED],
    "converge": ["converge"],
    "converge_zero_bound": ["converge", "--override", "csi_eps=0"],
    "wide_sweep_eps_split": ["sweep-eps", *_WIDE, "--override", "pso.num_particles=1",
                             "--override", "pso.max_iters=2", *_GRID40],
    "wide_converge_split": ["converge", *_WIDE, "--override", "pso.max_iters=20"],
}


def run(name, threads, directory):
    """The CSV, sidecar and stdout of case ``name`` at ``threads`` workers,
    by file suffix, written under ``directory``."""
    from pinchsim import cli

    command, *args = CASES[name]
    out = pathlib.Path(directory) / f"{name}.csv"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = cli.main([command, "--config", str(CONFIG), *args, "--seed", "7",
                           "--out", str(out), "--threads", str(threads)])
    if status:
        raise RuntimeError(f"case {name} exited {status}: {stderr.getvalue().strip()}")
    return dict(zip(SUFFIXES, (out.read_text(), out.with_suffix(".config.json").read_text(),
                               stdout.getvalue())))


def outputs(threads):
    """Each (golden path, text) of every case's outputs at ``threads`` workers."""
    with tempfile.TemporaryDirectory() as directory:
        for name in CASES:
            for suffix, text in run(name, threads, directory).items():
                yield GOLDEN / (name + suffix), text


def first_difference(got, want):
    """None when ``got`` matches ``want`` field by field, else the first pair
    of fields that differ."""
    got_fields, want_fields = re.split(r"([,=\s])", got), re.split(r"([,=\s])", want)
    if len(got_fields) != len(want_fields):
        return f"{len(got_fields)} fields, expected {len(want_fields)}"
    for a, b in zip(got_fields, want_fields):
        if a != b and not (_DECIMAL.fullmatch(a) and _DECIMAL.fullmatch(b)
                           and math.isclose(float(a), float(b), rel_tol=RTOL)):
            return f"{a!r}, expected {b!r}"
    return None


def differences(threads):
    """One line per stored file that the outputs at ``threads`` workers do not match."""
    found = []
    for path, text in outputs(threads):
        if not path.exists():
            diff = "missing"
        elif path.name.endswith(".config.json"):
            diff = None if text == path.read_text() else "differs"
        else:
            diff = first_difference(text, path.read_text())
        if diff:
            found.append(f"{path.name} at --threads {threads}: {diff}")
    return found


def strays():
    """One line per file in tests/golden/ that no case writes."""
    written = {CONFIG.name} | {name + suffix for name in CASES for suffix in SUFFIXES}
    return [f"{path.name}: written by no case" for path in sorted(GOLDEN.iterdir())
            if path.name not in written]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="store the outputs as goldens")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.write:
        for path, text in outputs(1):
            path.write_text(text)
        print(f"wrote the outputs of {len(CASES)} cases to {GOLDEN}")
        return 0
    found = strays() + differences(1) + differences(2)
    print("\n".join(found) or f"identical: {len(CASES)} cases at --threads 1 and 2")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
