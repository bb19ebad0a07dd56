#!/usr/bin/env python3
"""The command line's cases, and the golden outputs of some in tests/golden/.

Usage: python3 tools/golden.py [--write]

``CASES`` is the one table of command-line runs.  ``run`` runs a case in
this process, with the importable pinchsim, through ``pinchsim.cli.main``,
at seed 7 and with an --out in a given directory where the subcommand takes
them.  A case's exit code follows from its name: 2 for refuse_* and
validate_refused, 1 for usage_*, 0 for the rest.  ``tools/identity.py``
runs every case with the package of the working tree and of a revision and
compares the bytes; ``tests/test_golden.py`` checks that every case parses
and loads its config or exits with its code.

The cases cover every subcommand: validate-config on a file that validates
and on one that does not, a usage error, and every subcommand that writes a
CSV, in both score modes, on tests/golden/small.json (8 particles, 10
iterations, 2 realizations, eps grid 0, 0.1, k grid 1, 2, 3, so a one-user
grid point) and on configs/example.json.  Among them: mixed error-bound
grids with repeats and a zero bound (with and without leakage, and in
true_sampled mode, whose scoring calls mix the rows' bounds); zero-bound
converges (both PSO schemes are one search); 8-realization runs searched in
more than one stacked chunk; 8 and 9 users on 9 antennas, where numpy's sums
over a power block turn pairwise; a packed guide (N = 5, min_spacing 2.5 on
L = 10, so (N - 1) * min_spacing = L).  The wide_* cases run at K = 8,
N = 16, O = 8, whose row bound of 64 splits scoring into several kernel
calls: 40-point sweeps of one-particle swarms, converges, and a 36-point
sweep of 2-particle swarms, whose realizations take lockstep calls of 32 and
4 swarms.  Cases ending in _t2 or _t3 pass --threads 2 or 3 and split into
several work units (one realization a chunk in the wide ones), so they run
in worker processes.  The refuse_* cases
pass bad overrides to optimize, one per kind of config error message (a
type, each kind of domain end, each grid's entries, every cross-field rule,
size cap and key check, a 401-digit num_pas, eta_i one float above its
domain's end); two more, at --threads 2, are refused at run time: a
sweep-users whose first point overflows, before any progress line, and a
converge whose mean min-SINR underflows, after both realizations' lines.

The outputs of the ``GOLDEN`` cases are stored in tests/golden/.  This tool
runs them at --threads 1 and 2 and compares each sidecar exactly, and each
CSV and stdout (less its exit line) field by field, split at commas, '='
and blanks: decimal numbers with a point or an exponent at ``RTOL``
relative, every other field, seeds included, exactly.  It prints one line
per file that differs or that no case uses, and exits 1 on any.  --write
stores the outputs at --threads 1 instead; a change that does so states in
CHANGES.md which goldens moved and why.

The CSVs print 9 significant digits, so ``RTOL`` passes a change in the
last bits of a value that moves no decision of the search, and trips on any
change to the model or the search.  The goldens were written and checked on
one host and numpy build.  Last-bit noise from another CPU's numpy dispatch
can flip a comparison of two particles' fitness and so move a search's
whole trajectory; a failure on another host alone calls for regenerating
the goldens there, recorded in CHANGES.md, not for a looser ``RTOL``.
``tools/identity.py`` checks bits against a parent revision on one host;
the goldens hold the numbers across revisions.
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
STORED = ROOT / "tests" / "golden"
CONFIGS = {"SMALL": STORED / "small.json", "REFUSED": STORED / "refused.json",
           "EXAMPLE": ROOT / "configs" / "example.json"}  # refused.json: csi_eps 1
RTOL = 1e-7
SUFFIXES = (".csv", ".config.json", ".stdout")
# a number as "%.9g" prints it, with a point or an exponent
_DECIMAL = re.compile(r"-?\d+(\.\d+(e[-+]\d+)?|e[-+]\d+)")

_WIDE = "--override num_users=8 --override num_pas=16 --override obstacle_count=8"
_GRID40 = "--override experiments.eps_grid=[%s]" % ",".join(f"{0.02 * i:.2f}"
                                                             for i in range(40))
_GRID36 = "--override experiments.eps_grid=[%s]" % ",".join(f"{0.01 * i:.2f}"
                                                             for i in range(36))
_MIXED = "--override experiments.eps_grid=[0.2,0.0,0.1,0.1]"
_SAMPLED = "--override experiments.score_mode=true_sampled"
_K8_9 = "--override experiments.k_grid=[8,9] --override num_pas=9"
_SPLIT = f"{_WIDE} --override pso.num_particles=1 --override pso.max_iters=2 {_GRID40}"
_EX = "--config EXAMPLE"
_BIG = "1" + "0" * 400

# name -> subcommand and its arguments, split at blanks, without --seed and
# --out; SMALL, EXAMPLE and REFUSED stand for the paths in CONFIGS
_ROWS = {
    "validate_ok": "validate-config --config SMALL",
    "validate_refused": "validate-config --config REFUSED",
    "usage_threads": "sweep-eps --config SMALL --threads 0",
    "example_sweep_eps": f"sweep-eps {_EX} --realizations 10",
    "example_sweep_users_sampled": f"sweep-users {_EX} --realizations 4 {_SAMPLED}",
    "example_optimize": f"optimize {_EX} --realizations 2",
    "example_sweep_users": f"sweep-users {_EX} --realizations 2",
    "example_converge": f"converge {_EX} --realizations 2",
    "example_sweep_users_r8": f"sweep-users {_EX} --realizations 8",
    "example_converge_r8": f"converge {_EX} --realizations 8",
    "example_converge_zero_bound": f"converge {_EX} --realizations 2 --override csi_eps=0",
    "example_sweep_eps_mixed": f"sweep-eps {_EX} --realizations 2 {_MIXED}",
    "example_sweep_eps_mixed_no_leakage":
        f"sweep-eps {_EX} --realizations 3 --override eta_r=0 {_MIXED}",
    "example_sweep_eps_mixed_sampled": f"sweep-eps {_EX} --realizations 2 {_MIXED} {_SAMPLED}",
    "optimize": "optimize --config SMALL",
    "small_sweep_eps": "sweep-eps --config SMALL",
    "sweep_eps_mixed": f"sweep-eps --config SMALL {_MIXED}",
    "sweep_eps_mixed_sampled": f"sweep-eps --config SMALL {_MIXED} {_SAMPLED}",
    "sweep_users": "sweep-users --config SMALL",
    "sweep_users_sampled": f"sweep-users --config SMALL {_SAMPLED}",
    "converge": "converge --config SMALL",
    "converge_zero_bound": "converge --config SMALL --override csi_eps=0",
    "sweep_eps_packed": "sweep-eps --config SMALL --override num_pas=5 --override min_spacing=2.5",
    "small_sweep_users_k8_9": f"sweep-users --config SMALL {_K8_9}",
    "small_sweep_users_k8_9_sampled": f"sweep-users --config SMALL {_K8_9} {_SAMPLED}",
    "wide_sweep_eps_split": f"sweep-eps --config SMALL {_SPLIT}",
    "wide_converge_split": f"converge --config SMALL {_WIDE} --override pso.max_iters=20",
    "wide_example_converge_split": f"converge {_EX} --realizations 6 {_WIDE} "
                                   "--override pso.num_particles=8 --override pso.max_iters=60",
    "wide_example_sweep_eps_split": f"sweep-eps {_EX} --realizations 2 {_SPLIT}",
    "wide_example_sweep_eps_span": f"sweep-eps {_EX} --realizations 2 {_WIDE} "
                                   f"--override pso.num_particles=2 --override pso.max_iters=2 "
                                   f"{_GRID36}",
    **{f"{name}_t{threads}": f"{row} --threads {threads}" for name, row in (
        ("example_sweep_eps", f"sweep-eps {_EX} --realizations 10"),
        ("example_sweep_users_sampled_r8", f"sweep-users {_EX} --realizations 8 {_SAMPLED}"),
        ("example_converge_r8_p240",
         f"converge {_EX} --realizations 8 --override pso.num_particles=240"),
        ("wide_example_sweep_eps_split", f"sweep-eps {_EX} --realizations 2 {_SPLIT}"),
    ) for threads in (2, 3)},
    **{f"refuse_{name}": f"optimize --config SMALL --override {override}" for name, override in (
        ("type", "num_users=3.0"), ("at_least", "num_users=0"), ("above", "tx_power=0"),
        ("open_lo", "blockage_beta=0"), ("closed_hi", "blockage_beta=1.5"),
        ("closed_lo", "csi_eps=-0.1"), ("open_hi", "csi_eps=1"),
        ("eps_grid", "experiments.eps_grid=[0.1,1]"), ("k_grid", "experiments.k_grid=[2,0]"),
        ("area_y", "area_y=0"), ("social", "pso.social=-1"), ("spacing", "min_spacing=3"),
        ("wavelength", "carrier_freq=1e-300"), ("eta_i", "eta_i=1e308"),
        ("eta_i_next_above", "eta_i=1.3407807929942597e+154"),
        ("radius_range", "obstacle_radius_range=[0.8,0.3]"),
        ("size", "pso.max_iters=16777217"), ("size_product", "pso.max_iters=2000000"),
        ("num_pas_401_digits", f"num_pas={_BIG}"),
        ("num_pas_401_digits_no_spacing", f"num_pas={_BIG} --override min_spacing=0"),
        ("unknown_key", "num_userz=3"), ("empty_key", "=3"))},
    "refuse_sweep_users_t2": "sweep-users --config SMALL --override tx_power=1e306 --threads 2",
    "refuse_converge_mean_t2": "converge --config SMALL --override tx_power=1e-320 --threads 2",
}
CASES = {name: [str(CONFIGS.get(word, word)) for word in row.split()]
         for name, row in _ROWS.items()}
# the cases whose outputs are stored in tests/golden/
GOLDEN = ("optimize", "sweep_eps_mixed", "sweep_eps_mixed_sampled", "sweep_eps_packed",
          "sweep_users", "sweep_users_sampled", "converge", "converge_zero_bound",
          "wide_sweep_eps_split", "wide_converge_split")


def expected_exit(name):
    """The exit code case ``name`` must end with."""
    if name.startswith("refuse_") or name == "validate_refused":
        return 2
    return 1 if name.startswith("usage_") else 0


def exit_code(stdout):
    """The exit code of a case's stdout as ``run`` returns it."""
    return int(stdout.rpartition("exit=")[2])


def command_line(name, directory, threads=None):
    """Case ``name``'s command line, with --seed 7 and --out under
    ``directory`` where its subcommand takes them, and --threads ``threads``
    when given."""
    args = list(CASES[name])
    if args[0] != "validate-config":
        args += ["--seed", "7", "--out", str(pathlib.Path(directory) / f"{name}.csv")]
    return args + (["--threads", str(threads)] if threads else [])


def run(name, directory, threads=None):
    """Case ``name``'s outputs by file suffix, run through ``command_line``:
    the CSV and sidecar where it writes them, its stdout with a last line
    exit=<code>, and its stderr with ``directory`` written as <out> in the
    ``wrote`` line."""
    from pinchsim import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = cli.main(command_line(name, directory, threads))
    directory = pathlib.Path(directory)
    out = directory / f"{name}.csv"
    found = {suffix: path.read_text() for suffix, path in (
        (".csv", out), (".config.json", out.with_suffix(".config.json"))) if path.exists()}
    found[".stdout"] = stdout.getvalue() + f"exit={status}\n"
    found[".stderr"] = re.sub(f"^wrote {re.escape(str(directory))}/", "wrote <out>/",
                              stderr.getvalue(), flags=re.M)
    return found


def outputs(threads):
    """Each (golden path, text) of the ``GOLDEN`` cases' outputs at ``threads`` workers."""
    with tempfile.TemporaryDirectory() as directory:
        for name in GOLDEN:
            found = run(name, directory, threads)
            if exit_code(found[".stdout"]):
                raise RuntimeError(f"case {name} failed: {found['.stderr'].strip()}")
            found[".stdout"] = found[".stdout"].rpartition("exit=")[0]
            for suffix in SUFFIXES:
                yield STORED / (name + suffix), found[suffix]


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
    """One line per file in tests/golden/ that no case uses."""
    used = {path.name for path in CONFIGS.values()}
    used |= {name + suffix for name in GOLDEN for suffix in SUFFIXES}
    return [f"{path.name}: used by no case" for path in sorted(STORED.iterdir())
            if path.name not in used]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="store the outputs as goldens")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.write:
        for path, text in outputs(1):
            path.write_text(text)
        print(f"wrote the outputs of {len(GOLDEN)} cases to {STORED}")
        return 0
    found = strays() + differences(1) + differences(2)
    print("\n".join(found) or f"identical: {len(GOLDEN)} cases at --threads 1 and 2")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
