#!/usr/bin/env python3
"""Sweep benchmark of pinchsim, end to end and per layer.

Runs one workload of ``perfbench/workloads.py`` through the user's entry
point, ``pinchsim.cli.main``, in this process, repeatedly for about
``--seconds`` seconds, checks every output, and prints one JSON object as
the last line of standard output.

    python3 perfbench/run.py --workload eps_desk --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics (set-up time, realizations per
second scaled to the machine's nominal speed, peak memory, search quality).
``--trace 1`` alternates untraced and traced repetitions of one seed and
reports the per-layer split of the traced ones plus ``trace.overhead_frac``; the spans of the last traced repetition
are written to ``.perfbench_out/``.  Exit code 0 when every check passes,
1 when one fails, 2 when the package or config cannot be found.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import checks as chk
import reference
import tracer as trc
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
MIN_TRACE_PAIRS = 2
UNREPORTED_TIMES = ("channel.s", "noma.s")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Put ``src/`` on the path and import pinchsim; None if the checkout lacks it."""
    for needed in (ROOT / "src" / "pinchsim" / "__init__.py", ROOT / workloads.CONFIG):
        if not needed.is_file():
            print(f"perfbench: {needed} not found", file=sys.stderr)
            return None
    sys.path.insert(0, str(ROOT / "src"))
    import pinchsim
    return pinchsim


@dataclasses.dataclass
class Rep:
    """Outcome of one CLI invocation."""

    seed: int
    code: object        # exit code, or the traceback of a crash
    wall: float
    csv_text: str
    traces: object      # ConvergenceTraces of a converge run, else None


def run_once(name, seed, out_path):
    """One whole CLI invocation; captures the converge traces for the checks."""
    from pinchsim import cli, experiments
    captured = {}

    def capture(fn):
        def wrapper(*args, **kwargs):
            captured["traces"] = fn(*args, **kwargs)
            return captured["traces"]
        return wrapper

    argv = workloads.cli_argv(name, seed, out_path, ROOT)
    with trc.patch_attr(experiments, "convergence_trace", capture), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:   # a crash is a failed check, not the end of the run
            code = traceback.format_exc(limit=-3)
        wall = time.perf_counter() - t0
    text = out_path.read_text(encoding="utf-8") if code == 0 else ""
    return Rep(seed, code, wall, text, captured.get("traces"))


class WorkloadRun:
    """A workload with the expectations derived from its effective config."""

    def __init__(self, name):
        from pinchsim import experiments
        self.name = name
        self.spec = workloads.WORKLOADS[name]
        self.run = workloads.effective_run(name, ROOT)
        exp = self.run.experiments
        r = self.spec.realizations
        if self.spec.command == "sweep-eps":
            self.sweep_var, self.points = "csi_eps", len(exp.eps_grid)
        elif self.spec.command == "sweep-users":
            self.sweep_var, self.points = "num_users", len(exp.k_grid)
        else:
            self.sweep_var, self.points = None, 1
        if self.sweep_var:
            self.rows = self.points * r * len(experiments.SCHEMES)
        else:
            self.rows = 2 * (self.run.pso.max_iters + 1)
        self.realizations_per_rep = self.points * r
        self.conservative = exp.score_mode == "conservative"

    def out_path(self, seed):
        return OUT / f"{self.name}-{seed}.csv"

    def check_rep(self, checks, rep, first_text):
        """Checks of one repetition; ``first_text`` is an earlier CSV of its seed."""
        label = f"{self.name} seed={rep.seed}"
        if not checks.check(rep.code == 0, f"{label}: run ended with {rep.code}"):
            return
        rows = chk.parse_csv(rep.csv_text)
        chk.check_rows(checks, rows, self.rows, label)
        if first_text is not None:
            checks.check(rep.csv_text == first_text,
                         f"{label}: CSV bytes differ from an earlier run of this seed")
        elif self.sweep_var and self.conservative:
            chk.check_uniform_oracle(checks, rows, self.run, self.sweep_var, label)
        if rep.traces is not None:
            chk.check_traces_monotone(checks, rep.traces, label)

    def quality(self, text):
        """Mean RobustPSO min-SINR of one CSV: (linear, dB)."""
        rows = [r for r in chk.parse_csv(text) if r["scheme"] == "RobustPSO"]
        if self.sweep_var:
            return (statistics.fmean(float(r["min_sinr_linear"]) for r in rows),
                    statistics.fmean(float(r["min_sinr_db"]) for r in rows))
        final = rows[-1]
        return float(final["mean_min_sinr_linear"]), float(final["mean_min_sinr_db"])


def setup_seconds(name, seed, checks):
    """Median set-up time over fresh interpreters, each waited for."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if checks.check(done.returncode == 0,
                        f"{name}: set-up probe failed: {done.stderr.strip()[-500:]}"):
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times) if times else 0.0


def reference_seconds(spec):
    return reference.reference_seconds(spec.ref_shape, spec.ref_iterations, spec.threads)


def end_to_end(w, seed, seconds, checks):
    q = w.spec.quality_reps
    seeds = workloads.derived_seeds(seed, q)
    setup_s = setup_seconds(w.name, seed, checks)
    first = {}
    reps, refs = [], []
    start = time.perf_counter()
    while True:
        s = seeds[len(reps) % q]
        rep = run_once(w.name, s, w.out_path(s))
        if not reps:
            # read before the first reference search: on wide_converge its
            # temporaries outgrow pinchsim's own peak
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        refs.append(reference_seconds(w.spec))
        w.check_rep(checks, rep, first.get(s))
        first.setdefault(s, rep.csv_text)
        reps.append(rep)
        elapsed = time.perf_counter() - start
        if len(reps) > q and elapsed + statistics.median(r.wall for r in reps) > seconds:
            break
    # a run whose every repetition failed has no quality to report; it is
    # already marked incorrect, and NaN is not valid JSON
    qualities = [w.quality(first[s]) for s in seeds if first[s]] or [(0.0, 0.0)]
    rates = [w.realizations_per_rep / r.wall for r in reps]
    # the reference searches right after and, from the second repetition
    # on, right before a repetition say how slowly the machine ran it
    around = refs[:1] + [(a + b) / 2.0 for a, b in zip(refs, refs[1:])]
    slowdowns = [t / w.spec.ref_nominal_s for t in around]
    metrics = {
        "setup_s": (setup_s, "s"),
        "norm_realizations_per_s": (
            statistics.median(r * f for r, f in zip(rates, slowdowns)), "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "robust_min_sinr": (statistics.fmean(v[0] for v in qualities), "linear"),
    }
    extra = {
        "realizations_per_s": (statistics.median(rates), "1/s"),
        "slowdown": (statistics.median(slowdowns), "ratio"),
        "robust_min_sinr_db": (statistics.fmean(v[1] for v in qualities), "dB"),
        "repetitions": (len(reps), "count"),
        "rep_walls_s": ([round(r.wall, 6) for r in reps], "s"),
        "reference_walls_s": ([round(t, 6) for t in refs], "s"),
    }
    return metrics, extra


def per_layer(w, seed, seconds, checks):
    s = workloads.derived_seeds(seed, 1)[0]
    untraced, traced, layers = [], [], []
    last_tracer = None
    start = time.perf_counter()
    # warm-up repetition, checked but not timed, so that neither side of the
    # first pair pays for first-call costs
    warm = run_once(w.name, s, w.out_path(s))
    w.check_rep(checks, warm, None)
    first_text = warm.csv_text
    while True:
        pair_start = time.perf_counter()
        # alternate which side of the pair runs first
        for with_trace in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            if with_trace:
                tracer = trc.Tracer()
                with trc.traced_package(tracer):
                    rep = run_once(w.name, s, w.out_path(s))
                layers.append(trc.layer_metrics(tracer))
                traced.append(rep.wall)
                last_tracer = tracer
            else:
                rep = run_once(w.name, s, w.out_path(s))
                untraced.append(rep.wall)
            w.check_rep(checks, rep, first_text)
        now = time.perf_counter()
        if len(traced) >= MIN_TRACE_PAIRS and now - start + (now - pair_start) > seconds:
            break
    last_tracer.write(OUT / f"spans-{w.name}-{seed}.jsonl")
    medians = {key: (statistics.median(m[key][0] for m in layers), unit)
               for key, (_, unit) in layers[0].items()}
    medians["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio")
    # channel and noma run only under true_sampled scoring; their times are
    # printed but kept out of the result, where they would read 0 s on the
    # other workloads
    metrics = {k: v for k, v in medians.items() if k not in UNREPORTED_TIMES}
    extra = {k: medians[k] for k in UNREPORTED_TIMES}
    extra["repetitions"] = (1 + len(traced) + len(untraced), "count")
    return metrics, extra


def environment(pinchsim):
    import numpy as np
    from pinchsim import kernels
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "backend": kernels.active_backend(),
        "numba_available": kernels.NUMBA_AVAILABLE,
        "pinchsim": pinchsim.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_revision": git_revision(),
    }


def git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return ref


def main(argv=None):
    args = parse_args(argv)
    pinchsim = import_package()
    if pinchsim is None:
        return 2
    OUT.mkdir(exist_ok=True)
    w = WorkloadRun(args.workload)
    checks = chk.Checks()
    measure = per_layer if args.trace else end_to_end
    metrics, extra = measure(w, args.seed, args.seconds, checks)
    env = environment(pinchsim)
    failed = len(checks.failures)
    for message in checks.failures:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"workload={w.name} seed={args.seed} trace={args.trace}")
    for key, (value, unit) in {**metrics, **extra}.items():
        shown = f"{value:.6g}" if isinstance(value, (int, float)) else value
        print(f"  {key} = {shown} {unit}")
    print(f"  failed_frac = {failed / checks.attempted:.6g} "
          f"({failed} of {checks.attempted} checks failed)")
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": failed == 0, "attempted": checks.attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = dict(result, workload=w.name, seed=args.seed, trace=args.trace, env=env,
                  extra={k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
                  failures=checks.failures)
    (OUT / f"result-{w.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
