"""Workload table of the sweep benchmark.

Each workload is one ``pinchsim`` subcommand on ``configs/example.json``,
run in-process through ``pinchsim.cli.main``.  A repetition is one whole CLI
invocation (all schemes, CSV and sidecar written).  The first
``quality_reps`` repetitions of a run use distinct seeds derived from the
workload seed, so the search-quality metric averages
``quality_reps * realizations`` scenarios; later repetitions replay those
seeds in turn and must reproduce their CSV bytes exactly.

This module imports nothing from pinchsim, so the set-up probe can load it
before it starts its clock.
"""

import random
from dataclasses import dataclass

CONFIG = "configs/example.json"


@dataclass(frozen=True)
class Workload:
    command: str            # pinchsim subcommand
    overrides: tuple        # --override KEY=VALUE items
    threads: int            # --threads
    realizations: int       # --realizations per repetition
    quality_reps: int       # repetitions with distinct seeds
    # reference.py's search at this workload's shapes: (P, K, N, O), its
    # iteration count, and its median time on the tuning machine, which
    # only fixes the scale of the normalized rate
    ref_shape: tuple
    ref_iterations: int
    ref_nominal_s: float


WORKLOADS = {
    # Headline figure of the paper; bound by per-call dispatch: about 4,000
    # swarm_fitness calls of ~60 rows per 2 realizations, kernel ~63% of
    # wall, PSO bookkeeping ~22%, projection ~15%.
    "eps_desk": Workload(
        command="sweep-eps", overrides=(), threads=1,
        realizations=2, quality_reps=6,
        ref_shape=(60, 3, 5, 3), ref_iterations=500, ref_nominal_s=0.25),
    # Only workload on the scalar channel/noma scoring path and on the
    # map_realizations thread pool; kernel shapes change with K.  Two
    # realizations per repetition so that the pool is really used.
    "users_sampled_t2": Workload(
        command="sweep-users", overrides=("experiments.score_mode=true_sampled",),
        threads=2, realizations=2, quality_reps=5,
        ref_shape=(60, 4, 5, 3), ref_iterations=225, ref_nominal_s=0.45),
    # Bound by kernel arithmetic: ~100 kernel calls of 240 rows per
    # realization, kernel ~92% of wall, larger peak memory; also runs the
    # (T+1)-row re-scoring call of convergence_trace.  Not listed in
    # BENCHMARK.json, so that the two listed workloads get longer runs.
    "wide_converge": Workload(
        command="converge",
        overrides=("num_users=8", "num_pas=16", "obstacle_count=8",
                   "pso.num_particles=240", "pso.max_iters=50"),
        threads=1, realizations=1, quality_reps=8,
        ref_shape=(240, 8, 16, 8), ref_iterations=12, ref_nominal_s=0.26),
}


def derived_seeds(seed, count):
    """Distinct per-repetition master seeds, a pure function of the workload seed."""
    rng = random.Random(int(seed))
    return [rng.randrange(2 ** 31) for _ in range(count)]


def cli_argv(name, seed, out_path, root):
    """Arguments for ``pinchsim.cli.main`` that run one repetition."""
    w = WORKLOADS[name]
    argv = [w.command, "--config", str(root / CONFIG), "--seed", str(seed),
            "--realizations", str(w.realizations), "--threads", str(w.threads),
            "--out", str(out_path)]
    for item in w.overrides:
        argv += ["--override", item]
    return argv


def effective_run(name, root):
    """The RunConfig the CLI builds for this workload, before ``--realizations``."""
    from pinchsim import config
    run = config.load_run_config(str(root / CONFIG))
    overrides = list(WORKLOADS[name].overrides)
    if overrides:
        run = config.run_config_from_dict(config.apply_overrides(run.to_dict(), overrides))
    return run
