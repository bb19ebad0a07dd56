"""Set-up time of one workload, measured in a fresh interpreter.

Times, from before ``import pinchsim``: the import, loading the config with
the workload's overrides, drawing the first scenario of the first sweep
point and one ``swarm_fitness`` call on a full initial swarm (the call that
warms the kernel).  Prints the elapsed seconds.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import dataclasses
import pathlib
import sys
import time

import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main(name, seed):
    w = workloads.WORKLOADS[name]
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from pinchsim import experiments, kernels, pso

    run = workloads.effective_run(name, ROOT)
    system = run.system
    if w.command == "sweep-eps":
        system = dataclasses.replace(system, csi_eps=run.experiments.eps_grid[0])
    elif w.command == "sweep-users":
        system = dataclasses.replace(system, num_users=int(run.experiments.k_grid[0]))
    seed0 = experiments.realization_seeds(seed, 1)[0]
    scenario = experiments.generate_scenario(system, seed0)
    rngs = [np.random.default_rng((seed0, i)) for i in range(run.pso.num_particles)]
    thetas = np.stack([pso.draw_theta(system, rng) for rng in rngs])
    xs, alphas = pso.split_theta(thetas, system.num_pas)
    kernels.swarm_fitness(xs, alphas, scenario, system)
    print(f"{time.perf_counter() - t0:.9f}")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
