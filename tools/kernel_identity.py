#!/usr/bin/env python3
"""Bitwise identity of the fitness kernel of the working tree against a revision.

Usage: python3 tools/kernel_identity.py <rev>

Exports <rev> with `git archive` into a temporary directory, then runs this
script once per tree in a separate process, each importing that tree's
``pinchsim``.  Each process builds the same fixed case matrix with its own
package (scenarios, particles and row gains from fixed seeds) and saves the
bytes of every ``effective_channels`` and ``swarm_fitness`` output.  The
matrix covers twelve (K, N, O) shapes, obstacle-free ones included, 1-4
stacked blocks of 7 rows and one row alone, ``gains=None`` and mixed
per-row evaluation points, rows with antennas at both ends of the guide,
and two configs whose results are not finite (a guide of 1e308 m, whose
phases overflow, and a transmit power of 1e-320 W, whose SINRs
underflow).  A case is one (scenario, config, gains) with several draws of
particles.  Every draw is evaluated twice: with ``plan=None``, and with
one ``Plan`` of its case reused over all of the case's draws.  The plan is
built from the signature of the tree's ``Plan``, which took the row gains
before it took only the row count.  Exits 0 when every input and output
is byte-identical and 1 on any difference; `tools/byte_identity.sh` cannot
see last-bit changes, as the CSVs keep 9 significant digits.
"""

import dataclasses
import inspect
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

# (K, N, O) shapes: the default, wide guides, no obstacles, one of each,
# and one user on 8 or more antennas, whose one-row antenna sum numpy's
# reduce would pair up
SHAPES = [(3, 5, 3), (8, 9, 4), (2, 16, 8), (1, 1, 0), (9, 9, 0), (5, 12, 0),
          (4, 3, 6), (8, 8, 1), (2, 2, 2), (6, 10, 3), (1, 9, 0), (1, 12, 3)]
ROWS_PER_BLOCK = 7
DRAWS = 3
OVERFLOWS = [{"waveguide_len": 1e308}, {"tx_power": 1e-320}]


def cases():
    """Yield (name, scenario, config, gains, draws) in a fixed order: each
    case's draws are DRAWS (xs, alphas) batches on its scenario and gains."""
    from pinchsim import SystemConfig, generate_scenario, robust_gains
    from pinchsim.kernels import row_gains
    from pinchsim.pso import draw_theta
    from pinchsim.scenario import stack_scenarios

    configs = [(f"K{k}N{n}O{o}", SystemConfig(num_users=k, num_pas=n, obstacle_count=o))
               for k, n, o in SHAPES]
    configs += [("overflow_" + "_".join(change), dataclasses.replace(SystemConfig(), **change))
                for change in OVERFLOWS]
    for label, config in configs:
        n = config.num_pas
        for blocks in range(1, 5):
            scenario = stack_scenarios([generate_scenario(config, 1000 * blocks + b)
                                        for b in range(blocks)])
            rng = np.random.default_rng(blocks)
            rows = blocks * ROWS_PER_BLOCK
            draws = []
            for _ in range(DRAWS):
                thetas = np.stack([draw_theta(config, rng) for _ in range(rows)])
                # antennas at both ends of the guide
                thetas[0, :n] = np.linspace(0.0, config.waveguide_len, n)
                thetas[1, n - 1] = config.waveguide_len
                draws.append((thetas[:, :n], thetas[:, n:]))
            eps = rng.choice([0.0, 0.05, 0.1, 0.3], rows)
            eta_r = rng.choice([0.0, 0.2, 0.5], rows)
            mixed = row_gains([robust_gains(float(e), config.eta_i, float(r))
                               for e, r in zip(eps, eta_r)], 1)
            for gains_label, gains in (("nominal", None), ("mixed", mixed)):
                yield f"{label}/B{blocks}/{gains_label}", scenario, config, gains, draws
        # one row alone: every plane the kernel sums holds one element per user
        scenario = generate_scenario(config, 5000)
        rng = np.random.default_rng(5000)
        draws = []
        for d in range(DRAWS):
            theta = draw_theta(config, rng)
            if d == 0:  # antennas at both ends of the guide
                theta[:n] = np.linspace(0.0, config.waveguide_len, n)
            draws.append((theta[None, :n], theta[None, n:]))
        point = row_gains([robust_gains(0.3, config.eta_i, 0.5)], 1)
        for gains_label, gains in (("nominal", None), ("point", point)):
            yield f"{label}/row1/{gains_label}", scenario, config, gains, draws


@np.errstate(all="ignore")  # the overflow configs overflow
def dump(out_path):
    """Evaluate every case with the importable pinchsim; save inputs and outputs."""
    from pinchsim import kernels

    plan_takes_gains = "gains" in inspect.signature(kernels.Plan).parameters
    arrays = {}
    for name, scenario, config, gains, draws in cases():
        arrays[f"{name}/users"] = scenario.users
        arrays[f"{name}/obstacles"] = scenario.obstacle_centers
        arrays[f"{name}/radii"] = scenario.obstacle_radii
        rows = len(draws[0][0])
        plan = (kernels.Plan(scenario, config, gains, rows) if plan_takes_gains
                else kernels.Plan(scenario, config, rows))
        calls = {"fresh": {}, "reused": {"plan": plan}}
        for d, (xs, alphas) in enumerate(draws):
            key = f"{name}/draw{d}"
            arrays[f"{key}/xs"] = np.ascontiguousarray(xs)
            arrays[f"{key}/alphas"] = np.ascontiguousarray(alphas)
            for mode, kwargs in calls.items():
                h = kernels.effective_channels(xs, scenario, config, **kwargs)
                f, gamma, v = kernels.swarm_fitness(xs, alphas, scenario, config,
                                                    gains=gains, **kwargs)
                for out, value in (("h", h), ("fitness", f), ("min_sinr", gamma),
                                   ("violation", v)):
                    arrays[f"{key}/{mode}/{out}"] = value
    np.savez(out_path, **arrays)


def run_tree(src, out_path):
    """Run ``dump`` in a new interpreter that imports pinchsim from ``src``."""
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
            f"sys.path.insert(1, {str(pathlib.Path(__file__).resolve().parent)!r}); "
            f"import kernel_identity; kernel_identity.dump({str(out_path)!r})")
    subprocess.run([sys.executable, "-c", code], check=True)


def main(argv):
    if len(argv) != 1:
        print(f"usage: {sys.argv[0]} <rev>", file=sys.stderr)
        return 2
    rev = argv[0]
    repo = pathlib.Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory() as work:
        work = pathlib.Path(work)
        base = work / "base"
        base.mkdir()
        archive = subprocess.run(["git", "-C", str(repo), "archive", rev],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        run_tree(base / "src", work / "base.npz")
        run_tree(repo / "src", work / "change.npz")
        with np.load(work / "base.npz") as old, np.load(work / "change.npz") as new:
            differ = sorted(set(old.files) ^ set(new.files))
            differ += [key for key in sorted(set(old.files) & set(new.files))
                       if old[key].dtype != new[key].dtype
                       or old[key].shape != new[key].shape
                       or old[key].tobytes() != new[key].tobytes()]
            outputs = sum(key.count("/fresh/") + key.count("/reused/") for key in new.files)
            draw_count = len({key.rsplit("/", 2)[0] for key in new.files if "/fresh/" in key})
    if differ:
        print(f"kernel outputs differ from {rev} in {len(differ)} arrays:", file=sys.stderr)
        for key in differ[:20]:
            print(f"  {key}", file=sys.stderr)
        return 1
    print(f"identical: {outputs} output arrays of {draw_count} draws against {rev}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
