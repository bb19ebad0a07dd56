#!/usr/bin/env python3
"""Bitwise identity of the fitness kernel of the working tree against a revision.

Usage: python3 tools/kernel_identity.py <rev>

Exports <rev> with `git archive` into a temporary directory, then runs this
script once per tree in a separate process, each importing that tree's
``pinchsim``.  Each process builds the same fixed case matrix with its own
package (scenarios, particles and row gains from fixed seeds) and saves the
bytes of every ``effective_channels`` and ``swarm_fitness`` output.  The
matrix covers ten (K, N, O) shapes, obstacle-free ones included, 1-4
stacked blocks, ``gains=None`` and mixed per-row evaluation points, rows
with antennas at both ends of the guide, and two configs whose results are
not finite (a guide of 1e308 m, whose phases overflow, and a transmit power
of 1e-320 W, whose SINRs underflow).  Where a tree's kernel takes a
``scratch``, every case is evaluated twice: with a fresh one, and with one
object shared by all cases in turn, so that reuse across shapes is compared
as well.  Exits 0 when every input and output is byte-identical and 1 on
any difference; `tools/byte_identity.sh` cannot see last-bit changes, as
the CSVs keep 9 significant digits.
"""

import dataclasses
import inspect
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

# (K, N, O) shapes: the default, wide guides, no obstacles, one of each
SHAPES = [(3, 5, 3), (8, 9, 4), (2, 16, 8), (1, 1, 0), (9, 9, 0), (5, 12, 0),
          (4, 3, 6), (8, 8, 1), (2, 2, 2), (6, 10, 3)]
ROWS_PER_BLOCK = 7
DRAWS = 3
OVERFLOWS = [{"waveguide_len": 1e308}, {"tx_power": 1e-320}]


def cases():
    """Yield (name, xs, alphas, scenario, config, gains) in a fixed order."""
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
            for draw in range(DRAWS):
                seed = 1000 * blocks + draw
                scenario = stack_scenarios([generate_scenario(config, seed + b)
                                            for b in range(blocks)])
                rng = np.random.default_rng(seed)
                rows = blocks * ROWS_PER_BLOCK
                thetas = np.stack([draw_theta(config, rng) for _ in range(rows)])
                # antennas at both ends of the guide
                thetas[0, :n] = np.linspace(0.0, config.waveguide_len, n)
                thetas[1, n - 1] = config.waveguide_len
                eps = rng.choice([0.0, 0.05, 0.1, 0.3], rows)
                eta_r = rng.choice([0.0, 0.2, 0.5], rows)
                mixed = row_gains([robust_gains(float(e), config.eta_i, float(r))
                                   for e, r in zip(eps, eta_r)], 1)
                for gains_label, gains in (("nominal", None), ("mixed", mixed)):
                    yield (f"{label}/B{blocks}/draw{draw}/{gains_label}",
                           thetas[:, :n], thetas[:, n:], scenario, config, gains)


@np.errstate(all="ignore")  # the overflow configs overflow
def dump(out_path):
    """Evaluate every case with the importable pinchsim; save inputs and outputs."""
    from pinchsim import kernels

    takes_scratch = "scratch" in inspect.signature(kernels.swarm_fitness).parameters
    shared = kernels.Scratch() if takes_scratch else None
    arrays = {}
    for name, xs, alphas, scenario, config, gains in cases():
        arrays[f"{name}/xs"] = np.ascontiguousarray(xs)
        arrays[f"{name}/alphas"] = np.ascontiguousarray(alphas)
        arrays[f"{name}/users"] = scenario.users
        arrays[f"{name}/obstacles"] = scenario.obstacle_centers
        arrays[f"{name}/radii"] = scenario.obstacle_radii
        calls = {"fresh": {}}
        if takes_scratch:
            calls["shared"] = {"scratch": shared}
        for mode, kwargs in calls.items():
            h = kernels.effective_channels(xs, scenario, config, **kwargs)
            f, gamma, v = kernels.swarm_fitness(xs, alphas, scenario, config,
                                                gains=gains, **kwargs)
            for out, value in (("h", h), ("fitness", f), ("min_sinr", gamma),
                               ("violation", v)):
                arrays[f"{name}/{mode}/{out}"] = value
        if not takes_scratch:  # the same call stands for both
            for out in ("h", "fitness", "min_sinr", "violation"):
                arrays[f"{name}/shared/{out}"] = arrays[f"{name}/fresh/{out}"]
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
            outputs = sum(key.count("/fresh/") + key.count("/shared/") for key in new.files)
            cases_count = len({key.rsplit("/", 2)[0] for key in new.files if "/fresh/" in key})
    if differ:
        print(f"kernel outputs differ from {rev} in {len(differ)} arrays:", file=sys.stderr)
        for key in differ[:20]:
            print(f"  {key}", file=sys.stderr)
        return 1
    print(f"identical: {outputs} output arrays of {cases_count} cases against {rev}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
