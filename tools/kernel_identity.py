#!/usr/bin/env python3
"""Bitwise identity of the fitness kernel, the feasibility projection, the
swarm search and final scoring of the working tree against a revision.

Usage: python3 tools/kernel_identity.py <rev>

Exports <rev> with `git archive` into a temporary directory, then runs this
script once per tree in a separate process, each importing that tree's
``pinchsim``.  Each process builds the same fixed case matrix with its own
package (scenarios, particles and row gains from fixed seeds) and saves the
bytes of every ``effective_channels`` and ``swarm_fitness`` output, and of
``experiments.score_candidates`` in both score modes on every
single-realization case, its rows at mixed error bounds.  The matrix covers
thirteen (K, N, O) shapes, obstacle-free ones included and an
obstacle-dense one (24 obstacles, of which a plan keeps about a fifth of
the slots), a packed guide (N = 5, min_spacing 2.5 on L = 10), 1-4 stacked
blocks of 7 rows and one row alone, ``gains=None`` and mixed per-row
evaluation points, rows with antennas at both ends of the guide, a draw
per stacked case with antennas 5 m off either end and a NaN row (calls
that evaluate every obstacle slot), and two configs whose results are not
finite (a guide of 1e308 m, whose phases overflow, and a transmit power of
1e-320 W, whose SINRs underflow).  A case is one (scenario, config, gains)
with several draws of particles.  Every draw is evaluated twice: with
``plan=None``, and with one ``Plan`` of its case reused over all of the
case's draws.

It also saves the bytes of ``pso.project_theta_batch`` on fixed raw
batches at K = 1, 2, 3, 5 and 9 users (positions with ties, zeros, -0.0
and both guide ends; power columns over budget, under it, summing to
within a few ulps of 1, with tied largest entries, and with exact zeros
and -0.0), and the ``trace``, ``gbest_thetas`` and ``best_fitness`` of
every swarm of ``pso.search`` at five small shapes: one lockstep call of
2 realizations at 3 points, one swarm of one particle on a one-user,
one-antenna guide, 3 realizations at 3 points under a budget of 4 swarms
a call, which holds one realization, 2 realizations at 5 points under
a budget of 2 swarms a call, which takes each realization's points in
slices of 2, 2 and 1, and 5 realizations at 2 points under a budget of 4
swarms a call, which takes calls of 2, 2 and 1 realizations.  The
``optimize`` and ``run_scheme`` entries are dumped too, on four of those
shapes and a wide one (70 particles, K = N = 8, O = 1), each at one or two
error bounds, zero included, on one realization: ``optimize``'s
``trace``, ``gbest_thetas`` and ``best_fitness`` at the config's own
bound, and each of the four schemes' ``run_scheme`` record (linear and dB
min-SINR) in both score modes.

Revisions from a9eed02 on are supported: there ``Plan`` takes (scenario,
config, rows), ``score_candidates`` scores one realization and
``pso.search`` exists.  Exits 0 when every input and output is
byte-identical and 1 on any difference; `tools/byte_identity.sh` cannot
see last-bit changes, as the CSVs keep 9 significant digits.
"""

import dataclasses
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

# (K, N, O) shapes: the default, wide guides, no obstacles, one of each,
# one user on 8 or more antennas, whose one-row antenna sum numpy's reduce
# would pair up, and a scene dense with obstacles, most of which a plan drops
SHAPES = [(3, 5, 3), (8, 9, 4), (2, 16, 8), (1, 1, 0), (9, 9, 0), (5, 12, 0),
          (4, 3, 6), (8, 8, 1), (2, 2, 2), (6, 10, 3), (1, 9, 0), (1, 12, 3),
          (3, 4, 24)]
PACKED = {"num_pas": 5, "min_spacing": 2.5}  # (N - 1) * min_spacing = L
ROWS_PER_BLOCK = 7
DRAWS = 3
OVERFLOWS = [{"waveguide_len": 1e308}, {"tx_power": 1e-320}]
SCORE_SEED = 20260810  # the realization seed of every true_sampled error draw
PROJECTION_USERS = (1, 2, 3, 5, 9)
# (K, N, O, particles, iterations, realizations, error bounds, lockstep budget)
SEARCHES = [(3, 5, 3, 8, 12, 2, (0.1, 0.0, 0.2), None),
            (1, 1, 0, 1, 10, 1, (0.1,), None),
            (5, 9, 2, 6, 8, 3, (0.0, 0.05, 0.3), 4 * 6 * 5 * 9 * 2),
            (2, 4, 1, 4, 6, 2, (0.0, 0.05, 0.1, 0.2, 0.3), 2 * 4 * 2 * 4 * 1),
            (3, 5, 3, 6, 8, 5, (0.1, 0.0), 4 * 6 * 3 * 5 * 3)]
# (K, N, O, particles, iterations, error bounds) of the optimize and run_scheme cases
SCHEME_RUNS = [(3, 5, 3, 8, 12, (0.1, 0.0)), (1, 1, 0, 1, 10, (0.1,)),
               (5, 9, 2, 6, 8, (0.0, 0.3)), (2, 4, 1, 4, 6, (0.05,)),
               (8, 8, 1, 70, 4, (0.2,))]


def cases():
    """Yield (name, scenario, config, gains, draws, bounds) in a fixed order:
    each case's draws are DRAWS (xs, alphas) batches on its scenario and
    gains, and one more off the guide for a stacked case, and bounds the
    rows' error bounds of a single-realization case, None for stacked ones."""
    from pinchsim import SystemConfig, generate_scenario, robust_gains
    from pinchsim.kernels import row_gains
    from pinchsim.pso import draw_theta
    from pinchsim.scenario import stack_scenarios

    configs = [(f"K{k}N{n}O{o}", SystemConfig(num_users=k, num_pas=n, obstacle_count=o))
               for k, n, o in SHAPES]
    configs += [("packed_N5", SystemConfig(**PACKED))]
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
            # antennas 5 m off either end of the guide, and a NaN row
            off = thetas.copy()
            off[0, 0], off[1, n - 1], off[2, 0] = -5.0, config.waveguide_len + 5.0, np.nan
            draws.append((off[:, :n], off[:, n:]))
            eps = rng.choice([0.0, 0.05, 0.1, 0.3], rows)
            eta_r = rng.choice([0.0, 0.2, 0.5], rows)
            mixed = row_gains([robust_gains(float(e), config.eta_i, float(r))
                               for e, r in zip(eps, eta_r)], 1)
            bounds = eps.tolist() if blocks == 1 else None
            for gains_label, gains in (("nominal", None), ("mixed", mixed)):
                yield (f"{label}/B{blocks}/{gains_label}", scenario, config, gains, draws,
                       bounds)
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
            yield f"{label}/row1/{gains_label}", scenario, config, gains, draws, [0.3]


def projection_batches():
    """Yield (name, config, raw (rows, N + K) batch) for each K of
    ``PROJECTION_USERS``, on a guide exactly (N - 1) * min_spacing long
    and on a longer one."""
    from pinchsim import SystemConfig

    n = 4
    for k in PROJECTION_USERS:
        for length in (1.5, 10.0):
            config = SystemConfig(num_users=k, num_pas=n, waveguide_len=length,
                                  min_spacing=0.5)
            rng = np.random.default_rng(100 * k + int(length))
            rows = 48
            x = rng.uniform(-length, 2 * length, (rows, n))
            tied = rng.random((rows, n)) < 0.4
            x[tied] = rng.choice([0.0, -0.0, 0.5, length / 2, length, length + 0.5],
                                 tied.sum())
            a = rng.uniform(-1.0, 2.0, (rows, k))     # mostly over budget
            a[5:10] = rng.uniform(0.0, 1.0 / k, (5, k))
            for i in range(10, 30):                   # within a few ulps of 1
                e = rng.random(k) + 1e-3
                a[i] = e / e.sum() * (1.0 + int(rng.integers(-2, 3)) * 2.0 ** -52)
            a[30:35] = rng.choice([0.25, 0.5, 0.75], (5, 1))   # tied largest entries
            a[30:35, k // 2:] = rng.uniform(-0.5, 0.5, (5, k - k // 2))
            a[35:40] = rng.choice([0.0, -0.0, 0.6, 1.5], (5, k))  # zeros and -0.0
            a[40] = -0.0
            a[41] = 0.0
            # entries so large that u_j - 1 rounds to u_j: no j passes the threshold
            a[42:44] = rng.uniform(1e16, 1e18, (2, k))
            yield f"K{k}/L{length}", config, np.hstack([x, a])


def searches():
    """Yield (name, scenarios, seeds, points, config, params, budget) for
    each case of ``SEARCHES``, named by its index and shape, so that two
    cases of one shape do not share keys."""
    from pinchsim import PsoParams, SystemConfig, generate_scenario, robust_gains

    for i, (k, n, o, particles, iters, realizations, bounds, budget) in enumerate(SEARCHES):
        config = SystemConfig(num_users=k, num_pas=n, obstacle_count=o)
        seeds = [700 + r for r in range(realizations)]
        yield (f"{i}/K{k}N{n}O{o}", [generate_scenario(config, seed) for seed in seeds], seeds,
               [robust_gains(eps, config.eta_i, config.eta_r) for eps in bounds],
               config, PsoParams(num_particles=particles, max_iters=iters), budget)


def scheme_runs():
    """Yield (name, scenario, seed, config, params) for each shape and error
    bound of ``SCHEME_RUNS``, in order."""
    from pinchsim import PsoParams, SystemConfig, generate_scenario

    for k, n, o, particles, iters, bounds in SCHEME_RUNS:
        seed = 900 + k
        for eps in bounds:
            config = SystemConfig(num_users=k, num_pas=n, obstacle_count=o, csi_eps=eps)
            yield (f"K{k}N{n}O{o}/eps{eps}", generate_scenario(config, seed), seed, config,
                   PsoParams(num_particles=particles, max_iters=iters))


@np.errstate(all="ignore")  # the overflow configs overflow
def dump(out_path):
    """Evaluate every case with the importable pinchsim; save inputs and outputs."""
    from pinchsim import experiments, kernels, pso

    arrays = {}
    for name, scenario, config, gains, draws, bounds in cases():
        arrays[f"{name}/users"] = scenario.users
        arrays[f"{name}/obstacles"] = scenario.obstacle_centers
        arrays[f"{name}/radii"] = scenario.obstacle_radii
        plan = kernels.Plan(scenario, config, len(draws[0][0]))
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
            for mode in ("conservative", "true_sampled") if bounds else ():
                arrays[f"{key}/score/{mode}"] = np.array(experiments.score_candidates(
                    xs, alphas, scenario, config, bounds, SCORE_SEED, mode))
    for name, config, raw in projection_batches():
        arrays[f"projection/{name}/raw"] = raw
        arrays[f"projection/{name}/projected"] = pso.project_theta_batch(raw, config)
    default_budget = pso.LOCKSTEP_BUDGET
    for name, scenarios, seeds, points, config, params, budget in searches():
        pso.LOCKSTEP_BUDGET = budget or default_budget
        found = pso.search(scenarios, seeds, points, config, params)
        for r, results in enumerate(found):
            for i, point in enumerate(points):
                key = f"search/{name}/r{r}/point{i}"
                arrays[f"{key}/trace"] = results[point].trace
                arrays[f"{key}/gbest_thetas"] = results[point].gbest_thetas
                arrays[f"{key}/best_fitness"] = np.array(results[point].best_fitness)
    pso.LOCKSTEP_BUDGET = default_budget
    for name, scenario, seed, config, params in scheme_runs():
        res = pso.optimize(scenario, config, params, seed)
        for out in ("trace", "gbest_thetas", "best_fitness"):
            arrays[f"optimize/{name}/{out}"] = np.asarray(getattr(res, out))
        for scheme in experiments.SCHEMES:
            for mode in ("conservative", "true_sampled"):
                record = experiments.run_scheme(scheme, scenario, config, params, seed,
                                                score_mode=mode)
                arrays[f"run_scheme/{name}/{scheme}/{mode}"] = np.array(
                    [record.min_sinr_linear, record.min_sinr_db])
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
            scores = sum("/score/" in key for key in new.files)
            draw_count = len({key.rsplit("/", 2)[0] for key in new.files if "/fresh/" in key})
            projections = sum(key.endswith("/projected") for key in new.files)
            swarms = sum(key.endswith("/gbest_thetas") and key.startswith("search/")
                         for key in new.files)
            optimized = sum(key.startswith("optimize/") for key in new.files)
            schemes = sum(key.startswith("run_scheme/") for key in new.files)
    if differ:
        print(f"outputs differ from {rev} in {len(differ)} arrays:", file=sys.stderr)
        for key in differ[:20]:
            print(f"  {key}", file=sys.stderr)
        return 1
    print(f"identical: {outputs} output arrays of {draw_count} draws, {scores} "
          f"score_candidates outputs, {projections} projected batches, {swarms} "
          f"searched swarms, {optimized} optimize outputs and {schemes} run_scheme "
          f"records against {rev}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
