"""Projected, penalty-augmented particle swarm search over (positions, powers).

Each particle encodes theta = [antenna x-coordinates; per-user power
fractions].  After every velocity step the particle is projected back onto
the feasible set: positions are clipped to the guide, sorted, and pushed
apart to the minimum spacing by a forward/backward pass; power fractions are
clipped nonnegative and, if their sum exceeds the budget, projected onto the
unit simplex.  Fitness is the worst-case minimum SINR minus a penalty on
decoding-order ambiguity, evaluated by the batched kernels.

Velocity follows the constriction update (Clerc and Kennedy, IEEE TEC 2002)
with a per-dimension clamp.  Determinism: every particle owns an independent
RNG stream of the seed, apart from the scenario's and the schemes' streams
(``scenario.STREAMS``).  Right after its initial draw, each particle draws
all of its cognitive/social multipliers from that stream as one (T, 2)
block, which consumes the stream exactly as two scalar draws per iteration
would, so a run is reproducible regardless of evaluation schedule.  The
block is scaled by the cognitive and social weights once, in place.

A swarm is one (scenario, seed, evaluation point).  Because the streams
depend only on the seed, swarms of one seed at different evaluation points
(``noma.RobustGains``) start from the same particles and use the same
multipliers, which are drawn once.  ``optimize_realizations`` alone
decides how many realizations are searched together: it steps their swarms
in lockstep, ``kernel_rows`` permitting, with one projection call and one
kernel call per iteration whose rows are the swarms' blocks, each on its
own scenario, and yields one realization at a time.  ``optimize`` is its
one-realization, one-point case.  A lockstep call's scenario, row gains
and batch shape are fixed for all of its iterations, so it builds its row
gains and one ``kernels.Plan`` once and hands both to each kernel call.

The lockstep state (positions, velocities, personal bests) is held
batch-last, as C-contiguous (D, S, P) arrays: each dimension of theta is
one contiguous row over all S * P particles, as in the fitness kernel.  The
velocity update runs in preallocated buffers, in the operation order of the
textbook update, so its bits do not depend on the layout.  The projection
keeps its (rows, D) contract and works on a (D, rows) copy.  A seed's
initial particles are drawn from their own streams and projected in one
call; the projection works candidate by candidate, so the batch does not
change their bits.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .config import MAX_ELEMENTS, ConfigError, PsoParams, SystemConfig
from .noma import RobustGains, robust_gains
from .scenario import Scenario, stack_scenarios, stream

# Kernel batch, in rows x users x antennas x max(obstacles, 1), up to which
# lockstep calls stack swarms and scoring calls candidates (``kernel_rows``);
# stacking saves per-call overhead on small swarms.
# Measured on stacked realizations, with reused kernel work buffers (default
# geometry, 60 particles, 100 iterations, 24 realizations of 2 searches;
# numpy, 2 CPUs; medians of 5 runs, which spread by up to 30%): the searches
# took 1.37 / 0.64 / 0.58 / 0.59 s at 2^13 / 2^15 / 2^16 / 2^17 with 3 users
# and 2.92 / 1.08 / 1.16 / 0.95 s with 5, and the process peaked at 39.9 /
# 39.9 / 41.5 / 45.3 MB and 40.0 / 40.0 / 41.2 / 44.7 MB.  From 2^15 on the
# times are within their noise, but for 2^17 at 5 users, which is 18% faster
# than 2^16 and peaks 3.5 MB (8%) higher; a 240 x 8 x 16 x 8 swarm (about
# 2^18) gains nothing from stacking.  At 2^16 the benchmark's peak_rss_mb is
# 40.3 MB on eps_desk and 39.9 MB on users_sampled_t2, against 39.3 and
# 39.0 MB unstacked (BENCH_9.json).  Re-measured with ``kernels.Plan``, whose
# geometry expanded over the rows adds 2 (O K + O + K) doubles per row to the
# work buffers' 5 N K + 2 O N + 3 O N K (at K/N/O = 3/5/3, 30 to 240): a
# 24-realization one-column sweep-users, three runs per budget, took
# 0.73-1.03 / 0.80-0.98 s at 2^16 / 2^17 with 3 users and 1.36-1.50 /
# 1.38-1.43 s with 5, peaking at 43 / 48 and 41 / 45 MB.  So 2^17 is no
# faster and costs 4-5 MB more; the CSVs were identical.
LOCKSTEP_BUDGET = 2 ** 16


def kernel_rows(config: SystemConfig) -> int:
    """Most rows a kernel call stacks: ``LOCKSTEP_BUDGET`` permitting, at least one."""
    return max(1, LOCKSTEP_BUDGET // (config.num_users * config.num_pas
                                      * max(config.obstacle_count, 1)))


def project_positions(x, waveguide_len, min_spacing):
    """Project raw antenna coordinates onto the feasible ordered layout."""
    out = np.array(x, dtype=float).reshape(-1, 1)
    _project_positions(out, waveguide_len, min_spacing)
    return out[:, 0]


def _project_positions(xs, waveguide_len, min_spacing):
    """Project each column of the (N, rows) coordinates in place: clip ->
    sort -> forward/backward spacing passes, each pass over a whole row."""
    n = xs.shape[0]
    if (n - 1) * min_spacing > waveguide_len:
        raise ConfigError(
            f"antenna spacing infeasible: ({n} - 1) * min_spacing = "
            f"{(n - 1) * min_spacing} exceeds waveguide_len = {waveguide_len}")
    np.clip(xs, 0.0, waveguide_len, out=xs)
    xs.sort(axis=0)
    for i in range(1, n):
        np.maximum(xs[i], xs[i - 1] + min_spacing, out=xs[i])
    np.minimum(xs[n - 1], waveguide_len, out=xs[n - 1])
    for i in range(n - 2, -1, -1):
        np.minimum(xs[i], xs[i + 1] - min_spacing, out=xs[i])


def project_simplex(a):
    """Project raw power fractions onto {a >= 0, sum(a) <= 1}."""
    out = np.array(a, dtype=float).reshape(-1, 1)
    _project_simplex(out)
    return out[:, 0]


def _project_simplex(a):
    """Euclidean projection of each column of the (K, rows) power fractions
    onto the nonnegative sub-unit simplex, in place.

    Columns whose clipped sum is within budget keep their slack; columns over
    budget land on the sum-one face via the sorted-threshold projection.
    """
    np.maximum(a, 0.0, out=a)
    # numpy sums a contiguous axis pairwise but reduces axis 0 one term after
    # another; from 8 terms on the two differ in the last bit, which flips the
    # test for sums next to 1.  So the test sums each candidate contiguously.
    over = np.ascontiguousarray(a.T).sum(axis=1) > 1.0
    if np.any(over):
        cols = a[:, over]
        k = cols.shape[0]
        u = -np.sort(-cols, axis=0)
        cs = np.cumsum(u, axis=0)
        cond = u - (cs - 1.0) / np.arange(1, k + 1)[:, None] > 0.0
        rho = k - 1 - np.argmax(cond[::-1], axis=0)  # largest index passing
        tau = (cs[rho, np.arange(cols.shape[1])] - 1.0) / (rho + 1.0)
        a[:, over] = np.maximum(cols - tau, 0.0)


def project_theta_batch(thetas, config: SystemConfig):
    """Apply both projections to the position and power blocks of each row.

    thetas is (rows, D) and is not written to.  The projection runs on a
    (D, rows) copy, so that each pass covers one contiguous row of all
    candidates; the result is the transposed view of that copy, and its
    ``.T`` is C-contiguous.
    """
    n = config.num_pas
    out = np.array(np.transpose(thetas), dtype=float, order="C")
    _project_positions(out[:n], config.waveguide_len, config.min_spacing)
    _project_simplex(out[n:])
    return out.T


def split_theta(theta, num_pas):
    """Split a particle vector into (positions, power fractions) views."""
    theta = np.asarray(theta)
    return theta[..., :num_pas], theta[..., num_pas:]


def _raw_theta(config: SystemConfig, rng):
    """One unprojected candidate: uniform positions, simplex-uniform powers."""
    x = rng.uniform(0.0, config.waveguide_len, config.num_pas)
    e = rng.standard_exponential(config.num_users)
    return np.concatenate([x, e / e.sum()])


def draw_theta(config: SystemConfig, rng):
    """One feasible candidate: uniform positions, simplex-uniform powers, projected."""
    return project_theta_batch(_raw_theta(config, rng)[None, :], config)[0]


@dataclass
class PsoResult:
    """Outcome of one optimizer run."""

    best_theta: np.ndarray
    best_x: np.ndarray
    best_alpha: np.ndarray
    best_fitness: float          # final penalized fitness (internal objective)
    trace: np.ndarray            # (T+1,) global-best fitness after init and each iteration
    gbest_thetas: np.ndarray = field(repr=False)  # (T+1, N+K)


def search_point(config: SystemConfig, robust: bool) -> RobustGains:
    """The evaluation point at which a search scores its fitness.

    A robust search uses the configured bound; a non-robust one the
    perfect-estimate bound 0, whose gains (1, 1, 1, 0) do not depend on the
    leakage level, so it coincides with a robust search at a zero bound.
    """
    return robust_gains(config.csi_eps if robust else 0.0, config.eta_i, config.eta_r)


def optimize(scenario: Scenario, config: SystemConfig, params: PsoParams,
             seed: int, robust: bool = True) -> PsoResult:
    """Joint search over antenna positions and power fractions.

    robust=True evaluates fitness at the configured estimate-error bound;
    robust=False evaluates at a zero bound (perfect estimates, no leakage).
    ``best_fitness`` is the objective at the search's own point;
    ``experiments.score_candidate`` scores a solution on the scale that all
    schemes share.  Deterministic given (scenario, config, params, seed).
    """
    point = search_point(config, robust)
    _, found = next(optimize_realizations([scenario], [seed], [point], config, params))
    return found[point]


def optimize_realizations(scenarios, seeds, points, config: SystemConfig,
                          params: PsoParams):
    """Search each realization at each distinct point of ``points``, the
    swarms of several realizations stepped together in lockstep.

    ``scenarios`` (consumed lazily) and ``seeds`` give the realizations in
    order, with equal user and obstacle counts.  Yields per realization its
    scenario and a dict from each distinct point to its ``PsoResult``, each
    bit-identical to a separate search.  A swarm is one (scenario, seed,
    point); its particles and multipliers come from its seed alone, so a
    realization's swarms start from the same particles, drawn once.  Whole
    realizations are taken as many at a time as fill one lockstep call of
    ``swarms_per_call`` swarms, and at least one; their swarms are stepped in
    (realization, point) order in calls of at most ``swarms_per_call``, each
    with one projection call and one kernel call per iteration.
    """
    points = list(dict.fromkeys(points))
    per_call = swarms_per_call(config, params)
    realizations = zip(scenarios, seeds)
    while chunk := list(itertools.islice(realizations, max(1, per_call // len(points)))):
        theta0, draws = (np.stack(arrays) for arrays in zip(
            *[_particles(config, params, seed) for _, seed in chunk]))
        swarms = [(scenario, r, point) for r, (scenario, _) in enumerate(chunk)
                  for point in points]
        found = []
        for i in range(0, len(swarms), per_call):
            found += _lockstep(config, params, swarms[i:i + per_call], theta0, draws)
        for r, (scenario, _) in enumerate(chunk):
            yield scenario, dict(zip(points, found[r * len(points):(r + 1) * len(points)]))


def swarms_per_call(config: SystemConfig, params: PsoParams) -> int:
    """How many swarms one lockstep call steps together: as many as keep its
    kernel batch within ``kernel_rows`` and their multipliers and
    trajectories within ``MAX_ELEMENTS``, and at least one."""
    state = max(params.num_particles * params.max_iters * 2,
                (params.max_iters + 1) * (config.num_pas + config.num_users))
    return max(1, min(kernel_rows(config) // params.num_particles, MAX_ELEMENTS // state))


def _particles(config, params, seed):
    """The initial (D, P) particles of a seed, projected in one call, and
    their (T, P, 2) multipliers: iteration t's cognitive/social draws, in
    stream order, scaled in place by ``cognitive`` and ``social``."""
    rngs = [stream(seed, "particles", i) for i in range(params.num_particles)]
    raw = np.stack([_raw_theta(config, rng) for rng in rngs])
    theta = project_theta_batch(raw, config).T
    pulls = np.stack([rng.random((params.max_iters, 2)) for rng in rngs], axis=1)
    pulls *= (params.cognitive, params.social)
    return theta, pulls


def _lockstep(config, params, swarms, theta0, draws):
    """Run each (scenario, r, point) swarm of ``swarms`` from the particles
    theta0[r] and multipliers draws[r] of its realization r.

    The state is held batch-last, as (D, S, P) arrays, whose (D, S * P)
    views are the kernel's and the projection's layout."""
    n = config.num_pas
    scenario = stack_scenarios([sc for sc, _, _ in swarms])
    which = [r for _, r, _ in swarms]
    theta = np.ascontiguousarray(theta0[which].transpose(1, 0, 2))  # (D, S, P)
    d, s, p = theta.shape
    gains = kernels.row_gains([point for _, _, point in swarms], p)  # fixed for the whole search
    plan = kernels.Plan(scenario, config, s * p)  # and so is everything else but the particles
    bound = params.velocity_clamp * np.concatenate(
        [np.full(n, config.waveguide_len), np.ones(config.num_users)])[:, None, None]

    velocity = np.zeros_like(theta)
    pull = np.empty_like(theta)
    best_theta = theta.copy()
    best_fitness = np.full((s, p), -np.inf)
    trace = np.empty((s, params.max_iters + 1))
    gbest_thetas = np.empty((s, params.max_iters + 1, d))
    ids = np.arange(s)
    for t in range(params.max_iters + 1):
        if t > 0:
            # inertia * v + cognitive r1 (pbest - theta) + social r2 (gbest - theta)
            velocity *= params.inertia
            np.subtract(best_theta, theta, out=pull)
            pull *= draws[which, t - 1, :, 0]      # (S, P)
            velocity += pull
            np.subtract(gbest_thetas[:, t - 1].T[:, :, None], theta, out=pull)
            pull *= draws[which, t - 1, :, 1]
            velocity += pull
            np.clip(velocity, -bound, bound, out=velocity)
            theta += velocity
            theta = project_theta_batch(theta.reshape(d, -1).T, config).T.reshape(d, s, p)
        flat = theta.reshape(d, -1)
        fitness, _, _ = kernels.swarm_fitness(flat[:n].T, flat[n:].T, scenario, config,
                                              gains=gains, plan=plan)
        fitness = fitness.reshape(s, p)
        # a particle's first evaluation is its personal best; later ones must beat it
        improved = (fitness > best_fitness) | (t == 0)
        np.copyto(best_theta, theta, where=improved)
        np.copyto(best_fitness, fitness, where=improved)
        gi = np.argmax(best_fitness, axis=1)
        trace[:, t] = best_fitness[ids, gi]
        gbest_thetas[:, t] = best_theta[:, ids, gi].T

    return [PsoResult(best_theta=gt[-1].copy(),
                      best_x=gt[-1, :n].copy(),
                      best_alpha=gt[-1, n:].copy(),
                      best_fitness=float(tr[-1]),
                      trace=tr,
                      gbest_thetas=gt)
            for tr, gt in zip(trace, gbest_thetas)]
