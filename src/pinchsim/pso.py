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
would, so a run is reproducible regardless of evaluation schedule.

A swarm is one (scenario, seed, evaluation point).  Because the streams
depend only on the seed, swarms of one seed at different evaluation points
(``noma.RobustGains``) start from the same particles and use the same
multipliers, which are drawn once.  ``optimize_realizations`` steps the
swarms of several realizations in lockstep, ``LOCKSTEP_BUDGET`` permitting:
one projection call and one kernel call per iteration, whose rows are the
swarms' blocks, each on its own scenario.  ``optimize_points`` is its
one-realization case and ``optimize`` its one-point case.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .config import MAX_ELEMENTS, ConfigError, PsoParams, SystemConfig
from .noma import RobustGains, robust_gains
from .scenario import Scenario, stack_scenarios, stream

# Largest kernel batch, in rows x users x antennas x max(obstacles, 1), up to
# which a lockstep call stacks swarms.  Stacking saves per-call overhead on
# small swarms.  Measured on stacked realizations (default geometry, 60
# particles, 100 iterations, 24 realizations of 2 searches; numpy, 2 CPUs):
# the searches took 1.47 / 0.96 / 0.82 / 0.75 s at 2^13 / 2^15 / 2^16 / 2^17
# with 3 users and 2.95 / 1.93 / 1.60 / 1.31 s with 5, and the process peaked
# at 39 / 42 / 44 / 51 MB and 39 / 41 / 43 / 48 MB.  2^17 saves another
# 10-18% of the time but costs 5-7 MB (12-16%) more memory, and a
# 240 x 8 x 16 x 8 swarm (about 2^18) gains nothing from stacking.  At 2^16
# the benchmark's peak_rss_mb is 40.3 MB on eps_desk and 39.9 MB on
# users_sampled_t2, against 39.3 and 39.0 MB unstacked (BENCH_9.json).
LOCKSTEP_BUDGET = 2 ** 16


def project_positions(x, waveguide_len, min_spacing):
    """Project raw antenna coordinates onto the feasible ordered layout."""
    out = project_positions_batch(np.asarray(x, dtype=float)[None, :],
                                  waveguide_len, min_spacing)
    return out[0]


def project_positions_batch(xs, waveguide_len, min_spacing):
    """Row-wise position projection: clip -> sort -> forward/backward spacing passes."""
    n = xs.shape[1]
    if (n - 1) * min_spacing > waveguide_len:
        raise ConfigError(
            f"antenna spacing infeasible: ({n} - 1) * min_spacing = "
            f"{(n - 1) * min_spacing} exceeds waveguide_len = {waveguide_len}")
    xs = np.clip(xs, 0.0, waveguide_len)
    xs = np.sort(xs, axis=1)
    for i in range(1, n):
        xs[:, i] = np.maximum(xs[:, i], xs[:, i - 1] + min_spacing)
    xs[:, n - 1] = np.minimum(xs[:, n - 1], waveguide_len)
    for i in range(n - 2, -1, -1):
        xs[:, i] = np.minimum(xs[:, i], xs[:, i + 1] - min_spacing)
    return xs


def project_simplex(a):
    """Project raw power fractions onto {a >= 0, sum(a) <= 1}."""
    return project_simplex_batch(np.asarray(a, dtype=float)[None, :])[0]


def project_simplex_batch(a):
    """Row-wise Euclidean projection onto the nonnegative sub-unit simplex.

    Rows whose clipped sum is within budget keep their slack; rows over
    budget land on the sum-one face via the sorted-threshold projection.
    """
    a = np.maximum(np.asarray(a, dtype=float), 0.0)
    over = a.sum(axis=1) > 1.0
    if np.any(over):
        rows = a[over]
        k = rows.shape[1]
        u = -np.sort(-rows, axis=1)
        cs = np.cumsum(u, axis=1)
        cond = u - (cs - 1.0) / np.arange(1, k + 1) > 0.0
        rho = k - 1 - np.argmax(cond[:, ::-1], axis=1)  # largest index passing
        tau = (cs[np.arange(rows.shape[0]), rho] - 1.0) / (rho + 1.0)
        a[over] = np.maximum(rows - tau[:, None], 0.0)
    return a


def project_theta_batch(thetas, config: SystemConfig):
    """Apply both projections to the position and power blocks of each row."""
    n = config.num_pas
    out = np.array(thetas, dtype=float)
    out[:, :n] = project_positions_batch(out[:, :n], config.waveguide_len,
                                         config.min_spacing)
    out[:, n:] = project_simplex_batch(out[:, n:])
    return out


def split_theta(theta, num_pas):
    """Split a particle vector into (positions, power fractions) views."""
    theta = np.asarray(theta)
    return theta[..., :num_pas], theta[..., num_pas:]


def draw_theta(config: SystemConfig, rng):
    """One feasible candidate: uniform positions, simplex-uniform powers, projected."""
    x = rng.uniform(0.0, config.waveguide_len, config.num_pas)
    e = rng.standard_exponential(config.num_users)
    theta = np.concatenate([x, e / e.sum()])
    return project_theta_batch(theta[None, :], config)[0]


@dataclass
class PsoResult:
    """Outcome of one optimizer run."""

    best_theta: np.ndarray
    best_x: np.ndarray
    best_alpha: np.ndarray
    best_fitness: float          # final penalized fitness (internal objective)
    trace: np.ndarray            # (T+1,) global-best fitness after init and each iteration
    gbest_thetas: np.ndarray = field(repr=False, default=None)  # (T+1, N+K)


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
    return optimize_points(scenario, config, params, seed, [point])[0]


def optimize_points(scenario: Scenario, config: SystemConfig, params: PsoParams,
                    seed: int, points) -> list:
    """One search per evaluation point (``noma.RobustGains``), in lockstep.

    Returns one ``PsoResult`` per entry of ``points``, each bit-identical to
    a separate search at that point.  The evaluation points come from
    ``points`` alone; ``config`` supplies geometry and constants.  Equal
    points are searched once and share one result.  This is the
    one-realization case of ``optimize_realizations``.
    """
    return optimize_realizations([(scenario, seed, points)], config, params)[0]


def optimize_realizations(searches, config: SystemConfig, params: PsoParams) -> list:
    """The searches of several realizations, stepped together in lockstep.

    ``searches`` holds one (scenario, seed, points) per realization, with
    equal user and obstacle counts; the result holds, per realization, one
    ``PsoResult`` per entry of its ``points``, each bit-identical to a
    separate search.  A swarm is one (scenario, seed, distinct point).  Its
    particles and multipliers come from its seed alone, so the swarms of one
    realization start from the same particles, drawn once.  The swarms are stepped
    in chunks of ``swarms_per_call`` in (realization, point) order, each
    chunk with one projection call and one kernel call per iteration.
    """
    swarms = [(scenario, r, point) for r, (scenario, _, points) in enumerate(searches)
              for point in dict.fromkeys(points)]
    theta0, draws = (np.stack(arrays) for arrays in zip(
        *[_particles(config, params, seed) for _, seed, _ in searches]))
    per_call = swarms_per_call(config, params)
    found = {}
    for i in range(0, len(swarms), per_call):
        chunk = swarms[i:i + per_call]
        found.update(zip([(r, point) for _, r, point in chunk],
                         _lockstep(config, params, chunk, theta0, draws)))
    return [[found[r, point] for point in points]
            for r, (_, _, points) in enumerate(searches)]


def swarms_per_call(config: SystemConfig, params: PsoParams) -> int:
    """How many swarms one lockstep call steps together: as many as keep its
    kernel batch within ``LOCKSTEP_BUDGET`` and their multipliers and
    trajectories within ``MAX_ELEMENTS``, and at least one."""
    tests = (params.num_particles * config.num_users * config.num_pas
             * max(config.obstacle_count, 1))
    state = max(params.num_particles * params.max_iters * 2,
                (params.max_iters + 1) * (config.num_pas + config.num_users))
    return max(1, min(LOCKSTEP_BUDGET // tests, MAX_ELEMENTS // state))


def _particles(config, params, seed):
    """The initial (P, D) particles of a seed and their (T, P, 2) multipliers:
    iteration t's cognitive/social draws, in stream order."""
    rngs = [stream(seed, "particles", i) for i in range(params.num_particles)]
    theta = np.stack([draw_theta(config, rng) for rng in rngs])
    return theta, np.stack([rng.random((params.max_iters, 2)) for rng in rngs], axis=1)


def _lockstep(config, params, swarms, theta0, draws):
    """Run each (scenario, r, point) swarm of ``swarms`` from the particles
    theta0[r] and multipliers draws[r] of its realization r."""
    n = config.num_pas
    s = len(swarms)
    scenario = stack_scenarios([sc for sc, _, _ in swarms])
    which = [r for _, r, _ in swarms]
    theta = theta0[which]                          # (S, P, D)
    _, p, d = theta.shape
    gains = kernels.row_gains([point for _, _, point in swarms], p)  # fixed for the whole search
    bound = params.velocity_clamp * np.concatenate(
        [np.full(n, config.waveguide_len), np.ones(config.num_users)])

    velocity = np.zeros_like(theta)
    best_theta = theta.copy()
    best_fitness = np.full((s, p), -np.inf)
    trace = np.empty((s, params.max_iters + 1))
    gbest_thetas = np.empty((s, params.max_iters + 1, d))
    ids = np.arange(s)
    for t in range(params.max_iters + 1):
        if t > 0:
            r = draws[which, t - 1]                # (S, P, 2)
            r1, r2 = r[..., :1], r[..., 1:]
            velocity = (params.inertia * velocity
                        + params.cognitive * r1 * (best_theta - theta)
                        + params.social * r2 * (gbest_thetas[:, t - 1, None] - theta))
            np.clip(velocity, -bound, bound, out=velocity)
            theta = project_theta_batch((theta + velocity).reshape(s * p, d),
                                        config).reshape(s, p, d)
        fitness, _, _ = kernels.swarm_fitness(*split_theta(theta.reshape(s * p, d), n),
                                              scenario, config, gains=gains)
        fitness = fitness.reshape(s, p)
        # a particle's first evaluation is its personal best; later ones must beat it
        improved = (fitness > best_fitness) | (t == 0)
        best_theta[improved] = theta[improved]
        best_fitness[improved] = fitness[improved]
        gi = np.argmax(best_fitness, axis=1)
        trace[:, t] = best_fitness[ids, gi]
        gbest_thetas[:, t] = best_theta[ids, gi]

    return [PsoResult(best_theta=gt[-1].copy(),
                      best_x=gt[-1, :n].copy(),
                      best_alpha=gt[-1, n:].copy(),
                      best_fitness=float(tr[-1]),
                      trace=tr,
                      gbest_thetas=gt)
            for tr, gt in zip(trace, gbest_thetas)]
