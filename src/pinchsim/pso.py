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
RNG stream spawned from the master seed.  Right after its initial draw, each
particle draws all of its cognitive/social multipliers from that stream as one
(T, 2) block, which consumes the stream exactly as two scalar draws per
iteration would, so a run is reproducible regardless of evaluation schedule.

Because the streams depend only on the seed, searches of one seed at
different (eps, eta_r) evaluation points start from the same particles and
use the same multipliers.  ``optimize_points`` therefore draws them once and
steps all of its searches in lockstep, one projection call and one kernel
call per iteration for the stacked swarms; ``optimize`` is its one-point
case.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .config import ConfigError, PsoParams, SystemConfig
from .scenario import Scenario

# Largest kernel batch, in rows x users x antennas x max(obstacles, 1), up to
# which optimize_points stacks swarms into one call.  Stacking saves per-call
# overhead on small swarms.  A swarm of 240 x 8 x 16 x 8 (about 2^18) gains
# nothing from it, and stacking two such swarms raised peak memory from 52 to
# 67 MB on the numpy kernel.
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
    best_min_sinr: float         # worst-case min-SINR of the solution at the configured error bound
    trace: np.ndarray            # (T+1,) global-best fitness after init and each iteration
    gbest_thetas: np.ndarray = field(repr=False, default=None)  # (T+1, N+K)


def search_point(config: SystemConfig, robust: bool):
    """The (eps, eta_r) at which a search evaluates its fitness.

    A robust search uses the configured bound and leakage; a non-robust
    search, and a robust one at a zero bound, use the perfect-estimate point
    (0, 0), where the leakage level has no effect.
    """
    if robust and config.csi_eps > 0:
        return (float(config.csi_eps), float(config.eta_r))
    return (0.0, 0.0)


def optimize(scenario: Scenario, config: SystemConfig, params: PsoParams,
             seed: int, robust: bool = True) -> PsoResult:
    """Joint search over antenna positions and power fractions.

    robust=True evaluates fitness at the configured estimate-error bound;
    robust=False evaluates at a zero bound (perfect estimates, no leakage).
    Either way the returned solution's ``best_min_sinr`` is re-scored under
    the worst-case evaluation at the configured bound, so modes are
    comparable.  Deterministic given (scenario, config, params, seed).
    """
    point = search_point(config, robust)
    return optimize_points(scenario, config, params, seed, [point])[0]


def optimize_points(scenario: Scenario, config: SystemConfig, params: PsoParams,
                    seed: int, points) -> list:
    """One search per (eps, eta_r) evaluation point, stepped in lockstep.

    Returns one ``PsoResult`` per entry of ``points``, each bit-identical to
    a separate search at that point (``best_min_sinr`` is re-scored at the
    configured bound).  The particle streams depend only on the seed, so
    every search starts from the same particles with the same multipliers:
    they are drawn once and shared.  A repeated point is searched once and
    its entries share one result.  The distinct points are stacked into one
    (S, P, D) swarm, split where a kernel batch would exceed
    ``LOCKSTEP_BUDGET``.
    """
    rngs = [np.random.default_rng((int(seed), i)) for i in range(params.num_particles)]
    theta = np.stack([draw_theta(config, rng) for rng in rngs])
    # (P, T, 2): iteration t's cognitive/social multipliers, in stream order
    draws = np.stack([rng.random((params.max_iters, 2)) for rng in rngs])
    distinct = list(dict.fromkeys(points))
    tests_per_swarm = (params.num_particles * scenario.users.shape[0] * config.num_pas
                       * max(scenario.obstacle_centers.shape[0], 1))
    per_call = max(1, LOCKSTEP_BUDGET // tests_per_swarm)
    found = {}
    for i in range(0, len(distinct), per_call):
        chunk = distinct[i:i + per_call]
        found.update(zip(chunk, _lockstep(scenario, config, params, theta, draws, chunk)))
    return [found[point] for point in points]


def _lockstep(scenario, config, params, theta0, draws, points):
    """Search at every point of ``points`` from the shared particles and draws."""
    n = config.num_pas
    s = len(points)
    p, d = theta0.shape
    eps = np.repeat([e for e, _ in points], p)
    eta_r = np.repeat([r for _, r in points], p)
    bound = params.velocity_clamp * np.concatenate(
        [np.full(n, config.waveguide_len), np.ones(config.num_users)])

    theta = np.broadcast_to(theta0, (s, p, d)).copy()
    velocity = np.zeros_like(theta)
    best_theta = theta.copy()
    best_fitness = np.full((s, p), -np.inf)
    trace = np.empty((s, params.max_iters + 1))
    gbest_thetas = np.empty((s, params.max_iters + 1, d))
    swarms = np.arange(s)
    for t in range(params.max_iters + 1):
        if t > 0:
            r1, r2 = draws[:, t - 1, :1], draws[:, t - 1, 1:]
            velocity = (params.inertia * velocity
                        + params.cognitive * r1 * (best_theta - theta)
                        + params.social * r2 * (gbest_thetas[:, t - 1, None] - theta))
            np.clip(velocity, -bound, bound, out=velocity)
            theta = project_theta_batch((theta + velocity).reshape(s * p, d),
                                        config).reshape(s, p, d)
        fitness, _, _ = kernels.swarm_fitness(*split_theta(theta.reshape(s * p, d), n),
                                              scenario, config, eps=eps, eta_r=eta_r)
        fitness = fitness.reshape(s, p)
        # a particle's first evaluation is its personal best; later ones must beat it
        improved = (fitness > best_fitness) | (t == 0)
        best_theta[improved] = theta[improved]
        best_fitness[improved] = fitness[improved]
        gi = np.argmax(best_fitness, axis=1)
        trace[:, t] = best_fitness[swarms, gi]
        gbest_thetas[:, t] = best_theta[swarms, gi]

    gbests = gbest_thetas[:, -1].copy()
    _, robust_gmin, _ = kernels.swarm_fitness(*split_theta(gbests, n), scenario, config)
    return [PsoResult(best_theta=gbest,
                      best_x=gbest[:n].copy(),
                      best_alpha=gbest[n:].copy(),
                      best_fitness=float(tr[-1]),
                      best_min_sinr=float(gmin),
                      trace=tr,
                      gbest_thetas=gt)
            for gbest, tr, gt, gmin in zip(gbests, trace, gbest_thetas, robust_gmin)]
