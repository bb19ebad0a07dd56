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
would, so a run is reproducible regardless of evaluation schedule.  A
lockstep call stores its R' realizations' blocks as (T, 2, R', P) and scales
them by the cognitive and social weights once, in place.

A swarm is one (scenario, seed, evaluation point), a point being any
``kernels.RobustGains``; ``experiments`` picks each scheme's.  The streams
depend only on the seed, so swarms of one seed at different points start
from the same particles and use the same multipliers.  ``search`` cuts the
realizations it is handed into chunks, drawing each chunk's particles once,
and each chunk into lockstep calls, each of which makes one projection call
and one kernel call per iteration.  One rule cuts the calls: a call holds
``realizations_per_call`` whole realizations, each at all of its points, so
kernel block r is realization r, its swarms adjacent; a realization with
more points than ``swarms_per_call`` takes calls of its own, its points in
slices of ``swarms_per_call``, all from its one draw.  ``experiments`` cuts
its work units by the same rule, so a unit is one call of ``search``.
``optimize`` is its one-realization case at the config's own point.  A
lockstep call's scenario, row gains and batch shape are fixed for all of
its iterations, so it builds its row gains and one ``kernels.Plan`` once
and hands both to each kernel call.

The lockstep state (positions, velocities, personal bests) is held
batch-last, as C-contiguous (D, S, P) arrays: each dimension of theta is
one contiguous row over all S * P particles, as in the fitness kernel.  The
velocity update runs in preallocated buffers, in the operation order of the
textbook update, so its bits do not depend on the layout.  Step t scales
the (D, R', Q, P) view of its pull buffer by the basic slice [t - 1, c]
of the call's (T, 2, R', P) multipliers, broadcast over each
realization's Q swarms.  The projection keeps its (rows, D) contract and
works on a (D, rows) copy, one whole row of candidates per numpy call: the
spacing passes write through one scratch row, and the simplex step sorts
only the over-budget columns, then picks each one's threshold with one
masked copy per user.  A call's initial particles are drawn from their own
streams and projected in one call; the projection works candidate by
candidate, so the batch does not change their bits.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .config import MAX_ELEMENTS, PsoParams, SystemConfig
from .kernels import robust_gains
from .scenario import Scenario, stack_scenarios, stream

# Kernel batch, in rows x users x antennas x max(obstacles, 1), up to which
# lockstep calls stack swarms and scoring calls candidates (``kernel_rows``):
# stacking saves per-call overhead on small swarms, and 2^17 is no faster
# than 2^16 (a 24-realization sweep-users took 0.73-1.03 / 0.80-0.98 s at
# 3 users and 1.36-1.50 / 1.38-1.43 s at 5) but peaks 4-5 MB higher.  A row
# holds 2 K + 4 M doubles of plan geometry and 5 N K + 4 N M of work
# buffers, M <= O K the obstacle slots its block keeps: 26 and 175 at
# K/N/O = 3/5/3 with the 5 slots a block keeps on average on eps_desk.
# The measurements are in CHANGES.md and BENCH_9/13/26.json.
LOCKSTEP_BUDGET = 2 ** 16


def kernel_rows(config: SystemConfig) -> int:
    """Most rows a kernel call stacks: ``LOCKSTEP_BUDGET`` permitting, at least one."""
    return max(1, LOCKSTEP_BUDGET // (config.num_users * config.num_pas
                                      * max(config.obstacle_count, 1)))


def _project_positions(xs, waveguide_len, min_spacing):
    """Project each column of the (N, rows) coordinates in place: clip ->
    sort -> forward/backward spacing passes, each pass over a whole row
    into one scratch row.  The spacing fits the guide: ``SystemConfig``
    refuses (N - 1) * min_spacing > waveguide_len."""
    # np.clip(xs, 0, L) in two ufunc calls, with its bits: the bound comes
    # first, so that -0.0 stays -0.0 as np.clip keeps it
    np.maximum(0.0, xs, out=xs)
    np.minimum(waveguide_len, xs, out=xs)
    xs.sort(axis=0)
    rows, step = list(xs), np.empty(xs.shape[1])
    for prev, row in zip(rows, rows[1:]):
        np.maximum(row, np.add(prev, min_spacing, out=step), out=row)
    np.minimum(rows[-1], waveguide_len, out=rows[-1])
    for row, after in zip(rows[-2::-1], rows[:0:-1]):
        np.minimum(row, np.subtract(after, min_spacing, out=step), out=row)


def _project_simplex(a):
    """Euclidean projection of each column of the (K, rows) power fractions
    onto the nonnegative sub-unit simplex, in place.

    Columns whose clipped sum is within budget keep their slack; columns over
    budget land on the sum-one face via the sorted-threshold projection
    (Duchi et al., ICML 2008): with u the column sorted in descending order
    and t_j = (u_0 + ... + u_j - 1) / (j + 1), its threshold is t_rho for
    the largest rho with u_rho > t_rho, or for rho = K - 1 when none passes.
    """
    np.maximum(a, 0.0, out=a)
    k = len(a)
    # The budget test sums each candidate as numpy sums it contiguously:
    # fewer than 8 terms one after another, which is also how it reduces a
    # leading axis, and 8 or more pairwise, which takes a contiguous
    # (rows, K) copy.  The two orders differ in the last bit, which flips
    # the test for sums next to 1.
    if k < 8:
        total = np.add.reduce(a, axis=0)
    else:
        total = np.ascontiguousarray(a.T).sum(axis=1)
    over = np.flatnonzero(total > 1.0)
    if not len(over):
        return
    cols = a.take(over, axis=1)
    u = np.sort(cols, axis=0)[::-1]
    t = np.cumsum(u, axis=0)
    t -= 1.0
    t /= np.arange(1.0, k + 1.0)[:, None]
    passing = np.greater(u, t)
    tau = t[-1].copy()
    for t_j, passing_j in zip(t, passing):  # the largest passing j wins
        np.copyto(tau, t_j, where=passing_j)
    cols -= tau
    a[:, over] = np.maximum(cols, 0.0, out=cols)


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


def optimize(scenario: Scenario, config: SystemConfig, params: PsoParams,
             seed: int) -> PsoResult:
    """Joint search over antenna positions and power fractions.

    Fitness is evaluated at the config's own point; under perfect estimates
    that is the zero-bound config's, ``kernels.NOMINAL``.  ``best_fitness``
    is the objective at that point; ``experiments.score_candidate`` scores
    a solution on the scale that all schemes share.  Deterministic given
    (scenario, config, params, seed).
    """
    point = robust_gains(config.csi_eps, config.eta_i, config.eta_r)
    return search([scenario], [seed], [point], config, params)[0][point]


def search(scenarios, seeds, points, config: SystemConfig, params: PsoParams):
    """Search each realization at each distinct point of ``points``, the
    swarms of whole realizations stepped together in lockstep.

    ``scenarios`` and ``seeds`` give the realizations, with equal user and
    obstacle counts.  Returns per realization, in order, a dict from each
    distinct point to its ``PsoResult``, each bit-identical to a separate
    search.  A swarm is one (scenario, seed, point), its particles and
    multipliers drawn from its seed alone.  ``search`` cuts: a lockstep
    call steps up to ``realizations_per_call`` whole realizations at all
    points, or one realization's points in slices of ``swarms_per_call``
    when it has more; each chunk of realizations draws its particles once,
    just before its first call.  With no points, it draws nothing and
    returns an empty dict per realization.
    """
    points = list(dict.fromkeys(points))
    if not points:
        return [{} for _ in scenarios]
    step = realizations_per_call(config, params, len(points))
    per_call = swarms_per_call(config, params)
    found = []
    for i in range(0, len(scenarios), step):
        particles = _particles(config, params, seeds[i:i + step])
        for j in range(0, len(points), per_call):  # one slice unless step is 1
            found += _lockstep(config, params, scenarios[i:i + step], particles,
                               points[j:j + per_call])
    return [dict(zip(points, found[i:i + len(points)]))
            for i in range(0, len(found), len(points))]


def swarms_per_call(config: SystemConfig, params: PsoParams) -> int:
    """How many swarms one lockstep call steps together: as many as keep its
    kernel batch within ``kernel_rows`` and their multipliers and
    trajectories within ``MAX_ELEMENTS``, and at least one."""
    state = max(params.num_particles * params.max_iters * 2,
                (params.max_iters + 1) * (config.num_pas + config.num_users))
    return max(1, min(kernel_rows(config) // params.num_particles, MAX_ELEMENTS // state))


def realizations_per_call(config: SystemConfig, params: PsoParams, points) -> int:
    """How many whole realizations one lockstep call searches at ``points``
    distinct points: as many as fit ``swarms_per_call``, and at least one."""
    return max(1, swarms_per_call(config, params) // points)


def _particles(config, params, seeds):
    """The initial (D, R', P) particles of the R' ``seeds``, projected in
    one call, and their (T, 2, R', P) multipliers: iteration t's cognitive
    and social draws, in stream order, scaled by ``cognitive`` and ``social``."""
    p = params.num_particles
    rngs = [stream(seed, "particles", i) for seed in seeds for i in range(p)]
    raw = np.stack([_raw_theta(config, rng) for rng in rngs])
    theta = project_theta_batch(raw, config).T
    pulls = np.stack([rng.random((params.max_iters, 2)) for rng in rngs], axis=2)
    pulls *= np.array([params.cognitive, params.social])[:, None]
    return theta.reshape(len(theta), -1, p), pulls.reshape(params.max_iters, 2, -1, p)


def _lockstep(config, params, scenarios, particles, points):
    """Search each realization r of ``scenarios`` at each of ``points``,
    from block r of ``particles`` (the ``_particles`` of the realizations'
    seeds, only read); returns the results in (realization, point) order.

    Kernel block r is realization r, its Q swarms adjacent.  The state is
    held batch-last, as (D, S, P) arrays with S = R' Q, whose (D, S * P)
    views are the kernel's and the projection's layout."""
    n = config.num_pas
    theta0, pulls = particles                          # (D, R', P), (T, 2, R', P)
    scenario = stack_scenarios(scenarios)
    theta = np.repeat(theta0, len(points), axis=1)     # (D, S, P)
    d, s, p = theta.shape
    gains = kernels.row_gains(points * len(scenarios), p)  # fixed for the whole search
    plan = kernels.Plan(scenario, config, s * p)  # and so is everything else but the particles
    bound = params.velocity_clamp * np.concatenate(
        [np.full(n, config.waveguide_len), np.ones(config.num_users)])[:, None, None]
    low = -bound

    velocity = np.zeros_like(theta)
    pull = np.empty_like(theta)
    block = pull.reshape(d, len(scenarios), len(points), p)  # (D, R', Q, P)
    best_theta = theta.copy()
    improved = np.empty((s, p), dtype=bool)
    trace = np.empty((params.max_iters + 1, s))
    gbest_thetas = np.empty((s, params.max_iters + 1, d))
    offsets = np.arange(0, s * p, p)           # swarm i's particles start at i * P
    for t in range(params.max_iters + 1):
        if t > 0:
            # inertia * v + cognitive r1 (pbest - theta) + social r2 (gbest - theta)
            velocity *= params.inertia
            np.subtract(best_theta, theta, out=pull)
            block *= pulls[t - 1, 0, :, None]
            velocity += pull
            np.subtract(gbest[:, :, None], theta, out=pull)
            block *= pulls[t - 1, 1, :, None]
            velocity += pull
            # np.clip(velocity, -bound, bound) in two ufunc calls: bound > 0
            np.maximum(low, velocity, out=velocity)
            np.minimum(bound, velocity, out=velocity)
            theta += velocity
            theta = project_theta_batch(theta.reshape(d, -1).T, config).T.reshape(d, s, p)
        flat = theta.reshape(d, -1)
        fitness, _, _ = kernels.swarm_fitness(flat[:n].T, flat[n:].T, scenario, config,
                                              gains=gains, plan=plan)
        fitness = fitness.reshape(s, p)
        if t > 0:  # a particle's first evaluation is its personal best
            np.greater(fitness, best_fitness, out=improved)
            np.copyto(best_theta, theta, where=improved)
            np.copyto(best_fitness, fitness, where=improved)
        else:
            best_fitness = fitness
        best = np.argmax(best_fitness, axis=1)
        best += offsets
        best_fitness.take(best, out=trace[t])
        gbest = best_theta.reshape(d, -1).take(best, axis=1)    # (D, S)
        gbest_thetas[:, t] = gbest.T

    return [PsoResult(best_theta=gt[-1].copy(),
                      best_x=gt[-1, :n].copy(),
                      best_alpha=gt[-1, n:].copy(),
                      best_fitness=float(tr[-1]),
                      trace=tr,
                      gbest_thetas=gt)
            for tr, gt in zip(trace.T.copy(), gbest_thetas)]
