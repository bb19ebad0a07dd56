import dataclasses

import numpy as np
import pytest

from pinchsim import (PsoParams, RobustGains, SystemConfig, generate_scenario,
                      kernels, optimize, robust_gains, swarm_fitness)
from pinchsim import pso
from pinchsim.pso import draw_theta, project_theta_batch, search, split_theta
from pinchsim.scenario import STREAMS, Scenario, stream

CFG = SystemConfig()
SCENARIO = generate_scenario(CFG, 42)
SMALL = PsoParams(num_particles=12, max_iters=30)


def feasible(thetas, config):
    n = config.num_pas
    xs, alphas = thetas[..., :n], thetas[..., n:]
    return (np.all(xs >= -1e-12) and np.all(xs <= config.waveguide_len + 1e-12)
            and np.all(np.diff(xs, axis=-1) >= config.min_spacing - 1e-9)
            and np.all(alphas >= -1e-15)
            and np.all(alphas.sum(axis=-1) <= 1 + 1e-12))


def one_row(theta):
    """(xs, alphas) of a single candidate as a one-row batch."""
    return split_theta(np.asarray(theta)[None, :], CFG.num_pas)


def reference_optimize(scenario, config, params, seed):
    """Independent swarm loop: per-iteration scalar multiplier draws.

    Each step draws r1 for every particle from its own stream, then r2 for
    every particle, moves the whole swarm against the global best of the
    previous step, projects, re-evaluates at the config's own point, and
    keeps personal bests on strict improvement.  Returns the global-best
    fitness trace and thetas.
    """
    n = config.num_pas
    rngs = [np.random.default_rng((seed, STREAMS["particles"], i))
            for i in range(params.num_particles)]
    point = robust_gains(config.csi_eps, config.eta_i, config.eta_r)

    def evaluate(thetas):
        return swarm_fitness(thetas[:, :n], thetas[:, n:], scenario, config,
                             gains=kernels.row_gains([point], len(thetas)))[0]

    theta = np.stack([draw_theta(config, rng) for rng in rngs])
    velocity = np.zeros_like(theta)
    best_theta, best_fitness = theta.copy(), evaluate(theta).copy()
    bound = params.velocity_clamp * np.concatenate(
        [np.full(n, config.waveguide_len), np.ones(config.num_users)])
    gi = int(np.argmax(best_fitness))
    trace, gbests = [best_fitness[gi]], [best_theta[gi].copy()]
    for _ in range(params.max_iters):
        r1 = np.array([rng.random() for rng in rngs])
        r2 = np.array([rng.random() for rng in rngs])
        velocity = (params.inertia * velocity
                    + params.cognitive * r1[:, None] * (best_theta - theta)
                    + params.social * r2[:, None] * (gbests[-1][None, :] - theta))
        np.clip(velocity, -bound, bound, out=velocity)
        theta = project_theta_batch(theta + velocity, config)
        fitness = evaluate(theta)
        improved = fitness > best_fitness
        best_theta[improved] = theta[improved]
        best_fitness[improved] = fitness[improved]
        gi = int(np.argmax(best_fitness))
        trace.append(best_fitness[gi])
        gbests.append(best_theta[gi].copy())
    return np.array(trace), np.stack(gbests)


def recorded_swarms(monkeypatch):
    """Record every candidate batch optimize hands to the fitness kernel."""
    swarms = []

    def recording(xs, alphas, *args, **kwargs):
        swarms.append(np.hstack([xs, alphas]))
        return swarm_fitness(xs, alphas, *args, **kwargs)

    monkeypatch.setattr(kernels, "swarm_fitness", recording)
    return swarms


@pytest.mark.parametrize("config,params,seed,robust", [
    (CFG, SMALL, 0, True),
    (CFG, SMALL, 1, False),
    (CFG, PsoParams(num_particles=1, max_iters=15), 2, True),
    (CFG, PsoParams(num_particles=7, max_iters=10, inertia=0.0,
                    cognitive=0.0, social=0.0), 3, True),
    (SystemConfig(num_users=1, num_pas=1, obstacle_count=0),
     PsoParams(num_particles=5, max_iters=12), 4, True),
    (SystemConfig(num_users=5, num_pas=2, obstacle_count=6, csi_eps=0.3),
     PsoParams(num_particles=9, max_iters=20), 5, True),
])
def test_optimize_matches_reference_loop_bitwise(config, params, seed, robust):
    scenario = generate_scenario(config, seed + 100)
    if not robust:  # a non-robust search is a search of the zero-bound config
        config = dataclasses.replace(config, csi_eps=0.0)
    trace, gbests = reference_optimize(scenario, config, params, seed)
    res = optimize(scenario, config, params, seed=seed)
    assert np.array_equal(res.trace, trace)
    assert np.array_equal(res.gbest_thetas, gbests)
    assert np.array_equal(res.best_theta, gbests[-1])


# 70 particles x 8 users x 8 antennas x 8 obstacles is over half the budget,
# so each search of that shape runs in a call of its own
WIDE = SystemConfig(num_users=8, num_pas=8, obstacle_count=8, min_spacing=0.2)
WIDE_PSO = PsoParams(num_particles=70, max_iters=4)


@pytest.mark.parametrize("config,params,points,stacked_rows", [
    # at eps = 0 every eta_r has the same gains, so (0, 0.7) is the point (0, 0)
    (CFG, SMALL, [(0.1, 0.2), (0.0, 0.0), (0.2, 0.2), (0.1, 0.2), (0.0, 0.0), (0.0, 0.7)],
     3 * 12),
    (CFG, PsoParams(num_particles=1, max_iters=15), [(0.3, 0.5), (0.0, 0.0)], 2),
    (SystemConfig(num_users=1, num_pas=1, obstacle_count=0),
     PsoParams(num_particles=5, max_iters=12), [(0.0, 0.0), (0.4, 0.1), (0.2, 0.0)], 3 * 5),
    (WIDE, WIDE_PSO, [(0.1, 0.2), (0.0, 0.0), (0.05, 0.2)], 70),
])
def test_optimize_points_matches_one_search_per_point(monkeypatch, config, params,
                                                      points, stacked_rows):
    scenario = generate_scenario(config, 8)
    gains = [robust_gains(e, config.eta_i, r) for e, r in points]
    swarms = recorded_swarms(monkeypatch)
    [results] = search([scenario], [9], gains, config, params)
    monkeypatch.undo()
    # distinct points share a kernel call unless the budget splits them
    assert max(len(swarm) for swarm in swarms) == stacked_rows
    assert list(results) == list(dict.fromkeys(gains))
    for point, res in zip(points, (results[g] for g in gains)):
        alone = optimize(scenario, dataclasses.replace(config, csi_eps=point[0],
                                                       eta_r=point[1]),
                         params, seed=9)
        assert np.array_equal(res.trace, alone.trace)
        assert np.array_equal(res.gbest_thetas, alone.gbest_thetas)
        assert np.array_equal(res.best_theta, alone.best_theta)


# the points every realization is searched at: 4 distinct ones, as (0.1, 0.2)
# repeats and at eps = 0 every eta_r has the same gains
REALIZATION_SEEDS = [40, 41, 42, 43]
REALIZATION_POINTS = [robust_gains(e, CFG.eta_i, r) for e, r in
                      [(0.1, 0.2), (0.0, 0.0), (0.2, 0.5), (0.1, 0.2), (0.3, 0.2), (0.0, 0.7)]]
TESTS_PER_SWARM = SMALL.num_particles * CFG.num_users * CFG.num_pas * CFG.obstacle_count


def realization_scenarios():
    return [generate_scenario(CFG, seed + 100) for seed in REALIZATION_SEEDS]


@pytest.mark.parametrize("budget_swarms,chunks", [
    (None, [16]),                    # the default budget: all 16 swarms in one call
    # calls of at most 3 swarms: each realization's 4 points in slices of 3 and 1
    (3, [3, 1] * 4),
])
def test_stacked_realizations_match_one_realization_at_a_time(monkeypatch, budget_swarms,
                                                              chunks):
    if budget_swarms is not None:
        monkeypatch.setattr(pso, "LOCKSTEP_BUDGET", budget_swarms * TESTS_PER_SWARM)
    scenarios = realization_scenarios()
    swarms = recorded_swarms(monkeypatch)
    stacked = search(scenarios, REALIZATION_SEEDS, REALIZATION_POINTS, CFG, SMALL)
    monkeypatch.undo()
    assert [len(swarm) for swarm in swarms] == [
        size * SMALL.num_particles for size in chunks for _ in range(SMALL.max_iters + 1)]
    assert len(stacked) == len(scenarios)
    for scenario, seed, results in zip(scenarios, REALIZATION_SEEDS, stacked):
        [alone] = search([scenario], [seed], REALIZATION_POINTS, CFG, SMALL)
        assert list(results) == list(alone) == list(dict.fromkeys(REALIZATION_POINTS))
        for point, want in alone.items():
            assert np.array_equal(results[point].trace, want.trace)
            assert np.array_equal(results[point].gbest_thetas, want.gbest_thetas)
            assert np.array_equal(results[point].best_theta, want.best_theta)


def test_swarms_per_call_bounds_kernel_batch_and_stacked_state():
    default = PsoParams(num_particles=60, max_iters=200)
    assert pso.swarms_per_call(CFG, default) == pso.LOCKSTEP_BUDGET // (60 * 3 * 5 * 3)
    assert pso.swarms_per_call(WIDE, WIDE_PSO) == 1
    # one particle with 2^20 - 1 iterations: its 2^20 x 8 trajectory, not
    # the kernel budget, bounds a call at 2 swarms
    assert pso.swarms_per_call(CFG, PsoParams(num_particles=1, max_iters=2 ** 20 - 1)) == 2
    # whole realizations per call: as many as fit their points' 24 swarms,
    # and at least one
    assert [pso.realizations_per_call(CFG, default, points)
            for points in (1, 2, 3, 5, 12, 13, 24, 25, 100)] == [24, 12, 8, 4, 2, 1, 1, 1, 1]
    assert pso.realizations_per_call(WIDE, WIDE_PSO, 1) == 1


def test_row_weights_built_once_per_lockstep_call(monkeypatch):
    built = []
    row_gains = kernels.row_gains

    def counting(*args):
        built.append(args)
        return row_gains(*args)

    monkeypatch.setattr(kernels, "row_gains", counting)
    search([SCENARIO], [9], [robust_gains(0.1, CFG.eta_i, 0.2),
                             robust_gains(0.0, CFG.eta_i, 0.0)], CFG, SMALL)
    assert len(built) == 1  # not once per iteration


def test_each_lockstep_call_hands_one_plan_to_its_kernel_calls(monkeypatch):
    # the per-search constants and row gains are computed once per lockstep
    # call and reused by all T + 1 of its kernel calls
    calls = []

    def recording(xs, alphas, scenario, config, gains=None, plan=None):
        calls.append((plan, scenario, config, gains, len(xs)))
        return swarm_fitness(xs, alphas, scenario, config, gains=gains, plan=plan)

    monkeypatch.setattr(pso, "LOCKSTEP_BUDGET", 3 * TESTS_PER_SWARM)
    monkeypatch.setattr(kernels, "swarm_fitness", recording)
    search(realization_scenarios(), REALIZATION_SEEDS, REALIZATION_POINTS, CFG, SMALL)
    steps = SMALL.max_iters + 1
    assert len(calls) == 8 * steps    # each realization's 4 swarms in lockstep calls of 3, 1
    for i in range(0, len(calls), steps):
        (plan, scenario, config, gains, rows), *rest = calls[i:i + steps]
        assert isinstance(plan, kernels.Plan)
        assert plan.scenario is scenario and plan.config is config
        _, _, blocks, per_block = plan.shape
        assert blocks * per_block == len(plan.base) == rows    # S * P rows
        assert rows in (3 * SMALL.num_particles, SMALL.num_particles)
        assert all(same is plan and same_gains is gains and n == rows
                   for same, _, _, same_gains, n in rest)
    assert len({id(plan) for plan, _, _, _, _ in calls}) == 8


def test_kernel_calls_keep_the_harness_contract(monkeypatch):
    # perfbench's tracer wraps kernels.swarm_fitness and reads the scenario
    # at args[2]; one-off callers use the four-argument form
    xs, alphas = one_row(draw_theta(CFG, np.random.default_rng(4)))
    f, gamma, v = kernels.swarm_fitness(xs, alphas, SCENARIO, CFG)
    assert f.shape == gamma.shape == v.shape == (1,)
    seen = []

    def recording(*args, **kwargs):
        seen.append(args)
        return swarm_fitness(*args, **kwargs)

    monkeypatch.setattr(kernels, "swarm_fitness", recording)
    params = PsoParams(num_particles=5, max_iters=7)
    search(realization_scenarios()[:2], REALIZATION_SEEDS[:2], REALIZATION_POINTS, CFG,
           params)
    assert len(seen) == params.max_iters + 1   # one lockstep call of all 8 swarms
    for args in seen:
        assert isinstance(args[2], Scenario)
        assert len(args[0]) == 8 * params.num_particles


def test_particles_return_scaled_multipliers():
    params = PsoParams(num_particles=4, max_iters=6, cognitive=1.3, social=0.7)
    seeds = [11, 12]
    theta, pulls = pso._particles(CFG, params, seeds)   # both seeds in one call
    assert theta.shape == (CFG.num_pas + CFG.num_users, 2, params.num_particles)
    assert pulls.shape == (params.max_iters, 2, 2, params.num_particles)
    for r, seed in enumerate(seeds):
        alone, _ = pso._particles(CFG, params, [seed])
        assert alone[:, 0].tobytes() == theta[:, r].tobytes()
        for i in range(params.num_particles):
            rng = stream(seed, "particles", i)
            pso._raw_theta(CFG, rng)
            draws = rng.random((params.max_iters, 2))
            assert (params.cognitive * draws[:, 0]).tobytes() == pulls[:, 0, r, i].tobytes()
            assert (params.social * draws[:, 1]).tobytes() == pulls[:, 1, r, i].tobytes()


def _stream_and_kernel_events(monkeypatch, params):
    """Budget 2 swarms of ``params`` a lockstep call, and record each stream
    created (by seed) and each kernel call, in order."""
    events = []

    def streaming(seed, *args):
        events.append(("stream", seed))
        return stream(seed, *args)

    def kernel(*args, **kwargs):
        events.append(("kernel", None))
        return swarm_fitness(*args, **kwargs)

    monkeypatch.setattr(pso, "LOCKSTEP_BUDGET",
                        2 * params.num_particles * CFG.num_users * CFG.num_pas
                        * CFG.obstacle_count)
    monkeypatch.setattr(pso, "stream", streaming)
    monkeypatch.setattr(kernels, "swarm_fitness", kernel)
    return events


def test_each_lockstep_call_draws_its_own_particles(monkeypatch):
    # search draws nothing up front: each chunk of realizations, here one
    # call of 2 one-point realizations, creates its own seeds' particle
    # streams, after the previous call's kernel calls
    params = PsoParams(num_particles=4, max_iters=3)
    seeds = [1, 2, 3, 4, 5]
    scenarios = [generate_scenario(CFG, seed) for seed in seeds]
    events = _stream_and_kernel_events(monkeypatch, params)
    search(scenarios, seeds, [robust_gains(0.1, CFG.eta_i, CFG.eta_r)], CFG, params)
    want = []
    for call in ([1, 2], [3, 4], [5]):
        want += [("stream", seed) for seed in call for _ in range(params.num_particles)]
        want += [("kernel", None)] * (params.max_iters + 1)
    assert events == want


def test_a_realization_split_over_calls_draws_its_particles_once(monkeypatch):
    # 3 points and 2 swarms a call: each realization takes calls of 2 and 1
    # swarms, both from the one draw of its seed's streams
    params = PsoParams(num_particles=4, max_iters=3)
    seeds = [6, 7]
    scenarios = [generate_scenario(CFG, seed) for seed in seeds]
    points = [robust_gains(e, CFG.eta_i, CFG.eta_r) for e in (0.0, 0.1, 0.2)]
    events = _stream_and_kernel_events(monkeypatch, params)
    found = search(scenarios, seeds, points, CFG, params)
    want = []
    for seed in seeds:
        want += [("stream", seed)] * params.num_particles
        want += [("kernel", None)] * (2 * (params.max_iters + 1))
    assert events == want
    monkeypatch.undo()
    for scenario, seed, results in zip(scenarios, seeds, found):
        for point in points:  # each as a search of its own
            alone = search([scenario], [seed], [point], CFG, params)[0][point]
            assert alone.gbest_thetas.tobytes() == results[point].gbest_thetas.tobytes()


def test_search_without_points_draws_nothing(monkeypatch):
    monkeypatch.setattr(pso, "_particles", lambda *args: pytest.fail("particles drawn"))
    scenarios = [SCENARIO, generate_scenario(CFG, 43)]
    assert search(scenarios, [1, 2], [], CFG, SMALL) == [{}, {}]


def test_search_at_any_point():
    # the exact worst case of the error disk at eps: signal and interference
    # (1 - eps)^2, leakage eps^2, which no robust_gains call yields
    eps = 0.1
    corner = RobustGains(order_ratio=1.0, signal_scale=(1 - eps) ** 2,
                         interference_scale=(1 - eps) ** 2, leakage_scale=eps ** 2)
    robust = robust_gains(eps, CFG.eta_i, CFG.eta_r)
    [found] = search([SCENARIO], [9], [robust, corner], CFG, SMALL)
    res = found[corner]
    assert np.all(np.diff(res.trace) >= 0)
    f, _, _ = swarm_fitness(*one_row(res.best_theta), SCENARIO, CFG,
                            gains=kernels.row_gains([corner], 1))
    assert res.best_fitness == f[0]
    alone = search([SCENARIO], [9], [corner], CFG, SMALL)[0][corner]
    assert alone.trace.tobytes() == res.trace.tobytes()
    assert alone.gbest_thetas.tobytes() == res.gbest_thetas.tobytes()


def test_frozen_dynamics_leave_swarm_in_place(monkeypatch):
    swarms = recorded_swarms(monkeypatch)
    params = PsoParams(num_particles=8, max_iters=3, inertia=0.0,
                       cognitive=0.0, social=0.0)
    res = optimize(SCENARIO, CFG, params, seed=0)
    assert len(swarms) == params.max_iters + 1
    for swarm in swarms[1:]:
        assert np.allclose(swarm, swarms[0], rtol=1e-12)
    assert np.allclose(res.trace, res.trace[0], rtol=1e-12)


def test_single_particle_at_gbest_is_fixed_point(monkeypatch):
    swarms = recorded_swarms(monkeypatch)
    res = optimize(SCENARIO, CFG, PsoParams(num_particles=1, max_iters=5), seed=1)
    for swarm in swarms:
        assert np.allclose(swarm, swarms[0], rtol=1e-12)
    assert np.allclose(res.gbest_thetas, res.gbest_thetas[0], rtol=1e-12)


def test_particles_feasible_after_every_step(monkeypatch):
    swarms = recorded_swarms(monkeypatch)
    optimize(SCENARIO, CFG, PsoParams(num_particles=10, max_iters=20), seed=2)
    assert len(swarms) == 20 + 1
    for swarm in swarms:
        assert feasible(swarm, CFG)


def test_no_search_returns_initial_fitness():
    params = PsoParams(num_particles=1, max_iters=1)
    res = optimize(SCENARIO, CFG, params, seed=3)
    rng = np.random.default_rng((3, STREAMS["particles"], 0))
    init = project_theta_batch(draw_theta(CFG, rng)[None, :], CFG)[0]
    f0 = swarm_fitness(*one_row(init), SCENARIO, CFG)[0][0]
    assert res.best_fitness == pytest.approx(f0, rel=1e-12)
    assert np.allclose(res.trace, f0, rtol=1e-12)


def test_trace_monotone_nondecreasing():
    for seed in range(5):
        res = optimize(SCENARIO, CFG, SMALL, seed=seed)
        assert np.all(np.diff(res.trace) >= 0)
        assert res.best_fitness == res.trace[-1]


def test_optimize_deterministic():
    a = optimize(SCENARIO, CFG, SMALL, seed=11)
    b = optimize(SCENARIO, CFG, SMALL, seed=11)
    assert np.array_equal(a.best_theta, b.best_theta)
    assert np.array_equal(a.trace, b.trace)
    assert a.best_fitness == b.best_fitness


def test_result_solution_is_feasible():
    res = optimize(SCENARIO, CFG, SMALL, seed=4)
    assert feasible(res.best_theta[None, :], CFG)
    assert res.gbest_thetas.shape == (SMALL.max_iters + 1, CFG.num_pas + CFG.num_users)


def test_search_refuses_realizations_that_do_not_fit():
    with pytest.raises(ValueError, match=r"^2 scenarios for 1 seeds$"):
        search([SCENARIO, SCENARIO], [1], [kernels.NOMINAL], CFG, SMALL)
    with pytest.raises(ValueError, match=r"^1 scenarios for 2 seeds$"):
        search([SCENARIO], [1, 2], [], CFG, SMALL)
    four = generate_scenario(dataclasses.replace(CFG, num_users=4), 1)
    with pytest.raises(ValueError, match=r"^a scenario of 4 users for a config of 3 users$"):
        search([SCENARIO, four], [1, 2], [kernels.NOMINAL], CFG, SMALL)


def test_nonrobust_rescored_under_worst_case():
    res = search([SCENARIO], [6], [kernels.NOMINAL], CFG, SMALL)[0][kernels.NOMINAL]
    # the search's objective is the nominal one
    nominal = kernels.row_gains([robust_gains(0.0, CFG.eta_i, 0.0)], 1)
    f_nominal, _, _ = swarm_fitness(*one_row(res.best_theta), SCENARIO, CFG, gains=nominal)
    assert res.best_fitness == pytest.approx(f_nominal[0], rel=1e-9)


def test_penalized_fitness_decomposition():
    theta = draw_theta(CFG, np.random.default_rng(12))
    f, gamma, v = (a[0] for a in swarm_fitness(*one_row(theta), SCENARIO, CFG))
    assert f == pytest.approx(gamma - CFG.penalty_mu * v, rel=1e-12)
    if v == 0.0:
        assert f == gamma
