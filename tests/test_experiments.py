import copy
import dataclasses
import os
import stat
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from pinchsim import experiments, kernels, pso
from pinchsim import (ExperimentSettings, PsoParams, RobustGains, SCHEMES, SystemConfig,
                      aggregate_mean_db, apply_csi_error, convergence_trace,
                      draw_theta, generate_scenario, optimize, robust_gains,
                      run_scheme, score_candidate, split_theta, swarm_fitness,
                      sweep_epsilon, sweep_users, uniform_layout)
from pinchsim.channel import compute_channels, effective_channel
from pinchsim.noma import conservative_order, min_sinr, true_sinr
from pinchsim.experiments import (records_to_csv_text, realization_seeds,
                                  score_candidates, write_text_atomic)
from pinchsim.scenario import stream

CFG = SystemConfig()
FAST_PSO = PsoParams(num_particles=10, max_iters=15)
FAST_SETTINGS = ExperimentSettings(realizations=3, eps_grid=(0.0, 0.1),
                                   k_grid=(2, 3))


def test_uniform_scheme_equal_split():
    scenario = generate_scenario(CFG, 1)
    rec = run_scheme("Uniform", scenario, CFG, FAST_PSO, 1)
    assert rec.scheme == "Uniform"
    assert rec.min_sinr_db == pytest.approx(10 * np.log10(rec.min_sinr_linear))
    # the scored candidate is the even layout with a 1/K power split
    want = score_candidate(uniform_layout(CFG),
                           np.full(CFG.num_users, 1.0 / CFG.num_users),
                           scenario, CFG)
    assert rec.min_sinr_linear == pytest.approx(want, rel=1e-12)


def test_random_scheme_deterministic():
    scenario = generate_scenario(CFG, 2)
    a = run_scheme("Random", scenario, CFG, FAST_PSO, 2)
    b = run_scheme("Random", scenario, CFG, FAST_PSO, 2)
    assert a == b


def test_unknown_scheme_rejected():
    scenario = generate_scenario(CFG, 1)
    with pytest.raises(ValueError):
        run_scheme("Greedy", scenario, CFG, FAST_PSO, 1)


def test_unknown_score_mode_rejected_before_any_kernel_call(monkeypatch):
    scenario = generate_scenario(CFG, 1)
    x, alpha = uniform_layout(CFG), np.full(CFG.num_users, 1.0 / CFG.num_users)
    for name in ("swarm_fitness", "effective_channels"):
        monkeypatch.setattr(kernels, name, lambda *a, **k: pytest.fail("kernel called"))
    match = "'bogus'.*'conservative'.*'true_sampled'"
    with pytest.raises(ValueError, match=match):
        score_candidate(x, alpha, scenario, CFG, mode="bogus")
    rows = pso.kernel_rows(CFG) + 1  # more than one kernel call's rows
    with pytest.raises(ValueError, match=match):
        score_candidates([x] * rows, [alpha] * rows, scenario, CFG, [0.1] * rows, 1,
                         mode="bogus")


@pytest.mark.parametrize("mode", ["conservative", "true_sampled"])
def test_score_candidates_refuses_a_bound_count_other_than_rows(monkeypatch, mode):
    scenario = generate_scenario(CFG, 1)
    x, alpha = uniform_layout(CFG), np.full(CFG.num_users, 1.0 / CFG.num_users)
    for name in ("swarm_fitness", "effective_channels"):
        monkeypatch.setattr(kernels, name, lambda *a, **k: pytest.fail("kernel called"))
    for bounds in ([0.1], [0.1, 0.2], [0.1] * 6):
        with pytest.raises(ValueError, match=rf"^{len(bounds)} error bounds for 5 rows$"):
            score_candidates([x] * 5, [alpha] * 5, scenario, CFG, bounds, 1, mode)


def test_optimizer_dominates_single_random_draw():
    # over 50 paired realizations the search beats one random candidate >= 90%
    params = PsoParams(num_particles=16, max_iters=40)
    seeds = realization_seeds(99, 50)
    wins = 0
    for seed in seeds:
        scenario = generate_scenario(CFG, seed)
        robust = run_scheme("RobustPSO", scenario, CFG, params, seed)
        random = run_scheme("Random", scenario, CFG, params, seed)
        wins += robust.min_sinr_linear >= random.min_sinr_linear
    assert wins >= 45


def test_sweep_epsilon_record_grid():
    records = sweep_epsilon(CFG, FAST_PSO, FAST_SETTINGS, master_seed=5)
    assert len(records) == len(FAST_SETTINGS.eps_grid) * FAST_SETTINGS.realizations * 4
    values = {(r.sweep_value, r.scheme) for r in records}
    assert len(values) == len(FAST_SETTINGS.eps_grid) * 4
    for r in records:
        assert r.sweep_var == "csi_eps"
        assert r.min_sinr_db == pytest.approx(10 * np.log10(r.min_sinr_linear))


def test_sweep_users_varies_k():
    records = sweep_users(CFG, FAST_PSO, FAST_SETTINGS, master_seed=6)
    ks = sorted({r.sweep_value for r in records})
    assert ks == [2.0, 3.0]
    assert len(records) == 2 * FAST_SETTINGS.realizations * 4


def test_single_user_gets_everything():
    # degenerate case: the whole budget goes to the lone user and the score
    # is that user's interference-free conservative SNR
    cfg1 = SystemConfig(num_users=1)
    scenario = generate_scenario(cfg1, 3)
    rec = run_scheme("Uniform", scenario, cfg1, FAST_PSO, 3)
    h = effective_channel(uniform_layout(cfg1), scenario.users[0], scenario, cfg1)
    gains = robust_gains(cfg1.csi_eps, cfg1.eta_i, cfg1.eta_r)
    want = gains.signal_scale * cfg1.tx_power * abs(h) ** 2 / cfg1.noise_power
    assert rec.min_sinr_linear == pytest.approx(want, rel=1e-9)


def reference_sweep(config, params, settings, master_seed, sweep_var, grid):
    """Each scheme of each (grid point, realization) run on its own."""
    records = []
    for value in grid:
        point = dataclasses.replace(config, **{sweep_var: value})
        for seed in realization_seeds(master_seed, settings.realizations):
            scenario = generate_scenario(point, seed)
            records.extend(run_scheme(scheme, scenario, point, params, seed,
                                      sweep_var=sweep_var, sweep_value=value,
                                      score_mode=settings.score_mode)
                           for scheme in SCHEMES)
    return records


def recorded_calls(monkeypatch, budget):
    """Set ``pso.LOCKSTEP_BUDGET`` (None keeps it) and record the number of
    swarms each ``pso._lockstep`` call steps."""
    if budget is not None:
        monkeypatch.setattr(pso, "LOCKSTEP_BUDGET", budget)
    calls = []
    lockstep = pso._lockstep

    def recording(config, params, scenarios, particles, points):
        calls.append(len(scenarios) * len(points))
        return lockstep(config, params, scenarios, particles, points)

    monkeypatch.setattr(pso, "_lockstep", recording)
    return calls


@pytest.mark.parametrize("score_mode", ["conservative", "true_sampled"])
def test_sweeps_match_one_search_per_scheme(monkeypatch, score_mode):
    settings = ExperimentSettings(realizations=3, eps_grid=(0.1, 0.0, 0.2, 0.1),
                                  k_grid=(3, 2, 3), score_mode=score_mode)
    want_eps = reference_sweep(CFG, FAST_PSO, settings, 12, "csi_eps", settings.eps_grid)
    want_users = reference_sweep(CFG, FAST_PSO, settings, 13, "num_users", settings.k_grid)
    # the default budget takes all 3 realizations in one lockstep call: 3
    # points each in the eps sweep, 2 in each user group; at 1800 kernel
    # tests (4 swarms of 450 at K = 3), the eps sweep's 3 points per
    # realization fit one realization per call and the K = 3 points of the
    # user sweep two, so its 3 realizations take two calls
    for budget, want_calls in [(None, [9, 6, 6]), (1800, [3, 3, 3, 4, 2, 6])]:
        with monkeypatch.context() as patch:
            calls = recorded_calls(patch, budget)
            assert sweep_epsilon(CFG, FAST_PSO, settings, master_seed=12) == want_eps
            assert sweep_users(CFG, FAST_PSO, settings, master_seed=13) == want_users
            assert calls == want_calls


@pytest.mark.parametrize("csi_eps", [0.1, 0.0])
def test_convergence_trace_matches_one_search_per_scheme(monkeypatch, csi_eps):
    config = dataclasses.replace(CFG, csi_eps=csi_eps)
    want = {}
    # NonRobustPSO searches as RobustPSO on the zero-bound config
    for scheme, search_config in (("RobustPSO", config),
                                  ("NonRobustPSO", dataclasses.replace(config, csi_eps=0.0))):
        fitness, rescored = [], []
        for seed in realization_seeds(14, 3):
            scenario = generate_scenario(config, seed)
            res = optimize(scenario, search_config, FAST_PSO, seed)
            fitness.append(res.trace)
            rescored.append(swarm_fitness(*split_theta(res.gbest_thetas, config.num_pas),
                                          scenario, config)[1])
        want[scheme] = np.stack(fitness), np.stack(rescored)
    # the default budget takes all 3 realizations in one lockstep call; a
    # budget of two realizations' searches (one swarm of 450 kernel tests per
    # distinct search point) takes them in calls of 2 and 1
    points = len({robust_gains(e, config.eta_i, config.eta_r) for e in (csi_eps, 0.0)})
    for budget, want_calls in [(None, [3 * points]), (2 * points * 450, [2 * points, points])]:
        with monkeypatch.context() as patch:
            calls = recorded_calls(patch, budget)
            traces = convergence_trace(config, FAST_PSO, num_realizations=3, master_seed=14)
        assert calls == want_calls
        for scheme, (fitness, rescored) in want.items():
            assert np.array_equal(traces.per_realization_fitness[scheme], fitness)
            assert np.array_equal(traces.fitness[scheme], fitness.mean(axis=0))
            assert np.array_equal(traces.rescored_min_sinr[scheme], rescored.mean(axis=0))


def test_scenarios_drawn_one_unit_at_a_time(monkeypatch):
    # a run of up to 2^24 realizations holds only one work unit's scenarios:
    # a budget of 4 swarms of 450 kernel tests takes 2 realizations of 2
    # points (RobustPSO at 0.1, NonRobustPSO at 0) a unit
    monkeypatch.setattr(pso, "LOCKSTEP_BUDGET", 4 * 450)
    events = []
    generate, search = experiments.generate_scenario, pso.search

    def drawing(config, seed):
        events.append("draw")
        return generate(config, seed)

    def searching(scenarios, *args):
        events.append(("search", len(scenarios)))
        return search(scenarios, *args)

    monkeypatch.setattr(experiments, "generate_scenario", drawing)
    monkeypatch.setattr(pso, "search", searching)
    settings = ExperimentSettings(realizations=10, eps_grid=(0.1,))
    records = sweep_epsilon(CFG, dataclasses.replace(FAST_PSO, max_iters=2), settings,
                            master_seed=16, workers=1)
    assert len(records) == 10 * len(SCHEMES)
    assert events == ["draw", "draw", ("search", 2)] * 5


def test_convergence_trace_scores_each_distinct_global_best_once(monkeypatch):
    # the rows handed to scoring are each trajectory's first global best and
    # those where it moved, in (scheme, iteration) order, one call per
    # realization
    want = []
    for seed in realization_seeds(15, 3):
        scenario = generate_scenario(CFG, seed)
        rows = []
        for search_config in (CFG, dataclasses.replace(CFG, csi_eps=0.0)):
            gbests = optimize(scenario, search_config, FAST_PSO, seed).gbest_thetas
            moved = np.r_[True, np.any(gbests[1:] != gbests[:-1], axis=1)]
            rows.append(gbests[moved])
        want.append(np.concatenate(rows))
    scored = []
    score_candidates = experiments.score_candidates

    def recording(xs, alphas, *args):
        scored.append(np.concatenate([xs, alphas], axis=1))
        return score_candidates(xs, alphas, *args)

    monkeypatch.setattr(experiments, "score_candidates", recording)
    convergence_trace(CFG, FAST_PSO, num_realizations=3, master_seed=15)
    assert [len(rows) for rows in scored] == [len(rows) for rows in want]
    assert np.array_equal(np.concatenate(scored), np.concatenate(want))
    assert sum(map(len, want)) < 3 * 2 * (FAST_PSO.max_iters + 1)  # some rows repeat


def test_random_streams_of_a_realization_are_distinct(monkeypatch):
    # every generator a realization creates (users, obstacles, each particle,
    # the Random scheme, the sampled estimate error) starts with draws of its
    # own: on the default geometry (guide length equal to area_x), a particle
    # sharing the users' stream would start with its antennas at their x and y
    first_draws = []
    default_rng = np.random.default_rng

    def recording(seed):
        rng = default_rng(seed)
        first_draws.append(tuple(copy.deepcopy(rng).random(4)))
        return rng

    monkeypatch.setattr(np.random, "default_rng", recording)
    params = PsoParams(num_particles=6, max_iters=1)
    equal_split = np.full(CFG.num_users, 1.0 / CFG.num_users)
    for seed in [0, 5, *realization_seeds(7, 3)]:
        first_draws.clear()
        scenario = generate_scenario(CFG, seed)
        optimize(scenario, CFG, params, seed)
        run_scheme("Random", scenario, CFG, params, seed)
        score_candidate(uniform_layout(CFG), equal_split, scenario, CFG,
                        mode="true_sampled", seed=seed)
        assert len(first_draws) == 2 + params.num_particles + 1 + 1
        assert len(set(first_draws)) == len(first_draws)


def test_true_sampled_score_mode():
    scenario = generate_scenario(CFG, 8)
    rec = run_scheme("Uniform", scenario, CFG, FAST_PSO, 8,
                     score_mode="true_sampled")
    cons = run_scheme("Uniform", scenario, CFG, FAST_PSO, 8)
    assert rec.min_sinr_linear > 0
    # nominal scoring with sampled errors is less pessimistic than worst case
    assert rec.min_sinr_linear >= cons.min_sinr_linear


def sampled_reference(x_pos, alpha, scenario, config, seed):
    """The scalar ``true_sampled`` score of one candidate, and its users'
    sorted estimate magnitudes."""
    h = compute_channels(x_pos, scenario, config).h
    h_hat = apply_csi_error(h, config.csi_eps, stream(seed, "csi_sample"))
    order = conservative_order(h_hat, config.csi_eps).order
    sinrs = true_sinr(np.abs(h[order]) ** 2, alpha[order],
                      config.tx_power, config.noise_power)
    return min_sinr(sinrs), np.sort(np.abs(h_hat))


@st.composite
def sampled_chunks(draw):
    """A scoring chunk: candidates on one scenario and realization seed, each
    at its own error bound."""
    rows = draw(st.integers(1, 8))
    config = SystemConfig(num_users=draw(st.integers(1, 10)), num_pas=draw(st.integers(1, 12)),
                          obstacle_count=draw(st.integers(0, 4)), min_spacing=0.0)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scenario = generate_scenario(config, int(rng.integers(0, 3)))
    seed = int(rng.integers(0, 2 ** 63))
    eps = draw(st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.95]) | st.floats(0.0, 0.95),
                        min_size=rows, max_size=rows))
    thetas = np.stack([draw_theta(config, rng) for _ in range(rows)])
    return thetas, scenario, config, eps, seed


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sampled_chunks())
def test_true_sampled_scores_match_scalar_composition(chunk):
    thetas, scenario, config, eps, seed = chunk
    n = config.num_pas
    want = []
    for theta, e in zip(thetas, eps):
        score, mags = sampled_reference(theta[:n], theta[n:], scenario,
                                        dataclasses.replace(config, csi_eps=e), seed)
        # skip near-ties in estimate magnitude, where the decoding order
        # hinges on the last bits of either path's channels
        assume(np.all(np.diff(mags) > 1e-9 * mags[1:]))
        want.append(score)
    got = score_candidates(thetas[:, :n], thetas[:, n:], scenario, config, eps, seed,
                           mode="true_sampled")
    assert np.allclose(got, want, rtol=1e-9, atol=0.0)


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sampled_chunks(), st.integers(1, 8))
def test_split_scoring_matches_one_call_within_row_bound(chunk, step):
    # a budget of ``step`` rows splits the chunk into kernel calls of at most
    # that many rows, and every score stays bitwise that of one call
    thetas, scenario, config, eps, seed = chunk
    args = (thetas[:, :config.num_pas], thetas[:, config.num_pas:], scenario, config, eps,
            seed)
    tests = config.num_users * config.num_pas * max(config.obstacle_count, 1)
    effective_channels = kernels.effective_channels
    for mode in ("conservative", "true_sampled"):
        whole = score_candidates(*args, mode=mode)
        rows = []

        def recording(xs, *rest):
            rows.append(len(xs))
            return effective_channels(xs, *rest)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pso, "LOCKSTEP_BUDGET", step * tests)
            patch.setattr(kernels, "effective_channels", recording)
            split = score_candidates(*args, mode=mode)
            assert pso.kernel_rows(config) == step
        assert split == whole
        assert len(rows) == -(-len(thetas) // step) and sum(rows) == len(thetas)
        assert max(rows) <= step


def test_true_sampled_takes_one_channel_call_per_scoring_chunk(monkeypatch):
    scored = []
    effective_channels = kernels.effective_channels

    def recording(xs, *args):
        if sys._getframe(1).f_code.co_name == "score_candidates":
            scored.append(len(xs))
        return effective_channels(xs, *args)

    monkeypatch.setattr(kernels, "effective_channels", recording)
    calls = recorded_calls(monkeypatch, 1800)
    settings = ExperimentSettings(realizations=3, k_grid=(3, 2, 3),
                                  score_mode="true_sampled")
    sweep_users(CFG, FAST_PSO, settings, master_seed=13)
    # lockstep calls of 2 and 1 realizations (2 points each) at K = 3 and one
    # of 3 realizations at K = 2; each realization is scored in one call, of
    # 8 rows at K = 3 (two grid points of 4 schemes each) and 4 at K = 2
    assert calls == [4, 2, 6]
    assert scored == [8, 8, 8, 4, 4, 4]


def test_search_point_of_each_mode():
    point = experiments._SEARCH_POINTS
    assert list(point) == list(SCHEMES[:2])
    assert point["RobustPSO"](CFG) == robust_gains(CFG.csi_eps, CFG.eta_i, CFG.eta_r)
    nominal = RobustGains(order_ratio=1.0, signal_scale=1.0, interference_scale=1.0,
                          leakage_scale=0.0)
    for eta_r in (0.0, 0.2, 7.0):
        config = dataclasses.replace(CFG, eta_r=eta_r)
        assert point["NonRobustPSO"](config) == nominal
        # at a zero bound the leakage level has no effect, so both schemes coincide
        assert point["RobustPSO"](dataclasses.replace(config, csi_eps=0.0)) == nominal


def test_robust_and_nominal_agree_at_zero_eps(monkeypatch):
    cfg0 = dataclasses.replace(CFG, csi_eps=0.0, eta_r=0.0)
    scenario = generate_scenario(cfg0, 7)
    params = PsoParams(num_particles=12, max_iters=30)
    results, search = [], pso.search

    def recording(*args):
        found = search(*args)
        results.extend(found[0].values())
        return found

    monkeypatch.setattr(pso, "search", recording)
    a = run_scheme("RobustPSO", scenario, cfg0, params, 5)
    b = run_scheme("NonRobustPSO", scenario, cfg0, params, 5)
    assert dataclasses.replace(a, scheme=b.scheme) == b
    robust, nominal = results
    assert np.array_equal(robust.best_theta, nominal.best_theta)
    assert robust.best_fitness == nominal.best_fitness


def test_fixed_candidates_degrade_with_eps():
    # for a fixed candidate the conservative evaluation is monotone in the
    # error bound, so per-realization Random/Uniform scores never improve
    for seed in (1, 2, 3):
        for scheme in ("Random", "Uniform"):
            last = np.inf
            for eps in (0.0, 0.05, 0.1, 0.15, 0.2):
                c = dataclasses.replace(CFG, csi_eps=eps)
                rec = run_scheme(scheme, generate_scenario(c, seed), c, FAST_PSO, seed)
                assert rec.min_sinr_linear <= last * (1 + 1e-12)
                last = rec.min_sinr_linear


def test_convergence_traces_shapes_and_monotonicity():
    traces = convergence_trace(CFG, FAST_PSO, num_realizations=3, master_seed=7)
    t = FAST_PSO.max_iters + 1
    assert traces.iterations.shape == (t,)
    for scheme in ("RobustPSO", "NonRobustPSO"):
        assert traces.fitness[scheme].shape == (t,)
        assert traces.rescored_min_sinr[scheme].shape == (t,)
        per_real = traces.per_realization_fitness[scheme]
        assert per_real.shape == (3, t)
        assert np.all(np.diff(per_real, axis=1) >= 0)


def test_aggregate_mean_db():
    records = sweep_epsilon(CFG, FAST_PSO, FAST_SETTINGS, master_seed=5)
    agg = aggregate_mean_db(records)
    assert len(agg) == len(FAST_SETTINGS.eps_grid) * 4
    key = (0.1, "Uniform")
    manual = np.mean([r.min_sinr_db for r in records
                      if r.sweep_value == 0.1 and r.scheme == "Uniform"])
    assert agg[key] == pytest.approx(manual)


def test_csv_text_format():
    records = sweep_epsilon(CFG, FAST_PSO,
                            ExperimentSettings(realizations=1, eps_grid=(0.1,)),
                            master_seed=5)
    text = records_to_csv_text(records)
    lines = text.strip().split("\n")
    assert lines[0] == "sweep_var,sweep_value,scheme,seed,min_sinr_linear,min_sinr_db"
    assert len(lines) == 1 + len(SCHEMES)
    first = lines[1].split(",")
    assert first[0] == "csi_eps" and first[2] == "RobustPSO"
    # 9 significant digits on floats
    assert len(first[4].replace(".", "").replace("-", "").lstrip("0").replace("e", "")) <= 11


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_atomic_write_mode_follows_umask(tmp_path, umask, mode):
    # the mode a plain open() gives, not tempfile.mkstemp's 0600
    previous = os.umask(umask)
    try:
        write_text_atomic(str(tmp_path / "out.csv"), "hello\n")
    finally:
        os.umask(previous)
    assert stat.S_IMODE(os.stat(tmp_path / "out.csv").st_mode) == mode


def test_atomic_write_no_partial_on_failure(tmp_path):
    target = tmp_path / "out.csv"
    write_text_atomic(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []
