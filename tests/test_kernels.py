"""The numpy fitness kernel and its stages against the scalar ``channel`` and
``noma`` modules, the one scalar oracle of the pipeline."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from pinchsim import SystemConfig, generate_scenario, robust_gains
from pinchsim.noma import conservative_order, conservative_sinr
from pinchsim.channel import compute_channels, effective_channel
from pinchsim.kernels import Plan, effective_channels, row_gains, swarm_fitness
from pinchsim.pso import draw_theta, split_theta
from pinchsim.scenario import Scenario, stack_scenarios


def reference_fitness(theta, scenario, config, eps, eta_r):
    """Independent path: compose the single-candidate module operations."""
    xs, alpha = split_theta(theta, config.num_pas)
    h = np.array([effective_channel(xs, u, scenario, config)
                  for u in scenario.users])
    order = conservative_order(h, eps).order
    h_sq = np.abs(h[order]) ** 2
    sinrs = conservative_sinr(h_sq, alpha[order],
                              robust_gains(eps, config.eta_i, eta_r),
                              config.tx_power, config.noise_power)
    gamma = float(sinrs.min())
    v_total = float(conservative_order(h, eps).violations.sum())
    return gamma - config.penalty_mu * v_total, gamma, v_total


def reference_rows(thetas, scenario, config, eps, eta_r):
    """``reference_fitness`` of each row at its own (eps, eta_r), as (P,)
    fitness, min-SINR and violation arrays."""
    rows = [reference_fitness(theta, scenario, config, e, r)
            for theta, e, r in zip(thetas, eps, eta_r)]
    return [np.array(col) for col in zip(*rows)]


def make_batch(config, seed, n_particles=40):
    scenario = generate_scenario(config, seed)
    rng = np.random.default_rng(seed + 1)
    thetas = np.stack([draw_theta(config, rng) for _ in range(n_particles)])
    return scenario, thetas


def fitness(thetas, scenario, config, gains=None):
    n = config.num_pas
    return swarm_fitness(thetas[:, :n], thetas[:, n:], scenario, config, gains=gains)


def point_gains(config, eps, eta_r):
    """Row gains of per-row (eps, eta_r) arrays at the config's eta_i."""
    return row_gains([robust_gains(float(e), config.eta_i, float(r))
                      for e, r in zip(eps, eta_r)], 1)


@pytest.mark.parametrize("eps,eta_r", [(0.1, 0.2), (0.0, 0.0), (0.3, 0.5)])
def test_numpy_kernel_matches_module_composition(eps, eta_r):
    config = SystemConfig()
    scenario, thetas = make_batch(config, 21)
    f, g, v = fitness(thetas, scenario, config,
                      row_gains([robust_gains(eps, config.eta_i, eta_r)], len(thetas)))
    for i in range(thetas.shape[0]):
        f_ref, g_ref, v_ref = reference_fitness(thetas[i], scenario, config, eps, eta_r)
        assert f[i] == pytest.approx(f_ref, rel=1e-9, abs=1e-12)
        assert g[i] == pytest.approx(g_ref, rel=1e-9, abs=1e-12)
        assert v[i] == pytest.approx(v_ref, rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("num_users", [1, 2, 5])
def test_kernel_handles_user_counts(num_users):
    config = SystemConfig(num_users=num_users)
    scenario, thetas = make_batch(config, 13, n_particles=8)
    f, g, v = swarm_fitness(thetas[:, :config.num_pas], thetas[:, config.num_pas:],
                            scenario, config)
    assert np.all(np.isfinite(f)) and np.all(g >= 0) and np.all(v >= 0)
    if num_users == 1:
        assert np.allclose(v, 0.0)


def test_penalty_weight_moves_fitness_only():
    # two users mirrored around the antenna have equal-magnitude channels,
    # so the separation test fails and the violation sum is positive
    config = SystemConfig(num_users=2, num_pas=1, obstacle_count=0)
    scenario = Scenario(users=np.array([[4.0, 3.0, 0.0], [6.0, 3.0, 0.0]]),
                        obstacle_centers=np.zeros((0, 3)),
                        obstacle_radii=np.zeros(0))
    theta = np.array([[5.0, 0.4, 0.4]])
    f, g, v = fitness(theta, scenario, config)
    assert v[0] > 0
    assert f[0] == g[0] - config.penalty_mu * v[0]  # bitwise
    heavier = dataclasses.replace(config, penalty_mu=2.5)
    f_heavy, g_heavy, v_heavy = fitness(theta, scenario, heavier)
    assert (g_heavy[0], v_heavy[0]) == (g[0], v[0])
    assert f_heavy[0] == g[0] - heavier.penalty_mu * v[0]


def test_swarm_fitness_nominal_override():
    # the gains of eps=0 reproduce the perfect-estimate evaluation
    config = SystemConfig()
    scenario, thetas = make_batch(config, 30, n_particles=6)
    nominal_cfg = dataclasses.replace(config, csi_eps=0.0, eta_r=0.0)
    f_override, g_override, _ = fitness(thetas, scenario, config,
                                        point_gains(config, [0.0] * 6, [0.0] * 6))
    f_cfg, g_cfg, _ = fitness(thetas, scenario, nominal_cfg)
    assert np.allclose(f_override, f_cfg, rtol=1e-12)
    assert np.allclose(g_override, g_cfg, rtol=1e-12)


# per-row evaluation points: repeats that are not adjacent, a zero bound with
# nonzero leakage, and a bound close to 1
MIXED_POINTS = [(0.1, 0.2), (0.0, 0.0), (0.3, 0.5), (0.1, 0.2), (0.0, 0.7),
                (0.95, 0.3)]


def mixed_rows(n_rows):
    """Per-row eps and eta_r lists cycling through MIXED_POINTS."""
    points = [MIXED_POINTS[i % len(MIXED_POINTS)] for i in range(n_rows)]
    return [e for e, _ in points], [r for _, r in points]


@pytest.mark.parametrize("config", [
    SystemConfig(),
    SystemConfig(obstacle_count=0),
    SystemConfig(num_users=1),
    SystemConfig(num_users=1, num_pas=1, obstacle_count=0),
])
def test_fitness_loop_body_matches_numpy_kernel(config):
    scenario, thetas = make_batch(config, 17, n_particles=12)
    eps, eta_r = mixed_rows(thetas.shape[0])
    out = reference_rows(thetas, scenario, config, eps, eta_r)
    for got, want in zip(out, fitness(thetas, scenario, config,
                                      point_gains(config, eps, eta_r))):
        assert np.allclose(got, want, rtol=1e-9, atol=1e-15)


@pytest.mark.parametrize("config", [
    SystemConfig(),
    SystemConfig(num_users=1, obstacle_count=0),
    # one row alone is one element per plane, which numpy's reduce would
    # sum pairwise from 8 antennas on
    SystemConfig(num_users=1, num_pas=9, obstacle_count=0),
])
def test_per_row_points_match_stacked_scalar_calls(config):
    scenario, thetas = make_batch(config, 23, n_particles=18)
    eps, eta_r = mixed_rows(thetas.shape[0])
    rows = fitness(thetas, scenario, config, point_gains(config, eps, eta_r))
    for i in range(thetas.shape[0]):
        alone = fitness(thetas[i:i + 1], scenario, config,
                        point_gains(config, eps[i:i + 1], eta_r[i:i + 1]))
        for got, want in zip(rows, alone):
            assert got[i] == want[0]  # bitwise


def test_row_weights_equal_scalar_robust_gains():
    # numpy's array power and Python's ** disagree in the last bit for some
    # eps, so the rows must carry noma's Python-float numbers as they are
    rng = np.random.default_rng(5)
    eps, eta_r = rng.uniform(0.0, 0.99, 2_000), rng.uniform(0.0, 1.0, 2_000)
    points = [robust_gains(e, 0.5, r) for e, r in zip(eps.tolist(), eta_r.tolist())]
    rows = row_gains(points, 3)
    assert all(col.shape == (3 * len(points),) and col.flags.c_contiguous for col in rows)
    for i, point in enumerate(points):
        for col, want in zip(rows, (point.order_ratio, point.signal_scale,
                                    point.interference_scale, point.leakage_scale)):
            assert np.all(col[3 * i:3 * i + 3] == want)  # bitwise


@st.composite
def stacked_batches(draw):
    """Random blocks, each its own scenario, with per-row points."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    o = draw(st.integers(0, 4))
    blocks = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 4))  # per block
    config = SystemConfig(num_users=k, num_pas=n, obstacle_count=o, min_spacing=0.0)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    scenarios = [generate_scenario(config, seed + b) for b in range(blocks)]
    rng = np.random.default_rng(seed)
    thetas = np.stack([draw_theta(config, rng) for _ in range(blocks * rows)])
    eps = draw(st.lists(st.sampled_from([0.0, 0.1, 0.95]) | st.floats(0.0, 0.95),
                        min_size=blocks * rows, max_size=blocks * rows))
    points = [robust_gains(e, config.eta_i, 0.2) for e in eps]
    return scenarios, config, thetas, points


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(stacked_batches())
def test_stacked_rows_equal_separate_calls(case):
    scenarios, config, thetas, points = case
    rows = len(thetas) // len(scenarios)
    stacked = fitness(thetas, stack_scenarios(scenarios), config, row_gains(points, 1))
    for b, scenario in enumerate(scenarios):
        block = slice(b * rows, (b + 1) * rows)
        alone = fitness(thetas[block], scenario, config, row_gains(points[block], 1))
        for got, want in zip(stacked, alone):
            assert np.array_equal(got[block], want)  # bitwise


def _tangent_obstacle(antenna, user, radius, rng):
    """A sphere of the given radius touching the segment at its midpoint."""
    v = user - antenna
    normal = np.cross(v, rng.normal(size=3))
    normal /= np.linalg.norm(normal)
    return (antenna + user) / 2.0 + radius * normal


@st.composite
def geometries(draw):
    """A small random batch: scenario, config, thetas and per-row points."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    o = draw(st.integers(0, 3))
    rows = draw(st.integers(1, 4))
    config = SystemConfig(num_users=k, num_pas=n, obstacle_count=o, min_spacing=0.0)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    users = np.zeros((k, 3))
    users[:, :2] = rng.uniform(0.01, 10.0, (k, 2))
    xs = np.sort(rng.uniform(0.0, config.waveguide_len, (rows, n)), axis=1)
    if draw(st.booleans()):  # user 0 right under antenna 0 of the first row
        users[0, :2] = (xs[0, 0], 0.0)
    centers = rng.uniform(0.0, 1.0, (o, 3)) * [10.0, 10.0, config.pa_height]
    radii = rng.uniform(0.05, 1.0, o)
    if o and draw(st.booleans()):  # obstacle 0 tangent to a link of the first row
        antenna = np.array([xs[0, 0], 0.0, config.pa_height])
        centers[0] = _tangent_obstacle(antenna, users[0], radii[0], rng)
    alphas = rng.dirichlet(np.ones(k), rows) * rng.uniform(0.5, 1.0, (rows, 1))
    eps = np.array(draw(st.lists(st.sampled_from([0.0, 0.05, 0.3, 0.95]) | st.floats(0.0, 0.95),
                                 min_size=rows, max_size=rows)))
    eta_r = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=rows, max_size=rows)))
    scenario = Scenario(users=users, obstacle_centers=centers, obstacle_radii=radii)
    return scenario, config, np.hstack([xs, alphas]), eps, eta_r


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(geometries())
def test_kernel_matches_scalar_oracle_on_random_geometry(case):
    scenario, config, thetas, eps, eta_r = case
    n = config.num_pas
    # skip near-ties in channel magnitude, where the decoding order (and so
    # the SINRs) hinges on the last bit of either path
    for theta in thetas:
        mags = np.sort([abs(effective_channel(theta[:n], u, scenario, config))
                        for u in scenario.users])
        assume(np.all(np.diff(mags) > 1e-9 * mags[1:]))
    f, g, v = fitness(thetas, scenario, config, point_gains(config, eps, eta_r))
    for i, theta in enumerate(thetas):
        f_ref, g_ref, v_ref = reference_fitness(theta, scenario, config, eps[i], eta_r[i])
        scale = abs(g_ref) + config.penalty_mu * abs(v_ref)
        assert g[i] == pytest.approx(g_ref, rel=1e-9, abs=1e-300)
        assert v[i] == pytest.approx(v_ref, rel=1e-9, abs=1e-9 * scale)
        assert f[i] == pytest.approx(f_ref, rel=1e-9, abs=1e-9 * scale)


# the configs of test_cli.py::test_nonfinite_result_is_config_error: guide
# phases that overflow to nan, and SINRs that underflow to 0
OVERFLOWS = [{}, {"waveguide_len": 1e308}, {"tx_power": 1e-320}]


@st.composite
def plan_cases(draw):
    """One (scenario, config, gains) and several particle batches on it; K, N,
    O, the block count and the rows vary from case to case."""
    k, n, o = draw(st.integers(1, 5)), draw(st.integers(1, 10)), draw(st.integers(0, 4))
    blocks, rows = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    config = SystemConfig(num_users=k, num_pas=n, obstacle_count=o, min_spacing=0.0,
                          **draw(st.sampled_from(OVERFLOWS)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    scenario = stack_scenarios([generate_scenario(config, seed + b) for b in range(blocks)])
    rng = np.random.default_rng(seed)
    batches = [np.stack([draw_theta(config, rng) for _ in range(blocks * rows)])
               for _ in range(draw(st.integers(2, 5)))]
    gains = None
    if draw(st.booleans()):
        gains = point_gains(config, *mixed_rows(blocks * rows))
    return scenario, config, gains, batches


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(plan_cases())
def test_reused_plan_equals_fresh_plan_bitwise(case):
    scenario, config, gains, batches = case
    n = config.num_pas
    plan = Plan(scenario, config, len(batches[0]))
    kept = []
    with np.errstate(all="ignore"):
        for thetas in batches:
            xs, alphas = thetas[:, :n], thetas[:, n:]
            reused = (effective_channels(xs, scenario, config, plan),
                      *swarm_fitness(xs, alphas, scenario, config, gains, plan))
            fresh = (effective_channels(xs, scenario, config),
                     *swarm_fitness(xs, alphas, scenario, config, gains))
            for got, want in zip(reused, fresh):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            kept.append((reused, [a.tobytes() for a in reused]))
    # no output is a view of the plan: later calls left every one as it was
    for outputs, saved in kept:
        assert [a.tobytes() for a in outputs] == saved


def test_plan_of_other_objects_is_refused():
    config = SystemConfig()
    scenario = generate_scenario(config, 5)
    _, thetas = make_batch(config, 5, n_particles=6)
    xs, alphas = thetas[:, :config.num_pas], thetas[:, config.num_pas:]
    gains = point_gains(config, *mixed_rows(len(thetas)))
    plan = Plan(scenario, config, len(thetas))
    others = {
        "scenario": (generate_scenario(config, 5), config),  # equal, not the same
        "config": (scenario, dataclasses.replace(config)),
    }
    for sc, cfg in others.values():
        with pytest.raises(ValueError, match="plan"):
            swarm_fitness(xs, alphas, sc, cfg, gains=gains, plan=plan)
        with pytest.raises(ValueError, match="plan"):
            effective_channels(xs, sc, cfg, plan=plan)
    # the objects it was built from pass, with row gains and without
    swarm_fitness(xs, alphas, scenario, config, gains=gains, plan=plan)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(
        swarm_fitness(xs, alphas, scenario, config, plan=plan),
        swarm_fitness(xs, alphas, scenario, config)))


@st.composite
def loop_cases(draw):
    """A batch that reaches the kernel's edge cases.

    N runs past 8, where numpy changes its summation order; O may be 0 and
    K may be 1; a row may put antennas at both ends of the guide; obstacles
    may touch a link; and users may stand hundreds of meters off, so the
    phase runs through tens of thousands of cycles before it is reduced.
    """
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 12))
    o = draw(st.integers(0, 4))
    rows = draw(st.integers(1, 4))
    reach = draw(st.sampled_from([10.0, 300.0]))
    config = SystemConfig(num_users=k, num_pas=n, obstacle_count=o, min_spacing=0.0)
    length = config.waveguide_len
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    users = np.zeros((k, 3))
    users[:, :2] = rng.uniform(0.01, reach, (k, 2))
    xs = np.sort(rng.uniform(0.0, length, (rows, n)), axis=1)
    if draw(st.booleans()):
        xs[:, 0], xs[:, -1] = 0.0, length
    centers = rng.uniform(0.0, 1.0, (o, 3)) * [reach, reach, config.pa_height]
    radii = rng.uniform(0.05, 1.0, o)
    for j in range(draw(st.integers(0, o))):  # obstacle j touches a link of row 0
        antenna = np.array([xs[0, j % n], 0.0, config.pa_height])
        centers[j] = _tangent_obstacle(antenna, users[j % k], radii[j], rng)
    alphas = rng.dirichlet(np.ones(k), rows) * rng.uniform(0.5, 1.0, (rows, 1))
    eps = np.array(draw(st.lists(st.sampled_from([0.0, 0.1, 0.95]) | st.floats(0.0, 0.95),
                                 min_size=rows, max_size=rows)))
    eta_r = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=rows, max_size=rows)))
    scenario = Scenario(users=users, obstacle_centers=centers, obstacle_radii=radii)
    return scenario, config, np.hstack([xs, alphas]), eps, eta_r


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(loop_cases())
def test_kernel_matches_loop_oracle_on_edge_geometry(case):
    scenario, config, thetas, eps, eta_r = case
    n = config.num_pas
    for theta in thetas:  # near-ties decide the order on the last bit, as above
        mags = np.sort([abs(effective_channel(theta[:n], u, scenario, config))
                        for u in scenario.users])
        assume(np.all(np.diff(mags) > 1e-9 * mags[1:]))
    want = reference_rows(thetas, scenario, config, eps, eta_r)
    f, g, v = fitness(thetas, scenario, config, point_gains(config, eps, eta_r))
    scale = np.abs(want[1]) + config.penalty_mu * np.abs(want[2])
    assert np.allclose(g, want[1], rtol=1e-9, atol=1e-300)
    assert np.all(np.abs(v - want[2]) <= 1e-9 * np.maximum(np.abs(want[2]), scale))
    assert np.all(np.abs(f - want[0]) <= 1e-9 * np.maximum(np.abs(want[0]), scale))


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(loop_cases())
def test_channel_stage_matches_scalar_channels_on_edge_geometry(case):
    scenario, config, thetas, _, _ = case
    n = config.num_pas
    h = effective_channels(thetas[:, :n], scenario, config)
    for i, theta in enumerate(thetas):
        # complex values, so a flipped sign of the imaginary part fails
        want = compute_channels(theta[:n], scenario, config).h
        assert np.allclose(h[:, i], want, rtol=1e-9, atol=0.0)


# one user off the near end of the guide, antenna 0 fixed at x = 0 and
# antenna 1 swept over the rest of the guide, no obstacles
PHASE_CONFIG = SystemConfig(num_users=1, num_pas=2, obstacle_count=0)
PHASE_USER = (0.0, 0.5, 0.0)


def reduced_cycles(x):
    """The phase of antenna-at-x's link in whole cycles, reduced to
    [-1/2, 1/2] by the kernel's float operations; unreduced as well."""
    x = np.asarray(x, dtype=float)
    uy, uz = PHASE_USER[1], PHASE_USER[2] - PHASE_CONFIG.pa_height
    vx = PHASE_USER[0] - x
    r = np.sqrt(vx * vx + (uy * uy + uz * uz))
    cycles = r / PHASE_CONFIG.wavelength
    cycles += x / PHASE_CONFIG.guide_wavelength
    return cycles - np.rint(cycles), cycles


def positions_at_phase(target, lo, hi, count):
    """Up to ``count`` antenna coordinates in [lo, hi] whose reduced phase is
    exactly ``target`` (0 or +-1/2): bisect for each crossing of the
    unreduced phase, then scan the neighbouring doubles."""
    found = []
    first = math.ceil(float(reduced_cycles(lo)[1]))
    for m in range(first, first + 200):
        if target == 0.5 and m % 2 or target == -0.5 and not m % 2:
            continue  # m + 1/2 rounds to even: to m when m is even
        goal = m + (abs(target) if target else 0.0)
        a, b = lo, hi
        for _ in range(80):
            mid = 0.5 * (a + b)
            a, b = (mid, b) if reduced_cycles(mid)[1] < goal else (a, mid)
        near = a + np.arange(-64, 65) * np.spacing(a)
        found.extend(near[reduced_cycles(near)[0] == target][:1].tolist())
        if len(found) == count:
            break
    return found


def test_phase_matches_two_antenna_closed_form():
    config = PHASE_CONFIG
    exact = {c: positions_at_phase(c, 2.0, 3.0, 3) for c in (0.5, -0.5, 0.0)}
    assert all(len(xs) == 3 for xs in exact.values())
    x2 = np.concatenate([np.linspace(1.0, config.waveguide_len, 10_000),
                         *exact.values()])
    xs = np.column_stack([np.zeros_like(x2), x2])
    alphas = np.full((len(x2), 1), 0.7)
    _, gamma, _ = swarm_fitness(xs, alphas, Scenario(
        users=np.array([PHASE_USER]), obstacle_centers=np.zeros((0, 3)),
        obstacle_radii=np.zeros(0)), config)

    def link(x):  # amplitude and reduced phase of antenna-at-x's link
        vx = PHASE_USER[0] - x
        uz = PHASE_USER[2] - config.pa_height
        r = math.sqrt(vx * vx + (PHASE_USER[1] ** 2 + uz * uz))
        amp = 10.0 ** (-config.wg_loss / 20.0 * x) * config.wavelength / (4.0 * math.pi) / r
        return amp, float(reduced_cycles(x)[0])

    a1, c1 = link(0.0)
    g_s = robust_gains(config.csi_eps, config.eta_i, config.eta_r).signal_scale
    for i, x in enumerate(x2.tolist()):
        a2, c2 = link(x)
        h_sq = a1 * a1 + a2 * a2 + 2.0 * a1 * a2 * math.cos(2.0 * math.pi * (c1 - c2))
        want = g_s * 0.7 * config.tx_power * h_sq / config.noise_power
        assert gamma[i] == pytest.approx(want, rel=1e-12, abs=0.0), (x, c2)
