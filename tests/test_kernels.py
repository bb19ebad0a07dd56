"""The numpy fitness kernel and its stages against the scalar ``channel`` and
``noma`` modules, the one scalar oracle of the pipeline."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from pinchsim import SystemConfig, experiments, generate_scenario, kernels, robust_gains
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


def test_batch_that_does_not_fit_its_blocks_or_plan_is_refused():
    config = SystemConfig()
    scenario = generate_scenario(config, 5)
    two_blocks = stack_scenarios([scenario, generate_scenario(config, 6)])
    _, thetas = make_batch(config, 5, n_particles=5)
    xs, alphas = thetas[:, :config.num_pas], thetas[:, config.num_pas:]
    with pytest.raises(ValueError, match=r"\b5 rows.*count 2$"):
        swarm_fitness(xs, alphas, two_blocks, config)
    with pytest.raises(ValueError, match=r"\b0 rows.*count 1$"):
        swarm_fitness(xs[:0], alphas[:0], scenario, config)
    plan = Plan(scenario, config, 5)
    with pytest.raises(ValueError, match=r"\b3 rows.*\b5 rows"):
        swarm_fitness(xs[:3], alphas[:3], scenario, config, plan=plan)
    with pytest.raises(ValueError, match=r"\b3 rows.*\b5 rows"):
        effective_channels(xs[:3], scenario, config, plan=plan)


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


# obstacle culling: a plan keeps only the (user, block, obstacle) slots whose
# obstacle can be the link's nearest for an antenna on the guide

def slot_clearances(plan, x):
    """The kernel's clearance of every (user, block, obstacle) slot at each
    antenna x, as (len(x), K B, O), through the kernel's own arithmetic."""
    ux, u_sq, *geometry = plan.slot_geometry
    x = np.asarray(x, dtype=float)[:, None]
    gap = kernels._clearances(x, *kernels._link_offsets(ux, u_sq, x), geometry)
    k, o, blocks, _ = plan.shape
    return gap.reshape(len(x), k * blocks, o)


def kept_mask(plan):
    """The plan's kept slots as a (K B, O) mask, after checking that its
    slot set holds exactly them."""
    k, o, blocks, _ = plan.shape
    with np.errstate(all="ignore"):  # as Plan builds it
        mask = plan._candidates().reshape(k * blocks, o)
    assert len(plan.slots.link) == mask.sum()
    assert np.array_equal(np.bincount(plan.slots.link, minlength=k * blocks), mask.sum(axis=1))
    return mask


def full_slot_plan(scenario, config, rows):
    """A plan that evaluates every slot, as a call off the guide does."""
    plan = Plan(scenario, config, rows)
    k, o, blocks, _ = plan.shape
    plan.slots = kernels._Slots(plan, np.ones(k * blocks * o, dtype=bool))
    return plan


# a guide packed so tightly that the projection leaves antennas a few ulps
# below 0, one packed exactly, and two plain ones
GUIDES = [{"waveguide_len": 1.17, "num_pas": 4, "min_spacing": 0.39},
          {"waveguide_len": 10.0, "num_pas": 5, "min_spacing": 2.5},
          {"waveguide_len": 10.0, "num_pas": 3, "min_spacing": 0.5},
          {"waveguide_len": 40.0, "num_pas": 2, "min_spacing": 0.0}]


@st.composite
def culling_cases(draw):
    """Random stacked scenes on desk- to km-scale areas.  Some obstacles
    shadow obstacle 0: the same centre, the radius smaller by a gap near
    the grid's drop threshold, or by nothing (a tie)."""
    k, o, blocks = draw(st.integers(1, 6)), draw(st.integers(0, 8)), draw(st.integers(1, 3))
    area = draw(st.sampled_from([10.0, 100.0, 2000.0]))
    config = SystemConfig(num_users=k, obstacle_count=o, area_x=area, area_y=area,
                          **draw(st.sampled_from(GUIDES)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shadows = draw(st.integers(0, o // 2))
    scenarios = []
    for b in range(blocks):
        users = np.zeros((k, 3))
        users[:, :2] = rng.uniform(0.01, area, (k, 2))
        centers = rng.uniform(0.0, 1.0, (o, 3)) * [area, area, config.pa_height]
        radii = rng.uniform(0.3, 0.8, o)
        step = config.waveguide_len / kernels.GRID_CELLS
        for j in range(1, shadows + 1):
            centers[j] = centers[0]
            radii[j] = radii[0] - rng.choice([0.0, step * (1 + 1e-6), step + 1e-3, 2 * step])
        scenarios.append(Scenario(users=users, obstacle_centers=centers, obstacle_radii=radii))
    thetas = np.stack([draw_theta(config, rng) for _ in range(blocks * 3)])
    return stack_scenarios(scenarios), config, thetas


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(culling_cases())
def test_dropped_obstacles_are_never_a_links_nearest(case):
    scenario, config, thetas = case
    n, length = config.num_pas, config.waveguide_len
    plan = Plan(scenario, config, len(thetas))
    if not plan.shape[1]:
        return
    mask = kept_mask(plan)
    assert mask.any(axis=1).all()
    # 2,001 points over the guide, the grid, the projected antennas (a few
    # ulps outside the guide on a packed one) and the slack off either end
    x = np.concatenate([np.linspace(0.0, length, 2001),
                        np.linspace(0.0, length, kernels.GRID_CELLS + 1),
                        thetas[:, :n].ravel(), plan.guide])
    gap = slot_clearances(plan, x)
    kept = np.where(mask, gap, np.inf).min(axis=2)
    dropped = np.where(mask, np.inf, gap).min(axis=2)
    assert np.all(dropped > kept)
    # so the kernel's channels equal those of a plan that keeps every slot
    culled = effective_channels(thetas[:, :n], scenario, config, plan)
    full = effective_channels(thetas[:, :n], scenario, config,
                              full_slot_plan(scenario, config, len(thetas)))
    assert culled.tobytes() == full.tobytes()


def test_obstacle_nearest_only_between_grid_points_is_kept():
    # obstacles 0 and 2, of radius h/2, hang just over the antenna line at
    # grid points 64 and 65; obstacle 1, of radius 1 mm, hangs midway, the
    # line 0.5 mm inside it.  At every grid point its clearance exceeds the
    # smallest by more than h/2, yet midway it is the nearest
    config = SystemConfig(num_users=1, num_pas=2, obstacle_count=3, min_spacing=0.0)
    step, height = config.waveguide_len / kernels.GRID_CELLS, config.pa_height
    mid = 64.5 * step
    scenario = Scenario(users=np.array([[mid, 5.0, 0.0]]),
                        obstacle_centers=np.array([[64 * step, 0.0, height + 1e-4],
                                                   [mid, 0.0, height + 5e-4],
                                                   [65 * step, 0.0, height + 1e-4]]),
                        obstacle_radii=np.array([step / 2, 1e-3, step / 2]))
    plan = Plan(scenario, config, 3)
    grid = slot_clearances(plan, np.linspace(0.0, config.waveguide_len,
                                             kernels.GRID_CELLS + 1))[:, 0]
    assert np.all(grid[:, 1] - grid.min(axis=1) > step / 2)
    assert slot_clearances(plan, [mid])[0, 0].argmin() == 1
    assert kept_mask(plan).all()
    xs = np.array([[1.0, mid], [mid - 0.01, 9.0], [2.0, 3.0]])
    h = effective_channels(xs, scenario, config, plan)
    for i, row in enumerate(xs):
        want = effective_channel(row, scenario.users[0], scenario, config)
        assert h[0, i] == pytest.approx(want, rel=1e-9, abs=0.0)


def test_margin_scales_with_the_scene():
    # on desk- and km-scale scenes the margin exceeds 100 sqrt(eps) times
    # the longest centre offset |w| of any link on the guide
    for area in (10.0, 3000.0):
        config = SystemConfig(area_x=area, area_y=area)
        scenario = generate_scenario(config, 8)
        plan = Plan(scenario, config, 1)
        corners = np.array([[0.0, 0.0, config.pa_height],
                            [config.waveguide_len, 0.0, config.pa_height]])
        w = np.linalg.norm(scenario.obstacle_centers[:, None] - corners, axis=2).max()
        assert plan.margin > 100 * math.sqrt(np.finfo(float).eps) * w
        assert plan.guide == (-plan.margin / 4, config.waveguide_len + plan.margin / 4)


def test_default_plan_drops_slots():
    config = SystemConfig()
    seeds = experiments.realization_seeds(20260810, 2)  # the acceptance seed's first two
    scenario = stack_scenarios([generate_scenario(config, s) for s in seeds])
    plan = Plan(scenario, config, 2 * 60)
    k, o, blocks, _ = plan.shape
    assert 0 < len(plan.slots.link) < k * o * blocks
    assert not kept_mask(plan).all()


def test_grid_slices_keep_their_bound_and_mask(monkeypatch):
    config = SystemConfig(num_users=5, obstacle_count=8)
    scenario = stack_scenarios([generate_scenario(config, s) for s in (1, 2, 3)])
    whole = kept_mask(Plan(scenario, config, 3))
    slots = whole.size
    assert not whole.all()
    clearances = kernels._clearances
    for budget in (1, slots, 2 * slots + 1, 50 * slots):
        sizes = []

        def recording(*args, **kwargs):
            gap = clearances(*args, **kwargs)
            sizes.append(gap.size)
            return gap

        monkeypatch.setattr(kernels, "GRID_ELEMENTS", budget)
        monkeypatch.setattr(kernels, "_clearances", recording)
        assert np.array_equal(kept_mask(Plan(scenario, config, 3)), whole)
        assert sizes and max(sizes) <= max(budget, slots)


def test_rows_off_the_guide_use_every_slot():
    # one obstacle near every on-guide link, and two that only links from
    # antennas 5 m off either end of the guide pass
    config = SystemConfig(num_users=1, num_pas=2, obstacle_count=3)
    length = config.waveguide_len
    scenario = Scenario(users=np.array([[5.0, 5.0, 0.0]]),
                        obstacle_centers=np.array([[5.0, 2.6, 1.5], [-5.0, 0.3, 2.8],
                                                   [length + 5.0, 0.3, 2.8]]),
                        obstacle_radii=np.array([0.3, 0.3, 0.3]))
    plan = Plan(scenario, config, 4)
    assert kept_mask(plan).tolist() == [[True, False, False]]
    xs = np.array([[-5.0, 2.0], [3.0, length + 5.0], [np.nan, 4.0], [1.0, 9.0]])
    h = effective_channels(xs, scenario, config, plan)
    clear = dataclasses.replace(scenario, obstacle_radii=np.array([0.3, 1e-9, 1e-9]))
    for i in (0, 1, 3):
        want = effective_channel(xs[i], scenario.users[0], scenario, config)
        assert h[0, i] == pytest.approx(want, rel=1e-9, abs=0.0)
        if i < 2:  # the off-guide obstacles block the off-guide links
            assert abs(want) != pytest.approx(
                abs(effective_channel(xs[i], scenario.users[0], clear, config)), rel=1e-3)
    assert np.isnan(h[0, 2]) and np.isnan(effective_channel(xs[2], scenario.users[0],
                                                            scenario, config))


def test_only_calls_off_the_guide_build_a_full_slot_set(monkeypatch):
    config = SystemConfig(**GUIDES[0])
    scenario = generate_scenario(config, 3)
    rng = np.random.default_rng(3)
    thetas = np.stack([draw_theta(config, rng) for _ in range(20)])
    xs, alphas = thetas[:, :config.num_pas], thetas[:, config.num_pas:]
    assert xs.min() < 0.0  # the packed guide's projection leaves ulps below 0
    plan = Plan(scenario, config, len(xs))
    built = []
    slot_set = kernels._Slots

    def recording(plan, kept):
        built.append(kept.all())
        return slot_set(plan, kept)

    monkeypatch.setattr(kernels, "_Slots", recording)
    swarm_fitness(xs, alphas, scenario, config, plan=plan)
    assert built == []
    outside = xs.copy()
    outside[3, -1] = plan.guide[1] + plan.margin
    swarm_fitness(outside, alphas, scenario, config, plan=plan)
    assert built == [True]


def test_nonfinite_grid_keeps_every_obstacle():
    # guide phases that overflow, as in test_cli's refused configs
    config = SystemConfig(waveguide_len=1e308)
    plan = Plan(generate_scenario(config, 4), config, 5)
    assert kept_mask(plan).all()
    # an obstacle so far off that its squared offset overflows to inf
    config = SystemConfig(num_users=1, obstacle_count=2)
    scenario = Scenario(users=np.array([[5.0, 5.0, 0.0]]),
                        obstacle_centers=np.array([[5.0, 2.5, 1.5], [1e200, 1e200, 1.0]]),
                        obstacle_radii=np.array([0.3, 0.3]))
    plan = Plan(scenario, config, 2)
    with np.errstate(over="ignore"):
        assert np.isinf(slot_clearances(plan, [0.0])).any()
    assert kept_mask(plan).all()
