"""The numpy fitness kernel against a scalar-loop oracle and the composed module ops."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from pinchsim import (SystemConfig, conservative_order, conservative_sinr,
                      effective_channel, generate_scenario, robust_gains)
from pinchsim.kernels import row_gains, swarm_fitness
from pinchsim.pso import draw_theta, split_theta
from pinchsim.scenario import Scenario, stack_scenarios


def fitness_loop(xs, alphas, users, obst_c, obst_r,
                 wavelength, guide_wavelength, wg_loss_db, pa_height,
                 beta, block_rate, tx_power, noise_power,
                 ratio, g_s, g_i, g_r, mu,
                 fitness, gamma_min, viol_sum):
    """Scalar-loop oracle of the kernel pipeline, one candidate at a time.

    It keeps the textbook formulas the kernel rearranges: the closest point
    of each segment as a vector, the full phase through ``math.cos``/``sin``
    and ``sqrt`` of the power-domain guide loss.  ratio, g_s, g_i and g_r
    are the (P,) per-row weights of ``row_gains``; the results are written
    into fitness, gamma_min and viol_sum.
    """
    n_part, n_pas = xs.shape
    n_users = users.shape[0]
    n_obst = obst_c.shape[0]
    k_free = 2.0 * math.pi / wavelength
    k_guide = 2.0 * math.pi / guide_wavelength
    amp0 = wavelength / (4.0 * math.pi)

    h_sq = np.empty(n_users)
    mags = np.empty(n_users)
    order = np.empty(n_users, np.int64)

    for p in range(n_part):
        for k in range(n_users):
            ux = users[k, 0]
            uy = users[k, 1]
            uz = users[k, 2]
            re = 0.0
            im = 0.0
            for n in range(n_pas):
                x = xs[p, n]
                vx = ux - x
                vy = uy
                vz = uz - pa_height
                rsq = vx * vx + vy * vy + vz * vz
                r = math.sqrt(rsq)
                # clearance of the antenna-user segment from the obstacles
                dmin = np.inf
                for o in range(n_obst):
                    wx = obst_c[o, 0] - x
                    wy = obst_c[o, 1]
                    wz = obst_c[o, 2] - pa_height
                    t = (wx * vx + wy * vy + wz * vz) / rsq
                    if t < 0.0:
                        t = 0.0
                    elif t > 1.0:
                        t = 1.0
                    ex = wx - t * vx
                    ey = wy - t * vy
                    ez = wz - t * vz
                    d = math.sqrt(ex * ex + ey * ey + ez * ez) - obst_r[o]
                    if d < 0.0:
                        d = 0.0
                    if d < dmin:
                        dmin = d
                if n_obst == 0:
                    b = 1.0
                else:
                    b = beta + (1.0 - beta) * (1.0 - math.exp(-block_rate * dmin))
                amp = b * math.sqrt(10.0 ** (-wg_loss_db * x / 10.0)) * amp0 / r
                phase = -k_free * r - k_guide * x
                re += amp * math.cos(phase)
                im += amp * math.sin(phase)
            hv = re * re + im * im
            h_sq[k] = hv
            mags[k] = math.sqrt(hv)

        # stable insertion argsort, ascending magnitude with index tie-break
        for k in range(n_users):
            order[k] = k
        for i in range(1, n_users):
            oi = order[i]
            key = mags[oi]
            j = i - 1
            while j >= 0 and mags[order[j]] > key:
                order[j + 1] = order[j]
                j -= 1
            order[j + 1] = oi

        v_total = 0.0
        for k in range(n_users - 1):
            v = ratio[p] * mags[order[k]] - mags[order[k + 1]]
            if v > 0.0:
                v_total += v

        a_total = 0.0
        for k in range(n_users):
            a_total += alphas[p, order[k]]
        gmin = np.inf
        a_before = 0.0
        for k in range(n_users):
            a_k = alphas[p, order[k]]
            hv = h_sq[order[k]]
            a_after = a_total - a_before - a_k
            den = (g_i[p] * tx_power * hv * a_after
                   + g_r[p] * tx_power * hv * a_before
                   + noise_power)
            s = g_s[p] * a_k * tx_power * hv / den
            if s < gmin:
                gmin = s
            a_before += a_k
        fitness[p] = gmin - mu * v_total
        gamma_min[p] = gmin
        viol_sum[p] = v_total


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


def make_batch(config, seed, n_particles=40):
    scenario = generate_scenario(config, seed)
    rng = np.random.default_rng(seed + 1)
    thetas = np.stack([draw_theta(config, rng) for _ in range(n_particles)])
    return scenario, thetas


def loop_args(thetas, scenario, config, gains):
    """The loop oracle's positional arguments for a batch and its row gains."""
    n = config.num_pas
    return (thetas[:, :n], thetas[:, n:],
            scenario.users, scenario.obstacle_centers, scenario.obstacle_radii,
            config.wavelength, config.guide_wavelength, config.wg_loss,
            config.pa_height, config.blockage_beta, config.blockage_alpha,
            config.tx_power, config.noise_power, *gains, config.penalty_mu)


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
                        obstacle_radii=np.zeros(0), seed=0)
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
    gains = point_gains(config, *mixed_rows(thetas.shape[0]))
    out = [np.empty(thetas.shape[0]) for _ in range(3)]
    fitness_loop(*loop_args(thetas, scenario, config, gains), *out)
    for got, want in zip(out, fitness(thetas, scenario, config, gains)):
        assert np.allclose(got, want, rtol=1e-9, atol=1e-15)


@pytest.mark.parametrize("config", [SystemConfig(), SystemConfig(num_users=1,
                                                                 obstacle_count=0)])
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
    scenario = Scenario(users=users, obstacle_centers=centers, obstacle_radii=radii, seed=0)
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


@st.composite
def loop_cases(draw):
    """A batch for the loop oracle that reaches the kernel's edge cases.

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
    scenario = Scenario(users=users, obstacle_centers=centers, obstacle_radii=radii, seed=0)
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
    gains = point_gains(config, eps, eta_r)
    want = [np.empty(thetas.shape[0]) for _ in range(3)]
    fitness_loop(*loop_args(thetas, scenario, config, gains), *want)
    f, g, v = fitness(thetas, scenario, config, gains)
    scale = np.abs(want[1]) + config.penalty_mu * np.abs(want[2])
    assert np.allclose(g, want[1], rtol=1e-9, atol=1e-300)
    assert np.all(np.abs(v - want[2]) <= 1e-9 * np.maximum(np.abs(want[2]), scale))
    assert np.all(np.abs(f - want[0]) <= 1e-9 * np.maximum(np.abs(want[0]), scale))
