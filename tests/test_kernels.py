"""Backend agreement: numba kernel vs numpy kernel vs composed module ops."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from pinchsim import (SystemConfig, conservative_order, conservative_sinr,
                      effective_channel, generate_scenario, robust_gains)
from pinchsim.kernels import (NUMBA_AVAILABLE, _fitness_loop, _row_gains,
                              swarm_fitness, swarm_fitness_numba,
                              swarm_fitness_numpy)
from pinchsim.pso import draw_theta, split_theta
from pinchsim.scenario import Scenario


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


def kernel_args(thetas, scenario, config, eps, eta_r):
    n = config.num_pas
    return (np.ascontiguousarray(thetas[:, :n]),
            np.ascontiguousarray(thetas[:, n:]),
            scenario.users, scenario.obstacle_centers, scenario.obstacle_radii,
            config.wavelength, config.guide_wavelength, config.wg_loss,
            config.pa_height, config.blockage_beta, config.blockage_alpha,
            config.tx_power, config.noise_power,
            *_row_gains(eps, config.eta_i, eta_r, thetas.shape[0]), config.penalty_mu)


@pytest.mark.parametrize("eps,eta_r", [(0.1, 0.2), (0.0, 0.0), (0.3, 0.5)])
def test_numpy_kernel_matches_module_composition(eps, eta_r):
    config = SystemConfig()
    scenario, thetas = make_batch(config, 21)
    f, g, v = swarm_fitness_numpy(*kernel_args(thetas, scenario, config, eps, eta_r))
    for i in range(thetas.shape[0]):
        f_ref, g_ref, v_ref = reference_fitness(thetas[i], scenario, config, eps, eta_r)
        assert f[i] == pytest.approx(f_ref, rel=1e-9, abs=1e-12)
        assert g[i] == pytest.approx(g_ref, rel=1e-9, abs=1e-12)
        assert v[i] == pytest.approx(v_ref, rel=1e-9, abs=1e-15)


@pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_numba_and_numpy_backends_agree(seed):
    config = SystemConfig()
    scenario, thetas = make_batch(config, seed)
    args = kernel_args(thetas, scenario, config, 0.1, 0.2)
    f_nb, g_nb, v_nb = swarm_fitness_numba(*args)
    f_np, g_np, v_np = swarm_fitness_numpy(*args)
    assert np.allclose(f_nb, f_np, rtol=1e-9, atol=1e-12)
    assert np.allclose(g_nb, g_np, rtol=1e-9, atol=1e-12)
    assert np.allclose(v_nb, v_np, rtol=1e-9, atol=1e-15)


@pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
def test_backends_agree_without_obstacles():
    config = SystemConfig(obstacle_count=0)
    scenario, thetas = make_batch(config, 5, n_particles=10)
    args = kernel_args(thetas, scenario, config, 0.1, 0.2)
    f_nb, g_nb, _ = swarm_fitness_numba(*args)
    f_np, g_np, _ = swarm_fitness_numpy(*args)
    assert np.allclose(f_nb, f_np, rtol=1e-9)
    assert np.allclose(g_nb, g_np, rtol=1e-9)


@pytest.mark.parametrize("num_users", [1, 2, 5])
def test_kernel_handles_user_counts(num_users):
    config = SystemConfig(num_users=num_users)
    scenario, thetas = make_batch(config, 13, n_particles=8)
    f, g, v = swarm_fitness(thetas[:, :config.num_pas], thetas[:, config.num_pas:],
                            scenario, config)
    assert np.all(np.isfinite(f)) and np.all(g >= 0) and np.all(v >= 0)
    if num_users == 1:
        assert np.allclose(v, 0.0)


def test_zero_penalty_weight_disables_penalty():
    # two users mirrored around the antenna have equal-magnitude channels,
    # so the separation test fails and the violation sum is positive
    config = SystemConfig(num_users=2, num_pas=1, obstacle_count=0)
    scenario = Scenario(users=np.array([[4.0, 3.0, 0.0], [6.0, 3.0, 0.0]]),
                        obstacle_centers=np.zeros((0, 3)),
                        obstacle_radii=np.zeros(0), seed=0)
    args = list(kernel_args(np.array([[5.0, 0.4, 0.4]]), scenario, config,
                            0.1, 0.2))
    f_pen, g_pen, v = swarm_fitness_numpy(*args)
    assert v[0] > 0
    assert f_pen[0] == pytest.approx(g_pen[0] - config.penalty_mu * v[0], rel=1e-12)
    args[-1] = 0.0  # zero penalty weight
    f_off, g_off, _ = swarm_fitness_numpy(*args)
    assert f_off[0] == g_off[0]


def test_swarm_fitness_nominal_override():
    # eps=0, eta_r=0 reproduces the perfect-estimate evaluation
    config = SystemConfig()
    scenario, thetas = make_batch(config, 30, n_particles=6)
    nominal_cfg = dataclasses.replace(config, csi_eps=0.0, eta_r=0.0)
    xs, alphas = thetas[:, :config.num_pas], thetas[:, config.num_pas:]
    f_override, g_override, _ = swarm_fitness(xs, alphas, scenario, config,
                                              eps=0.0, eta_r=0.0)
    f_cfg, g_cfg, _ = swarm_fitness(xs, alphas, scenario, nominal_cfg)
    assert np.allclose(f_override, f_cfg, rtol=1e-12)
    assert np.allclose(g_override, g_cfg, rtol=1e-12)


# per-row evaluation points: repeats that are not adjacent, a zero bound with
# nonzero leakage, and a bound close to 1
MIXED_POINTS = [(0.1, 0.2), (0.0, 0.0), (0.3, 0.5), (0.1, 0.2), (0.0, 0.7),
                (0.95, 0.3)]


def mixed_rows(n_rows):
    """Per-row (eps, eta_r) arrays cycling through MIXED_POINTS."""
    points = [MIXED_POINTS[i % len(MIXED_POINTS)] for i in range(n_rows)]
    return (np.array([e for e, _ in points]), np.array([r for _, r in points]))


@pytest.mark.parametrize("config", [
    SystemConfig(),
    SystemConfig(obstacle_count=0),
    SystemConfig(num_users=1),
    SystemConfig(num_users=1, num_pas=1, obstacle_count=0),
])
def test_fitness_loop_body_matches_numpy_kernel(config):
    # the numba backend's loop body, run as plain Python
    scenario, thetas = make_batch(config, 17, n_particles=12)
    eps, eta_r = mixed_rows(thetas.shape[0])
    args = kernel_args(thetas, scenario, config, eps, eta_r)
    out = [np.empty(thetas.shape[0]) for _ in range(3)]
    _fitness_loop(*args, *out)
    for got, want in zip(out, swarm_fitness_numpy(*args)):
        assert np.allclose(got, want, rtol=1e-9, atol=1e-15)


@pytest.mark.parametrize("config", [SystemConfig(), SystemConfig(num_users=1,
                                                                 obstacle_count=0)])
def test_per_row_points_match_stacked_scalar_calls(config):
    scenario, thetas = make_batch(config, 23, n_particles=18)
    eps, eta_r = mixed_rows(thetas.shape[0])
    n = config.num_pas
    rows = swarm_fitness(thetas[:, :n], thetas[:, n:], scenario, config,
                         eps=eps, eta_r=eta_r)
    for i in range(thetas.shape[0]):
        alone = swarm_fitness(thetas[i:i + 1, :n], thetas[i:i + 1, n:], scenario,
                              config, eps=float(eps[i]), eta_r=float(eta_r[i]))
        for got, want in zip(rows, alone):
            assert got[i] == want[0]  # bitwise


def test_row_weights_equal_scalar_robust_gains():
    # numpy's array power and Python's ** disagree in the last bit for some
    # eps, so the per-row weights must come from Python floats, as in noma
    rng = np.random.default_rng(5)
    eps = np.repeat(rng.uniform(0.0, 0.99, 20_000), 2)
    eta_r = np.repeat(rng.uniform(0.0, 1.0, 20_000), 2)
    ratio, g_s, g_i, g_r = _row_gains(eps, 0.5, eta_r, eps.size)
    for i in range(eps.size):
        e = float(eps[i])
        want = robust_gains(e, 0.5, float(eta_r[i]))
        assert (g_s[i], g_i[i], g_r[i]) == (want.signal_scale, want.interference_scale,
                                            want.leakage_scale)
        assert ratio[i] == (1.0 + e) / (1.0 - e)


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
    f, g, v = swarm_fitness(thetas[:, :n], thetas[:, n:], scenario, config,
                            eps=eps, eta_r=eta_r)
    for i, theta in enumerate(thetas):
        f_ref, g_ref, v_ref = reference_fitness(theta, scenario, config, eps[i], eta_r[i])
        scale = abs(g_ref) + config.penalty_mu * abs(v_ref)
        assert g[i] == pytest.approx(g_ref, rel=1e-9, abs=1e-300)
        assert v[i] == pytest.approx(v_ref, rel=1e-9, abs=1e-9 * scale)
        assert f[i] == pytest.approx(f_ref, rel=1e-9, abs=1e-9 * scale)
