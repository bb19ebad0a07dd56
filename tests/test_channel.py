import numpy as np
import pytest

from pinchsim import SystemConfig, generate_scenario
from pinchsim.channel import (blockage_factor, compute_channels, effective_channel,
                              min_obstacle_distance, waveguide_attenuation)
from pinchsim.noma import apply_csi_error
from pinchsim.scenario import Scenario


def empty_scene(users):
    return Scenario(users=np.atleast_2d(users).astype(float),
                    obstacle_centers=np.zeros((0, 3)),
                    obstacle_radii=np.zeros(0))


def segment_distance_bruteforce(a, b, c, samples=2_000_001):
    """Independent oracle: dense sampling of the segment."""
    t = np.linspace(0.0, 1.0, samples)
    pts = np.asarray(a)[None, :] + t[:, None] * (np.asarray(b) - np.asarray(a))[None, :]
    return float(np.min(np.linalg.norm(pts - np.asarray(c)[None, :], axis=1)))


def test_waveguide_attenuation_values():
    assert waveguide_attenuation(0.0, 0.1) == 1.0
    assert waveguide_attenuation(10.0, 3.0) == pytest.approx(1e-3, rel=1e-12)
    # frozen from scalar evaluation of 10^(-0.1*10/10)
    assert waveguide_attenuation(10.0, 0.1) == pytest.approx(0.7943282347242815, rel=1e-12)


def test_waveguide_attenuation_multiplicative():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x1, x2 = rng.uniform(0, 20, 2)
        kappa = rng.uniform(0, 2)
        assert waveguide_attenuation(x1 + x2, kappa) == pytest.approx(
            waveguide_attenuation(x1, kappa) * waveguide_attenuation(x2, kappa),
            rel=1e-12)


def test_blockage_factor_values():
    assert blockage_factor(0.0, 2.0, 0.1) == pytest.approx(0.1, abs=1e-15)
    assert blockage_factor(1e9, 2.0, 0.1) == pytest.approx(1.0, abs=1e-12)
    assert blockage_factor(np.inf, 2.0, 0.1) == 1.0
    # frozen from scalar evaluation of 0.1 + 0.9 * (1 - exp(-2))
    assert blockage_factor(1.0, 2.0, 0.1) == pytest.approx(0.8781982450870486, rel=1e-12)


def test_blockage_factor_monotone_and_bounded():
    d = np.linspace(0, 10, 500)
    b = blockage_factor(d, 2.0, 0.1)
    assert np.all(np.diff(b) >= 0)
    assert np.all(b >= 0.1) and np.all(b <= 1.0)


def test_min_obstacle_distance_center_on_segment():
    d = min_obstacle_distance([0, 0, 3], [0, 5, 0],
                              np.array([[0.0, 2.5, 1.5]]), np.array([0.5]))
    assert d == 0.0
    assert segment_distance_bruteforce([0, 0, 3], [0, 5, 0], [0, 2.5, 1.5]) < 1e-6


def test_min_obstacle_distance_no_obstacles():
    d = min_obstacle_distance([0, 0, 3], [0, 5, 0], np.zeros((0, 3)), np.zeros(0))
    assert d == np.inf
    assert blockage_factor(d, 2.0, 0.1) == 1.0


def test_min_obstacle_distance_offset_sphere():
    # point-to-segment distance 3 minus radius 1
    d = min_obstacle_distance([0, 0, 0], [10, 0, 0],
                              np.array([[5.0, 3.0, 0.0]]), np.array([1.0]))
    assert d == pytest.approx(2.0, rel=1e-12)
    assert segment_distance_bruteforce([0, 0, 0], [10, 0, 0], [5, 3, 0]) == pytest.approx(3.0, abs=1e-6)


def test_min_obstacle_distance_matches_bruteforce_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        pa = rng.uniform(-2, 2, 3)
        user = rng.uniform(3, 6, 3)
        center = rng.uniform(-1, 5, 3)
        radius = rng.uniform(0.1, 1.0)
        got = min_obstacle_distance(pa, user, center[None, :], np.array([radius]))
        want = max(0.0, segment_distance_bruteforce(pa, user, center, 200_001) - radius)
        assert got == pytest.approx(want, abs=1e-4)


def test_effective_channel_single_antenna_magnitude():
    cfg = SystemConfig(num_pas=1, pa_height=3.0)
    user = np.array([0.0, 4.0, 0.0])  # distance 5 from the antenna at (0, 0, 3)
    h = effective_channel(np.array([0.0]), user, empty_scene(user), cfg)
    lam = cfg.wavelength
    assert abs(h) == pytest.approx(lam / (4 * np.pi * 5.0), rel=1e-12)
    assert abs(h) == pytest.approx(1.7040518425846224e-4, rel=1e-9)


def test_effective_channel_phase_at_feed():
    # antenna at x = 0 carries no in-guide phase, so arg(h) = -2 pi r / lambda
    cfg = SystemConfig(num_pas=1)
    user = np.array([0.0, 4.0, 0.0])
    h = effective_channel(np.array([0.0]), user, empty_scene(user), cfg)
    r = 5.0
    want = np.angle(np.exp(-1j * 2 * np.pi / cfg.wavelength * r))
    assert np.angle(h) == pytest.approx(want, abs=1e-9)


def test_effective_channel_dies_with_total_guide_loss():
    cfg = SystemConfig(num_pas=2, wg_loss=1e6)
    user = np.array([5.0, 4.0, 0.0])
    h = effective_channel(np.array([1.0, 2.0]), user, empty_scene(user), cfg)
    assert abs(h) == 0.0


def test_effective_channel_rejects_coincident_user():
    cfg = SystemConfig(num_pas=1, pa_height=3.0)
    user = np.array([0.0, 0.0, 3.0])  # on top of the antenna
    with pytest.raises(ValueError):
        effective_channel(np.array([0.0]), user, empty_scene(user), cfg)


def test_effective_channel_locally_linear_in_position():
    # finite-difference slopes at two step sizes agree -> |h| varies as O(delta)
    cfg = SystemConfig()
    sc = generate_scenario(cfg, 11)
    x = np.array([1.0, 3.0, 5.0, 7.0, 9.0])
    user = sc.users[0]

    def mag(x0):
        xs = x.copy()
        xs[2] = x0
        return abs(effective_channel(xs, user, sc, cfg))

    for d1, d2 in [(1e-6, 1e-7)]:
        s1 = (mag(5.0 + d1) - mag(5.0)) / d1
        s2 = (mag(5.0 + d2) - mag(5.0)) / d2
        assert s1 == pytest.approx(s2, rel=1e-2, abs=1e-12)


def test_apply_csi_error_zero_eps_is_exact():
    rng = np.random.default_rng(0)
    h = 0.3 - 0.4j
    assert apply_csi_error(h, 0.0, rng) == h


class _ForcedRng:
    """Stub returning the boundary draw rho = 1, phi = 0 for every entry."""

    def random(self, shape):
        draws = np.zeros(shape)
        draws[..., 0] = 1.0
        return draws


def test_apply_csi_error_boundary_case():
    assert apply_csi_error(1.0 + 0.0j, 0.1, _ForcedRng()) == pytest.approx(1.1 + 0.0j)


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.3])
def test_csi_magnitude_bounds(eps):
    # |h_hat|/(1+eps) <= |h| <= |h_hat|/(1-eps) over random draws and the boundary
    rng = np.random.default_rng(17)
    n = 10_000
    h = rng.normal(size=n) + 1j * rng.normal(size=n)
    for boundary in (False, True):
        if boundary:
            phi = rng.uniform(0, 2 * np.pi, n)
            h_hat = h + eps * np.abs(h) * np.exp(1j * phi)
        else:
            h_hat = apply_csi_error(h, eps, rng)
        assert np.all(np.abs(h_hat - h) <= eps * np.abs(h) * (1 + 1e-12))
        assert np.all(np.abs(h_hat) / (1 + eps) <= np.abs(h) * (1 + 1e-12))
        assert np.all(np.abs(h) <= np.abs(h_hat) / (1 - eps) * (1 + 1e-12))


def test_compute_channels_consistency():
    cfg = SystemConfig()
    sc = generate_scenario(cfg, 5)
    x = np.array([1.0, 3.0, 5.0, 7.0, 9.0])
    chans = compute_channels(x, sc, cfg)
    # every user's channel is exactly its single-user effective channel
    assert np.array_equal(chans.h, [effective_channel(x, u, sc, cfg) for u in sc.users])
    assert np.array_equal(chans.h_hat, chans.h)
    h_hat = apply_csi_error(chans.h, cfg.csi_eps, np.random.default_rng(1))
    assert np.all(np.abs(h_hat - chans.h) <= cfg.csi_eps * np.abs(chans.h) * (1 + 1e-12))
