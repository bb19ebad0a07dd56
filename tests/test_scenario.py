import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchsim import ConfigError, SystemConfig, generate_scenario, uniform_layout


def test_same_seed_same_scenario():
    cfg = SystemConfig()
    a = generate_scenario(cfg, 42)
    b = generate_scenario(cfg, 42)
    assert np.array_equal(a.users, b.users)
    assert np.array_equal(a.obstacle_centers, b.obstacle_centers)
    assert np.array_equal(a.obstacle_radii, b.obstacle_radii)


def test_different_seeds_differ():
    cfg = SystemConfig()
    a = generate_scenario(cfg, 1)
    b = generate_scenario(cfg, 2)
    assert not np.array_equal(a.users, b.users)


def test_geometry_invariants_over_seed_sweep():
    cfg = SystemConfig()
    for seed in range(1000):
        sc = generate_scenario(cfg, seed)
        assert sc.users.shape == (cfg.num_users, 3)
        assert np.all(sc.users[:, 0] > 0) and np.all(sc.users[:, 0] < cfg.area_x)
        assert np.all(sc.users[:, 1] > 0) and np.all(sc.users[:, 1] < cfg.area_y)
        assert np.all(sc.users[:, 2] == 0)
        assert np.all(sc.obstacle_radii > 0)
        assert np.all(sc.obstacle_centers[:, 0] > 0)
        assert np.all(sc.obstacle_centers[:, 0] < cfg.area_x)
        assert np.all(sc.obstacle_centers[:, 1] > 0)
        assert np.all(sc.obstacle_centers[:, 1] < cfg.area_y)
        assert np.all(sc.obstacle_centers[:, 2] > 0)
        assert np.all(sc.obstacle_centers[:, 2] < cfg.pa_height)


def test_uniform_layout_five_on_ten():
    cfg = SystemConfig(num_pas=5, waveguide_len=10.0)
    assert np.allclose(uniform_layout(cfg), [0.0, 2.5, 5.0, 7.5, 10.0])


def test_uniform_layout_single_antenna_midpoint():
    cfg = SystemConfig(num_pas=1, waveguide_len=10.0)
    assert np.allclose(uniform_layout(cfg), [5.0])


def test_uniform_layout_infeasible_spacing():
    # (N-1)*d_min > L is already rejected at config construction
    with pytest.raises(ConfigError):
        SystemConfig(num_pas=2, waveguide_len=10.0, min_spacing=11.0)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 64),
       d=st.one_of(st.floats(1e-100, 1e100), st.integers(1, 1000).map(lambda c: c / 100)),
       above=st.booleans())
def test_uniform_layout_keeps_the_spacing_of_every_config_that_builds(n, d, above):
    # a packed guide: L = fl((N - 1) * d) or the next float up, both of which
    # SystemConfig accepts; a single antenna takes L = d
    L = (n - 1) * d if n > 1 else d
    if above:
        L = float(np.nextafter(L, np.inf))
    cfg = SystemConfig(num_pas=n, min_spacing=d, waveguide_len=L)
    x = uniform_layout(cfg)
    assert x.shape == (n,)
    if n == 1:
        assert x[0] == L / 2
        return
    assert x[0] == 0.0 and x[-1] == L
    # np.linspace's gaps fall short of d by up to 53 ulps (1.2e-14 relative)
    assert np.all(np.diff(x) >= d * (1 - 1e-12))


@pytest.mark.parametrize("field,value", [
    ("blockage_beta", 0.0),
    ("blockage_beta", 1.5),
    ("csi_eps", 1.0),
    ("csi_eps", -0.1),
    ("eta_i", 0.0),
    ("eta_r", -1.0),
    ("penalty_mu", 0.0),
    ("noise_power", 0.0),
    ("tx_power", -1.0),
    ("guide_index", 0.5),
])
def test_invalid_config_rejected(field, value):
    with pytest.raises(ConfigError):
        SystemConfig(**{field: value})


def test_config_error_names_the_invariant():
    with pytest.raises(ConfigError, match="min_spacing"):
        SystemConfig(num_pas=5, waveguide_len=1.0, min_spacing=0.5)
