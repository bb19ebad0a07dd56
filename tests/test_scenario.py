import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchsim import (ConfigError, ExperimentSettings, PsoParams, SystemConfig,
                      generate_scenario, uniform_layout)


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


TINY = math.nextafter(0.0, 1.0)        # the least positive float
BELOW_ONE = math.nextafter(1.0, 0.0)
ABOVE_ONE = math.nextafter(1.0, 2.0)
ETA_I_MAX = 1.3407807929942596e+154  # the largest eta_i with (1 + eta_i)**2 finite
CAP = 2 ** 24                          # MAX_ELEMENTS, every size field's upper end


def _bound(cls, field, value, inside, must, then=None, **others):
    """A case of ``test_invalid_config_rejected``: ``value`` is refused as
    "<field> <must>, got <value>", and ``inside``, across the bound from it,
    builds together with ``others``, or is refused only by the cross-field
    rule ``then``."""
    return pytest.param(cls, field, value, inside, must, then, others, id=f"{field}-{value}")


# Every bounded field and grid, with its bounds written out here rather than
# read from the field metadata, so that a wrong domain entry fails the test.
# Open float bounds are approached by their nearest floats.
@pytest.mark.parametrize("cls,field,value,inside,must,then,others", [
    _bound(SystemConfig, "num_users", 0, 1, "must be in [1, 16777216]"),
    _bound(SystemConfig, "num_users", CAP + 1, CAP, "must be in [1, 16777216]"),
    _bound(SystemConfig, "num_pas", 0, 1, "must be in [1, 16777216]"),
    _bound(SystemConfig, "num_pas", CAP + 1, CAP, "must be in [1, 16777216]", min_spacing=0.0),
    _bound(SystemConfig, "waveguide_len", 0.0, TINY, "must be > 0", num_pas=1),
    _bound(SystemConfig, "pa_height", 0.0, TINY, "must be > 0"),
    _bound(SystemConfig, "min_spacing", -TINY, 0.0, "must be >= 0"),
    _bound(SystemConfig, "area_x", 0.0, TINY, "must be > 0"),
    _bound(SystemConfig, "area_y", 0.0, TINY, "must be > 0"),
    _bound(SystemConfig, "carrier_freq", 0.0, TINY, "must be > 0",
           then="carrier_freq = 5e-324 with guide_index = 1.4 must give a finite positive "
                "wavelength and guide wavelength, got inf and inf"),
    _bound(SystemConfig, "guide_index", BELOW_ONE, 1.0, "must be >= 1"),
    _bound(SystemConfig, "guide_index", 0.5, 1.0, "must be >= 1"),
    _bound(SystemConfig, "wg_loss", -TINY, 0.0, "must be >= 0"),
    _bound(SystemConfig, "tx_power", 0.0, TINY, "must be > 0"),
    _bound(SystemConfig, "tx_power", -1.0, TINY, "must be > 0"),
    _bound(SystemConfig, "noise_power", 0.0, TINY, "must be > 0"),
    _bound(SystemConfig, "blockage_beta", 0.0, TINY, "must be in (0, 1]"),
    _bound(SystemConfig, "blockage_beta", ABOVE_ONE, 1.0, "must be in (0, 1]"),
    _bound(SystemConfig, "blockage_beta", 1.5, 1.0, "must be in (0, 1]"),
    _bound(SystemConfig, "blockage_alpha", 0.0, TINY, "must be > 0"),
    _bound(SystemConfig, "csi_eps", -TINY, 0.0, "must be in [0, 1)"),
    _bound(SystemConfig, "csi_eps", -0.1, 0.0, "must be in [0, 1)"),
    _bound(SystemConfig, "csi_eps", 1.0, BELOW_ONE, "must be in [0, 1)"),
    _bound(SystemConfig, "eta_i", 0.0, TINY, "must be in (0, 1.3407807929942596e+154]"),
    _bound(SystemConfig, "eta_i", math.nextafter(ETA_I_MAX, math.inf), ETA_I_MAX,
           "must be in (0, 1.3407807929942596e+154]"),
    _bound(SystemConfig, "eta_r", -TINY, 0.0, "must be >= 0"),
    _bound(SystemConfig, "eta_r", -1.0, 0.0, "must be >= 0"),
    _bound(SystemConfig, "penalty_mu", 0.0, TINY, "must be > 0"),
    _bound(SystemConfig, "obstacle_count", -1, 0, "must be in [0, 16777216]"),
    _bound(SystemConfig, "obstacle_count", CAP + 1, CAP, "must be in [0, 16777216]"),
    _bound(PsoParams, "num_particles", 0, 1, "must be in [1, 16777216]"),
    _bound(PsoParams, "num_particles", CAP + 1, CAP, "must be in [1, 16777216]"),
    _bound(PsoParams, "max_iters", 0, 1, "must be in [1, 16777216]"),
    _bound(PsoParams, "max_iters", CAP + 1, CAP, "must be in [1, 16777216]"),
    _bound(PsoParams, "inertia", -TINY, 0.0, "must be in [0, 1]"),
    _bound(PsoParams, "inertia", ABOVE_ONE, 1.0, "must be in [0, 1]"),
    _bound(PsoParams, "cognitive", -TINY, 0.0, "must be >= 0"),
    _bound(PsoParams, "social", -TINY, 0.0, "must be >= 0"),
    _bound(PsoParams, "velocity_clamp", 0.0, TINY, "must be > 0"),
    _bound(ExperimentSettings, "realizations", 0, 1, "must be in [1, 16777216]"),
    _bound(ExperimentSettings, "realizations", CAP + 1, CAP, "must be in [1, 16777216]"),
    _bound(ExperimentSettings, "eps_grid", [0.1, -TINY], [0.1, 0.0],
           "values must be in [0, 1)"),
    _bound(ExperimentSettings, "eps_grid", [1.0], [BELOW_ONE], "values must be in [0, 1)"),
    _bound(ExperimentSettings, "k_grid", [2, 0], [2, 1], "values must be in [1, 16777216]"),
    _bound(ExperimentSettings, "k_grid", [2, CAP + 1], [2, CAP],
           "values must be in [1, 16777216]"),
])
def test_invalid_config_rejected(cls, field, value, inside, must, then, others):
    with pytest.raises(ConfigError) as refused:
        cls(**{field: value})
    shown = tuple(value) if isinstance(value, list) else value
    assert str(refused.value) == f"{field} {must}, got {shown}"
    if then is None:
        cls(**{field: inside}, **others)
    else:
        with pytest.raises(ConfigError) as refused:
            cls(**{field: inside}, **others)
        assert str(refused.value) == then


def test_eta_i_bound_is_the_last_with_a_finite_interference_bound():
    assert math.isfinite((1.0 + ETA_I_MAX) ** 2)
    with pytest.raises(OverflowError):
        (1.0 + math.nextafter(ETA_I_MAX, math.inf)) ** 2


def test_config_error_names_the_invariant():
    with pytest.raises(ConfigError, match="min_spacing"):
        SystemConfig(num_pas=5, waveguide_len=1.0, min_spacing=0.5)
