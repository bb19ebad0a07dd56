import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchsim import SystemConfig, project_positions, project_simplex
from pinchsim.config import ConfigError
from pinchsim.pso import project_simplex_batch, project_theta_batch


def simplex_projection_bisection(a):
    """Independent oracle: solve sum(max(a - tau, 0)) = 1 by bisection."""
    a = np.asarray(a, dtype=float)
    clipped = np.maximum(a, 0.0)
    if clipped.sum() <= 1.0:
        return clipped
    lo, hi = 0.0, a.max()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(a - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(a - 0.5 * (lo + hi), 0.0)


def feasible_positions(x, L, d_min, tol=1e-9):
    x = np.asarray(x)
    return (np.all(x >= -tol) and np.all(x <= L + tol)
            and np.all(np.diff(x) >= d_min - tol))


def test_positions_already_feasible_unchanged():
    out = project_positions([2.0, 5.0, 8.0], 10.0, 0.5)
    assert np.array_equal(out, [2.0, 5.0, 8.0])


def test_positions_two_pass_trace():
    # forward pass pushes to [9.9, 10.2], backward pass settles [9.7, 10.0]
    out = project_positions([9.9, 9.95], 10.0, 0.3)
    assert np.allclose(out, [9.7, 10.0], rtol=1e-12)


def test_positions_clip_then_feasible():
    out = project_positions([-1.0, 12.0], 10.0, 0.5)
    assert np.allclose(out, [0.0, 10.0])


def test_positions_unsorted_input():
    out = project_positions([8.0, 2.0, 5.0], 10.0, 0.5)
    assert np.allclose(out, [2.0, 5.0, 8.0])


def test_positions_infeasible_spacing_rejected():
    with pytest.raises(ConfigError):
        project_positions([0.0, 1.0, 2.0], 1.0, 0.6)


def test_simplex_slack_kept():
    assert np.array_equal(project_simplex([0.2, 0.3]), [0.2, 0.3])


def test_simplex_equal_overflow():
    assert np.allclose(project_simplex([0.8, 0.8]), [0.5, 0.5], rtol=1e-12)


def test_simplex_clip_and_threshold():
    assert np.allclose(project_simplex([1.2, -0.1]), [1.0, 0.0], atol=1e-12)


def test_simplex_matches_bisection_oracle():
    rng = np.random.default_rng(9)
    for _ in range(500):
        k = rng.integers(1, 8)
        a = rng.uniform(-1.0, 2.0, k)
        assert np.allclose(project_simplex(a), simplex_projection_bisection(a),
                           atol=1e-9)


def test_projection_feasibility_and_idempotence_bulk():
    cfg = SystemConfig()
    rng = np.random.default_rng(10)
    n, k = cfg.num_pas, cfg.num_users
    L, d_min = cfg.waveguide_len, cfg.min_spacing
    raw = np.hstack([rng.uniform(-2 * L, 2 * L, (20_000, n)),
                     rng.uniform(-1.0, 2.0, (20_000, k))])
    proj = project_theta_batch(raw, cfg)
    xs, alphas = proj[:, :n], proj[:, n:]
    assert np.all(xs >= 0) and np.all(xs <= L)
    assert np.all(np.diff(xs, axis=1) >= d_min - 1e-12)
    assert np.all(alphas >= 0)
    assert np.all(alphas.sum(axis=1) <= 1 + 1e-12)
    again = project_theta_batch(proj, cfg)
    assert np.allclose(again, proj, rtol=1e-12, atol=1e-15)


def test_simplex_batch_matches_scalar():
    rng = np.random.default_rng(11)
    a = rng.uniform(-1, 2, (200, 4))
    batch = project_simplex_batch(a.copy())
    for i in range(a.shape[0]):
        assert np.allclose(batch[i], project_simplex(a[i]), rtol=1e-12)


@st.composite
def raw_thetas(draw):
    """Raw particles with tied coordinates, on a guide that may be exactly full.

    Spacings are dyadic, so (N - 1) * min_spacing == L holds exactly when
    the guide is full and the only feasible layout is the evenly spaced one.
    """
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 6))
    spacing = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    if n > 1 and spacing > 0 and draw(st.booleans()):
        length = (n - 1) * spacing
    else:
        length = (n - 1) * spacing + draw(st.sampled_from([0.5, 3.0, 10.0]))
    config = SystemConfig(num_users=k, num_pas=n, waveguide_len=length,
                          min_spacing=spacing)
    ties = st.sampled_from([0.0, spacing, length / 2, length, length + spacing])
    x = draw(st.lists(ties | st.floats(-2 * length, 3 * length), min_size=n, max_size=n))
    a = draw(st.lists(st.sampled_from([0.0, 1 / 3, 0.5, 1.0]) | st.floats(-1.0, 2.0),
                      min_size=k, max_size=k))
    return config, np.array([x + a])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(raw_thetas())
def test_projection_feasible_and_idempotent_on_ties_and_full_guide(case):
    config, raw = case
    n, length = config.num_pas, config.waveguide_len
    proj = project_theta_batch(raw, config)
    assert feasible_positions(proj[0, :n], length, config.min_spacing)
    assert np.all(proj[0, n:] >= 0) and proj[0, n:].sum() <= 1 + 1e-12
    again = project_theta_batch(proj, config)
    assert np.all(np.abs(again - proj) <= 1e-12 * np.maximum(np.abs(proj), 1.0))
