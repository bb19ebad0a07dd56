import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pinchsim import SystemConfig
from pinchsim.pso import project_theta_batch


def project_positions_rows(xs, waveguide_len, min_spacing):
    """Row-major oracle of the position projection, one candidate per row:
    clip -> sort -> forward/backward spacing passes over strided columns."""
    n = xs.shape[1]
    xs = np.clip(xs, 0.0, waveguide_len)
    xs = np.sort(xs, axis=1)
    for i in range(1, n):
        xs[:, i] = np.maximum(xs[:, i], xs[:, i - 1] + min_spacing)
    xs[:, n - 1] = np.minimum(xs[:, n - 1], waveguide_len)
    for i in range(n - 2, -1, -1):
        xs[:, i] = np.minimum(xs[:, i], xs[:, i + 1] - min_spacing)
    return xs


def project_simplex_rows(a):
    """Row-major oracle of the simplex projection, one candidate per row,
    whose budget test sums each contiguous row."""
    a = np.maximum(np.asarray(a, dtype=float), 0.0)
    over = a.sum(axis=1) > 1.0
    if np.any(over):
        rows = a[over]
        k = rows.shape[1]
        u = -np.sort(-rows, axis=1)
        cs = np.cumsum(u, axis=1)
        cond = u - (cs - 1.0) / np.arange(1, k + 1) > 0.0
        rho = k - 1 - np.argmax(cond[:, ::-1], axis=1)  # largest index passing
        tau = (cs[np.arange(rows.shape[0]), rho] - 1.0) / (rho + 1.0)
        a[over] = np.maximum(rows - tau[:, None], 0.0)
    return a


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


def project_one(x, a, waveguide_len=10.0, min_spacing=0.0):
    """Project one candidate, positions x and power fractions a, as a
    one-row batch on a config of its shape; returns (positions, powers)."""
    config = SystemConfig(num_pas=len(x), num_users=len(a),
                          waveguide_len=waveguide_len, min_spacing=min_spacing)
    out = project_theta_batch(np.array([[*x, *a]], dtype=float), config)[0]
    return out[:len(x)], out[len(x):]


def feasible_positions(x, L, d_min, tol=1e-9):
    x = np.asarray(x)
    return (np.all(x >= -tol) and np.all(x <= L + tol)
            and np.all(np.diff(x) >= d_min - tol))


def test_positions_already_feasible_unchanged():
    out, _ = project_one([2.0, 5.0, 8.0], [0.0], 10.0, 0.5)
    assert np.array_equal(out, [2.0, 5.0, 8.0])


def test_positions_two_pass_trace():
    # forward pass pushes to [9.9, 10.2], backward pass settles [9.7, 10.0]
    out, _ = project_one([9.9, 9.95], [0.0], 10.0, 0.3)
    assert np.allclose(out, [9.7, 10.0], rtol=1e-12)


def test_positions_clip_then_feasible():
    out, _ = project_one([-1.0, 12.0], [0.0], 10.0, 0.5)
    assert np.allclose(out, [0.0, 10.0])


def test_positions_unsorted_input():
    out, _ = project_one([8.0, 2.0, 5.0], [0.0], 10.0, 0.5)
    assert np.allclose(out, [2.0, 5.0, 8.0])


def test_simplex_slack_kept():
    assert np.array_equal(project_one([0.0], [0.2, 0.3])[1], [0.2, 0.3])


def test_simplex_equal_overflow():
    assert np.allclose(project_one([0.0], [0.8, 0.8])[1], [0.5, 0.5], rtol=1e-12)


def test_simplex_clip_and_threshold():
    assert np.allclose(project_one([0.0], [1.2, -0.1])[1], [1.0, 0.0], atol=1e-12)


def test_simplex_matches_bisection_oracle():
    rng = np.random.default_rng(9)
    for _ in range(500):
        k = rng.integers(1, 8)
        a = rng.uniform(-1.0, 2.0, k)
        assert np.allclose(project_one([0.0], a)[1], simplex_projection_bisection(a),
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
    config = SystemConfig(num_users=4, num_pas=1)
    batch = project_theta_batch(np.hstack([np.zeros((200, 1)), a]), config)[:, 1:]
    for i in range(a.shape[0]):
        assert np.allclose(batch[i], project_one([0.0], a[i])[1], rtol=1e-12)


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


def bits(a):
    """The bytes of an array in C order, which tell -0.0 from 0.0."""
    return np.ascontiguousarray(a).tobytes()


@st.composite
def theta_batches(draw):
    """Raw candidate rows for the bitwise oracle check.

    Positions have tied coordinates, -0.0 among them, on a guide that may
    be exactly (N - 1) * min_spacing long.  Each power block is raw (mostly
    over budget), under budget, scaled to sum within a few ulps of 1, where
    the order of the budget test's sum decides the projection from K = 8
    on, led by exactly tied largest entries, or made of exact zeros, -0.0
    and a few larger entries.  One user is drawn twice as often as each of
    2 to 12.  A sort or a threshold that ordered equal values unlike
    ``np.sort`` would show on the ties and signed zeros.
    """
    n = draw(st.integers(1, 10))
    k = draw(st.sampled_from([1, *range(1, 13)]))  # one user twice as often
    rows = draw(st.integers(1, 6))
    spacing = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    if n > 1 and spacing > 0 and draw(st.booleans()):
        length = (n - 1) * spacing
    else:
        length = (n - 1) * spacing + draw(st.sampled_from([0.5, 3.0, 10.0]))
    config = SystemConfig(num_users=k, num_pas=n, waveguide_len=length,
                          min_spacing=spacing)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.uniform(-2 * length, 3 * length, (rows, n))
    tied = rng.random((rows, n)) < 0.4
    x[tied] = rng.choice([0.0, -0.0, spacing, length / 2, length, length + spacing],
                         tied.sum())
    a = np.empty((rows, k))
    kinds = ["raw", "under", "near_one", "near_one", "tied_top", "zeros"]
    for i, kind in enumerate(draw(st.lists(st.sampled_from(kinds),
                                           min_size=rows, max_size=rows))):
        if kind == "raw":
            a[i] = rng.uniform(-1.0, 2.0, k)
        elif kind == "under":
            a[i] = rng.uniform(0.0, 1.0 / k, k)
        elif kind == "near_one":
            e = rng.random(k) * (rng.random(k) < 0.8) + 1e-3
            a[i] = e / e.sum() * (1.0 + int(rng.integers(-4, 5)) * 2.0 ** -52)
        elif kind == "tied_top":
            a[i] = rng.uniform(-0.5, 0.5, k)
            top = rng.random(k) < 0.5
            top[rng.integers(k)] = True
            a[i, top] = rng.choice([0.25, 0.5, 0.75, 1.5])
        else:
            a[i] = rng.choice([0.0, -0.0, 0.0, -0.0, 0.3, 0.7, 1.5], k)
    return config, np.hstack([x, a])


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(theta_batches())
def test_projection_equals_row_major_oracle_bitwise(case):
    config, raw = case
    n = config.num_pas
    before = raw.copy()
    want = np.hstack([project_positions_rows(raw[:, :n], config.waveguide_len,
                                             config.min_spacing),
                      project_simplex_rows(raw[:, n:])])
    got = project_theta_batch(raw, config)
    assert bits(got) == bits(want)
    assert bits(raw) == bits(before)  # the argument is not written to
    for i in range(raw.shape[0]):  # a candidate projected alone matches its row
        assert bits(project_theta_batch(raw[i:i + 1], config)) == bits(want[i:i + 1])


@pytest.mark.parametrize("k", range(1, 13))
def test_budget_test_sums_each_candidate_contiguously(k):
    # power blocks that sum to within two ulps of 1, where summing term by
    # term and pairwise (numpy's order from 8 terms on) tell apart
    rng = np.random.default_rng(k)
    e = rng.random((2000, k)) + 1e-3
    a = e / e.sum(axis=1, keepdims=True) * (1.0 + rng.integers(-2, 3, (2000, 1)) * 2.0 ** -52)
    raw = np.hstack([np.zeros((2000, 1)), a])
    got = project_theta_batch(raw, SystemConfig(num_users=k, num_pas=1))[:, 1:]
    assert bits(got) == bits(project_simplex_rows(a))
