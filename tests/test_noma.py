import numpy as np
import pytest

from pinchsim import apply_csi_error, robust_gains
from pinchsim.noma import (conservative_order, conservative_sinr, min_sinr,
                           order_violations, sic_decode_sinr, true_sinr)


def conservative_sinr_oracle(h_sq, alpha, tx_power, noise, eps, eta_i, eta_r):
    """Straight-from-the-definition scalar oracle."""
    g_s = (1 - eps) ** 2
    g_i = (1 + eta_i * eps) ** 2
    g_r = eta_r * eps
    out = []
    for k in range(len(h_sq)):
        after = sum(alpha[j] for j in range(k + 1, len(h_sq)))
        before = sum(alpha[j] for j in range(k))
        den = g_i * tx_power * h_sq[k] * after + g_r * tx_power * h_sq[k] * before + noise
        out.append(g_s * alpha[k] * tx_power * h_sq[k] / den)
    return np.array(out)


def test_robust_gains_zero_eps_is_nominal():
    g = robust_gains(0.0, 0.5, 0.2)
    assert (g.order_ratio, g.signal_scale, g.interference_scale,
            g.leakage_scale) == (1.0, 1.0, 1.0, 0.0)
    # the leakage level acts only through eps, so every eta_r is one point at eps = 0
    assert g == robust_gains(0.0, 0.5, 0.0) == robust_gains(0.0, 0.5, 7.0)


def test_robust_gains_default_point():
    g = robust_gains(0.1, 0.5, 0.2)
    assert g.order_ratio == pytest.approx(1.1 / 0.9, rel=1e-12)
    assert g.signal_scale == pytest.approx(0.81, rel=1e-12)
    assert g.interference_scale == pytest.approx(1.1025, rel=1e-12)
    assert g.leakage_scale == pytest.approx(0.02, rel=1e-12)


def test_robust_gains_half_eps():
    g = robust_gains(0.5, 1.0, 1.0)
    assert (g.order_ratio, g.signal_scale, g.interference_scale,
            g.leakage_scale) == (3.0, 0.25, 2.25, 0.5)


def test_conservative_order_well_separated():
    order = conservative_order(np.array([1.0 + 0j, 1.3 + 0j]), 0.1)
    assert order.order.tolist() == [0, 1]
    assert [c.tolist() for c in order.clusters] == [[0], [1]]
    assert np.allclose(order.violations, [0.0])


def test_conservative_order_ambiguous_pair():
    order = conservative_order(np.array([1.0 + 0j, 1.1 + 0j]), 0.1)
    assert [c.tolist() for c in order.clusters] == [[0, 1]]
    assert order.violations[0] == pytest.approx(1.1 / 0.9 - 1.1, rel=1e-12)  # 0.12222...


def test_conservative_order_zero_eps_singletons():
    rng = np.random.default_rng(2)
    h = rng.normal(size=6) + 1j * rng.normal(size=6)
    order = conservative_order(h, 0.0)
    assert all(len(c) == 1 for c in order.clusters)
    mags = np.abs(h)[order.order]
    assert np.all(np.diff(mags) >= 0)


def test_conservative_order_stable_tie_break():
    order = conservative_order(np.array([2.0 + 0j, 1.0 + 0j, 1.0 + 0j]), 0.1)
    assert order.order.tolist() == [1, 2, 0]  # equal magnitudes keep index order


def test_order_violations_examples():
    assert np.allclose(order_violations([1.0, 2.0], 0.1), [0.0])
    assert order_violations([1.0, 1.0], 0.1)[0] == pytest.approx(1.1 / 0.9 - 1.0, rel=1e-12)
    assert np.allclose(order_violations([1.0, 1.5, 9.0], 0.0), [0.0, 0.0])


def test_conservative_sinr_two_user_worked_example():
    got = conservative_sinr([1e-8, 4e-8], [0.8, 0.2],
                            robust_gains(0.1, 0.5, 0.2), 1.0, 1e-9)
    want = conservative_sinr_oracle([1e-8, 4e-8], [0.8, 0.2], 1.0, 1e-9, 0.1, 0.5, 0.2)
    assert np.allclose(got, want, rtol=1e-12)
    # frozen oracle values
    assert got[0] == pytest.approx(2.021840873634946, rel=1e-12)
    assert got[1] == pytest.approx(3.951219512195123, rel=1e-12)


def test_conservative_sinr_single_user_is_snr():
    got = conservative_sinr([2e-8], [1.0], robust_gains(0.0, 0.5, 0.0), 1.0, 1e-9)
    assert got[0] == pytest.approx(2e-8 / 1e-9, rel=1e-12)


def test_conservative_sinr_zero_alpha_zero_sinr():
    got = conservative_sinr([1e-8, 2e-8], [0.0, 0.5],
                            robust_gains(0.1, 0.5, 0.2), 1.0, 1e-9)
    assert got[0] == 0.0


def test_conservative_matches_oracle_random():
    rng = np.random.default_rng(4)
    for _ in range(200):
        k = rng.integers(1, 6)
        h_sq = rng.uniform(1e-9, 1e-6, k)
        alpha = rng.dirichlet(np.ones(k))
        eps = rng.uniform(0, 0.5)
        got = conservative_sinr(h_sq, alpha, robust_gains(eps, 0.5, 0.2), 2.0, 1e-9)
        want = conservative_sinr_oracle(h_sq, alpha, 2.0, 1e-9, eps, 0.5, 0.2)
        assert np.allclose(got, want, rtol=1e-10)


def test_true_sinr_worked_example():
    got = true_sinr([1.0, 2.0], [0.6, 0.4], 1.0, 0.5)
    assert got[0] == pytest.approx(0.6 / 0.9, rel=1e-12)
    assert got[1] == pytest.approx(0.8 / 0.5, rel=1e-12)
    assert np.all(true_sinr([1.0, 2.0], [0.0, 0.0], 1.0, 0.5) == 0.0)


def test_true_sinr_equals_conservative_at_zero_eps():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        k = rng.integers(1, 6)
        h_sq = rng.uniform(1e-9, 1e-5, k)
        alpha = rng.dirichlet(np.ones(k)) * rng.uniform(0.2, 1.0)
        a = conservative_sinr(h_sq, alpha, robust_gains(0.0, 0.5, 0.0), 1.0, 1e-9)
        b = true_sinr(h_sq, alpha, 1.0, 1e-9)
        assert np.allclose(a, b, rtol=1e-12)


def test_conservative_below_true():
    rng = np.random.default_rng(6)
    for eps in (0.05, 0.1, 0.2):
        for _ in range(400):
            k = rng.integers(1, 6)
            h_sq = rng.uniform(1e-9, 1e-5, k)
            alpha = rng.dirichlet(np.ones(k))
            cons = conservative_sinr(h_sq, alpha, robust_gains(eps, 0.5, 0.2), 1.0, 1e-9)
            assert np.all(cons <= true_sinr(h_sq, alpha, 1.0, 1e-9) * (1 + 1e-12))


def test_conservative_sinr_monotone_in_alpha():
    h_sq = np.array([1e-8, 3e-8, 9e-8])
    gains = robust_gains(0.1, 0.5, 0.2)
    base = np.array([0.5, 0.3, 0.2])
    s0 = conservative_sinr(h_sq, base, gains, 1.0, 1e-9)
    for k in range(3):
        up = base.copy()
        up[k] += 0.05
        s1 = conservative_sinr(h_sq, up, gains, 1.0, 1e-9)
        assert s1[k] > s0[k]
        for j in range(3):
            if j != k:
                assert s1[j] <= s0[j] + 1e-15


def test_sinr_scale_invariance():
    # only the noise-to-power ratio and the gains matter
    h_sq = np.array([1e-8, 4e-8])
    alpha = np.array([0.7, 0.3])
    gains = robust_gains(0.1, 0.5, 0.2)
    a = conservative_sinr(h_sq, alpha, gains, 1.0, 1e-9)
    b = conservative_sinr(h_sq * 1e6, alpha, gains, 1.0, 1e-9 * 1e6)
    assert np.allclose(a, b, rtol=1e-12)


def test_sic_decode_sinr_examples():
    alpha = np.array([1.0, 0.3])
    # identical channel gain -> the helper reproduces the user's own SINR
    own = true_sinr([1.0, 1.0], [0.5, 0.5], 1.0, 0.5)[0]
    assert sic_decode_sinr(1.0, 0, np.array([0.5, 0.5]), 1.0, 0.5) == pytest.approx(own)
    # worked scalar: 2 / (2 * 0.3 + 0.5)
    assert sic_decode_sinr(2.0, 0, alpha, 1.0, 0.5) == pytest.approx(2.0 / 1.1, rel=1e-12)
    # interference-limited limit: noise -> 0 leaves alpha_k / S_k
    assert sic_decode_sinr(2.0, 0, alpha, 1.0, 1e-300) == pytest.approx(1.0 / 0.3, rel=1e-9)


def test_sic_reduction_equivalence():
    # decoding user k at a later user j succeeds iff the gain order holds
    rng = np.random.default_rng(7)
    n = 10_000
    h_k = rng.uniform(1e-10, 1e-5, n)
    h_j = rng.uniform(1e-10, 1e-5, n)
    s_k = rng.uniform(0.0, 1.0, n)
    alpha_k = rng.uniform(0.01, 1.0, n)
    noise = rng.uniform(1e-10, 1e-7, n)
    for i in range(n):
        alpha = np.array([alpha_k[i], s_k[i]])
        own = alpha_k[i] * h_k[i] / (s_k[i] * h_k[i] + noise[i])
        dec = sic_decode_sinr(h_j[i], 0, alpha, 1.0, noise[i])
        assert (dec >= own) == (h_j[i] >= h_k[i])


def test_order_soundness_on_error_boundary():
    # when the separation test passes on the estimates, no error realization
    # inside (or on) the bound reverses the true magnitude order
    rng = np.random.default_rng(8)
    eps = 0.1
    ratio = (1 + eps) / (1 - eps)
    checked = 0
    while checked < 10_000:
        n = 20_000
        h_k = rng.uniform(0.1, 2.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        h_j = rng.uniform(0.1, 2.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        # adversarial boundary errors |e| = eps * |h|
        e_k = eps * np.abs(h_k) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        e_j = eps * np.abs(h_j) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        passes = np.abs(h_j + e_j) >= ratio * np.abs(h_k + e_k)
        assert np.all(np.abs(h_j[passes]) >= np.abs(h_k[passes]))
        checked += int(passes.sum())


def test_min_sinr():
    assert min_sinr([2.0, 3.0, 1.5]) == 1.5
    assert min_sinr([4.2]) == 4.2
    assert min_sinr([1.1, 1.1, 1.1]) == 1.1
    with pytest.raises(ValueError):
        min_sinr([])


@pytest.mark.parametrize("k", [1, 3, 9])
def test_apply_csi_error_draws_as_per_user_scalar_pairs(k):
    # the block draw consumes a stream exactly as one random() and one
    # uniform(0, 2 pi) per user, in user order, and leaves it in the same state
    for seed in range(200):
        h = np.random.default_rng(seed + 1).normal(size=(k, 2)) @ [1.0, 1j]
        scalar, block = np.random.default_rng(seed), np.random.default_rng(seed)
        pairs = np.array([(scalar.random(), scalar.uniform(0.0, 2.0 * np.pi))
                          for _ in range(k)])
        want = h + pairs[:, 0] * 0.3 * np.abs(h) * np.exp(1j * pairs[:, 1])
        assert np.array_equal(apply_csi_error(h, 0.3, block), want)  # bitwise
        assert block.random() == scalar.random()
        # a (K, rows) block with per-row bounds: one draw per user, shared by
        # the rows, so each row is the 1-D call on a fresh stream of the seed
        case = np.random.default_rng(seed + 1000)
        rows = int(case.integers(1, 7))
        hs = case.normal(size=(k, rows, 2)) @ [1.0, 1j]
        bounds = case.choice([0.0, 0.05, 0.1, 0.3, 0.95], rows)
        want = np.stack([apply_csi_error(hs[:, i], e, np.random.default_rng(seed))
                         for i, e in enumerate(bounds)], axis=1)
        block, one = np.random.default_rng(seed), np.random.default_rng(seed)
        apply_csi_error(hs[:, 0], bounds[0], one)
        assert np.array_equal(apply_csi_error(hs, bounds, block), want)  # bitwise
        assert block.random() == one.random()
