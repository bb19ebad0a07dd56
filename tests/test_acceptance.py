"""Acceptance gate: exact invariants plus desk-scale trend reproduction.

Criteria 1-8 are exact and deterministic; criteria 9-13 run the Monte-Carlo
harness at desk scale (50 realizations, default configuration).  Every
criterion prints one PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s``
to see them as they complete.
"""

import gc
import json
import os
import time

import numpy as np
import pytest

import pinchsim as ps
from pinchsim import noma
from pinchsim.cli import main as cli_main
from pinchsim.pso import project_positions, project_simplex, project_theta_batch

MASTER_SEED = 20260810


def _report(num, description, check):
    try:
        check()
    except AssertionError:
        print(f"FAIL criterion {num:2d}: {description}")
        raise
    print(f"PASS criterion {num:2d}: {description}")


# ---------------------------------------------------------------------------
# invariant suite (exact, deterministic)
# ---------------------------------------------------------------------------

def test_criterion_01_sic_reduction_equivalence():
    def check():
        rng = np.random.default_rng(101)
        n = 10_000
        h_k = rng.uniform(1e-10, 1e-5, n)
        h_j = rng.uniform(1e-10, 1e-5, n)
        s_k = rng.uniform(0.0, 0.9, n)
        a_k = rng.uniform(0.01, 1.0, n)
        noise = rng.uniform(1e-10, 1e-7, n)
        agree = 0
        for i in range(n):
            alpha = np.array([a_k[i], s_k[i]])
            own = noma.true_sinr([h_k[i], 1.0], alpha, 1.0, noise[i])[0]
            dec = noma.sic_decode_sinr(h_j[i], 0, alpha, 1.0, noise[i])
            agree += (dec >= own) == (h_j[i] >= h_k[i])
        assert agree == n  # zero tolerance: boolean agreement on all tuples

    _report(1, "SIC-reduction equivalence on 10^4 random tuples", check)


def test_criterion_02_csi_magnitude_bound():
    def check():
        rng = np.random.default_rng(102)
        n = 10_000
        for eps in (0.05, 0.1, 0.3):
            h = rng.normal(size=n) + 1j * rng.normal(size=n)
            rho = rng.uniform(0.0, 1.0, n)
            rho[: n // 10] = 1.0  # include the boundary |e| = eps |h|
            phi = rng.uniform(0, 2 * np.pi, n)
            h_hat = h + rho * eps * np.abs(h) * np.exp(1j * phi)
            assert np.all(np.abs(h_hat) / (1 + eps) <= np.abs(h) * (1 + 1e-12))
            assert np.all(np.abs(h) <= np.abs(h_hat) / (1 - eps) * (1 + 1e-12))

    _report(2, "estimate-magnitude bounds at eps in {0.05, 0.1, 0.3}", check)


def test_criterion_03_conservative_order_soundness():
    def check():
        rng = np.random.default_rng(103)
        eps = 0.1
        ratio = (1 + eps) / (1 - eps)
        checked = 0
        while checked < 10_000:
            n = 20_000
            h_k = rng.uniform(0.1, 2.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
            h_j = rng.uniform(0.1, 2.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
            e_k = eps * np.abs(h_k) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
            e_j = eps * np.abs(h_j) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
            passes = np.abs(h_j + e_j) >= ratio * np.abs(h_k + e_k)
            assert np.all(np.abs(h_j[passes]) >= np.abs(h_k[passes]))
            checked += int(passes.sum())

    _report(3, "passing separation test never reverses the true order "
               "(10^4 boundary samples)", check)


def _random_instance(rng):
    k = int(rng.integers(1, 6))
    h_sq = rng.uniform(1e-9, 1e-5, k)
    alpha = rng.dirichlet(np.ones(k)) * rng.uniform(0.2, 1.0)
    return h_sq, alpha


def test_criterion_04_degeneracy():
    def check():
        rng = np.random.default_rng(104)
        for _ in range(1000):
            h_sq, alpha = _random_instance(rng)
            cons = noma.conservative_sinr(h_sq, alpha, ps.robust_gains(0.0, 0.5, 0.0),
                                          1.0, 1e-9)
            # independent nominal oracle
            want = np.array([
                alpha[k] * h_sq[k] / (h_sq[k] * alpha[k + 1:].sum() + 1e-9)
                for k in range(len(h_sq))])
            assert np.all(np.abs(cons - want) <= 1e-12 * np.abs(want))

    _report(4, "conservative equals nominal SINR at eps=0, leakage=0 "
               "(<= 1e-12 relative)", check)


def test_criterion_05_conservatism():
    def check():
        rng = np.random.default_rng(105)
        for eps in (0.05, 0.1, 0.2):
            for _ in range(1000):
                h_sq, alpha = _random_instance(rng)
                cons = noma.conservative_sinr(h_sq, alpha,
                                              ps.robust_gains(eps, 0.5, 0.2),
                                              1.0, 1e-9)
                true = noma.true_sinr(h_sq, alpha, 1.0, 1e-9)
                assert np.all(cons <= true * (1 + 1e-12))

    _report(5, "conservative SINR never exceeds nominal SINR "
               "(eps in {0.05, 0.1, 0.2})", check)


def test_criterion_06_projection():
    def check():
        cfg = ps.SystemConfig()
        rng = np.random.default_rng(106)
        n, k, L, d_min = cfg.num_pas, cfg.num_users, cfg.waveguide_len, cfg.min_spacing
        raw = np.hstack([rng.uniform(-2 * L, 2 * L, (100_000, n)),
                         rng.uniform(-1.0, 2.0, (100_000, k))])
        proj = project_theta_batch(raw, cfg)
        xs, alphas = proj[:, :n], proj[:, n:]
        assert np.all(xs >= 0) and np.all(xs <= L)
        assert np.all(np.diff(xs, axis=1) >= d_min - 1e-12)
        assert np.all(alphas >= 0) and np.all(alphas.sum(axis=1) <= 1 + 1e-12)
        again = project_theta_batch(proj, cfg)
        scale = np.maximum(np.abs(proj), 1.0)
        assert np.all(np.abs(again - proj) <= 1e-12 * scale)
        # worked traces
        assert np.allclose(project_positions([9.9, 9.95], 10.0, 0.3), [9.7, 10.0],
                           rtol=1e-12)
        assert np.allclose(project_positions([-1.0, 12.0], 10.0, 0.5), [0.0, 10.0])
        assert np.allclose(project_simplex([0.8, 0.8]), [0.5, 0.5], rtol=1e-12)
        assert np.allclose(project_simplex([1.2, -0.1]), [1.0, 0.0], atol=1e-12)

    _report(6, "projection feasibility + idempotence over 10^5 raw vectors "
               "and worked traces", check)


def test_criterion_07_gbest_trace_monotone():
    def check():
        cfg = ps.SystemConfig()
        params = ps.PsoParams(num_particles=20, max_iters=40)
        for seed in range(20):
            sc = ps.generate_scenario(cfg, seed)
            res = ps.optimize(sc, cfg, params, seed)
            assert np.all(np.diff(res.trace) >= 0)  # exact, not statistical

    _report(7, "global-best trace nondecreasing on 20 seeded runs", check)


def test_criterion_08_csv_determinism(tmp_path):
    def check():
        cfg_path = tmp_path / "small.json"
        cfg_path.write_text(json.dumps({
            "pso": {"num_particles": 8, "max_iters": 10},
            "experiments": {"realizations": 2, "eps_grid": [0.0, 0.1]},
        }))
        outs = []
        for tag, threads in (("a", 1), ("b", 1), ("c", 8)):
            out = tmp_path / f"{tag}.csv"
            code = cli_main(["sweep-eps", "--config", str(cfg_path), "--seed", "7",
                             "--out", str(out), "--threads", str(threads)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]  # re-run
        assert outs[0] == outs[2]  # 1 thread vs 8 threads

    _report(8, "byte-identical CSV across re-runs and thread counts", check)


# ---------------------------------------------------------------------------
# trend reproduction (desk scale: 50 realizations, default config)
# ---------------------------------------------------------------------------

CFG = ps.SystemConfig()
PARAMS = ps.PsoParams()
SETTINGS = ps.ExperimentSettings()
# the sweeps' outputs do not depend on the worker count, which the harness
# caps by the CPUs this process may use
WORKERS = os.cpu_count() or 1


@pytest.fixture(scope="module")
def eps_aggregate():
    records = ps.sweep_epsilon(CFG, PARAMS, SETTINGS, master_seed=MASTER_SEED,
                               workers=WORKERS)
    return ps.aggregate_mean_db(records)


@pytest.fixture(scope="module")
def k_aggregate():
    records = ps.sweep_users(CFG, PARAMS, SETTINGS, master_seed=MASTER_SEED,
                             workers=WORKERS)
    return ps.aggregate_mean_db(records)


@pytest.fixture(scope="module")
def conv_traces():
    return ps.convergence_trace(CFG, PARAMS, SETTINGS.realizations,
                                master_seed=MASTER_SEED, workers=WORKERS)


def test_criterion_09_robust_vs_uniform_gap(eps_aggregate):
    def check():
        gaps = [eps_aggregate[(e, "RobustPSO")] - eps_aggregate[(e, "Uniform")]
                for e in SETTINGS.eps_grid]
        assert np.mean(gaps) >= 5.0

    _report(9, "mean robust-vs-uniform min-SINR gap over the eps grid >= 5 dB",
            check)


def test_criterion_10_robust_vs_nonrobust(eps_aggregate):
    def check():
        for e in SETTINGS.eps_grid:
            if e >= 0.05:
                assert eps_aggregate[(e, "RobustPSO")] >= eps_aggregate[(e, "NonRobustPSO")]
        gap = {e: eps_aggregate[(e, "RobustPSO")] - eps_aggregate[(e, "NonRobustPSO")]
               for e in SETTINGS.eps_grid}
        assert gap[0.20] > gap[0.05]

    _report(10, "robust beats non-robust for eps >= 0.05 and the gap widens",
            check)


def test_every_scheme_mean_nonincreasing_in_eps(eps_aggregate):
    # supplementary trend: mean min-SINR of every scheme degrades with the
    # error bound across the default grid
    for scheme in ps.SCHEMES:
        means = [eps_aggregate[(e, scheme)] for e in SETTINGS.eps_grid]
        assert all(means[i + 1] <= means[i] for i in range(len(means) - 1)), scheme


def test_criterion_11_user_sweep_trends(k_aggregate):
    def check():
        for scheme in ps.SCHEMES:
            means = [k_aggregate[(float(k), scheme)] for k in SETTINGS.k_grid]
            assert all(means[i + 1] <= means[i] for i in range(len(means) - 1))
        for k in SETTINGS.k_grid:
            others = [k_aggregate[(float(k), s)] for s in ps.SCHEMES if s != "RobustPSO"]
            assert k_aggregate[(float(k), "RobustPSO")] >= max(others)

    _report(11, "every scheme degrades with more users; robust best at each count",
            check)


def test_criterion_12_early_convergence(conv_traces):
    def check():
        half = PARAMS.max_iters // 2
        for scheme in ("RobustPSO", "NonRobustPSO"):
            f = conv_traces.fitness[scheme]
            total = f[-1] - f[0]
            assert total > 0
            assert (f[half] - f[0]) >= 0.7 * total
        # per-realization traces are exactly nondecreasing
        for stack in conv_traces.per_realization_fitness.values():
            assert np.all(np.diff(stack, axis=1) >= 0)
        # the robust search plateaus at least as high under the common scale
        assert (conv_traces.rescored_min_sinr["RobustPSO"][-1]
                >= conv_traces.rescored_min_sinr["NonRobustPSO"][-1])

    _report(12, "at least 70% of the search gain lands in the first half",
            check)


def test_criterion_13_complexity_scaling():
    def check():
        # (num_particles, num_pas): base, doubled swarm, doubled antennas.
        # Sizes keep the batch temporaries cache-resident in every case so
        # wall time tracks arithmetic work rather than memory-system effects.
        shapes = [(80, 16), (160, 16), (80, 32)]
        iters, rounds = 12, 5
        cases = []
        for num_particles, num_pas in shapes:
            cfg = ps.SystemConfig(num_users=10, num_pas=num_pas,
                                  min_spacing=0.2, obstacle_count=3)
            par = ps.PsoParams(num_particles=num_particles, max_iters=iters)
            sc = ps.generate_scenario(cfg, 123)
            ps.optimize(sc, cfg, ps.PsoParams(num_particles=num_particles,
                                              max_iters=2), 1)  # warm
            cases.append((cfg, par, sc))
        best = [np.inf] * len(cases)
        gc.disable()
        try:
            # round-robin so drift hits every configuration alike
            for _ in range(rounds):
                for i, (cfg, par, sc) in enumerate(cases):
                    t0 = time.perf_counter()
                    ps.optimize(sc, cfg, par, 1)
                    best[i] = min(best[i], (time.perf_counter() - t0) / iters)
        finally:
            gc.enable()
        ratio_particles = best[1] / best[0]
        ratio_antennas = best[2] / best[0]
        # doubling should double the work, within a factor of two
        assert 1.0 <= ratio_particles <= 4.0, f"swarm ratio {ratio_particles:.2f}"
        assert 1.0 <= ratio_antennas <= 4.0, f"antenna ratio {ratio_antennas:.2f}"

    _report(13, "per-iteration wall time scales linearly in swarm size and "
                "antenna count", check)
