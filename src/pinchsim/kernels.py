"""Batched fitness kernels: the hot inner loop of the swarm search.

Every optimizer iteration evaluates the full candidate pipeline (per-link
channels -> effective channels -> safe decoding order -> worst-case SINRs ->
penalized fitness) for the whole swarm.  Two interchangeable backends
implement it:

* a numba ``@njit`` scalar-loop kernel (default when numba is importable),
* a broadcast pure-numpy kernel.

Set ``PINCHSIM_NUMBA=0`` in the environment to force the numpy path; when
numba is not installed the numpy path is used automatically.  The two
backends agree to floating round-off (see tests) but are not bit-identical,
so a given backend choice is part of a run's reproducibility envelope.
"""

import math
import os
import sys

import numpy as np

from .config import SystemConfig
from .scenario import Scenario


def _numba_requested():
    flag = os.environ.get("PINCHSIM_NUMBA", "").strip().lower()
    return flag not in ("0", "false", "off", "no")


try:
    from numba import njit
    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    NUMBA_AVAILABLE = False
    njit = None
    if _numba_requested() and os.environ.get("PINCHSIM_NUMBA"):
        print("pinchsim: numba requested but not importable, using numpy kernels",
              file=sys.stderr)


def _fitness_loop(xs, alphas, users, obst_c, obst_r,
                  wavelength, guide_wavelength, wg_loss_db, pa_height,
                  beta, block_rate, tx_power, noise_power,
                  eps, eta_i, eta_r, mu,
                  fitness, gamma_min, viol_sum):
    """Scalar-loop pipeline over a batch of candidates (numba-compilable body)."""
    n_part, n_pas = xs.shape
    n_users = users.shape[0]
    n_obst = obst_c.shape[0]
    k_free = 2.0 * math.pi / wavelength
    k_guide = 2.0 * math.pi / guide_wavelength
    amp0 = wavelength / (4.0 * math.pi)
    g_s = (1.0 - eps) ** 2
    g_i = (1.0 + eta_i * eps) ** 2
    g_r = eta_r * eps
    ratio = (1.0 + eps) / (1.0 - eps)

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
            v = ratio * mags[order[k]] - mags[order[k + 1]]
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
            den = (g_i * tx_power * hv * a_after
                   + g_r * tx_power * hv * a_before
                   + noise_power)
            s = g_s * a_k * tx_power * hv / den
            if s < gmin:
                gmin = s
            a_before += a_k
        fitness[p] = gmin - mu * v_total
        gamma_min[p] = gmin
        viol_sum[p] = v_total


if NUMBA_AVAILABLE:
    _fitness_loop_jit = njit(cache=True, nogil=True)(_fitness_loop)
else:
    _fitness_loop_jit = None


def swarm_fitness_numpy(xs, alphas, users, obst_c, obst_r,
                        wavelength, guide_wavelength, wg_loss_db, pa_height,
                        beta, block_rate, tx_power, noise_power,
                        eps, eta_i, eta_r, mu):
    """Broadcast pure-numpy implementation of the batched fitness pipeline."""
    n_part, n_pas = xs.shape
    n_users = users.shape[0]
    n_obst = obst_c.shape[0]

    vx = users[:, 0][None, :, None] - xs[:, None, :]          # (P, K, N)
    vy = users[:, 1][None, :, None] * np.ones_like(vx)
    vz = (users[:, 2][None, :, None] - pa_height) * np.ones_like(vx)
    rsq = vx * vx + vy * vy + vz * vz
    r = np.sqrt(rsq)

    if n_obst:
        wx = obst_c[:, 0][None, None, :] - xs[:, :, None]     # (P, N, O)
        wy = obst_c[:, 1][None, None, :] * np.ones_like(wx)
        wz = (obst_c[:, 2][None, None, :] - pa_height) * np.ones_like(wx)
        # (P, K, N, O) dot products of obstacle offsets with segment directions
        wv = (wx[:, None] * vx[..., None] + wy[:, None] * vy[..., None]
              + wz[:, None] * vz[..., None])
        t = np.clip(wv / rsq[..., None], 0.0, 1.0)
        ex = wx[:, None] - t * vx[..., None]
        ey = wy[:, None] - t * vy[..., None]
        ez = wz[:, None] - t * vz[..., None]
        d = np.sqrt(ex * ex + ey * ey + ez * ez) - obst_r[None, None, None, :]
        dmin = np.maximum(d, 0.0).min(axis=3)
        b = beta + (1.0 - beta) * (1.0 - np.exp(-block_rate * dmin))
    else:
        b = np.ones_like(r)

    amp = (b * np.sqrt(10.0 ** (-wg_loss_db * xs[:, None, :] / 10.0))
           * (wavelength / (4.0 * math.pi)) / r)
    phase = -(2.0 * math.pi / wavelength) * r - (2.0 * math.pi / guide_wavelength) * xs[:, None, :]
    h = np.sum(amp * np.exp(1j * phase), axis=2)              # (P, K)
    h_sq = h.real ** 2 + h.imag ** 2
    mags = np.sqrt(h_sq)

    order = np.argsort(mags, axis=1, kind="stable")
    m_ord = np.take_along_axis(mags, order, axis=1)
    h_ord = np.take_along_axis(h_sq, order, axis=1)
    a_ord = np.take_along_axis(alphas, order, axis=1)

    ratio = (1.0 + eps) / (1.0 - eps)
    v = np.maximum(ratio * m_ord[:, :-1] - m_ord[:, 1:], 0.0)
    v_total = v.sum(axis=1) if n_users > 1 else np.zeros(n_part)

    a_before = np.cumsum(a_ord, axis=1) - a_ord
    a_after = a_ord.sum(axis=1, keepdims=True) - a_before - a_ord
    g_s = (1.0 - eps) ** 2
    g_i = (1.0 + eta_i * eps) ** 2
    g_r = eta_r * eps
    den = (g_i * tx_power * h_ord * a_after
           + g_r * tx_power * h_ord * a_before
           + noise_power)
    sinr = g_s * a_ord * tx_power * h_ord / den
    gamma_min = sinr.min(axis=1)
    return gamma_min - mu * v_total, gamma_min, v_total


def swarm_fitness_numba(xs, alphas, users, obst_c, obst_r,
                        wavelength, guide_wavelength, wg_loss_db, pa_height,
                        beta, block_rate, tx_power, noise_power,
                        eps, eta_i, eta_r, mu):
    """Numba-compiled implementation; raises if numba is unavailable."""
    if _fitness_loop_jit is None:
        raise RuntimeError("numba backend requested but numba is not installed")
    n_part = xs.shape[0]
    fitness = np.empty(n_part)
    gamma_min = np.empty(n_part)
    viol_sum = np.empty(n_part)
    _fitness_loop_jit(xs, alphas, users, obst_c, obst_r,
                      wavelength, guide_wavelength, wg_loss_db, pa_height,
                      beta, block_rate, tx_power, noise_power,
                      eps, eta_i, eta_r, mu,
                      fitness, gamma_min, viol_sum)
    return fitness, gamma_min, viol_sum


USE_NUMBA = NUMBA_AVAILABLE and _numba_requested()
_IMPL = swarm_fitness_numba if USE_NUMBA else swarm_fitness_numpy


def active_backend():
    """Name of the backend selected at import time: 'numba' or 'numpy'."""
    return "numba" if USE_NUMBA else "numpy"


def swarm_fitness(xs, alphas, scenario: Scenario, config: SystemConfig,
                  eps=None, eta_r=None):
    """Penalized fitness, worst-case min-SINR, and violation sum per candidate.

    xs is (P, N) antenna positions, alphas is (P, K) per-user power
    fractions; both must already be feasible.  eps/eta_r default to the
    config values; passing eps=0, eta_r=0 gives the nominal (perfect-CSI)
    evaluation used by the non-robust optimizer mode.
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    alphas = np.ascontiguousarray(alphas, dtype=np.float64)
    users = np.ascontiguousarray(scenario.users, dtype=np.float64)
    obst_c = np.ascontiguousarray(scenario.obstacle_centers, dtype=np.float64)
    obst_r = np.ascontiguousarray(scenario.obstacle_radii, dtype=np.float64)
    if eps is None:
        eps = config.csi_eps
    if eta_r is None:
        eta_r = config.eta_r
    return _IMPL(xs, alphas, users, obst_c, obst_r,
                 config.wavelength, config.guide_wavelength,
                 config.wg_loss, config.pa_height,
                 config.blockage_beta, config.blockage_alpha,
                 config.tx_power, config.noise_power,
                 float(eps), config.eta_i, float(eta_r), config.penalty_mu)
