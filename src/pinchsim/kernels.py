"""Batched fitness kernel: the hot inner loop of the swarm search.

Every optimizer iteration evaluates the full candidate pipeline (per-link
channels -> effective channels -> safe decoding order -> worst-case SINRs ->
penalized fitness) for the whole swarm, or for several swarms stacked into
one batch, each row at its own (eps, eta_r) evaluation point.

The kernel is broadcast numpy.  Each axis it reduces comes first in memory
and the batch axis P comes last: the obstacle-clearance block is
(O, N, K, P) and the link block is (N, K, P).  So the min over obstacles
and the sum over antennas are elementwise passes over contiguous planes,
not strided reductions over a short last axis, and every elementwise
operation runs one P-long inner loop.  The per-row weights are built from
Python floats by ``row_gains``.  ``tests/test_kernels.py`` keeps a
scalar-loop oracle of the same pipeline.
"""

import math

import numpy as np

from .config import SystemConfig
from .scenario import Scenario

# There is one backend; perfbench/run.py records both names in its env line.
NUMBA_AVAILABLE = False


def active_backend():
    """Name of the kernel backend: always 'numpy'."""
    return "numpy"


def _point_gains(eps, eta_i, eta_r):
    """Ordering ratio and SINR weights (ratio, g_s, g_i, g_r) of one point."""
    return ((1.0 + eps) / (1.0 - eps), (1.0 - eps) ** 2,
            (1.0 + eta_i * eps) ** 2, eta_r * eps)


def row_gains(eps, eta_i, eta_r, n_rows):
    """_point_gains of every row, as four contiguous (P,) arrays.

    Each run of rows that share one (eps, eta_r) point gets its gains from
    Python float arithmetic, so a row's weights do not depend on the batch
    it is in: numpy's array power differs from Python's ``**`` in the last
    bit for some eps.
    """
    eps = np.broadcast_to(np.asarray(eps, dtype=np.float64), (n_rows,))
    eta_r = np.broadcast_to(np.asarray(eta_r, dtype=np.float64), (n_rows,))
    new_point = np.ones(n_rows, dtype=bool)
    new_point[1:] = (eps[1:] != eps[:-1]) | (eta_r[1:] != eta_r[:-1])
    starts = np.flatnonzero(new_point)
    gains = np.array([_point_gains(e, eta_i, r) for e, r in
                      zip(eps[starts].tolist(), eta_r[starts].tolist())]).reshape(-1, 4)
    rows = np.repeat(gains, np.diff(np.append(starts, n_rows)), axis=0)
    return tuple(np.ascontiguousarray(rows.T))


@np.errstate(all="ignore")
def swarm_fitness_numpy(xs, alphas, users, obst_c, obst_r,
                        wavelength, guide_wavelength, wg_loss_db, pa_height,
                        beta, block_rate, tx_power, noise_power,
                        ratio, g_s, g_i, g_r, mu):
    """Broadcast numpy implementation of the batched fitness pipeline.

    ratio, g_s, g_i and g_r are the (P,) per-row weights of ``row_gains``.
    Floating-point warnings are silenced: a config whose channels overflow
    yields non-finite results, which the harness refuses to report.
    """
    x = np.ascontiguousarray(xs.T)                 # (N, P)
    users = users[:, :, None]
    ux, uy, uz = users[:, 0], users[:, 1], users[:, 2] - pa_height    # (K, 1)
    vx = ux - x[:, None, :]                        # (N, K, P) antenna -> user
    rsq = vx * vx
    rsq += uy * uy + uz * uz
    r = np.sqrt(rsq)

    amp = (10.0 ** (-wg_loss_db / 20.0 * x) * (wavelength / (4.0 * math.pi)))[:, None, :] / r
    if obst_c.shape[0]:
        obst_c = obst_c[:, :, None, None]
        ox, oy, oz = obst_c[:, 0], obst_c[:, 1], obst_c[:, 2] - pa_height  # (O, 1, 1)
        wx = ox - x                                # (O, N, P) antenna -> centre
        w_sq = wx * wx
        w_sq += oy * oy + oz * oz
        # w.v = wx * vx + c_ko, with c_ko = oy * uy + oz * uz per (obstacle, user)
        wv = wx[:, :, None, :] * vx                # (O, N, K, P)
        wv += (oy * uy + oz * uz)[:, None]          # (O, 1, K, 1)
        t = wv / rsq
        np.minimum(np.maximum(t, 0.0, out=t), 1.0, out=t)
        # squared distance from the centre to the segment's closest point,
        # |w|^2 - t (2 w.v - t |v|^2), then its clearance from the sphere
        gap = t * rsq
        gap -= 2.0 * wv
        gap *= t
        gap += w_sq[:, :, None, :]
        np.maximum(gap, 0.0, out=gap)
        np.sqrt(gap, out=gap)
        gap -= obst_r[:, None, None, None]
        dmin = np.minimum.reduce(gap, axis=0)      # (N, K, P)
        np.maximum(dmin, 0.0, out=dmin)
        amp *= beta + (1.0 - beta) * (1.0 - np.exp(-block_rate * dmin))

    # phase in whole cycles, reduced to [-1/2, 1/2] before the trig functions;
    # its sign is dropped, as only |h|^2 is used
    angle = r / wavelength
    angle += (x / guide_wavelength)[:, None, :]
    angle -= np.rint(angle)
    angle *= 2.0 * math.pi
    re = np.add.reduce(amp * np.cos(angle), axis=0)     # (K, P)
    im = np.add.reduce(amp * np.sin(angle), axis=0)
    h_sq = re * re + im * im
    mags = np.sqrt(h_sq)

    # users in ascending channel magnitude, ties in index order
    order = np.argsort(mags, axis=0, kind="stable")
    rows = np.arange(xs.shape[0])
    m_ord = mags[order, rows]
    h_ord = tx_power * h_sq[order, rows]
    a_ord = alphas.T[order, rows]

    v_total = np.add.reduce(np.maximum(ratio * m_ord[:-1] - m_ord[1:], 0.0), axis=0)

    a_cum = np.add.accumulate(a_ord, axis=0)
    a_before = a_cum - a_ord                       # power of the weaker users
    a_after = a_cum[-1] - a_cum                    # power of the stronger users
    den = g_i * h_ord * a_after + g_r * h_ord * a_before + noise_power
    gamma_min = np.minimum.reduce(g_s * a_ord * h_ord / den, axis=0)
    return gamma_min - mu * v_total, gamma_min, v_total


def swarm_fitness(xs, alphas, scenario: Scenario, config: SystemConfig,
                  eps=None, eta_r=None, gains=None):
    """Penalized fitness, worst-case min-SINR, and violation sum per candidate.

    xs is (P, N) antenna positions, alphas is (P, K) per-user power
    fractions; both must already be feasible.  eps/eta_r default to the
    config values; passing eps=0, eta_r=0 gives the nominal (perfect-CSI)
    evaluation used by the non-robust optimizer mode.  Either may also be a
    (P,) array that gives each row its own evaluation point, so swarms
    searching at different points share one call; a row's result does not
    depend on the other rows of its batch.  A caller that evaluates the
    same rows' points many times passes their ``row_gains`` as ``gains``
    instead of eps/eta_r.  The estimate used for ordering is the nominal
    channel itself; estimate uncertainty enters through the eps-dependent
    ordering margin and SINR weighting only.
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    alphas = np.ascontiguousarray(alphas, dtype=np.float64)
    if gains is None:
        gains = row_gains(config.csi_eps if eps is None else eps, config.eta_i,
                          config.eta_r if eta_r is None else eta_r, xs.shape[0])
    return swarm_fitness_numpy(xs, alphas,
                               np.asarray(scenario.users, dtype=np.float64),
                               np.asarray(scenario.obstacle_centers, dtype=np.float64),
                               np.asarray(scenario.obstacle_radii, dtype=np.float64),
                               config.wavelength, config.guide_wavelength,
                               config.wg_loss, config.pa_height,
                               config.blockage_beta, config.blockage_alpha,
                               config.tx_power, config.noise_power,
                               *gains, config.penalty_mu)
