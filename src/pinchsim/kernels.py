"""Batched fitness kernel: the hot inner loop of the swarm search.

Every optimizer iteration evaluates the full candidate pipeline (per-link
channels -> effective channels -> safe decoding order -> worst-case SINRs ->
penalized fitness) for a swarm, or for several swarms stacked into one
batch, each row at its own evaluation point: a ``noma.RobustGains``, whose
four numbers are all the kernel sees of it.  The ordering estimate is the
nominal channel; the error bound acts through those numbers only.

The rows may also span several realizations: a scenario stacked by
``scenario.stack_scenarios`` splits the P rows into B equal contiguous
blocks, each with its own users and obstacles.  A plain scenario is the
case B = 1.

The kernel is broadcast numpy.  Each axis it reduces comes first in memory
and the rows come last, as B blocks of P/B: the obstacle-clearance block is
(O, N, K, B, P/B) and the link block is (N, K, B, P/B).  So the min over
obstacles and the sum over antennas are elementwise passes over contiguous
planes, not strided reductions over a short last axis, and a block's
geometry broadcasts as a scalar over its rows.  ``tests/test_kernels.py``
keeps a scalar-loop oracle of the same pipeline.
"""

import math

import numpy as np

from .config import SystemConfig
from .noma import robust_gains
from .scenario import Scenario

# There is one backend; perfbench/run.py records both names in its env line.
NUMBA_AVAILABLE = False


def active_backend():
    """Name of the kernel backend: always 'numpy'."""
    return "numpy"


def row_gains(points, rows_per_point):
    """The (order_ratio, signal_scale, interference_scale, leakage_scale) of
    each ``noma.RobustGains`` in ``points``, repeated over its rows, as four
    contiguous (P,) arrays: the ``gains`` of ``swarm_fitness``."""
    table = np.array([(g.order_ratio, g.signal_scale, g.interference_scale,
                       g.leakage_scale) for g in points], dtype=np.float64)
    return tuple(np.ascontiguousarray(np.repeat(table, rows_per_point, axis=0).T))


@np.errstate(all="ignore")
def swarm_fitness(xs, alphas, scenario: Scenario, config: SystemConfig, gains=None):
    """Penalized fitness, worst-case min-SINR, and violation sum per candidate.

    xs is (P, N) antenna positions and alphas (P, K) per-user power
    fractions, both feasible.  scenario is one realization, or B stacked
    ones (``scenario.stack_scenarios``), block b holding rows
    [b P/B, (b + 1) P/B).  gains is the ``row_gains`` of the rows'
    evaluation points, so swarms searching at different points share one
    call; None evaluates every row at the config's own point.  A row's
    result does not depend on the rest of its batch.  Floating-point
    warnings are silenced: a config whose channels overflow yields
    non-finite results, which the harness refuses to report.
    """
    if gains is None:
        gains = row_gains([robust_gains(config.csi_eps, config.eta_i, config.eta_r)], len(xs))
    ratio, g_s, g_i, g_r = gains
    wavelength, antenna_plane = config.wavelength, [0.0, 0.0, config.pa_height]
    k, o = scenario.users.shape[0], scenario.obstacle_centers.shape[0]
    users = scenario.users.reshape(k, -1, 3) - antenna_plane       # (K, B, 3)
    blocks = users.shape[1]
    x = np.ascontiguousarray(np.transpose(xs), dtype=np.float64)
    x = x.reshape(x.shape[0], blocks, -1)          # (N, B, P/B)
    ux, uy, uz = np.moveaxis(users, 2, 0)[..., None]               # (K, B, 1) each
    vx = ux - x[:, None]                           # (N, K, B, P/B) antenna -> user
    rsq = vx * vx
    rsq += uy * uy + uz * uz
    r = np.sqrt(rsq)

    amp = 10.0 ** (-config.wg_loss / 20.0 * x) * (wavelength / (4.0 * math.pi))
    amp = amp[:, None] / r
    if o:
        centers = scenario.obstacle_centers.reshape(o, blocks, 3) - antenna_plane
        ox, oy, oz = np.moveaxis(centers, 2, 0)[:, :, None, :, None]  # (O, 1, B, 1)
        wx = ox - x                                # (O, N, B, P/B) antenna -> centre
        w_sq = wx * wx
        w_sq += oy * oy + oz * oz
        # w.v = wx * vx + c_ko, with c_ko = oy * uy + oz * uz per (obstacle, user)
        wv = wx[:, :, None] * vx                   # (O, N, K, B, P/B)
        wv += (oy * uy + oz * uz)[:, None]          # (O, 1, K, B, 1)
        t = wv / rsq
        np.minimum(np.maximum(t, 0.0, out=t), 1.0, out=t)
        # squared distance from the centre to the segment's closest point,
        # |w|^2 - t (2 w.v - t |v|^2), then its clearance from the sphere
        gap = t * rsq
        gap -= 2.0 * wv
        gap *= t
        gap += w_sq[:, :, None]
        np.maximum(gap, 0.0, out=gap)
        np.sqrt(gap, out=gap)
        gap -= scenario.obstacle_radii.reshape(o, 1, 1, blocks, 1)
        dmin = np.minimum.reduce(gap, axis=0)      # (N, K, B, P/B)
        np.maximum(dmin, 0.0, out=dmin)
        beta = config.blockage_beta
        amp *= beta + (1.0 - beta) * (1.0 - np.exp(-config.blockage_alpha * dmin))

    # phase in whole cycles, reduced to [-1/2, 1/2] before the trig functions;
    # its sign is dropped, as only |h|^2 is used
    angle = r / wavelength
    angle += (x / config.guide_wavelength)[:, None]
    angle -= np.rint(angle)
    angle *= 2.0 * math.pi
    re = np.add.reduce(amp * np.cos(angle), axis=0).reshape(k, -1)   # (K, P)
    im = np.add.reduce(amp * np.sin(angle), axis=0).reshape(k, -1)
    h_sq = re * re + im * im
    mags = np.sqrt(h_sq)

    # users in ascending channel magnitude, ties in index order
    order = np.argsort(mags, axis=0, kind="stable")
    rows = np.arange(re.shape[1])
    m_ord = mags[order, rows]
    h_ord = config.tx_power * h_sq[order, rows]
    a_ord = np.transpose(alphas)[order, rows]

    v_total = np.add.reduce(np.maximum(ratio * m_ord[:-1] - m_ord[1:], 0.0), axis=0)

    a_cum = np.add.accumulate(a_ord, axis=0)
    a_before = a_cum - a_ord                       # power of the weaker users
    a_after = a_cum[-1] - a_cum                    # power of the stronger users
    den = g_i * h_ord * a_after + g_r * h_ord * a_before + config.noise_power
    gamma_min = np.minimum.reduce(g_s * a_ord * h_ord / den, axis=0)
    return gamma_min - config.penalty_mu * v_total, gamma_min, v_total

