"""Batched fitness kernel: the hot inner loop of the swarm search.

Every optimizer iteration evaluates the full candidate pipeline (per-link
channels -> effective channels -> safe decoding order -> worst-case SINRs ->
penalized fitness) for a swarm, or for several swarms stacked into one
batch, each row at its own evaluation point: a ``noma.RobustGains``, whose
four numbers are all the kernel sees of it.  The ordering estimate is the
nominal channel; the error bound acts through those numbers only.  Its two
stages, ``effective_channels`` and ``ordered_min_sinr``, also score
``true_sampled`` designs in ``experiments``, so the physics exists once.

The rows may also span several realizations: a scenario stacked by
``scenario.stack_scenarios`` splits the P rows into B equal contiguous
blocks, each with its own users and obstacles.  A plain scenario is the
case B = 1.

The kernel is broadcast numpy.  Each axis it reduces comes first in memory
and the rows come last, as B blocks of P/B: the obstacle-clearance block is
(O, N, K, B, P/B) and the link block is (N, K, B, P/B).  So the min over
obstacles and the sum over antennas are elementwise passes over contiguous
planes, not strided reductions over a short last axis, and a block's
geometry broadcasts as a scalar over its rows.  The search hands its
(D, rows) state over as transposed views, so taking the (N, rows)
positions costs no copy.

The link phase takes one transcendental per link: with the phase reduced
to c cycles in [-1/2, 1/2] and t = tan(pi c), its cosine and sine are
(1 - t^2) / (1 + t^2) and 2 t / (1 + t^2), and 1 / (1 + t^2) is folded
into the amplitude before the antenna sums.  On numpy 2.4 for x86-64 with
AVX-512, float64 tan is a vectorized loop while cos and sin are scalar
libm loops (28 against 150 and 163 us on 9,000 doubles); elsewhere it is
still one call where cos and sin were two.

The channel stage's large temporaries, the link and obstacle blocks, live
in a ``Scratch`` owned by the caller.  A search makes one per lockstep
call, whose batch shape is fixed for all of its iterations, and hands it to
every kernel call.  Allocated afresh, these arrays went back to the
operating system at the end of each call, and the next call faulted their
pages in again: a 600-row call at K/N/O = 3/5/3 took 272 minor page faults
and 1.39-1.52 ms, against none and 0.91-0.96 ms with a reused scratch
(medians of 300 calls; numpy 2.4.6, 2 CPUs), and a full-scale ``sweep-eps``
took 1,197,461 minor faults where it now takes 2,332-2,337.  The scratch
holds memory, never values, so reusing it cannot change a result; one-off
callers such as scoring pass None and get a fresh one.

The tests hold the kernel to the scalar ``channel`` and ``noma`` modules
and check the phase against a closed form.
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


class Scratch:
    """Work memory of the channel stage, kept for as long as its owner.

    ``buffer(name, shape)`` hands out an uninitialized float64 array of
    ``shape``: a view of the name's flat buffer, which is replaced by a
    larger one when a call asks for more.  The object holds memory only,
    never values: the kernel writes every element of a buffer before it
    reads it in the same call, and returns no view of one.
    """

    def __init__(self):
        self._buffers = {}

    def buffer(self, name, shape):
        size = math.prod(shape)
        flat = self._buffers.get(name)
        if flat is None or flat.size < size:
            flat = self._buffers[name] = np.empty(size)
        return flat[:size].reshape(shape)


@np.errstate(all="ignore")
def swarm_fitness(xs, alphas, scenario: Scenario, config: SystemConfig, gains=None,
                  scratch=None):
    """Penalized fitness, worst-case min-SINR, and violation sum per candidate.

    xs is (P, N) antenna positions and alphas (P, K) per-user power
    fractions, both feasible.  scenario is one realization, or B stacked
    ones (``scenario.stack_scenarios``), block b holding rows
    [b P/B, (b + 1) P/B).  gains is the ``row_gains`` of the rows'
    evaluation points, so swarms searching at different points share one
    call; None evaluates every row at the config's own point.  scratch is
    the ``Scratch`` of the channel stage; None takes a fresh one.  A row's
    result does not depend on the rest of its batch.  Floating-point
    warnings are silenced: a config whose channels overflow yields
    non-finite results, which the harness refuses to report.
    """
    if gains is None:
        gains = row_gains([robust_gains(config.csi_eps, config.eta_i, config.eta_r)], len(xs))
    ratio, *weights = gains
    h = effective_channels(xs, scenario, config, scratch)
    h_sq = h.real * h.real + h.imag * h.imag
    mags = np.sqrt(h_sq)
    # users in ascending channel magnitude, ties in index order
    order = np.argsort(mags, axis=0, kind="stable")
    m_ord = mags[order, np.arange(h.shape[1])]
    v_total = np.add.reduce(np.maximum(ratio * m_ord[:-1] - m_ord[1:], 0.0), axis=0)
    gamma_min = ordered_min_sinr(h_sq, order, alphas, weights, config)
    return gamma_min - config.penalty_mu * v_total, gamma_min, v_total


def effective_channels(xs, scenario: Scenario, config: SystemConfig, scratch=None):
    """The channel stage of ``swarm_fitness``: the (K, P) complex effective
    channels of each row's layout, with the model's phase sign,
    exp(-j 2 pi (r / lambda + x / lambda_g)) per link.  The temporaries of
    the link and obstacle blocks are buffers of ``scratch`` (a fresh
    ``Scratch`` if None); the result is a new array."""
    buf = (Scratch() if scratch is None else scratch).buffer
    wavelength, antenna_plane = config.wavelength, [0.0, 0.0, config.pa_height]
    k, o = scenario.users.shape[0], scenario.obstacle_centers.shape[0]
    users = scenario.users.reshape(k, -1, 3) - antenna_plane       # (K, B, 3)
    blocks = users.shape[1]
    x = np.ascontiguousarray(np.transpose(xs), dtype=np.float64)
    x = x.reshape(x.shape[0], blocks, -1)          # (N, B, P/B)
    n, rows = x.shape[0], x.shape[2]
    link = (n, k, blocks, rows)
    ux, uy, uz = users[..., 0, None], users[..., 1, None], users[..., 2, None]  # (K, B, 1)
    vx = np.subtract(ux, x[:, None], out=buf("vx", link))  # antenna -> user
    rsq = np.multiply(vx, vx, out=buf("rsq", link))
    rsq += uy * uy + uz * uz
    r = np.sqrt(rsq, out=buf("r", link))

    amp = 10.0 ** (-config.wg_loss / 20.0 * x) * (wavelength / (4.0 * math.pi))
    amp = np.divide(amp[:, None], r, out=buf("amp", link))
    if o:
        centers = scenario.obstacle_centers.reshape(o, blocks, 3) - antenna_plane
        ox, oy, oz = (centers[:, None, :, i, None] for i in range(3))  # (O, 1, B, 1)
        wx = np.subtract(ox, x, out=buf("wx", (o, n, blocks, rows)))  # antenna -> centre
        w_sq = np.multiply(wx, wx, out=buf("w_sq", wx.shape))
        w_sq += oy * oy + oz * oz
        # w.v = wx * vx + c_ko, with c_ko = oy * uy + oz * uz per (obstacle, user)
        pair = (o,) + link                         # (O, N, K, B, P/B)
        wv = np.multiply(wx[:, :, None], vx, out=buf("wv", pair))
        wv += (oy * uy + oz * uz)[:, None]          # (O, 1, K, B, 1)
        t = np.divide(wv, rsq, out=buf("t", pair))
        np.minimum(np.maximum(t, 0.0, out=t), 1.0, out=t)
        # squared distance from the centre to the segment's closest point,
        # |w|^2 - t (2 w.v - t |v|^2), then its clearance from the sphere
        gap = np.multiply(t, rsq, out=buf("gap", pair))
        wv *= 2.0                                  # not read again
        gap -= wv
        gap *= t
        gap += w_sq[:, :, None]
        np.maximum(gap, 0.0, out=gap)
        np.sqrt(gap, out=gap)
        gap -= scenario.obstacle_radii.reshape(o, 1, 1, blocks, 1)
        dmin = np.minimum.reduce(gap, axis=0, out=buf("dmin", link))
        # blockage factor beta + (1 - beta)(1 - exp(-alpha dmin)), in place
        np.maximum(dmin, 0.0, out=dmin)
        dmin *= -config.blockage_alpha
        np.exp(dmin, out=dmin)
        np.subtract(1.0, dmin, out=dmin)
        dmin *= 1.0 - config.blockage_beta
        dmin += config.blockage_beta
        amp *= dmin

    # phase in whole cycles, reduced to c in [-1/2, 1/2], then the half-angle
    # tangent t = tan(pi c): re and im sum amp (1 - t^2) / (1 + t^2) and
    # -2 amp t / (1 + t^2).  At c = +-1/2, t is about 1.6e16 and t^2 stays
    # finite.  vx and rsq are free by now and serve as scratch.
    angle = np.divide(r, wavelength, out=r)
    angle += (x / config.guide_wavelength)[:, None]
    angle -= np.rint(angle, out=vx)
    angle *= math.pi
    t = np.tan(angle, out=angle)
    t_sq = np.multiply(t, t, out=vx)
    amp /= np.add(t_sq, 1.0, out=rsq)              # amp / (1 + t^2)
    cos_amp = np.subtract(1.0, t_sq, out=t_sq)
    cos_amp *= amp
    t *= amp
    # the parts are assigned, as multiplying by 1j would turn an overflow's
    # inf * 0 into nan
    h = np.empty((k, x.shape[1] * x.shape[2]), dtype=complex)
    h.real = np.add.reduce(cos_amp, axis=0).reshape(k, -1)
    h.imag = -2.0 * np.add.reduce(t, axis=0).reshape(k, -1)
    return h


def ordered_min_sinr(h_sq, order, alphas, weights, config: SystemConfig):
    """The SINR stage of ``swarm_fitness``: each row's min-SINR, its users
    decoded in the (K, P) ``order``, weakest first.  h_sq is the (K, P) |h|^2,
    alphas (P, K), and weights the last three ``row_gains`` arrays."""
    g_s, g_i, g_r = weights
    rows = np.arange(h_sq.shape[1])
    h_ord = config.tx_power * h_sq[order, rows]
    a_ord = np.transpose(alphas)[order, rows]
    a_cum = np.add.accumulate(a_ord, axis=0)
    a_before = a_cum - a_ord                       # power of the weaker users
    a_after = a_cum[-1] - a_cum                    # power of the stronger users
    den = g_i * h_ord * a_after + g_r * h_ord * a_before + config.noise_power
    return np.minimum.reduce(g_s * a_ord * h_ord / den, axis=0)
