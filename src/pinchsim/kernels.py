"""Batched fitness kernel: the hot inner loop of the swarm search.

Every optimizer iteration evaluates the full candidate pipeline (per-link
channels -> effective channels -> safe decoding order -> worst-case SINRs ->
penalized fitness) for a swarm, or for several swarms stacked into one
batch, each row at its own evaluation point: a ``RobustGains``, whose
four numbers are all the kernel sees of it.  The ordering estimate is the
nominal channel; the error bound acts through those numbers only.  Its two
stages, ``effective_channels`` and ``ordered_min_sinr``, also score
``true_sampled`` designs in ``experiments``, with the estimates drawn by
``apply_csi_error``, so the physics exists once.

The rows may also span several realizations: a scenario stacked by
``scenario.stack_scenarios`` splits the P rows into B equal contiguous
blocks, each with its own users and obstacles.  A plain scenario is the
case B = 1.

The kernel is broadcast numpy.  Each axis it reduces comes first in memory
and the rows come last, as B blocks of P/B: the obstacle-clearance block is
(O, N, K, B, P/B) and the link block is (N, K, B, P/B).  So the min over
obstacles and the sum over antennas are elementwise passes over contiguous
planes, not strided reductions over a short last axis, and a block's
geometry, expanded over its rows once per search, meets them elementwise.
The search hands its (D, rows) state over as transposed views, so taking
the (N, rows) positions costs no copy.

The link phase takes one transcendental per link: with the phase reduced
to c cycles in [-1/2, 1/2] and t = tan(pi c), its cosine and sine are
(1 - t^2) / (1 + t^2) and 2 t / (1 + t^2), and 1 / (1 + t^2) is folded
into the amplitude before the antenna sums.  On numpy 2.4 for x86-64 with
AVX-512, float64 tan is a vectorized loop while cos and sin are scalar
libm loops (28 against 150 and 163 us on 9,000 doubles); elsewhere it is
still one call where cos and sin were two.

What a call computes that does not depend on the particles lives in a
``Plan``: the block geometry, expanded over the rows, the amplitude and
phase factors, the flat-gather base and the work buffers of the link and
obstacle blocks.  A search builds one per lockstep call, whose scenario
and batch shape are fixed for all of its iterations, and hands it to every
kernel call; one-off callers such as scoring pass None and get a fresh
one.  Reused buffers spare each call the page faults of fresh ones, and
building the rest once spares it the recomputation; the measurements are
in CHANGES.md and ``BENCH_13.json``/``BENCH_15.json``.

The tests hold the kernel to the scalar reference, ``channel`` and ``noma``,
which the package never imports, and check the phase against a closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .scenario import Scenario

# There is one backend; perfbench/run.py records both names in its env line.
NUMBA_AVAILABLE = False


def active_backend():
    """Name of the kernel backend: always 'numpy'."""
    return "numpy"


@dataclass(frozen=True)
class RobustGains:
    """Ordering margin and worst-case SINR weights: all that the fitness sees of
    an (eps, eta_i, eta_r) point, so points with equal gains evaluate alike."""

    order_ratio: float         # (1 + eps) / (1 - eps), separation a safe order needs
    signal_scale: float        # (1 - eps)^2, shrinks the desired-signal power
    interference_scale: float  # (1 + eta_i * eps)^2, inflates uncancelled interference
    leakage_scale: float       # eta_r * eps, residual power of cancelled signals


def robust_gains(eps, eta_i, eta_r) -> RobustGains:
    """The one definition of a point's gains; (1, 1, 1, 0) at eps = 0 for any eta_r."""
    return RobustGains(order_ratio=(1.0 + eps) / (1.0 - eps),
                       signal_scale=(1.0 - eps) ** 2,
                       interference_scale=(1.0 + eta_i * eps) ** 2,
                       leakage_scale=eta_r * eps)


def apply_csi_error(h, eps, rng):
    """Perturb each channel of h inside the relative error disk |e| <= eps * |h|.

    h is one channel, a (K,) vector of user channels, or a (K, rows) block
    of rows scored on one realization, with eps then the (rows,) per-row
    bounds.  Each user gets one draw, shared by every row: an error
    magnitude fraction uniform on [0, 1] and a phase uniform on [0, 2 pi),
    which exercises the whole uncertainty disk.  The draws are one
    ``rng.random`` block of (rho, u) pairs, phase 2 pi u: the stream of a
    scalar ``random()`` and ``uniform(0, 2 pi)`` per user, in user order.
    """
    users = np.shape(h)[:1]
    rho, u = rng.random(users + (2,)).T.reshape((2,) + users + (1,) * (np.ndim(h) - 1))
    return h + rho * eps * np.abs(h) * np.exp(1j * (2.0 * np.pi * u))


def row_gains(points, rows_per_point):
    """The (order_ratio, signal_scale, interference_scale, leakage_scale) of
    each ``RobustGains`` in ``points``, repeated over its rows, as four
    contiguous (P,) arrays: the ``gains`` of ``swarm_fitness``."""
    table = np.array([(g.order_ratio, g.signal_scale, g.interference_scale,
                       g.leakage_scale) for g in points], dtype=np.float64)
    return tuple(np.ascontiguousarray(np.repeat(table, rows_per_point, axis=0).T))


class Plan:
    """Everything a kernel call computes that is fixed for a whole search.

    A search's stacked scenario and batch shape do not change over its
    T + 1 iterations, so ``pso._lockstep`` builds one plan per call and
    hands it to each of its kernel calls.  The plan holds the block shape;
    the block geometry relative to the antenna plane, expanded over each
    block's rows so that it meets the rows elementwise; the amplitude and
    phase factors; the flat-gather base ``arange(P)``; and the channel
    stage's work buffers.  Each value is computed with the float expression
    a call would otherwise evaluate itself, so a plan moves no bit.

    rows is the batch's row count P.  The buffers hold memory, never
    values: the kernel writes each element before it reads it in the same
    call and returns no view of one.  A plan is bound to the ``scenario``
    and ``config`` objects it was built from; a kernel call with others
    raises ValueError.  Their arrays must not be written to while the plan
    is in use.
    """

    def __init__(self, scenario: Scenario, config: SystemConfig, rows):
        self.scenario, self.config = scenario, config
        k, o = scenario.users.shape[0], scenario.obstacle_centers.shape[0]
        antenna_plane = [0.0, 0.0, config.pa_height]
        users = scenario.users.reshape(k, -1, 3) - antenna_plane        # (K, B, 3)
        blocks = users.shape[1]
        rows //= blocks
        self.shape = k, o, blocks, rows
        ux, uy, uz = users[..., 0, None], users[..., 1, None], users[..., 2, None]  # (K, B, 1)
        self.ux = _expand(ux, (k, blocks, rows))
        self.u_sq = _expand(uy * uy + uz * uz, (k, blocks, rows))
        centers = scenario.obstacle_centers.reshape(o, blocks, 3) - antenna_plane
        ox, oy, oz = (centers[:, None, :, i, None] for i in range(3))   # (O, 1, B, 1)
        self.ox = _expand(ox, (o, 1, blocks, rows))
        self.o_sq = _expand(oy * oy + oz * oz, (o, 1, blocks, rows))
        # w.v = wx * vx + c_ko, with c_ko = oy * uy + oz * uz per (obstacle, user)
        self.c_ko = _expand((oy * uy + oz * uz)[:, None], (o, 1, k, blocks, rows))
        self.radii = _expand(scenario.obstacle_radii.reshape(o, 1, 1, blocks, 1),
                             (o, 1, k, blocks, rows))
        self.wavelength, self.guide_wavelength = config.wavelength, config.guide_wavelength
        self.amp_scale = config.wavelength / (4.0 * math.pi)
        self.loss_exp = -config.wg_loss / 20.0
        self.base = np.arange(blocks * rows)
        n = config.num_pas
        link, obstacle, pair = (n, k, blocks, rows), (o, n, blocks, rows), (o, n, k, blocks, rows)
        self.vx, self.rsq, self.r, self.amp, self.dmin = (np.empty(link) for _ in range(5))
        self.wx, self.w_sq = np.empty(obstacle), np.empty(obstacle)
        self.wv, self.t, self.gap = (np.empty(pair) for _ in range(3))


def _expand(a, shape):
    """A contiguous copy of ``a`` broadcast to ``shape``."""
    return np.ascontiguousarray(np.broadcast_to(a, shape))


@np.errstate(all="ignore")
def swarm_fitness(xs, alphas, scenario: Scenario, config: SystemConfig, gains=None,
                  plan=None):
    """Penalized fitness, worst-case min-SINR, and violation sum per candidate.

    xs is (P, N) antenna positions and alphas (P, K) per-user power
    fractions, both feasible.  scenario is one realization, or B stacked
    ones (``scenario.stack_scenarios``), block b holding rows
    [b P/B, (b + 1) P/B).  gains is the ``row_gains`` of the rows'
    evaluation points, so swarms searching at different points share one
    call; None evaluates every row at the config's own point.  plan is the
    ``Plan`` of (scenario, config) for P rows; None builds one.  A row's
    result does not depend on the rest of its batch.  Floating-point
    warnings are silenced: a config whose channels overflow yields
    non-finite results, which the harness refuses to report.
    """
    if plan is None:
        plan = Plan(scenario, config, len(xs))
    if gains is None:
        gains = row_gains([robust_gains(config.csi_eps, config.eta_i, config.eta_r)], len(xs))
    ratio, *weights = gains
    h_sq, im = effective_channels(xs, scenario, config, plan, True)  # parts, not complex h
    h_sq *= h_sq                                   # |h|^2 = re re + im im
    im *= im
    h_sq += im
    mags = np.sqrt(h_sq)
    # users in ascending channel magnitude, ties in index order, as flat
    # indices into the (K, P) arrays
    gather = np.argsort(mags, axis=0, kind="stable")
    gather *= len(plan.base)
    gather += plan.base
    m_ord = mags.take(gather)
    excess = np.multiply(ratio, m_ord[:-1])
    excess -= m_ord[1:]
    v_total = _sum_planes(np.maximum(excess, 0.0, out=excess))
    gamma_min = ordered_min_sinr(h_sq, gather, alphas, weights, config)
    return gamma_min - config.penalty_mu * v_total, gamma_min, v_total


def _sum_planes(a):
    """The sum over a's leading axis, each plane added in turn to 0.0: the
    bits of ``np.add.reduce(a, axis=0)`` on planes of more than one element,
    which on a one-element plane (one user, one row) sums 8 or more terms
    pairwise, so that a row alone would not score as in a batch."""
    total = np.zeros(a.shape[1:])
    for plane in a:
        total += plane
    return total


def effective_channels(xs, scenario: Scenario, config: SystemConfig, plan=None,
                       parts=False):
    """The channel stage of ``swarm_fitness``: the (K, P) complex effective
    channels of each row's layout, with the model's phase sign,
    exp(-j 2 pi (r / lambda + x / lambda_g)) per link.  plan is a ``Plan``
    of (scenario, config), whose buffers hold the link and obstacle blocks;
    None builds one.  parts=True returns the real and imaginary parts as two
    (K, P) arrays instead.  The results are new arrays."""
    if plan is None:
        plan = Plan(scenario, config, len(xs))
    elif scenario is not plan.scenario or config is not plan.config:
        raise ValueError("the kernel plan was built for another scenario or config")
    k, o, blocks, rows = plan.shape
    x = np.ascontiguousarray(np.transpose(xs), dtype=np.float64)
    x = x.reshape(x.shape[0], blocks, rows)        # (N, B, P/B)
    vx = np.subtract(plan.ux, x[:, None], out=plan.vx)  # antenna -> user
    rsq = np.multiply(vx, vx, out=plan.rsq)
    rsq += plan.u_sq
    r = np.sqrt(rsq, out=plan.r)

    amp = 10.0 ** (plan.loss_exp * x) * plan.amp_scale
    amp = np.divide(amp[:, None], r, out=plan.amp)
    if o:
        wx = np.subtract(plan.ox, x, out=plan.wx)  # antenna -> centre
        w_sq = np.multiply(wx, wx, out=plan.w_sq)
        w_sq += plan.o_sq
        wv = np.multiply(wx[:, :, None], vx, out=plan.wv)  # (O, N, K, B, P/B)
        wv += plan.c_ko
        t = np.divide(wv, rsq, out=plan.t)
        np.clip(t, 0.0, 1.0, out=t)
        # squared distance from the centre to the segment's closest point,
        # |w|^2 - t (2 w.v - t |v|^2), then its clearance from the sphere
        gap = np.multiply(t, rsq, out=plan.gap)
        wv *= 2.0                                  # not read again
        gap -= wv
        gap *= t
        gap += w_sq[:, :, None]
        np.maximum(gap, 0.0, out=gap)
        np.sqrt(gap, out=gap)
        gap -= plan.radii
        dmin = np.minimum.reduce(gap, axis=0, out=plan.dmin)
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
    angle = np.divide(r, plan.wavelength, out=r)
    angle += (x / plan.guide_wavelength)[:, None]
    angle -= np.rint(angle, out=vx)
    angle *= math.pi
    t = np.tan(angle, out=angle)
    t_sq = np.multiply(t, t, out=vx)
    amp /= np.add(t_sq, 1.0, out=rsq)              # amp / (1 + t^2)
    cos_amp = np.subtract(1.0, t_sq, out=t_sq)
    cos_amp *= amp
    t *= amp
    re = _sum_planes(cos_amp).reshape(k, -1)
    im = _sum_planes(t).reshape(k, -1)
    im *= -2.0
    if parts:
        return re, im
    # the parts are assigned, as multiplying by 1j would turn an overflow's
    # inf * 0 into nan
    h = np.empty(re.shape, dtype=complex)
    h.real, h.imag = re, im
    return h


def ordered_min_sinr(h_sq, gather, alphas, weights, config: SystemConfig):
    """The SINR stage of ``swarm_fitness``: each row's min-SINR, its users
    decoded weakest first.  h_sq is the (K, P) |h|^2, gather the decoding
    order as flat indices into (K, P) arrays, order * P + arange(P) for a
    (K, P) order, alphas (P, K), and weights the last three ``row_gains``
    arrays."""
    g_s, g_i, g_r = weights
    h_ord = h_sq.take(gather)
    h_ord *= config.tx_power
    a_ord = np.transpose(alphas).take(gather)
    a_cum = a_ord.copy()
    for i in range(1, len(a_cum)):
        np.add(a_cum[i - 1], a_ord[i], out=a_cum[i])
    a_after = np.subtract(a_cum[-1], a_cum)        # power of the stronger users
    a_before = np.subtract(a_cum, a_ord, out=a_cum)  # power of the weaker users
    # g_i h a_after + g_r h a_before + noise, in that order
    den = np.multiply(g_i, h_ord)
    den *= a_after
    leak = np.multiply(g_r, h_ord, out=a_after)
    leak *= a_before
    den += leak
    den += config.noise_power
    sinr = np.multiply(g_s, a_ord, out=a_ord)
    sinr *= h_ord
    sinr /= den
    return np.minimum.reduce(sinr, axis=0)
