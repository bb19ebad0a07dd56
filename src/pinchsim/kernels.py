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

The kernel is broadcast numpy.  The rows come last in memory, as B blocks
of P/B, and the link block is (N, K, B, P/B), so the sum over antennas is
an elementwise pass over contiguous planes, not a strided reduction over a
short last axis, and every elementwise operation runs one inner loop over
the whole batch, not K-long ones.  Obstacle clearances are evaluated only
on the plan's slots: the (user, block, obstacle) triples whose obstacle can
be the link's nearest for an antenna on the guide, about half of the O K B
on the example config.  They form one (N, M, P/B) block, M <= O K B, which
gathers each slot's antenna x and link offsets by its block and link, and
each link takes the minimum over its slots, one rank of slots at a time.
Every dropped clearance exceeds a kept one, so each minimum, and so every
output, is the one over all O obstacles, bit for bit.  The slots' geometry,
expanded over the rows once per search, meets them elementwise.  The
search hands its (D, rows) state over as transposed views, so taking the
(N, rows) positions costs no copy.

The link phase takes one transcendental per link: with the phase reduced
to c cycles in [-1/2, 1/2] and t = tan(pi c), its cosine and sine are
(1 - t^2) / (1 + t^2) and 2 t / (1 + t^2), and 1 / (1 + t^2) is folded
into the amplitude before the antenna sums.  On numpy 2.4 for x86-64 with
AVX-512, float64 tan is a vectorized loop while cos and sin are scalar
libm loops (28 against 150 and 163 us on 9,000 doubles); elsewhere it is
still one call where cos and sin were two.

What a call computes that does not depend on the particles lives in a
``Plan``: the users' geometry and the kept slots' geometry, expanded over
the rows, the amplitude and phase factors, the flat-gather base and the
work buffers of the link and slot blocks.  A search builds one per
lockstep call, whose scenario and batch shape are fixed for all of its
iterations, and hands it to every kernel call; one-off callers such as
scoring pass None and get a fresh one.  Reused buffers spare each call the
page faults of fresh ones, and building the rest once spares it the
recomputation; the measurements are in CHANGES.md and
``BENCH_13.json``/``BENCH_15.json``.

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


# The error bounds a point may have: the domain of ``SystemConfig.csi_eps``.
ERROR_BOUNDS = SystemConfig.__dataclass_fields__["csi_eps"].metadata["domain"]


def require_error_bound(eps):
    """Refuse an error bound outside ``ERROR_BOUNDS``, NaN included, with ValueError."""
    if eps not in ERROR_BOUNDS:
        raise ValueError(f"error bound must be {ERROR_BOUNDS}, got {eps}")


def robust_gains(eps, eta_i, eta_r) -> RobustGains:
    """The one definition of a point's gains; ``NOMINAL`` at eps = 0 for any eta_i, eta_r.
    An error bound outside ``ERROR_BOUNDS`` raises ValueError."""
    require_error_bound(eps)
    return RobustGains(order_ratio=(1.0 + eps) / (1.0 - eps),
                       signal_scale=(1.0 - eps) ** 2,
                       interference_scale=(1.0 + eta_i * eps) ** 2,
                       leakage_scale=eta_r * eps)


NOMINAL = RobustGains(1.0, 1.0, 1.0, 0.0)  # the perfect-estimate point


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
    contiguous (P,) arrays: the ``gains`` of ``swarm_fitness``.  Each row
    holds its point's own floats, copied, so no row's result depends on
    the rest of its batch, bit for bit."""
    table = np.array([(g.order_ratio, g.signal_scale, g.interference_scale,
                       g.leakage_scale) for g in points], dtype=np.float64)
    return tuple(np.ascontiguousarray(np.repeat(table, rows_per_point, axis=0).T))


# The grid on which a plan bounds each obstacle's clearance: GRID_CELLS + 1
# evenly spaced points over [0, L], taken in slices of at most GRID_ELEMENTS
# (point, slot) pairs, or one point when a point has more slots than that,
# so a slice's temporaries stay within the size cap ``config.MAX_ELEMENTS``
# that bounds the kernel's own obstacle block.
GRID_CELLS = 128
GRID_ELEMENTS = 2 ** 16


class Plan:
    """Everything a kernel call computes that is fixed for a whole search.

    A search's stacked scenario and batch shape do not change over its
    T + 1 iterations, so ``pso._lockstep`` builds one plan per call and
    hands it to each of its kernel calls.  The plan holds the block shape;
    the users' geometry relative to the antenna plane, expanded over each
    block's rows so that it meets the rows elementwise; the amplitude and
    phase factors; the flat-gather base ``arange(P)``; the link stage's
    work buffers; and ``slots``, the (user, block, obstacle) slots whose
    clearances a call evaluates, with their geometry and work buffers.
    Each value is computed with the float expression a call would
    otherwise evaluate itself, so a plan moves no bit.

    A slot is kept unless its obstacle can never be its link's nearest for
    an antenna on the guide.  Clearance is 1-Lipschitz in the antenna's x:
    moving the antenna by d moves every point of its segment to the user by
    at most d.  Every x in [0, L] lies within h/2 of one of the
    GRID_CELLS + 1 grid points x_j, h = L / GRID_CELLS apart, so there each
    clearance is within h/2 of its value at x_j.  Obstacle o is dropped for
    (k, b) when, at every grid point, its clearance exceeds the smallest of
    that link's clearances by more than h + ``margin``; then at any x on
    the guide it exceeds the nearest obstacle's by more than ``margin``,
    less the rounding of both values.  The grid uses the kernel's own
    clearance arithmetic, whose computed squared distance
    |w|^2 - t (2 w.v - t |v|^2) is off by a few eps E^2, E = L + the
    largest radius + twice the largest coordinate, which bounds |w|, |v|
    and the radii.  Where the segment passes close to the centre the
    square cancels, and its square root is then off by up to about
    sqrt(eps) E, as |sqrt(a + d) - sqrt(a)| <= sqrt(|d|); against an 80-bit
    reference the error reached 0.82 sqrt(eps) E on 20,000 such segments,
    on areas up to 3 km.  ``margin`` is 2^10 sqrt(eps) E, over 100 times
    that, so every dropped clearance a call could compute exceeds a kept
    one, and the minimum over the kept slots is the minimum over all of
    them, bit for bit.  A scene without obstacles has no slots, and a lone
    obstacle is always its link's nearest, so only two or more can be
    dropped.  A (k, b) with a non-finite clearance at any grid point keeps
    every obstacle, so a config that overflows still gives the non-finite
    results the harness refuses.  So does every (k, b) of a call with an
    antenna outside [0, L] by more than margin / 4, or at NaN, which the
    library's ``score_candidate`` accepts: such a call uses the full slot
    set, built by the same code.  The projection's few-ulp overshoots on a
    packed guide stay within margin / 4, so a search keeps the culled set.

    rows is the batch's row count P, a positive multiple of the scenario's
    block count B; a plan refuses any other with ValueError.  The buffers
    hold memory, never values: the kernel writes each element before it
    reads it in the same call and returns no view of one.  A plan is bound
    to the ``scenario`` and ``config`` objects it was built from and to its
    row count; a kernel call with other objects or another row count raises
    ValueError.  Their arrays must not be written to while the plan is in
    use.
    """

    @np.errstate(all="ignore")  # as in swarm_fitness: overflows give non-finite values
    def __init__(self, scenario: Scenario, config: SystemConfig, rows):
        self.scenario, self.config = scenario, config
        k, o = scenario.users.shape[0], scenario.obstacle_centers.shape[0]
        antenna_plane = [0.0, 0.0, config.pa_height]
        users = scenario.users.reshape(k, -1, 3) - antenna_plane        # (K, B, 3)
        blocks = users.shape[1]
        if rows <= 0 or rows % blocks:
            raise ValueError(f"a kernel batch of {rows} rows is not a positive multiple "
                             f"of the scenario's block count {blocks}")
        rows //= blocks
        self.shape = k, o, blocks, rows
        ux, uy, uz = users[..., 0, None], users[..., 1, None], users[..., 2, None]  # (K, B, 1)
        u_sq = uy * uy + uz * uz
        self.ux = _expand(ux, (k, blocks, rows))
        self.u_sq = _expand(u_sq, (k, blocks, rows))
        self.wavelength, self.guide_wavelength = config.wavelength, config.guide_wavelength
        self.amp_scale = config.wavelength / (4.0 * math.pi)
        self.loss_exp = -config.wg_loss / 20.0
        self.base = np.arange(blocks * rows)
        link = (config.num_pas, k, blocks, rows)
        self.vx, self.rsq, self.r, self.amp, self.dmin = (np.empty(link) for _ in range(5))
        if not o:
            return
        centers = scenario.obstacle_centers.reshape(o, blocks, 3) - antenna_plane
        radii = scenario.obstacle_radii.reshape(o, blocks).T[None]       # (1, B, O)
        ox, oy, oz = (centers[..., i].T[None] for i in range(3))         # (1, B, O)
        # every (user, block, obstacle) slot's ux, u_sq, ox, o_sq, c_ko and
        # radius, flat in that order; w.v = wx * vx + c_ko
        self.slot_geometry = [np.broadcast_to(a, (k, blocks, o)).ravel() for a in (
            ux, u_sq, ox, oy * oy + oz * oz, oy * uy + oz * uz, radii)]
        extent = (config.waveguide_len + radii.max()
                  + 2.0 * max(np.abs(users).max(), np.abs(centers).max()))
        self.margin = 2.0 ** 10 * math.sqrt(np.finfo(float).eps) * extent
        self.guide = -self.margin / 4.0, config.waveguide_len + self.margin / 4.0
        self.slots = _Slots(self, self._candidates())

    def _candidates(self):
        """Which slots can hold their link's nearest obstacle on the guide:
        a boolean mask over the flat slots."""
        k, o, blocks, _ = self.shape
        ux, u_sq, *geometry = self.slot_geometry
        length = self.config.waveguide_len
        points = np.linspace(0.0, length, GRID_CELLS + 1)
        step = max(1, GRID_ELEMENTS // len(ux))
        excess = np.full(len(ux), np.inf)      # least clearance above the link's nearest
        finite = np.ones(k * blocks, dtype=bool)
        for i in range(0, len(points), step):
            x = points[i:i + step, None]
            gap = _clearances(x, *_link_offsets(ux, u_sq, x), geometry)
            gap = gap.reshape(len(x), k * blocks, o)
            finite &= np.isfinite(gap).all(axis=(0, 2))
            gap -= gap.min(axis=2, keepdims=True)
            np.minimum(excess, gap.min(axis=0).ravel(), out=excess)
        dropped = excess > length / GRID_CELLS + self.margin
        return ~dropped | ~np.repeat(finite, o)


class _Slots:
    """The (user, block, obstacle) slots a kernel call evaluates, rank-major:
    the first kept slot of each link group k B + b in group order, then
    each group's second, and so on.  A group with fewer kept slots than a
    rank repeats its first there: ``minimum`` returns one of its inputs, so
    the repeat leaves the group's minimum as it is.

    ``block`` and ``link`` are each slot's block and link group, the
    indices that gather its antenna x and link offsets; ``geometry`` is its
    ox, o_sq, c_ko and radius expanded over the rows, as (M, P/B) arrays;
    ``ranks`` holds, for each rank past the first, the slot of that rank in
    each group, or the group's first slot where it has fewer.  The work
    buffers are (N, M, P/B).
    """

    def __init__(self, plan, kept):
        k, o, blocks, rows = plan.shape
        kept = np.flatnonzero(kept)
        group = kept // o
        rank = np.arange(len(kept)) - np.searchsorted(group, group)
        order = np.lexsort((group, rank))
        position = np.empty_like(order)
        position[order] = np.arange(len(kept))
        slots = kept[order]
        self.link = slots // o
        self.block = self.link % blocks
        self.ranks = []
        for j in range(1, rank.max() + 1):
            index = np.arange(k * blocks)
            index[group[rank == j]] = position[rank == j]
            self.ranks.append(index)
        self.geometry = [_expand(a[slots, None], (len(slots), rows))
                         for a in plan.slot_geometry[2:]]
        pair = (plan.config.num_pas, len(slots), rows)
        self.wx, self.w_sq, self.t, self.gap = (np.empty(pair) for _ in range(4))


def _expand(a, shape):
    """A contiguous copy of ``a`` broadcast to ``shape``."""
    return np.ascontiguousarray(np.broadcast_to(a, shape))


def _link_offsets(ux, u_sq, x, vx=None, rsq=None):
    """Each link's antenna-to-user x offset and squared length, from the
    antenna x and the user's ux and uy^2 + uz^2."""
    vx = np.subtract(ux, x, out=vx)
    rsq = np.multiply(vx, vx, out=rsq)
    rsq += u_sq
    return vx, rsq


def _clearances(x, vx, rsq, geometry, wx=None, w_sq=None):
    """Each obstacle's clearance from a link: the distance from its centre
    to the segment's closest point, whose square is
    |w|^2 - t (2 w.v - t |v|^2), less its radius.  x is the antenna x, vx
    and rsq the link's offsets, geometry the obstacle's (ox, o_sq, c_ko,
    radius).  Writes over vx and rsq, and returns the clearances in rsq's
    memory; wx and w_sq are optional buffers.  The kernel and the plan's
    grid both evaluate clearances here."""
    ox, o_sq, c_ko, radii = geometry
    wx = np.subtract(ox, x, out=wx)                # antenna -> centre
    w_sq = np.multiply(wx, wx, out=w_sq)
    w_sq += o_sq
    wv = np.multiply(wx, vx, out=wx)
    wv += c_ko
    t = np.divide(wv, rsq, out=vx)
    # one np.clip, not the search's two ufunc calls: on the slot block one
    # pass is the faster
    np.clip(t, 0.0, 1.0, out=t)
    gap = np.multiply(t, rsq, out=rsq)
    wv *= 2.0                                      # not read again
    gap -= wv
    gap *= t
    gap += w_sq
    np.maximum(gap, 0.0, out=gap)
    np.sqrt(gap, out=gap)
    gap -= radii
    return gap


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
    for g in gains:
        if len(g) != len(xs):
            raise ValueError(f"{len(g)} rows of gains for a kernel batch of {len(xs)} rows")
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
    of (scenario, config) for P rows, whose buffers hold the link and slot
    blocks; None builds one.  parts=True returns the real and imaginary
    parts as two (K, P) arrays instead.  The results are new arrays."""
    if plan is None:
        plan = Plan(scenario, config, len(xs))
    elif scenario is not plan.scenario or config is not plan.config:
        raise ValueError("the kernel plan was built for another scenario or config")
    elif len(xs) != len(plan.base):
        raise ValueError(f"a kernel batch of {len(xs)} rows for a plan of "
                         f"{len(plan.base)} rows")
    k, o, blocks, rows = plan.shape
    x = np.ascontiguousarray(np.transpose(xs), dtype=np.float64)
    x = x.reshape(x.shape[0], blocks, rows)        # (N, B, P/B)
    vx, rsq = _link_offsets(plan.ux, plan.u_sq, x[:, None], plan.vx, plan.rsq)
    r = np.sqrt(rsq, out=plan.r)

    amp = 10.0 ** (plan.loss_exp * x) * plan.amp_scale
    amp = np.divide(amp[:, None], r, out=plan.amp)
    if o:
        lo, hi = plan.guide
        slots = plan.slots
        if not (x.min(initial=hi) >= lo and x.max(initial=lo) <= hi):  # NaN included
            slots = _Slots(plan, np.ones(k * blocks * o, dtype=bool))
        # gather each slot's antenna x and link offsets: (N, M, P/B) blocks;
        # the indices are in range, and mode="raise" would buffer each out
        n = len(x)
        x_slots = np.take(x, slots.block, axis=1, mode="clip", out=slots.wx)
        gap = _clearances(
            x_slots, np.take(vx.reshape(n, -1, rows), slots.link, axis=1, mode="clip",
                             out=slots.t),
            np.take(rsq.reshape(n, -1, rows), slots.link, axis=1, mode="clip", out=slots.gap),
            slots.geometry, x_slots, slots.w_sq)
        # each link's minimum over its slots, rank by rank; vx is free by now
        dmin = plan.dmin.reshape(n, -1, rows)
        np.copyto(dmin, gap[:, :dmin.shape[1]])
        scratch = vx.reshape(dmin.shape)
        for index in slots.ranks:
            np.minimum(dmin, np.take(gap, index, axis=1, mode="clip", out=scratch), out=dmin)
        dmin = plan.dmin
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
    arrays.  alphas of another shape than (P, K) raises ValueError."""
    if np.shape(alphas) != h_sq.shape[::-1]:
        raise ValueError(f"power fractions of shape {np.shape(alphas)} for {h_sq.shape[1]} "
                         f"rows of {h_sq.shape[0]} users")
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
