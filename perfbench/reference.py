"""Reference loop: fixed work of the workloads' kind that uses no pinchsim code.

The benchmark runs on a few cores of a shared host whose speed changes by a
factor of up to two, in steps that last from seconds to minutes, as other
tenants load it.  The run times the reference search after each repetition
and scales each repetition's rate by how slowly the searches on either side
of it ran, so that the throughput metric reads what the repetition would
have taken on the machine at its nominal speed.

A host-speed step slows different kinds of work by different factors, so the
reference work is a small particle-swarm search of its own, written here and
frozen: a swarm of ``P`` candidates places ``N`` antennas on a line for ``K``
users behind ``O`` spherical obstacles, with the same array shapes and the
same kinds of numpy calls as pinchsim's batched kernel and PSO loop.  Each
workload runs it at its own shapes (``workloads.Workload.ref_shape``).
Because it shares no code with pinchsim, a change to pinchsim cannot move
it; only the machine can.
"""

import math
import threading
import time

import numpy as np


def _fitness(xs, alphas, users, obst, radii):
    """Worst user's SINR for each of the P candidates."""
    vx = users[None, :, 0, None] - xs[:, None, :]              # (P, K, N)
    vy = np.broadcast_to(users[None, :, 1, None], vx.shape)
    vz = np.broadcast_to(users[None, :, 2, None] - 3.0, vx.shape)
    rsq = vx * vx + vy * vy + vz * vz
    wx = obst[None, None, :, 0] - xs[:, :, None]               # (P, N, O)
    wy = obst[None, None, :, 1]
    wz = obst[None, None, :, 2] - 3.0
    t = np.clip((wx[:, None] * vx[..., None] + wy * vy[..., None]
                 + wz * vz[..., None]) / rsq[..., None], 0.0, 1.0)
    ex = wx[:, None] - t * vx[..., None]                       # (P, K, N, O)
    ey = wy - t * vy[..., None]
    ez = wz - t * vz[..., None]
    gap = np.maximum(np.sqrt(ex * ex + ey * ey + ez * ez) - radii, 0.0).min(axis=3)
    r = np.sqrt(rsq)
    amp = (0.1 + 0.9 * (1.0 - np.exp(-2.0 * gap))) / r
    h = np.abs(np.sum(amp * np.exp(-2j * math.pi * r / 0.0107), axis=2)) ** 2
    order = np.argsort(h, axis=1, kind="stable")
    h = np.take_along_axis(h, order, axis=1)
    a = np.take_along_axis(alphas, order, axis=1)
    after = a.sum(axis=1, keepdims=True) - np.cumsum(a, axis=1)
    return (a * h / (h * after + 1e-3)).min(axis=1)


def _search(shape, iterations):
    p, k, n, o = shape
    rng = np.random.default_rng(20261017)
    users = rng.uniform(0.0, 10.0, (k, 3)) * (1.0, 1.0, 0.0)
    obst = rng.uniform(0.0, 10.0, (o, 3)) * (1.0, 1.0, 0.2)
    radii = rng.uniform(0.2, 0.6, o)
    alphas = rng.dirichlet(np.ones(k), p)
    xs = np.sort(rng.uniform(0.0, 10.0, (p, n)), axis=1)
    vel = np.zeros_like(xs)
    best, best_f = xs.copy(), np.full(p, -np.inf)
    for _ in range(iterations):
        f = _fitness(xs, alphas, users, obst, radii)
        better = f > best_f
        best[better], best_f[better] = xs[better], f[better]
        lead = best[np.argmax(best_f)]
        vel = (0.7 * vel + 1.5 * rng.random((p, n)) * (best - xs)
               + 1.5 * rng.random((p, n)) * (lead - xs))
        xs = np.sort(np.clip(xs + vel, 0.0, 10.0), axis=1)


def reference_seconds(shape, iterations, threads):
    """Wall time of a fixed swarm search with ``shape`` = (P, K, N, O).

    With ``threads`` > 1 each thread runs its own search, as the workload's
    pool threads run their own realizations; the thread count decides which
    cores the work lands on and how much it contends for the interpreter
    lock, both of which set the workload's speed on this kind of host.
    """
    workers = [threading.Thread(target=_search, args=(shape, iterations))
               for _ in range(threads)]
    t0 = time.perf_counter()
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    return time.perf_counter() - t0
