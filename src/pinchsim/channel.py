"""Per-link and effective user channels: the scalar reference model.

The downlink signal reaches user k through every antenna n: the guided wave
loses power exponentially up to the antenna's tap point, radiates with a
free-space line-of-sight amplitude lambda/(4 pi r), and is attenuated by a
soft-blockage transmission factor derived from the clearance between the
antenna-user segment and the nearest obstacle.  The effective channel is the
phase-correct sum over antennas, including the in-guide phase accumulated up
to each tap point.  Estimates carry a relative bounded error, drawn by
``noma.apply_csi_error``.

The package computes channels in ``kernels.effective_channels``; this module
computes them one antenna at a time with the textbook formulas, sharing no
code with the kernel, as the reference that tests and benchmark checks use.

All functions are pure; randomness enters only through an explicit rng.
"""

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .noma import apply_csi_error
from .scenario import Scenario


@dataclass(frozen=True)
class ChannelSet:
    """Channels of all users for one antenna layout."""

    h: np.ndarray       # (K,) complex effective channels
    h_hat: np.ndarray   # (K,) complex estimates, |h_hat - h| <= eps * |h|


def waveguide_attenuation(x, loss_db_per_m):
    """Power fraction surviving guided propagation over x meters: 10^(-loss*x/10)."""
    return 10.0 ** (-loss_db_per_m * np.asarray(x, dtype=float) / 10.0)


def blockage_factor(d, rate, floor):
    """Soft-blockage transmission factor: floor + (1 - floor) * (1 - exp(-rate * d)).

    Monotone in the clearance d, equals the floor at contact and approaches 1
    for large clearance.
    """
    return floor + (1.0 - floor) * (1.0 - np.exp(-rate * np.asarray(d, dtype=float)))


def segment_point_distance(a, b, points):
    """Euclidean distance from each point to the segment [a, b]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    v = b - a
    vv = float(v @ v)
    if vv == 0.0:
        raise ValueError("degenerate segment: endpoints coincide")
    t = np.clip((points - a) @ v / vv, 0.0, 1.0)
    closest = a + t[:, None] * v
    return np.linalg.norm(points - closest, axis=1)


def min_obstacle_distance(pa, user, obstacle_centers, obstacle_radii):
    """Smallest clearance between the antenna-user segment and any obstacle surface.

    Clamped at zero when the segment pierces an obstacle; +inf with no
    obstacles (fully clear path).
    """
    centers = np.atleast_2d(np.asarray(obstacle_centers, dtype=float))
    if centers.shape[0] == 0:
        return np.inf
    d = segment_point_distance(pa, user, centers) - np.asarray(obstacle_radii, dtype=float)
    return float(np.maximum(d, 0.0).min())


def link_gains(x_pos, user, scenario: Scenario, config: SystemConfig):
    """Per-antenna complex channels to one user, excluding the in-guide phase.

    Each entry combines the surviving guided amplitude, the soft-blockage
    factor of that antenna's path, and the free-space LoS response.
    """
    x_pos = np.asarray(x_pos, dtype=float)
    user = np.asarray(user, dtype=float)
    h_pa = config.pa_height
    lam = config.wavelength
    n = x_pos.shape[0]
    gains = np.empty(n, dtype=complex)
    for i in range(n):
        pa = np.array([x_pos[i], 0.0, h_pa])
        r = float(np.linalg.norm(user - pa))
        if r == 0.0:
            raise ValueError("degenerate geometry: user coincides with an antenna")
        d = min_obstacle_distance(pa, user, scenario.obstacle_centers,
                                  scenario.obstacle_radii)
        b = blockage_factor(d, config.blockage_alpha, config.blockage_beta)
        amp = b * np.sqrt(waveguide_attenuation(x_pos[i], config.wg_loss)) * lam / (4.0 * np.pi * r)
        gains[i] = amp * np.exp(-1j * 2.0 * np.pi / lam * r)
    return gains


def effective_channel(x_pos, user, scenario: Scenario, config: SystemConfig):
    """Effective complex channel of one user for the given antenna layout."""
    x_pos = np.asarray(x_pos, dtype=float)
    gains = link_gains(x_pos, user, scenario, config)
    guide_phase = np.exp(-1j * 2.0 * np.pi / config.guide_wavelength * x_pos)
    return complex(np.sum(gains * guide_phase))


def compute_channels(x_pos, scenario: Scenario, config: SystemConfig, rng=None):
    """Channels of every user for one layout; estimates are exact when rng is None."""
    h = np.array([effective_channel(x_pos, user, scenario, config)
                  for user in scenario.users], dtype=complex)
    if rng is None:
        h_hat = h.copy()
    else:
        h_hat = apply_csi_error(h, config.csi_eps, rng)
    return ChannelSet(h=h, h_hat=h_hat)
