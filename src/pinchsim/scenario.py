"""Randomized scene generation: user drops and spherical obstacles.

A ``Scenario`` is one realization of the environment.  Users are dropped
uniformly over the service rectangle in front of the waveguide (y > 0,
ground level); obstacles are spheres with centers drawn uniformly in the
volume between ground and antenna height.  Generation is a pure function of
(config, seed).
"""

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig

# Tag of every random stream of a realization: stream ``name`` of realization
# seed s is default_rng((s, STREAMS[name], *index)), and only the particles
# use an index (the particle's number).  Compare streams by their draws, not
# their tags: SeedSequence pads short entropy with zeros, so (s, 0) and (s,)
# are one stream.
STREAMS = {"users": 0, "obstacles": 1, "random_scheme": 2 ** 32,
           "csi_sample": 2 ** 32 + 1, "particles": 2 ** 32 + 2}


def stream(seed, name, *index):
    """The generator of random stream ``name`` of a realization seed."""
    return np.random.default_rng((int(seed), STREAMS[name], *index))


@dataclass(frozen=True)
class Scenario:
    """One environment realization, immutable after construction.

    ``stack_scenarios`` builds a stacked scenario, whose arrays carry a block
    axis B after the first one; only the fitness kernel reads those.
    """

    users: np.ndarray             # (K, 3) points, z = 0, y > 0; stacked (K, B, 3)
    obstacle_centers: np.ndarray  # (O, 3); stacked (O, B, 3)
    obstacle_radii: np.ndarray    # (O,); stacked (O, B)


def stack_scenarios(scenarios):
    """One scenario whose block b is ``scenarios[b]``, for a kernel call whose
    rows are ``len(scenarios)`` equal contiguous blocks.  The scenarios must
    have equal user and obstacle counts."""
    return Scenario(users=np.stack([s.users for s in scenarios], axis=1),
                    obstacle_centers=np.stack([s.obstacle_centers for s in scenarios], axis=1),
                    obstacle_radii=np.stack([s.obstacle_radii for s in scenarios], axis=1))


def _open_unit(rng, shape):
    """Uniform draw on the open interval (0, 1); redraws exact zeros."""
    out = rng.random(shape)
    while np.any(out <= 0.0):
        mask = out <= 0.0
        out[mask] = rng.random(int(mask.sum()))
    return out


def generate_scenario(config: SystemConfig, seed: int) -> Scenario:
    """Draw one scenario deterministically from (config, seed).

    Users: uniform over (0, area_x) x (0, area_y) at z = 0.
    Obstacles: centers uniform over the service volume with z in (0, pa_height),
    radii uniform over config.obstacle_radius_range.

    Users and obstacles come from separate sub-streams of the seed, drawn
    row-wise, so a sweep that varies the user count keeps the obstacles and
    the first k users identical across grid points (paired comparison).
    """
    user_rng = stream(seed, "users")
    k = config.num_users
    users = np.zeros((k, 3))
    users[:, :2] = _open_unit(user_rng, (k, 2)) * [config.area_x, config.area_y]

    obst_rng = stream(seed, "obstacles")
    o = config.obstacle_count
    centers = _open_unit(obst_rng, (o, 3)) * [config.area_x, config.area_y,
                                              config.pa_height]
    lo, hi = config.obstacle_radius_range
    radii = obst_rng.uniform(lo, hi, o) if o else np.zeros(0)
    return Scenario(users=users, obstacle_centers=centers, obstacle_radii=radii)


def uniform_layout(config: SystemConfig) -> np.ndarray:
    """Evenly spaced antenna x-coordinates over [0, L].

    N >= 2 spans the full guide including both ends; a single antenna sits at
    the midpoint.  ``SystemConfig`` refuses (N - 1) * min_spacing > L, so the
    even spacing keeps the minimum separation up to rounding.
    """
    n, L = config.num_pas, config.waveguide_len
    if n == 1:
        return np.array([L / 2.0])
    return np.linspace(0.0, L, n)
