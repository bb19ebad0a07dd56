"""Configuration objects and JSON config-file handling.

Three parameter groups drive a run: the physical system (``SystemConfig``),
the swarm optimizer (``PsoParams``) and the Monte-Carlo harness
(``ExperimentSettings``).  All three are frozen dataclasses validated on
construction, so an instance that exists is feasible by construction and can
be shared read-only by every realization of a run.
"""

import dataclasses
import json
import math
import numbers
import os
import reprlib
from dataclasses import dataclass

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Most elements (128 MiB of doubles) of any array a run sizes from its config,
# and the largest size field or grid length a config may hold.
MAX_ELEMENTS = 2 ** 24


class ConfigError(ValueError):
    """Raised when a configuration violates one of its invariants."""


def _is_finite_number(value):
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an int beyond the float range
        return False


def _is_integer(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_field_types(instance):
    """Integer fields take integers (not bools or floats) and float fields
    take finite numbers.  Runs before the range checks, which assume both."""
    for field in dataclasses.fields(instance):
        value = getattr(instance, field.name)
        if field.type is int and not _is_integer(value):
            raise ConfigError(f"{field.name} must be an integer, "
                              f"got {reprlib.repr(value)}")
        if field.type is float and not _is_finite_number(value):
            raise ConfigError(f"{field.name} must be a finite number, "
                              f"got {reprlib.repr(value)}")


def _grid(name, values, is_item, kind):
    """A sweep grid as a tuple; it must be a non-empty list of ``kind``."""
    if (not isinstance(values, (list, tuple)) or not values
            or not all(is_item(v) for v in values)):
        raise ConfigError(f"{name} must be a non-empty list of {kind}, "
                          f"got {reprlib.repr(values)}")
    return tuple(values)


@dataclass(frozen=True)
class SystemConfig:
    """Physical and model constants for one system instance.

    Defaults describe a desk-scale indoor deployment: 3 users, 5 antennas on
    a 10 m waveguide serving a 10 m x 10 m area at 28 GHz, moderate blockage
    and a 10% relative channel-estimate error bound.  Heights, spacing, guide
    loss, power, noise and obstacle geometry carry typical indoor mmWave
    magnitudes; everything is overridable.
    """

    num_users: int = 3
    num_pas: int = 5                 # antennas clamped onto the waveguide
    waveguide_len: float = 10.0      # m, guide spans [0, L] on the x axis
    pa_height: float = 3.0           # m, antennas sit at z = H
    min_spacing: float = 0.5         # m, minimum gap between adjacent antennas
    area_x: float = 10.0             # m, users drawn in (0, area_x)
    area_y: float = 10.0             # m, users drawn in (0, area_y), y > 0
    carrier_freq: float = 28e9       # Hz
    guide_index: float = 1.4         # effective index; in-guide wavelength = lambda / n
    wg_loss: float = 0.1             # dB per meter of guided propagation
    tx_power: float = 1.0            # W, total superposed transmit power
    noise_power: float = 1e-9        # W (-60 dBm)
    blockage_beta: float = 0.1       # residual transmission under total blockage
    blockage_alpha: float = 2.0      # 1/m, clearance rate of the soft-blockage factor
    csi_eps: float = 0.1             # relative channel-estimate error bound, in [0, 1)
    eta_i: float = 0.5               # interference inflation level
    eta_r: float = 0.2               # residual cancellation leakage level
    penalty_mu: float = 1.0          # weight of the order-violation penalty
    obstacle_count: int = 3
    obstacle_radius_range: tuple = (0.3, 0.8)  # m

    def __post_init__(self):
        if isinstance(self.obstacle_radius_range, list):
            object.__setattr__(self, "obstacle_radius_range",
                               tuple(self.obstacle_radius_range))
        self.validate()

    def validate(self):
        _check_field_types(self)
        if self.num_users < 1:
            raise ConfigError(f"num_users must be >= 1, got {self.num_users}")
        if self.num_pas < 1:
            raise ConfigError(f"num_pas must be >= 1, got {self.num_pas}")
        if self.waveguide_len <= 0:
            raise ConfigError(f"waveguide_len must be > 0, got {self.waveguide_len}")
        if self.pa_height <= 0:
            raise ConfigError(f"pa_height must be > 0, got {self.pa_height}")
        if self.min_spacing < 0:
            raise ConfigError(f"min_spacing must be >= 0, got {self.min_spacing}")
        if (self.num_pas - 1) * self.min_spacing > self.waveguide_len:
            raise ConfigError(
                "antenna spacing infeasible: (num_pas - 1) * min_spacing = "
                f"{(self.num_pas - 1) * self.min_spacing} exceeds waveguide_len = "
                f"{self.waveguide_len}")
        if self.area_x <= 0 or self.area_y <= 0:
            raise ConfigError("area_x and area_y must be > 0, got "
                              f"{self.area_x} x {self.area_y}")
        if self.carrier_freq <= 0:
            raise ConfigError(f"carrier_freq must be > 0, got {self.carrier_freq}")
        if self.guide_index < 1:
            raise ConfigError(f"guide_index must be >= 1, got {self.guide_index}")
        wavelengths = (self.wavelength, self.guide_wavelength)
        if not all(math.isfinite(w) and w > 0 for w in wavelengths):
            raise ConfigError(
                f"carrier_freq = {self.carrier_freq} with guide_index = {self.guide_index} "
                "must give a finite positive wavelength and guide wavelength, got "
                f"{wavelengths[0]} and {wavelengths[1]}")
        if self.wg_loss < 0:
            raise ConfigError(f"wg_loss must be >= 0, got {self.wg_loss}")
        if self.tx_power <= 0:
            raise ConfigError(f"tx_power must be > 0, got {self.tx_power}")
        if self.noise_power <= 0:
            raise ConfigError(f"noise_power must be > 0, got {self.noise_power}")
        if not 0 < self.blockage_beta <= 1:
            raise ConfigError(f"blockage_beta must be in (0, 1], got {self.blockage_beta}")
        if self.blockage_alpha <= 0:
            raise ConfigError(f"blockage_alpha must be > 0, got {self.blockage_alpha}")
        if not 0 <= self.csi_eps < 1:
            raise ConfigError(f"csi_eps must be in [0, 1), got {self.csi_eps}")
        if self.eta_i <= 0:
            raise ConfigError(f"eta_i must be > 0, got {self.eta_i}")
        try:  # bounds the interference weight (1 + eta_i * eps)**2, as eps < 1
            (1.0 + self.eta_i) ** 2
        except OverflowError:
            raise ConfigError("eta_i must keep (1 + eta_i)**2 a finite float, "
                              f"got {self.eta_i}") from None
        if self.eta_r < 0:
            raise ConfigError(f"eta_r must be >= 0, got {self.eta_r}")
        if self.penalty_mu <= 0:
            raise ConfigError(f"penalty_mu must be > 0, got {self.penalty_mu}")
        if self.obstacle_count < 0:
            raise ConfigError(f"obstacle_count must be >= 0, got {self.obstacle_count}")
        radii = self.obstacle_radius_range
        if (not isinstance(radii, tuple) or len(radii) != 2
                or not all(_is_finite_number(r) for r in radii)):
            raise ConfigError("obstacle_radius_range must be two numbers [lo, hi], "
                              f"got {reprlib.repr(radii)}")
        lo, hi = radii
        if not 0 < lo <= hi:
            raise ConfigError("obstacle_radius_range must satisfy 0 < lo <= hi, got "
                              f"{self.obstacle_radius_range}")

    @property
    def wavelength(self):
        """Free-space wavelength in meters."""
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def guide_wavelength(self):
        """In-guide wavelength in meters."""
        return self.wavelength / self.guide_index


@dataclass(frozen=True)
class PsoParams:
    """Swarm-optimizer hyperparameters (constriction-equivalent defaults)."""

    num_particles: int = 60
    max_iters: int = 200
    inertia: float = 0.729
    cognitive: float = 1.494
    social: float = 1.494
    velocity_clamp: float = 0.2   # per-dimension bound as a fraction of the dimension range

    def __post_init__(self):
        _check_field_types(self)
        if self.num_particles < 1:
            raise ConfigError(f"num_particles must be >= 1, got {self.num_particles}")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0 <= self.inertia <= 1:
            raise ConfigError(f"inertia must be in [0, 1], got {self.inertia}")
        if self.cognitive < 0 or self.social < 0:
            raise ConfigError("cognitive and social weights must be >= 0, got "
                              f"{self.cognitive}, {self.social}")
        if self.velocity_clamp <= 0:
            raise ConfigError(f"velocity_clamp must be > 0, got {self.velocity_clamp}")


@dataclass(frozen=True)
class ExperimentSettings:
    """Monte-Carlo harness settings.

    ``score_mode`` selects how every scheme's final candidate is scored:
    "conservative" (worst-case evaluation at the configured error bound) or
    "true_sampled" (nominal evaluation with one sampled estimate-error
    realization).  No setting records wall time, so a sweep with a fixed
    master seed is byte-identical on re-run.
    """

    realizations: int = 50
    eps_grid: tuple = (0.0, 0.05, 0.10, 0.15, 0.20)
    k_grid: tuple = (2, 3, 4, 5)
    score_mode: str = "conservative"

    def __post_init__(self):
        object.__setattr__(self, "eps_grid", _grid("eps_grid", self.eps_grid,
                                                   _is_finite_number, "finite numbers"))
        object.__setattr__(self, "k_grid", _grid("k_grid", self.k_grid,
                                                 _is_integer, "integers"))
        _check_field_types(self)
        if self.realizations < 1:
            raise ConfigError(f"realizations must be >= 1, got {self.realizations}")
        if any(not 0 <= e < 1 for e in self.eps_grid):
            raise ConfigError(f"eps_grid values must be in [0, 1), got {self.eps_grid}")
        if any(k < 1 for k in self.k_grid):
            raise ConfigError(f"k_grid values must be positive integers, got {self.k_grid}")
        if self.score_mode not in ("conservative", "true_sampled"):
            raise ConfigError("score_mode must be 'conservative' or 'true_sampled', "
                              f"got {reprlib.repr(self.score_mode)}")


@dataclass(frozen=True)
class RunConfig:
    """Complete description of a run: system + optimizer + harness."""

    system: SystemConfig = SystemConfig()
    pso: PsoParams = PsoParams()
    experiments: ExperimentSettings = ExperimentSettings()

    def to_dict(self):
        d = dataclasses.asdict(self.system)
        d["pso"] = dataclasses.asdict(self.pso)
        d["experiments"] = dataclasses.asdict(self.experiments)
        return d


def _check_sizes(run: RunConfig):
    """Refuse a run whose size fields or grid lengths, or the arrays it sizes
    from them, exceed ``MAX_ELEMENTS``.  The arrays are the realization
    seeds, the fitness kernel's obstacle block at the largest user count,
    the multiplier block and one realization's search trajectories (up to
    one search per error bound, plus the non-robust one).  The obstacle
    block bounds every kernel call, as calls stack within ``LOCKSTEP_BUDGET``."""
    system, pso, exp = run.system, run.pso, run.experiments
    users = max(system.num_users, *exp.k_grid)
    sizes = {
        "num_users": system.num_users, "num_pas": system.num_pas,
        "obstacle_count": system.obstacle_count, "num_particles": pso.num_particles,
        "max_iters": pso.max_iters, "realizations": exp.realizations,
        "max(k_grid)": max(exp.k_grid), "len(eps_grid)": len(exp.eps_grid),
        "len(k_grid)": len(exp.k_grid),
        "num_particles * max(num_users, k_grid) * num_pas * max(obstacle_count, 1)":
            pso.num_particles * users * system.num_pas * max(system.obstacle_count, 1),
        "num_particles * max_iters * 2": pso.num_particles * pso.max_iters * 2,
        "(len(eps_grid) + 1) * (max_iters + 1) * (num_pas + max(num_users, k_grid))":
            (len(exp.eps_grid) + 1) * (pso.max_iters + 1) * (system.num_pas + users),
    }
    for name, size in sizes.items():
        if size > MAX_ELEMENTS:
            raise ConfigError(f"{name} = {size} exceeds {MAX_ELEMENTS} (2**24), the "
                              "most elements of any array a run allocates")


_SYSTEM_KEYS = {f.name for f in dataclasses.fields(SystemConfig)}
_PSO_KEYS = {f.name for f in dataclasses.fields(PsoParams)}
_EXPERIMENT_KEYS = {f.name for f in dataclasses.fields(ExperimentSettings)}


def _build_section(cls, values, known, section):
    unknown = sorted(set(values) - known)
    if unknown:
        raise ConfigError(f"unknown {section} config key(s): {', '.join(unknown)}")
    return cls(**values)


def run_config_from_dict(doc):
    """Build a RunConfig from a plain dict (parsed JSON).

    Top-level keys are SystemConfig fields; the optional "pso" and
    "experiments" sections hold the other two groups.  Unknown keys anywhere
    are a hard error so typos cannot silently fall back to defaults, and so
    are sizes beyond ``MAX_ELEMENTS``.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    doc = dict(doc)
    pso_doc = doc.pop("pso", {})
    exp_doc = doc.pop("experiments", {})
    if not isinstance(pso_doc, dict) or not isinstance(exp_doc, dict):
        raise ConfigError("'pso' and 'experiments' config sections must be JSON objects")
    system = _build_section(SystemConfig, doc, _SYSTEM_KEYS, "system")
    pso = _build_section(PsoParams, pso_doc, _PSO_KEYS, "pso")
    experiments = _build_section(ExperimentSettings, exp_doc, _EXPERIMENT_KEYS, "experiments")
    run = RunConfig(system=system, pso=pso, experiments=experiments)
    _check_sizes(run)
    return run


def load_run_config(path):
    """Load and validate a JSON config file; missing keys take defaults."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:  # a directory, say, or not UTF-8
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # bad syntax, or an integer beyond the digit limit
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"JSON in {path} is nested too deeply to parse") from None
    return run_config_from_dict(doc)


def apply_overrides(doc, overrides):
    """Apply repeatable key=value overrides to a config dict.

    Bare keys address system fields; dotted keys ("pso.max_iters=50",
    "experiments.realizations=10") address the sections.  Values are parsed
    as JSON where possible, else kept as strings.  Unknown keys surface as
    ConfigError when the updated dict is re-validated.
    """
    doc = json.loads(json.dumps(doc))  # deep copy, JSON-typed
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        try:
            value = json.loads(raw)
        except ValueError:  # not JSON, or an integer beyond the digit limit
            value = raw
        except RecursionError:
            raise ConfigError(f"{key} override is nested too deeply to parse") from None
        if "." in key:
            section, field = key.split(".", 1)
            if section not in ("pso", "experiments"):
                raise ConfigError(f"unknown override section {section!r} in {item!r}")
            section_doc = doc.setdefault(section, {})
            if not isinstance(section_doc, dict):  # replaced by an earlier override
                raise ConfigError(f"'{section}' config section must be a JSON object "
                                  f"to take {item!r}, got {reprlib.repr(section_doc)}")
            section_doc[field] = value
        else:
            doc[key] = value
    return doc
