"""Configuration objects and JSON config-file handling.

Three parameter groups drive a run: the physical system (``SystemConfig``),
the swarm optimizer (``PsoParams``) and the Monte-Carlo harness
(``ExperimentSettings``).  All three are frozen dataclasses validated on
construction, so an instance that exists is feasible by construction and can
be shared read-only by every realization of a run.  Each int and float field
states its domain once, as an ``Interval`` in its field metadata (key "domain").
"""

import dataclasses
import json
import math
import numbers
import os
import reprlib
import sys
from dataclasses import dataclass

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Most elements (128 MiB of doubles) of any array a run sizes from its config,
# and the largest size field or grid length a config may hold.
MAX_ELEMENTS = 2 ** 24

# The largest eta_i whose (1 + eta_i)**2, which bounds every interference weight, is finite.
ETA_I_MAX = math.sqrt(sys.float_info.max)

# How a run scores each scheme's final candidate (``ExperimentSettings.score_mode``).
SCORE_MODES = ("conservative", "true_sampled")

# Each sweep grid of ``ExperimentSettings`` -> the ``SystemConfig`` field it sets.
SWEEPS = {"eps_grid": "csi_eps", "k_grid": "num_users"}


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


def _shown(value, brief=False):
    """A refused value in its message: ``str(value)``, or ``reprlib.repr(value)``
    if ``brief``; an integer too long for both shows by its bit length."""
    try:
        return reprlib.repr(value) if brief else str(value)
    except ValueError:  # over sys.get_int_max_str_digits() digits, or a list holding one
        if _is_integer(value):
            return f"a {value.bit_length()}-bit {'negative ' * (value < 0)}integer"
        return f"a {type(value).__name__} holding an integer too long to show"


@dataclass(frozen=True)
class Interval:
    """A numeric field's domain: the numbers from ``lo`` to ``hi``, each end
    closed unless marked open.  ``str`` gives the refusal's "must be" text."""

    lo: float
    hi: float = math.inf
    open_lo: bool = False
    open_hi: bool = False

    def __contains__(self, value):
        return ((self.lo < value if self.open_lo else self.lo <= value)
                and (value < self.hi if self.open_hi else value <= self.hi))

    def __str__(self):
        if self.hi == math.inf:
            return f"{'>' if self.open_lo else '>='} {self.lo}"
        left, right = "(" if self.open_lo else "[", ")" if self.open_hi else "]"
        return f"in {left}{self.lo}, {self.hi}{right}"


def at_least(lo):
    return Interval(lo)


def above(lo):
    return Interval(lo, open_lo=True)


def _in(default, domain):
    """A dataclass field whose values must lie in ``domain``."""
    return dataclasses.field(default=default, metadata={"domain": domain})


def _check_fields(instance):
    """Integer fields take integers (not bools or floats), float fields finite
    numbers, each in its field's domain; the cross-field rules assume all three."""
    for field in dataclasses.fields(instance):
        value = getattr(instance, field.name)
        if field.type is int and not _is_integer(value):
            raise ConfigError(f"{field.name} must be an integer, got {_shown(value, True)}")
        if field.type is float and not _is_finite_number(value):
            raise ConfigError(f"{field.name} must be a finite number, "
                              f"got {_shown(value, True)}")
        domain = field.metadata.get("domain")
        if domain is not None and value not in domain:
            raise ConfigError(f"{field.name} must be {domain}, got {_shown(value)}")


def _grid(name, values, swept):
    """A sweep grid as a tuple: a non-empty list of values of the ``swept``
    field, each in that field's domain."""
    is_item, kind = ((_is_integer, "integers") if swept.type is int
                     else (_is_finite_number, "finite numbers"))
    if (not isinstance(values, (list, tuple)) or not values
            or not all(is_item(v) for v in values)):
        raise ConfigError(f"{name} must be a non-empty list of {kind}, "
                          f"got {_shown(values, True)}")
    domain = swept.metadata["domain"]
    if not all(v in domain for v in values):
        raise ConfigError(f"{name} values must be {domain}, got {_shown(tuple(values))}")
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

    num_users: int = _in(3, Interval(1, MAX_ELEMENTS))
    num_pas: int = _in(5, Interval(1, MAX_ELEMENTS))  # antennas clamped onto the waveguide
    waveguide_len: float = _in(10.0, above(0))      # m, guide spans [0, L] on the x axis
    pa_height: float = _in(3.0, above(0))           # m, antennas sit at z = H
    min_spacing: float = _in(0.5, at_least(0))      # m, minimum gap between adjacent antennas
    area_x: float = _in(10.0, above(0))             # m, users drawn in (0, area_x)
    area_y: float = _in(10.0, above(0))             # m, users drawn in (0, area_y), y > 0
    carrier_freq: float = _in(28e9, above(0))       # Hz
    guide_index: float = _in(1.4, at_least(1))      # effective index n: lambda_g = lambda / n
    wg_loss: float = _in(0.1, at_least(0))          # dB per meter of guided propagation
    tx_power: float = _in(1.0, above(0))            # W, total superposed transmit power
    noise_power: float = _in(1e-9, above(0))        # W (-60 dBm)
    blockage_beta: float = _in(0.1, Interval(0, 1, open_lo=True))  # residual if fully blocked
    blockage_alpha: float = _in(2.0, above(0))      # 1/m, clearance rate of soft blockage
    csi_eps: float = _in(0.1, Interval(0, 1, open_hi=True))  # relative CSI error bound
    eta_i: float = _in(0.5, Interval(0, ETA_I_MAX, open_lo=True))  # interference level
    eta_r: float = _in(0.2, at_least(0))            # residual cancellation leakage level
    penalty_mu: float = _in(1.0, above(0))          # weight of the order-violation penalty
    obstacle_count: int = _in(3, Interval(0, MAX_ELEMENTS))
    obstacle_radius_range: tuple = (0.3, 0.8)       # m

    def __post_init__(self):
        if isinstance(self.obstacle_radius_range, list):
            object.__setattr__(self, "obstacle_radius_range",
                               tuple(self.obstacle_radius_range))
        _check_fields(self)
        if (self.num_pas - 1) * self.min_spacing > self.waveguide_len:
            raise ConfigError(
                "antenna spacing infeasible: (num_pas - 1) * min_spacing = "
                f"{(self.num_pas - 1) * self.min_spacing} exceeds waveguide_len = "
                f"{self.waveguide_len}")
        wavelengths = (self.wavelength, self.guide_wavelength)
        if not all(math.isfinite(w) and w > 0 for w in wavelengths):
            raise ConfigError(
                f"carrier_freq = {self.carrier_freq} with guide_index = {self.guide_index} "
                "must give a finite positive wavelength and guide wavelength, got "
                f"{wavelengths[0]} and {wavelengths[1]}")
        radii = self.obstacle_radius_range
        if (not isinstance(radii, tuple) or len(radii) != 2
                or not all(_is_finite_number(r) for r in radii)):
            raise ConfigError("obstacle_radius_range must be two numbers [lo, hi], "
                              f"got {_shown(radii, True)}")
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

    num_particles: int = _in(60, Interval(1, MAX_ELEMENTS))
    max_iters: int = _in(200, Interval(1, MAX_ELEMENTS))
    inertia: float = _in(0.729, Interval(0, 1))
    cognitive: float = _in(1.494, at_least(0))
    social: float = _in(1.494, at_least(0))
    velocity_clamp: float = _in(0.2, above(0))  # per-dimension bound, fraction of its range

    __post_init__ = _check_fields


@dataclass(frozen=True)
class ExperimentSettings:
    """Monte-Carlo harness settings.

    ``score_mode`` selects how every scheme's final candidate is scored:
    "conservative" (worst-case evaluation at the configured error bound) or
    "true_sampled" (nominal evaluation with one sampled estimate-error
    realization).  No setting records wall time, so a sweep with a fixed
    master seed is byte-identical on re-run.
    """

    realizations: int = _in(50, Interval(1, MAX_ELEMENTS))
    eps_grid: tuple = (0.0, 0.05, 0.10, 0.15, 0.20)
    k_grid: tuple = (2, 3, 4, 5)
    score_mode: str = "conservative"

    def __post_init__(self):
        _check_fields(self)
        for name, swept in SWEEPS.items():
            object.__setattr__(self, name, _grid(name, getattr(self, name),
                                                 SystemConfig.__dataclass_fields__[swept]))
        if self.score_mode not in SCORE_MODES:
            raise ConfigError(f"score_mode must be {' or '.join(map(repr, SCORE_MODES))}, "
                              f"got {_shown(self.score_mode, True)}")


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
    """Refuse a run whose grid lengths, or the arrays it sizes from several
    fields, exceed ``MAX_ELEMENTS``, which each size field's domain caps on
    its own.  The arrays are the fitness kernel's obstacle block at the
    largest user count, which bounds every kernel call (calls stack within
    ``LOCKSTEP_BUDGET``) and so each call's slot block and each slice of its
    plan's grid; the multiplier block; and one realization's search
    trajectories (up to one search per error bound, plus the non-robust one).
    A run draws one work unit's scenarios and particles at a time
    (``experiments._chunks``), so only the seeds grow with ``realizations``."""
    system, pso, exp = run.system, run.pso, run.experiments
    users = max(system.num_users, *exp.k_grid)
    sizes = {
        "len(eps_grid)": len(exp.eps_grid), "len(k_grid)": len(exp.k_grid),
        "num_particles * max(num_users, k_grid) * num_pas * max(obstacle_count, 1)":
            pso.num_particles * users * system.num_pas * max(system.obstacle_count, 1),
        "num_particles * max_iters * 2": pso.num_particles * pso.max_iters * 2,
        "(len(eps_grid) + 1) * (max_iters + 1) * (num_pas + max(num_users, k_grid))":
            (len(exp.eps_grid) + 1) * (pso.max_iters + 1) * (system.num_pas + users),
    }
    for name, size in sizes.items():
        if size > MAX_ELEMENTS:
            raise ConfigError(f"{name} = {_shown(size)} exceeds {MAX_ELEMENTS} (2**24), the "
                              "most elements of any array a run allocates")


def _build_section(cls, values, section):
    unknown = sorted(set(values) - {f.name for f in dataclasses.fields(cls)})
    if unknown:  # a key that is empty or has outer blanks shows as JSON: "", " "
        names = ", ".join(k if k == k.strip() != "" else json.dumps(k) for k in unknown)
        raise ConfigError(f"unknown {section} config key(s): {names}")
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
    run = RunConfig(_build_section(SystemConfig, doc, "system"),
                    _build_section(PsoParams, pso_doc, "pso"),
                    _build_section(ExperimentSettings, exp_doc, "experiments"))
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
    ConfigError when the updated dict is re-validated.  Returns a new dict;
    ``doc`` and its sections are left as they were.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    doc = dict(doc)  # each section an override writes is copied in its turn
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
            section_doc = doc.get(section, {})
            if not isinstance(section_doc, dict):  # as given, or as an earlier override set it
                raise ConfigError(f"'{section}' config section must be a JSON object "
                                  f"to take {item!r}, got {_shown(section_doc, True)}")
            doc[section] = {**section_doc, field: value}
        else:
            doc[key] = value
    return doc
