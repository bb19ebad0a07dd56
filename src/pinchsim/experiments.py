"""Monte-Carlo comparison harness for the four design schemes.

Schemes: RobustPSO (search under the worst-case evaluation), NonRobustPSO
(search under perfect-estimate evaluation), Random (one feasible draw) and
Uniform (evenly spaced antennas, equal power split).  Every scheme's final
candidate is scored with the same evaluation so curves are comparable; by
default that is the worst-case (conservative) min-SINR at the configured
error bound.

A PSO scheme searches at ``pso.search_point``: the configured bound for
RobustPSO, the perfect-estimate bound 0 for NonRobustPSO; a RobustPSO at a
zero bound has the same gains.  The scenario does not depend on the bound,
so a sweep collects, per realization, the search points of every grid point
that shares its scenario (all of them in an error-bound sweep) and searches
each distinct point once, all in lockstep (``pso.optimize_points``).

Realizations run serially in seed order: each derives its own seeds from
the master seed, so a sweep's rows depend only on the config and the master
seed.  The CSV schema is one row per (sweep point, realization, scheme) with
linear and dB min-SINR.
"""

import dataclasses
import math
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import channel, kernels, noma, pso
from .config import ConfigError, ExperimentSettings, PsoParams, SystemConfig
from .scenario import Scenario, generate_scenario, stream, uniform_layout

SCHEMES = ("RobustPSO", "NonRobustPSO", "Random", "Uniform")
_SEARCH_SCHEMES = SCHEMES[:2]

CSV_HEADER = "sweep_var,sweep_value,scheme,seed,min_sinr_linear,min_sinr_db,runtime_ms"


@dataclass(frozen=True)
class SweepRecord:
    """One scored scheme on one realization of one sweep point.

    ``runtime_ms`` is 0 unless runtime is recorded.  In a sweep a PSO
    scheme's search runs in lockstep with the other searches of its
    realization, so its runtime is that search's wall time divided by the
    number of distinct searches, plus its own scoring time.
    """

    sweep_var: str
    sweep_value: float
    scheme: str
    seed: int
    min_sinr_linear: float
    min_sinr_db: float
    runtime_ms: float


@dataclass
class ConvergenceTraces:
    """Aggregated optimizer traces for the two search-based schemes.

    fitness holds the mean internal global-best fitness per iteration (each
    underlying per-realization trace is nondecreasing by construction);
    rescored_min_sinr holds the mean worst-case min-SINR of the running
    global best, which puts both schemes on a common scale.
    """

    iterations: np.ndarray                 # (T+1,)
    fitness: dict                          # scheme -> (T+1,) mean trace
    rescored_min_sinr: dict                # scheme -> (T+1,) mean trace
    per_realization_fitness: dict          # scheme -> (R, T+1)


def to_db(linear):
    return 10.0 * np.log10(linear)


def realization_seeds(master_seed, count):
    """Derived 64-bit seeds, one per realization, stable given the master seed."""
    return [int(s) for s in
            np.random.SeedSequence(int(master_seed)).generate_state(count, dtype=np.uint64)]


def score_candidate(x_pos, alpha, scenario: Scenario, config: SystemConfig,
                    mode="conservative", seed=0):
    """Final scoring shared by all schemes.

    conservative: worst-case min-SINR at the configured error bound with the
    nominal channel as the estimate.  true_sampled: draw one estimate-error
    realization, order by the estimates, and evaluate the nominal SINR of
    the true channels in that order.
    """
    if mode == "conservative":
        _, gmin, _ = kernels.swarm_fitness(np.asarray(x_pos)[None, :],
                                           np.asarray(alpha)[None, :], scenario, config)
        return float(gmin[0])
    rng = stream(seed, "csi_sample")
    chans = channel.compute_channels(x_pos, scenario, config, rng=rng)
    order = noma.conservative_order(chans.h_hat, config.csi_eps).order
    h_sq = np.abs(chans.h[order]) ** 2
    sinrs = noma.true_sinr(h_sq, np.asarray(alpha)[order],
                           config.tx_power, config.noise_power)
    return noma.min_sinr(sinrs)


def _require_reportable(where, column, value, positive=True):
    """Refuse a result the CSV cannot report, before anything is written.

    A min-SINR must be finite and positive, so that its dB value is finite
    too; a fitness must be finite.  Such a result comes from a config whose
    link budget over- or underflows, so the ConfigError names ``where``.
    """
    if not (math.isfinite(value) and (value > 0 or not positive)):
        kind = "a finite positive" if positive else "a finite"
        raise ConfigError(f"{where}: {column} is {value!r}, not {kind} number")


def _require_reportable_traces(where, prefix, fitness, min_sinr, positive):
    """``_require_reportable`` on every iteration of a fitness and a min-SINR
    trace; ``positive`` applies to the min-SINR only."""
    for t, (f, g) in enumerate(zip(fitness.tolist(), min_sinr.tolist())):
        _require_reportable(f"{where} iteration={t}", prefix + "gbest_fitness", f,
                            positive=False)
        _require_reportable(f"{where} iteration={t}", prefix + "min_sinr_linear", g,
                            positive)


def _record(scheme, search, scenario: Scenario, config: SystemConfig, seed,
            sweep_var, sweep_value, score_mode, started, search_ms=0.0):
    """Score one scheme's candidate; a PSO scheme's comes from its ``search``.

    ``started`` is the perf_counter time the scheme's own work began, or None
    when runtime is not recorded; ``search_ms`` is its share of a search
    that ran before it.
    """
    if scheme in _SEARCH_SCHEMES:
        x_pos, alpha = search.best_x, search.best_alpha
    elif scheme == "Random":
        rng = stream(seed, "random_scheme")
        theta = pso.draw_theta(config, rng)
        x_pos, alpha = pso.split_theta(theta, config.num_pas)
    elif scheme == "Uniform":
        x_pos = uniform_layout(config)
        alpha = np.full(config.num_users, 1.0 / config.num_users)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    gmin = float(score_candidate(x_pos, alpha, scenario, config,
                                 mode=score_mode, seed=seed))
    _require_reportable(f"{sweep_var}={sweep_value:.9g} scheme={scheme} seed={seed}",
                        "min_sinr_linear", gmin)
    runtime_ms = (search_ms + (time.perf_counter() - started) * 1e3
                  if started is not None else 0.0)
    return SweepRecord(sweep_var=sweep_var, sweep_value=float(sweep_value),
                       scheme=scheme, seed=int(seed),
                       min_sinr_linear=gmin,
                       min_sinr_db=float(to_db(gmin)),
                       runtime_ms=runtime_ms)


def run_scheme(scheme, scenario: Scenario, config: SystemConfig,
               pso_params: PsoParams, seed, sweep_var="csi_eps",
               sweep_value=None, record_runtime=False,
               score_mode="conservative") -> SweepRecord:
    """Run one scheme on one realization, its own search included, and score it."""
    if sweep_value is None:
        sweep_value = config.csi_eps
    t0 = time.perf_counter()
    search = (pso.optimize(scenario, config, pso_params, seed,
                           robust=(scheme == "RobustPSO"))
              if scheme in _SEARCH_SCHEMES else None)
    return _record(scheme, search, scenario, config, seed, sweep_var, sweep_value,
                   score_mode, t0 if record_runtime else None)


def _sweep(config: SystemConfig, pso_params: PsoParams, sweep_var, grid,
           make_config, master_seed, settings: ExperimentSettings,
           progress=None):
    """Records in (grid point, realization, scheme) order.

    Grid points whose configs differ only in the error bound share each
    realization's scenario, so their PSO schemes run as one
    ``pso.optimize_points`` call per realization, which searches each
    distinct evaluation point once.
    """
    seeds = realization_seeds(master_seed, settings.realizations)
    configs = [make_config(value) for value in grid]
    groups = {}
    for i, point_config in enumerate(configs):
        groups.setdefault(dataclasses.replace(point_config, csi_eps=0.0), []).append(i)
    rows = {}
    for members in groups.values():
        group_config = configs[members[0]]
        for j, seed in enumerate(seeds):
            scenario = generate_scenario(group_config, seed)
            points = [pso.search_point(configs[i], scheme == "RobustPSO")
                      for i in members for scheme in _SEARCH_SCHEMES]
            t0 = time.perf_counter()
            found = dict(zip(points, pso.optimize_points(
                scenario, group_config, pso_params, seed, points)))
            search_ms = (time.perf_counter() - t0) * 1e3 / len(found)
            for i in members:
                rows[i, j] = []
                for scheme in SCHEMES:
                    started = time.perf_counter() if settings.record_runtime else None
                    search, share_ms = None, 0.0
                    if scheme in _SEARCH_SCHEMES:
                        search = found[pso.search_point(configs[i], scheme == "RobustPSO")]
                        share_ms = search_ms
                    rows[i, j].append(_record(
                        scheme, search, scenario, configs[i], seed, sweep_var,
                        grid[i], settings.score_mode, started, share_ms))
        if progress is not None:
            for i in members:
                progress(f"{sweep_var}={grid[i]} done")
    return [record for i in range(len(grid)) for j in range(len(seeds))
            for record in rows[i, j]]


def sweep_epsilon(config: SystemConfig, pso_params: PsoParams,
                  settings: ExperimentSettings, master_seed, progress=None):
    """All schemes across the estimate-error grid.

    The scenario draw does not depend on the error bound, so each
    realization index reuses the same geometry at every grid point (paired
    comparison).
    """
    return _sweep(config, pso_params, "csi_eps", settings.eps_grid,
                  lambda e: dataclasses.replace(config, csi_eps=float(e)),
                  master_seed, settings, progress)


def sweep_users(config: SystemConfig, pso_params: PsoParams,
                settings: ExperimentSettings, master_seed, progress=None):
    """All schemes across the user-count grid."""
    return _sweep(config, pso_params, "num_users", settings.k_grid,
                  lambda k: dataclasses.replace(config, num_users=int(k)),
                  master_seed, settings, progress)


def convergence_trace(config: SystemConfig, pso_params: PsoParams,
                      num_realizations, master_seed,
                      progress=None) -> ConvergenceTraces:
    """Mean optimizer traces for the robust and non-robust search modes.

    Both the internal fitness trace and the worst-case re-scored min-SINR of
    the running global best are aggregated; the latter is what makes the two
    modes comparable at the configured error bound.
    """
    schemes = _SEARCH_SCHEMES
    traces = {scheme: [] for scheme in schemes}
    rescored_traces = {scheme: [] for scheme in schemes}
    points = [pso.search_point(config, scheme == "RobustPSO") for scheme in schemes]
    for r, seed in enumerate(realization_seeds(master_seed, num_realizations)):
        scenario = generate_scenario(config, seed)
        results = pso.optimize_points(scenario, config, pso_params, seed, points)
        for scheme, result in zip(schemes, results):
            xs, alphas = pso.split_theta(result.gbest_thetas, config.num_pas)
            _, rescored, _ = kernels.swarm_fitness(xs, alphas, scenario, config)
            # a degenerate config shows in the first realization: stop there
            _require_reportable_traces(
                f"converge realization {r + 1}/{num_realizations} seed={seed} "
                f"scheme={scheme}", "", result.trace, rescored, positive=False)
            traces[scheme].append(result.trace)
            rescored_traces[scheme].append(rescored)
        if progress is not None:
            progress(f"realization {r + 1}/{num_realizations} done")
    stacks = {scheme: np.stack(traces[scheme]) for scheme in schemes}
    fitness = {scheme: stacks[scheme].mean(axis=0) for scheme in schemes}
    rescored = {scheme: np.stack(rescored_traces[scheme]).mean(axis=0)
                for scheme in schemes}
    for scheme in schemes:  # a mean can still be 0 or overflow
        _require_reportable_traces(f"converge scheme={scheme}", "mean_",
                                   fitness[scheme], rescored[scheme], positive=True)
    return ConvergenceTraces(iterations=np.arange(pso_params.max_iters + 1),
                             fitness=fitness, rescored_min_sinr=rescored,
                             per_realization_fitness=stacks)


def _fmt(value):
    return f"{value:.9g}"


def records_to_csv_text(records):
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            r.sweep_var, _fmt(r.sweep_value), r.scheme, str(r.seed),
            _fmt(r.min_sinr_linear), _fmt(r.min_sinr_db), _fmt(r.runtime_ms)]))
    return "\n".join(lines) + "\n"


def convergence_to_csv_text(traces: ConvergenceTraces):
    lines = ["scheme,iteration,mean_gbest_fitness,mean_min_sinr_linear,mean_min_sinr_db"]
    for scheme in traces.fitness:
        f = traces.fitness[scheme]
        g = traces.rescored_min_sinr[scheme]
        for t in traces.iterations:
            lines.append(",".join([scheme, str(int(t)), _fmt(f[t]),
                                   _fmt(g[t]), _fmt(to_db(g[t]))]))
    return "\n".join(lines) + "\n"


def write_text_atomic(path, text):
    """Write via a temp file + rename so failures leave no partial output."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def aggregate_mean_db(records):
    """Mean dB min-SINR keyed by (sweep_value, scheme), insertion-ordered."""
    groups = {}
    for r in records:
        groups.setdefault((r.sweep_value, r.scheme), []).append(r.min_sinr_db)
    return {key: float(np.mean(vals)) for key, vals in groups.items()}
