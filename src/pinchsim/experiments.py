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
so ``_searches``, the one search step, searches each distinct point of
the configs sharing a scenario once per realization.

``pso.optimize_realizations`` decides how many realizations it searches
together and hands them back one at a time, in seed order; each
realization's final candidates are then scored together, ``pso.kernel_rows``
to a kernel call.  Each realization derives its own seeds from the master seed
and no row depends on its batch, so a sweep's rows depend only on the config
and the master seed.  The CSV schema is one row per (sweep point,
realization, scheme) with linear and dB min-SINR, and no wall time.
"""

import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np

from . import kernels, pso
from .config import ConfigError, ExperimentSettings, PsoParams, SystemConfig
from .noma import apply_csi_error, robust_gains
from .scenario import (Scenario, generate_scenario, stack_scenarios, stream,
                       uniform_layout)

SCHEMES = ("RobustPSO", "NonRobustPSO", "Random", "Uniform")
_SEARCH_SCHEMES = SCHEMES[:2]

CSV_HEADER = "sweep_var,sweep_value,scheme,seed,min_sinr_linear,min_sinr_db"


@dataclass(frozen=True)
class SweepRecord:
    """One scored scheme on one realization of one sweep point."""

    sweep_var: str
    sweep_value: float
    scheme: str
    seed: int
    min_sinr_linear: float
    min_sinr_db: float


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
    """Final scoring shared by all schemes: the one-candidate case of
    ``score_candidates``."""
    return score_candidates([x_pos], [alpha], [scenario], [config], [seed], mode)[0]


@np.errstate(all="ignore")
def score_candidates(xs, alphas, scenarios, configs, seeds, mode="conservative"):
    """Final scores of candidates, row i being (xs[i], alphas[i]) on
    scenarios[i] under configs[i], realization seed seeds[i], each row a
    block of its own, at most ``pso.kernel_rows`` rows to a kernel call.  The
    configs may differ in the error bound only.  Floating-point warnings are
    silenced, as in the kernel.

    conservative: worst-case min-SINR at the row's configured error bound
    with the nominal channel as the estimate.  true_sampled: draw one
    estimate-error realization from the row's ``csi_sample`` stream, order
    by the estimates (ties in index order), and evaluate the nominal SINR
    of the true channels in that order.
    """
    step = pso.kernel_rows(configs[0])
    if len(xs) > step:  # no row depends on its batch, so each call is exact
        rows = (xs, alphas, scenarios, configs, seeds)
        return [score for i in range(0, len(xs), step)
                for score in score_candidates(*(a[i:i + step] for a in rows), mode)]
    xs, alphas, scenario = np.asarray(xs), np.asarray(alphas), stack_scenarios(scenarios)
    if mode == "conservative":
        gains = kernels.row_gains([robust_gains(c.csi_eps, c.eta_i, c.eta_r)
                                   for c in configs], 1)
        _, gmin, _ = kernels.swarm_fitness(xs, alphas, scenario, configs[0], gains=gains)
        return gmin.tolist()
    h = kernels.effective_channels(xs, scenario, configs[0])
    h_hat = np.stack([apply_csi_error(h[:, i], c.csi_eps, stream(seed, "csi_sample"))
                      for i, (c, seed) in enumerate(zip(configs, seeds))], axis=1)
    order = np.argsort(np.abs(h_hat), axis=0, kind="stable")
    nominal = kernels.row_gains([robust_gains(0.0, 1.0, 0.0)], len(xs))[1:]
    return kernels.ordered_min_sinr(np.abs(h) ** 2, order, alphas, nominal,
                                    configs[0]).tolist()


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


def _candidate(scheme, found, config: SystemConfig, seed):
    """(x_pos, alpha) of one scheme; a PSO scheme's is the result in ``found``
    (``RobustGains`` -> ``PsoResult``) at its ``pso.search_point``."""
    if scheme in _SEARCH_SCHEMES:
        search = found[pso.search_point(config, scheme == "RobustPSO")]
        return search.best_x, search.best_alpha
    if scheme == "Random":
        theta = pso.draw_theta(config, stream(seed, "random_scheme"))
        return pso.split_theta(theta, config.num_pas)
    if scheme == "Uniform":
        return uniform_layout(config), np.full(config.num_users, 1.0 / config.num_users)
    raise ValueError(f"unknown scheme {scheme!r}")


def _records(cases, sweep_var, score_mode):
    """Score each (scheme, found, scenario, config, seed, sweep_value) case of
    ``cases`` in one ``score_candidates`` call; the first case in order whose
    score cannot be reported is refused."""
    schemes, founds, scenarios, configs, seeds, values = zip(*cases)
    picks = [_candidate(*case) for case in zip(schemes, founds, configs, seeds)]
    gmins = score_candidates([x for x, _ in picks], [a for _, a in picks],
                             scenarios, configs, seeds, score_mode)
    records = []
    for scheme, seed, value, gmin in zip(schemes, seeds, values, gmins):
        _require_reportable(f"{sweep_var}={value:.9g} scheme={scheme} seed={seed}",
                            "min_sinr_linear", gmin)
        records.append(SweepRecord(sweep_var=sweep_var, sweep_value=float(value),
                                   scheme=scheme, seed=int(seed), min_sinr_linear=gmin,
                                   min_sinr_db=float(to_db(gmin))))
    return records


def run_scheme(scheme, scenario: Scenario, config: SystemConfig,
               pso_params: PsoParams, seed, sweep_var="csi_eps",
               sweep_value=None, score_mode="conservative") -> SweepRecord:
    """Run one scheme on one realization, its own search included, and score it."""
    if sweep_value is None:
        sweep_value = config.csi_eps
    found = {}
    if scheme in _SEARCH_SCHEMES:
        robust = scheme == "RobustPSO"
        found[pso.search_point(config, robust)] = pso.optimize(
            scenario, config, pso_params, seed, robust=robust)
    return _records([(scheme, found, scenario, config, seed, sweep_value)], sweep_var,
                    score_mode)[0]


def _searches(configs, seeds, pso_params: PsoParams):
    """The PSO searches of ``configs``, which share each realization's
    scenario and differ at most in the error bound, for every seed of
    ``seeds``: the one search step of sweeps and ``converge``.  Yields each
    realization's scenario and ``{RobustGains: PsoResult}``, in seed order."""
    points = [pso.search_point(config, scheme == "RobustPSO")
              for config in configs for scheme in _SEARCH_SCHEMES]
    scenarios = (generate_scenario(configs[0], seed) for seed in seeds)
    return pso.optimize_realizations(scenarios, seeds, points, configs[0], pso_params)


def _sweep(pso_params: PsoParams, sweep_var, grid, make_config, master_seed,
           settings: ExperimentSettings, progress=None):
    """Records in (grid point, realization, scheme) order.

    Grid points whose configs differ only in the error bound share each
    realization's scenario, so their PSO schemes run as one ``_searches``
    step, and each realization's records are scored together.
    """
    seeds = realization_seeds(master_seed, settings.realizations)
    configs = [make_config(value) for value in grid]
    groups = {}
    for i, point_config in enumerate(configs):
        groups.setdefault(dataclasses.replace(point_config, csi_eps=0.0), []).append(i)
    rows = {}
    for members in groups.values():
        cases = [(i, scheme) for i in members for scheme in SCHEMES]
        for j, (scenario, found) in enumerate(
                _searches([configs[i] for i in members], seeds, pso_params)):
            records = _records([(scheme, found, scenario, configs[i], seeds[j], grid[i])
                                for i, scheme in cases], sweep_var, settings.score_mode)
            for (i, _), record in zip(cases, records):
                rows.setdefault((i, j), []).append(record)
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
    return _sweep(pso_params, "csi_eps", settings.eps_grid,
                  lambda e: dataclasses.replace(config, csi_eps=float(e)),
                  master_seed, settings, progress)


def sweep_users(config: SystemConfig, pso_params: PsoParams,
                settings: ExperimentSettings, master_seed, progress=None):
    """All schemes across the user-count grid."""
    return _sweep(pso_params, "num_users", settings.k_grid,
                  lambda k: dataclasses.replace(config, num_users=int(k)),
                  master_seed, settings, progress)


def convergence_trace(config: SystemConfig, pso_params: PsoParams,
                      num_realizations, master_seed,
                      progress=None) -> ConvergenceTraces:
    """Mean optimizer traces for the robust and non-robust search modes.

    Both the internal fitness trace and the worst-case re-scored min-SINR of
    the running global best are aggregated; the latter is what makes the two
    modes comparable at the configured error bound.  ``score_candidates``
    re-scores only the rows where a global best moved; the others repeat.
    """
    schemes = _SEARCH_SCHEMES
    points = [pso.search_point(config, scheme == "RobustPSO") for scheme in schemes]
    seeds = realization_seeds(master_seed, num_realizations)
    traces = {scheme: [] for scheme in schemes}
    rescored_traces = {scheme: [] for scheme in schemes}
    for r, (scenario, found) in enumerate(_searches([config], seeds, pso_params)):
        gbests = np.stack([found[point].gbest_thetas for point in points])
        moved = np.ones(gbests.shape[:2], dtype=bool)  # (scheme, iteration)
        moved[:, 1:] = np.any(gbests[:, 1:] != gbests[:, :-1], axis=-1)
        xs, alphas = pso.split_theta(gbests[moved], config.num_pas)
        scores = score_candidates(xs, alphas, [scenario] * len(xs), [config] * len(xs),
                                  [seeds[r]] * len(xs))
        # each row takes the score of the last row at or before it that moved
        rescored = np.array(scores)[np.cumsum(moved).reshape(moved.shape) - 1]
        for scheme, point, trace in zip(schemes, points, rescored):
            # a degenerate config shows in the first realization: stop there
            _require_reportable_traces(
                f"converge realization {r + 1}/{num_realizations} seed={seeds[r]} "
                f"scheme={scheme}", "", found[point].trace, trace, positive=False)
            traces[scheme].append(found[point].trace)
            rescored_traces[scheme].append(trace)
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
            _fmt(r.min_sinr_linear), _fmt(r.min_sinr_db)]))
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
    """Write via a temp file + rename so failures leave no partial output.
    The temp file is created 0o666 less the umask, as by a plain ``open``
    (``tempfile.mkstemp`` would make the output 0o600)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
