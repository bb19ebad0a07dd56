"""Monte-Carlo comparison harness for the four design schemes.

Schemes: RobustPSO (search under the worst-case evaluation), NonRobustPSO
(search under perfect-estimate evaluation), Random (one feasible draw) and
Uniform (evenly spaced antennas, equal power split).  Every scheme's final
candidate is scored with the same evaluation so curves are comparable; by
default that is the worst-case (conservative) min-SINR at the configured
error bound.

``_SEARCH_POINTS`` maps each PSO scheme to its search point: the config's
own for RobustPSO, ``kernels.NOMINAL`` for NonRobustPSO, which is
RobustPSO's at a zero bound.  The scenario does not depend on the bound, so
``_unit``, the one search step, searches each distinct point of the configs
sharing a scenario once per realization, by ``pso.search`` as ``run_scheme``.

``pso.search`` searches the realizations of one work unit together and
hands back their results in seed order; each realization's final
candidates are then scored together, ``pso.kernel_rows`` to a kernel call.
Each realization derives its own seeds from the master seed and no row
depends on its batch, so a sweep's rows depend only on the config and the
master seed.  The CSV schema is one row per (sweep point, realization,
scheme) with linear and dB min-SINR, and no wall time.

Sweeps and ``converge`` are one study, run by ``_study``: its work units are
(group, realization chunk) pairs, where a group is the configs that share a
scenario (one for ``converge``) and a chunk is ``pso.realizations_per_call``
realizations at the group's distinct points, the rule by which
``pso.search`` cuts its lockstep calls, so a unit never splits a kernel
batch.  ``_chunks`` alone cuts the realizations into chunks, and a unit
(``_unit``) draws only its own scenarios.  A unit searches its chunk and
returns only each realization's scores (or, for ``converge``, traces).  With
``workers`` > 1 and more than one unit, up to that many forked processes, no
more than the CPUs the run may use, take the units in descending order of
estimated kernel work, chunk realizations x distinct points x K x N x
max(O, 1), each the next when idle.  The parent alone builds the records,
prints progress, refuses the first unreportable result in (group,
realization, scheme) order and leaves the writing to its caller, so the
output does not depend on the worker count.  With one worker or one unit
the units run in this process, one after another.
"""

import contextlib
import dataclasses
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import kernels, pso
from .config import (SCORE_MODES, SWEEPS, ConfigError, ExperimentSettings, PsoParams,
                     SystemConfig)
from .kernels import apply_csi_error, robust_gains
from .scenario import Scenario, generate_scenario, stream, uniform_layout

SCHEMES = ("RobustPSO", "NonRobustPSO", "Random", "Uniform")
_SEARCH_POINTS = {"RobustPSO": lambda c: robust_gains(c.csi_eps, c.eta_i, c.eta_r),
                  "NonRobustPSO": lambda c: kernels.NOMINAL}  # point under config c

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
    return score_candidates([x_pos], [alpha], scenario, config, [config.csi_eps], seed,
                            mode)[0]


@np.errstate(all="ignore")
def score_candidates(xs, alphas, scenario: Scenario, config: SystemConfig, eps, seed,
                     mode="conservative"):
    """Final scores of candidates on one realization: row i is (xs[i],
    alphas[i]) on scenario, realization seed seed, under config at the error
    bound eps[i], at most ``pso.kernel_rows`` rows to a kernel call.
    Floating-point warnings are silenced, as in the kernel.

    conservative: worst-case min-SINR at the row's error bound with the
    nominal channel as the estimate.  true_sampled: draw one estimate error
    per user from the ``csi_sample`` stream, shared by the rows and scaled by
    each row's bound, order by the estimates (ties in index order), and
    evaluate the nominal SINR of the true channels in that order.
    """
    if mode not in SCORE_MODES:
        raise ValueError(f"unknown score mode {mode!r}, "
                         f"expected {' or '.join(map(repr, SCORE_MODES))}")
    if len(eps) != len(xs):
        raise ValueError(f"{len(eps)} error bounds for {len(xs)} rows")
    if len(alphas) != len(xs):
        raise ValueError(f"{len(alphas)} power splits for {len(xs)} rows")
    step = pso.kernel_rows(config)
    if len(xs) > step:  # no row depends on its batch, so each call is exact
        return [score for i in range(0, len(xs), step)
                for score in score_candidates(xs[i:i + step], alphas[i:i + step], scenario,
                                              config, eps[i:i + step], seed, mode)]
    xs, alphas = np.asarray(xs), np.asarray(alphas)
    if mode == "conservative":  # robust_gains refuses a bound outside kernels.ERROR_BOUNDS
        gains = kernels.row_gains([robust_gains(e, config.eta_i, config.eta_r)
                                   for e in eps], 1)
        _, gmin, _ = kernels.swarm_fitness(xs, alphas, scenario, config, gains=gains)
        return gmin.tolist()
    for e in eps:
        kernels.require_error_bound(e)
    h = kernels.effective_channels(xs, scenario, config)
    h_hat = apply_csi_error(h, eps, stream(seed, "csi_sample"))
    order = np.argsort(np.abs(h_hat), axis=0, kind="stable")
    gather = order * len(xs) + np.arange(len(xs))
    nominal = kernels.row_gains([kernels.NOMINAL], len(xs))[1:]
    return kernels.ordered_min_sinr(np.abs(h) ** 2, gather, alphas, nominal,
                                    config).tolist()


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
    (``RobustGains`` -> ``PsoResult``) at its ``_SEARCH_POINTS`` point."""
    if scheme in _SEARCH_POINTS:
        search = found[_SEARCH_POINTS[scheme](config)]
        return search.best_x, search.best_alpha
    if scheme == "Random":
        theta = pso.draw_theta(config, stream(seed, "random_scheme"))
        return pso.split_theta(theta, config.num_pas)
    if scheme == "Uniform":
        return uniform_layout(config), np.full(config.num_users, 1.0 / config.num_users)
    raise ValueError(f"unknown scheme {scheme!r}")


def _scores(scenario: Scenario, seed, found, configs, score_mode, schemes=SCHEMES):
    """The scores of each scheme of ``schemes`` under each config of
    ``configs``, config by config, on one realization in one
    ``score_candidates`` call; a PSO scheme's candidate is its result in
    ``found``.  The configs differ at most in the error bound."""
    cases = [(scheme, config) for config in configs for scheme in schemes]
    picks = [_candidate(scheme, found, config, seed) for scheme, config in cases]
    return score_candidates([x for x, _ in picks], [a for _, a in picks], scenario,
                            configs[0], [config.csi_eps for _, config in cases], seed,
                            score_mode)


def _records(sweep_var, seed, cases, gmins):
    """The records of each (scheme, sweep_value) case of ``cases`` on one
    realization and its score in ``gmins``.  The first case in order whose
    score cannot be reported is refused."""
    records = []
    for (scheme, value), gmin in zip(cases, gmins):
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
    points = [_SEARCH_POINTS[scheme](config)] if scheme in _SEARCH_POINTS else []
    [found] = pso.search([scenario], [seed], points, config, pso_params)
    gmins = _scores(scenario, seed, found, [config], score_mode, (scheme,))
    return _records(sweep_var, seed, [(scheme, sweep_value)], gmins)[0]


def _search_points(configs):
    return [point(config) for config in configs for point in _SEARCH_POINTS.values()]


def _chunks(configs, seeds, pso_params: PsoParams):
    """The (seeds, work) of each work unit of ``configs`` over ``seeds``:
    consecutive seeds, ``pso.realizations_per_call`` at the distinct search
    points, so that ``pso.search`` takes a unit's realizations in one
    lockstep call (or one realization in slices of its points), and their
    estimated kernel work."""
    config, points = configs[0], len(set(_search_points(configs)))
    step = pso.realizations_per_call(config, pso_params, points)
    work = points * config.num_users * config.num_pas * max(config.obstacle_count, 1)
    return [(seeds[j:j + step], len(seeds[j:j + step]) * work)
            for j in range(0, len(seeds), step)]


def _unit(per_realization, configs, seeds, pso_params: PsoParams, *args):
    """One work unit: ``per_realization(scenario, seed, found, configs, *args)``
    on each seed of ``seeds`` in order, ``found`` mapping ``RobustGains`` to
    ``PsoResult`` from one ``pso.search`` of ``configs``, which share each
    scenario and differ at most in the error bound."""
    scenarios = [generate_scenario(configs[0], seed) for seed in seeds]
    found = pso.search(scenarios, seeds, _search_points(configs), configs[0], pso_params)
    return [per_realization(*case, configs, *args) for case in zip(scenarios, seeds, found)]


@contextlib.contextmanager
def _study(groups, seeds, pso_params: PsoParams, workers, per_realization, *args):
    """An iterator over ``per_realization``'s result on each seed of
    ``seeds`` of each group of ``groups`` (configs that share a scenario), in
    (group, seed) order, from the ``_chunks`` units of ``_unit``.

    With more than one worker and unit, a pool of up to ``workers`` forked
    processes, and no more than the CPUs this process may run on (its
    affinity set, or ``os.cpu_count()`` where the platform reports none),
    runs the units, submitted in descending order of work.  Otherwise each
    unit runs here as the iterator reaches it.  The workers are forked, not
    spawned: a spawned one would import numpy and the package again (0.2 s),
    and the pool forks all of them before it starts its own thread.  Leaving
    the block cancels the units not yet started and waits for the running
    ones, so no worker outlives it.
    """
    units = [((per_realization, configs, chunk, pso_params, *args), work)
             for configs in groups for chunk, work in _chunks(configs, seeds, pso_params)]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)  # macOS and Windows have no affinity call
    workers = min(workers, len(units), cpus)
    if workers <= 1:
        yield itertools.chain.from_iterable(_unit(*unit) for unit, _ in units)
        return
    import multiprocessing  # imported here: they add 20-40 ms to the package's import
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = {}
        for i in sorted(range(len(units)), key=lambda i: -units[i][1]):
            futures[i] = pool.submit(_unit, *units[i][0])
        try:
            yield itertools.chain.from_iterable(futures[i].result()
                                                for i in range(len(units)))
        finally:
            pool.shutdown(cancel_futures=True)


def _sweep(config: SystemConfig, pso_params: PsoParams, settings: ExperimentSettings,
           grid_name, master_seed, progress, workers):
    """Records in (grid point, realization, scheme) order over the grid
    ``grid_name``, each point setting the field ``SWEEPS`` names.

    Grid points whose configs differ only in the error bound share each
    realization's scenario, so they form one group, whose PSO schemes run as
    one search step and whose records on a realization are scored together.
    ``workers`` is the most worker processes the units may use.
    """
    sweep_var, grid = SWEEPS[grid_name], getattr(settings, grid_name)
    kind = SystemConfig.__dataclass_fields__[sweep_var].type
    configs = [dataclasses.replace(config, **{sweep_var: kind(value)}) for value in grid]
    seeds = realization_seeds(master_seed, settings.realizations)
    groups = {}
    for i, point_config in enumerate(configs):
        groups.setdefault(dataclasses.replace(point_config, csi_eps=0.0), []).append(i)
    rows = {}
    with _study([[configs[i] for i in members] for members in groups.values()], seeds,
                pso_params, workers, _scores, settings.score_mode) as scores:
        for members in groups.values():
            cases = [(i, scheme) for i in members for scheme in SCHEMES]
            for j, seed in enumerate(seeds):
                records = _records(sweep_var, seed, [(scheme, grid[i]) for i, scheme in cases],
                                   next(scores))
                for (i, _), record in zip(cases, records):
                    rows.setdefault((i, j), []).append(record)
            if progress is not None:
                for i in members:
                    progress(f"{sweep_var}={grid[i]} done")
    return [record for i in range(len(grid)) for j in range(len(seeds))
            for record in rows[i, j]]


def sweep_epsilon(config: SystemConfig, pso_params: PsoParams,
                  settings: ExperimentSettings, master_seed, progress=None, workers=1):
    """All schemes across the estimate-error grid.

    The scenario draw does not depend on the error bound, so each
    realization index reuses the same geometry at every grid point (paired
    comparison).
    """
    return _sweep(config, pso_params, settings, "eps_grid", master_seed, progress, workers)


def sweep_users(config: SystemConfig, pso_params: PsoParams,
                settings: ExperimentSettings, master_seed, progress=None, workers=1):
    """All schemes across the user-count grid."""
    return _sweep(config, pso_params, settings, "k_grid", master_seed, progress, workers)


def _converge_traces(scenario: Scenario, seed, found, configs):
    """Each search scheme's (fitness trace, re-scored min-SINR trace) on one
    realization of ``convergence_trace``.  ``score_candidates`` re-scores
    only the rows where a global best moved; the others repeat."""
    config, points = configs[0], _search_points(configs)
    gbests = np.stack([found[point].gbest_thetas for point in points])
    moved = np.ones(gbests.shape[:2], dtype=bool)  # (scheme, iteration)
    moved[:, 1:] = np.any(gbests[:, 1:] != gbests[:, :-1], axis=-1)
    xs, alphas = pso.split_theta(gbests[moved], config.num_pas)
    scores = score_candidates(xs, alphas, scenario, config, [config.csi_eps] * len(xs), seed)
    # each row takes the score of the last row at or before it that moved
    rescored = np.array(scores)[np.cumsum(moved).reshape(moved.shape) - 1]
    return [(found[point].trace, trace) for point, trace in zip(points, rescored)]


def convergence_trace(config: SystemConfig, pso_params: PsoParams,
                      num_realizations, master_seed,
                      progress=None, workers=1) -> ConvergenceTraces:
    """Mean optimizer traces of each PSO scheme at its ``_SEARCH_POINTS`` point.

    Both the internal fitness trace and the worst-case re-scored min-SINR of
    the running global best are aggregated; the latter is what makes the two
    schemes comparable at the configured error bound.  That re-scoring is
    always conservative at ``csi_eps``, whatever ``experiments.score_mode``
    says.  ``workers`` is the most worker processes the units may use.
    """
    schemes = list(_SEARCH_POINTS)
    seeds = realization_seeds(master_seed, num_realizations)
    traces = {scheme: [] for scheme in schemes}
    rescored_traces = {scheme: [] for scheme in schemes}
    with _study([[config]], seeds, pso_params, workers, _converge_traces) as results:
        for r, found in enumerate(results):
            for scheme, (fitness, trace) in zip(schemes, found):
                # a degenerate config shows in the first realization: stop there
                _require_reportable_traces(
                    f"converge realization {r + 1}/{num_realizations} seed={seeds[r]} "
                    f"scheme={scheme}", "", fitness, trace, positive=False)
                traces[scheme].append(fitness)
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
