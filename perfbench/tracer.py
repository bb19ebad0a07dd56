"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public pinchsim functions at the module attributes through
which the package itself calls them (``kernels.swarm_fitness`` is looked up
on the ``kernels`` module by ``pso`` and ``experiments``, and so on), records
one span per call and restores the originals on exit.  Nothing inside the
package changes.

Span stacks are thread-local.  A span opened on a thread whose stack is
empty (a ``map_realizations`` pool thread) becomes a child of the open sweep
span.  A span's self time is its duration minus the *covered* part of its
interval, the union of its children's intervals, so children that overlap
on two pool threads are not subtracted twice.
"""

import collections
import contextlib
import functools
import itertools
import json
import threading
import time

import numpy as np


@contextlib.contextmanager
def patch_attr(module, attr, make_wrapper):
    """Replace ``module.attr`` by ``make_wrapper(original)`` for the block."""
    original = getattr(module, attr)
    setattr(module, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


class Tracer:
    def __init__(self):
        self.spans = []    # (id, parent id, layer, function, t0, t1, thread)
        self.counts = collections.Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._sweep = None

    def add(self, **counts):
        with self._lock:
            self.counts.update(counts)

    def wrap(self, fn, layer, after=None, sweep=False):
        """Record a span per call of ``fn``; ``after`` adds counters from the call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else tracer._sweep
            sid = next(tracer._ids)
            stack.append(sid)
            if sweep:
                tracer._sweep = sid
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if sweep:
                    tracer._sweep = None
                tracer.spans.append((sid, parent, layer, fn.__name__, t0, t1,
                                     threading.get_ident()))
            if after is not None:
                after(tracer, args, result)
            return result
        return traced

    def write(self, path):
        """Write the spans, one JSON object per line, relative to the first start."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, layer, name, t0, t1, thread in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "layer": layer,
                                     "fn": name, "start_s": t0 - origin,
                                     "end_s": t1 - origin, "thread": thread}) + "\n")


def _after_kernel(tracer, args, result):
    xs, scenario = args[0], args[2]
    p, n = np.shape(xs)
    k = scenario.users.shape[0]
    o = scenario.obstacle_centers.shape[0]
    tracer.add(kernel_candidates=p, link_evals=p * k * n, pair_tests=p * k * n * o)


def _after_projection(tracer, args, result):
    changed = np.any(result != np.asarray(args[0], dtype=float), axis=1)
    tracer.add(projection_rows=result.shape[0],
               projection_active=int(changed.sum()))


def _after_optimize(tracer, args, result):
    trace = result.trace
    tracer.add(iterations=len(trace) - 1,
               gbest_improvements=int(np.count_nonzero(np.diff(trace) > 0)))


def _after_write(tracer, args, result):
    tracer.add(csv_bytes=len(args[1].encode("utf-8")))


@contextlib.contextmanager
def traced_package(tracer):
    """Install the tracer's wrappers on the pinchsim package for the block."""
    from pinchsim import channel, cli, experiments, kernels, noma, pso

    targets = [
        (kernels, "swarm_fitness", "kernels", _after_kernel, False),
        (pso, "optimize", "pso", _after_optimize, False),
        (pso, "project_theta_batch", "pso.projection", _after_projection, False),
        (experiments, "sweep_epsilon", "experiments", None, True),
        (experiments, "sweep_users", "experiments", None, True),
        (experiments, "convergence_trace", "experiments", None, True),
        (experiments, "run_scheme", "experiments", None, False),
        (experiments, "score_candidate", "experiments.score", None, False),
        (experiments, "generate_scenario", "scenario", None, False),
        (experiments, "records_to_csv_text", "experiments.csv", None, False),
        (experiments, "convergence_to_csv_text", "experiments.csv", None, False),
        (experiments, "write_text_atomic", "experiments.csv", _after_write, False),
        (channel, "compute_channels", "channel", None, False),
        (cli, "load_run_config", "config", None, False),
        (cli, "apply_overrides", "config", None, False),
        (cli, "run_config_from_dict", "config", None, False),
    ]
    targets += [(noma, name, "noma", None, False)
                for name in ("robust_gains", "order_violations", "conservative_order",
                             "conservative_sinr", "true_sinr", "sic_decode_sinr",
                             "min_sinr")]
    with contextlib.ExitStack() as stack:
        for module, attr, layer, after, sweep in targets:
            stack.enter_context(patch_attr(
                module, attr,
                lambda fn, layer=layer, after=after, sweep=sweep:
                    tracer.wrap(fn, layer, after, sweep)))
        yield tracer


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(tracer):
    """Per-layer (value, unit) pairs of one traced repetition."""
    spans = tracer.spans
    layer_of = {s[0]: s[2] for s in spans}
    children = collections.defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append((s[4], s[5]))
    self_s = collections.Counter()
    calls = collections.Counter()
    entries = collections.Counter()   # calls made from another layer
    score_s = 0.0
    for sid, parent, layer, _, t0, t1, _ in spans:
        self_s[layer] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
        calls[layer] += 1
        parent_layer = layer_of.get(parent)
        if parent_layer != layer:
            entries[layer] += 1
        if layer == "experiments.score" or (layer == "kernels"
                                            and parent_layer == "experiments"):
            score_s += t1 - t0
    c = tracer.counts
    candidates = c["kernel_candidates"]
    kernel_calls = calls["kernels"]
    return {
        "kernels.calls": (kernel_calls, "count"),
        "kernels.candidates": (candidates, "count"),
        "kernels.batch_mean": (candidates / max(kernel_calls, 1), "ratio"),
        "kernels.s": (self_s["kernels"], "s"),
        "kernels.us_per_candidate": (1e6 * self_s["kernels"] / max(candidates, 1), "us"),
        "kernels.link_evals": (c["link_evals"], "count"),
        "kernels.pair_tests": (c["pair_tests"], "count"),
        "pso.s": (self_s["pso"], "s"),
        "pso.projection_s": (self_s["pso.projection"], "s"),
        "pso.projection_calls": (calls["pso.projection"], "count"),
        "pso.projection_rows": (c["projection_rows"], "count"),
        "pso.projection_active_frac": (
            c["projection_active"] / max(c["projection_rows"], 1), "ratio"),
        "pso.gbest_improve_frac": (
            c["gbest_improvements"] / max(c["iterations"], 1), "ratio"),
        "channel.calls": (entries["channel"], "count"),
        "channel.s": (self_s["channel"], "s"),
        "noma.calls": (entries["noma"], "count"),
        "noma.s": (self_s["noma"], "s"),
        "experiments.s": (self_s["experiments"], "s"),
        "experiments.score_s": (score_s, "s"),
        "experiments.csv_s": (self_s["experiments.csv"], "s"),
        "experiments.csv_bytes": (c["csv_bytes"], "bytes"),
        "scenario.calls": (calls["scenario"], "count"),
        "scenario.s": (self_s["scenario"], "s"),
        "config.load_s": (self_s["config"], "s"),
    }
