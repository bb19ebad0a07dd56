"""Correctness checks on the outputs of one benchmark run.

Every check adds one to ``attempted`` and, if it fails, one to ``failed``
with a message.  The checks are:

* the CSV has the expected number of rows and every numeric field is finite;
* a repetition with an earlier repetition's seed reproduces its CSV bytes;
* on conservative-scored sweeps every ``Uniform`` row agrees, at rtol 1e-8
  (the CSV keeps 9 significant digits), with the scalar per-link oracle
  ``channel.compute_channels`` -> ``noma.conservative_order`` ->
  ``noma.conservative_sinr``, which shares no code with the batched kernel;
* every per-realization ``converge`` fitness trace is nondecreasing.
"""

import csv
import dataclasses
import io
import math

import numpy as np

ORACLE_RTOL = 1e-8


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def check_rows(checks, rows, expected, label):
    checks.check(len(rows) == expected,
                 f"{label}: {len(rows)} CSV rows, expected {expected}")
    bad = [r for r in rows for key, value in r.items()
           if key not in ("sweep_var", "scheme") and not math.isfinite(float(value))]
    checks.check(not bad, f"{label}: {len(bad)} non-finite CSV fields")


def check_uniform_oracle(checks, rows, run, sweep_var, label):
    """Re-score every Uniform row of a conservative sweep with the scalar path."""
    from pinchsim import channel, noma
    from pinchsim.scenario import generate_scenario, uniform_layout

    for row in rows:
        if row["scheme"] != "Uniform":
            continue
        value = float(row["sweep_value"])
        if sweep_var == "csi_eps":
            cfg = dataclasses.replace(run.system, csi_eps=value)
        else:
            cfg = dataclasses.replace(run.system, num_users=int(value))
        scenario = generate_scenario(cfg, int(row["seed"]))
        alpha = np.full(cfg.num_users, 1.0 / cfg.num_users)
        chans = channel.compute_channels(uniform_layout(cfg), scenario, cfg)
        order = noma.conservative_order(chans.h_hat, cfg.csi_eps).order
        gains = noma.robust_gains(cfg.csi_eps, cfg.eta_i, cfg.eta_r)
        sinrs = noma.conservative_sinr(np.abs(chans.h[order]) ** 2, alpha[order],
                                       gains, cfg.tx_power, cfg.noise_power)
        expected = noma.min_sinr(sinrs)
        got = float(row["min_sinr_linear"])
        checks.check(math.isclose(got, expected, rel_tol=ORACLE_RTOL),
                     f"{label}: Uniform row {sweep_var}={value} seed={row['seed']} "
                     f"min_sinr_linear={got!r}, oracle {expected!r}")


def check_traces_monotone(checks, traces, label):
    for scheme, stack in traces.per_realization_fitness.items():
        for r, trace in enumerate(stack):
            checks.check(bool(np.all(np.diff(trace) >= 0.0)),
                         f"{label}: {scheme} realization {r} trace decreases")
