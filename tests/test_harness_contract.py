"""The package names and outputs the sweep benchmark in ``perfbench/`` relies on.

The benchmark wraps pinchsim functions by module attribute, re-scores
Uniform rows with the scalar channel/NOMA path and reports the backend.  A
rename in the package would break it only when the benchmark runs; this
test runs its tracer and checks on one tiny sweep instead.
"""

import json
import pathlib
import sys

import pytest

import pinchsim
from pinchsim import cli, config

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import run
    import tracer
    return checks, run, tracer


def test_traced_sweep_keeps_the_harness_contract(perfbench, tmp_path):
    checks, run, tracer = perfbench
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "pso": {"num_particles": 6, "max_iters": 4},
        "experiments": {"realizations": 2, "eps_grid": [0.0, 0.1]}}))
    out = tmp_path / "sweep.csv"
    # patch_attr fails on entry if any name the tracer wraps is gone
    with tracer.traced_package(tracer.Tracer()) as traced:
        assert cli.main(["sweep-eps", "--config", str(path), "--seed", "7",
                         "--out", str(out)]) == 0
    metrics = tracer.layer_metrics(traced)
    assert metrics["kernels.calls"][0] > 0
    assert metrics["pso.projection_calls"][0] > 0

    found = checks.Checks()
    rows = checks.parse_csv(out.read_text(encoding="utf-8"))
    checks.check_uniform_oracle(found, rows, config.load_run_config(str(path)), "csi_eps",
                                "sweep-eps")
    assert found.attempted == 2 * 2 and found.failures == []
    assert run.environment(pinchsim)["backend"] == "numpy"
