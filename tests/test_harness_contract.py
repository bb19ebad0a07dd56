"""The package names and outputs the sweep benchmark in ``perfbench/`` relies on.

The benchmark wraps pinchsim functions by module attribute, re-scores
Uniform rows with the scalar channel/NOMA path and reports the backend.  A
rename in the package, or a caller that reaches a wrapped name other than
through its module attribute, would break it only when the benchmark runs;
this test runs its tracer and checks on one tiny run of each searching
subcommand instead.
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


@pytest.mark.parametrize("command,sweep,sweep_var,uniform_rows", [
    ("optimize", "sweep_epsilon", "csi_eps", 2),  # the configured bound alone
    ("sweep-eps", "sweep_epsilon", "csi_eps", 2 * 2),
    ("sweep-users", "sweep_users", "num_users", 2 * 2),
    ("converge", "convergence_trace", None, 0),
], ids=["optimize", "sweep-eps", "sweep-users", "converge"])
def test_traced_sweep_keeps_the_harness_contract(perfbench, tmp_path, command, sweep,
                                                 sweep_var, uniform_rows):
    checks, run, tracer = perfbench
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "pso": {"num_particles": 6, "max_iters": 4},
        "experiments": {"realizations": 2, "eps_grid": [0.0, 0.1], "k_grid": [2, 3]}}))
    out = tmp_path / "sweep.csv"
    # patch_attr fails on entry if any name the tracer wraps is gone
    with tracer.traced_package(tracer.Tracer()) as traced:
        assert cli.main([command, "--config", str(path), "--seed", "7",
                         "--out", str(out)]) == 0
    metrics = tracer.layer_metrics(traced)
    assert metrics["kernels.calls"][0] > 0
    assert metrics["pso.projection_calls"][0] > 0
    # the CLI reaches the wrapped study entry and the wrapped scenario draw
    assert [span[3] for span in traced.spans if span[2] == "experiments"] == [sweep]
    assert any(span[2] == "scenario" for span in traced.spans)

    found = checks.Checks()
    if sweep_var is not None:
        rows = checks.parse_csv(out.read_text(encoding="utf-8"))
        checks.check_uniform_oracle(found, rows, config.load_run_config(str(path)),
                                    sweep_var, command)
    assert found.attempted == uniform_rows and found.failures == []
    assert run.environment(pinchsim)["backend"] == "numpy"
