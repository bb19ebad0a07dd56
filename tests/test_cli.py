import contextlib
import dataclasses
import io
import json
import re
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pinchsim import ExperimentSettings, PsoParams, SystemConfig
from pinchsim.cli import main

FAST_SECTIONS = {
    "pso": {"num_particles": 8, "max_iters": 10},
    "experiments": {"realizations": 2, "eps_grid": [0.0, 0.1], "k_grid": [2, 3]},
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_config_ok(tmp_path, capsys):
    cfg = write_config(tmp_path, {"num_users": 3})
    assert main(["validate-config", "--config", cfg]) == 0
    assert "config=ok" in capsys.readouterr().out


def test_validate_config_infeasible_spacing(tmp_path, capsys):
    cfg = write_config(tmp_path, {"num_pas": 5, "waveguide_len": 1.0,
                                  "min_spacing": 0.5})
    assert main(["validate-config", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "min_spacing" in err and "waveguide_len" in err


def test_validate_config_refuses_infinite_wavelength(tmp_path, capsys):
    cfg = write_config(tmp_path, {"carrier_freq": 1e-300})
    assert main(["validate-config", "--config", cfg]) == 2
    assert "config error: carrier_freq" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert main(["validate-config", "--config", str(tmp_path / "nope.json")]) == 2


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["validate-config", "--config", str(path)]) == 2


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_unreadable_config_is_config_error(tmp_path, capsys, kind):
    path = tmp_path / "config.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe{}")  # a UTF-16 byte-order mark
    assert main(["validate-config", "--config", str(path)]) == 2
    assert f"config error: cannot read config file {path}" in capsys.readouterr().err


def test_unknown_config_key_is_hard_error(tmp_path):
    cfg = write_config(tmp_path, {"num_userz": 3})
    assert main(["validate-config", "--config", cfg]) == 2


def test_unknown_subcommand_usage_error(tmp_path):
    assert main(["optimise", "--config", "x.json"]) == 1


def test_missing_required_flag_usage_error():
    assert main(["optimize"]) == 1


def test_optimize_deterministic_bytes(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(FAST_SECTIONS))
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["optimize", "--config", cfg, "--seed", "7", "--out", out1]) == 0
    assert main(["optimize", "--config", cfg, "--seed", "7", "--out", out2]) == 0
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()
    assert "scheme=RobustPSO" in capsys.readouterr().out


def test_sweep_eps_row_count(tmp_path):
    cfg = write_config(tmp_path, dict(FAST_SECTIONS))
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep-eps", "--config", cfg, "--seed", "3", "--out", out]) == 0
    lines = open(out).read().strip().split("\n")
    assert len(lines) == 1 + 2 * 2 * 4  # header + |grid| * realizations * schemes


def test_realizations_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, dict(FAST_SECTIONS))
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep-eps", "--config", cfg, "--seed", "3", "--out", out,
                 "--realizations", "1"]) == 0
    lines = open(out).read().strip().split("\n")
    assert len(lines) == 1 + 2 * 1 * 4


def test_override_round_trips_into_sidecar(tmp_path):
    cfg = write_config(tmp_path, dict(FAST_SECTIONS))
    out = str(tmp_path / "r.csv")
    assert main(["optimize", "--config", cfg, "--seed", "1", "--out", out,
                 "--override", "csi_eps=0.2",
                 "--override", "pso.max_iters=5"]) == 0
    sidecar = json.loads(open(str(tmp_path / "r.config.json")).read())
    assert sidecar["csi_eps"] == 0.2
    assert sidecar["pso"]["max_iters"] == 5
    # effective config echoes every field, not only the overridden ones
    assert sidecar["num_users"] == 3


def test_override_unknown_key_rejected(tmp_path):
    cfg = write_config(tmp_path, dict(FAST_SECTIONS))
    assert main(["optimize", "--config", cfg, "--seed", "1",
                 "--out", str(tmp_path / "x.csv"),
                 "--override", "csi_epz=0.2"]) == 2


def test_converge_writes_trace_csv(tmp_path):
    cfg = write_config(tmp_path, dict(FAST_SECTIONS))
    out = str(tmp_path / "conv.csv")
    assert main(["converge", "--config", cfg, "--seed", "2", "--out", out,
                 "--realizations", "2"]) == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0] == "scheme,iteration,mean_gbest_fitness,mean_min_sinr_linear,mean_min_sinr_db"
    assert len(lines) == 1 + 2 * (FAST_SECTIONS["pso"]["max_iters"] + 1)


def test_threads_do_not_change_output(tmp_path):
    cfg = write_config(tmp_path, dict(FAST_SECTIONS))
    out1, out8 = str(tmp_path / "t1.csv"), str(tmp_path / "t8.csv")
    assert main(["sweep-eps", "--config", cfg, "--seed", "5", "--out", out1,
                 "--threads", "1"]) == 0
    assert main(["sweep-eps", "--config", cfg, "--seed", "5", "--out", out8,
                 "--threads", "8"]) == 0
    with open(out1, "rb") as f1, open(out8, "rb") as f2:
        assert f1.read() == f2.read()


def test_optimize_is_one_point_eps_sweep(tmp_path):
    cfg = write_config(tmp_path, dict(FAST_SECTIONS))
    opt, eps = str(tmp_path / "opt.csv"), str(tmp_path / "eps.csv")
    csi_eps = SystemConfig().csi_eps
    assert main(["optimize", "--config", cfg, "--seed", "7", "--out", opt]) == 0
    assert main(["sweep-eps", "--config", cfg, "--seed", "7", "--out", eps,
                 "--override", f"experiments.eps_grid=[{csi_eps!r}]"]) == 0
    with open(opt, "rb") as f1, open(eps, "rb") as f2:
        assert f1.read() == f2.read()


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64), "seven"])
def test_bad_seed_is_usage_error(tmp_path, capsys, seed):
    cfg = write_config(tmp_path, dict(FAST_SECTIONS))
    out = tmp_path / "bad.csv"
    assert main(["optimize", "--config", cfg, "--seed", seed, "--out", str(out)]) == 1
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_largest_seed_accepted(tmp_path):
    cfg = write_config(tmp_path, dict(FAST_SECTIONS))
    out = tmp_path / "top.csv"
    assert main(["optimize", "--config", cfg, "--seed", str(2 ** 64 - 1),
                 "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("override,field", [
    ("num_users=3.0", "num_users"),
    ("num_users=true", "num_users"),
    ("obstacle_radius_range=[0.3]", "obstacle_radius_range"),
    ("waveguide_len=NaN", "waveguide_len"),
    ("pa_height=Infinity", "pa_height"),
    ("carrier_freq=1e-300", "carrier_freq"),  # infinite wavelength
    ("eta_i=1e308", "eta_i"),
    pytest.param("waveguide_len=1" + "0" * 400, "waveguide_len", id="waveguide_len=10**400"),
    ("experiments.eps_grid=0.1", "eps_grid"),
    ('experiments.eps_grid=["x"]', "eps_grid"),
    ("experiments.eps_grid=[]", "eps_grid"),
    ('experiments.k_grid=["a"]', "k_grid"),
    ("experiments.k_grid=[true]", "k_grid"),
    ("experiments.k_grid=[2.5]", "k_grid"),
    ('experiments.record_runtime="no"', "record_runtime"),
])
def test_bad_override_is_config_error(tmp_path, capsys, override, field):
    cfg = write_config(tmp_path, dict(FAST_SECTIONS))
    out = tmp_path / "bad.csv"
    assert main(["optimize", "--config", cfg, "--seed", "1", "--out", str(out),
                 "--override", override]) == 2
    assert f"config error: {field}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,where", [("optimize", "scheme=RobustPSO seed="),
                                           ("converge", "scheme=RobustPSO iteration=0")])
@pytest.mark.parametrize("override,reason", [
    ("waveguide_len=1e308", "is nan"),        # guide phases overflow: nan channels
    ("tx_power=1e-320", "min_sinr_linear is 0.0"),  # every SINR underflows to 0
])
def test_nonfinite_result_is_config_error(tmp_path, capsys, command, where,
                                          override, reason):
    cfg = write_config(tmp_path, dict(FAST_SECTIONS))
    out = tmp_path / "bad.csv"
    assert main([command, "--config", cfg, "--seed", "3", "--out", str(out),
                 "--override", override]) == 2
    *progress, err = capsys.readouterr().err.splitlines()
    # no numpy warning reaches stderr: only converge's progress lines come first
    assert all(re.fullmatch(r"realization \d+/\d+ done", line) for line in progress)
    assert err.startswith("config error: ") and where in err and reason in err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


def test_degenerate_converge_stops_after_first_realization(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(FAST_SECTIONS))
    assert main(["converge", "--config", cfg, "--seed", "3", "--realizations", "3",
                 "--out", str(tmp_path / "conv.csv"),
                 "--override", "waveguide_len=1e308"]) == 2
    err = capsys.readouterr().err
    assert "realization 2/" not in err
    assert err.startswith("config error: converge realization 1/3 ")
    assert "scheme=RobustPSO iteration=0: gbest_fitness is nan" in err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


# Override keys: every real field, unknown and dotted ones, and the bare
# section names.  Size fields are capped so that no example allocates much.
FIELD_KEYS = ([f.name for f in dataclasses.fields(SystemConfig)]
              + [f"pso.{f.name}" for f in dataclasses.fields(PsoParams)]
              + [f"experiments.{f.name}" for f in dataclasses.fields(ExperimentSettings)])
ODD_KEYS = ["num_userz", "pso", "experiments", "pso.bogus", "experiments.", "foo.bar",
            "system.num_users", "a.b.c", "", " num_users "]
CAPS = {"num_users": 8, "num_pas": 8, "obstacle_count": 8, "experiments.k_grid": 8,
        "pso.num_particles": 4, "pso.max_iters": 2}
RAW_VALUES = ["1e308", "-1e308", "1e-320", "-0.0", "0.5", "0.95", "NaN", "Infinity",
              "-Infinity", "1" + "0" * 400, "true", "false", "null", '"x"', '""',
              '"true_sampled"', "[]", "[0.3]", "[0.3, 0.8]", "[2, 3]", '["a"]', "[true]",
              "[1e308, 1e308]", "{}", '{"a": 1}', "{not json", "=", "3=4"]


def _capped(key, raw):
    """raw with every integer above the key's cap lowered to the cap, and a
    whole pso section kept to the small swarm."""
    cap = CAPS.get(key.strip())
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        return raw
    if key.strip() == "pso" and isinstance(value, dict):
        return json.dumps({**value, "num_particles": 4, "max_iters": 2})
    if cap is None:
        return raw
    if isinstance(value, int) and not isinstance(value, bool):
        return json.dumps(min(value, cap))
    if isinstance(value, list):
        return json.dumps([min(v, cap) if type(v) is int else v for v in value])
    return raw


OVERRIDES = st.lists(
    st.builds(lambda key, raw: f"{key}={_capped(key, raw)}",
              st.sampled_from(FIELD_KEYS + ODD_KEYS),
              st.integers(-3, 12).map(str) | st.sampled_from(RAW_VALUES)
              | st.floats(allow_nan=False).map(json.dumps)),
    min_size=1, max_size=4)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(OVERRIDES)
def test_override_fuzz_exits_cleanly(overrides):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = f"{tmp}/config.json"
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump({"pso": {"num_particles": 4, "max_iters": 2},
                       "experiments": {"realizations": 1}}, fh)
        argv = ["optimize", "--config", cfg, "--seed", "1", "--out", f"{tmp}/out.csv",
                "--realizations", "1"]
        for item in overrides:
            argv += ["--override", item]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    assert code in (0, 2), (overrides, err.getvalue())
    assert "Traceback" not in err.getvalue()
