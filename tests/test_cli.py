import json

import pytest

from pinchsim import SystemConfig
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


def test_missing_config_file(tmp_path):
    assert main(["validate-config", "--config", str(tmp_path / "nope.json")]) == 2


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["validate-config", "--config", str(path)]) == 2


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
