import contextlib
import dataclasses
import functools
import io
import json
import math
import multiprocessing
import os
import re
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pinchsim import ExperimentSettings, PsoParams, SystemConfig, experiments, pso
from pinchsim.cli import _build_parser, main
from pinchsim.config import ConfigError, apply_overrides, run_config_from_dict

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


@pytest.mark.parametrize("doc", [
    # the wide_converge benchmark shapes: a 240 x 8 x 16 x 8 kernel block
    {"num_users": 8, "num_pas": 16, "obstacle_count": 8,
     "pso": {"num_particles": 240, "max_iters": 50}},
    {"experiments": {"realizations": 2 ** 24}},  # the largest seed array
], ids=["wide_converge", "realizations=2**24"])
def test_validate_config_accepts_sizes_within_bound(tmp_path, capsys, doc):
    assert main(["validate-config", "--config", write_config(tmp_path, doc)]) == 0
    assert "config=ok" in capsys.readouterr().out


@pytest.mark.parametrize("text,reason", [
    (json.dumps({"num_users": 10 ** 30}),
     f"num_users must be in [1, 16777216], got {10 ** 30}"),
    ("[" * 100_000 + "]" * 100_000, "is nested too deeply to parse"),
    # beyond the interpreter's 4,300-digit limit on int parsing
    ('{"num_users": 1' + "0" * 5000 + "}", "malformed JSON in "),
    (json.dumps({"": 3}), 'unknown system config key(s): ""'),
    # a blank key shows quoted, not as blank space
    (json.dumps({" ": 3}), 'unknown system config key(s): " "\n'),
    (json.dumps({"\t": 3}), 'unknown system config key(s): "\\t"\n'),
    # beyond the float range, so the spacing rule could not compute with it
    ('{"num_pas": 1' + "0" * 400 + "}", "num_pas must be in [1, 16777216], got 1000"),
    ('{"num_pas": 1' + "0" * 400 + ', "min_spacing": 0}',
     "num_pas must be in [1, 16777216], got 1000"),
], ids=["num_users=10**30", "nested_100000", "num_users=10**5000", "empty_key",
        "space_key", "tab_key", "num_pas=10**400", "num_pas=10**400,min_spacing=0"])
def test_validate_config_refuses_unbuildable_file(tmp_path, capsys, text, reason):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["validate-config", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and reason in err


BIG = 10 ** 5000  # more digits than the interpreter's int-to-str limit of 4,300


@pytest.mark.parametrize("build,field", [
    (lambda: SystemConfig(num_users=-BIG), "num_users"),
    (lambda: run_config_from_dict({"num_users": BIG}), "num_users"),
    (lambda: SystemConfig(obstacle_radius_range=(BIG, 1)), "obstacle_radius_range"),
    (lambda: ExperimentSettings(k_grid=[0, BIG]), "k_grid"),
    (lambda: SystemConfig(tx_power=BIG), "tx_power"),
    (lambda: PsoParams(inertia=BIG), "inertia"),
], ids=["num_users=-big", "sizes_num_users=big", "radius_range", "k_grid", "tx_power",
        "inertia"])
def test_huge_integer_is_refused_by_name(build, field):
    # JSON input cannot carry such an integer; Python callers can
    with pytest.raises(ConfigError) as refused:
        build()
    assert str(refused.value).startswith(field)


@pytest.mark.parametrize("doc,overrides,reason", [
    ({"pso": BIG}, ["pso.x=1"], "'pso' config section must be a JSON object to take "
                                "'pso.x=1', got a 16610-bit integer"),
    ({"pso": {1, 2}}, ["pso.x=1"], "'pso' config section must be a JSON object to take "
                                   "'pso.x=1', got {1, 2}"),
    ([("num_users", 3)], ["num_users=4"], "config document must be a JSON object"),
], ids=["huge_section", "set_section", "list_document"])
def test_apply_overrides_refuses_with_config_error(doc, overrides, reason):
    with pytest.raises(ConfigError) as refused:
        apply_overrides(doc, overrides)
    assert str(refused.value) == reason


def test_apply_overrides_leaves_its_document_and_passes_on_non_json_values():
    doc = {"pso": {"max_iters": 3}, "experiments": {"eps_grid": {0.1}}}
    updated = apply_overrides(doc, ["pso.max_iters=4", "experiments.realizations=2"])
    assert doc == {"pso": {"max_iters": 3}, "experiments": {"eps_grid": {0.1}}}
    assert updated["pso"] == {"max_iters": 4}
    with pytest.raises(ConfigError, match=r"^eps_grid must be a non-empty list"):
        run_config_from_dict(updated)   # the set is refused where it is validated


def test_validate_config_infeasible_spacing(tmp_path, capsys):
    cfg = write_config(tmp_path, {"num_pas": 5, "waveguide_len": 1.0,
                                  "min_spacing": 0.5})
    assert main(["validate-config", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "min_spacing" in err and "waveguide_len" in err


def test_packed_guide_that_validates_also_sweeps(tmp_path, capsys):
    # 3 * 0.39 == 1.17 in floats, while 1.17 / 3 < 0.39: the config is
    # feasible, and its even layout keeps the spacing up to rounding
    cfg = write_config(tmp_path, dict(FAST_SECTIONS, num_pas=4, min_spacing=0.39,
                                      waveguide_len=1.17))
    assert main(["validate-config", "--config", cfg]) == 0
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep-eps", "--config", cfg, "--seed", "3", "--out", out]) == 0
    lines = open(out).read().strip().split("\n")
    assert len(lines) == 1 + 2 * 2 * 4  # header + |grid| * realizations * schemes


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


@pytest.mark.parametrize("flag", [["--realizations", "1"],
                                  ["--override", "experiments.realizations=1"]],
                         ids=["realizations", "override"])
def test_overrides_apply_to_a_file_that_validates_on_its_own(tmp_path, capsys, flag):
    # the file's own config is built before any override applies to it
    cfg = write_config(tmp_path, {"experiments": {"realizations": 0}})
    out = tmp_path / "out.csv"
    assert main(["sweep-eps", "--config", cfg, "--out", str(out), *flag]) == 2
    assert capsys.readouterr().err == ("config error: realizations must be in [1, 16777216], "
                                       "got 0\n")
    assert not out.exists()


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


# Five realizations, which 2 and 3 do not divide; with ``units`` below, each
# run takes several work units (3 to 9 per command).
SPLIT_SECTIONS = {
    "pso": {"num_particles": 8, "max_iters": 10},
    "experiments": {"realizations": 5, "eps_grid": [0.0, 0.1], "k_grid": [1, 2, 3]},
}


@pytest.fixture
def units(tmp_path, monkeypatch):
    """Small lockstep calls, so that a run takes several work units, a
    3-CPU affinity, so that up to 3 workers fork on any host, and a log of
    the pid each unit ran in; returns the log's reader, which clears it."""
    monkeypatch.setattr(pso, "LOCKSTEP_BUDGET", 2 ** 10)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    log = tmp_path / "unit_pids.txt"
    # wraps() keeps the unit's name, under which the pool pickles it
    @functools.wraps(experiments._unit)
    def logged(*args, unit=experiments._unit):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return unit(*args)
    monkeypatch.setattr(experiments, "_unit", logged)

    def pids():
        found = [int(pid) for pid in log.read_text().split()] if log.exists() else []
        log.unlink(missing_ok=True)
        return found
    return pids


def _run_in_own_dir(tmp_path, monkeypatch, capsys, argv, threads):
    """(exit code, stdout, stderr, {file name: bytes}) of a run that writes
    r.csv in its own directory, so that its messages name the same path."""
    run_dir = tmp_path / f"threads{threads}"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    code = main(argv + ["--seed", "5", "--out", "r.csv", "--threads", str(threads)])
    out, err = capsys.readouterr()
    return code, out, err, {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}


@pytest.mark.parametrize("argv", [
    ["sweep-eps"], ["sweep-users"],
    ["sweep-users", "--override", "experiments.score_mode=true_sampled"],
    ["converge"], ["optimize"]],
    ids=["sweep-eps", "sweep-users", "sweep-users-sampled", "converge", "optimize"])
def test_worker_processes_do_not_change_output(tmp_path, monkeypatch, capsys, units, argv):
    cfg = write_config(tmp_path, SPLIT_SECTIONS)
    runs = []
    for threads in (1, 2, 3):
        runs.append(_run_in_own_dir(tmp_path, monkeypatch, capsys,
                                    argv[:1] + ["--config", cfg] + argv[1:], threads))
        pids = units()
        assert len(pids) >= 3
        if threads == 1:
            assert set(pids) == {os.getpid()}
        else:
            assert os.getpid() not in pids and len(set(pids)) <= threads
        assert multiprocessing.active_children() == []
    assert runs[0][0] == 0 and sorted(runs[0][3]) == ["r.config.json", "r.csv"]
    assert runs[0] == runs[1] == runs[2]


def test_workers_are_capped_by_the_cpus(tmp_path, monkeypatch, capsys, units):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    cfg = write_config(tmp_path, SPLIT_SECTIONS)
    code, *_ = _run_in_own_dir(tmp_path, monkeypatch, capsys,
                               ["sweep-eps", "--config", cfg], 3)
    assert code == 0
    assert set(units()) == {os.getpid()}


def test_workers_are_capped_by_the_cpu_count_without_an_affinity_call(
        tmp_path, monkeypatch, capsys, units):
    # macOS and Windows have no os.sched_getaffinity
    cfg = write_config(tmp_path, SPLIT_SECTIONS)
    argv = ["sweep-eps", "--config", cfg]
    serial = _run_in_own_dir(tmp_path, monkeypatch, capsys, argv, 1)
    units()
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    parallel = _run_in_own_dir(tmp_path, monkeypatch, capsys, argv, 3)
    pids = units()
    assert os.getpid() not in pids and len(set(pids)) <= 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # the count is unknown
    alone = _run_in_own_dir(tmp_path, monkeypatch, capsys, argv, 2)
    assert set(units()) == {os.getpid()}
    assert serial[0] == 0 and serial == parallel == alone


def test_refusal_in_a_later_unit_does_not_depend_on_workers(tmp_path, monkeypatch, capsys,
                                                            units):
    # only the last group, K = 1, has no interference and overflows
    cfg = write_config(tmp_path, SPLIT_SECTIONS)
    argv = ["sweep-users", "--config", cfg, "--override", "tx_power=1e306",
            "--override", "experiments.k_grid=[2,3,1]"]
    runs = []
    for threads in (1, 2, 3):
        runs.append(_run_in_own_dir(tmp_path, monkeypatch, capsys, argv, threads))
        assert (os.getpid() in units()) == (threads == 1)
    code, out, err, files = runs[0]
    assert code == 2 and out == "" and files == {}
    progress, refusal = err.splitlines()[:2], err.splitlines()[2:]
    assert progress == ["num_users=2 done", "num_users=3 done"]
    assert len(refusal) == 1 and refusal[0].startswith("config error: num_users=1 ")
    assert "min_sinr_linear is inf" in refusal[0]
    assert runs[0] == runs[1] == runs[2]
    assert multiprocessing.active_children() == []


def test_write_error_leaves_no_worker(tmp_path, monkeypatch, capsys, units):
    def full_disk(path, text):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(experiments, "write_text_atomic", full_disk)
    cfg = write_config(tmp_path, SPLIT_SECTIONS)
    code, _, err, files = _run_in_own_dir(tmp_path, monkeypatch, capsys,
                                          ["converge", "--config", cfg], 2)
    assert code == 1 and files == {}
    assert err.splitlines()[-1] == "error: cannot write r.csv: No space left on device"
    assert os.getpid() not in units()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("threads", ["0", "-1", "65", str(10 ** 9)])
def test_threads_out_of_range_is_usage_error(capsys, threads):
    # the parser alone: an accepted value would start a run
    with pytest.raises(SystemExit) as exc:
        _build_parser().parse_args(["sweep-eps", "--config", "c.json", "--threads", threads])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"argument --threads: must be in [1, 64], got {int(threads)}" in err


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


@pytest.mark.parametrize("out", ["existing_dir", "missing_dir/", "sidecar_dir.csv"])
def test_out_naming_a_directory_is_usage_error_before_any_search(
        tmp_path, capsys, monkeypatch, out):
    cfg = write_config(tmp_path, dict(FAST_SECTIONS))
    (tmp_path / "existing_dir").mkdir()
    (tmp_path / "sidecar_dir.config.json").mkdir()
    before = sorted(tmp_path.iterdir())

    def no_search(*args, **kwargs):
        raise AssertionError("a search ran")

    monkeypatch.setattr(experiments, "sweep_epsilon", no_search)
    # not tmp_path / out: a Path drops the trailing separator
    assert main(["optimize", "--config", cfg, "--out", f"{tmp_path}/{out}"]) == 1
    err = capsys.readouterr().err
    assert "argument --out: must name a file, not a directory" in err
    assert "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before


def test_unwritable_out_is_one_error_line(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(FAST_SECTIONS))
    (tmp_path / "plain_file").write_text("")
    before = sorted(tmp_path.iterdir())
    out = tmp_path / "plain_file" / "sub" / "r.csv"  # its parent cannot be made
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith(f"error: cannot write {out}: ")
    assert not any(line.startswith(("Traceback", "wrote ")) for line in err)
    assert sorted(tmp_path.iterdir()) == before


def test_unwritable_sidecar_leaves_no_csv(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, dict(FAST_SECTIONS))
    write = experiments.write_text_atomic

    def full_disk_for_sidecars(path, text):
        if path.endswith(".config.json"):
            raise OSError(28, "No space left on device")
        write(path, text)

    monkeypatch.setattr(experiments, "write_text_atomic", full_disk_for_sidecars)
    out = tmp_path / "r.csv"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"error: cannot write {tmp_path / 'r.config.json'}: No space left on device"
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
    pytest.param("experiments.record_runtime=false",
                 "unknown experiments config key(s): record_runtime",
                 id="experiments.record_runtime=false"),
    # an empty key shows as "", not as nothing
    pytest.param("=3", 'unknown system config key(s): ""', id="empty_key=3"),
    pytest.param("pso.=3", 'unknown pso config key(s): ""', id="pso.empty_key=3"),
    # sizes beyond 2**24 elements, as a field (refused by its domain) or as an
    # array the run sizes from several fields
    pytest.param(f"num_users={10 ** 30}", f"num_users must be in [1, 16777216], got {10 ** 30}",
                 id="num_users=10**30"),
    pytest.param("pso.max_iters=16777217", "max_iters must be in [1, 16777216], got 16777217",
                 id="pso.max_iters=16777217"),
    pytest.param("experiments.realizations=16777217",
                 "realizations must be in [1, 16777216], got 16777217",
                 id="experiments.realizations=16777217"),
    pytest.param("experiments.k_grid=[2,16777217]",
                 "k_grid values must be in [1, 16777216], got (2, 16777217)",
                 id="experiments.k_grid=[2,16777217]"),
    ("num_users=1000000", "num_particles * max(num_users, k_grid) * num_pas * "
                          "max(obstacle_count, 1) = 120000000 exceeds"),
    ("experiments.k_grid=[2,1000000]", "num_particles * max(num_users, k_grid)"),
    ("pso.max_iters=2000000", "num_particles * max_iters * 2 = 32000000 exceeds"),
    ("pso.max_iters=1000000", "(len(eps_grid) + 1) * (max_iters + 1) * "
                              "(num_pas + max(num_users, k_grid)) = 24000024 exceeds"),
    pytest.param("pso=" + "[" * 3000 + "]" * 3000,
                 "pso override is nested too deeply to parse", id="pso=[*3000"),
    pytest.param("num_users=1" + "0" * 5000, "num_users must be an integer, got '1000",
                 id="num_users=10**5000"),
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


# Whole config files: real, unknown and nested keys holding any JSON value,
# huge integers, NaN and infinities included.  validate-config allocates nothing
# that the size fields scale, so no value is capped.  Real keys and plausible
# values are the likelier draws, so that many documents get past the first check:
# a field with a domain also draws its bounds and their neighbours on both sides.
JSON_LEAVES = (st.integers(1, 8) | st.floats(0.05, 0.9) | st.integers() | st.floats()
               | st.sampled_from([None, True, 0, -1, "", "conservative", "true_sampled",
                                  2 ** 24, 2 ** 24 + 1, 10 ** 30, -10 ** 400]))
JSON_VALUES = st.recursive(
    JSON_LEAVES, lambda inner: (st.lists(inner, max_size=4)
                                | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=12)


def _near_bounds(field):
    """The finite ends of a field's domain, each with its nearest values."""
    domain = field.metadata["domain"]
    ends = [end for end in (domain.lo, domain.hi) if math.isfinite(end)]
    if field.type is int:
        return [end + step for end in ends for step in (-1, 0, 1)]
    return [math.nextafter(end, to) for end in ends for to in (-math.inf, end, math.inf)]


def _section(cls):
    fields = dataclasses.fields(cls)
    keys = [f.name for f in fields] * 4 + ["bogus", "record_runtime", ""]
    near = {f.name: st.sampled_from(_near_bounds(f)) | JSON_VALUES
            for f in fields if "domain" in f.metadata}
    entry = st.sampled_from(keys).flatmap(
        lambda key: st.tuples(st.just(key), near.get(key, JSON_VALUES)))
    return st.lists(entry, max_size=3, unique_by=lambda kv: kv[0]).map(dict)


CONFIG_DOCS = st.builds(
    lambda system, sections: {**system, **sections}, _section(SystemConfig),
    st.fixed_dictionaries({}, optional={"pso": _section(PsoParams) | JSON_VALUES,
                                        "experiments": _section(ExperimentSettings)
                                        | JSON_VALUES})) | JSON_VALUES


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(CONFIG_DOCS)
def test_config_file_fuzz_exits_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = f"{tmp}/config.json"
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["validate-config", "--config", cfg])
    assert code in (0, 2), (doc, err.getvalue())
    assert "Traceback" not in err.getvalue()


# Integers of 20 to 4,000 digits, either sign, in every int field of the three
# sections and in a k_grid entry: each is refused by its field's domain, by
# config file and by override alike, before any rule computes with it.
INT_KEYS = ([(f"{prefix}{f.name}", f.name)
             for cls, prefix in ((SystemConfig, ""), (PsoParams, "pso."),
                                 (ExperimentSettings, "experiments."))
             for f in dataclasses.fields(cls) if f.type is int]
            + [("experiments.k_grid", "k_grid")])
HUGE_INTEGERS = st.builds(lambda digits, lead, low, sign: sign * (lead * 10 ** (digits - 1) + low),
                          st.integers(20, 4000), st.integers(1, 9), st.integers(0, 10 ** 6),
                          st.sampled_from([1, -1]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(INT_KEYS), HUGE_INTEGERS, st.booleans())
def test_huge_integer_in_any_int_field_exits_cleanly(key, value, by_override):
    path, name = key
    value = [2, value] if name == "k_grid" else value
    section, _, field = path.rpartition(".")
    doc = {"pso": {"num_particles": 4, "max_iters": 2}, "experiments": {"realizations": 1}}
    argv = ["validate-config"]
    if by_override:
        argv = ["optimize", "--override", f"{path}={json.dumps(value)}"]
    else:
        (doc[section] if section else doc)[field] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with open(f"{tmp}/config.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        if by_override:
            argv += ["--out", f"{tmp}/out.csv"]
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--config", f"{tmp}/config.json"])
    assert code == 2, (path, err.getvalue()[:200])
    assert err.getvalue().startswith(f"config error: {name} "), err.getvalue()[:200]
    assert "Traceback" not in err.getvalue()
