"""End-to-end checks for the command line front end.

Every test drives ``splitstep.cli.main`` in process and asserts on the
exit-code contract (0 ok, 2 bad input, 3 numerical failure), the files
written, and determinism of reruns.
"""

import ctypes
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from splitstep import cli
from splitstep.cli import main
from splitstep.spectral import read_field


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def gs_config(**run_overrides):
    cfg = {
        "problem": {"name": "gray_scott", "dim": 1, "a": math.pi, "n": 32},
        "run": {
            "t_end": 0.3,
            "mode": "adaptive",
            "pair": "lie-avg",
            "control": {"tol": 1e-4},
        },
    }
    if run_overrides.get("mode") == "fixed":
        # a fixed run refuses the adaptive keys
        del cfg["run"]["pair"], cfg["run"]["control"]
    cfg["run"].update(run_overrides)
    return cfg


# ---------------------------------------------------------------- run


def test_run_writes_trajectory_and_final_state(tmp_path, capsys):
    cfg = write_cfg(tmp_path, gs_config())
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0

    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "t,h,est,accepted,flow_evals"
    assert len(traj) > 2
    final = read_field(out / "final.field")
    assert final.m == 2
    assert final.grid.n == 32
    assert np.all(np.isfinite(final.data))

    report = capsys.readouterr().out
    assert re.search(r"run: \d+ accepted, \d+ rejected, \d+ flow evals", report)


def test_run_rerun_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, gs_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("trajectory.csv", "final.field"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_fixed_mode(tmp_path):
    cfg = write_cfg(
        tmp_path, gs_config(mode="fixed", scheme="strang", h=0.05)
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    # 0.3 / 0.05 = 6 equal steps, no estimates in fixed mode
    assert len(rows) == 6
    assert all(row.split(",")[2] == "" for row in rows)


def test_run_snapshot_every(tmp_path):
    cfg = write_cfg(tmp_path, gs_config(snapshot_every=2))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    index = (out / "snapshots.csv").read_text().splitlines()
    assert index[0] == "index,t,file"
    assert len(index) >= 2
    for row in index[1:]:
        i, t, fname = row.split(",")
        snap = read_field(out / fname)
        assert snap.m == 2
        assert float(t) > 0.0


def test_run_snapshot_times(tmp_path):
    cfg = write_cfg(tmp_path, gs_config(snapshot_times=[0.15]))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    index = (out / "snapshots.csv").read_text().splitlines()[1:]
    assert len(index) == 1
    assert float(index[0].split(",")[1]) >= 0.15


def test_run_seed_controls_random_initial_data(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {
            "problem": {
                "name": "linear",
                "dim": 1,
                "a": math.pi,
                "n": 32,
                "initial": "random_smooth",
                "initial_args": {"m": 1},
            },
            "run": {"t_end": 0.2, "mode": "fixed", "scheme": "strang", "h": 0.05},
        },
    )
    outs = [tmp_path / d for d in ("s1", "s1b", "s2")]
    for out, seed in zip(outs, ("1", "1", "2")):
        assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", seed]) == 0
    final = [(o / "final.field").read_bytes() for o in outs]
    assert final[0] == final[1]
    assert final[0] != final[2]


def test_run_output_dir_from_environment(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, gs_config())
    env_dir = tmp_path / "env" / "nested"
    monkeypatch.setenv("SPLITSTEP_OUT", str(env_dir))
    assert main(["run", "--config", str(cfg)]) == 0
    assert (env_dir / "trajectory.csv").exists()

    # an explicit --out wins over the environment
    flag_dir = tmp_path / "flag"
    assert main(["run", "--config", str(cfg), "--out", str(flag_dir)]) == 0
    assert (flag_dir / "final.field").exists()


# ------------------------------------------------------- input errors


def expect_exit_2(tmp_path, capsys, cfg, argv_extra=(), command="run"):
    path = write_cfg(tmp_path, cfg)
    code = main([command, "--config", str(path), "--out", str(tmp_path), *argv_extra])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    return err


def test_missing_config_file(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "cannot read config" in capsys.readouterr().err


def test_invalid_json_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_missing_problem_block(tmp_path, capsys):
    err = expect_exit_2(tmp_path, capsys, {"run": {"t_end": 0.1}})
    assert "problem" in err


def test_missing_run_block(tmp_path, capsys):
    err = expect_exit_2(tmp_path, capsys, {"problem": {"name": "gray_scott"}})
    assert "'run' block" in err


def test_missing_t_end(tmp_path, capsys):
    cfg = gs_config()
    del cfg["run"]["t_end"]
    err = expect_exit_2(tmp_path, capsys, cfg)
    assert "t_end" in err


def test_unknown_problem_name(tmp_path, capsys):
    cfg = gs_config()
    cfg["problem"]["name"] = "brusselator"
    err = expect_exit_2(tmp_path, capsys, cfg)
    assert "unknown problem" in err


def test_unknown_initial_preset(tmp_path, capsys):
    cfg = gs_config()
    cfg["problem"]["initial"] = "bogus"
    err = expect_exit_2(tmp_path, capsys, cfg)
    assert "unknown initial condition" in err


def test_bad_grid_size(tmp_path, capsys):
    cfg = gs_config()
    cfg["problem"]["n"] = 10
    err = expect_exit_2(tmp_path, capsys, cfg)
    assert "power of two" in err


def test_unknown_problem_parameter(tmp_path, capsys):
    cfg = gs_config()
    cfg["problem"]["params"] = {"zeta": 1.0}
    err = expect_exit_2(tmp_path, capsys, cfg)
    assert "zeta" in err


def test_component_mismatch(tmp_path, capsys):
    cfg = gs_config()
    cfg["problem"]["name"] = "linear"  # one component, gs_bump has two
    err = expect_exit_2(tmp_path, capsys, cfg)
    assert "components" in err


def test_unknown_pair_name(tmp_path, capsys):
    err = expect_exit_2(tmp_path, capsys, gs_config(pair="no-such-pair"))
    assert "unknown pair" in err
    assert "lie-avg" in err  # the message lists what is available


def test_unknown_run_mode(tmp_path, capsys):
    err = expect_exit_2(tmp_path, capsys, gs_config(mode="sideways"))
    assert "adaptive" in err and "fixed" in err


def test_unknown_control_key(tmp_path, capsys):
    err = expect_exit_2(
        tmp_path, capsys, gs_config(control={"tol": 1e-4, "bogus": 1})
    )
    assert err == "error: run.control takes no ['bogus']\n"


def test_invalid_control_value(tmp_path, capsys):
    err = expect_exit_2(tmp_path, capsys, gs_config(control={"tol": -1.0}))
    assert "tol" in err


def test_unreachable_tolerance_exits_3(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        gs_config(control={"tol": 1e-30, "h_init": 1e-3, "h_min": 1e-3}),
    )
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure:")


def test_bad_subcommand_is_usage_error(capsys):
    # schemes reads no config and writes no file: it takes only --schemes
    for argv in (["frobnicate"], ["schemes", "--out", "d"], ["schemes", "--seed", "3"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
    capsys.readouterr()


# ------------------------------------------------------------ schemes


def test_schemes_listing(capsys):
    assert main(["schemes"]) == 0
    out = capsys.readouterr().out
    assert "schemes:" in out and "pairs:" in out
    for name in ("lie", "lie*", "strang", "comp3c", "emb2c", "lie3", "strang3"):
        assert f"  {name}: order" in out
    assert "comp3c: order 3, arity 2, 3 stages, 5 flows [parabolic-safe, complex]" in out
    assert "emb23c: embedded over emb2c (order 2), controller comp3c, shared prefix 1" in out
    assert "lie-milne: milne over lie (order 1), partner lie*" in out


def scheme_file(tmp_path):
    doc = {
        "schemes": [
            {"name": "trotter2", "order": 2, "stages": [[0.5, 1.0], [0.5, 0.0]]}
        ],
        "pairs": [
            {
                "name": "file-milne",
                "kind": "milne",
                "integrator": "lie",
                "partner": "lie*",
                "gamma": -1.0,
            }
        ],
    }
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(doc))
    return path


def test_schemes_listing_with_extra_file(tmp_path, capsys):
    extra = scheme_file(tmp_path)
    assert main(["schemes", "--schemes", str(extra)]) == 0
    out = capsys.readouterr().out
    assert "trotter2: order 2" in out
    assert "file-milne: milne over lie" in out


def test_run_with_pair_from_extra_file(tmp_path):
    extra = scheme_file(tmp_path)
    cfg = write_cfg(tmp_path, gs_config(pair="file-milne"))
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--schemes", str(extra), "--out", str(out)])
    assert code == 0
    assert (out / "final.field").exists()


def test_broken_scheme_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schemes": [
        {"name": "x", "order": 1, "stages": [[0.3, 1.0]]}
    ]}))
    assert main(["schemes", "--schemes", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_scheme_file_exits_2(tmp_path, capsys):
    assert main(["schemes", "--schemes", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


# ----------------------------------------------------------- converge


def converge_config(**over):
    cfg = {
        "problem": {"name": "gray_scott", "dim": 1, "a": math.pi, "n": 32},
        "converge": {
            "subject": "lie",
            "hs": [0.04, 0.02, 0.01],
            "t_end": 0.2,
            "norms": [0.0],
        },
    }
    cfg["converge"].update(over)
    return cfg


def test_converge_reports_first_order_for_lie(tmp_path, capsys):
    cfg = write_cfg(tmp_path, converge_config())
    assert main(["converge", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    m = re.search(r"converge lie: s=0 local slope=([-\d.]+) global slope=([-\d.]+)", out)
    assert m, out
    assert abs(float(m.group(1)) - 2.0) < 0.35  # local error of a p=1 scheme
    assert abs(float(m.group(2)) - 1.0) < 0.35
    csv = (tmp_path / "convergence_lie.csv").read_text()
    assert "series,s,h,value" in csv
    assert "local" in csv and "global" in csv


def test_converge_pair_emits_estimator_columns(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, converge_config(subject="lie-avg", what=["local"])
    )
    assert main(["converge", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    m = re.search(r"est deviation slope=([-\d.]+)", out)
    assert m, out
    csv = (tmp_path / "convergence_lie-avg.csv").read_text()
    assert "est_dev" in csv


def test_converge_multiple_subjects_rerun_is_byte_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path, converge_config(subjects=["lie", "lie*"]))
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["converge", "--config", str(cfg), "--out", str(first)]) == 0
    assert main(["converge", "--config", str(cfg), "--out", str(second)]) == 0
    capsys.readouterr()
    # '*' is not a welcome filename character
    for name in ("convergence_lie.csv", "convergence_lieadj.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_converge_csvs_do_not_depend_on_which_subjects_share_the_run(tmp_path, capsys):
    # the subjects share fixed-step solves; each CSV must still come out as
    # if its subject ran alone
    def run(subjects):
        cfg = converge_config(subjects=subjects, t_end=0.5, norms=[0.0, 1.0])
        cfg["problem"].update(n=64, initial="gs_bump")
        out = tmp_path / "-".join(subjects)
        path = write_cfg(tmp_path, cfg, name=f"{out.name}.json")
        assert main(["converge", "--config", str(path), "--out", str(out)]) == 0
        csvs = {}
        for name in subjects:
            head, body = (out / f"convergence_{name}.csv").read_bytes().split(b"\n", 1)
            # the provenance line hashes the config, which names the subjects
            assert head.startswith(b"# config_sha256=")
            csvs[name] = body
        return csvs

    both = run(["strang", "emb23c"])
    assert run(["emb23c", "strang"]) == both
    assert run(["strang"])["strang"] == both["strang"]
    assert run(["emb23c"])["emb23c"] == both["emb23c"]
    capsys.readouterr()


def test_converge_missing_hs(tmp_path, capsys):
    cfg = converge_config()
    del cfg["converge"]["hs"]
    path = write_cfg(tmp_path, cfg)
    assert main(["converge", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "hs" in capsys.readouterr().err


def compare_config(**over):
    return {"problem": gs_config()["problem"],
            "compare": {"pair": "lie-avg", "t_end": 0.1, "tols": [1e-3], **over}}


@pytest.mark.parametrize(
    "command, cfg, where",
    [
        ("run", {**gs_config(), "problem": {**gs_config()["problem"], "n": "abc"}}, "problem.n"),
        ("run", {**gs_config(), "problem": "gs"}, "'problem' block"),
        ("run", gs_config(t_end="soon"), "run.t_end"),
        ("run", gs_config(mode="fixed", scheme="lie", h="x"), "run.h"),
        ("converge", converge_config(hs=["big"]), "converge.hs"),
        ("converge", converge_config(hs=0.05), "converge.hs"),
        ("converge", converge_config(norms=["x"]), "converge.norms"),
        ("compare", compare_config(tols=["x"]), "compare.tols"),
        ("run", gs_config(snapshot_every="x"), "run.snapshot_every"),
        ("run", gs_config(outputs={"trajectory": 5}), "run.outputs.trajectory"),
        # a key the block does not read is refused, not dropped
        ("converge", converge_config(norm=[1.0]), "converge takes no ['norm']"),
        ("run", gs_config(snapshot_evry=2), "run takes no ['snapshot_evry']"),
        ("run", gs_config(outputs={"trajectry": "x.csv"}), "run.outputs takes no ['trajectry']"),
        ("compare", compare_config(tol=1e-3), "compare takes no ['tol']"),
        # integers, finite numbers and JSON objects as the schema says
        ("run", {**gs_config(), "problem": {**gs_config()["problem"], "dim": 1.7}}, "problem.dim"),
        ("run", {**gs_config(), "problem": {**gs_config()["problem"], "n": 32.9}}, "problem.n"),
        ("run", {**gs_config(), "problem": {**gs_config()["problem"], "a": "inf"}}, "problem.a"),
        # a width whose wavenumber scale (pi/a)^2 or volume (2a)^dim overflows
        ("run", {**gs_config(), "problem": {**gs_config()["problem"], "a": 1e-300}}, "half-width a"),
        ("run", {**gs_config(), "problem": {**gs_config()["problem"], "a": 1e200, "dim": 2}},
         "half-width a"),
        # an initial-condition argument numpy refuses used to exit 1
        ("run", {**gs_config(), "problem": {**gs_config()["problem"], "initial": "random_smooth",
                                            "initial_args": {"seed": -1}}}, "problem block"),
        ("run", gs_config(outputs=[["trajectory", "x.csv"]]), "run.outputs"),
        ("compare", compare_config(control=[["tol", 1e-3]]), "compare.control"),
        ("run", {**gs_config(), "problem": {**gs_config()["problem"],
                                            "initial_args": [["m", 2]]}}, "problem.initial_args"),
        # a fixed step and the ladders' steps and tolerances are finite
        ("run", gs_config(mode="fixed", scheme="lie", h="nan"), "run.h"),
        ("run", gs_config(mode="fixed", scheme="lie", h="inf"), "run.h"),
        ("converge", converge_config(hs=["inf"]), "converge.hs"),
        ("compare", compare_config(tols=["inf"]), "compare.tols"),
        # Sobolev indices and snapshot times are finite
        ("converge", converge_config(norms=["inf"]), "converge.norms"),
        ("run", gs_config(snapshot_times=["nan", "inf", -1.0]), "run.snapshot_times"),
        # JSON's NaN and Infinity literals parse; a control block refuses them
        ("run", gs_config(control={"tol": 1e-4, "reject_threshold": math.nan}), "run.control"),
        ("run", gs_config(control={"tol": math.inf}), "run.control"),
        # an infinite h_min used to reject a whole-span step and exit 3
        ("run", gs_config(control={"tol": 1e-4, "h_min": math.inf}),
         "run.control: h_min: expected a positive finite number, got inf"),
        ("run", gs_config(control={"tol": 1e-4, "h_init": math.inf}), "run.control: h_init"),
        ("run", gs_config(control={"tol": 1e-4, "alpha_max": math.inf}), "run.control: need"),
        ("compare", compare_config(control={"reject_threshold": math.nan}), "compare.control"),
        # inputs a convergence study cannot measure: no norm or kind, a norm
        # or step twice, and steps a global error would clip to one step
        ("converge", converge_config(norms=[]), "converge.norms"),
        ("converge", converge_config(norms=[0, 0]), "converge.norms"),
        ("converge", converge_config(what=[]), "converge.what"),
        ("converge", converge_config(hs=[0.02, 0.02]), "converge.hs"),
        ("converge", converge_config(hs=[0.8, 0.4], t_end=0.2, subject="strang",
                                     what=["global"]), "converge.hs"),
        # a number is a JSON number: an integer no float holds used to exit 1 in a
        # control block, and a string or a bool used to be read as a number
        ("run", gs_config(control={"tol": 10**400}), "run.control: tol"),
        ("run", gs_config(control={"tol": 1e-4, "h_min": 10**400}), "run.control: h_min"),
        ("run", gs_config(control={"tol": 1e-4, "reject_threshold": 10**400}),
         "run.control: reject_threshold"),
        # every estimate of the linear problem is 0, so the first step grows by alpha_max
        ("run", {"problem": {"name": "linear", "n": 16, "initial": "random_smooth",
                             "initial_args": {"m": 1}},
                 "run": gs_config(control={"tol": 1e-4, "alpha_max": 10**400})["run"]},
         "run.control: alpha_max"),
        ("run", gs_config(control={"tol": True}), "run.control: tol"),
        ("run", gs_config(control={"tol": 1e-4, "alpha": True}), "run.control: alpha"),
        ("run", gs_config(mode="fixed", scheme="lie", h="0.05"), "run.h"),
        ("run", gs_config(mode="fixed", scheme="lie", h=True), "run.h"),
        ("run", gs_config(t_end="0.2"), "run.t_end"),
        ("run", {**gs_config(), "problem": {**gs_config()["problem"], "a": "3.0"}}, "problem.a"),
        ("run", {**gs_config(), "problem": {**gs_config()["problem"], "params": {"alpha": "0.04"}}},
         "problem.params"),
        # a refused parameter is named, not only its block
        ("run", {**gs_config(), "problem": {**gs_config()["problem"],
                                            "params": {"alpha": "0.04", "beta": 0.06}}},
         "problem.params: alpha: expected a number, got '0.04'"),
        # initial_args values are numbers: true was read as 1, and a string
        # exited 2 only through the preset, without the key
        ("run", {**gs_config(), "problem": {**gs_config()["problem"], "initial": "gs_rough",
                                            "initial_args": {"q": True}}},
         "problem.initial_args: q: expected a number, got True"),
        ("run", {**gs_config(), "problem": {**gs_config()["problem"], "initial": "gs_rough",
                                            "initial_args": {"seed": True}}},
         "problem.initial_args: seed: expected a number, got True"),
        ("run", {**gs_config(), "problem": {**gs_config()["problem"], "initial": "gs_rough",
                                            "initial_args": {"q": "2.5"}}},
         "problem.initial_args: q: expected a number, got '2.5'"),
        ("converge", converge_config(hs=["0.05"]), "converge.hs"),
        ("compare", {"problem": gs_config()["problem"],
                     "compare": {"pair": "lie-avg", "t_end": 0.1, "control": {"tol": "1e-3"}}},
         "compare.control: tol"),
    ],
)
def test_malformed_config_value_exits_2_before_any_solve(tmp_path, capsys, monkeypatch,
                                                         command, cfg, where):
    import splitstep.cli as cli

    def no_solve(*args, **kwargs):
        pytest.fail("a solve started before the config was checked")

    for name in ("integrate_adaptive", "integrate_fixed", "convergence_study",
                 "efficiency_compare"):
        monkeypatch.setattr(cli, name, no_solve)
    err = expect_exit_2(tmp_path, capsys, cfg, command=command)
    assert err.count("\n") == 1 and where in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_converge_records_scheme_file_provenance(tmp_path, capsys):
    extra = scheme_file(tmp_path)
    cfg = write_cfg(tmp_path, converge_config(hs=[0.04, 0.02], what=["global"]))
    out = tmp_path / "out"
    code = main(["converge", "--config", str(cfg), "--schemes", str(extra), "--out", str(out)])
    assert code == 0
    digest = hashlib.sha256(extra.read_bytes()).hexdigest()
    lines = (out / "convergence_lie.csv").read_text().splitlines()
    assert f"# scheme_file_0={extra}:{digest}" in lines
    capsys.readouterr()


# ------------------------------------------------------------ compare


def test_compare_writes_efficiency_table(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        {
            "problem": {"name": "gray_scott", "dim": 1, "a": math.pi, "n": 32},
            "compare": {
                "pair": "lie-avg",
                "t_end": 0.3,
                "tols": [1e-3, 1e-4],
                "control": {"tol": 1e-3},
            },
        },
    )
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("compare lie-avg")]
    assert len(lines) == 2
    assert "ratio" in lines[0]
    csv = (tmp_path / "efficiency.csv").read_text()
    assert "lie-avg" in csv
    assert len(csv.splitlines()) >= 3


def test_compare_calibration_that_cannot_succeed_exits_3(tmp_path, capsys):
    # a negative A-coefficient: every trial step refuses backward diffusion
    extra = tmp_path / "neg.json"
    extra.write_text(json.dumps({
        "schemes": [{"name": "neg1", "order": 1, "stages": [[-0.5, 0.5], [1.5, 0.5]]}],
        "pairs": [{"name": "neg1-avg", "kind": "milne", "integrator": "neg1"}],
    }))
    cfg = write_cfg(
        tmp_path,
        {
            "problem": {"name": "gray_scott", "dim": 1, "a": math.pi, "n": 32},
            "compare": {
                "pair": "neg1-avg",
                "t_end": 0.1,
                "tols": [1e-4],
                "control": {"tol": 1e-4, "h_min": 1e-30},
            },
        },
    )
    code = main(["compare", "--config", str(cfg), "--schemes", str(extra),
                 "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure:")


# --------------------------------------------------- console entry


# the source tree of the splitstep this process imported, for child processes to import
SRC = os.path.dirname(os.path.dirname(cli.__file__))


def test_module_invocation_round_trip(tmp_path):
    cfg = write_cfg(tmp_path, gs_config())
    proc = subprocess.run(
        [sys.executable, "-m", "splitstep.cli", "run",
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    assert "accepted" in proc.stdout
    assert (tmp_path / "out" / "trajectory.csv").exists()


# ------------------------------------------------------- steady heap

# Six 320 KB arrays made and freed 30 times, after one warm-up round; prints
# the minor faults of the 30 rounds.  With argument 1 the helper runs first.
_CYCLES = """
import resource, sys
import numpy as np
import splitstep.cli as cli

if sys.argv[1] == "1":
    cli._steady_heap()

def cycle():
    arrays = [np.ones(40_960) for _ in range(6)]
    del arrays

cycle()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(30):
    cycle()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's")
def test_steady_heap_keeps_freed_temporaries_without_faults():
    # glibc's dynamic rule trims the freed arrays off the heap top and each
    # round faults them back in; pinned thresholds keep them on the heap
    # the child starts from glibc's defaults, whatever allocator tuning this
    # process has, and imports the splitstep this process imported
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = SRC

    def faults(helper):
        proc = subprocess.run([sys.executable, "-c", _CYCLES, helper],
                              capture_output=True, text=True, check=True, env=env)
        return int(proc.stdout)

    churn = faults("0")
    assert churn > 1000
    assert faults("1") < churn / 100


@pytest.mark.parametrize("mmap_ok, pinned", [
    (1, [(-3, 32 << 20), (-1, 64 << 20)]),  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
    (0, [(-3, 32 << 20)]),  # the trim threshold alone would make the churn worse
], ids=["both", "mmap-refused"])
def test_steady_heap_pins_both_thresholds(monkeypatch, mmap_ok, pinned):
    calls = []

    def mallopt(*args):
        calls.append(args)
        return mmap_ok if len(calls) == 1 else 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    cli._steady_heap()
    assert calls == pinned


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_no_c_library, lambda name: object()],
                         ids=["no-c-library", "no-mallopt"])
def test_steady_heap_without_mallopt_does_nothing_and_main_still_runs(
        monkeypatch, capsys, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert cli._steady_heap() is None
    assert main(["schemes"]) == 0
    assert "lie-avg" in capsys.readouterr().out


def test_compare_without_tols_writes_one_row_at_the_control_tol(tmp_path, capsys):
    cfg = compare_config(control={"tol": 2e-3})
    del cfg["compare"]["tols"]
    path = write_cfg(tmp_path, cfg)
    assert main(["compare", "--config", str(path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "efficiency.csv").read_text().splitlines()
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 1 and float(rows[0].split(",")[1]) == 2e-3


def _control(**over):
    return gs_config(control={"tol": 1e-4, **over})


@pytest.mark.parametrize(
    "command, cfg, where",
    [
        ("run", {**gs_config(), "problem": {**gs_config()["problem"], "dealias": "false"}},
         "problem.dealias"),
        ("compare", compare_config(calibrate="no"), "compare.calibrate"),
        ("run", _control(project_real="no"), "run.control: project_real"),
        ("run", _control(local_extrapolation="no"), "run.control: local_extrapolation"),
        ("run", _control(h_init="x"), "run.control: h_init"),
        ("run", _control(h_init=-0.1), "run.control: h_init"),
        ("run", _control(order_p="2"), "run.control: order_p"),
        ("run", _control(order_p=0), "run.control: order_p"),
        ("run", _control(norm="l1"), "run.control: norm"),
        ("compare", compare_config(control={"norm": "l1"}), "compare.control: norm"),
        ("converge", converge_config(norms=[-1.0]), "converge.norms"),
        ("converge", converge_config(subjects=[["lie"]]), "converge.subjects"),
        ("converge", converge_config(what=["locl"]), "converge.what"),
        ("converge", converge_config(what="local"), "converge.what"),
        ("converge", converge_config(hs=[]), "converge.hs"),
        ("converge", converge_config(hs=[0.02, -0.01]), "converge.hs"),
        ("run", {**gs_config(), "problem": {**gs_config()["problem"], "params": {"alpha": "x"}}},
         "problem.params"),
        ("compare", compare_config(control={"tol": 1e-3, "bogus": 1}),
         "compare.control takes no ['bogus']"),
        ("run", gs_config(control={"h_init": 1e-3}), "run.control needs 'tol'"),
    ],
)
def test_bad_flag_control_or_converge_value_exits_2_before_any_solve(
        tmp_path, capsys, monkeypatch, command, cfg, where):
    # the same check as for the malformed values above: one error line,
    # no solve started, nothing written
    test_malformed_config_value_exits_2_before_any_solve(
        tmp_path, capsys, monkeypatch, command, cfg, where)


def _problem(**keys):
    return {**gs_config(), "problem": {**gs_config()["problem"], **keys}}


@pytest.mark.parametrize(
    "command, cfg, where",
    [
        ("converge", converge_config(t_end=0.0), "converge: t_end=0.0 must exceed t0=0.0"),
        ("compare", compare_config(t_end=0.0, calibrate=False),
         "compare: t_end=0.0 must exceed t0=0.0"),
        ("compare", compare_config(t_end=0.0), "compare: t_end=0.0 must exceed t0=0.0"),
        ("compare", compare_config(t0=0.2), "compare: t_end=0.1 must exceed t0=0.2"),
        ("run", _problem(rk4_substep=0), "problem.rk4_substep"),
        ("run", _problem(rk4_substep=-1), "problem.rk4_substep"),
        ("run", _problem(rk4_substep="x"), "problem.rk4_substep"),
        ("run", _problem(name="van_der_pol", dealias=True, rk4_substep=5, diffusion=3),
         "problem: 'van_der_pol' takes no ['dealias', 'diffusion', 'rk4_substep']"),
        ("run", _problem(name="linear", params={"alpha": 0.04}),
         "problem: 'linear' takes no ['params']"),
        ("run", _problem(diffusion=0.5), "problem: 'gray_scott' takes no ['diffusion']"),
        ("run", _problem(name="gray_scott_abc", rk4_substep=0.1),
         "problem: 'gray_scott_abc' takes no ['rk4_substep']"),
        # one-step errors alone still need a span: the study reads it, not the CLI
        ("converge", converge_config(t_end=0.0, what=["local"]),
         "converge: t_end=0.0 must exceed t0=0.0"),
    ],
)
def test_empty_span_bad_substep_or_foreign_problem_key_exits_2_before_any_solve(
        tmp_path, capsys, monkeypatch, command, cfg, where):
    test_malformed_config_value_exits_2_before_any_solve(
        tmp_path, capsys, monkeypatch, command, cfg, where)


@pytest.mark.parametrize(
    "command, cfg, where",
    [
        ("compare", compare_config(tols=[]), "compare.tols"),
        ("run", gs_config(t_end="nan"), "run.t_end"),
        ("run", gs_config(t_end="inf"), "run.t_end"),
        ("run", gs_config(mode="fixed", scheme="lie", h=0.1, t_end="nan"), "run.t_end"),
        ("run", gs_config(mode="fixed", scheme="lie", h=0.1, t_end="inf"), "run.t_end"),
        ("run", gs_config(mode="fixed", scheme="lie", h=0.1, t_end=10**400), "run.t_end"),
        ("run", gs_config(t0="-inf"), "run.t0"),
        ("converge", converge_config(t_end="inf"), "converge.t_end"),
        ("converge", converge_config(t0="nan"), "converge.t0"),
        ("compare", compare_config(t_end="inf"), "compare.t_end"),
        ("compare", compare_config(t0="-inf", calibrate=False), "compare.t0"),
    ],
)
def test_empty_tols_or_non_finite_span_end_exits_2_before_any_solve(
        tmp_path, capsys, monkeypatch, command, cfg, where):
    test_malformed_config_value_exits_2_before_any_solve(
        tmp_path, capsys, monkeypatch, command, cfg, where)


@pytest.mark.parametrize("run, where", [
    ({"mode": "fixed", "scheme": "lie", "h": 0.1, "snapshot_every": 1},
     "run: 'fixed' mode takes no ['snapshot_every']"),
    ({"mode": "fixed", "scheme": "lie", "h": 0.1, "pair": "lie-avg", "control": {"tol": 1e-4}},
     "run: 'fixed' mode takes no ['control', 'pair']"),
    ({"scheme": "lie", "h": 0.1}, "run: 'adaptive' mode takes no ['h', 'scheme']"),
    ({"mode": ["fixed"]}, "run.mode"),
])
def test_run_refuses_the_other_modes_keys_before_any_solve(tmp_path, capsys, monkeypatch,
                                                           run, where):
    # a fixed run used to drop snapshot_every and write no snapshots
    test_malformed_config_value_exits_2_before_any_solve(
        tmp_path, capsys, monkeypatch, "run", gs_config(**run), where)


@pytest.mark.parametrize("run", [{}, {"mode": "fixed", "scheme": "lie", "h": 0.1}])
def test_run_over_an_empty_span_is_a_no_op(tmp_path, capsys, run):
    cfg = write_cfg(tmp_path, gs_config(t0=0.3, **run))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "trajectory.csv").read_text().splitlines() == [
        "t,h,est,accepted,flow_evals"
    ]
    assert "run: 0 accepted, 0 rejected, 0 flow evals" in capsys.readouterr().out


def test_readme_example_config_is_valid(tmp_path, capsys):
    import pathlib

    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text()
    start = text.index("```json", text.index("### Config file")) + len("```json")
    cfg = json.loads(text[start:text.index("```", start)])
    cfg["problem"]["n"] = 32
    cfg["run"] = {**cfg["run"], "t_end": 0.05, "snapshot_times": [0.02]}
    path = write_cfg(tmp_path, cfg)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
