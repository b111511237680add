"""Command-line interface: commands, config files, exit codes, outputs."""

import json
import subprocess
import sys

import numpy as np
import pytest

import fracflow.cli as cli
import fracflow.scenarios as scenarios
from fracflow.solver import COARSE_DOFS


SUMMARY_KEYS = {"scenario", "variant", "n", "params", "dofs", "subdomains",
                "interface_entities", "method", "cg_iterations",
                "relative_residual", "converged", "boundary_fluxes",
                "mass_balance_defect", "inflow", "profiles", "fractures",
                "refinement_iterations", "multigrid_levels", "at_float64_floor",
                "mass_balance_within_gate"}


def run_cli(*argv):
    return cli.main(list(argv))


def test_list_shows_all_builtins(capsys):
    assert run_cli("list") == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 6
    names = [line.split(":")[0].split(" ")[0] for line in out]
    assert names == ["onedim", "regular2d", "single_vertical",
                     "patch_eps_sweep", "wentzell_tangential", "ellipse2d"]
    assert "conductive|blocking" in out[1]


def test_run_onedim_outputs(tmp_path):
    out = tmp_path / "o"
    assert run_cli("run", "onedim", "--out", str(out)) == 0
    for fname in ("solution.csv", "profile_centerline.csv", "fracture_0.csv",
                  "summary.json"):
        assert (out / fname).is_file()
    summary = json.loads((out / "summary.json").read_text())
    assert SUMMARY_KEYS <= set(summary)
    assert summary["scenario"] == "onedim"
    assert summary["dofs"] == 66
    assert summary["subdomains"] == 2
    assert summary["converged"] is True
    assert summary["at_float64_floor"] is None
    assert abs(summary["fractures"][0]["extremal_jump"] + 1.0) <= 1e-10
    assert summary["mass_balance_defect"] <= 1e-8 * summary["inflow"]
    assert summary["mass_balance_within_gate"] is True
    assert set(summary["boundary_fluxes"]) == {"left", "right"}
    assert summary["profiles"]["centerline"]["file"] == "profile_centerline.csv"


def test_run_regular2d_benchmark_counts(tmp_path):
    out = tmp_path / "r"
    assert run_cli("run", "regular2d", "--variant", "conductive",
                   "--n", "32", "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["dofs"] == 1210
    assert summary["subdomains"] == 10
    assert summary["params"]["fracture_source"] == "external-benchmark"
    assert len(summary["fractures"]) == 6
    # the first solve and the refinement solve are reported separately
    assert summary["method"] == "cg"
    assert summary["cg_iterations"] > 0
    assert isinstance(summary["refinement_iterations"], int)
    assert summary["refinement_iterations"] > 0
    # dofs per multigrid level, finest first, down to a dense coarsest level
    levels = summary["multigrid_levels"]
    assert levels[0] == 1210 and len(levels) >= 2
    assert all(a > b for a, b in zip(levels, levels[1:]))
    assert levels[-1] <= COARSE_DOFS


def test_run_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", "single_vertical", "--n", "16", "--out", str(a)) == 0
    assert run_cli("run", "single_vertical", "--n", "16", "--out", str(b)) == 0
    for fname in ("solution.csv", "profile_y0p7.csv", "fracture_0.csv"):
        assert (a / fname).read_bytes() == (b / fname).read_bytes()
    assert json.loads((a / "summary.json").read_text()) == \
        json.loads((b / "summary.json").read_text())


def test_config_file_positional_and_flag_precedence(tmp_path):
    cfg = tmp_path / "case.json"
    cfg.write_text(json.dumps({"scenario": "single_vertical", "n": 16}))
    out = tmp_path / "o"
    # the command-line flag overrides the config value
    assert run_cli("run", str(cfg), "--n", "8", "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n"] == 8
    out2 = tmp_path / "o2"
    assert run_cli("run", str(cfg), "--out", str(out2)) == 0
    assert json.loads((out2 / "summary.json").read_text())["n"] == 16


def test_config_fracture_override(tmp_path):
    cfg = tmp_path / "net.json"
    cfg.write_text(json.dumps({
        "scenario": "regular2d", "n": 8,
        "fractures": [{"path": [[0.5, 0.0], [0.5, 1.0]],
                       "aperture": 1e-3, "mobility": 1e3}],
    }))
    out = tmp_path / "o"
    assert run_cli("run", str(cfg), "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["subdomains"] == 2
    assert summary["params"]["fracture_source"] == "config-override"


def test_config_extra_profile(tmp_path):
    cfg = tmp_path / "prof.json"
    cfg.write_text(json.dumps({
        "scenario": "regular2d", "n": 16, "variant": "blocking",
        "profiles": {"cc": {"start": [0.0, 0.2], "end": [1.0, 0.2], "n": 17}},
    }))
    out = tmp_path / "o"
    assert run_cli("run", str(cfg), "--out", str(out)) == 0
    assert (out / "profile_cc.csv").is_file()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["profiles"]["cc"]["n_samples"] == 17


@pytest.mark.parametrize("config, needle", [
    ({"scenario": "onedim", "bogus": 1}, "bogus"),
    ({"scenario": "onedim", "n": "many"}, "'n'"),
    ({"scenario": "onedim", "tol": "tight"}, "'tol'"),
    ({"scenario": "regular2d",
      "fractures": [{"path": [[0.5, 0.0]], "aperture": 1e-3, "mobility": 1.0}]},
     "path"),
    ({"scenario": "regular2d",
      "fractures": [{"path": [[0.5, 0.0], [0.5, 1.0]], "aperture": -1.0,
                     "mobility": 1.0}]}, "aperture"),
    ({"scenario": "onedim",
      "profiles": {"q": {"start": [0.0], "end": [1.0], "n": 1}}}, "n"),
    # JSON booleans are not numbers
    ({"scenario": "onedim", "tol": True}, "'tol'"),
    ({"scenario": "regular2d",
      "fractures": [{"path": [[0.5, 0.0], [0.5, 1.0]], "aperture": True,
                     "mobility": 1.0}]}, "aperture"),
    ({"scenario": "regular2d",
      "fractures": [{"path": [[0.5, 0.0], [0.5, 1.0]], "aperture": 1e-3,
                     "mobility": True}]}, "mobility"),
    ({"scenario": "regular2d",
      "fractures": [{"path": [[0.5, False], [0.5, 1.0]], "aperture": 1e-3,
                     "mobility": 1.0}]}, "path"),
    ({"scenario": "onedim",
      "profiles": {"q": {"start": [True], "end": [1.0]}}}, "start"),
    # a tolerance the solver cannot use
    ({"scenario": "onedim", "tol": float("nan")}, "tolerance"),
    ({"scenario": "onedim", "tol": -1.0}, "tolerance"),
    # a key nothing reads is rejected like any other unknown key
    ({"scenario": "regular2d",
      "fractures": [{"path": [[0.5, 0.0], [0.5, 1.0]], "aperture": 1e-3,
                     "mobility": 1.0, "source": "field-map"}]}, "source"),
    # profile endpoints of the wrong dimension for the mesh
    ({"scenario": "onedim",
      "profiles": {"q": {"start": [0, 0], "end": [1, 0]}}}, "1D"),
    ({"scenario": "single_vertical", "n": 8,
      "profiles": {"q": {"start": [0.1], "end": [0.9]}}}, "1D"),
    # a profile name is part of a file name
    ({"scenario": "onedim", "profiles": {"": {"start": [0.2], "end": [0.8]}}}, "profiles['']"),
    ({"scenario": "onedim", "profiles": {"a/b": {"start": [0.2], "end": [0.8]}}}, "a/b"),
    ({"scenario": "onedim", "profiles": {"a\0b": {"start": [0.2], "end": [0.8]}}}, "NUL"),
    ({"scenario": "onedim", "profiles": {"q" * 260: {"start": [0.2], "end": [0.8]}}},
     "255 bytes"),
    # a lone surrogate encodes to no file name
    ({"scenario": "onedim", "profiles": {"x\ud800": {"start": [0.2], "end": [0.8]}}},
     "profiles['x\\ud800']"),
])
def test_invalid_config_exits_2_and_names_field(tmp_path, capsys, config, needle):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run_cli("run", str(cfg), "--out", str(out)) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_defect_above_criterion_4_gate_warns_and_exits_0(tmp_path, capsys):
    """regular2d's segments at aperture 1e-8 and mobility 1e4 (kf/eps = 1e12)
    leave a defect above 1e-8 of the inflow after one refinement round."""
    cfg = tmp_path / "thin.json"
    cfg.write_text(json.dumps({"scenario": "regular2d", "n": 128, "fractures": [
        {"path": [list(a), list(b)], "aperture": 1e-8, "mobility": 1e4}
        for a, b in scenarios._REGULAR2D_SEGMENTS]}))
    out = tmp_path / "thin"
    assert run_cli("run", str(cfg), "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["mass_balance_defect"] > 1e-8 * summary["inflow"]
    assert summary["mass_balance_within_gate"] is False
    warning = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
    assert len(warning) == 1 and "exceeds 1e-8 of the inflow" in warning[0]


def test_invalid_inputs_exit_2(tmp_path, capsys):
    assert run_cli("run", "no_such_scenario", "--out", str(tmp_path / "x")) == 2
    assert "no_such_scenario" in capsys.readouterr().err
    assert run_cli("run", "onedim", "--variant", "fast",
                   "--out", str(tmp_path / "y")) == 2
    assert run_cli("run", "--out", str(tmp_path / "z")) == 2   # no scenario at all
    missing = tmp_path / "gone.json"
    assert run_cli("run", str(missing), "--out", str(tmp_path / "m")) == 2
    notjson = tmp_path / "broken.json"
    notjson.write_text("{not json")
    assert run_cli("run", str(notjson), "--out", str(tmp_path / "j")) == 2


@pytest.mark.parametrize("argv", [("compare", "single_vertical", "--oracle", "equidim"),
                                  ("compare", "patch_eps_sweep"), ("run", "onedim")])
def test_n_below_two_exits_2(tmp_path, capsys, argv):
    assert run_cli(*argv, "--n", "1", "--out", str(tmp_path / "o")) == 2
    assert "n must be >= 2, got 1" in capsys.readouterr().err


def test_unconverged_solve_exits_3(tmp_path, capsys):
    for tol in ("1e-30", "1e-300"):
        code = run_cli("run", "single_vertical", "--tol", tol, "--out", str(tmp_path / tol))
        assert code == 3
        assert "did not converge" in capsys.readouterr().err


def test_compare_onedim_writes_report(tmp_path):
    out = tmp_path / "c"
    assert run_cli("compare", "onedim", "--out", str(out)) == 0
    report = json.loads((out / "compare.json").read_text())
    assert report["passed"] is True
    assert report["oracle"] == "analytic"
    assert report["metrics"]["nodal_max_error"] <= 1e-10


def test_compare_unknown_oracle_exits_2(tmp_path):
    assert run_cli("compare", "onedim", "--oracle", "tea_leaves",
                   "--out", str(tmp_path / "o")) == 2
    # a scenario without any reference cannot be compared
    assert run_cli("compare", "regular2d", "--out", str(tmp_path / "o2")) == 2


def test_compare_rejects_a_fractures_config(tmp_path, capsys):
    """The references model the built-in networks, so compare does not run
    a config that replaces the network."""
    cfg = tmp_path / "frac.json"
    cfg.write_text(json.dumps({
        "scenario": "single_vertical", "n": 16,
        "fractures": [{"path": [[0.25, 0], [0.25, 1]], "aperture": 0.01, "mobility": 0.01}]}))
    out = tmp_path / "c"
    assert run_cli("compare", str(cfg), "--oracle", "analytic", "--out", str(out)) == 2
    assert "'fractures'" in capsys.readouterr().err
    assert not (out / "compare.json").exists()


@pytest.mark.parametrize("command, config, needle", [
    ("compare", {"scenario": "onedim", "profiles": {"q": {"start": [0.2], "end": [0.8]}}},
     "'profiles'"),
    ("run", {"scenario": "onedim", "oracle": "nonsense"}, "'oracle'"),
])
def test_config_key_of_the_other_command_exits_2(tmp_path, capsys, command, config, needle):
    """Each command reads only its own config keys: compare writes no
    profiles and run has no oracle, so neither ignores one without a word."""
    cfg = tmp_path / "other.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert run_cli(command, str(cfg), "--out", str(out)) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def no_solve(monkeypatch):
    """Fail the test if any scenario solve starts."""
    def solve(case, tol):
        raise AssertionError("a solve started")
    monkeypatch.setattr(scenarios, "_solve_case", solve)


def test_out_that_cannot_be_a_folder_exits_2_before_the_solve(tmp_path, capsys, no_solve):
    taken = tmp_path / "taken"
    taken.write_text("not a folder")
    for argv, path in ((("run", "onedim", "--out", str(taken)), taken),
                       (("compare", "onedim", "--out", str(taken / "sub")), taken / "sub"),
                       (("run", "regular2d", "--variant", "blocking", "--out", str(taken)), taken)):
        assert run_cli(*argv) == 2
        assert f"cannot make output folder {str(path)!r}" in capsys.readouterr().err
    assert taken.read_text() == "not a folder"


@pytest.mark.parametrize("argv, config, needle", [
    (("run", "onedim", "--out", ""), None, "'out' is empty"),
    (("run", "--out", ""), {"scenario": "onedim", "out": "cfgout"}, "'out' is empty"),
    (("run",), {"scenario": "onedim", "out": ""}, "'out' is empty"),
    (("compare", "onedim", "--oracle", "", "--out", "o"), None, "got ''"),
], ids=["out_flag", "out_flag_over_config", "out_config", "oracle_flag"])
def test_empty_flag_or_config_value_exits_2(tmp_path, monkeypatch, capsys, no_solve,
                                             argv, config, needle):
    """An empty string is a value like any other: a flag that gives one
    overrides the config, and an empty output folder or oracle name is
    invalid input that leaves nothing behind."""
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = (argv[0], "cfg.json", *argv[1:])
    assert run_cli(*argv) == 2
    assert needle in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == (["cfg.json"] if config else [])


@pytest.mark.parametrize("segment, needle", [
    ({"start": [0.3, 0.2], "end": [1.5, 0.2]}, "lies outside the mesh"),
    ({"start": [0.3, 0.2], "end": [0.3, 0.2]}, "endpoints coincide"),
], ids=["outside", "coincident"])
def test_config_profile_fails_before_the_solve(tmp_path, capsys, no_solve, segment, needle):
    cfg = tmp_path / "prof.json"
    cfg.write_text(json.dumps({"scenario": "regular2d", "n": 16, "profiles": {"q": segment}}))
    assert run_cli("run", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_failing_comparison_exits_4(tmp_path, monkeypatch, capsys):
    def fake_compare(name, n=None, variant=None, tol=1e-10, oracle=None):
        return {"scenario": name, "variant": variant, "n": n, "oracle": "fake",
                "metrics": {"err": 1.0}, "thresholds": {"err": 0.1},
                "passed": False, "profiles": {}}
    monkeypatch.setattr(cli, "compare_scenario", fake_compare)
    out = tmp_path / "c"
    assert run_cli("compare", "onedim", "--out", str(out)) == 4
    assert "FAIL" in capsys.readouterr().out
    assert json.loads((out / "compare.json").read_text())["passed"] is False


def test_console_script_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "fracflow.cli", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "regular2d" in proc.stdout
