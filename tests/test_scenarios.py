"""Built-in scenario registry, runs and comparisons."""

import numpy as np
import pytest

from fracflow import (ConfigurationError, ConstantAperture, FractureNetwork,
                      FractureSpec, Point, SCENARIOS, compare_scenario,
                      nodal_error_vs_analytic, run_scenario, scenario_names,
                      solve_1d_interface_analytic)
from fracflow.scenarios import _side_of_vertices


EXPECTED_NAMES = ("onedim", "regular2d", "single_vertical", "patch_eps_sweep",
                  "wentzell_tangential", "ellipse2d")


def test_registry_holds_exactly_the_six_builtins():
    assert scenario_names() == EXPECTED_NAMES
    assert SCENARIOS["regular2d"].variants == ("conductive", "blocking")
    for name in EXPECTED_NAMES:
        assert SCENARIOS[name].default_n >= 2
        assert SCENARIOS[name].description


def test_run_scenario_argument_validation():
    with pytest.raises(ConfigurationError):
        run_scenario("no_such_case")
    with pytest.raises(ConfigurationError):
        run_scenario("onedim", variant="conductive")
    with pytest.raises(ConfigurationError):
        run_scenario("regular2d", variant="porous")
    with pytest.raises(ConfigurationError):
        run_scenario("onedim", n=1)


def test_onedim_run_pins():
    res = run_scenario("onedim")
    assert res.n == 64
    assert res.params["eps"] == res.params["kf"] == 1e-4
    assert res.split.n_subdomains == 2
    assert res.split.n_dofs == 66
    assert len(res.fracture_jumps) == 1
    assert res.fracture_jumps[0].values[0] == pytest.approx(-1.0, abs=1e-10)
    assert res.defect <= 1e-12


def test_regular2d_run_pins():
    res = run_scenario("regular2d", n=32, variant="conductive")
    assert res.split.n_subdomains == 10
    assert res.split.n_dofs == 1210
    assert len(res.split.interface_edges) == 112
    assert res.params["kf"] == 1e4 and res.params["eps"] == 1e-4
    assert res.params["fracture_source"] == "external-benchmark"
    assert set(res.profiles) == {"y0p7", "x0p5"}
    blocking = run_scenario("regular2d", n=32, variant="blocking")
    assert blocking.params["kf"] == 1e-4
    # default variant is conductive
    assert run_scenario("regular2d", n=16).params["kf"] == 1e4


def test_runs_are_deterministic():
    a = run_scenario("single_vertical", n=16)
    b = run_scenario("single_vertical", n=16)
    assert np.array_equal(a.pressure, b.pressure)
    assert a.fluxes == b.fluxes


def test_patch_eps_sweep_extras():
    res = run_scenario("patch_eps_sweep", n=16)
    sweep = res.extras["aperture_sweep"]
    assert sweep["apertures"] == [1e-2, 1e-3, 1e-4]
    assert len(sweep["sup_deviation"]) == 3
    assert len(sweep["ratios"]) == 2
    # deviations shrink by about the aperture ratio
    for r in sweep["ratios"]:
        assert abs(r / 10.0 - 1.0) <= 0.2
    assert "aperture_sweep" not in run_scenario("onedim").extras


def test_fracture_override_only_for_regular2d():
    network = FractureNetwork((FractureSpec(
        path=(Point(0.5, 0.0), Point(0.5, 1.0)),
        aperture=ConstantAperture(1e-2), mobility=1.0),))
    res = run_scenario("regular2d", n=8, fractures=network)
    assert res.split.n_subdomains == 2
    assert res.params["fracture_source"] == "config-override"
    with pytest.raises(ConfigurationError):
        run_scenario("onedim", fractures=network)


def test_extra_profiles_added_and_collisions_rejected():
    extra = {"diag": (Point(0.0, 0.0), Point(1.0, 1.0), 9)}
    res = run_scenario("single_vertical", n=8, extra_profiles=extra)
    assert "diag" in res.profiles and len(res.profiles["diag"]) == 9
    with pytest.raises(ConfigurationError):
        run_scenario("single_vertical", n=8,
                     extra_profiles={"y0p7": (Point(0, 0), Point(1, 1), 5)})


def test_compare_oracle_selection_rules():
    with pytest.raises(ConfigurationError):
        compare_scenario("regular2d")               # no reference available
    with pytest.raises(ConfigurationError):
        compare_scenario("onedim", oracle="equidim")
    assert tuple(SCENARIOS["single_vertical"].oracles) == ("equidim", "analytic")


def test_compare_onedim_passes():
    rep = compare_scenario("onedim")
    assert rep["passed"]
    assert rep["oracle"] == "analytic"
    assert rep["metrics"]["nodal_max_error"] <= 1e-10
    # the modeling gap against the resolved inclusion is O(eps), not zero
    gap = rep["metrics"]["model_vs_resolved_inlet_gap"]
    assert 1e-6 < gap <= 2e-4


@pytest.mark.parametrize("name, offset_key", [("single_vertical", "p_right"),
                                              ("onedim", None)])
def test_nodal_error_matches_node_by_node_loop(name, offset_key):
    """The node-by-node evaluation of the analytic profile, kept as the
    reference for the one call per side."""
    res = run_scenario(name, n=16)
    p = res.params
    offset = p[offset_key] if offset_key else 0.0
    exact = solve_1d_interface_analytic(1.0, 0.5, p["eps"], 1.0, 1.0, p["kf"], 1.0)
    left = _side_of_vertices(res.split, 0.5)
    xs = res.split.base.vertices[:, 0]
    vals = np.array([exact.eval(float(x), "left" if is_left else "right") + offset
                     for x, is_left in zip(xs, left)])
    want = float(np.max(np.abs(res.pressure - vals)))
    got = nodal_error_vs_analytic(res.split, res.pressure, p["eps"], p["kf"], offset=offset)
    assert got == want


def test_compare_single_vertical_analytic_passes():
    rep = compare_scenario("single_vertical", n=32, oracle="analytic")
    assert rep["passed"]
    assert rep["metrics"]["nodal_max_error"] <= 1e-8


def test_compare_report_shape():
    rep = compare_scenario("onedim", n=32)
    for key in ("scenario", "variant", "n", "oracle", "metrics", "thresholds",
                "passed", "profiles"):
        assert key in rep
    assert rep["n"] == 32
