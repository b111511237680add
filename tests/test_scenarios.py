"""Built-in scenario registry, runs and comparisons."""

import numpy as np
import pytest

from fracflow import (BoundaryConditionSet, ConfigurationError, ConstantAperture,
                      FractureNetwork, FractureSpec, Point, SCENARIOS,
                      build_structured_quad, compare_scenario,
                      nodal_error_vs_analytic, run_scenario, scenario_names,
                      solve_1d_interface_analytic, solve_equidim_2d)
from fracflow import scenarios
from fracflow.geometry import _tensor_quad_mesh
from fracflow.scenarios import _ELLIPSE_FULL, _ELLIPSE_REDUCED, _side_of_vertices

from conftest import vertical_network


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


def test_patch_eps_sweep_solves_each_aperture_once(monkeypatch):
    """The run's own solve is the sweep's first aperture; the comparison,
    which has no run of its own, solves all three."""
    solved = []
    solve_case = scenarios._solve_case

    def counting(case, tol):
        solved.append(case.params["eps"])
        return solve_case(case, tol)

    monkeypatch.setattr(scenarios, "_solve_case", counting)
    sweep = run_scenario("patch_eps_sweep", n=16).extras["aperture_sweep"]
    assert solved == [1e-2, 1e-3, 1e-4]
    solved.clear()
    compared = compare_scenario("patch_eps_sweep", n=16)
    assert solved == [1e-2, 1e-3, 1e-4]
    assert compared["metrics"]["sup_deviation"] == sweep["sup_deviation"]


def test_fracture_override_only_for_regular2d():
    network = FractureNetwork((FractureSpec(
        path=(Point(0.5, 0.0), Point(0.5, 1.0)),
        aperture=ConstantAperture(1e-2), mobility=1.0),))
    res = run_scenario("regular2d", n=8, fractures=network)
    assert res.split.n_subdomains == 2
    assert res.params["fracture_source"] == "config-override"
    with pytest.raises(ConfigurationError):
        run_scenario("onedim", fractures=network)


def test_config_network_params_list_only_its_own_fractures():
    """A config network's summary holds each fracture's aperture and
    mobility, not the built-in network's eps and kf."""
    network = FractureNetwork((FractureSpec(
        path=(Point(0.5, 0.0), Point(0.5, 1.0)),
        aperture=ConstantAperture(0.01), mobility=0.001),))
    params = run_scenario("regular2d", n=16, variant="conductive", fractures=network).params
    assert "eps" not in params and "kf" not in params
    assert params["fractures"] == [{"path": [[0.5, 0.0], [0.5, 1.0]],
                                    "aperture": 0.01, "mobility": 0.001}]


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


_BAND_METRICS = ("l2", "max", "oracle_range", "l2_over_range")
# (scenario, oracle) -> compared profile, metric keys, gated metric, notes.
_REPORT_SHAPES = {
    ("onedim", "analytic"): (
        None, ("nodal_max_error", "model_vs_resolved_inlet_gap"), "nodal_max_error",
        "inlet gap vs the resolved-inclusion profile is the modeling error, expected ~eps"),
    ("single_vertical", "equidim"): ("y0p7", _BAND_METRICS, "l2_over_range", None),
    ("single_vertical", "analytic"): (None, ("nodal_max_error",), "nodal_max_error", None),
    ("patch_eps_sweep", "ratios"): (
        None, ("apertures", "sup_deviation", "ratios", "ratio_rel_deviation"),
        "ratio_rel_deviation", None),
    ("wentzell_tangential", "equidim"): (
        "fracture_centerline", _BAND_METRICS, "l2_over_range", None),
    ("ellipse2d", "equidim"): (
        "y0p7", _BAND_METRICS + ("scale",), "l2_over_range",
        "run at reduced scale minor=kf=1e-2 so the band is meshable; the scenario "
        "default is 1e-4"),
}


def test_report_shapes_cover_every_oracle():
    assert set(_REPORT_SHAPES) == {(name, oracle) for name, spec in SCENARIOS.items()
                                   for oracle in spec.oracles}


@pytest.mark.parametrize("name, oracle", list(_REPORT_SHAPES))
def test_compare_report_shape_of_every_oracle(name, oracle):
    profile, metric_keys, gated, notes = _REPORT_SHAPES[name, oracle]
    rep = compare_scenario(name, n=8, oracle=oracle)
    expected = {"scenario", "variant", "n", "oracle", "metrics", "thresholds",
                "passed", "profiles"} | ({"notes"} if notes else set())
    assert set(rep) == expected
    assert (rep["scenario"], rep["variant"], rep["n"], rep["oracle"]) == (name, None, 8, oracle)
    assert tuple(rep["metrics"]) == metric_keys
    assert list(rep["thresholds"]) == [gated]
    assert rep.get("notes") == notes
    m = rep["metrics"]
    assert rep["profiles"] == ({profile: {"l2": m["l2"], "max": m["max"]}} if profile else {})
    if "scale" in metric_keys:
        assert m["scale"] == {"minor": 1e-2, "kf": 1e-2, "major": 1.0 + 1e-2}


@pytest.mark.parametrize("gated, ungated, passed", [
    ([0.05, 0.2], 0.0, False),
    ([0.05, 0.1], 0.0, True),
    ([0.05, float("nan")], 0.0, False),
    ([-0.05, -0.2], 0.0, False),
    ([0.05, 0.1], 1e300, True),
    ([0.05, 0.2], 1e300, False),
], ids=["above", "at", "nan", "negative", "ungated_huge_passes", "ungated_huge_fails"])
def test_verdict_gates_every_value_of_every_gated_metric(monkeypatch, gated, ungated, passed):
    """``compare_scenario`` alone builds the record and its verdict: every
    value of a gated metric must be within its threshold in absolute value,
    a NaN fails, and a metric without a threshold does not count."""
    metrics = {"err": gated, "spread": ungated}
    monkeypatch.setitem(SCENARIOS["onedim"].oracles, "fake",
                        lambda n, tol: (metrics, {"err": 0.1}, {"notes": "fake oracle"}))
    rep = compare_scenario("onedim", n=8, oracle="fake")
    assert rep["passed"] is passed
    assert rep == {"scenario": "onedim", "variant": None, "n": 8, "oracle": "fake",
                   "metrics": metrics, "thresholds": {"err": 0.1}, "profiles": {},
                   "notes": "fake oracle", "passed": passed}


@pytest.mark.parametrize("scale", [_ELLIPSE_FULL, _ELLIPSE_REDUCED])
def test_ellipse_band_width_is_the_closed_form_bit_for_bit(scale):
    """The band width the ellipse comparison reads from the scenario's
    aperture, at arc length y along its path from (0.5, 0), equals the
    closed form it replaced: at the grid y and the cell-centre y of band
    meshes from n = 8 to 512, and at random y."""
    aperture = SCENARIOS["ellipse2d"].build(4, None, scale=scale).split.network.fractures[0].aperture
    a = 0.5 * scale["major"]

    def closed_form(y):
        t = (y - 0.5) / a
        return scale["minor"] * float(np.sqrt(max(0.0, 1.0 - t * t)))

    ys = [np.random.default_rng(0).uniform(0.0, 1.0, 10_000)]
    for n in (8, 16, 32, 64, 128, 256, 512):
        mesh = _tensor_quad_mesh(np.array([0.0, 1.0]), np.linspace(0.0, 1.0, n + 1))
        ys += [np.linspace(0.0, 1.0, 4 * n + 1),
               mesh.vertices[mesh.cells].mean(axis=1)[:, 1]]
    ys = np.concatenate(ys)
    got = aperture.at(ys)
    for y, width in zip(ys.tolist(), got.tolist()):
        assert width == closed_form(y), y


@pytest.mark.parametrize("name, dofs, max_iterations", [
    ("ellipse2d", 18705, 45),             # n=128, 16 band cells, reduced scale
    ("wentzell_tangential", 4355, 25),    # n=64, 2 band cells
])
def test_band_reference_iterations(monkeypatch, name, dofs, max_iterations):
    """The thin band cells make the reference's operator strongly
    anisotropic. With each grid row across the band relaxed as one line the
    first solve stays under the bound; relaxing the band's nodes one by one
    takes 90 (ellipse2d) and 53 (wentzell_tangential) CG iterations."""
    results = []

    def solve_and_keep(*args, **kwargs):
        results.append(solve_equidim_2d(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(scenarios, "solve_equidim_2d", solve_and_keep)
    assert compare_scenario(name)["passed"]
    (result,) = results
    assert result.split.n_dofs == dofs
    assert result.report.converged
    assert result.report.iterations <= max_iterations


def test_wentzell_reproduces_its_exact_field():
    """The exact pressure 1 - y lies in the discrete spaces of the model and
    of its resolved-band reference, so the two profiles agree to roundoff,
    far inside criterion 6's relative gate of 0.02."""
    m = compare_scenario("wentzell_tangential")["metrics"]
    assert m["l2"] <= 1e-10 * m["oracle_range"]
    assert m["max"] <= 1e-10 * m["oracle_range"]


def _equidim(n):
    bcs = BoundaryConditionSet(dirichlet={"right": 0.0}, neumann={"left": 1.0})
    return solve_equidim_2d(n, 2, vertical_network(1e-2, 1e-2).fractures[0], bcs)


_RECORDS = {
    "Mesh": lambda: build_structured_quad(4, 4, Point(0.0, 0.0), Point(1.0, 1.0)),
    "SplitMesh": lambda: run_scenario("single_vertical", n=4).split,
    "InterfaceEntities": lambda: run_scenario("single_vertical", n=4).split.interface_edges,
    "LinearSystem": lambda: run_scenario("single_vertical", n=4).system,
    "Profile": lambda: run_scenario("single_vertical", n=4).profiles["y0p7"],
    "PiecewiseLinear1D": lambda: solve_1d_interface_analytic(1.0, 0.5, 1e-2, 1.0, 1.0, 1e-2, 1.0),
    "EquidimResult": lambda: _equidim(4),
    "ScenarioCase": lambda: SCENARIOS["single_vertical"].build(4, None),
    "ScenarioResult": lambda: run_scenario("single_vertical", n=4),
}


@pytest.mark.parametrize("kind", list(_RECORDS))
def test_array_records_compare_and_hash_by_identity(kind):
    """Records that hold arrays compare by identity: the field-wise == of a
    generated __eq__ would compare arrays and raise, and their hash would
    hash arrays."""
    a, b = _RECORDS[kind](), _RECORDS[kind]()
    assert type(a).__name__ == kind
    assert a == a and a != b
    assert len({a, b, a}) == 2
