"""Built-in verification scenarios and their reference comparisons.

Every scenario is a self-contained flow problem on the unit domain with a
fixed parameter set, so runs are reproducible without configuration. The
``compare_scenario`` function reruns a scenario next to an independent
reference (closed-form profile, resolved-band solve, or a scaling law) and
reports the mismatch with a pass threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .assembly import (BoundaryConditionSet, LinearSystem, assemble,
                       fracture_coefficient_map)
from .errors import ConfigurationError
from .geometry import (ConstantAperture, EllipticalAperture, FractureNetwork,
                       FractureSpec, Point, SplitMesh, build_interval,
                       build_structured_quad, split_mesh)
from .postprocess import (Profile, boundary_flux, fracture_jump,
                          fracture_pressure, mass_balance_defect,
                          profile_error, sample_profile)
from .reference import (solve_1d_heterogeneous_analytic,
                        solve_1d_interface_analytic, solve_equidim_2d)
from .solver import SolveReport, solve_system

__all__ = [
    "ScenarioCase",
    "ScenarioResult",
    "SCENARIOS",
    "scenario_names",
    "run_scenario",
    "compare_scenario",
]


@dataclass
class ScenarioCase:
    """Assembled inputs of one scenario instance."""

    split: SplitMesh
    k_per_subdomain: np.ndarray
    coeffs: list
    bcs: BoundaryConditionSet
    profiles: dict[str, tuple[Point, Point, int]]
    params: dict


@dataclass
class ScenarioResult:
    """A solved scenario with its extracted quantities."""

    name: str
    variant: str | None
    n: int
    params: dict
    split: SplitMesh
    system: LinearSystem
    pressure: np.ndarray
    report: SolveReport
    fluxes: dict[str, float]
    defect: float
    profiles: dict[str, Profile]
    fracture_means: list[Profile]
    fracture_jumps: list[Profile]
    extras: dict = field(default_factory=dict)


def _unit_square(n: int):
    return build_structured_quad(n, n, Point(0.0, 0.0), Point(1.0, 1.0))


def _vertical_fracture(aperture, mobility) -> FractureNetwork:
    spec = FractureSpec(path=(Point(0.5, 0.0), Point(0.5, 1.0)),
                        aperture=aperture, mobility=mobility)
    return FractureNetwork((spec,))


def _coeffs_for(network: FractureNetwork) -> list:
    return [fracture_coefficient_map(f.mobility, f.aperture.max_value)
            for f in network.fractures]


_THROUGHFLOW = BoundaryConditionSet(dirichlet={"right": 1.0}, neumann={"left": 1.0})


def _build_onedim(n: int, variant: str | None) -> ScenarioCase:
    eps, kf = 1e-4, 1e-4
    mesh = build_interval(n, 1.0)
    network = FractureNetwork((FractureSpec(path=(Point(0.5),),
                                            aperture=ConstantAperture(eps),
                                            mobility=kf),))
    split = split_mesh(mesh, network)
    bcs = BoundaryConditionSet(dirichlet={"right": 0.0}, neumann={"left": 1.0})
    profiles = {"centerline": (Point(0.0), Point(1.0), n + 1)}
    params = {"eps": eps, "kf": kf, "k": 1.0, "position": 0.5, "inflow": 1.0}
    return ScenarioCase(split, np.ones(split.n_subdomains), _coeffs_for(network),
                        bcs, profiles, params)


# Six orthogonal fracture segments cutting the unit square into ten
# subdomains. The coordinates are the package defaults; a config file can
# replace them through the `fractures` key.
_REGULAR2D_SEGMENTS = (
    ((0.0, 0.5), (1.0, 0.5)),
    ((0.5, 0.0), (0.5, 1.0)),
    ((0.75, 0.5), (0.75, 1.0)),
    ((0.5, 0.75), (1.0, 0.75)),
    ((0.625, 0.5), (0.625, 0.75)),
    ((0.5, 0.625), (0.75, 0.625)),
)
_REGULAR2D_KF = {"conductive": 1e4, "blocking": 1e-4}


def _regular2d_network(eps: float, kf: float) -> FractureNetwork:
    specs = tuple(FractureSpec(path=(Point(*a), Point(*b)),
                               aperture=ConstantAperture(eps), mobility=kf)
                  for a, b in _REGULAR2D_SEGMENTS)
    return FractureNetwork(specs)


def _build_regular2d(n: int, variant: str | None,
                     fractures: FractureNetwork | None = None) -> ScenarioCase:
    variant = variant or "conductive"
    eps, kf = 1e-4, _REGULAR2D_KF[variant]
    network = fractures if fractures is not None else _regular2d_network(eps, kf)
    split = split_mesh(_unit_square(n), network)
    profiles = {
        "y0p7": (Point(0.0, 0.7), Point(1.0, 0.7), n + 1),
        "x0p5": (Point(0.5, 0.0), Point(0.5, 1.0), n + 1),
    }
    params = {"eps": eps, "kf": kf, "k": 1.0, "inflow": 1.0, "p_right": 1.0,
              "fractures": [{"path": [list(p.coords) for p in f.path],
                             "aperture": f.aperture.max_value,
                             "mobility": f.mobility}
                            for f in network.fractures],
              "fracture_source": "external-benchmark" if fractures is None
                                 else "config-override"}
    return ScenarioCase(split, np.ones(split.n_subdomains), _coeffs_for(network),
                        _THROUGHFLOW, profiles, params)


def _build_single_vertical(n: int, variant: str | None) -> ScenarioCase:
    eps, kf = 1e-2, 1e-2
    network = _vertical_fracture(ConstantAperture(eps), kf)
    split = split_mesh(_unit_square(n), network)
    profiles = {"y0p7": (Point(0.0, 0.7), Point(1.0, 0.7), n + 1)}
    params = {"eps": eps, "kf": kf, "k": 1.0, "inflow": 1.0, "p_right": 1.0}
    return ScenarioCase(split, np.ones(split.n_subdomains), _coeffs_for(network),
                        _THROUGHFLOW, profiles, params)


_SWEEP_APERTURES = (1e-2, 1e-3, 1e-4)
_SWEEP_BCS = BoundaryConditionSet(dirichlet={"left": 1.0, "right": 0.0}, neumann={})


def _build_patch_eps_sweep(n: int, variant: str | None,
                           aperture: float = _SWEEP_APERTURES[0]) -> ScenarioCase:
    kf = 1.0
    network = _vertical_fracture(ConstantAperture(aperture), kf)
    split = split_mesh(_unit_square(n), network)
    profiles = {"y0p7": (Point(0.0, 0.7), Point(1.0, 0.7), n + 1)}
    params = {"eps": aperture, "kf": kf, "k": 1.0, "p_left": 1.0, "p_right": 0.0,
              "aperture_sweep": list(_SWEEP_APERTURES)}
    return ScenarioCase(split, np.ones(split.n_subdomains), _coeffs_for(network),
                        _SWEEP_BCS, profiles, params)


def _build_wentzell_tangential(n: int, variant: str | None) -> ScenarioCase:
    eps, kf = 1e-2, 1e2
    network = _vertical_fracture(ConstantAperture(eps), kf)
    split = split_mesh(_unit_square(n), network)
    bcs = BoundaryConditionSet(dirichlet={"bottom": 1.0, "top": 0.0}, neumann={})
    profiles = {
        "x0p5": (Point(0.5, 0.0), Point(0.5, 1.0), n + 1),
        "x0p25": (Point(0.25, 0.0), Point(0.25, 1.0), n + 1),
    }
    params = {"eps": eps, "kf": kf, "k": 1.0, "p_bottom": 1.0, "p_top": 0.0}
    return ScenarioCase(split, np.ones(split.n_subdomains), _coeffs_for(network),
                        bcs, profiles, params)


_ELLIPSE_FULL = {"minor": 1e-4, "kf": 1e-4, "major": 1.0 + 1e-4}
_ELLIPSE_REDUCED = {"minor": 1e-2, "kf": 1e-2, "major": 1.0 + 1e-2}


def _build_ellipse2d(n: int, variant: str | None,
                     scale: dict | None = None) -> ScenarioCase:
    p = scale or _ELLIPSE_FULL
    aperture = EllipticalAperture(center=Point(0.5, 0.5),
                                  major=p["major"], minor=p["minor"])
    network = _vertical_fracture(aperture, p["kf"])
    split = split_mesh(_unit_square(n), network)
    profiles = {"y0p7": (Point(0.0, 0.7), Point(1.0, 0.7), n + 1)}
    params = {"minor": p["minor"], "major": p["major"], "kf": p["kf"],
              "k": 1.0, "inflow": 1.0, "p_right": 1.0}
    return ScenarioCase(split, np.ones(split.n_subdomains), _coeffs_for(network),
                        _THROUGHFLOW, profiles, params)


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    description: str
    default_n: int
    build: Callable[[int, str | None], ScenarioCase]
    variants: tuple[str, ...] = ()
    oracles: tuple[str, ...] = ()

    @property
    def default_oracle(self) -> str | None:
        return self.oracles[0] if self.oracles else None


SCENARIOS: dict[str, ScenarioSpec] = {s.name: s for s in (
    ScenarioSpec(
        name="onedim",
        description="1D bar with a point interface at x=0.5 (eps=kf=1e-4), "
                    "unit inflow left, p=0 right",
        default_n=64, build=_build_onedim, oracles=("analytic",)),
    ScenarioSpec(
        name="regular2d",
        description="six orthogonal fractures cutting the unit square into ten "
                    "subdomains (eps=1e-4), horizontal through-flow",
        default_n=32, build=_build_regular2d,
        variants=("conductive", "blocking")),
    ScenarioSpec(
        name="single_vertical",
        description="unit square, blocking vertical fracture "
                    "(eps=kf=1e-2), horizontal through-flow",
        default_n=64, build=_build_single_vertical,
        oracles=("equidim", "analytic")),
    ScenarioSpec(
        name="patch_eps_sweep",
        description="vertical fracture with k=kf=1 between p=1 and p=0; the "
                    "deviation from the unfractured solution 1-x must shrink "
                    "linearly with aperture (run at 1e-2, 1e-3, 1e-4)",
        default_n=32, build=_build_patch_eps_sweep, oracles=("ratios",)),
    ScenarioSpec(
        name="wentzell_tangential",
        description="flow parallel to a conductive fracture (eps=1e-2, kf=1e2); "
                    "the exact pressure 1-y must be undisturbed",
        default_n=64, build=_build_wentzell_tangential, oracles=("equidim",)),
    ScenarioSpec(
        name="ellipse2d",
        description="blocking fracture with elliptically varying aperture "
                    "(max 1e-4 at mid-height, vanishing near the ends)",
        default_n=128, build=_build_ellipse2d, oracles=("equidim",)),
)}


def scenario_names() -> tuple[str, ...]:
    return tuple(SCENARIOS)


def _check_scenario_args(name: str, variant: str | None) -> ScenarioSpec:
    if name not in SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {name!r}; available: {', '.join(SCENARIOS)}")
    spec = SCENARIOS[name]
    if variant is not None and variant not in spec.variants:
        have = ", ".join(spec.variants) if spec.variants else "none"
        raise ConfigurationError(
            f"scenario {name!r} has no variant {variant!r}; available: {have}")
    return spec


def _solve_case(case: ScenarioCase, tol: float, max_iter: int | None):
    system = assemble(case.split, case.k_per_subdomain, case.coeffs, case.bcs)
    pressure, report = solve_system(system, tol=tol, max_iter=max_iter)
    return system, pressure, report


def run_scenario(name: str, n: int | None = None, variant: str | None = None,
                 tol: float = 1e-10, max_iter: int | None = None,
                 fractures: FractureNetwork | None = None,
                 extra_profiles: dict[str, tuple[Point, Point, int]] | None = None,
                 ) -> ScenarioResult:
    """Build, solve and postprocess one scenario instance.

    ``fractures`` replaces the built-in network (regular2d only).
    ``extra_profiles`` adds named sampling segments to the scenario's own.
    """
    spec = _check_scenario_args(name, variant)
    if n is None:
        n = spec.default_n
    if n < 2:
        raise ConfigurationError(f"n must be >= 2, got {n}")
    if fractures is not None:
        if name != "regular2d":
            raise ConfigurationError(
                "the 'fractures' override is only supported by regular2d")
        case = _build_regular2d(n, variant, fractures=fractures)
    else:
        case = spec.build(n, variant)
    if extra_profiles:
        overlap = set(extra_profiles) & set(case.profiles)
        if overlap:
            raise ConfigurationError(
                f"profile names already used by the scenario: {sorted(overlap)}")
        case.profiles.update(extra_profiles)
    system, pressure, report = _solve_case(case, tol, max_iter)

    fluxes = boundary_flux(case.split, system, pressure)
    profiles = {key: sample_profile(case.split, pressure, a, b, m)
                for key, (a, b, m) in case.profiles.items()}
    n_frac = len(case.split.network.fractures)
    means = [fracture_pressure(case.split, pressure, j) for j in range(n_frac)]
    jumps = [fracture_jump(case.split, pressure, j) for j in range(n_frac)]

    extras: dict = {}
    if name == "patch_eps_sweep":
        extras["aperture_sweep"] = _run_aperture_sweep(n, tol, max_iter)

    return ScenarioResult(
        name=name, variant=variant, n=n, params=case.params,
        split=case.split, system=system, pressure=pressure, report=report,
        fluxes=fluxes, defect=mass_balance_defect(fluxes),
        profiles=profiles, fracture_means=means, fracture_jumps=jumps,
        extras=extras)


def _run_aperture_sweep(n: int, tol: float, max_iter: int | None) -> dict:
    """Sup-norm deviation from the unfractured solution 1-x per aperture.

    The fracture only perturbs the through-flow solution by O(aperture), so
    consecutive deviations must shrink by roughly the aperture ratio.
    """
    deviations = []
    for aperture in _SWEEP_APERTURES:
        case = _build_patch_eps_sweep(n, None, aperture=aperture)
        _, pressure, _ = _solve_case(case, tol, max_iter)
        exact = 1.0 - case.split.base.vertices[:, 0]
        deviations.append(float(np.max(np.abs(pressure - exact))))
    ratios = [deviations[i] / deviations[i + 1] for i in range(len(deviations) - 1)]
    return {"apertures": list(_SWEEP_APERTURES),
            "sup_deviation": deviations,
            "ratios": ratios}


# --- reference comparisons ------------------------------------------------

def _side_of_vertices(split: SplitMesh, x_line: float) -> np.ndarray:
    """True where a dof belongs to the subdomain left of the vertical line."""
    centers = split.base.vertices[split.base.cells].mean(axis=1)
    sub_x = np.zeros(split.n_subdomains)
    counts = np.zeros(split.n_subdomains)
    np.add.at(sub_x, split.subdomain_of_cell, centers[:, 0])
    np.add.at(counts, split.subdomain_of_cell, 1.0)
    left_sub = (sub_x / counts) < x_line
    return left_sub[split.subdomain_of_vertex()]


def nodal_error_vs_analytic(split: SplitMesh, pressure: np.ndarray, eps: float,
                            kf: float, k: float = 1.0, inflow: float = 1.0,
                            offset: float = 0.0) -> float:
    """Max nodal mismatch against the 1D closed-form interface profile.

    Valid for y-invariant problems with a single vertical interface at
    x=0.5: unit-length domain, inflow on the left, fixed pressure right.
    """
    exact = solve_1d_interface_analytic(1.0, 0.5, eps, k, k, kf, inflow)
    xs = split.base.vertices[:, 0]
    left = _side_of_vertices(split, 0.5)
    vals = np.empty_like(xs)
    vals[left] = exact.eval(xs[left], "left")
    vals[~left] = exact.eval(xs[~left], "right")
    return float(np.max(np.abs(pressure - (vals + offset))))


def compare_scenario(name: str, n: int | None = None, variant: str | None = None,
                     tol: float = 1e-10, oracle: str | None = None) -> dict:
    """Run a scenario against its reference; returns metrics and pass/fail."""
    spec = _check_scenario_args(name, variant)
    if not spec.oracles:
        raise ConfigurationError(
            f"scenario {name!r} has no reference to compare against")
    if oracle is None:
        oracle = spec.default_oracle
    elif oracle not in spec.oracles:
        raise ConfigurationError(
            f"scenario {name!r} supports oracles {', '.join(spec.oracles)}; "
            f"got {oracle!r}")
    if n is None:
        n = spec.default_n

    if name == "onedim":
        return _compare_onedim(n, tol)
    if name == "single_vertical" and oracle == "analytic":
        return _compare_single_vertical_analytic(n, tol)
    if name == "single_vertical":
        return _compare_single_vertical(n, tol)
    if name == "wentzell_tangential":
        return _compare_wentzell_tangential(n, tol)
    if name == "ellipse2d":
        return _compare_ellipse2d(n, tol)
    if name == "patch_eps_sweep":
        return _compare_patch_eps_sweep(n, tol)
    raise ConfigurationError(f"no comparison implemented for {name!r}")


def _result_dict(name, variant, n, oracle, metrics, thresholds, passed,
                 notes="", profiles=None):
    out = {"scenario": name, "variant": variant, "n": n, "oracle": oracle,
           "metrics": metrics, "thresholds": thresholds, "passed": bool(passed),
           "profiles": profiles or {}}
    if notes:
        out["notes"] = notes
    return out


def _compare_onedim(n: int, tol: float) -> dict:
    res = run_scenario("onedim", n=n, tol=tol)
    err = nodal_error_vs_analytic(res.split, res.pressure,
                                  res.params["eps"], res.params["kf"])
    p = res.params
    resolved = solve_1d_heterogeneous_analytic(1.0, 0.5, p["eps"], p["k"], p["k"],
                                               p["kf"], p["inflow"])
    model = solve_1d_interface_analytic(1.0, 0.5, p["eps"], p["k"], p["k"],
                                        p["kf"], p["inflow"])
    model_gap = abs(model.eval(0.0) - resolved.eval(0.0))
    metrics = {"nodal_max_error": err, "model_vs_resolved_inlet_gap": model_gap}
    thr = {"nodal_max_error": 1e-10}
    return _result_dict("onedim", None, n, "analytic", metrics, thr,
                        err <= thr["nodal_max_error"],
                        notes="inlet gap vs the resolved-inclusion profile is "
                              "the modeling error, expected ~eps")


def _compare_single_vertical_analytic(n: int, tol: float) -> dict:
    res = run_scenario("single_vertical", n=n, tol=tol)
    err = nodal_error_vs_analytic(res.split, res.pressure, res.params["eps"],
                                  res.params["kf"], offset=res.params["p_right"])
    metrics = {"nodal_max_error": err}
    thr = {"nodal_max_error": 1e-8}
    return _result_dict("single_vertical", None, n, "analytic", metrics, thr,
                        err <= thr["nodal_max_error"])


def _profile_metrics(prof_model: Profile, prof_oracle: Profile) -> dict:
    l2, mx = profile_error(prof_model, prof_oracle)
    rng = float(np.ptp(prof_oracle.values))
    return {"l2": l2, "max": mx, "oracle_range": rng,
            "l2_over_range": l2 / rng if rng > 0 else l2}


def _compare_single_vertical(n: int, tol: float) -> dict:
    res = run_scenario("single_vertical", n=n, tol=tol)
    p = res.params
    oracle = solve_equidim_2d(
        nx_outside=n, band_cells_across=2,
        domain=(Point(0.0, 0.0), Point(1.0, 1.0)), fracture_line_x=0.5,
        eps=p["eps"], k_background=p["k"], kf=p["kf"], bcs=_THROUGHFLOW, ny=n)
    a, b = Point(0.0, 0.7), Point(1.0, 0.7)
    m = _profile_metrics(sample_profile(res.split, res.pressure, a, b, n + 1),
                         sample_profile(oracle.split, oracle.pressure, a, b, n + 1))
    thr = {"l2_over_range": 0.02}
    return _result_dict("single_vertical", None, n, "equidim", m, thr,
                        m["l2_over_range"] <= thr["l2_over_range"],
                        profiles={"y0p7": {"l2": m["l2"], "max": m["max"]}})


def _compare_wentzell_tangential(n: int, tol: float) -> dict:
    res = run_scenario("wentzell_tangential", n=n, tol=tol)
    p = res.params
    bcs = BoundaryConditionSet(dirichlet={"bottom": 1.0, "top": 0.0}, neumann={})
    oracle = solve_equidim_2d(
        nx_outside=n, band_cells_across=2,
        domain=(Point(0.0, 0.0), Point(1.0, 1.0)), fracture_line_x=0.5,
        eps=p["eps"], k_background=p["k"], kf=p["kf"], bcs=bcs, ny=n)
    # Model side: pressure along the fracture itself (side mean at the
    # duplicated nodes). Oracle side: the band centerline.
    prof_model = res.fracture_means[0]
    prof_oracle = sample_profile(oracle.split, oracle.pressure,
                                 Point(0.5, 0.0), Point(0.5, 1.0), len(prof_model))
    m = _profile_metrics(prof_model, prof_oracle)
    thr = {"l2_over_range": 0.02}
    return _result_dict("wentzell_tangential", None, n, "equidim", m, thr,
                        m["l2_over_range"] <= thr["l2_over_range"],
                        profiles={"fracture_centerline": {"l2": m["l2"], "max": m["max"]}})


def _ellipse_width(minor: float, major: float) -> Callable[[float], float]:
    a = 0.5 * major
    def width(y: float) -> float:
        t = (y - 0.5) / a
        return minor * float(np.sqrt(max(0.0, 1.0 - t * t)))
    return width


def _compare_ellipse2d(n: int, tol: float) -> dict:
    """Reduced-scale comparison: the full-scale band (1e-4 wide) cannot be
    meshed next to unit cells, so both sides run at minor=kf=1e-2."""
    scale = _ELLIPSE_REDUCED
    case = _build_ellipse2d(n, None, scale=scale)
    system, pressure, report = _solve_case(case, tol, None)
    oracle = solve_equidim_2d(
        nx_outside=n, band_cells_across=16,
        domain=(Point(0.0, 0.0), Point(1.0, 1.0)), fracture_line_x=0.5,
        eps=_ellipse_width(scale["minor"], scale["major"]),
        k_background=1.0, kf=scale["kf"], bcs=_THROUGHFLOW, ny=n)
    a, b = Point(0.0, 0.7), Point(1.0, 0.7)
    m = _profile_metrics(sample_profile(case.split, pressure, a, b, n + 1),
                         sample_profile(oracle.split, oracle.pressure, a, b, n + 1))
    m["scale"] = dict(scale)
    thr = {"l2_over_range": 0.02}
    return _result_dict("ellipse2d", None, n, "equidim", m, thr,
                        m["l2_over_range"] <= thr["l2_over_range"],
                        notes="run at reduced scale minor=kf=1e-2 so the band "
                              "is meshable; the scenario default is 1e-4",
                        profiles={"y0p7": {"l2": m["l2"], "max": m["max"]}})


def _compare_patch_eps_sweep(n: int, tol: float) -> dict:
    sweep = _run_aperture_sweep(n, tol, None)
    ratios = sweep["ratios"]
    rel_dev = [abs(r / 10.0 - 1.0) for r in ratios]
    metrics = {**sweep, "ratio_rel_deviation": rel_dev}
    thr = {"ratio_rel_deviation": 0.2}
    return _result_dict("patch_eps_sweep", None, n, "ratios", metrics, thr,
                        max(rel_dev) <= thr["ratio_rel_deviation"])
