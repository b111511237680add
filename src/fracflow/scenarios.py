"""Built-in verification scenarios and their reference comparisons.

Every scenario is a self-contained flow problem on the unit domain with a
fixed parameter set, so runs are reproducible without configuration. The
``compare_scenario`` function reruns a scenario next to an independent
reference (closed-form profile, resolved-band solve, or a scaling law) and
reports the mismatch with a pass threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
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


@dataclass(eq=False)
class ScenarioCase:
    """One scenario instance; it is solved with unit mobility in every cell
    and each fracture's own coefficients (``fracture_coefficient_map``)."""

    split: SplitMesh
    bcs: BoundaryConditionSet
    profiles: dict[str, tuple[Point, Point, int]]
    params: dict


@dataclass(eq=False)
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


# Named sampling segments of the unit-square scenarios.
_SEGMENTS = {
    "y0p7": (Point(0.0, 0.7), Point(1.0, 0.7)),
    "x0p5": (Point(0.5, 0.0), Point(0.5, 1.0)),
    "x0p25": (Point(0.25, 0.0), Point(0.25, 1.0)),
}


def _square_case(n: int, network: FractureNetwork, bcs: BoundaryConditionSet,
                 profiles: tuple[str, ...], params: dict) -> ScenarioCase:
    """The unit square of n x n cells, sampled along the named segments."""
    return ScenarioCase(split_mesh(_unit_square(n), network), bcs,
                        {key: (*_SEGMENTS[key], n + 1) for key in profiles}, params)


def _vertical_case(n: int, aperture, kf: float, bcs: BoundaryConditionSet,
                   profiles: tuple[str, ...], params: dict) -> ScenarioCase:
    """The unit square cut by one fracture along x = 0.5."""
    fracture = FractureSpec(path=(Point(0.5, 0.0), Point(0.5, 1.0)),
                            aperture=aperture, mobility=kf)
    return _square_case(n, FractureNetwork((fracture,)), bcs, profiles, params)


_THROUGHFLOW = BoundaryConditionSet(dirichlet={"right": 1.0}, neumann={"left": 1.0})


def _build_onedim(n: int, variant: str | None) -> ScenarioCase:
    eps, kf = 1e-4, 1e-4
    network = FractureNetwork((FractureSpec(path=(Point(0.5),),
                                            aperture=ConstantAperture(eps),
                                            mobility=kf),))
    bcs = BoundaryConditionSet(dirichlet={"right": 0.0}, neumann={"left": 1.0})
    return ScenarioCase(split_mesh(build_interval(n, 1.0), network), bcs,
                        {"centerline": (Point(0.0), Point(1.0), n + 1)},
                        {"eps": eps, "kf": kf, "k": 1.0, "position": 0.5, "inflow": 1.0})


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


def _build_regular2d(n: int, variant: str | None,
                     fractures: FractureNetwork | None = None) -> ScenarioCase:
    variant = variant or "conductive"
    eps, kf = 1e-4, _REGULAR2D_KF[variant]
    network = fractures if fractures is not None else FractureNetwork(tuple(
        FractureSpec(path=(Point(*a), Point(*b)), aperture=ConstantAperture(eps),
                     mobility=kf)
        for a, b in _REGULAR2D_SEGMENTS))
    params = {"eps": eps, "kf": kf, "k": 1.0, "inflow": 1.0, "p_right": 1.0,
              "fractures": [{"path": [list(p.coords) for p in f.path],
                             "aperture": f.aperture.max_value,
                             "mobility": f.mobility}
                            for f in network.fractures],
              "fracture_source": "external-benchmark" if fractures is None
                                 else "config-override"}
    if fractures is not None:   # each fracture lists its own aperture and mobility
        del params["eps"], params["kf"]
    return _square_case(n, network, _THROUGHFLOW, ("y0p7", "x0p5"), params)


def _build_single_vertical(n: int, variant: str | None) -> ScenarioCase:
    eps, kf = 1e-2, 1e-2
    return _vertical_case(n, ConstantAperture(eps), kf, _THROUGHFLOW, ("y0p7",),
                          {"eps": eps, "kf": kf, "k": 1.0, "inflow": 1.0, "p_right": 1.0})


_SWEEP_APERTURES = (1e-2, 1e-3, 1e-4)
_SWEEP_BCS = BoundaryConditionSet(dirichlet={"left": 1.0, "right": 0.0}, neumann={})


def _build_patch_eps_sweep(n: int, variant: str | None,
                           aperture: float = _SWEEP_APERTURES[0]) -> ScenarioCase:
    kf = 1.0
    return _vertical_case(n, ConstantAperture(aperture), kf, _SWEEP_BCS, ("y0p7",),
                          {"eps": aperture, "kf": kf, "k": 1.0, "p_left": 1.0,
                           "p_right": 0.0, "aperture_sweep": list(_SWEEP_APERTURES)})


_TANGENTIAL_BCS = BoundaryConditionSet(dirichlet={"bottom": 1.0, "top": 0.0}, neumann={})


def _build_wentzell_tangential(n: int, variant: str | None) -> ScenarioCase:
    eps, kf = 1e-2, 1e2
    return _vertical_case(n, ConstantAperture(eps), kf, _TANGENTIAL_BCS, ("x0p5", "x0p25"),
                          {"eps": eps, "kf": kf, "k": 1.0, "p_bottom": 1.0, "p_top": 0.0})


_ELLIPSE_FULL = {"minor": 1e-4, "kf": 1e-4, "major": 1.0 + 1e-4}
_ELLIPSE_REDUCED = {"minor": 1e-2, "kf": 1e-2, "major": 1.0 + 1e-2}


def _build_ellipse2d(n: int, variant: str | None,
                     scale: dict = _ELLIPSE_FULL) -> ScenarioCase:
    aperture = EllipticalAperture(center=0.5, major=scale["major"], minor=scale["minor"])
    return _vertical_case(n, aperture, scale["kf"], _THROUGHFLOW, ("y0p7",),
                          {"minor": scale["minor"], "major": scale["major"],
                           "kf": scale["kf"], "k": 1.0, "inflow": 1.0, "p_right": 1.0})


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    description: str
    default_n: int
    build: Callable[[int, str | None], ScenarioCase]
    variants: tuple[str, ...] = ()
    # Reference comparisons by name, the default first; each takes (n, tol)
    # and returns (metrics, thresholds, extra), see ``compare_scenario``.
    oracles: dict[str, Callable[[int, float], tuple]] = field(default_factory=dict)


def scenario_names() -> tuple[str, ...]:
    return tuple(SCENARIOS)


def _check_scenario_args(name: str, variant: str | None,
                         n: int | None) -> tuple[ScenarioSpec, int]:
    """The scenario's spec and n, its default when None; both must be valid."""
    if name not in SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {name!r}; available: {', '.join(SCENARIOS)}")
    spec = SCENARIOS[name]
    if variant is not None and variant not in spec.variants:
        have = ", ".join(spec.variants) if spec.variants else "none"
        raise ConfigurationError(
            f"scenario {name!r} has no variant {variant!r}; available: {have}")
    if n is None:
        n = spec.default_n
    if n < 2:
        raise ConfigurationError(f"n must be >= 2, got {n}")
    return spec, n


def _solve_case(case: ScenarioCase, tol: float):
    coeffs = [fracture_coefficient_map(f) for f in case.split.network.fractures]
    system = assemble(case.split, 1.0, coeffs, case.bcs)
    pressure, report = solve_system(system, tol=tol)
    return system, pressure, report


def run_scenario(name: str, n: int | None = None, variant: str | None = None,
                 tol: float = 1e-10, fractures: FractureNetwork | None = None,
                 extra_profiles: dict[str, tuple[Point, Point, int]] | None = None,
                 ) -> ScenarioResult:
    """Build, solve and postprocess one scenario instance.

    ``fractures`` replaces the built-in network (regular2d only).
    ``extra_profiles`` adds named sampling segments to the scenario's own;
    each is sampled on a zero field before the solve, so one that leaves
    the mesh fails first.
    """
    spec, n = _check_scenario_args(name, variant, n)
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
        for a, b, m in extra_profiles.values():
            sample_profile(case.split, np.zeros(case.split.n_dofs), a, b, m)
        case.profiles.update(extra_profiles)
    system, pressure, report = _solve_case(case, tol)

    fluxes = boundary_flux(case.split, system, pressure)
    profiles = {key: sample_profile(case.split, pressure, a, b, m)
                for key, (a, b, m) in case.profiles.items()}
    n_frac = len(case.split.network.fractures)
    means = [fracture_pressure(case.split, pressure, j) for j in range(n_frac)]
    jumps = [fracture_jump(case.split, pressure, j) for j in range(n_frac)]

    extras: dict = {}
    if name == "patch_eps_sweep":
        extras["aperture_sweep"] = _run_aperture_sweep(n, tol, first=(case, pressure))

    return ScenarioResult(
        name=name, variant=variant, n=n, params=case.params,
        split=case.split, system=system, pressure=pressure, report=report,
        fluxes=fluxes, defect=mass_balance_defect(fluxes),
        profiles=profiles, fracture_means=means, fracture_jumps=jumps,
        extras=extras)


def _run_aperture_sweep(n: int, tol: float,
                        first: tuple[ScenarioCase, np.ndarray] | None = None) -> dict:
    """Sup-norm deviation from the unfractured solution 1-x per aperture.

    The fracture only perturbs the through-flow solution by O(aperture), so
    consecutive deviations must shrink by roughly the aperture ratio.
    ``first`` is the (case, pressure) of the first aperture when the caller
    has solved it already.
    """
    def deviation(case: ScenarioCase, pressure: np.ndarray) -> float:
        return float(np.max(np.abs(pressure - (1.0 - case.split.base.vertices[:, 0]))))

    deviations = [] if first is None else [deviation(*first)]
    for aperture in _SWEEP_APERTURES[len(deviations):]:
        case = _build_patch_eps_sweep(n, None, aperture=aperture)
        deviations.append(deviation(case, _solve_case(case, tol)[1]))
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
                            kf: float, offset: float = 0.0) -> float:
    """Max nodal mismatch against the 1D closed-form interface profile.

    Valid for y-invariant problems with a single vertical interface at
    x=0.5: unit-length domain and mobility, unit inflow on the left, fixed
    pressure ``offset`` on the right.
    """
    exact = solve_1d_interface_analytic(1.0, 0.5, eps, 1.0, 1.0, kf, 1.0)
    xs = split.base.vertices[:, 0]
    left = _side_of_vertices(split, 0.5)
    vals = np.empty_like(xs)
    vals[left] = exact.eval(xs[left], "left")
    vals[~left] = exact.eval(xs[~left], "right")
    return float(np.max(np.abs(pressure - (vals + offset))))


def compare_scenario(name: str, n: int | None = None, variant: str | None = None,
                     tol: float = 1e-10, oracle: str | None = None) -> dict:
    """Run a scenario against its reference; returns metrics and pass/fail.

    The oracle returns its ``metrics``, the ``thresholds`` of the gated
    ones and ``extra`` fields (``notes``, ``profiles``) for the record. The
    comparison passes when every value of every gated metric is within its
    threshold in absolute value; a NaN fails.
    """
    spec, n = _check_scenario_args(name, variant, n)
    if not spec.oracles:
        raise ConfigurationError(
            f"scenario {name!r} has no reference to compare against")
    if oracle is None:
        oracle = next(iter(spec.oracles))
    elif oracle not in spec.oracles:
        raise ConfigurationError(
            f"scenario {name!r} supports oracles {', '.join(spec.oracles)}; "
            f"got {oracle!r}")
    metrics, thresholds, extra = spec.oracles[oracle](n, tol)
    passed = all(np.max(np.abs(metrics[k])) <= t for k, t in thresholds.items())
    return {"scenario": name, "variant": variant, "n": n, "oracle": oracle,
            "metrics": metrics, "thresholds": thresholds, "profiles": {},
            **extra, "passed": bool(passed)}


def _compare_onedim(n: int, tol: float) -> tuple[dict, dict, dict]:
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
    return metrics, {"nodal_max_error": 1e-10}, {
        "notes": "inlet gap vs the resolved-inclusion profile is the modeling "
                 "error, expected ~eps"}


def _compare_single_vertical_analytic(n: int, tol: float) -> tuple[dict, dict, dict]:
    res = run_scenario("single_vertical", n=n, tol=tol)
    err = nodal_error_vs_analytic(res.split, res.pressure, res.params["eps"],
                                  res.params["kf"], offset=res.params["p_right"])
    return {"nodal_max_error": err}, {"nodal_max_error": 1e-8}, {}


def _compare_band(name: str, profile: str, band_cells: int, n: int, tol: float,
                  scale: dict | None = None, **extra) -> tuple[dict, dict, dict]:
    """A vertical-fracture scenario against the same problem with the
    fracture meshed as a band of ``band_cells`` columns whose width follows
    the aperture (``solve_equidim_2d``).

    ``profile`` names a sampling segment compared on both solutions, or is
    ``fracture_centerline``: the model's fracture pressure (side mean at the
    duplicated nodes) against the band's centerline. ``scale`` builds the
    scenario at other parameters and is reported with the metrics; ``extra``
    goes into the record as it is.
    """
    build = SCENARIOS[name].build
    case = build(n, None) if scale is None else build(n, None, scale=scale)
    _, pressure, _ = _solve_case(case, tol)
    oracle = solve_equidim_2d(n, band_cells, case.split.network.fractures[0], case.bcs)
    if profile == "fracture_centerline":
        segment = _SEGMENTS["x0p5"]
        model = fracture_pressure(case.split, pressure, 0)
    else:
        segment = _SEGMENTS[profile]
        model = sample_profile(case.split, pressure, *segment, n + 1)
    reference = sample_profile(oracle.split, oracle.pressure, *segment, len(model))
    l2, mx = profile_error(model, reference)
    rng = float(np.ptp(reference.values))
    m = {"l2": l2, "max": mx, "oracle_range": rng,
         "l2_over_range": l2 / rng if rng > 0 else l2}
    if scale is not None:
        m["scale"] = dict(scale)
    return m, {"l2_over_range": 0.02}, {"profiles": {profile: {"l2": l2, "max": mx}},
                                        **extra}


def _compare_patch_eps_sweep(n: int, tol: float) -> tuple[dict, dict, dict]:
    sweep = _run_aperture_sweep(n, tol)
    rel_dev = [abs(r / 10.0 - 1.0) for r in sweep["ratios"]]
    return {**sweep, "ratio_rel_deviation": rel_dev}, {"ratio_rel_deviation": 0.2}, {}


# --- the scenario table ---------------------------------------------------

SCENARIOS: dict[str, ScenarioSpec] = {s.name: s for s in (
    ScenarioSpec(
        name="onedim",
        description="1D bar with a point interface at x=0.5 (eps=kf=1e-4), "
                    "unit inflow left, p=0 right",
        default_n=64, build=_build_onedim,
        oracles={"analytic": _compare_onedim}),
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
        oracles={"equidim": partial(_compare_band, "single_vertical", "y0p7", 2),
                 "analytic": _compare_single_vertical_analytic}),
    ScenarioSpec(
        name="patch_eps_sweep",
        description="vertical fracture with k=kf=1 between p=1 and p=0; the "
                    "deviation from the unfractured solution 1-x must shrink "
                    "linearly with aperture (run at 1e-2, 1e-3, 1e-4)",
        default_n=32, build=_build_patch_eps_sweep,
        oracles={"ratios": _compare_patch_eps_sweep}),
    ScenarioSpec(
        name="wentzell_tangential",
        description="flow parallel to a conductive fracture (eps=1e-2, kf=1e2); "
                    "the exact pressure 1-y must be undisturbed",
        default_n=64, build=_build_wentzell_tangential,
        oracles={"equidim": partial(_compare_band, "wentzell_tangential",
                                    "fracture_centerline", 2)}),
    ScenarioSpec(
        name="ellipse2d",
        description="blocking fracture with elliptically varying aperture "
                    "(max 1e-4 at mid-height, vanishing near the ends)",
        default_n=128, build=_build_ellipse2d,
        # The full-scale band (1e-4 wide) cannot be meshed next to unit
        # cells, so both sides of the comparison run at minor=kf=1e-2.
        oracles={"equidim": partial(
            _compare_band, "ellipse2d", "y0p7", 16, scale=_ELLIPSE_REDUCED,
            notes="run at reduced scale minor=kf=1e-2 so the band "
                  "is meshable; the scenario default is 1e-4")}),
)}
