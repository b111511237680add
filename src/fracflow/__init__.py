"""Darcy flow with fractures as interface conditions on duplicated mesh lines.

The flow problem is a heterogeneous diffusion equation; each fracture is
collapsed to a mesh-conforming interface carrying a second-order tangential
diffusion term on the side-averaged pressure and a Robin penalty on the
pressure jump, so no fracture cells are ever meshed.
"""

from .assembly import (
    BoundaryConditionSet,
    InterfaceCoefficients,
    LinearSystem,
    assemble,
    fracture_coefficient_map,
)
from .errors import (
    ConfigurationError,
    ConformityError,
    FracflowError,
    GeometryError,
    NonConvergenceError,
    SolverError,
    UnsupportedTopologyError,
)
from .geometry import (
    ConstantAperture,
    EllipticalAperture,
    FractureNetwork,
    FractureSpec,
    InterfaceEntities,
    Mesh,
    Point,
    SplitMesh,
    build_interval,
    build_structured_quad,
    check_conformity,
    split_mesh,
)
from .postprocess import (
    Profile,
    boundary_flux,
    fracture_jump,
    fracture_pressure,
    mass_balance_defect,
    profile_error,
    sample_profile,
    write_fracture_csv,
    write_profile_csv,
    write_solution_csv,
)
from .reference import (
    EquidimResult,
    PiecewiseLinear1D,
    solve_1d_heterogeneous_analytic,
    solve_1d_interface_analytic,
    solve_equidim_2d,
)
from .scenarios import (
    SCENARIOS,
    compare_scenario,
    nodal_error_vs_analytic,
    run_scenario,
    scenario_names,
)
from .solver import SolveReport, cg_solve, cholesky_solve, solve, solve_system

__version__ = "0.1.0"
