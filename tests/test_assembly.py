"""System assembly: coefficient mapping, interface terms, boundary data."""

import numpy as np
import pytest
import scipy.sparse as sp

from fracflow import (BoundaryConditionSet, ConfigurationError,
                      ConstantAperture, FractureNetwork, FractureSpec,
                      InterfaceCoefficients, Point, assemble, build_interval,
                      default_eps_floor, fracture_coefficient_map,
                      fracture_to_coeffs, sample_profile, solve_system,
                      split_mesh)
from conftest import THROUGHFLOW, coeffs_for, unit_square, vertical_network


# --- coefficient mapping ----------------------------------------------------

def test_fracture_to_coeffs_scalar():
    c = fracture_to_coeffs(2.0, 1e-3, eps_floor=1e-15)
    assert c.kappa_j == pytest.approx(2.0 * 1e-3)
    assert c.r_a == pytest.approx(2.0 / 1e-3)
    assert c.r_j == 0.0 and c.kappa_a == 0.0 and c.h_j == 0.0 and c.h_a == 0.0


def test_fracture_to_coeffs_nodal_pair_and_floor():
    c = fracture_to_coeffs(3.0, (1e-2, 0.0), eps_floor=1e-6)
    assert c.kappa_j == pytest.approx((3.0 * 1e-2, 3.0 * 1e-6))
    assert c.r_a == pytest.approx((3.0 / 1e-2, 3.0 / 1e-6))


def test_fracture_to_coeffs_validation():
    with pytest.raises(ConfigurationError):
        fracture_to_coeffs(-1.0, 1e-3, eps_floor=1e-15)
    with pytest.raises(ConfigurationError):
        fracture_to_coeffs(1.0, -1e-3, eps_floor=1e-15)
    with pytest.raises(ConfigurationError):
        fracture_to_coeffs(1.0, 1e-3, eps_floor=0.0)


def test_default_eps_floor_scales_with_aperture():
    assert default_eps_floor(1e-2) == pytest.approx(1e-14)
    assert default_eps_floor(0.0) == pytest.approx(1e-12)


def test_interface_coefficients_validation():
    with pytest.raises(ConfigurationError):
        InterfaceCoefficients(kappa_j=-1.0)
    with pytest.raises(ConfigurationError):
        InterfaceCoefficients(r_a=(1.0, -2.0))
    with pytest.raises(ConfigurationError):
        InterfaceCoefficients(h_j=np.inf)
    with pytest.raises(ConfigurationError, match="r_j must be >= 0, got nan"):
        InterfaceCoefficients(r_j=np.array([[1.0, 2.0], [np.nan, 0.0]]))
    InterfaceCoefficients(h_a=-3.0)   # loads may be negative


def test_coefficient_map_applies_floor_for_vanishing_aperture():
    from fracflow import EllipticalAperture
    ap = EllipticalAperture(center=Point(0.5, 0.5), major=1.0, minor=1e-2)
    network = FractureNetwork((FractureSpec(
        path=(Point(0.5, 0.0), Point(0.5, 1.0)), aperture=ap, mobility=1.0),))
    split = split_mesh(unit_square(8), network)
    cmap = fracture_coefficient_map(1.0, ap.max_value)
    apertures = split.edges_of_fracture(0).apertures
    assert apertures.shape == (8, 2) and apertures.min() == 0.0   # the tips pinch
    c = cmap(apertures)
    assert c.r_a.shape == c.kappa_j.shape == (8, 2)
    assert np.all(np.isfinite(c.r_a)) and np.all(c.r_a > 0.0)     # floored, never infinite
    assert np.all(c.kappa_j >= 1.0 * default_eps_floor(ap.max_value))


def t_network():
    horizontal = FractureSpec(path=(Point(0.0, 0.5), Point(1.0, 0.5)),
                              aperture=ConstantAperture(1e-2), mobility=1.0)
    vertical = FractureSpec(path=(Point(0.5, 0.5), Point(0.5, 1.0)),
                            aperture=ConstantAperture(1e-3), mobility=1e2)
    return FractureNetwork((horizontal, vertical))


def test_coefficient_callable_runs_once_per_fracture():
    split = split_mesh(unit_square(8), t_network())
    calls = []

    def counting(cmap):
        def source(apertures):
            calls.append(apertures.copy())
            return cmap(apertures)
        return source

    maps = coeffs_for(split.network)
    system = assemble(split, np.ones(split.n_subdomains), [counting(c) for c in maps], THROUGHFLOW)
    assert [a.shape for a in calls] == [(8, 2), (4, 2)]
    assert np.array_equal(calls[0], np.full((8, 2), 1e-2))
    assert np.array_equal(calls[1], np.full((4, 2), 1e-3))
    # array-valued constants give the same system as the callables
    constants = [c(split.edges_of_fracture(j).apertures) for j, c in enumerate(maps)]
    again = assemble(split, np.ones(split.n_subdomains), constants, THROUGHFLOW)
    assert (again.matrix_raw != system.matrix_raw).nnz == 0
    assert np.array_equal(again.rhs, system.rhs)


def test_coefficient_callable_on_1d_points_gets_one_node():
    network = FractureNetwork(tuple(
        FractureSpec(path=(Point(x),), aperture=ConstantAperture(1e-3), mobility=1.0)
        for x in (0.25, 0.75)))
    split = split_mesh(build_interval(8, 1.0), network)
    calls = []

    def source(apertures):
        calls.append(apertures.shape)
        return InterfaceCoefficients(r_a=(1.0,))

    assemble(split, np.ones(3), [source, source], THROUGHFLOW)
    assert calls == [(1, 1), (1, 1)]


def test_coefficient_source_must_yield_interface_coefficients():
    split = split_mesh(unit_square(4), vertical_network(1e-2, 1.0))
    with pytest.raises(ConfigurationError, match="fracture 0 must yield InterfaceCoefficients"):
        assemble(split, np.ones(2), [lambda apertures: {"r_a": 1.0}], THROUGHFLOW)
    with pytest.raises(ConfigurationError, match="fracture 0 must yield InterfaceCoefficients"):
        assemble(split, np.ones(2), [1.0], THROUGHFLOW)
    # fields must broadcast to the fracture's (4, 2) nodes
    with pytest.raises(ConfigurationError, match="kappa_j of fracture 0"):
        assemble(split, np.ones(2), [InterfaceCoefficients(kappa_j=(1.0, 2.0, 3.0))],
                 THROUGHFLOW)


# --- boundary condition sets ------------------------------------------------

def test_bc_set_validation():
    with pytest.raises(ConfigurationError):
        BoundaryConditionSet(dirichlet={"left": 1.0}, neumann={"left": 1.0})
    with pytest.raises(ConfigurationError):
        BoundaryConditionSet(dirichlet={}, neumann={"left": 1.0})


def test_assemble_rejects_unknown_tag():
    split = split_mesh(unit_square(4), FractureNetwork(()))
    bcs = BoundaryConditionSet(dirichlet={"north": 0.0}, neumann={})
    with pytest.raises(ConfigurationError, match="north"):
        assemble(split, np.ones(1), [], bcs)


# --- assembled system invariants ---------------------------------------------

def _vertical_case(n=8, eps=1e-2, kf=1e-2):
    split = split_mesh(unit_square(n), vertical_network(eps, kf))
    system = assemble(split, np.ones(split.n_subdomains),
                      coeffs_for(split.network), THROUGHFLOW)
    return split, system


def test_raw_matrix_annihilates_constants():
    split, system = _vertical_case()
    ones = np.ones(system.n_dofs)
    scale = np.max(np.abs(system.matrix_raw.data))
    assert np.max(np.abs(system.matrix_raw @ ones)) <= 1e-12 * scale


def test_raw_matrix_exactly_symmetric():
    split, system = _vertical_case(kf=1e4, eps=1e-4)
    diff = system.matrix_raw - system.matrix_raw.T
    assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0
    diff_elim = system.matrix - system.matrix.T
    assert diff_elim.nnz == 0 or np.max(np.abs(diff_elim.data)) == 0.0


def test_dirichlet_elimination_reproduces_linear_field():
    split = split_mesh(unit_square(6), FractureNetwork(()))
    bcs = BoundaryConditionSet(dirichlet={"left": 1.0, "right": 0.0}, neumann={})
    system = assemble(split, np.ones(1), [], bcs)
    x, _ = solve_system(system)
    assert np.allclose(x, 1.0 - split.base.vertices[:, 0], atol=1e-12)
    # eliminated rows are identities carrying the boundary value
    for d, g in system.dirichlet_dofs.items():
        row = system.matrix.getrow(d).toarray().ravel()
        assert row[d] != 0.0
        assert np.count_nonzero(np.delete(row, d)) == 0
        assert system.rhs[d] == pytest.approx(row[d] * g)


def test_callable_dirichlet_values():
    split = split_mesh(unit_square(4), FractureNetwork(()))
    bcs = BoundaryConditionSet(dirichlet={"left": lambda p: p.coords[1] ** 2},
                               neumann={})
    system = assemble(split, np.ones(1), [], bcs)
    for d, g in system.dirichlet_dofs.items():
        y = split.base.vertices[d, 1]
        assert g == pytest.approx(y ** 2)


def test_dirichlet_reaches_both_interface_copies():
    # the fracture endpoints touch bottom/top; with Dirichlet there, both
    # duplicated copies must be constrained
    split = split_mesh(unit_square(8), vertical_network(1e-2, 1.0))
    bcs = BoundaryConditionSet(dirichlet={"bottom": 1.0, "top": 0.0}, neumann={})
    system = assemble(split, np.ones(2), coeffs_for(split.network), bcs)
    for y_val, g in ((0.0, 1.0), (1.0, 0.0)):
        idx = np.nonzero((np.abs(split.base.vertices[:, 0] - 0.5) < 1e-12)
                         & (np.abs(split.base.vertices[:, 1] - y_val) < 1e-12))[0]
        assert len(idx) == 2              # two copies of the junction vertex
        for d in idx:
            assert d in system.dirichlet_dofs
            assert system.dirichlet_dofs[d] == pytest.approx(g)


def test_assemble_validates_input_lengths():
    split = split_mesh(unit_square(4), vertical_network(1e-2, 1.0))
    with pytest.raises(ConfigurationError):
        assemble(split, np.ones(5), coeffs_for(split.network), THROUGHFLOW)
    with pytest.raises(ConfigurationError):
        assemble(split, np.ones(2), [], THROUGHFLOW)   # one coeff set per fracture


def test_zero_interface_coefficients_decouple_sides():
    split = split_mesh(unit_square(8), vertical_network(1e-2, 1.0))
    system = assemble(split, np.ones(2), [InterfaceCoefficients()], THROUGHFLOW)
    side = (split.subdomain_of_vertex() == 0).astype(float)
    scale = np.max(np.abs(system.matrix_raw.data))
    # with no interface terms each side's constant is in the null space
    assert np.max(np.abs(system.matrix_raw @ side)) <= 1e-12 * scale


def test_large_penalty_restores_continuity():
    n = 8
    network = vertical_network(1e-2, 1.0)
    split = split_mesh(unit_square(n), network)
    system = assemble(split, np.ones(2), [InterfaceCoefficients(r_a=1e10)],
                      THROUGHFLOW)
    x, _ = solve_system(system)
    split0 = split_mesh(unit_square(n), FractureNetwork(()))
    system0 = assemble(split0, np.ones(1), [], THROUGHFLOW)
    x0, _ = solve_system(system0)
    assert np.max(np.abs(x - x0[split.vertex_origin])) < 1e-6


def test_orientation_invariance():
    n = 8
    down_spec = FractureSpec(path=(Point(0.5, 1.0), Point(0.5, 0.0)),
                             aperture=ConstantAperture(1e-2), mobility=1e-2)
    results = []
    for network in (vertical_network(1e-2, 1e-2),
                    FractureNetwork((down_spec,))):
        split = split_mesh(unit_square(n), network)
        system = assemble(split, np.ones(2), coeffs_for(network), THROUGHFLOW)
        x, _ = solve_system(system)
        prof = sample_profile(split, x, Point(0.0, 0.7), Point(1.0, 0.7), n + 1)
        results.append(prof.values)
    assert np.allclose(results[0], results[1], atol=1e-12)


def test_interface_load_enters_rhs_body():
    split = split_mesh(unit_square(8), vertical_network(1e-2, 1.0))
    c = 3.0
    system = assemble(split, np.ones(2),
                      [InterfaceCoefficients(r_a=1.0, h_j=c)], THROUGHFLOW)
    # the side-mean load of a unit-span fracture integrates to c * length
    assert float(np.sum(system.rhs_body)) == pytest.approx(c * 1.0)


def test_residual_raw_is_rhs_body_minus_matrix_raw():
    """The pair-form apply and matrix_raw come from the same pair operators;
    every one of the six coefficients takes part."""
    split = split_mesh(unit_square(8), vertical_network(1e-2, 1.0))
    c = InterfaceCoefficients(kappa_j=(1.0, 2.0), r_j=0.5, h_j=1.0,
                              kappa_a=0.3, r_a=(4.0, 5.0), h_a=-2.0)
    system = assemble(split, np.ones(2), [c], THROUGHFLOW)
    x = np.sin(np.arange(system.n_dofs))
    assert np.allclose(system.residual_raw(x),
                       system.rhs_body - system.matrix_raw @ x, rtol=0.0, atol=1e-12)


def test_k_per_cell_matches_uniform_subdomain_k():
    split = split_mesh(unit_square(6), vertical_network(1e-2, 1e-2))
    sys_a = assemble(split, 2.5 * np.ones(2), coeffs_for(split.network),
                     THROUGHFLOW)
    k_cell = 2.5 * np.ones(split.base.n_cells)
    sys_b = assemble(split, None, coeffs_for(split.network), THROUGHFLOW,
                     k_per_cell=k_cell)
    assert (sys_a.matrix_raw - sys_b.matrix_raw).nnz == 0
    assert np.array_equal(sys_a.rhs, sys_b.rhs)


def test_onedim_point_interface_assembles_and_solves():
    from fracflow import build_interval
    mesh = build_interval(16, 1.0)
    eps = kf = 1e-2
    network = FractureNetwork((FractureSpec(
        path=(Point(0.5),), aperture=ConstantAperture(eps), mobility=kf),))
    split = split_mesh(mesh, network)
    bcs = BoundaryConditionSet(dirichlet={"right": 0.0}, neumann={"left": 1.0})
    system = assemble(split, np.ones(2), coeffs_for(network), bcs)
    x, _ = solve_system(system)
    # exact piecewise-linear solution: p(0) = 2, jump -1 at the interface
    left_end = np.nonzero(split.base.vertices[:, 0] == 0.0)[0]
    assert x[left_end] == pytest.approx(2.0, abs=1e-10)
