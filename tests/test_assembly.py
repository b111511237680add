"""System assembly: coefficient mapping, interface terms, boundary data."""

import warnings
from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sp

from fracflow import (BoundaryConditionSet, ConfigurationError,
                      ConstantAperture, FractureNetwork, FractureSpec,
                      InterfaceCoefficients, Point, assemble,
                      EllipticalAperture, build_interval, build_structured_quad,
                      fracture_coefficient_map, sample_profile, solve_system,
                      split_mesh)
from fracflow.assembly import _domain_matrix, _pair_maps
from fracflow.elements import facet_load
from fracflow.scenarios import SCENARIOS
from conftest import (PATH_CASES, THROUGHFLOW, coeffs_for, copies_of, pair_operator_sum,
                      q1_stiffness_batch, unit_square, vertical_network)


# --- coefficient mapping ----------------------------------------------------

def vertical_spec(aperture, mobility):
    return FractureSpec(path=(Point(0.5, 0.0), Point(0.5, 1.0)), aperture=aperture,
                        mobility=mobility)


def test_fracture_coefficient_map_scalar():
    c = fracture_coefficient_map(vertical_spec(ConstantAperture(1e-3), 2.0))(1e-3)
    assert c.kappa_j == pytest.approx(2.0 * 1e-3)
    assert c.r_a == pytest.approx(2.0 / 1e-3)
    assert c.h_j == 0.0 and c.h_a == 0.0


def test_fracture_coefficient_map_nodal_pair_and_floor():
    # the floor is 1e-12 times the fracture's largest aperture, 1e-2 here
    cmap = fracture_coefficient_map(vertical_spec(ConstantAperture(1e-2), 3.0))
    c = cmap((1e-2, 0.0))
    assert c.kappa_j == pytest.approx((3.0 * 1e-2, 3.0 * 1e-14))
    assert c.r_a == pytest.approx((3.0 / 1e-2, 3.0 / 1e-14))
    # an aperture above the floor is kept as it is, one below it is raised
    c = cmap(np.array([[2e-14, 5e-15]]))
    assert np.array_equal(c.r_a, [[3.0 / 2e-14, 3.0 / 1e-14]])


def test_fracture_coefficient_map_floor_scales_with_aperture():
    # a closed aperture takes the floor, 1e-12 times the largest aperture
    for aperture, largest in ((ConstantAperture(1e-2), 1e-2), (ConstantAperture(1.0), 1.0),
                              (EllipticalAperture(0.5, 1.0, 1e-4), 1e-4)):
        c = fracture_coefficient_map(vertical_spec(aperture, 1.0))(0.0)
        assert c.kappa_j == 1e-12 * largest and c.r_a == 1.0 / (1e-12 * largest)


def test_fracture_coefficient_map_validation():
    cmap = fracture_coefficient_map(vertical_spec(ConstantAperture(1e-3), 1.0))
    with pytest.raises(ConfigurationError, match="apertures must be >= 0"):
        cmap(-1e-3)
    # an aperture so small that 1e-12 of it underflows leaves no floor
    with pytest.raises(ConfigurationError, match="floor must be positive"):
        fracture_coefficient_map(vertical_spec(ConstantAperture(1e-320), 1.0))


def test_interface_coefficients_validation():
    assert [f.name for f in fields(InterfaceCoefficients)] == ["kappa_j", "h_j", "r_a", "h_a"]
    with pytest.raises(ConfigurationError):
        InterfaceCoefficients(kappa_j=-1.0)
    with pytest.raises(ConfigurationError):
        InterfaceCoefficients(r_a=(1.0, -2.0))
    with pytest.raises(ConfigurationError):
        InterfaceCoefficients(h_j=np.inf)
    with pytest.raises(ConfigurationError, match="r_a must be >= 0, got nan"):
        InterfaceCoefficients(r_a=np.array([[1.0, 2.0], [np.nan, 0.0]]))
    with pytest.raises(ConfigurationError, match="load h_a must be finite"):
        InterfaceCoefficients(h_a=(0.0, -np.inf))
    InterfaceCoefficients(h_j=-1.0, h_a=-3.0)   # loads may be negative


def test_coefficient_map_applies_floor_for_vanishing_aperture():
    ap = EllipticalAperture(center=0.5, major=1.0, minor=1e-2)
    network = FractureNetwork((vertical_spec(ap, 1.0),))
    split = split_mesh(unit_square(8), network)
    cmap = fracture_coefficient_map(network.fractures[0])
    apertures = split.edges_of_fracture(0).apertures
    assert apertures.shape == (8, 2) and apertures.min() == 0.0   # the tips pinch
    c = cmap(apertures)
    assert c.r_a.shape == c.kappa_j.shape == (8, 2)
    assert np.all(np.isfinite(c.r_a)) and np.all(c.r_a > 0.0)     # floored, never infinite
    closed = apertures == 0.0
    assert np.all(c.kappa_j[closed] == 1e-12 * ap.max_value)
    assert np.all(c.r_a[closed] == 1.0 / (1e-12 * ap.max_value))
    assert np.array_equal(c.kappa_j[~closed], apertures[~closed])


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
    system = assemble(split, 1.0, [counting(c) for c in maps], THROUGHFLOW)
    assert [a.shape for a in calls] == [(8, 2), (4, 2)]
    assert np.array_equal(calls[0], np.full((8, 2), 1e-2))
    assert np.array_equal(calls[1], np.full((4, 2), 1e-3))
    # array-valued constants give the same system as the callables
    constants = [c(split.edges_of_fracture(j).apertures) for j, c in enumerate(maps)]
    again = assemble(split, 1.0, constants, THROUGHFLOW)
    assert (pair_operator_sum(again) != pair_operator_sum(system)).nnz == 0
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

    assemble(split, 1.0, [source, source], THROUGHFLOW)
    assert calls == [(1, 1), (1, 1)]


def test_coefficient_source_must_yield_interface_coefficients():
    split = split_mesh(unit_square(4), vertical_network(1e-2, 1.0))
    with pytest.raises(ConfigurationError, match="fracture 0 must yield InterfaceCoefficients"):
        assemble(split, 1.0, [lambda apertures: {"r_a": 1.0}], THROUGHFLOW)
    with pytest.raises(ConfigurationError, match="fracture 0 must yield InterfaceCoefficients"):
        assemble(split, 1.0, [1.0], THROUGHFLOW)
    # fields must broadcast to the fracture's (4, 2) nodes
    with pytest.raises(ConfigurationError, match="kappa_j of fracture 0"):
        assemble(split, 1.0, [InterfaceCoefficients(kappa_j=(1.0, 2.0, 3.0))],
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
        assemble(split, 1.0, [], bcs)


# --- assembled system invariants ---------------------------------------------

def _vertical_case(n=8, eps=1e-2, kf=1e-2):
    split = split_mesh(unit_square(n), vertical_network(eps, kf))
    system = assemble(split, 1.0, coeffs_for(split.network), THROUGHFLOW)
    return split, system


def test_raw_matrix_annihilates_constants():
    split, system = _vertical_case()
    ones = np.ones(system.n_dofs)
    A = pair_operator_sum(system)
    scale = np.max(np.abs(A.data))
    assert np.max(np.abs(A @ ones)) <= 1e-12 * scale


def test_raw_matrix_exactly_symmetric():
    split, system = _vertical_case(kf=1e4, eps=1e-4)
    A = pair_operator_sum(system)
    diff = A - A.T
    assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0
    diff_elim = system.matrix - system.matrix.T
    assert diff_elim.nnz == 0 or np.max(np.abs(diff_elim.data)) == 0.0


def test_dirichlet_elimination_reproduces_linear_field():
    split = split_mesh(unit_square(6), FractureNetwork(()))
    bcs = BoundaryConditionSet(dirichlet={"left": 1.0, "right": 0.0}, neumann={})
    system = assemble(split, 1.0, [], bcs)
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
    system = assemble(split, 1.0, [], bcs)
    for d, g in system.dirichlet_dofs.items():
        y = split.base.vertices[d, 1]
        assert g == pytest.approx(y ** 2)


def test_dirichlet_reaches_both_interface_copies():
    # the fracture endpoints touch bottom/top; with Dirichlet there, both
    # duplicated copies must be constrained
    split = split_mesh(unit_square(8), vertical_network(1e-2, 1.0))
    bcs = BoundaryConditionSet(dirichlet={"bottom": 1.0, "top": 0.0}, neumann={})
    system = assemble(split, 1.0, coeffs_for(split.network), bcs)
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
        assemble(split, 1.0, [], THROUGHFLOW)   # one coeff set per fracture


def test_zero_interface_coefficients_decouple_sides():
    split = split_mesh(unit_square(8), vertical_network(1e-2, 1.0))
    system = assemble(split, 1.0, [InterfaceCoefficients()], THROUGHFLOW)
    side = (split.subdomain_of_vertex() == 0).astype(float)
    A = pair_operator_sum(system)
    scale = np.max(np.abs(A.data))
    # with no interface terms each side's constant is in the null space
    assert np.max(np.abs(A @ side)) <= 1e-12 * scale


def test_large_penalty_restores_continuity():
    n = 8
    network = vertical_network(1e-2, 1.0)
    split = split_mesh(unit_square(n), network)
    system = assemble(split, 1.0, [InterfaceCoefficients(r_a=1e10)],
                      THROUGHFLOW)
    x, _ = solve_system(system)
    split0 = split_mesh(unit_square(n), FractureNetwork(()))
    system0 = assemble(split0, 1.0, [], THROUGHFLOW)
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
        system = assemble(split, 1.0, coeffs_for(network), THROUGHFLOW)
        x, _ = solve_system(system)
        prof = sample_profile(split, x, Point(0.0, 0.7), Point(1.0, 0.7), n + 1)
        results.append(prof.values)
    assert np.allclose(results[0], results[1], atol=1e-12)


def test_interface_load_enters_rhs_body():
    split = split_mesh(unit_square(8), vertical_network(1e-2, 1.0))
    c = 3.0
    system = assemble(split, 1.0,
                      [InterfaceCoefficients(r_a=1.0, h_j=c)], THROUGHFLOW)
    # the side-mean load of a unit-span fracture integrates to c * length
    assert float(np.sum(system.rhs_body)) == pytest.approx(c * 1.0)


def test_residual_raw_is_rhs_body_minus_matrix_raw():
    """The pair-form apply and the raw matrix come from the same pair operators;
    every one of the four coefficients takes part."""
    split = split_mesh(unit_square(8), vertical_network(1e-2, 1.0))
    c = InterfaceCoefficients(kappa_j=(1.0, 2.0), h_j=1.0, r_a=(4.0, 5.0), h_a=-2.0)
    system = assemble(split, 1.0, [c], THROUGHFLOW)
    x = np.sin(np.arange(system.n_dofs))
    assert np.allclose(system.residual_raw(x),
                       system.rhs_body - pair_operator_sum(system) @ x, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("make_split", [
    lambda: split_mesh(unit_square(6), vertical_network(1e-2, 1e-2)),
    lambda: split_mesh(build_interval(16, 1.0), FractureNetwork((FractureSpec(
        path=(Point(0.5),), aperture=ConstantAperture(1e-2), mobility=1e-2),))),
], ids=["2d", "1d"])
def test_scalar_mobility_matches_per_cell_bit_for_bit(make_split):
    split = make_split()
    coeffs = coeffs_for(split.network)
    scalar = assemble(split, 2.5, coeffs, THROUGHFLOW)
    per_cell = assemble(split, np.full(split.base.n_cells, 2.5), coeffs, THROUGHFLOW)
    for a, b in ((scalar.matrix, per_cell.matrix), (scalar.domain_at_rows, per_cell.domain_at_rows)):
        assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data.view(np.int64), b.data.view(np.int64))
    for name in ("rhs", "rhs_raw", "rhs_body"):
        assert np.array_equal(getattr(scalar, name).view(np.int64),
                              getattr(per_cell, name).view(np.int64)), name


def test_mobility_must_be_one_value_or_one_per_cell():
    split = split_mesh(unit_square(4), vertical_network(1e-2, 1.0))
    coeffs = coeffs_for(split.network)
    for k in (np.ones(split.n_subdomains), np.ones(1), np.ones((split.base.n_cells, 1))):
        with pytest.raises(ConfigurationError, match=f"one per cell \\({split.base.n_cells}\\)"):
            assemble(split, k, coeffs, THROUGHFLOW)
    for bad in (np.nan, 0.0, -1.0, np.inf):
        k_cell = np.ones(split.base.n_cells)
        k_cell[5] = bad
        for k in (bad, k_cell):
            with pytest.raises(ConfigurationError, match="positive and finite"):
                assemble(split, k, coeffs, THROUGHFLOW)


def test_onedim_point_interface_assembles_and_solves():
    from fracflow import build_interval
    mesh = build_interval(16, 1.0)
    eps = kf = 1e-2
    network = FractureNetwork((FractureSpec(
        path=(Point(0.5),), aperture=ConstantAperture(eps), mobility=kf),))
    split = split_mesh(mesh, network)
    bcs = BoundaryConditionSet(dirichlet={"right": 0.0}, neumann={"left": 1.0})
    system = assemble(split, 1.0, coeffs_for(network), bcs)
    x, _ = solve_system(system)
    # exact piecewise-linear solution: p(0) = 2, jump -1 at the interface
    left_end = np.nonzero(split.base.vertices[:, 0] == 0.0)[0]
    assert x[left_end] == pytest.approx(2.0, abs=1e-10)


# --- boundary data as array passes --------------------------------------------

def test_neumann_loads_match_facet_by_facet_loop():
    """A callable gets one Point per facet vertex, and the loads are added in
    facet order, so rhs_raw is bit-equal to the facet-by-facet loop."""
    mesh = build_structured_quad(12, 6, Point(0.0, 0.0), Point(2.0, 1.0))
    split = split_mesh(mesh, vertical_network(1e-2, 1.0, x=1.0))
    seen = []

    def inflow(p):
        seen.append(p)
        return 1.0 + p.y * p.y

    bcs = BoundaryConditionSet(dirichlet={"right": 0.0}, neumann={"left": inflow, "top": 0.25})
    system = assemble(split, 1.0, coeffs_for(split.network), bcs)
    mesh = split.base
    want = np.zeros(system.n_dofs)
    for vs, tag in zip(mesh.boundary_facets.tolist(), mesh.facet_tags.tolist()):
        if tag in ("left", "top"):
            X = mesh.vertices[vs]
            h = [1.0 + x[1] * x[1] if tag == "left" else 0.25 for x in X]
            np.add.at(want, vs, facet_load(X, h))
    assert np.array_equal(system.rhs_raw, system.rhs_body + want)
    left = mesh.boundary_facets[mesh.facet_tags == "left"].tolist()
    assert len(seen) == 2 * len(left)
    assert all(isinstance(p, Point) and p.dim == 2 for p in seen)
    assert [p.coords for p in seen] == [tuple(mesh.vertices[v]) for vs in left for v in vs]


def _dirichlet_by_loop(split, bcs):
    """Dirichlet values dof by dof: every facet vertex in facet order, then
    every copy of each constrained vertex; the later value wins, a clash
    raises."""
    dirichlet = {}

    def constrain(dof, value):
        if dof in dirichlet and abs(dirichlet[dof] - value) > 1e-12 * max(1.0, abs(value)):
            raise ConfigurationError(
                f"conflicting Dirichlet values at dof {dof}: {dirichlet[dof]} vs {value}")
        dirichlet[dof] = value

    verts = split.base.vertices
    for vs, tag in zip(split.base.boundary_facets.tolist(), split.base.facet_tags.tolist()):
        if tag in bcs.dirichlet:
            g = bcs.dirichlet[tag]
            for v in vs:
                constrain(v, float(g(Point(*verts[v].tolist())) if callable(g) else g))
    for dof, value in list(dirichlet.items()):
        twins = copies_of(split, split.vertex_origin[dof])
        for twin in twins.tolist() if len(twins) > 1 else ():
            constrain(twin, value)
    return dict(sorted(dirichlet.items()))


@pytest.mark.parametrize("dirichlet", [
    {"bottom": 1.0, "top": 0.0},
    {"bottom": lambda p: 1.0 + 1e-13 * p.x, "left": 1.0, "top": lambda p: 1.0 - p.x},
    {"top": lambda p: float(p.x > 0.5), "right": 0.0},       # clashes at a corner
])
def test_dirichlet_values_match_dof_by_dof_loop(dirichlet):
    split = split_mesh(unit_square(8), FractureNetwork(
        (FractureSpec(path=(Point(0.5, 0.0), Point(0.5, 1.0)),
                      aperture=ConstantAperture(1e-2), mobility=1.0),
         FractureSpec(path=(Point(0.0, 0.5), Point(1.0, 0.5)),
                      aperture=ConstantAperture(1e-2), mobility=1.0))))
    bcs = BoundaryConditionSet(dirichlet=dirichlet, neumann={})
    try:
        want = _dirichlet_by_loop(split, bcs)
    except ConfigurationError as exc:
        with pytest.raises(ConfigurationError, match=f"^{exc}$"):
            assemble(split, 1.0, coeffs_for(split.network), bcs)
        return
    system = assemble(split, 1.0, coeffs_for(split.network), bcs)
    assert system.dirichlet_dofs == want


def test_conflicting_dirichlet_values_name_the_first_dof():
    split = split_mesh(unit_square(4), FractureNetwork(()))
    # facets run bottom, top, left, right: vertex 0 gets 0.0, then 1.0
    bcs = BoundaryConditionSet(dirichlet={"left": 1.0, "bottom": 0.0}, neumann={})
    with pytest.raises(ConfigurationError,
                       match=r"^conflicting Dirichlet values at dof 0: 0\.0 vs 1\.0$"):
        assemble(split, 1.0, [], bcs)


def test_dirichlet_values_within_tolerance_keep_the_last():
    split = split_mesh(unit_square(4), FractureNetwork(()))
    bcs = BoundaryConditionSet(dirichlet={"left": 1.0 + 1e-13, "bottom": 1.0}, neumann={})
    system = assemble(split, 1.0, [], bcs)
    assert system.dirichlet_dofs[0] == 1.0 + 1e-13       # the left facet comes later
    assert list(system.dirichlet_dofs) == sorted(system.dirichlet_dofs)


# --- the stored system -----------------------------------------------------------

@pytest.mark.parametrize("name,n,variant", [("regular2d", 32, "conductive"),
                                            ("onedim", 64, None)])
def test_matrix_raw_is_the_pair_operator_sum_bit_for_bit(name, n, variant):
    """The raw matrix, the written-out pair operator sum, is what ``assemble``
    eliminates: every row of ``matrix`` that the Dirichlet elimination leaves
    alone, interface pair rows among them, is its row bit for bit."""
    case = SCENARIOS[name].build(n, variant)
    system = assemble(case.split, 1.0, coeffs_for(case.split.network), case.bcs)
    want = pair_operator_sum(system)
    fixed = np.zeros(system.n_dofs, dtype=bool)
    fixed[list(system.dirichlet_dofs)] = True
    touched = fixed | (want @ fixed.astype(float) != 0.0)   # fixed, or a fixed column
    kept = np.flatnonzero(~touched)
    assert np.isin(system.interface_pairs, kept).any()
    got, want = system.matrix[kept], want[kept]
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))


def test_fracture_free_elimination_leaves_matrix_domain_intact():
    """Without interface pairs the summed matrix is matrix_domain itself, so
    the in-place Dirichlet elimination must run on a copy of it."""
    split = split_mesh(unit_square(8), FractureNetwork(()))
    k = np.random.default_rng(0).uniform(0.5, 2.0, split.base.n_cells)
    system = assemble(split, k, [], THROUGHFLOW)
    # a fresh domain-only assembly, from the full cell matrices
    cells = split.base.cells
    K = q1_stiffness_batch(split.base.vertices[cells], k)
    fresh = sp.coo_matrix((K.ravel(), (np.repeat(cells, 4, axis=1).ravel(),
                                       np.tile(cells, (1, 4)).ravel())),
                          shape=(system.n_dofs, system.n_dofs)).tocsr()
    domain = system.matrix_domain
    scale = np.max(np.abs(fresh.data))
    assert np.array_equal(domain.indptr, fresh.indptr)
    assert np.array_equal(domain.indices, fresh.indices)
    assert np.max(np.abs(domain.data - fresh.data)) <= 1e-14 * scale
    assert np.max(np.abs(domain @ np.ones(system.n_dofs))) <= 1e-12 * scale
    assert not np.shares_memory(system.matrix.data, domain.data)
    assert (pair_operator_sum(system) != domain).nnz == 0


# --- the stored domain rows --------------------------------------------------

_DOMAIN_CASES = [(name, variant) for name, spec in SCENARIOS.items()
                 for variant in spec.variants or (None,)] + [("fracture-free", None)] \
    + [(name, None) for name in PATH_CASES]


@pytest.fixture(scope="module", params=_DOMAIN_CASES, ids=lambda c: "-".join(filter(None, c)))
def system_and_domain(request):
    """A system and the full domain matrix it was assembled from: every
    built-in at its default n (regular2d's fractures meet its Dirichlet
    sides), a fracture-free system with per-cell mobilities, and the bent
    and oblique ``PATH_CASES`` with unit mobilities, whose fractures have
    copies on the Dirichlet side. An assembly that inserts a stored entry
    fails here."""
    name, variant = request.param
    with warnings.catch_warnings():
        warnings.simplefilter("error", sp.SparseEfficiencyWarning)
        if name == "fracture-free":
            split = split_mesh(unit_square(8), FractureNetwork(()))
            k_cell = np.random.default_rng(0).uniform(0.5, 2.0, split.base.n_cells)
            system = assemble(split, k_cell, [], THROUGHFLOW)
        elif name in PATH_CASES:
            mesh, network = PATH_CASES[name]()
            split = split_mesh(mesh, network)
            k_cell = np.ones(split.base.n_cells)
            system = assemble(split, 1.0, coeffs_for(network),
                              THROUGHFLOW)
        else:
            spec = SCENARIOS[name]
            case = spec.build(spec.default_n, variant)
            split = case.split
            system = assemble(split, 1.0, coeffs_for(case.split.network), case.bcs)
            k_cell = np.ones(split.base.n_cells)
    return system, _domain_matrix(split.base, k_cell, system.n_dofs)


def test_residual_raw_is_the_full_domain_formula_bit_for_bit(system_and_domain):
    system, domain = system_and_domain
    x = np.random.default_rng(1).standard_normal(system.n_dofs)
    # rhs_body - domain @ x - (M^T K_mean M x + J^T K_jump J x), as
    # residual_raw was written over the full domain matrix
    pairs, n = system.interface_pairs, system.n_dofs
    rows = np.repeat(np.arange(len(pairs)), 2)
    M = sp.csr_matrix((np.tile([0.5, 0.5], len(pairs)), (rows, pairs.ravel())),
                      shape=(len(pairs), n))
    J = sp.csr_matrix((np.tile([-1.0, 1.0], len(pairs)), (rows, pairs.ravel())),
                      shape=(len(pairs), n))
    interface = M.T @ (system.interface_mean @ (M @ x)) \
        + J.T @ (system.interface_jump @ (J @ x))
    want = domain @ x
    np.subtract(system.rhs_body, want, out=want)
    want -= interface
    assert np.array_equal(system.residual_raw(x).view(np.int64), want.view(np.int64))


def test_pair_maps_give_side_mean_and_jump_bit_for_bit(system_and_domain):
    system, _ = system_and_domain
    x = np.random.default_rng(2).standard_normal(system.n_dofs)
    lo, hi = system.interface_pairs.T
    M, J = _pair_maps(system.interface_pairs, system.n_dofs)
    assert M.shape == J.shape == (len(lo), system.n_dofs)
    assert np.array_equal((M @ x).view(np.int64), (0.5 * (x[lo] + x[hi])).view(np.int64))
    assert np.array_equal((J @ x).view(np.int64), (x[hi] - x[lo]).view(np.int64))


def test_rows_outside_the_stored_set_are_domain_rows(system_and_domain):
    system, domain = system_and_domain
    A = system.matrix
    outside = np.ones(system.n_dofs, dtype=bool)
    outside[system.domain_rows] = False
    assert np.all(np.diff(system.domain_rows) > 0)
    assert np.count_nonzero(~outside) < 0.5 * system.n_dofs
    assert np.array_equal(np.diff(A.indptr)[outside], np.diff(domain.indptr)[outside])
    in_A = np.repeat(outside, np.diff(A.indptr))
    in_domain = np.repeat(outside, np.diff(domain.indptr))
    assert np.array_equal(A.indices[in_A], domain.indices[in_domain])
    assert np.array_equal(A.data[in_A].view(np.int64), domain.data[in_domain].view(np.int64))


def test_matrix_domain_is_the_domain_matrix_bit_for_bit(system_and_domain):
    system, domain = system_and_domain
    formed = system.matrix_domain
    for name in ("indptr", "indices"):
        assert getattr(formed, name).dtype == getattr(domain, name).dtype
        assert np.array_equal(getattr(formed, name), getattr(domain, name))
    assert np.array_equal(formed.data.view(np.int64), domain.data.view(np.int64))
    assert formed is not system.matrix_domain                # formed on each access
