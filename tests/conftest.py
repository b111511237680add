"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from fracflow import (BoundaryConditionSet, ConstantAperture, FractureNetwork,
                      FractureSpec, Mesh, Point, assemble, build_structured_quad,
                      fracture_coefficient_map, solve_system, split_mesh)
from fracflow.elements import q1_stiffness_upper


def unit_square(n: int):
    return build_structured_quad(n, n, Point(0.0, 0.0), Point(1.0, 1.0))


def vertical_network(eps: float, kf: float, x: float = 0.5) -> FractureNetwork:
    spec = FractureSpec(path=(Point(x, 0.0), Point(x, 1.0)),
                        aperture=ConstantAperture(eps), mobility=kf)
    return FractureNetwork((spec,))


def polyline_network(*paths, eps: float = 1e-4, kf: float = 1e4) -> FractureNetwork:
    """One fracture per path, a path being a sequence of (x, y) corners."""
    return FractureNetwork(tuple(
        FractureSpec(path=tuple(Point(*p) for p in path),
                     aperture=ConstantAperture(eps), mobility=kf)
        for path in paths))


def sheared_square(n: int, shear: float) -> Mesh:
    """unit_square(n) with every vertex (x, y) moved to (x + shear y, y)."""
    mesh = unit_square(n)
    vertices = mesh.vertices.copy()
    vertices[:, 0] += shear * vertices[:, 1]
    return Mesh(vertices, mesh.cells, mesh.boundary_facets, mesh.facet_tags)


# Fractures with polyline corners, drawn against the axes and crossing, on
# a non-dyadic grid; and oblique ones on sheared meshes, whose edges follow
# no axis. Each value builds the (mesh, network).
PATH_CASES = {
    "bent24": lambda: (unit_square(24), polyline_network(
        ((0.0, 0.25), (0.5, 0.25), (0.5, 1.0)),
        ((0.75, 1.0), (0.75, 0.0)),                           # top-down
        ((1.0, 0.625), (0.25, 0.625), (0.25, 0.0)))),         # crosses both
    "shear_quarter64": lambda: (sheared_square(64, 0.25), polyline_network(
        ((0.5, 0.0), (0.75, 1.0)), ((0.125, 0.5), (1.125, 0.5)))),
    "shear_one64": lambda: (sheared_square(64, 1.0), polyline_network(
        ((0.5, 0.0), (1.5, 1.0)), ((0.5, 0.5), (1.5, 0.5)))),
}


def coeffs_for(network: FractureNetwork):
    return [fracture_coefficient_map(f) for f in network.fractures]


def copies_of(split, origin_vertex: int) -> np.ndarray:
    """All post-split vertex ids that stem from one pre-split vertex."""
    return np.nonzero(split.vertex_origin == origin_vertex)[0]


def jump_at(f, x: float) -> float:
    """Jump (right minus left) of a ``PiecewiseLinear1D`` at x."""
    return f.eval(x, "right") - f.eval(x, "left")


# The upper entry each full entry of a Q1 stiffness matrix is read from.
_Q1_FULL = np.zeros((4, 4), dtype=np.intp)
_Q1_FULL[np.triu_indices(4)] = np.arange(10)
_Q1_FULL = np.maximum(_Q1_FULL, _Q1_FULL.T).ravel()


def q1_stiffness_batch(cell_vertices, k) -> np.ndarray:
    """(n, 4, 4) stiffness of the bilinear quads ``cell_vertices`` (n, 4, 2),
    one mobility per cell: the symmetric expansion of ``q1_stiffness_upper``."""
    X = np.asarray(cell_vertices, dtype=float)
    upper = q1_stiffness_upper(X.reshape(-1, 2), np.arange(4 * len(X)).reshape(-1, 4), k)
    return upper[:, _Q1_FULL].reshape(len(X), 4, 4)


def pair_operator_sum(system) -> sp.csr_matrix:
    """matrix_domain + M^T interface_mean M + J^T interface_jump J, written
    out: all couplings of ``system`` before the Dirichlet elimination."""
    pairs, n = system.interface_pairs, system.n_dofs
    rows = np.repeat(np.arange(len(pairs)), 2)
    M = sp.csr_matrix((np.tile([0.5, 0.5], len(pairs)), (rows, pairs.ravel())),
                      shape=(len(pairs), n))
    J = sp.csr_matrix((np.tile([-1.0, 1.0], len(pairs)), (rows, pairs.ravel())),
                      shape=(len(pairs), n))
    return system.matrix_domain + (M.T @ system.interface_mean @ M
                                   + J.T @ system.interface_jump @ J)


THROUGHFLOW = BoundaryConditionSet(dirichlet={"right": 0.0}, neumann={"left": 1.0})


@pytest.fixture(scope="session")
def solved_vertical_16():
    """16x16 square, vertical blocking fracture, through-flow; reused widely."""
    split = split_mesh(unit_square(16), vertical_network(1e-2, 1e-2))
    system = assemble(split, 1.0, coeffs_for(split.network), THROUGHFLOW)
    pressure, report = solve_system(system)
    return split, system, pressure, report
