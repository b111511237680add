"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from fracflow import (BoundaryConditionSet, ConstantAperture, FractureNetwork,
                      FractureSpec, Point, assemble, build_structured_quad,
                      fracture_coefficient_map, solve_system, split_mesh)
from fracflow.elements import q1_stiffness_upper


def unit_square(n: int):
    return build_structured_quad(n, n, Point(0.0, 0.0), Point(1.0, 1.0))


def vertical_network(eps: float, kf: float, x: float = 0.5) -> FractureNetwork:
    spec = FractureSpec(path=(Point(x, 0.0), Point(x, 1.0)),
                        aperture=ConstantAperture(eps), mobility=kf)
    return FractureNetwork((spec,))


def coeffs_for(network: FractureNetwork):
    return [fracture_coefficient_map(f.mobility, f.aperture.max_value)
            for f in network.fractures]


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


THROUGHFLOW = BoundaryConditionSet(dirichlet={"right": 0.0}, neumann={"left": 1.0})


@pytest.fixture(scope="session")
def solved_vertical_16():
    """16x16 square, vertical blocking fracture, through-flow; reused widely."""
    split = split_mesh(unit_square(16), vertical_network(1e-2, 1e-2))
    system = assemble(split, np.ones(split.n_subdomains),
                      coeffs_for(split.network), THROUGHFLOW)
    pressure, report = solve_system(system)
    return split, system, pressure, report
