"""Reference element kernels."""

import numpy as np
import pytest

from fracflow.elements import (GAUSS_1D, GAUSS_2X2, facet_load, p1_segment_load,
                               p1_segment_mass, p1_segment_stiffness, q1_dshape,
                               q1_shape, q1_stiffness_upper)
from fracflow.errors import GeometryError

from conftest import q1_stiffness_batch


UNIT_QUAD = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def one_cell(cell_vertices, k):
    """q1_stiffness_batch on a batch of one cell."""
    return q1_stiffness_batch(np.asarray(cell_vertices)[None], [k])[0]


def test_gauss_rules_exact_for_cubics():
    # every weight is 1
    for p in range(4):
        num = sum(x ** p for x in GAUSS_1D)
        exact = (1.0 - (-1.0) ** (p + 1)) / (p + 1)
        assert num == pytest.approx(exact, abs=1e-14)
    num = sum((x ** 2) * (y ** 3 + 1) for x, y in GAUSS_2X2)
    assert num == pytest.approx(2.0 / 3.0 * 2.0, abs=1e-14)


def test_q1_shape_functions_on_point_arrays_stack_the_scalar_calls():
    xi = np.random.default_rng(5).uniform(-1.5, 1.5, (2, 37))
    N, dN = q1_shape(xi), q1_dshape(xi)
    assert N.shape == (4, 37) and dN.shape == (4, 2, 37)
    for j in range(xi.shape[1]):
        assert np.array_equal(N[:, j], q1_shape(xi[:, j]))
        assert np.array_equal(dN[:, :, j], q1_dshape(xi[:, j]))
    # a partition of unity, and one at its own corner
    assert np.allclose(N.sum(axis=0), 1.0, atol=1e-15)
    assert np.allclose(dN.sum(axis=0), 0.0, atol=1e-15)
    assert np.array_equal(q1_shape(np.array([1.0, 1.0])), [0.0, 0.0, 1.0, 0.0])


def test_q1_stiffness_unit_square_values():
    K = one_cell(UNIT_QUAD, 1.0)
    # classical bilinear stiffness: 2/3 diagonal, -1/6 edges, -1/3 diagonal
    expected = np.array([
        [2 / 3, -1 / 6, -1 / 3, -1 / 6],
        [-1 / 6, 2 / 3, -1 / 6, -1 / 3],
        [-1 / 3, -1 / 6, 2 / 3, -1 / 6],
        [-1 / 6, -1 / 3, -1 / 6, 2 / 3],
    ])
    assert np.allclose(K, expected, atol=1e-14)


def test_q1_stiffness_properties():
    rng = np.random.default_rng(7)
    # a mildly distorted convex quad
    X = UNIT_QUAD + 0.15 * rng.standard_normal((4, 2))
    K = one_cell(X, 2.5)
    assert np.allclose(K, K.T, atol=1e-14)
    assert np.allclose(K @ np.ones(4), 0.0, atol=1e-13)     # constants cost nothing
    w = np.linalg.eigvalsh(K)
    assert w[0] > -1e-13 and np.sum(w > 1e-10) == 3          # rank 3, PSD


def test_q1_stiffness_energy_of_linear_field():
    dx, dy, k = 0.25, 0.5, 3.0
    X = np.array([[0, 0], [dx, 0], [dx, dy], [0, dy]], dtype=float)
    K = one_cell(X, k)
    p = X[:, 0]                      # p = x, grad = (1, 0)
    assert p @ K @ p == pytest.approx(k * dx * dy, rel=1e-14)
    q = 2.0 * X[:, 0] - 3.0 * X[:, 1]
    assert q @ K @ q == pytest.approx(k * 13.0 * dx * dy, rel=1e-14)


def test_q1_stiffness_scales_linearly_with_k():
    assert np.allclose(one_cell(UNIT_QUAD, 4.0), 4.0 * one_cell(UNIT_QUAD, 1.0))


def test_q1_stiffness_rejects_degenerate_cells():
    clockwise = UNIT_QUAD[::-1]
    with pytest.raises(GeometryError):
        one_cell(clockwise, 1.0)
    pinched = np.array([[0, 0], [1, 0], [0, 0], [0, 1]], dtype=float)
    with pytest.raises(GeometryError):
        one_cell(pinched, 1.0)
    with pytest.raises(GeometryError):
        q1_stiffness_upper(UNIT_QUAD[:3], [[0, 1, 2]], 1.0)       # a triangle
    with pytest.raises(GeometryError):
        q1_stiffness_upper(np.zeros((4, 3)), [[0, 1, 2, 3]], 1.0)  # 3D vertices


def test_q1_stiffness_reports_degenerate_index_across_blocks():
    cells = np.repeat(UNIT_QUAD[None], 9000, axis=0)
    cells[8500] = UNIT_QUAD[::-1]
    with pytest.raises(GeometryError, match="index 8500"):
        q1_stiffness_batch(cells, np.ones(9000))


def einsum_stiffness(cell_vertices, k):
    """The per-Gauss-point einsum kernel, kept as the reference."""
    X = np.asarray(cell_vertices, dtype=float)
    K = np.zeros((len(X), 4, 4))
    for xi in GAUSS_2X2:
        dN = q1_dshape(xi)
        J = np.einsum("ai,nad->nid", dN, X)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        Jinv = np.stack([np.stack([J[:, 1, 1], -J[:, 0, 1]], axis=1),
                         np.stack([-J[:, 1, 0], J[:, 0, 0]], axis=1)], axis=1)
        Jinv /= det[:, None, None]
        grads = np.einsum("ad,ndi->nai", dN, np.swapaxes(Jinv, 1, 2))
        K += (det * np.asarray(k))[:, None, None] * np.einsum("nai,nbi->nab", grads, grads)
    return K


def test_q1_stiffness_matches_per_gauss_point_einsum():
    # distorted cells of very different sizes and positions, k over 8 decades,
    # more cells than one block of the batch kernel
    rng = np.random.default_rng(3)
    n = 10000
    size = rng.uniform(1e-3, 3.0, (n, 1, 2))
    X = (UNIT_QUAD + 0.2 * rng.uniform(-1.0, 1.0, (n, 4, 2))) * size
    X += rng.uniform(-5.0, 5.0, (n, 1, 2))
    k = 10.0 ** rng.uniform(-4.0, 4.0, n)
    K = q1_stiffness_batch(X, k)
    ref = einsum_stiffness(X, k)
    scale = np.abs(ref).max(axis=(1, 2))
    assert np.all(np.abs(K - ref).max(axis=(1, 2)) <= 1e-13 * scale)
    assert np.array_equal(K, np.swapaxes(K, 1, 2))


def test_segment_stiffness_constant_and_pair():
    S = p1_segment_stiffness(0.5, 2.0)
    assert np.allclose(S, np.array([[4.0, -4.0], [-4.0, 4.0]]))
    # a nodal pair collapses to the midpoint value
    assert np.allclose(p1_segment_stiffness(0.5, (1.0, 3.0)), S)
    with pytest.raises(GeometryError):
        p1_segment_stiffness(0.0, 1.0)


def test_segment_mass_constant():
    L, c = 0.75, 2.0
    M = p1_segment_mass(L, c)
    assert np.allclose(M, c * L / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(GeometryError):
        p1_segment_mass(-1.0, 1.0)


def test_segment_mass_linear_coefficient_exact():
    # c(t) = t on a segment of length L: moments L/12, L/12, L/4
    L = 2.0
    M = p1_segment_mass(L, (0.0, 1.0))
    assert M[0, 0] == pytest.approx(L / 12.0)
    assert M[0, 1] == pytest.approx(L / 12.0)
    assert M[1, 0] == pytest.approx(L / 12.0)
    assert M[1, 1] == pytest.approx(L / 4.0)


def test_segment_kernels_batch_per_segment():
    L = np.array([0.5, 2.0, 0.25])
    c = np.array([[1.0, 3.0], [0.0, 1.0], [2.0, 2.0]])
    for kernel in (p1_segment_stiffness, p1_segment_mass, p1_segment_load):
        batch = kernel(L, c)
        assert batch.shape[0] == 3
        for i in range(3):
            assert np.array_equal(batch[i], kernel(L[i], c[i]))
    with pytest.raises(GeometryError):
        p1_segment_mass(np.array([1.0, 0.0]), 1.0)


def test_segment_mass_rows_are_the_load_of_the_coefficient():
    M = p1_segment_mass(0.75, (2.0, 5.0))
    assert np.allclose(M.sum(axis=1), p1_segment_load(0.75, (2.0, 5.0)))
    assert np.array_equal(M, M.T)


def test_facet_load_splits_evenly():
    X = np.array([[0.0, 0.0], [0.0, 0.5]])
    assert np.allclose(facet_load(X, 3.0), [0.75, 0.75])
    # a linearly varying flux: (L/6) [2 h_a + h_b, h_a + 2 h_b]
    assert np.allclose(facet_load(X, (0.0, 6.0)), [0.5, 1.0])
    with pytest.raises(GeometryError):
        facet_load(np.zeros((2, 2)), 1.0)
