"""Reference element kernels: bilinear quads, linear segments, facet loads.

All integration is exact for the polynomial integrands that occur here:
2x2 Gauss on quads, closed forms on segments. Segment kernels take arrays
of lengths and return one block per segment; a coefficient is a constant or
a nodal pair (c_a, c_b) along its last axis, broadcast against the lengths.
"""

from __future__ import annotations

import numpy as np

from .errors import GeometryError

__all__ = [
    "GAUSS_1D",
    "GAUSS_2X2",
    "q1_shape",
    "q1_dshape",
    "q1_stiffness_upper",
    "p1_segment_stiffness",
    "p1_segment_mass",
    "p1_segment_load",
    "facet_load",
]

# 2-point Gauss on [-1, 1], exact for cubics, and its tensor square on
# [-1, 1]^2 (x fastest). Every weight is 1.
GAUSS_1D = np.array([-1.0, 1.0]) / np.sqrt(3.0)
GAUSS_2X2 = np.array([[a, b] for b in GAUSS_1D for a in GAUSS_1D])


def q1_shape(xi) -> np.ndarray:
    """The four bilinear shape functions at reference coordinates
    xi = (xi, eta), (2,) or (2, m), along the first axis: (4,) or (4, m)."""
    x, y = xi[0], xi[1]
    return 0.25 * np.array([(1 - x) * (1 - y), (1 + x) * (1 - y),
                            (1 + x) * (1 + y), (1 - x) * (1 + y)])


def q1_dshape(xi) -> np.ndarray:
    """Derivatives of the four bilinear shape functions at xi = (xi, eta),
    (2,) or (2, m): (4, 2) or (4, 2, m), axis 1 = (d/dxi, d/deta)."""
    x, y = xi[0], xi[1]
    return 0.25 * np.array([
        [-(1 - y), -(1 - x)],
        [(1 - y), -(1 + x)],
        [(1 + y), (1 + x)],
        [-(1 + y), (1 - x)],
    ])


# The stiffness's ten upper entries (a, b), a <= b, in np.triu_indices(4) order.
_Q1_TRIU = np.triu_indices(4)
# Cells per block in q1_stiffness_upper, so that a block's arrays stay in cache.
_Q1_BLOCK = 4096


def q1_stiffness_upper(vertices: np.ndarray, cells: np.ndarray, k: np.ndarray) -> np.ndarray:
    """(n, 10) upper stiffness entries (a, b), a <= b, in ``np.triu_indices(4)``
    order, of the bilinear quads ``cells`` (n, 4) over ``vertices`` (nv, 2).

    At each Gauss point, J[i, d] = sum_a dN_a/dxi_i x_a,d, the physical
    gradients are grad N_a = J^-1 dN_a, and the point adds k det(J)
    grad N_a . grad N_b to entry (a, b). Each step is one operation on the
    arrays of a block of cells, with the reference derivatives as scalars;
    each block gathers its own corners, so no (n, 4, 2) array is formed.
    Only these entries are formed, so the matrix they stand for is exactly
    symmetric. Raises GeometryError on a wrong shape or when an
    isoparametric map degenerates (non-positive Jacobian at a Gauss point).
    """
    vertices = np.asarray(vertices, dtype=float)
    cells = np.asarray(cells)
    if vertices.ndim != 2 or vertices.shape[1] != 2 or cells.ndim != 2 or cells.shape[1] != 4:
        raise GeometryError(f"expected (nv, 2) vertices and (n, 4) cells, "
                            f"got shapes {vertices.shape} and {cells.shape}")
    kv = np.broadcast_to(np.asarray(k, dtype=float), (len(cells),))
    upper = np.empty((len(cells), 10))
    for start in range(0, len(cells), _Q1_BLOCK):
        block = slice(start, start + _Q1_BLOCK)
        upper[block] = _q1_upper(vertices[cells[block]], kv[block], start)
    return upper


def _q1_upper(X: np.ndarray, k: np.ndarray, first: int) -> np.ndarray:
    """(m, 10) upper stiffness entries of the cells X (m, 4, 2); ``first`` is
    the batch index of X[0], for the error message."""
    coords = [[np.ascontiguousarray(X[:, a, d]) for a in range(4)] for d in range(2)]
    upper = [0.0] * 10
    for xi in GAUSS_2X2:
        dN = q1_dshape(xi).tolist()

        def along(i, c):           # sum_a dN_a/dxi_i c_a, in vertex order
            s = dN[0][i] * c[0]
            for a in range(1, 4):
                s = s + dN[a][i] * c[a]
            return s

        j00, j01 = along(0, coords[0]), along(0, coords[1])
        j10, j11 = along(1, coords[0]), along(1, coords[1])
        det = j00 * j11 - j01 * j10
        if np.any(det <= 0.0):
            bad = first + int(np.argmax(det <= 0.0))
            raise GeometryError(f"degenerate quadrilateral in batch at index {bad}")
        inv = ((j11 / det, -j01 / det), (-j10 / det, j00 / det))
        grads = [[dN[a][0] * inv[i][0] + dN[a][1] * inv[i][1] for i in range(2)]
                 for a in range(4)]
        weight = det * k
        for e, (a, b) in enumerate(zip(*_Q1_TRIU)):
            ga, gb = grads[a], grads[b]
            upper[e] = upper[e] + weight * (ga[0] * gb[0] + ga[1] * gb[1])
    return np.stack(upper, axis=1)


def _segments(length, coeff) -> tuple[np.ndarray, np.ndarray]:
    """(lengths, nodal values (..., 2)) after checking every length is positive."""
    L = np.asarray(length, dtype=float)
    if not np.all(np.isfinite(L) & (L > 0.0)):
        raise GeometryError("segment lengths must be positive and finite")
    return L, np.broadcast_to(np.asarray(coeff, dtype=float), L.shape + (2,))


def _pair_block(diag_a, off, diag_b) -> np.ndarray:
    return np.stack([np.stack([diag_a, off], axis=-1),
                     np.stack([off, diag_b], axis=-1)], axis=-2)


def p1_segment_load(length, h) -> np.ndarray:
    """Load (..., 2) of a linearly varying h on linear segments, exact:
    (L/6) [2 h_a + h_b, h_a + 2 h_b]."""
    L, c = _segments(length, h)
    ha, hb = c[..., 0], c[..., 1]
    return (L / 6.0)[..., None] * np.stack([2.0 * ha + hb, ha + 2.0 * hb], axis=-1)


def p1_segment_stiffness(length, coeff) -> np.ndarray:
    """(..., 2, 2) stiffness of linear segments, coefficient at the midpoint.

    A nodal pair (c_a, c_b) is collapsed to its midpoint value.
    """
    L, c = _segments(length, coeff)
    s = 0.5 * (c[..., 0] + c[..., 1]) / L
    return _pair_block(s, -s, s)


def p1_segment_mass(length, coeff) -> np.ndarray:
    """(..., 2, 2) mass matrix of linear segments with linearly varying
    coefficient, exact.

    Row sums are the load of the coefficient (``p1_segment_load``); the
    off-diagonal is (L/12)(c_a + c_b). For a constant c this is
    c*L/6 * [[2, 1], [1, 2]].
    """
    L, c = _segments(length, coeff)
    row = p1_segment_load(L, c)
    off = (L / 12.0) * (c[..., 0] + c[..., 1])
    return _pair_block(row[..., 0] - off, off, row[..., 1] - off)


def facet_load(facet_vertices: np.ndarray, h) -> np.ndarray:
    """Load (..., 2) of an inward flux h on straight boundary facets
    (..., 2, 2), exact for a constant h or a linearly varying nodal pair
    (h_a, h_b) per facet."""
    X = np.asarray(facet_vertices, dtype=float)
    if X.shape[-2:] != (2, 2):
        raise GeometryError(f"expected 2-vertex facets in 2D, got shape {X.shape}")
    d = X[..., 1, :] - X[..., 0, :]
    # Row-wise dot products round as np.linalg.norm of each row does.
    L = np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])
    if np.any(L <= 0.0):
        raise GeometryError("facet has zero length")
    return p1_segment_load(L, h)
