"""Meshes, fracture descriptions, conformity checking and interface splitting.

Fractures are lower-dimensional objects (polylines in 2D, points in 1D) that
must coincide with mesh edges/vertices. ``split_mesh`` duplicates the mesh
vertices along each fracture so the two sides carry independent degrees of
freedom, labels the resulting subdomains, and records the interface entities
the assembly stage needs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Union

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import ConformityError, GeometryError, UnsupportedTopologyError

__all__ = [
    "Point",
    "ConstantAperture",
    "EllipticalAperture",
    "FractureSpec",
    "FractureNetwork",
    "Mesh",
    "InterfaceEntities",
    "SplitMesh",
    "build_structured_quad",
    "build_interval",
    "check_conformity",
    "split_mesh",
]


@dataclass(frozen=True)
class Point:
    """A point in 1D (``y is None``) or 2D."""

    x: float
    y: float | None = None

    def __post_init__(self):
        if not np.isfinite(self.x):
            raise GeometryError(f"non-finite point coordinate x={self.x!r}")
        if self.y is not None and not np.isfinite(self.y):
            raise GeometryError(f"non-finite point coordinate y={self.y!r}")

    @property
    def dim(self) -> int:
        return 1 if self.y is None else 2

    @property
    def coords(self) -> tuple[float, ...]:
        return (self.x,) if self.y is None else (self.x, self.y)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


@dataclass(frozen=True)
class ConstantAperture:
    """Uniform fracture aperture."""

    value: float

    def __post_init__(self):
        if not (np.isfinite(self.value) and self.value > 0.0):
            raise GeometryError(f"aperture must be positive, got {self.value!r}")

    def __call__(self, point: Point) -> float:
        return float(self.at(point.as_array()[None])[0])

    def at(self, points: np.ndarray) -> np.ndarray:
        """Aperture at each of the (n, d) points."""
        return np.full(len(points), self.value)

    @property
    def max_value(self) -> float:
        return self.value


@dataclass(frozen=True)
class EllipticalAperture:
    """Aperture profile of a flat elliptical inclusion.

    ``major`` is the full extent along the fracture, ``minor`` the maximal
    opening (at the center). The width at distance d from the center is
    ``minor * sqrt(1 - (d / (major/2))**2)``, clamped to zero outside.
    """

    center: Point
    major: float
    minor: float

    def __post_init__(self):
        if not (np.isfinite(self.major) and self.major > 0.0):
            raise GeometryError(f"major axis must be positive, got {self.major!r}")
        if not (np.isfinite(self.minor) and self.minor > 0.0):
            raise GeometryError(f"minor axis must be positive, got {self.minor!r}")

    def __call__(self, point: Point) -> float:
        return float(self.at(point.as_array()[None])[0])

    def at(self, points: np.ndarray) -> np.ndarray:
        """Aperture at each of the (n, d) points, d the dimension of the centre."""
        off = np.asarray(points, dtype=float) - self.center.as_array()
        # Row-wise dot products round as np.linalg.norm of each row does.
        ratio = np.sqrt((off[:, None, :] @ off[:, :, None])[:, 0, 0]) / (0.5 * self.major)
        r2 = ratio * ratio
        return np.where(ratio < 1.0, self.minor * np.sqrt(np.maximum(1.0 - r2, 0.0)), 0.0)

    @property
    def max_value(self) -> float:
        return self.minor


Aperture = Union[ConstantAperture, EllipticalAperture]


@dataclass(frozen=True)
class FractureSpec:
    """One fracture: its geometry, aperture profile and tangential mobility.

    In 2D the path is a polyline with at least two points; in a 1D mesh a
    fracture is a single point, given as a one-point path.
    """

    path: tuple[Point, ...]
    aperture: Aperture
    mobility: float

    def __post_init__(self):
        object.__setattr__(self, "path", tuple(self.path))
        if len(self.path) == 0:
            raise GeometryError("fracture path is empty")
        dims = {p.dim for p in self.path}
        if len(dims) != 1:
            raise GeometryError("fracture path mixes 1D and 2D points")
        if self.dim == 2 and len(self.path) < 2:
            raise GeometryError("2D fracture path needs at least two points")
        if self.dim == 1 and len(self.path) != 1:
            raise GeometryError("1D fracture is a single point")
        for a, b in zip(self.path[:-1], self.path[1:]):
            if a.coords == b.coords:
                raise GeometryError("fracture path repeats a point")
        if not (np.isfinite(self.mobility) and self.mobility > 0.0):
            raise GeometryError(f"fracture mobility must be positive, got {self.mobility!r}")
        if isinstance(self.aperture, EllipticalAperture) and self.aperture.center.dim != self.dim:
            raise GeometryError(
                f"aperture centre is {self.aperture.center.dim}D, fracture path is {self.dim}D")

    @property
    def dim(self) -> int:
        return self.path[0].dim


@dataclass(frozen=True)
class FractureNetwork:
    """A collection of fractures sharing one ambient dimension."""

    fractures: tuple[FractureSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "fractures", tuple(self.fractures))
        dims = {f.dim for f in self.fractures}
        if len(dims) > 1:
            raise GeometryError("fracture network mixes dimensions")

    def __len__(self) -> int:
        return len(self.fractures)

    def __iter__(self):
        return iter(self.fractures)


# Cells per block of the per-cell checks and reductions, so that their
# temporaries stay small.
CELL_BLOCK = 4096


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Mesh:
    """Conforming mesh: segments in 1D, quadrilaterals (CCW) in 2D.

    ``boundary_facets`` pairs vertex-index tuples with a tag string; each
    facet must be owned by exactly one cell.
    """

    vertices: np.ndarray
    cells: np.ndarray
    boundary_facets: tuple[tuple[tuple[int, ...], str], ...]

    def __post_init__(self):
        verts = _readonly(np.asarray(self.vertices, dtype=float))
        cells = _readonly(np.asarray(self.cells, dtype=np.int64))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "boundary_facets", tuple(
            (tuple(int(v) for v in vs), str(tag)) for vs, tag in self.boundary_facets
        ))
        if verts.ndim != 2 or verts.shape[1] not in (1, 2):
            raise GeometryError(f"vertex array must be (n, 1) or (n, 2), got {verts.shape}")
        if not np.all(np.isfinite(verts)):
            raise GeometryError("mesh has non-finite vertex coordinates")
        want = 2 if verts.shape[1] == 1 else 4
        if cells.ndim != 2 or cells.shape[1] != want:
            raise GeometryError(f"cell array must be (n, {want}) for dim {verts.shape[1]}")
        if cells.size and (cells.min() < 0 or cells.max() >= len(verts)):
            raise GeometryError("cell references a vertex out of range")
        # Segments must run left to right and quads counter-clockwise, with
        # positive length or area.
        for start in range(0, len(cells), CELL_BLOCK):
            block = cells[start:start + CELL_BLOCK]
            x = verts[block, 0]
            if verts.shape[1] == 1:
                size = x[:, 1] - x[:, 0]
            else:
                y = verts[block, 1]
                size = 0.5 * np.sum(x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y, axis=1)
            if np.any(size <= 0.0):
                bad = start + int(np.argmax(size <= 0.0))
                order = "left to right" if verts.shape[1] == 1 else "counter-clockwise"
                raise GeometryError(f"cell {bad} is degenerate or not {order}")
        for vs, _tag in self.boundary_facets:
            nfv = 1 if verts.shape[1] == 1 else 2
            if len(vs) != nfv:
                raise GeometryError(f"boundary facet {vs} has wrong arity for dim {self.dim}")
            if any(v < 0 or v >= len(verts) for v in vs):
                raise GeometryError(f"boundary facet {vs} references a vertex out of range")

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def diameter(self) -> float:
        return self._diameter

    @cached_property
    def _diameter(self) -> float:
        # Once per mesh, column by column: a reduction over axis 0 of an
        # (n, 2) array is some 20x slower.
        span = [float(c.max() - c.min()) for c in self.vertices.T]
        return float(np.linalg.norm(span))

    def boundary_tags(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for _vs, tag in self.boundary_facets:
            seen.setdefault(tag, None)
        return tuple(seen)


@dataclass(frozen=True)
class InterfaceEntities:
    """Interface entities of a split mesh as read-only arrays, one row each.

    An entity is a mesh edge on a 2D fracture (k = 2 nodes) or a duplicated
    vertex in 1D (k = 1). ``fracture_id`` (m,) names its fracture.
    ``node_pairs`` (m, k, 2) holds each node's side-1 copy (lower subdomain
    id, ties broken by lower cell id) in ``[..., 0]`` and its side-2 copy in
    ``[..., 1]``. ``points`` (m, k, d) and ``apertures`` (m, k) are taken at
    the nodes, ``normal`` (m, d) is the unit normal from side 1 into side 2
    (+1 in 1D) and ``length`` (m,) the edge length (1 for a point). Indexing
    with a slice, mask or index array gives those rows as a new record.
    """

    fracture_id: np.ndarray
    node_pairs: np.ndarray
    points: np.ndarray
    apertures: np.ndarray
    normal: np.ndarray
    length: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _readonly(np.asarray(getattr(self, f.name))))

    def __len__(self) -> int:
        return len(self.fracture_id)

    def __getitem__(self, rows) -> InterfaceEntities:
        return InterfaceEntities(*(getattr(self, f.name)[rows] for f in fields(self)))


@dataclass(frozen=True)
class SplitMesh:
    """A mesh whose fracture vertices have been duplicated per side.

    ``base`` holds the duplicated vertex set; ``vertex_origin[v]`` maps each
    vertex back to the pre-split vertex it was copied from (identity for
    untouched vertices). Degrees of freedom are the vertices of ``base``.
    ``interface_edges`` is the one ``InterfaceEntities`` record of every
    interface edge (2D) or point (1D), the rows of each fracture in the
    order of its path.
    """

    base: Mesh
    subdomain_of_cell: np.ndarray
    n_subdomains: int
    interface_edges: InterfaceEntities
    vertex_origin: np.ndarray
    network: FractureNetwork

    def __post_init__(self):
        object.__setattr__(self, "subdomain_of_cell", _readonly(np.asarray(self.subdomain_of_cell, dtype=np.int64)))
        object.__setattr__(self, "vertex_origin", _readonly(np.asarray(self.vertex_origin, dtype=np.int64)))

    @property
    def n_dofs(self) -> int:
        return self.base.n_vertices

    def copies_of(self, origin_vertex: int) -> np.ndarray:
        """All post-split vertex ids that stem from one pre-split vertex."""
        return np.nonzero(self.vertex_origin == origin_vertex)[0]

    def edges_of_fracture(self, fracture_id: int) -> InterfaceEntities:
        """The rows of ``interface_edges`` on one fracture."""
        return self.interface_edges[self.interface_edges.fracture_id == fracture_id]

    def subdomain_of_vertex(self) -> np.ndarray:
        """Subdomain id of each dof (every copy is used by one side only)."""
        sub = np.full(self.n_dofs, -1, dtype=np.int64)
        sub[self.base.cells] = self.subdomain_of_cell[:, None]
        return sub


def build_structured_quad(nx: int, ny: int, lower: Point, upper: Point) -> Mesh:
    """Tensor-product quadrilateral mesh on an axis-aligned rectangle.

    Vertices are numbered row-major (x fastest); cells are counter-clockwise.
    Boundary facets get the tags left/right/bottom/top.
    """
    if nx < 1 or ny < 1:
        raise GeometryError(f"need at least one cell per direction, got nx={nx}, ny={ny}")
    if lower.dim != 2 or upper.dim != 2:
        raise GeometryError("corner points must be 2D")
    if not (upper.x > lower.x and upper.y > lower.y):
        raise GeometryError("upper corner must dominate lower corner")

    xs = np.linspace(lower.x, upper.x, nx + 1)
    ys = np.linspace(lower.y, upper.y, ny + 1)
    return _tensor_quad_mesh(xs, ys)


def _tensor_quad_mesh(xs: np.ndarray, ys: np.ndarray) -> Mesh:
    """Quad mesh from explicit strictly increasing grid lines."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 2 or len(ys) < 2 or np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
        raise GeometryError("grid lines must be strictly increasing with >= 2 entries")
    nx = len(xs) - 1
    ny = len(ys) - 1
    X, Y = np.meshgrid(xs, ys)
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return j * (nx + 1) + i

    i = np.arange(nx)
    j = np.arange(ny)
    I, J = np.meshgrid(i, j)
    v00 = vid(I, J).ravel()
    v10 = vid(I + 1, J).ravel()
    v11 = vid(I + 1, J + 1).ravel()
    v01 = vid(I, J + 1).ravel()
    cells = np.column_stack([v00, v10, v11, v01])

    facets: list[tuple[tuple[int, int], str]] = []
    for ii in range(nx):
        facets.append(((vid(ii, 0), vid(ii + 1, 0)), "bottom"))
    for ii in range(nx):
        facets.append(((vid(ii, ny), vid(ii + 1, ny)), "top"))
    for jj in range(ny):
        facets.append(((vid(0, jj), vid(0, jj + 1)), "left"))
    for jj in range(ny):
        facets.append(((vid(nx, jj), vid(nx, jj + 1)), "right"))
    return Mesh(vertices=vertices, cells=cells, boundary_facets=tuple(facets))


def build_interval(n: int, length: float) -> Mesh:
    """Uniform 1D mesh of ``n`` segments on [0, length]."""
    if n < 1:
        raise GeometryError(f"need at least one cell, got n={n}")
    if not (np.isfinite(length) and length > 0.0):
        raise GeometryError(f"length must be positive, got {length!r}")
    vertices = np.linspace(0.0, length, n + 1).reshape(-1, 1)
    cells = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    facets = (((0,), "left"), ((n,), "right"))
    return Mesh(vertices=vertices, cells=cells, boundary_facets=facets)


class _EdgeTable:
    """Unique undirected edges of a quad mesh with cell incidence.

    Each incidence is a slot ``4 c + k``: local edge k of cell c, running
    from its corner k to corner k + 1 (mod 4), so a slot is also the flat
    index of that first corner in ``cells``. The slots of edge e are
    ``slots[offsets[e]:offsets[e + 1]]``, in cell order.
    """

    def __init__(self, mesh: Mesh):
        cells = mesh.cells
        nv = mesh.n_vertices
        a = cells.ravel()
        b = cells[:, [1, 2, 3, 0]].ravel()
        codes = np.minimum(a, b)
        codes *= nv
        codes += np.maximum(a, b, out=b)
        del b
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        first = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
        self._nv = nv
        self.codes = codes[first]
        self.offsets = np.append(first, len(codes))
        self.slots = order

    def edge_ids(self, a, b) -> np.ndarray:
        """Index of each undirected edge (a[i], b[i]), or -1 if absent."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        code = np.minimum(a, b) * self._nv + np.maximum(a, b)
        idx = np.searchsorted(self.codes, code)
        found = idx < len(self.codes)
        found[found] = self.codes[idx[found]] == code[found]
        return np.where(found, idx, -1)

    def slot(self, edge_ids, i: int = 0) -> np.ndarray:
        """The i-th incidence slot of each edge."""
        return self.slots[self.offsets[edge_ids] + i]

    @property
    def n_edges(self) -> int:
        return len(self.codes)

    def incidence_counts(self) -> np.ndarray:
        return np.diff(self.offsets)


def _slot_ends(slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat ``cells`` indices of the two corners a local-edge slot joins."""
    return slots, slots - slots % 4 + (slots + 1) % 4


def _default_tol(mesh: Mesh) -> float:
    return 1e-12 * max(mesh.diameter(), 1.0)


def check_conformity(mesh: Mesh, network: FractureNetwork, tol: float | None = None):
    """Match each fracture path to a chain of mesh entities.

    Returns one entry per fracture: in 2D an ordered list of vertex-index
    pairs (the mesh edges along the path, oriented along it), in 1D a
    one-element list with the matched vertex id. Raises ConformityError if
    any portion of a path fails to coincide with mesh edges/vertices.
    """
    return _match_paths(mesh, network, tol, _EdgeTable(mesh) if mesh.dim == 2 else None)


def _match_paths(mesh: Mesh, network: FractureNetwork, tol: float | None,
                 table: _EdgeTable | None):
    """``check_conformity`` on the edge table of a 2D mesh (None in 1D)."""
    if tol is None:
        tol = _default_tol(mesh)
    for f in network:
        if f.dim != mesh.dim:
            raise GeometryError(f"fracture dimension {f.dim} does not match mesh dimension {mesh.dim}")

    if mesh.dim == 1:
        chains = []
        coords = mesh.vertices[:, 0]
        for j, frac in enumerate(network):
            s = frac.path[0].x
            hits = np.nonzero(np.abs(coords - s) <= tol)[0]
            if len(hits) == 0:
                raise ConformityError(f"fracture {j}: no mesh vertex at x={s}")
            chains.append([int(hits[0])])
        return chains

    verts = mesh.vertices
    chains = []
    for j, frac in enumerate(network):
        edges: list[tuple[int, int]] = []
        prev_end: int | None = None
        for k, (p, q) in enumerate(zip(frac.path[:-1], frac.path[1:])):
            pa = p.as_array()
            qa = q.as_array()
            seg = qa - pa
            seg_len = float(np.linalg.norm(seg))
            if seg_len <= tol:
                raise GeometryError(f"fracture {j}: degenerate path segment {k}")
            that = seg / seg_len
            # A vertex on the segment lies in its bounding box, widened by tol.
            mid, half = 0.5 * (pa + qa), 0.5 * np.abs(seg) + 2.0 * tol
            near = np.flatnonzero((np.abs(verts[:, 0] - mid[0]) <= half[0])
                                  & (np.abs(verts[:, 1] - mid[1]) <= half[1]))
            t = (verts[near] - pa) @ that
            closest = pa + np.clip(t, 0.0, seg_len)[:, None] * that
            on = np.linalg.norm(verts[near] - closest, axis=1) <= tol
            if np.count_nonzero(on) < 2:
                raise ConformityError(
                    f"fracture {j}, segment {k}: path does not follow mesh vertices"
                )
            order = near[on][np.argsort(t[on], kind="stable")]
            if np.linalg.norm(verts[order[0]] - pa) > tol:
                raise ConformityError(
                    f"fracture {j}, segment {k}: start point {tuple(pa)} is not a mesh vertex"
                )
            if np.linalg.norm(verts[order[-1]] - qa) > tol:
                raise ConformityError(
                    f"fracture {j}, segment {k}: end point {tuple(qa)} is not a mesh vertex"
                )
            if prev_end is not None and int(order[0]) != prev_end:
                raise ConformityError(
                    f"fracture {j}: path segments {k - 1} and {k} do not share a mesh vertex"
                )
            missing = np.flatnonzero(table.edge_ids(order[:-1], order[1:]) < 0)
            if len(missing):
                va, vb = order[missing[0]], order[missing[0] + 1]
                raise ConformityError(
                    f"fracture {j}, segment {k}: no mesh edge between vertices "
                    f"{int(va)} and {int(vb)}; the path crosses cell interiors"
                )
            edges.extend(zip(order[:-1].tolist(), order[1:].tolist()))
            prev_end = int(order[-1])
        chains.append(edges)
    return chains


def split_mesh(mesh: Mesh, network: FractureNetwork, tol: float | None = None) -> SplitMesh:
    """Duplicate fracture vertices per side and label subdomains.

    Every vertex on a fracture path is duplicated once per incident corner
    group: the incident cells, connected to each other around the vertex
    through non-fracture edges. A vertex interior to a single fracture gets
    two copies, a crossing of two fractures up to four. The copy attached to
    the group containing the lowest cell id keeps the original vertex id;
    further copies are appended in deterministic order.

    Raises UnsupportedTopologyError for a fracture tip that lies strictly
    inside a subdomain (touching neither the domain boundary nor another
    fracture), for fractures running along the domain boundary, and for
    overlapping fractures.
    """
    if mesh.dim == 1:
        return _split_mesh_1d(mesh, network, _match_paths(mesh, network, tol, None))
    table = _EdgeTable(mesh)
    return _split_mesh_2d(mesh, network, _match_paths(mesh, network, tol, table), table)


def _split_mesh_1d(mesh: Mesh, network: FractureNetwork, chains) -> SplitMesh:
    nv = mesh.n_vertices
    fr_vertex = np.array([chain[0] for chain in chains], dtype=np.int64)
    repeated = _repeated(fr_vertex)
    if np.any(repeated):
        j = int(np.argmax(repeated))
        v = int(fr_vertex[j])
        raise UnsupportedTopologyError(
            f"fractures {int(np.argmax(fr_vertex == v))} and {j} coincide at vertex {v}")

    # Cell incidences (flat indices 2 c + k into cells) grouped by vertex, in
    # cell order: those of v are order[start[v]:start[v] + count[v]].
    order = np.argsort(mesh.cells.ravel(), kind="stable")
    count = np.bincount(mesh.cells.ravel(), minlength=nv)
    start = np.cumsum(count) - count
    inner = count[fr_vertex] != 2
    if np.any(inner):
        raise UnsupportedTopologyError(
            f"1D fracture vertex {int(fr_vertex[np.argmax(inner)])} must be interior to the mesh")

    # Flood fill over cells; shared non-fracture vertices connect neighbours.
    joining = count == 2
    joining[fr_vertex] = False
    subdomain = _labels_first_encounter(mesh.n_cells, order[start[joining]] // 2,
                                        order[start[joining] + 1] // 2)
    n_sub = int(subdomain.max()) + 1 if mesh.n_cells else 0

    left, right = order[start[fr_vertex]], order[start[fr_vertex] + 1]
    if np.any(subdomain[left // 2] >= subdomain[right // 2]):
        raise UnsupportedTopologyError("1D subdomain ordering violated")
    # The right cell gets the new copy; the left keeps the original id.
    copy_id = nv + np.arange(len(fr_vertex))
    cells = mesh.cells.copy()
    cells.reshape(-1)[right] = copy_id

    fracture_id = np.arange(len(fr_vertex))
    points = mesh.vertices[fr_vertex][:, None, :]
    return SplitMesh(
        base=Mesh(vertices=np.vstack([mesh.vertices, mesh.vertices[fr_vertex]]), cells=cells,
                  boundary_facets=mesh.boundary_facets),
        subdomain_of_cell=subdomain,
        n_subdomains=n_sub,
        interface_edges=InterfaceEntities(
            fracture_id, np.stack([fr_vertex, copy_id], axis=1)[:, None, :], points,
            _apertures(network, fracture_id, points), np.ones((len(fr_vertex), 1)),
            np.ones(len(fr_vertex))),
        vertex_origin=np.concatenate([np.arange(nv, dtype=np.int64), fr_vertex]),
        network=network,
    )


def _repeated(ids: np.ndarray) -> np.ndarray:
    """True where an entry equals an earlier one."""
    repeated = np.ones(len(ids), dtype=bool)
    repeated[np.unique(ids, return_index=True)[1]] = False
    return repeated


def _apertures(network: FractureNetwork, fracture_id: np.ndarray,
               points: np.ndarray) -> np.ndarray:
    """The aperture (m, k) at the entity nodes ``points`` (m, k, d), one
    profile evaluation per fracture."""
    m, k, d = points.shape
    out = np.empty((m, k))
    for j, frac in enumerate(network):
        rows = fracture_id == j
        out[rows] = frac.aperture.at(points[rows].reshape(-1, d)).reshape(-1, k)
    return out


def _labels_first_encounter(n: int, rows, cols) -> np.ndarray:
    """Connected-component labels, renumbered by first occurrence in id order."""
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    graph = coo_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n))
    _count, raw = connected_components(graph, directed=False)
    _uniq, first = np.unique(raw, return_index=True)
    # Rank the components by the smallest member id.
    rank = np.empty(len(_uniq), dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(len(_uniq))
    return rank[raw].astype(np.int64)


def _split_mesh_2d(mesh: Mesh, network: FractureNetwork, chains,
                   table: _EdgeTable) -> SplitMesh:
    cells = mesh.cells
    n_cells = mesh.n_cells
    nv = mesh.n_vertices
    counts = table.incidence_counts()

    # Fracture edges in chain order; reject overlaps and boundary-glued fractures.
    chain_a = np.array([e[0] for chain in chains for e in chain], dtype=np.int64)
    chain_b = np.array([e[1] for chain in chains for e in chain], dtype=np.int64)
    chain_frac = np.repeat(np.arange(len(chains)), [len(chain) for chain in chains])
    eids = table.edge_ids(chain_a, chain_b)
    repeated = _repeated(eids)
    bad = repeated | (counts[eids] != 2)
    if np.any(bad):
        i = int(np.argmax(bad))
        va, vb, j = int(chain_a[i]), int(chain_b[i]), int(chain_frac[i])
        if repeated[i]:
            other = int(chain_frac[np.argmax(eids == eids[i])])
            raise UnsupportedTopologyError(
                f"fractures {other} and {j} overlap on edge ({va}, {vb})")
        raise UnsupportedTopologyError(
            f"fracture {j} runs along the domain boundary at edge ({va}, {vb})")
    on_fracture = np.zeros(table.n_edges, dtype=bool)
    on_fracture[eids] = True

    boundary_vertex = np.zeros(nv, dtype=bool)
    for ends in np.divmod(table.codes[counts == 1], nv):
        boundary_vertex[ends] = True

    # Fracture tips must rest on the boundary or on another fracture edge.
    fr_edge_degree = np.bincount(np.r_[chain_a, chain_b], minlength=nv)
    for j, chain in enumerate(chains):
        for tip in (chain[0][0], chain[-1][1]):
            if fr_edge_degree[tip] <= 1 and not boundary_vertex[tip]:
                raise UnsupportedTopologyError(
                    f"fracture {j} terminates inside a subdomain at vertex {tip}"
                )

    # Subdomains: flood fill over cells joined by non-fracture edges.
    joining = np.flatnonzero((counts == 2) & ~on_fracture)
    slot1, slot2 = table.slot(joining, 0), table.slot(joining, 1)
    subdomain = _labels_first_encounter(n_cells, slot1 // 4, slot2 // 4)
    n_sub = int(subdomain.max()) + 1 if n_cells else 0

    # Corner groups: the corners (cell, fracture vertex) around each
    # fracture vertex, connected through the non-fracture edges at it.
    old_flat = cells.ravel()
    is_fr_vertex = np.zeros(nv, dtype=bool)
    is_fr_vertex[chain_a] = True
    is_fr_vertex[chain_b] = True
    corner_at = np.flatnonzero(is_fr_vertex[old_flat])   # sorted: corner number = position
    # Corner k of the first cell meets corner (k or k + 1) of the second
    # cell that holds the same vertex. Only edges at a fracture vertex link.
    ends1 = _slot_ends(slot1)
    near = is_fr_vertex[old_flat[ends1[0]]] | is_fr_vertex[old_flat[ends1[1]]]
    ends1, ends2 = _slot_ends(slot1[near]), _slot_ends(slot2[near])
    aligned = old_flat[ends1[0]] == old_flat[ends2[0]]
    links = np.concatenate([
        np.stack([ends1[0], np.where(aligned, ends2[0], ends2[1])]),
        np.stack([ends1[1], np.where(aligned, ends2[1], ends2[0])]),
    ], axis=1)
    links = np.searchsorted(corner_at, links[:, is_fr_vertex[old_flat[links[0]]]])
    n_groups, group = connected_components(
        coo_matrix((np.ones(links.shape[1], dtype=np.int8), (links[0], links[1])),
                   shape=(len(corner_at), len(corner_at))), directed=False)
    # Each group's vertex and lowest cell (corners are in cell order).
    _uniq, first = np.unique(group, return_index=True)
    group_vertex = old_flat[corner_at[first]]
    group_order = np.lexsort((corner_at[first] // 4, group_vertex))
    sorted_vertex = group_vertex[group_order]
    starts = np.flatnonzero(np.diff(sorted_vertex, prepend=-1))
    lonely = np.diff(np.append(starts, n_groups)) < 2
    if np.any(lonely):
        raise UnsupportedTopologyError(
            f"fracture vertex {int(sorted_vertex[starts[np.argmax(lonely)]])} "
            "does not separate its neighbourhood")
    # The group with the lowest cell keeps the vertex id; the others get new
    # ids by vertex, then by lowest cell.
    rank = np.arange(n_groups) - np.repeat(starts, np.diff(np.append(starts, n_groups)))
    copied = group_order[rank > 0]
    group_id = group_vertex.copy()
    group_id[copied] = nv + np.arange(len(copied))
    new_cells = cells.copy()
    new_flat = new_cells.reshape(-1)
    new_flat[corner_at] = group_id[group]

    def copy_at(v: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """The split id of each v in the cell of its slot, v an end of that local edge."""
        start, end = _slot_ends(slots)
        return new_flat[np.where(old_flat[start] == v, start, end)]

    # Boundary facets follow their owning cell's copies.
    facet_vs = np.array([vs for vs, _tag in mesh.boundary_facets],
                        dtype=np.int64).reshape(-1, 2)
    facet_ids = table.edge_ids(facet_vs[:, 0], facet_vs[:, 1])
    unowned = (facet_ids < 0) | (counts[facet_ids] != 1)
    if np.any(unowned):
        vs = mesh.boundary_facets[int(np.argmax(unowned))][0]
        raise GeometryError(f"boundary facet {vs} is not owned by exactly one cell")
    owner = table.slot(facet_ids)
    facets = tuple(zip(zip(copy_at(facet_vs[:, 0], owner).tolist(),
                           copy_at(facet_vs[:, 1], owner).tolist()),
                       (tag for _vs, tag in mesh.boundary_facets)))

    origin_extra = group_vertex[copied]
    base = Mesh(vertices=np.vstack([mesh.vertices, mesh.vertices[origin_extra]]),
                cells=new_cells, boundary_facets=facets)
    vertex_origin = np.concatenate([np.arange(nv, dtype=np.int64), origin_extra])

    # Interface edges: side 1 is the cell with the lower (subdomain, cell id).
    s1, s2 = table.slot(eids, 0), table.slot(eids, 1)
    swap = subdomain[s2 // 4] < subdomain[s1 // 4]       # s1's cell id is the lower
    s1, s2 = np.where(swap, s2, s1), np.where(swap, s1, s2)
    ends = np.stack([chain_a, chain_b], axis=1)
    points = mesh.vertices[ends]
    tangent = points[:, 1] - points[:, 0]
    length = np.sqrt(tangent[:, 0] * tangent[:, 0] + tangent[:, 1] * tangent[:, 1])
    normal = np.column_stack([-tangent[:, 1], tangent[:, 0]]) / length[:, None]
    centroids = mesh.vertices[cells[np.stack([s1 // 4, s2 // 4])]].mean(axis=2)
    flip = np.einsum("ij,ij->i", normal, centroids[1] - centroids[0]) < 0.0
    normal[flip] = -normal[flip]
    node_pairs = np.stack([copy_at(ends, s1[:, None]), copy_at(ends, s2[:, None])], axis=2)

    return SplitMesh(
        base=base,
        subdomain_of_cell=subdomain,
        n_subdomains=n_sub,
        interface_edges=InterfaceEntities(chain_frac, node_pairs, points,
                                          _apertures(network, chain_frac, points),
                                          normal, length),
        vertex_origin=vertex_origin,
        network=network,
    )
