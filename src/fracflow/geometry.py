"""Meshes, fracture descriptions, conformity checking and interface splitting.

Fractures are lower-dimensional objects (polylines in 2D, points in 1D) that
must coincide with mesh facets: edges in 2D, vertices in 1D. ``split_mesh``
duplicates the mesh vertices on each fracture facet so the two sides carry
independent degrees of freedom, labels the resulting subdomains, and records
the interface entities the assembly stage needs, in one code path for both
dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Union

import numpy as np

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
    "components",
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

    def at(self, s: np.ndarray | float) -> np.ndarray:
        """Aperture at each arc length s along the fracture, in the shape of s."""
        return np.full(np.shape(s), self.value)

    @property
    def max_value(self) -> float:
        return self.value


@dataclass(frozen=True)
class EllipticalAperture:
    """Aperture profile of a flat elliptical inclusion along its fracture.

    ``center`` is the arc length of the widest point along the fracture,
    ``major`` the full extent along the fracture and ``minor`` the maximal
    opening (at the center). The width at arc length s is ``minor *
    sqrt(1 - ((s - center) / (major/2))**2)``, clamped to zero outside.
    """

    center: float
    major: float
    minor: float

    def __post_init__(self):
        if not np.isfinite(self.center):
            raise GeometryError(f"aperture centre must be finite, got {self.center!r}")
        if not (np.isfinite(self.major) and self.major > 0.0):
            raise GeometryError(f"major axis must be positive, got {self.major!r}")
        if not (np.isfinite(self.minor) and self.minor > 0.0):
            raise GeometryError(f"minor axis must be positive, got {self.minor!r}")

    def at(self, s: np.ndarray | float) -> np.ndarray:
        """Aperture at each arc length s along the fracture, in the shape of s."""
        ratio = np.abs(np.asarray(s, dtype=float) - self.center) / (0.5 * self.major)
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


@dataclass(frozen=True, eq=False)
class Mesh:
    """Conforming mesh: segments in 1D, quadrilaterals (CCW) in 2D.

    ``boundary_facets`` (f, k) int64 holds the vertex ids of each boundary
    facet, k = 1 in 1D and 2 in 2D, and ``facet_tags`` (f,) its tag string;
    each facet must be owned by exactly one cell. All four are stored as
    read-only arrays, the caller's own where no dtype or layout conversion
    is needed (it becomes read-only too); an empty facet set is (0, k).
    Meshes, like the other records of the package that hold arrays, compare
    and hash by identity.
    """

    vertices: np.ndarray
    cells: np.ndarray
    boundary_facets: np.ndarray
    facet_tags: np.ndarray

    def __post_init__(self):
        verts = _readonly(np.asarray(self.vertices, dtype=float))
        cells = _readonly(np.asarray(self.cells, dtype=np.int64))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "cells", cells)
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
        facets = np.asarray(self.boundary_facets, dtype=np.int64)
        tags = np.asarray(self.facet_tags, dtype=str)
        if facets.shape == (0,):                       # an empty list
            facets = facets.reshape(0, verts.shape[1])
        if facets.ndim != 2 or facets.shape[1] != verts.shape[1]:
            raise GeometryError(f"boundary facets must be (f, {verts.shape[1]}) for dim "
                                f"{verts.shape[1]}, got {facets.shape}")
        if facets.size and (facets.min() < 0 or facets.max() >= len(verts)):
            raise GeometryError("boundary facet references a vertex out of range")
        if tags.shape != (len(facets),):
            raise GeometryError(f"need one tag per boundary facet ({len(facets)}), "
                                f"got {tags.shape}")
        object.__setattr__(self, "boundary_facets", _readonly(facets))
        object.__setattr__(self, "facet_tags", _readonly(tags))

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
        """The facet tags in order of first appearance."""
        tags, first = np.unique(self.facet_tags, return_index=True)
        return tuple(tags[np.argsort(first)].tolist())


@dataclass(frozen=True, eq=False)
class InterfaceEntities:
    """Interface entities of a split mesh as read-only arrays, one row each.

    An entity is a mesh facet on a fracture: an edge in 2D (k = 2 nodes) or
    a vertex in 1D (k = 1). ``fracture_id`` (m,) names its fracture.
    ``node_pairs`` (m, k, 2) holds each node's side-1 copy (lower subdomain
    id, ties broken by lower cell id) in ``[..., 0]`` and its side-2 copy in
    ``[..., 1]``. ``points`` (m, k, d) are the nodes and ``length`` (m,) is
    the edge length (1 for a point). ``arc`` (m, k) is the arc length of
    each node along its fracture path, measured from the path's first point
    (0 for a point), and ``apertures`` (m, k) the fracture's aperture at
    the nodes' arc lengths.
    Indexing with a slice, mask or index array gives those rows as a new
    record. A caller's array that needs no layout conversion is kept and made
    read-only.
    """

    fracture_id: np.ndarray
    node_pairs: np.ndarray
    points: np.ndarray
    apertures: np.ndarray
    length: np.ndarray
    arc: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _readonly(np.asarray(getattr(self, f.name))))

    def __len__(self) -> int:
        return len(self.fracture_id)

    def __getitem__(self, rows) -> InterfaceEntities:
        return InterfaceEntities(*(getattr(self, f.name)[rows] for f in fields(self)))


@dataclass(frozen=True, eq=False)
class SplitMesh:
    """A mesh whose fracture vertices have been duplicated per side.

    ``base`` holds the duplicated vertex set; ``vertex_origin[v]`` maps each
    vertex back to the pre-split vertex it was copied from (identity for
    untouched vertices). Degrees of freedom are the vertices of ``base``.
    ``base.boundary_facets`` are the facets of the unsplit mesh, in the same
    order and with the same ``facet_tags``, each vertex replaced by its copy
    in the cell that owns the facet. ``interface_edges`` is the one
    ``InterfaceEntities`` record of every fracture facet, an edge in 2D and
    a point in 1D: the (m_j, d) ``check_conformity`` chains concatenated in
    fracture order. Within a fracture the rows follow its path, so the last
    node of row i is the first node of row i + 1.
    ``subdomain_of_cell`` and ``vertex_origin`` are read-only int64 arrays,
    the caller's own (made read-only) where no conversion is needed.
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
    Boundary facets are the bottom, top, left and right edges, in that order
    and each run in increasing vertex order, tagged by their side.
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

    along_x = np.column_stack([vid(i, 0), vid(i + 1, 0)])     # the bottom row
    along_y = np.column_stack([vid(0, j), vid(0, j + 1)])     # the left column
    facets = np.concatenate([along_x, along_x + vid(0, ny), along_y, along_y + nx])
    tags = np.repeat(["bottom", "top", "left", "right"], [nx, nx, ny, ny])
    return Mesh(vertices, cells, facets, tags)


def build_interval(n: int, length: float) -> Mesh:
    """Uniform 1D mesh of ``n`` segments on [0, length]."""
    if n < 1:
        raise GeometryError(f"need at least one cell, got n={n}")
    if not (np.isfinite(length) and length > 0.0):
        raise GeometryError(f"length must be positive, got {length!r}")
    vertices = np.linspace(0.0, length, n + 1).reshape(-1, 1)
    cells = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    return Mesh(vertices, cells, [[0], [n]], ["left", "right"])


class _FacetTable:
    """Unique facets of a mesh with their cells: vertices in 1D, undirected
    edges in 2D.

    Local facet k of a cell with r corners runs from its corner k to corner
    k + d - 1 (mod r), d the dimension: in 1D that is corner k itself. Facet
    e joins the vertices ``divmod(codes[e], nv)``, and its cells are
    ``cell(e, i)`` for i < ``offsets[e + 1] - offsets[e]``, in cell order,
    as int32 like the cell ids ``components`` takes.
    """

    def __init__(self, mesh: Mesh):
        cells = mesh.cells
        nv = mesh.n_vertices
        r = cells.shape[1]
        a = cells.ravel()
        b = cells[:, (np.arange(r) + mesh.dim - 1) % r].ravel()
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
        order //= r
        self._cells = order.astype(np.int32)

    def facet_ids(self, facets) -> np.ndarray:
        """Index of the facet of each row of vertex ids (f, d), or -1 if absent."""
        facets = np.asarray(facets, dtype=np.int64)
        a, b = facets[:, 0], facets[:, -1]
        code = np.minimum(a, b) * self._nv + np.maximum(a, b)
        idx = np.searchsorted(self.codes, code)
        found = idx < len(self.codes)
        found[found] = self.codes[idx[found]] == code[found]
        return np.where(found, idx, -1)

    def cell(self, facet_ids, i: int = 0) -> np.ndarray:
        """The i-th cell of each facet."""
        return self._cells[self.offsets[facet_ids] + i]


def _default_tol(mesh: Mesh) -> float:
    return 1e-12 * max(mesh.diameter(), 1.0)


def check_conformity(mesh: Mesh, network: FractureNetwork) -> list[np.ndarray]:
    """Match each fracture path to a chain of mesh facets.

    Returns one (m_j, d) int64 array per fracture, d the mesh dimension: the
    vertex ids of the facets along the path, in path order and each oriented
    along it. A facet is an edge in 2D and a vertex in 1D, where a fracture
    point gives a (1, 1) chain. Raises ConformityError if any portion of a
    path fails to coincide with mesh facets.
    """
    chains, fracture_id, _arc = _match_paths(mesh, network, _FacetTable(mesh))
    return [chains[fracture_id == j] for j in range(len(network))]


def _match_paths(mesh: Mesh, network: FractureNetwork,
                 table: _FacetTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``check_conformity`` on the facet table of the mesh: the chains of all
    fractures concatenated in fracture order, (m, d), the fracture id (m,)
    of each row, and the arc length (m, d) of each facet vertex from its
    path's first point."""
    tol = _default_tol(mesh)
    for f in network:
        if f.dim != mesh.dim:
            raise GeometryError(f"fracture dimension {f.dim} does not match mesh dimension {mesh.dim}")

    verts = mesh.vertices
    d = mesh.dim
    facets = [np.empty((0, d), dtype=np.int64)]
    owner = [np.empty(0, dtype=np.int64)]
    arcs = [np.empty((0, d))]
    for j, frac in enumerate(network):
        # A 1D point is matched as the one piece from the point to itself.
        path = frac.path if len(frac.path) > 1 else frac.path * 2
        prev_end: int | None = None
        prefix = 0.0                              # the length of the earlier segments
        for k, (p, q) in enumerate(zip(path[:-1], path[1:])):
            pa = p.as_array()
            qa = q.as_array()
            seg = qa - pa
            seg_len = float(np.linalg.norm(seg))
            if 0.0 < seg_len <= tol:
                raise GeometryError(f"fracture {j}: degenerate path segment {k}")
            # The unit tangent; a point's is zero, so its every t is 0.
            that = seg / max(seg_len, tol)
            # A vertex on the segment lies in its bounding box, widened by tol.
            mid, half = 0.5 * (pa + qa), 0.5 * np.abs(seg) + 2.0 * tol
            near = np.flatnonzero(np.logical_and.reduce(
                [np.abs(x - m) <= h for x, m, h in zip(verts.T, mid, half)]))
            t = (verts[near] - pa) @ that
            along = np.clip(t, 0.0, seg_len)
            on = np.linalg.norm(verts[near] - (pa + along[:, None] * that), axis=1) <= tol
            if np.count_nonzero(on) < d:
                raise ConformityError(
                    f"fracture {j}, segment {k}: path does not follow mesh vertices"
                )
            matched = np.flatnonzero(on)[np.argsort(t[on], kind="stable")]
            order = near[matched]
            if np.linalg.norm(verts[order[0]] - pa) > tol:
                raise ConformityError(
                    f"fracture {j}, segment {k}: start point {tuple(pa.tolist())} "
                    "is not a mesh vertex"
                )
            if np.linalg.norm(verts[order[-1]] - qa) > tol:
                raise ConformityError(
                    f"fracture {j}, segment {k}: end point {tuple(qa.tolist())} "
                    "is not a mesh vertex"
                )
            if prev_end is not None and int(order[0]) != prev_end:
                raise ConformityError(
                    f"fracture {j}: path segments {k - 1} and {k} do not share a mesh vertex"
                )
            # The facets are the windows of d consecutive matched vertices.
            window = np.arange(len(order) + 1 - d)[:, None] + np.arange(d)
            windows = order[window]
            missing = np.flatnonzero(table.facet_ids(windows) < 0)
            if len(missing):
                raise ConformityError(
                    f"fracture {j}, segment {k}: no mesh facet "
                    f"{tuple(windows[missing[0]].tolist())}; the path crosses cell interiors"
                )
            facets.append(windows)
            owner.append(np.full(len(windows), j))
            arcs.append(prefix + along[matched][window])
            prev_end = int(order[-1])
            prefix += seg_len
    return np.concatenate(facets), np.concatenate(owner), np.concatenate(arcs)


def split_mesh(mesh: Mesh, network: FractureNetwork) -> SplitMesh:
    """Duplicate fracture vertices per side and label subdomains.

    Every vertex on a fracture facet is duplicated once per incident corner
    group: the incident cells, connected to each other around the vertex
    through non-fracture facets. A vertex interior to a single fracture, and
    a 1D fracture point, get two copies, a crossing of two fractures up to
    four. The copy attached to the group containing the lowest cell id
    keeps the original vertex id; further copies are appended in order of
    vertex, then of lowest cell.

    Raises UnsupportedTopologyError for a fracture tip that lies strictly
    inside a subdomain (touching neither the domain boundary nor another
    fracture), for fractures on the domain boundary, and for overlapping
    fractures.
    """
    table = _FacetTable(mesh)
    chains, chain_frac, arc = _match_paths(mesh, network, table)
    cells = mesh.cells
    nv = mesh.n_vertices
    r = cells.shape[1]
    counts = np.diff(table.offsets)

    def corner(v: np.ndarray, c: np.ndarray) -> np.ndarray:
        """The flat ``cells`` index of each vertex v in its cell c, in intp
        since ``c`` is an int32 cell id."""
        return c.astype(np.intp) * r + np.argmax(cells[c] == v[..., None], axis=-1)

    # Fracture facets in chain order; reject overlaps and boundary-glued fractures.
    eids = table.facet_ids(chains)
    repeated = np.ones(len(eids), dtype=bool)                # a facet met before
    repeated[np.unique(eids, return_index=True)[1]] = False
    bad = repeated | (counts[eids] != 2)
    if np.any(bad):
        i = int(np.argmax(bad))
        facet, j = tuple(chains[i].tolist()), int(chain_frac[i])
        if repeated[i]:
            other = int(chain_frac[np.argmax(eids == eids[i])])
            raise UnsupportedTopologyError(
                f"fractures {other} and {j} overlap on facet {facet}")
        raise UnsupportedTopologyError(
            f"fracture {j} runs along the domain boundary at facet {facet}")

    boundary_vertex = np.zeros(nv, dtype=bool)
    for ends in np.divmod(table.codes[counts == 1], nv):
        boundary_vertex[ends] = True

    # Fracture tips, the start and the end of each chain, must rest on the
    # boundary or on another fracture facet. A 1D point is both ends of its
    # facet, so it is never a tip.
    fr_facet_degree = np.bincount(chains[:, [0, -1]].ravel(), minlength=nv)
    head = np.searchsorted(chain_frac, np.arange(len(network)))
    tail = np.searchsorted(chain_frac, np.arange(len(network)), side="right") - 1
    tips = np.column_stack([chains[head, 0], chains[tail, -1]]).ravel()
    loose = (fr_facet_degree[tips] <= 1) & ~boundary_vertex[tips]
    if np.any(loose):
        i = int(np.argmax(loose))
        raise UnsupportedTopologyError(
            f"fracture {i // 2} terminates inside a subdomain at vertex {int(tips[i])}")

    # Subdomains: flood fill over cells joined by non-fracture facets.
    joining = counts == 2
    joining[eids] = False
    joining = np.flatnonzero(joining)
    subdomain = components(mesh.n_cells, table.cell(joining, 0), table.cell(joining, 1))
    n_sub = int(subdomain.max()) + 1 if mesh.n_cells else 0

    # Corner groups: the corners (cell, fracture vertex) around each
    # fracture vertex, connected through the non-fracture facets at it.
    old_flat = cells.ravel()
    is_fr_vertex = np.zeros(nv, dtype=bool)
    is_fr_vertex[chains] = True
    corner_at = np.flatnonzero(is_fr_vertex[old_flat])   # sorted: corner number = position
    # A joining facet links its fracture vertices' corners in its two cells.
    # Its ends a <= b come from its code, b in place: one per joining facet.
    b = table.codes[joining]
    a = b // nv
    b %= nv
    near = is_fr_vertex[a] | is_fr_vertex[b]
    joining, a, b = joining[near], a[near], b[near]
    v = np.concatenate([a, b])
    at = is_fr_vertex[v]
    linked = np.tile([table.cell(joining, 0), table.cell(joining, 1)], 2)[:, at]
    links = np.searchsorted(corner_at, corner(v[at], linked))
    group = components(len(corner_at), links[0], links[1])
    # Each group's vertex and lowest cell (corners are in cell order).
    _uniq, first = np.unique(group, return_index=True)
    n_groups = len(first)
    group_vertex = old_flat[corner_at[first]]
    group_order = np.lexsort((corner_at[first] // r, group_vertex))
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

    # Boundary facets follow their owning cell's copies.
    facets = mesh.boundary_facets
    facet_ids = table.facet_ids(facets)
    unowned = (facet_ids < 0) | (counts[facet_ids] != 1)
    if np.any(unowned):
        vs = tuple(facets[int(np.argmax(unowned))].tolist())
        raise GeometryError(f"boundary facet {vs} is not owned by exactly one cell")
    boundary = new_flat[corner(facets, table.cell(facet_ids)[:, None])]

    # Interface facets: side 1 is the cell with the lower (subdomain, cell id).
    c1, c2 = table.cell(eids, 0), table.cell(eids, 1)
    swap = subdomain[c2] < subdomain[c1]                 # c1 is the lower cell id
    c1, c2 = np.where(swap, c2, c1), np.where(swap, c1, c2)
    node_pairs = np.stack([new_flat[corner(chains, c[:, None])] for c in (c1, c2)], axis=2)
    # The facet table and the per-facet arrays go before the split mesh and
    # its records are built, so that they do not add to its peak.
    del table, counts, fr_facet_degree, joining, near, links

    origin_extra = group_vertex[copied]
    base = Mesh(np.vstack([mesh.vertices, mesh.vertices[origin_extra]]), new_cells,
                boundary, mesh.facet_tags)
    vertex_origin = np.concatenate([np.arange(nv, dtype=np.int64), origin_extra])
    points = mesh.vertices[chains]
    # An edge's length; a point has no tangent and the empty product 1.
    tangent = np.diff(points, axis=1)
    length = np.prod(np.sqrt(np.sum(tangent * tangent, axis=2)), axis=1)

    return SplitMesh(
        base=base,
        subdomain_of_cell=subdomain,
        n_subdomains=n_sub,
        interface_edges=InterfaceEntities(chain_frac, node_pairs, points,
                                          _apertures(network, chain_frac, arc), length, arc),
        vertex_origin=vertex_origin,
        network=network,
    )


def _apertures(network: FractureNetwork, fracture_id: np.ndarray,
               arc: np.ndarray) -> np.ndarray:
    """The aperture (m, k) at the entity nodes' arc lengths ``arc`` (m, k),
    one profile evaluation per fracture."""
    out = np.empty(arc.shape)
    for j, frac in enumerate(network):
        rows = fracture_id == j
        out[rows] = frac.aperture.at(arc[rows])
    return out


def components(n: int, a, b) -> np.ndarray:
    """Connected-component label (n,) int32 of each node of the undirected
    graph on nodes 0..n-1 with edges (a[i], b[i]), components numbered in
    order of their smallest node.

    Hook and compress (Shiloach & Vishkin, J. Algorithms 3, 1982): each
    round hooks the larger root of every edge between two trees under the
    smallest root it meets, then replaces each parent by its parent until
    every node points at its root. A parent is never larger than its
    child, so each root is its component's smallest node. A root with a
    neighbouring tree either hooks, or sees every neighbour hook under a
    smaller root and hooks in the next round, so every two rounds at least
    halve the trees of each component.
    """
    parent = np.arange(n, dtype=np.int32)
    a = np.asarray(a, dtype=np.int32)
    b = np.asarray(b, dtype=np.int32)
    while True:
        joins = a != b                   # a and b are roots: nodes at the first round
        if not joins.any():
            break
        a, b = a[joins], b[joins]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        a, b = parent[a], parent[b]
    number = np.cumsum(parent == np.arange(n, dtype=np.int32), dtype=np.int32)
    number -= 1
    return number[parent]
