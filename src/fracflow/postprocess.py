"""Solution extraction: profiles, interface values, boundary fluxes, CSV output.

Sampling works on the split mesh, so a profile crossing a duplicated line
averages the containing cells on both sides and returns the side mean there.
Fracture profiles read the split's interface record, whose rows follow each
fracture's path, at the arc positions the split measured; a node between two
edges with different pairs, at a crossing, takes the mean of the two.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .assembly import LinearSystem
from .elements import q1_dshape, q1_shape
from .errors import GeometryError
from .geometry import CELL_BLOCK, Mesh, Point, SplitMesh, _default_tol

__all__ = [
    "Profile",
    "sample_profile",
    "fracture_pressure",
    "fracture_jump",
    "boundary_flux",
    "mass_balance_defect",
    "profile_error",
    "write_profile_csv",
    "write_fracture_csv",
    "write_solution_csv",
]


@dataclass(frozen=True, eq=False)
class Profile:
    """Sampled scalar along a curve: arc length, coordinates, values."""

    s: np.ndarray
    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        pts = np.asarray(self.points, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if pts.ndim != 2 or len(s) != len(pts) or len(s) != len(vals):
            raise GeometryError("profile arrays must have matching lengths")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return len(self.s)


def _invert_bilinear(X: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Reference coordinates (m, 2) of the points p (m, 2) in the bilinear
    cells X (m, 4, 2), by Newton steps from the cell centre; each pair stops
    once its residual is at roundoff."""
    xi = np.zeros((len(p), 2))
    stop = 1e-14 + 1e-14 * np.abs(X).max(axis=(1, 2))
    active = np.arange(len(p))
    for _ in range(30):
        r = np.einsum("am,mad->md", q1_shape(xi[active].T), X[active]) - p[active]
        moving = ~(np.abs(r).max(axis=1) < stop[active])
        active, r = active[moving], r[moving]
        if not len(active):
            break
        J = np.einsum("aim,mad->mdi", q1_dshape(xi[active].T), X[active])   # transposed Jacobian
        xi[active] -= np.linalg.solve(J, r[:, :, None])[:, :, 0]
    return xi


def _candidate_pairs(mesh: Mesh, pts: np.ndarray, pad: float) -> tuple[np.ndarray, np.ndarray]:
    """(point, cell) pairs whose sample point lies in the cell's bounding box
    widened by pad, ordered by point and then by ascending cell.

    The samples are evenly spaced along a segment, so each of their
    coordinates is monotone in the sample index: the samples inside a slab
    lo <= x_d <= hi are one run of indices, found by binary search, and
    those inside a box are the overlap of its slabs' runs. Cells whose slab
    misses the segment's extent are dropped axis by axis, the segment's
    narrowest axis first, so later axes only read the cells that are left.
    """
    n = len(pts)
    low, high = pts.min(axis=0), pts.max(axis=0)
    axes = np.argsort(high - low, kind="stable").tolist()
    points, cells = [], []
    for start in range(0, mesh.n_cells, CELL_BLOCK):
        rows = mesh.cells[start:start + CELL_BLOCK]
        cell = np.arange(start, start + len(rows))
        slabs = []
        for d in axes:
            # Gathers from one column are some 2x faster than vertices[i, d].
            column = mesh.vertices[:, d]
            x = [column[rows[:, a]] for a in range(rows.shape[1])]
            lo = functools.reduce(np.minimum, x) - pad
            hi = functools.reduce(np.maximum, x) + pad
            keep = np.flatnonzero((lo <= high[d]) & (hi >= low[d]))
            rows, cell = rows[keep], cell[keep]
            slabs = [(e, lo_e[keep], hi_e[keep]) for e, lo_e, hi_e in slabs]
            slabs.append((d, lo[keep], hi[keep]))
        first = np.zeros(len(cell), dtype=np.intp)
        stop = np.full(len(cell), n, dtype=np.intp)
        for d, lo, hi in slabs:
            coord = pts[:, d]
            if coord[-1] < coord[0]:           # falling: search the mirrored axis
                coord, lo, hi = -coord, -hi, -lo
            np.maximum(first, np.searchsorted(coord, lo, "left"), out=first)
            np.minimum(stop, np.searchsorted(coord, hi, "right"), out=stop)
        count = np.maximum(stop - first, 0)
        offset = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        points.append(np.repeat(first, count) + offset)
        cells.append(np.repeat(cell, count))
    point, cell = np.concatenate(points), np.concatenate(cells)
    order = np.argsort(point, kind="stable")
    return point[order], cell[order]


def _sample(split: SplitMesh, values: np.ndarray, pts: np.ndarray, tol: float) -> np.ndarray:
    """Values at the points pts (m, dim), evenly spaced along a segment.

    A point's candidate cells are those whose bounding box, widened by tol,
    contains it. Each (point, candidate) pair gets its local coordinate:
    closed-form on a segment, by Newton steps on a quad. The cells whose
    clipped image lies within tol of the point contain it, and the point
    takes the mean of their values, summed in ascending cell order.
    """
    mesh = split.base
    # A contained point lies within tol of a point the corners interpolate,
    # and rounding may put that one a few ulps outside the corners' box.
    pad = tol + 64 * np.finfo(float).eps * (1.0 + float(np.abs(pts).max()))
    point, cell = _candidate_pairs(mesh, pts, pad)
    X = mesh.vertices[mesh.cells[cell]]
    p = pts[point]
    if mesh.dim == 1:
        a, b = X[:, 0, 0], X[:, 1, 0]
        t = np.clip((p[:, 0] - a) / (b - a), 0.0, 1.0)
        N = np.array([1.0 - t, t])
    else:
        N = q1_shape(np.clip(_invert_bilinear(X, p), -1.0, 1.0).T)
    hit = np.linalg.norm(np.einsum("am,mad->md", N, X) - p, axis=1) <= tol
    count = np.bincount(point[hit], minlength=len(pts))
    if not np.all(count):
        outside = tuple(pts[np.argmin(count)].tolist())
        raise GeometryError(f"sample point {outside} lies outside the mesh")
    value = np.einsum("am,ma->m", N[:, hit], values[mesh.cells[cell[hit]]])
    return np.bincount(point[hit], weights=value, minlength=len(pts)) / count


def sample_profile(split: SplitMesh, values: np.ndarray, start: Point, end: Point,
                   n_samples: int) -> Profile:
    """Sample a nodal field along the segment start-end at n_samples points.

    Points on duplicated interface lines average both sides. Raises
    GeometryError unless both endpoints have the mesh's dimension, or if any
    sample point is not covered by a cell.
    """
    if n_samples < 2:
        raise GeometryError(f"n_samples must be >= 2, got {n_samples}")
    values = _field(split, values)
    dim = split.base.dim
    if start.dim != dim or end.dim != dim:
        raise GeometryError(f"profile endpoints are {start.dim}D and {end.dim}D; "
                            f"the mesh is {dim}D")
    a = start.as_array()
    b = end.as_array()
    length = float(np.linalg.norm(b - a))
    if length == 0.0:
        raise GeometryError("profile endpoints coincide")
    s = np.linspace(0.0, length, n_samples)
    pts = a[None, :] + (s / length)[:, None] * (b - a)[None, :]
    return Profile(s=s, points=pts, values=_sample(split, values, pts, _default_tol(split.base)))


def _field(split: SplitMesh, values) -> np.ndarray:
    """``values`` as floats, one per dof of ``split``."""
    values = np.asarray(values, dtype=float)
    if values.shape != (split.n_dofs,):
        raise GeometryError(f"field has {values.shape} entries, mesh has {split.n_dofs} dofs")
    return values


def _chain_nodes(x: np.ndarray) -> np.ndarray:
    """Values (n, ...) at the nodes of one fracture's chain from the values x
    (m, k, ...) at each entity's nodes. Node i ends edge i - 1 and starts
    edge i and takes the mean of the two; a 1D point is one node."""
    if x.shape[1] == 1:
        return x[:, 0]
    return np.concatenate([x[:1, 0], 0.5 * (x[:-1, 1] + x[1:, 0]), x[-1:, 1]])


def _fracture_nodal(split: SplitMesh, values: np.ndarray, fracture_id: int, combine) -> Profile:
    """``combine(side1, side2)`` of ``values`` at the nodes of one fracture,
    in path order, with their arc positions and points."""
    entities = split.edges_of_fracture(fracture_id)
    if not len(entities):
        raise GeometryError(f"fracture {fracture_id} has no interface entities")
    sides = _field(split, values)[entities.node_pairs]
    return Profile(s=_chain_nodes(entities.arc), points=_chain_nodes(entities.points),
                   values=_chain_nodes(combine(sides[..., 0], sides[..., 1])))


def fracture_pressure(split: SplitMesh, values: np.ndarray, fracture_id: int) -> Profile:
    """Side-mean pressure along a fracture, ordered by arc length."""
    return _fracture_nodal(split, values, fracture_id, lambda a, b: 0.5 * a + 0.5 * b)


def fracture_jump(split: SplitMesh, values: np.ndarray, fracture_id: int) -> Profile:
    """Pressure jump (side 2 minus side 1, along eta) along a fracture."""
    return _fracture_nodal(split, values, fracture_id, lambda a, b: b - a)


def boundary_flux(split: SplitMesh, system: LinearSystem,
                  solution: np.ndarray) -> dict[str, float]:
    """Outward flux through each boundary tag, recovered from the residual.

    Each boundary dof is charged to exactly one tag; a corner dof goes to a
    Dirichlet tag when it touches one, else to a tag carrying Neumann data,
    alphabetical order breaking ties. Fluxes then sum to the (near-zero)
    mass defect. The keys are the tags in order of first appearance.
    """
    solution = np.asarray(solution, dtype=float)
    if solution.shape != (system.n_dofs,):
        raise GeometryError(
            f"solution has {solution.shape} entries, system has {system.n_dofs} dofs")
    residual = system.residual_raw(solution)

    # The order in which the tags claim dofs, and each facet's place in it.
    mesh = split.base
    tags = mesh.boundary_tags()
    claim = sorted(tags, key=lambda t: (0 if t in system.dirichlet_tags
                                        else 1 if t in system.neumann_tags else 2, t))
    sorted_tags, facet_tag = np.unique(mesh.facet_tags, return_inverse=True)
    rank = np.array([claim.index(t) for t in sorted_tags.tolist()], dtype=np.int64)
    facets = mesh.boundary_facets
    owner = np.full(system.n_dofs, len(claim))
    np.minimum.at(owner, facets.ravel(), np.repeat(rank[facet_tag], facets.shape[1]))
    dofs = np.flatnonzero(owner < len(claim))
    # Each tag's dofs summed in ascending order.
    sums = np.bincount(owner[dofs], residual[dofs], minlength=len(claim))
    return {t: float(sums[claim.index(t)]) for t in tags}


def mass_balance_defect(fluxes: dict[str, float]) -> float:
    return abs(sum(fluxes.values()))


def profile_error(candidate: Profile, reference: Profile) -> tuple[float, float]:
    """(arc-averaged l2, max abs) difference of two profiles on shared abscissae."""
    if len(candidate) != len(reference):
        raise GeometryError(
            f"profiles have {len(candidate)} and {len(reference)} samples")
    span = max(abs(reference.s[-1] - reference.s[0]), 1e-300)
    if np.max(np.abs(candidate.s - reference.s)) > 1e-9 * span:
        raise GeometryError("profiles must be sampled at the same arc positions")
    diff = candidate.values - reference.values
    max_err = float(np.max(np.abs(diff)))
    if len(candidate) == 1 or reference.s[-1] == reference.s[0]:
        return max_err, max_err
    sq = diff * diff
    # Trapezoid rule written out: np.trapezoid needs numpy >= 2.0.
    l2 = float(np.sqrt(np.sum(0.5 * (sq[1:] + sq[:-1]) * np.diff(reference.s)) / span))
    return l2, max_err


def _rows(row_format: str, columns) -> str:
    """Text of the rows of ``columns`` (lists of one length), one
    ``row_format`` per row. The formats below give csv.writer's bytes."""
    k, m = len(columns), len(columns[0])
    fields = [None] * (k * m)
    for i, column in enumerate(columns):     # row-major interleave
        fields[i::k] = column
    return row_format * m % tuple(fields)


def _profile_columns(profile: Profile) -> list[list]:
    """s, x, y and value of each sample as lists; y is 0 for 1D points."""
    pts = profile.points
    y = pts[:, 1] if pts.shape[1] > 1 else np.zeros(len(pts))
    return [profile.s.tolist(), pts[:, 0].tolist(), y.tolist(), profile.values.tolist()]


def write_profile_csv(path, profile: Profile) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("s,x,y,p\r\n")
        fh.write(_rows("%.17g,%.17g,%.17g,%.17g\r\n", _profile_columns(profile)))


def write_fracture_csv(path, mean: Profile, jump: Profile) -> None:
    if len(mean) != len(jump) or np.max(np.abs(mean.s - jump.s)) > 0:
        raise GeometryError("mean and jump profiles must share abscissae")
    columns = _profile_columns(mean) + [jump.values.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("s,x,y,p,jump\r\n")
        fh.write(_rows("%.17g,%.17g,%.17g,%.17g,%.17g\r\n", columns))


# Rows of solution.csv formatted per write; bounds the text held in memory.
_SOLUTION_CHUNK = 8192


def write_solution_csv(path, split: SplitMesh, solution: np.ndarray) -> None:
    """One row per dof: vertex id, x, y (0 in 1D), subdomain, pressure.

    Each chunk of rows is formatted from its own slice of the vertices. A
    mesh repeats its coordinates (a structured one has n+1 distinct x and y
    values), so each distinct coordinate of a chunk is formatted once and
    only the pressure is formatted per row. Coordinates are told apart by
    their bits, which keeps -0.0 and 0.0 apart as the per-row format does.
    """
    solution = np.asarray(solution, dtype=float)
    vertices = split.base.vertices
    n, dim = vertices.shape
    subdomain = split.subdomain_of_vertex()
    with open(path, "w", newline="") as fh:
        fh.write("vertex,x,y,subdomain,p\r\n")
        for start in range(0, n, _SOLUTION_CHUNK):
            rows = slice(start, start + _SOLUTION_CHUNK)
            xy = np.zeros((2, len(vertices[rows])))    # x, then y (0 in 1D)
            xy[:dim] = vertices[rows].T
            bits, inverse = np.unique(xy.view(np.int64), return_inverse=True)
            text = np.array(["%.17g" % v for v in bits.view(np.float64).tolist()],
                            dtype=object)[inverse.reshape(xy.shape)]
            fh.write(_rows("%d,%s,%s,%d,%.17g\r\n", [range(n)[rows], *text.tolist(),
                                                      subdomain[rows].tolist(),
                                                      solution[rows].tolist()]))
