"""Solution extraction: profiles, interface values, boundary fluxes, CSV output.

Sampling works on the split mesh, so a profile crossing a duplicated line
averages the containing cells on both sides and returns the side mean there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import LinearSystem
from .errors import ConfigurationError, GeometryError
from .geometry import CELL_BLOCK, Mesh, Point, SplitMesh

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


@dataclass(frozen=True)
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


def _q1_shape(xi: np.ndarray) -> np.ndarray:
    """The four bilinear shape functions at reference coordinates (xi, eta),
    along the first axis; xi is (2,) or (2, m)."""
    return 0.25 * np.array([(1 - xi[0]) * (1 - xi[1]), (1 + xi[0]) * (1 - xi[1]),
                            (1 + xi[0]) * (1 + xi[1]), (1 - xi[0]) * (1 + xi[1])])


def _invert_bilinear(X: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Reference coordinates (m, 2) of the points p (m, 2) in the bilinear
    cells X (m, 4, 2), by Newton steps from the cell centre; each pair stops
    once its residual is at roundoff."""
    xi = np.zeros((len(p), 2))
    stop = 1e-14 + 1e-14 * np.abs(X).max(axis=(1, 2))
    active = np.arange(len(p))
    for _ in range(30):
        x, y = xi[active].T
        r = np.einsum("am,mad->md", _q1_shape(xi[active].T), X[active]) - p[active]
        moving = ~(np.abs(r).max(axis=1) < stop[active])
        active, r, x, y = active[moving], r[moving], x[moving], y[moving]
        if not len(active):
            break
        dN = 0.25 * np.array([
            [-(1 - y), (1 - y), (1 + y), -(1 + y)],
            [-(1 - x), -(1 + x), (1 + x), (1 - x)],
        ])
        J = np.einsum("iam,mad->mdi", dN, X[active])       # transposed Jacobian
        xi[active] -= np.linalg.solve(J, r[:, :, None])[:, :, 0]
    return xi


def _candidate_pairs(mesh: Mesh, pts: np.ndarray, pad: float) -> tuple[np.ndarray, np.ndarray]:
    """(point, cell) pairs whose sample point lies in the cell's bounding box
    widened by pad, ordered by point and then by ascending cell.

    The samples are evenly spaced along a segment, so each of their
    coordinates is monotone in the sample index: the samples inside a slab
    lo <= x_d <= hi are one run of indices, found by binary search, and
    those inside a box are the overlap of its two slabs' runs.
    """
    n = len(pts)
    low, high = pts.min(axis=0), pts.max(axis=0)
    points, cells = [], []
    for start in range(0, mesh.n_cells, CELL_BLOCK):
        block = mesh.cells[start:start + CELL_BLOCK]
        boxes = []
        for d in range(2):
            x = [mesh.vertices[block[:, a], d] for a in range(4)]
            boxes.append((np.minimum(np.minimum(x[0], x[1]), np.minimum(x[2], x[3])) - pad,
                          np.maximum(np.maximum(x[0], x[1]), np.maximum(x[2], x[3])) + pad))
        (lo_x, hi_x), (lo_y, hi_y) = boxes
        cell = np.flatnonzero((lo_x <= high[0]) & (hi_x >= low[0])
                              & (lo_y <= high[1]) & (hi_y >= low[1]))
        first = np.zeros(len(cell), dtype=np.intp)
        stop = np.full(len(cell), n, dtype=np.intp)
        for d, (lo, hi) in enumerate(boxes):
            coord, lo, hi = pts[:, d], lo[cell], hi[cell]
            if coord[-1] < coord[0]:           # falling: search the mirrored axis
                coord, lo, hi = -coord, -hi, -lo
            np.maximum(first, np.searchsorted(coord, lo, "left"), out=first)
            np.minimum(stop, np.searchsorted(coord, hi, "right"), out=stop)
        count = np.maximum(stop - first, 0)
        offset = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        points.append(np.repeat(first, count) + offset)
        cells.append(np.repeat(start + cell, count))
    point, cell = np.concatenate(points), np.concatenate(cells)
    order = np.argsort(point, kind="stable")
    return point[order], cell[order]


def _sample_2d(split: SplitMesh, values: np.ndarray, pts: np.ndarray,
               tol: float) -> np.ndarray:
    """Values at the points pts (m, 2), evenly spaced along a segment.

    A point's candidate cells are those whose bounding box, widened by tol,
    contains it. Each (point, candidate) pair is inverted by Newton steps;
    the cells whose clipped image lies within tol of the point contain it,
    and the point takes the mean of their values, summed in ascending cell
    order.
    """
    mesh = split.base
    # A contained point lies within tol of a point the corners interpolate,
    # and rounding may put that one a few ulps outside the corners' box.
    pad = tol + 64 * np.finfo(float).eps * (1.0 + float(np.abs(pts).max()))
    point, cell = _candidate_pairs(mesh, pts, pad)
    X = mesh.vertices[mesh.cells[cell]]
    p = pts[point]
    N = _q1_shape(np.clip(_invert_bilinear(X, p), -1.0, 1.0).T)
    hit = np.linalg.norm(np.einsum("am,mad->md", N, X) - p, axis=1) <= tol
    count = np.bincount(point[hit], minlength=len(pts))
    if not np.all(count):
        raise GeometryError(f"sample point {tuple(pts[np.argmin(count)])} lies outside the mesh")
    value = np.einsum("am,ma->m", N[:, hit], values[mesh.cells[cell[hit]]])
    return np.bincount(point[hit], weights=value, minlength=len(pts)) / count


def _sample_1d(split: SplitMesh, values: np.ndarray, xs: np.ndarray,
               tol: float) -> np.ndarray:
    mesh = split.base
    x_nodes = mesh.vertices[:, 0]
    a = x_nodes[mesh.cells[:, 0]]
    b = x_nodes[mesh.cells[:, 1]]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    out = np.empty(len(xs))
    for i, x in enumerate(xs):
        mask = (x >= lo - tol) & (x <= hi + tol)
        if not mask.any():
            raise GeometryError(f"sample point {x} lies outside the mesh")
        vals = []
        for ci in np.nonzero(mask)[0]:
            length = b[ci] - a[ci]
            t = 0.5 if length == 0 else np.clip((x - a[ci]) / length, 0.0, 1.0)
            va, vb = values[mesh.cells[ci]]
            vals.append((1.0 - t) * va + t * vb)
        out[i] = float(np.mean(vals))
    return out


def sample_profile(split: SplitMesh, values: np.ndarray, start: Point, end: Point,
                   n_samples: int) -> Profile:
    """Sample a nodal field along the segment start-end at n_samples points.

    Points on duplicated interface lines average both sides. Raises if any
    sample point is not covered by a cell.
    """
    if n_samples < 2:
        raise GeometryError(f"n_samples must be >= 2, got {n_samples}")
    values = np.asarray(values, dtype=float)
    if values.shape != (split.n_dofs,):
        raise GeometryError(
            f"field has {values.shape} entries, mesh has {split.n_dofs} dofs")
    a = start.as_array()
    b = end.as_array()
    if a.shape != b.shape:
        raise GeometryError("profile endpoints must share the dimension")
    length = float(np.linalg.norm(b - a))
    if length == 0.0:
        raise GeometryError("profile endpoints coincide")
    s = np.linspace(0.0, length, n_samples)
    pts = a[None, :] + (s / length)[:, None] * (b - a)[None, :]
    tol = 1e-12 * max(split.base.diameter(), 1.0)
    if split.base.dim == 2:
        vals = _sample_2d(split, values, pts, tol)
    else:
        vals = _sample_1d(split, values, pts[:, 0], tol)
    return Profile(s=s, points=pts, values=vals)


def _arc_positions(path: tuple[Point, ...], pts: np.ndarray, tol: float) -> np.ndarray:
    """Arc position along the polyline ``path`` of each point (m, 2), read on
    the first segment that passes within tol of it."""
    corners = np.array([p.coords for p in path])
    a, seg = corners[:-1], np.diff(corners, axis=0)
    L = np.sqrt(np.einsum("kd,kd->k", seg, seg))
    prefix = np.r_[0.0, np.cumsum(L)[:-1]]
    rel = pts[:, None, :] - a[None]                       # (m, segments, 2)
    t = np.einsum("mkd,kd->mk", rel, seg) / (L * L)
    tc = np.clip(t, 0.0, 1.0)
    off = np.linalg.norm(rel - tc[:, :, None] * seg, axis=2)
    on = (-tol <= t * L) & (t * L <= L + tol) & (off <= tol)
    if not np.all(on.any(axis=1)):
        pt = pts[np.argmin(on.any(axis=1))]
        raise GeometryError(f"interface node {tuple(pt)} not on its fracture path")
    k = np.argmax(on, axis=1)
    return prefix[k] + tc[np.arange(len(pts)), k] * L[k]


def _fracture_nodal(split: SplitMesh, values: np.ndarray, fracture_id: int):
    """Unique arc positions with side-mean and jump values for one fracture."""
    values = np.asarray(values, dtype=float)
    entities = split.edges_of_fracture(fracture_id)
    if not len(entities):
        raise GeometryError(f"fracture {fracture_id} has no interface entities")
    # Every node of every entity, in entity order.
    pairs = entities.node_pairs.reshape(-1, 2)
    pts = entities.points.reshape(len(pairs), -1)
    mean = 0.5 * (values[pairs[:, 0]] + values[pairs[:, 1]])
    jump = values[pairs[:, 1]] - values[pairs[:, 0]]
    path = split.network.fractures[fracture_id].path
    if len(path) == 1:                     # a 1D point: one node at s = 0
        return np.zeros(1), pts, mean, jump

    total = sum(float(np.linalg.norm(p1.as_array() - p0.as_array()))
                for p0, p1 in zip(path[:-1], path[1:]))
    tol = 1e-9 * max(total, 1.0)
    s = _arc_positions(path, pts, tol)
    order = np.argsort(s, kind="stable")
    s, pts, mean, jump = s[order], pts[order], mean[order], jump[order]
    # Positions within tol of their predecessor are one node.
    starts = np.flatnonzero(np.r_[True, np.diff(s) > tol])
    size = np.diff(np.append(starts, len(s)))
    return (np.add.reduceat(s, starts) / size,
            np.add.reduceat(pts, starts) / size[:, None],
            np.add.reduceat(mean, starts) / size,
            np.add.reduceat(jump, starts) / size)


def fracture_pressure(split: SplitMesh, values: np.ndarray, fracture_id: int) -> Profile:
    """Side-mean pressure along a fracture, ordered by arc length."""
    s, pts, mean, _ = _fracture_nodal(split, values, fracture_id)
    return Profile(s=s, points=pts, values=mean)


def fracture_jump(split: SplitMesh, values: np.ndarray, fracture_id: int) -> Profile:
    """Pressure jump (side 2 minus side 1, along eta) along a fracture."""
    s, pts, _, jump = _fracture_nodal(split, values, fracture_id)
    return Profile(s=s, points=pts, values=jump)


def boundary_flux(split: SplitMesh, system: LinearSystem, solution: np.ndarray,
                  tag: str | None = None):
    """Outward flux through each boundary tag, recovered from the residual.

    Each boundary dof is charged to exactly one tag; a corner dof goes to a
    Dirichlet tag when it touches one, else to a tag carrying Neumann data,
    alphabetical order breaking ties. Fluxes then sum to the (near-zero)
    mass defect.
    """
    solution = np.asarray(solution, dtype=float)
    if solution.shape != (system.n_dofs,):
        raise GeometryError(
            f"solution has {solution.shape} entries, system has {system.n_dofs} dofs")
    residual = system.residual_raw(solution)

    # Tags in order of first appearance, and the order in which they claim dofs.
    facets = split.base.boundary_facets
    tags = list(dict.fromkeys(facet_tag for _vs, facet_tag in facets))
    claim = sorted(tags, key=lambda t: (0 if t in system.dirichlet_tags
                                        else 1 if t in system.neumann_tags else 2, t))
    rank = {t: i for i, t in enumerate(claim)}
    vids = np.array([vs for vs, _t in facets], dtype=np.int64).reshape(len(facets), split.base.dim)
    facet_rank = np.array([rank[t] for _vs, t in facets], dtype=np.int64)
    owner = np.full(system.n_dofs, len(claim))
    np.minimum.at(owner, vids.ravel(), np.repeat(facet_rank, vids.shape[1]))
    dofs = np.flatnonzero(owner < len(claim))
    # Each tag's dofs summed in ascending order.
    sums = np.bincount(owner[dofs], residual[dofs], minlength=len(claim))
    fluxes = {t: float(sums[rank[t]]) for t in tags}
    if tag is None:
        return fluxes
    if tag not in fluxes:
        raise ConfigurationError(
            f"unknown boundary tag {tag!r}; mesh has {sorted(fluxes)}")
    return fluxes[tag]


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

    A mesh repeats its coordinates (a structured one has n+1 distinct x and
    y values), so each distinct coordinate is formatted once and only the
    pressure is formatted per row. Coordinates are told apart by their bits,
    which keeps -0.0 and 0.0 apart as the per-row format does.
    """
    solution = np.asarray(solution, dtype=float)
    vertices = split.base.vertices
    n = len(vertices)
    coords = np.concatenate([vertices[:, 0],
                             vertices[:, 1] if vertices.shape[1] > 1 else np.zeros(n)])
    bits, inverse = np.unique(coords.view(np.int64), return_inverse=True)
    text = np.array(["%.17g" % v for v in bits.view(np.float64).tolist()], dtype=object)[inverse]
    columns = (np.arange(n), text[:n], text[n:], split.subdomain_of_vertex(), solution)
    with open(path, "w", newline="") as fh:
        fh.write("vertex,x,y,subdomain,p\r\n")
        for start in range(0, n, _SOLUTION_CHUNK):
            fh.write(_rows("%d,%s,%s,%d,%.17g\r\n",
                           [c[start:start + _SOLUTION_CHUNK].tolist() for c in columns]))
