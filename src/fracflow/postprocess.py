"""Solution extraction: profiles, interface values, boundary fluxes, CSV output.

Sampling works on the split mesh, so a profile crossing a duplicated line
averages the containing cells on both sides and returns the side mean there.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .assembly import LinearSystem
from .errors import ConfigurationError, GeometryError
from .geometry import InterfaceEdge, InterfacePoint, Point, SplitMesh

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
    """The four bilinear shape functions at reference coordinates (xi, eta)."""
    return 0.25 * np.array([(1 - xi[0]) * (1 - xi[1]), (1 + xi[0]) * (1 - xi[1]),
                            (1 + xi[0]) * (1 + xi[1]), (1 - xi[0]) * (1 + xi[1])])


def _invert_bilinear(X: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Reference coordinates (xi, eta) of p in the bilinear cell X (4, 2)."""
    xi = np.zeros(2)
    for _ in range(30):
        r = _q1_shape(xi) @ X - p
        if np.abs(r).max() < 1e-14 + 1e-14 * np.abs(X).max():
            break
        dN = 0.25 * np.array([
            [-(1 - xi[1]), (1 - xi[1]), (1 + xi[1]), -(1 + xi[1])],
            [-(1 - xi[0]), -(1 + xi[0]), (1 + xi[0]), (1 - xi[0])],
        ])
        J = dN @ X                      # rows: d(x,y)/dxi, d(x,y)/deta
        xi = xi - np.linalg.solve(J.T, r)
    return xi


def _sample_2d(split: SplitMesh, values: np.ndarray, pts: np.ndarray,
               tol: float) -> np.ndarray:
    mesh = split.base
    corners = mesh.vertices[mesh.cells]            # (ncell, 4, 2)
    centers = corners.mean(axis=1)
    radius = np.sqrt(((corners - centers[:, None, :]) ** 2).sum(axis=2)).max()
    tree = cKDTree(centers)

    out = np.empty(len(pts))
    for i, p in enumerate(pts):
        hits = []
        for ci in tree.query_ball_point(p, r=radius * (1.0 + 1e-12) + tol):
            X = corners[ci]
            N = _q1_shape(np.clip(_invert_bilinear(X, p), -1.0, 1.0))
            if np.linalg.norm(N @ X - p) <= tol:
                hits.append(float(N @ values[mesh.cells[ci]]))
        if not hits:
            raise GeometryError(f"sample point {tuple(p)} lies outside the mesh")
        out[i] = float(np.mean(hits))
    return out


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


def _arc_position(path: tuple[Point, ...], pt: np.ndarray, tol: float) -> float:
    prefix = 0.0
    for p0, p1 in zip(path[:-1], path[1:]):
        a, b = p0.as_array(), p1.as_array()
        seg = b - a
        L = float(np.linalg.norm(seg))
        t = float(np.dot(pt - a, seg)) / (L * L)
        if -tol <= t * L <= L + tol:
            closest = a + np.clip(t, 0.0, 1.0) * seg
            if np.linalg.norm(pt - closest) <= tol:
                return prefix + np.clip(t, 0.0, 1.0) * L
        prefix += L
    raise GeometryError(f"interface node {tuple(pt)} not on its fracture path")


def _fracture_nodal(split: SplitMesh, values: np.ndarray, fracture_id: int):
    """Unique arc positions with side-mean and jump values for one fracture."""
    values = np.asarray(values, dtype=float)
    entities = split.edges_of_fracture(fracture_id)
    if not entities:
        raise GeometryError(f"fracture {fracture_id} has no interface entities")
    frac = split.network.fractures[fracture_id]

    if isinstance(entities[0], InterfacePoint):
        ent = entities[0]
        n1, n2 = ent.node_pair
        mean = 0.5 * (values[n1] + values[n2])
        jump = values[n2] - values[n1]
        pt = ent.location.as_array()
        return (np.array([0.0]), pt[None, :], np.array([mean]), np.array([jump]))

    path = frac.path
    total = sum(float(np.linalg.norm(p1.as_array() - p0.as_array()))
                for p0, p1 in zip(path[:-1], path[1:]))
    tol = 1e-9 * max(total, 1.0)
    recs = []
    for edge in entities:
        assert isinstance(edge, InterfaceEdge)
        for (d1, d2), loc in zip(edge.node_pairs, edge.endpoints):
            pt = loc.as_array()
            s = _arc_position(path, pt, tol)
            mean = 0.5 * (values[d1] + values[d2])
            jump = values[d2] - values[d1]
            recs.append((s, pt, mean, jump))
    recs.sort(key=lambda r: r[0])
    s_out, pts_out, mean_out, jump_out = [], [], [], []
    for s, pt, mean, jump in recs:
        if s_out and s - s_out[-1][0] <= tol:
            s_out[-1].append(s)
            pts_out[-1].append(pt)
            mean_out[-1].append(mean)
            jump_out[-1].append(jump)
        else:
            s_out.append([s])
            pts_out.append([pt])
            mean_out.append([mean])
            jump_out.append([jump])
    return (np.array([np.mean(g) for g in s_out]),
            np.array([np.mean(g, axis=0) for g in pts_out]),
            np.array([np.mean(g) for g in mean_out]),
            np.array([np.mean(g) for g in jump_out]))


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

    tag_dofs: dict[str, set[int]] = {}
    for vids, facet_tag in split.base.boundary_facets:
        tag_dofs.setdefault(facet_tag, set()).update(int(v) for v in vids)

    def rank(t: str):
        if t in system.dirichlet_tags:
            cls = 0
        elif t in system.neumann_tags:
            cls = 1
        else:
            cls = 2
        return (cls, t)

    owner: dict[int, str] = {}
    for d in sorted(set().union(*tag_dofs.values())):
        owner[d] = min((t for t, ds in tag_dofs.items() if d in ds), key=rank)

    fluxes = {t: 0.0 for t in tag_dofs}
    for d, t in owner.items():
        fluxes[t] += float(residual[d])
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


def _coords_row(pt: np.ndarray) -> tuple[float, float]:
    x = float(pt[0])
    y = float(pt[1]) if len(pt) > 1 else 0.0
    return x, y


def write_profile_csv(path, profile: Profile) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["s", "x", "y", "p"])
        for s, pt, v in zip(profile.s, profile.points, profile.values):
            x, y = _coords_row(pt)
            w.writerow([f"{s:.17g}", f"{x:.17g}", f"{y:.17g}", f"{v:.17g}"])


def write_fracture_csv(path, mean: Profile, jump: Profile) -> None:
    if len(mean) != len(jump) or np.max(np.abs(mean.s - jump.s)) > 0:
        raise GeometryError("mean and jump profiles must share abscissae")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["s", "x", "y", "p", "jump"])
        for s, pt, v, j in zip(mean.s, mean.points, mean.values, jump.values):
            x, y = _coords_row(pt)
            w.writerow([f"{s:.17g}", f"{x:.17g}", f"{y:.17g}", f"{v:.17g}", f"{j:.17g}"])


# Rows of solution.csv formatted per write; bounds the text held in memory.
_SOLUTION_CHUNK = 8192
_SOLUTION_ROW = "%d,%.17g,%.17g,%d,%.17g\r\n"     # csv.writer's bytes for these fields


def write_solution_csv(path, split: SplitMesh, solution: np.ndarray) -> None:
    solution = np.asarray(solution, dtype=float)
    vertices = split.base.vertices
    n = len(vertices)
    columns = (np.arange(n), vertices[:, 0],
               vertices[:, 1] if vertices.shape[1] > 1 else np.zeros(n),
               split.subdomain_of_vertex(), solution)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["vertex", "x", "y", "subdomain", "p"])
        for start in range(0, n, _SOLUTION_CHUNK):
            rows = zip(*(c[start:start + _SOLUTION_CHUNK].tolist() for c in columns))
            fields = tuple(v for row in rows for v in row)
            fh.write(_SOLUTION_ROW * (len(fields) // 5) % fields)
