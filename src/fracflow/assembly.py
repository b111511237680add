"""Global assembly: subdomain diffusion, interface terms, boundary conditions.

Interface terms live on duplicated mesh edges. With local dof order
(a1, a2, b1, b2) the jump and mean maps are

    J = [[-1, 1, 0, 0], [0, 0, -1, 1]]      jump = side2 - side1
    M = [[.5, .5, 0, 0], [0, 0, .5, .5]]

and each interface edge contributes

    M^T (S(kappa_j) + Q(r_j)) M  +  J^T (S(kappa_a) + Q(r_a)) J

with S the tangential segment stiffness and Q the segment mass, plus loads
M^T f(h_j) + J^T f(h_a). In 1D the interface is a point: the S terms vanish
and Q degenerates to the bare coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Union

import numpy as np
import scipy.sparse as sp

from .elements import (
    facet_load,
    facet_load_nodal,
    p1_segment_mass,
    p1_segment_stiffness,
    q1_stiffness_batch,
)
from .errors import ConfigurationError
from .geometry import InterfaceEdge, InterfacePoint, Point, SplitMesh

__all__ = [
    "InterfaceCoefficients",
    "BoundaryConditionSet",
    "LinearSystem",
    "fracture_to_coeffs",
    "default_eps_floor",
    "fracture_coefficient_map",
    "assemble",
]

Coefficient = Union[float, tuple[float, float]]
BCValue = Union[float, Callable[[Point], float]]

_JUMP = np.array([[-1.0, 1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 1.0]])
_MEAN = np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]])


def _coeff_values(c: Coefficient) -> tuple[float, float]:
    if np.isscalar(c):
        return float(c), float(c)
    a, b = c
    return float(a), float(b)


@dataclass(frozen=True)
class InterfaceCoefficients:
    """The six interface coefficients; each constant or a per-edge nodal pair.

    kappa_j / r_j / h_j act on the side MEAN (they discretize the condition
    on the flux jump); kappa_a / r_a / h_a act on the JUMP (condition on the
    flux average). Stiffness and reaction coefficients must be >= 0.
    """

    kappa_j: Coefficient = 0.0
    r_j: Coefficient = 0.0
    h_j: Coefficient = 0.0
    kappa_a: Coefficient = 0.0
    r_a: Coefficient = 0.0
    h_a: Coefficient = 0.0

    def __post_init__(self):
        for name in ("kappa_j", "r_j", "kappa_a", "r_a"):
            for v in _coeff_values(getattr(self, name)):
                if not np.isfinite(v) or v < 0.0:
                    raise ConfigurationError(f"interface coefficient {name} must be >= 0, got {v!r}")
        for name in ("h_j", "h_a"):
            for v in _coeff_values(getattr(self, name)):
                if not np.isfinite(v):
                    raise ConfigurationError(f"interface load {name} must be finite, got {v!r}")


CoefficientSource = Union[InterfaceCoefficients, Callable[[object], InterfaceCoefficients]]


def default_eps_floor(max_aperture: float) -> float:
    """Floor used to keep k_f/eps finite where the aperture pinches to zero."""
    base = max_aperture if max_aperture > 0.0 else 1.0
    return 1e-12 * base


def fracture_to_coeffs(k_f: float, eps_at_nodes, eps_floor: float) -> InterfaceCoefficients:
    """Coefficients of the fracture model from mobility and nodal apertures.

    Tangential diffusion of the side mean with kappa_j = k_f * eps and a
    jump penalty r_a = k_f / eps; all other coefficients vanish. Apertures
    are floored at ``eps_floor`` before use.
    """
    if not (np.isfinite(k_f) and k_f > 0.0):
        raise ConfigurationError(f"fracture mobility must be positive, got {k_f!r}")
    if not (np.isfinite(eps_floor) and eps_floor > 0.0):
        raise ConfigurationError(f"eps_floor must be positive, got {eps_floor!r}")
    scalar = np.isscalar(eps_at_nodes)
    ea, eb = _coeff_values(eps_at_nodes)
    if ea < 0.0 or eb < 0.0:
        raise ConfigurationError(f"apertures must be >= 0, got {(ea, eb)!r}")
    ea = max(ea, eps_floor)
    eb = max(eb, eps_floor)
    if scalar:
        return InterfaceCoefficients(kappa_j=k_f * ea, r_a=k_f / ea)
    return InterfaceCoefficients(kappa_j=(k_f * ea, k_f * eb), r_a=(k_f / ea, k_f / eb))


def fracture_coefficient_map(mobility: float, max_aperture: float,
                             eps_floor: float | None = None) -> Callable[[object], InterfaceCoefficients]:
    """Per-edge coefficient callable for one fracture (handles 1D points too)."""
    floor = default_eps_floor(max_aperture) if eps_floor is None else eps_floor

    def per_entity(entity):
        if isinstance(entity, InterfacePoint):
            return fracture_to_coeffs(mobility, entity.aperture, floor)
        return fracture_to_coeffs(mobility, entity.aperture_at_nodes, floor)

    return per_entity


@dataclass(frozen=True)
class BoundaryConditionSet:
    """Dirichlet and Neumann data keyed by boundary tag.

    Values are scalars or callables of the vertex/facet point. Tags must be
    disjoint between the two maps and at least one Dirichlet tag is required
    (the operator is singular without essential conditions). Untagged
    boundary parts get the natural zero-flux condition.
    """

    dirichlet: Mapping[str, BCValue]
    neumann: Mapping[str, BCValue]

    def __post_init__(self):
        object.__setattr__(self, "dirichlet", dict(self.dirichlet))
        object.__setattr__(self, "neumann", dict(self.neumann))
        overlap = set(self.dirichlet) & set(self.neumann)
        if overlap:
            raise ConfigurationError(f"tags in both Dirichlet and Neumann maps: {sorted(overlap)}")
        if not self.dirichlet:
            raise ConfigurationError("at least one Dirichlet tag is required")


@dataclass
class LinearSystem:
    """Assembled system before and after Dirichlet elimination.

    ``matrix``/``rhs`` are the symmetric eliminated system handed to the
    solver. ``matrix_raw`` keeps all couplings; ``rhs_raw`` all loads;
    ``rhs_body`` only the non-boundary loads (interface h terms), which is
    what consistent boundary-flux recovery subtracts. ``copy_groups`` labels
    each dof with the pre-split vertex it was copied from; the solver
    preconditions over these groups.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    matrix_raw: sp.csr_matrix
    rhs_raw: np.ndarray
    rhs_body: np.ndarray
    n_dofs: int
    dirichlet_dofs: dict[int, float]
    dirichlet_tags: tuple[str, ...] = ()
    neumann_tags: tuple[str, ...] = ()
    matrix_domain: sp.csr_matrix | None = None
    interface_terms: tuple = ()
    copy_groups: np.ndarray | None = None

    def residual_raw(self, solution: np.ndarray) -> np.ndarray:
        """rhs_body - A_raw @ solution, evaluated term by term.

        The domain matrix and each interface entity are applied separately;
        every entity's contribution then sums to exactly zero over all dofs,
        so boundary fluxes recovered from this residual conserve mass to
        domain-stiffness roundoff instead of penalty-scale roundoff.
        """
        solution = np.asarray(solution, dtype=float)
        if self.matrix_domain is None:
            return self.rhs_body - self.matrix_raw @ solution
        r = self.rhs_body - self.matrix_domain @ solution
        for dofs, A_loc, _ in self.interface_terms:
            r[dofs] -= A_loc @ solution[dofs]
        return r


def _eval_bc(value: BCValue, point: Point) -> float:
    return float(value(point)) if callable(value) else float(value)


def _segment_load(length: float, h: Coefficient) -> np.ndarray:
    ha, hb = _coeff_values(h)
    return (length / 6.0) * np.array([2.0 * ha + hb, ha + 2.0 * hb])


def _interface_edge_local(edge: InterfaceEdge, c: InterfaceCoefficients):
    """(4x4 matrix, 4 load) for one 2D interface edge."""
    L = edge.length
    A = np.zeros((4, 4))
    for coeff, op in ((c.kappa_j, _MEAN), (c.kappa_a, _JUMP)):
        ca, cb = _coeff_values(coeff)
        if ca != 0.0 or cb != 0.0:
            A += op.T @ p1_segment_stiffness(L, (ca, cb)) @ op
    for coeff, op in ((c.r_j, _MEAN), (c.r_a, _JUMP)):
        ca, cb = _coeff_values(coeff)
        if ca != 0.0 or cb != 0.0:
            A += op.T @ p1_segment_mass(L, (ca, cb)) @ op
    f = np.zeros(4)
    for coeff, op in ((c.h_j, _MEAN), (c.h_a, _JUMP)):
        ca, cb = _coeff_values(coeff)
        if ca != 0.0 or cb != 0.0:
            f += op.T @ _segment_load(L, (ca, cb))
    return A, f


def _interface_point_local(c: InterfaceCoefficients):
    """(2x2 matrix, 2 load) for a 1D point interface; tangential terms vanish."""
    J = np.array([-1.0, 1.0])
    M = np.array([0.5, 0.5])
    rj = _coeff_values(c.r_j)[0]
    ra = _coeff_values(c.r_a)[0]
    A = rj * np.outer(M, M) + ra * np.outer(J, J)
    f = _coeff_values(c.h_j)[0] * M + _coeff_values(c.h_a)[0] * J
    return A, f


def assemble(split: SplitMesh, k_per_subdomain, coeffs_per_fracture, bcs: BoundaryConditionSet,
             k_per_cell: np.ndarray | None = None) -> LinearSystem:
    """Assemble the fractured Darcy system on a split mesh.

    Parameters
    ----------
    split : SplitMesh
    k_per_subdomain : sequence of positive mobilities, one per subdomain.
        Ignored when ``k_per_cell`` is given (used by the equi-dimensional
        oracle, which needs per-cell heterogeneity without fractures).
    coeffs_per_fracture : one entry per fracture: an InterfaceCoefficients
        applied to every edge of that fracture, or a callable mapping an
        interface entity to its InterfaceCoefficients.
    bcs : BoundaryConditionSet over the mesh's facet tags.
    """
    mesh = split.base
    n = split.n_dofs

    if k_per_cell is not None:
        k_cell = np.asarray(k_per_cell, dtype=float)
        if k_cell.shape != (mesh.n_cells,):
            raise ConfigurationError(
                f"k_per_cell must have one entry per cell ({mesh.n_cells}), got {k_cell.shape}")
    else:
        k_sub = np.asarray(k_per_subdomain, dtype=float)
        if k_sub.shape != (split.n_subdomains,):
            raise ConfigurationError(
                f"expected {split.n_subdomains} subdomain mobilities, got {k_sub.shape}")
        if not np.all(np.isfinite(k_sub)) or np.any(k_sub <= 0.0):
            raise ConfigurationError("subdomain mobilities must be positive and finite")
        k_cell = k_sub[split.subdomain_of_cell]
    if not np.all(np.isfinite(k_cell)) or np.any(k_cell <= 0.0):
        raise ConfigurationError("cell mobilities must be positive and finite")

    n_frac = len(split.network)
    coeffs = list(coeffs_per_fracture)
    if len(coeffs) != n_frac:
        raise ConfigurationError(f"expected {n_frac} coefficient entries, got {len(coeffs)}")

    known_tags = set(mesh.boundary_tags())
    for tag in list(bcs.dirichlet) + list(bcs.neumann):
        if tag not in known_tags:
            raise ConfigurationError(f"unknown boundary tag {tag!r}; mesh has {sorted(known_tags)}")

    # Subdomain diffusion.
    cells = mesh.cells
    if mesh.dim == 2:
        K = q1_stiffness_batch(mesh.vertices[cells], k_cell)
    else:
        x = mesh.vertices[:, 0]
        s = k_cell / (x[cells[:, 1]] - x[cells[:, 0]])
        K = np.stack([np.stack([s, -s], axis=1), np.stack([-s, s], axis=1)], axis=1)

    # Domain matrix kept separate: summing O(1) stiffness and O(1/eps)
    # interface entries into one float loses the exact row cancellation the
    # conservative flux recovery relies on. Its triplets carry the index dtype
    # the matrix stores, so building it makes no second copy of the (16 per
    # cell) index arrays.
    idx = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    A_domain = sp.coo_matrix(
        (K.ravel(), (np.broadcast_to(cells[:, :, None], K.shape).astype(idx).ravel(),
                     np.broadcast_to(cells[:, None, :], K.shape).astype(idx).ravel())),
        shape=(n, n)).tocsr()
    del K
    A_domain.sum_duplicates()
    A_domain = A_domain.copy()    # summing leaves views into the longer unsummed arrays

    # Interface terms.
    rhs_body = np.zeros(n)
    iface_terms: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    for entity in split.interface_edges:
        source = coeffs[entity.fracture_id]
        c = source(entity) if callable(source) else source
        if not isinstance(c, InterfaceCoefficients):
            raise ConfigurationError(
                f"coefficient source for fracture {entity.fracture_id} must yield "
                f"InterfaceCoefficients, got {type(c).__name__}")
        if isinstance(entity, InterfacePoint):
            A_loc, f_loc = _interface_point_local(c)
            dofs = np.asarray(entity.node_pair)
        else:
            A_loc, f_loc = _interface_edge_local(entity, c)
            (a1, a2), (b1, b2) = entity.node_pairs
            dofs = np.asarray([a1, a2, b1, b2])
        rows.append(np.repeat(dofs, len(dofs)))
        cols.append(np.tile(dofs, len(dofs)))
        vals.append(A_loc.ravel())
        np.add.at(rhs_body, dofs, f_loc)
        iface_terms.append((dofs, A_loc, f_loc))

    A_raw = A_domain
    if iface_terms:
        A_raw = A_domain + sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))

    # Neumann loads.
    rhs_neumann = np.zeros(n)
    verts = mesh.vertices
    for vs, tag in mesh.boundary_facets:
        if tag not in bcs.neumann:
            continue
        h = bcs.neumann[tag]
        if mesh.dim == 1:
            p = Point(float(verts[vs[0], 0]))
            rhs_neumann[vs[0]] += _eval_bc(h, p)
        else:
            X = verts[list(vs)]
            if callable(h):
                ha = _eval_bc(h, Point(*X[0]))
                hb = _eval_bc(h, Point(*X[1]))
                load = facet_load_nodal(X, (ha, hb))
            else:
                load = facet_load(X, float(h))
            np.add.at(rhs_neumann, list(vs), load)

    rhs_raw = rhs_body + rhs_neumann

    # Dirichlet values; every copy of a constrained pre-split vertex is constrained.
    dirichlet: dict[int, float] = {}

    def constrain(dof: int, value: float):
        if dof in dirichlet and abs(dirichlet[dof] - value) > 1e-12 * max(1.0, abs(value)):
            raise ConfigurationError(
                f"conflicting Dirichlet values at dof {dof}: {dirichlet[dof]} vs {value}")
        dirichlet[dof] = value

    for vs, tag in mesh.boundary_facets:
        if tag not in bcs.dirichlet:
            continue
        g = bcs.dirichlet[tag]
        for v in vs:
            p = Point(*(float(c) for c in verts[v]))
            constrain(int(v), _eval_bc(g, p))

    if dirichlet:
        origin = split.vertex_origin
        by_origin: dict[int, list[int]] = {}
        for dof in np.nonzero(np.bincount(origin, minlength=origin.max() + 1)[origin] > 1)[0]:
            by_origin.setdefault(int(origin[dof]), []).append(int(dof))
        for dof, value in list(dirichlet.items()):
            for twin in by_origin.get(int(origin[dof]), ()):
                constrain(twin, value)

    if not dirichlet:
        raise ConfigurationError("no Dirichlet dofs found; the system would be singular")

    # Symmetric elimination.
    d_idx = np.fromiter(sorted(dirichlet), dtype=np.int64)
    g_vec = np.zeros(n)
    g_vec[d_idx] = [dirichlet[int(d)] for d in d_idx]
    free = np.ones(n, dtype=bool)
    free[d_idx] = False

    rhs = rhs_raw - A_raw @ g_vec
    rhs[d_idx] = g_vec[d_idx]
    # Zero the fixed rows and columns in place on a copy; every dof lies in a
    # cell, so its diagonal entry is stored and can take the fixed row's 1.
    A = A_raw.copy()
    row_of = np.repeat(np.arange(n, dtype=A.indices.dtype), np.diff(A.indptr))
    fixed_entry = ~(free[row_of] & free[A.indices])
    A.data[fixed_entry] = 0.0
    A.data[fixed_entry & (row_of == A.indices)] = 1.0
    A.eliminate_zeros()

    return LinearSystem(
        matrix=A,
        rhs=rhs,
        matrix_raw=A_raw,
        rhs_raw=rhs_raw,
        rhs_body=rhs_body,
        n_dofs=n,
        dirichlet_dofs={int(d): float(g_vec[d]) for d in d_idx},
        dirichlet_tags=tuple(sorted(bcs.dirichlet)),
        neumann_tags=tuple(sorted(bcs.neumann)),
        matrix_domain=A_domain,
        interface_terms=tuple(iface_terms),
        copy_groups=split.vertex_origin,
    )
