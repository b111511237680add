"""Global assembly: subdomain diffusion, interface terms, boundary conditions.

Interface terms live on node pairs: each fracture node is duplicated into a
side-1 copy ``lo`` and a side-2 copy ``hi``, and ``assemble`` collects the
unique pairs ``(lo, hi)`` once (adjacent interface edges share their
endpoint pairs). Over p pairs the mean and jump maps are

    M = 0.5 at (k, lo_k) and (k, hi_k)        mean = (side1 + side2) / 2
    J = -1 at (k, lo_k), +1 at (k, hi_k)      jump = side2 - side1

and the interface adds

    M^T K_mean M  +  J^T K_jump J,    K_mean = S(kappa_j) + Q(r_j),
                                      K_jump = S(kappa_a) + Q(r_a)

with S the tangential segment stiffness and Q the segment mass, each a 2x2
block per edge on its two pairs, plus loads M^T f(h_j) + J^T f(h_a). In 1D
the interface is a point: S vanishes and Q degenerates to the bare
coefficient on its one pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Union

import numpy as np
import scipy.sparse as sp

from .elements import (
    facet_load,
    p1_segment_load,
    p1_segment_mass,
    p1_segment_stiffness,
    q1_stiffness_upper,
)
from .errors import ConfigurationError
from .geometry import Mesh, Point, SplitMesh

__all__ = [
    "InterfaceCoefficients",
    "BoundaryConditionSet",
    "LinearSystem",
    "fracture_to_coeffs",
    "default_eps_floor",
    "fracture_coefficient_map",
    "assemble",
]

BCValue = Union[float, Callable[[Point], float]]

_COEFFICIENTS = ("kappa_j", "r_j", "h_j", "kappa_a", "r_a", "h_a")


@dataclass(frozen=True)
class InterfaceCoefficients:
    """The six interface coefficients of one fracture.

    Each is a scalar, a nodal pair or an array that broadcasts to the
    fracture's (m_j, k) entity nodes (k = 2 on 2D edges, 1 on 1D points).
    kappa_j / r_j / h_j act on the side MEAN (they discretize the condition
    on the flux jump); kappa_a / r_a / h_a act on the JUMP (condition on the
    flux average). Stiffness and reaction coefficients must be >= 0.
    """

    kappa_j: object = 0.0
    r_j: object = 0.0
    h_j: object = 0.0
    kappa_a: object = 0.0
    r_a: object = 0.0
    h_a: object = 0.0

    def __post_init__(self):
        for name in _COEFFICIENTS:
            v = np.asarray(getattr(self, name), dtype=float)
            load = name in ("h_j", "h_a")
            bad = ~np.isfinite(v) | ((v < 0.0) & (not load))
            if np.any(bad):
                rule = f"load {name} must be finite" if load else f"coefficient {name} must be >= 0"
                raise ConfigurationError(f"interface {rule}, got {float(v[bad].flat[0])!r}")


def default_eps_floor(max_aperture: float) -> float:
    """Floor used to keep k_f/eps finite where the aperture pinches to zero."""
    base = max_aperture if max_aperture > 0.0 else 1.0
    return 1e-12 * base


def fracture_to_coeffs(k_f: float, eps_at_nodes, eps_floor: float) -> InterfaceCoefficients:
    """Coefficients of the fracture model from mobility and nodal apertures.

    Tangential diffusion of the side mean with kappa_j = k_f * eps and a
    jump penalty r_a = k_f / eps; all other coefficients vanish. Apertures
    (a scalar or an array) are floored at ``eps_floor`` before use, and the
    coefficients take their shape.
    """
    if not (np.isfinite(k_f) and k_f > 0.0):
        raise ConfigurationError(f"fracture mobility must be positive, got {k_f!r}")
    if not (np.isfinite(eps_floor) and eps_floor > 0.0):
        raise ConfigurationError(f"eps_floor must be positive, got {eps_floor!r}")
    eps = np.asarray(eps_at_nodes, dtype=float)
    if np.any(eps < 0.0):
        raise ConfigurationError(f"apertures must be >= 0, got {eps.tolist()!r}")
    eps = np.maximum(eps, eps_floor)
    return InterfaceCoefficients(kappa_j=k_f * eps, r_a=k_f / eps)


def fracture_coefficient_map(mobility: float, max_aperture: float,
                             eps_floor: float | None = None) -> Callable[[np.ndarray], InterfaceCoefficients]:
    """Coefficient callable for one fracture: nodal apertures (m_j, k) to
    the fracture's InterfaceCoefficients (see ``fracture_to_coeffs``)."""
    floor = default_eps_floor(max_aperture) if eps_floor is None else eps_floor
    return lambda apertures: fracture_to_coeffs(mobility, apertures, floor)


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


def _pair_scatter(pairs: np.ndarray, mean_part: np.ndarray, jump_part: np.ndarray,
                  n: int) -> np.ndarray:
    """M^T mean_part + J^T jump_part: half of each pair's mean term to both
    sides, its jump term with sign -/+ to side 1/2."""
    half = 0.5 * mean_part
    out = np.bincount(pairs[:, 0], half - jump_part, minlength=n)
    out += np.bincount(pairs[:, 1], half + jump_part, minlength=n)
    return out


def _with_interface(matrix_domain: sp.csr_matrix, pairs: np.ndarray, K_mean: sp.csr_matrix,
                    K_jump: sp.csr_matrix) -> sp.csr_matrix:
    """A new matrix matrix_domain + M^T K_mean M + J^T K_jump J; a copy of
    matrix_domain when there are no pairs."""
    if not len(pairs):
        return matrix_domain.copy()
    n = matrix_domain.shape[0]
    rows = np.repeat(np.arange(len(pairs)), 2)
    M = sp.csr_matrix((np.tile([0.5, 0.5], len(pairs)), (rows, pairs.ravel())),
                      shape=(len(pairs), n))
    J = sp.csr_matrix((np.tile([-1.0, 1.0], len(pairs)), (rows, pairs.ravel())),
                      shape=(len(pairs), n))
    return matrix_domain + (M.T @ K_mean @ M + J.T @ K_jump @ J)


@dataclass
class LinearSystem:
    """Assembled system before and after Dirichlet elimination.

    ``matrix``/``rhs`` are the symmetric eliminated system handed to the
    solver; ``rhs_raw`` holds all loads and ``rhs_body`` only the
    non-boundary loads (interface h terms), which is what consistent
    boundary-flux recovery subtracts. ``interface_pairs`` (p, 2) holds the
    (side 1, side 2) dofs of each interface node pair, and
    ``interface_mean`` / ``interface_jump`` are the p x p operators on the
    pairs' side means and jumps (see the module docstring).

    The subdomain diffusion alone, ``matrix_domain``, agrees with ``matrix``
    bit for bit, in indices and values, in every row but those of interface
    pair dofs, of Dirichlet dofs and of dofs coupled to a Dirichlet dof. Only
    those rows are stored: ``domain_rows`` (ascending) and
    ``domain_at_rows``, the domain matrix's rows there as a
    len(domain_rows) x n CSR. ``matrix_domain`` and ``matrix_raw``, the
    matrix with all couplings before elimination, are formed on each access.
    ``copy_groups`` labels each dof with the pre-split vertex it was copied
    from; the solver preconditions over these groups.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    rhs_raw: np.ndarray
    rhs_body: np.ndarray
    n_dofs: int
    dirichlet_dofs: dict[int, float]
    domain_rows: np.ndarray
    domain_at_rows: sp.csr_matrix
    interface_pairs: np.ndarray
    interface_mean: sp.csr_matrix
    interface_jump: sp.csr_matrix
    copy_groups: np.ndarray
    dirichlet_tags: tuple[str, ...] = ()
    neumann_tags: tuple[str, ...] = ()

    @property
    def matrix_domain(self) -> sp.csr_matrix:
        """The subdomain diffusion as a new n x n CSR matrix on each access:
        ``domain_at_rows`` in ``domain_rows`` and the rows of ``matrix`` in
        all others."""
        A, D = self.matrix, self.domain_at_rows
        from_A = np.ones(self.n_dofs, dtype=bool)
        from_A[self.domain_rows] = False
        count = np.diff(A.indptr)
        take = np.repeat(from_A, count)
        count[self.domain_rows] = np.diff(D.indptr)
        put = np.repeat(from_A, count)
        indptr = np.zeros(self.n_dofs + 1, dtype=D.indptr.dtype)
        np.cumsum(count, out=indptr[1:])
        indices = np.empty(indptr[-1], dtype=D.indices.dtype)
        data = np.empty(indptr[-1])
        indices[put], data[put] = A.indices[take], A.data[take]
        indices[~put], data[~put] = D.indices, D.data
        return sp.csr_matrix((data, indices, indptr), shape=A.shape)

    @property
    def matrix_raw(self) -> sp.csr_matrix:
        """All couplings before elimination, ``matrix_domain + M^T
        interface_mean M + J^T interface_jump J``, as a new matrix on each
        access; ``assemble`` eliminates the same sum."""
        return _with_interface(self.matrix_domain, self.interface_pairs,
                               self.interface_mean, self.interface_jump)

    def residual_raw(self, solution: np.ndarray) -> np.ndarray:
        """rhs_body - matrix_raw @ solution, with the interface part in jump/mean form.

        The domain matrix is applied row by row as it is: ``matrix @ x``,
        with the ``domain_rows`` overwritten by ``domain_at_rows @ x``. Every
        row so sums the same products in the same order as ``matrix_domain @
        x`` would. The interface part first takes each pair's jump and side
        mean, scales them by ``interface_jump`` and ``interface_mean``, then
        scatters the results back to the two sides. The kf/eps penalty so
        multiplies a small jump instead of two O(1) pressures whose
        penalty-scaled products would have to cancel, and each jump term
        enters its two sides with opposite signs. Boundary fluxes recovered
        from this residual therefore conserve mass to the roundoff of O(1)
        terms.
        """
        x = np.asarray(solution, dtype=float)
        lo, hi = self.interface_pairs.T
        interface = _pair_scatter(self.interface_pairs,
                                  self.interface_mean @ (0.5 * (x[lo] + x[hi])),
                                  self.interface_jump @ (x[hi] - x[lo]), self.n_dofs)
        r = self.matrix @ x
        r[self.domain_rows] = self.domain_at_rows @ x
        np.subtract(self.rhs_body, r, out=r)
        r -= interface
        return r


def _interface_operators(split: SplitMesh, coeffs: list):
    """(pairs, K_mean, f_mean, K_jump, f_jump) over the unique interface node
    pairs: a 2x2 block and 2-vector per 2D edge, a 1x1 entry per 1D point."""
    entities = split.interface_edges
    ends = entities.node_pairs                                          # (m, k, 2)
    values = np.zeros((len(_COEFFICIENTS),) + ends.shape[:2])           # (6, m, k)
    for j, source in enumerate(coeffs):
        rows = entities.fracture_id == j
        c = source(entities.apertures[rows]) if callable(source) else source
        if not isinstance(c, InterfaceCoefficients):
            raise ConfigurationError(
                f"coefficient source for fracture {j} must yield "
                f"InterfaceCoefficients, got {type(c).__name__}")
        shape = (np.count_nonzero(rows), ends.shape[1])
        for i, name in enumerate(_COEFFICIENTS):
            try:
                values[i, rows] = np.broadcast_to(getattr(c, name), shape)
            except ValueError:
                raise ConfigurationError(f"interface coefficient {name} of fracture {j} "
                                         f"does not broadcast to its {shape} nodes") from None
    kappa_j, r_j, h_j, kappa_a, r_a, h_a = values
    if ends.shape[1] == 1:
        blocks_mean, blocks_jump = r_j[:, :, None], r_a[:, :, None]
        load_mean, load_jump = h_j, h_a
    else:
        L = entities.length
        blocks_mean = p1_segment_stiffness(L, kappa_j) + p1_segment_mass(L, r_j)
        blocks_jump = p1_segment_stiffness(L, kappa_a) + p1_segment_mass(L, r_a)
        load_mean, load_jump = p1_segment_load(L, h_j), p1_segment_load(L, h_a)

    pairs, inverse = np.unique(ends.reshape(-1, 2), axis=0, return_inverse=True)
    idx = inverse.reshape(ends.shape[:2])     # reshaped: numpy 1.x and 2.x differ here
    p = len(pairs)

    def operator(blocks: np.ndarray) -> sp.csr_matrix:
        rows = np.broadcast_to(idx[:, :, None], blocks.shape).ravel()
        cols = np.broadcast_to(idx[:, None, :], blocks.shape).ravel()
        return sp.csr_matrix((blocks.ravel(), (rows, cols)), shape=(p, p))

    def load(f: np.ndarray) -> np.ndarray:
        return np.bincount(idx.ravel(), f.ravel(), minlength=p)

    return pairs, operator(blocks_mean), load(load_mean), operator(blocks_jump), load(load_jump)


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
        applied to every node of that fracture, or a callable that takes the
        fracture's nodal apertures, the (m_j, k) array
        ``split.edges_of_fracture(j).apertures``, and returns its
        InterfaceCoefficients. Each callable is called once, and each field
        of what it returns must broadcast to (m_j, k).
    bcs : BoundaryConditionSet over the mesh's facet tags. A callable value
        gets one Point per facet vertex.

    The domain matrix and the pair operators are summed once, and the
    Dirichlet rows and columns are eliminated in place on the sum, which
    gives ``matrix``. Neither the sum nor the full domain matrix is kept: the
    system stores the pair operators and only the domain rows that differ
    from ``matrix`` (see ``LinearSystem``), from which ``matrix_domain`` and
    ``matrix_raw`` are formed again on access.
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

    A_domain = _domain_matrix(mesh, k_cell, n)

    # Interface terms, over the node pairs.
    pairs, K_mean, f_mean, K_jump, f_jump = _interface_operators(split, coeffs)
    rhs_body = _pair_scatter(pairs, f_mean, f_jump, n)

    # Neumann loads, added in facet order.
    rhs_neumann = np.zeros(n)
    facets, h = _boundary_data(mesh, bcs.neumann)
    if mesh.dim == 2:
        h = facet_load(mesh.vertices[facets], h)
    np.add.at(rhs_neumann, facets.ravel(), h.ravel())
    rhs_raw = rhs_body + rhs_neumann

    d_idx, g = _dirichlet_values(split, bcs)
    g_vec = np.zeros(n)
    g_vec[d_idx] = g
    free = np.ones(n, dtype=bool)
    free[d_idx] = False

    # Symmetric elimination, in place on the new sum: zero the fixed rows and
    # columns; every dof lies in a cell, so its diagonal entry is stored and
    # can take the fixed row's 1.
    A = _with_interface(A_domain, pairs, K_mean, K_jump)
    rhs = rhs_raw - A @ g_vec
    rhs[d_idx] = g
    count = np.diff(A.indptr)
    fixed_entry = ~np.repeat(free, count)
    fixed_entry |= ~free[A.indices]
    A.data[fixed_entry] = 0.0
    del fixed_entry
    size = count[d_idx]
    fixed_row = np.arange(size.sum()) + np.repeat(A.indptr[d_idx] - (np.cumsum(size) - size), size)
    A.data[fixed_row[A.indices[fixed_row] == np.repeat(d_idx, size)]] = 1.0
    A.eliminate_zeros()

    # The rows where A may differ from the domain matrix: those whose entry
    # count changed, and the interface pair rows, whose values may change in
    # place. The count of every Dirichlet row and of each of its neighbours
    # changed: the row kept only its diagonal out of its cells' couplings,
    # the neighbours lost its column. So did that of a row where an exact
    # zero of the domain matrix was dropped.
    changed = np.diff(A.indptr) != np.diff(A_domain.indptr)
    changed[pairs.ravel()] = True
    domain_rows = np.flatnonzero(changed)
    domain_at_rows = A_domain[domain_rows]

    return LinearSystem(
        matrix=A,
        rhs=rhs,
        rhs_raw=rhs_raw,
        rhs_body=rhs_body,
        n_dofs=n,
        dirichlet_dofs=dict(zip(d_idx.tolist(), g.tolist())),
        dirichlet_tags=tuple(sorted(bcs.dirichlet)),
        neumann_tags=tuple(sorted(bcs.neumann)),
        domain_rows=domain_rows,
        domain_at_rows=domain_at_rows,
        interface_pairs=pairs,
        interface_mean=K_mean,
        interface_jump=K_jump,
        copy_groups=split.vertex_origin,
    )


def _domain_matrix(mesh: Mesh, k_cell: np.ndarray, n: int) -> sp.csr_matrix:
    """Subdomain diffusion as an n x n CSR matrix with sorted indices.

    It is kept apart from the interface terms: summing O(1) stiffness and
    O(1/eps) interface entries into one float loses the exact row
    cancellation the conservative flux recovery relies on. Each cell matrix
    is exactly symmetric, so only its upper entries are formed. The strictly
    upper ones go to (min, max) of their global indices, where scipy sums
    them into U; two cells share at most one edge, so each sum has at most
    two terms and does not depend on their order. The diagonal is summed per
    dof in cell order by ``bincount``. Row i is then row i of U^T, the
    diagonal and row i of U, placed without a further sum.
    """
    cells = mesh.cells
    if mesh.dim == 2:
        upper = q1_stiffness_upper(mesh.vertices, cells, k_cell)
    else:
        x = mesh.vertices[:, 0]
        K = p1_segment_stiffness(x[cells[:, 1]] - x[cells[:, 0]], k_cell[:, None])
        upper = K[:, [0, 0, 1], [0, 1, 1]]
    a, b = np.triu_indices(cells.shape[1])
    on = a == b
    diag = np.bincount(cells.ravel(), upper[:, on].ravel(), minlength=n)
    off = upper[:, ~on].ravel()
    del upper
    idx = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    c = cells.astype(idx)
    ia, ib = c[:, a[~on]].ravel(), c[:, b[~on]].ravel()
    del c
    U = sp.coo_matrix((off, (np.minimum(ia, ib), np.maximum(ia, ib))), shape=(n, n)).tocsr()
    del off, ia, ib
    L = U.T.tocsr()
    below, above = np.diff(L.indptr), np.diff(U.indptr)
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(below + above + 1, out=indptr[1:])
    diag_at = indptr[:-1] + below
    indices = np.empty(indptr[-1], dtype=idx)
    data = np.empty(indptr[-1])
    indices[diag_at] = np.arange(n, dtype=idx)
    data[diag_at] = diag
    for part, first, count in ((L, indptr[:-1], below), (U, diag_at + 1, above)):
        at = np.arange(part.nnz, dtype=idx) + np.repeat(first - part.indptr[:-1], count)
        indices[at] = part.indices
        data[at] = part.data
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def _boundary_data(mesh: Mesh, data: Mapping[str, BCValue]) -> tuple[np.ndarray, np.ndarray]:
    """The facets (f, k) whose tag is in ``data``, in facet order, and the
    value (f, k) at each of their vertices: a constant per tag, or the
    callable's value at one ``Point`` per facet vertex."""
    chosen = [(vs, tag) for vs, tag in mesh.boundary_facets if tag in data]
    facets = np.array([vs for vs, _tag in chosen], dtype=np.int64).reshape(len(chosen), mesh.dim)
    tags = np.array([tag for _vs, tag in chosen], dtype=object)
    values = np.empty(facets.shape)
    for tag, value in data.items():
        at = tags == tag
        if callable(value):
            values[at] = [[float(value(Point(*mesh.vertices[v].tolist()))) for v in vs]
                          for vs in facets[at].tolist()]
        else:
            values[at] = float(value)
    return facets, values


def _dirichlet_values(split: SplitMesh,
                      bcs: BoundaryConditionSet) -> tuple[np.ndarray, np.ndarray]:
    """The constrained dofs, ascending, and their values.

    Every vertex of a Dirichlet facet takes its tag's value, facet by facet;
    then each of those dofs, in the order first met, passes its value to
    every copy of its pre-split vertex, in dof order. In this sequence a later
    value wins, and one that differs from the dof's earlier value by more than
    1e-12 relative raises ConfigurationError, naming the first such dof.
    """
    facets, values = _boundary_data(split.base, bcs.dirichlet)
    dofs, values = facets.ravel(), values.ravel()
    if not len(dofs):
        raise ConfigurationError("no Dirichlet dofs found; the system would be singular")
    seeds, first = np.unique(dofs, return_index=True)
    last = len(dofs) - 1 - np.unique(dofs[::-1], return_index=True)[1]
    met = np.argsort(first, kind="stable")
    seeds, seed_values = seeds[met], values[last[met]]

    origin = split.vertex_origin
    count = np.bincount(origin)
    by_origin = np.argsort(origin, kind="stable")       # each group's dofs ascending
    seeded = count[origin[seeds]] > 1
    group = origin[seeds[seeded]]
    size = count[group]
    ends = np.cumsum(size)
    within = np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - size, size)
    twins = by_origin[np.repeat((np.cumsum(count) - count)[group], size) + within]

    dofs = np.concatenate([dofs, twins])
    values = np.concatenate([values, np.repeat(seed_values[seeded], size)])
    order = np.argsort(dofs, kind="stable")
    dofs, values = dofs[order], values[order]
    again = dofs[1:] == dofs[:-1]
    old, new = values[:-1], values[1:]
    clash = again & (np.abs(old - new) > 1e-12 * np.maximum(1.0, np.abs(new)))
    if np.any(clash):
        i = np.flatnonzero(clash)
        i = i[np.argmin(order[1:][i])]                    # the first in the sequence
        raise ConfigurationError(f"conflicting Dirichlet values at dof {int(dofs[i])}: "
                                 f"{float(old[i])} vs {float(new[i])}")
    keep = np.append(~again, True)                        # the last value of each dof
    return dofs[keep], values[keep]
