"""Global assembly: subdomain diffusion, interface terms, boundary conditions.

Interface terms live on node pairs: each fracture node is duplicated into a
side-1 copy ``lo`` and a side-2 copy ``hi``, and ``assemble`` collects the
unique pairs ``(lo, hi)`` once (adjacent interface edges share their
endpoint pairs). Over p pairs the mean and jump maps, which
``_pair_maps`` builds for the assembly and the residual, are

    M = 0.5 at (k, lo_k) and (k, hi_k)        mean = (side1 + side2) / 2
    J = -1 at (k, lo_k), +1 at (k, hi_k)      jump = side2 - side1

and the interface adds the paper's two conditions,

    M^T K_mean M  +  J^T K_jump J,    K_mean = S(kappa_j),   K_jump = Q(r_a),

with S the tangential segment stiffness and Q the segment mass, each a 2x2
block per edge on its two pairs, plus loads M^T f(h_j) + J^T f(h_a). The
flux jump obeys a Wentzell condition, tangential diffusion of the side mean
(K_mean); the flux average obeys a Robin condition, a penalty on the jump
(K_jump). In 1D the interface is a point with no tangential direction:
K_mean is zero and Q is the bare coefficient on its one pair.
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
from .geometry import FractureSpec, Mesh, Point, SplitMesh

__all__ = [
    "InterfaceCoefficients",
    "BoundaryConditionSet",
    "LinearSystem",
    "fracture_coefficient_map",
    "assemble",
]

BCValue = Union[float, Callable[[Point], float]]

_COEFFICIENTS = ("kappa_j", "h_j", "r_a", "h_a")


@dataclass(frozen=True)
class InterfaceCoefficients:
    """The four interface coefficients of one fracture.

    Each is a scalar, a nodal pair or an array that broadcasts to the
    fracture's (m_j, k) entity nodes (k = 2 on 2D edges, 1 on 1D points).
    kappa_j and its load h_j act on the side MEAN (the Wentzell condition on
    the flux jump); r_a and its load h_a act on the JUMP (the Robin condition
    on the flux average). kappa_j and r_a must be >= 0.
    """

    kappa_j: object = 0.0
    h_j: object = 0.0
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


def fracture_coefficient_map(fracture: FractureSpec) -> Callable[[np.ndarray], InterfaceCoefficients]:
    """The fracture model of one fracture, as a coefficient callable.

    It maps nodal apertures eps (a scalar or an array, such as the (m_j, k)
    array ``assemble`` passes) to ``kappa_j = kf * eps`` and ``r_a = kf /
    eps`` at the fracture's mobility kf, in the apertures' shape. Each
    aperture is first floored at 1e-12 times the fracture's largest one, so
    r_a stays finite where an aperture closes to zero.
    """
    k_f = fracture.mobility
    floor = 1e-12 * fracture.aperture.max_value
    if not (np.isfinite(floor) and floor > 0.0):
        raise ConfigurationError(f"aperture floor must be positive, got {floor!r}")

    def coefficients(apertures) -> InterfaceCoefficients:
        eps = np.asarray(apertures, dtype=float)
        if np.any(eps < 0.0):
            raise ConfigurationError(f"apertures must be >= 0, got {eps.tolist()!r}")
        eps = np.maximum(eps, floor)
        return InterfaceCoefficients(kappa_j=k_f * eps, r_a=k_f / eps)

    return coefficients


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


def _pair_maps(pairs: np.ndarray, n: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The p x n mean map M and jump map J of the (side 1, side 2) dof pairs
    (see the module docstring)."""
    rows = np.repeat(np.arange(len(pairs)), 2)
    return tuple(sp.csr_matrix((np.tile(w, len(pairs)), (rows, pairs.ravel())),
                               shape=(len(pairs), n)) for w in ([0.5, 0.5], [-1.0, 1.0]))


@dataclass(eq=False)
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
    len(domain_rows) x n CSR. ``matrix_domain`` is formed on each access.
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
        """The subdomain diffusion as a new n x n CSR matrix on each access: a
        row gather of ``matrix`` stacked over ``domain_at_rows``, which takes
        the stored row in ``domain_rows`` and the row of ``matrix`` in all
        others."""
        rows = np.arange(self.n_dofs)
        rows[self.domain_rows] = self.n_dofs + np.arange(len(self.domain_rows))
        return sp.vstack([self.matrix, self.domain_at_rows], format="csr")[rows]

    def residual_raw(self, solution: np.ndarray) -> np.ndarray:
        """rhs_body - (matrix_domain + M^T interface_mean M + J^T interface_jump J)
        @ solution, with the interface part in jump/mean form.

        The domain matrix is applied row by row as it is: ``matrix @ x``,
        with the ``domain_rows`` overwritten by ``domain_at_rows @ x``. Every
        row so sums the same products in the same order as ``matrix_domain @
        x`` would. The interface part first takes each pair's jump J x and
        side mean M x, scales them by ``interface_jump`` and
        ``interface_mean``, then scatters the results back to the two sides
        with J^T and M^T. The kf/eps penalty so
        multiplies a small jump instead of two O(1) pressures whose
        penalty-scaled products would have to cancel, and each jump term
        enters its two sides with opposite signs. Boundary fluxes recovered
        from this residual therefore conserve mass to the roundoff of O(1)
        terms.
        """
        x = np.asarray(solution, dtype=float)
        M, J = _pair_maps(self.interface_pairs, self.n_dofs)
        interface = M.T @ (self.interface_mean @ (M @ x)) + J.T @ (self.interface_jump @ (J @ x))
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
    values = np.zeros((len(_COEFFICIENTS),) + ends.shape[:2])           # (4, m, k)
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
    kappa_j, h_j, r_a, h_a = values
    if ends.shape[1] == 1:
        blocks_mean, blocks_jump = np.zeros_like(r_a)[:, :, None], r_a[:, :, None]
        load_mean, load_jump = h_j, h_a
    else:
        L = entities.length
        blocks_mean, blocks_jump = p1_segment_stiffness(L, kappa_j), p1_segment_mass(L, r_a)
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


def assemble(split: SplitMesh, k_cell, coeffs_per_fracture,
             bcs: BoundaryConditionSet) -> LinearSystem:
    """Assemble the fractured Darcy system on a split mesh.

    Parameters
    ----------
    split : SplitMesh
    k_cell : one positive mobility, or one per cell of ``split.base``.
    coeffs_per_fracture : one entry per fracture: an InterfaceCoefficients
        applied to every node of that fracture, or a callable that takes the
        fracture's nodal apertures, the (m_j, k) array
        ``split.edges_of_fracture(j).apertures``, and returns its
        InterfaceCoefficients. Each callable is called once, and each field
        of what it returns must broadcast to (m_j, k).
    bcs : BoundaryConditionSet over the mesh's facet tags. A callable value
        gets one Point per facet vertex.

    The domain matrix and the pair operators are summed once, as
    ``A_domain + M^T K_mean M + J^T K_jump J`` with the pair maps that also
    give ``rhs_body``, and the Dirichlet rows and columns are eliminated in
    place on the sum, which gives ``matrix``. Neither the sum nor the full
    domain matrix is kept: the system stores the pair operators and only the
    domain rows that differ from ``matrix`` (see ``LinearSystem``), from
    which ``matrix_domain`` is formed again on access.
    """
    mesh = split.base
    n = split.n_dofs

    k_cell = np.asarray(k_cell, dtype=float)
    if k_cell.shape not in ((), (mesh.n_cells,)):
        raise ConfigurationError(
            f"expected one mobility or one per cell ({mesh.n_cells}), got shape {k_cell.shape}")
    if not np.all(np.isfinite(k_cell)) or np.any(k_cell <= 0.0):
        raise ConfigurationError("cell mobilities must be positive and finite")
    k_cell = np.broadcast_to(k_cell, (mesh.n_cells,))

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
    M, J = _pair_maps(pairs, n)
    rhs_body = M.T @ f_mean + J.T @ f_jump

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
    # columns, then put the fixed rows' 1 on the diagonal. Every dof lies in
    # a cell, so its diagonal entry is stored: the assignment writes in
    # place and changes no structure.
    A = A_domain + (M.T @ K_mean @ M + J.T @ K_jump @ J) if len(pairs) else A_domain.copy()
    rhs = rhs_raw - A @ g_vec
    rhs[d_idx] = g
    fixed_entry = ~np.repeat(free, np.diff(A.indptr))
    fixed_entry |= ~free[A.indices]
    A.data[fixed_entry] = 0.0
    del fixed_entry
    A[d_idx, d_idx] = 1.0
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
    chosen = np.isin(mesh.facet_tags, np.array(list(data), dtype=str))
    facets, tags = mesh.boundary_facets[chosen], mesh.facet_tags[chosen]
    values = np.empty(facets.shape)
    for tag, value in data.items():
        at = tags == tag
        if callable(value):
            points = mesh.vertices[facets[at]].reshape(-1, mesh.dim).tolist()
            values[at] = np.reshape([float(value(Point(*xy))) for xy in points], (-1, mesh.dim))
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
    1e-12 relative raises ConfigurationError, naming the first such dof. The
    copies are read from a boolean CSR matrix whose row v holds the dofs of
    pre-split vertex v, ascending.
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
    copies = sp.csr_matrix((np.ones(len(origin), dtype=bool), (origin, np.arange(len(origin)))))
    seeded = np.diff(copies.indptr)[origin[seeds]] > 1
    twins = copies[origin[seeds[seeded]]]

    dofs = np.concatenate([dofs, twins.indices])
    values = np.concatenate([values, np.repeat(seed_values[seeded], np.diff(twins.indptr))])
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
