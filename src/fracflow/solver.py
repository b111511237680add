"""Sparse SPD solvers: multigrid-preconditioned CG and a dense Cholesky oracle.

Every solve runs preconditioned CG. ``solve`` preconditions it with one
smoothed-aggregation V-cycle (``multigrid``; Vanek, Mandel & Brezina,
Computing 56, 1996), which keeps the iteration count nearly independent of
the mesh size. Its finest-level smoother is copy-group block Jacobi: it
inverts the diagonal blocks of the matrix over copy groups, the dofs that
share one pre-split vertex (``SplitMesh.vertex_origin``), 2 on a fracture
line and 3 or 4 at T-junctions and crossings. The ``kf/eps`` jump penalty
couples exactly those copies, which plain Jacobi cannot see, and the
aggregation keeps strongly coupled copies in one aggregate, so the penalty
never reaches a coarse level. A dof without copies is a group of one, so
with no groups the smoother is plain Jacobi. ``cg_solve`` without a
hierarchy is CG preconditioned by the block Jacobi alone.

Matrices are scipy CSR; the CG loop is written out so the iteration count
and residual history are available for reporting. ``cholesky_solve`` is
the exact oracle the tests compare against.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import ConfigurationError, NonConvergenceError, SolverError

__all__ = ["Multigrid", "SolveReport", "cg_solve", "cholesky_solve", "multigrid", "solve"]

DENSE_LIMIT = 2000
# Smoothed aggregation: -a_ij >= theta sqrt(a_ii a_jj) is a strong coupling.
# Below the 0.125 of an isotropic Q1 stencil; the positive couplings of
# stretched cells are never strong.
STRENGTH_THETA = 0.08
# Matrix entries per block of the strength test, which bounds its temporaries.
STRENGTH_BLOCK = 1 << 14
# Coarsening stops at this many dofs; that level is factored by dense Cholesky.
COARSE_DOFS = 400
# A level that keeps more than this share of its parent's dofs is not built.
# On a symmetric matrix every aggregate holds a root and a neighbour, so each
# level at most halves; a one-sided strength pattern can make every node a
# root of its own aggregate.
MIN_SHRINK = 0.8
# Power steps for the spectral radius that damps the smoother.
POWER_STEPS = 15
# Fixed seed of the aggregation priorities and the power iteration start.
SEED = 0


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    relative_residual: float
    converged: bool
    method: str = "cg"
    residual_norms: tuple[float, ...] = field(default=(), repr=False)
    refinement_iterations: tuple[int, ...] = ()
    multigrid_levels: tuple[int, ...] = ()


def _as_csr(A) -> sp.csr_matrix:
    if not sp.issparse(A):
        A = sp.csr_matrix(np.asarray(A, dtype=float))
    A = A.tocsr()
    if A.shape[0] != A.shape[1]:
        raise SolverError(f"matrix must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A.data)):
        raise SolverError("non-finite values in the linear system")
    return A


def _group_blocks(A: sp.csr_matrix, groups) -> sp.csr_matrix:
    """Block-Jacobi inverse: the inverse of A's diagonal blocks over the
    copy groups, as an n x n CSR matrix. Dofs of groups of one (all dofs
    when ``groups`` is None) get the inverse diagonal."""
    n = A.shape[0]
    diag = A.diagonal()
    if np.any(diag <= 0.0):
        raise SolverError("matrix has a non-positive diagonal entry; not SPD")
    inv_diag = 1.0 / diag
    dofs = np.zeros(0, dtype=np.intp)
    if groups is not None:
        groups = np.asarray(groups)
        if groups.shape != (n,) or not np.issubdtype(groups.dtype, np.integer) \
                or (n and groups.min() < 0):
            raise SolverError(f"groups must be {n} non-negative integer labels, "
                              f"got shape {groups.shape} of {groups.dtype}")
        dofs = np.flatnonzero((np.bincount(groups) > 1)[groups])
    single = np.ones(n, dtype=bool)
    single[dofs] = False
    rows = [np.flatnonzero(single)]
    cols = [rows[0]]
    vals = [inv_diag[single]]
    if len(dofs):
        dofs = dofs[np.argsort(groups[dofs], kind="stable")]
        g = groups[dofs]
        starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
        sizes = np.diff(np.r_[starts, len(g)])
        block = np.repeat(np.arange(len(starts)), sizes)
        local = np.arange(len(g)) - starts[block]

        # Dense blocks padded to the largest group with an identity tail.
        sub = A[dofs][:, dofs].tocoo()
        same = block[sub.row] == block[sub.col]
        k = np.arange(sizes.max())
        used = k < sizes[:, None]
        B = np.zeros((len(sizes), len(k), len(k)))
        np.add.at(B, (block[sub.row[same]], local[sub.row[same]], local[sub.col[same]]),
                  sub.data[same])
        B[:, k, k] += ~used
        try:
            L_inv = np.linalg.inv(np.linalg.cholesky(B))
        except np.linalg.LinAlgError as exc:
            raise SolverError("a copy-group block is not positive definite; "
                              "matrix not SPD") from exc
        P = np.einsum("mki,mkj->mij", L_inv, L_inv)        # B^-1 = L^-T L^-1
        P = 0.5 * (P + P.transpose(0, 2, 1))
        m, i, j = np.nonzero(used[:, :, None] & used[:, None, :])
        rows.append(dofs[starts[m] + i])
        cols.append(dofs[starts[m] + j])
        vals.append(P[m, i, j])
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n))


def _smoother(A: sp.csr_matrix, groups) -> sp.csr_matrix:
    """Block Jacobi damped by 4 / (3 rho), rho the spectral radius of
    M^-1 A estimated from below by power steps; the damped sweep then
    contracts every error mode in the A-norm."""
    M_inv = _group_blocks(A, groups)
    x = np.random.default_rng(SEED).standard_normal(A.shape[0])
    for _ in range(POWER_STEPS):
        Ax = A @ x
        y = M_inv @ Ax
        # Rayleigh quotient of A^1/2 M^-1 A^1/2, which shares M^-1 A's spectrum.
        rho = float(y @ Ax) / float(x @ Ax)
        if not (np.isfinite(rho) and rho > 0.0):
            raise SolverError("matrix is not SPD: non-positive energy in the smoother")
        x = y / np.linalg.norm(y)
    M_inv.data *= 4.0 / (3.0 * rho)
    return M_inv


def _aggregates(A: sp.csr_matrix, groups) -> tuple[np.ndarray, int]:
    """Aggregate label of each dof (-1: not aggregated) and the count.

    Copies of one group joined by a strong coupling become one node of the
    strength graph, so they always share an aggregate. Roots are a
    distance-2 maximal independent set of the nodes, picked by Luby rounds
    with fixed-seed priorities; each aggregate is a root, its neighbours,
    then the nodes next to those. Nodes without strong couplings (Dirichlet
    rows among them) stay out: the smoother alone handles them.
    """
    n = A.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(A.indptr))
    cols = A.indices
    scale = 1.0 / np.sqrt(A.diagonal())
    strong = np.empty(len(cols), dtype=bool)
    for start in range(0, len(cols), STRENGTH_BLOCK):
        part = slice(start, start + STRENGTH_BLOCK)
        # a_ij s_i s_j: the strength with its sign flipped, rounded alike.
        strength = scale[rows[part]]
        strength *= A.data[part]
        strength *= scale[cols[part]]
        np.less_equal(strength, -STRENGTH_THETA, out=strong[part])
    strong &= rows != cols
    rows, cols = rows[strong], cols[strong]
    del strong

    node = np.arange(n, dtype=np.int32)
    if groups is not None:
        # Only dofs with copies can couple within their group.
        groups = np.asarray(groups)
        copied = (np.bincount(groups) > 1)[groups]
        pair = np.flatnonzero(copied[rows] & copied[cols])
        pair = pair[groups[rows[pair]] == groups[cols[pair]]]
        merge = sp.csr_matrix((np.ones(len(pair), dtype=np.int8), (rows[pair], cols[pair])),
                              shape=(n, n))
        _, node = connected_components(merge, directed=False)
        node = node.astype(np.int32)
        # A merged pair becomes a loop, which the loops added below absorb.
        rows = node[rows]
        cols = node[cols]
    m = int(node.max()) + 1
    S = sp.csr_matrix((np.ones(len(rows), dtype=bool), (rows, cols)), shape=(m, m))
    del rows, cols
    S = S + sp.identity(m, dtype=bool, format="csr")
    isolated = np.diff(S.indptr) == 1           # its loop is all a node has

    def neighbour_max(v, r=None):  # max over each node's neighbours and itself (nodes r)
        rows = S if r is None else S[r]
        return np.maximum.reduceat(v[rows.indices], rows.indptr[:-1])

    # state: 0 out, 1 undecided, 2 root; a key orders (state, priority)
    key = np.min_scalar_type(3 * m)
    rank = np.random.default_rng(SEED).permutation(m).astype(key)
    state = np.where(isolated, 0, 1).astype(key)
    undecided = np.flatnonzero(state == 1)
    while len(undecided):
        # The largest key within distance 2 of each undecided node. Once
        # they are a minority, only the rows of their neighbours are read.
        own = state * key.type(m) + rank
        if 2 * len(undecided) > m:
            best = neighbour_max(neighbour_max(own))[undecided]
        else:
            near = np.zeros(m, dtype=bool)
            near[S[undecided].indices] = True
            near = np.flatnonzero(near)
            inner = np.zeros_like(own)
            inner[near] = neighbour_max(own, near)
            best = neighbour_max(inner, undecided)
        state[undecided[best >= 2 * m]] = 0
        state[undecided[best == own[undecided]]] = 2
        undecided = undecided[state[undecided] == 1]

    # aggregate number + 1 of each node, 0 while unassigned
    agg = np.zeros(m, dtype=key)
    roots = np.flatnonzero(state == 2)
    agg[roots] = np.arange(1, len(roots) + 1)
    for _ in range(2):
        free = (agg == 0) & ~isolated
        agg[free] = neighbour_max(agg)[free]
    return agg[node].astype(np.intp) - 1, len(roots)


@dataclass(frozen=True)
class _Level:
    A: sp.csr_matrix
    smoother: sp.csr_matrix | None = None   # damped block Jacobi
    P: sp.csr_matrix | None = None          # prolongation from the next level
    R: sp.csr_matrix | None = None          # restriction P^T, stored as CSR
    factor: tuple | None = None             # dense Cholesky of the coarsest A
    potrs: Callable | None = None           # LAPACK solve with that factor


class Multigrid:
    """Smoothed-aggregation hierarchy; calling it applies one V-cycle.

    The V-cycle smooths once before and once after the coarse correction
    with the same symmetric smoother and starts from zero, so it is a fixed
    symmetric positive definite operator, as CG requires. The coarsest
    level is factored by dense Cholesky when it has at most ``COARSE_DOFS``
    dofs, and is only smoothed when coarsening stalled above that. Each
    level keeps its restriction P^T as a CSR copy: a product with the CSC
    view ``P.T`` is 2-3x slower and sums the same terms in the same order.
    """

    def __init__(self, levels: list[_Level]):
        self.levels = levels

    @property
    def sizes(self) -> tuple[int, ...]:
        """Dofs per level, finest first."""
        return tuple(level.A.shape[0] for level in self.levels)

    def __call__(self, b: np.ndarray) -> np.ndarray:
        return self._cycle(0, b)

    def _cycle(self, k: int, b: np.ndarray) -> np.ndarray:
        level = self.levels[k]
        if level.factor is not None:
            # cho_solve without its finiteness checks of the factor and b
            c, lower = level.factor
            x, info = level.potrs(c, b, lower=lower)
            if info != 0:
                raise SolverError(f"coarsest-level solve failed: LAPACK potrs info {info}")
            return x
        x = level.smoother @ b
        if level.P is not None:
            x += level.P @ self._cycle(k + 1, level.R @ self._residual(level, b, x))
        x += level.smoother @ self._residual(level, b, x)
        return x

    @staticmethod
    def _residual(level: _Level, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        """b - A x, formed in the array of A x."""
        r = level.A @ x
        return np.subtract(b, r, out=r)


def multigrid(A, groups=None) -> Multigrid:
    """Build the smoothed-aggregation hierarchy of the SPD matrix ``A``.

    ``groups`` labels copy groups as in ``cg_solve``; they shape the finest
    smoother and aggregates. Each coarser level is P^T A P with the smoothed
    prolongator P = (I - S A) T, T the aggregates' indicator and S the
    damped smoother. Coarsening stops at ``COARSE_DOFS`` or when a level
    would keep more than ``MIN_SHRINK`` of its parent's dofs. Raises
    SolverError on a matrix that is not SPD.
    """
    A = _as_csr(A)
    levels: list[_Level] = []
    while A.shape[0] > COARSE_DOFS:
        S = _smoother(A, groups)
        agg, n_coarse = _aggregates(A, groups)
        if n_coarse == 0 or n_coarse > MIN_SHRINK * A.shape[0]:
            levels.append(_Level(A, S))           # stalled: smoothing only
            return Multigrid(levels)
        have = agg >= 0
        T = sp.csr_matrix((np.ones(int(have.sum())), agg[have].astype(np.int32),
                           np.r_[0, np.cumsum(have)].astype(np.int32)),
                          shape=(A.shape[0], n_coarse))
        del agg, have
        P = T - S @ (A @ T)
        del T
        R = P.T.tocsr()
        # Each entry of R (A P) is summed over the fine dofs in ascending
        # order, as in P.T @ (A P); with its indices sorted it is the same
        # matrix, without a CSC copy of A P.
        A_coarse = R @ (A @ P)
        A_coarse.sort_indices()
        levels.append(_Level(A, S, P, R))
        A = (0.5 * (A_coarse + A_coarse.T)).tocsr()
        groups = None
    try:
        factor = scipy.linalg.cho_factor(A.toarray())
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise SolverError(f"coarsest multigrid level is not SPD: {exc}") from exc
    levels.append(_Level(A, factor=factor,
                         potrs=scipy.linalg.get_lapack_funcs("potrs", (factor[0],))))
    return Multigrid(levels)


def cg_solve(A, b, tol: float = 1e-10, max_iter: int | None = None,
             x0: np.ndarray | None = None, groups=None,
             hierarchy: Multigrid | None = None) -> tuple[np.ndarray, SolveReport]:
    """Conjugate gradients preconditioned by a multigrid V-cycle or by
    copy-group block Jacobi.

    With ``hierarchy`` (built by ``multigrid`` for this matrix) each
    iteration applies one V-cycle. Without it, ``groups`` labels each dof
    with its copy group (for a split mesh, the pre-split vertex it came
    from); dofs with equal labels form one block of a block-Jacobi
    preconditioner. Without groups every dof is its own block, which is
    plain Jacobi.

    Convergence is measured in the Jacobi norm |r|_D = sqrt(r' D^-1 r) with
    D the matrix diagonal: converged means |b - A x|_D <= tol * |b|_D for the
    recomputed (not recursive) residual. The unscaled 2-norm residual is
    meaningless for these systems: interface penalty entries can exceed the
    load scale by many orders, so float64 cannot even evaluate b - A x at
    the exact solution to a small unscaled ratio.

    The preconditioned norm sqrt(r' P r) of the recursive residual only
    triggers that check, first at ``tol`` times sqrt(b' P b). When the check
    fails, the trigger is tightened by the ratio of the target to the
    recomputed norm, at least halved, and the iteration goes on undisturbed:
    a restart would throw away the Krylov space and trip the stall test. Two
    failed checks in a row without a 10% gain mean the float64 floor.

    From a zero start the initial residual is b itself, so a call applies the
    preconditioner once per iteration plus once, and no product with A
    precedes the loop; a given ``x0`` adds one product with A and one more
    preconditioner apply (for sqrt(b' P b)).

    Raises NonConvergenceError (carrying the report) when the budget of
    ``max_iter`` (default 10 n) iterations is exhausted or the residual
    stalls, SolverError on non-finite values or a matrix that is not SPD, and
    ConfigurationError unless ``tol`` is finite and positive.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise ConfigurationError(f"solver tolerance must be finite and positive, got {tol!r}")
    A = _as_csr(A)
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    if b.shape != (n,):
        raise SolverError(f"rhs shape {b.shape} does not match matrix size {n}")
    if not np.all(np.isfinite(b)):
        raise SolverError("non-finite values in the linear system")
    if max_iter is None:
        max_iter = 10 * n

    inv_diag = A.diagonal()
    if np.any(inv_diag <= 0.0):
        raise SolverError("matrix has a non-positive diagonal entry; not SPD")
    np.divide(1.0, inv_diag, out=inv_diag)
    levels: tuple[int, ...] = ()
    if hierarchy is not None:
        levels = hierarchy.sizes
        if levels[0] != n:
            raise SolverError(f"hierarchy built for {levels[0]} dofs, matrix has {n}")
        precondition = hierarchy
    else:
        precondition = _group_blocks(A, groups).dot

    def pnorm(v: np.ndarray) -> float:
        return float(np.sqrt(np.abs(v @ (inv_diag * v))))

    b_norm = pnorm(b)
    if b_norm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True, "cg", (0.0,), multigrid_levels=levels)

    if x0 is None:
        x = np.zeros(n)
        r = b.copy()
    else:
        x = np.array(x0, dtype=float)
        r = b - A @ x
    p = precondition(r)
    rz = float(r @ p)
    history = [float(np.sqrt(max(rz, 0.0)))]
    trigger = tol * (history[0] if x0 is None
                     else float(np.sqrt(max(b @ precondition(b), 0.0))))
    it = 0
    last_true = np.inf
    stalled = False
    while it < max_iter:
        if history[-1] <= trigger:
            # Guard against recursion drift: recompute before declaring done.
            true_norm = pnorm(b - A @ x)
            if true_norm <= tol * b_norm:
                return x, SolveReport(it, true_norm / b_norm, True, "cg", tuple(history),
                                      multigrid_levels=levels)
            if true_norm >= 0.9 * last_true:
                stalled = True     # the recomputed residual stopped falling
                break
            last_true = true_norm
            trigger = history[-1] * min(0.5, tol * b_norm / true_norm)
        Ap = A @ p
        pAp = float(p @ Ap)
        if not np.isfinite(pAp) or pAp <= 0.0:
            raise SolverError("breakdown: non-positive curvature (matrix not SPD?)")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        del Ap
        z = precondition(r)
        rz_new = float(r @ z)
        if not np.isfinite(rz_new):
            raise SolverError("non-finite values during CG iteration")
        history.append(float(np.sqrt(max(rz_new, 0.0))))
        beta = rz_new / rz
        rz = rz_new
        p *= beta
        p += z
        del z                  # freed before the next V-cycle
        it += 1

    true_norm = pnorm(b - A @ x)
    report = SolveReport(it, true_norm / b_norm, true_norm <= tol * b_norm, "cg",
                         tuple(history), multigrid_levels=levels)
    if report.converged:
        return x, report
    reason = "stalled at the float64 floor" if stalled else f"budget of {max_iter} iterations exhausted"
    exc = NonConvergenceError(
        f"CG did not reach tol={tol}: {reason} "
        f"(relative residual {report.relative_residual:.3e})", report)
    exc.x = x
    raise exc


def cholesky_solve(A, b) -> tuple[np.ndarray, SolveReport]:
    """Dense Cholesky for small systems; the exact oracle for the tests."""
    A = _as_csr(A)
    n = A.shape[0]
    if n > DENSE_LIMIT:
        raise SolverError(f"dense Cholesky limited to {DENSE_LIMIT} dofs, got {n}")
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise SolverError(f"rhs shape {b.shape} does not match matrix size {n}")
    if not np.all(np.isfinite(b)):
        raise SolverError("non-finite values in the linear system")
    dense = A.toarray()
    try:
        c, low = scipy.linalg.cho_factor(dense)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise SolverError(f"Cholesky factorization failed: {exc}") from exc
    x = scipy.linalg.cho_solve((c, low), b)
    # Same preconditioned residual norm as cg_solve, for comparability.
    d = np.diag(dense)
    if np.any(d <= 0.0):
        raise SolverError("matrix has a non-positive diagonal entry; not SPD")
    r = b - dense @ x
    b_norm = float(np.sqrt(np.abs(b @ (b / d))))
    rel = float(np.sqrt(np.abs(r @ (r / d)))) / b_norm if b_norm else 0.0
    return x, SolveReport(1, rel, True, "cholesky")


def solve(A, b, tol: float = 1e-10, max_iter: int | None = None,
          groups=None, hierarchy: Multigrid | None = None) -> tuple[np.ndarray, SolveReport]:
    """Multigrid-preconditioned CG at any size (see ``cg_solve``). Builds
    the hierarchy over ``groups`` unless a prebuilt one is passed."""
    if hierarchy is None:
        hierarchy = multigrid(A, groups)
    return cg_solve(A, b, tol=tol, max_iter=max_iter, hierarchy=hierarchy)


def solve_system(system, tol: float = 1e-10, max_iter: int | None = None,
                 refine: int = 2) -> tuple[np.ndarray, SolveReport]:
    """Solve an assembled system, then iteratively refine the solution.

    The assembled matrix rounds O(1/eps) interface entries against O(1)
    stiffness entries, which biases the solution by about 1e-8 on strongly
    conductive interfaces. Each refinement round takes the residual of
    ``LinearSystem.residual_raw`` (domain matrix as is, interface terms on
    pair jumps and means) plus the boundary loads, puts each Dirichlet row's
    value mismatch in its place, and solves for the correction, restoring
    conservation to machine precision.
    One multigrid hierarchy over the system's copy groups is built and
    preconditions the first solve and every refinement solve; the returned
    report is the first solve's, with the iteration count of each
    refinement solve attached.
    """
    hierarchy = multigrid(system.matrix, system.copy_groups)
    x, report = solve(system.matrix, system.rhs, tol=tol, max_iter=max_iter,
                      hierarchy=hierarchy)
    fixed = np.fromiter(system.dirichlet_dofs, dtype=np.intp, count=len(system.dirichlet_dofs))
    g = np.fromiter(system.dirichlet_dofs.values(), dtype=float, count=len(fixed))
    refinement: list[int] = []
    for _ in range(refine):
        r = system.residual_raw(x)
        r += system.rhs_raw - system.rhs_body
        r[fixed] = g - x[fixed]
        if not np.any(r):
            break
        # The correction only needs a few digits; its error is scaled by ||r||.
        delta, round_report = solve(system.matrix, r, tol=1e-4, max_iter=max_iter,
                                    hierarchy=hierarchy)
        del r
        refinement.append(round_report.iterations)
        x += delta
        del delta
    return x, replace(report, refinement_iterations=tuple(refinement))
