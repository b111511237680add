"""Sparse SPD solvers: multigrid-preconditioned CG and a dense Cholesky oracle.

Every solve runs one CG path: ``cg_solve`` from a zero start, each
iteration preconditioned by one smoothed-aggregation V-cycle (``multigrid``;
Vanek, Mandel & Brezina, Computing 56, 1996), which keeps the iteration
count nearly independent of the mesh size. ``solve`` builds the hierarchy
and runs it. The finest-level smoother is group block Jacobi: it inverts
the diagonal blocks of the matrix over groups of dofs. On a split mesh a
group is the copies of one pre-split vertex (``SplitMesh.vertex_origin``),
2 on a fracture line and 3 or 4 at T-junctions and crossings; the
``kf/eps`` jump penalty couples exactly those copies, which plain Jacobi
cannot see. In the resolved-band reference a group is one row of nodes
across the band, which the block inverse relaxes as a line, as thin cells
call for. The aggregation keeps the strongly coupled dofs of a group in
one aggregate, so the penalty never reaches a coarse level. A dof alone
in its group is a group of one, so with no groups the smoother is plain
Jacobi.

Matrices are scipy CSR; the CG loop is written out so the iteration count
and residual history are available for reporting; dense work is numpy, so
a solve loads nothing of scipy but ``scipy.sparse``. ``solve_system`` adds
one refinement round; ``cholesky_solve`` is the tests' exact oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError, NonConvergenceError, SolverError
from .geometry import components

__all__ = ["Multigrid", "SolveReport", "cg_solve", "cholesky_solve", "multigrid", "solve"]

DENSE_LIMIT = 2000
# Smoothed aggregation: -a_ij >= theta sqrt(a_ii a_jj) is a strong coupling.
# Below the 0.125 of an isotropic Q1 stencil; the positive couplings of
# stretched cells are never strong.
STRENGTH_THETA = 0.08
# Matrix entries per block of the strength test, which bounds its temporaries.
STRENGTH_BLOCK = 1 << 14
# Coarsening stops at this many dofs; that level keeps its inverse Cholesky factor.
COARSE_DOFS = 400
# Cholesky factors of at most this many rows are inverted by np.linalg.inv.
INV_ROWS = 64
# A level that keeps more than this share of its parent's dofs is not built.
# On a symmetric matrix every aggregate holds a root and a neighbour, so each
# level at most halves; a one-sided strength pattern can make every node a
# root of its own aggregate.
MIN_SHRINK = 0.8
# Power steps for the spectral radius that damps the smoother.
POWER_STEPS = 15
# Fixed seed of the aggregation priorities and the power iteration start.
SEED = 0
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    relative_residual: float
    converged: bool
    method: str = "cg"
    residual_norms: tuple[float, ...] = field(default=(), repr=False)
    refinement_iterations: int = 0
    multigrid_levels: tuple[int, ...] = ()
    float64_floor: float | None = None      # set when converged at that floor


def _as_csr(A) -> sp.csr_matrix:
    if not sp.issparse(A):
        A = sp.csr_matrix(np.asarray(A, dtype=float))
    A = A.tocsr()
    if A.shape[0] != A.shape[1]:
        raise SolverError(f"matrix must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A.data)):
        raise SolverError("non-finite values in the linear system")
    return A


def _check_rhs(b, n: int) -> np.ndarray:
    """``b`` as a finite float vector of n entries; raises SolverError."""
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise SolverError(f"rhs shape {b.shape} does not match matrix size {n}")
    if not np.all(np.isfinite(b)):
        raise SolverError("non-finite values in the linear system")
    return b


def _check_groups(groups, n: int) -> np.ndarray | None:
    """``groups`` as an array of n non-negative integer group labels,
    or None; raises SolverError on anything else."""
    if groups is None:
        return None
    groups = np.asarray(groups)
    if groups.shape != (n,) or not np.issubdtype(groups.dtype, np.integer) \
            or (n and groups.min() < 0):
        raise SolverError(f"groups must be {n} non-negative integer labels, "
                          f"got shape {groups.shape} of {groups.dtype}")
    return groups


def _inverse_factor(B: np.ndarray) -> np.ndarray:
    """The inverse L^-1 of the Cholesky factor L of each SPD matrix in
    ``B`` (..., k, k); raises np.linalg.LinAlgError on one that is not
    positive definite. Above ``INV_ROWS`` rows L^-1 is formed by halves,
    [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]], in matrix
    products that skip the zero upper triangle np.linalg.inv works through."""
    def inverse(L: np.ndarray) -> np.ndarray:
        k = L.shape[-1]
        if k <= INV_ROWS:
            return np.linalg.inv(L)
        h = k // 2
        out = np.zeros_like(L)
        A_inv = out[..., :h, :h] = inverse(L[..., :h, :h])
        D_inv = out[..., h:, h:] = inverse(L[..., h:, h:])
        out[..., h:, :h] = -(D_inv @ (L[..., h:, :h] @ A_inv))
        return out

    return inverse(np.linalg.cholesky(B))


def _group_blocks(A: sp.csr_matrix, groups: np.ndarray | None) -> sp.csr_matrix:
    """Block-Jacobi inverse: the inverse of A's diagonal blocks over the
    groups (checked labels), as an n x n CSR matrix whose row holds its
    group's dofs in ascending order. Dofs of groups of one (all dofs when
    ``groups`` is None) get the inverse diagonal."""
    n = A.shape[0]
    diag = A.diagonal()
    if np.any(diag <= 0.0):
        raise SolverError("matrix has a non-positive diagonal entry; not SPD")
    grouped = np.zeros(n, dtype=bool)
    if groups is not None:
        grouped = (np.bincount(groups) > 1)[groups]
    single = np.flatnonzero(~grouped)
    rows, cols, data = [single], [single], [1.0 / diag[single]]
    dofs = np.flatnonzero(grouped)
    if len(dofs):
        dofs = dofs[np.argsort(groups[dofs], kind="stable")].astype(np.int32)
        g = groups[dofs]
        starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]]).astype(np.int32)
        sizes = np.diff(np.r_[starts, len(g)])
        block = np.repeat(np.arange(len(starts)), sizes)
        local = np.arange(len(g)) - starts[block]

        # Dense blocks padded to the largest group with an identity tail.
        sub = A[dofs][:, dofs].tocoo()
        same = block[sub.row] == block[sub.col]
        k = np.arange(sizes.max(), dtype=np.int32)
        used = k < sizes[:, None]
        B = np.zeros((len(sizes), len(k), len(k)))
        np.add.at(B, (block[sub.row[same]], local[sub.row[same]], local[sub.col[same]]),
                  sub.data[same])
        B[:, k, k] += ~used
        try:
            L_inv = _inverse_factor(B)
        except np.linalg.LinAlgError as exc:
            raise SolverError("a copy-group block is not positive definite; "
                              "matrix not SPD") from exc
        del sub, same, B
        P = L_inv.transpose(0, 2, 1) @ L_inv              # B^-1 = L^-T L^-1
        del L_inv
        P = 0.5 * (P + P.transpose(0, 2, 1))
        # the row of dofs[p] is row local[p] of its block, over its group's dofs
        in_block = used[block]
        rows.append(np.repeat(dofs, sizes[block]))
        cols.append(dofs[(starts[block][:, None] + k)[in_block]])
        data.append(P[block, local][in_block])
    return sp.csr_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
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


def _strength_graph(A: sp.csr_matrix, groups) -> tuple[sp.csr_matrix, np.ndarray | None]:
    """The strong couplings of A with a loop at every node, as a boolean
    CSR graph, and each dof's node (None: every dof is its own node).

    The graph is built in A's rows: A's pattern, True at each strong
    coupling and loop, with the other entries dropped by
    ``eliminate_zeros``. That compacts the index arrays in place, so the
    graph is built on copies of A's (``copy=True``). Dofs of one group
    joined by an edge of that graph are one node: the rows of a node's dofs
    are gathered into one and their columns renamed to nodes, so a merged
    node's row may name a column more than once.
    """
    n = A.shape[0]
    indptr, cols = A.indptr, A.indices
    row_len = np.diff(indptr)
    scale = 1.0 / np.sqrt(A.diagonal())
    # The strong couplings and the diagonal entries, in blocks of whole rows
    # with about STRENGTH_BLOCK entries, which bounds the temporaries.
    looped = np.empty(len(cols), dtype=bool)
    firsts = np.unique(np.searchsorted(indptr, np.arange(0, len(cols), STRENGTH_BLOCK),
                                       side="right") - 1)
    for a, b in zip(firsts.tolist(), [*firsts[1:].tolist(), n]):
        part = slice(indptr[a], indptr[b])
        c = cols[part]
        strength = np.repeat(scale[a:b], row_len[a:b])
        strength *= A.data[part]
        strength *= scale[c]
        np.less_equal(strength, -STRENGTH_THETA, out=looped[part])
        looped[part] |= np.repeat(np.arange(a, b, dtype=c.dtype), row_len[a:b]) == c
    S = sp.csr_matrix((looped, cols, indptr), shape=(n, n), copy=True)
    del looped
    S.eliminate_zeros()
    if groups is None:
        return S, None
    # Only dofs with copies can couple within their group.
    copied = np.flatnonzero((np.bincount(groups) > 1)[groups])
    sub = S[copied]
    i, j = np.repeat(copied, np.diff(sub.indptr)), sub.indices
    pair = (groups[i] == groups[j]) & (i != j)
    if not pair.any():
        return S, None
    node = components(n, i[pair], j[pair])
    # A node's row is its dofs' rows one after another; a merged pair becomes a loop.
    S = S[np.argsort(node, kind="stable")]
    S.indices = node[S.indices]
    m = int(node.max()) + 1
    node_rows = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(np.bincount(node, minlength=m), out=node_rows[1:])
    return sp.csr_matrix((S.data, S.indices, S.indptr[node_rows]), shape=(m, m)), node


def _aggregates(A: sp.csr_matrix, groups) -> tuple[np.ndarray, int]:
    """Aggregate label of each dof (-1: not aggregated) and the count.

    Dofs of one group joined by a strong coupling are one node of the
    strength graph (``_strength_graph``), so they always share an
    aggregate. Roots are a distance-2 maximal independent set of the nodes,
    picked by Luby rounds with fixed-seed priorities: a round makes roots of
    the undecided nodes whose priority is the largest within distance 2 and
    takes the nodes within distance 2 of those out. On a symmetric matrix
    this is the one set a greedy pass in priority order picks, however the
    rounds fall (Blelloch, Fineman & Shun, SPAA 2012). Each aggregate is a
    root, its neighbours, then the nodes next to those. Nodes without strong
    couplings (Dirichlet rows among them) stay out: the smoother alone
    handles them. While the undecided nodes are a majority a round reads
    the whole graph, after that only the rows next to them; either way it
    picks the same roots. ``A`` has a positive diagonal (``_smoother``
    checks).
    """
    S, node = _strength_graph(A, groups)
    m = S.shape[0]
    # Each row holds its node's loop, so a row whose smallest and largest
    # column agree is the loop alone.
    isolated = np.minimum.reduceat(S.indices, S.indptr[:-1]) \
        == np.maximum.reduceat(S.indices, S.indptr[:-1])

    def rows_of(r):  # S's column indices in the nodes r's rows, and where each row starts
        sub = S[r]
        return sub.indices, sub.indptr[:-1]

    def neighbour_max(v, r=None):  # max over each node's neighbours and itself (nodes r)
        idx, at = (S.indices, S.indptr[:-1]) if r is None else rows_of(r)
        return np.maximum.reduceat(v[idx], at)

    # priority + 1 of each undecided node, 0 once it is a root or out
    key = np.min_scalar_type(m)
    own = np.random.default_rng(SEED).permutation(m).astype(key)
    own += 1
    own[isolated] = 0
    root = np.zeros(m, dtype=bool)
    undecided = np.flatnonzero(own)
    while len(undecided):
        # The largest key within distance 2 of each undecided node. Once
        # they are a minority, only the rows of their neighbours are read.
        if 2 * len(undecided) > m:
            best = neighbour_max(neighbour_max(own))[undecided]
        else:
            idx, at = rows_of(undecided)
            near = np.zeros(m, dtype=bool)
            near[idx] = True
            near = np.flatnonzero(near)
            inner = np.zeros_like(own)
            inner[near] = neighbour_max(own, near)
            best = np.maximum.reduceat(inner[idx], at)
        new = undecided[best == own[undecided]]
        root[new] = True
        # the new roots and every node within distance 2 of them are decided
        near = np.zeros(m, dtype=bool)
        near[rows_of(new)[0]] = True
        own[rows_of(np.flatnonzero(near))[0]] = 0
        undecided = undecided[own[undecided] != 0]

    # aggregate number + 1 of each node, 0 while unassigned
    agg = np.zeros(m, dtype=key)
    roots = np.flatnonzero(root)
    agg[roots] = np.arange(1, len(roots) + 1)
    free = (agg == 0) & ~isolated
    agg[free] = neighbour_max(agg)[free]
    free = np.flatnonzero((agg == 0) & ~isolated)
    agg[free] = neighbour_max(agg, free)
    if node is not None:
        agg = agg[node]
    return agg.astype(np.intp) - 1, len(roots)


@dataclass(frozen=True)
class _Level:
    A: sp.csr_matrix
    smoother: sp.csr_matrix | None = None   # damped block Jacobi
    R: sp.csr_matrix | None = None          # restriction P^T to the next level
    L_inv: np.ndarray | None = None         # inverse Cholesky factor of the coarsest A


class Multigrid:
    """Smoothed-aggregation hierarchy; calling it applies one V-cycle.

    The V-cycle smooths once before and once after the coarse correction
    with the same symmetric smoother and starts from zero, so it is a fixed
    symmetric positive definite operator, as CG requires. The coarsest
    level, at most ``COARSE_DOFS`` dofs, is solved as L^-T (L^-1 b) with
    the inverse of its dense Cholesky factor, and is only smoothed when
    coarsening stalled above that. Each level stores only its restriction
    R = P^T, as CSR, and prolongs with its CSC view ``R.T``.
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
        if level.L_inv is not None:
            return level.L_inv.T @ (level.L_inv @ b)
        x = level.smoother @ b
        if level.R is not None:
            x += level.R.T @ self._cycle(k + 1, level.R @ self._residual(level, b, x))
        x += level.smoother @ self._residual(level, b, x)
        return x

    @staticmethod
    def _residual(level: _Level, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        """b - A x, formed in the array of A x."""
        r = level.A @ x
        return np.subtract(b, r, out=r)


def multigrid(A, groups=None) -> Multigrid:
    """Build the smoothed-aggregation hierarchy of the SPD matrix ``A``.

    ``groups`` labels each dof with its group: for a split mesh, the
    pre-split vertex it came from; for the resolved-band reference, its
    row of nodes across the band. They shape the finest smoother, which
    inverts each group's diagonal block, and the aggregates. Each coarser level is P^T A P with the smoothed
    prolongator P = (I - S A) T, T the aggregates' indicator and S the
    damped smoother. Coarsening stops at ``COARSE_DOFS`` or when a level
    would keep more than ``MIN_SHRINK`` of its parent's dofs. Raises
    SolverError on a matrix that is not SPD.
    """
    A = _as_csr(A)
    groups = _check_groups(groups, A.shape[0])
    levels: list[_Level] = []
    while A.shape[0] > COARSE_DOFS:
        S = _smoother(A, groups)
        agg, n_coarse = _aggregates(A, groups)
        if n_coarse == 0 or n_coarse > MIN_SHRINK * A.shape[0]:
            levels.append(_Level(A, S))           # stalled: smoothing only
            return Multigrid(levels)
        rows = np.flatnonzero(agg >= 0)
        T = sp.csr_matrix((np.ones(len(rows)), (rows, agg[rows])), shape=(A.shape[0], n_coarse))
        del agg, rows
        P = T - S @ (A @ T)
        del T
        R = P.T.tocsr()
        # Each entry of R (A P) is summed over the fine dofs in ascending
        # order, as in P.T @ (A P); with its indices sorted it is the same
        # matrix, without a CSC copy of A P.
        A_coarse = R @ (A @ P)
        A_coarse.sort_indices()
        levels.append(_Level(A, S, R))
        A = (0.5 * (A_coarse + A_coarse.T)).tocsr()
        groups = None
    try:
        L_inv = _inverse_factor(A.toarray())
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"coarsest multigrid level is not SPD: {exc}") from exc
    levels.append(_Level(A, L_inv=L_inv))
    return Multigrid(levels)


def cg_solve(A, b, hierarchy: Multigrid, tol: float = 1e-10,
             max_iter: int | None = None) -> tuple[np.ndarray, SolveReport]:
    """Conjugate gradients from a zero start, each iteration preconditioned
    by one V-cycle of ``hierarchy`` (built by ``multigrid`` for this matrix).

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
    failed checks in a row without a 10% gain mean a stall. A stall within
    the float64 floor eps |(|A| |x| + |b|)|_D / |b|_D, the error of evaluating
    b - A x at the iterate, has converged (a normwise backward-error test;
    Arioli, Duff & Ruiz, SIAM J. Matrix Anal. Appl. 13, 1992), and its report
    gives that ``float64_floor``. No float64 residual can show a ``tol``
    below eps, so a stall never meets one; the trigger and its tightening
    stay at or above eps times the norm they scale, so such a ``tol`` ends
    in that stall and not in a curvature breakdown.

    The initial residual is b itself, so a call applies the V-cycle once per
    iteration plus once, and no product with A precedes the loop.

    Raises NonConvergenceError (carrying the report) when the budget of
    ``max_iter`` (default 10 n) iterations is exhausted or the residual
    stalls above the floor, SolverError on non-finite values, a matrix that
    is not SPD or a hierarchy of another size, and ConfigurationError unless
    ``tol`` is finite and positive.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise ConfigurationError(f"solver tolerance must be finite and positive, got {tol!r}")
    A = _as_csr(A)
    n = A.shape[0]
    b = _check_rhs(b, n)
    if max_iter is None:
        max_iter = 10 * n

    inv_diag = A.diagonal()
    if np.any(inv_diag <= 0.0):
        raise SolverError("matrix has a non-positive diagonal entry; not SPD")
    np.divide(1.0, inv_diag, out=inv_diag)
    levels = hierarchy.sizes
    if levels[0] != n:
        raise SolverError(f"hierarchy built for {levels[0]} dofs, matrix has {n}")

    def pnorm(v: np.ndarray) -> float:
        return float(np.sqrt(np.abs(v @ (inv_diag * v))))

    b_norm = pnorm(b)
    if b_norm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True, "cg", (0.0,), multigrid_levels=levels)

    x = np.zeros(n)
    r = b.copy()
    p = hierarchy(r)
    rz = float(r @ p)
    history = [float(np.sqrt(max(rz, 0.0)))]
    trigger = max(tol, EPS) * history[0]
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
            if true_norm >= 0.9 * last_true:     # the recomputed residual stopped falling
                floor = EPS * pnorm(abs(A) @ np.abs(x) + np.abs(b)) / b_norm
                if tol >= EPS and true_norm <= floor * b_norm:
                    return x, SolveReport(it, true_norm / b_norm, True, "cg", tuple(history),
                                          multigrid_levels=levels, float64_floor=floor)
                stalled = True
                break
            last_true = true_norm
            trigger = history[-1] * max(min(0.5, tol * b_norm / true_norm), EPS)
        Ap = A @ p
        pAp = float(p @ Ap)
        if not np.isfinite(pAp) or pAp <= 0.0:
            raise SolverError("breakdown: non-positive curvature (matrix not SPD?)")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        del Ap
        z = hierarchy(r)
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
    if not stalled:
        reason = f"budget of {max_iter} iterations exhausted"
    elif tol < EPS:
        reason = f"stalled, the tolerance is below what a float64 residual can show (eps={EPS:.3g})"
    else:
        reason = "stalled above the float64 floor"
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
    b = _check_rhs(b, n)
    dense = A.toarray()
    try:
        L_inv = _inverse_factor(dense)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"Cholesky factorization failed: {exc}") from exc
    x = L_inv.T @ (L_inv @ b)
    # Same preconditioned residual norm as cg_solve, for comparability.
    d = np.diag(dense)
    if np.any(d <= 0.0):
        raise SolverError("matrix has a non-positive diagonal entry; not SPD")
    r = b - dense @ x
    b_norm = float(np.sqrt(np.abs(b @ (b / d))))
    rel = float(np.sqrt(np.abs(r @ (r / d)))) / b_norm if b_norm else 0.0
    return x, SolveReport(1, rel, True, "cholesky")


def solve(A, b, tol: float = 1e-10, groups=None,
          hierarchy: Multigrid | None = None) -> tuple[np.ndarray, SolveReport]:
    """Multigrid-preconditioned CG at any size (see ``cg_solve``). Builds
    the hierarchy over ``groups`` unless a prebuilt one is passed."""
    if hierarchy is None:
        hierarchy = multigrid(A, groups)
    return cg_solve(A, b, hierarchy, tol=tol)


def solve_system(system, tol: float = 1e-10) -> tuple[np.ndarray, SolveReport]:
    """Solve an assembled system, then refine it in one round.

    The assembled matrix rounds O(1/eps) interface entries against O(1)
    stiffness entries, which biases the solution by about 1e-8 on strongly
    conductive interfaces. The refinement round takes the residual of
    ``LinearSystem.residual_raw`` (domain matrix as is, interface terms on
    pair jumps and means) plus the boundary loads and solves for the
    correction, restoring conservation to machine precision. The Dirichlet
    dofs are first set to their data, which the first solve meets only to
    its tolerance, and their residual rows zeroed; the correction is then
    exactly zero there. One multigrid hierarchy over the system's copy
    groups preconditions both solves; the returned report is the first
    solve's, with the refinement solve's iteration count attached.
    """
    hierarchy = multigrid(system.matrix, system.copy_groups)
    x, report = solve(system.matrix, system.rhs, tol=tol, hierarchy=hierarchy)
    fixed = np.fromiter(system.dirichlet_dofs, dtype=np.intp, count=len(system.dirichlet_dofs))
    x[fixed] = np.fromiter(system.dirichlet_dofs.values(), dtype=float, count=len(fixed))
    r = system.residual_raw(x)
    r += system.rhs_raw - system.rhs_body
    r[fixed] = 0.0
    # The correction only needs a few digits; its error is scaled by ||r||.
    delta, round_report = solve(system.matrix, r, tol=1e-4, hierarchy=hierarchy)
    del r
    x += delta
    return x, replace(report, refinement_iterations=round_report.iterations)
