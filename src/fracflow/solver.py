"""Sparse SPD solvers: copy-group block-Jacobi CG and a dense Cholesky oracle.

Every solve runs preconditioned CG. The preconditioner inverts the
diagonal blocks of the matrix over copy groups: the dofs that share one
pre-split vertex (``SplitMesh.vertex_origin``), 2 on a fracture line and 3
or 4 at T-junctions and crossings. The ``kf/eps`` jump penalty couples
exactly those copies, which plain Jacobi cannot see. A dof without copies
is a group of one, so with no groups the preconditioner is plain Jacobi.

Matrices are scipy CSR; the CG loop is written out so the iteration count
and residual history are available for reporting. ``cholesky_solve`` is
the exact oracle the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import NonConvergenceError, SolverError

__all__ = ["SolveReport", "cg_solve", "cholesky_solve", "solve"]

DENSE_LIMIT = 2000


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    relative_residual: float
    converged: bool
    method: str = "cg"
    residual_norms: tuple[float, ...] = field(default=(), repr=False)
    refinement_iterations: tuple[int, ...] = ()


def _as_csr(A) -> sp.csr_matrix:
    if not sp.issparse(A):
        A = sp.csr_matrix(np.asarray(A, dtype=float))
    A = A.tocsr()
    if A.shape[0] != A.shape[1]:
        raise SolverError(f"matrix must be square, got shape {A.shape}")
    return A


def _group_blocks(A: sp.csr_matrix, groups) -> tuple[np.ndarray, sp.csr_matrix | None]:
    """(dofs, P) with P the inverse of A's diagonal blocks over the groups
    that hold more than one dof, in the order of ``dofs``; (empty, None)
    when every group is a single dof."""
    n = A.shape[0]
    groups = np.asarray(groups)
    if groups.shape != (n,) or not np.issubdtype(groups.dtype, np.integer) \
            or (n and groups.min() < 0):
        raise SolverError(f"groups must be {n} non-negative integer labels, "
                          f"got shape {groups.shape} of {groups.dtype}")
    dofs = np.flatnonzero(np.bincount(groups)[groups] > 1)
    if len(dofs) == 0:
        return dofs, None
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
    return dofs, sp.csr_matrix((P[m, i, j], (starts[m] + i, starts[m] + j)),
                               shape=(len(dofs), len(dofs)))


def cg_solve(A, b, tol: float = 1e-10, max_iter: int | None = None,
             x0: np.ndarray | None = None, groups=None) -> tuple[np.ndarray, SolveReport]:
    """Conjugate gradients preconditioned by copy-group block Jacobi.

    ``groups`` labels each dof with its copy group (for a split mesh, the
    pre-split vertex it came from); dofs with equal labels form one block of
    the preconditioner. Without groups every dof is its own block, which is
    plain Jacobi.

    Convergence is measured in the Jacobi norm |r|_D = sqrt(r' D^-1 r) with
    D the matrix diagonal: converged means |b - A x|_D <= tol * |b|_D for the
    recomputed (not recursive) residual. The unscaled 2-norm residual is
    meaningless for these systems: interface penalty entries can exceed the
    load scale by many orders, so float64 cannot even evaluate b - A x at
    the exact solution to a small unscaled ratio.

    The preconditioned norm sqrt(r' P r) of the recursive residual only
    triggers that check. When the check fails, the trigger is tightened by
    the ratio of the target to the recomputed norm, at least halved, and the
    iteration goes on undisturbed: a restart would throw away the Krylov
    space and trip the stall test. Two failed checks in a row without a 10%
    gain mean the float64 floor.

    Raises NonConvergenceError (carrying the report) when the budget of
    ``max_iter`` (default 10 n) iterations is exhausted or the residual
    stalls, SolverError on non-finite values or a matrix that is not SPD.
    """
    A = _as_csr(A)
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    if b.shape != (n,):
        raise SolverError(f"rhs shape {b.shape} does not match matrix size {n}")
    if not np.all(np.isfinite(b)) or not np.all(np.isfinite(A.data)):
        raise SolverError("non-finite values in the linear system")
    if max_iter is None:
        max_iter = 10 * n

    diag = A.diagonal()
    if np.any(diag <= 0.0):
        raise SolverError("matrix has a non-positive diagonal entry; not SPD")
    inv_diag = 1.0 / diag
    block_dofs, P_block = _group_blocks(A, groups) if groups is not None else (None, None)

    def precondition(v: np.ndarray) -> np.ndarray:
        z = inv_diag * v
        if P_block is not None:
            z[block_dofs] = P_block @ v[block_dofs]
        return z

    def pnorm(v: np.ndarray) -> float:
        return float(np.sqrt(np.abs(v @ (inv_diag * v))))

    b_norm = pnorm(b)
    if b_norm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True, "cg", (0.0,))

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = b - A @ x
    z = precondition(r)
    rz = float(r @ z)
    p = z.copy()
    history = [float(np.sqrt(max(rz, 0.0)))]
    trigger = tol * float(np.sqrt(max(b @ precondition(b), 0.0)))
    it = 0
    last_true = np.inf
    stalled = False
    while it < max_iter:
        if history[-1] <= trigger:
            # Guard against recursion drift: recompute before declaring done.
            true_norm = pnorm(b - A @ x)
            if true_norm <= tol * b_norm:
                return x, SolveReport(it, true_norm / b_norm, True, "cg", tuple(history))
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
        z = precondition(r)
        rz_new = float(r @ z)
        if not np.isfinite(rz_new):
            raise SolverError("non-finite values during CG iteration")
        history.append(float(np.sqrt(max(rz_new, 0.0))))
        beta = rz_new / rz
        rz = rz_new
        p *= beta
        p += z
        it += 1

    true_norm = pnorm(b - A @ x)
    report = SolveReport(it, true_norm / b_norm, true_norm <= tol * b_norm, "cg", tuple(history))
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
    dense = A.toarray()
    if not np.all(np.isfinite(dense)) or not np.all(np.isfinite(b)):
        raise SolverError("non-finite values in the linear system")
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
          groups=None) -> tuple[np.ndarray, SolveReport]:
    """Copy-group block-Jacobi CG at any size (see ``cg_solve``)."""
    return cg_solve(A, b, tol=tol, max_iter=max_iter, groups=groups)


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
    Every solve is preconditioned over the system's copy groups; the
    returned report is the first solve's, with the iteration count of each
    refinement solve attached.
    """
    groups = system.copy_groups
    x, report = solve(system.matrix, system.rhs, tol=tol, max_iter=max_iter, groups=groups)
    refinement: list[int] = []
    for _ in range(refine):
        r = system.residual_raw(x) + (system.rhs_raw - system.rhs_body)
        for d, g in system.dirichlet_dofs.items():
            r[d] = g - x[d]
        if not np.any(r):
            break
        # The correction only needs a few digits; its error is scaled by ||r||.
        delta, round_report = solve(system.matrix, r, tol=1e-4, max_iter=max_iter,
                                    groups=groups)
        refinement.append(round_report.iterations)
        x = x + delta
    return x, replace(report, refinement_iterations=tuple(refinement))
