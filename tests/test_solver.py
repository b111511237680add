"""Linear solver behavior: grouped CG, the Cholesky oracle, refinement."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from fracflow import (ConfigurationError, NonConvergenceError, SolverError,
                      cg_solve, cholesky_solve, run_scenario, solve,
                      solve_system)
from fracflow import solver
from fracflow.solver import COARSE_DOFS, DENSE_LIMIT, Multigrid, multigrid


def random_spd(n: int, seed: int, scale_spread: float = 0.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    A = B @ B.T + n * np.eye(n)
    if scale_spread:
        d = 10.0 ** rng.uniform(-scale_spread, scale_spread, size=n)
        A = np.diag(d) @ A @ np.diag(d)
    return A


def test_cg_matches_direct_solve():
    A = random_spd(40, seed=0)
    x_exact = np.arange(1.0, 41.0)
    b = A @ x_exact
    x, report = cg_solve(A, b, tol=1e-12)
    assert report.converged
    assert report.method == "cg"
    assert report.relative_residual <= 1e-12
    assert np.allclose(x, x_exact, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
def test_cg_rejects_tolerance_that_is_not_finite_and_positive(tol):
    A = random_spd(10, seed=2)
    with pytest.raises(ConfigurationError, match="tolerance"):
        cg_solve(A, np.ones(10), tol=tol)
    # a tiny tolerance stays valid
    x, report = cg_solve(sp.identity(10, format="csr"), np.ones(10), tol=1e-30)
    assert report.converged and np.array_equal(x, np.ones(10))


def test_cg_jacobi_handles_badly_scaled_diagonal():
    # pure diagonal system with 12 orders of magnitude spread: one step
    d = 10.0 ** np.linspace(-6, 6, 50)
    A = sp.diags(d).tocsr()
    b = np.ones(50)
    x, report = cg_solve(A, b, tol=1e-12)
    assert np.allclose(x * d, 1.0, rtol=1e-12)
    assert report.iterations <= 3


def test_cg_warm_start_converges_immediately():
    A = random_spd(30, seed=1)
    b = A @ np.ones(30)
    x0, _ = cg_solve(A, b, tol=1e-13)
    _, report = cg_solve(A, b, tol=1e-10, x0=x0)
    assert report.iterations == 0


def test_cg_residual_history_envelope():
    """The recorded history reflects real preconditioned residual norms.

    CG does not make that sequence monotone (it minimizes the A-norm error),
    so the honest properties are: the history ends at the tolerance (the
    start entry equals the rhs norm for a zero initial guess), no entry
    explodes past the initial residual, and the final recomputed residual
    meets the tolerance.
    """
    A = random_spd(80, seed=2, scale_spread=2.0)
    b = np.ones(80)
    x, report = cg_solve(A, b, tol=1e-11)
    h = np.array(report.residual_norms)
    assert len(h) >= 2
    assert h[-1] <= 1e-11 * h[0]
    assert np.max(h) <= 1e3 * h[0]
    assert report.relative_residual <= 1e-11


def test_cg_anorm_error_is_monotone():
    """The true CG invariant: the A-norm of the error never increases."""
    A = random_spd(25, seed=3)
    x_exact = np.linspace(-1, 1, 25)
    b = A @ x_exact
    ref, _ = cholesky_solve(A, b)
    errors = []
    for k in range(1, 12):
        try:
            xk, _ = cg_solve(A, b, tol=1e-30, max_iter=k)
        except NonConvergenceError as exc:
            xk = exc.x
        e = xk - ref
        errors.append(float(np.sqrt(e @ A @ e)))
    assert all(b <= a * (1 + 1e-9) for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-3 * errors[0]


def test_cg_budget_exhaustion_carries_partial_result():
    A = random_spd(60, seed=4, scale_spread=3.0)
    b = np.ones(60)
    with pytest.raises(NonConvergenceError) as excinfo:
        cg_solve(A, b, tol=1e-13, max_iter=2)
    exc = excinfo.value
    assert exc.report is not None
    assert not exc.report.converged
    assert exc.report.iterations == 2
    assert exc.x.shape == (60,)
    # the partial iterate is still better than the zero start in the
    # preconditioned norm the solver works in
    assert exc.report.relative_residual < 1.0


def test_cg_unreachable_tolerance_fails_with_accurate_iterate():
    A = random_spd(50, seed=5)
    b = np.ones(50)
    with pytest.raises(NonConvergenceError) as excinfo:
        cg_solve(A, b, tol=1e-30)
    report = excinfo.value.report
    assert not report.converged
    # the iterate itself sits at the float64 floor regardless of the verdict
    assert report.relative_residual < 1e-12


def test_cg_rejects_non_spd():
    A = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(SolverError):
        cg_solve(A, np.ones(2))
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])   # positive diag, neg eigenvalue
    with pytest.raises(SolverError):
        cg_solve(indefinite, np.array([1.0, -1.0]), tol=1e-14)


def test_cg_rejects_bad_inputs():
    A = np.eye(3)
    with pytest.raises(SolverError):
        cg_solve(A, np.ones(4))
    with pytest.raises(SolverError):
        cg_solve(np.ones((2, 3)), np.ones(2))
    with pytest.raises(SolverError):
        cg_solve(A, np.array([1.0, np.nan, 0.0]))


def test_cg_zero_rhs():
    x, report = cg_solve(np.eye(5), np.zeros(5))
    assert np.all(x == 0.0) and report.converged and report.iterations == 0


def test_cholesky_solve_exact_and_reported():
    A = random_spd(20, seed=6)
    x_exact = np.ones(20)
    x, report = cholesky_solve(A, A @ x_exact)
    assert np.allclose(x, x_exact, rtol=1e-11)
    assert report.method == "cholesky"
    assert report.iterations == 1
    assert report.converged
    assert report.relative_residual < 1e-12


def test_cholesky_rejects_indefinite_and_oversize():
    with pytest.raises(SolverError):
        cholesky_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))
    big = sp.eye(DENSE_LIMIT + 1).tocsr()
    with pytest.raises(SolverError):
        cholesky_solve(big, np.ones(DENSE_LIMIT + 1))


def test_solve_runs_cg_at_every_size():
    A_small = random_spd(10, seed=7)
    x, rep = solve(A_small, A_small @ np.ones(10), tol=1e-12)
    assert rep.method == "cg"
    assert np.allclose(x, 1.0, atol=1e-9)
    n = DENSE_LIMIT + 10
    A_big = sp.diags([np.full(n - 1, -1.0), np.full(n, 4.0), np.full(n - 1, -1.0)],
                     offsets=[-1, 0, 1]).tocsr()
    x, rep = solve(A_big, A_big @ np.ones(n), tol=1e-12)
    assert rep.method == "cg"
    assert np.allclose(x, 1.0, atol=1e-9)


# --- copy-group preconditioning -----------------------------------------------

def jacobi_cg(A, b, tol):
    """Textbook Jacobi-preconditioned CG with cg_solve's stopping rule."""
    A = sp.csr_matrix(A)
    inv_diag = 1.0 / A.diagonal()
    b_norm = np.sqrt(b @ (inv_diag * b))
    x = np.zeros(len(b))
    r = b.copy()
    z = inv_diag * r
    rz = r @ z
    p = z.copy()
    it = 0
    while np.sqrt(rz) > tol * b_norm:
        Ap = A @ p
        alpha = rz / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        z = inv_diag * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
        it += 1
    return x, it


def test_singleton_groups_are_plain_jacobi():
    A = random_spd(40, seed=8, scale_spread=1.0)
    b = np.linspace(-1.0, 2.0, 40)
    x_ref, it_ref = jacobi_cg(A, b, tol=1e-11)
    for groups in (None, np.arange(40), np.arange(40)[::-1].copy()):
        x, report = cg_solve(A, b, tol=1e-11, groups=groups)
        assert report.iterations == it_ref
        assert np.array_equal(x, x_ref)


def test_groups_must_label_every_dof():
    A = np.eye(4)
    for bad in (np.zeros(3, dtype=int), np.array([0, 1, 2, -1]), np.zeros(4)):
        with pytest.raises(SolverError):
            cg_solve(A, np.ones(4), groups=bad)


def test_indefinite_group_block_is_rejected():
    # positive diagonal, but the 2x2 block of the one group is indefinite
    A = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(SolverError):
        cg_solve(A, np.ones(3), groups=np.array([0, 0, 1]))


def test_grouped_solve_matches_oracle():
    """A coupled pair per group: the grouped solve is exact where it should be."""
    A = random_spd(30, seed=9, scale_spread=1.0)
    groups = np.repeat(np.arange(15), 2)
    x_exact = np.cos(np.arange(30.0))
    x_ref, _ = cholesky_solve(A, A @ x_exact)
    x, report = cg_solve(A, A @ x_exact, tol=1e-12, groups=groups)
    assert report.converged
    assert np.allclose(x, x_ref, rtol=1e-9, atol=1e-9)


@pytest.fixture(scope="module")
def conductive_64():
    return run_scenario("regular2d", n=64, variant="conductive")


def test_groups_make_conductive_as_cheap_as_blocking(conductive_64):
    """The kf/eps = 1e8 jump penalty couples each vertex's copies. Block
    Jacobi over the copy groups (the multigrid's finest smoother) sees that
    coupling; plain Jacobi does not (9,300 iterations at this size)."""
    iterations = {}
    for variant in ("conductive", "blocking"):
        system = run_scenario("regular2d", n=64, variant=variant).system
        _, report = cg_solve(system.matrix, system.rhs, groups=system.copy_groups)
        iterations[variant] = report.iterations
    grouped = iterations["conductive"]
    assert grouped <= 1.5 * iterations["blocking"]
    system = conductive_64.system
    with pytest.raises(NonConvergenceError):
        cg_solve(system.matrix, system.rhs, max_iter=3 * grouped)


def test_grouped_refinement_solve_converges(conductive_64):
    """A loose refinement solve hits the preconditioned trigger before the
    Jacobi-norm criterion; tightening the trigger (not restarting) must
    carry it on to convergence instead of declaring a stall."""
    system = conductive_64.system
    x, _ = solve(system.matrix, system.rhs, groups=system.copy_groups)
    r = system.residual_raw(x) + (system.rhs_raw - system.rhs_body)
    for d, g in system.dirichlet_dofs.items():
        r[d] = g - x[d]
    _, report = solve(system.matrix, r, tol=1e-4, groups=system.copy_groups)
    assert report.converged
    assert report.relative_residual <= 1e-4
    assert len(conductive_64.report.refinement_iterations) == 2


def test_solve_system_keeps_converged_solution(solved_vertical_16):
    """Refinement must not disturb an already-converged mild solve."""
    split, system, pressure, report = solved_vertical_16
    x_plain, _ = solve(system.matrix, system.rhs)
    assert np.allclose(pressure, x_plain, atol=1e-9)


def test_solve_system_refinement_tightens_conservation():
    """On a strong-penalty system the assembled matrix rounds interface
    against stiffness entries; plain solves inherit an O(1e-8) conservation
    bias that the split-residual refinement removes."""
    import conftest
    from fracflow import assemble, boundary_flux, mass_balance_defect, split_mesh
    split = split_mesh(conftest.unit_square(32),
                       conftest.vertical_network(1e-4, 1e4))
    system = assemble(split, np.ones(split.n_subdomains),
                      conftest.coeffs_for(split.network), conftest.THROUGHFLOW)
    x_plain, _ = solve(system.matrix, system.rhs)
    x_refined, _ = solve_system(system)
    d_plain = mass_balance_defect(boundary_flux(split, system, x_plain))
    d_refined = mass_balance_defect(boundary_flux(split, system, x_refined))
    assert d_refined <= max(d_plain, 1e-12)
    assert d_refined <= 1e-8   # the conservation gate at unit inflow


# --- multigrid preconditioner -------------------------------------------------

@pytest.mark.parametrize("variant", ["conductive", "blocking"])
@pytest.mark.parametrize("n", [32, 64, 128])
def test_multigrid_iterations_stay_flat(n, variant):
    """Block-Jacobi CG needed 1,292 first-solve iterations at conductive
    n=256 and grew linearly with n; the V-cycle keeps the count flat."""
    report = run_scenario("regular2d", n=n, variant=variant).report
    assert report.converged
    assert report.iterations <= 40
    levels = report.multigrid_levels
    assert len(levels) >= 2
    assert all(2 * coarse <= fine for fine, coarse in zip(levels, levels[1:]))


@pytest.fixture(scope="module")
def conductive_32_system():
    return run_scenario("regular2d", n=32, variant="conductive").system


def test_vcycle_is_symmetric_positive_definite(conductive_32_system):
    system = conductive_32_system
    mg = multigrid(system.matrix, system.copy_groups)
    assert len(mg.sizes) >= 2
    rng = np.random.default_rng(11)
    for _ in range(3):
        u, v = rng.standard_normal((2, system.matrix.shape[0]))
        uMv, vMu = u @ mg(v), v @ mg(u)
        assert abs(uMv - vMu) <= 1e-12 * np.sqrt((u @ mg(u)) * (v @ mg(v)))
        assert v @ mg(v) > 0.0


def aggregates_full_graph(A, groups):
    """The aggregation with every Luby round over the whole strength graph,
    kept as the reference."""
    n = A.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(A.indptr))
    cols = A.indices
    scale = 1.0 / np.sqrt(A.diagonal())
    strong = (-A.data * scale[rows] * scale[cols] >= solver.STRENGTH_THETA) & (rows != cols)
    rows, cols = rows[strong], cols[strong]
    node = np.arange(n)
    if groups is not None:
        groups = np.asarray(groups)
        same = groups[rows] == groups[cols]
        merge = sp.csr_matrix((np.ones(int(same.sum()), dtype=np.int8),
                               (rows[same], cols[same])), shape=(n, n))
        _, node = connected_components(merge, directed=False)
        rows, cols = node[rows[~same]], node[cols[~same]]
    m = int(node.max()) + 1
    isolated = np.bincount(rows, minlength=m) == 0
    loops = np.arange(m)
    S = sp.csr_matrix((np.ones(len(rows) + m, dtype=np.int8),
                       (np.r_[rows, loops], np.r_[cols, loops])), shape=(m, m))

    def neighbour_max(v):
        return np.maximum.reduceat(v[S.indices], S.indptr[:-1])

    rank = np.random.default_rng(solver.SEED).permutation(m)
    state = np.where(isolated, 0, 1)
    while np.any(state == 1):
        own = state * m + rank
        best = neighbour_max(neighbour_max(own))
        undecided = state == 1
        state[undecided & (best >= 2 * m)] = 0
        state[undecided & (best == own)] = 2
    agg = np.zeros(m, dtype=np.int64)
    roots = np.flatnonzero(state == 2)
    agg[roots] = np.arange(1, len(roots) + 1)
    for _ in range(2):
        free = (agg == 0) & ~isolated
        agg[free] = neighbour_max(agg)[free]
    return agg[node] - 1, len(roots)


@pytest.mark.parametrize("variant", ["conductive", "blocking"])
def test_aggregates_match_full_graph_rounds(monkeypatch, variant):
    """Rounds restricted to the neighbourhood of the undecided nodes pick the
    same roots and aggregates, on every level of the hierarchy."""
    system = run_scenario("regular2d", n=64, variant=variant).system
    levels = []
    restricted = solver._aggregates

    def both(A, groups):
        agg, count = restricted(A, groups)
        want_agg, want_count = aggregates_full_graph(A, groups)
        levels.append(count == want_count and np.array_equal(agg, want_agg))
        return agg, count

    monkeypatch.setattr(solver, "_aggregates", both)
    multigrid(system.matrix, system.copy_groups)
    assert levels and all(levels)


def test_multigrid_builds_are_deterministic(conductive_32_system):
    system = conductive_32_system
    x1, r1 = solve(system.matrix, system.rhs, groups=system.copy_groups)
    x2, r2 = solve(system.matrix, system.rhs, groups=system.copy_groups)
    assert np.array_equal(x1, x2)
    assert r1.iterations == r2.iterations
    assert r1.multigrid_levels == r2.multigrid_levels


def test_multigrid_on_diagonal_matrix_stops_coarsening():
    """A diagonal matrix has no strong couplings, so nothing aggregates: the
    hierarchy is the smoothed finest level alone, without a dense factor of
    the 5,000 dofs, and the V-cycle is a multiple of the inverse."""
    n = 5000
    d = 10.0 ** np.linspace(-6, 6, n)
    A = sp.diags(d).tocsr()
    mg = multigrid(A)
    assert mg.sizes == (n,)
    assert all(level.factor is None or len(level.factor[0]) <= COARSE_DOFS
               for level in mg.levels)
    x, report = solve(A, np.ones(n), tol=1e-12)
    assert report.iterations <= 2
    assert np.allclose(x * d, 1.0, rtol=1e-12)


def test_multigrid_skips_a_level_that_would_not_shrink():
    """Every other dof couples strongly to dof 0, but not dof 0 to them: each
    becomes a root of its own aggregate, and that level is not built."""
    n = 1000
    A = sp.eye(n, format="lil")
    A[1:, 0] = -0.5
    mg = multigrid(A.tocsr())
    assert mg.sizes == (n,)
    assert mg.levels[0].factor is None


def test_small_system_is_one_dense_level():
    A = random_spd(30, seed=12)
    mg = multigrid(A)
    assert mg.sizes == (30,)
    x, report = solve(A, A @ np.ones(30), tol=1e-12)
    assert report.iterations <= 2
    assert np.allclose(x, 1.0, atol=1e-9)


def test_coarse_level_solve_matches_cho_solve():
    A = random_spd(40, seed=14)
    mg = multigrid(A)
    for b in np.random.default_rng(14).standard_normal((3, 40)):
        assert np.array_equal(mg(b), scipy.linalg.cho_solve(mg.levels[-1].factor, b))


def test_refinement_reuses_one_hierarchy(monkeypatch, conductive_32_system):
    builds = []

    def counting(A, groups=None):
        builds.append(A.shape[0])
        return multigrid(A, groups)

    monkeypatch.setattr(solver, "multigrid", counting)
    x, report = solve_system(conductive_32_system)
    assert builds == [conductive_32_system.matrix.shape[0]]
    assert len(report.refinement_iterations) == 2
    assert report.multigrid_levels == multigrid(
        conductive_32_system.matrix, conductive_32_system.copy_groups).sizes


def test_hierarchy_must_match_matrix(conductive_32_system):
    mg = multigrid(random_spd(10, seed=13))
    system = conductive_32_system
    with pytest.raises(SolverError):
        cg_solve(system.matrix, system.rhs, hierarchy=mg)


def csc_view_cycle(mg, k, b):
    """The V-cycle restricting through the CSC view ``P.T``, kept as the
    reference for the stored CSR restriction."""
    level = mg.levels[k]
    if level.factor is not None:
        return scipy.linalg.cho_solve(level.factor, b)
    x = level.smoother @ b
    if level.P is not None:
        x += level.P @ csc_view_cycle(mg, k + 1, level.P.T @ (b - level.A @ x))
    x += level.smoother @ (b - level.A @ x)
    return x


@pytest.mark.parametrize("variant", ["conductive", "blocking"])
def test_stored_restriction_cycle_matches_csc_view(variant):
    system = run_scenario("regular2d", n=32, variant=variant).system
    mg = multigrid(system.matrix, system.copy_groups)
    coarse = [level for level in mg.levels if level.P is not None]
    assert coarse
    for level in coarse:
        assert level.R.format == "csr"
        assert (level.R != level.P.T).nnz == 0
    rng = np.random.default_rng(5)
    for b in (system.rhs, *rng.standard_normal((3, len(system.rhs)))):
        assert np.array_equal(mg(b), csc_view_cycle(mg, 0, b))


class CountingMultigrid(Multigrid):
    def __init__(self, levels):
        super().__init__(levels)
        self.calls = 0

    def __call__(self, b):
        self.calls += 1
        return super().__call__(b)


def test_zero_start_applies_the_hierarchy_once_per_iteration_plus_one(conductive_32_system):
    system = conductive_32_system
    mg = CountingMultigrid(multigrid(system.matrix, system.copy_groups).levels)
    x, report = cg_solve(system.matrix, system.rhs, hierarchy=mg)
    assert report.converged and report.iterations > 0
    assert mg.calls == report.iterations + 1


def test_warm_start_with_hierarchy_matches_oracle(conductive_32_system):
    """A given x0 still reaches the dense solution, with one more V-cycle
    for the trigger."""
    system = conductive_32_system
    exact, _ = cholesky_solve(system.matrix, system.rhs)
    x0 = exact + 1e-3 * np.random.default_rng(9).standard_normal(len(exact))
    mg = CountingMultigrid(multigrid(system.matrix, system.copy_groups).levels)
    x, report = cg_solve(system.matrix, system.rhs, x0=x0, hierarchy=mg)
    assert report.converged and report.iterations > 0
    assert mg.calls == report.iterations + 2
    assert np.max(np.abs(x - exact)) <= 1e-8 * np.max(np.abs(exact))
