"""Linear solver behavior: multigrid CG, the Cholesky oracle, refinement."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from fracflow import (ConfigurationError, NonConvergenceError, SolverError,
                      assemble, cg_solve, cholesky_solve, compare_scenario,
                      run_scenario, solve, solve_system)
from fracflow import solver
from fracflow.scenarios import SCENARIOS
from fracflow.solver import (DENSE_LIMIT, INV_ROWS, Multigrid, _group_blocks,
                             _inverse_factor, _Level, _smoother, multigrid)

from conftest import coeffs_for


def random_spd(n: int, seed: int, scale_spread: float = 0.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    A = B @ B.T + n * np.eye(n)
    if scale_spread:
        d = 10.0 ** rng.uniform(-scale_spread, scale_spread, size=n)
        A = np.diag(d) @ A @ np.diag(d)
    return A


def one_level(A, groups=None) -> Multigrid:
    """The smoothing-only hierarchy ``multigrid`` returns when coarsening
    stalls: a damped (block-)Jacobi preconditioner, weak enough that CG
    takes many iterations on a small matrix."""
    A = sp.csr_matrix(A)
    return Multigrid([_Level(A, _smoother(A, groups))])


def test_cg_matches_direct_solve():
    A = random_spd(40, seed=0)
    x_exact = np.arange(1.0, 41.0)
    b = A @ x_exact
    x, report = cg_solve(A, b, one_level(A), tol=1e-12)
    assert report.converged and report.float64_floor is None
    assert report.method == "cg"
    assert report.relative_residual <= 1e-12
    assert np.allclose(x, x_exact, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
def test_cg_rejects_tolerance_that_is_not_finite_and_positive(tol):
    A = random_spd(10, seed=2)
    with pytest.raises(ConfigurationError, match="tolerance"):
        cg_solve(A, np.ones(10), multigrid(A), tol=tol)
    # a tiny tolerance stays valid
    identity = sp.identity(10, format="csr")
    x, report = cg_solve(identity, np.ones(10), multigrid(identity), tol=1e-30)
    assert report.converged and np.array_equal(x, np.ones(10))


def test_cg_jacobi_handles_badly_scaled_diagonal():
    # pure diagonal system with 12 orders of magnitude spread: one step
    d = 10.0 ** np.linspace(-6, 6, 50)
    A = sp.diags(d).tocsr()
    b = np.ones(50)
    x, report = cg_solve(A, b, one_level(A), tol=1e-12)
    assert np.allclose(x * d, 1.0, rtol=1e-12)
    assert report.iterations <= 3


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
    x, report = cg_solve(A, b, one_level(A), tol=1e-11)
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
    mg = one_level(A)
    errors = []
    for k in range(1, 12):
        try:
            xk, _ = cg_solve(A, b, mg, tol=1e-30, max_iter=k)
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
        cg_solve(A, b, one_level(A), tol=1e-13, max_iter=2)
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
    for tol in (1e-30, 1e-300):    # a tol far below eps must stall too, not break down
        with pytest.raises(NonConvergenceError,
                           match="below what a float64 residual can show") as excinfo:
            cg_solve(A, b, one_level(A), tol=tol)
        report = excinfo.value.report
        assert not report.converged
        # the iterate itself sits at the float64 floor regardless of the verdict
        assert report.relative_residual < 1e-12


@pytest.mark.parametrize("n", [4096, 16384])
def test_stall_within_the_float64_floor_converges(n):
    # The 1D point-load system's evaluation floor passes tol=1e-10 near
    # n=4000: CG stalls there and converges at the floor it reports.
    case = SCENARIOS["onedim"].build(n, None)
    system = assemble(case.split, 1.0, coeffs_for(case.split.network), case.bcs)
    x, report = cg_solve(system.matrix, system.rhs,
                         multigrid(system.matrix, system.copy_groups))
    assert report.converged
    assert 1e-10 < report.relative_residual <= report.float64_floor
    D = system.matrix.diagonal()
    r = system.rhs - system.matrix @ x
    assert np.sqrt(r @ (r / D) / (system.rhs @ (system.rhs / D))) <= report.float64_floor
    # the same solve with a budget too small for the stall still raises
    with pytest.raises(NonConvergenceError, match="budget of 5 iterations"):
        cg_solve(system.matrix, system.rhs, multigrid(system.matrix, system.copy_groups),
                 max_iter=5)


def test_cg_rejects_non_spd():
    # An identity hierarchy of the right size: only the matrix is at fault.
    identity = multigrid(np.eye(2))
    A = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(SolverError):
        cg_solve(A, np.ones(2), identity)
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])   # positive diag, neg eigenvalue
    with pytest.raises(SolverError):
        cg_solve(indefinite, np.array([1.0, -1.0]), identity, tol=1e-14)


def test_cg_rejects_bad_inputs():
    A = np.eye(3)
    mg = multigrid(A)
    with pytest.raises(SolverError):
        cg_solve(A, np.ones(4), mg)
    with pytest.raises(SolverError):
        cg_solve(np.ones((2, 3)), np.ones(2), mg)
    with pytest.raises(SolverError):
        cg_solve(A, np.array([1.0, np.nan, 0.0]), mg)


def test_cg_zero_rhs():
    x, report = cg_solve(np.eye(5), np.zeros(5), multigrid(np.eye(5)))
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


# --- copy-group block Jacobi --------------------------------------------------

def test_singleton_groups_are_plain_jacobi():
    """No groups, or a group of one per dof, is the inverse diagonal."""
    A = sp.csr_matrix(random_spd(40, seed=8, scale_spread=1.0))
    jacobi = np.diag(1.0 / A.diagonal())
    for groups in (None, np.arange(40), np.arange(40)[::-1].copy()):
        assert np.array_equal(_group_blocks(A, groups).toarray(), jacobi)


def test_groups_must_label_every_dof():
    # n=4 builds no smoother level (n <= COARSE_DOFS); n=1000 builds one.
    for n in (4, 1000):
        A = sp.diags([-np.ones(n - 1), 2.5 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsr()
        labels = np.arange(n)
        for bad in (labels[:-1], np.r_[labels[:-1], -1], labels.astype(float)):
            with pytest.raises(SolverError):
                multigrid(A, bad)
            with pytest.raises(SolverError):
                solve(A, np.ones(n), groups=bad)


def test_indefinite_group_block_is_rejected():
    # positive diagonal, but the 2x2 block of the one group is indefinite
    A = sp.csr_matrix([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(SolverError, match="copy-group block"):
        _group_blocks(A, np.array([0, 0, 1]))


def test_grouped_solve_matches_oracle():
    """A coupled pair per group: CG preconditioned by the grouped smoother
    alone reaches the dense solution."""
    A = random_spd(30, seed=9, scale_spread=1.0)
    groups = np.repeat(np.arange(15), 2)
    x_exact = np.cos(np.arange(30.0))
    x_ref, _ = cholesky_solve(A, A @ x_exact)
    x, report = cg_solve(A, A @ x_exact, one_level(A, groups), tol=1e-12)
    assert report.converged
    assert np.allclose(x, x_ref, rtol=1e-9, atol=1e-9)


@pytest.fixture(scope="module")
def conductive_64():
    return run_scenario("regular2d", n=64, variant="conductive")


def test_groups_make_conductive_as_cheap_as_blocking(conductive_64):
    """The kf/eps = 1e8 jump penalty couples each vertex's copies. The
    multigrid over the copy groups sees that coupling in its block-Jacobi
    smoother and its aggregates; built without groups it does not (490
    iterations at this size, against 15 for blocking)."""
    iterations = {}
    for variant in ("conductive", "blocking"):
        system = run_scenario("regular2d", n=64, variant=variant).system
        _, report = solve(system.matrix, system.rhs, groups=system.copy_groups)
        iterations[variant] = report.iterations
    assert iterations["conductive"] <= 1.5 * iterations["blocking"]
    system = conductive_64.system
    _, report = solve(system.matrix, system.rhs)
    assert report.iterations > 10 * iterations["blocking"]


def test_grouped_refinement_solve_converges(conductive_64):
    """A loose refinement solve hits the preconditioned trigger before the
    Jacobi-norm criterion; tightening the trigger (not restarting) must
    carry it on to convergence instead of declaring a stall."""
    system = conductive_64.system
    x, _ = solve(system.matrix, system.rhs, groups=system.copy_groups)
    for d, g in system.dirichlet_dofs.items():
        x[d] = g
    r = system.residual_raw(x) + (system.rhs_raw - system.rhs_body)
    r[list(system.dirichlet_dofs)] = 0.0
    _, report = solve(system.matrix, r, tol=1e-4, groups=system.copy_groups)
    assert report.converged
    assert report.relative_residual <= 1e-4
    assert report.iterations == conductive_64.report.refinement_iterations > 0


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
    system = assemble(split, 1.0,
                      conftest.coeffs_for(split.network), conftest.THROUGHFLOW)
    x_plain, _ = solve(system.matrix, system.rhs)
    x_refined, _ = solve_system(system)
    d_plain = mass_balance_defect(boundary_flux(split, system, x_plain))
    d_refined = mass_balance_defect(boundary_flux(split, system, x_refined))
    assert d_refined <= max(d_plain, 1e-12)
    assert d_refined <= 1e-8   # the conservation gate at unit inflow


_BUILTIN_CASES = [(name, variant) for name, spec in SCENARIOS.items()
                  for variant in spec.variants or (None,)]


@pytest.mark.parametrize("name,variant", _BUILTIN_CASES,
                         ids=lambda v: v or "default")
def test_solve_system_keeps_dirichlet_data_in_one_round(monkeypatch, name, variant):
    """The first solve meets the Dirichlet rows only to its tolerance;
    solve_system sets those dofs to their data before its one refinement
    round, whose correction is exactly zero there."""
    spec = SCENARIOS[name]
    case = spec.build(spec.default_n, variant)
    system = assemble(case.split, 1.0, coeffs_for(case.split.network), case.bcs)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(solver, "solve", counting)
    x, report = solve_system(system)
    assert len(calls) == 2
    fixed = np.array(list(system.dirichlet_dofs), dtype=np.intp)
    g = np.array(list(system.dirichlet_dofs.values()), dtype=float)
    assert len(fixed)
    assert np.array_equal(x[fixed].view(np.int64), g.view(np.int64))
    assert not np.any(calls[1][fixed])        # the round's load is zero there
    assert isinstance(report.refinement_iterations, int)


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
    """The aggregation by Luby rounds one after the other, each over the
    whole strength graph: a round's roots take their distance-2
    neighbourhood out only in the next round. Kept as the reference."""
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


def check_every_aggregation(monkeypatch) -> list[tuple[int, bool]]:
    """Make every ``_aggregates`` call also run the reference; each call
    appends (dofs, same labels and count) to the returned list."""
    levels = []
    aggregates = solver._aggregates

    def both(A, groups):
        agg, count = aggregates(A, groups)
        want_agg, want_count = aggregates_full_graph(A, groups)
        levels.append((A.shape[0], count == want_count and np.array_equal(agg, want_agg)))
        return agg, count

    monkeypatch.setattr(solver, "_aggregates", both)
    return levels


@pytest.mark.parametrize("variant", ["conductive", "blocking"])
def test_aggregates_match_full_graph_rounds(monkeypatch, variant):
    """Rounds that take a root's neighbourhood out at once, restricted to
    the neighbourhood of the undecided nodes, pick the same roots and
    aggregates, on every level of the hierarchy."""
    levels = check_every_aggregation(monkeypatch)
    for n, aggregations in ((32, 1), (64, 1), (128, 2)):
        system = run_scenario("regular2d", n=n, variant=variant).system
        levels.clear()
        multigrid(system.matrix, system.copy_groups)
        assert len(levels) == aggregations and all(same for _, same in levels), n


def test_aggregates_match_full_graph_rounds_on_band_lines(monkeypatch):
    """The resolved-band references, whose line groups merge each row across
    the band into one node, and the interface models they are compared with."""
    levels = check_every_aggregation(monkeypatch)
    assert compare_scenario("wentzell_tangential")["passed"]
    assert compare_scenario("ellipse2d")["passed"]
    assert len(levels) == 6 and all(same for _, same in levels)


@pytest.mark.parametrize("grouped", [False, True, "chains"])
def test_aggregates_match_full_graph_rounds_on_random_graph(grouped):
    """A random diagonally dominant M-matrix, 200 of whose nodes couple to
    nothing: without copy groups, with random groups of two dofs, or with
    groups of three that merge in part ("chains"). In half of those, two
    strong couplings chain a-b-c; in the others one joins a-b and c stays
    apart."""
    n = 3000
    rng = np.random.default_rng(21)
    W = sp.random(n, n, density=3.0 / n, random_state=rng, format="csr")
    if grouped == "chains":
        a, b, c = rng.permutation(n).reshape(3, -1)
        groups = np.empty(n, dtype=np.intp)
        groups[a] = groups[b] = groups[c] = np.arange(n // 3)
        half = n // 6
        joins = (np.r_[a, b[:half]], np.r_[b, c[:half]])
        W = W + sp.csr_matrix((np.full(len(joins[0]), 5.0), joins), shape=(n, n))
    W = W + W.T
    isolated = rng.choice(n, 200, replace=False)
    keep = np.ones(n)
    keep[isolated] = 0.0
    W = (sp.diags(keep) @ W @ sp.diags(keep)).tocsr()
    # row sums plus a random margin: some couplings fall below the strength threshold
    A = (sp.diags(np.asarray(W.sum(axis=1)).ravel() + rng.uniform(0.1, 3.0, n)) - W).tocsr()
    if grouped != "chains":
        groups = rng.permutation(n) // 2 if grouped else None
    if grouped == "chains":  # nodes of three dofs and of two
        assert np.all(np.bincount(np.bincount(solver._strength_graph(A, groups)[1]))[2:4])
    agg, count = solver._aggregates(A, groups)
    want_agg, want_count = aggregates_full_graph(A, groups)
    assert count == want_count and np.array_equal(agg, want_agg)
    assert np.all(agg[isolated] == -1)
    assert 0 < count < n // 4


def test_multigrid_builds_are_deterministic(conductive_32_system):
    system = conductive_32_system
    x1, r1 = solve(system.matrix, system.rhs, groups=system.copy_groups)
    x2, r2 = solve(system.matrix, system.rhs, groups=system.copy_groups)
    assert np.array_equal(x1, x2)
    assert r1.iterations == r2.iterations
    assert r1.multigrid_levels == r2.multigrid_levels


def test_multigrid_on_diagonal_matrix_stops_coarsening():
    """A diagonal matrix has no strong couplings, so nothing aggregates: the
    hierarchy is the smoothed finest level alone, without a dense inverse
    factor of the 5,000 dofs, and the V-cycle is a multiple of the inverse."""
    n = 5000
    d = 10.0 ** np.linspace(-6, 6, n)
    A = sp.diags(d).tocsr()
    mg = multigrid(A)
    assert mg.sizes == (n,)
    assert all(level.L_inv is None for level in mg.levels)
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
    assert mg.levels[0].L_inv is None


def test_small_system_is_one_dense_level():
    A = random_spd(30, seed=12)
    mg = multigrid(A)
    assert mg.sizes == (30,)
    x, report = solve(A, A @ np.ones(30), tol=1e-12)
    assert report.iterations <= 2
    assert np.allclose(x, 1.0, atol=1e-9)


def test_inverse_factor_matches_inverse_of_cholesky():
    """Batched blocks of up to INV_ROWS rows get np.linalg.inv's bits; a
    coarsest level of 343 rows, formed by halves, matches it to roundoff."""
    for k in (1, 2, 19, INV_ROWS):
        B = np.stack([random_spd(k, seed=s, scale_spread=2.0) for s in range(4)])
        assert np.array_equal(_inverse_factor(B), np.linalg.inv(np.linalg.cholesky(B)))
    B = random_spd(343, seed=22, scale_spread=2.0)
    want = np.linalg.inv(np.linalg.cholesky(B))
    got = _inverse_factor(B)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_coarse_level_solve_matches_cho_solve(conductive_32_system):
    """The coarsest level's two products with its inverse Cholesky factor
    solve as LAPACK's triangular solves do, up to roundoff: on a matrix that
    is one dense level and on the coarsest level of a conductive hierarchy."""
    system = conductive_32_system
    for mg in (multigrid(random_spd(40, seed=14)),
               multigrid(system.matrix, system.copy_groups)):
        level = mg.levels[-1]
        factor = scipy.linalg.cho_factor(level.A.toarray())
        for b in np.random.default_rng(14).standard_normal((3, level.A.shape[0])):
            want = scipy.linalg.cho_solve(factor, b)
            got = mg._cycle(len(mg.levels) - 1, b)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_refinement_reuses_one_hierarchy(monkeypatch, conductive_32_system):
    builds = []

    def counting(A, groups=None):
        builds.append(A.shape[0])
        return multigrid(A, groups)

    monkeypatch.setattr(solver, "multigrid", counting)
    x, report = solve_system(conductive_32_system)
    assert builds == [conductive_32_system.matrix.shape[0]]
    assert isinstance(report.refinement_iterations, int)
    assert report.refinement_iterations > 0
    assert report.multigrid_levels == multigrid(
        conductive_32_system.matrix, conductive_32_system.copy_groups).sizes


def test_hierarchy_must_match_matrix(conductive_32_system):
    mg = multigrid(random_spd(10, seed=13))
    system = conductive_32_system
    with pytest.raises(SolverError):
        cg_solve(system.matrix, system.rhs, hierarchy=mg)


def csr_prolongation_cycle(mg, k, b):
    """The V-cycle prolonging through an explicit CSR copy of ``R.T``, kept
    as the reference for the CSC view the hierarchy applies. The coarsest
    level is the hierarchy's own solve: on the conductive fine level, a
    coarse difference at roundoff (``cho_solve``'s, 1e-15 relative) reaches
    the cycle's output at 1e-11 relative, above the prolongation's bound."""
    level = mg.levels[k]
    if level.L_inv is not None:
        return level.L_inv.T @ (level.L_inv @ b)
    x = level.smoother @ b
    if level.R is not None:
        P = level.R.T.tocsr()
        x += P @ csr_prolongation_cycle(mg, k + 1, level.R @ (b - level.A @ x))
    x += level.smoother @ (b - level.A @ x)
    return x


@pytest.mark.parametrize("variant", ["conductive", "blocking"])
def test_stored_restriction_cycle_matches_csc_view(variant):
    system = run_scenario("regular2d", n=32, variant=variant).system
    mg = multigrid(system.matrix, system.copy_groups)
    coarse = [level for level in mg.levels if level.R is not None]
    assert coarse
    for level in coarse:
        assert level.R.format == "csr"
        assert not hasattr(level, "P")
    rng = np.random.default_rng(5)
    for b in (system.rhs, *rng.standard_normal((3, len(system.rhs)))):
        want = csr_prolongation_cycle(mg, 0, b)
        assert np.max(np.abs(mg(b) - want)) <= 1e-12 * np.max(np.abs(want))


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
