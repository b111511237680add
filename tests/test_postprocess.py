"""Profiles, fracture extraction, boundary fluxes, CSV output."""

import csv
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.spatial import cKDTree

from fracflow import (BoundaryConditionSet, ConfigurationError,
                      ConstantAperture, FractureNetwork, FractureSpec,
                      GeometryError, Mesh, Point, Profile, assemble, boundary_flux,
                      build_interval, fracture_jump, fracture_pressure,
                      mass_balance_defect, profile_error, sample_profile,
                      run_scenario, solve_system, split_mesh,
                      write_fracture_csv, write_profile_csv, write_solution_csv)
from fracflow import postprocess
from conftest import THROUGHFLOW, coeffs_for, unit_square, vertical_network


def make_profile(s, values):
    s = np.asarray(s, dtype=float)
    pts = np.column_stack([s, np.zeros_like(s)])
    return Profile(s=s, points=pts, values=np.asarray(values, dtype=float))


# --- sampling -----------------------------------------------------------------

def test_sample_profile_reproduces_bilinear_field():
    split = split_mesh(unit_square(8), FractureNetwork(()))
    V = split.base.vertices
    field = 2.0 + 3.0 * V[:, 0] - V[:, 1] + 0.5 * V[:, 0] * V[:, 1]
    prof = sample_profile(split, field, Point(0.1, 0.05), Point(0.9, 0.85), 17)
    x, y = prof.points[:, 0], prof.points[:, 1]
    assert np.allclose(prof.values, 2.0 + 3.0 * x - y + 0.5 * x * y, atol=1e-12)
    assert prof.s[0] == 0.0
    assert prof.s[-1] == pytest.approx(np.hypot(0.8, 0.8))
    assert len(prof) == 17


def test_sample_profile_on_interface_returns_side_mean():
    split = split_mesh(unit_square(8), vertical_network(1e-2, 1.0))
    values = split.subdomain_of_vertex().astype(float)   # 0 left, 1 right
    prof = sample_profile(split, values, Point(0.5, 0.0), Point(0.5, 1.0), 9)
    assert np.allclose(prof.values, 0.5, atol=1e-12)


def test_sample_profile_outside_domain_raises():
    split = split_mesh(unit_square(4), FractureNetwork(()))
    with pytest.raises(GeometryError):
        sample_profile(split, np.zeros(split.n_dofs),
                       Point(0.5, 0.5), Point(1.5, 0.5), 5)
    with pytest.raises(GeometryError):
        sample_profile(split, np.zeros(split.n_dofs),
                       Point(0.2, 0.2), Point(0.2, 0.2), 5)


def test_sample_profile_1d():
    mesh = build_interval(10, 1.0)
    split = split_mesh(mesh, FractureNetwork(()))
    field = 1.0 - split.base.vertices[:, 0]
    prof = sample_profile(split, field, Point(0.0), Point(1.0), 11)
    assert np.allclose(prof.values, 1.0 - prof.s, atol=1e-13)


@pytest.fixture(scope="module")
def conductive_32():
    res = run_scenario("regular2d", n=32, variant="conductive")
    return res.split, res.pressure


def sample_per_point(split, values, pts, tol):
    """The per-point sampling loop, kept as the reference: a KD-tree over
    the cell centres, one Newton inversion per candidate cell, the mean of
    the cells that contain the point."""
    mesh = split.base
    corners = mesh.vertices[mesh.cells]
    centers = corners.mean(axis=1)
    radius = np.sqrt(((corners - centers[:, None, :]) ** 2).sum(axis=2)).max()
    tree = cKDTree(centers)
    out = np.empty(len(pts))
    for i, p in enumerate(pts):
        hits = []
        for ci in tree.query_ball_point(p, r=radius * (1.0 + 1e-12) + tol):
            X = corners[ci]
            xi = np.zeros(2)
            for _ in range(30):
                r = postprocess._q1_shape(xi) @ X - p
                if np.abs(r).max() < 1e-14 + 1e-14 * np.abs(X).max():
                    break
                dN = 0.25 * np.array([
                    [-(1 - xi[1]), (1 - xi[1]), (1 + xi[1]), -(1 + xi[1])],
                    [-(1 - xi[0]), -(1 + xi[0]), (1 + xi[0]), (1 - xi[0])],
                ])
                xi = xi - np.linalg.solve((dN @ X).T, r)
            N = postprocess._q1_shape(np.clip(xi, -1.0, 1.0))
            if np.linalg.norm(N @ X - p) <= tol:
                hits.append(float(N @ values[mesh.cells[ci]]))
        out[i] = float(np.mean(hits))
    return out


@pytest.mark.parametrize("start, end, m", [
    ((0.5, 0.0), (0.5, 1.0), 129),       # on fracture 1, across the crossing
    ((0.0, 0.5), (1.0, 0.5), 65),        # on fracture 0, T-junctions at x=0.625, 0.75
    ((0.05, 0.1), (0.95, 0.9), 101),     # oblique, through cell interiors
    ((0.05, 0.45), (0.25, 0.25), 17),    # ends on a vertex shared by four cells
    ((0.9, 0.95), (0.25, 0.25), 33),     # both coordinates falling, across fractures
])
def test_batched_sampling_matches_per_point_loop(conductive_32, start, end, m):
    split, pressure = conductive_32
    pts = np.linspace(start, end, m)
    got = sample_profile(split, pressure, Point(*start), Point(*end), m).values
    want = sample_per_point(split, pressure, pts, 1e-12)
    assert np.max(np.abs(got - want)) <= 1e-15 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("seed", [4, 7])
def test_batched_sampling_matches_per_point_loop_on_distorted_mesh(seed):
    split = split_mesh(distorted_square(8, seed=seed), FractureNetwork(()))
    V = split.base.vertices
    values = np.sin(3.0 * V[:, 0]) + V[:, 0] * V[:, 1] ** 2
    vertex = tuple(V[4 * 9 + 4])                  # interior: four cells share it
    for start, end, m in (((0.13, 0.21), (0.87, 0.79), 41),
                          ((0.8, 0.15), vertex, 13),
                          (vertex, (0.2, 0.85), 13)):
        got = sample_profile(split, values, Point(*start), Point(*end), m)
        want = sample_per_point(split, values, got.points, 1e-12)
        assert np.max(np.abs(got.values - want)) <= 1e-15 * max(1.0, np.abs(want).max())


def test_import_leaves_scipy_spatial_unloaded():
    """Sampling needs no KD-tree, so ``import fracflow`` does not pay for
    loading scipy.spatial."""
    import fracflow
    package_root = os.path.dirname(os.path.dirname(fracflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    code = ("import sys, fracflow; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


# --- fracture extraction --------------------------------------------------------

def fracture_nodal_per_edge(split, values, fracture_id):
    """The per-edge-endpoint extraction, kept as the reference: each endpoint
    is placed on the path segment by segment, then sorted records within tol
    of a group's first position are averaged."""
    path = split.network.fractures[fracture_id].path
    total = sum(float(np.linalg.norm(q.as_array() - p.as_array()))
                for p, q in zip(path[:-1], path[1:]))
    tol = 1e-9 * max(total, 1.0)

    def arc_position(pt):
        prefix = 0.0
        for p0, p1 in zip(path[:-1], path[1:]):
            a, seg = p0.as_array(), p1.as_array() - p0.as_array()
            L = float(np.linalg.norm(seg))
            t = float(np.dot(pt - a, seg)) / (L * L)
            if -tol <= t * L <= L + tol:
                if np.linalg.norm(pt - (a + np.clip(t, 0.0, 1.0) * seg)) <= tol:
                    return prefix + np.clip(t, 0.0, 1.0) * L
            prefix += L
        raise AssertionError(f"{pt} not on the path")

    recs = []
    edges = split.edges_of_fracture(fracture_id)
    for i in range(len(edges)):
        for (d1, d2), pt in zip(edges.node_pairs[i], edges.points[i]):
            recs.append((arc_position(pt), pt, 0.5 * (values[d1] + values[d2]),
                         values[d2] - values[d1]))
    recs.sort(key=lambda r: r[0])
    groups = []
    for rec in recs:
        if groups and rec[0] - groups[-1][0][0] <= tol:
            groups[-1].append(rec)
        else:
            groups.append([rec])
    return tuple(np.array([np.mean([r[k] for r in g], axis=0) for g in groups])
                 for k in range(4))


@pytest.mark.parametrize("fracture_id", range(6))
def test_batched_fracture_extraction_matches_per_edge(conductive_32, fracture_id):
    # every fracture of the network: crossings and T-junctions included
    split, pressure = conductive_32
    got = postprocess._fracture_nodal(split, pressure, fracture_id)
    want = fracture_nodal_per_edge(split, pressure, fracture_id)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-15 * max(1.0, np.abs(w).max())


def test_fracture_extraction_rejects_node_off_path():
    split = split_mesh(unit_square(8), vertical_network(1e-2, 1.0))
    with pytest.raises(GeometryError, match="not on its fracture path"):
        postprocess._arc_positions(split.network.fractures[0].path,
                                   np.array([[0.5, 0.5], [0.25, 0.5]]), 1e-9)


def test_fracture_mean_and_jump_2d():
    split = split_mesh(unit_square(8), vertical_network(1e-2, 1.0))
    side = split.subdomain_of_vertex()
    xs = split.base.vertices[:, 0]
    left_label = side[np.argmin(np.abs(xs - 0.0))]       # subdomain owning x=0
    values = np.where(side == left_label, 10.0, 4.0)
    mean = fracture_pressure(split, values, 0)
    jump = fracture_jump(split, values, 0)
    assert len(mean) == 9 and len(jump) == 9
    assert np.allclose(mean.values, 7.0)
    assert np.allclose(np.abs(jump.values), 6.0)
    # s runs along the fracture path from its first vertex
    assert np.all(np.diff(mean.s) > 0)
    assert mean.s[0] == pytest.approx(0.0)
    assert mean.s[-1] == pytest.approx(1.0)
    assert np.allclose(mean.points[:, 0], 0.5)
    with pytest.raises(GeometryError):
        fracture_pressure(split, values, 3)


def test_fracture_mean_and_jump_1d_point():
    mesh = build_interval(8, 1.0)
    network = FractureNetwork((FractureSpec(
        path=(Point(0.5),), aperture=ConstantAperture(1e-2), mobility=1e-2),))
    split = split_mesh(mesh, network)
    values = np.where(split.base.vertices[:, 0] <= 0.5, 2.0, 1.0)
    # disambiguate the duplicated pair: set by subdomain side
    side = split.subdomain_of_vertex()
    left_label = side[np.argmin(np.abs(split.base.vertices[:, 0]))]
    values = np.where(side == left_label, 2.0, 1.0)
    mean = fracture_pressure(split, values, 0)
    jump = fracture_jump(split, values, 0)
    assert len(mean) == 1
    assert mean.values[0] == pytest.approx(1.5)
    assert abs(jump.values[0]) == pytest.approx(1.0)


def test_two_fracture_1d_network_reads_each_point():
    # series resistances: the bar (1/k = 1) and each point (eps/kf)
    mesh = build_interval(10, 1.0)
    network = FractureNetwork((
        FractureSpec(path=(Point(0.3),), aperture=ConstantAperture(5e-4), mobility=1e-3),
        FractureSpec(path=(Point(0.7),), aperture=ConstantAperture(5e-4), mobility=2e-3)))
    split = split_mesh(mesh, network)
    assert split.n_subdomains == 3 and len(split.interface_edges) == 2
    values = np.arange(split.n_dofs, dtype=float) ** 2
    for j, (x, vertex) in enumerate(((0.3, 3), (0.7, 7))):
        side1, side2 = split.copies_of(vertex)           # the original id is side 1
        mean = fracture_pressure(split, values, j)
        jump = fracture_jump(split, values, j)
        assert mean.s.tolist() == jump.s.tolist() == [0.0]
        assert mean.points.tolist() == jump.points.tolist() == [[mesh.vertices[vertex, 0]]]
        assert mean.points[0, 0] == pytest.approx(x)
        assert mean.values[0] == 0.5 * (values[side1] + values[side2])
        assert jump.values[0] == values[side2] - values[side1]

    bcs = BoundaryConditionSet(dirichlet={"left": 1.0, "right": 0.0}, neumann={})
    system = assemble(split, np.ones(3), coeffs_for(network), bcs)
    pressure, _ = solve_system(system)
    flux = 1.0 / (1.0 + 0.5 + 0.25)
    for j, resistance in enumerate((0.5, 0.25)):
        assert fracture_jump(split, pressure, j).values[0] == pytest.approx(-flux * resistance,
                                                                           rel=1e-9)
    assert boundary_flux(split, system, pressure, "left") == pytest.approx(-flux, rel=1e-9)


# --- boundary fluxes -------------------------------------------------------------

def test_boundary_flux_throughflow(solved_vertical_16):
    split, system, pressure, _ = solved_vertical_16
    fluxes = boundary_flux(split, system, pressure)
    assert set(fluxes) == {"left", "right", "bottom", "top"}
    assert fluxes["left"] == pytest.approx(-1.0, abs=1e-10)   # inflow, outward sign
    assert fluxes["right"] == pytest.approx(1.0, abs=1e-10)
    assert fluxes["bottom"] == pytest.approx(0.0, abs=1e-12)
    assert fluxes["top"] == pytest.approx(0.0, abs=1e-12)
    assert mass_balance_defect(fluxes) <= 1e-10
    # scalar per-tag access agrees with the dict
    assert boundary_flux(split, system, pressure, "right") == fluxes["right"]
    with pytest.raises(ConfigurationError):
        boundary_flux(split, system, pressure, "north")


def test_boundary_flux_dirichlet_only_case():
    split = split_mesh(unit_square(8), vertical_network(1e-2, 1e2))
    bcs = BoundaryConditionSet(dirichlet={"bottom": 1.0, "top": 0.0}, neumann={})
    system = assemble(split, np.ones(2), coeffs_for(split.network), bcs)
    x, _ = solve_system(system)
    fluxes = boundary_flux(split, system, x)
    # exact solution p = 1 - y: the background passes a unit flux and the
    # fracture conduit (tangential conductance kf * eps = 1) another unit
    assert fluxes["bottom"] == pytest.approx(-2.0, abs=1e-9)
    assert fluxes["top"] == pytest.approx(2.0, abs=1e-9)
    assert abs(fluxes["left"]) <= 1e-10 and abs(fluxes["right"]) <= 1e-10


def _fluxes_by_dof_loop(split, system, x):
    """Tag ownership dof by dof over sets of tags, then each tag's residual
    summed in ascending dof order."""
    residual = system.residual_raw(x)
    tag_dofs = {}
    for vids, tag in split.base.boundary_facets:
        tag_dofs.setdefault(tag, set()).update(vids)

    def rank(t):
        return (0 if t in system.dirichlet_tags else 1 if t in system.neumann_tags else 2, t)

    fluxes = {t: 0.0 for t in tag_dofs}
    for d in sorted(set().union(*tag_dofs.values())):
        fluxes[min((t for t, ds in tag_dofs.items() if d in ds), key=rank)] += float(residual[d])
    return fluxes


@pytest.mark.parametrize("dirichlet,neumann", [
    ({"right": 0.0}, {"left": 1.0}),                            # corners to right, left
    ({"top": 0.5, "right": 0.5}, {"left": 1.0, "bottom": 0.5}),  # ties go alphabetical
    ({"bottom": 1.0}, {}),                                      # untagged sides claim last
])
def test_boundary_flux_matches_dof_by_dof_ownership(dirichlet, neumann):
    split = split_mesh(unit_square(12), vertical_network(1e-2, 1e2))
    system = assemble(split, np.ones(2), coeffs_for(split.network),
                      BoundaryConditionSet(dirichlet=dirichlet, neumann=neumann))
    x, _ = solve_system(system)
    fluxes = boundary_flux(split, system, x)
    want = _fluxes_by_dof_loop(split, system, x)
    assert list(fluxes) == list(want)
    assert [np.float64(v).view(np.int64) for v in fluxes.values()] == \
        [np.float64(v).view(np.int64) for v in want.values()]


def test_boundary_flux_1d_matches_dof_by_dof_ownership():
    network = FractureNetwork((FractureSpec(path=(Point(0.5),), aperture=ConstantAperture(1e-2),
                                            mobility=1e-2),))
    split = split_mesh(build_interval(16, 1.0), network)
    system = assemble(split, np.ones(2), coeffs_for(network), THROUGHFLOW)
    x, _ = solve_system(system)
    assert boundary_flux(split, system, x) == _fluxes_by_dof_loop(split, system, x)


def test_mass_balance_defect_is_abs_sum():
    assert mass_balance_defect({"a": 1.0, "b": -0.25}) == pytest.approx(0.75)
    assert mass_balance_defect({}) == 0.0


# --- profile error ----------------------------------------------------------------

def test_profile_error_offset_and_ramp():
    s = np.linspace(0.0, 1.0, 201)
    base = make_profile(s, np.sin(s))
    off = make_profile(s, np.sin(s) + 0.125)
    l2, mx = profile_error(off, base)
    assert l2 == pytest.approx(0.125, rel=1e-12)
    assert mx == pytest.approx(0.125, rel=1e-12)
    ramp = make_profile(s, np.sin(s) + s)
    l2, mx = profile_error(ramp, base)
    assert mx == pytest.approx(1.0, rel=1e-12)
    assert l2 == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-4)   # trapezoid on 201 pts


def test_profile_error_trapezoid_on_uneven_samples():
    # diff = (0, 2, 0) at s = (0, 1, 3): the trapezoid rule integrates the
    # squared difference to 0.5*4*1 + 0.5*4*2 = 6 over a span of 3
    base = make_profile([0.0, 1.0, 3.0], [1.0, 1.0, 1.0])
    cand = make_profile([0.0, 1.0, 3.0], [1.0, 3.0, 1.0])
    l2, mx = profile_error(cand, base)
    assert l2 == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert mx == 2.0


def test_profile_error_requires_shared_abscissae():
    a = make_profile(np.linspace(0, 1, 5), np.zeros(5))
    b = make_profile(np.linspace(0, 2, 5), np.zeros(5))
    with pytest.raises(GeometryError):
        profile_error(a, b)
    c = make_profile(np.linspace(0, 1, 6), np.zeros(6))
    with pytest.raises(GeometryError):
        profile_error(a, c)


def test_profile_identical_is_zero():
    s = np.linspace(0, 2, 9)
    p = make_profile(s, s ** 2)
    assert profile_error(p, p) == (0.0, 0.0)


# --- CSV output -------------------------------------------------------------------

def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_write_profile_csv_round_trip(tmp_path):
    s = np.linspace(0.0, 1.0, 7)
    values = np.pi * s + 1.0 / 3.0
    pts = np.column_stack([s, 0.7 * np.ones_like(s)])
    prof = Profile(s=s, points=pts, values=values)
    path = tmp_path / "p.csv"
    write_profile_csv(path, prof)
    header, rows = read_csv(path)
    assert header == ["s", "x", "y", "p"]
    assert len(rows) == 7
    got = np.array([[float(c) for c in row] for row in rows])
    # 17 significant digits round-trip float64 exactly
    assert np.array_equal(got[:, 0], s)
    assert np.array_equal(got[:, 3], values)
    assert np.array_equal(got[:, 2], 0.7 * np.ones(7))


def test_write_profile_csv_1d_uses_zero_y(tmp_path):
    s = np.linspace(0.0, 1.0, 3)
    prof = Profile(s=s, points=s[:, None], values=s)
    write_profile_csv(tmp_path / "p.csv", prof)
    header, rows = read_csv(tmp_path / "p.csv")
    assert header == ["s", "x", "y", "p"]
    assert all(float(r[2]) == 0.0 for r in rows)


def test_write_fracture_csv(tmp_path, solved_vertical_16):
    split, system, pressure, _ = solved_vertical_16
    mean = fracture_pressure(split, pressure, 0)
    jump = fracture_jump(split, pressure, 0)
    path = tmp_path / "f.csv"
    write_fracture_csv(path, mean, jump)
    header, rows = read_csv(path)
    assert header == ["s", "x", "y", "p", "jump"]
    assert len(rows) == len(mean)
    got_jump = np.array([float(r[4]) for r in rows])
    assert np.array_equal(got_jump, jump.values)


def test_write_solution_csv(tmp_path, solved_vertical_16):
    split, system, pressure, _ = solved_vertical_16
    path = tmp_path / "s.csv"
    write_solution_csv(path, split, pressure)
    header, rows = read_csv(path)
    assert header == ["vertex", "x", "y", "subdomain", "p"]
    assert len(rows) == split.n_dofs
    got = np.array([float(r[4]) for r in rows])
    assert np.array_equal(got, pressure)
    subs = np.array([int(r[3]) for r in rows])
    assert np.array_equal(subs, split.subdomain_of_vertex())


def csv_writer_solution(path, split, solution):
    """The per-row csv.writer version of write_solution_csv, kept as the
    byte-level reference."""
    sub = split.subdomain_of_vertex()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["vertex", "x", "y", "subdomain", "p"])
        for i, (pt, v) in enumerate(zip(split.base.vertices, solution)):
            x = float(pt[0])
            y = float(pt[1]) if len(pt) > 1 else 0.0
            w.writerow([i, f"{x:.17g}", f"{y:.17g}", int(sub[i]), f"{v:.17g}"])


def distorted_square(n: int, seed: int) -> Mesh:
    """unit_square(n) with every vertex moved by up to h/10, so that every
    non-zero coordinate is distinct; -0.0 and 0.0 occur side by side."""
    mesh = unit_square(n)
    v = mesh.vertices + np.random.default_rng(seed).uniform(-0.1, 0.1, mesh.vertices.shape) / n
    v[0] = (-0.0, 0.0)
    v[n + 1, 0] = 0.0
    v[1, 1] = -0.0
    return Mesh(v, mesh.cells, mesh.boundary_facets)


@pytest.mark.parametrize("chunk", [8192, 7])
def test_write_solution_csv_bytes_match_csv_writer(tmp_path, monkeypatch, chunk):
    import fracflow.postprocess as postprocess
    monkeypatch.setattr(postprocess, "_SOLUTION_CHUNK", chunk)
    interval = split_mesh(build_interval(8, 1.0), FractureNetwork((FractureSpec(
        path=(Point(0.5),), aperture=ConstantAperture(1e-2), mobility=1e-2),)))
    distorted = split_mesh(distorted_square(6, seed=4), FractureNetwork(()))
    xy = distorted.base.vertices
    assert len(np.unique(xy[xy != 0.0])) == np.count_nonzero(xy)
    for name, split in (("2d", split_mesh(unit_square(6), vertical_network(1e-2, 1.0))),
                        ("1d", interval), ("distorted", distorted)):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(split.n_dofs) * 10.0 ** rng.integers(-20, 20, split.n_dofs)
        values[:3] = (-0.0, 1.0 / 3.0, 1e300)
        write_solution_csv(tmp_path / f"{name}.csv", split, values)
        csv_writer_solution(tmp_path / f"{name}_ref.csv", split, values)
        got = (tmp_path / f"{name}.csv").read_bytes()
        assert got == (tmp_path / f"{name}_ref.csv").read_bytes()
        assert got.count(b"\r\n") == split.n_dofs + 1


def csv_writer_profile(path, mean, jump=None):
    """The per-row csv.writer version of write_profile_csv (without
    ``jump``) and write_fracture_csv, kept as the byte-level reference."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["s", "x", "y", "p"] + ([] if jump is None else ["jump"]))
        extra = [[]] * len(mean) if jump is None else [[j] for j in jump.values]
        for s, pt, v, more in zip(mean.s, mean.points, mean.values, extra):
            x = float(pt[0])
            y = float(pt[1]) if len(pt) > 1 else 0.0
            w.writerow([f"{c:.17g}" for c in (s, x, y, v, *more)])


@pytest.mark.parametrize("dim, m", [(2, 40), (1, 40), (2, 1), (1, 1)])
def test_profile_and_fracture_csv_bytes_match_csv_writer(tmp_path, dim, m):
    rng = np.random.default_rng(dim * 100 + m)

    def extreme(k):
        return rng.standard_normal(k) * 10.0 ** rng.integers(-20, 20, k)

    s = np.sort(np.abs(extreme(m)))
    pts = extreme(m * dim).reshape(m, dim)
    values, jumps = extreme(m), extreme(m)
    if m > 3:
        pts[:3, 0] = (-0.0, np.nan, np.inf)
        values[:3] = (-0.0, 1.0 / 3.0, 1e300)
    mean, jump = Profile(s, pts, values), Profile(s, pts, jumps)
    write_profile_csv(tmp_path / "p.csv", mean)
    csv_writer_profile(tmp_path / "p_ref.csv", mean)
    write_fracture_csv(tmp_path / "f.csv", mean, jump)
    csv_writer_profile(tmp_path / "f_ref.csv", mean, jump)
    for name in ("p", "f"):
        got = (tmp_path / f"{name}.csv").read_bytes()
        assert got == (tmp_path / f"{name}_ref.csv").read_bytes()
        assert got.count(b"\r\n") == m + 1
