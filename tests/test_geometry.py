"""Meshes, conformity checking and interface splitting."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from fracflow import (ConformityError, ConstantAperture, EllipticalAperture,
                      FractureNetwork, FractureSpec, GeometryError,
                      InterfaceEntities, Mesh, Point, UnsupportedTopologyError,
                      build_interval, build_structured_quad, check_conformity,
                      run_scenario, split_mesh)
from fracflow.geometry import components
from conftest import PATH_CASES, copies_of, polyline_network, unit_square, vertical_network


# --- points and apertures ---------------------------------------------------

def test_point_dimensions():
    p1 = Point(0.25)
    p2 = Point(0.25, 0.75)
    assert p1.dim == 1 and p2.dim == 2
    assert p1.coords == (0.25,)
    assert p2.coords == (0.25, 0.75)
    assert np.allclose(p2.as_array(), [0.25, 0.75])


def test_constant_aperture():
    ap = ConstantAperture(1e-3)
    assert ap.at(0.9) == 1e-3
    assert ap.max_value == 1e-3
    with pytest.raises(GeometryError):
        ConstantAperture(0.0)
    with pytest.raises(GeometryError):
        ConstantAperture(-1.0)


def test_elliptical_aperture_profile():
    # a profile of the arc length s along the fracture, widest at s = 0.5
    ap = EllipticalAperture(center=0.5, major=1.0, minor=1e-2)
    assert ap.at(0.5) == pytest.approx(1e-2)
    # half way to the tip: minor * sqrt(1 - 0.5^2)
    assert ap.at(0.75) == pytest.approx(1e-2 * np.sqrt(0.75))
    # at and beyond the tip the opening is zero
    assert ap.at(1.0) == 0.0
    assert ap.at(1.3) == 0.0
    assert ap.max_value == 1e-2
    with pytest.raises(GeometryError):
        EllipticalAperture(center=0.0, major=-1.0, minor=1e-2)
    with pytest.raises(GeometryError, match="centre must be finite"):
        EllipticalAperture(center=np.nan, major=1.0, minor=1e-2)


@pytest.mark.parametrize("center", [0.5, 0.3], ids=["center0", "center1"])
def test_aperture_arrays_match_per_point_profile(center):
    # the array form rounds as the scalar closed form does, in the shape of s
    ap = EllipticalAperture(center=center, major=1.0, minor=1e-2)
    s = np.random.default_rng(7).random(2000) * 1.2 - 0.1
    ratio = np.array([abs(v - center) / 0.5 for v in s.tolist()])
    want = np.where(ratio < 1.0, 1e-2 * np.sqrt(np.maximum(1.0 - ratio * ratio, 0.0)), 0.0)
    assert np.array_equal(ap.at(s), want)
    assert np.array_equal(ap.at(s.reshape(1000, 2)), want.reshape(1000, 2))
    assert ap.at(s[0]) == want[0]
    assert np.array_equal(ConstantAperture(1e-3).at(s), np.full(2000, 1e-3))


# --- mesh builders ----------------------------------------------------------

def test_structured_quad_counts_and_tags():
    mesh = build_structured_quad(4, 3, Point(0.0, 0.0), Point(2.0, 1.0))
    assert mesh.dim == 2
    assert mesh.n_vertices == 5 * 4
    assert mesh.n_cells == 12
    assert set(mesh.boundary_tags()) == {"left", "right", "bottom", "top"}
    assert mesh.diameter() == pytest.approx(np.sqrt(5.0))
    # cells are counter-clockwise quads covering the full area
    area = 0.0
    for cell in mesh.cells:
        X = mesh.vertices[cell]
        area += 0.5 * abs(np.dot(X[:, 0], np.roll(X[:, 1], -1))
                          - np.dot(X[:, 1], np.roll(X[:, 0], -1)))
    assert area == pytest.approx(2.0)


def test_diameter_is_computed_once_per_mesh():
    mesh = build_structured_quad(4, 3, Point(0.0, 0.0), Point(2.0, 1.0))
    first = mesh.diameter()
    assert mesh.diameter() is first


def test_interval_counts_and_tags():
    mesh = build_interval(8, 2.0)
    assert mesh.dim == 1
    assert mesh.n_vertices == 9
    assert mesh.n_cells == 8
    assert set(mesh.boundary_tags()) == {"left", "right"}
    assert mesh.diameter() == pytest.approx(2.0)


@pytest.mark.parametrize("x, cells", [
    ((0.0, 0.25, 0.5, 0.75, 1.0), ((0, 1), (2, 1), (2, 3), (3, 4))),   # cell 1 reversed
    ((0.0, 0.5, 0.5, 1.0), ((0, 1), (1, 2), (2, 3))),                  # cell 1 of zero length
])
def test_interval_cells_must_run_left_to_right(x, cells):
    with pytest.raises(GeometryError, match="cell 1 "):
        Mesh(np.array(x)[:, None], np.array(cells), [[0], [len(x) - 1]], ["left", "right"])


def test_structured_quad_rejects_bad_sizes():
    with pytest.raises(GeometryError):
        build_structured_quad(0, 4, Point(0.0, 0.0), Point(1.0, 1.0))
    with pytest.raises(GeometryError):
        build_structured_quad(4, 4, Point(1.0, 0.0), Point(0.0, 1.0))


def test_structured_quad_facets_run_bottom_top_left_right():
    nx, ny = 4, 3
    mesh = build_structured_quad(nx, ny, Point(0.0, 0.0), Point(2.0, 1.0))

    def vid(i, j):
        return j * (nx + 1) + i

    want = ([[vid(i, 0), vid(i + 1, 0)] for i in range(nx)]
            + [[vid(i, ny), vid(i + 1, ny)] for i in range(nx)]
            + [[vid(0, j), vid(0, j + 1)] for j in range(ny)]
            + [[vid(nx, j), vid(nx, j + 1)] for j in range(ny)])
    assert mesh.boundary_facets.tolist() == want
    assert mesh.facet_tags.tolist() == ["bottom"] * nx + ["top"] * nx + ["left"] * ny + ["right"] * ny
    assert mesh.boundary_tags() == ("bottom", "top", "left", "right")
    assert mesh.boundary_facets.dtype == np.int64
    assert not mesh.boundary_facets.flags.writeable and not mesh.facet_tags.flags.writeable


SQUARE_2 = unit_square(2)        # 9 vertices


@pytest.mark.parametrize("facets, tags, match", [
    (np.zeros((1, 3), dtype=np.int64), ["left"], r"\(f, 2\)"),   # three vertices in 2D
    ([0, 3], ["left", "left"], r"\(f, 2\)"),                    # one vertex per facet
    ([[0, -1]], ["bottom"], "out of range"),
    ([[8, 9]], ["top"], "out of range"),
    ([[0, 1]], ["bottom", "top"], "one tag per"),
    ([[0, 1], [1, 2]], ["bottom"], "one tag per"),
    ([[0, 1]], "bottom", "one tag per"),
])
def test_mesh_rejects_bad_boundary_facets(facets, tags, match):
    with pytest.raises(GeometryError, match=match):
        Mesh(SQUARE_2.vertices, SQUARE_2.cells, facets, tags)


def test_mesh_accepts_an_empty_facet_set():
    for facets in (np.empty((0, 2), dtype=np.int64), []):
        mesh = Mesh(SQUARE_2.vertices, SQUARE_2.cells, facets, [])
        assert mesh.boundary_facets.shape == (0, 2)
        assert mesh.facet_tags.shape == (0,)
        assert mesh.boundary_tags() == ()
    interval = build_interval(4, 1.0)
    assert Mesh(interval.vertices, interval.cells, [], []).boundary_facets.shape == (0, 1)


# --- conformity -------------------------------------------------------------

def test_conformity_accepts_aligned_fracture():
    check_conformity(unit_square(32), vertical_network(1e-2, 1.0, x=0.5))


def test_conformity_rejects_off_grid_line():
    # x=0.3 is not a mesh line of a 32-cell grid (0.3 * 32 = 9.6)
    with pytest.raises(ConformityError):
        check_conformity(unit_square(32), vertical_network(1e-2, 1.0, x=0.3))


def test_conformity_rejects_mid_cell_endpoint():
    spec = FractureSpec(path=(Point(0.5, 0.0), Point(0.5, 0.33)),
                        aperture=ConstantAperture(1e-2), mobility=1.0)
    with pytest.raises(ConformityError, match=r"end point \(0\.5, 0\.33\) is not a mesh vertex"):
        check_conformity(unit_square(32), FractureNetwork((spec,)))


def test_conformity_rejects_diagonal_path():
    spec = FractureSpec(path=(Point(0.0, 0.0), Point(1.0, 1.0)),
                        aperture=ConstantAperture(1e-2), mobility=1.0)
    with pytest.raises(ConformityError):
        check_conformity(unit_square(8), FractureNetwork((spec,)))


def test_conformity_returns_one_int64_chain_per_fracture():
    network = FractureNetwork((
        FractureSpec(path=(Point(0.5, 1.0), Point(0.5, 0.0)),
                     aperture=ConstantAperture(1e-2), mobility=1.0),
        FractureSpec(path=(Point(0.0, 0.25), Point(0.25, 0.25), Point(0.25, 0.5)),
                     aperture=ConstantAperture(1e-2), mobility=1.0)))
    top_down, bent = check_conformity(unit_square(4), network)
    assert top_down.dtype == bent.dtype == np.int64
    # vertex ids j * 5 + i, each edge oriented along its path
    assert top_down.tolist() == [[22, 17], [17, 12], [12, 7], [7, 2]]
    assert bent.tolist() == [[5, 6], [6, 11]]

    points = FractureNetwork(tuple(
        FractureSpec(path=(Point(x),), aperture=ConstantAperture(1e-3), mobility=1.0)
        for x in (0.7, 0.3)))
    chains = check_conformity(build_interval(10, 1.0), points)
    # in 1D each chain is the one facet (vertex) at the point
    assert [c.shape for c in chains] == [(1, 1), (1, 1)]
    assert [c.tolist() for c in chains] == [[[7]], [[3]]]
    assert check_conformity(unit_square(4), FractureNetwork(())) == []


def test_conformity_rejects_a_degenerate_path_segment():
    # a segment shorter than the tolerance is bad input, not a mesh mismatch
    spec = FractureSpec(path=(Point(0.5, 0.0), Point(0.5, 1e-14)),
                        aperture=ConstantAperture(1e-2), mobility=1.0)
    with pytest.raises(GeometryError, match="^fracture 0: degenerate path segment 0$"):
        check_conformity(unit_square(4), FractureNetwork((spec,)))


def points_1d(*xs):
    return FractureNetwork(tuple(
        FractureSpec(path=(Point(x),), aperture=ConstantAperture(1e-3), mobility=1.0)
        for x in xs))


@pytest.mark.parametrize("xs, error, message", [
    ((0.0,), UnsupportedTopologyError,
     r"fracture 0 runs along the domain boundary at facet \(0,\)"),
    ((1.0,), UnsupportedTopologyError,
     r"fracture 0 runs along the domain boundary at facet \(10,\)"),
    ((0.3, 0.5, 0.5), UnsupportedTopologyError,
     r"fractures 1 and 2 overlap on facet \(5,\)"),
    ((0.55,), ConformityError,
     "fracture 0, segment 0: path does not follow mesh vertices"),
    ((1.5,), ConformityError,
     "fracture 0, segment 0: path does not follow mesh vertices"),
], ids=["at-left-end", "at-right-end", "two-at-one-point", "off-every-vertex", "outside"])
def test_split_1d_rejects_points_it_cannot_split(xs, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        split_mesh(build_interval(10, 1.0), points_1d(*xs))


# --- splitting: single vertical fracture ------------------------------------

def test_split_single_vertical_counts():
    split = split_mesh(unit_square(32), vertical_network(1e-2, 1.0))
    assert split.n_subdomains == 2
    # 33 duplicated vertices along the fracture line
    assert split.n_dofs == 33 * 33 + 33 == 1122
    assert len(split.interface_edges) == 32
    assert len(split.edges_of_fracture(0)) == 32


def test_split_preserves_coordinates_and_origin():
    split = split_mesh(unit_square(8), vertical_network(1e-2, 1.0))
    base = unit_square(8)
    # every dof maps back to an original vertex at the same coordinates
    assert np.allclose(split.base.vertices,
                       base.vertices[split.vertex_origin])
    # duplicated vertices: exactly the 9 on the line x = 0.5
    origin_counts = np.bincount(split.vertex_origin)
    dup = np.nonzero(origin_counts == 2)[0]
    assert len(dup) == 9
    assert np.allclose(base.vertices[dup][:, 0], 0.5)
    for v in dup:
        copies = copies_of(split, v)
        assert len(copies) == 2
        subs = {split.subdomain_of_vertex()[c] for c in copies}
        assert len(subs) == 2  # the two copies live on different sides


def test_split_edge_geometry():
    eps = 1e-3
    split = split_mesh(unit_square(8), vertical_network(eps, 1.0))
    edges = split.interface_edges
    assert len(edges) == 8
    assert np.all(edges.fracture_id == 0)
    assert edges.length == pytest.approx(np.full(8, 1.0 / 8.0))
    assert edges.points.shape == (8, 2, 2)
    assert edges.points[:, :, 0] == pytest.approx(np.full((8, 2), 0.5))
    assert edges.apertures == pytest.approx(np.full((8, 2), eps))
    # node pairs hold two copies of the same underlying vertex
    side1, side2 = edges.node_pairs[..., 0], edges.node_pairs[..., 1]
    assert np.array_equal(split.vertex_origin[side1], split.vertex_origin[side2])
    assert np.all(side1 != side2)
    assert edges.length.sum() == pytest.approx(1.0)


def test_interface_record_rows_are_read_only_records():
    split = run_scenario("regular2d", n=8, variant="blocking").split
    edges = split.interface_edges
    assert isinstance(edges, InterfaceEntities)
    assert len(edges) == len(edges.fracture_id) == 28
    for name in ("fracture_id", "node_pairs", "points", "apertures", "length", "arc"):
        assert not getattr(edges, name).flags.writeable
    # the rows of each fracture, in order, make up the record
    rows = [split.edges_of_fracture(j) for j in range(6)]
    assert all(isinstance(r, InterfaceEntities) for r in rows)
    assert np.array_equal(np.concatenate([r.node_pairs for r in rows]), edges.node_pairs)
    assert np.array_equal(edges[3:5].points, edges.points[3:5])
    assert len(split.edges_of_fracture(6)) == 0
    # side 1 is the lower subdomain
    side = split.subdomain_of_vertex()[edges.node_pairs]
    assert np.all(side[..., 0] < side[..., 1])
    tangent = edges.points[:, 1] - edges.points[:, 0]
    assert np.allclose(np.linalg.norm(tangent, axis=1), edges.length)


@pytest.mark.parametrize("case", sorted(PATH_CASES))
def test_interface_rows_follow_each_path(case):
    # bent, reversed and oblique paths: each fracture's rows form one chain
    # from its first point, and arc measures the distance along it
    mesh, network = PATH_CASES[case]()
    split = split_mesh(mesh, network)
    eps = np.finfo(float).eps
    for j, frac in enumerate(network):
        edges = split.edges_of_fracture(j)
        assert np.array_equal(edges.points[:-1, -1], edges.points[1:, 0])
        assert edges.arc[0, 0] == 0.0
        step = edges.arc[:, 1] - edges.arc[:, 0]
        assert np.all(np.abs(step - edges.length) <= 4 * eps * edges.arc[:, 1])
        corners = np.array([p.coords for p in frac.path])
        total = np.sum(np.linalg.norm(np.diff(corners, axis=0), axis=1))
        assert abs(edges.arc[-1, -1] - total) <= 4 * eps * total


@pytest.mark.parametrize("case", ["bent24", "loop"])
def test_apertures_follow_each_path_arc(case):
    # an ellipse as long as its fracture, centred at mid-arc, closes at both
    # tips of a bent or closed path: each node's aperture is the profile at
    # its arc length, not at its distance from a point
    if case == "loop":
        mesh = unit_square(8)
        network = polyline_network(((0.25, 0.25), (0.75, 0.25), (0.75, 0.75),
                                    (0.25, 0.75), (0.25, 0.25)))
    else:
        mesh, network = PATH_CASES[case]()
    fractures = []
    for frac in network:
        corners = np.array([p.coords for p in frac.path])
        length = float(np.sum(np.linalg.norm(np.diff(corners, axis=0), axis=1)))
        fractures.append(FractureSpec(frac.path, EllipticalAperture(0.5 * length, length, 1e-2),
                                      frac.mobility))
    split = split_mesh(mesh, FractureNetwork(fractures))
    for j, frac in enumerate(split.network):
        edges = split.edges_of_fracture(j)
        assert np.array_equal(edges.apertures, frac.aperture.at(edges.arc))
        assert edges.apertures[0, 0] == edges.apertures[-1, -1] == 0.0
        assert edges.apertures.max() > 0.99e-2


def test_split_rejects_interior_tip():
    # a tip that ends strictly inside the domain (touching neither the
    # boundary nor another fracture) is unsupported
    from fracflow import UnsupportedTopologyError
    spec = FractureSpec(path=(Point(0.5, 0.0), Point(0.5, 0.5)),
                        aperture=ConstantAperture(1e-2), mobility=1.0)
    with pytest.raises(UnsupportedTopologyError):
        split_mesh(unit_square(8), FractureNetwork((spec,)))


@pytest.mark.parametrize("paths, message", [
    ([((0.5, 0.0), (0.5, 0.5))], "fracture 0 terminates inside a subdomain at vertex 40"),
    ([((0.5, 0.5), (0.5, 0.0))], "fracture 0 terminates inside a subdomain at vertex 40"),
    ([((0.5, 0.0), (0.5, 1.0)), ((0.25, 0.5), (0.5, 0.5))],
     "fracture 1 terminates inside a subdomain at vertex 38"),
    ([((0.5, 0.0), (0.5, 1.0)), ((0.5, 0.5), (0.25, 0.5))],
     "fracture 1 terminates inside a subdomain at vertex 38"),
])
def test_split_names_the_first_interior_tip(paths, message):
    # vertex ids j * 9 + i on unit_square(8)
    from fracflow import UnsupportedTopologyError
    network = FractureNetwork(tuple(
        FractureSpec(path=(Point(*a), Point(*b)), aperture=ConstantAperture(1e-2), mobility=1.0)
        for a, b in paths))
    with pytest.raises(UnsupportedTopologyError, match=f"^{message}$"):
        split_mesh(unit_square(8), network)


def test_split_rejects_a_facet_no_single_cell_owns():
    mesh = unit_square(2)
    facets = np.vstack([mesh.boundary_facets, [[1, 4]]])        # an interior edge
    tagged = Mesh(mesh.vertices, mesh.cells, facets, [*mesh.facet_tags.tolist(), "left"])
    with pytest.raises(GeometryError, match=r"boundary facet \(1, 4\) is not owned"):
        split_mesh(tagged, FractureNetwork(()))
    interval = build_interval(4, 1.0)                            # an interior vertex
    tagged = Mesh(interval.vertices, interval.cells, [[0], [4], [2]], ["left", "right", "left"])
    with pytest.raises(GeometryError, match=r"boundary facet \(2,\) is not owned"):
        split_mesh(tagged, FractureNetwork(()))


def test_split_accepts_tip_on_other_fracture():
    # a T junction: the vertical fracture ends on the horizontal one
    horizontal = FractureSpec(path=(Point(0.0, 0.5), Point(1.0, 0.5)),
                              aperture=ConstantAperture(1e-2), mobility=1.0)
    vertical = FractureSpec(path=(Point(0.5, 0.5), Point(0.5, 1.0)),
                            aperture=ConstantAperture(1e-2), mobility=1.0)
    split = split_mesh(unit_square(8), FractureNetwork((horizontal, vertical)))
    assert split.n_subdomains == 3
    assert len(split.edges_of_fracture(0)) == 8
    assert len(split.edges_of_fracture(1)) == 4
    assert np.all(split.edges_of_fracture(1).fracture_id == 1)
    assert split.edges_of_fracture(1).points[:, :, 0] == pytest.approx(np.full((4, 2), 0.5))


def test_split_six_fracture_network_pinned_counts():
    segs = (((0.0, 0.5), (1.0, 0.5)), ((0.5, 0.0), (0.5, 1.0)),
            ((0.75, 0.5), (0.75, 1.0)), ((0.5, 0.75), (1.0, 0.75)),
            ((0.625, 0.5), (0.625, 0.75)), ((0.5, 0.625), (0.75, 0.625)))
    network = FractureNetwork(tuple(
        FractureSpec(path=(Point(*a), Point(*b)),
                     aperture=ConstantAperture(1e-4), mobility=1e4)
        for a, b in segs))
    split = split_mesh(unit_square(32), network)
    assert split.n_subdomains == 10
    assert split.n_dofs == 1210
    assert len(split.interface_edges) == 112
    lengths = [split.edges_of_fracture(j).length.sum() for j in range(6)]
    assert lengths == pytest.approx([1.0, 1.0, 0.5, 0.5, 0.25, 0.25])


def corner_group_cells(mesh, chains):
    """Cells after splitting, from the corner groups found vertex by vertex
    (kept as the reference): around each fracture vertex, in id order, the
    incident cells are joined through the non-fracture facets at the vertex
    (edges in 2D, the vertex itself in 1D); the group with the lowest cell
    keeps the id, and the others take new ids in the order of their lowest
    cells."""
    fracture_edges = {frozenset(e) for chain in chains for e in chain.tolist()}
    edge_cells = {}
    for c, cell in enumerate(mesh.cells.tolist()):
        # local facet k runs from corner k to corner k + d - 1
        for a, b in zip(cell, cell[mesh.dim - 1:] + cell[:mesh.dim - 1]):
            edge_cells.setdefault(frozenset((a, b)), []).append(c)
    cells = mesh.cells.copy()
    next_id = mesh.n_vertices
    for v in sorted({v for chain in chains for e in chain.tolist() for v in e}):
        label = {c: c for c in np.nonzero((mesh.cells == v).any(axis=1))[0].tolist()}

        def find(c):
            while label[c] != c:
                c = label[c]
            return c

        for edge, owners in edge_cells.items():
            if v in edge and edge not in fracture_edges and len(owners) == 2:
                a, b = sorted((find(owners[0]), find(owners[1])))
                label[b] = a
        groups = {}
        for c in label:
            groups.setdefault(find(c), []).append(c)
        for group in sorted(groups.values(), key=min)[1:]:
            for c in group:
                cells[c][cells[c] == v] = next_id
            next_id += 1
    return cells


def interleaved_interval():
    # x = 0.4, 0.5, 0.6, 0.7 with cells numbered out of x order
    return Mesh([[0.4], [0.5], [0.6], [0.7]], [[2, 3], [0, 1], [1, 2]],
                [[0], [3]], ["left", "right"])


def copy_id_case(case):
    """The mesh and network of a corner-group case: regular2d at n = case,
    a ``PATH_CASES`` one, or a 1D one."""
    if case in PATH_CASES:
        return PATH_CASES[case]()
    if case == "1d-out-of-order":           # copies are numbered by vertex
        return build_interval(10, 1.0), points_1d(0.7, 0.3)
    if case == "1d-interleaved":
        return interleaved_interval(), points_1d(0.5)
    return unit_square(case), run_scenario("regular2d", n=case, variant="blocking").split.network


# regular2d has crossings and T-junctions: three or four groups at one vertex;
# on the sheared PATH_CASES no cell's corner order follows the fracture
@pytest.mark.parametrize("case", [8, 16, *sorted(PATH_CASES), "1d-out-of-order",
                                  "1d-interleaved"])
def test_split_copy_ids_follow_corner_group_order(case):
    mesh, network = copy_id_case(case)
    split = split_mesh(mesh, network)
    expected = corner_group_cells(mesh, check_conformity(mesh, network))
    assert np.array_equal(split.base.cells, expected)
    assert np.array_equal(split.vertex_origin[mesh.n_vertices:],
                          np.sort(split.vertex_origin[mesh.n_vertices:]))


def test_split_no_fracture_is_identity():
    mesh = unit_square(4)
    split = split_mesh(mesh, FractureNetwork(()))
    assert split.n_dofs == mesh.n_vertices
    assert split.n_subdomains == 1
    assert len(split.interface_edges) == 0
    assert np.array_equal(split.vertex_origin, np.arange(mesh.n_vertices))


def test_split_1d_point_interface():
    mesh = build_interval(10, 1.0)
    spec = FractureSpec(path=(Point(0.5),), aperture=ConstantAperture(1e-3),
                        mobility=1e-3)
    split = split_mesh(mesh, FractureNetwork((spec,)))
    assert split.n_dofs == 12          # one duplicated vertex
    assert split.n_subdomains == 2
    point = split.interface_edges
    assert len(point) == 1
    assert point.apertures.shape == (1, 1)
    assert point.apertures[0, 0] == pytest.approx(1e-3)
    assert point.node_pairs.shape == (1, 1, 2)
    i, j = point.node_pairs[0, 0]
    assert split.vertex_origin[i] == split.vertex_origin[j]
    assert split.base.vertices[i, 0] == pytest.approx(0.5)
    assert point.points[0, 0, 0] == pytest.approx(0.5)


def test_split_1d_cells_out_of_x_order():
    # cells 0 and 2 lie right of x = 0.5 and form subdomain 0; cell 1, the
    # lowest cell at the point, keeps vertex 1, and side 1 is subdomain 0
    split = split_mesh(interleaved_interval(), points_1d(0.5))
    assert split.subdomain_of_cell.tolist() == [0, 1, 0]
    assert split.base.cells.tolist() == [[2, 3], [0, 1], [4, 2]]
    assert split.interface_edges.node_pairs.tolist() == [[[4, 1]]]
    assert split.subdomain_of_vertex()[[4, 1]].tolist() == [0, 1]


def test_split_rejects_nonconforming():
    with pytest.raises(ConformityError):
        split_mesh(unit_square(32), vertical_network(1e-2, 1.0, x=0.3))


def test_boundary_facets_cover_duplicated_endpoints():
    # fracture endpoints on the boundary are duplicated; both copies must
    # appear in boundary facets so boundary conditions reach both sides
    split = split_mesh(unit_square(8), vertical_network(1e-2, 1.0))
    facet_vertices = set(split.base.boundary_facets.ravel().tolist())
    for v in range(split.base.n_vertices):
        x, y = split.base.vertices[v]
        if min(x, 1 - x, y, 1 - y) < 1e-12:
            assert v in facet_vertices


def test_subdomain_of_vertex_matches_per_cell_loop():
    # crossings and T-junctions: every copy is used by the cells of one side
    split = run_scenario("regular2d", n=16, variant="conductive").split
    expected = np.full(split.n_dofs, -1)
    for c, cell in enumerate(split.base.cells):
        assert np.all((expected[cell] == -1) | (expected[cell] == split.subdomain_of_cell[c]))
        expected[cell] = split.subdomain_of_cell[c]
    assert np.array_equal(split.subdomain_of_vertex(), expected)


def test_components_match_csgraph():
    """Hook-and-compress labels are csgraph's, numbered by smallest node: on
    no nodes, no edges, self-loops and duplicate edges, a 10,000-node path
    listed from its far end, and random graphs."""
    rng = np.random.default_rng(3)
    cases = [(0, [], []), (7, [], []),
             (6, [2, 2, 4, 1, 4, 5, 5], [2, 0, 1, 0, 1, 5, 5]),
             (10_000, np.arange(9_999, 0, -1), np.arange(9_998, -1, -1))]
    for n in rng.integers(1, 300, 50):
        m = int(rng.integers(0, 2 * n))
        cases.append((n, rng.integers(0, n, m), rng.integers(0, n, m)))
    for n, a, b in cases:
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        got = components(n, a, b)
        assert got.dtype == np.int32 and got.shape == (n,)
        if n:
            graph = sp.coo_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
            assert np.array_equal(got, connected_components(graph, directed=False)[1])
