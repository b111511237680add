"""Meshes, conformity checking and interface splitting."""

import numpy as np
import pytest

from fracflow import (ConformityError, ConstantAperture, EllipticalAperture,
                      FractureNetwork, FractureSpec, GeometryError,
                      InterfaceEntities, Mesh, Point, build_interval,
                      build_structured_quad, check_conformity, run_scenario,
                      split_mesh)
from conftest import unit_square, vertical_network


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
    assert ap(Point(0.1, 0.9)) == 1e-3
    assert ap.max_value == 1e-3
    with pytest.raises(GeometryError):
        ConstantAperture(0.0)
    with pytest.raises(GeometryError):
        ConstantAperture(-1.0)


def test_elliptical_aperture_profile():
    ap = EllipticalAperture(center=Point(0.5, 0.5), major=1.0, minor=1e-2)
    assert ap(Point(0.5, 0.5)) == pytest.approx(1e-2)
    # half way to the tip: minor * sqrt(1 - 0.5^2)
    assert ap(Point(0.5, 0.75)) == pytest.approx(1e-2 * np.sqrt(0.75))
    # at and beyond the tip the opening is zero
    assert ap(Point(0.5, 1.0)) == 0.0
    assert ap(Point(0.5, 1.3)) == 0.0
    assert ap.max_value == 1e-2
    with pytest.raises(GeometryError):
        EllipticalAperture(center=Point(0.0, 0.0), major=-1.0, minor=1e-2)


@pytest.mark.parametrize("center", [Point(0.5, 0.5), Point(0.3)])
def test_aperture_arrays_match_per_point_profile(center):
    # the array form rounds as the per-point norm of the offset does
    ap = EllipticalAperture(center=center, major=1.0, minor=1e-2)
    pts = np.random.default_rng(7).random((2000, center.dim)) * 1.2 - 0.1
    ratio = np.array([np.linalg.norm(p - center.as_array()) / 0.5 for p in pts])
    want = np.where(ratio < 1.0, 1e-2 * np.sqrt(np.maximum(1.0 - ratio * ratio, 0.0)), 0.0)
    assert np.array_equal(ap.at(pts), want)
    assert ap(Point(*pts[0])) == want[0]
    assert np.array_equal(ConstantAperture(1e-3).at(pts), np.full(2000, 1e-3))


def test_elliptical_centre_must_match_path_dimension():
    flat = EllipticalAperture(center=Point(0.5), major=1.0, minor=1e-2)
    with pytest.raises(GeometryError, match="centre"):
        FractureSpec(path=(Point(0.5, 0.0), Point(0.5, 1.0)), aperture=flat, mobility=1.0)
    plane = EllipticalAperture(center=Point(0.5, 0.5), major=1.0, minor=1e-2)
    with pytest.raises(GeometryError, match="centre"):
        FractureSpec(path=(Point(0.5),), aperture=plane, mobility=1.0)
    FractureSpec(path=(Point(0.5),), aperture=flat, mobility=1.0)
    FractureSpec(path=(Point(0.5, 0.0), Point(0.5, 1.0)), aperture=plane, mobility=1.0)


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
    facets = (((0,), "left"), ((len(x) - 1,), "right"))
    with pytest.raises(GeometryError, match="cell 1 "):
        Mesh(np.array(x)[:, None], np.array(cells), facets)


def test_structured_quad_rejects_bad_sizes():
    with pytest.raises(GeometryError):
        build_structured_quad(0, 4, Point(0.0, 0.0), Point(1.0, 1.0))
    with pytest.raises(GeometryError):
        build_structured_quad(4, 4, Point(1.0, 0.0), Point(0.0, 1.0))


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
    with pytest.raises(ConformityError):
        check_conformity(unit_square(32), FractureNetwork((spec,)))


def test_conformity_rejects_diagonal_path():
    spec = FractureSpec(path=(Point(0.0, 0.0), Point(1.0, 1.0)),
                        aperture=ConstantAperture(1e-2), mobility=1.0)
    with pytest.raises(ConformityError):
        check_conformity(unit_square(8), FractureNetwork((spec,)))


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
        copies = split.copies_of(v)
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
    for name in ("fracture_id", "node_pairs", "points", "apertures", "normal", "length"):
        assert not getattr(edges, name).flags.writeable
    # the rows of each fracture, in order, make up the record
    rows = [split.edges_of_fracture(j) for j in range(6)]
    assert all(isinstance(r, InterfaceEntities) for r in rows)
    assert np.array_equal(np.concatenate([r.node_pairs for r in rows]), edges.node_pairs)
    assert np.array_equal(edges[3:5].points, edges.points[3:5])
    assert len(split.edges_of_fracture(6)) == 0
    # side 1 is the lower subdomain; unit normals across their edges
    side = split.subdomain_of_vertex()[edges.node_pairs]
    assert np.all(side[..., 0] < side[..., 1])
    tangent = edges.points[:, 1] - edges.points[:, 0]
    assert np.allclose(np.linalg.norm(edges.normal, axis=1), 1.0)
    assert np.allclose(np.einsum("md,md->m", edges.normal, tangent), 0.0)
    assert np.allclose(np.linalg.norm(tangent, axis=1), edges.length)


def test_split_rejects_interior_tip():
    # a tip that ends strictly inside the domain (touching neither the
    # boundary nor another fracture) is unsupported
    from fracflow import UnsupportedTopologyError
    spec = FractureSpec(path=(Point(0.5, 0.0), Point(0.5, 0.5)),
                        aperture=ConstantAperture(1e-2), mobility=1.0)
    with pytest.raises(UnsupportedTopologyError):
        split_mesh(unit_square(8), FractureNetwork((spec,)))


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
    incident cells are joined through the non-fracture edges at the vertex;
    the group with the lowest cell keeps the id, and the others take new ids
    in the order of their lowest cells."""
    fracture_edges = {frozenset(e) for chain in chains for e in chain}
    edge_cells = {}
    for c, cell in enumerate(mesh.cells.tolist()):
        for a, b in zip(cell, cell[1:] + cell[:1]):
            edge_cells.setdefault(frozenset((a, b)), []).append(c)
    cells = mesh.cells.copy()
    next_id = mesh.n_vertices
    for v in sorted({v for chain in chains for e in chain for v in e}):
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


@pytest.mark.parametrize("n", [8, 16])
def test_split_copy_ids_follow_corner_group_order(n):
    # crossings and T-junctions: three or four groups at one vertex
    split = run_scenario("regular2d", n=n, variant="blocking").split
    mesh = unit_square(n)
    expected = corner_group_cells(mesh, check_conformity(mesh, split.network))
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
    assert point.normal.tolist() == [[1.0]]


def test_split_rejects_nonconforming():
    with pytest.raises(ConformityError):
        split_mesh(unit_square(32), vertical_network(1e-2, 1.0, x=0.3))


def test_boundary_facets_cover_duplicated_endpoints():
    # fracture endpoints on the boundary are duplicated; both copies must
    # appear in boundary facets so boundary conditions reach both sides
    split = split_mesh(unit_square(8), vertical_network(1e-2, 1.0))
    facet_vertices = set()
    for vids, _tag in split.base.boundary_facets:
        facet_vertices.update(vids)
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
