"""Memory high-water marks of the pipeline stages.

Each stage's tracemalloc peak at blocking ``regular2d`` n=128 (17,098
dofs) stays under a multiple of the bytes of the eliminated matrix. Each
bound sits below the peak the stage reaches when it holds a full-size
temporary, by at least 25% unless noted: an (n_cells, 4, 2) corner array
in the mesh check, a 16-triplet-per-cell coordinate matrix and a stored
copy of the penalty-summed matrix in ``assemble``, whole-graph float64
strength and int64 group gathers or a CSC copy of A P in ``multigrid``,
bounding boxes of every cell at once in ``sample_profile`` (15%), and the
int64 cell ids of the facet table and of its gathers over the joining
facets in ``split_mesh`` (4.5%). The split bound went from 1.5 to 1.28
when the table's cell ids became int32 (1.34 to 1.19 times).

The sparse arrays the assembled system keeps are at most 1.1 times the
eliminated matrix's bytes. A system that also kept the full domain matrix
would hold about 2.0 times.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from fracflow import Mesh, Point, assemble, build_structured_quad, sample_profile, split_mesh
from fracflow.scenarios import SCENARIOS
from fracflow.solver import multigrid

from conftest import coeffs_for


def _peak(stage):
    """The stage's result and its tracemalloc high-water mark in bytes, the
    result included."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = stage()
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def blocking_128():
    case = SCENARIOS["regular2d"].build(128, "blocking")
    system, assemble_peak = _peak(
        lambda: assemble(case.split, 1.0, coeffs_for(case.split.network), case.bcs))
    A = system.matrix
    return case.split, system, assemble_peak, A.data.nbytes + A.indices.nbytes + A.indptr.nbytes


def test_assemble_peak(blocking_128):
    _split, _system, peak, matrix_bytes = blocking_128
    assert peak <= 3.3 * matrix_bytes


def test_system_keeps_one_full_size_matrix(blocking_128):
    _split, system, _peak_assemble, matrix_bytes = blocking_128
    kept = [getattr(system, f.name) for f in dataclasses.fields(system)]
    sparse = [M for M in kept if sp.issparse(M)]
    assert any(M is system.matrix for M in sparse)
    assert sum(M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
               for M in sparse) <= 1.1 * matrix_bytes


def test_multigrid_peak(blocking_128):
    _split, system, _peak_assemble, matrix_bytes = blocking_128
    hierarchy, peak = _peak(lambda: multigrid(system.matrix, system.copy_groups))
    assert len(hierarchy.levels) > 2
    assert peak <= 1.74 * matrix_bytes


def test_split_peak(blocking_128):
    split, _system, _peak_assemble, matrix_bytes = blocking_128
    mesh = build_structured_quad(128, 128, Point(0.0, 0.0), Point(1.0, 1.0))
    again, peak = _peak(lambda: split_mesh(mesh, split.network))
    assert np.array_equal(again.base.cells, split.base.cells)
    assert peak <= 1.28 * matrix_bytes


def test_mesh_construction_peak(blocking_128):
    split, _system, _peak_assemble, matrix_bytes = blocking_128
    base = split.base
    # the arrays are passed in as they are, so the checks' temporaries show
    _mesh, peak = _peak(lambda: Mesh(base.vertices, base.cells, base.boundary_facets,
                                     base.facet_tags))
    assert peak <= 0.65 * matrix_bytes


def test_sample_profile_peak(blocking_128):
    split, _system, _peak_assemble, matrix_bytes = blocking_128
    values = np.arange(split.n_dofs, dtype=float)
    # every sample sits on a vertex, most of them shared by four cells
    profile, peak = _peak(lambda: sample_profile(split, values, Point(0.0, 0.0),
                                                 Point(1.0, 1.0), 129))
    assert len(profile) == 129
    assert peak <= 0.95 * matrix_bytes
