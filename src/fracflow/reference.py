"""Independent reference solutions: 1D analytics and a 2D equi-dimensional solve.

These are the oracles the interface model is compared against. The 1D
solutions are closed-form for a unit of horizontal through-flow; the 2D
oracle meshes the thin inclusion as a resolved band of cells instead of
collapsing it to an interface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import BoundaryConditionSet, LinearSystem, assemble
from .errors import GeometryError
from .geometry import (FractureNetwork, FractureSpec, SplitMesh, _tensor_quad_mesh,
                       split_mesh)
from .solver import SolveReport, solve

__all__ = [
    "PiecewiseLinear1D",
    "solve_1d_heterogeneous_analytic",
    "solve_1d_interface_analytic",
    "EquidimResult",
    "solve_equidim_2d",
]


@dataclass(frozen=True, eq=False)
class PiecewiseLinear1D:
    """Piecewise linear profile; one breakpoint may repeat to carry a jump."""

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        if bp.ndim != 1 or bp.shape != vals.shape or len(bp) < 2:
            raise GeometryError("breakpoints and values must be 1D arrays of equal length >= 2")
        if np.any(np.diff(bp) < 0.0):
            raise GeometryError("breakpoints must be non-decreasing")

    def eval(self, x, side: str = "mean"):
        """Evaluate at x; at a jump location choose 'left', 'right' or 'mean'."""
        if side not in ("left", "right", "mean"):
            raise GeometryError(f"side must be left/right/mean, got {side!r}")
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        bp, vals = self.breakpoints, self.values
        outside = (xs < bp[0]) | (xs > bp[-1])
        if outside.any():
            raise GeometryError(
                f"evaluation point {xs[np.argmax(outside)]} outside [{bp[0]}, {bp[-1]}]")
        # A point equal to a repeated breakpoint sits exactly on the jump.
        first = np.searchsorted(bp, xs, side="left")
        after = np.searchsorted(bp, xs, side="right")
        on_jump = after - first > 1
        out = np.empty_like(xs)
        left, right = vals[first[on_jump]], vals[after[on_jump] - 1]
        out[on_jump] = {"left": left, "right": right, "mean": 0.5 * (left + right)}[side]
        smooth = ~on_jump
        j = np.clip(after[smooth] - 1, 0, len(bp) - 2)
        degenerate = bp[j + 1] == bp[j]     # interval degenerate: step over the jump
        j[degenerate] += np.where(j[degenerate] + 2 < len(bp), 1, -1)
        t = (xs[smooth] - bp[j]) / (bp[j + 1] - bp[j])
        out[smooth] = (1.0 - t) * vals[j] + t * vals[j + 1]
        return out if np.ndim(x) else float(out[0])


def _check_1d_args(L, S, eps, k1, k2, kf, h):
    for name, v in (("L", L), ("eps", eps), ("k1", k1), ("k2", k2), ("kf", kf)):
        if not (np.isfinite(v) and v > 0.0):
            raise GeometryError(f"{name} must be positive, got {v!r}")
    if not np.isfinite(h):
        raise GeometryError(f"h must be finite, got {h!r}")
    if not np.isfinite(S):
        raise GeometryError(f"S must be finite, got {S!r}")


def solve_1d_heterogeneous_analytic(L: float, S: float, eps: float, k1: float,
                                    k2: float, kf: float, h: float) -> PiecewiseLinear1D:
    """Exact pressure for through-flow h across a resolved inclusion.

    Mobility k1 on (0, S - eps/2), kf inside the inclusion, k2 on the right;
    inward flux h at x = 0 and p(L) = 0. The flux is h everywhere, so the
    profile is continuous and piecewise linear with slope -h/k on each piece.
    """
    _check_1d_args(L, S, eps, k1, k2, kf, h)
    s1, s2 = S - 0.5 * eps, S + 0.5 * eps
    if not (0.0 < s1 and s2 < L):
        raise GeometryError(f"inclusion [{s1}, {s2}] must lie strictly inside (0, {L})")
    p_s2 = h * (L - s2) / k2
    p_s1 = p_s2 + h * eps / kf
    p_0 = p_s1 + h * s1 / k1
    return PiecewiseLinear1D(
        breakpoints=np.array([0.0, s1, s2, L]),
        values=np.array([p_0, p_s1, p_s2, 0.0]),
    )


def solve_1d_interface_analytic(L: float, S: float, eps: float, k1: float,
                                k2: float, kf: float, h: float) -> PiecewiseLinear1D:
    """Exact pressure of the interface model: the inclusion collapsed to x = S.

    Through-flow h, p(L) = 0. Both sides keep slope -h/k; the interface
    carries the jump p_right - p_left = -(eps / kf) * h.
    """
    _check_1d_args(L, S, eps, k1, k2, kf, h)
    if not (0.0 < S < L):
        raise GeometryError(f"interface S={S} must lie strictly inside (0, {L})")
    p_right = h * (L - S) / k2
    jump = -(eps / kf) * h
    p_left = p_right - jump
    p_0 = p_left + h * S / k1
    return PiecewiseLinear1D(
        breakpoints=np.array([0.0, S, S, L]),
        values=np.array([p_0, p_left, p_right, 0.0]),
    )


@dataclass(eq=False)
class EquidimResult:
    """Equi-dimensional solve: fracture-free split mesh plus nodal pressure."""

    split: SplitMesh
    pressure: np.ndarray
    system: LinearSystem
    report: SolveReport
    k_per_cell: np.ndarray


def solve_equidim_2d(n: int, band_cells_across: int, fracture: FractureSpec,
                     bcs: BoundaryConditionSet) -> EquidimResult:
    """Solve the flow problem on the unit square with ``fracture`` meshed as a band.

    The fracture must be one straight vertical segment at x = x_f from y = 0
    to y = 1, in either direction. A tensor-product grid is built from n
    uniform columns and n rows; grid lines falling inside the band around
    x_f are replaced by the band edges plus ``band_cells_across`` columns
    across the band. The band width at height y is the fracture's aperture
    at arc length |y - y0| from the path's first point (x_f, y0), so it
    varies by row and is approximated by whole cell columns, a documented
    discretization error of this oracle. Cells whose center lies inside the
    band get the fracture's mobility, all others mobility 1.

    The system is solved to a relative residual of 1e-12. The multigrid
    smoother relaxes each grid row of nodes across the band as one line (one
    group per row, see ``solver``): the thin band cells make the operator
    strongly anisotropic, which point relaxation smooths poorly.
    """
    path = fracture.path
    if len(path) != 2 or path[0].x != path[1].x or {path[0].y, path[1].y} != {0.0, 1.0}:
        raise GeometryError("the band reference needs a fracture that is one vertical "
                            f"segment from y = 0 to y = 1, got path {[p.coords for p in path]}")
    if n < 2:
        raise GeometryError(f"n must be >= 2, got {n}")
    if band_cells_across < 1:
        raise GeometryError(f"band_cells_across must be >= 1, got {band_cells_across}")
    x_f, y0 = path[0].coords

    wmax = float(np.max(fracture.aperture.at(np.abs(np.linspace(0.0, 1.0, 4 * n + 1) - y0))))
    if not (np.isfinite(wmax) and wmax > 0.0):
        raise GeometryError(f"band width must be positive, got {wmax!r}")
    b_lo = x_f - 0.5 * wmax
    b_hi = x_f + 0.5 * wmax
    if not (0.0 < b_lo and b_hi < 1.0):
        raise GeometryError(f"band [{b_lo}, {b_hi}] must lie strictly inside (0, 1)")

    uniform = np.linspace(0.0, 1.0, n + 1)     # the rows, and the columns outside the band
    dx = 1.0 / n
    # Replace grid lines in (or nearly in) the band with exact band columns;
    # the margin avoids sliver cells hugging the band edges.
    keep = np.abs(uniform - x_f) > 0.5 * wmax + 0.05 * dx
    band_lines = np.linspace(b_lo, b_hi, band_cells_across + 1)
    xs = np.unique(np.concatenate([uniform[keep], band_lines]))
    mesh = _tensor_quad_mesh(xs, uniform)

    split = split_mesh(mesh, FractureNetwork(()))
    centers = mesh.vertices[mesh.cells].mean(axis=1)
    half_w = 0.5 * fracture.aperture.at(np.abs(centers[:, 1] - y0))
    in_band = np.abs(centers[:, 0] - x_f) < half_w
    k_cell = np.where(in_band, fracture.mobility, 1.0)

    system = assemble(split, k_cell, [], bcs)
    # Without fractures a dof is its mesh vertex, numbered row by row. Each
    # grid row's nodes from the last uniform line left of the band to the
    # first one right of it form one group: the band cells and the slivers
    # next to them are narrower than tall, so they couple these nodes far
    # more strongly across the band than along it.
    first = max(int(np.searchsorted(xs, b_lo)) - 1, 0)
    last = min(int(np.searchsorted(xs, b_hi)) + 1, len(xs) - 1)
    lines = np.arange(n + 1)[:, None] * len(xs) + np.arange(first, last + 1)
    groups = np.arange(system.n_dofs)
    groups[lines] = lines[:, :1]
    pressure, report = solve(system.matrix, system.rhs, tol=1e-12, groups=groups)
    return EquidimResult(split=split, pressure=pressure, system=system,
                         report=report, k_per_cell=k_cell)
